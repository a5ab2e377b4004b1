"""Bumpless pipe dreams.

A grid is a tuple of n strings over six glyphs, row 1 at the top:

    "."  blank          no pipe segments
    "-"  horizontal     left+right
    "|"  vertical       top+bottom
    "+"  crossing       all four edges (two pipes)
    "L"  down-elbow     bottom+right
    "J"  up-elbow       top+left

n pipes enter through the bottom boundary (pipe j at column j), travel
weakly up and to the right, and exit through the right boundary (one per
row).  The tile whose connectivity would be bottom+right+top+left paired as
a bounce (the "bump") has no glyph, so it is unrepresentable by
construction.  Cells are (row, column), 1-based.
"""

from __future__ import annotations

from operator import itemgetter

from . import perms
from .perms import Cell, Perm

Bpd = tuple[str, ...]
DroopMove = tuple[Cell, Cell]

GLYPHS = ".-|+LJ"

# (top, right, bottom, left) pipe-segment flags per glyph
EDGES = {
    ".": (False, False, False, False),
    "-": (False, True, False, True),
    "|": (True, False, True, False),
    "+": (True, True, True, True),
    "L": (False, True, True, False),
    "J": (True, False, False, True),
}

KIND_NAMES = {
    ".": "blank",
    "-": "horizontal",
    "|": "vertical",
    "+": "crossing",
    "L": "down_elbow",
    "J": "up_elbow",
}
GLYPH_OF_KIND = {v: k for k, v in KIND_NAMES.items()}


class InvalidBpd(ValueError):
    pass


# Per edge, a table sending each glyph to "1" when it has that pipe
# segment and to "0" when not, so one ``translate`` gives a grid's flags.
# "#" marks the left and right boundary between rows: it has no right
# segment, so a row's first cell must have no left one, and it has a left
# segment, so a row's last cell must have a right one (the pipe's exit).
_TOP, _RIGHT, _BOTTOM, _LEFT = (
    str.maketrans({g: "01"[e[k]] for g, e in EDGES.items()} | {"#": "0001"[k]})
    for k in range(4)
)
_NOT_GLYPHS = str.maketrans("", "", GLYPHS)


def validate_bpd(grid, w: Perm | None = None) -> Bpd:
    """Full validation: glyphs, edge matching, boundary, pipe tracing,
    and the at-most-one-crossing rule for every pair of pipes; when w is
    given, also that the pipes spell w."""
    rows, word = _validated(grid)
    if w is not None and word != w:
        raise InvalidBpd(
            f"tiling spells {perms.perm_to_text(word)}, not {perms.perm_to_text(w)}"
        )
    return rows


def _validated(grid) -> tuple[Bpd, Perm]:
    """The rows of a valid grid and the permutation its pipes spell."""
    rows = tuple("".join(r) if not isinstance(r, str) else r for r in grid)
    _check_edges(rows)
    return rows, _trace(rows)


def _check_edges(rows: Bpd) -> None:
    """Raise unless the grid is square, every glyph is known and every
    edge and boundary matches."""
    n = len(rows)
    if set(map(len, rows)) != {n}:
        raise InvalidBpd("grid is not square")
    cells = "".join(rows)
    stray = cells.translate(_NOT_GLYPHS)
    if stray:
        raise InvalidBpd(f"unknown tile glyph {stray[0]!r}")
    # Each cell's bottom flag against the top flag n cells on, with no
    # pipe above row 1 and every pipe entering below row n; each right
    # flag against the next left flag along the "#"-bounded rows.
    bounded = "#" + "#".join(rows) + "#"
    if (
        "0" * n + cells.translate(_BOTTOM) != cells.translate(_TOP) + "1" * n
        or bounded.translate(_RIGHT)[:-1] != bounded.translate(_LEFT)[1:]
    ):
        raise InvalidBpd(_edge_fault(rows))


def _edge_fault(rows: Bpd) -> str:
    """The first failing edge check: cells in row-major order, and in each
    cell the checks in a fixed order."""
    n = len(rows)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            top, right, bottom, left = EDGES[rows[i - 1][j - 1]]
            if i == 1 and top:
                return f"pipe leaks through the top boundary at column {j}"
            if j == 1 and left:
                return f"pipe leaks through the left boundary at row {i}"
            if i == n and not bottom:
                return f"missing pipe entry at bottom of column {j}"
            if j == n and not right:
                return f"missing pipe exit at right of row {i}"
            if i < n and bottom != EDGES[rows[i][j - 1]][0]:
                return f"edge mismatch between ({i},{j}) and ({i + 1},{j})"
            if j < n and right != EDGES[rows[i - 1][j]][3]:
                return f"edge mismatch between ({i},{j}) and ({i},{j + 1})"
    raise AssertionError("grid passed every edge check")


def _trace(rows: Bpd) -> Perm:
    """The permutation of an edge-consistent grid; raise if two pipes
    cross more than once.

    Two pipes cross an odd number of times exactly when they form an
    inversion, so there is no repeated crossing exactly when the grid
    has as many crossings as the permutation has inversions."""
    word = _pipes(rows)
    if "".join(rows).count("+") != perms.coxeter_length(word):
        raise InvalidBpd(f"pipes {_repeated_crossing(rows)} cross more than once")
    return word


def _pipes(rows: Bpd) -> Perm:
    """The permutation an edge-consistent grid's pipes spell, with no
    check of its crossings.

    One sweep, bottom row first, carries the pipe entering each column
    from below.  Edge consistency makes each row's elbows read L, J, L,
    ..., J, L from left to right: an up-elbow takes the pipe of the
    down-elbow before it, and the last down-elbow's pipe exits the row."""
    n = len(rows)
    up = list(range(1, n + 1))
    word = [0] * n
    for i in range(n - 1, -1, -1):
        r = rows[i]
        j = r.find("L")
        k = r.find("J", j)
        while k >= 0:
            up[k], up[j] = up[j], 0
            j = r.find("L", k)
            k = r.find("J", j)
        word[i], up[j] = up[j], 0
    return tuple(word)


def _repeated_crossing(rows: Bpd) -> tuple[int, int]:
    """The first pair of pipes met twice, taking the crossings pipe by
    pipe (by the pipe passing vertically), each in path order."""
    n = len(rows)
    up = list(range(1, n + 1))
    crossings = []
    for i in range(n - 1, -1, -1):
        h = 0
        for j, t in enumerate(rows[i]):
            if t == "+":
                crossings.append((up[j], h))
            elif t == "L":
                h, up[j] = up[j], 0
            elif t == "J":
                up[j], h = h, 0
    seen = set()
    for v, h in sorted(crossings, key=itemgetter(0)):
        pair = (min(v, h), max(v, h))
        if pair in seen:
            return pair
        seen.add(pair)
    raise AssertionError("no pair of pipes crosses twice")


def permutation_of(B: Bpd) -> Perm:
    """The permutation sending each exit row to the label of its pipe."""
    return _validated(B)[1]


def diagram(B: Bpd) -> frozenset[Cell]:
    """The blank cells."""
    n = len(B)
    return frozenset(
        (i, j) for i in range(1, n + 1) for j in range(1, n + 1) if B[i - 1][j - 1] == "."
    )


_LEFT_OF_ELBOW = str.maketrans("01", ".|")
_RIGHT_OF_ELBOW = str.maketrans("01", "-+")


def rothe_bpd(w: Perm) -> Bpd:
    """The unique element with a down-elbow at every (i, w(i)) and no up-elbow;
    its blank cells are exactly the Rothe diagram."""
    w = perms.validate_perm(w)
    # ``above`` holds "1" in each column whose pipe turned in a row above.
    # Left of the row's elbow such a column reads "|" and any other ".";
    # right of it, where the row's own pipe runs, "+" and "-".
    above = "0" * len(w)
    rows = []
    for v in w:
        rows.append(
            above[: v - 1].translate(_LEFT_OF_ELBOW) + "L"
            + above[v:].translate(_RIGHT_OF_ELBOW)
        )
        above = above[: v - 1] + "1" + above[v:]
    return validate_bpd(rows, w)


# Elbows become "E" and blanks stay ".", so a droop scan finds both with
# ``str.find`` on one string per row.
_ELBOW_MARKS = str.maketrans("-|+LJ", "xxxEE")
# A droop swaps "-" with "." and "+" with "|" along the source and target
# rows between the two columns, and "|" with "." and "+" with "-" down the
# source and target columns between the two rows.
_ROW_SWAP = str.maketrans("-.+|", ".-|+")
_COL_SWAP = str.maketrans("|.+-", ".|-+")


def _droops(B: Bpd):
    """Every legal droop as 0-based (i, j, a, b).

    From a down-elbow at (i, j) the scan goes down the rows below it,
    keeping the first column right of j that holds an elbow in any row
    from i down; blanks left of that bound are targets.  It stops at the
    first row with an elbow in column j, or once the bound is column
    j + 1, which leaves no column for a target."""
    n = len(B)
    marks = [r.translate(_ELBOW_MARKS) for r in B]
    for i, row in enumerate(B):
        j = row.find("L")
        while j >= 0:
            bound = marks[i].find("E", j + 1)
            if bound < 0:
                bound = n
            for a in range(i + 1, n):
                m = marks[a]
                if bound == j + 1 or m[j] == "E":
                    break
                e = m.find("E", j + 1, bound)
                if e >= 0:
                    bound = e
                b = m.find(".", j + 1, bound)
                while b >= 0:
                    yield i, j, a, b
                    b = m.find(".", b + 1, bound)
            j = row.find("L", j + 1)


def _droop(B: Bpd, i: int, j: int, a: int, b: int) -> Bpd:
    """The grid after the legal droop (i, j) -> (a, b), 0-based."""
    rows = list(B)
    r = B[i]
    rows[i] = r[:j] + "." + r[j + 1 : b].translate(_ROW_SWAP) + "L" + r[b + 1 :]
    for x in range(i + 1, a):
        r = B[x]
        rows[x] = (
            r[:j] + r[j].translate(_COL_SWAP) + r[j + 1 : b]
            + r[b].translate(_COL_SWAP) + r[b + 1 :]
        )
    r = B[a]
    rows[a] = r[:j] + "L" + r[j + 1 : b].translate(_ROW_SWAP) + "J" + r[b + 1 :]
    return tuple(rows)


def legal_droops(B: Bpd) -> set[DroopMove]:
    """All (down-elbow, blank) pairs whose spanning rectangle contains no
    other elbow of either kind."""
    return {((i + 1, j + 1), (a + 1, b + 1)) for i, j, a, b in _droops(B)}


def apply_droop(B: Bpd, move: DroopMove) -> Bpd:
    """Reroute the pipe turning at the source elbow around the target blank."""
    (i, j), (a, b) = move
    n = len(B)
    if not (1 <= i < a <= n and 1 <= j < b <= n):
        raise ValueError(f"target {  (a, b)} is not strictly southeast of source {(i, j)}")
    if B[i - 1][j - 1] != "L":
        raise ValueError(f"source {(i, j)} is not a down-elbow")
    if B[a - 1][b - 1] != ".":
        raise ValueError(f"target {(a, b)} is not blank")
    for x in range(i, a + 1):
        for y in range(j, b + 1):
            if (x, y) != (i, j) and B[x - 1][y - 1] in "LJ":
                raise ValueError(f"rectangle contains another elbow at {(x, y)}")
    return validate_bpd(_droop(B, i - 1, j - 1, a - 1, b - 1))


def enumerate_bpds(w: Perm) -> frozenset[Bpd]:
    """Closure of the Rothe element under droop moves.

    Each tiling is validated once, when it is first reached: its glyphs
    and edges, then that its pipes spell w through exactly l(w)
    crossings, which for a tiling of w is ``_trace``'s test for a
    repeated crossing.  l(w) is computed once per call.  A tiling that
    fails goes through ``validate_bpd``, which raises the first fault
    in its own order of checks."""
    w = tuple(w)  # a tuple, to compare with each tiling's word; rothe_bpd validates it
    start = rothe_bpd(w)
    length = perms.coxeter_length(w)
    seen = {start}
    frontier = [start]
    while frontier:
        B = frontier.pop()
        for move in _droops(B):
            nxt = _droop(B, *move)
            if nxt not in seen:
                _check_edges(nxt)
                if _pipes(nxt) != w or "".join(nxt).count("+") != length:
                    validate_bpd(nxt, w)
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def transition_bijection(B: Bpd, corner: Cell) -> Bpd:
    """The corner surgery: a blank corner becomes a down-elbow (dropping the
    permutation by one transposition), an up-elbow corner becomes a crossing.

    Every tile weakly southeast of the corner other than the corner itself is
    pinned to its Rothe value, so the rewrite below is total; hitting an
    unexpected tile means the input was not a valid element for this corner.
    """
    w = permutation_of(B)
    if corner not in perms.lower_outside_corners(w):
        raise ValueError(f"{corner} is not a lower outside corner of the diagram")
    a, b = corner
    c = perms.inverse(w)[b - 1]
    d = w[a - 1]
    grid = [list(r) for r in B]

    def rewrite(x, y, table):
        old = grid[x - 1][y - 1]
        if old not in table:
            raise InvalidBpd(
                f"tile {old!r} at {(x, y)} breaks the pinned southeast region"
            )
        grid[x - 1][y - 1] = table[old]

    rewrite(a, b, {".": "L", "J": "+"})
    for y in range(b + 1, d):
        rewrite(a, y, {"|": "+"})
    rewrite(a, d, {"L": "-"})
    for x in range(a + 1, c):
        rewrite(x, b, {"-": "+"})
    rewrite(c, b, {"L": "|"})
    for x in range(a + 1, c):
        rewrite(x, d, {"+": "-"})
    for y in range(b + 1, d):
        rewrite(c, y, {"+": "|"})
    rewrite(c, d, {"+": "L"})
    return validate_bpd("".join(r) for r in grid)


def bpd_to_text(B: Bpd) -> str:
    return "\n".join(B)


def bpd_to_json(B: Bpd) -> list[list[str]]:
    return [[KIND_NAMES[ch] for ch in row] for row in B]


def bpd_from_json(data) -> Bpd:
    try:
        rows = ["".join(GLYPH_OF_KIND[kind] for kind in row) for row in data]
    except (KeyError, TypeError) as exc:
        raise InvalidBpd(f"bad tile kind in JSON grid: {exc}") from exc
    return validate_bpd(rows)
