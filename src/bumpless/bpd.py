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
    """Raise at the first fault: a grid that is not square, then an
    unknown glyph, then the edge checks, cells in row-major order and in
    each cell the checks in a fixed order."""
    n = len(rows)
    if set(map(len, rows)) != {n}:
        raise InvalidBpd("grid is not square")
    for g in "".join(rows):
        if g not in EDGES:
            raise InvalidBpd(f"unknown tile glyph {g!r}")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            top, right, bottom, left = EDGES[rows[i - 1][j - 1]]
            if i == 1 and top:
                fault = f"pipe leaks through the top boundary at column {j}"
            elif j == 1 and left:
                fault = f"pipe leaks through the left boundary at row {i}"
            elif i == n and not bottom:
                fault = f"missing pipe entry at bottom of column {j}"
            elif j == n and not right:
                fault = f"missing pipe exit at right of row {i}"
            elif i < n and bottom != EDGES[rows[i][j - 1]][0]:
                fault = f"edge mismatch between ({i},{j}) and ({i + 1},{j})"
            elif j < n and right != EDGES[rows[i - 1][j]][3]:
                fault = f"edge mismatch between ({i},{j}) and ({i},{j + 1})"
            else:
                continue
            raise InvalidBpd(fault)


def _trace(rows: Bpd) -> Perm:
    """The permutation of an edge-consistent grid; raise if two pipes
    cross more than once.

    One sweep, bottom row first, carries the pipe entering each column
    from below and the pipe running along the row, and notes each
    crossing.  The first pair met twice is reported, taking the
    crossings pipe by pipe (by the pipe passing vertically), each in
    path order."""
    up = list(range(1, len(rows) + 1))
    word = []
    crossings = []
    for r in reversed(rows):
        h = 0
        for j, t in enumerate(r):
            if t == "+":
                crossings.append((up[j], h))
            elif t == "L":
                h, up[j] = up[j], 0
            elif t == "J":
                up[j], h = h, 0
        word.append(h)
    seen = set()
    for v, h in sorted(crossings, key=itemgetter(0)):
        pair = (min(v, h), max(v, h))
        if pair in seen:
            raise InvalidBpd(f"pipes {pair} cross more than once")
        seen.add(pair)
    return tuple(reversed(word))


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


def _other_elbow(B: Bpd, move: DroopMove) -> Cell | None:
    """The first elbow of either kind, other than the source, in the
    rectangle a droop spans."""
    (i, j), (a, b) = move
    for x in range(i, a + 1):
        for y in range(j, b + 1):
            if (x, y) != (i, j) and B[x - 1][y - 1] in "LJ":
                return x, y
    return None


def legal_droops(B: Bpd) -> set[DroopMove]:
    """All (down-elbow, blank) pairs, the blank strictly southeast of the
    elbow, whose spanning rectangle contains no other elbow of either
    kind."""
    n = len(B)
    return {
        ((i, j), (a, b))
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if B[i - 1][j - 1] == "L"
        for a in range(i + 1, n + 1)
        for b in range(j + 1, n + 1)
        if B[a - 1][b - 1] == "." and _other_elbow(B, ((i, j), (a, b))) is None
    }


# A droop swaps "-" with "." and "+" with "|" along the source and target
# rows between the two columns, and "|" with "." and "+" with "-" down the
# source and target columns between the two rows.
_ROW_SWAP = str.maketrans("-.+|", ".-|+")
_COL_SWAP = str.maketrans("|.+-", ".|-+")


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
    elbow = _other_elbow(B, move)
    if elbow is not None:
        raise ValueError(f"rectangle contains another elbow at {elbow}")
    rows = list(B)
    r = B[i - 1]
    rows[i - 1] = r[: j - 1] + "." + r[j : b - 1].translate(_ROW_SWAP) + "L" + r[b:]
    for x in range(i, a - 1):
        r = B[x]
        rows[x] = (
            r[: j - 1] + r[j - 1].translate(_COL_SWAP) + r[j : b - 1]
            + r[b - 1].translate(_COL_SWAP) + r[b:]
        )
    r = B[a - 1]
    rows[a - 1] = r[: j - 1] + "L" + r[j : b - 1].translate(_ROW_SWAP) + "J" + r[b:]
    return validate_bpd(rows)


def _row_options(below: tuple[int, ...], target: int) -> list[tuple[str, tuple[int, ...]]]:
    """Every way to tile one row over the pipe labels entering it from
    below (0 for none), with the pipe ``target`` leaving through its right
    end: each as its glyphs and the labels it passes up.

    A scan runs left to right carrying h, the pipe on the row's
    horizontal edge, from h = 0.  A pipe v from below meets h = 0 as "|"
    or "L", and meets h != 0 only as "+", and only when h < v: before two
    pipes first meet, the horizontal one lies northwest of the vertical
    one, so it entered left of it and has the smaller label, and a second
    meeting would have the larger label horizontal.  With no pipe from
    below, h = 0 gives "." and h != 0 gives "-" or "J".  The scan must
    end with h = target, so ``target`` turns at its own column, reached
    with h = 0, and runs straight on to the right boundary."""
    c = below.index(target)
    right = below[c + 1 :]
    if any(0 < v < target for v in right):
        return []
    scans = [("", 0, ())]
    for v in below[:c]:
        step = []
        for glyphs, h, up in scans:
            if v and not h:
                step.append((glyphs + "|", 0, up + (v,)))
                step.append((glyphs + "L", v, up + (0,)))
            elif v:
                if h < v:
                    step.append((glyphs + "+", h, up + (v,)))
            elif h:
                step.append((glyphs + "-", h, up + (0,)))
                step.append((glyphs + "J", 0, up + (h,)))
            else:
                step.append((glyphs + ".", 0, up + (0,)))
        scans = step
    tail = "L" + "".join("+" if v else "-" for v in right)
    return [(glyphs + tail, up + (0,) + right) for glyphs, h, up in scans if not h]


def _row_steps(w: Perm):
    """Every row reachable from the bottom, as (i, below, row, up): row
    i's glyphs between the states under and over it.  A state is the
    label of the pipe on each column's vertical edge, 0 for none; below
    row n it is 1, ..., n.  Rows come bottom row first, one layer at a
    time, so every row into a state comes before any row out of it; the
    state below row i holds i nonzero labels, so it fixes its layer."""
    layer = [tuple(range(1, len(w) + 1))]
    for i in range(len(w), 0, -1):
        above = {}
        for below in layer:
            for row, up in _row_options(below, w[i - 1]):
                above[up] = None
                yield i, below, row, up
        layer = list(above)


def enumerate_bpds(w: Perm) -> frozenset[Bpd]:
    """Every bumpless pipe dream of w, built row by row from the bottom:
    each state of ``_row_steps`` keeps the tilings of the rows below it.
    Every row is one of its ``_row_options`` for w(i), so every tiling is
    edge-consistent, has no two pipes crossing twice, and spells w by
    construction."""
    w = perms.validate_perm(w)
    n = len(w)
    found = {tuple(range(1, n + 1)): [()]}
    for _, below, row, up in _row_steps(w):
        found.setdefault(up, []).extend((row,) + rest for rest in found[below])
    return frozenset(found[(0,) * n])


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
