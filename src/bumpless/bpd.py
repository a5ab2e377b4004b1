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


def validate_bpd(grid) -> Bpd:
    """Full validation: glyphs, edge matching, boundary, pipe tracing,
    and the at-most-one-crossing rule for every pair of pipes."""
    rows = tuple("".join(r) if not isinstance(r, str) else r for r in grid)
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise InvalidBpd("grid is not square")
    for r in rows:
        for ch in r:
            if ch not in EDGES:
                raise InvalidBpd(f"unknown tile glyph {ch!r}")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            top, right, bottom, left = EDGES[rows[i - 1][j - 1]]
            if i == 1 and top:
                raise InvalidBpd(f"pipe leaks through the top boundary at column {j}")
            if j == 1 and left:
                raise InvalidBpd(f"pipe leaks through the left boundary at row {i}")
            if i == n and not bottom:
                raise InvalidBpd(f"missing pipe entry at bottom of column {j}")
            if j == n and not right:
                raise InvalidBpd(f"missing pipe exit at right of row {i}")
            if i < n and bottom != EDGES[rows[i][j - 1]][0]:
                raise InvalidBpd(f"edge mismatch between ({i},{j}) and ({i + 1},{j})")
            if j < n and right != EDGES[rows[i - 1][j]][3]:
                raise InvalidBpd(f"edge mismatch between ({i},{j}) and ({i},{j + 1})")
    _trace(rows)
    return rows


def _trace(rows: Bpd) -> Perm:
    """Follow every pipe from its bottom entry and return the permutation;
    raise unless the pipes exit one per row and cross at most once."""
    n = len(rows)
    exit_rows: dict[int, int] = {}
    vertical_at: dict[Cell, int] = {}
    horizontal_at: dict[Cell, int] = {}
    for start in range(1, n + 1):
        i, j, from_left = n, start, False
        while True:
            if i < 1:
                raise InvalidBpd(f"pipe {start} escaped through the top")
            if j > n:
                if start in exit_rows:
                    raise InvalidBpd(f"pipe {start} exits twice")
                exit_rows[start] = i
                break
            tile = rows[i - 1][j - 1]
            if tile == "+":
                reg = horizontal_at if from_left else vertical_at
                if (i, j) in reg:
                    raise InvalidBpd(f"crossing at ({i},{j}) traversed twice the same way")
                reg[(i, j)] = start
            if from_left:
                if tile in "-+":
                    j += 1
                elif tile == "J":
                    i, from_left = i - 1, False
                else:
                    raise InvalidBpd(f"pipe {start} hits {tile!r} at ({i},{j}) from the left")
            else:
                if tile in "|+":
                    i -= 1
                elif tile == "L":
                    j, from_left = j + 1, True
                else:
                    raise InvalidBpd(f"pipe {start} hits {tile!r} at ({i},{j}) from below")
        # leaving the cell where we exited right: j ran past n with i = exit row
    if sorted(exit_rows.values()) != list(range(1, n + 1)):
        raise InvalidBpd("pipes do not exit one per row")
    seen = set()
    for cell, vpipe in vertical_at.items():
        hpipe = horizontal_at.get(cell)
        if hpipe is None:
            raise InvalidBpd(f"crossing at {cell} is not traversed horizontally")
        pair = (min(vpipe, hpipe), max(vpipe, hpipe))
        if pair in seen:
            raise InvalidBpd(f"pipes {pair} cross more than once")
        seen.add(pair)
    word = [0] * n
    for start, row in exit_rows.items():
        word[row - 1] = start
    return tuple(word)


def permutation_of(B: Bpd) -> Perm:
    """The permutation sending each exit row to the label of its pipe."""
    return _trace(B)


def diagram(B: Bpd) -> frozenset[Cell]:
    """The blank cells."""
    n = len(B)
    return frozenset(
        (i, j) for i in range(1, n + 1) for j in range(1, n + 1) if B[i - 1][j - 1] == "."
    )


def rothe_bpd(w: Perm) -> Bpd:
    """The unique element with a down-elbow at every (i, w(i)) and no up-elbow;
    its blank cells are exactly the Rothe diagram."""
    w = perms.validate_perm(w)
    inv = perms.inverse(w)
    n = len(w)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            vert = i > inv[j - 1]
            horiz = j > w[i - 1]
            if j == w[i - 1]:
                row.append("L")
            elif vert and horiz:
                row.append("+")
            elif vert:
                row.append("|")
            elif horiz:
                row.append("-")
            else:
                row.append(".")
        rows.append("".join(row))
    return validate_bpd(rows)


def legal_droops(B: Bpd) -> set[DroopMove]:
    """All (down-elbow, blank) pairs whose spanning rectangle contains no
    other elbow of either kind."""
    n = len(B)
    elbows = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if B[i - 1][j - 1] in "LJ"
    ]
    moves = set()
    for (i, j) in elbows:
        if B[i - 1][j - 1] != "L":
            continue
        for a in range(i + 1, n + 1):
            for b in range(j + 1, n + 1):
                if B[a - 1][b - 1] != ".":
                    continue
                if any(
                    (x, y) != (i, j) and i <= x <= a and j <= y <= b for (x, y) in elbows
                ):
                    continue
                moves.add(((i, j), (a, b)))
    return moves


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
    grid = [list(r) for r in B]

    def rewrite(x, y, table):
        old = grid[x - 1][y - 1]
        if old not in table:
            raise InvalidBpd(f"unexpected tile {old!r} at {(x, y)} during droop")
        grid[x - 1][y - 1] = table[old]

    rewrite(i, j, {"L": "."})
    for y in range(j + 1, b):
        rewrite(i, y, {"-": ".", "+": "|"})
    rewrite(i, b, {"-": "L"})
    for x in range(i + 1, a):
        rewrite(x, j, {"|": ".", "+": "-"})
    rewrite(a, j, {"|": "L"})
    for y in range(j + 1, b):
        rewrite(a, y, {".": "-", "|": "+"})
    for x in range(i + 1, a):
        rewrite(x, b, {".": "|", "-": "+"})
    rewrite(a, b, {".": "J"})
    return validate_bpd("".join(r) for r in grid)


def enumerate_bpds(w: Perm) -> frozenset[Bpd]:
    """Closure of the Rothe element under droop moves."""
    start = rothe_bpd(w)
    seen = {start}
    frontier = [start]
    while frontier:
        B = frontier.pop()
        for move in legal_droops(B):
            nxt = apply_droop(B, move)
            if nxt not in seen:
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
