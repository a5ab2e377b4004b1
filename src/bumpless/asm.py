"""Alternating sign matrices and their lattice.

An ASM is stored as a tuple of row tuples over {-1, 0, 1}.  The partial
order is the corner-sum order: A <= B exactly when the corner sums of A are
entrywise >= those of B, so permutation matrices inherit Bruhat order and
the identity matrix sits at the bottom.  Joins take entrywise minima of
corner sums, meets take maxima.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from . import perms
from .perms import Cell, Perm

Asm = tuple[tuple[int, ...], ...]
CornerSums = tuple[tuple[int, ...], ...]


def validate_asm(entries: Iterable[Iterable[int]]) -> Asm:
    """Check row/column sums and sign alternation via 0/1 partial sums."""
    rows = tuple(tuple(row) for row in entries)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    if any(e not in (-1, 0, 1) for row in rows for e in row):
        raise ValueError("entries must be -1, 0, or 1")
    for row in rows:
        if _bad_line(row):
            raise ValueError(f"row {row} violates the alternating-sum rule")
    for j in range(n):
        col = tuple(rows[i][j] for i in range(n))
        if _bad_line(col):
            raise ValueError(f"column {col} violates the alternating-sum rule")
    return rows


def _bad_line(line: tuple[int, ...]) -> bool:
    total = 0
    for e in line:
        total += e
        if total not in (0, 1):
            return True
    return total != 1


def from_permutation(w: Perm) -> Asm:
    n = len(w)
    return tuple(tuple(1 if w[i] == j + 1 else 0 for j in range(n)) for i in range(n))


def to_permutation(A: Asm) -> Perm | None:
    """The permutation whose matrix is A, or None if A has a -1."""
    if any(e < 0 for row in A for e in row):
        return None
    return tuple(row.index(1) + 1 for row in A)


def corner_sums(A: Asm) -> CornerSums:
    """The (n+1) x (n+1) grid of sums over northwest submatrices."""
    n = len(A)
    out = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        rowsum = 0
        for j in range(1, n + 1):
            rowsum += A[i - 1][j - 1]
            out[i][j] = out[i - 1][j] + rowsum
    return tuple(tuple(r) for r in out)


def asm_from_corner_sums(M: Iterable[Iterable[int]]) -> Asm:
    grid = tuple(tuple(row) for row in M)
    n = len(grid) - 1
    if n < 1 or any(len(row) != n + 1 for row in grid):
        raise ValueError("corner-sum grid must be (n+1) x (n+1)")
    if any(grid[0][j] != 0 for j in range(n + 1)) or any(grid[i][0] != 0 for i in range(n + 1)):
        raise ValueError("corner-sum grid must have zero first row and column")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if grid[i][j] - grid[i - 1][j] not in (0, 1) or grid[i][j] - grid[i][j - 1] not in (0, 1):
                raise ValueError(f"corner sums must grow by 0 or 1 steps; bad cell ({i},{j})")
    entries = [
        [
            grid[i][j] - grid[i - 1][j] - grid[i][j - 1] + grid[i - 1][j - 1]
            for j in range(1, n + 1)
        ]
        for i in range(1, n + 1)
    ]
    return validate_asm(entries)


def asm_leq(A: Asm, B: Asm) -> bool:
    """A <= B in the lattice order (corner sums of A entrywise >= those of B)."""
    if len(A) != len(B):
        raise ValueError("size mismatch")
    ra, rb = corner_sums(A), corner_sums(B)
    return all(x >= y for rowa, rowb in zip(ra, rb) for x, y in zip(rowa, rowb))


def join(asms: Iterable[Asm]) -> Asm:
    """Least upper bound: entrywise minimum of corner sums."""
    return _bound(asms, min, "join", "bottom")


def meet(asms: Iterable[Asm]) -> Asm:
    """Greatest lower bound: entrywise maximum of corner sums."""
    return _bound(asms, max, "meet", "top")


def _bound(asms, pick, op: str, end: str) -> Asm:
    mats = list(asms)
    if not mats:
        raise ValueError(f"{op} of an empty family (supply the {end} element explicitly)")
    tables = [corner_sums(A) for A in mats]
    n = len(mats[0])
    merged = [
        [pick(t[i][j] for t in tables) for j in range(n + 1)]
        for i in range(n + 1)
    ]
    return asm_from_corner_sums(merged)


def perm_set(A: Asm) -> set[Perm]:
    """Bruhat-minimal permutations weakly above A in the lattice order."""
    n = len(A)
    rk = corner_sums(A)
    above = []
    for w in perms.all_perms(n):
        rw = perms.rank_matrix(w)
        if all(
            rw[i][j] <= rk[i][j] for i in range(1, n + 1) for j in range(1, n + 1)
        ):
            above.append(w)
    above.sort(key=perms.coxeter_length)
    minimal: list[Perm] = []
    for w in above:
        if not any(perms.bruhat_leq(v, w) for v in minimal):
            minimal.append(w)
    return set(minimal)


def degree_of(A: Asm) -> int:
    return min(perms.coxeter_length(w) for w in perm_set(A))


def is_equidimensional(A: Asm) -> bool:
    lengths = {perms.coxeter_length(w) for w in perm_set(A)}
    return len(lengths) == 1


def essential_rank_cells(A: Asm) -> list[tuple[int, int, int]]:
    """Non-vacuous rank conditions (i, j, r) not implied by a neighbouring one.

    A condition with value r at (i, j) is implied by an equal value directly
    below or to the right, or by value r-1 directly above or to the left;
    the surviving cells reproduce the permutation essential set when A is a
    permutation matrix, and their rank conditions determine A.
    """
    n = len(A)
    rk = corner_sums(A)
    kept = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            r = rk[i][j]
            if r >= min(i, j):
                continue
            if rk[i - 1][j] != r or rk[i][j - 1] != r:
                continue
            if i < n and rk[i + 1][j] == r:
                continue
            if j < n and rk[i][j + 1] == r:
                continue
            kept.append((i, j, r))
    return kept


def bigrassmannian_join_decomposition(A: Asm) -> set[Perm]:
    """Bigrassmannian permutations below A whose join recovers A."""
    n = len(A)
    return {
        perms.bigrassmannian(n, i, j, r) for (i, j, r) in essential_rank_cells(A)
    }


def all_asms(n: int) -> Iterator[Asm]:
    """Generate ASM(n) by extending one row at a time.

    The running state is the vector of column partial sums, each pinned to
    {0, 1}; row prefixes are pruned by the same alternating-sum rule.
    """

    def extend_row(state: tuple[int, ...], prefix: list[int], pos: int, rowsum: int):
        if pos == n:
            if rowsum == 1:
                yield tuple(prefix)
            return
        for e in (-1, 0, 1):
            new_rowsum = rowsum + e
            if new_rowsum not in (0, 1):
                continue
            if state[pos] + e not in (0, 1):
                continue
            prefix.append(e)
            yield from extend_row(state, prefix, pos + 1, new_rowsum)
            prefix.pop()

    def build(state: tuple[int, ...], rows: list[tuple[int, ...]]):
        if len(rows) == n:
            yield tuple(rows)
            return
        for row in extend_row(state, [], 0, 0):
            rows.append(row)
            yield from build(tuple(s + e for s, e in zip(state, row)), rows)
            rows.pop()

    return build((0,) * n, [])


def asm_to_text(A: Asm) -> str:
    return "\n".join(" ".join(str(e) for e in row) for row in A)


def asm_from_text(text: str) -> Asm:
    rows = [line.split() for line in text.strip().splitlines() if line.strip()]
    try:
        entries = [[int(e) for e in row] for row in rows]
    except ValueError as exc:
        raise ValueError("ASM text must contain integer entries") from exc
    return validate_asm(entries)
