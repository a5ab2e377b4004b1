"""Permutations in one-line notation.

A permutation of [n] = {1, ..., n} is a tuple ``w`` of length n whose entry
``w[i-1]`` is the image of i; indexing in the public API is 1-based
throughout, matching the matrix conventions used everywhere else in this
package.  All values are plain immutable tuples, so they hash, compare, and
travel between worker processes without ceremony.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

Perm = tuple[int, ...]
Cell = tuple[int, int]


def validate_perm(word: Iterable[int]) -> Perm:
    """Return ``word`` as a tuple, checking it is a bijection on [n]."""
    w = tuple(word)
    n = len(w)
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {w!r}")
    return w


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Perm:
    return tuple(range(n, 0, -1))


def inverse(w: Perm) -> Perm:
    inv = [0] * len(w)
    for i, v in enumerate(w, start=1):
        inv[v - 1] = i
    return tuple(inv)


def compose(u: Perm, v: Perm) -> Perm:
    """The product u·v, i.e. the map x -> u(v(x))."""
    if len(u) != len(v):
        raise ValueError("size mismatch")
    return tuple(u[v[x] - 1] for x in range(len(u)))


def coxeter_length(w: Perm) -> int:
    """Number of inversions #{i < j : w(i) > w(j)}.

    >>> coxeter_length((3, 2, 1))
    3
    """
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def rank_function(w: Perm, a: int, b: int) -> int:
    """#{(i, j) in [a] x [b] : w(i) = j}, the northwest rank count.

    Accepts 0 <= a, b <= n; the value is 0 whenever a = 0 or b = 0.
    """
    n = len(w)
    if not (0 <= a <= n and 0 <= b <= n):
        raise ValueError(f"indices ({a}, {b}) out of range for n={n}")
    return sum(1 for i in range(a) if w[i] <= b)


def rank_matrix(w: Perm) -> tuple[tuple[int, ...], ...]:
    """The full (n+1) x (n+1) table of rank_function values, 0-row/col included."""
    n = len(w)
    rows = [(0,) * (n + 1)]
    count = [0] * (n + 1)
    for i in range(1, n + 1):
        prev = rows[-1]
        v = w[i - 1]
        rows.append(tuple(prev[j] + (1 if v <= j else 0) for j in range(n + 1)))
    return tuple(rows)


def rothe_diagram(w: Perm) -> frozenset[Cell]:
    """Cells (i, j) with w(i) > j and w^{-1}(j) > i."""
    inv = inverse(w)
    n = len(w)
    return frozenset(
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if w[i - 1] > j and inv[j - 1] > i
    )


def essential_set(w: Perm) -> frozenset[Cell]:
    """Cells of the diagram with no diagram cell immediately below or to the right."""
    diag = rothe_diagram(w)
    return frozenset((i, j) for (i, j) in diag if (i + 1, j) not in diag and (i, j + 1) not in diag)


def lower_outside_corners(w: Perm) -> frozenset[Cell]:
    """Maximally-southeast diagram cells: no other diagram cell weakly southeast."""
    return _southeast_maximal(rothe_diagram(w))


def _southeast_maximal(cells) -> frozenset[Cell]:
    """Cells of a set with no other cell of the set weakly southeast."""
    return frozenset(
        (i, j)
        for (i, j) in cells
        if not any(c != (i, j) and c[0] >= i and c[1] >= j for c in cells)
    )


def bruhat_leq(u: Perm, w: Perm) -> bool:
    """u <= w in Bruhat order, tested as rk_u >= rk_w entrywise."""
    if len(u) != len(w):
        raise ValueError("size mismatch")
    ru, rw = rank_matrix(u), rank_matrix(w)
    n = len(u)
    return all(ru[i][j] >= rw[i][j] for i in range(1, n + 1) for j in range(1, n + 1))


def bigrassmannian(n: int, a: int, b: int, r: int) -> Perm:
    """The block permutation whose essential set is the single cell (a, b) with rank r.

    Rows 1..r fix 1..r, rows r+1..a map onto b+1..b+(a-r), rows
    a+1..a+b-r map onto r+1..b, and the tail is fixed.
    """
    if not (1 <= a <= n and 1 <= b <= n):
        raise ValueError("cell out of range")
    if not (0 <= r < min(a, b)):
        raise ValueError(f"need 0 <= r < min(a, b), got r={r}")
    if a + b - r > n:
        raise ValueError(f"need a + b - r <= n, got {a}+{b}-{r} > {n}")
    word = list(range(1, r + 1))
    word += list(range(b + 1, b + 1 + (a - r)))
    word += list(range(r + 1, b + 1))
    word += list(range(a + b - r + 1, n + 1))
    return validate_perm(word)


def apply_transposition(w: Perm, i: int, j: int) -> Perm:
    """w·t_{i,j}: the word with positions i and j swapped."""
    n = len(w)
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= n, got ({i}, {j})")
    word = list(w)
    word[i - 1], word[j - 1] = word[j - 1], word[i - 1]
    return tuple(word)


def bruhat_covers(w: Perm) -> set[Perm]:
    """All v = w·t_{i,j} with length exactly one more than w's."""
    n = len(w)
    target = coxeter_length(w) + 1
    out = set()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            v = apply_transposition(w, i, j)
            if coxeter_length(v) == target:
                out.add(v)
    return out


def descents(w: Perm) -> list[int]:
    """Positions i with w(i) > w(i+1)."""
    return [i for i in range(1, len(w)) if w[i - 1] > w[i]]


def all_perms(n: int) -> Iterator[Perm]:
    """Stream S_n in lexicographic order without materializing it."""
    return itertools.permutations(range(1, n + 1))


def perm_to_text(w: Perm) -> str:
    """Digit string for n <= 9, comma-separated for larger n."""
    if len(w) <= 9:
        return "".join(str(v) for v in w)
    return ",".join(str(v) for v in w)


def perm_from_text(text: str) -> Perm:
    """Parse either textual form accepted by perm_to_text.

    >>> perm_from_text("4721653")
    (4, 7, 2, 1, 6, 5, 3)
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation text")
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
    else:
        parts = list(text)
    try:
        word = [int(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"bad permutation text {text!r}") from exc
    return validate_perm(word)
