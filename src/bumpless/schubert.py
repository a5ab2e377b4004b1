"""Schubert and Grothendieck polynomials, by operators and by tilings.

Conventions are additive throughout: the double polynomial for the
longest permutation is the staircase product of (x_i + y_j), its
K-theory deformation uses x + y + beta*x*y, and variables y never
carry a sign.  Under this convention the double polynomial of w is
literally the lowest-degree part of the K-polynomial of its matrix
Schubert variety in the row-times-column grading, specializing beta
to zero recovers the cohomology polynomial, and every coefficient of
every polynomial here is a nonnegative integer.
"""

from __future__ import annotations

from . import bpd as bpd_mod
from .perms import Perm, apply_transposition, longest_element, validate_perm
from .rings import Poly, Ring, exact_divide, lex_ring

BETA = "beta"


def x_ring(n: int) -> Ring:
    return lex_ring(tuple(f"x{i}" for i in range(1, n + 1)))


def double_ring(n: int) -> Ring:
    names = tuple(f"x{i}" for i in range(1, n + 1))
    names += tuple(f"y{j}" for j in range(1, n + 1))
    return lex_ring(names)


def grothendieck_ring(n: int) -> Ring:
    names = tuple(f"x{i}" for i in range(1, n + 1))
    names += tuple(f"y{j}" for j in range(1, n + 1))
    return lex_ring(names + (BETA,))


def ring_size(ring: Ring) -> int:
    """How many x variables the ring carries."""
    n = 0
    while f"x{n + 1}" in ring._index:
        n += 1
    if n == 0:
        raise ValueError("ring has no x variables")
    return n


def pad(w: Perm, n: int) -> Perm:
    if len(w) > n:
        raise ValueError(f"permutation of {len(w)} does not fit {n} variables")
    return validate_perm(tuple(w) + tuple(range(len(w) + 1, n + 1)))


def xvar(ring: Ring, i: int) -> Poly:
    return Poly.variable(ring, f"x{i}")


def yvar(ring: Ring, j: int) -> Poly:
    return Poly.variable(ring, f"y{j}")


def swap_adjacent_x(f: Poly, i: int) -> Poly:
    """Exchange x_i and x_{i+1} in every monomial."""
    ring = f.ring
    a = ring.index(f"x{i}")
    b = ring.index(f"x{i + 1}")
    ua = ring._units[a]
    ub = ring._units[b]
    out = {}
    for m, c in f.terms.items():
        e = ring.decode(m)
        out[m + (e[a] - e[b]) * (ub - ua)] = c
    return Poly(f.ring, out)


def divided_difference(f: Poly, i: int) -> Poly:
    """(f - swap(f)) / (x_i - x_{i+1})."""
    num = f - swap_adjacent_x(f, i)
    if num.is_zero:
        return num
    return exact_divide(num, xvar(f.ring, i) - xvar(f.ring, i + 1))


def isobaric_divided_difference(f: Poly, i: int) -> Poly:
    """The beta-deformed operator; the ring must carry the beta variable."""
    ring = f.ring
    beta = Poly.variable(ring, BETA)
    lifted = (1 + beta * xvar(ring, i + 1)) * f
    swapped = (1 + beta * xvar(ring, i)) * swap_adjacent_x(f, i)
    return exact_divide(lifted - swapped, xvar(ring, i) - xvar(ring, i + 1))


def _staircase(ring: Ring, n: int, deformed: bool) -> Poly:
    total = Poly.constant(ring, 1)
    beta = Poly.variable(ring, BETA) if deformed else None
    for i in range(1, n):
        for j in range(1, n - i + 1):
            factor = xvar(ring, i) + yvar(ring, j)
            if deformed:
                factor = factor + beta * xvar(ring, i) * yvar(ring, j)
            total = total * factor
    return total


_MEMO: dict[tuple, Poly] = {}


def _by_descents(w: Perm, ring: Ring, top: Poly, step, tag: str) -> Poly:
    n = len(w)
    key = (tag, ring, w)
    got = _MEMO.get(key)
    if got is not None:
        return got
    if w == longest_element(n):
        val = top
    else:
        i = next(i for i in range(1, n) if w[i - 1] < w[i])
        higher = _by_descents(apply_transposition(w, i, i + 1), ring, top, step, tag)
        val = step(higher, i)
    _MEMO[key] = val
    return val


def schubert_poly(w: Perm, ring: Ring) -> Poly:
    """Double polynomial via divided differences down from the staircase."""
    n = ring_size(ring)
    w = pad(w, n)
    return _by_descents(w, ring, _staircase(ring, n, False), divided_difference, "S")


def grothendieck_poly(w: Perm, ring: Ring) -> Poly:
    """Double K-polynomial via isobaric operators; ring needs beta."""
    n = ring_size(ring)
    w = pad(w, n)
    return _by_descents(
        w, ring, _staircase(ring, n, True), isobaric_divided_difference, "G"
    )


def single_schubert_poly(w: Perm, ring: Ring) -> Poly:
    """One-variable-family polynomial, down from x1^(n-1)*x2^(n-2)*..."""
    n = ring_size(ring)
    w = pad(w, n)
    top = Poly.constant(ring, 1)
    for i in range(1, n):
        top = top * xvar(ring, i) ** (n - i)
    return _by_descents(w, ring, top, divided_difference, "s")


def bpd_schubert_poly(w: Perm, ring: Ring) -> Poly:
    """Double polynomial as a sum over the droop tilings of w: each tiling
    contributes the product of (x_i + y_j) over its blank cells."""
    return _tiling_sum(w, ring, lambda i, j: xvar(ring, i) + yvar(ring, j))


def bpd_single_schubert_poly(w: Perm, ring: Ring) -> Poly:
    """Row-weight specialization of the tiling sum (y set to zero)."""
    return _tiling_sum(w, ring, lambda i, j: xvar(ring, i))


def _tiling_sum(w: Perm, ring: Ring, weight) -> Poly:
    w = pad(w, ring_size(ring))
    total = Poly.zero(ring)
    for grid in sorted(bpd_mod.enumerate_bpds(w)):
        piece = Poly.constant(ring, 1)
        for i, j in sorted(bpd_mod.diagram(grid)):
            piece = piece * weight(i, j)
        total = total + piece
    return total


def drop_variables(f: Poly, names) -> Poly:
    """Set the named variables to zero."""
    idx = [f.ring.index(nm) for nm in names]
    kept = {
        m: c
        for m, c in f.terms.items()
        if all(f.ring.decode(m)[v] == 0 for v in idx)
    }
    return Poly(f.ring, kept)


def set_beta(f: Poly, value: int) -> Poly:
    """Substitute a constant for beta, staying in the same ring."""
    ring = f.ring
    v = ring.index(BETA)
    unit = ring._units[v]
    rekeyed = []
    for m, c in f.terms.items():
        e = ring.decode(m)[v]
        rekeyed.append((m - e * unit, c * value**e))
    return Poly(ring, rekeyed)


def principal_value(f: Poly):
    """Evaluate at every variable equal to one."""
    return sum(f.terms.values())
