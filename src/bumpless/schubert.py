"""Schubert and Grothendieck polynomials, by tilings and by operators.

Each family is named once, by a tag in ``_FAMILIES`` giving the factor
of a cell (i, j), and has one route.  The Schubert families are tiling
sums, taken without building a tiling: the rows are walked bottom-up
over the pipe labels between them (the transfer-matrix reading of the
sum), one term map per state, each row's step multiplied by the factors
of its blank cells.  The Grothendieck family multiplies the factor over
the staircase cells i + j <= n and steps down by isobaric divided
differences, once per ascent.  Both work at the permutation's own size
n, the last i with w(i) != i, not at the ring's: the polynomials are
stable, S_{w x 1} = S_w, so a fixed tail changes nothing and costs
nothing.  One memo, capped by the terms it holds, keeps every result.

    tag  family                  cell factor            route
    "S"  double Schubert         x_i + y_j              tiling sum
    "G"  double Grothendieck     x_i + y_j + beta*x*y   isobaric_divided_difference
    "s"  single Schubert         x_i                    tiling sum

Conventions are additive throughout: the factors are sums and variables
y never carry a sign.  Under this convention the double polynomial of w
is literally the lowest-degree part of the K-polynomial of its matrix
Schubert variety in the row-times-column grading, specializing beta to
zero recovers the cohomology polynomial, and every coefficient of every
polynomial here is a nonnegative integer.
"""

from __future__ import annotations

from . import bpd as bpd_mod
from .perms import Perm, apply_transposition, longest_element, validate_perm
from .rings import _ONE, SLOT_CAP, Poly, Ring, _add_product, exact_divide, lex_ring

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


def xvar(ring: Ring, i: int) -> Poly:
    return Poly.variable(ring, f"x{i}")


def yvar(ring: Ring, j: int) -> Poly:
    return Poly.variable(ring, f"y{j}")


def divided_difference(f: Poly, i: int) -> Poly:
    """(f - s_i f) / (x_i - x_{i+1}), where s_i exchanges x_i and x_{i+1}.

    The numerator is built in one pass over f.  A term m with exponents
    a and b in x_i and x_{i+1} pairs with s_i m, its image with the two
    exchanged: where a > b the pair gets c_m - c_{s_i m} at m and its
    negative at s_i m; where a < b it is left to s_i m unless that
    monomial is missing from f; where a == b the term cancels itself."""
    ring = f.ring
    u = ring.index(f"x{i}")
    v = ring.index(f"x{i + 1}")
    su = ring._decode_shifts[u]
    sv = ring._decode_shifts[v]
    step = (1 << sv) - (1 << su)
    terms = f.terms
    num = {}
    for m, c in terms.items():
        a = m >> su & (SLOT_CAP - 1)
        b = m >> sv & (SLOT_CAP - 1)
        if a > b:
            key = m + (a - b) * step
            d = c - terms.get(key, 0)
            if d:
                num[m] = d
                num[key] = -d
        elif a < b:
            key = m + (a - b) * step
            if key not in terms:
                num[m] = c
                num[key] = -c
    return exact_divide(Poly._of(ring, num), xvar(ring, i) - xvar(ring, i + 1))


def isobaric_divided_difference(f: Poly, i: int) -> Poly:
    """The beta-deformed operator, the divided difference of
    (1 + beta*x_{i+1})*f; the ring must carry the beta variable."""
    lift = Poly.variable(f.ring, BETA) * xvar(f.ring, i + 1)
    return divided_difference(f + lift * f, i)


def _product(ring: Ring, cells, factor) -> Poly:
    """The product of the cells' factors.  The one-term factors fold
    into one packed shift and one coefficient, the monomial that starts
    the product; only factors of two or more terms multiply."""
    shift, coeff = 0, 1
    rest = []
    for i, j in cells:
        f = factor(ring, i, j)
        if len(f.terms) == 1:
            ((m, c),) = f.terms.items()
            shift += m
            coeff *= c
        else:
            rest.append(f)
    total = Poly._of(ring, {shift: coeff})
    for f in rest:
        total = total * f
    return total


def _circ(ring: Ring, i: int, j: int) -> Poly:
    xi, yj = xvar(ring, i), yvar(ring, j)
    return xi + yj + Poly.variable(ring, BETA) * xi * yj


# tag -> the factor of a blank or staircase cell (i, j).
_FAMILIES = {
    "S": lambda ring, i, j: xvar(ring, i) + yvar(ring, j),
    "G": _circ,
    "s": lambda ring, i, j: xvar(ring, i),
}

_MEMO: dict[tuple, Poly] = {}
# A store that finds the memo holding more terms than this empties it
# first (an entry count bounds nothing: all 720 S6 Grothendieck
# polynomials hold 21.1 million terms, one of them 308,473).
_MEMO_TERMS_CAP = 4_000_000
_memo_terms = 0


def _store(key: tuple, val: Poly) -> Poly:
    global _memo_terms
    if _memo_terms > _MEMO_TERMS_CAP:
        _MEMO.clear()
        _memo_terms = 0
    _MEMO[key] = val
    _memo_terms += len(val.terms)
    return val


def _own_word(w: Perm, ring: Ring) -> Perm:
    """w without its fixed tail, down to (1,) for any identity; the ring
    must carry x_k for that own size k."""
    w = validate_perm(w)
    k = next((i for i in range(len(w), 1, -1) if w[i - 1] != i), 1)
    if f"x{k}" not in ring._index:
        raise ValueError(f"permutation of own size {k} needs x{k} in the ring")
    return w[:k]


def _by_descents(w: Perm, ring: Ring) -> Poly:
    """The Grothendieck polynomial: walk up by first ascents to a memo hit
    or to the longest word, then back down by isobaric steps, storing each
    one.  The staircase is built only on a memo miss at the longest word."""
    n = len(w)
    top = longest_element(n)
    below = []
    while ("G", ring, w) not in _MEMO and w != top:
        i = next(i for i in range(1, n) if w[i - 1] < w[i])
        below.append((w, i))
        w = apply_transposition(w, i, i + 1)
    val = _MEMO.get(("G", ring, w))
    if val is None:
        staircase = ((i, j) for i in range(1, n) for j in range(1, n - i + 1))
        val = _store(("G", ring, w), _product(ring, staircase, _FAMILIES["G"]))
    for w, i in reversed(below):
        val = _store(("G", ring, w), isobaric_divided_difference(val, i))
    return val


def schubert_poly(w: Perm, ring: Ring) -> Poly:
    """Double polynomial: the tiling sum of the factors x_i + y_j."""
    return _tiling_sum(w, ring, "S")


def grothendieck_poly(w: Perm, ring: Ring) -> Poly:
    """Double K-polynomial via isobaric operators; ring needs beta."""
    return _by_descents(_own_word(w, ring), ring)


def single_schubert_poly(w: Perm, ring: Ring) -> Poly:
    """One-variable-family polynomial: the tiling sum of the factors x_i."""
    return _tiling_sum(w, ring, "s")


def bpd_schubert_poly(w: Perm, ring: Ring) -> Poly:
    """Double polynomial as a sum over the tilings of w: each tiling
    contributes the product of (x_i + y_j) over its blank cells."""
    return _tiling_sum(w, ring, "S")


def bpd_single_schubert_poly(w: Perm, ring: Ring) -> Poly:
    """Row-weight specialization of the tiling sum (y set to zero)."""
    return _tiling_sum(w, ring, "s")


def _tiling_sum(w: Perm, ring: Ring, tag: str) -> Poly:
    """The sum over the tilings of w of their blank-cell products, read
    row by row: each state between two rows keeps the summed weights of
    the rows below it, and each row step adds its lower state's sum,
    times the factors of the row's blank cells, into its upper state's.
    No tiling is built, and each sum is memoized."""
    w = _own_word(w, ring)
    val = _MEMO.get((tag, ring, w))
    if val is not None:
        return val
    n = len(w)
    factor = _FAMILIES[tag]
    sums = {tuple(range(1, n + 1)): _ONE}
    for i, below, row, up in bpd_mod._row_steps(w):
        blanks = [(i, j) for j, tile in enumerate(row, 1) if tile == "."]
        weight = _product(ring, blanks, factor).terms
        _add_product(sums.setdefault(up, {}), sums[below], weight)
    return _store((tag, ring, w), Poly._of(ring, sums[(0,) * n]))


def set_beta(f: Poly, value: int) -> Poly:
    """Substitute a constant for beta, staying in the same ring."""
    ring = f.ring
    v = ring.index(BETA)
    shift = ring._decode_shifts[v]
    rekeyed = []
    for m, c in f.terms.items():
        e = ring.decode(m)[v]
        rekeyed.append((m - (e << shift), c * value**e))
    return Poly(ring, rekeyed)


def principal_value(f: Poly):
    """Evaluate at every variable equal to one."""
    return sum(f.terms.values())
