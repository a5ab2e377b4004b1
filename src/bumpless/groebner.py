"""Groebner bases for determinantal ideals of a generic matrix.

Polynomials are manipulated as dicts from packed monomials to integer
coefficients.  Reduction is fraction-free: instead of dividing by a
leading coefficient it scales the whole intermediate result, which
keeps every step in exact integer arithmetic; content is cleared when
a computation finishes.  The completion loop is Buchberger's
algorithm with the coprime-lead and chain pair criteria; the first is
applied when a pair is formed, so a pair whose leads are coprime is
never queued and counts as done for the chain criterion.  On homogeneous
input it takes the pair of least sugar first, which there is the degree
of the lcm (Giovini, Mora, Niesi, Robbiano and Traverso, "One sugar
cube, please", ISSAC 1991), ties broken by the smaller lcm; other input
takes the pair of smallest lcm.  The completion is followed by full
autoreduction, so every basis returned here (by ``buchberger`` and the
intersections) is the reduced one: unique for a given ideal and order
once scaled to integer coefficients with content one and a positive
leading coefficient.
"""

from __future__ import annotations

import heapq
from bisect import insort
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import gcd as _int_gcd
from math import lcm

from . import asm as asm_mod
from . import cache as cache_mod
from .rings import Poly, Ring, _add_product, _primitive, matrix_names


def minor(ring: Ring, rows, cols) -> Poly:
    """Determinant of the submatrix on the given 1-based rows and columns."""
    rows = tuple(rows)
    cols = tuple(cols)
    if len(rows) != len(cols):
        raise ValueError("a minor needs as many rows as columns")
    if sorted(set(rows)) != list(rows) or sorted(set(cols)) != list(cols):
        raise ValueError("rows and columns must be strictly increasing")
    return _det(ring, rows, cols)


# Bounded above the 3,432 sub-minors of one 7-by-7 ring, so a sweep
# never evicts while a long-lived process cannot grow without bound.
@lru_cache(maxsize=4096)
def _det(ring, rows, cols):
    if not rows:
        return Poly.constant(ring, 1)
    total = Poly.zero(ring)
    i = rows[0]
    for k, j in enumerate(cols):
        entry = Poly.variable(ring, f"z[{i},{j}]")
        piece = entry * _det(ring, rows[1:], cols[:k] + cols[k + 1 :])
        total = total - piece if k % 2 else total + piece
    return total


def northwest_minors(ring: Ring, i: int, j: int, size: int) -> list[Poly]:
    """All size-by-size minors of the top-left i-by-j submatrix."""
    return [
        minor(ring, rows, cols)
        for rows in combinations(range(1, i + 1), size)
        for cols in combinations(range(1, j + 1), size)
    ]


def fulton_generators(w, ring: Ring) -> list[Poly]:
    """Defining minors of the matrix Schubert variety of a permutation.

    The essential rank cells of a permutation matrix are the essential
    set of w, each with the rank of w there, so these are the ASM
    variety's minors: for each essential cell (i, j), the minors of the
    top-left i-by-j submatrix one larger than the rank there."""
    return asm_generators(asm_mod.from_permutation(w), ring)


def asm_generators(A, ring: Ring) -> list[Poly]:
    """Defining minors of the variety attached to an alternating sign
    matrix, taken at its essential rank cells."""
    _check_matrix_ring(ring, len(A))
    out = {}
    for i, j, r in sorted(asm_mod.essential_rank_cells(A)):
        for g in northwest_minors(ring, i, j, r + 1):
            out[g] = None
    return list(out)


@lru_cache(maxsize=32)
def _check_matrix_ring(ring: Ring, n: int) -> None:
    needed = set(matrix_names(n))
    if not needed <= set(ring.names):
        raise ValueError(f"ring lacks the {n} by {n} matrix variables")


def _common_ring(polys) -> Ring:
    rings = {p.ring for p in polys}
    if len(rings) != 1:
        raise ValueError("generators live in different rings")
    return rings.pop()


def _reducer(d: dict[int, int]):
    lm = max(d)
    return (lm, d[lm], tuple((m, c) for m, c in d.items() if m != lm))


def _reduce_int(ring: Ring, source: dict[int, int], reducers) -> tuple[int, dict[int, int]]:
    """Fraction-free normal form: (s, r) with r the remainder of s times
    the source, s the product of the factors the work was scaled by.  The
    content of r is not cleared.

    ``reducers`` holds (lead, lead coefficient, tail) triples with
    positive lead coefficients, sorted by lead so small reducers are
    tried first.
    """
    guard = ring._guard
    work = dict(source)
    heap = [-m for m in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    out: dict[int, int] = {}
    scale = 1
    while heap:
        m = -pop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        mg = m | guard
        hit = None
        for red in reducers:
            if (mg - red[0]) & guard == guard:
                hit = red
                break
        if hit is None:
            out[m] = c
            continue
        lm, lc, tail = hit
        d = _int_gcd(c, lc)
        a = lc // d
        b = c // d
        if a != 1:
            scale *= a
            for k in work:
                work[k] *= a
            for k in out:
                out[k] *= a
        u = m - lm
        for gm, gc in tail:
            key = gm + u
            prev = work.get(key)
            if prev is None:
                work[key] = -b * gc
                push(heap, -key)
            else:
                nv = prev - b * gc
                if nv:
                    work[key] = nv
                else:
                    del work[key]
    return scale, out


def _spoly(ring: Ring, gi, gj, lmi, lmj) -> dict[int, int]:
    u = ring.lcm(lmi, lmj)
    d = _int_gcd(gi[lmi], gj[lmj])
    ai = gj[lmj] // d
    aj = gi[lmi] // d
    ui = u - lmi
    uj = u - lmj
    out = {m + ui: c * ai for m, c in gi.items()}
    _add_product(out, gj, {uj: -aj})
    return out


def buchberger(gens, use_cache: bool = True) -> list[Poly]:
    """Reduced Groebner basis of the ideal the generators span."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    ring = _common_ring(gens)
    seeds = sorted({tuple(sorted(_primitive(g.terms).items())) for g in gens})
    key = None
    if use_cache:
        # Seeds whose leads are pairwise coprime (their lcm is their
        # product) are a Groebner basis already, by the first criterion:
        # finishing them costs less than a disk round trip.
        leads = [s[-1][0] for s in seeds]
        if reduce(ring.lcm, leads) != sum(leads):
            key = cache_mod.entry_key(ring, seeds)
            hit = cache_mod.load_basis(ring, key)
            if hit is not None:
                return [Poly._of(ring, terms) for terms in hit]

    basis: list[dict[int, int]] = []
    lms: list[int] = []
    reducers: list = []
    alive: set[tuple[int, int]] = set()
    heap: list = []
    degree = ring.degree
    # On homogeneous input every S-polynomial is homogeneous, so its sugar
    # is the degree of its lcm.  Other input keeps the plain lcm order:
    # picking by degree or by sugar there blew up in degree and
    # coefficient size on small random ideals under lex.
    graded = all(len({degree(m) for m, _ in s}) == 1 for s in seeds)

    def push_element(d: dict[int, int]) -> None:
        t = len(basis)
        basis.append(d)
        lm = max(d)
        lms.append(lm)
        insort(reducers, _reducer(d))
        for i in range(t):
            tau = ring.lcm(lms[i], lm)
            if tau != lms[i] + lm:
                alive.add((i, t))
                heapq.heappush(heap, (degree(tau) if graded else 0, tau, i, t))

    for s in seeds:
        d = dict(s)
        nf = _primitive(_reduce_int(ring, d, reducers)[1])
        if nf:
            push_element(nf)

    while heap:
        _, tau, i, j = heapq.heappop(heap)
        alive.discard((i, j))
        tg = tau | ring._guard
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if (tg - lms[k]) & ring._guard != ring._guard:
                continue
            if (min(i, k), max(i, k)) in alive:
                continue
            if (min(j, k), max(j, k)) in alive:
                continue
            skip = True
            break
        if skip:
            continue
        s = _spoly(ring, basis[i], basis[j], lms[i], lms[j])
        nf = _primitive(_reduce_int(ring, s, reducers)[1])
        if nf:
            push_element(nf)

    reduced = _autoreduce(ring, basis, lms)
    result = [Poly._of(ring, d) for d in reduced]
    if key is not None:
        cache_mod.store_basis(ring, key, reduced)
    return result


def _autoreduce(ring: Ring, basis, lms) -> list[dict[int, int]]:
    kept: list[dict[int, int]] = []
    leads: list[int] = []
    for k in sorted(range(len(basis)), key=lms.__getitem__):
        if not any(ring.divides(e, lms[k]) for e in leads):
            leads.append(lms[k])
            kept.append(basis[k])
    # Leads increase along ``kept`` and no lead divides another, so
    # reduction never moves a lead and the reducers stay sorted.  A tail
    # lies below its own lead, so one pass leaves every element reduced.
    reducers = [_reducer(d) for d in kept]
    for k, d in enumerate(kept):
        kept[k] = _primitive(_reduce_int(ring, d, reducers[:k] + reducers[k + 1 :])[1])
        reducers[k] = _reducer(kept[k])
    return kept


def is_groebner(gens) -> bool:
    """Literal Buchberger test: every S-polynomial of every pair of the
    given generators must reduce to zero against them.  No pair is
    skipped by any criterion."""
    gens = [g for g in gens if not g.is_zero]
    if len(gens) <= 1:
        return True
    ring = _common_ring(gens)
    ds = [_primitive(g.terms) for g in gens]
    reducers = sorted(_reducer(d) for d in ds)
    lms = [max(d) for d in ds]
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            s = _spoly(ring, ds[i], ds[j], lms[i], lms[j])
            if _reduce_int(ring, s, reducers)[1]:
                return False
    return True


def normal_form(f: Poly, basis) -> Poly:
    """Remainder of f modulo the basis, with exact rational coefficients:
    f is cleared of denominators, reduced fraction-free, and the
    remainder divided by every factor it was scaled by."""
    basis = [g for g in basis if not g.is_zero]
    if f.is_zero or not basis:
        return f
    ring = _common_ring([f] + basis)
    reducers = sorted(_reducer(_primitive(g.terms)) for g in basis)
    k = lcm(*(c.denominator for c in f.terms.values()))
    scale, r = _reduce_int(ring, {m: int(c * k) for m, c in f.terms.items()}, reducers)
    return Poly._of(ring, {m: Fraction(c, scale * k) for m, c in r.items()})


def in_ideal(f: Poly, gb) -> bool:
    """Membership test against a basis already known to be Groebner."""
    return normal_form(f, gb).is_zero


def leading_monomials(gb) -> list[int]:
    return sorted(g.leading_monomial() for g in gb)


def initial_ideal(gens, use_cache: bool = True) -> list[int]:
    """Minimal generators of the leading-term ideal, as packed monomials."""
    return leading_monomials(buchberger(gens, use_cache=use_cache))


def ideal_equal(F, G) -> bool:
    """Whether two generating sets span the same ideal."""
    return [p.terms for p in buchberger(F)] == [p.terms for p in buchberger(G)]


def elimination_ring(inner: Ring) -> Ring:
    """Extend a ring by one fresh tag variable whose slot sits above the
    inner ring's unchanged slots: a tag-free term map packs alike in both."""
    name = "t"
    while name in inner.names:
        name += "t"
    return Ring((name,) + inner.names, (0,) + tuple(v + 1 for v in inner.layout))


def intersect_ideals(F, G) -> list[Poly]:
    """Reduced basis of the intersection of two ideals, found by
    eliminating a tag variable from t*F + (1-t)*G.  An element is free of
    the tag when its lead lies below t, as every term lies below its lead."""
    F = [f for f in F if not f.is_zero]
    G = [g for g in G if not g.is_zero]
    if not F or not G:
        return []
    ring = _common_ring(F + G)
    ext = elimination_ring(ring)
    t = Poly.variable(ext, ext.names[0])
    tagged = [Poly._of(ext, f.terms) * t for f in F]
    tagged += [Poly._of(ext, g.terms) * (1 - t) for g in G]
    top = t.leading_monomial()
    return [
        Poly._of(ring, g.terms) for g in buchberger(tagged) if g.leading_monomial() < top
    ]


def intersect_many(ideals) -> list[Poly]:
    """Reduced basis of the intersection of one or more generating sets."""
    ideals = list(ideals)
    if not ideals:
        raise ValueError("need at least one ideal")
    if len(ideals) == 1:
        return buchberger(ideals[0])
    return reduce(intersect_ideals, ideals)


def cell_degrees(polys, cell) -> list[int]:
    """Highest power of the cell's variable in each polynomial."""
    if not polys:
        return []
    ring = _common_ring(polys)
    idx = ring.index(f"z[{cell[0]},{cell[1]}]")
    return [
        max(ring.decode(m)[idx] for m in p.terms) if p.terms else 0 for p in polys
    ]


def cell_split(gb, cell) -> tuple[list[Poly], list[Poly]]:
    """Split a basis along one matrix entry y = z[a,b].

    Writes each element as y*q + r with y absent from q and r, which
    requires every element to be linear in y.  Returns the pair
    (all q's plus the y-free elements, the y-free elements alone).  Of a
    reduced basis under an order that puts y first, the y-free elements
    are the reduced basis of the ideal's y-free part.
    """
    gb = [g for g in gb if not g.is_zero]
    if not gb:
        return [], []
    ring = _common_ring(gb)
    yname = f"z[{cell[0]},{cell[1]}]"
    idx = ring.index(yname)
    unit = ring.variable(yname)
    cofactors: list[Poly] = []
    free: list[Poly] = []
    for g in gb:
        with_y = {}
        without_y = {}
        for m, c in g.terms.items():
            e = ring.decode(m)[idx]
            if e == 0:
                without_y[m] = c
            elif e == 1:
                with_y[m - unit] = c
            else:
                raise ValueError(f"basis is not linear in {yname}")
        if with_y:
            cofactors.append(Poly(ring, with_y).normalized())
        else:
            free.append(Poly(ring, without_y).normalized())
    return cofactors + free, free
