"""Groebner bases for determinantal ideals of a generic matrix.

Polynomials are manipulated as dicts from packed monomials to integer
coefficients.  Reduction is fraction-free: instead of dividing by a
leading coefficient it scales the whole intermediate result, which
keeps every step in exact integer arithmetic; content is cleared when
a computation finishes.  The completion loop is Buchberger's
algorithm with the coprime-lead and chain pair criteria and a
smallest-lcm selection strategy, followed by full autoreduction, so
the returned basis is the reduced one: unique for a given ideal and
order once scaled to integer coefficients with content one and a
positive leading coefficient.
"""

from __future__ import annotations

import heapq
from bisect import insort
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd as _int_gcd

from . import asm as asm_mod
from . import cache as cache_mod
from . import perms
from .rings import Poly, Ring, _primitive, matrix_names


def minor(ring: Ring, rows, cols) -> Poly:
    """Determinant of the submatrix on the given 1-based rows and columns."""
    rows = tuple(rows)
    cols = tuple(cols)
    if len(rows) != len(cols):
        raise ValueError("a minor needs as many rows as columns")
    if sorted(set(rows)) != list(rows) or sorted(set(cols)) != list(cols):
        raise ValueError("rows and columns must be strictly increasing")
    return _det(ring, rows, cols)


@lru_cache(maxsize=None)
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
    """Defining minors of the matrix Schubert variety of a permutation:
    for each essential cell (i, j), the minors of the top-left i-by-j
    submatrix one larger than the rank there."""
    _check_matrix_ring(ring, len(w))
    out = {}
    for i, j in sorted(perms.essential_set(w)):
        r = perms.rank_function(w, i, j)
        for g in northwest_minors(ring, i, j, r + 1):
            out[g] = None
    return list(out)


def asm_generators(A, ring: Ring) -> list[Poly]:
    """Defining minors of the variety attached to an alternating sign
    matrix, taken at its essential rank cells."""
    _check_matrix_ring(ring, len(A))
    out = {}
    for i, j, r in sorted(asm_mod.essential_rank_cells(A)):
        for g in northwest_minors(ring, i, j, r + 1):
            out[g] = None
    return list(out)


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


def _reduce_int(ring: Ring, source: dict[int, int], reducers) -> dict[int, int]:
    """Fraction-free normal form; content of the result is not cleared.

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
    return out


def _spoly(ring: Ring, gi, gj, lmi, lci, lmj, lcj) -> dict[int, int]:
    u = ring.lcm(lmi, lmj)
    d = _int_gcd(lci, lcj)
    ai = lcj // d
    aj = lci // d
    ui = u - lmi
    uj = u - lmj
    out = {m + ui: c * ai for m, c in gi.items()}
    for m, c in gj.items():
        key = m + uj
        nv = out.get(key, 0) - c * aj
        if nv:
            out[key] = nv
        elif key in out:
            del out[key]
    return out


def buchberger(gens, use_cache: bool = True) -> list[Poly]:
    """Reduced Groebner basis of the ideal the generators span."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    ring = _common_ring(gens)
    seeds = sorted({tuple(sorted(_primitive(g.terms).items())) for g in gens})
    if use_cache:
        hit = cache_mod.load_basis(ring, seeds)
        if hit is not None:
            return [Poly(ring, terms) for terms in hit]

    basis: list[dict[int, int]] = []
    lms: list[int] = []
    lcs: list[int] = []
    reducers: list = []
    alive: set[tuple[int, int]] = set()
    heap: list = []

    def push_element(d: dict[int, int]) -> None:
        t = len(basis)
        basis.append(d)
        lm = max(d)
        lms.append(lm)
        lcs.append(d[lm])
        insort(reducers, _reducer(d))
        for i in range(t):
            tau = ring.lcm(lms[i], lm)
            alive.add((i, t))
            heapq.heappush(heap, (tau, i, t))

    for s in seeds:
        d = dict(s)
        nf = _primitive(_reduce_int(ring, d, reducers))
        if nf:
            push_element(nf)

    while heap:
        tau, i, j = heapq.heappop(heap)
        if (i, j) not in alive:
            continue
        alive.discard((i, j))
        if tau == lms[i] + lms[j]:
            continue
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
        s = _spoly(ring, basis[i], basis[j], lms[i], lcs[i], lms[j], lcs[j])
        nf = _primitive(_reduce_int(ring, s, reducers))
        if nf:
            push_element(nf)

    reduced = _autoreduce(ring, basis)
    result = [Poly(ring, d) for d in reduced]
    if use_cache:
        cache_mod.store_basis(ring, seeds, reduced)
    return result


def _autoreduce(ring: Ring, ds) -> list[dict[int, int]]:
    ds = [d for d in map(_primitive, ds) if d]
    ds.sort(key=lambda d: (max(d), len(d)))
    kept: list[dict[int, int]] = []
    for d in ds:
        lm = max(d)
        if any(ring.divides(max(e), lm) for e in kept):
            continue
        kept.append(d)
    while True:
        changed = False
        for k, d in enumerate(kept):
            reducers = sorted(_reducer(e) for p, e in enumerate(kept) if p != k)
            nf = _primitive(_reduce_int(ring, d, reducers))
            if nf != d:
                kept[k] = nf
                changed = True
        if not changed:
            return sorted(kept, key=lambda d: (max(d), sorted(d.items())))


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
    meta = [(max(d), d[max(d)]) for d in ds]
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            s = _spoly(ring, ds[i], ds[j], *meta[i], *meta[j])
            if _reduce_int(ring, s, reducers):
                return False
    return True


def normal_form(f: Poly, basis) -> Poly:
    """Remainder of f modulo the basis, with exact rational coefficients."""
    basis = [g for g in basis if not g.is_zero]
    if f.is_zero or not basis:
        return f
    ring = _common_ring([f] + basis)
    reducers = sorted(_reducer(_primitive(g.terms)) for g in basis)
    guard = ring._guard
    work = {m: Fraction(c) for m, c in f.terms.items()}
    heap = [-m for m in work]
    heapq.heapify(heap)
    out: dict[int, Fraction] = {}
    while heap:
        m = -heapq.heappop(heap)
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
        q = c / lc
        u = m - lm
        for gm, gc in tail:
            key = gm + u
            nv = work.get(key, 0) - q * gc
            if nv:
                if key not in work:
                    heapq.heappush(heap, -key)
                work[key] = nv
            elif key in work:
                del work[key]
    return Poly(ring, out)


def in_ideal(f: Poly, gb) -> bool:
    """Membership test against a basis already known to be Groebner."""
    return normal_form(f, gb).is_zero


def leading_monomials(gb) -> list[int]:
    return sorted(g.leading_monomial() for g in gb)


def initial_ideal(gens, use_cache: bool = True) -> list[int]:
    """Minimal generators of the leading-term ideal, as packed monomials."""
    return leading_monomials(buchberger(gens, use_cache=use_cache))


def ideal_equal(F, G, use_cache: bool = True) -> bool:
    """Whether two generating sets span the same ideal."""
    bf = buchberger(F, use_cache=use_cache)
    bg = buchberger(G, use_cache=use_cache)
    return [p.terms for p in bf] == [p.terms for p in bg]


def elimination_ring(inner: Ring, name: str = "t") -> Ring:
    """Extend a ring by one fresh variable larger than everything."""
    while name in inner.names:
        name += "t"
    return Ring((name,) + inner.names, (0,) + tuple(v + 1 for v in inner.layout))


def intersect_ideals(F, G, use_cache: bool = True) -> list[Poly]:
    """Reduced basis of the intersection of two ideals, found by
    eliminating a tag variable from t*F + (1-t)*G."""
    F = [f for f in F if not f.is_zero]
    G = [g for g in G if not g.is_zero]
    if not F or not G:
        return []
    ring = _common_ring(F + G)
    ext = elimination_ring(ring)
    t = Poly.variable(ext, ext.names[0])
    tagged = [f.convert(ext) * t for f in F]
    tagged += [g.convert(ext) * (1 - t) for g in G]
    gb = buchberger(tagged, use_cache=use_cache)
    keep = [g for g in gb if ext.decode(g.leading_monomial())[0] == 0]
    for g in keep:
        if any(ext.decode(m)[0] for m in g.terms):
            raise AssertionError("tag variable survived below a tag-free lead")
    return [g.convert(ring) for g in keep]


def intersect_many(ideals, use_cache: bool = True) -> list[Poly]:
    """Fold a sequence of generating sets into one intersection."""
    ideals = list(ideals)
    if not ideals:
        raise ValueError("need at least one ideal")
    acc = ideals[0]
    for nxt in ideals[1:]:
        acc = intersect_ideals(acc, nxt, use_cache=use_cache)
    return acc


def cell_degrees(polys, cell) -> list[int]:
    """Highest power of the cell's variable in each polynomial."""
    if not polys:
        return []
    ring = _common_ring(polys)
    idx = ring.index(f"z[{cell[0]},{cell[1]}]")
    return [
        max(ring.decode(m)[idx] for m in p.terms) if p.terms else 0 for p in polys
    ]


def is_linear_in_cell(polys, cell) -> bool:
    """Whether no polynomial has the cell's variable squared or higher."""
    return all(d <= 1 for d in cell_degrees(polys, cell))


def cell_split(gb, cell) -> tuple[list[Poly], list[Poly]]:
    """Split a basis along one matrix entry y = z[a,b].

    Writes each element as y*q + r with y absent from q and r, which
    requires every element to be linear in y.  Returns the pair
    (all q's plus the y-free elements, the y-free elements alone).
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
