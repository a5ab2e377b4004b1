"""Corner recurrences and the degeneration test harness.

Everything here verifies, by exact computation, that unions of matrix
Schubert varieties degenerate the way their droop tilings predict:
splitting a Groebner basis at a corner cell, matching minimal primes
of initial ideals against tiling diagrams, and checking the polynomial
recurrences those degenerations induce.  Each verifier returns a
machine-readable report dict rather than raising on a mismatch, so a
failure pinpoints the offending prime, diagram, or polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations

from . import asm as asm_mod
from . import bpd as bpd_mod
from . import perms
from .groebner import (
    asm_generators,
    buchberger,
    cell_degrees,
    cell_split,
    fulton_generators,
    ideal_equal,
    initial_ideal,
    intersect_many,
    is_groebner,
)
from .monomial import MonomialIdeal, grading_images, prime_names
from .rings import Poly, Ring, matrix_ring
from .schubert import (
    BETA,
    double_ring,
    grothendieck_poly,
    grothendieck_ring,
    schubert_poly,
    xvar,
    yvar,
)

Cell = tuple[int, int]


@dataclass(frozen=True)
class TransitionData:
    """One corner's worth of recurrence input.

    Removing the corner from the diagram of w gives the shorter
    permutation v; phi lists the rows that can trade places with the
    corner's row while adding the length back, and Phi holds the
    resulting permutations, one per row in phi.
    """

    w: perms.Perm
    corner: Cell
    v: perms.Perm
    phi: tuple[int, ...]
    Phi: tuple[perms.Perm, ...]


def transition_data(w, corner: Cell) -> TransitionData:
    w = perms.validate_perm(w)
    if corner not in perms.lower_outside_corners(w):
        raise ValueError(f"{corner} is not a lower outside corner of the diagram")
    a, b = corner
    c = perms.inverse(w)[b - 1]
    v = perms.apply_transposition(w, a, c)
    target = perms.coxeter_length(v) + 1
    phi = tuple(
        i
        for i in range(1, a)
        if perms.coxeter_length(perms.apply_transposition(v, i, a)) == target
    )
    Phi = tuple(perms.apply_transposition(v, i, a) for i in phi)
    return TransitionData(w, corner, v, phi, Phi)


def transition_target(td: TransitionData, U) -> perms.Perm:
    """The permutation absorbing a whole subset of phi at once: v composed
    with the cycle that sends the smallest row of U up to the corner row."""
    U = sorted(set(U))
    if not U:
        return td.v
    if not set(U) <= set(td.phi):
        raise ValueError(f"{U} is not a subset of {td.phi}")
    a = td.corner[0]
    n = len(td.v)
    cycle = list(range(1, n + 1))
    cycle[a - 1] = U[-1]
    for prev, nxt in zip(U, U[1:]):
        cycle[nxt - 1] = prev
    cycle[U[0] - 1] = a
    return perms.compose(td.v, tuple(cycle))


def accessible_cells(w) -> list[Cell]:
    """Lower outside corners whose rank value is at least one."""
    return [
        (a, b)
        for a, b in sorted(perms.lower_outside_corners(w))
        if perms.rank_function(w, a, b) >= 1
    ]


def maximal_accessible_cell(ws) -> Cell | None:
    """Row-then-column maximum of the accessible cells across a family."""
    cells = {cell for w in ws for cell in accessible_cells(w)}
    return max(cells) if cells else None


def southeast_cells(ws) -> list[Cell]:
    """Maximally southeast cells of the union of the Rothe diagrams."""
    return sorted(
        perms._southeast_maximal({cell for w in ws for cell in perms.rothe_diagram(w)})
    )


def _report(case: str, statement: str, ok: bool, witness: dict) -> dict:
    return {
        "case": case,
        "statement": statement,
        "status": "pass" if ok else "fail",
        "witness": witness,
    }


def _case_name(ws, corner: Cell | None = None) -> str:
    words = "^".join(perms.perm_to_text(w) for w in ws)
    return words if corner is None else f"{words}@{corner[0]},{corner[1]}"


def _difference_report(w, corner: Cell, statement: str, diff: Poly) -> dict:
    witness = {} if diff.is_zero else {"difference": diff.to_text()}
    return _report(_case_name([w], corner), statement, diff.is_zero, witness)


def _subsets(phi):
    for k in range(1, len(phi) + 1):
        yield from combinations(phi, k)


def verify_schubert_transition(w, corner: Cell) -> dict:
    """Corner recurrence for double Schubert polynomials: the corner
    factor times the shorter polynomial plus the length-preserving
    exchanges gives back the original polynomial."""
    td = transition_data(w, corner)
    a, b = corner
    T = double_ring(len(w))
    lhs = schubert_poly(w, T)
    rhs = (xvar(T, a) + yvar(T, b)) * schubert_poly(td.v, T)
    for u in td.Phi:
        rhs = rhs + schubert_poly(u, T)
    return _difference_report(w, corner, "schubert-transition", lhs - rhs)


def verify_grothendieck_transition(w, corner: Cell) -> dict:
    """Corner recurrence for the beta-deformed doubles, with one term
    per nonempty subset of phi weighted by a power of beta."""
    td = transition_data(w, corner)
    a, b = corner
    G = grothendieck_ring(len(w))
    beta = Poly.variable(G, BETA)
    xa, yb = xvar(G, a), yvar(G, b)
    circ = xa + yb + beta * xa * yb
    lhs = grothendieck_poly(w, G)
    tail = Poly.zero(G)
    for U in _subsets(td.phi):
        tail = tail + beta ** (len(U) - 1) * grothendieck_poly(
            transition_target(td, U), G
        )
    rhs = circ * grothendieck_poly(td.v, G) + (1 + beta * circ) * tail
    return _difference_report(w, corner, "grothendieck-transition", lhs - rhs)


_K_MEMO: dict[tuple, Poly] = {}


def k_of_quotient(w, R: Ring, T: Ring) -> Poly:
    """Numerator of the doubly-graded Hilbert series of the quotient by
    the determinantal ideal of w, read off its initial ideal in R."""
    key = (R, T, tuple(w))
    got = _K_MEMO.get(key)
    if got is None:
        J = MonomialIdeal(R, initial_ideal(fulton_generators(w, R)))
        got = J.k_polynomial(T, grading_images(R, T, "rows-columns"))
        _K_MEMO[key] = got
    return got


def verify_hilbert_transition(w, corner: Cell, order: str = "diag") -> dict:
    """Corner recurrence for Hilbert-series numerators in the grading
    where the (i, j) entry carries weight x_i*y_j."""
    td = transition_data(w, corner)
    a, b = corner
    n = len(w)
    R = matrix_ring(n, order)
    T = double_ring(n)
    xy = xvar(T, a) * yvar(T, b)
    lhs = k_of_quotient(w, R, T)
    tail = Poly.zero(T)
    for U in _subsets(td.phi):
        term = k_of_quotient(transition_target(td, U), R, T)
        tail = tail + (-1) ** (len(U) - 1) * term
    rhs = (1 - xy) * k_of_quotient(td.v, R, T) + xy * tail
    return _difference_report(w, corner, "hilbert-transition", lhs - rhs)


def _texts(polys) -> list[str]:
    return [p.to_text() for p in polys]


def verify_link_decomposition(w, corner: Cell) -> dict:
    """Split the basis at the corner and compare both halves with their
    predicted ideals: the free half with the shorter permutation's ideal,
    the cofactor half with the join ideal and with the intersection over
    the exchange set."""
    td = transition_data(w, corner)
    a, b = corner
    n = len(w)
    R = matrix_ring(n, f"tau:{a},{b}")
    gb = buchberger(fulton_generators(w, R))
    C, N = cell_split(gb, corner)
    failures = {}

    if not ideal_equal(N, fulton_generators(td.v, R)):
        failures["free-half"] = _texts(buchberger(N))

    r = perms.rank_function(w, a, b)
    if r == 0:
        if td.Phi:
            failures["exchange-set"] = [perms.perm_to_text(u) for u in td.Phi]
        if not ideal_equal(C, [Poly.constant(R, 1)]):
            failures["cofactor-half"] = _texts(buchberger(C))
    else:
        pi = perms.bigrassmannian(n, a - 1, b - 1, r - 1)
        A = asm_mod.join(
            [asm_mod.from_permutation(td.v), asm_mod.from_permutation(pi)]
        )
        if not ideal_equal(C, asm_generators(A, R)):
            failures["cofactor-vs-join"] = _texts(buchberger(C))
        pieces = [fulton_generators(u, R) for u in td.Phi]
        if not ideal_equal(C, intersect_many(pieces)):
            failures["cofactor-vs-intersection"] = _texts(buchberger(C))
        if asm_mod.perm_set(A) != set(td.Phi):
            failures["perm-set"] = sorted(
                perms.perm_to_text(u) for u in asm_mod.perm_set(A)
            )
        if asm_mod.degree_of(A) != perms.coxeter_length(w):
            failures["join-degree"] = asm_mod.degree_of(A)

    return _report(
        _case_name([w], corner), "link-decomposition", not failures, failures
    )


def _initial_in(ring: Ring, gens) -> MonomialIdeal:
    return MonomialIdeal(ring, initial_ideal(gens))


def _convert_monomials(ms, source: Ring, target: Ring):
    for m in ms:
        yield Poly(source, {m: 1}).convert(target).leading_monomial()


def verify_tau_formula(w, corner: Cell) -> dict:
    """Under the corner-first order, the initial ideal factors into the
    antidiagonal initial ideals of the exchange permutations and of the
    shorter permutation with the corner variable adjoined."""
    td = transition_data(w, corner)
    a, b = corner
    n = len(w)
    R_tau = matrix_ring(n, f"tau:{a},{b}")
    R_anti = matrix_ring(n, "antidiag")
    lhs = _initial_in(R_tau, fulton_generators(w, R_tau))

    def anti(x) -> MonomialIdeal:
        packed = initial_ideal(fulton_generators(x, R_anti))
        return MonomialIdeal(R_tau, _convert_monomials(packed, R_anti, R_tau))

    rhs = anti(td.v).plus([R_tau.variable(f"z[{a},{b}]")])
    for u in td.Phi:
        rhs = rhs.intersect(anti(u))
    ok = lhs == rhs
    witness = {}
    if not ok:
        witness = {
            "left": [R_tau.monomial_text(m) for m in lhs.gens],
            "right": [R_tau.monomial_text(m) for m in rhs.gens],
        }
    return _report(_case_name([w], corner), "corner-first-initial", ok, witness)


def _diagram_prime(ring: Ring, diagram) -> frozenset[int]:
    return frozenset(ring.index(f"z[{i},{j}]") for i, j in diagram)


def verify_main_theorem(ws, order: str = "diag") -> dict:
    """Minimal primes of the diagonal initial ideal of an intersection,
    counted with multiplicity, against the multiset of droop-tiling
    diagrams of the same permutations."""
    ws = [perms.validate_perm(w) for w in ws]
    if len(set(ws)) != len(ws):
        raise ValueError("permutations must be distinct")
    sizes = {len(w) for w in ws}
    if len(sizes) != 1:
        raise ValueError("permutations must share one matrix size")
    lengths = {perms.coxeter_length(w) for w in ws}
    if len(lengths) != 1:
        raise ValueError("permutations must share one length")
    n = sizes.pop()
    R = matrix_ring(n, order)

    expected: dict[frozenset[int], int] = {}
    for w in ws:
        for grid in bpd_mod.enumerate_bpds(w):
            P = _diagram_prime(R, bpd_mod.diagram(grid))
            expected[P] = expected.get(P, 0) + 1

    gb = buchberger(intersect_many([fulton_generators(w, R) for w in ws]))
    J = MonomialIdeal(R, initial_ideal(gb))
    got = {P: J.multiplicity_at(P) for P in J.minimal_primes()}

    mismatches = {}
    for P in expected.keys() | got.keys():
        if expected.get(P, 0) != got.get(P, 0):
            mismatches[", ".join(prime_names(R, P))] = {
                "tilings": expected.get(P, 0),
                "multiplicity": got.get(P, 0),
            }
    witness: dict = {"components": len(got)}
    if mismatches:
        witness["mismatches"] = mismatches
    return _report(_case_name(ws), "components-match-tilings", not mismatches, witness)


def verify_theorem_B(w) -> dict:
    """Antidiagonal degeneration: the defining minors are already a
    basis, the initial ideal is radical, and its facets count and weigh
    like the droop tilings."""
    w = perms.validate_perm(w)
    n = len(w)
    R = matrix_ring(n, "antidiag")
    gens = fulton_generators(w, R)
    failures: dict = {}

    if not is_groebner(gens):
        failures["defining-minors-not-a-basis"] = True
    J = MonomialIdeal(R, initial_ideal(gens))
    if not J.is_radical():
        failures["not-radical"] = _texts(
            Poly(R, {m: 1}) for m in J.gens if not J.radical().contains(m)
        )
    mins = J.minimal_primes()
    if not J.is_zero:
        back = reduce(
            MonomialIdeal.intersect,
            (
                MonomialIdeal(R, (R.variable(nm) for nm in prime_names(R, P)))
                for P in mins
            ),
        )
        if back != J:
            failures["not-intersection-of-primes"] = True
    tilings = len(bpd_mod.enumerate_bpds(w))
    if len(mins) != tilings:
        failures["facet-count"] = {"facets": len(mins), "tilings": tilings}
    T = double_ring(n)
    md = J.multidegree(T, grading_images(R, T, "rows-columns"))
    if md != schubert_poly(w, T):
        failures["multidegree"] = md.to_text()

    witness: dict = dict(failures)
    witness["crossing-sets"] = sorted(
        sorted(prime_names(R, P)) for P in mins
    )
    return _report(
        _case_name([w]), "antidiagonal-degeneration", not failures, witness
    )


def _split_at(gens, corner: Cell, ring: Ring):
    gb = buchberger(gens)
    return cell_split(gb, corner)


def verify_linearity(ws, corner: Cell) -> dict:
    """No reduced-basis element of the intersection may carry the corner
    variable squared, under the corner-refined order."""
    n = len(ws[0])
    a, b = corner
    R = matrix_ring(n, f"yref:{a},{b}:diag")
    gb = buchberger(intersect_many([fulton_generators(w, R) for w in ws]))
    degs = cell_degrees(gb, corner)
    ok = all(d <= 1 for d in degs)
    return _report(
        _case_name(ws, corner),
        "linear-in-corner",
        ok,
        {} if ok else {"degrees": degs},
    )


def verify_intersectNs(ws, corner: Cell) -> dict:
    """The free half of the intersection's split equals the intersection
    of the free halves, computed under the corner-first order."""
    ws = [perms.validate_perm(w) for w in ws]
    if corner not in southeast_cells(ws):
        raise ValueError(f"{corner} is not maximally southeast for this family")
    n = len(ws[0])
    a, b = corner
    R = matrix_ring(n, f"tau:{a},{b}")
    _, N_whole = _split_at(
        intersect_many([fulton_generators(w, R) for w in ws]), corner, R
    )
    parts = []
    for w in ws:
        _, N_w = _split_at(fulton_generators(w, R), corner, R)
        parts.append(N_w)
    combined = intersect_many(parts)
    ok = ideal_equal(N_whole, combined)
    witness = {}
    if not ok:
        witness = {
            "whole": _texts(buchberger(N_whole)),
            "combined": _texts(buchberger(combined)),
        }
    return _report(_case_name(ws, corner), "free-halves-intersect", ok, witness)


def verify_ycompat(ws, corner: Cell, order: str = "diag") -> dict:
    """Refining a diagonal order by the corner variable must not change
    the initial ideal of the intersection."""
    ws = [perms.validate_perm(w) for w in ws]
    n = len(ws[0])
    a, b = corner
    R_plain = matrix_ring(n, order)
    R_refined = matrix_ring(n, f"yref:{a},{b}:{order}")
    plain = _initial_in(R_plain, intersect_many([fulton_generators(w, R_plain) for w in ws]))
    refined_packed = initial_ideal(
        intersect_many([fulton_generators(w, R_refined) for w in ws])
    )
    refined = MonomialIdeal(
        R_plain, _convert_monomials(refined_packed, R_refined, R_plain)
    )
    ok = plain == refined
    witness = {}
    if not ok:
        witness = {
            "plain": [R_plain.monomial_text(m) for m in plain.gens],
            "refined": [R_plain.monomial_text(m) for m in refined.gens],
        }
    return _report(_case_name(ws, corner), "refinement-safe", ok, witness)


def verify_asm_lattice(A) -> dict:
    """Three descriptions of the antidiagonal initial ideal of a lattice
    join must agree: the sum over a family joining to A, the ideal of A
    itself, and the intersection over the minimal permutations above A."""
    A = asm_mod.validate_asm(A)
    n = len(A)
    R = matrix_ring(n, "antidiag")
    own = _initial_in(R, asm_generators(A, R))
    failures: dict = {}

    family = sorted(asm_mod.bigrassmannian_join_decomposition(A))
    if family and asm_mod.join(map(asm_mod.from_permutation, family)) != A:
        failures["family-does-not-join-to-A"] = [
            perms.perm_to_text(w) for w in family
        ]
    total = MonomialIdeal(R)
    for w in family:
        total = total.plus(initial_ideal(fulton_generators(w, R)))
    if total != own:
        failures["sum-over-join-family"] = [R.monomial_text(m) for m in total.gens]

    users = sorted(asm_mod.perm_set(A))
    meet = reduce(
        MonomialIdeal.intersect,
        (_initial_in(R, fulton_generators(w, R)) for w in users),
    )
    if meet != own:
        failures["intersection-over-minimal-permutations"] = [
            R.monomial_text(m) for m in meet.gens
        ]
    return _report(
        asm_mod.asm_to_text(A), "join-initial-ideal-three-ways", not failures, failures
    )
