"""Corner recurrences and the degeneration test harness.

Everything here verifies, by exact computation, that unions of matrix
Schubert varieties degenerate the way their tilings predict:
splitting a Groebner basis at a corner cell, matching minimal primes
of initial ideals against tiling diagrams, and checking the polynomial
recurrences those degenerations induce.  Each verifier returns a
machine-readable report dict rather than raising on a mismatch, so a
failure pinpoints the offending prime, diagram, or polynomial.

The three polynomial recurrences at a corner are one check,
F(w) = c1*F(v) + c2 * sum over nonempty U in phi of r**(|U|-1) * F(target(U)):

    family           F                  c1             c2              r
    double Schubert  schubert_poly      x_a + y_b      1               0
    Grothendieck     grothendieck_poly  circ           1 + beta*circ   beta
    Hilbert series   k_polynomial       1 - x_a*y_b    x_a*y_b         -1

where circ = x_a + y_b + beta*x_a*y_b, and the Hilbert row's F(u) is the
K-polynomial of the initial ideal of u's determinantal ideal.  With r = 0
only the singletons of phi contribute: the cohomology recurrence is the
K-theory one at beta = 0 (Lascoux, Transition on Grothendieck
polynomials, 2001).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
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
    initial_ideal,
    intersect_many,
    is_groebner,
    leading_monomials,
)
from .monomial import MonomialIdeal, grading_images, prime_names
from .rings import _ONE, Poly, Ring, _add_product, matrix_ring
from .schubert import (
    BETA,
    _circ,
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
    covers = perms.bruhat_covers(v)
    phi = tuple(i for i in range(1, a) if perms.apply_transposition(v, i, a) in covers)
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


def _family(ws) -> tuple[list[perms.Perm], int]:
    """The words of a family as permutations, with their one matrix size;
    ValueError unless they are distinct and share that size."""
    ws = [perms.validate_perm(w) for w in ws]
    if len(set(ws)) != len(ws):
        raise ValueError("permutations must be distinct")
    if len({len(w) for w in ws}) != 1:
        raise ValueError("permutations must share one matrix size")
    return ws, len(ws[0])


def _corner_recurrence(td: TransitionData, statement: str, F, c1, c2, ratio) -> dict:
    """The corner check of the module docstring, with r = ratio, as one
    difference F(w) - c1*F(v) - c2*(tail) built in one term map.  The
    subsets of phi are taken by size k: the F(target(U)) of one size are
    summed in place first, and the sum is multiplied by its weight
    -c2*r**(k-1) once.  A size whose weight is zero is never evaluated."""
    lhs = F(td.w)
    one = Poly.constant(lhs.ring, 1)
    diff = dict(lhs.terms)
    for k in range(1, len(td.phi) + 1):
        weight = -c2 * ratio ** (k - 1) * one
        if weight.is_zero:
            continue
        group = {}
        for U in combinations(td.phi, k):
            _add_product(group, F(transition_target(td, U)).terms, _ONE)
        _add_product(diff, group, weight.terms)
    _add_product(diff, F(td.v).terms, (-c1 * one).terms)
    diff = Poly._of(lhs.ring, diff)
    witness = {} if diff.is_zero else {"difference": diff.to_text()}
    return _report(_case_name([td.w], td.corner), statement, diff.is_zero, witness)


def verify_schubert_transition(w, corner: Cell) -> dict:
    """Corner recurrence for double Schubert polynomials: the corner
    factor times the shorter polynomial plus the length-preserving
    exchanges (the singletons of phi) gives back the original."""
    td = transition_data(w, corner)
    a, b = corner
    T = double_ring(len(w))
    F = partial(schubert_poly, ring=T)
    c1 = xvar(T, a) + yvar(T, b)
    return _corner_recurrence(td, "schubert-transition", F, c1, 1, 0)


def verify_grothendieck_transition(w, corner: Cell) -> dict:
    """Corner recurrence for the beta-deformed doubles, with one term
    per nonempty subset of phi weighted by a power of beta."""
    td = transition_data(w, corner)
    a, b = corner
    G = grothendieck_ring(len(w))
    beta = Poly.variable(G, BETA)
    circ = _circ(G, a, b)
    F = partial(grothendieck_poly, ring=G)
    return _corner_recurrence(
        td, "grothendieck-transition", F, circ, 1 + beta * circ, beta
    )


def verify_hilbert_transition(w, corner: Cell, order: str = "diag") -> dict:
    """Corner recurrence for Hilbert-series numerators in the grading
    where the (i, j) entry carries weight x_i*y_j."""
    td = transition_data(w, corner)
    a, b = corner
    R = matrix_ring(len(w), order)
    T, images = grading_images(R, "rows-columns")

    def F(u) -> Poly:
        J = MonomialIdeal(R, initial_ideal(fulton_generators(u, R)))
        return J.k_polynomial(T, images)

    xy = xvar(T, a) * yvar(T, b)
    return _corner_recurrence(td, "hilbert-transition", F, 1 - xy, xy, -1)


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
    R = matrix_ring(n, f"yref:{a},{b}:antidiag")
    C, N = cell_split(buchberger(fulton_generators(w, R)), corner)
    C = buchberger(C)
    failures = {}

    if N != buchberger(fulton_generators(td.v, R)):
        failures["free-half"] = _texts(N)

    r = perms.rank_function(w, a, b)
    if r == 0:
        if td.Phi:
            failures["exchange-set"] = [perms.perm_to_text(u) for u in td.Phi]
        if C != [Poly.constant(R, 1)]:
            failures["cofactor-half"] = _texts(C)
    else:
        pi = perms.bigrassmannian(n, a - 1, b - 1, r - 1)
        A = asm_mod.join(
            [asm_mod.from_permutation(td.v), asm_mod.from_permutation(pi)]
        )
        if C != buchberger(asm_generators(A, R)):
            failures["cofactor-vs-join"] = _texts(C)
        pieces = [fulton_generators(u, R) for u in td.Phi]
        if C != intersect_many(pieces):
            failures["cofactor-vs-intersection"] = _texts(C)
        users = asm_mod.perm_set(A)
        if users != set(td.Phi):
            failures["perm-set"] = sorted(perms.perm_to_text(u) for u in users)
        degree = min(map(perms.coxeter_length, users))
        if degree != perms.coxeter_length(w):
            failures["join-degree"] = degree

    return _report(
        _case_name([w], corner), "link-decomposition", not failures, failures
    )


def verify_tau_formula(w, corner: Cell) -> dict:
    """Under the corner-first order, the initial ideal factors into the
    antidiagonal initial ideals of the exchange permutations and of the
    shorter permutation with the corner variable adjoined."""
    td = transition_data(w, corner)
    a, b = corner
    n = len(w)
    R_tau = matrix_ring(n, f"yref:{a},{b}:antidiag")
    R_anti = matrix_ring(n, "antidiag")
    lhs = MonomialIdeal(R_tau, initial_ideal(fulton_generators(w, R_tau)))

    def anti(x) -> MonomialIdeal:
        packed = initial_ideal(fulton_generators(x, R_anti))
        return MonomialIdeal(R_tau, (R_tau.encode(R_anti.decode(m)) for m in packed))

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


def verify_main_theorem(ws, order: str = "diag") -> dict:
    """Minimal primes of the diagonal initial ideal of an intersection,
    counted with multiplicity, against the multiset of tiling
    diagrams of the same permutations."""
    ws, n = _family(ws)
    lengths = {perms.coxeter_length(w) for w in ws}
    if len(lengths) != 1:
        raise ValueError("permutations must share one length")
    R = matrix_ring(n, order)

    expected: dict[frozenset[int], int] = {}
    for w in ws:
        for grid in bpd_mod.enumerate_bpds(w):
            P = frozenset(R.index(f"z[{i},{j}]") for i, j in bpd_mod.diagram(grid))
            expected[P] = expected.get(P, 0) + 1

    gb = intersect_many([fulton_generators(w, R) for w in ws])
    J = MonomialIdeal(R, leading_monomials(gb))
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
    like the tilings.  J is the ideal of the minors' leads, which
    is the initial ideal once the minors are certified a basis; if they
    are not, the case fails on that."""
    w = perms.validate_perm(w)
    R = matrix_ring(len(w), "antidiag")
    gens = fulton_generators(w, R)
    failures: dict = {}

    if not is_groebner(gens):
        failures["defining-minors-not-a-basis"] = True
    J = MonomialIdeal(R, leading_monomials(gens))
    squares = [m for m in J.gens if max(R.decode(m)) > 1]
    if squares:
        failures["not-radical"] = [R.monomial_text(m) for m in squares]
    mins = J.minimal_primes()
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
    T, images = grading_images(R, "rows-columns")
    md = J.multidegree(T, images)
    if md != schubert_poly(w, T):
        failures["multidegree"] = md.to_text()

    witness: dict = dict(failures)
    witness["crossing-sets"] = sorted(
        sorted(prime_names(R, P)) for P in mins
    )
    return _report(
        _case_name([w]), "antidiagonal-degeneration", not failures, witness
    )


def verify_linearity(ws, corner: Cell) -> dict:
    """No reduced-basis element of the intersection may carry the corner
    variable squared, under the corner-refined order."""
    ws, n = _family(ws)
    a, b = corner
    R = matrix_ring(n, f"yref:{a},{b}:diag")
    gb = intersect_many([fulton_generators(w, R) for w in ws])
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
    ws, n = _family(ws)
    if corner not in southeast_cells(ws):
        raise ValueError(f"{corner} is not maximally southeast for this family")
    a, b = corner
    R = matrix_ring(n, f"yref:{a},{b}:antidiag")
    _, whole = cell_split(
        intersect_many([fulton_generators(w, R) for w in ws]), corner
    )
    combined = intersect_many(
        [cell_split(buchberger(fulton_generators(w, R)), corner)[1] for w in ws]
    )
    ok = whole == combined
    witness = {}
    if not ok:
        witness = {"whole": _texts(whole), "combined": _texts(combined)}
    return _report(_case_name(ws, corner), "free-halves-intersect", ok, witness)


def verify_ycompat(ws, corner: Cell, order: str = "diag") -> dict:
    """Refining a diagonal order by the corner variable must not change
    the initial ideal of the intersection."""
    ws, n = _family(ws)
    a, b = corner
    R_plain = matrix_ring(n, order)
    R_refined = matrix_ring(n, f"yref:{a},{b}:{order}")

    def leads(R: Ring) -> list[int]:
        return leading_monomials(intersect_many([fulton_generators(w, R) for w in ws]))

    plain = MonomialIdeal(R_plain, leads(R_plain))
    refined = MonomialIdeal(
        R_plain, (R_plain.encode(R_refined.decode(m)) for m in leads(R_refined))
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
    own = MonomialIdeal(R, initial_ideal(asm_generators(A, R)))
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
        (MonomialIdeal(R, initial_ideal(fulton_generators(w, R))) for w in users),
    )
    if meet != own:
        failures["intersection-over-minimal-permutations"] = [
            R.monomial_text(m) for m in meet.gens
        ]
    case = "; ".join(" ".join(map(str, row)) for row in A)
    return _report(case, "join-initial-ideal-three-ways", not failures, failures)
