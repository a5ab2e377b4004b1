"""Monomial ideal decompositions, multiplicities, and graded counts."""

from functools import reduce
from itertools import combinations
from itertools import product as boxes

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bumpless import bpd
from bumpless import groebner as gb
from bumpless.monomial import (
    MonomialIdeal,
    grading_images,
    prime_from_names,
    prime_names,
)
from bumpless.rings import Poly, Ring, lex_ring, matrix_ring, parse_poly
from bumpless.schubert import double_ring, x_ring

R2 = matrix_ring(2)
AB = lex_ring(("a", "b"))
ABC = lex_ring(("a", "b", "c"))


def mono(ring, text):
    p = parse_poly(ring, text)
    assert len(p.terms) == 1
    return p.leading_monomial()


def ideal(ring, *texts):
    return MonomialIdeal(ring, [mono(ring, t) for t in texts])


def named_primes(ring, primes):
    return sorted(prime_names(ring, S) for S in primes)


def test_minimal_antichain():
    J = ideal(R2, "z[1,1]^2", "z[1,1]^3", "z[1,1]^2*z[2,2]")
    assert J.gens == (mono(R2, "z[1,1]^2"),)
    assert ideal(R2, "z[1,1]", "1").is_unit


def test_zero_and_unit_edges():
    for ring in (R2, AB, matrix_ring(1), matrix_ring(4)):
        zero_and_unit_edges(ring)


def zero_and_unit_edges(ring):
    # The zero ideal is its own single component, on the prime of no
    # variables; the unit ideal decomposes as itself, with no primes.
    Z = MonomialIdeal(ring)
    assert Z.gens == () and not Z.is_unit
    assert Z.irreducible_components() == [MonomialIdeal(ring)]
    assert reduce(MonomialIdeal.intersect, Z.irreducible_components()) == Z
    assert Z.minimal_primes() == [frozenset()]
    assert Z.associated_primes() == [frozenset()]
    assert Z.multiplicity_at(frozenset()) == 1
    with pytest.raises(ValueError, match="infinite length"):
        Z.multiplicity_at(frozenset({0}))
    assert Z.degree() == 1
    U = MonomialIdeal(ring, [0])
    assert U.is_unit and U.gens
    assert U.irreducible_components() == [U]
    assert U.minimal_primes() == []
    assert U.associated_primes() == []
    assert U.multiplicity_at(frozenset()) == 0
    assert U.degree() == 0


def test_degree_of_the_unit_ideal_is_zero():
    # As its multiplicities, K-polynomial and multidegree are.
    U = MonomialIdeal(R2, [0])
    assert U.degree() == 0
    assert U.multiplicity_at(prime_from_names(R2, ("z[1,1]",))) == 0
    assert U.multidegree(*grading_images(R2, "standard")).is_zero


def test_from_polys_rejects_sums():
    with pytest.raises(ValueError, match="not a monomial"):
        MonomialIdeal.from_polys([parse_poly(AB, "a + b")])


def test_colon_plus_intersect_small():
    xy = ideal(AB, "a*b")
    assert xy.colon(mono(AB, "a")) == ideal(AB, "b")
    assert ideal(AB, "a").intersect(ideal(AB, "b")) == xy
    assert ideal(AB, "a").plus(ideal(AB, "b")) == ideal(AB, "a", "b")


def box_monomials(ring, cap):
    for exps in boxes(*(range(cap + 1) for _ in ring.names)):
        yield ring.encode(list(exps))


def test_intersection_is_membershipwise():
    I = ideal(AB, "a^2", "a*b")
    J = ideal(AB, "b^2", "a^3")
    K = I.intersect(J)
    for m in box_monomials(AB, 4):
        assert K.contains(m) == (I.contains(m) and J.contains(m))


def test_restricted_drops_outside_exponents():
    J = ideal(AB, "a^2*b", "b^3")
    S = prime_from_names(AB, ("a",))
    assert J.restricted(S).is_unit
    assert J.multiplicity_at(S) == 0
    T = prime_from_names(AB, ("b",))
    assert J.restricted(T) == ideal(AB, "b")
    assert J.multiplicity_at(T) == 1


def test_irreducible_components_multiply_back():
    J = ideal(ABC, "a*b", "a*c", "b*c")
    comps = J.irreducible_components()
    for C in comps:
        for g in C.gens:
            assert len(C.support(g)) == 1
    assert reduce(lambda x, y: x.intersect(y), comps) == J


def test_seven_strand_components_are_irredundant():
    w = (2, 1, 4, 3, 6, 5, 7)
    for order in ("diag", "col-lex"):
        ring = matrix_ring(7, order)
        J = MonomialIdeal(ring, gb.initial_ideal(gb.fulton_generators(w, ring)))
        assert len(J.irreducible_components()) == 14, order
        assert len(J.minimal_primes()) == 14, order
        assert len(J.associated_primes()) == 14, order
        assert J.degree() == 15 == len(bpd.enumerate_bpds(w)), order


def test_seven_strand_degree_counts_tilings():
    # Not radical: 261 minimal primes carry the 275 tilings.
    w = (1, 4, 3, 2, 7, 6, 5)
    ring = matrix_ring(7, "diag")
    J = MonomialIdeal(ring, gb.initial_ideal(gb.fulton_generators(w, ring)))
    assert len(J.minimal_primes()) == 261
    assert J.degree() == 275 == len(bpd.enumerate_bpds(w))


def test_seven_strand_degree_counts_tilings_of_2176543():
    w = (2, 1, 7, 6, 5, 4, 3)
    ring = matrix_ring(7, "diag")
    J = MonomialIdeal(ring, gb.initial_ideal(gb.fulton_generators(w, ring)))
    assert J.degree() == 594 == len(bpd.enumerate_bpds(w))


def test_embedded_prime_found():
    J = ideal(AB, "a^2", "a*b")
    assert named_primes(AB, J.associated_primes()) == [("a",), ("a", "b")]
    assert named_primes(AB, J.minimal_primes()) == [("a",)]
    with pytest.raises(ValueError, match="infinite length"):
        J.multiplicity_at(prime_from_names(AB, ("a", "b")))


def test_initial_ideal_of_smallest_lattice_pair():
    J = ideal(R2, "z[1,1]^2*z[2,2]")
    assert named_primes(R2, J.minimal_primes()) == [("z[1,1]",), ("z[2,2]",)]
    assert J.multiplicity_at(prime_from_names(R2, ("z[1,1]",))) == 2
    assert J.multiplicity_at(prime_from_names(R2, ("z[2,2]",))) == 1
    assert J.degree() == 3


def test_k_polynomial_frozen():
    T, imgs = grading_images(R2, "rows-columns")
    assert T == lex_ring(("x1", "x2", "y1", "y2"))
    assert ideal(R2, "z[1,1]").k_polynomial(T, imgs).to_text() == "-x1*y1 + 1"
    Q, std = grading_images(R2, "standard")
    assert ideal(R2, "z[1,1]*z[2,2]").k_polynomial(Q, std).to_text() == "-q^2 + 1"
    assert MonomialIdeal(R2).k_polynomial(Q, std).to_text() == "1"
    assert ideal(R2, "1").k_polynomial(Q, std).is_zero


def test_multidegree_frozen():
    T, imgs = grading_images(R2, "rows-columns")
    assert ideal(R2, "z[1,1]").multidegree(T, imgs).to_text() == "x1 + y1"
    got = ideal(R2, "z[1,1]*z[2,2]").multidegree(T, imgs)
    assert got.to_text() == "x1 + x2 + y1 + y2"


def test_rows_grading_and_errors():
    T, imgs = grading_images(R2, "rows")
    assert T == lex_ring(("x1", "x2"))
    assert ideal(R2, "z[2,1]").k_polynomial(T, imgs).to_text() == "-x2 + 1"
    with pytest.raises(ValueError, match="not a matrix variable"):
        grading_images(AB, "rows")
    with pytest.raises(ValueError, match="unknown grading"):
        grading_images(R2, "columns")
    with pytest.raises(ValueError, match="one grading image"):
        ideal(R2, "z[1,1]").k_polynomial(T, (T.variable("x1"),))


@pytest.mark.parametrize("order", ["diag", "antidiag", "yref:1,1:col-lex"])
def test_grading_targets_of_a_matrix_ring(order):
    for n in range(1, 7):
        R = matrix_ring(n, order)
        assert grading_images(R, "rows-columns")[0] == double_ring(n)
        assert grading_images(R, "rows")[0] == x_ring(n)
        assert grading_images(R, "standard")[0] == lex_ring(("q",))


def test_grading_targets_name_only_the_rows_and_columns_used():
    ring = Ring(("z[2,5]", "z[7,1]"), (0, 1))
    T, imgs = grading_images(ring, "rows-columns")
    assert T.names == ("x2", "x7", "y1", "y5")
    assert [T.monomial_text(m) for m in imgs] == ["x2*y5", "x7*y1"]
    T, imgs = grading_images(ring, "rows")
    assert T.names == ("x2", "x7")


def test_prime_name_round_trip():
    S = prime_from_names(R2, ("z[2,1]", "z[1,2]"))
    assert prime_names(R2, S) == ("z[1,2]", "z[2,1]")


def small_ideals(ring, max_exp, max_gens):
    exps = st.tuples(*(st.integers(0, max_exp) for _ in ring.names))
    return st.lists(exps, min_size=1, max_size=max_gens).map(
        lambda rows: MonomialIdeal(ring, (ring.encode(list(r)) for r in rows))
    )


def contains_ideal(big, small):
    return all(big.contains(g) for g in small.gens)


@settings(max_examples=100, deadline=None)
@given(small_ideals(R2, 3, 5))
def test_irreducible_components_are_the_irredundant_decomposition(J):
    comps = J.irreducible_components()
    if J.is_unit:
        assert comps == [J]
        return
    assert comps == sorted(comps, key=lambda C: C.gens)
    for C in comps:
        assert all(len(C.support(g)) == 1 for g in C.gens)
        assert not any(D is not C and contains_ideal(C, D) for D in comps)
    assert reduce(lambda x, y: x.intersect(y), comps) == J


def brute_associated_primes(J):
    """Every associated prime is a colon by a monomial dividing the
    generator lcm, so a box search is exhaustive."""
    ring = J.ring
    cap = 0
    for g in J.gens:
        cap = max(cap, max(ring.decode(g), default=0))
    found = set()
    for m in box_monomials(ring, cap):
        C = J.colon(m)
        names = set()
        ok = bool(C.gens)
        for g in C.gens:
            sup = C.support(g)
            if len(sup) != 1 or ring.decode(g)[next(iter(sup))] != 1:
                ok = False
                break
            names |= sup
        if ok:
            found.add(frozenset(names))
    return found


@settings(max_examples=60, deadline=None)
@given(small_ideals(ABC, 3, 4))
def test_associated_primes_against_colon_search(J):
    if J.is_unit:
        assert J.associated_primes() == []
        return
    assert set(J.associated_primes()) == brute_associated_primes(J)


@settings(max_examples=60, deadline=None)
@given(small_ideals(AB, 4, 4))
def test_multiplicity_counts_standard_monomials(J):
    S = frozenset(range(2))
    local = J.restricted(S)
    if local.is_unit:
        assert J.multiplicity_at(S) == 0
        return
    caps = [0, 0]
    artinian = [False, False]
    for g in local.gens:
        e = AB.decode(g)
        for v in range(2):
            caps[v] = max(caps[v], e[v])
            if e[v] and not any(e[u] for u in range(2) if u != v):
                artinian[v] = True
    if not all(artinian):
        with pytest.raises(ValueError, match="infinite length"):
            J.multiplicity_at(S)
        return
    outside = sum(
        1 for m in box_monomials(AB, max(caps)) if not local.contains(m)
    )
    assert J.multiplicity_at(S) == outside


@settings(max_examples=60, deadline=None)
@given(small_ideals(ABC, 3, 5))
def test_multiplicity_at_every_subset_counts_standard_monomials(J):
    for k in range(4):
        for S in map(frozenset, combinations(range(3), k)):
            local = J.restricted(S)
            if local.is_unit:
                assert J.multiplicity_at(S) == 0
                continue
            pure = {v for g in local.gens for v in local.support(g)
                    if local.support(g) == {v}}
            if pure != S:
                with pytest.raises(ValueError, match="infinite length"):
                    J.multiplicity_at(S)
                continue
            # Artinian in the variables of S: every standard monomial
            # lies in the box below the largest exponent.
            cap = max(max(ABC.decode(g)) for g in local.gens)
            standard = sum(
                1
                for exps in boxes(*(range(cap + 1) if v in S else [0]
                                    for v in range(3)))
                if not local.contains(ABC.encode(list(exps)))
            )
            assert J.multiplicity_at(S) == standard


def test_multiplicity_with_several_components_on_one_prime():
    P = prime_from_names(AB, ("a", "b"))
    J = ideal(AB, "a^2", "a*b", "b^2")
    assert len(J.irreducible_components()) == 2
    assert J.multiplicity_at(P) == 3 == J.degree()
    K = ideal(AB, "a^3", "a*b", "b^3")
    assert len(K.irreducible_components()) == 2
    assert K.multiplicity_at(P) == 5 == K.degree()


def test_irreducible_components_is_a_fresh_list():
    J = ideal(ABC, "a^2", "a*b", "b^2", "c^3")
    before = (J.minimal_primes(), J.associated_primes(), J.degree())
    comps = J.irreducible_components()
    comps.clear()
    comps.append(ideal(ABC, "a"))
    assert len(J.irreducible_components()) == 2
    assert (J.minimal_primes(), J.associated_primes(), J.degree()) == before
    assert J.degree() == 9


@settings(max_examples=40, deadline=None)
@given(small_ideals(AB, 3, 3), small_ideals(AB, 3, 3))
def test_k_polynomial_inclusion_exclusion(I, J):
    Q, std = grading_images(AB, "standard")

    def K(X):
        return X.k_polynomial(Q, std)

    assert K(I.intersect(J)) + K(I.plus(J)) == K(I) + K(J)


def test_standard_multidegree_reads_degree_and_codim():
    Q, std = grading_images(R2, "standard")
    for J in (
        ideal(R2, "z[1,1]^2*z[2,2]"),
        ideal(R2, "z[1,1]", "z[1,2]*z[2,1]"),
        ideal(R2, "z[1,2]*z[2,1]"),
    ):
        codim = min(map(len, J.minimal_primes()))
        expect = Poly.constant(Q, J.degree()) * parse_poly(Q, "q") ** codim
        assert J.multidegree(Q, std) == expect
