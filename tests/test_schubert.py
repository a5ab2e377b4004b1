"""Schubert and Grothendieck polynomials.

The library computes the Schubert families by the tiling sum and the
Grothendieck family by isobaric divided differences.  The tests check
the tiling sums against the divided-difference staircase of the
``by_operators`` fixture, an independent route to the same answer."""

import hashlib
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bumpless import bpd, schubert
from bumpless.groebner import buchberger, fulton_generators, initial_ideal
from bumpless.monomial import MonomialIdeal, grading_images
from bumpless.perms import all_perms, apply_transposition, perm_from_text, perm_to_text
from bumpless.rings import Poly, exact_divide, matrix_ring, parse_poly
from bumpless.schubert import (
    bpd_schubert_poly,
    bpd_single_schubert_poly,
    divided_difference,
    double_ring,
    grothendieck_poly,
    grothendieck_ring,
    isobaric_divided_difference,
    principal_value,
    schubert_poly,
    set_beta,
    single_schubert_poly,
    x_ring,
    xvar,
    yvar,
)

D3 = double_ring(3)
D4 = double_ring(4)
X4 = x_ring(4)
G4 = grothendieck_ring(4)
S4 = sorted(permutations(range(1, 5)))
S5 = sorted(permutations(range(1, 6)))


def test_frozen_small_polynomials():
    assert schubert_poly((2, 1), double_ring(2)).to_text() == "x1 + y1"
    assert schubert_poly((1, 3, 2), D3).to_text() == "x1 + x2 + y1 + y2"
    X3 = x_ring(3)
    assert single_schubert_poly((3, 2, 1), X3).to_text() == "x1^2*x2"
    assert single_schubert_poly((1, 3, 2), X3).to_text() == "x1 + x2"
    assert single_schubert_poly((2, 1, 3), X3).to_text() == "x1"
    got = grothendieck_poly((2, 1), grothendieck_ring(2)).to_text()
    assert got == "x1*y1*beta + x1 + y1"


def test_identity_is_one():
    w = (1, 2, 3)
    assert schubert_poly(w, D3).to_text() == "1"
    assert single_schubert_poly(w, x_ring(3)).to_text() == "1"
    assert grothendieck_poly((1, 2), grothendieck_ring(2)).to_text() == "1"


def test_tiling_sum_matches_operator_pipeline_doubles(by_operators):
    D5 = double_ring(5)
    for w in S5:
        got = schubert_poly(w, D5)
        assert got == bpd_schubert_poly(w, D5) == by_operators(w, D5), w


def test_tiling_sum_matches_operator_pipeline_singles(by_operators):
    X5 = x_ring(5)
    for w in S5:
        got = single_schubert_poly(w, X5)
        expected = by_operators(w, X5, single=True)
        assert got == bpd_single_schubert_poly(w, X5) == expected, w


def test_schubert_families_take_no_divided_difference(monkeypatch):
    # The double and single polynomials are tiling sums; only the
    # Grothendieck family steps down the staircase.
    monkeypatch.setattr(schubert, "_MEMO", {})
    monkeypatch.setattr(schubert, "_memo_terms", 0)
    calls = []
    step = schubert.divided_difference

    def counted(f, i):
        calls.append(i)
        return step(f, i)

    monkeypatch.setattr(schubert, "divided_difference", counted)
    for text in ("1432", "153264", "4721653"):
        w = perm_from_text(text)
        schubert_poly(w, double_ring(len(w)))
        single_schubert_poly(w, x_ring(len(w)))
    assert calls == []
    grothendieck_poly((1, 4, 3, 2), grothendieck_ring(4))
    assert calls


def test_tiling_sums_build_no_tiling(monkeypatch):
    # The sums are carried from row to row per state between the rows,
    # so no grid is ever built; the tilings are counted by the original.
    calls = []
    enumerate_bpds = bpd.enumerate_bpds

    def counted(w):
        calls.append(w)
        return enumerate_bpds(w)

    monkeypatch.setattr(bpd, "enumerate_bpds", counted)
    for text in ("1432", "153264", "4721653"):
        w = perm_from_text(text)
        n = len(w)
        bpd_schubert_poly(w, double_ring(n))
        single = bpd_single_schubert_poly(w, x_ring(n))
        assert principal_value(single) == len(enumerate_bpds(w)), text
    assert calls == []


def test_tiling_sums_build_no_factor_polynomial(monkeypatch):
    # Each row step multiplies the packed term maps of its blank cells;
    # none of them is built as a Poly through xvar or yvar.
    monkeypatch.setattr(schubert, "_MEMO", {})
    monkeypatch.setattr(schubert, "_memo_terms", 0)
    calls = []
    for name in ("xvar", "yvar"):
        build = getattr(schubert, name)

        def counted(ring, k, build=build, name=name):
            calls.append((name, k))
            return build(ring, k)

        monkeypatch.setattr(schubert, name, counted)
    w = perm_from_text("4721653")
    assert principal_value(schubert_poly(w, double_ring(7))) > 0
    assert principal_value(single_schubert_poly(w, x_ring(7))) > 0
    assert calls == []


def test_dropping_y_recovers_single():
    ys = tuple(f"y{j}" for j in range(1, 5))
    for w in S4:
        full = schubert_poly(w, D4)
        thin = full.map_variables(X4, dict.fromkeys(ys, 0))
        assert thin == single_schubert_poly(w, X4)


def test_beta_zero_recovers_schubert():
    for w in S4:
        assert set_beta(grothendieck_poly(w, G4), 0) == schubert_poly(w, G4)


def test_grothendieck_top_term_count():
    g = grothendieck_poly((2, 1, 4, 3), G4)
    s = schubert_poly((2, 1, 4, 3), G4)
    assert len(g.terms) > len(s.terms)
    assert all(c != 0 for c in g.terms.values())


def test_frozen_grothendieck_digest_s1_to_s5(monkeypatch):
    # A SHA-256 over every word of S1 to S5 with its Grothendieck
    # polynomial, frozen from the staircase of Poly factors that the
    # packed cell factors replaced; each staircase is built here afresh.
    monkeypatch.setattr(schubert, "_MEMO", {})
    monkeypatch.setattr(schubert, "_memo_terms", 0)
    digest = hashlib.sha256()
    terms = 0
    for n in range(1, 6):
        G = grothendieck_ring(n)
        for w in all_perms(n):
            f = grothendieck_poly(w, G)
            digest.update((perm_to_text(w) + f.to_text()).encode())
            terms += len(f.terms)
    assert terms == 155482
    assert digest.hexdigest() == (
        "845465fa6e780c98355090d4baa819b98fe81de47cb652ac1cc529a5b8daff83"
    )


def _count_cells(monkeypatch):
    """Empty the memo and record how many cells each staircase build
    multiplies out, with the ring it is built in."""
    monkeypatch.setattr(schubert, "_MEMO", {})
    monkeypatch.setattr(schubert, "_memo_terms", 0)
    builds = []
    product = schubert._product

    def counted(ring, cells, tag):
        cells = list(cells)
        builds.append((ring, len(cells)))
        return product(ring, cells, tag)

    monkeypatch.setattr(schubert, "_product", counted)
    return builds


def test_staircase_is_built_once_per_family_ring_and_size(monkeypatch):
    # Only the Grothendieck family has a staircase.  Repeated calls on
    # equal (not identical) rings hit the memo; the top of each own size,
    # S1 to S4 in the order sorted S4 first reaches them, is multiplied
    # out once, on the first call.
    builds = _count_cells(monkeypatch)
    first = {w: grothendieck_poly(w, grothendieck_ring(4)) for w in S4}
    for w in reversed(S4):
        assert grothendieck_poly(w, grothendieck_ring(4)) == first[w]
    assert builds == [(grothendieck_ring(4), cells) for cells in (0, 6, 3, 1)]
    assert len(schubert._MEMO) == len(S4)


def test_padded_word_builds_only_its_own_staircase(monkeypatch):
    builds = _count_cells(monkeypatch)
    got = grothendieck_poly((2, 1, 3, 4, 5), grothendieck_ring(5)).to_text()
    assert got == "x1*y1*beta + x1 + y1"
    assert builds == [(grothendieck_ring(5), 1)]


ENTRY_POINTS = [
    (schubert_poly, double_ring),
    (grothendieck_poly, grothendieck_ring),
    (single_schubert_poly, x_ring),
    (bpd_schubert_poly, double_ring),
    (bpd_single_schubert_poly, x_ring),
]


@pytest.mark.parametrize("f, make_ring", ENTRY_POINTS)
def test_padded_words_give_their_own_size_polynomial(f, make_ring):
    for k in range(1, 5):
        for w in permutations(range(1, k + 1)):
            own = f(w, make_ring(k)).to_text()
            for n in (5, 6):
                ring = make_ring(n)
                padded = w + tuple(range(k + 1, n + 1))
                assert f(padded, ring) == parse_poly(ring, own), (w, n)


def test_principal_value_counts_tilings():
    for w in S4:
        e = principal_value(single_schubert_poly(w, X4))
        assert e == len(bpd.enumerate_bpds(w))


def test_coefficients_nonnegative():
    for w in [(2, 4, 1, 5, 3), (3, 1, 5, 2, 4), (5, 4, 3, 2, 1)]:
        p = schubert_poly(w, double_ring(5))
        assert all(c > 0 for c in p.terms.values())


def test_stability_under_padding():
    a = schubert_poly((1, 3, 2), D3)
    b = schubert_poly((1, 3, 2), D4)
    assert parse_poly(D4, a.to_text()) == b
    assert schubert_poly((2, 1, 4, 3, 5), D4) == schubert_poly((2, 1, 4, 3), D4)


def test_word_too_big_or_ring_without_x_raises():
    with pytest.raises(ValueError, match="needs x5"):
        schubert_poly((2, 1, 3, 5, 4), D4)
    with pytest.raises(ValueError, match="needs x1"):
        schubert_poly((1,), matrix_ring(2))


def test_operator_identities():
    f = grothendieck_poly((3, 1, 4, 2), G4) * (1 + xvar(G4, 2))
    d1 = divided_difference(f, 1)
    assert divided_difference(d1, 1).is_zero
    lhs = divided_difference(divided_difference(d1, 2), 1)
    rhs = divided_difference(
        divided_difference(divided_difference(f, 2), 1), 2
    )
    assert lhs == rhs
    p2 = isobaric_divided_difference(f, 2)
    beta = Poly.variable(G4, "beta")
    assert isobaric_divided_difference(p2, 2) == -1 * beta * p2
    assert divided_difference(xvar(G4, 2), 1).to_text() == "-1"


def _step_by_swap(f, i, isobaric):
    """Reference operator: for the isobaric one, f times 1 + beta*x_{i+1};
    then f less a copy with the exponents of x_i and x_{i+1} exchanged in
    every term, divided by x_i - x_{i+1}."""
    ring = f.ring
    if isobaric:
        f = (1 + Poly.variable(ring, "beta") * xvar(ring, i + 1)) * f
    u, v = ring.index(f"x{i}"), ring.index(f"x{i + 1}")
    step = ring.variable(f"x{i + 1}") - ring.variable(f"x{i}")
    swapped = {}
    for m, c in f.terms.items():
        e = ring.decode(m)
        swapped[m + (e[u] - e[v]) * step] = c
    num = f - Poly(ring, swapped)
    if num.is_zero:
        return num
    return exact_divide(num, xvar(ring, i) - xvar(ring, i + 1))


@pytest.mark.parametrize(
    "n, f, make_ring, step",
    [
        (5, schubert_poly, double_ring, divided_difference),
        (5, grothendieck_poly, grothendieck_ring, isobaric_divided_difference),
        (6, single_schubert_poly, x_ring, divided_difference),
    ],
)
def test_one_pass_operators_match_the_swap_reference(n, f, make_ring, step):
    # Every step of every descent walk in the group: the polynomial of w
    # is the operator at w's first ascent i applied to that of w*s_i.
    ring = make_ring(n)
    isobaric = step is isobaric_divided_difference
    for w in permutations(range(1, n + 1)):
        i = next((i for i in range(1, n) if w[i - 1] < w[i]), None)
        if i is None:
            continue
        above = f(apply_transposition(w, i, i + 1), ring)
        got = step(above, i)
        assert got == _step_by_swap(above, i, isobaric) == f(w, ring), (w, i)
        assert all(got.terms.values())


g4_polys = st.lists(
    st.tuples(st.lists(st.integers(0, 3), min_size=9, max_size=9), st.integers(-3, 3)),
    max_size=6,
).map(lambda pairs: Poly(G4, [(G4.encode(e), c) for e, c in pairs]))


@settings(max_examples=60, deadline=None)
@given(g4_polys, st.integers(1, 3))
def test_operators_match_the_swap_reference_on_any_polynomial(f, i):
    # Unlike the polynomials a walk meets, these have terms whose image
    # under s_i is missing.
    for step in (divided_difference, isobaric_divided_difference):
        got = step(f, i)
        assert got == _step_by_swap(f, i, step is isobaric_divided_difference)
        assert all(got.terms.values())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3))
def test_divided_difference_kills_symmetric_parts(a, b, i):
    sym = (xvar(D4, i) + xvar(D4, i + 1)) ** a * (
        xvar(D4, i) * xvar(D4, i + 1)
    ) ** b
    assert divided_difference(sym, i).is_zero
    assert divided_difference(sym * xvar(D4, i), i) == sym


def test_multidegree_of_initial_ideal_is_double_schubert():
    for w in permutations(range(1, 4)):
        R = matrix_ring(3)
        gb = buchberger(fulton_generators(w, R), use_cache=False)
        J = MonomialIdeal(R, initial_ideal(gb))
        T, images = grading_images(R, "rows-columns")
        assert T == D3
        assert J.multidegree(T, images) == schubert_poly(w, D3)


def test_k_polynomial_order_independent():
    for w in [(2, 1, 4, 3), (4, 1, 3, 2), (1, 4, 3, 2)]:
        ks = []
        for order in ("diag", "antidiag"):
            R = matrix_ring(4, order)
            gb = buchberger(fulton_generators(w, R), use_cache=False)
            J = MonomialIdeal(R, initial_ideal(gb))
            ks.append(J.k_polynomial(*grading_images(R, "rows-columns")))
        assert ks[0] == ks[1]


def test_memo_is_bounded_without_changing_an_answer(monkeypatch):
    # Under a cap of 100 terms a store that finds more than 100 terms held
    # empties the memo first, so it never holds more than 100 terms and the
    # entry just stored; tiling sums and staircase steps share the cap.
    families = [
        (schubert_poly, double_ring),
        (grothendieck_poly, grothendieck_ring),
        (single_schubert_poly, x_ring),
    ]
    monkeypatch.setattr(schubert, "_MEMO", {})
    monkeypatch.setattr(schubert, "_memo_terms", 0)
    uncapped = {(f, w): f(w, ring(4)) for f, ring in families for w in S4}
    largest = max(len(p.terms) for p in uncapped.values())
    monkeypatch.setattr(schubert, "_MEMO", {})
    monkeypatch.setattr(schubert, "_memo_terms", 0)
    monkeypatch.setattr(schubert, "_MEMO_TERMS_CAP", 100)
    held = []
    for f, ring in families:
        for w in S4:
            assert f(w, ring(4)) == uncapped[f, w]
            terms = sum(len(p.terms) for p in schubert._MEMO.values())
            assert terms == schubert._memo_terms
            held.append(terms)
    assert 100 < max(held) <= 100 + largest
    assert any(later < earlier for earlier, later in zip(held, held[1:]))
