from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bumpless import asm
from bumpless import bpd as bpd_mod
from bumpless import perms
from bumpless import transition as tr
from bumpless.groebner import (
    fulton_generators,
    ideal_equal,
    intersect_many,
    leading_monomials,
)
from bumpless.monomial import MonomialIdeal, prime_names
from bumpless.rings import matrix_ring, parse_poly

W6 = perms.perm_from_text("214365")
W7 = perms.perm_from_text("4721653")


def same_length_pairs(n):
    by_len = {}
    for w in perms.all_perms(n):
        by_len.setdefault(perms.coxeter_length(w), []).append(w)
    return [pair for ws in by_len.values() for pair in combinations(ws, 2)]


def test_transition_data_frozen():
    td = tr.transition_data(W6, (5, 5))
    assert td.v == perms.perm_from_text("214356")
    assert td.phi == (3, 4)
    assert [perms.perm_to_text(u) for u in td.Phi] == ["215346", "214536"]

    td = tr.transition_data(W7, (5, 5))
    assert td.v == perms.perm_from_text("4721563")
    assert td.phi == (1, 3, 4)
    assert [perms.perm_to_text(u) for u in td.Phi] == [
        "5721463",
        "4751263",
        "4725163",
    ]


def test_transition_target_cycles():
    td = tr.transition_data(W6, (5, 5))
    assert tr.transition_target(td, ()) == td.v
    assert tr.transition_target(td, (3,)) == td.Phi[0]
    assert tr.transition_target(td, (3, 4)) == perms.perm_from_text("215436")

    td = tr.transition_data(W7, (5, 5))
    # order inside U must not matter
    assert tr.transition_target(td, (3, 1)) == perms.perm_from_text("5741263")
    with pytest.raises(ValueError):
        tr.transition_target(td, (2,))


def test_transition_data_rejects_non_corner():
    with pytest.raises(ValueError):
        tr.transition_data((2, 1, 3), (2, 2))
    with pytest.raises(ValueError):
        tr.transition_data((1, 3, 2), (1, 1))


def test_targets_join_and_add_length():
    # every one-step target covers v, and multi-step targets are the
    # lattice joins of the one-step ones
    for w in perms.all_perms(4):
        lw = perms.coxeter_length(w)
        for corner in perms.lower_outside_corners(w):
            td = tr.transition_data(w, corner)
            a = corner[0]
            singles = {
                i: asm.from_permutation(perms.apply_transposition(td.v, i, a))
                for i in td.phi
            }
            for k in range(1, len(td.phi) + 1):
                for U in combinations(td.phi, k):
                    wU = tr.transition_target(td, U)
                    assert perms.coxeter_length(wU) == lw + k - 1
                    assert asm.from_permutation(wU) == asm.join(
                        singles[i] for i in U
                    )


def test_accessible_cells_examples():
    w1 = perms.perm_from_text("345612789")
    w2 = perms.perm_from_text("193245678")
    assert tr.accessible_cells(w1) == []
    assert tr.accessible_cells(w2) == [(2, 8), (3, 2)]
    assert tr.maximal_accessible_cell([w1, w2]) == (3, 2)


def test_no_accessible_cells_in_the_flat_pair():
    pair = [perms.perm_from_text("34512"), perms.perm_from_text("45123")]
    assert tr.maximal_accessible_cell(pair) is None
    # the diagrams still have southeast cells, just inaccessible ones
    assert tr.southeast_cells(pair) == [(2, 3), (3, 2)]


def test_dominant_permutations_have_no_accessible_cells():
    assert tr.maximal_accessible_cell([(3, 2, 1)]) is None
    assert tr.maximal_accessible_cell([(4, 3, 2, 1)]) is None


@given(st.permutations(list(range(1, 6))))
def test_accessible_cells_are_ranked_corners(word):
    w = tuple(word)
    corners = perms.lower_outside_corners(w)
    cells = tr.accessible_cells(w)
    assert set(cells) <= corners
    for a, b in corners:
        assert ((a, b) in cells) == (perms.rank_function(w, a, b) >= 1)
    top = tr.maximal_accessible_cell([w])
    if cells:
        a, b = top
        assert all(c <= a for c, _ in cells)
        assert all(d <= b for c, d in cells if c == a)
    else:
        assert top is None


def test_schubert_transition_all_s4_corners():
    for w in perms.all_perms(4):
        for corner in perms.lower_outside_corners(w):
            report = tr.verify_schubert_transition(w, corner)
            assert report["status"] == "pass", report


def test_schubert_transition_s6_sample():
    report = tr.verify_schubert_transition(W6, (5, 5))
    assert report["status"] == "pass", report


def test_grothendieck_transition():
    cases = [(w, c) for w in perms.all_perms(3) for c in perms.lower_outside_corners(w)]
    cases += [((2, 1, 4, 3), (3, 3)), ((1, 4, 3, 2), (3, 2))]
    for w, corner in cases:
        report = tr.verify_grothendieck_transition(w, corner)
        assert report["status"] == "pass", report


def test_hilbert_transition():
    for w, corner in [
        ((2, 1), (1, 1)),
        ((1, 3, 2), (2, 2)),
        ((2, 1, 4, 3), (3, 3)),
        ((1, 4, 3, 2), (3, 2)),
        (W6, (5, 5)),
    ]:
        report = tr.verify_hilbert_transition(w, corner)
        assert report["status"] == "pass", report


def test_link_decomposition_all_s4_corners():
    for w in perms.all_perms(4):
        for corner in perms.lower_outside_corners(w):
            report = tr.verify_link_decomposition(w, corner)
            assert report["status"] == "pass", report


def test_link_decomposition_s6_example():
    report = tr.verify_link_decomposition(W6, (5, 5))
    assert report["status"] == "pass", report


def test_tau_formula_all_s4_corners():
    for w in perms.all_perms(4):
        for corner in perms.lower_outside_corners(w):
            report = tr.verify_tau_formula(w, corner)
            assert report["status"] == "pass", report


def test_main_theorem_frozen_pair():
    report = tr.verify_main_theorem([(2, 1, 3), (1, 3, 2)])
    assert report["status"] == "pass"
    assert report["witness"]["components"] == 2

    ring = matrix_ring(3, "diag")
    gens = intersect_many([fulton_generators(w, ring) for w in [(2, 1, 3), (1, 3, 2)]])
    J = MonomialIdeal(ring, leading_monomials(gens))
    mults = {prime_names(ring, P): J.multiplicity_at(P) for P in J.minimal_primes()}
    assert mults == {("z[1,1]",): 2, ("z[2,2]",): 1}


def test_main_theorem_s3_singles_and_pairs():
    for w in perms.all_perms(3):
        assert tr.verify_main_theorem([w])["status"] == "pass"
    for pair in same_length_pairs(3):
        assert tr.verify_main_theorem(list(pair))["status"] == "pass"


def test_main_theorem_s4_triple():
    triple = [(2, 1, 4, 3), (1, 3, 4, 2), (3, 1, 2, 4)]
    assert len({perms.coxeter_length(w) for w in triple}) == 1
    assert tr.verify_main_theorem(triple)["status"] == "pass"


def test_main_theorem_input_validation():
    with pytest.raises(ValueError):
        tr.verify_main_theorem([(2, 1, 3), (2, 1, 3)])
    with pytest.raises(ValueError):
        tr.verify_main_theorem([(2, 1, 3), (3, 2, 1)])
    with pytest.raises(ValueError):
        tr.verify_main_theorem([(2, 1), (2, 1, 3)])


@pytest.mark.parametrize(
    "verify", [tr.verify_linearity, tr.verify_intersectNs, tr.verify_ycompat]
)
@pytest.mark.parametrize(
    "ws, message",
    [
        ([(1, 2, 3), (2, 1)], "permutations must share one matrix size"),
        ([(2, 1), (1, 2, 3)], "permutations must share one matrix size"),
        ([(2, 1), (2, 1)], "permutations must be distinct"),
    ],
)
def test_corner_verifiers_check_their_family_like_main(verify, ws, message):
    with pytest.raises(ValueError, match=message):
        tr.verify_main_theorem(ws)
    with pytest.raises(ValueError, match=message):
        verify(ws, (1, 1))


def test_partition_multiplicities():
    # distinct parts (3, 1) as adjacent transpositions in one matrix size;
    # local lengths at the diagonal primes come out as the conjugate (2, 1, 1)
    ws = [(1, 2, 4, 3), (2, 1, 3, 4)]
    assert tr.verify_main_theorem(ws)["status"] == "pass"
    ring = matrix_ring(4, "diag")
    gens = intersect_many([fulton_generators(w, ring) for w in ws])
    J = MonomialIdeal(ring, leading_monomials(gens))
    mults = {prime_names(ring, P): J.multiplicity_at(P) for P in J.minimal_primes()}
    assert mults == {
        ("z[1,1]",): 2,
        ("z[2,2]",): 1,
        ("z[3,3]",): 1,
    }


def test_theorem_b_small():
    for w in perms.all_perms(3):
        report = tr.verify_theorem_B(w)
        assert report["status"] == "pass", report
    report = tr.verify_theorem_B((2, 1, 4, 3))
    assert report["status"] == "pass"
    assert len(report["witness"]["crossing-sets"]) == 3


def test_theorem_b_dominant_and_identity():
    report = tr.verify_theorem_B((3, 2, 1))
    assert report["status"] == "pass"
    assert report["witness"]["crossing-sets"] == [["z[1,1]", "z[1,2]", "z[2,1]"]]
    assert tr.verify_theorem_B((1, 2, 3))["status"] == "pass"


def test_theorem_b_names_the_leads_that_are_not_squarefree(monkeypatch):
    def rigged(w, ring):
        return [parse_poly(ring, "z[1,1]^2*z[1,2]"), parse_poly(ring, "z[2,1]")]

    monkeypatch.setattr(tr, "fulton_generators", rigged)
    report = tr.verify_theorem_B((2, 1))
    assert report["status"] == "fail"
    assert report["witness"]["not-radical"] == ["z[1,1]^2*z[1,2]"]


def test_theorem_b_reads_the_initial_ideal_off_the_certified_minors(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("theorem B computed a Groebner basis")

    monkeypatch.setattr(tr, "buchberger", refuse)
    monkeypatch.setattr(tr, "initial_ideal", refuse)
    for w in perms.all_perms(4):
        report = tr.verify_theorem_B(w)
        assert report["status"] == "pass", report


@pytest.mark.parametrize("text", ["165432", "654321"])
def test_theorem_b_slowest_of_s6(text):
    """The two slowest members of S6 under theorem B, both dominated by
    divided differences and the multidegree's substitution."""
    w = perms.perm_from_text(text)
    report = tr.verify_theorem_B(w)
    assert report["status"] == "pass", report
    assert len(report["witness"]["crossing-sets"]) == len(
        bpd_mod.enumerate_bpds(w)
    )


def test_linearity_same_length_s4_pairs():
    for pair in same_length_pairs(4):
        for cell in tr.southeast_cells(pair):
            report = tr.verify_linearity(list(pair), cell)
            assert report["status"] == "pass", report


def test_intersect_ns_pairs():
    for pair in same_length_pairs(4)[:12]:
        for cell in tr.southeast_cells(pair):
            report = tr.verify_intersectNs(list(pair), cell)
            assert report["status"] == "pass", report
    with pytest.raises(ValueError):
        tr.verify_intersectNs([(2, 1, 4, 3), (1, 3, 4, 2)], (1, 1))


def test_ycompat():
    report = tr.verify_ycompat([W6], (5, 5))
    assert report["status"] == "pass", report
    for w in [(2, 1, 4, 3), (1, 4, 3, 2), (3, 1, 4, 2)]:
        cell = tr.maximal_accessible_cell([w])
        if cell is None:
            continue
        report = tr.verify_ycompat([w], cell)
        assert report["status"] == "pass", report
    pair = [(2, 1, 4, 3), (1, 3, 4, 2)]
    report = tr.verify_ycompat(pair, tr.southeast_cells(pair)[-1])
    assert report["status"] == "pass", report


def test_asm_lattice_identity_three_ways():
    for A in asm.all_asms(3):
        report = tr.verify_asm_lattice(A)
        assert report["status"] == "pass", report
    joined = asm.join(
        [asm.from_permutation((2, 1, 4, 3)), asm.from_permutation((1, 4, 2, 3))]
    )
    assert tr.verify_asm_lattice(joined)["status"] == "pass"


def test_report_shape_on_failure_free_runs():
    report = tr.verify_schubert_transition((2, 1), (1, 1))
    assert set(report) == {"case", "statement", "status", "witness"}
    assert report["case"] == "21@1,1"
    assert report["witness"] == {}
