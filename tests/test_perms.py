import itertools

import pytest
from hypothesis import given, strategies as st

from bumpless import asm as A
from bumpless import perms as P
from bumpless import transition as tr


def brute_inversions(w):
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])


def bruhat_leq(u, w):
    """Bruhat order as the lattice order of permutation matrices."""
    return A.asm_leq(A.from_permutation(u), A.from_permutation(w))


def bruhat_closure_oracle(n):
    """Transitive closure of length-increasing transposition covers, by BFS."""
    pairs = set()
    elems = list(P.all_perms(n))
    for w in elems:
        reach = {w}
        frontier = {w}
        while frontier:
            nxt = set()
            for u in frontier:
                for v in P.bruhat_covers(u):
                    if v not in reach:
                        reach.add(v)
                        nxt.add(v)
            frontier = nxt
        for v in reach:
            pairs.add((w, v))
    return pairs


perm_strategy = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


def test_validate_rejects_non_bijections():
    with pytest.raises(ValueError):
        P.validate_perm((1, 1, 2))
    with pytest.raises(ValueError):
        P.validate_perm((0, 1))


def test_length_identity_is_zero():
    for n in range(1, 7):
        assert P.coxeter_length(P.identity(n)) == 0


def test_length_of_4721653_is_12():
    assert P.coxeter_length(P.perm_from_text("4721653")) == 12


def test_length_of_321():
    assert P.coxeter_length((3, 2, 1)) == 3 == brute_inversions((3, 2, 1))


@given(perm_strategy)
def test_length_matches_brute_inversions_and_diagram(w):
    assert P.coxeter_length(w) == brute_inversions(w) == len(P.rothe_diagram(w))


@given(perm_strategy)
def test_inverse_involutive(w):
    assert P.inverse(P.inverse(w)) == w
    assert P.compose(w, P.inverse(w)) == P.identity(len(w))


def test_rank_function_identity_is_min():
    w = P.identity(5)
    for i in range(6):
        for j in range(6):
            assert P.rank_function(w, i, j) == min(i, j)


def test_rank_function_4721653_at_5_5():
    assert P.rank_function(P.perm_from_text("4721653"), 5, 5) == 3


def test_rank_function_zero_row_and_column():
    w = (2, 3, 1)
    assert P.rank_function(w, 0, 3) == 0
    assert P.rank_function(w, 3, 0) == 0
    with pytest.raises(ValueError):
        P.rank_function(w, 4, 1)


def test_rank_matrix_231():
    # frozen from a direct count of {(i,j) in [a]x[b] : w(i)=j}
    w = (2, 3, 1)
    expected = (
        (0, 0, 0, 0),
        (0, 0, 1, 1),
        (0, 0, 1, 2),
        (0, 1, 2, 3),
    )
    ranks = A.corner_sums(A.from_permutation(w))
    assert ranks == expected
    for a in range(4):
        for b in range(4):
            assert ranks[a][b] == P.rank_function(w, a, b)


def test_rothe_diagram_and_essential_set_4721653():
    w = P.perm_from_text("4721653")
    ess = {(2, 3), (2, 6), (3, 1), (5, 5), (6, 3)}
    extra = {(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 5), (5, 3)}
    assert P.essential_set(w) == ess
    assert P.rothe_diagram(w) == ess | extra
    assert P.lower_outside_corners(w) == {(2, 6), (5, 5), (6, 3)}


def test_identity_has_empty_diagrams():
    w = P.identity(4)
    assert P.rothe_diagram(w) == frozenset()
    assert P.essential_set(w) == frozenset()
    assert P.lower_outside_corners(w) == frozenset()


@given(perm_strategy)
def test_corners_are_essential(w):
    assert P.lower_outside_corners(w) <= P.essential_set(w) <= P.rothe_diagram(w)


def test_bruhat_examples():
    assert bruhat_leq((2, 3, 1), (3, 2, 1))
    assert bruhat_leq((3, 1, 2), (3, 2, 1))
    assert not bruhat_leq((2, 3, 1), (3, 1, 2))
    for w in P.all_perms(3):
        assert bruhat_leq(P.identity(3), w)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_agrees_with_cover_closure(n):
    """The lattice order of ASMs, on permutation matrices, is the closure
    of the Bruhat covers."""
    oracle = bruhat_closure_oracle(n)
    for u in P.all_perms(n):
        for w in P.all_perms(n):
            assert bruhat_leq(u, w) == ((u, w) in oracle)


def test_bruhat_is_partial_order_on_s4():
    elems = list(P.all_perms(4))
    for u in elems:
        assert bruhat_leq(u, u)
    for u, w in itertools.permutations(elems, 2):
        if bruhat_leq(u, w) and bruhat_leq(w, u):
            pytest.fail(f"antisymmetry broken at {u}, {w}")


def test_bigrassmannian_examples():
    assert P.bigrassmannian(7, 4, 4, 2) == P.perm_from_text("1256347")
    assert P.bigrassmannian(3, 1, 1, 0) == (2, 1, 3)


def test_bigrassmannian_boundary_case():
    # r = min(a,b) - 1 with a + b - r = n exactly
    n, a, b = 5, 3, 4
    r = min(a, b) - 1
    assert a + b - r == n
    w = P.bigrassmannian(n, a, b, r)
    assert sorted(w) == list(range(1, n + 1))


def test_bigrassmannian_essential_cell_and_rank():
    for n in range(2, 6):
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                for r in range(0, min(a, b)):
                    if a + b - r > n:
                        continue
                    pi = P.bigrassmannian(n, a, b, r)
                    assert P.essential_set(pi) == {(a, b)}
                    assert P.rank_function(pi, a, b) == r


def test_bigrassmannian_rejects_bad_parameters():
    with pytest.raises(ValueError):
        P.bigrassmannian(3, 2, 2, 2)
    with pytest.raises(ValueError):
        P.bigrassmannian(3, 3, 3, 0)


def test_apply_transposition_example():
    w = P.perm_from_text("4721653")
    assert P.apply_transposition(w, 5, 6) == P.perm_from_text("4721563")


@given(perm_strategy, st.data())
def test_transposition_is_involutive(w, data):
    n = len(w)
    if n < 2:
        return
    i = data.draw(st.integers(1, n - 1))
    j = data.draw(st.integers(i + 1, n))
    assert P.apply_transposition(P.apply_transposition(w, i, j), i, j) == w


def covers_by_length(w):
    """Every w·t_{i,j} whose length is one more than w's."""
    target = P.coxeter_length(w) + 1
    return {
        v
        for i, j in itertools.combinations(range(1, len(w) + 1), 2)
        if P.coxeter_length(v := P.apply_transposition(w, i, j)) == target
    }


@pytest.mark.parametrize("n", range(1, 7))
def test_covers_follow_the_cover_rule(n):
    for w in P.all_perms(n):
        assert P.bruhat_covers(w) == covers_by_length(w), w
        # The exchange rows of a corner are the rows above it whose swap
        # with the corner row is a cover of the shorter permutation v.
        for a, b in P.lower_outside_corners(w):
            v = P.apply_transposition(w, a, P.inverse(w)[b - 1])
            up = covers_by_length(v)
            phi = tuple(i for i in range(1, a) if P.apply_transposition(v, i, a) in up)
            Phi = tuple(P.apply_transposition(v, i, a) for i in phi)
            expected = tr.TransitionData(w, (a, b), v, phi, Phi)
            assert tr.transition_data(w, (a, b)) == expected


def test_covers_of_identity_s3():
    assert P.bruhat_covers(P.identity(3)) == {(2, 1, 3), (1, 3, 2)}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_covers_increase_length_by_one(n):
    for w in P.all_perms(n):
        lw = P.coxeter_length(w)
        for v in P.bruhat_covers(w):
            assert P.coxeter_length(v) == lw + 1
            assert bruhat_leq(w, v)


def test_all_perms_is_lexicographic():
    got = list(P.all_perms(3))
    assert got == sorted(got)
    assert len(got) == 6


def test_text_round_trip():
    w = P.perm_from_text("4721653")
    assert P.perm_to_text(w) == "4721653"
    big = tuple([10, 1, 2, 3, 4, 5, 6, 7, 8, 9])
    assert P.perm_from_text(P.perm_to_text(big)) == big
    with pytest.raises(ValueError):
        P.perm_from_text("44")
    with pytest.raises(ValueError):
        P.perm_from_text("")
