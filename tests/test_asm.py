import itertools

import pytest
from hypothesis import given, strategies as st

from bumpless import asm as A
from bumpless import perms as P

EX_MINUS_ONE = ((0, 1, 0), (1, -1, 1), (0, 1, 0))

NON_EQUIDIM_4 = ((0, 0, 1, 0), (1, 0, -1, 1), (0, 1, 0, 0), (0, 0, 1, 0))

NON_CM_5 = (
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (1, 0, -1, 0, 1),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
)

JOIN_7 = (
    (0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1),
    (0, 1, 0, 0, 0, 0, 0),
    (1, 0, 0, -1, 1, 0, 0),
    (0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0),
    (0, 0, 1, 0, 0, 0, 0),
)


def brute_asms_3():
    """All 3x3 sign matrices passing validation, by raw filter."""
    found = []
    for entries in itertools.product((-1, 0, 1), repeat=9):
        rows = (entries[0:3], entries[3:6], entries[6:9])
        try:
            found.append(A.validate_asm(rows))
        except ValueError:
            pass
    return found


ASM4 = None


def asm4():
    global ASM4
    if ASM4 is None:
        ASM4 = list(A.all_asms(4))
    return ASM4


def test_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        A.validate_asm(((1, 0), (1, 0)))
    with pytest.raises(ValueError):
        A.validate_asm(((-1, 1), (1, 0)))
    with pytest.raises(ValueError):
        A.validate_asm(((2, -1), (-1, 2)))
    with pytest.raises(ValueError):
        A.validate_asm(((1, 0, 0), (0, 1, 0)))


def test_corner_sums_of_example_matrix():
    expected = (
        (0, 0, 0, 0),
        (0, 0, 1, 1),
        (0, 1, 1, 2),
        (0, 1, 2, 3),
    )
    assert A.corner_sums(EX_MINUS_ONE) == expected


def test_corner_sums_of_identity():
    M = A.corner_sums(A.from_permutation(P.identity(4)))
    for i in range(5):
        for j in range(5):
            assert M[i][j] == min(i, j)


def test_corner_sum_round_trip_asm4():
    for mat in asm4():
        assert A.asm_from_corner_sums(A.corner_sums(mat)) == mat


def test_asm_from_corner_sums_rejects_bad_grids():
    with pytest.raises(ValueError):
        A.asm_from_corner_sums(((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        A.asm_from_corner_sums(((0, 0, 0), (0, 2, 2), (0, 2, 2)))
    with pytest.raises(ValueError):
        A.asm_from_corner_sums(((0, 0, 0), (0, 1, 1), (0, 1, 1)))


def test_asm_counts_small():
    assert len(list(A.all_asms(1))) == 1
    assert len(list(A.all_asms(2))) == 2
    assert len(list(A.all_asms(3))) == 7
    assert len(asm4()) == 42


def test_all_asms_3_matches_brute_force():
    assert sorted(A.all_asms(3)) == sorted(brute_asms_3())


def tableau_leq(u, w):
    """Ehresmann's tableau criterion for Bruhat order: each sorted prefix
    of u is entrywise at most the sorted prefix of w of the same length."""
    return all(
        all(x <= y for x, y in zip(sorted(u[:k]), sorted(w[:k])))
        for k in range(1, len(u) + 1)
    )


def test_lattice_order_extends_bruhat_on_s3():
    for u in P.all_perms(3):
        for w in P.all_perms(3):
            assert A.asm_leq(A.from_permutation(u), A.from_permutation(w)) == tableau_leq(u, w)


def test_join_of_213_and_132_is_example_matrix():
    got = A.join([A.from_permutation((2, 1, 3)), A.from_permutation((1, 3, 2))])
    assert got == EX_MINUS_ONE


def test_join_7x7_display():
    v = A.from_permutation(P.perm_from_text("4721563"))
    pi = A.from_permutation(P.perm_from_text("1256347"))
    assert A.join([v, pi]) == JOIN_7


def test_join_meet_idempotent():
    for mat in asm4():
        assert A.join([mat, mat]) == mat
        assert A.meet([mat, mat]) == mat


def test_join_meet_reject_empty():
    with pytest.raises(ValueError):
        A.join([])
    with pytest.raises(ValueError):
        A.meet([])


@pytest.mark.parametrize("op", [A.join, A.meet])
def test_join_meet_reject_mixed_sizes(op):
    small = A.from_permutation((1, 2))
    big = A.from_permutation((1, 2, 3))
    for mats in ([small, big], [big, small]):
        with pytest.raises(ValueError, match="ASMs must share one matrix size"):
            op(mats)


ASM3 = list(A.all_asms(3))


@given(st.sampled_from(ASM3), st.sampled_from(ASM3))
def test_join_is_least_upper_bound(x, y):
    j = A.join([x, y])
    assert A.asm_leq(x, j) and A.asm_leq(y, j)
    for c in ASM3:
        if A.asm_leq(x, c) and A.asm_leq(y, c):
            assert A.asm_leq(j, c)


@given(st.sampled_from(ASM3), st.sampled_from(ASM3))
def test_meet_is_greatest_lower_bound(x, y):
    m = A.meet([x, y])
    assert A.asm_leq(m, x) and A.asm_leq(m, y)
    for c in ASM3:
        if A.asm_leq(c, x) and A.asm_leq(c, y):
            assert A.asm_leq(c, m)


@given(st.sampled_from(ASM3), st.sampled_from(ASM3), st.sampled_from(ASM3))
def test_join_meet_associative_commutative(x, y, z):
    assert A.join([x, A.join([y, z])]) == A.join([A.join([x, y]), z]) == A.join([x, y, z])
    assert A.meet([x, A.meet([y, z])]) == A.meet([A.meet([x, y]), z]) == A.meet([x, y, z])
    assert A.join([x, y]) == A.join([y, x])
    assert A.meet([x, y]) == A.meet([y, x])


def test_perm_set_of_example_matrix():
    assert A.perm_set(EX_MINUS_ONE) == {(2, 3, 1), (3, 1, 2)}
    assert A.degree_of(EX_MINUS_ONE) == 2
    assert A.is_equidimensional(EX_MINUS_ONE)


def test_perm_set_of_permutation_matrix():
    for w in P.all_perms(3):
        assert A.perm_set(A.from_permutation(w)) == {w}
        assert A.degree_of(A.from_permutation(w)) == P.coxeter_length(w)


def test_perm_set_non_equidimensional_example():
    got = A.perm_set(NON_EQUIDIM_4)
    assert got == {(4, 1, 2, 3), (3, 4, 1, 2)}
    assert {P.coxeter_length(w) for w in got} == {3, 4}
    assert not A.is_equidimensional(NON_EQUIDIM_4)
    assert A.degree_of(NON_EQUIDIM_4) == 3


def test_perm_set_intersection_example_5x5():
    got = A.perm_set(NON_CM_5)
    assert got == {(3, 4, 5, 1, 2), (4, 5, 1, 2, 3)}
    assert A.is_equidimensional(NON_CM_5)


def test_perm_set_elements_above_and_incomparable_asm4():
    for mat in asm4():
        ps = A.perm_set(mat)
        for w in ps:
            assert A.asm_leq(mat, A.from_permutation(w))
        for u, w in itertools.combinations(ps, 2):
            U, W = A.from_permutation(u), A.from_permutation(w)
            assert not A.asm_leq(U, W) and not A.asm_leq(W, U)


def scanned_perm_set(mat):
    """Reference: scan S_n for permutations above mat in the lattice order,
    and keep those with no smaller one below."""
    above = [
        w for w in P.all_perms(len(mat)) if A.asm_leq(mat, A.from_permutation(w))
    ]
    above.sort(key=P.coxeter_length)
    minimal = []
    for w in above:
        W = A.from_permutation(w)
        if not any(A.asm_leq(A.from_permutation(v), W) for v in minimal):
            minimal.append(w)
    return set(minimal)


def test_perm_set_matches_the_rank_matrix_scan_s4_s5():
    for n in (4, 5):
        for mat in A.all_asms(n):
            assert A.perm_set(mat) == scanned_perm_set(mat)


def test_essential_rank_cells_match_essential_set_on_permutations():
    for w in P.all_perms(4):
        cells = A.essential_rank_cells(A.from_permutation(w))
        assert {(i, j) for (i, j, _) in cells} == set(P.essential_set(w))
        for i, j, r in cells:
            assert r == P.rank_function(w, i, j)


def test_decomposition_of_bigrassmannian_matrix():
    pi = P.bigrassmannian(4, 2, 2, 1)
    got = A.bigrassmannian_join_decomposition(A.from_permutation(pi))
    assert got == {pi}


def test_decomposition_joins_back_example():
    parts = A.bigrassmannian_join_decomposition(EX_MINUS_ONE)
    assert A.join([A.from_permutation(w) for w in parts]) == EX_MINUS_ONE


def test_decomposition_joins_back_all_asm3_asm4():
    for mat in ASM3 + asm4():
        parts = A.bigrassmannian_join_decomposition(mat)
        if not parts:
            # only the bottom element (the identity matrix) is an empty join
            assert mat == A.from_permutation(P.identity(len(mat)))
            continue
        mats = [A.from_permutation(w) for w in parts]
        for m in mats:
            assert A.asm_leq(m, mat)
        assert A.join(mats) == mat


def all_bigrassmannians(n):
    out = []
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for r in range(0, min(a, b)):
                if a + b - r <= n:
                    out.append((P.bigrassmannian(n, a, b, r), (a, b), r))
    return out


def test_single_cell_comparison_against_full_rank_check():
    # a bigrassmannian sits below A exactly when A's corner sum at its
    # essential cell is at most its own rank there
    for mat in asm4():
        rk = A.corner_sums(mat)
        for pi, (a, b), r in all_bigrassmannians(4):
            full = A.asm_leq(A.from_permutation(pi), mat)
            assert full == (rk[a][b] <= r)


def test_lattice_closure_under_corner_sum_minima():
    for x in ASM3:
        for y in ASM3:
            A.join([x, y])
            A.meet([x, y])


def test_text_round_trip():
    txt = A.asm_to_text(EX_MINUS_ONE)
    assert A.asm_from_text(txt) == EX_MINUS_ONE
    with pytest.raises(ValueError):
        A.asm_from_text("0 1\nx 0")


@pytest.mark.parametrize("text", ["", "   ", "\n \n"])
def test_empty_matrix_text_is_rejected(text):
    with pytest.raises(ValueError, match="empty matrix text"):
        A.asm_from_text(text)
    # The 0 by 0 matrix itself stays a valid ASM.
    assert A.validate_asm([]) == ()
