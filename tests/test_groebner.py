import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bumpless import asm
from bumpless import groebner as gb
from bumpless import perms
from bumpless.rings import Poly, matrix_ring, parse_poly

R5_DIAG = matrix_ring(5, "diag")
R5_ANTI = matrix_ring(5, "antidiag")

# ascending in the respective order, the way bases are returned
LEADS_214365_DIAG = [
    "z[1,3]*z[2,1]^2*z[3,2]*z[3,4]*z[4,3]*z[5,5]",
    "z[1,2]*z[2,3]*z[3,1]*z[3,4]*z[4,3]*z[5,5]",
    "z[1,2]*z[2,1]*z[3,4]*z[4,3]*z[5,5]",
    "z[1,2]*z[2,1]*z[3,3]",
    "z[1,1]",
]

LEADS_214365_COL = [
    "z[1,2]^2*z[2,3]*z[3,1]*z[3,4]*z[4,3]*z[5,5]",
    "z[1,3]*z[2,1]*z[3,2]*z[3,4]*z[4,3]*z[5,5]",
    "z[1,2]*z[2,1]*z[3,4]*z[4,3]*z[5,5]",
    "z[1,2]*z[2,1]*z[3,3]",
    "z[1,1]",
]


def z(ring, i, j):
    return Poly.variable(ring, f"z[{i},{j}]")


def test_minor_values_and_validation():
    ring = matrix_ring(3, "diag")
    assert gb.minor(ring, (1,), (2,)) == z(ring, 1, 2)
    d = gb.minor(ring, (1, 2), (1, 2))
    assert d == z(ring, 1, 1) * z(ring, 2, 2) - z(ring, 1, 2) * z(ring, 2, 1)
    assert gb.minor(ring, (), ()) == 1
    with pytest.raises(ValueError):
        gb.minor(ring, (1, 2), (1,))
    with pytest.raises(ValueError):
        gb.minor(ring, (2, 1), (1, 2))


def test_minor_matches_cofactor_recursion():
    ring = matrix_ring(4, "diag")
    d = gb.minor(ring, (1, 2, 3), (2, 3, 4))
    expand = (
        z(ring, 1, 2) * gb.minor(ring, (2, 3), (3, 4))
        - z(ring, 1, 3) * gb.minor(ring, (2, 3), (2, 4))
        + z(ring, 1, 4) * gb.minor(ring, (2, 3), (2, 3))
    )
    assert d == expand


def test_fulton_generators_214365():
    ring = matrix_ring(6, "diag")
    w = perms.perm_from_text("214365")
    gens = gb.fulton_generators(w, ring)
    assert [g.degree() for g in gens] == [1, 3, 5]
    assert gens[0] == z(ring, 1, 1)
    assert gens[1] == gb.minor(ring, (1, 2, 3), (1, 2, 3))
    assert gens[2] == gb.minor(ring, (1, 2, 3, 4, 5), (1, 2, 3, 4, 5))


def test_fulton_generators_2143675():
    ring = matrix_ring(7, "diag")
    w = perms.perm_from_text("2143675")
    assert perms.essential_set(w) == frozenset({(1, 1), (3, 3), (6, 5)})
    gens = gb.fulton_generators(w, ring)
    assert sorted(g.degree() for g in gens) == [1, 3, 5, 5, 5, 5, 5, 5]


def test_fulton_generators_identity_is_empty():
    assert gb.fulton_generators(perms.identity(4), matrix_ring(4, "diag")) == []


def test_asm_generators_match_example():
    ring = matrix_ring(3, "antidiag")
    A = asm.validate_asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]])
    gens = gb.asm_generators(A, ring)
    target = [z(ring, 1, 1), z(ring, 1, 2) * z(ring, 2, 1)]
    assert gb.ideal_equal(gens, target, use_cache=False)


def test_asm_generators_sum_rule():
    # the example matrix is the lattice join of 213 and 132, and its ideal
    # is the sum of their ideals
    ring = matrix_ring(3, "antidiag")
    A = asm.join([asm.from_permutation((2, 1, 3)), asm.from_permutation((1, 3, 2))])
    total = gb.fulton_generators((2, 1, 3), ring) + gb.fulton_generators(
        (1, 3, 2), ring
    )
    assert gb.ideal_equal(gb.asm_generators(A, ring), total, use_cache=False)


def test_asm_generators_equal_all_cell_conditions():
    # dropping implied rank cells must not change the ideal
    ring = matrix_ring(3, "antidiag")
    for A in asm.all_asms(3):
        rk = asm.corner_sums(A)
        full = []
        for i in range(1, 4):
            for j in range(1, 4):
                r = rk[i][j]
                if r < min(i, j):
                    full.extend(gb.northwest_minors(ring, i, j, r + 1))
        kept = gb.asm_generators(A, ring)
        assert gb.ideal_equal(kept, full, use_cache=False) if full else not kept


def test_reduced_basis_21543():
    w = perms.perm_from_text("21543")
    gens = gb.fulton_generators(w, R5_DIAG)
    assert sorted(g.degree() for g in gens) == [1, 3, 3, 3, 3, 3, 3, 3]
    basis = gb.buchberger(gens, use_cache=False)
    assert len(basis) == 9
    assert sorted(p.degree() for p in basis) == [1, 3, 3, 3, 3, 3, 3, 3, 5]
    assert gb.is_groebner(basis)
    assert not gb.is_groebner(gens)


def test_reduced_basis_214365_diagonal_and_column():
    w = perms.perm_from_text("214365")
    for spec, leads in [("diag", LEADS_214365_DIAG), ("col-lex", LEADS_214365_COL)]:
        ring = matrix_ring(6, spec)
        basis = gb.buchberger(gb.fulton_generators(w, ring), use_cache=False)
        got = [ring.monomial_text(m) for m in gb.leading_monomials(basis)]
        assert got == leads, spec


def test_buchberger_empty_and_unit():
    assert gb.buchberger([], use_cache=False) == []
    ring = matrix_ring(2, "diag")
    basis = gb.buchberger([z(ring, 1, 1), z(ring, 1, 1) + 1], use_cache=False)
    assert [p.to_text() for p in basis] == ["1"]


def test_buchberger_output_is_verified_groebner_s4():
    ring = matrix_ring(4, "diag")
    for w in perms.all_perms(4):
        gens = gb.fulton_generators(w, ring)
        basis = gb.buchberger(gens, use_cache=False)
        if not gens:
            assert basis == []
            continue
        assert gb.is_groebner(basis)
        for f in gens:
            assert gb.in_ideal(f, basis)
        for k, p in enumerate(basis):
            rest = basis[:k] + basis[k + 1 :]
            assert gb.normal_form(p, rest) == p


def test_antidiagonal_fulton_generators_are_groebner_s4():
    ring = matrix_ring(4, "antidiag")
    for w in perms.all_perms(4):
        assert gb.is_groebner(gb.fulton_generators(w, ring))


def test_normal_form_is_exact():
    ring = matrix_ring(2, "diag")
    f = 2 * z(ring, 1, 1) + 1
    nf = gb.normal_form(f, [3 * z(ring, 1, 1)])
    assert nf == Poly.constant(ring, 1)
    g = z(ring, 1, 1) * z(ring, 2, 2)
    nf2 = gb.normal_form(g, [2 * z(ring, 1, 1) - z(ring, 1, 2)])
    assert nf2 == Fraction(1, 2) * z(ring, 1, 2) * z(ring, 2, 2)


def test_initial_ideal_monomials():
    w = perms.perm_from_text("214365")
    ring = matrix_ring(6, "diag")
    leads = gb.initial_ideal(gb.fulton_generators(w, ring), use_cache=False)
    assert [ring.monomial_text(m) for m in leads] == LEADS_214365_DIAG


def test_ideal_equal_distinguishes():
    ring = matrix_ring(2, "antidiag")
    det = gb.minor(ring, (1, 2), (1, 2))
    assert gb.ideal_equal([det, z(ring, 1, 1)],
                          [z(ring, 1, 1), z(ring, 1, 2) * z(ring, 2, 1)],
                          use_cache=False)
    assert not gb.ideal_equal([det], [z(ring, 1, 1)], use_cache=False)


def test_intersection_reproduces_lattice_example():
    ring = matrix_ring(3, "antidiag")
    a = gb.fulton_generators((2, 3, 1), ring)
    b = gb.fulton_generators((3, 1, 2), ring)
    meet = gb.intersect_ideals(a, b, use_cache=False)
    want = [z(ring, 1, 1), z(ring, 1, 2) * z(ring, 2, 1)]
    assert gb.ideal_equal(meet, want, use_cache=False)
    flipped = gb.intersect_ideals(b, a, use_cache=False)
    assert gb.ideal_equal(meet, flipped, use_cache=False)


def test_intersection_edge_cases():
    ring = matrix_ring(2, "diag")
    gens = [z(ring, 1, 1)]
    assert gb.intersect_ideals(gens, [], use_cache=False) == []
    same = gb.intersect_ideals(gens, gens, use_cache=False)
    assert gb.ideal_equal(same, gens, use_cache=False)
    whole = gb.intersect_ideals(gens, [Poly.constant(ring, 1)], use_cache=False)
    assert gb.ideal_equal(whole, gens, use_cache=False)
    with pytest.raises(ValueError):
        gb.intersect_many([])


def test_elimination_ring_avoids_collisions():
    inner = matrix_ring(2, "diag")
    ext = gb.elimination_ring(inner)
    assert ext.names[0] == "t"
    ext2 = gb.elimination_ring(ext)
    assert ext2.names[0] == "tt"
    top = Poly.variable(ext, "t")
    big = Poly(ext, {ext.encode({nm: 9 for nm in inner.names}): 1})
    assert top.leading_monomial() > big.leading_monomial()


def test_cell_split_example():
    ring = matrix_ring(6, "tau:5,5")
    w = perms.perm_from_text("214365")
    basis = gb.buchberger(gb.fulton_generators(w, ring), use_cache=False)
    assert gb.is_linear_in_cell(basis, (5, 5))
    C, N = gb.cell_split(basis, (5, 5))
    d3 = gb.minor(ring, (1, 2, 3), (1, 2, 3))
    d4 = gb.minor(ring, (1, 2, 3, 4), (1, 2, 3, 4))
    assert gb.ideal_equal(C, [z(ring, 1, 1), d3, d4], use_cache=False)
    assert gb.ideal_equal(N, [z(ring, 1, 1), d3], use_cache=False)


def test_cell_split_rejects_quadratic():
    ring = matrix_ring(2, "diag")
    y = z(ring, 2, 2)
    assert gb.cell_degrees([y * y + z(ring, 1, 1), y], (2, 2)) == [2, 1]
    assert not gb.is_linear_in_cell([y * y], (2, 2))
    with pytest.raises(ValueError):
        gb.cell_split([y * y + z(ring, 1, 1)], (2, 2))


def test_cell_split_unit_cofactor():
    ring = matrix_ring(2, "tau:1,1")
    C, N = gb.cell_split([z(ring, 1, 1)], (1, 1))
    assert C == [Poly.constant(ring, 1)]
    assert N == []


def test_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("BUMPLESS_CACHE_DIR", str(tmp_path))
    ring = matrix_ring(5, "diag")
    gens = gb.fulton_generators(perms.perm_from_text("21543"), ring)
    first = gb.buchberger(gens, use_cache=True)
    files = list(tmp_path.glob("gb-*.json"))
    assert len(files) == 1
    second = gb.buchberger(gens, use_cache=True)
    assert [p.terms for p in first] == [p.terms for p in second]
    files[0].write_text("not json")
    third = gb.buchberger(gens, use_cache=True)
    assert [p.terms for p in first] == [p.terms for p in third]


mono2 = st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4)
poly2 = st.lists(
    st.tuples(mono2, st.integers(min_value=-3, max_value=3)),
    min_size=1,
    max_size=3,
)


@settings(max_examples=40, deadline=None)
@given(st.lists(poly2, min_size=1, max_size=3))
def test_buchberger_random_ideals(raw):
    ring = matrix_ring(2, "diag")
    gens = [Poly(ring, [(ring.encode(v), c) for v, c in terms]) for terms in raw]
    gens = [g for g in gens if not g.is_zero]
    basis = gb.buchberger(gens, use_cache=False)
    if not gens:
        assert basis == []
        return
    assert gb.is_groebner(basis)
    for f in gens:
        assert gb.in_ideal(f, basis)


def test_asm_ideal_is_intersection_of_its_permutations():
    ring = matrix_ring(3, "antidiag")
    A = asm.validate_asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]])
    pieces = [gb.fulton_generators(u, ring) for u in sorted(asm.perm_set(A))]
    meet = gb.intersect_many(pieces, use_cache=False)
    assert gb.ideal_equal(meet, gb.asm_generators(A, ring), use_cache=False)


@pytest.mark.parametrize(
    "entry",
    [
        ["z[9,9] +"],
        {"basis": []},
        [[]],
        [[[1, 0]]],
        [[[1, 99, 1]]],
        [[[1, 3, 1, 3, 1]]],
        [[[1, 0, 32768]]],
        [[[0, 0, 1]]],
        [[[1.5, 0, 1]]],
        [[[True, 0, 1]]],
    ],
)
def test_undecodable_cache_entry_is_recomputed(entry, tmp_path, monkeypatch):
    monkeypatch.setenv("BUMPLESS_CACHE_DIR", str(tmp_path))
    ring = matrix_ring(4, "diag")
    gens = gb.fulton_generators((2, 1, 4, 3), ring)
    expected = gb.buchberger(gens, use_cache=False)
    assert gb.buchberger(gens) == expected
    [path] = tmp_path.glob("gb-*.json")
    stored = path.read_text()
    path.write_text(json.dumps(entry))
    assert gb.buchberger(gens) == expected
    assert path.read_text() == stored
    assert gb.buchberger(gens) == expected
