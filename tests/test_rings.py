from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bumpless.rings import (
    Poly,
    Ring,
    antidiagonal_layout,
    cell_first_layout,
    column_layout,
    diagonal_layout,
    exact_divide,
    layout_from_spec,
    lex_ring,
    matrix_names,
    matrix_ring,
    parse_poly,
    refined_by_cell,
)

R_DIAG = matrix_ring(3, "diag")
R_ANTI = matrix_ring(3, "antidiag")
R_REFINED = Ring(matrix_names(3), refined_by_cell(3, (2, 2), diagonal_layout(3)))

exps3 = st.lists(st.integers(min_value=0, max_value=5), min_size=9, max_size=9)


def zvar(ring, i, j):
    return Poly.variable(ring, f"z[{i},{j}]")


def det2(ring):
    return zvar(ring, 1, 1) * zvar(ring, 2, 2) - zvar(ring, 1, 2) * zvar(ring, 2, 1)


def test_layout_constructors_are_permutations_with_repeats():
    assert sorted(diagonal_layout(3)) == list(range(9))
    assert sorted(antidiagonal_layout(3)) == list(range(9))
    assert sorted(column_layout(3)) == list(range(9))
    assert antidiagonal_layout(2) == (1, 0, 3, 2)
    assert column_layout(2) == (0, 2, 1, 3)
    assert cell_first_layout(2, (2, 1)) == (2, 1, 0, 3)
    assert refined_by_cell(2, (1, 1), (0, 1, 2, 3)) == (0, 0, 1, 2, 3)


def test_layout_from_spec_matches_constructors():
    assert layout_from_spec(3, "diag") == diagonal_layout(3)
    assert layout_from_spec(3, "antidiag") == antidiagonal_layout(3)
    assert layout_from_spec(3, "col-lex") == column_layout(3)
    assert layout_from_spec(3, "tau:2,2") == cell_first_layout(3, (2, 2))
    assert layout_from_spec(3, "yref:2,2:antidiag") == refined_by_cell(
        3, (2, 2), antidiagonal_layout(3)
    )
    with pytest.raises(ValueError):
        layout_from_spec(3, "grevlex")
    with pytest.raises(ValueError):
        layout_from_spec(3, "yref:2,2")


def test_ring_rejects_incomplete_layout():
    with pytest.raises(ValueError):
        Ring(("a", "b"), (0,))
    with pytest.raises(ValueError):
        Ring(("a", "a"), (0, 1))


@given(exps3)
def test_encode_decode_round_trip(vec):
    for ring in (R_DIAG, R_ANTI, R_REFINED):
        assert ring.decode(ring.encode(vec)) == tuple(vec)


@given(exps3, exps3)
def test_divides_matches_componentwise(u, v):
    for ring in (R_DIAG, R_REFINED):
        a, b = ring.encode(u), ring.encode(v)
        assert ring.divides(a, b) == all(x <= y for x, y in zip(u, v))


@given(exps3, exps3)
def test_lcm_gcd_match_componentwise(u, v):
    for ring in (R_DIAG, R_REFINED):
        a, b = ring.encode(u), ring.encode(v)
        assert ring.decode(ring.lcm(a, b)) == tuple(map(max, u, v))
        assert ring.decode(ring.gcd(a, b)) == tuple(map(min, u, v))


@given(exps3, exps3, exps3)
def test_order_is_multiplicative(u, v, w):
    for ring in (R_DIAG, R_ANTI, R_REFINED):
        a, b, c = ring.encode(u), ring.encode(v), ring.encode(w)
        if a < b:
            assert a + c < b + c


def test_leading_terms_of_the_two_by_two_determinant():
    lead_diag = det2(R_DIAG).leading_monomial()
    assert R_DIAG.monomial_text(lead_diag) == "z[1,1]*z[2,2]"
    lead_anti = det2(R_ANTI).leading_monomial()
    assert R_ANTI.monomial_text(lead_anti) == "z[1,2]*z[2,1]"


def test_refined_order_puts_cell_degree_first():
    y = R_REFINED.variable("z[2,2]")
    other = R_REFINED.encode({"z[1,1]": 5, "z[1,2]": 5})
    assert y > other
    assert R_REFINED.degree(y) == 1


def test_cell_first_order_is_an_elimination_order():
    ring = matrix_ring(3, "tau:2,2")
    y = ring.variable("z[2,2]")
    big = ring.encode({nm: 7 for nm in ring.names if nm != "z[2,2]"})
    assert y > big


def test_quotient_and_one():
    ring = R_DIAG
    a = ring.encode({"z[1,1]": 2, "z[2,2]": 1})
    b = ring.encode({"z[1,1]": 1})
    assert ring.divides(b, a)
    assert ring.decode(ring.quotient(a, b)) == ring.decode(
        ring.encode({"z[1,1]": 1, "z[2,2]": 1})
    )
    assert ring.one == 0
    assert ring.degree(ring.one) == 0


small_polys = st.lists(
    st.tuples(exps3, st.integers(min_value=-4, max_value=4)),
    min_size=0,
    max_size=4,
).map(lambda pairs: Poly(R_DIAG, [(R_DIAG.encode(v), c) for v, c in pairs]))


@settings(max_examples=60)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + 0 == f
    assert f * 1 == f
    assert f - f == Poly.zero(R_DIAG)


@settings(max_examples=40)
@given(small_polys, small_polys)
def test_exact_division_inverts_multiplication(f, g):
    if g.is_zero:
        with pytest.raises(ZeroDivisionError):
            exact_divide(f, g)
    else:
        assert exact_divide(f * g, g) == f


def test_exact_divide_rejects_inexact():
    f = zvar(R_DIAG, 1, 1) + 1
    g = zvar(R_DIAG, 1, 2)
    with pytest.raises(ValueError):
        exact_divide(f, g)


def test_pow_and_scalars():
    x = zvar(R_DIAG, 1, 1)
    y = zvar(R_DIAG, 2, 2)
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert (x + y) ** 0 == 1
    assert 3 * x - x == 2 * x
    assert Fraction(1, 2) * (2 * x) == x


def test_normalized_clears_content_and_sign():
    x = zvar(R_DIAG, 1, 1)
    y = zvar(R_DIAG, 2, 2)
    f = -4 * x * y + 6 * y
    assert f.normalized() == 2 * x * y - 3 * y
    g = Fraction(1, 3) * x + Fraction(1, 2)
    assert g.normalized() == 2 * x + 3
    assert Poly.zero(R_DIAG).normalized().is_zero


def test_degree_and_sorted_terms():
    f = det2(R_DIAG)
    assert f.degree() == 2
    assert Poly.zero(R_DIAG).degree() == -1
    terms = f.sorted_terms()
    assert [c for _, c in terms] == [1, -1]
    assert terms[0][0] > terms[1][0]


def test_convert_between_orders_preserves_values():
    f = det2(R_DIAG) * det2(R_DIAG) + 7 * zvar(R_DIAG, 3, 3)
    g = f.convert(R_ANTI)
    assert g.ring == R_ANTI
    assert g.convert(R_DIAG) == f
    assert f.leading_monomial() != g.leading_monomial()
    assert f.to_text() != g.to_text()


def test_map_variables_substitution():
    xy = lex_ring(("x1", "x2"))
    f = Poly.variable(xy, "x1") * Poly.variable(xy, "x2") + Poly.variable(xy, "x1")
    flip = f.map_variables(xy, {"x2": -Poly.variable(xy, "x2")})
    assert flip == -Poly.variable(xy, "x1") * Poly.variable(xy, "x2") + Poly.variable(
        xy, "x1"
    )
    num = f.map_variables(xy, {"x1": 2, "x2": 3})
    assert num == Poly.constant(xy, 8)


def test_text_round_trip_and_format():
    f = det2(R_DIAG)
    assert f.to_text() == "z[1,1]*z[2,2] - z[1,2]*z[2,1]"
    assert parse_poly(R_DIAG, f.to_text()) == f
    g = parse_poly(R_DIAG, "-z[1,1]^2 + 3*z[2,2] - 5")
    assert g.to_text() == "-z[1,1]^2 + 3*z[2,2] - 5"
    assert parse_poly(R_DIAG, "(z[1,1] + 1)*(z[1,1] - 1)").to_text() == "z[1,1]^2 - 1"
    assert parse_poly(R_DIAG, "z[1,1]/2").to_text() == "1/2*z[1,1]"
    assert parse_poly(R_DIAG, "0").is_zero


def test_parse_rejects_garbage():
    for bad in (
        "",
        "z[1,1] +",
        "w[1,1]",
        "z[1,1] @ 2",
        "(z[1,1]",
        "2 2",
        "z[1,1]^32768",
        "z[1,1]^20000*z[1,1]^20000",
        "(z[1,1]^200)^200",
    ):
        with pytest.raises(ValueError):
            parse_poly(R_DIAG, bad)
