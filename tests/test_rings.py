import hashlib
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bumpless.rings import (
    SLOT_CAP,
    Poly,
    Ring,
    exact_divide,
    lex_ring,
    matrix_names,
    matrix_ring,
    parse_poly,
)

R_DIAG = matrix_ring(3, "diag")
R_ANTI = matrix_ring(3, "antidiag")
R_REFINED = matrix_ring(3, "yref:2,2:diag")
BASES = ("diag", "antidiag", "col-lex")

exps3 = st.lists(st.integers(min_value=0, max_value=5), min_size=9, max_size=9)


def zvar(ring, i, j):
    return Poly.variable(ring, f"z[{i},{j}]")


def det2(ring):
    return zvar(ring, 1, 1) * zvar(ring, 2, 2) - zvar(ring, 1, 2) * zvar(ring, 2, 1)


def test_layouts_read_the_cells_in_order():
    for base in BASES:
        assert sorted(matrix_ring(3, base).layout) == list(range(9))
    assert matrix_ring(3, "diag").layout == tuple(range(9))
    assert matrix_ring(2, "antidiag").layout == (1, 0, 3, 2)
    assert matrix_ring(2, "col-lex").layout == (0, 2, 1, 3)
    assert matrix_ring(2, "yref:2,1:antidiag").layout == (2, 1, 0, 3)
    assert matrix_ring(2, "yref:1,1:diag").layout == (0, 1, 2, 3)
    assert matrix_ring(2, "yref:2,2:col-lex").layout == (3, 0, 2, 1)
    assert matrix_ring(3, "yref:2,2:antidiag").layout == (4, 2, 1, 0, 5, 3, 8, 7, 6)


def test_order_names_are_checked():
    with pytest.raises(ValueError):
        matrix_ring(3, "grevlex")
    with pytest.raises(ValueError, match="unknown order 'tau:2,2'"):
        matrix_ring(3, "tau:2,2")
    with pytest.raises(ValueError, match="missing its base order"):
        matrix_ring(3, "yref:2,2")
    with pytest.raises(ValueError, match="expected a cell like 3,2"):
        matrix_ring(3, "yref:2;2:bogus")
    with pytest.raises(ValueError, match=r"cell \(3, 3\) outside a 2 by 2 grid"):
        matrix_ring(2, "yref:3,3:diag")
    with pytest.raises(ValueError, match=r"cell \(0, 1\) outside a 2 by 2 grid"):
        matrix_ring(2, "yref:0,1:diag")


@pytest.mark.parametrize("base", ["tau:2,2", "yref:1,1:diag", "grevlex", ""])
def test_yref_base_is_one_of_the_three_plain_orders(base):
    with pytest.raises(ValueError, match="yref base must be diag, antidiag or col-lex"):
        matrix_ring(3, f"yref:2,2:{base}")
    with pytest.raises(ValueError, match="yref base must be"):
        matrix_ring(2, f"yref:3,3:{base}")


def test_deeply_nested_yref_is_rejected_without_recursing():
    with pytest.raises(ValueError, match="yref base must be"):
        matrix_ring(3, "yref:1,1:" * 3000 + "diag")


def test_every_small_matrix_ring_keeps_its_names_and_layout():
    """Every order name at every size up to 7 builds the ring it always
    has: the names and layouts of all 441 rings, hashed in one digest."""
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 8):
        cells = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
        specs = list(BASES) + [f"yref:{a},{b}:{base}" for a, b in cells for base in BASES]
        for spec in specs:
            R = matrix_ring(n, spec)
            digest.update(f"{n} {spec} {R.names} {R.layout}\n".encode())
            count += 1
    assert count == 441
    assert digest.hexdigest() == (
        "21613041585ac1301d48d8a558eac5537d0f1aa85d7c78ef66d0483909f4bc43"
    )


def test_ring_rejects_a_repeated_slot():
    with pytest.raises(ValueError, match="layout must be a permutation"):
        Ring(("a", "b"), (0, 0, 1))
    with pytest.raises(ValueError, match="layout must be a permutation"):
        Ring(matrix_names(2), (3,) + matrix_ring(2, "diag").layout)


@settings(max_examples=40)
@given(st.data())
def test_refined_order_is_the_cell_then_the_base(data):
    """yref:a,b:BASE compares the cell's exponent first and breaks ties by
    BASE, at every cell of a 3 by 3 and a 4 by 4 matrix."""
    for n in (3, 4):
        vec = st.lists(
            st.integers(min_value=0, max_value=3), min_size=n * n, max_size=n * n
        )
        u, v = data.draw(vec), data.draw(vec)
        for base in BASES:
            B = matrix_ring(n, base)
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    R = matrix_ring(n, f"yref:{a},{b}:{base}")
                    k = (a - 1) * n + (b - 1)
                    by_pair = (u[k], B.encode(u)) < (v[k], B.encode(v))
                    assert (R.encode(u) < R.encode(v)) == by_pair


def test_ring_rejects_incomplete_layout():
    with pytest.raises(ValueError):
        Ring(("a", "b"), (0,))
    with pytest.raises(ValueError):
        Ring(("a", "a"), (0, 1))


@given(exps3)
def test_encode_decode_round_trip(vec):
    for ring in (R_DIAG, R_ANTI, R_REFINED):
        assert ring.decode(ring.encode(vec)) == tuple(vec)


DECODE_RINGS = [
    matrix_ring(4, "diag"),
    matrix_ring(3, "yref:2,2:diag"),
    lex_ring(("q",)),
]


@given(st.data())
def test_decode_inverts_encode_up_to_the_slot_cap(data):
    for ring in DECODE_RINGS:
        n = len(ring.names)
        vec = data.draw(st.lists(st.integers(0, SLOT_CAP - 1), min_size=n, max_size=n))
        assert ring.decode(ring.encode(vec)) == tuple(vec)


def test_decode_of_one_is_all_zeros():
    for ring in DECODE_RINGS:
        assert ring.decode(0) == (0,) * len(ring.names)


def test_ring_survives_pickling():
    for ring in DECODE_RINGS:
        copy = pickle.loads(pickle.dumps(ring))
        assert copy == ring
        m = ring.encode(range(1, len(ring.names) + 1))
        assert copy.decode(m) == ring.decode(m)


def test_masks_are_the_per_slot_sums():
    # The byte patterns equal the masks summed one slot at a time.
    for nslots in range(81):
        ring = Ring([f"v{k}" for k in range(nslots)], range(nslots))
        shifts = range(0, 16 * nslots, 16)
        assert ring._guard == sum(SLOT_CAP << s for s in shifts)
        assert ring._values == sum((SLOT_CAP - 1) << s for s in shifts)
        assert ring._lanes == sum(0xFFFF << s for s in range(0, 16 * nslots, 32))


def test_variable_is_one_at_its_slot():
    for ring in (R_DIAG, R_ANTI, R_REFINED):
        for v, nm in enumerate(ring.names):
            unit = [0] * len(ring.names)
            unit[v] = 1
            assert ring.variable(nm) == ring.encode(unit)
            assert ring.decode(ring.variable(nm)) == tuple(unit)


DEGREE_RINGS = [
    matrix_ring(n, spec)
    for n in (3, 7)
    for spec in ("diag", "antidiag", "col-lex", "yref:2,3:diag", "yref:2,3:antidiag")
]


@given(st.data())
def test_degree_is_the_exponent_sum(data):
    ring = data.draw(st.sampled_from(DEGREE_RINGS))
    size = len(ring.names)
    top = (1 << 15) - 1
    vec = data.draw(
        st.lists(st.integers(min_value=0, max_value=top), min_size=size, max_size=size)
    )
    m = ring.encode(vec)
    assert ring.degree(m) == sum(ring.decode(m)) == sum(vec)


def test_degree_of_the_all_maximum_monomial():
    top = (1 << 15) - 1
    for ring in DEGREE_RINGS:
        m = ring.encode([top] * len(ring.names))
        assert ring.degree(m) == sum(ring.decode(m)) == top * len(ring.names)
        assert ring.degree(0) == 0


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
    ring = matrix_ring(3, "yref:2,2:antidiag")
    y = ring.variable("z[2,2]")
    big = ring.encode({nm: 7 for nm in ring.names if nm != "z[2,2]"})
    assert y > big


def test_quotient_and_one():
    # the quotient of packed monomials is their difference, and the empty
    # monomial is 0
    ring = R_DIAG
    a = ring.encode({"z[1,1]": 2, "z[2,2]": 1})
    b = ring.encode({"z[1,1]": 1})
    assert ring.divides(b, a)
    assert a - b == ring.encode({"z[1,1]": 1, "z[2,2]": 1})
    assert ring.encode({}) == 0
    assert ring.degree(0) == 0


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
    assert (f - g) + g == f
    assert f - g == f + (-1) * g
    assert all((f - g).terms.values())
    assert all((f * g).terms.values())


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


def test_exact_divide_by_divisors_of_three_or_more_terms():
    x, y, z = zvar(R_DIAG, 1, 1), zvar(R_DIAG, 2, 2), zvar(R_DIAG, 3, 3)
    divisors = [x + y + z, x * y - 2 * y * z + 3 * z + 1, (x - y) * (y - z) * (x - z)]
    quotients = [x - y + 5, y * y * z - x + 7, (x + y + z) ** 3 - 4]
    for g in divisors:
        for h in quotients:
            assert exact_divide(g * h, g) == h
            assert exact_divide(g * h, h) == g


def test_exact_divide_with_fraction_coefficients():
    x, y = zvar(R_DIAG, 1, 1), zvar(R_DIAG, 2, 2)
    half, third = Fraction(1, 2), Fraction(2, 3)
    g = third * x - y + 1
    h = half * x * y + 3 * y - Fraction(5, 7)
    assert exact_divide(g * h, g) == h
    assert exact_divide(g * h, h) == g
    # An int divisor lead that does not divide the dividend's coefficients.
    assert exact_divide(x + 1, 3 * x + 3) == Poly.constant(R_DIAG, Fraction(1, 3))
    q = exact_divide(2 * x * x + 2 * x * y + 3 * x + 3 * y, 2 * x + 2 * y)
    assert q == x + Fraction(3, 2)
    # Exact int quotients stay ints.
    q = exact_divide(4 * x * x - 4 * y * y, 2 * x + 2 * y)
    assert q == 2 * x - 2 * y
    assert all(type(c) is int for c in q.terms.values())
    # A monic divisor takes each quotient coefficient as it stands.
    g = x * y - third * y + half
    assert exact_divide(g * h, g) == h


def test_exact_divide_in_a_corner_refined_ring():
    ring = matrix_ring(3, "yref:2,2:diag")
    a, b, c = zvar(ring, 1, 1), zvar(ring, 2, 2), zvar(ring, 2, 3)
    g = a * b - b * b + c
    assert g.leading_monomial() == (b * b).leading_monomial()
    for h in (a + b, b ** 3 - a * c + 2, (a - c) ** 2 * b):
        assert exact_divide(g * h, g) == h
        assert exact_divide(g * h, h) == g


def test_exact_divide_finds_a_bad_term_that_surfaces_late():
    x, y, z = zvar(R_DIAG, 1, 1), zvar(R_DIAG, 1, 2), zvar(R_DIAG, 3, 3)
    g = x - y
    # (x - y)(x + y) cancels term by term down to the stray z, which
    # is smaller than every other term and not a multiple of x.
    f = x * x - y * y + z
    with pytest.raises(ValueError, match="division is not exact"):
        exact_divide(f, g)
    f = (x * x * x - y * y * y) + x * z * z - y * z * z + y * y * z
    with pytest.raises(ValueError, match="division is not exact"):
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


def test_degree_and_leading_term():
    f = det2(R_DIAG)
    assert f.degree() == 2
    assert Poly.zero(R_DIAG).degree() == -1
    lead = f.leading_monomial()
    assert lead == R_DIAG.encode({"z[1,1]": 1, "z[2,2]": 1})
    assert f.coefficient(lead) == 1


def test_convert_between_orders_preserves_values():
    # Two orders of the same variables: moving a polynomial between them
    # re-packs each exponent vector.
    def repack(f, target):
        return Poly(
            target, ((target.encode(f.ring.decode(m)), c) for m, c in f.terms.items())
        )

    f = det2(R_DIAG) * det2(R_DIAG) + 7 * zvar(R_DIAG, 3, 3)
    g = repack(f, R_ANTI)
    assert g.ring == R_ANTI
    assert g == det2(R_ANTI) * det2(R_ANTI) + 7 * zvar(R_ANTI, 3, 3)
    assert repack(g, R_DIAG) == f
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


XYZ = lex_ring(("x1", "x2", "x3"))


def xyz(name, ring=XYZ):
    return Poly.variable(ring, name)


def test_map_variables_swap_is_simultaneous():
    x1, x2, x3 = xyz("x1"), xyz("x2"), xyz("x3")
    f = x1**3 * x2 - 2 * x1 * x2**2 * x3 + 5 * x2 + 7
    swap = {"x1": x2, "x2": x1}
    g = f.map_variables(XYZ, swap)
    assert g == x2**3 * x1 - 2 * x2 * x1**2 * x3 + 5 * x1 + 7
    assert g.map_variables(XYZ, swap) == f


def test_map_variables_images_name_later_variables():
    x1, x2, x3 = xyz("x1"), xyz("x2"), xyz("x3")
    f = x1**2 * x2 + x1 * x3 - x2
    g = f.map_variables(XYZ, {"x1": x3 + x2, "x2": x3**2})
    assert g == (x3 + x2) ** 2 * x3**2 + (x3 + x2) * x3 - x3**2


def test_map_variables_into_a_target_with_extra_variables():
    src = lex_ring(("x1", "x2"))
    tgt = lex_ring(("t", "x1", "x2", "u"))
    f = Poly.variable(src, "x1") ** 2 * Poly.variable(src, "x2") - 3
    t, u = xyz("t", tgt), xyz("u", tgt)
    g = f.map_variables(tgt, {"x1": t - u})
    assert g.ring == tgt
    assert g == (t - u) ** 2 * xyz("x2", tgt) - 3
    assert f.map_variables(tgt) == xyz("x1", tgt) ** 2 * xyz("x2", tgt) - 3


def test_map_variables_with_fraction_and_int_images():
    x1, x2, x3 = xyz("x1"), xyz("x2"), xyz("x3")
    f = x1**2 * x2 + 4 * x1 * x3 - x3
    half = Fraction(1, 2)
    g = f.map_variables(XYZ, {"x1": half, "x2": 3})
    assert g == Poly(XYZ, {0: Fraction(3, 4)}) + 2 * x3 - x3
    g = f.map_variables(XYZ, {"x1": half * x2 + 1, "x3": 0})
    assert g == (half * x2 + 1) ** 2 * x2


def test_map_variables_of_zero_and_constants():
    images = {"x1": xyz("x2") + 1, "x3": 5}
    zero = Poly.zero(XYZ)
    assert zero.map_variables(XYZ, images).is_zero
    assert Poly.constant(XYZ, 4).map_variables(XYZ, images) == 4
    half = Poly.constant(XYZ, Fraction(1, 2))
    assert half.map_variables(XYZ, images) == half
    assert xyz("x1").map_variables(XYZ, {"x1": 0}).is_zero


def evaluate(f, point):
    """Value of f with each variable set from ``point`` (name -> number)."""
    total = 0
    for m, c in f.terms.items():
        for v, e in enumerate(f.ring.decode(m)):
            c *= point[f.ring.names[v]] ** e
        total += c
    return total


# Source whose slots are not its variables in order; the target has one
# variable more.
MAP_SOURCE = Ring(("x1", "x2", "x3"), (1, 0, 2))
MAP_TARGET = lex_ring(("x1", "x2", "x3", "t"))


def poly_in(ring, max_exp, max_terms):
    exps = st.lists(
        st.integers(min_value=0, max_value=max_exp),
        min_size=len(ring.names),
        max_size=len(ring.names),
    )
    coeffs = st.one_of(
        st.integers(min_value=-4, max_value=4),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
    )
    return st.lists(
        st.tuples(exps, coeffs), max_size=max_terms
    ).map(lambda pairs: Poly(ring, [(ring.encode(v), c) for v, c in pairs]))


@settings(max_examples=60)
@given(
    poly_in(MAP_SOURCE, 3, 5),
    st.dictionaries(
        st.sampled_from(MAP_SOURCE.names),
        st.one_of(st.integers(min_value=-3, max_value=3), poly_in(MAP_TARGET, 2, 3)),
    ),
    st.lists(
        st.integers(min_value=-5, max_value=5), min_size=4, max_size=4
    ),
)
def test_map_variables_commutes_with_evaluation(f, images, values):
    point = dict(zip(MAP_TARGET.names, values))
    g = f.map_variables(MAP_TARGET, images)
    assert g.ring == MAP_TARGET
    image_values = {}
    for nm in MAP_SOURCE.names:
        im = images.get(nm, Poly.variable(MAP_TARGET, nm))
        image_values[nm] = evaluate(im, point) if isinstance(im, Poly) else im
    assert evaluate(g, point) == evaluate(f, image_values)


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
        "(" * 400 + "z[1,1]" + ")" * 400,
        "-" * 2000 + "z[1,1]",
    ):
        with pytest.raises(ValueError):
            parse_poly(R_DIAG, bad)


def test_parse_rejects_division_by_zero():
    for bad in ("z[1,1]/0", "z[1,1]/(1-1)"):
        with pytest.raises(ValueError, match="division by zero"):
            parse_poly(R_DIAG, bad)
