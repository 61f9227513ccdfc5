"""Series-algebra unit tests: worked examples plus randomized ring axioms."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cmag_wkb.cseries import (
    BiSeries,
    CurveDivisionError,
    SeriesDivisionError,
    SeriesStructureError,
    UniSeries,
    complexify_real_taylor,
    compose_w,
    curve_integral_w,
    degree_maxima,
    exact_divide_by_curve,
    implicit_w,
    t_average,
)


def bi(terms, cap=8):
    return BiSeries.from_terms(terms, cap)


def uni(coeffs, cap=8):
    return UniSeries(np.r_[coeffs, np.zeros(cap + 1 - len(coeffs))].astype(complex), cap)


def dz(s):
    return s.differentiate("z") if isinstance(s, BiSeries) else s.differentiate()


def z_coeffs(s):
    """Coefficients of the pure powers z^k."""
    return s.coeffs[:, 0] if isinstance(s, BiSeries) else s.coeffs


# ----------------------------------------------------------------------------
# algebra
# ----------------------------------------------------------------------------

def test_difference_of_squares():
    one_plus = bi([(0, 0, 1.0), (1, 1, 1.0)], cap=4)
    one_minus = bi([(0, 0, 1.0), (1, 1, -1.0)], cap=4)
    prod = one_plus * one_minus
    expected = bi([(0, 0, 1.0), (2, 2, -1.0)], cap=4)
    assert np.allclose(prod.coeffs, expected.coeffs)


def test_additive_identity():
    a = bi([(1, 0, 2.0), (0, 2, 1j)], cap=4)
    assert np.array_equal((a + BiSeries.zeros(4)).coeffs, a.coeffs)


def test_truncation_drops_degree_two_at_cap_one():
    z = bi([(1, 0, 1.0)], cap=1)
    w = bi([(0, 1, 1.0)], cap=1)
    assert (z * w).max_abs() == 0.0


def test_cap_mismatch_rejected():
    with pytest.raises(SeriesStructureError):
        bi([(0, 0, 1.0)], cap=4) * bi([(0, 0, 1.0)], cap=5)


def test_center_mismatch_rejected():
    a = BiSeries.constant(1.0, 4, center=(0.0, 0.0))
    b = BiSeries.constant(1.0, 4, center=(1.0, 0.0))
    with pytest.raises(SeriesStructureError):
        a + b


# ----------------------------------------------------------------------------
# differentiation / antidifferentiation
# ----------------------------------------------------------------------------

def test_power_rule():
    zw2 = bi([(1, 2, 1.0)])
    assert np.allclose(zw2.differentiate("w").coeffs, bi([(1, 1, 2.0)]).coeffs)


def test_derivative_of_constant():
    assert BiSeries.constant(3.0, 5).differentiate("z").max_abs() == 0.0


def test_wirtinger_against_finite_differences():
    # oscillating field at base (0, -pi/2): d_zbar B = cos(0)/2 = 1/2
    from cmag_wkb.fieldmodel import oscillating_field

    x0 = (0.0, -np.pi / 2)
    field = oscillating_field(x0, cap=12)

    def B(x1, x2):
        return np.sin(x1) + 1j * np.sin(x2)

    d = 1e-4
    d1 = (B(x0[0] + d, x0[1]) - B(x0[0] - d, x0[1])) / (2 * d)
    d2 = (B(x0[0], x0[1] + d) - B(x0[0], x0[1] - d)) / (2 * d)
    dzbar = 0.5 * (d1 + 1j * d2)
    dw = field.B_taylor.differentiate("w")
    assert abs(dw.coeffs[0, 0] - dzbar) < 1e-7 * abs(dzbar)
    assert abs(dw.coeffs[0, 0] - 0.5) < 1e-8


def test_antiderivative_w():
    zw = bi([(1, 1, 1.0)])
    assert np.allclose(zw.antiderivative("w").coeffs, bi([(1, 2, 0.5)]).coeffs)


def test_fundamental_theorem():
    a = bi([(0, 0, 1.0), (1, 1, 2.0), (2, 3, -1j), (0, 5, 0.25)])
    back = a.antiderivative("w").differentiate("w")
    assert np.allclose(back.coeffs, a.coeffs, atol=1e-15)


def test_antiderivative_of_zero():
    assert BiSeries.zeros(6).antiderivative("z").max_abs() == 0.0


def test_antiderivative_truncation_flag():
    top = bi([(4, 4, 1.0)], cap=8)
    assert top.antiderivative("w").truncation_dropped
    low = bi([(1, 1, 1.0)], cap=8)
    assert not low.antiderivative("w").truncation_dropped


# ----------------------------------------------------------------------------
# exp / reciprocal / power
# ----------------------------------------------------------------------------

def test_exp_of_zero():
    for zero in (BiSeries.zeros(6), UniSeries.zeros(6)):
        e = zero.exp()
        assert e.parts()[0][0] == 1.0 and e.max_abs() == 1.0


def test_exp_group_law():
    for z in (bi([(1, 0, 1.0)], cap=10), uni([0.0, 1.0], cap=10)):
        prod = z.exp() * (-1.0 * z).exp()
        expected = type(z).constant(1.0, 10)
        assert np.max(np.abs(prod.coeffs - expected.coeffs)) < 1e-14


def test_exp_defining_ode():
    for a in (bi([(1, 0, 0.3), (0, 1, -0.2j), (1, 1, 0.1), (2, 0, 0.05)], cap=10),
              uni([0.7, 0.3, 0.05, -0.2j], cap=10)):
        e = a.exp()
        res = dz(e) - dz(a) * e
        # trustworthy below the cap (differentiation loses the top degree)
        assert np.max(degree_maxima(res)[:10]) < 1e-13


def test_reciprocal_geometric_series():
    for one_minus_z in (bi([(0, 0, 1.0), (1, 0, -1.0)], cap=6), uni([1.0, -1.0], cap=6)):
        r = one_minus_z.reciprocal()
        assert np.max(np.abs(z_coeffs(r) - 1.0)) < 1e-14


def test_reciprocal_involution():
    for a in (bi([(0, 0, 2.0 - 1j), (1, 0, 0.5), (0, 1, 0.25j), (2, 1, -0.125)], cap=8),
              uni([2.0 - 1j, 0.5, 0.25j, -0.125], cap=8)):
        assert np.max(np.abs(a.reciprocal().reciprocal().coeffs - a.coeffs)) < 1e-12


def test_reciprocal_zero_constant_term_raises():
    for a in (bi([(1, 0, 1.0)]), uni([0.0, 1.0])):
        with pytest.raises(SeriesDivisionError, match="reciprocal of a0"):
            a.reciprocal("a0")


def _power_operands():
    return (bi([(0, 0, 2.0 - 1j), (1, 0, 0.5), (0, 1, 0.25j), (2, 1, -0.125)], cap=10),
            uni([2.0 - 1j, 0.5, 0.25j, -0.125], cap=10))


def test_power_inverse_pair():
    # f^alpha * f^(-alpha) = 1, degree by degree
    for f in _power_operands():
        for alpha in (0.5, -1.3, 2.7):
            res = f.power(alpha) * f.power(-alpha) - type(f).constant(1.0, 10)
            assert np.max(degree_maxima(res)) < 1e-13


def test_power_square_root_squares_back():
    for f in _power_operands():
        root = f.power(0.5)
        assert np.max(degree_maxima(root * root - f)) < 1e-14
        # integer powers agree with products, and power(-1) with reciprocal
        assert np.max(np.abs((f.power(3) - f * f * f).coeffs)) < 1e-13
        assert np.max(np.abs((f.power(-1) - f.reciprocal()).coeffs)) < 1e-14


def test_power_zero_constant_term_raises():
    for a in (bi([(1, 0, 1.0)]), uni([0.0, 1.0])):
        with pytest.raises(SeriesDivisionError, match="power"):
            a.power(0.5)


# ----------------------------------------------------------------------------
# composition with the curve and exact division
# ----------------------------------------------------------------------------

def test_compose_simple_substitution():
    a = bi([(0, 1, 1.0)], cap=6)  # a = w
    wz = UniSeries(np.r_[0.0, -2.0, np.zeros(5)].astype(complex), 6)  # w(z) = -2z
    out = compose_w(a, wz)
    assert abs(out.coeffs[1] + 2.0) < 1e-15 and np.all(np.abs(np.delete(out.coeffs, 1)) < 1e-15)


def test_compose_w_independent_series():
    a = bi([(2, 0, 3.0), (1, 0, 1j)], cap=6)
    wz = UniSeries(np.r_[0.0, 0.7, 0.1, np.zeros(4)].astype(complex), 6)
    out = compose_w(a, wz)
    assert abs(out.coeffs[2] - 3.0) < 1e-15 and abs(out.coeffs[1] - 1j) < 1e-15


def test_compose_rejects_nonzero_constant():
    wz = UniSeries(np.r_[1.0, np.zeros(6)].astype(complex), 6)
    with pytest.raises(ValueError):
        compose_w(bi([(0, 1, 1.0)], cap=6), wz)


def _linear_curve(cap, slope=-0.4 + 0.1j):
    c = np.zeros(cap + 1, dtype=complex)
    c[1] = slope
    return UniSeries(c, cap)


def test_divide_by_curve_itself():
    cap = 8
    wz = _linear_curve(cap)
    num = bi([(0, 1, 1.0)], cap=cap) - wz.as_biseries()
    q = exact_divide_by_curve(num, wz)
    assert abs(q.coeffs[0, 0] - 1.0) < 1e-14
    assert np.max(np.abs(q.coeffs)) <= 1.0 + 1e-14


def test_divide_constructed_factorization():
    cap = 8
    wz = _linear_curve(cap)
    factor = bi([(0, 1, 1.0)], cap=cap) - wz.as_biseries()
    other = bi([(0, 0, 1.0), (1, 1, 1.0)], cap=cap)
    q = exact_divide_by_curve(factor * other, wz)
    assert np.max(np.abs(q.coeffs - other.coeffs)) < 1e-13


def test_divide_nonvanishing_rejected():
    cap = 8
    wz = _linear_curve(cap)
    on_curve = bi([(0, 1, 1.0)], cap=cap) - wz.as_biseries()
    for num in (BiSeries.constant(1.0, cap), on_curve + bi([(2, 0, np.nan)], cap=cap)):
        with pytest.raises(CurveDivisionError):
            exact_divide_by_curve(num, wz)


def test_divided_phase_factor_matches_quadrature_oracle():
    # V from dividing d_z phi~ equals (1/4) * the t-averaged field series:
    # evaluate the segment-average integral by Gauss quadrature at a sample
    # point and compare with 4 V there.
    from cmag_wkb.fieldmodel import oscillating_field
    from cmag_wkb.wkb import divided_data, poisson_series

    field = oscillating_field((np.pi / 3, -np.pi / 2), cap=16)
    B = field.B_taylor
    wz = implicit_w(B)
    phi = poisson_series(B)
    V, F = divided_data(phi, B, wz)

    zs, ws = 0.04 + 0.02j, -0.03 + 0.01j
    wzs = wz(zs)
    nodes, wts = np.polynomial.legendre.leggauss(40)
    tt, tw = 0.5 * (nodes + 1), 0.5 * wts
    oracle = sum(wgt * B.evaluate(zs, wzs + t * (ws - wzs)) for t, wgt in zip(tt, tw))
    got = 4.0 * V.evaluate(zs, ws)
    assert abs(got - oracle) < 1e-8 * abs(oracle)
    f_oracle = sum(
        wgt * B.differentiate("w").evaluate(zs, wzs + t * (ws - wzs))
        for t, wgt in zip(tt, tw)
    )
    assert abs(F.evaluate(zs, ws) - f_oracle) < 1e-8 * abs(f_oracle)


def test_t_average_of_w_linear():
    # g = w: int_0^1 (w(z) + t(w - w(z))) dt = (w + w(z))/2
    cap = 8
    wz = _linear_curve(cap)
    g = bi([(0, 1, 1.0)], cap=cap)
    avg = t_average(g, wz)
    expected = 0.5 * (g + wz.as_biseries())
    assert np.max(np.abs(avg.coeffs - expected.coeffs)) < 1e-14


# ----------------------------------------------------------------------------
# evaluation / realification
# ----------------------------------------------------------------------------

def test_evaluate_constant_everywhere():
    c = BiSeries.constant(2.5 - 1j, 6)
    assert c.evaluate(0.3, -0.2) == 2.5 - 1j


def test_evaluate_zw():
    assert bi([(1, 1, 1.0)]).evaluate(2.0, 3.0) == pytest.approx(6.0)


def test_realify_phase_for_constant_field():
    # B == 2: phi~ = 2 z w / 4, realified (x1^2 + x2^2)/2
    from cmag_wkb.wkb import poisson_series

    B = BiSeries.constant(2.0, 8)
    phi = poisson_series(B)
    x = (0.3, -0.7)
    assert phi.realify(*x) == pytest.approx((x[0] ** 2 + x[1] ** 2) / 2)


def test_realify_zw_and_z():
    zw = bi([(1, 1, 1.0)])
    z = bi([(1, 0, 1.0)])
    assert zw.realify(0.6, -0.8) == pytest.approx(1.0)
    assert z.realify(0.6, -0.8) == pytest.approx(0.6 - 0.8j)


# ----------------------------------------------------------------------------
# implicit curve
# ----------------------------------------------------------------------------

def test_implicit_w_linear_field_exact():
    # B~ = a + b z + c w -> w(z) = -(b/c) z exactly
    a, b, c = 2.0 + 1j, 0.7 - 0.2j, 1.5 + 0.5j
    cap = 10
    B = bi([(0, 0, a), (1, 0, b), (0, 1, c)], cap=cap)
    wz = implicit_w(B)
    assert abs(wz.coeffs[1] + b / c) < 1e-14
    assert np.max(np.abs(wz.coeffs[2:])) < 1e-14
    rest = compose_w(B, wz)
    assert np.max(np.abs(rest.coeffs[1:])) < 1e-13


def test_implicit_w_derivative_identity():
    B = bi([(0, 0, 1.0), (1, 0, 0.5 + 0.1j), (0, 1, 1j), (2, 0, 0.3), (1, 1, -0.2)], cap=10)
    wz = implicit_w(B)
    assert abs(wz.coeffs[1] + B.coeffs[1, 0] / B.coeffs[0, 1]) < 1e-13


def test_implicit_w_field_without_z_dependence():
    B = bi([(0, 0, 1.0), (0, 1, 2.0), (0, 2, -0.5)], cap=8)
    assert implicit_w(B).max_abs() == 0.0


def test_implicit_w_degenerate_rejected():
    no_w = bi([(0, 0, 1.0), (1, 0, 1.0)], cap=8)
    nan_curve = bi([(0, 0, 1.0), (0, 1, 1.0), (2, 0, np.nan)], cap=8)
    for B, error in ((no_w, SeriesDivisionError), (nan_curve, CurveDivisionError)):
        with pytest.raises(error):
            implicit_w(B)


def test_curve_integral_vanishes_on_curve():
    cap = 10
    wz = _linear_curve(cap)
    g = bi([(0, 0, 1.0), (1, 1, 0.5), (0, 2, -0.25j)], cap=cap)
    I = curve_integral_w(g, wz)
    rest = compose_w(I, wz)
    assert np.max(np.abs(rest.coeffs)) < 1e-14


# ----------------------------------------------------------------------------
# randomized ring axioms (exact in the quotient ring, up to roundoff)
# ----------------------------------------------------------------------------

CAP = 6


def _series_strategy():
    n = (CAP + 1) * (CAP + 2) // 2
    reals = st.lists(st.floats(-2, 2, allow_nan=False), min_size=2 * n, max_size=2 * n)

    def build(vals):
        c = np.zeros((CAP + 1, CAP + 1), dtype=complex)
        idx = 0
        for a in range(CAP + 1):
            for b in range(CAP + 1 - a):
                c[a, b] = complex(vals[idx], vals[idx + 1])
                idx += 2
        return BiSeries(c, CAP)

    return reals.map(build)


def _close(a, b, rtol=1e-13):
    scale = max(a.max_abs(), b.max_abs(), 1e-30)
    return np.max(np.abs(a.coeffs - b.coeffs)) <= rtol * scale


@settings(max_examples=100, deadline=None)
@given(_series_strategy(), _series_strategy(), _series_strategy())
def test_ring_axioms(a, b, c):
    assert _close((a * b) * c, a * (b * c))
    assert _close(a * b, b * a)
    assert _close(a * (b + c), a * b + a * c)
    assert _close((a + b) + c, a + (b + c))


@settings(max_examples=100, deadline=None)
@given(_series_strategy())
def test_derivative_antiderivative_inverse(a):
    for var in ("z", "w"):
        low = BiSeries(np.where(np.add.outer(np.arange(CAP + 1), np.arange(CAP + 1)) <= CAP - 1,
                                a.coeffs, 0.0), CAP)
        assert _close(low.antiderivative(var).differentiate(var), low)


@settings(max_examples=60, deadline=None)
@given(_series_strategy())
def test_serialization_round_trip_bit_exact(a):
    d = json.loads(json.dumps(a.to_records()))

    def value(re, im):
        return complex(float.fromhex(re), float.fromhex(im))

    c = np.zeros_like(a.coeffs)
    for m, n, re, im in d["coeffs"]:
        c[m, n] = value(re, im)
    assert np.array_equal(c, a.coeffs)
    assert d["cap"] == a.cap and tuple(value(*z) for z in d["center"]) == a.center


def test_complexify_recovers_real_function():
    # a(x) = x1^2 - x2 + 3 + (0.5 - i) x1^2 x2^3: a~(z, conj z) must reproduce it
    breal = np.zeros((3, 4), dtype=complex)
    breal[0, 0], breal[2, 0], breal[0, 1], breal[2, 3] = 3.0, 1.0, -1.0, 0.5 - 1j
    at = complexify_real_taylor(breal, cap=6)
    x = (0.4, -1.1)
    expected = x[0] ** 2 - x[1] + 3.0 + (0.5 - 1j) * x[0] ** 2 * x[1] ** 3
    assert at.realify(*x) == pytest.approx(expected)


# ----------------------------------------------------------------------------
# the graded product against the dense shifted-block loop it replaced
# ----------------------------------------------------------------------------

def _reference_product(x, y):
    D = x.shape[0] - 1
    out = np.zeros((D + 1, D + 1), dtype=complex)
    for a in range(D + 1):
        for b in range(D + 1 - a):
            out[a:, b:] += x[a, b] * y[: D + 1 - a, : D + 1 - b]
    return np.where(np.add.outer(np.arange(D + 1), np.arange(D + 1)) <= D, out, 0.0)


@st.composite
def _operand_pairs(draw):
    cap = draw(st.sampled_from([0, 1, 2, 24]))
    # zeros are drawn often, so whole homogeneous parts vanish (the kernel skips them)
    values = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
    coeffs = arrays(complex, (cap + 1, cap + 1), elements=st.one_of(st.just(0j), values))
    return BiSeries(draw(coeffs), cap), BiSeries(draw(coeffs), cap)


@settings(max_examples=60, deadline=None)
@given(_operand_pairs())
def test_product_matches_reference_loop(pair):
    x, y = pair
    ref = _reference_product(x.coeffs, y.coeffs)
    scale = max(_reference_product(np.abs(x.coeffs), np.abs(y.coeffs)).real.max(), 1e-300)
    assert np.max(np.abs((x * y).coeffs - ref)) <= 1e-13 * scale
