"""Series-algebra unit tests: worked examples plus randomized ring axioms."""

import functools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from conftest import z_series
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.polynomial import polyval, polyval2d

from cmag_wkb.cseries import (
    BiSeries,
    CurveDivisionError,
    SeriesDivisionError,
    SeriesStructureError,
    abs_compose_w,
    compose_w,
    curve_integral_w,
    degree_maxima,
    exact_divide_by_curve,
    implicit_w,
    real_coordinates,
    t_average,
)


def bi(terms, cap=8):
    return BiSeries.from_terms(terms, cap)


def _parts(s):
    """Homogeneous parts: part k is the 1-D array of c[a, k-a], a = 0..k."""
    return [np.fliplr(s.coeffs).diagonal(s.cap - k).copy() for k in range(s.cap + 1)]


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
    with pytest.raises(SeriesStructureError):
        z_series([1.0], cap=4) + z_series([1.0], cap=5)


@pytest.mark.parametrize("given, stored", [
    (np.float64, np.complex128), (np.int64, np.complex128), (np.complex64, np.complex128),
    (np.complex128, np.complex128), (np.clongdouble, np.clongdouble),
])
def test_number_type_is_complex_binary64_or_wider_and_kept(given, stored):
    # the one rule: real, integer and complex64 coefficients are stored in
    # complex128, a wider complex type is kept, and every operation's result
    # has its operands' type
    cap = 6
    s = BiSeries(np.arange((cap + 1) ** 2).reshape(cap + 1, cap + 1).astype(given) + 1, cap)
    x = np.asarray(0.5, given)[()]
    wz = BiSeries.from_terms([(1, 0, x / 2), (2, 0, x)], cap)
    assert s.coeffs.dtype == stored and wz.coeffs.dtype == stored
    results = [s + s, s + x, s - x, x * s, s * s, s * wz, wz * s, wz * wz, s.exp(),
               s.reciprocal(), s.power(0.5), abs(s) + 0.0, s.differentiate("w"),
               s.antiderivative("z"), compose_w(s, wz), (s * 0 + x).exp(),
               BiSeries.constant(x, cap), BiSeries.from_terms([(1, 2, x)], cap)]
    assert [r.coeffs.dtype for r in results] == [np.dtype(stored)] * len(results)
    assert BiSeries.zeros(cap).coeffs.dtype == np.complex128


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


# ----------------------------------------------------------------------------
# exp / reciprocal / power
# ----------------------------------------------------------------------------

def test_exp_of_zero():
    e = BiSeries.zeros(6).exp()
    assert e.coeffs[0, 0] == 1.0 and e.max_abs() == 1.0 and e.z_only


def test_exp_group_law():
    for z in (bi([(1, 0, 1.0)], cap=10), z_series([0.0, 1.0], cap=10)):
        prod = z.exp() * (-1.0 * z).exp()
        expected = BiSeries.constant(1.0, 10)
        assert np.max(np.abs(prod.coeffs - expected.coeffs)) < 1e-14


def test_exp_defining_ode():
    for a in (bi([(1, 0, 0.3), (0, 1, -0.2j), (1, 1, 0.1), (2, 0, 0.05)], cap=10),
              z_series([0.7, 0.3, 0.05, -0.2j], cap=10)):
        e = a.exp()
        res = e.differentiate("z") - a.differentiate("z") * e
        # trustworthy below the cap (differentiation loses the top degree)
        assert np.max(degree_maxima(res)[:10]) < 1e-13


def test_reciprocal_geometric_series():
    for one_minus_z in (bi([(0, 0, 1.0), (1, 0, -1.0)], cap=6), z_series([1.0, -1.0], cap=6)):
        r = one_minus_z.reciprocal()
        assert np.max(np.abs(r.coeffs[:, 0] - 1.0)) < 1e-14


def test_reciprocal_involution():
    for a in (bi([(0, 0, 2.0 - 1j), (1, 0, 0.5), (0, 1, 0.25j), (2, 1, -0.125)], cap=8),
              z_series([2.0 - 1j, 0.5, 0.25j, -0.125], cap=8)):
        assert np.max(np.abs(a.reciprocal().reciprocal().coeffs - a.coeffs)) < 1e-12


def test_reciprocal_zero_constant_term_raises():
    for a in (bi([(1, 0, 1.0)]), z_series([0.0, 1.0], 8)):
        with pytest.raises(SeriesDivisionError, match="reciprocal of a0"):
            a.reciprocal("a0")


def _power_operands():
    return (bi([(0, 0, 2.0 - 1j), (1, 0, 0.5), (0, 1, 0.25j), (2, 1, -0.125)], cap=10),
            z_series([2.0 - 1j, 0.5, 0.25j, -0.125], cap=10))


def test_power_inverse_pair():
    # f^alpha * f^(-alpha) = 1, degree by degree
    for f in _power_operands():
        for alpha in (0.5, -1.3, 2.7):
            res = f.power(alpha) * f.power(-alpha) - BiSeries.constant(1.0, 10)
            assert np.max(degree_maxima(res)) < 1e-13


def test_power_square_root_squares_back():
    for f in _power_operands():
        root = f.power(0.5)
        assert np.max(degree_maxima(root * root - f)) < 1e-14
        # integer powers agree with products, and power(-1) with reciprocal
        assert np.max(np.abs((f.power(3) - f * f * f).coeffs)) < 1e-13
        assert np.max(np.abs((f.power(-1) - f.reciprocal()).coeffs)) < 1e-14


def test_power_zero_constant_term_raises():
    for a in (bi([(1, 0, 1.0)]), z_series([0.0, 1.0], 8)):
        with pytest.raises(SeriesDivisionError, match="power"):
            a.power(0.5)


def _per_part_recurrence(s, g0, weight, divisor, magnitudes=False):
    """g_k = sum_{j=1..k} weight(j, k) s_j * g_{k-j} / divisor(k) over the
    homogeneous parts s_j, one np.convolve per pair of parts: the loop that
    exp, reciprocal and power run on a bivariate series.  With
    ``magnitudes`` it runs on |s_j|, giving the recurrence's majorant."""
    parts = [np.abs(p) if magnitudes else p for p in _parts(s)]
    g = [np.array([g0], dtype=complex)]
    out = np.zeros_like(s.coeffs)
    out[0, 0] = g0
    for k in range(1, s.cap + 1):
        acc = np.zeros(k + 1, dtype=complex)
        for j in range(1, k + 1):
            acc += weight(j, k) * np.convolve(parts[j], g[k - j])
        g.append(acc / divisor(k))
        a = np.arange(k + 1)
        out[a, k - a] = g[k]
    return out


def _recurrence_cases(s):
    """exp, reciprocal and power (alpha = 0.5 - 0.3i and -1) of s, each as
    (result, g_0, weight(j, k), divisor(k), the weight's majorant) of
    ``_per_part_recurrence``."""
    c0 = s.coeffs[0, 0]
    cases = [(s.exp(), np.exp(c0), lambda j, k: j, lambda k: k, lambda j, k: j),
             (s.reciprocal(), 1 / c0, lambda j, k: -1.0, lambda k: c0, lambda j, k: 1.0)]
    for alpha in (0.5 - 0.3j, -1):
        # power forms (alpha+1) j and k as two sums, so both enter its majorant
        cases.append((s.power(alpha), c0 ** alpha,
                      lambda j, k, alpha=alpha: (alpha + 1) * j - k, lambda k: k * c0,
                      lambda j, k, alpha=alpha: abs(alpha + 1) * j + k))
    return cases


def _check_recurrences(s, rtol=1e-15):
    # each result within rtol of the majorant the same recurrence gives on |s|
    for got, g0, weight, divisor, bound in _recurrence_cases(s):
        assert got.z_only == s.z_only
        ref = _per_part_recurrence(s, g0, weight, divisor)
        majorant = _per_part_recurrence(s, abs(g0), bound, lambda k: abs(divisor(k)),
                                        magnitudes=True).real
        assert np.all(np.abs(got.coeffs - ref) <= rtol * majorant)


@pytest.mark.parametrize("cap", [1, 7, 48])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_z_only_recurrences_match_the_per_part_loop(cap, seed):
    # the column recurrence of a z-only series against the per-part loop
    col = _live_parts(cap, range(cap + 1), seed=seed).coeffs[:, 0] / 1.5 ** np.arange(cap + 1)
    _check_recurrences(z_series(col, cap))


@pytest.mark.parametrize("cap", [1, 7, 48])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bivariate_recurrences_match_the_per_part_loop(cap, seed):
    # the recurrence over the live parts of a bivariate series, some of them
    # zero, against the loop over every pair of parts; at alpha = -1 power's
    # first sum vanishes whole, and its second must still run
    degrees = [d for d in range(cap + 1) if d % 4 != 2]
    s = _live_parts(cap, degrees, seed=seed)
    k = np.add.outer(np.arange(cap + 1), np.arange(cap + 1))
    s = BiSeries(s.coeffs / 1.5 ** k, cap)
    assert not s.z_only
    _check_recurrences(s)


@pytest.mark.parametrize("cap", [1, 7, 48])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bivariate_recurrences_on_parts_0_and_1_match_the_per_part_loop(cap, seed):
    # a series live only in parts 0 and 1, the shape of exp(+-iX~) in the
    # field builders.  Each sum has at most two terms, so the majorant is
    # tight: at cap 48 the per-part loop itself lies up to 5e-15 of it from
    # the value an extended-precision run gives.  Two kernels that round each
    # step of the recurrence differently part by up to an ulp of the
    # majorant per step each, 2 k eps at degree k
    k = np.add.outer(np.arange(cap + 1), np.arange(cap + 1))
    s = BiSeries(_live_parts(cap, [0, 1], seed=seed).coeffs / 1.5 ** k, cap)
    assert not s.z_only
    _check_recurrences(s, rtol=2 * k * np.finfo(float).eps)


def test_bivariate_recurrences_call_no_convolve(monkeypatch):
    # exp, reciprocal and power of a bivariate series add each finished part's
    # products through the Toeplitz stack, not one np.convolve per pair of parts
    k = np.add.outer(np.arange(49), np.arange(49))
    s = BiSeries(_live_parts(48, range(49), seed=4).coeffs / 1.5 ** k, 48)

    def no_convolve(*args, **kwargs):
        raise AssertionError("np.convolve in a bivariate recurrence")

    monkeypatch.setattr(np, "convolve", no_convolve)
    for g in (s.exp(), s.reciprocal(), s.power(0.5 - 0.3j), s.power(-1)):
        assert not g.z_only and np.all(np.isfinite(g.coeffs))


# ----------------------------------------------------------------------------
# composition with the curve and exact division
# ----------------------------------------------------------------------------

def test_compose_simple_substitution():
    a = bi([(0, 1, 1.0)], cap=6)  # a = w
    wz = z_series([0.0, -2.0], cap=6)  # w(z) = -2z
    out = compose_w(a, wz)
    assert out.z_only
    assert abs(out.coeffs[1, 0] + 2.0) < 1e-15
    assert np.all(np.abs(np.delete(out.coeffs[:, 0], 1)) < 1e-15)


def test_compose_w_independent_series():
    a = bi([(2, 0, 3.0), (1, 0, 1j)], cap=6)
    wz = z_series([0.0, 0.7, 0.1], cap=6)
    out = compose_w(a, wz)
    assert abs(out.coeffs[2, 0] - 3.0) < 1e-15 and abs(out.coeffs[1, 0] - 1j) < 1e-15


def test_compose_rejects_nonzero_constant():
    with pytest.raises(ValueError, match=r"w\(0\) != 0"):
        compose_w(bi([(0, 1, 1.0)], cap=6), z_series([1.0], cap=6))


def test_compose_rejects_a_curve_that_depends_on_w():
    with pytest.raises(ValueError, match="depends on w"):
        compose_w(bi([(0, 1, 1.0)], cap=6), bi([(1, 0, 0.5), (1, 1, 1e-300)], cap=6))


def _linear_curve(cap, slope=-0.4 + 0.1j):
    return z_series([0.0, slope], cap)


def test_divide_by_curve_itself():
    cap = 8
    wz = _linear_curve(cap)
    num = bi([(0, 1, 1.0)], cap=cap) - wz
    q = exact_divide_by_curve(num, wz)
    assert abs(q.coeffs[0, 0] - 1.0) < 1e-14
    assert np.max(np.abs(q.coeffs)) <= 1.0 + 1e-14


def test_divide_constructed_factorization():
    cap = 8
    wz = _linear_curve(cap)
    factor = bi([(0, 1, 1.0)], cap=cap) - wz
    other = bi([(0, 0, 1.0), (1, 1, 1.0)], cap=cap)
    q = exact_divide_by_curve(factor * other, wz)
    assert np.max(np.abs(q.coeffs - other.coeffs)) < 1e-13


def test_divide_nonvanishing_rejected():
    cap = 8
    wz = _linear_curve(cap)
    on_curve = bi([(0, 1, 1.0)], cap=cap) - wz
    for num in (BiSeries.constant(1.0, cap), on_curve + bi([(2, 0, np.nan)], cap=cap)):
        with pytest.raises(CurveDivisionError):
            exact_divide_by_curve(num, wz)


def test_divide_infinite_remainder_rejected():
    # the remainder inf at degree 2 meets a scale that is inf too: only the
    # ratio test (inf / inf is NaN) refuses it
    cap = 8
    wz = _linear_curve(cap)
    num = bi([(0, 1, 1.0)], cap=cap) - wz + bi([(2, 0, np.inf)], cap=cap)
    with np.errstate(invalid="ignore"), pytest.raises(CurveDivisionError, match="degree 2 "):
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
    wzs = polyval(zs, wz.coeffs[:, 0])
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
    expected = 0.5 * (g + wz)
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


def test_real_coeffs_of_z_and_zw():
    # z = y1 + i y2 and z w = y1^2 + y2^2
    z, zw = bi([(1, 0, 1.0)], cap=3), bi([(1, 1, 1.0)], cap=3)
    assert np.array_equal(z.real_coeffs(), bi([(1, 0, 1.0), (0, 1, 1j)], cap=3).coeffs)
    assert np.array_equal(zw.real_coeffs(), bi([(2, 0, 1.0), (0, 2, 1.0)], cap=3).coeffs)
    # computed once per series, and read-only
    assert z.real_coeffs() is z.real_coeffs() and not z.real_coeffs().flags.writeable


# ----------------------------------------------------------------------------
# the tensor kernel on product grids against Horner (polyval2d)
# ----------------------------------------------------------------------------

@st.composite
def _grid_cases(draw):
    """A series with random coefficients (whole homogeneous parts often zero)
    and two axes of random length inside [-radius, radius], radius <= 1."""
    cap = draw(st.sampled_from([0, 1, 2, 24, 48]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.uniform(-1, 1, (cap + 1, cap + 1)) + 1j * rng.uniform(-1, 1, (cap + 1, cap + 1))
    degree = np.add.outer(np.arange(cap + 1), np.arange(cap + 1))
    c[np.isin(degree, rng.choice(cap + 1, size=cap // 2, replace=False))] = 0.0
    radius = draw(st.floats(0.01, 1.0))
    s, t = (rng.uniform(-radius, radius, draw(st.integers(1, 9))) for _ in range(2))
    return BiSeries(c, cap), s, t


def _majorant(series, r):
    """sum |c_ab| r^(a+b)."""
    degree = np.add.outer(np.arange(series.cap + 1), np.arange(series.cap + 1))
    return float(np.sum(np.abs(series.coeffs) * r**degree))


@settings(max_examples=60, deadline=None)
@given(_grid_cases())
def test_grid_values_match_horner(case):
    a, s, t = case
    S, T = np.meshgrid(s, t, indexing="ij")
    # real slice: the kernel sums real monomials y1^m y2^n, and at a node
    # their magnitudes add up to at most sum |c_ab| (|y1| + |y2|)^(a+b), up to
    # 2^((a+b)/2) more than at |y|; so the majorant's radius is the l1 radius
    ref = polyval2d(S + 1j * T, S - 1j * T, a.coeffs)
    r1 = np.max(np.abs(s)) + np.max(np.abs(t))
    assert np.max(np.abs(a.realify_grid(s, t) - ref)) <= 1e-13 * _majorant(a, r1)
    # complex tensor form on a torus-like grid z = s e^{i s}, w = t e^{-i t}
    z, w = s * np.exp(1j * s), t * np.exp(-1j * t)
    Z, W = np.meshgrid(z, w, indexing="ij")
    r = max(np.max(np.abs(z)), np.max(np.abs(w)))
    got = a.evaluate_grid(z, w)
    assert got.shape == (len(z), len(w))
    assert np.max(np.abs(got - a.evaluate(Z, W))) <= 1e-13 * _majorant(a, r)


@functools.lru_cache(maxsize=None)
def _real_monomial_parts(cap):
    """Per degree k, row m holds part k of y1~^m y2~^(k-m), in series
    arithmetic on ``real_coordinates`` (zero at cap 0, which truncates them
    away); the products are exact, binomial sums over 2^k."""
    y1, y2 = real_coordinates(cap) if cap else (BiSeries.zeros(0),) * 2
    pow1, pow2 = [BiSeries.constant(1.0, cap)], [BiSeries.constant(1.0, cap)]
    for _ in range(cap):
        pow1.append(pow1[-1] * y1)
        pow2.append(pow2[-1] * y2)
    return [np.array([_parts(pow1[m] * pow2[k - m])[k] for m in range(k + 1)])
            for k in range(cap + 1)]


def _complexified(R, cap):
    """The series of sum R[m, n] y1^m y2^n: per degree, each coefficient
    times its monomial's part, summed."""
    c = np.zeros((cap + 1, cap + 1), dtype=complex)
    for k, monomials in enumerate(_real_monomial_parts(cap)):
        m = np.arange(k + 1)
        c[m, k - m] = R[m, k - m] @ monomials
    return BiSeries(c, cap)


@pytest.mark.parametrize("cap", [0, 1, 2, 24, 48])
def test_real_coeffs_and_complexify_round_trip(cap):
    # part k of the real monomial basis is conditioned like 2^(k/2) relative
    # to the complex one: each degree comes back to 1e-14 of its largest
    # coefficient times that factor, which is 1e-14 itself for k <= 1
    rng = np.random.default_rng(cap)
    for _ in range(5):
        c = rng.uniform(-1, 1, (cap + 1, cap + 1)) + 1j * rng.uniform(-1, 1, (cap + 1, cap + 1))
        a = BiSeries(c, cap)
        R = a.real_coeffs()
        back = _complexified(R, cap)
        for k, (p, q) in enumerate(zip(_parts(a), _parts(back))):
            assert np.max(np.abs(p - q)) <= 1e-14 * 2 ** (k / 2) * np.max(np.abs(p))
        # and the other way: real coefficients through the complexified series
        again = BiSeries(_complexified(R, cap).real_coeffs(), cap)
        for k, (p, q) in enumerate(zip(_parts(BiSeries(R, cap)), _parts(again))):
            assert np.max(np.abs(p - q)) <= 1e-14 * 2 ** (k / 2) * np.max(np.abs(p))


# ----------------------------------------------------------------------------
# implicit curve
# ----------------------------------------------------------------------------

def test_implicit_w_linear_field_exact():
    # B~ = a + b z + c w -> w(z) = -(b/c) z exactly
    a, b, c = 2.0 + 1j, 0.7 - 0.2j, 1.5 + 0.5j
    cap = 10
    B = bi([(0, 0, a), (1, 0, b), (0, 1, c)], cap=cap)
    wz = implicit_w(B)
    assert wz.z_only
    assert abs(wz.coeffs[1, 0] + b / c) < 1e-14
    assert np.max(np.abs(wz.coeffs[2:, 0])) < 1e-14
    rest = compose_w(B, wz)
    assert np.max(np.abs(rest.coeffs[1:, 0])) < 1e-13


def test_implicit_w_derivative_identity():
    B = bi([(0, 0, 1.0), (1, 0, 0.5 + 0.1j), (0, 1, 1j), (2, 0, 0.3), (1, 1, -0.2)], cap=10)
    wz = implicit_w(B)
    assert abs(wz.coeffs[1, 0] + B.coeffs[1, 0] / B.coeffs[0, 1]) < 1e-13


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
    # a bivariate series and its z-column as a z-only series
    for s in (a, z_series(a.coeffs[:, 0], a.cap)):
        d = json.loads(json.dumps(s.to_records()))
        assert set(d) == {"cap", "coeffs"} and d["cap"] == s.cap
        c = np.zeros_like(s.coeffs)
        for *idx, re, im in d["coeffs"]:
            c[tuple(idx)] = complex(float.fromhex(re), float.fromhex(im))
        assert np.array_equal(c, s.coeffs)


def test_complexify_recovers_real_function():
    # a(x) = x1^2 - x2 + 3 + (0.5 - i) x1^2 x2^3: a~(z, conj z) must reproduce it
    y1, y2 = real_coordinates(6)
    at = y1 * y1 - y2 + 3.0 + (0.5 - 1j) * y1 * y1 * y2 * y2 * y2
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
    cap = draw(st.sampled_from([0, 1, 2, 7, 24, 48]))
    # zeros are drawn often, so whole homogeneous parts vanish (the kernel skips them)
    values = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
    coeffs = arrays(complex, (cap + 1, cap + 1), elements=st.one_of(st.just(0j), values))
    return BiSeries(draw(coeffs), cap), BiSeries(draw(coeffs), cap)


def _live_parts(cap, degrees, seed=None):
    """A series whose nonzero homogeneous parts are exactly those of ``degrees``."""
    rng = np.random.default_rng(cap if seed is None else seed)
    c = rng.standard_normal((cap + 1, cap + 1)) + 1j * rng.standard_normal((cap + 1, cap + 1))
    k = np.add.outer(np.arange(cap + 1), np.arange(cap + 1))
    return BiSeries(np.where(np.isin(k, list(degrees)), c, 0.0), cap)


@settings(max_examples=60, deadline=None)
@given(_operand_pairs())
@example((_live_parts(48, [48]), _live_parts(48, range(49))))  # only the top part of x
@example((_live_parts(7, range(8)), _live_parts(7, [0])))  # only y_0
@example((BiSeries.zeros(24), _live_parts(24, range(25))))
@example((_live_parts(24, range(25)), BiSeries.zeros(24)))
def test_product_matches_reference_loop(pair):
    x, y = pair
    ref = _reference_product(x.coeffs, y.coeffs)
    scale = max(_reference_product(np.abs(x.coeffs), np.abs(y.coeffs)).real.max(), 1e-300)
    assert np.max(np.abs((x * y).coeffs - ref)) <= 1e-13 * scale


# ----------------------------------------------------------------------------
# the curve restriction, degree maxima and z-only product against the
# per-degree loops they replaced
# ----------------------------------------------------------------------------

def _reference_compose(c, wc):
    """a(z, w(z)) by Horner in w with truncated univariate products."""
    D = len(wc) - 1
    res = np.zeros(D + 1, dtype=complex)
    for b in range(D, -1, -1):
        res = np.convolve(res, wc)[: D + 1]
        res += c[:, b]
    return res


def _random_curve(cap, seed, degree):
    rng = np.random.default_rng(seed)
    c = np.zeros(degree + 1, dtype=complex)
    c[1:] = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
    return z_series(c, cap)


def test_compose_w_matches_pointwise_values():
    # total degree 3 in (z, w) and a cubic curve: a(z, w(z)) has degree 9, so
    # at cap 9 nothing is truncated and the restriction is a polynomial identity
    a, wz = _live_parts(9, range(4), seed=1), _random_curve(9, 2, degree=3)
    out = compose_w(a, wz)
    for z in (0.0, 0.05, -0.03 + 0.02j, 0.1j, 0.2 - 0.1j):
        expected = polyval2d(z, polyval(z, wz.coeffs[:, 0]), a.coeffs)
        assert abs(polyval(z, out.coeffs[:, 0]) - expected) <= 1e-14 * max(abs(expected), 1.0)


def test_compose_w_matches_the_horner_loop_per_degree():
    from cmag_wkb.fieldmodel import oscillating_field

    B = oscillating_field((np.pi / 3, -np.pi / 2), cap=48).B_taylor
    cases = [(B, implicit_w(B)), (_live_parts(48, range(49), seed=3), _random_curve(48, 4, degree=48))]
    for a, wz in cases:
        w = wz.coeffs[:, 0]
        majorant = _reference_compose(np.abs(a.coeffs), np.abs(w)).real
        err = np.abs(compose_w(a, wz).coeffs[:, 0] - _reference_compose(a.coeffs, w))
        assert np.all(err <= 1e-14 * majorant)
        assert np.all(np.abs(abs_compose_w(a, wz).coeffs[:, 0] - majorant) <= 1e-14 * majorant)


def _reference_implicit_w(B):
    """The Newton sweep: w_n from the restriction of B~ to the curve known
    through degree n - 1, one ``compose_w`` (and power table) per degree."""
    D = B.cap
    wz = BiSeries.zeros(D)
    for n in range(1, D + 1):
        r = compose_w(B, wz).coeffs[:, 0]
        c = wz.coeffs.copy()
        c[n, 0] -= r[n] / B.coeffs[0, 1]
        wz = BiSeries(c, D)
    return wz


def test_implicit_w_matches_the_newton_sweep_per_degree():
    from cmag_wkb.fieldmodel import oscillating_field

    B = oscillating_field((np.pi / 3, -np.pi / 2), cap=48).B_taylor
    for b in (B, _live_parts(48, range(49), seed=3)):
        ref = _reference_implicit_w(b)
        majorant = abs_compose_w(b, ref).coeffs[:, 0].real
        wz = implicit_w(b)
        assert wz.z_only
        assert np.all(np.abs(wz.coeffs[:, 0] - ref.coeffs[:, 0]) <= 1e-14 * majorant)


def _reference_divide(num, wz):
    """The synthetic division by truncated convolutions, column by column
    from the top, with the majorant columns of the same recursion."""
    D = num.cap
    wc = wz.coeffs[:, 0]
    q = np.zeros((D + 1, D + 1), dtype=complex)
    majorant = np.zeros((D + 1, D + 1))
    for b in range(D - 1, -1, -1):
        q[:, b] = num.coeffs[:, b + 1] + np.convolve(wc, q[:, b + 1])[: D + 1]
        majorant[:, b] = (np.abs(num.coeffs[:, b + 1])
                          + np.convolve(np.abs(wc), majorant[:, b + 1])[: D + 1])
    return q, majorant


def test_exact_division_matches_the_convolution_loop():
    from cmag_wkb.fieldmodel import oscillating_field
    from cmag_wkb.wkb import poisson_series

    B = oscillating_field((np.pi / 3, -np.pi / 2), cap=48).B_taylor
    wz = implicit_w(B)
    dzphi = poisson_series(B).differentiate("z")
    curve = _random_curve(48, 4, degree=48)
    factor = bi([(0, 1, 1.0)], cap=48) - curve
    below = np.add.outer(np.arange(49), np.arange(49)) <= 48
    for num, w in ((dzphi - compose_w(dzphi, wz), wz), (B - compose_w(B, wz), wz),
                   (factor * _live_parts(48, range(49), seed=5), curve)):
        q, majorant = _reference_divide(num, w)
        err = np.abs(exact_divide_by_curve(num, w).coeffs - q)
        assert np.all(err[below] <= 1e-14 * majorant[below])


def test_curve_powers_are_cached_and_read_only():
    wz = _random_curve(12, 5, degree=4)
    W = wz._powers
    assert W is wz._powers and not W.flags.writeable
    with pytest.raises(ValueError):
        W[1, 1] = 0.0
    power = BiSeries.constant(1.0, 12)
    for b in range(13):
        assert np.allclose(W[b], power.coeffs[:, 0], rtol=0, atol=1e-12 * np.abs(W[b]).max())
        power = power * wz
    assert np.allclose(wz._majorant._powers[3], (abs(wz) * abs(wz) * abs(wz)).coeffs[:, 0])
    T = wz._toeplitz
    assert T is wz._toeplitz and not T.flags.writeable
    assert np.allclose(T @ W[2], W[3], rtol=0, atol=1e-12 * np.abs(W[3]).max())  # w * w^2
    assert np.array_equal(wz._majorant._toeplitz, np.abs(T))


@pytest.mark.parametrize("cap", [0, 1, 7, 48])
def test_degree_maxima_is_the_per_part_maximum(cap):
    # exact zeros make some parts vanish whole; max is exact, so the two are equal bit for bit
    for s in (_live_parts(cap, range(cap // 2 + 1)), _live_parts(cap, range(cap + 1), seed=1),
              z_series(_live_parts(cap, range(cap + 1), seed=2).coeffs[:, 0], cap),
              BiSeries.zeros(cap)):
        per_part = np.array([np.abs(p).max() for p in _parts(s)])
        assert np.array_equal(degree_maxima(s), per_part)


@pytest.mark.parametrize("cap", [0, 2, 24, 48])
def test_z_series_times_bivariate_matches_the_embedded_product(cap):
    # a z-only factor's Toeplitz kernel against the dense shifted-block loop
    # of the graded product, in either order
    A = z_series(_live_parts(cap, range(cap + 1), seed=6).coeffs[:, 0], cap)
    J = _live_parts(cap, range(cap + 1), seed=7)
    prod = A * J
    assert np.array_equal(prod.coeffs, (J * A).coeffs)
    scale = _reference_product(np.abs(A.coeffs), np.abs(J.coeffs)).real.max()
    assert np.max(np.abs(prod.coeffs - _reference_product(A.coeffs, J.coeffs))) <= 1e-14 * scale
    above = np.add.outer(np.arange(cap + 1), np.arange(cap + 1)) > cap
    assert np.all(prod.coeffs[above] == 0)
    with pytest.raises(SeriesStructureError):
        A * BiSeries.zeros(cap + 1)


@pytest.mark.parametrize("cap", [0, 2, 24, 48])
def test_z_only_products_keep_their_kernels_bit_for_bit(cap):
    # one z-only factor A: T @ y with T[a, i] = A[a - i] (lower triangular
    # Toeplitz, a strided view of the zero-padded A); two z-only factors:
    # np.convolve of the columns, left operand first
    A = z_series(_live_parts(cap, range(cap + 1), seed=6).coeffs[:, 0], cap)
    G = z_series(_live_parts(cap, range(cap + 1), seed=8).coeffs[:, 0], cap)
    J = _live_parts(cap, range(cap + 1), seed=7)
    T = sliding_window_view(np.r_[np.zeros(cap, dtype=complex), A.coeffs[:, 0]], cap + 1)[:, ::-1]
    assert np.array_equal((A * J).coeffs, BiSeries(T @ J.coeffs, cap).coeffs)
    product = A * G
    assert product.z_only
    assert np.array_equal(product.coeffs[:, 0],
                          np.convolve(A.coeffs[:, 0], G.coeffs[:, 0])[: cap + 1])


def test_z_only_marks_the_series_without_w():
    cap = 6
    wz = _linear_curve(cap)
    for s in (BiSeries.zeros(cap), BiSeries.constant(2.0 - 1j, cap), wz,
              compose_w(bi([(0, 1, 1.0), (1, 1, 0.5), (0, 3, 1j)], cap=cap), wz),
              compose_w(BiSeries.zeros(cap), wz)):
        assert s.z_only
    assert not bi([(0, 1, 1.0)], cap=cap).z_only
    assert not (wz + bi([(3, 2, 1e-300)], cap=cap)).z_only
