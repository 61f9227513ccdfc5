"""Field admissibility data, condition checkers, and the principal symbol."""

import numpy as np
import pytest

from cmag_wkb.cseries import BiSeries, degree_maxima, real_gradient_series
from cmag_wkb.fieldmodel import (
    ConditionCheckConfig,
    GAMMA_CONDITIONS,
    FieldConsistencyError,
    check_C,
    check_H,
    compute_Q,
    exponential_field,
    gamma_scan,
    make_field,
    miller_simon_field,
    oscillating_field,
    polynomial_field,
    poly_partial,
    user_polynomial_field,
)
from paper_checks import weyl_bracket

X0 = (np.pi / 3, -np.pi / 2)


# ----------------------------------------------------------------------------
# Wirtinger data: B_taylor's degree-1 terms, B_jac, and compute_Q's dzbarB
# ----------------------------------------------------------------------------

def taylor_wirtinger(field):
    """(d_z B, d_zbar B) at the base point, read off the complexified series."""
    return complex(field.B_taylor.coeffs[1, 0]), complex(field.B_taylor.coeffs[0, 1])


def test_wirtinger_oscillating_on_admissible_line():
    # at cos(x2) = 0 both Wirtinger derivatives equal cos(x1)/2
    field = oscillating_field(X0, cap=8)
    dz, dzbar = taylor_wirtinger(field)
    expected = 0.5 * np.cos(X0[0])
    assert abs(dz - expected) < 1e-14
    assert abs(dzbar - expected) < 1e-14
    assert abs(compute_Q(field).dzbarB - expected) < 1e-14


def test_wirtinger_constant_field():
    field = polynomial_field(2.0, 0.0, 0.0, R={}, cap=6)
    assert taylor_wirtinger(field) == (0.0, 0.0)
    rep = compute_Q(field)
    assert rep.dzbarB == 0.0 and "dzbar_B_zero" in rep.failed_conditions


def test_wirtinger_pure_w_series():
    # B = x1 - i x2 has B~ = w: derivatives (0, 1)
    field = user_polynomial_field({}, {(2, 0): 0.5, (1, 1): -1j}, cap=6)
    dz, dzbar = taylor_wirtinger(field)
    assert abs(dz) < 1e-14 and abs(dzbar - 1.0) < 1e-14
    assert abs(compute_Q(field).dzbarB - 1.0) < 1e-14


def test_wirtinger_matches_central_differences_on_builtins():
    # B_jac against central differences of B at and around the base point,
    # and its Wirtinger pair there against the Taylor degree-1 terms and the
    # report's dzbarB
    for field in (oscillating_field(X0, cap=8),
                  polynomial_field(1.0, 1j, 1.0, cap=8),
                  miller_simon_field(0.5 - 2j, 2.5, base_point=(-0.4, 0.9), cap=4),
                  exponential_field(0.4, base_point=(0.3, -0.5), cap=4),
                  user_polynomial_field({(2, 1): 1.5j}, {(0, 3): 2.0, (1, 0): 1j},
                                        base_point=(0.4, -0.3), cap=4)):
        x1 = field.base_point[0] + np.array([0.0, 0.05, -0.1])
        x2 = field.base_point[1] + np.array([0.0, -0.07, 0.02])
        d = 1e-4
        B = field.B
        d1_fd = (B(x1 + d, x2) - B(x1 - d, x2)) / (2 * d)
        d2_fd = (B(x1, x2 + d) - B(x1, x2 - d)) / (2 * d)
        d1, d2 = (np.broadcast_to(v, x1.shape) for v in field.B_jac(x1, x2))
        scale = max(np.max(np.abs(d1_fd)), np.max(np.abs(d2_fd)), 1.0)
        assert np.max(np.abs(d1 - d1_fd)) < 1e-7 * scale, field.name
        assert np.max(np.abs(d2 - d2_fd)) < 1e-7 * scale, field.name
        dz, dzbar = 0.5 * (d1[0] - 1j * d2[0]), 0.5 * (d1[0] + 1j * d2[0])
        tz, tzbar = taylor_wirtinger(field)
        assert abs(tz - dz) < 1e-14 * scale and abs(tzbar - dzbar) < 1e-14 * scale, field.name
        assert abs(compute_Q(field).dzbarB - dzbar) < 1e-14 * scale, field.name


def test_A_jac_matches_central_differences_on_builtins():
    # A_jac = (d1A1, d2A1, d1A2, d2A2) against central differences of A at
    # and around the base point
    for field in (oscillating_field(X0, cap=8),
                  polynomial_field(8.0, 0.3 + 1j, 1.0, cap=8),
                  miller_simon_field(1 + 1j, 1.0, cap=4),
                  miller_simon_field(0.5 - 2j, 2.5, base_point=(-0.4, 0.9), cap=4),
                  exponential_field(0.4, base_point=(0.3, -0.5), cap=4),
                  user_polynomial_field({(2, 1): 1.5j}, {(0, 3): 2.0, (1, 0): 1j},
                                        base_point=(0.4, -0.3), cap=4)):
        x1 = field.base_point[0] + np.array([0.0, 0.05, -0.1])
        x2 = field.base_point[1] + np.array([0.0, -0.07, 0.02])
        d = 1e-4
        A = field.A
        d1_fd = [(p - m) / (2 * d) for p, m in zip(A(x1 + d, x2), A(x1 - d, x2))]
        d2_fd = [(p - m) / (2 * d) for p, m in zip(A(x1, x2 + d), A(x1, x2 - d))]
        want = (d1_fd[0], d2_fd[0], d1_fd[1], d2_fd[1])
        got = [np.broadcast_to(v, x1.shape) for v in field.A_jac(x1, x2)]
        scale = max(1.0, *(np.max(np.abs(w)) for w in want))
        for k, (g, w) in enumerate(zip(got, want, strict=True)):
            assert np.max(np.abs(g - w)) < 1e-7 * scale, (field.name, k)


# ----------------------------------------------------------------------------
# admissibility coefficients
# ----------------------------------------------------------------------------

def test_Q_oscillating_closed_form():
    rep = compute_Q(oscillating_field(X0, cap=8))
    assert abs(rep.Q1 - np.sqrt(3) / 4) < 1e-12
    assert abs(rep.Q2) < 1e-12
    assert abs(rep.Q3 - 0.5) < 1e-12
    assert rep.in_gamma


def test_Q_oscillating_matches_half_sine_formulas():
    # Q1 = sin(x1)/2, Q2 = 0, Q3 = -sin(x2)/2 on the admissible line
    for x1 in (0.3, 1.0, 2.5):
        rep = compute_Q(oscillating_field((x1, -np.pi / 2), cap=6))
        assert abs(rep.Q1 - 0.5 * np.sin(x1)) < 1e-12
        assert abs(rep.Q2) < 1e-12
        assert abs(rep.Q3 - 0.5) < 1e-12


def test_Q_polynomial_class_example():
    rep = compute_Q(polynomial_field(1.0, 1j, 1.0, cap=8))
    assert abs(rep.Q1 - 0.25) < 1e-13
    assert abs(rep.Q2) < 1e-13
    assert abs(rep.Q3 - 0.25) < 1e-13
    assert abs(rep.det2 - 1.0 / 16.0) < 1e-13
    assert rep.in_gamma


def test_Q_polynomial_closed_form_determinant():
    # generic coefficients: det2 = a1^2 (b2 c1 - b1 c2) / (4 [(b1-c2)^2 + (b2+c1)^2])
    a, b, c = 3.0, 0.4 + 1.2j, 1.5 - 0.3j
    rep = compute_Q(polynomial_field(a, b, c, cap=8))
    b1, b2, c1, c2 = b.real, b.imag, c.real, c.imag
    expected = a**2 * (b2 * c1 - b1 * c2) / (4 * ((b1 - c2) ** 2 + (b2 + c1) ** 2))
    assert abs(rep.det2 - expected) < 1e-12 * abs(expected)


def test_Q_degenerate_for_real_potentials():
    # Im A == 0 forces Q1 Q3 - Q2^2 = 0
    rng = np.random.default_rng(42)
    for _ in range(20):
        coeffs_a1 = {(m, n): rng.standard_normal()
                     for m in range(3) for n in range(3 - m)}
        coeffs_a2 = {(m, n): rng.standard_normal()
                     for m in range(3) for n in range(3 - m)}
        x0 = tuple(rng.uniform(-1, 1, 2))
        try:
            field = user_polynomial_field(coeffs_a1, coeffs_a2, base_point=x0, cap=4)
        except FieldConsistencyError:
            continue
        rep = compute_Q(field)
        if "dzbar_B_zero" in rep.failed_conditions:
            continue
        assert abs(rep.det2) <= 1e-12 * (abs(rep.Q1) + abs(rep.Q3)) ** 2 + 1e-15
        assert not rep.in_gamma


def test_det2_identity_as_stored():
    rep = compute_Q(polynomial_field(2.0, 1 + 1j, 0.5 - 0.25j, cap=8))
    assert rep.det2 == rep.Q1 * rep.Q3 - rep.Q2**2


def test_gauge_covariance_real_gradient():
    # adding grad(g) with real polynomial g changes no entry of the report
    base_a1 = {(1, 1): 1j, (2, 0): 0.5}
    base_a2 = {(1, 0): 1.0, (0, 2): 0.3j}
    g = {(2, 0): 0.7, (1, 1): -0.4, (0, 3): 0.2}
    ga1 = poly_partial(g, 1)
    ga2 = poly_partial(g, 2)
    a1_shift = dict(base_a1)
    for k, v in ga1.items():
        a1_shift[k] = a1_shift.get(k, 0.0) + v
    a2_shift = dict(base_a2)
    for k, v in ga2.items():
        a2_shift[k] = a2_shift.get(k, 0.0) + v
    x0 = (0.2, -0.1)
    r1 = compute_Q(user_polynomial_field(base_a1, base_a2, base_point=x0, cap=4))
    r2 = compute_Q(user_polynomial_field(a1_shift, a2_shift, base_point=x0, cap=4))
    assert abs(r1.B0 - r2.B0) < 1e-9 * max(1.0, abs(r1.B0))
    assert abs(r1.dzbarB - r2.dzbarB) < 1e-9 * max(1.0, abs(r1.dzbarB))
    for q1, q2 in ((r1.Q1, r2.Q1), (r1.Q2, r2.Q2), (r1.Q3, r2.Q3)):
        assert abs(q1 - q2) < 1e-9 * max(1.0, abs(q1))


def test_rejection_names_conditions():
    # cos(x1) = 0 kills d_zbar B
    rep = compute_Q(oscillating_field((np.pi / 2, -np.pi / 2), cap=6))
    assert not rep.in_gamma
    assert "dzbar_B_zero" in rep.failed_conditions


# ----------------------------------------------------------------------------
# pointwise conditions (C1)/(C2)
# ----------------------------------------------------------------------------

def test_exponential_passes_C2_fails_C1():
    # |Im A|^2 = c^2 |x|^2 e^{2|x|^2} overtakes eps*h*Im B beyond |x| ~ 1.17,
    # so the sampled C2 check is run inside that radius (where the intended
    # bound |Im A|^2 <= (c/2) Im B does hold); C1 has Re B == 0 and fails for
    # any modest constant as soon as the region sees |Im A|^2 > C1.
    h = 1.0
    c = 0.4
    field = exponential_field(c)
    cfg2 = ConditionCheckConfig(epsilon=0.45, C_const=0.0,
                                sample_region=(-0.8, 0.8, -0.8, 0.8),
                                sample_density=96, h=h)
    assert 0.45 > c / (2 * h)
    assert check_C(field, cfg2, which="C2").passed
    cfg1 = ConditionCheckConfig(epsilon=0.9, C_const=1.0,
                                sample_region=(-1.5, 1.5, -1.5, 1.5),
                                sample_density=96, h=h)
    assert not check_C(field, cfg1, which="C1").passed  # for either sign


def test_miller_simon_passes_both():
    field = miller_simon_field(1 + 1j, 1.0)
    region = (-20.0, 20.0, -20.0, 20.0)
    cfg = ConditionCheckConfig(epsilon=0.5, C_const=10.0, sample_region=region,
                               sample_density=128, h=0.5)
    assert check_C(field, cfg, which="C1").passed
    cfg2 = ConditionCheckConfig(epsilon=0.45, C_const=10.0, sample_region=region,
                                sample_density=128, h=0.5)
    assert check_C(field, cfg2, which="C2").passed


def test_real_potential_trivially_passes():
    field = user_polynomial_field({}, {(1, 0): 1.0, (2, 0): 0.5}, cap=4)  # B real >= 1 nearby
    cfg = ConditionCheckConfig(epsilon=0.5, C_const=1.0, sample_region=(-1, 1, -1, 1),
                               sample_density=32, h=1.0)
    v = check_C(field, cfg, which="C1")
    assert v.passed and v.sign == "+" and v.min_slack >= 0.0


def test_check_C_takes_the_sign_with_the_larger_least_slack():
    # A2 = -x1 - x1^2/2 + i x1 x2: on [-1/2, 1/2]^2 Re B = -1 - x1 <= -1/2 and
    # |Im A|^2 = x1^2 x2^2 <= 1/16, so the "-" slack is at least
    # 0.5 * (1/2) - 1/16 > 0 while the "+" slack is negative at every sample
    field = user_polynomial_field({}, {(1, 0): -1.0, (2, 0): -0.5, (1, 1): 1j}, cap=4)
    cfg = ConditionCheckConfig(epsilon=0.5, C_const=0.0, sample_region=(-0.5, 0.5, -0.5, 0.5),
                               sample_density=33, h=1.0)
    v = check_C(field, cfg, which="C1")
    assert v.sign == "-" and v.passed and v.min_slack >= 0.0


def test_epsilon_range_validated():
    cfg = ConditionCheckConfig(epsilon=0.7, C_const=0.0, sample_region=(-1, 1, -1, 1),
                               sample_density=8, h=1.0)
    with pytest.raises(ValueError):
        check_C(exponential_field(0.1), cfg, which="C2")


def test_check_C_refuses_a_field_not_finite_in_the_region():
    # exp(|x|^2) overflows at the corners of [-30, 30]^2: the first sample in
    # row-major order is named and no verdict is read from inf/nan values
    cfg = ConditionCheckConfig(epsilon=0.5, C_const=1.0, sample_region=(-30, 30, -30, 30),
                               sample_density=8, h=1.0)
    with np.errstate(all="raise"):  # the overflow is handled, not warned about
        with pytest.raises(ValueError, match=r"not finite at the sample point \(-30, -30\)"):
            check_C(exponential_field(0.4), cfg, which="C1")
    # on [0, 30]^2 at 4 x 4 points A is finite at (0, 20) and (20, 0), but
    # |Im A|^2 overflows there (its infinite tolerance would pass a -inf
    # slack); (0, 20) comes first in row-major order
    quadrant = ConditionCheckConfig(epsilon=0.4, C_const=1.0, sample_region=(0, 30, 0, 30),
                                    sample_density=4, h=1.0)
    with pytest.raises(ValueError, match=r"not finite at the sample point \(0, 20\)"):
        check_C(exponential_field(0.4), quadrant, which="C2")


# ----------------------------------------------------------------------------
# compactness trends (H1)-(H3)
# ----------------------------------------------------------------------------

def test_exponential_trends():
    field = exponential_field(0.4)
    trends = check_H(field, np.geomspace(0.5, 3.0, 8))
    assert trends["H2"].diverging        # |Im B| = 2c(1+r^2)e^{r^2} -> inf
    assert not trends["H1"].diverging    # Re B == 0
    assert trends["H3"].diverging        # |Im A| = c r e^{r^2} -> inf


def test_H2_without_H3():
    # A2 = x1(x1^8/9 + x2^8) + i x1(x1^2/3 + x2^2): Im B diverges but Im A
    # vanishes on the x1 = 0 axis
    a2 = {(9, 0): 1.0 / 9.0, (1, 8): 1.0, (3, 0): 1j / 3.0, (1, 2): 1j}
    field = user_polynomial_field({}, a2, base_point=(0.5, 0.5), cap=4)
    trends = check_H(field, np.geomspace(1.0, 6.0, 8))
    assert trends["H2"].diverging
    assert not trends["H3"].diverging


def test_bounded_field_all_fail():
    field = miller_simon_field(1 + 1j, 2.0)
    trends = check_H(field, np.geomspace(1.0, 30.0, 8))
    assert not trends["H1"].diverging
    assert not trends["H2"].diverging
    assert not trends["H3"].diverging


def test_H1_reports_sign():
    field = polynomial_field(1.0, 1j, 1.0, cap=8)  # Re B = 1 + x1 + (x1^2+x2^2)^3
    trends = check_H(field, np.geomspace(2.0, 12.0, 8))
    assert trends["H1"].diverging
    assert trends["H1"].sign == "+"


# ----------------------------------------------------------------------------
# principal symbol and Poisson bracket
# ----------------------------------------------------------------------------

def test_symbol_and_bracket_vanish_on_characteristic_set():
    field = oscillating_field(X0, cap=6)
    x = np.array(X0)
    a1, a2 = field.A(*X0)
    xi = np.array([a1.real, a2.real])  # xi = Re A (Im A = 0 here)
    p, bracket = weyl_bracket(field, x, xi)
    assert abs(p) < 1e-9
    assert abs(bracket) < 1e-6


def test_bracket_zero_for_real_potentials():
    field = user_polynomial_field({(2, 0): 1.0}, {(1, 1): 2.0}, cap=4)
    p, bracket = weyl_bracket(field, (0.3, -0.2), (0.1, 0.4))
    assert abs(p.imag) < 1e-12
    assert abs(bracket) < 1e-8


def test_bracket_generic_point_matches_symbolic_oracle():
    # A1 = i x1^2, A2 = x1 x2: hand-differentiated canonical bracket
    field = user_polynomial_field({(2, 0): 1j}, {(1, 1): 1.0}, cap=4)
    x = np.array([0.7, -0.4])
    xi = np.array([0.2, 0.5])
    reA = np.array([0.0, x[0] * x[1]])
    imA = np.array([x[0] ** 2, 0.0])
    v = xi - reA
    # grad_x of <xi - Re A, Im A> and of |xi - Re A|^2 - |Im A|^2
    dreA = np.array([[0.0, 0.0], [x[1], x[0]]])   # dreA[j, k] = d_k Re A_j
    dimA = np.array([[2 * x[0], 0.0], [0.0, 0.0]])
    grad_inner = np.array([
        sum(-dreA[j, k] * imA[j] + v[j] * dimA[j, k] for j in range(2))
        for k in range(2)
    ])
    grad_sq = np.array([
        sum(-2 * v[j] * dreA[j, k] - 2 * imA[j] * dimA[j, k] for j in range(2))
        for k in range(2)
    ])
    oracle = float(2 * v @ (-2 * grad_inner) - grad_sq @ (-2 * imA))
    p, bracket = weyl_bracket(field, x, xi)
    assert abs(bracket - oracle) < 1e-12 * max(1.0, abs(oracle))
    assert abs(bracket) > 1e-3  # genuinely nonzero off the admissible set


# ----------------------------------------------------------------------------
# construction sanity
# ----------------------------------------------------------------------------

def test_consistency_check_rejects_mismatched_taylor():
    good = polynomial_field(1.0, 1j, 1.0, cap=6)
    from dataclasses import replace
    with pytest.raises(FieldConsistencyError):
        replace(good, A=lambda x1, x2: (np.zeros_like(x1), 5.0 * x1))
    # a B_jac of the wrong sign disagrees with B_taylor's degree-1 terms
    for field in (good, oscillating_field(X0, cap=2), miller_simon_field(cap=2),
                  exponential_field(0.4, base_point=(0.3, -0.5), cap=2),
                  user_polynomial_field({(2, 1): 1.5j}, {(0, 3): 2.0, (1, 0): 1j},
                                        base_point=(0.4, -0.3), cap=2)):
        def flipped(x1, x2, f=field):
            return tuple(-v for v in f.B_jac(x1, x2))

        replace(field, B_jac=field.B_jac)  # the unchanged field passes
        with pytest.raises(FieldConsistencyError, match="from B_jac"):
            replace(field, B_jac=flipped)


@pytest.mark.parametrize("change, match", [
    ({"analytic_radius": 0.0}, "analytic_radius must be positive"),
    ({"analytic_radius": np.nan}, "analytic_radius must be positive"),
    ({"B_taylor": BiSeries.zeros(0)}, "at least degree 1"),
], ids=["radius-0", "radius-nan", "B_taylor-cap-0"])
def test_field_spec_refuses_its_range(change, match):
    from dataclasses import replace
    with pytest.raises(ValueError, match=match):
        replace(polynomial_field(1.0, 1j, 1.0, cap=6), **change)


@pytest.mark.parametrize("field", [
    miller_simon_field(1 + 1j, 1.0, cap=16),
    miller_simon_field(0.5 - 2j, 2.5, base_point=(-0.4, 0.9), cap=16),
    exponential_field(0.4, base_point=(0.3, -0.5), cap=24),
    oscillating_field(X0, cap=24),
    oscillating_field((0.7, -1.3), cap=48),
    polynomial_field(8.0, 0.3 + 1j, 1.0, base_point=(0.3, -0.4)),
    user_polynomial_field({(2, 1): 1.5j, (0, 3): -0.5}, {(0, 3): 2.0, (1, 0): 1j, (3, 1): 0.25},
                          base_point=(0.4, -0.3)),
], ids=["miller_simon", "miller_simon_alpha", "exponential_off_origin", "oscillating",
        "oscillating_off_axis_cap48", "polynomial_workhorse_off_origin",
        "user_polynomial_off_origin"])
def test_taylor_pairs_match_callables_on_a_ring(field):
    # A~ and B~ are exact series (power, exp and polynomial arithmetic on the
    # shifted coordinates), so on a ring at half the analytic radius they
    # reproduce A and B to roundoff (relative to max |want|, or absolute
    # where that is 0, as for the polynomial A1), and curl A~ = B~ below the cap
    r = 0.5 * field.analytic_radius
    ang = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    y1, y2 = r * np.cos(ang), r * np.sin(ang)
    x1, x2 = field.base_point[0] + y1, field.base_point[1] + y2
    a1, a2 = field.A_taylor
    for got, want in ((a1, field.A(x1, x2)[0]), (a2, field.A(x1, x2)[1]),
                      (field.B_taylor, field.B(x1, x2))):
        assert np.max(np.abs(got.realify(y1, y2) - want)) < 1e-10 * (np.max(np.abs(want)) or 1.0)
    curl = real_gradient_series(a2)[0] - real_gradient_series(a1)[1] - field.B_taylor
    assert np.max(degree_maxima(curl)[:-2]) < 1e-13 * field.B_taylor.max_abs()


def test_make_field_dispatch():
    assert make_field("oscillating", base_point=X0).name == "oscillating"
    assert make_field("exponential", {"c": 0.2}).name == "exponential"
    with pytest.raises(ValueError):
        make_field("nope")
    # params, base point and cap reach the builder unchanged; what is left
    # out takes the builder's default
    ms = make_field("miller_simon", cap=12)
    assert (ms.B_taylor.cap, ms.base_point) == (12, (1.0, 0.5))
    assert ms.params == {"c": 1 + 1j, "alpha": 1.0}
    ms = make_field("miller_simon", {"alpha": 2.0}, base_point=(-0.4, 0.9), cap=5)
    assert (ms.B_taylor.cap, ms.base_point, ms.params["alpha"]) == (5, (-0.4, 0.9), 2.0)
    with pytest.raises(ValueError, match="avoid the origin"):
        make_field("miller_simon", base_point=(0.0, 0.0))
    with pytest.raises(TypeError):
        make_field("oscillating", {"a": 2.0})
    poly = make_field("polynomial", {"b": 0.5})
    assert poly.params["a"] == 1.0 and poly.params["b"] == 0.5 and poly.params["c"] == 1.0
    # params hold every keyword but base_point and cap: they rebuild the field
    again = make_field(poly.name, poly.params, base_point=poly.base_point, cap=poly.B_taylor.cap)
    assert np.array_equal(again.B_taylor.coeffs, poly.B_taylor.coeffs)


REBUILD_CASES = {
    "oscillating": ({}, X0),
    "polynomial": ({"a": 8.0, "b": 0.3 + 1j}, (0.1, -0.2)),
    "miller_simon": ({"c": 0.5 + 1j, "alpha": 1.5}, (1.0, -0.5)),
    "exponential": ({"c": 0.3}, (0.2, 0.1)),
    "user_polynomial": ({"A1": {(0, 1): -1.0}, "A2": {(1, 0): 1.0 + 0.5j, (2, 1): 0.3}},
                        (0.4, 0.0)),
}


@pytest.mark.parametrize("name", sorted(REBUILD_CASES))
def test_field_pickles_as_its_builder_call(name):
    # the builder call of name, params, base point and cap rebuilds the field
    # bit for bit: the field block of config.json replays the run through it
    params, x0 = REBUILD_CASES[name]
    field = make_field(name, params, base_point=x0, cap=12)
    back = make_field(field.name, field.params, base_point=field.base_point,
                      cap=field.B_taylor.cap)
    assert (back.name, back.params, back.base_point) == (name, field.params, field.base_point)
    assert back.B_taylor.coeffs.tobytes() == field.B_taylor.coeffs.tobytes()
    x1, x2 = x0[0] + np.array([0.1, -0.3, 0.2]), x0[1] + np.array([0.25, 0.05, -0.35])
    for got, want in zip(back.A(x1, x2), field.A(x1, x2)):
        assert np.array_equal(got, want)


def test_miller_simon_jacobian_and_field_at_the_origin():
    # A is C^1 at the origin: A_jac there is (0, -c, c, 0) and B = 2c, while
    # B_jac, B having a kink there, refuses it
    c = 0.5 - 2j
    field = miller_simon_field(c, 2.5, base_point=(-0.4, 0.9), cap=4)
    zero = np.float64(0.0)
    assert tuple(complex(v) for v in field.A_jac(zero, zero)) == (0, -c, c, 0)
    assert complex(field.B(zero, zero)) == 2 * c
    with pytest.raises(ValueError, match="avoid the origin"):
        field.B_jac(zero, zero)


def test_B_is_the_jacobian_curl():
    # B is d1A2 - d2A1 of A_jac and agrees with each builtin's closed form
    x1, x2 = np.meshgrid(np.linspace(-1.3, 1.1, 33), np.linspace(-0.9, 1.4, 33))
    assert np.array_equal(oscillating_field(X0).B(x1, x2), np.sin(x1) + 1j * np.sin(x2))
    r2 = x1**2 + x2**2
    assert np.allclose(exponential_field(0.4).B(x1, x2), 0.8j * (1 + r2) * np.exp(r2),
                       rtol=1e-14, atol=0)
    r = np.sqrt(r2)
    ms = miller_simon_field(1 + 1j, 1.0)
    assert np.allclose(ms.B(x1, x2), (1 + 1j) * (2 / (1 + r) - r / (1 + r) ** 2),
                       rtol=1e-14, atol=0)


def test_div_A_is_the_jacobian_trace():
    # bit for bit the closed-form divergences of the builtins
    x1, x2 = np.meshgrid(np.linspace(-1.3, 1.1, 33), np.linspace(-0.9, 1.4, 33))
    osc = oscillating_field(X0)
    assert np.array_equal(osc.div_A(x1, x2), -np.cos(x1) * x2 - 1j * np.sin(x2))
    assert np.array_equal(exponential_field(0.4).div_A(x1, x2), np.zeros_like(x1) + 0j)
    user = user_polynomial_field({(2, 1): 1.5j}, {(0, 3): 2.0}, cap=6)
    assert np.array_equal(user.div_A(x1, x2), 3j * x1 * x2 + 6.0 * x2**2)


@pytest.mark.parametrize("field", [
    oscillating_field(X0),
    polynomial_field(8.0, 0.3 + 1j, 1.0),
    exponential_field(0.4, (0.2, -0.1)),
    miller_simon_field(1 + 1j, 1.0),
    user_polynomial_field({}, {(1, 0): 1.0, (2, 0): 0.5j}, cap=4),
    user_polynomial_field({(2, 1): 1.5j, (0, 1): -0.5}, {(0, 3): 2.0, (1, 0): 1j}, cap=6),
], ids=lambda f: f.name + ("_empty_A1" if f.params.get("A1") == {} else ""))
def test_field_callables_broadcast_on_an_open_grid(field):
    # the contract numop.apply_L and check_C rely on: on the grid's axes the
    # callables return arrays that broadcast to the dense samples bit for bit
    # (two axis lengths, so a transposed result shows)
    xs = field.base_point[0] + np.linspace(-1.3, 1.1, 61)
    ys = field.base_point[1] + np.linspace(-0.9, 1.4, 47)
    x1, x2 = np.meshgrid(xs, ys, indexing="ij", sparse=True)
    X1, X2 = np.meshgrid(xs, ys, indexing="ij")
    for name in ("A", "A_jac", "div_A", "B", "B_jac"):
        got, want = getattr(field, name)(x1, x2), getattr(field, name)(X1, X2)
        if name in ("div_A", "B"):
            got, want = (got,), (want,)
        for g, w in zip(got, want, strict=True):
            assert w.shape == X1.shape
            assert np.array_equal(np.broadcast_to(g, X1.shape), w), name


@pytest.mark.parametrize("name", sorted(REBUILD_CASES))
def test_compute_Q_at_a_point_is_its_raster_row(name):
    # one field based at the raster's first point gives, at each raster point,
    # the report of a field based there
    params, x0 = REBUILD_CASES[name]
    region = (x0[0] - 0.4, x0[0] + 0.4, x0[1] - 0.4, x0[1] + 0.4)
    field = make_field(name, params, base_point=(region[0], region[2]), cap=2)
    xs, ys, raster = gamma_scan(field, region, 9)
    assert raster.Q1.shape == (9, 9)
    # the same arithmetic on arrays and on numbers, up to the last bits of
    # numpy's vector loops
    tol = 1e-14
    for i, j in ((0, 0), (4, 4), (8, 3), (2, 7), (8, 8)):
        rep = compute_Q(make_field(name, params, base_point=(xs[i], ys[j]), cap=2))
        failed = tuple(c for c, f in zip(GAMMA_CONDITIONS, raster.failed_conditions[:, i, j])
                       if f)
        assert (bool(raster.in_gamma[i, j]), failed) == (rep.in_gamma, rep.failed_conditions)
        for key in ("Q1", "Q2", "Q3", "det2", "imA_norm", "B0", "dzbarB"):
            want = getattr(rep, key)
            assert abs(getattr(raster, key)[i, j] - want) <= tol * max(1.0, abs(want)), key


def test_gamma_scan_refuses_the_first_inconsistent_point():
    # the check a field based at each raster point makes: with A_jac's d1A2,
    # and so B, off by |x|^2 away from the base point, curl A fails it first
    # at (0, 0.5) in row-major order; a B_jac that is infinite from x1 = 1 on
    # is refused at (1, 0)
    from dataclasses import replace
    good = polynomial_field(1.0, 1j, 1.0, cap=2)
    assert gamma_scan(good, (0, 1, 0, 1), 3)[2].in_gamma.shape == (3, 3)

    def A_jac(x1, x2):
        d1a1, d2a1, d1a2, d2a2 = good.A_jac(x1, x2)
        return d1a1, d2a1, d1a2 + x1**2 + x2**2, d2a2

    off = replace(good, A_jac=A_jac)
    with pytest.raises(FieldConsistencyError, match=r"curl A at base point \(0\.0, 0\.5\)"):
        gamma_scan(off, (0, 1, 0, 1), 3)

    def B_jac(x1, x2):
        return tuple(np.where(x1 > 0.7, np.inf, v) for v in good.B_jac(x1, x2))

    with pytest.raises(FieldConsistencyError,
                       match=r"curl A at base point \(1\.0, 0\.0\) .* not finite"):
        gamma_scan(replace(good, B_jac=B_jac), (0, 1, 0, 1), 3)
