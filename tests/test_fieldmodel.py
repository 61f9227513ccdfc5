"""Field admissibility data, condition checkers, and the principal symbol."""

import pickle

import numpy as np
import pytest

from cmag_wkb.cseries import degree_maxima, real_gradient_series
from cmag_wkb.fieldmodel import (
    ConditionCheckConfig,
    FieldConsistencyError,
    check_C,
    check_H,
    compute_Q,
    exponential_field,
    make_field,
    miller_simon_field,
    oscillating_field,
    polynomial_field,
    poly_partial,
    user_polynomial_field,
    weyl_bracket,
    wirtinger_at,
)

X0 = (np.pi / 3, -np.pi / 2)


# ----------------------------------------------------------------------------
# Wirtinger data
# ----------------------------------------------------------------------------

def test_wirtinger_oscillating_on_admissible_line():
    # at cos(x2) = 0 both Wirtinger derivatives equal cos(x1)/2
    field = oscillating_field(X0, cap=8)
    dz, dzbar = wirtinger_at(field)
    expected = 0.5 * np.cos(X0[0])
    assert abs(dz - expected) < 1e-14
    assert abs(dzbar - expected) < 1e-14


def test_wirtinger_constant_field():
    field = polynomial_field(2.0, 0.0, 0.0, R={}, cap=6)
    assert wirtinger_at(field) == (0.0, 0.0)


def test_wirtinger_pure_w_series():
    # B = x1 - i x2 has B~ = w: derivatives (0, 1)
    field = user_polynomial_field({}, {(2, 0): 0.5, (1, 1): -1j}, cap=6)
    dz, dzbar = wirtinger_at(field)
    assert abs(dz) < 1e-14 and abs(dzbar - 1.0) < 1e-14


def test_wirtinger_matches_central_differences_on_builtins():
    for field in (oscillating_field(X0, cap=8),
                  polynomial_field(1.0, 1j, 1.0, cap=8)):
        x1, x2 = field.base_point
        d = 1e-4
        B = field.B
        d1 = (B(x1 + d, x2) - B(x1 - d, x2)) / (2 * d)
        d2 = (B(x1, x2 + d) - B(x1, x2 - d)) / (2 * d)
        dz_fd = 0.5 * (d1 - 1j * d2)
        dzbar_fd = 0.5 * (d1 + 1j * d2)
        dz, dzbar = wirtinger_at(field)
        scale = max(abs(dz), abs(dzbar), 1.0)
        assert abs(dz - dz_fd) < 1e-7 * scale
        assert abs(dzbar - dzbar_fd) < 1e-7 * scale


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
    assert check_C(field, cfg2, which="C2", sign="+").passed
    cfg1 = ConditionCheckConfig(epsilon=0.9, C_const=1.0,
                                sample_region=(-1.5, 1.5, -1.5, 1.5),
                                sample_density=96, h=h)
    assert not check_C(field, cfg1, which="C1", sign="+").passed
    assert not check_C(field, cfg1, which="C1", sign="-").passed


def test_miller_simon_passes_both():
    field = miller_simon_field(1 + 1j, 1.0)
    region = (-20.0, 20.0, -20.0, 20.0)
    cfg = ConditionCheckConfig(epsilon=0.5, C_const=10.0, sample_region=region,
                               sample_density=128, h=0.5)
    assert check_C(field, cfg, which="C1", sign="+").passed
    cfg2 = ConditionCheckConfig(epsilon=0.45, C_const=10.0, sample_region=region,
                                sample_density=128, h=0.5)
    assert check_C(field, cfg2, which="C2", sign="+").passed


def test_real_potential_trivially_passes():
    field = user_polynomial_field({}, {(1, 0): 1.0, (2, 0): 0.5}, cap=4)  # B real >= 1 nearby
    cfg = ConditionCheckConfig(epsilon=0.5, C_const=1.0, sample_region=(-1, 1, -1, 1),
                               sample_density=32, h=1.0)
    v = check_C(field, cfg, which="C1", sign="+")
    assert v.passed and v.min_slack >= 0.0


def test_epsilon_range_validated():
    cfg = ConditionCheckConfig(epsilon=0.7, C_const=0.0, sample_region=(-1, 1, -1, 1))
    with pytest.raises(ValueError):
        check_C(exponential_field(0.1), cfg, which="C2")


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


@pytest.mark.parametrize("field", [
    miller_simon_field(1 + 1j, 1.0, cap=16),
    miller_simon_field(0.5 - 2j, 2.5, base_point=(-0.4, 0.9), cap=16),
    exponential_field(0.4, base_point=(0.3, -0.5), cap=24),
], ids=["miller_simon", "miller_simon_alpha", "exponential_off_origin"])
def test_taylor_pairs_match_callables_on_a_ring(field):
    # A~ and B~ are exact series (power and exp recurrences), so on a ring at
    # half the analytic radius they reproduce A and B to roundoff, and
    # curl A~ = B~ below the cap
    r = 0.5 * field.analytic_radius
    ang = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    y1, y2 = r * np.cos(ang), r * np.sin(ang)
    x1, x2 = field.base_point[0] + y1, field.base_point[1] + y2
    a1, a2 = field.A_taylor()
    for got, want in ((a1, field.A(x1, x2)[0]), (a2, field.A(x1, x2)[1]),
                      (field.B_taylor, field.B(x1, x2))):
        assert np.max(np.abs(got.realify(y1, y2) - want)) < 1e-10 * np.max(np.abs(want))
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


PICKLE_CASES = {
    "oscillating": ({}, X0),
    "polynomial": ({"a": 8.0, "b": 0.3 + 1j}, (0.1, -0.2)),
    "miller_simon": ({"c": 0.5 + 1j, "alpha": 1.5}, (1.0, -0.5)),
    "exponential": ({"c": 0.3}, (0.2, 0.1)),
    "user_polynomial": ({"A1": {(0, 1): -1.0}, "A2": {(1, 0): 1.0 + 0.5j, (2, 1): 0.3}},
                        (0.4, 0.0)),
}


@pytest.mark.parametrize("name", sorted(PICKLE_CASES))
def test_field_pickles_as_its_builder_call(name):
    params, x0 = PICKLE_CASES[name]
    field = make_field(name, params, base_point=x0, cap=12)
    back = pickle.loads(pickle.dumps(field))
    assert (back.name, back.params, back.base_point) == (name, field.params, field.base_point)
    assert back.B_taylor.coeffs.tobytes() == field.B_taylor.coeffs.tobytes()
    x1, x2 = x0[0] + np.array([0.1, -0.3, 0.2]), x0[1] + np.array([0.25, 0.05, -0.35])
    for got, want in zip(back.A(x1, x2), field.A(x1, x2)):
        assert np.array_equal(got, want)


def test_div_A_is_the_jacobian_trace():
    # bit for bit the closed-form divergences of the builtins
    x1, x2 = np.meshgrid(np.linspace(-1.3, 1.1, 33), np.linspace(-0.9, 1.4, 33))
    osc = oscillating_field(X0)
    assert np.array_equal(osc.div_A(x1, x2), -np.cos(x1) * x2 - 1j * np.sin(x2))
    assert np.array_equal(exponential_field(0.4).div_A(x1, x2), np.zeros_like(x1) + 0j)
    user = user_polynomial_field({(2, 1): 1.5j}, {(0, 3): 2.0}, cap=6)
    assert np.array_equal(user.div_A(x1, x2), 3j * x1 * x2 + 6.0 * x2**2)
