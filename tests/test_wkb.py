"""Eikonal phase and transport hierarchy: worked values and series identities."""

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from conftest import z_series

from cmag_wkb import wkb
from cmag_wkb.cseries import (BiSeries, SeriesDivisionError, check_identity,
                              compose_w, degree_maxima, implicit_w, real_gradient_series)
from cmag_wkb.fieldmodel import (compute_Q, make_field, oscillating_field, polynomial_field,
                                 user_polynomial_field)
from cmag_wkb.wkb import (
    BoundFit,
    DegenerateFieldError,
    TransportIdentityError,
    divided_data,
    eikonal_phase,
    first_transport,
    fit_growth,
    max_transport_order,
    poisson_series,
    solve_wkb,
)

X0 = (np.pi / 3, -np.pi / 2)


def osc_field(cap=24):
    return oscillating_field(X0, cap=cap)


# ----------------------------------------------------------------------------
# Poisson solution
# ----------------------------------------------------------------------------

def test_poisson_constant_field():
    B = BiSeries.constant(3.0 - 1j, 8)
    phi = poisson_series(B)
    expected = BiSeries.from_terms([(1, 1, (3.0 - 1j) / 4)], 8)
    assert np.max(np.abs(phi.coeffs - expected.coeffs)) < 1e-15


def test_poisson_linear_term():
    B = BiSeries.from_terms([(1, 0, 1.0)], 8)  # B~ = z
    phi = poisson_series(B)
    assert abs(phi.coeffs[2, 1] - 1.0 / 8.0) < 1e-15


def test_poisson_defining_identity_random():
    rng = np.random.default_rng(3)
    c = np.zeros((9, 9), dtype=complex)
    for a in range(6):
        for b in range(6 - a):
            c[a, b] = complex(*rng.standard_normal(2))
    B = BiSeries(c, 8)
    phi = poisson_series(B)
    res = 4.0 * phi.differentiate("z").differentiate("w") - B
    mask = np.add.outer(np.arange(9), np.arange(9)) <= 6
    assert np.max(np.abs(res.coeffs[mask])) < 1e-14


def test_poisson_vanishes_on_axes():
    phi = poisson_series(osc_field(12).B_taylor)
    assert np.max(np.abs(phi.coeffs[:, 0])) == 0.0
    assert np.max(np.abs(phi.coeffs[0, :])) == 0.0


# ----------------------------------------------------------------------------
# eikonal phase
# ----------------------------------------------------------------------------

def test_f_derivative_values():
    # f'(0) = 0 and f''(0) = B(0)/2 * dzB/dzbarB(0)
    B = osc_field(16).B_taylor
    w = implicit_w(B)
    phi = poisson_series(B)
    f, S = eikonal_phase(phi, w)
    rho = B.coeffs[1, 0] / B.coeffs[0, 1]
    expected = B.coeffs[0, 0] / 2.0 * rho
    assert f.z_only
    assert abs(f.coeffs[1, 0]) < 1e-14
    assert abs(2.0 * f.coeffs[2, 0] - expected) < 1e-13 * abs(expected)


def test_constant_field_trivial_phase():
    B = BiSeries.constant(2.0, 12)
    w = implicit_w_or_zero(B)
    phi = poisson_series(B)
    f, S = eikonal_phase(phi, w)
    assert f.max_abs() == 0.0
    expected = BiSeries.from_terms([(1, 1, 0.5)], 12)
    assert np.max(np.abs(S.coeffs - expected.coeffs)) < 1e-15


def implicit_w_or_zero(B):
    # constant fields have w == 0 (no z-dependence to cancel)
    if np.all(B.coeffs[:, 1:] == 0) and np.all(B.coeffs[1:, :] == 0):
        return BiSeries.zeros(B.cap)
    return implicit_w(B)


def test_re_S_quadratic_matches_tilde_Q():
    # Re S(x) = Qt1 x1^2 - 2 Qt2 x1 x2 + Qt3 x2^2 + O(|x|^3),
    # with Qt1 = Re[B(1+rho)]/4, Qt2 = Im[B rho]/4, Qt3 = Re[B(1-rho)]/4
    for field in (osc_field(16), polynomial_field(2.0, 0.4 + 1.1j, 1.3 - 0.2j, cap=16)):
        B = field.B_taylor
        w = implicit_w(B)
        _, S = eikonal_phase(poisson_series(B), w)
        B0 = B.coeffs[0, 0]
        rho = B.coeffs[1, 0] / B.coeffs[0, 1]
        qt1 = (B0 * (1 + rho)).real / 4
        qt2 = (B0 * rho).imag / 4
        qt3 = (B0 * (1 - rho)).real / 4
        r = 1e-3
        ang = np.linspace(0, 2 * np.pi, 13)[:-1]
        y1, y2 = r * np.cos(ang), r * np.sin(ang)
        vals = S.realify(y1, y2).real
        rows = np.stack([y1**2, y1 * y2, y2**2], axis=1)
        coef, *_ = np.linalg.lstsq(rows, vals, rcond=None)
        assert np.allclose(coef, [qt1, -2 * qt2, qt3], atol=1e-6)


def test_eikonal_bracket_vanishes():
    # the chosen factorization root: 2 d_w(S - phi) == 0 identically
    B = osc_field(12).B_taylor
    w = implicit_w(B)
    phi = poisson_series(B)
    f, S = eikonal_phase(phi, w)
    diff = S - phi
    assert diff.differentiate("w").max_abs() == 0.0


# ----------------------------------------------------------------------------
# divided data and first transport
# ----------------------------------------------------------------------------

def test_divided_data_constant_field():
    B = BiSeries.constant(2.0, 10)
    w = implicit_w_or_zero(B)
    V, F = divided_data(poisson_series(B), B, w)
    assert F.max_abs() == 0.0
    assert abs(V.coeffs[0, 0] - 0.5) < 1e-15  # B(0)/4


def test_divided_data_linear_field():
    # B~ = a + b z + c w: F == c exactly
    a, b, c = 1.0 + 0.5j, 0.3, 0.8 + 0.1j
    B = BiSeries.from_terms([(0, 0, a), (1, 0, b), (0, 1, c)], 10)
    w = implicit_w(B)
    V, F = divided_data(poisson_series(B), B, w)
    assert abs(F.coeffs[0, 0] - c) < 1e-13
    assert np.max(np.abs(F.coeffs - F.coeffs[0, 0] * np.eye(11, 11, k=0) * 0
                         - BiSeries.constant(c, 10).coeffs)) < 1e-12


def test_V_constant_term_is_quarter_B0():
    B = osc_field(16).B_taylor
    w = implicit_w(B)
    V, _ = divided_data(poisson_series(B), B, w)
    assert abs(V.coeffs[0, 0] - B.coeffs[0, 0] / 4.0) < 1e-14


def test_first_transport_normalizations():
    field = osc_field(20)
    B = field.B_taylor
    w = implicit_w(B)
    phi = poisson_series(B)
    V, F = divided_data(phi, B, w)
    mu, J, _, A0, a0 = first_transport(B, phi, w, V, F)
    assert mu == B.coeffs[0, 0]
    assert abs(a0.coeffs[0, 0] - 1.0) < 1e-14
    # d_w J on the curve at the origin: -(1/2) dzbarB / B(0) under the
    # division-normalized V (the quarter-scale of V moves the usual -1/8 here)
    expected = -0.5 * B.coeffs[0, 1] / B.coeffs[0, 0]
    assert abs(J.differentiate("w").coeffs[0, 0] - expected) < 1e-13 * abs(expected)


def test_critical_hierarchy_stops_at_the_reciprocal_of_dwJ():
    # solve_wkb refuses d_zbar B(0) = 0 first; a constant-field hierarchy
    # built by hand has d_w J = 0 on the curve and stops at its reciprocal
    B = BiSeries.constant(1.5 - 0.5j, 12)
    w = implicit_w_or_zero(B)
    phi = poisson_series(B)
    V, F = divided_data(phi, B, w)
    with pytest.raises(SeriesDivisionError, match="d_w J on curve"):
        first_transport(B, phi, w, V, F)


# ----------------------------------------------------------------------------
# full solve
# ----------------------------------------------------------------------------

def test_solve_identities_oscillating():
    sol = solve_wkb(osc_field(24), N=3)
    assert max(sol.residual_maxima.values()) <= 1e-10
    assert set(sol.residual_maxima) == {
        f"{kind}_{j}" for kind in ("transport", "compatibility") for j in range(4)
    }


def test_solve_identities_polynomial():
    sol = solve_wkb(polynomial_field(1.0, 1j, 1.0, cap=24), N=3)
    assert max(sol.residual_maxima.values()) <= 1e-10


def _extended(field):
    """The field with its series B~ cast to np.clongdouble."""
    B = field.B_taylor
    return replace(field, B_taylor=BiSeries(B.coeffs.astype(np.clongdouble), B.cap))


EXTENDED = np.finfo(np.longdouble).eps < np.finfo(float).eps
needs_extended = pytest.mark.skipif(
    not EXTENDED, reason="np.longdouble is binary64 here: an extended solve witnesses nothing")


@needs_extended
def test_extended_solve_runs_in_clongdouble_and_clears_a_roundoff_refusal():
    # Miller-Simon at D = 42: binary64 roundoff fails the transport check at
    # degree 40; the same solve in extended precision passes every identity
    # check, and every series it returns stays in np.clongdouble
    field = make_field("miller_simon", base_point=(1.0, 0.5), cap=42)
    with pytest.raises(TransportIdentityError, match="transport residual j=0.*degree 40"):
        solve_wkb(field, N=6)
    sol = solve_wkb(_extended(field), N=6)
    assert max(sol.residual_maxima.values()) <= wkb.IDENTITY_RTOL
    series = [sol.phi, sol.w_curve, sol.f, sol.S, sol.V, sol.F, sol.J, sol.A0, *sol.amplitudes]
    assert [s.coeffs.dtype for s in series] == [np.dtype(np.clongdouble)] * 15


@needs_extended
def test_workhorse_first_order_gradient_of_the_laplacian_is_small_and_true():
    # On the workhorse the gradient of Delta a_1 at x0 is about 5e-7 per
    # component, at caps 12, 24 and 36, while its degree-2 part is of order
    # 0.4.  So N = 1 shows a slope of 4.0 (the degree-2 part) at any h a sweep
    # reaches, and the limit N + 2.5 = 3.5 only far below.  The extended solve
    # gives the same gradient: it is a true value, not roundoff.
    for cap in (12, 24, 36):
        field = polynomial_field(8.0, 0.3 + 1j, 1.0, cap=cap)
        grads = []
        for f in (field, _extended(field)):
            lap = 4.0 * solve_wkb(f, N=1).amplitudes[1].differentiate("z").differentiate("w")
            grads.append(np.array([g.coeffs[0, 0] for g in real_gradient_series(lap)]))
        binary64, extended = grads
        assert extended.dtype == np.clongdouble
        assert np.all((1e-7 < abs(binary64)) & (abs(binary64) < 1e-6))
        assert np.all(abs(binary64 - extended) <= 1e-12 * abs(extended))
        assert 0.3 < degree_maxima(lap)[2] < 0.5


def test_amplitudes_normalized_at_base():
    sol = solve_wkb(osc_field(24), N=3)
    assert abs(sol.amplitudes[0].coeffs[0, 0] - 1.0) < 1e-14
    for j in range(1, 4):
        assert abs(sol.amplitudes[j].coeffs[0, 0]) < 1e-13


def test_mu_gauge_independent():
    # two potentials, same Taylor data: identical serialized solutions
    f1 = polynomial_field(1.0, 1j, 1.0, cap=18)
    f2 = replace(f1, A=lambda x1, x2: (np.zeros_like(x1) + 0j,
                                       f1.A(x1, x2)[1]), name="other_gauge")
    s1, s2 = solve_wkb(f1, N=2), solve_wkb(f2, N=2)
    assert s1.to_json() == s2.to_json()


def test_degenerate_inputs_rejected():
    # d_zbar B(0) = 0: oscillating at cos(x1) = 0
    with pytest.raises(DegenerateFieldError):
        solve_wkb(oscillating_field((np.pi / 2, -np.pi / 2), cap=18), N=1)
    # B(0) = 0: oscillating at sin(x1) = 0, sin(x2) = 0
    with pytest.raises(DegenerateFieldError):
        solve_wkb(oscillating_field((0.0, 0.0), cap=18), N=1)


@pytest.mark.parametrize("a, c, condition, named", [
    (1.0, -0.9999999998, "dzbar_B_zero", r"^d_zbar B\(0\) = 0"),  # |b + ic|/2 = 1e-10
    (1e-10, 1.0, "B_zero", r"^B\(0\) = 0"),
])
def test_degeneracy_is_refused_at_the_admissibility_tolerance(a, c, condition, named):
    # between 1e-12 and GAMMA_TOL = 1e-9 the admissibility gate and the
    # solver agree that the base point is critical
    field = polynomial_field(a, 1j, c, cap=12)
    assert condition in compute_Q(field).failed_conditions
    with pytest.raises(DegenerateFieldError, match=named):
        solve_wkb(field, N=1)


def test_degree_budget_enforced():
    assert max_transport_order(24) == 6
    with pytest.raises(ValueError):
        solve_wkb(osc_field(12), N=3)  # needs cap >= 15


def test_trusted_degrees_step_down_by_three():
    sol = solve_wkb(osc_field(24), N=3)
    assert sol.trusted_degrees == (23, 20, 17, 14)


@pytest.mark.parametrize("x0", [(0.0, 0.0), (-1.8, -1.6)])
def test_step_checks_see_a_perturbed_amplitude(monkeypatch, x0):
    # one coefficient of a~_1 moved by 1e-12 of the amplitude's largest
    # coefficient: the floors of step 1 admit roundoff, not this
    verify = wkb._Workspace.verify_step

    def perturbed(ws, j):
        if j == 1:
            c = ws.amplitudes[1].coeffs.copy()
            c[1, 1] += 1e-12 * np.abs(c).max()
            ws.amplitudes[1] = BiSeries(c, c.shape[0] - 1)
        verify(ws, j)

    monkeypatch.setattr(wkb._Workspace, "verify_step", perturbed)
    field = polynomial_field(8.0, 0.3 + 1j, 1.0, base_point=x0, cap=24)
    with pytest.raises(TransportIdentityError, match="j=1: residual"):
        solve_wkb(field, N=2)


def test_transport_check_reads_its_highest_asserted_degree(monkeypatch):
    # the check forms its residual at cap t = trusted - 1: a~_1 moved at
    # z^(t-1) w, which c4 d_w carries to degree t and no lower, still fails
    verify = wkb._Workspace.verify_step
    t = 19  # trusted degree 20 at step 1 of a cap-24 solve

    def perturbed(ws, j):
        if j == 1:
            assert ws.trusted[1] - 1 == t
            c = ws.amplitudes[1].coeffs.copy()
            c[t - 1, 1] += 1e-6 * np.abs(c).max()
            ws.amplitudes[1] = BiSeries(c, c.shape[0] - 1)
        verify(ws, j)

    monkeypatch.setattr(wkb._Workspace, "verify_step", perturbed)
    field = polynomial_field(8.0, 0.3 + 1j, 1.0, cap=24)
    with pytest.raises(TransportIdentityError, match=f"j=1: residual .* at degree {t} "):
        solve_wkb(field, N=2)


def test_transport_check_ratios_match_the_full_cap_products(monkeypatch):
    # the ratios of a D = 48 solve against those of the same checks formed
    # from the full-cap products (the operands left uncut)
    field = osc_field(48)
    cut = solve_wkb(field, N=14).residual_maxima
    monkeypatch.setattr(wkb, "_truncate", lambda series, cap: series)
    full = solve_wkb(field, N=14).residual_maxima
    assert cut.keys() == full.keys()
    assert all(abs(cut[k] - full[k]) <= 1e-15 for k in cut)


@pytest.mark.parametrize("x0", [(0.0, 0.0), (-1.8, -1.6)])
def test_compatibility_check_sees_a_perturbed_A0(monkeypatch, x0):
    # A_0 with its z^1 coefficient moved by 1e-12 of its largest coefficient
    # no longer solves the curve constraint; a~_0 = A_0 J is rebuilt from it
    first = wkb.first_transport

    def perturbed(*args):
        mu, J, u0, A0, a0 = first(*args)
        c = A0.coeffs[:, 0].copy()
        c[1] += 1e-12 * np.abs(c).max()
        A0 = z_series(c, A0.cap)
        return mu, J, u0, A0, A0 * J

    monkeypatch.setattr(wkb, "first_transport", perturbed)
    field = polynomial_field(8.0, 0.3 + 1j, 1.0, base_point=x0, cap=24)
    with pytest.raises(TransportIdentityError, match="compatibility constraint j=0"):
        solve_wkb(field, N=2)


# ----------------------------------------------------------------------------
# serialization and growth fit
# ----------------------------------------------------------------------------

def test_solution_round_trip_and_determinism():
    sol1 = solve_wkb(osc_field(18), N=2)
    sol2 = solve_wkb(osc_field(18), N=2)
    t1, t2 = sol1.to_json(), sol2.to_json()
    assert t1 == t2
    assert pickle.loads(pickle.dumps(sol1)).to_json() == t1


def test_fit_growth_constant_field_norms(constant_field_solution):
    sol = constant_field_solution(cap=18, N=2, trusted_radius=1.0)
    fit = fit_growth(sol)
    assert fit.polydisc == (0.25, 0.25)
    assert fit.per_j_norms[0] == pytest.approx(1.0)
    assert fit.per_j_norms[1] == pytest.approx(0.0, abs=1e-14)
    assert fit.bound_holds()


def test_growth_bound_past_the_float_range_of_j_to_the_7j(constant_field_solution):
    # 30^210 overflows a float; the per-order root m of each norm does not
    fit = fit_growth(constant_field_solution(cap=96, N=30, trusted_radius=1.0))
    assert fit.m_fitted == pytest.approx(1.0) and fit.bound_holds()
    m = 0.01
    norms = [m] + [math.exp((j + 1) * math.log(m) + 7 * j * math.log(j)) for j in range(1, 31)]
    assert norms[-1] > 1e200
    assert BoundFit(m, tuple(norms), (0.25, 0.25), float("nan")).bound_holds()
    assert not BoundFit(m * (1 - 1e-9), tuple(norms), (0.25, 0.25), float("nan")).bound_holds()


def test_fit_growth_bound_holds_by_construction():
    sol = solve_wkb(osc_field(24), N=6)
    fit = fit_growth(sol)
    assert fit.m_fitted > 0 and np.isfinite(fit.m_fitted)
    assert fit.bound_holds()
    assert fit.sigma_fitted <= 7.0  # recorded empirical exponent

@pytest.mark.parametrize("residual, scale", [
    ([0.0, 1e-3, 0.0], [1.0, 1.0, 1.0]),
    ([0.0, np.nan, 0.0], [1.0, 1.0, 1.0]),
    ([0.0, np.inf, 0.0], [1.0, np.inf, 1.0]),
    ([0.0, 1e-12, 0.0], [1e-3, 1e-3, 1e-3]),
], ids=["large", "nan", "inf-over-inf", "small-scale"])
def test_identity_check_rejects(residual, scale):
    with pytest.raises(TransportIdentityError, match="test identity: .* at degree 1 "):
        check_identity("test identity", np.array(residual), [np.array(scale)], 1e-10,
                       TransportIdentityError, upto=2)


def test_identity_check_returns_the_worst_ratio_up_to_its_degree():
    res = np.array([1e-12, -3e-12, 2e-12, 1e-3])
    series = BiSeries.from_terms([(0, 0, 1.0), (1, 0, 2.0), (0, 2, -4.0), (2, 1, 1.0)], 3)
    cases = [
        ([np.array([1.0, 2.0, 4.0, 1.0])], 0.0, 1.5e-12),
        ([series], 0.0, 1.5e-12),  # read per degree: 1, 2, 4, 1
        # the second term sets degree 0; the 2 of degree 1 is carried up
        ([np.array([0.0, 2.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0])], 0.0, 1.5e-12),
        # ratios of 1e-9 against the terms alone; the floor hides them
        ([np.full(4, 1e-3)], 1.0, 3e-12),
    ]
    for terms, floor, worst in cases:
        # the violation at degree 3 lies above upto and passes
        assert check_identity("test identity", res, terms, 1e-10, TransportIdentityError,
                              upto=2, floor=floor) == worst
        with pytest.raises(TransportIdentityError, match="at degree 3 "):
            check_identity("test identity", res, terms, 1e-10, TransportIdentityError,
                           floor=floor)
