"""Eikonal phase and transport hierarchy: worked values and series identities."""

import pickle

import numpy as np
import pytest

from cmag_wkb.cseries import BiSeries, compose_w, implicit_w
from cmag_wkb.fieldmodel import oscillating_field, polynomial_field, user_polynomial_field
from cmag_wkb.wkb import (
    DegenerateFieldError,
    TransportIdentityError,
    WKBSolution,
    _assert_small_uni,
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
    assert abs(f.coeffs[1]) < 1e-14
    assert abs(2.0 * f.coeffs[2] - expected) < 1e-13 * abs(expected)


def test_constant_field_trivial_phase():
    B = BiSeries.constant(2.0, 12)
    w = implicit_w_or_zero(B)
    phi = poisson_series(B)
    f, S = eikonal_phase(phi, w)
    assert f.max_abs() == 0.0
    expected = BiSeries.from_terms([(1, 1, 0.5)], 12)
    assert np.max(np.abs(S.coeffs - expected.coeffs)) < 1e-15


def implicit_w_or_zero(B):
    from cmag_wkb.cseries import UniSeries
    # constant fields have w == 0 (no z-dependence to cancel)
    if np.all(B.coeffs[:, 1:] == 0) and np.all(B.coeffs[1:, :] == 0):
        return UniSeries.zeros(B.cap)
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
    mu, J, A0, a0 = first_transport(B, phi, w, V, F)
    assert mu == B.coeffs[0, 0]
    assert abs(a0.coeffs[0, 0] - 1.0) < 1e-14
    # d_w J on the curve at the origin: -(1/2) dzbarB / B(0) under the
    # division-normalized V (the quarter-scale of V moves the usual -1/8 here)
    expected = -0.5 * B.coeffs[0, 1] / B.coeffs[0, 0]
    assert abs(J.differentiate("w").coeffs[0, 0] - expected) < 1e-13 * abs(expected)


def test_first_transport_constant_field_trivial():
    B = BiSeries.constant(1.5 - 0.5j, 12)
    w = implicit_w_or_zero(B)
    phi = poisson_series(B)
    V, F = divided_data(phi, B, w)
    mu, J, A0, a0 = first_transport(B, phi, w, V, F)
    one = BiSeries.constant(1.0, 12)
    assert np.max(np.abs(J.coeffs - one.coeffs)) < 1e-14
    assert np.max(np.abs(a0.coeffs - one.coeffs)) < 1e-14
    assert np.max(np.abs(A0.coeffs - np.eye(1, 13)[0])) < 1e-14


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


def test_amplitudes_normalized_at_base():
    sol = solve_wkb(osc_field(24), N=3)
    assert abs(sol.amplitudes[0].coeffs[0, 0] - 1.0) < 1e-14
    for j in range(1, 4):
        assert abs(sol.amplitudes[j].coeffs[0, 0]) < 1e-13


def test_constant_field_amplitudes_vanish():
    B = BiSeries.constant(2.0 + 1j, 18)
    # constant fields are rejected (d_zbar B = 0); build the hierarchy by hand
    w = implicit_w_or_zero(B)
    phi = poisson_series(B)
    V, F = divided_data(phi, B, w)
    mu, J, A0, a0 = first_transport(B, phi, w, V, F)
    from cmag_wkb.wkb import _Workspace, transport_step
    from cmag_wkb.cseries import UniSeries

    fprime = UniSeries.zeros(18)
    ws = _Workspace(B, phi, fprime, w, V, F, mu, J, A0, a0, 17)
    a1 = transport_step(ws, 0)
    assert a1.max_abs() < 1e-14


def test_mu_gauge_independent():
    # two potentials, same Taylor data: identical serialized solutions
    f1 = polynomial_field(1.0, 1j, 1.0, cap=18)
    from dataclasses import replace

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


def test_degree_budget_enforced():
    assert max_transport_order(24) == 6
    with pytest.raises(ValueError):
        solve_wkb(osc_field(12), N=3)  # needs cap >= 15


def test_trusted_degrees_step_down_by_three():
    sol = solve_wkb(osc_field(24), N=3)
    assert sol.trusted_degrees == (23, 20, 17, 14)


# ----------------------------------------------------------------------------
# serialization and growth fit
# ----------------------------------------------------------------------------

def test_solution_round_trip_and_determinism():
    sol1 = solve_wkb(osc_field(18), N=2)
    sol2 = solve_wkb(osc_field(18), N=2)
    t1, t2 = sol1.to_json(), sol2.to_json()
    assert t1 == t2
    # the sweep workers receive the solution pickled
    assert pickle.loads(pickle.dumps(sol1)).to_json() == t1


def test_fit_growth_constant_field_norms():
    B = BiSeries.constant(2.0, 18)
    w = implicit_w_or_zero(B)
    phi = poisson_series(B)
    V, F = divided_data(phi, B, w)
    mu, J, A0, a0 = first_transport(B, phi, w, V, F)
    from cmag_wkb.wkb import _Workspace, transport_step
    from cmag_wkb.cseries import UniSeries

    ws = _Workspace(B, phi, UniSeries.zeros(18), w, V, F, mu, J, A0, a0, 17)
    for j in range(2):
        transport_step(ws, j)
    sol = WKBSolution(
        phi=phi, w_curve=w, f=UniSeries.zeros(18), S=phi, V=V, F=F, J=J, A0=A0,
        amplitudes=tuple(ws.amplitudes), mu=mu, N=2, trusted_radius=1.0,
        trusted_degrees=tuple(ws.trusted), base_point=(0.0, 0.0),
        residual_maxima=ws.residual_maxima,
    )
    fit = fit_growth(sol, polydisc=(0.25, 0.25))
    assert fit.per_j_norms[0] == pytest.approx(1.0)
    assert fit.per_j_norms[1] == pytest.approx(0.0, abs=1e-14)
    assert fit.bound_holds()


def test_fit_growth_bound_holds_by_construction():
    sol = solve_wkb(osc_field(24), N=6)
    fit = fit_growth(sol)
    assert fit.m_fitted > 0 and np.isfinite(fit.m_fitted)
    assert fit.bound_holds()
    assert fit.sigma_fitted <= 7.0  # recorded empirical exponent

@pytest.mark.parametrize("residual", [[0.0, 1e-3, 0.0], [0.0, np.nan, 0.0]],
                         ids=["large", "nan"])
def test_identity_check_rejects(residual):
    with pytest.raises(TransportIdentityError):
        _assert_small_uni(np.array(residual), 2, np.ones(3), "test identity")
