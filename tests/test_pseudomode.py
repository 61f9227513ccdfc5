"""Gauge function, cutoff selection, residual ratios, decay fits."""

import logging
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from cmag_wkb.cseries import BiSeries, real_coordinates, real_gradient_series
from cmag_wkb.fieldmodel import compute_Q, oscillating_field, polynomial_field, user_polynomial_field
from cmag_wkb import pseudomode
from cmag_wkb.pseudomode import (
    CutoffSpec,
    GaugeConsistencyError,
    PhaseNotPositiveError,
    Pseudomode,
    QuadratureResolutionError,
    ResidualReport,
    assemble,
    fit_decay,
    make_pseudomode,
    residual_finite_difference,
    residual_series_exact,
    select_cutoff,
    step_jet,
)
from cmag_wkb.wkb import solve_wkb

X0 = (np.pi / 3, -np.pi / 2)

WORK_R = {(6, 0): 0.05, (4, 2): 0.15, (2, 4): 0.15, (0, 6): 0.05}


def workhorse(cap=24):
    return polynomial_field(8.0, 0.3 + 1j, 1.0, R=WORK_R, cap=cap)


@pytest.fixture(scope="module")
def work_setup():
    field = workhorse()
    rep = compute_Q(field)
    sol = solve_wkb(field, N=3)
    pm = make_pseudomode(field, sol, N=1)
    return field, rep, sol, pm


# ----------------------------------------------------------------------------
# cutoff profile
# ----------------------------------------------------------------------------

def test_smooth_step_endpoints_and_monotonicity():
    t = np.linspace(-0.5, 1.5, 101)
    v = step_jet(t)[0]
    assert np.all(v[t <= 0] == 1.0)
    assert np.all(v[t >= 1] == 0.0)
    assert np.all(np.diff(v) <= 1e-12)


def test_smooth_step_prime_matches_fd():
    t = np.linspace(0.05, 0.95, 19)
    d = 1e-6
    fd = (step_jet(t + d)[0] - step_jet(t - d)[0]) / (2 * d)
    assert np.max(np.abs(fd - step_jet(t)[1])) < 1e-7


def test_smooth_step_second_integrates_to_first_derivative():
    # the closed form against the fundamental theorem on a 200-node Gauss rule
    xg, wg = np.polynomial.legendre.leggauss(200)
    for a, b in ((0.1, 0.4), (0.3, 0.7), (0.6, 0.9)):
        t = 0.5 * (b - a) * xg + 0.5 * (b + a)
        s2 = step_jet(t)[2]
        integral = 0.5 * (b - a) * np.sum(wg * s2)
        exact = step_jet(b)[1] - step_jet(a)[1]
        assert abs(integral - exact) <= 1e-13 * np.max(np.abs(s2))
    # where sigma(t) sigma(1 - t) underflows both derivatives are 0, not nan
    flat = np.array([1e-300, 1e-160, 1e-100, 1e-3, 1.0 - 1e-3])
    _, s1, s2 = step_jet(flat)
    assert np.all(s1 == 0.0)
    assert np.all(s2 == 0.0)


def test_cutoff_plateau_and_support():
    cut = CutoffSpec(r_out=1.0, M1=0.2)
    assert cut.r_in == 0.5
    chi, dchi, lapchi = cut.profile(np.array([0.0, 0.2, 0.3, 0.75, 1.1, 1.2]))
    assert chi[0] == 1.0 and chi[2] == 1.0
    assert chi[4] == 0.0
    assert dchi[1] == 0.0 and dchi[5] == 0.0
    assert dchi[3] < 0.0
    assert lapchi[0] == 0.0 and lapchi[5] == 0.0


def test_cutoff_profile_matches_fd():
    # chi' and the radial Laplacian chi'' + chi'/r of the plane function
    # chi(|x|) against central differences of chi on the ring
    cut = CutoffSpec(r_out=1.0, M1=0.2)
    r = np.linspace(0.52, 0.98, 24)
    d = 1e-4
    chi, dchi, lapchi = cut.profile(r)
    up, down = cut.profile(r + d)[0], cut.profile(r - d)[0]
    d1 = (up - down) / (2 * d)
    lap = (up - 2 * chi + down) / d**2 + d1 / r
    assert np.max(np.abs(dchi - d1)) <= 1e-6 * np.max(np.abs(dchi))
    assert np.max(np.abs(lapchi - lap)) <= 1e-5 * np.max(np.abs(lapchi))


# ----------------------------------------------------------------------------
# gauge function
# ----------------------------------------------------------------------------

def _theta(phase, sol, y1, y2):
    """theta = (P - S) / i from the phase evaluator."""
    return (phase(y1, y2) - sol.S.realify(y1, y2)) / 1j


def _canonical_M(sol, y1, y2):
    d1phi, d2phi = real_gradient_series(sol.phi)
    return -d2phi.realify(y1, y2), d1phi.realify(y1, y2)


def _canonical_field(field, sol):
    """The same field in the canonical gauge A := M (so theta == 0)."""
    d1phi, d2phi = real_gradient_series(sol.phi)
    M = (-d2phi, d1phi)
    dM = [d for m in M for d in real_gradient_series(m)]  # d1M1, d2M1, d1M2, d2M2
    x0 = sol.base_point
    return replace(field, A=lambda x1, x2: _canonical_M(sol, x1 - x0[0], x2 - x0[1]),
                   A_jac=lambda x1, x2: tuple(d.realify(x1 - x0[0], x2 - x0[1]) for d in dM),
                   A_taylor=M)


def test_theta_zero_in_canonical_gauge(work_setup):
    field, rep, sol, pm = work_setup
    canon = _canonical_field(field, sol)
    pts = np.array([[0.1, 0.0], [0.0, -0.2], [0.15, 0.1]])
    y1, y2 = (pts - np.array(sol.base_point)).T
    ev = pseudomode._ThetaEvaluator(canon, sol)
    assert np.max(np.abs(_theta(ev, sol, y1, y2))) < 1e-10


def test_theta_gradient_reproduces_gauge_difference(work_setup):
    field, rep, sol, pm = work_setup
    y = np.array([0.21, -0.13])
    d = 1e-5

    def theta(u1, u2):
        return _theta(pm.phase, sol, u1, u2)

    g1 = (theta(y[0] + d, y[1]) - theta(y[0] - d, y[1])) / (2 * d)
    g2 = (theta(y[0], y[1] + d) - theta(y[0], y[1] - d)) / (2 * d)
    m1, m2 = _canonical_M(sol, y[0], y[1])
    a1, a2 = field.A(sol.base_point[0] + y[0], sol.base_point[1] + y[1])
    assert abs(g1 - (m1 - a1)) < 1e-6
    assert abs(g2 - (m2 - a2)) < 1e-6


def _theta_by_quadrature(field, sol, y1, y2, n=64):
    """Reference theta: Gauss rule on (M - A)(x0 + t y) . y with M from phi."""
    x0 = sol.base_point
    tg, twt = np.polynomial.legendre.leggauss(n)
    acc = np.zeros_like(y1, dtype=complex)
    for t, wgt in zip(0.5 * (tg + 1.0), 0.5 * twt):
        m1, m2 = _canonical_M(sol, t * y1, t * y2)
        a1, a2 = field.A(x0[0] + t * y1, x0[1] + t * y2)
        acc = acc + wgt * ((m1 - a1) * y1 + (m2 - a2) * y2)
    return acc


def _oscillating_pm():
    field = oscillating_field(X0, cap=48)
    return make_pseudomode(field, solve_wkb(field, N=1), N=1, delta_override=0.08)


def _workhorse_pm():
    field = workhorse(cap=24)
    return make_pseudomode(field, solve_wkb(field, N=1), N=1)


@pytest.mark.parametrize("make_pm", [_workhorse_pm, _oscillating_pm],
                         ids=["workhorse", "oscillating"])
def test_theta_matches_quadrature_reference(make_pm, monkeypatch):
    pm = make_pm()
    rng = np.random.default_rng(3)
    r = pm.cutoff.r_out * np.sqrt(rng.uniform(0.0, 1.0, 200))
    ang = rng.uniform(0.0, 2 * np.pi, 200)
    y1, y2 = r * np.cos(ang), r * np.sin(ang)
    ref = _theta_by_quadrature(pm.field, pm.sol, y1, y2)
    pm.phase(0.0, 0.0)  # calibrated
    calls = []
    realify = BiSeries.realify

    def counting_realify(self, *args):
        calls.append(self)
        return realify(self, *args)

    monkeypatch.setattr(BiSeries, "realify", counting_realify)
    P = pm.phase(y1, y2)
    assert len(calls) == 1  # S + i T is one series
    monkeypatch.undo()
    theta = (P - pm.sol.S.realify(y1, y2)) / 1j
    assert np.max(np.abs(theta - ref)) <= 1e-12 * np.max(np.abs(ref))


def _cutoff_term_by_gradient_pairs(pm, h, amp, y1, y2):
    """Reference commutator: the gradient pairs of amp and S, M from phi and
    the unit normal n = y / r."""
    sol, cut = pm.sol, pm.cutoff
    r = np.hypot(y1, y2)
    n1, n2 = y1 / r, y2 / r
    _, dchi, lapchi = cut.profile(r)
    E = np.exp(-pm.phase(y1, y2) / h)
    g1, g2 = real_gradient_series(amp)
    dS1, dS2 = real_gradient_series(sol.S)
    m1, m2 = _canonical_M(sol, y1, y2)
    lin1 = dS1.realify(y1, y2) + 1j * m1
    lin2 = dS2.realify(y1, y2) + 1j * m2
    return E * (
        -2.0 * h**2 * dchi * (n1 * g1.realify(y1, y2) + n2 * g2.realify(y1, y2))
        + (-(h**2) * lapchi + 2.0 * h * (lin1 * dchi * n1 + lin2 * dchi * n2))
        * amp.realify(y1, y2)
    )


@pytest.mark.parametrize("make_pm", [_workhorse_pm, _oscillating_pm],
                         ids=["workhorse", "oscillating"])
def test_euler_commutator_matches_gradient_pairs(make_pm):
    pm = make_pm()
    cut = pm.cutoff
    rng = np.random.default_rng(5)
    r = rng.uniform(cut.r_in, cut.r_out, 300)
    ang = rng.uniform(0.0, 2 * np.pi, 300)
    y1, y2 = r * np.cos(ang), r * np.sin(ang)
    for h in (0.1, 0.02):
        N = pm.N_used(h)
        amp = pseudomode._amplitude(pm.sol, h, N)
        got = pseudomode._residual_terms(pm, h, N, amp, y1, y2, lambda s: s.realify(y1, y2))[2]
        ref = _cutoff_term_by_gradient_pairs(pm, h, amp, y1, y2)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_gauge_mismatch_raises():
    # Taylor data and B_jac of the c = 1.3 field paired with the potential of
    # the c = 1 field (B_jac too, or construction refuses the pair)
    other = polynomial_field(1.0, 1j, 1.3)
    field = replace(polynomial_field(1.0, 1j, 1.0), B_taylor=other.B_taylor, B_jac=other.B_jac)
    with pytest.raises(GaugeConsistencyError, match="curl"):
        make_pseudomode(field, solve_wkb(field, N=1), N=1)


def test_one_theta_evaluator_per_pseudomode(monkeypatch):
    # make_pseudomode builds one and hands it to select_cutoff; every later
    # use (residuals, assembly) shares it
    built = []
    init = pseudomode._ThetaEvaluator.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(pseudomode._ThetaEvaluator, "__init__", counting_init)
    field = polynomial_field(1.0, 1j, 1.0, cap=12)
    pm = make_pseudomode(field, solve_wkb(field, N=1), N=1)
    residual_series_exact(pm, 0.1)
    residual_series_exact(pm, 0.05)
    assemble(pm, 0.1)(np.array([0.01, 0.02]), np.array([0.0, -0.01]))
    assert len(built) == 1
    assert built[-1] is pm.phase


def test_theta_second_derivative_identity_oscillating():
    # Im d1^2 theta(0) = -d1 Im A1(x0) (= 0 for the oscillating field)
    field = oscillating_field(X0, cap=20)
    sol = solve_wkb(field, N=1)
    ev = pseudomode._ThetaEvaluator(field, sol)

    def theta(u1, u2):
        return _theta(ev, sol, u1, u2)

    d = 1e-4
    d11 = (theta(d, 0.0) - 2 * theta(0.0, 0.0) + theta(-d, 0.0)) / d**2
    assert abs(d11.imag - 0.0) < 1e-6
    # and the mixed one equals Im B(x0)/2 - d1 Im A2(x0) = -1/2
    d12 = (theta(d, d) - theta(d, -d) - theta(-d, d) + theta(-d, -d)) / (4 * d**2)
    assert abs(d12.imag - (-0.5)) < 1e-5


def test_unresolved_gauge_quadrature_raises():
    # a curl-free term grad(sin(5000 x1)/5000) in A1 leaves B unchanged, but
    # the Taylor pair A~ does not carry it: the gauge check refuses
    base = polynomial_field(1.0, 1j, 1.0, cap=12)

    def A(x1, x2):
        a1, a2 = base.A(x1, x2)
        return a1 + np.cos(5000.0 * x1), a2

    def A_jac(x1, x2):
        d1a1, d2a1, d1a2, d2a2 = base.A_jac(x1, x2)
        return d1a1 - 5000.0 * np.sin(5000.0 * x1), d2a1, d1a2, d2a2

    field = replace(base, A=A, A_jac=A_jac)
    with pytest.raises(GaugeConsistencyError, match="potential A"):
        make_pseudomode(field, solve_wkb(field, N=1), N=1)


# ----------------------------------------------------------------------------
# cutoff selection and the phase/Q-form tie
# ----------------------------------------------------------------------------

def _built_M1(pm):
    """Half the least eigenvalue of the quadratic of the built Re P."""
    c11, c12, c22 = pseudomode._rep_quadratic(pm.phase.P.real_coeffs())
    return 0.5 * float(np.linalg.eigvalsh(np.array([[c11, c12 / 2], [c12 / 2, c22]]))[0])


def test_select_cutoff_positive_definite_case(work_setup):
    field, rep, sol, pm = work_setup
    cut = pm.cutoff
    assert cut.M1 > 0
    assert cut.r_in == pytest.approx(cut.r_out / 2)
    assert cut.M1 == _built_M1(pm)


def test_cutoff_threshold_follows_the_built_phase():
    # where d1 Im A2 + d2 Im A1 != 0 the printed Q2 and the built phase's
    # cross-term differ: M1 is half the built quadratic's least eigenvalue
    # (0.0843), not the printed form's (0.1084), and delta grows to match
    field = polynomial_field(1 + 0.5j, 1j, 1.0, base_point=(0.0, 0.9), cap=24)
    rep = compute_Q(field)
    pm = make_pseudomode(field, solve_wkb(field, N=1), N=1)
    printed = 0.5 * float(np.linalg.eigvalsh(
        np.array([[rep.Q1, -rep.Q2], [-rep.Q2, rep.Q3]]))[0])
    assert printed == pytest.approx(0.1084, abs=5e-5)
    assert pm.cutoff.M1 == _built_M1(pm)
    assert pm.cutoff.M1 == pytest.approx(0.0843, abs=5e-5)
    assert pm.cutoff.r_out == pytest.approx(0.3986, abs=5e-5)


def test_rep_quadratic_matches_gamma_report(work_setup):
    # Re P = Q1 y1^2 - 2 Q2 y1 y2 + Q3 y2^2 + O(|y|^3): P has no part of
    # degree 0 or 1, and its degree-2 part is the report's form
    field, rep, sol, pm = work_setup
    P = pm.phase.P.coeffs
    assert P[0, 0] == 0 and P[1, 0] == 0 and P[0, 1] == 0
    c11, c12, c22 = pseudomode._rep_quadratic(pm.phase.P.real_coeffs())
    assert abs(c11 - rep.Q1) < 1e-8
    assert abs(c12 - (-2 * rep.Q2)) < 1e-8
    assert abs(c22 - rep.Q3) < 1e-8


def test_cutoff_search_reads_the_real_slice_once(work_setup, monkeypatch):
    # the linear part and the quadratic of Re P come from one real_coeffs call
    field, rep, sol, pm = work_setup
    calls = []
    real_coeffs = BiSeries.real_coeffs

    def counting(self):
        calls.append(self)
        return real_coeffs(self)

    monkeypatch.setattr(BiSeries, "real_coeffs", counting)
    assert select_cutoff(pm.phase) == pm.cutoff
    assert len(calls) == 1


def test_oscillating_phase_not_positive_is_diagnosed():
    # the printed Q2 formula and the constructed phase disagree at this point;
    # the fitted Re P quadratic is indefinite and the assembly must refuse
    field = oscillating_field(X0, cap=24)
    assert compute_Q(field).in_gamma  # the printed formulas admit the point...
    sol = solve_wkb(field, N=1)
    with pytest.raises(PhaseNotPositiveError) as exc:
        select_cutoff(pseudomode._ThetaEvaluator(field, sol))
    msg = str(exc.value)
    assert "Q2_eff" in msg and "does not exist" in msg


def test_phase_not_positive_names_the_linear_part():
    # on the oscillating field at (0.4, -2.6) the quadratic of Re P is
    # positive definite; its degree-1 part, Im A(x0), is what refuses
    field = oscillating_field((0.4, -2.6), cap=24)
    im_a = [float(np.imag(a)) for a in field.A(0.4, -2.6)]
    assert im_a == pytest.approx([-0.857, -0.857], abs=5e-4)
    with pytest.raises(PhaseNotPositiveError) as exc:
        make_pseudomode(field, solve_wkb(field, N=1), N=1)
    assert f"linear part ({im_a[0]:.6g}, {im_a[1]:.6g})" in str(exc.value)


def test_select_cutoff_refuses_a_linear_part_before_the_search():
    # on the workhorse at (0.3, 0.9) the quadratic of Re P is positive
    # definite and samples from delta/8 out clear M1 |y|^2, but the linear
    # part Im A(x0) = (0, 0.045) makes Re P negative near x0 along -y2: no
    # radius is searched for, and no override is sampled
    field = polynomial_field(8.0, 0.3 + 1j, 1.0, base_point=(0.3, 0.9), cap=24)
    assert [float(np.imag(a)) for a in field.A(0.3, 0.9)] == pytest.approx([0.0, 0.045])
    phase = pseudomode._ThetaEvaluator(field, solve_wkb(field, N=1))
    for delta in (None, 0.1):
        with pytest.raises(PhaseNotPositiveError,
                           match=r"linear part \(0, 0\.045\) = Im A\(x0\)"):
            select_cutoff(phase, delta_override=delta)


class _StubPhase:
    """A phase evaluator with a given series P and d_max."""

    def __init__(self, P, d_max):
        self.P, self.d_max = P, d_max

    def __call__(self, y1, y2):
        return self.P.realify(y1, y2)


def test_select_cutoff_refuses_indefinite_quadratic_before_the_search():
    # Re P = y1^2 - 0.01 y2^2 + K |y|^4 is indefinite at 0, but with K large
    # every sample at radii >= delta/8 clears 0.5 |y|^2: only the degree-2
    # part of P shows that no disc works
    M1 = 0.5
    d_max = 0.5
    K = 2 * 64 * (M1 + 0.01) / d_max**2
    y1, y2 = real_coordinates(8)
    r2 = y1 * y1 + y2 * y2
    phase = _StubPhase(y1 * y1 - 0.01 * (y2 * y2) + K * (r2 * r2), d_max)
    r = np.linspace(d_max / 8, d_max, 8)[:, None]
    ang = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    assert np.min(phase(r * np.cos(ang), r * np.sin(ang)).real / r**2) >= M1
    with pytest.raises(PhaseNotPositiveError, match=r"\(c11, c12, c22\) = \(1, 0, -0.01\)"):
        select_cutoff(phase)


def test_delta_override_allows_diagnostics():
    field = oscillating_field(X0, cap=24)
    sol = solve_wkb(field, N=1)
    cut = select_cutoff(pseudomode._ThetaEvaluator(field, sol), delta_override=0.08)
    assert cut.r_out == pytest.approx(0.08)


# ----------------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------------

def test_pseudomode_normalized_at_base_point(work_setup):
    field, rep, sol, pm = work_setup
    u = assemble(pm, 0.05)
    val = complex(u(np.array([sol.base_point[0]]), np.array([sol.base_point[1]]))[0])
    assert abs(val - 1.0) < 1e-12  # chi=1, P(x0)=0, a0(x0)=1, a_j(x0)=0


def test_pseudomode_vanishes_outside_support(work_setup):
    field, rep, sol, pm = work_setup
    u = assemble(pm, 0.05)
    r = pm.cutoff.r_out
    xs = np.array([sol.base_point[0] + 1.01 * r, sol.base_point[0] - 2 * r])
    ys = np.array([sol.base_point[1], sol.base_point[1] + 1.5 * r])
    assert np.all(u(xs, ys) == 0.0)


# ----------------------------------------------------------------------------
# residual reports
# ----------------------------------------------------------------------------

def test_norm_refuses_unresolved_scale(monkeypatch):
    # at h = 3e-3 the Gaussian width ~ 0.05 is far below what 8 nodes resolve
    field = polynomial_field(1.0, 1j, 1.0, cap=12)
    pm = make_pseudomode(field, solve_wkb(field, N=1), N=1)
    monkeypatch.setattr(pseudomode, "quadrature_points", lambda h, r_out: 8)
    with pytest.raises(QuadratureResolutionError):
        residual_series_exact(pm, 0.003)
    monkeypatch.setattr(pseudomode, "quadrature_points", lambda h, r_out: 16)
    assert residual_series_exact(pm, 0.003).ratio > 0


def _pointwise_residual(pm, h):
    """u-norm and ratio of the series-exact route evaluated point by point:
    Horner (realify) at each node of the 2n-point Gauss square inside the disc."""
    sol, cut = pm.sol, pm.cutoff
    N = pm.N_used(h)
    amp = pseudomode._amplitude(sol, h, N)
    xg, wg = np.polynomial.legendre.leggauss(2 * pseudomode.quadrature_points(h, cut.r_out))
    x, wx = cut.r_out * xg, cut.r_out * wg
    Y1, Y2 = np.meshgrid(x, x, indexing="ij")
    keep = np.hypot(Y1, Y2) < cut.r_out
    y1, y2, w = Y1[keep], Y2[keep], np.outer(wx, wx)[keep]
    r = np.hypot(y1, y2)
    chi, dchi, lapchi = cut.profile(r)
    E, a = np.exp(-pm.phase(y1, y2) / h), amp.realify(y1, y2)
    u = chi * E * a
    lap_aN = 4.0 * sol.amplitudes[N].differentiate("z").differentiate("w")
    interior = chi * E * h ** (N + 2) * (-lap_aN.realify(y1, y2))
    p, q = np.indices(amp.coeffs.shape)
    r_damp = BiSeries((p + q) * amp.coeffs, amp.cap).realify(y1, y2) / r
    r_lin = BiSeries((p + q) * sol.S.coeffs + (p - q) * sol.phi.coeffs, sol.S.cap).realify(y1, y2) / r
    cutoff_term = E * (-2.0 * h**2 * dchi * r_damp
                       + (-(h**2) * lapchi + 2.0 * h * dchi * r_lin) * a)
    un = float(np.sum(np.abs(u) ** 2 * w))
    rn = float(np.sum(np.abs(interior + cutoff_term) ** 2 * w))
    return math.sqrt(un), math.sqrt(rn / un)


def test_small_h_residual_matches_pointwise_reference():
    # the workhorse at h = 1e-3 (185 k disc nodes): the tensor kernel on the
    # Gauss square against Horner at each node
    field = polynomial_field(8.0, 0.3 + 1j, 1.0)
    pm = make_pseudomode(field, solve_wkb(field, N=2), N=2)
    got = residual_series_exact(pm, 1e-3)
    u_norm, ratio = _pointwise_residual(pm, 1e-3)
    assert abs(got.u_norm - u_norm) <= 1e-10 * u_norm
    assert abs(got.ratio - ratio) <= 1e-10 * ratio


def test_mode_exponential_calls_no_complex_exp(monkeypatch):
    # numpy's complex exp stalls after the tensor kernel's complex matrix
    # product; every route that builds the mode takes exp(-P/h) from real
    # ufuncs instead (BiSeries.exp runs in the solve, before the patch)
    field = polynomial_field(1.0, 1j, 1.0, cap=24)
    pm = make_pseudomode(field, solve_wkb(field, N=1), N=1)
    exp, real_calls = np.exp, []

    def real_only_exp(x, *args, **kwargs):
        assert not np.iscomplexobj(x), "complex np.exp in the mode's exponential"
        real_calls.append(np.shape(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", real_only_exp)
    for h in (0.1, 0.05):
        residual_series_exact(pm, h)
    residual_finite_difference(pm, 0.05, n=64)
    y = np.linspace(-0.5, 0.5, 7)
    assert np.all(np.isfinite(assemble(pm, 0.05)(y, y[::-1])))
    assert real_calls


def test_mode_exponential_matches_complex_exp():
    # the workhorse on (every k-th node per axis of) its coarse Gauss grid,
    # where exp(-P/h) is normal, subnormal and 0; reference numpy's complex exp
    field = polynomial_field(8.0, 0.3 + 1j, 1.0)
    pm = make_pseudomode(field, solve_wkb(field, N=2), N=2)
    tiny = np.finfo(float).tiny
    for h in (0.1, 1e-3, 1e-5):
        n = pseudomode.quadrature_points(h, pm.cutoff.r_out)
        x = pm.cutoff.r_out * pseudomode._gauss_rule(n)[0][:: max(1, n // 600)]
        Y1, Y2 = np.meshgrid(x, x, indexing="ij")
        values = pseudomode._on_grid(x, x, np.hypot(Y1, Y2) < pm.cutoff.r_out)
        amp = pseudomode._amplitude(pm.sol, h, pm.N_used(h))
        E = pseudomode._mode(pm, h, amp, 1.0, values)[0]
        with np.errstate(under="ignore"):
            ref = np.exp(-values(pm.phase.P) / h)
        size = np.abs(ref)
        normal, zero = size >= tiny, size == 0.0
        assert normal.any()
        assert np.max(np.abs(E[normal] - ref[normal]) / size[normal]) <= 1e-15
        assert np.all(np.abs(E[~normal & ~zero]) < tiny)
        assert np.all(E[zero] == 0.0)
        if h < 0.1:
            assert zero.any() and (~normal & ~zero).any()


def test_mode_exponential_keeps_non_finite_values():
    # exp overflows at Re(-P/h) = 800: whatever numpy's complex exp gives as
    # not finite stays so; at 800 + 0i that is inf + 0i against inf + NaN i
    re, im = np.meshgrid([-800.0, 800.0], [0.0, np.pi / 2, 1e6], indexing="ij")
    P = -(re + 1j * im).ravel()
    pm = SimpleNamespace(phase=SimpleNamespace(P="P"))
    values = lambda series: P if series == "P" else np.ones_like(P)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        E = pseudomode._mode(pm, 1.0, "amp", 1.0, values)[0]
        ref = np.exp(-P)
    assert np.all(~np.isfinite(E[~np.isfinite(ref)]))
    assert np.array_equal(E[np.isfinite(ref)], ref[np.isfinite(ref)])
    assert ref[3] == complex(np.inf, 0.0) and np.isinf(E[3].real) and np.isnan(E[3].imag)


def test_residual_report_fields(work_setup):
    field, rep, sol, pm = work_setup
    r = residual_series_exact(pm, 0.05)
    assert r.evaluator == "series_exact"
    assert r.u_norm > 0 and r.ratio == pytest.approx(r.residual_norm / r.u_norm)
    assert r.N_used == 1
    assert r.quadrature_points > 0


def test_one_gauss_rule_per_node_count(work_setup, monkeypatch):
    # two rows on the floor n = 64 of quadrature_points share their two rules
    field, rep, sol, pm = work_setup
    leggauss, calls = np.polynomial.legendre.leggauss, []
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda m: calls.append(m) or leggauss(m))
    pseudomode._gauss_rule.cache_clear()
    for h in (0.1, 0.05):
        assert pseudomode.quadrature_points(h, pm.cutoff.r_out) == 64
        residual_series_exact(pm, h)
    assert calls == [64, 128]
    x, w = pseudomode._gauss_rule(64)
    assert not x.flags.writeable and not w.flags.writeable
    assert all(np.array_equal(a, b) for a, b in zip((x, w), leggauss(64)))


def test_interior_residual_zero_when_top_amplitude_vanishes(constant_field_solution):
    # constant field: a_1 == 0, so the interior term vanishes identically and
    # only cutoff-commutator terms remain (exponentially small in 1/h)
    cap = 18
    sol = constant_field_solution(cap=cap, N=1, trusted_radius=2.0)
    field = user_polynomial_field({(0, 1): -1.0}, {(1, 0): 1.0}, cap=cap)  # A = M, B = 2
    cut = CutoffSpec(r_out=1.0, M1=0.5)
    phase = pseudomode._ThetaEvaluator(field, sol)
    pm = Pseudomode(field=field, sol=sol, cutoff=cut, phase=phase, N=1)
    r1 = residual_series_exact(pm, 0.05)
    assert r1.interior_norm == 0.0
    assert r1.ratio == pytest.approx(r1.cutoff_norm / r1.u_norm)
    # exponential smallness: log(ratio) * h stays below -(1-eps) M1 r_in^2
    r2 = residual_series_exact(pm, 0.025)
    for r in (r1, r2):
        assert math.log(r.ratio) * r.h < -0.5 * cut.M1 * cut.r_in**2
    assert r2.ratio < r1.ratio**1.5  # decays faster than any power


def test_cutoff_locality_on_positive_case(work_setup):
    field, rep, sol, pm = work_setup
    r = residual_series_exact(pm, 0.02)
    assert r.cutoff_norm / r.u_norm < math.exp(-0.5 * pm.cutoff.M1 * pm.cutoff.r_in**2 / 0.02)


def test_gauge_ratio_invariance(work_setup):
    # running in the canonical gauge A := M changes the ratio by < 2%
    field, rep, sol, pm = work_setup
    h = 0.03
    r_orig = residual_series_exact(pm, h)
    canon = _canonical_field(field, sol)
    pm2 = Pseudomode(field=canon, sol=sol, cutoff=pm.cutoff,
                     phase=pseudomode._ThetaEvaluator(canon, sol), N=1)
    r_canon = residual_series_exact(pm2, h)
    assert abs(r_canon.ratio - r_orig.ratio) < 0.02 * r_orig.ratio


def test_fd_evaluator_agrees_with_series():
    # use the spec-scale polynomial field: its h=0.05 ratio sits well above
    # the n=384 discretization floor of the grid operator
    from cmag_wkb.pseudomode import residual_finite_difference

    field = polynomial_field(1.0, 1j, 1.0, cap=24)
    sol = solve_wkb(field, N=1)
    pm = make_pseudomode(field, sol, N=1)
    h = 0.05
    r_series = residual_series_exact(pm, h)
    r_fd = residual_finite_difference(pm, h, n=384)
    assert r_fd.evaluator == "finite_difference"
    assert abs(r_fd.ratio - r_series.ratio) < 0.1 * r_series.ratio


def test_adaptive_rule_and_budget_clip(work_setup, caplog):
    field, rep, sol, pm = work_setup
    pma = Pseudomode(field=field, sol=sol, cutoff=pm.cutoff, phase=pm.phase, m_growth=1.0)
    # (e m h)^(-1/7) at h = 1e-9 is ~ 16, far beyond the computed budget
    import logging

    with caplog.at_level(logging.WARNING):
        n = pma.N_used(1e-9)
    assert n == sol.N
    assert any("clipping" in rec.message for rec in caplog.records)
    assert pma.N_used(0.05) >= 1


def test_fd_route_fixes_its_order_once(caplog):
    # N(h) = floor((e h)^(-1/7)) = 1 at h = 0.1 exceeds the solved order 0:
    # one evaluation clips once, and the record names its h
    field = polynomial_field(1.0, 1j, 1.0, cap=12)
    pm = make_pseudomode(field, solve_wkb(field, N=0), N=0, m_growth=1.0)
    with caplog.at_level(logging.WARNING, logger="cmag_wkb.pseudomode"):
        report = residual_finite_difference(pm, 0.1, n=64)
    clips = [rec.getMessage() for rec in caplog.records if "clipping" in rec.getMessage()]
    assert report.N_used == 0
    assert len(clips) == 1 and "h=0.1" in clips[0]


def test_positive_norm_enforced():
    with pytest.raises(ValueError):
        ResidualReport(h=0.1, N_used=1, u_norm=0.0, residual_norm=1.0, ratio=1.0,
                       evaluator="series_exact", quadrature_points=1)


# ----------------------------------------------------------------------------
# decay fits
# ----------------------------------------------------------------------------

def _fake_reports(hs, ratios):
    return [
        ResidualReport(h=float(h), N_used=1, u_norm=1.0, residual_norm=float(r),
                       ratio=float(r), evaluator="series_exact", quadrature_points=1)
        for h, r in zip(hs, ratios)
    ]


def test_fit_decay_exact_power():
    hs = np.geomspace(0.1, 0.003, 8)
    fit = fit_decay(_fake_reports(hs, hs**3), model="power")
    assert fit.slope == pytest.approx(3.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_decay_exact_stretched():
    hs = np.geomspace(0.1, 0.003, 8)
    fit = fit_decay(_fake_reports(hs, np.exp(-2.0 * hs ** (-1 / 7))), model="stretched")
    assert -fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_decay_refuses_thin_data():
    hs = np.geomspace(0.1, 0.05, 3)
    with pytest.raises(ValueError):
        fit_decay(_fake_reports(hs, hs**2))
    hs = np.geomspace(0.1, 0.05, 5)  # five points but under a decade
    with pytest.raises(ValueError):
        fit_decay(_fake_reports(hs, hs**2))

