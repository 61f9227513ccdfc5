"""Cutoff pseudomodes in the original gauge, residual ratios, decay fits.

The phase is P = S + i*theta, where S comes from the series construction and
theta is the gauge function with grad theta = M - A, M = (-d2 phi, d1 phi)
the canonical potential of the Poisson solution.  theta is the radial
homotopy integral int_0^1 (M - A)(x0 + t y) . y dt, normalized to
theta(x0) = 0 (the constant cancels in every ratio).  Its M part is one exact
series: i M . y = (z d_z - w d_w) phi, and the integral divides the degree-k
part by k.  Each pseudomode owns one phase evaluator: S + i * (that series)
is one series, built once, and only the closed-form A is integrated by
Gauss-Legendre quadrature along radial segments from the base point.

The pseudomode is u_h = chi * exp(-P/h) * sum_j h^j a_j with a plateau
cutoff chi; the amplitude sum is one series per h.  Its residual splits into
the interior term chi * exp(-P/h) * h^(N+2) * (-Lap a_N) and commutator terms
supported on supp(grad chi).  chi is radial, so these need only the radial
derivatives, and those are Euler operators on the complexified series:
y . grad = z d_z + w d_w, so r d_r amp has coefficients (a+b) amp[a, b] and
r (grad S + i M) . n has coefficients (a+b) S[a, b] + (a-b) phi[a, b].  The
h-linear commutator coefficient is thus assembled in the gauge-invariant
combination grad S + i M (the potential A cancels exactly against
grad theta, which matters numerically when |A(x0)| is large).
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .cseries import BiSeries, real_gradient_series
from .fieldmodel import FieldSpec, compute_Q, curl_fd
from .wkb import WKBSolution

log = logging.getLogger(__name__)


class PhaseNotPositiveError(RuntimeError):
    """Re P fails the quadratic lower bound on every candidate disc."""


class QuadratureResolutionError(RuntimeError):
    """A quadrature is unresolved: the Gaussian scale sqrt(h) by the allowed
    grid, or the gauge integral of A by the largest Gauss rule."""


class GaugeConsistencyError(RuntimeError):
    """M - A is not numerically curl-free: Taylor data does not match A."""


# ----------------------------------------------------------------------------
# smooth plateau cutoff
# ----------------------------------------------------------------------------

def _sigma(t):
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        return np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)


def smooth_step(t):
    """1 for t <= 0, 0 for t >= 1, C-infinity in between."""
    t = np.asarray(t, dtype=float)
    lo, hi = _sigma(t), _sigma(1.0 - t)
    with np.errstate(invalid="ignore"):
        out = np.where(t <= 0.0, 1.0, np.where(t >= 1.0, 0.0, hi / (hi + lo)))
    return out


def _step_interior(t):
    """t where sigma(t) sigma(1 - t) > 0 (0.5 elsewhere: every derivative of
    the step carries that factor, so it is 0 there), sigma at t and 1 - t,
    and the mask."""
    t = np.asarray(t, dtype=float)
    inside = _sigma(t) * _sigma(1.0 - t) > 0.0
    ts = np.where(inside, t, 0.5)
    return ts, _sigma(ts), _sigma(1.0 - ts), inside


def smooth_step_prime(t):
    ts, lo, hi, inside = _step_interior(t)
    g = 1.0 / ts**2 + 1.0 / (1.0 - ts) ** 2
    out = -lo * hi * g / (hi + lo) ** 2
    return np.where(inside, out, 0.0)


def smooth_step_second(t):
    ts, lo, hi, inside = _step_interior(t)
    a, b = 1.0 / ts**2, 1.0 / (1.0 - ts) ** 2
    g = a + b
    g_prime = -2.0 / ts**3 + 2.0 / (1.0 - ts) ** 3
    bracket = (a - b) * g + g_prime - 2.0 * g * (a * lo - b * hi) / (hi + lo)
    out = -lo * hi / (hi + lo) ** 2 * bracket
    return np.where(inside, out, 0.0)


@dataclass(frozen=True)
class CutoffSpec:
    """Plateau cutoff chi(x) = step((|x| - r_in)/(r_out - r_in)) plus the
    verified quadratic bounds M1 |x|^2 <= Re P <= M2 |x|^2 on D(0, r_out)."""

    r_in: float
    r_out: float
    delta: float
    M1: float
    M2: float

    def __post_init__(self):
        if not (0 < self.r_in < self.r_out <= self.delta * (1 + 1e-12)):
            raise ValueError("need 0 < r_in < r_out <= delta")
        if not self.M1 > 0:
            raise ValueError("M1 must be positive")

    def chi(self, r):
        return smooth_step((np.asarray(r) - self.r_in) / (self.r_out - self.r_in))

    def chi_prime(self, r):
        w = self.r_out - self.r_in
        return smooth_step_prime((np.asarray(r) - self.r_in) / w) / w

    def chi_lap(self, r):
        """Radial Laplacian chi'' + chi'/r."""
        w = self.r_out - self.r_in
        t = (np.asarray(r) - self.r_in) / w
        second = smooth_step_second(t) / w**2
        with np.errstate(divide="ignore", invalid="ignore"):
            first_over_r = np.where(r > 0, smooth_step_prime(t) / (w * np.maximum(r, 1e-300)), 0.0)
        return second + first_over_r


# ----------------------------------------------------------------------------
# phase P = S + i theta
# ----------------------------------------------------------------------------

class _ThetaEvaluator:
    """The phase P(y) = S(y) + i theta(y) on arrays of local points, with
    theta(x) = int_0^1 (M - A)(x0 + t y) . y dt.

    The M part of theta is the series T: i M . y = (z d_z - w d_w) phi, and
    the degree-k part of that integrand carries t^(k-1), so
    T[a, b] = -i (a - b) / (a + b) * phi[a, b].  S + i T is one series, built
    once.  The A part is a Gauss rule whose node count adapts once, on a
    spot-check ring, not per call: A is analytic, so a fixed rule is exact to
    roundoff once the count clears the field's scale.
    """

    def __init__(self, field, sol, n_nodes=24, check_radius=None):
        self.field = field
        self.sol = sol
        phi = sol.phi
        a, b = np.indices(phi.coeffs.shape)
        T = -1j * (a - b) / np.maximum(a + b, 1) * phi.coeffs
        self._P = sol.S + 1j * BiSeries(T, phi.cap, phi.center)
        self.n_nodes = n_nodes
        self._calibrated = False
        self._check_radius = check_radius or 0.5 * sol.trusted_radius

    def _quad(self, y1, y2, n):
        """-int_0^1 A(x0 + t y) . y dt by an n-node Gauss rule."""
        tg, twt = np.polynomial.legendre.leggauss(n)
        tt = 0.5 * (tg + 1.0)
        tw = 0.5 * twt
        x0 = self.sol.base_point
        acc = np.zeros(np.broadcast(y1, y2).shape, dtype=complex)
        for t, wgt in zip(tt, tw):
            a1, a2 = self.field.A(x0[0] + t * y1, x0[1] + t * y2)
            acc = acc - wgt * (a1 * y1 + a2 * y2)
        return acc

    def _calibrate(self):
        """Adopt the first n of n_nodes * (1, 2, 4, 8) whose rule agrees with
        the 2n rule to 1e-10 on the check ring; refuse when none does."""
        ang = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
        r = self._check_radius
        y1, y2 = r * np.cos(ang), r * np.sin(ang)
        v = self._quad(y1, y2, self.n_nodes)
        for n in [self.n_nodes * 2**k for k in range(4)]:
            v2 = self._quad(y1, y2, 2 * n)
            err = float(np.max(np.abs(v - v2)))
            if err <= 1e-10 * max(1.0, float(np.max(np.abs(v2)))):
                self.n_nodes = n
                self._calibrated = True
                return
            v = v2
        raise QuadratureResolutionError(
            f"gauge quadrature of A unresolved at n={n}: |I_n - I_2n| = {err:.3e} "
            f"on the check ring |y| = {r:.3g}"
        )

    def __call__(self, y1, y2):
        if not self._calibrated:
            self._calibrate()
        y1 = np.asarray(y1, dtype=float)
        y2 = np.asarray(y2, dtype=float)
        return self._P.realify(y1, y2) + 1j * self._quad(y1, y2, self.n_nodes)

    def check_curl_free(self, radius, tol=1e-6, n_samples=8):
        """curl(M - A) at sample points inside the disc: curl M = Lap phi is
        the series 4 d_z d_w phi, curl A the central difference curl_fd."""
        x0 = self.sol.base_point
        ang = np.linspace(0.0, 2 * np.pi, n_samples, endpoint=False)
        r = radius * np.array([[0.3], [0.7]])
        y1, y2 = r * np.cos(ang), r * np.sin(ang)
        lap_phi = 4.0 * self.sol.phi.differentiate("z").differentiate("w")
        curl = lap_phi.realify(y1, y2) - curl_fd(self.field.A, (x0[0] + y1, x0[1] + y2))
        worst = float(np.max(np.abs(curl)))
        if worst > tol:
            raise GaugeConsistencyError(
                f"curl(M - A) = {worst:.3e} > {tol:.1e}: the field's Taylor data "
                f"does not match its potential A"
            )
        return worst


def _rep_quadratic(phase, r, n_angles):
    """Least-squares (c11, c12, c22) with Re P ~ c11 y1^2 + c12 y1 y2 + c22 y2^2
    on the circle |y| = r."""
    ang = np.linspace(0.0, 2 * np.pi, n_angles, endpoint=False)
    y1, y2 = r * np.cos(ang), r * np.sin(ang)
    rows = np.stack([y1**2, y1 * y2, y2**2], axis=1)
    coef, *_ = np.linalg.lstsq(rows, phase(y1, y2).real, rcond=None)
    return coef


# ----------------------------------------------------------------------------
# cutoff selection
# ----------------------------------------------------------------------------

def select_cutoff(field, sol, report=None, delta_override=None, n_angles=64):
    """Pick delta as the largest radius <= min(analytic_radius/2, trusted
    radius) with sampled Re P >= M1 |x|^2, M1 = lambda_min(Q)/2.

    Raises PhaseNotPositiveError with the fitted Re P quadratic when no disc
    works (this is exactly the situation where the printed Q2 formula and the
    constructed phase disagree; both readings are included for diagnosis).
    """
    if report is None:
        report = compute_Q(field)
    Qmat = np.array([[report.Q1, -report.Q2], [-report.Q2, report.Q3]])
    lam_min = float(np.linalg.eigvalsh(Qmat)[0])
    M1 = 0.5 * lam_min
    phase = _ThetaEvaluator(field, sol)
    ang = np.linspace(0.0, 2 * np.pi, n_angles, endpoint=False)
    ca, sa = np.cos(ang), np.sin(ang)

    def reP_over_r2(r):
        return phase(r * ca, r * sa).real / r**2

    d_max = min(0.5 * field.analytic_radius, 0.95 * sol.trusted_radius)

    if delta_override is not None:
        delta = float(delta_override)
        samples = [reP_over_r2(r) for r in np.linspace(delta / 8, delta, 8)]
        m_lo = float(np.min(samples))
        m_hi = float(np.max(samples))
        if m_lo <= 0:
            log.warning("delta override %.3g: Re P not positive on samples (min ratio %.3g)",
                        delta, m_lo)
        return CutoffSpec(r_in=delta / 2, r_out=delta, delta=delta,
                          M1=max(m_lo, 1e-12) if m_lo > 0 else max(0.5 * lam_min, 1e-12),
                          M2=max(m_hi, 1e-12))

    if lam_min > 0:
        for delta in np.geomspace(d_max, d_max / 64.0, 24):
            radii = np.linspace(delta / 8, delta, 8)
            vals = [reP_over_r2(r) for r in radii]
            if all(np.min(v) >= M1 for v in vals):
                M2 = float(max(np.max(v) for v in vals))
                return CutoffSpec(r_in=delta / 2, r_out=delta, delta=delta, M1=M1, M2=M2)

    # diagnose: fit the actual quadratic of Re P on a small circle
    coef = _rep_quadratic(phase, min(d_max / 8, 0.05), n_angles)
    fitted = np.array([[coef[0], coef[1] / 2], [coef[1] / 2, coef[2]]])
    eigs = np.linalg.eigvalsh(fitted)
    q2_printed = report.Q2
    q2_from_fit = -coef[1] / 2.0
    raise PhaseNotPositiveError(
        f"no disc with Re P >= {M1:.4g}|x|^2: fitted Re P quadratic "
        f"(c11, c12, c22) = ({coef[0]:.6g}, {coef[1]:.6g}, {coef[2]:.6g}), "
        f"eigenvalues {eigs[0]:.4g}, {eigs[1]:.4g}; Q2 printed formula gives "
        f"{q2_printed:.6g}, the constructed phase corresponds to Q2 = {q2_from_fit:.6g}. "
        f"A decaying pseudomode does not exist at this base point."
    )


# ----------------------------------------------------------------------------
# pseudomode
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Pseudomode:
    field: FieldSpec
    sol: WKBSolution
    cutoff: CutoffSpec
    N_rule: str = "fixed"          # "fixed" | "adaptive"
    N_fixed: int = 1
    m_growth: Optional[float] = None

    def __post_init__(self):
        if self.N_rule not in ("fixed", "adaptive"):
            raise ValueError("N_rule must be 'fixed' or 'adaptive'")
        if self.N_rule == "adaptive" and not self.m_growth:
            raise ValueError("adaptive N rule needs m_growth from fit_growth")

    def N_used(self, h):
        if self.N_rule == "fixed":
            n = self.N_fixed
        else:
            n = int(math.floor((math.e * self.m_growth * h) ** (-1.0 / 7.0)))
        if n > self.sol.N:
            log.warning("N(h)=%d exceeds the computed budget N=%d; clipping", n, self.sol.N)
            n = self.sol.N
        return max(n, 0)

    @functools.cached_property
    def phase(self):
        """The phase evaluator of this pseudomode, built and calibrated once."""
        return _ThetaEvaluator(self.field, self.sol)


def make_pseudomode(field, sol, report=None, N_rule="fixed", N=1, m_growth=None,
                    delta_override=None):
    cutoff = select_cutoff(field, sol, report=report, delta_override=delta_override)
    pm = Pseudomode(field=field, sol=sol, cutoff=cutoff, N_rule=N_rule,
                    N_fixed=N, m_growth=m_growth)
    pm.phase.check_curl_free(cutoff.r_out)
    return pm


def _amplitude(sol, h, N):
    """The amplitude sum sum_{j<=N} h^j a_j as one series."""
    return sum((h**j * sol.amplitudes[j] for j in range(1, N + 1)), sol.amplitudes[0])


def _mode(pm, h, amp, y1, y2):
    """exp(-P/h), chi, the amplitude sum amp and u = chi exp(-P/h) amp at
    local points y."""
    E = np.exp(-pm.phase(y1, y2) / h)
    chi = pm.cutoff.chi(np.hypot(y1, y2))
    a = amp.realify(y1, y2)
    return E, chi, a, chi * E * a


def assemble(pm, h):
    """Evaluable u_h(x1, x2) (global coordinates); zero outside D(x0, r_out)."""
    if not h > 0:
        raise ValueError("h must be positive")
    sol, cut = pm.sol, pm.cutoff
    amp = _amplitude(sol, h, pm.N_used(h))

    def u(x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        y1 = x1 - sol.base_point[0]
        y2 = x2 - sol.base_point[1]
        r = np.hypot(y1, y2)
        inside = r < cut.r_out
        out = np.zeros(np.broadcast(y1, y2).shape, dtype=complex)
        if not np.any(inside):
            return out
        out[inside] = _mode(pm, h, amp, y1[inside], y2[inside])[-1]
        return out

    return u


# ----------------------------------------------------------------------------
# residual evaluation (series-exact route)
# ----------------------------------------------------------------------------

def _gl_grid(r_out, n):
    xg, wg = np.polynomial.legendre.leggauss(n)
    x = r_out * xg
    w = r_out * wg
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    W = np.outer(w, w)
    return X1, X2, W


def quadrature_points(h, r_out, n_min=64, factor=8.0):
    return max(n_min, int(math.ceil(factor * r_out / math.sqrt(h))))


@dataclass(frozen=True)
class ResidualReport:
    h: float
    N_used: int
    u_norm: float
    residual_norm: float
    ratio: float
    evaluator: str
    quadrature_points: int
    tail_estimate: float
    interior_norm: float = 0.0
    cutoff_norm: float = 0.0

    def __post_init__(self):
        if not self.u_norm > 0:
            raise ValueError("pseudomode norm must be positive")


def _residual_terms(pm, h, N, amp, y1, y2):
    """u and the pointwise residual of (L_{h,A} - h mu) u_h from series data,
    split into its interior and cutoff terms, amp = sum_{j<=N} h^j a_j:

    residual = e^{-P/h} [ chi h^{N+2} (-Lap a_N) - 2 h^2 chi' d_r(amp)
                          + (-h^2 Lap(chi) + 2h chi' (grad S + i M) . n) amp ]

    with n = y / r; r d_r and r (grad S + i M) . n are the Euler-operator
    series of the module docstring.
    """
    sol, cut = pm.sol, pm.cutoff
    E, chi, a, u = _mode(pm, h, amp, y1, y2)
    r = np.hypot(y1, y2)
    dchi = cut.chi_prime(r)
    lapchi = cut.chi_lap(r)
    lap_aN = 4.0 * sol.amplitudes[N].differentiate("z").differentiate("w")
    interior = chi * E * h ** (N + 2) * (-lap_aN.realify(y1, y2))
    # the radial factors are needed only where grad(chi) != 0, so r > 0
    ring = dchi != 0.0
    yr1, yr2, rr = y1[ring], y2[ring], r[ring]
    p, q = np.indices(amp.coeffs.shape)
    r_damp = BiSeries((p + q) * amp.coeffs, amp.cap, amp.center)
    r_lin = BiSeries((p + q) * sol.S.coeffs + (p - q) * sol.phi.coeffs, sol.S.cap, sol.S.center)
    damp, lin = np.zeros_like(u), np.zeros_like(u)
    damp[ring] = r_damp.realify(yr1, yr2) / rr
    lin[ring] = r_lin.realify(yr1, yr2) / rr
    cutoff_term = E * (
        -2.0 * h**2 * dchi * damp + (-(h**2) * lapchi + 2.0 * h * dchi * lin) * a
    )
    return u, interior, cutoff_term


def residual_series_exact(pm, h, n=None, rtol=0.01):
    """ResidualReport for one h via the series-exact route.

    The residual is evaluated on the doubled grid only; the coarse grid
    serves the Richardson consistency estimate of the u-norm (the residual
    integrand has the same Gaussian scale).  Refuses with
    QuadratureResolutionError when the two u-norms differ by more than rtol.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    cut = pm.cutoff
    N = pm.N_used(h)
    amp = _amplitude(pm.sol, h, N)
    n = n or quadrature_points(h, cut.r_out)

    def disc_nodes(m):
        X1, X2, W = _gl_grid(cut.r_out, m)
        mask = np.hypot(X1, X2) < cut.r_out
        return X1[mask], X2[mask], W[mask]

    y1, y2, w = disc_nodes(n)
    un1 = float(np.sum(np.abs(_mode(pm, h, amp, y1, y2)[-1]) ** 2 * w))
    y1, y2, w = disc_nodes(2 * n)
    u, interior, cutoff_term = _residual_terms(pm, h, N, amp, y1, y2)
    un2, rn2, in2, cn2 = (float(np.sum(np.abs(v) ** 2 * w))
                          for v in (u, interior + cutoff_term, interior, cutoff_term))
    if abs(un2 - un1) > rtol * un2:
        raise QuadratureResolutionError(
            f"residual quadrature unresolved at n={n}: retry with n >= {4 * n}"
        )
    return ResidualReport(
        h=h, N_used=N, u_norm=math.sqrt(un2), residual_norm=math.sqrt(rn2),
        ratio=math.sqrt(rn2 / un2), evaluator="series_exact",
        quadrature_points=(2 * n) ** 2, tail_estimate=pm.sol.tail_bound(cut.r_out),
        interior_norm=math.sqrt(in2), cutoff_norm=math.sqrt(cn2),
    )


def residual_finite_difference(pm, h, n=512, L=None):
    """Cross-check ResidualReport from the independent grid operator."""
    from . import numop

    if L is None:
        L = 2.0 * pm.cutoff.r_out
    grid = numop.Grid2D(L=L, n=n)
    X1, X2 = grid.meshgrid(center=pm.sol.base_point)
    u = assemble(pm, h)(X1, X2)
    gf = numop.GridFunction(values=u, grid=grid)
    Lu = numop.apply_L(pm.field, h, gf, center=pm.sol.base_point)
    res = Lu.values - h * pm.sol.mu * u
    w = grid.spacing**2
    un = math.sqrt(float(np.sum(np.abs(u) ** 2)) * w)
    rn = math.sqrt(float(np.sum(np.abs(res) ** 2)) * w)
    return ResidualReport(
        h=h, N_used=pm.N_used(h), u_norm=un, residual_norm=rn, ratio=rn / un,
        evaluator="finite_difference", quadrature_points=n * n,
        tail_estimate=pm.sol.tail_bound(pm.cutoff.r_out),
    )


# ----------------------------------------------------------------------------
# decay-model fits
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    model: str
    slope: float        # power: d log(ratio)/d log(h); stretched: -C
    constant: float     # fitted intercept
    r_squared: float

    @property
    def C(self):
        return -self.slope


def fit_decay(reports, model="power"):
    """Least-squares fit of log(ratio) against log h (power) or h^(-1/7)
    (stretched).  Needs >= 4 reports spanning at least a decade of h."""
    hs = np.array([r.h for r in reports], dtype=float)
    ratios = np.array([r.ratio for r in reports], dtype=float)
    if len(hs) < 4:
        raise ValueError("need at least 4 reports for a decay fit")
    if hs.max() / hs.min() < 10.0:
        raise ValueError("reports must span at least one decade of h")
    if np.any(ratios <= 0):
        raise ValueError("ratios must be positive for a log fit")
    y = np.log(ratios)
    if model == "power":
        x = np.log(hs)
    elif model == "stretched":
        x = hs ** (-1.0 / 7.0)
    else:
        raise ValueError("model must be 'power' or 'stretched'")
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(model=model, slope=float(coef[0]), constant=float(coef[1]),
                    r_squared=r2)


# ----------------------------------------------------------------------------
# gauge helpers and diagnostics
# ----------------------------------------------------------------------------

def canonical_field(field, sol):
    """The same field in the canonical gauge A := M (so theta == 0)."""
    d1phi, d2phi = real_gradient_series(sol.phi)
    x0 = sol.base_point

    def A(x1, x2):
        y1, y2 = np.asarray(x1) - x0[0], np.asarray(x2) - x0[1]
        return -d2phi.realify(y1, y2), d1phi.realify(y1, y2)

    return replace(field, name=field.name + "_canonical", A=A, A_jac=None)


def amplitude_sum_bound(pm, h, n_samples=64):
    """Fitted C1 with sum_{j>=1} h^j |a_j(x)| <= C1 |x| near the base point."""
    cut, sol = pm.cutoff, pm.sol
    rng = np.random.default_rng(7)
    r = cut.r_out * np.sqrt(rng.uniform(0.001, 1.0, n_samples))
    ang = rng.uniform(0, 2 * np.pi, n_samples)
    y1, y2 = r * np.cos(ang), r * np.sin(ang)
    total = np.zeros(n_samples)
    for j in range(1, pm.N_used(h) + 1):
        total = total + h**j * np.abs(sol.amplitudes[j].realify(y1, y2))
    return float(np.max(total / r))


def rep_quadratic_fit(pm, radius=None, n_angles=64):
    """Fitted quadratic (c11, c12, c22) of Re P on a small circle."""
    r = radius or min(0.05, pm.cutoff.r_out / 8)
    return tuple(float(c) for c in _rep_quadratic(pm.phase, r, n_angles))


def rep_cubic_remainder(pm, report=None, n_samples=128):
    """Fitted K with |Re P(x) - Q(x - x0)| <= K |x - x0|^3 on samples.

    Q is the admissibility quadratic form from the field report; finite K is
    the O(|x|^3) agreement diagnostic (it blows up exactly when the report's
    cross-coefficient and the assembled phase disagree).
    """
    if report is None:
        report = compute_Q(pm.field)
    rng = np.random.default_rng(11)
    r = pm.cutoff.r_out * np.cbrt(rng.uniform(1e-3, 1.0, n_samples))
    ang = rng.uniform(0, 2 * np.pi, n_samples)
    y1, y2 = r * np.cos(ang), r * np.sin(ang)
    reP = pm.phase(y1, y2).real
    Q = report.Q1 * y1**2 - 2 * report.Q2 * y1 * y2 + report.Q3 * y2**2
    return float(np.max(np.abs(reP - Q) / r**3))
