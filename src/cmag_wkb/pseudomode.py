"""Cutoff pseudomodes in the original gauge, residual ratios, decay fits.

The phase is P = S + i*theta, where S comes from the series construction and
theta is the gauge function with grad theta = M - A, M = (-d2 phi, d1 phi)
the canonical potential of the Poisson solution.  theta is the radial
homotopy integral int_0^1 (M - A)(x0 + t y) . y dt, normalized to
theta(x0) = 0 (the constant cancels in every ratio).  Both parts are exact
series: i M . y = (z d_z - w d_w) phi, A . y is the product of the field's
Taylor pair A~ with y~ = ((z+w)/2, (z-w)/(2i)), and the integral divides the
degree-k part by k.  Each pseudomode owns one phase evaluator: P is one
series, built once, after one gauge check that A~ is the Taylor data of both
B and the callable A.

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

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cseries import (BiSeries, degree_maxima, degree_scale, real_coordinates,
                      real_gradient_series)
from .fieldmodel import FieldSpec, compute_Q
from .wkb import IDENTITY_RTOL, WKBSolution

log = logging.getLogger(__name__)


class PhaseNotPositiveError(RuntimeError):
    """Re P fails the quadratic lower bound on every candidate disc."""


class QuadratureResolutionError(RuntimeError):
    """The residual grid does not resolve the Gaussian scale sqrt(h)."""


class GaugeConsistencyError(RuntimeError):
    """The Taylor pair A~ disagrees with B~ (curl A~ != B~) or with A."""


class CutoffRadiusError(ValueError):
    """A cutoff radius override outside (0, d_max]."""


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
    M1: float
    M2: float

    def __post_init__(self):
        if not 0 < self.r_in < self.r_out:
            raise ValueError("need 0 < r_in < r_out")
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

    The degree-k part of the integrand carries t^(k-1), so theta is the
    series T + T_A with T[a, b] = -i (a - b) / (a + b) * phi[a, b] and
    T_A[a, b] = -(A~ . y~)[a, b] / (a + b).  P = S + i (T + T_A) is built
    once; ``d_max`` is the largest admissible cutoff radius.
    """

    def __init__(self, field, sol):
        self.field = field
        self.sol = sol
        self.d_max = min(0.5 * field.analytic_radius, 0.95 * sol.trusted_radius)
        self.A_taylor = field.A_taylor()
        phi = sol.phi
        a1, a2 = self.A_taylor
        y1, y2 = real_coordinates(a1.cap, a1.center)
        a, b = np.indices(phi.coeffs.shape)
        T = (-1j * (a - b) * phi.coeffs - (a1 * y1 + a2 * y2).coeffs) / np.maximum(a + b, 1)
        self.P = sol.S + 1j * BiSeries(T, phi.cap, phi.center)
        self._calibrate()

    def _calibrate(self):
        """The gauge check: curl A~ = B~ per degree up to cap - 2, and A~
        reproduces the callable A on rings at 0.3, 0.7 and 1 x d_max."""
        a1, a2 = self.A_taylor
        B = self.field.B_taylor
        d1a2, d2a1 = real_gradient_series(a2)[0], real_gradient_series(a1)[1]
        res = degree_maxima(d1a2 - d2a1 - B)[:B.cap - 1]
        scale = degree_scale([d1a2, d2a1, B])[:B.cap - 1]
        if not np.all(res <= IDENTITY_RTOL * scale):  # a NaN fails too
            k = int(np.argmax(res / scale))
            raise GaugeConsistencyError(
                f"curl A~ - B~ = {res[k]:.3e} at degree {k} exceeds {IDENTITY_RTOL:.0e} x "
                f"{scale[k]:.3e}: the field's Taylor data of B and A disagree"
            )
        ang = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
        r = self.d_max * np.array([[0.3], [0.7], [1.0]])
        y1, y2 = r * np.cos(ang), r * np.sin(ang)
        x0 = self.sol.base_point
        A = self.field.A(x0[0] + y1, x0[1] + y2)
        worst = max(float(np.max(np.abs(ai - ti.realify(y1, y2)))) for ai, ti in zip(A, (a1, a2)))
        tol = 1e-6 * max(1.0, *(float(np.max(np.abs(ai))) for ai in A))
        if not worst <= tol:
            raise GaugeConsistencyError(
                f"|A - A~| = {worst:.3e} > {tol:.1e} on |y| <= d_max = {self.d_max:.3g}: "
                f"the field's Taylor data does not match its potential A"
            )

    def __call__(self, y1, y2):
        return self.P.realify(y1, y2)


def _rep_quadratic(P):
    """(c11, c12, c22) with Re P = c11 y1^2 + c12 y1 y2 + c22 y2^2 + O(|y|^3),
    read off the degree-2 part: on w = conj(z), z^2, zw and w^2 are
    y1^2 - y2^2 + 2i y1 y2, y1^2 + y2^2 and y1^2 - y2^2 - 2i y1 y2."""
    p20, p11, p02 = P.coeffs[2, 0], P.coeffs[1, 1], P.coeffs[0, 2]
    return (float((p20 + p11 + p02).real), float((2j * (p20 - p02)).real),
            float((-p20 + p11 - p02).real))


# ----------------------------------------------------------------------------
# cutoff selection
# ----------------------------------------------------------------------------

def select_cutoff(phase, report=None, delta_override=None, n_angles=64):
    """Pick delta as the largest radius <= d_max = min(analytic_radius/2,
    0.95 trusted radius) with sampled Re P >= M1 |x|^2, M1 = lambda_min(Q)/2;
    ``phase`` is the pseudomode's phase evaluator.

    Raises CutoffRadiusError for an override outside (0, d_max], and
    PhaseNotPositiveError with the exact Re P quadratic when no disc works
    (this is exactly the situation where the printed Q2 formula and the
    constructed phase disagree; both readings are included for diagnosis).
    """
    if report is None:
        report = compute_Q(phase.field)
    Qmat = np.array([[report.Q1, -report.Q2], [-report.Q2, report.Q3]])
    lam_min = float(np.linalg.eigvalsh(Qmat)[0])
    M1 = 0.5 * lam_min
    ang = np.linspace(0.0, 2 * np.pi, n_angles, endpoint=False)
    ca, sa = np.cos(ang), np.sin(ang)

    def reP_over_r2(r):
        return phase(r * ca, r * sa).real / r**2

    d_max = phase.d_max

    if delta_override is not None:
        delta = float(delta_override)
        if not 0 < delta <= d_max:
            raise CutoffRadiusError(
                f"delta override {delta:.6g} outside (0, d_max], d_max = min(analytic_radius/2, "
                f"0.95 trusted_radius) = {d_max:.6g}: the series are not trusted there"
            )
        samples = [reP_over_r2(r) for r in np.linspace(delta / 8, delta, 8)]
        m_lo = float(np.min(samples))
        m_hi = float(np.max(samples))
        if m_lo <= 0:
            log.warning("delta override %.3g: Re P not positive on samples (min ratio %.3g)",
                        delta, m_lo)
        return CutoffSpec(r_in=delta / 2, r_out=delta,
                          M1=max(m_lo, 1e-12) if m_lo > 0 else max(0.5 * lam_min, 1e-12),
                          M2=max(m_hi, 1e-12))

    if lam_min > 0:
        for delta in np.geomspace(d_max, d_max / 64.0, 24):
            radii = np.linspace(delta / 8, delta, 8)
            vals = [reP_over_r2(r) for r in radii]
            if all(np.min(v) >= M1 for v in vals):
                M2 = float(max(np.max(v) for v in vals))
                return CutoffSpec(r_in=delta / 2, r_out=delta, M1=M1, M2=M2)

    # diagnose: the actual quadratic of Re P
    c11, c12, c22 = _rep_quadratic(phase.P)
    eigs = np.linalg.eigvalsh(np.array([[c11, c12 / 2], [c12 / 2, c22]]))
    raise PhaseNotPositiveError(
        f"no disc with Re P >= {M1:.4g}|x|^2: Re P quadratic "
        f"(c11, c12, c22) = ({c11:.6g}, {c12:.6g}, {c22:.6g}), "
        f"eigenvalues {eigs[0]:.4g}, {eigs[1]:.4g}; Q2 printed formula gives "
        f"{report.Q2:.6g}, the constructed phase corresponds to Q2 = {-c12 / 2:.6g}. "
        f"A decaying pseudomode does not exist at this base point."
    )


# ----------------------------------------------------------------------------
# pseudomode
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Pseudomode:
    """A cutoff pseudomode with its phase evaluator, built and checked once.

    It pickles as it is (the field as its builder call), so sweep workers
    receive the checked phase rather than building their own.
    """

    field: FieldSpec
    sol: WKBSolution
    cutoff: CutoffSpec
    phase: _ThetaEvaluator
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


def make_pseudomode(field, sol, report=None, N_rule="fixed", N=1, m_growth=None,
                    delta_override=None):
    phase = _ThetaEvaluator(field, sol)
    cutoff = select_cutoff(phase, report=report, delta_override=delta_override)
    return Pseudomode(field=field, sol=sol, cutoff=cutoff, phase=phase, N_rule=N_rule,
                      N_fixed=N, m_growth=m_growth)


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
