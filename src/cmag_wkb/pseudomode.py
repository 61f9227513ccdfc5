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

from .cseries import (BiSeries, check_identity, degree_maxima, real_coordinates,
                      real_gradient_series)
from .fieldmodel import FieldSpec, compute_Q
from .wkb import IDENTITY_RTOL, WKBSolution

log = logging.getLogger(__name__)

#: relative tolerance between the u-norms on the n- and 2n-point Gauss grids
QUAD_RTOL = 0.01


class PhaseNotPositiveError(RuntimeError):
    """Re P fails the quadratic lower bound on every candidate disc."""


class QuadratureResolutionError(RuntimeError):
    """The residual grid does not resolve the Gaussian scale sqrt(h)."""


class GaugeConsistencyError(RuntimeError):
    """The Taylor pair A~ disagrees with B~ (curl A~ != B~) or with A."""


class CutoffRadiusError(ValueError):
    """A cutoff radius override outside (0, d_max], or too small to sample."""


# ----------------------------------------------------------------------------
# smooth plateau cutoff
# ----------------------------------------------------------------------------

def _sigma(t):
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        return np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)


def step_jet(t):
    """The plateau step s(t) with s' and s'': 1 for t <= 0, 0 for t >= 1,
    C-infinity in between, s = sigma(1-t) / (sigma(t) + sigma(1-t)).

    Every derivative carries the factor sigma(t) sigma(1-t); where it is 0
    (the plateau, the exterior, and the ends where it underflows) both
    derivatives are exactly 0.
    """
    t = np.asarray(t, dtype=float)
    lo, hi = _sigma(t), _sigma(1.0 - t)
    with np.errstate(invalid="ignore"):
        step = np.where(t <= 0.0, 1.0, np.where(t >= 1.0, 0.0, hi / (hi + lo)))
    inside = lo * hi > 0.0
    # off the mask, t = 0.5 and sigma = 1 keep the discarded arithmetic finite
    ts = np.where(inside, t, 0.5)
    lo, hi = np.where(inside, lo, 1.0), np.where(inside, hi, 1.0)
    a, b = 1.0 / ts**2, 1.0 / (1.0 - ts) ** 2
    g = a + b
    prime = -lo * hi * g / (hi + lo) ** 2
    g_prime = -2.0 / ts**3 + 2.0 / (1.0 - ts) ** 3
    bracket = (a - b) * g + g_prime - 2.0 * g * (a * lo - b * hi) / (hi + lo)
    second = -lo * hi / (hi + lo) ** 2 * bracket
    return step, np.where(inside, prime, 0.0), np.where(inside, second, 0.0)


@dataclass(frozen=True)
class CutoffSpec:
    """Plateau cutoff chi(x) = step((|x| - r_in)/(r_out - r_in)) with
    r_in = r_out/2, plus the verified quadratic lower bound M1 |x|^2 <= Re P
    on D(0, r_out)."""

    r_out: float
    M1: float

    def __post_init__(self):
        if not 0 < self.r_in < self.r_out:
            raise ValueError("need 0 < r_in < r_out")
        if not self.M1 > 0:
            raise ValueError("M1 must be positive")

    @property
    def r_in(self):
        return self.r_out / 2

    def profile(self, r):
        """chi, chi' and the radial Laplacian chi'' + chi'/r at radii r."""
        r_in = self.r_in
        w = self.r_out - r_in
        s, s1, s2 = step_jet((np.asarray(r) - r_in) / w)
        with np.errstate(divide="ignore", invalid="ignore"):
            first_over_r = np.where(r > 0, s1 / (w * np.maximum(r, 1e-300)), 0.0)
        return s, s1 / w, s2 / w**2 + first_over_r


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
        y1, y2 = real_coordinates(a1.cap)
        a, b = np.indices(phi.coeffs.shape)
        T = (-1j * (a - b) * phi.coeffs - (a1 * y1 + a2 * y2).coeffs) / np.maximum(a + b, 1)
        self.P = sol.S + 1j * BiSeries(T, phi.cap)
        self._calibrate()

    def _calibrate(self):
        """The gauge check: curl A~ = B~ per degree up to cap - 2, and A~
        reproduces the callable A on rings at 0.3, 0.7 and 1 x d_max."""
        a1, a2 = self.A_taylor
        B = self.field.B_taylor
        d1a2, d2a1 = real_gradient_series(a2)[0], real_gradient_series(a1)[1]
        check_identity("curl A~ = B~ (the field's Taylor data of B and A)",
                       degree_maxima(d1a2 - d2a1 - B), [d1a2, d2a1, B],
                       IDENTITY_RTOL, GaugeConsistencyError, upto=B.cap - 2)
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
    the real parts of P's degree-2 coefficients in y (``real_coeffs``)."""
    R = P.real_coeffs()
    return float(R[2, 0].real), float(R[1, 1].real), float(R[0, 2].real)


# ----------------------------------------------------------------------------
# cutoff selection
# ----------------------------------------------------------------------------

def _reP_over_r2_min(phase, delta):
    """Min of Re P / r^2 over 8 circles r = delta/8, ..., delta of 64 angles
    each, in one call of the phase evaluator ``phase``; not finite (and no
    warning) where r^2 underflows."""
    r = np.linspace(delta / 8, delta, 8)[:, None]
    ang = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.min(phase(r * np.cos(ang), r * np.sin(ang)).real / r**2))


def select_cutoff(phase, report=None, delta_override=None):
    """Pick delta as the largest radius <= d_max = min(analytic_radius/2,
    0.95 trusted radius) with sampled Re P >= M1 |x|^2, M1 = lambda_min(Q)/2;
    ``phase`` is the pseudomode's phase evaluator.

    Raises CutoffRadiusError for an override outside (0, d_max] or one so
    small that the sampled Re P / |x|^2 is not finite, and
    PhaseNotPositiveError with the exact Re P quadratic when no disc works:
    at once when that quadratic (the degree-2 part of P) is not positive
    definite, else after the search (this is exactly the situation where the
    printed Q2 formula and the constructed phase disagree; both readings are
    included for diagnosis).
    """
    if report is None:
        report = compute_Q(phase.field)
    Qmat = np.array([[report.Q1, -report.Q2], [-report.Q2, report.Q3]])
    lam_min = float(np.linalg.eigvalsh(Qmat)[0])
    M1 = 0.5 * lam_min
    d_max = phase.d_max

    if delta_override is not None:
        delta = float(delta_override)
        if not 0 < delta <= d_max:
            raise CutoffRadiusError(
                f"delta override {delta:.6g} outside (0, d_max], d_max = min(analytic_radius/2, "
                f"0.95 trusted_radius) = {d_max:.6g}: the series are not trusted there"
            )
        m_lo = _reP_over_r2_min(phase, delta)
        if not math.isfinite(m_lo):
            raise CutoffRadiusError(
                f"delta override {delta:.6g}: Re P / |x|^2 is not finite on the samples "
                f"(|x|^2 underflows); the cutoff radius is too small"
            )
        if m_lo <= 0:
            log.warning("delta override %.3g: Re P not positive on samples (min ratio %.3g)",
                        delta, m_lo)
        return CutoffSpec(r_out=delta,
                          M1=max(m_lo, 1e-12) if m_lo > 0 else max(0.5 * lam_min, 1e-12))

    # the actual quadratic of Re P: no disc works unless it is positive definite
    c11, c12, c22 = _rep_quadratic(phase.P)
    eigs = np.linalg.eigvalsh(np.array([[c11, c12 / 2], [c12 / 2, c22]]))
    if lam_min > 0 and eigs[0] > 0:
        for delta in np.geomspace(d_max, d_max / 64.0, 24):
            if _reP_over_r2_min(phase, delta) >= M1:
                return CutoffSpec(r_out=delta, M1=M1)

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

    The order is N when ``m_growth`` is None, else floor((e m_growth h)^(-1/7)),
    clipped to the solved order.
    """

    field: FieldSpec
    sol: WKBSolution
    cutoff: CutoffSpec
    phase: _ThetaEvaluator
    N: int = 1
    m_growth: Optional[float] = None

    def __post_init__(self):
        if self.m_growth is not None and not self.m_growth > 0:
            raise ValueError(f"adaptive N rule needs m_growth > 0, got {self.m_growth}")

    def N_used(self, h):
        if self.m_growth is None:
            n = self.N
        else:
            n = int(math.floor((math.e * self.m_growth * h) ** (-1.0 / 7.0)))
        if n > self.sol.N:
            log.warning("N(h)=%d exceeds the computed budget N=%d; clipping", n, self.sol.N)
            n = self.sol.N
        return max(n, 0)


def make_pseudomode(field, sol, report=None, N=1, m_growth=None, delta_override=None):
    phase = _ThetaEvaluator(field, sol)
    cutoff = select_cutoff(phase, report=report, delta_override=delta_override)
    return Pseudomode(field=field, sol=sol, cutoff=cutoff, phase=phase, N=N,
                      m_growth=m_growth)


def _amplitude(sol, h, N):
    """The amplitude sum sum_{j<=N} h^j a_j as one series."""
    return sum((h**j * sol.amplitudes[j] for j in range(1, N + 1)), sol.amplitudes[0])


def _horner(y1, y2):
    """The value map of series at scattered local points y (Horner)."""
    return lambda series: series.realify(y1, y2)


def _on_grid(s, t, keep):
    """The value map of series at the nodes y1 = s_i, y2 = t_j of a product
    grid that the mask ``keep`` selects, in row-major order (tensor kernel)."""
    return lambda series: series.realify_grid(s, t)[keep]


def _mode(pm, h, amp, chi, values):
    """exp(-P/h), the amplitude sum amp and u = chi exp(-P/h) amp at local
    points, given the cutoff values chi there; ``values`` maps a series to
    its values at those points."""
    E = np.exp(-values(pm.phase.P) / h)
    a = values(amp)
    return E, a, chi * E * a


def _cut_mode(pm, h, amp, r, values_at):
    """u at local points at radius r (an array of any shape), zero outside
    D(0, r_out); ``values_at(inside)`` is the value map at the points inside."""
    inside = r < pm.cutoff.r_out
    out = np.zeros(r.shape, dtype=complex)
    if np.any(inside):
        chi = pm.cutoff.profile(r[inside])[0]
        out[inside] = _mode(pm, h, amp, chi, values_at(inside))[-1]
    return out


def assemble(pm, h):
    """Evaluable u_h(x1, x2) (global coordinates); zero outside D(x0, r_out)."""
    if not h > 0:
        raise ValueError("h must be positive")
    sol = pm.sol
    amp = _amplitude(sol, h, pm.N_used(h))

    def u(x1, x2):
        y1 = np.asarray(x1, dtype=float) - sol.base_point[0]
        y2 = np.asarray(x2, dtype=float) - sol.base_point[1]
        return _cut_mode(pm, h, amp, np.hypot(y1, y2),
                         lambda inside: _horner(y1[inside], y2[inside]))

    return u


# ----------------------------------------------------------------------------
# residual evaluation (series-exact route)
# ----------------------------------------------------------------------------

def quadrature_points(h, r_out):
    """Gauss points per axis of the coarse residual grid: 8 r_out / sqrt(h),
    at least 64."""
    return max(64, int(math.ceil(8.0 * r_out / math.sqrt(h))))


@dataclass(frozen=True)
class ResidualReport:
    h: float
    N_used: int
    u_norm: float
    residual_norm: float
    ratio: float
    evaluator: str
    quadrature_points: int
    interior_norm: float = 0.0
    cutoff_norm: float = 0.0

    def __post_init__(self):
        if not self.u_norm > 0:
            raise ValueError("pseudomode norm must be positive")


def _residual_terms(pm, h, N, amp, y1, y2, values):
    """u and the pointwise residual of (L_{h,A} - h mu) u_h from series data,
    split into its interior and cutoff terms, amp = sum_{j<=N} h^j a_j, at
    local points y where ``values`` maps a series to its values:

    residual = e^{-P/h} [ chi h^{N+2} (-Lap a_N) - 2 h^2 chi' d_r(amp)
                          + (-h^2 Lap(chi) + 2h chi' (grad S + i M) . n) amp ]

    with n = y / r; r d_r and r (grad S + i M) . n are the Euler-operator
    series of the module docstring.
    """
    sol, cut = pm.sol, pm.cutoff
    r = np.hypot(y1, y2)
    chi, dchi, lapchi = cut.profile(r)
    E, a, u = _mode(pm, h, amp, chi, values)
    lap_aN = 4.0 * sol.amplitudes[N].differentiate("z").differentiate("w")
    interior = chi * E * h ** (N + 2) * (-values(lap_aN))
    # the radial factors are needed only where grad(chi) != 0, so r > 0
    ring = dchi != 0.0
    rr = r[ring]
    p, q = np.indices(amp.coeffs.shape)
    r_damp = BiSeries((p + q) * amp.coeffs, amp.cap)
    r_lin = BiSeries((p + q) * sol.S.coeffs + (p - q) * sol.phi.coeffs, sol.S.cap)
    damp, lin = np.zeros_like(u), np.zeros_like(u)
    damp[ring] = values(r_damp)[ring] / rr
    lin[ring] = values(r_lin)[ring] / rr
    cutoff_term = E * (
        -2.0 * h**2 * dchi * damp + (-(h**2) * lapchi + 2.0 * h * dchi * lin) * a
    )
    return u, interior, cutoff_term


def residual_series_exact(pm, h, n=None):
    """ResidualReport for one h via the series-exact route.

    The residual is evaluated on the doubled grid only; the coarse grid
    serves the Richardson consistency estimate of the u-norm (the residual
    integrand has the same Gaussian scale).  Refuses with
    QuadratureResolutionError when the two u-norms differ by more than QUAD_RTOL.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    cut = pm.cutoff
    N = pm.N_used(h)
    amp = _amplitude(pm.sol, h, N)
    n = n or quadrature_points(h, cut.r_out)

    def disc_nodes(m):
        """The Gauss square's nodes inside the disc, their weights and value map."""
        xg, wg = np.polynomial.legendre.leggauss(m)
        x, wx = cut.r_out * xg, cut.r_out * wg
        Y1, Y2 = np.meshgrid(x, x, indexing="ij")
        keep = np.hypot(Y1, Y2) < cut.r_out
        return Y1[keep], Y2[keep], np.outer(wx, wx)[keep], _on_grid(x, x, keep)

    y1, y2, w, values = disc_nodes(n)
    chi = cut.profile(np.hypot(y1, y2))[0]
    un1 = float(np.sum(np.abs(_mode(pm, h, amp, chi, values)[-1]) ** 2 * w))
    y1, y2, w, values = disc_nodes(2 * n)
    u, interior, cutoff_term = _residual_terms(pm, h, N, amp, y1, y2, values)
    un2, rn2, in2, cn2 = (float(np.sum(np.abs(v) ** 2 * w))
                          for v in (u, interior + cutoff_term, interior, cutoff_term))
    if abs(un2 - un1) > QUAD_RTOL * un2:
        raise QuadratureResolutionError(
            f"residual quadrature unresolved at h={h:g}: |I_2n - I_n|/I_2n = "
            f"{abs(un2 - un1) / un2:.3e} with n={n} exceeds the tolerance {QUAD_RTOL:g}"
        )
    return ResidualReport(
        h=h, N_used=N, u_norm=math.sqrt(un2), residual_norm=math.sqrt(rn2),
        ratio=math.sqrt(rn2 / un2), evaluator="series_exact",
        quadrature_points=(2 * n) ** 2,
        interior_norm=math.sqrt(in2), cutoff_norm=math.sqrt(cn2),
    )


def residual_finite_difference(pm, h, n=512):
    """Cross-check ResidualReport from the independent grid operator, on
    n x n points of the square [-2 r_out, 2 r_out]^2 about the base point."""
    from . import numop

    grid = numop.Grid2D(L=2.0 * pm.cutoff.r_out, n=n)
    x0 = pm.sol.base_point
    x = grid.axis()
    # the local axes of the grid centred at x0
    s, t = (x0[0] + x) - x0[0], (x0[1] + x) - x0[1]
    amp = _amplitude(pm.sol, h, pm.N_used(h))
    u = _cut_mode(pm, h, amp, np.hypot(s[:, None], t[None, :]),
                  lambda inside: _on_grid(s, t, inside))
    gf = numop.GridFunction(values=u, grid=grid)
    Lu = numop.apply_L(pm.field, h, gf, center=x0)
    res = Lu.values - h * pm.sol.mu * u
    w = grid.spacing**2
    un = math.sqrt(float(np.sum(np.abs(u) ** 2)) * w)
    rn = math.sqrt(float(np.sum(np.abs(res) ** 2)) * w)
    return ResidualReport(
        h=h, N_used=pm.N_used(h), u_norm=un, residual_norm=rn, ratio=rn / un,
        evaluator="finite_difference", quadrature_points=n * n,
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
