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
cutoff chi; the amplitude sum is one series per h.  Its exponential comes
from real exp, cos and sin, since numpy's complex exp slows 10-15x after
the complex matrix product of the series kernel (see ``_mode``; no other
ufunc of the residual is affected).  Its residual splits into
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
from functools import lru_cache
from typing import Optional

import numpy as np

from .cseries import (BiSeries, check_identity, degree_maxima, real_coordinates,
                      real_gradient_series)
from .fieldmodel import GAMMA_TOL, FieldSpec
from .wkb import IDENTITY_RTOL, WKBSolution

log = logging.getLogger(__name__)

#: relative tolerance between the u-norms on the n- and 2n-point Gauss grids
QUAD_RTOL = 0.01

#: nodes of the Gauss square per block of the series residual route
_BLOCK_NODES = 1 << 16


class PhaseNotPositiveError(RuntimeError):
    """Re P fails the quadratic lower bound on every candidate disc."""


class QuadratureResolutionError(RuntimeError):
    """The residual grid does not resolve the Gaussian scale sqrt(h)."""


class GaugeConsistencyError(RuntimeError):
    """The Taylor pair A~ disagrees with B~ (curl A~ != B~) or with A."""


class CutoffRadiusError(ValueError):
    """A cutoff radius override outside (0, d_max] or too small to sample, or
    a residual norm not finite at some h (a thin ring, or a large h)."""


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
    r_in = r_out/2, plus the sampled quadratic lower bound M1 |x|^2 <= Re P
    on D(0, r_out): M1 is half the least eigenvalue of the quadratic of the
    built Re P (``select_cutoff``), or for a radius override the sampled
    minimum of Re P / |x|^2 when that is positive."""

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
    """The phase P(y) = S(y) + i theta(y) as one series P in local
    coordinates, with theta(x) = int_0^1 (M - A)(x0 + t y) . y dt.

    The degree-k part of the integrand carries t^(k-1), so theta is the
    series T + T_A with T[a, b] = -i (a - b) / (a + b) * phi[a, b] and
    T_A[a, b] = -(A~ . y~)[a, b] / (a + b).  It holds, each built once, the
    phase series P = S + i (T + T_A) and the Euler series r_lin with
    coefficients (a + b) S[a, b] + (a - b) phi[a, b], which is
    r (grad S + i M) . n, the h-independent part of the residual's
    commutator term; ``d_max`` is the largest admissible cutoff radius.
    """

    def __init__(self, field, sol):
        self.field = field
        self.sol = sol
        self.d_max = min(0.5 * field.analytic_radius, 0.95 * sol.trusted_radius)
        phi = sol.phi
        a1, a2 = field.A_taylor
        y1, y2 = real_coordinates(a1.cap)
        a, b = np.indices(phi.coeffs.shape)
        T = (-1j * (a - b) * phi.coeffs - (a1 * y1 + a2 * y2).coeffs) / np.maximum(a + b, 1)
        self.P = sol.S + 1j * BiSeries(T, phi.cap)
        self.r_lin = BiSeries((a + b) * sol.S.coeffs + (a - b) * phi.coeffs, sol.S.cap)
        self._calibrate()

    def _calibrate(self):
        """The gauge check: curl A~ = B~ per degree up to cap - 2, and A~
        reproduces the callable A on rings at 0.3, 0.7 and 1 x d_max.  A~ is
        A's expansion truncated at degree cap, so at a cap below A's degree
        the ring gap is its dropped tail; the refusal says so."""
        a1, a2 = self.field.A_taylor
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
                f"the field's Taylor data does not match its potential A, or A~, truncated "
                f"at degree {a1.cap}, drops a tail that large (a larger --D closes such a gap)"
            )


def _rep_quadratic(R):
    """(c11, c12, c22) with Re P = c11 y1^2 + c12 y1 y2 + c22 y2^2 + O(|y|^3),
    the real parts of the degree-2 entries of R = P.real_coeffs(), P's
    coefficients in y."""
    return float(R[2, 0].real), float(R[1, 1].real), float(R[0, 2].real)


# ----------------------------------------------------------------------------
# cutoff selection
# ----------------------------------------------------------------------------

def _reP_over_r2_min(phase, delta):
    """Min of Re P / r^2 over 8 circles r = delta/8, ..., delta of 64 angles
    each, in one evaluation of the phase evaluator's series P; not finite
    (and no warning) where r^2 underflows."""
    r = np.linspace(delta / 8, delta, 8)[:, None]
    ang = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.min(phase.P.realify(r * np.cos(ang), r * np.sin(ang)).real / r**2))


def select_cutoff(phase, delta_override=None):
    """Pick delta as the largest radius <= d_max = min(analytic_radius/2,
    0.95 trusted radius) with sampled Re P >= M1 |x|^2, M1 = lambda_min/2 of
    the quadratic of Re P (the degree-2 part of the built phase, which the
    refusal reads too); ``phase`` is the pseudomode's phase evaluator.

    Raises PhaseNotPositiveError at once, before any search and before an
    override is sampled, when the linear part of Re P, Im A(x0), has a norm
    above GAMMA_TOL (the tolerance at which the admissibility gate calls
    Im A(x0) nonzero): Re P is then negative near x0 on one side.  Raises
    CutoffRadiusError for an override outside (0, d_max] or one so small
    that the sampled Re P / |x|^2 is not finite, and PhaseNotPositiveError
    when no disc works: at once when that quadratic is not positive
    definite, else after the search.  The message states the linear part of
    Re P, the quadratic with its eigenvalues and the Q2 that the built phase
    realizes, Q2_eff = -c12/2.
    """
    R = phase.P.real_coeffs()
    lin = (float(R[1, 0].real), float(R[0, 1].real))
    if math.hypot(*lin) > GAMMA_TOL:
        raise PhaseNotPositiveError(
            f"Re P has the linear part ({lin[0]:.6g}, {lin[1]:.6g}) = Im A(x0), of norm "
            f"{math.hypot(*lin):.3g} > {GAMMA_TOL:g}: Re P is negative near x0 along "
            f"-Im A(x0). A decaying pseudomode does not exist at this base point."
        )
    c11, c12, c22 = _rep_quadratic(R)
    eigs = np.linalg.eigvalsh(np.array([[c11, c12 / 2], [c12 / 2, c22]]))
    M1 = 0.5 * float(eigs[0])
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
        return CutoffSpec(r_out=delta, M1=max(m_lo if m_lo > 0 else M1, 1e-12))

    if M1 > 0:
        for delta in np.geomspace(d_max, d_max / 64.0, 24):
            if _reP_over_r2_min(phase, delta) >= M1:
                return CutoffSpec(r_out=delta, M1=M1)

    raise PhaseNotPositiveError(
        f"no disc with Re P >= {M1:.4g}|x|^2: Re P linear part "
        f"({lin[0]:.6g}, {lin[1]:.6g}), quadratic "
        f"(c11, c12, c22) = ({c11:.6g}, {c12:.6g}, {c22:.6g}), "
        f"eigenvalues {eigs[0]:.4g}, {eigs[1]:.4g}, Q2_eff = {-c12 / 2:.6g}. "
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
            log.warning("N(h)=%d at h=%g exceeds the computed budget N=%d; clipping",
                        n, h, self.sol.N)
            n = self.sol.N
        return max(n, 0)


def make_pseudomode(field, sol, N=1, m_growth=None, delta_override=None):
    """The pseudomode of order N (or adaptive, see ``Pseudomode``) on the
    solution ``sol``: one phase evaluator, the cutoff ``select_cutoff``
    picks from it, and nothing read from the printed (Q1, Q2, Q3) formula."""
    phase = _ThetaEvaluator(field, sol)
    cutoff = select_cutoff(phase, delta_override=delta_override)
    return Pseudomode(field=field, sol=sol, cutoff=cutoff, phase=phase, N=N,
                      m_growth=m_growth)


def _amplitude(sol, h, N):
    """The amplitude sum sum_{j<=N} h^j a_j as one series."""
    return sum((h**j * sol.amplitudes[j] for j in range(1, N + 1)), sol.amplitudes[0])


def _mode(h, P, a, chi):
    """exp(-P/h) and u = chi exp(-P/h) a from the values of the phase P, the
    amplitude sum a and the cutoff chi at the same local points.

    exp(-P/h) is formed from real ufuncs, e^x = e^{Re x} (cos Im x + i sin Im x).
    numpy's complex ``exp`` runs the C library's scalar SSE ``cexp``, which
    slows 10-15x right after an OpenBLAS complex matrix product, and the
    series kernel that gives P on a product grid runs one just before: on
    20,000 points it took 0.4-0.7 ms alone and 7-9 ms after one 48 x 48
    complex product (a real product left it at 0.4-0.7 ms).  Only the complex
    ``exp`` stalled; ``abs``, products, ``hypot``, real ``exp``, ``cos`` and
    ``sin`` did not.  cos and sin fill E's two parts in place and e^{Re x}
    scales it, so no complex temporary is added.  The two forms agree to
    3.1e-16 relative where numpy's value is a normal float, on the
    workhorse's Gauss grids down to h = 1e-5 (|Im P|/h up to 1.9e5); where it
    is subnormal |E| is below the least normal float, and where it is 0 so is
    E.  Where e^{Re x} overflows E is not finite, as numpy's value is, but at
    Im x = 0 it is inf + NaN i rather than inf + 0i."""
    x = -P / h
    E = np.empty(x.shape, dtype=complex)
    np.cos(x.imag, out=E.real)
    np.sin(x.imag, out=E.imag)
    E *= np.exp(x.real)
    return E, chi * E * a


def assemble(pm, h):
    """Evaluable u_h(x1, x2) (global coordinates, broadcast against each other
    as numpy does); zero outside D(x0, r_out)."""
    if not h > 0:
        raise ValueError("h must be positive")
    sol, cut = pm.sol, pm.cutoff
    amp = _amplitude(sol, h, pm.N_used(h))

    def u(x1, x2):
        y1, y2 = np.broadcast_arrays(np.asarray(x1, dtype=float) - sol.base_point[0],
                                     np.asarray(x2, dtype=float) - sol.base_point[1])
        r = np.hypot(y1, y2)
        inside = r < cut.r_out
        out = np.zeros(r.shape, dtype=complex)
        y1, y2 = y1[inside], y2[inside]
        out[inside] = _mode(h, pm.phase.P.realify(y1, y2), amp.realify(y1, y2),
                            cut.profile(r[inside])[0])[1]
        return out

    return u


# ----------------------------------------------------------------------------
# residual evaluation (series-exact route)
# ----------------------------------------------------------------------------

def quadrature_points(h, r_out):
    """Gauss points per axis of the coarse residual grid: 8 r_out / sqrt(h),
    at least 64.  A count that no array index can hold (h below about 1e-37)
    raises MemoryError, as a count the machine cannot allocate does."""
    n = max(64, int(math.ceil(8.0 * r_out / math.sqrt(h))))
    if n > np.iinfo(np.intp).max:
        raise MemoryError(f"{n:.3g} Gauss points per axis at h = {h:g} exceed any array index")
    return n


def _legendre(m, x):
    """P_m and P_m' at the points x in (-1, 1), by the three-term recurrence
    (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}."""
    p0, p1 = np.ones_like(x), x.copy()
    for j in range(1, m):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    # (x - 1)(x + 1), not x^2 - 1, keeps its relative precision near the ends
    return p1, m * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))


@lru_cache(maxsize=None)
def _gauss_rule(m):
    """The m-point Gauss-Legendre nodes (ascending) and weights on [-1, 1],
    read-only, built once per node count: the rows of a sweep share the
    floor n = 64 of ``quadrature_points``, and each row needs n and 2n.

    Newton's method on P_m, vectorized over the nonnegative nodes, from
    Tricomi's guess (1 - (m-1)/(8 m^3)) cos(pi (4k - 1)/(4m + 2)), until the
    largest step is a few ulp (3 or 4 steps from m = 64 to 4852); the weights
    2 / ((1 - x^2) P_m'(x)^2) take P_m' at the converged nodes.  O(m^2) time
    and O(m) memory, where a dense eigenvalue solve (Golub-Welsch, numpy's
    ``leggauss``) costs O(m^3) and an m x m matrix; cf. Hale & Townsend,
    SIAM J. Sci. Comput. 35 (2013) A652.  The moments sum w x^(2k) match
    2/(2k + 1) to about 3e-13 relative at m = 1534, where ``leggauss``'s
    are off by 2.6e-10.  For odd m the node 0 is exact."""
    k = np.arange(1, (m + 1) // 2 + 1)
    x = (1.0 - (m - 1) / (8.0 * m**3)) * np.cos(np.pi * (4 * k - 1) / (4 * m + 2))
    if m % 2:
        x[-1] = 0.0
    while True:
        p, dp = _legendre(m, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= 4 * np.finfo(float).eps:
            break
    # P_m' where the last step left x: at a node near +-1 its log-derivative
    # is about 1/(1 - x), so one ulp of x moves it by 1e-10 at m = 1534
    dp = _legendre(m, x)[1]
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp**2)
    half = m // 2
    # x falls from the largest node; the middle entry of an odd rule is 0
    nodes = np.concatenate((-x[:half], x[half:], x[:half][::-1]))
    weights = np.concatenate((w[:half], w[half:], w[:half][::-1]))
    for a in (nodes, weights):
        a.setflags(write=False)
    return nodes, weights


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


def _residual_series(pm, h, N):
    """The five series of the residual at h, each built once: the phase P,
    amp = sum_{j<=N} h^j a_j, Lap a_N = 4 d_z d_w a_N, and the Euler series
    r d_r amp and r (grad S + i M) . n of the module docstring."""
    amp = _amplitude(pm.sol, h, N)
    p, q = np.indices(amp.coeffs.shape)
    return (pm.phase.P, amp, 4.0 * pm.sol.amplitudes[N].differentiate("z").differentiate("w"),
            BiSeries((p + q) * amp.coeffs, amp.cap), pm.phase.r_lin)


def _residual_terms(cut, h, N, r, P, a, lap_aN, r_damp, r_lin):
    """u and the pointwise residual of (L_{h,A} - h mu) u_h, split into its
    interior and cutoff terms, at local points at radius r, given the values
    there of the five series of ``_residual_series``, amp = sum_{j<=N} h^j a_j:

    residual = e^{-P/h} [ chi h^{N+2} (-Lap a_N) - 2 h^2 chi' d_r(amp)
                          + (-h^2 Lap(chi) + 2h chi' (grad S + i M) . n) amp ]

    with n = y / r; r d_r and r (grad S + i M) . n are the Euler-operator
    series of the module docstring.
    """
    chi, dchi, lapchi = cut.profile(r)
    E, u = _mode(h, P, a, chi)
    interior = chi * E * h ** (N + 2) * (-lap_aN)
    # the radial factors are needed only where grad(chi) != 0, so r > 0
    ring = dchi != 0.0
    rr = r[ring]
    damp, lin = np.zeros_like(u), np.zeros_like(u)
    damp[ring] = r_damp[ring] / rr
    lin[ring] = r_lin[ring] / rr
    cutoff_term = E * (
        -2.0 * h**2 * dchi * damp + (-(h**2) * lapchi + 2.0 * h * dchi * lin) * a
    )
    return u, interior, cutoff_term


def residual_series_exact(pm, h):
    """ResidualReport for one h via the series-exact route.

    The residual is evaluated on the doubled grid only; the coarse grid
    serves the Richardson consistency estimate of the u-norm (the residual
    integrand has the same Gaussian scale).  Each Gauss square is walked in
    square blocks of at most _BLOCK_NODES nodes (side 256), blocks with no
    node in the disc are skipped, and the norms are summed block by block as
    floats, so the memory is that of one block and one axis whatever h is
    (a square of at most _BLOCK_NODES nodes, 2n <= 256, is one block and
    sums the whole arrays).  Square blocks rather than blocks of whole rows:
    the series kernel builds the Vandermonde matrices of a block's two axes,
    and a whole row of 4852 nodes rebuilt per block of 13 rows took 30% of
    the time at h = 1e-5 on the workhorse.  Refuses with CutoffRadiusError,
    naming h and delta, when a norm of u, the residual or its interior or
    cutoff term is not finite (the profile's scale 1/(r_out - r_in)^2 or its
    square overflows on a thin ring, or a large h's powers do; numpy's
    warnings are not printed), and with QuadratureResolutionError when the
    two u-norms differ by more than QUAD_RTOL.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    cut = pm.cutoff
    N = pm.N_used(h)
    series = _residual_series(pm, h, N)
    n = quadrature_points(h, cut.r_out)

    def disc_nodes(m, series):
        """The radii and weights of the Gauss square's nodes inside the disc
        and the values there of ``series``, in square blocks of at most
        _BLOCK_NODES nodes of the square."""
        xg, wg = _gauss_rule(m)
        x, wx = cut.r_out * xg, cut.r_out * wg
        side = math.isqrt(_BLOCK_NODES)
        for i in range(0, m, side):
            for j in range(0, m, side):
                s, ws, t, wt = x[i:i + side, None], wx[i:i + side], x[None, j:j + side], wx[j:j + side]
                r = np.hypot(s, t)
                keep = r < cut.r_out
                if keep.any():
                    yield (r[keep], np.outer(ws, wt)[keep],
                           [f.realify(s, t)[keep] for f in series])

    # a thin cutoff ring or a large h overflows a term or its square; refused below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        un1 = 0.0
        for r, w, (P, a) in disc_nodes(n, series[:2]):
            un1 += float(np.sum(np.abs(_mode(h, P, a, cut.profile(r)[0])[1]) ** 2 * w))
        norms = dict.fromkeys(("u", "residual", "interior", "cutoff"), 0.0)
        for r, w, values in disc_nodes(2 * n, series):
            u, interior, cutoff_term = _residual_terms(cut, h, N, r, *values)
            for name, v in (("u", u), ("residual", interior + cutoff_term),
                            ("interior", interior), ("cutoff", cutoff_term)):
                norms[name] += float(np.sum(np.abs(v) ** 2 * w))
    bad = [name for name, v in norms.items() if not math.isfinite(v)]
    if bad:
        raise CutoffRadiusError(
            f"cutoff radius delta = {cut.r_out:.6g} at h = {h:g}: norms not finite "
            f"({', '.join(bad)}); the cutoff radius is too small, or h so large its powers overflow"
        )
    un2, rn2, in2, cn2 = norms.values()
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


def residual_finite_difference(pm, h, n):
    """Cross-check ResidualReport from the independent grid operator, on
    n x n points of the square [-2 r_out, 2 r_out]^2 about the base point.

    u is evaluated only on the block of axis points with |s|, |t| < r_out
    (it is 0 off the disc) and embedded into zeros; ``numop.apply_L`` works
    on u's support box in the same way.  The norms sum over that block
    widened by the stencils' reach, off which u and its image are 0."""
    from . import numop

    r_out = pm.cutoff.r_out
    grid = numop.Grid2D(L=2.0 * r_out, n=n)
    x0 = pm.sol.base_point
    x = grid.axis()
    # the local axes of the grid centred at x0, and the block where u can be nonzero
    s, t = (x0[0] + x) - x0[0], (x0[1] + x) - x0[1]
    rows, cols = (slice(int(k[0]), int(k[-1]) + 1)
                  for k in (np.flatnonzero(np.abs(a) < r_out) for a in (s, t)))
    N = pm.N_used(h)
    amp = _amplitude(pm.sol, h, N)
    s, t = s[rows, None], t[None, cols]
    r = np.hypot(s, t)
    inside = r < r_out
    u = np.zeros((n, n), dtype=complex)
    # basic slices give a view, so this writes into u
    u[rows, cols][inside] = _mode(h, pm.phase.P.realify(s, t)[inside],
                                  amp.realify(s, t)[inside],
                                  pm.cutoff.profile(r[inside])[0])[1]
    gf = numop.GridFunction(values=u, grid=grid)
    Lu = numop.apply_L(pm.field, h, gf, center=x0)
    # the residual vanishes off u's block widened by the stencils' reach 2
    box = tuple(slice(k.start - 2, k.stop + 2) for k in (rows, cols))
    res = Lu.values[box] - h * pm.sol.mu * u[box]
    w = grid.spacing**2
    un = math.sqrt(float(np.sum(np.abs(u[box]) ** 2)) * w)
    rn = math.sqrt(float(np.sum(np.abs(res) ** 2)) * w)
    return ResidualReport(
        h=h, N_used=N, u_norm=un, residual_norm=rn, ratio=rn / un,
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
