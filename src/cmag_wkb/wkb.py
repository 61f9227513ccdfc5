"""Eikonal phase and transport hierarchy in truncated series arithmetic.

Given the complexified field series B~(z, w) at an admissible base point,
this module constructs

* the canonical Poisson solution phi~ with 4 d_z d_w phi~ = B~,
* the level curve w(z) with B~(z, w(z)) = B~(0, 0),
* the holomorphic correction f and the phase S~ = phi~ + f,
* the divided data V, F with  d_z phi~(z,w) - d_z phi~(z,w(z)) = (w-w(z)) V
  and  B~(z,w) - B~(z,w(z)) = (w-w(z)) F,
* the integrating factor J = exp(-∫_[w(z),w] F/(8V) du) (J = 1 on the curve),
* the amplitudes a~_0 = A_0(z) J, a~_{j+1} = J ∫_[w(z),w] T_j/(2JV) du
  + A_{j+1}(z) J, with each A_{j+1} fixed by the solvability constraint
  d_z d_w a~_{j+1}(z, w(z)) = 0 of the next equation.

``solve_wkb`` builds phi~, w(z), f and V, F; the transport workspace takes
those and derives the rest itself: mu, J, A_0 and a~_0, the transport
coefficient from f', the reciprocals each step divides by and the first
trusted degree cap - 1, and it verifies step 0 when it is built.

The construction assumes a non-critical base point, B(0) != 0 and
d_zbar B(0) != 0, as the paper does; ``solve_wkb`` is the one place that
refuses the rest (DegenerateFieldError), at the admissibility gate's
tolerance: |B(0)| or |d_zbar B(0)| at most fieldmodel.GAMMA_TOL.  Past that
check V(0,0) = B(0)/4 and d_w J(0,0) = -d_zbar B/(2B)(0) are nonzero, so the
transport recursion has a single path: every reciprocal it takes exists.

Every step is verified as a series identity, each through
``cseries.check_identity``: the Poisson identity, J = 1 on the curve, the
transport residual (w - w(z)) [8V d_w + F] a~_{j+1} - 4 d_z d_w a~_j and the
compatibility restriction must vanish coefficient-wise up to the trusted
degree.  Each check passes ``check_identity`` the terms that set its scale:
the Poisson check B~, the transport check per-degree bounds of the majorant
products |c4| |d_w a~| and |B~ - mu| |a~| (convolutions of degree maxima) and
its right-hand side, and the restrictions to the curve (J = 1,
compatibility) the majorant |g| o |w| of the restricted series g; no product
is formed only to size a tolerance.  Each transport
step consumes three derivative orders, which is where the degree budget rule
cap >= 3(N+2) comes from; the solver tracks the trusted degree of every
amplitude and only asserts identities below it.  The transport residual is
formed through that degree alone: its operands are cut to the cap t the check
reads, and a cap-t series is the same ring truncated at t, so the products
there have the full products' coefficients through degree t.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cseries import (
    FLOOR_FACTOR,
    BiSeries,
    abs_compose_w,
    check_identity,
    compose_w,
    curve_integral_w,
    degree_maxima,
    exact_divide_by_curve,
    implicit_w,
    t_average,
)
from .fieldmodel import GAMMA_TOL

IDENTITY_RTOL = 1e-10


class DegenerateFieldError(ValueError):
    """Base point outside the admissible set: B(0) = 0 or d_zbar B(0) = 0."""


class TransportIdentityError(RuntimeError):
    """A series identity that must hold exactly failed beyond tolerance."""


# ----------------------------------------------------------------------------
# individual construction steps
# ----------------------------------------------------------------------------

def poisson_series(Btilde):
    """phi~ with 4 d_z d_w phi~ = B~ and phi~(z, 0) = phi~(0, w) = 0."""
    D = Btilde.cap
    c = np.zeros_like(Btilde.coeffs)
    a = np.arange(1, D + 1, dtype=float)
    c[1:, 1:] = Btilde.coeffs[:-1, :-1] / (4.0 * np.outer(a, a))
    return BiSeries(c, D)


def eikonal_phase(phi, w_curve):
    """f with f' = -2 d_z phi~(z, w(z)), f(0) = 0, and S~ = phi~ + f.

    The gauge constant Im theta(0) is dropped here (it scales the pseudomode
    by a fixed factor and cancels in every residual ratio); the pseudomode
    assembly reintroduces the gauge function separately.  The transport
    coefficient 2 d_z phi~ + f' vanishes on the curve by construction, with
    no check: a non-finite restriction d_z phi~(z, w(z)) is refused by the
    exact division in ``divided_data``, whose remainder contains it.
    """
    dzphi = phi.differentiate("z")
    fprime = -2.0 * compose_w(dzphi, w_curve)
    f = fprime.antiderivative("z")
    S = phi + f
    return f, S


def divided_data(phi, Btilde, w_curve):
    """V and F from exact division by (w - w(z)).

    V(0,0) = B(0)/4 under this normalization; 4V equals the unit-interval
    average of B~ along the segment from w(z) to w (checked in tests by
    quadrature).
    """
    dzphi = phi.differentiate("z")
    numV = dzphi - compose_w(dzphi, w_curve)
    V = exact_divide_by_curve(numV, w_curve)
    numF = Btilde - compose_w(Btilde, w_curve)
    F = exact_divide_by_curve(numF, w_curve)
    return V, F


def first_transport(Btilde, phi, w_curve, V, F):
    """Leading amplitude: quasi-eigenvalue mu, integrating factor J, d_w J on
    the curve u0, A_0 and a~_0.

    A hierarchy built by hand at a critical point (d_zbar B(0) = 0, so
    d_w J vanishes on the curve) stops at the reciprocal of d_w J with
    SeriesDivisionError.
    """
    mu = complex(Btilde.coeffs[0, 0])
    g = F * V.reciprocal("8V").__mul__(1.0 / 8.0)
    J = (-1.0 * curve_integral_w(g, w_curve)).exp()

    on_curve = compose_w(J, w_curve).coeffs[:, 0] - np.eye(1, J.cap + 1)[0]
    # no floor: the majorant |J| o |w| is |J(0, 0)| = 1 at degree 0
    check_identity("J = 1 on the curve", on_curve, [abs_compose_w(J, w_curve)],
                   IDENTITY_RTOL, TransportIdentityError)

    dwJ = J.differentiate("w")
    u0 = compose_w(dwJ, w_curve)
    v0 = compose_w(dwJ.differentiate("z"), w_curve)
    A0 = (-1.0 * (v0 * u0.reciprocal("d_w J on curve")).antiderivative("z")).exp()
    a0 = A0 * J
    return mu, J, u0, A0, a0


class _Workspace:
    """Shared series data threaded through the transport recursion.

    Built from the divided data (B~, phi~, f, w(z), V, F) alone: it derives
    mu, J, u0, A_0 and a~_0 (``first_transport``), the first-order
    coefficient c4 = 8 d_z phi~ + 4 f' of the transport operator, the
    reciprocals of 2JV and u0 A_0 that every step divides by, and the first
    trusted degree cap - 1, then verifies step 0.
    """

    def __init__(self, Btilde, phi, f, w_curve, V, F):
        self.mu, self.J, u0, self.A0, a0 = first_transport(Btilde, phi, w_curve, V, F)
        self.B_mu = Btilde - Btilde.coeffs[0, 0]  # B~ - mu, in B~'s number type
        self.w = w_curve
        self.amplitudes = [a0]
        self.trusted = [Btilde.cap - 1]
        self.c4 = 8.0 * phi.differentiate("z") + 4.0 * f.differentiate("z")
        self.inv_2JV = (2.0 * (self.J * V)).reciprocal("2JV")
        self.inv_u0A0 = (u0 * self.A0).reciprocal("d_wJ * A0 on curve")
        self.residual_maxima = {}
        self.compatibility_scale = 0.0  # of the last compatibility check
        self.verify_step(0)

    def verify_step(self, j):
        """Transport residual and compatibility for amplitude j.

        The operator is [4(2 d_z phi~ + f') d_w + (B~ - mu)], with c4 its
        first-order coefficient; the right-hand side is 4 d_z d_w a~_{j-1},
        zero for j = 0.  The residual is asserted through degree t =
        trusted[j] - 1 and formed there only: from c4, d_w a~_j, B~ - mu,
        a~_j and the right-hand side cut to cap t, whose products agree with
        the full-cap ones through degree t.  The transport check's terms are
        per-degree bounds of the majorant products |c4| |d_w a~_j| and
        |B~ - mu| |a~_j| (from degree maxima, ``_product_maxima``; no product
        is formed) and its right-hand side, all at the full cap.  Both checks
        are floored at FLOOR_FACTOR of the largest magnitude entering them:
        coefficients that are themselves cancellations (constant terms forced
        to zero by the construction) carry roundoff set by those magnitudes,
        which runs at the a_0 scale even when the identity's own terms are
        tiny.  For j = 0 the
        compatibility floor includes the majorant of a~_0 = A_0 J; for j >= 1
        the transport floor includes 4x the last compatibility scale, since
        the transport residual at degree 0 is -rhs[0, 0], exactly 4x the last
        compatibility residual there.
        """
        a_new = self.amplitudes[j]
        parent = max(a_new.max_abs(), self.amplitudes[0].max_abs())
        da = a_new.differentiate("w")
        if j:
            rhs = 4.0 * self.amplitudes[j - 1].differentiate("w").differentiate("z")
        else:
            rhs = BiSeries.zeros(a_new.cap)
        bounds = [_product_maxima(self.c4, da), _product_maxima(self.B_mu, a_new)]
        top = max(parent, *(float(np.max(m)) for m in bounds), rhs.max_abs(),
                  4.0 * self.compatibility_scale)
        t = self.trusted[j] - 1
        c4_t, da_t, B_mu_t, a_t, rhs_t = (_truncate(x, t)
                                          for x in (self.c4, da, self.B_mu, a_new, rhs))
        self.residual_maxima[f"transport_{j}"] = check_identity(
            f"transport residual j={j}", degree_maxima(c4_t * da_t + B_mu_t * a_t - rhs_t),
            [*bounds, rhs], IDENTITY_RTOL, TransportIdentityError, upto=t,
            floor=FLOOR_FACTOR * top)

        dd = a_new.differentiate("w").differentiate("z")
        comp = compose_w(dd, self.w)
        majorant = abs_compose_w(dd, self.w)
        top = max(majorant.max_abs(), dd.max_abs(), parent)
        if not j:
            top = max(top, float(np.max(_product_maxima(self.A0, self.J))))
        self.compatibility_scale = top
        self.residual_maxima[f"compatibility_{j}"] = check_identity(
            f"compatibility constraint j={j}", comp.coeffs[:, 0], [majorant],
            IDENTITY_RTOL, TransportIdentityError, upto=self.trusted[j] - 2,
            floor=FLOOR_FACTOR * top)


def _truncate(series, cap):
    """The series in the ring truncated at a lower cap: its coefficients of
    degree <= cap, and so those of any product formed there."""
    return BiSeries(series.coeffs[: cap + 1, : cap + 1], cap)


def _product_maxima(x, y):
    """Per-degree bounds on the coefficients of the majorant product |x| |y|
    from the degree maxima of x and y alone: a coefficient of degree n of it
    sums, for each k, at most k + 1 products of a degree-k coefficient of x
    with one of degree n - k of y, and exactly one when x is z-only (its
    part k is the one coefficient of z^k)."""
    dx = degree_maxima(x)
    if not x.z_only:
        dx = np.arange(1, dx.size + 1) * dx
    return np.convolve(dx, degree_maxima(y))[: dx.size]


def transport_step(ws, j):
    """Solve the (j+1)-th transport equation given amplitudes up to j.

    a~_{j+1} = J * ∫_[w(z),w] T_j / (2JV) du + A_{j+1}(z) J, with
    T_j the unit-interval average of d_w^2 d_z a~_j along the segment and
    A_{j+1} from variation of constants against the curve constraint.
    """
    a_j = ws.amplitudes[j]
    Tj = t_average(a_j.differentiate("w").differentiate("w").differentiate("z"), ws.w)
    H = curve_integral_w(Tj * ws.inv_2JV, ws.w)
    particular = ws.J * H
    # constraint d_z d_w [particular + A J](z, w(z)) = 0; A solves
    # u0 A' + v0 A = -p1 with A(0) = 0, via A = A0 * Psi, Psi' = -p1/(u0 A0)
    p1 = compose_w(particular.differentiate("w").differentiate("z"), ws.w)
    Psi = (-1.0 * (p1 * ws.inv_u0A0)).antiderivative("z")
    A_next = ws.A0 * Psi
    a_next = particular + A_next * ws.J
    ws.amplitudes.append(a_next)
    ws.trusted.append(ws.trusted[j] - 3)
    ws.verify_step(j + 1)
    return a_next


# ----------------------------------------------------------------------------
# driver and solution container
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class WKBSolution:
    phi: BiSeries
    w_curve: BiSeries  # z-only, as are f and A0
    f: BiSeries
    S: BiSeries
    V: BiSeries
    F: BiSeries
    J: BiSeries
    A0: BiSeries
    amplitudes: tuple
    mu: complex
    N: int
    trusted_radius: float
    trusted_degrees: tuple
    base_point: tuple
    residual_maxima: dict

    # -- serialization ----------------------------------------------------
    def to_json(self):
        """The written record of wkb_solution.json; nothing reads it back."""
        d = {
            "mu": [float(self.mu.real).hex(), float(self.mu.imag).hex()],
            "N": int(self.N),
            "base_point": [float(self.base_point[0]), float(self.base_point[1])],
            "trusted_radius": float(self.trusted_radius),
            "trusted_degrees": [int(t) for t in self.trusted_degrees],
            "phi": self.phi.to_records(),
            "w_curve": self.w_curve.to_records(),
            "f": self.f.to_records(),
            "S": self.S.to_records(),
            "V": self.V.to_records(),
            "F": self.F.to_records(),
            "J": self.J.to_records(),
            "A0": self.A0.to_records(),
            "amplitudes": [a.to_records() for a in self.amplitudes],
            "residual_maxima": {k: float(v) for k, v in sorted(self.residual_maxima.items())},
        }
        return json.dumps(d, indent=1, sort_keys=True)


def max_transport_order(cap):
    """Largest N with cap >= 3(N+2)."""
    return cap // 3 - 2


def solve_wkb(field, N=3):
    """Run the full construction to transport order N.

    Only the field's B_taylor and base point are used: the phase and
    amplitude data are gauge-independent.
    """
    Btilde = field.B_taylor
    cap = Btilde.cap
    if N < 0:
        raise ValueError("N must be >= 0")
    if N > max_transport_order(cap):
        raise ValueError(
            f"degree cap {cap} too small for N={N}: need cap >= 3(N+2) = {3 * (N + 2)} "
            f"(each transport step consumes three derivative orders)"
        )
    B0 = complex(Btilde.coeffs[0, 0])
    if abs(B0) <= GAMMA_TOL:
        raise DegenerateFieldError("B(0) = 0 at the base point")
    if abs(Btilde.coeffs[0, 1]) <= GAMMA_TOL:
        raise DegenerateFieldError("d_zbar B(0) = 0 at the base point")

    w_curve = implicit_w(Btilde)
    phi = poisson_series(Btilde)
    res = 4.0 * phi.differentiate("w").differentiate("z") - Btilde
    check_identity("Poisson identity", degree_maxima(res), [Btilde],
                   IDENTITY_RTOL, TransportIdentityError, upto=cap - 2)

    f, S = eikonal_phase(phi, w_curve)
    V, F = divided_data(phi, Btilde, w_curve)
    ws = _Workspace(Btilde, phi, f, w_curve, V, F)
    for j in range(N):
        transport_step(ws, j)

    return WKBSolution(
        phi=phi, w_curve=w_curve, f=f, S=S, V=V, F=F, J=ws.J, A0=ws.A0,
        amplitudes=tuple(ws.amplitudes), mu=ws.mu, N=N,
        trusted_radius=_trusted_radius(S, ws.J, *ws.amplitudes),
        trusted_degrees=tuple(ws.trusted),
        base_point=tuple(field.base_point), residual_maxima=dict(ws.residual_maxima),
    )


def _trusted_radius(*series):
    """Radius r where the last retained diagonal a + b = cap of the series,
    the one with the largest sum of |c_ab| over it, contributes <= 1e-4 at
    (r, r).

    That diagonal lies above the trusted degree of every amplitude
    (trusted_degrees[j] <= cap - 1 - 3j), so the radius is read off
    coefficients the solver does not trust.  On the oscillating field at
    (pi/3, -pi/2) with D = 48, N = 14 the degree-48 diagonal of a~_14 sums to
    5.9e65 and sets r, while a~_14 is trusted through degree 5 only.  Reading
    a trusted diagonal instead would move every growth-fit output."""
    diag = max(float(np.abs(np.fliplr(s.coeffs).diagonal()).sum()) for s in series)
    return min(float((1e-4 / diag) ** (1.0 / series[0].cap)), 1e6) if diag > 0 else 1e6


# ----------------------------------------------------------------------------
# amplitude growth diagnostics
# ----------------------------------------------------------------------------

def _order_root(nrm, j):
    """The least m with nrm <= m^(j+1) j^(7j), as the per-order root
    nrm^(1/(j+1)) / j^(7j/(j+1)) (0^0 = 1 at j = 0): finite where the factor
    j^(7j) itself is past the float range (from j = 30 on)."""
    return nrm ** (1.0 / (j + 1)) / float(j) ** (7 * j / (j + 1))


@dataclass(frozen=True)
class BoundFit:
    m_fitted: float
    per_j_norms: tuple
    polydisc: tuple
    sigma_fitted: float

    def bound_holds(self):
        # nrm <= m^(j+1) j^(7j) (1 + 1e-12), each side to the power 1/(j+1)
        return all(_order_root(nrm, j) <= self.m_fitted * (1 + 1e-12) ** (1.0 / (j + 1))
                   for j, nrm in enumerate(self.per_j_norms))


def fit_growth(sol):
    """Sup-norms of the amplitudes on the polydisc |z|, |w| <= R with
    R = trusted_radius/4, the least m with ||a~_j|| <= m^(j+1) j^(7j), and
    the empirical stretched exponent.

    The sup over the closed polydisc of a polynomial is attained on the
    distinguished boundary |z| = |w| = R, sampled on a 32 x 32 torus that
    ``BiSeries.evaluate`` takes as an open product grid (sum factorization).

    Every output rests on coefficients the solver does not trust: R comes
    from ``_trusted_radius``, read off untrusted top diagonals, so every
    norm moves with them, and each a~_j is evaluated through the cap, past
    its trusted degree.  On the oscillating field at (pi/3, -pi/2) with
    D = 48, N = 14, dropping the untrusted degrees at the same R moves
    per_j_norms by 5.5e-4 relative at j = 14, 7.4e-7 at j = 13 and 3.7e-10
    at j = 12, and sigma_fitted by 1.2e-5 relative.
    """
    R = 0.25 * sol.trusted_radius
    z = R * np.exp(1j * np.linspace(0.0, 2 * np.pi, 32, endpoint=False))
    norms = [float(np.max(np.abs(a.evaluate(z[:, None], z[None, :])))) for a in sol.amplitudes]
    m = max(_order_root(nrm, j) for j, nrm in enumerate(norms))
    # two-parameter fit log||a_j|| = (j+1) log m + sigma * j log j over j >= 2
    js = np.array([j for j in range(2, len(norms)) if norms[j] > 0], dtype=float)
    sigma = float("nan")
    if js.size >= 2:
        y = np.log([norms[int(j)] for j in js])
        M = np.stack([js + 1.0, js * np.log(js)], axis=1)
        coef, *_ = np.linalg.lstsq(M, y, rcond=None)
        sigma = float(coef[1])
    return BoundFit(m_fitted=m, per_j_norms=tuple(norms), polydisc=(R, R),
                    sigma_fitted=sigma)
