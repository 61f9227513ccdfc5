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

The construction assumes a non-critical base point, B(0) != 0 and
d_zbar B(0) != 0, as the paper does; ``solve_wkb`` is the one place that
refuses the rest (DegenerateFieldError).  Past that check V(0,0) = B(0)/4
and d_w J(0,0) = -d_zbar B/(2B)(0) are nonzero, so the transport recursion
has a single path: every reciprocal it takes exists.

Every step is verified as a series identity, each through
``cseries.check_identity``: the Poisson identity, J = 1 on the curve, the
transport residual (w - w(z)) [8V d_w + F] a~_{j+1} - 4 d_z d_w a~_j and the
compatibility restriction must vanish coefficient-wise up to the trusted
degree.  Each check passes ``check_identity`` the terms it already holds, which
set its scale: the Poisson check B~, the transport check its products
c4 d_w a~ and (B~ - mu) a~ and its right-hand side, and the restrictions to
the curve (J = 1, compatibility) the majorant |g| o |w| of the restricted
series g; no product is formed only to size a tolerance.  Each transport
step consumes three derivative orders, which is where the degree budget rule
cap >= 3(N+2) comes from; the solver tracks the trusted degree of every
amplitude and only asserts identities below it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cseries import (
    BiSeries,
    UniSeries,
    abs_compose_w,
    check_identity,
    compose_w,
    curve_integral_w,
    degree_maxima,
    exact_divide_by_curve,
    implicit_w,
    t_average,
)

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
    c = np.zeros((D + 1, D + 1), dtype=complex)
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
    f = fprime.antiderivative()
    S = phi + f.as_biseries()
    return f, S


def divided_data(phi, Btilde, w_curve):
    """V and F from exact division by (w - w(z)).

    V(0,0) = B(0)/4 under this normalization; 4V equals the unit-interval
    average of B~ along the segment from w(z) to w (checked in tests by
    quadrature).
    """
    dzphi = phi.differentiate("z")
    numV = dzphi - compose_w(dzphi, w_curve).as_biseries()
    V = exact_divide_by_curve(numV, w_curve)
    numF = Btilde - compose_w(Btilde, w_curve).as_biseries()
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

    ones = np.zeros(J.cap + 1, dtype=complex)
    ones[0] = 1.0
    on_curve = compose_w(J, w_curve).coeffs - ones
    # no floor: the majorant |J| o |w| is |J(0, 0)| = 1 at degree 0
    check_identity("J = 1 on the curve", on_curve, [abs_compose_w(J, w_curve)],
                   IDENTITY_RTOL, TransportIdentityError)

    dwJ = J.differentiate("w")
    u0 = compose_w(dwJ, w_curve)
    v0 = compose_w(dwJ.differentiate("z"), w_curve)
    A0 = (-1.0 * (v0 * u0.reciprocal("d_w J on curve")).antiderivative()).exp()
    a0 = A0.as_biseries() * J
    return mu, J, u0, A0, a0


class _Workspace:
    """Shared series data threaded through the transport recursion."""

    def __init__(self, Btilde, phi, fprime, w_curve, V, mu, J, u0, A0, a0, trusted0):
        self.B = Btilde
        self.w = w_curve
        self.mu = mu
        self.J = J
        self.A0 = A0
        self.amplitudes = [a0]
        self.trusted = [trusted0]
        self.c4 = 8.0 * phi.differentiate("z") + (4.0 * fprime).as_biseries()
        self.inv_2JV = (2.0 * (J * V)).reciprocal("2JV")
        self.inv_u0A0 = (u0 * A0).reciprocal("d_wJ * A0 on curve")
        self.residual_maxima = {}

    def verify_step(self, j):
        """Transport residual and compatibility for amplitude j.

        The operator is [4(2 d_z phi~ + f') d_w + (B~ - mu)], with c4 its
        first-order coefficient; the right-hand side is 4 d_z d_w a~_{j-1},
        zero for j = 0.  Both checks are floored at 1e-6 of the global
        magnitudes entering the construction: coefficients that are
        themselves cancellations (constant terms forced to zero by the
        construction) carry roundoff set by the amplitude arithmetic, which
        runs at the a_0 scale even when the identity's own terms are tiny.
        """
        a_new = self.amplitudes[j]
        parent = max(a_new.max_abs(), self.amplitudes[0].max_abs())
        t1, t2 = self.c4 * a_new.differentiate("w"), (self.B - self.mu) * a_new
        if j:
            rhs = 4.0 * self.amplitudes[j - 1].differentiate("w").differentiate("z")
        else:
            rhs = BiSeries.zeros(a_new.cap)
        terms = [t1, t2, rhs]
        self.residual_maxima[f"transport_{j}"] = check_identity(
            f"transport residual j={j}", degree_maxima(t1 + t2 - rhs), terms,
            IDENTITY_RTOL, TransportIdentityError, upto=self.trusted[j] - 1,
            floor=1e-6 * max(parent, *(t.max_abs() for t in terms)))

        dd = a_new.differentiate("w").differentiate("z")
        comp = compose_w(dd, self.w)
        majorant = abs_compose_w(dd, self.w)
        self.residual_maxima[f"compatibility_{j}"] = check_identity(
            f"compatibility constraint j={j}", comp.coeffs, [majorant],
            IDENTITY_RTOL, TransportIdentityError, upto=self.trusted[j] - 2,
            floor=1e-6 * max(majorant.max_abs(), dd.max_abs(), parent))


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
    Psi = (-1.0 * (p1 * ws.inv_u0A0)).antiderivative()
    A_next = ws.A0 * Psi
    a_next = particular + A_next.as_biseries() * ws.J
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
    w_curve: UniSeries
    f: UniSeries
    S: BiSeries
    V: BiSeries
    F: BiSeries
    J: BiSeries
    A0: UniSeries
    amplitudes: tuple
    mu: complex
    N: int
    trusted_radius: float
    trusted_degrees: tuple
    base_point: tuple
    residual_maxima: dict

    @property
    def cap(self):
        return self.phi.cap

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
    if cap < 3 * (N + 2):
        raise ValueError(
            f"degree cap {cap} too small for N={N}: need cap >= 3(N+2) = {3 * (N + 2)} "
            f"(each transport step consumes three derivative orders)"
        )
    B0 = complex(Btilde.coeffs[0, 0])
    if abs(B0) <= 1e-12:
        raise DegenerateFieldError("B(0) = 0 at the base point")
    if abs(Btilde.coeffs[0, 1]) <= 1e-12:
        raise DegenerateFieldError("d_zbar B(0) = 0 at the base point")

    w_curve = implicit_w(Btilde)
    phi = poisson_series(Btilde)
    res = 4.0 * phi.differentiate("w").differentiate("z") - Btilde
    check_identity("Poisson identity", degree_maxima(res), [Btilde],
                   IDENTITY_RTOL, TransportIdentityError, upto=cap - 2)

    f, S = eikonal_phase(phi, w_curve)
    fprime = f.differentiate()
    V, F = divided_data(phi, Btilde, w_curve)
    mu, J, u0, A0, a0 = first_transport(Btilde, phi, w_curve, V, F)

    ws = _Workspace(Btilde, phi, fprime, w_curve, V, mu, J, u0, A0, a0, cap - 1)
    ws.verify_step(0)
    for j in range(N):
        transport_step(ws, j)

    return WKBSolution(
        phi=phi, w_curve=w_curve, f=f, S=S, V=V, F=F, J=J, A0=A0,
        amplitudes=tuple(ws.amplitudes), mu=mu, N=N,
        trusted_radius=_trusted_radius(_last_diagonal(S, J, *ws.amplitudes), cap),
        trusted_degrees=tuple(ws.trusted),
        base_point=tuple(field.base_point), residual_maxima=dict(ws.residual_maxima),
    )


def _last_diagonal(*series):
    """Largest sum of |c_ab| over the last retained diagonal a + b = cap."""
    return max(float(np.abs(s.parts()[-1]).sum()) for s in series)


def _trusted_radius(diag, cap):
    """Radius r where a last retained diagonal of sum ``diag`` contributes
    <= 1e-4 at (r, r)."""
    return min(float((1e-4 / diag) ** (1.0 / cap)), 1e6) if diag > 0 else 1e6


# ----------------------------------------------------------------------------
# amplitude growth diagnostics
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundFit:
    m_fitted: float
    per_j_norms: tuple
    polydisc: tuple
    sigma_fitted: float

    def bound_holds(self):
        ok = True
        for j, nrm in enumerate(self.per_j_norms):
            jj = 1.0 if j == 0 else float(j) ** (7 * j)
            ok = ok and nrm <= self.m_fitted ** (j + 1) * jj * (1 + 1e-12)
        return ok


def fit_growth(sol, polydisc=None):
    """Sup-norms of the amplitudes on the polydisc boundary and the least m
    with ||a~_j|| <= m^(j+1) j^(7j), plus the empirical stretched exponent.

    The sup over the closed polydisc of a polynomial is attained on the
    distinguished boundary |z| = R1, |w| = R2, sampled on a 32 x 32 product
    grid (the tensor kernel of ``BiSeries.evaluate_grid``).
    """
    if polydisc is None:
        r = 0.25 * sol.trusted_radius
        polydisc = (r, r)
    R1, R2 = polydisc
    ang = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)
    z, w = R1 * np.exp(1j * ang), R2 * np.exp(1j * ang)
    norms = [float(np.max(np.abs(a.evaluate_grid(z, w)))) for a in sol.amplitudes]
    m = 0.0
    for j, nrm in enumerate(norms):
        jj = 1.0 if j == 0 else float(j) ** (7 * j)
        m = max(m, (nrm / jj) ** (1.0 / (j + 1)))
    # two-parameter fit log||a_j|| = (j+1) log m + sigma * j log j over j >= 2
    js = np.array([j for j in range(2, len(norms)) if norms[j] > 0], dtype=float)
    sigma = float("nan")
    if js.size >= 2:
        y = np.log([norms[int(j)] for j in js])
        M = np.stack([js + 1.0, js * np.log(js)], axis=1)
        coef, *_ = np.linalg.lstsq(M, y, rcond=None)
        sigma = float(coef[1])
    return BoundFit(m_fitted=m, per_j_norms=tuple(norms), polydisc=tuple(polydisc),
                    sigma_fitted=sigma)
