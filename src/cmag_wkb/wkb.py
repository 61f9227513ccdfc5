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

Every step is verified as a series identity: the transport residual
(w - w(z)) [8V d_w + F] a~_{j+1} - 4 d_z d_w a~_j and the compatibility
restriction must vanish coefficient-wise up to the trusted degree.  Each
transport step consumes three derivative orders, which is where the degree
budget rule cap >= 3(N+2) comes from; the solver tracks the trusted degree
of every amplitude and only asserts identities below it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cseries import (
    BiSeries,
    UniSeries,
    abs_compose_w,
    compose_w,
    curve_integral_w,
    degree_maxima,
    degree_scale,
    exact_divide_by_curve,
    implicit_w,
    t_average,
)

IDENTITY_RTOL = 1e-10


class DegenerateFieldError(ValueError):
    """Base point outside the admissible set: B(0) = 0 or d_zbar B(0) = 0."""


class TransportIdentityError(RuntimeError):
    """A series identity that must hold exactly failed beyond tolerance."""

    def __init__(self, equation, worst, degree, tol):
        self.equation = equation
        self.worst = worst
        self.degree = degree
        super().__init__(
            f"{equation}: worst coefficient {worst:.3e} at degree {degree} "
            f"exceeds tolerance {tol:.3e}"
        )


def _curve_check_scale(series, w_curve, parent_scale=0.0):
    """Per-degree scale for on-curve restriction checks, floored by the
    global magnitudes (restricted constant terms are cancellations whose
    roundoff is set by the parent series' coefficients, not by the possibly
    tiny restricted values themselves)."""
    sc = np.maximum.accumulate(abs_compose_w(series, w_curve).coeffs.real + 1e-30)
    return np.maximum(sc, 1e-6 * max(sc[-1], series.max_abs(), parent_scale))


def _assert_small(res, trusted_deg, scale_vec, equation, rtol=IDENTITY_RTOL):
    """Per-degree check: coefficients of degree k <= trusted_deg must stay
    below rtol * scale_vec[k] (scale_vec from the terms of the identity)."""
    return _assert_small_uni(degree_maxima(res), trusted_deg, scale_vec, equation, rtol)


def _assert_small_uni(res, trusted_deg, scale_vec, equation, rtol=IDENTITY_RTOL):
    n = min(trusted_deg + 1, len(res))
    if n <= 0:
        return 0.0
    sel = np.abs(res[:n])
    rel = sel / np.maximum(np.asarray(scale_vec)[:n], 1e-300)
    k = int(np.argmax(rel))
    if not rel[k] <= rtol:  # a NaN fails too
        raise TransportIdentityError(equation, float(sel[k]), k, rtol * scale_vec[k])
    return float(rel[k])


# ----------------------------------------------------------------------------
# individual construction steps
# ----------------------------------------------------------------------------

def poisson_series(Btilde):
    """phi~ with 4 d_z d_w phi~ = B~ and phi~(z, 0) = phi~(0, w) = 0."""
    D = Btilde.cap
    c = np.zeros((D + 1, D + 1), dtype=complex)
    a = np.arange(1, D + 1, dtype=float)
    c[1:, 1:] = Btilde.coeffs[:-1, :-1] / (4.0 * np.outer(a, a))
    return BiSeries(c, D, Btilde.center)


def eikonal_phase(phi, w_curve):
    """f with f' = -2 d_z phi~(z, w(z)), f(0) = 0, and S~ = phi~ + f.

    The gauge constant Im theta(0) is dropped here (it scales the pseudomode
    by a fixed factor and cancels in every residual ratio); the pseudomode
    assembly reintroduces the gauge function separately.
    """
    dzphi = phi.differentiate("z")
    fprime = -2.0 * compose_w(dzphi, w_curve)
    f = fprime.antiderivative()
    S = phi + f.as_biseries(phi.center)
    # transport coefficient must vanish on the curve by construction
    coeff_on_curve = 2.0 * compose_w(dzphi, w_curve) + fprime
    scale = np.maximum.accumulate(
        2.0 * abs_compose_w(dzphi, w_curve).coeffs.real + np.abs(fprime.coeffs) + 1e-30
    )
    _assert_small_uni(coeff_on_curve.coeffs, phi.cap - 1, scale,
                      "eikonal transport coefficient on the curve")
    return f, S


def divided_data(phi, Btilde, w_curve):
    """V and F from exact division by (w - w(z)).

    V(0,0) = B(0)/4 under this normalization; 4V equals the unit-interval
    average of B~ along the segment from w(z) to w (checked in tests by
    quadrature).
    """
    dzphi = phi.differentiate("z")
    numV = dzphi - compose_w(dzphi, w_curve).as_biseries(phi.center)
    V = exact_divide_by_curve(numV, w_curve)
    numF = Btilde - compose_w(Btilde, w_curve).as_biseries(phi.center)
    F = exact_divide_by_curve(numF, w_curve)
    return V, F


def first_transport(Btilde, phi, w_curve, V, F):
    """Leading amplitude: quasi-eigenvalue mu, integrating factor J, A_0, a~_0."""
    mu = complex(Btilde.coeffs[0, 0])
    if abs(V.coeffs[0, 0]) == 0.0:
        raise DegenerateFieldError("V(0,0) = 0: field vanishes at the base point")
    g = F * V.reciprocal("8V").__mul__(1.0 / 8.0)
    J = (-1.0 * curve_integral_w(g, w_curve)).exp()

    ones = np.zeros(J.cap + 1, dtype=complex)
    ones[0] = 1.0
    on_curve = compose_w(J, w_curve).coeffs - ones
    scale = np.maximum.accumulate(abs_compose_w(J, w_curve).coeffs.real + 1.0)
    _assert_small_uni(on_curve, J.cap, scale, "J restricted to the curve is 1")

    dwJ = J.differentiate("w")
    u0 = compose_w(dwJ, w_curve)
    if abs(u0.coeffs[0]) == 0.0:
        if u0.max_abs() <= 1e-13 * max(J.max_abs(), 1.0):
            # F == 0 case (constant-on-curve J): the constraint is vacuous
            # and the normalized choice is A_0 == 1.
            A0 = UniSeries.constant(1.0, J.cap)
            return mu, J, A0, A0.as_biseries(J.center) * J
        raise DegenerateFieldError(
            "d_w J vanishes on the curve at 0; the input series is degenerate"
        )
    v0 = compose_w(dwJ.differentiate("z"), w_curve)
    A0 = (-1.0 * (v0 * u0.reciprocal("d_w J on curve")).antiderivative()).exp()
    a0 = A0.as_biseries(J.center) * J
    return mu, J, A0, a0


class _Workspace:
    """Shared series data threaded through the transport recursion."""

    def __init__(self, Btilde, phi, fprime, w_curve, V, F, mu, J, A0, a0, trusted0):
        self.B = Btilde
        self.phi = phi
        self.w = w_curve
        self.V = V
        self.F = F
        self.mu = mu
        self.J = J
        self.A0 = A0
        self.amplitudes = [a0]
        self.trusted = [trusted0]
        self.c4 = 8.0 * phi.differentiate("z") + (4.0 * fprime).as_biseries(phi.center)
        self.u0 = compose_w(J.differentiate("w"), w_curve)
        self.inv_2JV = (2.0 * (J * V)).reciprocal("2JV")
        if abs(self.u0.coeffs[0]) == 0.0:
            self.inv_u0A0 = None  # trivial F == 0 branch: constraint is vacuous
        else:
            self.inv_u0A0 = (self.u0 * A0).reciprocal("d_wJ * A0 on curve")
        self.residual_maxima = {}

    def residual_scale(self, a_new, rhs):
        """Per-degree magnitudes of the identity's terms, pre-cancellation.

        Floored at 1e-6 of the global magnitudes entering the construction:
        coefficients that are themselves cancellations (constant terms forced
        to zero by the construction) carry roundoff set by the amplitude
        arithmetic, which runs at the a_0 scale even when the identity's own
        terms are tiny.
        """
        t1 = abs(self.c4) * abs(a_new.differentiate("w"))
        t2 = abs(self.B - self.mu) * abs(a_new)
        ds = degree_scale([t1, t2, abs(rhs)])
        floor = max(ds[-1], self.amplitudes[0].max_abs(), a_new.max_abs())
        return np.maximum(ds, 1e-6 * floor)

    def verify_step(self, j):
        """Transport residual and compatibility for amplitude j.

        The operator is [4(2 d_z phi~ + f') d_w + (B~ - mu)], with c4 its
        first-order coefficient; the right-hand side is 4 d_z d_w a~_{j-1},
        zero for j = 0.
        """
        a_new = self.amplitudes[j]
        lhs = self.c4 * a_new.differentiate("w") + (self.B - self.mu) * a_new
        if j:
            rhs = 4.0 * self.amplitudes[j - 1].differentiate("w").differentiate("z")
        else:
            rhs = BiSeries.zeros(a_new.cap, a_new.center)
        res = lhs - rhs
        deg = self.trusted[j] - 1
        worst = _assert_small(res, deg, self.residual_scale(a_new, rhs),
                              f"transport residual j={j}")
        self.residual_maxima[f"transport_{j}"] = worst

        dd = a_new.differentiate("w").differentiate("z")
        comp = compose_w(dd, self.w)
        cdeg = self.trusted[j] - 2
        parent = max(a_new.max_abs(), self.amplitudes[0].max_abs())
        cscale = _curve_check_scale(dd, self.w, parent_scale=parent)
        cw = _assert_small_uni(4.0 * np.abs(comp.coeffs), cdeg, 4.0 * cscale,
                               f"compatibility constraint j={j}")
        self.residual_maxima[f"compatibility_{j}"] = cw


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
    if ws.inv_u0A0 is None:
        if p1.max_abs() > 1e-12 * max(particular.max_abs(), 1.0):
            raise DegenerateFieldError(
                "constraint unsolvable: d_w J vanishes on the curve but the "
                "particular solution violates the compatibility restriction"
            )
        Psi = UniSeries.zeros(ws.J.cap)
    else:
        Psi = (-1.0 * (p1 * ws.inv_u0A0)).antiderivative()
    A_next = ws.A0 * Psi
    a_next = particular + A_next.as_biseries(ws.J.center) * ws.J
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

    def tail_bound(self, r):
        """Truncation-tail estimate at radius r: the largest last retained
        diagonal of S, J and the amplitudes (the family the trusted radius
        comes from) at r, times rho/(1 - rho) with rho = r over the trusted
        radius (infinite from rho = 1 on)."""
        diag = _last_diagonal(self.S, self.J, *self.amplitudes) * r**self.cap
        rho = r / max(self.trusted_radius, 1e-300)
        return diag * rho / (1.0 - rho) if rho < 1.0 else float("inf")

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
            "w_curve": _uni_records(self.w_curve),
            "f": _uni_records(self.f),
            "S": self.S.to_records(),
            "V": self.V.to_records(),
            "F": self.F.to_records(),
            "J": self.J.to_records(),
            "A0": _uni_records(self.A0),
            "amplitudes": [a.to_records() for a in self.amplitudes],
            "residual_maxima": {k: float(v) for k, v in sorted(self.residual_maxima.items())},
        }
        return json.dumps(d, indent=1, sort_keys=True)


def _uni_records(u):
    return {
        "cap": int(u.cap),
        "coeffs": [[int(k), float(c.real).hex(), float(c.imag).hex()]
                   for k, c in enumerate(u.coeffs) if c != 0],
    }


def max_transport_order(cap):
    """Largest N with cap >= 3(N+2)."""
    return cap // 3 - 2


def solve_wkb(field_or_series, N=3, base_point=None):
    """Run the full construction to transport order N.

    Accepts a FieldSpec (only its B_taylor is used: the phase and amplitude
    data are gauge-independent) or a bare complexified BiSeries.
    """
    if isinstance(field_or_series, BiSeries):
        Btilde = field_or_series
        x0 = tuple(base_point) if base_point is not None else (0.0, 0.0)
    else:
        Btilde = field_or_series.B_taylor
        x0 = field_or_series.base_point

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
    _assert_small(res, cap - 2, degree_scale([abs(Btilde)]), "Poisson identity")

    f, S = eikonal_phase(phi, w_curve)
    fprime = f.differentiate()
    V, F = divided_data(phi, Btilde, w_curve)
    mu, J, A0, a0 = first_transport(Btilde, phi, w_curve, V, F)

    ws = _Workspace(Btilde, phi, fprime, w_curve, V, F, mu, J, A0, a0, cap - 1)
    ws.verify_step(0)
    for j in range(N):
        transport_step(ws, j)

    return WKBSolution(
        phi=phi, w_curve=w_curve, f=f, S=S, V=V, F=F, J=J, A0=A0,
        amplitudes=tuple(ws.amplitudes), mu=mu, N=N,
        trusted_radius=_trusted_radius(_last_diagonal(S, J, *ws.amplitudes), cap),
        trusted_degrees=tuple(ws.trusted),
        base_point=tuple(x0), residual_maxima=dict(ws.residual_maxima),
    )


def _last_diagonal(*series):
    """Largest sum of |c_ab| over the last retained diagonal a + b = cap."""
    return max(float(np.abs(s.parts()[-1]).sum()) for s in series)


def _trusted_radius(diag, cap, tol=1e-4):
    """Radius r where a last retained diagonal of sum ``diag`` contributes
    <= tol at (r, r)."""
    return min(float((tol / diag) ** (1.0 / cap)), 1e6) if diag > 0 else 1e6


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


def fit_growth(sol, polydisc=None, mesh=32):
    """Sup-norms of the amplitudes on the polydisc boundary and the least m
    with ||a~_j|| <= m^(j+1) j^(7j), plus the empirical stretched exponent.

    The sup over the closed polydisc of a polynomial is attained on the
    distinguished boundary |z| = R1, |w| = R2, sampled on a mesh x mesh grid.
    """
    if polydisc is None:
        r = 0.25 * sol.trusted_radius
        polydisc = (r, r)
    R1, R2 = polydisc
    ang = np.linspace(0.0, 2 * np.pi, mesh, endpoint=False)
    Z, W = np.meshgrid(R1 * np.exp(1j * ang), R2 * np.exp(1j * ang), indexing="ij")
    norms = []
    for a in sol.amplitudes:
        norms.append(float(np.max(np.abs(a.evaluate(Z, W)))))
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
