"""Complex magnetic potentials, admissibility data, and hypothesis checkers.

A field is a complex vector potential A : R^2 -> C^2 given by three closed
forms, A with its first partials A_jac and the partials B_jac of its field
B = curl A = d1 A2 - d2 A1, plus the Taylor data of B and A complexified at a
base point (see ``FieldSpec``).  B itself, like div A, is read from A_jac.
The admissibility data at a point x are

    Q1 = 1/4 Re[B (1 + dzB/dzbarB)] + 1/2 d1 Im A1
    Q2 = 1/4 Im[B dzB/dzbarB]       + 1/4 (d1 Im A2 + d2 Im A1)
    Q3 = 1/4 Re[B (1 - dzB/dzbarB)] + 1/2 d2 Im A2

with the Wirtinger derivatives (dzB, dzbarB) = (d1B -+ i d2B)/2.  One
function (``admissibility``) evaluates them from the closed forms A, A_jac
and B_jac at arrays of points: ``compute_Q`` is it at the base point, and
``gamma_scan`` is it on a whole raster, with one field for all its points.
Caveat: the cross-term realized by the assembled phase corresponds to the
opposite sign of Q2's potential-derivative part, so the (Q1, Q2, Q3) form
being positive definite does not by itself guarantee positivity of Re P when
d1 Im A2 + d2 Im A1 is nonzero at the base point; the cutoff selection in
the pseudomode stage reads only the built Re P, and its refusal states the
Q2_eff that phase realizes.

Builtins:

* ``oscillating``    A = (-sin(x1) x2 + i cos(x2), i cos(x2)), B = sin x1 + i sin x2
* ``polynomial``     B = a + b x1 + c x2 + R(x), A = (0, ∫_0^{x1} B(s, x2) ds)
* ``miller_simon``   A = c (-x2, x1) / (1+|x|)^alpha
* ``exponential``    A = i c e^{|x|^2} (-x2, x1)

plus user fields given by polynomial coefficient tables for A1, A2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cseries import BiSeries, real_coordinates

GAMMA_TOL = 1e-9  # tau_Gamma: "=0"/"!=0" tolerance on evaluated quantities


class FieldConsistencyError(ValueError):
    """curl A at the base point disagrees with the Taylor data."""


# ----------------------------------------------------------------------------
# small real-coefficient polynomial helper (dict of {(m, n): complex coeff})
# ----------------------------------------------------------------------------

def poly_eval(p, x1, x2):
    """The polynomial p at the points (x1, x2), times a ones array of x1's
    shape (so an empty or constant p still has that shape)."""
    out = 0.0 + 0.0j
    for (m, n), c in p.items():
        out = out + c * x1**m * x2**n
    return out * np.ones_like(np.asarray(x1, dtype=float))


def poly_partial(p, var):
    out = {}
    for (m, n), c in p.items():
        if var == 1 and m > 0:
            out[(m - 1, n)] = out.get((m - 1, n), 0.0) + m * c
        elif var == 2 and n > 0:
            out[(m, n - 1)] = out.get((m, n - 1), 0.0) + n * c
    return out


def poly_curl(a1, a2):
    d1a2 = poly_partial(a2, 1)
    d2a1 = poly_partial(a1, 2)
    out = dict(d1a2)
    for k, c in d2a1.items():
        out[k] = out.get(k, 0.0) - c
    return out


# ----------------------------------------------------------------------------
# field specification
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """A potential with closed-form first partials of it and of its field,
    plus complexified Taylor data.

    ``A`` maps (x1, x2) arrays to a pair (A1, A2), ``A_jac`` to the
    closed-form partials (d1A1, d2A1, d1A2, d2A2) and ``B_jac`` to the
    closed-form partials (d1B, d2B) of B = curl A; every builder gives the
    three.  ``B`` is d1A2 - d2A1 and ``div_A`` the trace, both read from
    ``A_jac``.  ``B_taylor`` is the complexified series of curl A at
    ``base_point`` and ``A_taylor`` the complexified pair (A1~, A2~) of A
    there, at the same cap.  Every builder makes both one way: the closed
    forms of B and A evaluated in ``BiSeries`` arithmetic on the shifted
    coordinates (X1~, X2~) = x0 + y~ of ``_shifted_coordinates``
    (polynomials through powers of X1~ and X2~, sin and cos through
    exp(+-iX~), |x|^2 through its exact series).  B~ has its own formula: as
    curl A~ it would lose its top degree to the derivative.  ``params`` holds
    every keyword of the builder but ``base_point`` and ``cap``, its defaults
    included, so ``make_field(name, params, base_point=..., cap=...)``
    rebuilds the field.

    Construction checks the closed forms against the Taylor data at the base
    point: curl A (central differences) against the constant term of
    ``B_taylor``, and the Wirtinger pair (d1B -+ i d2B)/2 of ``B_jac``
    against its degree-1 coefficients; a mismatch or a NaN raises
    FieldConsistencyError.

    ``A``, ``A_jac`` and ``B_jac`` (so ``B`` and ``div_A`` too) accept
    coordinate arrays that broadcast against each other (an open product
    grid x1[:, None], x2[None, :] as well as a dense meshgrid) and return
    arrays that broadcast to the coordinates' common shape, elementwise equal
    to their values on the dense grid; ``numop.apply_L``, ``check_C`` and
    ``gamma_scan`` sample on the grid's axes and rely on it, and a series'
    values (``BiSeries.evaluate`` and ``realify``) follow the same contract.
    A component may come back smaller than that shape (an empty polynomial
    gives 0j times a ones array of x1's shape).
    """

    name: str
    params: dict
    A: Callable
    A_jac: Callable
    B_jac: Callable
    B_taylor: BiSeries
    base_point: tuple
    analytic_radius: float
    A_taylor: tuple

    def __post_init__(self):
        if not self.analytic_radius > 0:
            raise ValueError("analytic_radius must be positive")
        if self.B_taylor.cap < 1:
            raise ValueError("B_taylor must carry at least degree 1")
        b_num = curl_fd(self.A, self.base_point)
        b0 = self.B_taylor.coeffs[0, 0]
        if not abs(b_num - b0) <= 1e-6 * max(1.0, abs(b0)):  # a NaN fails too
            raise FieldConsistencyError(
                f"curl A at base point {self.base_point} = {b_num}, Taylor constant term = {b0}"
            )
        x1, x2 = self.base_point
        closed = [complex(v) for v in _wirtinger(*self.B_jac(np.float64(x1), np.float64(x2)))]
        taylor = [complex(self.B_taylor.coeffs[1, 0]), complex(self.B_taylor.coeffs[0, 1])]
        tol = 1e-9 * max(1.0, *map(abs, closed))
        if not all(abs(t - c) <= tol for t, c in zip(taylor, closed)):  # a NaN fails too
            raise FieldConsistencyError(
                f"(dzB, dzbarB) at base point {self.base_point} = {tuple(closed)} from B_jac, "
                f"Taylor degree-1 terms = {tuple(taylor)}"
            )

    def B(self, x1, x2):
        return _curl(self.A_jac(x1, x2))

    def div_A(self, x1, x2):
        d1a1, _, _, d2a2 = self.A_jac(x1, x2)
        return d1a1 + d2a2


def _curl(jac):
    """B = d1A2 - d2A1 from the partials (d1A1, d2A1, d1A2, d2A2) of A."""
    return jac[2] - jac[1]


def _wirtinger(d1b, d2b):
    """The Wirtinger derivatives (dzB, dzbarB) = (d1B -+ i d2B)/2."""
    return 0.5 * (d1b - 1j * d2b), 0.5 * (d1b + 1j * d2b)


def curl_fd(A, x):
    """Central-difference curl of A at the point x (coordinate arrays
    broadcast), step 1e-5."""
    step = 1e-5
    x1, x2 = x
    _, a2p = A(x1 + step, x2)
    _, a2m = A(x1 - step, x2)
    a1p, _ = A(x1, x2 + step)
    a1m, _ = A(x1, x2 - step)
    return (a2p - a2m) / (2 * step) - (a1p - a1m) / (2 * step)


# ----------------------------------------------------------------------------
# builtins
# ----------------------------------------------------------------------------

def _shifted_coordinates(x0, cap):
    """The complexified x0 + y and |x0 + y|^2 = |x0|^2 + 2 x0 . y~ + zw.

    Every builder starts its Taylor data here, so this is where a base point
    whose |x0|^2 is infinite (a coordinate at or above about 1.34e154) is
    refused, with a ValueError naming it; a NaN one is left to FieldSpec's
    check."""
    try:
        r2 = x0[0] ** 2 + x0[1] ** 2
    except OverflowError:  # a float ** raises where * would give inf
        r2 = math.inf
    if r2 == math.inf:
        raise ValueError(f"|x0|^2 at base point {x0} is not finite")
    y1, y2 = real_coordinates(cap)
    rho = BiSeries.from_terms([(1, 1, 1.0)], cap) + (2 * x0[0]) * y1 + (2 * x0[1]) * y2 + r2
    return x0[0] + y1, x0[1] + y2, rho


def _sin_cos(X):
    """sin X and cos X of a series, from exp(iX) and exp(-iX)."""
    ep, em = (1j * X).exp(), (-1j * X).exp()
    return (ep - em) * -0.5j, (ep + em) * 0.5


def _powers(X, top):
    """The series X^0, X^1, ..., X^top."""
    out = [BiSeries.constant(1.0, X.cap)]
    for _ in range(top):
        out.append(out[-1] * X)
    return out


def _poly_series(p, pow1, pow2):
    """The polynomial p ({(m, n): coeff}) from the powers pow1[m] = X1^m and
    pow2[n] = X2^n, with no product by X^0; an empty p gives the zero series."""
    def monomial(m, n):
        return pow2[n] if m == 0 else pow1[m] if n == 0 else pow1[m] * pow2[n]

    return sum((c * monomial(m, n) for (m, n), c in p.items()), BiSeries.zeros(pow1[0].cap))


def oscillating_field(base_point=(0.0, 0.0), cap=24):
    """B = sin x1 + i sin x2 with A = (-sin(x1) x2 + i cos x2, i cos x2)."""
    x0 = (float(base_point[0]), float(base_point[1]))

    def A(x1, x2):
        return (-np.sin(x1) * x2 + 1j * np.cos(x2), 1j * np.cos(x2) * np.ones_like(np.asarray(x1, dtype=float)))

    def A_jac(x1, x2):
        z = np.zeros_like(np.asarray(x1, dtype=float))
        return (-np.cos(x1) * x2, -np.sin(x1) - 1j * np.sin(x2), z + 0j, -1j * np.sin(x2))

    def B_jac(x1, x2):
        return np.cos(x1), 1j * np.cos(x2)

    X1, X2, _ = _shifted_coordinates(x0, cap)
    sin1, _ = _sin_cos(X1)
    sin2, cos2 = _sin_cos(X2)
    return FieldSpec(
        name="oscillating", params={}, A=A, A_jac=A_jac, B_jac=B_jac,
        B_taylor=sin1 + 1j * sin2, base_point=x0, analytic_radius=1.0,
        A_taylor=(1j * cos2 - sin1 * X2, 1j * cos2),
    )


def polynomial_field(a=1.0, b=1j, c=1.0, R=None, base_point=(0.0, 0.0), cap=24):
    """B = a + b x1 + c x2 + R(x) with the gauge A = (0, ∫_0^{x1} B(s, x2) ds).

    R must be a real-coefficient polynomial (dict {(m, n): coeff}); None
    stands for (x1^2 + x2^2)^3.
    """
    if R is None:
        R = {(6, 0): 1.0, (4, 2): 3.0, (2, 4): 3.0, (0, 6): 1.0}
    Bp = {(0, 0): complex(a), (1, 0): complex(b), (0, 1): complex(c)}
    for (m, n), v in R.items():
        if abs(complex(v).imag) > 0:
            raise ValueError("R must be real-valued")
        Bp[(m, n)] = Bp.get((m, n), 0.0) + complex(v)
    # A2 = \int_0^{x1} B(s, x2) ds, term-wise
    A2p = {(m + 1, n): v / (m + 1) for (m, n), v in Bp.items()}
    return _field_from_polys(
        "polynomial",
        {"a": complex(a), "b": complex(b), "c": complex(c), "R": dict(R)},
        {}, A2p, base_point, cap, analytic_radius=2.0,
    )


def user_polynomial_field(A1, A2, base_point=(0.0, 0.0), cap=24, analytic_radius=2.0):
    """A = (A1, A2) given as coefficient tables {(m, n): complex coeff}."""
    return _field_from_polys(
        "user_polynomial", {"A1": dict(A1), "A2": dict(A2), "analytic_radius": analytic_radius},
        dict(A1), dict(A2), base_point, cap, analytic_radius,
    )


def _field_from_polys(name, params, A1p, A2p, base_point, cap, analytic_radius):
    x0 = (float(base_point[0]), float(base_point[1]))
    Bp = poly_curl(A1p, A2p)

    def values(*polys):
        return lambda x1, x2: tuple(poly_eval(p, x1, x2) for p in polys)

    # one power table per coordinate, up to the degrees of A (B's are lower)
    X1, X2, _ = _shifted_coordinates(x0, cap)
    pow1 = _powers(X1, max((m for m, _ in [*A1p, *A2p]), default=0))
    pow2 = _powers(X2, max((n for _, n in [*A1p, *A2p]), default=0))
    return FieldSpec(
        name=name, params=params, A=values(A1p, A2p),
        A_jac=values(*(poly_partial(p, i) for p in (A1p, A2p) for i in (1, 2))),
        B_jac=values(poly_partial(Bp, 1), poly_partial(Bp, 2)),
        B_taylor=_poly_series(Bp, pow1, pow2), base_point=x0, analytic_radius=analytic_radius,
        A_taylor=(_poly_series(A1p, pow1, pow2), _poly_series(A2p, pow1, pow2)),
    )


def _off_origin_radius(x1, x2):
    """|x| at points that avoid the origin, where the Miller-Simon field B
    has a kink; refuses any point within 1e-9 of it."""
    r = np.hypot(x1, x2)
    if np.any(r < 1e-9):
        raise ValueError("miller_simon base point must avoid the origin (|x| kink)")
    return r


def miller_simon_field(c=1 + 1j, alpha=1.0, base_point=(1.0, 0.5), cap=3):
    """A = c (-x2, x1) / (1+|x|)^alpha; bounded field, bounded potential.

    With f = c (1+r)^-alpha and g = f'(r)/r = -alpha c (1+r)^-(alpha+1) / r,
    the partials of A are (-g x1 x2, -(f + g x2^2), f + g x1^2, g x1 x2), so
    B = 2f + g r^2 = c (2 (1+r)^-alpha - alpha r (1+r)^-(alpha+1)).  A is C^1
    at the origin, where g x_i x_j -> 0: there A_jac = (0, -c, c, 0) and
    B = 2c.  B = B(r) with B'(r) = c alpha ((alpha - 2) r - 3) /
    (1+r)^(alpha+2), so d_i B = B'(r) x_i / r away from the origin; B_jac
    refuses points within 1e-9 of it, where B has a kink.
    """
    c = complex(c)
    alpha = float(alpha)
    x0 = (float(base_point[0]), float(base_point[1]))

    def A(x1, x2):
        r = np.hypot(x1, x2)
        f = c / (1.0 + r) ** alpha
        return (-f * x2, f * x1)

    def A_jac(x1, x2):
        r = np.hypot(x1, x2)
        f = c / (1.0 + r) ** alpha
        # at r = 0 the products g x_i x_j vanish: divide by 1 there
        g = -alpha * c / ((1.0 + r) ** (alpha + 1) * np.where(r > 0, r, 1.0))
        return -g * x1 * x2, -(f + g * x2**2), f + g * x1**2, g * x1 * x2

    def B_jac(x1, x2):
        r = _off_origin_radius(x1, x2)
        g = c * alpha * ((alpha - 2.0) * r - 3.0) / ((1.0 + r) ** (alpha + 2) * r)
        return g * x1, g * x2

    _off_origin_radius(*x0)
    X1, X2, rho = _shifted_coordinates(x0, cap)
    r = rho.power(0.5)
    f = c * (1 + r).power(-alpha)
    bt = f * (2 - alpha * r * (1 + r).reciprocal())
    return FieldSpec(
        name="miller_simon", params={"c": c, "alpha": alpha}, A=A, A_jac=A_jac,
        B_jac=B_jac, B_taylor=bt, base_point=x0,
        analytic_radius=0.5 * min(1.0, math.hypot(*x0)), A_taylor=(-f * X2, f * X1),
    )


def exponential_field(c=0.4, base_point=(0.0, 0.0), cap=24):
    """A = i c e^{|x|^2} (-x2, x1); Im B = 2c(1+|x|^2)e^{|x|^2} and
    d_i B = 4ic x_i (2+|x|^2) e^{|x|^2}."""
    c = float(c)
    x0 = (float(base_point[0]), float(base_point[1]))

    def A(x1, x2):
        e = np.exp(x1**2 + x2**2)
        return (-1j * c * e * x2, 1j * c * e * x1)

    def B_jac(x1, x2):
        r2 = x1**2 + x2**2
        g = 4j * c * (2.0 + r2) * np.exp(r2)
        return g * x1, g * x2

    def A_jac(x1, x2):
        e = np.exp(x1**2 + x2**2)
        return (
            -2j * c * e * x1 * x2, -1j * c * e * (1 + 2 * x2**2),
            1j * c * e * (1 + 2 * x1**2), 2j * c * e * x1 * x2,
        )

    # B~ = 2ic (1 + rho) e^rho and A~ = ic e^rho (-X2~, X1~), rho = |x|^2~
    X1, X2, rho = _shifted_coordinates(x0, cap)
    e = rho.exp()
    return FieldSpec(
        name="exponential", params={"c": c}, A=A, A_jac=A_jac, B_jac=B_jac,
        B_taylor=(1 + rho) * e * (2j * c),
        base_point=x0, analytic_radius=1.0,
        A_taylor=(e * X2 * (-1j * c), e * X1 * (1j * c)),
    )


BUILTIN_FIELDS = {
    "oscillating": oscillating_field,
    "polynomial": polynomial_field,
    "miller_simon": miller_simon_field,
    "exponential": exponential_field,
    "user_polynomial": user_polynomial_field,
}


def make_field(name, params=None, **where):
    """The builtin ``name`` built from its keyword ``params`` and ``where``
    (``base_point``, ``cap``); whatever is left out takes the builder's default.

    The build runs with numpy's overflow, invalid and divide warnings off:
    ``FieldSpec`` refuses a field that is not finite at its base point by
    name, so the warnings on the way there are noise."""
    builder = BUILTIN_FIELDS.get(name)
    if builder is None:
        raise ValueError(f"unknown field {name!r}; builtins: {sorted(BUILTIN_FIELDS)}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return builder(**(params or {}), **where)


# ----------------------------------------------------------------------------
# admissibility data
# ----------------------------------------------------------------------------

GAMMA_CONDITIONS = ("im_A_nonzero", "B_zero", "dzbar_B_zero", "Q1_nonpositive",
                    "det_nonpositive")


@dataclass(frozen=True)
class GammaReport:
    """Admissibility data.  ``compute_Q`` fills it with numbers and the names
    of the failed conditions; ``admissibility`` and ``gamma_scan`` with
    arrays over their points, ``failed_conditions`` then being a bool array
    with one row per ``GAMMA_CONDITIONS`` entry."""

    Q1: float
    Q2: float
    Q3: float
    det2: float
    imA_norm: float
    B0: complex
    dzbarB: complex
    in_gamma: bool
    failed_conditions: tuple


def admissibility(field, x1, x2):
    """Admissibility coefficients and membership at the points (x1, x2).

    Reads the closed forms A, A_jac and B_jac of ``field`` at coordinate
    arrays that broadcast against each other, B = d1A2 - d2A1 and the
    partials of Im A from the one A_jac call; every entry of the returned
    GammaReport has their common shape.

    Q1 = 1/4 Re[B (1 + dzB/dzbarB)] + 1/2 d1 Im A1
    Q2 = 1/4 Im[B dzB/dzbarB]       + 1/4 (d1 Im A2 + d2 Im A1)
    Q3 = 1/4 Re[B (1 - dzB/dzbarB)] + 1/2 d2 Im A2

    where dzB/dzbarB is read as 0 at a point with |dzbarB| <= GAMMA_TOL.
    """
    shape = np.broadcast_shapes(np.shape(x1), np.shape(x2))
    jac = field.A_jac(x1, x2)
    b0 = np.broadcast_to(_curl(jac), shape)
    dzB, dzbarB = (np.broadcast_to(v, shape) for v in _wirtinger(*field.B_jac(x1, x2)))
    a1, a2 = field.A(x1, x2)
    imA_norm = np.broadcast_to(np.hypot(np.imag(a1), np.imag(a2)), shape)
    d1a1, d2a1, d1a2, d2a2 = (np.imag(v) for v in jac)
    flat = np.abs(dzbarB) <= GAMMA_TOL
    rho = np.where(flat, 0j, dzB / np.where(flat, 1.0, dzbarB))
    Q1 = 0.25 * (b0 * (1.0 + rho)).real + 0.5 * d1a1
    Q2 = 0.25 * (b0 * rho).imag + 0.25 * (d1a2 + d2a1)
    Q3 = 0.25 * (b0 * (1.0 - rho)).real + 0.5 * d2a2
    det2 = Q1 * Q3 - Q2 * Q2
    failed = np.array([imA_norm > GAMMA_TOL, np.abs(b0) <= GAMMA_TOL, flat,
                       ~(Q1 > GAMMA_TOL), ~(det2 > GAMMA_TOL)])  # a NaN Q fails
    return GammaReport(
        Q1=Q1, Q2=Q2, Q3=Q3, det2=det2, imA_norm=imA_norm, B0=b0, dzbarB=dzbarB,
        in_gamma=~failed.any(axis=0), failed_conditions=failed,
    )


def compute_Q(field):
    """``admissibility`` at the base point, as numbers and the names of the
    failed conditions."""
    x1, x2 = field.base_point
    rep = admissibility(field, np.float64(x1), np.float64(x2))
    failed = tuple(name for name, f in zip(GAMMA_CONDITIONS, rep.failed_conditions) if f)
    return GammaReport(
        Q1=float(rep.Q1), Q2=float(rep.Q2), Q3=float(rep.Q3), det2=float(rep.det2),
        imA_norm=float(rep.imA_norm), B0=complex(rep.B0), dzbarB=complex(rep.dzbarB),
        in_gamma=not failed, failed_conditions=failed,
    )


def gamma_scan(field, region, n):
    """Membership raster of ``field`` on the n x n grid over region =
    (x1min, x1max, x2min, x2max), in one array pass.

    ``admissibility`` is evaluated on the open product grid xs[:, None],
    ys[None, :], so one field serves every point whatever its base point.
    Returns (xs, ys, report) with report a GammaReport of n x n arrays, row
    i and column j at (xs[i], ys[j]).  Raises FieldConsistencyError naming
    the first point in row-major order where the central-difference curl of
    A disagrees with B = d1A2 - d2A1 from A_jac (the check a field based
    there makes) or where a value of the report is not finite; numpy's
    warnings on the way there are not printed.
    """
    x1min, x1max, x2min, x2max = region
    xs = np.linspace(x1min, x1max, n)
    ys = np.linspace(x2min, x2max, n)
    x1, x2 = xs[:, None], ys[None, :]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rep = admissibility(field, x1, x2)
        b = rep.B0
        curl = np.broadcast_to(curl_fd(field.A, (x1, x2)), b.shape)
        curl_ok = np.abs(curl - b) <= 1e-6 * np.maximum(1.0, np.abs(b))  # a NaN fails too
    finite = np.logical_and.reduce([np.isfinite(v) for v in (
        rep.Q1, rep.Q2, rep.Q3, rep.det2, rep.imA_norm, rep.B0, rep.dzbarB)])
    bad = ~(curl_ok & finite)
    if np.any(bad):
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        note = "; its admissibility data are not finite" if curl_ok[i, j] else ""
        raise FieldConsistencyError(
            f"curl A at base point {(float(xs[i]), float(ys[j]))} = {complex(curl[i, j])}, "
            f"B = {complex(b[i, j])}{note}"
        )
    return xs, ys, rep


# ----------------------------------------------------------------------------
# pointwise conditions (C1)/(C2) and compactness trends (H1)-(H3)
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionCheckConfig:
    epsilon: float
    C_const: float
    sample_region: tuple  # (x1min, x1max, x2min, x2max)
    sample_density: int
    h: float

    def validate(self, which):
        """Refuse numbers outside the check's ranges: 0 < epsilon < 1 for C1
        and < 1/2 for C2, a finite C_const and a finite h > 0 (a NaN fails
        each)."""
        hi = 1.0 if which == "C1" else 0.5
        if not 0.0 < self.epsilon < hi:
            raise ValueError(f"{which}: epsilon {self.epsilon:g} must lie in (0, {hi:g})")
        if not math.isfinite(self.C_const):
            raise ValueError(f"{which}: C_const {self.C_const:g} must be finite")
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"h {self.h:g} must be finite and > 0")


@dataclass(frozen=True)
class CheckVerdict:
    which: str
    sign: str
    passed: bool
    min_slack: float
    location: tuple


def check_C(field, cfg, which="C1"):
    """Sampled check of |Im A|^2 <= s eps h (Re|Im) B + C, for some sign s, on
    a grid.

    A sampling check only; a passing verdict is not a certificate.  The
    field is sampled once, on the grid's axes (an open product grid), and its
    values broadcast to the n x n samples; the slack of both signs is read
    from them.  The verdict is that of the sign whose least slack is larger,
    "+" on a tie.  Raises ValueError naming the first sample, in row-major
    order, where A, B or |Im A|^2 is not finite (no verdict is read from such
    values; an infinite |Im A|^2 would also make the pass tolerance infinite).
    """
    cfg.validate(which)
    x1min, x1max, x2min, x2max = cfg.sample_region
    xs = np.linspace(x1min, x1max, cfg.sample_density)
    ys = np.linspace(x2min, x2max, cfg.sample_density)
    x1, x2 = np.meshgrid(xs, ys, indexing="ij", sparse=True)
    shape = (xs.size, ys.size)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a1, a2, b = (np.broadcast_to(v, shape) for v in (*field.A(x1, x2), field.B(x1, x2)))
        lhs = np.imag(a1) ** 2 + np.imag(a2) ** 2
    bad = ~(np.isfinite(a1) & np.isfinite(a2) & np.isfinite(b) & np.isfinite(lhs))
    if np.any(bad):
        i, j = np.unravel_index(np.argmax(bad), shape)
        raise ValueError(f"the field or |Im A|^2 is not finite at the sample point "
                         f"({xs[i]:g}, {ys[j]:g})")
    part = np.real(b) if which == "C1" else np.imag(b)
    tol = -1e-12 * max(1.0, float(np.max(lhs)))

    def verdict(sign, s):
        slack = s * cfg.epsilon * cfg.h * part + cfg.C_const - lhs
        k = np.unravel_index(np.argmin(slack), shape)
        worst = float(slack[k])
        return CheckVerdict(which=which, sign=sign, passed=bool(worst >= tol), min_slack=worst,
                            location=(float(xs[k[0]]), float(ys[k[1]])))

    return max((verdict("+", 1.0), verdict("-", -1.0)), key=lambda v: v.min_slack)


@dataclass(frozen=True)
class HTrendReport:
    diverging: bool
    growth_exponent: float
    sign: str = ""  # H1 only: detected sign of Re B at large radii


def check_H(field, radii):
    """Heuristic divergence trends for the three compactness hypotheses.

    B and A are evaluated on every radius x 64 directions in one array pass.
    For each radius the relevant quantity (|Re B|, |Im B|, |Im A|) is
    minimised over the directions; divergence is reported when the last
    three minima increase strictly by at least 5% each.  Raises ValueError
    naming the first radius where B or A is not finite on the circle (no
    trend is read from such values).
    """
    radii = np.asarray(sorted(radii), dtype=float)
    ang = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    x1, x2 = radii[:, None] * np.cos(ang), radii[:, None] * np.sin(ang)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        b, a1, a2 = (np.broadcast_to(v, x1.shape) for v in (field.B(x1, x2), *field.A(x1, x2)))
    bad = ~np.all(np.isfinite(b) & np.isfinite(a1) & np.isfinite(a2), axis=1)
    if np.any(bad):
        raise ValueError(f"the field is not finite on the circle r = {radii[np.argmax(bad)]:g}")
    rb = np.real(b[-1])
    sign = "+" if np.all(rb > 0) else ("-" if np.all(rb < 0) else "mixed")

    out = {}
    for hyp, q in (("H1", np.abs(np.real(b))), ("H2", np.abs(np.imag(b))),
                   ("H3", np.hypot(np.imag(a1), np.imag(a2)))):
        v = np.min(q, axis=1)
        tail = v[-3:]
        # the min must both trend up and be genuinely nonzero on the circle
        # (a field vanishing on a ray keeps the min at float-noise level)
        significant = tail[-1] > 1e-8 * max(float(np.max(q[-1])), 1e-300)
        diverging = bool(np.all(tail[1:] >= 1.05 * tail[:-1]) and tail[-1] > 0
                         and significant)
        pos = v > 0
        if np.count_nonzero(pos) >= 2:
            slope = np.polyfit(np.log(radii[pos]), np.log(v[pos]), 1)[0]
        else:
            slope = float("-inf")
        out[hyp] = HTrendReport(diverging=diverging, growth_exponent=float(slope),
                                sign=sign if hyp == "H1" else "")
    return out
