"""Truncated power series in one and two complex variables.

Everything downstream (phase construction, transport recursion, pseudomode
evaluation) runs on two small immutable containers:

* ``UniSeries`` -- a polynomial c0 + c1*z + ... + cD*z**D,
* ``BiSeries``  -- a polynomial in (z, w) truncated at total degree D,

with complex binary64 coefficients.  Truncation at total degree D is the
quotient by the ideal of monomials of degree > D, so ring identities
(associativity, distributivity, exp/reciprocal defining relations) hold
coefficient-wise up to floating-point roundoff.  Differentiation is the one
operation that loses information: the cap stays D but coefficients of degree
D become untrustworthy (the dropped degree-(D+1) tail would have fed them).
Callers that chain derivatives must track their own trusted degree; the
solver in :mod:`cmag_wkb.wkb` does exactly that.

Storage is dense: a (D+1) x (D+1) complex array with the a+b > D corner kept
identically zero.  At the default cap D = 24 that is at most 325 active
monomials, far cheaper than a sparse map.

Degree-wise arithmetic has one kernel.  ``parts()`` lists the homogeneous
parts of a series: part k is the 1-D array of c[a, k-a], a = 0..k, indexed by
the z-degree (for a UniSeries it is the single coefficient c[k]).  The part of
degree k of a product is the sum over j of ``np.convolve`` of part j with part
k-j, so the bivariate product, ``exp`` and ``power`` (Euler-operator
recurrences) and ``reciprocal`` are per-degree convolution sums, and the
per-degree readers (``degree_maxima``, the dropped-term flag of
``antiderivative``) reduce single parts.  The sums are direct, never FFTs:
the roundoff of degree k is set by the magnitudes that enter degree k, which
the per-degree identity scales rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as _npoly

DEFAULT_CAP = 24

#: relative tolerance for the exact-division remainder check
DIV_RTOL = 1e-10


class SeriesStructureError(ValueError):
    """Operands disagree on cap or expansion center."""


class SeriesDivisionError(ZeroDivisionError):
    """Reciprocal of a series whose constant term vanishes."""


class CurveDivisionError(ValueError):
    """exact_divide_by_curve applied to a series not vanishing on the curve."""


@lru_cache(maxsize=None)
def _mask(cap):
    a = np.arange(cap + 1)
    return (a[:, None] + a[None, :]) <= cap


@lru_cache(maxsize=None)
def _graded_index(cap):
    """(rows, cols) listing c[a, k-a] for a = 0..k, degree k = 0..cap in turn."""
    k = np.repeat(np.arange(cap + 1), np.arange(1, cap + 2))
    a = np.concatenate([np.arange(d + 1) for d in range(cap + 1)])
    return a, k - a


def _convolve_sum(xs, y, k, out):
    """Add the sum of x_j * y_{k-j} (np.convolve) to ``out``, over the pairs
    (j, x_j) of ``xs`` (ascending in j) with j <= k; a ``None`` part of ``y``
    is zero and skipped."""
    for j, xj in xs:
        if j > k:
            break
        yj = y[k - j]
        if yj is not None:
            out += np.convolve(xj, yj)
    return out


class _Series:
    """Ring jobs shared by UniSeries and BiSeries; ``exp``, ``reciprocal``
    and ``power`` are recurrences over the homogeneous parts.

    Subclasses provide ``_check(other)``, ``_new(coeffs)`` (same cap and
    center), ``parts()`` and ``_with_parts(parts)``.
    """

    def __add__(self, other):
        if np.isscalar(other):
            c = self.coeffs.copy()
            c.flat[0] += other
            return self._new(c)
        self._check(other)
        return self._new(self.coeffs + other.coeffs)

    __radd__ = __add__

    def __neg__(self):
        return self._new(-self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __abs__(self):
        """Coefficient-wise magnitudes (the majorant series)."""
        return self._new(np.abs(self.coeffs))

    def max_abs(self):
        return float(np.max(np.abs(self.coeffs)))

    def exp(self):
        """Euler-operator recurrence k g_k = sum_{j>=1} j n_j * g_{k-j},
        g_0 = exp(n_0) (Knuth, TAOCP vol. 2, 4.7)."""
        n = self.parts()
        jn = [(j, j * p) for j, p in enumerate(n) if j and p.any()]
        g = [np.exp(n[0])]
        for k in range(1, self.cap + 1):
            g.append(_convolve_sum(jn, g, k, np.zeros_like(n[k])) / k)
        return self._with_parts(g)

    def reciprocal(self, name="series"):
        """c_0 g_k = -sum_{j>=1} c_j * g_{k-j}, g_0 = 1/c_0."""
        c = self.parts()
        c0 = c[0][0]
        if abs(c0) == 0.0:
            raise SeriesDivisionError(f"reciprocal of {name}: constant term is 0")
        cs = [(j, p) for j, p in enumerate(c) if j and p.any()]
        g = [1.0 / c[0]]
        for k in range(1, self.cap + 1):
            g.append(-_convolve_sum(cs, g, k, np.zeros_like(c[k])) / c0)
        return self._with_parts(g)

    def power(self, alpha):
        """J.C.P. Miller's recurrence for g = c^alpha (principal branch):
        k c_0 g_k = sum_{j>=1} ((alpha+1) j - k) c_j * g_{k-j}, g_0 = c_0^alpha
        (Knuth, TAOCP vol. 2, 4.7)."""
        c = self.parts()
        c0 = c[0][0]
        if abs(c0) == 0.0:
            raise SeriesDivisionError("power of a series whose constant term is 0")
        cs = [(j, p) for j, p in enumerate(c) if j and p.any()]
        jcs = [(j, (alpha + 1) * j * p) for j, p in cs]
        g = [c[0] ** alpha]
        for k in range(1, self.cap + 1):
            acc = _convolve_sum(jcs, g, k, np.zeros_like(c[k]))
            g.append((acc - k * _convolve_sum(cs, g, k, np.zeros_like(c[k]))) / (k * c0))
        return self._with_parts(g)


# ----------------------------------------------------------------------------
# univariate series
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class UniSeries(_Series):
    """Coefficients c[k] of z**k, 0 <= k <= cap; length is always cap+1."""

    coeffs: np.ndarray
    cap: int

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.cap + 1,):
            raise SeriesStructureError(
                f"UniSeries needs cap+1={self.cap + 1} coefficients, got {c.shape}"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zeros(cap):
        return UniSeries(np.zeros(cap + 1, dtype=complex), cap)

    @staticmethod
    def constant(value, cap):
        c = np.zeros(cap + 1, dtype=complex)
        c[0] = value
        return UniSeries(c, cap)

    # -- ring operations -------------------------------------------------
    def _check(self, other):
        if self.cap != other.cap:
            raise SeriesStructureError(f"cap mismatch: {self.cap} vs {other.cap}")

    def _new(self, coeffs):
        return UniSeries(coeffs, self.cap)

    def __mul__(self, other):
        if np.isscalar(other):
            return self._new(self.coeffs * other)
        self._check(other)
        return self._new(np.convolve(self.coeffs, other.coeffs)[: self.cap + 1])

    __rmul__ = __mul__

    def differentiate(self):
        c = np.zeros(self.cap + 1, dtype=complex)
        c[:-1] = self.coeffs[1:] * np.arange(1, self.cap + 1)
        return UniSeries(c, self.cap)

    def antiderivative(self):
        """Term-wise integral vanishing at 0; the top coefficient is dropped."""
        c = np.zeros(self.cap + 1, dtype=complex)
        c[1:] = self.coeffs[:-1] / np.arange(1, self.cap + 1)
        out = UniSeries(c, self.cap)
        object.__setattr__(out, "truncation_dropped", bool(self.coeffs[-1] != 0))
        return out

    def parts(self):
        """Homogeneous parts: entry k is the one-element array c[k:k+1]."""
        return [self.coeffs[k:k + 1] for k in range(self.cap + 1)]

    def _with_parts(self, parts):
        return self._new(np.concatenate(parts))

    def __call__(self, z):
        return _npoly.polyval(z, self.coeffs)

    def as_biseries(self, center=(0.0, 0.0)):
        """Embed as a w-independent BiSeries (same cap)."""
        c = np.zeros((self.cap + 1, self.cap + 1), dtype=complex)
        c[:, 0] = self.coeffs
        return BiSeries(c, self.cap, center)


# ----------------------------------------------------------------------------
# bivariate series
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class BiSeries(_Series):
    """Dense triangular coefficients c[a, b] of z**a w**b with a+b <= cap."""

    coeffs: np.ndarray
    cap: int
    center: tuple = (0.0 + 0.0j, 0.0 + 0.0j)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.cap + 1, self.cap + 1):
            raise SeriesStructureError(
                f"BiSeries cap {self.cap} needs shape {(self.cap + 1,) * 2}, got {c.shape}"
            )
        c = np.where(_mask(self.cap), c, 0.0)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "center", (complex(self.center[0]), complex(self.center[1])))

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zeros(cap, center=(0.0, 0.0)):
        return BiSeries(np.zeros((cap + 1, cap + 1), dtype=complex), cap, center)

    @staticmethod
    def constant(value, cap, center=(0.0, 0.0)):
        c = np.zeros((cap + 1, cap + 1), dtype=complex)
        c[0, 0] = value
        return BiSeries(c, cap, center)

    @staticmethod
    def from_terms(terms, cap, center=(0.0, 0.0)):
        """terms: iterable of (a, b, coefficient)."""
        c = np.zeros((cap + 1, cap + 1), dtype=complex)
        for a, b, v in terms:
            if a + b > cap:
                raise SeriesStructureError(f"term z^{a} w^{b} exceeds cap {cap}")
            c[a, b] = v
        return BiSeries(c, cap, center)

    # -- structure ------------------------------------------------------
    def _check(self, other):
        if self.cap != other.cap:
            raise SeriesStructureError(f"cap mismatch: {self.cap} vs {other.cap}")
        if self.center != other.center:
            raise SeriesStructureError(
                f"center mismatch: {self.center} vs {other.center}"
            )

    def parts(self):
        """Homogeneous parts: entry k is the 1-D array of c[a, k-a], a = 0..k."""
        flat = self.coeffs[_graded_index(self.cap)]
        return [flat[k * (k + 1) // 2:(k + 1) * (k + 2) // 2] for k in range(self.cap + 1)]

    def _new(self, coeffs):
        return BiSeries(coeffs, self.cap, self.center)

    def _with_parts(self, parts):
        c = np.zeros((self.cap + 1, self.cap + 1), dtype=complex)
        c[_graded_index(self.cap)] = np.concatenate(parts)
        return self._new(c)

    # -- ring operations -------------------------------------------------
    def __mul__(self, other):
        if np.isscalar(other):
            return self._new(self.coeffs * other)
        self._check(other)
        x, y = self.parts(), other.parts()
        xs = [(j, p) for j, p in enumerate(x) if p.any()]
        ys = [p if p.any() else None for p in y]
        return self._with_parts([_convolve_sum(xs, ys, k, np.zeros_like(p))
                                 for k, p in enumerate(x)])

    __rmul__ = __mul__

    def differentiate(self, var):
        """Formal partial; the (now untrustworthy) degree-cap row is reported zero."""
        D = self.cap
        c = np.zeros((D + 1, D + 1), dtype=complex)
        if var == "z":
            c[:-1, :] = self.coeffs[1:, :] * np.arange(1, D + 1)[:, None]
        elif var == "w":
            c[:, :-1] = self.coeffs[:, 1:] * np.arange(1, D + 1)[None, :]
        else:
            raise ValueError(f"var must be 'z' or 'w', got {var!r}")
        return BiSeries(c, D, self.center)

    def antiderivative(self, var):
        """Term-wise integral vanishing at the center; top-degree input terms drop."""
        D = self.cap
        c = np.zeros((D + 1, D + 1), dtype=complex)
        if var == "z":
            c[1:, :] = self.coeffs[:-1, :] / np.arange(1, D + 1)[:, None]
        elif var == "w":
            c[:, 1:] = self.coeffs[:, :-1] / np.arange(1, D + 1)[None, :]
        else:
            raise ValueError(f"var must be 'z' or 'w', got {var!r}")
        out = BiSeries(c, D, self.center)
        object.__setattr__(out, "truncation_dropped", bool(self.parts()[-1].any()))
        return out

    # -- evaluation -------------------------------------------------------
    def evaluate(self, z, w):
        """Horner-scheme value at (z, w); accepts arrays (local coordinates)."""
        return _npoly.polyval2d(np.asarray(z, dtype=complex), np.asarray(w, dtype=complex), self.coeffs)

    def realify(self, x1, x2):
        """Value on the real slice w = conj(z), z = x1 + i x2 (local coords)."""
        z = np.asarray(x1, dtype=float) + 1j * np.asarray(x2, dtype=float)
        return self.evaluate(z, np.conj(z))

    # -- serialization ----------------------------------------------------
    def to_records(self):
        """Structured-text form: bit-exact hex floats, sorted exponents."""
        recs = []
        for a in range(self.cap + 1):
            for b in range(self.cap + 1 - a):
                v = self.coeffs[a, b]
                if v != 0:
                    recs.append([int(a), int(b), float(v.real).hex(), float(v.imag).hex()])
        return {
            "cap": int(self.cap),
            "center": [
                [float(self.center[0].real).hex(), float(self.center[0].imag).hex()],
                [float(self.center[1].real).hex(), float(self.center[1].imag).hex()],
            ],
            "coeffs": recs,
        }


# ----------------------------------------------------------------------------
# curve restriction and per-degree magnitudes
# ----------------------------------------------------------------------------

def compose_w(a, w_of_z):
    """Restrict to the curve: z ↦ a(z, w(z)).

    ``w_of_z`` must vanish at the center (w(0) = 0) so the composition keeps
    the expansion point.  Horner in w with truncated univariate products.
    """
    if a.cap != w_of_z.cap:
        raise SeriesStructureError(f"cap mismatch: {a.cap} vs {w_of_z.cap}")
    if w_of_z.coeffs[0] != 0:
        raise ValueError("compose_w: w(0) != 0 breaks the expansion center")
    D = a.cap
    res = np.zeros(D + 1, dtype=complex)
    wc = w_of_z.coeffs
    for b in range(D, -1, -1):
        res = np.convolve(res, wc)[: D + 1]
        res += a.coeffs[:, b]
    return UniSeries(res, D)


def degree_scale(series_list, floor=1e-30):
    """Cumulative per-degree magnitude of a family of series.

    Entry k is the largest coefficient magnitude of total degree <= k over
    all inputs; identity checks compare residual coefficients of degree k
    against rtol times this scale, which tracks the factor-of-|w-coeff|^k
    growth of roundoff along curves with small convergence radius.
    """
    caps = {s.cap for s in series_list}
    if len(caps) != 1:
        raise SeriesStructureError("degree_scale: mixed caps")
    out = np.full(caps.pop() + 1, floor)
    for s in series_list:
        out = np.maximum(out, degree_maxima(s))
    return np.maximum.accumulate(out)


def degree_maxima(series):
    """Largest coefficient magnitude of each homogeneous part of a series."""
    return np.array([np.abs(p).max() for p in series.parts()])


def abs_compose_w(a, w_of_z):
    """Per-degree magnitude bound for compose_w: |a| composed with |w|."""
    return compose_w(abs(a), abs(w_of_z))


def exact_divide_by_curve(num, w_of_z, rtol=DIV_RTOL):
    """Factor (w - w(z)) out of a series vanishing on the curve w = w(z).

    Synthetic division in w.  The remainder (the restriction of ``num`` to
    the curve) must vanish: its degree-k coefficient is compared against
    rtol times the degree-k magnitude of the quantities entering the
    recursion (numerator and |w|*|q| products), so genuine low-degree
    non-vanishing is caught while high-degree roundoff along a small-radius
    curve is tolerated.
    """
    if num.cap != w_of_z.cap:
        raise SeriesStructureError(f"cap mismatch: {num.cap} vs {w_of_z.cap}")
    D = num.cap
    wc = w_of_z.coeffs
    awc = np.abs(wc)
    q = np.zeros((D + 1, D + 1), dtype=complex)
    mag = np.zeros(D + 1)  # per-degree magnitude flowing through the recursion
    qb = np.zeros(D + 1, dtype=complex)
    ab = np.zeros(D + 1)
    for b in range(D - 1, -1, -1):
        qb = num.coeffs[:, b + 1] + np.convolve(wc, qb)[: D + 1]
        ab = np.abs(num.coeffs[:, b + 1]) + np.convolve(awc, ab)[: D + 1]
        q[:, b] = qb
        mag = np.maximum(mag, ab)
    rem = np.abs(num.coeffs[:, 0] + np.convolve(wc, q[:, 0])[: D + 1])
    scale = np.maximum.accumulate(
        np.maximum(mag, np.maximum(np.abs(num.coeffs[:, 0]), num.max_abs() * 1e-6))
    )
    if not np.all(rem <= rtol * np.maximum(scale, 1e-300)):
        k = int(np.argmax(rem / np.maximum(scale, 1e-300)))
        raise CurveDivisionError(
            f"series does not vanish on the curve: remainder {rem[k]:.3e} at "
            f"z-degree {k} exceeds {rtol:.1e} x scale {scale[k]:.3e}"
        )
    return BiSeries(q, D, num.center)


def implicit_w(Btilde, rtol=1e-11):
    """The unique curve w(z), w(0)=0, with B̃(z, w(z)) constant up to cap.

    Degree-by-degree Newton correction: the coefficient of z^n in the
    restriction depends on w_n only through ∂_w B̃(0,0) * w_n, so one sweep
    over n = 1..cap zeroes the restriction exactly (up to roundoff).
    """
    dwB0 = Btilde.coeffs[0, 1]
    if abs(dwB0) == 0.0:
        raise SeriesDivisionError(
            "not in the admissible set: the w-derivative of the field series "
            "vanishes at the base point"
        )
    D = Btilde.cap
    wz = UniSeries.zeros(D)
    for n in range(1, D + 1):
        r = compose_w(Btilde, wz).coeffs.copy()
        r[0] -= Btilde.coeffs[0, 0]
        c = wz.coeffs.copy()
        c[n] -= r[n] / dwB0
        wz = UniSeries(c, D)
    resid = np.abs(compose_w(Btilde, wz).coeffs - Btilde.coeffs[0, 0] * np.eye(1, D + 1)[0])
    scale = np.maximum.accumulate(np.maximum(abs_compose_w(Btilde, wz).coeffs.real,
                                             Btilde.max_abs() * 1e-6))
    if not np.all(resid <= rtol * np.maximum(scale, 1e-300)):
        k = int(np.argmax(resid / np.maximum(scale, 1e-300)))
        raise CurveDivisionError(
            f"implicit curve solve did not converge: residual {resid[k]:.3e} "
            f"at degree {k} (scale {scale[k]:.3e})"
        )
    return wz


# ----------------------------------------------------------------------------
# curve integrals and divided differences (segment integrals as antiderivatives)
# ----------------------------------------------------------------------------

def curve_integral_w(g, w_of_z):
    """∫ over the segment [w(z), w] of g(z, u) du, as a BiSeries.

    Holomorphic integrand, so the segment integral is the w-antiderivative
    evaluated between the limits; no quadrature enters the symbolic core.
    """
    G = g.antiderivative("w")
    return G - compose_w(G, w_of_z).as_biseries(G.center)


def t_average(g, w_of_z):
    """∫_0^1 g(z, w(z) + t(w - w(z))) dt as a BiSeries.

    Computed exactly via the divided-difference identity
    ∫_0^1 g(...) dt = [G(z,w) - G(z,w(z))] / (w - w(z)),  G = ∫ g dw.
    """
    return exact_divide_by_curve(curve_integral_w(g, w_of_z), w_of_z)


def complexify_real_taylor(breal, cap, center=(0.0, 0.0)):
    """Turn real-Taylor data b[m, n] (coefficients of y1^m y2^n) into the
    series of the complexified function a((z+w)/2, (z-w)/(2i)).

    Closed form per term: y1^m y2^n = 2^-m (2i)^-n (z+w)^m (z-w)^n, whose
    degree-(m+n) part is the convolution of two binomial rows (in the part
    order, (z-w)^n has C(n, a) (-1)^(n-a) at z-degree a).
    """
    breal = np.asarray(breal, dtype=complex)
    binom = [np.ones(1)]
    for _ in range(cap):
        binom.append(np.convolve(binom[-1], [1.0, 1.0]))
    parts = [np.zeros(k + 1, dtype=complex) for k in range(cap + 1)]
    for m, n in zip(*np.nonzero(breal[: cap + 1, : cap + 1])):
        if m + n <= cap:
            scale = breal[m, n] / 2.0 ** (m + n) * (1, -1j, -1, 1j)[n % 4]
            signed = binom[n] * (-1.0) ** np.arange(n, -1, -1)
            parts[m + n] += scale * np.convolve(binom[m], signed)
    return BiSeries.zeros(cap, center)._with_parts(parts)


def real_coordinates(cap, center=(0.0, 0.0)):
    """The complexified coordinates y1~ = (z+w)/2 and y2~ = (z-w)/(2i)."""
    return (BiSeries.from_terms([(1, 0, 0.5), (0, 1, 0.5)], cap, center),
            BiSeries.from_terms([(1, 0, -0.5j), (0, 1, 0.5j)], cap, center))


def real_gradient_series(a):
    """Complexified partials (∂_{x1} a)~, (∂_{x2} a)~ of a realified series."""
    az, aw = a.differentiate("z"), a.differentiate("w")
    return az + aw, 1j * (az - aw)
