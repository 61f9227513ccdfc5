"""Truncated power series in two complex variables.

Everything downstream (phase construction, transport recursion, pseudomode
evaluation) runs on one small immutable container, ``BiSeries``: a polynomial
in (z, w) truncated at total degree D, whose coefficients are cast once, in
``__post_init__``, to np.promote_types(dtype, complex): complex binary64, or
a wider complex type such as np.clongdouble, kept.  Each array the arithmetic
allocates takes its dtype from its operands, so a solve on a field series in
np.clongdouble runs wholly in that type.  A series in z alone (the curve w(z),
the correction f, the factors A_j) is a ``BiSeries`` whose coefficients
vanish off column 0, and ``z_only`` says so.  Truncation at total degree D is
the quotient by the ideal of monomials of degree > D, so ring identities
(associativity, distributivity, exp/reciprocal defining relations) hold
coefficient-wise up to floating-point roundoff.  Differentiation is the one
operation that loses information: the cap stays D but coefficients of degree
D become untrustworthy (the dropped degree-(D+1) tail would have fed them).
Callers that chain derivatives must track their own trusted degree; the
solver in :mod:`cmag_wkb.wkb` does exactly that.

Storage is dense: a (D+1) x (D+1) complex array with the a+b > D corner kept
identically zero.  At the default cap D = 24 that is at most 325 active
monomials, far cheaper than a sparse map.

Degree-wise arithmetic runs on the homogeneous parts, held in one form: the
zero-padded rows R[k, a] = c[a, k-a], part k in row k by z-degree
(``_rows``, and ``_from_rows`` back).  The part of degree k of a product is
the sum over j of the convolution of part j with part k-j.  The product
picks its kernel from ``z_only``.  Two z-only operands convolve their
columns (``np.convolve``).  A z-only factor times a bivariate series is one
lower-triangular Toeplitz matmul, T(A) @ c.  Otherwise the graded product
forms it as one Toeplitz matmul per live (nonzero) part x_j of the left
operand: with the rows Y of the right operand and T[j, u, n] = x_j[n-u] (a
strided view of the left operand's rows behind D zeros, ``_toeplitz``), row
l of Y @ T[j] is x_j * y_l, added into part j + l in ascending j.

The sequential recurrences, ``exp`` and ``power`` (Euler-operator
recurrences) and ``reciprocal``, are one recurrence, ``_recurrence``:
g_k = (sum_{j>=1} p_j * g_{k-j} + k sum_{j>=1} q_j * g_{k-j}) / divisor(k),
each stating its g_0, p, q and divisor.  Its kernel follows ``z_only`` as
the product's does.  A z-only series has one coefficient per part, so the
recurrence runs on column 0, one dot product per degree; otherwise it is the
graded product of p and g formed as g comes out, one matmul with T[m] over
g's rows once part m is final.  The sums are direct, never FFTs:
each coefficient of degree k is a sum of exactly the products that enter it,
so its roundoff is set by the magnitudes of degree k, which the per-degree
identity scales rely on.

The readers of whole degrees work on the coefficients in graded order (part
0, part 1, ..., as ``_graded_index`` lists them), one ufunc ``reduceat`` over
all parts: ``degree_maxima`` takes the maximum of each part, and ``compose_w``
the antidiagonal sums that restrict a series to the curve w = w(z), from
c @ W with W[b] = w^b, the curve's power table (built once per curve and
cached on it, with that of the majorant |w|).

The curve's two other kernels take one matrix product per degree.
``exact_divide_by_curve`` is synthetic division in w, column by column from
the top: q_b = num[:, b+1] + T(w) q_{b+1}, with the curve's Toeplitz matrix
T(w) (and T(|w|) for the majorant beside it, cached on ``_majorant``).
``implicit_w`` fills the power table column by column as the coefficients
of w come out: since w(0) = 0, W[b, n] for b >= 2 needs only w_1..w_{n-1},
so the restriction's coefficient of z^n is linear in the one unknown w_n.

Evaluation is one kernel, ``_values``; callers pass on values, not series.
``evaluate(z, w)`` sums C = c[a, b] itself and ``realify(y1, y2)`` the
coefficients R[m, n] of y1^m y2^n on the real slice w = conj(z)
(``real_coeffs``, per degree a block of binomial rows, built once per
series), at coordinates that broadcast against each other.  On an open
product grid, the first coordinate of shape (m, 1) and the second (1, n) (the
Gauss squares and the uniform grid of the residual routes, the growth fit's
torus), it is the sum factorization V(s) @ C @ V(t)^T, V the increasing
Vandermonde matrix of an axis (Orszag, J. Comput. Phys. 37, 1980);
elsewhere (the gauge check's rings, the cutoff search's polar samples,
``assemble``) the row sums of (V(s) @ C) * V(t), point by point.  In the
real monomials degree k can lose up to 2^(k/2) more to roundoff than Horner
at the same point y, on a grid or off it: their magnitudes there add up to
(|y1| + |y2|)^k, not |y|^k.  At 10^5 scattered points of the workhorse's
cutoff disc (N = 2) the phase and the amplitude sums at h = 0.1 to 1e-3
differ from Horner by at most 1.3e-15 of their largest magnitude, a_2 alone
by 2.4e-15.

``check_identity`` is the one place where a series identity meets its
tolerance, here and in :mod:`cmag_wkb.wkb` and :mod:`cmag_wkb.pseudomode`,
and it holds the one rule for the tolerance's scale.  A check passes the
terms that enter its identity, each a series (read per degree by
``degree_maxima``) or an array of per-degree magnitudes, and a floor where
cancellations need one; the scale at degree k is the largest term magnitude
of degree <= k, and at least the floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: relative tolerance for the exact-division remainder check
DIV_RTOL = 1e-10

#: relative tolerance for the implicit-curve residual check
CURVE_RTOL = 1e-11

#: a check's floor relative to the largest magnitude entering its identity:
#: the roundoff that cancellations leave in low-degree coefficients is set by
#: those magnitudes, not by the identity's own (possibly tiny) terms
FLOOR_FACTOR = 1e-6


class SeriesStructureError(ValueError):
    """Operands disagree on cap, or coefficients do not fit the cap."""


class SeriesDivisionError(ZeroDivisionError):
    """Reciprocal of a series whose constant term vanishes."""


class CurveDivisionError(ValueError):
    """exact_divide_by_curve applied to a series not vanishing on the curve."""


@lru_cache(maxsize=None)
def _degrees(cap):
    """The degree a + b of each coefficient c[a, b]."""
    a = np.arange(cap + 1)
    return np.add.outer(a, a)


@lru_cache(maxsize=None)
def _mask(cap):
    return _degrees(cap) <= cap


@lru_cache(maxsize=None)
def _graded_index(cap):
    """Flat positions, for degree k = 0..cap in turn and a = 0..k within it,
    of c[a, k-a] in the coefficients and of R[k, a] in the rows (``_rows``)."""
    k = np.repeat(np.arange(cap + 1), np.arange(1, cap + 2))
    a = np.concatenate([np.arange(d + 1) for d in range(cap + 1)])
    return a * cap + k, k * (cap + 1) + a


@lru_cache(maxsize=None)
def _part_starts(cap):
    """Where part k = 0..cap starts in the graded order of ``_graded_index``."""
    k = np.arange(cap + 1)
    return k * (k + 1) // 2


def _rows(coeffs):
    """The homogeneous parts as zero-padded rows: R[k, a] = c[a, k - a]."""
    at, rows = _graded_index(coeffs.shape[0] - 1)
    R = np.zeros(coeffs.shape, coeffs.dtype)
    R.ravel()[rows] = coeffs.ravel()[at]
    return R


def _from_rows(R):
    """The coefficients c[a, b] = R[a + b, a] of parts given as rows."""
    at, rows = _graded_index(R.shape[0] - 1)
    c = np.zeros(R.shape, R.dtype)
    c.ravel()[at] = R.ravel()[rows]
    return c


@lru_cache(maxsize=None)
def _real_blocks(cap):
    """Per degree k = 0..cap, the pair (U_k, i^(k-m) for m = 0..k) that maps
    part k of a series (c[a, k-a] of z^a w^(k-a), by a) to part k of its
    real coefficients on w = conj(z) (R[m, k-m] of y1^m y2^(k-m), by m):
    R_k = i^(k-m) U_k c_k.

    Column a of the integer matrix U_k holds (u+v)^a (u-v)^(k-a) by
    u-degree; with u = y1 and v = i y2 that is z^a w^(k-a), whence the phase.
    Each degree's columns are the last degree's times one more linear factor,
    a shift and add of binomial rows, exact for cap <= 52.
    """
    def times(c, beta):  # (z + beta w) times the columns c[a] of z^a w^(k-a)
        out = np.zeros((c.shape[0] + 1, c.shape[1]))
        out[1:] += c
        out[:-1] += beta * c
        return out

    unit = np.array([1.0, 1j, -1.0, -1j])
    U = np.ones((1, 1))
    blocks = []
    for k in range(cap + 1):
        blocks.append((U, unit[np.arange(k, -1, -1) % 4]))
        U = np.hstack([times(U, -1.0), times(U[:, -1:], 1.0)])
    return blocks


def _values(coeffs, s, t):
    """sum_ab coeffs[a, b] s^a t^b at the coordinate arrays s and t, which
    broadcast against each other: the sum factorization on an open product
    grid (s of shape (m, 1), t of shape (1, n)), else point by point."""
    V = partial(np.vander, N=coeffs.shape[0], increasing=True)
    if s.ndim == t.ndim == 2 and s.shape[1] == t.shape[0] == 1:
        return V(s[:, 0]) @ coeffs @ V(t[0]).T
    s, t = np.broadcast_arrays(s, t)
    return ((V(s.ravel()) @ coeffs) * V(t.ravel())).sum(axis=1).reshape(s.shape)


def _toeplitz(rows):
    """``rows`` (a column, or parts as rows) copied behind D zeros, a writable
    view, and the strided Toeplitz stack over it, T[..., u, n] = rows[..., n-u]
    (0 where n < u): row l of Y @ T[k] is part l of Y times part k."""
    D = rows.shape[-1] - 1
    X = np.zeros(rows.shape[:-1] + (2 * D + 1,), rows.dtype)
    X[..., D:] = rows
    return X[..., D:], sliding_window_view(X, D + 1, axis=-1)[..., ::-1, :]


def _z_series(column):
    """The z-only series sum_a column[a] z^a, at cap len(column) - 1."""
    c = np.zeros((column.size, column.size), column.dtype)
    c[:, 0] = column
    return BiSeries(c, column.size - 1)


@dataclass(frozen=True)
class BiSeries:
    """Dense triangular coefficients c[a, b] of z**a w**b with a+b <= cap,
    in local coordinates about the field's base point: complex binary64 or
    wider (the one rule, in ``__post_init__``), and a result keeps its
    operands' type.  A series in z alone (the curve w(z), the correction f,
    the factors A_j) is one whose coefficients vanish off column 0
    (``z_only``).  ``exp``, ``reciprocal`` and ``power`` are one recurrence
    over the homogeneous parts (``_recurrence``), over column 0 for a z-only
    series.
    """

    coeffs: np.ndarray
    cap: int

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        if c.shape != (self.cap + 1, self.cap + 1):
            raise SeriesStructureError(
                f"BiSeries cap {self.cap} needs shape {(self.cap + 1,) * 2}, got {c.shape}"
            )
        c = np.where(_mask(self.cap), c, 0.0).astype(np.promote_types(c.dtype, complex), copy=False)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zeros(cap):
        return BiSeries(np.zeros((cap + 1, cap + 1)), cap)

    @staticmethod
    def constant(value, cap):
        return BiSeries.from_terms([(0, 0, value)], cap)

    @staticmethod
    def from_terms(terms, cap):
        """terms: a sequence of (a, b, coefficient), in their common type."""
        c = np.zeros((cap + 1, cap + 1), np.result_type(0.0, *(v for *_, v in terms)))
        for a, b, v in terms:
            if a + b > cap:
                raise SeriesStructureError(f"term z^{a} w^{b} exceeds cap {cap}")
            c[a, b] = v
        return BiSeries(c, cap)

    # -- structure ------------------------------------------------------
    @cached_property
    def z_only(self):
        """True when no coefficient depends on w (zero and constants included)."""
        return not self.coeffs[:, 1:].any()

    def _check(self, other):
        if self.cap != other.cap:
            raise SeriesStructureError(f"cap mismatch: {self.cap} vs {other.cap}")

    def _new(self, coeffs):
        return type(self)(coeffs, self.cap)

    # -- ring operations -------------------------------------------------
    def __add__(self, other):
        if np.isscalar(other):
            c = self.coeffs.astype(np.result_type(self.coeffs, other))
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

    def to_records(self):
        """Structured-text form, one row per nonzero coefficient, exponents
        in row-major order: binary64 parts as bit-exact hex floats, the parts
        of a wider type as numpy's shortest decimal that reads back to the
        same value in that type."""
        idx = np.nonzero(self.coeffs)
        rows = zip(*(i.tolist() for i in idx), self.coeffs[idx].tolist())
        part = float.hex if self.coeffs.dtype == complex else np.format_float_scientific
        return {"cap": int(self.cap),
                "coeffs": [[*exps, part(v.real), part(v.imag)] for *exps, v in rows]}

    def exp(self):
        """Euler-operator recurrence k g_k = sum_{j>=1} j n_j * g_{k-j},
        g_0 = exp(n_0) (Knuth, TAOCP vol. 2, 4.7)."""
        return self._recurrence(np.exp(self.coeffs[0, 0]), _degrees(self.cap) * self.coeffs,
                                lambda k: k)

    def reciprocal(self, name="series"):
        """c_0 g_k = -sum_{j>=1} c_j * g_{k-j}, g_0 = 1/c_0."""
        c0 = self.coeffs[0, 0]
        if abs(c0) == 0.0:
            raise SeriesDivisionError(f"reciprocal of {name}: constant term is 0")
        return self._recurrence(1.0 / c0, -self.coeffs, lambda k: c0)

    def power(self, alpha):
        """J.C.P. Miller's recurrence for g = c^alpha (principal branch):
        k c_0 g_k = (alpha+1) sum_{j>=1} j c_j * g_{k-j} - k sum_{j>=1} c_j * g_{k-j},
        g_0 = c_0^alpha (Knuth, TAOCP vol. 2, 4.7).  The two sums stay
        apart: one sum weighted by ((alpha+1) j - k) rounds differently."""
        c0 = self.coeffs[0, 0]
        if abs(c0) == 0.0:
            raise SeriesDivisionError("power of a series whose constant term is 0")
        # the ndarray power (np.sqrt at alpha = 0.5, the reciprocal at -1),
        # not the scalar one, which differs in the last bit
        g0 = (self.coeffs[:1, 0] ** alpha)[0]
        return self._recurrence(g0, (alpha + 1) * _degrees(self.cap) * self.coeffs,
                                lambda k: k * c0, q=-self.coeffs)

    def _recurrence(self, g0, p, divisor, q=None):
        """The series g with g_0 = g0 and, for k = 1..cap,
        g_k = (sum_{j>=1} p_j * g_{k-j} + k sum_{j>=1} q_j * g_{k-j}) / divisor(k),
        where p_j and q_j are the parts of degree j of the coefficient arrays
        p and q (shaped like this series; no q, no second sum).  The kernel
        follows ``z_only``: on column 0, one dot product per degree; otherwise,
        once part m of g is final, one matmul per array adds p_j * g_m into
        parts m + j for j up to the array's highest live (nonzero) part, which
        is 0 for power's p at alpha = -1."""
        D = self.cap
        if self.z_only:
            pc, qc = p[:, 0], None if q is None else q[:, 0]
            g = np.zeros(D + 1, pc.dtype)
            g[0] = g0
            for k in range(1, D + 1):
                h = g[k - 1::-1]
                s = pc[1:k + 1] @ h
                if q is not None:
                    s = s + k * (qc[1:k + 1] @ h)
                g[k] = s / divisor(k)
            return _z_series(g)
        G, T = _toeplitz(np.zeros(p.shape, p.dtype))
        G[0, 0] = g0
        arrays = [_rows(c) for c in ((p,) if q is None else (p, q))]
        tops = [np.flatnonzero(R.any(axis=1)).max(initial=0) for R in arrays]
        acc = np.zeros((len(arrays),) + p.shape, p.dtype)
        for k in range(1, D + 1):
            m = k - 1  # part m of g is final: add its products into parts m+1..D
            for R, top, a in zip(arrays, tops, acc):
                n = min(top, D - m)
                a[k:k + n] += R[1:n + 1, :n + 1] @ T[m, :n + 1]
            s = acc[0, k, :k + 1]
            if q is not None:
                s = s + k * acc[1, k, :k + 1]
            G[k, :k + 1] = s / divisor(k)
        return self._new(_from_rows(G))

    def __mul__(self, other):
        """Product with a scalar or a series; the kernel follows ``z_only``.
        Two z-only operands convolve their columns.  A z-only factor A times
        y is T @ y with T[a, i] = A[a - i], lower triangular Toeplitz (a
        strided view of the zero-padded A).  Otherwise the graded product."""
        if np.isscalar(other):
            return self._new(self.coeffs * other)
        self._check(other)
        D = self.cap
        if self.z_only and other.z_only:
            return _z_series(np.convolve(self.coeffs[:, 0], other.coeffs[:, 0])[: D + 1])
        if self.z_only or other.z_only:
            A, y = (self, other) if self.z_only else (other, self)
            return self._new(_toeplitz(A.coeffs[:, 0])[1].T @ y.coeffs)
        Y = _rows(other.coeffs)  # row l: part l of y, zero-padded
        X, T = _toeplitz(_rows(self.coeffs))  # row l of Y @ T[j]: x_j * y_l
        R = np.zeros(Y.shape, np.result_type(X, Y))
        for j in np.flatnonzero(X.any(axis=1)):
            L = D + 1 - j
            R[j:] += Y[:L, :L] @ T[j, :L]
        return self._new(_from_rows(R))

    __rmul__ = __mul__

    def differentiate(self, var):
        """Formal partial; the (now untrustworthy) degree-cap row is reported zero."""
        D = self.cap
        c = np.zeros_like(self.coeffs)
        if var == "z":
            c[:-1, :] = self.coeffs[1:, :] * np.arange(1, D + 1)[:, None]
        elif var == "w":
            c[:, :-1] = self.coeffs[:, 1:] * np.arange(1, D + 1)[None, :]
        else:
            raise ValueError(f"var must be 'z' or 'w', got {var!r}")
        return self._new(c)

    def antiderivative(self, var):
        """Term-wise integral vanishing at 0; top-degree input terms drop."""
        D = self.cap
        c = np.zeros_like(self.coeffs)
        if var == "z":
            c[1:, :] = self.coeffs[:-1, :] / np.arange(1, D + 1)[:, None]
        elif var == "w":
            c[:, 1:] = self.coeffs[:, :-1] / np.arange(1, D + 1)[None, :]
        else:
            raise ValueError(f"var must be 'z' or 'w', got {var!r}")
        return self._new(c)

    # -- the curve w = w(z) ----------------------------------------------
    @cached_property
    def _powers(self):
        """Read-only table W[b] = w^b truncated at the cap, b = 0..cap, of
        the z-only series w (its column 0)."""
        D = self.cap
        W = np.zeros_like(self.coeffs)
        W[0, 0] = 1.0
        for b in range(1, D + 1):
            W[b] = np.convolve(W[b - 1], self.coeffs[:, 0])[: D + 1]
        W.setflags(write=False)
        return W

    @cached_property
    def _toeplitz(self):
        """Read-only Toeplitz matrix of the z-only series w (its column 0),
        contiguous: T @ x is w * x truncated, one matvec per column of the
        exact division."""
        T = np.ascontiguousarray(_toeplitz(self.coeffs[:, 0])[1].T)
        T.setflags(write=False)
        return T

    @cached_property
    def _majorant(self):
        """|self|, kept so that its power table and Toeplitz matrix are
        built once too."""
        return abs(self)

    # -- evaluation -------------------------------------------------------
    def evaluate(self, z, w):
        """Values at the local points (z, w), which broadcast against each
        other (``_values``)."""
        return _values(self.coeffs, np.asarray(z, dtype=complex), np.asarray(w, dtype=complex))

    def realify(self, y1, y2):
        """Values on the real slice w = conj(z), z = y1 + i y2, at the local
        points (y1, y2), which broadcast against each other: the sum of
        R[m, n] y1^m y2^n over the real coefficients (``_values``)."""
        return _values(self._real_coeffs, np.asarray(y1, dtype=float), np.asarray(y2, dtype=float))

    def real_coeffs(self):
        """Coefficients R[m, n] of y1^m y2^n of the series on w = conj(z),
        z = y1 + i y2 (dense triangular, complex, read-only, built once)."""
        return self._real_coeffs

    @cached_property
    def _real_coeffs(self):
        parts, R = _rows(self.coeffs), np.zeros_like(self.coeffs)
        for k, (U, phase) in enumerate(_real_blocks(self.cap)):
            R[k, :k + 1] = phase * (U @ parts[k, :k + 1])
        R = _from_rows(R)
        R.setflags(write=False)
        return R


# ----------------------------------------------------------------------------
# curve restriction and per-degree magnitudes
# ----------------------------------------------------------------------------

def compose_w(a, w_of_z):
    """Restrict to the curve: z ↦ a(z, w(z)), a z-only series.

    ``w_of_z`` must be z-only and vanish at the center (w(0) = 0) so the
    composition keeps the expansion point.  With W[b] = w^b (the curve's
    power table), row a of c @ W is sum_b c[a, b] w^b, and the coefficient of
    z^n is the sum of (c @ W)[a, n - a] over a: one ``reduceat`` of c @ W in
    graded order.
    """
    a._check(w_of_z)
    if not w_of_z.z_only:
        raise ValueError("compose_w: the curve w(z) depends on w")
    if w_of_z.coeffs[0, 0] != 0:
        raise ValueError("compose_w: w(0) != 0 breaks the expansion center")
    D = a.cap
    M = a.coeffs @ w_of_z._powers
    return _z_series(np.add.reduceat(M.ravel()[_graded_index(D)[0]], _part_starts(D)))


def check_identity(what, res, terms, rtol, error, upto=None, floor=0.0):
    """The one check of a series identity against its tolerance.

    ``res`` is the residual of the identity per degree (its coefficients or
    their per-degree maxima).  ``terms`` lists the quantities that enter the
    identity, each a series (read per degree by ``degree_maxima``) or an
    array of per-degree magnitudes.  The scale at degree k is the largest
    term magnitude of degree <= k, and at least ``floor``: roundoff in a
    coefficient of degree k comes from the magnitudes of degree <= k that fed
    it, which grow like |w-coeff|^k along a curve of small radius.  Raises
    ``error`` naming the worst degree k <= ``upto`` (every degree when None)
    unless |res[k]| / scale[k] <= rtol holds there; a NaN or infinite ratio
    fails.  Returns the worst ratio.
    """
    top = np.max([degree_maxima(t) if isinstance(t, BiSeries) else t for t in terms], axis=0)
    scale = np.maximum.accumulate(np.maximum(top, floor))
    n = len(res) if upto is None else min(upto + 1, len(res))
    mag = np.abs(np.asarray(res)[:n])
    with np.errstate(invalid="ignore"):  # inf / inf is a NaN, which fails
        ratio = mag / np.maximum(scale[:n], 1e-300)
    k = int(np.argmax(ratio))  # the first NaN, if there is one
    if not ratio[k] <= rtol:
        raise error(f"{what}: residual {mag[k]:.3e} at degree {k} exceeds "
                    f"{rtol:.0e} x scale {scale[k]:.3e}")
    return float(ratio[k])


def degree_maxima(series):
    """Largest coefficient magnitude of each homogeneous part of a series,
    one ``reduceat`` over the graded coefficients (max is exact, so this is
    the part-by-part maximum bit for bit)."""
    D = series.cap
    return np.maximum.reduceat(np.abs(series.coeffs.ravel()[_graded_index(D)[0]]),
                               _part_starts(D))


def abs_compose_w(a, w_of_z):
    """Per-degree magnitude bound for compose_w: |a| composed with |w|."""
    return compose_w(abs(a), w_of_z._majorant)


def exact_divide_by_curve(num, w_of_z):
    """Factor (w - w(z)) out of a series vanishing on the curve w = w(z).

    Synthetic division in w, column by column from the top: q_b =
    num[:, b+1] + T(w) q_{b+1}, with T(w) the curve's lower-triangular
    Toeplitz matrix (built once per curve and cached on it), and beside it
    the majorant a_b = |num[:, b+1]| + T(|w|) a_{b+1}.  The remainder (the
    restriction of ``num`` to the curve) must vanish: ``check_identity``
    compares its degree-k coefficient with DIV_RTOL times the degree-k
    magnitude of the quantities entering the recursion (numerator and
    |w|*|q| products), so genuine low-degree non-vanishing is caught while
    high-degree roundoff along a small-radius curve is tolerated.
    """
    num._check(w_of_z)
    D = num.cap
    T, aT = w_of_z._toeplitz, np.ascontiguousarray(w_of_z._majorant._toeplitz.real)
    q, qb, ab = np.zeros_like(num.coeffs), np.zeros(D + 1, num.coeffs.dtype), np.zeros(D + 1)
    terms = [np.abs(num.coeffs[:, 0])]  # per-degree magnitudes through the recursion
    for b in range(D - 1, -1, -1):
        qb = num.coeffs[:, b + 1] + T @ qb
        ab = np.abs(num.coeffs[:, b + 1]) + aT @ ab
        q[:, b] = qb
        terms.append(ab)
    rem = num.coeffs[:, 0] + T @ q[:, 0]
    check_identity("exact division: the series vanishes on the curve", rem, terms,
                   DIV_RTOL, CurveDivisionError, floor=FLOOR_FACTOR * num.max_abs())
    return BiSeries(q, D)


def implicit_w(Btilde):
    """The unique curve w(z), w(0)=0, with B̃(z, w(z)) constant up to cap.

    One pass over the degrees n = 1..cap that fills the curve's power table
    W[b] = w^b column by column as the coefficients come out.  Since w(0) = 0,
    W[b, n] for b >= 2 needs only w_1..w_{n-1}, so the coefficient of z^n of
    the restriction, r_n = sum_a c[a, :] . W[:, n - a], depends on w_n only
    through ∂_w B̃(0,0) * w_n, and w_n is the value that zeroes it.
    """
    c = Btilde.coeffs
    dwB0 = c[0, 1]
    if abs(dwB0) == 0.0:
        raise SeriesDivisionError(
            "not in the admissible set: the w-derivative of the field series "
            "vanishes at the base point"
        )
    D = Btilde.cap
    w = np.zeros(D + 1, c.dtype)
    W = np.zeros_like(c)
    W[0, 0] = 1.0
    for n in range(1, D + 1):
        W[2:, n] = W[1:-1, n - 1:0:-1] @ w[1:n]  # sum over m < n of w_m W[b-1, n-m]
        w[n] = W[1, n] = -np.sum(c[: n + 1] * W[:, n::-1].T) / dwB0
    wz = _z_series(w)
    resid = compose_w(Btilde, wz).coeffs[:, 0] - Btilde.coeffs[0, 0] * np.eye(1, D + 1)[0]
    check_identity("implicit curve: B~(z, w(z)) = B~(0, 0)", resid,
                   [abs_compose_w(Btilde, wz).coeffs[:, 0].real], CURVE_RTOL, CurveDivisionError,
                   floor=FLOOR_FACTOR * Btilde.max_abs())
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
    return G - compose_w(G, w_of_z)


def t_average(g, w_of_z):
    """∫_0^1 g(z, w(z) + t(w - w(z))) dt as a BiSeries.

    Computed exactly via the divided-difference identity
    ∫_0^1 g(...) dt = [G(z,w) - G(z,w(z))] / (w - w(z)),  G = ∫ g dw.
    """
    return exact_divide_by_curve(curve_integral_w(g, w_of_z), w_of_z)


def real_coordinates(cap):
    """The complexified coordinates y1~ = (z+w)/2 and y2~ = (z-w)/(2i)."""
    return (BiSeries.from_terms([(1, 0, 0.5), (0, 1, 0.5)], cap),
            BiSeries.from_terms([(1, 0, -0.5j), (0, 1, 0.5j)], cap))


def real_gradient_series(a):
    """Complexified partials (∂_{x1} a)~, (∂_{x2} a)~ of a realified series."""
    az, aw = a.differentiate("z"), a.differentiate("w")
    return az + aw, 1j * (az - aw)
