"""Finite-difference realization of (-ih grad - A)^2 with complex A.

This is the independent cross-check oracle for the series-exact residual
route: 4th-order central stencils on a square grid, the operator expanded as

    -h^2 Lap u + i h (div A) u + 2 i h A . grad u + (A . A) u,

with A and div A sampled from the field's closed form on the grid's axes:
the field gets the open product grid x1 = (c1 + axis)[:, None],
x2 = (c2 + axis)[None, :], and its values broadcast against the (n, n)
stencil arrays, so a factor of one coordinate costs n evaluations, not n^2.
No boundary condition is imposed; correctness relies on the input being
supported well inside the box (the pseudomodes are, by construction of the
cutoff).  The module is this oracle only: ``residual_finite_difference``,
which ``run --evaluator both`` reaches, is its one caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SUPPORT_RTOL = 1e-12
_BOUNDARY_LAYERS = 4


class SupportError(ValueError):
    """Input not supported away from the grid boundary."""


@dataclass(frozen=True)
class Grid2D:
    """Square [-L, L]^2 with n points per axis."""

    L: float
    n: int

    def __post_init__(self):
        if self.n < 16:
            raise ValueError("need n >= 16")
        if not self.L > 0:
            raise ValueError("need L > 0")

    @property
    def spacing(self):
        return 2.0 * self.L / (self.n - 1)

    def axis(self):
        return np.linspace(-self.L, self.L, self.n)


@dataclass(frozen=True)
class GridFunction:
    values: np.ndarray
    grid: Grid2D

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n, self.grid.n):
            raise ValueError(f"values shape {v.shape} does not match grid n={self.grid.n}")
        object.__setattr__(self, "values", v)


def _shifted(u, axis, k):
    """View of u at the points 2..n-3 along ``axis``, moved by k."""
    idx = [slice(None)] * u.ndim
    idx[axis] = slice(2 + k, u.shape[axis] - 2 + k or None)
    return u[tuple(idx)]


def _d1(u, axis, s):
    out = np.zeros_like(u)
    p2, p1, m1, m2 = (_shifted(u, axis, k) for k in (2, 1, -1, -2))
    o = _shifted(out, axis, 0)  # (-p2 + 8 p1 - 8 m1 + m2) / (12 s), in place
    np.multiply(p1, 8, out=o)
    o -= p2
    o -= 8 * m1
    o += m2
    o /= 12 * s
    return out


def _d2(u, axis, s):
    out = np.zeros_like(u)
    p2, p1, c, m1, m2 = (_shifted(u, axis, k) for k in (2, 1, 0, -1, -2))
    o = _shifted(out, axis, 0)  # (-p2 + 16 p1 - 30 c + 16 m1 - m2) / (12 s^2), in place
    np.multiply(p1, 16, out=o)
    o -= p2
    o -= 30 * c
    o += 16 * m1
    o -= m2
    o /= 12 * s**2
    return out


def _check_support(u):
    m = float(np.max(np.abs(u)))
    if m == 0.0:
        return
    k = _BOUNDARY_LAYERS
    edge = max(
        float(np.max(np.abs(u[:k, :]))), float(np.max(np.abs(u[-k:, :]))),
        float(np.max(np.abs(u[:, :k]))), float(np.max(np.abs(u[:, -k:]))),
    )
    if edge > SUPPORT_RTOL * m:
        raise SupportError(
            f"input not supported away from the boundary (edge/max = {edge / m:.2e}); "
            f"enlarge the box L"
        )


def apply_L(field, h, u, center=(0.0, 0.0)):
    """(-ih grad - A)^2 u on the grid; boundary layers are returned as zero."""
    g = u.grid
    v = u.values
    _check_support(v)
    s = g.spacing
    x = g.axis()
    x1, x2 = np.meshgrid(center[0] + x, center[1] + x, indexing="ij", sparse=True)
    A1, A2 = field.A(x1, x2)
    divA = field.div_A(x1, x2)
    ux = _d1(v, 0, s)
    uy = _d1(v, 1, s)
    lap = _d2(v, 0, s) + _d2(v, 1, s)
    out = (-h**2 * lap + 1j * h * divA * v + 2j * h * (A1 * ux + A2 * uy)
           + (A1 * A1 + A2 * A2) * v)
    k = _BOUNDARY_LAYERS
    out[:k, :] = 0.0
    out[-k:, :] = 0.0
    out[:, :k] = 0.0
    out[:, -k:] = 0.0
    return GridFunction(values=out, grid=g)
