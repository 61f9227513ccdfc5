"""Finite-difference operator: stencil order, symmetry, inequalities, IO."""

import numpy as np
import pytest

from cmag_wkb.fieldmodel import oscillating_field, polynomial_field, user_polynomial_field
from cmag_wkb.numop import (
    _BOUNDARY_LAYERS,
    Grid2D,
    GridFunction,
    SupportError,
    _d1,
    _d2,
    apply_L,
    verify_magnetic_inequalities,
)


def _bump(t):
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        return np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)


def _plateau(r, r_in, r_out):
    # exactly 1 for r <= r_in, 0 for r >= r_out
    from cmag_wkb.pseudomode import step_jet

    return step_jet((r - r_in) / (r_out - r_in))[0]


def zero_field(cap=4):
    return user_polynomial_field({}, {}, cap=cap)


def test_plane_wave_laplacian_symbol():
    # A == 0: (-ih grad)^2 e^{ikx} = h^2 |k|^2 e^{ikx} in the bump plateau
    grid = Grid2D(L=4.0, n=256)
    X1, X2 = grid.meshgrid()
    k = np.array([2.0, -1.0])
    h = 0.3
    u = np.exp(1j * (k[0] * X1 + k[1] * X2)) * _plateau(np.hypot(X1, X2), 1.0, 3.0)
    out = apply_L(zero_field(), h, GridFunction(u, grid))
    core = (np.hypot(X1, X2) < 0.5)
    expected = h**2 * (k @ k) * u[core]
    err = np.max(np.abs(out.values[core] - expected)) / np.max(np.abs(expected))
    assert err < 1e-5


def test_real_potential_symmetry():
    # real A: <Lu, u> is real up to discretization noise
    a1 = {(0, 1): -0.5}
    a2 = {(1, 0): 0.5}
    field = user_polynomial_field(a1, a2, cap=4)
    grid = Grid2D(L=3.0, n=192)
    X1, X2 = grid.meshgrid()
    u = (1.0 + 0.3j) * _bump((X1**2 + X2**2) / 2.0) * (1.0 + X1 - 0.5 * X2)
    out = apply_L(field, 0.2, GridFunction(u, grid))
    inner = np.sum(out.values * np.conj(u)) * grid.spacing**2
    assert abs(inner.imag) < 1e-8 * abs(inner)


def test_consistency_order_four():
    # u = exp(q) with polynomial q: closed-form image of the operator
    a1 = {(0, 1): -1j}
    a2 = {(2, 0): 0.5, (1, 0): 1j}
    field = user_polynomial_field(a1, a2, cap=4)
    h = 0.4

    def q(x1, x2):
        return -(x1**2 + x2**2) + 0.3j * x1 - 0.2 * x1 * x2

    def grad_q(x1, x2):
        return (-2 * x1 + 0.3j - 0.2 * x2, -2 * x2 - 0.2 * x1)

    def lap_q(x1, x2):
        return -4.0 * np.ones_like(x1)

    def exact_Lu(x1, x2):
        u = np.exp(q(x1, x2))
        q1, q2 = grad_q(x1, x2)
        lap_u = (lap_q(x1, x2) + q1**2 + q2**2) * u
        A1, A2 = field.A(x1, x2)
        divA = field.div_A(x1, x2)
        return (-h**2 * lap_u + 1j * h * divA * u
                + 2j * h * (A1 * q1 + A2 * q2) * u + (A1**2 + A2**2) * u)

    errs, hs = [], []
    for n in (96, 144, 216):
        grid = Grid2D(L=4.0, n=n)
        X1, X2 = grid.meshgrid()
        u = np.exp(q(X1, X2))
        cut = _plateau(np.hypot(X1, X2), 1.2, 3.0)  # keep support off the boundary
        out = apply_L(field, h, GridFunction(u * cut, grid))
        core = np.hypot(X1, X2) < 1.0  # cut == 1 here
        err = np.max(np.abs(out.values[core] - exact_Lu(X1, X2)[core]))
        errs.append(err)
        hs.append(grid.spacing)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 4.0) < 0.3


def test_gauge_covariance_real_gauge():
    # A -> A + grad g, u -> e^{ig/h} u commutes with the operator
    field = user_polynomial_field({(0, 1): -0.5j}, {(1, 0): 0.5j, (2, 0): 1.0}, cap=4)
    g = {(1, 0): 0.4, (1, 1): 0.25}
    from cmag_wkb.fieldmodel import poly_eval, poly_partial

    ga1, ga2 = poly_partial(g, 1), poly_partial(g, 2)
    base1, base2 = {(0, 1): -0.5j}, {(1, 0): 0.5j, (2, 0): 1.0}
    shift1 = {k: base1.get(k, 0) + ga1.get(k, 0) for k in set(base1) | set(ga1)}
    shift2 = {k: base2.get(k, 0) + ga2.get(k, 0) for k in set(base2) | set(ga2)}
    shifted = user_polynomial_field(shift1, shift2, cap=4)
    grid = Grid2D(L=3.0, n=256)
    X1, X2 = grid.meshgrid()
    h = 0.25
    u = _plateau(np.hypot(X1, X2), 1.0, 2.0) * (1.0 + 0.5 * X1)
    phase = np.exp(1j * poly_eval(g, X1, X2) / h)
    lhs = apply_L(shifted, h, GridFunction(phase * u, grid)).values
    rhs = phase * apply_L(field, h, GridFunction(u + 0j, grid)).values
    core = np.hypot(X1, X2) < 1.0
    scale = np.max(np.abs(rhs[core]))
    # agreement within discretization error (4th-order stencils at n=256)
    assert np.max(np.abs(lhs[core] - rhs[core])) < 1e-6 * scale


@pytest.mark.parametrize("field", [
    user_polynomial_field({(0, 1): -1j, (2, 1): 0.3}, {(2, 0): 0.5, (1, 0): 1j, (0, 3): 0.2j},
                          cap=6),
    polynomial_field(8.0, 0.3 + 1j, 1.0),  # A1 == 0 comes back with shape (n, 1)
], ids=["user_polynomial", "polynomial"])
def test_apply_L_matches_the_dense_grid_formula_bitwise(field):
    # the field sampled on the grid's axes changes no bit of the operator:
    # the reference samples A and div A on the dense meshgrid
    grid = Grid2D(L=2.0, n=67)
    center = (0.3, -0.2)
    X1, X2 = grid.meshgrid(center=center)
    v = (1.0 + 0.4j) * _bump(((X1 - center[0]) ** 2 + (X2 - center[1]) ** 2) / 2.5) * (1 + X2)
    h, s = 0.15, grid.spacing
    A1, A2 = field.A(X1, X2)
    divA = field.div_A(X1, X2)
    lap = _d2(v, 0, s) + _d2(v, 1, s)
    want = (-h**2 * lap + 1j * h * divA * v + 2j * h * (A1 * _d1(v, 0, s) + A2 * _d1(v, 1, s))
            + (A1 * A1 + A2 * A2) * v)
    k = _BOUNDARY_LAYERS
    want[:k, :] = want[-k:, :] = want[:, :k] = want[:, -k:] = 0.0
    got = apply_L(field, h, GridFunction(v, grid), center=center).values
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_stencils_match_the_expression_form_bitwise():
    # the in-place stencils keep the expression's operation order: the same
    # bits as the full-grid formula, along both axes
    rng = np.random.default_rng(3)
    u = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    s = 0.07
    for axis in (0, 1):
        p2, p1, c, m1, m2 = (np.roll(u, -k, axis=axis) for k in (2, 1, 0, -1, -2))
        inner = (slice(2, -2), slice(None)) if axis == 0 else (slice(None), slice(2, -2))
        want1 = (-p2 + 8 * p1 - 8 * m1 + m2) / (12 * s)
        want2 = (-p2 + 16 * p1 - 30 * c + 16 * m1 - m2) / (12 * s**2)
        for got, want in ((_d1(u, axis, s), want1), (_d2(u, axis, s), want2)):
            assert np.array_equal(got[inner], want[inner])
            assert not np.delete(got, np.r_[2:38], axis=axis).any()


def test_support_violation_raises():
    grid = Grid2D(L=1.0, n=64)
    X1, X2 = grid.meshgrid()
    u = np.ones_like(X1, dtype=complex)
    with pytest.raises(SupportError):
        apply_L(zero_field(), 0.1, GridFunction(u, grid))


def test_magnetic_inequalities_zero_potential():
    slacks = verify_magnetic_inequalities(zero_field(), h=0.1, trials=5, n=128)
    for s in slacks:
        assert s.slack >= 0.0


def test_magnetic_inequalities_oscillating():
    field = oscillating_field((np.pi / 3, -np.pi / 2), cap=4)
    slacks = verify_magnetic_inequalities(field, h=0.1, trials=50, n=256, seed=0)
    for s in slacks:
        assert s.relative >= -1e-6


def test_near_tightness_constant_field_observation(capsys):
    # Landau-type bump against B == 2 via the canonical potential: the first
    # inequality should be reasonably tight (observation, not assertion)
    a1 = {(0, 1): -1.0}
    a2 = {(1, 0): 1.0}
    field = user_polynomial_field(a1, a2, cap=4)  # B == 2, A real
    h = 0.2
    grid = Grid2D(L=6.0, n=256)
    X1, X2 = grid.meshgrid()
    # ground-state-like profile e^{-B|x|^2/(4h)} (times a cutoff)
    u = np.exp(-(X1**2 + X2**2) / (2 * h)) * _bump((X1**2 + X2**2) / 25.0)
    from cmag_wkb.numop import _d1

    s = grid.spacing
    v1 = -1j * h * _d1(u + 0j, 0, s) - np.real(field.A(X1, X2)[0]) * u
    v2 = -1j * h * _d1(u + 0j, 1, s) - np.real(field.A(X1, X2)[1]) * u
    rhs = float(np.sum(np.abs(v1) ** 2 + np.abs(v2) ** 2) * s * s)
    lhs = abs(float(np.sum(h * 2.0 * np.abs(u) ** 2) * s * s))
    rel_slack = (rhs - lhs) / rhs
    print(f"landau-bump slack/RHS = {rel_slack:.4f}")
    assert rel_slack >= -1e-6  # the theorem-side bound still holds

