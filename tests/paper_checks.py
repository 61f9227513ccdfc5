"""Checks of the paper's hypotheses that are not steps of the pipeline.

The package builds pseudomodes; these two functions check facts the paper
assumes of the field, and only the tests call them.

* Acceptance criterion 8, the magnetic inequalities
  (``verify_magnetic_inequalities``).  The operator (-ih grad - A)^2 is
  introduced as an m-sectorial operator under the hypothesis that Im A is
  relatively form-bounded with respect to the real magnetic Laplacian
  (-ih grad - Re A)^2.  The check compares h Re B and h Im B, weighted by
  |u|^2, with the kinetic energy of (-ih grad - Re A) u on random compactly
  supported u, with the 4th-order stencil of the FD oracle (``numop._d1``).
* Acceptance criterion 10, the principal symbol and its Poisson bracket
  (``weyl_bracket``).  At a point (x0, xi0) of the characteristic set
  p = 0, a nonzero bracket {Re p, Im p} is the classical condition for
  semiclassical pseudomodes of a non-self-adjoint operator.  At the
  oscillating field's admissible base point, where Im A = 0, both p and the
  bracket vanish, so the pseudomodes there rest on the complex field's
  non-criticality instead.
"""

from dataclasses import dataclass

import numpy as np

from cmag_wkb.numop import Grid2D, _d1
from cmag_wkb.pseudomode import _sigma


def meshgrid(grid, center=(0.0, 0.0)):
    """The dense (n, n) coordinates of ``grid`` moved to ``center``."""
    x = grid.axis()
    return np.meshgrid(center[0] + x, center[1] + x, indexing="ij")


@dataclass(frozen=True)
class InequalitySlack:
    slack: float          # min over trials of RHS - LHS
    relative: float       # min over trials of (RHS - LHS)/RHS
    worst_trial: int


def verify_magnetic_inequalities(field, h, trials=50, L=3.0, n=256, seed=0):
    """Grid check of the two field-vs-kinetic-energy inequalities.

    For random compactly supported test functions u (smooth bump times a
    random low-degree complex polynomial):

        |∫ h Re B |u|^2| <= ∫ |(-ih grad - Re A) u|^2
        |∫ h Im B |u|^2| <= ∫ |(-ih grad - Re A) u|^2 + ∫ |Im A|^2 |u|^2

    Returns the worst slack per inequality over all trials.
    """
    rng = np.random.default_rng(seed)
    grid = Grid2D(L=L, n=n)
    X1, X2 = meshgrid(grid)
    s = grid.spacing
    w = s * s
    B = field.B(X1, X2)
    A1, A2 = field.A(X1, X2)
    reA1, reA2 = np.real(A1), np.real(A2)
    imA_sq = np.imag(A1) ** 2 + np.imag(A2) ** 2

    worst = [InequalitySlack(np.inf, np.inf, -1), InequalitySlack(np.inf, np.inf, -1)]
    for trial in range(trials):
        c = rng.uniform(-L / 3, L / 3, size=2)
        rad = rng.uniform(L / 6, L / 4)
        t = ((X1 - c[0]) ** 2 + (X2 - c[1]) ** 2) / rad**2
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        poly = (coeffs[0] + coeffs[1] * X1 + coeffs[2] * X2 + coeffs[3] * X1 * X2
                + coeffs[4] * X1**2 + coeffs[5] * X2**2)
        u = _sigma(1.0 - t) * poly  # the bump exp(-1/(1 - t)) on t < 1
        u2 = np.abs(u) ** 2
        ux = _d1(u, 0, s)
        uy = _d1(u, 1, s)
        v1 = -1j * h * ux - reA1 * u
        v2 = -1j * h * uy - reA2 * u
        kinetic = float(np.sum((np.abs(v1) ** 2 + np.abs(v2) ** 2)) * w)
        lhs_re = abs(float(np.sum(h * np.real(B) * u2) * w))
        lhs_im = abs(float(np.sum(h * np.imag(B) * u2) * w))
        rhs_im = kinetic + float(np.sum(imA_sq * u2) * w)
        for idx, (lhs, rhs) in enumerate(((lhs_re, kinetic), (lhs_im, rhs_im))):
            slack = rhs - lhs
            rel = slack / rhs if rhs > 0 else np.inf
            if rel < worst[idx].relative:
                worst[idx] = InequalitySlack(slack=slack, relative=rel, worst_trial=trial)
    return tuple(worst)


def weyl_bracket(field, x, xi):
    """Principal symbol p(x, xi) and the canonical bracket {Re p, Im p}.

    p = |xi - Re A|^2 - |Im A|^2 - 2i <xi - Re A, Im A>; x-partials of the
    two real symbols come from the closed form ``field.A_jac``, xi-partials
    are exact.
    Bracket convention: {f, g} = grad_xi f . grad_x g - grad_x f . grad_xi g.
    """
    x1, x2 = np.asarray(x, dtype=float)
    a = np.array([complex(c) for c in field.A(x1, x2)])
    dA = np.array([complex(c) for c in field.A_jac(x1, x2)]).reshape(2, 2)  # [j, k] = d_k A_j
    v = np.asarray(xi, dtype=float) - a.real
    im = a.imag
    p = v @ v - im @ im - 2j * (v @ im)
    grad_x_re = -2.0 * (v @ dA.real + im @ dA.imag)
    grad_x_im = -2.0 * (v @ dA.imag - im @ dA.real)
    # grad_xi Re p = 2v, grad_xi Im p = -2 Im A
    bracket = float(2.0 * v @ grad_x_im + 2.0 * im @ grad_x_re)
    return complex(p), bracket
