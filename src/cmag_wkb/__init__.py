"""WKB pseudomodes for two-dimensional magnetic Laplacians with complex fields."""

from .cseries import (
    BiSeries,
    compose_w,
    exact_divide_by_curve,
    implicit_w,
)
from .fieldmodel import (
    FieldSpec,
    GammaReport,
    compute_Q,
    gamma_scan,
    make_field,
)
from .pseudomode import (
    Pseudomode,
    ResidualReport,
    assemble,
    fit_decay,
    make_pseudomode,
    residual_finite_difference,
    residual_series_exact,
)
from .wkb import BoundFit, WKBSolution, fit_growth, solve_wkb

__version__ = "0.1.0"

__all__ = [
    "BiSeries",
    "compose_w",
    "exact_divide_by_curve",
    "implicit_w",
    "FieldSpec",
    "GammaReport",
    "compute_Q",
    "gamma_scan",
    "make_field",
    "WKBSolution",
    "BoundFit",
    "solve_wkb",
    "fit_growth",
    "Pseudomode",
    "ResidualReport",
    "make_pseudomode",
    "assemble",
    "residual_series_exact",
    "residual_finite_difference",
    "fit_decay",
    "__version__",
]
