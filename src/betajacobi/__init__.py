"""Simulation and limit-theorem verification for general-beta Jacobi
(MANOVA) random-matrix ensembles via the tridiagonal factor model."""

from ._version import __version__
from .errors import (
    BetaJacobiError,
    EigenSolverError,
    ExtremalRegimeError,
    NumericalError,
    ParameterError,
    QuadratureError,
)
from .params import (
    AsymptoticParams,
    EnsembleParams,
    SupportInterval,
    derive_asymptotic,
    from_ratios,
    from_shape,
    involute,
    shape_params,
    support_edges,
)

__all__ = [
    "__version__",
    "BetaJacobiError",
    "ParameterError",
    "ExtremalRegimeError",
    "NumericalError",
    "EigenSolverError",
    "QuadratureError",
    "EnsembleParams",
    "AsymptoticParams",
    "SupportInterval",
    "derive_asymptotic",
    "from_ratios",
    "from_shape",
    "involute",
    "shape_params",
    "support_edges",
]
