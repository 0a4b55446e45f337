"""Nonlocal mean value kernels for s-harmonic functions.

Builds the explicit radial kernel that reproduces s-harmonic functions by
convolution, verifies its structural properties, and checks the associated
gradient and smoothness estimates at desk scale.
"""

from .errors import (
    EvaluationError,
    FieldRejectedError,
    FracmvError,
    TableMismatchError,
    ToleranceError,
)
from .fraclap import Params, ScalarField, make_field

__all__ = [
    "EvaluationError",
    "FieldRejectedError",
    "FracmvError",
    "TableMismatchError",
    "ToleranceError",
    "Params",
    "ScalarField",
    "make_field",
]

__version__ = "0.1.0"
