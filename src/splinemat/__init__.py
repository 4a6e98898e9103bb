"""B-spline evaluation through exact basis matrices.

Three evaluation paths cross-check each other: the direct two-term
recursion (the reference), span basis matrices applied to local control
points, and the cumulative first-point-plus-differences form.  Matrix
construction is exact rational arithmetic over arbitrary knot vectors,
with constant per-degree matrices for evenly spaced knots.
"""

from .basismatrix import (
    MAX_DEGREE,
    BasisMatrix,
    basis_row,
    cumulative_matrix,
    general_basis_matrix,
    lambda_weights,
    uniform_basis_matrix,
)
from .coxdeboor import basis, basis0, cumulative_basis
from .curve import SplineCurve
from .errors import (
    DegenerateSpan,
    DegreeTooLarge,
    DomainError,
    InvalidKnots,
    NonRationalKnots,
    SizeError,
    SplineError,
)
from .knots import KnotVector, find_span, normalize
from .polytoeplitz import PowerPoly, ToeplitzLT, poly_mul, toeplitz_from_poly

__all__ = [
    "MAX_DEGREE",
    "BasisMatrix",
    "DegenerateSpan",
    "DegreeTooLarge",
    "DomainError",
    "InvalidKnots",
    "KnotVector",
    "NonRationalKnots",
    "PowerPoly",
    "SizeError",
    "SplineCurve",
    "SplineError",
    "ToeplitzLT",
    "basis",
    "basis0",
    "basis_row",
    "cumulative_basis",
    "cumulative_matrix",
    "find_span",
    "general_basis_matrix",
    "lambda_weights",
    "normalize",
    "poly_mul",
    "toeplitz_from_poly",
    "uniform_basis_matrix",
]

__version__ = "0.1.0"
