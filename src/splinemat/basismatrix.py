"""Exact basis matrices for B-spline spans, plus their cumulative form.

A degree-k basis matrix M is the (k+1)x(k+1) rational matrix with
``[1 u u^2 ... u^k] . M`` giving the k+1 active basis-function values on a
span, u being the span-normalized parameter.  Row index is the power of u,
column index is the local basis function; serializers must keep that
orientation.  Matrices are built by raising the degree one level at a
time: each new column is the previous level's neighbouring columns, each
multiplied (as polynomials in u) by its linear weight.  For evenly spaced
knots the weights do not depend on the span, so one constant matrix per
degree serves every span.  ``span_columns`` runs the recursion in the
arithmetic of the knots: ``general_basis_matrix`` takes rational knots
only, while a curve over float-stored knots gets double-precision columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .errors import DegenerateSpan, DegreeTooLarge, DomainError, NonRationalKnots
from .knots import KnotVector, local_coefficients
from .polytoeplitz import horner

# Factorials inside the entries grow fast; nothing practical needs more.
MAX_DEGREE = 30


@dataclass(frozen=True)
class BasisMatrix:
    """Span coefficient matrix, exact rationals, rows indexed by power of u.

    Holds a basis matrix or its cumulative form (see ``cumulative_matrix``).
    ``span`` is the span a non-uniform matrix belongs to; it is None for the
    span-independent uniform matrices.
    """

    degree: int
    entries: tuple
    span: Optional[int] = None

    @property
    def size(self) -> int:
        return self.degree + 1

    def column(self, c: int) -> tuple:
        return tuple(row[c] for row in self.entries)

    def as_float_rows(self) -> list:
        return [[float(v) for v in row] for row in self.entries]


def _check_degree(degree: int) -> None:
    if degree < 0:
        raise ValueError("degree must be non-negative, got %d" % degree)
    if degree > MAX_DEGREE:
        raise DegreeTooLarge("degree %d exceeds cap %d" % (degree, MAX_DEGREE))


def _raise_degree(cols: list, pairs: list) -> list:
    """One level of the degree recursion on coefficient columns.

    ``cols`` holds the level k-1 columns (length-k coefficient vectors);
    ``pairs`` holds the k weight pairs (a0, a1), one per transition.  Parent
    column c feeds new column c+1 times (a0, a1) and new column c times the
    complementary pair (1 - a0, -a1); parents outside the range contribute
    nothing, their functions have no support on the span.
    """
    k = len(pairs)
    # Every slot receives a product below, so the int zero takes the type
    # of the weights: exact entries stay Fractions, float ones floats.
    new = [[0] * (k + 1) for _ in range(k + 1)]
    for c, (a0, a1) in enumerate(pairs):
        _add_linear(new[c + 1], cols[c], a0, a1)
        _add_linear(new[c], cols[c], 1 - a0, -a1)
    return new


def _add_linear(dst: list, col: list, a0, a1) -> None:
    """dst += col * (a0 + a1 u), coefficients indexed by power of u."""
    for r, v in enumerate(col):
        dst[r] += a0 * v
        dst[r + 1] += a1 * v


def _cols_to_entries(cols: list) -> tuple:
    return tuple(tuple(col[r] for col in cols) for r in range(len(cols)))


@lru_cache(maxsize=None)
def uniform_basis_matrix(degree: int) -> BasisMatrix:
    """Constant basis matrix for evenly spaced knots.

    Built by the degree recursion with the span-independent weight pairs
    ((k-1-r)/k, 1/k): written as banded matrices the level-k step is
    M^k = (1/k) ([M^{k-1}; 0] A + [0; M^{k-1}] B) with A[r][r] = r+1,
    A[r][r+1] = k-1-r, B[r][r] = -1, B[r][r+1] = 1.  Every entry times k!
    is an integer.  Results are memoized per degree (lookup is
    thread-safe; matrices are immutable).
    """
    _check_degree(degree)
    if degree == 0:
        return BasisMatrix(degree=0, entries=((Fraction(1),),))
    prev = uniform_basis_matrix(degree - 1)
    cols = [list(prev.column(c)) for c in range(prev.size)]
    pairs = [(Fraction(degree - 1 - r, degree), Fraction(1, degree)) for r in range(degree)]
    cols = _raise_degree(cols, pairs)
    return BasisMatrix(degree=degree, entries=_cols_to_entries(cols))


def general_basis_matrix(kv: KnotVector, degree: int, span: int) -> BasisMatrix:
    """Basis matrix of one span for an arbitrary (rationally stored) knot vector.

    Runs the same degree recursion with weight pairs taken from the knot
    differences at each level, so the result is exact.  Float-stored knot
    vectors are rejected; convert deliberately with ``kv.as_rational()``.
    """
    _check_degree(degree)
    if kv.storage != "rational":
        raise NonRationalKnots("exact construction needs rational knots; use as_rational()")
    if not degree <= span <= len(kv.values) - degree - 2:
        raise DomainError(
            "span %d outside valid range [%d, %d]" % (span, degree, len(kv.values) - degree - 2)
        )
    if kv.values[span] == kv.values[span + 1]:
        raise DegenerateSpan("span %d has zero width" % span)
    cols = span_columns(kv, degree, span)
    return BasisMatrix(degree=degree, entries=_cols_to_entries(cols), span=span)


def span_columns(kv: KnotVector, degree: int, span: int) -> list:
    """Columns of one span's basis matrix, in the arithmetic of the knots.

    The degree recursion with weight pairs from the knot differences at
    each level: exact for rational storage, double precision for float
    storage.  ``span`` must be a valid span of positive width.
    """
    cols = [[Fraction(1) if kv.storage == "rational" else 1.0]]
    for level in range(1, degree + 1):
        lc = local_coefficients(kv, level, span)
        # Transition r pairs with basis index first+1+r; the d entry of the
        # leftmost index never enters (its partner function vanishes here).
        pairs = [(lc.d0[r + 1], lc.d1[r + 1]) for r in range(level)]
        cols = _raise_degree(cols, pairs)
    return cols


def cumulative_matrix(m: BasisMatrix) -> BasisMatrix:
    """Suffix-sum the columns: column c becomes the sum of columns c..k of m.

    Column 0 weights the first local control point, column c >= 1 weights
    the difference between local points c and c-1.  Column 0 is always
    (1, 0, ..., 0): the active basis functions sum to one.
    """
    n = m.size
    entries = tuple(
        tuple(sum(row[s] for s in range(c, n)) for c in range(n)) for row in m.entries
    )
    return BasisMatrix(degree=m.degree, entries=entries, span=m.span)


def basis_row(m: BasisMatrix, u) -> list:
    """``[1 u ... u^k] . M``: one Horner evaluation per column.

    For a basis matrix these are the active basis-function values, which sum
    to 1 for any u; for a cumulative matrix they are the cumulative weights,
    extrapolated when u lies outside [0, 1].  Exact when u is a Fraction or
    int; float u gives ordinary double evaluation.
    """
    return [horner(m.column(c), u) for c in range(m.size)]


def lambda_weights(cm: BasisMatrix, u) -> list:
    """Cumulative weights at normalized parameter u in [0, 1].

    ``cm`` is a ``cumulative_matrix``.  Entry 0 is identically 1; entry c
    weights the c-th local control-point difference.
    """
    if not 0 <= u <= 1:
        raise DomainError("normalized parameter %r outside [0, 1]" % (u,))
    return basis_row(cm, u)
