"""Exact basis matrices for B-spline spans, plus their cumulative form.

A degree-k basis matrix M is the (k+1)x(k+1) rational matrix with
``[1 u u^2 ... u^k] . M`` giving the k+1 active basis-function values on a
span, u being the span-normalized parameter.  Row index is the power of u,
column index is the local basis function; serializers must keep that
orientation.  Matrices are built by raising the degree one level at a
time: each new column is the previous level's neighbouring columns, each
multiplied (as polynomials in u) by its linear weight.  Exact
construction runs on the span's knot window (``knot_window``), its only
input, in integers, and forms the ``Fraction`` entries once, at the end;
evenly spaced knots are the one window (1-k, ..., k).  ``centred`` builds
the same matrix in powers of v = u - 1/2 instead, for the curve's
evaluation (see ``_raise_degree``); ``window_part`` caches it per window.
On float-stored knots ``float_span_columns`` runs the centred recursion on
the same windows in double precision, a whole batch of spans at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Optional

import numpy as np

from .errors import DegenerateSpan, DegreeTooLarge, DomainError, NonRationalKnots
from .knots import KnotVector
from .polytoeplitz import horner

# Factorials inside the entries grow fast; nothing practical needs more.
MAX_DEGREE = 30

WINDOW_CACHE_SIZE = 128  # values in ``_windows``, oldest first; see ``window_part``
_windows: dict = {}


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

    @cached_property
    def column_sums_ok(self) -> bool:
        """Row 0 of the entries sums to 1 and every other row to 0, exactly.

        True of every basis matrix, in powers of u or of v = u - 1/2: the
        active basis functions sum to one.  Each row is summed in ints, its
        numerators scaled to their common denominator, which row 0 must then
        equal.  Computed once per object: ``window_part``'s shared matrices
        keep their verdict while the window cache holds them.
        """
        for r, row in enumerate(self.entries):
            den = math.lcm(*(v.denominator for v in row))
            total = sum(v.numerator * (den // v.denominator) for v in row)
            if total != (den if r == 0 else 0):
                return False
        return True


def _check_degree(degree: int) -> None:
    if degree < 0:
        raise ValueError("degree must be non-negative, got %d" % degree)
    if degree > MAX_DEGREE:
        raise DegreeTooLarge("degree %d exceeds cap %d" % (degree, MAX_DEGREE))


def _raise_degree(cols: list, den, pairs: list, scale, centred: bool) -> tuple:
    """One level of the degree recursion on numerator columns over ``den``.

    ``cols`` holds the level k-1 columns (length-k coefficient vectors);
    ``pairs`` holds the k weight pairs (a0, a1) as numerators over
    ``scale``, one per transition.  Parent column c feeds new column c+1
    times (a0, a1) and new column c times the complementary pair
    (scale - a0, -a1); parents outside the range contribute nothing, their
    functions have no support on the span.  Returns the new columns over
    ``den * scale``, divided through by their gcd in integer arithmetic.

    ``centred`` columns are polynomials in v = u - 1/2: a weight
    a0 + a1 u is (a0 + a1/2) + a1 v, so the pair becomes (2 a0 + a1, 2 a1)
    over 2 scale.
    """
    if centred:
        pairs, scale = [(2 * a0 + a1, 2 * a1) for a0, a1 in pairs], 2 * scale
    k = len(pairs)
    new = [[0] * (k + 1) for _ in range(k + 1)]
    for c, (a0, a1) in enumerate(pairs):
        up, down, b0 = new[c + 1], new[c], scale - a0
        for r, v in enumerate(cols[c]):
            up[r] += a0 * v
            up[r + 1] += a1 * v
            down[r] += b0 * v
            down[r + 1] -= a1 * v
    den *= scale
    g = math.gcd(den, *(v for col in new for v in col))
    if g > 1:
        new = [[v // g for v in col] for col in new]
        den //= g
    return new, den


def uniform_basis_matrix(degree: int) -> BasisMatrix:
    """Constant basis matrix for evenly spaced knots.

    The "matrix" ``window_part`` of the evenly spaced window (1-k, ..., k),
    whose weight pairs ((k-1-r)/k, 1/k) do not depend on the span: as banded
    matrices the level-k step is M^k = (1/k) ([M^{k-1}; 0] A + [0; M^{k-1}] B)
    with A[r][r] = r+1, A[r][r+1] = k-1-r, B[r][r] = -1, B[r][r+1] = 1.  Every
    entry times k! is an integer.  Its ``cache_clear()`` empties the window cache.
    """
    _check_degree(degree)
    return window_part(tuple(range(1 - degree, degree + 1)), "matrix")[0]


def general_basis_matrix(kv: KnotVector, degree: int, span: int) -> BasisMatrix:
    """Basis matrix of one span for an arbitrary (rationally stored) knot vector.

    The "matrix" ``window_part`` of the span's ``knot_window``: exact, and
    sharing its entries with every span of that window.  Float-stored knot
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
    return replace(window_part(span_window(kv, degree, span), "matrix")[0], span=span)


def window_part(window: tuple, part: str) -> tuple:
    """``(value, built)``: one part of a ``knot_window``'s exact construction, built if new.

    "columns", "centred columns" (``span_columns``), "matrix", "centred
    matrix" (``span`` None) or "rows" (centred ``float_rows``): immutable,
    shared by all threads through one cache of the newest ``WINDOW_CACHE_SIZE``
    values.  At k = 30 a value takes up to ~160 KB on integer knots and ~2.7
    MB on rational copies of random floats: ~20 MB or ~350 MB in a full cache.
    """
    key = (part, window)
    value = _windows.get(key)
    if value is not None:
        return value, False
    if part.endswith("columns"):
        value = span_columns(window, centred=part == "centred columns")
    elif part == "rows":
        cols, den = window_part(window, "centred columns")[0]
        value = float_rows(np.array(cols, dtype=object), den)
    else:
        cols, den = window_part(window, part.replace("matrix", "columns"))[0]
        value = BasisMatrix(degree=len(cols) - 1, entries=tuple(
            tuple(Fraction(col[r], den) for col in cols) for r in range(len(cols))))
    value = _windows.setdefault(key, value)
    for old in list(_windows)[:max(len(_windows) - WINDOW_CACHE_SIZE, 0)]:
        _windows.pop(old, None)  # a racing thread may have dropped it
    return value, True


uniform_basis_matrix.cache_clear = _windows.clear


def float_rows(cols: np.ndarray, den) -> np.ndarray:
    """Read-only rows (2, ..., k+1, k+1): the matrices ``cols / den``, then their cumulative forms.

    Kind-major and C-contiguous, so each kind's rows are too.  ``cols`` is
    (..., column, power); ints (object arrays) over an int ``den`` are
    summed exactly and rounded once, floats summed right to left.
    """
    suffix = np.cumsum(cols[..., ::-1, :], axis=-2)[..., ::-1, :]
    rows = (np.stack([cols, suffix]).swapaxes(-1, -2) / den).astype(float, order="C")
    rows.setflags(write=False)
    return rows


def knot_window(values, degree: int, span: int) -> tuple:
    """The span's knot window as a canonical tuple of 2k ints, its matrix's only input.

    tau_i - tau_span for i = span-k+1..span+k over their common denominator,
    divided by the numerators' gcd: equal for two spans exactly when the
    ratios (tau_i - tau_span) / (tau_{span+1} - tau_span) are (Qin 2000).
    ``values`` are exact (Fractions or ints); the span has positive width.
    """
    window = values[span - degree + 1:span + degree + 1]
    den = math.lcm(*(v.denominator for v in window))
    nums = [v.numerator * (den // v.denominator) for v in window]
    nums = [n - nums[degree - 1] for n in nums]  # tau_span is entry k - 1
    g = math.gcd(*nums)
    return tuple(n // g for n in nums)


def span_window(kv: KnotVector, degree: int, span: int) -> tuple:
    """The ``knot_window`` of a span of rationally stored ``kv``, built once and kept on ``kv``."""
    return kv._derived(("window", degree, span), knot_window, kv.values, degree, span)


def span_columns(window: tuple, centred: bool = False) -> tuple:
    """``(cols, den)``: the basis-matrix columns of a ``knot_window`` are ``cols / den``, tuples.

    The degree recursion, degree k = len(window) / 2, on int numerators
    over an int ``den``.  Transition c of level L has the weight a0 + a1 u,
    a0 = -window[k-L+c] and a1 = window[k] over window[k+c] - window[k-L+c]
    (positive: that support covers the span); each level puts its weights
    over the lcm of those.  ``centred`` gives powers of v = u - 1/2.
    """
    k = len(window) // 2
    cols, den = [[1]], 1
    for level in range(1, k + 1):
        low = window[k - level:k]
        dens = [window[k + c] - low[c] for c in range(level)]
        scale = math.lcm(*dens)
        pairs = [(-lo * (scale // d), window[k] * (scale // d)) for lo, d in zip(low, dens)]
        cols, den = _raise_degree(cols, den, pairs, scale, centred)
    return tuple(map(tuple, cols)), den


def float_span_columns(values: np.ndarray, degree: int, spans) -> tuple:
    """``(cols, den)``: the centred columns of ``spans`` over float knots, in one batch.

    ``values`` are the knots as floats, ``spans`` valid spans of positive
    width.  ``cols`` is the (s, k+1, k+1) stack of span, column, power of
    v = u - 1/2, and every span's matrix is ``cols[i] / den``.  This is the
    centred recursion of ``span_columns`` run level by level across all
    spans in double precision, on each span's 2k-knot window, gathered
    once: its weights, as floats d0 + d1 u, are centred as (2 d0 + d1,
    2 d1) over 2, and each entry takes its terms in the order of
    ``_raise_degree``'s loop, so running that loop in floats gives the
    same entries bit for bit.  Every weight's denominator covers the span,
    so none is zero.  Scratch memory is O(s (k+1)^2) floats.
    """
    spans = np.asarray(spans, dtype=np.intp)
    # row i holds tau_{j-k+1} .. tau_{j+k} of span j = spans[i]: tau_j is entry k - 1
    window = values[spans[:, None] + np.arange(1 - degree, degree + 1)]
    left = window[:, degree - 1:degree]
    lefts, width = left - window[:, :degree], window[:, degree:degree + 1] - left
    cols = np.ones((len(spans), 1, 1))
    for level in range(1, degree + 1):
        # weight c of level L: (tau - tau_{j-L+1+c}) / (tau_{j+1+c} - tau_{j-L+1+c})
        den = window[:, degree:degree + level] - window[:, degree - level:degree]
        d0, d1 = lefts[:, degree - level:] / den, width / den
        up0, up1 = (2 * d0 + d1)[:, :, None], (2 * d1)[:, :, None]
        # parent column c feeds new column c+1 by (a0, a1) and column c by
        # (2 - a0, -a1); an entry takes the terms in this order
        new = np.zeros((len(spans), level + 1, level + 1))
        new[:, 1:, 1:] += up1 * cols
        new[:, 1:, :-1] += up0 * cols
        new[:, :-1, 1:] -= up1 * cols
        new[:, :-1, :-1] += (2 - up0) * cols
        cols = new
    return cols, 2.0 ** degree


def cumulative_matrix(m: BasisMatrix) -> BasisMatrix:
    """Suffix-sum the columns: column c becomes the sum of columns c..k of m.

    Column 0 weights the first local control point, column c >= 1 weights
    the difference between local points c and c-1.  Column 0 is always
    (1, 0, ..., 0): the active basis functions sum to one.
    """
    entries = tuple(tuple(accumulate(reversed(row)))[::-1] for row in m.entries)
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
