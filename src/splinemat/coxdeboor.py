"""Reference evaluation of B-spline basis functions by the two-term recursion.

This is the oracle the matrix paths are tested against: direct, without
span lookup or precomputed matrices, and valid for arbitrary knot vectors.
``basis_values`` raises one triangular table per parameter, serving every
basis function asked for; it is the reference.  ``basis_table`` raises
one table per batch of parameters, a whole level of the recursion at a
time with numpy, and gives every entry by the same operations.  Works in
float or exact rational arithmetic depending on the knot storage and the
parameter type.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .knots import KnotVector, find_span


def basis0(kv: KnotVector, i: int, tau) -> int:
    """Degree-0 basis: indicator of the half-open span [tau_i, tau_{i+1}).

    The interval closes on the right only at the global last knot, so the
    piecewise-constant basis still sums to 1 at the far end of the knot
    range.  A zero-width span is empty.
    """
    vals = kv.values
    if not 0 <= i <= len(vals) - 2:
        raise IndexError("basis index %d out of range for %d knots" % (i, len(vals)))
    left, right = vals[i], vals[i + 1]
    if left <= tau < right:
        return 1
    if tau == right == vals[-1] and left < right:
        return 1
    return 0


def basis_values(kv: KnotVector, first: int, last: int, degree: int, tau) -> list:
    """Values of B_{i,k} at tau for i = first..last, from one shared table.

    The whole-range form of Piegl & Tiller's BasisFuns: the degree-0
    indicators of spans first..last+k are raised one degree at a time, so
    a call costs O((last - first + 1 + k) * k) and each value takes the
    same operations as in a table of its own.  A term whose denominator
    vanishes is dropped: the subordinate function it weights has no support
    there, which is the working form of the 0/0 = 0 convention.

    At the right end of the evaluable domain, tau_{M-k-1}, the degree-0
    row is the last span of positive width, the span ``find_span`` takes
    there, so the recursion gives the value from the left even when a
    larger knot follows.
    """
    vals = kv.values
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if not 0 <= first <= last <= len(vals) - degree - 2:
        raise IndexError(
            "basis index %d out of range for degree %d with %d knots" % (first, degree, len(vals))
        )
    if isinstance(tau, float) and not math.isfinite(tau):
        raise DomainError("tau must be finite, got %r" % tau)
    spans = range(first, last + degree + 1)
    end = len(vals) - degree - 1
    if tau == vals[end] < vals[-1] and vals[degree] < vals[end]:
        j = find_span(kv, degree, tau)
        row = [int(s == j) for s in spans]
    else:
        row = [basis0(kv, s, tau) for s in spans]
    for k in range(1, degree + 1):
        for s in range(len(row) - k):
            g = first + s
            acc = 0
            den = vals[g + k] - vals[g]
            if den != 0:
                acc += (tau - vals[g]) / den * row[s]
            den = vals[g + k + 1] - vals[g + 1]
            if den != 0:
                acc += (vals[g + k + 1] - tau) / den * row[s + 1]
            row[s] = acc
    return row[:last - first + 1]


def basis_table(kv: KnotVector, first: int, last: int, degree: int, taus) -> np.ndarray:
    """``basis_values`` at every tau of a sequence: row r is its list at ``taus[r]``.

    Each level of the recursion runs over the whole batch at once: the
    knot differences and the zero-denominator tests do not depend on tau.
    Every entry takes ``basis_values``' operations in the same order, a
    term dropped where its denominator vanishes, so the table is float64
    and equal bit for bit when every tau is a float and the knots are
    float-stored, and otherwise an object array of the very values (exact
    for Fraction inputs).  Float overflow gives inf and NaN as in Python
    floats.  The table has (len(taus), last - first + 1 + degree) entries
    at its widest; callers bound it by the batch size.
    """
    vals = kv.values
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if not 0 <= first <= last <= len(vals) - degree - 2:
        raise IndexError(
            "basis index %d out of range for degree %d with %d knots" % (first, degree, len(vals))
        )
    taus = list(taus)
    for tau in taus:
        if isinstance(tau, float) and not math.isfinite(tau):
            raise DomainError("tau must be finite, got %r" % tau)
    floats = kv.storage == "float" and all(isinstance(tau, float) for tau in taus)
    dtype = float if floats else object
    knots = np.array(vals[first:last + degree + 2], dtype=dtype)
    tau = np.array(taus, dtype=dtype)[:, None]
    left, right = knots[:-1], knots[1:]
    row = ((left <= tau) & (tau < right)
           | (tau == right) & (right == vals[-1]) & (left < right))
    end = len(vals) - degree - 1
    if vals[end] < vals[-1] and vals[degree] < vals[end]:
        # the right end of the domain takes the span find_span takes there
        span = find_span(kv, degree, vals[end]) - first
        row[(tau == vals[end])[:, 0]] = np.arange(row.shape[1]) == span
    row = row.astype(float) if floats else row.astype(int).astype(object)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, degree + 1):
            # den[s] is the left denominator of column s, den[s + 1] its right one
            start, stop = knots[:-k], knots[k:]
            den = stop - start
            row = (_term(tau, start[:-1], den[:-1], row[:, :-1])
                   + _term(stop[1:], tau, den[1:], row[:, 1:]))
    return row[:, :last - first + 1]


def _term(a, b, den, row) -> np.ndarray:
    """(a - b) / den * row, computed only where den != 0; 0 of row's dtype elsewhere.

    The sum of a left and a right term is then ``basis_values``' sum from 0
    in value and type.  It differs from 0 + left only where left is -0.0
    and right -0.0 too, and that needs tau below the first knot of the
    basis function's support and above its last at once.
    """
    out = np.zeros(row.shape, row.dtype)
    where = den != 0
    np.subtract(a, b, out=out, where=where)
    np.divide(out, den, out=out, where=where)
    np.multiply(out, row, out=out, where=where)
    return out


def basis(kv: KnotVector, i: int, degree: int, tau):
    """Value of the degree-k basis function B_{i,k} at tau: a one-index table, O(k^2)."""
    return basis_values(kv, i, i, degree, tau)[0]


def cumulative_basis(kv: KnotVector, i: int, degree: int, tau):
    """Suffix sum of basis values from index i through the last defined index."""
    last = len(kv.values) - degree - 2
    if not 0 <= i <= last:
        raise IndexError(
            "basis index %d out of range for degree %d with %d knots" % (i, degree, len(kv.values))
        )
    total = 0
    for value in basis_values(kv, i, last, degree, tau):
        total += value
    return total
