"""Reference evaluation of B-spline basis functions by the two-term recursion.

This is the oracle the matrix paths are tested against: direct, without
span lookup or precomputed matrices, and valid for arbitrary knot vectors.
One triangular table per parameter serves every basis function asked for.
Works in float or exact rational arithmetic depending on the knot storage
and the parameter type.
"""

from __future__ import annotations

import math

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
