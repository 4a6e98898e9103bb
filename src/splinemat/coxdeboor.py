"""Reference evaluation of B-spline basis functions by the two-term recursion.

This is the oracle the matrix paths are tested against: direct, without
precomputed matrices, and valid for arbitrary knot vectors.
``basis_window`` raises one span's degree-0 indicator to the k+1 basis
functions that can be nonzero there; every other entry point is a view of
it.  Works in float or exact rational arithmetic depending on the knot
storage and the parameter type.  ``float_windows`` runs the same
recursion for a whole batch of float parameters over float knots at once,
with the same result bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .knots import KnotVector, span_of


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


def basis_window(kv: KnotVector, first: int, last: int, degree: int, tau) -> tuple:
    """``(j, [B_{j-k,k}(tau), ..., B_{j,k}(tau)])`` for the span j of tau's indicator.

    B_{i,k} vanishes outside [tau_i, tau_{i+k+1}], so on span j only these
    k+1 functions can be nonzero (Piegl & Tiller A2.2).  j is the span with
    tau_j <= tau < tau_{j+1}; at the last knot, and at the right end of the
    evaluable domain, tau_{M-k-1}, it is the last span of positive width
    ending there (``knots.span_of``).  Only indices first..last,
    within 0..M-k-2, are computed; the others read 0, as does every index
    for tau outside [tau_0, tau_{M-1}].

    The indicator is raised one degree at a time over columns j-k..j+1;
    column j+1 stays 0 and closes the window.  At degree l only the
    columns first..last+k-l feed an asked index, so no other is computed.
    A term whose lower-degree value is zero is dropped, the working form
    of the 0/0 = 0 convention: a nonzero value puts tau inside that
    function's support, so the term's denominator is positive and its
    ratio at most 1.
    """
    vals = kv.values
    j = span_of(vals, degree, tau)
    base = j - degree  # the index of column 0
    lo, hi = max(first - base, 0), min(last - base, degree)  # the asked columns
    if lo > hi:
        return j, [0] * (degree + 1)
    # the window's knots by column, column s reading knots[s:]: none below -base is computed
    knots = vals[base:j + degree + 2] if base >= 0 else (0,) * -base + vals[:j + degree + 2]
    row = [0] * (degree + 2)
    row[degree] = 1
    for k in range(1, degree + 1):
        for s in range(max(degree - k, lo), min(degree, hi + degree - k) + 1):
            acc = 0
            if row[s]:
                acc += (tau - knots[s]) / (knots[s + k] - knots[s]) * row[s]
            if row[s + 1]:
                acc += (knots[s + k + 1] - tau) / (knots[s + k + 1] - knots[s + 1]) * row[s + 1]
            row[s] = acc
    row[:lo] = [0] * lo  # columns not asked for read 0; the closing column goes
    row[hi + 1:] = [0] * (degree - hi)
    return j, row


def float_windows(values: np.ndarray, degree: int, spans: np.ndarray,
                  taus: np.ndarray) -> np.ndarray:
    """``basis_window``'s weights at float ``taus`` over float knots, one row per tau: (n, k+1).

    ``values`` holds the knots as doubles, ``spans`` each tau's span by
    ``span_of``, a span of the evaluable domain, so row i is
    B_{j-k,k}(tau), ..., B_{j,k}(tau) for j = spans[i].  Only the triangle
    of functions nonzero on span j is raised (Piegl & Tiller A2.2): at
    degree l the columns k-l+1..k, the functions B_{j-l+1,l-1}..B_{j,l-1},
    each give an up term to its own column and a down term to the column
    before, over the 2k knots tau_{j-k+1}..tau_{j+k}, the same at every
    tau, so each degree is one step for the whole batch.  Each tau's float
    operations are those of ``basis_window``'s loop in its order, and every
    row equals ``basis_window``'s bit for bit: where the scalar loop drops a
    term of a zero value, the batch adds its +0.0, which changes no bit of
    a sum of non-negative terms.  One + 0.0 turns a knot difference of
    -0.0 (tau = -0.0 over a +0.0 knot, say) into +0.0, as the scalar
    loop's int 0 start does, and changes no other bit.

    This cannot raise.  Every width on the triangle covers span j, so it
    is positive, and finite, as the knots' range is finite in floats; every
    numerator lies between 0 and its width, so every ratio lies in [0, 1].
    The scoped ``np.errstate`` lets a ratio underflow silently, as Python
    floats do, whatever the caller's setting.  Scratch memory is O(n k)
    floats.
    """
    # row r holds tau_{j-k+1+r}: column c's knots are rows c-1 and c-1+level
    knots = values[spans + np.arange(1 - degree, degree + 1)[:, None]]
    left, right = taus - knots[:degree] + 0.0, knots[degree:] - taus + 0.0
    row = np.empty((degree + 1, len(taus)))
    row[degree] = 1.0
    with np.errstate(under="ignore"):
        for level in range(1, degree + 1):
            lo = degree - level + 1  # the columns nonzero at degree level-1
            width = knots[degree:degree + level] - knots[lo - 1:degree]
            up = left[lo - 1:] / width
            up *= row[lo:]
            down = right[:level] / width
            down *= row[lo:]
            row[lo - 1] = down[0]
            np.add(up[:-1], down[1:], out=row[lo:degree])
            row[degree] = up[-1]
    return row.T


def basis_values(kv: KnotVector, first: int, last: int, degree: int, tau) -> list:
    """Values of B_{i,k} at tau for i = first..last: ``basis_window``'s, int 0 elsewhere.

    Raises the error of a negative degree, an index window out of range or
    a non-finite float tau, Python's or NumPy's.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if not 0 <= first <= last <= len(kv.values) - degree - 2:
        raise IndexError("basis index %d out of range for degree %d with %d knots"
                         % (first, degree, len(kv.values)))
    if isinstance(tau, (float, np.floating)) and not math.isfinite(tau):
        raise DomainError("tau must be finite, got %r" % tau)
    j, window = basis_window(kv, first, last, degree, tau)
    return [window[i - j + degree] if j - degree <= i <= j else 0
            for i in range(first, last + 1)]


def basis(kv: KnotVector, i: int, degree: int, tau):
    """Value of the degree-k basis function B_{i,k} at tau, O(k^2)."""
    return basis_values(kv, i, i, degree, tau)[0]


def cumulative_basis(kv: KnotVector, i: int, degree: int, tau):
    """Suffix sum of basis values from index i through the last defined index."""
    total = 0
    for value in basis_values(kv, i, len(kv.values) - degree - 2, degree, tau):
        total += value
    return total
