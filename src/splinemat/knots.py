"""Knot vectors, span lookup, and span-local parameter normalisation."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Sequence, Union

from .errors import DegenerateSpan, DomainError, InvalidKnots

Scalar = Union[int, float, Fraction]


class KnotVector:
    """Non-decreasing sequence of parameter values defining the spans.

    Values are stored either exactly (ints and Fractions, tagged
    ``"rational"``) or as floats (tagged ``"float"``).  Exact storage is
    required for exact basis-matrix construction; float storage is fine
    for plain evaluation.  ``is_uniform`` holds for rational storage with
    equal positive differences, never for float storage: float knots
    that look evenly spaced need not give equal span matrices.
    Instances are immutable and safe to share.
    What is derived from the knots alone is kept with them (``_derived``).
    """

    __slots__ = ("values", "storage", "is_uniform", "_memo")

    def __init__(self, values: Sequence[Scalar]):
        vals = tuple(values)
        if len(vals) < 2:
            raise InvalidKnots("need at least 2 knots, got %d" % len(vals))
        if any(isinstance(v, float) for v in vals):
            storage = "float"
            try:
                vals = tuple(float(v) for v in vals)
            except OverflowError:
                raise InvalidKnots("knot values are beyond the float range") from None
            if not all(math.isfinite(v) for v in vals):
                raise InvalidKnots("knots must be finite")
            # Span widths are taken in floats: the knot range must be a finite double too.
            if vals[-1] - vals[0] == math.inf:
                raise InvalidKnots("knot range [%r, %r] is beyond the float range"
                                   % (vals[0], vals[-1]))
        else:
            storage = "rational"
            vals = tuple(Fraction(v) for v in vals)
        for a, b in zip(vals, vals[1:]):
            if not a <= b:
                raise InvalidKnots("knots must be non-decreasing: %r > %r" % (a, b))
        step = vals[1] - vals[0]
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "storage", storage)
        object.__setattr__(self, "is_uniform", storage == "rational" and step > 0
                           and all(b - a == step for a, b in zip(vals, vals[1:])))
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("KnotVector is immutable")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, KnotVector) and self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return "KnotVector(%r, storage=%r)" % (list(self.values), self.storage)

    def _derived(self, key: tuple, build, *args):
        """``build(*args)``, a value derived from these knots alone, built once and kept.

        Stored under ``key`` for the life of the vector, so every curve over
        it shares the value; an equal but distinct vector builds its own.
        Two racing threads may both build it, and both get the one stored.
        """
        value = self._memo.get(key)
        if value is None:
            value = self._memo.setdefault(key, build(*args))
        return value

    @classmethod
    def uniform(cls, count: int, start: Scalar = 0, step: Scalar = 1) -> "KnotVector":
        """Evenly spaced knots ``start + i*step`` for ``i < count``.

        Exact (rational) when ``start`` and ``step`` are ints or Fractions.
        """
        return cls([start + i * step for i in range(count)])

    def as_rational(self) -> "KnotVector":
        """Exact rational copy of this vector.

        Floats convert exactly (every finite double is a dyadic rational),
        so evaluation results are unchanged; this only switches the storage
        tag so exact construction is permitted.
        """
        if self.storage == "rational":
            return self
        return KnotVector([Fraction(v) for v in self.values])

    def as_float(self) -> "KnotVector":
        if self.storage == "float":
            return self
        try:
            return KnotVector([float(v) for v in self.values])
        except OverflowError:
            raise InvalidKnots("knot values are beyond the float range") from None

    def domain(self, degree: int) -> tuple:
        """Evaluable parameter range for a spline of the given degree."""
        m = len(self.values)
        if degree < 0 or m - degree - 1 <= degree:
            raise DomainError("no evaluable domain for degree %d with %d knots" % (degree, m))
        return self.values[degree], self.values[m - degree - 1]


def find_span(kv: KnotVector, degree: int, tau: Scalar) -> int:
    """``span_of`` for a tau in the evaluable domain [tau_degree, tau_{M-degree-1}].

    Raises DomainError when tau lies outside it, or it holds no span of
    positive width.
    """
    left, right = kv.domain(degree)
    if left >= right:
        raise DomainError("evaluable domain [%s, %s] is degenerate" % (left, right))
    if not left <= tau <= right:
        raise DomainError("tau outside evaluable domain: %s not in [%s, %s]" % (tau, left, right))
    return span_of(kv.values, degree, tau)


def span_of(values: tuple, degree: int, tau: Scalar) -> int:
    """Index j of the span with values[j] <= tau < values[j+1], for any tau.

    At the last knot, and at the right end of the evaluable domain,
    tau_{M-degree-1}, when it lies above tau_degree, j is the last span of
    positive width ending there: the last index whose knot is below tau.
    Below the first knot j is -1; above the last it is M-1.
    """
    if tau == values[-1] or tau == values[-degree - 1] and values[degree] < tau:
        return bisect_left(values, tau) - 1
    return bisect_right(values, tau) - 1


def normalize(kv: KnotVector, span: int, tau: Scalar) -> Scalar:
    """Map tau affinely onto [0, 1] over the span [tau_span, tau_{span+1}].

    Exact when both inputs are rational.  Raises DegenerateSpan for a
    zero-width span.
    """
    a, b = kv.values[span], kv.values[span + 1]
    if a == b:
        raise DegenerateSpan("span %d has zero width" % span)
    return (tau - a) / (b - a)
