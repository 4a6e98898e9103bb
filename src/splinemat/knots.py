"""Knot vectors, span lookup, and span-local parameter normalisation."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from numbers import Rational, Real
from typing import Sequence, Union

from .errors import DegenerateSpan, DomainError, InvalidKnots

Scalar = Union[int, float, Fraction]


class KnotVector:
    """Non-decreasing sequence of parameter values defining the spans.

    Values are stored as floats (tagged ``"float"``) if any is a real
    number that is not rational, such as a float or a NumPy float, else
    exactly, as Fractions of Python ints (tagged ``"rational"``).  Exact
    storage is required for exact basis-matrix construction; float storage
    is fine for plain evaluation.  ``is_uniform`` holds for rational storage with
    equal positive differences, never for float storage: float knots
    that look evenly spaced need not give equal span matrices.
    On rational storage the order and spacing tests run in ints, pair by
    pair, on each knot's numerator and denominator: O(M) products of a
    few knots' numbers, never a common denominator of all the knots, and
    no Fraction arithmetic.
    Instances are immutable and safe to share.
    What is derived from the knots alone is kept with them (``_derived``).
    """

    __slots__ = ("values", "storage", "is_uniform", "_memo")

    def __init__(self, values: Sequence[Scalar]):
        vals = tuple(values)
        if len(vals) < 2:
            raise InvalidKnots("need at least 2 knots, got %d" % len(vals))
        if any(t is float or t is not int and t is not Fraction and issubclass(t, Real)
               and not issubclass(t, Rational) for t in map(type, vals)):  # ABC tests last
            storage = "float"
            try:
                vals = tuple(map(float, vals))
            except OverflowError:
                raise InvalidKnots("knot values are beyond the float range") from None
            if not all(map(math.isfinite, vals)):
                raise InvalidKnots("knots must be finite")
            # Span widths are taken in floats: the knot range must be a finite double too.
            if vals[-1] - vals[0] == math.inf:
                raise InvalidKnots("knot range [%r, %r] is beyond the float range"
                                   % (vals[0], vals[-1]))
            for a, b in zip(vals, vals[1:]):
                if not a <= b:
                    raise InvalidKnots("knots must be non-decreasing: %r > %r" % (a, b))
            uniform = False
        else:
            storage = "rational"
            exotic = not set(map(type, vals)) <= {int, Fraction}  # NumPy ints, strings, ...
            vals = tuple(v if type(v) is Fraction else Fraction(v) for v in vals)
            if exotic:  # a NumPy int's Fraction holds NumPy ints
                vals = tuple(Fraction(*map(int, v.as_integer_ratio())) for v in vals)
            # In ints, pair by pair: knot i is n_i / d_i, and gap i, n_{i+1} d_i - n_i d_{i+1},
            # is the width of span i times d_i d_{i+1} > 0.  No common denominator:
            # the lcm of many distinct ones would grow without bound.
            nums = [v.numerator for v in vals]
            dens = [v.denominator for v in vals]
            gaps = [nb * da - na * db for na, da, nb, db in zip(nums, dens, nums[1:], dens[1:])]
            if min(gaps) < 0:
                i = next(i for i, gap in enumerate(gaps) if gap < 0)
                raise InvalidKnots("knots must be non-decreasing: %s > %s"
                                   % (vals[i], vals[i + 1]))
            first, scale = gaps[0], dens[0] * dens[1]
            uniform = first > 0 and all(gap * scale == first * da * db
                                        for gap, da, db in zip(gaps, dens, dens[1:]))
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "storage", storage)
        object.__setattr__(self, "is_uniform", uniform)
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

        Exact (rational) when ``start`` and ``step`` are ints or Fractions:
        then the numerators are built in ints over the least common
        denominator of ``start`` and ``step``.  A float start or step gives
        float knots, each ``start + i*step`` in floats.
        """
        if not (isinstance(start, Rational) and isinstance(step, Rational)):
            return cls([start + i * step for i in range(count)])
        start, step = Fraction(start), Fraction(step)
        den = math.lcm(start.denominator, step.denominator)
        first = start.numerator * (den // start.denominator)
        gap = step.numerator * (den // step.denominator)
        nums = [first + i * gap for i in range(count)]
        # ints when den == 1: Fraction(n) is cheaper than Fraction(n, 1)
        return cls(nums if den == 1 else [Fraction(n, den) for n in nums])

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

    Exact when both inputs are rational.  Raises IndexError for a span
    outside 0..M-2 and DegenerateSpan for a zero-width span.
    """
    if not 0 <= span <= len(kv.values) - 2:
        raise IndexError("span %d out of range for %d knots" % (span, len(kv.values)))
    a, b = kv.values[span], kv.values[span + 1]
    if a == b:
        raise DegenerateSpan("span %d has zero width" % span)
    return (tau - a) / (b - a)
