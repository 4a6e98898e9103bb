"""Property test of knot scales at and beyond the ends of the float range.

Knot vectors are drawn with repeated knots, rational scales 10^-400 to
10^320 (with an offset of -1 or 1/3 or none) and float scales 1e-320 to
1e300, so that spans can be narrower than the smallest double, knots can
lie beyond the largest, and distinct knots can share one double.  Control
points reach magnitudes up to 1e308, where a span's coefficients can come
near the largest double.  Every path either raises DomainError or gives
finite values; derivatives may be +-inf beyond the float range but are
never NaN.  The scalar views give the batch's bytes, or its DomainError.
A fixed probe pins knots beyond the float range that are not integers.
"""

import math
import sys
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splinemat import DomainError, KnotVector, SplineCurve


@st.composite
def extreme_splines(draw):
    """``(degree, knots, points)`` of a curve at an extreme knot scale."""
    k = draw(st.integers(0, 4))
    gaps = draw(st.lists(st.integers(0, 3), min_size=2 * k + 1, max_size=2 * k + 5))
    steps = list(accumulate(gaps, initial=0))
    if draw(st.booleans()):
        scale = Fraction(10) ** draw(st.integers(-400, 320))
        offset = draw(st.sampled_from([0, -1, Fraction(1, 3)]))
        knots = [offset + scale * s for s in steps]
    else:
        scale = 10.0 ** draw(st.integers(-320, 300))
        knots = [scale * s for s in steps]
    seed = draw(st.integers(0, 2 ** 32 - 1))
    size = 10.0 ** draw(st.integers(1, 308))
    points = size * np.random.default_rng(seed).uniform(-1.0, 1.0, (len(knots) - k - 1, 2))
    return k, knots, points.tolist()


def nearest_double(v) -> float:
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def outcome(fn, *args):
    """``fn(*args)`` as an array, or None where it raises DomainError."""
    try:
        return np.asarray(fn(*args))
    except DomainError:
        return None


def result(fn, *args):
    """The bytes of ``fn(*args)``, or the message of the DomainError it raised."""
    try:
        return np.asarray(fn(*args)).tobytes()
    except DomainError as err:
        return "DomainError: %s" % err


def assert_finite(got):
    assert got is None or np.isfinite(got).all()


def assert_not_nan(got):
    assert got is None or not np.isnan(got).any()


TINY = Fraction(1, 10 ** 400)


@settings(max_examples=60, deadline=None)
@given(extreme_splines())
# one span narrower than the smallest double
@example((1, [0, 0, TINY, TINY], [[0.0], [1.0]]))
# widths that round to 0.0, under a slope that is a double
@example((2, [Fraction(i, 10 ** 330) for i in range(6)], [[0.0], [1e-300], [4e-300]]))
# a subnormal width, under a slope beyond the float range
@example((1, [Fraction(i, 5 * 10 ** 309) for i in range(4)], [[0.0], [1.0]]))
# points whose differences overflow, on evenly spaced knots
@example((3, list(range(10)), [[1.7e308 * (-1) ** i] for i in range(6)]))
def test_every_path_raises_domain_error_or_gives_finite_values(spline):
    k, knots, points = spline
    curve = SplineCurve(k, KnotVector(knots), points)
    doubles = [nearest_double(v) for v in knots]
    taus = sorted(set(doubles + [math.nextafter(f, -math.inf) for f in doubles]
                      + [math.nextafter(f, math.inf) for f in doubles]))
    lo, hi = curve.domain
    for tau in taus + [lo, hi, (lo + hi) / 2]:
        assert_finite(outcome(curve.evaluate, [tau]))
        assert_not_nan(outcome(curve.evaluate, [tau], 1))
        assert_finite(outcome(curve.eval_matrix, tau))
        assert_finite(outcome(curve.eval_cumulative, tau))
        assert_not_nan(outcome(curve.eval_derivative, tau, 1))
        assert_finite(outcome(curve.eval_coxdeboor, tau))
        assert_finite(outcome(curve._coxdeboor, [tau]))
        # the scalar bisect and the batch searchsorted take the same span
        assert result(curve.eval_matrix, tau) == result(lambda: curve.evaluate([tau])[0])
        assert (result(curve.eval_derivative, tau, 1)
                == result(lambda: curve.evaluate([tau], 1)[0]))
    assert_finite(outcome(curve.evaluate, taus))
    assert_finite(outcome(curve._coxdeboor, taus))
    assert_finite(outcome(lambda: np.array([p for _, p in curve.sample(5)])))


# a knot beyond the float range that is not an integer: its nearest double
# is infinite, so the side of it that the knot lies on is the infinity's
BEYOND = Fraction(2 * 10 ** 400 + 1, 2)


def test_non_integer_knots_beyond_the_float_range():
    curve = SplineCurve(1, KnotVector([0, 1, 2, 3, 4, BEYOND, BEYOND + 1]),
                        [[0.0], [1.0], [2.0], [3.0], [4.0]])
    assert curve.evaluate([1.5, 3.5]).tolist() == [[0.5], [2.5]]
    with pytest.raises(DomainError, match="width is outside the float range"):
        curve.evaluate([4.5])
    mirrored = SplineCurve(1, KnotVector([-BEYOND - 1, -BEYOND, 0, 1, 2, 3]),
                           [[0.0], [1.0], [2.0], [3.0]])
    assert mirrored._view.bounds[0] == -sys.float_info.max
