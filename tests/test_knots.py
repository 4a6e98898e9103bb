import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinemat import (
    DegenerateSpan,
    DomainError,
    InvalidKnots,
    KnotVector,
    SplineCurve,
    find_span,
    normalize,
)


def clamped(degree, interior, last):
    return KnotVector([0] * (degree + 1) + list(interior) + [last] * (degree + 1))


class TestKnotVector:
    def test_rejects_short_and_decreasing(self):
        with pytest.raises(InvalidKnots):
            KnotVector([1])
        # exact knots print as written, float knots by their repr
        with pytest.raises(InvalidKnots, match=r"^knots must be non-decreasing: 2 > 1$"):
            KnotVector([0, 2, 1])
        with pytest.raises(InvalidKnots, match=r"^knots must be non-decreasing: 1/3 > -1/2$"):
            KnotVector([Fraction(1, 3), Fraction(-1, 2)])
        with pytest.raises(InvalidKnots, match=r"^knots must be non-decreasing: 2\.5 > 1\.0$"):
            KnotVector([0.0, 2.5, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidKnots):
            KnotVector([0.0, float("nan"), 1.0])
        with pytest.raises(InvalidKnots):
            KnotVector([0.0, float("inf")])

    # both were taken for evenly spaced with an infinite spacing
    @pytest.mark.parametrize("values", [[-1e308, -1e308, 0.0, 1.0, 1e308, 1e308],
                                        [-1e308, -1e308, 0.0, 1e308, 1e308, 1e308]])
    def test_rejects_float_range_beyond_doubles(self, values):
        with pytest.raises(InvalidKnots, match="beyond the float range"):
            KnotVector(values)
        halved = KnotVector([v / 2 for v in values])
        assert halved.storage == "float" and not halved.is_uniform

    # one float makes the storage float; the integer then has no double
    @pytest.mark.parametrize("values", [[0, 0.5, 10 ** 400], [-(10 ** 400), 0.5, 1],
                                        [0.0, Fraction(10 ** 400, 3)]])
    def test_mixed_float_and_huge_exact_knots_raise_invalid_knots(self, values):
        with pytest.raises(InvalidKnots, match="beyond the float range"):
            KnotVector(values)

    def test_as_float_beyond_float_range_raises_invalid_knots(self):
        with pytest.raises(InvalidKnots, match="beyond the float range"):
            KnotVector([0, 10 ** 400]).as_float()
        assert KnotVector([0, 10 ** 300]).as_float().values == (0.0, 1e300)

    def test_storage_tagging(self):
        assert KnotVector([0, 1, 2]).storage == "rational"
        assert KnotVector([Fraction(1, 3), 1]).storage == "rational"
        assert KnotVector([0.0, 1, 2]).storage == "float"

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_numpy_float_knots_are_stored_as_their_doubles(self, dtype):
        rng = np.random.default_rng(5)
        knots = np.cumsum(rng.uniform(0.1, 3.0, 12)).astype(dtype)
        doubles = knots.astype(float).tolist()
        kv = KnotVector(knots)
        assert kv.storage == "float" and kv.values == tuple(doubles)
        points = rng.normal(size=(len(doubles) - 4, 2))
        got, want = SplineCurve(3, kv, points), SplineCurve(3, KnotVector(doubles), points)
        taus = np.linspace(doubles[3], doubles[-4], 25)
        for path in (lambda c: c.evaluate(taus), lambda c: c.evaluate(taus, 2),
                     lambda c: c.eval_matrix(taus[7]), lambda c: c._coxdeboor(taus)):
            assert path(got).tobytes() == path(want).tobytes()

    def test_numpy_ints_and_strings_stay_rational(self):
        kv = KnotVector(np.arange(-3, 9))
        assert kv.storage == "rational" and kv.is_uniform
        assert kv.values == KnotVector(range(-3, 9)).values
        assert all(type(v.numerator) is int for v in kv.values)
        assert KnotVector(["1/3", 1, 2]).values == (Fraction(1, 3), 1, 2)
        assert KnotVector(["1/3", 1, 2]).storage == "rational"
        # a curve over NumPy ints is the curve over Python ints, bit for bit
        points = np.random.default_rng(6).normal(size=(9, 2))
        taus = np.linspace(-1.0, 6.0, 25)
        got = SplineCurve(2, kv, points).evaluate(taus)
        want = SplineCurve(2, KnotVector(range(-3, 9)), points).evaluate(taus)
        assert got.tobytes() == want.tobytes()

    def test_uniform_flag_exact(self):
        kv = KnotVector.uniform(8)
        assert kv.is_uniform
        assert not KnotVector([0, 1, 3]).is_uniform
        # repeated knots are not uniform spacing
        assert not KnotVector([0, 0, 1, 1]).is_uniform

    def test_float_knots_are_never_uniform(self):
        # 0.1 * i carries binary noise; 0.5 * i is exactly evenly spaced
        for step in (0.1, 0.5):
            kv = KnotVector([step * i for i in range(8)])
            assert kv.storage == "float" and not kv.is_uniform
            assert kv.as_rational().is_uniform == (step == 0.5)
        assert not KnotVector([0.0, 1.0, 2.5]).is_uniform

    def test_as_rational_is_exact(self):
        kv = KnotVector([0.1, 0.2, 0.4]).as_rational()
        assert kv.storage == "rational"
        assert [float(v) for v in kv.values] == [0.1, 0.2, 0.4]

    def test_immutable(self):
        kv = KnotVector([0, 1])
        with pytest.raises(AttributeError):
            kv.values = (0, 2)


def reference_knots(values):
    """``KnotVector``'s checks in plain Fraction (or float) arithmetic: (values, storage, is_uniform)."""
    vals = tuple(values)
    if len(vals) < 2:
        raise InvalidKnots("need at least 2 knots, got %d" % len(vals))
    if any(isinstance(v, float) for v in vals):
        storage, vals, show = "float", tuple(float(v) for v in vals), repr
        if not all(math.isfinite(v) for v in vals):
            raise InvalidKnots("knots must be finite")
        if vals[-1] - vals[0] == math.inf:
            raise InvalidKnots("knot range [%r, %r] is beyond the float range" % (vals[0], vals[-1]))
    else:
        storage, vals, show = "rational", tuple(Fraction(v) for v in vals), str
    for a, b in zip(vals, vals[1:]):
        if not a <= b:
            raise InvalidKnots("knots must be non-decreasing: %s > %s" % (show(a), show(b)))
    step = vals[1] - vals[0]
    return vals, storage, (storage == "rational" and step > 0
                           and all(b - a == step for a, b in zip(vals, vals[1:])))


def knot_outcome(build, *args):
    """(typed values, storage, is_uniform) of ``build(*args)``, or its InvalidKnots' message.

    Each value is paired with its type, and a float is taken by its hex form,
    so that equal outcomes hold the same numbers bit for bit.
    """
    try:
        kv = build(*args)
    except InvalidKnots as err:
        return str(err)
    if isinstance(kv, KnotVector):
        kv = kv.values, kv.storage, kv.is_uniform
    values, storage, uniform = kv
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in values], storage, uniform


exact = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 30, 10 ** 30),
                  st.fractions(-1000, 1000, max_denominator=60))


@st.composite
def exact_knot_lists(draw):
    """Int/Fraction knots: sorted, with repeats, with a swapped pair, evenly spaced, or nudged."""
    shape = draw(st.sampled_from(["sorted", "repeats", "swapped", "even", "nudged"]))
    if shape in ("even", "nudged"):
        start, step = draw(exact), draw(exact)
        values = [start + i * step for i in range(draw(st.integers(2, 12)))]
        if shape == "nudged":
            i = draw(st.integers(0, len(values) - 1))
            values[i] += draw(st.fractions(-1, 1, max_denominator=7).filter(bool))
        return values
    values = sorted(draw(st.lists(exact, min_size=0, max_size=12)))
    if shape == "repeats" and values:
        i = draw(st.integers(0, len(values) - 1))
        values[i:i] = [values[i]] * draw(st.integers(1, 3))
    if shape == "swapped" and len(values) > 1:
        i = draw(st.integers(0, len(values) - 2))
        values[i], values[i + 1] = values[i + 1], values[i]
    return values


class TestIntegerChecks:
    """The order and spacing tests in ints equal the same tests in Fraction arithmetic."""

    @settings(max_examples=400, deadline=None)
    @given(exact_knot_lists())
    def test_checks_equal_fraction_arithmetic(self, values):
        assert knot_outcome(KnotVector, values) == knot_outcome(reference_knots, values)

    @settings(max_examples=300, deadline=None)
    @given(count=st.integers(0, 12),
           start=st.one_of(exact, st.floats(-1e6, 1e6)),
           step=st.one_of(exact, st.floats(-1e3, 1e3)))
    def test_uniform_is_start_plus_i_step(self, count, start, step):
        listed = [start + i * step for i in range(count)]
        assert knot_outcome(KnotVector.uniform, count, start, step) == \
            knot_outcome(reference_knots, listed)

    def test_allocation_stays_proportional_to_the_knots(self):
        # 2,000 increasing knots i + 1/p_i, each over its own prime: their
        # least common denominator has 24,856 bits, so numerators over it
        # would take ~6 MB, against ~220 kB for the knots themselves
        sieve = [True] * 20_000
        for p in range(2, 142):
            if sieve[p]:
                sieve[p * p::p] = [False] * len(range(p * p, 20_000, p))
        primes = [p for p in range(2, 20_000) if sieve[p]][:2000]
        knots = [Fraction(i * p + 1, p) for i, p in enumerate(primes)]
        own = sys.getsizeof(knots) + sum(sys.getsizeof(v) + sys.getsizeof(v.numerator)
                                         + sys.getsizeof(v.denominator) for v in knots)
        tracemalloc.start()
        try:
            kv = KnotVector(knots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(kv) == 2000 and not kv.is_uniform
        assert peak < 2 * own, (peak, own)


class TestFindSpan:
    def test_interior_point(self):
        kv = KnotVector.uniform(8)
        assert find_span(kv, 3, 3.5) == 3

    def test_right_end_clamps_to_last_span(self):
        kv = KnotVector.uniform(8)
        assert find_span(kv, 3, 4.0) == 3

    def test_clamped_vector_single_span(self):
        kv = KnotVector([0, 0, 0, 0, 1, 1, 1, 1])
        assert find_span(kv, 3, 0.5) == 3
        assert find_span(kv, 3, 0.0) == 3
        assert find_span(kv, 3, 1.0) == 3

    def test_multi_span_and_knot_ties(self):
        kv = KnotVector.uniform(12)
        for j in range(3, 8):
            assert find_span(kv, 3, j + 0.5) == j
            assert find_span(kv, 3, float(j)) == j
        assert find_span(kv, 3, 8.0) == 7

    def test_skips_zero_width_spans(self):
        kv = KnotVector([0, 1, 2, 2, 3, 4])
        assert find_span(kv, 1, 2.0) == 3
        # right-end clamp also lands on a span of positive width
        kvr = KnotVector([0, 1, 2, 3, 3, 4])
        assert find_span(kvr, 1, 3.0) == 2

    def test_outside_domain(self):
        kv = KnotVector.uniform(8)
        with pytest.raises(DomainError):
            find_span(kv, 3, 2.9)
        with pytest.raises(DomainError):
            find_span(kv, 3, 4.1)
        with pytest.raises(DomainError):
            find_span(kv, 3, float("nan"))

    def test_degenerate_domain(self):
        with pytest.raises(DomainError):
            find_span(KnotVector([0, 0, 0, 0]), 1, 0.0)

    def test_too_few_knots_for_the_degree(self):
        with pytest.raises(DomainError, match="^no evaluable domain for degree 1 with 3 knots$"):
            find_span(KnotVector([0, 1, 2]), 1, 0.5)


class TestNormalize:
    def test_examples(self):
        kv = KnotVector.uniform(8)
        assert normalize(kv, 3, 3.5) == 0.5
        assert normalize(kv, 3, 3.0) == 0.0
        ckv = KnotVector([0, 0, 0, 0, 1, 1, 1, 1])
        assert normalize(ckv, 3, 0.25) == 0.25

    def test_exact_for_rationals(self):
        kv = KnotVector([0, 2, 5])
        u = normalize(kv, 1, Fraction(3))
        assert u == Fraction(1, 3) and isinstance(u, Fraction)

    def test_degenerate_span(self):
        kv = KnotVector([0, 1, 1, 2])
        with pytest.raises(DegenerateSpan):
            normalize(kv, 1, 1.0)

    def test_rejects_a_span_outside_the_knots(self):
        # a negative span must not wrap round to the last knots
        kv = KnotVector.uniform(12)
        for span in (-1, -3, 11, 12):
            with pytest.raises(IndexError, match="^span %d out of range for 12 knots$" % span):
                normalize(kv, span, 5)
        assert normalize(kv, 0, 0) == 0 and normalize(kv, 10, 11) == 1

    def test_span_offset_is_continuous_and_piecewise_affine(self):
        # tau -> span + u rises affinely inside spans and matches across knots
        kv = KnotVector.uniform(12)
        for j in range(3, 8):
            for tau in (Fraction(j), Fraction(4 * j + 1, 4), Fraction(4 * j + 3, 4)):
                jj = find_span(kv, 3, tau)
                assert jj + normalize(kv, jj, tau) == tau
        assert normalize(kv, 5, Fraction(5)) == 0
