import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from splinemat import (DomainError, KnotVector, SplineCurve, basis, basis0, cumulative_basis,
                       find_span)
from splinemat.coxdeboor import basis_values, basis_window, float_windows
from splinemat.curve import _windows


def clamped(degree, interior, last):
    return KnotVector([0] * (degree + 1) + list(interior) + [last] * (degree + 1))


KV8 = KnotVector.uniform(8)
BEZIER = KnotVector([0, 0, 0, 0, 1, 1, 1, 1])
# the domain [0, 3] ends at a knot of multiplicity k + 1 = 3 that a larger knot follows
CLOSED_END = KnotVector([0, 0, 0, 1, 2, 3, 3, 3, 4])


class TestDegreeZero:
    def test_half_open_indicator(self):
        assert basis0(KV8, 3, 3.5) == 1
        assert basis0(KV8, 3, 4.5) == 0
        assert basis0(KV8, 3, 3.0) == 1
        assert basis0(KV8, 3, 4.0) == 0

    def test_zero_width_span_is_empty(self):
        assert basis0(KnotVector([0, 0, 1]), 0, 0.0) == 0

    def test_closed_only_at_last_knot(self):
        assert basis0(KV8, 6, 7.0) == 1
        assert basis0(BEZIER, 3, 1.0) == 1
        assert basis0(BEZIER, 4, 1.0) == 0

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            basis0(KV8, 7, 3.0)
        with pytest.raises(IndexError):
            basis0(KV8, -1, 3.0)


class TestBasis:
    def test_cubic_values_at_knot(self):
        row = [basis(KV8, i, 3, Fraction(3)) for i in range(4)]
        assert row == [Fraction(1, 6), Fraction(4, 6), Fraction(1, 6), 0]

    def test_cubic_values_at_midspan(self):
        row = [basis(KV8, i, 3, Fraction(7, 2)) for i in range(4)]
        assert row == [Fraction(1, 48), Fraction(23, 48), Fraction(23, 48), Fraction(1, 48)]

    def test_bezier_reduces_to_bernstein(self):
        # clamped cubic at u: (1-u)^3, 3u(1-u)^2, 3u^2(1-u), u^3
        u = Fraction(1, 2)
        assert basis(BEZIER, 0, 3, u) == Fraction(1, 8)
        assert basis(BEZIER, 1, 3, u) == Fraction(3, 8)
        assert basis(BEZIER, 2, 3, u) == Fraction(3, 8)
        assert basis(BEZIER, 3, 3, u) == Fraction(1, 8)

    def test_float_mode_matches_exact(self):
        for i in range(4):
            exact = basis(KV8, i, 3, Fraction(7, 2))
            assert abs(basis(KV8, i, 3, 3.5) - float(exact)) < 1e-15

    def test_rejects_non_finite_parameter(self):
        with pytest.raises(DomainError):
            basis(KV8, 0, 3, float("nan"))
        with pytest.raises(DomainError):
            basis(KV8, 0, 3, float("inf"))
        # NumPy floats of every width, not only float's subclass np.float64
        kv = KnotVector.uniform(12)
        for tau in (np.float64("nan"), np.float32("nan"), np.float32("inf"),
                    np.float16("nan"), np.float32("-inf")):
            with pytest.raises(DomainError, match="^tau must be finite, got "):
                basis(kv, 3, 3, tau)
            with pytest.raises(DomainError, match="^tau must be finite, got "):
                cumulative_basis(kv, 3, 3, tau)

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            basis(KV8, 4, 3, 3.0)
        with pytest.raises(ValueError):
            basis(KV8, 0, -1, 3.0)


class TestProperties:
    VECTORS = [
        KnotVector.uniform(12),
        clamped(3, [1, 2, 3], 4),
        KnotVector([0, 0, 1, 3, 3, 4, 7, 11, 11, 12]),
    ]

    def test_partition_of_unity_exact(self):
        for kv in self.VECTORS:
            m = len(kv.values)
            for k in range(0, 5):
                last = m - k - 2
                if last < 0 or kv.values[k] >= kv.values[m - k - 1]:
                    continue
                lo, hi = kv.values[k], kv.values[m - k - 1]
                for step in range(11):
                    tau = lo + (hi - lo) * Fraction(step, 10)
                    total = sum(basis(kv, i, k, tau) for i in range(last + 1))
                    assert total == 1, (kv, k, tau)

    def test_partition_of_unity_float(self):
        rng = random.Random(5)
        for kv in self.VECTORS:
            m = len(kv.values)
            for k in (1, 2, 3):
                lo, hi = (float(v) for v in (kv.values[k], kv.values[m - k - 1]))
                for _ in range(50):
                    tau = rng.uniform(lo, hi)
                    total = sum(basis(kv, i, k, tau) for i in range(m - k - 1))
                    assert abs(total - 1.0) <= 1e-12

    def test_nonnegative_and_local_support(self):
        rng = random.Random(6)
        for kv in self.VECTORS:
            m = len(kv.values)
            for k in (1, 2, 3):
                for i in range(m - k - 1):
                    for _ in range(25):
                        tau = rng.uniform(float(kv.values[0]), float(kv.values[-1]))
                        v = basis(kv, i, k, tau)
                        assert v >= 0
                        if not float(kv.values[i]) <= tau <= float(kv.values[i + k + 1]):
                            assert v == 0


class TestCumulative:
    def test_leading_suffix_is_one_on_supported_span(self):
        for tau in (3.0, 3.25, 3.75, 4.0):
            assert abs(cumulative_basis(KV8, 0, 3, tau) - 1.0) <= 1e-15

    def test_suffix_values_at_knot(self):
        assert cumulative_basis(KV8, 2, 3, Fraction(3)) == Fraction(1, 6)
        assert cumulative_basis(KV8, 3, 3, Fraction(3)) == 0

    def test_monotone_in_start_index(self):
        rng = random.Random(7)
        kv = KnotVector.uniform(12)
        for _ in range(40):
            tau = rng.uniform(3.0, 8.0)
            vals = [cumulative_basis(kv, i, 3, tau) for i in range(8)]
            assert all(a >= b >= 0 for a, b in zip(vals, vals[1:]))
            assert abs(vals[0] - 1.0) <= 1e-12

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            cumulative_basis(KV8, 4, 3, 3.0)


def random_knots(rng, degree):
    """Knots with repeats up to degree + 2, as ints, sevenths or floats."""
    q = rng.choice([1, 7])
    breaks = sorted(rng.sample(range(-40, 40), rng.randint(2, degree + 3)))
    values = [Fraction(b, q) for b in breaks for _ in range(rng.choice([1, 1, 2, degree + 1, degree + 2]))]
    if rng.random() < 0.4:
        values = [float(v) for v in values]
    return KnotVector(values)


class TestSharedTriangle:
    @pytest.mark.parametrize("degree", range(9))
    def test_entries_equal_one_table_per_function(self, degree):
        rng = random.Random(40 + degree)
        # a domain ending at a knot of multiplicity k + 1 that a larger knot follows
        closed = KnotVector([0] * (degree + 1) + [1, 2] + [3] * (degree + 1) + [4])
        for kv in [random_knots(rng, degree) for _ in range(5)] + [closed, closed.as_float()]:
            m = len(kv.values)
            last = m - degree - 2
            if last < 0:
                continue
            # every knot, the domain ends among them, exactly and as a float
            taus = [t for v in sorted(set(kv.values)) for t in (Fraction(v), float(v))]
            taus.append(Fraction(kv.values[degree] + kv.values[m - degree - 1]) / 2 + Fraction(1, 3))
            for tau in taus:
                row = basis_values(kv, 0, last, degree, tau)
                assert len(row) == last + 1
                for i, value in enumerate(row):
                    want = basis(kv, i, degree, tau)
                    assert value == want and type(value) is type(want), (kv, degree, tau, i)
                for i in (0, last // 2, last):
                    total = 0
                    for value in basis_values(kv, i, last, degree, tau):
                        total += value
                    got = cumulative_basis(kv, i, degree, tau)
                    assert got == total and type(got) is type(total)

    def test_index_window_is_checked(self):
        with pytest.raises(IndexError):
            basis_values(KV8, 0, 4, 3, 3.0)
        with pytest.raises(IndexError):
            basis_values(KV8, 2, 1, 3, 3.0)

    def test_table_overflows_as_python_floats(self):
        # the subnormal first span would make (tau - 0) / 5e-324 overflow
        # where B_0 vanishes; its term is dropped for its zero value, so
        # no inf * 0 = nan is computed
        kv = KnotVector([0.0, 5e-324, 1.0, 2.0, 3.0])
        assert basis_values(kv, 0, 2, 1, 0.5) == [0.5, 0.5, 0]
        assert basis_values(kv, 0, 2, 1, 1.5) == [0, 0.5, 0.5]


class TestDomainEnd:
    def test_closed_end_takes_the_span_from_the_left(self):
        for tau in (Fraction(3), 3.0):
            assert basis_values(CLOSED_END, 0, 5, 2, tau) == [0, 0, 0, 0, 1, 0]
            assert cumulative_basis(CLOSED_END, 5, 2, tau) == 0
            assert cumulative_basis(CLOSED_END, 0, 2, tau) == 1
        # inside the domain and at its left end nothing changes
        assert basis_values(CLOSED_END, 0, 5, 2, Fraction(5, 2)) == [
            0, 0, Fraction(1, 8), Fraction(5, 8), Fraction(1, 4), 0]
        assert basis(CLOSED_END, 0, 2, 0.0) == 1.0


@st.composite
def knots_and_taus(draw):
    """A degree, knots with repeats and parameters all around them.

    Knots are integers, thirds or tenths (the last two not doubles), stored
    exactly or as floats.  Parameters are every knot, exactly and as a
    float, the doubles next to it, and random floats and fractions in
    [floor(tau_0) - 1, ceil(tau_{M-1}) + 1], inside and outside the degree's domain.
    """
    degree = draw(st.integers(0, 8))
    q = draw(st.sampled_from([1, 3, 10]))
    breaks = sorted(set(draw(st.lists(st.integers(-30, 30), min_size=1, max_size=6))))
    values = [Fraction(b, q) for b in breaks for _ in range(draw(st.integers(1, degree + 2)))]
    assume(len(values) >= degree + 2)
    if draw(st.booleans()):
        values = [float(v) for v in values]
    kv = KnotVector(values)
    taus = []
    for v in sorted(set(kv.values)):
        f = float(v)
        taus += [Fraction(v), f, math.nextafter(f, -math.inf), math.nextafter(f, math.inf)]
    lo, hi = math.floor(kv.values[0]) - 1, math.ceil(kv.values[-1]) + 1
    taus += draw(st.lists(st.floats(lo, hi), max_size=10))
    taus += draw(st.lists(st.fractions(lo, hi, max_denominator=30), max_size=3))
    return kv, degree, taus


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(knots_and_taus())
def test_window_span_is_the_indicator_span(case):
    # the window's span is where the whole-range degree-0 row is 1, or the
    # span find_span takes at the right end of the domain
    kv, degree, taus = case
    vals = kv.values
    m, end = len(vals), len(vals) - degree - 1
    for tau in taus:
        j, window = basis_window(kv, 0, m - degree - 2, degree, tau)
        assert len(window) == degree + 1
        if tau == vals[end] < vals[-1] and vals[degree] < vals[end]:
            assert j == find_span(kv, degree, tau)
        else:
            row = [basis0(kv, s, tau) for s in range(m - 1)]
            if 1 in row:
                assert row.count(1) == 1 and j == row.index(1), (kv, degree, tau)
            else:
                assert window == [0] * (degree + 1)
        # an index that is no degree-k basis function reads 0
        assert all(value == 0 for c, value in enumerate(window)
                   if not 0 <= j - degree + c <= m - degree - 2)
        assert all(value >= 0 for value in window)
        if vals[degree] <= tau <= vals[end] and vals[degree] < vals[end]:
            total = sum(window)
            if kv.storage == "rational" and not isinstance(tau, float):
                assert total == 1
            else:
                assert abs(total - 1) <= 1e-12


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(knots_and_taus())
def test_float_batch_equals_the_scalar_windows(case):
    # the batch oracle's spans and weight bits are basis_window's, and it
    # reads no knot outside tau_{j-k+1} .. tau_{j+k}
    kv, degree, taus = case
    assume(len(kv.values) >= 2 * degree + 2)
    points = np.zeros((len(kv.values) - degree - 1, 1))
    fk = SplineCurve(degree, kv, points)._view
    assume(fk.exact and fk.last >= 0)  # float knots, a domain
    taus = np.array([t for t in taus if isinstance(t, float) and fk.lo <= t <= fk.hi])
    assume(len(taus) >= 2)
    last, doubles = len(kv.values) - degree - 2, KnotVector(fk.values.tolist())
    with np.errstate(all="raise"):
        spans, weights = _windows(fk, kv, degree, taus)
        for r, tau in enumerate(taus.tolist()):
            j, window = basis_window(doubles, 0, last, degree, tau)
            assert spans[r] == j
            assert weights[r].tobytes() == np.array(window, dtype=float).tobytes(), (kv, tau)
            window_only = np.full(len(kv.values), np.nan)
            window_only[j - degree + 1:j + degree + 1] = fk.values[j - degree + 1:j + degree + 1]
            alone = float_windows(window_only, degree, spans[r:r + 1], taus[r:r + 1])
            assert alone.tobytes() == weights[r].tobytes()


@pytest.mark.parametrize("end", [False, True], ids=["inside", "at_end"])
@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["plus", "minus"])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_float_batch_keeps_the_scalar_signed_zeros(degree, zero, end):
    # a zero knot inside the domain or at its right end: tau = -0.0 over a
    # +0.0 knot, or +0.0 under a -0.0 one, makes a knot difference -0.0;
    # basis_window's weights there are +0.0, and so are the batch's
    values = ([-5.0, -4.0, -3.0, -2.0, -1.0, zero] + [1.0] * degree if end
              else [-3.0, -2.0, -1.0, zero, 1.0, 2.0, 3.0, 4.0])
    kv = KnotVector(values)
    fk = SplineCurve(degree, kv, np.zeros((len(values) - degree - 1, 1)))._view
    assert math.copysign(1.0, fk.hi if end else kv.values[3]) == math.copysign(1.0, zero)
    taus = np.array([-0.0, 0.0])
    last = len(values) - degree - 2
    windows = [basis_window(kv, 0, last, degree, tau) for tau in taus.tolist()]
    spans = np.array([j for j, _ in windows])
    want = np.array([window for _, window in windows], dtype=float)
    got = float_windows(np.array(kv.values), degree, spans, taus)
    assert got.tobytes() == want.tobytes()
    got_spans, weights = _windows(fk, kv, degree, taus)
    assert np.array_equal(got_spans, spans) and weights.tobytes() == want.tobytes()
