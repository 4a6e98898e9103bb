import random
from fractions import Fraction

import numpy as np
import pytest

from splinemat import DomainError, KnotVector, basis, basis0, cumulative_basis
from splinemat.coxdeboor import basis_table, basis_values


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


def assert_rows_equal_basis_values(kv, degree, taus):
    """``basis_table`` row i is ``basis_values`` at taus[i].

    Bit for bit when the table is float64, else in value and type.
    """
    last = len(kv.values) - degree - 2
    table = basis_table(kv, 0, last, degree, taus)
    assert table.shape == (len(taus), last + 1)
    floats = kv.storage == "float" and all(isinstance(t, float) for t in taus)
    assert table.dtype == (float if floats else object)
    for row, tau in zip(table, taus):
        want = basis_values(kv, 0, last, degree, tau)
        if floats:
            assert row.tobytes() == np.array(want, dtype=float).tobytes(), (kv, degree, tau)
        else:
            assert [(v, type(v)) for v in row] == [(v, type(v)) for v in want], (kv, degree, tau)


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
            for batch in (taus, [t for t in taus if isinstance(t, float)],
                          [t for t in taus if not isinstance(t, float)]):
                assert_rows_equal_basis_values(kv, degree, batch)
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
        with pytest.raises(IndexError):
            basis_table(KV8, 0, 4, 3, [3.0])

    def test_table_rejects_the_first_non_finite_parameter(self):
        with pytest.raises(DomainError, match="got inf"):
            basis_table(KV8, 0, 3, 3, [3.5, float("inf"), float("nan")])
        assert basis_table(KV8, 0, 3, 3, []).shape == (0, 4)

    def test_table_overflows_as_python_floats(self):
        # the subnormal first span would make (tau - 0) / 5e-324 overflow
        # where B_0 vanishes; both drop that term for its zero value, so
        # neither computes inf * 0 = nan, and the table warns of nothing
        kv = KnotVector([0.0, 5e-324, 1.0, 2.0, 3.0])
        assert_rows_equal_basis_values(kv, 1, [0.5, 1.5])


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
