import io
import math
import random
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splinemat import (
    MAX_DEGREE,
    BasisMatrix,
    DegenerateSpan,
    DomainError,
    KnotVector,
    SplineCurve,
    coxdeboor,
    cumulative_matrix,
    find_span,
    general_basis_matrix,
    uniform_basis_matrix,
)
from splinemat import cli
from splinemat import curve as curve_module
from splinemat.basismatrix import span_window, window_part
from splinemat.curve import _CHUNK
from splinemat.polytoeplitz import horner


def clamped(degree, interior, last):
    return KnotVector([0] * (degree + 1) + list(interior) + [last] * (degree + 1))


def relative_gap(a, b):
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def random_curve(rng, degree, dim, kind):
    if kind == "uniform":
        kv = KnotVector.uniform(2 * degree + 6)
    elif kind == "uniform-float":
        kv = KnotVector([0.5 * i for i in range(2 * degree + 6)])
    else:
        kv = clamped(degree, [1, 2, 3], 4)
    n = len(kv.values) - degree - 1
    pts = [[rng.uniform(-10.0, 10.0) for _ in range(dim)] for _ in range(n)]
    return SplineCurve(degree, kv, pts)


CUBIC = SplineCurve(3, KnotVector.uniform(8), [0, 1, 2, 3])


@pytest.fixture
def cold_windows():
    """An empty process-wide window cache, as in a fresh process."""
    uniform_basis_matrix.cache_clear()


class TestConstruction:
    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            SplineCurve(3, KnotVector.uniform(8), [0, 1, 2])
        with pytest.raises(ValueError):
            SplineCurve(3, KnotVector.uniform(7), [0, 1, 2])

    def test_rejects_non_finite_points(self):
        with pytest.raises(ValueError):
            SplineCurve(3, KnotVector.uniform(8), [0, 1, float("nan"), 3])

    def test_int_coordinate_beyond_float_range_is_a_value_error(self):
        for points in ([[10 ** 400], [1]], [10 ** 400, 1], [[1, -10 ** 400], [1, 2]]):
            with pytest.raises(ValueError, match="control points must be finite"):
                SplineCurve(1, KnotVector([0, 1, 2, 3]), points)

    def test_negative_degree(self):
        with pytest.raises(ValueError, match="^degree must be non-negative$"):
            SplineCurve(-1, KnotVector([0, 1, 2]), [[0]])

    def test_no_points_form_no_array(self):
        with pytest.raises(ValueError, match=r"^control points must form an \(N, d\) array$"):
            SplineCurve(1, KnotVector([0, 1, 2, 3]), [])

    def test_ragged_points_form_no_array(self):
        with pytest.raises(ValueError, match=r"^control points must form an \(N, d\) array$"):
            SplineCurve(1, KnotVector([0, 1, 2, 3, 4, 5]), [[0], [1, 2], [2], [3]])

    def test_one_dimensional_points_get_a_column(self):
        assert CUBIC.points.shape == (4, 1)
        assert CUBIC.dim == 1 and CUBIC.count == 4

    def test_points_are_read_only(self):
        with pytest.raises(ValueError):
            CUBIC.points[0] = 9.0

    def test_points_are_a_private_copy(self):
        base = np.arange(12.0)
        points = base.reshape(6, 2)
        curve = SplineCurve(2, KnotVector.uniform(9), points)
        assert points.flags.writeable  # the caller's array stays theirs
        assert curve.eval_matrix(3.5).tolist() == [4.0, 5.0]  # fills the matrix blocks
        base[:] = 0.0  # and changes no path
        got = [curve.eval_matrix(3.5), curve.eval_cumulative(4.5), curve.eval_coxdeboor(4.5),
               curve.evaluate([5.5])[0]]
        assert [row.tolist() for row in got] == [[4.0, 5.0], [6.0, 7.0], [6.0, 7.0], [8.0, 9.0]]

    @pytest.mark.parametrize("bad", [3.0, np.float64(3.0), 1.5, Fraction(3)],
                             ids=["float", "float64", "half", "fraction"])
    def test_a_degree_or_order_must_be_an_integer(self, bad):
        kv, points = KnotVector.uniform(12), np.arange(8.0)
        with pytest.raises(TypeError):
            SplineCurve(bad, kv, points)
        curve = SplineCurve(np.int64(3), kv, points)  # NumPy ints stay integers
        with pytest.raises(TypeError):
            curve.evaluate([5.5], derivative=bad)
        with pytest.raises(TypeError):
            curve.eval_derivative(5.5, bad)
        want = SplineCurve(3, kv, points)
        assert same_bits(curve.evaluate([5.5], np.int64(2)), want.evaluate([5.5], 2))
        assert same_bits(curve.eval_derivative(5.5, np.int64(1)), want.eval_derivative(5.5, 1))

    def test_curves_compare_and_hash_by_identity(self):
        twin = SplineCurve(3, KnotVector.uniform(8), [0, 1, 2, 3])
        assert CUBIC == CUBIC and CUBIC != twin and not CUBIC == twin
        assert {CUBIC, twin, CUBIC} == {CUBIC, twin} and len({CUBIC, twin}) == 2
        assert twin in {twin} and CUBIC not in {twin}


class TestEvaluationPaths:
    @pytest.mark.parametrize("tau,want", [(3.0, 1.0), (3.5, 1.5), (4.0, 2.0)])
    def test_known_cubic_values(self, tau, want):
        assert CUBIC.eval_coxdeboor(tau) == pytest.approx([want], abs=1e-12)
        assert CUBIC.eval_matrix(tau) == pytest.approx([want], abs=1e-12)
        assert CUBIC.eval_cumulative(tau) == pytest.approx([want], abs=1e-12)

    def test_constant_curve_reproduces_point(self):
        curve = SplineCurve(3, KnotVector.uniform(9), [[2.0, -1.0]] * 5)
        for tau in (3.0, 3.7, 4.9, 5.0):
            for path in (curve.eval_coxdeboor, curve.eval_matrix, curve.eval_cumulative):
                assert path(tau) == pytest.approx([2.0, -1.0], abs=1e-12)

    def test_outside_domain_rejected(self):
        for tau in (2.99, 4.01, float("nan")):
            with pytest.raises(DomainError):
                CUBIC.eval_matrix(tau)
            with pytest.raises(DomainError):
                CUBIC.eval_coxdeboor(tau)
            with pytest.raises(DomainError):
                CUBIC.eval_cumulative(tau)

    @pytest.mark.parametrize("storage", ["rational", "float"])
    def test_degenerate_domain_rejected_by_every_path(self, storage):
        kv = KnotVector([0, 0, 0, 1])
        curve = SplineCurve(1, kv if storage == "rational" else kv.as_float(), [[1.0], [2.0]])
        paths = (curve.eval_coxdeboor, curve.eval_matrix, curve.eval_cumulative,
                 lambda t: curve.evaluate([t]), lambda t: curve.eval_derivative(t, 1))
        for tau in (0, 0.0, Fraction(0), 1.0, -1):
            for path in paths:
                with pytest.raises(DomainError, match="is degenerate"):
                    path(tau)

    def test_span_narrower_than_a_double_is_rejected_by_every_path(self):
        # the one span is 10^-400 wide, which rounds to 0.0: a float tau in
        # it is located but cannot be normalised
        tiny = Fraction(1, 10 ** 400)
        curve = SplineCurve(1, KnotVector([0, 0, tiny, tiny]), [[0.0], [1.0]])
        paths = (curve.eval_coxdeboor, curve.eval_matrix, curve.eval_cumulative,
                 lambda t: curve.evaluate([t]), lambda t: curve.eval_derivative(t, 1))
        for path in paths:
            with pytest.raises(DomainError, match="float range"):
                path(0.0)
        with pytest.raises(DomainError, match="outside the float range"):
            curve.evaluate([Fraction(0)])
        with pytest.raises(DomainError, match="outside the float range"):
            curve.sample(5)

    def test_clamped_curve_interpolates_endpoints(self):
        curve = SplineCurve(3, clamped(3, [1, 2], 3), [[0, 0], [1, 2], [3, 1], [4, 4], [5, 0], [6, 3]])
        assert curve.eval_matrix(0.0) == pytest.approx([0.0, 0.0], abs=1e-12)
        assert curve.eval_matrix(3.0) == pytest.approx([6.0, 3.0], abs=1e-12)

    @pytest.mark.parametrize("storage", ["rational", "float"])
    def test_domain_end_before_a_larger_knot_takes_the_left_span(self, storage):
        # the end knot 3 has multiplicity k + 1 and the knot 4 follows: the
        # curve jumps there, and every path takes the value from the left
        kv = KnotVector([0, 0, 0, 1, 2, 3, 3, 3, 4])
        curve = SplineCurve(2, kv if storage == "rational" else kv.as_float(),
                            [[0], [1], [2], [3], [4], [5]])
        for tau in (3.0, Fraction(3)):
            for path in (curve.eval_coxdeboor, curve.eval_matrix, curve.eval_cumulative):
                assert path(tau).tolist() == [4.0]
            assert curve.evaluate([tau]).tolist() == [[4.0]]

    def test_agreement_random_sweep(self):
        rng = random.Random(101)
        worst = 0.0
        for degree in (1, 2, 3, 5):
            for dim in (1, 2, 3):
                for kind in ("uniform", "clamped", "uniform-float"):
                    curve = random_curve(rng, degree, dim, kind)
                    lo, hi = (float(v) for v in curve.domain)
                    for _ in range(8):
                        tau = rng.uniform(lo, hi)
                        a = curve.eval_coxdeboor(tau)
                        b = curve.eval_matrix(tau)
                        c = curve.eval_cumulative(tau)
                        worst = max(worst, relative_gap(a, b), relative_gap(a, c))
        assert worst <= 1e-10

    @pytest.mark.parametrize("kind", ["uniform", "uniform-float", "clamped"])
    def test_one_degree_rule_for_every_knot_kind(self, kind):
        # only load_spline and basis-matrix cap the degree; a curve evaluates
        # above MAX_DEGREE on every kind of knots
        degree = MAX_DEGREE + 1
        curve = random_curve(random.Random(31), degree, 2, kind)
        lo, hi = (float(v) for v in curve.domain)
        taus = np.linspace(lo, hi, 7).tolist()
        want = np.array([curve.eval_coxdeboor(t) for t in taus])
        assert relative_gap(curve.evaluate(taus), want) < 1e-12
        assert relative_gap(np.array([curve.eval_cumulative(t) for t in taus]), want) < 1e-12

    def test_non_uniform_rational_knots_agree_with_reference(self):
        kv = KnotVector([0, 0, 1, 3, 3, 4, 7, 11, 11, 12])
        rng = random.Random(3)
        for degree in (1, 2, 3):
            n = len(kv.values) - degree - 1
            pts = [[rng.uniform(-5, 5)] for _ in range(n)]
            curve = SplineCurve(degree, kv, pts)
            lo, hi = (float(v) for v in curve.domain)
            for _ in range(30):
                tau = rng.uniform(lo, hi)
                assert relative_gap(curve.eval_coxdeboor(tau), curve.eval_matrix(tau)) <= 1e-10


def fraction_reference(curve, tau):
    """The oracle's sum taken over the stored knots, in index order."""
    out = np.zeros(curve.dim)
    for i in range(curve.count):
        out += float(coxdeboor.basis(curve.knots, i, curve.degree, tau)) * curve.points[i]
    return out


class TestOracleKnots:
    @pytest.mark.parametrize("degree", range(1, 11))
    def test_float_copy_is_bit_identical_on_exact_knots(self, degree):
        rng = random.Random(700 + degree)
        count = 2 * degree + 6
        vectors = (
            KnotVector.uniform(count),
            clamped(degree, [1, 2, 3], 4),
            KnotVector(sorted(list(range(count - 2)) + [3, 3])),  # repeated interior knot
            KnotVector([Fraction(i * i - 7, 16) for i in range(count)]),  # dyadic
        )
        for kv in vectors:
            pts = [[rng.uniform(-10.0, 10.0) for _ in range(2)]
                   for _ in range(len(kv.values) - degree - 1)]
            curve = SplineCurve(degree, kv, pts)
            lo, hi = (float(v) for v in curve.domain)
            taus = [float(v) for v in kv.values if lo <= v <= hi]
            taus += [rng.uniform(lo, hi) for _ in range(10)]
            assert curve._view.exact
            for tau in taus:
                assert (curve.eval_coxdeboor(tau) == fraction_reference(curve, tau)).all()

    def test_knot_a_double_cannot_hold_keeps_the_fractions(self):
        third = Fraction(1, 3)
        curve = SplineCurve(1, KnotVector([-4, Fraction(-1, 4), third, 1, 3]),
                            [[-1.0], [-4.0], [4.0]])
        tau = float(third)
        got = curve.eval_coxdeboor(tau)
        assert (got == fraction_reference(curve, tau)).all()
        assert not curve._view.exact
        # float(1/3) lies left of the knot 1/3 but on the rounded knot itself,
        # so a float copy of these knots gives another last bit
        as_float = SplineCurve(1, curve.knots.as_float(), curve.points)
        assert (as_float.eval_coxdeboor(tau) != got).all()

    def test_knot_whose_double_rounds_up_keeps_the_fractions(self):
        tenth = Fraction(1, 10)
        curve = SplineCurve(1, KnotVector([0, tenth, Fraction(1, 2), Fraction(11, 10), 2]),
                            [[-1.0], [-4.0], [4.0]])
        tau = float(tenth)
        assert tau > tenth
        assert not curve._view.exact
        got = curve.eval_coxdeboor(tau)
        assert (got == fraction_reference(curve, tau)).all()
        assert (curve._coxdeboor([tau])[0] == got).all()
        assert got == pytest.approx(curve.eval_matrix(tau), abs=1e-15)

    def test_subnormal_width_span_gives_no_nan(self):
        # (tau - 0) / 5e-324 overflows where B_0 vanishes: the term is
        # dropped for its zero value, not computed as inf * 0
        curve = SplineCurve(1, KnotVector([0.0, 5e-324, 1.0, 2.0, 3.0]),
                            [[0.0], [1.0], [2.0]])
        for tau in (0.5, 1.5):
            want = curve.evaluate([tau])[0]
            assert want.tolist() == [tau]
            assert (curve.eval_coxdeboor(tau) == want).all()
            assert (curve._coxdeboor([tau])[0] == want).all()

    @pytest.mark.parametrize("knots, taus", [
        # at a domain end, 2^1023 - tau or tau + 2^1023 overflows in a term
        # whose lower-degree value is 0
        ([-2 ** 1023, -2 ** 1023, 0, 1, 2 ** 1023, 2 ** 1023], [-2.0 ** 1023, 2.0 ** 1023]),
        # tau + 10^400 is beyond the float range, in a term whose
        # lower-degree value is 0
        ([-10 ** 400, 0, 1, 10 ** 400], [0.0, 0.5, 1.0]),
    ])
    def test_vanishing_terms_next_to_huge_knots_are_dropped(self, knots, taus):
        curve = SplineCurve(1, KnotVector(knots),
                            [[float(i)] for i in range(len(knots) - 2)])
        for tau in taus:
            want = curve.evaluate([tau])[0]
            assert curve.eval_coxdeboor(tau) == pytest.approx(want, rel=1e-15)
            assert curve._coxdeboor([tau])[0] == pytest.approx(want, rel=1e-15)

    def test_knot_range_beyond_float_range_keeps_the_fractions(self):
        # every knot is a double, but their range overflows one: the float
        # batch cannot take their widths, so the oracle keeps the stored knots
        big = 2 ** 1023
        curve = SplineCurve(1, KnotVector([-big, -big, 0, 1, big, big]),
                            [[0.0], [1.0], [2.0], [3.0]])
        assert not curve._view.exact
        got = curve.eval_coxdeboor(0.5)
        assert (got == fraction_reference(curve, 0.5)).all()
        assert (got == curve.eval_matrix(0.5)).all() and got.tolist() == [1.5]

    def test_knot_differences_beyond_float_range_raise_domain_error(self):
        curve = SplineCurve(1, KnotVector([0, 0, 10 ** 400, 10 ** 400]), [[0.0], [1.0]])
        with pytest.raises(DomainError, match="beyond the float range"):
            curve.eval_coxdeboor(1.0)
        assert curve.eval_coxdeboor(Fraction(1)) == pytest.approx([0.0])
        # the batch raises the error of the first tau that fails
        with pytest.raises(DomainError, match="tau 1.0 needs knot differences"):
            curve._coxdeboor([Fraction(1), 1.0, -1])
        with pytest.raises(DomainError, match="tau 1.0 needs knot differences"):
            curve._coxdeboor([1.0, -1.0])
        assert curve._coxdeboor([Fraction(1)]).tolist() == [[0.0]]


def knot_kinds(k, rng):
    """The six knot kinds of ``tools/output_hashes.py``, nine spans in the domain."""
    count = 9 + 2 * k + 1
    gaps = rng.integers(0, 3, count - 1)
    gaps[k:count - k - 1] = np.maximum(gaps[k:count - k - 1], 1)
    gaps[k + 2] = 0
    return {"uniform": KnotVector.uniform(count),
            "clamped": KnotVector([0] * k + list(range(10)) + [9] * k),
            "float": KnotVector(np.cumsum(rng.uniform(0.25, 4.0, count)).tolist()),
            "repeated": KnotVector([0] + np.cumsum(gaps).tolist()),
            "squares": KnotVector([Fraction(i * i, 3) for i in range(count)]),
            "halves": KnotVector.uniform(count, start=-1.5, step=0.5)}


def scalar_oracle(curve, taus):
    """``_coxdeboor`` at float taus, one by one through ``basis_window``: (spans, weights, values).

    DomainError stands for the error the scalar routine raises.
    """
    fk, k, last = curve._view, curve.degree, curve.count - 1
    kv = KnotVector(fk.values.tolist()) if fk.exact else curve.knots
    spans, weights, values = [], [], []
    for tau in taus:
        try:
            j, window = coxdeboor.basis_window(kv, 0, last, k, tau)
        except ArithmeticError:
            return DomainError
        out = np.zeros(curve.dim)
        for c, w in enumerate(window):
            out += float(w) * curve.points[j - k + c]
        spans.append(j)
        weights.append(np.array(window, dtype=float))
        values.append(out)
    return np.array(spans), np.array(weights), np.array(values)


def domain_doubles(curve):
    """The doubles at both ends of the evaluable domain and on every knot inside it."""
    lo, hi = curve.domain
    taus = [curve._view.lo, curve._view.hi] + [float(v) for v in curve.knots.values]
    return [t for t in taus if lo <= t <= hi]


class TestBatchOracle:
    """The float batch of the recursion against the scalar routine, bit for bit."""

    def assert_same_as_scalar(self, curve, taus):
        want = scalar_oracle(curve, taus)
        if want is DomainError:
            with pytest.raises(DomainError, match="beyond the float range"):
                curve._coxdeboor(taus)
            return
        spans, weights = curve_module._windows(curve._view, curve.knots, curve.degree,
                                               np.array(taus))
        assert spans.tolist() == want[0].tolist()
        assert same_bits(np.ascontiguousarray(weights), want[1])
        assert same_bits(curve._coxdeboor(taus), want[2])

    @pytest.mark.parametrize("k", list(range(11)) + [20, 30])
    def test_every_knot_kind_at_the_ends_and_every_knot(self, k):
        rng = np.random.default_rng(60 + k)
        for name, kv in knot_kinds(k, rng).items():
            curve = SplineCurve(k, kv, rng.normal(0.0, 10.0, (len(kv.values) - k - 1, 3)))
            taus = domain_doubles(curve)
            taus += rng.uniform(curve._view.lo, curve._view.hi, 20).tolist()
            assert curve._view.exact == (name != "squares")
            with np.errstate(all="raise"):  # the batch is silent whatever the caller's setting
                self.assert_same_as_scalar(curve, taus)

    @pytest.mark.parametrize("k", range(1, 5))
    @pytest.mark.parametrize("scale", [Fraction(1, 10 ** 330), 1e-320, 1e300])
    def test_extreme_knot_scales(self, k, scale):
        # the scales of tests/test_float_range.py: no double but 0 lies in
        # the domain at 10^-330, where the scalar routine raises
        rng = np.random.default_rng(70 + k)
        gaps = [0] * k + rng.integers(1, 4, k + 5).tolist()
        kv = KnotVector([scale * s for s in accumulate(gaps, initial=0)])
        curve = SplineCurve(k, kv, rng.uniform(-1.0, 1.0, (len(kv.values) - k - 1, 2)))
        assert curve._view.exact == isinstance(scale, float)
        self.assert_same_as_scalar(curve, domain_doubles(curve))

    def test_knots_a_double_cannot_hold_and_exact_taus_take_the_scalar_routine(self,
                                                                                monkeypatch):
        calls = []
        batch = coxdeboor.float_windows
        monkeypatch.setattr(coxdeboor, "float_windows",
                            lambda *args: calls.append(args[1]) or batch(*args))
        squares = SplineCurve(2, KnotVector([Fraction(i * i, 3) for i in range(9)]),
                              np.arange(6.0)[:, None])
        squares._coxdeboor([3.5, 7.25])
        uniform = SplineCurve(2, KnotVector.uniform(9), np.arange(6.0)[:, None])
        uniform._coxdeboor([Fraction(7, 2), 4])
        assert calls == []
        uniform._coxdeboor([3.5, 4.0])
        assert calls == [2]

    def test_a_single_float_tau_takes_the_batch_routine(self, monkeypatch):
        calls = []
        batch = coxdeboor.float_windows
        monkeypatch.setattr(coxdeboor, "float_windows",
                            lambda *args: calls.append(args[1]) or batch(*args))
        rng = np.random.default_rng(75)
        curve = SplineCurve(6, KnotVector.uniform(19), rng.normal(size=(12, 2)))
        taus = domain_doubles(curve) + rng.uniform(6.0, 12.0, 10).tolist()
        pairs = [curve._coxdeboor([tau, tau])[0] for tau in taus]
        calls.clear()
        for tau, pair in zip(taus, pairs):
            assert same_bits(curve.eval_coxdeboor(tau), pair)
        assert calls == [6] * len(taus)  # one batch call per eval_coxdeboor

    @pytest.mark.parametrize("kv", [KnotVector.uniform(9),
                                    KnotVector([Fraction(i * i, 3) for i in range(9)])])
    def test_tau_outside_the_domain_raises_at_the_same_tau(self, kv):
        curve = SplineCurve(2, kv, np.arange(6.0)[:, None])
        lo, hi = curve._view.lo, curve._view.hi
        taus = [lo, (lo + hi) / 2, hi + 1.0, lo - 1.0]
        with pytest.raises(DomainError) as want:
            find_span(kv, 2, hi + 1.0)
        with pytest.raises(DomainError) as got:
            curve._coxdeboor(taus)
        assert str(got.value) == str(want.value)


class TestSharedKnotTables:
    def test_curves_over_one_vector_share_its_float_view(self):
        kv = clamped(3, [1, 2, 3], 4)
        first, second = (SplineCurve(3, kv, np.zeros((7, 2))) for _ in range(2))
        assert first._view is second._view
        assert SplineCurve(4, kv, np.zeros((6, 2)))._view is not first._view
        twin = clamped(3, [1, 2, 3], 4)
        assert twin == kv and SplineCurve(3, twin, np.zeros((7, 2)))._view is not first._view
        # the tables no curve may write
        assert not any(table.flags.writeable for table in
                       (first._view.values, first._view.bounds, first._view.widths))

    def test_each_knot_window_is_found_once_per_vector(self, monkeypatch):
        from splinemat import basismatrix

        calls = []
        find = basismatrix.knot_window
        monkeypatch.setattr(basismatrix, "knot_window",
                            lambda *args: calls.append(args[1:]) or find(*args))
        kv = clamped(3, [1, 2, 3], 4)
        for curve in (SplineCurve(3, kv, np.zeros((7, 2))) for _ in range(2)):
            curve.evaluate([0.5, 1.5, 2.5, 3.5])
            for j in range(3, 7):
                span_window(kv, 3, j)
                general_basis_matrix(kv, 3, j)
        assert sorted(calls) == [(3, j) for j in range(3, 7)]


class TestGeometricProperties:
    def test_convex_hull_1d(self):
        rng = random.Random(11)
        curve = random_curve(rng, 3, 1, "uniform")
        lo, hi = (float(v) for v in curve.domain)
        k = curve.degree
        for _ in range(100):
            tau = rng.uniform(lo, hi)
            j = find_span(curve.knots, k, tau)
            local = curve.points[j - k: j + 1, 0]
            v = curve.eval_matrix(tau)[0]
            assert local.min() - 1e-9 <= v <= local.max() + 1e-9

    def test_convex_hull_2d(self):
        scipy_spatial = pytest.importorskip("scipy.spatial")

        rng = random.Random(12)
        curve = random_curve(rng, 3, 2, "uniform")
        lo, hi = (float(v) for v in curve.domain)
        for _ in range(50):
            tau = rng.uniform(lo, hi)
            j = find_span(curve.knots, 3, tau)
            local = curve.points[j - 3: j + 1]
            hull = scipy_spatial.ConvexHull(local)
            p = curve.eval_matrix(tau)
            # every hull facet inequality holds up to slack
            slack = hull.equations[:, :2] @ p + hull.equations[:, 2]
            assert np.all(slack <= 1e-9)

    def test_linear_precision(self):
        # evenly indexed control points make the curve affine in tau
        for degree in (1, 2, 3, 5):
            n = degree + 5
            kv = KnotVector.uniform(n + degree + 1)
            curve = SplineCurve(degree, kv, list(range(n)))
            lo, hi = (float(v) for v in curve.domain)
            for tau in np.linspace(lo, hi, 37):
                want = tau - (degree + 1) / 2.0
                assert curve.eval_matrix(float(tau))[0] == pytest.approx(want, abs=1e-9)


class TestContinuity:
    def test_position_matches_across_interior_knots(self):
        rng = random.Random(21)
        for degree in (1, 2, 3, 5):
            curve = random_curve(rng, degree, 2, "uniform")
            k = curve.degree
            m = len(curve.knots.values)
            for j in range(k + 1, m - k - 1):
                left = curve._matrix_point(j - 1, 1.0)
                right = curve._matrix_point(j, 0.0)
                assert float(np.max(np.abs(left - right))) <= 1e-9

    def test_first_derivative_matches_central_differences(self):
        # wide spans keep the finite-difference bias far below tolerance
        rng = random.Random(22)
        h = 1e-5
        for degree in (2, 3, 5):
            kv = KnotVector([10 * i for i in range(2 * degree + 6)])
            n = len(kv.values) - degree - 1
            curve = SplineCurve(degree, kv, [[rng.random()] for _ in range(n)])
            m = len(kv.values)
            for j in range(degree + 1, m - degree - 1):
                knot = float(kv.values[j])
                fd = (curve.eval_matrix(knot + h) - curve.eval_matrix(knot - h)) / (2 * h)
                an = curve.eval_derivative(knot, 1)
                assert float(np.max(np.abs(fd - an))) <= 1e-6

    def test_linear_spline_derivative_inside_spans(self):
        # degree 1 has corners at knots, so probe span midpoints instead
        rng = random.Random(23)
        curve = random_curve(rng, 1, 1, "uniform")
        h = 1e-5
        lo, hi = (float(v) for v in curve.domain)
        for mid in np.arange(lo + 0.5, hi, 1.0):
            fd = (curve.eval_matrix(mid + h) - curve.eval_matrix(mid - h)) / (2 * h)
            an = curve.eval_derivative(float(mid), 1)
            assert float(np.max(np.abs(fd - an))) <= 1e-6


class TestDerivative:
    def test_linear_precision_slope(self):
        for tau in (3.0, 3.25, 3.99, 4.0):
            assert CUBIC.eval_derivative(tau, 1) == pytest.approx([1.0], abs=1e-12)

    def test_order_above_degree_is_zero(self):
        assert CUBIC.eval_derivative(3.5, 4) == pytest.approx([0.0])
        assert CUBIC.eval_derivative(3.5, 9) == pytest.approx([0.0])

    def test_constant_curve_zero_slope(self):
        curve = SplineCurve(2, KnotVector.uniform(8), [[5.0, 5.0]] * 5)
        assert curve.eval_derivative(3.0, 1) == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            CUBIC.eval_derivative(3.5, 0)

    def test_non_uniform_chain_rule(self):
        # quadratic with stretched spans: slope of tau^2/ramp checked by differences
        kv = KnotVector([0, 0, 0, 2, 6, 6, 6])
        curve = SplineCurve(2, kv, [[0.0], [1.0], [3.0], [2.0]])
        h = 1e-6
        for tau in (0.5, 1.9, 2.1, 4.0, 5.5):
            fd = (curve.eval_matrix(tau + h) - curve.eval_matrix(tau - h)) / (2 * h)
            assert curve.eval_derivative(tau, 1) == pytest.approx(fd, abs=1e-6)

    def test_narrow_span_second_derivative_does_not_underflow(self):
        # h^2 = 1e-340 is below the float range; dividing by h twice is not
        curve = SplineCurve(2, KnotVector([i * 1e-170 for i in range(6)]),
                            [[0.0], [1e-300], [4e-300]])
        want = (0.0 - 2 * 1e-300 + 4e-300) / 1e-170 / 1e-170
        assert want == pytest.approx(2e40, rel=1e-12)
        assert curve.evaluate([2.5e-170], 2)[0] == pytest.approx([want], rel=1e-12)
        assert curve.eval_derivative(2.5e-170, 2) == pytest.approx([want], rel=1e-12)

    def test_slope_in_a_span_narrower_than_a_double_raises(self):
        # the widths 10^-330 round to 0.0; the true slope, about 2e30, is
        # not to be had by dividing by them
        curve = SplineCurve(2, KnotVector([Fraction(i, 10 ** 330) for i in range(6)]),
                            [[0.0], [1e-300], [4e-300]])
        with pytest.raises(DomainError, match="outside the float range"):
            curve.evaluate([Fraction(5, 2 * 10 ** 330)], 1)

    def test_slope_beyond_the_float_range_is_inf_without_a_warning(self):
        # the width 2e-310 is a subnormal double; 1 / 2e-310 is beyond the float range
        kv = KnotVector([Fraction(i, 5 * 10 ** 309) for i in range(4)])
        steep = SplineCurve(1, kv, [[0.0], [1.0]])
        assert steep.eval_derivative(3e-310, 1).tolist() == [math.inf]
        # a numpy double, such as an element of an array, computes as a Python float
        assert steep.eval_derivative(np.float64(3e-310), 1).tolist() == [math.inf]
        assert steep.evaluate([3e-310], 1).tolist() == [[math.inf]]
        curve = SplineCurve(1, kv, [[0.0], [1e-300]])
        slope = curve.eval_derivative(3e-310, 1)
        assert slope == pytest.approx([5e9], rel=1e-12)
        assert curve.evaluate([3e-310], 1).tobytes() == slope.tobytes()


@st.composite
def sample_cases(draw):
    """Knots, a degree, (N, 2) points and a sample count 2..2 * _CHUNK.

    Rational knots are i/q over q in 1, 3, 7, 10, so that the domain ends
    may round outward, with repeated knots; float knots are their doubles.
    """
    k = draw(st.integers(0, 4))
    gaps = draw(st.lists(st.integers(0, 3), min_size=2 * k + 1, max_size=2 * k + 8))
    gaps[k] = max(gaps[k], 1)  # a span of positive width in the domain
    q = draw(st.sampled_from([1, 3, 7, 10]))
    start = draw(st.integers(-20, 20))
    values = [Fraction(start + s, q) for s in accumulate(gaps, initial=0)]
    if draw(st.booleans()):
        values = [float(v) for v in values]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    points = rng.normal(0.0, 10.0, (len(values) - k - 1, 2))
    return KnotVector(values), k, points, draw(st.integers(2, 2 * _CHUNK))


class TestSample:
    def test_endpoint_pair(self):
        rows = CUBIC.sample(2)
        assert [t for t, _ in rows] == [3.0, 4.0]
        assert rows[0][1] == pytest.approx([1.0]) and rows[1][1] == pytest.approx([2.0])

    def test_midpoint_added(self):
        rows = CUBIC.sample(3)
        assert [t for t, _ in rows] == [3.0, 3.5, 4.0]
        assert rows[1][1] == pytest.approx([1.5])

    def test_constant_curve(self):
        curve = SplineCurve(2, KnotVector.uniform(7), [[4.0]] * 4)
        assert all(p == pytest.approx([4.0]) for _, p in curve.sample(9))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            CUBIC.sample(1)

    def test_domain_bounds_that_round_badly_in_float(self):
        # a third is not a double: float(1/3) sits below the exact bound, so
        # naive endpoint samples would fall outside the evaluable domain
        third = Fraction(1, 3)
        kv = KnotVector([0, third, 2 * third, 1])
        curve = SplineCurve(1, kv, [[0.0], [1.0]])
        rows = curve.sample(7)
        assert len(rows) == 7
        assert rows[0][0] == pytest.approx(1 / 3) and rows[-1][0] == pytest.approx(2 / 3)

    def test_bounds_that_round_outward_take_the_exact_bound_values(self):
        # float(1/3) < 1/3 and float(11/10) > 11/10: both end samples lie
        # outside the domain in floats and are evaluated at the exact bounds
        kv = KnotVector([0, Fraction(1, 3), Fraction(1, 2), Fraction(11, 10), 2])
        curve = SplineCurve(1, kv, [[0.0], [1.0], [3.0]])
        rows = curve.sample(5)
        want = curve.evaluate([Fraction(1, 3), Fraction(11, 10)])
        assert rows[0][1].tolist() == want[0].tolist() == [0.0]
        assert rows[-1][1].tolist() == want[1].tolist() == [3.0]

    def test_grid_up_to_the_largest_double_warns_of_nothing(self):
        top = sys.float_info.max
        curve = SplineCurve(1, KnotVector([0.0, 1.0, top, top]), [[0.0], [1.0]])
        grid, points = curve._sample_grid(7)
        assert grid[0] == 1.0 and grid[-1] == top and np.all(np.diff(grid) > 0)
        assert points[:, 0] == pytest.approx((grid - 1.0) / (top - 1.0), abs=1e-15)

    @pytest.mark.parametrize("bad", [400.0, "4", Fraction(400), 400.5])
    def test_a_count_must_be_an_integer(self, bad):
        curve = SplineCurve(3, KnotVector.uniform(20), np.arange(16.0))
        curve.sample(400)  # a plan for 400 must not answer 400.0
        with pytest.raises(TypeError):
            curve.sample(bad)
        with pytest.raises(TypeError):
            curve._sample_grid(bad)
        assert same_bits(curve._sample_grid(np.int64(400))[1], curve._sample_grid(400)[1])

        class Count:  # an integer by ``__index__`` alone
            def __index__(self):
                return 400

        assert same_bits(curve._sample_grid(Count())[1], curve._sample_grid(400)[1])

    def test_a_second_curve_over_the_knots_reuses_the_plan(self):
        rng = np.random.default_rng(50)
        kv = KnotVector.uniform(40, start=-7, step=Fraction(2, 3))
        first = SplineCurve(3, kv, rng.normal(size=(36, 3)))
        first._sample_grid(400)
        plan = first._view.plan[0]
        assert plan.n == 400
        points = rng.normal(size=(36, 2))  # another dim: the plan is the knots' alone
        grid, got = SplineCurve(3, kv, points)._sample_grid(400)
        assert first._view.plan[0] is plan and grid is plan.grid
        want_grid, want = SplineCurve(3, KnotVector(kv.values), points)._sample_grid(400)
        assert same_bits(grid, want_grid) and same_bits(got, want)

    def test_each_curve_over_a_shared_plan_raises_its_own_errors(self):
        kv = KnotVector.uniform(20)
        SplineCurve(3, kv, np.arange(16.0)).sample(50)
        big = SplineCurve(3, kv, [[1e308 * (-1) ** i] for i in range(16)])
        with pytest.raises(DomainError, match="too large to evaluate"):
            big.sample(50)

    def test_edge_grid_is_the_same_warm_and_cold(self):
        third = Fraction(1, 3)
        kv = KnotVector([0, third, Fraction(1, 2), Fraction(3, 4), Fraction(11, 10), 2])
        points = [[0.0, 1.0], [1.0, -2.0], [3.0, 0.5], [-1.0, 4.0]]
        curve = SplineCurve(1, kv, points)
        cold = curve._sample_grid(9)
        plan = curve._view.plan[0]
        assert plan.ends == (third, Fraction(11, 10)) and (~plan.inner).sum() == 2
        warm = curve._sample_grid(9)
        assert all(same_bits(a, b) for a, b in zip(warm, cold))
        assert warm[1][[0, -1]].tolist() == curve.evaluate(list(plan.ends)).tolist()

    def test_a_view_holds_the_last_count_only(self):
        curve = SplineCurve(3, KnotVector.uniform(30), np.arange(26.0))
        curve.sample(300)
        curve.sample(500)
        plans = curve._view.plan
        assert len(plans) == 1 and plans[0].n == 500

    def test_a_grid_longer_than_a_chunk_keeps_no_plan(self):
        import tracemalloc

        curve = SplineCurve(3, KnotVector.uniform(30), np.zeros((26, 3)))
        curve._sample_grid(4 * _CHUNK)  # fills the curve's page
        assert curve._view.plan == [None]
        tracemalloc.start()
        try:
            curve._sample_grid(4 * _CHUNK)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a kept plan holds 56 bytes per parameter: 24 of arrays, 32 of its tuple of floats
        assert held < 4 * _CHUNK
        assert curve._view.plan == [None] and curve._sample_plan(4 * _CHUNK).taus is None
        tracemalloc.start()
        try:
            curve._sample_grid(_CHUNK)  # kept
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(curve._view.plan[0].taus) == _CHUNK
        assert held < 57 * _CHUNK

    @pytest.mark.parametrize("count", [400, 9, 2 * _CHUNK])
    def test_warm_calls_return_points_of_their_own(self, count):
        # each call runs its own gather and Horner: no result is kept
        third = Fraction(1, 3)
        edges = KnotVector([0, third, Fraction(1, 2), Fraction(3, 4), Fraction(11, 10), 2])
        for curve in (SplineCurve(3, KnotVector.uniform(30), np.arange(78.0).reshape(26, 3)),
                      SplineCurve(1, edges, [[0.0, 1.0], [1.0, -2.0], [3.0, 0.5], [-1.0, 4.0]])):
            # the (n, d) array under each call's pairs, then two calls' arrays
            arrays = [curve.sample(count)[0][1].base for _ in range(2)]
            arrays += [curve._sample_grid(count)[1] for _ in range(2)]
            blocks = [array for store in curve._pages.values() for array, _ in store.values()]
            for i, points in enumerate(arrays):
                assert points.shape == (count, curve.dim)
                assert points.tobytes() == arrays[0].tobytes()
                assert not any(np.shares_memory(points, other) for other in arrays[:i] + blocks)

    def test_the_grid_is_read_only(self):
        grid, points = CUBIC._sample_grid(11)
        assert not grid.flags.writeable and points.flags.writeable
        with pytest.raises(ValueError):
            grid[0] = 0.0

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(sample_cases())
    def test_warm_shared_and_fresh_grids_are_bit_identical(self, case):
        kv, k, points, n = case
        curve = SplineCurve(k, kv, points)
        cold = curve._sample_grid(n)
        warm = curve._sample_grid(n)
        assert (curve._view.plan[0] is not None) == (n <= _CHUNK)
        shared = SplineCurve(k, kv, points[:, :1])._sample_grid(n)  # another dim
        for got, dim in ((cold, 2), (warm, 2), (shared, 1)):
            fresh = SplineCurve(k, KnotVector(kv.values), points[:, :dim])._sample_grid(n)
            assert same_bits(got[0], fresh[0]) and same_bits(got[1], fresh[1])
        plan = curve._view.plan[0]
        assert plan is None or plan.taus == tuple(plan.grid.tolist())
        # sample's pairs: cold, warm and over the shared plan, as the grids
        pairs = [SplineCurve(k, KnotVector(kv.values), points).sample(n), curve.sample(n),
                 SplineCurve(k, kv, points[:, :1]).sample(n)]
        for got, want in zip(pairs, (cold, warm, shared)):
            taus, rows = zip(*got)
            assert all(type(t) is float for t in taus) and same_bits(np.array(taus), want[0])
            assert list(taus) == want[0].tolist() and same_bits(np.array(rows), want[1])
        # the matrix path at each parameter, at the exact domain end where it rounded outside
        lo, hi = curve.domain
        taus = [lo if t < lo else hi if t > hi else t for t in cold[0].tolist()]
        assert same_bits(cold[1], np.concatenate([curve.evaluate([t]) for t in taus]))


def centred(m):
    """``m`` Taylor-shifted to u = 1/2, in Fractions: rows are powers of u - 1/2.

    M'[r][c] = sum over i >= r of C(i, r) 2^(r-i) M[i][c].
    """
    n = m.size
    entries = tuple(tuple(sum(math.comb(i, r) * Fraction(2) ** (r - i) * m.entries[i][c]
                              for i in range(r, n)) for c in range(n)) for r in range(n))
    return BasisMatrix(degree=m.degree, entries=entries, span=m.span)


def float_knots(rng, degree, gaps):
    """Float knots over ``gaps`` with end knots repeated 1..degree+1 times."""
    breaks = (rng.uniform(-10.0, 10.0) + np.concatenate(([0.0], np.cumsum(gaps)))).tolist()
    first, last = rng.integers(1, degree + 2, 2)
    return KnotVector([breaks[0]] * first + breaks[1:-1] + [breaks[-1]] * last)


def float_loop_rows(kv, degree, span, kind):
    """One span's centred rows by the degree recursion in Python floats, column by column.

    The reference the batched build must equal bit for bit: level by
    level, parent column c adds (a0, a1) v to column c+1 and
    (2 - a0, -a1) v to column c, a0 + a1 u being the centred weight pair
    (2 d0 + d1, 2 d1) over 2; the cumulative rows are suffix sums of the
    numerators, right to left, and the rows are the numerators over 2^k.
    """
    t = kv.values
    cols, den = [[1.0]], 1.0
    for level in range(1, degree + 1):
        pairs = []
        for i in range(span - level + 1, span + 1):
            w = t[i + level] - t[i]
            # (tau - t_i) / w is d0 + d1 u on the span; the pair is zero where w vanishes
            d0, d1 = ((t[span] - t[i]) / w, (t[span + 1] - t[span]) / w) if w else (0.0, 0.0)
            pairs.append((2 * d0 + d1, 2 * d1))
        new = [[0] * (level + 1) for _ in range(level + 1)]
        for c, (a0, a1) in enumerate(pairs):
            up, down, b0 = new[c + 1], new[c], 2 - a0
            for r, v in enumerate(cols[c]):
                up[r] += a0 * v
                up[r + 1] += a1 * v
                down[r] += b0 * v
                down[r + 1] -= a1 * v
        cols, den = new, den * 2
    rows = list(zip(*cols))
    if kind == "c":
        rows = [list(accumulate(reversed(row)))[::-1] for row in rows]
    return np.array([[n / den for n in row] for row in rows])


def float_knot_family(degree, seed):
    """Float knots: 1:1e3 gap ratios, repeated interior knots, end knots repeated 1..k+1 times."""
    rng = np.random.default_rng(seed)
    count = 2 * degree + 5
    spread = 10 ** rng.uniform(0.0, 3.0, count)
    alternating = np.where(np.arange(count) % 2, 1e3, 1.0)
    repeated = spread.copy()
    repeated[rng.choice(count, count // 3, replace=False)] = 0.0  # repeated interior knots
    return [float_knots(rng, degree, gaps) for gaps in (spread, alternating, repeated)]


@st.composite
def float_construction_cases(draw):
    """A degree, float knots with repeated knots at one scale, and a shuffled subset of spans.

    Degrees 0..12, 20 and 30; knots start + gap sums times 1e-310 (subnormal
    widths), 1 or 1e300; the spans are of positive width, in random order.
    """
    k = draw(st.sampled_from(list(range(13)) + [20, 30]))
    scale = draw(st.sampled_from([1e-310, 1.0, 1e300]))
    gaps = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.25, 4.0)),
                         min_size=2 * k + 1, max_size=2 * k + 7))
    gaps[k] = max(gaps[k], 1.0)  # a span of positive width in the domain
    start = draw(st.floats(-10.0, 10.0))
    kv = KnotVector([(start + s) * scale for s in accumulate(gaps, initial=0.0)])
    spans = draw(st.permutations(positive_spans(kv, k)))
    return kv, k, spans[:draw(st.integers(1, len(spans)))]


class TestFloatConstruction:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(float_construction_cases())
    def test_rows_of_any_float_knots_equal_the_float_loop(self, case):
        kv, degree, spans = case
        assert kv.storage == "float"
        curve = SplineCurve(degree, kv, np.zeros((len(kv.values) - degree - 1, 1)))
        for kind, rows in zip("mc", curve._rows(spans)):
            for j, got in zip(spans, rows):
                assert got.tobytes() == float_loop_rows(kv, degree, j, kind).tobytes(), (kv, j)

    @pytest.mark.parametrize("degree", range(1, 11))
    def test_batched_rows_equal_the_float_loop_bit_for_bit(self, degree):
        for kv in float_knot_family(degree, 200 + degree):
            assert kv.storage == "float" and not kv.is_uniform
            curve = SplineCurve(degree, kv, np.zeros((len(kv.values) - degree - 1, 1)))
            spans = positive_spans(kv, degree)
            for kind in "mc":
                rows = curve._rows(spans)["mc".index(kind)]
                assert rows.shape == (len(spans), degree + 1, degree + 1)
                for j, got in zip(spans, rows):
                    assert got.tobytes() == float_loop_rows(kv, degree, j, kind).tobytes()

    def test_a_chunk_builds_its_new_spans_in_one_kernel_call(self, monkeypatch):
        calls = []
        build = curve_module.float_span_columns

        def counting(values, degree, spans):
            calls.append(list(spans))
            return build(values, degree, spans)

        monkeypatch.setattr(curve_module, "float_span_columns", counting)
        kv = float_knot_family(5, 7)[2]
        curve = SplineCurve(5, kv, np.random.default_rng(7).normal(size=(len(kv.values) - 6, 3)))
        spans = positive_spans(kv, 5)
        mids = [(kv.values[j] + kv.values[j + 1]) / 2 for j in spans]
        curve.evaluate(mids[:3])
        curve.evaluate(mids)
        assert calls == [spans[:3], spans[3:]]
        # derivatives, the cumulative blocks and repeated points reuse the columns
        curve.evaluate(mids, derivative=1)
        for t in mids + mids:
            curve.eval_cumulative(t)
            curve.eval_derivative(t, 2)
        assert len(calls) == 2
        stats = curve.stats()
        assert (stats["spans_built"], stats["window_hits"]) == (len(spans), 0)
        assert stats["spans_touched"] == 2 * len(spans)
        assert stats["build_s"] > 0.0

    def test_a_batch_of_many_chunks_fills_its_page_once(self, monkeypatch):
        calls = []
        build = curve_module.float_span_columns
        monkeypatch.setattr(curve_module, "float_span_columns",
                            lambda values, degree, spans: calls.append(list(spans))
                            or build(values, degree, spans))
        kv = float_knot_family(10, 7)[2]
        curve = SplineCurve(10, kv, np.random.default_rng(7).normal(size=(len(kv.values) - 11, 3)))
        grid, _ = curve._sample_grid(2 * _CHUNK)
        assert calls == [np.unique(curve._locate(grid)[0]).tolist()]
        # three pages, and taus shuffled across them: one fill per page, the lowest first
        rng = np.random.default_rng(8)
        kv = KnotVector(np.cumsum(rng.uniform(0.5, 2.0, 2 * _CHUNK + 400)).tolist())
        points = rng.normal(size=(len(kv.values) - 4, 2))
        curve = SplineCurve(3, kv, points)
        taus = np.sort(rng.uniform(curve._view.lo, curve._view.hi, 3 * _CHUNK))
        shuffle = rng.permutation(len(taus))
        spans = curve._locate(taus)[0]
        pages = (spans - 3) // _CHUNK
        calls.clear()
        got = curve.evaluate(taus[shuffle])
        assert calls == [np.unique(spans[pages == page]).tolist() for page in range(3)]
        assert same_bits(got, SplineCurve(3, kv, points).evaluate(taus)[shuffle])

    def test_fill_scratch_is_bounded_by_the_chunk_and_silent(self):
        import tracemalloc

        # four chunks of spans not built yet, next to repeated interior knots
        k = 5
        kv = KnotVector(list(accumulate([1.0, 0.0, 2.0, 1e3] * (4 * _CHUNK // 3 + k), initial=0.0)))
        curve = SplineCurve(k, kv, np.zeros((len(kv.values) - k - 1, 2)))
        mids = [(kv.values[j] + kv.values[j + 1]) / 2 for j in positive_spans(kv, k)]
        assert len(mids) >= 4 * _CHUNK
        curve.evaluate(mids[:1])  # builds the float knot tables
        tracemalloc.start()
        try:
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                curve.evaluate(mids[:4 * _CHUNK])
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one batch over every span would take four times a chunk's scratch
        assert peak - retained < 8 * _CHUNK * (k + 1) ** 2 * 8
        assert curve.stats()["spans_built"] == 4 * _CHUNK

    @pytest.mark.parametrize("degree", range(1, 11))
    def test_float_built_rows_match_exact(self, degree):
        # neighbouring gaps differ by up to 1e3: random, and alternating
        rng = np.random.default_rng(100 + degree)
        count = 2 * degree + 3
        u = np.linspace(0.0, 1.0, 33)
        for gaps in (10 ** rng.uniform(0.0, 3.0, count),
                     np.where(np.arange(count) % 2, 1e3, 1.0)):
            kv = float_knots(rng, degree, gaps)
            assert kv.storage == "float" and not kv.is_uniform
            curve = SplineCurve(degree, kv, np.zeros((len(kv.values) - degree - 1, 1)))
            exact_kv = kv.as_rational()
            for j in range(degree, len(kv.values) - degree - 1):
                if kv.values[j] == kv.values[j + 1]:
                    continue
                m = general_basis_matrix(exact_kv, degree, j)
                for kind, exact in (("m", m), ("c", cumulative_matrix(m))):
                    rows = curve._rows([j])["mc".index(kind)][0]
                    assert rows.shape == (degree + 1, degree + 1)
                    want = horner(np.array(centred(exact).entries, dtype=float), (u - 0.5)[:, None])
                    assert np.abs(horner(rows, (u - 0.5)[:, None]) - want).max() <= 1e-12
                basis = horner(curve._rows([j])[0, 0], (u - 0.5)[:, None])
                assert np.abs(basis.sum(axis=1) - 1.0).max() <= 1e-12


def jittered_float_knots(rng, count):
    """Float knots 0, 1, 2, ... each moved by up to 4e-13: evenly spaced to 1e-12, not exactly."""
    return KnotVector((np.arange(count) + rng.uniform(-4e-13, 4e-13, count)).tolist())


class TestNearlyEvenlySpacedFloatKnots:
    """Float knots whose spacing differs by rounding noise: every span takes its own rows."""

    @pytest.mark.parametrize("k", [3, 10, 20, 30])
    def test_evaluate_matches_the_recursion(self, k):
        rng = np.random.default_rng(300 + k)
        for _ in range(10):
            curve = SplineCurve(k, jittered_float_knots(rng, 2 * k + 10),
                                rng.normal(0.0, 10.0, (k + 9, 3)))
            taus = rng.uniform(curve._view.lo, curve._view.hi, 300)
            got, want = curve.evaluate(taus), curve._coxdeboor(taus)
            gaps = np.abs(got - want).max(axis=1) / np.maximum(1.0, np.abs(want).max(axis=1))
            assert gaps.max() <= 1e-13

    def test_evaluate_fills_only_the_touched_spans(self):
        rng = np.random.default_rng(310)
        curve = SplineCurve(3, jittered_float_knots(rng, 46), rng.normal(size=(42, 2)))
        curve.evaluate([3.5, 7.25, 7.5, 20.5])
        assert curve.stats()["spans_touched"] == 6  # both kinds of three spans


def positive_spans(kv, degree):
    return [j for j in range(degree, len(kv.values) - degree - 1)
            if kv.values[j] < kv.values[j + 1]]


def same_bits(rows, want):
    want = np.array(want, dtype=float)
    return rows.shape == want.shape and rows.tobytes() == want.tobytes()


def exact_vectors():
    """Clamped k=10 over 60 spans, i^2/3 and float-derived knots at k=10, check's vectors."""
    rng = np.random.default_rng(17)
    out = [(10, clamped(10, range(1, 60), 60)),
           (10, KnotVector([Fraction(i * i, 3) for i in range(40)])),
           (10, KnotVector(np.sort(rng.uniform(-5.0, 5.0, 40)).tolist()).as_rational())]
    return out + [(k, kv) for k in range(1, 7) for kv in cli._check_knot_vectors(k)]


def fraction_uniform_matrices(degree_max):
    """Uniform matrices 0..degree_max by the column recursion in Fractions."""
    cols, out = [[Fraction(1)]], [((Fraction(1),),)]
    for k in range(1, degree_max + 1):
        new = [[Fraction(0)] * (k + 1) for _ in range(k + 1)]
        for c in range(k):
            a0, a1 = Fraction(k - 1 - c, k), Fraction(1, k)
            for r, v in enumerate(cols[c]):
                new[c + 1][r] += a0 * v
                new[c + 1][r + 1] += a1 * v
                new[c][r] += (1 - a0) * v
                new[c][r + 1] -= a1 * v
        cols = new
        out.append(tuple(tuple(col[r] for col in cols) for r in range(k + 1)))
    return out


class TestExactRows:
    @pytest.mark.parametrize("degree, kv", exact_vectors(),
                             ids=lambda x: str(x) if isinstance(x, int) else None)
    def test_rows_are_the_rounded_exact_matrices(self, degree, kv):
        curve = SplineCurve(degree, kv, np.zeros((len(kv.values) - degree - 1, 1)))
        for j in positive_spans(kv, degree):
            m = general_basis_matrix(kv, degree, j)
            assert same_bits(curve._rows([j])[0, 0], np.array(centred(m).entries, dtype=float))
            assert same_bits(curve._rows([j])[1, 0],
                             np.array(centred(cumulative_matrix(m)).entries, dtype=float))
            window = span_window(kv, degree, j)
            assert window_part(window, "centred matrix")[0].entries == centred(m).entries

    @pytest.mark.parametrize("storage", ["rational", "float"])
    def test_zero_width_span_raises_degenerate_span(self, storage):
        kv = KnotVector([0, 1, 2, 2, 3, 4, 5])
        curve = SplineCurve(2, kv if storage == "rational" else kv.as_float(), np.zeros((4, 1)))
        with pytest.raises(DegenerateSpan, match="span 2 has zero width"):
            curve._rows([2])
        with pytest.raises(DegenerateSpan, match="span 2 has zero width"):
            curve._matrix_point(2, 0.5)

    def test_uniform_matrices_equal_fraction_recursion(self):
        for k, want in enumerate(fraction_uniform_matrices(30)):
            got = uniform_basis_matrix(k).entries
            assert got == want
            assert all(type(v) is Fraction for row in got for v in row)

    @pytest.mark.usefixtures("cold_windows")
    def test_stats_count_one_build_per_window(self):
        kv = clamped(10, range(1, 60), 60)
        curve = SplineCurve(10, kv, np.zeros((70, 1)))

        def builds():
            stats = curve.stats()
            return {key: stats[key] for key in ("spans_built", "window_hits", "build_s")}

        assert builds() == {"spans_built": 0, "window_hits": 0, "build_s": 0.0}
        mids = [float(kv.values[j] + kv.values[j + 1]) / 2 for j in positive_spans(kv, 10)]
        assert len(mids) == 60
        curve.evaluate(mids)
        stats = builds()
        assert (stats["spans_built"], stats["window_hits"]) == (19, 41)
        assert stats["build_s"] > 0.0
        # the other row kind, a second pass and single points count nothing
        curve.evaluate(mids, derivative=1)
        for t in mids:
            curve.eval_cumulative(t)
        assert builds() == stats

    def test_stats_count_one_block_per_touched_span_and_kind(self):
        kv = clamped(10, range(1, 60), 60)
        curve = SplineCurve(10, kv, np.zeros((70, 3)))
        assert curve.stats()["spans_touched"] == 0
        mids = [float(kv.values[j] + kv.values[j + 1]) / 2 for j in positive_spans(kv, 10)]
        # a fill forms both kinds of its spans
        for t in mids[:5]:
            curve.eval_matrix(t)
        assert curve.stats()["spans_touched"] == 10
        curve.evaluate(mids)
        assert curve.stats()["spans_touched"] == 120
        # derivatives share the matrix blocks; repeated points build nothing
        curve.evaluate(mids, derivative=1)
        for t in mids + mids:
            curve.eval_derivative(t, 2)
        assert curve.stats()["spans_touched"] == 120
        for t in mids:
            curve.eval_cumulative(t)
        curve.evaluate(mids)
        assert curve.stats()["spans_touched"] == 120

    @pytest.mark.usefixtures("cold_windows")
    def test_stats_count_every_block_of_a_uniform_table(self):
        curve = SplineCurve(3, KnotVector.uniform(20), np.zeros((16, 2)))
        curve.eval_matrix(5.5)
        assert curve.stats()["spans_touched"] == 2  # span 5, in both kinds
        curve.sample(50)
        curve.eval_cumulative(7.5)
        # the table's one knot window is built once, by the first fill; the
        # sample's fill of the other 12 spans finds it built
        stats = curve.stats()
        assert (stats["spans_built"], stats["window_hits"], stats["spans_touched"]) == (1, 1, 26)
        assert stats["blocks_filled"] == 26
        assert stats["build_s"] > 0.0

    def test_a_uniform_fill_forms_both_kinds(self):
        points = np.random.default_rng(4).normal(size=(16, 2))
        curve = SplineCurve(3, KnotVector.uniform(20), points)
        want = SplineCurve(3, curve.knots, points)._combine(*curve._locate([5.5, 9.25, 12.0]), "c")
        curve.evaluate([5.5, 9.25])
        assert curve._fills == [2, 2]  # one fill: the asked spans, in both kinds
        for tau, value in zip([5.5, 9.25, 12.0], want):
            assert same_bits(curve.eval_cumulative(tau), value)
        assert curve._fills == [2, 2, 1, 1]  # span 12's first touch

    def test_check_fills_each_fresh_curve_once(self, monkeypatch):
        # degrees 1..6, an evenly spaced and a clamped curve each
        calls = []
        page = SplineCurve._page

        def counted(self, *args):
            fills = len(self._fills)
            blocks = page(self, *args)
            calls.append(len(self._fills) > fills)
            return blocks

        monkeypatch.setattr(SplineCurve, "_page", counted)
        assert cli.run_check(6, 25, 0, io.StringIO()) == 0
        assert calls == [True] * 12

    @pytest.mark.parametrize("storage", ["rational", "float"])
    def test_each_kinds_rows_are_c_contiguous(self, storage):
        kv = clamped(4, [1, 2, 2, 5, 6], 9)
        curve = SplineCurve(4, kv if storage == "rational" else kv.as_float(),
                            np.zeros((len(kv.values) - 5, 2)))
        spans = positive_spans(kv, 4)
        for asked in ([spans[0]], spans):
            rows = curve._rows(asked)
            assert rows.shape == (2, len(asked), 5, 5)
            assert rows[0].flags.c_contiguous and rows[1].flags.c_contiguous

    def test_stats_count_every_span_on_float_knots(self):
        kv = KnotVector([0.0] * 4 + [1.0, 2.0, 3.0, 4.0] + [5.0] * 4)
        curve = SplineCurve(3, kv, np.zeros((8, 1)))
        curve.evaluate(np.linspace(0.0, 5.0, 50))
        stats = curve.stats()
        assert (stats["spans_built"], stats["window_hits"]) == (5, 0)

    @pytest.mark.parametrize("storage", ["rational", "float"])
    def test_a_warm_batch_fills_no_block(self, storage):
        # clamped integer knots, or non-uniform floats; many taus per span
        rng = np.random.default_rng(5)
        kv = (clamped(10, range(1, 60), 60) if storage == "rational"
              else KnotVector(np.cumsum(rng.uniform(0.5, 1.5, 81)).tolist()))
        curve = SplineCurve(10, kv, rng.normal(size=(len(kv.values) - 11, 3)))
        lo, hi = (float(v) for v in curve.domain)
        taus = rng.uniform(lo, hi, 2000)
        curve.evaluate(taus)
        filled = curve.stats()["blocks_filled"]
        assert filled == curve.stats()["spans_touched"] == 120
        curve.evaluate(taus)
        assert curve.stats()["blocks_filled"] == filled

    @pytest.mark.usefixtures("cold_windows")
    def test_windows_are_built_once_per_process(self):
        kv = clamped(10, range(1, 60), 60)
        mids = [float(kv.values[j] + kv.values[j + 1]) / 2 for j in positive_spans(kv, 10)]
        first, second = (SplineCurve(10, kv, np.zeros((70, 1))) for _ in range(2))
        first.evaluate(mids)
        second.evaluate(mids)
        assert (first.stats()["spans_built"], first.stats()["window_hits"]) == (19, 41)
        assert (second.stats()["spans_built"], second.stats()["window_hits"]) == (0, 60)
        assert second.stats()["build_s"] == 0.0
        # the spans share the window's rows, which no caller can write
        rows, built = window_part(span_window(kv, 10, 10), "rows")
        assert not built and not rows.flags.writeable
        assert first._rows([10]).base is second._rows([10]).base is rows
        uniform_basis_matrix.cache_clear()
        third = SplineCurve(10, kv, np.zeros((70, 1)))
        third.evaluate(mids)
        assert (third.stats()["spans_built"], third.stats()["window_hits"]) == (19, 41)


class TestScalarFirstTouch:
    """The scalar views on a fresh curve: one small fill per span, the batch's bits."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 6, 10])
    def test_scalar_paths_called_first_equal_the_batch(self, k):
        rng = np.random.default_rng(90 + k)
        for name, kv in knot_kinds(k, rng).items():
            points = rng.normal(0.0, 10.0, (len(kv.values) - k - 1, 3))
            batch = SplineCurve(k, kv, points)
            taus = domain_doubles(batch) + rng.uniform(batch._view.lo, batch._view.hi, 20).tolist()
            spans, u = batch._locate(taus)
            want = [batch.evaluate(taus, r) for r in range(k + 1)]
            want_c = batch._combine(spans, u, "c")
            scalar = SplineCurve(k, kv, points)  # every span first met by a scalar view
            for i, tau in enumerate(taus):
                for r in range(k, 0, -1):
                    assert same_bits(scalar.eval_derivative(tau, r), want[r][i]), (name, tau, r)
                assert same_bits(scalar.eval_cumulative(tau), want_c[i]), (name, tau)
                assert same_bits(scalar.eval_matrix(tau), want[0][i]), (name, tau)

    def test_derivatives_after_the_matrix_view_neither_gather_nor_fill(self, monkeypatch):
        kv = clamped(10, range(1, 60), 60)
        curve = SplineCurve(10, kv, np.random.default_rng(7).normal(size=(70, 3)))
        calls = []
        page = SplineCurve._page
        monkeypatch.setattr(SplineCurve, "_page",
                            lambda self, *args: calls.append(args) or page(self, *args))
        for tau in (0.0, 1.5, 17.25, 31.0, 60.0):
            curve.eval_matrix(tau)
            filled, count = curve.stats()["blocks_filled"], len(calls)
            for order in range(1, 11):
                curve.eval_derivative(tau, order)
            assert (curve.stats()["blocks_filled"], len(calls)) == (filled, count)
        assert len(calls) == 5

    @pytest.mark.parametrize("storage", ["rational", "float"])
    def test_a_first_touch_fills_both_kinds(self, storage):
        kv = clamped(3, range(1, 10), 10)
        curve = SplineCurve(3, kv if storage == "rational" else kv.as_float(),
                            np.random.default_rng(8).normal(size=(13, 2)))

        def filled():
            stats = curve.stats()
            return stats["blocks_filled"], stats["spans_touched"]

        curve.evaluate([3.5, 5.5])
        assert filled() == (4, 4)
        curve.eval_matrix(4.5)
        assert filled() == (6, 6)
        # a batch that repeats filled spans and one new span writes it once per kind
        curve.evaluate([3.5, 4.5, 6.5, 5.5, 6.25, 6.5])
        assert filled() == (8, 8)
        # the matrix fills formed the cumulative blocks too
        curve.eval_cumulative(4.5)
        assert filled() == (8, 8)

    @pytest.mark.parametrize("storage", ["rational", "float"])
    def test_later_first_touches_read_the_filled_blocks_in_place(self, storage, monkeypatch):
        kv = clamped(6, [1, 2, 3], 4)
        curve = SplineCurve(6, kv if storage == "rational" else kv.as_float(),
                            np.random.default_rng(9).normal(size=(10, 2)))
        mids = [j - 5.5 for j in positive_spans(kv, 6)]
        want_c = curve._combine(*curve._locate(mids), "c")
        curve = SplineCurve(6, curve.knots, curve.points)
        want = [curve.evaluate(mids, order) for order in range(7)]
        assert curve._pages[0]["c"][1].all()  # the matrix fill formed the cumulative blocks
        fills = len(curve._fills)
        assert same_bits(curve.eval_cumulative(mids[2]), want_c[2])
        assert curve._fills[fills:] == []
        pages = []
        page = SplineCurve._page
        monkeypatch.setattr(SplineCurve, "_page",
                            lambda self, *args: pages.append(args) or page(self, *args))
        for i, tau in enumerate(mids):
            assert same_bits(curve.eval_cumulative(tau), want_c[i])
            assert same_bits(curve.eval_matrix(tau), want[0][i])
            for order in range(1, 7):
                assert same_bits(curve.eval_derivative(tau, order), want[order][i])
        assert pages == []
        assert curve.stats()["spans_touched"] == curve.stats()["blocks_filled"] == 8


# k = 2 over integer knots, the last span 1e5 wide: the cumulative block of
# span 4 overflows where its matrix block fits, and spans 2 and 5 fit in
# neither kind
BIG = 10 ** 8
OVERFLOW_KNOTS = [0, BIG, BIG, BIG + 1, BIG + 1, BIG + 11, BIG + 100011, BIG + 100012,
                  BIG + 100013]
OVERFLOW_POINTS = [[5e307], [-1.0], [0.0], [1e307], [-1.7e308], [1.7e308]]
SPAN_4_VALUE = float.fromhex("0x1.5590f931159cfp+1019")
SPAN_4_REFUSED = "control points of span 4 are too large to evaluate in floats"


class TestFillsCoverTheOtherKind:
    """A fill forms both kinds of its spans; an other-kind block that does not fit is skipped."""

    @pytest.mark.parametrize("paths", ["emc", "ecm", "mec", "mce", "cem", "cme"])
    def test_only_the_asked_span_raises(self, paths):
        curve = SplineCurve(2, KnotVector(OVERFLOW_KNOTS), OVERFLOW_POINTS)
        tau = BIG + 6.0
        for path in paths:
            if path == "e":
                assert same_bits(curve.evaluate([tau]), np.array([[SPAN_4_VALUE]]))
            elif path == "m":
                assert same_bits(curve.eval_matrix(tau), np.array([SPAN_4_VALUE]))
            else:
                with pytest.raises(DomainError, match="^%s$" % SPAN_4_REFUSED):
                    curve.eval_cumulative(tau)
        assert curve.stats()["spans_touched"] == 1

    def test_an_added_span_that_does_not_fit_is_skipped(self):
        # two more small points: span 7 fits in both kinds
        kv = KnotVector(OVERFLOW_KNOTS + [BIG + 100014, BIG + 100015])
        points = OVERFLOW_POINTS[:5] + [[1.0], [2.0], [3.0]]
        want = SplineCurve(2, kv, points).eval_cumulative(BIG + 100012.5)
        curve = SplineCurve(2, kv, points)
        # the matrix fill of span 4 forms its cumulative block, which does not fit
        assert same_bits(curve.eval_matrix(BIG + 6.0), np.array([SPAN_4_VALUE]))
        assert same_bits(curve.eval_cumulative(BIG + 100012.5), want)
        assert curve._pages[0]["c"][1].tolist() == [False] * 5 + [True]
        assert curve._fills == [1, 1, 1]
        with pytest.raises(DomainError, match="^%s$" % SPAN_4_REFUSED):
            curve.eval_cumulative(BIG + 6.0)
        assert same_bits(curve.evaluate([BIG + 6.0]), np.array([[SPAN_4_VALUE]]))

    def test_a_skipped_block_is_not_formed_again_by_later_fills(self, monkeypatch):
        kv = KnotVector(OVERFLOW_KNOTS + [BIG + 100014, BIG + 100015])
        curve = SplineCurve(2, kv, OVERFLOW_POINTS[:5] + [[1.0], [2.0], [3.0]])
        calls = []
        rows = SplineCurve._rows
        monkeypatch.setattr(SplineCurve, "_rows",
                            lambda self, *args: calls.append(list(args[-1])) or rows(self, *args))
        curve.eval_matrix(BIG + 6.0)  # span 4: its cumulative block does not fit
        curve.eval_cumulative(BIG + 100012.5)  # span 7
        curve.eval_matrix(BIG + 100011.5)  # span 6, in both kinds
        curve.eval_cumulative(BIG + 100011.5)
        assert sum(4 in spans for spans in calls) == 1
        assert calls == [[4], [7], [6]]


class TestEvenlySpacedFills:
    """Evenly spaced knots fill only the asked spans, as every other knot kind does."""

    @pytest.mark.parametrize("storage", ["rational", "float"])
    def test_a_span_nobody_asked_for_cannot_raise(self, storage):
        # span 4's points overflow in floats; tau = 30.5 reads points 27..30, all 0
        kv = KnotVector.uniform(40)
        assert kv.is_uniform and not kv.as_float().is_uniform
        points = np.zeros((36, 1))
        points[0], points[1] = sys.float_info.max / 2, -sys.float_info.max / 2
        curve = SplineCurve(3, kv if storage == "rational" else kv.as_float(), points)
        assert same_bits(curve.evaluate([30.5]), [[0.0]])
        assert same_bits(curve.eval_matrix(30.5), [0.0])
        assert same_bits(curve.eval_cumulative(30.5), [0.0])
        assert same_bits(curve._coxdeboor([30.5]), [[0.0]])
        with pytest.raises(DomainError, match="^%s$" % SPAN_4_REFUSED):
            curve.eval_matrix(4.5)

    def test_a_sparse_batch_fills_two_blocks_per_asked_span(self):
        # two pages; 3000 taus, so the batch runs in three chunks
        kv = KnotVector.uniform(_CHUNK + 200)
        points = np.random.default_rng(36).normal(size=(_CHUNK + 196, 2))
        spans = [3, 700, 1026, _CHUNK + 3, _CHUNK + 150]
        taus = np.repeat([j + 0.25 for j in spans], 600)
        curve = SplineCurve(3, kv, points)
        got = curve.evaluate(taus)
        stats = curve.stats()
        assert stats["blocks_filled"] == stats["spans_touched"] == 2 * len(spans)
        assert np.flatnonzero(curve._pages[1]["c"][1]).tolist() == [0, 147]
        # each block's bits are those of a fill of every span
        dense = SplineCurve(3, kv, points)
        dense._sample_grid(4 * (_CHUNK + 193))
        assert dense.stats()["spans_touched"] == 2 * (_CHUNK + 193)
        assert same_bits(got, dense.evaluate(taus))

    def test_pages_fill_in_ascending_order_so_the_lowest_refusal_raises(self):
        # spans 10..13 and _CHUNK + 100..103 read a point that overflows in floats
        kv = KnotVector.uniform(_CHUNK + 200)
        points = np.zeros((_CHUNK + 196, 1))
        points[10] = points[_CHUNK + 100] = sys.float_info.max / 2
        refused = "^control points of span 12 are too large to evaluate in floats$"
        with pytest.raises(DomainError, match=refused):
            SplineCurve(3, kv, points).eval_matrix(12.5)
        # the first chunk reaches the higher page only
        rng = np.random.default_rng(9)
        high = rng.permutation([_CHUNK + 101.5] * 8 + [_CHUNK + 50.5] * (_CHUNK - 8))
        low = rng.permutation([12.5, 5.5, 700.25, _CHUNK + 20.5] * (_CHUNK // 2))
        curve = SplineCurve(3, kv, points)
        with pytest.raises(DomainError, match=refused):
            curve.evaluate(np.concatenate([high, low]))
        assert curve.stats()["blocks_filled"] == 0
        assert not any(mask.any() for _, mask in curve._pages.get(1, {}).values())


def race_both_kinds(kv):
    """Matrix and cumulative threads start together on fresh curves of degree 3 over ``kv``.

    Each fill writes both kinds into the page that the first of them
    allocates, in both kinds at once.
    """
    rng = random.Random(35)
    pts = [[rng.uniform(-10.0, 10.0) for _ in range(2)] for _ in range(len(kv.values) - 4)]
    lo, hi = (float(v) for v in kv.domain(3))
    taus = np.linspace(lo, hi, 33)[:-1]
    serial = SplineCurve(3, kv, pts)
    want_m, want_c = serial.evaluate(taus), [serial.eval_cumulative(t) for t in taus]
    curve = SplineCurve(3, kv, pts)
    assert same_bits(curve.eval_cumulative(taus[1]), want_c[1])
    # the fill writes the asked span only, in both kinds
    assert curve._pages[0]["m"][1].sum() == curve._pages[0]["c"][1].sum() == 1

    def run(curve, barrier, thread):
        barrier.wait()
        if thread % 2:
            return [curve.eval_cumulative(t) for t in taus[thread::4]]
        return curve.evaluate(taus[thread::4])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(200):
                fresh, barrier = SplineCurve(3, kv, pts), threading.Barrier(4)
                futures = [pool.submit(run, fresh, barrier, i) for i in range(4)]
                got = [f.result(timeout=60) for f in futures]
                for i, values in enumerate(got):
                    want = want_c[i::4] if i % 2 else want_m[i::4]
                    assert all(np.array_equal(a, b) for a, b in zip(values, want))
                for kind in "mc":  # the serial curve's pages are full too
                    (blocks, filled), full = fresh._pages[0][kind], serial._pages[0][kind][0]
                    assert filled.all() and same_bits(blocks, full)
    finally:
        sys.setswitchinterval(old)


class TestConcurrency:
    def test_parallel_evaluation_is_consistent(self):
        rng = random.Random(31)
        curve = random_curve(rng, 3, 2, "clamped")
        lo, hi = (float(v) for v in curve.domain)
        taus = [rng.uniform(lo, hi) for _ in range(64)]
        expected = [curve.eval_matrix(t) for t in taus]
        fresh = random_curve(random.Random(31), 3, 2, "clamped")
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(fresh.eval_matrix, taus))
        for a, b in zip(expected, got):
            assert np.array_equal(a, b)

    def test_parallel_batches_fill_span_cache_consistently(self):
        # 8 threads fill disjoint spans of one fresh non-uniform curve,
        # racing each other on the shared span cache
        kv = clamped(3, [1, 3, 4, 7, 8, 10, 13, 14, 15, 18, 19, 21, 24, 25, 27, 30], 31)
        rng = random.Random(32)
        n = len(kv.values) - 4
        pts = [[rng.uniform(-10.0, 10.0) for _ in range(2)] for _ in range(n)]
        spans = [j for j in range(3, n) if kv.values[j] < kv.values[j + 1]]

        def batches(thread):
            out = []
            for j in spans[thread::8]:
                a, b = float(kv.values[j]), float(kv.values[j + 1])
                out.append(np.linspace(a, b, 5)[:-1])
            return out

        serial = SplineCurve(3, kv, pts)
        expected = [[serial.evaluate(t) for t in batches(i)] for i in range(8)]
        fresh = SplineCurve(3, kv, pts)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda i: [fresh.evaluate(t) for t in batches(i)], i)
                           for i in range(8)]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(old)
        for want_batches, got_batches in zip(expected, got):
            for a, b in zip(want_batches, got_batches):
                assert np.array_equal(a, b)
        every = np.concatenate([t for i in range(8) for t in batches(i)])
        assert np.array_equal(fresh.evaluate(every), serial.evaluate(every))

    def test_parallel_batches_fill_float_span_cache_consistently(self):
        # the float-knot counterpart: 8 threads fill disjoint spans of one
        # fresh curve, each chunk building its spans in one batch
        kv = KnotVector([0.0] * 4 + [1.0, 3.0, 4.0, 7.0, 7.0, 8.0, 10.0, 13.0, 14.0, 15.0,
                                     18.0, 19.0, 21.0, 24.0, 25.0, 27.0] + [30.0] * 4)
        assert kv.storage == "float" and not kv.is_uniform
        rng = random.Random(34)
        n = len(kv.values) - 4
        pts = [[rng.uniform(-10.0, 10.0) for _ in range(2)] for _ in range(n)]
        spans = positive_spans(kv, 3)

        def batches(thread):
            return [np.linspace(kv.values[j], kv.values[j + 1], 5)[:-1]
                    for j in spans[thread::8]]

        serial = SplineCurve(3, kv, pts)
        expected = [[(serial.evaluate(t), serial.evaluate(t, 1)) for t in batches(i)]
                    for i in range(8)]
        fresh = SplineCurve(3, kv, pts)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda i: [(fresh.evaluate(t), fresh.evaluate(t, 1))
                                                  for t in batches(i)], i)
                           for i in range(8)]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(old)
        for want_batches, got_batches in zip(expected, got):
            for (a, da), (b, db) in zip(want_batches, got_batches):
                assert np.array_equal(a, b) and np.array_equal(da, db)
        every = np.concatenate([t for i in range(8) for t in batches(i)])
        assert np.array_equal(fresh.evaluate(every), serial.evaluate(every))
        assert serial.stats()["spans_built"] == len(spans)
        # a racing fill may build a span twice, but a block is counted once
        assert fresh.stats()["spans_built"] >= len(spans)
        assert fresh.stats()["spans_touched"] == serial.stats()["spans_touched"] == 2 * len(spans)
        for j in spans:  # after the counts: each call builds the span's rows again
            for kind in "mc":
                i = "mc".index(kind)
                assert same_bits(fresh._rows([j])[i, 0], serial._rows([j])[i, 0])
        for kind in "mc":  # the blocks the racing fills stored, in both kinds
            (blocks, filled), (want, done) = fresh._pages[0][kind], serial._pages[0][kind]
            assert np.array_equal(filled, done) and same_bits(blocks[:, filled], want[:, done])

    def test_parallel_samples_replace_the_shared_plan_consistently(self):
        # eight threads, two per curve, over one vector: each alternates two
        # counts, so the view's one plan is replaced under the others
        kv = KnotVector([Fraction(i, 3) for i in range(1, 44)])
        rng = np.random.default_rng(36)
        points = [rng.normal(0.0, 10.0, (39, 1 + c)) for c in range(4)]
        want = []
        for pts in points:  # each reference curve over a vector of its own
            ref = SplineCurve(3, KnotVector(kv.values), pts)
            want.append({n: ref.sample(n) for n in (300, 700)})
        curves = [SplineCurve(3, kv, pts) for pts in points]
        barrier, got = threading.Barrier(8), [None] * 8

        def run(thread):
            barrier.wait()
            counts = (300, 700) if thread % 2 else (700, 300)
            got[thread] = [(n, curves[thread // 2].sample(n)) for n in counts * 25]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for thread, results in enumerate(got):
            assert len(results) == 50
            for n, rows in results:
                ref = want[thread // 2][n]
                for part in range(2):
                    assert same_bits(np.array([r[part] for r in rows]), [r[part] for r in ref])
        assert curves[0]._view.plan[0].n in (300, 700)

    def test_parallel_fills_of_both_kinds_on_a_fresh_page(self):
        race_both_kinds(KnotVector([0.0] * 4 + [1.0, 3.0, 4.0, 7.0, 8.0, 10.0, 13.0, 14.0]
                                   + [16.0] * 4))

    def test_parallel_fills_of_both_kinds_on_a_fresh_uniform_page(self):
        race_both_kinds(KnotVector.uniform(16))

    def test_parallel_fills_of_spans_sharing_a_window(self):
        # clamped knots with a uniform interior: 32 spans over 8 edge windows
        # and one interior window shared by 24 spans, built by whichever
        # thread gets there first
        kv = clamped(5, range(1, 32), 32)
        rng = random.Random(33)
        n = len(kv.values) - 6
        pts = [[rng.uniform(-10.0, 10.0) for _ in range(3)] for _ in range(n)]
        spans = positive_spans(kv, 5)

        def batches(thread):
            return [np.linspace(float(kv.values[j]), float(kv.values[j + 1]), 5)[:-1]
                    for j in spans[thread::8]]

        uniform_basis_matrix.cache_clear()
        serial = SplineCurve(5, kv, pts)
        expected = [[(serial.evaluate(t), serial.evaluate(t, 1)) for t in batches(i)]
                    for i in range(8)]
        # the threads race to build the windows, not to find them built
        uniform_basis_matrix.cache_clear()
        fresh = SplineCurve(5, kv, pts)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda i: [(fresh.evaluate(t), fresh.evaluate(t, 1))
                                                  for t in batches(i)], i)
                           for i in range(8)]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(old)
        for want_batches, got_batches in zip(expected, got):
            for (a, da), (b, db) in zip(want_batches, got_batches):
                assert np.array_equal(a, b) and np.array_equal(da, db)
        assert serial.stats()["spans_built"] == 9
        # every span is filled by one thread: a lost update would break the sum
        stats = fresh.stats()
        assert stats["spans_built"] >= 9
        assert stats["spans_built"] + stats["window_hits"] == len(spans) == 32
        # a block is counted by the one fill that stores it, in both kinds
        assert stats["spans_touched"] == 64
        for j in spans:  # after the counts: each call looks the window up again
            for kind in "mc":
                i = "mc".index(kind)
                assert same_bits(fresh._rows([j])[i, 0], serial._rows([j])[i, 0])
        for kind in "mc":  # the blocks the racing fills stored, in both kinds
            (blocks, filled), (want, done) = fresh._pages[0][kind], serial._pages[0][kind]
            assert np.array_equal(filled, done) and same_bits(blocks[:, filled], want[:, done])

