import math
import random
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from splinemat import (
    MAX_DEGREE,
    BasisMatrix,
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

    def test_one_dimensional_points_get_a_column(self):
        assert CUBIC.points.shape == (4, 1)
        assert CUBIC.dim == 1 and CUBIC.count == 4

    def test_points_are_read_only(self):
        with pytest.raises(ValueError):
            CUBIC.points[0] = 9.0

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
            assert curve._view.oracle.storage == "float"
            for tau in taus:
                assert (curve.eval_coxdeboor(tau) == fraction_reference(curve, tau)).all()

    def test_knot_a_double_cannot_hold_keeps_the_fractions(self):
        third = Fraction(1, 3)
        curve = SplineCurve(1, KnotVector([-4, Fraction(-1, 4), third, 1, 3]),
                            [[-1.0], [-4.0], [4.0]])
        tau = float(third)
        got = curve.eval_coxdeboor(tau)
        assert (got == fraction_reference(curve, tau)).all()
        assert curve._view.oracle is curve.knots
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
        assert curve._view.oracle is curve.knots
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
        # every knot is a double, but their range overflows one: a float
        # copy of these knots is no valid KnotVector, so the oracle keeps them
        big = 2 ** 1023
        curve = SplineCurve(1, KnotVector([-big, -big, 0, 1, big, big]),
                            [[0.0], [1.0], [2.0], [3.0]])
        assert curve._view.oracle is curve.knots
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


class TestFloatConstruction:
    @pytest.mark.parametrize("degree", range(1, 11))
    def test_batched_rows_equal_the_float_loop_bit_for_bit(self, degree):
        for kv in float_knot_family(degree, 200 + degree):
            assert kv.storage == "float" and not kv.is_uniform
            curve = SplineCurve(degree, kv, np.zeros((len(kv.values) - degree - 1, 1)))
            spans = positive_spans(kv, degree)
            for kind in "mc":
                rows = curve._rows(kind, spans)
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
                    rows = curve._rows(kind, [j])[0]
                    assert rows.shape == (degree + 1, degree + 1)
                    want = horner(np.array(centred(exact).as_float_rows()), (u - 0.5)[:, None])
                    assert np.abs(horner(rows, (u - 0.5)[:, None]) - want).max() <= 1e-12
                basis = horner(curve._rows("m", [j])[0], (u - 0.5)[:, None])
                assert np.abs(basis.sum(axis=1) - 1.0).max() <= 1e-12


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
            assert same_bits(curve._rows("m", [j])[0], centred(m).as_float_rows())
            assert same_bits(curve._rows("c", [j])[0],
                             centred(cumulative_matrix(m)).as_float_rows())
            assert curve._exact_matrix(j).entries == centred(m).entries

    def test_uniform_matrices_equal_fraction_recursion(self):
        for k, want in enumerate(fraction_uniform_matrices(30)):
            got = uniform_basis_matrix(k).entries
            assert got == want
            assert all(type(v) is Fraction for row in got for v in row)

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
        for t in mids[:5]:
            curve.eval_matrix(t)
        assert curve.stats()["spans_touched"] == 5
        curve.evaluate(mids)
        assert curve.stats()["spans_touched"] == 60
        # derivatives share the matrix blocks; repeated points build nothing
        curve.evaluate(mids, derivative=1)
        for t in mids + mids:
            curve.eval_derivative(t, 2)
        assert curve.stats()["spans_touched"] == 60
        for t in mids:
            curve.eval_cumulative(t)
        curve.evaluate(mids)
        assert curve.stats()["spans_touched"] == 120

    def test_stats_count_every_block_of_a_uniform_table(self):
        curve = SplineCurve(3, KnotVector.uniform(20), np.zeros((16, 2)))
        curve.eval_matrix(5.5)
        assert curve.stats()["spans_touched"] == 13
        curve.sample(50)
        curve.eval_cumulative(7.5)
        # the table's one knot window is built once
        stats = curve.stats()
        assert (stats["spans_built"], stats["window_hits"], stats["spans_touched"]) == (1, 0, 26)
        assert stats["build_s"] > 0.0

    def test_stats_count_every_span_on_float_knots(self):
        kv = KnotVector([0.0] * 4 + [1.0, 2.0, 3.0, 4.0] + [5.0] * 4)
        curve = SplineCurve(3, kv, np.zeros((8, 1)))
        curve.evaluate(np.linspace(0.0, 5.0, 50))
        stats = curve.stats()
        assert (stats["spans_built"], stats["window_hits"]) == (5, 0)


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
        for j in spans:
            for kind in "mc":
                assert same_bits(fresh._rows(kind, [j])[0], serial._rows(kind, [j])[0])
        assert serial.stats()["spans_built"] == len(spans)
        # a racing fill may build a span twice, but a block is counted once
        assert fresh.stats()["spans_built"] >= len(spans)
        assert fresh.stats()["spans_touched"] == serial.stats()["spans_touched"] == len(spans)

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

        serial = SplineCurve(5, kv, pts)
        expected = [[(serial.evaluate(t), serial.evaluate(t, 1)) for t in batches(i)]
                    for i in range(8)]
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
        for j in spans:
            for kind in "mc":
                assert same_bits(fresh._rows(kind, [j])[0], serial._rows(kind, [j])[0])
        assert serial.stats()["spans_built"] == 9
        # every span is filled by one thread: a lost update would break the sum
        stats = fresh.stats()
        assert stats["spans_built"] >= 9
        assert stats["spans_built"] + stats["window_hits"] == len(spans) == 32
        # a block is counted by the one fill that stores it
        assert stats["spans_touched"] == 32
