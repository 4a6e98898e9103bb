"""Property tests of the batched evaluation core, ``SplineCurve.evaluate``,
and of the exact span matrices it is built from.

Knot vectors are drawn with repeated knots (multiplicity up to the degree
inside, up to degree + 1 at the ends; the recursion test also draws the
last interior knot up to degree + 1 times), in integer, rational (thirds,
sevenths, tenths: not exactly representable as doubles) and float storage,
evenly spaced or not.  Parameters are drawn at knots, at both domain ends,
inside spans and one step outside the domain, both as floats and exactly.
"""

import math
import re
from fractions import Fraction
from functools import partial
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from splinemat import (
    DomainError,
    KnotVector,
    SplineCurve,
    basis,
    basis_row,
    cumulative_basis,
    cumulative_matrix,
    find_span,
    general_basis_matrix,
    lambda_weights,
    normalize,
)
from splinemat.curve import _CHUNK, _windows
from splinemat.knots import span_of

SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def row_gaps(a, b):
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    scale = np.maximum(1.0, np.maximum(np.abs(a).max(axis=1), np.abs(b).max(axis=1)))
    return np.abs(a - b).max(axis=1) / scale


@st.composite
def curves(draw, storages=("integer", "rational", "float"), closed_end=False):
    k = draw(st.integers(0, 5))
    storage = draw(st.sampled_from(storages))
    even = draw(st.booleans())
    breaks_count = draw(st.integers(k + 2, 2 * k + 6))
    if even:
        gaps = [draw(st.integers(1, 9))] * (breaks_count - 1)
    else:
        gaps = draw(st.lists(st.integers(1, 9), min_size=breaks_count - 1,
                             max_size=breaks_count - 1))
    if storage == "float":
        scale = draw(st.sampled_from([0.1, 0.37, 1.0, 2.5]))
        breaks = list(accumulate((g * scale for g in gaps),
                                 initial=float(draw(st.integers(-20, 20)))))
    else:
        q = 1 if storage == "integer" else draw(st.sampled_from([3, 7, 10]))
        breaks = list(accumulate((Fraction(g, q) for g in gaps),
                                 initial=Fraction(draw(st.integers(-20, 20)), q)))
    if even:
        mults = [1] * breaks_count
    else:
        inner = st.integers(1, max(k, 1))
        mults = ([draw(st.integers(1, k + 1))]
                 + [draw(inner) for _ in range(breaks_count - 2)]
                 + [draw(st.integers(1, k + 1))])
        if closed_end and breaks_count > 2:
            # mostly k + 1, where the curve jumps and the domain can end
            # before a larger knot
            mults[-2] = draw(st.one_of(st.just(k + 1), st.integers(1, k + 1)))
    values = [b for b, m in zip(breaks, mults) for _ in range(m)]
    assume(len(values) >= 2 * k + 2)
    kv = KnotVector(values)
    lo, hi = kv.domain(k)
    assume(lo < hi)
    n = len(values) - k - 1
    seed = draw(st.integers(0, 2 ** 32 - 1))
    points = np.random.default_rng(seed).normal(0.0, 10.0, (n, 2))
    return SplineCurve(k, kv, points)


@st.composite
def curves_and_taus(draw, closed_end=False):
    curve = draw(curves(closed_end=closed_end))
    lo, hi = curve.domain
    lo_f, hi_f = float(lo), float(hi)
    inside = st.floats(0.0, 1.0).map(lambda f: min(hi_f, lo_f + f * (hi_f - lo_f)))
    at_knot = st.sampled_from(curve.knots.values)
    at_end = st.sampled_from([lo, hi])
    outside = st.sampled_from([math.nextafter(lo_f, -math.inf), math.nextafter(hi_f, math.inf)])
    exact = st.one_of(at_knot, at_end)
    taus = draw(st.lists(st.one_of(inside, exact.map(float), exact, outside),
                         min_size=1, max_size=12))
    if closed_end:
        taus += [hi, hi_f]
    return curve, taus


def rejects(fn, tau) -> bool:
    try:
        fn(tau)
    except DomainError:
        return True
    return False


def in_domain(curve, taus):
    return [t for t in taus if not rejects(partial(find_span, curve.knots, curve.degree), t)]


@SETTINGS
@given(curves_and_taus())
def test_batched_span_index_equals_find_span(case):
    curve, taus = case
    floats = np.array([t for t in in_domain(curve, taus) if isinstance(t, float)], dtype=float)
    spans, u = curve._locate(floats)
    want = [find_span(curve.knots, curve.degree, t) for t in floats.tolist()]
    assert spans.tolist() == want
    # the float of a rounded knot may sit an ulp past the span's end
    assert np.all((u >= -1e-12) & (u <= 1.0 + 1e-12))


@SETTINGS
@given(curves(storages=("integer", "float"), closed_end=True),
       st.lists(st.floats(0.0, 1.0), max_size=8))
def test_batch_oracle_span_equals_span_of(curve, shares):
    # knots stored as floats, or integers that are exactly doubles: the
    # oracle runs on float knots, and its batch takes one float search
    fk, k = curve._view, curve.degree
    assert fk.exact
    knots = [float(v) for v in curve.knots.values]
    taus = ([fk.lo, fk.hi] + [t for t in knots if fk.lo <= t <= fk.hi]
            + [min(fk.hi, fk.lo + s * (fk.hi - fk.lo)) for s in shares])
    spans, _ = _windows(fk, curve.knots, k, np.array(taus))
    assert spans.tolist() == [span_of(tuple(knots), k, t) for t in taus]


@SETTINGS
@given(curves_and_taus(closed_end=True))
def test_evaluate_agrees_with_recursion(case):
    curve, taus = case
    good = in_domain(curve, taus)
    for batch in ([t for t in good if isinstance(t, float)],
                  [t for t in good if not isinstance(t, float)]):
        if not batch:
            continue
        got = curve.evaluate(np.array(batch, dtype=float if isinstance(batch[0], float) else object))
        ref = np.array([curve.eval_coxdeboor(t) for t in batch])
        assert curve._coxdeboor(batch).tobytes() == ref.tobytes()
        assert got.shape == (len(batch), curve.dim)
        assert row_gaps(got, ref).max() <= 1e-10
        cumulative = np.array([curve.eval_cumulative(t) for t in batch])
        assert row_gaps(cumulative, ref).max() <= 1e-10


@SETTINGS
@given(curves_and_taus())
def test_first_derivative_agrees_with_scipy(case):
    curve, taus = case
    assume(curve.degree >= 1)
    # A double equal to the rounding of an inexact knot lies on one side of
    # the exact knot, while scipy sees it on the knot: where the slope jumps
    # the two sides differ, so such parameters are left out.  So is the
    # right end, where this library takes the slope of the last span and
    # scipy may take the span past a repeated end knot.
    skip = {float(v) for v in curve.knots.values if float(v) != v} | {float(curve.domain[1])}
    floats = [t for t in in_domain(curve, taus) if isinstance(t, float) and t not in skip]
    assume(floats)
    knots = np.array([float(v) for v in curve.knots.values])
    slope = BSpline(knots, curve.points, curve.degree).derivative()
    got = curve.evaluate(np.array(floats), derivative=1)
    assert row_gaps(got, slope(np.array(floats))).max() <= 1e-9


@SETTINGS
@given(curves_and_taus())
def test_domain_error_exactly_where_check_tau_rejects(case):
    curve, taus = case
    check = partial(find_span, curve.knots, curve.degree)
    for t in taus:
        assert rejects(curve.evaluate, [t]) == rejects(check, t)
        assert rejects(curve.eval_cumulative, t) == rejects(check, t)
        assert rejects(curve._coxdeboor, [t]) == rejects(check, t)
    floats = [t for t in taus if isinstance(t, float)]
    if floats:
        any_bad = any(rejects(check, t) for t in floats)
        assert rejects(curve.evaluate, np.array(floats)) == any_bad


@SETTINGS
@given(curves(storages=("integer", "rational")),
       st.fractions(0, 1, max_denominator=1000).filter(lambda u: u < 1))
def test_exact_span_matrices_equal_recursion(curve, u):
    kv, k = curve.knots, curve.degree
    for j in range(k, len(kv.values) - k - 1):
        a, b = kv.values[j], kv.values[j + 1]
        if a == b:
            continue
        tau = a + u * (b - a)
        m = general_basis_matrix(kv, k, j)
        assert basis_row(m, u) == [basis(kv, j - k + c, k, tau) for c in range(k + 1)]
        assert lambda_weights(cumulative_matrix(m), u) \
            == [cumulative_basis(kv, j - k + c, k, tau) for c in range(k + 1)]


@SETTINGS
@given(curves(storages=("float",)), st.sampled_from([1e-8, 1e-3, 1.0, 1e3, 1e8]),
       st.lists(st.floats(0.0, 1.0), max_size=8))
def test_float_and_rational_storage_agree(curve, scale, fractions):
    # float knots build span matrices in double precision, their exact
    # copy builds them in rationals
    kv = KnotVector([v * scale for v in curve.knots.values])
    k, points = curve.degree, curve.points
    floats = SplineCurve(k, kv, points)
    exact = SplineCurve(k, kv.as_rational(), points)
    lo, hi = floats.domain
    taus = [t for t in kv.values if lo <= t <= hi] + [lo, hi]
    taus += [min(hi, lo + f * (hi - lo)) for f in fractions]
    assert row_gaps(floats.evaluate(taus), exact.evaluate(taus)).max() <= 1e-10
    cumulative = [row_gaps(floats.eval_cumulative(t), exact.eval_cumulative(t)) for t in taus]
    assert max(cumulative) <= 1e-10


def test_inexact_bounds_fall_back_to_exact_lookup():
    # float(1/3) lies below the exact bound 1/3, float(2/3) below 2/3
    third = Fraction(1, 3)
    curve = SplineCurve(1, KnotVector([0, third, 2 * third, 1]), [[0.0], [1.0]])
    assert float(third) < third and float(2 * third) < 2 * third
    with pytest.raises(DomainError):
        curve.evaluate([float(third)])
    # a batch names the first tau outside, whichever bounds decide it
    for batch_path in (curve.evaluate, curve._coxdeboor):
        with pytest.raises(DomainError, match="0.3333333333333333 not in"):
            batch_path([float(third), 0.0])
    assert curve.evaluate([float(2 * third)])[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert curve.evaluate([third, 2 * third]).tolist() == [[0.0], [1.0]]


def test_inexact_knots_that_round_up_bound_the_float_lookup():
    # float(1/10) lies above the exact bound 1/10, float(11/10) above 11/10
    tenth, top = Fraction(1, 10), Fraction(11, 10)
    curve = SplineCurve(1, KnotVector([0, tenth, Fraction(1, 2), top, 2]),
                        [[0.0], [1.0], [3.0]])
    assert float(tenth) > tenth and float(top) > top
    # float(1/10) is inside, in the span right of the knot 1/10
    spans, u = curve._locate([float(tenth)])
    assert spans.tolist() == [1] and u.tolist() == [0.0]
    want = curve.evaluate([float(tenth)])
    assert (curve.eval_matrix(float(tenth)) == want[0]).all()
    assert curve._coxdeboor([float(tenth)]) == pytest.approx(want, abs=1e-15)
    # the double below float(1/10), and float(11/10), lie outside
    for tau in (math.nextafter(float(tenth), 0.0), float(top)):
        for path in (curve.evaluate, curve._coxdeboor):
            with pytest.raises(DomainError, match="%s not in" % re.escape(str(tau))):
                path([tau])
        with pytest.raises(DomainError, match="%s not in" % re.escape(str(tau))):
            curve.eval_matrix(tau)


def test_derivative_orders_and_shapes():
    curve = SplineCurve(3, KnotVector.uniform(8), [0, 1, 2, 3])
    taus = np.linspace(3.0, 4.0, 5)
    assert curve.evaluate(taus).shape == (5, 1)
    assert np.allclose(curve.evaluate(taus, derivative=1), 1.0)
    assert np.array_equal(curve.evaluate(taus, derivative=4), np.zeros((5, 1)))
    assert curve.evaluate([]).shape == (0, 1)
    with pytest.raises(ValueError):
        curve.evaluate(taus, derivative=-1)
    with pytest.raises(ValueError):
        curve.evaluate([[3.5]])


def test_batches_longer_than_a_chunk():
    kv = KnotVector([0, 0, 0, 1, 3, 4, 8, 9, 9, 9])
    curve = SplineCurve(2, kv, np.arange(14.0).reshape(7, 2))
    taus = np.linspace(0.0, 9.0, 3 * _CHUNK + 7)
    got = curve.evaluate(taus)
    for i in range(0, len(taus), 97):
        assert row_gaps(got[i], curve.eval_coxdeboor(float(taus[i]))).max() <= 1e-12


def test_span_cache_grows_with_touched_spans_only():
    import tracemalloc

    # 20000 spans of alternating widths: a table sized by the knot vector
    # would take 20000 * 4 * 4 floats (2.56 MB) on the first touch
    kv = KnotVector([float(v) for v in accumulate([0] + [1, 2] * 10_000)])
    n = len(kv.values) - 4
    curve = SplineCurve(3, kv, np.zeros((n, 1)))
    full = (len(kv.values) - 1) * 4 * 4 * 8
    curve.evaluate([10.5])  # first use, outside the trace
    tracemalloc.start()
    try:
        curve.evaluate([1000.5])
        curve.eval_cumulative(2000.5)
        # scalar calls cache column lists, not blocks
        curve.eval_matrix(1000.5)
        curve.eval_derivative(1000.5, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full / 20
    # one (k+1, P, d) page per touched page and kind, one filled block per
    # touched span and kind
    pages = {(kind, page): entry for page, store in curve._pages.items()
             for kind, entry in store.items()}
    filled = sorted((kind, 3 + page * _CHUNK + int(i))
                    for (kind, page), (_, mask) in pages.items() for i in np.flatnonzero(mask))
    spans = [find_span(kv, 3, t) for t in (10.5, 1000.5, 2000.5)]
    assert filled == [(kind, j) for kind in "cm" for j in spans]  # a fill forms both kinds
    assert all(blocks.shape == (4, _CHUNK, 1) for blocks, _ in pages.values())
    assert curve.stats()["spans_touched"] == 6


def test_a_curve_holds_its_pages_not_its_rows():
    import tracemalloc

    # a span's rows take 2 * 31 * 31 floats (15.4 KB) at k = 30, its two
    # blocks 2 * 31 * 3 (1.5 KB)
    k, spans = 30, 300
    rng = np.random.default_rng(41)
    kv = KnotVector(np.cumsum(rng.uniform(0.5, 2.0, spans + 2 * k + 1)).tolist())
    curve = SplineCurve(k, kv, rng.normal(size=(spans + k, 3)))
    mids = [(kv.values[j] + kv.values[j + 1]) / 2 for j in range(k, k + spans)]
    tracemalloc.start()
    try:
        curve.evaluate(mids)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pages = [blocks.nbytes for store in curve._pages.values() for blocks, _ in store.values()]
    assert held <= 1.5 * sum(pages)
    # the two kinds' pages, and no per-span entry
    assert sorted((kind, page) for page, store in curve._pages.items()
                  for kind in store) == [("c", 0), ("m", 0)]
    assert curve._columns == {}


@st.composite
def paged_curves_and_taus(draw):
    """A curve of more than one page of spans, and float taus that cross pages."""
    kind = draw(st.sampled_from(["uniform", "clamped", "float", "repeated"]))
    k = draw(st.integers(1 if kind == "repeated" else 0, 4))
    spans = _CHUNK + draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "uniform":
        values = np.arange(spans + 2 * k + 1).tolist()
        values = [float(v) for v in values] if draw(st.booleans()) else values
    elif kind == "clamped":
        values = [0] * k + list(range(spans + 1)) + [spans] * k
    else:
        gaps = rng.uniform(0.5, 2.0, spans + 2 * k)
        if kind == "repeated":  # interior knots of multiplicity 2
            gaps[rng.choice(np.arange(k + 1, spans + k - 1, 2), spans // 8)] = 0.0
        values = list(accumulate(gaps.tolist(), initial=0.0))
    curve = SplineCurve(k, KnotVector(values), rng.normal(size=(len(values) - k - 1, 2)))
    lo, hi = (float(v) for v in curve.domain)
    seam = float(curve.knots.values[k + _CHUNK])  # the first knot of the second page
    near = (max(lo, seam - 3.0), min(hi, seam + 3.0))
    n = draw(st.integers(1, 3 * _CHUNK // 2))
    taus = np.concatenate([rng.uniform(lo, hi, n), rng.uniform(*near, n // 4), [lo, seam, hi],
                           draw(st.lists(st.floats(*near), max_size=4))])
    return curve, np.sort(taus) if draw(st.booleans()) else rng.permutation(taus)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(paged_curves_and_taus())
def test_page_store_batch_equals_scalar_views(case):
    curve, taus = case
    k = curve.degree
    spans, u = curve._locate(taus)
    # the cumulative blocks of the first half only
    half = len(taus) // 2
    cumulative = curve._combine(spans[:half], u[:half], "c")
    batches = [curve.evaluate(taus, order) for order in range(k + 2)]
    ref = curve._coxdeboor(taus)
    assert row_gaps(batches[0], ref).max() <= 1e-10
    assert row_gaps(cumulative, ref[:half]).max() <= 1e-10
    for i in range(0, len(taus), max(1, len(taus) // 40)):
        tau = float(taus[i])
        assert curve.eval_matrix(tau).tobytes() == batches[0][i].tobytes()
        for order in range(1, k + 2):
            assert curve.eval_derivative(tau, order).tobytes() == batches[order][i].tobytes()
        if i < half:
            assert curve.eval_cumulative(tau).tobytes() == cumulative[i].tobytes()
    # a fill forms both kinds of the touched spans, and of no other span
    assert curve.stats()["spans_touched"] == 2 * len(set(spans.tolist()))


def test_recursion_batch_memory_is_bounded_by_its_passes():
    import tracemalloc

    # the curve above: a whole-range table for every tau would hold
    # 4096 * 20003 entries (655 MB); a span's window holds k + 2
    kv = KnotVector([float(v) for v in accumulate([0] + [1, 2] * 10_000)])
    n = len(kv.values) - 4
    curve = SplineCurve(3, kv, np.arange(n, dtype=float)[:, None])
    lo, hi = (float(v) for v in curve.domain)
    taus = np.linspace(lo, hi, 4096)
    tracemalloc.start()
    try:
        got = curve._coxdeboor(taus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    for i in (0, 1, 2047, 4095):
        assert got[i].tobytes() == curve.eval_coxdeboor(float(taus[i])).tobytes()


def wide_span_knots(k, width):
    """Unit gaps with one gap ``width`` wide, k+1 unit gaps on each side."""
    return KnotVector(list(accumulate([1] * (k + 1) + [width] + [1] * (k + 1), initial=0)))


@pytest.mark.parametrize("k, width, storage", [
    pytest.param(k, width, storage, id="%d-%d%s" % (k, width, "-float" * (storage == "float")))
    for k in (10, 20, 30) for width in (10 ** 3, 10 ** 6) for storage in ("rational", "float")])
def test_wide_span_matches_exact_reference(k, width, storage):
    # the span matrices next to a wide span have entries far larger than
    # the basis values; Horner in u over [0, 1] loses up to 13 digits at
    # k=30, Horner in u - 1/2 keeps the error below 1e-10.  Float-stored
    # knots build the centred matrices in double precision.
    kv = wide_span_knots(k, width)
    if storage == "float":
        kv = kv.as_float()
    assert kv.storage == storage
    exact_kv = kv.as_rational()
    points = np.random.default_rng(k).normal(0.0, 10.0, (len(kv.values) - k - 1, 2))
    curve = SplineCurve(k, kv, points)
    lo, hi = (float(v) for v in curve.domain)
    taus = np.linspace(lo, hi, 41).tolist()
    exact_points = [[Fraction(p) for p in row] for row in points.tolist()]
    matrices = {}
    want = []
    for tau in taus:
        j = find_span(exact_kv, k, tau)
        if j not in matrices:
            matrices[j] = general_basis_matrix(exact_kv, k, j)
        weights = basis_row(matrices[j], normalize(exact_kv, j, Fraction(tau)))
        local = exact_points[j - k: j + 1]
        want.append([float(sum(w * p[i] for w, p in zip(weights, local)))
                     for i in range(curve.dim)])
    assert row_gaps(curve.evaluate(taus), want).max() <= 1e-10
    assert row_gaps([curve.eval_matrix(t) for t in taus], want).max() <= 1e-10
    assert row_gaps([curve.eval_cumulative(t) for t in taus], want).max() <= 1e-10


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the DomainError message it raised."""
    try:
        return fn(*args)
    except DomainError as err:
        return "DomainError: %s" % err


@SETTINGS
@given(curves_and_taus(), st.data())
def test_scalar_views_equal_the_batch_bit_for_bit(case, data):
    curve, taus = case
    k = curve.degree
    # int parameters where a knot or domain end is an integer, and exact
    # copies of float parameters
    taus += [int(t) for t in taus if isinstance(t, Fraction) and t.denominator == 1]
    taus += [Fraction(t) for t in taus[:3] if isinstance(t, float)]
    taus.append(data.draw(st.sampled_from([math.nan, -math.inf, math.inf])))
    for tau in taus:
        batch = outcome(curve.evaluate, [tau])
        if isinstance(batch, str):
            assert outcome(curve.eval_matrix, tau) == batch
            assert outcome(curve.eval_cumulative, tau) == batch
            assert outcome(curve.eval_derivative, tau, 1) == batch
            continue
        slopes = {order: curve.evaluate([tau], order)[0] for order in range(1, k + 2)}
        spans, u = curve._locate([tau])
        cumulative = curve._combine(spans, u, "c")[0]
        # every view twice: cold with the orders rising, then with every
        # cached column list warm and the orders falling
        for orders in (range(1, k + 2), range(k + 1, 0, -1)):
            assert np.array_equal(curve.eval_matrix(tau), batch[0])
            for order in orders:
                assert np.array_equal(curve.eval_derivative(tau, order), slopes[order])
            assert np.array_equal(curve.eval_cumulative(tau), cumulative)
