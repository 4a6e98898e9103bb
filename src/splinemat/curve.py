"""Spline curves in R^d with three mutually cross-checking evaluation paths.

The recursive path sums every basis function against its control point and
serves as the slow reference.  The matrix path looks up the span, maps the
parameter to [0, 1], and applies the span's basis matrix to the k+1 local
control points.  The cumulative path writes the same span value as the
first local point plus weighted differences of consecutive points.  All
three agree to floating-point accuracy on the whole evaluable domain.

The matrix, cumulative and derivative paths share one float core over
per-span coefficient blocks, de Boor's piecewise-polynomial form: the
span's basis matrix, Taylor-centred at u = 1/2, times its k+1 local
control points (the cumulative block applies the centred cumulative matrix
to the first point and the differences).  The blocks live in power-major
pages of consecutive spans; on every knot kind a batch visits each page it
touches once, whose one fill builds the missing blocks in both kinds from
one set of rows.  ``polytoeplitz.horner`` evaluates them in v = u - 1/2,
over a page's gathered blocks ``_CHUNK`` parameters at a time for arrays
and, with the same result bit for bit, in Python floats for a single
parameter: its span from the float view's one search (``_FloatKnots.find``,
a ``bisect`` for one double), then the span's cached column lists.
Centring keeps the power form well conditioned next to wide spans (Farouki
& Rajan 1987).  The degree recursion builds the centred matrices directly:
on exact knots, exact until one rounding per entry and once per knot window
in the process (evenly spaced knots have one); on float-stored knots, by
one batched double-precision recursion per fill over the spans' windows.
"""

from __future__ import annotations

import math
import operator
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import coxdeboor
from .basismatrix import float_rows, float_span_columns, span_window, window_part
from .errors import DegenerateSpan, DomainError
from .knots import KnotVector, find_span, normalize, span_of
from .polytoeplitz import horner

# Parameters per pass of the batched core, and spans per page of blocks.
# Scratch memory per pass is O(_CHUNK * (k+1) * d) floats whatever the
# number of parameters, and O(_CHUNK * (k+1)^2) more in a fill, which
# builds the matrices of at most one page of new spans.
_CHUNK = 1024


@dataclass(frozen=True)
class _SamplePlan:
    """What ``_sample_grid(n)`` derives from the knots alone; its arrays are read-only."""

    n: int
    grid: np.ndarray  # the clipped grid, handed out as is
    inner: object  # slice(None) if every parameter is in the float domain, else ``_batch``'s mask
    ends: tuple  # the exact domain end in place of each parameter outside, in grid order
    spans: np.ndarray  # ``_locate`` of grid[inner]
    u: np.ndarray


@dataclass(frozen=True)
class _FloatKnots:
    """Float tables for span lookup and the oracle, one per knots and degree.

    The tables are read-only.  ``plan`` is one slot: the sample plan of the
    last ``_sample_grid`` count n <= ``_CHUNK`` asked of these knots and
    degree: 24 n bytes of arrays, n more for a mask if a parameter rounds
    outside the domain.  It is shared by every curve over them and
    replaced whole when another n is asked.
    """

    values: np.ndarray  # the nearest double of each knot
    bounds: np.ndarray  # the smallest double >= each knot up to span ``last``'s start
    # float(exact width) per span, so that u matches ``normalize`` bit for
    # bit; NaN where that is not a positive finite double: no float tau
    # is evaluated in such a span
    widths: np.ndarray
    lo: float  # the smallest double in the evaluable domain
    hi: float  # the largest double in it
    last: int  # last span of positive width; -1 if none
    exact: bool  # every knot is its double in ``values``, and their range is finite
    views: tuple  # zero-copy memoryviews of bounds, values, widths for ``_point``
    plan: list = field(default_factory=lambda: [None], compare=False)  # [_SamplePlan or None]

    def find(self, taus: np.ndarray) -> np.ndarray:
        """Piegl & Tiller's FindSpan (A2.1) over a batch of doubles in [lo, hi].

        The bounds are cut at ``last``, so every such double gets ``span_of``'s
        span; ``_point``'s ``bisect_right`` over ``views`` is the one-double form.
        """
        return np.searchsorted(self.bounds, taus, side="right") - 1


@dataclass(frozen=True, eq=False)
class SplineCurve:
    """Degree, knots, and an (N, d) float array of control points.

    Counts are tied: a degree-k curve over M knots carries N = M - k - 1
    control points, copied into a private read-only C-contiguous array: a
    block's bits depend on their values alone.  Instances are immutable and
    compare and hash by identity; evaluation is pure and safe to run
    concurrently.  Coefficient blocks are stored in pages of ``_CHUNK``
    consecutive spans, each allocated in both kinds when one of its spans
    is first touched: 2 (k+1) P d floats per touched page, P = ``_CHUNK``;
    the rows a fill applies are scratch.  Only ``_page``, ``_point`` and
    ``stats()`` know the store's layout.  A block is written whole before
    its kind's mask marks it filled, so a reader never sees a half-built
    block; two racing fills only write the same bytes twice.
    """

    degree: int
    knots: KnotVector
    points: np.ndarray

    def __init__(self, degree: int, knots: KnotVector, points):
        degree = operator.index(degree)  # TypeError for a float, even 3.0
        if degree < 0:
            raise ValueError("degree must be non-negative")
        try:
            pts = np.array(points, dtype=float, order="C")  # a private copy
        except OverflowError:  # an int coordinate beyond the float range
            raise ValueError("control points must be finite") from None
        except ValueError:  # ragged rows, or a coordinate that is no number
            raise ValueError("control points must form an (N, d) array") from None
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
            raise ValueError("control points must form an (N, d) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("control points must be finite")
        n = pts.shape[0]
        if n < degree + 1:
            raise ValueError("need at least %d control points for degree %d, got %d"
                             % (degree + 1, degree, n))
        if len(knots.values) != n + degree + 1:
            raise ValueError("knot count %d does not match %d points of degree %d (want %d)"
                             % (len(knots.values), n, degree, n + degree + 1))
        pts.setflags(write=False)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "points", pts)
        # every curve of this degree over these knots shares the tables
        object.__setattr__(self, "_view", knots._derived(("view", degree), _float_view,
                                                         knots, degree))
        object.__setattr__(self, "_pages", {})  # page -> {"m": (blocks, mask), "c": ...}
        object.__setattr__(self, "_columns", {})  # (kind, order, span) -> _point's lists
        object.__setattr__(self, "_builds", [])  # per _rows call: (built, seconds, hits)
        object.__setattr__(self, "_fills", [])  # blocks written, per kind and fill

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def domain(self) -> tuple:
        return self.knots.domain(self.degree)

    def _rows(self, spans: list) -> np.ndarray:
        """Float rows (2, s, k+1, k+1) of ``spans``: centred matrices, then cumulative forms.

        Scratch for one fill, kept by no curve: read-only ``float_rows``,
        by one ``float_span_columns`` call on float-stored knots, else from
        each window's shared "rows" ``window_part``; one span's rows on
        rational knots are a view of that entry, not a stack.  Each kind's
        rows are C-contiguous.  Raises DegenerateSpan at a zero width.
        """
        zero = [j for j in spans if self.knots.values[j] == self.knots.values[j + 1]]
        if zero:
            raise DegenerateSpan("span %d has zero width" % zero[0])
        start = time.perf_counter()
        if self.knots.storage == "float":
            rows = float_rows(*float_span_columns(self._view.values, self.degree, spans))
            built = len(spans)
        else:
            windows = [span_window(self.knots, self.degree, j) for j in spans]
            parts = {w: window_part(w, "rows") for w in dict.fromkeys(windows)}
            built = sum(new for _, new in parts.values())
            rows = parts[windows[0]][0][:, None] if len(spans) == 1 else np.stack(
                [parts[w][0] for w in windows], axis=1)
        self._builds.append((built, time.perf_counter() - start if built else 0.0,
                             len(spans) - built))
        return rows

    def _page(self, kind: str, page: int, offsets) -> np.ndarray:
        """The kind's (k+1, P, d) blocks of page ``page``, with those at ``offsets`` filled.

        Entry [r, i], P = ``_CHUNK`` but in the last page, is the v^r
        coefficient, v = u - 1/2, on span k + page * P + i: of the centred
        matrix ("m") times the local points, or of the centred cumulative
        matrix ("c") times the first point and the differences.  One
        ``setdefault`` allocates a page in both kinds.  A fill gathers the
        k+1 points of each missing span and applies the rows by one
        ``einsum`` per kind, both kinds from one ``_rows`` call under one
        ``errstate``.  On every knot kind it fills the unfilled ``offsets``,
        an int or an array of them, all that one call asks of the page.  A
        block fits if max(k, 1) * sum_r |c_r| is below half the largest
        double in each coordinate: then no Horner partial sum at orders 0
        and 1 overflows.  The fill raises DomainError, writing nothing, at
        the first span whose asked block does not fit; a block of the other
        kind that does not fit is skipped, unwritten and unmarked, so that
        kind's fill raises.
        """
        k, first = self.degree, self.degree + page * _CHUNK
        store = self._pages.get(page)
        if store is None:
            size = min(_CHUNK, self.count - first)
            store = self._pages.setdefault(page, {form: (np.empty((k + 1, size, self.dim)),
                                                         np.zeros(size, bool)) for form in "mc"})
        blocks, filled = store[kind]
        if filled[offsets].all():
            return blocks
        want = np.zeros(len(filled), bool)
        want[offsets] = True
        missing = (want > filled).nonzero()[0]  # sorted, each span once
        if not len(missing):  # a racing fill wrote them since the test above
            return blocks
        spans = missing + first
        # evenly spaced knots: one knot window, whose rows every span shares
        rows = self._rows([k] if self.knots.is_uniform else spans.tolist())
        if len(spans) == 1:  # a C-contiguous view of the one run, as the gather's copy
            windows = self.points[spans[0] - k:spans[0] + 1][None]
        else:
            windows = self.points.take(spans[:, None] + np.arange(-k, 1), axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            for form in (kind, "c" if kind == "m" else "m"):
                done = missing
                # C-contiguous: a block's bits do not depend on the other spans of the fill
                fresh = _coefficient_blocks(form, rows["mc".index(form)], windows)
                # the sum over the whole fill bounds each span's (NaN fails both)
                if not max(k, 1) * float(abs(fresh).sum()) < sys.float_info.max / 2:
                    fits = (max(k, 1) * abs(fresh).sum(axis=0) < sys.float_info.max / 2).all(1)
                    if form == kind and not fits.all():
                        raise DomainError("control points of span %d are too large to evaluate"
                                          " in floats" % spans[fits.argmin()])
                    done, fresh = missing[fits], fresh[:, fits]
                out, mask = store[form]
                out[:, done] = fresh
                mask[done] = True  # only once the blocks are written
                if len(done):
                    self._fills.append(len(done))
        return blocks

    def stats(self) -> dict:
        """Construction so far, per curve.

        ``spans_built`` counts the spans whose rows a fill built and
        ``build_s`` their seconds; ``window_hits`` counts the spans whose
        rows a fill found built for an earlier span with the same knot
        window, in the curve or the process (evenly spaced knots look their
        one window up once per fill).  Those three are counted per fill,
        never per point; racing threads may build (and count) a span twice.
        ``spans_touched`` sums the pages' masks, once per filled block (span
        and kind, "m" or "c"); ``blocks_filled`` counts every block a fill
        wrote, so any excess over ``spans_touched`` is rework.
        """
        built, seconds, hits = zip((0, 0.0, 0), *self._builds)
        pages = list(self._pages.values())  # a fill may add a page meanwhile
        return {"spans_built": sum(built), "window_hits": sum(hits), "build_s": math.fsum(seconds),
                "blocks_filled": sum(self._fills), "spans_touched": sum(
                    int(mask.sum()) for store in pages for _, mask in store.values())}

    def _batch(self, taus) -> tuple:
        """A 1-D batch of parameters and the mask of those in the evaluable domain.

        A float batch is cast to float64 and compared with the float view's
        bounds; any other kind (Fraction, int) is compared exactly.  No tau
        is inside a degenerate domain, so ``find_span`` of the first tau not
        inside raises the domain's error.
        """
        arr = np.asarray(taus)
        if arr.ndim != 1:
            raise ValueError("taus must be a 1-D sequence")
        fk = self._view
        if arr.dtype.kind == "f":
            arr = arr.astype(float, copy=False)
            return arr, (arr >= fk.lo) & (arr <= fk.hi) & (fk.last >= 0)
        lo, hi = self.domain
        return arr, np.array([lo < hi and lo <= t <= hi for t in arr.tolist()], bool)

    def _locate(self, taus) -> tuple:
        """Span index and span-normalised parameter of each tau in a 1-D batch.

        Float taus take the view's ``find``, others (Fraction, int) ``span_of``
        and ``normalize``.  DomainError for a tau outside the evaluable domain,
        then for one in a span whose width is not a positive finite double.
        """
        arr, inside = self._batch(taus)
        if not inside.all():
            find_span(self.knots, self.degree, arr.tolist()[inside.argmin()])
        fk = self._view
        if arr.dtype == float:
            spans = fk.find(arr)
            widths = fk.widths[spans]
            u = (arr - fk.values[spans]) / widths
        else:
            values = arr.tolist()
            spans = np.array([span_of(self.knots.values, self.degree, t) for t in values],
                             dtype=np.intp)
            u = np.array([float(normalize(self.knots, j, t)) for j, t in zip(spans, values)])
            widths = fk.widths[spans]
        narrow = np.isnan(widths)
        if narrow.any():
            raise DomainError("tau %s lies in a span whose width is outside the float range"
                              % arr[narrow][0])
        return spans, u

    def _combine(self, spans: np.ndarray, u: np.ndarray, kind: str = "m",
                 order: int = 0) -> np.ndarray:
        """The batched core: Horner's rule in u - 1/2 over the spans' blocks.

        ``kind`` "m" or "c" picks the blocks (see ``_page``).  The spans
        are grouped by page once, with no page arithmetic on a curve of one
        page; each page, lowest first, takes one ``_page`` call, then one
        gather per ``_CHUNK`` of its parameters.  ``order`` > 0
        differentiates the blocks, dividing by the span width once per
        order (chain rule).
        """
        k = self.degree
        if self.count - k > _CHUNK:
            pages, offsets = np.divmod(spans - k, _CHUNK)
            at = np.argsort(pages, kind="stable")  # page by page, each in call order
            touched, starts = np.unique(pages[at], return_index=True)
            groups = [(page, offsets[where], where)
                      for page, where in zip(touched.tolist(), np.split(at, starts[1:]))]
        else:  # one page: the parameters in call order
            groups = [(0, spans - k, None)] if len(spans) else []
        out = np.empty((len(u), self.dim))
        x = np.repeat((u - 0.5)[:, None], self.dim, axis=1)  # Horner steps without broadcasts
        for page, offsets, at in groups:
            blocks = self._page(kind, page, offsets)
            for start in range(0, len(offsets), _CHUNK):
                part = slice(start, start + _CHUNK)
                where = part if at is None else at[part]
                rows = blocks.take(offsets[part], axis=1)[order:]
                out[where] = horner(_derivative_rows(rows, order), x[where])
        if order:
            # once per order, as in _point: a power of a narrow width
            # underflows; a derivative beyond the float range is +-inf
            with np.errstate(over="ignore"):
                for _ in range(order):
                    out /= self._view.widths[spans][:, None]
        return out

    def _point(self, tau, kind: str, order: int = 0) -> np.ndarray:
        """One parameter through ``_combine``'s arithmetic, in Python floats.

        A float tau inside the domain takes one ``bisect_right`` over the
        bounds, ``_FloatKnots.find`` for one double, inline; any other tau
        goes through ``_locate``, with its errors.  The one scalar
        ``horner`` per coordinate then runs over the span's column lists,
        cached per kind and order, with the batch's roundings in its order,
        so the result equals the batch's bit for bit.  An order's lists are
        ``_derivative_rows`` of the span's block (at order 0 the block
        itself), read in place from its page once filled, else from
        ``_page``, whose fill writes the span in both kinds.
        """
        fk = self._view
        bounds, values, widths = fk.views
        u = math.nan
        if isinstance(tau, float) and fk.lo <= tau <= fk.hi and fk.last >= 0:
            tau = float(tau)  # a numpy double, too, computes in Python floats
            span = bisect_right(bounds, tau) - 1
            u = (tau - values[span]) / widths[span]
        if math.isnan(u):  # not located above, or a span not float-evaluable
            spans, us = self._locate([tau])
            span, u = int(spans[0]), float(us[0])
        if order > self.degree:
            return np.zeros(self.dim)
        cols = self._columns.get((kind, order, span))
        if cols is None:  # lists are mutable: stored, never handed out
            page, offset = divmod(span - self.degree, _CHUNK)
            store = self._pages.get(page)
            if store is not None and store[kind][1][offset]:  # filled: read in place
                block = store[kind][0][:, offset]
            else:
                block = self._page(kind, page, offset)[:, offset]
            rows = _derivative_rows(block[order:], order)
            cols = self._columns.setdefault((kind, order, span), rows.T.tolist())
        out = []  # loops, not comprehensions: no closure cells to make per call
        for col in cols:
            x = horner(col, u - 0.5)
            for _ in range(order):  # Python floats overflow to +-inf silently
                x /= widths[span]
            out.append(x)
        return np.array(out)

    def evaluate(self, taus, derivative: int = 0) -> np.ndarray:
        """Matrix-path values at a 1-D sequence of parameters, as an (n, d) array.

        ``derivative`` > 0 gives that derivative with respect to tau; orders
        above the degree are identically zero.  Float parameters stay in
        float arithmetic; Fraction or int parameters are located exactly.
        Works through the batch ``_CHUNK`` parameters at a time.  Raises
        DomainError if any tau lies outside the evaluable domain.
        """
        derivative = operator.index(derivative)
        if derivative < 0:
            raise ValueError("derivative must be >= 0")
        spans, u = self._locate(taus)
        if derivative > self.degree:
            return np.zeros((len(u), self.dim))
        return self._combine(spans, u, "m", derivative)

    def eval_coxdeboor(self, tau) -> np.ndarray:
        """Reference evaluation: sum every basis function times its point."""
        return self._coxdeboor([tau])[0]

    def _coxdeboor(self, taus) -> np.ndarray:
        """``eval_coxdeboor`` at a 1-D sequence of parameters, as an (n, d) array.

        The domain is checked once for the batch.  Then, ``_CHUNK``
        parameters at a time, ``_windows`` gives each tau's span j and the
        weights of points j-k..j, added in index order.  Raises DomainError
        at the first tau outside the domain, or whose recursion needs a
        knot difference beyond the float range.
        """
        arr, inside = self._batch(taus)
        stop = len(arr) if inside.all() else int(inside.argmin())
        k = self.degree
        out = np.zeros((len(arr), self.dim))
        for start in range(0, stop, _CHUNK):
            part = arr[start:min(start + _CHUNK, stop)]
            spans, weights = _windows(self._view, self.knots, k, part)
            local = self.points[spans[:, None] + np.arange(-k, 1)]
            rows, terms = out[start:start + len(part)], weights[:, :, None] * local
            for c in range(k + 1):
                rows += terms[:, c]
        if stop < len(arr):
            find_span(self.knots, self.degree, arr.tolist()[stop])
        return out

    def eval_matrix(self, tau) -> np.ndarray:
        """Span lookup, parameter normalization, basis matrix times local points."""
        return self._point(tau, "m")

    def _matrix_point(self, span: int, u: float) -> np.ndarray:
        return self._combine(np.array([span]), np.array([u], dtype=float))[0]

    def eval_cumulative(self, tau) -> np.ndarray:
        """First local point plus cumulative-weighted differences."""
        return self._point(tau, "c")

    def eval_derivative(self, tau, order: int) -> np.ndarray:
        """Derivative of the matrix-path polynomial, chain rule per span width.

        Orders above the degree are identically zero.
        """
        order = operator.index(order)
        if order < 1:
            raise ValueError("order must be >= 1")
        return self._point(tau, "m", order)

    def sample(self, n: int) -> list:
        """n matrix-path evaluations at evenly spaced parameters, ends included.

        A list of ``(tau, point)`` pairs; ``_sample_grid`` gives the arrays.
        ``n`` is an integer: TypeError for a float, even 400.0.
        """
        grid, points = self._sample_grid(n)
        return list(zip(grid.tolist(), points))

    def _sample_grid(self, n: int) -> tuple:
        """``sample``'s parameters and points as arrays, (n,) and (n, d).

        The parameters, their spans and u come from the float view's sample
        plan for n, built on the first call for n over these knots and
        degree (``_sample_plan``); the grid returned is the plan's,
        read-only.  Each call then runs the curve's own work: ``_combine``
        over the plan's spans, with its fills and their errors, and
        ``evaluate`` at the exact domain ends in place of parameters that
        rounded outside the domain.
        """
        n = operator.index(n)  # TypeError for a float, even 400.0
        if n < 2:
            raise ValueError("need at least 2 samples")
        plan = self._view.plan[0]  # read once: a racing call may replace it
        if plan is None or plan.n != n:
            plan = self._sample_plan(n)
        points = np.empty((n, self.dim))
        points[plan.inner] = self._combine(plan.spans, plan.u)
        if plan.ends:
            points[~plan.inner] = self.evaluate(plan.ends)
        return plan.grid, points

    def _sample_plan(self, n: int) -> _SamplePlan:
        """n evenly spaced parameters over the domain and their spans; kept if n <= ``_CHUNK``.

        Raises the domain's errors, keeping nothing: a degenerate domain, a
        domain wider than the float range, or a parameter in a span whose
        width is not a positive finite double.
        """
        fk = self._view
        if fk.last < 0:
            find_span(self.knots, self.degree, fk.lo)  # raises: the domain is degenerate
        start, stop = float(fk.values[self.degree]), float(fk.values[-self.degree - 1])
        if not math.isfinite(stop - start):
            raise DomainError("evaluable domain width is beyond the float range")
        with np.errstate(over="ignore"):  # linspace's step product, near the largest double
            grid = np.clip(np.linspace(start, stop, n), start, stop)
        # Rounding an exact bound to float may step just outside the domain;
        # parameters that landed there are evaluated at the exact bound.
        inside = self._batch(grid)[1]
        inner, ends = slice(None), ()  # no masked copies without edge points
        if not inside.all():
            lo, hi = self.domain
            inner, ends = inside, tuple(lo if t < lo else hi for t in grid[~inside].tolist())
        spans, u = self._locate(grid[inner])
        for array in (grid, inside, spans, u):
            array.setflags(write=False)
        plan = _SamplePlan(n=n, grid=grid, inner=inner, ends=ends, spans=spans, u=u)
        if n <= _CHUNK:  # a view holds one plan, of at most 25 * _CHUNK bytes
            fk.plan[0] = plan
        return plan


def _float_view(knots: KnotVector, degree: int) -> _FloatKnots:
    """The float tables of a degree-``degree`` curve over ``knots``.

    A knot's bound is its nearest double, stepped up once if that lies
    below the knot.  On rational knots every table is computed in ints
    from each knot's numerator n and denominator d, with one rounding per
    entry: a knot's double is n / d, a span's width is the exact difference
    of its knots over d_i d_{i+1}, and the side of its double that a knot
    lies on is an exact comparison.  ``exact`` holds if every knot is its
    double and their range is finite in floats: then the oracle's recursion
    at a float tau gives the same bits on ``values`` as on the stored
    knots, as Fraction-float arithmetic already rounds the knot (or the
    exact knot difference, which then equals the rounded float difference)
    and runs in floats, and the comparisons and zero tests are exact
    either way.
    """
    vals = knots.values
    if knots.storage == "float":
        values = bounds = np.array(vals)
        widths = np.diff(values)
        signs = [0] * len(vals)
        exact = True
    else:
        # in ints: int / int rounds correctly, as float(Fraction) does
        nums = [v.numerator for v in vals]
        dens = [v.denominator for v in vals]
        floats = [_quotient(n, d) for n, d in zip(nums, dens)]
        widths = np.array([_quotient(nb * da - na * db, da * db)
                           for na, da, nb, db in zip(nums, dens, nums[1:], dens[1:])])
        # a float and an int compare exactly
        signs = [(f > n) - (f < n) if d == 1 else _sign(f, n, d)
                 for f, n, d in zip(floats, nums, dens)]
        values = np.array(floats)
        bounds = np.array([math.nextafter(f, math.inf) if s < 0 else f
                           for f, s in zip(floats, signs)]) if -1 in signs else values
        exact = not any(signs) and math.isfinite(floats[-1] - floats[0])
    widths[~(np.isfinite(widths) & (widths > 0))] = np.nan
    for table in (values, bounds, widths):  # shared by every curve over the knots
        table.setflags(write=False)
    end = float(values[-degree - 1])
    lo, hi = knots.domain(degree)
    last = span_of(vals, degree, hi) if lo < hi else -1
    cut = bounds[:last + 1]
    return _FloatKnots(values=values, bounds=cut, widths=widths, lo=float(bounds[degree]),
                       hi=math.nextafter(end, -math.inf) if signs[-degree - 1] > 0 else end,
                       last=last, exact=exact,
                       views=tuple(map(memoryview, (cut, values, widths))))


def _windows(fk: _FloatKnots, knots: KnotVector, degree: int, taus: np.ndarray) -> tuple:
    """``coxdeboor.basis_window`` of each tau in the domain: (n,) spans and (n, k+1) float weights.

    A float batch over ``exact`` knots, a single tau too, takes
    ``coxdeboor.float_windows``, one numpy step per degree over each span's
    triangle and 2k-knot window, with the same bits, over the spans of the
    view's ``find``.  Other batches, of exact taus (Fraction, int) or
    over knots a double cannot hold, take the scalar routine tau by tau on
    the stored knots, in mixed or exact arithmetic, and raise DomainError
    at the first tau whose recursion needs a knot difference beyond the
    float range: one that overflows, or one that rounds to zero.
    """
    if taus.dtype == float and fk.exact:
        spans = fk.find(taus)
        return spans, coxdeboor.float_windows(fk.values, degree, spans, taus)
    spans = np.empty(len(taus), dtype=np.intp)
    weights = np.empty((len(taus), degree + 1))
    last = len(knots.values) - degree - 2
    for r, tau in enumerate(taus.tolist()):
        try:
            spans[r], weights[r] = coxdeboor.basis_window(knots, 0, last, degree, tau)
        except ArithmeticError:
            raise DomainError("tau %s needs knot differences beyond the float range"
                              % tau) from None
    return spans, weights


def _quotient(n: int, d: int) -> float:
    """n / d for ints, d > 0, or a signed infinity where it is beyond the float range."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _sign(f: float, n: int, d: int) -> int:
    """The sign of f - n / d, exactly, for d > 0."""
    if math.isinf(f):
        return 1 if f > 0 else -1
    fn, fd = f.as_integer_ratio()
    return (fn * d > n * fd) - (fn * d < n * fd)


def _derivative_rows(rows: np.ndarray, order: int) -> np.ndarray:
    """Power rows r = order, order+1, ... (first axis) times r!/(r-order)!: the derivative."""
    if not order:
        return rows
    scale = np.array([math.perm(r, order) for r in range(order, order + len(rows))], dtype=float)
    return rows * scale.reshape((-1,) + (1,) * (rows.ndim - 1))


def _coefficient_blocks(kind: str, rows: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Power-major blocks of runs of k+1 consecutive points: (k+1, runs, d).

    ``windows`` (runs, k+1, d) and ``rows`` (runs, k+1, k+1), or (1, k+1,
    k+1) for one matrix that every run shares, are C-contiguous: einsum
    sums in memory order, so one layout makes a block's bits depend on
    values alone.  "m" applies the rows to the run; "c" applies rows[..., 1:] to
    its differences and adds its first point to row 0 (column 0 of a
    cumulative matrix, centred or not, is (1, 0, ..., 0)).
    """
    if kind == "c":
        out = np.einsum("nrc,ncd->rnd", rows[..., 1:], windows[:, 1:] - windows[:, :-1])
        out[0] += windows[:, 0]
        return out
    return np.einsum("nrc,ncd->rnd", rows, windows)
