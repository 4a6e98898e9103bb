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
to the first point and the differences).  A parameter is evaluated by
``polytoeplitz.horner`` in v = u - 1/2 over its span's (k+1, d) block, on
numpy stacks for arrays and in Python floats for a single parameter, with
the same result bit for bit.  Centring keeps the power form well
conditioned next to wide spans (Farouki & Rajan 1987).  The degree
recursion builds the centred matrices directly, one way per knot storage:
on exact knots they are exact until the one rounding of each entry and
built once per distinct knot window (evenly spaced knots have one); on
float-stored knots one batched numpy recursion in double precision builds
every span a chunk needs that is not yet cached.  One ``_cached`` fill
stores the columns and the blocks, which one ``einsum`` forms per fill.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import coxdeboor
from .basismatrix import BasisMatrix, float_span_columns, knot_window, span_columns
from .errors import DomainError
from .knots import KnotVector, find_span, normalize
from .polytoeplitz import horner

# Parameters per pass of the batched core.  Scratch memory per pass is
# O(_CHUNK * (k+1) * d) floats whatever the number of parameters, and
# O(_CHUNK * (k+1)^2) more in a pass that builds the matrices of new spans.
_CHUNK = 1024

# Table entries per pass of ``_coxdeboor``: a pass runs the recursion for
# max(1, _TABLE_ENTRIES // (N + k)) parameters, so its scratch memory is
# O(_TABLE_ENTRIES) values whatever the number of parameters and of points.
_TABLE_ENTRIES = 1 << 16


@dataclass(frozen=True)
class _FloatKnots:
    """Float tables for span lookup and the oracle's knots, built with the curve."""

    values: np.ndarray  # the nearest double of each knot
    # the smallest double >= each knot up to span ``last``'s start: a float
    # search over them locates every float tau in the domain exactly
    bounds: np.ndarray
    # float(exact width) per span, so that u matches ``normalize`` bit for
    # bit; NaN for a width beyond the float range
    widths: np.ndarray
    lo: float  # the smallest double in the evaluable domain
    hi: float  # the largest double in it
    last: int  # last span of positive width; -1 if none
    oracle: KnotVector  # the knots the recursion runs on at a float tau


@dataclass(frozen=True, eq=False)
class SplineCurve:
    """Degree, knots, and an (N, d) float array of control points.

    Counts are tied: a degree-k curve over M knots carries N = M - k - 1
    control points.  Instances are immutable and compare and hash by
    identity; evaluation is pure and safe to run concurrently.  Coefficient
    blocks are cached per touched span (evenly spaced knots: one table of
    every span's block), each built whole and made read-only before it is
    stored, so a reader never sees a half-built block; two racing fills
    only build a block twice.
    """

    degree: int
    knots: KnotVector
    points: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)
    _view: _FloatKnots = field(init=False, repr=False)

    def __init__(self, degree: int, knots: KnotVector, points):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        try:
            pts = np.asarray(points, dtype=float)
        except OverflowError:  # an int coordinate beyond the float range
            raise ValueError("control points must be finite") from None
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
        object.__setattr__(self, "_view", _float_view(knots, degree))
        # spans and seconds built, and window-hit spans, per fill; appends
        # lose no count between threads
        object.__setattr__(self, "_cache", {"builds": [], "hits": []})

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def domain(self) -> tuple:
        return self.knots.domain(self.degree)

    def _check_tau(self, tau) -> None:
        lo, hi = self.domain
        if not lo < hi:
            raise DomainError("evaluable domain [%s, %s] is degenerate" % (lo, hi))
        if not lo <= tau <= hi:
            raise DomainError("tau outside evaluable domain: %s not in [%s, %s]" % (tau, lo, hi))

    def _cached(self, kind: str, spans: list, build) -> list:
        """The cache entries ``(kind, j)`` of distinct ``spans``: "x" columns, "m"/"c" blocks.

        ``build(missing)`` makes the missing entries in one call; each is
        stored with ``setdefault``, so a racing fill only builds it twice.
        """
        got = [self._cache.get((kind, j)) for j in spans]
        missing = [j for j, entry in zip(spans, got) if entry is None]
        if missing:
            fresh = iter([self._cache.setdefault((kind, j), entry)
                          for j, entry in zip(missing, build(missing))])
            got = [entry if entry is not None else next(fresh) for entry in got]
        return got

    def _columns(self, spans: list) -> list:
        """``(cols, den)`` per span, its centred matrix ``cols / den`` in powers of v = u - 1/2.

        Rational knots: int columns over an int ``den`` (``span_columns``),
        built once per distinct ``knot_window``; evenly spaced knots have
        one.  Float-stored knots: one ``float_span_columns`` call, as a
        window would not give the same columns bit for bit there.
        """
        if self.knots.storage == "float":
            start = time.perf_counter()
            cols, den = float_span_columns(self._view.values, self.degree, spans)
            self._cache["builds"].append((len(spans), time.perf_counter() - start))
            return [(c, den) for c in cols]
        windows = [knot_window(self.knots.values, self.degree, j) for j in spans]
        new = [w for w in dict.fromkeys(windows) if ("w", w) not in self._cache]
        if new:
            start = time.perf_counter()
            for w in new:
                self._cache.setdefault(("w", w), span_columns(w, centred=True))
            self._cache["builds"].append((len(new), time.perf_counter() - start))
        self._cache["hits"].append(len(spans) - len(new))
        return [self._cache[("w", w)] for w in windows]

    def _rows(self, kind: str, spans: list) -> np.ndarray:
        """Float rows of the spans' centred matrices ("m") or cumulative forms ("c")."""
        cols, dens = zip(*self._cached("x", spans, self._columns))
        dtype = float if self.knots.storage == "float" else object
        return _float_rows(np.array(cols, dtype), np.array(dens, dtype)[:, None, None], kind)

    def _exact_matrix(self, span: int) -> BasisMatrix:
        """The span's exact matrix centred at u = 1/2 (rational knots), rows powers of v."""
        return BasisMatrix.from_columns(*self._cached("x", [span], self._columns)[0], span=span)

    def _block(self, kind: str, span: int) -> np.ndarray:
        """The span's read-only (k+1, d) coefficient block, built on first use.

        Row r is the coefficient of v^r, v = u - 1/2, of the span's value:
        the centred matrix ("m") times the local points, or the centred
        cumulative matrix ("c") times the first local point and the
        differences, formed independently of the "m" block.  Evenly spaced
        knots read it from ``_table``.
        """
        if self.knots.is_uniform:
            return self._table(kind)[span - self.degree]
        block = self._cache.get((kind, span))
        if block is None:
            block = self._cached(kind, [span], partial(self._blocks, kind))[0]
        return block

    def _blocks(self, kind: str, spans: list) -> np.ndarray:
        """The read-only blocks of non-uniform ``spans``: one ``_rows`` call, one ``einsum``."""
        runs = np.array(spans)[:, None] + np.arange(-self.degree, 1)
        windows = self.points[runs].transpose(0, 2, 1)
        blocks = _coefficient_blocks(kind, self._rows(kind, spans), windows)
        blocks.setflags(write=False)
        return blocks

    def _table(self, kind: str) -> np.ndarray:
        """Evenly spaced knots: every span's block, (N-k, k+1, d), built on first use.

        One table is at most k+1 times the size of the control points;
        span j's block is row j - k.
        """
        key = (kind, "table")
        table = self._cache.get(key)
        if table is None:
            rows = self._rows(kind, [self.degree])[0]
            windows = sliding_window_view(self.points, self.degree + 1, axis=0)
            table = _coefficient_blocks(kind, rows, windows)
            table.setflags(write=False)
            table = self._cache.setdefault(key, table)
        return table

    def stats(self) -> dict:
        """Construction so far: ``spans_built``, ``window_hits``, ``build_s``, ``spans_touched``.

        ``window_hits`` counts spans that reused the build of an earlier span
        with the same knot window; ``build_s`` is the seconds spent in
        ``span_columns`` or ``float_span_columns`` building centred
        matrices, and ``spans_built`` the spans they built.  Those three are
        counted when a span is first needed, never per point; racing threads
        may build (and count) a span twice.  ``spans_touched`` counts the
        stored coefficient blocks, one per span and kind ("m" or "c"); a
        table of evenly spaced knots counts each of its spans.  A block is
        stored once, so it is counted once.
        """
        cache = self._cache.copy()  # fills may store entries meanwhile
        builds = cache["builds"]
        blocks = [b for key, b in cache.items() if isinstance(key, tuple) and key[0] in "mc"]
        return {"spans_built": sum(n for n, _ in builds), "window_hits": sum(cache["hits"]),
                "build_s": math.fsum(s for _, s in builds),
                "spans_touched": sum(len(b) if b.ndim == 3 else 1 for b in blocks)}

    def _locate(self, taus) -> tuple:
        """Span index and span-normalised parameter for each tau.

        Float parameters go through the float tables; any other kind
        (Fraction, int) takes the exact ``find_span``/``normalize``.
        Raises DomainError for a tau outside the evaluable domain.
        """
        arr = np.asarray(taus)
        if arr.ndim != 1:
            raise ValueError("taus must be a 1-D sequence")
        fk = self._view
        if np.issubdtype(arr.dtype, np.floating):
            tau = arr.astype(float, copy=False)
            inside = self._inside(tau)
            if not inside.all():
                self._check_tau(float(tau[inside.argmin()]))
            # Piegl & Tiller A2.1 (FindSpan) over the whole batch
            spans = np.searchsorted(fk.bounds, tau, side="right") - 1
            u = (tau - fk.values[spans]) / fk.widths[spans]
        else:
            values = arr.tolist()
            spans = np.array([find_span(self.knots, self.degree, t) for t in values],
                             dtype=np.intp)
            u = np.array([float(normalize(self.knots, j, t)) for j, t in zip(spans, values)])
        wide = np.isnan(fk.widths[spans])
        if wide.any():
            raise DomainError("tau %s lies in a span too wide for float evaluation"
                              % arr[wide][0])
        return spans, u

    def _inside(self, tau: np.ndarray) -> np.ndarray:
        """The mask of a float batch's taus inside the evaluable domain.

        No tau is inside a degenerate domain, so ``_check_tau`` of the
        first tau not inside raises the domain's error.
        """
        fk = self._view
        return (tau >= fk.lo) & (tau <= fk.hi) & (fk.last >= 0)

    def _span_blocks(self, kind: str, spans: np.ndarray) -> np.ndarray:
        """The blocks of ``spans``, looked up once per distinct span.

        One (k+1, d) block when they are all one span, else the
        (len(spans), k+1, d) stack.
        """
        if self.knots.is_uniform:
            return self._table(kind)[spans - self.degree]
        distinct = np.unique(spans)
        blocks = self._cached(kind, distinct.tolist(), partial(self._blocks, kind))
        if len(blocks) == 1:
            return blocks[0]
        return np.stack(blocks)[np.searchsorted(distinct, spans)]

    def _combine(self, spans: np.ndarray, u: np.ndarray, kind: str = "m",
                 order: int = 0) -> np.ndarray:
        """The batched core: Horner's rule in u - 1/2 over the spans' blocks.

        ``kind`` "m" or "c" picks the block (see ``_block``); ``order`` > 0
        differentiates it, with the chain rule's division by width**order.
        """
        out = np.empty((len(u), self.dim))
        x = (u - 0.5)[:, None]
        for start in range(0, len(u), _CHUNK):
            part = slice(start, start + _CHUNK)
            rows = _derivative_rows(self._span_blocks(kind, spans[part]), order)
            # the power axis first: horner sums (len(part), d) terms
            out[part] = horner(rows.swapaxes(0, -2), x[part])
        if order:
            # repeated products, as in _point, not a pow() that numpy and
            # Python may round differently
            out /= math.prod([self._view.widths[spans]] * order)[:, None]
        return out

    def _point(self, tau, kind: str, order: int = 0) -> np.ndarray:
        """One parameter through ``_combine``'s arithmetic, in Python floats.

        Locates the span, then runs the one scalar ``horner`` per coordinate
        over the block with the same roundings in the same order, so the
        result equals the batch's bit for bit.  A float tau inside the
        domain takes the batch's one ``searchsorted``; any other tau goes
        through ``_locate``, with its errors.
        """
        fk = self._view
        u = math.nan
        if isinstance(tau, float) and fk.lo <= tau <= fk.hi and fk.last >= 0:
            span = int(fk.bounds.searchsorted(tau, "right")) - 1
            u = (tau - float(fk.values[span])) / float(fk.widths[span])
        if math.isnan(u):  # not located above, or a span too wide for floats
            spans, us = self._locate([tau])
            span, u = int(spans[0]), float(us[0])
        if order > self.degree:
            return np.zeros(self.dim)
        cols = _derivative_rows(self._block(kind, span), order).T.tolist()
        out = np.array([horner(col, u - 0.5) for col in cols])
        if order:
            out /= math.prod([float(fk.widths[span])] * order)
        return out

    def evaluate(self, taus, derivative: int = 0) -> np.ndarray:
        """Matrix-path values at a 1-D sequence of parameters, as an (n, d) array.

        ``derivative`` > 0 gives that derivative with respect to tau; orders
        above the degree are identically zero.  Float parameters stay in
        float arithmetic; Fraction or int parameters are located exactly.
        Works through the batch ``_CHUNK`` parameters at a time.  Raises
        DomainError if any tau lies outside the evaluable domain.
        """
        if derivative < 0:
            raise ValueError("derivative must be >= 0")
        spans, u = self._locate(taus)
        if derivative > self.degree:
            return np.zeros((len(u), self.dim))
        return self._combine(spans, u, "m", derivative)

    def eval_coxdeboor(self, tau) -> np.ndarray:
        """Reference evaluation: sum every basis function times its point.

        One recursion table over every basis index gives all the weights.
        Raises DomainError where a knot difference the recursion needs at a
        float tau is beyond the float range.
        """
        self._check_tau(tau)
        kv = self._view.oracle if isinstance(tau, float) else self.knots
        try:
            weights = coxdeboor.basis_values(kv, 0, self.count - 1, self.degree, tau)
        except OverflowError:
            raise DomainError("tau %s needs knot differences beyond the float range"
                              % tau) from None
        out = np.zeros(self.dim)
        for w, p in zip(weights, self.points):
            if w:
                out += float(w) * p
        return out

    def _coxdeboor(self, taus) -> np.ndarray:
        """``eval_coxdeboor`` at a 1-D sequence of parameters, as an (n, d) array.

        The domain is checked once for the batch; ``coxdeboor.basis_table``
        then runs in passes of about ``_TABLE_ENTRIES`` entries, and each
        weight column that holds a nonzero weight is added times its point
        in basis-index order.  Equal bit for bit to the stacked
        ``eval_coxdeboor(tau)``, and raises its error at the first tau that
        fails.
        """
        arr = np.asarray(taus)
        if arr.ndim != 1:
            raise ValueError("taus must be a 1-D sequence")
        values = arr.tolist()
        if np.issubdtype(arr.dtype, np.floating):
            inside = self._inside(arr.astype(float, copy=False))
            kv = self._view.oracle
        else:
            lo, hi = self.domain
            inside = np.array([lo < hi and lo <= t <= hi for t in values], bool)
            kv = self.knots
        stop = len(values) if inside.all() else int(inside.argmin())
        out = np.zeros((len(values), self.dim))
        step = max(1, _TABLE_ENTRIES // (self.count + self.degree))
        for start in range(0, stop, step):
            part = values[start:min(start + step, stop)]
            try:
                table = coxdeboor.basis_table(kv, 0, self.count - 1, self.degree, part)
            except OverflowError:
                for tau in part:  # the error of the first tau that fails
                    self.eval_coxdeboor(tau)
                raise
            weights = table.astype(float, copy=False)
            rows = out[start:start + len(part)]
            for i in np.flatnonzero(weights.any(axis=0)).tolist():
                rows += weights[:, i, None] * self.points[i]
        if stop < len(values):
            self._check_tau(values[stop])
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
        if order < 1:
            raise ValueError("order must be >= 1")
        return self._point(tau, "m", order)

    def sample(self, n: int) -> list:
        """n matrix-path evaluations at evenly spaced parameters, ends included.

        A list of ``(tau, point)`` pairs; ``_sample_grid`` gives the arrays.
        """
        grid, points = self._sample_grid(n)
        return list(zip(grid.tolist(), points))

    def _sample_grid(self, n: int) -> tuple:
        """``sample``'s parameters and points as arrays, (n,) and (n, d)."""
        if n < 2:
            raise ValueError("need at least 2 samples")
        fk = self._view
        if fk.last < 0:
            self._check_tau(fk.lo)  # raises: the domain is degenerate
        start, stop = float(fk.values[self.degree]), float(fk.values[-self.degree - 1])
        if not math.isfinite(stop - start):
            raise DomainError("evaluable domain width is beyond the float range")
        grid = np.clip(np.linspace(start, stop, n), start, stop)
        # Rounding an exact bound to float may step just outside the domain;
        # parameters that landed there are evaluated at the exact bound.
        edge = (grid < fk.lo) | (grid > fk.hi)
        points = np.empty((n, self.dim))
        points[~edge] = self.evaluate(grid[~edge])
        if edge.any():
            lo, hi = self.domain
            points[edge] = self.evaluate([lo if t < lo else hi for t in grid[edge].tolist()])
        return grid, points


def _float_view(knots: KnotVector, degree: int) -> _FloatKnots:
    """The float tables of a degree-``degree`` curve over ``knots``.

    A knot's bound is its nearest double, stepped up once if that lies
    below the knot.  The oracle's knots are the float copy if every knot is
    a double and their range is finite in floats, else the stored knots.
    The copy gives the same result at a float tau bit for bit: Fraction-float
    arithmetic already rounds the knot (or the exact knot difference, which
    then equals the rounded float difference) and runs in floats, and the
    comparisons and zero tests are exact either way.
    """
    vals = knots.values
    if knots.storage == "float":
        values = bounds = np.array(vals)
        widths = np.diff(values)
        signs = [0] * len(vals)
    else:
        # in ints: int / int rounds correctly, as float(Fraction) does
        ratios = [(v.numerator, v.denominator) for v in vals]
        values = np.array([_quotient(n, d) for n, d in ratios])
        widths = np.array([_quotient(nb * da - na * db, da * db)
                           for (na, da), (nb, db) in zip(ratios, ratios[1:])])
        signs = [_sign(f, n, d) for f, (n, d) in zip(values.tolist(), ratios)]
        bounds = np.array([math.nextafter(f, math.inf) if s < 0 else f
                           for f, s in zip(values.tolist(), signs)])
    widths[np.isinf(widths)] = np.nan
    end = float(values[-degree - 1])
    lo, hi = knots.domain(degree)
    last = find_span(knots, degree, hi) if lo < hi else -1
    exact = not any(signs) and math.isfinite(float(values[-1]) - float(values[0]))
    return _FloatKnots(values=values, bounds=bounds[:last + 1], widths=widths,
                       lo=float(bounds[degree]),
                       hi=math.nextafter(end, -math.inf) if signs[-degree - 1] > 0 else end,
                       last=last, oracle=knots.as_float() if exact else knots)


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
    """Rows r >= order of (a stack of) (k+1, m) power-basis rows, times r!/(r-order)!.

    These are the coefficients of the ``order``-th derivative.
    """
    if not order:
        return rows
    scale = [math.perm(r, order) for r in range(order, rows.shape[-2])]
    return rows[..., order:, :] * np.array(scale, dtype=float)[:, None]


def _float_rows(cols: np.ndarray, den: np.ndarray, kind: str) -> np.ndarray:
    """Float rows of (s, k+1, k+1) columns ``cols / den`` ("m") or of their suffix sums ("c").

    Floats over (s, 1, 1) float ``den``s, or an object array of ints over
    int ones: their suffix sums are exact and ``int / int`` rounds correctly.
    """
    if kind == "c":
        # add.accumulate sums in order: right to left
        cols = np.cumsum(cols[:, ::-1], axis=1)[:, ::-1]
    rows = cols.transpose(0, 2, 1) / den
    # einsum sums in memory order, so the layout is part of the blocks' bits:
    # exact rows are C-contiguous, float rows keep the division's layout
    return rows if rows.dtype == float else rows.astype(float, order="C")


def _coefficient_blocks(kind: str, rows: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Blocks of runs of k+1 consecutive points: (runs, k+1, d).

    ``windows`` is (runs, d, k+1), each run along the last axis (as from
    ``sliding_window_view``); ``rows`` is one (k+1, k+1) matrix for every
    run or a stack of one per run.  "m" applies the rows to the run; "c"
    applies rows[..., 1:] to its differences and adds its first point to
    row 0 (column 0 of a cumulative matrix, centred or not, is
    (1, 0, ..., 0)).
    """
    subscripts = ("rc" if rows.ndim == 2 else "nrc") + ",ndc->nrd"
    if kind == "c":
        out = np.einsum(subscripts, rows[..., 1:], np.diff(windows, axis=-1))
        out[:, 0] += windows[..., 0]
        return out
    return np.einsum(subscripts, rows, windows)
