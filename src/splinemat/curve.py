"""Spline curves in R^d with three mutually cross-checking evaluation paths.

The recursive path sums every basis function against its control point and
serves as the slow reference.  The matrix path looks up the span, maps the
parameter to [0, 1], and applies the span's basis matrix to the k+1 local
control points.  The cumulative path writes the same span value as the
first local point plus weighted differences of consecutive points.  All
three agree to floating-point accuracy on the whole evaluable domain.

The matrix, cumulative and derivative paths share one batched float core:
vectorised span lookup, Horner's rule over cached float span matrices, and
one weighted sum of the gathered local control points.  The span matrices
are float values of the exact ones, built once per distinct knot window,
except for float-stored non-uniform knots, where the same degree
recursion runs per span in double precision.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import coxdeboor
from .basismatrix import BasisMatrix, cumulative_matrix, span_columns, uniform_basis_matrix
from .errors import DomainError
from .knots import KnotVector, find_span, normalize

# Parameters per pass of the batched core.  Scratch memory per pass is
# O(_CHUNK * (k+1)^2) floats whatever the number of parameters.
_CHUNK = 1024


@dataclass(frozen=True)
class _FloatKnots:
    """Float tables for span lookup, built once per curve."""

    values: np.ndarray  # float copy of the knots
    # float(exact width) per span, so that u matches ``normalize`` bit for
    # bit; NaN for a width beyond the float range
    widths: np.ndarray
    lo: float
    hi: float
    last: int  # last span of positive width, where tau == hi lands; -1 if none
    # Floats of the knots a double cannot hold.  A tau equal to one of them
    # may compare differently with the float than with the exact knot, so it
    # takes the exact lookup.
    inexact: np.ndarray


@dataclass(frozen=True)
class SplineCurve:
    """Degree, knots, and an (N, d) float array of control points.

    Counts are tied: a degree-k curve over M knots carries N = M - k - 1
    control points.  Instances are immutable; evaluation is pure and safe
    to run concurrently.  Float span matrices are cached per touched span,
    each built whole and made read-only before it is stored, so a reader
    never sees a half-built span; two racing fills only build a span twice.
    """

    degree: int
    knots: KnotVector
    points: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __init__(self, degree: int, knots: KnotVector, points):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        pts = np.asarray(points, dtype=float)
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
        # build seconds and window-hit spans; appends lose no count between threads
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
        if not lo <= tau <= hi:
            raise DomainError("tau outside evaluable domain: %s not in [%s, %s]" % (tau, lo, hi))

    def _span_matrix_rows(self, span: int) -> np.ndarray:
        return self._float_rows("m", span)

    def _span_cumulative_rows(self, span: int) -> np.ndarray:
        return self._float_rows("c", span)

    def _float_rows(self, kind: str, span: int) -> np.ndarray:
        """Read-only float span matrix ("m") or cumulative form ("c"), cached.

        Evenly spaced knots round the uniform matrix; others divide the span's
        numerator columns by their denominator (int division rounds correctly).
        """
        key = (kind, span)
        rows = self._cache.get(key)
        if rows is None:
            if self.knots.is_uniform:
                m = uniform_basis_matrix(self.degree)
                rows = (cumulative_matrix(m) if kind == "c" else m).as_float_rows()
            else:
                cols, den = self._span_columns(span)
                rows = list(zip(*cols))
                if kind == "c":
                    # suffix sums along each row, taken right to left
                    rows = [list(accumulate(reversed(row)))[::-1] for row in rows]
                rows = [[n / den for n in row] for row in rows]
            rows = np.array(rows)
            rows.setflags(write=False)
            rows = self._cache.setdefault(key, rows)
        return rows

    def _span_columns(self, span: int) -> tuple:
        """The span's ``span_columns`` ``(cols, den)``, cached per curve.

        A span's matrix depends only on its knot window (tau_i - tau_j) /
        (tau_{j+1} - tau_j), i = j-k+1..j+k, so rational knots build each
        distinct window once; float knots, where that would not be exact,
        build each span.
        """
        key = ("x", span)
        got = self._cache.get(key)
        if got is None:
            window = key
            if self.knots.storage == "rational":
                vals, k = self.knots.values, self.degree
                a, width = vals[span], vals[span + 1] - vals[span]
                window = ("w",) + tuple((vals[i] - a) / width
                                        for i in range(span - k + 1, span + k + 1))
            got = self._cache.get(window)
            if got is None:
                start = time.perf_counter()
                got = self._cache.setdefault(window, span_columns(self.knots, self.degree, span))
                self._cache["builds"].append(time.perf_counter() - start)
            else:
                self._cache["hits"].append(span)
            got = self._cache.setdefault(key, got)
        return got

    def _exact_matrix(self, span: int) -> BasisMatrix:
        """The span's exact matrix (rational knots), Fractions formed from the cache."""
        return BasisMatrix.from_columns(*self._span_columns(span), span=span)

    def stats(self) -> dict:
        """Span construction so far: ``spans_built``, ``window_hits`` and ``build_s``.

        ``window_hits`` counts spans that reused the build of an earlier span
        with the same knot window; ``build_s`` is the seconds spent in
        ``span_columns``.  Counted when a span is first needed, never per
        point; racing threads may build (and count) a span twice.
        """
        builds = self._cache["builds"]
        return {"spans_built": len(builds), "window_hits": len(self._cache["hits"]),
                "build_s": math.fsum(builds)}

    def _float_knots(self) -> _FloatKnots:
        fk = self._cache.get("f")
        if fk is None:
            vals = self.knots.values
            lo, hi = self.domain
            positive = [j for j in range(self.degree, len(vals) - self.degree - 1)
                        if vals[j] < vals[j + 1]]
            values = np.array([_to_float(v) for v in vals])
            widths = np.array([_to_float(b - a) for a, b in zip(vals, vals[1:])])
            widths[np.isinf(widths)] = np.nan
            fk = _FloatKnots(
                values=values,
                widths=widths,
                lo=_to_float(lo),
                hi=_to_float(hi),
                last=positive[-1] if positive else -1,
                inexact=values[[f != v for f, v in zip(values.tolist(), vals)]],
            )
            self._cache["f"] = fk
        return fk

    def _locate(self, taus) -> tuple:
        """Span index and span-normalised parameter for each tau.

        Float parameters go through the float tables; any other kind
        (Fraction, int) takes the exact ``find_span``/``normalize``.
        Raises DomainError for a tau outside the evaluable domain.
        """
        arr = np.asarray(taus)
        if arr.ndim != 1:
            raise ValueError("taus must be a 1-D sequence")
        fk = self._float_knots()
        if arr.dtype.kind == "f":
            tau = arr.astype(float, copy=False)
            exact = np.isin(tau, fk.inexact) if fk.inexact.size else np.zeros(tau.shape, bool)
            inside = ((tau >= fk.lo) & (tau <= fk.hi)) | exact
            if not inside.all():
                self._check_tau(float(tau[~inside][0]))
            if fk.last < 0 and tau.size:
                raise DomainError("evaluable domain [%s, %s] is degenerate" % self.domain)
            # Piegl & Tiller A2.1 (FindSpan) over the whole batch
            spans = np.searchsorted(fk.values, tau, side="right") - 1
            spans[tau == fk.hi] = fk.last
            if exact.any():
                at = np.flatnonzero(exact)
                spans[at] = [find_span(self.knots, self.degree, t) for t in tau[at].tolist()]
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

    def _span_rows(self, kind: str, spans: np.ndarray) -> np.ndarray:
        """Float span matrices ("m") or their cumulative forms ("c") for ``spans``.

        One (k+1, k+1) matrix serves the whole batch when it covers one span
        or the knots are uniform.  Otherwise the result is the
        (len(spans), k+1, k+1) stack, looked up once per distinct span.
        """
        rows_of = self._span_matrix_rows if kind == "m" else self._span_cumulative_rows
        if self.knots.is_uniform:
            return rows_of(self.degree)
        distinct = np.unique(spans)
        if len(distinct) == 1:
            return rows_of(int(distinct[0]))
        stack = np.stack([rows_of(j) for j in distinct.tolist()])
        return stack[np.searchsorted(distinct, spans)]

    def _combine(self, spans: np.ndarray, u: np.ndarray, kind: str = "m",
                 order: int = 0) -> np.ndarray:
        """The batched core: Horner weights times the local control points.

        ``kind`` "m" applies the span matrices, differentiated ``order``
        times (chain rule: divided by width**order); "c" applies the
        cumulative matrices to the first local point and the differences.
        """
        k = self.degree
        offsets = np.arange(k + 1) - k
        out = np.empty((len(u), self.dim))
        for start in range(0, len(u), _CHUNK):
            part = slice(start, start + _CHUNK)
            j = spans[part]
            weights = _horner(self._span_rows(kind, j), u[part], order)
            local = np.take(self.points, j[:, None] + offsets, axis=0)
            if kind == "c":
                out[part] = local[:, 0] + np.einsum("nc,ncd->nd", weights[:, 1:],
                                                    np.diff(local, axis=1))
            else:
                out[part] = np.einsum("nc,ncd->nd", weights, local)
        if order:
            out /= (self._float_knots().widths[spans] ** order)[:, None]
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

        Raises DomainError where a knot difference the recursion needs at a
        float tau is beyond the float range.
        """
        self._check_tau(tau)
        kv = self._oracle_knots(tau)
        out = np.zeros(self.dim)
        try:
            for i in range(self.count):
                w = coxdeboor.basis(kv, i, self.degree, tau)
                if w:
                    out += float(w) * self.points[i]
        except OverflowError:
            raise DomainError("tau %s needs knot differences beyond the float range"
                              % tau) from None
        return out

    def _oracle_knots(self, tau) -> KnotVector:
        """The knots the recursion runs on for ``tau``.

        A float tau on rational knots that are all exact doubles, over a
        range finite in floats, gets the float copy of the knots, with the
        same result bit for bit: Fraction-float arithmetic already rounds
        the knot (or the exact knot difference, which then equals the
        rounded float difference) and runs in floats, and the comparisons
        and zero tests are exact either way.  Every other case keeps the
        knots as stored.
        """
        if not isinstance(tau, float) or self.knots.storage != "rational":
            return self.knots
        kv = self._cache.get("o")
        if kv is None:
            fk = self._float_knots()
            exact = not fk.inexact.size and math.isfinite(
                float(fk.values[-1]) - float(fk.values[0]))
            kv = self._cache.setdefault("o", self.knots.as_float() if exact else self.knots)
        return kv

    def eval_matrix(self, tau) -> np.ndarray:
        """Span lookup, parameter normalization, basis matrix times local points."""
        return self.evaluate([tau])[0]

    def _matrix_point(self, span: int, u: float) -> np.ndarray:
        return self._combine(np.array([span]), np.array([u], dtype=float))[0]

    def eval_cumulative(self, tau) -> np.ndarray:
        """First local point plus cumulative-weighted differences."""
        spans, u = self._locate([tau])
        return self._combine(spans, u, "c")[0]

    def eval_derivative(self, tau, order: int) -> np.ndarray:
        """Derivative of the matrix-path polynomial, chain rule per span width.

        Orders above the degree are identically zero.
        """
        if order < 1:
            raise ValueError("order must be >= 1")
        return self.evaluate([tau], order)[0]

    def sample(self, n: int) -> list:
        """n matrix-path evaluations at evenly spaced parameters, ends included."""
        if n < 2:
            raise ValueError("need at least 2 samples")
        lo, hi = self.domain
        if not lo < hi:
            raise DomainError("evaluable domain [%s, %s] is degenerate" % (lo, hi))
        lo_f, hi_f = _to_float(lo), _to_float(hi)
        if not math.isfinite(hi_f - lo_f):
            raise DomainError("evaluable domain width is beyond the float range")
        grid = np.clip(np.linspace(lo_f, hi_f, n), lo_f, hi_f)
        # Rounding an exact bound to float may step just outside the domain;
        # parameters that landed there are evaluated at the exact bound.
        edge = ((grid == lo_f) & (lo_f < lo)) | ((grid == hi_f) & (hi_f > hi))
        points = np.empty((n, self.dim))
        points[~edge] = self.evaluate(grid[~edge])
        if edge.any():
            points[edge] = self.evaluate([lo if t < lo else hi for t in grid[edge].tolist()])
        return list(zip(grid.tolist(), points))


def _to_float(x) -> float:
    """float(x), or a signed infinity where x is beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _horner(rows: np.ndarray, u: np.ndarray, order: int) -> np.ndarray:
    """Weights sum over r >= order of r!/(r-order)! u^(r-order) rows[..., r, :].

    ``rows`` is one (k+1, k+1) matrix or a stack matching ``u``; the result
    is (len(u), k+1).  Horner's rule, not powers of u, so that values exact
    in floats stay exact.
    """
    top = rows.shape[-2] - 1
    x = u[:, None]
    acc = np.empty((len(u), rows.shape[-1]))
    acc[...] = rows[..., top, :]
    if order:
        acc *= math.perm(top, order)
    for r in range(top - 1, order - 1, -1):
        acc *= x
        acc += rows[..., r, :] * math.perm(r, order) if order else rows[..., r, :]
    return acc
