"""The benchmark's workloads: seeded inputs, a cold set-up, one op, its check.

Every input splinemat sees is generated here from the seed.  Each workload
checks every op's output against a reference computed by the benchmark
(scipy's ``BSpline`` on a float copy of the knots, or the exit status and
verdict of ``splinemat check``) and returns the op's worst per-row
relative gap, so the runner can count failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import time
from pathlib import Path

import numpy as np
from scipy.interpolate import BSpline

from splinemat import KnotVector, SplineCurve, cli
from splinemat.basismatrix import uniform_basis_matrix

# Kept at import time: a traced run replaces the module's name with a
# wrapper that has no cache_clear.
_clear_uniform_cache = uniform_basis_matrix.cache_clear

# An op fails if any output row misses its reference by more than this
# (relative, per row), the acceptance suite's curve tolerance.
TOLERANCE = 1e-10


def row_gaps(got, ref) -> np.ndarray:
    """Per-row max |got - ref| over max(1, |got|, |ref|), as the acceptance suite scales."""
    got = np.atleast_2d(np.asarray(got, dtype=float))
    ref = np.atleast_2d(np.asarray(ref, dtype=float))
    if got.shape != ref.shape:
        return np.full(max(len(ref), 1), math.inf)
    scale = np.maximum(1.0, np.maximum(np.abs(got).max(axis=1), np.abs(ref).max(axis=1)))
    gaps = np.abs(got - ref).max(axis=1) / scale
    return np.where(np.isnan(gaps), math.inf, gaps)


def _sample_gap(taus, points, spline, grid) -> float:
    """Worst row gap of a sampled (tau, point) table against ``spline`` at its taus.

    The taus must match the evenly spaced ``grid`` to 1e-12 of its width;
    a table on another grid fails outright.
    """
    taus = np.asarray(taus, dtype=float)
    width = grid[-1] - grid[0]
    if taus.shape != grid.shape or not np.all(np.abs(taus - grid) <= 1e-12 * width):
        return math.inf
    return float(row_gaps(points, spline(taus)).max())


class Workload:
    """One seeded input set.  Subclasses fill in the shape, set-up, op and check."""

    name = ""
    why = ""
    # Set-ups per run; setup_s is their median.
    setups = 3
    # Ops in the traced part of a --trace 1 run: a fixed amount of work of
    # a few seconds.
    traced_ops = 5

    def __init__(self, seed: int, workdir: Path):
        # one stream per workload, so workloads never share draws
        self.rng = np.random.default_rng([seed, _WORKLOAD_INDEX[self.name]])

    def shape(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        """Cold build plus the first pass that fills the span caches."""
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> float:
        """Worst per-row relative gap of op i's output against its reference."""
        raise NotImplementedError

    def points(self, i: int) -> int:
        """Parameter values evaluated (or checked) by op i."""
        raise NotImplementedError

    def reference_points_per_s(self) -> float:
        """scipy BSpline throughput on this workload's knots and parameters; 0 if none."""
        return 0.0


def _scipy_rate(spline, taus, repeats: int = 7) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        spline(taus)
        times.append(time.perf_counter() - t0)
    return len(taus) / float(np.median(times))


class SampleUniformK3(Workload):
    name = "sample-uniform-k3"
    why = ("k=3, uniform integer (rational) knots, 200 spans, 3-D: warm SplineCurve.sample "
           "loop timing the per-point knots lookup/normalise and curve Horner path")
    setups = 5
    traced_ops = 100
    degree, spans, dim, count = 3, 200, 3, 400

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        k, n = self.degree, self.spans + self.degree
        self.start = int(self.rng.integers(-100, 101))
        self.step = int(self.rng.integers(1, 4))
        self.control = self.rng.normal(0.0, 10.0, (n, self.dim)).tolist()
        knots = np.array([self.start + i * self.step for i in range(n + k + 1)], dtype=float)
        self.spline = BSpline(knots, np.array(self.control), k)
        self.grid = np.linspace(knots[k], knots[n], self.count)
        self.curve = None

    def shape(self):
        return {"degree": self.degree, "knots": "uniform integer", "storage": "rational",
                "spans": self.spans, "dim": self.dim, "points_per_op": self.count}

    def setup(self):
        _clear_uniform_cache()
        k, n = self.degree, self.spans + self.degree
        kv = KnotVector.uniform(n + k + 1, start=self.start, step=self.step)
        self.curve = SplineCurve(k, kv, self.control)
        self.curve.sample(self.count)

    def op(self, i):
        return self.curve.sample(self.count)

    def check(self, i, out):
        return _sample_gap([t for t, _ in out], [p for _, p in out], self.spline, self.grid)

    def points(self, i):
        return self.count

    def reference_points_per_s(self):
        return _scipy_rate(self.spline, self.grid)


class SampleNonuniformK10Cli(Workload):
    name = "sample-nonuniform-k10-cli"
    why = ("k=10, non-uniform float knots, 20 spans, 3-D, CSV out: splinemat sample per op "
           "builds a fresh curve, so exact basismatrix/polytoeplitz construction dominates")
    degree, spans, dim, count = 10, 20, 3, 2000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        k, n = self.degree, self.spans + self.degree
        gaps = self.rng.uniform(0.5, 1.5, n + k)
        knots = float(self.rng.uniform(-10.0, 10.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
        control = self.rng.normal(0.0, 10.0, (n, self.dim))
        self.spline_path = workdir / ("%s-%d.json" % (self.name, seed))
        self.csv_path = workdir / ("%s-%d.csv" % (self.name, seed))
        with open(self.spline_path, "w", encoding="utf-8") as f:
            json.dump({"degree": k, "knots": knots.tolist(),
                       "control_points": control.tolist()}, f)
        self.spline = BSpline(knots, control, k)
        self.grid = np.linspace(knots[k], knots[n], self.count)

    def shape(self):
        return {"degree": self.degree, "knots": "non-uniform", "storage": "float",
                "spans": self.spans, "dim": self.dim, "points_per_op": self.count,
                "output": "CSV"}

    def setup(self):
        _clear_uniform_cache()
        curve = cli.load_spline(str(self.spline_path))
        curve.sample(self.count)

    def op(self, i):
        return cli.main(["sample", str(self.spline_path), "-n", str(self.count),
                         "-o", str(self.csv_path)])

    def check(self, i, out):
        if out != 0:
            return math.inf
        table = np.loadtxt(self.csv_path, delimiter=",", skiprows=1, ndmin=2)
        return _sample_gap(table[:, 0], table[:, 1:], self.spline, self.grid)

    def points(self, i):
        return self.count

    def reference_points_per_s(self):
        return _scipy_rate(self.spline, self.grid)


class EvalClampedK10(Workload):
    name = "eval-clamped-k10"
    why = ("k=10, clamped integer (rational) knots, 60 spans, 3-D: scalar "
           "eval_matrix/cumulative/derivative at random, knot and end taus; set-up fills "
           "per-span caches")
    traced_ops = 30000
    degree, spans, dim, draws = 10, 60, 3, 3000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        k, s = self.degree, self.spans
        start = int(self.rng.integers(-100, 101))
        step = int(self.rng.integers(1, 4))
        ints = [0] * (k + 1) + list(range(1, s)) + [s] * (k + 1)
        self.knots = [start + step * v for v in ints]
        n = len(self.knots) - k - 1
        self.control = self.rng.normal(0.0, 10.0, (n, self.dim)).tolist()
        lo, hi = float(self.knots[k]), float(self.knots[n])
        taus = self.rng.uniform(lo, hi, self.draws)
        # one draw in ten sits exactly on a knot, and both domain ends occur
        on_knot = self.rng.random(self.draws) < 0.1
        taus[on_knot] = self.rng.choice(np.array(self.knots[k:n + 1], dtype=float),
                                        int(on_knot.sum()))
        taus[self.rng.choice(self.draws, 2, replace=False)] = (lo, hi)
        self.taus = taus.tolist()
        self.spline = BSpline(np.array(self.knots, dtype=float), np.array(self.control), k)
        self.ref_value = self.spline(taus)
        self.ref_slope = self.spline.derivative()(taus)
        self.mids = [(self.knots[j] + self.knots[j + 1]) / 2 for j in range(k, n)
                     if self.knots[j] < self.knots[j + 1]]
        self.curve = None

    def shape(self):
        return {"degree": self.degree, "knots": "clamped, uniform integer interior",
                "storage": "rational", "spans": self.spans, "dim": self.dim,
                "tau_pool": self.draws}

    def setup(self):
        _clear_uniform_cache()
        self.curve = SplineCurve(self.degree, KnotVector(self.knots), self.control)
        for tau in self.mids:
            self.curve.eval_matrix(tau)
            self.curve.eval_cumulative(tau)
            self.curve.eval_derivative(tau, 1)

    def op(self, i):
        tau = self.taus[i % self.draws]
        method = i % 3
        if method == 0:
            return self.curve.eval_matrix(tau)
        if method == 1:
            return self.curve.eval_cumulative(tau)
        return self.curve.eval_derivative(tau, 1)

    def check(self, i, out):
        ref = self.ref_slope if i % 3 == 2 else self.ref_value
        return float(row_gaps(out, ref[i % self.draws]).max())

    def points(self, i):
        return 1

    def reference_points_per_s(self):
        return _scipy_rate(self.spline, np.asarray(self.taus))


_CHECK_LINE = re.compile(r"max relative error (\S+)")


class CheckK6(Workload):
    name = "check-k6"
    why = ("splinemat check --degree-max 6, uniform and clamped rational knots, 2-D: the only "
           "workload timing the coxdeboor reference recursion")
    degree_max, trials = 6, 25

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.check_seeds = self.rng.integers(0, 2 ** 31, 1000).tolist()

    def shape(self):
        return {"degree_max": self.degree_max, "knots": "uniform and clamped per degree",
                "storage": "rational", "trials": self.trials,
                "points_per_op": self.points(0)}

    def _argv(self, i):
        return ["check", "--degree-max", str(self.degree_max), "--trials", str(self.trials),
                "--seed", str(self.check_seeds[i % len(self.check_seeds)])]

    def setup(self):
        _clear_uniform_cache()
        self.op(0)

    def op(self, i):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self._argv(i))
        return code, buf.getvalue()

    def check(self, i, out):
        code, text = out
        lines = text.splitlines()
        errors = [float(m.group(1)) for m in map(_CHECK_LINE.search, lines) if m]
        if code != 0 or not lines or lines[-1] != "check passed" or len(errors) != self.degree_max:
            return math.inf
        return max(errors)

    def points(self, i):
        # two curves per degree, `trials` draws each, degrees 1..degree_max
        return 2 * self.trials * self.degree_max


WORKLOADS = {w.name: w for w in (SampleUniformK3, SampleNonuniformK10Cli, EvalClampedK10, CheckK6)}
_WORKLOAD_INDEX = {name: i for i, name in enumerate(WORKLOADS)}
