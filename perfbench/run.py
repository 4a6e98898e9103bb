"""splinemat benchmark: seeded inputs, timed ops, checked outputs, one JSON line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload sample-uniform-k3 --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn in this one process.  The
package is imported from ``src/`` of the checkout, never from an installed
copy; without it the benchmark exits with code 2 and prints no result.

With ``--trace 0`` the run measures the end-to-end metrics: the median of
several cold set-ups, then ops in a closed loop (one at a time, one thread)
for ``--seconds``, with times calibrated against a fixed kernel (see
CALIBRATION_REF_NS).  With ``--trace 1`` it runs ops untraced for half the
time, then installs the wrappers of ``layertrace.py``, repeats the set-up
and runs a fixed number of ops traced; it reports the per-layer metrics
and the tracing overhead.  Every op's output is checked; an op that raises
or misses its reference fails.  The last line of standard output is the
result object; a copy, with the environment, goes to
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# one thread: keep numpy's BLAS from starting a pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread settings above)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"

UNITS = {
    "points_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "ok_share": "ratio",
    "err_digits": "digits",
}

# err_digits of an exact match; keeps the logarithm finite
_ERR_FLOOR = 1e-17

# Calibration.  The machine this was tuned on changes speed by up to ~1.7x
# for a minute or more at a time (other tenants share its cores), which no
# run length averages away.  So a run times a fixed kernel of the
# benchmark's own, before the first op and then every CALIBRATE_EVERY_S,
# and scales each op's time by CALIBRATION_REF_NS / (the mean of the two
# kernel times around it).  The speed can switch within seconds, so only
# the nearest kernel times are used.  Reported times are on the scale of a
# machine where the kernel takes CALIBRATION_REF_NS; raw times are printed
# and stored too.  The kernel runs between ops, never inside one.
CALIBRATION_REF_NS = 1_500_000
CALIBRATE_EVERY_S = 0.2


def calibration_kernel():
    """Fixed interpreter-bound work with no splinemat in it.

    The mix the workloads spend their time on: Fraction and float
    arithmetic, small numpy products, dict updates.
    """
    total, x, seen = Fraction(0), 0.0, {}
    v, m = np.ones(4), np.eye(4) * 0.5
    for i in range(1, 120):
        total += Fraction(i, i + 1) * Fraction(1, 3)
        x = x * 0.5 + i
        seen[i % 7] = x
        v = v @ m + 1.0
    return total, x, v


def calibrate() -> int:
    """Median time of three kernel runs, in ns."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        calibration_kernel()
        times.append(time.perf_counter_ns() - t0)
    return sorted(times)[1]


def import_program():
    """Put the checkout's src/ first on the path and import splinemat from it."""
    if not (SRC / "splinemat" / "__init__.py").is_file():
        raise FileNotFoundError("no splinemat package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import splinemat

    if Path(splinemat.__file__).resolve().parent != (SRC / "splinemat").resolve():
        raise ImportError("splinemat imported from %s, not %s" % (splinemat.__file__, SRC))
    return splinemat


@dataclass
class Ops:
    """What a closed loop of ops measured."""

    times_ns: list = field(default_factory=list)
    scaled_ns: list = field(default_factory=list)
    # kernel times; ops[block_ends[b-1]:block_ends[b]] ran between kernel b and b+1
    calibration_ns: list = field(default_factory=list)
    block_ends: list = field(default_factory=list)
    points: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    worst: float = 0.0
    first_error: str = ""

    def fail(self, message: str) -> None:
        self.failed += 1
        if not self.first_error:
            self.first_error = message


def run_ops(wl, seconds: float, tracer=None, count: int = 0) -> Ops:
    """Run op 0, 1, ... and check each output.

    Stops once ``seconds`` have passed or, if ``count`` is set, after
    ``count`` ops whatever the time.  Calibrates between ops and fills
    ``scaled_ns`` alongside the raw ``times_ns``.
    """
    from workloads import TOLERANCE

    ops = Ops()
    clock = time.perf_counter_ns
    ops.calibration_ns.append(calibrate())
    next_calibration = time.perf_counter() + CALIBRATE_EVERY_S
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            out = wl.op(i)
        except Exception as e:  # a raising op is a failed op, and the loop goes on
            out, error = None, "op %d raised %s: %s" % (i, type(e).__name__, e)
        else:
            error = None
        t1 = clock()
        ops.attempted += 1
        ops.times_ns.append(t1 - t0)
        ops.points.append(wl.points(i))
        if error is None:
            try:
                gap = wl.check(i, out)
            except Exception as e:  # e.g. a CSV that does not parse
                gap, error = math.inf, "op %d output unreadable: %s" % (i, e)
            ops.worst = max(ops.worst, gap)
            if error is None and not gap <= TOLERANCE:
                error = "op %d output off its reference by %.3g" % (i, gap)
        if error is not None:
            ops.fail(error)
        i += 1
        done = ops.attempted == count or (not count and time.perf_counter() >= deadline)
        if done or time.perf_counter() >= next_calibration:
            ops.calibration_ns.append(calibrate())
            ops.block_ends.append(ops.attempted)
            next_calibration = time.perf_counter() + CALIBRATE_EVERY_S
        if done:
            scale_times(ops)
            return ops


def scale_times(ops: Ops) -> None:
    """Fill ``ops.scaled_ns``: each block of ops scaled by the kernel times around it."""
    start = 0
    for b, end in enumerate(ops.block_ends):
        scale = CALIBRATION_REF_NS / (sum(ops.calibration_ns[b:b + 2]) / 2)
        ops.scaled_ns += [t * scale for t in ops.times_ns[start:end]]
        start = end


def setup_times(wl) -> tuple:
    """Raw and calibrated seconds of each of ``wl.setups`` cold set-ups.

    One kernel time is too noisy to scale a single set-up by, so all of
    them are scaled by the median kernel time around the set-ups.
    """
    raw, kernel = [], [calibrate()]
    for _ in range(wl.setups):
        gc.collect()
        t0 = time.perf_counter()
        wl.setup()
        raw.append(time.perf_counter() - t0)
        kernel.append(calibrate())
    scale = CALIBRATION_REF_NS / statistics.median(kernel)
    return raw, [t * scale for t in raw]


def op_metrics(times_ns: list, points: list) -> dict:
    ms = [t / 1e6 for t in times_ns]
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    # throughput: median over up to ten consecutive blocks of ops, so one
    # stall moves one block rather than the whole figure
    n = len(ms)
    blocks = min(10, n)
    rates = []
    for b in range(blocks):
        lo, hi = b * n // blocks, (b + 1) * n // blocks
        rates.append(sum(points[lo:hi]) / (sum(times_ns[lo:hi]) / 1e9))
    return {"points_per_s": statistics.median(rates), "op_p50_ms": statistics.median(ms),
            "op_p90_ms": p90}


def err_digits(worst: float) -> float:
    if not math.isfinite(worst):
        return 0.0
    return -math.log10(max(worst, _ERR_FLOOR))


def end_to_end(ops: Ops, setups: list) -> dict:
    """The end-to-end metric values of one run, by name, from calibrated times."""
    values = op_metrics(ops.scaled_ns, ops.points)
    values["setup_s"] = statistics.median(setups)
    values["ok_share"] = 1.0 - ops.failed / ops.attempted
    values["err_digits"] = err_digits(ops.worst)
    return values


def measure(wl, seconds: float) -> dict:
    """End-to-end run: cold set-ups, then ops for ``seconds``, tracing off."""
    raw_setups, setups = setup_times(wl)
    gc.collect()
    ops = run_ops(wl, seconds)
    values = end_to_end(ops, setups)
    raw = op_metrics(ops.times_ns, ops.points)
    raw["setup_s"] = statistics.median(raw_setups)
    return {
        "metrics": {name: (values[name], unit) for name, unit in UNITS.items()},
        "ops": ops,
        "detail": {"raw": raw, "setups_s": setups, "raw_setups_s": raw_setups,
                   "calibration_ms": statistics.median(ops.calibration_ns) / 1e6,
                   "calibration_ref_ms": CALIBRATION_REF_NS / 1e6,
                   "fail_share": ops.failed / ops.attempted},
    }


def measure_traced(wl, seconds: float, spans_path: Path) -> dict:
    """Per-layer run: untraced ops, then a traced cold set-up and traced ops.

    The traced part does a fixed amount of work (``wl.traced_ops`` ops), so
    its call counts repeat exactly and its times compare across versions.
    """
    from layertrace import Tracer

    wl.setup()
    gc.collect()
    plain = run_ops(wl, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        t0 = time.perf_counter()
        wl.setup()
        setup_s = time.perf_counter() - t0
        traced = run_ops(wl, 0, tracer=tracer, count=wl.traced_ops)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    untraced_ms = statistics.median(plain.times_ns) / 1e6
    traced_ms = statistics.median(traced.times_ns) / 1e6
    metrics = tracer.metrics()
    metrics["ref.scipy.points_per_s"] = (wl.reference_points_per_s(), "1/s")
    metrics["trace.untraced_op_ms"] = (untraced_ms, "ms")
    metrics["trace.traced_op_ms"] = (traced_ms, "ms")
    metrics["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
    traced_s = setup_s + sum(traced.times_ns) / 1e9
    metrics["trace.covered_share"] = (tracer.covered_s() / traced_s, "ratio")
    ops = Ops(attempted=plain.attempted + traced.attempted,
              failed=plain.failed + traced.failed, worst=max(plain.worst, traced.worst),
              first_error=plain.first_error or traced.first_error)
    return {
        "metrics": metrics,
        "ops": ops,
        "detail": {"ops_untraced": plain.attempted, "ops_traced": traced.attempted,
                   "traced_setup_s": setup_s, "spans_stored": len(tracer.spans),
                   "spans_dropped": tracer.dropped_spans, "not_wrapped": tracer.missing(),
                   "spans_file": spans_path.name},
    }


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine(), "commit": commit}


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, WORKDIR)
    print("== %s  seed=%d  seconds=%g  trace=%d" % (name, seed, seconds, trace))
    print("   why: %s" % wl.why)
    print("   shape: %s" % json.dumps(wl.shape()))
    if trace:
        spans_path = WORKDIR / ("spans-%s-seed%d.csv" % (name, seed))
        result = measure_traced(wl, seconds, spans_path)
    else:
        result = measure(wl, seconds)
    ops = result["ops"]
    for key, (value, unit) in result["metrics"].items():
        print("   %-44s %16.6g %s" % (key, value, unit))
    print("   ops %d, failed %d, fail_share %.3g, max_rel_err %.3g"
          % (ops.attempted, ops.failed, ops.failed / ops.attempted, ops.worst))
    detail = result["detail"]
    if "raw" in detail:
        print("   calibration kernel %.3f ms (reference %.3f ms); raw, uncalibrated: %s"
              % (detail["calibration_ms"], detail["calibration_ref_ms"],
                 ", ".join("%s %.6g" % kv for kv in detail["raw"].items())))
    if ops.first_error:
        print("   first failure: %s" % ops.first_error)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": env, "shape": wl.shape(), "failed": ops.failed,
              "attempted": ops.attempted, "max_rel_err": ops.worst,
              "first_error": ops.first_error, "detail": result["detail"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}}
    with open(WORKDIR / ("result-%s-seed%d-trace%d.json" % (name, seed, trace)), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import_program()
    except (ImportError, FileNotFoundError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            parser.error("unknown workload %r; choose from %s or all"
                         % (name, ", ".join(WORKLOADS)))
    WORKDIR.mkdir(parents=True, exist_ok=True)
    env = environment()
    print("env: %s" % json.dumps(env))
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace), env) for n in names]
    metrics = {}
    for r in records:
        prefix = "" if len(records) == 1 else r["workload"] + "/"
        for key, m in r["metrics"].items():
            metrics[prefix + key] = m
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
