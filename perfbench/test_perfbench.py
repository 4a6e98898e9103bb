"""Tests of the benchmark itself: failure counting, tracing, the result contract.

Run from the root of the checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402

import splinemat  # noqa: E402
from splinemat import DomainError, SplineCurve  # noqa: E402


@pytest.fixture
def uniform(tmp_path):
    wl = workloads.SampleUniformK3(3, tmp_path)
    wl.setup()
    return wl


def test_clean_ops_pass(uniform):
    ops = run.run_ops(uniform, 0.1)
    assert ops.attempted >= 1
    assert ops.failed == 0
    assert ops.worst <= workloads.TOLERANCE
    # every op gets a calibrated time, from the kernel runs around it
    assert len(ops.scaled_ns) == len(ops.times_ns)
    assert len(ops.calibration_ns) >= 2
    assert run.end_to_end(ops, [0.01])["ok_share"] == 1.0


def test_perturbed_output_counts_as_failed(uniform, monkeypatch):
    sample = SplineCurve.sample

    def perturbed(self, n):
        rows = sample(self, n)
        tau, point = rows[n // 2]
        rows[n // 2] = (tau, point + 1e-6 * max(1.0, float(np.abs(point).max())))
        return rows

    monkeypatch.setattr(SplineCurve, "sample", perturbed)
    ops = run.run_ops(uniform, 0.1)
    assert ops.attempted >= 1
    assert ops.failed == ops.attempted
    assert "off its reference" in ops.first_error
    assert run.end_to_end(ops, [0.01])["ok_share"] == 0.0


def test_raised_domain_error_counts_as_failed(uniform, monkeypatch):
    def out_of_domain(self, tau):
        raise DomainError("tau outside evaluable domain")

    monkeypatch.setattr(SplineCurve, "eval_matrix", out_of_domain)
    ops = run.run_ops(uniform, 0.1)
    assert ops.attempted >= 1
    assert ops.failed == ops.attempted
    assert "DomainError" in ops.first_error
    values = run.end_to_end(ops, [0.01])
    assert values["ok_share"] == 0.0
    assert values["err_digits"] > 0


def test_failed_check_command_is_detected(tmp_path):
    wl = workloads.CheckK6(1, tmp_path)
    good = "".join("degree %d: max relative error 1.0e-15 (tolerance 1.0e-10), "
                   "column sums exact: ok\n" % k for k in range(1, 7)) + "check passed\n"
    assert wl.check(0, (0, good)) == pytest.approx(1e-15)
    assert wl.check(0, (1, good.replace("check passed", "check FAILED"))) == float("inf")
    assert wl.check(0, (0, good.splitlines()[0] + "\ncheck passed\n")) == float("inf")


def test_inputs_follow_the_seed(tmp_path):
    a = workloads.EvalClampedK10(5, tmp_path)
    b = workloads.EvalClampedK10(5, tmp_path)
    c = workloads.EvalClampedK10(6, tmp_path)
    assert a.taus == b.taus and a.control == b.control
    assert a.taus != c.taus
    lo, hi = a.knots[a.degree], a.knots[-a.degree - 1]
    assert lo in a.taus and hi in a.taus


def test_tracer_wraps_where_callers_look_and_restores(uniform):
    originals = (splinemat.curve.find_span, splinemat.knots.find_span,
                 splinemat.basismatrix.poly_mul, SplineCurve.eval_matrix)
    tracer = Tracer()
    tracer.install()
    try:
        assert splinemat.curve.find_span is not originals[0]
        assert splinemat.knots.find_span is splinemat.curve.find_span
        assert splinemat.basismatrix.poly_mul is not originals[2]
        uniform.setup()
        uniform.op(0)
    finally:
        tracer.uninstall()
    assert (splinemat.curve.find_span, splinemat.knots.find_span,
            splinemat.basismatrix.poly_mul, SplineCurve.eval_matrix) == originals
    assert tracer.missing() == []
    m = tracer.metrics()
    count = uniform.count
    assert m["curve.sample.calls"][0] == 2
    assert m["curve.eval_matrix.calls"][0] == 2 * count
    assert m["knots.find_span.calls"][0] == 2 * count
    # sample's busy time covers everything it calls
    sample_busy = m["curve.sample.busy_s"][0]
    assert tracer.covered_s() == pytest.approx(sample_busy, rel=1e-9)
    assert m["basismatrix.uniform_cache.misses"][0] >= 1


def test_traced_run_reports_the_declared_per_layer_metrics(uniform, tmp_path):
    result = run.measure_traced(uniform, 0.2, tmp_path / "spans.csv")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    reported = {k: u for k, (_, u) in result["metrics"].items()}
    assert reported == declared
    assert result["ops"].failed == 0
    assert (tmp_path / "spans.csv").read_text().startswith("span,parent,function")


def test_benchmark_json_names_every_workload_and_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert all(workloads.WORKLOADS[w["name"]].why == w["why"] for w in bench["workloads"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS


def test_without_the_program_the_benchmark_refuses(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "check-k6",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_ops_are_scaled_by_the_kernel_times_around_them():
    ref = run.CALIBRATION_REF_NS
    ops = run.Ops(times_ns=[10, 20, 30, 40], calibration_ns=[ref, ref, 3 * ref, 3 * ref],
                  block_ends=[2, 3, 4])
    run.scale_times(ops)
    # blocks: ops 0-1 between kernels 0 and 1, op 2 between 1 and 2, op 3 between 2 and 3
    assert ops.scaled_ns == pytest.approx([10, 20, 30 / 2, 40 / 3])
