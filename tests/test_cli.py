import functools
import io
import itertools
import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from splinemat import MAX_DEGREE, BasisMatrix, KnotVector, SplineCurve, uniform_basis_matrix
from splinemat import cli
from splinemat.cli import MAX_KNOTS, MAX_SAMPLES, load_knots, load_spline, main, save_spline


def write_cubic_spline(path):
    path.write_text(json.dumps({
        "degree": 3,
        "knots": [0, 1, 2, 3, 4, 5, 6, 7],
        "control_points": [[0.0], [1.0], [2.0], [3.0]],
    }))
    return str(path)


def write_huge_points_spline(path):
    """Degree 3 on evenly spaced knots, points alternating +-1.7e308: differences overflow."""
    path.write_text(json.dumps({"degree": 3, "knots": list(range(10)),
                                "control_points": [[1.7e308 * (-1) ** i] for i in range(6)]}))
    return str(path)


def write_narrow_spline(path):
    """Degree 1 over one span 10^-400 wide, narrower than the smallest double."""
    tiny = "1/1" + "0" * 400
    path.write_text(json.dumps({"degree": 1, "knots": ["0", "0", tiny, tiny],
                                "control_points": [[0], [1]]}))
    return str(path)


def relative_gap(a, b):
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


class TestBasisMatrixCommand:
    def test_degree_two_json(self, capsys):
        assert main(["basis-matrix", "--degree", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["entries"] == [["1/2", "1/2", "0"], ["-1", "1", "0"], ["1/2", "-1", "1/2"]]
        assert data["degree"] == 2
        assert data["span"] is None
        assert data["orientation"] == "rows=powers"

    def test_degree_zero(self, capsys):
        assert main(["basis-matrix", "--degree", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == [["1"]]

    def test_cumulative_cubic(self, capsys):
        assert main(["basis-matrix", "--degree", "3", "--cumulative"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cumulative"] is True
        assert data["entries"] == [
            ["1", "5/6", "1/6", "0"],
            ["0", "1/2", "1/2", "0"],
            ["0", "-1/2", "1/2", "0"],
            ["0", "1/6", "-1/3", "1/6"],
        ]

    def test_rational_strings_parse_back_exactly(self, capsys):
        assert main(["basis-matrix", "--degree", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        from splinemat import uniform_basis_matrix

        parsed = tuple(tuple(Fraction(s) for s in row) for row in data["entries"])
        assert parsed == uniform_basis_matrix(4).entries

    def test_non_uniform_with_knots_file(self, tmp_path, capsys):
        kf = tmp_path / "knots.json"
        kf.write_text(json.dumps([0, 0, 0, 0, 1, 1, 1, 1]))
        assert main(["basis-matrix", "--degree", "3", "--knots-file", str(kf), "--span", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["span"] == 3
        assert data["entries"][1] == ["-3", "3", "0", "0"]

    def test_span_required_with_knots_file(self, tmp_path, capsys):
        kf = tmp_path / "knots.json"
        kf.write_text(json.dumps([0, 1, 2, 3]))
        assert main(["basis-matrix", "--degree", "1", "--knots-file", str(kf)]) == 2

    def test_knots_file_without_a_list_exits_two(self, tmp_path, capsys):
        kf = tmp_path / "knots.json"
        kf.write_text(json.dumps("x"))
        assert main(["basis-matrix", "--degree", "1", "--knots-file", str(kf), "--span", "1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: knots file must hold a JSON array (or {'knots': [...]})\n"

    def test_span_without_knots_file_exits_two(self, capsys):
        assert main(["basis-matrix", "--degree", "1", "--span", "1"]) == 2
        assert capsys.readouterr().err == "error: --span only applies with --knots-file\n"

    def test_csv_format(self, capsys):
        assert main(["basis-matrix", "--degree", "1", "--format", "csv"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "# degree=1" in out and "# orientation=rows=powers" in out
        assert out[-2:] == ["1,0", "-1,1"]

    def test_output_file(self, tmp_path):
        target = tmp_path / "m.json"
        assert main(["basis-matrix", "--degree", "2", "--output", str(target)]) == 0
        assert json.loads(target.read_text())["degree"] == 2

    def test_degree_cap(self, capsys):
        assert main(["basis-matrix", "--degree", "31"]) == 2
        assert "cap" in capsys.readouterr().err


class TestEvalCommand:
    @pytest.mark.parametrize("method", ["coxdeboor", "matrix", "cumulative"])
    def test_midspan_value(self, tmp_path, capsys, method):
        spline = write_cubic_spline(tmp_path / "c.json")
        assert main(["eval", spline, "--tau", "3.5", "--method", method]) == 0
        assert float(capsys.readouterr().out.strip()) == 1.5

    def test_recursion_and_matrix_agree_at_a_closed_domain_end(self, tmp_path, capsys):
        path = tmp_path / "jump.json"
        path.write_text(json.dumps({"degree": 2, "knots": [0, 0, 0, 1, 2, 3, 3, 3, 4],
                                    "control_points": [[0], [1], [2], [3], [4], [5]]}))
        lines = []
        for method in ("coxdeboor", "matrix"):
            assert main(["eval", str(path), "--tau", "3", "--method", method]) == 0
            lines.append(capsys.readouterr().out)
        assert lines == ["4\n", "4\n"]

    def test_full_precision_output(self, tmp_path, capsys):
        spline = write_cubic_spline(tmp_path / "c.json")
        assert main(["eval", spline, "--tau", "3.1"]) == 0
        printed = capsys.readouterr().out.strip()
        curve = load_spline(spline)
        assert float(printed) == float(curve.eval_matrix(3.1)[0])

    def test_outside_domain_exits_two(self, tmp_path, capsys):
        spline = write_cubic_spline(tmp_path / "c.json")
        assert main(["eval", spline, "--tau", "9.0"]) == 2
        assert "tau outside evaluable domain" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["coxdeboor", "matrix", "cumulative"])
    def test_degenerate_domain_exits_two(self, tmp_path, capsys, method):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"degree": 1, "knots": [0, 0, 0, 1],
                                    "control_points": [[1.0], [2.0]]}))
        assert main(["eval", str(path), "--tau", "0", "--method", method]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: evaluable domain [0, 0] is degenerate\n"

    @pytest.mark.parametrize("method", ["coxdeboor", "matrix", "cumulative"])
    def test_span_narrower_than_a_double_exits_two(self, tmp_path, capsys, method):
        spline = write_narrow_spline(tmp_path / "narrow.json")
        assert main(["eval", spline, "--tau", "0", "--method", method]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["eval", str(tmp_path / "nope.json"), "--tau", "1.0"]) == 3

    @pytest.mark.parametrize("method", ["coxdeboor", "matrix", "cumulative"])
    def test_knots_beyond_float_range_exit_two(self, tmp_path, capsys, method):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"degree": 1, "knots": [0, 0, 10 ** 400, 10 ** 400],
                                    "control_points": [[0.0], [1.0]]}))
        assert main(["eval", str(path), "--tau", "1.0", "--method", method]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("method", ["matrix", "cumulative"])
    def test_points_near_the_float_maximum_exit_two(self, tmp_path, capsys, method):
        spline = write_huge_points_spline(tmp_path / "huge.json")
        assert main(["eval", spline, "--tau", "4.5", "--method", method]) == 2
        err = capsys.readouterr().err
        # the span of tau = 4.5: a fill forms only the asked spans
        assert err == "error: control points of span 4 are too large to evaluate in floats\n"


class TestSampleCommand:
    def test_csv_contents(self, tmp_path):
        spline = write_cubic_spline(tmp_path / "c.json")
        out = tmp_path / "samples.csv"
        assert main(["sample", spline, "-n", "3", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,x0"
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        assert rows == [(3.0, 1.0), (3.5, 1.5), (4.0, 2.0)]

    # more rows than one formatted write, and the fewest a sample has
    @pytest.mark.parametrize("count", [cli.CSV_BLOCK_ROWS * 2 + 37, 2])
    def test_csv_bytes_are_the_rows_formatted_one_by_one(self, tmp_path, count):
        rng = np.random.default_rng(count)
        knots = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, 11)))).tolist()
        path = tmp_path / "spline.json"
        path.write_text(json.dumps({"degree": 3, "knots": knots,
                                    "control_points": rng.normal(0.0, 10.0, (8, 2)).tolist()}))
        out = tmp_path / "samples.csv"
        assert main(["sample", str(path), "-n", str(count), "-o", str(out)]) == 0
        curve = load_spline(str(path))
        grid = np.linspace(knots[3], knots[8], count)
        rows = zip(grid.tolist(), curve.evaluate(grid).tolist())
        want = "tau,x0,x1\n" + "".join("%.17g,%.17g,%.17g\n" % ((t,) + tuple(p)) for t, p in rows)
        assert out.read_bytes() == want.encode()

    def test_bounds_that_round_outward_write_the_exact_bound_values(self, tmp_path):
        path = tmp_path / "spline.json"
        path.write_text(json.dumps({"degree": 1, "knots": [0, "1/3", "1/2", "11/10", 2],
                                    "control_points": [[0.0], [1.0], [3.0]]}))
        out = tmp_path / "samples.csv"
        assert main(["sample", str(path), "-n", "5", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "%.17g,0" % (1 / 3) and lines[-1] == "%.17g,3" % 1.1

    def test_span_narrower_than_a_double_exits_two(self, tmp_path, capsys):
        spline = write_narrow_spline(tmp_path / "narrow.json")
        assert main(["sample", spline, "-n", "5", "-o", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unwritable_output_exits_three(self, tmp_path):
        spline = write_cubic_spline(tmp_path / "c.json")
        assert main(["sample", spline, "-n", "3", "-o", str(tmp_path / "no" / "dir.csv")]) == 3

    # the huge count is refused before anything is allocated for it
    @pytest.mark.parametrize("count", ["1", "10000000000000"])
    def test_bad_count_exits_two(self, tmp_path, capsys, count):
        spline = write_cubic_spline(tmp_path / "c.json")
        out = tmp_path / "s.csv"
        assert main(["sample", spline, "-n", count, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_points_near_the_float_maximum_exit_two(self, tmp_path, capsys):
        spline = write_huge_points_spline(tmp_path / "huge.json")
        assert main(["sample", spline, "-n", "5", "-o", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "error: control points of span 3 are too large to evaluate in floats\n"

    @pytest.mark.parametrize("knots", [[0, 10 ** 400], [-1e308, 1e308]])
    def test_domain_beyond_float_range_exits_two(self, tmp_path, capsys, knots):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"degree": 0, "knots": knots, "control_points": [[1]]}))
        assert main(["sample", str(path), "-n", "3", "-o", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "beyond the float range" in err
        assert err.count("\n") == 1


class TestCheckCommand:
    def test_passes_and_reports_per_degree(self, capsys):
        assert main(["check", "--degree-max", "3", "--trials", "20", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        for k in (1, 2, 3):
            assert "degree %d: max relative error" % k in out
        assert "check passed" in out

    def test_degree_zero_trivially_passes(self, capsys):
        assert main(["check", "--degree-max", "0"]) == 0
        assert "no degrees to check" in capsys.readouterr().out

    # row 0 must sum to 1, row 2 to 0
    @pytest.mark.parametrize("row, col", [(0, 0), (2, 1)])
    def test_corrupted_matrix_detected(self, capsys, monkeypatch, row, col):
        def broken(degree):
            entries = [list(line) for line in uniform_basis_matrix(degree).entries]
            if row <= degree:
                entries[row][col] += Fraction(1, 10 ** 6)
            return BasisMatrix(degree=degree, entries=tuple(map(tuple, entries)))

        monkeypatch.setattr(cli, "uniform_basis_matrix", broken)
        assert main(["check", "--degree-max", "2", "--trials", "5"]) == 1
        assert "BROKEN" in capsys.readouterr().out

    def test_clamped_spans_come_from_the_curve_build(self, monkeypatch):
        # no general construction runs: every span of the uniform vector
        # shares the uniform matrix, and the clamped vector's spans are the
        # windows its curve built
        calls = []
        build = cli.general_basis_matrix

        def counting(kv, degree, span):
            calls.append(kv)
            return build(kv, degree, span)

        monkeypatch.setattr(cli, "general_basis_matrix", counting)
        assert cli.run_check(4, 3, 1, out=io.StringIO()) == 0
        assert calls == []

    def test_column_sums_are_summed_once_per_matrix_until_cache_clear(self, monkeypatch):
        summed = []
        plain = BasisMatrix.column_sums_ok.func
        counting = functools.cached_property(lambda m: summed.append(m) or plain(m))
        counting.__set_name__(BasisMatrix, "column_sums_ok")
        monkeypatch.setattr(BasisMatrix, "column_sums_ok", counting)
        uniform_basis_matrix.cache_clear()
        assert cli.run_check(4, 3, 1, out=io.StringIO()) == 0
        # per degree the uniform matrix and each clamped span's window
        windows = {(k, cli.span_window(kv, k, j)) for k in range(1, 5)
                   for kv in cli._check_knot_vectors(k)[1:]
                   for j in range(k, len(kv.values) - k - 1) if kv.values[j] < kv.values[j + 1]}
        assert len(summed) == 4 + len(windows)
        assert cli.run_check(4, 3, 2, out=io.StringIO()) == 0
        assert len(summed) == 4 + len(windows)
        uniform_basis_matrix.cache_clear()  # a cold set-up verifies again
        assert cli.run_check(4, 3, 1, out=io.StringIO()) == 0
        assert len(summed) == 2 * (4 + len(windows))

    @pytest.mark.parametrize("degree_max, trials, seed", [(4, 12, 9), (10, 30, 3)])
    def test_worst_matches_scalar_recomputation(self, degree_max, trials, seed):
        out = io.StringIO()
        assert cli.run_check(degree_max, trials, seed, out=out) == 0
        printed = re.findall(r"max relative error (\S+)", out.getvalue())
        rng = random.Random(seed)
        want = []
        for k in range(1, degree_max + 1):
            worst = 0.0
            for kv in cli._check_knot_vectors(k):
                n = len(kv.values) - k - 1
                pts = [[rng.uniform(-10.0, 10.0) for _ in range(2)] for _ in range(n)]
                curve = SplineCurve(k, kv, pts)
                lo, hi = (float(v) for v in curve.domain)
                for _ in range(trials):
                    tau = rng.uniform(lo, hi)
                    a, b, c = (curve.eval_coxdeboor(tau), curve.eval_matrix(tau),
                               curve.eval_cumulative(tau))
                    worst = max([worst] + [relative_gap(x, y) for x, y in ((a, b), (a, c), (b, c))])
            want.append("%.3e" % worst)
        assert printed == want

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_relative_gaps_equal_the_row_max_formula(self, d):
        def by_rows(a, b):  # a reduction along the last axis
            scale = np.maximum(1.0, np.maximum(np.abs(a).max(axis=1), np.abs(b).max(axis=1)))
            return np.abs(a - b).max(axis=1) / scale

        rng = np.random.default_rng(d)
        a = rng.normal(0.0, 1.0, (60, d)) * 10.0 ** rng.integers(-3, 4, (60, 1))
        b = a + rng.normal(0.0, 1e-9, (60, d))
        specials = (np.nan, np.inf, -np.inf, -0.0, 1.0)
        for r, (x, y) in enumerate(itertools.product(specials, repeat=2)):
            a[r, r % d], b[r, r % d] = x, y
        with np.errstate(invalid="ignore"):
            got, want = cli._relative_gaps(a, b), by_rows(a, b)
        assert np.isnan(got).any()
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("argv,message", [
        (["--degree-max", "31"], "degree-max must lie in [0, %d]" % MAX_DEGREE),
        (["--degree-max", "-1"], "degree-max must lie in [0, %d]" % MAX_DEGREE),
        (["--trials", "0"], "trials must be >= 1"),
    ], ids=["degree-max-31", "degree-max-minus-1", "trials-0"])
    def test_arguments_out_of_range_exit_two(self, capsys, argv, message):
        assert main(["check"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message

    def test_trials_cap_checked_before_any_work(self, capsys, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("work started before the trial count was checked")

        monkeypatch.setattr(cli, "uniform_basis_matrix", build)
        monkeypatch.setattr(cli, "SplineCurve", build)
        assert main(["check", "--trials", "10000000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "exceeds cap %d" % MAX_SAMPLES in captured.err

    def test_repeatable_with_seed(self, capsys):
        main(["check", "--degree-max", "2", "--trials", "10", "--seed", "3"])
        first = capsys.readouterr().out
        main(["check", "--degree-max", "2", "--trials", "10", "--seed", "3"])
        assert capsys.readouterr().out == first


ROUND_TRIP_KNOTS = {
    "uniform": KnotVector.uniform(44),
    "clamped": KnotVector([0] * 4 + list(range(1, 37)) + [37] * 4),
    "float": KnotVector(np.cumsum(np.random.default_rng(44).uniform(0.5, 2.0, 44)).tolist()),
}
# the same values in four memory layouts; a loaded file's points are C-ordered
POINT_LAYOUTS = {
    "C": lambda p: p,
    "fortran": np.asfortranarray,
    "transposed": lambda p: np.ascontiguousarray(p.T).T,
    "negative-stride": lambda p: p[::-1].copy()[::-1],
}


class TestSplineFiles:
    @pytest.mark.parametrize("layout", POINT_LAYOUTS)
    @pytest.mark.parametrize("knots", ROUND_TRIP_KNOTS)
    def test_round_trip_evaluation_is_bit_identical(self, tmp_path, knots, layout):
        kv = ROUND_TRIP_KNOTS[knots]
        points = POINT_LAYOUTS[layout](np.random.default_rng(3).normal(0.0, 10.0, (40, 3)))
        curve = SplineCurve(3, kv, points)
        path = tmp_path / "curve.json"
        save_spline(str(path), curve)
        loaded = load_spline(str(path))
        lo, hi = (float(v) for v in curve.domain)
        taus = np.linspace(lo, hi, 101)
        assert np.array_equal(curve.evaluate(taus), loaded.evaluate(taus))
        for tau in taus.tolist():
            assert np.array_equal(curve.eval_matrix(tau), loaded.eval_matrix(tau))
            assert np.array_equal(curve.eval_cumulative(tau), loaded.eval_cumulative(tau))

    def test_float_knots_round_trip(self, tmp_path):
        kv = KnotVector([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
        curve = SplineCurve(3, kv, [[0.25], [1.5], [-2.0], [0.125]])
        path = tmp_path / "curve.json"
        save_spline(str(path), curve)
        loaded = load_spline(str(path))
        assert loaded.knots.values == kv.values
        for tau in np.linspace(0.3, 0.4, 9):
            assert np.array_equal(curve.eval_matrix(float(tau)), loaded.eval_matrix(float(tau)))

    def test_uniform_spec_with_exact_strings(self, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(json.dumps({
            "degree": 2,
            "knots": {"start": "1/3", "delta": "1/3", "count": 7},
            "control_points": [[1.0], [2.0], [3.0], [4.0]],
        }))
        curve = load_spline(str(path))
        assert curve.knots.storage == "rational"
        assert curve.knots.values[0] == Fraction(1, 3)

    def test_rejects_nan_and_bad_shapes(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"degree": 1, "knots": [0, 1, 2, NaN], "control_points": [[0], [1]]}')
        assert main(["eval", str(path), "--tau", "1.0"]) == 2
        path.write_text('{"degree": 1, "knots": [0, 1, 2], "control_points": [[0], [1]]}')
        assert main(["eval", str(path), "--tau", "1.0"]) == 2
        path.write_text('{"degree": 1, "knots": [0, 1, 2, 3]}')
        assert main(["eval", str(path), "--tau", "1.0"]) == 2

    @pytest.mark.parametrize("spec,message", [
        ({"degree": 1, "knots": {"start": 0, "delta": 1}, "control_points": [[0], [1]]},
         "uniform knots missing field count"),
        ({"degree": 1, "knots": {"count": 4}, "control_points": [[0], [1]]},
         "uniform knots missing field start, delta"),
        ({"degree": 1, "knots": [0, 1, 2, 3], "control_points": [[[0]], [[1]]]},
         "coordinate must be a number"),
        ({"degree": 1, "knots": [0, 1, 2, 3], "control_points": [[0], ["1/3"]]},
         "coordinate must be a number"),
        ({"degree": 1, "knots": [0, 1, 2, 3], "control_points": [[0], [True]]},
         "coordinate must be a number"),
        ({"degree": True, "knots": [0, 1, 2, 3], "control_points": [[0], [1]]},
         "degree must be a non-negative integer"),
        ({"degree": 1, "knots": [0, 1, 2, 3], "control_points": [[0], [10 ** 400]]},
         "out of float range"),
        ({"degree": 1, "knots": [0, 1, 2, "1/0"], "control_points": [[0], [1]]},
         "zero denominator"),
        # an exponent would build the whole power of ten before any check
        ({"degree": 1, "knots": [0, 1, 2, "1e10000000"], "control_points": [[0], [1]]},
         "expected an integer, decimal or 'p/q' string"),
        # exact knots print as the file writes them
        ({"degree": 1, "knots": [0, 2, 1, 3], "control_points": [[0], [1]]},
         "knots must be non-decreasing: 2 > 1"),
        ({"degree": 1, "knots": {"start": 0, "delta": "-1/2", "count": 4},
          "control_points": [[0], [1]]},
         "knots must be non-decreasing: 0 > -1/2"),
        ({"degree": 1, "knots": [0, 1, 2, 3, 4, 5], "control_points": [[0], [1, 2], [2], [3]]},
         "control point 1 has 2 coordinates, expected 1"),
        ([1, [0, 1, 2, 3], [[0], [1]]], "spline file must hold a JSON object"),
        ({"degree": 1, "knots": {"start": 0, "delta": 1, "count": 2.5},
          "control_points": [[0], [1]]},
         "uniform knot count must be an integer >= 2"),
        ({"degree": 1, "knots": "0 1 2 3", "control_points": [[0], [1]]},
         "knots must be a list or a {start, delta, count} object"),
        ({"degree": 1, "knots": [0, 1, 2, 3], "control_points": []},
         "control_points must be a non-empty list of vectors"),
        ({"degree": 1, "knots": [0, 1, 2, 3], "control_points": [0, 1]},
         "each control point must be a list of coordinates"),
        ({"degree": 1, "knots": [0, 1, None, 3], "control_points": [[0], [1]]},
         "expected a number or 'p/q' string, got None"),
    ])
    def test_malformed_fields_exit_two_with_one_line(self, tmp_path, capsys, spec, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert main(["eval", str(path), "--tau", "1.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_uniform_count_cap_checked_before_building(self, tmp_path, capsys, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("knots built before the count was checked")

        monkeypatch.setattr(KnotVector, "uniform", build)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"degree": 1, "control_points": [[0], [1]],
                                    "knots": {"start": 0, "delta": 1, "count": MAX_KNOTS + 1}}))
        assert main(["eval", str(path), "--tau", "1.5"]) == 2
        assert "exceeds cap %d" % MAX_KNOTS in capsys.readouterr().err

    def test_degree_cap_checked_at_load(self, tmp_path):
        degree = MAX_DEGREE + 1
        path = tmp_path / "high.json"
        path.write_text(json.dumps({
            "degree": degree,
            "knots": {"start": 0, "delta": 1, "count": 2 * degree + 2},
            "control_points": [[0.0]] * (degree + 1),
        }))
        with pytest.raises(ValueError, match="exceeds cap %d" % MAX_DEGREE):
            load_spline(str(path))

    def test_knots_file_variants(self, tmp_path):
        plain = tmp_path / "a.json"
        plain.write_text("[0, 1, 2]")
        wrapped = tmp_path / "b.json"
        wrapped.write_text('{"knots": ["0", "1/2", "1"]}')
        assert load_knots(str(plain)).values == KnotVector([0, 1, 2]).values
        assert load_knots(str(wrapped)).values == (Fraction(0), Fraction(1, 2), Fraction(1))

    def test_knot_count_cap_applies_to_both_loaders(self, tmp_path, capsys, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("knots built before the count was checked")

        monkeypatch.setattr(cli, "MAX_KNOTS", 8)
        monkeypatch.setattr(cli, "KnotVector", build)
        knots = tmp_path / "knots.json"
        knots.write_text(json.dumps(list(range(12))))
        spline = tmp_path / "spline.json"
        spline.write_text(json.dumps({"degree": 1, "knots": list(range(12)),
                                      "control_points": [[0.0]] * 10}))
        for argv in (["basis-matrix", "--degree", "1", "--knots-file", str(knots), "--span", "1"],
                     ["sample", str(spline), "-n", "3", "-o", str(tmp_path / "out.csv")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err == "error: knot count 12 exceeds cap 8\n"

    @pytest.mark.parametrize("command", ["sample", "eval", "basis-matrix"])
    def test_mixed_float_and_huge_integer_knots_exit_two(self, tmp_path, capsys, command):
        knots = [0, 0, 0.5, 10 ** 400, 10 ** 400]
        spline = tmp_path / "spline.json"
        spline.write_text(json.dumps({"degree": 1, "knots": knots,
                                      "control_points": [[0.0], [1.0], [2.0]]}))
        knots_file = tmp_path / "knots.json"
        knots_file.write_text(json.dumps(knots))
        argv = {"sample": ["sample", str(spline), "-n", "3", "-o", str(tmp_path / "s.csv")],
                "eval": ["eval", str(spline), "--tau", "0.25"],
                "basis-matrix": ["basis-matrix", "--degree", "1", "--knots-file", str(knots_file),
                                 "--span", "2"]}[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "beyond the float range" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["sample", "eval", "basis-matrix"])
    def test_deeply_nested_json_exits_two(self, tmp_path, capsys, command):
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 200_000)
        out = tmp_path / "out"
        argv = {"sample": ["sample", str(nested), "-n", "3", "-o", str(out)],
                "eval": ["eval", str(nested), "--tau", "0.25"],
                "basis-matrix": ["basis-matrix", "--degree", "1", "--knots-file", str(nested),
                                 "--span", "1", "--output", str(out)]}[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "nested too deeply" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()


def test_console_entry_point_runs():
    # run from the directory the package was imported from, so that
    # ``-m`` finds it whether it is installed or only on the test path
    proc = subprocess.run(
        [sys.executable, "-m", "splinemat.cli", "basis-matrix", "--degree", "1"],
        capture_output=True, text=True, cwd=Path(cli.__file__).parents[1],
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["entries"] == [["1", "0"], ["-1", "1"]]


def test_parser_is_built_once_and_handlers_are_looked_up_per_call(monkeypatch, capsys):
    assert main(["check", "--degree-max", "0"]) == 0
    assert cli.build_parser() is cli.build_parser()
    calls = []

    def handler(args):
        calls.append(args.degree_max)
        return 0

    monkeypatch.setattr(cli, "cmd_check", handler)
    assert main(["check", "--degree-max", "4"]) == 0
    assert calls == [4]
    assert capsys.readouterr().out == "no degrees to check\ncheck passed\n"
