"""Command-line front end: matrix export, curve evaluation, sampling, checks.

Exit codes: 0 success, 1 invariant violation (from ``check``), 2 invalid
input, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction

import numpy as np

from .basismatrix import (
    MAX_DEGREE,
    BasisMatrix,
    cumulative_matrix,
    general_basis_matrix,
    uniform_basis_matrix,
)
from .curve import SplineCurve
from .errors import SplineError
from .knots import KnotVector

CHECK_TOLERANCE = 1e-10

# Most knots a spline file may describe.  A uniform {start, delta, count}
# spec is a few bytes whatever its count, so the count is checked before
# any knot is built.
MAX_KNOTS = 1_000_000

# Most rows ``sample`` may write, checked before the spline file is read, and
# most ``check`` draws per curve, checked before any work.
MAX_SAMPLES = 1_000_000

# Rows of the ``sample`` CSV formatted per write.
CSV_BLOCK_ROWS = 256

# Exact scalar strings: integer, decimal or 'p/q'.  No exponent, since
# Fraction('1e10000000') builds the whole power of ten; the digits of these
# forms are bounded by the interpreter's limit on int string length.
_SCALAR_STRING = re.compile(r"\s*[+-]?(\d+(\.\d*)?|\.\d+|\d+/\d+)\s*")


# ---------------------------------------------------------------------------
# file formats


def _reject_constant(name):
    raise ValueError("non-finite number %r not allowed" % name)


def _read_json(path: str):
    """The JSON value in ``path``; a non-finite constant or deep nesting is a ValueError."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f, parse_constant=_reject_constant)
        except RecursionError:
            raise ValueError("%s: JSON nested too deeply" % path) from None


def _parse_scalar(x):
    """Accept JSON numbers or exact integer, decimal or 'p/q' strings."""
    if isinstance(x, str):
        if not _SCALAR_STRING.fullmatch(x):
            raise ValueError("expected an integer, decimal or 'p/q' string, got %r" % (x,))
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % (x,)) from None
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return x
    raise ValueError("expected a number or 'p/q' string, got %r" % (x,))


def _parse_coordinate(x) -> float:
    """Accept JSON numbers only."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise ValueError("control point coordinate must be a number, got %r" % (x,))
    try:
        return float(x)
    except OverflowError:
        raise ValueError("control point coordinate %r is out of float range" % (x,)) from None


def _scalar_to_json(v):
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else str(v)
    return v


def load_spline(path: str) -> SplineCurve:
    """Read a spline file: degree, knots (list or uniform spacing), control points.

    Sizes are checked before anything is built from them: the degree may
    not exceed ``MAX_DEGREE`` and the knot count may not exceed
    ``MAX_KNOTS``.
    """
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ValueError("spline file must hold a JSON object")
    try:
        degree = data["degree"]
        knots_spec = data["knots"]
        points = data["control_points"]
    except KeyError as e:
        raise ValueError("spline file missing field %s" % e) from None
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
        raise ValueError("degree must be a non-negative integer")
    if degree > MAX_DEGREE:
        raise ValueError("degree %d exceeds cap %d" % (degree, MAX_DEGREE))
    if isinstance(knots_spec, dict):
        missing = [key for key in ("start", "delta", "count") if key not in knots_spec]
        if missing:
            raise ValueError("uniform knots missing field %s" % ", ".join(missing))
        start = _parse_scalar(knots_spec["start"])
        delta = _parse_scalar(knots_spec["delta"])
        count = knots_spec["count"]
        if not isinstance(count, int) or isinstance(count, bool) or count < 2:
            raise ValueError("uniform knot count must be an integer >= 2")
        if count > MAX_KNOTS:
            raise ValueError("uniform knot count %d exceeds cap %d" % (count, MAX_KNOTS))
        kv = KnotVector.uniform(count, start=start, step=delta)
    elif isinstance(knots_spec, list):
        kv = _knot_list(knots_spec)
    else:
        raise ValueError("knots must be a list or a {start, delta, count} object")
    if not isinstance(points, list) or not points:
        raise ValueError("control_points must be a non-empty list of vectors")
    rows = []
    for p in points:
        if not isinstance(p, list):
            raise ValueError("each control point must be a list of coordinates")
        rows.append([_parse_coordinate(c) for c in p])
    return SplineCurve(degree, kv, rows)


def save_spline(path: str, curve: SplineCurve) -> None:
    """Write a spline file that loads back to identical evaluation results."""
    data = {
        "degree": curve.degree,
        "knots": [_scalar_to_json(v) for v in curve.knots.values],
        "control_points": [list(row) for row in curve.points.tolist()],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2)
        f.write("\n")


def load_knots(path: str) -> KnotVector:
    """Knot file: a JSON array, or an object with a 'knots' array (see ``_knot_list``)."""
    data = _read_json(path)
    if isinstance(data, dict):
        data = data.get("knots")
    if not isinstance(data, list):
        raise ValueError("knots file must hold a JSON array (or {'knots': [...]})")
    return _knot_list(data)


def _knot_list(values: list) -> KnotVector:
    """A JSON list of knots, at most ``MAX_KNOTS`` of them."""
    if len(values) > MAX_KNOTS:
        raise ValueError("knot count %d exceeds cap %d" % (len(values), MAX_KNOTS))
    return KnotVector([_parse_scalar(v) for v in values])


def matrix_payload(m, cumulative: bool) -> dict:
    return {
        "degree": m.degree,
        "span": m.span,
        "orientation": "rows=powers",
        "cumulative": cumulative,
        "entries": [[str(v) for v in row] for row in m.entries],
    }


def _write_matrix_csv(m, cumulative: bool, out) -> None:
    span = "uniform" if m.span is None else str(m.span)
    out.write("# degree=%d\n# span=%s\n# orientation=rows=powers\n# cumulative=%s\n"
              % (m.degree, span, "true" if cumulative else "false"))
    for row in m.entries:
        out.write(",".join("%.17g" % float(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_basis_matrix(args) -> int:
    if args.knots_file is not None:
        if args.span is None:
            raise ValueError("--span is required with --knots-file")
        kv = load_knots(args.knots_file).as_rational()
        m = general_basis_matrix(kv, args.degree, args.span)
    else:
        if args.span is not None:
            raise ValueError("--span only applies with --knots-file")
        m = uniform_basis_matrix(args.degree)
    cumulative = args.cumulative
    if cumulative:
        m = cumulative_matrix(m)
    out = sys.stdout
    close = False
    if args.output is not None:
        out = open(args.output, "w", encoding="utf-8")
        close = True
    try:
        if args.format == "json":
            json.dump(matrix_payload(m, cumulative), out, indent=2)
            out.write("\n")
        else:
            _write_matrix_csv(m, cumulative, out)
    finally:
        if close:
            out.close()
    return 0


def cmd_eval(args) -> int:
    curve = load_spline(args.spline)
    method = {
        "coxdeboor": curve.eval_coxdeboor,
        "matrix": curve.eval_matrix,
        "cumulative": curve.eval_cumulative,
    }[args.method]
    point = method(args.tau)
    print(" ".join("%.17g" % c for c in point))
    return 0


def cmd_sample(args) -> int:
    if args.count > MAX_SAMPLES:
        raise ValueError("sample count %d exceeds cap %d" % (args.count, MAX_SAMPLES))
    curve = load_spline(args.spline)
    table = np.column_stack(curve._sample_grid(args.count))
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(args.output, "w", encoding="utf-8") as f:
        f.write("tau," + ",".join("x%d" % i for i in range(curve.dim)) + "\n")
        for start in range(0, len(table), CSV_BLOCK_ROWS):
            block = table[start:start + CSV_BLOCK_ROWS]
            f.write(line * len(block) % tuple(block.ravel().tolist()))
    return 0


def _relative_gaps(a, b) -> np.ndarray:
    """Per row of two (n, d) arrays: max|a-b| / max(1, max|a|, max|b|)."""
    scale = np.maximum(1.0, np.maximum(np.abs(a).max(axis=1), np.abs(b).max(axis=1)))
    return np.abs(a - b).max(axis=1) / scale


def _column_sums_ok(m: BasisMatrix) -> bool:
    n = m.degree + 1
    sums = [sum(m.entries[r][c] for c in range(n)) for r in range(n)]
    return sums[0] == 1 and all(s == 0 for s in sums[1:])


def _check_knot_vectors(degree: int):
    uniform = KnotVector.uniform(2 * degree + 6)
    clamped = KnotVector([0] * (degree + 1) + [1, 2, 3] + [4] * (degree + 1))
    return uniform, clamped


def run_check(degree_max: int, trials: int, seed: int, out=None) -> int:
    """Cross-check matrix evaluation against the recursive reference.

    Per degree: ``trials`` random parameter draws per curve over a plain
    and a clamped knot vector, comparing all three evaluation paths, then
    exact column-sum invariants (row 0 sums to 1, every other row to 0) for
    the uniform matrix and every span of both vectors.  The clamped spans
    are the curve's own exact matrices, centred at u = 1/2 in the powers of
    v = u - 1/2; the invariant is the same there, since the basis sums to
    one in v too.  Reports the worst relative disagreement per degree.
    """
    if out is None:
        out = sys.stdout
    if degree_max < 0 or degree_max > MAX_DEGREE:
        raise ValueError("degree-max must lie in [0, %d]" % MAX_DEGREE)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > MAX_SAMPLES:
        raise ValueError("trials %d exceeds cap %d" % (trials, MAX_SAMPLES))
    rng = random.Random(seed)
    failures = 0
    for k in range(1, degree_max + 1):
        uniform_kv, clamped_kv = _check_knot_vectors(k)
        gaps = []
        for kv in (uniform_kv, clamped_kv):
            n_points = len(kv.values) - k - 1
            points = [[rng.uniform(-10.0, 10.0) for _ in range(2)] for _ in range(n_points)]
            curve = SplineCurve(k, kv, points)
            lo, hi = (float(v) for v in curve.domain)
            taus = [rng.uniform(lo, hi) for _ in range(trials)]
            # the recursion and the cumulative form are the scalar paths under test
            a = np.array([curve.eval_coxdeboor(t) for t in taus])
            b = curve.evaluate(taus)
            c = np.array([curve.eval_cumulative(t) for t in taus])
            gaps += [_relative_gaps(a, b), _relative_gaps(a, c), _relative_gaps(b, c)]
        worst = float(np.max(np.concatenate(gaps)))

        # general construction runs on the uniform knots; the clamped spans
        # are the centred matrices of the clamped curve, the last one above,
        # whose column sums are those of the uncentred ones
        matrices = [uniform_basis_matrix(k)]
        for kv, exact in ((uniform_kv, lambda j: general_basis_matrix(uniform_kv, k, j)),
                          (clamped_kv, curve._exact_matrix)):
            matrices += [exact(j) for j in range(k, len(kv.values) - k - 1)
                         if kv.values[j] < kv.values[j + 1]]
        sums_ok = all(_column_sums_ok(m) for m in matrices)

        ok = sums_ok and worst <= CHECK_TOLERANCE
        if not ok:
            failures += 1
        out.write("degree %d: max relative error %.3e (tolerance %.1e), column sums %s: %s\n"
                  % (k, worst, CHECK_TOLERANCE, "exact" if sums_ok else "BROKEN",
                     "ok" if ok else "FAIL"))
    if degree_max < 1:
        out.write("no degrees to check\n")
    out.write("check %s\n" % ("passed" if failures == 0 else "FAILED"))
    return 0 if failures == 0 else 1


def cmd_check(args) -> int:
    return run_check(args.degree_max, args.trials, args.seed)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splinemat",
        description="B-spline basis matrices and curve evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis-matrix", help="print a basis matrix")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--knots-file", help="JSON knot vector for non-uniform matrices")
    p.add_argument("--span", type=int, help="span index (with --knots-file)")
    p.add_argument("--cumulative", action="store_true",
                   help="emit the column-suffix-sum form")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_basis_matrix)

    p = sub.add_parser("eval", help="evaluate a spline file at one parameter")
    p.add_argument("spline", help="JSON spline file")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--method", choices=("coxdeboor", "matrix", "cumulative"),
                   default="matrix")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample", help="sample a spline file to CSV")
    p.add_argument("spline", help="JSON spline file")
    p.add_argument("-n", "--count", type=int, required=True)
    p.add_argument("-o", "--output", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("check", help="run the cross-path consistency checks")
    p.add_argument("--degree-max", type=int, default=3)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SplineError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except OSError as e:
        print("i/o error: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
