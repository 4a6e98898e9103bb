"""One SHA-256 per evaluation path over fixed seeded curves.

Run one copy of it on two trees to show that a change leaves every output
bit for bit as it was::

    python tools/output_hashes.py --src ../base/src > base.txt
    python tools/output_hashes.py > head.txt
    diff base.txt head.txt

It imports ``splinemat`` from ``--src``, by default the ``src`` directory
next to this file; one copy of the tool hashes both trees, so a path it
adds is hashed on the older tree too.  The curves take six knot kinds
(evenly spaced integers, clamped integers, non-uniform floats, integers
with repeated interior knots, the rationals i^2/3, and the floats
-1.5 + 0.5 i, evenly spaced and exactly doubles) at degrees 0..10, 20
and 30, with 3-D control points in C order, plus two curves longer
than one page of blocks and six whose control points hold runs of 0.0
and -0.0 (evenly spaced, clamped and float knots at degrees 3 and 10):
the parameters at the knots, and about half the others, have v = u - 1/2
below zero, so those curves pin the sign of every zero that the fills'
``einsum`` and ``horner`` give.  The paths hashed are ``evaluate`` at every
derivative order 0..k+1, the scalar views ``eval_matrix``,
``eval_cumulative`` and ``eval_derivative``, the same scalar views called
first on a fresh copy of each curve (``cold_scalar``: derivatives k..1,
then the cumulative and the matrix view, per parameter), ``evaluate`` on a
fresh copy after ``eval_cumulative`` at every parameter (``cold_cumulative``:
the matrix blocks a cumulative-first fill forms), ``_sample_grid``, the
same on a pair of fresh curves over a fresh copy of each curve's knots
(``sample_plan``: the second curve takes two of the three coordinates;
the first builds the knots' sample plan and the second takes it),
``eval_coxdeboor``, the oracle's batch ``_coxdeboor`` over all of a
curve's parameters (``coxdeboor_batch``: the float batch recursion on
every knot kind), ``splinemat check`` for seeds 0..39 and the bytes of
``splinemat sample``'s CSV.  A path that raises hashes its error's type
and message in place of the values.  The ``knots`` line hashes each
curve's float view of its knots (the values, bounds and widths tables,
lo, hi, last and the knots the oracle reads at a float tau) and, for a
fixed set of knot lists (ints, Fractions, i^2/3, ``KnotVector.uniform``
with int, Fraction and float steps, floats, knots beyond the float range
and rejected lists), the vector's values, storage and ``is_uniform`` and
the float views of curves of degree 0..3 over it.  A rejected list hashes its error's type
only, so that the line pins what is accepted, not how a refusal is worded.
The ``coxdeboor_scales`` line hashes ``_coxdeboor`` at the ends of the
domain, the knots and the doubles next to them on curves of degree 1..6
whose evenly spaced, clamped and random float knots are scaled by 1e-320,
so that the widths are subnormal, and by 1e300, so that the ratios of a
parameter next to the knot 0 underflow.  The ``shuffled`` line hashes
``evaluate`` at every derivative order 0..k+1 on a fresh copy of each of
the two long curves, over a seeded permutation of the parameters its
other paths take, and that copy's ``stats()`` counts: a batch whose
parameters cross the pages in any order.  The ``reference`` line hashes
the exact reference paths, each value's ``repr``, so its type shows:
``coxdeboor.basis_values`` over each curve's knots at every fourth of its
parameters, as floats and as Fractions, for the whole index window and
for one seeded index, ``cumulative_basis`` there, the errors of index
windows out of range, a negative degree and non-finite float parameters,
and ``poly_mul`` over seeded polynomials, zero ones included.  The
``sample`` line hashes ``sample``'s pairs, each tau's ``repr`` and type
and each point's bytes, for n = 301 (a count whose plan a vector keeps)
and 1100 (one above the chunk of 1024, whose plan is not kept): per hash
curve, a fresh curve over a fresh copy of its knots calls ``sample(n)``
cold, then warm, then a second curve over that copy with two of the three
coordinates calls it, over the first one's plan where one is kept.  Among
the curves, those over the squares i^2/3 at degrees 1, 2, 4, 7 and 8 have
domain ends that round outward.  The ``stats`` line, last, hashes the counts of ``stats()`` (all but
``build_s``, a time) of each curve after its paths and of its last fresh
copy, so that a change to the store of blocks shows if it fills other
blocks than before.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

DEGREES = list(range(11)) + [20, 30]
SPANS = 9  # spans in each curve's evaluable domain
COUNTS = ("spans_built", "window_hits", "blocks_filled", "spans_touched")


def knot_vector(kind: str, k: int, rng) -> KnotVector:
    count = SPANS + 2 * k + 1
    if kind == "uniform":
        return KnotVector.uniform(count)
    if kind == "clamped":
        return KnotVector([0] * k + list(range(SPANS + 1)) + [SPANS] * k)
    if kind == "float":
        return KnotVector(np.cumsum(rng.uniform(0.25, 4.0, count)).tolist())
    if kind == "repeated":
        gaps = rng.integers(0, 3, count - 1)
        gaps[k:count - k - 1] = np.maximum(gaps[k:count - k - 1], 1)  # a non-degenerate domain
        gaps[k + 2] = 0  # at least one repeated interior knot
        return KnotVector([0] + np.cumsum(gaps).tolist())
    if kind == "halves":
        return KnotVector.uniform(count, start=-1.5, step=0.5)
    return KnotVector([Fraction(i * i, 3) for i in range(count)])


def curves():
    """``(name, curve)`` for every knot kind and degree, then the long curves."""
    rng = np.random.default_rng(20)
    for kind in ("uniform", "clamped", "float", "repeated", "squares", "halves"):
        for k in DEGREES:
            kv = knot_vector(kind, k, rng)
            points = rng.normal(0.0, 10.0, (len(kv.values) - k - 1, 3))
            yield "%s-k%d" % (kind, k), SplineCurve(k, kv, points)
    for kv in (KnotVector.uniform(2600), KnotVector(np.cumsum(rng.uniform(0.5, 2.0, 2600)).tolist())):
        yield "long-%s" % kv.storage, SplineCurve(3, kv, rng.normal(0.0, 10.0, (2596, 3)))
    for kind in ("uniform", "clamped", "float"):
        for k in (3, 10):
            kv = knot_vector(kind, k, rng)
            points = signed_zeros(len(kv.values) - k - 1, rng)
            yield "zeros-%s-k%d" % (kind, k), SplineCurve(k, kv, points)


def scaled_curves():
    """``(name, curve)``: evenly spaced, clamped and random float knots times 1e-320 and 1e300."""
    rng = np.random.default_rng(30)
    for scale in (1e-320, 1e300):
        for k in range(1, 7):
            count = SPANS + 2 * k + 1
            for kind, base in (("uniform", list(range(count))),
                               ("clamped", [0] * k + list(range(SPANS + 1)) + [SPANS] * k),
                               ("float", np.cumsum(rng.uniform(0.25, 4.0, count)).tolist())):
                kv = KnotVector([v * scale for v in base])
                points = rng.normal(0.0, 10.0, (count - k - 1, 3))
                yield "%s-%g-k%d" % (kind, scale, k), SplineCurve(k, kv, points)


def knot_taus(curve) -> list:
    """The ends of the domain, its float knots and the doubles next to them, in the domain."""
    lo, hi = (float(v) for v in curve.domain)
    taus = [lo, hi]
    for v in curve.knots.values:
        taus += [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
    return sorted({t for t in taus if lo <= t <= hi})


def signed_zeros(n: int, rng) -> np.ndarray:
    """(n, 3) points: runs of 0.0 then -0.0, all -0.0, and a run of -0.0 between normals."""
    points = np.zeros((n, 3))
    points[n // 2:, 0] = -0.0
    points[:, 1] = -0.0
    points[:, 2] = rng.normal(0.0, 10.0, n)
    points[n // 4:3 * n // 4, 2] = -0.0
    return points


def knot_lists():
    """``(name, build)``: knot vectors to hash on the ``knots`` line, the last six rejected."""
    F = Fraction
    floats = np.cumsum(np.random.default_rng(29).uniform(0.1, 3.0, 14)).tolist()
    return [
        ("ints", lambda: KnotVector(list(range(-3, 14)))),
        ("clamped", lambda: KnotVector([0] * 4 + [1, 2, 3] + [4] * 4)),
        ("repeated", lambda: KnotVector([0, 1, 1, 2, 5, 5, 5, 8, 9, 12])),
        ("sevenths", lambda: KnotVector([F(i, 7) - 1 for i in range(0, 60, 4)])),
        ("mixed", lambda: KnotVector([-2, F(-3, 2), F(-1, 3), 0, F(5, 8), 1, F(22, 7), 4])),
        ("squares", lambda: KnotVector([F(i * i, 3) for i in range(15)])),
        ("fine", lambda: KnotVector([F(i, 3 ** 40) for i in range(10)])),
        ("huge", lambda: KnotVector([-10 ** 400, -1, 0, 1, 10 ** 300, 10 ** 400])),
        ("tiny", lambda: KnotVector([0, F(1, 10 ** 400), F(2, 10 ** 400), 1, 2, 3])),
        ("uniform-ints", lambda: KnotVector.uniform(16, -5, 3)),
        ("uniform-fraction", lambda: KnotVector.uniform(16, F(-7, 3), F(5, 2))),
        ("uniform-thirds", lambda: KnotVector.uniform(16, 0, F(1, 3))),
        ("uniform-halves", lambda: KnotVector.uniform(16, -1.5, 0.5)),
        ("uniform-tenths", lambda: KnotVector.uniform(16, 0, 0.1)),
        ("floats", lambda: KnotVector(floats)),
        ("short", lambda: KnotVector([1])),
        ("decreasing", lambda: KnotVector([0, 2, 1, 3])),
        ("decreasing-uniform", lambda: KnotVector.uniform(4, 0, F(-1, 2))),
        ("decreasing-floats", lambda: KnotVector([0.0, 2.5, 1.0])),
        ("nan", lambda: KnotVector([0.0, float("nan"), 1.0])),
        ("float-range", lambda: KnotVector([-1e308, 0.0, 1e308])),
    ]


def view_tables(curve) -> bytes:
    """The tables of ``curve``'s float view of its knots."""
    view = curve._view
    oracle = KnotVector(view.values.tolist()) if view.exact else curve.knots
    return b"".join([view.values.tobytes(), view.bounds.tobytes(), view.widths.tobytes(),
                     repr((view.lo, view.hi, view.last, oracle.storage,
                           oracle.values)).encode()])


def knot_hashes(add) -> None:
    """Add each of ``knot_lists()``'s vectors, and the float views over it, to the ``knots`` line."""
    for name, build in knot_lists():
        try:
            kv = build()
        except SplineError as err:
            add("knots", name, type(err).__name__.encode())
            continue
        add("knots", name, repr((kv.values, kv.storage, kv.is_uniform)).encode())
        for k in range(4):
            if len(kv.values) >= 2 * k + 2:
                points = np.zeros((len(kv.values) - k - 1, 1))
                add("knots", "%s-k%d" % (name, k),
                    outcome(lambda: view_tables(SplineCurve(k, kv, points))))


def reference_hashes(add, refs) -> None:
    """Add the scalar oracle at ``refs``' knots and parameters, and ``poly_mul``, to one line."""
    rng = np.random.default_rng(23)

    def values(name, fn, *args):
        add("reference", name, outcome(lambda: repr(fn(*args)).encode()))

    for name, kv, k, taus in refs:
        last = len(kv.values) - k - 2
        for tau in taus + [Fraction(t) for t in taus]:
            i = int(rng.integers(0, last + 1))
            values(name, coxdeboor.basis_values, kv, 0, last, k, tau)
            values(name, coxdeboor.basis_values, kv, i, i, k, tau)
            values(name, cumulative_basis, kv, i, k, tau)
    for kv in (KnotVector.uniform(12), KnotVector([0.0, 0.5, 1.25, 2.0, 3.5, 4.0, 6.0, 7.5])):
        last = len(kv.values) - 5  # the last index of degree 3
        for first, stop, k in ((0, last + 1, 3), (-1, 0, 3), (2, 1, 3), (0, 0, -1)):
            values("errors", coxdeboor.basis_values, kv, first, stop, k, 3.5)
        for tau in (math.nan, math.inf, -math.inf, -1e300, 1e300):
            values("errors", coxdeboor.basis_values, kv, 0, last, 3, tau)
        for i in (-1, last + 1):
            values("errors", cumulative_basis, kv, i, 3, 4.0)

    def poly():
        if rng.random() < 0.2:
            return PowerPoly([0] * rng.integers(1, 4))
        nums, dens = rng.integers(-5, 6, 8), rng.integers(1, 5, 8)
        coeffs = [Fraction(int(n), int(d)) for n, d in zip(nums, dens)]
        return PowerPoly(coeffs[:rng.integers(1, 9)])

    for n in range(300):
        values("poly_mul-%d" % n, poly_mul, poly(), poly())


def sample_pairs(curve, n: int) -> bytes:
    """``curve.sample(n)``: each tau's ``repr`` and type name, then its point's bytes."""
    return b"".join(b"%s %s " % (repr(tau).encode(), type(tau).__name__.encode()) + point.tobytes()
                    for tau, point in curve.sample(n))


def stat_counts(curve) -> bytes:
    """The counts of ``curve.stats()``, without its build time."""
    stats = curve.stats()
    return repr([stats[key] for key in COUNTS]).encode()


def outcome(fn, *args) -> bytes:
    """The bytes of ``fn(*args)``, or its error's type and message."""
    try:
        result = fn(*args)
        return result if isinstance(result, bytes) else np.asarray(result).tobytes()
    except (SplineError, ValueError, IndexError) as err:
        return ("%s: %s" % (type(err).__name__, err)).encode()


def taus_of(curve, rng) -> list:
    """Seeded floats in the domain, its ends and its knots' nearest doubles, if inside."""
    lo, hi = curve.domain
    ends = [float(lo), float(hi)]
    knots = [float(v) for v in curve.knots.values]
    taus = rng.uniform(*ends, 40).tolist() + knots + ends
    return sorted({t for t in taus if lo <= t <= hi})


def sample_csv(curve, workdir: str) -> bytes:
    spline, csv = os.path.join(workdir, "curve.json"), os.path.join(workdir, "out.csv")
    cli.save_spline(spline, curve)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["sample", spline, "-n", "301", "-o", csv])
    with open(csv, "rb") as f:
        return b"%d\n" % code + f.read()


def main() -> None:
    parser = argparse.ArgumentParser(description="Print one SHA-256 per evaluation path.")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the directory to import splinemat from (default: %(default)s)")
    src = parser.parse_args().src.resolve()
    sys.path.insert(0, str(src))
    global KnotVector, PowerPoly, SplineCurve, SplineError, cli, coxdeboor
    global cumulative_basis, poly_mul
    import splinemat
    from splinemat import (KnotVector, PowerPoly, SplineCurve, SplineError, cli, coxdeboor,
                           cumulative_basis, poly_mul)

    if Path(splinemat.__file__).resolve().parents[1] != src:
        sys.exit("splinemat was imported from %s, not from %s" % (splinemat.__file__, src))
    hashes = {}

    def add(path: str, name: str, data: bytes) -> None:
        hashes.setdefault(path, hashlib.sha256()).update(name.encode() + b"\0" + data)

    rng = np.random.default_rng(21)
    views = []  # hashed on the knots line, after the lines above it
    counts = []  # hashed on the stats line, last
    long = []  # the long curves and their parameters, for the shuffled line
    refs = []  # each curve's knots, degree and every fourth parameter, for the reference line
    sampled = []  # every curve, for the sample line
    with tempfile.TemporaryDirectory() as workdir:
        for name, curve in curves():
            views.append((name, view_tables(curve)))
            taus = taus_of(curve, rng)
            for order in range(curve.degree + 2):
                add("evaluate", name, outcome(curve.evaluate, taus, order))
            for tau in taus:
                add("eval_matrix", name, outcome(curve.eval_matrix, tau))
                add("eval_cumulative", name, outcome(curve.eval_cumulative, tau))
                for order in range(1, curve.degree + 2):
                    add("eval_derivative", name, outcome(curve.eval_derivative, tau, order))
            fresh = SplineCurve(curve.degree, curve.knots, curve.points)
            for tau in taus:
                for order in range(curve.degree, 0, -1):
                    add("cold_scalar", name, outcome(fresh.eval_derivative, tau, order))
                add("cold_scalar", name, outcome(fresh.eval_cumulative, tau))
                add("cold_scalar", name, outcome(fresh.eval_matrix, tau))
            fresh = SplineCurve(curve.degree, curve.knots, curve.points)
            for tau in taus:
                add("cold_cumulative", name, outcome(fresh.eval_cumulative, tau))
            for order in range(curve.degree + 2):
                add("cold_cumulative", name, outcome(fresh.evaluate, taus, order))
            for tau in taus[::4]:
                add("eval_coxdeboor", name, outcome(curve.eval_coxdeboor, tau))
            refs.append((name, curve.knots, curve.degree, taus[::4]))
            add("coxdeboor_batch", name, outcome(curve._coxdeboor, taus))
            add("_sample_grid", name, outcome(lambda: np.concatenate(
                [a.ravel() for a in curve._sample_grid(301)])))
            kv = KnotVector(curve.knots.values)  # a view of its own, whose plan the first builds
            for points in (curve.points, curve.points[:, :2]):
                add("sample_plan", name, outcome(lambda: np.concatenate(
                    [a.ravel() for a in SplineCurve(curve.degree, kv, points)._sample_grid(301)])))
            add("sample_csv", name, sample_csv(curve, workdir))
            counts.append((name, stat_counts(curve) + stat_counts(fresh)))
            sampled.append((name, curve))
            if name.startswith("long-"):
                long.append((name, curve, taus))
    for seed in range(40):
        out = io.StringIO()
        code = cli.run_check(8, 20, seed, out)
        add("check", str(seed), b"%d\n" % code + out.getvalue().encode())
    for name, tables in views:
        add("knots", name, tables)
    knot_hashes(add)
    for name, curve in scaled_curves():
        add("coxdeboor_scales", name, outcome(curve._coxdeboor, knot_taus(curve)))
    shuffle = np.random.default_rng(22)
    for name, curve, taus in long:
        fresh = SplineCurve(curve.degree, curve.knots, curve.points)
        taus = shuffle.permutation(taus)
        for order in range(curve.degree + 2):
            add("shuffled", name, outcome(fresh.evaluate, taus, order))
        add("shuffled", name, stat_counts(fresh))
    reference_hashes(add, refs)
    for name, curve in sampled:
        kv = KnotVector(curve.knots.values)  # a view of its own, whose plan the first builds
        first = SplineCurve(curve.degree, kv, curve.points)
        second = SplineCurve(curve.degree, kv, curve.points[:, :2])
        for n in (301, 1100):
            for each in (first, first, second):  # cold, warm, then the second curve
                add("sample", name, outcome(sample_pairs, each, n))
    for name, data in counts:
        add("stats", name, data)
    for path, digest in hashes.items():
        print(path, digest.hexdigest())


if __name__ == "__main__":
    main()
