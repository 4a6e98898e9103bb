import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb, factorial

import pytest

from splinemat import (
    DegenerateSpan,
    DegreeTooLarge,
    DomainError,
    KnotVector,
    NonRationalKnots,
    basis,
    basis_row,
    cumulative_matrix,
    general_basis_matrix,
    lambda_weights,
    uniform_basis_matrix,
)
from splinemat import basismatrix
from splinemat.basismatrix import knot_window

F = Fraction

UNIFORM_GOLDEN = {
    0: ((F(1),),),
    1: ((F(1), F(0)),
        (F(-1), F(1))),
    2: ((F(1, 2), F(1, 2), F(0)),
        (F(-1), F(1), F(0)),
        (F(1, 2), F(-1), F(1, 2))),
    3: ((F(1, 6), F(4, 6), F(1, 6), F(0)),
        (F(-3, 6), F(0), F(3, 6), F(0)),
        (F(3, 6), F(-6, 6), F(3, 6), F(0)),
        (F(-1, 6), F(3, 6), F(-3, 6), F(1, 6))),
}


def bernstein_entries(degree):
    """Independent oracle: expand C(k,c) u^c (1-u)^(k-c) binomially."""
    rows = []
    for r in range(degree + 1):
        row = []
        for c in range(degree + 1):
            if r < c:
                row.append(F(0))
            else:
                row.append(F((-1) ** (r - c) * comb(degree, c) * comb(degree - c, r - c)))
        rows.append(tuple(row))
    return tuple(rows)


def clamped(degree, interior, last):
    return KnotVector([0] * (degree + 1) + list(interior) + [last] * (degree + 1))


# coprime denominators, negative knots, a repeated knot and a jump to ~1e20
MIXED = KnotVector([F(-7, 3), F(-5, 4), F(-1, 5), F(2, 7), F(2, 7), F(9, 11), F(3, 2),
                    F(13, 5), F(40, 13), F(17, 4), F(31, 6), 10 ** 20, 10 ** 20 + F(1, 3),
                    10 ** 20 + F(5, 2), 10 ** 20 + F(22, 7), 10 ** 20 + 4])


def column_sums(m):
    n = m.degree + 1
    return [sum(m.entries[r][c] for c in range(n)) for r in range(n)]


class TestUniformMatrices:
    def test_golden_constants(self):
        for k, want in UNIFORM_GOLDEN.items():
            assert uniform_basis_matrix(k).entries == want

    def test_factorial_scaling_is_integral(self):
        for k in range(13):
            scale = factorial(k)
            for row in uniform_basis_matrix(k).entries:
                for v in row:
                    assert (v * scale).denominator == 1

    def test_column_sums(self):
        for k in range(11):
            sums = column_sums(uniform_basis_matrix(k))
            assert sums[0] == 1 and all(s == 0 for s in sums[1:])

    def test_degree_cap_and_validation(self):
        with pytest.raises(DegreeTooLarge):
            uniform_basis_matrix(31)
        with pytest.raises(ValueError):
            uniform_basis_matrix(-1)
        uniform_basis_matrix(30)  # cap itself is fine

    def test_memoized_and_thread_safe(self):
        a = uniform_basis_matrix(6)
        assert uniform_basis_matrix(6) is a
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(uniform_basis_matrix, [7] * 32))
        assert all(m.entries == results[0].entries for m in results)


class TestWindowCache:
    def test_spans_of_one_window_share_its_entries(self):
        kv = clamped(4, range(1, 12), 12)
        a, b = general_basis_matrix(kv, 4, 8), general_basis_matrix(kv, 4, 9)
        assert (a.span, b.span) == (8, 9)
        assert a.entries is b.entries is uniform_basis_matrix(4).entries
        assert general_basis_matrix(kv, 4, 4).entries is not a.entries

    def test_cache_clear_empties_the_whole_cache(self):
        a = uniform_basis_matrix(5)
        basismatrix.window_part(knot_window(clamped(3, [1, 2], 3).values, 3, 3), "rows")
        uniform_basis_matrix.cache_clear()
        assert len(basismatrix._windows) == 0
        b = uniform_basis_matrix(5)
        assert b is not a and b.entries == a.entries

    def test_size_stays_at_the_bound(self):
        uniform_basis_matrix.cache_clear()
        bound = basismatrix.WINDOW_CACHE_SIZE
        # distinct degree-2 windows (-i, 0, 1, 1 + i), two values each
        windows = [(-i, 0, 1, 1 + i) for i in range(1, bound)]
        for w in windows:
            rows, built = basismatrix.window_part(w, "rows")
            assert built and not rows.flags.writeable
        assert len(basismatrix._windows) == bound
        # the oldest went first; the newest are still there
        assert not basismatrix.window_part(windows[-1], "rows")[1]
        assert basismatrix.window_part(windows[0], "rows")[1]
        assert len(basismatrix._windows) == bound


class TestBasisRow:
    def test_row_values_at_ends(self):
        m = uniform_basis_matrix(3)
        assert basis_row(m, F(0)) == [F(1, 6), F(4, 6), F(1, 6), F(0)]
        assert basis_row(m, F(1)) == [F(0), F(1, 6), F(4, 6), F(1, 6)]

    def test_quadratic_midpoint(self):
        assert basis_row(uniform_basis_matrix(2), F(1, 2)) == [F(1, 8), F(6, 8), F(1, 8)]

    def test_row_sums_to_one_for_any_u(self):
        m = uniform_basis_matrix(5)
        for u in (F(0), F(1, 3), F(7, 5), F(-2)):
            assert sum(basis_row(m, u)) == 1

    def test_exact_match_with_recursive_reference(self):
        kv = KnotVector.uniform(2 * 10 + 2)
        for k in range(0, 11):
            m = uniform_basis_matrix(k)
            us = [F(0), F(1, 2)] if k > 6 else [F(0), F(1, 7), F(1, 2), F(5, 6)]
            if k >= 1:  # at u=1 the half-open reference reads the next span;
                us.append(F(1))  # values only match where the spline is continuous
            for u in us:
                tau = k + u
                want = [basis(kv, c, k, tau) for c in range(k + 1)]
                assert basis_row(m, u) == want

    def test_column_polynomials_non_negative_on_unit_interval(self):
        matrices = [uniform_basis_matrix(k) for k in range(7)]
        matrices.append(general_basis_matrix(clamped(3, [1, 2], 3), 3, 4))
        matrices.append(general_basis_matrix(KnotVector([0, 0, 1, 3, 3, 4, 7, 11, 11, 12]), 3, 5))
        for m in matrices:
            for step in range(0, 33):
                row = basis_row(m, F(step, 32))
                assert all(v >= 0 for v in row), (m.degree, m.span, step)

    def test_float_mode_close_to_reference(self):
        rng = random.Random(9)
        kv = KnotVector.uniform(22)
        for k in range(1, 11):
            m = uniform_basis_matrix(k)
            for _ in range(50):
                u = rng.random()
                got = basis_row(m, u)
                want = [basis(kv, 10 - k + c, k, 10 + u) for c in range(k + 1)]
                scale = max(abs(w) for w in want)
                assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12 * scale


class TestGeneralMatrices:
    def test_uniform_knots_reproduce_constant_matrix(self):
        for k in range(0, 7):
            kv = KnotVector.uniform(2 * k + 6)
            for j in range(k, len(kv.values) - k - 1):
                assert general_basis_matrix(kv, k, j).entries == uniform_basis_matrix(k).entries

    def test_spacing_and_offset_invariance(self):
        # the constant matrix does not care about where or how wide the spans are
        kv = KnotVector.uniform(12, start=F(-7, 3), step=F(5, 2))
        for k in (1, 2, 3):
            for j in range(k, 10 - k):
                assert general_basis_matrix(kv, k, j).entries == uniform_basis_matrix(k).entries

    def test_bezier_matrix_against_binomial_oracle(self):
        for k in range(1, 7):
            kv = clamped(k, [], 1)
            m = general_basis_matrix(kv, k, k)
            assert m.entries == bernstein_entries(k)

    def test_degree_zero_is_one(self):
        kv = KnotVector([0, 4, 9])
        assert general_basis_matrix(kv, 0, 1).entries == ((F(1),),)

    def test_matches_recursive_reference_exactly(self):
        vectors = [
            clamped(3, [1, 2, 3], 4),
            KnotVector([0, 0, 1, 3, 3, 4, 7, 11, 11, 12]),
            KnotVector([F(-1, 2), F(0), F(1, 3), F(2, 3), F(5, 3), F(2), F(3), F(4)]),
            MIXED,
        ]
        for kv in vectors:
            m_count = len(kv.values)
            for k in range(1, 7):
                for j in range(k, m_count - k - 1):
                    if kv.values[j] == kv.values[j + 1]:
                        continue
                    m = general_basis_matrix(kv, k, j)
                    width = kv.values[j + 1] - kv.values[j]
                    for u in (F(0), F(1, 4), F(2, 3)):
                        tau = kv.values[j] + u * width
                        want = [basis(kv, j - k + c, k, tau) for c in range(k + 1)]
                        assert basis_row(m, u) == want, (kv, k, j, u)

    def test_knot_window_keys_exactly_the_normalised_knots(self):
        # the int window is a key for the ratios (tau_i - tau_j) / (tau_{j+1} - tau_j):
        # the same under a shift or a positive scaling of the knots, and
        # different whenever the ratios differ
        moved = [F(-3, 7) + F(11, 2) * v for v in MIXED.values]
        even = KnotVector.uniform(14, F(-5, 3), F(2, 9))
        keys = {}
        for kv in (MIXED, clamped(6, [1, 2, 3], 4), even):
            vals = kv.values
            for k in range(0, 7):
                for j in range(k, len(vals) - k - 1):
                    if vals[j] == vals[j + 1]:
                        continue
                    window = knot_window(vals, k, j)
                    assert len(window) == 2 * k and all(type(n) is int for n in window)
                    if kv is MIXED:
                        assert knot_window(moved, k, j) == window
                    if kv is even:
                        assert window == tuple(range(1 - k, k + 1))
                    ratios = tuple((vals[i] - vals[j]) / (vals[j + 1] - vals[j])
                                   for i in range(j - k + 1, j + k + 1))
                    keys.setdefault(ratios, set()).add(window)
        assert all(len(windows) == 1 for windows in keys.values())
        assert len({w for windows in keys.values() for w in windows}) == len(keys) == 58

    def test_column_sums_exact(self):
        vectors = [
            clamped(2, [1, 2], 3),
            KnotVector([0, 0, 1, 3, 3, 4, 7, 11, 11, 12]),
        ]
        for kv in vectors:
            m_count = len(kv.values)
            for k in (1, 2, 3, 4):
                for j in range(k, m_count - k - 1):
                    if kv.values[j] == kv.values[j + 1]:
                        continue
                    sums = column_sums(general_basis_matrix(kv, k, j))
                    assert sums[0] == 1 and all(s == 0 for s in sums[1:])

    def test_float_knots_rejected(self):
        kv = KnotVector([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        with pytest.raises(NonRationalKnots):
            general_basis_matrix(kv, 3, 3)
        general_basis_matrix(kv.as_rational(), 3, 3)  # deliberate conversion works

    def test_span_validation(self):
        kv = KnotVector.uniform(8)
        with pytest.raises(DomainError):
            general_basis_matrix(kv, 3, 2)
        with pytest.raises(DomainError):
            general_basis_matrix(kv, 3, 4)
        with pytest.raises(DegenerateSpan):
            general_basis_matrix(KnotVector([0, 0, 0, 1, 1, 2, 2, 2]), 2, 3)


class TestCumulative:
    def test_cubic_suffix_matrix(self):
        cm = cumulative_matrix(uniform_basis_matrix(3))
        assert cm.entries == (
            (F(1), F(5, 6), F(1, 6), F(0)),
            (F(0), F(3, 6), F(3, 6), F(0)),
            (F(0), F(-3, 6), F(3, 6), F(0)),
            (F(0), F(1, 6), F(-2, 6), F(1, 6)),
        )

    def test_linear_suffix_matrix_is_identity(self):
        assert cumulative_matrix(uniform_basis_matrix(1)).entries == ((F(1), F(0)), (F(0), F(1)))

    def test_degree_zero(self):
        assert cumulative_matrix(uniform_basis_matrix(0)).entries == ((F(1),),)

    def test_telescoping_recovers_source_columns(self):
        sources = [uniform_basis_matrix(k) for k in range(7)]
        sources.append(general_basis_matrix(clamped(3, [1, 2], 3), 3, 4))
        for m in sources:
            cm = cumulative_matrix(m)
            n = m.degree + 1
            for c in range(n - 1):
                diff = tuple(cm.entries[r][c] - cm.entries[r][c + 1] for r in range(n))
                assert diff == m.column(c)
            assert cm.column(n - 1) == m.column(n - 1)
            assert cm.column(0) == tuple([F(1)] + [F(0)] * (n - 1))


class TestLambdaWeights:
    def test_cubic_end_values(self):
        cm = cumulative_matrix(uniform_basis_matrix(3))
        assert lambda_weights(cm, F(0)) == [1, F(5, 6), F(1, 6), 0]
        assert lambda_weights(cm, F(1)) == [1, 1, F(5, 6), F(1, 6)]

    def test_leading_weight_always_one(self):
        for k in range(7):
            cm = cumulative_matrix(uniform_basis_matrix(k))
            for u in (0.0, 0.25, 0.5, 0.75, 1.0):
                assert lambda_weights(cm, u)[0] == 1.0

    def test_weights_non_increasing_on_grid(self):
        for k in range(1, 7):
            cm = cumulative_matrix(uniform_basis_matrix(k))
            for step in range(101):
                lam = lambda_weights(cm, F(step, 100))
                assert all(a >= b for a, b in zip(lam, lam[1:]))
                assert lam[-1] >= 0

    def test_domain_guard_and_extrapolation_switch(self):
        cm = cumulative_matrix(uniform_basis_matrix(2))
        with pytest.raises(DomainError):
            lambda_weights(cm, 1.5)
        with pytest.raises(DomainError):
            lambda_weights(cm, -0.1)
        assert basis_row(cm, F(3, 2))[0] == 1
