import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinemat import PowerPoly, SizeError, poly_mul, toeplitz_from_poly
from splinemat.curve import _derivative_rows
from splinemat.polytoeplitz import horner, horner_array


def convolve(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def array_horner_cases(draw):
    """(m, n, d) power rows as ``_combine`` passes them, scaled by ``_derivative_rows``, and (n, d) x.

    Degrees 0..12 and every order up to the degree; the rows hold +-0.0,
    subnormals and values up to 1e300, x both signs and +-0.0.
    """
    k, order = draw(st.integers(0, 12).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, k))))
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    entries = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308]),
                        st.floats(-1e300, 1e300))
    rows = np.array(draw(st.lists(entries, min_size=(k + 1) * n * d, max_size=(k + 1) * n * d)))
    x = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0)),
                               min_size=n * d, max_size=n * d)))
    return _derivative_rows(rows.reshape(k + 1, n, d)[order:], order), x.reshape(n, d)


def random_poly(rng, max_degree=8):
    degree = rng.randint(0, max_degree)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree)]
    lead = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
    return PowerPoly(coeffs + [lead])


class TestPowerPoly:
    def test_degree_and_zero(self):
        assert PowerPoly((1, 2, 3)).degree == 2
        with pytest.raises(ValueError):
            PowerPoly(())

    def test_evaluation_exact(self):
        p = PowerPoly((1, -2, 1))  # (1 - x)^2
        assert p(Fraction(1, 2)) == Fraction(1, 4)
        assert p(1) == 0


class TestHorner:
    @pytest.mark.parametrize("degree", range(11))
    def test_batch_equals_scalar_bit_for_bit(self, degree):
        rng = np.random.default_rng(degree)
        n, d = 37, 3
        stack = rng.normal(0.0, 10.0, (degree + 1, n, d))
        stack[:, 0] = 0.0  # all-zero coefficients keep the sign of zero
        stack[:, 1] = -0.0
        x = rng.uniform(-0.5, 0.5, (n, 1))
        x[2] = 0.0
        got = horner(stack, x)
        want = [[horner(stack[:, i, c].tolist(), float(x[i, 0])) for c in range(d)]
                for i in range(n)]
        assert got.shape == (n, d) and got.tobytes() == np.array(want).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(array_horner_cases())
    def test_array_form_equals_the_scalar_loop_bit_for_bit(self, case):
        rows, x = case
        before = rows.tobytes(), x.tobytes()
        with np.errstate(over="ignore", invalid="ignore"):
            got = horner_array(rows, x)
        want = [[horner(rows[:, i, c].tolist(), float(x[i, c])) for c in range(x.shape[1])]
                for i in range(x.shape[0])]
        assert got.shape == x.shape and got.tobytes() == np.array(want).tobytes()
        assert (rows.tobytes(), x.tobytes()) == before  # neither input is written

    def test_exact_arguments_stay_exact(self):
        coeffs = [Fraction(1, 3), -2, Fraction(5, 7)]
        got = horner(coeffs, Fraction(-3, 2))
        assert type(got) is Fraction and got == Fraction(1, 3) + 3 + Fraction(5, 7) * Fraction(9, 4)
        assert type(horner([1, -2, 5], 3)) is int and horner([1, -2, 5], 3) == 40
        assert type(horner([1, -2, 5], Fraction(1, 2))) is Fraction
        assert horner([], 3) == 0


class TestToeplitz:
    def test_banded_layout_matches_coefficients(self):
        p = PowerPoly((2, 3, 5))
        t = toeplitz_from_poly(p, 6)
        rows = t.as_rows()
        for r in range(6):
            for c in range(6):
                want = p.coeffs[r - c] if 0 <= r - c <= 2 else 0
                assert rows[r][c] == want
        # constant along every diagonal
        for r in range(5):
            for c in range(5):
                assert rows[r][c] == rows[r + 1][c + 1]

    def test_constant_poly_gives_identity(self):
        rows = toeplitz_from_poly(PowerPoly((1,)), 3).as_rows()
        assert rows == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_x_gives_subdiagonal_shift(self):
        rows = toeplitz_from_poly(PowerPoly((0, 1)), 3).as_rows()
        assert rows == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]

    @pytest.mark.parametrize("r,c", [(3, 0), (0, 3), (-1, 0), (0, -1)])
    def test_entry_outside_the_matrix(self, r, c):
        with pytest.raises(IndexError, match=r"^entry \(%d, %d\) outside 3x3 matrix$" % (r, c)):
            toeplitz_from_poly(PowerPoly((1, 1)), 3).entry(r, c)

    def test_too_few_rows(self):
        with pytest.raises(SizeError):
            toeplitz_from_poly(PowerPoly((1, 2, 3)), 2)

    def test_apply_pads_and_bounds(self):
        t = toeplitz_from_poly(PowerPoly((1, 1)), 4)
        assert t.apply((1, -1)) == [1, 0, -1, 0]
        with pytest.raises(SizeError):
            t.apply((1, 2, 3, 4, 5))


class TestPolyMul:
    def test_difference_of_squares(self):
        out = poly_mul(PowerPoly((1, 1)), PowerPoly((1, -1)))
        assert out.coeffs == (1, 0, -1)

    def test_degrees_add_and_column_height(self):
        g = PowerPoly((2, -1, 3))
        q = PowerPoly((1, 0, 0, 5))
        f = poly_mul(g, q)
        assert f.degree == 5
        # the product column lives in a (deg g + deg q + 1)-row matrix
        t = toeplitz_from_poly(g, f.degree + 1)
        assert t.apply(q.coeffs) == list(f.coeffs)

    def test_zero_annihilates(self):
        q = PowerPoly((4, 5, 6))
        assert poly_mul(PowerPoly((0,)), q).coeffs == (0,)
        assert poly_mul(q, PowerPoly((0, 0))).coeffs == (0,)

    def test_commutes_and_matches_convolution(self):
        rng = random.Random(20240811)
        for _ in range(200):
            g, q = random_poly(rng), random_poly(rng)
            f = poly_mul(g, q)
            assert f.coeffs == poly_mul(q, g).coeffs
            assert list(f.coeffs) == convolve(g.coeffs, q.coeffs)

    def test_toeplitz_product_column_zero(self):
        # multiplying two banded matrices: first column holds the product poly,
        # zero-padded when the matrices are taller than the product degree
        rng = random.Random(7)
        for extra in (0, 3):
            for _ in range(25):
                g, q = random_poly(rng, 4), random_poly(rng, 4)
                n = g.degree + q.degree + 1 + extra
                tg = toeplitz_from_poly(g, n).as_rows()
                tq = toeplitz_from_poly(q, n).as_rows()
                col0 = [sum(tg[r][s] * tq[s][0] for s in range(n)) for r in range(n)]
                want = list(poly_mul(g, q).coeffs)
                assert col0 == want + [0] * (n - len(want))
