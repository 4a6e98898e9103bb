from fractions import Fraction

import pytest

from splinemat import (
    DegenerateSpan,
    DomainError,
    InvalidKnots,
    KnotVector,
    find_span,
    normalize,
)


def clamped(degree, interior, last):
    return KnotVector([0] * (degree + 1) + list(interior) + [last] * (degree + 1))


class TestKnotVector:
    def test_rejects_short_and_decreasing(self):
        with pytest.raises(InvalidKnots):
            KnotVector([1])
        with pytest.raises(InvalidKnots):
            KnotVector([0, 2, 1])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidKnots):
            KnotVector([0.0, float("nan"), 1.0])
        with pytest.raises(InvalidKnots):
            KnotVector([0.0, float("inf")])

    # both were taken for evenly spaced with an infinite spacing
    @pytest.mark.parametrize("values", [[-1e308, -1e308, 0.0, 1.0, 1e308, 1e308],
                                        [-1e308, -1e308, 0.0, 1e308, 1e308, 1e308]])
    def test_rejects_float_range_beyond_doubles(self, values):
        with pytest.raises(InvalidKnots, match="beyond the float range"):
            KnotVector(values)
        halved = KnotVector([v / 2 for v in values])
        assert halved.storage == "float" and not halved.is_uniform

    # one float makes the storage float; the integer then has no double
    @pytest.mark.parametrize("values", [[0, 0.5, 10 ** 400], [-(10 ** 400), 0.5, 1],
                                        [0.0, Fraction(10 ** 400, 3)]])
    def test_mixed_float_and_huge_exact_knots_raise_invalid_knots(self, values):
        with pytest.raises(InvalidKnots, match="beyond the float range"):
            KnotVector(values)

    def test_as_float_beyond_float_range_raises_invalid_knots(self):
        with pytest.raises(InvalidKnots, match="beyond the float range"):
            KnotVector([0, 10 ** 400]).as_float()
        assert KnotVector([0, 10 ** 300]).as_float().values == (0.0, 1e300)

    def test_storage_tagging(self):
        assert KnotVector([0, 1, 2]).storage == "rational"
        assert KnotVector([Fraction(1, 3), 1]).storage == "rational"
        assert KnotVector([0.0, 1, 2]).storage == "float"

    def test_uniform_flag_exact(self):
        kv = KnotVector.uniform(8)
        assert kv.is_uniform
        assert not KnotVector([0, 1, 3]).is_uniform
        # repeated knots are not uniform spacing
        assert not KnotVector([0, 0, 1, 1]).is_uniform

    def test_float_knots_are_never_uniform(self):
        # 0.1 * i carries binary noise; 0.5 * i is exactly evenly spaced
        for step in (0.1, 0.5):
            kv = KnotVector([step * i for i in range(8)])
            assert kv.storage == "float" and not kv.is_uniform
            assert kv.as_rational().is_uniform == (step == 0.5)
        assert not KnotVector([0.0, 1.0, 2.5]).is_uniform

    def test_as_rational_is_exact(self):
        kv = KnotVector([0.1, 0.2, 0.4]).as_rational()
        assert kv.storage == "rational"
        assert [float(v) for v in kv.values] == [0.1, 0.2, 0.4]

    def test_immutable(self):
        kv = KnotVector([0, 1])
        with pytest.raises(AttributeError):
            kv.values = (0, 2)


class TestFindSpan:
    def test_interior_point(self):
        kv = KnotVector.uniform(8)
        assert find_span(kv, 3, 3.5) == 3

    def test_right_end_clamps_to_last_span(self):
        kv = KnotVector.uniform(8)
        assert find_span(kv, 3, 4.0) == 3

    def test_clamped_vector_single_span(self):
        kv = KnotVector([0, 0, 0, 0, 1, 1, 1, 1])
        assert find_span(kv, 3, 0.5) == 3
        assert find_span(kv, 3, 0.0) == 3
        assert find_span(kv, 3, 1.0) == 3

    def test_multi_span_and_knot_ties(self):
        kv = KnotVector.uniform(12)
        for j in range(3, 8):
            assert find_span(kv, 3, j + 0.5) == j
            assert find_span(kv, 3, float(j)) == j
        assert find_span(kv, 3, 8.0) == 7

    def test_skips_zero_width_spans(self):
        kv = KnotVector([0, 1, 2, 2, 3, 4])
        assert find_span(kv, 1, 2.0) == 3
        # right-end clamp also lands on a span of positive width
        kvr = KnotVector([0, 1, 2, 3, 3, 4])
        assert find_span(kvr, 1, 3.0) == 2

    def test_outside_domain(self):
        kv = KnotVector.uniform(8)
        with pytest.raises(DomainError):
            find_span(kv, 3, 2.9)
        with pytest.raises(DomainError):
            find_span(kv, 3, 4.1)
        with pytest.raises(DomainError):
            find_span(kv, 3, float("nan"))

    def test_degenerate_domain(self):
        with pytest.raises(DomainError):
            find_span(KnotVector([0, 0, 0, 0]), 1, 0.0)


class TestNormalize:
    def test_examples(self):
        kv = KnotVector.uniform(8)
        assert normalize(kv, 3, 3.5) == 0.5
        assert normalize(kv, 3, 3.0) == 0.0
        ckv = KnotVector([0, 0, 0, 0, 1, 1, 1, 1])
        assert normalize(ckv, 3, 0.25) == 0.25

    def test_exact_for_rationals(self):
        kv = KnotVector([0, 2, 5])
        u = normalize(kv, 1, Fraction(3))
        assert u == Fraction(1, 3) and isinstance(u, Fraction)

    def test_degenerate_span(self):
        kv = KnotVector([0, 1, 1, 2])
        with pytest.raises(DegenerateSpan):
            normalize(kv, 1, 1.0)

    def test_span_offset_is_continuous_and_piecewise_affine(self):
        # tau -> span + u rises affinely inside spans and matches across knots
        kv = KnotVector.uniform(12)
        for j in range(3, 8):
            for tau in (Fraction(j), Fraction(4 * j + 1, 4), Fraction(4 * j + 3, 4)):
                jj = find_span(kv, 3, tau)
                assert jj + normalize(kv, jj, tau) == tau
        assert normalize(kv, 5, Fraction(5)) == 0
