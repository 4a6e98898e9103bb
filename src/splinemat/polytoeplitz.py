"""Power-basis polynomials and their lower-triangular Toeplitz product form.

A polynomial a_0 + a_1 x + ... + a_n x^n embeds into a lower-triangular
banded matrix that is constant along diagonals; multiplying that matrix
against the (zero-padded) coefficient column of a second polynomial is
exactly coefficient convolution, and ``poly_mul`` is that product.
Everything here is exact rational, except ``horner`` at a float argument
and its array form ``horner_array``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import SizeError


@dataclass(frozen=True)
class PowerPoly:
    """Dense polynomial in the power basis, constant term first."""

    coeffs: tuple

    def __init__(self, coeffs: Sequence):
        cs = tuple(Fraction(c) for c in coeffs)
        if not cs:
            raise ValueError("a polynomial needs at least one coefficient; zero is (0,)")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        return horner(self.coeffs, x)


def horner(coeffs: Sequence, x):
    """Value at x of the polynomial with ``coeffs``, constant term first.

    Exact for Fraction or int x and coefficients, plain float math otherwise.
    """
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def horner_array(coeffs, x):
    """``horner`` over float arrays in one accumulator: the same bits, element for element.

    ``coeffs`` is (m, ...) with m >= 1, constant row first, and ``x`` has a
    row's shape.  The scalar loop is the reference: its first step,
    0 * x + c_{m-1}, is ``x * 0`` (which keeps the sign of zero of x) plus
    that row, and each later step's two roundings, of ``acc * x`` and of
    ``+ c``, are those of ``acc *= x`` and ``acc += c``.  Neither input is
    written; the result is a new array.
    """
    rows = reversed(coeffs)  # iterates faster than a negative-stride slice
    acc = x * 0
    acc += next(rows)
    for c in rows:
        acc *= x
        acc += c
    return acc


@dataclass(frozen=True)
class ToeplitzLT:
    """Lower-triangular Toeplitz matrix generated by a polynomial.

    Entry (r, c) equals generator coefficient a_{r-c}, zero outside the
    band.  Each diagonal is constant, and column c is the generator's
    coefficient column shifted down by c rows.
    """

    rows: int
    generator: PowerPoly

    def entry(self, r: int, c: int) -> Fraction:
        if not (0 <= r < self.rows and 0 <= c < self.rows):
            raise IndexError("entry (%d, %d) outside %dx%d matrix" % (r, c, self.rows, self.rows))
        k = r - c
        if 0 <= k <= self.generator.degree:
            return self.generator.coeffs[k]
        return Fraction(0)

    def as_rows(self) -> list:
        return [[self.entry(r, c) for c in range(self.rows)] for r in range(self.rows)]

    def apply(self, column: Sequence) -> list:
        """Product with a coefficient column zero-padded to the row count."""
        col = [Fraction(c) for c in column]
        if len(col) > self.rows:
            raise SizeError("column of height %d exceeds %d rows" % (len(col), self.rows))
        g = self.generator.coeffs
        out = [Fraction(0)] * self.rows
        for c, qc in enumerate(col):
            if qc == 0:
                continue
            for k, a in enumerate(g):
                out[c + k] += a * qc
        return out


def toeplitz_from_poly(p: PowerPoly, rows: int) -> ToeplitzLT:
    """Toeplitz representation of multiplication by ``p``.

    ``rows`` must cover the whole coefficient band (degree + 1); the row
    count of a product matrix is set by the product's degree.
    """
    if rows < p.degree + 1:
        raise SizeError("need at least %d rows for degree %d, got %d" % (p.degree + 1, p.degree, rows))
    return ToeplitzLT(rows=rows, generator=p)


def poly_mul(g: PowerPoly, q: PowerPoly) -> PowerPoly:
    """Exact product of two polynomials: ``g``'s Toeplitz matrix applied to ``q``.

    The all-zero result collapses to the canonical zero polynomial (0,),
    so multiplying by zero annihilates degree as well as value.
    """
    out = toeplitz_from_poly(g, len(g.coeffs) + len(q.coeffs) - 1).apply(q.coeffs)
    if all(c == 0 for c in out):
        return PowerPoly((0,))
    return PowerPoly(out)
