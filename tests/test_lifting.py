"""Integer Newton-basis lifting of St(k+r, k) against the old rational code.

The reference below is the `Fraction` polynomial class (`__add__`, `scale`,
`shift_argument`, `is_zero`) and the triangular rational solve that the
lifting in `sequences` used before it lifted integer coefficients in the
basis C(k, i).  It stays here as the oracle for the integer form.
"""
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb

import pytest

from permdom.counting import f0_column, f1_triangle
from permdom.errors import UnsupportedOffset
from permdom.sequences import MAX_LIFT_OFFSET, lift_families

MAX_R = 40
MAX_K = 40


class DegenerateR(Exception):
    """The reference's right-hand side collapsed to the zero polynomial."""


@dataclass(frozen=True)
class RefPolynomial:
    """Dense coefficients a_0..a_deg over exact rationals."""

    coefficients: tuple[Fraction, ...]

    @staticmethod
    def of(*coefficients) -> "RefPolynomial":
        coeffs = [Fraction(c) for c in coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        return RefPolynomial(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def __call__(self, k) -> Fraction:
        x = Fraction(k)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __add__(self, other: "RefPolynomial") -> "RefPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return RefPolynomial.of(*merged)

    def scale(self, factor) -> "RefPolynomial":
        f = Fraction(factor)
        return RefPolynomial.of(*(c * f for c in self.coefficients))

    def shift_argument(self, delta) -> "RefPolynomial":
        """The polynomial q with q(k) = p(k + delta)."""
        d = Fraction(delta)
        out = [Fraction(0)] * len(self.coefficients)
        for m, c in enumerate(self.coefficients):
            for j in range(m + 1):
                out[j] += c * comb(m, j) * d ** (m - j)
        return RefPolynomial.of(*out)


REF_ZERO = RefPolynomial.of(0)
REF_ONE = RefPolynomial.of(1)


def ref_lift_polynomial(r: int, lower: dict) -> tuple[RefPolynomial, int]:
    """(polynomial, St(r, 0)) for offset r from `lower`, offset -> polynomial.

    R(k) = sum_{s=0}^{r-1} St((k-1)+s, k-1) * St(r-s, 0) with the lower
    polynomials composed with k-1; p(k) - p(k-1) = R(k) solved top down by
    the triangular coefficient recurrence, the constant pinned to St(r, 0).
    """
    if r < 2:
        raise UnsupportedOffset(f"lifting starts at offset 2, got {r}")
    st0 = f0_column(r)

    rhs = REF_ZERO
    for s in range(r):
        weight = st0[r - s]
        if weight == 0:
            continue
        if s == 0:
            term = REF_ONE
        elif s == 1:
            continue
        else:
            term = lower[s].shift_argument(-1)
        rhs = rhs + term.scale(weight)

    if rhs.is_zero():
        raise DegenerateR(f"R(k) vanishes for offset {r}")

    b = rhs.coefficients
    n = len(b)  # deg(R) + 1
    a = [Fraction(0)] * (n + 1)
    a[n] = Fraction(b[n - 1], n)
    for j in range(1, n):
        acc = b[n - j - 1]
        for i in range(j):
            acc -= (-1) ** (j - i) * comb(n - i, j + 1 - i) * a[n - i]
        a[n - j] = acc / (n - j)
    a[0] = Fraction(st0[r])
    return RefPolynomial.of(*a), st0[r]


@cache
def ref_lift_families(max_r: int) -> dict[int, tuple[RefPolynomial, int]]:
    families: dict[int, tuple[RefPolynomial, int]] = {}
    for r in range(2, max_r + 1):
        lower = {s: poly for s, (poly, _) in families.items()}
        families[r] = ref_lift_polynomial(r, lower)
    return families


@cache
def families() -> dict:
    return lift_families(MAX_R)


def test_reference_polynomial_arithmetic():
    p = RefPolynomial.of(1, 2)  # 1 + 2k
    q = RefPolynomial.of(0, 0, Fraction(1, 2))
    assert (p + q)(2) == 1 + 4 + 2
    assert p.shift_argument(-1)(5) == p(4)
    assert p.scale(3).coefficients == (Fraction(3), Fraction(6))
    assert RefPolynomial.of(0, 0).is_zero()
    assert RefPolynomial.of(1, 2, 0).degree == 1


@pytest.mark.parametrize("r", range(2, MAX_R + 1))
def test_lift_matches_the_rational_reference(r):
    polynomial, k0_value = ref_lift_families(MAX_R)[r]
    fam = families()[r]
    assert fam.polynomial.coefficients == polynomial.coefficients
    assert fam.k0_value == k0_value


@pytest.mark.parametrize("r", range(2, MAX_R + 1))
def test_newton_coefficients_give_the_diagonal(r):
    rows = f1_triangle(MAX_K + MAX_R)
    a = families()[r].newton_coefficients
    assert all(type(c) is int for c in a) and a[-1] != 0
    # Every diagonal vanishes at k = -1, so a_0 = St(r, 0) is also c_0.
    assert families()[r].polynomial(-1) == 0
    for k in range(MAX_K + 1):
        assert sum(c * comb(k, i) for i, c in enumerate(a)) == rows[k + r][k]


def test_the_right_hand_side_is_positive_at_one_for_every_offset():
    # R(1) = sum_s St(r-s, 0) p_s(0) over s = 0 and s = 2..r-1, p_0 = 1 and
    # p_s(0) = St(s, 0): a sum of counts whose s = 0 term St(r, 0) is
    # positive, so R(k) is never the zero polynomial.
    st0 = f0_column(MAX_LIFT_OFFSET)
    rows = f1_triangle(MAX_LIFT_OFFSET + 1)
    lifted = lift_families(MAX_LIFT_OFFSET)
    for r in range(2, MAX_LIFT_OFFSET + 1):
        r1 = st0[r] + sum(st0[r - s] * st0[s] for s in range(2, r))
        assert r1 >= st0[r] > 0
        # p_r(1) - p_r(0) = R(1), and in Newton coefficients a_1 = R(1).
        assert rows[r + 1][1] - rows[r][0] == r1
        assert lifted[r].newton_coefficients[1] == r1
        # The top coefficient is positive too, so R(k) needs no trimming.
        assert lifted[r].newton_coefficients[-1] > 0


@pytest.mark.parametrize("r", [-1, 0, 1])
def test_offsets_below_two_are_unsupported(r):
    assert lift_families(r) == {}
    with pytest.raises(UnsupportedOffset):
        ref_lift_polynomial(r, {})
