"""Strong-fixed-point counts St(n, k) and their closed forms.

St(n, k) equals f(n, 1, k): reversing a permutation turns its strong fixed
points into singleton dominators of the graph.  For fixed offset r the map
k -> St(k+r, k) is a polynomial; `lift_polynomial` builds each offset's
polynomial from the lower offsets using exact rational arithmetic (the
offset-4 closed form has half-integer coefficients, so floats are out).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .counting import CountTable, f0_column, f1, f1_triangle, g1_column
from .errors import (
    DegenerateR,
    IndexOutOfRange,
    MissingLowerOffset,
    UnsupportedOffset,
)

# Largest offset the CLI lifts.  `lift_families` builds every family from 2
# up; `seq lift --r 80` takes about 5-6 s on a 2-core Xeon under CPython
# 3.11, and the time grows about tenfold per doubling of r.
MAX_LIFT_OFFSET = 80

# Largest order of the St(n, k) triangle; output size, not time, limits it.
MAX_ST_ORDER = 30


@dataclass(frozen=True)
class RationalPolynomial:
    """Dense coefficients a_0..a_deg over exact rationals."""

    coefficients: tuple[Fraction, ...]

    @staticmethod
    def of(*coefficients) -> "RationalPolynomial":
        coeffs = [Fraction(c) for c in coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        return RationalPolynomial(tuple(coeffs))

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

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return RationalPolynomial.of(*merged)

    def scale(self, factor) -> "RationalPolynomial":
        f = Fraction(factor)
        return RationalPolynomial.of(*(c * f for c in self.coefficients))

    def shift_argument(self, delta) -> "RationalPolynomial":
        """The polynomial q with q(k) = p(k + delta)."""
        d = Fraction(delta)
        out = [Fraction(0)] * len(self.coefficients)
        for m, c in enumerate(self.coefficients):
            for j in range(m + 1):
                out[j] += c * comb(m, j) * d ** (m - j)
        return RationalPolynomial.of(*out)


ZERO = RationalPolynomial.of(0)
ONE = RationalPolynomial.of(1)


@dataclass(frozen=True)
class StOffsetFamily:
    """Polynomial giving St(k+r, k) for k >= 1, anchored at St(r, 0)."""

    r: int
    polynomial: RationalPolynomial
    k0_value: int


def st(n: int, k: int) -> int:
    """Permutations of [n] with exactly k strong fixed points."""
    if n < 0 or not 0 <= k <= n:
        raise IndexOutOfRange(f"need 0 <= k <= n, got n={n}, k={k}")
    return f1(n, k)


def st_closed_form(r: int, k: int) -> int:
    """Closed form for St(k+r, k), offsets 0 through 5."""
    if k < 0:
        raise IndexOutOfRange(f"negative k: {k}")
    if r == 0:
        return 1
    if r == 1:
        return 0
    if r == 2:
        return k + 1
    if r == 3:
        return 3 * (k + 1)
    if r == 4:
        return (k + 1) * (k + 28) // 2
    if r == 5:
        return (k + 1) * (3 * k + 77)
    raise UnsupportedOffset(f"no closed form implemented for offset {r}")


def lift_polynomial(r: int, lower) -> StOffsetFamily:
    """Lift the offset-r polynomial from the families of all offsets s < r.

    R(k) = sum_{s=0}^{r-1} St((k-1)+s, k-1) * St(r-s, 0), where the offset-s
    factor is the lower polynomial composed with k-1 (offset 0 is the
    constant 1, offset 1 is 0).  With R = b_{n-1} k^{n-1} + ... + b_0 the
    lifted polynomial p of degree n satisfies p(k) - p(k-1) = R(k), which
    the triangular coefficient recurrence solves top down; the constant
    term is pinned to St(r, 0).
    """
    if r < 2:
        raise UnsupportedOffset(f"lifting starts at offset 2, got {r}")
    by_offset = {fam.r: fam for fam in lower}
    st0 = f0_column(r)  # St(j, 0) for j <= r

    rhs = ZERO
    for s in range(r):
        weight = st0[r - s]
        if weight == 0:
            continue
        if s == 0:
            term = ONE
        elif s == 1:
            continue
        else:
            if s not in by_offset:
                raise MissingLowerOffset(f"offset {s} family not supplied")
            term = by_offset[s].polynomial.shift_argument(-1)
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
    return StOffsetFamily(
        r=r, polynomial=RationalPolynomial.of(*a), k0_value=st0[r]
    )


def lift_families(max_r: int) -> dict[int, StOffsetFamily]:
    """All offset families from 2 through max_r, built in dependency order."""
    families: dict[int, StOffsetFamily] = {}
    for r in range(2, max_r + 1):
        families[r] = lift_polynomial(r, families.values())
    return families


def sequence_table(max_n: int) -> tuple[CountTable, CountTable]:
    """The St(n, k) triangle for 0 <= k <= n <= max_n, plus the g(n, 1)
    column (permutations with at least one strong fixed point)."""
    if max_n > MAX_ST_ORDER:
        raise IndexOutOfRange(
            f"recursion table capped at n = {MAX_ST_ORDER}, got {max_n}")
    triangle = CountTable(kind="f1t")
    column = CountTable(kind="g1")
    for n, row in enumerate(f1_triangle(max_n)):
        for k, value in enumerate(row):
            triangle.entries[(n, k)] = value
    for n, value in enumerate(g1_column(max_n)):
        column.entries[(n,)] = value
    return triangle, column
