"""Strong-fixed-point counts St(n, k) and their closed forms.

St(n, k) equals f(n, 1, k): reversing a permutation turns its strong fixed
points into singleton dominators of the graph.  For fixed offset r the map
k -> St(k+r, k) is an integer-valued polynomial, so it has integer
coefficients a_i in the basis C(k, i), its Newton series (Graham, Knuth and
Patashnik, Concrete Mathematics 5.3).  `lift_families` builds each
offset's a_i from the lower offsets by three integer recurrences (a shift, a
right-hand side, a telescoping sum), then multiplies them out once into
exact rationals: the offset-4 closed form has half-integer coefficients.
"""
from __future__ import annotations

from math import factorial

# `fractions` (which loads `decimal`) is imported inside the functions that
# use it, so a cold start of the CLI does not pay for it.
from ._record import Record
from .counting import f0_column, f1, f1_triangle, g1_column
from .errors import IndexOutOfRange, UnsupportedOffset

# Largest offset the CLI lifts.  `lift_families` builds every family from 2
# up; `seq lift --r 80` takes 0.1-0.2 s on a 2-core Xeon under CPython
# 3.11, 0.02 s of it lifting.  Raising it changes which argv succeed.
MAX_LIFT_OFFSET = 80

# Largest order of the St(n, k) triangle; output size, not time, limits it.
MAX_ST_ORDER = 30


class RationalPolynomial(Record):
    """Dense coefficients a_0..a_deg over exact rationals (`Fraction`s)."""

    __slots__ = ("coefficients",)

    @staticmethod
    def of(*coefficients) -> "RationalPolynomial":
        from fractions import Fraction

        coeffs = [Fraction(c) for c in coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        return RationalPolynomial(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, k):
        """p(k), a `Fraction`."""
        from fractions import Fraction

        x = Fraction(k)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


class StOffsetFamily(Record):
    """Polynomial giving St(k+r, k) for k >= 1, anchored at St(r, 0), also
    as its integer coefficients in the basis C(k, i)."""

    __slots__ = ("r", "polynomial", "k0_value", "newton_coefficients")


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


def _shifted(a) -> list[int]:
    """Newton coefficients of p(k-1) from those of p(k)."""
    b = list(a)
    for i in reversed(range(len(b) - 1)):
        b[i] -= b[i + 1]
    return b


def _monomial(a: list[int]) -> RationalPolynomial:
    """sum_i a_i C(k, i) multiplied out, C(k, i) = k(k-1)...(k-i+1) / i!,
    over the common denominator deg!."""
    from fractions import Fraction

    denominator = factorial(len(a) - 1)
    numerators = [0] * len(a)
    falling = [1]  # monomial coefficients of k(k-1)...(k-i+1)
    for i, coefficient in enumerate(a):
        if i:
            falling = [lo - (i - 1) * hi
                       for lo, hi in zip([0] + falling, falling + [0])]
        weight = coefficient * denominator // factorial(i)
        for j, c in enumerate(falling):
            numerators[j] += weight * c
    return RationalPolynomial.of(*(Fraction(x, denominator) for x in numerators))


def _lift(r: int, shifted: dict[int, list[int]], st0: list[int]) -> StOffsetFamily:
    """The offset-r family from the shifted Newton coefficients of every
    offset s < r and St(j, 0) for j <= r at least.

    In Newton coefficients (p(k) = sum_i a_i C(k, i)), by three integer
    recurrences:
    - shift: p(k-1) = sum_i b_i C(k, i) with b_i = a_i - b_{i+1}, top down,
      since C(k+1, i) = C(k, i) + C(k, i-1);
    - right-hand side: R(k) = sum_s St(r-s, 0) p_s(k-1) = sum_i c_i C(k, i)
      over s = 0 and s = 2..r-1, with p_0 = 1 (offset 1 is 0), a sum of
      integer vectors.  Its top coefficient is positive, by induction from
      r = 2, where R = St(2, 0) = 1: each family's top Newton coefficient
      equals the top coefficient of its right-hand side (and a shift keeps
      it), and every weight St(r-s, 0) that enters is a positive count, so
      the top coefficients of the longest terms add up and never cancel;
    - telescoping sum: p_r(k) - p_r(k-1) = R(k) with p_r(0) = St(r, 0)
      gives a_0 = St(r, 0) and a_i = c_{i-1} + c_i for i >= 1, by the
      hockey stick sum_{j=0}^{k} C(j, i) = C(k+1, i+1).
    """
    rhs: list[int] = []
    for s in range(r):
        weight = st0[r - s]
        if weight == 0 or s == 1:
            continue
        term = [1] if s == 0 else shifted[s]
        rhs += [0] * (len(term) - len(rhs))
        for i, c in enumerate(term):
            rhs[i] += weight * c

    a = [st0[r]] + [lo + hi for lo, hi in zip(rhs, rhs[1:] + [0])]
    return StOffsetFamily(r=r, polynomial=_monomial(a), k0_value=st0[r],
                          newton_coefficients=tuple(a))


def lift_families(max_r: int) -> dict[int, StOffsetFamily]:
    """All offset families from 2 through max_r, built in dependency order,
    with St(j, 0) computed once and each family shifted once."""
    st0 = f0_column(max_r)
    families: dict[int, StOffsetFamily] = {}
    shifted: dict[int, list[int]] = {}
    for r in range(2, max_r + 1):
        families[r] = _lift(r, shifted, st0)
        shifted[r] = _shifted(families[r].newton_coefficients)
    return families


def sequence_table(max_n: int) -> tuple[list[list[int]], list[int]]:
    """The St(n, k) triangle, rows[n][k] for 0 <= k <= n <= max_n, plus the
    g(n, 1) column (permutations with at least one strong fixed point)."""
    if max_n > MAX_ST_ORDER:
        raise IndexOutOfRange(
            f"recursion table capped at n = {MAX_ST_ORDER}, got {max_n}")
    return f1_triangle(max_n), g1_column(max_n)
