from fractions import Fraction

import pytest

from permdom.counting import f1, f1_triangle, g1_column
from permdom.errors import IndexOutOfRange, UnsupportedOffset
from permdom.sequences import (
    RationalPolynomial,
    lift_families,
    sequence_table,
    st,
    st_closed_form,
)


def test_polynomial_arithmetic():
    q = RationalPolynomial.of(0, 0, Fraction(1, 2))
    assert q(2) == 2
    assert RationalPolynomial.of(1, 2, 0).degree == 1
    assert RationalPolynomial.of(0, 0).coefficients == (Fraction(0),)


def test_st_boundary_values():
    assert st(2, 0) == 1
    for k in range(8):
        assert st(k, k) == 1
        assert st(k + 1, k) == 0
    with pytest.raises(IndexOutOfRange):
        st(3, 4)


def test_closed_form_values():
    assert st_closed_form(3, 2) == 9
    assert st_closed_form(4, 0) == 14
    assert st_closed_form(5, 0) == 77
    assert st_closed_form(2, 5) == 6
    with pytest.raises(UnsupportedOffset):
        st_closed_form(6, 1)


@pytest.mark.parametrize("r", [0, 1, 2, 3, 4, 5])
def test_closed_forms_match_recursion(r):
    for k in range(41):
        assert st_closed_form(r, k) == f1(k + r, k)


def test_lift_reproduces_known_coefficients():
    fams = lift_families(5)
    assert fams[3].polynomial.coefficients == (Fraction(3), Fraction(3))
    assert fams[4].polynomial.coefficients == (
        Fraction(14), Fraction(29, 2), Fraction(1, 2))
    assert fams[5].polynomial.coefficients == (
        Fraction(77), Fraction(80), Fraction(3))


@pytest.mark.parametrize("r", range(2, 8))
def test_lifted_polynomials_match_recursion(r):
    fam = lift_families(r)[r]
    assert fam.polynomial(0) == fam.k0_value == f1(r, 0)
    for k in range(1, 41):
        assert fam.polynomial(k) == f1(k + r, k)


def test_sequence_table():
    triangle, column = sequence_table(5)
    assert triangle == f1_triangle(5) and column == g1_column(5)
    assert triangle[3] == [3, 2, 0, 1]
    assert triangle[2] == [1, 0, 1]
    assert len(triangle) == len(column) == 6
    assert column[5] == 43
    assert column[0] == 0
    with pytest.raises(IndexOutOfRange):
        sequence_table(31)
