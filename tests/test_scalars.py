from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tlstar.scalars import Polynomial, RationalFunction, T


def poly(*coeffs):
    return Polynomial(coeffs)


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        assert poly(1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))
        assert not poly(0, 0)
        assert poly().degree == -1

    def test_arithmetic(self):
        a, b = poly(1, 2), poly(3, 0, 1)  # 1+2t, 3+t^2
        assert a + b == poly(4, 2, 1)
        assert b - a == poly(2, -2, 1)
        assert a * b == poly(3, 6, 1, 2)
        assert -a == poly(-1, -2)

    def test_divmod(self):
        num = poly(-1, 0, 1)  # t^2 - 1
        den = poly(-1, 1)     # t - 1
        q, r = divmod(num, den)
        assert q == poly(1, 1) and not r
        q, r = divmod(poly(1, 1, 1), poly(0, 1))
        assert q == poly(1, 1) and r == poly(1)

    def test_gcd_is_monic(self):
        a = poly(0, 2, 2)    # 2t(t+1)
        b = poly(0, 0, 3, 3)  # 3t^2(t+1)
        assert Polynomial.gcd(a, b) == poly(0, 1, 1)

    def test_evaluate(self):
        assert poly(1, -2, 1).evaluate(Fraction(1, 2)) == Fraction(1, 4)

    @pytest.mark.parametrize("value", [0, 3, Fraction(-1, 2)])
    def test_constant_hashes_as_its_value(self, value):
        p = poly(value)
        assert p == value and hash(p) == hash(value)
        assert len({p, value}) == 1

    def test_str(self):
        assert str(poly(0, 1)) == "t"
        assert str(poly(Fraction(-1, 2), 0, 1)) == "t^2 - 1/2"
        assert str(poly()) == "0"


class TestRationalFunction:
    def test_lowest_terms_and_monic_denominator(self):
        r = RationalFunction(poly(-1, 0, 1), poly(-1, 1))  # (t^2-1)/(t-1)
        assert r == RationalFunction(poly(1, 1))
        r = RationalFunction(poly(0, 2), poly(0, 0, 4))  # 2t / 4t^2
        assert r.num == poly(Fraction(1, 2)) and r.den == poly(0, 1)
        assert r.den.leading_coefficient() == 1

    def test_zero_normalises(self):
        r = RationalFunction(0, poly(1, 5))
        assert not r and r.den == poly(1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(poly(1), poly())

    def test_equality_with_numbers(self):
        assert RationalFunction(3) == 3
        assert RationalFunction(Fraction(1, 2)) == Fraction(1, 2)
        assert T != 1

    @pytest.mark.parametrize("r, other", [
        (T, Polynomial.variable()),
        (RationalFunction(3), 3),
        (RationalFunction(3), poly(3)),
        (RationalFunction(0), 0),
        (RationalFunction(Fraction(1, 2)), Fraction(1, 2)),
    ])
    def test_equal_values_hash_equal(self, r, other):
        assert r == other and hash(r) == hash(other)
        assert len({r, other}) == 1

    def test_parameter_arithmetic(self):
        assert T * T == RationalFunction(poly(0, 0, 1))
        assert (1 - T) + T == 1
        assert (T * T - 1) / (T - 1) == T + 1
        inv = 1 / (1 - T)
        assert inv * (1 - T) == 1

    def test_pow(self):
        assert T ** 3 == T * T * T
        assert (T ** -1) * T == 1

    def test_evaluate(self):
        r = (T + 1) / (T - RationalFunction(2))
        assert r.evaluate(Fraction(3)) == 4
        with pytest.raises(ZeroDivisionError):
            r.evaluate(Fraction(2))


small_fraction = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)


@st.composite
def rational_functions(draw):
    num = draw(st.lists(small_fraction, min_size=1, max_size=3))
    den = draw(st.lists(small_fraction, min_size=1, max_size=3))
    den_poly = Polynomial(den)
    if not den_poly:
        den_poly = Polynomial((Fraction(1),))
    return RationalFunction(Polynomial(num), den_poly)


@given(rational_functions(), rational_functions(), rational_functions())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a
    assert a - a == 0
    if a:
        assert a / a == 1
        assert a * (1 / a) == 1


@given(rational_functions(), rational_functions())
def test_subtraction_division_consistency(a, b):
    assert (a - b) + b == a
    if b:
        assert (a / b) * b == a
