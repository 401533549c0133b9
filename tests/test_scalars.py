import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from tlstar import scalars
from tlstar.scalars import RationalFunction, T


def rf(num, den=1):
    return RationalFunction(num, den)


def parts(r):
    """Numerator and denominator coefficients of r, as lists."""
    return [list(r.num), list(r.den)]


def test_public_names():
    assert scalars.__all__ == ["RationalFunction", "T"]
    assert not hasattr(scalars, "Polynomial")


class TestPolynomial:
    """Elements with denominator 1, and the polynomial arithmetic that lowest terms rest on."""

    def test_trailing_zeros_stripped(self):
        assert rf([1, 2, 0, 0]).num == (Fraction(1), Fraction(2))
        assert rf([1], [0, 1, 0]).den == (Fraction(0), Fraction(1))
        assert not rf([0, 0]) and rf([0, 0]).num == ()
        assert rf([]) == 0 and RationalFunction() == 0

    def test_arithmetic(self):
        a, b = rf([1, 2]), rf([3, 0, 1])  # 1+2t, 3+t^2
        assert a + b == rf([4, 2, 1])
        assert b - a == rf([2, -2, 1])
        assert a * b == rf([3, 6, 1, 2])
        assert -a == rf([-1, -2])
        assert a - a == 0 and not (a - a)
        assert all(type(c) is Fraction for c in (a * b).num + rf([1, 2], [3, 4]).den)

    def test_divmod(self):
        # (t^2 - 1)/(t - 1) divides exactly to t + 1.
        assert parts(rf([-1, 0, 1], [-1, 1])) == [[1, 1], [1]]
        # t^2 + t + 1 = (t + 1) t + 1: t does not divide it, so nothing cancels.
        assert parts(rf([1, 1, 1], [0, 1])) == [[1, 1, 1], [0, 1]]

    def test_gcd_is_monic(self):
        # 2t(t+1) / 3t^2(t+1) = (2/3) / t, and 2t / 4t^2 = (1/2) / t.
        assert parts(rf([0, 2, 2], [0, 0, 3, 3])) == [[Fraction(2, 3)], [0, 1]]
        assert parts(rf([0, 2], [0, 0, 4])) == [[Fraction(1, 2)], [0, 1]]
        # (t-1)(t-2)(t+3) / (2 (t-1)(t-2)(t^2+1)) = ((t+3)/2) / (t^2+1).
        common = (T - 1) * (T - 2)
        r = common * (T + 3) / (2 * common * (T * T + 1))
        assert parts(r) == [[Fraction(3, 2), Fraction(1, 2)], [1, 0, 1]]

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError, match="rational function with zero denominator"):
            rf([1, 1], [0, 0])
        with pytest.raises(ZeroDivisionError, match="rational function with zero denominator"):
            rf([1, 1]) / rf([0])

    def test_evaluate(self):
        assert rf([1, -2, 1]).evaluate(Fraction(1, 2)) == Fraction(1, 4)
        assert rf([1, -2, 1]).evaluate(3) == 4
        assert rf(0).evaluate(Fraction(5)) == 0

    @pytest.mark.parametrize("value", [0, 3, Fraction(-1, 2)])
    def test_constant_hashes_as_its_value(self, value):
        p = rf([value, 0])
        assert p == value and hash(p) == hash(value)
        assert len({p, value}) == 1

    def test_str(self):
        assert str(T) == "t" and str(-T) == "-t"
        assert str(rf(0)) == "0"
        assert str(rf(Fraction(-3, 4))) == "-3/4"
        assert str(rf([Fraction(-1, 2), 0, 1])) == "t^2 - 1/2"
        assert str(rf([1, -1, 0, 2])) == "2*t^3 - t + 1"
        assert str(rf([0, Fraction(1, 2)])) == "1/2*t"


class TestRationalFunction:
    def test_lowest_terms_and_monic_denominator(self):
        r = rf([-1, 0, 1], [-1, 1])  # (t^2-1)/(t-1)
        assert r == T + 1
        r = rf([0, 2], [0, 0, 4])  # 2t / 4t^2
        assert parts(r) == [[Fraction(1, 2)], [0, 1]]
        assert parts(rf([2, 4], [4])) == [[Fraction(1, 2), 1], [1]]
        assert parts(rf([1, 1], [Fraction(-1, 3)])) == [[-3, -3], [1]]
        assert parts(rf(Fraction(1, 2), 3)) == [[Fraction(1, 6)], [1]]

    def test_equal_denominators_cancel_on_adding(self):
        assert T / (T - 1) - 1 / (T - 1) == 1
        assert parts(1 / (T - 1) + T / (T - 1)) == [[1, 1], [-1, 1]]

    def test_zero_normalises(self):
        r = rf(0, [1, 5])
        assert not r and parts(r) == [[], [1]]

    def test_zero_denominator_rejected(self):
        for den in (0, [], [0, 0], Fraction(0)):
            with pytest.raises(ZeroDivisionError, match="rational function with zero denominator"):
                rf(1, den)

    @pytest.mark.parametrize("num, den", [(0.5, 1), (1, 0.5), ([1, 0.5], 1), ("1", 1), ([1], ["t"])])
    def test_inexact_coefficients_refused(self, num, den):
        with pytest.raises(TypeError, match="coefficients must be int or Fraction"):
            rf(num, den)

    def test_equality_with_numbers(self):
        assert rf(3) == 3
        assert rf(Fraction(1, 2)) == Fraction(1, 2)
        assert T != 1 and 1 / T != 1
        assert rf(0) == 0 and rf(0) != 1

    @pytest.mark.parametrize("r, other", [
        (T, rf([0, 1])),
        (rf(3), 3),
        (rf(3), Fraction(3)),
        (rf(0), 0),
        (rf(Fraction(1, 2)), Fraction(1, 2)),
        ((T * T - 1) / (T - 1), T + 1),
    ])
    def test_equal_values_hash_equal(self, r, other):
        assert r == other and hash(r) == hash(other)
        assert len({r, other}) == 1

    def test_parameter_arithmetic(self):
        assert T * T == rf([0, 0, 1])
        assert (1 - T) + T == 1
        assert (T * T - 1) / (T - 1) == T + 1
        inv = 1 / (1 - T)
        assert inv * (1 - T) == 1

    @pytest.mark.parametrize("number", [2, Fraction(-1, 3)])
    def test_numbers_on_either_side(self, number):
        c = rf(number)
        assert T + number == number + T == T + c
        assert T - number == -(number - T) == T - c
        assert T * number == number * T == T * c
        assert T / number == T / c and number / T == c / T

    def test_pow(self):
        assert T ** 3 == T * T * T
        assert T ** 0 == 1 and T ** 1 == T
        assert (T ** -1) * T == 1
        r = (T + 1) / (T - 2)
        assert r ** -2 == (T - 2) * (T - 2) / ((T + 1) * (T + 1))

    def test_evaluate(self):
        r = (T + 1) / (T - 2)
        assert r.evaluate(Fraction(3)) == 4 and r.evaluate(3) == 4
        with pytest.raises(ZeroDivisionError, match="denominator vanishes at t=2"):
            r.evaluate(Fraction(2))

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            T / 0
        with pytest.raises(ZeroDivisionError):
            T / rf(0)
        with pytest.raises(ZeroDivisionError):
            1 / rf(0)
        with pytest.raises(ZeroDivisionError):
            rf(0) ** -1

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
    def test_float_operands_refused(self, op):
        # A float is not exact: both operand orders decline it, so Python raises TypeError.
        with pytest.raises(TypeError):
            op(T, 0.5)
        with pytest.raises(TypeError):
            op(0.5, T)

    def test_not_equal_to_a_float(self):
        assert (T == 0.5) is False
        assert (rf(1) == 0.5) is False
        assert (rf(1) == "1") is False

    def test_str(self):
        assert str(1 / (1 - T)) == "-1/(t - 1)"
        assert str((T + 1) / (T - 2)) == "(t + 1)/(t - 2)"
        assert str(T ** -2) == "1/t^2"
        assert str(3 / (2 * T)) == "3/2/t"

    @pytest.mark.parametrize("x", [rf([1, Fraction(-1, 2)]), (T + 1) / (T - 2), rf(0), T])
    def test_repr_round_trips(self, x):
        assert eval(repr(x), {"Fraction": Fraction, "RationalFunction": RationalFunction}) == x


small_fraction = st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6)


@st.composite
def rational_functions(draw):
    num = draw(st.lists(small_fraction, min_size=0, max_size=3))
    den = draw(st.lists(small_fraction, min_size=1, max_size=3))
    return RationalFunction(num, den if any(den) else 1)


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


def _value(r, x):
    """r at x by plain `Fraction` arithmetic on its coefficients, or None at a pole."""
    num = sum((c * x ** k for k, c in enumerate(r.num)), Fraction(0))
    den = sum((c * x ** k for k, c in enumerate(r.den)), Fraction(0))
    return None if den == 0 else num / den


@given(rational_functions(), rational_functions(), small_fraction,
       st.sampled_from([operator.add, operator.sub, operator.mul, operator.truediv]))
def test_evaluate_is_a_homomorphism(a, b, x, op):
    va, vb = _value(a, x), _value(b, x)
    assume(va is not None and vb is not None)
    assume(op is not operator.truediv or vb != 0)
    assert a.evaluate(x) == va and b.evaluate(x) == vb
    assert op(a, b).evaluate(x) == op(va, vb)
