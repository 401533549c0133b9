from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import compare_words
from tlstar.ncpoly import (
    NcPolynomial,
    decode_word,
    encode_word,
    format_word,
    parse_word,
    word_key,
)
from tlstar.scalars import T


words = st.lists(st.integers(min_value=0, max_value=3), max_size=6).map(tuple)


class TestWordOrder:
    def test_degree_dominates(self):
        assert compare_words((1,), (0, 1)) == -1

    def test_lex_on_equal_degree(self):
        assert compare_words((2, 1), (1, 2)) == 1

    def test_equal(self):
        assert compare_words((1, 0, 1), (1, 0, 1)) == 0

    @given(words, words)
    def test_total_and_antisymmetric(self, a, b):
        c1, c2 = compare_words(a, b), compare_words(b, a)
        assert c1 == -c2
        assert (c1 == 0) == (a == b)

    @given(words, words, words, words)
    def test_multiplicative(self, a, b, left, right):
        if compare_words(a, b) == -1:
            assert compare_words(left + a + right, left + b + right) == -1

    @given(words, words, words)
    def test_transitive(self, a, b, c):
        ordered = sorted([a, b, c], key=word_key)
        assert compare_words(ordered[0], ordered[2]) <= 0


any_letter_words = st.lists(st.integers(min_value=0, max_value=0x10FFFF), max_size=6).map(tuple)


class TestStrEncoding:
    @given(any_letter_words, any_letter_words)
    def test_round_trip_keeps_the_order(self, a, b):
        assert decode_word(encode_word(a)) == a
        assert compare_words(encode_word(a), encode_word(b)) == compare_words(a, b)

    @pytest.mark.parametrize("letter", [-1, 0x110000, 2**64])
    def test_letter_outside_code_points_named(self, letter):
        with pytest.raises(ValueError, match=rf"^letter {letter} of word \(0, {letter}\) lies outside"):
            encode_word((0, letter))


class TestFormatting:
    def test_format_word(self):
        assert format_word(()) == "1"
        assert format_word((1, 0, 2)) == "p1 p0 p2"

    def test_parse_word(self):
        assert parse_word("0,1,2") == (0, 1, 2)
        assert parse_word("") == ()
        with pytest.raises(ValueError):
            parse_word("0,x")

    def test_polynomial_format_leading_first(self):
        p = NcPolynomial({(1, 0, 1): T / T, (1,): -T})
        assert p.format() == "p1 p0 p1 - t*p1"
        q = NcPolynomial({(2, 1): Fraction(1), (1, 2): Fraction(-1)})
        assert q.format() == "p2 p1 - p1 p2"
        assert NcPolynomial().format() == "0"


class TestNcPolynomial:
    def test_zero_coefficients_dropped(self):
        p = NcPolynomial({(1,): Fraction(0), (2,): Fraction(3)})
        assert list(p.terms) == [(2,)]

    def test_leading_term(self):
        p = NcPolynomial({(1,): Fraction(1), (0, 1): Fraction(2), (1, 1): Fraction(5)})
        assert p.leading_word() == (1, 1)
        assert p.leading_coefficient() == 5
        assert p.monic().leading_coefficient() == 1

    def test_leading_word_of_zero_raises(self):
        with pytest.raises(ValueError):
            NcPolynomial().leading_word()

    def test_addition_cancels(self):
        p = NcPolynomial({(1,): Fraction(2)})
        q = NcPolynomial({(1,): Fraction(-2), (2,): Fraction(1)})
        assert (p + q) == NcPolynomial({(2,): Fraction(1)})

    def test_multiplication_concatenates(self):
        p = NcPolynomial({(1,): Fraction(1), (2,): Fraction(1)})
        q = NcPolynomial({(0,): Fraction(1)})
        assert p * q == NcPolynomial({(1, 0): Fraction(1), (2, 0): Fraction(1)})

    def test_noncommutative(self):
        a = NcPolynomial({(1,): Fraction(1)})
        b = NcPolynomial({(2,): Fraction(1)})
        assert a * b != b * a

    def test_scale_and_neg(self):
        p = NcPolynomial({(1,): T})
        assert p.scale(0) == NcPolynomial()
        assert -p == p.scale(-1)

    def test_sub_and_len(self):
        p = NcPolynomial({(1,): Fraction(2), (0, 1): T})
        q = NcPolynomial({(1,): Fraction(2)})
        assert p - q == NcPolynomial({(0, 1): T}) and p - p == NcPolynomial()
        assert (len(p), len(p - q), len(NcPolynomial())) == (2, 1, 0)

    def test_monic_of_zero_is_zero(self):
        assert NcPolynomial().monic() == NcPolynomial()

    def test_not_equal_to_other_types(self):
        assert (NcPolynomial() == 0) is False

    def test_repr_shows_the_format(self):
        assert repr(NcPolynomial({(1, 0, 1): Fraction(1), (1,): -T})) == "NcPolynomial('p1 p0 p1 - t*p1')"
