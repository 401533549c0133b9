"""Words in the free monoid on p_0..p_n and noncommutative polynomials.

A word is a tuple of generator indices; the empty tuple is the unit of the
free monoid.  Words are compared degree first, ties broken lexicographically
with p_0 < p_1 < ... < p_n, which is a total, multiplicative, well-founded
order, so leading words of nonzero polynomials are well defined and
rewriting terminates.

`encode_word` and `decode_word` own the one other encoding of a word: a
`str` with one code point per letter, so letters must lie below 0x110000.
A `str` slices, concatenates, hashes and searches (`str.find`) cheaply and
compares by code point, so the deg-lex order is the same on both
encodings.  Completion and the free-pair check work on it.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Tuple

__all__ = [
    "Word",
    "word_key",
    "encode_word",
    "decode_word",
    "format_word",
    "parse_word",
    "NcPolynomial",
]

Word = Tuple[int, ...]


def word_key(w: Word):
    """Sort key realising the degree-lexicographic order."""
    return (len(w), w)


def encode_word(w: Word) -> str:
    """The word as a `str`, one code point per letter.

    Raises ValueError naming the first letter outside 0..0x10FFFF.
    """
    try:
        return "".join(map(chr, w))
    except (ValueError, OverflowError):
        bad = next(a for a in w if not 0 <= a <= 0x10FFFF)
        raise ValueError(f"letter {bad} of word {tuple(w)} lies outside 0..0x10FFFF") from None


def decode_word(s: str) -> Word:
    """The tuple word that `encode_word` encoded as s."""
    return tuple(map(ord, s))


def format_word(w: Word) -> str:
    if not w:
        return "1"
    return " ".join(f"p{i}" for i in w)


def parse_word(text: str) -> Word:
    """Parse a comma-separated list of generator indices, e.g. ``0,1,2``."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"malformed word {text!r}: expected comma-separated indices")


class NcPolynomial:
    """Finite scalar combination of words, with no zero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, object] | Iterable[tuple[Word, object]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self.terms = {w: c for w, c in items if c}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def leading_word(self) -> Word:
        if not self.terms:
            raise ValueError("zero polynomial has no leading word")
        return max(self.terms, key=word_key)

    def leading_coefficient(self):
        return self.terms[self.leading_word()]

    def sorted_terms(self):
        """Terms in descending monomial order (leading term first)."""
        return sorted(self.terms.items(), key=lambda it: word_key(it[0]), reverse=True)

    def monic(self) -> "NcPolynomial":
        if not self.terms:
            return self
        lc = self.leading_coefficient()
        if lc == 1:
            return self
        return NcPolynomial({w: c / lc for w, c in self.terms.items()})

    def scale(self, coeff) -> "NcPolynomial":
        if not coeff:
            return NcPolynomial()
        return NcPolynomial({w: c * coeff for w, c in self.terms.items()})

    def __add__(self, other: "NcPolynomial") -> "NcPolynomial":
        out = dict(self.terms)
        for w, c in other.terms.items():
            acc = out.get(w)
            if acc is None:
                out[w] = c
            else:
                acc = acc + c
                if acc:
                    out[w] = acc
                else:
                    del out[w]
        return NcPolynomial(out)

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        return self + (-other)

    def __neg__(self) -> "NcPolynomial":
        return NcPolynomial({w: -c for w, c in self.terms.items()})

    def __mul__(self, other: "NcPolynomial") -> "NcPolynomial":
        out: dict[Word, object] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                w = wa + wb
                c = ca * cb
                acc = out.get(w)
                out[w] = c if acc is None else acc + c
        return NcPolynomial(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return False
        return all(other.terms[w] == c for w, c in self.terms.items())

    def __hash__(self):
        return hash(frozenset((w, str(c)) for w, c in self.terms.items()))

    def __repr__(self) -> str:
        return f"NcPolynomial({self.format()!r})"

    def format(self) -> str:
        """Plain-text rendering, leading term first: ``word {+|-} coeff*word ...``."""
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            cs = str(c)
            negative = cs.startswith("-")
            if negative:
                cs = cs[1:]
            if " " in cs:
                cs = f"({cs})"
            body = format_word(w) if cs == "1" else f"{cs}*{format_word(w)}"
            if not parts:
                parts.append(body if not negative else f"-{body}")
            else:
                parts.append(("- " if negative else "+ ") + body)
        return " ".join(parts)
