"""Exact scalar arithmetic over the field Q(t) of rational functions.

The deformation parameter t enters every Temperley-Lieb-type relation, so
coefficients of noncommutative polynomials live either in Q(t) (symbolic
mode) or in Q itself (t specialised to a rational number, in which case
plain :class:`fractions.Fraction` values are used).  Completion itself
runs on (sign, t-exponent) tags, so Q(t) arithmetic happens only where
rules are rendered and where `reduce` carries a coefficient.

A `RationalFunction` holds its numerator and denominator as tuples of
`Fraction` coefficients, lowest degree first with no trailing zeros (so
zero is the empty tuple).  It is kept in lowest terms with a monic
denominator, which makes equality and zero tests structural and exact.
The polynomial arithmetic is a handful of private functions on those
tuples; each skips work where it can (equal denominators add without
cross-multiplying, the gcd runs only when both parts have positive
degree, a monic denominator is not rescaled, and zero coefficients are
not multiplied out).
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["RationalFunction", "T"]

_F0 = Fraction(0)
_ONE = (Fraction(1),)


def _trim(cs) -> tuple:
    """The coefficients cs as a tuple without trailing zeros."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def _add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    # Leading coefficients multiply to a nonzero one, so nothing needs trimming.
    out = [_F0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)


def _divmod(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """Quotient and remainder of a by a nonzero b."""
    rem = list(a)
    db, lc = len(b) - 1, b[-1]
    quot = [_F0] * max(len(a) - db, 0)
    for k in range(len(a) - 1, db - 1, -1):
        c = rem[k]
        if c:
            q = quot[k - db] = c / lc
            for i, bc in enumerate(b):
                rem[k - db + i] -= q * bc
    return _trim(quot), _trim(rem[:db])


def _str(cs: tuple) -> str:
    parts = []
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if not c:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            tk = "t" if k == 1 else f"t^{k}"
            body = tk if abs(c) == 1 else f"{abs(c)}*{tk}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


def _coeffs(x) -> tuple:
    """Coefficients of an int, a `Fraction`, or a list or tuple of them."""
    cs = x if isinstance(x, (list, tuple)) else (x,)
    if not all(isinstance(c, (int, Fraction)) for c in cs):
        raise TypeError(f"coefficients must be int or Fraction, got {x!r}")
    return _trim([Fraction(c) for c in cs])


def _lowest_terms(num: tuple, den: tuple) -> tuple[tuple, tuple]:
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    if not num:
        return (), _ONE
    if len(num) > 1 and len(den) > 1:
        g, r = num, den
        while r:
            g, r = r, _divmod(g, r)[1]
        if len(g) > 1:
            num, den = _divmod(num, g)[0], _divmod(den, g)[0]
    lc = den[-1]
    if lc != 1:
        num, den = tuple(c / lc for c in num), tuple(c / lc for c in den)
    return num, den


def _new(num: tuple, den: tuple) -> "RationalFunction":
    """num/den from trimmed `Fraction` tuples, which are taken as they are."""
    r = object.__new__(RationalFunction)
    r.num, r.den = _lowest_terms(num, den)
    return r


class RationalFunction:
    """Element of Q(t), kept in lowest terms with monic denominator.

    ``RationalFunction(num, den)`` takes each part as an int, a `Fraction`,
    or a list or tuple of coefficients, lowest degree first.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        self.num, self.den = _lowest_terms(_coeffs(num), _coeffs(den))

    @classmethod
    def t(cls) -> "RationalFunction":
        return cls((0, 1))

    def __bool__(self) -> bool:
        return bool(self.num)

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return _new((Fraction(other),) if other else (), _ONE)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return _new(_add(self.num, o.num), self.den)
        return _new(_add(_mul(self.num, o.den), _mul(o.num, self.den)), _mul(self.den, o.den))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _new(_mul(self.num, o.num), _mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _new(_mul(self.num, o.den), _mul(self.den, o.num))  # refuses a zero o

    def __rtruediv__(self, other):
        return _new(self.den, self.num) * other  # refuses a zero self

    def __neg__(self):
        return _new(tuple(-c for c in self.num), self.den)

    def __pow__(self, k: int):
        if k < 0:
            return _new(self.den, self.num) ** -k  # refuses a zero self
        out = _new(_ONE, _ONE)
        for _ in range(k):
            out *= self
        return out

    def evaluate(self, value: Fraction) -> Fraction:
        num, den = (sum(c * value ** k for k, c in enumerate(cs)) for cs in (self.num, self.den))
        if not den:
            raise ZeroDivisionError(f"denominator vanishes at t={value}")
        return num / den

    def _constant(self):
        """The value of a constant, else None."""
        if len(self.num) <= 1 and len(self.den) == 1:  # a monic constant denominator is 1
            return self.num[0] if self.num else _F0
        return None

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self._constant() == other
        return NotImplemented

    def __hash__(self):
        # A constant equals its value, so it hashes as its value.
        c = self._constant()
        return hash((self.num, self.den)) if c is None else hash(c)

    def __repr__(self) -> str:
        return f"RationalFunction({list(self.num)!r}, {list(self.den)!r})"

    def __str__(self) -> str:
        num, den = _str(self.num), _str(self.den)
        if den == "1":
            return num
        if " " in num:
            num = f"({num})"
        if " " in den:
            den = f"({den})"
        return f"{num}/{den}"


T = RationalFunction.t()
