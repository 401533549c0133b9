"""Exact scalar arithmetic over the field Q(t) of rational functions.

The deformation parameter t enters every Temperley-Lieb-type relation, so
coefficients of noncommutative polynomials live either in Q(t) (symbolic
mode) or in Q itself (t specialised to a rational number, in which case
plain :class:`fractions.Fraction` values are used).  Rational functions are
stored in lowest terms with a monic denominator, which makes equality and
zero tests structural and exact.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["Polynomial", "RationalFunction", "T"]


class Polynomial:
    """Dense univariate polynomial in t over Q.

    Coefficients are stored lowest degree first with no trailing zeros, so
    the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, value) -> "Polynomial":
        return cls((Fraction(value),))

    @classmethod
    def variable(cls) -> "Polynomial":
        return cls((Fraction(0), Fraction(1)))

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1]

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_term(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Polynomial(out)

    def scale(self, q: Fraction) -> "Polynomial":
        return Polynomial(tuple(c * q for c in self.coeffs))

    def __divmod__(self, other: "Polynomial"):
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = other.degree
        lc = other.coeffs[-1]
        if len(rem) - 1 < dn:
            return _P_ZERO, Polynomial(rem)
        quot = [Fraction(0)] * (len(rem) - dn)
        for k in range(len(rem) - 1, dn - 1, -1):
            c = rem[k]
            if not c:
                continue
            q = c / lc
            quot[k - dn] = q
            for i, oc in enumerate(other.coeffs):
                rem[k - dn + i] -= q * oc
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def monic(self) -> "Polynomial":
        lc = self.coeffs[-1]
        if lc == 1:
            return self
        return self.scale(1 / lc)

    @staticmethod
    def gcd(a: "Polynomial", b: "Polynomial") -> "Polynomial":
        while b:
            a, b = b, a % b
        return a.monic()

    def evaluate(self, value: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_term() == other
        return NotImplemented

    def __hash__(self):
        # A constant equals its value, so it hashes as its value.
        return hash(self.constant_term()) if self.is_constant() else hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
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
        return " ".join(parts)


_P_ZERO = Polynomial()
_P_ONE = Polynomial((Fraction(1),))


class RationalFunction:
    """Element of Q(t), kept in lowest terms with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den: Polynomial = _P_ONE):
        if not isinstance(num, Polynomial):
            num = Polynomial.constant(num) if num else _P_ZERO
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            self.num, self.den = _P_ZERO, _P_ONE
            return
        # Reduce to lowest terms; a genuine gcd is needed only when both
        # parts are non-constant.
        if not num.is_constant() and not den.is_constant():
            g = Polynomial.gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
        lc = den.leading_coefficient()
        if lc != 1:
            inv = 1 / lc
            num, den = num.scale(inv), den.scale(inv)
        self.num, self.den = num, den

    @classmethod
    def t(cls) -> "RationalFunction":
        return cls(Polynomial.variable())

    def __bool__(self) -> bool:
        return bool(self.num)

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return RationalFunction(self.num + o.num, self.den)
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.den, self.den * o.num)  # __init__ refuses a zero o

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __pow__(self, k: int):
        if k < 0:
            return RationalFunction(1) / self ** (-k)
        out = RationalFunction(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def evaluate(self, value: Fraction) -> Fraction:
        den = self.den.evaluate(value)
        if not den:
            raise ZeroDivisionError(f"denominator vanishes at t={value}")
        return self.num.evaluate(value) / den

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction, Polynomial)):
            return self.den == _P_ONE and self.num == other
        return NotImplemented

    def __hash__(self):
        # With denominator 1 it equals its numerator, so it hashes as its numerator.
        return hash(self.num) if self.den == _P_ONE else hash((self.num.coeffs, self.den.coeffs))

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        if self.den == _P_ONE:
            return str(self.num)
        num = str(self.num)
        den = str(self.den)
        if " " in num:
            num = f"({num})"
        if " " in den:
            den = f"({den})"
        return f"{num}/{den}"


T = RationalFunction.t()

