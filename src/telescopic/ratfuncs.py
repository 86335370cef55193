"""Univariate rational functions over exact rationals, in canonical form.

A value num/den is kept with gcd(num, den) = 1 and den monic, so two
rational functions are equal iff their (num, den) pairs are equal.
Field arithmetic, differentiation, composition, and exact evaluation
are provided; evaluating at a pole raises ``PoleError``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PoleError
from .polynomials import Poly, Scalar, _to_fraction, poly_gcd


class RatFunc:
    """Quotient of two Poly values, reduced and with monic denominator."""

    __slots__ = ("num", "den")

    num: Poly
    den: Poly

    def __init__(self, num, den=Poly.one()):
        if not isinstance(num, Poly):
            num = Poly.constant(num) if isinstance(num, (int, Fraction)) else Poly(num)
        if not isinstance(den, Poly):
            den = Poly.constant(den) if isinstance(den, (int, Fraction)) else Poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly.zero(), Poly.one()
        else:
            g = poly_gcd(num, den)
            if g.degree() > 0:
                num, den = num.exact_div(g), den.exact_div(g)
            lead = den.leading_coefficient()
            if lead != 1:
                num, den = num * (1 / lead), den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(Poly.zero())

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(Poly.one())

    @classmethod
    def _reduced(cls, num: Poly, den: Poly) -> "RatFunc":
        """num/den with no gcd, for a pair the caller knows is canonical."""
        f = object.__new__(cls)
        object.__setattr__(f, "num", num)
        object.__setattr__(f, "den", den)
        return f

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == Poly.one()

    def __eq__(self, other) -> bool:
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash(("RatFunc", self.num, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- field arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc(Poly.constant(other))
        return None

    def __add__(self, other) -> "RatFunc":
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatFunc":
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RatFunc":
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int) -> "RatFunc":
        if exponent < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den**-exponent, self.num**-exponent)
        # powers of a coprime pair stay coprime, and of a monic den monic
        return RatFunc._reduced(self.num**exponent, self.den**exponent)

    # -- calculus and evaluation ----------------------------------------------

    def derivative(self) -> "RatFunc":
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __call__(self, point: Scalar) -> Fraction:
        point = _to_fraction(point)
        d = self.den(point)
        if d == 0:
            raise PoleError(f"evaluation at pole x = {point}")
        return self.num(point) / d

    def compose(self, inner: "RatFunc | Poly") -> "RatFunc":
        """self(inner(x)); raises if inner maps into a pole identically."""
        if isinstance(inner, Poly):
            inner = RatFunc(inner)
        num_acc = RatFunc.zero()
        for c in reversed(self.num.coeffs):
            num_acc = num_acc * inner + c
        den_acc = RatFunc.zero()
        for c in reversed(self.den.coeffs):
            den_acc = den_acc * inner + c
        if den_acc.is_zero():
            raise ZeroDivisionError("composition lands identically on a pole")
        return num_acc / den_acc

    # -- display -----------------------------------------------------------------

    def to_str(self) -> str:
        if self.is_polynomial():
            return self.num.to_str()
        return f"({self.num.to_str()})/({self.den.to_str()})"

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"
