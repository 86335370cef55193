"""Dense univariate polynomials over exact rationals.

A polynomial a_0 + a_1 x + ... + a_n x^n is stored as the coefficient
tuple (a_0, a_1, ..., a_n) of ``fractions.Fraction`` values, ascending in
degree.  The leading coefficient is nonzero; the zero polynomial is the
empty tuple.  Values are immutable and hashable, so they are safe to
share between threads.

The usual ring operators are overloaded, together with divmod (exact
Euclidean division), evaluation via call syntax, differentiation,
Taylor shift, and a monic GCD computed by a primitive pseudo-remainder
sequence over the integers to keep intermediate coefficients small.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

Scalar = Union[Fraction, int]


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Poly:
    """Dense univariate polynomial over Fraction, canonical form."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coefficients: Iterable = ()):
        coeffs = [_to_fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def constant(cls, value: Scalar) -> "Poly":
        return cls((value,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, coefficient: Scalar, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return cls((0,) * exponent + (coefficient,))

    @classmethod
    def from_roots(cls, roots: Iterable[Scalar]) -> "Poly":
        """Monic polynomial with the given rational roots."""
        p = cls.one()
        for r in roots:
            p = p * cls((-_to_fraction(r), 1))
        return p

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, exponent: int) -> Fraction:
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return Fraction(0)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Poly", self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring arithmetic -------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(other)
        return None

    def __add__(self, other) -> "Poly":
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return Poly(
            x + y for x, y in itertools.zip_longest(a, b, fillvalue=Fraction(0))
        )

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other) -> "Poly":
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other) -> tuple["Poly", "Poly"]:
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 1)
        rem = list(self.coeffs)
        d = other.degree()
        lead = other.leading_coefficient()
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            shift = len(rem) - 1 - d
            factor = rem[-1] / lead
            q[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
            rem.pop()
        return Poly(q), Poly(rem)

    def __floordiv__(self, other) -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Poly":
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        """Quotient when ``other`` divides self exactly; raises otherwise."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("exact_div with nonzero remainder")
        return q

    # -- calculus and evaluation -----------------------------------------

    def derivative(self) -> "Poly":
        return Poly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def __call__(self, point: Scalar) -> Fraction:
        point = _to_fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def shift(self, offset: Scalar) -> "Poly":
        """Taylor shift t -> self(t + offset), by repeated synthetic division."""
        offset = _to_fraction(offset)
        c = list(self.coeffs)
        for i in range(len(c) - 1):
            for j in range(len(c) - 2, i - 1, -1):
                c[j] += offset * c[j + 1]
        return Poly(c)

    # -- normal forms ------------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        lead = self.leading_coefficient()
        if lead == 1:
            return self
        return Poly(c / lead for c in self.coeffs)

    def content(self) -> Fraction:
        """Rational content: gcd of numerators over lcm of denominators.

        content(0) = 0; for p != 0, p / content(p) has coprime integer
        coefficients.
        """
        if self.is_zero():
            return Fraction(0)
        num = 0
        den = 1
        for c in self.coeffs:
            num = math.gcd(num, abs(c.numerator))
            den = den * c.denominator // math.gcd(den, c.denominator)
        return Fraction(num, den)

    # -- display -----------------------------------------------------------

    def to_str(self, var: str = "x") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e in range(self.degree(), -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = f"{mag}"
            else:
                head = "" if mag == 1 else f"{mag}*"
                body = f"{head}{var}" + (f"^{e}" if e > 1 else "")
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"


# -- gcd machinery ---------------------------------------------------------


def _int_coeffs(coeffs: Sequence[Scalar]) -> list[int]:
    """The primitive integer vector proportional to coeffs, signs kept."""
    scale = 1
    for c in coeffs:
        scale = scale * c.denominator // math.gcd(scale, c.denominator)
    return _int_primitive([int(c * scale) for c in coeffs])


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    # pseudo-remainder of integer coefficient lists, ascending degree
    a = a[:]
    db = len(b) - 1
    lead_b = b[-1]
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        shift = len(a) - 1 - db
        lead_a = a[-1]
        a = [c * lead_b for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= lead_a * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _int_primitive(a: list[int]) -> list[int]:
    g = math.gcd(*a)
    return [v // g for v in a] if g > 1 else a


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor via a primitive pseudo-remainder
    sequence on integer coefficients (controls coefficient growth).

    gcd(p, 0) = monic(p); gcd(0, 0) is an error.
    """
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    a, b = _int_coeffs(p.coeffs), _int_coeffs(q.coeffs)
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _int_prem(a, b)
        if not r:
            break
        a, b = b, _int_primitive(r)
    return Poly(b).monic()


def sturm_root_count(p: Poly, lo: Scalar, hi: Scalar) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    Standard Sturm chain on the squarefree part; exact over Fraction.
    """
    if p.is_zero():
        raise ValueError("root count of the zero polynomial")
    if p.degree() == 0:
        return 0
    lo = _to_fraction(lo)
    hi = _to_fraction(hi)
    chain = [p.exact_div(poly_gcd(p, p.derivative()))]
    chain.append(chain[0].derivative())
    while not chain[-1].is_zero() and chain[-1].degree() > 0:
        chain.append(-(chain[-2] % chain[-1]))
    if chain[-1].is_zero():
        chain.pop()

    def variations(t: Fraction) -> int:
        signs = [v for q in chain if (v := q(t)) != 0]
        return sum(1 for s, u in zip(signs, signs[1:]) if (s < 0) != (u < 0))

    return variations(lo) - variations(hi)


def has_root_in_unit_interval(p: Poly) -> bool:
    """Whether p has a real root in the closed interval [0, 1]."""
    # Sturm counts roots in (0, 1]; x = 0 is checked separately.
    return p(0) == 0 or sturm_root_count(p, 0, 1) > 0
