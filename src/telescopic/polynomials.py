"""Dense univariate polynomials over exact rationals, stored as integers.

A polynomial a_0 + a_1 x + ... + a_n x^n is stored as a tuple of Python
ints (c_0, c_1, ..., c_n), ascending in degree, over one positive int
denominator d, with a_i = c_i / d.  The form is canonical: c_n != 0 (the
zero polynomial is the empty tuple over d = 1), and the gcd of the c_i
is coprime to d, which makes d the lcm of the reduced denominators of
the a_i.  So equality and hashing compare (c, d) structurally.  The
``coeffs`` property builds the Fraction coefficients on access, for
display and encoding; no arithmetic goes through it.  Values are
immutable and hashable, so they are safe to share between threads.

Every operation works on the integers.  Sums bring both operands over
the lcm of the denominators; products and powers are integer
convolutions; division is integer pseudo-division, each step scaled by
lead / gcd(top, lead) rather than by the whole lead; evaluation at u/v
is a Horner scheme on sum c_i u^i v^(n-i), with one Fraction at the
end.  The Taylor shift by u/v uses  v^n f(x + u/v) = g(vx + u)  for the
integer polynomial  g(y) = sum c_i v^(n-i) y^i  (von zur Gathen and
Gerhard, 1997): g is shifted by the integer u with Horner steps, and
coefficient i is scaled by v^i over the denominator d v^n.  The monic
GCD is Euclid on the remainders of the pseudo-division above, each
made primitive, so the module has one pseudo-division.  Roots in [0, 1]
are counted by a Sturm chain unless signs exclude them: if p(0) != 0 and
no two nonzero coefficients differ in sign, |p(x)| >= |p(0)| on [0, inf),
as for the paper's denominators and their powers when a > b > 0.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add, mul
from typing import Iterable, Iterator, Union

Scalar = Union[Fraction, int]


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """Coefficients of the product of two nonzero integer polynomials:
    one shifted multiply-add of the longer operand per coefficient of the
    shorter, each running in C through map."""
    if len(a) < len(b):
        a, b = b, a
    la, lb = len(a), len(b)
    out = [c * b[0] for c in a]
    out += [0] * (lb - 1)
    for j in range(1, lb):
        out[j : j + la] = map(add, out[j : j + la], map(mul, a, itertools.repeat(b[j])))
    return out


class Poly:
    """Dense univariate polynomial over Q: integers over one denominator."""

    __slots__ = ("_ints", "_den")

    _ints: tuple[int, ...]
    _den: int

    def __init__(self, coefficients: Iterable = ()):
        values = [_to_fraction(c) for c in coefficients]
        while values and values[-1] == 0:
            values.pop()
        # over the lcm of the reduced denominators, the integers' gcd is coprime to it
        den = math.lcm(*(c.denominator for c in values))
        ints = tuple(c.numerator * (den // c.denominator) for c in values)
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _of(cls, ints: tuple[int, ...], den: int) -> "Poly":
        """ints / den for a pair already in canonical form."""
        p = object.__new__(cls)
        object.__setattr__(p, "_ints", ints)
        object.__setattr__(p, "_den", den)
        return p

    @classmethod
    def _reduce(cls, ints: list[int], den: int) -> "Poly":
        """ints / den for any nonzero den, brought to canonical form."""
        while ints and not ints[-1]:
            ints.pop()
        if not ints:
            return _ZERO
        if den < 0:
            ints, den = [-c for c in ints], -den
        if den > 1:
            g = math.gcd(den, *ints)  # den first: gcd skips the rest once it is 1
            if g > 1:
                ints, den = [c // g for c in ints], den // g
        return cls._of(tuple(ints), den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending in degree; built on access."""
        den = self._den
        return tuple(Fraction(c, den) for c in self._ints)

    @classmethod
    def zero(cls) -> "Poly":
        return _ZERO

    @classmethod
    def one(cls) -> "Poly":
        return _ONE

    @classmethod
    def constant(cls, value: Scalar) -> "Poly":
        return cls((value,))

    @classmethod
    def from_roots(cls, roots: Iterable[Scalar]) -> "Poly":
        """Monic polynomial with the given rational roots."""
        p = cls.one()
        for r in roots:
            p = p * cls((-_to_fraction(r), 1))
        return p

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._ints

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._ints) - 1

    def leading_coefficient(self) -> Fraction:
        if not self._ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._ints[-1], self._den)

    def __getitem__(self, exponent: int) -> Fraction:
        if 0 <= exponent < len(self._ints):
            return Fraction(self._ints[exponent], self._den)
        return Fraction(0)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self._ints)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._ints == other._ints and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Poly", self._ints, self._den))

    def __bool__(self) -> bool:
        return bool(self._ints)

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
        a, da, b, db = self._ints, self._den, other._ints, other._den
        if da != db:
            g = math.gcd(da, db)
            a = [c * (db // g) for c in a]
            b = [c * (da // g) for c in b]
            da = da // g * db
        total = [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)]
        return Poly._reduce(total, da)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of(tuple(-c for c in self._ints), self._den)

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
        a, da, b, db = self._ints, self._den, other._ints, other._den
        if not a or not b:
            return _ZERO
        # each operand's gcd is coprime to its own denominator, so the
        # product's common factor is gcd(a, db) * gcd(b, da): cancel it first
        if db > 1 and (g := math.gcd(db, *a)) > 1:
            a, db = [c // g for c in a], db // g
        if da > 1 and (g := math.gcd(da, *b)) > 1:
            b, da = [c // g for c in b], da // g
        return Poly._of(tuple(_convolve(a, b)), da * db)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = None
        base = self
        while exponent:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if exponent:  # square only while bits remain
                base = base * base
        return Poly.one() if result is None else result

    def __divmod__(self, other) -> tuple["Poly", "Poly"]:
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        b = other._ints
        d = len(b) - 1
        steps = len(self._ints) - d
        if steps <= 0:
            return _ZERO, self
        # pseudo-division over the integers, M * a = quot * b + rem: each step
        # scales the remainder, and the quotient found so far, by m = lead / g
        # with g = gcd(top, lead), so M stays as small as the tops allow
        lead = b[-1]
        rem = list(self._ints)
        tops, mults = [], []
        for k in range(steps - 1, -1, -1):
            top = rem.pop()
            g = math.gcd(top, lead)
            m, top = lead // g, top // g
            if m != 1:
                rem = [c * m for c in rem]
            if top:
                for j in range(d):
                    rem[k + j] -= top * b[j]
            tops.append(top)
            mults.append(m)
        quot, scale = [], 1
        for top, m in zip(reversed(tops), reversed(mults)):  # x^k was scaled by later steps
            quot.append(top * scale * other._den)
            scale *= m
        den = scale * self._den
        return Poly._reduce(quot, den), Poly._reduce(rem, den)

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
        return Poly._reduce([i * c for i, c in enumerate(self._ints) if i], self._den)

    def __call__(self, point: Scalar) -> Fraction:
        if isinstance(point, int):
            u, v = point, 1
        else:
            point = _to_fraction(point)
            u, v = point.numerator, point.denominator
        acc, scale = self._horner(u, v)
        return Fraction(acc, self._den * scale)

    def _horner(self, u: int, v: int) -> tuple[int, int]:
        """(sum c_i u^i v^(n-i), v^n) for the stored integers c_i, so that
        self(u/v) is the first over the second times the denominator."""
        ints = self._ints
        if not ints:
            return 0, 1
        acc, scale = ints[-1], 1  # scale is v^(n - i) at coefficient i
        for c in reversed(ints[:-1]):
            scale *= v
            acc = acc * u + c * scale
        return acc, scale

    def shift(self, offset: Scalar) -> "Poly":
        """Taylor shift t -> self(t + offset), in integers (module docstring)."""
        offset = _to_fraction(offset)
        u, v = offset.numerator, offset.denominator
        n = len(self._ints) - 1
        if u == 0 or n < 1:
            return self
        g = list(self._ints)
        scale = 1
        for i in range(n - 1, -1, -1):
            scale *= v
            g[i] *= scale
        for i in range(n):  # after pass i, g[i] is final
            acc = g[n]
            for j in range(n - 1, i - 1, -1):
                acc = g[j] = g[j] + u * acc
        scale = 1
        for i in range(1, n + 1):
            scale *= v
            g[i] *= scale
        return Poly._reduce(g, self._den * scale)

    # -- normal forms ------------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        lead = self._ints[-1]
        if lead == self._den:
            return self
        return Poly._reduce(list(self._ints), lead)

    def content(self) -> Fraction:
        """Rational content: gcd of numerators over lcm of denominators.

        content(0) = 0; for p != 0, p / content(p) has coprime integer
        coefficients.
        """
        return Fraction(math.gcd(*self._ints), self._den)

    # -- display -----------------------------------------------------------

    def to_str(self, var: str = "x") -> str:
        if self.is_zero():
            return "0"
        coeffs = self.coeffs
        parts = []
        for e in range(self.degree(), -1, -1):
            c = coeffs[e]
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


_ZERO = Poly._of((), 1)
_ONE = Poly._of((1,), 1)


# -- gcd machinery ---------------------------------------------------------


def _int_primitive(a: list[int]) -> list[int]:
    g = math.gcd(*a)
    return [v // g for v in a] if g > 1 else a


def _primitive(p: Poly) -> Poly:
    """The integer polynomial p / content(p); zero stays zero."""
    return Poly._of(tuple(_int_primitive(list(p._ints))), 1)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor: Euclid on Poly remainders, each
    made primitive (controls coefficient growth).

    gcd(p, 0) = monic(p); gcd(0, 0) is an error.
    """
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while q:
        p, q = q, _primitive(p % q)
    return p.monic()


def sturm_root_count(p: Poly, lo: Scalar, hi: Scalar) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi],
    for lo <= hi.

    Standard Sturm chain on the squarefree part; exact over Fraction.
    """
    if p.is_zero():
        raise ValueError("root count of the zero polynomial")
    lo = _to_fraction(lo)
    hi = _to_fraction(hi)
    if lo > hi:
        raise ValueError(f"root count over (lo, hi] needs lo <= hi, not {lo} > {hi}")
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
    """Whether p has a real root in [0, 1]: by signs, else by Sturm (module docstring)."""
    ints = p._ints
    if not ints or ints[0] == 0:
        return True
    return min(ints) < 0 < max(ints) and sturm_root_count(p, 0, 1) > 0
