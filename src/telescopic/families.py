"""Integrand families F(n, x) = x^n (1-x)^n / Q(x)^(n+1) on the interval [0, 1].

The identity under study compares two such families built from a
parameter pair a > b > 0:

    left:   Q = (x+a)(x+b)
    right:  Q = (a-b)x + (a+1)b

A family is its denominator Q.  Read as F(n, x) = c(x) * r(x)^n it has
cofactor c = 1/Q and ratio r = x(1-x)/Q, so r vanishes at both
endpoints (certificate boundary terms vanish) by construction.  The one
property checked at construction is that Q has no root in [0, 1] (the
integrals converge).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .polynomials import Poly, _to_fraction, has_root_in_unit_interval
from .ratfuncs import RatFunc


@dataclass(frozen=True)
class ParameterPair:
    """The parameters (a, b) of the identity, with a > b > 0."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _to_fraction(self.a))
        object.__setattr__(self, "b", _to_fraction(self.b))
        if not (self.a > self.b > 0):
            raise ValueError(
                f"parameters require a > b > 0, got a={self.a}, b={self.b}"
            )

    def __str__(self) -> str:
        return f"(a={self.a}, b={self.b})"


@dataclass(frozen=True)
class IntegrandFamily:
    """F(n, x) = x^n (1-x)^n / den(x)^(n+1), integrated over [0, 1]."""

    den: Poly

    def __post_init__(self):
        # the zero polynomial vanishes at 0, so this also rejects den = 0
        if has_root_in_unit_interval(self.den):
            raise ValueError(
                f"denominator {self.den} has a root in [0, 1]; "
                "the integrals would diverge"
            )

    @cached_property
    def cofactor(self) -> RatFunc:  # c = 1/den
        return RatFunc(Poly.one(), self.den)

    @cached_property
    def ratio(self) -> RatFunc:  # r = x(1-x)/den
        return RatFunc(Poly([0, 1, -1]), self.den)

    def at(self, n: int) -> RatFunc:
        """The concrete integrand F(n, x) = c(x) * r(x)^n for one n."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        # den(0), den(1) != 0, so den shares no factor with x(1-x), and a power
        # of the monic cofactor.den is monic: already in lowest terms, no gcd.
        c, r = self.cofactor, self.ratio
        return RatFunc._reduced(r.num**n * c.num, c.den ** (n + 1))


def make_left_family(params: ParameterPair) -> IntegrandFamily:
    """The family of x^n (1-x)^n / ((x+a)(x+b))^{n+1}."""
    a, b = params.a, params.b
    return IntegrandFamily(Poly([a * b, a + b, 1]))  # (x+a)(x+b)


def make_right_family(params: ParameterPair) -> IntegrandFamily:
    """The family of x^n (1-x)^n / ((a-b)x + (a+1)b)^{n+1}."""
    a, b = params.a, params.b
    return IntegrandFamily(Poly([(a + 1) * b, a - b]))
