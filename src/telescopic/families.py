"""Integrand families F(n, x) = x^n (1-x)^n / Q(x)^(n+1) on the interval [0, 1].

The identity under study compares two such families built from a
parameter pair a > b > 0:

    left:   Q = (x+a)(x+b)
    right:  Q = (a-b)x + (a+1)b

A family is its denominator Q.  Read as F(n, x) = c(x) * r(x)^n it has
cofactor c = 1/Q and ratio r = x(1-x)/Q, so r vanishes at both
endpoints (certificate boundary terms vanish) by construction.  The one
property checked at construction is that Q has no root in [0, 1] (the
integrals converge), so c, r and each F(n, x) are in lowest terms as built.

IntegrandFamily.integrals yields the exact integrals I(0), I(1), ... from
one pass of the integration module's family loop over Q: the roots of
Q and their factored logs are found once, and each member's principal
parts are the Taylor coefficients of one integer series per root, which
satisfy a short linear recurrence: O(m(n+1)) integer products for a root
of multiplicity m, where a series division would take O(m^2 (n+1)^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterator

from .integration import LogCombination, _family_integrals
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

    # den(0) den(1) != 0, so den shares no factor with 1 or x(1-x): made
    # monic, it is the denominator of both parts, with no gcd
    @cached_property
    def cofactor(self) -> RatFunc:  # c = 1/den
        lead = self.den.leading_coefficient()
        return RatFunc._reduced(Poly.constant(1 / lead), self.den.monic())

    @cached_property
    def ratio(self) -> RatFunc:  # r = x(1-x)/den
        return RatFunc._reduced(Poly([0, 1, -1]) * self.cofactor.num, self.cofactor.den)

    def at(self, n: int) -> RatFunc:
        """The concrete integrand F(n, x) = c(x) * r(x)^n for one n."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        # coprime as the parts are, and a power of the monic den is monic: no gcd
        c, r = self.cofactor, self.ratio
        return RatFunc._reduced(r.num**n * c.num, c.den ** (n + 1))

    def integrals(self) -> Iterator[LogCombination]:
        """The exact integrals I(n) of F(n, x) over [0, 1], for n = 0, 1, 2, ...,
        each equal to integrate_01(self.at(n)), in one lazy pass (see
        integration._family_integrals)."""
        return _family_integrals(self.den)


def make_left_family(params: ParameterPair) -> IntegrandFamily:
    """The family of x^n (1-x)^n / ((x+a)(x+b))^{n+1}."""
    a, b = params.a, params.b
    return IntegrandFamily(Poly([a * b, a + b, 1]))  # (x+a)(x+b)


def make_right_family(params: ParameterPair) -> IntegrandFamily:
    """The family of x^n (1-x)^n / ((a-b)x + (a+1)b)^{n+1}."""
    a, b = params.a, params.b
    return IntegrandFamily(Poly([(a + 1) * b, a - b]))
