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

IntegrandFamily.integrals yields the exact integrals I(0), I(1), ... in
one pass: the roots of Q and their factored logs are found once per
family, and the integration kernel reads each member's principal parts
off polynomials that each go from n to n + 1 by one multiplication.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterator

from .integration import (
    LogCombination,
    _integral_value,
    _log_terms,
    _principal_part,
    _split_poles,
)
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

    @cached_property
    def _poles(self) -> list[tuple[Fraction, int, Poly, int, list[tuple[int, int]]]]:
        """(root, multiplicity, den(y + root), gap, factored log((1-root)/(-root)))
        for each root of the monic den: the n-free data of every integral."""
        return [
            (root, mult, shifted, gap, _log_terms((1 - root) / -root))
            for root, mult, shifted, gap in _split_poles(self.cofactor.den)
        ]

    def integrals(self) -> Iterator[LogCombination]:
        """The exact integrals I(n) of F(n, x) over [0, 1], for n = 0, 1, 2, ...

        Equal to integrate_01(self.at(n)), from data found once: den^(n+1)
        has the roots of den, with multiplicities m(n+1), and its shift at
        a root is den(y + root)^(n+1).  A principal part of order m(n+1)
        reads its numerator only modulo y^(m(n+1)), so the numerator can be
        c.num(y + root) * r.num(y + root)^n rather than the shifted remainder
        of the division.  Every polynomial goes from n to n+1 by one
        multiplication by an n-free one.
        """
        c, r = self.cofactor, self.ratio
        poles = self._poles
        logs = {root: terms for root, _, _, _, terms in poles}
        steps = [r.num.shift(root) for root, _, _, _, _ in poles]
        powers = [shifted for _, _, shifted, _, _ in poles]  # den(y + root)^(n+1)
        numers = [c.num] * len(poles)  # c.num is constant: c.num * steps^n
        num, den = c.num, c.den
        # num = c.num * r.num^n has degree 2n and den = c.den^(n+1) degree
        # (n+1) deg(c.den), so once deg(c.den) >= 2 the polynomial part stays 0
        has_polynomial_part = r.num.degree() > den.degree()
        for n in itertools.count():
            parts = [
                _principal_part(root, mult * (n + 1), power, numer, gap)
                for (root, mult, _, gap, _), power, numer in zip(poles, powers, numers)
            ]
            yield _integral_value(num // den, parts, logs.__getitem__)
            powers = [power * shifted for power, (_, _, shifted, _, _) in zip(powers, poles)]
            numers = [numer * step for numer, step in zip(numers, steps)]
            if has_polynomial_part:
                num, den = num * r.num, den * c.den


def make_left_family(params: ParameterPair) -> IntegrandFamily:
    """The family of x^n (1-x)^n / ((x+a)(x+b))^{n+1}."""
    a, b = params.a, params.b
    return IntegrandFamily(Poly([a * b, a + b, 1]))  # (x+a)(x+b)


def make_right_family(params: ParameterPair) -> IntegrandFamily:
    """The family of x^n (1-x)^n / ((a-b)x + (a+1)b)^{n+1}."""
    a, b = params.a, params.b
    return IntegrandFamily(Poly([(a + 1) * b, a - b]))
