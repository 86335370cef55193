"""Integrand families F(n, x) = c(x) * r(x)^n on the interval [0, 1].

The identity under study compares two such families built from a
parameter pair a > b > 0:

    left:   c = 1/((x+a)(x+b)),        r = x(1-x)/((x+a)(x+b))
    right:  c = 1/((a-b)x + (a+1)b),   r = x(1-x)/((a-b)x + (a+1)b)

so that F(n, x) is x^n (1-x)^n over the denominator raised to n+1.
Both members of a family share two structural properties that the whole
proof leans on: the denominators have no roots in [0, 1] (the integrals
converge) and r vanishes at both endpoints (certificate boundary terms
vanish).  Both are checked eagerly at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _to_ratfunc(value) -> RatFunc:
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, Poly):
        return RatFunc(value, Poly.one())
    return RatFunc(Poly.constant(_to_fraction(value)), Poly.one())


@dataclass(frozen=True)
class IntegrandFamily:
    """F(n, x) = cofactor(x) * ratio(x)^n, integrated over [0, 1]."""

    cofactor: RatFunc
    ratio: RatFunc

    def __post_init__(self):
        object.__setattr__(self, "cofactor", _to_ratfunc(self.cofactor))
        object.__setattr__(self, "ratio", _to_ratfunc(self.ratio))
        if self.cofactor.is_zero() or self.ratio.is_zero():
            raise ValueError("cofactor and ratio must be nonzero")
        for part in (self.cofactor, self.ratio):
            if has_root_in_unit_interval(part.den):
                raise ValueError(
                    f"denominator {part.den} has a root in [0, 1]; "
                    "the integrals would diverge"
                )
        if self.ratio(0) != 0 or self.ratio(1) != 0:
            raise ValueError("ratio must vanish at x=0 and x=1")

    def at(self, n: int) -> RatFunc:
        """The concrete integrand F(n, x) = c(x) * r(x)^n for one n."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        return self.cofactor * self.ratio**n

    def log_derivative(self, n: int) -> RatFunc:
        """F'(n,x)/F(n,x) = c'/c + n * r'/r, exactly."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        return (
            self.cofactor.derivative() / self.cofactor
            + n * (self.ratio.derivative() / self.ratio)
        )

    def shifted_ratio(self, k: int) -> RatFunc:
        """F(n+k,x)/F(n,x) = r(x)^k; k = 0 gives 1."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        return self.ratio**k


def make_left_family(params: ParameterPair) -> IntegrandFamily:
    """The family of x^n (1-x)^n / ((x+a)(x+b))^{n+1}."""
    a, b = params.a, params.b
    q = Poly([a * b, a + b, 1])  # (x+a)(x+b)
    return IntegrandFamily(RatFunc(Poly.one(), q), RatFunc(Poly([0, 1, -1]), q))


def make_right_family(params: ParameterPair) -> IntegrandFamily:
    """The family of x^n (1-x)^n / ((a-b)x + (a+1)b)^{n+1}."""
    a, b = params.a, params.b
    q = Poly([(a + 1) * b, a - b])
    return IntegrandFamily(RatFunc(Poly.one(), q), RatFunc(Poly([0, 1, -1]), q))
