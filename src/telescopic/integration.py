"""Exact integration of rational functions over [0, 1].

The integrands treated here have denominators that split into linear
factors with rational roots, all outside [0, 1].  Partial fractions
reduce the integral to rational contributions (polynomial part, poles of
multiplicity >= 2) plus simple-pole terms c/(x - root) whose integrals
are c * log of a positive rational.  Factoring those rationals into
primes yields the canonical exact value type of this package:

    LogCombination  =  constant  +  sum_p coeff_p * log(p),   p prime.

By unique factorization and the linear independence of {log p} over Q,
this form is unique, so equality of exact integral values is a
structural comparison — the engine's base-case checks need no numerics.

One kernel computes the principal part at a root, as a power series in
integers, and one assembly turns principal parts and a polynomial part
into a LogCombination.  The poles come from two sources.  For a single
rational function (integrate_01), one pass finds them: a single gcd
gives the squarefree part of the denominator, its rational roots are
found directly, and the Taylor shift of the denominator at each root
shows that root's multiplicity.  A pole inside [0, 1] is read off those
roots; only a denominator that does not split over Q is searched for
real roots there.  For a whole integrand family, _family_integrals
(behind IntegrandFamily.integrals) finds the roots and the factored
logs once and carries every member's poles from the last.  The
assembly sums the rational constants in integers: the polynomial part
over lcm(1..d+1), and the poles of order >= 2 at each root through one
polynomial evaluated by integer Horner steps; a single Fraction is
reduced at the end.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import (
    DivergentIntegralError,
    FactorBoundExceededError,
    NonRationalRootError,
)
from .polynomials import Poly, _to_fraction, has_root_in_unit_interval, poly_gcd
from .ratfuncs import RatFunc

DEFAULT_FACTOR_BOUND = 10**6


# -- integer and rational factorization --------------------------------------


# base + step runs over the integers prime to 30 in [base, base + 30)
_WHEEL = (0, 4, 6, 10, 12, 16, 22, 24)


def factorize(value: int, bound: int = DEFAULT_FACTOR_BOUND) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division.

    Candidates are 2, 3, 5 and then the integers prime to 30, up to
    bound.  A leftover cofactor with no divisor <= bound is accepted as
    prime only when every candidate up to its square root was tried,
    which certifies primality; otherwise the method's scope is exceeded
    and an explicit error is raised rather than silently falling back.
    """
    if value <= 0:
        raise ValueError("factorize expects a positive integer")
    factors: dict[int, int] = {}
    n = value

    def divide_out(p: int) -> None:
        nonlocal n
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p

    for p in (2, 3, 5):
        if p > bound or p * p > n:
            break
        divide_out(p)
    else:
        base, limit = 7, min(bound, math.isqrt(n))
        while base <= limit:
            # one test per 30 integers: does any candidate of the block divide n?
            if (n % base and n % (base + 4) and n % (base + 6) and n % (base + 10)
                    and n % (base + 12) and n % (base + 16) and n % (base + 22)
                    and n % (base + 24)):
                base += 30
                continue
            for step in _WHEEL:
                if base + step > limit:
                    break
                divide_out(base + step)
                limit = min(bound, math.isqrt(n))
            base += 30
    if n > 1:
        # every prime below past (the first odd number above bound, or 2)
        # was tried or exceeds sqrt(n), so n < past^2 certifies n prime
        past = 2 if bound < 2 else bound + 1 + bound % 2
        if n >= past * past:
            raise FactorBoundExceededError(
                f"factor bound exceeded: {value} has leftover cofactor {n} "
                f"with no prime divisor <= {bound}"
            )
        factors[n] = factors.get(n, 0) + 1
    return factors


# -- the canonical exact value type -------------------------------------------


@dataclass(frozen=True)
class LogCombination:
    """constant + sum over (prime, coeff) of coeff * log(prime).

    Canonical: primes strictly increasing, no zero coefficients.  Two
    values are mathematically equal iff they are structurally equal.
    """

    constant: Fraction
    terms: tuple[tuple[int, Fraction], ...]

    def __init__(self, constant=0, terms: Iterable = ()):
        object.__setattr__(self, "constant", _to_fraction(constant))
        merged: dict[int, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for prime, coeff in items:
            coeff = _to_fraction(coeff)
            merged[prime] = merged[prime] + coeff if prime in merged else coeff
        cleaned = tuple(
            (p, c) for p, c in sorted(merged.items()) if c != 0
        )
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def zero(cls) -> "LogCombination":
        return cls(0, ())

    def is_zero(self) -> bool:
        return self.constant == 0 and not self.terms

    def terms_dict(self) -> dict[int, Fraction]:
        return dict(self.terms)

    def __add__(self, other) -> "LogCombination":
        if not isinstance(other, LogCombination):
            return NotImplemented
        return LogCombination(
            self.constant + other.constant, list(self.terms) + list(other.terms)
        )

    def __sub__(self, other) -> "LogCombination":
        if not isinstance(other, LogCombination):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LogCombination":
        return self.scale(-1)

    def scale(self, factor) -> "LogCombination":
        factor = _to_fraction(factor)
        return LogCombination(
            factor * self.constant, [(p, factor * c) for p, c in self.terms]
        )

    def __rmul__(self, factor) -> "LogCombination":
        if isinstance(factor, (int, Fraction)):
            return self.scale(factor)
        return NotImplemented

    __mul__ = __rmul__

    def __str__(self) -> str:
        pieces = []
        if self.constant != 0 or not self.terms:
            pieces.append(str(self.constant))
        for p, c in self.terms:
            if not pieces:
                pieces.append(f"{c}*log({p})")
            else:
                pieces.append(f"{'+ ' if c >= 0 else '- '}{abs(c)}*log({p})")
        return " ".join(pieces)


def _log_terms(value: Fraction) -> list[tuple[int, int]]:
    """(prime, exponent) pairs with log(value) = sum of exponent * log(prime)."""
    return list(factorize(value.numerator).items()) + [
        (p, -e) for p, e in factorize(value.denominator).items()
    ]


def log_of_rational(value: Fraction) -> LogCombination:
    """log(value) for a positive rational, as a canonical LogCombination."""
    value = _to_fraction(value)
    if value <= 0:
        raise ValueError("log_of_rational requires a positive argument")
    return LogCombination(0, _log_terms(value))


def logcomb_to_float(value: LogCombination, precision_bits: int) -> mpmath.mpf:
    """High-precision real value, correctly rounded to ~precision_bits.

    Combinations like p*Lambda - q cancel catastrophically (the whole
    point of the approximants), so the working precision is raised by
    the observed cancellation before the final rounding.
    """
    import mpmath

    if precision_bits < 64:
        raise ValueError("precision_bits must be >= 64")
    coeff_bits = max(
        [abs(value.constant.numerator).bit_length()]
        + [abs(c.numerator).bit_length() for _, c in value.terms],
        default=1,
    )
    guard = 64 + coeff_bits + len(value.terms).bit_length()

    def attempt(workbits: int) -> mpmath.mpf:
        with mpmath.workprec(workbits):
            total = mpmath.mpf(value.constant.numerator) / value.constant.denominator
            for p, c in value.terms:
                total += mpmath.ln(p) * mpmath.mpf(c.numerator) / c.denominator
            return total

    if value.is_zero():
        return mpmath.mpf(0)
    first = attempt(precision_bits + guard)
    if first == 0:
        cancellation = precision_bits + guard  # everything cancelled; retry harder
    else:
        magnitude = max(
            [abs(value.constant)] + [abs(c) * 2 for _, c in value.terms]
        )
        with mpmath.workprec(64):
            cancellation = max(
                0, int(mpmath.log(mpmath.mpf(magnitude.numerator) / magnitude.denominator / abs(first), 2)) + 8
            )
    final = attempt(precision_bits + guard + cancellation)
    with mpmath.workprec(precision_bits):
        return +final


# -- rational roots ------------------------------------------------------------


def _divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


def _fraction_sqrt(value: Fraction) -> Fraction | None:
    if value < 0:
        return None
    rn = math.isqrt(value.numerator)
    rd = math.isqrt(value.denominator)
    if rn * rn == value.numerator and rd * rd == value.denominator:
        return Fraction(rn, rd)
    return None


def _squarefree_rational_roots(g: Poly) -> tuple[list[Fraction], Poly]:
    """All rational roots of a squarefree polynomial plus the unfactored
    (root-free over Q) remainder."""
    roots: list[Fraction] = []
    current = g
    while current.degree() >= 1:
        if current.degree() == 1:
            roots.append(-current[0] / current[1])
            current = Poly.constant(current.leading_coefficient())
            break
        if current.degree() == 2:
            a2, a1, a0 = current[2], current[1], current[0]
            s = _fraction_sqrt(a1 * a1 - 4 * a2 * a0)
            if s is None:
                break
            roots.extend([(-a1 + s) / (2 * a2), (-a1 - s) / (2 * a2)])
            current = Poly.constant(current.leading_coefficient())
            break
        found = _one_rational_root(current)
        if found is None:
            break
        roots.append(found)
        current = current.exact_div(Poly([-found, 1]))
    return roots, current


def _one_rational_root(p: Poly) -> Fraction | None:
    ints = p._ints  # p is monic, so its stored integers are primitive
    if ints[0] == 0:
        return Fraction(0)
    for num in _divisors(abs(ints[0])):
        for den in _divisors(abs(ints[-1])):
            for sign in (1, -1):
                candidate = Fraction(sign * num, den)
                if p(candidate) == 0:
                    return candidate
    return None


def _rational_poles(den: Poly) -> tuple[list[tuple[Fraction, int, Poly]], Poly]:
    """(root, multiplicity, den(y + root)) for each rational root of den,
    sorted by root, and the monic factor of den's squarefree part that has
    no rational root.

    One gcd gives the squarefree part den / gcd(den, den'); a root's
    multiplicity is the number of vanishing low coefficients of den(y + root).
    """
    squarefree = den.exact_div(poly_gcd(den, den.derivative())).monic()
    roots, leftover = _squarefree_rational_roots(squarefree)
    poles = []
    for root in sorted(roots):
        shifted = den.shift(root)
        mult = next(i for i, c in enumerate(shifted._ints) if c)
        poles.append((root, mult, shifted))
    return poles, leftover


def rational_roots(p: Poly) -> list[tuple[Fraction, int]]:
    """Rational roots with multiplicities, sorted by root value.

    Non-rational factors are ignored; use partial_fractions when a full
    linear factorization is required.
    """
    if p.is_zero():
        raise ValueError("rational_roots of the zero polynomial")
    return [(root, mult) for root, mult, _ in _rational_poles(p)[0]]


# -- partial fractions ----------------------------------------------------------


class PoleTerm(NamedTuple):
    root: Fraction
    multiplicity: int
    coefficient: Fraction


@dataclass(frozen=True)
class PartialFractionForm:
    """polynomial_part + sum of coefficient/(x - root)^multiplicity."""

    polynomial_part: Poly
    pole_terms: tuple[PoleTerm, ...]

    def reassemble(self) -> RatFunc:
        total = RatFunc(self.polynomial_part)
        for root, mult, coeff in self.pole_terms:
            total = total + RatFunc(
                Poly.constant(coeff), Poly([-root, 1]) ** mult
            )
        return total


class PrincipalPart(NamedTuple):
    """The poles at one root: the coefficient of 1/(x - root)^(len(ws) - t)
    is scale * ws[t] / gap^t."""

    root: Fraction
    scale: Fraction
    gap: int
    ws: list[int]


def _split_poles(den: Poly) -> list[tuple[Fraction, int, Poly, int]]:
    """(root, multiplicity, den(y + root), gap) for each root of den, with
    gap the product of the numerators |num(rho - root)| over the other
    roots rho; NonRationalRootError unless den splits over Q."""
    poles, leftover = _rational_poles(den)
    if leftover.degree() > 0:
        raise NonRationalRootError(f"denominator factor {leftover} has no rational root")
    roots = [root for root, _, _ in poles]
    gaps = [math.prod(abs((other - root).numerator) for other in roots if other != root) for root in roots]
    return [(root, mult, shifted, gap) for (root, mult, shifted), gap in zip(poles, gaps)]


def _principal_part(root: Fraction, order: int, shifted_den: Poly, numer: Poly, gap: int) -> PrincipalPart:
    """The principal part of A/D at root, of the given order, from
    D(y + root) = y^order * B(y) and any A(y + root) = numer(y) that is
    right modulo y^order.

    Its coefficients are the series of A(y + root)/B(y) to order - 1.  The
    series runs in integers: B(y) = B(0) * prod (1 - y/s)^k over s = rho - root
    for the other roots rho, so with P = gap, B(Pz)/B(0) has integer
    coefficients and constant term 1, and so has its reciprocal series.
    The coefficient of y^t is then an integer over B(0) * P^t, the size
    the exact coefficient needs.
    """
    basis = shifted_den._ints[order:]  # B(y), over shifted_den._den
    b0 = basis[0]
    scaled_numer, scaled_basis, inverse, ws = [], [1], [1], []  # A(Pz), B(Pz)/B(0), 1/that
    power = 1  # P^t
    for t in range(order):
        scaled_numer.append(numer._ints[t] * power if t < len(numer._ints) else 0)
        if t:
            if t < len(basis):
                scaled_basis.append(basis[t] * power // b0)
            inverse.append(-sum(map(mul, scaled_basis[1:], reversed(inverse))))
        # the z^t coefficient of A(Pz) / (B(Pz)/B(0))
        ws.append(sum(map(mul, scaled_numer, reversed(inverse))))
        power *= gap
    return PrincipalPart(root, Fraction(shifted_den._den, numer._den * b0), gap, ws)


def _decompose(f: RatFunc) -> tuple[Poly, list[PrincipalPart]]:
    """The polynomial part of f and its principal part at every root of f.den."""
    poly_part, remainder = divmod(f.num, f.den)
    if remainder.is_zero():
        return poly_part, []
    return poly_part, [
        _principal_part(root, mult, shifted, remainder.shift(root), gap)
        for root, mult, shifted, gap in _split_poles(f.den)
    ]


def _family_integrals(c: RatFunc, r: RatFunc) -> Iterator[LogCombination]:
    """The exact integrals over [0, 1] of c * r^n, for n = 0, 1, 2, ...
    (IntegrandFamily.integrals), where the cofactor c has a constant
    numerator and the ratio r has the same monic denominator.

    Equal to integrate_01(c * r^n), from data found once: c.den^(n+1)
    has the roots of c.den, with multiplicities m(n+1), and its shift at
    a root is c.den(y + root)^(n+1).  A principal part of order m(n+1)
    reads its numerator only modulo y^(m(n+1)), so the numerator can be
    c.num(y + root) * r.num(y + root)^n rather than the shifted remainder
    of the division.  Every polynomial goes from n to n+1 by one
    multiplication by an n-free one.
    """
    poles = _split_poles(c.den)
    logs = {root: _log_terms((1 - root) / -root) for root, _, _, _ in poles}
    steps = [r.num.shift(root) for root, _, _, _ in poles]
    powers = [shifted for _, _, shifted, _ in poles]  # c.den(y + root)^(n+1)
    numers = [c.num] * len(poles)  # c.num is constant: c.num * steps^n
    num, den = c.num, c.den
    # num = c.num * r.num^n has degree 2n and den = c.den^(n+1) degree
    # (n+1) deg(c.den), so once deg(c.den) >= 2 the polynomial part stays 0
    has_polynomial_part = r.num.degree() > den.degree()
    for n in itertools.count():
        parts = [
            _principal_part(root, mult * (n + 1), power, numer, gap)
            for (root, mult, _, gap), power, numer in zip(poles, powers, numers)
        ]
        yield _integral_value(num // den, parts, logs.__getitem__)
        powers = [power * shifted for power, (_, _, shifted, _) in zip(powers, poles)]
        numers = [numer * step for numer, step in zip(numers, steps)]
        if has_polynomial_part:
            num, den = num * r.num, den * c.den


def partial_fractions(f: RatFunc) -> PartialFractionForm:
    """Exact decomposition over Q; requires the denominator to split into
    linear factors with rational roots.

    Principal parts are read off a truncated power series: with y = x-r
    and den = y^m * B(y), the series of num(y+r)/B(y) to order m-1 gives
    the coefficients of 1/(x-r)^m, ..., 1/(x-r) (see _principal_part).
    """
    poly_part, parts = _decompose(f)
    pole_terms = []
    for root, scale, gap, ws in parts:
        power = 1
        for t, w in enumerate(ws):
            if w:
                pole_terms.append(PoleTerm(root, len(ws) - t, scale * Fraction(w, power)))
            power *= gap
    return PartialFractionForm(poly_part, tuple(pole_terms))


# -- the integral ---------------------------------------------------------------


def _integral_value(
    poly_part: Poly, parts: Iterable[PrincipalPart], log_terms: Callable[[Fraction], list]
) -> LogCombination:
    """The integral over [0, 1] of poly_part plus the principal parts,
    none of whose roots lies in [0, 1].

    log_terms(root) factors log((1 - root)/(-root)); it is asked only for
    roots with a simple pole.  The rationals are summed in integers: the
    polynomial part over lcm(1..d+1), and the poles of order k >= 2 at a
    root r through G(z) = sum c_k/(k-1) z^(k-1): their integral is
    G(-1/r) - G(1/(1-r)).
    """
    ints = poly_part._ints
    lcm = math.lcm(*range(1, len(ints) + 1))
    num, den = sum(c * (lcm // (i + 1)) for i, c in enumerate(ints)), poly_part._den * lcm
    terms: list[tuple[int, Fraction]] = []
    for root, scale, gap, ws in parts:
        order = len(ws)
        if ws[-1]:
            simple = Fraction(scale.numerator * ws[-1], scale.denominator * gap ** (order - 1))
            terms.extend((p, simple * e) for p, e in log_terms(root))
        if order > 1:
            # c_k/(k-1) z^(k-1) = scale * ws[t] gap^(j-1) (lcm/j) z^j / (gap^(order-2) lcm)
            # with j = k - 1 = order - 1 - t
            lcm = math.lcm(*range(1, order))
            g, power = [0], 1
            for j in range(1, order):
                g.append(ws[order - 1 - j] * power * (lcm // j))
                power *= gap
            g = Poly._reduce(g, 1)
            u, v = root.numerator, root.denominator
            acc1, s1 = g._horner(-v, u)  # G(-1/r) = acc1 / s1
            acc2, s2 = g._horner(v, v - u)  # G(1/(1-r)) = acc2 / s2
            part_num = scale.numerator * (acc1 * s2 - acc2 * s1)
            part_den = scale.denominator * (power // gap) * lcm * s1 * s2
            num, den = num * part_den + part_num * den, den * part_den
    return LogCombination(Fraction(num, den), terms)


def integrate_01(f: RatFunc) -> LogCombination:
    """Exact value of the integral of f over [0, 1].

    Simple poles at rational r outside [0, 1] contribute
    coeff * log((1-r)/(-r)), a log of a positive rational, canonicalized
    through prime factorization; everything else contributes rationals.
    A pole in [0, 1] raises DivergentIntegralError, ahead of the error of
    a denominator that does not split over Q or whose roots exceed the
    factor bound.
    """
    if f.is_zero():
        return LogCombination.zero()
    try:
        poly_part, parts = _decompose(f)
        divergent = any(0 <= part.root <= 1 for part in parts)
    except (NonRationalRootError, FactorBoundExceededError):
        # a pole in [0, 1] is reported first, even one the root search missed
        if not has_root_in_unit_interval(f.den):
            raise
        divergent = True
    if divergent:
        raise DivergentIntegralError(
            f"integrand has a pole in [0, 1]: denominator {f.den}"
        )
    return _integral_value(poly_part, parts, lambda root: _log_terms((1 - root) / -root))
