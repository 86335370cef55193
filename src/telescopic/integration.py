"""Exact integration of rational functions over [0, 1].

The integrands treated here have denominators that split into linear
factors with rational roots, all outside [0, 1].  Partial fractions
reduce the integral to rational contributions (polynomial part, poles of
multiplicity >= 2) plus simple-pole terms c/(x - root) whose integrals
are c * log of a positive rational.  Factoring those rationals into
primes yields the canonical exact value type of this package:

    LogCombination  =  constant  +  sum_p (c_p / den) * log(p),   p prime,

with integer c_p over one common denominator den, gcd(den, *c_p) = 1.
By unique factorization and the linear independence of {log p} over Q,
this form is unique, so equality of exact integral values is a
structural comparison of integers — the engine's base-case checks need
no numerics.

Every integer this module factors goes to factorize: the numerators and
denominators of the log arguments, and the constant and leading
coefficients whose divisors the rational-root search tries.  Trial
division takes 2 and the odd numbers up to 41, and goes on up to 10^6
only while the cofactor is at or above PSI_13 = 3317044064679887385961981.
Pollard's rho then splits the cofactor, and each factor is certified by
strong probable-prime tests to the 13 prime bases 2..41, which prove
primality below PSI_13 (Sorenson and Webster, 2017).  A cofactor still
at or above PSI_13 past 10^6 raises FactorBoundExceededError.

One assembly turns principal parts and a polynomial part into a
LogCombination.  The principal parts come from two sources.  For a
single rational function (integrate_01), one pass finds the poles: a
single gcd gives the squarefree part of the denominator, its rational
roots are found directly, and the Taylor shift of the denominator at
each root shows that root's multiplicity; one kernel then computes each
principal part as a power series in integers, with O(M^2) products for
a pole of order M.  Whether a pole lies in [0, 1] is decided before
that search, from the signs of the denominator's coefficients or else a
Sturm chain.  For a whole integrand family, _family_integrals (behind
IntegrandFamily.integrals) takes the family's denominator Q alone and
finds the roots, their gaps and the factored logs once.  Each member is hyperexponential, so at each root its
principal part, and its polynomial part when the denominator has degree
<= 1, are the Taylor coefficients of an integer series that a short
linear recurrence gives with O(M) integer products.  The assembly sums
in integers: the polynomial part and the poles of order >= 2 at each
root through one power-sum kernel, two integer Horner evaluations over
lcm(1..J), and the simple poles' log coefficients over one denominator.
Each value is reduced once, at the end.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import (
    DivergentIntegralError,
    FactorBoundExceededError,
    NonRationalRootError,
)
from .polynomials import Poly, _convolve, _to_fraction, has_root_in_unit_interval, poly_gcd
from .ratfuncs import RatFunc


# -- integer and rational factorization --------------------------------------


# Sorenson and Webster (Math. Comp. 86, 2017): below psi_13, a number that
# is a strong probable prime to each of the 13 prime bases 2..41 is prime.
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981
_TRIAL_BOUND = 10**6


def factorize(value: int) -> dict[int, int]:
    """Prime factorization of a positive integer, by increasing prime.

    Trial division takes 2 and the odd numbers up to 41, and goes on up to
    _TRIAL_BOUND only while the cofactor is at or above PSI_13; it stops
    early once the divisor's square exceeds the cofactor.  Pollard's rho
    (_rho_divisor) then splits the cofactor until every factor is a strong
    probable prime to the bases 2..41, which certifies it prime below
    PSI_13.  FactorBoundExceededError is raised when the cofactor is still
    at or above PSI_13 past _TRIAL_BOUND.
    """
    if value <= 0:
        raise ValueError("factorize expects a positive integer")
    factors: dict[int, int] = {}
    n, d = value, 2
    while d * d <= n and (d <= 41 or n >= PSI_13):
        if d > _TRIAL_BOUND:
            raise FactorBoundExceededError(
                f"factor bound exceeded: {value} has leftover cofactor {n} "
                f"with no prime divisor <= {_TRIAL_BOUND}"
            )
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d = 3 if d == 2 else d + 2
    pending = [n] if n > 1 else []
    while pending:
        n = pending.pop()
        # no prime below d divides n, so n < d^2 is prime
        if n < d * d or _is_strong_probable_prime(n):
            factors[n] = factors.get(n, 0) + 1
        else:
            divisor = _rho_divisor(n)
            pending += [divisor, n // divisor]
    return dict(sorted(factors.items()))


def _is_strong_probable_prime(n: int) -> bool:
    """n odd and above 41: is n a strong probable prime to every base in
    _SPRP_BASES?  Below PSI_13 that proves n prime."""
    d = n - 1
    s = (d & -d).bit_length() - 1  # n - 1 = d 2^s with d odd
    d >>= s
    for a in _SPRP_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_divisor(n: int) -> int:
    """A divisor 1 < d < n of an odd composite n with no prime factor
    <= 41, by Brent's variant of Pollard's rho (Brent, BIT 20, 1980): the
    gcd is taken once per batch of up to 128 products, and the first
    batch that reaches n is replayed one step at a time.  The constants
    c = 1, 2, ... are tried in turn, so the result is deterministic."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = math.gcd(x - saved, n)
        if g != n:
            return g


def _check_log_base(p: int) -> None:
    """ValueError unless p is an int that factorize certifies prime."""
    if type(p) is not int:
        raise ValueError(f"log base {p!r} is not an int")
    try:
        if p < 2 or factorize(p) != {p: 1}:
            raise ValueError(f"log base {p} is not a prime")
    except FactorBoundExceededError as exc:
        raise ValueError(f"log base {p} is not a certified prime") from exc


# -- the canonical exact value type -------------------------------------------


@dataclass(frozen=True)
class LogCombination:
    """constant + sum over primes p of (c_p / den) * log(p).

    Stored as the Fraction constant, the primes strictly increasing, their
    nonzero integer coefficients c_p and one positive common denominator
    den with gcd(den, *c_p) = 1 (den = 1 when there are no logs).  The
    form is unique, so two values are mathematically equal iff their
    fields are, and == and hash compare tuples.  The ``terms`` property
    builds the reduced (prime, Fraction) pairs on access.  The constructor
    raises ValueError for a base that factorize does not certify prime.
    """

    constant: Fraction
    _primes: tuple[int, ...]
    _ints: tuple[int, ...]
    _den: int

    def __init__(self, constant=0, terms: Iterable = ()):
        merged: dict[int, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for prime, coeff in items:
            coeff = _to_fraction(coeff)
            merged[prime] = merged[prime] + coeff if prime in merged else coeff
        for prime in merged:
            _check_log_base(prime)
        primes = sorted(p for p, c in merged.items() if c)
        # over the lcm of the reduced denominators, gcd(den, *ints) = 1
        den = math.lcm(*(merged[p].denominator for p in primes))
        ints = tuple(merged[p].numerator * (den // merged[p].denominator) for p in primes)
        self._set(_to_fraction(constant), tuple(primes), ints, den)

    def _set(self, constant: Fraction, primes: tuple, ints: tuple, den: int) -> None:
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "_primes", primes)
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _reduce(cls, constant: Fraction, coeffs: Mapping[int, int], den: int) -> "LogCombination":
        """constant + sum of coeffs[p] / den * log(p), for den > 0, in
        canonical form: zero coefficients dropped, one gcd."""
        primes = sorted(p for p, c in coeffs.items() if c)
        ints = [coeffs[p] for p in primes]
        g = math.gcd(den, *ints)  # den itself when there are no logs
        if g > 1:
            ints, den = [c // g for c in ints], den // g
        value = object.__new__(cls)
        value._set(constant, tuple(primes), tuple(ints), den)
        return value

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        """The (prime, coefficient) pairs, by prime; built on access."""
        den = self._den
        return tuple((p, Fraction(c, den)) for p, c in zip(self._primes, self._ints))

    @classmethod
    def zero(cls) -> "LogCombination":
        return cls(0, ())

    def is_zero(self) -> bool:
        return not self._primes and self.constant == 0

    def __add__(self, other) -> "LogCombination":
        if not isinstance(other, LogCombination):
            return NotImplemented
        g = math.gcd(self._den, other._den)
        lift, other_lift = other._den // g, self._den // g
        coeffs = {p: c * lift for p, c in zip(self._primes, self._ints)}
        for p, c in zip(other._primes, other._ints):
            coeffs[p] = coeffs.get(p, 0) + c * other_lift
        return LogCombination._reduce(self.constant + other.constant, coeffs, lift * self._den)

    def __sub__(self, other) -> "LogCombination":
        if not isinstance(other, LogCombination):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LogCombination":
        return self.scale(-1)

    def scale(self, factor) -> "LogCombination":
        factor = _to_fraction(factor)
        u = factor.numerator
        coeffs = {p: c * u for p, c in zip(self._primes, self._ints)}
        return LogCombination._reduce(factor * self.constant, coeffs, self._den * factor.denominator)

    def __rmul__(self, factor) -> "LogCombination":
        if isinstance(factor, (int, Fraction)):
            return self.scale(factor)
        return NotImplemented

    __mul__ = __rmul__

    def __str__(self) -> str:
        pieces = []
        if self.constant != 0 or not self._primes:
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
    return LogCombination._reduce(Fraction(0), dict(_log_terms(value)), 1)


def logcomb_to_float(value: LogCombination, precision_bits: int) -> numbers.Real:
    """High-precision real value, correctly rounded to ~precision_bits.

    Combinations like p*Lambda - q cancel catastrophically (the whole
    point of the approximants), so the working precision is raised by
    the observed cancellation before the final rounding.
    """
    import mpmath

    if precision_bits < 64:
        raise ValueError("precision_bits must be >= 64")
    terms = value.terms
    coeff_bits = max(
        [abs(value.constant.numerator).bit_length()]
        + [abs(c.numerator).bit_length() for _, c in terms],
        default=1,
    )
    guard = 64 + coeff_bits + len(terms).bit_length()

    def attempt(workbits: int) -> mpmath.mpf:
        with mpmath.workprec(workbits):
            total = mpmath.mpf(value.constant.numerator) / value.constant.denominator
            for p, c in terms:
                total += mpmath.ln(p) * mpmath.mpf(c.numerator) / c.denominator
            return total

    first = attempt(precision_bits + guard)
    if first == 0:
        cancellation = precision_bits + guard  # everything cancelled; retry harder
    else:
        magnitude = max(
            [abs(value.constant)] + [abs(c) * 2 for _, c in terms]
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
    return poly_part, [
        _principal_part(root, mult, shifted, remainder.shift(root), gap)
        for root, mult, shifted, gap in _split_poles(f.den)
    ]


def _taylor_coefficients(d: list[int], e: list[int], h0: int, count: int) -> list[int]:
    """h_0, ..., h_(count-1) of the integer power series h with D h' = E h
    and h(0) = h0, for integer coefficient lists d and e, len(d) = len(e) + 1
    and d[0] != 0.  The z^t coefficient of D h' - E h gives
        d_0 (t + 1) h_(t+1) = sum_j (e_j - (t - j) d_(j+1)) h_(t-j),
    one exact division per coefficient: ArithmeticError if it leaves a
    remainder, that is if h is not integral."""
    slope = d[1:]
    # row t holds the multipliers e_j - (t - j) d_(j+1) of h_(t-j), j = 0, 1, ...
    rows = zip(*[itertools.count(x + j * y, -y) for j, (x, y) in enumerate(zip(e, slope))])
    width, lead = len(slope), d[0]
    h = [h0]
    divisor = 0  # d_0 (t + 1)
    for t, row in zip(range(count - 1), rows):
        divisor += lead
        step, remainder = divmod(sum(map(mul, row, h[: -width - 1 : -1])), divisor)
        if remainder:
            raise ArithmeticError(f"Taylor coefficient {t + 1} is not an integer")
        h.append(step)
    return h


def _family_integrals(den: Poly) -> Iterator[LogCombination]:
    """The exact integrals over [0, 1] of F(n, x) = x^n (1-x)^n / Q^(n+1)
    with Q = den, for n = 0, 1, 2, ... (IntegrandFamily.integrals).

    Equal to integrate_01(F(n, x)), from data found once: the roots of Q,
    their gaps (_split_poles) and their factored logs.  With lam = 1/lc(Q),
    F = lam^(n+1) x^n (1-x)^n / prod_rho (x - rho)^(m_rho (n+1)) over the
    roots rho of Q.  At a root R = u/v of multiplicity m, the principal
    part of order m(n+1) reads the Taylor coefficients of F y^(m(n+1)) in
    y = x - R.  With y = gap z that is scale * h(z), for
        h(z) = V(z)^n prod_rho (1 + beta_rho z)^(-k_rho),
        V(z) = (u + v gap z)(v - u - v gap z),
        beta_rho = gap/(R - rho),  k_rho = m_rho (n+1),
    over the other roots rho, and scale = lam^(n+1)/(v^(2n) prod (R - rho)^k_rho).
    gap is a multiple of each numerator of R - rho, so every beta_rho is an
    integer, and h has integer coefficients.  Its logarithmic derivative is
    n V'/V - sum k_rho beta_rho/(1 + beta_rho z), so D h' = E h with
        D = V prod (1 + beta_rho z),
        E = n V' prod (1 + beta_rho z)
            - V sum_rho k_rho beta_rho prod_(sigma != rho) (1 + beta_sigma z),
    and _taylor_coefficients finds each member's h with O(m(n+1)) integer
    products: D-finite series have P-recursive coefficients (Stanley, 1980).
    V(0) = u(v - u) is nonzero, as no root lies in [0, 1].

    The numerator has degree 2n and Q^(n+1) degree (n+1) deg(Q), so the
    polynomial part is 0 once deg(Q) >= 2.  For Q = (x - R)/lam it is
    sum_(n < t <= 2n) scale h_t y^(t-n-1) (gap = 1), and for a constant Q the
    same series expanded at R = -1 gives the whole numerator; _power_sum
    integrates either with no division.
    """
    lam = 1 / den.leading_coefficient()
    poles = _split_poles(den)  # the roots do not depend on lc(Q)
    logs = {root: _log_terms((1 - root) / -root) for root, _, _, _ in poles}
    degree = den.degree()
    # the series is expanded at each root, or at -1 when Q = 1
    points = [(root, mult, gap) for root, mult, _, gap in poles] or [(Fraction(-1), 0, 1)]
    series, scales, steps = [], [], []
    for root, _, gap in points:
        u, v = root.numerator, root.denominator
        others = [(root - rho, m) for rho, m, _, _ in poles if rho != root]  # (R - rho, m_rho)
        betas = [gap * diff.denominator // diff.numerator for diff, _ in others]
        factors = [[1, beta] for beta in betas]
        linear = functools.reduce(_convolve, factors, [1])  # prod (1 + beta z)
        vee = [u * (v - u), v * gap * (v - 2 * u), -((v * gap) ** 2)]
        d = _convolve(vee, linear)
        a1 = _convolve([vee[1], 2 * vee[2]], linear)  # V' prod (1 + beta z)
        a2 = [0] * (len(d) - 1)  # V sum m_rho beta_rho prod_(sigma != rho) (1 + beta_sigma z)
        for i, ((_, m), beta) in enumerate(zip(others, betas)):
            rest = functools.reduce(_convolve, factors[:i] + factors[i + 1 :], [m * beta])
            a2 = list(map(add, a2, _convolve(vee, rest)))
        series.append((d, a1, a2))
        base = math.prod(diff**m for diff, m in others)
        scales.append(lam / base)
        steps.append(lam / (v * v * base))
    for n in itertools.count():
        parts = []
        rational = (0, 1)
        for (root, mult, gap), (d, a1, a2), scale in zip(points, series, scales):
            order = mult * (n + 1)
            e = [n * x - (n + 1) * y for x, y in zip(a1, a2)]
            h = _taylor_coefficients(d, e, d[0] ** n, 2 * n + 1 if degree < 2 else order)
            if order:
                parts.append(PrincipalPart(root, scale, gap, h[:order]))
            if degree < 2:
                # sum_(t >= order) h_t y^(t-order) over y = x - R integrates
                # to sum_j h_(order+j-1) ((1-R)^j - (-R)^j)/j
                u, v = root.numerator, root.denominator
                num, den = _power_sum(h[order : 2 * n + 1], (v - u, v), (-u, v), scale.denominator)
                rational = (num * scale.numerator, den)
        yield _integral_value(rational, parts, logs.__getitem__)
        scales = [scale * step for scale, step in zip(scales, steps)]


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


def _power_sum(a: list[int], hi: tuple[int, int], lo: tuple[int, int], divisor: int) -> tuple[int, int]:
    """(num, den) with num/den = sum_j a[j-1] (hi^j - lo^j)/(j divisor) over
    j = 1..len(a), for hi and lo given as (numerator, denominator): over
    lcm(1..J), two evaluations by integer Horner steps."""
    lcm = math.lcm(*range(1, len(a) + 1))
    h = Poly._reduce([0] + [c * (lcm // j) for j, c in enumerate(a, 1)], 1)
    top, top_den = h._horner(*hi)
    bottom, bottom_den = h._horner(*lo)
    if top_den == bottom_den:
        return top - bottom, top_den * lcm * divisor
    return top * bottom_den - bottom * top_den, top_den * bottom_den * lcm * divisor


def _integral_value(
    rational: tuple[int, int], parts: Iterable[PrincipalPart], log_terms: Callable[[Fraction], list]
) -> LogCombination:
    """The integral over [0, 1] of a polynomial part whose integral is
    rational = (num, den), plus the principal parts, none of whose roots
    lies in [0, 1].

    log_terms(root) factors log((1 - root)/(-root)); it is asked only for
    roots with a simple pole.  All sums run in integers.  A simple pole
    contributes its coefficient N/D times each prime exponent of its log;
    the log coefficients share one denominator, and one gcd reduces them
    at the end.  The poles of order k >= 2 at a root r add
    sum_k c_k ((-1/r)^(k-1) - (1/(1-r))^(k-1))/(k-1), by _power_sum; a
    single Fraction is reduced at the end.
    """
    num, den = rational
    coeffs: dict[int, int] = {}  # over log_den
    log_den = 1
    for root, scale, gap, ws in parts:
        order = len(ws)
        pole_den = scale.denominator * gap ** (order - 1)
        if ws[-1]:
            # the simple-pole coefficient simple / pole_den, over the lcm of the denominators
            simple = scale.numerator * ws[-1]
            common = math.gcd(log_den, pole_den)
            lift = pole_den // common
            if lift > 1:
                coeffs = {p: c * lift for p, c in coeffs.items()}
            simple *= log_den // common
            log_den *= lift
            for p, e in log_terms(root):
                coeffs[p] = coeffs.get(p, 0) + simple * e
        if order > 1:
            # c_k = scale * ws[t] / gap^t with k = order - t, so at j = k - 1
            # c_k/(k-1) z^j = scale.numerator * ws[order-1-j] (gap z)^j / (pole_den * j),
            # taken at z = -1/r = -v/u and z = 1/(1-r) = v/(v-u)
            u, v = root.numerator, root.denominator
            part_num, part_den = _power_sum(ws[-2::-1], (-gap * v, u), (gap * v, v - u), pole_den)
            part_num *= scale.numerator
            num, den = num * part_den + part_num * den, den * part_den
    return LogCombination._reduce(Fraction(num, den), coeffs, log_den)


def integrate_01(f: RatFunc) -> LogCombination:
    """Exact value of the integral of f over [0, 1].

    Simple poles at rational r outside [0, 1] contribute
    coeff * log((1-r)/(-r)), a log of a positive rational, canonicalized
    through prime factorization; everything else contributes rationals.
    A pole in [0, 1] raises DivergentIntegralError.  It is decided first,
    by the signs of the denominator's coefficients or else a Sturm chain,
    so it is reported ahead of any error of the root search: a
    denominator that does not split over Q, or a root that factorize
    cannot certify.
    """
    if has_root_in_unit_interval(f.den):
        raise DivergentIntegralError(
            f"integrand has a pole in [0, 1]: denominator {f.den}"
        )
    poly_part, parts = _decompose(f)
    rational = _power_sum(poly_part._ints, (1, 1), (0, 1), poly_part._den)
    return _integral_value(rational, parts, lambda root: _log_terms((1 - root) / -root))
