"""Rational approximations to the logarithm hiding in the integrals.

With Lambda = R(0), every right-hand integral decomposes exactly as

    R(n) = p_n * Lambda - q_n          (p_n, q_n rational)

because all R(n) live in the Q-span of {1, Lambda}.  Since R(n) -> 0
geometrically, q_n / p_n is a sequence of rational approximations to
Lambda, and (a-b) * Lambda = log(1 + (a-b)/((a+1)b)).

The recurrence is linear, so it carries the pairs (p_n, q_n) exactly:
(p_0, q_0) = (1, 0), (p_1, q_1) comes from decomposing R(1), and every
later pair is the same combination of the two before it as R(n) is of
R(n-1) and R(n-2).  The pairs travel as the integers

    P_n = K^n * p_n,    Q_n = K^n * d_n * q_n,

with d_n = lcm(1..n), k = (a-b)/((a+1)b) and
K = lcm(num(k)^2, num((a-b)^2)), in the normalisation of Alladi and
Robinson (Legendre polynomials and irrationality, J. reine angew. Math.
318, 1980).  Each step is one exact division by the leading recurrence
coefficient at integer values; a remainder raises TelescopicError, so
nothing is rounded and no step reduces a fraction.  The `Fraction`
pair of a row is built once, for output.

The recurrence is numerically unstable in the decaying direction, so a
floating iteration would be useless; floats appear only in the
reported columns.  There Lambda is evaluated once, at a working
precision sized from the table's largest cancellation between
p_n * Lambda and q_n, and each linear form p_n * Lambda - q_n is
rounded from it to the caller-chosen precision.  The first guess of
that cancellation comes from one extra row N = n_max + 1: the
Casoratian W = p_(N-1) q_N - p_N q_(N-1) equals
p_N R(N-1) - p_(N-1) R(N), whose second term is the smaller, so
|R(N-1)| ~ |W| / |p_N| and the last row cancels about
log2 |q_(N-1) p_N / W| bits.  The cancellation is then measured on
every row, and a guess that falls short widens the precision.

The float columns run on raw `mpmath.libmp` values: each operation is
the one libmp call that the same `mpf` arithmetic would make, at the
same precision and rounding, so the roundings match call for call and
only a row's three reported values are wrapped as `mpf`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .errors import SpanError, TelescopicError
from .families import ParameterPair, make_right_family
from .integration import LogCombination, integrate_01, log_of_rational, logcomb_to_float
from .telescoping import closed_form_recurrence


@dataclass(frozen=True, slots=True)
class ApproximantRow:
    """One row: R(n) = p * Lambda - q, so q/p approximates Lambda."""

    n: int
    p: Fraction
    q: Fraction
    value: numbers.Real
    abs_error: numbers.Real
    empirical_exponent: numbers.Real


def target_constant(params: ParameterPair) -> LogCombination:
    """log(1 + (a-b)/((a+1)b)), canonical; cross-checked against
    (a-b) times the right-hand integral at n=0."""
    a, b = params.a, params.b
    target = log_of_rational(1 + (a - b) / ((a + 1) * b))
    independent = (a - b) * integrate_01(make_right_family(params).at(0))
    if target != independent:
        raise TelescopicError(
            "target constant disagrees with (a-b) * integral at n=0"
        )
    return target


def decompose_against(value: LogCombination, lam: LogCombination) -> tuple[Fraction, Fraction]:
    """Write value = p * lam - q; SpanError if value is not in the
    Q-span of {1, lam}."""
    if not lam.terms:
        raise SpanError("reference value has no logarithmic part")
    lam_terms = dict(lam.terms)
    val_terms = dict(value.terms)
    if set(val_terms) - set(lam_terms):
        raise SpanError("value contains primes absent from the reference")
    first_prime = lam.terms[0][0]
    p = val_terms.get(first_prime, Fraction(0)) / lam_terms[first_prime]
    for prime, coeff in lam_terms.items():
        if val_terms.get(prime, Fraction(0)) != p * coeff:
            raise SpanError("value is not a rational multiple of the reference logs")
    q = p * lam.constant - value.constant
    return p, q


def _normalising_factor(params: ParameterPair) -> int:
    """K = lcm(num(k)^2, num((a-b)^2)) with k = (a-b)/((a+1)b)."""
    a, b = params.a, params.b
    k = (a - b) / ((a + 1) * b)
    return math.lcm(k.numerator**2, ((a - b) ** 2).numerator)


def _lcm_steps(n_target: int) -> list[int]:
    """e_m = d_m / d_(m-1) for m = 0..n_target, with d_m = lcm(1..m) and
    e_0 = 1: the prime p when m is a power of p, else 1."""
    steps, lcm = [1], 1
    for m in range(1, n_target + 1):
        step = m // math.gcd(lcm, m)
        steps.append(step)
        lcm *= step
    return steps


def _integer_pairs(
    params: ParameterPair, K: int, steps: list[int], p1: Fraction, q1: Fraction
) -> tuple[list[int], list[int]]:
    """P_n = K^n p_n and Q_n = K^n d_n q_n for n = 0..len(steps) - 1,
    from (p_1, q_1) and the lcm steps e_m = d_m / d_(m-1).

    Each step is one exact integer division by the leading recurrence
    coefficient; a remainder means K or d_n does not clear the
    denominators, and raises TelescopicError instead of rounding.
    """
    P1, Q1 = K * p1, K * q1
    if P1.denominator != 1 or Q1.denominator != 1:
        raise TelescopicError(f"K = {K} does not clear the denominators at n=1")
    ps, qs = [1, P1.numerator], [0, Q1.numerator]
    rec, _ = closed_form_recurrence(params).normalized()
    for n in range(len(steps) - 2):
        # the normalized coefficients are integers over denominator 1: one integer Horner each
        c0, c1, c2 = [poly._horner(n, 1)[0] for poly in rec.coeffs]
        # c2 F(n+2) = -c1 F(n+1) - c0 F(n) with F(m) = P_m / K^m, or Q_m / (K^m d_m)
        u, v = -K * c1, -K * K * c0
        e1, e2 = steps[n + 1], steps[n + 2]
        p, p_rem = divmod(u * ps[n + 1] + v * ps[n], c2)
        q, q_rem = divmod(u * e2 * qs[n + 1] + v * e1 * e2 * qs[n], c2)
        if p_rem or q_rem:
            raise TelescopicError(f"K = {K} does not clear the denominators at n={n + 2}")
        ps.append(p)
        qs.append(q)
    return ps, qs


def _linear_forms(
    lam: LogCombination,
    forms: list[tuple[int, int, int]],
    cancellation: int,
    precision_bits: int,
) -> list[tuple]:
    """|u * Lambda - v| / w for each form (u, v, w), as raw libmp values
    rounded to precision_bits.

    Lambda is evaluated once, at precision_bits + 64 guard bits + the
    largest cancellation mag(u * Lambda) - mag(u * Lambda - v) + 8 slack
    bits.  `cancellation` is the first guess; the cancellation is
    measured on the forms, and when the measurement exceeds the guess,
    the working precision is widened and Lambda evaluated again.
    """
    from mpmath.libmp import from_int, mpf_abs, mpf_div, mpf_mul_int, mpf_sub, round_nearest

    while True:
        workbits = precision_bits + 64 + cancellation + 8
        lam_value = logcomb_to_float(lam, workbits)._mpf_
        differences = []
        worst = 0
        for u, v, _ in forms:
            product = mpf_mul_int(lam_value, u, workbits, round_nearest)
            difference = mpf_sub(product, from_int(v), workbits, round_nearest)
            if not difference[1]:
                worst = workbits  # no bit survived: it cancels at least this far
                break
            # mag(x) of a nonzero raw value (sign, man, exp, bc) is exp + bc
            worst = max(worst, product[2] + product[3] - difference[2] - difference[3])
            differences.append(difference)
        # The rounding error of each product is below 2^(mag(product) + 1
        # - workbits); within the guess, |difference| is at least
        # 2^(mag(product) - cancellation - 1), so every difference carries
        # precision_bits + 70 correct bits, however far the guess was off.
        if worst <= cancellation:
            prec, rnd = precision_bits, round_nearest
            return [
                mpf_abs(mpf_div(d, from_int(w), prec, rnd), prec, rnd)
                for d, (_, _, w) in zip(differences, forms)
            ]
        cancellation = worst


def approximant_table(
    params: ParameterPair, n_max: int, precision_bits: int = 256
) -> list[ApproximantRow]:
    """Rows n = 0..n_max from exact propagation of the pairs (p_n, q_n).

    Reported columns: value = q/p, abs_error = |Lambda - q/p| (computed
    as |R(n)|/p, which is the same number), and the empirical exponent
    1 + ln(p) / (-ln(abs_error)) with ln(p) as the height proxy.
    """
    from mpmath import mp
    from mpmath.libmp import finf, from_int, fzero, mpf_abs, mpf_add, mpf_div
    from mpmath.libmp import mpf_log, mpf_neg, mpf_pos, round_nearest

    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if precision_bits < 64:
        raise ValueError("precision_bits must be >= 64")
    right = make_right_family(params)
    integrals = right.integrals()
    lam = next(integrals)
    p1, q1 = decompose_against(next(integrals), lam)
    K = _normalising_factor(params)
    steps = _lcm_steps(n_max + 1)
    ps, qs = _integer_pairs(params, K, steps, p1, q1)
    pairs = []
    forms = []  # p_n Lambda - q_n = (P_n d_n Lambda - Q_n) / (K^n d_n)
    power, lcm = 1, 1  # K^n and d_n
    for n in range(n_max + 1):
        P, Q = ps[n], qs[n]
        if P == 0:
            raise SpanError(f"approximant with p=0 at n={n}")
        lcm *= steps[n]
        pairs.append((Fraction(P, power), Fraction(Q, power * lcm)))
        forms.append((P * lcm, Q, power * lcm))
        power *= K
    # W = p_(N-1) q_N - p_N q_(N-1) is (P_(N-1) Q_N - P_N Q_(N-1) e_N) / (K^(2N-1) d_N)
    # (module docstring).  The bit lengths give log2 |q_(N-1) p_N / W| less at
    # most one bit, and mag() reads a cancellation at most one bit above its
    # log2, so + 2 covers the last row while |W| ~ |p_N R(N-1)| holds.
    N = n_max + 1
    W = ps[N - 1] * qs[N] - ps[N] * qs[N - 1] * steps[N]
    guess = qs[N - 1].bit_length() + ps[N].bit_length() + steps[N].bit_length() - W.bit_length()
    linear_forms = _linear_forms(lam, forms, max(guess + 2, 0), precision_bits)
    # the libmp calls that mpf arithmetic at precision_bits makes, one per operation
    prec, rnd = precision_bits, round_nearest
    rows: list[ApproximantRow] = []
    for n, ((p, q), (u, Q, _), linear_form) in enumerate(zip(pairs, forms, linear_forms)):
        g = math.gcd(Q, u) if u > 0 else -math.gcd(Q, u)  # q/p = Q / (P d_n) = Q / u
        value = mpf_div(from_int(Q // g, prec, rnd), from_int(u // g), prec, rnd)
        size = mpf_div(from_int(p.numerator, prec, rnd), from_int(p.denominator), prec, rnd)
        size = mpf_abs(size, prec, rnd)
        abs_error = mpf_div(linear_form, size, prec, rnd)
        if abs_error == fzero:
            exponent = finf
        else:
            log_size = mpf_log(size, prec, rnd)
            log_error = mpf_neg(mpf_log(abs_error, prec, rnd), prec, rnd)
            exponent = mpf_add(mpf_div(log_size, log_error, prec, rnd), from_int(1), prec, rnd)
        reported = (mp.make_mpf(mpf_pos(x, prec, rnd)) for x in (value, abs_error, exponent))
        rows.append(ApproximantRow(n, p, q, *reported))
    return rows


def decay_rate_estimate(rows: list[ApproximantRow]) -> numbers.Real:
    """Geometric-mean decay ratio of the linear forms |p_n Lambda - q_n|
    (= abs_error_n * p_n) over the last half of the table.

    The linear form decays like the smaller root of the recurrence's
    characteristic polynomial, which is what this estimates.
    """
    import mpmath

    if len(rows) < 5:
        raise ValueError("need at least 5 rows to estimate a decay rate")
    window = rows[len(rows) // 2 :]
    with mpmath.workprec(128):
        first, last = (
            row.abs_error * abs(mpmath.mpf(row.p.numerator) / row.p.denominator)
            for row in (window[0], window[-1])
        )
        steps = window[-1].n - window[0].n
        return +mpmath.power(last / first, mpmath.mpf(1) / steps)


def rows_to_csv(rows: list[ApproximantRow], precision_bits: int = 256) -> str:
    """CSV with columns n,p,q,value,abs_error,empirical_exponent;
    rationals as p/q strings, reals in scientific notation with a
    precision-derived digit count."""
    import mpmath

    digits = max(17, int(precision_bits * 0.30103))

    def sci(x: mpmath.mpf) -> str:
        return mpmath.nstr(x, digits, min_fixed=1, max_fixed=0)

    lines = ["n,p,q,value,abs_error,empirical_exponent"]
    for row in rows:
        lines.append(
            ",".join(
                [
                    str(row.n),
                    str(row.p),
                    str(row.q),
                    sci(row.value),
                    sci(row.abs_error),
                    sci(row.empirical_exponent),
                ]
            )
        )
    return "\n".join(lines) + "\n"
