"""Rational approximations to the logarithm hiding in the integrals.

With Lambda = R(0), every right-hand integral decomposes exactly as

    R(n) = p_n * Lambda - q_n          (p_n, q_n rational)

because all R(n) live in the Q-span of {1, Lambda}.  Since R(n) -> 0
geometrically, q_n / p_n is a sequence of rational approximations to
Lambda, and (a-b) * Lambda = log(1 + (a-b)/((a+1)b)).

The recurrence is linear, so it carries the pairs (p_n, q_n) exactly:
(p_0, q_0) = (1, 0), (p_1, q_1) comes from decomposing R(1), and every
later pair is the same combination of the two before it as R(n) is of
R(n-1) and R(n-2).  `propagate_recurrence` runs it on the p and the q
coordinates.  The recurrence is numerically unstable in the
decaying direction, so a floating iteration would be useless; floats
appear only in the reported columns.  There Lambda is evaluated once,
at a working precision sized from the table's largest cancellation
between p_n * Lambda and q_n, and each linear form p_n * Lambda - q_n
is rounded from it to the caller-chosen precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import SpanError, TelescopicError
from .families import ParameterPair, make_right_family
from .integration import LogCombination, integrate_01, log_of_rational, logcomb_to_float
from .prove import propagate_recurrence
from .serialize import rational_to_str
from .telescoping import closed_form_recurrence


@dataclass(frozen=True)
class ApproximantRow:
    """One row: R(n) = p * Lambda - q, so q/p approximates Lambda."""

    n: int
    p: Fraction
    q: Fraction
    value: mpmath.mpf
    abs_error: mpmath.mpf
    empirical_exponent: mpmath.mpf


def _to_mpf(value: Fraction) -> mpmath.mpf:
    return mpmath.mpf(value.numerator) / value.denominator


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
    lam_terms = lam.terms_dict()
    val_terms = value.terms_dict()
    if set(val_terms) - set(lam_terms):
        raise SpanError("value contains primes absent from the reference")
    first_prime = lam.terms[0][0]
    p = val_terms.get(first_prime, Fraction(0)) / lam_terms[first_prime]
    for prime, coeff in lam_terms.items():
        if val_terms.get(prime, Fraction(0)) != p * coeff:
            raise SpanError("value is not a rational multiple of the reference logs")
    q = p * lam.constant - value.constant
    return p, q


def _linear_forms(
    lam: LogCombination, pairs: list[tuple[Fraction, Fraction]], precision_bits: int
) -> list[mpmath.mpf]:
    """|p * Lambda - q| for each pair, rounded to precision_bits.

    Lambda is evaluated once, at precision_bits + 64 guard bits + the
    largest cancellation mag(p * Lambda) - mag(p * Lambda - q) + 8 slack
    bits.  The cancellation is guessed from the last pair's numerators
    and measured on the forms; when the measurement exceeds the guess,
    the working precision is widened and Lambda evaluated again.
    """
    p_last, q_last = pairs[-1]
    cancellation = p_last.numerator.bit_length() + q_last.numerator.bit_length()
    while True:
        workbits = precision_bits + 64 + cancellation + 8
        lam_value = logcomb_to_float(lam, workbits)
        # p * Lambda - q = (P * Lambda - Q) / D over D = den(p) * den(q)
        scaled = []
        worst = 0
        with mpmath.workprec(workbits):
            for p, q in pairs:
                product = lam_value * (p.numerator * q.denominator)
                difference = product - q.numerator * p.denominator
                if not difference:
                    worst = workbits  # no bit survived: it cancels at least this far
                    break
                worst = max(worst, mpmath.mag(product) - mpmath.mag(difference))
                scaled.append((difference, p.denominator * q.denominator))
        # The rounding error of each product is below 2^(mag(product) + 1
        # - workbits); within the guess, |difference| is at least
        # 2^(mag(product) - cancellation - 1), so every difference carries
        # precision_bits + 70 correct bits, however far the guess was off.
        if worst <= cancellation:
            with mpmath.workprec(precision_bits):
                return [abs(difference / denominator) for difference, denominator in scaled]
        cancellation = worst


def approximant_table(
    params: ParameterPair, n_max: int, precision_bits: int = 256
) -> list[ApproximantRow]:
    """Rows n = 0..n_max from exact propagation of the pairs (p_n, q_n).

    Reported columns: value = q/p, abs_error = |Lambda - q/p| (computed
    as |R(n)|/p, which is the same number), and the empirical exponent
    1 + ln(p) / (-ln(abs_error)) with ln(p) as the height proxy.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if precision_bits < 64:
        raise ValueError("precision_bits must be >= 64")
    right = make_right_family(params)
    lam = integrate_01(right.at(0))
    p1, q1 = decompose_against(integrate_01(right.at(1)), lam)
    rec = closed_form_recurrence(params)
    ps = propagate_recurrence(rec, [Fraction(1), p1], n_max)
    qs = propagate_recurrence(rec, [Fraction(0), q1], n_max)
    pairs = list(zip(ps, qs))
    for n, (p, _) in enumerate(pairs):
        if p == 0:
            raise SpanError(f"approximant with p=0 at n={n}")
    linear_forms = _linear_forms(lam, pairs, precision_bits)
    rows: list[ApproximantRow] = []
    for n, ((p, q), linear_form) in enumerate(zip(pairs, linear_forms)):
        with mpmath.workprec(precision_bits):
            value = _to_mpf(q / p)
            abs_error = linear_form / abs(_to_mpf(p))
            if abs_error == 0:
                exponent = mpmath.inf
            else:
                exponent = 1 + mpmath.ln(abs(_to_mpf(p))) / (-mpmath.ln(abs_error))
            rows.append(
                ApproximantRow(n, p, q, +value, +abs_error, +exponent)
            )
    return rows


def decay_rate_estimate(rows: list[ApproximantRow]) -> mpmath.mpf:
    """Geometric-mean decay ratio of the linear forms |p_n Lambda - q_n|
    (= abs_error_n * p_n) over the last half of the table.

    The linear form decays like the smaller root of the recurrence's
    characteristic polynomial, which is what this estimates.
    """
    if len(rows) < 5:
        raise ValueError("need at least 5 rows to estimate a decay rate")
    window = rows[len(rows) // 2 :]
    with mpmath.workprec(128):
        first = window[0].abs_error * abs(_to_mpf(window[0].p))
        last = window[-1].abs_error * abs(_to_mpf(window[-1].p))
        steps = window[-1].n - window[0].n
        return +mpmath.power(last / first, mpmath.mpf(1) / steps)


def rows_to_csv(rows: list[ApproximantRow], precision_bits: int = 256) -> str:
    """CSV with columns n,p,q,value,abs_error,empirical_exponent;
    rationals as p/q strings, reals in scientific notation with a
    precision-derived digit count."""
    digits = max(17, int(precision_bits * 0.30103))

    def sci(x: mpmath.mpf) -> str:
        return mpmath.nstr(x, digits, min_fixed=1, max_fixed=0)

    lines = ["n,p,q,value,abs_error,empirical_exponent"]
    for row in rows:
        lines.append(
            ",".join(
                [
                    str(row.n),
                    rational_to_str(row.p),
                    rational_to_str(row.q),
                    sci(row.value),
                    sci(row.abs_error),
                    sci(row.empirical_exponent),
                ]
            )
        )
    return "\n".join(lines) + "\n"
