"""Rational approximations to a logarithm, mined from the integrals.

The right-hand integral sequence R(n) lives in the Q-span of {1, L}
with L = log(1 + (a-b)/((a+1)b)) / (a-b), and R(n) -> 0 geometrically,
so each row yields a rational q/p approximating L.  The linear form
R(n) decays like the smaller characteristic root t, and p grows like the
larger one, 1/((a-b)^2 t), so the table shows the error |L - q/p|
shrinking by roughly ((a-b) t)^2 per step (t^2 only when a - b = 1), and
the empirical exponent column crawling upward.
"""

import argparse
from fractions import Fraction

import mpmath

from telescopic import (
    ParameterPair,
    approximant_table,
    decay_rate_estimate,
    target_constant,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", type=Fraction, default=Fraction(2))
    parser.add_argument("--b", type=Fraction, default=Fraction(1))
    parser.add_argument("--n-max", type=int, default=14)
    args = parser.parse_args()

    params = ParameterPair(args.a, args.b)
    lam = target_constant(params)
    print(f"target: log(1 + (a-b)/((a+1)b)) = {lam}  for {params}")
    print()

    rows = approximant_table(params, args.n_max)
    print(f"{'n':>3} {'p':>16} {'q':>20} {'abs_error':>12} {'exponent':>9}")
    for row in rows:
        print(
            f"{row.n:>3} {str(row.p):>16} {str(row.q):>20} "
            f"{mpmath.nstr(row.abs_error, 4):>12} "
            f"{mpmath.nstr(row.empirical_exponent, 6):>9}"
        )

    print()
    a, b = params.a, params.b
    # smaller root of (a-b)^2 t^2 - 2(2ab+a+b) t + 1
    s_frac, d2_frac = 2 * a * b + a + b, (a - b) ** 2
    s = mpmath.mpf(s_frac.numerator) / s_frac.denominator
    d2 = mpmath.mpf(d2_frac.numerator) / d2_frac.denominator
    root = (s - mpmath.sqrt(s * s - d2)) / d2
    estimate = decay_rate_estimate(approximant_table(params, 100))
    print(f"decay rate, measured over 100 rows: {mpmath.nstr(estimate, 8)}")
    print(f"smaller characteristic root:        {mpmath.nstr(root, 8)}")


if __name__ == "__main__":
    main()
