"""Certificate discovery from scratch.

Forgets the closed forms and re-derives recurrence + certificate for
both integrand families with the telescoping ansatz, then confirms the
result agrees with the classical coefficients  (n+1), -(2n+3)(2ab+a+b),
(a-b)^2 (n+2)  up to overall scaling.
"""

import argparse
import time
from fractions import Fraction

from telescopic import (
    ParameterPair,
    closed_form_recurrence,
    discover,
    make_left_family,
    make_right_family,
    verify_telescoping,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", type=Fraction, default=Fraction(7, 2))
    parser.add_argument("--b", type=Fraction, default=Fraction(1, 3))
    args = parser.parse_args()

    params = ParameterPair(args.a, args.b)
    print(f"discovering telescoping relations for {params}")

    recurrences = {}
    for side, fam in (
        ("left", make_left_family(params)),
        ("right", make_right_family(params)),
    ):
        start = time.perf_counter()
        rec, cert = discover(fam)
        elapsed = time.perf_counter() - start
        recurrences[side] = rec
        print()
        print(f"{side} family ({elapsed*1000:.0f} ms):")
        print(f"  recurrence: {rec.to_str()}")
        for i, part in enumerate(cert.parts):
            print(f"  certificate part n^{i}: {part}")
        print(f"  verified for all n: {verify_telescoping(fam, rec, cert)}")

    print()
    print(f"families share one recurrence: {recurrences['left'] == recurrences['right']}")
    reference, _ = closed_form_recurrence(params).normalized()
    print(f"matches the classical closed form: {recurrences['left'] == reference}")


if __name__ == "__main__":
    main()
