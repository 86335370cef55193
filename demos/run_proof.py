"""End-to-end proof walkthrough.

Runs the complete pipeline for one parameter pair: telescoping
verification, boundary vanishing, base cases, direct comparisons, the
independent change-of-variables proof, then re-verifies the emitted
proof object from its own JSON.
"""

import argparse
from fractions import Fraction

from telescopic import (
    ParameterPair,
    proof_from_json,
    proof_to_json,
    prove_identity,
    reverify_proof,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", type=Fraction, default=Fraction(2))
    parser.add_argument("--b", type=Fraction, default=Fraction(1))
    parser.add_argument("--n-max", type=int, default=6)
    args = parser.parse_args()

    params = ParameterPair(args.a, args.b)
    print(f"proving the identity for {params}")
    print()

    proof = prove_identity(params, mode="verify", extra_n=args.n_max)
    print(f"recurrence: {proof.recurrence.to_str()}")
    print(f"left certificate  R1(0, x) = {proof.left_certificate.at(0)}")
    print(f"right certificate R2(0, x) = {proof.right_certificate.at(0)}")
    print()

    for n, left, right in proof.base_cases:
        print(f"base case n={n}:  {left}")
    for n, left, right in proof.extra_checks[len(proof.base_cases) :]:
        mark = "==" if left == right else "!="
        print(f"direct check n={n}:  left {mark} right  ({left})")
    print()
    print(f"substitution check: {proof.substitution_check}")
    print(f"verdict: {proof.verdict}")

    # the proof object survives serialization and independent re-checking
    text = proof_to_json(proof)
    print(f"JSON payload: {len(text)} bytes")
    print(f"re-verified from JSON: {reverify_proof(proof_from_json(text))}")


if __name__ == "__main__":
    main()
