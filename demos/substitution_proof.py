"""The one-substitution proof, checked exactly.

The change of variable x = b(1-u)/(b+u) maps [0, 1] onto itself with
orientation reversed and carries the left integrand family onto the
right one, identically in x for every fixed n.  That single rational
identity proves the two integral sequences equal — independently of
the whole telescoping apparatus.
"""

import argparse
from fractions import Fraction

from telescopic import (
    ParameterPair,
    Poly,
    RatFunc,
    make_left_family,
    make_right_family,
    verify_substitution_proof,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--a", type=Fraction, default=Fraction(2))
    parser.add_argument("--b", type=Fraction, default=Fraction(1))
    parser.add_argument("--n-max", type=int, default=8)
    args = parser.parse_args()

    params = ParameterPair(args.a, args.b)
    b = params.b
    substitution = RatFunc(Poly([b, -b]), Poly([b, 1]))
    print(f"substitution map: x(u) = b(1-u)/(b+u) = {substitution}  (variable is u)")
    print(f"x(0) = {substitution(0)},  x(1) = {substitution(1)}  (reverses [0, 1])")
    print()

    left = make_left_family(params)
    right = make_right_family(params)
    for n in range(args.n_max + 1):
        transformed = left.at(n).compose(substitution) * (-substitution.derivative())
        ok = transformed == right.at(n)
        print(f"n={n}:  F1(n, x(u)) * (-dx/du) == F2(n, u)  ->  {ok}")
    print(f"every n, from r1(x(u)) == r2(u) and c1(x(u)) * (-dx/du) == c2(u): "
          f"{verify_substitution_proof(params)}")

    print()
    wrong = RatFunc(Poly([b, b]), Poly([b, 1]))  # numerator b(1+u): not the map
    print(f"negative control, numerator flipped to b(1+u): "
          f"{verify_substitution_proof(params, substitution=wrong)}")


if __name__ == "__main__":
    main()
