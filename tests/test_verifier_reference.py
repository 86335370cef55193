"""The cleared verifiers against their RatFunc-normal-form reference.

`verify_telescoping` and `verify_substitution_proof` compare cleared
polynomial identities.  The reference below decides the same rational
identities through gcd-reduced RatFunc arithmetic and composition, and
the verdicts must agree on true and false inputs alike.  hypothesis is
test-only; the module is skipped where it is missing."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from telescopic import (  # noqa: E402
    Certificate,
    IntegrandFamily,
    ParameterPair,
    Poly,
    RatFunc,
    Recurrence,
    closed_form_certificates,
    closed_form_recurrence,
    discover,
    make_left_family,
    make_right_family,
    verify_substitution_proof,
    verify_telescoping,
)

# derandomized and without an example database, as in test_properties
exact = settings(derandomize=True, database=None, deadline=None)

heights = st.builds(Fraction, st.integers(1, 50), st.integers(1, 50))
scales = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))


def reference_telescoping(fam, rec, cert):
    """sum_k [n^e]c_k r^k == R_e' + R_e c'/c + R_{e-1} r'/r in RatFunc normal form."""
    c_logd = fam.cofactor.derivative() / fam.cofactor
    r_logd = fam.ratio.derivative() / fam.ratio
    powers = [fam.ratio**k for k in range(rec.order + 1)]
    previous = RatFunc.zero()
    for e in range(max(rec.degree_in_n(), len(cert.parts)) + 1):
        part = cert.parts[e] if e < len(cert.parts) else RatFunc.zero()
        lhs = RatFunc.zero()
        for coeff, power in zip(rec.coeffs, powers):
            lhs = lhs + coeff[e] * power
        if lhs != part.derivative() + part * c_logd + previous * r_logd:
            return False
        previous = part
    return True


def reference_substitution(params, substitution):
    """r1(s) == r2 and c1(s) (-s') == c2 by RatFunc composition."""
    left, right = make_left_family(params), make_right_family(params)
    return left.ratio.compose(substitution) == right.ratio and (
        left.cofactor.compose(substitution) * (-substitution.derivative())
        == right.cofactor
    )


def _pair(x, y):
    assume(x != y)
    return ParameterPair(max(x, y), min(x, y))


@settings(exact, max_examples=20)
@given(heights, heights, st.integers(0, 2), st.sampled_from([1, -1]), scales)
def test_cleared_telescoping_matches_the_reference(x, y, k, sign, scale):
    params = _pair(x, y)
    rec = closed_form_recurrence(params)
    left_cert, right_cert = closed_form_certificates(params)
    beta = IntegrandFamily(Poly.one())
    for fam, cert, other in (
        (make_left_family(params), left_cert, right_cert),
        (make_right_family(params), right_cert, left_cert),
        (beta, left_cert, right_cert),
    ):
        found_rec, found_cert = discover(fam)
        assert verify_telescoping(fam, found_rec, found_cert)
        bumped = list(found_rec.coeffs)
        bumped[k % len(bumped)] += sign
        cases = [
            (rec, cert),
            (found_rec, found_cert),
            (Recurrence(found_rec.order, bumped), found_cert),
            (rec, other),
            (rec, Certificate(cert.parts + (RatFunc(fam.den),))),
            (rec, cert.scaled(scale)),
            (found_rec, found_cert.scaled(scale)),
        ]
        for case_rec, case_cert in cases:
            verdict = verify_telescoping(fam, case_rec, case_cert)
            assert verdict == reference_telescoping(fam, case_rec, case_cert)


@settings(exact, max_examples=40)
@given(heights, heights)
def test_cleared_substitution_matches_the_reference(x, y):
    params = _pair(x, y)
    a, b = params.a, params.b
    right_map = RatFunc(Poly([b, -b]), Poly([b, 1]))
    assert verify_substitution_proof(params)
    maps = [
        right_map,
        RatFunc(Poly([b, -b]), Poly([2 * b, 1])),  # b(1-u)/(b+2u)
        # x(u) = (b - a t - b u)/(u + b + t) carries only the cofactors over
        RatFunc(Poly([b - a, -b]), Poly([b + 1, 1])),
        RatFunc(Poly([b - a / 2, -b]), Poly([b + Fraction(1, 2), 1])),
    ]
    for substitution in maps:
        verdict = verify_substitution_proof(params, substitution)
        assert verdict == reference_substitution(params, substitution)
