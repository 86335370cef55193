"""Property tests of Poly and RatFunc, with sympy as the oracle for the
Taylor shift and the gcd, of the one-pass family integrals, of the
paper's families and of any denominator that splits over Q, with
integrate_01 as the oracle, of the integer value assembly, with the same
sum in Fractions as the oracle, of root exclusion, with the Sturm chain as
the oracle, and of the proof writer, with json.dumps as the oracle.
Both libraries are test-only; the module is skipped where either is
missing."""

import json
import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from telescopic import (  # noqa: E402
    IntegrandFamily,
    LogCombination,
    ParameterPair,
    Poly,
    RatFunc,
    integrate_01,
    make_left_family,
    make_right_family,
    poly_gcd,
    sturm_root_count,
)
from telescopic.integration import PrincipalPart, _integral_value  # noqa: E402
from telescopic.polynomials import has_root_in_unit_interval  # noqa: E402
from telescopic.serialize import _to_json  # noqa: E402

# derandomized and without an example database, so every run checks the
# same examples and writes nothing to disk
exact = settings(derandomize=True, database=None, deadline=None)

X = sympy.Symbol("x")

rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 40))
polys = st.lists(rationals, max_size=7).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
ratfuncs = st.builds(RatFunc, st.lists(rationals, max_size=4).map(Poly),
                     st.lists(rationals, min_size=1, max_size=4).map(Poly).filter(bool))


def to_sympy(p: Poly):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
                      X, domain="QQ")


def from_sympy(p) -> Poly:
    return Poly(Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


@exact
@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Poly.zero() == p and p * Poly.one() == p
    assert p - p == Poly.zero()
    assert (p * q).degree() == (-1 if p.is_zero() or q.is_zero() else p.degree() + q.degree())


@exact
@given(polys, nonzero_polys)
def test_divmod_invariant(p, d):
    q, r = divmod(p, d)
    assert q * d + r == p
    assert r.degree() < d.degree()


@exact
@given(polys, rationals)
def test_shift_round_trip_and_sympy(p, offset):
    shifted = p.shift(offset)
    assert shifted.shift(-offset) == p
    moved = X + sympy.Rational(offset.numerator, offset.denominator)
    reference = sympy.expand(to_sympy(p).as_expr().subs(X, moved))
    assert shifted == from_sympy(sympy.Poly(reference, X, domain="QQ"))


@exact
@given(polys, polys, polys)
def test_gcd_matches_sympy(g, p, q):
    a, b = g * p, g * q
    assume(not (a.is_zero() and b.is_zero()))
    assert poly_gcd(a, b) == from_sympy(to_sympy(a).gcd(to_sympy(b)).monic())


@exact
@given(st.lists(rationals, max_size=7))
def test_one_value_built_two_ways_is_one_value(coefficients):
    direct = Poly(coefficients)
    scale = math.lcm(*(c.denominator for c in coefficients))
    via_integers = Poly([c * scale for c in coefficients]) * Fraction(1, scale)
    assert direct == via_integers
    while coefficients and coefficients[-1] == 0:
        coefficients.pop()
    assert direct.coeffs == via_integers.coeffs == tuple(coefficients)
    assert hash(direct) == hash(via_integers)
    assert str(direct) == str(via_integers)


@exact
@given(ratfuncs, ratfuncs, ratfuncs)
def test_ratfunc_field_laws_and_canonical_form(f, g, h):
    assert f + g == g + f
    assert f * (g + h) == f * g + f * h
    assert (f - g) + g == f
    if not g.is_zero():
        assert (f / g) * g == f
    for value in (f, f + g, f * g):
        assert value.den.leading_coefficient() == 1
        assert poly_gcd(value.num, value.den) == Poly.one() or value.num.is_zero()
        assert RatFunc(value.num * 3, value.den * 3) == value


heights = st.builds(Fraction, st.integers(1, 50), st.integers(1, 50))


@settings(exact, max_examples=25)
@given(heights, heights)
def test_family_integrals_match_integrate_01(x, y):
    assume(x != y)
    params = ParameterPair(max(x, y), min(x, y))
    for fam in (make_left_family(params), make_right_family(params)):
        for n, value in zip(range(13), fam.integrals()):
            assert value == integrate_01(fam.at(n))


roots_outside_unit_interval = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12)).filter(
    lambda root: not 0 <= root <= 1
)
denominators = st.builds(
    lambda roots, mults, lead: lead * Poly.from_roots(r for r, m in zip(roots, mults) for _ in range(m)),
    st.lists(roots_outside_unit_interval, min_size=1, max_size=3, unique=True),
    st.lists(st.integers(1, 2), min_size=3, max_size=3),
    rationals.filter(bool),
)


@settings(exact, max_examples=40)
@given(denominators)
def test_family_integrals_match_integrate_01_for_any_split_denominator(den):
    # 1-3 distinct roots of multiplicity 1-2, so D and E of the Taylor
    # recurrence are built from up to two other roots at each root
    fam = IntegrandFamily(den)
    for n, value in zip(range(7), fam.integrals()):
        assert value == integrate_01(fam.at(n))


principal_parts = st.lists(
    st.tuples(
        roots_outside_unit_interval,
        rationals.filter(bool),  # scale
        st.integers(1, 30),  # gap
        st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=4),  # ws
        st.lists(st.tuples(st.sampled_from([2, 3, 5, 7, 11, 1000003]), st.integers(-3, 3)), max_size=4),
    ),
    max_size=3,
    unique_by=lambda part: part[0],
)


@exact
@given(principal_parts, rationals)
def test_integral_value_is_the_fraction_assembly(parts, rational):
    # the integer assembly against the same sum in Fractions: the
    # coefficient of 1/(x - r)^k is scale * ws[t] / gap^t with k = len(ws) - t
    logs = {root: log for root, _, _, _, log in parts}
    principal = [PrincipalPart(root, scale, gap, ws) for root, scale, gap, ws, _ in parts]
    value = _integral_value((rational.numerator, rational.denominator), principal, logs.__getitem__)
    constant, terms = rational, []
    for root, scale, gap, ws in principal:
        for t, w in enumerate(ws):
            coeff, k = scale * Fraction(w, gap**t), len(ws) - t
            if k == 1:
                terms += [(p, coeff * e) for p, e in logs[root]]
            else:
                constant += coeff * ((1 - root) ** (1 - k) - (-root) ** (1 - k)) / (1 - k)
    expected = LogCombination(constant, terms)
    assert value == expected
    assert hash(value) == hash(expected)
    assert value.terms == expected.terms


@exact
@given(st.lists(st.integers(-50, 50), max_size=8), st.booleans())
def test_root_exclusion_matches_the_sturm_chain(coefficients, sign_uniform):
    if sign_uniform:  # half the draws take the path that skips the chain
        sign = -1 if coefficients and coefficients[0] < 0 else 1
        coefficients = [sign * abs(c) for c in coefficients]
    p = Poly(coefficients)
    reference = p(0) == 0 or sturm_root_count(p, 0, 1) > 0
    assert has_root_in_unit_interval(p) is reference


# quotes, backslashes, control, non-ASCII and non-BMP characters, and any other
json_strings = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fa\xe9\u2028\u4e2d\U0001d11e')
                       | st.characters())
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**300), 2**300) | json_strings,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_strings, inner, max_size=4),
)


@exact
@example({"": [], "{}": {}, "n": [-(2**300), 2**300 - 1, 0, True, False, None]})
@given(json_values)
def test_proof_writer_matches_the_stdlib(value):
    assert _to_json(value) == json.dumps(value, indent=2)
