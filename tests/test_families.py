"""Parameter validation and the structural invariants of integrand
families F(n, x) = x^n (1-x)^n / den(x)^(n+1) = c(x) * r(x)^n, and their
one-pass exact integrals."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import count_calls, random_params
from telescopic import (
    IntegrandFamily,
    LogCombination,
    NonRationalRootError,
    ParameterPair,
    Poly,
    RatFunc,
    integrate_01,
    make_left_family,
    make_right_family,
)
from telescopic.integration import _taylor_coefficients


def test_parameter_pair_accepts_rationals():
    p = ParameterPair(Fraction(3, 2), Fraction(1, 3))
    assert p.a == Fraction(3, 2) and p.b == Fraction(1, 3)
    q = ParameterPair(2, 1)
    assert isinstance(q.a, Fraction)
    assert str(q) == "(a=2, b=1)"


@pytest.mark.parametrize("a,b", [(1, 2), (2, 2), (2, 0), (0, -1), (-1, -2)])
def test_parameter_pair_rejects_bad_orderings(a, b):
    with pytest.raises(ValueError, match="a > b > 0"):
        ParameterPair(a, b)


def test_left_family_shape():
    fam = make_left_family(ParameterPair(2, 1))
    q = Poly([2, 3, 1])  # (x+1)(x+2)
    assert fam.cofactor == RatFunc(Poly.one(), q)
    assert fam.ratio == RatFunc(Poly([0, 1, -1]), q)


def test_right_family_shape():
    fam = make_right_family(ParameterPair(2, 1))
    q = Poly([3, 1])  # (a-b)x + (a+1)b = x + 3
    assert fam.cofactor == RatFunc(Poly.one(), q)
    assert fam.ratio == RatFunc(Poly([0, 1, -1]), q)


def test_at_builds_the_expected_integrand():
    fam = make_left_family(ParameterPair(2, 1))
    q = Poly([2, 3, 1])
    n = 3
    expected = RatFunc(Poly([0, 1, -1]) ** n, q ** (n + 1))
    assert fam.at(n) == expected
    assert fam.at(0) == fam.cofactor


def test_at_rejects_negative_n():
    fam = make_left_family(ParameterPair(2, 1))
    with pytest.raises(ValueError):
        fam.at(-1)


def test_ratio_vanishes_at_endpoints_always():
    rng = random.Random(303)
    for _ in range(50):
        params = random_params(rng)
        for fam in (make_left_family(params), make_right_family(params)):
            assert fam.ratio(0) == 0
            assert fam.ratio(1) == 0


def test_at_matches_the_gcd_reduced_quotient():
    # at(n) skips the gcd; the full constructor must agree, including
    # the non-monic right-hand denominator
    rng = random.Random(304)
    for _ in range(10):
        params = random_params(rng)
        for fam in (make_left_family(params), make_right_family(params)):
            for n in range(13):
                expected = RatFunc(Poly([0, 1, -1]) ** n, fam.den ** (n + 1))
                assert fam.at(n) == expected


def test_cofactor_and_ratio_are_the_gcd_reduced_quotients():
    # both are built without a gcd; the full constructor must agree
    rng = random.Random(305)
    for bound in (50, 10**6):
        for _ in range(20):
            params = random_params(rng, bound)
            for fam in (make_left_family(params), make_right_family(params)):
                assert fam.cofactor == RatFunc(Poly.one(), fam.den)
                assert fam.ratio == RatFunc(Poly([0, 1, -1]), fam.den)


def test_construction_rejects_pole_inside_domain():
    # denominator x - 1/2 vanishes inside [0, 1]
    with pytest.raises(ValueError, match="root in"):
        IntegrandFamily(Poly([Fraction(-1, 2), 1]))


def test_construction_rejects_pole_at_endpoint():
    for den in (Poly([0, 1]), Poly([-1, 1])):  # x and x - 1
        with pytest.raises(ValueError, match="root in"):
            IntegrandFamily(den)


def test_construction_rejects_zero_members():
    with pytest.raises(ValueError, match="root in"):
        IntegrandFamily(Poly.zero())


# -- the one-pass integrals ------------------------------------------------------


@pytest.mark.parametrize(
    "a,b",
    [
        (Fraction(13, 4), Fraction(11, 5)),  # a steady pair: a, b in (2, 4)
        (Fraction(301006, 46141), Fraction(729379, 805120)),
    ],
)
def test_integrals_match_integrate_01_at_n_30(a, b):
    params = ParameterPair(a, b)
    for fam in (make_left_family(params), make_right_family(params)):
        values = list(itertools.islice(fam.integrals(), 31))
        for n in (0, 1, 2, 30):
            assert values[n] == integrate_01(fam.at(n))


def test_integrals_match_integrate_01_at_n_60():
    params = ParameterPair(Fraction(7, 2), Fraction(1, 3))
    for fam in (make_left_family(params), make_right_family(params)):
        value = next(itertools.islice(fam.integrals(), 60, None))
        assert value == integrate_01(fam.at(60))


def test_integrals_run_no_series_division(monkeypatch):
    # each member comes from the Taylor recurrence, not from the
    # principal-part kernel of integrate_01
    calls = count_calls(monkeypatch, "_principal_part")
    params = ParameterPair(2, 1)
    for fam in (make_left_family(params), make_right_family(params)):
        assert len(list(itertools.islice(fam.integrals(), 9))) == 9
    assert calls["_principal_part"] == 0


def test_taylor_coefficients_raise_on_a_remainder():
    # (1 - 4z) h' = 2h gives the central binomials h = (1 - 4z)^(-1/2);
    # with E = 1, h = (1 - 4z)^(-1/4) has h_2 = 5/2, which must raise
    assert _taylor_coefficients([1, -4], [2], 1, 5) == [1, 2, 6, 20, 70]
    with pytest.raises(ArithmeticError, match="coefficient 2"):
        _taylor_coefficients([1, -4], [1], 1, 3)


def test_integrals_with_a_repeated_root():
    fam = IntegrandFamily(Poly([4, 4, 1]))  # (x + 2)^2
    values = list(itertools.islice(fam.integrals(), 9))
    assert values[0] == LogCombination(Fraction(1, 6))  # 1/2 - 1/3
    assert values == [integrate_01(fam.at(n)) for n in range(9)]


@pytest.mark.parametrize("lead", [1, 3])
def test_integrals_of_a_constant_denominator(lead):
    # no poles: each member is the polynomial x^n (1-x)^n / lead^(n+1), whose
    # integral is the Beta value n!^2 / ((2n+1)! lead^(n+1))
    fam = IntegrandFamily(Poly([lead]))
    values = list(itertools.islice(fam.integrals(), 9))
    assert values == [integrate_01(fam.at(n)) for n in range(9)]
    for n, value in enumerate(values):
        beta = Fraction(math.factorial(n) ** 2, math.factorial(2 * n + 1) * lead ** (n + 1))
        assert value == LogCombination(beta)


def test_integrals_need_a_denominator_that_splits():
    fam = IntegrandFamily(Poly([1, 1, 1]))  # x^2 + x + 1
    with pytest.raises(NonRationalRootError) as direct:
        integrate_01(fam.at(0))
    with pytest.raises(NonRationalRootError) as one_pass:
        next(fam.integrals())
    assert str(one_pass.value) == str(direct.value)
    assert "has no rational root" in str(one_pass.value)
