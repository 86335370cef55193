"""Rational-function field arithmetic, canonical form, and calculus."""

import random
from fractions import Fraction

import pytest

from conftest import random_poly, random_ratfunc
from telescopic import Poly, PoleError, RatFunc


def test_canonical_form_reduced_and_monic_den():
    f = RatFunc(Poly([0, 2]), Poly([0, 0, 4]))  # 2x / 4x^2 = (1/2)/x
    assert f.num == Poly([Fraction(1, 2)])
    assert f.den == Poly([0, 1])
    g = RatFunc(Poly([-1, 0, 1]), Poly([1, 1]))  # (x^2-1)/(x+1) = x-1
    assert g.is_polynomial()
    assert g.num == Poly([-1, 1])


def test_zero_normalizes_to_canonical_zero():
    z = RatFunc(Poly.zero(), Poly([3, 5]))
    assert z.is_zero()
    assert z.den == Poly.one()
    assert z == RatFunc.zero()


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(Poly.one(), Poly.zero())


def test_equality_is_structural_after_reduction():
    f = RatFunc(Poly([0, 1]), Poly([1, 1]))
    g = RatFunc(Poly([0, 2]), Poly([2, 2]))
    assert f == g
    assert hash(f) == hash(g)


def test_field_laws_randomized():
    rng = random.Random(201)
    for _ in range(200):
        f = random_ratfunc(rng)
        g = random_ratfunc(rng)
        h = random_ratfunc(rng)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        assert f - f == RatFunc.zero()
        if not g.is_zero():
            assert (f / g) * g == f
            assert g / g == RatFunc.one()


def test_pow_and_inverse():
    f = RatFunc(Poly([0, 1]), Poly([1, 1]))  # x/(x+1)
    assert f**0 == RatFunc.one()
    assert f**2 == f * f
    assert f**-1 == RatFunc(Poly([1, 1]), Poly([0, 1]))
    assert f**-2 == RatFunc.one() / (f * f)
    with pytest.raises(ZeroDivisionError):
        RatFunc.zero() ** -1
    rng = random.Random(207)
    for _ in range(100):
        f = random_ratfunc(rng)
        for e in range(5):
            assert f**e == RatFunc(f.num**e, f.den**e)


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc.one() / RatFunc.zero()


def test_evaluation_and_poles():
    f = RatFunc(Poly([1]), Poly([-1, 1]))  # 1/(x-1)
    assert f(0) == -1
    assert f(3) == Fraction(1, 2)
    with pytest.raises(PoleError):
        f(1)


def test_evaluation_matches_num_den_randomized():
    rng = random.Random(202)
    for _ in range(300):
        f = random_ratfunc(rng)
        x0 = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        if f.den(x0) == 0:
            continue
        assert f(x0) == f.num(x0) / f.den(x0)


def test_derivative_quotient_rule_randomized():
    rng = random.Random(203)
    for _ in range(200):
        f = random_ratfunc(rng)
        g = random_ratfunc(rng)
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
        assert (f + g).derivative() == f.derivative() + g.derivative()


def test_derivative_known_value():
    f = RatFunc(Poly.one(), Poly([0, 1]))  # 1/x
    assert f.derivative() == RatFunc(Poly([-1]), Poly([0, 0, 1]))


def test_compose_rational_into_rational():
    f = RatFunc(Poly([0, 1]), Poly([1, 1]))  # x/(x+1)
    g = RatFunc(Poly.one(), Poly([0, 1]))  # 1/x
    fg = f.compose(g)  # (1/x)/(1/x + 1) = 1/(1+x)
    assert fg == RatFunc(Poly.one(), Poly([1, 1]))


def test_compose_evaluation_commutes_randomized():
    rng = random.Random(204)
    checked = 0
    while checked < 200:
        f = random_ratfunc(rng, max_degree=2)
        g = random_ratfunc(rng, max_degree=2)
        x0 = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        try:
            inner = g(x0)
            expected = f(inner)
            composed = f.compose(g)
            assert composed(x0) == expected
        except (PoleError, ZeroDivisionError):
            continue
        checked += 1


def test_compose_identically_on_pole_rejected():
    f = RatFunc(Poly.one(), Poly([0, 1]))  # 1/x
    with pytest.raises(ZeroDivisionError):
        f.compose(RatFunc.zero())


def test_coercion_with_scalars_and_polys():
    f = RatFunc(Poly([0, 1]))
    assert f + 1 == RatFunc(Poly([1, 1]))
    assert 1 + f == RatFunc(Poly([1, 1]))
    assert 2 * f == RatFunc(Poly([0, 2]))
    assert f - Poly.one() == RatFunc(Poly([-1, 1]))
    assert 1 / RatFunc(Poly([1, 1])) == RatFunc(Poly.one(), Poly([1, 1]))


def test_str_forms():
    assert str(RatFunc(Poly([0, 1]), Poly([1, 1]))) == "(x)/(x + 1)"
    assert str(RatFunc(Poly([2, 1]))) == "x + 2"
