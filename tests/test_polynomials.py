"""Exact polynomial arithmetic: ring laws, division, GCD, and Sturm root
counting."""

import random
from fractions import Fraction

import pytest

from conftest import count_calls, random_poly
from telescopic import Poly, poly_gcd, sturm_root_count
from telescopic.polynomials import has_root_in_unit_interval


def test_construction_normalizes_trailing_zeros():
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])
    assert Poly([0, 0]) == Poly.zero()
    assert Poly.zero().degree() == -1
    assert Poly([0, 0, 5]).degree() == 2


def test_coefficients_become_fractions():
    p = Poly([1, 2])
    assert all(isinstance(c, Fraction) for c in p.coeffs)
    assert Poly(["1/2"])[0] == Fraction(1, 2)


def test_indexing_beyond_degree_is_zero():
    p = Poly([3, 1])
    assert p[0] == 3 and p[1] == 1 and p[7] == 0


def test_basic_constructors():
    x = Poly((0, 1, 0))
    assert x == Poly([0, 1])
    assert 2 * x**3 == Poly([0, 0, 0, 2])
    assert Poly.from_roots([1, 2]) == Poly([2, -3, 1])
    assert Poly.constant(5)(123) == 5


def test_evaluation_horner():
    p = Poly([1, -3, 2])  # 2x^2 - 3x + 1 = (2x-1)(x-1)
    assert p(1) == 0
    assert p(Fraction(1, 2)) == 0
    assert p(0) == 1


def _fraction_horner(p, point):
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * point + c
    return acc


def test_evaluation_matches_fraction_horner():
    rng = random.Random(110)
    points = [0, -1, 3, -7, Fraction(1, 2), Fraction(-5, 3), Fraction(22, 7), Fraction(-1, 1000)]
    for _ in range(100):
        p = random_poly(rng, max_degree=7) * Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        for point in points:
            value = p(point)
            assert isinstance(value, Fraction)
            assert value == _fraction_horner(p, Fraction(point))
    assert Poly.zero()(Fraction(3, 5)) == 0


def test_stored_integers_are_canonical():
    p = Poly([Fraction(1, 2), Fraction(1, 3)])
    q = Poly([3, 2]) * Fraction(1, 6)
    assert p == q and hash(p) == hash(q) and str(p) == str(q)
    assert p.coeffs == q.coeffs == (Fraction(1, 2), Fraction(1, 3))
    # integers over the lcm of the reduced denominators: 1/2 = 3/6, 1/3 = 2/6
    assert (p._ints, p._den) == ((3, 2), 6)
    # 5/2 and 5/3 over 6: the integers share 5, which is coprime to 6
    r = Poly([Fraction(5, 2), Fraction(5, 3)])
    assert (r._ints, r._den) == ((15, 10), 6)
    assert Poly([Fraction(1, 2)]) + Poly([Fraction(1, 2)]) == Poly.one()
    assert (Poly.one()._ints, Poly.one()._den) == ((1,), 1)
    assert (Poly.zero()._ints, Poly.zero()._den) == ((), 1)


def test_ring_laws_randomized():
    rng = random.Random(101)
    for _ in range(300):
        p = random_poly(rng)
        q = random_poly(rng)
        r = random_poly(rng)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + Poly.zero() == p
        assert p * Poly.one() == p
        assert p - p == Poly.zero()


def test_divmod_invariant_randomized():
    rng = random.Random(102)
    for _ in range(300):
        p = random_poly(rng, max_degree=6)
        d = random_poly(rng, max_degree=3, nonzero=True)
        q, r = divmod(p, d)
        assert q * d + r == p
        assert r.degree() < d.degree()


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(Poly([1, 1]), Poly.zero())


def test_exact_div_on_true_factors():
    p = Poly([1, 2]) * Poly([-3, 0, 1])
    assert p.exact_div(Poly([1, 2])) == Poly([-3, 0, 1])
    with pytest.raises(ValueError):
        (p + Poly.one()).exact_div(Poly([1, 2]))


def test_power_squares_only_while_bits_remain(monkeypatch):
    products = []
    original = Poly.__mul__

    def counting(self, other):
        products.append(self.degree() + other.degree())
        return original(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    q = Poly([1, 3, 2])
    power = q**31  # 31 = 0b11111: four squarings and four products into the result
    monkeypatch.undo()
    assert len(products) == 8
    assert max(products) == 62 == power.degree()
    assert power == Poly([1, 1]) ** 31 * Poly([1, 2]) ** 31


def test_power_by_squaring():
    p = Poly([1, 1])
    assert p**0 == Poly.one()
    assert p**3 == Poly([1, 3, 3, 1])
    rng = random.Random(103)
    for _ in range(50):
        q = random_poly(rng, max_degree=2)
        assert q**4 == q * q * q * q


def test_derivative_product_rule_randomized():
    rng = random.Random(104)
    for _ in range(300):
        p = random_poly(rng)
        q = random_poly(rng)
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


def test_compose_and_shift():
    p = Poly([0, 0, 1])  # x^2
    assert p.shift(Fraction(1)) == Poly([1, 2, 1])  # p(x+1)
    assert p.shift(Fraction(-1, 2)) == Poly([Fraction(1, 4), -1, 1])  # (x - 1/2)^2
    rng = random.Random(105)
    for _ in range(100):
        q = random_poly(rng)
        t = Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3, 7]))
        x0 = Fraction(rng.randint(-5, 5))
        assert q.shift(t)(x0) == q(x0 + t)
        assert q.shift(t).shift(-t) == q


def test_content_and_primitive():
    p = Poly([Fraction(2, 3), Fraction(4, 3)])
    assert p.content() == Fraction(2, 3)
    assert Poly.zero().content() == 0


def test_gcd_canonical_monic_randomized():
    rng = random.Random(106)
    for _ in range(300):
        g = random_poly(rng, max_degree=2, nonzero=True)
        a = g * random_poly(rng, max_degree=2, nonzero=True)
        b = g * random_poly(rng, max_degree=2, nonzero=True)
        d = poly_gcd(a, b)
        # gcd divides both and is divisible by the planted factor
        assert a % d == Poly.zero()
        assert b % d == Poly.zero()
        assert d % poly_gcd(d, g.monic()) == Poly.zero()
        assert d.leading_coefficient() == 1


def test_gcd_at_the_size_of_a_crosscheck_member():
    # integrate_01 and quad_01 take gcd(den^31, (den^31)') at n = 30; the
    # left den of the steady pair (13/4, 11/5) is squarefree, so it is den^30
    den = Poly([Fraction(143, 20), Fraction(109, 20), 1])  # (x + 13/4)(x + 11/5)
    power = den**31
    assert poly_gcd(power, power.derivative()) == den**30
    assert poly_gcd(3 * power.derivative(), -power) == den**30


def test_gcd_edge_cases():
    p = Poly([2, 4, 2])
    assert poly_gcd(p, Poly.zero()) == p.monic()
    assert poly_gcd(Poly([2]), Poly([0, 3])) == Poly.one()
    with pytest.raises(ValueError):
        poly_gcd(Poly.zero(), Poly.zero())


def test_sturm_count_known_roots():
    # (x-1/4)(x-1/2)(x-3/4) has three roots in (0, 1]
    p = Poly.from_roots([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    assert sturm_root_count(p, 0, 1) == 3
    assert sturm_root_count(p, Fraction(1, 2), 1) == 1  # (1/2, 1] excludes 1/2
    assert sturm_root_count(p, 0, Fraction(1, 2)) == 2
    assert sturm_root_count(Poly([2, 0, 1]), -10, 10) == 0  # x^2 + 2


def test_sturm_counts_distinct_roots_of_repeated_factor():
    p = Poly.from_roots([Fraction(1, 2)]) ** 3
    assert sturm_root_count(p, 0, 1) == 1


def test_sturm_random_linear_products():
    rng = random.Random(109)
    for _ in range(200):
        roots = sorted(
            Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(3)
        )
        p = Poly.from_roots(roots)
        lo, hi = Fraction(-25), Fraction(25)
        assert sturm_root_count(p, lo, hi) == len(set(roots))
        inside = len({r for r in roots if 0 < r <= 1})
        assert sturm_root_count(p, 0, 1) == inside


@pytest.mark.parametrize(
    "coefficients, has_root, chains",
    [
        ([], True, 0),  # the zero polynomial vanishes everywhere
        ([0, 1, 1], True, 0),  # x (x + 1) vanishes at 0
        ([-1, 0, -1], False, 0),  # -x^2 - 1: signs alike, so no chain
        ([1, 0, 0, 1], False, 0),  # x^3 + 1
        ([1, -3, 1], True, 1),  # x^2 - 3x + 1, root (3 - sqrt 5)/2: mixed signs
        ([2, -3, 1], True, 1),  # (x - 1)(x - 2), root at the endpoint 1
        ([6, -5, 1], False, 1),  # (x - 2)(x - 3): mixed signs, roots outside
    ],
)
def test_root_exclusion_by_signs_and_by_the_chain(monkeypatch, coefficients, has_root, chains):
    calls = count_calls(monkeypatch, "sturm_root_count")
    assert has_root_in_unit_interval(Poly(coefficients)) is has_root
    assert calls["sturm_root_count"] == chains


def test_to_str_readable():
    assert Poly([1, -2, 3]).to_str() == "3*x^2 - 2*x + 1"
    assert Poly.zero().to_str() == "0"
    assert str(Poly([0, 1])) == "x"
