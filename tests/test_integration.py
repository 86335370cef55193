"""Exact rational integration over [0, 1]: factorization, canonical
log-combinations, partial fractions, and the integral itself."""

import copy
import math
import pickle
import random
import re
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from telescopic import (
    DivergentIntegralError,
    FactorBoundExceededError,
    LogCombination,
    NonRationalRootError,
    ParameterPair,
    PartialFractionForm,
    Poly,
    PoleTerm,
    RatFunc,
    factorize,
    integrate_01,
    log_of_rational,
    logcomb_to_float,
    make_left_family,
    make_right_family,
    partial_fractions,
    rational_roots,
)
from conftest import count_calls, random_params, random_poly
from telescopic.integration import PSI_13, _is_strong_probable_prime


# -- factorization -------------------------------------------------------------


def test_factorize_small_numbers():
    assert factorize(1) == {}
    assert factorize(2) == {2: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(97) == {97: 1}


def test_factorize_random_round_trip():
    rng = random.Random(501)
    for _ in range(300):
        n = rng.randint(1, 10**9)
        factors = factorize(n)
        product = 1
        for p, e in factors.items():
            product *= p**e
        assert product == n


def test_factorize_certifies_a_cofactor_below_psi_13_after_trial_division():
    # 43**16 keeps the cofactor at or above PSI_13 until trial division
    # reaches 43; the cofactor left is below PSI_13, so trial division stops
    # there and the strong probable-prime tests certify it
    assert factorize(43**16) == {43: 16}
    assert factorize(43**16 * 999999999989) == {43: 16, 999999999989: 1}
    assert factorize(43**16 * (10**12 + 39)) == {43: 16, 10**12 + 39: 1}
    assert factorize(2 * 43**15 * 1000003) == {2: 1, 43: 15, 1000003: 1}


def test_factorize_bound_exceeded_is_loud():
    # PSI_13 = 1287836182261 * 2575672364521 passes the tests to the bases
    # 2..37; at and above it the bases no longer certify, so trial division
    # decides, and its bound is exceeded
    for value in (PSI_13, 2**5 * PSI_13):
        with pytest.raises(FactorBoundExceededError, match="factor bound exceeded"):
            factorize(value)
    # just below, rho certifies what trial division cannot
    assert factorize(PSI_13 - 2) == {17: 1, 1709: 1, 1366183751: 1, 83570142193: 1}


def _odd_step_factorize(value, bound):
    # reference: every odd candidate in turn, while d <= bound and d^2 <= n
    factors, n, d = {}, value, 2
    while d <= bound and d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d = 3 if d == 2 else d + 2
    if n > 1:
        if not (d * d > n or n < bound * bound):
            return "exceeded"
        factors[n] = factors.get(n, 0) + 1
    return factors


def test_factorize_matches_odd_step_trial_division():
    rng = random.Random(13)
    values = list(range(1, 2500)) + [rng.randint(1, 10**9) for _ in range(300)]
    values += [1000003 * 999983, 7**5 * 1000003, 2 * 150503 * 1534499]
    past_psi_13 = [43**16 * (10**12 + 39), 2**5 * PSI_13]
    for value in values + past_psi_13:
        try:
            got = factorize(value)
        except FactorBoundExceededError:
            got = "exceeded"
        assert got == _odd_step_factorize(value, 10**6), value


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_matches_sympy():
    # sympy's primes make the products, whose factorization is then known;
    # factorint is the oracle for the other values
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1912)
    products = 0  # of 2 to 4 primes below 10**12, of log-uniform size
    while products < 20:
        primes = [sympy.nextprime(rng.randint(2, 10 ** rng.randint(2, 11))) for _ in range(rng.randint(2, 4))]
        if math.prod(primes) < PSI_13:
            assert factorize(math.prod(primes)) == dict(Counter(primes)), primes
            products += 1
    below = list(range(1, 2501)) + [rng.randrange(1, PSI_13) for _ in range(8)]
    smooth = []  # 10**6-smooth, at or above PSI_13
    while len(smooth) < 10:
        value = 1
        while value < PSI_13:
            value *= sympy.prevprime(rng.randint(3, 10**6))
        smooth.append(value)
    # at or above PSI_13, a 10**6-smooth part times a cofactor in [10**12, PSI_13)
    # with no prime factor <= 10**6: trial division leaves it to rho
    past = [43**16 * sympy.nextprime(10**7) * sympy.nextprime(10**16)]
    while len(past) < 6:
        cofactor = sympy.nextprime(rng.randint(10**6, 10**9)) * sympy.nextprime(rng.randint(10**6, 10**15))
        if not 10**12 <= cofactor < PSI_13:
            continue
        value = cofactor
        while value < PSI_13:
            value *= sympy.prevprime(rng.randint(3, 10**6))
        past.append(value)
    for value in below + smooth + past:
        assert factorize(value) == sympy.factorint(value), value


@pytest.mark.parametrize(
    "value, factors",
    [
        (1000003 * 1000033, {1000003: 1, 1000033: 1}),  # the benchmark's defect pair
        (999983 * 1000003, {999983: 1, 1000003: 1}),
        (10**12 + 39, {10**12 + 39: 1}),  # a prime
        (2 * 150503 * 1534499, {2: 1, 150503: 1, 1534499: 1}),
        (101**2, {101: 2}),
        (1009**3 * 5, {5: 1, 1009: 3}),
        (1000003**2, {1000003: 2}),
    ],
)
def test_split_factors_past_trial_division(value, factors):
    # below PSI_13, factorize splits by rho what trial division cannot
    assert factorize(value) == factors
    assert list(factorize(value)) == sorted(factors)


@pytest.mark.parametrize(
    "value, factors",
    [
        (3215031751, {151: 1, 751: 1, 28351: 1}),  # strong pseudoprime to 2, 3, 5, 7
        (3825123056546413051, {149491: 1, 747451: 1, 34233211: 1}),  # to 2..23
    ],
)
def test_split_factors_sees_through_strong_pseudoprimes(value, factors):
    assert not _is_strong_probable_prime(value)
    assert factorize(value) == factors


def test_split_factors_leaves_psi_13_and_above_to_factorize(monkeypatch):
    # rho sees only a cofactor below PSI_13: one that stays at or above it
    # through trial division to 10**6 is refused before rho
    calls = count_calls(monkeypatch, "_rho_divisor")
    for value in (PSI_13, 2**5 * PSI_13):
        with pytest.raises(FactorBoundExceededError):
            factorize(value)
    assert calls["_rho_divisor"] == 0
    assert factorize(PSI_13 - 2) == {17: 1, 1709: 1, 1366183751: 1, 83570142193: 1}
    assert calls["_rho_divisor"] > 0


def test_split_factors_rejects_nonpositive():
    for value in (0, -1, -PSI_13):
        with pytest.raises(ValueError):
            factorize(value)


# -- LogCombination -------------------------------------------------------------


def test_logcomb_canonical_order_and_zero_dropping():
    v = LogCombination(1, [(3, Fraction(2)), (2, Fraction(1)), (5, Fraction(0))])
    assert v.terms == ((2, Fraction(1)), (3, Fraction(2)))
    w = LogCombination(0, {2: Fraction(1), 3: Fraction(-1)})
    assert dict(w.terms) == {2: 1, 3: -1}


def test_logcomb_terms_are_reduced_and_in_prime_order():
    v = LogCombination(Fraction(3, 9), [(7, Fraction(4, 6)), (2, Fraction(-5, 10)), (3, 3)])
    assert v.terms == ((2, Fraction(-1, 2)), (3, Fraction(3)), (7, Fraction(2, 3)))
    for _, c in v.terms:
        assert type(c) is Fraction and math.gcd(c.numerator, c.denominator) == 1
    assert v.constant == Fraction(1, 3)
    # one denominator, the lcm of the reduced ones, and coprime to the integers
    assert (v._primes, v._ints, v._den) == ((2, 3, 7), (-3, 18, 4), 6)
    assert (LogCombination(5)._primes, LogCombination(5)._den) == ((), 1)
    # the arithmetic keeps the form canonical
    w = v + LogCombination(0, {7: Fraction(-2, 3), 2: Fraction(1, 2)})
    assert (w._primes, w._ints, w._den) == ((3,), (3,), 1)
    assert (v.scale(0)._primes, v.scale(0)._den) == ((), 1)
    assert v.scale(Fraction(-2, 5)).terms == tuple((p, c * Fraction(-2, 5)) for p, c in v.terms)


def test_logcomb_is_immutable():
    v = LogCombination(1, {2: 1})
    for name in ("constant", "terms", "_ints", "_den", "other"):
        with pytest.raises(AttributeError):
            setattr(v, name, 0)
    with pytest.raises(AttributeError):
        del v.constant
    assert v == LogCombination(1, {2: 1}) and hash(v) == hash(LogCombination(1, {2: 1}))
    assert copy.deepcopy(v) == v and pickle.loads(pickle.dumps(v)) == v


def test_logcomb_merges_duplicate_primes():
    v = LogCombination(0, [(2, Fraction(1)), (2, Fraction(-1))])
    assert v.is_zero()


@pytest.mark.parametrize(
    "base, reason",
    [(0, "a prime"), (1, "a prime"), (-3, "a prime"), (9, "a prime"), (PSI_13, "a certified prime"),
     (3.0, "an int"), (Fraction(3), "an int"), (True, "an int")],
)
def test_logcomb_refuses_log_bases_that_are_not_prime(base, reason):
    # a base that is not prime would break the uniqueness == relies on:
    # 1 * log(9) and 2 * log(3) are one value; nor may 3.0 stand for 3,
    # which would print as log(3.0) yet compare equal to log(3)
    with pytest.raises(ValueError, match=re.escape(f"log base {base!r} is not {reason}")):
        LogCombination(0, {base: 1})
    assert dict(LogCombination(0, {999999999989: 1}).terms) == {999999999989: 1}


def test_log_of_rational_four_thirds():
    v = log_of_rational(Fraction(4, 3))
    assert v.constant == 0
    assert dict(v.terms) == {2: 2, 3: -1}


def test_log_of_rational_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_of_rational(Fraction(-1, 2))


def test_log_of_rational_is_homomorphism():
    rng = random.Random(502)
    for _ in range(200):
        x = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        y = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        assert log_of_rational(x * y) == log_of_rational(x) + log_of_rational(y)
        assert log_of_rational(x / y) == log_of_rational(x) - log_of_rational(y)


def test_logcomb_vector_laws_randomized():
    rng = random.Random(503)

    def rand_comb():
        terms = {
            rng.choice([2, 3, 5, 7]): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(rng.randint(0, 3))
        }
        return LogCombination(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), terms)

    for _ in range(300):
        u, v, w = rand_comb(), rand_comb(), rand_comb()
        s = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        assert u + v == v + u
        assert (u + v) + w == u + (v + w)
        assert (u - v) + v == u
        assert (u + v).scale(s) == u.scale(s) + v.scale(s)
        assert s * u == u.scale(s)


def test_logcomb_str():
    assert str(LogCombination.zero()) == "0"
    assert str(log_of_rational(Fraction(4, 3))) == "2*log(2) - 1*log(3)"
    assert str(LogCombination(-2, {2: 14, 3: -7})) == "-2 + 14*log(2) - 7*log(3)"
    assert str(LogCombination(0, {3: -1})) == "-1*log(3)"
    assert str(LogCombination(0, {2: Fraction(-1, 2), 3: 1})) == "-1/2*log(2) + 1*log(3)"


# -- float conversion ------------------------------------------------------------


def test_logcomb_to_float_reference_value():
    v = log_of_rational(Fraction(4, 3))
    got = logcomb_to_float(v, 128)
    with mpmath.workprec(128):
        want = mpmath.log(mpmath.mpf(4) / 3)
        assert abs(got - want) <= 2 * mpmath.eps * abs(want)
    assert mpmath.nstr(got, 17).startswith("0.28768207245178093")


def test_logcomb_to_float_rational_and_zero():
    assert logcomb_to_float(LogCombination(Fraction(5, 4)), 64) == mpmath.mpf("1.25")
    assert logcomb_to_float(LogCombination.zero(), 64) == 0


def _fraction_terms_to_float(constant, terms, precision_bits):
    # the float conversion as written over (prime, Fraction) terms, before
    # LogCombination kept its logs as integers over one denominator
    coeff_bits = max(
        [abs(constant.numerator).bit_length()]
        + [abs(c.numerator).bit_length() for _, c in terms],
        default=1,
    )
    guard = 64 + coeff_bits + len(terms).bit_length()

    def attempt(workbits):
        with mpmath.workprec(workbits):
            total = mpmath.mpf(constant.numerator) / constant.denominator
            for p, c in terms:
                total += mpmath.ln(p) * mpmath.mpf(c.numerator) / c.denominator
            return total

    if constant == 0 and not terms:
        return mpmath.mpf(0)
    first = attempt(precision_bits + guard)
    if first == 0:
        cancellation = precision_bits + guard
    else:
        magnitude = max([abs(constant)] + [abs(c) * 2 for _, c in terms])
        with mpmath.workprec(64):
            cancellation = max(
                0, int(mpmath.log(mpmath.mpf(magnitude.numerator) / magnitude.denominator / abs(first), 2)) + 8
            )
    final = attempt(precision_bits + guard + cancellation)
    with mpmath.workprec(precision_bits):
        return +final


def test_logcomb_to_float_bits_match_the_fraction_term_evaluation():
    from telescopic import closed_form_recurrence, propagate_recurrence

    params = ParameterPair(Fraction(7, 2), Fraction(1, 3))
    right = make_right_family(params)
    values = propagate_recurrence(
        closed_form_recurrence(params), [integrate_01(right.at(0)), integrate_01(right.at(1))], 30
    )
    values += [integrate_01(make_left_family(params).at(n)) for n in range(6)]
    rng = random.Random(1913)
    for _ in range(40):
        terms = {rng.choice([2, 3, 5, 7, 11, 1000003]): Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
                 for _ in range(rng.randint(0, 4))}
        values.append(LogCombination(Fraction(rng.randint(-99, 99), rng.randint(1, 99)), terms))
    for value in values:
        for bits in (64, 256):
            got = logcomb_to_float(value, bits)
            want = _fraction_terms_to_float(value.constant, value.terms, bits)
            assert (got.man, got.exp) == (want.man, want.exp), value


def test_logcomb_to_float_survives_catastrophic_cancellation():
    # p*log(4/3) - q with ~47 cancelling digits: the values are the
    # telescoped integrals, known positive and tiny
    from telescopic import ParameterPair, closed_form_recurrence, propagate_recurrence

    params = ParameterPair(2, 1)
    right = make_right_family(params)
    rec = closed_form_recurrence(params)
    values = propagate_recurrence(
        rec, [integrate_01(right.at(0)), integrate_01(right.at(1))], 40
    )
    got = logcomb_to_float(values[40], 64)
    # reference needs enough precision to absorb the ~152-bit coefficients
    with mpmath.workprec(800):
        lam = mpmath.log(mpmath.mpf(4) / 3)
        p = dict(values[40].terms)
        want = (
            mpmath.mpf(values[40].constant.numerator) / values[40].constant.denominator
            + (mpmath.mpf(p[2].numerator) / p[2].denominator) * mpmath.ln(2)
            + (mpmath.mpf(p[3].numerator) / p[3].denominator) * mpmath.ln(3)
        )
    assert want > 0
    assert abs(got - want) < abs(want) * mpmath.mpf(2) ** -60


def test_logcomb_to_float_requires_64_bits():
    with pytest.raises(ValueError):
        logcomb_to_float(LogCombination.zero(), 32)


# -- rational roots ---------------------------------------------------------------


def test_rational_roots_with_multiplicities():
    p = Poly.from_roots([Fraction(1, 2), Fraction(1, 2), -3])
    assert rational_roots(p) == [(-3, 1), (Fraction(1, 2), 2)]
    p = Poly([3, 1]) ** 9 * Poly([-1, 2]) ** 2  # (x+3)^9 (2x-1)^2
    assert rational_roots(p) == [(-3, 9), (Fraction(1, 2), 2)]


def test_rational_roots_ignores_irrational_factors():
    p = Poly([2, 0, 1]) * Poly([-1, 1])  # (x^2+2)(x-1)
    assert rational_roots(p) == [(1, 1)]


def test_rational_roots_random_products():
    rng = random.Random(504)
    for _ in range(100):
        roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
        scale = Fraction(rng.randint(1, 5))
        p = scale * Poly.from_roots(roots)
        found = rational_roots(p)
        assert sorted(r for r, m in found for _ in range(m)) == sorted(roots)


# (x + 2)(x + 1000003)(x + 1000033): the constant term 2 * 1000003 * 1000033
# is past trial division to 10**6, so its divisors need rho
WIDE_ROOTS = [Fraction(-1000033), Fraction(-1000003), Fraction(-2)]


def test_rational_roots_past_trial_division():
    den = Poly.from_roots(WIDE_ROOTS)
    assert rational_roots(den) == [(root, 1) for root in WIDE_ROOTS]
    form = partial_fractions(RatFunc(Poly.one(), den))
    assert [(term.root, term.multiplicity) for term in form.pole_terms] == [(root, 1) for root in WIDE_ROOTS]
    assert form.reassemble() == RatFunc(Poly.one(), den)


# -- partial fractions -------------------------------------------------------------


def test_partial_fractions_spec_shape():
    # x(1-x)/(x+3)^2 = -1 + 7/(x+3) - 12/(x+3)^2
    f = RatFunc(Poly([0, 1, -1]), Poly([9, 6, 1]))
    form = partial_fractions(f)
    assert form.polynomial_part == Poly([-1])
    assert set(form.pole_terms) == {
        PoleTerm(Fraction(-3), 1, Fraction(7)),
        PoleTerm(Fraction(-3), 2, Fraction(-12)),
    }
    assert form.reassemble() == f


def test_partial_fractions_round_trip_randomized():
    rng = random.Random(505)
    for _ in range(200):
        # assemble from random pole terms and a random polynomial part
        terms: dict[tuple[Fraction, int], Fraction] = {}
        for _ in range(rng.randint(1, 4)):
            root = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            mult = rng.randint(1, 3)
            coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            if coeff != 0:
                terms[(root, mult)] = terms.get((root, mult), Fraction(0)) + coeff
        form = PartialFractionForm(
            random_poly(rng, max_degree=2),
            tuple(
                PoleTerm(r, m, c) for (r, m), c in sorted(terms.items()) if c != 0
            ),
        )
        f = form.reassemble()
        if f.is_zero():
            continue
        again = partial_fractions(f)
        assert again.reassemble() == f


def test_partial_fractions_requires_rational_roots():
    f = RatFunc(Poly.one(), Poly([1, 0, 1]))  # 1/(x^2+1)
    with pytest.raises(NonRationalRootError, match="no rational root"):
        partial_fractions(f)


# -- the integral -------------------------------------------------------------------


def test_integral_left_base_case():
    # dx/((x+2)(x+1)) -> log(4/3)
    value = integrate_01(RatFunc(Poly.one(), Poly([2, 3, 1])))
    assert value == LogCombination(0, {2: 2, 3: -1})


def test_integral_right_base_case_equals_left():
    left = integrate_01(RatFunc(Poly.one(), Poly([2, 3, 1])))
    right = integrate_01(RatFunc(Poly.one(), Poly([3, 1])))
    assert right == LogCombination(0, {2: 2, 3: -1})
    assert left == right


def test_integral_right_n1_value():
    # x(1-x)/(x+3)^2 -> 7 log(4/3) - 2
    value = integrate_01(RatFunc(Poly([0, 1, -1]), Poly([9, 6, 1])))
    assert value == LogCombination(-2, {2: 14, 3: -7})


def test_integral_of_zero_and_polynomials():
    assert integrate_01(RatFunc.zero()).is_zero()
    assert integrate_01(RatFunc(Poly([1, 2, 3]))) == LogCombination(3)
    assert integrate_01(RatFunc(Poly([0, 1]))) == LogCombination(Fraction(1, 2))


def test_integral_divergent_pole_inside():
    with pytest.raises(DivergentIntegralError, match="pole in"):
        integrate_01(RatFunc(Poly.one(), Poly([Fraction(-1, 2), 1])))
    with pytest.raises(DivergentIntegralError):
        integrate_01(RatFunc(Poly.one(), Poly([0, 1])))  # pole at x=0
    with pytest.raises(DivergentIntegralError):
        integrate_01(RatFunc(Poly.one(), Poly([-1, 1])))  # pole at x=1


def test_integral_pole_inside_is_reported_before_a_non_rational_factor():
    x_squared_plus_2 = Poly([2, 0, 1])
    with pytest.raises(DivergentIntegralError, match="pole in"):
        # 1/((x - 1/2)(x^2 + 2)): rational pole inside, irrational factor
        integrate_01(RatFunc(Poly.one(), Poly([Fraction(-1, 2), 1]) * x_squared_plus_2))
    with pytest.raises(DivergentIntegralError, match="pole in"):
        # 1/(x^2 - 1/2): the pole 1/sqrt(2) is irrational and inside
        integrate_01(RatFunc(Poly.one(), Poly([Fraction(-1, 2), 0, 1])))
    with pytest.raises(DivergentIntegralError, match="pole in"):
        # (2x - 1)(x^2 + P): the pole 1/2 is inside, and the quadratic has
        # no rational root; the divisors of P = 1000003 * 1000033 need rho
        big = 1000003 * 1000033
        integrate_01(RatFunc(Poly.one(), Poly([-1, 2]) * Poly([big, 0, 1])))
    with pytest.raises(NonRationalRootError, match="no rational root"):
        # 1/((x + 2)(x^2 + 2)): no pole in [0, 1], one irrational factor
        integrate_01(RatFunc(Poly.one(), Poly([2, 1]) * x_squared_plus_2))


def test_integral_with_roots_past_trial_division():
    f = RatFunc(Poly.one(), Poly.from_roots(WIDE_ROOTS))
    expected = LogCombination.zero()
    for root, _, coeff in partial_fractions(f).pole_terms:
        expected += coeff * log_of_rational((1 - root) / -root)
    assert integrate_01(f) == expected
    assert not expected.is_zero()


def test_integral_finds_the_poles_with_one_gcd_and_no_sturm_chain(monkeypatch):
    f = make_left_family(ParameterPair(2, 1)).at(8)  # denominator of degree 18
    calls = count_calls(monkeypatch, "poly_gcd", "sturm_root_count")
    integrate_01(f)
    assert calls["poly_gcd"] == 1
    assert calls["sturm_root_count"] == 0


def test_integral_additivity_randomized():
    rng = random.Random(506)
    for _ in range(60):
        fs = []
        for _ in range(2):
            roots = [
                rng.choice([-1, -2, -3, 2, 3, Fraction(-1, 2), Fraction(3, 2)])
                for _ in range(rng.randint(1, 2))
            ]
            den = Poly.from_roots(roots)
            fs.append(RatFunc(random_poly(rng, max_degree=2), den))
        f, g = fs
        assert integrate_01(f + g) == integrate_01(f) + integrate_01(g)


def test_integral_fundamental_theorem_randomized():
    # f = G' for rational G with poles outside [0, 1]; the integral must
    # equal G(1) - G(0) with an empty log part
    rng = random.Random(507)
    for _ in range(60):
        root = rng.choice([-1, -2, 2, 3, Fraction(-3, 2), Fraction(5, 2)])
        g = RatFunc(
            random_poly(rng, max_degree=3),
            Poly([-root, 1]) ** rng.randint(1, 3),
        )
        value = integrate_01(g.derivative())
        assert value == LogCombination(g(1) - g(0))


def test_integral_span_invariant_randomized():
    # every integral in either family is p*Lambda - q: its log part is a
    # rational multiple of Lambda's
    rng = random.Random(508)
    for _ in range(3):
        params = random_params(rng, bound=9)
        lam = dict(integrate_01(make_right_family(params).at(0)).terms)
        assert lam
        anchor = next(iter(lam))
        for fam in (make_left_family(params), make_right_family(params)):
            for n in range(11):
                val = dict(integrate_01(fam.at(n)).terms)
                ratio = val.get(anchor, Fraction(0)) / lam[anchor]
                assert val == {p: ratio * c for p, c in lam.items() if ratio * c}


def test_integral_matches_quadrature():
    from telescopic import quad_01

    rng = random.Random(509)
    for _ in range(5):
        params = random_params(rng, bound=9)
        fam = make_left_family(params)
        for n in (0, 2):
            f = fam.at(n)
            exact = float(logcomb_to_float(integrate_01(f), 64))
            assert abs(exact - quad_01(f, 1e-12).value) < 1e-10


def test_integral_and_partial_fractions_agree_with_sympy():
    # roots -23/7 and -11/13, so every Taylor shift is by a rational offset
    # and runs through the scaled integer path.  sympy's apart and ratint
    # take more than a minute at n = 40, so they are compared at n = 8;
    # at n = 40 sympy checks the decomposition by exact polynomial
    # arithmetic and mpmath's quadrature at 80 digits checks the value.
    sympy = pytest.importorskip("sympy")
    from sympy.integrals.rationaltools import ratint

    x = sympy.Symbol("x")

    def q(value):
        return sympy.Rational(value.numerator, value.denominator)

    a, b = Fraction(23, 7), Fraction(11, 13)
    family = make_left_family(ParameterPair(a, b))

    n = 8
    f = family.at(n)
    expr = x**n * (1 - x) ** n / ((x + q(a)) * (x + q(b))) ** (n + 1)
    expected = set()
    for term in sympy.Add.make_args(sympy.apart(expr, x)):
        num, den = term.as_numer_denom()
        scale, [(base, power)] = sympy.factor_list(den, x)
        linear = sympy.Poly(base, x)
        lead = linear.LC()
        expected.add((-linear.TC() / lead, power, num / (scale * lead**power)))
    form = partial_fractions(f)
    assert form.polynomial_part.is_zero()
    assert {(q(t.root), t.multiplicity, q(t.coefficient)) for t in form.pole_terms} == expected
    antiderivative = ratint(expr, x)
    value = integrate_01(f)
    ours = q(value.constant) + sum(q(c) * sympy.log(p) for p, c in value.terms)
    reference = antiderivative.subs(x, 1) - antiderivative.subs(x, 0)
    assert sympy.expand_log(reference - ours, force=True, factor=True) == 0

    n = 40
    f = family.at(n)
    form = partial_fractions(f)
    assert form.polynomial_part.is_zero()

    def to_sympy(p):
        return sympy.Poly([q(c) for c in reversed(p.coeffs)], x, domain="QQ")

    den = to_sympy(f.den)
    total = sympy.Poly(0, x, domain="QQ")
    for term in form.pole_terms:
        linear = sympy.Poly([1, -q(term.root)], x, domain="QQ")
        total += den.exquo(linear**term.multiplicity) * q(term.coefficient)
    assert total == to_sympy(f.num)
    with mpmath.workdps(80):
        shift_a, shift_b = mpmath.mpf(q(a)), mpmath.mpf(q(b))
        numeric = mpmath.quad(
            lambda t: (t * (1 - t)) ** n / ((t + shift_a) * (t + shift_b)) ** (n + 1), [0, 1]
        )
        exact = logcomb_to_float(integrate_01(f), 300)
        assert abs(numeric - exact) < mpmath.mpf(10) ** -60 * abs(exact)
