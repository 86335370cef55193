"""Floating-point cross-checks: the adaptive Gauss pair on [0, 1]."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import telescopic
from telescopic import quadrature
from conftest import random_params
from telescopic import (
    ParameterPair,
    PoleError,
    Poly,
    QuadratureResult,
    RatFunc,
    ToleranceNotMetError,
    integrate_01,
    logcomb_to_float,
    make_left_family,
    make_right_family,
    quad_01,
)


def test_monomial_reference():
    result = quad_01(RatFunc(Poly([0, 1])))
    assert abs(result.value - 0.5) < 1e-14
    assert result.subdivisions >= 1


def test_polynomials_exact_on_single_panel():
    # the 7-point rule is exact through degree 13, so the embedded
    # estimate vanishes and no panel ever splits
    rng = random.Random(801)
    for _ in range(25):
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 14))]
        poly = Poly(coeffs)
        exact = float(sum(c / (i + 1) for i, c in enumerate(coeffs)))
        result = quad_01(RatFunc(poly))
        assert result.subdivisions == 1
        assert abs(result.value - exact) < 1e-13


def test_left_family_reference_value():
    fam = make_left_family(ParameterPair(2, 1))
    result = quad_01(fam.at(0))
    assert abs(result.value - 0.28768207245178093) < 1e-12


def test_right_family_reference_value():
    fam = make_right_family(ParameterPair(2, 1))
    result = quad_01(fam.at(1))
    # exact value is 7 log(4/3) - 2
    assert abs(result.value - 0.013774507162466488) < 1e-12


def test_agrees_with_exact_integration():
    rng = random.Random(802)
    params = random_params(rng, bound=9)
    for fam in (make_left_family(params), make_right_family(params)):
        for n in range(7):
            exact = float(logcomb_to_float(integrate_01(fam.at(n)), 64))
            result = quad_01(fam.at(n))
            assert abs(result.value - exact) < max(1e-12, 1e-11)


def test_rejects_poles_inside_interval():
    for den in (Poly([0, 1]), Poly([Fraction(-1, 2), 1]), Poly([-1, 1])):
        with pytest.raises(PoleError, match="pole in"):
            quad_01(RatFunc(Poly.one(), den))


def test_pole_just_outside_is_fine():
    # den = x + 1/1000 has no root in [0, 1]; integral = log(1001)
    f = RatFunc(Poly.one(), Poly([Fraction(1, 1000), 1]))
    result = quad_01(f, tol=1e-10)
    assert abs(result.value - math.log(1001.0)) < 1e-8


def test_validates_arguments():
    f = RatFunc(Poly([0, 1]))
    with pytest.raises(ValueError, match="tol"):
        quad_01(f, tol=1e-15)


def test_refuses_a_nan_tolerance():
    # no comparison with NaN holds, so an unchecked NaN would run the whole
    # panel cap and pass its final tolerance check
    with pytest.raises(ValueError, match="tol"):
        quad_01(RatFunc(Poly([0, 1])), tol=float("nan"))


def test_tolerance_not_met_carries_best_result(monkeypatch):
    monkeypatch.setattr(quadrature, "DEFAULT_MAX_SUBDIVISIONS", 3)
    f = RatFunc(Poly.one(), Poly([Fraction(1, 1000), 1]))
    with pytest.raises(ToleranceNotMetError, match="tolerance not met") as info:
        quad_01(f, tol=1e-12)
    result = info.value.result
    assert isinstance(result, QuadratureResult)
    assert result.subdivisions <= 3
    assert result.error_estimate > 1e-12
    # the partial answer is still in the right ballpark
    assert abs(result.value - 6.908754779315) < 1.0


def test_small_denominator_integrand_within_its_error_estimate():
    # evaluating expanded coefficients in double precision once put this
    # 2.4e-11 off while reporting an error estimate of 3.7e-13
    f = make_right_family(ParameterPair(Fraction(5, 9), Fraction(11, 49))).at(16)
    exact = float(logcomb_to_float(integrate_01(f), 64))
    result = quad_01(f)
    assert abs(result.value - exact) < 1e-11
    assert abs(result.value - exact) <= result.error_estimate


@pytest.mark.parametrize(
    "nodes, weights",
    [
        (quadrature._LOW_NODES, quadrature._LOW_WEIGHTS),
        (quadrature._HIGH_NODES, quadrature._HIGH_WEIGHTS),
    ],
    ids=["7-point", "15-point"],
)
def test_rule_integrates_monomials_exactly(nodes, weights):
    # an m-point Gauss rule is exact for x^k, k <= 2m - 1, on [-1, 1]
    assert nodes == sorted(nodes) and len(nodes) == len(weights)
    for k in range(2 * len(nodes)):
        exact = 2 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(math.fsum(w * x**k for x, w in zip(nodes, weights)) - exact) < 1e-15


@pytest.mark.parametrize("module", ["scipy", "numpy"])
def test_importing_the_package_does_not_load(module):
    src = os.path.dirname(os.path.dirname(telescopic.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", f"import telescopic, sys; assert {module!r} not in sys.modules"],
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
