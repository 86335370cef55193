"""Floating-point cross-checks: the adaptive Gauss pair on [0, 1]."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import telescopic
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
    with pytest.raises(ValueError, match="max_subdivisions"):
        quad_01(f, max_subdivisions=0)


def test_tolerance_not_met_carries_best_result():
    f = RatFunc(Poly.one(), Poly([Fraction(1, 1000), 1]))
    with pytest.raises(ToleranceNotMetError, match="tolerance not met") as info:
        quad_01(f, tol=1e-12, max_subdivisions=3)
    result = info.value.result
    assert isinstance(result, QuadratureResult)
    assert result.subdivisions <= 3
    assert result.error_estimate > 1e-12
    # the partial answer is still in the right ballpark
    assert abs(result.value - 6.908754779315) < 1.0


def test_importing_the_package_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(telescopic.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", "import telescopic, sys; assert 'scipy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
