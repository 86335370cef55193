"""Shared helpers: seeded generators for rationals, polynomials, and
rational functions, the integer rows of a pencil, and a call counter.
Every randomized test builds its own random.Random(seed) so failures
reproduce exactly.
"""

from __future__ import annotations

import importlib.util
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from telescopic import ParameterPair, Poly, RatFunc


def random_fraction(rng: random.Random, bound: int = 50, signed: bool = False) -> Fraction:
    num = rng.randint(1, bound)
    if signed and rng.random() < 0.5:
        num = -num
    return Fraction(num, rng.randint(1, bound))


def random_params(rng: random.Random, bound: int = 50) -> ParameterPair:
    """A random pair a > b > 0 with numerators and denominators <= bound."""
    while True:
        x = random_fraction(rng, bound)
        y = random_fraction(rng, bound)
        if x != y:
            return ParameterPair(max(x, y), min(x, y))


def random_poly(
    rng: random.Random,
    max_degree: int = 4,
    bound: int = 9,
    nonzero: bool = False,
) -> Poly:
    degree = rng.randint(0, max_degree)
    coeffs = [Fraction(rng.randint(-bound, bound)) for _ in range(degree + 1)]
    p = Poly(coeffs)
    while nonzero and p.is_zero():
        p = random_poly(rng, max_degree, bound, nonzero=False)
    return p


def random_ratfunc(rng: random.Random, max_degree: int = 3, bound: int = 9) -> RatFunc:
    return RatFunc(
        random_poly(rng, max_degree, bound),
        random_poly(rng, max_degree, bound, nonzero=True),
    )


def pencil_rows(pencil) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The A rows and B rows of a pencil of columns A_i + n * B_i given as
    pairs of Polys, row e the x^e coefficients, as integers over the least
    common denominator of all the coefficients."""
    nrows = max(max(a.degree(), b.degree()) for a, b in pencil) + 1
    den = math.lcm(*(c.denominator for column in pencil for p in column for c in p.coeffs))
    return tuple(
        [tuple(int(p[e] * den) for p in polys) for e in range(nrows)] for polys in zip(*pencil)
    )


def count_calls(monkeypatch, *names: str) -> Counter:
    """Calls of the named functions from here on, counted in every
    telescopic module that binds them."""
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for module in [m for key, m in sys.modules.items() if key.startswith("telescopic")]:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def benchmark_workloads(monkeypatch):
    """The benchmark's workloads module, perfbench/workloads.py, loaded
    from this checkout."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module
