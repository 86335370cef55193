"""Adaptive numerical quadrature over [0, 1] — the floating sanity oracle.

Every exact integral in the package can be shadowed by this module.  It
is double precision only and never part of a proof; its job is catching
gross implementation bugs in the exact path.

The rule is an embedded Gauss pair (7- and 15-point Gauss–Legendre):
the high-order value is kept, the difference to the low-order value is
the panel error estimate.  Panels are bisected until each panel's
estimate is below tol * width (so the accepted total is below tol) or
the panel cap is hit, in which case an explicit tolerance-not-met error
carries the best available result.  Panel results are accumulated
left-to-right with exact float summation for reproducibility.

The nodes and weights are computed once at import, by Newton's method
on the three-term Legendre recurrence.  The integrand is evaluated at
each node exactly, in integers, and rounded to a float once: a node is
a dyadic rational m / 2^k, so numerator and denominator values scaled
by a power of 2^k are integers, and their quotient rounds correctly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PoleError, ToleranceNotMetError
from .polynomials import has_root_in_unit_interval
from .ratfuncs import RatFunc


def _gauss_legendre(m: int) -> tuple[list[float], list[float]]:
    """Ascending nodes and their weights of the m-point rule on [-1, 1]."""
    nodes, weights = [0.0] * m, [0.0] * m
    for i in range((m + 1) // 2):
        x = math.cos(math.pi * (i + 0.75) / (m + 0.5))  # near the i-th largest root
        for _ in range(8):  # Newton converges to rounding level within 5 steps
            p_prev, p = 1.0, x  # P_{k-1}(x), P_k(x), stepped up to k = m
            for k in range(2, m + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            slope = m * (x * p - p_prev) / (x * x - 1)
            x -= p / slope
        nodes[i], nodes[m - 1 - i] = -x, x
        weights[i] = weights[m - 1 - i] = 2 / ((1 - x * x) * slope * slope)
    return nodes, weights


_LOW_NODES, _LOW_WEIGHTS = _gauss_legendre(7)
_HIGH_NODES, _HIGH_WEIGHTS = _gauss_legendre(15)

DEFAULT_MAX_SUBDIVISIONS = 10**4


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions: int


def _dyadic_value(coeffs: list[int], m: int, k: int) -> int:
    """2^(k*d) * p(m / 2^k) for the coefficients of p, ascending, d + 1 of them."""
    acc, shift = coeffs[-1], 0
    for c in reversed(coeffs[:-1]):
        shift += k
        acc = acc * m + (c << shift)
    return acc


def quad_01(f: RatFunc, tol: float = 1e-12) -> QuadratureResult:
    """Adaptive integral of f over [0, 1] with an embedded error estimate.

    Requires tol >= 1e-14 (double precision floor) and f pole-free on
    [0, 1], which is checked exactly before any floating evaluation.
    """
    if not tol >= 1e-14:  # false for NaN as well
        raise ValueError("tol must be >= 1e-14")
    if has_root_in_unit_interval(f.den):
        raise PoleError(f"integrand has a pole in [0, 1]: denominator {f.den}")

    # f = (den_scale * num) / (num_scale * den) for the stored integers num
    # and den over their denominators num_scale and den_scale, padded with
    # zeros to one length so that both are valued as homogeneous forms of
    # the same degree
    num, den = list(f.num._ints), list(f.den._ints)
    length = max(len(num), len(den))
    num, den = num + [0] * (length - len(num)), den + [0] * (length - len(den))
    num_scale, den_scale = f.num._den, f.den._den

    def evaluate(t: float) -> float:
        m, two_k = t.as_integer_ratio()
        k = two_k.bit_length() - 1
        return (den_scale * _dyadic_value(num, m, k)) / (
            num_scale * _dyadic_value(den, m, k)
        )

    def rule(mid: float, half: float, nodes: list[float], weights: list[float]) -> float:
        return half * math.fsum(w * evaluate(mid + half * x) for x, w in zip(nodes, weights))

    def panel(lo: float, hi: float) -> tuple[float, float]:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        low = rule(mid, half, _LOW_NODES, _LOW_WEIGHTS)
        high = rule(mid, half, _HIGH_NODES, _HIGH_WEIGHTS)
        return high, abs(high - low)

    leaves: list[tuple[float, float]] = []  # (value, estimate), left-to-right
    stack = [(0.0, 1.0)]
    while stack:
        lo, hi = stack.pop()
        value, estimate = panel(lo, hi)
        width = hi - lo
        can_split = len(leaves) + len(stack) + 2 <= DEFAULT_MAX_SUBDIVISIONS
        if estimate <= tol * width or not can_split:
            leaves.append((value, estimate))
        else:
            mid = 0.5 * (lo + hi)
            stack.append((mid, hi))
            stack.append((lo, mid))  # popped first: left-to-right order
    result = QuadratureResult(
        value=math.fsum(v for v, _ in leaves),
        error_estimate=math.fsum(e for _, e in leaves),
        subdivisions=len(leaves),
    )
    if result.error_estimate > tol:
        raise ToleranceNotMetError(
            f"tolerance not met: estimate {result.error_estimate:.3e} > "
            f"tol {tol:.3e} after {result.subdivisions} panels "
            f"(best value {result.value!r})",
            result,
        )
    return result
