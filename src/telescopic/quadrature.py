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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre, polynomial as npoly

from .errors import PoleError, ToleranceNotMetError
from .polynomials import sturm_root_count
from .ratfuncs import RatFunc

_LOW_NODES, _LOW_WEIGHTS = legendre.leggauss(7)
_HIGH_NODES, _HIGH_WEIGHTS = legendre.leggauss(15)

DEFAULT_MAX_SUBDIVISIONS = 10**4


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions: int


def quad_01(
    f: RatFunc, tol: float = 1e-12, max_subdivisions: int = DEFAULT_MAX_SUBDIVISIONS
) -> QuadratureResult:
    """Adaptive integral of f over [0, 1] with an embedded error estimate.

    Requires tol >= 1e-14 (double precision floor) and f pole-free on
    [0, 1], which is checked exactly before any floating evaluation.
    """
    if tol < 1e-14:
        raise ValueError("tol must be >= 1e-14")
    if max_subdivisions < 1:
        raise ValueError("max_subdivisions must be positive")
    if f.den.degree() > 0 and (f.den(0) == 0 or sturm_root_count(f.den, 0, 1) > 0):
        raise PoleError(f"integrand has a pole in [0, 1]: denominator {f.den}")

    num_coeffs = np.array([float(c) for c in f.num.coeffs] or [0.0])
    den_coeffs = np.array([float(c) for c in f.den.coeffs])

    def evaluate(points: np.ndarray) -> np.ndarray:
        return npoly.polyval(points, num_coeffs) / npoly.polyval(points, den_coeffs)

    def panel(lo: float, hi: float) -> tuple[float, float]:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        low = half * float(_LOW_WEIGHTS @ evaluate(mid + half * _LOW_NODES))
        high = half * float(_HIGH_WEIGHTS @ evaluate(mid + half * _HIGH_NODES))
        return high, abs(high - low)

    leaves: list[tuple[float, float]] = []  # (value, estimate), left-to-right
    stack = [(0.0, 1.0)]
    while stack:
        lo, hi = stack.pop()
        value, estimate = panel(lo, hi)
        width = hi - lo
        can_split = len(leaves) + len(stack) + 2 <= max_subdivisions
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
