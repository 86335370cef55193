"""Exception hierarchy shared across the package.

Every domain-specific failure derives from ``TelescopicError`` so the
proof pipeline can convert any sub-step failure into a failed verdict
naming the step, rather than letting exceptions escape silently.
"""

from __future__ import annotations


class TelescopicError(Exception):
    """Base class for all domain errors raised by this package."""


class PoleError(TelescopicError, ZeroDivisionError):
    """A rational function was evaluated at a pole."""


class NonRationalRootError(TelescopicError):
    """A denominator factor has no rational root, so partial fractions
    over Q are impossible; the message names the offending factor."""


class FactorBoundExceededError(TelescopicError):
    """factorize could not certify a factorization: trial division up to
    10**6 leaves a cofactor at or above PSI_13, where strong probable-prime
    tests no longer prove primality."""


class DivergentIntegralError(TelescopicError):
    """The integrand has a pole inside the integration interval."""


class SingularRecurrenceError(TelescopicError):
    """The leading recurrence coefficient vanishes at a step that the
    forward propagation needs."""


class AnsatzExhaustedError(TelescopicError):
    """No telescoping relation was found within the configured bounds."""

    def __init__(self, max_order: int, max_cert_degree: int):
        self.max_order = max_order
        self.max_cert_degree = max_cert_degree
        super().__init__(
            "ansatz exhausted: no telescoping relation with order "
            f"<= {max_order} and certificate numerator degree <= {max_cert_degree}"
        )


class SpanError(TelescopicError):
    """A value expected to lie in the Q-span of {1, the target log} does
    not — the approximant decomposition is impossible."""


class ToleranceNotMetError(TelescopicError):
    """Adaptive quadrature hit its subdivision cap before reaching the
    requested tolerance; carries the best result obtained."""

    def __init__(self, message: str, result):
        self.result = result
        super().__init__(message)
