"""Exact creative telescoping for a two-parameter family of integrals.

The package proves, entirely in rational arithmetic, that

    I1(n) = int_0^1 x^n (1-x)^n / ((x+a)(x+b))^(n+1) dx
    I2(n) = int_0^1 x^n (1-x)^n / ((a-b)x + (a+1)b)^(n+1) dx

agree for every n >= 0 and every rational a > b > 0.  Both sides
satisfy one three-term recurrence, exhibited through telescoping
certificates that are either verified from closed form or rediscovered
from scratch by a linear-algebra ansatz.  The same machinery yields
rational approximations p*log(1 + (a-b)/((a+1)b)) - q with certified
error |I2(n)| and an adaptive Gauss-Legendre cross-check in floats.
"""

from ._version import __version__
from .approximants import (
    ApproximantRow,
    approximant_table,
    decay_rate_estimate,
    decompose_against,
    rows_to_csv,
    target_constant,
)
from .errors import (
    AnsatzExhaustedError,
    DivergentIntegralError,
    FactorBoundExceededError,
    NonRationalRootError,
    PoleError,
    SingularRecurrenceError,
    SpanError,
    TelescopicError,
    ToleranceNotMetError,
)
from .families import (
    IntegrandFamily,
    ParameterPair,
    make_left_family,
    make_right_family,
)
from .integration import (
    LogCombination,
    PartialFractionForm,
    PoleTerm,
    factorize,
    integrate_01,
    log_of_rational,
    logcomb_to_float,
    partial_fractions,
    rational_roots,
)
from .polynomials import Poly, poly_gcd, sturm_root_count
from .prove import (
    ProofObject,
    propagate_recurrence,
    prove_identity,
    reverify_proof,
    verify_substitution_proof,
)
from .quadrature import QuadratureResult, quad_01
from .ratfuncs import RatFunc
from .serialize import proof_from_json, proof_to_json
from .telescoping import (
    Certificate,
    Recurrence,
    closed_form,
    closed_form_certificates,
    closed_form_recurrence,
    discover,
    normalize_pair,
    solve_nullspace,
    verify_telescoping,
)

__all__ = [
    "__version__",
    "AnsatzExhaustedError",
    "ApproximantRow",
    "Certificate",
    "DivergentIntegralError",
    "FactorBoundExceededError",
    "IntegrandFamily",
    "LogCombination",
    "NonRationalRootError",
    "ParameterPair",
    "PartialFractionForm",
    "Poly",
    "PoleError",
    "PoleTerm",
    "ProofObject",
    "QuadratureResult",
    "RatFunc",
    "Recurrence",
    "SingularRecurrenceError",
    "SpanError",
    "TelescopicError",
    "ToleranceNotMetError",
    "approximant_table",
    "closed_form",
    "closed_form_certificates",
    "closed_form_recurrence",
    "decay_rate_estimate",
    "decompose_against",
    "discover",
    "factorize",
    "integrate_01",
    "log_of_rational",
    "logcomb_to_float",
    "make_left_family",
    "make_right_family",
    "normalize_pair",
    "partial_fractions",
    "poly_gcd",
    "proof_from_json",
    "proof_to_json",
    "propagate_recurrence",
    "prove_identity",
    "quad_01",
    "rational_roots",
    "reverify_proof",
    "rows_to_csv",
    "solve_nullspace",
    "sturm_root_count",
    "target_constant",
    "verify_substitution_proof",
    "verify_telescoping",
]
