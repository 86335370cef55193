"""The full proof pipeline for the integral identity.

For rational a > b > 0 the claim is that for every n >= 0

    L(n) = integral_0^1 x^n (1-x)^n / ((x+a)(x+b))^{n+1} dx

equals

    R(n) = integral_0^1 x^n (1-x)^n / ((a-b)x + (a+1)b)^{n+1} dx.

The proof assembled here mirrors the classical telescoping argument:

1. each family's relation is derived on its own (closed form or ansatz
   search), the two recurrences must be the same, and each relation is
   verified exactly for every n (one identity in x per power of n);
2. the certificate boundary terms vanish at x=0 and x=1 for every n
   (each certificate part is finite and zero at both endpoints, and
   F(n, x) is finite there), so integrating the relation gives one
   recurrence satisfied by both L(n) and R(n);
3. the leading recurrence coefficient never vanishes at integer n >= 0,
   so values propagate forward uniquely;
4. L(0)=R(0) and L(1)=R(1) as exact structural LogCombination
   equalities; induction closes the identity for every n.

A second, independent proof is the change of variables
x = s(u) = N/D = b(1-u)/(b+u): as F_i = c_i r_i^n, it maps one family
onto the other for every n iff r1(s) = r2 and c1(s) (-s') = c2.  With
w = x(1-x) and Q1^h = D^2 Q1(N/D) (Q1 has degree 2), these are checked
cleared, times Q2 Q1^h:

    N (D - N) Q2  =  w Q1^h        and       -(N'D - ND') Q2  =  Q1^h.

Q2 is nonzero, so wherever Q1^h is too, each cleared identity holds
exactly when the rational one does.  Q1^h is zero only for a constant
map onto a root of Q1, outside [0, 1]; there the rational identities
are undefined and the first cleared one fails, as N (D - N) != 0.  The
check runs after direct integration at extra n, as defense in depth.
Every sub-step failure is converted into a failed verdict naming the
step; there is no silent pass.  `prove_identity` and `reverify_proof`
run the one check sequence in `_check_sequence`.

`ProofObject` fields are independent: the families follow from the
parameters, the verdict and the substitution check from the failure reason.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SingularRecurrenceError, TelescopicError
from .families import (
    IntegrandFamily,
    ParameterPair,
    make_left_family,
    make_right_family,
)
from .integration import LogCombination, rational_roots
from .polynomials import Poly
from .ratfuncs import RatFunc
from .telescoping import (
    _W,
    Certificate,
    Recurrence,
    closed_form,
    discover,
    normalize_pair,
    verify_telescoping,
)


_SUBSTITUTION_FAILED = "substitution check failed"


@dataclass(frozen=True)
class ProofObject:
    """Self-contained record of one run of the proof pipeline."""

    params: ParameterPair
    recurrence: Recurrence | None
    left_certificate: Certificate | None
    right_certificate: Certificate | None
    base_cases: tuple[tuple[int, LogCombination, LogCombination], ...]
    extra_checks: tuple[tuple[int, LogCombination, LogCombination], ...]
    failure_reason: str | None = None

    @property
    def proved(self) -> bool:
        return self.failure_reason is None

    @property
    def verdict(self) -> str:
        return "proved" if self.proved else "failed"

    @property
    def substitution_check(self) -> bool | None:
        """Whether the change of variables, the last check of
        _check_sequence, passed; None if an earlier check failed first."""
        if self.proved:
            return True
        return False if self.failure_reason == _SUBSTITUTION_FAILED else None


def propagate_recurrence(rec: Recurrence, initial: list, n_target: int) -> list:
    """Exact forward propagation: values[n+order] solved from the
    recurrence, starting from `initial` = values at n = 0..order-1.
    Any values closed under + and Fraction multiples will do, such as
    LogCombinations or Fractions."""
    if len(initial) != rec.order:
        raise ValueError(f"need exactly {rec.order} initial values")
    if n_target < 0:
        raise ValueError("n_target must be nonnegative")
    values = list(initial)
    n = 0
    while len(values) <= n_target:
        lead = rec.coeffs[rec.order](n)
        if lead == 0:
            raise SingularRecurrenceError(
                f"singular recurrence step: leading coefficient vanishes at n={n}"
            )
        acc = rec.coeffs[0](n) * values[n]
        for k in range(1, rec.order):
            acc = acc + rec.coeffs[k](n) * values[n + k]
        values.append((-1 / lead) * acc)
        n += 1
    return values[: n_target + 1]


def verify_substitution_proof(
    params: ParameterPair, substitution: RatFunc | None = None
) -> bool:
    """Check the change-of-variables identity for every n:

        F1(n, x(u)) * (-dx/du)  =  F2(n, u)   with x(u) = b(1-u)/(b+u).

    Both n-free identities are checked cleared (module docstring).  The
    sign accounts for the orientation reversal (x(0)=1, x(1)=0).  Passing
    a different `substitution` map serves as a negative control; a map
    onto a pole of the left family fails.
    """
    if substitution is None:
        b = params.b
        num, den = Poly([b, -b]), Poly([b, 1])
    else:
        num, den = substitution.num, substitution.den
    q1, q2 = make_left_family(params).den, make_right_family(params).den
    # Q1^h = D^2 Q1(N/D), as Q1 = (x+a)(x+b) has degree 2
    q1h = sum((c * num**i * den ** (2 - i) for i, c in enumerate(q1)), Poly.zero())
    minus_jacobian = num * den.derivative() - num.derivative() * den  # -D^2 s'
    return num * (den - num) * q2 == _W * q1h and minus_jacobian * q2 == q1h


def _leading_coefficient_degeneracy(rec: Recurrence) -> str | None:
    bad = [root for root, _ in rational_roots(rec.coeffs[-1]) if root >= 0 and root.denominator == 1]
    if bad:
        return (
            "degenerate: leading recurrence coefficient vanishes at "
            f"n={min(bad)}, so forward propagation breaks"
        )
    return None


def _check_sequence(
    params: ParameterPair,
    left: IntegrandFamily,
    right: IntegrandFamily,
    rec: Recurrence,
    left_cert: Certificate,
    right_cert: Certificate,
    extra_n: int,
) -> ProofObject:
    """Run every check of the proof, in order, on one recurrence and its
    two certificates; the first failing check names the verdict.

    `left` and `right` are the families of `params`.  Each family is
    integrated in one pass, each n once: the base cases are the first
    `rec.order` values and the direct comparisons the first `extra_n + 1`.
    """
    values: list[tuple[int, LogCombination, LogCombination]] = []

    def finish(reason: str | None = None) -> ProofObject:
        base_cases = tuple(values[: rec.order])
        # the direct comparisons start only once every base case holds
        base_ok = len(base_cases) == rec.order and all(l == r for _, l, r in base_cases)
        return ProofObject(
            params=params,
            recurrence=rec,
            left_certificate=left_cert,
            right_certificate=right_cert,
            base_cases=base_cases,
            extra_checks=tuple(values[: extra_n + 1]) if base_ok else (),
            failure_reason=reason,
        )

    try:
        # 1. telescoping identities, proved for every n
        if not verify_telescoping(left, rec, left_cert):
            return finish("telescoping verification failed (left family)")
        if not verify_telescoping(right, rec, right_cert):
            return finish("telescoping verification failed (right family)")

        # 2. boundary terms vanish for every n: each part is finite and zero
        # at the endpoints, where F(n, x) is finite (den(0), den(1) != 0)
        for side, cert in (("left", left_cert), ("right", right_cert)):
            if not cert.satisfies_boundary_invariant():
                return finish(f"certificate boundary invariant violated ({side})")

        # 3. forward propagation must never divide by zero
        degeneracy = _leading_coefficient_degeneracy(rec)
        if degeneracy is not None:
            return finish(degeneracy)

        # 4. exact structural equality: base cases, then direct comparison
        # at extra n as defense in depth
        count = max(rec.order, extra_n + 1)
        for n, l_val, r_val in zip(range(count), left.integrals(), right.integrals()):
            values.append((n, l_val, r_val))
            if l_val != r_val:
                if n < rec.order:
                    return finish(f"base case mismatch at n={n}")
                return finish(f"direct comparison mismatch at n={n}")

        # 5. independent change-of-variables proof, for every n
        if not verify_substitution_proof(params):
            return finish(_SUBSTITUTION_FAILED)

        return finish()
    except TelescopicError as exc:
        return finish(str(exc))


def _unproved(params: ParameterPair, reason: str) -> ProofObject:
    """A failed proof that never reached a recurrence and certificates."""
    return ProofObject(
        params=params,
        recurrence=None,
        left_certificate=None,
        right_certificate=None,
        base_cases=(),
        extra_checks=(),
        failure_reason=reason,
    )


def prove_identity(
    params: ParameterPair,
    mode: str = "verify",
    extra_n: int = 5,
) -> ProofObject:
    """Run the complete pipeline and return a ProofObject.

    Each family's recurrence and certificate come from `closed_form`
    (mode "verify") or from `discover` with its default bounds (mode
    "discover"); the proof fails unless the two recurrences coincide.
    """
    if mode not in ("verify", "discover"):
        raise ValueError(f"mode must be 'verify' or 'discover', got {mode!r}")
    if extra_n < 0:
        raise ValueError("extra_n must be nonnegative")
    left, right = make_left_family(params), make_right_family(params)
    try:
        (rec, left_cert), (rec_right, right_cert) = (
            closed_form(fam) if mode == "verify" else discover(fam)
            for fam in (left, right)
        )
        if rec != rec_right:
            return _unproved(params, "recurrences differ between the two families")
        rec, (left_cert, right_cert) = normalize_pair(rec, (left_cert, right_cert))
    except TelescopicError as exc:
        return _unproved(params, str(exc))
    return _check_sequence(params, left, right, rec, left_cert, right_cert, extra_n)


def reverify_proof(proof: ProofObject) -> bool:
    """True iff re-running the check sequence on the recorded recurrence
    and certificates reproduces the proof object exactly (used to
    validate deserialized proofs)."""
    if not proof.proved or not proof.extra_checks:
        return False
    rec = proof.recurrence
    left_cert = proof.left_certificate
    right_cert = proof.right_certificate
    if rec is None or left_cert is None or right_cert is None:
        return False
    # the rerun records n = 0..extra_n, so any other recorded n fails the
    # comparison, and a forged large n costs no extra integrations
    extra_n = len(proof.extra_checks) - 1
    # the families come from the recorded params, so a certificate
    # recorded for other parameters cannot pass
    params = proof.params
    left, right = make_left_family(params), make_right_family(params)
    return _check_sequence(params, left, right, rec, left_cert, right_cert, extra_n) == proof
