"""The proof pipeline: boundary vanishing, exact propagation, the
change-of-variables check, and full ProofObject runs in both modes."""

import dataclasses
import random
from fractions import Fraction

import pytest

from conftest import benchmark_workloads, count_calls, random_params
from telescopic import (
    Certificate,
    IntegrandFamily,
    LogCombination,
    ParameterPair,
    Poly,
    ProofObject,
    RatFunc,
    Recurrence,
    SingularRecurrenceError,
    closed_form_certificates,
    closed_form_recurrence,
    discover,
    integrate_01,
    log_of_rational,
    make_left_family,
    make_right_family,
    proof_from_json,
    proof_to_json,
    propagate_recurrence,
    prove_identity,
    reverify_proof,
    verify_substitution_proof,
    verify_telescoping,
)
from telescopic.integration import PSI_13


# -- boundary vanishing ---------------------------------------------------------


def _vanishes_at_endpoints(fam, cert, n):
    """Reference: R(n, x) * F(n, x) evaluated at x = 0 and x = 1."""
    product = cert.at(n) * fam.at(n)
    return product(0) == 0 and product(1) == 0


def test_boundary_vanishing_for_closed_form_certificates():
    # the structural invariant is what the proof checks; evaluation at
    # n <= 6 agrees for closed-form and discovered certificates
    rng = random.Random(604)
    for params in [ParameterPair(2, 1)] + [random_params(rng, bound=12) for _ in range(3)]:
        for fam, cert in zip(
            (make_left_family(params), make_right_family(params)),
            closed_form_certificates(params),
        ):
            _, discovered = discover(fam)
            for c in (cert, discovered):
                assert c.satisfies_boundary_invariant()
                for n in range(7):
                    assert _vanishes_at_endpoints(fam, c, n)


def test_boundary_vanishing_fails_without_endpoint_zeros():
    params = ParameterPair(2, 1)
    left = make_left_family(params)
    constant_cert = Certificate((RatFunc.one(),))
    assert not constant_cert.satisfies_boundary_invariant()
    assert not _vanishes_at_endpoints(left, constant_cert, 0)


# -- propagation ------------------------------------------------------------------


def test_propagate_reference_values():
    params = ParameterPair(2, 1)
    rec = closed_form_recurrence(params)
    lam = log_of_rational(Fraction(4, 3))
    initial = [lam, LogCombination(-2, {2: 14, 3: -7})]
    values = propagate_recurrence(rec, initial, 2)
    assert values[0] == lam
    assert values[2] == LogCombination(-21, {2: 146, 3: -73})  # 73 log(4/3) - 21


def test_propagate_target_below_order_returns_initial():
    params = ParameterPair(2, 1)
    rec = closed_form_recurrence(params)
    initial = [log_of_rational(Fraction(4, 3)), LogCombination(-2, {2: 14, 3: -7})]
    assert propagate_recurrence(rec, initial, 1) == initial


def test_propagate_matches_direct_integration():
    rng = random.Random(601)
    for _ in range(3):
        params = random_params(rng, bound=9)
        rec = closed_form_recurrence(params)
        right = make_right_family(params)
        initial = [integrate_01(right.at(0)), integrate_01(right.at(1))]
        values = propagate_recurrence(rec, initial, 6)
        for n in range(7):
            assert values[n] == integrate_01(right.at(n))


def test_propagate_validates_initial_length():
    rec = closed_form_recurrence(ParameterPair(2, 1))
    with pytest.raises(ValueError, match="initial"):
        propagate_recurrence(rec, [LogCombination.zero()], 3)


def test_propagate_singular_leading_coefficient():
    rec = Recurrence(1, (Poly.one(), Poly([0, 1])))  # leading coeff n
    with pytest.raises(SingularRecurrenceError, match="singular recurrence step"):
        propagate_recurrence(rec, [LogCombination.zero()], 1)


# -- change of variables ------------------------------------------------------------


def _substitutes_at(params, substitution, n):
    """Reference: F1(n, x(u)) * (-dx/du) == F2(n, u) at one numeric n."""
    transformed = make_left_family(params).at(n).compose(substitution)
    return transformed * (-substitution.derivative()) == make_right_family(params).at(n)


def test_substitution_proof_reference_pair():
    params = ParameterPair(2, 1)
    assert verify_substitution_proof(params)
    for n in range(4):
        assert _substitutes_at(params, RatFunc(Poly([1, -1]), Poly([1, 1])), n)


def test_substitution_proof_random_pairs():
    # the n-free verdict agrees with the per-n check: for the right map at
    # n <= 8, and for a wrong one at n <= 3
    rng = random.Random(602)
    for _ in range(10):
        params = random_params(rng)
        b = params.b
        right_map = RatFunc(Poly([b, -b]), Poly([b, 1]))
        wrong_map = RatFunc(Poly([b, -b]), Poly([2 * b, 1]))
        assert verify_substitution_proof(params)
        assert all(_substitutes_at(params, right_map, n) for n in range(9))
        assert not verify_substitution_proof(params, substitution=wrong_map)
        assert not any(_substitutes_at(params, wrong_map, n) for n in range(4))


def test_substitution_proof_rejects_wrong_map():
    params = ParameterPair(2, 1)
    b = params.b
    wrong = RatFunc(Poly([b, b]), Poly([b, 1]))  # numerator b(1+u)
    assert not verify_substitution_proof(params, substitution=wrong)
    # x(u) = -2 lands on a pole of 1/((x+2)(x+1)) for every u
    assert not verify_substitution_proof(params, substitution=RatFunc(Poly([-2])))


def test_substitution_proof_needs_the_ratios_to_match_too():
    # x(u) = (b - a t - b u)/(u + b + t) carries the cofactors onto each
    # other for every t, so only n = 0 holds when t != 0
    params = ParameterPair(Fraction(7, 2), Fraction(1, 3))
    a, b = params.a, params.b
    for t in (Fraction(1), Fraction(1, 2)):
        cofactor_only = RatFunc(Poly([b - a * t, -b]), Poly([b + t, 1]))
        assert not verify_substitution_proof(params, substitution=cofactor_only)
        assert _substitutes_at(params, cofactor_only, 0)
        assert not _substitutes_at(params, cofactor_only, 1)


def test_the_verifiers_compute_no_normal_form(monkeypatch):
    # both verifiers compare cleared polynomial identities, so no RatFunc
    # runs its gcd; the one allowed is for building the default map
    import telescopic.ratfuncs as ratfuncs_module

    params = ParameterPair(2, 1)
    rec = closed_form_recurrence(params)
    families = (make_left_family(params), make_right_family(params))
    certs = closed_form_certificates(params)
    calls = []
    original = ratfuncs_module.poly_gcd

    def counted(p, q):
        calls.append((p, q))
        return original(p, q)

    monkeypatch.setattr(ratfuncs_module, "poly_gcd", counted)
    for fam, cert in zip(families, certs):
        assert verify_telescoping(fam, rec, cert)
    assert len(calls) == 0
    assert verify_substitution_proof(params)
    assert len(calls) <= 1


# -- the full pipeline ----------------------------------------------------------------


def test_prove_identity_verify_mode_reference_pair():
    proof = prove_identity(ParameterPair(2, 1), mode="verify", extra_n=5)
    assert proof.proved
    assert proof.verdict == "proved"
    assert proof.failure_reason is None
    n0_left = proof.base_cases[0][1]
    assert n0_left == LogCombination(0, {2: 2, 3: -1})  # log(4/3)
    assert proof.base_cases[0][2] == n0_left


def test_prove_identity_discover_mode_reference_pair():
    proof = prove_identity(ParameterPair(2, 1), mode="discover", extra_n=3)
    assert proof.proved
    verify = prove_identity(ParameterPair(2, 1), mode="verify", extra_n=3)
    assert proof.recurrence == verify.recurrence
    assert proof.left_certificate == verify.left_certificate
    assert proof.right_certificate == verify.right_certificate


def test_prove_identity_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        prove_identity(ParameterPair(2, 1), mode="guess")


def test_prove_identity_random_pairs_both_modes():
    rng = random.Random(603)
    for _ in range(3):
        params = random_params(rng, bound=20)
        for mode in ("verify", "discover"):
            proof = prove_identity(params, mode=mode, extra_n=4)
            assert proof.proved, (params, mode, proof.failure_reason)
            for n, l_val, r_val in proof.base_cases + proof.extra_checks:
                assert l_val == r_val


def test_constant_leading_coefficient_has_no_degeneracy():
    from telescopic.prove import _leading_coefficient_degeneracy

    lower = (Poly([1, 1]), Poly([-3, -2]))
    assert _leading_coefficient_degeneracy(Recurrence(2, lower + (Poly([5]),))) is None
    assert _leading_coefficient_degeneracy(Recurrence(2, lower + (Poly([-1]),))) is None
    reason = _leading_coefficient_degeneracy(Recurrence(2, lower + (Poly([-3, 1]),)))
    assert reason.endswith("vanishes at n=3, so forward propagation breaks")


def test_prove_identity_degenerate_forged_params():
    # bypass ParameterPair validation to model corrupted inputs
    forged = object.__new__(ParameterPair)
    object.__setattr__(forged, "a", Fraction(2))
    object.__setattr__(forged, "b", Fraction(2))
    proof = prove_identity(forged, mode="verify")
    assert not proof.proved
    assert proof.verdict == "failed"
    assert "degenerate" in proof.failure_reason
    assert "(a-b)^2" in proof.failure_reason


@pytest.mark.parametrize("mode", ["verify", "discover"])
def test_recurrences_that_differ_are_refused_before_integration(monkeypatch, mode):
    # a right family of another pair has other invariants, so another
    # recurrence: both modes refuse before any check or integration runs
    import telescopic.prove as prove_module

    other = make_right_family(ParameterPair(3, 1))
    monkeypatch.setattr(prove_module, "make_right_family", lambda params: other)
    proof = prove_identity(ParameterPair(2, 1), mode=mode)
    assert proof.failure_reason == "recurrences differ between the two families"
    assert proof.base_cases == () and proof.recurrence is None


def test_reverify_accepts_good_proof():
    proof = prove_identity(ParameterPair(2, 1), mode="verify", extra_n=2)
    assert reverify_proof(proof)


def test_reverify_rejects_failed_proof():
    forged = object.__new__(ParameterPair)
    object.__setattr__(forged, "a", Fraction(2))
    object.__setattr__(forged, "b", Fraction(2))
    proof = prove_identity(forged, mode="verify")
    assert not reverify_proof(proof)


def test_reverify_rejects_tampered_values():
    proof = prove_identity(ParameterPair(2, 1), mode="verify", extra_n=2)
    tampered = ProofObject(
        params=proof.params,
        recurrence=proof.recurrence,
        left_certificate=proof.left_certificate,
        right_certificate=proof.right_certificate,
        base_cases=tuple(
            (n, l + LogCombination(1), r + LogCombination(1))
            for n, l, r in proof.base_cases
        ),
        extra_checks=proof.extra_checks,
    )
    # the stored pairs still agree with each other, but not with the
    # freshly recomputed integrals
    assert not reverify_proof(tampered)


def test_reverify_rejects_relabelled_params():
    # a valid proof for (3, 1), relabelled as a proof for (2, 1): the
    # families are rebuilt from the recorded params, so it must not pass
    proof = prove_identity(ParameterPair(3, 1), extra_n=2)
    relabelled = dataclasses.replace(proof, params=ParameterPair(2, 1))
    assert reverify_proof(proof)
    assert not reverify_proof(relabelled)
    assert not reverify_proof(proof_from_json(proof_to_json(relabelled)))


def test_each_n_is_integrated_once(monkeypatch):
    # each family is integrated in one pass, n = 0..extra_n, and the logs
    # of its poles are factored once per proof, not once per n
    yielded = []
    integrals = IntegrandFamily.integrals

    def counting_integrals(fam):
        for n, value in enumerate(integrals(fam)):
            yielded.append((fam.den, n))
            yield value

    monkeypatch.setattr(IntegrandFamily, "integrals", counting_integrals)
    calls = count_calls(monkeypatch, "factorize")
    params = ParameterPair(2, 1)
    proof = prove_identity(params, extra_n=5)
    assert proof.proved
    assert [n for n, _, _ in proof.base_cases] == [0, 1]
    assert [n for n, _, _ in proof.extra_checks] == list(range(6))
    left, right = make_left_family(params).den, make_right_family(params).den
    assert yielded == [(den, n) for n in range(6) for den in (left, right)]
    # numerator and denominator of 2, 3/2 (left) and 4/3 (right)
    assert calls["factorize"] == 6


@pytest.mark.parametrize("mode", ["verify", "discover"])
def test_the_pair_past_trial_division_proves(monkeypatch, mode):
    # a = 1000003 * 1000033: log(1 + 1/a) needs the primes of a, whose
    # product is past trial division to 10**6 but below PSI_13, where
    # factorize splits it by rho
    (a, b) = benchmark_workloads(monkeypatch).DEFECT_PAIR
    proof = prove_identity(ParameterPair(a, b), mode=mode, extra_n=8)
    assert proof.proved, proof.failure_reason
    assert 1000003 in dict(proof.base_cases[0][1].terms)
    assert reverify_proof(proof_from_json(proof_to_json(proof)))


@pytest.mark.parametrize("mode", ["verify", "discover"])
def test_a_pair_with_a_log_argument_past_psi_13_proves(mode):
    # a = V/(2^k - V), b = 1: the [AR] target is log(1 + (a-b)/((a+1)b)) =
    # log(V / 2^(k-1)), and V = 43^16 * p * q is past PSI_13 with a 10**6-smooth
    # part whose cofactor p * q lies in [10**12, PSI_13): trial division to
    # 10**6 brings it below PSI_13 and rho splits it
    p, q = 10000019, 10000000000000061
    value = 43**16 * p * q
    k = value.bit_length()
    proof = prove_identity(ParameterPair(Fraction(value, 2**k - value), 1), mode=mode, extra_n=8)
    assert proof.proved, proof.failure_reason
    assert {43, p, q} <= set(dict(proof.base_cases[0][1].terms))
    assert reverify_proof(proof_from_json(proof_to_json(proof)))


@pytest.mark.parametrize("mode", ["verify", "discover"])
def test_a_pair_with_a_log_argument_at_psi_13_fails_loudly(mode):
    proof = prove_identity(ParameterPair(PSI_13, 1), mode=mode)
    assert not proof.proved
    assert proof.failure_reason.startswith("factor bound exceeded")


def test_each_discovered_pair_is_verified_once(monkeypatch):
    # discover's kernel is the divided identity itself, so the check
    # sequence's verify_telescoping is the one check of each family
    import telescopic.prove as prove_module
    import telescopic.telescoping as telescoping_module

    calls = 0
    verify = telescoping_module.verify_telescoping

    def counting(*args):
        nonlocal calls
        calls += 1
        return verify(*args)

    monkeypatch.setattr(telescoping_module, "verify_telescoping", counting)
    monkeypatch.setattr(prove_module, "verify_telescoping", counting)
    discover(make_left_family(ParameterPair(2, 1)))
    assert calls == 0
    assert prove_identity(ParameterPair(2, 1), mode="discover").proved
    assert calls == 2


def test_reverify_reruns_the_short_extra_range():
    # extra_n = 0 checks fewer n directly than the order-2 base cases
    proof = prove_identity(ParameterPair(2, 1), extra_n=0)
    assert [n for n, _, _ in proof.base_cases] == [0, 1]
    assert [n for n, _, _ in proof.extra_checks] == [0]
    assert reverify_proof(proof_from_json(proof_to_json(proof)))


def test_reverify_rejects_forged_check_index_without_integrating_it():
    proof = prove_identity(ParameterPair(2, 1), extra_n=2)
    _, l_val, r_val = proof.extra_checks[-1]
    forged = dataclasses.replace(
        proof, extra_checks=proof.extra_checks[:-1] + ((10**9, l_val, r_val),)
    )
    assert not reverify_proof(forged)
