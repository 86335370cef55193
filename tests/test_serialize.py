"""JSON encodings: stable key order, exact round-trips, byte-stable output."""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

from conftest import benchmark_workloads, count_calls, random_params, random_poly, random_ratfunc
from telescopic import (
    Certificate,
    LogCombination,
    ParameterPair,
    Poly,
    RatFunc,
    Recurrence,
    closed_form_certificates,
    closed_form_recurrence,
    make_left_family,
    make_right_family,
    proof_from_json,
    proof_to_json,
    prove_identity,
    reverify_proof,
)
from telescopic.integration import PSI_13
from telescopic.serialize import (
    _VALUE_INDENT,
    _logcomb_to_json,
    _to_json,
    certificate_from_obj,
    certificate_to_obj,
    family_to_obj,
    logcomb_from_obj,
    logcomb_to_obj,
    params_from_obj,
    params_to_obj,
    poly_from_obj,
    poly_to_obj,
    proof_to_obj,
    ratfunc_from_obj,
    ratfunc_to_obj,
    recurrence_from_obj,
    recurrence_to_obj,
)


def test_rational_strings():
    # a record spells each rational as str(Fraction): lowest terms, the sign
    # on the numerator, no denominator for an integer
    assert params_to_obj(ParameterPair(Fraction(6, 4), Fraction(3, 4))) == {"a": "3/2", "b": "3/4"}
    assert poly_to_obj(Poly([Fraction(6, -4), Fraction(-5), 1])) == ["-3/2", "-5", "1"]
    assert Fraction("-3/2") == Fraction(-3, 2)
    rng = random.Random(901)
    for _ in range(200):
        value = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert poly_to_obj(Poly([value, 1])) == [str(value), "1"]
        assert Fraction(str(value)) == value


def test_poly_encoding_is_ascending():
    p = Poly([1, Fraction(-2, 3), 0, 4])
    assert poly_to_obj(p) == ["1", "-2/3", "0", "4"]
    assert poly_from_obj(poly_to_obj(p)) == p


def test_ratfunc_encoding():
    f = RatFunc(Poly([0, 1]), Poly([1, 1]))
    obj = ratfunc_to_obj(f)
    assert set(obj) == {"num", "den"}
    assert ratfunc_from_obj(obj) == f


def test_logcomb_encoding_sorted_by_prime():
    value = LogCombination(Fraction(-21), {3: -73, 2: 146})
    obj = logcomb_to_obj(value)
    assert obj["constant"] == "-21"
    assert [t["prime"] for t in obj["terms"]] == ["2", "3"]
    assert logcomb_from_obj(obj) == value


_ELEVEN_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 1000003)


@pytest.mark.parametrize(
    "value",
    [
        LogCombination(Fraction(-7, 12)),  # no log terms
        LogCombination(5, {3: Fraction(-1, 2), 2: 4}),  # an integer constant
        LogCombination(Fraction(1, 3), {p: Fraction(2 * i - 11, 7) for i, p in enumerate(_ELEVEN_PRIMES)}),
    ],
    ids=["no-logs", "integer-constant", "eleven-primes"],
)
@pytest.mark.parametrize("indent", ["", _VALUE_INDENT])
def test_value_text_is_written_from_its_integers(value, indent):
    assert _logcomb_to_json(value, indent) == _to_json(logcomb_to_obj(value), indent)


def test_component_round_trips():
    rng = random.Random(902)
    for _ in range(50):
        poly = random_poly(rng)
        assert poly_from_obj(poly_to_obj(poly)) == poly
        f = random_ratfunc(rng)
        assert ratfunc_from_obj(ratfunc_to_obj(f)) == f
    for _ in range(20):
        params = random_params(rng)
        assert params_from_obj(params_to_obj(params)) == params
        rec = closed_form_recurrence(params)
        assert recurrence_from_obj(recurrence_to_obj(rec)) == rec
        c1, c2 = closed_form_certificates(params)
        assert certificate_from_obj(certificate_to_obj(c1)) == c1
        assert certificate_from_obj(certificate_to_obj(c2)) == c2


def _set_first_equal_false(obj):
    obj["base_cases"][0]["equal"] = False


def _set_families_of_3_1(obj):
    params = ParameterPair(3, 1)
    obj["families"] = {
        "left": family_to_obj(make_left_family(params)),
        "right": family_to_obj(make_right_family(params)),
    }


def _set_substitution_check_false(obj):
    obj["substitution_check"] = False


def _set_null_reason(obj):
    obj["verdict"]["reason"] = None


def _write_2_as_4_over_2(obj):
    num = obj["certificates"]["left"]["parts"][0]["num"]
    assert num[1] == "2"
    num[1] = "4/2"


def _write_n_0_as_false(obj):
    obj["base_cases"][0]["n"] = False


@pytest.mark.parametrize(
    "edit",
    [
        _set_first_equal_false,
        _set_families_of_3_1,
        _set_substitution_check_false,
        _set_null_reason,
        _write_2_as_4_over_2,
        _write_n_0_as_false,
    ],
    ids=lambda edit: edit.__name__.lstrip("_"),
)
def test_proof_from_json_refuses_non_canonical_records(edit):
    # derived entries and number spellings are not data: any edit of
    # them is refused at decode, so only the independent fields are read
    obj = json.loads(proof_to_json(prove_identity(ParameterPair(2, 1), extra_n=2)))
    edit(obj)
    with pytest.raises(ValueError, match="canonical encoding"):
        proof_from_json(json.dumps(obj))


@pytest.mark.parametrize("spelling", ["2/4", "1/-2", "+1", " 1", "1_0", "0x1", "1/0", "1.0", "1e0", ""])
@pytest.mark.parametrize("field", ["coeff", "constant", "certificate", "recurrence", "params_b"])
def test_proof_from_json_refuses_non_canonical_value_numbers(field, spelling):
    # every number is read as integers, not through Fraction's parser; a
    # number read that way is still refused unless it is written canonically
    obj = json.loads(proof_to_json(prove_identity(ParameterPair(2, 1), extra_n=2)))
    value = obj["extra_checks"][2]["right"]
    if field == "coeff":
        value["terms"][0]["coeff"] = spelling
    elif field == "constant":
        value["constant"] = spelling
    elif field == "certificate":
        obj["certificates"]["left"]["parts"][0]["num"][1] = spelling
    elif field == "recurrence":
        obj["recurrence"]["coeffs"][0][0] = spelling
    else:
        obj["params"]["b"] = spelling
    with pytest.raises(ValueError):
        proof_from_json(json.dumps(obj))


def test_logcomb_from_obj_reads_any_spelling_of_a_number():
    # the decoder reads the number a spelling denotes; refusing the spelling
    # is the re-encoding check's part, above
    obj = {"constant": "-6/4", "terms": [{"prime": "3", "coeff": "1/-2"}, {"prime": "2", "coeff": "+2/6"},
                                         {"prime": "3", "coeff": "1"}, {"prime": "5", "coeff": "0"}]}
    assert logcomb_from_obj(obj) == LogCombination(Fraction(-3, 2), {2: Fraction(1, 3), 3: Fraction(1, 2)})


def test_proof_from_json_refuses_a_log_base_that_is_not_prime():
    # log 9 = 2 log 3, so every log 3 term rewritten as half a log 9 spells
    # the same reals; re-encoded as written, only the base check refuses it
    obj = json.loads(proof_to_json(prove_identity(ParameterPair(2, 1), extra_n=2)))
    rewritten = 0
    for entry in obj["base_cases"] + obj["extra_checks"]:
        for side in ("left", "right"):
            for term in entry[side]["terms"]:
                if term["prime"] == "3":
                    term["prime"] = "9"
                    term["coeff"] = str(Fraction(term["coeff"]) / 2)
                    rewritten += 1
    assert rewritten
    with pytest.raises(ValueError, match="log base 9 is not a prime"):
        proof_from_json(json.dumps(obj))


@pytest.mark.parametrize(
    "base, reason",
    [("0", "a prime"), ("1", "a prime"), ("-3", "a prime"), ("9", "a prime"),
     (str(PSI_13), "a certified prime")],
)
def test_logcomb_from_obj_refuses_log_bases_that_are_not_prime(base, reason):
    # PSI_13 is a strong pseudoprime that factorize cannot split
    obj = {"constant": "0", "terms": [{"prime": base, "coeff": "1"}]}
    with pytest.raises(ValueError, match=f"log base {base} is not {reason}"):
        logcomb_from_obj(obj)
    prime = {"constant": "0", "terms": [{"prime": "999999999989", "coeff": "1"}]}
    assert logcomb_from_obj(prime) == LogCombination(0, {999999999989: 1})


_PARAMS = '"params": {"a": "2", "b": "1"}'
_ORDER = '{"certificates": {}, ' + _PARAMS + ', "recurrence": {"order": %s, "coeffs": []}}'
_CHECK_N = (
    '{"certificates": {"left": null, "right": null}, ' + _PARAMS
    + ', "recurrence": null, "base_cases": [{"n": %s}]}'
)


@pytest.mark.parametrize(
    "text",
    ["[]", "3", "null", "{}", "{" + _PARAMS + "}",
     _ORDER % "Infinity", _ORDER % "1e400", _CHECK_N % "Infinity", _CHECK_N % "1e400"],
    ids=["list", "number", "null", "empty_object", "params_only",
         "order_infinity", "order_1e400", "check_n_infinity", "check_n_1e400"],
)
def test_proof_from_json_refuses_malformed_records(text):
    # a record that is not an object, lacks an entry or holds a number that
    # is not finite is refused like any other bad record, not by a TypeError,
    # KeyError or OverflowError from the decoder
    with pytest.raises(ValueError, match="proof record"):
        proof_from_json(text)


def test_proof_json_key_order():
    proof = prove_identity(ParameterPair(2, 1), extra_n=1)
    obj = json.loads(proof_to_json(proof))
    assert list(obj) == [
        "params",
        "families",
        "recurrence",
        "certificates",
        "base_cases",
        "extra_checks",
        "substitution_check",
        "verdict",
        "tool_version",
    ]
    assert list(obj["families"]) == ["left", "right"]
    assert list(obj["certificates"]) == ["left", "right"]
    assert obj["verdict"] == {"status": "proved"}
    assert obj["base_cases"][0]["equal"] is True


def test_proof_round_trip_and_reverify():
    proof = prove_identity(ParameterPair(3, 2), extra_n=3)
    text = proof_to_json(proof)
    assert text.endswith("\n")
    restored = proof_from_json(text)
    assert restored == proof
    assert proof_to_json(restored) == text  # byte-identical re-serialization
    assert reverify_proof(restored)
    # the writer's tool_version and the key order are not proof data
    obj = json.loads(text)
    obj["tool_version"] = "0.0.0-other"
    assert proof_from_json(json.dumps(obj, sort_keys=True)) == proof


def test_proof_from_json_decodes_each_distinct_value_once(monkeypatch):
    # a base case and the extra check at its n, and both sides of a passed
    # check, record one value; a reader decodes it once
    text = proof_to_json(prove_identity(ParameterPair(2, 1), extra_n=3))
    entries = [e for key in ("base_cases", "extra_checks") for e in json.loads(text)[key]]
    distinct = {json.dumps(e[side], sort_keys=True) for e in entries for side in ("left", "right")}
    assert len(distinct) < 2 * len(entries)
    calls = count_calls(monkeypatch, "logcomb_from_obj")
    assert proof_to_json(proof_from_json(text)) == text
    assert calls["logcomb_from_obj"] == len(distinct)


def test_failed_proof_serializes_with_reason():
    forged = object.__new__(ParameterPair)
    object.__setattr__(forged, "a", Fraction(2))
    object.__setattr__(forged, "b", Fraction(2))
    proof = prove_identity(forged, mode="verify")
    obj = json.loads(proof_to_json(proof))
    assert obj["recurrence"] is None
    assert obj["certificates"] == {"left": None, "right": None}
    assert obj["verdict"]["status"] == "failed"
    assert "degenerate" in obj["verdict"]["reason"]
    # deserialization re-validates the domain constraints, so forged
    # parameters cannot ride back in through JSON
    with pytest.raises(ValueError, match="a > b > 0"):
        proof_from_json(proof_to_json(proof))


def test_failed_proof_round_trip():
    base = prove_identity(ParameterPair(2, 1), extra_n=0)
    failed = dataclasses.replace(
        base,
        recurrence=None,
        left_certificate=None,
        right_certificate=None,
        failure_reason="synthetic failure for the encoder",
    )
    restored = proof_from_json(proof_to_json(failed))
    assert restored == failed
    assert restored.failure_reason == failed.failure_reason
    assert not reverify_proof(restored)


# the first pair of height above 50 that the benchmark draws at seed 2024
HIGH_HEIGHT_PAIR = (Fraction(742946, 747377), Fraction(351799, 985716))


@pytest.mark.parametrize("mode", ["verify", "discover"])
@pytest.mark.parametrize(
    "a, b, digest",
    [
        (2, 1, "040c24d63801a7a40b493ea7ec233010b08121d868c3a5e496c7bd5cb2764643"),
        (Fraction(7, 2), Fraction(1, 3),
         "ee0f3d85863abc6c5920c374d6b48e97f45c1f55129cdbb0e888d530416a233c"),
        (3, 2, "9a842cb108683bf0e87906dfe7959ce44b476e795e3c6d24b3d5855271f953b4"),
        (*HIGH_HEIGHT_PAIR,
         "7ed6450a55d7961b4254a561b7e58da6f8118be0bd4dcf606be884aa5490552c"),
    ],
)
def test_proof_json_golden_digests(a, b, digest, mode):
    # digests of the proof text written by the Fraction-coefficient Poly;
    # the recorded values do not depend on how coefficients are stored
    text = proof_to_json(prove_identity(ParameterPair(a, b), mode=mode, extra_n=3))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_proof_json_digest_of_the_benchmark_pairs(monkeypatch):
    # the 120 proof texts of the benchmark's pairs at seeds 2024 and 9091,
    # each seed in verify mode then in discover mode, concatenated
    workloads = benchmark_workloads(monkeypatch)
    digest = hashlib.sha256()
    for seed in (2024, 9091):
        pairs = workloads.prove_pairs(seed)
        for mode in ("verify", "discover"):
            for a, b in pairs:
                proof = prove_identity(ParameterPair(a, b), mode=mode, extra_n=8)
                digest.update(proof_to_json(proof).encode())
    assert digest.hexdigest() == "e4a29cf4ddd7ce64fd023a3d36c8e74b67648ce97429730c2ad8eecddc1bf966"


@pytest.mark.parametrize("mode", ["verify", "discover"])
def test_proof_json_is_the_stdlib_encoding(monkeypatch, mode):
    # the benchmark's pairs at two seeds, then a pair with a log argument
    # past factorize's certified range, whose record fails with a
    # reason: 1/a for a = PSI_13, a product of two primes above 10**12
    workloads = benchmark_workloads(monkeypatch)
    past_psi_13 = (Fraction(PSI_13), Fraction(1))
    pairs = workloads.prove_pairs(2024) + workloads.prove_pairs(9091) + [past_psi_13]
    for a, b in pairs:
        proof = prove_identity(ParameterPair(a, b), mode=mode, extra_n=workloads.PROVE_EXTRA_N)
        assert proof_to_json(proof) == json.dumps(proof_to_obj(proof), indent=2) + "\n"
    assert not proof.proved


def test_proof_json_writes_unequal_values_apart():
    # the writer shares the text of equal values only: a record whose last
    # check differs still writes both sides as the stdlib does
    proof = prove_identity(ParameterPair(2, 1), extra_n=3)
    n, left, right = proof.extra_checks[-1]
    forged = dataclasses.replace(
        proof,
        extra_checks=proof.extra_checks[:-1] + ((n, left, right + LogCombination(1)),),
        failure_reason=f"direct comparison mismatch at n={n}",
    )
    for record in (proof, forged):
        assert proof_to_json(record) == json.dumps(proof_to_obj(record), indent=2) + "\n"
    entry = json.loads(proof_to_json(forged))["extra_checks"][-1]
    assert entry["equal"] is False
    assert logcomb_from_obj(entry["left"]) == left
    assert logcomb_from_obj(entry["right"]) == right + LogCombination(1)


@pytest.mark.parametrize("mode", ["verify", "discover"])
def test_a_proof_and_its_json_run_no_sturm_chain(monkeypatch, mode):
    # every denominator of the paper's families has positive coefficients
    calls = count_calls(monkeypatch, "sturm_root_count")
    proof_to_json(prove_identity(ParameterPair(2, 1), mode=mode))
    assert calls["sturm_root_count"] == 0


def test_a_verify_mode_proof_and_its_json_build_no_ratfunc_by_gcd(monkeypatch):
    # the families' parts and the closed-form certificates are in lowest
    # terms by construction, and scaling keeps them so
    calls = 0
    original = RatFunc.__init__

    def counted(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(RatFunc, "__init__", counted)
    proof_to_json(prove_identity(ParameterPair(2, 1), mode="verify"))
    assert calls == 0
