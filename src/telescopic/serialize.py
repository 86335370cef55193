"""Serialization of all domain values, plus the proof-object JSON.

Encodings, chosen for byte-stable reproducible output:

- Rational: the string "p/q", or "p" when the denominator is 1;
- Poly: list of Rational strings, ascending in degree;
- RatFunc: {"num": Poly, "den": Poly};
- LogCombination: {"constant": Rational,
                   "terms": [{"prime": decimal string, "coeff": Rational}]}
  with terms sorted by prime;
- ProofObject: top-level keys in the fixed order params, families,
  recurrence, certificates, base_cases, extra_checks, substitution_check,
  verdict, tool_version.

`families`, the `equal` flags, `substitution_check` and the verdict
status are derived from the other entries, and every number has one
spelling.  `proof_from_obj` reads only the independent entries and
refuses a record that their re-encoding does not reproduce (key order
and `tool_version` aside), so no edited derived entry and no
non-canonical number passes.  That check is what refuses a
non-canonical spelling, so every decoder reads each number as the
integers it spells, with no Fraction parse.  Decoded values go through
the checked integration._log_value, which refuses a log base that is
not prime, as the re-encoding check would pass one.  A record decodes
each distinct value once, keyed by the strings that spell it.
`proof_to_json` writes the text of `json.dumps(proof_to_obj(p),
indent=2)` in one recursive pass (the stdlib's indenting encoder is pure
Python, and took a third of the time), and the text of each checked
value once, however many entries record it, straight from the value's
integers.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable

from ._version import __version__
from .families import IntegrandFamily, ParameterPair, make_left_family, make_right_family
from .integration import LogCombination, _log_value
from .polynomials import Poly
from .prove import ProofObject
from .ratfuncs import RatFunc
from .telescoping import Certificate, Recurrence


def poly_to_obj(p: Poly) -> list[str]:
    return [str(c) for c in p.coeffs]


def poly_from_obj(obj: list[str]) -> Poly:
    return Poly(Fraction(*_ratio_from_str(c)) for c in obj)


def ratfunc_to_obj(f: RatFunc) -> dict:
    return {"num": poly_to_obj(f.num), "den": poly_to_obj(f.den)}


def ratfunc_from_obj(obj: dict) -> RatFunc:
    return RatFunc(poly_from_obj(obj["num"]), poly_from_obj(obj["den"]))


def _ratio_to_str(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _ratio_from_str(text: str) -> tuple[int, int]:
    """The integers of a "p/q" or "p" spelling, as written."""
    num, slash, den = text.partition("/")
    return int(num), int(den) if slash else 1


def logcomb_to_obj(value: LogCombination) -> dict:
    den = value._den
    return {
        "constant": str(value.constant),
        "terms": [
            {"prime": str(p), "coeff": _ratio_to_str(c, den)}
            for p, c in zip(value._primes, value._ints)
        ],
    }


def logcomb_from_obj(obj: dict) -> LogCombination:
    """The value the object spells, each number read as integers with no
    Fraction parse, built by the checked _log_value.  A non-canonical
    spelling is left to proof_from_obj's check."""
    constant = Fraction(*_ratio_from_str(obj["constant"]))
    return _log_value(constant, [(int(t["prime"]), *_ratio_from_str(t["coeff"])) for t in obj["terms"]])


def params_to_obj(params: ParameterPair) -> dict:
    return {"a": str(params.a), "b": str(params.b)}


def params_from_obj(obj: dict) -> ParameterPair:
    return ParameterPair(Fraction(*_ratio_from_str(obj["a"])), Fraction(*_ratio_from_str(obj["b"])))


def family_to_obj(fam: IntegrandFamily) -> dict:
    return {
        "cofactor": ratfunc_to_obj(fam.cofactor),
        "ratio": ratfunc_to_obj(fam.ratio),
    }


def recurrence_to_obj(rec: Recurrence) -> dict:
    return {"order": rec.order, "coeffs": [poly_to_obj(c) for c in rec.coeffs]}


def recurrence_from_obj(obj: dict) -> Recurrence:
    return Recurrence(int(obj["order"]), tuple(poly_from_obj(c) for c in obj["coeffs"]))


def certificate_to_obj(cert: Certificate) -> dict:
    return {"parts": [ratfunc_to_obj(p) for p in cert.parts]}


def certificate_from_obj(obj: dict) -> Certificate:
    return Certificate(tuple(ratfunc_from_obj(p) for p in obj["parts"]))


def _checks_to_obj(checks, encode: Callable[[LogCombination], object]) -> list:
    entries = []
    for n, left, right in checks:
        equal = left == right
        entries.append(
            {"n": n, "left": encode(left), "right": encode(left if equal else right), "equal": equal}
        )
    return entries


def _checks_from_obj(obj, decode: Callable[[dict], LogCombination]) -> tuple:
    return tuple((int(entry["n"]), decode(entry["left"]), decode(entry["right"])) for entry in obj)


def proof_to_obj(proof: ProofObject, encode: Callable[[LogCombination], object] = logcomb_to_obj) -> dict:
    """The record of a proof; `encode` writes each checked value."""
    verdict: dict = {"status": proof.verdict}
    if proof.failure_reason is not None:
        verdict["reason"] = proof.failure_reason
    return {
        "params": params_to_obj(proof.params),
        "families": {
            "left": family_to_obj(make_left_family(proof.params)),
            "right": family_to_obj(make_right_family(proof.params)),
        },
        "recurrence": (
            None if proof.recurrence is None else recurrence_to_obj(proof.recurrence)
        ),
        "certificates": {
            "left": (
                None
                if proof.left_certificate is None
                else certificate_to_obj(proof.left_certificate)
            ),
            "right": (
                None
                if proof.right_certificate is None
                else certificate_to_obj(proof.right_certificate)
            ),
        },
        "base_cases": _checks_to_obj(proof.base_cases, encode),
        "extra_checks": _checks_to_obj(proof.extra_checks, encode),
        # false as well when the check never ran
        "substitution_check": bool(proof.substitution_check),
        "verdict": verdict,
        "tool_version": __version__,
    }


class _Text(str):
    """JSON text already written, which _to_json copies as it is."""


# the depth of a checked value in a proof record: root, check list, entry
_VALUE_INDENT = "  " * 3


def _to_json(value, indent: str = "") -> str:
    """json.dumps(value, indent=2) for a value nested `indent` deep, with
    str keys and dict, list, str, int, bool and None values."""
    if isinstance(value, str):
        return value if type(value) is _Text else encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_to_json(v, inner)}" for k, v in value.items()]
        start, end = "{}"
    elif isinstance(value, list):
        items = [_to_json(v, inner) for v in value]
        start, end = "[]"
    else:
        raise TypeError(f"{type(value).__name__} is not a proof-record type")
    if not items:
        return start + end
    return f"{start}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{end}"


def _logcomb_to_json(value: LogCombination, indent: str) -> str:
    """_to_json(logcomb_to_obj(value), indent), written from the value's
    integers: no digit, sign or slash needs escaping."""
    inner, term, field = indent + "  ", indent + "    ", indent + "      "
    head = f'{{\n{inner}"constant": "{value.constant}",\n{inner}"terms": '
    if not value._primes:
        return f"{head}[]\n{indent}}}"
    den = value._den
    terms = f",\n{term}".join(
        f'{{\n{field}"prime": "{p}",\n{field}"coeff": "{_ratio_to_str(c, den)}"\n{term}}}'
        for p, c in zip(value._primes, value._ints)
    )
    return f"{head}[\n{term}{terms}\n{inner}]\n{indent}}}"


def proof_to_json(proof: ProofObject) -> str:
    """json.dumps(proof_to_obj(proof), indent=2) + "\n", with the text of
    each checked value written once: a base case is the same object as the
    extra check at its n, and in a passed check right equals left."""
    texts: dict[int, _Text] = {}  # by id; the proof keeps every value alive

    def encode(value: LogCombination) -> _Text:
        text = texts.get(id(value))
        if text is None:
            text = texts[id(value)] = _Text(_logcomb_to_json(value, _VALUE_INDENT))
        return text

    return _to_json(proof_to_obj(proof, encode)) + "\n"


def _canonical(obj: dict) -> str:
    # tool_version names the writer, not the proof
    return json.dumps({**obj, "tool_version": None}, sort_keys=True)


def proof_from_obj(obj: dict) -> ProofObject:
    """Decode the independent fields; ValueError if `obj` is not an
    object, lacks or mistypes an entry, or is not what re-encoding its
    fields reproduces (module docstring)."""
    if not isinstance(obj, dict):
        raise ValueError(f"proof record must be an object, not {type(obj).__name__}")
    values: dict[tuple, LogCombination] = {}  # by the strings that spell them

    def decode(value: dict) -> LogCombination:
        key = (value["constant"], *((t["prime"], t["coeff"]) for t in value["terms"]))
        decoded = values.get(key)
        if decoded is None:
            decoded = values[key] = logcomb_from_obj(value)
        return decoded

    try:
        certs = obj["certificates"]
        proof = ProofObject(
            params=params_from_obj(obj["params"]),
            recurrence=(
                None if obj["recurrence"] is None else recurrence_from_obj(obj["recurrence"])
            ),
            left_certificate=(
                None if certs["left"] is None else certificate_from_obj(certs["left"])
            ),
            right_certificate=(
                None if certs["right"] is None else certificate_from_obj(certs["right"])
            ),
            base_cases=_checks_from_obj(obj["base_cases"], decode),
            extra_checks=_checks_from_obj(obj["extra_checks"], decode),
            failure_reason=obj["verdict"].get("reason"),
        )
    except KeyError as exc:
        raise ValueError(f"proof record lacks the entry {exc}") from exc
    except (TypeError, AttributeError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"proof record has a mistyped entry: {exc}") from exc
    if _canonical(proof_to_obj(proof)) != _canonical(obj):
        raise ValueError("proof record is not the canonical encoding of its fields")
    return proof


def proof_from_json(text: str) -> ProofObject:
    return proof_from_obj(json.loads(text))
