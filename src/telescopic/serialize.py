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
"""

from __future__ import annotations

import json
from fractions import Fraction

from ._version import __version__
from .families import IntegrandFamily, ParameterPair
from .integration import LogCombination
from .polynomials import Poly
from .prove import ProofObject
from .ratfuncs import RatFunc
from .telescoping import Certificate, Recurrence


def rational_to_str(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def rational_from_str(text: str) -> Fraction:
    return Fraction(text)


def poly_to_obj(p: Poly) -> list[str]:
    return [rational_to_str(c) for c in p.coeffs]


def poly_from_obj(obj: list[str]) -> Poly:
    return Poly(Fraction(c) for c in obj)


def ratfunc_to_obj(f: RatFunc) -> dict:
    return {"num": poly_to_obj(f.num), "den": poly_to_obj(f.den)}


def ratfunc_from_obj(obj: dict) -> RatFunc:
    return RatFunc(poly_from_obj(obj["num"]), poly_from_obj(obj["den"]))


def logcomb_to_obj(value: LogCombination) -> dict:
    return {
        "constant": rational_to_str(value.constant),
        "terms": [
            {"prime": str(p), "coeff": rational_to_str(c)} for p, c in value.terms
        ],
    }


def logcomb_from_obj(obj: dict) -> LogCombination:
    return LogCombination(
        Fraction(obj["constant"]),
        [(int(t["prime"]), Fraction(t["coeff"])) for t in obj["terms"]],
    )


def params_to_obj(params: ParameterPair) -> dict:
    return {"a": rational_to_str(params.a), "b": rational_to_str(params.b)}


def params_from_obj(obj: dict) -> ParameterPair:
    return ParameterPair(Fraction(obj["a"]), Fraction(obj["b"]))


def family_to_obj(fam: IntegrandFamily) -> dict:
    return {
        "cofactor": ratfunc_to_obj(fam.cofactor),
        "ratio": ratfunc_to_obj(fam.ratio),
    }


def family_from_obj(obj: dict) -> IntegrandFamily:
    # 1/den is recorded as 1/lc(den) over monic(den); other forms raise ValueError
    cofactor = ratfunc_from_obj(obj["cofactor"])
    scale = cofactor.num.leading_coefficient()
    fam = IntegrandFamily(Poly(c / scale for c in cofactor.den))
    if family_to_obj(fam) != obj:
        raise ValueError("recorded family is not x^n (1-x)^n / den^(n+1)")
    return fam


def recurrence_to_obj(rec: Recurrence) -> dict:
    return {"order": rec.order, "coeffs": [poly_to_obj(c) for c in rec.coeffs]}


def recurrence_from_obj(obj: dict) -> Recurrence:
    return Recurrence(obj["order"], tuple(poly_from_obj(c) for c in obj["coeffs"]))


def certificate_to_obj(cert: Certificate) -> dict:
    return {"parts": [ratfunc_to_obj(p) for p in cert.parts]}


def certificate_from_obj(obj: dict) -> Certificate:
    return Certificate(tuple(ratfunc_from_obj(p) for p in obj["parts"]))


def _checks_to_obj(checks) -> list:
    return [
        {
            "n": n,
            "left": logcomb_to_obj(left),
            "right": logcomb_to_obj(right),
            "equal": left == right,
        }
        for n, left, right in checks
    ]


def _checks_from_obj(obj) -> tuple:
    return tuple(
        (entry["n"], logcomb_from_obj(entry["left"]), logcomb_from_obj(entry["right"]))
        for entry in obj
    )


def proof_to_obj(proof: ProofObject) -> dict:
    verdict: dict = {"status": proof.verdict}
    if proof.failure_reason is not None:
        verdict["reason"] = proof.failure_reason
    return {
        "params": params_to_obj(proof.params),
        "families": {
            "left": family_to_obj(proof.left_family),
            "right": family_to_obj(proof.right_family),
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
        "base_cases": _checks_to_obj(proof.base_cases),
        "extra_checks": _checks_to_obj(proof.extra_checks),
        "substitution_check": proof.substitution_check,
        "verdict": verdict,
        "tool_version": __version__,
    }


def proof_to_json(proof: ProofObject) -> str:
    return json.dumps(proof_to_obj(proof), indent=2) + "\n"


def proof_from_obj(obj: dict) -> ProofObject:
    certs = obj["certificates"]
    return ProofObject(
        params=params_from_obj(obj["params"]),
        left_family=family_from_obj(obj["families"]["left"]),
        right_family=family_from_obj(obj["families"]["right"]),
        recurrence=(
            None if obj["recurrence"] is None else recurrence_from_obj(obj["recurrence"])
        ),
        left_certificate=(
            None if certs["left"] is None else certificate_from_obj(certs["left"])
        ),
        right_certificate=(
            None if certs["right"] is None else certificate_from_obj(certs["right"])
        ),
        base_cases=_checks_from_obj(obj["base_cases"]),
        extra_checks=_checks_from_obj(obj["extra_checks"]),
        substitution_check=obj["substitution_check"],
        verdict=obj["verdict"]["status"],
        failure_reason=obj["verdict"].get("reason"),
    )


def proof_from_json(text: str) -> ProofObject:
    return proof_from_obj(json.loads(text))
