"""Per-layer tracing from outside the library.

`install(tracer)` replaces the public functions listed in LAYER_FUNCTIONS
by timing wrappers in every `telescopic` namespace that binds them
(`from .x import f` copies `f` into each importing module, so wrapping
only the defining module would miss most calls).  `uninstall` puts the
originals back.  Nothing inside the library records anything.

Every wrapped call is timed.  Calls of the hot leaves (`Poly.mul`,
`poly_gcd`, `RatFunc.init`, `sturm_root_count`; about 10^5 calls per
run) only update per-function aggregates; every other call also keeps
a span (id, parent id, op id, name, start, end) in memory, written out
by `write_spans` when the run ends.  Self time is a call's duration
minus the time its wrapped children cover, wrapper bookkeeping of the
children included, so that it is charged to no one's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (layer, public name, attribute path in the defining module)
LAYER_FUNCTIONS = [
    ("polynomials", "poly_gcd", "poly_gcd"),
    ("polynomials", "Poly.mul", "Poly.__mul__"),
    ("polynomials", "sturm_root_count", "sturm_root_count"),
    ("ratfuncs", "RatFunc.init", "RatFunc.__init__"),
    ("families", "at", "IntegrandFamily.at"),
    ("telescoping", "verify_telescoping", "verify_telescoping"),
    ("telescoping", "discover", "discover"),
    ("telescoping", "solve_nullspace", "solve_nullspace"),
    ("integration", "integrate_01", "integrate_01"),
    ("integration", "partial_fractions", "partial_fractions"),
    ("integration", "factorize", "factorize"),
    ("integration", "logcomb_to_float", "logcomb_to_float"),
    ("prove", "prove_identity", "prove_identity"),
    ("prove", "reverify_proof", "reverify_proof"),
    ("prove", "verify_substitution_proof", "verify_substitution_proof"),
    ("prove", "propagate_recurrence", "propagate_recurrence"),
    ("approximants", "approximant_table", "approximant_table"),
    ("approximants", "decompose_against", "decompose_against"),
    ("quadrature", "quad_01", "quad_01"),
    ("serialize", "proof_to_json", "proof_to_json"),
    ("serialize", "proof_from_json", "proof_from_json"),
]

HOT_LEAVES = {
    "polynomials.Poly.mul",
    "polynomials.poly_gcd",
    "polynomials.sturm_root_count",
    "ratfuncs.RatFunc.init",
}


def function_keys() -> list[str]:
    return [f"{layer}.{name}" for layer, name, _ in LAYER_FUNCTIONS]


class Tracer:
    """Call aggregates, spans and derived counters of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.op_id = -1
        self.enabled = True  # False while the benchmark checks outputs
        self.stack: list[list] = []  # per active call: [child seconds, span id]
        self.stats = {key: [0, 0.0, 0.0, 0] for key in function_keys()}  # calls, self, total, depth
        self.spans: list[tuple] = []
        self.counters = {
            "gcd_max_bits": 0,
            "ratfunc_inits": 0,
            "ratfunc_reduced": 0,
            "at_max_degree": 0,
            "proof_integrations": 0,
            "last_p_bits": 0,
            "panels": 0,
            "proof_bytes": 0,
            "proofs_serialized": 0,
        }

    def call(self, key, fn, args, kwargs, keep_span, probe):
        if not self.enabled:
            return fn(*args, **kwargs)
        clock = self.clock
        entered = clock()
        stack = self.stack
        stat = self.stats[key]
        span_id = len(self.spans) if keep_span else None
        if keep_span:
            parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
            self.spans.append(None)  # reserve the id; filled in on exit
        frame = [0.0, span_id]
        stack.append(frame)
        stat[3] += 1
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            stat[3] -= 1
            duration = end - start
            stat[0] += 1
            stat[1] += duration - frame[0]
            if stat[3] == 0:
                stat[2] += duration
            if keep_span:
                self.spans[span_id] = (span_id, parent, self.op_id, key, start, end)
        if probe is not None:
            probe(self, args, result)
        if stack:
            stack[-1][0] += clock() - entered
        return result


# -- probes: counters measured at the layer boundaries -------------------------


def _coeff_bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


def _probe_gcd(tracer, args, result):
    bits = max(_coeff_bits(args[0]), _coeff_bits(args[1]))
    if bits > tracer.counters["gcd_max_bits"]:
        tracer.counters["gcd_max_bits"] = bits


def _probe_ratfunc_init(tracer, args, result):
    rf = args[0]
    tracer.counters["ratfunc_inits"] += 1
    den = args[2] if len(args) > 2 else None
    if hasattr(den, "degree") and not rf.num.is_zero() and rf.den.degree() < den.degree():
        tracer.counters["ratfunc_reduced"] += 1


def _probe_at(tracer, args, result):
    degree = max(result.num.degree(), result.den.degree())
    if degree > tracer.counters["at_max_degree"]:
        tracer.counters["at_max_degree"] = degree


def _probe_integrate(tracer, args, result):
    if tracer.stats["prove.prove_identity"][3] > 0:
        tracer.counters["proof_integrations"] += 1


def _probe_table(tracer, args, result):
    p = result[-1].p
    tracer.counters["last_p_bits"] = max(p.numerator.bit_length(), p.denominator.bit_length())


def _probe_quad(tracer, args, result):
    tracer.counters["panels"] += result.subdivisions


def _probe_to_json(tracer, args, result):
    tracer.counters["proof_bytes"] += len(result.encode())
    tracer.counters["proofs_serialized"] += 1


PROBES = {
    "polynomials.poly_gcd": _probe_gcd,
    "ratfuncs.RatFunc.init": _probe_ratfunc_init,
    "families.at": _probe_at,
    "integration.integrate_01": _probe_integrate,
    "approximants.approximant_table": _probe_table,
    "quadrature.quad_01": _probe_quad,
    "serialize.proof_to_json": _probe_to_json,
}


# -- installing and removing the wrappers --------------------------------------


def _make_wrapper(tracer, key, fn):
    keep_span = key not in HOT_LEAVES
    probe = PROBES.get(key)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(key, fn, args, kwargs, keep_span, probe)

    wrapper.__wrapped_by_perfbench__ = True
    return wrapper


def _namespaces(package: str = "telescopic") -> list:
    """Every module of the package, the package itself included."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every binding of every function in LAYER_FUNCTIONS; returns
    the (namespace, name, original) records that `uninstall` restores."""
    modules = _namespaces()
    restore: list[tuple] = []
    for layer, name, path in LAYER_FUNCTIONS:
        key = f"{layer}.{name}"
        owner = sys.modules[f"telescopic.{layer}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[attr]
            wrapper = _make_wrapper(tracer, key, original)
            for alias, value in list(vars(cls).items()):  # __rmul__ = __mul__
                if value is original:
                    restore.append((cls, alias, original))
                    setattr(cls, alias, wrapper)
            continue
        original = getattr(owner, path)
        wrapper = _make_wrapper(tracer, key, original)
        for module in modules:
            for alias, value in list(vars(module).items()):
                if value is original:
                    restore.append((module, alias, original))
                    setattr(module, alias, wrapper)
    return restore


def uninstall(restore: list[tuple]) -> None:
    for namespace, name, original in reversed(restore):
        setattr(namespace, name, original)


def wrapped_bindings() -> list[str]:
    """Names in the package still bound to a wrapper (empty when clean)."""
    found = []
    for module in _namespaces():
        for name, value in vars(module).items():
            if getattr(value, "__wrapped_by_perfbench__", False):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if getattr(member, "__wrapped_by_perfbench__", False):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return sorted(set(found))


# -- results -------------------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values, by metric name, from one traced pass."""
    out = {}
    for key in function_keys():
        calls, self_s, total_s, _ = tracer.stats[key]
        out[f"{key}.calls"] = calls
        out[f"{key}.self_s"] = self_s
        out[f"{key}.total_s"] = total_s
    c = tracer.counters
    stats = tracer.stats
    out["polynomials.poly_gcd.max_bits"] = c["gcd_max_bits"]
    out["ratfuncs.RatFunc.gcd_reduced_ratio"] = (
        c["ratfunc_reduced"] / c["ratfunc_inits"] if c["ratfunc_inits"] else 0.0
    )
    out["families.at.max_degree"] = c["at_max_degree"]
    discovers = stats["telescoping.discover"][0]
    out["telescoping.solve_nullspace.per_discover"] = (
        stats["telescoping.solve_nullspace"][0] / discovers if discovers else 0.0
    )
    proofs = stats["prove.prove_identity"][0]
    out["prove.integrations_per_proof"] = c["proof_integrations"] / proofs if proofs else 0.0
    out["approximants.last_p_bits"] = c["last_p_bits"]
    out["quadrature.panels"] = c["panels"]
    out["serialize.proof_bytes"] = (
        c["proof_bytes"] / c["proofs_serialized"] if c["proofs_serialized"] else 0.0
    )
    return out


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, parent, op_id, name, start, end in tracer.spans:
            handle.write(
                json.dumps(
                    {"id": span_id, "parent": parent, "op": op_id, "name": name,
                     "start": start, "end": end}
                )
                + "\n"
            )
