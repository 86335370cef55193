"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import run

assert run.import_library() is not None, "run from a checkout with src/telescopic"

import telescopic  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_a_synthetic_nested_call():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 3.0

    def outer():
        now[0] += 2.0
        wrapped_leaf()
        now[0] += 1.0
        wrapped_leaf()

    wrapped_leaf = tracing._make_wrapper(tracer, "integration.factorize", leaf)
    wrapped_outer = tracing._make_wrapper(tracer, "integration.integrate_01", outer)
    wrapped_outer()

    calls, self_s, total_s, depth = tracer.stats["integration.integrate_01"]
    assert (calls, self_s, total_s, depth) == (1, 3.0, 9.0, 0)
    assert tracer.stats["integration.factorize"][:3] == [2, 6.0, 6.0]
    outer_span, first, second = sorted(tracer.spans, key=lambda s: s[0])
    assert outer_span[1] is None and first[1] == second[1] == outer_span[0]
    assert (outer_span[4], outer_span[5]) == (0.0, 9.0)


def test_recursive_calls_count_total_time_once():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def countdown(k):
        now[0] += 1.0
        if k:
            wrapped(k - 1)

    wrapped = tracing._make_wrapper(tracer, "telescoping.discover", countdown)
    wrapped(2)
    assert tracer.stats["telescoping.discover"][:3] == [3, 3.0, 3.0]


def test_default_seed_reproduces_the_acceptance_pairs():
    sys.path.insert(0, str(run.ROOT / "tests"))
    from conftest import random_params

    rng = random.Random(2024)
    acceptance = [random_params(rng, bound=50) for _ in range(25)]
    drawn = workloads.prove_pairs(workloads.DEFAULT_SEED)[:25]
    assert [(p.a, p.b) for p in acceptance] == drawn


def test_high_pairs_stay_inside_the_certified_factor_range():
    for seed in range(20):
        high = workloads.prove_pairs(seed)[25:]
        assert len(high) == 5
        assert all(workloads._within_factor_range(a, b) for a, b in high)
    assert not workloads._within_factor_range(*workloads.DEFECT_PAIR)


def _small_trace(workload, count):
    groups = workloads.build(workload, 5)[:count]
    plain, traced_run, tracer = run.trace_groups(groups, tracing)
    assert plain.failed == traced_run.failed == 0, traced_run.problems
    return tracer


def _counts(tracer):
    values = tracing.layer_metrics(tracer)
    return {k: v for k, v in values.items() if not k.endswith(("self_s", "total_s"))}


def test_per_layer_counts_repeat_across_traced_runs():
    first = _counts(_small_trace("prove_verify", 2))
    second = _counts(_small_trace("prove_verify", 2))
    assert first == second
    assert first["prove.integrations_per_proof"] == 22
    assert first["integration.integrate_01.calls"] == 2 * (22 + 22)  # prove + reverify
    assert first["polynomials.poly_gcd.calls"] > 0


def test_wrappers_cover_every_namespace_and_are_gone_afterwards():
    originals = {
        "gcd": telescopic.polynomials.poly_gcd,
        "mul": telescopic.Poly.__mul__,
        "init": telescopic.RatFunc.__init__,
    }
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert telescopic.ratfuncs.poly_gcd is not originals["gcd"]
        assert telescopic.ratfuncs.poly_gcd is telescopic.polynomials.poly_gcd
        assert telescopic.poly_gcd is telescopic.polynomials.poly_gcd
        assert telescopic.prove.integrate_01 is telescopic.approximants.integrate_01
        assert telescopic.Poly.__rmul__ is telescopic.Poly.__mul__
        assert tracing.wrapped_bindings()
    finally:
        tracing.uninstall(restore)
    assert tracing.wrapped_bindings() == []
    assert telescopic.ratfuncs.poly_gcd is originals["gcd"]
    assert telescopic.Poly.__mul__ is originals["mul"]
    assert telescopic.Poly.__rmul__ is originals["mul"]
    assert telescopic.RatFunc.__init__ is originals["init"]


def test_wrappers_are_gone_after_a_traced_pass_that_raises():
    def boom():
        raise RuntimeError("op failed")

    group = workloads.Group("boom", [workloads.Op("boom", boom)], lambda o, r: [], lambda o: b"")
    plain, traced_run, _ = run.trace_groups([group], tracing)
    assert traced_run.failed == 1 and traced_run.op_s == [float("inf")]
    assert tracing.wrapped_bindings() == []


def test_an_op_that_fails_its_check_counts_as_infinite_latency():
    def wrong_answer():
        return 41

    ops = [workloads.Op("first", wrong_answer), workloads.Op("second", wrong_answer)]
    group = workloads.Group("answer", ops, lambda o, r: ["not 42"], lambda o: b"")
    result = run.Run()
    result.run_group(group)
    assert result.failed == 2 and result.op_s == [float("inf")] * 2
    assert result.op_busy < 1.0


def test_approx_inputs_never_repeat_a_call():
    inputs = workloads.approx_inputs(workloads.DEFAULT_SEED)
    assert len(set(inputs)) == len(inputs) >= 300
    assert workloads.approx_inputs(7) != inputs
    assert sorted(workloads.approx_inputs(7)) == sorted(inputs)


def test_two_runs_print_the_same_digest():
    digests = []
    for _ in range(2):
        result = run.Run()
        for group in workloads.build("approx_table", 3)[1:4]:
            result.run_group(group)
        assert result.failed == 0, result.problems
        digests.append(workloads.digest_of(result.digest_chunks))
    assert digests[0] == digests[1]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    value, percentile = run.tail([float(i) for i in range(1, 101)])
    assert value == 90.0 and percentile == 90.0


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == run.per_layer_spec(tracing)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == run.END_TO_END_UNITS[metric["name"]]
    assert Path(run.ROOT / spec["command"][1]).resolve() == Path(run.__file__).resolve()
