"""Benchmark of the telescopic prover: one workload per run.

    python3 perfbench/run.py --workload prove_verify --seed 2024 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from `src/`.
One client runs the workload's ops in a closed loop, one after another
in this process, and checks every output.  With `--trace 0` the run
reports the end-to-end metrics; with `--trace 1` it runs a fixed set of
the workload's ops once untraced and once traced, and reports the
per-layer metrics of the traced ops.  Human-readable lines come first;
the last line of standard output is one JSON object.  The exit code is
0 when every check passed, 1 when one failed, 2 when the sources or the
arguments are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7  # fresh interpreters per run, spread over the loop; setup_s is their median
DIGEST_GROUPS = 4  # the digest covers the first groups of a run
TRACE_GROUPS = {  # groups run once untraced and once traced
    "prove_verify": 30,
    "prove_discover": 30,
    "approx_table": 30,
    "crosscheck_high_n": 3,
}
TAIL_BEYOND = 10  # the tail is the highest percentile with 10 samples beyond it
# The end-to-end metrics in the JSON line and BENCHMARK.json.  ops_per_s
# and op_s_p50 are printed but not listed: on a shared 2-vCPU box that
# switches for 5 to 60 s at a time between a fast and a ~1.5x slower
# state, their spread over ten runs reached 0.33 and 0.44 of the median.
# The tail needs only its last eleven ops in the slow state, so it moves
# least (see perfbench/meta.json for the measured spreads).
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_library():
    """Import `telescopic` from this checkout's sources, never from an
    installed copy; None when the sources are not there."""
    if not (SRC / "telescopic" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import telescopic

    if Path(telescopic.__file__).resolve().parent != (SRC / "telescopic").resolve():
        return None
    return telescopic


# -- statistics ------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it; None when there are too few samples."""
    if len(samples) <= TAIL_BEYOND:
        return None
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def git_revision() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(args) -> dict:
    return {
        "git": git_revision(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# -- running groups --------------------------------------------------------------


class Run:
    """Outcome of running groups of ops: latencies, failures, digest."""

    def __init__(self):
        self.op_s: list[float] = []  # per op; +inf for an op that failed
        self.read_s: list[float] = []
        self.op_busy = 0.0  # seconds spent in ops, failed ones included
        self.setup_s: list[float] = []  # fresh-interpreter set-up times (end-to-end runs)
        self.attempted = 0
        self.failed = 0
        self.groups = 0
        self.problems: list[str] = []
        self.digest_chunks: list[bytes] = []
        self.max_rel_err = 0.0

    def run_group(self, group, tracer=None) -> None:
        clock = time.perf_counter
        outputs, read_backs, raised = [], [], False
        first = len(self.op_s)
        for op in group.ops:
            self.attempted += 1
            if tracer is not None:
                tracer.op_id = self.attempted
            start = clock()
            try:
                output = op.run()
                op_s = clock() - start
                self.op_busy += op_s
                if op.read_back is not None:
                    start = clock()
                    read_backs.append(op.read_back(output))
                    self.read_s.append(clock() - start)
            except Exception as exc:  # an op that raises is a failed op
                self.op_busy += clock() - start
                self.op_s.append(math.inf)
                self.failed += 1
                self.problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
                raised = True
                continue
            self.op_s.append(op_s)
            outputs.append(output)
        self.groups += 1
        if raised:
            return
        if tracer is not None:
            tracer.enabled = False
        try:
            problems = group.check(outputs, read_backs)
        finally:
            if tracer is not None:
                tracer.enabled = True
        if problems:  # every op of a group that fails its check is a failed op
            self.failed += len(group.ops)
            self.op_s[first:] = [math.inf] * (len(self.op_s) - first)
            self.problems.extend(f"{group.label}: {p}" for p in problems)
        self.max_rel_err = max(self.max_rel_err, group.max_rel_err)
        if self.groups <= DIGEST_GROUPS:
            self.digest_chunks.append(group.digest(outputs))

    def busy_s(self) -> float:
        return self.op_busy + math.fsum(self.read_s)


def setup_probe(args) -> float:
    """Seconds from spawning a fresh interpreter to its first op being
    ready (library imported, inputs built)."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    started = time.monotonic()
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - started


# -- the two kinds of run ----------------------------------------------------------


def end_to_end(args, workloads) -> tuple[dict, Run, list[str]]:
    groups = workloads.build(args.workload, args.seed)
    run = Run()
    setup = run.setup_s
    loop_s, index = 0.0, 0
    while loop_s < args.seconds:
        # The set-up probes are spread over the loop, outside its clock, so
        # that their median sees the same machine states as the ops do.
        if len(setup) < SETUP_PROBES and loop_s >= len(setup) * args.seconds / SETUP_PROBES:
            setup.append(setup_probe(args))
        started = time.perf_counter()
        run.run_group(groups[index % len(groups)])
        loop_s += time.perf_counter() - started
        index += 1
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(args))
    peak_rss = peak_rss_mb()  # before the known-defect probe adds its own work
    defects = workloads.known_defect_failures(args.workload)

    ok_ops = run.attempted - run.failed
    op_tail = tail(run.op_s)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ok_ops / run.op_busy,
        "op_s_p50": statistics.median(run.op_s),
        "op_s_tail": op_tail[0] if op_tail else math.nan,
        "peak_rss_mb": peak_rss,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    n = len(run.op_s)
    lines = [
        f"setup_s {values['setup_s']:.4f} s (median of {len(setup)} fresh interpreters, "
        f"min {min(setup):.4f}, max {max(setup):.4f})",
        f"ops_per_s {values['ops_per_s']:.4f} 1/s ({ok_ops} ok ops in "
        f"{run.op_busy:.2f} s of op time, {run.groups} groups; not gated)",
        f"op_s_p50 {values['op_s_p50']:.6f} s (n={n}; not gated)",
        (
            f"op_s_tail {op_tail[0]:.6f} s (p{op_tail[1]:.1f}, {TAIL_BEYOND} samples beyond, n={n})"
            if op_tail else f"op_s_tail not reported: {n} samples, fewer than {TAIL_BEYOND + 1}"
        ),
    ]
    if run.read_s:
        read_tail = tail(run.read_s)
        m = len(run.read_s)
        lines.append(f"reverify_s_p50 {statistics.median(run.read_s):.6f} s (n={m}; not gated)")
        lines.append(
            f"reverify_s_tail {read_tail[0]:.6f} s (p{read_tail[1]:.1f}, n={m}; not gated)"
            if read_tail else f"reverify_s_tail not reported: {m} samples"
        )
    lines += [
        f"fail_ratio {run.failed / run.attempted:.6f} ({run.failed}/{run.attempted} ops)",
        f"peak_rss_mb {values['peak_rss_mb']:.2f} MB",
        f"known_defect_failures {defects} (not gated; see perfbench/meta.json)",
    ]
    if args.workload == "crosscheck_high_n":
        lines.append(f"quadrature.max_rel_err {run.max_rel_err:.6e} (not gated)")
    return metrics, run, lines


def trace_groups(groups, tracing) -> tuple[Run, Run, object]:
    """Run each group once untraced and once traced, alternating which
    goes first, so that both passes see the same machine state and warm
    caches equally.  The wrappers are removed after every traced group,
    also when an op raises."""
    plain, run, tracer = Run(), Run(), tracing.Tracer()
    for index, group in enumerate(groups):
        for traced_now in ((False, True) if index % 2 == 0 else (True, False)):
            if not traced_now:
                plain.run_group(group)
                continue
            restore = tracing.install(tracer)
            try:
                run.run_group(group, tracer)
            finally:
                tracing.uninstall(restore)
    return plain, run, tracer


def traced(args, workloads, tracing) -> tuple[dict, Run, list[str]]:
    groups = workloads.build(args.workload, args.seed)[: TRACE_GROUPS[args.workload]]
    plain, run, tracer = trace_groups(groups, tracing)
    run.attempted += plain.attempted
    run.failed += plain.failed
    run.problems += plain.problems
    leftover = tracing.wrapped_bindings()
    if leftover:
        run.problems.append(f"wrappers left after the traced pass: {leftover}")

    values = tracing.layer_metrics(tracer)
    values["trace.overhead_ratio"] = run.busy_s() / plain.busy_s()
    values["quadrature.max_rel_err"] = run.max_rel_err
    defects = workloads.known_defect_failures(args.workload)
    values["prove.known_defect_failures"] = defects if args.workload.startswith("prove") else 0
    values["quadrature.known_defect_failures"] = (
        defects if args.workload == "crosscheck_high_n" else 0
    )
    metrics = {name: (value, per_layer_unit(name)) for name, value in values.items()}

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracing.write_spans(tracer, spans_path)
    lines = [
        f"traced {len(groups)} groups, {len(tracer.spans)} spans written to "
        f"{spans_path.relative_to(ROOT)}",
        f"trace.overhead_ratio {values['trace.overhead_ratio']:.4f} "
        f"({run.busy_s():.3f} s traced / {plain.busy_s():.3f} s untraced)",
    ]
    lines += [f"{name} {value} {unit}" for name, (value, unit) in metrics.items()]
    return metrics, run, lines


# -- per-layer metric names and units -----------------------------------------------

PER_LAYER_EXTRA = {  # name: (unit, better); every function also has calls, self_s, total_s
    "polynomials.poly_gcd.max_bits": ("bits", "lower"),
    "ratfuncs.RatFunc.gcd_reduced_ratio": ("ratio", "higher"),
    "families.at.max_degree": ("degree", "lower"),
    "telescoping.solve_nullspace.per_discover": ("count", "lower"),
    "prove.integrations_per_proof": ("count", "lower"),
    "prove.known_defect_failures": ("count", "lower"),
    "approximants.last_p_bits": ("bits", "lower"),
    "quadrature.panels": ("count", "lower"),
    "quadrature.max_rel_err": ("ratio", "lower"),
    "quadrature.known_defect_failures": ("count", "lower"),
    "serialize.proof_bytes": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def per_layer_unit(name: str) -> str:
    if name in PER_LAYER_EXTRA:
        return PER_LAYER_EXTRA[name][0]
    return "count" if name.endswith(".calls") else "s"


def per_layer_spec(tracing) -> list[dict]:
    """The per_layer entries of BENCHMARK.json, in report order."""
    names = [f"{key}.{field}" for key in tracing.function_keys()
             for field in ("calls", "self_s", "total_s")]
    names += list(PER_LAYER_EXTRA)
    return [
        {"name": name, "unit": per_layer_unit(name),
         "better": PER_LAYER_EXTRA.get(name, (None, "lower"))[1]}
        for name in names
    ]


def _json_number(value):
    return value if isinstance(value, int) or math.isfinite(value) else None


def main(argv=None) -> int:
    args = parse_args(argv)
    if import_library() is None:
        print(f"perfbench: no telescopic sources under {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        print(time.monotonic())
        return 0

    if args.trace:
        metrics, run, lines = traced(args, workloads, tracing)
    else:
        metrics, run, lines = end_to_end(args, workloads)
    correct = run.failed == 0 and not run.problems
    info = provenance(args)
    print(" ".join(f"{key}={value}" for key, value in info.items()))
    for line in lines:
        print(line)
    for problem in run.problems:
        print(f"FAILED {problem}")
    print(f"digest {workloads.digest_of(run.digest_chunks)} (first {len(run.digest_chunks)} groups)")

    OUT.mkdir(exist_ok=True)
    record = dict(info, correct=correct, attempted=run.attempted, failed=run.failed,
                  samples={"op_s": len(run.op_s), "reverify_s": len(run.read_s),
                           "setup_s": len(run.setup_s)},
                  setup_s=run.setup_s,
                  metrics={k: _json_number(v) for k, (v, _) in metrics.items()},
                  op_s=[_json_number(v) for v in run.op_s], reverify_s=run.read_s)
    record_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": _json_number(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
