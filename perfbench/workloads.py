"""Seeded inputs, operations and output checks of the benchmark workloads.

Each workload is a list of groups of ops.  The runner times every op,
then checks the group's outputs outside the timed window, and starts a
new group only while its time budget lasts, so every run measures whole
groups.  Only the generated parameter pairs reach the library.

The library is imported as a module and every call goes through its
attributes (`T.prove_identity`), so that the traced run sees the calls
the benchmark makes.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import telescopic as T

WORKLOADS = ("prove_verify", "prove_discover", "approx_table", "crosscheck_high_n")

DEFAULT_SEED = 2024  # the seed of the acceptance tests' 25 pairs

PROVE_EXTRA_N = 8
HIGH_HEIGHT = 10**6
# The exact path factors log arguments by trial division up to 10**6 and
# accepts a leftover cofactor only below 10**12 (see meta.json, known_defects).
CERTIFIED_FACTOR_RANGE = 10**12
DEFECT_PAIR = (Fraction(1000003 * 1000033), Fraction(1))

# Every approx op is the integer pair (a, 1) at an (a, n_max) no other op
# of the run uses, so no call repeats within a run.  a runs over the integers <= 16 for
# which 2a/(a+1), the argument of the target log, is a ratio of two prime
# powers, so every value carries two logarithms.  Those tables cost within
# 1.6x of each other (measured at n_max 200; two-prime pairs with b > 1
# range over 3.5x), so the tail does not hinge on a few costly draws.
APPROX_A_MAX = 16
APPROX_NMAX = range(190, 230)
APPROX_REFERENCE = (Fraction(2), Fraction(1))  # checked, rows 0..2, once per run
APPROX_REFERENCE_ROWS = [(1, 0), (7, 2), (73, 21)]
CROSSCHECK_N = (8, 16, 24, 30)
CROSSCHECK_GROUPS = 64
QUAD_BOUND = 1e-11  # acceptance criterion 7
# On the steady pairs |I(n)| < 1e-11 for every n >= 8, so QUAD_BOUND alone
# would pass any value.  At n = 8 quad_01 still agrees with the exact value
# to about 1e-9 relative (measured), so a relative bound there catches a
# wrong quadrature without gating on the known defect at larger n.
QUAD_RELATIVE_N = 8
QUAD_RELATIVE_BOUND = 1e-6
# A pair with a small denominator on [0, 1], where quad_01 evaluates the
# expanded coefficients in double precision and accepts a wrong value.
QUAD_DEFECT_CASE = (Fraction(5, 9), Fraction(11, 49), "right", 16)


def random_fraction(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(1, bound), rng.randint(1, bound))


def random_pair(rng: random.Random, bound: int) -> tuple[Fraction, Fraction]:
    """a > b > 0 with numerators and denominators <= bound, drawn exactly
    as the acceptance tests draw their pairs."""
    while True:
        x = random_fraction(rng, bound)
        y = random_fraction(rng, bound)
        if x != y:
            return max(x, y), min(x, y)


def _log_arguments(a: Fraction, b: Fraction) -> list[Fraction]:
    """The rationals whose logs make up the exact integrals of both families."""
    return [(1 + a) / a, (1 + b) / b, 1 + (a - b) / ((a + 1) * b)]


def _within_factor_range(a: Fraction, b: Fraction) -> bool:
    return all(
        part < CERTIFIED_FACTOR_RANGE
        for value in _log_arguments(a, b)
        for part in (value.numerator, value.denominator)
    )


def prove_pairs(seed: int) -> list[tuple[Fraction, Fraction]]:
    """25 pairs of height <= 50 (the acceptance pairs at the default seed),
    then 5 pairs of height <= 10**6 whose log arguments stay inside the
    factorizer's certified range; the pair outside it is DEFECT_PAIR."""
    rng = random.Random(seed)
    pairs = [random_pair(rng, 50) for _ in range(25)]
    while len(pairs) < 30:
        pair = random_pair(rng, HIGH_HEIGHT)
        if _within_factor_range(*pair):
            pairs.append(pair)
    return pairs


STEADY_NUMERATORS = {  # denominator: numerators n with 2 < n/d < 4 and gcd(n, d) = 1
    d: [n for n in range(2 * d + 1, 4 * d) if math.gcd(n, d) == 1] for d in (3, 4, 5)
}


def steady_pair(rng: random.Random) -> tuple[Fraction, Fraction]:
    """A pair whose exact arithmetic costs about the same for every draw:
    a and b in (2, 4) with reduced fractions over two different
    denominators from 3, 4, 5 (a shared denominator shortens every
    coefficient).  Then a*b > 4, so both denominators of the integrands
    are > 4 on [0, 1], where double-precision quadrature is in scope at
    n <= 30, and one pair's ops at n in 8..30 take about a second, so a
    run sees enough pairs that its tail falls among the n = 30 ops."""
    d1, d2 = rng.sample(sorted(STEADY_NUMERATORS), 2)
    x = Fraction(rng.choice(STEADY_NUMERATORS[d1]), d1)
    y = Fraction(rng.choice(STEADY_NUMERATORS[d2]), d2)
    return max(x, y), min(x, y)


def _prime_count(n: int) -> int:
    count, p = 0, 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count + (n > 1)


def approx_inputs(seed: int) -> list[tuple[Fraction, Fraction, int]]:
    """Every (a, 1, n_max) of the approx workload, in a seeded order."""
    heads = []
    for a in range(2, APPROX_A_MAX + 1):
        ratio = Fraction(2 * a, a + 1)
        if _prime_count(ratio.numerator) + _prime_count(ratio.denominator) == 2:
            heads.append(a)
    inputs = [(Fraction(a), Fraction(1), n_max) for a in heads for n_max in APPROX_NMAX]
    random.Random(seed).shuffle(inputs)
    return inputs


# -- ops and checks -------------------------------------------------------------


@dataclass
class Op:
    """One unit of work: `run()` is timed; `read_back`, when present, is
    timed as the workload's read side (the reverify sample)."""

    label: str
    run: Callable[[], object]
    read_back: Callable[[object], object] | None = None


@dataclass
class Group:
    label: str
    ops: list[Op]
    check: Callable[[list, list], list[str]]  # (outputs, read-backs) -> problems
    digest: Callable[[list], bytes]
    max_rel_err: float = 0.0  # quadrature against exact, set by the check


def _family(side: str, a: Fraction, b: Fraction):
    make = T.make_left_family if side == "left" else T.make_right_family
    return make(T.ParameterPair(a, b))


def _prove_group(a: Fraction, b: Fraction, mode: str) -> Group:
    def run():
        proof = T.prove_identity(T.ParameterPair(a, b), mode=mode, extra_n=PROVE_EXTRA_N)
        return proof, T.proof_to_json(proof)

    def read_back(output):
        back = T.proof_from_json(output[1])
        return back, T.reverify_proof(back)

    def check(outputs, read_backs):
        (proof, text), (back, reverified) = outputs[0], read_backs[0]
        problems = []
        if proof.verdict != "proved":
            problems.append(f"verdict {proof.verdict}: {proof.failure_reason}")
        if not reverified:
            problems.append("reverify_proof returned False")
        if T.proof_to_json(back) != text:
            problems.append("proof JSON changed across a round trip")
        if mode == "discover":
            expected, _ = T.closed_form_recurrence(proof.params).normalized()
            if proof.recurrence != expected:
                problems.append("discovered recurrence differs from the closed form")
        return problems

    def digest(outputs):
        return outputs[0][1].encode()

    label = f"{mode} a={a} b={b}"
    return Group(label, [Op(label, run, read_back)], check, digest)


def _approx_group(a: Fraction, b: Fraction, n_max: int, reference: bool) -> Group:
    def run():
        return T.approximant_table(T.ParameterPair(a, b), n_max)

    def check(outputs, read_backs):
        rows = outputs[0]
        problems = []
        if len(rows) != n_max + 1:
            problems.append(f"{len(rows)} rows for n_max={n_max}")
            return problems
        if reference:
            table = T.approximant_table(T.ParameterPair(*APPROX_REFERENCE), 2)
            head = [(r.p, r.q) for r in table]
            if head != APPROX_REFERENCE_ROWS:
                problems.append(f"reference rows differ: {head}")
        right = _family("right", a, b)
        lam = T.integrate_01(right.at(0))
        n = 5
        if (rows[n].p, rows[n].q) != T.decompose_against(T.integrate_01(right.at(n)), lam):
            problems.append(f"row {n} differs from the direct decomposition")
        errors = [r.abs_error for r in rows[:21]]
        if any(later >= earlier for earlier, later in zip(errors, errors[1:])):
            problems.append("abs_error is not strictly decreasing for n <= 20")
        return problems

    def digest(outputs):
        rows = outputs[0]
        text = ";".join(f"{r.p},{r.q}" for r in rows)
        return f"{text};{T.rows_to_csv(rows[-1:])}".encode()

    label = f"approx a={a} b={b} n_max={n_max}"
    return Group(label, [Op(label, run)], check, digest)


def _crosscheck_group(a: Fraction, b: Fraction) -> Group:
    ops = []
    for side in ("left", "right"):
        for n in CROSSCHECK_N:
            def run(side=side, n=n):
                f = _family(side, a, b).at(n)
                exact = T.integrate_01(f)
                exact_float = float(T.logcomb_to_float(exact, 64))
                return exact, exact_float, T.quad_01(f)

            ops.append(Op(f"quad a={a} b={b} {side} n={n}", run))
    names = [f"{side} n={n}" for side in ("left", "right") for n in CROSSCHECK_N]

    def check(outputs, read_backs):
        problems = []
        half = len(CROSSCHECK_N)
        for n, left, right in zip(CROSSCHECK_N, outputs[:half], outputs[half:]):
            if left[0] != right[0]:
                problems.append(f"left and right exact values differ at n={n}")
        for (exact, exact_float, quad), name, n in zip(outputs, names, CROSSCHECK_N * 2):
            diff = abs(quad.value - exact_float)
            if not diff < QUAD_BOUND:
                problems.append(f"{name}: |quad - exact| = {diff:.3e}")
            if n == QUAD_RELATIVE_N and not diff <= QUAD_RELATIVE_BOUND * abs(exact_float):
                problems.append(f"{name}: |quad - exact| / |exact| = {diff / abs(exact_float):.3e}")
            group.max_rel_err = max(group.max_rel_err, diff / abs(exact_float))
        return problems

    def digest(outputs):
        return ";".join(
            f"{exact}|{quad.value!r}|{quad.subdivisions}" for exact, _, quad in outputs
        ).encode()

    group = Group(f"quad a={a} b={b}", ops, check, digest)  # check sets max_rel_err
    return group


def build(workload: str, seed: int) -> list[Group]:
    """The workload's groups for one seed, in run order."""
    if workload in ("prove_verify", "prove_discover"):
        mode = workload.split("_")[1]
        return [_prove_group(a, b, mode) for a, b in prove_pairs(seed)]
    if workload == "approx_table":
        return [
            _approx_group(a, b, n_max, reference=(i == 0))
            for i, (a, b, n_max) in enumerate(approx_inputs(seed))
        ]
    if workload == "crosscheck_high_n":
        rng = random.Random(seed)
        return [_crosscheck_group(*steady_pair(rng)) for _ in range(CROSSCHECK_GROUPS)]
    raise ValueError(f"unknown workload {workload!r}")


def digest_of(groups_outputs: list[bytes]) -> str:
    h = hashlib.sha256()
    for chunk in groups_outputs:
        h.update(hashlib.sha256(chunk).digest())
    return h.hexdigest()


# -- known defects, measured and reported without gating -------------------------


def known_defect_failures(workload: str) -> int:
    """How many of the workload's known-defect cases still fail."""
    if workload in ("prove_verify", "prove_discover"):
        mode = workload.split("_")[1]
        proof = T.prove_identity(T.ParameterPair(*DEFECT_PAIR), mode=mode, extra_n=PROVE_EXTRA_N)
        return int(not proof.proved)
    if workload == "crosscheck_high_n":
        a, b, side, n = QUAD_DEFECT_CASE
        f = _family(side, a, b).at(n)
        exact = float(T.logcomb_to_float(T.integrate_01(f), 64))
        try:
            value = T.quad_01(f).value
        except T.ToleranceNotMetError:
            return 1
        return int(not abs(value - exact) < QUAD_BOUND)
    return 0
