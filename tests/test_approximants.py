"""Rational approximation tables: span decomposition, error columns,
decay-rate estimation, and CSV export."""

import copy
import dataclasses
import hashlib
import pickle
import random
from fractions import Fraction

import mpmath
import pytest

from conftest import count_calls, random_params
from telescopic import (
    ApproximantRow,
    LogCombination,
    ParameterPair,
    SpanError,
    TelescopicError,
    approximant_table,
    closed_form_recurrence,
    decay_rate_estimate,
    decompose_against,
    integrate_01,
    log_of_rational,
    logcomb_to_float,
    make_right_family,
    propagate_recurrence,
    rows_to_csv,
    target_constant,
)
import telescopic.approximants


# -- target constant ---------------------------------------------------------------


def test_target_constant_reference_pairs():
    assert target_constant(ParameterPair(2, 1)) == LogCombination(0, {2: 2, 3: -1})
    # a=3, b=1: log(1 + 2/4) = log(3/2)
    assert target_constant(ParameterPair(3, 1)) == LogCombination(0, {2: -1, 3: 1})


def test_target_constant_matches_scaled_integral():
    rng = random.Random(701)
    for _ in range(5):
        params = random_params(rng)
        lam = target_constant(params)
        assert lam == log_of_rational(
            1 + (params.a - params.b) / ((params.a + 1) * params.b)
        )


# -- span decomposition -------------------------------------------------------------


def test_decompose_reference_value():
    lam = log_of_rational(Fraction(4, 3))
    value = LogCombination(-21, {2: 146, 3: -73})  # 73 lam - 21
    assert decompose_against(value, lam) == (Fraction(73), Fraction(21))
    assert decompose_against(lam, lam) == (Fraction(1), Fraction(0))


def test_decompose_rejects_rational_reference():
    with pytest.raises(SpanError, match="no logarithmic part"):
        decompose_against(LogCombination(1), LogCombination(5))


def test_decompose_rejects_foreign_primes():
    lam = log_of_rational(Fraction(4, 3))
    with pytest.raises(SpanError, match="primes absent"):
        decompose_against(log_of_rational(Fraction(5, 2)), lam)


def test_decompose_rejects_inconsistent_multiples():
    lam = log_of_rational(Fraction(4, 3))  # 2 log 2 - log 3
    skewed = LogCombination(0, {2: 2, 3: 3})
    with pytest.raises(SpanError, match="rational multiple"):
        decompose_against(skewed, lam)


# -- the table -----------------------------------------------------------------------


def test_table_reference_rows():
    rows = approximant_table(ParameterPair(2, 1), 3)
    assert [(row.p, row.q) for row in rows] == [
        (Fraction(1), Fraction(0)),
        (Fraction(7), Fraction(2)),
        (Fraction(73), Fraction(21)),
        (Fraction(847), Fraction(731, 3)),
    ]
    expected_errors = [
        mpmath.mpf("0.28768207245178092744"),
        mpmath.mpf("0.0019677867374952131535"),
        mpmath.mpf("0.000010839575068598672096"),
        mpmath.mpf("5.7497038699969718809e-8"),
    ]
    expected_exponents = [1.0, 1.31230272671, 1.37529253982, 1.40438398441]
    for row, err, expo in zip(rows, expected_errors, expected_exponents):
        assert abs(row.abs_error - err) <= mpmath.mpf(1e-12) * err
        assert abs(row.empirical_exponent - expo) < 1e-9
    assert rows[0].value == 0
    with mpmath.workprec(256):
        assert abs(rows[2].value - mpmath.mpf(21) / 73) < mpmath.mpf(2) ** -250


def test_table_rows_reassemble_exactly():
    rng = random.Random(702)
    for _ in range(5):
        params = random_params(rng)
        right = make_right_family(params)
        lam = target_constant(params).scale(1 / (params.a - params.b))
        rows = approximant_table(params, 6)
        for row in rows:
            reassembled = lam.scale(row.p) - LogCombination(row.q)
            assert reassembled == integrate_01(right.at(row.n))
            assert row.p != 0


def test_fraction_seeds_reproduce_table_pairs():
    # the recurrence carries R(n) = p_n * Lambda - q_n coordinate by
    # coordinate: Fraction seeds (1, p_1) and (0, q_1) give the pairs of
    # the LogCombination values and of the table rows
    params = ParameterPair(Fraction(7, 2), Fraction(1, 3))
    rec = closed_form_recurrence(params)
    right = make_right_family(params)
    lam = integrate_01(right.at(0))
    values = propagate_recurrence(rec, [lam, integrate_01(right.at(1))], 40)
    p1, q1 = decompose_against(values[1], lam)
    ps = propagate_recurrence(rec, [Fraction(1), p1], 40)
    qs = propagate_recurrence(rec, [Fraction(0), q1], 40)
    assert all(isinstance(x, Fraction) for x in ps + qs)
    pairs = list(zip(ps, qs))
    assert pairs == [decompose_against(value, lam) for value in values]
    assert pairs == [(row.p, row.q) for row in approximant_table(params, 40)]


def test_table_error_identity():
    # abs_error * p equals the linear form |p*Lambda - q| to working precision
    params = ParameterPair(5, 2)
    rows = approximant_table(params, 12, precision_bits=256)
    right = make_right_family(params)
    with mpmath.workprec(256):
        for row in rows[1:]:
            linear = abs(logcomb_to_float(integrate_01(right.at(row.n)), 256))
            product = row.abs_error * mpmath.mpf(row.p.numerator) / row.p.denominator
            assert abs(product - linear) <= linear * mpmath.mpf(2) ** -250


def test_table_errors_strictly_decrease():
    rng = random.Random(703)
    for _ in range(10):
        params = random_params(rng)
        rows = approximant_table(params, 20)
        errors = [row.abs_error for row in rows]
        assert all(late < early for early, late in zip(errors, errors[1:])), params


def _reference_table(params, n_max, precision_bits=256):
    """The table by the direct route: propagate the values R(n) as
    LogCombinations, then decompose and evaluate every row on its own."""
    right = make_right_family(params)
    lam = integrate_01(right.at(0))
    initial = [lam, integrate_01(right.at(1))]
    values = propagate_recurrence(closed_form_recurrence(params), initial, max(n_max, 1))
    rows = []
    for n in range(n_max + 1):
        p, q = decompose_against(values[n], lam)
        with mpmath.workprec(precision_bits):
            ratio = q / p
            value = mpmath.mpf(ratio.numerator) / ratio.denominator
            p_float = abs(mpmath.mpf(p.numerator) / p.denominator)
            abs_error = abs(logcomb_to_float(values[n], precision_bits)) / p_float
            exponent = 1 + mpmath.ln(p_float) / (-mpmath.ln(abs_error))
            rows.append(ApproximantRow(n, p, q, +value, +abs_error, +exponent))
    return rows


def _assert_matches_reference(params, n_max, precision_bits):
    rows = approximant_table(params, n_max, precision_bits)
    reference = _reference_table(params, n_max, precision_bits)
    assert rows == reference, (params, n_max, precision_bits)
    assert rows_to_csv(rows, precision_bits) == rows_to_csv(reference, precision_bits)


def test_table_matches_reference_on_reference_pair():
    for n_max in (0, 1, 150):
        _assert_matches_reference(ParameterPair(2, 1), n_max, 256)


@pytest.mark.parametrize("a, K", [(5, 16), (9, 64), (13, 144), (16, 225)])
def test_table_matches_reference_with_a_normalising_factor(a, K):
    # approx workload pairs with K > 1, at the workload's largest n_max
    params = ParameterPair(a, 1)
    assert telescopic.approximants._normalising_factor(params) == K
    _assert_matches_reference(params, 229, 256)


@pytest.mark.parametrize("precision_bits", [64, 256, 1024])
def test_table_matches_reference_on_random_pairs(precision_bits):
    rng = random.Random(704)
    for _ in range(6):
        _assert_matches_reference(random_params(rng), 40, precision_bits)


@pytest.mark.parametrize(
    "params, n_max, precision_bits, digest",
    [
        (ParameterPair(2, 1), 300, 256,
         "477523d329791620b70dd2a207fdf2b8cd0eb74f3d3d38168ebae6974c058b7b"),
        (ParameterPair(Fraction(7, 2), Fraction(1, 3)), 120, 64,
         "ba6a4a45a9b7efb7b5a835f8b8feb81f435289e1c175c5e757f584c03340ebaf"),
        (ParameterPair(Fraction(7, 2), Fraction(1, 3)), 120, 1024,
         "1db958b8dc30605aec78442972da5252903c7765c3a3b9cd8e36766423c28513"),
    ],
)
def test_table_csv_golden_digests(params, n_max, precision_bits, digest):
    # digests of the CSV written by the per-row LogCombination evaluation
    rows = approximant_table(params, n_max, precision_bits)
    text = rows_to_csv(rows, precision_bits)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- integer pairs ------------------------------------------------------------------

# a in the benchmark's approx workload: (a, 1) with 2a/(a+1) a ratio of two prime powers
BENCHMARK_HEADS = (2, 3, 4, 5, 7, 8, 9, 13, 16)


def test_table_reads_its_relation_from_the_right_family(monkeypatch):
    # both families have U0 = 2ab + a + b and D0 = (a - b)^2, so one recurrence
    calls = count_calls(monkeypatch, "make_left_family")
    approximant_table(ParameterPair(2, 1), 20)
    assert calls["make_left_family"] == 0


def _integer_pairs(params, n_target):
    right = make_right_family(params)
    lam = integrate_01(right.at(0))
    p1, q1 = decompose_against(integrate_01(right.at(1)), lam)
    K = telescopic.approximants._normalising_factor(params)
    steps = telescopic.approximants._lcm_steps(n_target)
    return telescopic.approximants._integer_pairs(closed_form_recurrence(params).normalized()[0], K, steps, p1, q1)


@pytest.mark.parametrize(
    "params, n_target",
    [(ParameterPair(a, 1), 230) for a in BENCHMARK_HEADS]
    + [
        (ParameterPair(a, b), 1000)
        for a, b in [
            (2, 1),
            (Fraction(7, 2), Fraction(1, 3)),
            (5, 1),
            (Fraction(3, 2), Fraction(1, 2)),
            (Fraction(9, 4), Fraction(2, 7)),
            (Fraction(301006, 46141), Fraction(729379, 805120)),
        ]
    ],
    ids=str,
)
def test_integer_pairs_divide_exactly(params, n_target):
    # K^n p_n and K^n d_n q_n stay integers: no step leaves a remainder
    ps, qs = _integer_pairs(params, n_target)
    assert len(ps) == len(qs) == n_target + 1


@pytest.mark.parametrize(
    "params, wrong_factor, n",
    [
        # num(k)^2 = 4 alone leaves q_1 = 1/8 a fraction
        (ParameterPair(5, 1), 4, 1),
        # 2 clears (p_1, q_1) but not (p_2, q_2); K = 16
        (ParameterPair(Fraction(3, 2), Fraction(1, 2)), 2, 2),
    ],
    ids=str,
)
def test_wrong_normalising_factor_raises(monkeypatch, params, wrong_factor, n):
    monkeypatch.setattr(
        telescopic.approximants, "_normalising_factor", lambda params: wrong_factor
    )
    with pytest.raises(TelescopicError, match=f"does not clear the denominators at n={n}$"):
        approximant_table(params, 20)


@pytest.mark.parametrize("n_max", [0, 1, 2])
@pytest.mark.parametrize(
    "params",
    [
        ParameterPair(Fraction(7, 2), Fraction(1, 3)),
        ParameterPair(5, 1),
        ParameterPair(Fraction(3, 4), Fraction(1, 2)),
    ],
    ids=str,
)
def test_short_tables_match_reference(params, n_max):
    # the extra row behind the first guess and the seeds at n = 0, 1
    _assert_matches_reference(params, n_max, 256)


def _count_log_evaluations(monkeypatch):
    calls = []
    original = telescopic.approximants.logcomb_to_float

    def counting(value, precision_bits):
        calls.append(precision_bits)
        return original(value, precision_bits)

    monkeypatch.setattr(telescopic.approximants, "logcomb_to_float", counting)
    return calls


def test_table_evaluates_the_logarithm_once(monkeypatch):
    calls = _count_log_evaluations(monkeypatch)
    for a in BENCHMARK_HEADS:
        calls.clear()
        approximant_table(ParameterPair(a, 1), 229)
        assert len(calls) == 1, a


@pytest.mark.parametrize(
    "params, n_max, evaluations",
    [
        (ParameterPair(3, 1), 40, 1),  # the Casoratian guess suffices
        (ParameterPair(5, 1), 5, 2),  # a first guess of 0 falls short and is widened
    ],
)
def test_table_precision_branches_match_reference(monkeypatch, params, n_max, evaluations):
    calls = _count_log_evaluations(monkeypatch)
    if evaluations == 2:
        linear_forms = telescopic.approximants._linear_forms
        monkeypatch.setattr(
            telescopic.approximants,
            "_linear_forms",
            lambda lam, forms, _, precision_bits: linear_forms(lam, forms, 0, precision_bits),
        )
    rows = approximant_table(params, n_max)
    assert len(calls) == evaluations
    assert calls == sorted(set(calls))
    monkeypatch.undo()
    assert rows == _reference_table(params, n_max)


def test_table_rows_are_slotted_values():
    # no instance dict per row; pickling, deep copies and replace still work
    row = approximant_table(ParameterPair(2, 1), 3)[3]
    assert not hasattr(row, "__dict__")
    assert pickle.loads(pickle.dumps(row)) == row
    assert copy.deepcopy(row) == row
    moved = dataclasses.replace(row, n=4)
    assert (moved.n, moved.p, moved.abs_error) == (4, row.p, row.abs_error)
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.n = 5


def test_table_validates_arguments():
    with pytest.raises(ValueError, match="n_max"):
        approximant_table(ParameterPair(2, 1), -1)
    with pytest.raises(ValueError, match="precision_bits"):
        approximant_table(ParameterPair(2, 1), 4, precision_bits=32)


# -- decay rate --------------------------------------------------------------------


def test_decay_rate_approaches_characteristic_root():
    # smaller root of t^2 - 14 t + 1 for (a, b) = (2, 1)
    target = 7 - 4 * mpmath.sqrt(3)
    rows = approximant_table(ParameterPair(2, 1), 100)
    estimate = decay_rate_estimate(rows)
    assert abs(estimate - target) < 0.01 * target
    # shorter tables carry a visible subexponential drag; stay honest about it
    short = decay_rate_estimate(approximant_table(ParameterPair(2, 1), 20))
    assert abs(short - target) < 0.05 * target


def _synthetic_rows(errors):
    return [
        ApproximantRow(
            n,
            Fraction(1),
            Fraction(0),
            mpmath.mpf(0),
            mpmath.mpf(err),
            mpmath.mpf(1),
        )
        for n, err in enumerate(errors)
    ]


def test_decay_rate_synthetic_sequences():
    constant = _synthetic_rows([1.0] * 12)
    assert decay_rate_estimate(constant) == 1
    halving = _synthetic_rows([2.0 ** -n for n in range(12)])
    assert abs(decay_rate_estimate(halving) - mpmath.mpf(0.5)) < mpmath.mpf("1e-30")


def test_decay_rate_needs_five_rows():
    rows = _synthetic_rows([1.0, 0.5, 0.25, 0.125])
    with pytest.raises(ValueError, match="at least 5 rows"):
        decay_rate_estimate(rows)


# -- CSV export --------------------------------------------------------------------


def test_rows_to_csv_layout():
    rows = approximant_table(ParameterPair(2, 1), 3)
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "n,p,q,value,abs_error,empirical_exponent"
    assert len(lines) == 5
    assert text.endswith("\n")
    for line in lines[1:]:
        assert len(line.split(",")) == 6
    assert lines[1].startswith("0,1,0,0.0,")
    assert lines[3].startswith("3,847,731/3,") or lines[4].startswith("3,847,731/3,")


def test_rows_to_csv_digit_count_tracks_precision():
    rows = approximant_table(ParameterPair(2, 1), 2, precision_bits=256)
    wide = rows_to_csv(rows, precision_bits=256)
    narrow = rows_to_csv(rows, precision_bits=64)
    wide_error = wide.splitlines()[2].split(",")[4]
    narrow_error = narrow.splitlines()[2].split(",")[4]
    assert len(wide_error) > len(narrow_error)
    assert wide_error[:12] == narrow_error[:12]
