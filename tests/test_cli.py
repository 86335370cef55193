"""The command-line surface, driven in-process through main(argv)."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import telescopic
from conftest import count_calls
from telescopic import (
    AnsatzExhaustedError,
    IntegrandFamily,
    LogCombination,
    ParameterPair,
    cli,
    proof_from_json,
    prove_identity,
    reverify_proof,
)
from telescopic.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- prove ---------------------------------------------------------------------


def test_prove_succeeds_and_prints_summary(capsys):
    code, out, err = run(["prove", "--a", "2", "--b", "1", "--n-max", "3"], capsys)
    assert code == 0
    assert "verdict: proved" in err
    assert "recurrence coefficients (in n): [n + 1, -14*n - 21, n + 2]" in err
    assert "base case n=0" in err
    assert "substitution check (all n): pass" in err
    assert '"status": "proved"' in out  # the record alone on stdout


def test_prove_without_out_writes_only_the_record_to_stdout(capsys):
    # `telescopic prove ... > proof.json` gives a file that reads back
    code, out, err = run(["prove", "--a", "7/2", "--b", "1/3", "--n-max", "2"], capsys)
    assert code == 0
    assert "verdict: proved" in err
    proof = proof_from_json(out)
    assert proof.proved
    assert reverify_proof(proof)


def test_prove_writes_json_to_out(tmp_path, capsys):
    target = tmp_path / "proof.json"
    code, out, _ = run(
        ["prove", "--a", "7/2", "--b", "1/3", "--n-max", "2", "--out", str(target)],
        capsys,
    )
    assert code == 0
    assert "verdict: proved" in out
    proof = proof_from_json(target.read_text())
    assert proof.proved
    assert reverify_proof(proof)


def test_prove_accepts_decimal_rationals(tmp_path, capsys):
    target = tmp_path / "proof.json"
    code, _, _ = run(
        ["prove", "--a", "2.5", "--b", "0.5", "--n-max", "1", "--out", str(target)],
        capsys,
    )
    assert code == 0
    obj = json.loads(target.read_text())
    assert obj["params"] == {"a": "5/2", "b": "1/2"}


def test_prove_discover_mode(capsys):
    code, _, err = run(
        ["prove", "--a", "2", "--b", "1", "--n-max", "2", "--mode", "discover"],
        capsys,
    )
    assert code == 0
    assert "verdict: proved" in err


def test_prove_discover_exhaustion_skips_unrun_checks(monkeypatch, capsys):
    def exhausted(fam):
        raise AnsatzExhaustedError(2, 4)

    monkeypatch.setattr(telescopic.prove, "discover", exhausted)
    code, _, err = run(["prove", "--a", "2", "--b", "1", "--mode", "discover"], capsys)
    assert code == 1
    assert "verdict: failed" in err
    assert "no telescoping relation" in err
    assert "substitution check" not in err
    assert "direct left/right comparisons" not in err


def _fail_substitution(monkeypatch):
    monkeypatch.setattr(telescopic.prove, "verify_substitution_proof", lambda params: False)


def _fail_base_case(monkeypatch):
    integrals = IntegrandFamily.integrals

    def skewed(fam):  # the right family's denominator is the linear one
        values = integrals(fam)
        return values if fam.den.degree() == 2 else (v + LogCombination(1) for v in values)

    monkeypatch.setattr(IntegrandFamily, "integrals", skewed)


def _exhaust_ansatz(monkeypatch):
    def exhausted(fam):
        raise AnsatzExhaustedError(2, 4)

    monkeypatch.setattr(telescopic.prove, "discover", exhausted)


@pytest.mark.parametrize(
    "breaking, expected, reason",
    [
        (None, True, None),
        (_fail_substitution, False, "substitution check failed"),
        (_fail_base_case, None, "base case mismatch at n=0"),
        (_exhaust_ansatz, None, "ansatz exhausted"),
    ],
    ids=["proved", "substitution_failed", "base_mismatch", "ansatz_exhausted"],
)
def test_substitution_check_agrees_in_proof_record_and_summary(breaking, expected, reason, monkeypatch, capsys):
    if breaking is not None:
        breaking(monkeypatch)
    code, out, err = run(["prove", "--a", "2", "--b", "1", "--n-max", "2", "--mode", "discover"], capsys)
    assert code == (0 if expected else 1)
    proof = proof_from_json(out)
    assert proof.proved if reason is None else proof.failure_reason.startswith(reason)
    assert proof.substitution_check is expected
    # the record's field is a bool, false as well when the check never ran
    assert json.loads(out)["substitution_check"] is bool(expected)
    if expected is None:
        assert "substitution check" not in err
    else:
        assert f"substitution check (all n): {'pass' if expected else 'FAIL'}" in err


def test_prove_summary_reports_unequal_comparisons(monkeypatch, capsys):
    proof = prove_identity(ParameterPair(2, 1), extra_n=3)
    n, left, right = proof.extra_checks[-1]
    broken = dataclasses.replace(
        proof,
        extra_checks=proof.extra_checks[:-1] + ((n, left, right + LogCombination(1)),),
        failure_reason=f"direct comparison mismatch at n={n}",
    )
    monkeypatch.setattr(cli, "prove_identity", lambda *args, **kwargs: broken)
    code, _, err = run(["prove", "--a", "2", "--b", "1", "--n-max", "3"], capsys)
    assert code == 1
    assert "direct left/right comparisons: n = 0..3, unequal at n = [3]" in err
    assert "all equal" not in err
    assert "substitution check" not in err


# -- usage errors (exit code 2) ------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["prove", "--a", "1", "--b", "2"],  # a <= b
        ["prove", "--a", "2", "--b", "0"],  # b <= 0
        ["prove", "--b", "1"],  # missing --a
        ["approx", "--a", "2", "--b", "1", "--precision-bits", "8"],
        ["quad", "--a", "2", "--b", "1", "--tol", "1e-15"],
        ["prove", "--a", "2", "--b", "1", "--n-max", "-1"],
        ["derive", "--a", "2", "--b", "1", "--max-order", "0"],
        ["derive", "--a", "2", "--b", "1", "--max-cert-degree", "0"],
        ["prove", "--a", "x", "--b", "1"],  # not a rational
        ["prove", "--a", "2", "--b", "1", "--mode", "psychic"],
        ["transmogrify", "--a", "2", "--b", "1"],
        ["prove", "--a", "2", "--b", "1", "--seed", "1"],  # no such option
        ["derive", "--a", "2", "--b", "1", "--n-max", "3"],  # not read by derive
        ["prove", "--a", "2", "--b", "1", "--tol", "1e-6"],  # not read by prove
        # discovery's search space is fixed: no bound is an option
        ["prove", "--a", "2", "--b", "1", "--mode", "discover", "--max-order", "2"],
        ["derive", "--a", "2", "--b", "1", "--max-cert-degree", "4"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err  # a diagnostic was printed


@pytest.mark.parametrize("where", ["missing_directory", "directory", "empty"])
@pytest.mark.parametrize("command", ["prove", "approx", "quad"])
def test_unwritable_out_exits_2(command, where, tmp_path, monkeypatch, capsys):
    # the path is checked before any work: no summary, no computation, no file
    calls = count_calls(monkeypatch, "prove_identity", "approximant_table", "quad_01")
    target = {"missing_directory": tmp_path / "missing" / "out", "directory": tmp_path, "empty": ""}[where]
    code, out, err = run([command, "--a", "2", "--b", "1", "--n-max", "1", "--out", str(target)], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err
    assert out == ""
    assert not calls
    assert not any(tmp_path.iterdir())


def test_unwritable_dat_companion_exits_2(tmp_path, capsys):
    target = tmp_path / "table.csv"
    (tmp_path / "table.csv.dat").mkdir()
    code, _, err = run(["approx", "--a", "2", "--b", "1", "--n-max", "1", "--out", str(target)], capsys)
    assert code == 2
    assert err == f"error: cannot write {target}.dat: Is a directory\n"
    assert not target.exists()  # the CSV is not written ahead of its companion


# -- derive ----------------------------------------------------------------------


def test_derive_reports_both_families(capsys):
    code, out, _ = run(["derive", "--a", "2", "--b", "1"], capsys)
    assert code == 0
    assert "left family:" in out
    assert "right family:" in out
    assert "recurrence (order 2): [n + 1, -14*n - 21, n + 2]" in out
    assert "verified for all n: True" in out
    assert "families share one recurrence: True" in out


def test_derive_reports_a_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_telescoping", lambda fam, rec, cert: False)
    code, out, _ = run(["derive", "--a", "2", "--b", "1"], capsys)
    assert code == 1
    assert "verified for all n: False" in out
    assert "verified for all n: True" not in out


def test_derive_coefficient_pattern(capsys):
    # (a, b) = (3, 2): middle coefficient is -(2n+3) * 17
    code, out, _ = run(["derive", "--a", "3", "--b", "2"], capsys)
    assert code == 0
    assert "[n + 1, -34*n - 51, n + 2]" in out


def test_derive_exhaustion_exits_1(monkeypatch, capsys):
    def exhausted(fam):
        raise AnsatzExhaustedError(2, 4)

    monkeypatch.setattr(cli, "discover", exhausted)
    code, _, err = run(["derive", "--a", "2", "--b", "1"], capsys)
    assert code == 1
    assert "no telescoping relation" in err


def test_every_option_is_a_flag_of_some_subcommand():
    # _validate skips names absent from the namespace, so a flag dropped
    # from _COMMANDS would leave its option and bound behind silently
    flags = {flag for _, names, _ in cli._COMMANDS.values() for flag in names.split()}
    assert flags == set(cli._OPTIONS)
    assert {name for name, _, _ in cli._BOUNDS} <= {flag.replace("-", "_") for flag in flags}


# -- approx ----------------------------------------------------------------------


def test_approx_reference_rows(capsys):
    code, out, _ = run(["approx", "--a", "2", "--b", "1", "--n-max", "2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,p,q,value,abs_error,empirical_exponent"
    assert len(lines) == 4
    assert lines[1].startswith("0,1,0,")
    assert lines[2].startswith("1,7,2,")
    assert lines[3].startswith("2,73,21,")


def test_approx_n_max_zero_single_row(capsys):
    code, out, _ = run(["approx", "--a", "2", "--b", "1", "--n-max", "0"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 2


def test_approx_writes_csv_and_dat(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(
        ["approx", "--a", "2", "--b", "1", "--n-max", "4", "--out", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    csv_lines = target.read_text().splitlines()
    assert len(csv_lines) == 6
    dat_lines = (tmp_path / "table.csv.dat").read_text().splitlines()
    assert len(dat_lines) == 5
    assert dat_lines[0].split()[0] == "0"


def test_module_entry_point_runs_the_cli():
    # `python -m telescopic` from a checkout, as its own process
    source_root = str(Path(telescopic.__file__).parents[1])
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "telescopic", "approx", "--a", "2", "--b", "1", "--n-max", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    rows = [line.split(",")[:3] for line in result.stdout.splitlines()[1:]]
    assert rows == [["0", "1", "0"], ["1", "7", "2"], ["2", "73", "21"]]


# -- quad -----------------------------------------------------------------------


def test_quad_table(capsys):
    code, out, _ = run(["quad", "--a", "2", "--b", "1", "--n-max", "4"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family n exact quadrature abs_diff subdivisions status"
    assert len(lines) == 11  # both families, n = 0..4
    for line in lines[1:]:
        fields = line.split()
        assert fields[0] in ("left", "right")
        assert float(fields[4]) < 1e-11
        assert fields[6] == "ok"


# -- determinism ------------------------------------------------------------------


def test_identical_configuration_is_byte_identical(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for target in (first, second):
        args = ["prove", "--a", "4/3", "--b", "1/4", "--n-max", "3", "--out", str(target)]
        assert main(args) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()

    csv_first = tmp_path / "a.csv"
    csv_second = tmp_path / "b.csv"
    for target in (csv_first, csv_second):
        args = ["approx", "--a", "4/3", "--b", "1/4", "--n-max", "10", "--out", str(target)]
        assert main(args) == 0
    capsys.readouterr()
    assert csv_first.read_bytes() == csv_second.read_bytes()
    assert (tmp_path / "a.csv.dat").read_bytes() == (tmp_path / "b.csv.dat").read_bytes()
