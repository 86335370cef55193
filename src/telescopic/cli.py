"""Command-line surface: prove | derive | approx | quad.

Exit codes: 0 success, 1 proof/verification failure, 2 usage or write error.
Rational arguments accept "p/q" and decimal strings; decimals convert
exactly (0.5 -> 1/2), so no floating contamination enters the exact
pipeline.  All output is deterministic for a fixed configuration.
Without --out, `prove` writes its proof record to standard output and
its summary to standard error, so the output parses as JSON.
Discovery runs in `discover`'s default space, which holds every pair's
relation, so no bound is an option: a smaller one fails true identities.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from fractions import Fraction

from . import serialize
from ._version import __version__
from .approximants import approximant_table, rows_to_csv
from .errors import TelescopicError, ToleranceNotMetError
from .families import ParameterPair, make_left_family, make_right_family
from .integration import logcomb_to_float
from .prove import prove_identity
from .quadrature import quad_01
from .telescoping import discover, verify_telescoping


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational like 3/4 or 0.75, got {text!r}"
        )


_OPTIONS = {
    "a": dict(type=_rational, required=True, help="parameter a (rational)"),
    "b": dict(type=_rational, required=True, help="parameter b (rational)"),
    "n-max": dict(type=int, default=8, help="largest n handled (default 8)"),
    "mode": dict(
        choices=("verify", "discover"),
        default="verify",
        help="use the closed-form certificates or re-derive them (default verify)",
    ),
    "precision-bits": dict(type=int, default=256, help="working float precision (default 256)"),
    "tol": dict(type=float, default=1e-12, help="quadrature tolerance (default 1e-12)"),
    "out": dict(default=None, help="output file path"),
}

# (option name, valid(value), message) for each option that has a bound
_BOUNDS = (
    ("n_max", lambda v: v >= 0, "--n-max must be nonnegative"),
    ("precision_bits", lambda v: v >= 64, "--precision-bits must be at least 64"),
    ("tol", lambda v: v >= 1e-14, "--tol must be at least 1e-14"),
)


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> ParameterPair:
    if not (args.a > args.b > 0):
        parser.error(f"requires a > b > 0 (got a={args.a}, b={args.b})")
    for name, valid, message in _BOUNDS:
        if name in vars(args) and not valid(getattr(args, name)):
            parser.error(message)
    return ParameterPair(args.a, args.b)


def _check_writable(out: str | None, *suffixes: str) -> None:
    """Raise the OSError open(path, "w") would for out and each out + suffix
    that is empty, names a directory or lies in a missing one, creating nothing."""
    for path in [] if out is None else [out] + [out + suffix for suffix in suffixes]:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not path or not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_prove(params: ParameterPair, args: argparse.Namespace) -> int:
    _check_writable(args.out)
    proof = prove_identity(params, mode=args.mode, extra_n=args.n_max)
    report = sys.stderr if args.out is None else sys.stdout  # keep stdout for the record
    print(f"params: a={params.a}, b={params.b}  mode: {args.mode}", file=report)
    if proof.recurrence is not None:
        print(f"recurrence coefficients (in n): {proof.recurrence.to_str()}", file=report)
    if proof.left_certificate is not None:
        print(f"left certificate:  {proof.left_certificate.at(0)}", file=report)
    if proof.right_certificate is not None:
        print(f"right certificate: {proof.right_certificate.at(0)}", file=report)
    for n, left, right in proof.base_cases:
        mark = "==" if left == right else "!="
        print(f"base case n={n}: left = {left}  {mark}  right = {right}", file=report)
    checks = proof.extra_checks
    unequal = [n for n, left, right in checks if left != right]
    if checks:
        status = "all equal" if not unequal else f"unequal at n = {unequal}"
        print(f"direct left/right comparisons: n = 0..{checks[-1][0]}, {status}", file=report)
    if proof.substitution_check is not None:
        print(f"substitution check (all n): {'pass' if proof.substitution_check else 'FAIL'}", file=report)
    if proof.proved:
        print("verdict: proved", file=report)
    else:
        print(f"verdict: failed — {proof.failure_reason}", file=report)
    _emit(serialize.proof_to_json(proof), args.out)
    return 0 if proof.proved else 1


def cmd_derive(params: ParameterPair, args: argparse.Namespace) -> int:
    families = {
        "left": make_left_family(params),
        "right": make_right_family(params),
    }
    results = {}
    for side, fam in families.items():
        rec, cert = discover(fam)
        results[side] = rec
        print(f"{side} family:")
        print(f"  recurrence (order {rec.order}): {rec.to_str()}")
        for i, part in enumerate(cert.parts):
            label = "certificate" if len(cert.parts) == 1 else f"certificate n^{i} part"
            print(f"  {label}: {part}")
        print(f"  certificate degree in n: {cert.n_degree()}")
        verified = verify_telescoping(fam, rec, cert)
        print(f"  verified for all n: {verified}")
        if not verified:
            return 1
    shared = results["left"] == results["right"]
    print(f"families share one recurrence: {shared}")
    return 0 if shared else 1


def cmd_approx(params: ParameterPair, args: argparse.Namespace) -> int:
    _check_writable(args.out, ".dat")
    rows = approximant_table(params, args.n_max, args.precision_bits)
    _emit(rows_to_csv(rows, args.precision_bits), args.out)
    if args.out is not None:
        import mpmath

        # gnuplot-compatible companion: n against the approximation error
        _emit("".join(f"{row.n} {mpmath.nstr(row.abs_error, 17)}\n" for row in rows), args.out + ".dat")
    return 0


def cmd_quad(params: ParameterPair, args: argparse.Namespace) -> int:
    _check_writable(args.out)
    lines = ["family n exact quadrature abs_diff subdivisions status"]
    for side, fam in (
        ("left", make_left_family(params)),
        ("right", make_right_family(params)),
    ):
        for n, value in zip(range(args.n_max + 1), fam.integrals()):
            integrand = fam.at(n)
            exact = float(logcomb_to_float(value, 64))
            status = "ok"
            try:
                result = quad_01(integrand, args.tol)
            except ToleranceNotMetError as exc:
                result = exc.result
                status = "tolerance-not-met"
            diff = abs(exact - result.value)
            lines.append(
                f"{side} {n} {exact:.15e} {result.value:.15e} {diff:.3e} "
                f"{result.subdivisions} {status}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# each subcommand: its help, exactly the options it reads, and its handler
_COMMANDS = {
    "prove": ("run the full proof pipeline", "a b n-max mode out", cmd_prove),
    "derive": ("discover recurrence and certificates", "a b", cmd_derive),
    "approx": ("emit the approximant table as CSV", "a b n-max precision-bits out", cmd_approx),
    "quad": ("compare exact values against quadrature", "a b n-max tol out", cmd_quad),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telescopic",
        description=(
            "Exact creative-telescoping proofs of a two-parameter integral "
            "identity, with rational log approximants and a quadrature oracle."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, flags, handler) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=text)
        for flag in flags.split():
            command_parser.add_argument(f"--{flag}", **_OPTIONS[flag])
        command_parser.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    params = _validate(parser, args)
    try:
        return args.handler(params, args)
    except TelescopicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # from checking or writing --out or its .dat companion
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
