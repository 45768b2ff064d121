"""Command-line front end.

One result object is printed per line (JSON by default, CSV on request for
the tabular commands) so long verifications stream and stay inspectable.
Exact rationals are serialized as "p/q" strings, never floats.

Exit codes: 0 ok, 1 verification failed, 2 usage error, 3 precision error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import Any, NamedTuple

from . import analytic, certificate, hypergeom, sequences
from .errors import PrecisionError
from .exact import format_rational

EXIT_CODES = {
    "ok": 0,
    "verification_failed": 1,
    "usage_error": 2,
    "precision_error": 3,
}

FAMILY_CHOICES = sequences.FAMILIES


class CommandResult(NamedTuple):
    """Outcome of one CLI invocation: a status plus the last payload."""

    status: str
    payload: Any

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.status]


def _emit(record: dict, fmt: str, header: list[str] | None = None, first: bool = False) -> None:
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        if first and header:
            writer.writerow(header)
        writer.writerow([record.get(key, "") for key in (header or record.keys())])
        sys.stdout.write(buffer.getvalue())
    else:
        sys.stdout.write(json.dumps(record) + "\n")


def _pair_record(family: str, n: int) -> dict:
    item = sequences.pair(family, n)
    return {
        "family": family,
        "n": n,
        "u": format_rational(item.u),
        "v": format_rational(item.v),
    }


def _n_max(args, least: int = 0) -> int:
    """--n-max, rejected as a usage error below `least`."""
    if args.n_max < least:
        raise ValueError(f"--n-max must be at least {least}")
    return args.n_max


def _cmd_pair(args) -> CommandResult:
    record = _pair_record(args.family, args.n)
    _emit(record, args.format, header=list(record.keys()), first=True)
    return CommandResult("ok", record)


def _cmd_range(args) -> CommandResult:
    header = ["family", "n", "u", "v"]
    for n in range(_n_max(args) + 1):
        _emit(_pair_record(args.family, n), args.format, header=header, first=(n == 0))
    return CommandResult("ok", {"rows": args.n_max + 1})


def _cmd_check(args) -> CommandResult:
    header = ["family", "n", "mode", "pass_u", "pass_v", "witness_u", "witness_v"]
    all_ok = True
    for n in range(_n_max(args) + 1):
        report = sequences.check_inclusions(args.family, n, args.mode)
        all_ok = all_ok and report.ok
        record = {
            "family": report.family,
            "n": report.n,
            "mode": report.mode,
            "pass_u": report.pass_u,
            "pass_v": report.pass_v,
            "witness_u": "" if report.witness_u is None else str(report.witness_u),
            "witness_v": "" if report.witness_v is None else str(report.witness_v),
        }
        _emit(record, args.format, header=header, first=(n == 0))
    status = "ok" if all_ok else "verification_failed"
    return CommandResult(status, {"rows": args.n_max + 1, "all_pass": all_ok})


def _cmd_decompose(args) -> CommandResult:
    if args.family == "zeta4":
        return _decompose_zeta4(args.n)
    table = hypergeom.partial_fractions(args.n)
    quad = hypergeom.coefficient_quadruple(args.n)
    record = {
        "n": args.n,
        "A": [[format_rational(entry) for entry in row] for row in table.A],
        "U": format_rational(quad.U),
        "Uprime": format_rational(quad.Uprime),
        "Udoubleprime": format_rational(quad.Udoubleprime),
        "V": format_rational(quad.V),
    }
    _emit(record, "json")
    return CommandResult("ok", record)


def _decompose_zeta4(n: int) -> CommandResult:
    parts = hypergeom.zeta4_decomposition(n)
    item = sequences.zeta4_pair(n)
    sign = Fraction((-1) ** (n + 1), 6)
    # sum_t H_n'(t) = 6 (-1)^(n+1) (u_n zeta(4) - v_n), so only zeta(4) appears
    holds = (
        parts.zeta[0] == parts.zeta[1] == parts.zeta[3] == 0
        and sign * parts.zeta[2] == item.u
        and sign * parts.rational == -item.v
    )
    record = {
        "family": "zeta4",
        "n": n,
        "B": [[format_rational(entry) for entry in row] for row in parts.B],
        "zeta2": format_rational(parts.zeta[0]),
        "zeta3": format_rational(parts.zeta[1]),
        "zeta4": format_rational(parts.zeta[2]),
        "zeta5": format_rational(parts.zeta[3]),
        "rational": format_rational(parts.rational),
        "identity": holds,
    }
    _emit(record, "json")
    return CommandResult("ok" if holds else "verification_failed", record)


def _cmd_certify(args) -> CommandResult:
    all_ok = True
    for n in range(1, _n_max(args, least=1) + 1):
        telescoped = certificate.verify_telescoping(n)
        at_zero = certificate.build_certificate(n).S(0)
        ok = telescoped and at_zero == 0
        all_ok = all_ok and ok
        record = {
            "n": n,
            "telescoping": telescoped,
            "certificate_at_zero": format_rational(at_zero),
            "pass": ok,
        }
        _emit(record, "json")
    status = "ok" if all_ok else "verification_failed"
    return CommandResult(status, {"rows": args.n_max, "all_pass": all_ok})


def _cmd_cf(args) -> CommandResult:
    convergent = analytic.cf_convergent(args.family, args.n)
    item = sequences.pair(args.family, args.n)
    matches = convergent.value == item.v / item.u
    record = {
        "family": args.family,
        "n": args.n,
        "convergent": format_rational(convergent.value),
        "matches_recurrence_ratio": matches,
    }
    _emit(record, "json")
    return CommandResult("ok" if matches else "verification_failed", record)


def _cmd_digits(args) -> CommandResult:
    from mpmath import mp

    result = (
        analytic.catalan_digits(args.digits)
        if args.constant == "catalan"
        else analytic.zeta4_digits(args.digits)
    )
    record = {
        "constant": result.constant,
        "digits": result.digits,
        "value": result.value,
        "n_used": result.n_used,
        "error_bound": mp.nstr(result.error_bound, 6),
    }
    _emit(record, "json")
    return CommandResult("ok", record)


def _cmd_integral(args) -> CommandResult:
    from mpmath import mp

    value = analytic.beukers_integral(args.n, args.digits)
    # the form carries 15 digits past the comparison, so that its own error
    # stays out of the residuals; linear_form sizes the cancellation itself
    working = args.digits + 15
    form = analytic.linear_form("catalan", args.n, working)
    with mp.workdps(working):
        sign = 1 if args.n % 2 == 0 else -1
        residual_eighth = abs(sign * value / 8 - form)
        residual_quarter = abs(sign * value / 4 - form)
        tolerance = mp.mpf(10) ** (-(args.digits - 1))
        ok = residual_eighth < tolerance * abs(form)
    record = {
        "n": args.n,
        "digits": args.digits,
        "integral": mp.nstr(value, args.digits + 2),
        "linear_form": mp.nstr(form, args.digits + 2),
        "residual_eighth": mp.nstr(residual_eighth, 4),
        "residual_quarter": mp.nstr(residual_quarter, 4),
    }
    _emit(record, "json")
    return CommandResult("ok" if ok else "verification_failed", record)


def _cmd_series(args) -> CommandResult:
    from mpmath import mp

    value = analytic.zeta4_series(args.n, args.digits)
    # the form carries 15 digits past the comparison, so that its own error
    # stays out of the residual; the test is relative to the form, as in
    # `integral`, since the form shrinks with n far below any fixed bound
    working = args.digits + 15
    form = analytic.linear_form("zeta4", args.n, working)
    with mp.workdps(working):
        residual = abs(value - form)
        ok = residual < mp.mpf(10) ** (-(args.digits - 1)) * abs(form)
    record = {
        "n": args.n,
        "digits": args.digits,
        "value": mp.nstr(value, args.digits + 2),
        "linear_form": mp.nstr(form, args.digits + 2),
        "residual": mp.nstr(residual, 4),
    }
    _emit(record, "json")
    return CommandResult("ok" if ok else "verification_failed", record)


def _cmd_asymptotics(args) -> CommandResult:
    from mpmath import mp

    rates = sequences.asymptotic_report(args.family, args.n, args.digits)
    record = {
        "family": args.family,
        "n": args.n,
        "digits": args.digits,
        "rate_u": mp.nstr(rates.rate_u, min(args.digits, 12)),
        "rate_form": mp.nstr(rates.rate_form, min(args.digits, 12)),
    }
    _emit(record, "json")
    return CommandResult("ok", record)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aperylike",
        description=(
            "Exact generation and verification of the second-order recurrences "
            "for Catalan's constant and zeta(4)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p, choices=FAMILY_CHOICES):
        p.add_argument("--family", required=True, choices=choices)

    p = sub.add_parser("pair", help="one exact sequence pair (n, u_n, v_n)")
    add_family(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("range", help="stream exact pairs for n = 0..N")
    add_family(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_range)

    p = sub.add_parser("check", help="denominator-clearing integrality reports")
    add_family(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("proved", "strong"))
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "decompose", help="partial-fraction table and linear-form coefficients"
    )
    p.add_argument("--family", choices=FAMILY_CHOICES, default="catalan")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("certify", help="exact telescoping-identity verification")
    add_family(p, choices=("catalan",))
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("cf", help="continued-fraction convergent at depth n")
    add_family(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("digits", help="certified decimal digits of a constant")
    p.add_argument("--constant", required=True, choices=FAMILY_CHOICES)
    p.add_argument("--digits", type=int, required=True)
    p.set_defaults(func=_cmd_digits)

    p = sub.add_parser("integral", help="double-integral representation residuals")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--digits", type=int, required=True)
    p.set_defaults(func=_cmd_integral)

    p = sub.add_parser("series", help="derivative-series residual for zeta4")
    p.add_argument("--constant", required=True, choices=("zeta4",))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--digits", type=int, required=True)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("asymptotics", help="measured per-n growth rates")
    add_family(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--digits", type=int, required=True)
    p.set_defaults(func=_cmd_asymptotics)

    return parser


def run(argv: list[str]) -> CommandResult:
    """Parse and dispatch; returns a CommandResult instead of exiting."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return CommandResult("usage_error", {"error": "invalid arguments"})
    try:
        return args.func(args)
    except PrecisionError as exc:
        sys.stderr.write(f"precision error: {exc}\n")
        return CommandResult("precision_error", {"error": str(exc)})
    except (ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return CommandResult("usage_error", {"error": str(exc)})


def main(argv: list[str] | None = None) -> None:
    result = run(sys.argv[1:] if argv is None else argv)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
