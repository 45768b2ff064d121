"""Command-line front end.

Each command prints the library's own records, one per line, so long
verifications stream and stay inspectable.  One rule, in `_emit`, turns a
record into text: rationals print as "p" or "p/q" strings, in nested tables
too; integer witnesses print as decimal strings; floats appear only as
`mp.nstr` strings at the stated digits.  `pair`, `range` and `check` also
write CSV: the record's keys as a header, then str() of each value.

`range` and `check` hand `_emit` their values already as those strings,
read from the decimal numbers in each memo row (`sequences.row_texts` and
`witness_texts`), so their rows print in linear time and at any size.
`pair`, `cf` and `digits` convert ints, and past CPython's 4,300-digit
int->str limit they exit 2.

Exit codes: 0 ok, 1 verification failed, 2 usage error, 3 precision error.
"""

from __future__ import annotations

import argparse
import csv
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
    """Outcome of one CLI invocation: a status plus a payload.

    For a single-record command the payload is the printed record with its
    exact values (`Fraction`s, not strings); for `range`, `check` and
    `certify` it is a summary of the rows.
    """

    status: str
    payload: Any

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.status]


def _emit(record: dict, fmt: str = "json", first: bool = False) -> None:
    """Print one record as JSON, every Fraction in it as "p" or "p/q", or as
    a CSV row of str() values, after a header of its keys when `first`."""
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        if first:
            writer.writerow(record.keys())
        writer.writerow(record.values())
    else:
        sys.stdout.write(json.dumps(record, default=format_rational) + "\n")


def _n_max(args, least: int = 0) -> int:
    """--n-max, rejected as a usage error below `least`."""
    if args.n_max < least:
        raise ValueError(f"--n-max must be at least {least}")
    return args.n_max


def _cmd_pair(args) -> CommandResult:
    record = sequences.pair(args.family, args.n)._asdict()
    _emit(record, args.format, first=True)
    return CommandResult("ok", record)


def _cmd_range(args) -> CommandResult:
    for n in range(_n_max(args) + 1):
        record = sequences.pair(args.family, n)._asdict()
        record["u"], record["v"] = sequences.row_texts(args.family, n)
        _emit(record, args.format, first=(n == 0))
    return CommandResult("ok", {"rows": args.n_max + 1})


def _cmd_check(args) -> CommandResult:
    all_ok = True
    for n in range(_n_max(args) + 1):
        report = sequences.check_inclusions(args.family, n, args.mode)
        all_ok = all_ok and report.ok
        record = report._asdict()
        # an int is the one exact value JSON would print as a number
        record["witness_u"], record["witness_v"] = sequences.witness_texts(report)
        _emit(record, args.format, first=(n == 0))
    status = "ok" if all_ok else "verification_failed"
    return CommandResult(status, {"rows": args.n_max + 1, "all_pass": all_ok})


def _cmd_decompose(args) -> CommandResult:
    if args.family == "zeta4":
        return _decompose_zeta4(args.n)
    table = hypergeom.partial_fractions(args.n)
    quad = hypergeom.coefficient_quadruple(args.n)
    record = {**table._asdict(), **quad._asdict()}
    _emit(record)
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
        "B": parts.B,
        **{f"zeta{s}": coefficient for s, coefficient in enumerate(parts.zeta, start=2)},
        "rational": parts.rational,
        "identity": holds,
    }
    _emit(record)
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
            "certificate_at_zero": at_zero,
            "pass": ok,
        }
        _emit(record)
    status = "ok" if all_ok else "verification_failed"
    return CommandResult(status, {"rows": args.n_max, "all_pass": all_ok})


def _cmd_cf(args) -> CommandResult:
    convergent = analytic.cf_convergent(args.family, args.n)
    item = sequences.pair(args.family, args.n)
    matches = convergent.value == item.v / item.u
    record = {
        "family": args.family,
        "n": args.n,
        "convergent": convergent.value,
        "matches_recurrence_ratio": matches,
    }
    _emit(record)
    return CommandResult("ok" if matches else "verification_failed", record)


def _cmd_digits(args) -> CommandResult:
    from mpmath import mp

    result = (
        analytic.catalan_digits(args.digits)
        if args.constant == "catalan"
        else analytic.zeta4_digits(args.digits)
    )
    record = {**result._asdict(), "error_bound": mp.nstr(result.error_bound, 6)}
    _emit(record)
    return CommandResult("ok", record)


def _check_form(family: str, args, name: str, value, factors: dict) -> CommandResult:
    """Print `value` beside the linear form u_n C - v_n and the residuals
    |factor value - form| named in `factors`; pass if the first is below
    10^-(digits-1) |form|, a test relative to the form since it shrinks with
    n far below any fixed bound.  The form carries 15 digits past the
    comparison, so that its own error stays out of the residuals."""
    from mpmath import mp

    working = args.digits + 15
    form = analytic.linear_form(family, args.n, working)
    with mp.workdps(working):
        residuals = [abs(factor * value - form) for factor in factors.values()]
        ok = residuals[0] < mp.mpf(10) ** (-(args.digits - 1)) * abs(form)
    record = {
        "n": args.n,
        "digits": args.digits,
        name: mp.nstr(value, args.digits + 2),
        "linear_form": mp.nstr(form, args.digits + 2),
        **{key: mp.nstr(residual, 4) for key, residual in zip(factors, residuals)},
    }
    _emit(record)
    return CommandResult("ok" if ok else "verification_failed", record)


def _cmd_integral(args) -> CommandResult:
    value = analytic.beukers_integral(args.n, args.digits)
    sign = 1 if args.n % 2 == 0 else -1
    factors = {"residual_eighth": sign / 8, "residual_quarter": sign / 4}
    return _check_form("catalan", args, "integral", value, factors)


def _cmd_series(args) -> CommandResult:
    value = analytic.zeta4_series(args.n, args.digits)
    return _check_form("zeta4", args, "value", value, {"residual": 1})


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
    _emit(record)
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
    p.add_argument("--mode", required=True, choices=sequences.MODES)
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
