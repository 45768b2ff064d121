"""Command-line front end.

Each command handler is a generator that yields `(record, ok)` for each of
the library's own records, and neither prints nor sets a status.  Only `run`
prints, one record per line as it arrives, so long verifications stream and
stay inspectable, and only `run` ANDs the verdicts into the status.  One
rule, in `_emit`, turns a record into text: rationals print as "p" or "p/q"
strings, in nested tables too; integer witnesses print as decimal strings;
floats appear only as `mp.nstr` strings at the stated digits, and the exact
error bound of `digits` as `mp.nstr(bound, 6)` prints it, by integer
arithmetic (`exact.exponent_string`), so `digits` loads no mpmath.  `pair`,
`range` and `check` also write CSV: the record's keys as a header, then
str() of each value.

`range` and `check` hand `_emit` their values already as those strings,
from the decimal twins of one row type stepped by one rule: `range` builds
its records from the memo's rows at factor 1 (`sequences.row_texts`) alone,
and `check` its witnesses from the carry's rows at the clearing factors
(`witness_texts`), so both print in linear time and at any size.
`pair`, `cf` and `digits` convert ints, and past CPython's 4,300-digit
int->str limit they exit 2.

Exit codes: 0 ok (also after --help), 1 verification failed, 2 usage error,
3 precision error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from typing import NamedTuple

from . import analytic, certificate, hypergeom, sequences
from .errors import PrecisionError
from .exact import exponent_string, format_rational

EXIT_CODES = {
    "ok": 0,
    "verification_failed": 1,
    "usage_error": 2,
    "precision_error": 3,
}


class CommandResult(NamedTuple):
    """Outcome of one CLI invocation; every value it made is on stdout."""

    status: str

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.status]


def _emit(record: dict, fmt: str, first: bool) -> None:
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


def _cmd_pair(args):
    yield sequences.pair(args.family, args.n)._asdict(), True


def _cmd_range(args):
    for n in range(_n_max(args) + 1):
        u, v = sequences.row_texts(args.family, n)
        yield {"family": args.family, "n": n, "u": u, "v": v}, True


def _cmd_check(args):
    for n in range(_n_max(args) + 1):
        report = sequences.check_inclusions(args.family, n, args.mode)
        record = report._asdict()
        # an int is the one exact value JSON would print as a number
        record["witness_u"], record["witness_v"] = sequences.witness_texts(report)
        yield record, report.ok


def _cmd_decompose(args):
    n = args.n
    if args.family == "catalan":
        table = hypergeom.partial_fractions(n)
        quad = hypergeom.coefficient_quadruple(n)
        item = sequences.catalan_pair(n)
        # F_n = U' G - V: the table meets the recurrence, U' = 8 u_n, V = 8 v_n
        holds = (quad.U, quad.Udoubleprime, quad.Uprime, quad.V) == (0, 0, 8 * item.u, 8 * item.v)
        yield {**table._asdict(), **quad._asdict()}, holds
        return
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
    yield record, holds


def _cmd_certify(args):
    for n in range(1, _n_max(args, least=1) + 1):
        telescoped = certificate.verify_telescoping(n)
        at_zero = certificate.build_certificate(n).S(0)
        ok = telescoped and at_zero == 0
        record = {
            "n": n,
            "telescoping": telescoped,
            "certificate_at_zero": at_zero,
            "pass": ok,
        }
        yield record, ok


def _cmd_cf(args):
    convergent = analytic.cf_convergent(args.family, args.n)
    ((u, v),), _ = sequences._scaled_pairs(args.family, args.n, top=True)
    matches = convergent.value.numerator * u == convergent.value.denominator * v
    record = {
        "family": args.family,
        "n": args.n,
        "convergent": convergent.value,
        "matches_recurrence_ratio": matches,
    }
    yield record, matches


def _cmd_digits(args):
    result = (
        analytic.catalan_digits(args.digits)
        if args.constant == "catalan"
        else analytic.zeta4_digits(args.digits)
    )
    yield {**result._asdict(), "error_bound": exponent_string(result.error_bound)}, True


def _check_form(family: str, args, name: str, value, factors: dict) -> tuple[dict, bool]:
    """The record of `value` beside the linear form u_n C - v_n and the
    residuals |factor value - form| named in `factors`, and its verdict:
    pass if the first is below 10^-(digits-1) |form|, a test relative to the
    form since it shrinks with n far below any fixed bound.  The form carries
    15 digits past the comparison, so that its own error stays out of the
    residuals."""
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
    return record, ok


def _cmd_integral(args):
    value = analytic.beukers_integral(args.n, args.digits)
    sign = 1 if args.n % 2 == 0 else -1
    factors = {"residual_eighth": sign / 8, "residual_quarter": sign / 4}
    yield _check_form("catalan", args, "integral", value, factors)


def _cmd_series(args):
    value = analytic.zeta4_series(args.n, args.digits)
    yield _check_form("zeta4", args, "value", value, {"residual": 1})


def _cmd_asymptotics(args):
    from mpmath import mp

    rates = sequences.asymptotic_report(args.family, args.n, args.digits)
    record = {
        "family": args.family,
        "n": args.n,
        "digits": args.digits,
        "rate_u": mp.nstr(rates.rate_u, min(args.digits, 12)),
        "rate_form": mp.nstr(rates.rate_form, min(args.digits, 12)),
    }
    yield record, True


FAMILY = ("--family", {"required": True, "choices": sequences.FAMILIES})
CATALAN = ("--family", {"required": True, "choices": ("catalan",)})
DEFAULT_CATALAN = ("--family", {"choices": sequences.FAMILIES, "default": "catalan"})
CONSTANT = ("--constant", {"required": True, "choices": sequences.FAMILIES})
ZETA4 = ("--constant", {"required": True, "choices": ("zeta4",)})
MODE = ("--mode", {"required": True, "choices": sequences.MODES})
N = ("--n", {"type": int, "required": True})
N_MAX = ("--n-max", {"type": int, "required": True})
DIGITS = ("--digits", {"type": int, "required": True})
FORMAT = ("--format", {"choices": ("json", "csv"), "default": "json"})

#: subcommand -> (handler, help, options), in the order --help lists them
COMMANDS = {
    "pair": (_cmd_pair, "one exact sequence pair (n, u_n, v_n)", (FAMILY, N, FORMAT)),
    "range": (_cmd_range, "stream exact pairs for n = 0..N", (FAMILY, N_MAX, FORMAT)),
    "check": (_cmd_check, "denominator-clearing integrality reports",
              (FAMILY, N_MAX, MODE, FORMAT)),
    "decompose": (_cmd_decompose, "partial-fraction table and linear-form coefficients",
                  (DEFAULT_CATALAN, N)),
    "certify": (_cmd_certify, "exact telescoping-identity verification", (CATALAN, N_MAX)),
    "cf": (_cmd_cf, "continued-fraction convergent at depth n", (FAMILY, N)),
    "digits": (_cmd_digits, "certified decimal digits of a constant", (CONSTANT, DIGITS)),
    "integral": (_cmd_integral, "double-integral representation residuals", (N, DIGITS)),
    "series": (_cmd_series, "derivative-series residual for zeta4", (ZETA4, N, DIGITS)),
    "asymptotics": (_cmd_asymptotics, "measured per-n growth rates", (FAMILY, N, DIGITS)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aperylike",
        description=(
            "Exact generation and verification of the second-order recurrences "
            "for Catalan's constant and zeta(4)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, options) in COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for flag, spec in options:
            command.add_argument(flag, **spec)
        command.set_defaults(func=handler)
    return parser


def run(argv: list[str]) -> CommandResult:
    """Parse, dispatch and print; returns a CommandResult instead of exiting.

    The handler yields `(record, ok)` pairs and neither prints nor sets a
    status: only here is each record printed, as it arrives, with the CSV
    header on the first, and the verdicts ANDed into the status."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:  # code 0 after --help
        return CommandResult("ok" if stop.code == 0 else "usage_error")
    fmt = getattr(args, "format", "json")
    all_ok = True
    try:
        for index, (record, ok) in enumerate(args.func(args)):
            _emit(record, fmt, first=(index == 0))
            all_ok = all_ok and ok
    except PrecisionError as exc:
        sys.stderr.write(f"precision error: {exc}\n")
        return CommandResult("precision_error")
    except (ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return CommandResult("usage_error")
    return CommandResult("ok" if all_ok else "verification_failed")


def main(argv: list[str] | None = None) -> None:
    result = run(sys.argv[1:] if argv is None else argv)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
