"""End-to-end benchmark of the `aperylike` command-line interface.

    python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is a fixed list of CLI
commands that one client runs as a closed loop: every command is a fresh
``python -m aperylike.cli`` process (cold memo tables, as users see them) and
the next starts only after the previous one has exited.  The list runs in
rounds while another round fits in S seconds (see NOTES.md).  Every time
metric is CPU seconds of the CLI processes (user + system, from wait4), the
mean over a command's runs, scaled by the speed of the host during the run
(see `host_speed`).  Every output
is checked by the harness itself (mpmath constants, recurrence substitution
with Fraction, stdout digests of the seed commit), never by the package.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` each command is followed by a run of itself under
``tracer.py``, and the last line holds the per-layer metrics plus the
tracing overhead.  The line before it is an environment and detail block.
The seed only picks which output rows are re-checked, never a size.

    python3 clibench/run.py --write-digests

re-records ``digests.json`` from the current code after the other checks
pass; do this only when an output change is intended.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import metadata
from pathlib import Path

import mpmath
from mpmath import mp, mpf

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests.json"

#: Every CLI process is killed this long after the harness started, so that
#: a run always ends within its time limit.
HARD_LIMIT_S = 170.0

SUBCOMMANDS = (
    "digits", "cf", "asymptotics", "range", "check",
    "certify", "decompose", "integral", "series",
)

SETUP_COMMAND = "pair --family catalan --n 1"
SETUP_REPEATS = 4

#: The int->str reproducers from the ROADMAP.  Both exit 2 at the seed
#: commit because an output integer has more than 4300 decimal digits.  They
#: run in every round and count in `ok_ratio` and `pass_s`, but in no `cmd.*`
#: metric.
PROBES = ("digits --constant catalan --digits 5000", "pair --family zeta4 --n 1500")
INT_STR_LIMIT = "Exceeds the limit"

WORKLOADS = {
    # Recurrence stepping with big integers, used two ways.  Deep indices:
    # digits and cf step to n ~ 1000-2000 and spend nearly all their time in
    # sequences._values and exact.decimal_string; asymptotics runs the
    # acceleration layer at ~2300 digits.  Streaming: range and check emit
    # ~1000 rows each through the memo, format_rational and lcm_upto.  A
    # faster digits path (binary splitting) should move cmd.digits_s and
    # cmd.cf_s here and leave cmd.range_s and cmd.check_s unchanged.
    "bigint-sequences": [
        "digits --constant catalan --digits 4000",
        "digits --constant zeta4 --digits 4000",
        "cf --family catalan --n 1000",
        "cf --family zeta4 --n 800",
        "asymptotics --family catalan --n 1000 --digits 30",
        PROBES[0],
        "range --family catalan --n-max 1000",
        "range --family zeta4 --n-max 1000",
        "check --family catalan --n-max 600 --mode proved",
        "check --family zeta4 --n-max 1000 --mode strong",
        PROBES[1],
    ],
    # Almost no stepping.  certify and decompose run the exact polynomial and
    # rational-function algebra, hypergeom and certificate: evaluation-based
    # identity proofs should move cmd.certify_s and cmd.decompose_s here and
    # nothing in bigint-sequences.  integral runs the numpy float path of the
    # quadrature.  Its mpmath path (13-15 digits) is left out: its cheapest
    # converging case, n=1 at 13 digits, takes 25-30 s of CPU, so it would
    # run once per run and its time alone spread by ~0.2 between runs.  n=0
    # at 13 digits raises QuadratureError after about 100 s (node counts
    # 8/16/32/64 take 0.8/4.5/20/73 s).
    "exact-numeric": [
        "certify --family catalan --n-max 40",
        "decompose --n 60",
        "integral --n 5 --digits 12",
        "series --constant zeta4 --n 3 --digits 8",
        "asymptotics --family zeta4 --n 600 --digits 30",
    ],
}

#: A small run of every subcommand.  Each workload runs the ones it does not
#: run itself, so that every metric exists, and is never zero, on every
#: workload.  They take ~0.3 s, mostly start-up, whose CPU time spreads more
#: than that of longer commands, so they run twice per round, at its start
#: and in its middle, to give their mean more runs.
COVER = {
    "digits": "digits --constant catalan --digits 200",
    "cf": "cf --family zeta4 --n 60",
    "asymptotics": "asymptotics --family catalan --n 60 --digits 30",
    "range": "range --family catalan --n-max 60",
    "check": "check --family zeta4 --n-max 60 --mode proved",
    "certify": "certify --family catalan --n-max 4",
    "decompose": "decompose --n 8",
    "integral": "integral --n 5 --digits 8",
    "series": "series --constant zeta4 --n 1 --digits 6",
}


def workload_commands(name: str) -> list[str]:
    """One round of the workload; a command listed twice runs twice."""
    main = WORKLOADS[name]
    present = {command.split()[0] for command in main}
    cover = [COVER[sub] for sub in SUBCOMMANDS if sub not in present]
    half = len(main) // 2
    return cover + main[:half] + cover + main[half:]


# -- independent reference arithmetic -------------------------------------------


def _catalan_coefficients(n: int) -> tuple[int, int, int]:
    def p(x):
        return 20 * x * x - 8 * x + 1

    q = (3520 * n**6 + 5632 * n**5 + 2064 * n**4 - 384 * n**3
         - 156 * n**2 + 16 * n + 7)
    return ((2 * n + 1) ** 2 * (2 * n + 2) ** 2 * p(n), q,
            (2 * n - 1) ** 2 * (2 * n) ** 2 * p(n + 1))


def _zeta4_coefficients(n: int) -> tuple[int, int, int]:
    r = 270 * n**5 + 675 * n**4 + 702 * n**3 + 378 * n**2 + 105 * n + 12
    return (n + 1) ** 5, r, 3 * n**3 * (3 * n - 1) * (3 * n + 1)


#: lead(n) x_{n+1} = mid(n) x_n + back(n) x_{n-1}, and (u_0, u_1, v_0, v_1).
RECURRENCES = {
    "catalan": (_catalan_coefficients, (Fraction(1), Fraction(7, 4), Fraction(0), Fraction(13, 8))),
    "zeta4": (_zeta4_coefficients, (Fraction(1), Fraction(12), Fraction(0), Fraction(13))),
}

#: log of the dominant characteristic root and of the other root's modulus:
#: x^2 - 11x - 1 (roots phi^5, -phi^-5) and x^2 - 270x - 27.
LOG_ROOTS = {
    "catalan": (5 * math.log((1 + math.sqrt(5)) / 2), -5 * math.log((1 + math.sqrt(5)) / 2)),
    "zeta4": (math.log(135 + math.sqrt(135**2 + 27)), math.log(27 / (135 + math.sqrt(135**2 + 27)))),
}


def recurrence_holds(family: str, n: int, rows) -> bool:
    """rows = ((u, v) at n-1, n, n+1); substitute them into the recurrence."""
    coefficients, _ = RECURRENCES[family]
    lead, mid, back = coefficients(n)
    return all(
        lead * rows[2][i] - mid * rows[1][i] - back * rows[0][i] == 0 for i in (0, 1)
    )


def initial_rows_hold(family: str, rows) -> bool:
    u0, u1, v0, v1 = RECURRENCES[family][1]
    return rows[0] == (u0, v0) and rows[1] == (u1, v1)


@lru_cache(maxsize=None)
def exact_pair(family: str, n: int) -> tuple[Fraction, Fraction]:
    coefficients, (u0, u1, v0, v1) = RECURRENCES[family]
    prev, cur = (u0, v0), (u1, v1)
    if n == 0:
        return prev
    for k in range(1, n):
        lead, mid, back = coefficients(k)
        prev, cur = cur, tuple((mid * cur[i] + back * prev[i]) / lead for i in (0, 1))
    return cur


def _lcm_upto(n: int) -> int:
    return math.lcm(*range(1, n + 1)) if n > 0 else 1


def clearing_factors(family: str, n: int, mode: str) -> tuple[int, int]:
    """The documented denominator-clearing factors of `check`."""
    d_n = _lcm_upto(n)
    if family == "catalan":
        d_odd = _lcm_upto(max(2 * n - 1, 0))
        if mode == "proved":
            return 2 ** (4 * n + 3) * d_n, 2 ** (4 * n + 3) * d_odd**3
        return 2 ** (4 * n), 2 ** (4 * n) * d_odd**2
    if mode == "proved":
        return 6 * d_n, 6 * d_n**5
    return 1, d_n**4


# -- output checks -------------------------------------------------------------


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _options(words: list[str]) -> dict[str, str]:
    return dict(zip(words[1::2], words[2::2]))


def _json_lines(stdout: bytes) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line]


def _picked_rows(rng: random.Random, n_max: int, count: int = 4) -> list[int]:
    return sorted(rng.sample(range(1, n_max), min(count, n_max - 1)))


def check_digits(opts, stdout, rng):
    (record,) = _json_lines(stdout)
    digits = int(opts["--digits"])
    _require(record["constant"] == opts["--constant"] and record["digits"] == digits,
             "digits: wrong constant or digit count echoed")
    with mp.workdps(digits + 20):
        reference = +mp.catalan if record["constant"] == "catalan" else mp.zeta(4)
        error = abs(mpf(record["value"]) - reference)
        _require(error < mpf(10) ** (-digits),
                 f"digits: value differs from mpmath by {mp.nstr(error, 3)}")


def check_cf(opts, stdout, rng):
    (record,) = _json_lines(stdout)
    _require(record["family"] == opts["--family"] and record["n"] == int(opts["--n"]),
             "cf: wrong family or depth echoed")
    _require(record["matches_recurrence_ratio"] is True, "cf: convergent != v_n/u_n")


def check_asymptotics(opts, stdout, rng):
    (record,) = _json_lines(stdout)
    n = int(opts["--n"])
    expected_u, expected_form = LOG_ROOTS[opts["--family"]]
    tolerance = 5 * (1 + math.log(n)) / n
    for key, expected in (("rate_u", expected_u), ("rate_form", expected_form)):
        _require(abs(float(record[key]) - expected) < tolerance,
                 f"asymptotics: {key} {record[key]} is not near {expected:.5f}")


def _check_rows(opts, records, rng, to_pair):
    family = opts["--family"]
    n_max = int(opts["--n-max"])
    _require(len(records) == n_max + 1, f"expected {n_max + 1} rows, got {len(records)}")
    _require(all(r["family"] == family and r["n"] == n for n, r in enumerate(records)),
             "rows out of order or of the wrong family")
    _require(initial_rows_hold(family, [to_pair(records[n], n) for n in (0, 1)]),
             "initial rows differ from (u_0, v_0), (u_1, v_1)")
    for n in _picked_rows(rng, n_max):
        rows = [to_pair(records[k], k) for k in (n - 1, n, n + 1)]
        _require(recurrence_holds(family, n, rows), f"row {n} does not satisfy the recurrence")


def check_range(opts, stdout, rng):
    _check_rows(opts, _json_lines(stdout), rng,
                lambda r, n: (Fraction(r["u"]), Fraction(r["v"])))


def check_check(opts, stdout, rng):
    records = _json_lines(stdout)
    family, mode = opts["--family"], opts["--mode"]
    _require(all(r["mode"] == mode and r["pass_u"] and r["pass_v"] for r in records),
             "check: a row does not pass")

    def to_pair(record, n):
        factor_u, factor_v = clearing_factors(family, n, mode)
        return (Fraction(int(record["witness_u"]), factor_u),
                Fraction(int(record["witness_v"]), factor_v))

    _check_rows(opts, records, rng, to_pair)


def check_certify(opts, stdout, rng):
    records = _json_lines(stdout)
    n_max = int(opts["--n-max"])
    _require([r["n"] for r in records] == list(range(1, n_max + 1)), "certify: wrong rows")
    _require(all(r["pass"] is True for r in records), "certify: a row does not pass")


def check_decompose(opts, stdout, rng):
    (record,) = _json_lines(stdout)
    n = int(opts["--n"])
    u, v = exact_pair("catalan", n)
    _require(len(record["A"]) == 3 and all(len(row) == n + 1 for row in record["A"]),
             "decompose: table is not 3 x (n+1)")
    _require(Fraction(record["U"]) == 0 and Fraction(record["Udoubleprime"]) == 0,
             "decompose: U or U'' is not zero")
    _require(Fraction(record["Uprime"]) == 8 * u and Fraction(record["V"]) == 8 * v,
             "decompose: (U', V) differs from 8 (u_n, v_n)")


def check_pair(opts, stdout, rng):
    (record,) = _json_lines(stdout)
    u, v = exact_pair(opts["--family"], int(opts["--n"]))
    _require(Fraction(record["u"]) == u and Fraction(record["v"]) == v,
             "pair: differs from the recurrence")


def check_exit_code_only(opts, stdout, rng):
    """integral and series compare against their own residual bound and
    exit 1 when it fails, so exit code 0 is the check."""


CHECKS = {
    "digits": check_digits, "cf": check_cf, "asymptotics": check_asymptotics,
    "range": check_range, "check": check_check, "certify": check_certify,
    "decompose": check_decompose, "pair": check_pair,
    "integral": check_exit_code_only, "series": check_exit_code_only,
}

#: integral's float path sums with numpy, whose summation order (and so the
#: last printed digits of the residuals) depends on the BLAS build.
UNDIGESTED = ("integral",)


def verify(command: str, code: int, stdout: bytes, stderr: str, rng, digests) -> tuple[str, str]:
    """Classify one command's outcome as ok, known_defect or failed."""
    if command in PROBES and code == 2 and INT_STR_LIMIT in stderr:
        return "known_defect", "int->str limit (exit 2)"
    if code != 0:
        return "failed", f"exit {code}: {stderr.strip()[-200:]}"
    words = command.split()
    try:
        CHECKS[words[0]](_options(words), stdout, rng)
    except CheckFailed as exc:
        return "failed", str(exc)
    except (ValueError, KeyError, TypeError) as exc:
        return "failed", f"unreadable output: {exc!r}"
    if digests is not None and command not in PROBES and words[0] not in UNDIGESTED:
        if digests.get(command) != hashlib.sha256(stdout).hexdigest():
            return "failed", "stdout digest differs from the recorded one"
    return "ok", ""


# -- running commands ------------------------------------------------------------


@dataclass
class Outcome:
    command: str
    wall_s: float
    cpu_s: float
    rss_kb: int
    status: str
    message: str
    trace: dict | None = None
    digest: str = ""


#: The median of `host_probe_ms` over a run on the machine the benchmark was
#: written on, in its usual state.  Time metrics are scaled to this speed.
HOST_PROBE_NOMINAL_MS = 1.75


def host_probe_ms() -> float:
    """Time of a fixed pure-Python loop, taken after every command.  It shows
    how much other tenants of the machine slowed the run."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    return (time.perf_counter() - start) * 1000


class Runner:
    """Runs CLI commands one at a time and checks each output.

    Use it in a `with` block: it owns a private directory for the commands'
    output files, removed on exit.
    """

    def __init__(self, seed: int, digests: dict | None):
        self.rng = random.Random(seed)
        self.digests = digests
        self.started = time.monotonic()
        self.op_id = 0
        WORK.mkdir(exist_ok=True)
        env = dict(os.environ)
        for key in ("PYTHONINTMAXSTRDIGITS", "PYTHONDONTWRITEBYTECODE"):
            env.pop(key, None)
        env["PYTHONPATH"] = str(ROOT / "src")
        # numpy's OpenBLAS otherwise starts a thread per CPU at import, whose
        # spinning added 0.1-0.2 s of CPU time per process (0.17 s on the
        # float quadrature) that no user waits for.  With one thread, a
        # child's CPU time is the time of the one thread the CLI runs.
        env["OPENBLAS_NUM_THREADS"] = "1"
        # Bytecode of the package and its dependencies is cached inside the
        # checkout, so every command after the warm-up starts as an installed
        # package would.
        env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
        self.env = env
        self.files = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        self.host_probe_ms: list[float] = []

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.files, ignore_errors=True)

    def run(self, command: str, traced: bool = False) -> Outcome:
        self.op_id += 1
        out_path, err_path = self.files / "stdout", self.files / "stderr"
        trace_path = self.files / f"trace-{self.op_id}.json"
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(trace_path),
                    str(self.op_id), "--", *command.split()]
        else:
            argv = [sys.executable, "-m", "aperylike.cli", *command.split()]
        limit = max(1.0, HARD_LIMIT_S - (time.monotonic() - self.started))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_bytes()
        stderr = err_path.read_text(errors="replace")
        state, message = verify(command, code, stdout, stderr, self.rng, self.digests)
        self.host_probe_ms.append(host_probe_ms())
        trace = None
        if traced:
            if trace_path.exists():
                trace = json.loads(trace_path.read_text())
                trace_path.unlink()
            elif state != "failed":
                state, message = "failed", "tracer wrote no trace"
        return Outcome(command, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                       state, message, trace, hashlib.sha256(stdout).hexdigest())


# -- metrics ---------------------------------------------------------------------
#
# The machine is a virtual one on a shared host.  Its wall-clock times drift
# by 10-40 % between stretches of a few seconds to minutes, and the fastest
# of a command's runs drifts with them.  The kernel leaves the time the host
# takes the CPU away (steal) out of a process's CPU time, and the CLI runs
# one thread of its own, so every time metric is the children's CPU time.
# Each command runs several times, spread over the run, and a run reports
# the mean of its runs, which spread less between runs than their median or
# their minimum.  CPU time still drifts with the host's speed, by up to 25 %
# over minutes, so each time is then scaled by the run's `host_speed`.
# NOTES.md has the measurements behind this.


def host_speed(probes_ms: list[float]) -> float:
    """How much slower than usual the host ran: the median time of the probe
    loop over the run, relative to HOST_PROBE_NOMINAL_MS.  The probe runs in
    the harness, between the CLI processes, so the program cannot move it."""
    return statistics.median(probes_ms) / HOST_PROBE_NOMINAL_MS


def typical(outcomes: list[Outcome], ok_only: bool = False) -> float:
    """Mean CPU seconds of a command's runs (of its successful ones only
    with `ok_only`)."""
    times = [o.cpu_s for o in outcomes if o.status == "ok" or not ok_only]
    return statistics.fmean(times) if times else 0.0


def pass_s(samples: dict[str, list[Outcome]]) -> float:
    """One pass over the commands, each at its mean."""
    return sum(typical(outcomes) for outcomes in samples.values())


def end_to_end(samples: dict[str, list[Outcome]], setup: list[Outcome],
               speed: float = 1.0) -> dict:
    """setup_s, pass_s, cmd.*_s, peak_rss_mb and ok_ratio; the times are
    divided by `speed`."""
    runs = [o for outcomes in samples.values() for o in outcomes]
    values = {
        "setup_s": (typical(setup) / speed, "s"),
        "pass_s": (pass_s(samples) / speed, "s"),
    }
    for sub in SUBCOMMANDS:
        values[f"cmd.{sub}_s"] = (sum(
            typical(outcomes, ok_only=True) for command, outcomes in samples.items()
            if command.split()[0] == sub and command not in PROBES) / speed, "s")
    values["peak_rss_mb"] = (max(o.rss_kb for o in runs + setup) / 1024, "MB")
    values["ok_ratio"] = (sum(o.status == "ok" for o in runs) / len(runs), "ratio")
    return {name: metric(value, unit) for name, (value, unit) in values.items()}


#: Per-layer metrics: (name, source, unit, combine).  A source reads one
#: traced process: "stat:<name>:<i>" is field i of [calls, busy_s, self_s] of
#: a traced name, "counter:<name>" a counter and "import" the import time.
#: Each command contributes its smallest value over its traced runs; the
#: commands' values are then summed, or combined by max or median.
LAYER_METRICS = [
    ("cli.import_s", "import", "s", "median"),
    ("cli.self_s", "stat:cli.main:2", "s", "sum"),
    ("cli.stdout_bytes", "counter:cli.stdout_bytes", "bytes", "sum"),
    ("sequences.values.busy_s", "stat:sequences.values:1", "s", "sum"),
    ("sequences.steps", "counter:sequences.steps", "count", "sum"),
    ("sequences.check_inclusions.busy_s", "stat:sequences.check_inclusions:1", "s", "sum"),
    ("sequences.asymptotic_report.self_s", "stat:sequences.asymptotic_report:2", "s", "sum"),
    ("sequences.memo_entries", "counter:sequences.memo_entries", "count", "max"),
    ("exact.lcm_upto.busy_s", "stat:exact.lcm_upto:1", "s", "sum"),
    ("exact.format_rational.busy_s", "stat:exact.format_rational:1", "s", "sum"),
    ("exact.format_rational.calls", "stat:exact.format_rational:0", "count", "sum"),
    ("exact.decimal_string.busy_s", "stat:exact.decimal_string:1", "s", "sum"),
    ("exact.poly_mul.calls", "stat:exact.poly_mul:0", "count", "sum"),
    ("exact.poly_mul.busy_s", "stat:exact.poly_mul:1", "s", "sum"),
    ("exact.poly_gcd.calls", "stat:exact.poly_gcd:0", "count", "sum"),
    ("exact.poly_gcd.busy_s", "stat:exact.poly_gcd:1", "s", "sum"),
    ("exact.ratfun_shift.busy_s", "stat:exact.ratfun_shift:1", "s", "sum"),
    ("exact.series_mul.calls", "stat:exact.series_mul:0", "count", "sum"),
    ("hypergeom.build_kernel.busy_s", "stat:hypergeom.build_kernel:1", "s", "sum"),
    ("hypergeom.build_kernel.calls", "stat:hypergeom.build_kernel:0", "count", "sum"),
    ("hypergeom.partial_fractions.busy_s", "stat:hypergeom.partial_fractions:1", "s", "sum"),
    ("hypergeom.coefficient_quadruple.busy_s", "stat:hypergeom.coefficient_quadruple:1", "s", "sum"),
    ("hypergeom.kernel_cache_entries", "counter:hypergeom.kernel_cache_entries", "count", "max"),
    ("certificate.verify_telescoping.self_s", "stat:certificate.verify_telescoping:2", "s", "sum"),
    ("certificate.build_certificate.busy_s", "stat:certificate.build_certificate:1", "s", "sum"),
    ("acceleration.alternating_sum.busy_s", "stat:acceleration.alternating_sum:1", "s", "sum"),
    ("acceleration.alternating_sum.terms", "counter:acceleration.alternating_sum.terms", "count", "sum"),
    ("analytic.reference.busy_s", "stat:analytic.reference:1", "s", "sum"),
    ("analytic.digits.busy_s", "stat:analytic.digits:1", "s", "sum"),
    ("analytic.digits.n_used", "counter:analytic.digits.n_used", "count", "sum"),
    ("analytic.cf_convergent.busy_s", "stat:analytic.cf_convergent:1", "s", "sum"),
    ("analytic.beukers_integral.busy_s", "stat:analytic.beukers_integral:1", "s", "sum"),
    ("analytic.zeta4_series.busy_s", "stat:analytic.zeta4_series:1", "s", "sum"),
]

COMBINE = {"sum": sum, "max": max, "median": statistics.median}


def read_trace(trace: dict, source: str) -> float:
    if source == "import":
        return trace["import_s"]
    kind, _, key = source.partition(":")
    if kind == "counter":
        return trace["counters"].get(key, 0)
    name, index = key.rsplit(":", 1)
    return trace["stats"].get(name, [0, 0.0, 0.0])[int(index)]


def per_layer(traced: dict[str, list[Outcome]], plain: dict[str, list[Outcome]]) -> dict:
    """The per-layer metrics and the tracing overhead."""
    metrics = {}
    for name, source, unit, combine in LAYER_METRICS:
        per_command = [
            min(read_trace(o.trace, source) for o in outcomes if o.trace is not None)
            for outcomes in traced.values()
            if any(o.trace is not None for o in outcomes)
        ]
        metrics[name] = metric(COMBINE[combine](per_command), unit)
    metrics["trace.overhead_s"] = metric(pass_s(traced) - pass_s(plain), "s")
    return metrics


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- the run ---------------------------------------------------------------------

#: Untraced runs have at least this many rounds, even past `seconds`.
MIN_ROUNDS = 3


def measure(runner: Runner, commands: list[str], seconds: float, traced_too: bool):
    """Closed loop in rounds, while another round fits in `seconds`.  An
    untraced run has at least MIN_ROUNDS rounds.  In a traced run each
    command is followed at once by a traced run of itself."""
    plain: dict[str, list[Outcome]] = {c: [] for c in commands}
    traced: dict[str, list[Outcome]] = {c: [] for c in commands}
    start = time.monotonic()
    rounds = 0
    min_rounds = 1 if traced_too else MIN_ROUNDS
    while True:
        for command in commands:
            plain[command].append(runner.run(command))
            if traced_too:
                traced[command].append(runner.run(command, traced=True))
        rounds += 1
        upcoming = sum(plain[c][-1].wall_s + (traced[c][-1].wall_s if traced_too else 0)
                       for c in commands)
        if rounds >= min_rounds and time.monotonic() - start + upcoming > seconds:
            return plain, traced, rounds


def environment(runner: Runner, outcomes: list[Outcome], setup: list[Outcome]) -> dict:
    probes = runner.host_probe_ms
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "child_openblas_threads": runner.env["OPENBLAS_NUM_THREADS"],
        "loadavg": os.getloadavg(),
        "child_wall_s": sum(o.wall_s for o in outcomes),
        "child_cpu_s": sum(o.cpu_s for o in outcomes),
        "setup_cpu_minus_wall_s": statistics.median(o.cpu_s - o.wall_s for o in setup),
        "host_probe_ms": {"min": min(probes), "median": statistics.median(probes),
                          "max": max(probes)},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aperylike" / "cli.py").is_file():
        print(f"error: no aperylike sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 1
    if args.write_digests:
        return write_digests()
    if args.workload is None:
        parser.error("--workload is required")

    with Runner(args.seed, json.loads(DIGESTS.read_text())) as runner:
        runner.run(SETUP_COMMAND)  # warm-up: fills the bytecode cache
        # Set-up is sampled before and after the measurement, to span more
        # than one burst of contention.
        setup = [runner.run(SETUP_COMMAND) for _ in range(SETUP_REPEATS)]
        commands = workload_commands(args.workload)
        plain, traced, rounds = measure(runner, commands, args.seconds, args.trace == 1)
        setup += [runner.run(SETUP_COMMAND) for _ in range(SETUP_REPEATS)]

    runs = [o for outcomes in (*plain.values(), *traced.values()) for o in outcomes]
    failures = [f"{o.command}: {o.message}" for o in setup + runs if o.status == "failed"]
    speed = host_speed(runner.host_probe_ms)
    if args.trace == 0:
        metrics = end_to_end(plain, setup, speed)
    else:
        metrics = per_layer(traced, plain)
        failures += [f"per-layer metric {name} is zero" for name, m in metrics.items()
                     if m["value"] <= 0 and name != "trace.overhead_s"]

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "rounds": rounds,
        "runs_per_command": {c: len(o) for c, o in plain.items()},
        "host_speed": speed,
        "unscaled": {name: m["value"] for name, m in end_to_end(plain, setup).items()},
        "pass_wall_s": sum(statistics.fmean(o.wall_s for o in outcomes)
                           for outcomes in plain.values()),
        "known_defects": sorted({o.command for o in runs if o.status == "known_defect"}),
        "failures": failures,
    }
    print(json.dumps({"env": environment(runner, runs, setup), "detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(setup) + len(runs),
        "failed": sum(o.status == "failed" for o in setup + runs),
        "metrics": metrics,
    }))
    return 0


def write_digests() -> int:
    """Record the stdout digest of every digested command, after checking it."""
    commands = sorted({c for name in WORKLOADS for c in workload_commands(name)}
                      | {SETUP_COMMAND})
    digests = {}
    with Runner(0, None) as runner:
        for command in commands:
            if command in PROBES or command.split()[0] in UNDIGESTED:
                continue
            outcome = runner.run(command)
            if outcome.status != "ok":
                print(f"not recording {command}: {outcome.message}", file=sys.stderr)
                return 1
            digests[command] = outcome.digest
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
