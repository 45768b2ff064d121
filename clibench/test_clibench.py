"""Tests of the CLI benchmark itself.  Run with

    PYTHONPATH=src python3 -m pytest -q clibench

The last test makes one traced run of every workload (about 2 minutes).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402


def test_self_time_subtracts_spans_and_counted_calls():
    t = tracer.Tracer()

    def leaf():
        time.sleep(0.02)

    counted = t.wrap("leaf", leaf, "count")

    def child():
        counted()
        time.sleep(0.02)

    traced_child = t.wrap("child", child, "span")

    def parent():
        traced_child()
        counted()
        time.sleep(0.02)

    t.wrap("parent", parent, "span")()
    calls, busy, self_s = t.stats["parent"]
    assert calls == 1 and busy >= 0.08
    assert 0.02 <= self_s < 0.035
    assert 0.02 <= t.stats["child"][2] < 0.035
    assert t.stats["leaf"][0] == 2
    parent_span, child_span = t.spans
    assert child_span["parent"] == 0 and parent_span["parent"] is None
    assert parent_span["start"] <= child_span["start"] < child_span["end"] <= parent_span["end"]


def test_recursive_busy_time_counts_outermost_call_only():
    t = tracer.Tracer()

    def fact(k):
        time.sleep(0.005)
        return 1 if k == 0 else k * traced(k - 1)

    traced = t.wrap("fact", fact, "span")
    assert traced(3) == 6
    calls, busy, self_s = t.stats["fact"]
    assert calls == 4
    assert busy == pytest.approx(self_s, rel=0.2)


def test_install_rebinds_names_in_importing_modules():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tracer\n"
        "import aperylike.cli\n"
        "from aperylike import analytic, certificate, cli, exact, sequences\n"
        "tracer.install(tracer.Tracer())\n"
        "bound = [certificate.poly_gcd, exact.poly_gcd, analytic._values, sequences._values,\n"
        "         analytic.alternating_sum, cli.format_rational, exact.Polynomial.__rmul__]\n"
        "print(all(getattr(f, '__wrapped_by_tracer__', False) for f in bound))\n"
    )
    with run.Runner(0, None) as runner:
        result = subprocess.run(
            [sys.executable, "-c", code, str(BENCH)], capture_output=True, text=True,
            env=runner.env, check=True,
        )
    assert result.stdout.strip() == "True"


def test_recurrence_substitution_rejects_a_changed_row():
    rows = [run.exact_pair("zeta4", k) for k in (9, 10, 11)]
    assert run.recurrence_holds("zeta4", 10, rows)
    rows[1] = (rows[1][0] + Fraction(1, 10**9), rows[1][1])
    assert not run.recurrence_holds("zeta4", 10, rows)
    assert run.initial_rows_hold("catalan", [run.exact_pair("catalan", k) for k in (0, 1)])


def test_clearing_factors_give_integers():
    for family in ("catalan", "zeta4"):
        for mode in ("proved", "strong"):
            u, v = run.exact_pair(family, 12)
            factor_u, factor_v = run.clearing_factors(family, 12, mode)
            assert (u * factor_u).denominator == 1 and (v * factor_v).denominator == 1


def test_only_the_probes_may_exit_with_the_int_str_error():
    message = "error: Exceeds the limit (4300 digits) for integer string conversion"
    rng = run.random.Random(0)
    assert run.verify(run.PROBES[1], 2, b"", message, rng, {})[0] == "known_defect"
    assert run.verify("pair --family zeta4 --n 10", 2, b"", message, rng, {})[0] == "failed"
    wrong = json.dumps({"family": "zeta4", "n": 3, "u": "1", "v": "0"}).encode()
    assert run.verify(run.PROBES[1].replace("1500", "3"), 0, wrong, "", rng, None)[0] == "failed"


def test_times_are_scaled_by_host_speed_and_nothing_else():
    def outcome(command, cpu_s, status="ok"):
        return run.Outcome(command, 2 * cpu_s, cpu_s, 2048, status, "")

    samples = {
        "digits --constant catalan --digits 200": [outcome("digits", 1.0), outcome("digits", 3.0)],
        run.PROBES[0]: [outcome(run.PROBES[0], 5.0, "known_defect")],
    }
    setup = [outcome(run.SETUP_COMMAND, 0.5)]
    plain = run.end_to_end(samples, setup)
    scaled = run.end_to_end(samples, setup, speed=2.0)
    assert plain["cmd.digits_s"]["value"] == 2.0 and plain["pass_s"]["value"] == 7.0
    for name, m in plain.items():
        factor = 2.0 if m["unit"] == "s" else 1.0
        assert scaled[name]["value"] * factor == pytest.approx(m["value"]), name
    assert plain["ok_ratio"]["value"] == 2 / 3
    assert run.host_speed([1.0, 3.5, 9.0]) == pytest.approx(3.5 / run.HOST_PROBE_NOMINAL_MS)


def test_every_workload_has_every_subcommand():
    for name in run.WORKLOADS:
        subs = {c.split()[0] for c in run.workload_commands(name)}
        assert set(run.SUBCOMMANDS) <= subs


def test_benchmark_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "clibench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "clibench/run.py", "--workload", "exact-numeric", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0 and result.stdout == ""


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_each_per_layer_metric_is_nonzero_on_its_workload(workload):
    result = subprocess.run(
        [sys.executable, "clibench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["correct"], result.stderr
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(report["metrics"]) == {m["name"] for m in declared}
    for name, *_ in run.LAYER_METRICS:
        assert report["metrics"][name]["value"] > 0, name
