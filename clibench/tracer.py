"""Run one `aperylike` CLI command under the benchmark's tracer.

    python clibench/tracer.py OUT_JSON OP_ID -- <cli arguments>

The tracer imports the package, wraps its public entry points from outside
(rebinding every module-level name that refers to the same function, so that
``from .exact import poly_gcd`` call sites are traced too), runs
``aperylike.cli.main`` and, at exit, writes the per-name statistics, the
counters and the recorded spans to OUT_JSON.  The CLI's stdout and exit code
are passed through unchanged.

Spans have the fields ``{name, start, end, parent, op_id}``.  High-frequency
calls (``*_mul``, ``poly_gcd``, ``format_rational``, ``lcm_upto``) get a call
count and an aggregate time instead of one span per call.  Self time is a
call's duration minus the time its direct children (spans or counted calls)
cover; busy time is inclusive and counts only the outermost call of a name.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps

perf_counter = time.perf_counter

# (metric name, module, attribute, "span" | "count").  An attribute "A.b"
# names method b of class A.
TARGETS = [
    ("sequences.values", "sequences", "_values", "span"),
    ("sequences.check_inclusions", "sequences", "check_inclusions", "span"),
    ("sequences.asymptotic_report", "sequences", "asymptotic_report", "span"),
    ("exact.format_rational", "exact", "format_rational", "count"),
    ("exact.decimal_string", "exact", "decimal_string", "span"),
    ("exact.lcm_upto", "exact", "lcm_upto", "count"),
    ("exact.poly_mul", "exact", "Polynomial.__mul__", "count"),
    ("exact.poly_gcd", "exact", "poly_gcd", "count"),
    ("exact.ratfun_shift", "exact", "RationalFunction.shift", "span"),
    ("exact.series_mul", "exact", "TruncatedSeries.__mul__", "count"),
    ("hypergeom.build_kernel", "hypergeom", "build_kernel", "span"),
    ("hypergeom.partial_fractions", "hypergeom", "partial_fractions", "span"),
    ("hypergeom.coefficient_quadruple", "hypergeom", "coefficient_quadruple", "span"),
    ("certificate.verify_telescoping", "certificate", "verify_telescoping", "span"),
    ("certificate.build_certificate", "certificate", "build_certificate", "span"),
    ("acceleration.alternating_sum", "acceleration", "alternating_sum", "span"),
    ("analytic.reference", "analytic", "reference_catalan", "span"),
    ("analytic.reference", "analytic", "reference_zeta4", "span"),
    ("analytic.digits", "analytic", "catalan_digits", "span"),
    ("analytic.digits", "analytic", "zeta4_digits", "span"),
    ("analytic.cf_convergent", "analytic", "cf_convergent", "span"),
    ("analytic.beukers_integral", "analytic", "beukers_integral", "span"),
    ("analytic.zeta4_series", "analytic", "zeta4_series", "span"),
]


class Tracer:
    """Call stack, per-name statistics and the span list of one process."""

    def __init__(self, op_id: int = 0):
        self.op_id = op_id
        self.spans: list[dict] = []
        # name -> [calls, busy_s, self_s]
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        # Open calls: [covered_by_children, span index or None].
        self._stack: list[list] = [[0.0, None]]
        self._depth: dict[str, int] = {}

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def wrap(self, name: str, fn, kind: str, on_result=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        depth = self._depth
        depth.setdefault(name, 0)
        stack = self._stack
        spans = self.spans

        @wraps(fn)
        def traced(*args, **kwargs):
            span = None
            if kind == "span":
                span = len(spans)
                spans.append(
                    {"name": name, "start": 0.0, "end": 0.0,
                     "parent": self._parent_span(), "op_id": self.op_id}
                )
            frame = [0.0, span]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                depth[name] -= 1
                stack.pop()
                elapsed = end - start
                stack[-1][0] += elapsed
                stats[0] += 1
                stats[2] += elapsed - frame[0]
                if depth[name] == 0:
                    stats[1] += elapsed
                if span is not None:
                    spans[span]["start"] = start
                    spans[span]["end"] = end
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def report(self) -> dict:
        return {
            "op_id": self.op_id,
            "stats": self.stats,
            "counters": self.counters,
            "spans": self.spans,
        }


def _rebind(package_modules, original, replacement) -> int:
    """Replace every module-level or class-level binding of `original`."""
    bound = 0
    for module in package_modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                bound += 1
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in list(vars(value).items()):
                    if member is original:
                        setattr(value, attr, replacement)
                        bound += 1
    return bound


def install(tracer: Tracer) -> None:
    """Wrap every target in every imported aperylike module that binds it;
    import ``aperylike.cli`` first."""
    import aperylike

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "aperylike" or n.startswith("aperylike."))]
    hooks = {
        "analytic.digits": lambda args, result: tracer.count(
            "analytic.digits.n_used", result.n_used),
        "acceleration.alternating_sum": lambda args, result: tracer.count(
            "acceleration.alternating_sum.terms", len(args[0])),
    }
    for name, module_name, attr, kind in TARGETS:
        owner = getattr(aperylike, module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, kind, hooks.get(name))
        if _rebind(modules, original, wrapper) == 0:
            raise RuntimeError(f"tracer found no binding of {module_name}.{attr}")


class CountingStdout:
    """Pass-through text stream that counts the bytes written to it."""

    def __init__(self, stream):
        self._stream = stream
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text) if text.isascii() else len(text.encode("utf-8"))
        return self._stream.write(text)

    def __getattr__(self, attr):
        return getattr(self._stream, attr)


def main(argv: list[str]) -> int:
    out_path, op_id = argv[0], int(argv[1])
    cli_args = argv[3:] if argv[2:3] == ["--"] else argv[2:]

    start = perf_counter()
    import aperylike.cli
    from aperylike import hypergeom, sequences
    import_s = perf_counter() - start

    tracer = Tracer(op_id)
    install(tracer)
    memo_before = sum(len(table) for table in sequences._pairs.values())
    stdout = CountingStdout(sys.stdout)
    sys.stdout = stdout
    run = tracer.wrap("cli.main", aperylike.cli.main, "span")
    try:
        run(cli_args)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout = stdout._stream
        sys.stdout.flush()

    memo = sum(len(table) for table in sequences._pairs.values())
    tracer.count("sequences.steps", memo - memo_before)
    tracer.count("sequences.memo_entries", memo)
    tracer.count("hypergeom.kernel_cache_entries", len(hypergeom._kernel_cache))
    tracer.count("cli.stdout_bytes", stdout.bytes)
    record = tracer.report()
    record["import_s"] = import_s
    record["exit_code"] = code
    with open(out_path, "w") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
