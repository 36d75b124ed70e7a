"""Per-layer metrics from a traced, in-process run of the workload.

Each metric is summed over the spans of one operation of a cycle (the
``run`` operation unless the name says otherwise) and reported as the
median over the traced cycles.  A self time is a span's duration minus
the time its direct child spans cover.
"""

import contextlib
import io
import os
import re
import subprocess
import sys

from loop import IMPORT_PROBE, closed_loop, declared_metrics, median, run_cycle, setup_times
from spans import END, NAME, OP, SIZE, START, Tracer, has_ancestor, self_times

IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s(\S+)\s*$")


def import_seconds(bench, repeats=5):
    """``-X importtime`` cumulative time of the top-level ``gradedortho.cli`` import."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", IMPORT_PROBE],
            env=bench.env, capture_output=True, text=True, timeout=60, check=True,
        )
        for line in proc.stderr.splitlines():
            match = IMPORT_LINE.match(line)
            if match and match.group(2) == "gradedortho.cli":
                times.append(int(match.group(1)) / 1e6)
    return times


class TracedCycles:
    """Runs the workload's operations through ``cli.main`` under a tracer."""

    def __init__(self, tracer, operations):
        from gradedortho import cli

        self.mains = {op: tracer.wrap("op." + op, cli.main) for op in operations}
        self.tracer = tracer
        self.ops = []  # per cycle: {op name: op id}
        self.results = []  # per cycle: (result bytes, output level count)

    def __call__(self, bench, samples):
        cycle = len(self.ops)
        result = os.path.join(bench.dir, "traced-result.json")
        ids = {}
        total = 0.0
        for op in bench.workload.operations:
            ids[op] = self.tracer.op = f"{cycle}:{op}"
            sink = io.StringIO()
            first = len(self.tracer.spans)
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = self.mains[op](bench.argv(op, result))
                except SystemExit as stop:
                    code = stop.code
            span = self.tracer.spans[first]
            total += span[END] - span[START]
            if code != 0:
                bench.record_op(op, False, f"in-process exit code {code}: {sink.getvalue()[-300:]}")
                return None
            if op == "run":
                verdict = bench.check(result)
                bench.record_op(op, verdict.ok, "; ".join(verdict.problems[:3]))
                if not verdict.ok:
                    return None
                self.results.append((os.path.getsize(result), verdict.levels))
            else:
                bench.record_op(op, True, "")
        self.ops.append(ids)
        return total


def cycle_metrics(spans, selfs, by_op, ids, result_bytes, out_levels, in_levels):
    """Per-layer numbers of one traced cycle, keyed by metric name."""
    total, own, calls, n3 = {}, {}, {}, {}
    gram_outer = 0.0
    gram_in_parse = 0.0
    for op, op_id in ids.items():
        for i in by_op.get(op_id, ()):
            record = spans[i]
            key = (op, record[NAME])
            duration = record[END] - record[START]
            total[key] = total.get(key, 0.0) + duration
            own[key] = own.get(key, 0.0) + selfs[i]
            calls[key] = calls.get(key, 0) + 1
            if record[SIZE] is not None:
                n3[key] = n3.get(key, 0) + record[SIZE] ** 3
            if (op == "run" and record[NAME].startswith("gram.")
                    and not has_ancestor(spans, i, "gram.")):
                gram_outer += duration
                if has_ancestor(spans, i, "fileio.parse_problem"):
                    gram_in_parse += duration

    def t(name, op="run"):
        return total.get((op, name), 0.0)

    def s(name, op="run"):
        return own.get((op, name), 0.0)

    return {
        "spectral.eigh_calls": calls.get(("run", "spectral.eigh"), 0),
        "spectral.eigh_s": t("spectral.eigh"),
        "spectral.eigh_n3": n3.get(("run", "spectral.eigh"), 0),
        "ortho.level_loop_s": t("ortho.orthonormalize_graded"),
        "ortho.level_loop_self_s": s("ortho.orthonormalize_graded"),
        "ortho.cross_overlap_calls": calls.get(("run", "ortho.cross_overlap"), 0),
        "pseudo.level_loop_s": t("pseudo.pseudo_orthonormalize_graded"),
        "pseudo.level_loop_self_s": s("pseudo.pseudo_orthonormalize_graded"),
        "pseudo.promotions": in_levels - out_levels,
        "ortho.verify_table_s": t("ortho.verify_table"),
        "ortho.verify_table_self_s": s("ortho.verify_table"),
        "ortho.gram_schmidt_ref_s": t("ortho.gram_schmidt_reference", "compare"),
        "ortho.gram_method_ref_s": t("ortho.gram_method_reference", "compare"),
        "fileio.payload_s": t("fileio.result_payload"),
        "fileio.write_s": t("fileio.write_result"),
        "fileio.result_bytes": result_bytes,
        "fileio.parse_result_s": t("fileio.parse_result", "verify"),
        "fileio.parse_problem_s": t("fileio.parse_problem"),
        "fileio.parse_self_s": t("fileio.parse_problem") - gram_in_parse,
        "gram.assemble_s": gram_outer,
    }, {op: _breakdown(total, own, calls, op) for op in ids}


def _breakdown(total, own, calls, op, top=8):
    rows = sorted(
        ((own[key], total[key], calls[key], key[1]) for key in total if key[0] == op),
        reverse=True,
    )
    return [
        {"name": name, "self_s": self_s, "total_s": tot, "calls": n}
        for self_s, tot, n, name in rows[:top]
    ]


def per_layer(bench, seconds):
    """Untraced cycles (a quarter of the time), import probes, then traced cycles."""
    setup = setup_times(bench)
    untraced = closed_loop(bench, seconds / 4, run_cycle)
    setup += untraced["setup_s"]
    imports = import_seconds(bench)
    tracer = Tracer()
    tracer.install()
    traced = TracedCycles(tracer, bench.workload.operations)
    try:
        traced_samples = closed_loop(bench, seconds * 3 / 4, traced)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    selfs = self_times(spans)
    by_op = {}
    for i, record in enumerate(spans):
        by_op.setdefault(record[OP], []).append(i)
    units = declared_metrics("per_layer")
    samples = {name: [] for name in units}
    breakdowns = []
    for ids, (size, levels) in zip(traced.ops, traced.results):
        values, breakdown = cycle_metrics(
            spans, selfs, by_op, ids, size, levels, len(bench.workload.input_levels)
        )
        for name, value in values.items():
            samples[name].append(value)
        breakdowns.append(breakdown)
    samples["cli.import_s"] = imports
    ops = len(bench.workload.operations)
    base = median(untraced["cycle_s"]) - ops * median(setup)
    samples["trace.overhead_frac"] = [t / base - 1.0 for t in traced_samples["cycle_s"]]
    for op, rows in (breakdowns[0] if breakdowns else {}).items():
        print(f"{op}: largest self times in traced cycle 0")
        for row in rows:
            print(f"  {row['name']:40s} self {row['self_s']:9.4f} s  "
                  f"total {row['total_s']:9.4f} s  calls {row['calls']}")
    tracer.write(os.path.join(os.path.dirname(bench.dir), bench.tag + ".spans.json.gz"))
    extra = {
        "untraced": untraced,
        "setup_s": setup,
        "breakdown": breakdowns,
    }
    return samples, units, extra
