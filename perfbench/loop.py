"""Closed-loop execution of a workload's CLI operations.

One client: each operation is a ``python -m gradedortho.cli``
subprocess, timed from spawn to exit, and the next starts only after
the last one has exited.
"""

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
# A benchmark run must end within 180 s; no operation may start a
# child that could run past this.
HARD_LIMIT_S = 165.0
SETUP_REPEATS = 3
IMPORT_PROBE = "import gradedortho.cli"
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.py")


class Bench:
    """State of one benchmark run: workload files, counts, samples."""

    def __init__(self, workload, seed, trace):
        self.workload = workload
        self.tag = f"{workload.name}-s{seed}-t{trace}"
        self.dir = os.path.join(WORK, self.tag)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.problem = os.path.join(self.dir, "problem.json")
        with open(self.problem, "w", encoding="utf-8") as fh:
            json.dump(workload.problem, fh)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + os.pathsep + self.env.get("PYTHONPATH", "")
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.checked = {}  # result digest -> CheckResult

    def remaining(self):
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def argv(self, op, result):
        if op == "run":
            return ["run", self.problem, "--output", result]
        if op == "verify":
            return ["verify", self.problem, result]
        return ["compare", self.problem]

    def spawn(self, args, log):
        """Run one child to exit; returns (seconds, exit code, peak RSS in MB)."""
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(args, stdout=out, stderr=subprocess.STDOUT, env=self.env)
            timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, proc.returncode, usage.ru_maxrss * 1024 / 1e6

    def record_op(self, op, ok, why):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{op}: {why}")

    def check(self, path):
        """Independent check of a result file; reuses the verdict for identical bytes."""
        from check import check_result
        from gradedortho.fileio import parse_result

        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if digest not in self.checked:
            self.checked[digest] = check_result(self.workload, parse_result(path))
        return self.checked[digest]


def declared_metrics(kind):
    """Metric name -> unit for ``kind`` ("end_to_end" or "per_layer") of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def median(values):
    return statistics.median(values) if values else float("nan")


def setup_time(bench):
    """Fresh interpreter from spawn until ``import gradedortho.cli`` returns."""
    args = [sys.executable, "-c", IMPORT_PROBE]
    elapsed, code, _ = bench.spawn(args, os.path.join(bench.dir, "setup.log"))
    if code != 0:
        raise SystemExit(f"error: cannot import gradedortho.cli (exit {code})")
    return elapsed


def reference_time(bench):
    """Spawn-to-exit time of the fixed calibration work in ``reference.py``."""
    elapsed, code, _ = bench.spawn([sys.executable, REFERENCE],
                                   os.path.join(bench.dir, "reference.log"))
    if code != 0:
        raise SystemExit(f"error: {REFERENCE} exited {code}")
    return elapsed


def setup_times(bench, repeats=SETUP_REPEATS):
    setup_time(bench)  # compiles bytecode on a fresh checkout
    return [setup_time(bench) for _ in range(repeats)]


def run_cycle(bench, samples):
    """One pass over the workload's operations as CLI subprocesses.

    Each cycle first times the calibration work (``reference_s``) that
    its other times are scaled by (``run.calibrate``), then takes one
    ``setup_s`` sample, so that the set-up samples spread over the whole
    run.
    """
    samples.setdefault("reference_s", []).append(reference_time(bench))
    samples.setdefault("setup_s", []).append(setup_time(bench))
    result = os.path.join(bench.dir, "result.json")
    total = 0.0
    for op in bench.workload.operations:
        log = os.path.join(bench.dir, f"{op}.log")
        if bench.remaining() <= 1.0:
            bench.record_op(op, False, "no time left")
            return None
        elapsed, code, rss = bench.spawn(
            [sys.executable, "-m", "gradedortho.cli"] + bench.argv(op, result), log
        )
        total += elapsed
        samples.setdefault(f"{op}_s", []).append(elapsed)
        if code != 0:
            bench.record_op(op, False, f"exit code {code}, see {log}")
            return None
        if op == "run":
            samples.setdefault("peak_rss_mb", []).append(rss)
            samples.setdefault("result_mb", []).append(os.path.getsize(result) / 1e6)
            verdict = bench.check(result)
            samples.setdefault("ortho_digits", []).append(verdict.digits)
            bench.record_op(op, verdict.ok, "; ".join(verdict.problems[:3]))
            if not verdict.ok:
                return None
        else:
            bench.record_op(op, True, "")
    return total


def closed_loop(bench, seconds, cycle_fn):
    """Repeat cycles while another one of the median length fits in ``seconds``."""
    samples = {"cycle_s": []}
    lengths = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        total = cycle_fn(bench, samples)
        if total is None:
            break
        samples["cycle_s"].append(total)
        lengths.append(time.perf_counter() - t0)
        if time.perf_counter() - start + median(lengths) > seconds:
            break
    return samples


