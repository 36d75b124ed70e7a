"""Layered benchmark of the gradedortho CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single-process, closed-loop benchmark with one client: it generates the
workload's problem file from the seed, then runs the workload's
operations (``run``, ``verify`` and, for one workload, ``compare``) as
``python -m gradedortho.cli`` subprocesses, one at a time, each starting
when the last has exited, cycle after cycle for about ``--seconds``
seconds.  Every result is checked independently of ``verify`` (see
``check.py``).

``--trace 0`` times each operation from spawn to exit and prints the
end-to-end metrics.  ``--trace 1`` runs the same operations in-process
with the package's public functions wrapped in spans (see ``spans.py``)
and prints the per-layer metrics.  Human-readable lines come first;
the last line of standard output is one JSON object.  Records and span
files go to ``.perfbench/`` under the repository root.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import sys

# One BLAS thread, for the children and for this process: with two, the
# idle OpenBLAS worker spins on the second core and nearly doubles the
# run-to-run spread on a 2-core machine, while matrices of a few hundred
# rows gain nothing from threads.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from loop import (  # noqa: E402
    SRC, WORK, Bench, closed_loop, declared_metrics, median, run_cycle, setup_time,
)
from workloads import WORKLOADS  # noqa: E402

# Time of ``reference.py`` on the machine the baseline was taken on.
REFERENCE_NOMINAL_S = 0.5


def environment():
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    env["blas_threads"] = _blas_threads()
    try:
        from gradedortho import kernels

        env["eigensolver_backend"] = kernels.active_backend()
    except (ImportError, AttributeError):
        env["eigensolver_backend"] = "none"
    return env


def _blas_threads():
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "default"


def end_to_end(bench, seconds):
    setup_time(bench)  # compiles bytecode on a fresh checkout
    samples = closed_loop(bench, seconds, run_cycle)
    calibrate(samples)
    attempted = max(bench.attempted, 1)
    samples["ok_frac"] = [(attempted - bench.failed) / attempted]
    return samples, declared_metrics("end_to_end")


def calibrate(samples):
    """Rescale every time sample to a machine of the nominal reference speed.

    On a shared machine the speed of the same work drifts by 20% and
    more from one minute to the next, and the operations of a cycle slow
    down together with the calibration work of ``reference.py`` timed
    just before them.  Each time is multiplied by
    ``REFERENCE_NOMINAL_S`` over the ``reference_s`` of its own cycle;
    the measured times stay in the record as ``wall.<name>``.
    """
    reference = samples["reference_s"]
    for name in [n for n in samples if n.endswith("_s") and n != "reference_s"]:
        samples["wall." + name] = samples[name]
        samples[name] = [REFERENCE_NOMINAL_S * t / r for t, r in zip(samples[name], reference)]


def report(bench, samples, units, extra):
    metrics = {}
    for name in list(units) + sorted(set(samples) - set(units)):
        values = samples.get(name, [])
        value = median(values) if values else 0.0
        unit = units.get(name, "s")
        if name in units:
            metrics[name] = {"value": value, "unit": unit}
        spread = f" [{min(values):.6g} .. {max(values):.6g}]" if len(values) > 1 else ""
        print(f"{name:34s} {value:14.6g} {unit:8s} n={len(values)}{spread}")
    for line in bench.failures:
        print(f"FAILED {line}")
    record = {
        "workload": bench.workload.name,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "samples": samples,
        "metrics": metrics,
        **extra,
    }
    with open(os.path.join(WORK, bench.tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name in os.listdir(bench.dir):
        if name.endswith(".json"):
            os.remove(os.path.join(bench.dir, name))
    return {
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gradedortho", "cli.py")):
        print(f"error: no gradedortho sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload](args.seed)
    bench = Bench(workload, args.seed, args.trace)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    if args.trace:
        from layers import per_layer

        samples, units, extra = per_layer(bench, args.seconds)
    else:
        samples, units = end_to_end(bench, args.seconds)
        extra = {}
    out = report(bench, samples, units, {"environment": env, **extra})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
