"""Negative test of the benchmark's correctness check (``check.py``).

Usage (from the repository root):

    python3 perfbench/negative_check.py

On the ``monomial_wide_levels`` problem it shows that the check accepts
the graded result and rejects three others, and what ``gradedortho
verify`` says about each:

* ``run --method gram-schmidt``: orthonormal, so ``verify`` passes, but
  it is not the graded basis (its level blocks are not Hermitian);
* the graded result with one coefficient scaled by 1 + 1e-6;
* the graded result with one structural zero above a level replaced by
  1e-300, which leaves the residual unchanged.

Exits 0 when the check decides every case as expected, else 1.
"""

import copy
import json
import os
import subprocess
import sys

import numpy as np

from check import check_result
from loop import SRC, WORK
from workloads import monomial_wide_levels

# The perturbed entries below do not depend on the seed.
SEED = 1


def cli(env, *args):
    return subprocess.run(
        [sys.executable, "-m", "gradedortho.cli", *args],
        env=env, capture_output=True, text=True, timeout=170,
    ).returncode


def main():
    if not os.path.isfile(os.path.join(SRC, "gradedortho", "cli.py")):
        print(f"error: no gradedortho sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from gradedortho.fileio import parse_result

    workload = monomial_wide_levels(SEED)
    work = os.path.join(WORK, "negative")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    problem = os.path.join(work, "problem.json")
    with open(problem, "w", encoding="utf-8") as fh:
        json.dump(workload.problem, fh)

    paths = {name: os.path.join(work, f"{name}.json") for name in
             ("graded", "gram-schmidt", "perturbed", "nonzero-above")}
    for method in ("graded", "gram-schmidt"):
        code = cli(env, "run", problem, "--method", method, "--output", paths[method])
        if code != 0:
            print(f"error: run --method {method} exited {code}", file=sys.stderr)
            return 1
    with open(paths["graded"], encoding="utf-8") as fh:
        graded = json.load(fh)
    perturbed = copy.deepcopy(graded)
    entry = perturbed["levels"][3]["coefficients"][17][2]
    entry[0] *= 1.0 + 1e-6
    above = copy.deepcopy(graded)
    # Row 20 is a degree-3 monomial, above level 2.
    above["levels"][2]["coefficients"][20][0] = [1e-300, 0.0]
    for name, payload in (("perturbed", perturbed), ("nonzero-above", above)):
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)

    expect_pass = {"graded": True, "gram-schmidt": False, "perturbed": False,
                   "nonzero-above": False}
    ok = True
    parsed = {name: parse_result(path) for name, path in paths.items()}
    for name, path in paths.items():
        verdict = check_result(workload, parsed[name])
        verify = cli(env, "verify", problem, path)
        good = verdict.ok == expect_pass[name]
        ok &= good
        print(f"{name:14s} verify exit {verify}  check {'PASS' if verdict.ok else 'FLAG'}"
              f"  residual {verdict.residual:.2e}  {'as expected' if good else 'UNEXPECTED'}")
        for problem_line in verdict.problems[:2]:
            print(f"{'':14s} {problem_line}")
    gap = np.max(np.abs(np.hstack(parsed["gram-schmidt"].blocks) - np.hstack(parsed["graded"].blocks)))
    print(f"max |gram-schmidt - graded| coefficient = {gap:.2e}")
    for path in paths.values():
        os.remove(path)
    os.remove(problem)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
