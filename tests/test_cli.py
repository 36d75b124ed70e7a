"""CLI subcommands: round trips, exit codes, determinism, schema rejection."""

import argparse
import copy
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gradedortho
from gradedortho.cli import EXIT_MATH, EXIT_OK, EXIT_SCHEMA, EXIT_VERIFY, build_parser, main
from gradedortho.fileio import (
    METHODS,
    matrix_to_json,
    parse_matrix,
    parse_problem,
    parse_result,
    result_payload,
    write_result,
)
from gradedortho.ortho import orthonormalize_graded, verify_table
from gradedortho.pseudo import pseudo_orthonormalize_graded

PROBLEM_DIR = Path(__file__).resolve().parent.parent / "problems"
EXEMPLARS = sorted(PROBLEM_DIR.glob("*.json"))
SRC = str(Path(__file__).resolve().parent.parent / "src")


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def run_python(*args, **overrides):
    """A fresh interpreter on the repository's sources, with extra environment."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.fixture
def pair_problem(tmp_path):
    path = tmp_path / "pair.json"
    write_json(
        path,
        {
            "mode": "explicit",
            "metric": "euclidean",
            "explicit": {
                "levels": [["a"], ["b"]],
                "gram": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]],
            },
        },
    )
    return path


def test_exemplars_are_committed():
    names = {p.name for p in EXEMPLARS}
    for mode in ("explicit", "fourier", "monomial"):
        for metric in ("euclidean", "pseudo"):
            assert f"{mode}_{metric}.json" in names


@pytest.mark.parametrize("problem", EXEMPLARS, ids=lambda p: p.stem)
def test_round_trip_every_exemplar(problem, tmp_path, capsys):
    out = tmp_path / "result.json"
    assert main(["run", str(problem), "--output", str(out)]) == EXIT_OK
    assert main(["verify", str(problem), str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "structural grading zeros: ok\nverification: PASS" in text


@pytest.mark.parametrize("problem", EXEMPLARS, ids=lambda p: p.stem)
def test_write_result_text_equals_checked_encoding(problem, tmp_path):
    # the encoder skips its cycle checks; the text must be what the
    # default, checking encoder gives
    parsed = parse_problem(problem)
    if parsed.metric == "pseudo":
        table = pseudo_orthonormalize_graded(parsed.source, parsed.degeneracy_tol)
    else:
        table = orthonormalize_graded(parsed.source, parsed.degeneracy_tol)
    report = verify_table(parsed.source, table, parsed.verify_tol)
    payload = result_payload(parsed, table, report, "graded")
    out = tmp_path / "result.json"
    write_result(out, payload)
    expected = json.dumps(payload, ensure_ascii=False, separators=(",", ":")) + "\n"
    assert out.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("problem", EXEMPLARS, ids=lambda p: p.stem)
def test_reruns_are_byte_identical(problem, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["run", str(problem), "--output", str(out1)]) == EXIT_OK
    assert main(["run", str(problem), "--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_run_identity_problem(tmp_path, capsys):
    path = tmp_path / "id.json"
    write_json(
        path,
        {
            "mode": "explicit",
            "metric": "euclidean",
            "explicit": {"levels": [["a"], ["b"]], "gram": [[1.0, 0.0], [0.0, 1.0]]},
        },
    )
    out = tmp_path / "id.result.json"
    assert main(["run", str(path), "--output", str(out)]) == EXIT_OK
    result = parse_result(out)
    assert np.array_equal(np.hstack(result.blocks), np.eye(2))
    assert result.report["max_residual"] == 0.0


def test_default_output_path(pair_problem):
    assert main(["run", str(pair_problem)]) == EXIT_OK
    expected = pair_problem.with_name("pair.result.json")
    assert expected.exists()


def test_rank_deficient_input_exits_3(tmp_path, capsys):
    path = tmp_path / "dependent.json"
    write_json(
        path,
        {
            "mode": "explicit",
            "metric": "euclidean",
            "explicit": {"levels": [["a"], ["b"]], "gram": [[1.0, 1.0], [1.0, 1.0]]},
        },
    )
    assert main(["run", str(path)]) == EXIT_MATH
    err = capsys.readouterr().err
    assert "LinearlyDependentInput" in err and "level 1" in err


def test_terminal_isotropic_exits_3(tmp_path, capsys):
    path = tmp_path / "terminal.json"
    write_json(
        path,
        {
            "mode": "explicit",
            "metric": "pseudo",
            "explicit": {"levels": [["b"], ["a"]], "gram": [[2.0, 1.0], [1.0, 0.0]]},
        },
    )
    assert main(["run", str(path)]) == EXIT_MATH
    assert "TerminalIsotropicVector" in capsys.readouterr().err


def test_promotion_reported(tmp_path, capsys):
    problem = PROBLEM_DIR / "explicit_pseudo.json"
    out = tmp_path / "promo.json"
    assert main(["run", str(problem), "--output", str(out)]) == EXIT_OK
    assert "promoted 'a' from level 0 to level 1" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["promotions"] == [{"from_level": 0, "label": "a", "to_level": 1}]
    assert payload["levels"][0]["signs"] == [1, -1]


def test_verify_rejects_digest_mismatch(tmp_path, pair_problem, capsys):
    out = tmp_path / "result.json"
    assert main(["run", str(pair_problem), "--output", str(out)]) == EXIT_OK
    other = tmp_path / "other.json"
    other.write_text(pair_problem.read_text().replace("2.0", "3.0"), encoding="utf-8")
    assert main(["verify", str(other), str(out)]) == EXIT_SCHEMA
    assert "different problem file" in capsys.readouterr().err


def test_verify_flags_corrupted_coefficients(tmp_path, pair_problem, capsys):
    out = tmp_path / "result.json"
    assert main(["run", str(pair_problem), "--output", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    payload["levels"][0]["coefficients"][0][0][0] += 0.1
    write_json(out, payload)
    assert main(["verify", str(pair_problem), str(out)]) == EXIT_VERIFY
    text = capsys.readouterr().out
    residual = float(text.split("recomputed orthonormality residual:")[1].split()[0])
    assert residual >= 0.01


@pytest.mark.parametrize("output", ["missing-dir", "directory"])
def test_unwritable_output_exits_2_with_one_line(pair_problem, tmp_path, output):
    target = {"missing-dir": tmp_path / "no" / "such" / "r.json", "directory": tmp_path}
    proc = run_python(
        "-m", "gradedortho.cli", "run", str(pair_problem), "--output", str(target[output])
    )
    assert proc.returncode == EXIT_SCHEMA
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: cannot write result file: ")
    assert proc.stdout == ""


def broken_structural_zero(tmp_path, method, level_id=None):
    """A monomial result with one nonzero entry on a higher level's row."""
    problem = PROBLEM_DIR / "monomial_euclidean.json"
    out = tmp_path / f"{method}.result.json"
    assert main(["run", str(problem), "--output", str(out), "--method", method]) == EXIT_OK
    payload = json.loads(out.read_text(encoding="utf-8"))
    # row 6 holds x^6, on level 6: far above level 0's constant
    payload["levels"][0]["coefficients"][6][0] = [1e-12, 0.0]
    if level_id is not None:
        payload["levels"][0]["level"] = level_id
    write_json(out, payload)
    return problem, out


@pytest.mark.parametrize("method", ["graded", "gram-schmidt"])
def test_verify_flags_broken_structural_zero(tmp_path, capsys, method):
    problem, out = broken_structural_zero(tmp_path, method)
    capsys.readouterr()
    assert main(["verify", str(problem), str(out)]) == EXIT_VERIFY
    text = capsys.readouterr().out
    residual = float(text.split("recomputed orthonormality residual:")[1].split()[0])
    assert residual <= 1e-9
    assert "structural grading zeros: violated\nverification: FAIL" in text


def test_verify_ignores_level_ids_written_in_the_result(tmp_path, capsys):
    # claiming the broken level is the top one must not hide the entry
    problem, out = broken_structural_zero(tmp_path, "graded", level_id=6)
    capsys.readouterr()
    assert main(["verify", str(problem), str(out)]) == EXIT_VERIFY
    assert "structural grading zeros: violated" in capsys.readouterr().out


def test_verify_only_reports_structural_zeros_of_gram_results(tmp_path, capsys):
    # Loewdin's method mixes all levels, so its zeros are not expected
    problem = PROBLEM_DIR / "monomial_euclidean.json"
    out = tmp_path / "gram.result.json"
    assert main(["run", str(problem), "--output", str(out), "--method", "gram"]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", str(problem), str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "structural grading zeros: violated\nverification: PASS" in text


def test_verify_rejects_shape_mismatch(tmp_path, pair_problem):
    out = tmp_path / "result.json"
    assert main(["run", str(pair_problem), "--output", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    payload["levels"][0]["coefficients"] = [[[1.0, 0.0]]]
    write_json(out, payload)
    assert main(["verify", str(pair_problem), str(out)]) == EXIT_SCHEMA


def test_verify_reproduces_embedded_report(tmp_path):
    for problem in EXEMPLARS:
        out = tmp_path / (problem.stem + ".result.json")
        assert main(["run", str(problem), "--output", str(out)]) == EXIT_OK
        prob = parse_problem(problem)
        result = parse_result(out)
        c = np.hstack(result.blocks)
        gram = prob.source.matrix
        if result.signs is not None:
            target = np.diag(np.concatenate(result.signs).astype(complex))
        else:
            target = np.eye(c.shape[1], dtype=complex)
        residual = float(np.max(np.abs(c.conj().T @ gram @ c - target)))
        assert abs(residual - result.report["max_residual"]) <= 1e-12


def test_method_flags_produce_verifiable_results(pair_problem, tmp_path):
    for method in ("graded", "gram-schmidt", "gram"):
        out = tmp_path / f"{method}.json"
        assert main(["run", str(pair_problem), "--output", str(out), "--method", method]) == EXIT_OK
        assert main(["verify", str(pair_problem), str(out)]) == EXIT_OK


def test_pseudo_metric_restricted_to_graded(tmp_path):
    problem = PROBLEM_DIR / "explicit_pseudo.json"
    out = tmp_path / "x.json"
    code = main(["run", str(problem), "--output", str(out), "--method", "gram"])
    assert code == EXIT_SCHEMA


def test_compare_reports_degenerations(pair_problem, capsys):
    assert main(["compare", str(pair_problem)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "graded reduces to gram-schmidt -> HOLDS" in text


def test_compare_single_level(tmp_path, capsys):
    path = tmp_path / "single.json"
    write_json(
        path,
        {
            "mode": "explicit",
            "metric": "euclidean",
            "explicit": {"levels": [["a", "b"]], "gram": [[1.0, 0.5], [0.5, 1.0]]},
        },
    )
    assert main(["compare", str(path)]) == EXIT_OK
    assert "graded reduces to gram -> HOLDS" in capsys.readouterr().out


def test_compare_rejects_pseudo(capsys):
    problem = PROBLEM_DIR / "explicit_pseudo.json"
    assert main(["compare", str(problem)]) == EXIT_SCHEMA


def test_compare_multielement_methods_differ(capsys):
    problem = PROBLEM_DIR / "explicit_euclidean.json"
    assert main(["compare", str(problem)]) == EXIT_OK
    text = capsys.readouterr().out
    diff = float(text.split("max |graded - gram-schmidt| =")[1].split()[0])
    assert diff > 1e-6


def test_invalid_json_exits_2_with_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"mode": "explicit",,}', encoding="utf-8")
    assert main(["run", str(path)]) == EXIT_SCHEMA
    assert "line" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == EXIT_SCHEMA


REQUIRED_FIELD_CASES = {
    "explicit_euclidean.json": ["mode", "metric", "explicit", "explicit.levels", "explicit.gram"],
    "fourier_euclidean.json": ["fourier", "fourier.max_harmonic", "fourier.weight"],
    "monomial_euclidean.json": [
        "monomial",
        "monomial.dimension",
        "monomial.max_degree",
        "monomial.box",
    ],
}


@pytest.mark.parametrize(
    "name,field",
    [(n, f) for n, fields in REQUIRED_FIELD_CASES.items() for f in fields],
)
def test_required_field_deletion_rejected(tmp_path, capsys, name, field):
    payload = json.loads((PROBLEM_DIR / name).read_text())
    target = copy.deepcopy(payload)
    node = target
    *parents, leaf = field.split(".")
    for key in parents:
        node = node[key]
    del node[leaf]
    path = tmp_path / "mutant.json"
    write_json(path, target)
    assert main(["run", str(path)]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert leaf in err


@pytest.mark.parametrize("field", ["dimension", "max_degree"])
def test_bool_integer_field_rejected(tmp_path, capsys, field):
    # JSON true is a Python bool, which isinstance counts as an int
    payload = monomial(1, 2, [[0.0, 1.0]])
    payload["monomial"][field] = True
    path = tmp_path / "bool.json"
    write_json(path, payload)
    assert main(["run", str(path)]) == EXIT_SCHEMA
    assert f"'monomial.{field}' has the wrong type" in capsys.readouterr().err


def test_two_mode_blocks_rejected(tmp_path, capsys):
    payload = json.loads((PROBLEM_DIR / "explicit_euclidean.json").read_text())
    payload["fourier"] = {"max_harmonic": 1, "weight": {"kind": "uniform"}}
    path = tmp_path / "two_modes.json"
    write_json(path, payload)
    assert main(["run", str(path)]) == EXIT_SCHEMA
    assert "exactly one mode block" in capsys.readouterr().err


def monomial(dimension, max_degree, box):
    block = {"dimension": dimension, "max_degree": max_degree, "box": box}
    return {"mode": "monomial", "metric": "euclidean", "monomial": block}


# Valid JSON of the right types whose values no Gram source can be built from.
INVALID_VALUE_PROBLEMS = {
    "duplicate-label": {
        "mode": "explicit",
        "metric": "euclidean",
        "explicit": {"levels": [["a", "a"]], "gram": [[1.0, 0.0], [0.0, 1.0]]},
    },
    "empty-box-interval": monomial(1, 2, [[1.0, 0.0]]),
    "negative-max-degree": monomial(1, -1, [[0.0, 1.0]]),
    "zero-dimension": monomial(0, 2, []),
    "monomial-gram-overflow": monomial(1, 160, [[0.0, 100.0]]),
    "fourier-gram-overflow": {
        "mode": "fourier",
        "metric": "euclidean",
        "fourier": {"max_harmonic": 0, "weight": {"kind": "samples", "values": [1e308, 1e308]}},
    },
}


@pytest.mark.parametrize("case", ["monomial-gram-overflow", "fourier-gram-overflow"])
def test_gram_overflow_prints_one_error_line(tmp_path, case):
    path = tmp_path / "invalid.json"
    write_json(path, INVALID_VALUE_PROBLEMS[case])
    proc = run_python("-m", "gradedortho.cli", "run", str(path))
    assert proc.returncode == EXIT_SCHEMA
    assert "RuntimeWarning" not in proc.stderr
    mode = INVALID_VALUE_PROBLEMS[case]["mode"]
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"error: invalid '{mode}' problem: ")
    assert "Gram matrix" in line


def test_subnormal_gram_entry_runs_and_verifies(tmp_path, capsys):
    # the level-0 normalizer is 1e155: squaring it to get a condition
    # number would overflow
    path = tmp_path / "subnormal.json"
    write_json(
        path,
        {
            "mode": "explicit",
            "metric": "euclidean",
            "explicit": {"levels": [["a"], ["b"]], "gram": [[1e-310, 0.0], [0.0, 1.0]]},
        },
    )
    out = tmp_path / "subnormal.result.json"
    assert main(["run", str(path), "--output", str(out)]) == EXIT_OK
    assert main(["verify", str(path), str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "level 0: normalizer condition number 1.000000e+00" in text
    assert text.rstrip().endswith("verification: PASS")


# Gram matrices with entries near the float range: (a + a†)/2 would
# overflow, halving each term first does not.
HUGE_GRAMS = {
    "euclidean": [[1e308, 0.0], [0.0, 1e308]],
    "pseudo": [[1e308, 0.0], [0.0, -1e308]],
}


def explicit_problem(path, gram, metric="euclidean"):
    write_json(
        path,
        {"mode": "explicit", "metric": metric, "explicit": {"levels": [["a", "b"]], "gram": gram}},
    )
    return path


@pytest.mark.parametrize("metric", sorted(HUGE_GRAMS))
def test_gram_near_the_float_range_runs_and_verifies(tmp_path, metric):
    path = explicit_problem(tmp_path / "huge.json", HUGE_GRAMS[metric], metric)
    out = str(tmp_path / "huge.result.json")
    proc = run_python("-m", "gradedortho.cli", "run", str(path), "--output", out)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert "max orthonormality residual: 0.000000e+00" in proc.stdout
    proc = run_python("-m", "gradedortho.cli", "verify", str(path), out)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")


@pytest.mark.parametrize("method", ["graded", "gram"])
def test_eigenvalue_overflow_runs_and_verifies(tmp_path, method):
    # finite and Hermitian, but its eigenvalue 1.9e308 is past the float
    # maximum: the normalizer decomposes the block scaled by 4^-512
    gram = [[1e308, 9e307], [9e307, 1e308]]
    path = explicit_problem(tmp_path / "overflow.json", gram)
    out = str(tmp_path / "overflow.result.json")
    proc = run_python("-m", "gradedortho.cli", "run", str(path), "--output", out, "--method", method)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    proc = run_python("-m", "gradedortho.cli", "verify", str(path), out)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert proc.stdout.rstrip().endswith("verification: PASS")


@pytest.mark.parametrize("command", ["run", "compare"])
def test_failed_eigendecomposition_exits_3(monkeypatch, tmp_path, capsys, command):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    argv = [command, str(PROBLEM_DIR / "explicit_euclidean.json")]
    if command == "run":
        argv += ["--output", str(tmp_path / "r.json")]
    assert main(argv) == EXIT_MATH
    [line] = capsys.readouterr().err.splitlines()
    assert line == "error: NoConvergence: eigendecomposition failed: Eigenvalues did not converge"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_gc_state_alone(pair_problem, tmp_path, enabled):
    switch = {True: gc.enable, False: gc.disable}
    was = gc.isenabled()
    try:
        switch[enabled]()
        frozen = gc.get_freeze_count()
        assert main(["run", str(pair_problem), "--output", str(tmp_path / "r.json")]) == EXIT_OK
        assert gc.isenabled() == enabled
        assert gc.get_freeze_count() == frozen
    finally:
        switch[was]()


def test_entry_disables_gc():
    code = (
        "import gc, gradedortho.cli as cli\n"
        "cli.main = lambda: print(gc.isenabled(), gc.get_freeze_count() > 0) or 0\n"
        "cli.entry()\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True\n"


def test_subprocess_run_writes_in_process_bytes(tmp_path):
    problem = PROBLEM_DIR / "fourier_euclidean.json"
    child = tmp_path / "child.json"
    proc = run_python("-m", "gradedortho.cli", "run", str(problem), "--output", str(child))
    assert proc.returncode == EXIT_OK, proc.stderr
    here = tmp_path / "here.json"
    assert main(["run", str(problem), "--output", str(here)]) == EXIT_OK
    assert child.read_bytes() == here.read_bytes()


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("case", sorted(INVALID_VALUE_PROBLEMS))
def test_invalid_values_exit_2(tmp_path, capsys, case, command):
    path = tmp_path / "invalid.json"
    write_json(path, INVALID_VALUE_PROBLEMS[case])
    assert main([command, str(path)]) == EXIT_SCHEMA
    assert "error: invalid" in capsys.readouterr().err
    assert not (tmp_path / "invalid.result.json").exists()


def test_fourier_result_file_passes_symmetry_recheck(tmp_path):
    # independent recomputation of the conjugate-mirror property from the
    # persisted coefficients of the committed rho = 2 + cos(x), M = 4 problem
    problem = PROBLEM_DIR / "fourier_euclidean.json"
    out = tmp_path / "fourier.result.json"
    assert main(["run", str(problem), "--output", str(out)]) == EXIT_OK
    result = parse_result(out)
    harmonics = [0] + [h for k in range(1, 5) for h in (k, -k)]
    mirror = [harmonics.index(-h) for h in harmonics]
    for k in range(1, 5):
        block = result.blocks[k]
        plus, minus = block[:, 0], block[:, 1]
        assert np.max(np.abs(plus - np.conj(minus[mirror]))) < 1e-10
    constant = result.blocks[0][0, 0]
    assert constant.imag == 0.0 and constant.real > 0.0


def test_non_hermitian_gram_rejected(tmp_path, capsys):
    path = tmp_path / "skew.json"
    write_json(
        path,
        {
            "mode": "explicit",
            "metric": "euclidean",
            "explicit": {"levels": [["a"], ["b"]], "gram": [[1.0, 0.5], [0.4, 1.0]]},
        },
    )
    assert main(["run", str(path)]) == EXIT_SCHEMA
    assert "not Hermitian" in capsys.readouterr().err


@pytest.mark.parametrize(
    "shift,verify_tol,code", [(0.0, 1e-30, EXIT_OK), (5.0, 1e6, EXIT_VERIFY)]
)
def test_verify_judges_with_the_problem_tolerance(tmp_path, capsys, shift, verify_tol, code):
    # a tolerance written in the result, as earlier versions did, is
    # ignored whether it is tighter or looser than the problem's
    problem = PROBLEM_DIR / "explicit_euclidean.json"
    out = tmp_path / "result.json"
    assert main(["run", str(problem), "--output", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert "tolerances" not in payload and "verify_tol" not in payload["report"]
    payload["levels"][0]["coefficients"][0][0][0] += shift
    payload["tolerances"] = {"degeneracy_tol": 1e-10, "verify_tol": verify_tol}
    write_json(out, payload)
    capsys.readouterr()
    assert main(["verify", str(problem), str(out)]) == code
    assert "tolerance: 1.0e-09\n" in capsys.readouterr().out


def test_verify_prints_the_problem_tolerance(tmp_path, capsys):
    problem = PROBLEM_DIR / "explicit_pseudo.json"
    out = tmp_path / "result.json"
    assert main(["run", str(problem), "--output", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", str(problem), str(out)]) == EXIT_OK
    assert "tolerance: 1.0e-12\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command,flag",
    [("run", "--degeneracy-tol"), ("run", "--verify-tol"), ("compare", "--degeneracy-tol")],
)
def test_tolerance_flags_are_gone(pair_problem, tmp_path, command, flag):
    # tolerances come from the problem file alone
    proc = run_python("-m", "gradedortho.cli", command, str(pair_problem), flag, "1e-8")
    assert proc.returncode == EXIT_SCHEMA
    assert "unrecognized arguments" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not pair_problem.with_name("pair.result.json").exists()


def test_promotion_into_a_level_with_the_same_label_exits_2(tmp_path):
    # 'x' on level 0 is isotropic and joins level 1, which holds an 'x' too
    path = tmp_path / "clash.json"
    write_json(
        path,
        {
            "mode": "explicit",
            "metric": "pseudo",
            "explicit": {
                "levels": [["x"], ["x", "y"]],
                "gram": [[0, 1, 0], [1, 1, 0], [0, 0, -1]],
            },
        },
    )
    proc = run_python("-m", "gradedortho.cli", "run", str(path))
    assert proc.returncode == EXIT_SCHEMA
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: invalid 'explicit' problem: ")
    assert "'x'" in line and "level 0" in line and "level 1" in line
    assert not (tmp_path / "clash.result.json").exists()


@pytest.mark.parametrize("method", ["graded", "gram-schmidt", "gram"])
def test_indefinite_gram_is_a_degenerate_metric(tmp_path, capsys, method):
    # eigenvalues 3 and -1: not positive definite, and not singular either
    path = tmp_path / "indefinite.json"
    write_json(
        path,
        {
            "mode": "explicit",
            "metric": "euclidean",
            "explicit": {"levels": [["a"], ["b"]], "gram": [[1.0, 2.0], [2.0, 1.0]]},
        },
    )
    assert main(["run", str(path), "--method", method]) == EXIT_MATH
    err = capsys.readouterr().err
    assert "DegenerateMetric" in err and "not positive definite" in err


def test_cli_options_match_readme():
    readme = (PROBLEM_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", section))
    [subparsers] = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert set(subparsers.choices) == {"run", "verify", "compare"}
    options = {
        option
        for sub in subparsers.choices.values()
        for action in sub._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert options == documented


def test_library_names_match_readme():
    readme = (PROBLEM_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n")[1].split("\n## ")[0]
    documented = set(re.findall(r"`([A-Za-z_]\w*)`", section))
    documented |= set(re.findall(r"\bgo\.(\w+)", readme))
    index = gradedortho.GradedIndex([["a"]])
    table = orthonormalize_graded(gradedortho.build_explicit(index, np.eye(1)))
    unknown = {
        name for name in documented
        if name not in gradedortho.__all__ and not hasattr(table, name)
    }
    assert not unknown


# case: (path to the replaced value, new value, field the error must name)
MALFORMED_RESULTS = {
    "signs-length": (("levels", 0, "signs"), [1, 1, 1], "levels[0].signs"),
    "sign-string": (("levels", 2, "signs", 0), "x", "levels[2].signs"),
    "sign-five": (("levels", 2, "signs", 0), 5, "levels[2].signs"),
    "sign-float": (("levels", 2, "signs", 0), 1.0, "levels[2].signs"),
    "sign-bool": (("levels", 2, "signs", 0), True, "levels[2].signs"),
    "metric": (("metric",), "pseud", "metric"),
    "labels-count": (("levels", 2, "labels"), ["h"], "levels[2].labels"),
    "max-residual": (("report", "max_residual"), "small", "report.max_residual"),
    "max-residual-bool": (("report", "max_residual"), False, "report.max_residual"),
    "level-bool": (("levels", 1, "level"), True, "levels[1].level"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RESULTS))
def test_verify_rejects_malformed_result(tmp_path, capsys, case):
    (*parents, leaf), value, field = MALFORMED_RESULTS[case]
    problem = PROBLEM_DIR / "fourier_pseudo.json"
    out = tmp_path / "result.json"
    assert main(["run", str(problem), "--output", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert [len(level["labels"]) for level in payload["levels"]] == [1, 2, 2]
    node = payload
    for key in parents:
        node = node[key]
    node[leaf] = value
    write_json(out, payload)
    capsys.readouterr()
    assert main(["verify", str(problem), str(out)]) == EXIT_SCHEMA
    assert f"'{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_reruns_byte_identical_per_blas_thread_count(tmp_path, threads):
    # Results may differ in the last bits between thread counts; only
    # reruns under one setting are required to match.
    problem = PROBLEM_DIR / "fourier_euclidean.json"
    outputs = []
    for rerun in range(2):
        out = tmp_path / f"r{rerun}.json"
        proc = run_python(
            "-m", "gradedortho.cli", "run", str(problem), "--output", str(out),
            OPENBLAS_NUM_THREADS=threads,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# case: edits of a monomial_euclidean result (seven singleton levels)
OUTPUT_LEVEL_EDITS = {
    "ids-and-label": (
        {("levels", 0, "level"): 6, ("levels", 1, "level"): -3, ("levels", 0, "labels"): ["zzz"]},
        "levels[0]",
    ),
    "id": ({("levels", 3, "level"): 4}, "levels[3].level is 4, expected 3"),
    "label": ({("levels", 2, "labels"): ["x"]}, "levels[2].labels"),
    "swapped": (
        {("levels", 1, "labels"): ["x^2"], ("levels", 2, "labels"): ["x"]},
        "levels[1].labels",
    ),
}


@pytest.mark.parametrize("case", sorted(OUTPUT_LEVEL_EDITS))
def test_verify_checks_output_levels(tmp_path, capsys, case):
    edits, message = OUTPUT_LEVEL_EDITS[case]
    problem = PROBLEM_DIR / "monomial_euclidean.json"
    out = tmp_path / "result.json"
    assert main(["run", str(problem), "--output", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text(encoding="utf-8"))
    for (*parents, leaf), value in edits.items():
        node = payload
        for key in parents:
            node = node[key]
        node[leaf] = value
    write_json(out, payload)
    capsys.readouterr()
    assert main(["verify", str(problem), str(out)]) == EXIT_VERIFY
    text = capsys.readouterr().out
    line = text.split("output levels: ")[1].splitlines()[0]
    assert line.startswith("mismatch (") and message in line
    assert "\nstructural grading zeros: ok\nverification: FAIL" in text


def test_verify_rejects_output_level_splitting_an_input_level(tmp_path, capsys):
    # fourier_euclidean levels have 1, 2, 2, ... columns; move one
    # column of level 1 into level 2
    problem = PROBLEM_DIR / "fourier_euclidean.json"
    out = tmp_path / "result.json"
    assert main(["run", str(problem), "--output", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text(encoding="utf-8"))
    one, two = payload["levels"][1], payload["levels"][2]
    assert (len(one["labels"]), len(two["labels"])) == (2, 2)
    two["labels"].insert(0, one["labels"].pop())
    for row_one, row_two in zip(one["coefficients"], two["coefficients"]):
        row_two.insert(0, row_one.pop())
    write_json(out, payload)
    capsys.readouterr()
    assert main(["verify", str(problem), str(out)]) == EXIT_VERIFY
    assert "output levels: mismatch (levels[1] columns 1..1 split an input level)" in (
        capsys.readouterr().out
    )


def test_verify_accepts_promoted_output_levels(tmp_path, capsys):
    # 'a' on level 0 is promoted into level 1: one output level with
    # both labels and the id of the level it joined
    problem = PROBLEM_DIR / "explicit_pseudo.json"
    out = tmp_path / "promo.json"
    assert main(["run", str(problem), "--output", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert [(lv["level"], lv["labels"]) for lv in payload["levels"]] == [(1, ["a", "b"])]
    capsys.readouterr()
    assert main(["verify", str(problem), str(out)]) == EXIT_OK
    assert "output levels: ok\nstructural grading zeros: ok\nverification: PASS" in (
        capsys.readouterr().out
    )
    payload["levels"][0]["level"] = 0
    write_json(out, payload)
    assert main(["verify", str(problem), str(out)]) == EXIT_VERIFY
    assert "levels[0].level is 0, expected 1" in capsys.readouterr().out


def test_verify_fails_a_graded_result_relabelled_gram(tmp_path, capsys):
    # the zeros are waived for the coefficients of the Gram method, not
    # for a file that names it
    problem, out = broken_structural_zero(tmp_path, "graded")
    payload = json.loads(out.read_text(encoding="utf-8"))
    payload["method"] = "gram"
    write_json(out, payload)
    capsys.readouterr()
    assert main(["verify", str(problem), str(out)]) == EXIT_VERIFY
    assert "structural grading zeros: violated\nverification: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("method", ["gram", "gram-schmidt"])
def test_verify_rejects_a_relabelled_pseudo_result(tmp_path, capsys, method):
    # run makes pseudo results with the graded method only
    problem = PROBLEM_DIR / "explicit_pseudo.json"
    out = tmp_path / "result.json"
    assert main(["run", str(problem), "--output", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text(encoding="utf-8"))
    payload["method"] = method
    write_json(out, payload)
    capsys.readouterr()
    assert main(["verify", str(problem), str(out)]) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: field 'method' must be 'graded' in a pseudo result"
    ]


def merge_entries(payload, first, count, mix=None):
    """Replace ``count`` level entries from ``first`` on by one entry holding
    their columns (times ``mix``, if given), as a promotion would."""
    entries = payload["levels"][first : first + count]
    merged = {
        "level": entries[-1]["level"],
        "labels": [label for entry in entries for label in entry["labels"]],
        "coefficients": [
            [x for row in rows for x in row]
            for rows in zip(*(entry["coefficients"] for entry in entries))
        ],
    }
    if "signs" in entries[0]:
        merged["signs"] = [s for entry in entries for s in entry["signs"]]
    if mix is not None:
        block = parse_matrix(merged["coefficients"], "merged") @ mix
        merged["coefficients"] = matrix_to_json(block)
    payload["levels"][first : first + count] = [merged]


def test_verify_rejects_merged_euclidean_levels(tmp_path, capsys):
    # orthonormal, zeros intact, labels and id as a promotion would give
    # them: but a euclidean run never merges levels, and the first merged
    # vector mixes in the raw vectors of level 2
    problem = PROBLEM_DIR / "fourier_euclidean.json"
    out = tmp_path / "result.json"
    assert main(["run", str(problem), "--output", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text(encoding="utf-8"))
    mix, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(4, 4)))
    merge_entries(payload, 1, 2, mix)
    assert payload["levels"][1]["labels"] == ["+", "-", "+", "-"]
    write_json(out, payload)
    capsys.readouterr()
    assert main(["verify", str(problem), str(out)]) == EXIT_VERIFY
    text = capsys.readouterr().out
    residual = float(text.split("recomputed orthonormality residual:")[1].split()[0])
    assert residual <= 1e-12
    assert (
        "output levels: mismatch (levels[1] columns 1..4 merge input levels 1..2, "
        "which no run does)\nstructural grading zeros: ok\nverification: FAIL"
    ) in text


LABEL_CLASH = {
    "mode": "explicit",
    "metric": "pseudo",
    "explicit": {"levels": [["a"], ["a", "b"]], "gram": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]},
}


# case: (problem, first entry merged, entries merged, the mismatch)
PSEUDO_MERGES = {
    "non-singleton": ("fourier_pseudo.json", 1, 2, "columns 1..4 merge input levels 1..2"),
    "three-levels": ("fourier_pseudo.json", 0, 3, "columns 0..4 merge input levels 0..2"),
    "label-clash": (None, 0, 2, "columns 0..2 merge two input levels holding 'a'"),
    # the one merge a promotion makes, but level 0's vector is not isotropic
    "non-isotropic-singleton": (
        "fourier_pseudo.json", 0, 2,
        "columns 0..2 merge input level 0 into 1, but its vector is not isotropic",
    ),
}


@pytest.mark.parametrize("case", sorted(PSEUDO_MERGES))
def test_verify_rejects_merges_promotion_cannot_make(tmp_path, capsys, case):
    name, first, count, message = PSEUDO_MERGES[case]
    problem = tmp_path / "problem.json"
    if name is None:
        write_json(problem, LABEL_CLASH)
    else:
        problem.write_bytes((PROBLEM_DIR / name).read_bytes())
    out = tmp_path / "result.json"
    assert main(["run", str(problem), "--output", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text(encoding="utf-8"))
    merge_entries(payload, first, count)
    write_json(out, payload)
    capsys.readouterr()
    assert main(["verify", str(problem), str(out)]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert f"output levels: mismatch (levels[{first}] {message}" in captured.out
    assert "verification: FAIL" in captured.out
    assert captured.err == ""


def test_verify_rejects_a_block_with_missing_rows(tmp_path, capsys):
    problem = PROBLEM_DIR / "fourier_pseudo.json"
    out = tmp_path / "result.json"
    assert main(["run", str(problem), "--output", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text(encoding="utf-8"))
    del payload["levels"][0]["coefficients"][-1]
    write_json(out, payload)
    capsys.readouterr()
    assert main(["verify", str(problem), str(out)]) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: level entry 0 has 4 coefficient rows, expected 5"]


def test_verify_accepts_a_promotion_decided_on_the_projected_block(tmp_path, capsys):
    # 'b' is not isotropic, but b - a is: run promotes it into level 2,
    # and verify re-decides that from the problem and the finished level
    problem = tmp_path / "problem.json"
    gram = [[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, -1]]
    write_json(problem, {
        "mode": "explicit",
        "metric": "pseudo",
        "explicit": {"levels": [["a"], ["b"], ["c", "d"]], "gram": gram},
    })
    out = tmp_path / "result.json"
    assert main(["run", str(problem), "--output", str(out)]) == EXIT_OK
    assert "promoted 'b' from level 1 to level 2" in capsys.readouterr().out
    assert main(["verify", str(problem), str(out)]) == EXIT_OK
    assert "output levels: ok\nstructural grading zeros: ok\nverification: PASS" in (
        capsys.readouterr().out
    )


@pytest.mark.parametrize("name", ["fourier_pseudo.json", "monomial_euclidean.json"])
def test_verify_prints_the_condition_numbers_after_the_tolerance(tmp_path, capsys, name):
    problem = PROBLEM_DIR / name
    out = tmp_path / "result.json"
    assert main(["run", str(problem), "--output", str(out)]) == EXIT_OK
    conditions = [
        line for line in capsys.readouterr().out.splitlines()
        if "normalizer condition number" in line
    ]
    assert conditions
    assert main(["verify", str(problem), str(out)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("tolerance: "))
    assert lines[at + 1 : at + 1 + len(conditions)] == conditions
    assert lines[at + 1 + len(conditions)] == "output levels: ok"


@pytest.mark.parametrize("method", METHODS)
def test_run_and_verify_give_one_verdict(tmp_path, capsys, method):
    # run judges the table in memory, verify the blocks read back
    problem = PROBLEM_DIR / "monomial_euclidean.json"
    out = tmp_path / "result.json"
    assert main(["run", str(problem), "--output", str(out), "--method", method]) == EXIT_OK
    ran = capsys.readouterr().out
    assert main(["verify", str(problem), str(out)]) == EXIT_OK
    verified = capsys.readouterr().out
    for line in ("structural grading zeros: ", "verification: "):
        assert ran.split(line)[1].split("\n")[0] == verified.split(line)[1].split("\n")[0]
