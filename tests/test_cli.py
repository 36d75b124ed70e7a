"""CLI subcommands: round trips, exit codes, determinism, schema rejection."""

import argparse
import ast
import copy
import gc
import importlib
import inspect
import json
import os
import re
import resource
import struct
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

from conftest import benchmark_problem

PROBLEM_DIR = Path(__file__).resolve().parent.parent / "problems"
EXEMPLARS = sorted(PROBLEM_DIR.glob("*.json"))
SRC = str(Path(__file__).resolve().parent.parent / "src")


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def run_python(*args, preexec_fn=None, **overrides):
    """A fresh interpreter on the repository's sources, with extra environment."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=preexec_fn,
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
    # every method run accepts for the problem's metric
    euclidean = parse_problem(problem).metric == "euclidean"
    for method in METHODS if euclidean else ["graded"]:
        out = tmp_path / f"{method}.json"
        assert main(["run", str(problem), "--output", str(out), "--method", method]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", str(problem), str(out)]) == EXIT_OK
        zeros = "violated" if method == "gram" else "ok"
        expected = f"structural grading zeros: {zeros}\nverification: PASS"
        assert expected in capsys.readouterr().out, method


@pytest.mark.parametrize(
    "problem", EXEMPLARS + ["monomial_wide_levels-101"], ids=lambda p: getattr(p, "stem", p)
)
def test_run_prints_the_verdict_block_of_verify(problem, tmp_path, capsys):
    # after `wrote`, run prints verify's block without the recorded
    # residual, then its promotions; verify reads a real problem's table
    # back as real, so the residual and condition numbers are run's bits
    if problem == "monomial_wide_levels-101":
        problem = tmp_path / "problem.json"
        write_json(problem, benchmark_problem("monomial_wide_levels", 101))
    euclidean = parse_problem(problem).metric == "euclidean"
    for method in METHODS if euclidean else ["graded"]:
        out = tmp_path / f"{method}.json"
        code = main(["run", str(problem), "--output", str(out), "--method", method])
        wrote, *lines = capsys.readouterr().out.splitlines()
        assert main(["verify", str(problem), str(out)]) == code
        verified = capsys.readouterr().out.splitlines()
        block = [line for line in verified if not line.startswith("residual recorded in")]
        assert wrote == f"wrote {out}"
        assert lines[: len(block)] == block, method
        assert all(line.startswith("promoted ") for line in lines[len(block) :])


def leaves(obj):
    """Keys and values of a JSON tree in document order, each float as its bits."""
    if type(obj) is dict:
        for key, value in obj.items():
            yield key
            yield from leaves(value)
    elif type(obj) is list:
        for value in obj:
            yield from leaves(value)
    elif type(obj) is float:
        yield float, struct.pack("<d", obj)
    else:
        yield type(obj), obj


@pytest.mark.parametrize("problem", EXEMPLARS, ids=lambda p: p.stem)
def test_written_result_is_one_compact_line_read_back_bit_identical(problem, tmp_path):
    parsed = parse_problem(problem)
    if parsed.metric == "pseudo":
        table = pseudo_orthonormalize_graded(parsed.source, parsed.degeneracy_tol)
    else:
        table = orthonormalize_graded(parsed.source, parsed.degeneracy_tol)
    report = verify_table(parsed.source, table, parsed.verify_tol)
    payload = result_payload(parsed, table, report, "graded")
    out = tmp_path / "result.json"
    write_result(out, payload)
    raw = out.read_bytes()
    # one line, and no whitespace outside the strings
    assert raw.endswith(b"\n")
    assert not re.search(rb"\s", re.sub(rb'"(?:[^"\\]|\\.)*"', b'""', raw[:-1]))
    # the standard library reads it back, every float to the same bits
    assert list(leaves(json.loads(raw))) == list(leaves(payload))


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
    assert result.recorded_residual == 0.0


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
    # the level entry states the promotion: "a" leads level 1's labels
    payload = json.loads(out.read_text())
    assert "promotions" not in payload
    first = payload["levels"][0]
    assert first["level"] == 1 and first["labels"][0] == "a"
    assert first["signs"] == [1, -1]
    code = main(["verify", str(problem), str(out)])
    verified = capsys.readouterr().out
    # a file that still lists its promotions, as earlier versions wrote
    # them, verifies the same
    report = payload.pop("report")
    payload["promotions"] = [{"from_level": 0, "label": "a", "to_level": 1}]
    payload["report"] = report
    listed = tmp_path / "listed.json"
    write_json(listed, payload)
    assert main(["verify", str(problem), str(listed)]) == code == EXIT_OK
    assert capsys.readouterr().out == verified


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
    capsys.readouterr()
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
        assert abs(residual - result.recorded_residual) <= 1e-12


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


def test_gram_schmidt_and_compare_hold_on_a_tiny_identity(tmp_path, capsys):
    # κ = 1 at scale 1e-11: a pivot band of tol * max(G_ii, 1) called the
    # first vector null, and both commands exited 3
    path = tmp_path / "tiny.json"
    write_json(path, {"mode": "explicit", "metric": "euclidean",
                      "explicit": {"levels": [["a"], ["b"]], "gram": [[1e-11, 0.0], [0.0, 1e-11]]}})
    out = tmp_path / "tiny.result.json"
    assert main(["run", str(path), "--output", str(out), "--method", "gram-schmidt"]) == EXIT_OK
    assert capsys.readouterr().out.rstrip().endswith("verification: PASS")
    assert main(["compare", str(path)]) == EXIT_OK
    assert "singleton levels: graded reduces to gram-schmidt -> HOLDS" in capsys.readouterr().out


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


# Files the strict reader rejects, each with the command that reads it
# and the line and column it must name: that of the bad token (None:
# any).  The file of a `verify` case is the result of the valid problem
# STRICT_READER_TEXT % "1.0"; every other file is a problem.  orjson's
# parse is the one range check on file input, so these cases are the
# only tests of a non-finite number in a file.
STRICT_READER_TEXT = (
    '{\n  "mode": "explicit",\n  "metric": "euclidean",\n'
    '  "explicit": {"levels": [["a"]], "gram": [[%s]]}\n}\n'
)
STRICT_RESULT_TEXT = (
    '{"tool":{"name":"gradedortho","version":"0.1.0"},"input_digest":{"algorithm":"sha256",'
    '"hex":"48b89a10075e32cae6ad7d95ddfb10878745f0abc9283185a6d00456eebbd98c"},'
    '"mode":"explicit","metric":"euclidean","method":"graded",'
    '"levels":[{"level":0,"labels":["a"],"coefficients":[[[NaN,0.0]]]}],'
    '"report":{"max_residual":0.0,"structural_ok":true,"condition_numbers":[[0,1.0]],"pass":true}}\n'
)
STRICT_READER_CASES = {
    "nan": ("run", (STRICT_READER_TEXT % "NaN").encode(), 4, 45),
    "infinity": ("run", (STRICT_READER_TEXT % "Infinity").encode(), 4, 45),
    "minus-infinity": ("run", (STRICT_READER_TEXT % "-Infinity").encode(), 4, 45),
    "past-float-range": ("run", (STRICT_READER_TEXT % "1e400").encode(), 4, 45),
    "integer-past-float-range": ("run", (STRICT_READER_TEXT % ("9" * 400)).encode(), 4, 45),
    "result-nan": (
        "verify", STRICT_RESULT_TEXT.encode(), 1, STRICT_RESULT_TEXT.index("NaN") + 1
    ),
    "byte-order-mark": ("run", b"\xef\xbb\xbf" + (STRICT_READER_TEXT % "1.0").encode(), 1, 1),
    "invalid-utf-8": (
        "run", (STRICT_READER_TEXT % "1.0").encode().replace(b'"a"', b'"\xff"'), None, None
    ),
}


@pytest.mark.parametrize("case", sorted(STRICT_READER_CASES))
def test_strict_reader_exits_2_with_location(tmp_path, capsys, case):
    command, raw, line, column = STRICT_READER_CASES[case]
    path = tmp_path / "strict.json"
    path.write_bytes(raw)
    args = [command, str(path)]
    if command == "verify":
        problem = tmp_path / "problem.json"
        problem.write_text(STRICT_READER_TEXT % "1.0", encoding="utf-8")
        # the same result with a number in place of NaN verifies
        valid = tmp_path / "valid.json"
        valid.write_text(STRICT_RESULT_TEXT.replace("NaN", "1.0"), encoding="utf-8")
        assert main([command, str(problem), str(valid)]) == EXIT_OK
        capsys.readouterr()
        args = [command, str(problem), str(path)]
    assert main(args) == EXIT_SCHEMA
    err = capsys.readouterr().err
    found = re.fullmatch(
        rf"error: {re.escape(str(path))}: invalid JSON at line (\d+), column (\d+)\n", err
    )
    assert found, err
    if line is not None:
        assert found.groups() == (str(line), str(column))


def test_non_finite_report_values_are_written_as_null(pair_problem, tmp_path, capsys):
    problem = parse_problem(pair_problem)
    table = orthonormalize_graded(problem.source, problem.degeneracy_tol)
    report = verify_table(problem.source, table, problem.verify_tol)
    report = report._replace(
        max_residual=float("nan"),
        condition_numbers=((0, float("inf")),) + report.condition_numbers[1:],
    )
    out = tmp_path / "result.json"
    write_result(out, result_payload(problem, table, report, "graded"))

    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    payload = json.loads(out.read_bytes(), parse_constant=reject)
    assert payload["report"]["max_residual"] is None
    assert payload["report"]["condition_numbers"][0] == [0, None]
    assert main(["verify", str(pair_problem), str(out)]) == EXIT_OK
    assert "residual recorded in result file" not in capsys.readouterr().out


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


def monomial(dimension, max_degree, box, **fields):
    block = {"dimension": dimension, "max_degree": max_degree, "box": box, **fields}
    return {"mode": "monomial", "metric": "euclidean", "monomial": block}


def test_a_degree_zero_monomial_problem_of_70_axes_runs(tmp_path, capsys):
    path = tmp_path / "wide.json"
    write_json(path, monomial(70, 0, [[0.0, 2.0]] * 70))
    out = tmp_path / "result.json"
    assert main(["run", str(path), "--output", str(out)]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out
    assert main(["verify", str(path), str(out)]) == EXIT_OK


def fourier(max_harmonic, samples):
    block = {"max_harmonic": max_harmonic, "weight": {"kind": "samples", "values": samples}}
    return {"mode": "fourier", "metric": "euclidean", "fourier": block}


def explicit(levels, gram):
    return {"mode": "explicit", "metric": "euclidean", "explicit": {"levels": levels, "gram": gram}}


# Valid JSON of the right types whose values no Gram source can be built
# from, or no level loop can go on with, each with the text of the
# ValueError that rejects it.
INVALID_VALUE_PROBLEMS = {
    "duplicate-label": (
        explicit([["a", "a"]], [[1.0, 0.0], [0.0, 1.0]]),
        "level 0 has duplicate labels",
    ),
    "explicit-not-hermitian": (
        explicit([["a", "b"]], [[1.0, 0.5], [0.0, 1.0]]),
        "matrix is not Hermitian: symmetrization moved an entry by 2.500e-01 "
        "(max magnitude 1.000e+00)",
    ),
    # 10% asymmetric: the bound scales with max|G|, with no floor at 1
    "explicit-tiny-not-hermitian": (
        explicit([["a", "b"]], [[1e-11, 1e-12], [0.0, 1e-11]]),
        "matrix is not Hermitian: symmetrization moved an entry by 5.000e-13 "
        "(max magnitude 1.000e-11)",
    ),
    # GradedIndex judges the levels and GramSource the shape of the gram
    "levels-empty": (explicit([], [[1.0]]), "a graded index needs at least one level"),
    "level-empty": (
        explicit([[], ["a"]], [[1.0]]),
        "level 0 is empty; index sets must be non-empty",
    ),
    "explicit-gram-rows": (
        explicit([["a", "b"]], [[1.0, 0.0]]),
        "Gram matrix shape (1, 2) does not match the 2 indexed elements",
    ),
    "explicit-gram-columns": (
        explicit([["a", "b"]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        "Gram matrix shape (2, 3) does not match the 2 indexed elements",
    ),
    "empty-box-interval": (monomial(1, 2, [[1.0, 0.0]]), "invalid box interval [1.0, 0.0]"),
    "negative-max-degree": (monomial(1, -1, [[0.0, 1.0]]), "max_degree must be non-negative"),
    "zero-dimension": (monomial(0, 2, []), "dimension must be at least 1"),
    "monomial-box-length": (
        monomial(2, 1, [[0.0, 1.0]]),
        "box has 1 intervals for dimension 2",
    ),
    "monomial-order-too-low": (
        monomial(1, 3, [[0.0, 1.0]], quadrature_order=2),
        "quadrature order 2 is below max_degree + 1 = 4; Gram entries would not be exact",
    ),
    "monomial-sample-count": (
        monomial(1, 1, [[0.0, 1.0]], weight={"kind": "samples", "values": [1.0, 1.0, 1.0]}),
        "weight sampled at 3 points but the tensor grid has 2 nodes",
    ),
    "monomial-gram-overflow": (
        monomial(1, 160, [[0.0, 100.0]]),
        "Gram matrix has non-finite entries",
    ),
    # hi - lo passes the float maximum, so the nodes hold inf and NaN
    "monomial-box-width-overflow": (
        monomial(1, 2, [[-1e308, 1e308]]),
        "Gram matrix has non-finite entries",
    ),
    "fourier-negative-harmonic": (fourier(-1, [1.0]), "max_harmonic must be non-negative"),
    # judged before the problem is sized, which for N = -1999999 would
    # read as too large for memory
    "fourier-huge-negative-harmonic": (
        fourier(-10**6, [1.0]),
        "max_harmonic must be non-negative",
    ),
    "fourier-too-few-samples": (
        fourier(2, [1.0, 1.0, 1.0]),
        "3 grid points cannot resolve harmonics up to 2; need at least 9",
    ),
    "fourier-nonpositive-sample": (
        fourier(1, [-1.0]),
        "weight samples must all be finite and positive",
    ),
    "fourier-empty-samples": (fourier(0, []), "weight samples must be a non-empty 1-d array"),
    "fourier-gram-overflow": (fourier(0, [1e308, 1e308]), "Gram matrix has non-finite entries"),
    # finite, but level 1's overlap with level 0's normalized vector is
    # 1e200 / 1e-150, so its projected block overflows
    "projection-overflow": (
        explicit([["a"], ["b"]], [[1e-300, 1e200], [1e200, 1e308]]),
        "level 1: projected Gram block is not finite",
    ),
}


@pytest.mark.parametrize("case", sorted(INVALID_VALUE_PROBLEMS))
def test_gram_overflow_prints_one_error_line(tmp_path, case):
    # every invalid value, not only an overflow, ends in one error line
    problem, _ = INVALID_VALUE_PROBLEMS[case]
    path = tmp_path / "invalid.json"
    write_json(path, problem)
    proc = run_python("-m", "gradedortho.cli", "run", str(path))
    assert proc.returncode == EXIT_SCHEMA
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"error: invalid '{problem['mode']}' problem: ")
    if case.endswith("gram-overflow"):
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
    assert "recomputed orthonormality residual: 0.000000e+00" in proc.stdout
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


def test_verify_of_a_coefficient_near_the_float_range_fails_without_a_warning(
    tmp_path, capsys
):
    problem = PROBLEM_DIR / "explicit_euclidean.json"
    out = tmp_path / "big.result.json"
    assert main(["run", str(problem), "--output", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text(encoding="utf-8"))
    row = payload["levels"][-1]["coefficients"][0]
    assert len(row[0]) == 2
    row[0] = [1e300, 0.0]
    write_json(out, payload)
    capsys.readouterr()
    assert main(["verify", str(problem), str(out)]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert "recomputed orthonormality residual: inf" in captured.out
    assert captured.out.rstrip().endswith("verification: FAIL")
    assert captured.err == ""


def cap_address_space():
    # 3 GiB holds the interpreter and numpy but no 100001 x 100001 array,
    # whatever the machine's memory and overcommit policy
    limit = 3 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_problem_too_large_for_memory_exits_2_with_one_line(tmp_path):
    path = tmp_path / "large.json"
    problem = {"max_harmonic": 50000, "weight": {"kind": "uniform"}}
    write_json(path, {"mode": "fourier", "metric": "euclidean", "fourier": problem})
    proc = run_python(
        "-m", "gradedortho.cli", "run", str(path),
        preexec_fn=cap_address_space, OPENBLAS_NUM_THREADS="1",
    )
    assert proc.returncode == EXIT_SCHEMA, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: the problem is too large for memory: ")
    assert not (tmp_path / "large.result.json").exists()


@pytest.mark.parametrize(
    "mode, block, array",
    [
        ("fourier", {"max_harmonic": 10**9, "weight": {"kind": "uniform"}}, "its N = "),
        ("monomial", {"dimension": 40, "max_degree": 40, "box": [[0.0, 1.0]] * 40}, "its N = "),
        # G is 3 x 3; the matrix behind the 1-D rule is what cannot be built
        (
            "monomial",
            {"dimension": 1, "max_degree": 2, "box": [[-1, 1]], "quadrature_order": 10**6},
            "the 1000000 x 1000000 matrix behind its 1-D quadrature rule ",
        ),
    ],
    ids=["fourier-block0", "monomial-block1", "monomial-block2"],
)
def test_sizes_no_machine_holds_exit_2_before_anything_is_built(tmp_path, mode, block, array):
    # refused in closed form; before, the Fourier run built 2 * 10^9
    # Python list entries and the monomial one enumerated exponents until
    # the address space ran out
    path = tmp_path / "huge.json"
    write_json(path, {"mode": mode, "metric": "euclidean", mode: block})
    proc = run_python(
        "-m", "gradedortho.cli", "run", str(path),
        preexec_fn=cap_address_space, OPENBLAS_NUM_THREADS="1",
    )
    assert proc.returncode == EXIT_SCHEMA, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"error: the problem is too large for memory: building {array}")
    assert proc.stdout == ""


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


def test_cli_import_loads_no_json_codec():
    # Each file operation imports its codec itself, so the import of the
    # CLI (the start-up cost of every process) does not pay for one; nor
    # for numpy.fft or numpy.polynomial (1-5 ms each to import), which
    # only the Fourier and monomial builders use.
    modules = ("json", "orjson", "numpy.fft", "numpy.polynomial")
    code = (
        "import sys, gradedortho.cli\n"
        f"print(sorted(m for m in {modules} if m in sys.modules))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


COMPARE_WITHOUT_SCIPY = """
import runpy, sys
sys.argv = ["gradedortho.cli", "compare", sys.argv[1]]
try:
    runpy.run_module("gradedortho.cli", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    code = stop.code
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
sys.exit(code)
"""


def test_compare_imports_no_scipy():
    # scipy is no dependency, and importing scipy.linalg alone costs
    # about 0.35 s, more than the whole of compare on a small problem.
    problem = PROBLEM_DIR / "monomial_euclidean.json"
    proc = run_python("-c", COMPARE_WITHOUT_SCIPY, str(problem))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_every_module_parses_as_the_oldest_supported_python():
    # the CI runs 3.10 and 3.11
    pyproject = (Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=3.10"' in pyproject
    paths = sorted((Path(SRC) / "gradedortho").glob("*.py"))
    assert len(paths) >= 9
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_package_imports_only_declared_dependencies():
    # scipy, mpmath and hypothesis are installed for the tests, so a
    # package import of one of them would pass every other test
    tomllib = pytest.importorskip("tomllib")
    root = Path(SRC).parent
    with open(root / "pyproject.toml", "rb") as f:
        dependencies = tomllib.load(f)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in dependencies}
    imported = set()
    for path in sorted((Path(SRC) / "gradedortho").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names)
    assert {"numpy", "orjson"} <= third_party  # the walk sees the package's imports
    assert third_party <= declared, f"undeclared imports: {sorted(third_party - declared)}"


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("case", sorted(INVALID_VALUE_PROBLEMS))
def test_invalid_values_exit_2(tmp_path, capsys, case, command):
    problem, message = INVALID_VALUE_PROBLEMS[case]
    path = tmp_path / "invalid.json"
    write_json(path, problem)
    assert main([command, str(path)]) == EXIT_SCHEMA
    assert capsys.readouterr().err == f"error: invalid '{problem['mode']}' problem: {message}\n"
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
    assert proc.stderr == (
        "error: invalid 'explicit' problem: promoting isotropic 'x' from level 0 into "
        "level 1 would repeat the label 'x' in one output level\n"
    )
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
    table = orthonormalize_graded(gradedortho.GramSource(index, np.eye(1)))
    unknown = {
        name for name in documented
        if name not in gradedortho.__all__ and not hasattr(table, name)
    }
    assert not unknown


def test_public_names_are_in_readme():
    # the reverse of the test above: a public name README never names is
    # one only tests use
    readme = (PROBLEM_DIR.parent / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"`([A-Za-z_]\w*)", readme))
    named |= set(re.findall(r"\bgo\.(\w+)", readme))
    missing = set(gradedortho.__all__) - named - {"__version__"}
    assert not missing


def test_readme_library_examples_run():
    readme = (PROBLEM_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n")[1].split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks
    namespace = {}
    for number, block in enumerate(blocks):
        exec(compile(block, f"README.md (Library use, block {number})", "exec"), namespace)
    assert namespace["report"].passed


# perfbench/layers.py reads its per-layer metrics from the spans of these
# functions, and perfbench/spans.py wraps only the module-level functions
# whose names have no leading underscore: a rename blanks a metric.
BENCHMARK_TIMED = {
    "fileio": ("parse_problem", "parse_result", "result_payload", "write_result"),
    "ortho": (
        "orthonormalize_graded",
        "verify_table",
        "gram_schmidt_reference",
        "gram_method_reference",
    ),
    "pseudo": ("pseudo_orthonormalize_graded",),
    "spectral": ("eigh",),
}


@pytest.mark.parametrize("module_name", sorted(BENCHMARK_TIMED))
def test_benchmark_timed_functions_keep_their_names(module_name):
    module = importlib.import_module(f"gradedortho.{module_name}")
    for name in BENCHMARK_TIMED[module_name]:
        function = getattr(module, name, None)
        assert inspect.isfunction(function), name
        assert function.__module__ == module.__name__, name


def test_benchmark_negative_check_exits_0(tmp_path):
    # perfbench/negative_check.py runs the CLI on a benchmark workload and
    # reads its result files with the benchmark's checker; it works under
    # its working directory, so it gets one with the sources linked in.
    (tmp_path / "src").symlink_to(SRC)
    script = Path(SRC).parent / "perfbench" / "negative_check.py"
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_traced_run_finishes_correct(tmp_path):
    # perfbench/run.py --trace 1 runs the workload's run and verify through
    # cli.main with every public function of fileio, gram, ortho, pseudo and
    # spectral wrapped in spans, verify_result among them; one short run
    # must check every result it makes.  It reads its metric names from
    # BENCHMARK.json in its working directory.
    root = Path(SRC).parent
    (tmp_path / "src").symlink_to(SRC)
    (tmp_path / "BENCHMARK.json").symlink_to(root / "BENCHMARK.json")
    script = root / "perfbench" / "run.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", "monomial_wide_levels",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last


def test_benchmark_traced_modules_import():
    # perfbench/spans.py imports gradedortho.<name> for each name in its
    # NAMESPACES when it installs the tracer: a deleted or renamed module
    # would crash `perfbench/run.py --trace 1`, and fails here first.
    tree = ast.parse((Path(SRC).parent / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    assigned = {
        node.targets[0].id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }

    def value(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return value(node.left) + value(node.right)
        if isinstance(node, ast.Name):
            return value(assigned[node.id])
        return ast.literal_eval(node)

    names = value(assigned["NAMESPACES"])
    assert {"cli", "gram", "spectral"} <= set(names)
    for name in names:
        importlib.import_module(f"gradedortho.{name}")


def test_every_package_error_carries_a_level():
    # library callers read err.level; the message names the level itself
    for cls in (
        gradedortho.DegenerateMetric,
        gradedortho.LinearlyDependentInput,
        gradedortho.NoConvergence,
        gradedortho.SchemaError,
        gradedortho.TerminalIsotropicVector,
    ):
        assert cls("message").level is None
        assert cls("message", level=2).level == 2
        assert str(cls("message", level=2)) == "message"


def test_error_types_are_documented_or_mapped():
    # an exception class that neither README names nor the CLI maps to
    # an exit code is one only tests can tell apart
    readme = (PROBLEM_DIR.parent / "README.md").read_text(encoding="utf-8")
    cli_source = (Path(SRC) / "gradedortho" / "cli.py").read_text(encoding="utf-8")
    classes = [
        name for name, obj in vars(gradedortho.errors).items()
        if isinstance(obj, type) and obj.__module__ == gradedortho.errors.__name__
    ]
    assert classes
    unused = [
        name for name in classes
        if not re.search(rf"\b{name}\b", readme) and not re.search(rf"\b{name}\b", cli_source)
    ]
    assert not unused


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
    ran = json.loads(out.read_text(encoding="utf-8"))
    # one short entry, and every entry short, which stack into one N-1 x N
    # matrix: the rows of each entry are checked before they are stacked
    for short in ([0], range(len(ran["levels"]))):
        payload = copy.deepcopy(ran)
        for pos in short:
            del payload["levels"][pos]["coefficients"][-1]
        write_json(out, payload)
        capsys.readouterr()
        assert main(["verify", str(problem), str(out)]) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: level entry 0 has 4 coefficient rows, expected 5"
        ]


def relabel_metric(problem, tmp_path):
    """A result of ``problem`` that claims the other metric, with the digest
    of ``problem``: a pseudo problem's Gram-method result, computed as if
    the problem were euclidean, or a euclidean problem's graded result
    marked pseudo with every sign +1."""
    payload = json.loads(problem.read_text(encoding="utf-8"))
    pseudo = payload["metric"] == "pseudo"
    out = tmp_path / "result.json"
    if pseudo:
        payload["metric"] = "euclidean"
        write_json(tmp_path / "euclidean.json", payload)
        argv = [str(tmp_path / "euclidean.json"), "--method", "gram"]
    else:
        argv = [str(problem)]
    assert main(["run", *argv, "--output", str(out)]) in (EXIT_OK, EXIT_VERIFY)
    result = json.loads(out.read_text(encoding="utf-8"))
    result["input_digest"]["hex"] = parse_problem(problem).digest_hex
    if not pseudo:
        result["metric"] = "pseudo"
        for level in result["levels"]:
            level["signs"] = [1] * len(level["labels"])
    write_json(out, result)
    return out


@pytest.mark.parametrize(
    "name, metric",
    [("monomial_pseudo.json", "euclidean"), ("monomial_euclidean.json", "pseudo")],
)
def test_verify_rejects_a_result_of_the_other_metric(tmp_path, capsys, name, metric):
    problem = PROBLEM_DIR / name
    out = relabel_metric(problem, tmp_path)
    assert parse_problem(problem).metric != metric
    capsys.readouterr()
    assert main(["verify", str(problem), str(out)]) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    other = parse_problem(problem).metric
    assert captured.err.splitlines() == [
        f"error: result file has metric '{metric}' but the problem has metric '{other}'"
    ]


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


# case: (metric, levels, gram, method, the one stderr line of `run`)
# The conditioning a failing Euclidean method names when λmin <= eps·λmax.
CONDITION_ABOVE_1_OVER_EPS = "; G has condition number > 1/eps (smallest eigenvalue <= eps * largest)"
INDEFINITE_ONE_THIRD = "; G is indefinite (smallest/largest eigenvalue -3.333e-01)"

METHOD_ERROR_LINES = {
    "graded-dependent": (
        "euclidean", [["a", "b"]], [[1.0, 0.0], [0.0, 1e-11]], "graded",
        "LinearlyDependentInput: level 0: projected Gram block is numerically singular "
        "(smallest eigenvalue 1.000000e-11, the band +/-1.000000e-10 (degeneracy_tol * "
        "max|G_kk|)); the input vectors are not linearly independent; "
        "G has condition number 1.000e+11",
    ),
    "graded-null-level": (
        "euclidean", [["a"], ["b"]], [[1.0, 1.0], [1.0, 1.0]], "graded",
        "LinearlyDependentInput: level 1: projected Gram block is numerically singular "
        "(smallest eigenvalue 0.000000e+00, the band +/-1.000000e-10 (degeneracy_tol * "
        "max|G_kk|)); the input vectors are not linearly independent"
        + CONDITION_ABOVE_1_OVER_EPS,
    ),
    "gram-indefinite": (
        "euclidean", [["a"], ["b"]], [[1.0, 2.0], [2.0, 1.0]], "gram",
        "DegenerateMetric: full Gram matrix is not positive semidefinite (smallest "
        "eigenvalue -1.000000e+00, the band +/-3.000000e-10 (degeneracy_tol * "
        "max|eigenvalue|)); the metric is not positive definite" + INDEFINITE_ONE_THIRD,
    ),
    "gram-negative-definite": (
        "euclidean", [["a", "b"]], [[-1.0, 0.0], [0.0, -2.0]], "gram",
        "DegenerateMetric: full Gram matrix is not positive semidefinite (smallest "
        "eigenvalue -2.000000e+00, the band +/-2.000000e-10 (degeneracy_tol * max|G|)); "
        "the metric is not positive definite; G is negative semidefinite "
        "(largest eigenvalue <= eps * |smallest|)",
    ),
    "graded-tiny-indefinite": (
        # the band is relative to max|G_kk| = 1e-11: the same verdict as on diag(1, -1)
        "euclidean", [["a", "b"]], [[1e-11, 0.0], [0.0, -1e-11]], "graded",
        "DegenerateMetric: level 0: projected Gram block is not positive semidefinite "
        "(smallest eigenvalue -1.000000e-11, the band +/-1.000000e-21 (degeneracy_tol * "
        "max|G_kk|)); the metric is not positive definite; G is indefinite "
        "(smallest/largest eigenvalue -1.000e+00)",
    ),
    "gram-schmidt-null": (
        "euclidean", [["a"], ["b"]], [[1.0, 1.0], [1.0, 1.0]], "gram-schmidt",
        "LinearlyDependentInput: level 1: the Gram-Schmidt pivot of vector 1 is "
        "numerically singular (reduced squared norm 0.000000e+00, the band "
        "+/-1.000000e-10 (degeneracy_tol * |G_ii|), within (i+1)*eps*max_(j<=i) G_jj = "
        "4.441e-16, the rounding the factorization can leave there); the input vectors "
        "are not linearly independent" + CONDITION_ABOVE_1_OVER_EPS,
    ),
    "gram-schmidt-negative": (
        "euclidean", [["a"], ["b"]], [[1.0, 2.0], [2.0, 1.0]], "gram-schmidt",
        "DegenerateMetric: level 1: the Gram-Schmidt pivot of vector 1 is not positive "
        "semidefinite (reduced squared norm -3.000000e+00, the band +/-1.000000e-10 "
        "(degeneracy_tol * |G_ii|)); the metric is not positive definite"
        + INDEFINITE_ONE_THIRD,
    ),
    "signed-degenerate": (
        "pseudo", [["a", "b"]], [[1.0, 0.0], [0.0, -1e-11]], "graded",
        "DegenerateMetric: level 0: projected Gram block is degenerate (smallest "
        "|eigenvalue| 1.000000e-11, the band +/-1.000000e-10 (degeneracy_tol * "
        "max|G_kk|)); the metric violates the nondegeneracy hypothesis",
    ),
    "terminal-isotropic": (
        "pseudo", [["b"], ["a"]], [[2.0, 1.0], [1.0, 0.0]], "graded",
        "TerminalIsotropicVector: level 1: lone isotropic vector 'a' has no following "
        "level to join",
    ),
}


@pytest.mark.parametrize("case", sorted(METHOD_ERROR_LINES))
def test_method_error_line_names_the_level_once_and_the_margin(tmp_path, capsys, case):
    metric, levels, gram, method, line = METHOD_ERROR_LINES[case]
    path = tmp_path / "failing.json"
    write_json(path, {"mode": "explicit", "metric": metric,
                      "explicit": {"levels": levels, "gram": gram}})
    assert main(["run", str(path), "--method", method]) == EXIT_MATH
    err = capsys.readouterr().err
    assert err == f"error: {line}\n"
    assert len(re.findall(r"\blevel \d", err)) == (0 if "full Gram" in err else 1)


def test_run_refuses_the_monomial_table_gram_schmidt_refuses(tmp_path, capsys):
    # degree 20 on [-1, 1]: level 20's reduced squared norm is within the
    # band tol * G_ii Gram-Schmidt refuses, and the graded loop, whose
    # singleton levels are Gram-Schmidt, refuses it too rather than write
    # a table that FAILs
    path = tmp_path / "problem.json"
    write_json(path, monomial(1, 20, [[-1.0, 1.0]]))
    assert main(["run", str(path)]) == EXIT_MATH
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"error: LinearlyDependentInput: level 20: projected Gram block is numerically "
        r"singular \(smallest eigenvalue \S+, the band \+/-\S+ \(degeneracy_tol \* "
        r"max\|G_kk\|\)\); the input vectors are not linearly independent; "
        r"G has condition number \S+\n",
        err,
    )
    assert len(re.findall(r"\blevel \d", err)) == 1
    assert not (tmp_path / "problem.result.json").exists()


def problem_with(**blocks):
    """The explicit Euclidean pair problem, with top-level keys replaced."""
    payload = explicit([["a"], ["b"]], [[1.0, 0.5], [0.5, 1.0]])
    payload.update(blocks)
    return payload


# Problem files of the right JSON syntax that `run` refuses before any
# arithmetic: case -> (file contents, the text after "error: ").
SCHEMA_EXIT_PROBLEMS = {
    "weight-kind": (
        {"mode": "fourier", "metric": "euclidean",
         "fourier": {"max_harmonic": 1, "weight": {"kind": "gaussian"}}},
        "field 'fourier.weight.kind' must be 'uniform' or 'samples'",
    ),
    "box-interval-length": (
        monomial(2, 1, [[0.0, 1.0], [0.0]]),
        "interval 'monomial.box[1]' must be [lo, hi]",
    ),
    "box-interval-number": (
        monomial(1, 1, [0.5]),
        "interval 'monomial.box[0]' must be [lo, hi]",
    ),
    "quadrature-order-float": (
        monomial(1, 2, [[0.0, 1.0]], quadrature_order=3.0),
        "field 'monomial.quadrature_order' has the wrong type",
    ),
    "quadrature-order-bool": (
        monomial(1, 2, [[0.0, 1.0]], quadrature_order=True),
        "field 'monomial.quadrature_order' has the wrong type",
    ),
    # an optional key is absent or of its type: null is neither
    "quadrature-order-null": (
        monomial(1, 2, [[0.0, 1.0]], quadrature_order=None),
        "field 'monomial.quadrature_order' has the wrong type",
    ),
    "top-level-array": ([problem_with()], "{path}: top level must be a JSON object"),
    "degeneracy-tol-string": (
        problem_with(tolerances={"degeneracy_tol": "1e-10"}),
        "field 'tolerances.degeneracy_tol' must be a number",
    ),
    "degeneracy-tol-zero": (
        problem_with(tolerances={"degeneracy_tol": 0.0}), "tolerances must be positive"
    ),
    "verify-tol-negative": (
        problem_with(tolerances={"verify_tol": -1e-9}), "tolerances must be positive"
    ),
    "level-string": (
        explicit(["a"], [[1.0]]),
        "level 'explicit.levels[0]' must be an array of labels",
    ),
    "label-number": (
        explicit([["a"], ["b", 2]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        "labels in 'explicit.levels[1]' must be strings",
    ),
}


@pytest.mark.parametrize("case", sorted(SCHEMA_EXIT_PROBLEMS))
def test_run_names_the_schema_fault_of_a_problem(tmp_path, capsys, case):
    payload, message = SCHEMA_EXIT_PROBLEMS[case]
    path = tmp_path / "problem.json"
    write_json(path, payload)
    assert main(["run", str(path)]) == EXIT_SCHEMA
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
    assert not (tmp_path / "problem.result.json").exists()


def test_problem_degeneracy_tol_is_the_one_run_judges_with(tmp_path, capsys):
    # eigenvalues 1 and 0.5: independent by default, dependent under 0.6
    path = tmp_path / "problem.json"
    write_json(path, explicit([["a", "b"]], [[1.0, 0.0], [0.0, 0.5]]))
    assert main(["run", str(path), "--output", str(tmp_path / "out.json")]) == EXIT_OK
    write_json(path, {**explicit([["a", "b"]], [[1.0, 0.0], [0.0, 0.5]]),
                      "tolerances": {"degeneracy_tol": 0.6}})
    assert parse_problem(path).degeneracy_tol == 0.6
    capsys.readouterr()
    assert main(["run", str(path), "--output", str(tmp_path / "out.json")]) == EXIT_MATH
    assert capsys.readouterr().err == (
        "error: LinearlyDependentInput: level 0: projected Gram block is numerically "
        "singular (smallest eigenvalue 5.000000e-01, the band +/-6.000000e-01 "
        "(degeneracy_tol * max|G_kk|)); the input vectors are not linearly independent; "
        "G has condition number 2.000e+00\n"
    )


# Edits of a fourier_pseudo result (levels of 1, 2 and 2 columns) that
# `verify` refuses: case -> (edit of the payload, the text after "error: ").
SCHEMA_EXIT_RESULTS = {
    "no-levels": (lambda payload: payload["levels"].clear(), "result has no levels"),
    "missing-level": (
        lambda payload: payload["levels"].pop(),
        "result provides 3 output vectors for 5 inputs",
    ),
}


@pytest.mark.parametrize("case", sorted(SCHEMA_EXIT_RESULTS))
def test_verify_names_the_schema_fault_of_a_result(tmp_path, capsys, case):
    edit, message = SCHEMA_EXIT_RESULTS[case]
    problem = PROBLEM_DIR / "fourier_pseudo.json"
    out = tmp_path / "result.json"
    assert main(["run", str(problem), "--output", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text(encoding="utf-8"))
    edit(payload)
    write_json(out, payload)
    capsys.readouterr()
    assert main(["verify", str(problem), str(out)]) == EXIT_SCHEMA
    assert capsys.readouterr().err == f"error: {message}\n"


def test_pyproject_version_is_the_package_version():
    # both are kept by hand; the result files carry the package's
    text = (PROBLEM_DIR.parent / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("\n[project]\n")[1].split("\n[")[0]
    [version] = re.findall(r'^version = "([^"]+)"$', project, flags=re.M)
    assert version == gradedortho.__version__
