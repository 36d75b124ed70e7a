"""Result and matrix I/O: compact text, bulk parsing, bit-exact round trips."""

import json
from pathlib import Path

import numpy as np
import pytest

from gradedortho.cli import EXIT_OK, main
from gradedortho.errors import SchemaError
from gradedortho.fileio import (
    _bulk_matrix,
    _walk_matrix,
    matrix_to_json,
    parse_matrix,
    parse_problem,
    parse_result,
    result_payload,
    write_result,
)
from gradedortho.ortho import orthonormalize_graded, verify_table
from gradedortho.pseudo import pseudo_orthonormalize_graded

ROOT = Path(__file__).resolve().parent.parent
PROBLEM_DIR = ROOT / "problems"
DATA_DIR = Path(__file__).resolve().parent / "data"

# Values whose bits a lossy encoder or parser would change.
AWKWARD = [-0.0, 5e-324, -2.2250738585072014e-308, 1.1e-310, 1e308, -1e308,
           0.1, 1 / 3, -2.5e-17]


def bits(a):
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.int64)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(bits(a), bits(b))


def result_skeleton(levels, metric="euclidean"):
    return {
        "input_digest": {"algorithm": "sha256", "hex": "0" * 64},
        "metric": metric,
        "method": "graded",
        "tolerances": {"degeneracy_tol": 1e-10, "verify_tol": 1e-9},
        "levels": levels,
        "report": {"max_residual": 0.0, "pass": True},
    }


def test_write_result_writes_compact_text(tmp_path):
    payload = {
        "levels": [{"labels": ["x²", "φ"], "coefficients": [[[0.1, -2.5e-17]]]}],
        "report": {"max_residual": 1.25e-16, "pass": True},
    }
    out = tmp_path / "result.json"
    write_result(out, payload)
    expected = (
        '{"levels":[{"labels":["x²","φ"],"coefficients":[[[0.1,-2.5e-17]]]}],'
        '"report":{"max_residual":1.25e-16,"pass":true}}\n'
    )
    assert out.read_bytes() == expected.encode("utf-8")


def test_random_blocks_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(2024)
    n = 12
    blocks = []
    for width in (3, 1, 5, 3):
        block = (rng.normal(size=(n, width)) + 1j * rng.normal(size=(n, width))) * 10.0 ** (
            rng.integers(-300, 300, size=(n, width))
        )
        blocks.append(block)
    special = np.array(AWKWARD)
    blocks[0].real.flat[: special.size] = special
    blocks[0].imag.flat[: special.size] = special[::-1]
    blocks[1][:4, 0] = [complex(0.0, -0.0), complex(-0.0, 0.0), 7.0, -3.0]
    levels = []
    for k, block in enumerate(blocks):
        coefficients = matrix_to_json(block)
        if k == 1:
            # integers written as plain numbers and inside pairs
            coefficients[2][0] = 7
            coefficients[3][0] = [-3, 0]
        levels.append({
            "level": k,
            "labels": [f"v{k}.{i}" for i in range(block.shape[1])],
            "coefficients": coefficients,
            "signs": [1 if i % 2 else -1 for i in range(block.shape[1])],
        })
    out = tmp_path / "result.json"
    write_result(out, result_skeleton(levels, metric="pseudo"))
    result = parse_result(out)
    assert len(result.blocks) == len(blocks)
    for got, want in zip(result.blocks, blocks):
        assert same_bits(got, want)
    assert [s.tolist() for s in result.signs] == [lv["signs"] for lv in levels]


@pytest.mark.parametrize("name", ["fourier_pseudo", "explicit_euclidean", "monomial_euclidean"])
def test_pipeline_coefficients_read_back_bit_identical(tmp_path, name):
    problem = parse_problem(PROBLEM_DIR / f"{name}.json")
    run = pseudo_orthonormalize_graded if problem.metric == "pseudo" else orthonormalize_graded
    table = run(problem.source, problem.degeneracy_tol)
    report = verify_table(problem.source, table, problem.verify_tol)
    out = tmp_path / "result.json"
    write_result(out, result_payload(problem, table, report, "graded"))
    result = parse_result(out)
    for got, want in zip(result.blocks, table.blocks):
        assert same_bits(got, want)
    payload = json.loads(out.read_text(encoding="utf-8"))
    for level in payload["levels"]:
        assert "normalizer" not in level and "mixing" not in level


def test_bulk_parse_accepts_mixed_numbers_and_pairs():
    obj = [[1, [2.5, -0.0], -0.0], [[3, 4], 5.5, [0.0, 1e308]]]
    got = parse_matrix(obj, "m", rows=2, cols=3)
    want = np.array([
        [complex(1, 0), complex(2.5, -0.0), complex(-0.0, 0)],
        [complex(3, 4), complex(5.5, 0), complex(0, 1e308)],
    ])
    assert same_bits(got, want)
    assert same_bits(got, _walk_matrix(obj, "m", 2, 3))
    assert same_bits(_bulk_matrix(obj, 2, 3), got)
    plain = [[1, 2.0], [-0.0, 5e-324]]
    assert same_bits(_bulk_matrix(plain, None, None), _walk_matrix(plain, "m", None, None))


@pytest.mark.parametrize(
    "text,rows,cols,message",
    [
        ("[[1.0, true]]", None, None, "entry at 'm[0][1]' must be a number or an [re, im] pair"),
        ("[[[true, 0.0]]]", None, None, "field 'm[0][0]' must be a number"),
        ('[[1.0, "2.0"]]', None, None, "entry at 'm[0][1]' must be a number or an [re, im] pair"),
        ('[[[1.0, "0"]]]', None, None, "field 'm[0][0]' must be a number"),
        ("[[1.0], [NaN]]", None, None, "field 'm[1][0]' must be finite"),
        ("[[[1.0, Infinity]]]", None, None, "field 'm[0][0]' must be finite"),
        ("[[[-Infinity, 0]]]", None, None, "field 'm[0][0]' must be finite"),
        ("[[1e400]]", None, None, "field 'm[0][0]' must be finite"),
        ("[[1.0, 2.0], [3.0]]", None, None, "row 'm[1]' has inconsistent length"),
        ("[[1.0], [2.0]]", 3, None, "field 'm' must have 3 rows"),
        ("[[1.0, 2.0]]", None, 3, "field 'm' must have 3 columns"),
        ("[[[1.0, 2.0, 3.0]]]", None, None, "entry at 'm[0][0]' must be a number or an [re, im] pair"),
        ("[[[1.0]]]", None, None, "entry at 'm[0][0]' must be a number or an [re, im] pair"),
        ("[[1.0], 2.0]", None, None, "row 'm[1]' must be a non-empty array"),
        ("[[]]", None, None, "row 'm[0]' must be a non-empty array"),
        ("[]", None, None, "field 'm' must be a non-empty matrix"),
        ('[[1.0, "x"], [NaN, 2.0]]', None, None, "entry at 'm[0][1]' must be a number or an [re, im] pair"),
    ],
)
def test_bulk_parse_rejects_with_the_entry_message(text, rows, cols, message):
    obj = json.loads(text)
    with pytest.raises(SchemaError) as caught:
        parse_matrix(obj, "m", rows, cols)
    assert str(caught.value) == message


def test_huge_integer_entry_is_not_finite():
    with pytest.raises(SchemaError, match="must be finite"):
        parse_matrix([[10**400]], "m")


@pytest.mark.parametrize("name", ["explicit_euclidean", "fourier_pseudo"])
def test_indented_result_with_normalizer_and_mixing_still_verifies(name, capsys):
    old = DATA_DIR / f"{name}.indented.json"
    payload = json.loads(old.read_text(encoding="utf-8"))
    assert any("mixing" in level for level in payload["levels"])
    assert all("normalizer" in level for level in payload["levels"])
    assert main(["verify", str(PROBLEM_DIR / f"{name}.json"), str(old)]) == EXIT_OK
    assert "verification: PASS" in capsys.readouterr().out
