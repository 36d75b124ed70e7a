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
    "obj",
    [
        # zero rows, pair rows, a pair-led row holding numbers, a number row with -0.0
        [[0, 0, 0], [[1.5, -0.0], [2, 3], [-0.0, 0.0]], [[4.0, 5.0], -0.0, 7], [-0.0, 2, 5e-324]],
        # a number-led row holding a pair
        [[0, 0], [0, [1.0, -2.0]], [[-0.0, 0.0], 0]],
    ],
    ids=["pair-led", "number-led"],
)
def test_bulk_parse_reads_rows_that_mix_numbers_and_pairs(obj):
    got = _bulk_matrix(obj, len(obj), None)
    assert got is not None
    assert same_bits(got, _walk_matrix(obj, "m", None, None))


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


def is_zero_row(row):
    return all(type(e) is int and e == 0 for e in row)


@pytest.mark.parametrize("method", ["graded", "gram-schmidt", "gram"])
def test_zero_rows_are_exactly_the_rows_above_each_level(tmp_path, method):
    problem = PROBLEM_DIR / "monomial_euclidean.json"
    out = tmp_path / "result.json"
    assert main(["run", str(problem), "--output", str(out), "--method", method]) == EXIT_OK
    index = parse_problem(problem).source.index
    level_ends = np.add(index.offsets, index.sizes).tolist()
    payload = json.loads(out.read_text(encoding="utf-8"))
    stop = 0
    for level in payload["levels"]:
        rows = level["coefficients"]
        stop += len(level["labels"])
        row_end = min(end for end in level_ends if end >= stop)
        zero_rows = [i for i, row in enumerate(rows) if is_zero_row(row)]
        assert zero_rows == ([] if method == "gram" else list(range(row_end, index.total)))
        for i, row in enumerate(rows):
            if i not in zero_rows:
                assert all(type(e) is list and len(e) == 2 for e in row)


def test_written_rows_are_distinct_lists():
    block = np.zeros((5, 3), dtype=np.complex128)
    block[1, 2] = 0.5j
    rows = matrix_to_json(block)
    assert [is_zero_row(row) for row in rows] == [True, False, True, True, True]
    assert len({id(row) for row in rows}) == len(rows)
    rows[0][1] = [1.0, 0.0]
    assert rows[2] == [0, 0, 0]
    problem = parse_problem(PROBLEM_DIR / "monomial_euclidean.json")
    table = orthonormalize_graded(problem.source, problem.degeneracy_tol)
    report = verify_table(problem.source, table, problem.verify_tol)
    payload = result_payload(problem, table, report, "graded")
    assert "input_levels" not in payload
    # seven singleton levels: level k has 6 - k zero rows
    for k, level in enumerate(payload["levels"]):
        rows = level["coefficients"]
        assert sum(map(is_zero_row, rows)) == 6 - k
        assert len({id(row) for row in rows}) == len(rows)


def test_negative_zero_rows_keep_pairs_and_sign_bits(tmp_path):
    block = np.zeros((4, 2), dtype=np.complex128)
    block[1] = complex(-0.0, 0.0)
    block[2, 1] = complex(0.0, -0.0)
    rows = matrix_to_json(block)
    assert rows[0] == [0, 0] and rows[3] == [0, 0]
    assert rows[1] == [[-0.0, 0.0], [-0.0, 0.0]]
    assert rows[2] == [[0.0, 0.0], [0.0, -0.0]]
    assert np.signbit([rows[1][0][0], rows[1][1][0], rows[2][1][1]]).all()
    out = tmp_path / "result.json"
    level = {"level": 0, "labels": ["u", "v"], "coefficients": rows}
    write_result(out, result_skeleton([level]))
    [got] = parse_result(out).blocks
    assert same_bits(got, block)


def pairs_layout(path, blocks):
    """The result at ``path`` re-encoded with every coefficient row as pairs."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    for level, block in zip(payload["levels"], blocks):
        level["coefficients"] = np.stack((block.real, block.imag), axis=-1).tolist()
    return payload


@pytest.mark.parametrize("problem", sorted(PROBLEM_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_zero_rows_and_pairs_read_and_verify_the_same(tmp_path, capsys, problem):
    zeros = tmp_path / "zeros.json"
    pairs = tmp_path / "pairs.json"
    assert main(["run", str(problem), "--output", str(zeros)]) == EXIT_OK
    blocks = parse_result(zeros).blocks
    write_result(pairs, pairs_layout(zeros, blocks))
    assert len(pairs.read_bytes()) >= len(zeros.read_bytes())
    for got, want in zip(parse_result(pairs).blocks, blocks, strict=True):
        assert same_bits(got, want)
    verdicts = []
    for path in (zeros, pairs):
        capsys.readouterr()
        code = main(["verify", str(problem), str(path)])
        verdicts.append((code, capsys.readouterr().out))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][0] == EXIT_OK
    assert "output levels: ok\nstructural grading zeros: ok\nverification: PASS" in verdicts[0][1]
