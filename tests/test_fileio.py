"""Result and matrix I/O: compact text, the one matrix reader, bit-exact round trips."""

import json
import random
from pathlib import Path

import numpy as np
import pytest

from gradedortho import fileio
from gradedortho.cli import EXIT_OK, _run_method, main
from gradedortho.errors import SchemaError
from gradedortho.fileio import (
    matrix_to_json,
    parse_matrix,
    parse_problem,
    parse_result,
    result_payload,
    verify_result,
    write_result,
)
from gradedortho.ortho import orthonormalize_graded, verify_table
from gradedortho.pseudo import pseudo_orthonormalize_graded
from oracles import matrix_by_entries

ROOT = Path(__file__).resolve().parent.parent
PROBLEM_DIR = ROOT / "problems"
DATA_DIR = Path(__file__).resolve().parent / "data"

# Values whose bits a lossy encoder or parser would change: signed zero,
# the subnormal and normal extremes, and the range [1e-5, 1e-4), which
# the shortest spelling writes positionally (0.00001).
AWKWARD = [-0.0, 5e-324, -2.2250738585072014e-308, 2.2250738585072014e-308,
           1.1e-310, 1e308, -1e308, 1.7976931348623157e308,
           -1.7976931348623157e308, 0.1, 1 / 3, -2.5e-17, 1e-5, -1.5e-5,
           9.999999999999999e-05, 3.0000000000000004e-05]


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
    flip = rng.choice([-1.0, 1.0], size=blocks[2].shape)
    blocks[2] = flip * rng.uniform(1e-5, 1e-4, size=blocks[2].shape) + 1j * rng.uniform(
        1e-5, 1e-4, size=blocks[2].shape
    )
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


def test_parse_matrix_accepts_mixed_numbers_and_pairs():
    obj = [[1, [2.5, -0.0], -0.0], [[3, 4], 5.5, [0.0, 1e308]]]
    got = parse_matrix(obj, "m")
    want = np.array([
        [complex(1, 0), complex(2.5, -0.0), complex(-0.0, 0)],
        [complex(3, 4), complex(5.5, 0), complex(0, 1e308)],
    ])
    assert same_bits(got, want)
    assert same_bits(got, matrix_by_entries(obj, "m"))
    plain = [[1, 2.0], [-0.0, 5e-324]]
    got = parse_matrix(plain, "m")
    assert same_bits(got, np.array([[1, 2], [complex(-0.0, 0), 5e-324]]))
    assert same_bits(got, matrix_by_entries(plain, "m"))


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
def test_parse_matrix_reads_rows_that_mix_numbers_and_pairs(obj):
    got = parse_matrix(obj, "m")
    assert same_bits(got, matrix_by_entries(obj, "m"))
    want = [[complex(*e) if type(e) is list else complex(e, 0.0) for e in row] for row in obj]
    assert same_bits(got, np.array(want))


# Entries and rows that no matrix may hold, or that sit at the edge of
# the float range: integers that round to the float maximum, signed
# zeros.  A value orjson cannot decode (NaN, an infinity, a literal past
# the float range) never reaches the reader.
EDGE_ENTRIES = [
    True, None, "1", {}, [], [1], [1, 2, 3], [True, 0], [0, None], [[1, 2], 0],
    2**1024 - 2**971, -(2**1024 - 2**971),
    2**64 + 1, 2**70 + 12345, -0.0, [-0.0, -0.0], 5e-324,
]


def test_one_conversion_agrees_with_the_entry_reader_on_edited_matrices():
    # Random matrices with random faults: every outcome, an array or an
    # error, is the entry reader's, so no refused matrix goes unnamed.
    rng = random.Random(26)
    refused = 0
    for _ in range(3000):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        obj = [
            [rng.choice([rng.uniform(-5, 5), rng.randint(-3, 3), [rng.uniform(-1, 1), -0.0]])
             for _ in range(m)]
            for _ in range(n)
        ]
        for _ in range(rng.randint(0, 3)):
            row = obj[rng.randrange(n)]
            kind = rng.random()
            if kind < 0.7 and type(row) is list and row:
                row[rng.randrange(len(row))] = rng.choice(EDGE_ENTRIES)
            elif kind < 0.8 and type(row) is list and row:
                row.pop()
            elif kind < 0.9 and type(row) is list:
                row.append(1.0)
            else:
                obj[rng.randrange(n)] = rng.choice([1.0, None, "x", []])
        try:
            want = matrix_by_entries(obj, "m")
        except SchemaError as err:
            refused += 1
            with pytest.raises(SchemaError) as caught:
                parse_matrix(obj, "m")
            assert str(caught.value) == str(err), obj
        else:
            assert same_bits(parse_matrix(obj, "m"), want), obj
    assert 1000 < refused < 2900


# (text, message) per refused matrix.  Each id keeps the form
# "text-None-None-message" it had when a case could also give the row and
# column counts the matrix must have, so the recorded test ids stay put.
ENTRY_FAULTS = [
    ("[[1.0, true]]", "entry at 'm[0][1]' must be a number or an [re, im] pair"),
    ("[[[true, 0.0]]]", "field 'm[0][0]' must be a number"),
    ('[[1.0, "2.0"]]', "entry at 'm[0][1]' must be a number or an [re, im] pair"),
    ('[[[1.0, "0"]]]', "field 'm[0][0]' must be a number"),
    ("[[1.0, 2.0], [3.0]]", "row 'm[1]' has inconsistent length"),
    ("[[[1.0, 2.0, 3.0]]]", "entry at 'm[0][0]' must be a number or an [re, im] pair"),
    ("[[[1.0]]]", "entry at 'm[0][0]' must be a number or an [re, im] pair"),
    ("[[1.0], 2.0]", "row 'm[1]' must be a non-empty array"),
    ("[[]]", "row 'm[0]' must be a non-empty array"),
    ("[]", "field 'm' must be a non-empty matrix"),
    ('[[1.0, "x"], [NaN, 2.0]]', "entry at 'm[0][1]' must be a number or an [re, im] pair"),
]


@pytest.mark.parametrize(
    "text,message", ENTRY_FAULTS, ids=[f"{text}-None-None-{message}" for text, message in ENTRY_FAULTS]
)
def test_parse_matrix_rejects_with_the_entry_message(text, message):
    obj = json.loads(text)
    with pytest.raises(SchemaError) as caught:
        parse_matrix(obj, "m")
    assert str(caught.value) == message


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
    level_ends = index.ends
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


@pytest.mark.parametrize("method", ["graded", "gram-schmidt", "gram"])
def test_every_method_and_verify_result_hold_whole_tables(tmp_path, monkeypatch, method):
    # a table is the N x N C of a finished run: each method's, and the one
    # verify_result stacks from a result file's level entries, both real
    # on this real problem
    path = PROBLEM_DIR / "monomial_euclidean.json"
    problem = parse_problem(path)
    n = problem.source.index.total
    table = _run_method(problem, method)
    assert table.matrix.shape == (n, n) and table.stops[-1] == n
    assert table.matrix.dtype == np.float64
    out = tmp_path / "result.json"
    assert main(["run", str(path), "--output", str(out), "--method", method]) == EXIT_OK
    shapes = []

    class Recording(fileio.CoefficientTable):
        def __init__(self, index, matrix, stops, signs=None):
            super().__init__(index, matrix, stops, signs)
            shapes.append((self.matrix.shape, self.matrix.dtype, self.matrix.flags.c_contiguous))

    monkeypatch.setattr(fileio, "CoefficientTable", Recording)
    assert verify_result(problem, parse_result(out)).passed
    assert shapes == [((n, n), np.float64, True)]


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


def test_a_real_table_writes_re_and_integer_zero_and_a_complex_one_its_pairs(tmp_path):
    rng = np.random.default_rng(35)
    real = rng.normal(size=(6, 4)) * 10.0 ** rng.integers(-300, 300, size=(6, 4))
    real.flat[: len(AWKWARD)] = AWKWARD
    real[3] = 0.0
    real[4] = -0.0  # not a zero row: its sign bits are kept
    real_rows = matrix_to_json(real)
    assert real_rows[3] == [0, 0, 0, 0]
    for i, row in enumerate(real_rows):
        if i != 3:
            assert all(type(e) is list and e[1] == 0 and type(e[1]) is int for e in row)
            assert same_bits(np.array([e[0] for e in row]), real[i])
    assert all(np.signbit(e[0]) for e in real_rows[4])
    # the same values as a complex table keep their float pairs
    complex_rows = matrix_to_json(real.astype(np.complex128))
    assert complex_rows[3] == [0, 0, 0, 0]
    for i, row in enumerate(complex_rows):
        if i != 3:
            assert all(type(e[1]) is float for e in row)
    levels = [
        {"level": k, "labels": [f"v{k}.{j}" for j in range(4)], "coefficients": rows}
        for k, rows in enumerate((real_rows, complex_rows))
    ]
    out = tmp_path / "result.json"
    write_result(out, result_skeleton(levels))
    for got in parse_result(out).blocks:
        assert same_bits(got, real)
    assert b",0]" in out.read_bytes() and b",0.0]" in out.read_bytes()


def test_an_old_pairs_file_of_a_now_real_problem_verifies_unchanged(capsys):
    # written with every entry as a float pair when every G was complex
    old = DATA_DIR / "fourier_pseudo.indented.json"
    problem = PROBLEM_DIR / "fourier_pseudo.json"
    assert parse_problem(problem).source.matrix.dtype == np.float64
    payload = json.loads(old.read_text(encoding="utf-8"))
    entries = [e for level in payload["levels"] for row in level["coefficients"] for e in row]
    assert all(type(e) is list and type(e[1]) is float for e in entries)
    assert main(["verify", str(problem), str(old)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "recomputed orthonormality residual: 2.220446e-16\n"
        "residual recorded in result file:   2.220446e-16\n"
        "tolerance: 1.0e-09\n"
        "level 0: normalizer condition number 1.000000e+00\n"
        "level 1: normalizer condition number 1.000000e+00\n"
        "level 2: normalizer condition number 1.000000e+00\n"
        "output levels: ok\n"
        "structural grading zeros: ok\n"
        "verification: PASS\n"
    )
