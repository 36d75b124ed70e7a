"""Problem and result files.

Problems and results are UTF-8 JSON.  Complex numbers are written as
two-element ``[re, im]`` arrays (plain numbers are accepted on input),
matrices as row-major arrays of rows, levels as arrays of label
strings.  Result files are one line of compact JSON, embed a SHA-256
digest of the problem file they were computed from so ``verify`` can
refuse mismatched pairs, and contain no timestamps, which keeps reruns
byte-identical.

A coefficient row whose entries are all exactly +0.0 (the structural
zeros above a level, in ``graded`` and ``gram-schmidt`` results) is
written as plain integer ``0`` entries, every other row as ``[re, im]``
pairs.  Results carry no copy of the input grading or of the
tolerances: both follow from the problem file the digest names, so
``verify`` judges a result with its problem's ``verify_tol``.  The
reader takes numbers and pairs alike, so files with every row as pairs,
or with the ``input_levels``, ``tolerances`` or ``report.verify_tol``
keys, as earlier versions wrote them, parse to the same arrays.
"""

import hashlib
import json
from itertools import chain, compress
from operator import itemgetter, not_
from typing import NamedTuple

import numpy as np

from ._version import __version__
from .errors import SchemaError
from .gram import (
    MonomialBasisSpec,
    WeightFunction,
    build_explicit,
    fourier_gram,
    monomial_gram,
)
from .grading import GradedIndex
from .ortho import DEFAULT_VERIFY_TOL
from .spectral import DEFAULT_DEGENERACY_TOL

MODES = ("explicit", "fourier", "monomial")
METRICS = ("euclidean", "pseudo")
METHODS = ("graded", "gram-schmidt", "gram")


class Problem(NamedTuple):
    """A parsed problem file: its Gram source, tolerances and digest."""

    mode: str
    metric: str
    source: object
    degeneracy_tol: float
    verify_tol: float
    digest_hex: str


class ResultData(NamedTuple):
    """The arrays of a parsed result file, for re-verification."""

    digest_hex: str
    level_ids: list
    level_labels: list
    blocks: list
    signs: list | None
    report: dict


def _require(obj, field, kind, path):
    if not isinstance(obj, dict) or field not in obj:
        raise SchemaError(f"missing required field '{path}{field}'")
    value = obj[field]
    # A JSON true/false is a bool, which Python counts as an int.
    if kind is not None and (isinstance(value, bool) or not isinstance(value, kind)):
        raise SchemaError(f"field '{path}{field}' has the wrong type")
    return value


def _number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"field '{where}' must be a number")
    try:
        value = float(value)
    except OverflowError:
        value = float("inf")
    if not np.isfinite(value):
        raise SchemaError(f"field '{where}' must be finite")
    return value


def _entry_to_complex(entry, where):
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return complex(_number(entry, where), 0.0)
    if isinstance(entry, list) and len(entry) == 2:
        return complex(_number(entry[0], where), _number(entry[1], where))
    raise SchemaError(f"entry at '{where}' must be a number or an [re, im] pair")


def _walk_matrix(obj, path, rows, cols):
    """Entry-by-entry parse; its errors name the first offending entry."""
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"field '{path}' must be a non-empty matrix")
    if rows is not None and len(obj) != rows:
        raise SchemaError(f"field '{path}' must have {rows} rows")
    width = None
    data = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"row '{path}[{i}]' must be a non-empty array")
        if width is None:
            width = len(row)
            if cols is not None and width != cols:
                raise SchemaError(f"field '{path}' must have {cols} columns")
        elif len(row) != width:
            raise SchemaError(f"row '{path}[{i}]' has inconsistent length")
        data.append([_entry_to_complex(e, f"{path}[{i}][{j}]") for j, e in enumerate(row)])
    return np.asarray(data, dtype=np.complex128)


_NUMBER_TYPES = {int, float}


def _bulk_matrix(obj, rows, cols):
    """The whole matrix in a few C-level passes, or None if in any doubt.

    Accepts exactly what :func:`_walk_matrix` accepts, with bit-identical
    values (the (re, im) float pairs are viewed as complex, so -0.0
    survives); anything else is left to the walk, which raises.  Rows of
    plain numbers (the zero rows a result writes) fill their real parts
    in one write; the other rows are read as pairs, entry by entry only
    where a row mixes numbers into pairs.
    """
    if type(obj) is not list or not obj or set(map(type, obj)) != {list}:
        return None
    width = len(obj[0])
    if not width or set(map(len, obj)) != {width}:
        return None
    if rows not in (None, len(obj)) or cols not in (None, width):
        return None
    paired = list(map(list.__instancecheck__, map(itemgetter(0), obj)))
    plain = list(chain.from_iterable(compress(obj, map(not_, paired))))
    if not set(map(type, plain)) <= _NUMBER_TYPES:
        # A row led by a number holds a pair (or junk): read every row as pairs.
        paired, plain = [True] * len(obj), []
    pairs = list(chain.from_iterable(compress(obj, paired)))
    kinds = set(map(type, pairs))
    if not kinds <= _NUMBER_TYPES | {list}:
        return None
    if kinds != {list}:
        pairs = [e if type(e) is list else [e, 0.0] for e in pairs]
    if pairs and set(map(len, pairs)) != {2}:
        return None
    parts = list(chain.from_iterable(pairs))
    if not set(map(type, parts)) <= _NUMBER_TYPES:
        return None
    try:
        parts = np.array(parts, dtype=np.float64).reshape(-1, width, 2)
        plain = np.array(plain, dtype=np.float64).reshape(-1, width)
    except OverflowError:
        return None
    if not (np.isfinite(parts).all() and np.isfinite(plain).all()):
        return None
    if plain.size:
        values = np.zeros((len(obj), width, 2))
        paired = np.array(paired)
        values[paired] = parts
        values[~paired, :, 0] = plain
    else:
        values = parts
    return values.view(np.complex128).reshape(len(obj), width)


def parse_matrix(obj, path, rows=None, cols=None):
    """A JSON matrix of numbers or [re, im] pairs as a complex array."""
    matrix = _bulk_matrix(obj, rows, cols)
    if matrix is None:
        matrix = _walk_matrix(obj, path, rows, cols)
    return matrix


def matrix_to_json(matrix):
    """Rows of ``[re, im]`` pairs; a row of only +0.0 entries as integer 0s.

    The zero test is on the bits, so a row holding a -0.0 part keeps its
    pairs and its sign.  Every zero row is a list of its own, so editing
    one entry of the output changes no other row.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.complex128)
    zero = ~matrix.view(np.uint64).any(axis=1)
    rows = matrix[~zero]
    # a complex128 entry is its (re, im) float64 pair in memory
    pairs = iter(rows.view(np.float64).reshape(rows.shape + (2,)).tolist())
    width = matrix.shape[1]
    return [[0] * width if z else next(pairs) for z in zero.tolist()]


def _parse_weight(obj, path):
    kind = _require(obj, "kind", str, path)
    if kind == "uniform":
        return WeightFunction.uniform()
    if kind == "samples":
        values = _require(obj, "values", list, path)
        numbers = [_number(v, f"{path}values[{i}]") for i, v in enumerate(values)]
        return WeightFunction.samples(numbers)
    raise SchemaError(f"field '{path}kind' must be 'uniform' or 'samples'")


def _parse_levels(obj, path):
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"field '{path}' must be a non-empty array")
    levels = []
    for i, level in enumerate(obj):
        if not isinstance(level, list) or not level:
            raise SchemaError(f"level '{path}[{i}]' must be a non-empty array of labels")
        for label in level:
            if not isinstance(label, str):
                raise SchemaError(f"labels in '{path}[{i}]' must be strings")
        levels.append(level)
    return levels


def _build_source(mode, block):
    if mode == "explicit":
        levels = _parse_levels(_require(block, "levels", list, "explicit."), "explicit.levels")
        index = GradedIndex(levels)
        gram = parse_matrix(
            _require(block, "gram", list, "explicit."),
            "explicit.gram",
            rows=index.total,
            cols=index.total,
        )
        return build_explicit(index, gram)
    if mode == "fourier":
        max_harmonic = _require(block, "max_harmonic", int, "fourier.")
        if max_harmonic < 0:
            raise SchemaError("field 'fourier.max_harmonic' must be a non-negative integer")
        weight = _parse_weight(_require(block, "weight", dict, "fourier."), "fourier.weight.")
        return fourier_gram(max_harmonic, weight)
    dimension = _require(block, "dimension", int, "monomial.")
    max_degree = _require(block, "max_degree", int, "monomial.")
    box_obj = _require(block, "box", list, "monomial.")
    box = []
    for i, interval in enumerate(box_obj):
        if not isinstance(interval, list) or len(interval) != 2:
            raise SchemaError(f"interval 'monomial.box[{i}]' must be [lo, hi]")
        box.append(
            (
                _number(interval[0], f"monomial.box[{i}][0]"),
                _number(interval[1], f"monomial.box[{i}][1]"),
            )
        )
    weight = WeightFunction.uniform()
    if "weight" in block:
        weight = _parse_weight(_require(block, "weight", dict, "monomial."), "monomial.weight.")
    order = block.get("quadrature_order")
    if order is not None and (isinstance(order, bool) or not isinstance(order, int)):
        raise SchemaError("field 'monomial.quadrature_order' must be an integer")
    spec = MonomialBasisSpec(
        dimension=dimension,
        max_degree=max_degree,
        box=tuple(box),
        weight=weight,
        quadrature_order=order,
    )
    return monomial_gram(spec)


def _load_json(path):
    """The file's top-level JSON object, and the bytes it was read from."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        line = getattr(err, "lineno", "?")
        col = getattr(err, "colno", "?")
        raise SchemaError(f"{path}: invalid JSON at line {line}, column {col}") from err
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    return payload, raw


def parse_problem(path):
    """Load and validate a problem file; builds the Gram source eagerly."""
    payload, raw = _load_json(path)
    digest = hashlib.sha256(raw).hexdigest()
    del raw  # the text of a large Gram matrix need not outlive its hash
    mode = _require(payload, "mode", str, "")
    if mode not in MODES:
        raise SchemaError(f"field 'mode' must be one of {MODES}")
    metric = _require(payload, "metric", str, "")
    if metric not in METRICS:
        raise SchemaError(f"field 'metric' must be one of {METRICS}")
    for other in MODES:
        if other != mode and other in payload:
            raise SchemaError(
                f"exactly one mode block is allowed; found '{other}' next to "
                f"mode '{mode}'"
            )
    block = _require(payload, mode, dict, "")
    degeneracy_tol = DEFAULT_DEGENERACY_TOL
    verify_tol = DEFAULT_VERIFY_TOL
    if "tolerances" in payload:
        tols = _require(payload, "tolerances", dict, "")
        if "degeneracy_tol" in tols:
            degeneracy_tol = _number(tols["degeneracy_tol"], "tolerances.degeneracy_tol")
        if "verify_tol" in tols:
            verify_tol = _number(tols["verify_tol"], "tolerances.verify_tol")
        if degeneracy_tol <= 0 or verify_tol <= 0:
            raise SchemaError("tolerances must be positive")
    try:
        source = _build_source(mode, block)
    except ValueError as err:
        # Values of the right JSON type that no source can be built from
        # (a duplicate label, an empty box interval, an overflowing Gram).
        raise SchemaError(f"invalid '{mode}' problem: {err}") from err
    return Problem(
        mode=mode,
        metric=metric,
        source=source,
        degeneracy_tol=degeneracy_tol,
        verify_tol=verify_tol,
        digest_hex=digest,
    )


def result_payload(problem, table, report, method):
    """Assemble the result-file dictionary (fixed key order)."""
    levels = []
    for pos, (lid, labels) in enumerate(table.output_levels()):
        entry = {
            "level": int(lid),
            "labels": list(labels),
            "coefficients": matrix_to_json(table.blocks[pos]),
        }
        if table.signs is not None:
            entry["signs"] = [int(s) for s in table.signs[pos]]
        levels.append(entry)
    payload = {
        "tool": {"name": "gradedortho", "version": __version__},
        "input_digest": {"algorithm": "sha256", "hex": problem.digest_hex},
        "mode": problem.mode,
        "metric": problem.metric,
        "method": method,
        "levels": levels,
    }
    if table.promotions:
        payload["promotions"] = [
            {"from_level": int(a), "label": lbl, "to_level": int(b)}
            for a, lbl, b in table.promotions
        ]
    payload["report"] = {
        "max_residual": report.max_residual,
        "structural_ok": report.structural_ok,
        "condition_numbers": [[int(lid), cond] for lid, cond in report.condition_numbers],
        "pass": report.passed,
    }
    return payload


def write_result(path, payload):
    # Compact text in one json.dumps call: that is the only form the C
    # encoder serves (json.dump and any indent take the pure-Python one).
    # The payload is a fresh acyclic tree (result_payload builds it from
    # new tolist() lists), so the encoder's cycle markers are skipped.
    text = json.dumps(
        payload, ensure_ascii=False, separators=(",", ":"), check_circular=False
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def _parse_signs(obj, count, where):
    if len(obj) != count:
        raise SchemaError(
            f"field '{where}' must have one sign per coefficient column ({count})"
        )
    if not all(type(s) is int and s in (1, -1) for s in obj):
        raise SchemaError(f"field '{where}' must hold only the integers 1 and -1")
    return np.asarray(obj, dtype=np.int64)


def parse_result(path):
    """Load a result file back into arrays for re-verification.

    Reads the keys every result file has had; files that also carry the
    ``input_levels``, ``tolerances``, ``normalizer`` and ``mixing`` keys
    of earlier versions parse the same, since those keys are ignored.
    """
    payload = _load_json(path)[0]  # the bytes are dropped: only a problem is hashed
    digest_obj = _require(payload, "input_digest", dict, "")
    digest_hex = _require(digest_obj, "hex", str, "input_digest.")
    metric = _require(payload, "metric", str, "")
    if metric not in METRICS:
        raise SchemaError(f"field 'metric' must be one of {METRICS}")
    method = _require(payload, "method", str, "")
    if method not in METHODS:
        raise SchemaError(f"field 'method' must be one of {METHODS}")
    if metric == "pseudo" and method != "graded":
        # As in `run`: only the graded loop handles an indefinite metric.
        raise SchemaError("field 'method' must be 'graded' in a pseudo result")
    levels_obj = _require(payload, "levels", list, "")
    if not levels_obj:
        raise SchemaError("result has no levels")
    level_ids = []
    level_labels = []
    blocks = []
    signs = [] if metric == "pseudo" else None
    for i, entry in enumerate(levels_obj):
        where = f"levels[{i}]."
        lid = _require(entry, "level", int, where)
        labels = _require(entry, "labels", list, where)
        coeff = parse_matrix(
            _require(entry, "coefficients", list, where), f"{where}coefficients"
        )
        count = coeff.shape[1]
        if len(labels) != count or not all(type(s) is str for s in labels):
            raise SchemaError(
                f"field '{where}labels' must hold one label string per "
                f"coefficient column ({count})"
            )
        level_ids.append(lid)
        level_labels.append(labels)
        blocks.append(coeff)
        if signs is not None:
            signs.append(_parse_signs(_require(entry, "signs", list, where), count, where + "signs"))
    report = _require(payload, "report", dict, "")
    if report.get("max_residual") is not None:
        _require(report, "max_residual", (int, float), "report.")
    return ResultData(
        digest_hex=digest_hex,
        level_ids=level_ids,
        level_labels=level_labels,
        blocks=blocks,
        signs=signs,
        report=report,
    )
