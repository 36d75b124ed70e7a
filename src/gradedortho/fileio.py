"""Problem and result files: the one module that knows their layout.

It reads problems, writes results, reads them back and, in
:func:`verify_result`, judges a result file against its problem.
Problems and results are UTF-8 JSON.  Numbers are written as
two-element ``[re, im]`` arrays, the entries of a real table as
``[re, 0]`` with the integer 0 (plain numbers are accepted on input),
matrices as row-major arrays of rows, levels as arrays of label
strings.  Result files are one line of compact JSON, embed a SHA-256
digest of the problem file they were computed from so
:func:`verify_result` can refuse mismatched pairs, and contain no
timestamps, which keeps reruns byte-identical.

orjson is the one codec, both ways.  The reader takes strict JSON only:
a ``NaN`` or ``Infinity`` token, a number past the float range, a
byte-order mark or invalid UTF-8 is invalid JSON, reported with its
line and column.  That parse is the one range check on file input.
The writer spells each float in its shortest form that reads back to
the same bits (``1e-7``, ``1e16``, ``0.00005``), and a non-finite float
(an infinite condition number, say) as ``null``.

A coefficient row whose entries are all exactly +0.0 (the structural
zeros above a level, in ``graded`` and ``gram-schmidt`` results) is
written as plain integer ``0`` entries, every other row as ``[re, im]``
float pairs, or ``[re, 0]`` in a real table: the table of a problem
whose G is real, which :class:`~gradedortho.gram.GramSource` keeps as
float64.  Results carry no copy of the input grading or of the
tolerances: both follow from the problem file the digest names, so
``verify`` judges a result with its problem's ``verify_tol``.  Nor do
they list the isotropic promotions, which the level entries state: a
promoted singleton's label leads the labels of the next level's entry.

Every matrix, of a problem or of a result, is read by one conversion:
each entry becomes an (re, im) pair, a number x the pair (x, 0), and
all the parts become one float64 array viewed as complex.  So numbers
and pairs may mix in any row, and files with every row as pairs, or
with the keys that earlier versions wrote (``input_levels``,
``tolerances``, ``promotions``, ``report.verify_tol``), parse to the
same arrays.  Only a matrix that conversion refuses is walked entry by
entry, in row-major order, for the first fault to name.  Its users
decide the dtype: ``GramSource`` keeps a G whose imaginary parts are all
zero as real, and :func:`verify_result` takes a real problem's
coefficients as real when every imaginary part the file holds is zero.

A problem file is checked for its JSON types here; its values are
checked by the constructor that uses them: the levels (their number,
their sizes, repeated labels) by ``GradedIndex``, a box interval or
the weight samples by the Gram builder, and an explicit matrix, of
whatever shape, goes as it stands to ``GramSource``, which checks it
as it checks every Gram matrix.  A ValueError from any of them becomes
a ``SchemaError`` naming the mode.  A weight reaches the builder as
None (``{"kind": "uniform"}``) or as the list of its sample values.
"""

import hashlib
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from ._version import __version__
from .errors import SchemaError
from .gram import GramSource, fourier_gram, monomial_gram
from .grading import GradedIndex
from .ortho import DEFAULT_DEGENERACY_TOL, DEFAULT_VERIFY_TOL, CoefficientTable, verify_table

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
    """A parsed result file's arrays and its ``report.max_residual`` (or None)."""

    digest_hex: str
    level_ids: list
    level_labels: list
    blocks: list
    signs: list | None
    recorded_residual: float | None


def _require(obj, field, kind, path):
    if not isinstance(obj, dict) or field not in obj:
        raise SchemaError(f"missing required field '{path}{field}'")
    value = obj[field]
    # A JSON true/false is a bool, which Python counts as an int.
    if isinstance(value, bool) or not isinstance(value, kind):
        raise SchemaError(f"field '{path}{field}' has the wrong type")
    return value


def _choice(payload, field, options):
    value = _require(payload, field, str, "")
    if value not in options:
        raise SchemaError(f"field '{field}' must be one of {options}")
    return value


_NUMBER_TYPES = {int, float}


def _number(value, where):
    # Exact types: a JSON true/false is a bool, which Python counts as an int.
    if type(value) not in _NUMBER_TYPES:
        raise SchemaError(f"field '{where}' must be a number")
    return float(value)


def _raise_matrix_fault(obj, path):
    """Raise the SchemaError naming the first fault of a matrix, row by
    row and entry by entry, in row-major order."""
    if type(obj) is not list or not obj:
        raise SchemaError(f"field '{path}' must be a non-empty matrix")
    for i, row in enumerate(obj):
        if type(row) is not list or not row:
            raise SchemaError(f"row '{path}[{i}]' must be a non-empty array")
        if len(row) != len(obj[0]):
            raise SchemaError(f"row '{path}[{i}]' has inconsistent length")
        for j, entry in enumerate(row):
            where = f"{path}[{i}][{j}]"
            if type(entry) is list and len(entry) == 2:
                _number(entry[0], where)
                _number(entry[1], where)
            elif type(entry) in _NUMBER_TYPES:
                _number(entry, where)
            else:
                raise SchemaError(f"entry at '{where}' must be a number or an [re, im] pair")


def _matrix_values(obj):
    """The matrix as a complex array, or None if it is not a non-empty,
    rectangular matrix of numbers and [re, im] pairs.

    Each entry becomes an (re, im) pair, a number x the pair (x, 0), and
    all the parts go into one float64 array viewed as complex, so -0.0
    survives.
    """
    if type(obj) is not list or not obj or set(map(type, obj)) != {list}:
        return None
    width = len(obj[0])
    if not width or set(map(len, obj)) != {width}:
        return None
    pairs = [e if type(e) is list else (e, 0) for e in chain.from_iterable(obj)]
    parts = list(chain.from_iterable(pairs))
    if set(map(len, pairs)) != {2} or not set(map(type, parts)) <= _NUMBER_TYPES:
        return None
    values = np.array(parts, dtype=np.float64)
    return values.view(np.complex128).reshape(len(obj), width)


def parse_matrix(obj, path):
    """A JSON matrix of numbers or [re, im] pairs, as orjson decodes it,
    as a complex array of any shape: its user judges the shape.

    A matrix that :func:`_matrix_values` refuses is handed to
    :func:`_raise_matrix_fault`, which names its first fault.
    """
    values = _matrix_values(obj)
    if values is None:
        _raise_matrix_fault(obj, path)
    return values


def matrix_to_json(matrix):
    """Rows of ``[re, im]`` pairs; a row of only +0.0 entries as integer 0s.

    A complex matrix writes its float pairs, a real one each entry as
    ``[re, 0]`` with the integer 0 of a zero row.  The zero test is on
    the bits, so a row holding a -0.0 part keeps its pairs and its sign.
    Every row and entry is a list of its own, so editing one entry of
    the output changes no other.
    """
    matrix = np.asarray(matrix)
    dtype = np.complex128 if np.iscomplexobj(matrix) else np.float64
    matrix = np.ascontiguousarray(matrix, dtype=dtype)
    zero = ~matrix.view(np.uint64).any(axis=1)
    rows = matrix[~zero]
    width = matrix.shape[1]
    if dtype is np.complex128:
        # a complex128 entry is its (re, im) float64 pair in memory
        pairs = iter(rows.view(np.float64).reshape(rows.shape + (2,)).tolist())
    else:
        # [re, 0] per entry; map and zip build the lists without a Python loop
        zeros = [0] * width
        pairs = (list(map(list, zip(row, zeros))) for row in rows.tolist())
    return [[0] * width if z else next(pairs) for z in zero.tolist()]


def _parse_weight(obj, path):
    """None for ``{"kind": "uniform"}``, else the list of sample values;
    the Gram builder checks the samples."""
    kind = _require(obj, "kind", str, path)
    if kind == "uniform":
        return None
    if kind == "samples":
        values = _require(obj, "values", list, path)
        return [_number(v, f"{path}values[{i}]") for i, v in enumerate(values)]
    raise SchemaError(f"field '{path}kind' must be 'uniform' or 'samples'")


def _build_source(mode, block):
    if mode == "explicit":
        levels = _require(block, "levels", list, "explicit.")
        for i, level in enumerate(levels):
            if not isinstance(level, list):
                raise SchemaError(f"level 'explicit.levels[{i}]' must be an array of labels")
            if not all(isinstance(label, str) for label in level):
                raise SchemaError(f"labels in 'explicit.levels[{i}]' must be strings")
        index = GradedIndex(levels)
        gram = parse_matrix(_require(block, "gram", list, "explicit."), "explicit.gram")
        return GramSource(index, gram)
    if mode == "fourier":
        max_harmonic = _require(block, "max_harmonic", int, "fourier.")
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
    weight = None
    if "weight" in block:
        weight = _parse_weight(_require(block, "weight", dict, "monomial."), "monomial.weight.")
    order = None
    if "quadrature_order" in block:
        order = _require(block, "quadrature_order", int, "monomial.")
    return monomial_gram(dimension, max_degree, box, weight, order)


def _load_json(path):
    """The file's top-level JSON object, and the bytes it was read from."""
    # Imported here, not at the top: importing orjson costs a few ms that
    # ``import gradedortho.cli`` alone need not pay.
    import orjson

    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        payload = orjson.loads(raw)
    except orjson.JSONDecodeError as err:
        raise SchemaError(
            f"{path}: invalid JSON at line {err.lineno}, column {err.colno}"
        ) from err
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    return payload, raw


def parse_problem(path):
    """Load and validate a problem file; builds the Gram source eagerly."""
    payload, raw = _load_json(path)
    digest = hashlib.sha256(raw).hexdigest()
    del raw  # the text of a large Gram matrix need not outlive its hash
    mode = _choice(payload, "mode", MODES)
    metric = _choice(payload, "metric", METRICS)
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
    starts = (0, *table.stops)
    for start, stop, (lid, labels) in zip(starts, table.stops, table.output_levels()):
        entry = {
            "level": int(lid),
            "labels": list(labels),
            "coefficients": matrix_to_json(table.matrix[:, start:stop]),
        }
        if table.signs is not None:
            entry["signs"] = table.signs[start:stop].tolist()
        levels.append(entry)
    payload = {
        "tool": {"name": "gradedortho", "version": __version__},
        "input_digest": {"algorithm": "sha256", "hex": problem.digest_hex},
        "mode": problem.mode,
        "metric": problem.metric,
        "method": method,
        "levels": levels,
    }
    payload["report"] = {
        "max_residual": report.max_residual,
        "structural_ok": report.structural_ok,
        "condition_numbers": [[int(lid), cond] for lid, cond in report.condition_numbers],
        "pass": report.passed,
    }
    return payload


def write_result(path, payload):
    """Write ``payload`` as one line of compact JSON and a newline."""
    # Imported here, not at the top: importing orjson costs a few ms that
    # ``import gradedortho.cli`` alone need not pay.
    import orjson

    data = orjson.dumps(payload, option=orjson.OPT_APPEND_NEWLINE)
    with open(path, "wb") as fh:
        fh.write(data)


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

    Reads the keys every result file has had; the ``input_levels``,
    ``tolerances``, ``normalizer``, ``mixing`` and ``promotions`` keys
    of earlier versions are ignored.
    """
    payload = _load_json(path)[0]  # the bytes are dropped: only a problem is hashed
    digest_obj = _require(payload, "input_digest", dict, "")
    digest_hex = _require(digest_obj, "hex", str, "input_digest.")
    metric = _choice(payload, "metric", METRICS)
    method = _choice(payload, "method", METHODS)
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
    recorded = report.get("max_residual")
    if recorded is not None:
        recorded = _number(recorded, "report.max_residual")
    return ResultData(
        digest_hex=digest_hex,
        level_ids=level_ids,
        level_labels=level_labels,
        blocks=blocks,
        signs=signs,
        recorded_residual=recorded,
    )


def verify_result(problem, result):
    """The report of :func:`~gradedortho.ortho.verify_table` on a parsed
    result's level entries, side by side, against its parsed problem.

    Its ``levels_mismatch`` and ``passed`` also judge the entries' ids
    and labels, up to the first entry that is no output level.  When
    the problem's G is real and every imaginary part the file holds is
    zero, the table is real, as ``run`` computed it, so the report is
    recomputed from the same bits.  A result
    of another problem file (by digest) or metric, or whose entries do
    not hold N rows each and N columns in all, is a SchemaError.
    """
    if result.digest_hex != problem.digest_hex:
        raise SchemaError(
            "result file was computed from a different problem file "
            f"(digest {result.digest_hex[:12]}... vs {problem.digest_hex[:12]}...)"
        )
    metric = "euclidean" if result.signs is None else "pseudo"
    if metric != problem.metric:
        raise SchemaError(
            f"result file has metric '{metric}' but the problem has metric '{problem.metric}'"
        )
    index = problem.source.index
    stops = list(accumulate(block.shape[1] for block in result.blocks))
    if stops[-1] != index.total:
        raise SchemaError(f"result provides {stops[-1]} output vectors for {index.total} inputs")
    for pos, block in enumerate(result.blocks):
        if block.shape[0] != index.total:
            raise SchemaError(
                f"level entry {pos} has {block.shape[0]} coefficient rows, expected {index.total}"
            )
    signs = None if result.signs is None else np.concatenate(result.signs)
    c = np.hstack(result.blocks)
    if not np.iscomplexobj(problem.source.matrix) and not c.imag.any():
        c = np.ascontiguousarray(c.real)  # contiguous, for the BLAS path run takes
    table = CoefficientTable(index, c, stops, signs)
    report = verify_table(problem.source, table, problem.verify_tol, problem.degeneracy_tol)
    # each entry's labels and id must be those of the output level derived for it
    headers = zip(result.level_ids, result.level_labels, report.output_levels, (0, *stops), stops)
    for pos, (lid, labels, (expected_id, expected), start, stop) in enumerate(headers):
        fault = None
        if tuple(labels) != expected:
            fault = f"levels[{pos}].labels are not the input labels of columns {start}..{stop - 1}"
        elif lid != expected_id:
            fault = f"levels[{pos}].level is {lid}, expected {expected_id}"
        if fault:
            return report._replace(levels_mismatch=fault, passed=False)
    return report
