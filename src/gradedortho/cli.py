"""Command line front end.

Subcommands: ``run`` (orthonormalize a problem file and write a result
file), ``verify`` (re-check a result file against its problem from
first principles) and ``compare`` (run all three methods and report
pairwise differences).

``run`` and ``verify`` reach their verdict on the coefficients through
the one rule of :func:`gradedortho.ortho.verify_table`, never through
the method a result file names; that rule also derives the output
levels from the problem's grading and judges every merge.  The module
knows no file layout: :mod:`gradedortho.fileio` alone reads and writes
problem and result files, and its :func:`~gradedortho.fileio.verify_result`
judges a result file against its problem.  Both verbs print the
report as one block from :func:`_print_verdict`; ``verify`` adds the
residual the result file recorded.

Exit codes (mapped in :func:`main` alone): 0 success, 2 parse/schema/
usage error (also a problem too large for memory), 3 mathematical
failure (linear dependence, degenerate metric, terminal isotropic
vector, an eigendecomposition that fails), 4 verification failure.
"""

import argparse
import gc
import sys

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
    verify_result,
    write_result,
)
from .ortho import (
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

# The one tolerance of the degeneration identities compare checks
# (singleton levels reduce to Gram-Schmidt, one level exactly to the Gram
# method), relative to the largest coefficient of the reference table.
MATCH_TOL = 1e-10

# The failures of a method on a well-formed problem (exit 3).
MATH_ERRORS = (LinearlyDependentInput, DegenerateMetric, TerminalIsotropicVector, NoConvergence)


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


def _run_method(problem, method):
    degeneracy_tol = problem.degeneracy_tol
    try:
        if method == "graded":
            if problem.metric == "pseudo":
                return pseudo_orthonormalize_graded(problem.source, degeneracy_tol)
            return orthonormalize_graded(problem.source, degeneracy_tol)
        if method == "gram-schmidt":
            return gram_schmidt_reference(problem.source, degeneracy_tol)
        return gram_method_reference(problem.source, degeneracy_tol)
    except ValueError as err:
        # Input values the run cannot go on with: a projected block that
        # overflows, or a promotion that would merge two levels sharing a
        # label.
        raise SchemaError(f"invalid '{problem.mode}' problem: {err}") from err


def _print_verdict(report, recorded=None):
    """Print the verdict block of ``run`` and ``verify``; return 0 on PASS, else 4.

    ``recorded`` is the residual a result file carries (None prints no
    line for it).
    """
    print(f"recomputed orthonormality residual: {report.max_residual:.6e}")
    if recorded is not None:
        print(f"residual recorded in result file:   {recorded:.6e}")
    print(f"tolerance: {report.tolerance:.1e}")
    for lid, cond in report.condition_numbers:
        print(f"level {lid}: normalizer condition number {cond:.6e}")
    mismatch = report.levels_mismatch
    print(f"output levels: {'ok' if mismatch is None else f'mismatch ({mismatch})'}")
    print(f"structural grading zeros: {'ok' if report.structural_ok else 'violated'}")
    print("verification: " + ("PASS" if report.passed else "FAIL"))
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_run(args):
    problem = parse_problem(args.input)
    if problem.metric == "pseudo" and args.method != "graded":
        raise SchemaError(
            f"method '{args.method}' requires a euclidean metric; the "
            f"pseudo pipeline only supports 'graded'"
        )
    table = _run_method(problem, args.method)
    report = verify_table(problem.source, table, problem.verify_tol, problem.degeneracy_tol)
    output = args.output
    if output is None:
        stem = args.input[:-5] if args.input.endswith(".json") else args.input
        output = stem + ".result.json"
    payload = result_payload(problem, table, report, args.method)
    try:
        write_result(output, payload)
    except OSError as err:
        raise SchemaError(f"cannot write result file: {err}") from err
    print(f"wrote {output}")
    code = _print_verdict(report)
    for from_level, label, to_level in table.promotions:
        print(f"promoted '{label}' from level {from_level} to level {to_level}")
    return code


def cmd_verify(args):
    problem = parse_problem(args.problem)
    result = parse_result(args.result)
    return _print_verdict(verify_result(problem, result), result.recorded_residual)


def cmd_compare(args):
    problem = parse_problem(args.input)
    if problem.metric != "euclidean":
        raise SchemaError("compare requires a euclidean problem")
    matrices = {m: _run_method(problem, m).matrix for m in METHODS}
    pairs = [("graded", "gram-schmidt"), ("graded", "gram"), ("gram-schmidt", "gram")]
    diffs = {}
    for a, b in pairs:
        diffs[(a, b)] = max_abs(matrices[a] - matrices[b])
        print(f"max |{a} - {b}| = {diffs[(a, b)]:.6e}")
    index = problem.source.index
    identities = []
    if all(size == 1 for size in index.sizes):
        identities.append(("singleton levels", "gram-schmidt"))
    if len(index) == 1:
        identities.append(("single level", "gram"))
    for name, reference in identities:
        holds = diffs[("graded", reference)] <= MATCH_TOL * max_abs(matrices[reference])
        print(
            f"{name}: graded reduces to {reference} -> " + ("HOLDS" if holds else "VIOLATED")
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
    """Run one subcommand, which raises or returns 0 or 4, and map its
    errors to exit codes: 3 for a method's failure on a well-formed
    problem, 2 for any other package error, an unreadable file and a
    problem too large for memory."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MATH_ERRORS as err:
        # The message names the level it concerns, so the line does not again.
        return _fail(EXIT_MATH, f"{type(err).__name__}: {err}")
    except (GradedOrthoError, OSError) as err:
        return _fail(EXIT_SCHEMA, str(err))
    except MemoryError as err:
        detail = f": {err}" if str(err) else ""
        return _fail(EXIT_SCHEMA, f"the problem is too large for memory{detail}")


def entry():
    """Process entry of ``python -m gradedortho.cli`` and the console script.

    The cyclic collector is switched off: a one-shot run leaves only a
    few hundred objects in reference cycles, freed at exit, while its
    large acyclic list trees (a parsed file and the result payload; the
    encoded result is one bytes object) would keep triggering
    collections that rescan them.  Interpreter
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
