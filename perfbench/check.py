"""Correctness check of a result file that does not rely on ``verify``.

The Gram matrix comes from the workload generator (computed here in
numpy from the generated inputs), the coefficients from the package's
public ``fileio.parse_result``.  Three conditions are checked:

* C†GC = diag(signs) to within the problem's ``verify_tol``;
* every coefficient row of a vector from a level above the output
  level is exactly zero;
* on Euclidean problems each level's diagonal block (the rows of the
  level's own input vectors) is Hermitian positive definite.

For a Euclidean problem these pin down the graded basis uniquely: two
such bases differ by a block-diagonal unitary factor, and the polar
decomposition of a Hermitian positive definite block is unique, so a
faster program cannot pass with another basis (Gram-Schmidt, say).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from workloads import fourier_harmonics, parse_monomial_label

DEFAULT_VERIFY_TOL = 1e-9


@dataclass
class CheckResult:
    residual: float  # max |C†GC - diag(signs)|
    problems: list = field(default_factory=list)
    levels: int = 0  # output levels in the result
    rms: float = math.inf  # root mean square of the same entries

    @property
    def ok(self):
        return not self.problems

    @property
    def digits(self):
        """-log10 of the RMS orthonormality residual (capped at 17 digits).

        The RMS rather than the largest entry: over ten seeds of
        ``pseudo_explicit`` the largest entry gave 12.7-14.2 digits and a
        spread (IQR/median) of 0.09, the RMS 14.8-15.7 digits and 0.05.
        """
        return -math.log10(max(self.rms, 1e-17))


def _row_order(workload, result):
    """Flat row order of the problem as the program indexes it.

    The program fixes the order inside each level; the check reads it
    back from the labels and rebuilds the reference Gram matrix to match,
    so it does not depend on that convention.
    """
    if workload.problem["mode"] == "explicit":
        return workload.gram, workload.input_levels
    levels = result.level_labels
    if workload.problem["mode"] == "fourier":
        ref = fourier_harmonics(workload.input_levels, range(len(workload.input_levels))).tolist()
        got = fourier_harmonics(levels, result.level_ids).tolist()
    else:
        dim = workload.problem["monomial"]["dimension"]
        ref = [parse_monomial_label(l, dim) for level in workload.input_levels for l in level]
        got = [parse_monomial_label(l, dim) for level in levels for l in level]
    where = {key: pos for pos, key in enumerate(ref)}
    perm = np.asarray([where[key] for key in got])
    return workload.gram[np.ix_(perm, perm)], levels


def check_result(workload, result, verify_tol=DEFAULT_VERIFY_TOL):
    """Check a parsed result (``fileio.parse_result``) against the workload."""
    got_levels = [
        (int(lid), sorted(labels)) for lid, labels in zip(result.level_ids, result.level_labels)
    ]
    if got_levels != workload.expected_levels:
        return CheckResult(math.inf, ["output levels differ from the expected grading"])
    try:
        gram, row_levels = _row_order(workload, result)
    except (KeyError, ValueError) as err:
        return CheckResult(math.inf, [f"labels do not match the problem: {err}"])
    row_level = np.repeat(np.arange(len(row_levels)), [len(level) for level in row_levels])

    blocks = result.blocks
    problems = []
    if any(b.shape[0] != gram.shape[0] for b in blocks):
        return CheckResult(math.inf, ["coefficient blocks have the wrong number of rows"])
    c = np.hstack(blocks)
    if c.shape[1] != gram.shape[0]:
        return CheckResult(math.inf, ["wrong number of output vectors"])
    if result.signs is not None:
        signs = np.concatenate(result.signs).astype(float)
        if int(np.count_nonzero(signs < 0)) != workload.expected_negative:
            problems.append("number of negative signs differs from the signature")
    else:
        signs = np.ones(c.shape[1])
    error = np.abs(c.conj().T @ gram @ c - np.diag(signs))
    residual = float(np.max(error))
    rms = float(np.sqrt(np.mean(error**2)))
    if not residual <= verify_tol:
        problems.append(f"orthonormality residual {residual:.3e} above {verify_tol:.1e}")

    start = 0
    for lid, labels, block in zip(result.level_ids, result.level_labels, blocks):
        if np.any(block[row_level > lid, :] != 0.0):
            problems.append(f"level {lid}: nonzero coefficient above the level")
        if result.signs is None:
            diag = block[start : start + len(labels), :]
            scale = max(float(np.max(np.abs(diag))), 1e-300)
            if float(np.max(np.abs(diag - diag.conj().T))) > verify_tol * scale:
                problems.append(f"level {lid}: diagonal block is not Hermitian")
            elif float(np.linalg.eigvalsh(0.5 * (diag + diag.conj().T))[0]) <= 0.0:
                problems.append(f"level {lid}: diagonal block is not positive definite")
        start += len(labels)
    return CheckResult(residual, problems, len(blocks), rms)
