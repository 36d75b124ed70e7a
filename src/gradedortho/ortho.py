"""Grading-preserving orthonormalization, plus the two classical
reference methods it degenerates to.

All vectors live purely in coefficient space: an output vector is a
column of coefficients over the flat input basis, and every inner
product is a contraction through the source's Gram matrix using the
sesquilinear form u† G v.  Level k is produced by symmetrically
normalizing its Gram block after the contributions of all finished
lower levels have been projected out, so the result is orthonormal
across and within levels while each output vector stays inside the span
of its own and lower levels.
"""

from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateMetric,
    LevelNotReady,
    LinearlyDependentInput,
    ShapeMismatch,
    TerminalIsotropicVector,
)
from .grading import GradedIndex
from .spectral import DEFAULT_DEGENERACY_TOL, _from_eigenbasis, eigh, max_abs

DEFAULT_VERIFY_TOL = 1e-9


class CoefficientTable:
    """Output of an orthonormalization run, organized by level.

    ``blocks[k]`` holds the coefficient columns of the level-k output
    vectors over the full flat input basis; rows belonging to higher
    levels are exactly zero for the graded and Gram-Schmidt methods.
    Everything else about a level follows from its block: the normalizer
    r acting on level k's own raw vectors is its own rows
    (``normalizers``), and the block is E_k r + sum over j < k of
    blocks[j] (-S_j blocks[j]† G E_k r), where E_k picks level k's raw
    vectors and S_j holds the signs of level j's vectors (all +1 on a
    Euclidean table).

    ``signs`` is None for a Euclidean table; for a signed one
    ``signs[k]`` holds the pseudo-norm (+1 or -1) of each column of
    ``blocks[k]``.  Columns are grouped by the output levels of
    ``output_index``, which differs from ``index`` only after isotropic
    promotion merged levels; coefficient rows stay in the flat order of
    ``index``.  ``promotions`` lists one ``(from_level, label,
    to_level)`` triple per promoted vector.
    """

    def __init__(self, index, blocks, signs=None, output_index=None, promotions=()):
        self.index = index
        self.blocks = list(blocks)
        self.signs = None if signs is None else list(signs)
        self.output_index = index if output_index is None else output_index
        self.promotions = list(promotions)

    @property
    def completed(self):
        return len(self.blocks)

    @property
    def normalizers(self):
        """Each level's square block on its own raw vectors (views of ``blocks``).

        The columns of the blocks follow the flat input order side by
        side, so level k's own rows are its running column range.
        """
        ends = accumulate(block.shape[1] for block in self.blocks)
        return [block[end - block.shape[1] : end] for block, end in zip(self.blocks, ends)]

    def output_level_ids(self):
        return tuple(self.output_index.level_ids[: self.completed])

    def output_labels(self):
        return tuple(self.output_index.levels[: self.completed])

    def matrix(self):
        """All coefficient columns, level-major."""
        return np.hstack(self.blocks)

    def partial(self, upto):
        """View of the first ``upto`` completed levels."""
        if not 0 <= upto <= self.completed:
            raise LevelNotReady(
                f"cannot keep {upto} levels: {self.completed} levels are completed"
            )
        kept = self.output_index.level_ids[:upto]
        return CoefficientTable(
            self.index,
            self.blocks[:upto],
            None if self.signs is None else self.signs[:upto],
            self.output_index,
            [step for step in self.promotions if step[2] in kept],
        )


class VerificationReport(NamedTuple):
    """Orthonormality residual and per-level diagnostics for a table."""

    max_residual: float
    condition_numbers: tuple
    structural_ok: bool
    tolerance: float
    passed: bool

    def lines(self):
        out = [
            f"max orthonormality residual: {self.max_residual:.6e} "
            f"(tolerance {self.tolerance:.1e})",
            f"structural grading zeros: {'ok' if self.structural_ok else 'violated'}",
        ]
        out += self.condition_lines()
        out.append("verification: " + ("PASS" if self.passed else "FAIL"))
        return out

    def condition_lines(self):
        return [
            f"level {lid}: normalizer condition number {cond:.6e}"
            for lid, cond in self.condition_numbers
        ]


def level_normalizer(b, degeneracy_tol=DEFAULT_DEGENERACY_TOL, level=None, signed=False):
    """(r, signs) with r† b r = diag(signs), +1 first, from one ``eigh`` of b.

    A definite block gets the Hermitian V |Λ|^(-1/2) V†; a mixed one the
    eigenvectors scaled by |λ|^(-1/2), each sign block by descending |λ|.
    Euclidean (``signed`` false): λmin <= tol·λmax is DegenerateMetric
    when λmin < -tol·max(|λmax|, 1), else LinearlyDependentInput.
    Signed: any |λ| <= tol·max|λ| is DegenerateMetric.  Errors carry
    ``level``; None names the block as the full Gram matrix.
    """
    dec = eigh(b)
    values = dec.values
    n = len(values)
    what = "full Gram matrix" if level is None else f"level {level}: projected Gram block"
    if signed:
        if np.any(np.abs(values) <= degeneracy_tol * max_abs(values)):
            raise DegenerateMetric(
                f"{what} is degenerate; the metric violates the nondegeneracy hypothesis",
                level=level,
            )
    elif n and (values[0] <= 0.0 or values[-1] <= degeneracy_tol * values[0]):
        w_min = float(values[-1])
        if w_min < -degeneracy_tol * max(abs(float(values[0])), 1.0):
            raise DegenerateMetric(
                f"{what} has eigenvalue {w_min:.6e}; the metric is not positive definite",
                level=level,
            )
        raise LinearlyDependentInput(
            f"{what} is numerically singular (smallest eigenvalue {w_min:.6e}); "
            f"the input vectors are not linearly independent",
            level=level,
            min_eigenvalue=w_min,
        )
    p = int(np.count_nonzero(values > 0.0))
    signs = np.concatenate([np.ones(p, dtype=np.int64), -np.ones(n - p, dtype=np.int64)])
    if p in (0, n):
        return _from_eigenbasis(dec, 1.0 / np.sqrt(np.abs(values))), signs
    # values is descending, so positives already lead; flip the negative
    # block to get descending |eigenvalue| there as well.
    order = np.concatenate([np.arange(p), np.arange(n - 1, p - 1, -1)])
    return dec.vectors[:, order] * (1.0 / np.sqrt(np.abs(values[order]))), signs


def orthonormalize_graded(source, degeneracy_tol=DEFAULT_DEGENERACY_TOL):
    """Orthonormalize a graded system while preserving its grading.

    Levels are processed in increasing order; each one is projected
    against all finished levels and then normalized symmetrically, so
    singleton levels reproduce Gram-Schmidt and a single level
    reproduces the Gram (Loewdin) method.

    The finished output vectors are the leading columns of one N x N
    coefficient matrix C; because it is block upper triangular, level k
    at rows lo:hi needs only the overlaps D = C[:lo, :lo]† G[:lo, lo:hi]
    with all finished levels at once (one matmul), the projected block
    Γ - D†D, and one more matmul C[:lo, :lo] (-D q) for its lower-level
    coefficients.

    Parameters
    ----------
    source : GramSource
        Graded index plus positive definite Gram matrix.
    degeneracy_tol : float
        Relative eigenvalue cutoff below which a level block is
        declared singular.

    Returns
    -------
    CoefficientTable
    """
    return _orthonormalize_levels(source, degeneracy_tol, signed=False)


def is_lone_isotropic(block, degeneracy_tol=DEFAULT_DEGENERACY_TOL, scale=None):
    """True when a 1x1 level Gram block is zero relative to the level scale.

    ``scale`` defaults to the block's own largest magnitude with a floor
    of one; the pipeline passes the raw level block's scale explicitly
    when probing projected blocks.
    """
    block = np.asarray(block)
    if block.shape != (1, 1):
        return False
    if scale is None:
        scale = max(max_abs(block), 1.0)
    return bool(abs(block[0, 0]) <= degeneracy_tol * scale)


def _isotropic_singleton(gamma, b, degeneracy_tol):
    """True when a signed run promotes a singleton level.

    ``gamma`` is the level's raw 1x1 Gram block and ``b`` that block
    projected against the finished columns: the vector is isotropic when
    either is within ``degeneracy_tol`` of zero, the projected one
    relative to the raw block's scale (with a floor of one).  Its
    symmetric part, the real part, is what is tested.
    """
    return is_lone_isotropic(gamma, degeneracy_tol) or is_lone_isotropic(
        b.real, degeneracy_tol, scale=max(max_abs(gamma), 1.0)
    )


def _orthonormalize_levels(source, degeneracy_tol, signed):
    """The graded level loop of both metrics.

    Each level is projected against all finished levels with the signs
    S of the finished vectors (all +1 for the Euclidean metric, where
    S is skipped because multiplying by it changes no value) and
    normalized symmetrically by :func:`level_normalizer`.  Only the
    signed metric promotes a lone isotropic vector into the following
    level and keeps the signs of its output vectors.
    """
    gram = source.matrix
    index = source.index
    # Promotion only ever merges a level into the next one, so every
    # pending level is a contiguous row range and the finished output
    # vectors always occupy the leading columns [0, lo) of c.
    pending = [
        {
            "id": index.level_ids[k],
            "labels": list(index.levels[k]),
            "lo": index.offsets[k],
            "hi": index.offsets[k] + index.sizes[k],
        }
        for k in range(len(index))
    ]
    c = np.zeros((index.total, index.total), dtype=np.complex128)
    finished_signs = np.ones(index.total)
    blocks = []
    level_signs = []
    promotions = []
    done = []  # the pending levels that became output levels

    for pos, level in enumerate(pending):
        lo = level["lo"]
        cols = slice(lo, level["hi"])
        gamma = gram[cols, cols]
        # D = C[:lo, :lo]† G[:lo, cols], formed from the k x lo panel so
        # that the finished block is never conjugated as a whole.
        d = (gram[:lo, cols].conj().T @ c[:lo, :lo]).conj().T
        sd = finished_signs[:lo, None] * d if signed else d
        # The normalizer symmetrizes b (inside eigh).
        b = gamma - d.conj().T @ sd
        if signed and _isotropic_singleton(gamma, b, degeneracy_tol):
            _promote(pending, pos, promotions)
            continue
        r, signs = level_normalizer(b, degeneracy_tol, level["id"], signed)
        if signed:
            finished_signs[cols] = signs
            level_signs.append(signs)
        p = -sd @ r
        c[cols, cols] = r
        c[:lo, cols] = c[:lo, :lo] @ p
        blocks.append(c[:, cols].copy())
        done.append(level)

    output_index = GradedIndex(
        [level["labels"] for level in done], level_ids=[level["id"] for level in done]
    )
    return CoefficientTable(
        index, blocks, level_signs if signed else None, output_index, promotions
    )


def _promote(pending, pos, promotions):
    level = pending[pos]
    label = level["labels"][0]
    if pos + 1 >= len(pending):
        raise TerminalIsotropicVector(
            f"level {level['id']}: lone isotropic vector '{label}' has no "
            f"following level to join",
            level=level["id"],
            label=label,
        )
    target = pending[pos + 1]
    if label in target["labels"]:
        # Checked here, where the promotion is decided, so the error names
        # both input levels rather than the merged output level.
        raise ValueError(
            f"promoting isotropic '{label}' from level {level['id']} into level "
            f"{target['id']} would repeat the label '{label}' in one output level"
        )
    target["labels"] = level["labels"] + target["labels"]
    target["lo"] = level["lo"]
    promotions.append((level["id"], label, target["id"]))


def gram_schmidt_reference(source, degeneracy_tol=DEFAULT_DEGENERACY_TOL):
    """Classical (modified) Gram-Schmidt in coefficient space.

    Processes the flat level-major order one vector at a time with
    positive normalization; used as the oracle the graded method must
    reproduce when every level is a singleton.

    Each column, once normalized, is projected out of every later
    column at once (modified Gram-Schmidt: each coefficient is taken
    against the partially reduced column).  G times the column is formed
    once, so every coefficient costs O(N) and the whole run N products
    with G rather than N²/2.
    """
    gram = source.matrix
    index = source.index
    total = index.total
    c = np.eye(total, dtype=np.complex128)
    for i in range(total):
        col = c[:, i]
        gcol = gram @ col
        norm_sq = float((col.conj() @ gcol).real)
        band = degeneracy_tol * max(float(gram[i, i].real), 1.0)
        if norm_sq <= band:
            pos = int(np.searchsorted(np.asarray(index.offsets), i, side="right") - 1)
            level = index.level_ids[pos]
            if norm_sq < -band:
                raise DegenerateMetric(
                    f"vector {i} has squared norm {norm_sq:.6e} during "
                    f"Gram-Schmidt; the metric is not positive definite",
                    level=level,
                )
            raise LinearlyDependentInput(
                f"vector {i} became numerically null during Gram-Schmidt",
                level=level,
                min_eigenvalue=norm_sq,
            )
        scale = np.sqrt(norm_sq)
        col /= scale
        gcol /= scale
        c[:, i + 1 :] -= np.outer(col, gcol.conj() @ c[:, i + 1 :])
    return _table_from_columns(index, c)


def gram_method_reference(source, degeneracy_tol=DEFAULT_DEGENERACY_TOL):
    """Single-shot symmetric (Loewdin) orthonormalization of the flat set.

    Ignores the grading entirely: the whole coefficient table is the
    inverse square root of the full Gram matrix, so on multi-level
    problems the structural grading zeros do not hold.  A Gram matrix
    that is not positive definite fails as in :func:`level_normalizer`.
    """
    c, _ = level_normalizer(source.matrix, degeneracy_tol)
    return _table_from_columns(source.index, c)


def _table_from_columns(index, columns):
    """Split flat coefficient columns into per-level table blocks."""
    return CoefficientTable(
        index, [columns[:, index.level_slice(k)].copy() for k in range(len(index))]
    )


def _condition_numbers(matrices):
    """σmax/σmin of each square matrix, inf where σmin is zero.

    One batched singular-value call per distinct shape.  Working on the
    matrices themselves rather than on r†r neither squares the condition
    number nor overflows on entries near the float range.
    """
    conditions = [0.0] * len(matrices)
    by_shape = {}
    for pos, m in enumerate(matrices):
        by_shape.setdefault(m.shape, []).append(pos)
    for positions in by_shape.values():
        s = np.linalg.svd(np.stack([matrices[p] for p in positions]), compute_uv=False)
        for p, values in zip(positions, s.tolist()):
            conditions[p] = values[0] / values[-1] if values[-1] > 0.0 else float("inf")
    return conditions


def _structural_zeros_ok(index, blocks):
    """True when no block has a nonzero entry on the rows of a higher level.

    The blocks' columns follow the flat input order of ``index`` side by
    side, so the rows to check follow from each block's column range
    alone: every row at or after the end of the input level holding the
    block's last column must be exactly zero.  A promoted output level
    thus ends where the last input level it merged ends.  Blocks must
    have ``index.total`` rows and as many columns in all.
    """
    level_ends = np.add(index.offsets, index.sizes)
    last = -1
    for block in blocks:
        last += block.shape[1]
        row_end = level_ends[np.searchsorted(level_ends, last, side="right")]
        if np.any(block[row_end:] != 0.0):
            return False
    return True


def _is_loewdin(c):
    """True when C is exactly Hermitian and positive definite.

    The only such C with C† G C = I is G^(-1/2), the Gram (Loewdin)
    table, which mixes all levels by design.  No graded or Gram-Schmidt
    table of more than one level is Hermitian, and a Hermitian C that is
    not positive definite (a reflection, say) is no Loewdin table.
    """
    if not np.array_equal(c, c.conj().T):
        return False
    try:
        np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        return False
    return True


def verify_table(source, table, tolerance=DEFAULT_VERIFY_TOL):
    """Judge a table against its source from its coefficients alone.

    Recomputes the full matrix of pairwise inner products C† G C through
    the Gram matrix, compares it with the identity (or diag(signs) for
    signed tables), checks the structural grading zeros, and reports
    per-level condition numbers σmax/σmin of the normalizer blocks,
    labelled by the table's output level ids.

    The table passes when its residual is at most ``tolerance`` and its
    structural zeros hold.  The zeros are waived only for a Euclidean
    table whose stacked C is exactly Hermitian and positive definite:
    that C is the Gram method's G^(-1/2), whatever produced it.  Every
    block must have ``index.total`` rows (ShapeMismatch otherwise).
    """
    total = source.index.total
    for pos, block in enumerate(table.blocks):
        if block.shape[0] != total:
            raise ShapeMismatch(
                f"level entry {pos} has {block.shape[0]} coefficient rows, "
                f"expected {total}"
            )
    c = np.hstack(table.blocks)
    if table.signs is None:
        target = np.eye(c.shape[1], dtype=np.complex128)
    else:
        target = np.diag(np.concatenate(table.signs).astype(np.complex128))
    max_residual = max_abs(c.conj().T @ source.matrix @ c - target)
    structural_ok = _structural_zeros_ok(source.index, table.blocks)
    conditions = tuple(
        zip(table.output_level_ids(), _condition_numbers(table.normalizers))
    )
    passed = max_residual <= tolerance and (
        structural_ok or (table.signs is None and _is_loewdin(c))
    )
    return VerificationReport(
        max_residual=max_residual,
        condition_numbers=conditions,
        structural_ok=structural_ok,
        tolerance=float(tolerance),
        passed=bool(passed),
    )
