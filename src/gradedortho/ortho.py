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

import math
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateMetric,
    LevelNotReady,
    LinearlyDependentInput,
    ShapeMismatch,
    TerminalIsotropicVector,
)
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
    ``blocks[k]``.  The columns of the blocks follow the flat input order
    of ``index`` side by side, so the column ranges fix the output
    levels: ``output_levels()`` gives each block's level id and labels,
    and ``promotions`` the blocks that merged an isotropic singleton
    into the level after it.
    """

    def __init__(self, index, blocks, signs=None):
        self.index = index
        self.blocks = list(blocks)
        self.signs = None if signs is None else list(signs)

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

    def output_levels(self):
        """(level id, labels) per block: the id of the input level holding
        its last column and the flat input labels of its columns."""
        return _output_levels(self.index, self.blocks)

    @property
    def promotions(self):
        """``(from_level, label, to_level)`` per block spanning two input levels."""
        return [
            (first, self.index.levels[first][0], last)
            for *_, first, last in _column_levels(self.index, self.blocks)
            if last > first
        ]

    def matrix(self):
        """All coefficient columns, level-major."""
        return np.hstack(self.blocks)

    def partial(self, upto):
        """View of the first ``upto`` completed levels."""
        if not 0 <= upto <= self.completed:
            raise LevelNotReady(
                f"cannot keep {upto} levels: {self.completed} levels are completed"
            )
        signs = None if self.signs is None else self.signs[:upto]
        return CoefficientTable(self.index, self.blocks[:upto], signs)


class VerificationReport(NamedTuple):
    """Orthonormality residual, grading verdict and per-level diagnostics.

    ``output_levels`` holds the (level id, labels) the source's grading
    gives each table block, up to the first block it gives none, which
    ``levels_mismatch`` names (None when every block has one).
    """

    max_residual: float
    condition_numbers: tuple
    structural_ok: bool
    output_levels: tuple
    levels_mismatch: str | None
    tolerance: float
    passed: bool

    def lines(self):
        out = [
            f"max orthonormality residual: {self.max_residual:.6e} "
            f"(tolerance {self.tolerance:.1e})",
            f"structural grading zeros: {'ok' if self.structural_ok else 'violated'}",
        ]
        if self.levels_mismatch is not None:
            out.append(f"output levels: mismatch ({self.levels_mismatch})")
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

    ``eigh`` sees b times the exact power of four 4^-m, m >= 0, that
    brings max|b| below 2, and r is scaled by 2^-m after, so a block
    whose eigenvalues pass the float maximum normalizes too.  The
    spectrum is classified in those units, where the floor 1 is 4^-m.
    """
    m = max(math.frexp(max_abs(b))[1] // 2, 0)
    scale = math.ldexp(1.0, -2 * m)
    dec = eigh(b * scale)
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
        if w_min < -degeneracy_tol * max(abs(float(values[0])), scale):
            raise DegenerateMetric(
                f"{what} has eigenvalue {w_min / scale:.6e}; the metric is not positive definite",
                level=level,
            )
        raise LinearlyDependentInput(
            f"{what} is numerically singular (smallest eigenvalue {w_min / scale:.6e}); "
            f"the input vectors are not linearly independent",
            level=level,
        )
    p = int(np.count_nonzero(values > 0.0))
    signs = np.concatenate([np.ones(p, dtype=np.int64), -np.ones(n - p, dtype=np.int64)])
    # 2^-m / sqrt(λ 4^-m) rounds as 1 / sqrt(λ) does: every step is exact
    # up to one rounding, and scaling by a power of two keeps it.
    if p in (0, n):
        return _from_eigenbasis(dec, math.ldexp(1.0, -m) / np.sqrt(np.abs(values))), signs
    # values is descending, so positives already lead; flip the negative
    # block to get descending |eigenvalue| there as well.
    order = np.concatenate([np.arange(p), np.arange(n - 1, p - 1, -1)])
    return dec.vectors[:, order] * (math.ldexp(1.0, -m) / np.sqrt(np.abs(values[order]))), signs


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
    c = np.zeros((index.total, index.total), dtype=np.complex128)
    finished_signs = np.ones(index.total) if signed else None
    blocks = []
    level_signs = [] if signed else None
    # Promotion only ever merges a singleton into the next level, so the
    # level at hand is the row range [lo, hi) and the finished output
    # vectors always occupy the leading columns [0, lo) of c.  A promoted
    # singleton leaves lo where it is, and the next level's block starts
    # with its column.
    lo = 0
    for k in range(len(index)):
        hi = index.offsets[k] + index.sizes[k]
        b, sd = _projected_block(gram, c, finished_signs, lo, hi)
        if signed and _isotropic_singleton(gram[lo:hi, lo:hi], b, degeneracy_tol):
            _check_promotion(index, k)
            continue
        r, signs = level_normalizer(b, degeneracy_tol, k, signed)
        if signed:
            finished_signs[lo:hi] = signs
            level_signs.append(signs)
        p = -sd @ r
        c[lo:hi, lo:hi] = r
        c[:lo, lo:hi] = c[:lo, :lo] @ p
        blocks.append(c[:, lo:hi].copy())
        lo = hi
    return CoefficientTable(index, blocks, level_signs)


def _projected_block(gram, c, signs, lo, hi):
    """(Γ - D†SD, SD) for the input rows [lo, hi) against the finished
    columns c[:lo, :lo], with Γ their Gram block and D = C† G[:lo, lo:hi].

    ``signs`` holds the finished vectors' signs; None stands for all +1,
    whose product changes no value.  D is formed from the k x lo panel of
    G, so the finished block is never conjugated as a whole; the result
    is left for the normalizer to symmetrize (inside ``eigh``).  The level
    loop and :func:`verify_table`'s re-decided promotions both call this,
    so they decide from the same bits.
    """
    d = (gram[:lo, lo:hi].conj().T @ c[:lo, :lo]).conj().T
    sd = d if signs is None else signs[:lo, None] * d
    return gram[lo:hi, lo:hi] - d.conj().T @ sd, sd


def _merge_fault(index, first, last, signed):
    """Why input levels ``first``..``last`` can form no output level (None
    when they can, given the vector of ``first`` is isotropic).

    Only a signed run merges, and only a singleton into the level right
    after it, which must not hold the same label.
    """
    if not signed or index.sizes[first] != 1 or last != first + 1:
        return f"merge input levels {first}..{last}, which no run does"
    label = index.levels[first][0]
    if label in index.levels[last]:
        return f"merge two input levels holding '{label}'"
    return None


def _check_promotion(index, k):
    """Raise unless the isotropic singleton level ``k`` can join level k + 1."""
    label = index.levels[k][0]
    if k + 1 == len(index):
        raise TerminalIsotropicVector(
            f"level {k}: lone isotropic vector '{label}' has no following level to join",
            level=k,
            label=label,
        )
    if _merge_fault(index, k, k + 1, signed=True):
        # Checked here, where the promotion is decided, so the error names
        # both input levels rather than the merged output level.
        raise ValueError(
            f"promoting isotropic '{label}' from level {k} into level "
            f"{k + 1} would repeat the label '{label}' in one output level"
        )


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
            level = int(np.searchsorted(np.asarray(index.offsets), i, side="right") - 1)
            if norm_sq < -band:
                raise DegenerateMetric(
                    f"vector {i} has squared norm {norm_sq:.6e} during "
                    f"Gram-Schmidt; the metric is not positive definite",
                    level=level,
                )
            raise LinearlyDependentInput(
                f"vector {i} became numerically null during Gram-Schmidt", level=level
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


def _column_levels(index, blocks):
    """(start, stop, first, last) per block: its flat column range and the
    input levels holding its first and its last column.

    The blocks' columns follow the flat input order of ``index`` side by
    side; more than ``index.total`` columns in all is a ShapeMismatch.
    """
    ends = np.add(index.offsets, index.sizes)
    stops = list(accumulate(block.shape[1] for block in blocks))
    if stops and stops[-1] > index.total:
        raise ShapeMismatch(
            f"the blocks hold {stops[-1]} coefficient columns for {index.total} inputs"
        )
    starts = [0] + stops[:-1]
    firsts = np.searchsorted(ends, starts, side="right").tolist()
    lasts = np.searchsorted(ends, np.subtract(stops, 1), side="right").tolist()
    return list(zip(starts, stops, firsts, lasts))


def _output_levels(index, blocks):
    """(level id, labels) per block: the input level holding its last
    column (a level's id is its position) and the flat input labels of
    its columns.  The one source of a table's output levels."""
    labels = tuple(chain.from_iterable(index.levels))
    return tuple(
        (last, labels[start:stop]) for start, stop, _, last in _column_levels(index, blocks)
    )


def _structural_zeros_ok(index, blocks):
    """True when no block has a nonzero entry on the rows of a higher level.

    Every row at or after the end of the input level holding a block's
    last column must be exactly zero, so a promoted output level ends
    where the last input level it merged ends.  Blocks must have
    ``index.total`` rows and at most as many columns in all.
    """
    ends = np.add(index.offsets, index.sizes)
    return not any(
        np.any(block[ends[last] :] != 0.0)
        for block, (*_, last) in zip(blocks, _column_levels(index, blocks))
    )


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


def verify_table(
    source, table, tolerance=DEFAULT_VERIFY_TOL, degeneracy_tol=DEFAULT_DEGENERACY_TOL
):
    """Judge a table against its source from its coefficients alone.

    Recomputes the full matrix of pairwise inner products C† G C through
    the Gram matrix, compares it with the identity (or diag(signs) for
    signed tables), checks the structural grading zeros and the output
    levels, and reports per-level condition numbers σmax/σmin of the
    normalizer blocks, labelled by the input level holding each block's
    last column.  ``output_levels`` are the table's own, cut off at the
    first block that is no output level of the source.

    Each block's column range must be one input level of the source or,
    on a signed table, a singleton merged into the next level as the
    loop promotes: without repeating a label, and only where its raw or
    projected 1x1 block is isotropic under ``degeneracy_tol``.

    The table passes when its residual is at most ``tolerance`` and its
    output levels and structural zeros hold.  The zeros are waived only
    for a Euclidean table whose stacked C is exactly Hermitian and
    positive definite: that C is the Gram method's G^(-1/2), whatever
    produced it.  Every block must have ``index.total`` rows, and all of
    them at most as many columns (ShapeMismatch otherwise).
    """
    index = source.index
    gram = source.matrix
    for pos, block in enumerate(table.blocks):
        if block.shape[0] != index.total:
            raise ShapeMismatch(
                f"level entry {pos} has {block.shape[0]} coefficient rows, "
                f"expected {index.total}"
            )
    spans = _column_levels(index, table.blocks)
    c = np.hstack(table.blocks)
    signs = None if table.signs is None else np.concatenate(table.signs)
    target = np.eye(c.shape[1]) if signs is None else np.diag(signs)
    max_residual = max_abs(c.conj().T @ gram @ c - target)
    structural_ok = _structural_zeros_ok(index, table.blocks)
    mismatch = None
    derived = len(spans)  # the blocks that are output levels of the source
    for pos, (start, stop, first, last) in enumerate(spans):
        if stop != index.offsets[last] + index.sizes[last]:
            mismatch = "split an input level"
        elif last > first:
            mismatch = _merge_fault(index, first, last, signs is not None)
            if mismatch is None and not _isotropic_singleton(
                gram[start : start + 1, start : start + 1],
                _projected_block(gram, c, signs, start, start + 1)[0],
                degeneracy_tol,
            ):
                mismatch = (
                    f"merge input level {first} into {last}, but its vector is not isotropic"
                )
        if mismatch is not None:
            mismatch = f"levels[{pos}] columns {start}..{stop - 1} {mismatch}"
            derived = pos
            break
    conditions = tuple(
        zip((last for *_, last in spans), _condition_numbers(table.normalizers))
    )
    passed = max_residual <= tolerance and mismatch is None and (
        structural_ok or (signs is None and _is_loewdin(c))
    )
    return VerificationReport(
        max_residual=max_residual,
        condition_numbers=conditions,
        structural_ok=structural_ok,
        output_levels=_output_levels(index, table.blocks)[:derived],
        levels_mismatch=mismatch,
        tolerance=float(tolerance),
        passed=bool(passed),
    )
