"""Graded pseudo-orthonormalization for nondegenerate indefinite metrics.

Projection against finished levels carries each finished vector's sign
(pseudo-norm +1 or -1), the per-level normalization brings the projected
block to diag(+1.., -1..), and a lone isotropic vector is promoted into
the following level before that level is processed.  The whole run
assumes the metric is nondegenerate in the strong sense: every subsystem
with more than one element has a nondegenerate Gram matrix.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMetric,
    NotACounterexample,
    TerminalIsotropicVector,
)
from .grading import GradedIndex
from .ortho import CoefficientTable
from .spectral import (
    DEFAULT_DEGENERACY_TOL,
    hermitize,
    max_abs,
    pseudo_normalizer,
)


class SignedCoefficientTable(CoefficientTable):
    """Coefficient table whose output vectors carry pseudo-norm signs.

    ``level_signs[k]`` aligns with the columns of ``blocks[k]``.
    Columns are grouped by the post-promotion levels described by
    ``output_index``; coefficient rows stay in the original flat order
    of ``index``.
    """

    def __init__(self, index, output_index, blocks, normalizers, mixings,
                 level_signs, promotions):
        super().__init__(index, blocks, normalizers, mixings)
        self.output_index = output_index
        self.level_signs = list(level_signs)
        self.promotions = list(promotions)

    @property
    def signs(self):
        return self.level_signs

    def output_level_ids(self):
        return tuple(self.output_index.level_ids[: self.completed])

    def output_labels(self):
        return tuple(self.output_index.levels[: self.completed])


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


def pseudo_orthonormalize_graded(source, degeneracy_tol=DEFAULT_DEGENERACY_TOL):
    """Pseudo-orthonormalize a graded system, promoting isotropic strays.

    Returns a :class:`SignedCoefficientTable` whose columns satisfy
    c_a† G c_b = sign(a) * delta_ab.  A singleton level whose vector is
    isotropic is merged into the next level (logged in ``promotions``);
    if no next level exists the run fails with TerminalIsotropicVector.
    On a positive definite source every step reduces exactly to the
    Euclidean path and all signs come out +1.
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
    finished_signs = np.zeros(index.total)
    blocks = []
    normalizers = []
    mixings = {}
    level_signs = []
    promotions = []
    out_ids = []
    out_labels = []
    out_slices = []

    pos = 0
    while pos < len(pending):
        level = pending[pos]
        lo = level["lo"]
        cols = slice(lo, level["hi"])
        gamma = gram[cols, cols]
        raw_scale = max(max_abs(gamma), 1.0)
        if is_lone_isotropic(gamma, degeneracy_tol):
            _promote(pending, pos, promotions)
            pos += 1
            continue
        d = c[:lo, :lo].conj().T @ gram[:lo, cols]
        signed = finished_signs[:lo, None] * d
        b = hermitize(gamma - d.conj().T @ signed)[0]
        if is_lone_isotropic(b, degeneracy_tol, scale=raw_scale):
            # Unreachable when the nondegeneracy hypothesis holds, but a
            # projected singleton that collapses gets the same treatment.
            _promote(pending, pos, promotions)
            pos += 1
            continue
        try:
            r, signs = pseudo_normalizer(b, degeneracy_tol)
        except DegenerateMetric as err:
            raise DegenerateMetric(
                f"level {level['id']}: projected Gram block is degenerate; "
                f"the metric violates the nondegeneracy hypothesis",
                level=level["id"],
            ) from err
        p = -signed @ r
        c[cols, cols] = r
        c[:lo, cols] = c[:lo, :lo] @ p
        finished_signs[cols] = signs
        k_out = len(blocks)
        for j, rows in enumerate(out_slices):
            mixings[(k_out, j)] = p[rows]
        blocks.append(c[:, cols].copy())
        normalizers.append(r)
        level_signs.append(signs)
        out_ids.append(level["id"])
        out_labels.append(tuple(level["labels"]))
        out_slices.append(cols)
        pos += 1

    output_index = GradedIndex(out_labels, level_ids=out_ids)
    return SignedCoefficientTable(
        index, output_index, blocks, normalizers, mixings, level_signs, promotions
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
    target["labels"] = level["labels"] + target["labels"]
    target["lo"] = level["lo"]
    promotions.append((level["id"], label, target["id"]))


@dataclass(frozen=True)
class FailureTrace:
    """Record of the unsolvable projection equation against an isotropic vector.

    Orthogonalizing the second vector against the first asks for alpha
    with coefficient * alpha = right_side; an isotropic first vector
    makes the coefficient zero while the right side stays nonzero.
    """

    coefficient: complex
    right_side: complex
    solvable: bool
    detail: str


def gram_schmidt_isotropic_obstruction(gram, degeneracy_tol=DEFAULT_DEGENERACY_TOL):
    """Demonstrate why sequential projection dies on an isotropic leader.

    Expects a 2x2 indefinite Gram matrix whose first vector is isotropic
    and not orthogonal to the second; returns the trace of the
    unsolvable equation.  Anything else raises NotACounterexample.
    """
    gram, _ = hermitize(gram)
    if gram.shape != (2, 2):
        raise NotACounterexample(
            f"the demonstration needs a 2x2 Gram matrix, got {gram.shape}"
        )
    scale = max(max_abs(gram), 1.0)
    band = degeneracy_tol * scale
    if abs(gram[0, 0]) > band:
        raise NotACounterexample(
            f"first vector is not isotropic: squared pseudo-norm {gram[0, 0]:.6e}"
        )
    if abs(gram[0, 1]) <= band:
        raise NotACounterexample(
            "the vectors are initially orthogonal, so no projection is needed"
        )
    coefficient = complex(gram[0, 0])
    right_side = complex(-gram[1, 0])
    return FailureTrace(
        coefficient=coefficient,
        right_side=right_side,
        solvable=False,
        detail=(
            f"projection coefficient alpha must satisfy "
            f"{coefficient} * alpha = {right_side}, which has no solution"
        ),
    )
