"""Per-pair reference computations the tests check the level loop against.

The loop forms every level in one pass over the finished coefficient
matrix; these helpers recompute the same quantities one lower level at
a time, straight from the Gram matrix and the finished blocks.
"""

import numpy as np

from gradedortho import LevelNotReady, ShapeMismatch, hermitize


def cross_overlap(source, table, k, j):
    """Overlaps between finished level-j vectors and raw level-k vectors.

    Entry (beta, gamma) is the inner product of finished vector beta of
    level j with raw basis vector gamma of level k, computed entirely
    from the Gram matrix and the coefficient table.
    """
    if j >= k:
        raise LevelNotReady(f"level {j} is not below level {k}")
    if j >= table.completed:
        raise LevelNotReady(
            f"level {j} is not finished yet (frontier is {table.completed})"
        )
    cols = source.index.level_slice(k)
    return table.blocks[j].conj().T @ source.matrix[:, cols]


def residual_gram(gamma_k, corrections):
    """Level Gram block minus the finished-level projection corrections."""
    b = np.array(gamma_k, dtype=np.complex128)
    for delta in corrections:
        if delta.shape != b.shape:
            raise ShapeMismatch(
                f"correction shape {delta.shape} does not match block {b.shape}"
            )
        b = b - delta
    return hermitize(b)[0]


def mixing_block(overlap, normalizer):
    """Lower-level mixing coefficients induced by an overlap block."""
    if overlap.shape[1] != normalizer.shape[0]:
        raise ShapeMismatch(
            f"overlap shape {overlap.shape} does not conform with "
            f"normalizer shape {normalizer.shape}"
        )
    return -overlap @ normalizer


def residual_gram_direct(source, table, k):
    """Brute-force Gram matrix of the projected level-k vectors.

    Forms each projected vector explicitly in coefficient space (raw
    vector minus its expansion over all finished vectors) and contracts
    the full Gram matrix; serves as the independent oracle for
    :func:`residual_gram`.
    """
    if k > table.completed:
        raise LevelNotReady(
            f"levels below {k} are not all finished (frontier {table.completed})"
        )
    gram = source.matrix
    index = source.index
    cols = index.level_slice(k)
    h = np.zeros((index.total, index.sizes[k]), dtype=np.complex128)
    h[cols, :] = np.eye(index.sizes[k])
    for j in range(k):
        finished = table.blocks[j]
        coeffs = finished.conj().T @ (gram[:, cols])
        h = h - finished @ coeffs
    return hermitize(h.conj().T @ gram @ h)[0]
