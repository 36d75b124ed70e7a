"""Graded pseudo-orthonormalization for nondegenerate indefinite metrics.

The signed run of the graded level loop in :mod:`gradedortho.ortho`.
Projection against finished levels carries each finished vector's sign
(pseudo-norm +1 or -1), the per-level normalization brings the projected
block to diag(+1.., -1..), and a lone isotropic vector is promoted into
the following level before that level is processed.  The whole run
assumes the metric is nondegenerate in the strong sense: every subsystem
with more than one element has a nondegenerate Gram matrix.
"""

from .ortho import DEFAULT_DEGENERACY_TOL, _orthonormalize_levels


def pseudo_orthonormalize_graded(source, degeneracy_tol=DEFAULT_DEGENERACY_TOL):
    """Pseudo-orthonormalize a graded system, promoting isotropic strays.

    Returns a :class:`~gradedortho.ortho.CoefficientTable` with
    ``signs``, whose columns satisfy c_a† G c_b = sign(a) * delta_ab.  A
    singleton level whose vector is isotropic is merged into the next
    level: its column leads that level's block, so the table's
    ``output_levels()`` and ``promotions`` show the merge.  If no next
    level exists the run fails with TerminalIsotropicVector, and if the
    next level holds the same label with ValueError.  On a positive
    definite source no singleton level is promoted unless its raw or
    projected value lies within the isotropy band, degeneracy_tol times
    the largest magnitude in its row of G; when none does, every step
    reduces exactly to the Euclidean path and all signs come out +1.
    """
    return _orthonormalize_levels(source, degeneracy_tol, signed=True)
