"""Grading-preserving orthonormalization, plus the two classical
reference methods it degenerates to.

All vectors live purely in coefficient space: an output vector is a
column of coefficients over the flat input basis, and every inner
product is a contraction through the source's Gram matrix using the
sesquilinear form u† G v.  Level k is produced by symmetrically
normalizing its Gram block after the contributions of all finished
lower levels have been projected out, so the result is orthonormal
across and within levels while each output vector stays inside the span
of its own and lower levels.  The references are dense LAPACK calls:
Gram-Schmidt is the inverse of the upper Cholesky factor of G, the Gram
method G^(-1/2) from one ``eigh``.  :func:`verify_table` judges any
table and returns its verdict as data; only the command line prints it.
Every array takes the dtype of G, float64 when it is real and
complex128 otherwise, so a real problem runs in real LAPACK and BLAS
and its tables are real.  A Fourier source, the one that holds
``moments``, skips the loop under both metrics: its G is Toeplitz, and
the Levinson recursion gives the same table in O(N²) work.
"""

import math
from contextlib import contextmanager
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import DegenerateMetric, LinearlyDependentInput, TerminalIsotropicVector
from .gram import fourier_harmonics
from .spectral import _hermitian_part, eigh, max_abs

DEFAULT_DEGENERACY_TOL = 1e-10
DEFAULT_VERIFY_TOL = 1e-9


class CoefficientTable:
    """Output of an orthonormalization run: one coefficient matrix, cut into levels.

    ``matrix`` is the N x N array, of G's dtype for a run's table, whose
    columns hold the output vectors' coefficients over the full flat
    input basis, level after level in the flat input order of
    ``index``.  ``stops[k]`` is one past the last column of output level
    k, so ``blocks[k]`` is the column range ``stops[k-1]:stops[k]``; rows
    belonging to higher levels are exactly zero for the graded and
    Gram-Schmidt methods.  Everything else about
    a level follows from its block: the normalizer r acting on level k's
    own raw vectors is its own rows (``normalizers``), and the block is
    E_k r + sum over j < k of blocks[j] (-S_j blocks[j]† G E_k r), where
    E_k picks level k's raw vectors and S_j holds the signs of level j's
    vectors (all +1 on a Euclidean table).

    ``signs`` is None for a Euclidean table; for a signed one it holds
    the pseudo-norm (+1 or -1) of each column.  The column ranges fix the
    output levels: ``output_levels()`` gives each block's level id and
    labels, and ``promotions`` the blocks that merged an isotropic
    singleton into the level after it.  ``blocks`` and ``normalizers``
    are views of ``matrix``.

    A table is always whole: the C of a finished run, every output level
    in it.  ``matrix`` and ``signs`` may be any array-like and are kept
    as numpy arrays (int64 signs); an ndarray matrix and int64 signs are
    not copied.  ``matrix`` must be N x N for the ``index.total`` = N
    inputs, ``stops`` must strictly increase up to N and ``signs`` hold
    one +1 or -1 per column (ValueError otherwise).
    """

    def __init__(self, index, matrix, stops, signs=None):
        matrix = np.asarray(matrix)
        n = index.total
        if matrix.shape != (n, n):
            raise ValueError(f"the matrix has shape {matrix.shape}, expected ({n}, {n})")
        stops = tuple(stops)
        bounds = (0, *stops)
        if bounds[-1] != n or any(a >= b for a, b in zip(bounds, stops)):
            raise ValueError(f"column stops {list(stops)} must strictly increase to {n}")
        if signs is not None:
            signs = np.asarray(signs)
            if signs.shape != (n,):
                raise ValueError(f"{signs.size} signs for {n} coefficient columns")
            bad = signs[(signs != 1) & (signs != -1)]
            if bad.size:
                raise ValueError(f"sign {bad[0]} is neither +1 nor -1")
            signs = signs.astype(np.int64, copy=False)
        self.index = index
        self.matrix = matrix
        self.stops = stops
        self.signs = signs

    @property
    def blocks(self):
        """Each output level's coefficient columns."""
        return [self.matrix[:, a:b] for a, b in zip((0, *self.stops), self.stops)]

    @property
    def normalizers(self):
        """Each level's square block on its own raw vectors.

        The columns follow the flat input order, so level k's own rows
        are its column range.
        """
        return [self.matrix[a:b, a:b] for a, b in zip((0, *self.stops), self.stops)]

    def output_levels(self):
        """(level id, labels) per block: the id of the input level holding
        its last column and the flat input labels of its columns."""
        return _output_levels(self.index, self.stops)

    @property
    def promotions(self):
        """``(from_level, label, to_level)`` per block spanning two input levels."""
        return [
            (first, self.index.levels[first][0], last)
            for *_, first, last in _column_levels(self.index, self.stops)
            if last > first
        ]


class VerificationReport(NamedTuple):
    """Orthonormality residual, grading verdict and per-level diagnostics.

    Data only: ``condition_numbers`` holds (level id, σmax/σmin) per
    block and ``tolerance`` the residual bound the verdict used.
    ``output_levels`` holds the (level id, labels) the source's grading
    gives each table block, up to the first block it gives none, which
    ``levels_mismatch`` names (None when every block has one; a result
    file's report may name a level header there instead).
    """

    max_residual: float
    condition_numbers: tuple
    structural_ok: bool
    output_levels: tuple
    levels_mismatch: str | None
    tolerance: float
    passed: bool


def level_normalizer(
    b, degeneracy_tol=DEFAULT_DEGENERACY_TOL, level=None, signed=False, raw=None
):
    """(r, signs) with r† b r = diag(signs), +1 first, from one ``eigh`` of b.

    A definite block gets the Hermitian V |Λ|^(-1/2) V†; a mixed one the
    eigenvectors scaled by |λ|^(-1/2), each sign block by descending |λ|.
    One band B = tol·max(max|Γ|, max|λ|) refuses a block, Γ being ``raw``,
    the level's Gram block before projection (b itself when None): on a
    1x1 block it is Gram-Schmidt's tol·|G_ii|, and 4^k·b (with 4^k·Γ) is
    judged as b.  Euclidean (``signed`` false): λmin <= B fails, as
    DegenerateMetric when λmin < -B, else LinearlyDependentInput (what
    rounding leaves of a dependent vector, of either sign).  Signed:
    min|λ| <= B is DegenerateMetric.  Errors carry ``level`` (None names
    the full Gram matrix) and give the eigenvalue judged and the band.

    ``eigh`` sees b times the exact power of four 4^-m that brings
    max|b| into [1/2, 2), and r is scaled by 2^-m after, so a block
    whose eigenvalues pass the float maximum normalizes too; B is formed
    in those units.  A b with an entry that is not finite (a projection
    that overflowed) is a ValueError naming the level.

    b may also be an (..., n, n) stack of blocks, ``raw`` then None or a
    stack of the same shape and ``level`` the blocks' ids, of shape
    ``b.shape[:-2]``; r and signs are stacked alike.  One ``eigh`` of
    the stack gives each block the bits of its own 2-D call, with its
    own scaling, band and phases, and the first block in flat order that
    its own call would refuse raises that call's error.
    """
    largest = np.abs(b).max(axis=(-2, -1))
    if not np.isfinite(largest).all():
        first = np.flatnonzero(~np.isfinite(largest))[0]
        if first:  # a block before it may be refused
            flat = b.reshape(-1, *b.shape[-2:])
            raws = None if raw is None else raw.reshape(flat.shape)[:first]
            level_normalizer(flat[:first], degeneracy_tol, _ids(level)[:first], signed, raws)
        raise ValueError(f"{_block_name(_ids(level)[first])} is not finite")
    # 4^-m itself can pass the float range (a subnormal b), 2^-m cannot
    half = np.ldexp(1.0, -(np.frexp(largest)[1] // 2))
    values, vectors = eigh(b * half[..., None, None] * half[..., None, None])
    n = values.shape[-1]
    gamma = (largest if raw is None else np.abs(raw).max(axis=(-2, -1))) * half * half
    top = np.maximum(values[..., 0], -values[..., -1])  # values is descending
    low = np.abs(values).min(axis=-1) if signed else values[..., -1]
    band = degeneracy_tol * np.maximum(gamma, top)
    refused = low <= band
    if refused.any():
        first = refused.argmax()
        lid = _ids(level)[first]
        low, band, half, top, gamma = (np.ravel(x)[first] for x in (low, band, half, top, gamma))
        scale = "max|eigenvalue|" if top > gamma else "max|G|" if lid is None else "max|G_kk|"
        quantity = "smallest |eigenvalue|" if signed else "smallest eigenvalue"
        raise _refusal(
            _block_name(lid), quantity, low / half / half, band / half / half, scale, lid, signed
        )
    # values is descending, so the positive eigenvalues lead
    positive = values > 0.0
    signs = np.where(positive, np.int64(1), np.int64(-1))
    p = positive.sum(axis=-1)
    # 2^-m / sqrt(λ 4^-m) rounds as 1 / sqrt(λ) does: every step is exact
    # up to one rounding, and scaling by a power of two keeps it.
    scaled = vectors * (half[..., None] / np.sqrt(np.abs(values)))[..., None, :]
    definite = (p == 0) | (p == n)
    if definite.all():
        return _hermitian_part(scaled @ vectors.swapaxes(-1, -2).conj()), signs
    # Flip the negative block to get descending |eigenvalue| there as
    # well.  Each block's columns are taken as rows of its transpose, so
    # r is column-major per block, as indexing a 2-D block's columns
    # leaves it: the loop's products with r read that layout.
    columns = np.arange(n)
    order = np.where(positive, columns, n - 1 + p[..., None] - columns)
    r = np.take_along_axis(scaled.swapaxes(-1, -2), order[..., :, None], axis=-2)
    r = r.swapaxes(-1, -2)
    if definite.any():
        r[definite] = _hermitian_part(
            scaled[definite] @ vectors[definite].swapaxes(-1, -2).conj()
        )
    return r, signs


def _ids(level):
    """The block ids of a stack, in flat order (one id for a 2-D block)."""
    return np.ravel(np.asarray(level, dtype=object))


def _block_name(level):
    return "full Gram matrix" if level is None else f"level {level}: projected Gram block"


def _refusal(what, quantity, value, band, scale, level, signed=False, note=""):
    """The error refusing ``what`` (a block or a Gram-Schmidt pivot) whose
    ``quantity`` reads ``value`` within +/-``band``, degeneracy_tol times
    ``scale``: DegenerateMetric when ``signed`` or below -band, else
    LinearlyDependentInput.  ``note`` ends the parenthesis."""
    if signed:
        kind, verb = DegenerateMetric, "is degenerate"
        clause = "the metric violates the nondegeneracy hypothesis"
    elif value < -band:
        kind, verb = DegenerateMetric, "is not positive semidefinite"
        clause = "the metric is not positive definite"
    else:
        kind, verb = LinearlyDependentInput, "is numerically singular"
        clause = "the input vectors are not linearly independent"
    margin = f"({quantity} {value:.6e}, the band +/-{band:.6e} (degeneracy_tol * {scale}){note})"
    return kind(f"{what} {verb} {margin}; {clause}", level=level)


def orthonormalize_graded(source, degeneracy_tol=DEFAULT_DEGENERACY_TOL):
    """Orthonormalize a graded system while preserving its grading.

    Levels are processed in increasing order; each one is projected
    against all finished levels and then normalized symmetrically, so
    singleton levels reproduce Gram-Schmidt and a single level
    reproduces the Gram (Loewdin) method.  A Fourier source (one with
    ``moments``, from :func:`~gradedortho.gram.fourier_gram`) takes the
    Levinson recursion in O(N²) instead of the loop below, with the
    same normalizer, band and errors; its table is the loop's up to
    rounding.

    The finished output vectors are the leading columns of one N x N
    coefficient matrix C; because it is block upper triangular, level k
    at rows lo:hi needs only the overlaps D = C[:lo, :lo]† G[:lo, lo:hi]
    with all finished levels at once (one matmul), the projected block
    Γ - D†D, and one more matmul C[:lo, :lo] (-D q) for its lower-level
    coefficients.  A level block is refused by :func:`level_normalizer`'s
    band, which on a singleton level is Gram-Schmidt's, and the message
    adds the conditioning of G.

    Parameters
    ----------
    source : GramSource
        Graded index plus positive definite Gram matrix.
    degeneracy_tol : float
        Width of the refusal band, relative to the level's Gram block
        or the projected block's largest |eigenvalue|, whichever is
        larger (see :func:`level_normalizer`).

    Returns
    -------
    CoefficientTable
    """
    with _naming_conditioning(source.matrix):
        return _orthonormalize_levels(source, degeneracy_tol, signed=False)


@contextmanager
def _naming_conditioning(gram):
    """Add the conditioning of the full Gram matrix G to the message of a
    LinearlyDependentInput or DegenerateMetric raised inside, from the
    extreme eigenvalues of one ``eigvalsh``: λmax/λmin; "> 1/eps" when
    |λmin| <= eps·max|λ|; otherwise λmin < 0, and G is named indefinite
    (with λmin/λmax) or, when λmax <= eps·max|λ|, negative semidefinite."""
    try:
        yield
    except (LinearlyDependentInput, DegenerateMetric) as err:
        # In units of max|G| (floored at the smallest normal float), so
        # no eigenvalue overflows and the text is the same on 4^k G.
        eps = np.finfo(float).eps
        scale = max(max_abs(gram), np.finfo(float).tiny)
        low, high = np.linalg.eigvalsh(gram / scale)[[0, -1]]
        top = max(-low, high)
        note = "has condition number > 1/eps (smallest eigenvalue <= eps * largest)"
        if low > eps * high:
            note = f"has condition number {high / low:.3e}"
        elif low < -eps * top and high > eps * top:
            note = f"is indefinite (smallest/largest eigenvalue {low / high:.3e})"
        elif low < -eps * top:
            note = "is negative semidefinite (largest eigenvalue <= eps * |smallest|)"
        err.args = (f"{err}; G {note}",)
        raise


def _isotropic_singleton(gram, lo, hi, b, degeneracy_tol):
    """True when a signed run promotes the level at rows [lo, hi) of G.

    ``b`` is that level's Gram block projected against the finished
    columns.  A singleton level is isotropic when |γ| = |G_lo,lo| or
    |Re b| is at most tol·max|G_lo,j| over its row of G: the band has
    the units of G, and only the symmetric part of the projected block,
    its real part, is tested.
    """
    if hi - lo != 1:
        return False
    band = degeneracy_tol * max_abs(gram[lo])
    return bool(min(abs(gram[lo, lo]), abs(b[0, 0].real)) <= band)


def _orthonormalize_levels(source, degeneracy_tol, signed):
    """The graded level loop of both metrics.

    Each level is projected against all finished levels with the signs
    S of the finished vectors (all +1 for the Euclidean metric) and
    normalized symmetrically by :func:`level_normalizer`.  Only the
    signed metric promotes a lone isotropic vector into the following
    level and hands its signs to the table.  The table returned is the
    loop's own state: C, the column where each output level ends and,
    for the signed metric, the finished signs.
    """
    gram = source.matrix
    index = source.index
    if hasattr(source, "moments"):  # a Fourier source: G is Toeplitz
        return _fourier_levels(source, degeneracy_tol, signed)
    c = np.zeros((index.total, index.total), dtype=gram.dtype)
    signs = np.ones(index.total, dtype=np.int64)
    stops = []
    # Promotion only ever merges a singleton into the next level, so the
    # level at hand is the row range [lo, hi) and the finished output
    # vectors always occupy the leading columns [0, lo) of c.  A promoted
    # singleton leaves lo where it is, and the next level's block starts
    # with its column.
    lo = 0
    # A projection that overflows leaves a non-finite block, which
    # level_normalizer reports by level; numpy need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(index)):
            hi = index.ends[k]
            b, sd = _projected_block(gram, c, signs, lo, hi)
            if signed and _isotropic_singleton(gram, lo, hi, b, degeneracy_tol):
                _check_promotion(index, k)
                continue
            r, signs[lo:hi] = level_normalizer(
                b, degeneracy_tol, k, signed, gram[lo:hi, lo:hi]
            )
            p = -sd @ r
            c[lo:hi, lo:hi] = r
            c[:lo, lo:hi] = c[:lo, :lo] @ p
            stops.append(hi)
            lo = hi
    return CoefficientTable(index, c, stops, signs if signed else None)


def _fourier_levels(source, degeneracy_tol, signed):
    """The graded table of a Fourier source in O(N²), by the Levinson recursion.

    Over the harmonics -M..M, G is the Hermitian Toeplitz T with
    T[i, j] = mu(i - j), and levels 0..k span the window -k..k.  The
    monic predictor a_n, with T_n a_n = α_n e_1 and a_n[0] = 1, grows by
    a_n+1 = [a_n; 0] - ε_n [0; J conj(a_n)], ε_n = T[n, :n] a_n / α_n
    (Levinson, J. Math. Phys. 25 (1947); weakly stable for positive
    definite T, Cybenko 1980).  α_n is read as (T_n a_n)[0] from a_n
    itself rather than carried as α_n-1 (1 - |ε_n-1|²), so b_k below
    is the Gram block of the vectors written.  The end columns Y_k of
    T_2k+1⁻¹ and the inverse b_k of their rows at +k and -k, the loop's
    projected block, have closed forms in a_2k: b_k = α_2k [[1, ε_2k],
    [conj(ε_2k), 1]], and Y_k b_k, level k's raw vectors less their
    projections on the lower levels, is [[0; J conj(a_2k)], [a_2k; 0]]
    over the window.  Level k's columns are Y_k b_k r_k, with r_k
    itself in its own rows; level 0 is the loop's call on G[:1, :1],
    and one call normalizes levels 1..M as one (M, 2, 2) stack of b_k
    against the raw blocks of G, so a refusal names the lowest failing
    level, with the loop's band and class.  The recursion runs on
    mu 4^-m, mu(0) 4^-m in [1/2, 2), so no product overflows; ε and
    a_n do not depend on that scale.  Nothing is promoted: a signed run
    gets the Euclidean table with every sign +1 when κ(G) < 1/eps and
    degeneracy_tol < 1, and at degeneracy_tol >= 1 level 0 is refused.
    """
    gram, index = source.matrix, source.index
    m = len(index) - 1
    c = np.zeros_like(gram)
    r0, signs = level_normalizer(gram[:1, :1], degeneracy_tol, 0, signed, gram[:1, :1])
    c[:1, :1] = r0
    if m == 0:
        return CoefficientTable(index, c, index.ends, signs if signed else None)
    half = math.ldexp(1.0, -(math.frexp(gram[0, 0].real)[1] // 2))
    mu = source.moments * half * half
    # rows[j], the flat row of harmonic j - m in fourier_gram's order;
    # levels[k - 1], the rows of +k and -k, at [ends[k - 1], ends[k])
    rows = np.argsort(fourier_harmonics(m))
    levels = np.column_stack([rows[m + 1 :], rows[m - 1 :: -1]])
    a = np.zeros_like(mu)
    a[0] = 1.0
    blocks = np.empty((m, 2, 2), dtype=gram.dtype)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(1, 2 * m + 1):
            alpha = np.vdot(mu[:n], a[:n]).real
            eps = (mu[n:0:-1] @ a[:n]) / alpha
            if n % 2 == 0:
                k = n // 2
                window = rows[m - k : m + k + 1]
                plus, minus = levels[k - 1]
                c[window[1:], plus] = a[n - 1 :: -1].conj()
                c[window[:-1], minus] = a[:n]
                d = alpha / half / half
                blocks[k - 1] = [[d, d * eps], [d * eps.conjugate(), d]]
            a[1 : n + 1] -= eps * a[n - 1 :: -1].conj()
        raw = gram[levels[:, :, None], levels[:, None, :]]
        r, level_signs = level_normalizer(blocks, degeneracy_tol, range(1, m + 1), signed, raw)
        for k, rk in enumerate(r, start=1):
            lo, hi = index.ends[k - 1], index.ends[k]
            c[:lo, lo:hi] = c[:lo, lo:hi] @ rk
            c[lo:hi, lo:hi] = rk
    signs = np.concatenate([signs, level_signs.ravel()])
    return CoefficientTable(index, c, index.ends, signs if signed else None)


def _projected_block(gram, c, signs, lo, hi):
    """(Γ - D†SD, SD) for the input rows [lo, hi) against the finished
    columns c[:lo, :lo], with Γ their Gram block and D = C† G[:lo, lo:hi].

    ``signs`` holds the finished vectors' signs, all +1 for the Euclidean
    metric.  D is formed from the k x lo panel of G, so the finished block
    is never conjugated as a whole; the result is left for the normalizer
    to symmetrize (inside ``eigh``).  The level loop and
    :func:`verify_table`'s re-decided promotions both call this, so they
    decide from the same bits.
    """
    d = (gram[:lo, lo:hi].conj().T @ c[:lo, :lo]).conj().T
    sd = signs[:lo, None] * d
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
        )
    if _merge_fault(index, k, k + 1, signed=True):
        # Checked here, where the promotion is decided, so the error names
        # both input levels rather than the merged output level.
        raise ValueError(
            f"promoting isotropic '{label}' from level {k} into level "
            f"{k + 1} would repeat the label '{label}' in one output level"
        )


def gram_schmidt_reference(source, degeneracy_tol=DEFAULT_DEGENERACY_TOL):
    """Classical Gram-Schmidt in coefficient space: C = (L†)⁻¹ for G = L L†.

    Orthonormalizes the flat level-major order one vector at a time with
    positive normalization; used as the oracle the graded method must
    reproduce when every level is a singleton.  In the G inner product
    that is the inverse of the upper Cholesky factor L† (Golub & Van
    Loan, Matrix Computations, §4.2).  Solving with L† needs no row
    exchanges, so C is exactly upper triangular.

    L_ii² is vector i's squared norm once the earlier ones are projected
    out.  At most tol·|G_ii|, a band in the units of G that does not grow
    with its conditioning and the one :func:`level_normalizer` forms for
    a singleton level, fails: DegenerateMetric below minus that band,
    else LinearlyDependentInput.  The message has the normalizer's
    shape, names the level, says when the reduced squared norm is within
    (i+1)·eps·max_{j<=i} G_jj, the rounding the factorization can leave
    there, and ends with the conditioning of G.  LAPACK does not say
    which pivot failed, so only then are leading blocks bisected for the
    first.
    """
    gram = source.matrix
    index = source.index
    bands = degeneracy_tol * np.abs(gram.diagonal().real)
    # Leading blocks of size good factor, of size bad do not; the full
    # matrix is tried first.
    good, bad, head, size = 0, index.total + 1, np.zeros((0, 0)), index.total
    while bad - good > 1:
        try:
            factor = np.linalg.cholesky(gram[:size, :size])
            ok = np.all(factor.diagonal().real ** 2 > bands[:size])
        except np.linalg.LinAlgError:
            ok = False
        if ok:
            good, head = size, factor
        else:
            bad = size
        size = (good + bad) // 2
    if good == index.total:
        return CoefficientTable(index, np.linalg.solve(head.conj().T, np.eye(good)), index.ends)
    i = good
    norm_sq = float(gram[i, i].real - np.sum(np.abs(np.linalg.solve(head, gram[:i, i])) ** 2))
    level = int(np.searchsorted(index.ends, i, side="right"))
    rounding = (i + 1) * np.finfo(float).eps * float(gram.diagonal().real[: i + 1].max())
    note = ""
    if abs(norm_sq) <= rounding:
        note = (
            f", within (i+1)*eps*max_(j<=i) G_jj = {rounding:.3e}, the rounding "
            f"the factorization can leave there"
        )
    with _naming_conditioning(gram):
        what = f"level {level}: the Gram-Schmidt pivot of vector {i}"
        raise _refusal(what, "reduced squared norm", norm_sq, bands[i], "|G_ii|", level, note=note)


def gram_method_reference(source, degeneracy_tol=DEFAULT_DEGENERACY_TOL):
    """Single-shot symmetric (Loewdin) orthonormalization of the flat set.

    Ignores the grading entirely: the whole coefficient table is the
    inverse square root of the full Gram matrix, so on multi-level
    problems the structural grading zeros do not hold.  G is refused by
    :func:`level_normalizer`'s band, which on G itself is tol·max|λ|
    (no entry of G exceeds its largest |eigenvalue|), and the message
    adds the conditioning of G.
    """
    with _naming_conditioning(source.matrix):
        c, _ = level_normalizer(source.matrix, degeneracy_tol)
    return CoefficientTable(source.index, c, source.index.ends)


def _column_levels(index, stops):
    """(start, stop, first, last) per output level: its flat column range
    and the input levels holding its first and its last column."""
    starts = (0, *stops[:-1])
    firsts = np.searchsorted(index.ends, starts, side="right").tolist()
    lasts = np.searchsorted(index.ends, np.subtract(stops, 1), side="right").tolist()
    return list(zip(starts, stops, firsts, lasts))


def _output_levels(index, stops):
    """(level id, labels) per output level: the input level holding its
    last column (a level's id is its position) and the flat input labels
    of its columns.  The one source of a table's output levels."""
    labels = tuple(chain.from_iterable(index.levels))
    return tuple(
        (last, labels[start:stop]) for start, stop, _, last in _column_levels(index, stops)
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
    for a Euclidean table whose C is exactly Hermitian and
    positive definite: that C is the Gram method's G^(-1/2), whatever
    produced it.  A table with other than N rows is a ValueError.
    """
    index = source.index
    gram = source.matrix
    c = table.matrix
    if c.shape[0] != index.total:
        raise ValueError(f"the table has {c.shape[0]} coefficient rows, the source {index.total}")
    signs = table.signs
    spans = _column_levels(index, table.stops)
    target = np.eye(c.shape[1]) if signs is None else np.diag(signs)
    # Coefficients near the float range overflow C† G C; the residual
    # then reads inf (or NaN) and fails, which needs no numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        max_residual = max_abs(c.conj().T @ gram @ c - target)
        structural_ok = True
        conditions = []
        mismatch = None
        derived = len(spans)  # the blocks that are output levels of the source
        for pos, (start, stop, first, last) in enumerate(spans):
            # Rows at or after the end of the input level holding the
            # block's last column must be exactly zero, so a promoted
            # output level ends where the last input level it merged ends.
            structural_ok = structural_ok and not np.any(c[index.ends[last] :, start:stop])
            # σmax/σmin of the normalizer itself rather than of r†r neither
            # squares the condition number nor overflows near the float
            # range.  A block with a NaN or inf entry reads inf without the
            # SVD, which does not converge on NaN.
            block = c[start:stop, start:stop]
            cond = float(np.linalg.cond(block)) if np.isfinite(block).all() else math.inf
            conditions.append((last, cond))
            if mismatch is not None:
                continue
            if stop != index.ends[last]:
                mismatch = "split an input level"
            elif last > first:
                mismatch = _merge_fault(index, first, last, signs is not None)
                if mismatch is None and not _isotropic_singleton(
                    gram,
                    start,
                    start + 1,
                    _projected_block(gram, c, signs, start, start + 1)[0],
                    degeneracy_tol,
                ):
                    mismatch = (
                        f"merge input level {first} into {last}, but its vector is not isotropic"
                    )
            if mismatch is not None:
                mismatch = f"levels[{pos}] columns {start}..{stop - 1} {mismatch}"
                derived = pos
    passed = max_residual <= tolerance and mismatch is None and (
        structural_ok or (signs is None and _is_loewdin(c))
    )
    return VerificationReport(
        max_residual=max_residual,
        condition_numbers=tuple(conditions),
        structural_ok=structural_ok,
        output_levels=_output_levels(index, table.stops)[:derived],
        levels_mismatch=mismatch,
        tolerance=float(tolerance),
        passed=bool(passed),
    )
