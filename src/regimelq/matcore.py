"""Dense symmetric-matrix algebra used throughout the solver.

All matrices handled here are small (n <= 16) dense ``numpy`` arrays.  A
"symmetric matrix" in this package is a plain ``float64`` ndarray that is
*exactly* symmetric; :func:`make_symmetric` is the validating constructor
that turns raw data into one.  Every spectral verdict of the package is
decided here: the PSD verdict (:func:`project_psd`, :func:`require_psd`),
the condition verdict (:func:`sym_inverse`, :func:`require_conditioned`)
and :func:`min_eigenvalue`.  Each function also takes a stack of matrices
(any leading axes, the matrices on the last two) and treats each member as
its own matrix, so the solver calls them once per time step or lattice
level rather than once per regime; a refusal names its ``member``.

Every product that is symmetric in exact arithmetic is explicitly
re-symmetrized after computation; this keeps roundoff from accumulating into
asymmetry over thousands of backward-integration steps.

A verdict reads a disc bound first, and refuses before LAPACK sees it a
member with a NaN entry or, beyond 1 x 1, an infinite one.  Each member's
eigenvalues lie in the union of its Gershgorin discs ``[d_i - r_i, d_i +
r_i]`` (diagonal entry, sum of the off-diagonal ``|m_ij|`` in row i of the
lower triangle reflected, which is what ``eigh`` reads), widened by
``DISC_MARGIN n max|m|``.  The widened discs also hold the eigenvalues
that LAPACK computes: ``eigh`` returns the exact eigenvalues of a matrix
within ``p(n) eps |m|_2`` of the input, with ``|m|_2 <= n max|m|`` and
``eps = 2.2e-16``, so the margin ``1e-12 n max|m|`` covers any ``p(n)``
up to about 4000, far above its size for n <= 16, plus the bound's own
rounding of about ``n eps max|m|``.  A 1 x 1 member needs no margin:
``dsyevd`` returns A(1,1) when N = 1.  Where the bound decides, the
verdict, and every returned array, is the one the eigendecomposition
gives.  Where it cannot (a disc reaching past the threshold, an entry
too large for the discs), the eigendecomposition runs on the whole stack.

All functions are pure and reentrant.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    AsymmetryExceeded, DimensionMismatch, NearSingular, PsdViolation, StructuralError,
)

# largest entrywise asymmetry max|M - M^T| that make_symmetric accepts
ASYM_TOL = 1e-10
# eigenvalues in (-PSD_TOL, 0) are roundoff; at or below -PSD_TOL, not PSD
PSD_TOL = 1e-9
# largest condition number |w|max / |w|min that the condition verdict passes
COND_THRESHOLD = 1e12
# rounding margin of the disc bound, in units of n max|m| over the stack
DISC_MARGIN = 1e-12
# largest n max|m| whose disc ends cannot overflow
_DISC_CAP = np.finfo(float).max / 2.0


def _floats(value, what: str) -> np.ndarray:
    """``value`` as a float array; StructuralError naming ``what`` for
    input that numpy cannot read as an array of numbers."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise StructuralError(f"{what} must be an array of numbers: {exc}") from exc


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return ``(m + m^T) / 2`` for an ndarray ``m``.  Works on stacks:
    only the last two axes are transposed."""
    return 0.5 * (m + m.mT)


def make_symmetric(raw) -> np.ndarray:
    """Validate and symmetrize a raw square matrix or a stack of them.

    Parameters
    ----------
    raw : array_like, shape (..., n, n)

    Returns
    -------
    ndarray
        ``(raw + raw^T) / 2``, exactly symmetric.

    Raises
    ------
    StructuralError
        If ``raw`` is not an array of numbers.
    DimensionMismatch
        If the last two axes of ``raw`` are not square.
    AsymmetryExceeded
        If the asymmetry ``max|raw - raw^T|`` of any member is larger than
        ``ASYM_TOL``.
    """
    m = _floats(raw, "matrix")
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {m.shape}")
    asym = float(np.max(np.abs(m - np.swapaxes(m, -1, -2)))) if m.size else 0.0
    if asym > ASYM_TOL:
        raise AsymmetryExceeded(
            f"max|M - M^T| = {asym:.3e} exceeds tolerance {ASYM_TOL:.3e}"
        )
    return symmetrize(m)


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix, or of any member of a
    stack."""
    return float(np.linalg.eigvalsh(np.asarray(m, dtype=float)).min())


def _frobenius(m: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each member of a stack, as the dot product that
    ``np.linalg.norm`` takes on a single matrix; its ``axis=`` form sums in
    another order."""
    flat = m.reshape(m.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat, flat))


@functools.cache
def _radius_weights(n: int) -> np.ndarray:
    """(n*n, n) 0/1 weights: a row-major flattened |m| times them gives the
    off-diagonal row sums of the matrix ``eigh`` reads, the lower triangle
    reflected."""
    w = np.zeros((n * n, n))
    for i in range(n):
        for j in range(i):
            w[i * n + j, [i, j]] = 1.0
    w.setflags(write=False)          # one array serves every caller
    return w


def _discs(m: np.ndarray):
    """Centres ``d`` and radii ``r``, each (..., n), of the Gershgorin
    discs of every member of ``m`` (n >= 2), and the margin ``pad``; None
    when an entry is NaN, infinite or large enough to overflow a disc end.
    Every eigenvalue that ``eigh`` or ``eigvalsh`` computes for a member
    lies in ``[min_i (d_i - r_i) - pad, max_i (d_i + r_i) + pad]`` (see the
    module docstring)."""
    n = m.shape[-1]
    a = np.abs(m)
    top = float(a.max(initial=0.0))
    if not top <= _DISC_CAP / n:
        return None
    r = (a.reshape(-1, n * n) @ _radius_weights(n)).reshape(a.shape[:-1])
    return m.diagonal(0, -2, -1), r, DISC_MARGIN * n * top


def _eigenvalue_floor(m: np.ndarray) -> float:
    """A number at or below every eigenvalue that ``eigh`` or
    ``eigvalsh`` computes for any member of ``m``; NaN when the discs
    decide nothing.  A 1 x 1 member is its own eigenvalue."""
    if m.shape[-1] == 1:
        return float(m.min())
    discs = _discs(m)
    if discs is None:
        return math.nan
    d, r, pad = discs
    return float((d - r).min()) - pad


def _unreadable(m: np.ndarray):
    """Index of the first member of the stack ``m`` with a NaN entry or,
    beyond 1 x 1, an infinite one, whose spectrum LAPACK garbles, or None."""
    bad = (np.isnan(m) if m.shape[-1] == 1 else ~np.isfinite(m)).any(axis=(-2, -1))
    return np.unravel_index(np.argmax(bad), bad.shape) if bad.any() else None


def _psd_verdict(m: np.ndarray, floor: float, eig) -> tuple:
    """Where the disc ``floor`` did not pass the stack ``m``: ``eig(m)``
    (eigh, or eigvalsh in a tuple) and its smallest eigenvalue, or
    PsdViolation naming the lowest member, a garbled one (NaN floor) first."""
    member = _unreadable(m) if floor != floor else None
    wmin = math.nan
    if member is None:
        out = eig(m)
        wmin = float(out[0].min())
        if wmin > -PSD_TOL:
            return *out, wmin
        low = out[0].min(axis=-1)
        member = np.unravel_index(np.argmin(low), low.shape)
    raise PsdViolation(f"min eigenvalue {wmin:.3e} at or below -matcore.PSD_TOL = "
                       f"{-PSD_TOL:.3e}", member)


def require_psd(m: np.ndarray) -> None:
    """The verdict of :func:`project_psd` without its clip."""
    floor = _eigenvalue_floor(m)
    if not floor > -PSD_TOL:
        _psd_verdict(m, floor, lambda m: (np.linalg.eigvalsh(m),))


def _certified(lo, hi):
    """The condition verdict per member from bounds ``lo <= |w| <= hi``:
    ``lo > 0``, ``hi`` finite and ``hi / COND_THRESHOLD <= lo``."""
    return (lo > 0.0) & (hi / COND_THRESHOLD <= lo) & (hi < np.inf)


def _conditioning(m: np.ndarray, eig) -> tuple:
    """``eig(m)`` (eigh, or eigvalsh in a tuple), or NearSingular naming the
    worst member of the stack ``m`` and its condition number, a garbled one first."""
    member, cond = _unreadable(m), np.inf
    if member is None:
        out = eig(m)
        aw = np.abs(out[0])
        lo, hi = aw.min(axis=-1), aw.max(axis=-1)
        refused = ~_certified(lo, hi)
        if not refused.any():
            return out
        with np.errstate(over="ignore"):
            ratio = np.divide(hi, lo, out=np.where(refused, np.inf, 0.0),
                              where=refused & (lo > 0.0) & (lo < np.inf))
        member = np.unravel_index(np.argmax(ratio), ratio.shape)
        cond = ratio[member]
    raise NearSingular(f"condition number {cond:.3e} exceeds threshold {COND_THRESHOLD:.3e}",
                       member)


def require_conditioned(m: np.ndarray) -> None:
    """The verdict of :func:`sym_inverse` without the inverse.  A 1 x 1
    member is its own eigenvalue interval, a larger one's is its discs'."""
    if m.shape[-1] == 1:
        lo = hi = m[..., 0, 0]
    elif (discs := _discs(m)) is not None:
        d, r, pad = discs
        lo = np.minimum.reduce(d - r, axis=-1) - pad
        hi = np.maximum.reduce(d + r, axis=-1) + pad
    else:
        lo = hi = np.float64(np.nan)
    if not _certified(lo, hi).all():
        _conditioning(m, lambda m: (np.linalg.eigvalsh(m),))


def sym_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric matrix, or of each member of a stack (the
    last two axes), via its spectral factorization.

    Raises
    ------
    NearSingular
        If the condition verdict refuses any member, naming the worst.
    """
    return _spectral_inverse(*_conditioning(np.asarray(m, dtype=float), np.linalg.eigh))


def _spectral_inverse(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The symmetric matrix (or stack) with eigenvalues ``1 / w`` and
    eigenvectors ``v``: the inverse of the one ``eigh`` gave ``(w, v)``
    for, with no condition verdict."""
    return symmetrize((v / w[..., None, :]) @ v.mT)


def project_psd(m: np.ndarray) -> np.ndarray:
    """Clip tiny negative eigenvalues of a (stack of) symmetric matrices.

    Eigenvalues in ``(-PSD_TOL, 0)`` are treated as roundoff and clipped to
    zero; anything at or below ``-PSD_TOL``, or NaN from an overflowed
    step, is a genuine failure and raises :class:`PsdViolation`.  The
    distinction keeps scheme bugs from being silently papered over.  A
    stack whose disc bound is nonnegative is returned as it is, without an
    eigendecomposition, as ``eigh``'s nonnegative spectrum would return it.
    """
    m = np.asarray(m, dtype=float)
    floor = _eigenvalue_floor(m)
    if floor >= 0.0 and floor > -PSD_TOL:
        return m
    w, v, wmin = _psd_verdict(m, floor, np.linalg.eigh)
    if wmin >= 0.0:
        return m
    w = np.clip(w, 0.0, None)
    return symmetrize((v * w[..., None, :]) @ v.mT)
