"""Dense symmetric-matrix algebra used throughout the solver.

All matrices handled here are small (n <= 16) dense ``numpy`` arrays.  A
"symmetric matrix" in this package is a plain ``float64`` ndarray that is
*exactly* symmetric; :func:`make_symmetric` is the validating constructor
that turns raw data into one.  Spectral queries (:func:`min_eigenvalue`)
and guarded inversion (:func:`sym_inverse`) operate on such arrays.
:func:`make_symmetric`, :func:`symmetrize`, :func:`sym_inverse` and
:func:`project_psd` also take a stack of matrices (any leading axes, the
matrices on the last two) and treat each member as its own matrix, so the
solver calls them once per time step or lattice level rather than once per
regime.

Every product that is symmetric in exact arithmetic is explicitly
re-symmetrized after computation; this keeps roundoff from accumulating into
asymmetry over thousands of backward-integration steps.

Guards that need only a verdict on the spectrum read it from a disc
bound before any eigendecomposition: :func:`project_psd` when nothing
needs clipping, and the solver's condition test on ``R + D'PD`` and PSD
check of finished iterates.  Each member's eigenvalues lie in the union of
its Gershgorin discs ``[d_i - r_i, d_i + r_i]`` (diagonal entry, sum of
the off-diagonal ``|m_ij|`` in row i of the lower triangle reflected,
which is what ``eigh`` reads), widened by ``DISC_MARGIN n max|m|``.  The
widened discs also hold the eigenvalues that LAPACK computes: ``eigh``
returns the exact eigenvalues of a matrix within ``p(n) eps |m|_2`` of the
input, with ``|m|_2 <= n max|m|`` and ``eps = 2.2e-16``, so the margin
``1e-12 n max|m|`` covers any ``p(n)`` up to about 4000, far above its
size for n <= 16, plus the bound's own rounding of about ``n eps
max|m|``.  A 1 x 1 member needs no margin: ``dsyevd`` returns A(1,1) when
N = 1.  Where the bound decides, the verdict, and every returned array,
is the one the eigendecomposition gives.  Where it cannot (a disc reaching
past the threshold, a NaN or infinite entry), the eigendecomposition runs
on the whole stack.

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
DEFAULT_COND_THRESHOLD = 1e12
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
    """Return ``(m + m^T) / 2``.  Works on stacks: only the last two axes
    are transposed."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


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
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(np.asarray(m, dtype=float))[0])


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


def _conditioning(w: np.ndarray, cond_threshold: float):
    """The one condition test: None if the eigenvalues ``w`` (last axis) of
    every member are nonzero with ``max|w| <= c min|w|``, else the mask of
    refused members and the condition numbers (inf at a zero eigenvalue)."""
    aw = np.abs(w)
    lo, hi = aw.min(axis=-1), aw.max(axis=-1)
    refused = (lo == 0.0) | (hi > cond_threshold * lo)
    if refused.any():
        return refused, np.divide(hi, lo, out=np.full_like(hi, np.inf), where=lo > 0.0)
    return None


def _conditioning_of(m: np.ndarray, cond_threshold: float):
    """:func:`_conditioning` of the eigenvalues of the members of ``m``.
    None at once when every member's eigenvalue interval ``[lo, hi]``
    certifies it, ``lo > 0`` and ``hi <= cond_threshold lo``; else the
    verdict on ``eigvalsh`` of the whole stack.  A 1 x 1 member is its own
    interval, a larger one's comes from :func:`_discs`."""
    if m.shape[-1] == 1:
        lo = hi = m[..., 0, 0]
    else:
        discs = _discs(m)
        if discs is None:
            return _conditioning(np.linalg.eigvalsh(m), cond_threshold)
        d, r, pad = discs
        lo = np.minimum.reduce(d - r, axis=-1) - pad
        hi = np.maximum.reduce(d + r, axis=-1) + pad
    if np.all(lo > 0.0) and np.all(hi <= cond_threshold * lo):
        return None
    return _conditioning(np.linalg.eigvalsh(m), cond_threshold)


def sym_inverse(m: np.ndarray, cond_threshold: float = DEFAULT_COND_THRESHOLD) -> np.ndarray:
    """Inverse of a symmetric matrix, or of each member of a stack (the
    last two axes), via its spectral factorization.

    Raises
    ------
    NearSingular
        If :func:`_conditioning` refuses any member; the message names the
        worst condition number.
    """
    w, v = np.linalg.eigh(np.asarray(m, dtype=float))
    failed = _conditioning(w, cond_threshold)
    if failed is not None:
        raise NearSingular(
            f"condition number {float(np.max(failed[1])):.3e} exceeds threshold "
            f"{cond_threshold:.3e}"
        )
    inv = (v / w[..., None, :]) @ np.swapaxes(v, -1, -2)
    return symmetrize(inv)


def project_psd(m: np.ndarray, psd_tol: float) -> np.ndarray:
    """Clip tiny negative eigenvalues of a (stack of) symmetric matrices.

    Eigenvalues in ``(-psd_tol, 0)`` are treated as roundoff and clipped to
    zero; anything at or below ``-psd_tol``, or NaN from an overflowed
    step, is a genuine failure and raises :class:`PsdViolation`.  The
    distinction keeps scheme bugs from being silently papered over.  A
    stack whose disc bound is nonnegative is returned as it is, without an
    eigendecomposition, as ``eigh``'s nonnegative spectrum would return it.
    """
    m = np.asarray(m, dtype=float)
    floor = _eigenvalue_floor(m)
    if floor >= 0.0 and floor > -psd_tol:
        return m
    w, v = np.linalg.eigh(m)
    wmin = float(w.min())
    if not wmin > -psd_tol:
        raise PsdViolation(
            f"min eigenvalue {wmin:.3e} at or below -psd_tol = {-psd_tol:.3e}"
        )
    if wmin >= 0.0:
        return m
    w = np.clip(w, 0.0, None)
    out = (v * w[..., None, :]) @ np.swapaxes(v, -1, -2)
    return symmetrize(out)
