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

All functions are pure and reentrant.
"""

from __future__ import annotations

import numpy as np

from .errors import AsymmetryExceeded, DimensionMismatch, NearSingular, PsdViolation

# largest entrywise asymmetry max|M - M^T| that make_symmetric accepts
ASYM_TOL = 1e-10
DEFAULT_COND_THRESHOLD = 1e12


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
    DimensionMismatch
        If the last two axes of ``raw`` are not square.
    AsymmetryExceeded
        If the asymmetry ``max|raw - raw^T|`` of any member is larger than
        ``ASYM_TOL``.
    """
    m = np.asarray(raw, dtype=float)
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
    distinction keeps scheme bugs from being silently papered over.
    """
    m = np.asarray(m, dtype=float)
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
