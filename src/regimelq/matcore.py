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

DEFAULT_ASYM_TOL = 1e-10
DEFAULT_COND_THRESHOLD = 1e12


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return ``(m + m^T) / 2``.  Works on stacks: only the last two axes
    are transposed."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def make_symmetric(raw, asym_tol: float = DEFAULT_ASYM_TOL) -> np.ndarray:
    """Validate and symmetrize a raw square matrix or a stack of them.

    Parameters
    ----------
    raw : array_like, shape (..., n, n)
    asym_tol : float
        Largest tolerated entrywise deviation ``max|raw - raw^T|`` over
        every member.

    Returns
    -------
    ndarray
        ``(raw + raw^T) / 2``, exactly symmetric.

    Raises
    ------
    DimensionMismatch
        If the last two axes of ``raw`` are not square.
    AsymmetryExceeded
        If the asymmetry of any member is larger than ``asym_tol``.
    """
    m = np.asarray(raw, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {m.shape}")
    asym = float(np.max(np.abs(m - np.swapaxes(m, -1, -2)))) if m.size else 0.0
    if asym > asym_tol:
        raise AsymmetryExceeded(
            f"max|M - M^T| = {asym:.3e} exceeds tolerance {asym_tol:.3e}"
        )
    return symmetrize(m)


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(np.asarray(m, dtype=float))[0])


def sym_inverse(m: np.ndarray, cond_threshold: float = DEFAULT_COND_THRESHOLD) -> np.ndarray:
    """Inverse of a symmetric matrix, or of each member of a stack (the
    last two axes), via its spectral factorization.

    Raises
    ------
    NearSingular
        If an eigenvalue is exactly zero or the spectral condition number
        exceeds ``cond_threshold`` for any member; the message names the
        worst condition number.
    """
    w, v = np.linalg.eigh(np.asarray(m, dtype=float))
    aw = np.abs(w)
    lo = aw.min(axis=-1)
    hi = aw.max(axis=-1)
    if np.any((lo == 0.0) | (hi > cond_threshold * lo)):
        cond = float(np.max(np.divide(hi, lo, out=np.full_like(hi, np.inf),
                                      where=lo > 0.0)))
        raise NearSingular(
            f"condition number {cond:.3e} exceeds threshold {cond_threshold:.3e}"
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
