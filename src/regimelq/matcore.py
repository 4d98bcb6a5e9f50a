"""Dense symmetric-matrix algebra used throughout the solver.

All matrices handled here are small (n <= 16) dense ``numpy`` arrays.  A
"symmetric matrix" in this package is a plain ``float64`` ndarray that is
*exactly* symmetric; :func:`make_symmetric` is the validating constructor
that turns raw data into one.  Spectral queries (:func:`min_eigenvalue`),
Loewner-order comparisons (:func:`loewner_leq`) and guarded inversion
(:func:`sym_inverse`) all operate on such arrays.

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
    """Validate and symmetrize a raw square matrix.

    Parameters
    ----------
    raw : array_like, shape (n, n)
    asym_tol : float
        Largest tolerated entrywise deviation ``max|raw - raw^T|``.

    Returns
    -------
    ndarray
        ``(raw + raw^T) / 2``, exactly symmetric.

    Raises
    ------
    DimensionMismatch
        If ``raw`` is not square.
    AsymmetryExceeded
        If the asymmetry is larger than ``asym_tol``.
    """
    m = np.asarray(raw, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    if asym > asym_tol:
        raise AsymmetryExceeded(
            f"max|M - M^T| = {asym:.3e} exceeds tolerance {asym_tol:.3e}"
        )
    return symmetrize(m)


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(np.asarray(m, dtype=float))[0])


def max_eigenvalue(m: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(np.asarray(m, dtype=float))[-1])


def loewner_leq(a: np.ndarray, b: np.ndarray, tol: float = 0.0) -> bool:
    """Loewner-order test ``a <= b``: true iff ``min_eig(b - a) >= -tol``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return min_eigenvalue(symmetrize(b - a)) >= -tol


def sym_inverse(m: np.ndarray, cond_threshold: float = DEFAULT_COND_THRESHOLD) -> np.ndarray:
    """Inverse of a symmetric matrix via its spectral factorization.

    Raises
    ------
    NearSingular
        If an eigenvalue is exactly zero or the spectral condition number
        exceeds ``cond_threshold``.
    """
    m = np.asarray(m, dtype=float)
    w, v = np.linalg.eigh(m)
    aw = np.abs(w)
    lo = float(aw.min())
    hi = float(aw.max())
    if lo == 0.0 or (lo > 0.0 and hi / lo > cond_threshold):
        cond = np.inf if lo == 0.0 else hi / lo
        raise NearSingular(
            f"condition number {cond:.3e} exceeds threshold {cond_threshold:.3e}"
        )
    inv = (v / w) @ v.T
    return symmetrize(inv)


def project_psd(m: np.ndarray, psd_tol: float) -> np.ndarray:
    """Clip tiny negative eigenvalues of a (stack of) symmetric matrices.

    Eigenvalues in ``(-psd_tol, 0)`` are treated as roundoff and clipped to
    zero; anything at or below ``-psd_tol`` is a genuine failure and raises
    :class:`PsdViolation`.  The distinction keeps scheme bugs from being
    silently papered over.
    """
    m = np.asarray(m, dtype=float)
    w, v = np.linalg.eigh(m)
    wmin = float(w.min())
    if wmin <= -psd_tol:
        raise PsdViolation(
            f"min eigenvalue {wmin:.3e} at or below -psd_tol = {-psd_tol:.3e}"
        )
    if wmin >= 0.0:
        return m
    w = np.clip(w, 0.0, None)
    out = (v * w[..., None, :]) @ np.swapaxes(v, -1, -2)
    return symmetrize(out)
