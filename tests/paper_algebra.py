"""The paper's pointwise Riccati functionals at one (t, regime), as a test
reference.

The drift ``Pi(P, Lambda)``, the quadratic term ``H``, the minimizing gain
``theta_hat`` and the completed square ``F(theta)`` are written here for a
single time, regime and (for random coefficients) lattice node.  The solver
evaluates the same algebra stacked, in ``esre._gain_blocks`` and the
engines' shared driver; the tests compare the two.
"""

import numpy as np

from regimelq import matcore
from regimelq.errors import DimensionMismatch
from regimelq.esre import _gain_blocks
from regimelq.model import ProblemSpec


def drift_pi(t: float, i: int, p: np.ndarray, lam: np.ndarray, spec: ProblemSpec,
             node=None) -> np.ndarray:
    """Linear drift part  p A + A'p + C'p C + lam C + C'lam,  symmetrized."""
    a = spec.A.eval(t, i, node)
    c = spec.C.eval(t, i, node)
    p = np.asarray(p, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if p.shape != (spec.n, spec.n) or lam.shape != (spec.n, spec.n):
        raise DimensionMismatch("p and lam must be n x n")
    out = p @ a + a.T @ p + c.T @ (p @ c) + lam @ c + c.T @ lam
    return matcore.symmetrize(out)


def drift_h(t: float, i: int, p: np.ndarray, lam: np.ndarray, spec: ProblemSpec,
            node=None) -> np.ndarray:
    """Quadratic drift part

        -(p B + C'p D + lam D + S') (R + D'p D)^{-1} (B'p + D'p C + D'lam + S),

    symmetrized.  Negative semidefinite whenever the inverted block is
    positive definite.

    Raises
    ------
    NearSingular
        If ``R + D'p D`` fails the guarded inversion; this is the runtime
        guard for the positivity the feedback formula requires.
    """
    m, sigma = _gain_blocks_at(spec, t, i, node, p, lam)
    sigma_inv = matcore.sym_inverse(sigma)
    return matcore.symmetrize(-(m.T @ (sigma_inv @ m)))


def theta_hat(t: float, i: int, p: np.ndarray, lam: np.ndarray, spec: ProblemSpec,
              node=None) -> np.ndarray:
    """Minimizing gain of the completed square, the feedback gain

        -(R + D'p D)^{-1} (B'p + D'p C + D'lam + S).
    """
    m, sigma = _gain_blocks_at(spec, t, i, node, p, lam)
    return -(matcore.sym_inverse(sigma) @ m)


def _gain_blocks_at(spec, t, i, node, p, lam):
    """:func:`esre._gain_blocks` with B, C, D, S, R evaluated at (t,
    regime i, node)."""
    return _gain_blocks(
        np.asarray(p, dtype=float), np.asarray(lam, dtype=float),
        *(spec.coefficient(name).eval(t, i, node) for name in "BCDSR"),
    )


def f_of_theta(t: float, i: int, p: np.ndarray, lam: np.ndarray, theta: np.ndarray,
               spec: ProblemSpec, node=None) -> np.ndarray:
    """Drift value at an arbitrary gain  theta  (m x n):

        (A + B theta)'P + P (A + B theta)
        + (C + D theta)'Lam + Lam (C + D theta)
        + (C + D theta)'P (C + D theta)
        + theta'S + S'theta + theta'R theta + Q,

    symmetrized.  Minimized over theta at :func:`theta_hat`, where it
    reduces to the Riccati drift.
    """
    a, b, c, d, q, s, r = (spec.coefficient(name).eval(t, i, node) for name in "ABCDQSR")
    p = np.asarray(p, dtype=float)
    lam = np.asarray(lam, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.m, spec.n):
        raise DimensionMismatch(f"theta must be {(spec.m, spec.n)}, got {theta.shape}")
    acl = a + b @ theta
    ccl = c + d @ theta
    out = (
        acl.T @ p + p @ acl
        + ccl.T @ lam + lam @ ccl
        + ccl.T @ (p @ ccl)
        + theta.T @ s + s.T @ theta
        + theta.T @ (r @ theta)
        + q
    )
    return matcore.symmetrize(out)
