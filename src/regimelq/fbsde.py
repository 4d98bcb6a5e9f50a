"""Forward-backward verification of the Riccati fixed point.

For a frozen regime i, the matrix-valued forward-backward system

    dX = [A X + B u] dt + [C X + D u] dW,                X(0) = I,
    dY = -[A'Y + C'Z + q_ii Y + (Q + coupling(t)) X + S' u] dt + Z dW,
    Y(T) = G X(T),
    u  = -R^{-1} (B'Y + D'Z + S X),

with ``coupling(t) = sum_{j != i} q_ij P_prev(t, j)``, is solved by the
product ansatz

    Y = P X,        Z = Lam X + P C X + P D u,

where (P, Lam) is the Riccati iterate fed by the same frozen coupling.
At the fixed point the coupling is the solution's own, and the terms
``q_ii Y + coupling(t) X`` together read ``sum_j q_ij P(t, j) X``.  The
routines here measure how well computed solutions honor that identity:

:func:`ypx_residual`
    sets Y := P X along the closed-loop forward dynamics and reports
    the one-step defect of the backward equation (per unit time), for a
    ladder of step sizes;
:func:`tree_fbsde_oracle`
    solves the coupled system itself on a *non-recombining* binary tree by
    alternating damped forward and backward sweeps, then compares ``Y X^{-1}``
    against the Riccati iterate computed independently on the matching
    recombining lattice;
:func:`xinv_product_check`
    integrates the closed-loop state and its inverse by their respective
    discrete schemes along shared noise and reports how far the product
    drifts from the identity.  Writing ``Acl = A + B K`` and
    ``Ccl = C + D K`` for the closed-loop matrices, the inverse satisfies

        d(X^{-1}) = -X^{-1} [Acl - Ccl^2] dt - X^{-1} Ccl dW.

All measurements are deterministic given (spec, seed, step size).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .control import _step_count, feedback_gain
from .errors import NoConvergence, SingularState, StructuralError
from .esre import EsreSolution, SolverOptions, TreeIterate, picard_step
from .model import CoefficientField, ProblemSpec
from .regime_chain import check_regime, path_substream

DET_GUARD = 1e-12
# the forward-backward sweeps stop once no entry of X or Y moves by more
# than FP_TOL, and fail after MAX_SWEEPS
FP_TOL = 1e-10
MAX_SWEEPS = 200


@dataclass(frozen=True)
class ResidualStats:
    """Residual magnitudes per unit time: ``rms <= max`` by construction."""

    rms: float
    max: float
    dt: float


@dataclass
class FbsdeTriple:
    """Solution of the coupled system on a binary tree, one regime.

    ``x[k]``, ``y[k]``, ``z[k]`` have shape (2^k, n, n) and ``u[k]`` shape
    (2^k, m, n); path index p at level k encodes the up/down history in
    its bits (child p -> 2p down, 2p+1 up).  ``X(0) = I`` and
    ``Y(T) = G X(T)`` hold by construction.
    """

    regime: int
    depth: int
    dt: float
    x: tuple
    y: tuple
    z: tuple
    u: tuple


def _solution_samples(solution: EsreSolution, dt: float):
    """Indices of the solution grid matching a coarser step dt."""
    grid = solution.grid
    dt_sol = grid[1] - grid[0]
    ratio = dt / dt_sol
    stride = int(round(ratio))
    if stride < 1 or abs(ratio - stride) > 1e-9:
        raise StructuralError(
            f"dt={dt} is not a multiple of the solution grid step {dt_sol}"
        )
    if stride >= len(grid):
        raise StructuralError(f"dt={dt} leaves no whole step on the solution grid "
                              f"of {len(grid) - 1} steps of {dt_sol}")
    return np.arange(0, len(grid), stride)


def ypx_residual(solution: EsreSolution, spec: ProblemSpec, regime: int,
                 dt_list) -> list:
    """One-step backward-equation defect of Y := P X, per dt.

    The forward state follows the closed-loop Euler recursion; at every
    grid time Y is *re-anchored* to ``P X`` and the defect

        Y(t+dt) - Y(t) + f(t, X, Y, Z) dt

    is recorded, with the regime coupling ``sum_j q_ij P(t, j)`` in f
    (deterministic coefficients, so no martingale term).  The stats are
    normalized by dt, making the values step-size densities: a consistent
    scheme shows them shrinking linearly in dt.  A dt that is not a multiple
    of the grid step, or longer than the grid, is a StructuralError naming
    both; one that does not divide the grid stops at its last whole step.
    """
    if solution.backend == "tree":
        raise StructuralError("ypx_residual expects a grid-backend solution")
    i = check_regime(regime, spec.ell)
    gains = feedback_gain(solution, spec)
    out = []
    for dt in dt_list:
        idx = _solution_samples(solution, dt)
        starts = solution.grid[idx[:-1]]
        a, b, c, d, q, s = (spec.coefficient(name).sample_times(starts)[:, i - 1]
                            for name in "ABCDQS")
        pt = solution.P[idx, i - 1]                      # (K, n, n)
        ktab = gains.values[idx[:-1], i - 1]             # (K - 1, m, n)
        src = np.einsum("j,kjab->kab", spec.q[i - 1], solution.P[idx[:-1]])
        xs = np.empty_like(pt)
        xs[0] = np.eye(spec.n)
        for k in range(len(starts)):
            x = xs[k]
            xs[k + 1] = x + dt * (a[k] @ x + b[k] @ (ktab[k] @ x))
        x = xs[:-1]
        u = ktab @ x
        y = pt[:-1] @ x
        z = pt[:-1] @ (c @ x) + pt[:-1] @ (d @ u)
        f = a.mT @ y + c.mT @ z + (q + src) @ x + s.mT @ u
        res = matcore._frobenius(pt[1:] @ xs[1:] - y + dt * f) / dt
        out.append(ResidualStats(rms=float(np.sqrt(np.mean(res**2))),
                                 max=float(res.max()), dt=float(dt)))
    return out


# ---------------------------------------------------------------------------
# coupled oracle on the full binary tree
# ---------------------------------------------------------------------------


def _upcounts(level: int) -> np.ndarray:
    return np.array([bin(p).count("1") for p in range(2**level)], dtype=np.intp)


def tree_fbsde_oracle(spec: ProblemSpec, regime: int, prev: TreeIterate,
                      options: SolverOptions = None):
    """Solve the coupled forward-backward system for one regime and compare
    against the Riccati sweep fed by the same frozen coupling.

    Returns ``(triple, deviation)`` where ``deviation`` is the largest
    Frobenius distance over tree nodes between ``Y X^{-1}`` and the
    matching Riccati iterate.  Restricted to D identically zero (the
    forward diffusion then carries no Z feedback), deterministic
    coefficients and small trees.

    Raises
    ------
    NoConvergence
        If alternating forward/backward sweeps fail to settle to
        ``FP_TOL`` within ``MAX_SWEEPS``.
    SingularState
        If a forward state matrix loses invertibility (determinant below
        1e-12).
    """
    options = options or SolverOptions(backend="tree", tree_depth=prev.tree.depth)
    if not spec.D.is_zero():
        raise StructuralError("the forward-backward oracle requires D identically zero")
    if spec.has_random_coefficients:
        raise StructuralError("the forward-backward oracle requires deterministic "
                              "coefficients: it reads one value per level, not per "
                              "lattice node")
    if spec.n > 2:
        raise StructuralError("oracle restricted to state dimension n <= 2")
    depth = prev.tree.depth
    if depth > 12:
        raise StructuralError("oracle restricted to tree depth <= 12")
    i = check_regime(regime, spec.ell)

    nxt = picard_step(spec, prev, options)              # Riccati sweep to compare with

    tree = prev.tree
    dt, sq = tree.dt, tree.sqrt_dt
    n, m = spec.n, spec.m
    times = tree.times
    ups = [_upcounts(k) for k in range(depth + 1)]

    # per-level coefficients for the frozen regime (deterministic: D == 0)
    A, B, C, Q, S, R = (spec.coefficient(name).sample_times(times[:-1])[:, i - 1]
                        for name in "ABCQSR")
    R_inv = np.linalg.inv(R)
    G = spec.G.values[i - 1]
    q_row = spec.q[i - 1].copy()
    q_ii = q_row[i - 1]
    q_row[i - 1] = 0.0
    # frozen off-diagonal coupling mapped from the recombining lattice to
    # path nodes
    src = [
        np.einsum("j,njab->nab", q_row, prev.levels[k])[ups[k]]
        for k in range(depth)
    ]

    x = [np.broadcast_to(np.eye(n), (2**k, n, n)).copy() for k in range(depth + 1)]
    y = [np.zeros((2**k, n, n)) for k in range(depth + 1)]
    z = [np.zeros((2**k, n, n)) for k in range(depth)]
    u = [np.zeros((2**k, m, n)) for k in range(depth)]

    for _ in range(MAX_SWEEPS):
        # forward sweep given (y, z)
        x_new = [x[0]]
        for k in range(depth):
            uk = -R_inv[k] @ (B[k].T @ y[k] + S[k] @ x_new[k])
            b_drift = A[k] @ x_new[k] + B[k] @ uk
            sig = C[k] @ x_new[k]
            base = x_new[k] + dt * b_drift
            child = np.empty((2 ** (k + 1), n, n))
            child[0::2] = base - sq * sig
            child[1::2] = base + sq * sig
            x_new.append(child)
        # averaged with the last forward sweep every time: undamped, the
        # alternation grows on some problems and contracts only by about
        # 0.9 per sweep on others (e1 with C = 0.5 at depth 8); averaged,
        # every problem of the test suite settles in about 30 sweeps
        x_new = [0.5 * (a + b) for a, b in zip(x_new, x)]
        # backward sweep given x
        y_new = [None] * (depth + 1)
        z_new = [None] * depth
        u_new = [None] * depth
        y_new[depth] = G @ x_new[depth]
        for k in range(depth - 1, -1, -1):
            up_c = y_new[k + 1][1::2]
            dn_c = y_new[k + 1][0::2]
            ybar = 0.5 * (up_c + dn_c)
            zk = (up_c - dn_c) / (2.0 * sq)
            uk = -R_inv[k] @ (B[k].T @ ybar + S[k] @ x_new[k])
            f = (A[k].T @ ybar + C[k].T @ zk
                 + (Q[k] + src[k]) @ x_new[k] + S[k].T @ uk)
            # the q_ii Y term implicit, as in the tree's Picard sweep
            y_new[k] = (ybar + dt * f) / (1.0 - dt * q_ii)
            z_new[k] = zk
            u_new[k] = uk
        diff = 0.0
        for k in range(depth + 1):
            diff = max(diff, float(np.max(np.abs(x_new[k] - x[k]))))
            diff = max(diff, float(np.max(np.abs(y_new[k] - y[k]))))
        x, y, z, u = x_new, y_new, z_new, u_new
        if diff <= FP_TOL:
            break
    else:
        raise NoConvergence(
            f"forward-backward sweeps stalled at diff={diff:.3e}",
        )

    dev = 0.0
    for k in range(depth + 1):
        dets = np.linalg.det(x[k])
        if np.any(np.abs(dets) < DET_GUARD):
            raise SingularState(f"forward state not invertible at level {k}")
        ratio = y[k] @ np.linalg.inv(x[k])
        target = nxt.levels[k][ups[k], i - 1]
        dev = max(dev, float(np.max(np.linalg.norm(ratio - target, axis=(-2, -1)))))
    triple = FbsdeTriple(
        regime=i, depth=depth, dt=dt,
        x=tuple(x), y=tuple(y), z=tuple(z), u=tuple(u),
    )
    return triple, dev


# ---------------------------------------------------------------------------
# inverse-state product check
# ---------------------------------------------------------------------------


def xinv_product_check(spec: ProblemSpec, regime: int, gains: CoefficientField,
                       dt: float, seed: int = 0) -> ResidualStats:
    """Euler-integrate the closed-loop state and its inverse side by side
    and report the deviation of ``X^{-1} X`` from the identity.

    With zero closed-loop diffusion this is a pure ODE check and the seed
    is irrelevant; otherwise both recursions share the same Brownian
    increments drawn from ``path_substream(seed, 0)``.
    """
    i = check_regime(regime, spec.ell)
    n_steps = _step_count(spec.T, dt)
    n = spec.n
    starts = dt * np.arange(n_steps)
    a, b, c, d, kk = (f.sample_times(starts)[:, i - 1]
                      for f in (spec.A, spec.B, spec.C, spec.D, gains))
    acl = a + b @ kk
    ccl = c + d @ kk
    noisy = bool(np.any(ccl))
    dw = np.zeros(n_steps)
    if noisy:
        dw = np.sqrt(dt) * path_substream(seed, 0).standard_normal(n_steps)

    x = np.eye(n)
    xinv = np.eye(n)
    devs = np.empty(n_steps + 1)
    devs[0] = 0.0
    for k in range(n_steps):
        a, c = acl[k], ccl[k]
        x = x + (a @ x) * dt + (c @ x) * dw[k]
        xinv = xinv - (xinv @ (a - c @ c)) * dt - (xinv @ c) * dw[k]
        devs[k + 1] = np.linalg.norm(xinv @ x - np.eye(n))
    return ResidualStats(rms=float(np.sqrt(np.mean(devs**2))),
                         max=float(devs.max()), dt=float(dt))
