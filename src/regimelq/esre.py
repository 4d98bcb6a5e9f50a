"""Coupled matrix Riccati solver for regime-switching LQ control.

The object computed here is the per-regime pair (P(t, i), Lambda(t, i)),
i = 1..ell, solving backward on [0, T]

    dP(t,i) = -[ P A + A'P + C'P C + Lam C + C'Lam + Q(t,i)
                 + sum_j q_ij P(t,j)
                 - (P B + C'P D + Lam D + S') (R + D'P D)^{-1}
                   (B'P + D'P C + D'Lam + S) ] dt + Lam dW,
    P(T,i) = G(i),

with all coefficients evaluated at regime i.  For deterministic
coefficients Lambda vanishes and the system is a coupled matrix ODE; for
coefficients adapted to a binomial lattice the pair is computed by backward
induction on the tree.

Solution scheme
---------------
Work in rescaled coordinates ``Ptilde(t,i) = exp(q_ii t) P(t,i)`` (see
:mod:`regimelq.model`), which moves the diagonal coupling into the cost
weights.  The iteration freezes the cross-regime coupling at the previous
iterate:

  * iterate 0 solves the *linear* coupled system (the quadratic term
    dropped);
  * iterate k+1 solves, regime by regime, the decoupled Riccati terminal
    value problem with source ``sum_{j != i} q_ij exp((q_ii - q_jj) t)
    Ptilde_k(t, j)``.

Under the definiteness assumptions the iterates decrease monotonically in
the Loewner order and stay positive semidefinite, which is asserted by the
test suite; the driver stops when the sup-norm difference of consecutive
iterates falls below ``picard_tol``.

On the grid the sweeps run in lockstep (pipelined waveform relaxation).
Sweep k+1 reads sweep k only at the grid times it steps across, so it can
trail sweep k by a single step.  Its launch rule: sweep k+1 starts at
t = T as soon as sweep k's running residual, the max so far of
``|Ptilde_k - Ptilde_{k-1}|_F`` over the nodes it has reached, exceeds
``picard_tol``; that is when the sweep-after-sweep loop is certain to run
sweep k+1.  Launches stop at ``picard_max_iter``.  Each lockstep step
then advances every live sweep by one RK4 step with one stacked rhs
evaluation per stage and one PSD projection.  The iterates, residual
history and iteration count equal those of repeated :func:`picard_step`
bit for bit, and errors surface in the same order: a failure in a
trailing sweep is held until every earlier sweep has finished, and an
error from an earlier sweep replaces it.

Backends
--------
``ode``
    Classical fixed-step 4th-order backward stepping on a uniform grid,
    with symmetrization at every stage and a PSD eigenvalue clip per step.
    The frozen source is evaluated at step midpoints through cubic Hermite
    interpolation of the stored iterate (values + recorded derivatives), so
    each sweep retains 4th-order accuracy.
``tree``
    Explicit backward induction on a recombining binomial lattice: the
    driver is evaluated at the conditional expectation of the child values
    and at the martingale increment ``Z = (V_up - V_down) / (2 sqrt(dt))``.
    Handles coefficients that are functions of the lattice Brownian level.

:func:`direct_coupled_oracle` integrates the full coupled system in one go
(no freezing, original coordinates) and serves as an independent
cross-check of the fixed-point limit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import (
    DimensionMismatch,
    AssumptionViolation,
    NearSingular,
    NoConvergence,
    PsdViolation,
    RegimeLQError,
    StepFailure,
    StructuralError,
)
from .model import (
    ProblemSpec,
    TildeTransform,
    check_smallness,
    tilde_transform,
    untilde_solution,
    validate_assumptions,
)

BLOWUP_GUARD = 1e8


@dataclass
class SolverOptions:
    """Tunable knobs of :func:`solve_esre` with their defaults."""

    backend: str = "ode"          # "ode" | "tree"
    grid_steps: int = 2000
    tree_depth: int = 10
    picard_tol: float = 1e-9
    picard_max_iter: int = 60
    psd_tol: float = 1e-9
    cond_threshold: float = 1e12
    smallness_threshold: float = 0.1
    keep_iterates: bool = False
    # test hook: route identically-zero D through the general
    # (R + D'PD)-inverse algebra instead of the plain R-inverse shortcut
    force_general_d: bool = False

    def __post_init__(self):
        if self.backend not in ("ode", "tree"):
            raise StructuralError(f"unknown backend {self.backend!r}")
        if self.grid_steps < 1 or self.tree_depth < 1:
            raise StructuralError("grid_steps and tree_depth must be >= 1")


@dataclass
class Diagnostics:
    """Solver-side certificates recorded with every solution.

    ``rho`` and ``k_estimate`` parameterize the exponential a priori bound
    ``sup_t e^{rho t} |Ptilde_0(t,i)|^2 <= 1.5 e^{rho T}(K^2 + 1/rho)``
    for the linear initial iterate; the bound and the measured supremum are
    stored in logs as well because e^{rho T} overflows quickly.
    ``lambda_l2`` is the plain discrete L2 norm of the martingale integrand
    per regime (an informational quantity only).
    """

    rho: float
    k_estimate: float
    apriori_bound: float
    measured_sup: float
    log_apriori_bound: float
    log_measured_sup: float
    lambda_l2: np.ndarray
    smallness: float
    smallness_threshold: float
    smallness_ok: bool


@dataclass
class GridIterate:
    """One fixed-point iterate on the uniform grid (rescaled coordinates).

    ``values[k, i-1]`` is Ptilde at (t_k, regime i); ``derivs`` holds the
    recorded time derivatives used for midpoint interpolation.
    """

    grid: np.ndarray
    values: np.ndarray           # (N+1, ell, n, n)
    derivs: np.ndarray           # (N+1, ell, n, n)
    lam: np.ndarray              # (N+1, ell, n, n), zero for the ODE backend

    def half_values(self) -> np.ndarray:
        """Values on the half grid (2N+1 samples): nodes interleaved with
        cubic-Hermite midpoints."""
        v, d = self.values, self.derivs
        mids = _hermite_midpoint(v[:-1], v[1:], d[:-1], d[1:], self.grid[1] - self.grid[0])
        out = np.empty((2 * (v.shape[0] - 1) + 1,) + v.shape[1:])
        out[0::2] = v
        out[1::2] = mids
        return out


def _hermite_midpoint(v0, v1, d0, d1, dt):
    """Cubic-Hermite value halfway between two nodes dt apart, from the
    node values v and time derivatives d."""
    return 0.5 * (v0 + v1) + (dt / 8.0) * (d0 - d1)


class BinomialTree:
    """Recombining lattice discretizing the driving Brownian filtration.

    Level k (time ``k * dt``) has k+1 nodes; node (k, j) carries the
    Brownian level ``w = (2j - k) sqrt(dt)`` after j up-moves.
    """

    def __init__(self, depth: int, T: float):
        self.depth = int(depth)
        self.T = float(T)
        self.dt = self.T / self.depth
        self.sqrt_dt = np.sqrt(self.dt)
        self.times = np.linspace(0.0, self.T, self.depth + 1)

    def w(self, k: int, j: int) -> float:
        return (2 * j - k) * self.sqrt_dt


@dataclass
class TreeIterate:
    """One fixed-point iterate on the lattice (rescaled coordinates).

    ``levels[k]`` has shape (k+1, ell, n, n); ``lam_levels`` likewise, with
    zeros at the terminal level where no child difference exists.
    """

    tree: BinomialTree
    levels: tuple
    lam_levels: tuple


@dataclass
class TreeSolution:
    """Full per-node solution values kept alongside the grid summary."""

    tree: BinomialTree
    p_levels: tuple              # untransformed P per node
    lam_levels: tuple
    ptilde_levels: tuple
    lamtilde_levels: tuple


@dataclass
class EsreSolution:
    """Converged solution plus solver provenance.

    ``P``/``Lambda`` are indexed (sample, regime, row, col) on ``grid``.
    For the tree backend they hold the probability-weighted node means
    (which coincide with the node values whenever coefficients are
    deterministic) and ``tree`` carries the full per-node data.
    """

    grid: np.ndarray
    P: np.ndarray
    Lambda: np.ndarray
    Ptilde: np.ndarray
    Lambdatilde: np.ndarray
    backend: str
    iterations: int
    residual_history: list
    diagnostics: Diagnostics
    options: SolverOptions
    iterates: list = None        # list of Ptilde arrays when keep_iterates
    tree: TreeSolution = None


# ---------------------------------------------------------------------------
# pointwise Riccati functionals (public, single (t, i) surface)
# ---------------------------------------------------------------------------


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


def drift_h(t: float, i: int, p: np.ndarray, lam: np.ndarray, r_mat: np.ndarray,
            s_mat: np.ndarray, spec: ProblemSpec, node=None,
            cond_threshold: float = matcore.DEFAULT_COND_THRESHOLD) -> np.ndarray:
    """Quadratic drift part

        -(p B + C'p D + lam D + S') (R + D'p D)^{-1} (B'p + D'p C + D'lam + S)

    with the provided R and S matrices (rescaled or plain).  Negative
    semidefinite whenever the inverted block is positive definite.

    Raises
    ------
    NearSingular
        If ``R + D'p D`` fails the guarded inversion; this is the runtime
        guard for the positivity the feedback formula requires.
    """
    b = spec.B.eval(t, i, node)
    c = spec.C.eval(t, i, node)
    d = spec.D.eval(t, i, node)
    p = np.asarray(p, dtype=float)
    lam = np.asarray(lam, dtype=float)
    m = b.T @ p + d.T @ (p @ c) + d.T @ lam + np.asarray(s_mat, dtype=float)
    sigma = matcore.symmetrize(np.asarray(r_mat, dtype=float) + d.T @ (p @ d))
    sigma_inv = matcore.sym_inverse(sigma, cond_threshold)
    return matcore.symmetrize(-(m.T @ (sigma_inv @ m)))


def theta_hat(t: float, i: int, ptilde: np.ndarray, lamtilde: np.ndarray,
              tilde: TildeTransform, node=None,
              cond_threshold: float = matcore.DEFAULT_COND_THRESHOLD) -> np.ndarray:
    """Minimizing gain of the completed square,

        -(Rtilde + D'Ptilde D)^{-1} (B'Ptilde + D'Ptilde C + D'Lamtilde + Stilde).

    The exponential rescaling cancels between the two factors, so this
    equals the untransformed feedback gain pointwise.
    """
    spec = tilde.spec
    b = spec.B.eval(t, i, node)
    c = spec.C.eval(t, i, node)
    d = spec.D.eval(t, i, node)
    p = np.asarray(ptilde, dtype=float)
    lam = np.asarray(lamtilde, dtype=float)
    m = b.T @ p + d.T @ (p @ c) + d.T @ lam + tilde.s_tilde(t, i, node)
    sigma = matcore.symmetrize(tilde.r_tilde(t, i, node) + d.T @ (p @ d))
    sigma_inv = matcore.sym_inverse(sigma, cond_threshold)
    return -(sigma_inv @ m)


def f_of_theta(t: float, i: int, ptilde: np.ndarray, lamtilde: np.ndarray,
               theta: np.ndarray, tilde: TildeTransform, node=None) -> np.ndarray:
    """Drift value at an arbitrary gain  theta  (m x n):

        (A + B theta)'P + P (A + B theta)
        + (C + D theta)'Lam + Lam (C + D theta)
        + (C + D theta)'P (C + D theta)
        + theta'Stilde + Stilde'theta + theta'Rtilde theta + Qtilde,

    evaluated in rescaled coordinates and symmetrized.  Minimized over
    theta at :func:`theta_hat`, where it reduces to the Riccati drift.
    """
    spec = tilde.spec
    a = spec.A.eval(t, i, node)
    b = spec.B.eval(t, i, node)
    c = spec.C.eval(t, i, node)
    d = spec.D.eval(t, i, node)
    p = np.asarray(ptilde, dtype=float)
    lam = np.asarray(lamtilde, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.m, spec.n):
        raise DimensionMismatch(f"theta must be {(spec.m, spec.n)}, got {theta.shape}")
    st = tilde.s_tilde(t, i, node)
    rt = tilde.r_tilde(t, i, node)
    qt = tilde.q_tilde(t, i, node)
    acl = a + b @ theta
    ccl = c + d @ theta
    out = (
        acl.T @ p + p @ acl
        + ccl.T @ lam + lam @ ccl
        + ccl.T @ (p @ ccl)
        + theta.T @ st + st.T @ theta
        + theta.T @ (rt @ theta)
        + qt
    )
    return matcore.symmetrize(out)


# ---------------------------------------------------------------------------
# grid backend engine
# ---------------------------------------------------------------------------


def _sym(m):
    return 0.5 * (m + m.mT)


def _batched_guarded_inverse(mats: np.ndarray, cond_threshold: float) -> np.ndarray:
    """Spectral inverse of a stack of symmetric matrices with the
    NearSingular guard applied to every member."""
    w, v = np.linalg.eigh(mats)
    aw = np.abs(w)
    lo = aw.min(axis=-1)
    hi = aw.max(axis=-1)
    bad = (lo == 0.0) | (hi > cond_threshold * lo)
    if np.any(bad):
        worst = float(np.max(np.where(lo > 0, hi / np.maximum(lo, 1e-300), np.inf)))
        raise NearSingular(
            f"block inversion refused: condition number {worst:.3e} "
            f"exceeds threshold {cond_threshold:.3e}"
        )
    inv = (v / w[..., None, :]) @ np.swapaxes(v, -1, -2)
    return _sym(inv)


class _GridEngine:
    """Sampled coefficients and backward sweeps for the ODE backend.

    Everything is precomputed on the half grid (step dt/2) so the four
    stages of every backward step hit exact samples.  Per-regime data are
    stacked on the leading axis and processed with batched matmul.

    The right-hand sides take the state either as one ``(ell, n, n)`` stack
    at an integer half-index or as ``(L, ell, n, n)`` with one half-index
    per member.  ``h`` indexes the rescaled weights, which vary in time;
    ``hc`` indexes A, B, C, D and their transposes, and is the single
    index 0 shared by every member when those are constant.
    """

    def __init__(self, spec: ProblemSpec, options: SolverOptions):
        if spec.has_random_coefficients:
            raise StructuralError(
                "ODE backend requires deterministic coefficients; use backend='tree'"
            )
        self.spec = spec
        self.options = options
        n_steps = options.grid_steps
        self.dt = spec.T / n_steps
        self.grid = np.linspace(0.0, spec.T, n_steps + 1)
        half = np.linspace(0.0, spec.T, 2 * n_steps + 1)
        self.half_times = half
        tilde = tilde_transform(spec)
        self.tilde = tilde

        self.A = np.ascontiguousarray(spec.A.sample_times(half))
        self.B = np.ascontiguousarray(spec.B.sample_times(half))
        self.C = np.ascontiguousarray(spec.C.sample_times(half))
        self.D = np.ascontiguousarray(spec.D.sample_times(half))
        self.Q = np.ascontiguousarray(spec.Q.sample_times(half))
        self.S = np.ascontiguousarray(spec.S.sample_times(half))
        self.R = np.ascontiguousarray(spec.R.sample_times(half))
        self.Ct = np.ascontiguousarray(self.C.mT)
        self.Dt = np.ascontiguousarray(self.D.mT)
        self.constant_dynamics = all(
            spec.coefficient(name).kind == "constant" for name in ("A", "B", "C", "D")
        )
        scale = tilde.scale(half)                       # (2N+1, ell)
        sc = scale[:, :, None, None]
        self.Qt = self.Q * sc
        self.St = self.S * sc
        self.Rt = self.R * sc
        self.G = np.stack([spec.G.eval(spec.T, i) for i in range(1, spec.ell + 1)])
        self.Gt = self.G * tilde.scale(spec.T)[:, None, None]
        self.W = tilde.coupling_weights(half)           # (2N+1, ell, ell)

        self.has_C = not spec.C.is_zero()
        self.has_D = (not spec.D.is_zero()) or options.force_general_d
        self.has_S = not spec.S.is_zero()
        if not self.has_D:
            # constant inverse reused by every stage of every sweep
            self.Rt_inv = _batched_guarded_inverse(self.Rt, options.cond_threshold)

    # -- right-hand sides (dP/dt), batched over regimes -----------------

    def _quadratic_term(self, h, hc, p: np.ndarray, pc, check_cond: bool) -> np.ndarray:
        """H = -M' Sigma^{-1} M; ``pc`` is P C (None when C = 0)."""
        m = (p @ self.B[hc]).mT
        if self.has_D and pc is not None:
            m = m + self.Dt[hc] @ pc
        if self.has_S:
            m = m + self.St[h]
        if self.has_D:
            sigma = _sym(self.Rt[h] + self.Dt[hc] @ (p @ self.D[hc]))
            if check_cond:
                w = np.abs(np.linalg.eigvalsh(sigma))
                lo, hi = w.min(axis=-1), w.max(axis=-1)
                bad = (lo == 0.0) | (hi > self.options.cond_threshold * lo)
                if np.any(bad):
                    first = np.unravel_index(np.argmax(bad), bad.shape)
                    t = self.half_times[h if np.ndim(h) == 0 else h[first[0]]]
                    raise NearSingular(
                        "R + D'PD became ill-conditioned during backward stepping "
                        f"at t = {t:.6g} in regime {first[-1] + 1}"
                    )
            try:
                x = np.linalg.solve(sigma, m)
            except np.linalg.LinAlgError as exc:
                raise NearSingular("R + D'PD is singular") from exc
        else:
            x = self.Rt_inv[h] @ m
        return -m.mT @ x

    def _linear_term(self, hc, p: np.ndarray, pc) -> np.ndarray:
        pa = p @ self.A[hc]
        out = pa + pa.mT
        if pc is not None:
            out = out + self.Ct[hc] @ pc
        return out

    def _rhs_picard(self, h, hc, p: np.ndarray, src: np.ndarray,
                    check_cond: bool) -> np.ndarray:
        """Frozen-coupling rhs; ``src`` is the coupling source at ``h``."""
        pc = p @ self.C[hc] if self.has_C else None
        drift = self._linear_term(hc, p, pc) + self.Qt[h] + src
        drift = drift + self._quadratic_term(h, hc, p, pc, check_cond)
        return -_sym(drift)

    def _rhs_linear(self, h: int, p: np.ndarray) -> np.ndarray:
        """Initial iterate: linear drift + live cross-regime coupling."""
        pc = p @ self.C[h] if self.has_C else None
        drift = self._linear_term(h, p, pc) + self.Qt[h]
        drift = drift + np.einsum("ij,jab->iab", self.W[h], p)
        return -_sym(drift)

    # -- sweeps ----------------------------------------------------------

    def _sweep(self, rhs, terminal: np.ndarray, project: bool):
        n_steps = self.options.grid_steps
        dt = self.dt
        values = np.empty((n_steps + 1,) + terminal.shape)
        derivs = np.empty_like(values)
        p = terminal.copy()
        values[n_steps] = p
        for k in range(n_steps, 0, -1):
            h = 2 * k
            k1 = rhs(h, p, True)
            derivs[k] = k1
            k2 = rhs(h - 1, p - 0.5 * dt * k1, False)
            k3 = rhs(h - 1, p - 0.5 * dt * k2, False)
            k4 = rhs(h - 2, p - dt * k3, False)
            p = _sym(p - (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
            if project:
                p = matcore.project_psd(p, self.options.psd_tol)
            values[k - 1] = p
        derivs[0] = rhs(0, p, True)
        return values, derivs

    def solve_p0(self) -> GridIterate:
        rhs = lambda h, p, chk: self._rhs_linear(h, p)
        values, derivs = self._sweep(rhs, self.Gt, project=False)
        zeros = np.zeros_like(values)
        return GridIterate(self.grid, values, derivs, zeros)

    def picard_sweep(self, prev: GridIterate) -> GridIterate:
        prev_half = prev.half_values()
        src = np.einsum("hij,hjab->hiab", self.W, prev_half)
        rhs = lambda h, p, chk: self._rhs_picard(h, h, p, src[h], chk)
        values, derivs = self._sweep(rhs, self.Gt, project=True)
        return GridIterate(self.grid, values, derivs, np.zeros_like(values))

    # -- pipelined fixed point -------------------------------------------

    def pipelined_sweeps(self, it0: GridIterate):
        """Run the sweeps of the fixed point from ``it0`` in lockstep, with
        the launch rule and error order described in the module docstring.

        Returns ``(ptilde, residuals, iterates)``; ``iterates`` lists every
        iterate from ``it0`` on when ``keep_iterates`` is set, else None.
        """
        opts = self.options
        n_steps = opts.grid_steps
        # store[j]: values and derivatives of sweep j, (N+1, 2, ell, n, n),
        # dropped once sweep j+1 has finished
        store = [np.stack([it0.values, it0.derivs], axis=1)]
        src_T = np.einsum("hij,hjab->hiab", self.W[-1:], self.Gt[None])
        live = _Members.empty(self.Gt.shape)
        residuals = []
        iterates = [it0.values.copy()] if opts.keep_iterates else None
        held = None
        while True:
            newest = len(store) - 1
            if (held is None and newest < opts.picard_max_iter
                    and (newest == 0 or not live.res[-1] <= opts.picard_tol)):
                store.append(np.empty((n_steps + 1, 2) + self.Gt.shape))
                store[-1][n_steps, 0] = self.Gt
                launch = _Members(np.array([newest + 1]), np.array([n_steps]),
                                  self.Gt[None], src_T, np.zeros(1))
                live = _Members.join([live, launch], self.Gt.shape)
            if not len(live):
                break
            try:
                finished, stepped = self._lockstep(store, live)
            except _SWEEP_ERRORS:
                # replay this step member by member, oldest first, to find
                # the oldest failing sweep and keep the ones before it
                finished, parts = False, []
                for j in range(len(live)):
                    try:
                        done, part = self._lockstep(store, live[j:j + 1])
                    except _SWEEP_ERRORS as exc:
                        held = exc
                        break
                    finished = finished or done
                    parts.append(part)
                stepped = _Members.join(parts, self.Gt.shape)
            if finished:
                j = int(live.sweep[0])
                res = float(live.res[0])
                residuals.append(res)
                if opts.keep_iterates:
                    iterates.append(store[j][:, 0].copy())
                store[j - 1] = None
                if res <= opts.picard_tol:
                    return store[j][:, 0].copy(), residuals, iterates
            live = stepped
        if held is not None:
            raise held
        raise NoConvergence(
            f"no convergence after {opts.picard_max_iter} sweeps "
            f"(last residual {residuals[-1]:.3e})",
            residual_history=residuals,
        )

    def _lockstep(self, store: list, live: "_Members"):
        """One backward RK4 step of every member of ``live``.

        Stage 1 of every member runs first and records its derivative, so
        a member one step behind its predecessor interpolates with the
        derivative just computed.  A member at node 0 only records that
        derivative and finishes; only the oldest can be there.  Returns
        ``(finished, stepped)``: whether the oldest member finished, and the
        members that took a step, at their new node.
        """
        dt = self.dt
        h = 2 * live.k
        k1 = self._rhs_picard(h, 0 if self.constant_dynamics else h,
                              live.p, live.src, True)
        for j, k, d in zip(live.sweep.tolist(), live.k.tolist(), k1):
            store[j][k, 1] = d
        finished = bool(live.k[0] == 0)
        if finished:
            live, k1, h = live[1:], k1[1:], h[1:]
            if not len(live):
                return finished, live
        sweeps, ks = live.sweep.tolist(), live.k.tolist()
        # the predecessors' values and derivatives at nodes k-1 and k
        (v0, d0), (v1, d1) = np.stack(
            [store[j - 1][k - 1:k + 1] for j, k in zip(sweeps, ks)], axis=2)
        mid = _hermite_midpoint(v0, v1, d0, d1, self.grid[1] - self.grid[0])
        h_mid, h_end = h - 1, h - 2
        src_mid = np.einsum("hij,hjab->hiab", self.W[h_mid], mid)
        src_end = np.einsum("hij,hjab->hiab", self.W[h_end], v0)
        hc_mid = 0 if self.constant_dynamics else h_mid
        hc_end = 0 if self.constant_dynamics else h_end
        p = live.p
        k2 = self._rhs_picard(h_mid, hc_mid, p - 0.5 * dt * k1, src_mid, False)
        k3 = self._rhs_picard(h_mid, hc_mid, p - 0.5 * dt * k2, src_mid, False)
        k4 = self._rhs_picard(h_end, hc_end, p - dt * k3, src_end, False)
        p = _sym(p - (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        out = matcore.project_psd(p, self.options.psd_tol)
        if out is not p and len(p) > 1:
            # a clip in one member re-forms the whole stack; clip member by
            # member, as each sweep on its own does
            out = np.stack([matcore.project_psd(m, self.options.psd_tol) for m in p])
        for j, k, v in zip(sweeps, ks, out):
            store[j][k - 1, 0] = v
        res = np.linalg.norm(out - v0, axis=(-2, -1)).max(axis=-1)
        return finished, _Members(live.sweep, live.k - 1, out, src_end,
                                  np.maximum(live.res, res))


_SWEEP_ERRORS = (RegimeLQError, np.linalg.LinAlgError, FloatingPointError)


@dataclass
class _Members:
    """Live sweeps of the pipelined fixed point, oldest first."""

    sweep: np.ndarray            # (L,) sweep number, from 1
    k: np.ndarray                # (L,) grid node the member stands at
    p: np.ndarray                # (L, ell, n, n) state at node k
    src: np.ndarray              # (L, ell, n, n) frozen source at node k
    res: np.ndarray              # (L,) running residual

    def __len__(self) -> int:
        return len(self.sweep)

    def __getitem__(self, sel) -> "_Members":
        return _Members(self.sweep[sel], self.k[sel], self.p[sel], self.src[sel],
                        self.res[sel])

    @classmethod
    def empty(cls, shape) -> "_Members":
        ints = np.empty(0, dtype=np.intp)
        mats = np.empty((0,) + shape)
        return cls(ints, ints, mats, mats, np.empty(0))

    @classmethod
    def join(cls, parts, shape) -> "_Members":
        if not parts:
            return cls.empty(shape)
        return cls(*(np.concatenate([getattr(m, f) for m in parts])
                     for f in ("sweep", "k", "p", "src", "res")))



# ---------------------------------------------------------------------------
# tree backend engine
# ---------------------------------------------------------------------------


class _TreeEngine:
    """Backward induction on the binomial lattice (rescaled coordinates)."""

    def __init__(self, spec: ProblemSpec, options: SolverOptions):
        depth = options.tree_depth
        for name in ("A", "B", "C", "D", "Q", "S", "R", "G"):
            f = spec.coefficient(name)
            if f.is_random and f.depth != depth:
                raise StructuralError(
                    f"{name}: tree field depth {f.depth} != solver tree_depth {depth}"
                )
        self.spec = spec
        self.options = options
        self.tree = BinomialTree(depth, spec.T)
        self.tilde = tilde_transform(spec)
        self.qdiag = np.diag(spec.q)
        ell = spec.ell
        self.scale = np.exp(np.multiply.outer(self.tree.times, self.qdiag))
        self.W = self.tilde.coupling_weights(self.tree.times)
        # per-level coefficient arrays, broadcastable against (k+1, ell, ., .)
        self.coef = {
            name: [self._level_values(name, k) for k in range(depth + 1)]
            for name in ("A", "B", "C", "D", "Q", "S", "R")
        }
        self.has_C = not spec.C.is_zero()
        self.has_D = (not spec.D.is_zero()) or options.force_general_d
        self.has_S = not spec.S.is_zero()
        self.Gt = self._terminal()

    def _level_values(self, name: str, k: int) -> np.ndarray:
        f = self.spec.coefficient(name)
        t = self.tree.times[k]
        if f.is_random:
            return f.levels[k]
        vals = np.stack([f.eval(t, i) for i in range(1, self.spec.ell + 1)])
        return vals[None]        # broadcast over the k+1 nodes

    def _terminal(self) -> np.ndarray:
        depth, ell = self.tree.depth, self.spec.ell
        g = self.spec.G
        out = np.empty((depth + 1, ell, self.spec.n, self.spec.n))
        for j in range(depth + 1):
            node = (depth, j) if g.is_random else None
            for i in range(1, ell + 1):
                out[j, i - 1] = g.eval(self.spec.T, i, node)
        return out * self.scale[depth][None, :, None, None]

    def _drift(self, k: int, pm: np.ndarray, z: np.ndarray, src: np.ndarray,
               include_h: bool) -> np.ndarray:
        """Driver at level k; pm, z, src have shape (k+1, ell, n, n)."""
        a = self.coef["A"][k]
        sc = self.scale[k][None, :, None, None]
        pa = pm @ a
        out = pa + np.swapaxes(pa, -1, -2) + self.coef["Q"][k] * sc + src
        if self.has_C:
            c = self.coef["C"][k]
            pc = pm @ c
            ct = np.swapaxes(c, -1, -2)
            out = out + ct @ pc + z @ c + ct @ z
        if include_h:
            b = self.coef["B"][k]
            m = np.swapaxes(pm @ b, -1, -2)
            if self.has_D:
                d = self.coef["D"][k]
                dt_ = np.swapaxes(d, -1, -2)
                if self.has_C:
                    m = m + dt_ @ pc
                m = m + dt_ @ z
            if self.has_S:
                m = m + self.coef["S"][k] * sc
            if self.has_D:
                sigma = _sym(self.coef["R"][k] * sc + dt_ @ (pm @ d))
                sigma = np.broadcast_to(sigma, m.shape[:-2] + sigma.shape[-2:])
                sigma_inv = _batched_guarded_inverse(sigma, self.options.cond_threshold)
            else:
                sigma_inv = _batched_guarded_inverse(
                    self.coef["R"][k] * sc, self.options.cond_threshold
                )
            out = out - np.swapaxes(m, -1, -2) @ (sigma_inv @ m)
        return _sym(out)

    def _sweep(self, source_levels, include_h: bool, project: bool) -> TreeIterate:
        """One backward induction with a frozen coupling source."""
        depth = self.tree.depth
        dt = self.tree.dt
        levels = [None] * (depth + 1)
        lam_levels = [None] * (depth + 1)
        levels[depth] = self.Gt.copy()
        lam_levels[depth] = np.zeros_like(self.Gt)
        for k in range(depth - 1, -1, -1):
            child = levels[k + 1]
            up, down = child[1:], child[:-1]
            pm = 0.5 * (up + down)
            z = _sym((up - down) / (2.0 * self.tree.sqrt_dt))
            p = pm + dt * self._drift(k, pm, z, source_levels[k], include_h)
            p = _sym(p)
            if project:
                p = matcore.project_psd(p, self.options.psd_tol)
            levels[k] = p
            lam_levels[k] = z
        return TreeIterate(self.tree, tuple(levels), tuple(lam_levels))

    def _coupling_source(self, prev_levels) -> list:
        return [
            np.einsum("ij,njab->niab", self.W[k], prev_levels[k])
            for k in range(self.tree.depth + 1)
        ]

    def solve_p0(self) -> TreeIterate:
        """Linear initial iterate; the live regime coupling is resolved by
        an outer fixed point that freezes it and re-solves (a contraction,
        so a handful of passes suffice)."""
        opts = self.options
        zero = [np.zeros((k + 1, self.spec.ell, self.spec.n, self.spec.n))
                for k in range(self.tree.depth + 1)]
        prev = self._sweep(zero, include_h=False, project=False)
        history = []
        for _ in range(opts.picard_max_iter):
            cur = self._sweep(self._coupling_source(prev.levels),
                              include_h=False, project=False)
            res = _tree_residual(cur.levels, prev.levels)
            history.append(res)
            prev = cur
            if res <= opts.picard_tol:
                return prev
        raise NoConvergence(
            "inner fixed point of the linear initial iterate did not converge",
            residual_history=history,
        )

    def picard_sweep(self, prev: TreeIterate) -> TreeIterate:
        return self._sweep(self._coupling_source(prev.levels),
                           include_h=True, project=True)


def _tree_residual(levels_a, levels_b) -> float:
    return max(
        float(np.max(np.linalg.norm(a - b, axis=(-2, -1))))
        for a, b in zip(levels_a, levels_b)
    )


def _node_weights(k: int) -> np.ndarray:
    """Binomial probabilities of the k+1 nodes at level k."""
    from math import comb

    return np.array([comb(k, j) for j in range(k + 1)], dtype=float) / 2.0**k


# ---------------------------------------------------------------------------
# public solver surface
# ---------------------------------------------------------------------------


def solve_p0(spec: ProblemSpec, options: SolverOptions = None):
    """Initial (linear) iterate; returns a :class:`GridIterate` or
    :class:`TreeIterate` depending on the backend."""
    options = options or SolverOptions()
    if options.backend == "ode":
        return _GridEngine(spec, options).solve_p0()
    return _TreeEngine(spec, options).solve_p0()


def picard_step(spec: ProblemSpec, prev, options: SolverOptions = None):
    """One frozen-coupling sweep from the previous iterate.

    ``prev`` must be on the same grid or tree as the options request and
    positive semidefinite within ``psd_tol``.
    """
    options = options or SolverOptions()
    if isinstance(prev, GridIterate):
        if prev.values.shape[0] != options.grid_steps + 1:
            raise StructuralError("previous iterate lives on a different grid")
        _require_psd(prev.values, options.psd_tol)
        return _GridEngine(spec, options).picard_sweep(prev)
    if isinstance(prev, TreeIterate):
        if prev.tree.depth != options.tree_depth:
            raise StructuralError("previous iterate lives on a different tree")
        for lv in prev.levels:
            _require_psd(lv, options.psd_tol)
        return _TreeEngine(spec, options).picard_sweep(prev)
    raise StructuralError(f"unsupported iterate type {type(prev).__name__}")


def _require_psd(values: np.ndarray, psd_tol: float):
    wmin = float(np.min(np.linalg.eigvalsh(values)))
    if wmin < -psd_tol:
        raise PsdViolation(
            f"iterate has eigenvalue {wmin:.3e} below -psd_tol = {-psd_tol:.3e}"
        )


def solve_esre(spec: ProblemSpec, options: SolverOptions = None, **overrides) -> EsreSolution:
    """Solve the coupled system by the frozen-coupling fixed point.

    Runs the linear initial iterate, then sweeps until the sup-norm
    difference of consecutive iterates is at most ``picard_tol``.  The
    returned solution carries the residual history, the a priori
    diagnostics and (optionally) every iterate.

    Raises
    ------
    AssumptionViolation
        If the definiteness assumptions fail (the report is attached).
    NoConvergence
        After ``picard_max_iter`` sweeps; partial residual history attached.
    NearSingular, PsdViolation
        Propagated from the backward stepping guards.
    """
    if options is None:
        options = SolverOptions(**overrides)
    elif overrides:
        raise TypeError("pass either options or keyword overrides, not both")

    report = validate_assumptions(spec, tol=options.psd_tol)
    if not report.passed:
        raise AssumptionViolation(
            f"definiteness assumptions fail at {len(report.violations)} point(s)",
            report=report,
        )
    smallness = check_smallness(spec)
    smallness_ok = smallness <= options.smallness_threshold
    if not smallness_ok:
        warnings.warn(
            f"measured diffusion size {smallness:.4g} exceeds threshold "
            f"{options.smallness_threshold:.4g}; the fixed point may lose "
            "monotonicity",
            stacklevel=2,
        )

    if options.backend == "ode":
        return _solve_grid(spec, options, smallness, smallness_ok)
    return _solve_tree(spec, options, smallness, smallness_ok)


def _solve_grid(spec, options, smallness, smallness_ok) -> EsreSolution:
    engine = _GridEngine(spec, options)
    it0 = engine.solve_p0()
    ptilde, residuals, iterates = engine.pipelined_sweeps(it0)
    lamtilde = np.zeros_like(ptilde)
    p, lam = untilde_solution(ptilde, lamtilde, spec.generator, engine.grid)
    p[-1] = engine.G           # terminal condition exact by assignment
    _require_psd(p, options.psd_tol)
    diag = _diagnostics(spec, engine.grid, it0.values, lamtilde,
                        smallness, options.smallness_threshold, smallness_ok)
    return EsreSolution(
        grid=engine.grid, P=p, Lambda=lam, Ptilde=ptilde, Lambdatilde=lamtilde,
        backend="ode", iterations=len(residuals), residual_history=residuals,
        diagnostics=diag, options=options, iterates=iterates,
    )


def _solve_tree(spec, options, smallness, smallness_ok) -> EsreSolution:
    engine = _TreeEngine(spec, options)
    it0 = engine.solve_p0()
    iterates = [tuple(lv.copy() for lv in it0.levels)] if options.keep_iterates else None
    prev = it0
    residuals = []
    converged = False
    for _ in range(options.picard_max_iter):
        cur = engine.picard_sweep(prev)
        res = _tree_residual(cur.levels, prev.levels)
        residuals.append(res)
        if options.keep_iterates:
            iterates.append(tuple(lv.copy() for lv in cur.levels))
        prev = cur
        if res <= options.picard_tol:
            converged = True
            break
    if not converged:
        raise NoConvergence(
            f"no convergence after {options.picard_max_iter} sweeps "
            f"(last residual {residuals[-1]:.3e})",
            residual_history=residuals,
        )

    tree = engine.tree
    inv_scale = np.exp(-np.multiply.outer(tree.times, np.diag(spec.q)))
    p_levels, lam_levels = [], []
    for k in range(tree.depth + 1):
        f = inv_scale[k][None, :, None, None]
        p_levels.append(prev.levels[k] * f)
        lam_levels.append(prev.lam_levels[k] * f)
    # terminal condition exact by assignment (the exp round trip is 1 ulp off)
    g = spec.G
    for j in range(tree.depth + 1):
        node = (tree.depth, j) if g.is_random else None
        for i in range(1, spec.ell + 1):
            p_levels[tree.depth][j, i - 1] = g.eval(spec.T, i, node)
    for lv in p_levels:
        _require_psd(lv, options.psd_tol)

    # grid summary: probability-weighted node means (exact when nodes agree)
    grid = tree.times
    ell, n = spec.ell, spec.n
    P = np.empty((tree.depth + 1, ell, n, n))
    Lam = np.empty_like(P)
    Pt = np.empty_like(P)
    Lt = np.empty_like(P)
    for k in range(tree.depth + 1):
        wts = _node_weights(k)[:, None, None, None]
        P[k] = (p_levels[k] * wts).sum(axis=0)
        Lam[k] = (lam_levels[k] * wts).sum(axis=0)
        Pt[k] = (prev.levels[k] * wts).sum(axis=0)
        Lt[k] = (prev.lam_levels[k] * wts).sum(axis=0)
    diag = _diagnostics_tree(spec, tree, it0, prev,
                             smallness, options.smallness_threshold, smallness_ok)
    sol_tree = TreeSolution(
        tree=tree, p_levels=tuple(p_levels), lam_levels=tuple(lam_levels),
        ptilde_levels=prev.levels, lamtilde_levels=prev.lam_levels,
    )
    return EsreSolution(
        grid=grid, P=P, Lambda=Lam, Ptilde=Pt, Lambdatilde=Lt,
        backend="tree", iterations=len(residuals), residual_history=residuals,
        diagnostics=diag, options=options, iterates=iterates, tree=sol_tree,
    )


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def growth_constant(spec: ProblemSpec) -> float:
    """Conservative bound K with

        |linear drift(p, lam)| <= K |p| + K |lam|,   |Q|, |G| <= K,
        |q_ij exp((q_ii - q_jj) t)| <= K             (i != j, t in [0, T]).

    Uses ``2 max|A| + max|C|^2`` and ``2 max|C|`` for the drift part; any
    valid K keeps the a priori bound assertable, so conservatism is safe.
    K saturates to ``inf`` when ``exp((q_ii - q_jj) T)`` overflows.
    """
    max_a = spec.A.max_norm()
    max_c = spec.C.max_norm()
    q = spec.q
    qdiag = np.diag(q)
    diff = qdiag[:, None] - qdiag[None, :]
    with np.errstate(over="ignore"):
        growth = np.maximum(np.exp(diff * 0.0), np.exp(diff * spec.T))
    off = np.where(q != 0.0, np.abs(q) * growth, 0.0)
    np.fill_diagonal(off, 0.0)
    return max(
        2.0 * max_a + max_c**2,
        2.0 * max_c,
        spec.Q.max_norm(),
        spec.G.max_norm(),
        float(off.max()),
    )


def _square(x: float) -> float:
    """``x**2``, saturating to ``inf`` where float ``**`` raises."""
    try:
        return x**2
    except OverflowError:
        return np.inf


def _rho_of(spec: ProblemSpec, k_est: float) -> float:
    return (3.0 * (spec.ell - 1) ** 2 * spec.T + 3.0) * _square(k_est) + 3.0 * k_est


def _bound_logs(spec, k_est, rho, log_sup_sq):
    """log of measured sup and of the bound 1.5 e^{rho T}(K^2 + 1/rho);
    the bound is ``inf`` once rho is."""
    if rho <= 0.0:
        return -np.inf if log_sup_sq == -np.inf else log_sup_sq, np.inf
    log_bound = np.log(1.5) + rho * spec.T + np.log(_square(k_est) + 1.0 / rho)
    return log_sup_sq, log_bound


def _diagnostics(spec, grid, ptilde0, lamtilde, smallness, thresh, ok) -> Diagnostics:
    k_est = growth_constant(spec)
    rho = _rho_of(spec, k_est)
    norms = np.linalg.norm(ptilde0, axis=(-2, -1))        # (N+1, ell)
    # rho = inf makes rho * 0 undefined at t = 0; nanmax skips that sample
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = rho * grid[:, None] + 2.0 * np.log(norms)
    log_sup = float(np.nanmax(logs)) if norms.size else -np.inf
    log_sup, log_bound = _bound_logs(spec, k_est, rho, log_sup)
    dt = grid[1] - grid[0] if grid.size > 1 else 0.0
    lam_l2 = np.sqrt((np.linalg.norm(lamtilde, axis=(-2, -1)) ** 2).sum(axis=0) * dt)
    return Diagnostics(
        rho=rho, k_estimate=k_est,
        apriori_bound=float(np.exp(min(log_bound, 709.0))) if np.isfinite(log_bound) else np.inf,
        measured_sup=float(np.exp(log_sup)) if log_sup < 709.0 else np.inf,
        log_apriori_bound=log_bound, log_measured_sup=log_sup,
        lambda_l2=lam_l2, smallness=smallness,
        smallness_threshold=thresh, smallness_ok=ok,
    )


def _diagnostics_tree(spec, tree, it0, final, smallness, thresh, ok) -> Diagnostics:
    k_est = growth_constant(spec)
    rho = _rho_of(spec, k_est)
    log_sup = -np.inf
    for k, lv in enumerate(it0.levels):
        norms = np.linalg.norm(lv, axis=(-2, -1))
        top = float(norms.max())
        if top > 0.0 and (k > 0 or np.isfinite(rho)):
            log_sup = max(log_sup, rho * tree.times[k] + 2.0 * np.log(top))
    log_sup, log_bound = _bound_logs(spec, k_est, rho, log_sup)
    sq_sum = np.zeros(spec.ell)
    for k in range(tree.depth):
        wts = _node_weights(k)[:, None]
        sq_sum += (np.linalg.norm(final.lam_levels[k], axis=(-2, -1)) ** 2 * wts).sum(axis=0)
    lam_l2 = np.sqrt(sq_sum * tree.dt)
    return Diagnostics(
        rho=rho, k_estimate=k_est,
        apriori_bound=float(np.exp(min(log_bound, 709.0))) if np.isfinite(log_bound) else np.inf,
        measured_sup=float(np.exp(log_sup)) if log_sup < 709.0 else np.inf,
        log_apriori_bound=log_bound, log_measured_sup=log_sup,
        lambda_l2=lam_l2, smallness=smallness,
        smallness_threshold=thresh, smallness_ok=ok,
    )


# ---------------------------------------------------------------------------
# direct coupled oracle
# ---------------------------------------------------------------------------


def direct_coupled_oracle(spec: ProblemSpec, options: SolverOptions = None,
                          **overrides) -> EsreSolution:
    """Integrate the full coupled system directly (no coupling freeze,
    original coordinates, martingale part zero).  Deterministic
    coefficients only.  Used to cross-check the fixed-point limit.

    Raises
    ------
    StepFailure
        If the state norm exceeds the blow-up guard (1e8).
    """
    if options is None:
        options = SolverOptions(**overrides)
    engine = _GridEngine(spec, options)
    q_full = spec.q
    has_D = engine.has_D
    # plain-coordinate inverse of R when D is identically zero
    r_inv = None
    if not has_D:
        r_inv = _batched_guarded_inverse(engine.R, options.cond_threshold)

    def rhs(h, p):
        pa = p @ engine.A[h]
        out = pa + np.swapaxes(pa, -1, -2) + engine.Q[h]
        pc = None
        if engine.has_C:
            pc = p @ engine.C[h]
            out = out + np.swapaxes(engine.C[h], -1, -2) @ pc
        out = out + np.einsum("ij,jab->iab", q_full, p)
        m = np.swapaxes(p @ engine.B[h], -1, -2)
        if has_D and pc is not None:
            m = m + np.swapaxes(engine.D[h], -1, -2) @ pc
        if engine.has_S:
            m = m + engine.S[h]
        if has_D:
            sigma = _sym(engine.R[h] + np.swapaxes(engine.D[h], -1, -2) @ (p @ engine.D[h]))
            try:
                x = np.linalg.solve(sigma, m)
            except np.linalg.LinAlgError as exc:
                raise NearSingular("R + D'PD is singular") from exc
        else:
            x = r_inv[h] @ m
        out = out - np.swapaxes(m, -1, -2) @ x
        return -_sym(out)

    n_steps = options.grid_steps
    dt = engine.dt
    values = np.empty((n_steps + 1,) + engine.G.shape)
    p = engine.G.copy()
    values[n_steps] = p
    for k in range(n_steps, 0, -1):
        h = 2 * k
        k1 = rhs(h, p)
        k2 = rhs(h - 1, p - 0.5 * dt * k1)
        k3 = rhs(h - 1, p - 0.5 * dt * k2)
        k4 = rhs(h - 2, p - dt * k3)
        p = _sym(p - (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        if float(np.max(np.abs(p))) > BLOWUP_GUARD:
            raise StepFailure(f"state norm exceeded {BLOWUP_GUARD:g} at t={engine.grid[k-1]:g}")
        values[k - 1] = p

    lam = np.zeros_like(values)
    scale = engine.tilde.scale(engine.grid)[:, :, None, None]
    diag = _diagnostics(spec, engine.grid, values * scale, lam,
                        check_smallness(spec), options.smallness_threshold, True)
    return EsreSolution(
        grid=engine.grid, P=values, Lambda=lam,
        Ptilde=values * scale, Lambdatilde=lam,
        backend="direct", iterations=0, residual_history=[],
        diagnostics=diag, options=options,
    )
