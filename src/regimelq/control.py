"""Feedback synthesis and Monte Carlo verification of optimality.

From a solved Riccati pair the optimal control is the linear feedback

    u*(t, i, X) = K(t, i) X,
    K(t, i) = -(R + D'P D)^{-1} (B'P + D'P C + D'Lambda + S)(t, i),

and the optimal value is the quadratic form ``<P(0, i0) x, x>``.  This
module turns a solution into :class:`FeedbackGain`, simulates the
closed-loop switching state with Euler-Maruyama (the regime path itself is
sampled exactly and read by lookup), and estimates costs by Monte Carlo.

Cost convention: left-endpoint quadrature of the running integrand

    X'Q(t,a)X + 2 u'S(t,a)X + u'R(t,a)u

plus the terminal term ``<G(a_T) X(T), X(T)>``.  The induced O(dt) bias is
part of the stated verification tolerances.

Optimality is checked by perturbing the feedback, ``u = K X + e(t)``, and
comparing against the completed-square prediction

    gap = int_0^T E<(R + D'P D)(t, a_t) e(t), e(t)> dt,

which is exact for deterministic ``e``.  Perturbed and unperturbed runs
share their noise and regime paths (common random numbers), so the gap is
measurable with far fewer paths than either cost alone.

Every path draws from its own counter-based substream keyed by
``(master_seed, path_index)`` - chain jumps first, then the Brownian
increments - so estimates are bit-reproducible regardless of batching or
the ``REGIMELQ_THREADS`` worker cap.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.integrate import trapezoid

from . import matcore
from .errors import BlowUp, OutOfRange, StructuralError
from .esre import EsreSolution, _batched_guarded_inverse
from .model import ProblemSpec
from .regime_chain import (
    _jump_cumprobs,
    path_substream,
    sample_chain_path,
    sample_jumps,
    transition_matrix,
)

CHUNK_PATHS = 4096


def worker_count(n_tasks: int) -> int:
    """Worker cap from REGIMELQ_THREADS (0 or unset = auto).

    Auto resolves to a single worker: the per-path substream setup is
    Python-bound and the per-step array operations are too small to
    release the GIL profitably, so extra threads slow desk-scale runs
    down.  Results are identical for any worker count.
    """
    raw = os.environ.get("REGIMELQ_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        raise StructuralError(f"REGIMELQ_THREADS must be an integer, got {raw!r}")
    if cap < 0:
        raise StructuralError("REGIMELQ_THREADS must be >= 0")
    if cap == 0:
        cap = 1
    return max(1, min(cap, n_tasks))


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------


@dataclass
class FeedbackGain:
    """Time- and regime-indexed feedback matrices.

    ``gains[k, i-1]`` is the m x n gain at ``grid[k]`` for regime i.  Time
    lookup takes the nearest grid sample at or before t, matching the
    piecewise-constant coefficient convention.
    """

    grid: np.ndarray
    gains: np.ndarray            # (K, ell, m, n)

    def __post_init__(self):
        if not np.all(np.isfinite(self.gains)):
            raise StructuralError("feedback gains contain non-finite entries")

    def at(self, t: float, regime: int) -> np.ndarray:
        idx = int(np.searchsorted(self.grid, t, side="right")) - 1
        idx = min(max(idx, 0), len(self.grid) - 1)
        return self.gains[idx, regime - 1]

    def sample_times(self, times: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.grid, times, side="right") - 1
        idx = np.clip(idx, 0, len(self.grid) - 1)
        return self.gains[idx]


@dataclass
class Perturbation:
    """Deterministic control offset e(t), constant or piecewise-constant."""

    values: np.ndarray           # (m,) or (K, m)
    times: np.ndarray = None     # table sample times when piecewise

    @classmethod
    def coerce(cls, e, m: int) -> "Perturbation":
        if e is None:
            return cls(values=np.zeros(m))
        if isinstance(e, Perturbation):
            return e
        if isinstance(e, tuple) and len(e) == 2:
            times, vals = e
            return cls(values=np.asarray(vals, dtype=float).reshape(len(times), m),
                       times=np.asarray(times, dtype=float))
        arr = np.asarray(e, dtype=float)
        if arr.ndim == 0:
            arr = np.full(m, float(arr))
        return cls(values=arr.reshape(m))

    def sample_times(self, times: np.ndarray) -> np.ndarray:
        if self.times is None:
            return np.broadcast_to(self.values, (len(times),) + self.values.shape)
        idx = np.clip(np.searchsorted(self.times, times, side="right") - 1, 0, None)
        return self.values[idx]


@dataclass
class Policy:
    """Affine control law ``u(t, i, x) = K(t, i) x + e(t)``; either part
    may be absent."""

    gains: FeedbackGain = None
    offset: Perturbation = None

    @classmethod
    def coerce(cls, policy, m: int) -> "Policy":
        if isinstance(policy, Policy):
            return policy
        if isinstance(policy, FeedbackGain):
            return cls(gains=policy)
        if policy is None:
            return cls()
        raise StructuralError(
            f"unsupported policy type {type(policy).__name__}; "
            "pass a FeedbackGain or a Policy"
        )


# ---------------------------------------------------------------------------
# gain synthesis and value function
# ---------------------------------------------------------------------------


def feedback_gain(solution: EsreSolution, spec: ProblemSpec) -> FeedbackGain:
    """Optimal feedback matrices on the solution grid.

    Raises NearSingular if ``R + D'P D`` fails the guarded inversion at any
    sample and regime.
    """
    grid = solution.grid
    bs = spec.B.sample_times(grid)
    cs = spec.C.sample_times(grid)
    ds = spec.D.sample_times(grid)
    ss = spec.S.sample_times(grid)
    rs = spec.R.sample_times(grid)
    p = solution.P
    mrow = bs.mT @ p + ds.mT @ (p @ cs) + ds.mT @ solution.Lambda + ss
    sigma = matcore.symmetrize(rs + ds.mT @ (p @ ds))
    gains = -(_batched_guarded_inverse(sigma, solution.options.cond_threshold) @ mrow)
    return FeedbackGain(grid=grid, gains=gains)


def value_at(solution: EsreSolution, x0, i0: int) -> float:
    """Optimal value ``<P(0, i0) x0, x0>``."""
    x = np.asarray(x0, dtype=float).ravel()
    p = solution.P[0, i0 - 1]
    return float(x @ p @ x)


# ---------------------------------------------------------------------------
# single-path simulation (reference implementation)
# ---------------------------------------------------------------------------


@dataclass
class PathRecord:
    """One simulated closed-loop trajectory.

    ``regimes[k]`` is the regime in force on ``[times[k], times[k+1])``
    (and at T for the last entry); ``running_cost`` is the cumulative
    left-endpoint quadrature, so ``running_cost[-1]`` excludes the terminal
    term that ``total_cost`` includes.
    """

    times: np.ndarray
    states: np.ndarray           # (K+1, n)
    regimes: np.ndarray          # (K+1,), 1-based
    controls: np.ndarray         # (K, m)
    running_cost: np.ndarray     # (K+1,)
    terminal_cost: float
    total_cost: float


def simulate_closed_loop(spec: ProblemSpec, policy, x0, i0: int, dt: float,
                         rng: np.random.Generator) -> PathRecord:
    """Simulate one path of the controlled switching state.

    ``policy`` may be a :class:`FeedbackGain`, a :class:`Policy`, ``None``
    (zero control) or a callable ``u(t, regime, x)``.  The regime path is
    sampled exactly from ``rng`` first, then the Brownian increments; this
    order matches the batched Monte Carlo engine, so a path substream
    reproduces the engine's path bit for bit.
    """
    n_steps = _step_count(spec.T, dt)
    if not 1 <= int(i0) <= spec.ell:
        raise OutOfRange(f"initial regime {i0} outside 1..{spec.ell}")
    x = np.asarray(x0, dtype=float).reshape(spec.n)

    path = sample_chain_path(spec.generator, int(i0), spec.T, rng)
    xi = rng.standard_normal(n_steps)
    times = dt * np.arange(n_steps + 1)
    regimes = path.regime_at(times)
    regimes[-1] = path.states[-1]

    if callable(policy):
        control_fn = policy
    else:
        pol = Policy.coerce(policy, spec.m)
        off = Perturbation.coerce(pol.offset, spec.m)

        def control_fn(t, regime, xv):
            u = np.zeros(spec.m)
            if pol.gains is not None:
                u = pol.gains.at(t, regime) @ xv
            return u + off.sample_times(np.array([t]))[0]

    states = np.empty((n_steps + 1, spec.n))
    controls = np.empty((n_steps, spec.m))
    running = np.empty(n_steps + 1)
    states[0] = x
    running[0] = 0.0
    sq = np.sqrt(dt)
    acc = 0.0
    for k in range(n_steps):
        t = times[k]
        i = int(regimes[k])
        a = spec.A.eval(t, i)
        b = spec.B.eval(t, i)
        c = spec.C.eval(t, i)
        d = spec.D.eval(t, i)
        q = spec.Q.eval(t, i)
        s = spec.S.eval(t, i)
        r = spec.R.eval(t, i)
        u = np.asarray(control_fn(t, i, x), dtype=float).reshape(spec.m)
        acc += float(x @ q @ x + 2.0 * (u @ (s @ x)) + u @ r @ u) * dt
        dw = sq * xi[k]
        x = x + (a @ x + b @ u) * dt + (c @ x + d @ u) * dw
        if float(np.max(np.abs(x))) > 1e8:
            raise BlowUp(f"state norm exceeded 1e8 at t={t + dt:g}", path_index=0)
        controls[k] = u
        states[k + 1] = x
        running[k + 1] = acc
    g = spec.G.eval(spec.T, int(regimes[-1]))
    terminal = float(x @ g @ x)
    return PathRecord(
        times=times, states=states, regimes=regimes, controls=controls,
        running_cost=running, terminal_cost=terminal,
        total_cost=acc + terminal,
    )


def _step_count(T: float, dt: float) -> int:
    n = int(round(T / dt))
    if n < 1 or abs(n * dt - T) > 1e-12 * max(1.0, T):
        raise StructuralError(f"dt={dt} does not divide the horizon T={T}")
    return n


# ---------------------------------------------------------------------------
# batched Monte Carlo engine
# ---------------------------------------------------------------------------


class _CompiledPolicy:
    """Policy tabulated on the simulation grid: gains (K, ell, m, n) or
    None, offsets (K, m).  For scalar problems the per-step update and
    cost are folded into closed-loop tables so each step needs a single
    regime gather:

        x'   = (mult_x x + add_x) + (diff_x x + diff_0) dW
        cost += (quad x + lin) x + const
    """

    def __init__(self, policy, spec, tables):
        pol = Policy.coerce(policy, spec.m)
        times = tables.times
        self.k_table = None
        if pol.gains is not None:
            self.k_table = np.ascontiguousarray(pol.gains.sample_times(times))
        self.e_table = np.ascontiguousarray(
            Perturbation.coerce(pol.offset, spec.m).sample_times(times)
        )
        self.has_offset = bool(self.e_table.any())
        self.scalar_table = None
        if spec.n == 1 and spec.m == 1:
            dt = tables.dt
            a = tables.A[:, :, 0, 0]
            b = tables.B[:, :, 0, 0]
            c = tables.C[:, :, 0, 0]
            d = tables.D[:, :, 0, 0]
            q = tables.Q[:, :, 0, 0]
            s = tables.S[:, :, 0, 0]
            r = tables.R[:, :, 0, 0]
            kk = self.k_table[:, :, 0, 0] if self.k_table is not None else np.zeros_like(a)
            ee = self.e_table[:, 0][:, None]
            tab = np.empty(a.shape + (7,))
            tab[..., 0] = 1.0 + (a + b * kk) * dt
            tab[..., 1] = b * ee * dt
            tab[..., 2] = c + d * kk
            tab[..., 3] = d * ee
            tab[..., 4] = (q + (2.0 * s + r * kk) * kk) * dt
            tab[..., 5] = 2.0 * (s + r * kk) * ee * dt
            tab[..., 6] = r * ee * ee * dt
            self.scalar_table = np.ascontiguousarray(tab)


class _BatchTables:
    """Coefficients and policies sampled once on the simulation grid."""

    def __init__(self, spec: ProblemSpec, policies, dt: float):
        if spec.has_random_coefficients:
            raise StructuralError(
                "Monte Carlo simulation requires deterministic coefficients"
            )
        self.spec = spec
        self.n_steps = _step_count(spec.T, dt)
        self.dt = dt
        self.times = dt * np.arange(self.n_steps)
        self.A = spec.A.sample_times(self.times)
        self.B = spec.B.sample_times(self.times)
        self.C = spec.C.sample_times(self.times)
        self.D = spec.D.sample_times(self.times)
        self.Q = spec.Q.sample_times(self.times)
        self.S = spec.S.sample_times(self.times)
        self.R = spec.R.sample_times(self.times)
        self.G = np.stack([spec.G.eval(spec.T, i) for i in range(1, spec.ell + 1)])
        self.policies = [_CompiledPolicy(p, spec, self) for p in policies]


def _simulate_chunk(tables: _BatchTables, x0, i0, master_seed, lo, hi, costs):
    """Simulate paths [lo, hi) for every policy; write into costs[:, lo:hi]."""
    spec = tables.spec
    n_steps, dt = tables.n_steps, tables.dt
    count = hi - lo
    xi = np.empty((count, n_steps))
    reg = np.empty((count, n_steps), dtype=np.intp)
    reg_T = np.empty(count, dtype=np.intp)
    times = tables.times
    q = spec.generator.q
    cum = _jump_cumprobs(q)
    for p in range(count):
        rng = path_substream(master_seed, lo + p)
        jumps, states = sample_jumps(q, cum, i0, spec.T, rng)
        xi[p] = rng.standard_normal(n_steps)
        st = np.asarray(states)
        reg[p] = st[np.searchsorted(jumps, times, side="right")] - 1
        reg_T[p] = states[-1] - 1
    dw = np.sqrt(dt) * xi

    scalar = spec.n == 1 and spec.m == 1
    for ip, pol in enumerate(tables.policies):
        if scalar:
            c = _run_scalar(tables, pol, float(np.asarray(x0).ravel()[0]),
                            reg, reg_T, dw, lo)
        else:
            c = _run_general(tables, pol, np.asarray(x0, dtype=float).reshape(spec.n),
                             reg, reg_T, dw, lo)
        costs[ip, lo:hi] = c


def _run_scalar(tables, pol, x0, reg, reg_T, dw, path_offset):
    """n = m = 1 fast path: one regime gather per step on the fused
    closed-loop table."""
    n_steps = tables.n_steps
    tab = pol.scalar_table
    x = np.full(reg.shape[0], x0)
    cost = np.zeros(reg.shape[0])
    for k in range(n_steps):
        row = tab[k][reg[:, k]]
        cost += (row[:, 4] * x + row[:, 5]) * x + row[:, 6]
        x = (row[:, 0] * x + row[:, 1]) + (row[:, 2] * x + row[:, 3]) * dw[:, k]
        if np.max(np.abs(x)) > 1e8:
            raise BlowUp(
                f"state norm exceeded 1e8 at step {k + 1}",
                path_index=path_offset + int(np.argmax(np.abs(x) > 1e8)),
            )
    cost += tables.G[reg_T, 0, 0] * x * x
    return cost


def _run_general(tables, pol, x0, reg, reg_T, dw, path_offset):
    """Matrix-valued states: per-step gather of regime coefficients."""
    n_steps, dt = tables.n_steps, tables.dt
    count = reg.shape[0]
    x = np.broadcast_to(x0, (count, x0.size)).copy()
    cost = np.zeros(count)
    for k in range(n_steps):
        rk = reg[:, k]
        if pol.k_table is not None:
            u = np.einsum("pij,pj->pi", pol.k_table[k][rk], x)
        else:
            u = np.zeros((count, tables.spec.m))
        if pol.has_offset:
            u = u + pol.e_table[k]
        qx = np.einsum("pij,pj->pi", tables.Q[k][rk], x)
        sx = np.einsum("pij,pj->pi", tables.S[k][rk], x)
        ru = np.einsum("pij,pj->pi", tables.R[k][rk], u)
        cost += ((x * qx).sum(1) + 2.0 * (u * sx).sum(1) + (u * ru).sum(1)) * dt
        drift = np.einsum("pij,pj->pi", tables.A[k][rk], x) \
            + np.einsum("pij,pj->pi", tables.B[k][rk], u)
        diff = np.einsum("pij,pj->pi", tables.C[k][rk], x) \
            + np.einsum("pij,pj->pi", tables.D[k][rk], u)
        x = x + drift * dt + diff * dw[:, k][:, None]
        norms = np.abs(x).max(axis=1)
        if (norms > 1e8).any():
            raise BlowUp(
                f"state norm exceeded 1e8 at step {k + 1}",
                path_index=path_offset + int(np.argmax(norms > 1e8)),
            )
    gx = np.einsum("pij,pj->pi", tables.G[reg_T], x)
    cost += (x * gx).sum(1)
    return cost


def _batch_costs(spec, policies, x0, i0, n_paths, dt, master_seed) -> np.ndarray:
    """Per-path costs, shape (len(policies), n_paths).  Identical results
    for any chunking or worker count: substreams are per path and every
    chunk writes a disjoint slice."""
    if n_paths < 1:
        raise StructuralError("n_paths must be >= 1")
    if not 1 <= int(i0) <= spec.ell:
        raise OutOfRange(f"initial regime {i0} outside 1..{spec.ell}")
    tables = _BatchTables(spec, policies, dt)
    costs = np.empty((len(policies), n_paths))
    bounds = list(range(0, n_paths, CHUNK_PATHS)) + [n_paths]
    chunks = [(bounds[j], bounds[j + 1]) for j in range(len(bounds) - 1)]
    workers = worker_count(len(chunks))
    if workers == 1:
        for lo, hi in chunks:
            _simulate_chunk(tables, x0, int(i0), master_seed, lo, hi, costs)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_simulate_chunk, tables, x0, int(i0), master_seed, lo, hi, costs)
                for lo, hi in chunks
            ]
            for f in futures:
                f.result()
    return costs


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


@dataclass
class CostEstimate:
    mean: float
    std_error: float
    n_paths: int
    dt: float
    seed: int


def _estimate(per_path: np.ndarray, dt: float, seed: int) -> CostEstimate:
    n = per_path.size
    mean = math.fsum(per_path) / n
    if n > 1:
        var = math.fsum((per_path - mean) ** 2) / (n - 1)
        se = math.sqrt(var / n)
    else:
        se = 0.0
    return CostEstimate(mean=mean, std_error=se, n_paths=n, dt=dt, seed=seed)


def mc_cost(spec: ProblemSpec, policy, x0, i0: int, n_paths: int, dt: float,
            master_seed: int) -> CostEstimate:
    """Monte Carlo estimate of the cost of a policy.

    Per-path costs are accumulated with compensated summation in path-index
    order, so the estimate does not depend on chunking or thread count.
    """
    if n_paths < 2:
        raise StructuralError("n_paths must be >= 2 for a standard error")
    costs = _batch_costs(spec, [policy], x0, i0, n_paths, dt, master_seed)
    return _estimate(costs[0], dt, master_seed)


@dataclass
class GapEstimate:
    """Measured and predicted cost excess of a perturbed feedback."""

    gap: float
    std_error: float
    theoretical_gap: float
    feedback: CostEstimate
    perturbed: CostEstimate


def optimality_gap(spec: ProblemSpec, solution: EsreSolution, perturbation,
                   n_paths: int, dt: float, seed: int,
                   gains: FeedbackGain = None) -> GapEstimate:
    """Cost excess of ``u = K X + e`` over the plain feedback.

    Both policies run on the same noise and regime paths, and the standard
    error reported is that of the paired per-path differences.  The
    completed-square prediction integrates
    ``E <(R + D'P D)(t, a_t) e(t), e(t)>`` over the solution grid with the
    regime distribution propagated exactly from the initial regime.
    """
    if gains is None:
        gains = feedback_gain(solution, spec)
    e = Perturbation.coerce(perturbation, spec.m)
    x0 = spec.x0 if spec.x0 is not None else np.zeros(spec.n)
    i0 = spec.i0
    base = Policy(gains=gains)
    pert = Policy(gains=gains, offset=e)
    costs = _batch_costs(spec, [base, pert], x0, i0, n_paths, dt, seed)
    diffs = costs[1] - costs[0]
    gap_est = _estimate(diffs, dt, seed)
    return GapEstimate(
        gap=gap_est.mean,
        std_error=gap_est.std_error,
        theoretical_gap=predicted_gap(spec, solution, e, i0),
        feedback=_estimate(costs[0], dt, seed),
        perturbed=_estimate(costs[1], dt, seed),
    )


def predicted_gap(spec: ProblemSpec, solution: EsreSolution, perturbation,
                  i0: int) -> float:
    """Completed-square prediction for a deterministic offset:
    trapezoid of ``sum_i prob_i(t) e(t)'(R + D'P D)(t,i) e(t)`` on the
    solution grid."""
    e = Perturbation.coerce(perturbation, spec.m)
    grid = solution.grid
    ev = e.sample_times(grid)                     # (K, m)
    rs = spec.R.sample_times(grid)
    ds = spec.D.sample_times(grid)
    p = solution.P
    sig = rs + np.swapaxes(ds, -1, -2) @ (p @ ds)  # (K, ell, m, m)
    quad = np.einsum("ka,kiab,kb->ki", ev, sig, ev)
    # regime distribution propagated step by step (time-homogeneous chain)
    probs = np.zeros((len(grid), spec.ell))
    probs[0, i0 - 1] = 1.0
    if len(grid) > 1:
        step = transition_matrix(spec.generator, float(grid[1] - grid[0]))
        for k in range(1, len(grid)):
            probs[k] = probs[k - 1] @ step
    integrand = (quad * probs).sum(axis=1)
    return float(trapezoid(integrand, grid))
