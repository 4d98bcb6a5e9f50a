"""Feedback synthesis and Monte Carlo verification of optimality.

From a solved Riccati pair the optimal control is the linear feedback

    u*(t, i, X) = K(t, i) X,
    K(t, i) = -(R + D'P D)^{-1} (B'P + D'P C + D'Lambda + S)(t, i),

and the optimal value is the quadratic form ``<P(0, i0) x, x>``.  This
module turns a solution into the gains K, a time-table
:class:`~regimelq.model.CoefficientField` of m x n matrices read like the
problem's coefficients (``gains.eval(t, i)``), simulates the closed-loop
switching state with Euler-Maruyama (the regime path itself is
sampled exactly and read by lookup), and estimates costs by Monte Carlo.

Cost convention: left-endpoint quadrature of the running integrand

    X'Q(t,a)X + 2 u'S(t,a)X + u'R(t,a)u

plus the terminal term ``<G(a_T) X(T), X(T)>``.  The induced O(dt) bias is
part of the stated verification tolerances.

Under an affine policy ``u = K X + e`` the closed loop is

    dX = [(A + BK) X + B e] dt + [(C + DK) X + D e] dW,

with running integrand ``X'(Q + K'S + S'K + K'RK)X + 2 e'(S + RK)X +
e'Re``.  The batched engine tabulates these closed-loop matrices once per
(step, regime), for every state and control dimension.  Each Euler step
gathers one packed row per path and holds the state as one vector per
state entry, so every matrix-vector entry is a left-to-right float sum
over the state entries, computed for all paths at once.

Optimality is checked by perturbing the feedback, ``u = K X + e(t)``, and
comparing against the completed-square prediction

    gap = int_0^T E<(R + D'P D)(t, a_t) e(t), e(t)> dt,

which is exact for deterministic ``e``.  Perturbed and unperturbed runs
share their noise and regime paths (common random numbers), so the gap is
measurable with far fewer paths than either cost alone.

Every path draws from its own counter-based substream keyed by
``(master_seed, path_index)`` - chain jumps first, then the Brownian
increments - so estimates are bit-reproducible regardless of chunking.
The engine builds one Philox per chunk of paths and re-keys it for each
path, which draws the same streams as one new substream per path, and
reads every path's regimes off one step-major table per chunk.  Streams
and estimates are the same as with a new substream and a separate regime
lookup per path; only the set-up cost differs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import BlowUp, DimensionMismatch, OutOfRange, StructuralError
from .esre import EsreSolution, _gain_blocks
from .model import CoefficientField, ProblemSpec
from .regime_chain import (
    _jump_cumprobs,
    check_regime,
    path_substream,
    rekeyed,
    sample_chain_path,
    sample_jumps,
    transition_matrix,
)

CHUNK_PATHS = 4096
_TRANSPOSE_BLOCK = 256


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------


@dataclass
class Perturbation:
    """Deterministic control offset e(t), constant or piecewise-constant.

    A table holds values (K, m) at K finite, strictly increasing times, the
    first at or before 0, each value holding up to the next time.  Anything
    else is refused at construction: a rank other than (m,) or (K, m) with
    DimensionMismatch, a table starting after 0 (which would leave the
    offset undefined on [0, times[0])) or bad times with StructuralError.
    """

    values: np.ndarray           # (m,) or (K, m)
    times: np.ndarray = None     # table sample times when piecewise

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.times is None:
            if self.values.ndim != 1:
                raise DimensionMismatch(
                    f"constant perturbation needs values (m,), got shape {self.values.shape}")
            return
        self.times = np.asarray(self.times, dtype=float)
        k = self.times.size
        if self.times.ndim != 1 or self.values.ndim != 2 or self.values.shape[0] != k:
            raise DimensionMismatch(
                f"perturbation table needs times (K,) and values (K, m), got "
                f"{self.times.shape} and {self.values.shape}")
        if k == 0 or not np.all(np.isfinite(self.times)) or np.any(np.diff(self.times) <= 0.0):
            raise StructuralError("perturbation table times must be finite and increase strictly")
        if self.times[0] > 0.0:
            raise StructuralError(
                f"perturbation table starts at t = {self.times[0]:g}, after 0: "
                "give the offset from t = 0 on")

    @classmethod
    def coerce(cls, e, m: int) -> "Perturbation":
        """The offset ``e`` (None, a scalar, m values, a ``(times, values)``
        pair or a Perturbation) as a Perturbation of width m."""
        if e is None:
            return cls(values=np.zeros(m))
        if isinstance(e, tuple) and len(e) == 2:
            e = cls(values=e[1], times=e[0])
        elif not isinstance(e, Perturbation):
            arr = np.asarray(e, dtype=float)
            e = cls(values=np.full(m, float(arr)) if arr.ndim == 0 else arr)
        if e.values.shape[-1] != m:
            raise DimensionMismatch(
                f"perturbation has {e.values.shape[-1]} components, the control has {m}")
        return e

    def sample_times(self, times: np.ndarray) -> np.ndarray:
        if self.times is None:
            return np.broadcast_to(self.values, (len(times),) + self.values.shape)
        return self.values[np.searchsorted(self.times, times, side="right") - 1]


@dataclass
class Policy:
    """Affine control law ``u(t, i, x) = K(t, i) x + e(t)``; either part
    may be absent.  ``gains`` is a field of m x n matrices."""

    gains: CoefficientField = None
    offset: Perturbation = None

    @classmethod
    def coerce(cls, policy, spec: ProblemSpec) -> "Policy":
        """The policy as a Policy; DimensionMismatch unless its gains hold
        one m x n matrix per regime of ``spec``."""
        if isinstance(policy, CoefficientField):
            policy = cls(gains=policy)
        elif policy is None:
            policy = cls()
        elif not isinstance(policy, Policy):
            raise StructuralError(
                f"unsupported policy type {type(policy).__name__}; "
                "pass a CoefficientField of gains or a Policy"
            )
        gains = policy.gains
        if gains is not None and (gains.ell, gains.shape) != (spec.ell, (spec.m, spec.n)):
            raise DimensionMismatch(
                f"gains hold {gains.ell} regimes of {gains.shape[0]} x {gains.shape[1]} "
                f"matrices; the problem needs {spec.ell} of {spec.m} x {spec.n}"
            )
        return policy


# ---------------------------------------------------------------------------
# gain synthesis and value function
# ---------------------------------------------------------------------------


def feedback_gain(solution: EsreSolution, spec: ProblemSpec) -> CoefficientField:
    """Optimal feedback matrices on the solution grid: a time table whose
    sample k in regime i is the m x n gain ``K(grid[k], i)``.

    Raises NearSingular if ``R + D'P D`` fails the guarded inversion at any
    sample and regime, and StructuralError for random (lattice)
    coefficients: their optimal gain differs from node to node, which one
    gain per (time, regime) cannot hold.
    """
    if spec.has_random_coefficients:
        raise StructuralError(
            "feedback gains need deterministic coefficients: with random "
            "(tree) coefficients the optimal gain differs per lattice node"
        )
    grid = solution.grid
    m, sigma = _gain_blocks(solution.P, solution.Lambda, *(
        spec.coefficient(name).sample_times(grid) for name in ("B", "C", "D", "S", "R")))
    gains = -(matcore.sym_inverse(sigma, solution.options.cond_threshold) @ m)
    return CoefficientField.from_table(grid, gains)


def value_at(solution: EsreSolution, x0, i0: int) -> float:
    """Optimal value ``<P(0, i0) x0, x0>``.  Raises DimensionMismatch or
    OutOfRange for a start state that does not fit the solution."""
    _, ell, n, _ = solution.P.shape
    x, i0 = _start_state(n, ell, x0, i0)
    return float(x @ solution.P[0, i0 - 1] @ x)


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

    ``policy`` may be a gain field, a :class:`Policy`, ``None``
    (zero control) or a callable ``u(t, regime, x)``.  The regime path is
    sampled exactly from ``rng`` first, then the Brownian increments; this
    order matches the batched Monte Carlo engine, so a path substream
    reproduces the engine's path bit for bit.
    """
    n_steps = _step_count(spec.T, dt)
    x, i0 = _start_state(spec.n, spec.ell, x0, i0)

    path = sample_chain_path(spec.generator, i0, spec.T, rng)
    xi = rng.standard_normal(n_steps)
    times = dt * np.arange(n_steps + 1)
    regimes = path.regime_at(times)
    regimes[-1] = path.states[-1]

    if callable(policy):
        control_fn = policy
    else:
        pol = Policy.coerce(policy, spec)
        off = Perturbation.coerce(pol.offset, spec.m)

        def control_fn(t, regime, xv):
            u = np.zeros(spec.m)
            if pol.gains is not None:
                u = pol.gains.eval(t, regime) @ xv
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


def _start_state(n: int, ell: int, x0, i0):
    """The initial state as n finite floats and the initial regime as an
    int in 1..ell, checked before any path is sampled."""
    x = np.asarray(x0, dtype=float).ravel()
    if x.size != n:
        raise DimensionMismatch(f"x0 has {x.size} entries, the state dimension is {n}")
    if not np.all(np.isfinite(x)):
        raise OutOfRange(f"x0 must be finite, got {x.tolist()}")
    return x, check_regime(i0, ell, "initial regime")


def _check_path_count(n_paths, minimum: int):
    if isinstance(n_paths, bool) or not isinstance(n_paths, numbers.Integral) or n_paths < minimum:
        raise StructuralError(f"n_paths must be an integer >= {minimum}, got {n_paths!r}")


def _step_count(T: float, dt: float) -> int:
    if not (dt > 0.0 and math.isfinite(dt)):
        raise StructuralError(f"dt must be positive and finite, got {dt}")
    n = int(round(T / dt))
    if n < 1 or abs(n * dt - T) > 1e-12 * max(1.0, T):
        raise StructuralError(f"dt={dt} does not divide the horizon T={T}")
    return n


# ---------------------------------------------------------------------------
# batched Monte Carlo engine
# ---------------------------------------------------------------------------


class _BatchTables:
    """Coefficients sampled once on the simulation grid and folded into one
    closed-loop table per policy (see :func:`_closed_loop_table`)."""

    def __init__(self, spec: ProblemSpec, policies, dt: float):
        if spec.has_random_coefficients:
            raise StructuralError(
                "Monte Carlo simulation requires deterministic coefficients"
            )
        self.spec = spec
        self.n_steps = _step_count(spec.T, dt)
        self.dt = dt
        self.times = dt * np.arange(self.n_steps)
        self.G = np.stack([spec.G.eval(spec.T, i) for i in range(1, spec.ell + 1)])
        coef = [spec.coefficient(name).sample_times(self.times) for name in "ABCDQSR"]
        self.loops = [_closed_loop_table(spec, p, coef, self.times, dt) for p in policies]


def _closed_loop_table(spec, policy, coef, times, dt) -> np.ndarray:
    """The affine policy ``u = K x + e`` folded into the Euler step and the
    left-endpoint running cost, one packed row per (step, regime): array
    (steps, ell, 3n^2 + 3n + 1) holding ``[W; M; N]`` (3n x n, row-major), then
    ``[l; a; b]`` (3n), then ``c``, where

        W = (Q + K'(2S + RK)) dt     l = 2 (S + RK)'e dt
        M = I + (A + BK) dt          a = B e dt
        N = C + DK                   b = D e
        c = e'R e dt

    A step from x with Brownian increment dW is then

        cost += (Wx + l)'x + c,      x <- (Mx + a) + (Nx + b) dW.
    """
    a, b, c, d, q, s, r = coef
    pol = Policy.coerce(policy, spec)
    gain = (np.zeros(q.shape[:2] + (spec.m, spec.n)) if pol.gains is None
            else pol.gains.sample_times(times))
    e = Perturbation.coerce(pol.offset, spec.m).sample_times(times)[:, None, :, None]
    rk = r @ gain
    lin = np.concatenate([(q + gain.mT @ (2.0 * s + rk)) * dt,
                          np.eye(spec.n) + (a + b @ gain) * dt,
                          c + d @ gain], axis=-2)
    off = np.concatenate([(2.0 * (s + rk)).mT @ e * dt, b @ e * dt, d @ e,
                          e.mT @ r @ e * dt], axis=-2)
    rows = lin.shape[:2]
    return np.concatenate([lin.reshape(rows + (-1,)), off.reshape(rows + (-1,))], axis=-1)


def _simulate_chunk(tables: _BatchTables, x0, i0, master_seed, lo, hi, costs):
    """Simulate paths [lo, hi) for every policy; write into costs[:, lo:hi].

    One substream is built per chunk and re-keyed for each path, so every
    path draws from its own ``(master_seed, path_index)`` stream."""
    spec = tables.spec
    n_steps, dt = tables.n_steps, tables.dt
    count = hi - lo
    xi = np.empty((count, n_steps))
    q = spec.generator.q
    q, cum = q.tolist(), _jump_cumprobs(q).tolist()
    chains = []
    for p, rng in enumerate(rekeyed(path_substream(master_seed, lo), range(lo, hi))):
        chains.append(sample_jumps(q, cum, i0, spec.T, rng))
        xi[p] = rng.standard_normal(n_steps)
    reg = _regime_table(tables.times, i0, chains)
    # step-major, so each step reads contiguous increments and regimes;
    # transposed in blocks of paths to stay in cache
    dw = np.empty((n_steps, count))
    sq = np.sqrt(dt)
    for b in range(0, count, _TRANSPOSE_BLOCK):
        np.multiply(sq, xi[b:b + _TRANSPOSE_BLOCK].T, out=dw[:, b:b + _TRANSPOSE_BLOCK])
    del xi
    for ip, table in enumerate(tables.loops):
        costs[ip, lo:hi] = _run_paths(table, tables.G, x0, reg[:n_steps], reg[n_steps], dw, lo)


def _regime_table(times, i0, chains) -> np.ndarray:
    """0-based regimes of a chunk of chain paths, step-major: array
    (len(times) + 1, paths) whose row k is the regime at ``times[k]`` and
    whose last row is the regime at T.  ``chains`` holds each path's
    ``(jump_times, states)`` from :func:`sample_jumps`, all started at
    ``i0``.

    Jump j counts from the first step with ``times[k] >= t_j``, the cadlag
    lookup of :meth:`RegimePath.regime_at`: each jump's state change is
    added to the row of that step, then rows are summed in step order.
    """
    table = np.zeros((len(times) + 1, len(chains)), dtype=np.intp)
    table[0] = i0 - 1
    jump_times, jump_paths, before, after = [], [], [], []
    for p, (jumps, states) in enumerate(chains):
        if jumps:
            jump_times += jumps
            jump_paths += [p] * len(jumps)
            before += states[:-1]
            after += states[1:]
    if jump_times:
        rows = np.searchsorted(times, jump_times, side="left")
        np.add.at(table, (rows, jump_paths), np.subtract(after, before))
    # row by row: cumsum along axis 0 of a wide table is far slower
    for k in range(len(times)):
        np.add(table[k + 1], table[k], out=table[k + 1])
    return table


def _run_paths(table, G, x0, reg, reg_T, dw, path_offset):
    """Per-path costs under one closed-loop table.

    The state is held as n vectors, one per state entry, over the paths.
    Each step gathers one packed row per path and reads the gather's
    transpose, so ``row[r]`` is packed entry r across all paths.  Every
    entry of ``Wx``, ``Mx``, ``Nx`` and the terminal ``Gx`` is summed left
    to right in plain float order, ``row[r] x[0] + row[r + 1] x[1] + ...``,
    and each step is bracketed as

        cost += (sum_i (wx_i + l_i) x_i) + c,
        x_i <- (mx_i + a_i) + (nx_i + b_i) dW,

    the sums again left to right.  Per-path costs therefore do not depend
    on which SIMD kernel numpy dispatches.
    """
    n_steps, count = reg.shape
    n = x0.size
    nn = n * n
    l_, a_, b_ = 3 * nn, 3 * nn + n, 3 * nn + 2 * n      # W, M, N start at 0, nn, 2nn
    x = [np.full(count, v) for v in x0]
    cost = np.zeros(count)
    tmp = np.empty(count)
    # in-place updates of new vectors, in the order of the brackets above
    for k in range(n_steps):
        row = np.take(table[k], reg[k], axis=0).T
        for i in range(n):
            wl = _dot(row, n * i, x, tmp)
            wl += row[l_ + i]
            wl *= x[i]
            if i:
                run += wl
            else:
                run = wl
        run += row[-1]
        cost += run
        new = []
        for i in range(n):
            mx = _dot(row, nn + n * i, x, tmp)
            mx += row[a_ + i]
            nx = _dot(row, 2 * nn + n * i, x, tmp)
            nx += row[b_ + i]
            nx *= dw[k]
            mx += nx
            new.append(mx)
        x = new
        if any(np.abs(v).max() > 1e8 for v in x):
            big = np.logical_or.reduce([np.abs(v) > 1e8 for v in x])
            raise BlowUp(f"state norm exceeded 1e8 at step {k + 1}",
                         path_index=path_offset + int(np.argmax(big)))
    g = np.take(G.reshape(len(G), nn), reg_T, axis=0).T
    return cost + _dot([_dot(g, n * i, x, tmp) for i in range(n)], 0, x, tmp)


def _dot(row, r, x, tmp):
    """``row[r] x[0] + row[r + 1] x[1] + ...`` over the n entries of ``x``,
    summed left to right into a new vector; ``tmp`` is scratch."""
    acc = row[r] * x[0]
    for j in range(1, len(x)):
        acc += np.multiply(row[r + j], x[j], out=tmp)
    return acc


def _batch_costs(spec, policies, x0, i0, n_paths, dt, master_seed) -> np.ndarray:
    """Per-path costs, shape (len(policies), n_paths).  Identical results
    for any chunking: substreams are per path and every chunk writes a
    disjoint slice."""
    x0, i0 = _start_state(spec.n, spec.ell, x0, i0)
    _check_path_count(n_paths, 1)
    tables = _BatchTables(spec, policies, dt)
    costs = np.empty((len(policies), n_paths))
    for lo in range(0, n_paths, CHUNK_PATHS):
        hi = min(lo + CHUNK_PATHS, n_paths)
        _simulate_chunk(tables, x0, i0, master_seed, lo, hi, costs)
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
    order, so the estimate does not depend on chunking.
    """
    _check_path_count(n_paths, 2)       # a standard error needs two paths
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
                   gains: CoefficientField = None, x0=None, i0: int = None) -> GapEstimate:
    """Cost excess of ``u = K X + e`` over the plain feedback.

    Both policies run on the same noise and regime paths, and the standard
    error reported is that of the paired per-path differences.  The
    completed-square prediction integrates
    ``E <(R + D'P D)(t, a_t) e(t), e(t)>`` over the solution grid with the
    regime distribution propagated exactly from the initial regime.  The
    paths start from ``x0`` and ``i0``, by default the spec's (``x0 = 0``
    when the spec has none).
    """
    if gains is None:
        gains = feedback_gain(solution, spec)
    e = Perturbation.coerce(perturbation, spec.m)
    if x0 is None:
        x0 = spec.x0 if spec.x0 is not None else np.zeros(spec.n)
    if i0 is None:
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
    solution grid.  Raises OutOfRange unless ``i0`` is a regime."""
    i0 = check_regime(i0, spec.ell, "initial regime")
    e = Perturbation.coerce(perturbation, spec.m)
    grid = solution.grid
    ev = e.sample_times(grid)                     # (K, m)
    _, sig = _gain_blocks(solution.P, None, *(     # sig: (K, ell, m, m)
        spec.coefficient(name).sample_times(grid) for name in "BCDSR"))
    quad = np.einsum("ka,kiab,kb->ki", ev, sig, ev)
    # regime distribution propagated step by step (time-homogeneous chain)
    probs = np.zeros((len(grid), spec.ell))
    probs[0, i0 - 1] = 1.0
    if len(grid) > 1:
        step = transition_matrix(spec.generator, float(grid[1] - grid[0]))
        for k in range(1, len(grid)):
            probs[k] = probs[k - 1] @ step
    integrand = (quad * probs).sum(axis=1)
    return float(np.trapezoid(integrand, grid))
