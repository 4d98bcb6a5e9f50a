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
path, which draws the same streams as one new substream per path.  Each
path draws its normals into a small block of paths, and every full block
is scaled into the chunk's step-major increments, so a chunk holds one
paths-by-steps float array (8 bytes per path-step) and reads every path's
regimes off one step-major table of the narrowest integer type (1 byte
per path-step up to 128 regimes).  Streams and estimates are the same as
with a new substream, one array of normals and a separate regime lookup
per path; only the set-up cost and the working set differ.

Without diffusion (``C`` and ``D`` identically zero) the noise term
``(Nx + b) dW`` is ``0 dW``: a path then reads only its chain jumps off
its substream and its chunk holds no increments, just the regime table.
The normals come after the jumps in every substream, so the chains are
the same, and so are the per-path costs, bit for bit: ``mx + 0 dW`` is
``mx`` but for the sign of an exact zero, which a quadratic cost cannot
show.  Such a path is also a function of its regime rows on the grid
alone, so paths whose rows agree up to a step have the same state and
cost there: a chunk steps one column per distinct grid history, and a
column joins at the first step where its history parts from those
already stepped, copying then the state and cost of a column that shared
its history so far.  With exit rate 1 on [0, 1] and 1000 steps, as in
both scalar demos, 20000 paths hold about 6400 distinct histories, of
which a step reads 2600 on average.  Holding at most 1 byte per
path-step, a noise-free chunk takes eight times the paths of a noisy one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import matcore
from .errors import BlowUp, DimensionMismatch, StructuralError
from .esre import BLOWUP_GUARD, EsreSolution, _gain_blocks, _guarded
from .matcore import _floats
from .model import CoefficientField, ProblemSpec, _check_count, _check_positive, _start_state
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
_DRAW_BLOCK = 128
_GUARD_TEXT = f"{BLOWUP_GUARD:.0e}".replace("e+0", "e")    # 1e8, as the messages write it


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------


@dataclass
class Perturbation:
    """Deterministic control offset e(t), constant or piecewise-constant.

    A table holds finite values (K, m) at K finite, strictly increasing
    times, the first at or before 0, each value holding up to the next
    time.  Anything else is refused at construction: a rank other than (m,)
    or (K, m) with DimensionMismatch; non-numeric or non-finite values, bad
    times or a table starting after 0 (which would leave the offset
    undefined on [0, times[0])) with StructuralError, the table's messages
    led by ``table``, its run-file key.
    """

    values: np.ndarray           # (m,) or (K, m)
    times: np.ndarray = None     # table sample times when piecewise

    def __post_init__(self):
        self.values = _floats(self.values, "perturbation values")
        if not np.all(np.isfinite(self.values)):
            raise StructuralError("perturbation values must be finite")
        if self.times is None:
            if self.values.ndim != 1:
                raise DimensionMismatch(
                    f"constant perturbation needs values (m,), got shape {self.values.shape}")
            return
        self.times = _floats(self.times, "table times")
        k = self.times.size
        if self.times.ndim != 1 or self.values.ndim != 2 or self.values.shape[0] != k:
            raise DimensionMismatch(
                f"table needs times (K,) and perturbation values (K, m), got "
                f"{self.times.shape} and {self.values.shape}")
        if k == 0 or not np.all(np.isfinite(self.times)) or np.any(np.diff(self.times) <= 0.0):
            raise StructuralError("table times must be nonempty, finite and increase strictly")
        if self.times[0] > 0.0:
            raise StructuralError(
                f"table starts at t = {self.times[0]:g}, after 0: "
                "give the offset from t = 0 on")

    @classmethod
    def coerce(cls, e, m: int) -> "Perturbation":
        """The offset ``e`` (None, a scalar, m values or a Perturbation) as
        a Perturbation of width m; a table is given as a Perturbation."""
        if e is None:
            return cls(values=np.zeros(m))
        if not isinstance(e, Perturbation):
            arr = _floats(e, "perturbation")
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

    Raises NearSingular, naming the time and regime, if ``R + D'P D`` fails
    the guarded inversion at any sample, and StructuralError for random (lattice)
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
    gains = -(_guarded(matcore.sym_inverse, sigma, grid, solution.options.cond_threshold) @ m)
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

    ``policy`` is what the batched Monte Carlo engine takes: a gain field,
    a :class:`Policy` or ``None`` (zero control).  The regime path is
    sampled exactly from ``rng`` first, then the Brownian increments; this
    order matches the engine, so a path substream reproduces the engine's
    path bit for bit.
    """
    n_steps = _step_count(spec.T, dt)
    x, i0 = _start_state(spec.n, spec.ell, x0, i0)

    path = sample_chain_path(spec.generator, i0, spec.T, rng)
    xi = rng.standard_normal(n_steps)
    times = dt * np.arange(n_steps + 1)
    regimes = path.regime_at(times)
    regimes[-1] = path.states[-1]

    pol = Policy.coerce(policy, spec)
    offsets = Perturbation.coerce(pol.offset, spec.m).sample_times(times)

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
        u = np.zeros(spec.m)
        if pol.gains is not None:
            u = pol.gains.eval(t, i) @ x
        u = u + offsets[k]
        acc += float(x @ q @ x + 2.0 * (u @ (s @ x)) + u @ r @ u) * dt
        dw = sq * xi[k]
        x = x + (a @ x + b @ u) * dt + (c @ x + d @ u) * dw
        if float(np.max(np.abs(x))) > BLOWUP_GUARD:
            raise BlowUp(f"state norm exceeded {_GUARD_TEXT} at t={t + dt:g}", path_index=0)
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


def _check_path_count(n_paths, minimum: int = 2):
    """A standard error needs two paths, a batch of costs one."""
    return _check_count("n_paths", n_paths, minimum)


def _step_count(T: float, dt: float) -> int:
    n = int(round(T / _check_positive("dt", dt)))
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
        # without diffusion every path is random only through its chain
        self.noisy = not (spec.C.is_zero() and spec.D.is_zero())
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
    path draws from its own ``(master_seed, path_index)`` stream: its chain
    jumps, then its normals into one row of a small block of
    ``_DRAW_BLOCK`` paths.  Each full block is scaled by ``sqrt(dt)`` into
    the step-major increments ``dw`` (steps, paths), so each step reads
    contiguous increments and regimes, and ``dw`` is the chunk's only
    paths-by-steps float array.  Without diffusion a path draws its chain
    jumps only, and the chunk's one paths-by-steps array is the regime
    table of one column per distinct grid history, each stepped from the
    step its history parts from the others' on (see
    :func:`_shared_prefixes`)."""
    spec = tables.spec
    n_steps, dt = tables.n_steps, tables.dt
    count = hi - lo
    q = spec.generator.q
    q, cum = q.tolist(), _jump_cumprobs(q).tolist()
    chains = []
    dw = block = None
    if tables.noisy:
        dw = np.empty((n_steps, count))
        block = np.empty((min(_DRAW_BLOCK, count), n_steps))
    sq = np.sqrt(dt)
    for p, rng in enumerate(rekeyed(path_substream(master_seed, lo), range(lo, hi))):
        chains.append(sample_jumps(q, cum, i0, spec.T, rng))
        if dw is None:
            continue
        j = p % _DRAW_BLOCK
        rng.standard_normal(out=block[j])
        if j == len(block) - 1 or p == count - 1:
            np.multiply(sq, block[:j + 1].T, out=dw[:, p - j:p + 1])
    jumps = _flat_jumps(tables.times, chains)
    shared = None
    if dw is None:
        jumps, shared = _shared_prefixes(n_steps, spec.ell, *jumps)
    reg = _regime_table(n_steps + 1, i0, spec.ell, *jumps)
    for ip, table in enumerate(tables.loops):
        costs[ip, lo:hi] = _run_paths(table, tables.G, x0, reg[:n_steps], reg[n_steps], dw,
                                      lo, shared)


def _flat_jumps(times, chains):
    """The jumps of ``chains``, each a ``(jump_times, states)`` pair from
    :func:`sample_jumps`, as flat arrays in chain order: ``(counts, rows,
    after)`` holds each chain's jump count and, per jump, the regime-table
    row it counts from and the 0-based regime it leads to.

    Jump j counts from the first step with ``times[k] >= t_j``, the cadlag
    lookup of :meth:`RegimePath.regime_at`; row ``len(times)`` is the
    regime at T, the only row a jump after ``times[-1]`` moves.
    """
    counts = np.fromiter(map(len, (jumps for jumps, _ in chains)), np.intp, len(chains))
    total = int(counts.sum())
    rows = np.searchsorted(times, np.fromiter(
        chain.from_iterable(jumps for jumps, _ in chains), float, total), side="left")
    after = np.fromiter(chain.from_iterable(states[1:] for _, states in chains), np.intp, total)
    return counts, rows, after - 1


def _shared_prefixes(n_steps, ell, counts, rows, after):
    """Noise-free chains, given as :func:`_flat_jumps`, grouped so that
    :func:`_run_paths` steps each distinct grid regime history once:
    returns the flat jumps of one chain per column and ``(live, source,
    column)``.

    A chain's grid key is its jumps as ``(row, regime)`` pairs.  Without
    diffusion chains whose keys agree on the jumps before step k have the
    same state and cost at the start of step k.  The keys are sorted with a
    shorter key first and, among the branches of one prefix, the later jump
    first; equal keys share one column, and every other column is born at
    the step of its first jump that differs from the key before it.
    Columns are ordered by birth: ``live[k]`` counts the columns that step
    k reads, ``source[c]`` is a column born before ``c`` with the same jumps
    before c's birth, whose state and cost c copies then, and ``column[p]``
    is the column of chain p.  The keys take raw jumps: merging jumps that
    land on one step could only add sharing.
    """
    # one code per jump, larger for an earlier row, then for a higher
    # regime; 0 pads a shorter key, so lexicographic order is the order above
    key = np.zeros((len(counts), max(counts.max(), 1)),
                   dtype=np.min_scalar_type((n_steps + 1) * ell))
    entry = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    key[np.repeat(np.arange(len(counts)), counts), entry] = (n_steps - rows) * ell + after + 1
    order = np.lexsort(key.T[::-1])
    key = key[order]
    new = np.ones(len(counts), dtype=bool)
    new[1:] = (key[1:] != key[:-1]).any(axis=1)
    key = key[new]
    # common prefix with the key before, and the row of the jump after it
    lcp = np.argmax(key[1:] != key[:-1], axis=1)
    birth = np.zeros(len(key), dtype=np.intp)
    birth[1:] = n_steps - (key[1:][np.arange(len(lcp)), lcp].astype(np.intp) - 1) // ell
    # the source heads the run of keys sharing the jumps before the birth
    depth = np.zeros(len(key), dtype=np.intp)
    depth[1:] = (key[1:] > ((n_steps - birth[1:]) * ell + ell)[:, None]).sum(axis=1)
    lcp = np.concatenate(([-1], lcp))
    index = np.arange(len(key))
    source = np.zeros(len(key), dtype=np.intp)
    for d in range(1, depth.max() + 1):
        heads = np.maximum.accumulate(np.where(lcp < d, index, 0))
        source[depth == d] = heads[depth == d]
    by_birth = np.argsort(birth, kind="stable")
    rank = np.empty_like(by_birth)
    rank[by_birth] = index
    column = np.empty(len(counts), dtype=np.intp)
    column[order] = rank[np.cumsum(new) - 1]
    live = np.searchsorted(birth[by_birth], np.arange(n_steps), side="right")
    key = key[by_birth]
    code = key[key > 0].astype(np.intp) - 1
    jumps = (key > 0).sum(axis=1), n_steps - code // ell, code % ell
    return jumps, (live, rank[source[by_birth]], column)


def _regime_table(n_rows, i0, ell, counts, rows, after) -> np.ndarray:
    """0-based regimes of a chunk of chain paths, step-major: array
    (n_rows, paths) whose row k is the regime at grid time k and whose last
    row is the regime at T.  The jumps come as :func:`_flat_jumps` gives
    them, every path started at ``i0`` in one of ``ell`` regimes.  The table has the narrowest signed integer
    type that holds ``-ell`` (int8 up to 128 regimes), so every regime and
    every state change fits.

    Each jump's state change is added to the row it counts from, then rows
    are summed in step order.
    """
    table = np.zeros((n_rows, len(counts)), dtype=np.min_scalar_type(-ell))
    table[0] = i0 - 1
    before = np.roll(after, 1)
    before[(np.cumsum(counts) - counts)[counts > 0]] = i0 - 1
    np.add.at(table, (rows, np.repeat(np.arange(len(counts)), counts)), after - before)
    # row by row: cumsum along axis 0 of a wide table is far slower
    for k in range(n_rows - 1):
        np.add(table[k + 1], table[k], out=table[k + 1])
    return table


def _run_paths(table, G, x0, reg, reg_T, dw, path_offset, shared=None):
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
    on which SIMD kernel numpy dispatches.  ``dw`` is None for a problem
    without diffusion, whose noise term ``(nx_i + b_i) dW`` is skipped.

    ``shared`` is None or, without diffusion, the ``(live, source,
    column)`` of :func:`_shared_prefixes`, ``reg`` and ``reg_T`` then
    holding one column per distinct grid history: step k reads the first
    ``live[k]`` columns only.  A column joins at the step its history parts
    from the others' and takes the state and cost of its source, a live
    column with the same history so far, so every column's arithmetic is
    the same as when each path is stepped on its own.  Costs are returned
    in path order.
    """
    n_steps, count = reg.shape
    n = x0.size
    nn = n * n
    l_, a_, b_ = 3 * nn, 3 * nn + n, 3 * nn + 2 * n      # W, M, N start at 0, nn, 2nn
    live, source, column = (None, None, None) if shared is None else shared
    m = count if live is None else live[0]
    x = [np.full(m, v) for v in x0]
    cost = np.zeros(count)
    scratch = np.empty(count)
    tmp = scratch[:m]
    # in-place updates of new vectors, in the order of the brackets above
    for k in range(n_steps):
        if live is not None and live[k] > m:
            x, m = _join(x, cost, source, m, live[k]), live[k]
            tmp = scratch[:m]
        row = np.take(table[k], reg[k, :m], axis=0).T
        for i in range(n):
            wl = _dot(row, n * i, x, tmp)
            wl += row[l_ + i]
            wl *= x[i]
            if i:
                run += wl
            else:
                run = wl
        run += row[-1]
        cost[:m] += run
        new = []
        for i in range(n):
            mx = _dot(row, nn + n * i, x, tmp)
            mx += row[a_ + i]
            if dw is not None:
                nx = _dot(row, 2 * nn + n * i, x, tmp)
                nx += row[b_ + i]
                nx *= dw[k]
                mx += nx
            new.append(mx)
        x = new
        if any(np.abs(v).max() > BLOWUP_GUARD for v in x):
            big = np.logical_or.reduce([np.abs(v) > BLOWUP_GUARD for v in x])
            if column is not None:
                big = big[_live_column(column, source, m)]
            raise BlowUp(f"state norm exceeded {_GUARD_TEXT} at step {k + 1}",
                         path_index=path_offset + int(np.argmax(big)))
    x = _join(x, cost, source, m, count)
    g = np.take(G.reshape(len(G), nn), reg_T, axis=0).T
    cost += _dot([_dot(g, n * i, x, scratch) for i in range(n)], 0, x, scratch)
    return cost if column is None else cost[column]


def _join(x, cost, source, m, to):
    """State vectors over columns [0, to): columns m..to-1, born now, take
    the state and cost of their live sources."""
    if to == m:
        return x
    fed = source[m:to]
    cost[m:to] = cost[fed]
    return [np.concatenate((v, v[fed])) for v in x]


def _live_column(column, source, m):
    """The column among the first m that holds each path's history: a
    column not yet born is represented by its source, and so on."""
    column = column.copy()
    late = column >= m
    while late.any():
        column[late] = source[column[late]]
        late = column >= m
    return column


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
    # a noise-free chunk holds 1 byte per path-step instead of 8 + 1, so
    # eight times the paths fit in the bytes of a noisy chunk's increments
    width = CHUNK_PATHS if tables.noisy else 8 * CHUNK_PATHS
    for lo in range(0, n_paths, width):
        hi = min(lo + width, n_paths)
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
    var = math.fsum((per_path - mean) ** 2) / (n - 1)
    return CostEstimate(mean=mean, std_error=math.sqrt(var / n), n_paths=n, dt=dt,
                        seed=seed)


def mc_cost(spec: ProblemSpec, policy, x0, i0: int, n_paths: int, dt: float,
            master_seed: int) -> CostEstimate:
    """Monte Carlo estimate of the cost of a policy.

    Per-path costs are accumulated with compensated summation in path-index
    order, so the estimate does not depend on chunking.
    """
    _check_path_count(n_paths)
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
    _check_path_count(n_paths)
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
    # regime distribution propagated step by step (time-homogeneous chain),
    # each row divided by its sum so the step's rounding cannot compound
    # into the law's total mass
    probs = np.zeros((len(grid), spec.ell))
    probs[0, i0 - 1] = 1.0
    if len(grid) > 1:
        step = transition_matrix(spec.generator, float(grid[1] - grid[0]))
        for k in range(1, len(grid)):
            row = probs[k - 1] @ step
            probs[k] = row / row.sum()
    integrand = (quad * probs).sum(axis=1)
    return float(np.trapezoid(integrand, grid))
