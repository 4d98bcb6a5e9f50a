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
Both backends work on P itself.

On the grid, :func:`solve_esre` integrates the coupled system directly,
backward with the live coupling ``q P`` and the quadratic term, by the
error-controlled Dormand-Prince 8(5,3) pair with its 7th-order dense
output (DOP853; Hairer, Norsett and Wanner, *Solving Ordinary
Differential Equations I*, sections II.5-6; the tableau is in
:mod:`regimelq._dop853`).  It runs the ``cond(R + D'PD)`` check at every
step's first stage and a PSD clip per accepted step, and has no
iteration count and no ``picard_tol``.

The paper's monotone sequence is the existence proof, and
:func:`picard_certificate` keeps it as a check of the grid solve.  Each
regime's equation keeps its diagonal coupling ``q_ii P(t,i)``, and the
iteration freezes the off-diagonal coupling at the previous iterate:

  * iterate 0 solves the *linear* coupled system (the quadratic term
    dropped);
  * iterate k+1 solves, regime by regime, the decoupled Riccati terminal
    value problem with the term ``q_ii P`` and the source
    ``sum_{j != i} q_ij P_k(t, j)``.

The paper proves this sequence monotone in the rescaled coordinates
``exp(q_ii t) P``, where the source weights are nonnegative; the rescaling
maps the sequence onto itself, so the iterates decrease monotonically in
the Loewner order and stay positive semidefinite under the definiteness
assumptions.  The sweeps run one after another until the sup-norm
difference of consecutive iterates falls below ``picard_tol``.  The tree
backend's :func:`solve_esre` and the grid's certificate run this one
loop, ``_picard_sequence``, so their iterates, residual history and
errors are those of :func:`solve_p0` followed by repeated
:func:`picard_step`.

Backends
--------
``ode``
    The coefficients are piecewise constant in time, sampled once per
    piece between coefficient table times.  The direct solve steps
    DOP853 under step control: a step is accepted when its error
    estimate is within ``STEP_TOL (1 + |P|)`` in the root mean square,
    the first step tried is the grid spacing, and steps end at every
    table time.  ``grid_steps`` sets the output grid, whose nodes are
    read off the dense output of the accepted steps.  A step whose error
    estimate is not finite, or more than ``STEP_BUDGET * grid_steps``
    steps tried, is refused with the time, the regime and the stiffness
    ratio ``dt |2 B Sigma^{-1} B' P|``.  The linear iterate and the
    certificate's sweeps are classical fixed-step 4th-order backward
    stepping on the output grid, with symmetrization at every stage and
    a PSD eigenvalue clip per step; all four stages of a step read the
    coefficients of its interior, so the top stage reads their left
    limit, and a table time strictly between two nodes is refused.
    The diagonal coupling is folded into the drift matrix,
    ``A + (q_ii / 2) I``, so ``P A + A'P`` carries ``q_ii P``, and the
    off-diagonal coupling ``q_off P`` is the source: the current state's
    in the direct solve and the linear iterate, the previous iterate's
    in a certificate sweep.  The RK4 step is explicit, so a grid with
    ``dt max_i |q_ii| > 2`` is refused on every grid path.  A
    certificate sweep evaluates its frozen source at step midpoints
    through cubic Hermite interpolation of the stored iterate (values +
    recorded derivatives), so each sweep retains 4th-order accuracy.
``tree``
    Backward induction on a recombining binomial lattice: the drift is
    evaluated at the conditional
    expectation ``pm`` of the child values and at the martingale increment
    ``Z = (V_up - V_down) / (2 sqrt(dt))``, and the regime coupling is
    taken at the level being solved.  Handles coefficients that are
    functions of the lattice Brownian level.  The linear initial iterate is
    solved directly with one constant ell x ell inverse,
    ``p_k = (I - dt q)^{-1} (pm + dt drift(pm, Z))``; ``I - dt q`` is an
    M-matrix with unit row sums, so this holds for every ``tree_depth``,
    and ``picard_tol`` and ``picard_max_iter`` do not apply to it.  Each
    sweep keeps the diagonal coupling implicit and freezes the
    off-diagonal part ``q_off`` at the previous iterate,
    ``p_k = proj((pm + dt (drift(pm, Z) + q_off p_prev)) / (1 - dt q_ii))``.
    The solve runs these sweeps until the residual is at most
    ``picard_tol``.

Both engines evaluate the driver ``P A + A'P + C'P C + Lam C + C'Lam + Q
+ src - M' Sigma^{-1} M`` through ``_Engine._driver``, with M and Sigma
formed by :func:`_gain_blocks` and ``src`` the regime coupling.
``Sigma^{-1} M`` is an LU inverse times M behind one condition test, or a
product with R^{-1}, formed once per engine, when D = 0.  With one
control (m = 1) the LU inverse of each 1 x 1 Sigma is the division ``1 /
Sigma`` it comes to.  :mod:`regimelq.matcore` decides every guard, and
:func:`_guarded` names the time (on the tree, the level's) and the regime
of the member a refusal names.

:func:`direct_coupled_oracle` integrates the full coupled system with the
certificate's fixed-step RK4 sweep, ``_GridEngine._sweep``, at twice the
steps, and returns every second node; its driver is written out apart
from ``_Engine._driver``.  So it shares neither the scheme nor the driver
of the direct solve, and cross-checks both and the PSD clip.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _dop853 as dop, matcore, model
from .matcore import symmetrize
from .errors import (
    DimensionMismatch,
    AssumptionViolation,
    NearSingular,
    NoConvergence,
    PsdViolation,
    StepFailure,
    StructuralError,
)
from .model import (
    ProblemSpec, _check_count, _check_points, _check_positive, _smallness_ok,
    check_smallness, validate_assumptions,
)

BLOWUP_GUARD = 1e8
# largest dt max_i |q_ii| the grid's explicit RK4 step accepts: on e1 at
# rate 20 a ratio of 2 leaves an error of about 1e-2 in P(0), and 2.5
# already gives 0.669 for the closed form 0.5
MAX_STEP_RATE = 2.0
# the direct solve's DOP853 step control: a step is accepted when its error
# estimate is within STEP_TOL (1 + |P|), entry by entry in the root mean
# square; at most STEP_BUDGET * grid_steps steps are tried
STEP_TOL = 1e-12
STEP_BUDGET = 16
# the step-size controller of Hairer, Norsett and Wanner (and of scipy's DOP853)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0
# smallest positive normal float: 1 / x cannot overflow at or above it
_NORMAL_MIN = np.finfo(float).tiny


@dataclass
class SolverOptions:
    """Tunable knobs of :func:`solve_esre` with their defaults.  The
    verdicts' tolerances are module constants, not options:
    ``matcore.PSD_TOL``, ``matcore.COND_THRESHOLD`` and
    ``model.SMALLNESS_THRESHOLD``.

    ``grid_steps`` sets the grid of the ODE backend: the direct solve
    returns P at its ``grid_steps + 1`` nodes, read off the dense output of
    its error-controlled steps, whose count the step control chooses (at
    most ``STEP_BUDGET * grid_steps`` tried); the fixed-step sweeps of
    :func:`solve_p0`, :func:`picard_step` and the certificate take one RK4
    step per grid step, and :func:`direct_coupled_oracle` two.

    ``picard_tol`` bounds the last sweep-to-sweep residual, the sup over
    the grid or lattice of ``|P_k - P_{k-1}|_F``; it is not a bound on the
    distance of the returned iterate to the fixed-point limit, which is
    larger where the sequence contracts slowly.  ``picard_tol`` and
    ``picard_max_iter`` govern the tree solve and :func:`picard_certificate`;
    the grid solve runs no sweeps.  No record keeps the iterates: replay
    them with :func:`solve_p0` and repeated :func:`picard_step`.
    """

    backend: str = "ode"          # "ode" | "tree"
    grid_steps: int = 2000
    tree_depth: int = 10
    picard_tol: float = 1e-9
    picard_max_iter: int = 60

    def __post_init__(self):
        if self.backend not in ("ode", "tree"):
            raise StructuralError(f"backend must be 'ode' or 'tree', got {self.backend!r}")
        for name in ("grid_steps", "tree_depth", "picard_max_iter"):
            _check_count(name, getattr(self, name))
        _check_positive("picard_tol", self.picard_tol)


@dataclass
class Diagnostics:
    """Solver-side certificates recorded with every solution.

    ``rho`` and ``k_estimate`` parameterize the paper's exponential a
    priori bound ``sup_t e^{rho t} |Ptilde_0(t,i)|^2 <= 1.5 e^{rho T}(K^2 +
    1/rho)`` for the linear initial iterate in its rescaled coordinates,
    ``|Ptilde_0(t,i)| = exp(q_ii t) |P_0(t,i)|``.  ``log_measured_sup`` is
    the log of that supremum for the matrices the caller measured: the
    linear iterate on the tree and in :func:`picard_certificate`, the
    returned P in the grid solve and in :func:`direct_coupled_oracle`.
    Since ``0 <= P <= P_0``, the returned P lies under the linear iterate's
    bound.  Both are held only as logs, because e^{rho T} overflows
    quickly.  ``lambda_l2`` is the plain discrete L2 norm of the martingale
    integrand per regime (an informational quantity only).  ``smallness``
    is :func:`check_smallness` of the problem; its verdict is
    ``model._smallness_ok``, against ``model.SMALLNESS_THRESHOLD``.
    """

    rho: float
    k_estimate: float
    log_apriori_bound: float
    log_measured_sup: float
    lambda_l2: np.ndarray
    smallness: float


@dataclass
class GridIterate:
    """One fixed-point iterate on the uniform grid.

    ``values[k, i-1]`` is P at (t_k, regime i); ``derivs`` holds the
    recorded time derivatives used for midpoint interpolation, each the
    slope on the step below its node (at t_0, on the step above).
    """

    grid: np.ndarray
    values: np.ndarray           # (N+1, ell, n, n)
    derivs: np.ndarray           # (N+1, ell, n, n)

    def half_values(self) -> np.ndarray:
        """Values on the half grid (2N+1 samples): nodes interleaved with
        the cubic-Hermite midpoints of the node values and derivatives."""
        v, d = self.values, self.derivs
        dt = self.grid[1] - self.grid[0]
        out = np.empty((2 * (v.shape[0] - 1) + 1,) + v.shape[1:])
        out[0::2] = v
        out[1::2] = 0.5 * (v[:-1] + v[1:]) + (dt / 8.0) * (d[:-1] - d[1:])
        return out


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


@dataclass
class TreeIterate:
    """One fixed-point iterate on the lattice.

    ``levels[k]`` has shape (k+1, ell, n, n); ``lam_levels`` likewise, with
    zeros at the terminal level where no child difference exists.
    """

    tree: BinomialTree
    levels: tuple
    lam_levels: tuple


@dataclass
class EsreSolution:
    """Converged solution plus solver provenance.

    ``P``/``Lambda`` are indexed (sample, regime, row, col) on ``grid``.
    For the tree backend they hold the probability-weighted node means
    (which coincide with the node values whenever coefficients are
    deterministic) and ``tree`` is the converged per-node iterate.
    ``iterations`` is the number of sweeps, the length of
    ``residual_history``.  A grid solve runs no sweeps: its history is
    empty (see :func:`picard_certificate`).
    """

    grid: np.ndarray
    P: np.ndarray
    Lambda: np.ndarray
    backend: str
    residual_history: list
    diagnostics: Diagnostics
    options: SolverOptions
    tree: TreeIterate = None

    @property
    def iterations(self) -> int:
        return len(self.residual_history)


# ---------------------------------------------------------------------------
# the Riccati driver shared by both engines
# ---------------------------------------------------------------------------


def _gain_blocks(p, lam, b, c, d, s, r, pc=None):
    """The two blocks of the feedback formula ``K = -Sigma^{-1} M``,

        M = B'P + D'(P C) + D'Lam + S,    Sigma = sym(R + D'P D),

    for one matrix each or for stacks that broadcast together.  ``lam``,
    ``c``, ``d`` and ``s`` may be None where they are identically zero;
    without D, Sigma is R itself.  ``pc`` is P C where the caller has it."""
    m = b.mT @ p
    if d is None:
        return (m if s is None else m + s), r
    d_t = d.mT
    if c is not None:
        m = m + d_t @ (p @ c if pc is None else pc)
    if lam is not None:
        m = m + d_t @ lam
    if s is not None:
        m = m + s
    return m, symmetrize(r + d_t @ (p @ d))


def _guarded(guard, m, times):
    """``guard(m)``, its refusal naming the time and regime of the
    member refused: ``times`` is the stack's time, or one per member."""
    try:
        return guard(m)
    except (NearSingular, PsdViolation) as exc:
        t = times if np.ndim(times) == 0 else times[exc.member[0]]
        where = f"t = {t:.6g} in regime {exc.member[-1] + 1}"
        text = (f"R + D'PD is ill-conditioned at {where}: {exc}"
                if isinstance(exc, NearSingular) else f"{exc} at {where}")
        raise type(exc)(text, exc.member) from exc


class _Engine:
    """The Riccati driver shared by the grid and tree engines.

    Each coefficient is held as ``load(field)``, indexed by sample ``h``,
    as is ``R_inv`` (R^{-1}, formed once when D = 0); ``times[h]`` is the
    time of sample ``h``.  ``A_drift`` is the A the driver reads.
    """

    def __init__(self, spec: ProblemSpec, options: SolverOptions, times, load):
        self.spec, self.options, self.times = spec, options, times
        self.A, self.B, self.C, self.D, self.Q, self.S, self.R = (
            load(spec.coefficient(name)) for name in "ABCDQSR")
        self.q_off = spec.q - np.diag(np.diag(spec.q))
        self.has_C = not spec.C.is_zero()
        self.has_D = not spec.D.is_zero()
        self.has_S = not spec.S.is_zero()
        self.R_inv = None
        if not self.has_D:
            # one stacked inverse, or one per lattice level of a random R
            self.R_inv = (_guarded(matcore.sym_inverse, self.R, times)
                          if isinstance(self.R, np.ndarray) else
                          [_guarded(matcore.sym_inverse, r, t) for t, r in zip(times, self.R)])

    def _driver(self, h, p, lam, src, check_cond=False, quadratic=True, t=None):
        """The Riccati driver, symmetrized,

            P A + A'P + C'P C + Lam C + C'Lam + Q + src - M' Sigma^{-1} M,

        with M and Sigma from :func:`_gain_blocks` and the coefficients of
        sample ``h``; ``lam`` is None for Lambda = 0 and ``src`` is the
        engine's regime coupling.  Without ``quadratic`` the last term is
        dropped.  ``check_cond`` runs the condition test on Sigma before its
        LU inverse.  A refusal names the time ``t``, by default
        ``times[h]``."""
        pa = p @ self.A_drift[h]
        out = pa + pa.mT + self.Q[h] + src
        c = pc = None
        if self.has_C:
            c = self.C[h]
            pc = p @ c
            out = out + c.mT @ pc
            if lam is not None:
                out = out + lam @ c + c.mT @ lam
        if quadratic:
            s = self.S[h] if self.has_S else None
            if self.has_D:
                m, sigma = _gain_blocks(p, lam, self.B[h], c, self.D[h], s, self.R[h], pc)
                if check_cond:
                    _guarded(matcore.require_conditioned, sigma,
                             self.times[h] if t is None else t)
                # LU inverse and product: on these stacks of small blocks it
                # costs less than np.linalg.solve with several columns.  LU
                # inverts a 1 x 1 block by the division 1 / sigma, done here
                # where it cannot overflow; LU refuses a zero block
                try:
                    inv = (1.0 / sigma if sigma.shape[-1] == 1
                           and np.abs(sigma).min() >= _NORMAL_MIN else np.linalg.inv(sigma))
                except np.linalg.LinAlgError as exc:
                    raise self._singular(self.times[h] if t is None else t, sigma) from exc
                x = inv @ m
            else:
                m, _ = _gain_blocks(p, lam, self.B[h], c, None, s, None)
                x = self.R_inv[h] @ m
            out = out - m.mT @ x
        return symmetrize(out)

    @staticmethod
    def _singular(t, sigma) -> NearSingular:
        """The refusal of the stack ``sigma`` at time ``t``, which LU found
        singular: the condition test's, naming the time and the regime, or,
        where a huge ``matcore.COND_THRESHOLD`` passes it, one naming the time."""
        _guarded(matcore.require_conditioned, sigma, t)
        return NearSingular(f"R + D'PD is singular at t = {t:.6g}")


# ---------------------------------------------------------------------------
# grid backend engine
# ---------------------------------------------------------------------------


class _GridEngine(_Engine):
    """Coefficient pieces, the adaptive direct solve and the fixed-step
    sweeps of the ODE backend.

    Deterministic coefficients are piecewise constant in time.  ``times``
    holds 0 and every coefficient table time in (0, T), and each
    coefficient is sampled once per piece ``[times[j], times[j + 1])``;
    the piece ``j`` is the sample the driver reads.  Per-regime data are
    stacked on the leading axis and processed with batched matmul, and the
    right-hand sides take the state as one ``(ell, n, n)`` stack.

    The driver reads ``A_drift = A + (q_ii / 2) I``, which carries the
    diagonal coupling; the direct solve and the linear iterate read the
    off-diagonal coupling ``q_off P`` at the current state, the
    certificate's sweeps freeze it at the previous iterate.
    :func:`direct_coupled_oracle` reads the plain A.
    """

    def __init__(self, spec: ProblemSpec, options: SolverOptions):
        if spec.has_random_coefficients:
            raise StructuralError(
                "ODE backend requires deterministic coefficients; use backend='tree'"
            )
        n_steps = options.grid_steps
        self.dt = spec.T / n_steps
        self.grid = np.linspace(0.0, spec.T, n_steps + 1)
        starts, _, _ = _check_points(spec, [spec.coefficient(name) for name in "ABCDQSR"])
        starts = starts[starts < spec.T]
        super().__init__(spec, options, starts,
                         lambda f: np.ascontiguousarray(f.sample_times(starts)))
        self.A_drift = self.A + (0.5 * np.diag(spec.q))[:, None, None] * np.eye(spec.n)
        self.G = np.stack([spec.G.eval(spec.T, i) for i in range(1, spec.ell + 1)])

    def _require_stable_step(self):
        """Refuse a grid on which the explicit RK4 step cannot carry the
        diagonal coupling: ``dt max_i |q_ii|`` must stay <= MAX_STEP_RATE."""
        rate = float(np.max(-np.diag(self.spec.q)))
        # T rate > MAX_STEP_RATE N  is  dt rate > MAX_STEP_RATE, free of roundoff in dt
        if self.spec.T * rate > MAX_STEP_RATE * self.options.grid_steps:
            need = math.ceil(self.spec.T * rate / MAX_STEP_RATE)
            raise StructuralError(
                f"grid too coarse for the switching rate: dt * max|q_ii| = "
                f"{self.dt * rate:.4g} exceeds {MAX_STEP_RATE:g}; "
                f"use grid_steps >= {need}"
            )

    def _slope(self, j, t, p, check_cond=False):
        """dP/dt at time ``t`` on piece ``j``: minus the driver with the live
        coupling ``q_off P`` as its source and the quadratic term."""
        return -self._driver(j, p, None, np.einsum("ij,jab->iab", self.q_off, p),
                             check_cond, t=t)

    def _stiffness(self, j, p, dt):
        """Per regime, the stiffness ratio ``dt |2 B Sigma^{-1} B' P|`` of a
        step of size ``dt`` from ``p`` on piece ``j``: the spectral radius
        the quadratic term puts on an explicit step (inf where Sigma is
        singular)."""
        b = self.B[j]
        _, sigma = _gain_blocks(p, None, b, None, self.D[j], None, self.R[j])
        try:
            gain = 2.0 * (b @ np.linalg.solve(sigma, b.mT) @ p)
        except np.linalg.LinAlgError:
            return np.full(len(p), np.inf)
        return dt * np.linalg.norm(gain, ord=2, axis=(-2, -1))

    def _step_failure(self, why, j, t, p, dt) -> StepFailure:
        """The refusal of the step of size ``dt`` from ``(t, p)`` on piece
        ``j``, naming the regime of the largest stiffness ratio."""
        ratio = self._stiffness(j, p, dt)
        i = int(np.argmax(ratio))
        return StepFailure(
            f"{why} the DOP853 step from t = {t:.6g} to {t - dt:.6g}: its stiffness "
            f"ratio dt |2 B Sigma^{{-1}} B' P| is {ratio[i]:.3e} in regime {i + 1}; "
            f"refine the grid, whose spacing is the first step tried and which sets "
            f"the budget, or rescale the problem")

    # -- the direct solve --------------------------------------------------

    def solve_direct(self) -> np.ndarray:
        """The coupled system integrated backward by the DOP853 pair under
        step control: the driver with the live coupling ``q_off P`` as its
        source, the quadratic term, the condition check at each step's first
        stage and the PSD clip per accepted step.

        Steps end at every coefficient table time; the first step tried is
        the grid spacing.  A step is accepted when its error estimate is
        within ``STEP_TOL (1 + |P|)`` in the root mean square, and the step
        size follows the estimate as in Hairer, Norsett and Wanner.  Every
        grid node inside an accepted step is read off its 7th-order dense
        output, one polynomial in the step fraction.

        Raises
        ------
        StepFailure
            If a step's error estimate is not finite, or after
            ``STEP_BUDGET * grid_steps`` steps tried, naming the time, the
            regime and the stiffness ratio of the step.
        PsdViolation
            If the clip refuses an accepted step.
        NearSingular
            As the driver's condition test, at a step's first stage.
        """
        self._require_stable_step()
        grid, shape = self.grid, self.G.shape
        c, a, b, e3, e5 = dop.C, dop.A, dop.B, dop.E3[:-1], dop.E5[:-1]
        stages = dop.N_STAGES
        out = np.empty((len(grid),) + shape)
        out[-1] = self.G
        below = len(grid) - 1                  # out[below:] is filled
        k = np.empty((dop.N_STAGES_EXTENDED,) + shape)
        kf = k.reshape(len(k), -1)
        budget = STEP_BUDGET * self.options.grid_steps
        tried = 0
        t, p, size = self.spec.T, self.G, self.dt
        # the refusals below report overflow, so numpy warns of none
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(len(self.times) - 1, -1, -1):
                stop = self.times[j]
                k[0] = self._slope(j, t, p, True)
                rejected = False
                while t > stop:
                    tried += 1
                    if tried > budget:
                        raise self._step_failure(
                            f"the budget of {budget} steps is spent before", j, t, p, size)
                    # no step shorter than ten float spacings of t
                    size = max(size, 10.0 * np.spacing(t))
                    t_new = t - size if t - size > stop else stop
                    h = t_new - t
                    for s in range(1, stages):
                        k[s] = self._slope(j, t + c[s] * h,
                                           p + h * (a[s, :s] @ kf[:s]).reshape(shape))
                    y = symmetrize(p + h * (b @ kf[:stages]).reshape(shape))
                    err = _error_norm(kf[:stages], e3, e5, h,
                                      STEP_TOL * (1.0 + np.maximum(np.abs(p), np.abs(y)).ravel()))
                    if not np.isfinite(err):
                        raise self._step_failure(
                            "the error estimate is not finite for", j, t, p, -h)
                    if err >= 1.0:
                        size = -h * max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
                        rejected = True
                        continue
                    t_old, p_old = t, p
                    t, p = t_new, self._clip(y, j, t_old, p_old, t_new, -h)
                    k[stages] = self._slope(j, t, p, True)
                    # the nodes strictly inside the step, then those on its end
                    at, inside = np.searchsorted(grid, t, side="left"), np.searchsorted(
                        grid, t, side="right")
                    if inside < below:
                        out[inside:below] = self._dense_output(
                            j, k, t_old, p_old, p, h, (grid[inside:below] - t_old) / h)
                    out[at:inside] = p
                    below = at
                    factor = _MAX_FACTOR if err == 0.0 else min(
                        _MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
                    size = -h * (min(1.0, factor) if rejected else factor)
                    rejected = False
                    k[0] = k[stages]
        _guarded(matcore.require_psd, out, grid)
        return out

    def _clip(self, y, j, t_old, p_old, t, dt) -> np.ndarray:
        """The PSD clip of the step of size ``dt`` from ``(t_old, p_old)`` on
        piece ``j`` to ``(t, y)``, its refusal naming the time, the regime
        and the step's stiffness ratio."""
        try:
            return matcore.project_psd(y)
        except PsdViolation as exc:
            ratio = self._stiffness(j, p_old, dt)[exc.member[-1]]
            raise PsdViolation(
                f"{exc} at t = {t:.6g}; the stiffness ratio dt |2 B Sigma^{{-1}} B' P| "
                f"of the DOP853 step from t = {t_old:.6g} to {t:.6g} is {ratio:.3e}; the "
                f"clip refused regime {exc.member[-1] + 1}", exc.member
            ) from exc

    def _dense_output(self, j, k, t_old, p_old, p, h, x) -> np.ndarray:
        """The 7th-order dense output of the accepted step of size ``h`` from
        ``(t_old, p_old)`` to ``p`` on piece ``j``, at the step fractions ``x``:
        the three extra stages, then one polynomial in ``x`` for all of them.
        ``k`` holds the step's twelve slopes and the slope at its end."""
        shape = p.shape
        kf = k.reshape(len(k), -1)
        for s in range(dop.N_STAGES + 1, dop.N_STAGES_EXTENDED):
            k[s] = self._slope(j, t_old + dop.C[s] * h,
                                 p_old + h * (dop.A[s, :s] @ kf[:s]).reshape(shape))
        dy = p - p_old
        coef = np.empty((dop.INTERPOLATOR_POWER,) + shape)
        coef[0] = dy
        coef[1] = h * k[0] - dy
        coef[2] = 2.0 * dy - h * (k[dop.N_STAGES] + k[0])
        coef[3:] = h * (dop.D @ kf).reshape((-1,) + shape)
        x = x[:, None, None, None]
        y = 0.0
        for i, f in enumerate(coef[::-1]):
            y = (y + f) * (x if i % 2 == 0 else 1.0 - x)
        return p_old + y

    # -- fixed-step sweeps -------------------------------------------------

    def _half_time(self, h) -> float:
        """The time of half-grid index ``h``, the stage times of a sweep."""
        return self.spec.T * h / (2 * self.options.grid_steps)

    def _step_pieces(self) -> np.ndarray:
        """The coefficient piece of each step of the grid.  A fixed step
        reads one piece, the one of its interior, so a coefficient table
        time must fall on a node: StructuralError where one lies strictly
        between two nodes, naming a ``grid_steps`` that puts it on one."""
        n_steps = self.options.grid_steps
        at = self.times[1:] * (n_steps / self.spec.T)      # in units of the step
        off = np.abs(at - np.round(at)) > 1e-9
        if off.any():
            from fractions import Fraction          # only a refusal needs it

            lcm = math.lcm(*(Fraction(float(t / self.spec.T)).limit_denominator(10**6).denominator
                             for t in self.times[1:]))
            raise StructuralError(
                f"coefficient table time {self.times[1:][off][0]:.6g} lies strictly "
                f"between two nodes of the grid, and a fixed-step sweep reads one "
                f"coefficient value per step; use grid_steps = {lcm} or a multiple of it")
        mids = (np.arange(n_steps) + 0.5) * self.dt
        return np.searchsorted(self.times, mids, side="right") - 1

    def _sweep(self, rhs, terminal: np.ndarray, finish=None):
        """Backward RK4 from ``terminal``: values and derivatives at the grid
        nodes.  ``rhs(j, h, p, check)`` is the slope on piece ``j`` at
        half-grid index ``h``; the four stages of a step read the piece of
        its interior, so the top stage reads the coefficients' left limit.
        ``finish(p, k)`` ends the step from node k, the PSD clip or the
        blow-up guard; it refuses overflow, so numpy warns of none."""
        pieces = self._step_pieces()
        n_steps = self.options.grid_steps
        dt = self.dt
        values = np.empty((n_steps + 1,) + terminal.shape)
        derivs = np.empty_like(values)
        p = terminal.copy()
        values[n_steps] = p
        with np.errstate(**({} if finish is None else {"over": "ignore", "invalid": "ignore"})):
            for k in range(n_steps, 0, -1):
                j, h = pieces[k - 1], 2 * k
                k1 = rhs(j, h, p, True)
                derivs[k] = k1
                k2 = rhs(j, h - 1, p - 0.5 * dt * k1, False)
                k3 = rhs(j, h - 1, p - 0.5 * dt * k2, False)
                k4 = rhs(j, h - 2, p - dt * k3, False)
                p = symmetrize(p - (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
                if finish is not None:
                    p = finish(p, k)
                values[k - 1] = p
        derivs[0] = rhs(pieces[0], 0, p, True)
        return values, derivs

    def solve_p0(self) -> GridIterate:
        """Linear initial iterate: the driver without its quadratic term,
        with the live off-diagonal coupling ``q_off P`` as its source."""
        self._require_stable_step()
        rhs = lambda j, h, p, chk: -self._driver(
            j, p, None, np.einsum("ij,jab->iab", self.q_off, p), quadratic=False)
        return GridIterate(self.grid, *self._sweep(rhs, self.G))

    def picard_sweep(self, prev: GridIterate) -> GridIterate:
        self._require_stable_step()
        src = np.einsum("ij,hjab->hiab", self.q_off, prev.half_values())
        rhs = lambda j, h, p, chk: -self._driver(j, p, None, src[h], chk, t=self._half_time(h))
        return GridIterate(self.grid, *self._sweep(rhs, self.G, lambda p, k: _guarded(
            matcore.project_psd, p, self.grid[k - 1])))


def _error_norm(kf, e3, e5, h, scale) -> float:
    """DOP853's error estimate of a step of size ``h`` with stage slopes
    ``kf`` (one flattened row per stage), in units of ``scale``: the 5th-order
    estimate damped by the 3rd-order one, in the root mean square."""
    err5 = (e5 @ kf) / scale
    err3 = (e3 @ kf) / scale
    sq5, sq3 = float(err5 @ err5), float(err3 @ err3)
    if sq5 == 0.0 and sq3 == 0.0:
        return 0.0
    return abs(h) * sq5 / math.sqrt((sq5 + 0.01 * sq3) * len(scale))


# ---------------------------------------------------------------------------
# tree backend engine
# ---------------------------------------------------------------------------


class _TreeEngine(_Engine):
    """Backward induction on the binomial lattice (original coordinates).

    Coefficients are indexed by level, ``h = k``: a random field's own
    levels, else one sample per level, level k broadcasting against
    (k+1, ell, ., .).  The driver reads Lambda as the martingale increment
    ``z`` and A itself: each sweep divides by ``1 - dt q_ii``, which keeps
    the diagonal coupling implicit.
    """

    def __init__(self, spec: ProblemSpec, options: SolverOptions):
        depth = options.tree_depth
        for name in ("A", "B", "C", "D", "Q", "S", "R", "G"):
            f = spec.coefficient(name)
            if f.is_random and f.depth != depth:
                raise StructuralError(
                    f"{name}: tree field depth {f.depth} != solver tree_depth {depth}"
                )
        self.tree = BinomialTree(depth, spec.T)
        super().__init__(spec, options, self.tree.times, lambda f: (
            f.levels if f.is_random else f.sample_times(self.tree.times)[:, None]))
        self.A_drift = self.A
        # 1 - dt q_ii > 0 for every dt, since q_ii <= 0
        self.denom = (1.0 - self.tree.dt * np.diag(spec.q))[:, None, None]
        g = spec.G.levels[-1] if spec.G.is_random else spec.G.values
        self.G = np.broadcast_to(g, (depth + 1,) + g.shape[-3:])

    def _sweep(self, level_step) -> TreeIterate:
        """One backward induction from the terminal level; ``level_step(k,
        pm, z)`` gives level k from the conditional mean ``pm`` of the
        children and the martingale increment ``z``."""
        depth = self.tree.depth
        levels = [None] * (depth + 1)
        lam_levels = [None] * (depth + 1)
        levels[depth] = self.G.copy()
        lam_levels[depth] = np.zeros_like(levels[depth])
        for k in range(depth - 1, -1, -1):
            child = levels[k + 1]
            up, down = child[1:], child[:-1]
            pm = 0.5 * (up + down)
            z = symmetrize((up - down) / (2.0 * self.tree.sqrt_dt))
            levels[k] = level_step(k, pm, z)
            lam_levels[k] = z
        return TreeIterate(self.tree, tuple(levels), tuple(lam_levels))

    def solve_p0(self) -> TreeIterate:
        """Linear initial iterate with the live regime coupling.  Level k
        solves ``p = pm + dt (drift(pm, z) + q p)``, which is linear across
        regimes: ``p = (I - dt q)^{-1} (pm + dt drift(pm, z))``.  ``I - dt q``
        is an M-matrix with unit row sums, so the inverse exists and is
        nonnegative for every dt."""
        dt = self.tree.dt
        inv = np.linalg.inv(np.eye(self.spec.ell) - dt * self.spec.q)
        return self._sweep(lambda k, pm, z: np.einsum(
            "ij,njab->niab", inv, pm + dt * self._driver(k, pm, z, 0.0, quadratic=False)))

    def picard_sweep(self, prev: TreeIterate) -> TreeIterate:
        """Sweep with the off-diagonal coupling frozen at ``prev``, the
        diagonal coupling implicit, the quadratic term and the PSD clip:
        ``p = proj((pm + dt (drift(pm, z) + q_off p_prev)) / (1 - dt q_ii))``."""
        src = [np.einsum("ij,njab->niab", self.q_off, lv) for lv in prev.levels[:-1]]
        with np.errstate(over="ignore", invalid="ignore"):      # the clip refuses overflow
            return self._sweep(lambda k, pm, z: _guarded(matcore.project_psd, symmetrize(
                pm + self.tree.dt * self._driver(k, pm, z, src[k], True)) / self.denom,
                self.tree.times[k]))


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

    ``prev`` must be on the same grid or tree as the options request, hold
    ``(ell, n, n)`` matrices of ``spec`` per sample or node and be positive
    semidefinite within ``matcore.PSD_TOL``.
    """
    options = options or SolverOptions()
    if isinstance(prev, GridIterate):
        if prev.values.shape[0] != options.grid_steps + 1:
            raise StructuralError("previous iterate lives on a different grid")
        engine = _GridEngine
    elif isinstance(prev, TreeIterate):
        if prev.tree.depth != options.tree_depth:
            raise StructuralError("previous iterate lives on a different tree")
        engine = _TreeEngine
    else:
        raise StructuralError(f"unsupported iterate type {type(prev).__name__}")
    engine = engine(spec, options)
    times = (engine.grid,) if isinstance(prev, GridIterate) else engine.tree.times
    want = (spec.ell, spec.n, spec.n)
    for t, values in zip(times, _stacks(prev)):
        if values.shape[1:] != want:
            raise DimensionMismatch(
                f"previous iterate holds {values.shape[1:]} matrices per sample, "
                f"the problem needs (ell, n, n) = {want}"
            )
        _guarded(matcore.require_psd, values, t)
    return engine.picard_sweep(prev)


def _stacks(it) -> tuple:
    """The node-value stacks of an iterate: the grid's values, or the
    tree's levels."""
    return (it.values,) if isinstance(it, GridIterate) else it.levels


def _picard_sequence(engine, it0, options: SolverOptions, on_sweep=None):
    """The paper's monotone sequence from the linear iterate ``it0``: one
    ``engine.picard_sweep`` after another until the residual, the max over
    every node of ``|P_k - P_{k-1}|_F``, is at most ``picard_tol``.  Calls
    ``on_sweep(prev, cur)`` after each sweep; returns the last iterate and
    the residual history.

    Raises
    ------
    NoConvergence
        After ``picard_max_iter`` sweeps, with the residual history.
    """
    prev, residuals = it0, []
    for _ in range(options.picard_max_iter):
        cur = engine.picard_sweep(prev)
        residuals.append(max(float(np.max(np.linalg.norm(a - b, axis=(-2, -1))))
                             for a, b in zip(_stacks(cur), _stacks(prev))))
        if on_sweep is not None:
            on_sweep(prev, cur)
        if residuals[-1] <= options.picard_tol:
            return cur, residuals
        prev = cur
    raise NoConvergence(
        f"no convergence after {options.picard_max_iter} sweeps "
        f"(last residual {residuals[-1]:.3e})",
        residual_history=residuals,
    )


def solve_esre(spec: ProblemSpec, options: SolverOptions = None) -> EsreSolution:
    """Solve the coupled system.

    The grid backend integrates it directly by the error-controlled
    DOP853 pair; the tree backend runs the linear initial iterate, then
    frozen-coupling sweeps until the sup-norm difference of consecutive
    iterates is at most ``picard_tol``, and carries the residual history.
    Both attach the a priori diagnostics.

    Raises
    ------
    AssumptionViolation
        If the definiteness assumptions fail (the report is attached).
    NoConvergence
        Tree backend, after ``picard_max_iter`` sweeps; partial residual
        history attached.
    NearSingular, PsdViolation, StepFailure
        Propagated from the backward stepping guards.
    """
    options = options or SolverOptions()
    smallness = _check_problem(spec)
    if options.backend == "ode":
        return _solve_grid(spec, options, smallness)
    return _solve_tree(spec, options, smallness)


def _check_problem(spec):
    """Refuse a problem that fails the definiteness assumptions and warn
    when the diffusion is large; returns the smallness."""
    report = validate_assumptions(spec)
    if not report.passed:
        raise AssumptionViolation(
            f"definiteness assumptions fail at {len(report.violations)} point(s)",
            report=report,
        )
    smallness = check_smallness(spec)
    if not _smallness_ok(smallness):
        warnings.warn(
            f"measured diffusion size {smallness:.4g} exceeds threshold "
            f"{model.SMALLNESS_THRESHOLD:.4g}; the fixed point may lose "
            "monotonicity",
            stacklevel=3,
        )
    return smallness


def _solve_grid(spec, options, smallness) -> EsreSolution:
    engine = _GridEngine(spec, options)
    p = engine.solve_direct()
    diag = _diagnostics(spec, engine.grid, np.linalg.norm(p, axis=(-2, -1)),
                        np.zeros(spec.ell), smallness)
    return EsreSolution(
        grid=engine.grid, P=p, Lambda=np.zeros_like(p), backend="ode",
        residual_history=[], diagnostics=diag, options=options,
    )


@dataclass
class PicardCertificate:
    """The paper's monotone sequence on the grid, run to ``picard_tol``.

    ``P`` is the last iterate, on the grid of :func:`solve_esre` with the
    same options, and ``iterations`` the number of sweeps, the length of
    ``residual_history``.  The iterates are not kept: :func:`solve_p0`
    and repeated :func:`picard_step` replay them bit for bit.
    ``monotonicity_margin`` is the smallest
    eigenvalue of ``P_k - P_{k+1}`` over all sweeps, nodes and regimes
    (>= 0 up to roundoff for a decreasing sequence) and ``min_eigenvalue``
    the smallest eigenvalue of any iterate.  ``diagnostics`` measure the
    linear iterate P_0 against the paper's a priori bound, and
    ``direct_distance`` is the sup over the grid of ``|P - P_direct|_F``
    to the direct solve of :func:`solve_esre` on the same grid.
    """

    P: np.ndarray
    residual_history: list
    monotonicity_margin: float
    min_eigenvalue: float
    diagnostics: Diagnostics
    direct_distance: float
    options: SolverOptions

    @property
    def iterations(self) -> int:
        return len(self.residual_history)


def picard_certificate(spec: ProblemSpec, options: SolverOptions = None) -> PicardCertificate:
    """Run the monotone Picard sequence of the grid backend as a check of
    its direct solve.

    The linear initial iterate and the frozen-coupling sweeps (the same
    iterates as :func:`solve_p0` and repeated :func:`picard_step`) run
    until the residual is at most ``picard_tol``; then the direct solve
    runs on the same grid.

    Raises
    ------
    StructuralError
        Unless ``options.backend`` is ``"ode"``.
    AssumptionViolation, NoConvergence, NearSingular, PsdViolation
        As :func:`solve_esre`; NoConvergence after ``picard_max_iter``
        sweeps, with the residual history attached.
    """
    options = options or SolverOptions()
    if options.backend != "ode":
        raise StructuralError("the Picard certificate checks the grid backend; "
                              "the tree solve runs the sequence itself")
    smallness = _check_problem(spec)
    engine = _GridEngine(spec, options)
    it0 = engine.solve_p0()
    lowest = [matcore.min_eigenvalue(it0.values)]
    margins = []

    def on_sweep(prev, cur):
        margins.append(matcore.min_eigenvalue(prev.values - cur.values))
        lowest.append(matcore.min_eigenvalue(cur.values))

    last, residuals = _picard_sequence(engine, it0, options, on_sweep)
    p = last.values
    _guarded(matcore.require_psd, p, engine.grid)
    direct = engine.solve_direct()
    return PicardCertificate(
        P=p, residual_history=residuals,
        monotonicity_margin=min(margins), min_eigenvalue=min(lowest),
        diagnostics=_diagnostics(spec, engine.grid, np.linalg.norm(it0.values, axis=(-2, -1)),
                                 np.zeros(spec.ell), smallness),
        direct_distance=float(np.max(np.linalg.norm(p - direct, axis=(-2, -1)))),
        options=options,
    )


def _solve_tree(spec, options, smallness) -> EsreSolution:
    engine = _TreeEngine(spec, options)
    it0 = engine.solve_p0()
    last, residuals = _picard_sequence(engine, it0, options)

    tree = engine.tree
    for t, lv in zip(tree.times, last.levels):
        _guarded(matcore.require_psd, lv, t)

    # grid summary: probability-weighted node means (exact when nodes agree)
    grid = tree.times
    ell, n = spec.ell, spec.n
    P = np.empty((tree.depth + 1, ell, n, n))
    Lam = np.empty_like(P)
    for k in range(tree.depth + 1):
        wts = _node_weights(k)[:, None, None, None]
        P[k] = (last.levels[k] * wts).sum(axis=0)
        Lam[k] = (last.lam_levels[k] * wts).sum(axis=0)
    # the lattice's largest |P_0| per level and regime, and the L2 norm of
    # Lambda weighted by node probabilities
    p0_norms = np.stack([np.linalg.norm(lv, axis=(-2, -1)).max(axis=0) for lv in it0.levels])
    sq_sum = np.zeros(ell)
    for k in range(tree.depth):
        wts = _node_weights(k)[:, None]
        sq_sum += (np.linalg.norm(last.lam_levels[k], axis=(-2, -1)) ** 2 * wts).sum(axis=0)
    diag = _diagnostics(spec, grid, p0_norms, np.sqrt(sq_sum * tree.dt), smallness)
    return EsreSolution(
        grid=grid, P=P, Lambda=Lam, backend="tree", residual_history=residuals,
        diagnostics=diag, options=options, tree=last,
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


def _diagnostics(spec, times, p0_norms, lam_l2, smallness) -> Diagnostics:
    """Diagnostics of a solve; ``p0_norms[k, i]`` is the largest |P_0| at
    ``times[k]`` in regime i+1, over the lattice nodes for the tree.

    The measured supremum is taken in logs, ``rho t + 2 (q_ii t +
    log|P_0|)``, so that no exponential under- or overflows.  The bound
    1.5 e^{rho T}(K^2 + 1/rho) is kept as a log, which is ``inf`` unless
    rho > 0.
    """
    k_est = growth_constant(spec)
    rho = _rho_of(spec, k_est)
    # rho = inf makes rho * 0 undefined at t = 0, and so is rho t plus the
    # log of a zero norm; those samples are skipped
    with np.errstate(divide="ignore", invalid="ignore"):
        log_top = np.max(np.log(p0_norms) + np.diag(spec.q) * times[:, None], axis=1)
        logs = rho * times + 2.0 * log_top
    logs = logs[~np.isnan(logs)]
    log_sup = float(logs.max()) if logs.size else -np.inf
    if rho <= 0.0:
        log_bound = np.inf
    else:
        log_bound = np.log(1.5) + rho * spec.T + np.log(_square(k_est) + 1.0 / rho)
    return Diagnostics(
        rho=rho, k_estimate=k_est, log_apriori_bound=log_bound,
        log_measured_sup=log_sup, lambda_l2=lam_l2, smallness=smallness,
    )


# ---------------------------------------------------------------------------
# direct coupled oracle
# ---------------------------------------------------------------------------


def direct_coupled_oracle(spec: ProblemSpec, options: SolverOptions = None) -> EsreSolution:
    """Integrate the full coupled system directly (no coupling freeze,
    original coordinates, martingale part zero).  Deterministic
    coefficients only.

    It runs the fixed-step backward RK4 sweep of the certificate,
    ``_GridEngine._sweep``, at twice the steps, ``2 * grid_steps``, and
    returns every second node, on the grid of :func:`solve_esre` with the
    same options.  Its driver is written out apart, with the plain A, the
    whole ``q P`` coupling and ``np.linalg.solve``, and a blow-up guard
    replaces the PSD clip.  So it shares neither the scheme nor the driver
    of the direct solve, and cross-checks both and the clip.

    Raises
    ------
    StepFailure
        If the state norm exceeds the blow-up guard (1e8).
    NearSingular
        If ``R + D'PD`` is singular, naming the time and regime.
    StructuralError
        If a coefficient table time lies strictly between two nodes of the
        doubled grid.
    """
    options = options or SolverOptions()
    engine = _GridEngine(spec, dataclasses.replace(options, grid_steps=2 * options.grid_steps))

    def rhs(j, h, p, _):
        pa = p @ engine.A[j]
        out = pa + pa.mT + engine.Q[j]
        pc = None
        if engine.has_C:
            pc = p @ engine.C[j]
            out = out + engine.C[j].mT @ pc
        out = out + np.einsum("ij,jab->iab", spec.q, p)
        m = (p @ engine.B[j]).mT
        if engine.has_D and pc is not None:
            m = m + engine.D[j].mT @ pc
        if engine.has_S:
            m = m + engine.S[j]
        if engine.has_D:
            sigma = symmetrize(engine.R[j] + engine.D[j].mT @ (p @ engine.D[j]))
            try:
                x = np.linalg.solve(sigma, m)
            except np.linalg.LinAlgError as exc:
                raise engine._singular(engine._half_time(h), sigma) from exc
        else:
            x = engine.R_inv[j] @ m
        out = out - m.mT @ x
        return -symmetrize(out)

    def guard(p, k):
        size = float(np.max(np.abs(p)))
        if not size <= BLOWUP_GUARD:   # NaN fails too
            raise StepFailure(f"state norm {size:g} is not within {BLOWUP_GUARD:g} "
                              f"at t={engine.grid[k-1]:g}")
        return p

    values = engine._sweep(rhs, engine.G, guard)[0][::2]
    grid = np.linspace(0.0, spec.T, options.grid_steps + 1)
    diag = _diagnostics(spec, grid, np.linalg.norm(values, axis=(-2, -1)),
                        np.zeros(spec.ell), check_smallness(spec))
    return EsreSolution(
        grid=grid, P=values, Lambda=np.zeros_like(values), backend="direct",
        residual_history=[], diagnostics=diag, options=options,
    )
