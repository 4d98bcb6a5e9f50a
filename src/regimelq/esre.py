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
    piece between coefficient table times.  One integrator,
    ``_GridEngine._integrate``, steps the direct solve, the linear iterate
    and each certificate sweep by DOP853 under step control: a step is
    accepted when its error estimate is within ``STEP_TOL (1 + |P|)`` in
    the root mean square (``SEQUENCE_TOL`` for the sequence, which checks
    the solve), the first step tried is the grid spacing, steps end at
    every table time, and the ``grid_steps + 1`` output nodes are read off
    the accepted steps' dense output.  A trial step whose error estimate
    is not finite, or whose stages reach a Sigma that LU finds singular,
    is rejected and shrunk like any other; such a step at the floor of ten
    float spacings of t, or ``STEP_BUDGET * grid_steps`` steps tried, ends
    the integration, naming the step, the regime, the stiffness ratio
    ``dt |2 B Sigma^{-1} B' P|`` and ``dt max|q_ii|``.  The diagonal
    coupling is folded into the drift matrix, ``A + (q_ii / 2) I``, and
    the off-diagonal coupling ``q_off P`` is the source: the current
    state's in the direct solve and the linear iterate, the previous
    iterate's, off its dense output, in a sweep.
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

:func:`direct_coupled_oracle` integrates the full coupled system by the
repository's only fixed-step scheme, classical RK4 at twice the steps
(``_GridEngine._sweep``), and returns every second node; its driver is
one linear map per coefficient piece on the vec of the whole ``(ell, n,
n)`` stack, coupling included, built from Kronecker products, and reads
neither ``_Engine._driver`` nor :func:`_gain_blocks`.  So it shares
neither the scheme nor the algebra of the grid integrator, and
cross-checks both and the PSD clip.
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

# the largest entry the oracle's states and a sweep's previous iterate may hold
BLOWUP_GUARD = 1e8
# the grid integrator's DOP853 step control: a step is accepted when its error
# estimate is within STEP_TOL (1 + |P|) in the root mean square; at most
# STEP_BUDGET * grid_steps steps are tried.  The Picard sequence, which checks
# the solve, runs at SEQUENCE_TOL: with q_ii P against a frozen source the
# estimate reads about 20 times low, so at STEP_TOL a certificate of a smooth
# weight table was 2.6e-10 from the exact solve, at SEQUENCE_TOL 1.1e-11
STEP_TOL, SEQUENCE_TOL, STEP_BUDGET = 1e-12, 1e-14, 16
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

    ``grid_steps`` sets the grid of the ODE backend: the direct solve,
    :func:`solve_p0`, :func:`picard_step` and the certificate's sweeps
    return P at its ``grid_steps + 1`` nodes, read off the dense output of
    their error-controlled DOP853 steps, whose count the step control
    chooses (at most ``STEP_BUDGET * grid_steps`` tried);
    :func:`direct_coupled_oracle` takes two fixed RK4 steps per grid step.

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
    """One fixed-point iterate on the uniform grid, with the dense output
    of the DOP853 steps that gave it.

    ``values[k, i-1]`` is P at (t_k, regime i).  Step s of the S accepted
    steps runs from ``step_times[s]`` to ``step_times[s + 1]``, from T down
    to 0; ``dense[s]`` holds P at its start, then the coefficients of its
    7th-order interpolant, which :meth:`at` reads.
    """

    grid: np.ndarray
    values: np.ndarray           # (N+1, ell, n, n)
    step_times: np.ndarray       # (S+1,)
    dense: np.ndarray            # (S, 8, ell, n, n)

    def at(self, t) -> np.ndarray:
        """P at the time or times ``t`` in [0, T], off the step that holds
        each (at a step end, the next), by :func:`_interp`: at a grid node
        above 0, the node's value bit for bit."""
        times, coef = self.step_times, self.dense
        s = np.clip(np.searchsorted(-times, -np.asarray(t), side="right"), 1, len(coef)) - 1
        x = (t - times[s]) / (times[s + 1] - times[s])
        return _interp(np.moveaxis(coef[s], -4, 0), x[..., None, None, None])


def _interp(coef, x):
    """The 7th-order dense output ``coef`` of a DOP853 step at step fractions
    ``x``, in the nested form of Hairer, Norsett and Wanner, whose factors
    are ``x`` and ``1 - x`` in turn."""
    y = 0.0
    for i, f in enumerate(coef[:0:-1]):
        y = (y + f) * (x if i % 2 == 0 else 1.0 - x)
    return coef[0] + y


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
    """Coefficient pieces and the one DOP853 integrator of the ODE backend.

    Deterministic coefficients are piecewise constant in time.  ``times``
    holds 0 and every coefficient table time in (0, T), and each
    coefficient is sampled once per piece ``[times[j], times[j + 1])``;
    the piece ``j`` is the sample the driver reads.  Per-regime data are
    stacked on the leading axis and processed with batched matmul, and the
    right-hand sides take the state as one ``(ell, n, n)`` stack.

    The driver reads ``A_drift = A + (q_ii / 2) I``, which carries the
    diagonal coupling.  :meth:`_integrate` steps three right-hand sides:
    the direct solve and the linear iterate read the off-diagonal coupling
    ``q_off P`` at the current state, with and without the quadratic term,
    and a certificate sweep reads it off the previous iterate's dense
    output.  :func:`direct_coupled_oracle` steps its own right-hand side by
    fixed-step RK4 through ``_sweep``: one Kronecker block map per piece on
    the vec of the stack, built from the plain A, with the whole coupling
    ``q P`` inside.
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
        self.G = spec.G.values

    def _coupling(self, p):
        """The off-diagonal coupling ``q_off P`` of a stack."""
        return np.einsum("ij,jab->iab", self.q_off, p)

    def _slope(self, j, t, p, check_cond=False, src=None):
        """dP/dt at time ``t`` on piece ``j``: minus the driver with the
        quadratic term and the source ``src``, by default the live coupling
        ``q_off P``."""
        return -self._driver(j, p, None, self._coupling(p) if src is None else src,
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

    def _step_failure(self, why, advice, j, t, p, dt) -> StepFailure:
        """The refusal of the step of size ``dt`` from ``(t, p)`` on piece
        ``j``, naming the regime of the largest stiffness ratio and the
        switching rate's ratio ``dt max|q_ii|``, with ``advice``."""
        ratio = self._stiffness(j, p, dt)
        i = int(np.argmax(ratio))
        rate = dt * float(np.max(-np.diag(self.spec.q)))
        return StepFailure(
            f"{why} the DOP853 step of dt = {dt:.3e} from t = {t:.6g}: its stiffness "
            f"ratio dt |2 B Sigma^{{-1}} B' P| is {ratio[i]:.3e} in regime {i + 1}, "
            f"and dt max|q_ii| is {rate:.3e}; {advice}")

    # -- the integrator ----------------------------------------------------

    def _integrate(self, rhs, tol, frozen=None) -> GridIterate:
        """``dP/dt = rhs(j, t, P, check, src)`` backward from G by the DOP853
        pair under step control, with the PSD clip per accepted step;
        ``rhs`` reads piece ``j``, ``check`` asks for the condition test, at
        each step's first stage and at its end, and ``src`` is the iterate
        ``frozen`` at time t (None without one), read for all the stages of
        a trial step at once.

        Steps end at every coefficient table time; the first step tried is
        the grid spacing.  A step is accepted when its error estimate is
        within ``tol (1 + |P|)`` in the root mean square, and the step
        size follows the estimate as in Hairer, Norsett and Wanner; a trial
        step whose estimate is not finite, or whose stages reach a Sigma
        that LU finds singular, is rejected and shrunk by the controller's
        least factor.  Every accepted step forms its 7th-order dense output,
        one polynomial in the step fraction, and the grid nodes inside it
        are read off that polynomial.

        Raises
        ------
        StepFailure
            If a step at the floor of ten float spacings of t has an error
            estimate that is not finite, or after ``STEP_BUDGET * grid_steps``
            steps tried, naming the step, the regime and its stiffness
            ratio, and ``dt max|q_ii|``.
        PsdViolation
            If the clip refuses an accepted step.
        NearSingular
            As the driver's condition test, at a step's first stage, or as
            LU on a trial stage's Sigma at the step floor.
        """
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
        step_times, dense = [t], []
        # the refusals below report overflow, so numpy warns of none
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(len(self.times) - 1, -1, -1):
                stop = self.times[j]
                k[0] = rhs(j, t, p, True, None if frozen is None else frozen.at(t))
                rejected = False
                while t > stop:
                    tried += 1
                    if tried > budget:
                        raise self._step_failure(
                            f"the budget of {budget} steps is spent before",
                            f"raise grid_steps, which sets the budget at {STEP_BUDGET} "
                            f"steps tried per grid step", j, t, p, size)
                    # no step shorter than ten float spacings of t
                    floor = 10.0 * np.spacing(t)
                    size = max(size, floor)
                    t_new = t - size if t - size > stop else stop
                    h = t_new - t
                    src = [None] * len(c) if frozen is None else frozen.at(t + c * h)
                    # an overflowing trial step, whose stages may reach a
                    # singular Sigma, is rejected and shrunk as far as the
                    # controller may, down to the step floor
                    try:
                        for s in range(1, stages):
                            k[s] = rhs(j, t + c[s] * h,
                                       p + h * (a[s, :s] @ kf[:s]).reshape(shape), False, src[s])
                    except NearSingular:
                        if -h <= floor:
                            raise
                        err = np.inf
                    else:
                        y = symmetrize(p + h * (b @ kf[:stages]).reshape(shape))
                        err = _error_norm(kf[:stages], e3, e5, h, tol * (
                            1.0 + np.maximum(np.abs(p), np.abs(y)).ravel()))
                    if not np.isfinite(err):
                        if -h <= floor:
                            raise self._step_failure(
                                "the error estimate is not finite for",
                                "the step is at its floor of ten float spacings of t, "
                                "so rescale the problem", j, t, p, -h)
                        err = np.inf
                    if err >= 1.0:
                        size = -h * max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
                        rejected = True
                        continue
                    t_old, p_old = t, p
                    t, p = t_new, self._clip(y, j, t_old, p_old, t_new, -h)
                    k[stages] = rhs(j, t, p, True, src[stages])
                    coef = self._dense_output(rhs, j, k, t_old, p_old, p, h, src)
                    step_times.append(t)
                    dense.append(coef)
                    # the nodes strictly inside the step, then those on its end
                    at, inside = np.searchsorted(grid, t, side="left"), np.searchsorted(
                        grid, t, side="right")
                    if inside < below:
                        out[inside:below] = _interp(
                            coef, ((grid[inside:below] - t_old) / h)[:, None, None, None])
                    out[at:inside] = p
                    below = at
                    factor = _MAX_FACTOR if err == 0.0 else min(
                        _MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
                    size = -h * (min(1.0, factor) if rejected else factor)
                    rejected = False
                    k[0] = k[stages]
        _guarded(matcore.require_psd, out, grid)
        return GridIterate(grid, out, np.array(step_times), np.stack(dense))

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

    @staticmethod
    def _dense_output(rhs, j, k, t_old, p_old, p, h, src) -> np.ndarray:
        """The 7th-order dense output of the accepted step of size ``h`` from
        ``(t_old, p_old)`` to ``p`` on piece ``j``: the three extra stages,
        then ``p_old`` and the interpolant's seven coefficients.  ``k``
        holds the step's twelve slopes and the slope at its end, ``src`` the
        source of each stage."""
        shape = p.shape
        kf = k.reshape(len(k), -1)
        for s in range(dop.N_STAGES + 1, dop.N_STAGES_EXTENDED):
            k[s] = rhs(j, t_old + dop.C[s] * h,
                       p_old + h * (dop.A[s, :s] @ kf[:s]).reshape(shape), False, src[s])
        dy = p - p_old
        coef = np.empty((dop.INTERPOLATOR_POWER + 1,) + shape)
        coef[0] = p_old
        coef[1] = dy
        coef[2] = h * k[0] - dy
        coef[3] = 2.0 * dy - h * (k[dop.N_STAGES] + k[0])
        coef[4:] = h * (dop.D @ kf).reshape((-1,) + shape)
        return coef

    def solve_direct(self) -> np.ndarray:
        """The coupled system: the driver with the live coupling ``q_off P``
        as its source and the quadratic term, integrated by
        :meth:`_integrate`; P at the grid nodes."""
        return self._integrate(self._slope, STEP_TOL).values

    def solve_p0(self) -> GridIterate:
        """Linear initial iterate: the driver without its quadratic term,
        with the live off-diagonal coupling ``q_off P`` as its source."""
        return self._integrate(lambda j, t, p, check, src: -self._driver(
            j, p, None, self._coupling(p), quadratic=False), SEQUENCE_TOL)

    def picard_sweep(self, prev: GridIterate) -> GridIterate:
        """Sweep with the quadratic term and the off-diagonal coupling frozen
        at ``prev``: ``q_off P_prev(t)`` at each stage time, off ``q_off``
        times ``prev``'s dense output, the interpolant being linear.  It is
        refused before its first step where ``prev`` exceeds the blow-up
        guard at a step start: a source s that large holds P near sqrt(s R)
        / |B| (scalar case), so stiff that the explicit steps spend the
        budget."""
        size = np.abs(prev.dense[:, 0]).reshape(len(prev.dense), -1).max(axis=1)
        s = int(np.argmax(size))
        if not size[s] <= BLOWUP_GUARD:   # NaN fails too
            raise StepFailure(
                f"the previous iterate reaches {size[s]:.3e} at t = {prev.step_times[s]:.6g}, "
                f"beyond the blow-up guard {BLOWUP_GUARD:g}, and its source would keep "
                f"the sweep's steps too short to reach t = 0")
        return self._integrate(self._slope, SEQUENCE_TOL, dataclasses.replace(
            prev, dense=np.einsum("ij,skjab->skiab", self.q_off, prev.dense)))

    # -- the oracle's fixed-step reference ---------------------------------

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

    def _sweep(self, rhs, guard) -> np.ndarray:
        """Backward classical RK4 from G, the fixed-step scheme of
        :func:`direct_coupled_oracle`: the values at the grid nodes.
        ``rhs(j, h, p)`` is the slope on piece ``j`` at half-grid index
        ``h``, at time ``h dt / 2``; the four stages of a step read the
        piece of its interior, so the top stage reads the coefficients' left
        limit.  ``guard(p, k)`` ends the step from node k; it refuses
        overflow, so numpy warns of none."""
        pieces = self._step_pieces()
        n_steps = self.options.grid_steps
        dt = self.dt
        values = np.empty((n_steps + 1,) + self.G.shape)
        values[n_steps] = p = self.G
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n_steps, 0, -1):
                j, h = pieces[k - 1], 2 * k
                k1 = rhs(j, h, p)
                k2 = rhs(j, h - 1, p - 0.5 * dt * k1)
                k3 = rhs(j, h - 1, p - 0.5 * dt * k2)
                k4 = rhs(j, h - 2, p - dt * k3)
                p = guard(symmetrize(p - (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)), k)
                values[k - 1] = p
        return values


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
    semidefinite within ``matcore.PSD_TOL``.  A grid sweep steps by the
    DOP853 integrator of the direct solve and reads the frozen coupling off
    ``prev``'s dense output, whose steps must run from T down to 0 and hold
    one finite ``(8, ell, n, n)`` stack each, led by P at the step's start,
    positive semidefinite as the values are; StepFailure where that P
    exceeds the blow-up guard.
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
    if isinstance(prev, GridIterate):
        # the sweep reads only the dense output
        steps = np.asarray(prev.step_times)
        need = (steps.size - 1, dop.INTERPOLATOR_POWER + 1) + want
        if np.shape(prev.dense) != need:
            raise DimensionMismatch(
                f"previous iterate holds a dense output of shape {np.shape(prev.dense)}, "
                f"its {steps.size - 1} steps need (S, 8, ell, n, n) = {need}")
        if not (steps.ndim == 1 and steps[0] == spec.T and steps[-1] == 0.0
                and np.all(np.diff(steps) < 0.0)):
            raise StructuralError(
                "previous iterate's dense output does not step from T down to 0")
        bad = ~np.isfinite(prev.dense).reshape(len(prev.dense), -1).all(axis=1)
        if bad.any():
            raise StructuralError(f"previous iterate's dense output is not finite on "
                                  f"its step from t = {steps[np.argmax(bad)]:.6g}")
        _guarded(matcore.require_psd, prev.dense[:, 0], steps[:-1])
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
    runs on the same grid.  Every iterate steps by the direct solve's
    DOP853 integrator, at the tighter ``SEQUENCE_TOL``, so
    ``direct_distance`` measures how far the sequence's limit lies from
    the solve, not a second scheme's error; a sweep costs about two
    solves.  A sweep is refused before its first step where the previous
    iterate exceeds the blow-up guard, as the oracle is.

    Raises
    ------
    StructuralError
        Unless ``options.backend`` is ``"ode"``.
    AssumptionViolation, NoConvergence, NearSingular, PsdViolation, StepFailure
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

    # grid summary: probability-weighted node means (exact when nodes agree),
    # and the L2 norm of Lambda weighted by node probabilities
    grid = tree.times
    ell, n = spec.ell, spec.n
    P = np.empty((tree.depth + 1, ell, n, n))
    Lam = np.empty_like(P)
    sq_sum = np.zeros(ell)
    for k in range(tree.depth + 1):
        wts = _node_weights(k)[:, None]
        P[k] = (last.levels[k] * wts[..., None, None]).sum(axis=0)
        Lam[k] = (last.lam_levels[k] * wts[..., None, None]).sum(axis=0)
        if k < tree.depth:
            sq_sum += (np.linalg.norm(last.lam_levels[k], axis=(-2, -1)) ** 2 * wts).sum(axis=0)
    # the lattice's largest |P_0| per level and regime
    p0_norms = np.stack([np.linalg.norm(lv, axis=(-2, -1)).max(axis=0) for lv in it0.levels])
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


def _kron(x, y):
    """The Kronecker product of two stacks of matrices, member by member."""
    (a, b), (c, d) = x.shape[-2:], y.shape[-2:]
    return np.einsum("...ij,...kl->...ikjl", x, y).reshape(x.shape[:-2] + (a * c, b * d))


def direct_coupled_oracle(spec: ProblemSpec, options: SolverOptions = None) -> EsreSolution:
    """Integrate the full coupled system directly (no coupling freeze,
    original coordinates, martingale part zero).  Deterministic
    coefficients only.

    It steps classical RK4, the package's only fixed-step scheme
    (``_GridEngine._sweep``), at ``2 * grid_steps`` and returns every
    second node, on the grid of :func:`solve_esre` with the same options;
    each step reads one coefficient piece, so a table time must fall on a
    node.  A blow-up guard replaces the PSD clip.

    Its right-hand side acts on the ``ell n^2`` vec of the whole ``(ell,
    n, n)`` stack, numpy's row-major flattening, through ``vec(X P Y) = (X
    kron Y') vec P``.  Per coefficient piece it builds, from the plain A, B,
    C, D and the generator q, one linear map with regime i's blocks on the
    diagonal,

        I kron A' + A' kron I + C' kron C'      (the linear drift),
        B' kron I + D' kron C'                  (M = B'P + D'P C + S),
        D' kron D'                              (Sigma = R + D'P D),

    and ``q_ij I`` in the drift rows of regime i and the columns of regime
    j, so the whole coupling ``q P`` is inside the map; the constants ``vec
    Q``, ``vec S``, ``vec R`` are flattened the same way.  A stage is then
    one matrix-vector product plus the constants, read as the drift, M
    and Sigma stacks by views, and ``-(M' Sigma^{-1} M)``: the division
    ``M / Sigma`` for a 1 x 1 Sigma at or above the smallest normal float,
    ``np.linalg.solve`` otherwise, so that a zero or subnormal Sigma meets
    LU and its refusal.  The stages are not symmetrized; the sweep
    symmetrizes every RK4 node.  So it shares neither the scheme of the
    grid integrator nor its algebra: ``_Engine._driver`` and
    :func:`_gain_blocks` form the same driver from matrix products, with A
    carrying the diagonal coupling.  It cross-checks both and the clip.

    The map costs ``O(ell^2 n^4)`` per stage against the products'
    ``O(ell n^3)``: with N = 200 and ell = 3 the two forms break even near
    n = 11, and at n = 20 the map is about 9 times slower.  Every shipped
    problem has n <= 3, where a stage is a few microseconds of numpy calls.

    Raises
    ------
    StepFailure
        If the state norm exceeds the blow-up guard (1e8).
    NearSingular
        If ``R + D'PD`` is singular, naming the time and regime.
    StructuralError
        If a coefficient depends on the Brownian path, or if a coefficient
        table time lies strictly between two nodes of the doubled grid.
    """
    options = options or SolverOptions()
    if spec.has_random_coefficients:
        names = ", ".join(nm for nm in "ABCDQSRG" if spec.coefficient(nm).is_random)
        raise StructuralError(
            f"direct_coupled_oracle needs deterministic coefficients, and these depend "
            f"on the Brownian path: {names}; a tree solve is checked by replaying "
            f"solve_p0 and picard_step on its lattice")
    engine = _GridEngine(spec, dataclasses.replace(options, grid_steps=2 * options.grid_steps))
    n, m, ell = spec.n, spec.m, spec.ell
    nn = n * n
    eye = np.broadcast_to(np.eye(n), engine.A.shape)
    a_t, b_t, c_t, d_t = engine.A.mT, engine.B.mT, engine.C.mT, engine.D.mT

    def blocks(x):
        """Per piece, the regimes' blocks ``x[:, i]`` on the diagonal of one
        map from the ``ell n^2`` vec of the stack."""
        pieces, _, rows, cols = x.shape
        return np.einsum("pirc,ik->pirkc", x, np.eye(ell)).reshape(
            pieces, ell * rows, ell * cols)

    maps = np.concatenate([
        blocks(_kron(eye, a_t) + _kron(a_t, eye) + _kron(c_t, c_t)) + np.kron(spec.q, np.eye(nn)),
        blocks(_kron(b_t, eye) + _kron(d_t, c_t)), blocks(_kron(d_t, d_t))], axis=-2)
    consts = np.concatenate([f.reshape(len(f), -1) for f in (engine.Q, engine.S, engine.R)],
                            axis=-1)
    drift, gains = ell * nn, ell * (nn + m * n)

    def rhs(j, h, p):
        y = maps[j] @ p.ravel() + consts[j]
        gain = y[drift:gains].reshape(ell, m, n)
        sigma = y[gains:].reshape(ell, m, m)
        # a 1 x 1 Sigma of normal size divides, as in the solve's driver;
        # LU takes the rest and refuses a zero one
        if m == 1 and np.abs(sigma).min() >= _NORMAL_MIN:
            x = gain / sigma
        else:
            try:
                x = np.linalg.solve(sigma, gain)
            except np.linalg.LinAlgError as exc:
                raise engine._singular(spec.T * h / (4 * options.grid_steps), sigma) from exc
        # the slope is minus the driver
        return gain.mT @ x - y[:drift].reshape(ell, n, n)

    def guard(p, k):
        size = float(np.max(np.abs(p)))
        if not size <= BLOWUP_GUARD:   # NaN fails too
            raise StepFailure(f"state norm {size:g} is not within {BLOWUP_GUARD:g} "
                              f"at t={engine.grid[k-1]:g}")
        return p

    values = engine._sweep(rhs, guard)[::2]
    grid = np.linspace(0.0, spec.T, options.grid_steps + 1)
    diag = _diagnostics(spec, grid, np.linalg.norm(values, axis=(-2, -1)),
                        np.zeros(spec.ell), check_smallness(spec))
    return EsreSolution(
        grid=grid, P=values, Lambda=np.zeros_like(values), backend="direct",
        residual_history=[], diagnostics=diag, options=options,
    )
