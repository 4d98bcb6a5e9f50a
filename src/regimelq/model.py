"""Problem definition for the regime-switching LQ control problem.

The controlled state on [0, T] is

    dX = [A(t, a_t) X + B(t, a_t) u] dt + [C(t, a_t) X + D(t, a_t) u] dW,

where ``a_t`` is the regime chain, and the cost to minimize is

    J = E[ <G(a_T) X(T), X(T)>
           + int_0^T  X'Q(t,a)X + 2 u'S(t,a)X + u'R(t,a)u  dt ].

A :class:`ProblemSpec` collects the per-regime coefficients A, B, C, D, Q,
S, R, the terminal weight G, the chain generator, the horizon and the
definiteness margin ``delta``.  Coefficients are :class:`CoefficientField`
values and may be constant, piecewise-constant in time, or attached to the
nodes of the binomial lattice used by the tree solver backend.

Definiteness requirements checked by :func:`validate_assumptions`:

    R(t, i) >= delta * I,    Q(t, i) - S(t, i)' R(t, i)^{-1} S(t, i) >= 0,
    G(i) >= 0.

The solver works in exponentially rescaled coordinates.  With q_ii the
diagonal generator entry of regime i, the rescaling

    Ptilde(t, i) = exp(q_ii t) P(t, i)

absorbs the diagonal part of the regime coupling into the equation; the
cost weights transform the same way (Qtilde = exp(q_ii t) Q, ..., Gtilde =
exp(q_ii T) G) while A, B, C, D are unchanged.  :class:`TildeTransform`
provides the rescaled fields, :func:`untilde_solution` maps solutions back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import NearSingular, OutOfRange, StructuralError
from .regime_chain import Generator, validate_generator

COEFFICIENT_NAMES = ("A", "B", "C", "D", "Q", "S", "R")
SYMMETRIC_COEFFICIENTS = ("Q", "R", "G")


class CoefficientField:
    """Per-regime matrix coefficient, possibly time- or node-dependent.

    kind is one of:

    ``constant``
        one matrix per regime, ``values[i-1]`` for regime i;
    ``time_table``
        piecewise-constant in time, left-continuous: on ``[t_k, t_{k+1})``
        the sample at ``t_k`` applies, and the last sample extends to T
        (right-closed).  Sample times must start at 0.0 and be strictly
        increasing.
    ``tree_table``
        one matrix per node of a recombining binomial lattice of a declared
        depth; node (k, j) is level k with j up-moves.  Used by the tree
        solver backend for randomly varying coefficients.
    """

    def __init__(self, kind, shape, ell, values=None, times=None, levels=None, depth=None):
        self.kind = kind
        self.shape = (int(shape[0]), int(shape[1]))
        self.ell = int(ell)
        self.values = values
        self.times = times
        self.levels = levels
        self.depth = depth

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, mats) -> "CoefficientField":
        """Constant field from per-regime matrices, shape (ell, r, c)."""
        vals = np.asarray(mats, dtype=float)
        if vals.ndim != 3:
            raise StructuralError(
                f"constant field needs per-regime matrices (ell, r, c), got shape {vals.shape}"
            )
        return cls("constant", vals.shape[1:], vals.shape[0], values=vals)

    @classmethod
    def from_table(cls, times, mats) -> "CoefficientField":
        """Time table from sample times (K,) and values (K, ell, r, c)."""
        times = np.asarray(times, dtype=float)
        vals = np.asarray(mats, dtype=float)
        if vals.ndim != 4 or times.ndim != 1 or times.size != vals.shape[0]:
            raise StructuralError("time table needs times (K,) and values (K, ell, r, c)")
        if times.size == 0 or times[0] != 0.0 or np.any(np.diff(times) <= 0.0):
            raise StructuralError("table times must start at 0 and increase strictly")
        return cls("time_table", vals.shape[2:], vals.shape[1], values=vals, times=times)

    @classmethod
    def from_tree(cls, levels) -> "CoefficientField":
        """Tree field from per-level arrays, level k of shape (k+1, ell, r, c)."""
        levels = [np.asarray(lv, dtype=float) for lv in levels]
        depth = len(levels) - 1
        for k, lv in enumerate(levels):
            if lv.ndim != 4 or lv.shape[0] != k + 1:
                raise StructuralError(f"tree level {k} must have shape (k+1, ell, r, c)")
            if lv.shape[1:] != levels[0].shape[1:]:
                raise StructuralError("tree levels disagree on (ell, r, c)")
        return cls(
            "tree_table", levels[0].shape[2:], levels[0].shape[1],
            levels=tuple(levels), depth=depth,
        )

    @classmethod
    def from_tree_function(cls, fn, depth, T, ell, shape) -> "CoefficientField":
        """Tree field with node values ``fn(t, w, regime)``.

        ``t = k*T/depth`` and ``w = (2j - k)*sqrt(T/depth)`` at node (k, j);
        ``regime`` is 1-based.  Convenience for building adapted random
        coefficients such as functions of the Brownian level.
        """
        dt = T / depth
        sq = np.sqrt(dt)
        levels = []
        for k in range(depth + 1):
            lv = np.empty((k + 1, ell) + tuple(shape))
            for j in range(k + 1):
                for i in range(1, ell + 1):
                    lv[j, i - 1] = np.asarray(fn(k * dt, (2 * j - k) * sq, i), dtype=float)
            levels.append(lv)
        return cls.from_tree(levels)

    # -- queries -------------------------------------------------------

    @property
    def is_random(self) -> bool:
        return self.kind == "tree_table"

    def is_zero(self) -> bool:
        """True iff the field is identically zero (checked on all samples)."""
        if self.kind == "tree_table":
            return all(not lv.any() for lv in self.levels)
        return not self.values.any()

    def eval(self, t: float, regime: int, node=None) -> np.ndarray:
        """Value at time t for a 1-based regime (and tree node if random)."""
        if not 1 <= regime <= self.ell:
            raise OutOfRange(f"regime {regime} outside 1..{self.ell}")
        if t < 0.0:
            raise OutOfRange(f"time {t} is negative")
        if self.kind == "constant":
            return self.values[regime - 1]
        if self.kind == "time_table":
            idx = int(np.searchsorted(self.times, t, side="right")) - 1
            return self.values[idx, regime - 1]
        if node is None:
            raise OutOfRange("tree_table field requires a node=(level, upcount)")
        k, j = node
        if not (0 <= k <= self.depth and 0 <= j <= k):
            raise OutOfRange(f"node {node} outside a depth-{self.depth} tree")
        return self.levels[k][j, regime - 1]

    def sample_times(self, times: np.ndarray) -> np.ndarray:
        """Piecewise-constant sampling on a time grid: array (K, ell, r, c).

        Not defined for tree fields (they are sampled per node instead).
        """
        times = np.asarray(times, dtype=float)
        if self.kind == "constant":
            return np.broadcast_to(self.values, (times.size,) + self.values.shape)
        if self.kind == "time_table":
            idx = np.searchsorted(self.times, times, side="right") - 1
            if np.any(idx < 0):
                raise OutOfRange("grid time before first table sample")
            return self.values[idx]
        raise StructuralError("tree_table field cannot be sampled on a plain grid")

    def max_norm(self, times=None) -> float:
        """Largest Frobenius norm over all samples (or tree nodes)."""
        if self.kind == "tree_table":
            return max(
                float(np.max(np.linalg.norm(lv, axis=(-2, -1)))) for lv in self.levels
            )
        return float(np.max(np.linalg.norm(self.values, axis=(-2, -1))))


def eval_coefficient(field: CoefficientField, t: float, regime: int, node=None) -> np.ndarray:
    """Functional form of :meth:`CoefficientField.eval`."""
    return field.eval(t, regime, node=node)


def _as_field(value, ell, shape, name) -> CoefficientField:
    """Coerce raw input (field, array of per-regime matrices, or a single
    matrix shared by all regimes) into a CoefficientField."""
    if isinstance(value, CoefficientField):
        f = value
    else:
        arr = np.asarray(value, dtype=float)
        if arr.ndim == 2:
            arr = np.repeat(arr[None], ell, axis=0)
        f = CoefficientField.constant(arr)
    if f.ell != ell:
        raise StructuralError(f"{name}: field declares {f.ell} regimes, spec has {ell}")
    if f.shape != tuple(shape):
        raise StructuralError(f"{name}: expected shape {tuple(shape)}, got {f.shape}")
    return f


@dataclass
class ProblemSpec:
    """Complete problem statement.

    ``x0``/``i0`` are default initial conditions for simulation; ``delta``
    is the declared lower bound in ``R >= delta * I``.  Regime indices are
    1-based.  The instance is validated structurally on construction and
    should be treated as immutable afterwards.
    """

    n: int
    m: int
    ell: int
    T: float
    generator: Generator
    A: CoefficientField
    B: CoefficientField
    C: CoefficientField
    D: CoefficientField
    Q: CoefficientField
    S: CoefficientField
    R: CoefficientField
    G: CoefficientField
    delta: float
    x0: np.ndarray = None
    i0: int = 1

    def __post_init__(self):
        if not isinstance(self.generator, Generator):
            self.generator = validate_generator(self.generator)
        n, m, ell = int(self.n), int(self.m), int(self.ell)
        if self.generator.ell != ell:
            raise StructuralError(
                f"generator has {self.generator.ell} regimes, spec declares {ell}"
            )
        if self.T <= 0.0:
            raise StructuralError("horizon T must be positive")
        if self.delta <= 0.0:
            raise StructuralError("delta must be positive")
        shapes = {
            "A": (n, n), "B": (n, m), "C": (n, n), "D": (n, m),
            "Q": (n, n), "S": (m, n), "R": (m, m), "G": (n, n),
        }
        for name, shape in shapes.items():
            setattr(self, name, _as_field(getattr(self, name), ell, shape, name))
        for name in SYMMETRIC_COEFFICIENTS:
            self._symmetrize_field(name)
        for name in COEFFICIENT_NAMES:
            f = getattr(self, name)
            if f.kind == "time_table" and f.times[-1] > self.T:
                raise StructuralError(f"{name}: table sample beyond the horizon T={self.T}")
        if self.G.kind == "time_table":
            raise StructuralError("terminal weight G must be constant or a tree leaf field")
        if self.x0 is not None:
            self.x0 = np.asarray(self.x0, dtype=float).reshape(n)
        if not 1 <= int(self.i0) <= ell:
            raise StructuralError(f"initial regime {self.i0} outside 1..{ell}")

    def _symmetrize_field(self, name):
        f = getattr(self, name)
        try:
            if f.kind == "tree_table":
                levels = tuple(
                    np.stack([
                        np.stack([matcore.make_symmetric(lv[j, i]) for i in range(f.ell)])
                        for j in range(lv.shape[0])
                    ])
                    for lv in f.levels
                )
                f.levels = levels
            else:
                flat = f.values.reshape((-1,) + f.shape)
                f.values = np.stack([matcore.make_symmetric(v) for v in flat]).reshape(
                    f.values.shape
                )
        except Exception as exc:
            raise StructuralError(f"{name} must be symmetric per regime: {exc}") from exc

    @property
    def q(self) -> np.ndarray:
        return self.generator.q

    @property
    def has_random_coefficients(self) -> bool:
        return any(getattr(self, nm).is_random for nm in COEFFICIENT_NAMES + ("G",))

    def coefficient(self, name: str) -> CoefficientField:
        if name not in COEFFICIENT_NAMES + ("G",):
            raise KeyError(name)
        return getattr(self, name)


# --- assumption validation --------------------------------------------------


@dataclass(frozen=True)
class Violation:
    assumption: str  # "R_lower" | "Q_schur" | "G_psd"
    regime: int
    where: object  # sample time or tree node
    margin: float  # offending minimum eigenvalue


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple

    def __post_init__(self):
        assert self.passed == (len(self.violations) == 0)


def _check_points(spec: ProblemSpec):
    """(where, time, node) triples covering every distinct coefficient value."""
    fields = [spec.Q, spec.S, spec.R]
    if any(f.is_random for f in fields):
        depth = next(f.depth for f in fields if f.is_random)
        dt = spec.T / depth
        return [
            ((k, j), k * dt, (k, j))
            for k in range(depth + 1)
            for j in range(k + 1)
        ]
    times = {0.0, spec.T}
    for f in fields:
        if f.kind == "time_table":
            times.update(float(t) for t in f.times)
    return [(t, t, None) for t in sorted(times)]


def validate_assumptions(spec: ProblemSpec, tol: float = 1e-9) -> ValidationReport:
    """Check the definiteness assumptions at every sample point and regime.

    Collects all failures instead of stopping at the first; structural
    problems (handled at construction) are not re-checked here.
    """
    violations = []
    points = _check_points(spec)
    for i in range(1, spec.ell + 1):
        for where, t, node in points:
            r = spec.R.eval(t, i, node=node)
            s = spec.S.eval(t, i, node=node)
            q = spec.Q.eval(t, i, node=node)
            lo = matcore.min_eigenvalue(r - spec.delta * np.eye(spec.m))
            if lo < -tol:
                violations.append(Violation("R_lower", i, where, lo))
            try:
                rinv_s = np.linalg.solve(r, s)
                schur = matcore.symmetrize(q - s.T @ rinv_s)
                lo = matcore.min_eigenvalue(schur)
                if lo < -tol:
                    violations.append(Violation("Q_schur", i, where, lo))
            except np.linalg.LinAlgError:
                violations.append(Violation("Q_schur", i, where, -np.inf))
    # terminal weight
    if spec.G.is_random:
        depth = spec.G.depth
        for i in range(1, spec.ell + 1):
            for j in range(depth + 1):
                lo = matcore.min_eigenvalue(spec.G.eval(spec.T, i, node=(depth, j)))
                if lo < -tol:
                    violations.append(Violation("G_psd", i, (depth, j), lo))
    else:
        for i in range(1, spec.ell + 1):
            lo = matcore.min_eigenvalue(spec.G.eval(spec.T, i))
            if lo < -tol:
                violations.append(Violation("G_psd", i, spec.T, lo))
    return ValidationReport(passed=not violations, violations=tuple(violations))


def check_smallness(spec: ProblemSpec) -> float:
    """Measured diffusion-size quantity

        Lhat = max over regimes i and samples t of
               exp(-q_ii t) * |D(t,i) R(t,i)^{-1} D(t,i)'|_F.

    The exponential factor is increasing in t (q_ii <= 0), so on each
    piecewise-constant interval the supremum sits at the right endpoint;
    the scan below is exact for constant and table coefficients.  Callers
    compare the value against a configured threshold: it is a solvability
    indicator, not a hard gate.  Identically zero D gives 0.
    """
    qdiag = np.diag(spec.q)
    worst = 0.0
    if spec.D.is_random or spec.R.is_random:
        depth = spec.D.depth if spec.D.is_random else spec.R.depth
        dt = spec.T / depth
        for i in range(1, spec.ell + 1):
            for k in range(depth + 1):
                t_right = min((k + 1) * dt, spec.T)
                for j in range(k + 1):
                    d = spec.D.eval(k * dt, i, node=(k, j))
                    if not d.any():
                        continue
                    r = spec.R.eval(k * dt, i, node=(k, j))
                    val = _drr(d, r) * np.exp(-qdiag[i - 1] * t_right)
                    worst = max(worst, val)
        return worst
    times = {0.0, spec.T}
    for f in (spec.D, spec.R):
        if f.kind == "time_table":
            times.update(float(t) for t in f.times)
    times = sorted(times)
    for i in range(1, spec.ell + 1):
        for k, t in enumerate(times):
            d = spec.D.eval(t, i)
            if not d.any():
                continue
            r = spec.R.eval(t, i)
            t_right = times[k + 1] if k + 1 < len(times) else spec.T
            worst = max(worst, _drr(d, r) * np.exp(-qdiag[i - 1] * t_right))
    return worst


def _drr(d: np.ndarray, r: np.ndarray) -> float:
    """|D R^{-1} D'|_F with a guarded inverse."""
    rinv = matcore.sym_inverse(r)
    return float(np.linalg.norm(d @ rinv @ d.T))


# --- exponential rescaling ---------------------------------------------------


class TildeTransform:
    """Exponentially rescaled coefficients.

    ``scale(t)[i-1] = exp(q_ii t)`` multiplies Q, S, R pointwise in time and
    G at the horizon; A, B, C, D pass through unchanged.  The off-diagonal
    regime coupling picks up the factor ``q_ij exp((q_ii - q_jj) t)``,
    available as :meth:`coupling_weights`.
    """

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.qdiag = np.diag(spec.q).copy()

    def scale(self, t) -> np.ndarray:
        """exp(q_ii t) for all regimes; shape (ell,) or (K, ell)."""
        t = np.asarray(t, dtype=float)
        return np.exp(np.multiply.outer(t, self.qdiag))

    def q_tilde(self, t: float, regime: int, node=None) -> np.ndarray:
        return np.exp(self.qdiag[regime - 1] * t) * self.spec.Q.eval(t, regime, node)

    def r_tilde(self, t: float, regime: int, node=None) -> np.ndarray:
        return np.exp(self.qdiag[regime - 1] * t) * self.spec.R.eval(t, regime, node)

    def s_tilde(self, t: float, regime: int, node=None) -> np.ndarray:
        return np.exp(self.qdiag[regime - 1] * t) * self.spec.S.eval(t, regime, node)

    def g_tilde(self, regime: int, node=None) -> np.ndarray:
        return np.exp(self.qdiag[regime - 1] * self.spec.T) * self.spec.G.eval(
            self.spec.T, regime, node
        )

    def coupling_weights(self, t) -> np.ndarray:
        """Matrix ``w[i, j] = q_ij exp((q_ii - q_jj) t)`` for j != i, zero
        diagonal; shape (ell, ell) or (K, ell, ell) for a vector of times."""
        t = np.asarray(t, dtype=float)
        diff = self.qdiag[:, None] - self.qdiag[None, :]
        w = self.spec.q * np.exp(np.multiply.outer(t, diff))
        if w.ndim == 2:
            w = w.copy()
            np.fill_diagonal(w, 0.0)
        else:
            w[..., np.arange(self.spec.ell), np.arange(self.spec.ell)] = 0.0
        return w


def tilde_transform(spec: ProblemSpec) -> TildeTransform:
    """Rescaled view of the coefficients (see :class:`TildeTransform`)."""
    return TildeTransform(spec)


def untilde_solution(ptilde: np.ndarray, lamtilde: np.ndarray, generator: Generator,
                     grid: np.ndarray):
    """Map rescaled grid solutions back: ``P = exp(-q_ii t) Ptilde`` and the
    same for the martingale integrand.  Inputs share shape (K, ell, n, n)
    with ``grid`` of length K."""
    qdiag = np.diag(generator.q)
    inv = np.exp(-np.multiply.outer(np.asarray(grid, dtype=float), qdiag))
    f = inv[:, :, None, None]
    return ptilde * f, lamtilde * f
