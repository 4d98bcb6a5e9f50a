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

Both solver backends use the coefficients as given and compute P itself.
The paper's rescaling ``exp(q_ii t) P``, with q_ii the diagonal generator
entry of regime i, enters only its quantities: :func:`check_smallness`
here, and the growth constant and a priori bound of the solver's
diagnostics.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import matcore
from .matcore import _floats
from .errors import DimensionMismatch, OutOfRange, StructuralError
from .regime_chain import Generator, check_regime, validate_generator

COEFFICIENT_NAMES = ("A", "B", "C", "D", "Q", "S", "R")
SYMMETRIC_COEFFICIENTS = ("Q", "R", "G")
# largest check_smallness value that _smallness_ok passes
SMALLNESS_THRESHOLD = 0.1


def _check_count(name: str, value, minimum: int = 1):
    """``value`` if an integer >= ``minimum``, bool excluded, else StructuralError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise StructuralError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _check_positive(name: str, value):
    """``value`` if a positive finite real, else StructuralError."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0.0):
        raise StructuralError(f"{name} must be positive and finite, got {value}")
    return value


def _per_regime(vals: np.ndarray, lead: int, ell) -> np.ndarray:
    """``vals`` with a regime axis after its ``lead`` leading axes: given
    ``ell``, one matrix per leading index is repeated over the ell regimes."""
    if ell is not None and vals.ndim == lead + 2:
        return np.repeat(np.expand_dims(vals, lead), ell, axis=lead)
    return vals


def _start_state(n: int, ell: int, x0, i0):
    """The initial state as n finite floats (else DimensionMismatch or
    OutOfRange) and the initial regime as an int in 1..ell."""
    x = _floats(x0, "x0").ravel()
    if x.size != n:
        raise DimensionMismatch(f"x0 has {x.size} entries, the state dimension is {n}")
    if not np.all(np.isfinite(x)):
        raise OutOfRange(f"x0 must be finite, got {x.tolist()}")
    return x, check_regime(i0, ell, "initial regime")


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

    Given ``ell``, the constructors also take one (r, c) matrix shared by
    the ell regimes wherever they take per-regime matrices (ell, r, c),
    in one form per call: per level for a tree.  They refuse non-numeric
    values, and NaN and infinite ones naming the regime and the sample
    time or node, with StructuralError.
    The feedback gains of :func:`~regimelq.control.feedback_gain` are a
    ``time_table`` field of m x n matrices.
    """

    def __init__(self, kind, shape, ell, values=None, times=None, levels=None, depth=None):
        arrays = levels if kind == "tree_table" else (values,)
        for k, a in enumerate(arrays):
            if not np.isfinite(a).all():
                at = tuple(np.argwhere(~np.isfinite(a))[0])
                place = (f"node ({k}, {at[0]}), " if kind == "tree_table"
                         else f"time {times[at[0]]:g}, " if kind == "time_table" else "")
                raise StructuralError(f"{kind} field has a non-finite entry {a[at]} at "
                                      f"{place}regime {at[-3] + 1}")
        self.kind = kind
        self.shape = (int(shape[0]), int(shape[1]))
        self.ell = int(ell)
        self.values = values
        self.times = times
        self.levels = levels
        self.depth = depth

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, mats, ell=None) -> "CoefficientField":
        """Constant field from per-regime matrices, shape (ell, r, c), or
        given ``ell``, one (r, c) matrix."""
        vals = _per_regime(_floats(mats, "constant field"), 0, ell)
        if vals.ndim != 3:
            raise StructuralError(
                f"constant field needs per-regime matrices (ell, r, c), got shape {vals.shape}"
            )
        return cls("constant", vals.shape[1:], vals.shape[0], values=vals)

    @classmethod
    def from_table(cls, times, mats, ell=None) -> "CoefficientField":
        """Time table from sample times (K,) and values (K, ell, r, c), or
        given ``ell``, (K, r, c)."""
        times = _floats(times, "time table times")
        vals = _per_regime(_floats(mats, "time table values"), 1, ell)
        if vals.ndim != 4 or times.ndim != 1 or times.size != vals.shape[0]:
            raise StructuralError("time table needs times (K,) and values (K, ell, r, c)")
        if times.size == 0 or times[0] != 0.0 or not np.all(np.diff(times) > 0.0):
            raise StructuralError("table times must start at 0 and increase strictly")
        return cls("time_table", vals.shape[2:], vals.shape[1], values=vals, times=times)

    @classmethod
    def from_tree(cls, levels, ell=None) -> "CoefficientField":
        """Tree field from per-level arrays, level k of shape (k+1, ell, r, c),
        or given ``ell``, (k+1, r, c)."""
        levels = [_per_regime(_floats(lv, f"tree level {k}"), 1, ell)
                  for k, lv in enumerate(levels)]
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
                    lv[j, i - 1] = _floats(fn(k * dt, (2 * j - k) * sq, i),
                                           "tree function value")
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
        regime = check_regime(regime, self.ell)
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

    def max_norm(self) -> float:
        """Largest Frobenius norm over all samples (or tree nodes)."""
        if self.kind == "tree_table":
            return max(
                float(np.max(np.linalg.norm(lv, axis=(-2, -1)))) for lv in self.levels
            )
        return float(np.max(np.linalg.norm(self.values, axis=(-2, -1))))


def _as_field(value, ell, shape, name) -> CoefficientField:
    """``value``, a field or what :meth:`CoefficientField.constant` reads
    with ``ell``, as a field of ``ell`` regimes and matrices of ``shape``."""
    try:
        f = value if isinstance(value, CoefficientField) else CoefficientField.constant(value, ell)
    except StructuralError as exc:
        raise StructuralError(f"{name}: {exc}") from exc
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
        for name in ("n", "m", "ell"):
            _check_count(name, getattr(self, name))
        if not isinstance(self.generator, Generator):
            self.generator = validate_generator(self.generator)
        n, m, ell = int(self.n), int(self.m), int(self.ell)
        if self.generator.ell != ell:
            raise StructuralError(
                f"generator has {self.generator.ell} regimes, spec declares {ell}"
            )
        _check_positive("horizon T", self.T)
        _check_positive("delta", self.delta)
        shapes = {
            "A": (n, n), "B": (n, m), "C": (n, n), "D": (n, m),
            "Q": (n, n), "S": (m, n), "R": (m, m), "G": (n, n),
        }
        for name, shape in shapes.items():
            setattr(self, name, _as_field(getattr(self, name), ell, shape, name))
        for name in SYMMETRIC_COEFFICIENTS:
            setattr(self, name, self._symmetrized(name))
        depths = {f.depth for f in map(self.coefficient, COEFFICIENT_NAMES + ("G",))
                  if f.is_random}
        if len(depths) > 1:
            raise StructuralError(f"tree fields disagree on the lattice depth: {sorted(depths)}")
        for name in COEFFICIENT_NAMES:
            f = getattr(self, name)
            if f.kind == "time_table" and f.times[-1] > self.T:
                raise StructuralError(f"{name}: table sample beyond the horizon T={self.T}")
        if self.G.kind == "time_table":
            raise StructuralError("terminal weight G must be constant or a tree leaf field")
        if self.x0 is None:
            self.i0 = check_regime(self.i0, ell, "initial regime")
        else:
            self.x0, self.i0 = _start_state(n, ell, self.x0, self.i0)

    def _symmetrized(self, name) -> CoefficientField:
        """A copy of field ``name`` with exactly symmetric matrices; the
        caller's field, which may also be another coefficient, is kept."""
        f = copy.copy(getattr(self, name))
        try:
            if f.kind == "tree_table":
                f.levels = tuple(matcore.make_symmetric(lv) for lv in f.levels)
            else:
                f.values = matcore.make_symmetric(f.values)
        except Exception as exc:
            raise StructuralError(f"{name} must be symmetric per regime: {exc}") from exc
        return f

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


def _check_points(spec: ProblemSpec, fields):
    """``(times, t_right, nodes)`` of the points covering every distinct
    value of ``fields``.

    With a random field among them the points are the lattice nodes in
    level order and ``nodes`` holds their (level, up-moves) pairs, shape
    (K, 2); otherwise they are the sorted union of 0, T and the table
    sample times, and ``nodes`` is None.  ``t_right`` is the right end of
    each point's interval: the next level or sample time, T for the last.
    """
    depths = [f.depth for f in fields if f.is_random]
    if depths:
        dt = spec.T / depths[0]
        level = np.repeat(np.arange(depths[0] + 1), np.arange(1, depths[0] + 2))
        up = np.arange(level.size) - level * (level + 1) // 2
        return level * dt, np.minimum((level + 1) * dt, spec.T), np.stack([level, up], 1)
    times = {0.0, spec.T}
    for f in fields:
        if f.kind == "time_table":
            times.update(float(t) for t in f.times)
    times = np.array(sorted(times))
    return times, np.append(times[1:], spec.T), None


def _stack(f: CoefficientField, times: np.ndarray) -> np.ndarray:
    """Values of ``f`` at every check point and regime, (K, ell, r, c);
    a random field's nodes are already the check points in level order."""
    return np.concatenate(f.levels) if f.is_random else f.sample_times(times)


def validate_assumptions(spec: ProblemSpec) -> ValidationReport:
    """Check the definiteness assumptions at every sample point and regime,
    within ``matcore.PSD_TOL``, the tolerance of the solver's PSD verdict.

    Collects all failures instead of stopping at the first, regime by
    regime and point by point; structural problems (handled at
    construction) are not re-checked here.  Where R is exactly singular
    the Schur complement check fails with margin ``-inf``.
    """
    times, _, nodes = _check_points(spec, (spec.Q, spec.S, spec.R))
    r, s, q = (_stack(f, times) for f in (spec.R, spec.S, spec.Q))
    eye = np.eye(spec.m)
    r_lower = np.linalg.eigvalsh(r - spec.delta * eye)[..., 0]
    # a zero pivot in the LU factorization is what makes solve() fail
    singular = np.linalg.slogdet(r)[0] == 0.0
    rinv_s = np.linalg.solve(np.where(singular[..., None, None], eye, r), s)
    schur = matcore.symmetrize(q - s.mT @ rinv_s)
    q_schur = np.where(singular, -np.inf, np.linalg.eigvalsh(schur)[..., 0])
    margins = np.stack([r_lower.T, q_schur.T], axis=-1)       # (ell, K, 2)
    violations = [
        Violation(("R_lower", "Q_schur")[c], int(i) + 1,
                  float(times[p]) if nodes is None else tuple(map(int, nodes[p])),
                  float(margins[i, p, c]))
        for i, p, c in np.argwhere(margins < -matcore.PSD_TOL)
    ]
    g = spec.G.levels[-1] if spec.G.is_random else spec.G.values[None]
    g_min = np.linalg.eigvalsh(g)[..., 0].T                   # (ell, J)
    violations += [
        Violation("G_psd", int(i) + 1,
                  (spec.G.depth, int(j)) if spec.G.is_random else spec.T,
                  float(g_min[i, j]))
        for i, j in np.argwhere(g_min < -matcore.PSD_TOL)
    ]
    return ValidationReport(passed=not violations, violations=tuple(violations))


def check_smallness(spec: ProblemSpec) -> float:
    """Measured diffusion-size quantity

        Lhat = max over regimes i and samples t of
               exp(-q_ii t) * |D(t,i) R(t,i)^{-1} D(t,i)'|_F.

    The exponential factor is increasing in t (q_ii <= 0), so on each
    piecewise-constant interval the supremum sits at the right endpoint;
    the scan below is exact for constant and table coefficients.
    :func:`_smallness_ok` compares the value with ``SMALLNESS_THRESHOLD``:
    it is a solvability indicator, not a hard gate.  Identically zero D
    gives 0, and R is only inverted where D is nonzero, from its spectral
    factorization with no condition verdict: R >= delta I is
    :func:`validate_assumptions`' to judge.  An R with a zero eigenvalue
    gives ``inf``, as does an exponential factor that overflows.
    """
    times, t_right, _ = _check_points(spec, (spec.D, spec.R))
    d = _stack(spec.D, times)
    live = d.any(axis=(-2, -1))                               # (K, ell)
    if not live.any():
        return 0.0
    d = d[live]
    w, v = np.linalg.eigh(_stack(spec.R, times)[live])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        drr = d @ matcore._spectral_inverse(w, v) @ d.mT
        decay = np.exp(-np.diag(spec.q)[None, :] * t_right[:, None])[live]
        size = matcore._frobenius(drr) * decay
    return float(np.max(np.where((w == 0.0).any(axis=-1), np.inf, size)))


def _smallness_ok(smallness: float) -> bool:
    """The verdict on a :func:`check_smallness` value: within
    ``SMALLNESS_THRESHOLD`` (a NaN value is not)."""
    return smallness <= SMALLNESS_THRESHOLD
