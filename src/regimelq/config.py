"""Run configuration: YAML ingestion with strict validation.

A run file has four sections; only ``problem`` is mandatory::

    problem:
      n: 1
      m: 1
      ell: 2
      T: 1.0
      delta: 0.5
      generator: [[-1.0, 1.0], [1.0, -1.0]]
      x0: [1.0]          # optional defaults for simulation
      i0: 1
      A: [[0.0]]         # one matrix shared by all regimes ...
      Q: [[[1.0]], [[0.0]]]   # ... or one per regime
      R: {time_table: {0.0: [[1.0]], 0.5: [[2.0]]}}
      G: [[1.0]]
      # tree-adapted coefficients give every lattice node, keyed "level,ups":
      # Q: {tree_table: {"0,0": [[1.0]], "1,0": [[0.6]], "1,1": [[1.4]]}}
    solver:
      backend: ode       # or tree
      grid_steps: 2000
      ...
    simulate:
      n_paths: 100000
      dt: 0.001
      seed: 0
      perturbations: [{constant: [0.5]}]
    output:
      solution_path: solution.csv
      report_path: report.txt

Matrices are row-major nested lists; time tables map sample times to
values (piecewise constant from the left); regimes are numbered 1..ell.
Unknown keys anywhere are rejected rather than ignored, so typos fail
loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .control import Perturbation
from .errors import ParseError, RangeError, UnknownKey
from .esre import SolverOptions
from .model import CoefficientField, ProblemSpec

# libyaml's parser where PyYAML was built with it: the same constructors and
# resolver as SafeLoader, several times faster on large node tables
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

_PROBLEM_KEYS = {
    "n", "m", "ell", "T", "delta", "generator", "x0", "i0",
    "A", "B", "C", "D", "Q", "S", "R", "G",
}
_SOLVER_KEYS = {
    "backend", "grid_steps", "tree_depth", "picard_tol", "picard_max_iter",
    "psd_tol", "cond_threshold", "smallness_threshold",
}
_SIMULATE_KEYS = {"x0", "i0", "n_paths", "dt", "seed", "perturbations"}
_OUTPUT_KEYS = {"solution_path", "report_path", "estimates_path"}
_TOP_KEYS = {"problem", "solver", "simulate", "output"}

_COEF_SHAPES = {
    "A": ("n", "n"), "B": ("n", "m"), "C": ("n", "n"), "D": ("n", "m"),
    "Q": ("n", "n"), "S": ("m", "n"), "R": ("m", "m"), "G": ("n", "n"),
}


@dataclass
class SimulateConfig:
    x0: np.ndarray = None
    i0: int = None
    n_paths: int = 10000
    dt: float = 1e-3
    seed: int = 0
    perturbations: list = field(default_factory=list)


@dataclass
class OutputConfig:
    solution_path: str = "solution.csv"
    report_path: str = "report.txt"
    estimates_path: str = "costs.csv"


@dataclass
class RunConfig:
    problem: ProblemSpec
    solver: SolverOptions
    simulate: SimulateConfig
    output: OutputConfig


def _reject_unknown(mapping: dict, allowed: set, where: str):
    for key in mapping:
        if key not in allowed:
            raise UnknownKey(f"unknown key {where}.{key!r}")


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ParseError(f"missing required key {where}.{key!r}")
    return mapping[key]


def _setting(section: dict, key: str, defaults):
    """``section[key]``, else the default of field ``key`` of the dataclass
    ``defaults``."""
    return section.get(key, getattr(defaults, key))


def _as_int(value, where: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise RangeError(f"{where} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise RangeError(f"{where} must be >= {minimum}, got {value}")
    return value


def _as_float(value, where: str, positive=False) -> float:
    # YAML 1.1 reads exponents without a sign ("1.0e12") as strings, so a
    # cleanly parseable numeric string is accepted here
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise RangeError(f"{where} must be a number, got {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, (int, float, np.floating)):
        raise RangeError(f"{where} must be a number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise RangeError(f"{where} must be finite, got {value}")
    if positive and value <= 0.0:
        raise RangeError(f"{where} must be positive, got {value}")
    return value


def _as_floats(node, where: str, size: int = None) -> np.ndarray:
    """Float array of a (nested) list; with ``size``, flattened and
    required to hold exactly that many entries."""
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: not a numeric array: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise RangeError(f"{where} must be finite, got {arr[~np.isfinite(arr)][0]}")
    if size is not None:
        arr = arr.reshape(-1)
        if arr.size != size:
            raise RangeError(f"{where} must have {size} entries, got {arr.size}")
    return arr


def _as_matrix_stack(node, ell: int, where: str) -> np.ndarray:
    """Nested-list matrix (shared) or list of ell matrices -> (ell, r, c)."""
    arr = _as_floats(node, where)
    if arr.ndim == 2:
        return np.repeat(arr[None], ell, axis=0)
    if arr.ndim == 3:
        if arr.shape[0] != ell:
            raise RangeError(
                f"{where}: expected {ell} per-regime matrices, got {arr.shape[0]}"
            )
        return arr
    raise ParseError(f"{where}: expected a matrix or a list of matrices")


def _parse_coefficient(node, name: str, ell: int, where: str) -> CoefficientField:
    if isinstance(node, dict):
        _reject_unknown(node, {"time_table", "tree_table"}, where)
        if len(node) != 1:
            raise ParseError(f"{where}: give exactly one of time_table / tree_table")
        if "time_table" in node:
            table = node["time_table"]
            if not isinstance(table, dict) or not table:
                raise ParseError(f"{where}.time_table must map times to matrices")
            try:
                items = sorted((float(t), v) for t, v in table.items())
            except (TypeError, ValueError) as exc:
                raise ParseError(f"{where}.time_table keys must be numbers") from exc
            times = [t for t, _ in items]
            stacks = [_as_matrix_stack(v, ell, f"{where}.time_table[{t:g}]")
                      for t, v in items]
            return CoefficientField.from_table(times, np.stack(stacks))
        table = node["tree_table"]
        if not isinstance(table, dict) or not table:
            raise ParseError(f"{where}.tree_table must map 'level,ups' to matrices")
        nodes = {}
        for key, v in table.items():
            try:
                k_s, j_s = str(key).split(",")
                k, j = int(k_s), int(j_s)
            except ValueError as exc:
                raise ParseError(
                    f"{where}.tree_table key {key!r} is not 'level,ups'"
                ) from exc
            nodes[(k, j)] = _as_matrix_stack(v, ell, f"{where}.tree_table[{key}]")
        depth = max(k for k, _ in nodes)
        levels = []
        for k in range(depth + 1):
            rows = []
            for j in range(k + 1):
                if (k, j) not in nodes:
                    raise ParseError(f"{where}.tree_table misses node {k},{j}")
                rows.append(nodes[(k, j)])
            levels.append(np.stack(rows))
        return CoefficientField.from_tree(levels)
    return CoefficientField.constant(_as_matrix_stack(node, ell, where))


def _parse_perturbation(node, m: int, where: str) -> Perturbation:
    if not isinstance(node, dict):
        raise ParseError(f"{where}: perturbation must be a mapping")
    _reject_unknown(node, {"constant", "table"}, where)
    if len(node) != 1:
        raise ParseError(f"{where}: give exactly one of constant / table")
    if "constant" in node:
        return Perturbation(values=_as_floats(node["constant"], f"{where}.constant", m))
    table = node["table"]
    if not isinstance(table, dict) or set(table) != {"times", "values"}:
        raise ParseError(f"{where}.table needs 'times' and 'values'")
    times = _as_floats(table["times"], f"{where}.table.times")
    if times.ndim != 1 or np.any(np.diff(times) <= 0.0):
        raise RangeError(f"{where}.table times must increase strictly")
    values = _as_floats(table["values"], f"{where}.table.values", times.size * m)
    values = values.reshape(times.size, m)
    return Perturbation(values=values, times=times)


def parse_config(path) -> RunConfig:
    """Load and fully validate a run configuration file.

    Raises :class:`ParseError` for unreadable or malformed files,
    :class:`UnknownKey` for unrecognized keys and :class:`RangeError` for
    out-of-range values; structural inconsistencies between matrices
    surface as :class:`~regimelq.errors.StructuralError` from the problem
    constructor.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ParseError(f"invalid YAML in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"config {path} must be a mapping at top level")
    _reject_unknown(data, _TOP_KEYS, "config")

    prob = _require(data, "problem", "config")
    if not isinstance(prob, dict):
        raise ParseError("config.problem must be a mapping")
    _reject_unknown(prob, _PROBLEM_KEYS, "problem")
    n = _as_int(_require(prob, "n", "problem"), "problem.n", minimum=1)
    m = _as_int(_require(prob, "m", "problem"), "problem.m", minimum=1)
    ell = _as_int(_require(prob, "ell", "problem"), "problem.ell", minimum=2)
    T = _as_float(_require(prob, "T", "problem"), "problem.T", positive=True)
    delta = _as_float(_require(prob, "delta", "problem"), "problem.delta", positive=True)
    generator = _require(prob, "generator", "problem")
    coeffs = {}
    for name in _COEF_SHAPES:
        coeffs[name] = _parse_coefficient(
            _require(prob, name, "problem"), name, ell, f"problem.{name}"
        )
    x0 = prob.get("x0")
    if x0 is not None:
        x0 = _as_floats(x0, "problem.x0", n)
    i0 = _as_int(_setting(prob, "i0", ProblemSpec), "problem.i0", minimum=1)
    if i0 > ell:
        raise RangeError(f"problem.i0 must be in 1..{ell}, got {i0}")
    spec = ProblemSpec(
        n=n, m=m, ell=ell, T=T, generator=_as_floats(generator, "problem.generator"),
        delta=delta, x0=x0, i0=i0, **coeffs,
    )

    sv = data.get("solver", {}) or {}
    if not isinstance(sv, dict):
        raise ParseError("config.solver must be a mapping")
    _reject_unknown(sv, _SOLVER_KEYS, "solver")
    backend = _setting(sv, "backend", SolverOptions)
    if backend not in ("ode", "tree"):
        raise RangeError(f"solver.backend must be 'ode' or 'tree', got {backend!r}")
    solver = SolverOptions(
        backend=backend,
        **{key: _as_int(_setting(sv, key, SolverOptions), f"solver.{key}", minimum=1)
           for key in ("grid_steps", "tree_depth", "picard_max_iter")},
        **{key: _as_float(_setting(sv, key, SolverOptions), f"solver.{key}", positive=True)
           for key in ("picard_tol", "psd_tol", "cond_threshold", "smallness_threshold")},
    )

    sm = data.get("simulate", {}) or {}
    if not isinstance(sm, dict):
        raise ParseError("config.simulate must be a mapping")
    _reject_unknown(sm, _SIMULATE_KEYS, "simulate")
    sim_x0 = sm.get("x0")
    if sim_x0 is not None:
        sim_x0 = _as_floats(sim_x0, "simulate.x0", n)
    sim_i0 = sm.get("i0")
    if sim_i0 is not None:
        sim_i0 = _as_int(sim_i0, "simulate.i0", minimum=1)
        if sim_i0 > ell:
            raise RangeError(f"simulate.i0 must be in 1..{ell}, got {sim_i0}")
    perturbations = [
        _parse_perturbation(p, m, f"simulate.perturbations[{k}]")
        for k, p in enumerate(sm.get("perturbations", []) or [])
    ]
    simulate = SimulateConfig(
        x0=sim_x0, i0=sim_i0,
        n_paths=_as_int(_setting(sm, "n_paths", SimulateConfig), "simulate.n_paths",
                        minimum=2),
        dt=_as_float(_setting(sm, "dt", SimulateConfig), "simulate.dt", positive=True),
        seed=_as_int(_setting(sm, "seed", SimulateConfig), "simulate.seed", minimum=0),
        perturbations=perturbations,
    )

    out = data.get("output", {}) or {}
    if not isinstance(out, dict):
        raise ParseError("config.output must be a mapping")
    _reject_unknown(out, _OUTPUT_KEYS, "output")
    output = OutputConfig(**{key: str(_setting(out, key, OutputConfig))
                             for key in _OUTPUT_KEYS})
    return RunConfig(problem=spec, solver=solver, simulate=simulate, output=output)
