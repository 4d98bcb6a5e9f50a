"""Run configuration: YAML ingestion with strict validation.

A run file has four sections; only ``problem`` is mandatory::

    problem:
      n: 1
      m: 1
      ell: 2
      T: 1.0
      delta: 0.5
      generator: [[-1.0, 1.0], [1.0, -1.0]]
      x0: [1.0]          # the start state of simulate and verify
      i0: 1
      A: [[0.0]]         # one matrix shared by all regimes ...
      Q: [[[1.0]], [[0.0]]]   # ... or one per regime
      R: {time_table: {0.0: [[1.0]], 0.5: [[2.0]]}}
      G: [[1.0]]
      # tree-adapted coefficients give every lattice node, keyed "level,ups":
      # Q: {tree_table: {"0,0": [[1.0]], "1,0": [[0.6]], "1,1": [[1.4]]}}
    solver:
      backend: ode       # or tree
      grid_steps: 2000   # also tree_depth, picard_tol, picard_max_iter
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

A run file is plain YAML: mappings, lists and scalars.  Each scalar has
SafeLoader's value (with libyaml's parser where PyYAML has it), but the
data is built straight from the parser's event stream: the node graph
``yaml.load`` builds first is about nine times the size of a large
``tree_table``'s data.  Anchors, aliases, explicit tags (``!!int 1``), the
``<<`` merge and ``=`` value keys, keys that are not scalars and a second
document are refused with a ParseError naming the key and line, as is a
scalar that SafeLoader cannot read (``T: 2001-99-99``).

This module only reads YAML: sections, unknown and missing keys, numbers
in scalars (numeric strings too) and the two table forms, into plain
lists.  Every array goes as given to its owner, as every other rule does,
and library callers meet the same owners (README's table says which key
each owns): ``validate_generator``, ``CoefficientField``, ``ProblemSpec``,
``model._start_state`` (x0), ``check_regime``, ``SolverOptions``,
``control._check_path_count``, ``model._check_positive``, ``check_seed``
and ``Perturbation``.  An owner's typed error reaches the caller as a
RangeError whose message starts with the run-file key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .control import Perturbation, _check_path_count
from .errors import ParseError, RangeError, RegimeLQError, UnknownKey
from .esre import SolverOptions
from .model import (
    COEFFICIENT_NAMES, CoefficientField, ProblemSpec, _check_positive, _start_state,
)
from .regime_chain import check_regime, check_seed, validate_generator

# libyaml's parser where PyYAML was built with it: the same constructors and
# resolver as SafeLoader, several times faster on large node tables
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

_YAML_TAG = "tag:yaml.org,2002:"
_STR = _YAML_TAG + "str"
_NO_KEY = object()              # a mapping waiting for its next key
_ITEM = object()                # the key of every list


def _where(stack, mark, key="") -> str:
    """The run-file key path, with its line, of the slot being filled: a
    list item, a mapping value, or a mapping key, which is ``key``."""
    path = "".join(f"[{len(data)}]" if slot is _ITEM else f".{key if slot is _NO_KEY else slot}"
                   for data, slot in stack)
    return f"{path.strip('.') or 'document'} (line {mark.line + 1})"


def _load_yaml(text: str):
    """The plain data of a run file: mappings, lists and scalars built
    from ``YAML_LOADER``'s event stream, with no node graph.

    Each scalar takes the type that the loader's implicit resolver and
    constructors give it, so its value is SafeLoader's.  An anchor, an
    alias, an explicit tag, a "<<" or "=" scalar, a key that is not a
    scalar, a second document and a scalar its constructor cannot read
    (``2001-99-99``) raise ParseError naming the key path and line.
    """
    loader = YAML_LOADER(text)
    try:
        loader.get_event()                                  # stream start
        if loader.check_event(yaml.StreamEndEvent):
            return None
        loader.get_event()                                  # document start
        resolve, constructors = loader.resolve, loader.yaml_constructors
        node = yaml.ScalarNode(None, None)  # reused: constructors read tag, value, mark
        stack = []                          # [collection, slot] of each open collection
        while True:
            event = loader.get_event()
            kind, mark = type(event), event.start_mark
            if kind is yaml.SequenceEndEvent or kind is yaml.MappingEndEvent:
                value = stack.pop()[0]
            else:
                value = event.value if kind is yaml.ScalarEvent else ""
                if event.anchor is not None:                # an alias has one too
                    raise ParseError(
                        f"{_where(stack, mark, value)}: anchors and aliases are not "
                        f"supported, found {'*' if kind is yaml.AliasEvent else '&'}"
                        f"{event.anchor}")
                if event.tag is not None:
                    raise ParseError(f"{_where(stack, mark, value)}: tags are not supported, "
                                     f"found {event.tag.replace(_YAML_TAG, '!!')}")
                if kind is not yaml.ScalarEvent:
                    if stack and stack[-1][1] is _NO_KEY:
                        raise ParseError(f"{_where(stack, mark)}: a mapping key must be a scalar")
                    stack.append([[], _ITEM] if kind is yaml.SequenceStartEvent
                                 else [{}, _NO_KEY])
                    continue
                tag = resolve(yaml.ScalarNode, value, event.implicit)
                if tag != _STR:
                    construct = constructors.get(tag)
                    if construct is None:       # SafeLoader's merge and value keys
                        raise ParseError(f"{_where(stack, mark, value)}: YAML's "
                                         f"{tag[len(_YAML_TAG):]} key {value!r} is not supported")
                    node.tag, node.value, node.start_mark = tag, value, mark
                    try:
                        value = construct(loader, node)
                    except ValueError:
                        raise ParseError(f"{_where(stack, mark, value)}: cannot read {value!r} "
                                         f"as {tag.replace(_YAML_TAG, '!!')}") from None
            if not stack:
                break                                       # the document's root
            top = stack[-1]
            if top[1] is _ITEM:
                top[0].append(value)
            elif top[1] is _NO_KEY:
                top[1] = value
            else:
                top[0][top[1]] = value
                top[1] = _NO_KEY
        loader.get_event()                                  # document end
        if not loader.check_event(yaml.StreamEndEvent):
            raise ParseError(f"{_where([], loader.get_event().start_mark)}: a run file "
                             f"holds one YAML document, found a second")
        return value
    finally:
        loader.dispose()


_COEFFICIENT_KEYS = COEFFICIENT_NAMES + ("G",)
_PROBLEM_KEYS = {"n", "m", "ell", "T", "delta", "generator", "x0", "i0", *_COEFFICIENT_KEYS}
_SOLVER_KEYS = {"backend", "grid_steps", "tree_depth", "picard_tol", "picard_max_iter"}
_SIMULATE_KEYS = {"n_paths", "dt", "seed", "perturbations"}
_OUTPUT_KEYS = {"solution_path", "report_path", "estimates_path"}
_TOP_KEYS = {"problem", "solver", "simulate", "output"}


@dataclass
class SimulateConfig:
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


def _section(data: dict, name: str, allowed: set) -> dict:
    """The mapping under top-level ``name``, {} when absent or empty."""
    section = data.get(name) or {}
    if not isinstance(section, dict):
        raise ParseError(f"config.{name} must be a mapping")
    _reject_unknown(section, allowed, name)
    return section


def _setting(section: dict, key: str, defaults):
    """``section[key]``, else the default of field ``key`` of the dataclass
    ``defaults``."""
    return section.get(key, getattr(defaults, key))


def _owned(key: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, the owner's typed error re-raised as
    RangeError with run-file ``key`` before its message; a key ending in a
    dot takes the field name that leads the message, as ``solver.`` does."""
    try:
        return build(*args, **kwargs)
    except RegimeLQError as exc:
        raise RangeError(f"{key}{exc}") from exc


def _as_float(value, where: str) -> float:
    # YAML 1.1 reads exponents without a sign ("1.0e12") as strings, so a
    # cleanly parseable numeric string is accepted here
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise RangeError(f"{where} must be a number, got {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, (int, float, np.floating)):
        raise RangeError(f"{where} must be a number, got {value!r}")
    return float(value)


def _parse_coefficient(node, ell: int, key: str) -> CoefficientField:
    """Coefficient ``key`` as CoefficientField builds it from a matrix or
    per-regime matrices, or from a table of them: a time table's keys as
    sorted float times, a tree table's ``"k,j"`` nodes as one list per level."""
    if not isinstance(node, dict):
        return _owned(f"{key}: ", CoefficientField.constant, node, ell)
    _reject_unknown(node, {"time_table", "tree_table"}, key)
    if len(node) != 1:
        raise ParseError(f"{key}: give exactly one of time_table / tree_table")
    if "time_table" in node:
        table = node["time_table"]
        if not isinstance(table, dict) or not table:
            raise ParseError(f"{key}.time_table must map times to matrices")
        try:
            times, mats = zip(*sorted(((float(t), v) for t, v in table.items()),
                                      key=lambda item: item[0]))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{key}.time_table keys must be numbers") from exc
        return _owned(f"{key}: ", CoefficientField.from_table, times, mats, ell)
    table = node["tree_table"]
    if not isinstance(table, dict) or not table:
        raise ParseError(f"{key}.tree_table must map 'level,ups' to matrices")
    nodes = {}
    for name, v in table.items():
        try:
            k_s, j_s = str(name).split(",")
            nodes[int(k_s), int(j_s)] = v
        except ValueError as exc:
            raise ParseError(f"{key}.tree_table key {name!r} is not 'level,ups'") from exc
    try:
        levels = [[nodes[k, j] for j in range(k + 1)]
                  for k in range(max(k for k, _ in nodes) + 1)]
    except KeyError as exc:
        k, j = exc.args[0]
        raise ParseError(f"{key}.tree_table misses node {k},{j}") from None
    if len(nodes) != sum(map(len, levels)):
        k, j = next((k, j) for k, j in nodes if not 0 <= j <= k)
        raise ParseError(f"{key}.tree_table node {k},{j} is off the lattice")
    return _owned(f"{key}: ", CoefficientField.from_tree, levels, ell)


def _parse_perturbation(node, m: int, where: str) -> Perturbation:
    if not isinstance(node, dict):
        raise ParseError(f"{where}: perturbation must be a mapping")
    _reject_unknown(node, {"constant", "table"}, where)
    if len(node) != 1:
        raise ParseError(f"{where}: give exactly one of constant / table")
    if "constant" in node:
        return _owned(f"{where}.constant: ", Perturbation.coerce, node["constant"], m)
    table = node["table"]
    if not isinstance(table, dict) or set(table) != {"times", "values"}:
        raise ParseError(f"{where}.table needs 'times' and 'values'")
    pert = _owned(f"{where}.", Perturbation, values=table["values"], times=table["times"])
    return _owned(f"{where}.table: ", Perturbation.coerce, pert, m)


def parse_config(path) -> RunConfig:
    """Load and fully validate a run configuration file.

    Raises :class:`ParseError` for unreadable or malformed files,
    :class:`UnknownKey` for unrecognized keys and :class:`RangeError` for
    values that break a rule, its own or an owner's (see the module
    docstring); the owner's typed error is the RangeError's ``__cause__``.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    try:
        data = _load_yaml(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"invalid YAML in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"config {path} must be a mapping at top level")
    _reject_unknown(data, _TOP_KEYS, "config")

    _require(data, "problem", "config")
    prob = _section(data, "problem", _PROBLEM_KEYS)
    generator = _owned("problem.generator: ", validate_generator,
                       _require(prob, "generator", "problem"))
    ell = generator.ell
    coeffs = {
        name: _parse_coefficient(_require(prob, name, "problem"), ell, f"problem.{name}")
        for name in _COEFFICIENT_KEYS
    }
    i0 = _owned("problem.i0: ", check_regime, _setting(prob, "i0", ProblemSpec), ell)
    spec = _owned(
        "problem: ", ProblemSpec,
        n=_require(prob, "n", "problem"), m=_require(prob, "m", "problem"),
        ell=_require(prob, "ell", "problem"),
        T=_as_float(_require(prob, "T", "problem"), "problem.T"),
        delta=_as_float(_require(prob, "delta", "problem"), "problem.delta"),
        generator=generator, i0=i0, **coeffs,
    )
    # x0 goes to ProblemSpec's own check once n is known, so its errors
    # start with the key
    if prob.get("x0") is not None:
        spec.x0, _ = _owned("problem.", _start_state, spec.n, ell, prob["x0"], i0)

    sv = _section(data, "solver", _SOLVER_KEYS)
    solver = _owned("solver.", SolverOptions, **{
        key: _as_float(value, f"solver.{key}") if key == "picard_tol" else value
        for key, value in sv.items()})

    sm = _section(data, "simulate", _SIMULATE_KEYS)
    perturbations = [
        _parse_perturbation(p, spec.m, f"simulate.perturbations[{k}]")
        for k, p in enumerate(sm.get("perturbations", []) or [])
    ]
    dt = _as_float(_setting(sm, "dt", SimulateConfig), "simulate.dt")
    simulate = SimulateConfig(
        dt=_owned("simulate.", _check_positive, "dt", dt),
        n_paths=_owned("simulate.", _check_path_count, _setting(sm, "n_paths", SimulateConfig)),
        seed=_owned("simulate.", check_seed, _setting(sm, "seed", SimulateConfig)),
        perturbations=perturbations,
    )

    out = _section(data, "output", _OUTPUT_KEYS)
    output = OutputConfig(**{key: str(_setting(out, key, OutputConfig))
                             for key in _OUTPUT_KEYS})
    return RunConfig(problem=spec, solver=solver, simulate=simulate, output=output)
