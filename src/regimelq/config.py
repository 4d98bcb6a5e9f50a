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

The YAML values are SafeLoader's (with libyaml's parser where PyYAML has
it), but the data is built straight from the parser's event stream: the
node graph ``yaml.load`` builds first is about nine times the size of a
large ``tree_table``'s data.  Collection tags other than map and seq
(``!!set``, ``!!omap``, ``!!pairs``) and a tagged scalar its tag cannot
read (``T: !!int abc``) are refused with a ParseError naming the key and
line.

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

from collections.abc import Hashable
from dataclasses import dataclass, field
from pathlib import Path
from types import GeneratorType

import numpy as np
import yaml
from yaml.composer import ComposerError
from yaml.constructor import ConstructorError

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
_STR, _MERGE_TAG, _VALUE_TAG = (_YAML_TAG + s for s in ("str", "merge", "value"))
_MERGE = object()               # the key of a "<<" entry
_NO_KEY = object()              # a mapping waiting for its next key
_ITEM = object()                # the key of every list


class _Frame:
    """A collection being filled: a list, or a dict with its pending key
    (``_NO_KEY`` between entries) and the mappings its "<<" entries merge."""

    __slots__ = ("data", "mark", "key", "merges")

    def __init__(self, data, mark):
        self.data, self.mark, self.merges = data, mark, []
        self.key = _ITEM if isinstance(data, list) else _NO_KEY


def _where(stack, mark) -> str:
    """The run-file key path, with its line, of the slot being filled."""
    path = "".join(
        f"[{len(f.data)}]" if f.key is _ITEM
        else "" if f.key is _NO_KEY else f".{'<<' if f.key is _MERGE else f.key}"
        for f in stack)
    return f"{path.lstrip('.') or 'document'} (line {mark.line + 1})"


def _remember(anchors: dict, anchor: str, value, mark):
    if anchor in anchors:
        raise ComposerError(None, None, f"found duplicate anchor {anchor!r}", mark)
    anchors[anchor] = value


def _short(tag: str) -> str:
    return tag.replace(_YAML_TAG, "!!")


def _load_yaml(text: str):
    """The data ``yaml.load(text, Loader=YAML_LOADER)`` gives, built from
    the loader's event stream without its node graph.

    Each scalar takes the loader's own resolved tag and constructor, so
    values, anchors (recursive ones too), "<<" merges, "=" keys and the
    YAMLErrors are SafeLoader's.  A scalar its tag cannot read and a
    collection tag other than map and seq raise ParseError naming the key.
    """
    loader = YAML_LOADER(text)
    try:
        loader.get_event()                                  # stream start
        if loader.check_event(yaml.StreamEndEvent):
            return None
        doc_mark = loader.get_event().start_mark            # document start
        resolve, constructors = loader.resolve, loader.yaml_constructors
        node = yaml.ScalarNode(None, None)  # reused: constructors read tag, value, mark
        anchors, stack, top = {}, [], None
        while True:
            event = loader.get_event()
            kind, mark = type(event), event.start_mark
            if kind is yaml.ScalarEvent:
                tag, value = event.tag, event.value
                if tag is None or tag == "!":
                    tag = resolve(yaml.ScalarNode, value, event.implicit)
                if tag == _STR:
                    pass
                elif tag == _VALUE_TAG and top is not None and top.key is _NO_KEY:
                    pass                                    # "=" as a key is a string
                elif tag == _MERGE_TAG and top is not None and top.key is _NO_KEY:
                    value = _MERGE
                else:
                    node.tag, node.value, node.start_mark = tag, value, mark
                    try:
                        value = constructors.get(tag, constructors[None])(loader, node)
                        if isinstance(value, GeneratorType):
                            value, *_ = value   # !!map or !!seq: runs to its error
                    except (ValueError, KeyError, AttributeError):
                        raise ParseError(f"{_where(stack, mark)}: cannot read "
                                         f"{event.value!r} as {_short(tag)}") from None
                if event.anchor is not None:
                    _remember(anchors, event.anchor, value, mark)
            elif kind is yaml.AliasEvent:
                if event.anchor not in anchors:
                    raise ComposerError(None, None,
                                        f"found undefined alias {event.anchor!r}", mark)
                value = anchors[event.anchor]
                if value is _MERGE and not (top is not None and top.key is _NO_KEY):
                    raise ConstructorError(None, None, "could not determine a constructor "
                                           f"for the tag {_MERGE_TAG!r}", mark)
            elif kind is yaml.SequenceStartEvent or kind is yaml.MappingStartEvent:
                seq = kind is yaml.SequenceStartEvent
                if event.tag not in (None, "!", _YAML_TAG + ("seq" if seq else "map")):
                    raise ParseError(f"{_where(stack, mark)}: the collection tag "
                                     f"{_short(event.tag)} is not supported")
                top = _Frame([] if seq else {}, mark)
                stack.append(top)
                if event.anchor is not None:
                    _remember(anchors, event.anchor, top.data, mark)
                continue
            else:                                           # sequence or mapping end
                frame = stack.pop()
                top = stack[-1] if stack else None
                value, mark = frame.data, frame.mark
                if frame.merges:                            # explicit keys win
                    explicit = dict(value)
                    value.clear()
                    for merged in frame.merges:
                        value.update(merged)
                    value.update(explicit)
            if top is None:
                break                                       # the document's root
            if top.key is _ITEM:
                top.data.append(value)
            elif top.key is _NO_KEY:
                if not isinstance(value, Hashable):
                    raise ConstructorError("while constructing a mapping", top.mark,
                                           "found unhashable key", mark)
                top.key = value
            elif top.key is _MERGE:
                top.key = _NO_KEY
                merged = value if isinstance(value, list) else [value]
                if not all(isinstance(m, dict) for m in merged):
                    raise ConstructorError(
                        "while constructing a mapping", top.mark, "expected a mapping "
                        f"{'' if merged is value else 'or list of mappings '}for merging",
                        mark)
                # SafeConstructor.flatten_mapping: earlier list entries win
                top.merges += reversed(merged)
            else:
                top.data[top.key] = value
                top.key = _NO_KEY
        loader.get_event()                                  # document end
        if not loader.check_event(yaml.StreamEndEvent):
            raise ComposerError("expected a single document in the stream", doc_mark,
                                "but found another document", loader.get_event().start_mark)
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
