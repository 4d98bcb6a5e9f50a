"""Configuration parsing, artifact persistence and command exit codes."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from regimelq import cli, config, control, model
from regimelq.cli import main, read_solution_csv, run_command, write_solution_csv
from regimelq.config import parse_config
from regimelq.control import Perturbation, feedback_gain, mc_cost, predicted_gap
from regimelq.errors import (
    DimensionMismatch, OutOfRange, ParseError, RangeError, StructuralError, UnknownKey,
)
from regimelq.esre import SolverOptions, solve_esre
from regimelq.model import CoefficientField, _check_positive
from regimelq.regime_chain import check_seed, validate_generator
from conftest import make_e1, random_spec

CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


def _run_python(*args):
    """A fresh interpreter in the repository root with ``src`` importable."""
    root = CONFIGS.parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)


E1_YAML = """\
problem:
  n: 1
  m: 1
  ell: 2
  T: 1.0
  delta: 0.5
  generator: [[-1.0, 1.0], [1.0, -1.0]]
  x0: [1.0]
  i0: 1
  A: [[0.0]]
  B: [[1.0]]
  C: [[0.0]]
  D: [[0.0]]
  Q: [[0.0]]
  S: [[0.0]]
  R: [[1.0]]
  G: [[1.0]]
"""

SMALL_RUN = E1_YAML + """\
solver: {backend: ode, grid_steps: 200}
simulate:
  n_paths: 400
  dt: 0.01
  seed: 5
  perturbations: [{constant: [0.5]}]
output: {solution_path: s.csv, report_path: r.txt, estimates_path: c.csv}
"""

# coarse-step noisy run: Euler bias makes the value check fail decisively
BIASED_RUN = """\
problem:
  n: 1
  m: 1
  ell: 2
  T: 1.0
  delta: 0.5
  generator: [[-1.0, 1.0], [1.0, -1.0]]
  x0: [1.0]
  i0: 1
  A: [[0.0]]
  B: [[1.0]]
  C: [[0.9]]
  D: [[0.0]]
  Q: [[1.0]]
  S: [[0.0]]
  R: [[1.0]]
  G: [[1.0]]
solver: {backend: ode, grid_steps: 200}
simulate: {n_paths: 4000, dt: 0.25, seed: 12345}
output: {solution_path: s.csv, report_path: r.txt}
"""


# zero dynamics and no perturbation: every residual sits at roundoff
STATIC_RUN = """\
problem:
  n: 1
  m: 1
  ell: 2
  T: 1.0
  delta: 0.5
  generator: [[0.0, 0.0], [0.0, 0.0]]
  x0: [1.0]
  i0: 1
  A: [[0.0]]
  B: [[0.0]]
  C: [[0.0]]
  D: [[0.0]]
  Q: [[0.0]]
  S: [[0.0]]
  R: [[1.0]]
  G: [[0.8]]
solver: {backend: ode, grid_steps: 100}
simulate: {n_paths: 200, dt: 0.01, seed: 1}
output: {solution_path: s.csv, report_path: r.txt}
"""


LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


def typed(x):
    """Loaded YAML in a form whose equality also tells 1 from 1.0, True
    from 1, -0.0 from 0.0 and the key order of mappings, and takes NaN
    as equal to itself."""
    if isinstance(x, dict):
        return [(typed(k), typed(v)) for k, v in x.items()]
    if isinstance(x, list):
        return [typed(v) for v in x]
    return type(x), repr(x) if isinstance(x, float) else x


def tree_table_yaml(depth: int) -> str:
    """The e1 run file with a state weight given node by node on a
    depth-``depth`` lattice: the large ``tree_table`` form of run file."""
    rows = [f'      "{k},{j}": [[{float(1.0 + 0.5 * np.tanh((2 * j - k) / np.sqrt(depth)))!r}]]'
            for k in range(depth + 1) for j in range(k + 1)]
    return (E1_YAML.replace("  Q: [[0.0]]\n", "  Q:\n    tree_table:\n" + "\n".join(rows) + "\n")
            + f"solver: {{backend: tree, tree_depth: {depth}}}\n")


def e1_patched(patch: str) -> str:
    """E1_YAML with ``patch`` in place of the line of the same problem key
    when it is one ("  key: value"), else appended."""
    if patch.startswith("  "):
        key = patch.split(":")[0]
        return re.sub(rf"^{key}:.*$", lambda _: patch, E1_YAML, count=1, flags=re.M)
    return E1_YAML + patch + "\n"


NAN, INF = float("nan"), float("inf")
# the key a parse error starts with, and the library call that raises the
# same owner's error, for each row of test_owner_error_names_the_key
OWNED = {
    "solver: {backend: magic}": ("solver.", lambda: SolverOptions(backend="magic")),
    "simulate: {n_paths: 1}": ("simulate.", lambda: control._check_path_count(1)),
    "simulate: {seed: -1}": ("simulate.", lambda: check_seed(-1)),
    "simulate: {dt: -0.5}": ("simulate.", lambda: _check_positive("dt", -0.5)),
    "  generator: [[-1.0, x], [1.0, -1.0]]":
        ("problem.generator: ", lambda: validate_generator([[-1.0, "x"], [1.0, -1.0]])),
    "  Q: [[.nan]]": ("problem.Q: ", lambda: CoefficientField.constant([[NAN]], 2)),
    "  Q: {time_table: {0.0: [[1.0]], 0.5: [[.inf]]}}":
        ("problem.Q: ", lambda: CoefficientField.from_table([0.0, 0.5], [[[1.0]], [[INF]]], 2)),
    "  Q: {time_table: {0.0: [[1.0]], 0.5: [[[1.0]], [[2.0]]]}}":
        ("problem.Q: ", lambda: CoefficientField.from_table(
            [0.0, 0.5], [[[1.0]], [[[1.0]], [[2.0]]]], 2)),
    '  Q: {tree_table: {"0,0": [[1.0]], "1,0": [[1.0]], "1,1": [[.nan]]}}':
        ("problem.Q: ", lambda: CoefficientField.from_tree([[[[1.0]]], [[[1.0]], [[NAN]]]], 2)),
    "  x0: [.nan]": ("problem.", lambda: make_e1(x0=[NAN])),
    "simulate: {perturbations: [{constant: [[0.5]]}]}":
        ("simulate.perturbations[0].constant: ", lambda: Perturbation.coerce([[0.5]], 1)),
    "simulate: {perturbations: [{table: {times: [0.0, 0.5], values: [0.1, 0.2]}}]}":
        ("simulate.perturbations[0].",
         lambda: Perturbation(values=[0.1, 0.2], times=[0.0, 0.5])),
    "simulate: {perturbations: [{table: {times: [0.0, 0.5], "
    "values: [[0.1, 0.2], [0.3, 0.4]]}}]}":
        ("simulate.perturbations[0].table: ", lambda: Perturbation.coerce(
            Perturbation(values=[[0.1, 0.2], [0.3, 0.4]], times=[0.0, 0.5]), 1)),
}


def write_cfg(tmp_path, text, name="run.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


# the keys of solution.csv.meta.json, in the order written
META_KEYS = ["backend", "converged", "iterations", "grid", "tolerances",
             "residual_history", "diagnostics"]
GRID_KEYS = ["samples", "t0", "t_end"]
TOLERANCE_KEYS = ["grid_steps", "tree_depth", "picard_tol", "picard_max_iter"]
DIAGNOSTIC_KEYS = ["rho", "k_estimate", "log_apriori_bound", "log_measured_sup",
                   "lambda_l2", "smallness"]


class TestParseConfig:
    def test_minimal_gets_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, E1_YAML))
        assert cfg.solver.grid_steps == 2000
        assert cfg.solver.picard_tol == 1e-9
        assert cfg.solver.backend == "ode"
        assert cfg.simulate.n_paths == 10000
        assert cfg.output.solution_path == "solution.csv"
        assert cfg.problem.ell == 2

    def test_single_regime_rejected(self, tmp_path):
        text = E1_YAML.replace("ell: 2", "ell: 1").replace(
            "generator: [[-1.0, 1.0], [1.0, -1.0]]", "generator: [[0.0]]")
        with pytest.raises(RangeError):
            parse_config(write_cfg(tmp_path, text))

    def test_misspelled_key_rejected(self, tmp_path):
        text = E1_YAML.replace("generator:", "genrator:")
        with pytest.raises(UnknownKey):
            parse_config(write_cfg(tmp_path, text))

    def test_unknown_top_level_section(self, tmp_path):
        with pytest.raises(UnknownKey):
            parse_config(write_cfg(tmp_path, E1_YAML + "extras: {}\n"))

    def test_missing_required_key(self, tmp_path):
        text = E1_YAML.replace("  R: [[1.0]]\n", "")
        with pytest.raises(ParseError):
            parse_config(write_cfg(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_config(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path):
        with pytest.raises(ParseError):
            parse_config(write_cfg(tmp_path, "problem: [unclosed"))

    @pytest.mark.parametrize("text", [
        "a: [1, 2\n",
        "a: b: c\n",
        "problem:\n\tn: 1\n",
    ], ids=["unclosed-flow", "nested-mapping", "tab-indent"])
    def test_malformed_yaml_raises_parse_error(self, tmp_path, text):
        with pytest.raises(ParseError, match="invalid YAML"):
            parse_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.yaml")))
    def test_bundled_configs_parse_equal_under_both_loaders(self, name, monkeypatch):
        text = (CONFIGS / name).read_text()
        pure = yaml.load(text, Loader=yaml.SafeLoader)
        assert typed(yaml.load(text, Loader=config.YAML_LOADER)) == typed(pure)
        if yaml.__with_libyaml__:
            assert config.YAML_LOADER is yaml.CSafeLoader
        for loader in LOADERS:
            monkeypatch.setattr(config, "YAML_LOADER", loader)
            assert typed(config._load_yaml(text)) == typed(pure), loader.__name__

    @pytest.mark.parametrize("patch, err", [
        ("simulate: {n_paths: 1}", RangeError),
        ("simulate: {dt: -0.5}", RangeError),
        ("solver: {backend: magic}", RangeError),
        ("solver: {grid_steps: 0}", RangeError),
        ("simulate: {perturbations: [{constant: [abc]}]}", RangeError),
        ("simulate: {perturbations: [{table: {times: [0.0, 0.5], values: [[0.1]]}}]}",
         RangeError),
        ("simulate: {dt: .nan}", RangeError),
        ("simulate: {seed: -1}", RangeError),
        ("simulate: {seed: 18446744073709551616}", RangeError),
        ("solver: {picard_tol: .nan}", RangeError),
        ("simulate: {perturbations: [{constant: [.inf]}]}", RangeError),
        ("simulate: {perturbations: [{table: {times: [], values: []}}]}", RangeError),
    ])
    def test_out_of_range_values(self, tmp_path, patch, err):
        with pytest.raises(err):
            parse_config(write_cfg(tmp_path, E1_YAML + patch + "\n"))

    @pytest.mark.parametrize("patch, owner, words", [
        ("solver: {backend: magic}", StructuralError,
         "solver.backend must be 'ode' or 'tree', got 'magic'"),
        ("simulate: {n_paths: 1}", StructuralError, "simulate.n_paths must be an integer >= 2"),
        ("simulate: {seed: -1}", OutOfRange, r"simulate.seed -1 is not an integer in \[0"),
        ("simulate: {dt: -0.5}", StructuralError, "simulate.dt must be positive and finite"),
        ("  generator: [[-1.0, x], [1.0, -1.0]]", StructuralError,
         "problem.generator: q must be an array of numbers: could not convert"),
        ("  Q: [[.nan]]", StructuralError,
         r"problem.Q: constant field has a non-finite entry nan at regime 1$"),
        ("  Q: {time_table: {0.0: [[1.0]], 0.5: [[.inf]]}}", StructuralError,
         r"problem.Q: time_table field has a non-finite entry inf at time 0.5, regime 1$"),
        ("  Q: {time_table: {0.0: [[1.0]], 0.5: [[[1.0]], [[2.0]]]}}", StructuralError,
         "problem.Q: time table values must be an array of numbers: .*inhomogeneous"),
        ('  Q: {tree_table: {"0,0": [[1.0]], "1,0": [[1.0]], "1,1": [[.nan]]}}',
         StructuralError,
         r"problem.Q: tree_table field has a non-finite entry nan at node \(1, 1\), regime 1$"),
        ("  x0: [.nan]", OutOfRange, r"problem.x0 must be finite, got \[nan\]"),
        ("simulate: {perturbations: [{constant: [[0.5]]}]}", DimensionMismatch,
         r"simulate.perturbations\[0\].constant: constant perturbation needs values \(m,\)"),
        ("simulate: {perturbations: [{table: {times: [0.0, 0.5], values: [0.1, 0.2]}}]}",
         DimensionMismatch,
         r"simulate.perturbations\[0\].table needs times \(K,\) and perturbation values"),
        ("simulate: {perturbations: [{table: {times: [0.0, 0.5], "
         "values: [[0.1, 0.2], [0.3, 0.4]]}}]}", DimensionMismatch,
         r"simulate.perturbations\[0\].table: perturbation has 2 components, the control has 1"),
    ])
    def test_owner_error_names_the_key(self, tmp_path, patch, owner, words):
        with pytest.raises(RangeError, match=words) as info:
            parse_config(write_cfg(tmp_path, e1_patched(patch)))
        assert isinstance(info.value.__cause__, owner)
        # the owner raises the same error for the same value from a library call
        key, library_call = OWNED[patch]
        with pytest.raises(owner) as library:
            library_call()
        assert type(info.value.__cause__) is type(library.value)
        assert str(info.value) == key + str(library.value)

    def test_non_finite_tree_node_is_named(self, tmp_path):
        text, count = re.subn(r'"3,1": \[\[[^]]*\]\]', '"3,1": [[.nan]]', tree_table_yaml(3))
        assert count == 1
        with pytest.raises(RangeError, match=r"^problem\.Q: tree_table field has a non-finite "
                                             r"entry nan at node \(3, 1\), regime 1$"):
            parse_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.yaml")) + ["tree30"])
    def test_fields_are_the_library_constructors(self, tmp_path, name):
        # each coefficient as CoefficientField builds it from the run file's
        # data put in per-regime form: the same dtype, shape and bits
        text = tree_table_yaml(30) if name == "tree30" else (CONFIGS / name).read_text()
        spec = parse_config(write_cfg(tmp_path, text)).problem
        prob = yaml.safe_load(text)["problem"]

        def per_regime(node):
            arr = np.array(node, dtype=float)
            return np.stack([arr] * spec.ell) if arr.ndim == 2 else arr

        for key in ("A", "B", "C", "D", "Q", "S", "R", "G"):
            node = prob[key]
            if not isinstance(node, dict):
                ref = CoefficientField.constant(per_regime(node))
            elif "time_table" in node:
                times = sorted(node["time_table"])
                ref = CoefficientField.from_table(
                    times, np.stack([per_regime(node["time_table"][t]) for t in times]))
            else:
                table = node["tree_table"]
                ref = CoefficientField.from_tree(
                    [np.stack([per_regime(table[f"{k},{j}"]) for j in range(k + 1)])
                     for k in range(spec.coefficient(key).depth + 1)])
            got = spec.coefficient(key)
            assert (got.kind, got.shape, got.ell, got.depth) == \
                (ref.kind, ref.shape, ref.ell, ref.depth), key
            pairs = zip(got.levels, ref.levels) if got.is_random else [(got.values, ref.values)]
            for a, b in pairs:
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), key

    @pytest.mark.parametrize("old, new, words", [
        ("n: 1", "n: 0", "problem: n must be an integer >= 1, got 0"),
        ("m: 1", "m: 1.5", "problem: m must be an integer >= 1, got 1.5"),
        ("T: 1.0", "T: -1.0", "problem: horizon T must be positive and finite"),
        ("delta: 0.5", "delta: .inf", "problem: delta must be positive and finite"),
        ("i0: 1", "i0: 7", "problem.i0: regime 7 is not an integer in 1..2"),
        ("x0: [1.0]", "x0: [1.0, 2.0]", "problem.x0 has 2 entries"),
        ("generator: [[-1.0, 1.0], [1.0, -1.0]]", "generator: [[-1.0, 1.0], [2.0, -1.0]]",
         "problem.generator: row 2 sums to"),
    ])
    def test_problem_rule_names_the_key(self, tmp_path, old, new, words):
        with pytest.raises(RangeError, match=re.escape(words)):
            parse_config(write_cfg(tmp_path, E1_YAML.replace(old, new, 1)))

    @pytest.mark.parametrize("old, new", [
        ("x0: [1.0]", "x0: [abc]"),
        ("generator: [[-1.0, 1.0], [1.0, -1.0]]", "generator: [[-1.0, 1.0], [1.0]]"),
    ])
    def test_malformed_problem_numbers(self, tmp_path, old, new):
        with pytest.raises(RangeError):
            parse_config(write_cfg(tmp_path, E1_YAML.replace(old, new)))

    def test_time_table_coefficient(self, tmp_path):
        text = E1_YAML.replace(
            "  Q: [[0.0]]",
            "  Q: {time_table: {0.0: [[1.0]], 0.5: [[2.0]]}}")
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.problem.Q.eval(0.49, 1)[0, 0] == 1.0
        assert cfg.problem.Q.eval(0.5, 1)[0, 0] == 2.0

    def test_tree_table_coefficient(self, tmp_path):
        text = E1_YAML.replace(
            "  Q: [[0.0]]",
            '  Q: {tree_table: {"0,0": [[1.0]], "1,0": [[0.5]], "1,1": [[1.5]]}}')
        text = text + "solver: {backend: tree, tree_depth: 1}\n"
        cfg = parse_config(write_cfg(tmp_path, text))
        ref = CoefficientField.from_tree(
            [np.full((1, 2, 1, 1), 1.0),
             np.array([[[[0.5]], [[0.5]]], [[[1.5]], [[1.5]]]])])
        for node in ((0, 0), (1, 0), (1, 1)):
            got = cfg.problem.Q.eval(node[0], 1, node=node)
            assert np.array_equal(got, ref.eval(node[0], 1, node=node))

    def test_incomplete_tree_table(self, tmp_path):
        text = E1_YAML.replace(
            "  Q: [[0.0]]",
            '  Q: {tree_table: {"0,0": [[1.0]], "1,1": [[1.5]]}}')
        with pytest.raises(ParseError):
            parse_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("stray", ["1,2", "-1,0"])
    def test_tree_node_off_the_lattice_refused(self, tmp_path, stray):
        # such a node used to be dropped without a word
        text = E1_YAML.replace(
            "  Q: [[0.0]]",
            f'  Q: {{tree_table: {{"0,0": [[1.0]], "1,0": [[0.5]], "1,1": [[1.5]], '
            f'"{stray}": [[9.0]]}}}}')
        with pytest.raises(ParseError, match=rf"^problem\.Q\.tree_table node {stray} is off "
                                             rf"the lattice$"):
            parse_config(write_cfg(tmp_path, text))

    def test_perturbation_forms(self, tmp_path):
        text = E1_YAML + (
            "simulate:\n"
            "  perturbations:\n"
            "    - constant: [0.25]\n"
            "    - table: {times: [0.0, 0.5], values: [[0.1], [0.2]]}\n"
        )
        cfg = parse_config(write_cfg(tmp_path, text))
        assert len(cfg.simulate.perturbations) == 2

    def test_perturbation_table_starting_after_zero(self, tmp_path):
        text = E1_YAML + ("simulate: {perturbations: [{table: "
                          "{times: [0.5, 0.8], values: [[1.0], [2.0]]}}]}\n")
        with pytest.raises(RangeError, match=r"perturbations\[0\]\.table starts at "
                                             r"t = 0\.5, after 0"):
            parse_config(write_cfg(tmp_path, text))

    def test_perturbation_wrong_width(self, tmp_path):
        text = E1_YAML + "simulate: {perturbations: [{constant: [0.1, 0.2]}]}\n"
        with pytest.raises(RangeError):
            parse_config(write_cfg(tmp_path, text))


@pytest.fixture(params=LOADERS, ids=lambda loader: loader.__name__)
def yaml_loader(request, monkeypatch):
    """Run ``config._load_yaml`` on each available parser: the runtime-only
    install may lack libyaml."""
    monkeypatch.setattr(config, "YAML_LOADER", request.param)
    return request.param


class TestYamlLoader:
    """``config._load_yaml`` gives ``yaml.load(..., SafeLoader)``'s data
    and errors without building a node graph."""

    @pytest.mark.parametrize("text", [
        "",
        "---\n",
        "a: &x [1, 2]\nb: *x\nc: &y {k: v}\nd: *y\n",
        "base: &b {x: 1, y: 2}\nd: {<<: *b, y: 3}\n",
        "a: &a {x: 1}\nb: &b {x: 2, z: 5}\nc: {w: 0, <<: [*a, *b], x: 9}\nd: {<<: [*a, *b]}\n",
        "m: {<<: {a: 1}, <<: {a: 2, b: 3}}\n",
        "x: &m {<<: {a: 1}, b: 2}\ny: {<<: *m, c: 3}\n",
        "a: !!str 1\nb: !!float 1\nc: !!int '7'\nd: !!bool yes\ne: !!null ''\nf: !!binary aGk=\n",
        "[yes, no, on, off, y, n, True, FALSE, ~, null, Null, '', 'yes', \"1\"]",
        "[0x1F, -0x1f, 017, 0o17, 0b101, 1_000, 190:20:30, -1:30, 1:30.5]",
        "[.inf, -.inf, .NaN, 1e3, 1.0e3, 1.0e+3, 6.8523015e+5, 685.230_15e+03, -0.0]",
        "[2001-12-14, 2001-12-14t21:59:43.10-05:00, 2001-12-14 21:59:43.10]",
        "=: 1\nb: 2\n",
        "a: 1\nb: 3\na: 2\n",
        "{1: a, 2.5: b, null: c, true: d, 2001-12-14: e}",
        "? a\n? b\n",
        "just a string",
    ], ids=["empty", "empty-document", "aliases", "merge-one", "merge-list-override",
            "merge-twice", "merge-nested", "scalar-tags", "bools-nulls", "ints",
            "floats", "timestamps", "equals-key", "duplicate-key", "scalar-keys",
            "keys-without-values", "root-scalar"])
    def test_snippet_loads_as_safe_loader(self, yaml_loader, text):
        assert typed(config._load_yaml(text)) == typed(yaml.load(text, Loader=yaml.SafeLoader))

    def test_generated_tree_table_loads_as_safe_loader(self, yaml_loader):
        text = tree_table_yaml(30)
        assert typed(config._load_yaml(text)) == typed(yaml.load(text, Loader=yaml.SafeLoader))

    def test_aliases_share_and_may_recurse(self, yaml_loader):
        shared = config._load_yaml("a: &x [1]\nb: *x\n")
        assert shared["a"] is shared["b"] == [1]
        rec = config._load_yaml("&a [1, *a]")
        assert len(rec) == 2 and rec[0] == 1 and rec[1] is rec
        rec = config._load_yaml("&a {x: 1, self: *a}")
        assert rec["self"] is rec and rec["x"] == 1

    @pytest.mark.parametrize("text, message", [
        ("a: 1\n---\nb: 2\n", "expected a single document"),
        ("a: *nope\n", "found undefined alias 'nope'"),
        ("a: &x 1\nb: &x 2\n", "found duplicate anchor 'x'"),
        ("? [1]\n: 2\n", "found unhashable key"),
        ("? {a: 1}\n: 2\n", "found unhashable key"),
        ("{<<: 1}", "expected a mapping or list of mappings for merging"),
        ("{<<: [{a: 1}, 2]}", "expected a mapping for merging"),
        ("- <<\n", "could not determine a constructor"),
        ("- =\n", "could not determine a constructor"),
        ("a: !foo bar\n", "could not determine a constructor"),
        ("!!map x", "expected a mapping node"),
        ("[1, 2", "expected ',' or ']'"),
    ], ids=["second-document", "undefined-alias", "duplicate-anchor", "list-key",
            "mapping-key", "scalar-merge", "list-merge-of-scalar", "merge-as-item",
            "equals-as-item", "unknown-tag", "map-tag-on-scalar", "unclosed"])
    def test_refusal_is_safe_loaders(self, yaml_loader, text, message):
        with pytest.raises(yaml.YAMLError, match=message) as safe:
            yaml.load(text, Loader=yaml.SafeLoader)
        with pytest.raises(type(safe.value), match=message):
            config._load_yaml(text)

    @pytest.mark.parametrize("tag", ["set", "omap", "pairs"])
    def test_collection_tags_beyond_map_and_seq_are_refused(self, yaml_loader, tmp_path, tag):
        value = "{x}" if tag == "set" else "[{x: 1}]"
        text = E1_YAML.replace("  Q: [[0.0]]\n", f"  Q: !!{tag} {value}\n")
        with pytest.raises(ParseError, match=rf"^problem\.Q \(line 14\): the collection "
                                             rf"tag !!{tag} is not supported$"):
            parse_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("tagged", [
        "!!int abc", "!!float abc", "!!timestamp 2001-99-99", "!!bool maybe"])
    def test_unreadable_tagged_scalar_names_its_key(self, yaml_loader, tmp_path, tagged):
        text = E1_YAML.replace("  T: 1.0\n", f"  T: {tagged}\n")
        value = tagged.split()[1]
        with pytest.raises(ParseError, match=rf"^problem\.T \(line 5\): cannot read "
                                             rf"'{value}' as {tagged.split()[0]}$"):
            parse_config(write_cfg(tmp_path, text))

    def test_key_path_counts_list_items(self, yaml_loader):
        text = "simulate:\n  perturbations:\n    - constant: [0.5, !!int x]\n"
        with pytest.raises(ParseError, match=r"^simulate\.perturbations\[0\]\.constant\[1\] "
                                             r"\(line 3\)"):
            config._load_yaml(text)

    def test_yaml_errors_reach_the_caller_as_invalid_yaml(self, yaml_loader, tmp_path):
        text = E1_YAML + "extra: *nope\n"
        with pytest.raises(ParseError, match="invalid YAML .*undefined alias"):
            parse_config(write_cfg(tmp_path, text))

    def test_peak_memory_stays_near_the_result(self, yaml_loader):
        # yaml.load's node graph peaks near 9x the data on such a file
        text = tree_table_yaml(60)
        tracemalloc.start()
        try:
            data = config._load_yaml(text)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data["problem"]["Q"]["tree_table"]["60,60"]
        assert peak < 3 * size, (peak, size)


class TestSolutionFiles:
    def test_line_count(self, tmp_path, e1):
        sol = solve_esre(e1, SolverOptions(grid_steps=4))
        out = tmp_path / "sol.csv"
        write_solution_csv(sol, out)
        lines = out.read_text().strip().splitlines()
        # 5 samples x 2 regimes x 1 entry + header
        assert lines[0] == "t,regime,row,col,P,Lambda"
        assert len(lines) == 1 + 10

    def test_round_trip_exact(self, tmp_path, e1):
        sol = solve_esre(e1, SolverOptions(grid_steps=50))
        out = tmp_path / "sol.csv"
        write_solution_csv(sol, out)
        grid, p, lam = read_solution_csv(out)
        assert np.array_equal(grid, sol.grid)
        assert np.array_equal(p, sol.P)
        assert np.array_equal(lam, sol.Lambda)

    @pytest.mark.parametrize("backend", ["ode", "tree"])
    def test_lines_equal_written_out_loop(self, tmp_path, backend):
        if backend == "ode":
            sol = solve_esre(random_spec(303), SolverOptions(grid_steps=40))
        else:
            cfg = parse_config(CONFIGS / "tree_random_q.yaml")
            sol = solve_esre(cfg.problem, cfg.solver)
        f17 = lambda x: format(float(x), ".17g")
        lines = ["t,regime,row,col,P,Lambda"]
        ksamples, ell, n, _ = sol.P.shape
        for k in range(ksamples):
            for i in range(ell):
                for r in range(n):
                    for c in range(n):
                        lines.append(f"{f17(sol.grid[k])},{i + 1},{r + 1},{c + 1},"
                                     f"{f17(sol.P[k, i, r, c])},{f17(sol.Lambda[k, i, r, c])}")
        out = tmp_path / "sol.csv"
        write_solution_csv(sol, out)
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_rewrite_is_byte_identical(self, tmp_path, e1):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_solution_csv(solve_esre(e1, SolverOptions(grid_steps=50)), a)
        write_solution_csv(solve_esre(e1, SolverOptions(grid_steps=50)), b)
        assert a.read_bytes() == b.read_bytes()
        assert (Path(str(a) + ".meta.json").read_bytes()
                == Path(str(b) + ".meta.json").read_bytes())

    def test_metadata_contents(self, tmp_path, e1):
        sol = solve_esre(e1, SolverOptions(grid_steps=50))
        out = tmp_path / "sol.csv"
        write_solution_csv(sol, out)
        meta = json.loads(Path(str(out) + ".meta.json").read_text())
        assert meta["backend"] == "ode"
        assert meta["converged"] is True
        assert meta["tolerances"]["picard_tol"] == 1e-9
        assert len(meta["residual_history"]) == sol.iterations
        assert meta["diagnostics"]["k_estimate"] == 1.0

    @pytest.mark.parametrize("solver", [
        "{backend: ode, grid_steps: 200}", "{backend: tree, tree_depth: 8}"])
    def test_metadata_keys(self, tmp_path, solver):
        text = SMALL_RUN.replace("{backend: ode, grid_steps: 200}", solver)
        cfg = parse_config(write_cfg(tmp_path, text))
        assert run_command("solve", cfg, output_dir=tmp_path, echo=lambda line: None
                           ).exit_code == 0
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        assert list(meta) == META_KEYS
        assert list(meta["grid"]) == GRID_KEYS
        assert list(meta["tolerances"]) == TOLERANCE_KEYS
        assert list(meta["diagnostics"]) == DIAGNOSTIC_KEYS

    def test_unconverged_metadata_keys(self, tmp_path):
        text = SMALL_RUN.replace("{backend: ode, grid_steps: 200}",
                                 "{backend: tree, tree_depth: 8, picard_max_iter: 1}")
        cfg = parse_config(write_cfg(tmp_path, text))
        assert run_command("solve", cfg, output_dir=tmp_path, echo=lambda line: None
                           ).exit_code == 2
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        assert list(meta) == META_KEYS
        assert list(meta["tolerances"]) == TOLERANCE_KEYS
        assert meta["grid"] is None and meta["diagnostics"] is None
        assert meta["iterations"] == len(meta["residual_history"]) == 1

    def test_configured_tolerances_reach_the_metadata(self, tmp_path):
        # no hidden defaults: what the config says is what the artifact says
        text = SMALL_RUN.replace(
            "solver: {backend: ode, grid_steps: 200}",
            "solver: {backend: ode, grid_steps: 200, picard_tol: 1.0e-7, "
            "picard_max_iter: 7}")
        cfg = parse_config(write_cfg(tmp_path, text))
        run_command("solve", cfg, output_dir=tmp_path)
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        assert meta["tolerances"]["picard_tol"] == 1e-7
        assert meta["tolerances"]["picard_max_iter"] == 7
        # the grid solve integrates directly: no sweeps, no residuals
        assert meta["iterations"] == 0 and meta["residual_history"] == []


class TestCommands:
    def test_validate_pass(self, tmp_path, capsys):
        cfg = parse_config(write_cfg(tmp_path, SMALL_RUN))
        res = run_command("validate", cfg, output_dir=tmp_path)
        assert res.exit_code == 0
        assert "diffusion size: 0" in capsys.readouterr().out

    def test_validate_fail(self, tmp_path):
        text = SMALL_RUN.replace("R: [[1.0]]", "R: [[0.1]]")
        cfg = parse_config(write_cfg(tmp_path, text))
        assert run_command("validate", cfg, output_dir=tmp_path).exit_code == 1

    def test_validate_lists_violations_of_a_singular_weight(self, tmp_path, capsys):
        # the smallness scan inverts R with no condition verdict: R = 0 with
        # noise is an infinite size, and the violations are what validate says
        cfg = write_cfg(tmp_path, E1_YAML.replace("  R: [[1.0]]", "  R: [[0.0]]")
                        .replace("  D: [[0.0]]", "  D: [[1.0]]"))
        assert main(["validate", "--config", str(cfg)]) == 1
        out = capsys.readouterr()
        lines = out.out.splitlines()
        assert lines[0] == "assumptions: FAIL"
        assert "  violation R_lower regime=1 at=0.0 min_eig=-0.5" in lines
        assert "  violation Q_schur regime=2 at=1.0 min_eig=-inf" in lines
        assert lines[-1] == "diffusion size: inf (warn, threshold 0.1)"
        assert out.err == ""

    @pytest.mark.parametrize("g_line, code", [
        ("  G: [[-1.0e-10]]", 0),       # within matcore.PSD_TOL = 1e-9
        ("", 1),                        # G = -1e-7 is beyond it
    ])
    def test_validate_and_solve_agree_at_psd_tol(self, tmp_path, g_line, code):
        cfg = write_cfg(tmp_path, E1_YAML.replace("  G: [[1.0]]", g_line or "  G: [[-1.0e-7]]"))
        for command in ("validate", "solve"):
            assert main([command, "--config", str(cfg), "--output", str(tmp_path)]) == code

    def test_solve_writes_artifacts(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, SMALL_RUN))
        lines = []
        res = run_command("solve", cfg, output_dir=tmp_path, echo=lines.append)
        assert res.exit_code == 0
        assert lines[0] == ("solved by error-controlled DOP853 integration, output on "
                            "200 grid steps")
        grid, p, _ = read_solution_csv(tmp_path / "s.csv")
        assert abs(p[0, 0, 0, 0] - 0.5) <= 1e-6

    def test_solve_nonconvergence_persists_history(self, tmp_path):
        # only the tree solve iterates, so only it can stop unconverged
        text = SMALL_RUN.replace("solver: {backend: ode, grid_steps: 200}",
                                 "solver: {backend: tree, tree_depth: 8, picard_max_iter: 1}")
        cfg = parse_config(write_cfg(tmp_path, text))
        res = run_command("solve", cfg, output_dir=tmp_path)
        assert res.exit_code == 2
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        assert meta["converged"] is False
        assert len(meta["residual_history"]) == 1

    def test_simulate_writes_estimates(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, SMALL_RUN))
        res = run_command("simulate", cfg, output_dir=tmp_path)
        assert res.exit_code == 0
        rows = (tmp_path / "c.csv").read_text().strip().splitlines()
        assert rows[0] == "policy,mean,std_error,n_paths,dt,seed"
        assert rows[1].startswith("feedback,")
        assert rows[2].startswith("perturbation[0],")

    def test_verify_passes_on_clean_run(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, SMALL_RUN))
        res = run_command("verify", cfg, output_dir=tmp_path)
        assert res.exit_code == 0
        assert "result: PASS" in (tmp_path / "r.txt.verify.txt").read_text()

    def test_verify_tree_oracle_reads_the_run_files_solver(self, tmp_path, monkeypatch):
        # the coupled tree oracle runs at depths 4 and 8 with the run
        # file's Picard settings
        seen = []
        real = cli.solve_p0

        def spy(spec, options):
            seen.append(options)
            return real(spec, options)

        monkeypatch.setattr(cli, "solve_p0", spy)
        text = SMALL_RUN.replace(
            "solver: {backend: ode, grid_steps: 200}",
            "solver: {backend: ode, grid_steps: 200, picard_tol: 1.0e-10, "
            "picard_max_iter: 80}")
        cfg = parse_config(write_cfg(tmp_path, text))
        assert run_command("verify", cfg, output_dir=tmp_path).exit_code == 0
        assert [(o.backend, o.tree_depth) for o in seen] == [("tree", 4), ("tree", 8)]
        for o in seen:
            assert (o.picard_tol, o.picard_max_iter) == (1e-10, 80)

    def test_verify_gap_starts_from_simulate_regime(self, tmp_path):
        # R differs by regime, so the predicted gap depends on the initial
        # regime; verify's value match starts from problem.i0, the regime
        # simulate starts from, and so must its optimality gaps
        text = SMALL_RUN.replace("  R: [[1.0]]", "  R: [[[1.0]], [[3.0]]]").replace(
            "  i0: 1\n", "  i0: 2\n")
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.problem.i0 == 2
        res = run_command("verify", cfg, output_dir=tmp_path)
        assert res.exit_code == 0
        solution = solve_esre(cfg.problem, cfg.solver)
        pert = cfg.simulate.perturbations[0]
        want = predicted_gap(cfg.problem, solution, pert, 2)
        assert want != predicted_gap(cfg.problem, solution, pert, 1)
        line = next(ln for ln in (tmp_path / "r.txt.verify.txt").read_text().splitlines()
                    if ln.startswith("[PASS] perturbation[0] gap"))
        assert line.split(" vs predicted ")[1].split()[0] == format(want, ".10g")

    def test_verify_order_floor_is_not_picard_tol(self, tmp_path):
        # the e1 demo's product-identity residuals sit at roundoff (2e-14 to
        # 8e-14), below cli.ORDER_FLOOR, so the order check passes whatever
        # picard_tol says; the grid solve does not read picard_tol
        text = (CONFIGS / "e1_scalar.yaml").read_text().replace(
            "  grid_steps: 2000\n", "  grid_steps: 2000\n  picard_tol: 1.0e-15\n")
        cfg = parse_config(write_cfg(tmp_path, text))
        lines = []
        assert run_command("verify", cfg, output_dir=tmp_path, echo=lines.append).exit_code == 0
        assert "[PASS] product-identity residual order inf >= 0.9" in lines

    def test_verify_detects_biased_simulation(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, BIASED_RUN))
        res = run_command("verify", cfg, output_dir=tmp_path)
        assert res.exit_code == 3
        assert "FAIL" in (tmp_path / "r.txt.verify.txt").read_text()

    def test_verify_and_report_keep_their_own_files(self, tmp_path):
        # verify writes beside the solution report, so running both into
        # one directory leaves the PASS lines and the solution summary
        cfg = parse_config(write_cfg(tmp_path, SMALL_RUN))
        for command in ("solve", "verify", "report"):
            assert run_command(command, cfg, output_dir=tmp_path).exit_code == 0
        assert "result: PASS" in (tmp_path / "r.txt.verify.txt").read_text()
        report = (tmp_path / "r.txt").read_text()
        assert report.startswith("solution report\n") and "PASS" not in report

    def test_report_renders_solution(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, SMALL_RUN))
        run_command("solve", cfg, output_dir=tmp_path)
        res = run_command("report", cfg, output_dir=tmp_path)
        assert res.exit_code == 0
        series = (tmp_path / "r.txt.series.csv").read_text().splitlines()
        assert series[0] == "t,regime,frob_P,min_eig_P,frob_Lambda"
        assert len(series) == 1 + 201 * 2

    @pytest.mark.filterwarnings("ignore:measured diffusion size")
    @pytest.mark.parametrize("d, threshold, flag", [
        ("0.0", "0.1", "ok"),
        # smallness e^1 = 2.718 against the threshold 0.1
        ("1.0", "0.1", "warn"),
        # the flag compares with model.SMALLNESS_THRESHOLD when report runs
        ("1.0", "5", "ok"),
    ])
    def test_report_smallness_flag_reads_the_tolerances(self, tmp_path, monkeypatch,
                                                         d, threshold, flag):
        cfg = parse_config(write_cfg(tmp_path, SMALL_RUN.replace("D: [[0.0]]", f"D: [[{d}]]")))
        run_command("solve", cfg, output_dir=tmp_path, echo=lambda line: None)
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        monkeypatch.setattr(model, "SMALLNESS_THRESHOLD", float(threshold))
        run_command("report", cfg, output_dir=tmp_path, echo=lambda line: None)
        lines = (tmp_path / "r.txt").read_text().splitlines()
        assert [line for line in lines if line.startswith("diffusion size: ")] == [
            f"diffusion size: {meta['diagnostics']['smallness']:.10g} "
            f"(threshold {threshold}, {flag})"]

    def test_report_bytes_do_not_depend_on_output_dir(self, tmp_path):
        cfg = parse_config(CONFIGS / "tree_random_q.yaml")
        quiet = lambda line: None
        first, second = tmp_path / "a", tmp_path / "another"
        run_command("solve", cfg, output_dir=first, echo=quiet)
        second.mkdir()
        for name in ("tree_solution.csv", "tree_solution.csv.meta.json"):
            (second / name).write_bytes((first / name).read_bytes())
        for out in (first, second):
            assert run_command("report", cfg, output_dir=out, echo=quiet).exit_code == 0
        for name in ("tree_report.txt", "tree_report.txt.series.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_tree_backend_solve(self, tmp_path):
        text = E1_YAML + (
            "solver: {backend: tree, tree_depth: 8}\n"
            "output: {solution_path: t.csv, report_path: t.txt}\n"
        )
        cfg = parse_config(write_cfg(tmp_path, text))
        assert run_command("solve", cfg, output_dir=tmp_path).exit_code == 0

    def test_verify_handles_static_problem(self, tmp_path):
        # zero dynamics: every residual sits at roundoff and all checks
        # must still come out as passes
        cfg = parse_config(write_cfg(tmp_path, STATIC_RUN))
        res = run_command("verify", cfg, output_dir=tmp_path)
        assert res.exit_code == 0

    @pytest.mark.parametrize("run, policies", [(SMALL_RUN, 2), (STATIC_RUN, 1)],
                             ids=["one-perturbation", "static"])
    def test_verify_samples_once_per_perturbation(self, tmp_path, monkeypatch, run, policies):
        # the value match reads the first gap batch's feedback estimate; a
        # separate mc_cost batch is run only when there is no perturbation
        # (the inverse-state drift check draws its path outside the batches)
        calls = []
        batch_costs = control._batch_costs

        def spy(spec, pols, *args):
            calls.append(len(pols))
            return batch_costs(spec, pols, *args)

        monkeypatch.setattr(control, "_batch_costs", spy)
        cfg = parse_config(write_cfg(tmp_path, run))
        assert run_command("verify", cfg, output_dir=tmp_path).exit_code == 0
        assert calls == [policies]
        monkeypatch.undo()
        sim = cfg.simulate
        gains = feedback_gain(solve_esre(cfg.problem, cfg.solver), cfg.problem)
        est = mc_cost(cfg.problem, gains, cfg.problem.x0, cfg.problem.i0,
                      sim.n_paths, sim.dt, sim.seed)
        line = next(ln for ln in (tmp_path / "r.txt.verify.txt").read_text().splitlines()
                    if ln.startswith("[PASS] feedback cost "))
        assert line.split()[3] == format(est.mean, ".10g")

    def test_bundled_configs_solve(self, tmp_path):
        base = Path(__file__).resolve().parents[1] / "demos" / "configs"
        for name in ("e1_scalar.yaml", "asym_two_regime.yaml",
                     "matrix_two_regime.yaml", "tree_random_q.yaml"):
            cfg = parse_config(base / name)
            assert run_command("validate", cfg, output_dir=tmp_path).exit_code == 0
            assert run_command("solve", cfg, output_dir=tmp_path).exit_code == 0

    def test_verify_refuses_tree_backend(self, tmp_path):
        text = E1_YAML + "solver: {backend: tree, tree_depth: 4}\n"
        cfg = parse_config(write_cfg(tmp_path, text))
        assert main(["verify", "--config", str(write_cfg(tmp_path, text, "t.yaml")),
                     "--output", str(tmp_path)]) == 1


def _edit_line(text, k, edit):
    lines = text.splitlines()
    lines[k] = edit(lines[k])
    return "\n".join(lines) + "\n"


class TestMain:
    def test_exit_codes_through_main(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        assert main(["validate", "--config", str(cfg),
                     "--output", str(tmp_path)]) == 0
        assert main(["solve", "--config", str(cfg),
                     "--output", str(tmp_path)]) == 0

    def test_solve_with_overflowing_apriori_bound(self, tmp_path):
        text = SMALL_RUN.replace("generator: [[-1.0, 1.0], [1.0, -1.0]]",
                                 "generator: [[-1.0, 1.0], [400.0, -400.0]]")
        text = text.replace("grid_steps: 200", "grid_steps: 400")
        cfg = write_cfg(tmp_path, text)
        assert main(["solve", "--config", str(cfg), "--output", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        assert meta["converged"] is True
        assert meta["diagnostics"]["log_apriori_bound"] == float("inf")

    def test_coarse_grid_for_fast_switching_maps_to_one(self, tmp_path, capsys):
        text = SMALL_RUN.replace("generator: [[-1.0, 1.0], [1.0, -1.0]]",
                                 "generator: [[-20.0, 20.0], [20.0, -20.0]]")
        text = text.replace("grid_steps: 200", "grid_steps: 7")
        cfg = write_cfg(tmp_path, text)
        assert main(["solve", "--config", str(cfg), "--output", str(tmp_path)]) == 1
        assert "use grid_steps >= 10" in capsys.readouterr().err

    def test_parse_failure_maps_to_one(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, E1_YAML.replace("generator:", "genrator:"))
        assert main(["validate", "--config", str(bad)]) == 1
        # a malformed number is an error line too, not a traceback
        bad = write_cfg(tmp_path, E1_YAML.replace("x0: [1.0]", "x0: [abc]"), "x0.yaml")
        assert main(["validate", "--config", str(bad)]) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: problem.x0")
        # so is a non-finite one
        bad = write_cfg(tmp_path, E1_YAML.replace("x0: [1.0]", "x0: [null]"), "x0.yaml")
        assert main(["validate", "--config", str(bad)]) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: problem.x0")

    @pytest.mark.parametrize("old, new, key", [
        ("  i0: 1\n", "  i0: 7\n", "problem.i0"),
        ("  grid_steps: 2000\n", "  grid_steps: 0\n", "solver.grid_steps"),
        ("    - constant: [0.5]\n",
         "    - table: {times: [0.5, 0.8], values: [[1.0], [2.0]]}\n",
         "simulate.perturbations[0].table"),
        ("  Q: [[0.0]]\n", "  Q: [[.nan]]\n", "problem.Q"),
        ("  generator: [[-1.0, 1.0], [1.0, -1.0]]\n",
         "  generator: [[-1.0, x], [1.0, -1.0]]\n", "problem.generator"),
    ])
    def test_owner_refusal_is_one_error_line(self, tmp_path, capsys, old, new, key):
        # bad copies of the e1 demo that CI feeds to validate
        text = (CONFIGS / "e1_scalar.yaml").read_text()
        assert old in text
        bad = write_cfg(tmp_path, text.replace(old, new))
        assert main(["validate", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}") and "Traceback" not in err

    @pytest.mark.parametrize("setting, key", [
        ("  psd_tol: 1.0e-6", "solver.'psd_tol'"),
        ("  cond_threshold: 1.0e+10", "solver.'cond_threshold'"),
        ("  smallness_threshold: 0.5", "solver.'smallness_threshold'"),
        ("  x0: [1.0]", "simulate.'x0'"),
        ("  i0: 2", "simulate.'i0'"),
    ])
    def test_removed_setting_is_one_error_line(self, tmp_path, capsys, setting, key):
        # the tolerances are matcore and model constants, and the start state
        # is problem.x0 and problem.i0 alone; CI feeds the psd_tol and x0 rows
        text = (CONFIGS / "e1_scalar.yaml").read_text()
        after = "  grid_steps: 2000\n" if key.startswith("solver") else "  dt: 0.001\n"
        assert after in text
        bad = write_cfg(tmp_path, text.replace(after, after + setting + "\n"))
        assert main(["validate", "--config", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: unknown key {key}\n"

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_missing_start_state_names_its_key(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, SMALL_RUN.replace("  x0: [1.0]\n", ""))
        assert main([command, "--config", str(cfg), "--output", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: simulation needs x0: set problem.x0\n"

    def test_overflowing_smallness_is_inf_without_a_warning(self, tmp_path, capsys):
        # exp(-q_ii T) = e^1000 overflows: the diffusion size saturates to inf
        text = (CONFIGS / "e1_scalar.yaml").read_text().replace(
            "[[-1.0, 1.0], [1.0, -1.0]]", "[[-1000.0, 1000.0], [1000.0, -1000.0]]").replace(
            "  D: [[0.0]]\n", "  D: [[0.01]]\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["validate", "--config", str(write_cfg(tmp_path, text))]) == 0
        out = capsys.readouterr()
        assert out.out == "assumptions: PASS\ndiffusion size: inf (warn, threshold 0.1)\n"
        assert out.err == ""

    @pytest.mark.parametrize("tagged", [
        "!!int abc", "!!float abc", "!!timestamp 2001-99-99", "!!bool maybe"])
    def test_unreadable_tagged_scalar_is_one_error_line(self, tmp_path, capsys, tagged):
        # the first of these is the fourth bad copy of the e1 demo in CI
        text = (CONFIGS / "e1_scalar.yaml").read_text()
        bad = write_cfg(tmp_path, text.replace("  T: 1.0\n", f"  T: {tagged}\n"))
        assert main(["validate", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: problem.T (line 8): cannot read '{tagged.split()[1]}' " \
                      f"as {tagged.split()[0]}\n"

    @pytest.mark.parametrize("nudge, verdict", [(0, "ok"), (-1, "warn")])
    def test_smallness_verdict_is_the_same_everywhere(self, tmp_path, monkeypatch, nudge,
                                                      verdict):
        # threshold at the smallness e^1 |D R^-1 D'| itself, then one ulp below
        smallness = float(np.e)
        threshold = float(np.nextafter(smallness, 0.0)) if nudge else smallness
        monkeypatch.setattr(model, "SMALLNESS_THRESHOLD", threshold)
        cfg = parse_config(write_cfg(tmp_path, SMALL_RUN.replace("D: [[0.0]]", "D: [[1.0]]")))
        assert cli.check_smallness(cfg.problem) == smallness
        lines = []
        run_command("validate", cfg, output_dir=tmp_path, echo=lines.append)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_command("solve", cfg, output_dir=tmp_path, echo=lambda line: None)
        run_command("report", cfg, output_dir=tmp_path, echo=lambda line: None)
        report = (tmp_path / "r.txt").read_text().splitlines()
        assert f"diffusion size: {smallness:.10g} ({verdict}, threshold {threshold:.10g})" \
            in lines
        assert f"diffusion size: {smallness:.10g} (threshold {threshold:.10g}, {verdict})" \
            in report
        assert [str(w.message).startswith("measured diffusion size") for w in caught] == (
            [True] if verdict == "warn" else [])

    def test_python_dash_m_runs_the_cli(self):
        proc = _run_python("-m", "regimelq", "validate",
                           "--config", "demos/configs/e1_scalar.yaml")
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stdout.startswith("assumptions: PASS")

    def test_import_leaves_scipy_unloaded(self):
        # scipy is a test-only dependency; loading it roughly quintuples
        # the start-up time of every command
        proc = _run_python("-c", "import sys, regimelq, regimelq.cli, regimelq.config, "
                           "regimelq.control, regimelq.esre; print(sorted(m for m in "
                           "sys.modules if m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_missing_artifacts_map_to_four(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        assert main(["report", "--config", str(cfg),
                     "--output", str(tmp_path / "empty")]) == 4

    @pytest.mark.parametrize("target, damage", [
        ("s.csv", lambda text: _edit_line(text, 5, lambda ln: ln.rsplit(",", 3)[0])),
        ("s.csv", lambda text: _edit_line(text, 5, lambda ln: ln.replace(
            ln.split(",")[4] + ",", "abc,"))),
        ("s.csv", lambda text: text.splitlines()[0] + "\n"),
        ("s.csv", lambda text: "\n".join(text.splitlines()[:-1]) + "\n"),
        ("s.csv.meta.json", lambda text: text[:len(text) // 2]),
        ("s.csv.meta.json", lambda text: text.replace('"tolerances"', '"tolerance"')),
        ("s.csv.meta.json", lambda text: "[1, 2]\n"),
        ("s.csv", lambda text: _edit_line(text, 2, lambda ln: text.splitlines()[1])),
    ], ids=["truncated-row", "non-numeric-field", "header-only", "missing-row",
            "malformed-json", "missing-key", "not-a-mapping", "repeated-row"])
    def test_damaged_artifact_report_maps_to_four(self, tmp_path, capsys, target, damage):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        assert main(["solve", "--config", str(cfg), "--output", str(tmp_path)]) == 0
        path = tmp_path / target
        path.write_text(damage(path.read_text()))
        capsys.readouterr()
        assert main(["report", "--config", str(cfg), "--output", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    def test_report_after_failed_solve_maps_to_four(self, tmp_path, capsys):
        # a failed solve removes the earlier run's solution file, so report
        # cannot pair that file with the failed run's metadata
        cfg = write_cfg(tmp_path, SMALL_RUN)
        assert main(["solve", "--config", str(cfg), "--output", str(tmp_path)]) == 0
        failing = write_cfg(tmp_path, SMALL_RUN.replace(
            "{backend: ode, grid_steps: 200}",
            "{backend: tree, tree_depth: 8, picard_max_iter: 2}"), "fail.yaml")
        assert main(["solve", "--config", str(failing), "--output", str(tmp_path)]) == 2
        assert not (tmp_path / "s.csv").exists()
        capsys.readouterr()
        assert main(["report", "--config", str(failing), "--output", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / "s.csv") in err

    def test_io_failure_on_unwritable_path(self, tmp_path):
        text = SMALL_RUN.replace(
            "output: {solution_path: s.csv, report_path: r.txt, estimates_path: c.csv}",
            "output: {solution_path: no/such/dir/s.csv, report_path: r.txt}")
        cfg = write_cfg(tmp_path, text)
        import os
        old = os.getcwd()
        os.chdir(tmp_path)
        try:
            assert main(["solve", "--config", str(cfg)]) == 4
        finally:
            os.chdir(old)

    def test_seed_override_changes_estimates(self, tmp_path):
        noisy = SMALL_RUN.replace("C: [[0.0]]", "C: [[0.5]]")
        cfg = write_cfg(tmp_path, noisy)
        main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "a"),
              "--seed", "1"])
        main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "b"),
              "--seed", "2"])
        a = (tmp_path / "a" / "c.csv").read_text()
        b = (tmp_path / "b" / "c.csv").read_text()
        assert a != b

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_philox_key_range_exits_1(self, tmp_path, seed, capsys):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        assert main(["simulate", "--config", str(cfg), "--output", str(tmp_path),
                     "--seed", seed]) == 1
        assert f"seed {seed} is not an integer in [0, 2^64)" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_largest_seed_is_its_own_stream(self, tmp_path):
        # 2^64 - 1 once went through float64 and keyed the stream of seed 0
        noisy = SMALL_RUN.replace("C: [[0.0]]", "C: [[0.5]]")
        cfg = write_cfg(tmp_path, noisy)
        for d, seed in (("a", "0"), ("b", str(2**64 - 1))):
            assert main(["simulate", "--config", str(cfg), "--output", str(tmp_path / d),
                         "--seed", seed]) == 0
        a = (tmp_path / "a" / "c.csv").read_text()
        b = (tmp_path / "b" / "c.csv").read_text()
        assert a.split("\n")[1].split(",")[1] != b.split("\n")[1].split(",")[1]

    def test_end_to_end_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        for d in ("x", "y"):
            main(["solve", "--config", str(cfg), "--output", str(tmp_path / d)])
            main(["verify", "--config", str(cfg), "--output", str(tmp_path / d)])
        for name in ("s.csv", "s.csv.meta.json", "r.txt.verify.txt"):
            assert ((tmp_path / "x" / name).read_bytes()
                    == (tmp_path / "y" / name).read_bytes())
