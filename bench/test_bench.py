"""Tests of the benchmark itself, at tiny sizes (about a minute in all).

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import harness  # noqa: E402
import inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload, trace, tmp_path, shift=0.0):
    return harness.run(workload, 1, 0.0, trace, "tiny", tmp_path, perf_counter(), shift)


@pytest.fixture(scope="module", params=harness.WORKLOADS)
def runs(request, tmp_path_factory):
    tmp = tmp_path_factory.mktemp(request.param)
    return request.param, tiny_run(request.param, 0, tmp), tiny_run(request.param, 1, tmp)


def test_benchmark_json_names_the_harness_metrics():
    import run

    assert run.WORKLOADS == harness.WORKLOADS
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(harness.PER_LAYER)


def test_every_metric_appears_with_its_unit(runs):
    _, plain, traced = runs
    for out, table in ((plain, harness.END_TO_END), (traced, harness.PER_LAYER)):
        metrics = out["result"]["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == dict(table)
        assert all(np.isfinite(v["value"]) for v in metrics.values())
        assert out["result"]["attempted"] >= 1
    assert all(plain["result"]["metrics"][k]["value"] > 0 for k, _ in harness.END_TO_END)


def test_traced_and_untraced_runs_report_identical_answers(runs):
    _, plain, traced = runs
    assert plain["answers"]["hash"] == traced["answers"]["hash"]
    assert plain["answers"]["answers"] == traced["answers"]["answers"]


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_wrong_reference_fails_every_operation(workload, tmp_path):
    result = tiny_run(workload, 0, tmp_path, shift=1.0)["result"]
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


def test_default_seed_reproduces_the_frozen_family():
    from conftest import FAMILY_SEEDS, random_spec

    assert inputs.FAMILY_SEEDS == FAMILY_SEEDS
    for slot, (name, spec) in enumerate(inputs.grid_problems(inputs.DEFAULT_SEED)[1:]):
        ref = random_spec(FAMILY_SEEDS[slot])
        assert np.array_equal(spec.q, ref.q)
        for coef in "ABCDQSRG":
            assert np.array_equal(getattr(spec, coef).values, getattr(ref, coef).values)


def test_other_seeds_redraw_inputs_with_the_same_shapes():
    for slot, shape in enumerate(inputs.FAMILY_SHAPES):
        a = inputs.family_spec(inputs.member_seed(0, slot), shape)
        b = inputs.family_spec(inputs.member_seed(5, slot), shape)
        assert (b.n, b.m, b.ell, not b.D.is_zero()) == shape
        assert not np.array_equal(a.A.values, b.A.values)
    assert inputs.tree_yaml(0, 4) != inputs.tree_yaml(5, 4)
    assert inputs.tree_yaml(5, 4) == inputs.tree_yaml(5, 4)
    assert inputs.mc_seed(0, 11) == 11 and inputs.mc_seed(5, 11) == 5


def test_yaml_floats_round_trip():
    import yaml

    for x in (1e-5, -2.5e20, 0.1, 1.0 / 3.0, 0.0, 5e-324):
        assert yaml.safe_load(inputs.yaml_float(x)) == x


def test_tail_needs_ten_samples_beyond_it():
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    value, pct, n = harness.tail(list(range(40)))
    assert (value, pct, n) == (29, 75.0, 40)
    assert sum(x > value for x in range(40)) == 10


def test_run_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-solve", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
