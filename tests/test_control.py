"""Feedback synthesis, closed-loop simulation and Monte Carlo estimators."""

import dataclasses
import operator
import tracemalloc
from functools import reduce
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regimelq import control
from regimelq.config import parse_config
from regimelq.control import (
    Perturbation,
    Policy,
    _batch_costs,
    feedback_gain,
    mc_cost,
    optimality_gap,
    predicted_gap,
    simulate_closed_loop,
    value_at,
)
from regimelq.errors import BlowUp, DimensionMismatch, OutOfRange, StructuralError
from regimelq.esre import SolverOptions, solve_esre
from regimelq.fbsde import xinv_product_check
from regimelq.matcore import symmetrize
from regimelq.model import CoefficientField, ProblemSpec
from regimelq.regime_chain import RegimePath, _jump_cumprobs, path_substream
from conftest import make_e1, random_spec, scalar_spec

MATRIX_DEMO = Path(__file__).resolve().parent.parent / "demos/configs/matrix_two_regime.yaml"
TREE_DEMO = MATRIX_DEMO.with_name("tree_random_q.yaml")
ASYM_DEMO = MATRIX_DEMO.with_name("asym_two_regime.yaml")


@pytest.fixture(scope="module")
def noisy_spec():
    """Scalar case with state noise so per-path costs genuinely vary."""
    return scalar_spec(B=1.0, C=0.5, R=1.0, G=1.0, delta=0.5)


@pytest.fixture(scope="module")
def noisy_solution(noisy_spec):
    return solve_esre(noisy_spec, SolverOptions(grid_steps=500))


@pytest.fixture(scope="module")
def matrix_demo():
    """The 2x2 demo run file and its solution."""
    cfg = parse_config(MATRIX_DEMO)
    return cfg, solve_esre(cfg.problem, cfg.solver)


class TestFeedbackGain:
    def test_e1_initial_gain(self, e1, e1_solution):
        gains = feedback_gain(e1_solution, e1)
        assert gains.eval(0.0, 1)[0, 0] == pytest.approx(-0.5, abs=1e-9)
        assert gains.eval(0.0, 2)[0, 0] == pytest.approx(-0.5, abs=1e-9)

    def test_zero_when_control_enters_nothing(self):
        spec = scalar_spec(A=-0.3, R=1.0, G=1.0, Q=0.5, delta=0.5)
        sol = solve_esre(spec, SolverOptions(grid_steps=200))
        gains = feedback_gain(sol, spec)
        assert np.max(np.abs(gains.values)) == 0.0

    def test_zero_d_matches_reduced_formula(self, e1, e1_solution):
        gains = feedback_gain(e1_solution, e1)
        grid = e1_solution.grid
        for k in (0, 700, 2000):
            for i in (1, 2):
                b = e1.B.eval(grid[k], i)
                s = e1.S.eval(grid[k], i)
                r = e1.R.eval(grid[k], i)
                reduced = -np.linalg.solve(r, b.T @ e1_solution.P[k, i - 1] + s)
                assert np.max(np.abs(gains.values[k, i - 1] - reduced)) <= 1e-14

    def test_refuses_random_tree_coefficients(self):
        # only Q is random here, so every field samples on the grid; the
        # node-mean P spreads across the nodes and gives no optimal gain
        cfg = parse_config(TREE_DEMO)
        sol = solve_esre(cfg.problem, cfg.solver)
        with pytest.raises(StructuralError, match="per lattice node"):
            feedback_gain(sol, cfg.problem)

    def test_deterministic_tree_solution_gives_gains(self, e1):
        sol = solve_esre(e1, SolverOptions(backend="tree", tree_depth=8))
        gains = feedback_gain(sol, e1)
        assert gains.values.shape == (9, 2, 1, 1)
        # B = R = 1, D = S = 0: K = -P
        assert np.max(np.abs(gains.values + sol.P)) <= 1e-15

    @pytest.mark.parametrize("problem", ["matrix-demo", "family-101", "family-303"])
    def test_matches_written_out_expression(self, problem):
        if problem == "matrix-demo":
            spec = parse_config(MATRIX_DEMO).problem
        else:
            spec = random_spec(int(problem.split("-")[1]))
        sol = solve_esre(spec, SolverOptions(grid_steps=200))
        # a nonzero Lambda exercises the D'Lambda term as well
        rng = np.random.default_rng(41)
        sol = dataclasses.replace(
            sol, Lambda=symmetrize(0.1 * rng.standard_normal(sol.P.shape)))
        # reference: the gain formula written out term by term
        grid = sol.grid
        bs, cs, ds, ss, rs = (spec.coefficient(name).sample_times(grid)
                              for name in ("B", "C", "D", "S", "R"))
        p = sol.P
        mrow = bs.mT @ p + ds.mT @ (p @ cs) + ds.mT @ sol.Lambda + ss
        sigma = symmetrize(rs + ds.mT @ (p @ ds))
        w, v = np.linalg.eigh(sigma)
        sigma_inv = symmetrize((v / w[..., None, :]) @ v.mT)
        assert np.array_equal(feedback_gain(sol, spec).values, -(sigma_inv @ mrow))

    def test_gains_are_a_time_table_on_the_solution_grid(self):
        spec = random_spec(101)
        sol = solve_esre(spec, SolverOptions(grid_steps=200))
        gains = feedback_gain(sol, spec)
        assert isinstance(gains, CoefficientField) and gains.kind == "time_table"
        assert (gains.shape, gains.ell) == ((spec.m, spec.n), spec.ell)
        assert np.array_equal(gains.times, sol.grid)

    @pytest.mark.parametrize("regime", [0, 3, 1.5, True])
    def test_eval_refuses_a_bad_regime(self, e1, e1_solution, regime):
        # regime 0 would read regime ell's gain through index -1
        with pytest.raises(OutOfRange):
            feedback_gain(e1_solution, e1).eval(0.0, regime)

    def test_symmetric_regimes_share_gains(self, e1, e1_solution):
        gains = feedback_gain(e1_solution, e1)
        assert np.max(np.abs(gains.values[:, 0] - gains.values[:, 1])) <= 1e-12

    @pytest.mark.parametrize("shape", [(2, 1, 2), (3, 1, 1)])
    def test_gains_must_fit_the_problem(self, e1, shape):
        # a 1 x 2 gain on e1 (n = m = 1) ran and returned a wrong cost
        gains = CoefficientField.constant(np.zeros(shape))
        with pytest.raises(DimensionMismatch, match="gains hold"):
            mc_cost(e1, gains, [1.0], 1, 10, 0.1, 0)
        with pytest.raises(DimensionMismatch, match="gains hold"):
            simulate_closed_loop(e1, Policy(gains=gains), [1.0], 1, 0.1, path_substream(0, 0))

    def test_lookup_takes_sample_at_or_before(self):
        gains = CoefficientField.from_table(
            np.array([0.0, 0.5, 1.0]),
            np.arange(6, dtype=float).reshape(3, 2, 1, 1),
        )
        assert gains.eval(0.49, 1)[0, 0] == 0.0
        assert gains.eval(0.5, 1)[0, 0] == 2.0
        assert gains.eval(1.0, 2)[0, 0] == 5.0


class TestValueAt:
    def test_quadratic_form(self):
        g0 = np.diag([1.0, 2.0])
        spec = ProblemSpec(
            n=2, m=1, ell=2, T=1.0, generator=[[-1.0, 1.0], [1.0, -1.0]],
            A=np.zeros((2, 2, 2)), B=np.zeros((2, 2, 1)), C=np.zeros((2, 2, 2)),
            D=np.zeros((2, 2, 1)), Q=np.zeros((2, 2, 2)), S=np.zeros((2, 1, 2)),
            R=np.ones((2, 1, 1)), G=np.stack([g0, g0]), delta=0.5,
        )
        sol = solve_esre(spec, SolverOptions(grid_steps=100))
        assert value_at(sol, [1.0, 1.0], 1) == pytest.approx(3.0, abs=1e-9)
        assert value_at(sol, [0.0, 0.0], 2) == 0.0

    def test_e1_scaling(self, e1_solution):
        assert value_at(e1_solution, [2.0], 1) == pytest.approx(2.0, abs=1e-5)
        assert value_at(e1_solution, [3.0], 1) == pytest.approx(
            9.0 * value_at(e1_solution, [1.0], 1), abs=1e-9)


class TestSimulateClosedLoop:
    def test_static_path(self):
        spec = scalar_spec(R=1.0, G=0.0, delta=0.5)
        rec = simulate_closed_loop(spec, None, [1.3], 1, 0.01, path_substream(0, 0))
        assert rec.total_cost == 0.0
        assert np.all(rec.states == 1.3)

    def test_fixed_substream_bitwise_reproducible(self, e1, e1_solution):
        gains = feedback_gain(e1_solution, e1)
        a = simulate_closed_loop(e1, gains, [1.0], 1, 1e-3, path_substream(3, 5))
        b = simulate_closed_loop(e1, gains, [1.0], 1, 1e-3, path_substream(3, 5))
        assert a.total_cost == b.total_cost
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.regimes, b.regimes)

    def test_exponential_decay(self):
        spec = scalar_spec(A=-1.0, R=1.0, G=0.0, delta=0.5)
        rec = simulate_closed_loop(spec, None, [1.0], 1, 1e-3, path_substream(0, 0))
        assert rec.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-3)

    def test_callable_policy(self, e1):
        # the reference takes the batch engine's policy forms only: a
        # callable u(t, i, x) is refused, and the same law as a gain field
        # drives the path
        with pytest.raises(StructuralError, match="unsupported policy type"):
            simulate_closed_loop(e1, lambda t, i, x: -0.5 * x, [1.0], 1, 0.01,
                                 path_substream(1, 1))
        gains = CoefficientField.constant(np.full((e1.ell, 1, 1), -0.5))
        rec = simulate_closed_loop(e1, gains, [1.0], 1, 0.01, path_substream(1, 1))
        assert np.all(np.abs(rec.controls[:, 0] + 0.5 * rec.states[:-1, 0]) <= 1e-14)

    def test_blowup_guard(self):
        spec = scalar_spec(A=25.0, R=1.0, G=1.0, delta=0.5)
        with pytest.raises(BlowUp):
            simulate_closed_loop(spec, None, [1.0], 1, 0.01, path_substream(0, 0))

    def test_dt_must_divide_horizon(self, e1, e1_solution):
        with pytest.raises(StructuralError):
            simulate_closed_loop(e1, None, [1.0], 1, 0.3, path_substream(0, 0))
        # the inverse-state check shares the same step count
        with pytest.raises(StructuralError, match="does not divide"):
            xinv_product_check(e1, 1, feedback_gain(e1_solution, e1), 0.3)

    @pytest.mark.parametrize("problem", ["e1", "matrix-demo", "family-101", "family-303"])
    def test_matches_batch_engine(self, problem, e1, e1_solution):
        if problem == "e1":
            spec, sol = e1, e1_solution
        else:
            if problem == "matrix-demo":
                spec = parse_config(MATRIX_DEMO).problem
            else:
                spec = random_spec(int(problem.split("-")[1]))
            sol = solve_esre(spec, SolverOptions(grid_steps=200))
        offset = Perturbation(values=np.outer([0.3, -0.2], np.linspace(0.5, 1.0, spec.m)),
                              times=np.array([0.0, 0.35]))
        policy = Policy(gains=feedback_gain(sol, spec), offset=offset)
        x0 = np.linspace(1.0, -0.5, spec.n)
        costs = _batch_costs(spec, [policy], x0, 1, 4, 1e-2, 99)
        for p in range(4):
            rec = simulate_closed_loop(spec, policy, x0, 1, 1e-2, path_substream(99, p))
            assert rec.total_cost == pytest.approx(costs[0, p], rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_batch_engine_blowup_guard(self, n):
        if n == 1:
            spec = scalar_spec(A=25.0, R=1.0, G=1.0, delta=0.5)
        else:
            spec = ProblemSpec(
                n=2, m=1, ell=2, T=1.0, generator=[[-1.0, 1.0], [1.0, -1.0]],
                A=np.stack([25.0 * np.eye(2)] * 2), B=np.zeros((2, 2, 1)),
                C=np.zeros((2, 2, 2)), D=np.zeros((2, 2, 1)), Q=np.zeros((2, 2, 2)),
                S=np.zeros((2, 1, 2)), R=np.ones((2, 1, 1)), G=np.zeros((2, 2, 2)),
                delta=0.5)
        with pytest.raises(BlowUp, match="exceeded 1e8") as info:
            _batch_costs(spec, [None], np.ones(n), 1, 8, 0.01, 0)
        assert info.value.path_index == 0


class TestMcCost:
    def test_degenerate_randomness_zero_standard_error(self, e1, e1_solution):
        # no state noise and regime-independent coefficients: every path
        # produces the same cost
        gains = feedback_gain(e1_solution, e1)
        est = mc_cost(e1, gains, [1.0], 1, 200, 1e-2, 7)
        assert est.std_error <= 1e-10
        assert est.mean == pytest.approx(0.5, abs=0.01)

    def test_noisy_value_match(self, noisy_spec, noisy_solution):
        gains = feedback_gain(noisy_solution, noisy_spec)
        est = mc_cost(noisy_spec, gains, [1.0], 1, 20000, 2e-3, 11)
        val = value_at(noisy_solution, [1.0], 1)
        assert abs(est.mean - val) <= max(3 * est.std_error, 0.01)

    def test_value_match_with_richardson_bias_estimate(self):
        # strong noise inflates the quadrature bias well above the Monte
        # Carlo noise floor, so the O(dt) model is measurable: estimate the
        # bias slope from two step sizes and check it accounts for the
        # deviation at the third
        spec = scalar_spec(B=1.0, C=0.9, Q=1.0, R=1.0, G=1.0, delta=0.5)
        sol = solve_esre(spec, SolverOptions(grid_steps=400))
        gains = feedback_gain(sol, spec)
        val = value_at(sol, [1.0], 1)
        est = {dt: mc_cost(spec, gains, [1.0], 1, 8000, dt, 71)
               for dt in (0.2, 0.1, 0.05)}
        biases = [abs(est[dt].mean - val) for dt in (0.2, 0.1, 0.05)]
        assert biases[0] > biases[1] > biases[2]
        c_bias = (est[0.2].mean - est[0.1].mean) / 0.1
        bound = 3 * est[0.05].std_error + 1.5 * c_bias * 0.05
        assert abs(est[0.05].mean - val) <= bound

    def test_clt_scaling(self, noisy_spec, noisy_solution):
        gains = feedback_gain(noisy_solution, noisy_spec)
        small = mc_cost(noisy_spec, gains, [1.0], 1, 4000, 4e-3, 13)
        large = mc_cost(noisy_spec, gains, [1.0], 1, 8000, 4e-3, 13)
        assert 1.25 <= small.std_error / large.std_error <= 1.6

    def test_chunking_invariance(self, noisy_spec, noisy_solution, monkeypatch):
        policies = [Policy(gains=feedback_gain(noisy_solution, noisy_spec))]
        default = _batch_costs(noisy_spec, policies, [1.0], 1, 9000, 1e-2, 42)
        monkeypatch.setattr(control, "CHUNK_PATHS", 1000)
        small = _batch_costs(noisy_spec, policies, [1.0], 1, 9000, 1e-2, 42)
        assert np.array_equal(default, small)
        assert np.unique(default).size > 1

    def test_linear_state_scaling(self, noisy_spec, noisy_solution):
        # doubling x0 doubles every path (linear homogeneous dynamics) and
        # quadruples the quadratic cost, pathwise under common noise
        gains = feedback_gain(noisy_solution, noisy_spec)
        c1 = _batch_costs(noisy_spec, [Policy(gains=gains)], [1.0], 1, 64, 1e-2, 5)
        c2 = _batch_costs(noisy_spec, [Policy(gains=gains)], [2.0], 1, 64, 1e-2, 5)
        assert np.max(np.abs(c2 - 4.0 * c1)) <= 1e-9 * np.max(np.abs(c2))

    def test_scalar_matches_written_out_recursion(self, monkeypatch):
        # reference: the n = m = 1 recursion on scalar closed-loop tables,
        # fed the regimes and increments the engine drew
        spec = scalar_spec(A=[0.1, -0.4], B=1.0, C=0.5, D=[0.1, 0.05], Q=[0.3, 0.5],
                           S=[0.1, -0.2], R=[1.0, 2.0], G=[1.0, 0.5], delta=0.5)
        sol = solve_esre(spec, SolverOptions(grid_steps=200))
        offset = Perturbation(values=np.array([[0.3], [-0.2]]), times=np.array([0.0, 0.35]))
        policy = Policy(gains=feedback_gain(sol, spec), offset=offset)
        drawn = []
        run_paths = control._run_paths
        monkeypatch.setattr(control, "_run_paths",
                            lambda *args: drawn.append(args) or run_paths(*args))
        costs = _batch_costs(spec, [policy], [1.0], 1, 50, 1e-2, 8)
        reg, reg_T, dw = drawn[0][3:6]
        dt = 1e-2
        times = dt * np.arange(reg.shape[0])
        a, b, c, d, q, s, r = (spec.coefficient(name).sample_times(times)[:, :, 0, 0]
                               for name in "ABCDQSR")
        kk = policy.gains.sample_times(times)[:, :, 0, 0]
        ee = offset.sample_times(times)[:, 0][:, None]
        tab = np.stack([1.0 + (a + b * kk) * dt, b * ee * dt, c + d * kk, d * ee,
                        (q + (2.0 * s + r * kk) * kk) * dt, 2.0 * (s + r * kk) * ee * dt,
                        r * ee * ee * dt], axis=-1)
        x = np.ones(reg.shape[1])
        ref = np.zeros(reg.shape[1])
        for k in range(reg.shape[0]):
            row = tab[k][reg[k]]
            ref += (row[:, 4] * x + row[:, 5]) * x + row[:, 6]
            x = (row[:, 0] * x + row[:, 1]) + (row[:, 2] * x + row[:, 3]) * dw[k]
        ref += np.array([1.0, 0.5])[reg_T] * x * x
        assert np.array_equal(costs[0], ref)


def _per_path_reference(spec, policies, x0, i0, n_paths, dt, seed):
    """Per-path costs from the first batched sampler: a fresh substream and
    a separate regime lookup for every path, all paths in one chunk, fed to
    the same stepping loop."""
    tables = control._BatchTables(spec, policies, dt)
    q = spec.generator.q
    cum = _jump_cumprobs(q)
    xi = np.empty((n_paths, tables.n_steps))
    reg = np.empty((n_paths, tables.n_steps), dtype=np.intp)
    reg_T = np.empty(n_paths, dtype=np.intp)
    for p in range(n_paths):
        rng = path_substream(seed, p)
        jumps, states = control.sample_jumps(q, cum, i0, spec.T, rng)
        xi[p] = rng.standard_normal(tables.n_steps)
        reg[p] = np.asarray(states)[np.searchsorted(jumps, tables.times, side="right")] - 1
        reg_T[p] = states[-1] - 1
    dw = np.multiply(np.sqrt(dt), xi.T, order="C")
    x0 = np.asarray(x0, dtype=float)
    return np.stack([control._run_paths(table, tables.G, x0, np.ascontiguousarray(reg.T),
                                        reg_T, dw, 0) for table in tables.loops])


def _constant_policies(spec):
    grid = np.linspace(0.0, spec.T, 6)
    gains = CoefficientField.from_table(grid, np.full((6, spec.ell, spec.m, spec.n), -0.4))
    return [Policy(gains=gains), Policy(gains=gains, offset=Perturbation.coerce(0.3, spec.m))]


FAST_SWITCHING = [[-400.0, 200.0, 200.0], [150.0, -300.0, 150.0], [100.0, 100.0, -200.0]]


class TestChunkSampler:
    """The chunk sampler (one re-keyed substream per chunk, one step-major
    regime table) against the per-path sampler it replaced, bit for bit."""

    @pytest.mark.parametrize("problem", ["noisy-scalar", "matrix-demo", "fast-switching",
                                         "absorbing", "uneven-chunks", "block-of-one",
                                         "uneven-blocks", "no-diffusion",
                                         "control-noise-only"])
    def test_costs_equal_per_path_sampler(self, problem, request, monkeypatch):
        dt, n_paths, i0 = 1e-2, 300, 1
        if problem == "noisy-scalar":
            spec = request.getfixturevalue("noisy_spec")
        elif problem == "matrix-demo":
            spec = parse_config(MATRIX_DEMO).problem
        elif problem == "absorbing":
            # regime 2 has zero exit rate
            spec = scalar_spec(generator=[[-3.0, 3.0], [0.0, 0.0]], A=[0.2, -0.3], B=1.0,
                               C=0.4, Q=[1.0, 0.0], R=1.0, G=[1.0, 2.0])
        elif problem in ("no-diffusion", "control-noise-only"):
            # C = 0: the engine draws no normals unless D != 0, where the
            # perturbed policy's b = D e and N = D K are not zero
            d = [0.3, 0.1] if problem == "control-noise-only" else 0.0
            spec = scalar_spec(A=[0.2, -0.3], B=1.0, D=d, Q=[1.0, 0.0], R=1.0,
                               G=[1.0, 2.0])
            noisy = control._BatchTables(spec, [], dt).noisy
            assert noisy == (problem == "control-noise-only")
        else:
            spec = scalar_spec(ell=3, generator=FAST_SWITCHING, A=[0.1, -0.5, 0.3], B=1.0,
                               C=[0.2, 0.5, 0.1], Q=[1.0, 0.0, 2.0], R=1.0,
                               G=[1.0, 2.0, 0.5])
            i0 = 2
        if problem in ("uneven-chunks", "uneven-blocks"):
            monkeypatch.setattr(control, "CHUNK_PATHS", 97)
        if problem == "block-of-one":
            monkeypatch.setattr(control, "_DRAW_BLOCK", 1)
        elif problem == "uneven-blocks":
            # 7 divides neither the chunk of 97 nor the last chunk of 9
            monkeypatch.setattr(control, "_DRAW_BLOCK", 7)
        x0 = np.linspace(1.0, -0.5, spec.n)
        policies = _constant_policies(spec)
        costs = _batch_costs(spec, policies, x0, i0, n_paths, dt, 17)
        assert np.array_equal(costs, _per_path_reference(spec, policies, x0, i0, n_paths, dt, 17))
        assert np.unique(costs[0]).size > 1
        if problem == "fast-switching":
            # some path jumps more than once inside one step
            times = dt * np.arange(round(spec.T / dt))
            cum = _jump_cumprobs(spec.generator.q)
            steps = [np.searchsorted(times, control.sample_jumps(
                spec.generator.q, cum, i0, spec.T, path_substream(17, p))[0])
                for p in range(20)]
            assert any(np.unique(s).size < s.size for s in steps)

    def test_chunk_holds_one_paths_by_steps_float_array(self):
        # a full chunk at 1000 steps: the step-major increments (8 bytes per
        # path-step) and a one-byte regime table, not normals, a transposed
        # copy and an intp table
        spec = scalar_spec(A=[0.2, -0.3], B=1.0, C=0.4, Q=[1.0, 0.0], R=1.0, G=[1.0, 2.0])
        gains = CoefficientField.from_table(np.array([0.0, 1.0]),
                                            np.full((2, 2, 1, 1), -0.4))
        n_paths, dt = control.CHUNK_PATHS, 1e-3
        _batch_costs(spec, [Policy(gains=gains)], [1.0], 1, 8, dt, 0)
        tracemalloc.start()
        try:
            _batch_costs(spec, [Policy(gains=gains)], [1.0], 1, n_paths, dt, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 8 * n_paths * round(spec.T / dt)

    def test_noise_free_chunk_holds_only_its_regime_table(self):
        # without diffusion a full chunk, eight times as many paths as a
        # noisy one, at 1000 steps draws no increments: its one
        # paths-by-steps array is the one-byte regime table, far below the
        # 8 bytes per path-step of a noisy chunk's increments
        spec = scalar_spec(A=[0.2, -0.3], B=1.0, Q=[1.0, 0.0], R=1.0, G=[1.0, 2.0])
        gains = CoefficientField.from_table(np.array([0.0, 1.0]),
                                            np.full((2, 2, 1, 1), -0.4))
        n_paths, dt = 8 * control.CHUNK_PATHS, 1e-3
        _batch_costs(spec, [Policy(gains=gains)], [1.0], 1, 8, dt, 0)
        tracemalloc.start()
        try:
            costs = _batch_costs(spec, [Policy(gains=gains)], [1.0], 1, n_paths, dt, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.unique(costs).size > 1
        assert peak <= 0.25 * 8 * n_paths * round(spec.T / dt)

    def test_jump_on_a_grid_time_counts_from_that_step(self, monkeypatch):
        spec = scalar_spec(A=[0.2, -0.3], B=1.0, C=0.4, Q=[1.0, 0.0], R=1.0, G=[1.0, 2.0])
        dt = 1e-2
        times = dt * np.arange(100)
        sample_jumps = control.sample_jumps

        def on_grid(q, cum, i0, T, rng):
            sample_jumps(q, cum, i0, T, rng)        # same draws, fixed jumps
            return [float(times[25]), float(np.nextafter(times[60], 1.0))], [i0, 3 - i0, i0]

        monkeypatch.setattr(control, "sample_jumps", on_grid)
        drawn = []
        run_paths = control._run_paths
        monkeypatch.setattr(control, "_run_paths",
                            lambda *args: drawn.append(args) or run_paths(*args))
        policies = _constant_policies(spec)
        costs = _batch_costs(spec, policies, [1.0], 1, 40, dt, 3)
        reg, reg_T = drawn[0][3], drawn[0][4]
        assert np.all(reg[24] == 0) and np.all(reg[25:61] == 1)
        assert np.all(reg[61:] == 0) and np.all(reg_T == 0)
        monkeypatch.setattr(control, "_run_paths", run_paths)
        assert np.array_equal(costs, _per_path_reference(spec, policies, [1.0], 1, 40, dt, 3))

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_regime_table_equals_cadlag_lookup(self, data):
        ell, T = data.draw(st.sampled_from([2, 3, 128, 130])), 1.0
        n_steps = data.draw(st.integers(1, 8))
        dt = T / n_steps
        times = dt * np.arange(n_steps)
        i0 = data.draw(st.integers(1, ell))
        # a step index plus a fraction of a step: fraction 0 is a grid time,
        # and few steps put several jumps in one step
        fraction = st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True)
        jump_time = st.tuples(st.integers(0, n_steps - 1), fraction) \
            .map(lambda kf: (kf[0] + kf[1]) * dt).filter(lambda t: 0.0 < t < T)
        chains = []
        for _ in range(data.draw(st.integers(1, 6))):
            jumps = sorted(data.draw(st.lists(jump_time, unique=True, max_size=6)))
            states = [i0]
            for _ in jumps:
                states.append(data.draw(st.sampled_from([s for s in range(1, ell + 1)
                                                         if s != states[-1]])))
            chains.append((jumps, states))
        table = control._regime_table(n_steps + 1, i0, ell, *control._flat_jumps(times, chains))
        assert table.shape == (n_steps + 1, len(chains))
        assert table.dtype == (np.int8 if ell <= 128 else np.int16)
        for p, (jumps, states) in enumerate(chains):
            path = RegimePath(T=T, states=states, jump_times=np.array(jumps))
            assert np.array_equal(table[:, p], path.regime_at(np.append(times, T)) - 1)


def _no_diffusion_spec(problem):
    """A problem with C = D = 0: e1, the asymmetric scalar demo, a 2x2
    problem whose A, B and Q are time tables or a fast three-regime
    scalar problem."""
    if problem == "e1":
        return make_e1()
    if problem == "asym-demo":
        return parse_config(ASYM_DEMO).problem
    if problem == "three-fast":
        # exit rates 20 to 40: a quarter of the paths leave the start
        # regime in the first step of 1e-2, into regime 2 or 3, and
        # histories keep parting at every step
        return scalar_spec(ell=3, generator=[[-30.0, 15.0, 15.0], [20.0, -40.0, 20.0],
                                             [10.0, 10.0, -20.0]],
                           A=[0.1, -0.5, 0.3], B=1.0, Q=[1.0, 0.0, 2.0], R=1.0,
                           G=[1.0, 2.0, 0.5])
    times = np.array([0.0, 0.4, 0.7])
    ramp = (1.0 + times)[:, None, None, None]
    a = np.array([[[0.1, 0.2], [0.0, -0.3]], [[-0.2, 0.0], [0.1, 0.1]]])
    b = np.array([[[1.0], [0.5]], [[0.8], [1.0]]])
    q = np.array([[[1.0, 0.1], [0.1, 0.5]], [[2.0, 0.0], [0.0, 1.0]]])
    return ProblemSpec(
        n=2, m=1, ell=2, T=1.0, generator=[[-0.8, 0.8], [0.5, -0.5]], delta=0.2,
        A=CoefficientField.from_table(times, ramp * a),
        B=CoefficientField.from_table(times, ramp * b),
        C=np.zeros((2, 2, 2)), D=np.zeros((2, 2, 1)),
        Q=CoefficientField.from_table(times, ramp * q),
        S=np.zeros((2, 1, 2)), R=np.ones((2, 1, 1)), G=0.5 * np.stack([np.eye(2)] * 2),
        x0=[1.0, -0.5], i0=1)


class TestNoDiffusion:
    """Without diffusion the engine draws no normals and skips ``0 dW``;
    per-path costs equal those of the drawing path bit for bit."""

    @pytest.mark.parametrize("chunking", ["default", "uneven"])
    @pytest.mark.parametrize("problem", ["e1", "asym-demo", "time-table", "three-fast"])
    def test_costs_equal_drawing_path(self, problem, chunking, monkeypatch):
        spec = _no_diffusion_spec(problem)
        gains = feedback_gain(solve_esre(spec, SolverOptions(grid_steps=200)), spec)
        offset = Perturbation(values=np.array([[0.3], [-0.2]]), times=np.array([0.0, 0.35]))
        policies = [Policy(gains=gains), Policy(gains=gains, offset=offset)]
        if chunking == "uneven":
            # noisy chunks of 97 paths, the last of 29, with draw blocks of
            # 7; noise-free chunks of 8 x 97 = 776, the last of 320
            monkeypatch.setattr(control, "CHUNK_PATHS", 97)
            monkeypatch.setattr(control, "_DRAW_BLOCK", 7)
        args = (np.linspace(1.0, -0.5, spec.n), 1, 4200, 1e-2, 23)
        assert not control._BatchTables(spec, policies, 1e-2).noisy
        quiet = _batch_costs(spec, policies, *args)
        # force the drawing path: normals drawn, 0 dW added at every step
        monkeypatch.setattr(spec.C, "is_zero", lambda: False)
        assert control._BatchTables(spec, policies, 1e-2).noisy
        assert np.array_equal(quiet, _batch_costs(spec, policies, *args))
        assert not np.array_equal(quiet[0], quiet[1])

    def test_blowup_names_step_and_path_of_drawing_path(self, monkeypatch):
        # regime 2 doubles the state each step, regime 1 holds it: a path
        # blows up 27 steps after it first jumps, long after the start path
        # it shared until then; the error names the step and the path that
        # stepping every path from the start names
        spec = scalar_spec(A=[0.0, 100.0], R=1.0, G=1.0)
        with pytest.raises(BlowUp) as quiet:
            _batch_costs(spec, [None], [1.0], 1, 300, 1e-2, 5)
        monkeypatch.setattr(spec.C, "is_zero", lambda: False)
        with pytest.raises(BlowUp) as drawn:
            _batch_costs(spec, [None], [1.0], 1, 300, 1e-2, 5)
        assert str(quiet.value) == str(drawn.value)
        assert quiet.value.path_index == drawn.value.path_index > 0

    @pytest.mark.parametrize("generator, seed, born", [
        ([[-3.0, 3.0, 0.0], [0.0, -3.0, 3.0], [2.0, 2.0, -4.0]], 2, True),
        ([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]], 1, False),
    ])
    def test_blowup_names_path_of_column_fed_by_another(self, generator, seed, born,
                                                         monkeypatch):
        # regime 3 doubles the state each step, regimes 1 and 2 hold it.
        # The lowest blown path's column copied its start from a column
        # other than 0; in the second case it is not yet born when the
        # state blows up, and the live column it would copy stands for it
        spec = scalar_spec(ell=3, generator=generator, A=[0.0, 0.0, 100.0], R=1.0, G=1.0)
        call = ([None], [1.0], 1, 300, 1e-2, seed)
        drawn = []
        run_paths = control._run_paths
        monkeypatch.setattr(control, "_run_paths",
                            lambda *args: drawn.append(args) or run_paths(*args))
        with pytest.raises(BlowUp) as quiet:
            _batch_costs(spec, *call)
        live, source, column = drawn[0][7]
        p = quiet.value.path_index
        step = int(str(quiet.value).rsplit(" ", 1)[1])
        assert source[column[p]] > 0
        assert (column[p] < live[step - 1]) == born
        monkeypatch.setattr(spec.C, "is_zero", lambda: False)
        with pytest.raises(BlowUp) as noisy:
            _batch_costs(spec, *call)
        assert str(quiet.value) == str(noisy.value)
        assert p == noisy.value.path_index > 0

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_shared_prefixes_read_each_paths_rows(self, data):
        ell, T = data.draw(st.sampled_from([2, 3, 130])), 1.0
        n_steps = data.draw(st.integers(1, 6))
        dt = T / n_steps
        times = dt * np.arange(n_steps)
        i0 = data.draw(st.integers(1, ell))
        # few jump times and regimes, so that chains share prefixes; few
        # steps put several jumps in one step, a jump and its return among
        # them, and a jump after times[-1] moves only the T row
        fraction = st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True)
        jump_time = st.tuples(st.integers(0, n_steps - 1), fraction) \
            .map(lambda kf: (kf[0] + kf[1]) * dt).filter(lambda t: 0.0 < t < T)
        pool = data.draw(st.lists(jump_time, min_size=1, max_size=6, unique=True))
        regimes = data.draw(st.lists(st.integers(1, ell), min_size=2, max_size=3,
                                     unique=True)) + [i0]
        chains = []
        for _ in range(data.draw(st.integers(1, 12))):
            jumps = sorted(data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=5)))
            states = [i0]
            for _ in jumps:
                states.append(data.draw(st.sampled_from([s for s in regimes
                                                         if s != states[-1]])))
            chains.append((jumps, states))
        chains += [chains[p] for p in data.draw(st.lists(st.integers(0, len(chains) - 1),
                                                         max_size=4))]
        _check_shared_prefixes(times, T, i0, ell, chains)

    def test_shared_prefixes_of_hand_drawn_chunk(self):
        # steps of 0.25: a stay, a jump, two jumps in one step, a jump and
        # its return in one step, a duplicate, a jump on a grid time, a
        # jump after times[-1] and a branch that parts only at the T row
        chains = [([], [1]), ([0.3], [1, 2]), ([0.3, 0.4], [1, 2, 3]),
                  ([0.3, 0.45], [1, 2, 1]), ([0.3], [1, 2]), ([0.25], [1, 3]),
                  ([0.8], [1, 3]), ([0.3, 0.8], [1, 2, 3])]
        live = _check_shared_prefixes(0.25 * np.arange(4), 1.0, 1, 3, chains)
        assert live.tolist() == [1, 2, 5, 5]


def _check_shared_prefixes(times, T, i0, ell, chains):
    """Check ``_shared_prefixes`` on a chunk of chains; returns ``live``."""
    n_steps = len(times)
    jumps, (live, source, column) = control._shared_prefixes(
        n_steps, ell, *control._flat_jumps(times, chains))
    table = control._regime_table(n_steps + 1, i0, ell, *jumps)
    assert np.all(np.diff(live) >= 0) and 1 <= live[0] and live[-1] <= table.shape[1]
    birth = np.searchsorted(live, np.arange(table.shape[1]), side="right")
    rows = [RegimePath(T=T, states=states, jump_times=np.array(jumps))
            .regime_at(np.append(times, T)) - 1 for jumps, states in chains]
    for p, c in enumerate(column):
        # from its birth to the T row a path's column reads the path's rows
        assert np.array_equal(table[birth[c]:, c], rows[p][birth[c]:])
    for c, s in enumerate(source):
        if birth[c]:
            # a source is live before the birth of the column it feeds and
            # has the same rows up to then
            assert birth[s] < birth[c]
            assert np.array_equal(table[:birth[c], s], table[:birth[c], c])
    # equal grid histories, and only they, share a column, and each step
    # reads one column per distinct history so far
    keys = [tuple(zip(np.searchsorted(times, jumps, side="left").tolist(), states[1:]))
            for jumps, states in chains]
    assert all((column[p] == column[q]) == (keys[p] == keys[q])
               for p in range(len(keys)) for q in range(len(keys)))
    assert live.tolist() == [len({tuple(j for j in key if j[0] <= k) for key in keys})
                             for k in range(n_steps)]
    return live


class TestGoldenEstimates:
    """Monte Carlo estimates pinned to 17 significant digits at 512 paths,
    as the engine gave them before it skipped the normals of noise-free
    problems, re-pinned when the grid solve moved from RK4 to DOP853 (the
    means moved by 3e-15 to 4e-14).  A change that moves them moves every
    Monte Carlo answer (or the solver's feedback gains)."""

    def test_e1_mc_cost(self, e1, e1_solution):
        est = mc_cost(e1, feedback_gain(e1_solution, e1), [1.0], 1, 512, 1e-3, 20240901)
        assert (format(est.mean, ".17g"), format(est.std_error, ".17g")) == (
            "0.499999999999997", "0")

    def test_asymmetric_demo_mc_cost(self):
        cfg = parse_config(ASYM_DEMO)
        spec, sim = cfg.problem, cfg.simulate
        gains = feedback_gain(solve_esre(spec, cfg.solver), spec)
        est = mc_cost(spec, gains, spec.x0, spec.i0, 512, sim.dt, sim.seed)
        assert (format(est.mean, ".17g"), format(est.std_error, ".17g")) == (
            "0.89655725190167934", "0.0061635776710070259")

    def test_matrix_demo_optimality_gap(self, matrix_demo):
        cfg, solution = matrix_demo
        sim = cfg.simulate
        gap = optimality_gap(cfg.problem, solution, sim.perturbations[0], 512, sim.dt,
                             sim.seed)
        got = [format(v, ".17g") for v in (
            gap.gap, gap.std_error, gap.feedback.mean, gap.feedback.std_error,
            gap.perturbed.mean, gap.perturbed.std_error)]
        assert got == ["0.24708522422925014", "0.0035634030499194086",
                       "1.3111955235091253", "0.016756205263841056",
                       "1.5582807477383755", "0.019490710755022667"]


def _packed_tables(n, ell=3, steps=30, count=40, seed=0):
    """Random closed-loop tables in the packed layout of
    ``_closed_loop_table`` with the arguments ``_run_paths`` takes."""
    rng = np.random.default_rng(seed)
    table = 0.3 * rng.standard_normal((steps, ell, 3 * n * n + 3 * n + 1))
    table[:, :, n * n:2 * n * n] += np.eye(n).ravel()
    G = rng.standard_normal((ell, n, n))
    x0 = rng.standard_normal(n)
    reg = rng.integers(0, ell, (steps, count)).astype(np.intp)
    reg_T = rng.integers(0, ell, count).astype(np.intp)
    dw = 0.1 * rng.standard_normal((steps, count))
    return table, G, x0, reg, reg_T, dw


def _entrywise_reference(table, G, x0, reg, reg_T, dw):
    """The Euler recursion written out per path on Python floats, every
    matrix-vector entry summed left to right."""
    n = x0.size
    nn = n * n

    def left_sum(terms):
        return reduce(operator.add, terms)

    def matvec(mat, x):
        return [left_sum(mat[i][j] * x[j] for j in range(n)) for i in range(n)]

    costs = []
    for p in range(reg.shape[1]):
        x, cost = x0.tolist(), 0.0
        for k in range(reg.shape[0]):
            row = table[k, reg[k, p]].tolist()
            W, M, N = ([row[b + n * i:b + n * (i + 1)] for i in range(n)]
                       for b in (0, nn, 2 * nn))
            l, a, b = (row[3 * nn + n * j:3 * nn + n * (j + 1)] for j in range(3))
            wx, mx, nx = matvec(W, x), matvec(M, x), matvec(N, x)
            cost += left_sum((wx[i] + l[i]) * x[i] for i in range(n)) + row[-1]
            x = [(mx[i] + a[i]) + (nx[i] + b[i]) * dw[k, p] for i in range(n)]
        gx = matvec(G[reg_T[p]].tolist(), x)
        costs.append(cost + left_sum(gx[i] * x[i] for i in range(n)))
    return np.array(costs)


def _einsum_run_paths(table, G, x0, reg, reg_T, dw):
    """The stepping loop that gathered ``(paths, n, n)`` blocks and formed
    products with ``np.einsum``, kept to pin n <= 2 costs bit for bit."""
    n_steps, count = reg.shape
    n = x0.size
    cuts = list(accumulate([0] + [n * n] * 3 + [n] * 3))
    w_, m_, nc_, l_, a_, b_ = map(slice, cuts[:-1], cuts[1:])
    x = np.broadcast_to(x0, (count, n)).copy()
    cost = np.zeros(count)
    for k in range(n_steps):
        row = np.take(table[k], reg[k], axis=0)
        wx = np.einsum("pij,pj->pi", row[:, w_].reshape(count, n, n), x)
        mx = np.einsum("pij,pj->pi", row[:, m_].reshape(count, n, n), x)
        nx = np.einsum("pij,pj->pi", row[:, nc_].reshape(count, n, n), x)
        cost += np.einsum("pi,pi->p", wx + row[:, l_], x) + row[:, -1]
        x = (mx + row[:, a_]) + (nx + row[:, b_]) * dw[k, :, None]
    gx = np.einsum("pij,pj->pi", G[reg_T], x)
    return cost + np.einsum("pi,pi->p", gx, x)


class TestEntrywiseStepping:
    """``_run_paths`` sums every state entry left to right in plain float
    order."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_written_out_recursion(self, n):
        args = _packed_tables(n, seed=n)
        costs = control._run_paths(*args, 0)
        assert np.array_equal(costs, _entrywise_reference(*args))
        assert np.unique(costs).size == costs.size

    @pytest.mark.parametrize("n", [1, 2])
    def test_equals_einsum_loop_up_to_two_entries(self, n):
        for seed in range(3):
            args = _packed_tables(n, steps=200, count=500, seed=seed)
            assert np.array_equal(control._run_paths(*args, 0), _einsum_run_paths(*args))

    def test_zero_start_gives_no_negative_zero_cost(self):
        # zero start, zero offsets: every product is a signed zero, none
        # may reach the cost as -0.0
        table, G, _, reg, reg_T, dw = _packed_tables(2)
        table[:, :, 12:] = 0.0
        table[:, :, :4] = -np.abs(table[:, :, :4])
        for x0 in ([0.0, 0.0], [-0.0, 0.0]):
            costs = control._run_paths(table, -np.abs(G), np.array(x0), reg, reg_T, dw, 0)
            assert np.all(costs == 0.0) and not np.any(np.signbit(costs))

    def test_blowup_reports_first_blowing_path_and_step(self):
        # regime 2 multiplies state entry 2 by 10 per step; paths 3 and 6
        # sit in it, so |x_2| = 10^9 > 1e8 first at step 9 on path 3
        n, ell, steps, count = 2, 2, 20, 8
        table = np.zeros((steps, ell, 3 * n * n + 3 * n + 1))
        table[:, 0, 4:8] = [1.0, 0.0, 0.0, 1.0]
        table[:, 1, 4:8] = [1.0, 0.0, 0.0, 10.0]
        reg = np.zeros((steps, count), dtype=np.intp)
        reg[:, [3, 6]] = 1
        with pytest.raises(BlowUp, match="exceeded 1e8 at step 9$") as info:
            control._run_paths(table, np.zeros((ell, n, n)), np.ones(n), reg,
                               np.zeros(count, dtype=np.intp), np.ones((steps, count)), 100)
        assert info.value.path_index == 103


class TestStartState:
    """The start state is checked before any path is sampled."""

    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a path was sampled")
        monkeypatch.setattr(control, "sample_jumps", fail)
        monkeypatch.setattr(control, "sample_chain_path", fail)

    @pytest.mark.parametrize("x0, i0, error", [
        ([1.0, 2.0], 1, DimensionMismatch),
        ([], 1, DimensionMismatch),
        ([np.nan], 1, OutOfRange),
        ([np.inf], 1, OutOfRange),
        ([1.0], 1.5, OutOfRange),
        ([1.0], True, OutOfRange),
    ])
    def test_mc_cost(self, e1, x0, i0, error):
        with pytest.raises(error):
            mc_cost(e1, None, x0, i0, 100, 1e-2, 0)

    @pytest.mark.parametrize("x0, i0, error", [
        ([1.0, 2.0], 1, DimensionMismatch),
        ([np.nan], 1, OutOfRange),
        ([1.0], 1.5, OutOfRange),
    ])
    def test_simulate_closed_loop(self, e1, x0, i0, error):
        with pytest.raises(error):
            simulate_closed_loop(e1, None, x0, i0, 1e-2, path_substream(0, 0))

    def test_optimality_gap(self, e1, e1_solution):
        with pytest.raises(DimensionMismatch):
            optimality_gap(e1, e1_solution, 0.5, 100, 1e-2, 0, x0=[1.0, 2.0])

    @pytest.mark.parametrize("x0, i0, error", [
        ([1.0], 0, OutOfRange),          # would read regime ell's value
        ([1.0], 3, OutOfRange),
        ([1.0], 1.5, OutOfRange),
        ([1.0, 2.0], 1, DimensionMismatch),
        ([np.nan], 1, OutOfRange),
    ])
    def test_value_at(self, e1_solution, x0, i0, error):
        with pytest.raises(error):
            value_at(e1_solution, x0, i0)

    @pytest.mark.parametrize("i0", [0, 3, 1.5])
    def test_predicted_gap(self, e1, e1_solution, i0):
        with pytest.raises(OutOfRange):
            predicted_gap(e1, e1_solution, 0.5, i0)

    @pytest.mark.parametrize("dt", [0.0, -0.01, np.nan, np.inf])
    @pytest.mark.parametrize("entry", ["mc_cost", "optimality_gap", "simulate_closed_loop",
                                       "xinv_product_check"])
    def test_step_size(self, e1, e1_solution, entry, dt):
        calls = {
            "mc_cost": lambda: mc_cost(e1, None, [1.0], 1, 10, dt, 0),
            "optimality_gap": lambda: optimality_gap(e1, e1_solution, 0.5, 10, dt, 0),
            "simulate_closed_loop": lambda: simulate_closed_loop(
                e1, None, [1.0], 1, dt, path_substream(0, 0)),
            "xinv_product_check": lambda: xinv_product_check(
                e1, 1, feedback_gain(e1_solution, e1), dt),
        }
        with pytest.raises(StructuralError, match="dt must be positive and finite"):
            calls[entry]()

    @pytest.mark.parametrize("n_paths", [1, 2.5, "100"])
    def test_path_count(self, e1, e1_solution, n_paths):
        if n_paths != 1:        # one path has costs but no standard error
            with pytest.raises(StructuralError, match="n_paths"):
                _batch_costs(e1, [None], [1.0], 1, n_paths, 1e-2, 0)
        with pytest.raises(StructuralError, match="n_paths"):
            mc_cost(e1, None, [1.0], 1, n_paths, 1e-2, 0)
        with pytest.raises(StructuralError, match="n_paths"):
            optimality_gap(e1, e1_solution, 0.5, n_paths, 1e-2, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_seed(self, e1, e1_solution, seed):
        with pytest.raises(OutOfRange, match="seed"):
            mc_cost(e1, None, [1.0], 1, 10, 1e-2, seed)
        with pytest.raises(OutOfRange, match="seed"):
            optimality_gap(e1, e1_solution, 0.5, 10, 1e-2, seed)


class TestOptimalityGap:
    def test_zero_perturbation_gap_is_exactly_zero(self, e1, e1_solution):
        gap = optimality_gap(e1, e1_solution, None, 500, 1e-2, 3)
        assert gap.gap == 0.0
        assert gap.std_error == 0.0

    def test_e1_constant_perturbation(self, e1, e1_solution):
        gap = optimality_gap(e1, e1_solution, 0.5, 2000, 1e-3, 17)
        assert gap.theoretical_gap == pytest.approx(0.25, abs=1e-12)
        assert abs(gap.gap - 0.25) <= max(3 * gap.std_error, 0.02)

    def test_perturbation_family_never_beats_feedback(self, noisy_spec, noisy_solution):
        times = np.linspace(0.0, 1.0, 101)
        ramp = Perturbation(values=(0.5 * times)[:, None], times=times)
        val = value_at(noisy_solution, [1.0], 1)
        for pert in (0.25, 0.5, ramp):
            gap = optimality_gap(noisy_spec, noisy_solution, pert, 4000, 2e-3, 23)
            assert gap.gap >= -3.0 * gap.std_error
            # no perturbed policy dips significantly below the value
            assert gap.perturbed.mean - val >= -3.0 * gap.perturbed.std_error
            tol = max(3 * gap.std_error, 0.02 * (1 + abs(gap.theoretical_gap)))
            assert abs(gap.gap - gap.theoretical_gap) <= tol

    def test_nonzero_perturbation_strictly_worse(self, noisy_spec, noisy_solution):
        gap = optimality_gap(noisy_spec, noisy_solution, 0.5, 4000, 2e-3, 29)
        assert gap.gap > 3.0 * gap.std_error

    @pytest.mark.parametrize("case", ["matrix-demo", "table", "start", "uneven-chunks"])
    def test_feedback_estimate_is_mc_cost(self, case, matrix_demo, noisy_spec,
                                          noisy_solution, monkeypatch):
        # the gap batch steps the feedback on the same paths as mc_cost, so
        # its feedback estimate is mc_cost's to the last bit of every field
        cfg, solution = matrix_demo
        spec, pert, x0, i0 = cfg.problem, cfg.simulate.perturbations[0], None, None
        if case == "table":
            spec, solution = noisy_spec, noisy_solution
            times = np.linspace(0.0, 1.0, 11)
            pert = Perturbation(values=(0.5 - times)[:, None], times=times)
        elif case == "start":
            x0, i0 = [-0.3, 2.0], 2
        elif case == "uneven-chunks":
            monkeypatch.setattr(control, "CHUNK_PATHS", 97)
        gains = feedback_gain(solution, spec)
        gap = optimality_gap(spec, solution, pert, 300, 1e-2, 41, gains=gains, x0=x0, i0=i0)
        want = mc_cost(spec, gains, spec.x0 if x0 is None else x0,
                       spec.i0 if i0 is None else i0, 300, 1e-2, 41)
        assert gap.feedback == want
        assert gap.perturbed != want

    @pytest.mark.parametrize("demo", ["matrix_two_regime.yaml", "asym_two_regime.yaml"])
    def test_predicted_gap_of_demos_is_exact(self, demo):
        # both demos have a regime-free R and D = 0, so the exact gap is
        # e'Re T whatever the regime law; propagating that law by one step
        # matrix without renormalizing drifted by 33 and 67 ulps
        cfg = parse_config(MATRIX_DEMO.with_name(demo))
        spec = cfg.problem
        assert spec.D.is_zero()
        e = cfg.simulate.perturbations[0].values
        r = spec.R.sample_times(np.zeros(1))[0]
        assert np.array_equal(r[0], r[1])
        want = float(e @ r[0] @ e) * spec.T
        got = predicted_gap(spec, solve_esre(spec, cfg.solver), e, spec.i0)
        assert abs(got - want) <= 4 * np.spacing(want)

    def test_predicted_gap_constant_case(self, e1, e1_solution):
        # R + D'PD = 1 throughout, so the prediction integrates e^2 exactly
        assert predicted_gap(e1, e1_solution, 0.25, 1) == pytest.approx(
            0.0625, abs=1e-12)

    @pytest.mark.parametrize("demo", ["matrix_two_regime.yaml", "asym_two_regime.yaml"])
    def test_predicted_gap_matches_scipy_reference(self, demo):
        # independent evaluation of the same integrand: the regime law from
        # scipy's expm at each grid time, R + D'PD written out, scipy's
        # trapezoid (scipy is a test-only dependency)
        from scipy.integrate import trapezoid
        from scipy.linalg import expm

        cfg = parse_config(MATRIX_DEMO.with_name(demo))
        spec = cfg.problem
        sol = solve_esre(spec, cfg.solver)
        e = cfg.simulate.perturbations[0]
        ev = e.sample_times(sol.grid)
        d, r = (spec.coefficient(name).sample_times(sol.grid) for name in "DR")
        sigma = r + np.swapaxes(d, -1, -2) @ sol.P @ d
        probs = np.array([expm(spec.generator.q * t)[spec.i0 - 1] for t in sol.grid])
        integrand = np.einsum("ka,kiab,kb,ki->k", ev, sigma, ev, probs)
        want = trapezoid(integrand, sol.grid)
        assert predicted_gap(spec, sol, e, spec.i0) == pytest.approx(want, rel=1e-13)


class TestPerturbation:
    def test_coerce_scalar(self):
        p = Perturbation.coerce(0.5, 1)
        assert p.values.shape == (1,)

    def test_coerce_table(self):
        p = Perturbation.coerce(Perturbation(values=[[0.1], [0.2]], times=[0.0, 0.5]), 1)
        out = p.sample_times(np.array([0.0, 0.49, 0.5, 1.0]))
        assert np.array_equal(out[:, 0], [0.1, 0.1, 0.2, 0.2])

    def test_coerce_tuple_of_m_values_is_constant(self):
        # a tuple is m values, as a list is, not a (times, values) table
        p = Perturbation.coerce((0.1, 0.2), 2)
        assert p.times is None and np.array_equal(p.values, [0.1, 0.2])

    @pytest.mark.parametrize("values, times", [
        ([np.nan], None), ([np.inf], None), ([[0.1], [np.nan]], [0.0, 0.5]),
    ])
    def test_non_finite_values_refused(self, e1, e1_solution, values, times):
        # accepted, a NaN offset made optimality_gap return a gap of nan
        with pytest.raises(StructuralError, match="perturbation values must be finite"):
            Perturbation(values=values, times=times)
        with pytest.raises(StructuralError, match="perturbation values must be finite"):
            optimality_gap(e1, e1_solution, np.nan, 10, 1e-2, 0)

    @pytest.mark.parametrize("kwargs, what", [
        (dict(values="abc"), "perturbation values"),
        (dict(values=[[0.1], [0.2]], times=["0", "b"]), "table times"),
    ])
    def test_non_numeric_input_refused(self, kwargs, what):
        with pytest.raises(StructuralError, match=f"^{what} must be an array of numbers: "):
            Perturbation(**kwargs)
        with pytest.raises(StructuralError,
                           match="^perturbation must be an array of numbers: "):
            Perturbation.coerce("abc", 1)

    def test_table_starting_after_zero_refused(self, e1, e1_solution):
        # applied from t = 0 it gave predicted_gap 1.0 where the offset on
        # [0.5, 1] alone gives 0.5
        with pytest.raises(StructuralError, match=r"starts at t = 0\.5, after 0"):
            Perturbation(values=[[1.0]], times=[0.5])
        with pytest.raises(StructuralError, match=r"starts at t = 0\.5"):
            predicted_gap(e1, e1_solution, Perturbation(values=[[1.0]], times=[0.5]), 1)
        late = Perturbation(values=[[0.0], [1.0]], times=[0.0, 0.5])
        # the trapezoid ramps the step over one grid interval (dt = 5e-4)
        assert predicted_gap(e1, e1_solution, late, 1) == pytest.approx(0.5, abs=5e-4)

    @pytest.mark.parametrize("values, times", [
        (np.zeros((2, 1, 1)), [0.0, 0.5]),       # rank 3 table
        ([0.1, 0.2], [0.0, 0.5]),                # rank 1 table
        (np.zeros((1, 1)), None),                # rank 2 constant
        (np.zeros((3, 1)), [0.0, 0.5]),          # rows do not match the times
    ])
    def test_wrong_rank_refused(self, e1, values, times):
        with pytest.raises(DimensionMismatch, match="perturbation"):
            mc_cost(e1, Policy(offset=Perturbation(values=values, times=times)),
                    [1.0], 1, 4, 0.01, 0)

    def test_wrong_width_refused(self, e1):
        with pytest.raises(DimensionMismatch, match="2 components, the control has 1"):
            mc_cost(e1, Policy(offset=Perturbation(values=[0.1, 0.2])), [1.0], 1, 4, 0.01, 0)

    def test_policy_requires_known_type(self):
        with pytest.raises(StructuralError):
            Policy.coerce(object(), 1)
