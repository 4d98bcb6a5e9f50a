"""Riccati solver: the paper's pointwise functionals (``paper_algebra``)
against the solver's blocks and driver, initial iterate, fixed-point
sweeps, full solves on both backends, and the direct coupled oracle.

Reference values used here:

* symmetric scalar case: P(t) = 1/(1 + T - t), so P(0) = 0.5;
* its first sweep solves dP1/dt = P1 + P1^2 - 1 backward from 1, a scalar
  Riccati ODE with the golden-ratio closed form evaluated in
  ``_p1_closed_form`` (0.6534539341427144 at t = 0);
* asymmetric scalar case (state weight 1 in regime 1, 0 in regime 2):
  the linear initial iterate decouples into sum/difference equations with
  P0(0) = (3 +- (1 - e^{-2})/2) / 2; the full nonlinear values are pinned
  by an independent fine-grid integrator in ``_asym_oracle``.
"""

import dataclasses
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regimelq import _dop853 as dop853, esre, matcore, model
from regimelq.config import parse_config
from regimelq.control import feedback_gain
from regimelq.errors import (
    DimensionMismatch,
    NearSingular,
    NoConvergence,
    PsdViolation,
    RegimeLQError,
    StepFailure,
    StructuralError,
)
from regimelq.esre import (
    BinomialTree,
    GridIterate,
    SolverOptions,
    TreeIterate,
    direct_coupled_oracle,
    growth_constant,
    picard_certificate,
    picard_step,
    solve_esre,
    solve_p0,
)
from regimelq.matcore import min_eigenvalue, symmetrize
from regimelq.model import CoefficientField, ProblemSpec
from conftest import FAMILY_SEEDS, make_e1, random_spec, replay_picard, scalar_spec
from paper_algebra import drift_h, drift_pi, f_of_theta, theta_hat

CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"
E1_VALUE = 0.5
ASYM_P0_AT_0 = ((3.0 + (1.0 - np.exp(-2.0)) / 2.0) / 2.0,
                (3.0 - (1.0 - np.exp(-2.0)) / 2.0) / 2.0)
# frozen from the independent integrator below (dt = 1e-4, RK4-converged)
ASYM_FULL_AT_0 = (0.897489, 0.626213)


def _inner_fixed_point_p0(spec, depth, tol=1e-13, max_iter=200):
    """Reference for the tree's linear initial iterate, as a nested fixed
    point: freeze the whole regime coupling ``q p`` at the previous pass,
    re-solve the lattice backward with the linear drift, repeat until
    consecutive passes agree.  Coefficients are read node by node through
    ``eval``; values are in original coordinates."""
    tree = BinomialTree(depth, spec.T)

    def nodes(fn, k):
        return np.array([[fn(tree.times[k], i, (k, j)) for i in range(1, spec.ell + 1)]
                         for j in range(k + 1)])

    a = [nodes(spec.A.eval, k) for k in range(depth)]
    c = [nodes(spec.C.eval, k) for k in range(depth)]
    q = [nodes(spec.Q.eval, k) for k in range(depth)]
    g = nodes(lambda t, i, node: spec.G.eval(spec.T, i, node), depth)

    def sweep(src):
        levels = [None] * depth + [g]
        for k in range(depth - 1, -1, -1):
            up, down = levels[k + 1][1:], levels[k + 1][:-1]
            pm = 0.5 * (up + down)
            z = symmetrize((up - down) / (2.0 * tree.sqrt_dt))
            drift = (pm @ a[k] + a[k].mT @ pm + c[k].mT @ pm @ c[k]
                     + z @ c[k] + c[k].mT @ z + q[k] + src[k])
            levels[k] = pm + tree.dt * symmetrize(drift)
        return levels

    prev = sweep([0.0] * depth)
    for _ in range(max_iter):
        cur = sweep([np.einsum("ij,njab->niab", spec.q, prev[k]) for k in range(depth)])
        res = max(float(np.max(np.abs(x - y))) for x, y in zip(cur, prev))
        prev = cur
        if res <= tol:
            return cur
    raise AssertionError("reference fixed point did not settle")


def _random_q_spec(depth):
    """n = 2, three regimes, nonzero A and C, state weight driven by the
    lattice Brownian level."""
    rng = np.random.default_rng(17)
    ell, n = 3, 2
    q = rng.uniform(0.3, 1.2, (ell, ell))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    base = [0.2 * np.eye(n) + m @ m.T for m in 0.5 * rng.standard_normal((ell, n, n))]
    qf = CoefficientField.from_tree_function(
        lambda t, w, i: base[i - 1] * (1.0 + 0.5 * np.tanh(w)), depth, 1.0, ell, (n, n))
    return ProblemSpec(
        n=n, m=1, ell=ell, T=1.0, generator=q,
        A=0.4 * rng.standard_normal((ell, n, n)), B=rng.standard_normal((ell, n, 1)),
        C=0.3 * rng.standard_normal((ell, n, n)), D=np.zeros((ell, n, 1)),
        Q=qf, S=np.zeros((ell, 1, n)), R=np.ones((ell, 1, 1)),
        G=np.stack([np.eye(n)] * ell), delta=0.5,
    )


def _p1_closed_form() -> float:
    r1 = (np.sqrt(5.0) - 1.0) / 2.0
    r2 = -(np.sqrt(5.0) + 1.0) / 2.0
    c = (1.0 - r1) / (1.0 - r2) * np.exp(-np.sqrt(5.0))
    return float((r1 - r2 * c) / (1.0 - c))


def _asym_oracle(dt: float) -> np.ndarray:
    """Fine-grid integrator for the asymmetric coupled system, written
    against the equations directly (independent of the solver paths)."""
    n = int(round(1.0 / dt))
    p = np.array([1.0, 1.0])
    qweight = np.array([1.0, 0.0])
    q = np.array([[-1.0, 1.0], [1.0, -1.0]])

    def f(p):
        return -(qweight - p * p + q @ p)

    for _ in range(n):
        k1 = f(p)
        k2 = f(p - dt / 2 * k1)
        k3 = f(p - dt / 2 * k2)
        k4 = f(p - dt * k3)
        p = p - dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return p


def asym_spec():
    return scalar_spec(B=1.0, R=1.0, G=1.0, Q=[1.0, 0.0])


# ---------------------------------------------------------------------------
# pointwise functionals
# ---------------------------------------------------------------------------


def _written_out_blocks(spec, t, i, p, lam, s, r):
    """M and Sigma^{-1} of the feedback formula written out term by term,
    the reference for drift_h and theta_hat."""
    b, c, d = spec.B.eval(t, i), spec.C.eval(t, i), spec.D.eval(t, i)
    m = b.T @ p + d.T @ (p @ c) + d.T @ lam + s
    w, v = np.linalg.eigh(symmetrize(r + d.T @ (p @ d)))
    return m, symmetrize((v / w) @ v.T)


def _random_points(seed):
    """(spec, t, regime, P, Lambda) for a D != 0 family member."""
    spec = random_spec(seed)
    rng = np.random.default_rng(seed)
    for t in (0.0, 0.37, 1.0):
        for i in range(1, spec.ell + 1):
            w = rng.standard_normal((spec.n, spec.n))
            lam = symmetrize(0.3 * rng.standard_normal((spec.n, spec.n)))
            yield spec, t, i, w @ w.T, lam


class TestDriftPi:
    def test_scalar_substitution(self):
        spec = scalar_spec(A=1.0, C=1.0, R=1.0, G=1.0)
        out = drift_pi(0.0, 1, [[2.0]], [[0.5]], spec)
        assert out[0, 0] == pytest.approx(7.0, abs=1e-14)

    def test_zero_dynamics(self):
        spec = make_e1()
        assert drift_pi(0.3, 2, [[2.0]], [[0.5]], spec)[0, 0] == 0.0

    def test_reduces_to_lyapunov_term(self):
        spec = scalar_spec(A=-0.7, R=1.0, G=1.0)
        out = drift_pi(0.0, 1, [[3.0]], [[0.0]], spec)
        assert out[0, 0] == pytest.approx(2 * (-0.7) * 3.0, abs=1e-14)


class TestDriftH:
    def test_scalar_substitution(self):
        spec = scalar_spec(B=1.0, R=1.0, G=1.0)
        out = drift_h(0.0, 1, [[1.0]], [[0.0]], spec)
        assert out[0, 0] == pytest.approx(-1.0, abs=1e-14)

    def test_vanishing_numerator(self):
        spec = scalar_spec(R=1.0, G=1.0)      # B = D = S = 0
        out = drift_h(0.0, 1, [[1.5]], [[0.2]], spec)
        assert out[0, 0] == 0.0

    def test_negative_semidefinite(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            b = rng.standard_normal((2, n, m))
            c = rng.standard_normal((2, n, n))
            d = rng.standard_normal((2, n, m)) * 0.5
            w = rng.standard_normal((n, n))
            p = w @ w.T
            lam = symmetrize(rng.standard_normal((n, n)))
            r = np.eye(m) + 0.1 * np.eye(m)
            s = rng.standard_normal((m, n))
            spec = ProblemSpec(n=n, m=m, ell=2, T=1.0,
                               generator=[[-1.0, 1.0], [1.0, -1.0]], delta=0.5,
                               A=np.zeros((2, n, n)), B=b, C=c, D=d,
                               Q=np.zeros((2, n, n)), S=np.stack([s] * 2),
                               R=np.stack([r] * 2), G=np.zeros((2, n, n)))
            out = drift_h(0.0, 1, p, lam, spec)
            assert min_eigenvalue(out) <= 1e-10

    @pytest.mark.parametrize("seed", [101, 303])
    def test_matches_written_out_expression(self, seed):
        for spec, t, i, p, lam in _random_points(seed):
            r, s = spec.R.eval(t, i), spec.S.eval(t, i)
            m, sigma_inv = _written_out_blocks(spec, t, i, p, lam, s, r)
            ref = symmetrize(-(m.T @ (sigma_inv @ m)))
            assert np.array_equal(drift_h(t, i, p, lam, spec), ref)


class TestThetaHat:
    def test_scalar_substitution(self):
        spec = scalar_spec(B=3.0, R=2.0, G=1.0)
        th = theta_hat(0.7, 1, [[1.0]], [[0.0]], spec)
        assert th[0, 0] == pytest.approx(-1.5, abs=1e-14)

    def test_zero_numerator(self):
        spec = scalar_spec(B=3.0, R=2.0, G=1.0)
        th = theta_hat(0.4, 2, [[0.0]], [[0.0]], spec)
        assert th[0, 0] == 0.0

    def test_relates_to_quadratic_drift(self):
        # H == -theta' (R + D'PD) theta at theta = theta_hat
        rng = np.random.default_rng(37)
        from regimelq.model import ProblemSpec
        for _ in range(50):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            spec = ProblemSpec(
                n=n, m=m, ell=2, T=1.0, generator=[[-1.0, 1.0], [1.0, -1.0]],
                A=rng.standard_normal((2, n, n)),
                B=rng.standard_normal((2, n, m)),
                C=rng.standard_normal((2, n, n)),
                D=0.4 * rng.standard_normal((2, n, m)),
                Q=np.zeros((2, n, n)),
                S=0.3 * rng.standard_normal((2, m, n)),
                R=np.stack([np.eye(m)] * 2),
                G=np.zeros((2, n, n)),
                delta=0.5,
            )
            w = rng.standard_normal((n, n))
            p = w @ w.T
            lam = symmetrize(0.3 * rng.standard_normal((n, n)))
            t, i = 0.3, 1
            th = theta_hat(t, i, p, lam, spec)
            d = spec.D.eval(t, i)
            sigma = spec.R.eval(t, i) + d.T @ (p @ d)
            h = drift_h(t, i, p, lam, spec)
            assert np.max(np.abs(h - (-(th.T @ sigma @ th)))) <= 1e-10

    @pytest.mark.parametrize("seed", [101, 303])
    def test_matches_written_out_expression(self, seed):
        for spec, t, i, p, lam in _random_points(seed):
            m, sigma_inv = _written_out_blocks(
                spec, t, i, p, lam, spec.S.eval(t, i), spec.R.eval(t, i))
            assert np.array_equal(theta_hat(t, i, p, lam, spec), -(sigma_inv @ m))


class TestFOfTheta:
    def test_zero_gain_reduces_to_linear_drift(self):
        spec = scalar_spec(A=0.5, C=0.3, Q=0.7, R=1.0, G=1.0)
        p, lam = np.array([[1.2]]), np.array([[0.1]])
        t, i = 0.4, 1
        out = f_of_theta(t, i, p, lam, np.zeros((1, 1)), spec)
        expected = drift_pi(t, i, p, lam, spec) + spec.Q.eval(t, i)
        assert np.max(np.abs(out - expected)) <= 1e-14

    def test_scalar_substitution(self):
        spec = scalar_spec(B=1.0, R=1.0, G=1.0)
        out = f_of_theta(0.7, 1, [[1.0]], [[0.0]], [[-1.0]], spec)
        assert out[0, 0] == pytest.approx(-1.0, abs=1e-14)

    def test_minimized_at_theta_hat(self):
        rng = np.random.default_rng(41)
        from regimelq.model import ProblemSpec
        spec = ProblemSpec(
            n=2, m=1, ell=2, T=1.0, generator=[[-1.0, 1.0], [1.0, -1.0]],
            A=rng.standard_normal((2, 2, 2)),
            B=rng.standard_normal((2, 2, 1)),
            C=0.5 * rng.standard_normal((2, 2, 2)),
            D=0.3 * rng.standard_normal((2, 2, 1)),
            Q=np.stack([np.eye(2)] * 2),
            S=0.2 * rng.standard_normal((2, 1, 2)),
            R=np.ones((2, 1, 1)),
            G=np.stack([np.eye(2)] * 2),
            delta=0.5,
        )
        w = rng.standard_normal((2, 2))
        p = w @ w.T
        lam = symmetrize(0.2 * rng.standard_normal((2, 2)))
        t, i = 0.6, 2
        th_star = theta_hat(t, i, p, lam, spec)
        best = f_of_theta(t, i, p, lam, th_star, spec)
        for _ in range(100):
            theta = th_star + rng.standard_normal((1, 2))
            other = f_of_theta(t, i, p, lam, theta, spec)
            assert min_eigenvalue(other - best) >= -1e-9


class TestSharedDriver:
    """Both engines evaluate the Riccati right-hand side through one
    driver; at random (P, Lambda) points it is the pointwise functionals'
    ``drift_pi + Q + drift_h`` (plus ``q_ii P`` on the grid, whose drift
    matrix carries the diagonal coupling)."""

    @staticmethod
    def _engines(spec):
        # the grid samples constant coefficients once, as piece 0 at t = 0
        yield esre._GridEngine(spec, SolverOptions(grid_steps=50)), 0, True
        yield esre._TreeEngine(spec, SolverOptions(backend="tree", tree_depth=50)), 19, False

    @pytest.mark.parametrize("with_lambda", [True, False])
    @pytest.mark.parametrize("seed", FAMILY_SEEDS)
    def test_matches_pointwise_functionals(self, seed, with_lambda):
        spec = random_spec(seed)
        rng = np.random.default_rng(seed + 7)
        for engine, h, grid in self._engines(spec):
            t = engine.times[h]
            w = rng.standard_normal((spec.ell, spec.n, spec.n))
            p = w @ w.mT
            lam = symmetrize(0.3 * rng.standard_normal(p.shape))
            if not with_lambda:
                lam[:] = 0.0
            got = engine._driver(h, p, lam if with_lambda else None, 0.0, True)
            for i in range(1, spec.ell + 1):
                pi, li = p[i - 1], lam[i - 1]
                ref = (drift_pi(t, i, pi, li, spec) + spec.Q.eval(t, i)
                       + drift_h(t, i, pi, li, spec))
                if grid:
                    ref = ref + spec.q[i - 1, i - 1] * pi
                got_i = got[0, i - 1] if got.ndim == 4 else got[i - 1]
                assert np.max(np.abs(got_i - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.filterwarnings("ignore:measured diffusion size")
    def test_tree_ill_conditioned_sigma_names_time_and_regime(self, monkeypatch):
        spec = _ill_conditioned_spec()
        monkeypatch.setattr(matcore, "COND_THRESHOLD", 3.9)
        opts = SolverOptions(backend="tree", tree_depth=100)
        with pytest.raises(NearSingular, match=r"at t = 0\.9 in regime 1: "
                           r"condition number 3\.9\d+e\+00 exceeds threshold 3\.900e\+00"):
            solve_esre(spec, opts)

    @pytest.mark.filterwarnings("ignore:measured diffusion size")
    def test_feedback_gain_names_time_and_regime(self, monkeypatch):
        # the worst of the refused samples: cond(R + D'PD) peaks at 3.994
        # at t = 0.88 in regime 1
        spec = _ill_conditioned_spec()
        sol = solve_esre(spec, SolverOptions(grid_steps=400))
        monkeypatch.setattr(matcore, "COND_THRESHOLD", 3.9)
        with pytest.raises(NearSingular, match=r"^R \+ D'PD is ill-conditioned at t = 0\.88 "
                           r"in regime 1: condition number 3\.994e\+00 exceeds threshold "
                           r"3\.900e\+00$"):
            feedback_gain(sol, spec)

    @pytest.mark.parametrize("backend", ["ode", "tree"])
    def test_ill_conditioned_r_named_once_per_engine(self, backend, monkeypatch):
        # D = 0: R^{-1} is formed once, behind the same guard
        spec = dataclasses.replace(_ill_conditioned_spec(), D=np.zeros((2, 1, 2)))
        monkeypatch.setattr(matcore, "COND_THRESHOLD", 10.0)
        opts = SolverOptions(backend=backend, grid_steps=100, tree_depth=10)
        with pytest.raises(NearSingular, match=r"at t = 0 in regime 1: "
                           r"condition number 2\.000e\+01 exceeds"):
            solve_p0(spec, opts)


# ---------------------------------------------------------------------------
# initial iterate
# ---------------------------------------------------------------------------


class TestSolveP0:
    def test_symmetric_case_is_constant_one(self, e1):
        it0 = solve_p0(e1, SolverOptions(grid_steps=400))
        assert np.max(np.abs(it0.values - 1.0)) <= 1e-9

    def test_zero_generator_keeps_terminal_weight(self):
        spec = scalar_spec(R=1.0, G=0.7, Q=0.0,
                           generator=[[0.0, 0.0], [0.0, 0.0]])
        it0 = solve_p0(spec, SolverOptions(grid_steps=200))
        assert np.max(np.abs(it0.values - 0.7)) <= 1e-12

    def test_asymmetric_matches_closed_form(self):
        p0 = solve_p0(asym_spec(), SolverOptions(grid_steps=800)).values
        assert p0[0, 0, 0, 0] == pytest.approx(ASYM_P0_AT_0[0], abs=1e-9)
        assert p0[0, 1, 0, 0] == pytest.approx(ASYM_P0_AT_0[1], abs=1e-9)

    def test_initial_iterate_stays_psd(self, random_family):
        for spec in random_family:
            it0 = solve_p0(spec, SolverOptions(grid_steps=200))
            assert float(np.min(np.linalg.eigvalsh(it0.values))) >= -1e-10

    @pytest.mark.parametrize("case", ["e1", "tree-random-q", "random-q-n2"])
    def test_tree_direct_matches_inner_fixed_point(self, case):
        if case == "e1":
            spec, opts = make_e1(), SolverOptions(backend="tree", tree_depth=8)
        elif case == "tree-random-q":
            cfg = parse_config(CONFIGS / "tree_random_q.yaml")
            spec, opts = cfg.problem, cfg.solver
        else:
            spec, opts = _random_q_spec(10), SolverOptions(backend="tree", tree_depth=10)
        it0 = solve_p0(spec, opts)
        ref = _inner_fixed_point_p0(spec, opts.tree_depth)
        assert max(float(np.max(np.abs(a - b))) for a, b in zip(it0.levels, ref)) <= 1e-10


# ---------------------------------------------------------------------------
# one sweep
# ---------------------------------------------------------------------------


class TestPicardStep:
    def test_first_sweep_matches_scalar_riccati(self, e1):
        opts = SolverOptions(grid_steps=1000)
        it0 = solve_p0(e1, opts)
        p1 = picard_step(e1, it0, opts).values
        assert p1[0, 0, 0, 0] == pytest.approx(_p1_closed_form(), abs=1e-6)

    def test_first_sweep_bracketed(self, e1):
        opts = SolverOptions(grid_steps=400)
        p1 = picard_step(e1, solve_p0(e1, opts), opts).values
        assert np.all(p1 >= 0.5 - 1e-9) and np.all(p1 <= 1.0 + 1e-9)

    def test_tree_sweep_deterministic_coefficients_kill_lambda(self, e1):
        opts = SolverOptions(backend="tree", tree_depth=8)
        it1 = picard_step(e1, solve_p0(e1, opts), opts)
        assert all(float(np.max(np.abs(lv))) == 0.0 for lv in it1.lam_levels)

    def test_grid_mismatch_rejected(self, e1):
        it0 = solve_p0(e1, SolverOptions(grid_steps=100))
        with pytest.raises(StructuralError):
            picard_step(e1, it0, SolverOptions(grid_steps=200))

    def test_non_psd_iterate_rejected(self, e1):
        opts = SolverOptions(grid_steps=100)
        it0 = solve_p0(e1, opts)
        it0.values[5] = -np.abs(it0.values[5]) - 1.0
        with pytest.raises(PsdViolation, match=r"-2\.000e\+00 at or below -matcore\.PSD_TOL "
                           r"= -1\.000e-09 at t = 0\.05 in regime 1$"):
            picard_step(e1, it0, opts)

    def test_non_psd_tree_level_named_by_its_time(self, e1):
        opts = SolverOptions(backend="tree", tree_depth=6)
        it0 = solve_p0(e1, opts)
        levels = list(it0.levels)
        levels[3] = levels[3].copy()
        levels[3][2, 1] = -1.0                      # node 2 of level 3, regime 2
        with pytest.raises(PsdViolation, match=r"at t = 0\.5 in regime 2$") as err:
            picard_step(e1, dataclasses.replace(it0, levels=tuple(levels)), opts)
        assert err.value.member == (2, 1)


    @pytest.mark.parametrize("backend", ["ode", "tree"])
    def test_iterate_of_another_problem_rejected(self, e1, backend):
        # e1 holds (ell, n, n) = (2, 1, 1) per sample, family 303 (3, 2, 2)
        opts = SolverOptions(backend=backend, grid_steps=100, tree_depth=6)
        it0 = solve_p0(e1, opts)
        with pytest.raises(DimensionMismatch, match=r"\(3, 2, 2\)"):
            picard_step(random_spec(303), it0, opts)


class TestStepRateCheck:
    """The grid's explicit RK4 step carries q_ii P, so every grid Picard
    entry point refuses dt max|q_ii| > 2 and names the grid that works."""

    FAST = [[-20.0, 20.0], [20.0, -20.0]]

    def test_every_grid_entry_point_refuses(self):
        spec = make_e1(generator=self.FAST)
        opts = SolverOptions(grid_steps=7)                  # dt * 20 = 2.857
        prev = solve_p0(make_e1(), opts)
        calls = (lambda: solve_esre(spec, opts), lambda: solve_p0(spec, opts),
                 lambda: picard_step(spec, prev, opts))
        for call in calls:
            with pytest.raises(StructuralError, match=r"2\.857 exceeds 2; use grid_steps >= 10"):
                call()

    def test_smallest_grid_named_is_accepted(self):
        spec = make_e1(generator=self.FAST)
        with pytest.raises(StructuralError, match="grid_steps >= 10"):
            solve_p0(spec, SolverOptions(grid_steps=9))
        solve_p0(spec, SolverOptions(grid_steps=10))        # dt * 20 = 2 exactly

    def test_oracle_keeps_only_its_blowup_guard(self):
        spec = make_e1(generator=self.FAST)
        sol = direct_coupled_oracle(spec, SolverOptions(grid_steps=7))
        assert np.all(np.isfinite(sol.P))


@pytest.mark.parametrize("field, value", [
    ("picard_max_iter", 0), ("picard_max_iter", -2),
    ("picard_tol", 0.0), ("picard_tol", -1e-9), ("picard_tol", np.inf),
    ("picard_tol", np.nan),
    ("grid_steps", 2.5), ("grid_steps", 10.0), ("grid_steps", True),
    ("tree_depth", 4.5), ("tree_depth", 0), ("picard_max_iter", 3.0),
    ("picard_max_iter", True), ("backend", "magic"),
])
def test_solver_options_reject_bad_values(field, value):
    with pytest.raises(StructuralError, match=field):
        SolverOptions(**{field: value})


def test_grid_engine_decomposes_r_once(monkeypatch):
    # D = 0: R^{-1} comes from one eigh, and the condition test reads its
    # eigenvalues instead of running eigvalsh on the same stack
    calls = []

    def counted(name):
        fn = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    esre._GridEngine(make_e1(), SolverOptions())
    assert calls == ["eigh"]


def test_solver_options_accept_numpy_integers():
    opts = SolverOptions(grid_steps=np.int64(10), tree_depth=np.int32(4),
                         picard_max_iter=np.uint8(60))
    assert solve_esre(make_e1(), opts).P.shape == (11, 2, 1, 1)


# ---------------------------------------------------------------------------
# the Picard sequence of the tree solve and the grid certificate
# ---------------------------------------------------------------------------


def _ill_conditioned_spec():
    """Two regimes whose P(t, 1) dips to a minimum near t = 0.88; D loads
    the cheap second control of regime 1 only, so cond(R + D'PD) there
    peaks with that dip and grows from sweep to sweep (3.9750, 3.9883,
    3.9941 in sweeps 1, 2, 3 at N = 400)."""
    from regimelq.model import ProblemSpec

    return ProblemSpec(
        n=1, m=2, ell=2, T=1.0, generator=[[-3.0, 3.0], [3.0, -3.0]],
        A=np.zeros((2, 1, 1)), B=np.array([[[1.0, 0.0]], [[1.0, 0.0]]]),
        C=np.zeros((2, 1, 1)), D=np.array([[[0.0, 0.5]], [[0.0, 0.0]]]),
        Q=np.array([[[0.0]], [[8.0]]]), S=np.zeros((2, 2, 1)),
        R=np.array([np.diag([1.0, 0.05]), np.eye(2)]),
        G=np.array([[[1.0]], [[0.0]]]), delta=0.01,
    )


def _same_error(spec, options):
    """Assert the certificate raises exactly what the replay raises; return
    the number of sweeps the replay completed first."""
    values, residuals = [], []
    with pytest.raises(RegimeLQError) as ref:
        replay_picard(spec, options, values, residuals)
    with pytest.raises(RegimeLQError) as got:
        picard_certificate(spec, options)
    assert type(got.value) is type(ref.value)
    assert str(got.value) == str(ref.value)
    return len(residuals)


class TestPicardSequence:
    """The tree solve and :func:`picard_certificate` run one loop of
    frozen-coupling sweeps; the certificate's limit, residuals, margins and
    errors are those of the public ``solve_p0`` + ``picard_step`` replay."""

    @staticmethod
    def _assert_replayed(spec, cert):
        values, residuals = [], []
        replay_picard(spec, cert.options, values, residuals)
        assert cert.iterations == len(residuals)
        assert cert.residual_history == residuals
        assert np.array_equal(cert.P, values[-1])
        assert cert.monotonicity_margin == min(
            min_eigenvalue(prev - cur) for prev, cur in zip(values, values[1:]))
        assert cert.min_eigenvalue == min(min_eigenvalue(v) for v in values)

    def test_no_convergence_history(self, e1):
        opts = SolverOptions(grid_steps=400, picard_max_iter=3)
        values, residuals = [], []
        with pytest.raises(NoConvergence):
            replay_picard(e1, opts, values, residuals)
        with pytest.raises(NoConvergence) as err:
            picard_certificate(e1, opts)
        assert err.value.residual_history == residuals

    def test_stiff_terminal_weight_fails_in_sweep_one(self):
        spec = scalar_spec(B=1.0, R=1e-6, G=1e7, delta=1e-7)
        assert _same_error(spec, SolverOptions(grid_steps=400)) == 0

    def test_stiff_terminal_weight_names_time_and_regime(self):
        # the tree's first sweep and the certificate's leave the PSD cone
        # in the first level or step below T, both in regime 1
        spec = scalar_spec(B=1.0, R=1e-6, G=1e7, delta=1e-7)
        for options, t in [(SolverOptions(backend="tree", tree_depth=10), r"0\.9"),
                           (SolverOptions(grid_steps=400), r"0\.9975")]:
            run = solve_esre if options.backend == "tree" else picard_certificate
            with pytest.raises(PsdViolation, match=rf"^min eigenvalue -\S+ at or below "
                               rf"-matcore\.PSD_TOL = -1\.000e-09 at t = {t} in regime 1$"):
                run(spec, options)

    def test_long_horizon_fails_in_sweep_one(self):
        spec = scalar_spec(A=0.5, Q=1.0, B=1.0, R=1.0, G=1.0, T=50.0)
        assert _same_error(spec, SolverOptions(grid_steps=2000)) == 0

    @pytest.mark.filterwarnings("ignore:measured diffusion size")
    def test_ill_conditioned_fails_in_sweep_three(self, monkeypatch):
        # cond(R + D'PD) first exceeds 3.99 in sweep 3, at t = 0.89
        spec = _ill_conditioned_spec()
        monkeypatch.setattr(matcore, "COND_THRESHOLD", 3.99)
        assert _same_error(spec, SolverOptions(grid_steps=400)) == 2

    @pytest.mark.filterwarnings("ignore:measured diffusion size")
    def test_ill_conditioned_fails_in_sweep_two(self, monkeypatch):
        # cond(R + D'PD) first exceeds 3.985 in sweep 2, at t = 0.89
        spec = _ill_conditioned_spec()
        monkeypatch.setattr(matcore, "COND_THRESHOLD", 3.985)
        assert _same_error(spec, SolverOptions(grid_steps=400)) == 1

    def test_convergence_at_the_sweep_cap(self, e1):
        # the last sweep allowed is the one that converges
        opts = SolverOptions(grid_steps=400, picard_max_iter=12)
        cert = picard_certificate(e1, opts)
        assert cert.iterations == 12
        self._assert_replayed(e1, cert)

    @pytest.mark.parametrize("backend, sweeps", [("ode", 12), ("tree", 14)])
    def test_one_sweep_short_of_convergence(self, e1, backend, sweeps):
        # e1 converges in exactly `sweeps` sweeps at N = 400 and at depth 8;
        # one sweep fewer raises, with the same message on both backends
        run = picard_certificate if backend == "ode" else solve_esre
        opts = SolverOptions(backend=backend, grid_steps=400, tree_depth=8,
                             picard_max_iter=sweeps)
        done = run(e1, opts)
        assert done.iterations == sweeps
        with pytest.raises(NoConvergence, match=(
                rf"^no convergence after {sweeps - 1} sweeps "
                r"\(last residual \d\.\d{3}e-\d\d\)$")) as err:
            run(e1, dataclasses.replace(opts, picard_max_iter=sweeps - 1))
        assert err.value.residual_history == done.residual_history[:-1]


# ---------------------------------------------------------------------------
# full solves
# ---------------------------------------------------------------------------


class TestSolveEsre:
    def test_closed_form_value(self, e1_solution):
        assert abs(e1_solution.P[0, 0, 0, 0] - E1_VALUE) <= 1e-6
        assert abs(e1_solution.P[0, 1, 0, 0] - E1_VALUE) <= 1e-6

    def test_terminal_condition_exact(self, e1, e1_solution):
        g = np.stack([e1.G.eval(1.0, i) for i in (1, 2)])
        assert np.array_equal(e1_solution.P[-1], g)

    def test_direct_solve_runs_no_sweeps(self, e1):
        sol = solve_esre(e1, SolverOptions(grid_steps=200))
        assert (sol.iterations, sol.residual_history) == (0, [])

    def test_residual_history_contracts_to_tolerance(self, e1_certificate):
        hist = e1_certificate.residual_history
        assert hist[-1] <= e1_certificate.options.picard_tol
        assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_iterates_monotone_and_psd(self, e1_certificate, e1_replay):
        its, _ = e1_replay
        assert len(its) == e1_certificate.iterations + 1
        steps = [float(np.min(np.linalg.eigvalsh(prev - cur)))
                 for prev, cur in zip(its, its[1:])]
        lowest = [float(np.min(np.linalg.eigvalsh(it))) for it in its]
        assert min(steps) >= -1e-8 and min(lowest) >= -1e-9
        # the certificate's margins are those of its iterates
        assert e1_certificate.monotonicity_margin == min(steps)
        assert e1_certificate.min_eigenvalue == min(lowest)
        # every iterate sits below the initial one
        for it in its[1:]:
            assert float(np.min(np.linalg.eigvalsh(its[0] - it))) >= -1e-8

    def test_certificate_refuses_the_tree_backend(self, e1):
        with pytest.raises(StructuralError, match="grid backend"):
            picard_certificate(e1, SolverOptions(backend="tree", tree_depth=8))

    def test_long_horizon_reaches_the_steady_state(self):
        # the linear iterate grows to about 1e22 here (the certificate fails
        # in sweep 1); the direct solve reaches the root of P^2 = P + 1
        spec = scalar_spec(A=0.5, Q=1.0, B=1.0, R=1.0, G=1.0, T=50.0)
        sol = solve_esre(spec, SolverOptions(grid_steps=2000))
        assert np.max(np.abs(sol.P[0] - (1.0 + np.sqrt(5.0)) / 2.0)) <= 1e-8

    @pytest.mark.parametrize("R, G, steps, t, ratio", [
        # dt |2 B R^{-1} B' G| = 2e13 / 2000 at t = T: the first DOP853 step
        # tried, one grid spacing, overflows its stages
        (1e-6, 1e7, 2000, r"0\.9995", r"1\.000e\+10"),
        # the first step overflows to NaN, which no step control may pass on
        (1e-8, 1e100, 10, r"0\.9", r"2\.000e\+107"),
    ])
    def test_stiff_step_names_time_and_ratio(self, R, G, steps, t, ratio):
        spec = scalar_spec(B=1.0, R=R, G=G, delta=R / 10.0)
        with pytest.raises(StepFailure, match=(
                rf"^the error estimate is not finite for the DOP853 step from t = 1 to "
                rf"{t}: its stiffness ratio dt \|2 B Sigma\^\{{-1\}} B' P\| is {ratio} in "
                r"regime 1; refine the grid, whose spacing is the first step tried and "
                r"which sets the budget, or rescale the problem$")):
            solve_esre(spec, SolverOptions(grid_steps=steps))

    def test_grid_diagnostics_measure_the_returned_p(self, e1, e1_solution, e1_certificate):
        # 0 <= P <= P_0, so the solve's measured sup lies under the linear
        # iterate's, which the certificate measures
        d, d0 = e1_solution.diagnostics, e1_certificate.diagnostics
        top = np.max(np.log(np.linalg.norm(e1_solution.P, axis=(-2, -1)))
                     + np.diag(e1.q) * e1_solution.grid[:, None], axis=1)
        assert d.log_measured_sup == pytest.approx(
            float(np.max(d.rho * e1_solution.grid + 2.0 * top)), abs=1e-12)
        assert d.log_measured_sup <= d0.log_measured_sup <= d0.log_apriori_bound

    def test_asymmetric_values_match_independent_integrator(self):
        sol = solve_esre(asym_spec(), SolverOptions(grid_steps=800))
        oracle = _asym_oracle(1e-3)
        assert oracle[0] == pytest.approx(ASYM_FULL_AT_0[0], abs=5e-6)
        assert oracle[1] == pytest.approx(ASYM_FULL_AT_0[1], abs=5e-6)
        assert sol.P[0, 0, 0, 0] == pytest.approx(oracle[0], abs=1e-6)
        assert sol.P[0, 1, 0, 0] == pytest.approx(oracle[1], abs=1e-6)

    def test_fast_switching_matches_closed_form(self):
        # e1's closed form P(0) = 1/2 holds for any symmetric switching rate
        spec = make_e1(generator=[[-20.0, 20.0], [20.0, -20.0]])
        sol = solve_esre(spec, SolverOptions(grid_steps=80))
        assert np.max(np.abs(sol.P[0] - E1_VALUE)) <= 1e-5

    def test_stationary_solution(self):
        g0 = np.array([[1.0, 0.2], [0.2, 0.5]])
        from regimelq.model import ProblemSpec
        spec = ProblemSpec(
            n=2, m=1, ell=2, T=1.0, generator=[[-1.0, 1.0], [1.0, -1.0]],
            A=np.zeros((2, 2, 2)), B=np.zeros((2, 2, 1)), C=np.zeros((2, 2, 2)),
            D=np.zeros((2, 2, 1)), Q=np.zeros((2, 2, 2)), S=np.zeros((2, 1, 2)),
            R=np.ones((2, 1, 1)), G=np.stack([g0, g0]), delta=0.5,
        )
        sol = solve_esre(spec, SolverOptions(grid_steps=200))
        # the diagonal and off-diagonal coupling cancel on equal regimes
        assert np.max(np.abs(sol.P - g0)) <= 1e-10

    def test_linear_regime_scales_linearly(self):
        base = scalar_spec(R=1.0, Q=0.4, G=0.8, delta=0.5)
        scaled = scalar_spec(R=1.0, Q=3 * 0.4, G=3 * 0.8, delta=0.5)
        opts = SolverOptions(grid_steps=200)
        a = solve_esre(base, opts)
        b = solve_esre(scaled, opts)
        assert np.max(np.abs(3.0 * a.P - b.P)) <= 1e-10

    def test_zero_d_general_algebra_identical(self, e1, monkeypatch):
        opts = SolverOptions(grid_steps=300)
        a = solve_esre(e1, opts)
        # route the zero D through the general (R + D'PD)-inverse algebra
        monkeypatch.setattr(e1.D, "is_zero", lambda: False)
        b = solve_esre(e1, opts)
        assert np.max(np.abs(a.P - b.P)) <= 1e-12

    def test_no_convergence_carries_history(self, e1):
        with pytest.raises(NoConvergence) as err:
            picard_certificate(e1, SolverOptions(grid_steps=100, picard_max_iter=1))
        assert len(err.value.residual_history) == 1

    def test_assumption_gate(self):
        from regimelq.errors import AssumptionViolation
        spec = scalar_spec(R=0.1, G=1.0, delta=0.5)
        with pytest.raises(AssumptionViolation):
            solve_esre(spec, SolverOptions(grid_steps=100))

    def test_apriori_bound_certificate(self, e1_solution):
        d = e1_solution.diagnostics
        assert d.log_measured_sup <= d.log_apriori_bound
        assert d.k_estimate == pytest.approx(1.0, abs=1e-12)
        assert d.rho == pytest.approx(6.0 * 1.0 + 3.0, abs=1e-12)

    def test_apriori_bound_saturates_instead_of_overflowing(self):
        # K ~ 400 e^{399}: K**2 overflows a float, the solve still converges
        spec = make_e1(generator=[[-1.0, 1.0], [400.0, -400.0]])
        sol = solve_esre(spec, SolverOptions(grid_steps=400))
        d = sol.diagnostics
        assert np.isfinite(d.k_estimate)
        assert d.rho == np.inf
        assert d.log_apriori_bound == np.inf
        assert d.log_measured_sup <= d.log_apriori_bound
        assert np.all(np.isfinite(sol.P))

    def test_smallness_recorded(self, e1_solution):
        assert e1_solution.diagnostics.smallness == 0.0

    def test_large_control_noise_warns_but_solves(self):
        spec = scalar_spec(B=1.0, D=1.0, R=1.0, G=1.0, delta=0.5)
        with pytest.warns(UserWarning, match="diffusion size"):
            sol = solve_esre(spec, SolverOptions(grid_steps=300))
        assert sol.diagnostics.smallness > model.SMALLNESS_THRESHOLD
        oracle = direct_coupled_oracle(spec, SolverOptions(grid_steps=300))
        assert np.max(np.abs(sol.P - oracle.P)) <= 1e-12


class TestTreeBackend:
    def test_lattice_shape(self):
        tree = BinomialTree(4, 1.0)
        assert tree.dt == 0.25

    def test_deterministic_tree_matches_closed_form_coarsely(self, e1):
        sol = solve_esre(e1, SolverOptions(backend="tree", tree_depth=10))
        assert abs(sol.P[0, 0, 0, 0] - E1_VALUE) <= 0.05
        assert all(float(np.max(np.abs(lv))) == 0.0 for lv in sol.tree.lam_levels)

    @pytest.mark.xfail(strict=True, reason=(
        "at rate 40 and depth 400 the tree's Picard sequence needs 80 "
        "sweeps and stops at picard_max_iter = 60 (NoConvergence); with "
        "more allowed it settles at P(0) = 0.49957.  The one-sweep tree "
        "solve (ROADMAP item 1) is the fix"))
    def test_tree_fast_switching_matches_closed_form(self):
        # e1's closed form P(0) = 1/2 holds for any symmetric switching rate
        spec = make_e1(generator=[[-40.0, 40.0], [40.0, -40.0]])
        sol = solve_esre(spec, SolverOptions(backend="tree", tree_depth=400))
        assert np.max(np.abs(sol.P[0] - E1_VALUE)) <= 1e-2

    @pytest.mark.parametrize("rate, max_iter", [(20.0, 60), (40.0, 200)])
    def test_tree_fast_switching_at_depth_100(self, rate, max_iter):
        spec = make_e1(generator=[[-rate, rate], [rate, -rate]])
        sol = solve_esre(spec, SolverOptions(backend="tree", tree_depth=100,
                                             picard_max_iter=max_iter))
        assert np.max(np.abs(sol.P[0] - E1_VALUE)) <= 1e-2

    def test_tree_solution_is_the_converged_iterate(self, e1):
        opts = SolverOptions(backend="tree", tree_depth=8)
        sol = solve_esre(e1, opts)
        its, residuals = [], []
        replay_picard(e1, opts, its, residuals)
        assert isinstance(sol.tree, TreeIterate) and sol.tree.tree.depth == 8
        assert sol.residual_history == residuals
        assert all(np.array_equal(a, b) for a, b in zip(sol.tree.levels, its[-1]))

    def test_tree_e1_answer_does_not_depend_on_rate(self):
        # with the regimes equal the coupling cancels at the fixed point, for
        # any depth and rate; the tight picard_tol keeps the stopping error
        # of the slower high-rate sequences well below the tolerance
        p0 = []
        for rate in (1.0, 8.0, 20.0):
            spec = make_e1(generator=[[-rate, rate], [rate, -rate]])
            sol = solve_esre(spec, SolverOptions(backend="tree", tree_depth=8,
                                                 picard_tol=1e-12, picard_max_iter=200))
            p0.append(sol.P[0])
        assert all(np.max(np.abs(p - p0[0])) <= 1e-9 for p in p0[1:])

    @staticmethod
    def _assert_monotone_and_psd(spec, options):
        its, residuals = [], []
        replay_picard(spec, options, its, residuals)
        assert residuals == solve_esre(spec, options).residual_history
        for prev, cur in zip(its, its[1:]):
            for lp, lc in zip(prev, cur):
                assert float(np.min(np.linalg.eigvalsh(lp - lc))) >= -1e-8
        for it in its:
            for lv in it:
                assert float(np.min(np.linalg.eigvalsh(lv))) >= -1e-9

    def test_tree_iterates_monotone_and_psd(self, e1):
        self._assert_monotone_and_psd(e1, SolverOptions(backend="tree", tree_depth=8))

    def test_tree_iterates_monotone_and_psd_random_q(self):
        cfg = parse_config(CONFIGS / "tree_random_q.yaml")
        self._assert_monotone_and_psd(cfg.problem, cfg.solver)

    def test_tree_terminal_exact_and_psd(self):
        from regimelq.model import CoefficientField
        depth = 6
        qf = CoefficientField.from_tree_function(
            lambda t, w, i: [[1.0 + 0.5 * np.tanh(w)]], depth, 1.0, 2, (1, 1))
        spec = scalar_spec(B=1.0, R=1.0, G=1.0, delta=0.5)
        from regimelq.model import ProblemSpec
        spec = ProblemSpec(n=1, m=1, ell=2, T=1.0,
                           generator=[[-1.0, 1.0], [1.0, -1.0]],
                           A=np.zeros((2, 1, 1)), B=np.ones((2, 1, 1)),
                           C=np.zeros((2, 1, 1)), D=np.zeros((2, 1, 1)),
                           Q=qf, S=np.zeros((2, 1, 1)), R=np.ones((2, 1, 1)),
                           G=np.ones((2, 1, 1)), delta=0.5)
        sol = solve_esre(spec, SolverOptions(backend="tree", tree_depth=depth))
        assert np.array_equal(sol.tree.levels[depth], np.ones((depth + 1, 2, 1, 1)))
        for lv in sol.tree.levels:
            assert float(np.min(np.linalg.eigvalsh(lv))) >= -1e-9
        # random running weight forces a nonzero martingale integrand
        assert any(float(np.max(np.abs(lv))) > 0.0 for lv in sol.tree.lam_levels)

    def test_depth_mismatch_rejected(self):
        from regimelq.model import CoefficientField, ProblemSpec
        qf = CoefficientField.from_tree_function(
            lambda t, w, i: [[1.0]], 4, 1.0, 2, (1, 1))
        spec = ProblemSpec(n=1, m=1, ell=2, T=1.0,
                           generator=[[-1.0, 1.0], [1.0, -1.0]],
                           A=np.zeros((2, 1, 1)), B=np.ones((2, 1, 1)),
                           C=np.zeros((2, 1, 1)), D=np.zeros((2, 1, 1)),
                           Q=qf, S=np.zeros((2, 1, 1)), R=np.ones((2, 1, 1)),
                           G=np.ones((2, 1, 1)), delta=0.5)
        with pytest.raises(StructuralError):
            solve_esre(spec, SolverOptions(backend="tree", tree_depth=8))

    def test_random_coefficients_refused_on_grid_backend(self):
        from regimelq.model import CoefficientField, ProblemSpec
        qf = CoefficientField.from_tree_function(
            lambda t, w, i: [[1.0]], 4, 1.0, 2, (1, 1))
        spec = ProblemSpec(n=1, m=1, ell=2, T=1.0,
                           generator=[[-1.0, 1.0], [1.0, -1.0]],
                           A=np.zeros((2, 1, 1)), B=np.ones((2, 1, 1)),
                           C=np.zeros((2, 1, 1)), D=np.zeros((2, 1, 1)),
                           Q=qf, S=np.zeros((2, 1, 1)), R=np.ones((2, 1, 1)),
                           G=np.ones((2, 1, 1)), delta=0.5)
        with pytest.raises(StructuralError):
            solve_esre(spec, SolverOptions(backend="ode", grid_steps=100))


def _pair_extrapolated(p_by_depth):
    """``2 P(2d) - P(d)`` for each depth d whose double is in the dict:
    the tree is first order, so this removes its leading error term."""
    return {d: 2.0 * p_by_depth[2 * d] - p_by_depth[d]
            for d in p_by_depth if 2 * d in p_by_depth}


class TestTreeAgainstOtherSchemes:
    """The tree against references outside its lattice: a closed form whose
    Lambda is nonzero, and the grid solve of a matrix problem.  The tree is
    first order in dt, so each error halves when the depth doubles, and
    the pair extrapolation is second order."""

    def test_closed_form_with_nonzero_lambda(self):
        # identical scalar regimes with B = D = S = 0 and Q = q0 + q1 exp(W_t):
        # -dP = (a P + b Lam + Q) dt - Lam dW with a = 2A + C^2, b = 2C, so
        # by Girsanov P(0) = e^{aT} G + int_0^T e^{as} (q0 + q1 e^{(b + 1/2) s}) ds
        A, C, G, q0, q1 = 0.3, 0.4, 1.0, 1.0, 0.5
        a, b = 2.0 * A + C * C, 2.0 * C
        exact = (np.exp(a) * G + q0 * np.expm1(a) / a
                 + q1 * np.expm1(a + b + 0.5) / (a + b + 0.5))
        assert exact == pytest.approx(5.297651247, abs=1e-9)
        p0 = {}
        for depth in (100, 200, 400):
            q = CoefficientField.from_tree_function(
                lambda t, w, i: [[q0 + q1 * np.exp(w)]], depth, 1.0, 2, (1, 1))
            spec = ProblemSpec(n=1, m=1, ell=2, T=1.0, delta=0.5,
                               generator=[[-1.0, 1.0], [1.0, -1.0]], A=[[A]], B=[[0.0]],
                               C=[[C]], D=[[0.0]], Q=q, S=[[0.0]], R=[[1.0]], G=[[G]])
            sol = solve_esre(spec, SolverOptions(backend="tree", tree_depth=depth))
            assert sol.P[0, 1, 0, 0] == pytest.approx(sol.P[0, 0, 0, 0], rel=1e-14)
            p0[depth] = sol.P[0, 0, 0, 0]
        err = {d: p - exact for d, p in p0.items()}          # -4.79e-2, -2.41e-2, -1.21e-2
        for d in (100, 200):
            assert 1.9 <= err[d] / err[2 * d] <= 2.1
        extra = {d: p - exact for d, p in _pair_extrapolated(p0).items()}
        assert abs(extra[200]) <= 1e-4                         # -3.70e-4, -9.39e-5
        assert 3.5 <= extra[100] / extra[200] <= 4.5

    def test_matrix_problem_against_the_grid(self):
        # n = 3, ell = 3, D = 0: both backends solve one ODE, the grid to
        # RK4 accuracy at N = 4000
        spec = random_spec(404)
        ref = solve_esre(spec, SolverOptions(grid_steps=4000)).P[0]
        p0 = {depth: solve_esre(spec, SolverOptions(backend="tree", tree_depth=depth)).P[0]
              for depth in (50, 100, 200)}
        err = {d: float(np.max(np.abs(p - ref))) for d, p in p0.items()}
        for d in (50, 100):                                    # 2.85e-1, 1.38e-1, 6.84e-2
            assert 1.8 <= err[d] / err[2 * d] <= 2.2
        extra = {d: float(np.max(np.abs(p - ref))) for d, p in _pair_extrapolated(p0).items()}
        assert extra[100] <= extra[50] / 3.0                   # 8.86e-3, 1.40e-3
        assert extra[100] <= 2e-3


class TestRobustnessEnvelope:
    """e1 at any symmetric rate and horizon has the closed form
    P(0) = 1/(1 + T).  The grid solve must give it or refuse the grid with
    the typed step-rate error, naming a grid on which it then gives it."""

    @settings(max_examples=12, deadline=None, database=None, derandomize=True)
    @given(rate=st.floats(0.0, 1e3), T=st.floats(0.0, 50.0, exclude_min=True),
           steps=st.integers(40, 4000))
    def test_e1_solves_or_names_a_grid(self, rate, T, steps):
        spec = make_e1(generator=[[-rate, rate], [rate, -rate]], T=T)
        try:
            sol = solve_esre(spec, SolverOptions(grid_steps=steps))
        except StructuralError as exc:
            named = re.search(r"dt \* max\|q_ii\| = \S+ exceeds 2; use grid_steps >= (\d+)$",
                              str(exc))
            assert named, str(exc)
            steps = int(named.group(1))
            sol = solve_esre(spec, SolverOptions(grid_steps=steps))
        # RK4's own error on P' = P^2 is below 1e-6 up to dt = 0.5 and
        # reaches 1.3e-4 at dt = 1.25 (T = 50, 40 steps)
        dt = T / steps
        assert np.max(np.abs(sol.P[0] - 1.0 / (1.0 + T))) <= 1e-6 + 1e-4 * dt**4


class TestDirectOracle:
    def test_closed_form(self, e1):
        sol = direct_coupled_oracle(e1, SolverOptions(grid_steps=2000))
        assert abs(sol.P[0, 0, 0, 0] - E1_VALUE) <= 1e-8

    def test_agrees_with_fixed_point(self, e1, e1_certificate):
        oracle = direct_coupled_oracle(e1, SolverOptions(grid_steps=2000))
        tol = max(1e-8, 10 * e1_certificate.options.picard_tol)
        assert np.max(np.abs(oracle.P - e1_certificate.P)) <= tol

    @pytest.mark.parametrize("rate, T", [(800.0, 1.0), (50.0, 20.0)])
    def test_fast_switching_closed_form(self, rate, T):
        # the oracle and the grid solve integrate the coupling directly; the
        # Picard sequence needs about rate * T sweeps here and stops at
        # picard_max_iter
        spec = make_e1(generator=[[-rate, rate], [rate, -rate]], T=T)
        opts = SolverOptions(grid_steps=2000)
        for sol in (direct_coupled_oracle(spec, opts), solve_esre(spec, opts)):
            assert np.max(np.abs(sol.P[0] - 1.0 / (1.0 + T))) <= 1e-8
        # on the coarsest grid the step rule accepts the residual at sweep
        # 60 is 1.082e-3 (rate 800) and 4.191e-3 (rate 50), as at N = 2000
        with pytest.raises(NoConvergence):
            picard_certificate(spec, SolverOptions(grid_steps=int(rate * T / 2)))

    def test_linear_scaling(self):
        base = scalar_spec(R=1.0, Q=0.4, G=0.8, delta=0.5)
        scaled = scalar_spec(R=1.0, Q=0.8, G=1.6, delta=0.5)
        opts = SolverOptions(grid_steps=200)
        a = direct_coupled_oracle(base, opts)
        b = direct_coupled_oracle(scaled, opts)
        assert np.max(np.abs(2.0 * a.P - b.P)) <= 1e-10

    def test_blowup_guard(self):
        # strongly negative running weight drives the backward solution to
        # a finite-time pole before t = 0
        spec = scalar_spec(B=1.0, R=1.0, G=1.0, Q=-10.0, delta=0.5)
        with pytest.raises(StepFailure):
            direct_coupled_oracle(spec, SolverOptions(grid_steps=2000))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blowup_guard_catches_nan(self):
        # a huge terminal weight overflows the first step to NaN, which a
        # plain `norm > guard` test lets through
        spec = scalar_spec(B=1.0, R=1e-8, G=1e100, delta=1e-9)
        with pytest.raises(StepFailure, match="state norm nan"):
            direct_coupled_oracle(spec, SolverOptions(grid_steps=10))

    @pytest.mark.filterwarnings("ignore:measured diffusion size")
    def test_smallness_verdict_is_the_solves(self):
        # smallness e^1 = 2.718 against the threshold 0.1; the verdict is
        # that comparison, which no record stores
        spec = scalar_spec(B=1.0, R=1.0, G=1.0, D=1.0)
        opts = SolverOptions(grid_steps=200)
        oracle = direct_coupled_oracle(spec, opts).diagnostics
        solved = solve_esre(spec, opts).diagnostics
        assert oracle.smallness == solved.smallness > model.SMALLNESS_THRESHOLD
        assert not hasattr(oracle, "smallness_ok") and not hasattr(solved, "smallness_ok")

    def test_time_table_coefficients_cross_check(self):
        # piecewise-constant control weight: the direct solve ends a step
        # at the table time, the oracle's fixed steps read one value each
        spec = _weight_table_spec([0.0, 0.5], [1.0, 2.0])
        opts = SolverOptions(grid_steps=500)
        sol = solve_esre(spec, opts)
        oracle = direct_coupled_oracle(spec, opts)
        assert np.max(np.abs(sol.P - oracle.P)) <= 1e-7
        # cheaper control on [0, 0.5) means more aggressive early damping
        assert sol.P[0, 0, 0, 0] < sol.P[len(sol.grid) // 2, 0, 0, 0] + 0.5


def _weight_table_spec(times, weights, T=1.0, G=1.0):
    """The time-table cross-check's problem: scalar state, two equal
    regimes, B = 1, Q = 0.3 and the control weight ``weights[k]`` from
    ``times[k]`` on, a time table where there are two."""
    r = np.repeat(np.reshape(weights, (-1, 1, 1, 1)), 2, axis=1)
    return ProblemSpec(
        n=1, m=1, ell=2, T=T, generator=[[-1.0, 1.0], [1.0, -1.0]],
        A=np.zeros((2, 1, 1)), B=np.ones((2, 1, 1)), C=np.zeros((2, 1, 1)),
        D=np.zeros((2, 1, 1)), Q=np.full((2, 1, 1), 0.3), S=np.zeros((2, 1, 1)),
        R=CoefficientField.from_table(times, r) if len(weights) > 1 else r[0],
        G=np.broadcast_to(G, (2, 1, 1)), delta=0.5,
    )


def _joined_solves(t1, steps_before, steps_after):
    """P of the weight table 1 on [0, t1), 2 on [t1, 1], from two
    constant-weight solves joined at t1: the solve after t1 from G = 1,
    the one before from its P(t1).  Grids of the given step counts."""
    after = solve_esre(_weight_table_spec([0.0], [2.0], T=1.0 - t1),
                       SolverOptions(grid_steps=steps_after))
    before = solve_esre(_weight_table_spec([0.0], [1.0], T=t1, G=after.P[0]),
                        SolverOptions(grid_steps=steps_before))
    return np.concatenate([before.P, after.P[1:]])


class TestDop853:
    """The direct solve's scheme, checked without the oracle."""

    def test_tableau_is_the_published_one(self):
        ref = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
            assert getattr(dop853, name) == getattr(ref, name), name
        for name in ("C", "A", "B", "E3", "E5", "D"):
            mine, theirs = getattr(dop853, name), getattr(ref, name)
            assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes(), name

    def test_fixed_steps_are_eighth_order(self, monkeypatch):
        # no error control and no step growth: every step is one grid
        # spacing.  B = 0 leaves the linear system dP/ds = M P + Q in the
        # time to go s, M = 2A + q, with P(T) = G; errors 3.7e-8, 1.3e-10,
        # 4.7e-13 at 2, 4, 8 steps
        monkeypatch.setattr(esre, "STEP_TOL", np.inf)
        monkeypatch.setattr(esre, "_MAX_FACTOR", 1.0)
        spec = scalar_spec(A=[0.5, -0.3], B=0.0, Q=[1.0, 0.5], R=1.0, G=[1.0, 2.0])
        m = 2.0 * np.diag([0.5, -0.3]) + spec.q
        w, v = np.linalg.eig(m)
        shift = np.linalg.solve(m, [1.0, 0.5])
        exact = ((v * np.exp(w)) @ np.linalg.inv(v)).real @ (np.array([1.0, 2.0]) + shift) - shift
        err = {n: float(np.max(np.abs(solve_esre(spec, SolverOptions(grid_steps=n)).P[0, :, 0, 0]
                                      - exact))) for n in (2, 4, 8)}
        for n in (2, 4):
            assert 7.8 <= np.log2(err[n] / err[2 * n]) <= 8.6

    def test_clip_names_the_step_it_refuses(self, monkeypatch):
        # fixed steps of 1e-3 on dP/dt = P^2 / R from G = 100, R = 0.01: the
        # first step's stiffness ratio is 20, and its P is far below 0
        monkeypatch.setattr(esre, "STEP_TOL", np.inf)
        monkeypatch.setattr(esre, "_MAX_FACTOR", 1.0)
        spec = scalar_spec(B=1.0, R=1e-2, G=1e2, delta=1e-3)
        with pytest.raises(PsdViolation, match=(
                r"^min eigenvalue \S+ at or below -matcore\.PSD_TOL = -1\.000e-09 at "
                r"t = 0\.999; the stiffness ratio dt \|2 B Sigma\^\{-1\} B' P\| of the "
                r"DOP853 step from t = 1 to 0\.999 is 2\.000e\+01; the clip refused "
                r"regime 1$")):
            solve_esre(spec, SolverOptions(grid_steps=1000))

    def test_step_budget_ends_in_a_refusal(self):
        # random_spec(404) takes 46 steps on any grid; 2 grid steps allow 32
        with pytest.raises(StepFailure, match=(
                r"^the budget of 32 steps is spent before the DOP853 step from t = \S+ "
                r"to \S+: its stiffness ratio dt \|2 B Sigma\^\{-1\} B' P\| is \S+ in "
                r"regime \d; refine the grid, whose spacing is the first step tried")):
            solve_esre(random_spec(404), SolverOptions(grid_steps=2))

    def test_random_family_against_a_finer_oracle(self, random_family):
        # the oracle at 8 x 800 steps runs RK4 at 16 x 800; the solve at
        # N = 800 is within 1.2e-11 of it
        for spec in random_family:
            p = solve_esre(spec, SolverOptions(grid_steps=800)).P
            ref = direct_coupled_oracle(spec, SolverOptions(grid_steps=8 * 800)).P[::8]
            assert np.max(np.linalg.norm(p - ref, axis=(-2, -1))) <= 1e-8


class TestTimeTables:
    """A coefficient table time is a jump of the right-hand side.  The
    direct solve ends a step there; a fixed-step sweep reads each step's
    coefficients on the step's interior, so its top stage reads the left
    limit, and it refuses a table time strictly between two nodes."""

    @pytest.mark.parametrize("steps", [500, 1000])
    def test_solve_and_oracle_match_joined_constant_solves(self, steps):
        # before the sweeps read left limits, the solve and the oracle were
        # both 6.248e-5 / 3.124e-5 off at P(0) (first order); now the solve
        # is within 1.4e-12 and the oracle (RK4 at 2N) within 5e-15
        spec = _weight_table_spec([0.0, 0.5], [1.0, 2.0])
        opts = SolverOptions(grid_steps=steps)
        exact = _joined_solves(0.5, steps // 2, steps // 2)
        for p in (solve_esre(spec, opts).P, direct_coupled_oracle(spec, opts).P):
            assert np.max(np.abs(p - exact)) <= 1e-10

    def test_table_time_between_nodes(self):
        # t1 = 1/3 is no node of a 500-step grid: the direct solve steps to
        # it, every fixed-step sweep refuses it and names a grid that has it
        spec = _weight_table_spec([0.0, 1.0 / 3.0], [1.0, 2.0])
        opts = SolverOptions(grid_steps=500)
        exact = _joined_solves(1.0 / 3.0, 200, 400)[0]
        assert np.max(np.abs(solve_esre(spec, opts).P[0] - exact)) <= 1e-11
        prev = GridIterate(np.linspace(0.0, 1.0, 501), np.ones((501, 2, 1, 1)),
                           np.zeros((501, 2, 1, 1)))
        for call in (lambda: direct_coupled_oracle(spec, opts), lambda: solve_p0(spec, opts),
                     lambda: picard_step(spec, prev, opts),
                     lambda: picard_certificate(spec, opts)):
            with pytest.raises(StructuralError, match=(
                    r"^coefficient table time 0\.333333 lies strictly between two nodes "
                    r"of the grid, and a fixed-step sweep reads one coefficient value per "
                    r"step; use grid_steps = 3 or a multiple of it$")):
                call()
        oracle = direct_coupled_oracle(spec, SolverOptions(grid_steps=501))
        assert np.max(np.abs(oracle.P[0] - exact)) <= 1e-10


def test_growth_constant_on_e1(e1):
    assert growth_constant(e1) == pytest.approx(1.0, abs=1e-12)


def test_fixed_point_reintegration(e1, e1_solution):
    # one backward step of the full coupled dynamics from a stored sample
    # must land on the next stored sample up to the resolved tolerance
    oracle = direct_coupled_oracle(e1, SolverOptions(grid_steps=2000))
    sol = e1_solution
    dt = sol.grid[1] - sol.grid[0]
    # the direct oracle and fixed point share grids; stepping the fixed
    # point's values through the oracle dynamics reproduces them
    for k in (0, 500, 1500):
        p_next = sol.P[k + 1]
        p_here = sol.P[k]
        # Euler step of the coupled right-hand side evaluated from stored data
        q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        rhs = -(np.einsum("ij,jab->iab", q, p_next) - p_next @ p_next)
        stepped = p_next - dt * rhs
        assert np.max(np.abs(stepped - p_here)) <= 10 * dt**2


class TestGoldenTree:
    """Tree answers pinned to 17 significant digits, taken before the
    guards read the disc bound and before the 1 x 1 Sigma became a
    division.  A change that moves them moves every tree answer."""

    def test_tree_random_q_config(self):
        cfg = parse_config(CONFIGS / "tree_random_q.yaml")
        p0 = solve_esre(cfg.problem, cfg.solver).P[0]
        got = [format(x, ".17g") for x in p0.ravel().tolist()]
        assert got == ["0.99875731394428791", "0.99875731394428791"]

    def test_two_states_with_control_noise(self):
        # n = 2, m = 1, D != 0: the 2 x 2 discs clip the levels and each
        # 1 x 1 Sigma is inverted by division
        rng = np.random.default_rng(5)
        spec = dataclasses.replace(_random_q_spec(24), D=0.08 * rng.standard_normal((3, 2, 1)))
        sol = solve_esre(spec, SolverOptions(backend="tree", tree_depth=24))
        assert sol.iterations == 14
        assert [format(x, ".17g") for x in sol.P[0].ravel().tolist()] == [
            "0.82833606737307031", "-0.37760348160936807", "-0.37760348160936807",
            "2.4418674809011041", "2.941229982099224", "-2.0745937794605029",
            "-2.0745937794605029", "3.9454578711373007", "1.2233754422968852",
            "-1.1532603366437117", "-1.1532603366437117", "3.2020651168488334"]


def _sigma_engine(m, r):
    """Grid engine of a problem with m controls, D = the first m unit
    vectors and R = r I, so that Sigma = r I + P[:m, :m]; its
    coefficients are constant, one piece, which the driver reads as h = 0."""
    ell, n = 2, 2
    spec = ProblemSpec(
        n=n, m=m, ell=ell, T=1.0, generator=[[-1.0, 1.0], [1.0, -1.0]],
        A=np.zeros((ell, n, n)), B=np.ones((ell, n, m)), C=np.zeros((ell, n, n)),
        D=np.stack([np.eye(n)[:, :m]] * ell), Q=np.stack([np.eye(n)] * ell),
        S=np.zeros((ell, m, n)), R=np.stack([r * np.eye(m)] * ell),
        G=np.stack([np.eye(n)] * ell), delta=0.5,
    )
    return esre._GridEngine(spec, SolverOptions(grid_steps=10))


@pytest.mark.parametrize("m", [1, 2])
def test_exactly_singular_sigma_is_refused(m):
    # Sigma = 1 - 1 = 0 exactly in regime 2 at a stage time: the 1 x 1
    # division and the LU inverse refuse it alike, naming the place
    with pytest.raises(NearSingular, match=(
            r"^R \+ D'PD is ill-conditioned at t = 0\.15 in regime 2: "
            r"condition number inf exceeds threshold 1\.000e\+12$")):
        _sigma_engine(m, 1.0)._driver(0, np.stack([np.eye(2), -np.eye(2)]), None, 0.0,
                                      t=0.15)


def test_singular_sigma_passing_the_condition_test_names_the_time(monkeypatch):
    # a zero pivot in a Sigma whose rounded eigenvalues pass the condition
    # test (a COND_THRESHOLD above its condition number) leaves only the
    # time to name; LU is made to fail on Sigma = I to show it
    def zero_pivot(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", zero_pivot)
    with pytest.raises(NearSingular, match=r"^R \+ D'PD is singular at t = 0\.15$"):
        _sigma_engine(2, 1.0)._driver(0, np.zeros((2, 2, 2)), None, 0.0, t=0.15)


def test_oracle_names_the_singular_sigma():
    # R = G = 0: Sigma = D'PD vanishes at t = T, where the first stage solves
    with pytest.raises(NearSingular, match=(
            r"^R \+ D'PD is ill-conditioned at t = 1 in regime 1: "
            r"condition number inf exceeds threshold 1\.000e\+12$")):
        direct_coupled_oracle(scalar_spec(B=1.0, R=0.0, D=1.0, G=0.0, delta=0.1),
                              SolverOptions(grid_steps=10))


def test_subnormal_one_by_one_sigma_goes_to_lu():
    # 1 / 1e-310 overflows with a RuntimeWarning that LU's inverse does not give
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _sigma_engine(1, 1e-310)._driver(0, np.zeros((2, 2, 2)), None, 0.0)
    assert not [w for w in caught if "divide" in str(w.message)]
