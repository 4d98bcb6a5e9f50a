"""Riccati solver: pointwise functionals, initial iterate, fixed-point
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

import numpy as np
import pytest

from regimelq.errors import (
    NoConvergence,
    PsdViolation,
    RegimeLQError,
    StepFailure,
    StructuralError,
)
from regimelq.esre import (
    BinomialTree,
    SolverOptions,
    direct_coupled_oracle,
    drift_h,
    drift_pi,
    f_of_theta,
    growth_constant,
    picard_step,
    solve_esre,
    solve_p0,
    theta_hat,
)
from regimelq.matcore import min_eigenvalue, symmetrize
from regimelq.model import tilde_transform, untilde_solution
from conftest import FAMILY_SEEDS, make_e1, random_spec, scalar_spec

E1_VALUE = 0.5
ASYM_P0_AT_0 = ((3.0 + (1.0 - np.exp(-2.0)) / 2.0) / 2.0,
                (3.0 - (1.0 - np.exp(-2.0)) / 2.0) / 2.0)
# frozen from the independent integrator below (dt = 1e-4, RK4-converged)
ASYM_FULL_AT_0 = (0.897489, 0.626213)


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
        out = drift_h(0.0, 1, [[1.0]], [[0.0]], [[1.0]], [[0.0]], spec)
        assert out[0, 0] == pytest.approx(-1.0, abs=1e-14)

    def test_vanishing_numerator(self):
        spec = scalar_spec(R=1.0, G=1.0)      # B = D = S = 0
        out = drift_h(0.0, 1, [[1.5]], [[0.2]], [[1.0]], [[0.0]], spec)
        assert out[0, 0] == 0.0

    def test_negative_semidefinite(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            spec_arrays = dict(
                A=np.zeros((2, n, n)),
                B=rng.standard_normal((2, n, m)),
                C=rng.standard_normal((2, n, n)),
                D=rng.standard_normal((2, n, m)) * 0.5,
                Q=np.zeros((2, n, n)),
                S=rng.standard_normal((2, m, n)),
                R=np.stack([np.eye(m)] * 2),
                G=np.zeros((2, n, n)),
            )
            from regimelq.model import ProblemSpec
            spec = ProblemSpec(n=n, m=m, ell=2, T=1.0,
                               generator=[[-1.0, 1.0], [1.0, -1.0]],
                               delta=0.5, **spec_arrays)
            w = rng.standard_normal((n, n))
            p = w @ w.T
            lam = symmetrize(rng.standard_normal((n, n)))
            r = np.eye(m) + 0.1 * np.eye(m)
            s = rng.standard_normal((m, n))
            out = drift_h(0.0, 1, p, lam, r, s, spec)
            assert min_eigenvalue(out) <= 1e-10


class TestThetaHat:
    def test_scalar_substitution(self):
        # zero generator keeps the rescaling trivial: Rtilde = R = 2
        spec = scalar_spec(B=3.0, R=2.0, G=1.0,
                           generator=[[0.0, 0.0], [0.0, 0.0]])
        th = theta_hat(0.0, 1, [[1.0]], [[0.0]], tilde_transform(spec))
        assert th[0, 0] == pytest.approx(-1.5, abs=1e-14)

    def test_zero_numerator(self):
        spec = scalar_spec(B=3.0, R=2.0, G=1.0)
        th = theta_hat(0.4, 2, [[0.0]], [[0.0]], tilde_transform(spec))
        assert th[0, 0] == 0.0

    def test_relates_to_quadratic_drift(self):
        # H == -theta' (Rtilde + D'PD) theta at theta = theta_hat
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
            tilde = tilde_transform(spec)
            w = rng.standard_normal((n, n))
            p = w @ w.T
            lam = symmetrize(0.3 * rng.standard_normal((n, n)))
            t, i = 0.3, 1
            th = theta_hat(t, i, p, lam, tilde)
            d = spec.D.eval(t, i)
            sigma = tilde.r_tilde(t, i) + d.T @ (p @ d)
            h = drift_h(t, i, p, lam, tilde.r_tilde(t, i), tilde.s_tilde(t, i), spec)
            assert np.max(np.abs(h - (-(th.T @ sigma @ th)))) <= 1e-10


class TestFOfTheta:
    def test_zero_gain_reduces_to_linear_drift(self):
        spec = scalar_spec(A=0.5, C=0.3, Q=0.7, R=1.0, G=1.0)
        tilde = tilde_transform(spec)
        p, lam = np.array([[1.2]]), np.array([[0.1]])
        t, i = 0.4, 1
        out = f_of_theta(t, i, p, lam, np.zeros((1, 1)), tilde)
        expected = drift_pi(t, i, p, lam, spec) + tilde.q_tilde(t, i)
        assert np.max(np.abs(out - expected)) <= 1e-14

    def test_scalar_substitution(self):
        spec = scalar_spec(B=1.0, R=1.0, G=1.0,
                           generator=[[0.0, 0.0], [0.0, 0.0]])
        out = f_of_theta(0.0, 1, [[1.0]], [[0.0]], [[-1.0]], tilde_transform(spec))
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
        tilde = tilde_transform(spec)
        w = rng.standard_normal((2, 2))
        p = w @ w.T
        lam = symmetrize(0.2 * rng.standard_normal((2, 2)))
        t, i = 0.6, 2
        th_star = theta_hat(t, i, p, lam, tilde)
        best = f_of_theta(t, i, p, lam, th_star, tilde)
        for _ in range(100):
            theta = th_star + rng.standard_normal((1, 2))
            other = f_of_theta(t, i, p, lam, theta, tilde)
            assert min_eigenvalue(other - best) >= -1e-9


# ---------------------------------------------------------------------------
# initial iterate
# ---------------------------------------------------------------------------


class TestSolveP0:
    def test_symmetric_case_is_constant_one(self, e1):
        it0 = solve_p0(e1, SolverOptions(grid_steps=400))
        p0, _ = untilde_solution(it0.values, it0.lam, e1.generator, it0.grid)
        assert np.max(np.abs(p0 - 1.0)) <= 1e-9

    def test_zero_generator_keeps_terminal_weight(self):
        spec = scalar_spec(R=1.0, G=0.7, Q=0.0,
                           generator=[[0.0, 0.0], [0.0, 0.0]])
        it0 = solve_p0(spec, SolverOptions(grid_steps=200))
        p0, _ = untilde_solution(it0.values, it0.lam, spec.generator, it0.grid)
        assert np.max(np.abs(p0 - 0.7)) <= 1e-12

    def test_asymmetric_matches_closed_form(self):
        it0 = solve_p0(asym_spec(), SolverOptions(grid_steps=800))
        p0, _ = untilde_solution(it0.values, it0.lam, asym_spec().generator, it0.grid)
        assert p0[0, 0, 0, 0] == pytest.approx(ASYM_P0_AT_0[0], abs=1e-9)
        assert p0[0, 1, 0, 0] == pytest.approx(ASYM_P0_AT_0[1], abs=1e-9)

    def test_initial_iterate_stays_psd(self, random_family):
        for spec in random_family:
            it0 = solve_p0(spec, SolverOptions(grid_steps=200))
            assert float(np.min(np.linalg.eigvalsh(it0.values))) >= -1e-10

    def test_tree_inner_fixed_point_can_exhaust_iterations(self, e1):
        with pytest.raises(NoConvergence) as err:
            solve_p0(e1, SolverOptions(backend="tree", tree_depth=8,
                                       picard_max_iter=1))
        assert len(err.value.residual_history) == 1


# ---------------------------------------------------------------------------
# one sweep
# ---------------------------------------------------------------------------


class TestPicardStep:
    def test_first_sweep_matches_scalar_riccati(self, e1):
        opts = SolverOptions(grid_steps=1000)
        it0 = solve_p0(e1, opts)
        it1 = picard_step(e1, it0, opts)
        p1, _ = untilde_solution(it1.values, it1.lam, e1.generator, it1.grid)
        assert p1[0, 0, 0, 0] == pytest.approx(_p1_closed_form(), abs=1e-6)

    def test_first_sweep_bracketed(self, e1):
        opts = SolverOptions(grid_steps=400)
        it1 = picard_step(e1, solve_p0(e1, opts), opts)
        p1, _ = untilde_solution(it1.values, it1.lam, e1.generator, it1.grid)
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
        with pytest.raises(PsdViolation):
            picard_step(e1, it0, opts)


# ---------------------------------------------------------------------------
# pipelined sweeps against the sweep-after-sweep replay
# ---------------------------------------------------------------------------


def _replay(spec, options, values, residuals):
    """The fixed point as public ``solve_p0`` + repeated ``picard_step``.

    Fills ``values`` (iterate 0 on) and ``residuals`` as it goes, so both
    hold the completed sweeps when a sweep raises.
    """
    prev = solve_p0(spec, options)
    values.append(prev.values)
    for _ in range(options.picard_max_iter):
        cur = picard_step(spec, prev, options)
        residuals.append(float(np.max(np.linalg.norm(cur.values - prev.values,
                                                     axis=(-2, -1)))))
        values.append(cur.values)
        prev = cur
        if residuals[-1] <= options.picard_tol:
            return
    raise NoConvergence("replay did not converge", residual_history=residuals)


def _table_spec():
    """Family member 303 with time-table A, C and Q (three pieces)."""
    from regimelq.model import CoefficientField, ProblemSpec

    base = random_spec(303)
    times = [0.0, 0.3, 0.7]

    def table(field, factors):
        return CoefficientField.from_table(times, np.stack([field.values * f for f in factors]))

    return ProblemSpec(
        n=base.n, m=base.m, ell=base.ell, T=base.T, generator=base.q,
        A=table(base.A, (1.0, 0.5, -0.3)), B=base.B.values,
        C=table(base.C, (1.0, 0.2, 0.7)), D=base.D.values,
        Q=table(base.Q, (1.0, 2.0, 0.5)), S=base.S.values, R=base.R.values,
        G=base.G.values, delta=base.delta, x0=np.ones(base.n), i0=1,
    )


def _rank_one_spec():
    """Weights of rank one along a rotated direction: P keeps an exact null
    direction, so roundoff leaves eigenvalues of about -1e-17 that the PSD
    projection clips in some sweeps but not in others."""
    from regimelq.model import ProblemSpec

    c, s = np.cos(0.7), np.sin(0.7)
    u = np.array([[c, -s], [s, c]])
    w = u @ np.diag([1.0, 0.0]) @ u.T
    return ProblemSpec(
        n=2, m=1, ell=2, T=1.0, generator=[[-1.0, 1.0], [2.0, -2.0]],
        A=np.zeros((2, 2, 2)), B=np.stack([u[:, :1]] * 2), C=np.zeros((2, 2, 2)),
        D=np.zeros((2, 2, 1)), Q=np.stack([w, 2.0 * w]), S=np.zeros((2, 1, 2)),
        R=np.ones((2, 1, 1)), G=np.stack([w, 0.5 * w]), delta=0.5,
    )


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
    """Assert the solve raises exactly what the replay raises; return the
    number of sweeps the replay completed first."""
    values, residuals = [], []
    with pytest.raises(RegimeLQError) as ref:
        _replay(spec, options, values, residuals)
    with pytest.raises(RegimeLQError) as got:
        solve_esre(spec, options)
    assert type(got.value) is type(ref.value)
    assert str(got.value) == str(ref.value)
    return len(residuals)


class TestPipelinedSweeps:
    """``solve_esre`` runs its sweeps in lockstep; every iterate, residual
    and error must be bit for bit those of the sequential replay."""

    @staticmethod
    def _assert_replayed(spec, sol):
        values, residuals = [], []
        _replay(spec, sol.options, values, residuals)
        assert sol.iterations == len(residuals)
        assert sol.residual_history == residuals
        assert np.array_equal(sol.Ptilde, values[-1])
        p, _ = untilde_solution(values[-1], np.zeros_like(values[-1]),
                                spec.generator, sol.grid)
        p[-1] = sol.P[-1]
        assert np.array_equal(sol.P, p)
        assert len(sol.iterates) == len(values)
        assert all(np.array_equal(a, b) for a, b in zip(sol.iterates, values))

    def test_e1(self, e1, e1_solution):
        self._assert_replayed(e1, e1_solution)

    def test_e1_general_d_algebra(self, e1):
        opts = SolverOptions(grid_steps=800, force_general_d=True, keep_iterates=True)
        self._assert_replayed(e1, solve_esre(e1, opts))

    @pytest.mark.parametrize("seed", FAMILY_SEEDS)
    def test_family(self, seed):
        spec = random_spec(seed)
        sol = solve_esre(spec, SolverOptions(grid_steps=800, keep_iterates=True))
        self._assert_replayed(spec, sol)

    def test_time_table_coefficients(self):
        spec = _table_spec()
        sol = solve_esre(spec, SolverOptions(grid_steps=500, keep_iterates=True))
        self._assert_replayed(spec, sol)

    def test_psd_clips_in_some_sweeps_only(self):
        spec = _rank_one_spec()
        sol = solve_esre(spec, SolverOptions(grid_steps=300, keep_iterates=True))
        self._assert_replayed(spec, sol)

    def test_no_convergence_history(self, e1):
        opts = SolverOptions(grid_steps=400, picard_max_iter=3)
        values, residuals = [], []
        with pytest.raises(NoConvergence):
            _replay(e1, opts, values, residuals)
        with pytest.raises(NoConvergence) as err:
            solve_esre(e1, opts)
        assert err.value.residual_history == residuals

    def test_stiff_terminal_weight_fails_in_sweep_one(self):
        spec = scalar_spec(B=1.0, R=1e-6, G=1e7, delta=1e-7)
        assert _same_error(spec, SolverOptions(grid_steps=400)) == 0

    def test_long_horizon_fails_in_sweep_one(self):
        spec = scalar_spec(A=0.5, Q=1.0, B=1.0, R=1.0, G=1.0, T=50.0)
        assert _same_error(spec, SolverOptions(grid_steps=2000)) == 0

    @pytest.mark.filterwarnings("ignore:measured diffusion size")
    def test_trailing_sweep_error_is_held(self):
        # sweep 3 fails at t = 0.89 while sweeps 1 and 2 are still stepping;
        # its error waits for them and the sweeps behind it are dropped
        opts = SolverOptions(grid_steps=400, cond_threshold=3.99)
        assert _same_error(_ill_conditioned_spec(), opts) == 2

    @pytest.mark.filterwarnings("ignore:measured diffusion size")
    def test_earlier_sweep_error_replaces_held_one(self):
        # sweep 3 fails first in lockstep order (t = 0.895), sweep 2 two
        # steps later (t = 0.89); the replay only ever meets sweep 2's error
        opts = SolverOptions(grid_steps=400, cond_threshold=3.985)
        assert _same_error(_ill_conditioned_spec(), opts) == 1


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

    def test_residual_history_contracts_to_tolerance(self, e1_solution):
        hist = e1_solution.residual_history
        assert hist[-1] <= e1_solution.options.picard_tol
        assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_iterates_monotone_and_psd(self, e1_solution):
        its = e1_solution.iterates
        assert len(its) == e1_solution.iterations + 1
        for prev, cur in zip(its, its[1:]):
            assert float(np.min(np.linalg.eigvalsh(prev - cur))) >= -1e-8
        for it in its:
            assert float(np.min(np.linalg.eigvalsh(it))) >= -1e-9
        # every iterate sits below the initial one
        for it in its[1:]:
            assert float(np.min(np.linalg.eigvalsh(its[0] - it))) >= -1e-8

    def test_asymmetric_values_match_independent_integrator(self):
        sol = solve_esre(asym_spec(), SolverOptions(grid_steps=800))
        oracle = _asym_oracle(1e-3)
        assert oracle[0] == pytest.approx(ASYM_FULL_AT_0[0], abs=5e-6)
        assert oracle[1] == pytest.approx(ASYM_FULL_AT_0[1], abs=5e-6)
        assert sol.P[0, 0, 0, 0] == pytest.approx(oracle[0], abs=1e-6)
        assert sol.P[0, 1, 0, 0] == pytest.approx(oracle[1], abs=1e-6)

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
        # constant up to the 4th-order truncation of the rescaling factor
        assert np.max(np.abs(sol.P - g0)) <= 1e-10

    def test_linear_regime_scales_linearly(self):
        base = scalar_spec(R=1.0, Q=0.4, G=0.8, delta=0.5)
        scaled = scalar_spec(R=1.0, Q=3 * 0.4, G=3 * 0.8, delta=0.5)
        opts = SolverOptions(grid_steps=200)
        a = solve_esre(base, opts)
        b = solve_esre(scaled, opts)
        assert np.max(np.abs(3.0 * a.P - b.P)) <= 1e-10

    def test_zero_d_general_algebra_identical(self, e1):
        opts_fast = SolverOptions(grid_steps=300)
        opts_gen = SolverOptions(grid_steps=300, force_general_d=True)
        a = solve_esre(e1, opts_fast)
        b = solve_esre(e1, opts_gen)
        assert np.max(np.abs(a.P - b.P)) <= 1e-12

    def test_no_convergence_carries_history(self, e1):
        with pytest.raises(NoConvergence) as err:
            solve_esre(e1, SolverOptions(grid_steps=100, picard_max_iter=1))
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
        assert d.apriori_bound == np.inf and d.log_apriori_bound == np.inf
        assert d.log_measured_sup <= d.log_apriori_bound
        assert np.all(np.isfinite(sol.P))

    def test_smallness_recorded(self, e1_solution):
        assert e1_solution.diagnostics.smallness == 0.0
        assert e1_solution.diagnostics.smallness_ok

    def test_large_control_noise_warns_but_solves(self):
        spec = scalar_spec(B=1.0, D=1.0, R=1.0, G=1.0, delta=0.5)
        with pytest.warns(UserWarning, match="diffusion size"):
            sol = solve_esre(spec, SolverOptions(grid_steps=300))
        assert not sol.diagnostics.smallness_ok
        assert sol.residual_history[-1] <= sol.options.picard_tol


class TestTreeBackend:
    def test_lattice_shape(self):
        tree = BinomialTree(4, 1.0)
        assert tree.dt == 0.25
        assert tree.w(3, 3) == pytest.approx(3 * 0.5)
        assert tree.w(2, 1) == 0.0

    def test_deterministic_tree_matches_closed_form_coarsely(self, e1):
        sol = solve_esre(e1, SolverOptions(backend="tree", tree_depth=10))
        assert abs(sol.P[0, 0, 0, 0] - E1_VALUE) <= 0.05
        assert all(float(np.max(np.abs(lv))) == 0.0 for lv in sol.tree.lam_levels)

    def test_tree_iterates_monotone_and_psd(self, e1):
        sol = solve_esre(e1, SolverOptions(backend="tree", tree_depth=8,
                                           keep_iterates=True))
        for prev, cur in zip(sol.iterates, sol.iterates[1:]):
            for lp, lc in zip(prev, cur):
                assert float(np.min(np.linalg.eigvalsh(lp - lc))) >= -1e-8
        for it in sol.iterates:
            for lv in it:
                assert float(np.min(np.linalg.eigvalsh(lv))) >= -1e-9

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
        assert np.array_equal(sol.tree.p_levels[depth], np.ones((depth + 1, 2, 1, 1)))
        for lv in sol.tree.p_levels:
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


class TestDirectOracle:
    def test_closed_form(self, e1):
        sol = direct_coupled_oracle(e1, SolverOptions(grid_steps=2000))
        assert abs(sol.P[0, 0, 0, 0] - E1_VALUE) <= 1e-8

    def test_agrees_with_fixed_point(self, e1, e1_solution):
        oracle = direct_coupled_oracle(e1, SolverOptions(grid_steps=2000))
        tol = max(1e-8, 10 * e1_solution.options.picard_tol)
        assert np.max(np.abs(oracle.P - e1_solution.P)) <= tol

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

    def test_time_table_coefficients_cross_check(self):
        # piecewise-constant control weight, sampled identically by the
        # fixed point and the direct integration
        from regimelq.model import CoefficientField, ProblemSpec
        r_field = CoefficientField.from_table(
            [0.0, 0.5],
            np.array([[[[1.0]], [[1.0]]], [[[2.0]], [[2.0]]]]),
        )
        spec = ProblemSpec(
            n=1, m=1, ell=2, T=1.0, generator=[[-1.0, 1.0], [1.0, -1.0]],
            A=np.zeros((2, 1, 1)), B=np.ones((2, 1, 1)), C=np.zeros((2, 1, 1)),
            D=np.zeros((2, 1, 1)), Q=np.full((2, 1, 1), 0.3),
            S=np.zeros((2, 1, 1)), R=r_field, G=np.ones((2, 1, 1)), delta=0.5,
        )
        opts = SolverOptions(grid_steps=500)
        sol = solve_esre(spec, opts)
        oracle = direct_coupled_oracle(spec, opts)
        assert np.max(np.abs(sol.P - oracle.P)) <= 1e-7
        # cheaper control on [0, 0.5) means more aggressive early damping
        assert sol.P[0, 0, 0, 0] < sol.P[len(sol.grid) // 2, 0, 0, 0] + 0.5


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
