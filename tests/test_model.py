"""Problem definition: coefficient fields, assumption validation, the
diffusion-size measure and the exponential rescaling."""

import numpy as np
import pytest

from regimelq.errors import OutOfRange, StructuralError
from regimelq.model import (
    CoefficientField,
    ProblemSpec,
    check_smallness,
    tilde_transform,
    untilde_solution,
    validate_assumptions,
)
from conftest import make_e1, scalar_spec


class TestCoefficientField:
    def test_constant_everywhere(self):
        f = CoefficientField.constant(np.full((2, 1, 1), 3.0))
        for t in (0.0, 0.3, 1.0):
            for i in (1, 2):
                assert f.eval(t, i) == np.array([[3.0]])

    def test_table_left_piecewise(self):
        f = CoefficientField.from_table(
            [0.0, 0.5], np.array([[[[1.0]], [[1.0]]], [[[2.0]], [[2.0]]]])
        )
        assert f.eval(0.49, 1)[0, 0] == 1.0
        assert f.eval(0.5, 1)[0, 0] == 2.0

    def test_table_right_closed_at_horizon(self):
        f = CoefficientField.from_table(
            [0.0, 0.5], np.array([[[[1.0]], [[1.0]]], [[[2.0]], [[2.0]]]])
        )
        assert f.eval(1.0, 2)[0, 0] == 2.0

    def test_table_times_must_increase_from_zero(self):
        vals = np.zeros((2, 2, 1, 1))
        with pytest.raises(StructuralError):
            CoefficientField.from_table([0.1, 0.5], vals)
        with pytest.raises(StructuralError):
            CoefficientField.from_table([0.0, 0.0], vals)

    def test_bad_regime_rejected(self):
        f = CoefficientField.constant(np.zeros((2, 1, 1)))
        with pytest.raises(OutOfRange):
            f.eval(0.0, 3)

    def test_tree_field_node_lookup(self):
        f = CoefficientField.from_tree_function(
            lambda t, w, i: [[w]], depth=3, T=1.0, ell=2, shape=(1, 1)
        )
        dt = 1.0 / 3
        assert f.eval(2 * dt, 1, node=(2, 2))[0, 0] == pytest.approx(2 * np.sqrt(dt))
        assert f.eval(2 * dt, 1, node=(2, 1))[0, 0] == pytest.approx(0.0)
        with pytest.raises(OutOfRange):
            f.eval(0.0, 1)          # node required
        with pytest.raises(OutOfRange):
            f.eval(0.0, 1, node=(5, 0))


class TestProblemSpec:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            ProblemSpec(
                n=2, m=1, ell=2, T=1.0, generator=[[-1.0, 1.0], [1.0, -1.0]],
                A=np.zeros((2, 1, 1)), B=np.zeros((2, 2, 1)), C=np.zeros((2, 2, 2)),
                D=np.zeros((2, 2, 1)), Q=np.zeros((2, 2, 2)), S=np.zeros((2, 1, 2)),
                R=np.ones((2, 1, 1)), G=np.zeros((2, 2, 2)), delta=0.1,
            )

    def test_asymmetric_weight_rejected(self):
        bad_q = np.array([[[0.0, 1.0], [0.0, 0.0]]] * 2)
        with pytest.raises(StructuralError):
            ProblemSpec(
                n=2, m=1, ell=2, T=1.0, generator=[[-1.0, 1.0], [1.0, -1.0]],
                A=np.zeros((2, 2, 2)), B=np.zeros((2, 2, 1)), C=np.zeros((2, 2, 2)),
                D=np.zeros((2, 2, 1)), Q=bad_q, S=np.zeros((2, 1, 2)),
                R=np.ones((2, 1, 1)), G=np.zeros((2, 2, 2)), delta=0.1,
            )

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(StructuralError):
            scalar_spec(R=1.0, T=0.0)

    def test_shared_matrix_broadcasts_over_regimes(self):
        spec = make_e1()
        assert spec.B.eval(0.0, 1) == spec.B.eval(0.0, 2)


class TestValidateAssumptions:
    def test_all_margins_positive(self):
        spec = scalar_spec(R=1.0, Q=1.0, G=1.0, delta=0.5)
        assert validate_assumptions(spec).passed

    def test_control_weight_below_floor(self):
        spec = scalar_spec(R=0.1, Q=1.0, G=1.0, delta=0.5)
        report = validate_assumptions(spec)
        assert not report.passed
        kinds = {v.assumption for v in report.violations}
        assert "R_lower" in kinds

    def test_schur_complement_violation(self):
        # Q - S'R^{-1}S = 1 - 4 = -3
        spec = scalar_spec(R=1.0, Q=1.0, S=2.0, G=1.0, delta=0.5)
        report = validate_assumptions(spec)
        assert not report.passed
        schur = [v for v in report.violations if v.assumption == "Q_schur"]
        assert schur and schur[0].margin == pytest.approx(-3.0, abs=1e-12)

    def test_negative_terminal_weight(self):
        spec = scalar_spec(R=1.0, G=-0.5, delta=0.5)
        report = validate_assumptions(spec)
        assert any(v.assumption == "G_psd" for v in report.violations)

    def test_monotone_in_tolerance(self):
        spec = scalar_spec(R=1.0, Q=1.0, S=2.0, G=1.0, delta=0.5)
        # fails at tight tolerance, passes once tol exceeds the margin
        assert not validate_assumptions(spec, tol=1e-9).passed
        assert validate_assumptions(spec, tol=3.5).passed

    def test_reports_every_failure(self):
        spec = scalar_spec(R=0.1, Q=-1.0, G=-1.0, delta=0.5)
        report = validate_assumptions(spec)
        kinds = {v.assumption for v in report.violations}
        assert kinds == {"R_lower", "Q_schur", "G_psd"}


class TestCheckSmallness:
    def test_zero_control_noise_gives_zero(self):
        assert check_smallness(make_e1()) == 0.0

    def test_scalar_closed_form(self):
        # exp(-q_ii t) |D R^{-1} D'| = exp(t) * 0.5, maximal at t = T = 1
        spec = scalar_spec(D=1.0, R=2.0, G=1.0, delta=0.5)
        assert check_smallness(spec) == pytest.approx(np.e / 2.0, rel=1e-12)

    def test_zero_generator_row(self):
        spec = scalar_spec(D=1.0, R=1.0, G=1.0, delta=0.5,
                           generator=[[0.0, 0.0], [0.0, 0.0]])
        assert check_smallness(spec) == pytest.approx(1.0, rel=1e-12)

    def test_invariant_under_joint_scaling(self):
        base = scalar_spec(D=1.0, R=2.0, G=1.0, delta=0.5)
        c = 3.0
        scaled = scalar_spec(D=c, R=c * c * 2.0, G=1.0, delta=0.5)
        assert check_smallness(scaled) == pytest.approx(check_smallness(base), rel=1e-12)


class TestTildeTransform:
    def test_zero_generator_is_identity(self):
        spec = scalar_spec(Q=2.0, R=1.0, G=1.0, delta=0.5,
                           generator=[[0.0, 0.0], [0.0, 0.0]])
        tilde = tilde_transform(spec)
        assert tilde.q_tilde(0.7, 1)[0, 0] == 2.0
        assert tilde.g_tilde(2)[0, 0] == 1.0

    def test_scalar_rescaling(self):
        spec = scalar_spec(Q=2.0, R=1.0, G=1.0, delta=0.5)   # q_ii = -1
        tilde = tilde_transform(spec)
        assert tilde.q_tilde(1.0, 1)[0, 0] == pytest.approx(2.0 * np.exp(-1.0), rel=1e-14)

    def test_terminal_rescaling(self):
        spec = ProblemSpec(
            n=2, m=1, ell=2, T=0.5, generator=[[-2.0, 2.0], [2.0, -2.0]],
            A=np.zeros((2, 2, 2)), B=np.zeros((2, 2, 1)), C=np.zeros((2, 2, 2)),
            D=np.zeros((2, 2, 1)), Q=np.zeros((2, 2, 2)), S=np.zeros((2, 1, 2)),
            R=np.ones((2, 1, 1)), G=np.stack([np.eye(2)] * 2), delta=0.5,
        )
        tilde = tilde_transform(spec)
        assert np.allclose(tilde.g_tilde(1), np.exp(-1.0) * np.eye(2), rtol=1e-14)

    def test_untilde_round_trip(self):
        spec = make_e1()
        tilde = tilde_transform(spec)
        grid = np.linspace(0.0, 1.0, 11)
        rng = np.random.default_rng(0)
        p = rng.standard_normal((11, 2, 1, 1))
        p = 0.5 * (p + p.transpose(0, 1, 3, 2))
        lam = np.zeros_like(p)
        ptilde = p * tilde.scale(grid)[:, :, None, None]
        back, _ = untilde_solution(ptilde, lam, spec.generator, grid)
        assert np.max(np.abs(back - p)) <= 1e-14

    def test_untilde_scalar_value(self):
        spec = make_e1()                       # q_ii = -1
        grid = np.array([1.0])
        ptilde = np.full((1, 2, 1, 1), np.exp(-1.0))
        p, _ = untilde_solution(ptilde, np.zeros_like(ptilde), spec.generator, grid)
        assert p[0, 0, 0, 0] == pytest.approx(1.0, rel=1e-14)

    def test_coupling_weights(self):
        spec = make_e1()
        tilde = tilde_transform(spec)
        w = tilde.coupling_weights(0.3)
        assert w[0, 0] == 0.0 and w[1, 1] == 0.0
        # symmetric generator: q_ii = q_jj, so the factor is exactly q_ij
        assert w[0, 1] == pytest.approx(1.0, rel=1e-14)
