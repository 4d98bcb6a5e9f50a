"""Problem definition: coefficient fields, assumption validation and the
diffusion-size measure."""

import re

import numpy as np
import pytest

from regimelq import matcore
from regimelq.errors import DimensionMismatch, OutOfRange, StructuralError
from regimelq.matcore import min_eigenvalue, sym_inverse, symmetrize
from regimelq.model import (
    CoefficientField,
    ProblemSpec,
    ValidationReport,
    Violation,
    check_smallness,
    validate_assumptions,
)
from conftest import make_e1, scalar_spec


def _points(spec, fields):
    """(where, time, node) of every check point: the lattice nodes in
    level order when a field is random, else 0, T and the table times."""
    if any(f.is_random for f in fields):
        depth = next(f.depth for f in fields if f.is_random)
        dt = spec.T / depth
        return [((k, j), k * dt, (k, j)) for k in range(depth + 1) for j in range(k + 1)]
    times = {0.0, spec.T}
    for f in fields:
        if f.kind == "time_table":
            times.update(float(t) for t in f.times)
    return [(t, t, None) for t in sorted(times)]


def _validate_by_point(spec, tol=1e-9):
    """The definiteness checks as one loop over regimes and check points,
    one ``eval`` per coefficient, point and regime (the reference)."""
    violations = []
    for i in range(1, spec.ell + 1):
        for where, t, node in _points(spec, (spec.Q, spec.S, spec.R)):
            r, s, q = (f.eval(t, i, node=node) for f in (spec.R, spec.S, spec.Q))
            lo = min_eigenvalue(r - spec.delta * np.eye(spec.m))
            if lo < -tol:
                violations.append(Violation("R_lower", i, where, lo))
            try:
                lo = min_eigenvalue(symmetrize(q - s.T @ np.linalg.solve(r, s)))
                if lo < -tol:
                    violations.append(Violation("Q_schur", i, where, lo))
            except np.linalg.LinAlgError:
                violations.append(Violation("Q_schur", i, where, -np.inf))
    leaves = ([(spec.G.depth, j) for j in range(spec.G.depth + 1)]
              if spec.G.is_random else [None])
    for i in range(1, spec.ell + 1):
        for node in leaves:
            lo = min_eigenvalue(spec.G.eval(spec.T, i, node=node))
            if lo < -tol:
                violations.append(Violation("G_psd", i, spec.T if node is None else node, lo))
    return ValidationReport(passed=not violations, violations=tuple(violations))


def _smallness_by_point(spec):
    """check_smallness as one loop over regimes and check points."""
    qdiag = np.diag(spec.q)
    points = _points(spec, (spec.D, spec.R))
    worst = 0.0
    for i in range(1, spec.ell + 1):
        for p, (where, t, node) in enumerate(points):
            d = spec.D.eval(t, i, node=node)
            if not d.any():
                continue
            r = spec.R.eval(t, i, node=node)
            if node is None:
                t_right = points[p + 1][1] if p + 1 < len(points) else spec.T
            else:
                t_right = min((node[0] + 1) * (spec.T / spec.D.depth), spec.T)
            val = np.linalg.norm(d @ sym_inverse(r) @ d.T) * np.exp(-qdiag[i - 1] * t_right)
            worst = max(worst, float(val))
    return worst


def _two_by_two_spec(depth=6, **fields):
    """n = m = 2, three regimes; any coefficient may be overridden."""
    rng = np.random.default_rng(3)
    ell, n = 3, 2
    q = rng.uniform(0.2, 1.0, (ell, ell))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    coef = dict(A=np.zeros((ell, n, n)), B=np.ones((ell, n, n)), C=np.zeros((ell, n, n)),
                D=np.zeros((ell, n, n)), Q=np.stack([np.eye(n)] * ell),
                S=0.1 * rng.standard_normal((ell, n, n)), R=np.stack([np.eye(n)] * ell),
                G=np.stack([np.eye(n)] * ell))
    coef.update(fields)
    return ProblemSpec(n=n, m=n, ell=ell, T=1.0, generator=q, delta=0.5, **coef)


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

    def test_table_times_must_be_numbers_in_order(self):
        # a NaN time passed the increase test, as every comparison with NaN fails
        with pytest.raises(StructuralError, match="increase strictly"):
            CoefficientField.from_table([0.0, np.nan], np.zeros((2, 2, 1, 1)))

    def test_shared_matrix_form_given_ell(self):
        m = [[1.0, 2.0], [3.0, 4.0]]
        per_regime = np.array([m, m, m])
        for shared, full in [
            (CoefficientField.constant(m, 3), CoefficientField.constant(per_regime)),
            (CoefficientField.from_table([0.0, 0.5], [m, m], 3),
             CoefficientField.from_table([0.0, 0.5], [per_regime, per_regime])),
            (CoefficientField.from_tree([[m], [m, m]], 3),
             CoefficientField.from_tree([[per_regime], [per_regime, per_regime]])),
        ]:
            assert (shared.kind, shared.shape, shared.ell) == (full.kind, full.shape, 3)
            for a, b in zip(shared.levels or (shared.values,), full.levels or (full.values,)):
                assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
        # per-regime matrices pass through, and without ell a matrix is no field
        assert CoefficientField.constant(per_regime, 3).ell == 3
        with pytest.raises(StructuralError, match="per-regime matrices"):
            CoefficientField.constant(m)

    @pytest.mark.parametrize("build, what", [
        (lambda: CoefficientField.from_table([0.0, 0.5], [[[1.0]], [[[1.0]], [[2.0]]]], 2),
         "time table values"),
        (lambda: CoefficientField.from_tree([[[[1.0]]], [[[1.0]], [[[1.0]], [[2.0]]]]], 2),
         "tree level 1"),
    ], ids=["time_table", "tree_level"])
    def test_one_form_per_conversion(self, build, what):
        with pytest.raises(StructuralError, match=f"^{what} must be an array of numbers: "):
            build()

    @pytest.mark.parametrize("build, place", [
        (lambda: CoefficientField.constant([[[1.0]], [[np.nan]]]), "at regime 2"),
        (lambda: CoefficientField.constant([[np.inf]], 2), "entry inf at regime 1"),
        (lambda: CoefficientField.from_table([0.0, 0.5], [[[1.0]], [[-np.inf]]], 2),
         "entry -inf at time 0.5, regime 1"),
        (lambda: CoefficientField.from_tree(
            [[[[[1.0]], [[1.0]]]], [[[[1.0]], [[1.0]]], [[[1.0]], [[np.nan]]]]]),
         "entry nan at node (1, 1), regime 2"),
    ], ids=["constant", "shared", "time_table", "tree_table"])
    def test_non_finite_entry_names_its_place(self, build, place):
        with pytest.raises(StructuralError, match=re.escape(place) + "$"):
            build()

    def test_bad_regime_rejected(self):
        f = CoefficientField.constant(np.zeros((2, 1, 1)))
        with pytest.raises(OutOfRange):
            f.eval(0.0, 3)

    @pytest.mark.parametrize("regime", [0, -1, 1.0, True, "1"])
    def test_regime_must_be_an_integer_in_range(self, regime):
        f = CoefficientField.constant(np.arange(2.0).reshape(2, 1, 1))
        with pytest.raises(OutOfRange, match="not an integer in 1..2"):
            f.eval(0.0, regime)
        assert f.eval(0.0, np.int64(2))[0, 0] == 1.0

    @pytest.mark.parametrize("build", [
        lambda bad: CoefficientField.constant(np.full((2, 1, 1), bad)),
        lambda bad: CoefficientField.from_table([0.0, 0.5], np.full((2, 2, 1, 1), bad)),
        lambda bad: CoefficientField.from_tree_function(
            lambda t, w, i: [[bad if w > 0.0 else 1.0]], 3, 1.0, 2, (1, 1)),
    ], ids=["constant", "time_table", "tree_table"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_refused(self, build, bad):
        with pytest.raises(StructuralError, match="non-finite"):
            build(bad)

    @pytest.mark.parametrize("build, what", [
        (lambda: CoefficientField.constant("abc"), "constant field"),
        (lambda: CoefficientField.constant([[[1.0]], [[1.0, 2.0]]]), "constant field"),
        (lambda: CoefficientField.from_table([0.0, "x"], np.ones((2, 2, 1, 1))),
         "time table times"),
        (lambda: CoefficientField.from_tree([np.ones((1, 2, 1, 1)), "ab"]), "tree level 1"),
    ], ids=["string", "ragged", "table-times", "tree-level"])
    def test_non_numeric_values_refused(self, build, what):
        # numpy's own ValueError used to reach library callers
        with pytest.raises(StructuralError, match=f"^{what} must be an array of numbers: "):
            build()

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

    @pytest.mark.parametrize("name", ["A", "B", "D", "Q", "R", "G"])
    def test_non_finite_coefficient_refused_by_name(self, name):
        with pytest.raises(StructuralError, match=f"^{name}: .*non-finite"):
            scalar_spec(**{"B": 1.0, "R": 1.0, "G": 1.0, name: [1.0, np.nan]})

    @pytest.mark.parametrize("i0", [0, 3, 1.5, True])
    def test_initial_regime_checked(self, i0):
        with pytest.raises(OutOfRange, match="initial regime"):
            make_e1(i0=i0)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(StructuralError):
            scalar_spec(R=1.0, T=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field, words", [("T", "horizon T"), ("delta", "delta")])
    def test_non_finite_horizon_and_margin_refused(self, field, words, bad):
        # unrefused, T = inf overflows in the solve, T = nan fails as a PSD
        # violation at t = nan, and delta = nan passes every R - delta I test
        with pytest.raises(StructuralError, match=f"{words} must be positive and finite"):
            make_e1(**{field: bad})

    def test_tree_fields_must_share_depth(self):
        q4 = CoefficientField.from_tree_function(lambda t, w, i: [[1.0]], 4, 1.0, 2, (1, 1))
        r5 = CoefficientField.from_tree_function(lambda t, w, i: [[1.0]], 5, 1.0, 2, (1, 1))
        with pytest.raises(StructuralError, match="depth"):
            ProblemSpec(n=1, m=1, ell=2, T=1.0, generator=[[-1.0, 1.0], [1.0, -1.0]],
                        A=np.zeros((2, 1, 1)), B=np.ones((2, 1, 1)),
                        C=np.zeros((2, 1, 1)), D=np.zeros((2, 1, 1)), Q=q4,
                        S=np.zeros((2, 1, 1)), R=r5, G=np.ones((2, 1, 1)), delta=0.5)

    def test_asymmetric_tree_node_rejected(self):
        def q(t, w, i):
            return [[1.0, 0.5 if (i == 2 and w > 1.0) else 0.0], [0.0, 1.0]]
        qf = CoefficientField.from_tree_function(q, 3, 1.0, 2, (2, 2))
        with pytest.raises(StructuralError, match="Q must be symmetric"):
            ProblemSpec(n=2, m=1, ell=2, T=1.0, generator=[[-1.0, 1.0], [1.0, -1.0]],
                        A=np.zeros((2, 2, 2)), B=np.ones((2, 2, 1)),
                        C=np.zeros((2, 2, 2)), D=np.zeros((2, 2, 1)), Q=qf,
                        S=np.zeros((2, 1, 2)), R=np.ones((2, 1, 1)),
                        G=np.stack([np.eye(2)] * 2), delta=0.5)

    @pytest.mark.parametrize("field, value", [
        ("n", 0), ("m", 0), ("n", -1), ("m", 1.0), ("ell", True),
    ])
    def test_dimensions_must_be_positive_integers(self, field, value):
        # n = 0 used to pass and end the solve in a raw IndexError
        dims = dict(n=1, m=1, ell=2)
        dims[field] = value
        with pytest.raises(StructuralError, match=f"{field} must be an integer >= 1"):
            ProblemSpec(**dims, T=1.0, generator=[[-1.0, 1.0], [1.0, -1.0]],
                        A=np.zeros((1, 1)), B=np.ones((1, 1)), C=np.zeros((1, 1)),
                        D=np.zeros((1, 1)), Q=np.zeros((1, 1)), S=np.zeros((1, 1)),
                        R=np.ones((1, 1)), G=np.ones((1, 1)), delta=0.5)

    @pytest.mark.parametrize("x0", [np.nan, np.inf])
    def test_non_finite_x0_refused(self, x0):
        with pytest.raises(OutOfRange, match="x0 must be finite"):
            make_e1(x0=x0)

    def test_x0_of_another_size_refused(self):
        with pytest.raises(DimensionMismatch, match="x0 has 2 entries"):
            scalar_spec(B=1.0, R=1.0, x0=[1.0, 2.0])

    def test_shared_matrix_broadcasts_over_regimes(self):
        spec = make_e1()
        assert spec.B.eval(0.0, 1) == spec.B.eval(0.0, 2)

    def test_caller_field_is_kept(self):
        # symmetrizing Q used to rewrite the caller's field, here also C,
        # which no rule asks to be symmetric
        mats = np.array([[[1.0, 5e-11], [0.0, 1.0]]] * 2)
        field = CoefficientField.constant(mats.copy())
        before = field.values
        spec = ProblemSpec(n=2, m=1, ell=2, T=1.0, generator=[[-1.0, 1.0], [1.0, -1.0]],
                           A=np.zeros((2, 2)), B=np.ones((2, 1)), C=field,
                           D=np.zeros((2, 1)), Q=field, S=np.zeros((1, 2)),
                           R=np.ones((1, 1)), G=np.eye(2), delta=0.5)
        assert field.values is before and np.array_equal(field.values, mats)
        assert spec.C.values[0, 0, 1] - spec.C.values[0, 1, 0] == 5e-11
        assert spec.Q is not field and np.array_equal(spec.Q.values, spec.Q.values.mT)


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

    def test_monotone_in_tolerance(self, monkeypatch):
        spec = scalar_spec(R=1.0, Q=1.0, S=2.0, G=1.0, delta=0.5)
        # fails at the PSD tolerance, passes once it exceeds the margin
        assert not validate_assumptions(spec).passed
        monkeypatch.setattr(matcore, "PSD_TOL", 3.5)
        assert validate_assumptions(spec).passed

    def test_reports_every_failure(self):
        spec = scalar_spec(R=0.1, Q=-1.0, G=-1.0, delta=0.5)
        report = validate_assumptions(spec)
        kinds = {v.assumption for v in report.violations}
        assert kinds == {"R_lower", "Q_schur", "G_psd"}


    def test_tree_matches_point_loop(self):
        # violations at some nodes only: Q and R move with the Brownian
        # level, R also drops below delta on [0.5, T] in regime 2, G goes
        # negative at the low leaves
        depth, rot = 6, np.array([[1.0, 0.4], [0.4, 0.3]])
        tree = lambda fn: CoefficientField.from_tree_function(fn, depth, 1.0, 3, (2, 2))
        r_table = np.stack([np.stack([np.eye(2)] * 3)] * 2)
        r_table[1, 1] = 0.2 * np.eye(2)
        spec = _two_by_two_spec(
            depth,
            Q=tree(lambda t, w, i: np.eye(2) * (0.3 + w) + 0.1 * i * rot),
            S=tree(lambda t, w, i: 0.2 * (1.0 + w) * rot),
            R=CoefficientField.from_table([0.0, 0.5], r_table),
            G=tree(lambda t, w, i: np.eye(2) * (0.5 + w) + 0.05 * i * rot))
        report = validate_assumptions(spec)
        kinds = {v.assumption for v in report.violations}
        assert kinds == {"R_lower", "Q_schur", "G_psd"}
        assert len(report.violations) < 2 * 3 * 28 + 3 * 7
        assert report == _validate_by_point(spec)

    def test_time_table_matches_point_loop(self):
        q_table = np.stack([np.stack([np.eye(2)] * 3)] * 3)
        q_table[1, 0] = np.diag([1.0, -0.2])
        q_table[2, 2] = 0.01 * np.eye(2)
        r_table = np.stack([np.stack([np.eye(2)] * 3)] * 2)
        r_table[1, 1] = np.diag([2.0, 0.3])
        spec = _two_by_two_spec(
            Q=CoefficientField.from_table([0.0, 0.25, 0.75], q_table),
            R=CoefficientField.from_table([0.0, 0.6], r_table),
            G=np.stack([np.eye(2), np.diag([1.0, -0.1]), np.eye(2)]))
        report = validate_assumptions(spec)
        assert not report.passed
        assert report == _validate_by_point(spec)

    def test_singular_control_weight_fails_schur_at_that_point(self):
        r_table = np.stack([np.stack([np.eye(2)] * 3)] * 3)
        r_table[1, 1] = np.diag([1.0, 0.0])       # regime 2 on [0.5, 0.75) only
        spec = _two_by_two_spec(R=CoefficientField.from_table([0.0, 0.5, 0.75], r_table))
        report = validate_assumptions(spec)
        assert report == _validate_by_point(spec)
        schur = [v for v in report.violations if v.assumption == "Q_schur"]
        assert schur == [Violation("Q_schur", 2, 0.5, -np.inf)]


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

    def test_random_noise_and_weight_match_point_loop(self):
        depth = 7
        tree = lambda fn: CoefficientField.from_tree_function(fn, depth, 1.0, 3, (2, 2))
        rot = np.array([[0.3, -0.2], [0.5, 0.1]])
        # D vanishes on the lower half of the lattice, so R is skipped there
        spec = _two_by_two_spec(
            depth,
            D=tree(lambda t, w, i: 0.1 * i * max(w, 0.0) * rot),
            R=tree(lambda t, w, i: np.eye(2) * (1.0 + 0.5 * np.tanh(w)) + 0.1 * i * rot @ rot.T))
        value = check_smallness(spec)
        assert value > 0.0
        assert value == _smallness_by_point(spec)

    def test_time_table_noise_matches_point_loop(self):
        d_table = np.zeros((3, 3, 2, 2))
        d_table[1, 0] = [[0.2, 0.0], [0.1, 0.3]]
        d_table[2, 2] = [[0.0, 0.4], [0.0, 0.0]]
        spec = _two_by_two_spec(D=CoefficientField.from_table([0.0, 0.4, 0.8], d_table))
        value = check_smallness(spec)
        assert value > 0.0
        assert value == _smallness_by_point(spec)

    def test_invariant_under_joint_scaling(self):
        base = scalar_spec(D=1.0, R=2.0, G=1.0, delta=0.5)
        c = 3.0
        scaled = scalar_spec(D=c, R=c * c * 2.0, G=1.0, delta=0.5)
        assert check_smallness(scaled) == pytest.approx(check_smallness(base), rel=1e-12)
