"""Forward-backward identity checks: residual scaling, the coupled tree
oracle, and the inverse-state product."""

from pathlib import Path

import numpy as np
import pytest

from regimelq import fbsde
from regimelq.config import parse_config
from regimelq.control import feedback_gain
from regimelq.errors import OutOfRange, StructuralError
from regimelq.esre import SolverOptions, picard_step, solve_esre, solve_p0
from regimelq.fbsde import tree_fbsde_oracle, xinv_product_check, ypx_residual
from regimelq.model import CoefficientField, ProblemSpec
from conftest import make_e1, scalar_spec, weight_table_spec

CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


def static_spec():
    """Everything zero except the weights; zero generator, so the solution
    is frozen at G and the feedback is identically zero."""
    return scalar_spec(R=1.0, G=0.8, delta=0.5,
                       generator=[[0.0, 0.0], [0.0, 0.0]])


def asym_spec():
    """State weight 1 in regime 1, 0 in regime 2: unlike e1's, its solution
    leaves an O(dt) Euler defect in Y = P X."""
    return scalar_spec(B=1.0, R=1.0, G=1.0, Q=[1.0, 0.0])


class TestYpxResidual:
    def test_first_order_scaling(self):
        spec = asym_spec()
        sol = solve_esre(spec, SolverOptions(grid_steps=2000))
        stats = ypx_residual(sol, spec, 1, [0.02, 0.01, 0.005, 0.0025])
        rms = [s.rms for s in stats]
        dts = [s.dt for s in stats]
        order = np.polyfit(np.log(dts), np.log(rms), 1)[0]
        assert order >= 0.9
        for a, b in zip(rms, rms[1:]):
            assert 1.5 <= a / b <= 3.0

    def test_closed_form_defect_vanishes(self, e1, e1_solution):
        # P = 1/(1 + T - t) makes the Euler step of Y = P X exact,
        # P(t+dt) - P(t) = dt P(t) P(t+dt): only the solver's error is left
        for s in ypx_residual(e1_solution, e1, 1, [0.02, 0.01, 0.005, 0.0025]):
            assert s.max <= 1e-8

    def test_rms_below_max(self, e1, e1_solution):
        for s in ypx_residual(e1_solution, e1, 2, [0.01]):
            assert s.rms <= s.max

    def test_static_case_residual_vanishes(self):
        spec = static_spec()
        sol = solve_esre(spec, SolverOptions(grid_steps=400))
        stats = ypx_residual(sol, spec, 1, [0.01])
        assert stats[0].max <= 1e-12

    def test_initial_anchor_is_exact(self, e1, e1_solution):
        # Y(0) = P(0, i) by construction since X(0) = I
        pt0 = e1_solution.P[0, 0]
        assert np.array_equal(pt0 @ np.eye(1), pt0)

    def test_dt_must_refine_grid(self, e1, e1_solution):
        with pytest.raises(StructuralError):
            ypx_residual(e1_solution, e1, 1, [0.0007])

    def test_dt_beyond_the_grid_is_refused(self, e1):
        # one sample on the 8-step rung of a 4-step grid left no residual
        # and ended in a raw ValueError
        sol = solve_esre(e1, SolverOptions(grid_steps=4))
        with pytest.raises(StructuralError, match=r"^dt=2\.0 leaves no whole step on the "
                                                  r"solution grid of 4 steps of 0\.25$"):
            ypx_residual(sol, e1, 1, [2.0])
        assert [s.dt for s in ypx_residual(sol, e1, 1, [1.0])] == [1.0]


class TestTreeFbsdeOracle:
    def test_deviation_shrinks_with_depth(self, e1):
        devs = {}
        for depth in (4, 8):
            opts = SolverOptions(backend="tree", tree_depth=depth)
            _, dev = tree_fbsde_oracle(e1, 1, solve_p0(e1, opts), opts)
            devs[depth] = dev
        assert devs[4] / devs[8] >= 1.5

    def test_deviation_first_order_slope(self, e1):
        depths = (4, 8, 12)
        devs = []
        for depth in depths:
            opts = SolverOptions(backend="tree", tree_depth=depth)
            devs.append(tree_fbsde_oracle(e1, 1, solve_p0(e1, opts), opts)[1])
        slope = np.polyfit(np.log([1.0 / d for d in depths]), np.log(devs), 1)[0]
        assert slope >= 0.8

    def test_static_case_exact(self):
        spec = static_spec()
        opts = SolverOptions(backend="tree", tree_depth=5)
        triple, dev = tree_fbsde_oracle(spec, 1, solve_p0(spec, opts), opts)
        for k in range(6):
            assert np.allclose(triple.x[k], np.eye(1), atol=1e-14)
            assert np.allclose(triple.y[k], 0.8, atol=1e-12)
        for k in range(5):
            assert np.max(np.abs(triple.z[k])) <= 1e-12
        assert dev <= 1e-12

    def test_deterministic_given_inputs(self, e1):
        opts = SolverOptions(backend="tree", tree_depth=6)
        p0 = solve_p0(e1, opts)
        t1, d1 = tree_fbsde_oracle(e1, 2, p0, opts)
        t2, d2 = tree_fbsde_oracle(e1, 2, p0, opts)
        assert d1 == d2
        for a, b in zip(t1.y, t2.y):
            assert np.array_equal(a, b)

    def test_terminal_relation_holds(self, e1):
        opts = SolverOptions(backend="tree", tree_depth=6)
        triple, _ = tree_fbsde_oracle(e1, 1, solve_p0(e1, opts), opts)
        g = e1.G.eval(e1.T, 1)
        assert np.allclose(triple.y[6], g @ triple.x[6], atol=1e-12)

    def test_requires_zero_control_noise(self):
        spec = scalar_spec(B=1.0, D=0.2, R=1.0, G=1.0, delta=0.5)
        opts = SolverOptions(backend="tree", tree_depth=4)
        # build the previous iterate from a D=0 twin so only the oracle's
        # own precondition trips
        prev = solve_p0(make_e1(), opts)
        with pytest.raises(StructuralError):
            tree_fbsde_oracle(spec, 1, prev, opts)


    def test_refuses_lattice_coefficients(self):
        # the closed-form spec of the tree's Girsanov test, Q = 1 + 0.5 exp(W_t),
        # which ended inside CoefficientField.eval with OutOfRange
        opts = SolverOptions(backend="tree", tree_depth=8)
        q = CoefficientField.from_tree_function(
            lambda t, w, i: [[1.0 + 0.5 * np.exp(w)]], 8, 1.0, 2, (1, 1))
        spec = ProblemSpec(n=1, m=1, ell=2, T=1.0, delta=0.5,
                           generator=[[-1.0, 1.0], [1.0, -1.0]], A=[[0.3]], B=[[0.0]],
                           C=[[0.4]], D=[[0.0]], Q=q, S=[[0.0]], R=[[1.0]], G=[[1.0]])
        with pytest.raises(StructuralError, match="^the forward-backward oracle requires "
                                                  "deterministic coefficients"):
            tree_fbsde_oracle(spec, 1, solve_p0(spec, opts), opts)


class TestXinvProduct:
    def test_static_case_identity(self):
        spec = static_spec()
        sol = solve_esre(spec, SolverOptions(grid_steps=200))
        gains = feedback_gain(sol, spec)
        st = xinv_product_check(spec, 1, gains, 0.01)
        assert st.max <= 1e-14

    def test_first_order_in_dt(self, e1, e1_solution):
        gains = feedback_gain(e1_solution, e1)
        rms = [xinv_product_check(e1, 1, gains, dt).rms
               for dt in (0.01, 0.005, 0.0025)]
        for a, b in zip(rms, rms[1:]):
            assert 1.5 <= a / b <= 3.0

    def test_scalar_exponential_oracle(self):
        # uncontrolled scalar flow X(t) = exp(a t); with a = 0.005 the
        # product drift a^2 T dt stays below 1e-8 at dt = 1e-4
        a = 0.005
        spec = scalar_spec(A=a, R=1.0, G=1.0, delta=0.5)
        sol = solve_esre(spec, SolverOptions(grid_steps=100))
        gains = feedback_gain(sol, spec)   # B = 0 so the gain is zero
        assert np.max(np.abs(gains.values)) == 0.0
        st = xinv_product_check(spec, 1, gains, 1e-4)
        assert st.max <= 1e-8
        # cross-check the forward flow against the closed form
        n_steps = int(round(1.0 / 1e-4))
        x = 1.0
        for _ in range(n_steps):
            x *= 1.0 + a * 1e-4
        assert x == pytest.approx(np.exp(a), abs=1e-6)

    def test_noisy_case_is_seed_deterministic(self, e1):
        spec = scalar_spec(A=0.1, C=0.4, R=1.0, G=1.0, delta=0.5)
        sol = solve_esre(spec, SolverOptions(grid_steps=200))
        gains = feedback_gain(sol, spec)
        s1 = xinv_product_check(spec, 1, gains, 0.005, seed=3)
        s2 = xinv_product_check(spec, 1, gains, 0.005, seed=3)
        assert s1 == s2


# ---------------------------------------------------------------------------
# the bulk forms against the per-step loops they replaced
# ---------------------------------------------------------------------------


def _ypx_reference(solution, spec, i, dt):
    """(rms, max) of ypx_residual's per-step loop, which read every
    coefficient by ``eval`` at each step start."""
    idx = fbsde._solution_samples(solution, dt)
    times = solution.grid[idx]
    pt = solution.P[idx, i - 1]
    ktab = feedback_gain(solution, spec).values[idx, i - 1]
    src = np.einsum("j,kjab->kab", spec.q[i - 1], solution.P[idx])
    res = np.empty(len(idx) - 1)
    x = np.eye(spec.n)
    for k in range(len(res)):
        t = times[k]
        a, b, c, d = (f.eval(t, i) for f in (spec.A, spec.B, spec.C, spec.D))
        u = ktab[k] @ x
        y = pt[k] @ x
        z = pt[k] @ (c @ x) + pt[k] @ (d @ u)
        f = a.T @ y + c.T @ z + (spec.Q.eval(t, i) + src[k]) @ x + spec.S.eval(t, i).T @ u
        x_next = x + dt * (a @ x + b @ u)
        res[k] = np.linalg.norm(pt[k + 1] @ x_next - y + dt * f)
        x = x_next
    res /= dt
    return float(np.sqrt(np.mean(res**2))), float(res.max())


def _tree_oracle_reference(spec, i, prev, options):
    """The deviation of tree_fbsde_oracle's sweeps with one ``eval`` per
    level and coefficient."""
    nxt = picard_step(spec, prev, options)
    tree = prev.tree
    depth, dt, sq, times = tree.depth, tree.dt, tree.sqrt_dt, tree.times
    ups = [fbsde._upcounts(k) for k in range(depth + 1)]
    A = [spec.A.eval(times[k], i) for k in range(depth)]
    B = [spec.B.eval(times[k], i) for k in range(depth)]
    C = [spec.C.eval(times[k], i) for k in range(depth)]
    Q = [spec.Q.eval(times[k], i) for k in range(depth)]
    S = [spec.S.eval(times[k], i) for k in range(depth)]
    R_inv = [np.linalg.inv(spec.R.eval(times[k], i)) for k in range(depth)]
    G = spec.G.eval(spec.T, i)
    q_row = spec.q[i - 1].copy()
    q_ii = q_row[i - 1]
    q_row[i - 1] = 0.0
    src = [np.einsum("j,njab->nab", q_row, prev.levels[k])[ups[k]] for k in range(depth)]
    n = spec.n
    x = [np.broadcast_to(np.eye(n), (2**k, n, n)).copy() for k in range(depth + 1)]
    y = [np.zeros((2**k, n, n)) for k in range(depth + 1)]
    for _ in range(fbsde.MAX_SWEEPS):
        x_new = [x[0]]
        for k in range(depth):
            uk = -R_inv[k] @ (B[k].T @ y[k] + S[k] @ x_new[k])
            base = x_new[k] + dt * (A[k] @ x_new[k] + B[k] @ uk)
            sig = C[k] @ x_new[k]
            child = np.empty((2 ** (k + 1), n, n))
            child[0::2] = base - sq * sig
            child[1::2] = base + sq * sig
            x_new.append(child)
        x_new = [0.5 * (a + b) for a, b in zip(x_new, x)]
        y_new = [None] * (depth + 1)
        y_new[depth] = G @ x_new[depth]
        for k in range(depth - 1, -1, -1):
            up_c, dn_c = y_new[k + 1][1::2], y_new[k + 1][0::2]
            ybar = 0.5 * (up_c + dn_c)
            zk = (up_c - dn_c) / (2.0 * sq)
            uk = -R_inv[k] @ (B[k].T @ ybar + S[k] @ x_new[k])
            f = (A[k].T @ ybar + C[k].T @ zk
                 + (Q[k] + src[k]) @ x_new[k] + S[k].T @ uk)
            y_new[k] = (ybar + dt * f) / (1.0 - dt * q_ii)
        diff = max(max(float(np.max(np.abs(x_new[k] - x[k]))),
                       float(np.max(np.abs(y_new[k] - y[k])))) for k in range(depth + 1))
        x, y = x_new, y_new
        if diff <= fbsde.FP_TOL:
            break
    return max(float(np.max(np.linalg.norm(
        y[k] @ np.linalg.inv(x[k]) - nxt.levels[k][ups[k], i - 1], axis=(-2, -1))))
        for k in range(depth + 1))


# the matrix demo, and a control weight with a table time on a node of
# every grid and lattice below, so each rung and level reads its own piece
REFERENCE_SPECS = {
    "matrix-demo": lambda: parse_config(CONFIGS / "matrix_two_regime.yaml").problem,
    "weight-table": lambda: weight_table_spec([0.0, 0.5], [1.0, 2.0]),
}


class TestBulkFormsMatchPerStepLoops:
    @pytest.mark.parametrize("name", REFERENCE_SPECS)
    def test_ypx_residual(self, name):
        spec = REFERENCE_SPECS[name]()
        sol = solve_esre(spec, SolverOptions(grid_steps=400))
        dts = [8 * 0.0025, 4 * 0.0025, 2 * 0.0025]
        for i in range(1, spec.ell + 1):
            for s, dt in zip(ypx_residual(sol, spec, i, dts), dts):
                rms, top = _ypx_reference(sol, spec, i, dt)
                assert top > 0.0
                assert s.rms == pytest.approx(rms, rel=1e-13, abs=0.0)
                assert s.max == pytest.approx(top, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("name", REFERENCE_SPECS)
    def test_tree_oracle_deviation_is_bit_identical(self, name):
        spec = REFERENCE_SPECS[name]()
        for depth in (4, 8):
            opts = SolverOptions(backend="tree", tree_depth=depth)
            p0 = solve_p0(spec, opts)
            for i in range(1, spec.ell + 1):
                dev = tree_fbsde_oracle(spec, i, p0, opts)[1]
                assert dev > 0.0
                assert dev == _tree_oracle_reference(spec, i, p0, opts)


@pytest.mark.parametrize("regime", [0, 3, 1.5, True])
def test_every_entry_point_checks_the_regime(e1, e1_solution, regime):
    # 1.5 passed the old range test and failed as a raw IndexError
    opts = SolverOptions(backend="tree", tree_depth=4)
    with pytest.raises(OutOfRange):
        ypx_residual(e1_solution, e1, regime, [0.01])
    with pytest.raises(OutOfRange):
        xinv_product_check(e1, regime, feedback_gain(e1_solution, e1), 0.01)
    with pytest.raises(OutOfRange):
        tree_fbsde_oracle(e1, regime, solve_p0(e1, opts), opts)
