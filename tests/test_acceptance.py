"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Shared artifacts (the production-grid solve of the
symmetric scalar case, the randomized family and its solves) are computed
once per session.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from regimelq.control import feedback_gain, mc_cost, optimality_gap, value_at
from regimelq.esre import (
    SolverOptions,
    direct_coupled_oracle,
    picard_certificate,
    solve_esre,
    solve_p0,
)
from regimelq.fbsde import tree_fbsde_oracle, ypx_residual
from regimelq.regime_chain import path_substream, sample_chain_path, transition_matrix
from conftest import make_e1, scalar_spec

E1_VALUE = 0.5
SWITCH_P = (1.0 - np.exp(-2.0)) / 2.0


def report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def e1_timed(e1):
    t0 = time.perf_counter()
    sol = solve_esre(e1, SolverOptions(grid_steps=2000))
    return sol, time.perf_counter() - t0


@pytest.fixture(scope="module")
def family_solutions(random_family):
    """(spec, direct solve, Picard certificate, oracle) per family member."""
    t0 = time.perf_counter()
    out = []
    for spec in random_family:
        opts = SolverOptions(grid_steps=800, keep_iterates=True)
        sol = solve_esre(spec, opts)
        cert = picard_certificate(spec, opts)
        oracle = direct_coupled_oracle(spec, SolverOptions(grid_steps=800))
        out.append((spec, sol, cert, oracle))
    return out, time.perf_counter() - t0


def test_criterion_01_closed_form_value(e1_timed):
    sol, elapsed = e1_timed
    err = max(abs(sol.P[0, i, 0, 0] - E1_VALUE) for i in range(2))
    report(1, "symmetric scalar case solves to its closed form",
           err <= 1e-6 and elapsed < 5.0,
           f"|P(0,i)-0.5|={err:.2e}, runtime={elapsed:.2f}s")


def test_criterion_02_monotone_iterates(e1_certificate, family_solutions):
    solved, _ = family_solutions
    worst_step = np.inf
    worst_psd = np.inf
    certs = [e1_certificate] + [c for _, _, c, _ in solved]
    for cert in certs:
        its = cert.iterates
        for prev, cur in zip(its, its[1:]):
            worst_step = min(worst_step,
                             float(np.min(np.linalg.eigvalsh(prev - cur))))
        for it in its:
            worst_psd = min(worst_psd, float(np.min(np.linalg.eigvalsh(it))))
    reported = (min(c.monotonicity_margin for c in certs),
                min(c.min_eigenvalue for c in certs))
    report(2, "iterates decrease in the Loewner order and stay PSD",
           worst_step >= -1e-8 and worst_psd >= -1e-9
           and reported == (worst_step, worst_psd),
           f"min step eig={worst_step:.2e}, min iterate eig={worst_psd:.2e}")


def test_criterion_03_cross_oracle_agreement(e1_certificate, e1_timed, family_solutions):
    # the Picard limit against the direct solve of the coupled system; the
    # family's limits also against the written-out oracle
    solved, elapsed = family_solutions
    pairs = [(e1_certificate.P, e1_timed[0].P)]
    pairs += [(cert.P, p) for _, sol, cert, oracle in solved for p in (sol.P, oracle.P)]
    worst = max(float(np.max(np.linalg.norm(a - b, axis=(-2, -1)))) for a, b in pairs)
    reported = max([e1_certificate.direct_distance]
                   + [cert.direct_distance for _, _, cert, _ in solved])
    report(3, "fixed point matches the direct coupled integration",
           worst <= 1e-7 and reported <= 1e-7 and elapsed < 30.0,
           f"sup distance={worst:.2e}, runtime={elapsed:.1f}s")


def test_criterion_04_tree_backend_consistency(e1):
    errs = []
    lam_max = 0.0
    for depth in (6, 8, 10):
        sol = solve_esre(e1, SolverOptions(backend="tree", tree_depth=depth))
        errs.append(abs(sol.P[0, 0, 0, 0] - E1_VALUE))
        lam_max = max(lam_max, max(float(np.max(np.abs(lv)))
                                   for lv in sol.tree.lam_levels))
    dts = np.array([1 / 6, 1 / 8, 1 / 10])
    order = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    decreasing = errs[0] > errs[1] > errs[2]
    report(4, "lattice backend converges at first order with exact zero "
              "martingale term",
           order >= 0.8 and decreasing and lam_max == 0.0,
           f"errors={[f'{e:.3e}' for e in errs]}, order={order:.2f}, "
           f"max|Lambda|={lam_max}")


def test_criterion_05_forward_backward_relation(e1, e1_timed):
    devs = []
    for depth in (4, 8):
        opts = SolverOptions(backend="tree", tree_depth=depth)
        _, dev = tree_fbsde_oracle(e1, 1, solve_p0(e1, opts), opts)
        devs.append(dev)
    ratio = devs[0] / devs[1]
    # e1's closed form makes the Euler defect of Y = P X vanish exactly,
    # P(t+dt) - P(t) = dt P(t) P(t+dt), so only the solver's error is left
    # there; the first-order rate shows on the asymmetric scalar problem
    e1_max = max(s.max for s in ypx_residual(e1_timed[0], e1, 1, [0.02, 0.01, 0.005]))
    asym = scalar_spec(B=1.0, R=1.0, G=1.0, Q=[1.0, 0.0])
    stats = ypx_residual(solve_esre(asym, SolverOptions(grid_steps=2000)), asym, 1,
                         [0.02, 0.01, 0.005])
    order = float(np.polyfit(np.log([s.dt for s in stats]),
                             np.log([s.rms for s in stats]), 1)[0])
    report(5, "product identity holds at first order on both checks",
           ratio >= 1.5 and order >= 0.9 and e1_max <= 1e-8,
           f"oracle deviation ratio={ratio:.2f}, residual order={order:.2f}, "
           f"e1 residual max={e1_max:.1e}")


def test_criterion_06_optimality(e1, e1_timed):
    sol = e1_timed[0]
    gains = feedback_gain(sol, e1)
    t0 = time.perf_counter()
    est = mc_cost(e1, gains, [1.0], 1, 100_000, 1e-3, 20240901)
    gap = optimality_gap(e1, sol, 0.5, 100_000, 1e-3, 20240901, gains=gains)
    elapsed = time.perf_counter() - t0
    val_ok = abs(est.mean - E1_VALUE) <= max(3 * est.std_error, 0.01)
    gap_ok = abs(gap.gap - gap.theoretical_gap) <= max(3 * gap.std_error, 0.02)
    pred_ok = abs(gap.theoretical_gap - 0.25) <= 1e-12
    report(6, "feedback attains the value and the perturbation gap matches "
              "the completed square",
           val_ok and gap_ok and pred_ok and elapsed < 60.0,
           f"cost={est.mean:.5f}, gap={gap.gap:.5f} vs 0.25, "
           f"runtime={elapsed:.1f}s")


def test_criterion_07_apriori_bound(e1_certificate, family_solutions):
    # the bound is on the linear initial iterate, which the certificate measures
    solved, _ = family_solutions
    sols = [e1_certificate] + [c for _, _, c, _ in solved]
    ok = all(s.diagnostics.log_measured_sup <= s.diagnostics.log_apriori_bound
             for s in sols)
    margins = [s.diagnostics.log_apriori_bound - s.diagnostics.log_measured_sup
               for s in sols]
    report(7, "exponential growth certificate holds on every solved case",
           ok, f"log margins={[f'{m:.2f}' for m in margins]}")


def test_criterion_08_zero_d_specialization(e1, random_family, monkeypatch):
    from regimelq.model import check_smallness
    worst = 0.0
    smallness_ok = True
    specs = [e1] + [s for s in random_family if s.D.is_zero()]
    for spec in specs:
        a = solve_esre(spec, SolverOptions(grid_steps=400))
        # route the zero D through the general (R + D'PD)-inverse algebra
        with monkeypatch.context() as patch:
            patch.setattr(spec.D, "is_zero", lambda: False)
            b = solve_esre(spec, SolverOptions(grid_steps=400))
        worst = max(worst, float(np.max(np.abs(a.P - b.P))))
        smallness_ok = smallness_ok and check_smallness(spec) == 0.0
    report(8, "zero control noise reduces exactly to the simplified formulas",
           worst <= 1e-12 and smallness_ok and len(specs) >= 2,
           f"path difference={worst:.2e} over {len(specs)} cases")


def test_criterion_09_chain_fidelity():
    from regimelq.regime_chain import validate_generator
    g = validate_generator([[-1.0, 1.0], [1.0, -1.0]])
    n = 100_000
    switched = 0
    for k in range(n):
        path = sample_chain_path(g, 1, 1.0, path_substream(777, k))
        switched += int(path.states[-1] != 1)
    p_hat = switched / n
    se = np.sqrt(SWITCH_P * (1 - SWITCH_P) / n)
    semi = 0.0
    for s, t in [(0.4, 0.6), (1.0, 1.5)]:
        lhs = transition_matrix(g, s + t)
        rhs = transition_matrix(g, s) @ transition_matrix(g, t)
        semi = max(semi, float(np.max(np.abs(lhs - rhs))))
    report(9, "sampled chain matches the matrix-exponential law",
           abs(p_hat - SWITCH_P) <= 4 * se and semi <= 1e-9,
           f"switch prob {p_hat:.5f} vs {SWITCH_P:.5f} (4se={4 * se:.5f}), "
           f"semigroup defect={semi:.1e}")


def test_criterion_10_deterministic_artifacts(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        "problem:\n"
        "  n: 1\n  m: 1\n  ell: 2\n  T: 1.0\n  delta: 0.5\n"
        "  generator: [[-1.0, 1.0], [1.0, -1.0]]\n"
        "  x0: [1.0]\n  i0: 1\n"
        "  A: [[0.0]]\n  B: [[1.0]]\n  C: [[0.5]]\n  D: [[0.0]]\n"
        "  Q: [[0.0]]\n  S: [[0.0]]\n  R: [[1.0]]\n  G: [[1.0]]\n"
        "solver: {backend: ode, grid_steps: 300}\n"
        "simulate:\n"
        "  n_paths: 2000\n  dt: 0.005\n  seed: 99\n"
        "  perturbations: [{constant: [0.5]}]\n"
        "output: {solution_path: s.csv, report_path: r.txt, estimates_path: c.csv}\n"
    )
    outputs = {}
    for tag in ("first", "second"):
        outdir = tmp_path / tag
        for command in ("solve", "verify", "simulate"):
            code = subprocess.run(
                [sys.executable, "-m", "regimelq.cli", command,
                 "--config", str(cfg), "--output", str(outdir)],
                capture_output=True,
            ).returncode
            assert code == 0, f"{command} failed in determinism run"
        outputs[tag] = {
            name: (outdir / name).read_bytes()
            for name in ("s.csv", "s.csv.meta.json", "r.txt.verify.txt", "c.csv")
        }
    identical = all(outputs["first"][k] == outputs["second"][k]
                    for k in outputs["first"])
    report(10, "repeated runs produce byte-identical artifacts", identical)
