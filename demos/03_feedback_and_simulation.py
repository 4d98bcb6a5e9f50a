"""From solution to policy: feedback gains, closed-loop paths, Monte Carlo.

Uses an asymmetric two-regime case (the state is penalized only in
regime 1) so the gains genuinely differ across regimes, then checks that
the simulated feedback cost reproduces the quadratic value <P(0,i0)x, x>.
"""

import numpy as np

from regimelq import (
    ProblemSpec,
    SolverOptions,
    feedback_gain,
    mc_cost,
    path_substream,
    simulate_closed_loop,
    solve_esre,
    value_at,
)

zero = np.zeros((2, 1, 1))
one = np.ones((2, 1, 1))
spec = ProblemSpec(
    n=1, m=1, ell=2, T=1.0,
    generator=[[-1.0, 1.0], [1.0, -1.0]],
    A=zero, B=one, C=0.4 * one, D=zero,
    Q=np.array([[[1.0]], [[0.0]]]),        # state costly only in regime 1
    S=zero, R=one, G=one,
    delta=0.5, x0=[1.0], i0=1,
)

solution = solve_esre(spec, SolverOptions(grid_steps=1000))
# the gains are a time-table CoefficientField of m x n matrices, read
# like the problem's coefficients
gains = feedback_gain(solution, spec)
print(f"P(0, .) = {solution.P[0, :, 0, 0]}")
print(f"gain at t=0:   regime 1: {gains.eval(0.0, 1)[0, 0]:+.5f}   "
      f"regime 2: {gains.eval(0.0, 2)[0, 0]:+.5f}")
print(f"gain at t=0.9: regime 1: {gains.eval(0.9, 1)[0, 0]:+.5f}   "
      f"regime 2: {gains.eval(0.9, 2)[0, 0]:+.5f}")

# one closed-loop trajectory, reproducible from its substream
record = simulate_closed_loop(spec, gains, [1.0], 1, 1e-3, path_substream(31, 0))
switches = np.flatnonzero(np.diff(record.regimes)) * 1e-3
print(f"sample path: cost {record.total_cost:.5f}, regime switches at "
      f"{np.round(switches, 3)}")

# the value function is hit by the feedback policy up to O(dt) bias
value = value_at(solution, [1.0], 1)
est = mc_cost(spec, gains, [1.0], 1, n_paths=20000, dt=1e-3, master_seed=8)
print(f"value <P(0,1)x,x> = {value:.5f}")
print(f"Monte Carlo cost  = {est.mean:.5f} +- {est.std_error:.5f} "
      f"({est.n_paths} paths)")
print(f"|difference| = {abs(est.mean - value):.5f} "
      f"(3 standard errors = {3 * est.std_error:.5f})")
