"""Solve the benchmark two-regime scalar problem and inspect the solution.

The problem: two regimes switching at rate 1, scalar state dX = u dt,
cost integral u^2 plus terminal X(T)^2.  By symmetry the regime coupling
cancels and the solution has the closed form P(t) = 1/(1 + T - t), which
makes this the standard sanity case: P(0) must be 0.5.
"""

import numpy as np

from regimelq import (
    ProblemSpec,
    SolverOptions,
    direct_coupled_oracle,
    picard_certificate,
    picard_step,
    solve_esre,
    solve_p0,
)

zero = np.zeros((2, 1, 1))
one = np.ones((2, 1, 1))
spec = ProblemSpec(
    n=1, m=1, ell=2, T=1.0,
    generator=[[-1.0, 1.0], [1.0, -1.0]],
    A=zero, B=one, C=zero, D=zero, Q=zero, S=zero, R=one, G=one,
    delta=0.5, x0=[1.0], i0=1,
)

# the grid solve integrates the coupled Riccati system backward with the
# error-controlled DOP853 pair and fills the output grid from its dense output
solution = solve_esre(spec, SolverOptions(grid_steps=2000))

print(f"solved by error-controlled DOP853 integration, output on "
      f"{len(solution.grid) - 1} grid steps")
print(f"P(0, 1) = {solution.P[0, 0, 0, 0]:.12f}   (closed form: 0.5)")
print(f"P(T, 1) = {solution.P[-1, 0, 0, 0]:.12f}  (terminal weight: 1)")

# closed form along the whole grid
closed = 1.0 / (2.0 - solution.grid)
err = np.max(np.abs(solution.P[:, 0, 0, 0] - closed))
print(f"max deviation from 1/(2-t): {err:.3e}")

# the paper's monotone Picard sequence, run as a certificate of the solve
options = SolverOptions(grid_steps=2000)
cert = picard_certificate(spec, options)
print(f"Picard certificate: converged in {cert.iterations} sweeps")
print("residual history:", " ".join(f"{r:.2e}" for r in cert.residual_history))
# the certificate keeps no iterates; the public steps replay them bit for bit
iterate = solve_p0(spec, options)
at_0 = [iterate.values[0, 0, 0, 0]]
for _ in range(5):
    iterate = picard_step(spec, iterate, options)
    at_0.append(iterate.values[0, 0, 0, 0])
print("iterate values at t=0:", " -> ".join(f"{v:.6f}" for v in at_0), "...")
print(f"(the linear initial iterate starts at {at_0[0]:.1f} and decreases to 0.5)")
print(f"monotonicity margin min eig(P_k - P_k+1) = {cert.monotonicity_margin:.2e}, "
      f"smallest iterate eigenvalue {cert.min_eigenvalue:.3f}")
print(f"Picard limit vs direct solve: sup distance {cert.direct_distance:.2e}")

# independent cross-check: the written-out direct coupled integration
oracle = direct_coupled_oracle(spec, SolverOptions(grid_steps=2000))
gap = np.max(np.abs(solution.P - oracle.P))
print(f"solve vs written-out coupled integration: sup distance {gap:.2e}")

# the a priori growth certificate on the linear initial iterate
d = cert.diagnostics
print(f"growth constant K = {d.k_estimate:.3f}, rate rho = {d.rho:.3f}")
print(f"log measured sup {d.log_measured_sup:.3f} <= log bound {d.log_apriori_bound:.3f}")
