"""The forward-backward verification toolbox.

Three independent consistency checks tie the computed solution to the
system it claims to solve:

1. the product ansatz Y = P X satisfies the backward equation along
   the closed loop - its one-step defect must shrink linearly in dt;
2. solving the coupled forward-backward system outright on a binary tree
   and forming Y X^{-1} must reproduce the Riccati sweep, with the node
   deviation halving as the lattice refines;
3. the closed-loop state and its inverse, integrated by their own
   recursions, must keep X^{-1} X near the identity.

The two regimes differ in their state weight (1 and 0).  With equal
regimes, P = 1/(1 + T - t) would make the Euler step of check 1 exact,
P(t+dt) - P(t) = dt P(t) P(t+dt), and leave only the solver's error.
"""

import numpy as np

from regimelq import (
    ProblemSpec,
    SolverOptions,
    feedback_gain,
    solve_esre,
    solve_p0,
    tree_fbsde_oracle,
    xinv_product_check,
    ypx_residual,
)

zero = np.zeros((2, 1, 1))
one = np.ones((2, 1, 1))
spec = ProblemSpec(
    n=1, m=1, ell=2, T=1.0,
    generator=[[-1.0, 1.0], [1.0, -1.0]],
    A=zero, B=one, C=zero, D=zero, Q=[[[1.0]], [[0.0]]], S=zero, R=one, G=one,
    delta=0.5, x0=[1.0], i0=1,
)
solution = solve_esre(spec, SolverOptions(grid_steps=2000))

print("1. backward-equation defect of Y = P X (per unit time):")
stats = ypx_residual(solution, spec, regime=1, dt_list=[0.02, 0.01, 0.005, 0.0025])
for s in stats:
    print(f"   dt={s.dt:<7g} rms={s.rms:.4e}  max={s.max:.4e}")
order = np.polyfit(np.log([s.dt for s in stats]),
                   np.log([s.rms for s in stats]), 1)[0]
print(f"   fitted order: {order:.3f}")

print("2. coupled forward-backward oracle vs the Riccati sweep:")
for depth in (4, 8, 12):
    opts = SolverOptions(backend="tree", tree_depth=depth)
    triple, dev = tree_fbsde_oracle(spec, 1, solve_p0(spec, opts), opts)
    print(f"   depth {depth:2d}: max node deviation |Y X^-1 - P| = {dev:.4e}")

print("3. inverse-state product drift:")
gains = feedback_gain(solution, spec)
for dt in (0.01, 0.005, 0.0025):
    st = xinv_product_check(spec, 1, gains, dt)
    print(f"   dt={dt:<7g} rms |X^-1 X - I| = {st.rms:.4e}")
