"""Random coefficients on the binomial lattice.

When a coefficient depends on the driving Brownian motion the solution
pair (P, Lambda) is random too: P varies across lattice nodes and the
martingale term Lambda is nonzero.  Here the state weight is
Q(t) = 1 + 0.5 tanh(W_t), which respects the definiteness assumptions at
every node.  With deterministic coefficients the same backend collapses
to the grid answer and Lambda vanishes identically.
"""

import numpy as np

from regimelq import CoefficientField, ProblemSpec, SolverOptions, solve_esre

depth = 10
zero = np.zeros((2, 1, 1))
one = np.ones((2, 1, 1))
q_field = CoefficientField.from_tree_function(
    lambda t, w, i: [[1.0 + 0.5 * np.tanh(w)]], depth=depth, T=1.0, ell=2,
    shape=(1, 1),
)
spec = ProblemSpec(
    n=1, m=1, ell=2, T=1.0,
    generator=[[-1.0, 1.0], [1.0, -1.0]],
    A=zero, B=one, C=zero, D=zero, Q=q_field, S=zero, R=one, G=one,
    delta=0.5, x0=[1.0], i0=1,
)

solution = solve_esre(spec, SolverOptions(backend="tree", tree_depth=depth))
tree = solution.tree          # the converged TreeIterate: P and Lambda per node
print(f"converged in {solution.iterations} sweeps on a depth-{depth} lattice")
print(f"P(0, 1) at the root: {tree.levels[0][0, 0, 0, 0]:.6f}")

k = depth // 2
nodes = tree.levels[k][:, 0, 0, 0]
print(f"P at level {k} (t={tree.tree.times[k]:.1f}) across nodes:")
print("  ", np.round(nodes, 5))
lam = tree.lam_levels[k][:, 0, 0, 0]
print(f"Lambda at level {k}: {np.round(lam, 5)}")

# deterministic twin: same backend, constant Q = 1, Lambda must vanish
spec_det = ProblemSpec(
    n=1, m=1, ell=2, T=1.0,
    generator=[[-1.0, 1.0], [1.0, -1.0]],
    A=zero, B=one, C=zero, D=zero, Q=one, S=zero, R=one, G=one,
    delta=0.5,
)
det = solve_esre(spec_det, SolverOptions(backend="tree", tree_depth=depth))
lam_max = max(float(np.max(np.abs(lv))) for lv in det.tree.lam_levels)
print(f"deterministic twin: max |Lambda| over all nodes = {lam_max}")

# lattice refinement toward the grid solver on the deterministic twin
ref = solve_esre(spec_det, SolverOptions(grid_steps=2000)).P[0, 0, 0, 0]
print(f"grid solver reference P(0,1) = {ref:.6f}")
for d in (6, 12, 24):
    sol_d = solve_esre(spec_det, SolverOptions(backend="tree", tree_depth=d))
    print(f"  depth {d:2d}: P(0,1) = {sol_d.P[0, 0, 0, 0]:.6f} "
          f"(error {abs(sol_d.P[0, 0, 0, 0] - ref):.4f})")
