"""Shared problem fixtures.

``e1`` is the workhorse: two symmetric regimes, scalar state, only the
control and the terminal state are penalized (B = R = G = 1, rest zero,
rate-1 generator, T = 1).  By symmetry the regime coupling cancels and
P solves dP/dt = P^2 backward from 1, so P(t) = 1/(1 + T - t) and
P(0) = 1/2 exactly - the closed form used all over the suite.

``random_family`` draws three specs (n <= 3, ell <= 3) with the
definiteness assumptions built in by construction: R = delta I + M M',
Q = S'R^{-1}S + PSD, G PSD; any control-noise loading D is scaled until
the measured diffusion size stays below 0.05.  Seeds are frozen so every
run sees the same family.
"""

import numpy as np
import pytest

from regimelq.errors import NoConvergence
from regimelq.esre import (
    SolverOptions, TreeIterate, picard_certificate, picard_step, solve_esre, solve_p0,
)
from regimelq.model import CoefficientField, ProblemSpec, check_smallness

FAMILY_SEEDS = (101, 303, 404)


def scalar_spec(ell=2, generator=None, T=1.0, delta=0.5, x0=1.0, i0=1, **coef):
    """Scalar-state spec with keyword coefficient overrides (floats or
    per-regime lists of floats)."""
    if generator is None:
        generator = [[-1.0, 1.0], [1.0, -1.0]]
    fields = {}
    for name in ("A", "B", "C", "D", "Q", "S", "R", "G"):
        val = coef.get(name, 0.0)
        arr = np.asarray(val, dtype=float)
        if arr.ndim == 0:
            arr = np.full((ell, 1, 1), float(arr))
        else:
            arr = arr.reshape(ell, 1, 1)
        fields[name] = arr
    return ProblemSpec(
        n=1, m=1, ell=ell, T=T, generator=np.asarray(generator, dtype=float),
        delta=delta, x0=[x0], i0=i0, **fields,
    )


def make_e1(**overrides):
    return scalar_spec(B=1.0, R=1.0, G=1.0, **overrides)


def weight_table_spec(times, weights, T=1.0, G=1.0):
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


def _psd(rng, n, scale):
    m = rng.standard_normal((n, n))
    return scale * (m @ m.T)


def random_spec(seed: int, shape=None) -> ProblemSpec:
    """A random problem; ``shape = (n, m, ell)`` replaces the drawn shape
    and leaves the rest of the draws as they are."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    ell = int(rng.integers(2, 4))
    if shape is not None:
        n, m, ell = shape
    T = 1.0
    delta = 0.3
    q = rng.uniform(0.2, 1.0, (ell, ell))
    np.fill_diagonal(q, 0.0)
    q[np.arange(ell), np.arange(ell)] = -q.sum(axis=1)
    A = 0.5 * rng.standard_normal((ell, n, n))
    C = 0.4 * rng.standard_normal((ell, n, n))
    B = rng.standard_normal((ell, n, m))
    D = 0.15 * rng.standard_normal((ell, n, m)) if seed % 2 else np.zeros((ell, n, m))
    S = 0.2 * rng.standard_normal((ell, m, n))
    R = np.stack([delta * np.eye(m) + _psd(rng, m, 0.5) for _ in range(ell)])
    Q = np.stack([
        S[i].T @ np.linalg.solve(R[i], S[i]) + _psd(rng, n, 0.4) for i in range(ell)
    ])
    Q = 0.5 * (Q + Q.transpose(0, 2, 1))
    G = np.stack([_psd(rng, n, 0.5) for _ in range(ell)])

    def build(d):
        return ProblemSpec(n=n, m=m, ell=ell, T=T, generator=q, A=A, B=B, C=C,
                           D=d, Q=Q, S=S, R=R, G=G, delta=delta,
                           x0=np.ones(n), i0=1)

    spec = build(D)
    measured = check_smallness(spec)
    if measured > 0.05:
        spec = build(D * np.sqrt(0.05 / measured) * 0.99)
    return spec


@pytest.fixture(scope="session")
def e1():
    return make_e1()


@pytest.fixture(scope="session")
def e1_solution(e1):
    """E1 solved at the default production grid."""
    return solve_esre(e1, SolverOptions(grid_steps=2000))


@pytest.fixture(scope="session")
def e1_certificate(e1):
    """The Picard certificate of E1 at the production grid."""
    return picard_certificate(e1, SolverOptions(grid_steps=2000))


@pytest.fixture(scope="session")
def e1_replay(e1, e1_certificate):
    """The iterates and residuals of ``e1_certificate``, replayed by
    :func:`replay_picard`."""
    values, residuals = [], []
    replay_picard(e1, e1_certificate.options, values, residuals)
    return values, residuals


@pytest.fixture(scope="session")
def e1_solution_coarse(e1):
    return solve_esre(e1, SolverOptions(grid_steps=400))


@pytest.fixture(scope="session")
def random_family():
    return [random_spec(seed) for seed in FAMILY_SEEDS]


def replay_picard(spec, options, values, residuals):
    """The paper's monotone sequence as public ``solve_p0`` + repeated
    ``picard_step``, on the grid or the tree that ``options`` request.

    Fills ``values`` (iterate 0 on: the grid's values array, or the tree's
    tuple of levels) and ``residuals`` (the max over every node of
    ``|P_k - P_{k-1}|_F``) as it goes, so both hold the completed sweeps
    when a sweep raises; stops once the residual is at most ``picard_tol``.
    """
    def stacks(it):
        return it.levels if isinstance(it, TreeIterate) else (it.values,)

    prev = solve_p0(spec, options)
    values.append(prev.values if options.backend == "ode" else prev.levels)
    for _ in range(options.picard_max_iter):
        cur = picard_step(spec, prev, options)
        residuals.append(max(float(np.max(np.linalg.norm(a - b, axis=(-2, -1))))
                             for a, b in zip(stacks(cur), stacks(prev))))
        values.append(cur.values if options.backend == "ode" else cur.levels)
        prev = cur
        if residuals[-1] <= options.picard_tol:
            return
    raise NoConvergence("replay did not converge", residual_history=residuals)
