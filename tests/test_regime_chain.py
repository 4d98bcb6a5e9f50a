"""Regime chain: generator validation, transition matrices, exact path
sampling and its agreement with the matrix-exponential oracle."""

import numpy as np
import pytest

from regimelq.errors import (
    NegativeOffDiagonal,
    OutOfRange,
    RowSumNonzero,
    StructuralError,
    TooFewRegimes,
)
from regimelq.regime_chain import (
    RegimePath,
    _jump_cumprobs,
    path_substream,
    rekeyed,
    sample_chain_path,
    sample_jumps,
    transition_matrix,
    validate_generator,
)

TWO_STATE_SWITCH_P = (1.0 - np.exp(-2.0)) / 2.0   # rate-1 symmetric chain at t=1


class TestValidateGenerator:
    def test_valid(self):
        g = validate_generator([[-1.0, 1.0], [0.5, -0.5]])
        assert g.ell == 2

    def test_row_sum(self):
        with pytest.raises(RowSumNonzero):
            validate_generator([[-1.0, 0.5], [1.0, -1.0]])

    def test_negative_off_diagonal(self):
        with pytest.raises(NegativeOffDiagonal):
            validate_generator([[-1.0, 1.0], [-0.5, 0.5]])

    def test_single_regime_rejected(self):
        with pytest.raises(TooFewRegimes):
            validate_generator([[0.0]])

    @pytest.mark.parametrize("q, entry", [
        ([[np.nan, 1.0], [1.0, -1.0]], r"q\[1,1\] = nan"),
        ([[-np.inf, np.inf], [1.0, -1.0]], r"q\[1,1\] = -inf"),
        ([[-1.0, 1.0], [1.0, np.inf]], r"q\[2,2\] = inf"),
    ])
    def test_non_finite_rate_refused(self, q, entry):
        # NaN passes the sign and row-sum tests, and inf - inf makes a NaN
        # row sum, so both would reach the solver
        with pytest.raises(StructuralError, match=entry):
            validate_generator(q)

    @pytest.mark.parametrize("q", [
        [["x", 1.0], [1.0, -1.0]],
        [[-1.0, 1.0], [1.0]],
    ], ids=["string", "ragged"])
    def test_non_numeric_rates_refused(self, q):
        # numpy's own ValueError used to reach library callers
        with pytest.raises(StructuralError, match="^q must be an array of numbers: "):
            validate_generator(q)

    def test_caller_array_stays_writable(self):
        q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        g = validate_generator(q)
        assert q.flags.writeable and not g.q.flags.writeable
        q[0, 0] = -2.0
        assert g.q[0, 0] == -1.0


class TestTransitionMatrix:
    def test_time_zero_is_identity(self):
        g = validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        assert np.allclose(transition_matrix(g, 0.0), np.eye(2), atol=1e-14)
        # every regime absorbing: the chain never moves
        still = validate_generator(np.zeros((3, 3)))
        assert np.array_equal(transition_matrix(still, 5.0), np.eye(3))

    def test_two_state_closed_form(self):
        g = validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        p = transition_matrix(g, 1.0)
        assert p[0, 1] == pytest.approx(TWO_STATE_SWITCH_P, abs=1e-12)
        assert p[1, 0] == pytest.approx(TWO_STATE_SWITCH_P, abs=1e-12)

    def test_long_run_reaches_stationary(self):
        q = np.array([[-1.0, 1.0], [2.0, -2.0]])
        g = validate_generator(q)
        # stationary distribution: left null vector of q, computed directly
        ns = np.linalg.svd(q.T)[2][-1]
        pi = np.abs(ns) / np.abs(ns).sum()
        p = transition_matrix(g, 50.0)
        assert np.allclose(p[0], pi, atol=1e-8)
        assert np.allclose(p[1], pi, atol=1e-8)

    def test_semigroup(self):
        rng = np.random.default_rng(5)
        q = rng.uniform(0.1, 1.0, (3, 3))
        np.fill_diagonal(q, 0.0)
        q[np.arange(3), np.arange(3)] = -q.sum(axis=1)
        g = validate_generator(q)
        for s, t in [(0.3, 0.7), (1.2, 0.4), (2.0, 2.0)]:
            lhs = transition_matrix(g, s + t)
            rhs = transition_matrix(g, s) @ transition_matrix(g, t)
            assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_rows_are_distributions(self):
        g = validate_generator([[-3.0, 3.0], [0.2, -0.2]])
        p = transition_matrix(g, 0.7)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-10)

    def test_negative_time_rejected(self):
        g = validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(OutOfRange, match="got -0.1"):
            transition_matrix(g, -0.1)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, t):
        # NaN passes `t < 0`; both NaN and inf once gave a NaN matrix
        g = validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(OutOfRange, match=f"got {float(t)!r}"):
            transition_matrix(g, t)

    def test_rate_times_time_beyond_float_range(self):
        # lam * t overflows to inf; the squaring count is taken from the
        # logarithms of the factors instead
        g = validate_generator([[-1e300, 1e300], [1e300, -1e300]])
        assert np.array_equal(transition_matrix(g, 1e10), np.full((2, 2), 0.5))

    def test_matches_scipy_expm(self):
        # seeded sweep against an independent matrix exponential (scipy is
        # a test-only dependency): ell 2-5, rates 1e-2..1e3 with some zero,
        # an absorbing row in a third of the draws, t from 1e-4 to 50
        from scipy.linalg import expm

        rng = np.random.default_rng(20231)
        for _ in range(600):
            ell = int(rng.integers(2, 6))
            q = 10.0 ** rng.uniform(-2.0, 3.0, (ell, ell)) * (rng.random((ell, ell)) < 0.7)
            if rng.random() < 1.0 / 3.0:
                q[rng.integers(ell)] = 0.0
            np.fill_diagonal(q, 0.0)
            q[np.diag_indices(ell)] = -q.sum(axis=1)
            g = validate_generator(q)
            t = 10.0 ** rng.uniform(-4.0, np.log10(50.0))
            p = transition_matrix(g, t)
            assert np.max(np.abs(p - expm(g.q * t))) <= 1e-10, (q, t)
            assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-14, (q, t)
            assert np.all(p >= 0.0), (q, t)


class TestSampleChainPath:
    def test_absorbing_when_rates_zero(self):
        g = validate_generator(np.zeros((2, 2)))
        path = sample_chain_path(g, 2, 1.0, path_substream(1, 0))
        assert path.states == (2,)
        assert path.jump_times.size == 0

    def test_fixed_seed_reproducible(self):
        g = validate_generator([[-2.0, 2.0], [1.0, -1.0]])
        a = sample_chain_path(g, 1, 3.0, path_substream(42, 7))
        b = sample_chain_path(g, 1, 3.0, path_substream(42, 7))
        assert a.states == b.states
        assert np.array_equal(a.jump_times, b.jump_times)

    def test_invalid_initial_regime(self):
        g = validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(OutOfRange):
            sample_chain_path(g, 3, 1.0, path_substream(0, 0))

    @pytest.mark.parametrize("i0", [0, 1.5, True])
    def test_initial_regime_must_be_an_integer_in_range(self, i0):
        g = validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(OutOfRange, match="not an integer"):
            sample_chain_path(g, i0, 1.0, path_substream(0, 0))

    def test_path_invariants_hold_on_every_sample(self):
        q = np.array([[-1.5, 1.0, 0.5], [0.3, -0.8, 0.5], [1.0, 1.0, -2.0]])
        g = validate_generator(q)
        for k in range(500):
            path = sample_chain_path(g, 1 + k % 3, 2.0, path_substream(9, k))
            assert len(path.states) == path.jump_times.size + 1
            if path.jump_times.size:
                assert np.all(np.diff(path.jump_times) > 0.0)
                assert path.jump_times[0] > 0.0 and path.jump_times[-1] < 2.0
                assert all(a != b for a, b in zip(path.states, path.states[1:]))

    @pytest.mark.parametrize("states, jump_times", [
        ((1, 1), [0.4]),                  # repeated state
        ((1, 2), [1.0]),                  # jump at T
        ((1, 2, 1), [0.6, 0.4]),          # times not increasing
        ((1, 2), []),                     # one state too many
        ((1.5, 2), [0.4]),                # not an integer (was stored as 1)
        ((0, -3), [0.4]),                 # not >= 1 (regime_at gave -3)
        (("a",), []),                     # not a number (was a raw ValueError)
        ((True, 2), [0.4]),               # bool, refused as check_regime does
        (3, []),                          # not a sequence
        ((1, 2), ["x"]),                  # jump time not a number
    ])
    def test_bad_path_refused_with_a_typed_error(self, states, jump_times):
        with pytest.raises(StructuralError):
            RegimePath(T=1.0, states=states, jump_times=jump_times)

    def test_numpy_integer_states_accepted(self):
        path = RegimePath(T=1.0, states=np.array([2, 1]), jump_times=[0.4])
        assert path.states == (2, 1) and all(type(s) is int for s in path.states)
        assert path.regime_at(0.7) == 1

    def test_regime_lookup_is_cadlag(self):
        path = RegimePath(T=1.0, states=(1, 2), jump_times=np.array([0.4]))
        assert path.regime_at(0.0) == 1
        assert path.regime_at(0.39999) == 1
        assert path.regime_at(0.4) == 2
        assert path.regime_at(1.0) == 2

    def test_switch_probability_matches_closed_form(self):
        g = validate_generator([[-1.0, 1.0], [1.0, -1.0]])
        n = 20000
        switched = 0
        for k in range(n):
            path = sample_chain_path(g, 1, 1.0, path_substream(1234, k))
            switched += int(path.states[-1] != 1)
        p_hat = switched / n
        se = np.sqrt(TWO_STATE_SWITCH_P * (1 - TWO_STATE_SWITCH_P) / n)
        assert abs(p_hat - TWO_STATE_SWITCH_P) <= 4 * se

    def test_distribution_matches_transition_matrix(self):
        q = np.array([[-1.2, 0.8, 0.4], [0.5, -1.0, 0.5], [0.2, 0.3, -0.5]])
        g = validate_generator(q)
        t = 0.8
        n = 100_000
        counts = np.zeros(3)
        for k in range(n):
            path = sample_chain_path(g, 2, t, path_substream(77, k))
            counts[path.regime_at(t) - 1] += 1
        expected = transition_matrix(g, t)[1]
        for i in range(3):
            se = np.sqrt(expected[i] * (1 - expected[i]) / n)
            assert abs(counts[i] / n - expected[i]) <= 4 * se


def test_substreams_are_independent_of_order():
    a1 = path_substream(5, 10).standard_normal(4)
    _ = path_substream(5, 11).standard_normal(4)
    a2 = path_substream(5, 10).standard_normal(4)
    assert np.array_equal(a1, a2)


@pytest.mark.parametrize("seed", [0, 5, 2**32, 2**63 - 1])
def test_substream_below_2_63_keeps_its_stream(seed):
    # the key list that numpy read before seeds became uint64 key words
    old = np.random.Generator(np.random.Philox(key=[seed, 7]))
    assert np.array_equal(path_substream(seed, 7).random(6), old.random(6))


def test_every_seed_below_2_64_keys_its_own_stream():
    seeds = [0, 2**63, 2**63 + 1, 2**64 - 1, np.uint64(2**64 - 2)]
    draws = [path_substream(s, 3).random(4) for s in seeds]
    for s, d in zip(seeds, draws):
        assert path_substream(s, 3).bit_generator.state["state"]["key"].tolist() == [s, 3]
        assert sum(np.array_equal(d, other) for other in draws) == 1


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 1.5, 2.0, True, "3", None])
def test_seed_outside_key_range_is_refused(seed):
    with pytest.raises(OutOfRange, match=r"not an integer in \[0, 2\^64\)"):
        path_substream(seed, 0)


def test_rekeyed_substream_draws_equal_fresh_substreams():
    keys = [3, 0, 1, 4095, 2**40]
    draws = (
        lambda g: g.exponential(0.5, 5),
        lambda g: g.random(3),
        lambda g: g.standard_normal(9),
        lambda g: g.integers(0, 2**32, size=4, dtype=np.uint32),
    )
    for k, rng in zip(keys, rekeyed(path_substream(11, 3), keys)):
        fresh = path_substream(11, k)
        for draw in draws:
            assert np.array_equal(draw(rng), draw(fresh))
        # leave a partly used buffer and a pending 32-bit half for the next key
        rng.integers(0, 2**32, dtype=np.uint32)
        if rng.bit_generator.state["buffer_pos"] == 4:
            rng.random()
        state = rng.bit_generator.state
        assert state["buffer_pos"] < 4 and state["has_uint32"] == 1


def _searchsorted_jumps(q, cum, i0, T, rng):
    """Reference: the sampler on numpy scalars and ``np.searchsorted``."""
    state = int(i0)
    t = 0.0
    jump_times = []
    states = [state]
    while True:
        rate = -q[state - 1, state - 1]
        if rate <= 0.0:
            break
        t += rng.exponential(1.0 / rate)
        if t >= T:
            break
        u = rng.random()
        idx = min(int(np.searchsorted(cum[state - 1], u, side="right")), cum.shape[1] - 1)
        state = idx + 1
        jump_times.append(t)
        states.append(state)
    return jump_times, states


@pytest.mark.parametrize("q", [
    [[-1.0, 1.0], [1.0, -1.0]],
    # regime 2 absorbing; rows 1 and 3 have equal cumulative entries
    [[-3.0, 3.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, -2.0]],
    # fast switching with rates whose cumulative rows round
    [[-0.7, 0.1, 0.6], [0.3, -0.4, 0.1], [30.0, 70.0, -100.0]],
])
def test_jumps_equal_searchsorted_reference(q):
    q = np.array(q)
    cum = _jump_cumprobs(q)
    ell = len(q)
    for i0 in range(1, ell + 1):
        for p in range(1000):
            ref_rng, rng = path_substream(21, p), path_substream(21, p)
            want = _searchsorted_jumps(q, cum, i0, 2.0, ref_rng)
            assert sample_jumps(q.tolist(), cum.tolist(), i0, 2.0, rng) == want
            assert sample_jumps(q, cum, i0, 2.0, path_substream(21, p)) == want
            # the same draws were consumed
            assert np.array_equal(rng.random(4), ref_rng.random(4))
