"""Continuous-time Markov chain on the regime set {1, ..., ell}.

The regime process is a stationary chain with generator matrix
``q = (q_ij)``: off-diagonal entries are nonnegative jump rates and every
row sums to zero.  Paths are sampled *exactly* (exponential holding times,
embedded jump probabilities ``q_ij / (-q_ii)``) rather than thinned on a
grid, so chain statistics carry no discretization bias; the state simulator
later reads the regime by lookup.

Randomness comes from counter-based Philox substreams keyed by
``(master_seed, path_index)``, which makes every path reproducible
independently of scheduling or batch size.  A batch of paths builds one
Philox and re-keys it per path (:func:`rekeyed`), which draws exactly
what a fresh substream per path would, so streams and estimates do not
depend on how the substreams are made.

Regimes are numbered 1..ell everywhere in the public interface, matching
the usual notation for switching systems.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeOffDiagonal,
    OutOfRange,
    RowSumNonzero,
    StructuralError,
    TooFewRegimes,
)
from .matcore import _floats

ROW_SUM_TOL = 1e-12
POISSON_CUTOFF = 1e-18


def check_regime(regime, ell: int, what: str = "regime") -> int:
    """``regime`` as an int in 1..ell, the 1-based numbering of the public
    interface.  Raises OutOfRange for anything else, bool included."""
    if (not isinstance(regime, (int, np.integer)) or isinstance(regime, bool)
            or not 1 <= regime <= ell):
        raise OutOfRange(f"{what} {regime!r} is not an integer in 1..{ell}")
    return int(regime)


@dataclass(frozen=True)
class Generator:
    """Validated generator matrix of the regime chain.

    Attributes
    ----------
    ell : int
        Number of regimes (>= 2).
    q : ndarray, shape (ell, ell)
        Rate matrix: ``q[i, j] >= 0`` for ``i != j``, zero row sums.
    """

    ell: int
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.array(self.q, dtype=float))
        self.q.setflags(write=False)


def validate_generator(q) -> Generator:
    """Validate a raw rate matrix and wrap it as a :class:`Generator`.

    Raises
    ------
    TooFewRegimes
        If the matrix is smaller than 2x2 (a single regime is not a
        switching problem).
    StructuralError
        If the matrix is not an array of numbers or an entry is NaN or
        infinite.
    DimensionMismatch
        If the matrix is not square.
    NegativeOffDiagonal, RowSumNonzero
        If the rate structure is invalid.
    """
    q = _floats(q, "q")
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise DimensionMismatch(f"generator must be square, got shape {q.shape}")
    ell = q.shape[0]
    if ell < 2:
        raise TooFewRegimes("at least 2 regimes are required")
    if not np.isfinite(q).all():
        i, j = np.argwhere(~np.isfinite(q))[0]
        raise StructuralError(f"q[{i + 1},{j + 1}] = {q[i, j]:g} is not finite")
    off = q.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < 0.0):
        i, j = np.argwhere(off < 0.0)[0]
        raise NegativeOffDiagonal(f"q[{i + 1},{j + 1}] = {q[i, j]:g} is negative")
    sums = q.sum(axis=1)
    bad = np.where(np.abs(sums) > ROW_SUM_TOL)[0]
    if bad.size:
        i = int(bad[0])
        raise RowSumNonzero(f"row {i + 1} sums to {sums[i]:.3e}")
    return Generator(ell=ell, q=q)


def transition_matrix(g: Generator, t: float) -> np.ndarray:
    """Transition probability matrix ``exp(q t)``.

    Computed by uniformization (Jensen 1953) and squaring: with
    ``lam = max_i(-q_ii)``, ``U = I + q/lam`` is a stochastic matrix and
    ``exp(q t) = sum_k e^{-lam t} (lam t)^k/k! U^k``.  The Poisson series is
    summed at ``x = lam t / 2^s <= 1``, up to the first weight below
    ``POISSON_CUTOFF`` and smallest term first, then squared ``s`` times;
    every row is divided by its sum after the series and after each
    squaring.  All terms are nonnegative, so entries are nonnegative and
    rows sum to 1 within a few ulps.  Raises OutOfRange unless ``t`` is
    finite and nonnegative.
    """
    t = float(t)
    if not (math.isfinite(t) and t >= 0.0):
        raise OutOfRange(f"time must be finite and nonnegative, got {t!r}")
    eye = np.eye(g.ell)
    lam = float(np.max(-np.diag(g.q)))
    if lam == 0.0 or t == 0.0:
        return eye
    # log2 of the factors, so lam * t cannot overflow
    s = max(0, math.ceil(math.log2(lam) + math.log2(t)))
    x = math.ldexp(lam, -s) * t
    u = eye + g.q / lam
    weight = math.exp(-x)
    power = eye
    terms = [weight * eye]
    k = 1
    while (weight := weight * x / k) >= POISSON_CUTOFF:
        power = power @ u
        terms.append(weight * power)
        k += 1
    p = sum(reversed(terms))      # smallest terms first, for accuracy
    p /= p.sum(axis=1, keepdims=True)
    for _ in range(s):
        p = p @ p
        p /= p.sum(axis=1, keepdims=True)
    return p


@dataclass(frozen=True)
class RegimePath:
    """One realized chain trajectory on [0, T].

    ``states[0]`` is the initial regime; ``states[k]`` holds on
    ``[jump_times[k-1], jump_times[k])`` and the final state holds up to T.
    States are integers >= 1 (bool refused), jump times are strictly
    increasing and lie in (0, T), and consecutive states differ.  Other
    data is refused with StructuralError.
    """

    T: float
    states: tuple
    jump_times: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        jt = _floats(self.jump_times, "jump times")
        object.__setattr__(self, "jump_times", jt)
        try:
            states = tuple(self.states)
        except TypeError as exc:
            raise StructuralError(
                f"states must be a sequence of regimes, got {self.states!r}") from exc
        for s in states:
            if isinstance(s, bool) or not isinstance(s, (int, np.integer)) or s < 1:
                raise StructuralError(f"states must be integers >= 1, got {s!r}")
        object.__setattr__(self, "states", tuple(int(s) for s in states))
        if len(self.states) != jt.size + 1:
            raise StructuralError("need exactly one more state than jump times")
        if jt.size:
            if not (np.all(np.diff(jt) > 0.0) and jt[0] > 0.0 and jt[-1] < self.T):
                raise StructuralError("jump times must be strictly increasing in (0, T)")
            if any(a == b for a, b in zip(self.states, self.states[1:])):
                raise StructuralError("consecutive states must differ")

    def regime_at(self, t) -> np.ndarray:
        """Regime (1-based) at one or many times in [0, T]; cadlag lookup."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.jump_times, t, side="right")
        return np.asarray(self.states)[idx]


def _jump_cumprobs(q: np.ndarray) -> np.ndarray:
    """Cumulative embedded-jump probabilities per row (self-rate excluded);
    rows with zero exit rate are left at zero."""
    ell = q.shape[0]
    off = q.copy()
    np.fill_diagonal(off, 0.0)
    rates = -np.diag(q)
    cum = np.zeros_like(off)
    active = rates > 0.0
    cum[active] = np.cumsum(off[active] / rates[active, None], axis=1)
    return cum


def sample_jumps(q, cum, i0: int, T: float, rng: np.random.Generator):
    """Raw jump times and visited states (1-based) of one exact chain path.

    Holding time in regime i is exponential with rate ``-q[i, i]``; the
    next regime is drawn by inverse CDF from the embedded-jump row of
    ``cum`` (see :func:`_jump_cumprobs`).  A regime with zero exit rate is
    absorbing.  Shared by the single-path and the batched simulators so
    both consume a substream identically.

    ``q`` and ``cum`` may be arrays or nested lists of floats
    (``q.tolist()``); both draw the same path, and lists, made once for a
    batch of paths, skip numpy's per-element indexing.
    """
    last = len(q) - 1
    state = int(i0)
    t = 0.0
    jump_times = []
    states = [state]
    while True:
        rate = -q[state - 1][state - 1]
        if rate <= 0.0:
            break
        t += rng.exponential(1.0 / rate)
        if t >= T:
            break
        u = rng.random()
        # clamp guards the measure-zero case u >= cum[-1] under roundoff
        state = min(bisect.bisect_right(cum[state - 1], u), last) + 1
        jump_times.append(t)
        states.append(state)
    return jump_times, states


def sample_chain_path(g: Generator, i0: int, T: float, rng: np.random.Generator) -> RegimePath:
    """Exact simulation of one chain path started at regime ``i0``."""
    i0 = check_regime(i0, g.ell, "initial regime")
    jump_times, states = sample_jumps(g.q, _jump_cumprobs(g.q), i0, T, rng)
    return RegimePath(T=T, states=tuple(states), jump_times=np.array(jump_times))


def check_seed(seed) -> int:
    """``seed`` as an int in [0, 2^64), the range of one Philox key word.
    Raises OutOfRange for anything else, bool included."""
    if (not isinstance(seed, (int, np.integer)) or isinstance(seed, bool)
            or not 0 <= seed < 2**64):
        raise OutOfRange(f"seed {seed!r} is not an integer in [0, 2^64)")
    return int(seed)


def path_substream(master_seed: int, path_index: int) -> np.random.Generator:
    """Counter-based substream for one simulated path.

    Philox is keyed with ``(master_seed, path_index)``, so path k always
    sees the same randomness no matter how paths are batched or scheduled.
    The key is built as uint64 words, so every seed in [0, 2^64) keys its
    own stream; any other seed raises OutOfRange (see :func:`check_seed`).
    """
    key = np.array([check_seed(master_seed), path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rekeyed(rng: np.random.Generator, path_indices):
    """Yield ``rng`` re-keyed to each path index in turn.

    ``rng`` must come unused from :func:`path_substream`.  Re-keying
    restores its fresh Philox state (counter, buffer and pending 32-bit
    half) with ``key[1]`` set to the path index, so each yielded generator
    draws exactly what ``path_substream(master_seed, path_index)`` would,
    at a fraction of the cost of building one.
    """
    bitgen = rng.bit_generator
    fresh = bitgen.state
    for k in path_indices:
        fresh["state"]["key"][1] = k
        bitgen.state = fresh
        yield rng
