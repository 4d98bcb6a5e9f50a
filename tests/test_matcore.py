"""Symmetric-matrix algebra: constructors, spectral queries, guarded
inversion."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regimelq import matcore
from regimelq.errors import (
    AsymmetryExceeded, DimensionMismatch, NearSingular, PsdViolation, StructuralError,
)
from regimelq.matcore import (
    make_symmetric,
    min_eigenvalue,
    project_psd,
    sym_inverse,
    symmetrize,
)


class TestMakeSymmetric:
    def test_already_symmetric_unchanged(self):
        m = make_symmetric([[1.0, 2.0], [2.0, 3.0]])
        assert np.array_equal(m, [[1.0, 2.0], [2.0, 3.0]])

    def test_subtolerance_noise_is_averaged(self):
        m = make_symmetric([[1.0, 2.0 + 1e-13], [2.0, 3.0]])
        assert np.allclose(m, [[1.0, 2.0], [2.0, 3.0]], atol=1e-13)
        assert np.array_equal(m, m.T)

    def test_gross_asymmetry_rejected(self):
        with pytest.raises(AsymmetryExceeded):
            make_symmetric([[1.0, 2.0], [5.0, 3.0]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            make_symmetric(np.zeros((2, 3)))

    def test_non_numeric_rejected(self):
        with pytest.raises(StructuralError, match="^matrix must be an array of numbers: "):
            make_symmetric([["a", 1.0], [1.0, 2.0]])

    def test_stack_matches_members(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 3, 2, 2))
        m = m + np.swapaxes(m, -1, -2) + 1e-13 * rng.standard_normal(m.shape)
        out = make_symmetric(m)
        assert out.shape == m.shape
        for idx in np.ndindex(4, 3):
            assert np.array_equal(out[idx], make_symmetric(m[idx]))

    def test_stack_rejects_one_asymmetric_member(self):
        m = np.stack([np.eye(2)] * 5)
        m[3, 0, 1] = 0.5
        with pytest.raises(AsymmetryExceeded):
            make_symmetric(m)

    @pytest.mark.parametrize("shape", [(3, 2, 3), (2, 2, 3, 2), (4,)])
    def test_stack_non_square_rejected(self, shape):
        with pytest.raises(DimensionMismatch):
            make_symmetric(np.zeros(shape))


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_stack(self):
        stack = np.stack([np.eye(2), np.diag([3.0, -2.0]), np.diag([-1.0, 5.0])])
        assert min_eigenvalue(stack) == -2.0

    def test_diagonal(self):
        assert min_eigenvalue(np.diag([2.0, -3.0])) == pytest.approx(-3.0, abs=1e-12)

    def test_two_by_two(self):
        # eigenvalues 1 and 3
        assert min_eigenvalue([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(1.0, abs=1e-12)

    def test_shift_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            m = symmetrize(rng.standard_normal((n, n)))
            c = float(rng.standard_normal())
            shifted = min_eigenvalue(c * np.eye(n) + m)
            assert shifted == pytest.approx(c + min_eigenvalue(m), abs=1e-10)


class TestSymInverse:
    def test_diagonal(self):
        inv = sym_inverse(np.diag([2.0, 4.0]))
        assert np.allclose(inv, np.diag([0.5, 0.25]), atol=1e-14)

    def test_identity(self):
        for n in (1, 3, 5):
            assert np.allclose(sym_inverse(np.eye(n)), np.eye(n), atol=1e-14)

    def test_near_singular_rejected(self):
        with pytest.raises(NearSingular):
            sym_inverse(np.diag([1.0, 1e-15]))

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(NearSingular):
            sym_inverse(np.diag([1.0, 0.0]))

    def test_involution(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            m = rng.standard_normal((n, n))
            a = symmetrize(m @ m.T + 0.5 * np.eye(n))
            back = sym_inverse(sym_inverse(a))
            assert np.linalg.norm(back - a) <= 1e-9 * np.linalg.norm(a)

    def test_output_symmetric(self):
        rng = np.random.default_rng(23)
        m = rng.standard_normal((4, 4))
        a = symmetrize(m @ m.T + np.eye(4))
        inv = sym_inverse(a)
        assert np.array_equal(inv, inv.T)

    def test_stack_matches_members(self):
        rng = np.random.default_rng(29)
        for n in (1, 2, 3):
            m = rng.standard_normal((4, 3, n, n))
            stack = symmetrize(m @ m.mT + 0.5 * np.eye(n))
            inv = sym_inverse(stack)
            for idx in np.ndindex(4, 3):
                assert np.array_equal(inv[idx], sym_inverse(stack[idx]))

    def test_stack_rejects_one_bad_member(self):
        stack = np.stack([np.eye(2)] * 5)
        stack[3] = np.diag([1.0, 1e-15])
        with pytest.raises(NearSingular, match="condition number 1.000e"):
            sym_inverse(stack)
        stack[3] = np.diag([1.0, 0.0])
        with pytest.raises(NearSingular, match="condition number inf"):
            sym_inverse(stack)


class TestRefusals:
    """Each verdict names the member of a stack it refused, and refuses a
    NaN or infinite entry, never by a warning."""

    @staticmethod
    def _stack(members):
        stack = np.stack([np.eye(2)] * 6).reshape(2, 3, 2, 2)
        for index, diag in members.items():
            stack[index] = np.diag(diag)
        return stack

    def test_psd_refusal_names_the_lowest_member(self):
        stack = self._stack({(0, 1): [1.0, -0.5], (1, 2): [1.0, -1.0]})
        for check in (project_psd, matcore.require_psd):
            with pytest.raises(PsdViolation, match=r"^min eigenvalue -1\.000e\+00 at or") as err:
                check(stack)
            assert err.value.member == (1, 2)

    def test_condition_refusal_names_the_worst_member(self):
        stack = self._stack({(0, 2): [1.0, 1e-3], (1, 0): [1.0, 1e-14]})
        for check in (sym_inverse, matcore.require_conditioned):
            with pytest.raises(NearSingular, match=r"^condition number 1\.000e\+14 ") as err:
                check(stack)
            assert err.value.member == (1, 0)

    # LAPACK's eigenvalues of these: [nan, nan], [nan], [inf] and [0], [0, -0],
    # [inf], the finite [-1.67, 1.67] and no convergence
    NON_FINITE = {
        "inf-2x2": [[[1.0, 0.0], [0.0, np.inf]]],
        "nan-1x1": [[[np.nan]]],
        "inf-beside-zero": [[[np.inf]], [[0.0]]],
        "nan-2x2": [[[1.0, 0.0], [0.0, np.nan]]],
        "inf-1x1": [[[np.inf]]],
        "finite-garbage": [[[3.932316053018142, 1.1834112785227204],
                            [1.1834112785227204, np.nan]]],
        "no-convergence": [[[2.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, np.nan]]],
    }
    # an infinite 1 x 1 member is its own eigenvalue, inf >= 0, and is PSD
    PSD_NON_FINITE = {k: v for k, v in NON_FINITE.items()
                      if k not in ("inf-beside-zero", "inf-1x1")}

    @pytest.mark.parametrize("m", list(NON_FINITE.values()), ids=list(NON_FINITE))
    def test_non_finite_spectrum_is_not_conditioned(self, m):
        m = np.array(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for check in (sym_inverse, matcore.require_conditioned):
                with pytest.raises(NearSingular, match=r"^condition number inf ") as err:
                    check(m)
                assert err.value.member == (0,)

    @pytest.mark.parametrize("m", list(PSD_NON_FINITE.values()), ids=list(PSD_NON_FINITE))
    def test_non_finite_entry_is_not_psd(self, m):
        m = np.concatenate([np.stack([np.eye(len(m[0]))]), np.array(m)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for check in (project_psd, matcore.require_psd):
                with pytest.raises(PsdViolation, match=r"^min eigenvalue nan ") as err:
                    check(m)
                assert err.value.member == (1,)

    def test_huge_entries_pass_without_overflow(self):
        m = np.array([[[1e300]], [[2e300]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matcore.require_conditioned(m)
            assert np.array_equal(sym_inverse(m), 1.0 / m)


def test_trace_bound_for_psd_factor():
    # tr(A B) <= max_eig(A) tr(B) for symmetric A and PSD B, with
    # max_eig(A) = -min_eig(-A)
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        a = symmetrize(rng.standard_normal((n, n)))
        mb = rng.standard_normal((n, n))
        b = mb @ mb.T
        lhs = float(np.trace(a @ b))
        rhs = -min_eigenvalue(-a) * float(np.trace(b))
        slack = 1e-10 * (1.0 + np.linalg.norm(a) * np.linalg.norm(b))
        assert lhs <= rhs + slack


class TestProjectPsd:
    def test_psd_input_untouched(self):
        a = np.diag([1.0, 2.0])
        assert np.array_equal(project_psd(a), a)

    def test_tiny_negative_clipped(self):
        a = np.diag([1.0, -1e-12])
        out = project_psd(a)
        assert min_eigenvalue(out) >= 0.0
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_genuine_violation_raises(self):
        with pytest.raises(PsdViolation):
            project_psd(np.diag([1.0, -1e-6]))

    def test_nan_raises(self):
        # NaN is what an overflowed RK4 step leaves; it must not be clipped
        with pytest.raises(PsdViolation):
            project_psd(np.diag([1.0, np.nan]))

    def test_batched(self):
        stack = np.stack([np.diag([1.0, -1e-13]), np.eye(2)])
        out = project_psd(stack)
        assert out.shape == stack.shape
        assert float(np.min(np.linalg.eigvalsh(out))) >= 0.0


# ---------------------------------------------------------------------------
# the disc bound: verdicts without an eigendecomposition
# ---------------------------------------------------------------------------


def _unreadable_member(m):
    """The first member with a NaN entry or, beyond 1 x 1, an infinite one:
    the guards refuse it before any eigendecomposition."""
    for index in np.ndindex(m.shape[:-2]):
        a = m[index]
        if np.isnan(a).any() or (a.shape[-1] > 1 and not np.isfinite(a).all()):
            return index
    return None


def _psd_refusal(wmin, psd_tol, member):
    return PsdViolation(f"min eigenvalue {wmin:.3e} at or below -psd_tol = {-psd_tol:.3e}",
                        member=member)


def _project_psd_eigh(m, psd_tol):
    """project_psd without the disc bound: eigh on every call."""
    m = np.asarray(m, dtype=float)
    if (member := _unreadable_member(m)) is not None:
        raise _psd_refusal(np.nan, psd_tol, member)
    w, v = np.linalg.eigh(m)
    low = w.min(axis=-1)
    wmin = float(low.min())
    if not wmin > -psd_tol:
        raise _psd_refusal(wmin, psd_tol, np.unravel_index(np.argmin(low), low.shape))
    if wmin >= 0.0:
        return m
    w = np.clip(w, 0.0, None)
    return symmetrize((v * w[..., None, :]) @ np.swapaxes(v, -1, -2))


def _require_psd_eigvalsh(m, psd_tol):
    """require_psd without the disc bound: the verdict of project_psd on
    the eigenvalues ``eigvalsh`` gives."""
    if (member := _unreadable_member(m)) is not None:
        raise _psd_refusal(np.nan, psd_tol, member)
    low = np.linalg.eigvalsh(m).min(axis=-1)
    if not float(low.min()) > -psd_tol:
        raise _psd_refusal(float(low.min()), psd_tol,
                           np.unravel_index(np.argmin(low), low.shape))


def _require_conditioned_eigvalsh(m, cond):
    """require_conditioned without the disc bound: every member's
    eigenvalue magnitudes nonzero, finite and within a factor ``cond``,
    else NearSingular naming the largest condition number."""
    if (member := _unreadable_member(m)) is not None:
        raise NearSingular(f"condition number inf exceeds threshold {cond:.3e}", member=member)
    aw = np.abs(np.linalg.eigvalsh(m))
    lo, hi = aw.min(axis=-1), aw.max(axis=-1)
    ok = (lo > 0.0) & (hi / cond <= lo) & (hi < np.inf)
    if ok.all():
        return
    with np.errstate(over="ignore"):
        ratio = np.divide(hi, lo, out=np.where(ok, 0.0, np.inf),
                          where=~ok & (lo > 0.0) & (lo < np.inf))
    worst = np.unravel_index(np.argmax(ratio), ratio.shape)
    raise NearSingular(f"condition number {ratio[worst]:.3e} exceeds threshold {cond:.3e}",
                       member=worst)


def _outcome(fn, *args):
    """What a guard gives: its result, or its error type, text and member
    (LAPACK's eigensolver can also stop with LinAlgError)."""
    try:
        return fn(*args)
    except (PsdViolation, NearSingular, np.linalg.LinAlgError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "member", None))


def _same(got, want):
    if isinstance(want, str) or isinstance(got, str):
        return False
    if want is None or got is None:
        return got is want
    if isinstance(want, tuple):
        return got == want
    return (isinstance(got, np.ndarray) and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def _reference(m, psd_tol, cond):
    """The PSD clip, the PSD check and the condition verdict from the
    eigendecomposition."""
    return (_outcome(_project_psd_eigh, m, psd_tol), _outcome(_require_psd_eigvalsh, m, psd_tol),
            _outcome(_require_conditioned_eigvalsh, m, cond))


def _guards(m, psd_tol, cond):
    """The three verdicts of the package with its tolerances set to
    ``psd_tol`` and ``cond``."""
    with mock.patch.object(matcore, "PSD_TOL", psd_tol), \
            mock.patch.object(matcore, "COND_THRESHOLD", cond):
        return (_outcome(project_psd, m), _outcome(matcore.require_psd, m),
                _outcome(matcore.require_conditioned, m))


def _with_warnings(fn, *args):
    """``fn(*args)`` and the texts of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught]


def _member(rng, n, kind):
    """One n x n symmetric member of the given kind, at a random scale and
    with a random sign pattern (which keeps |m| and the spectrum)."""
    scale = 10.0 ** rng.uniform(-3, 3)
    lap = np.zeros((n, n))                   # weighted graph Laplacian: eigenvalue 0,
    for i in range(n):                       # every Gershgorin disc touches 0
        for j in range(i):
            lap[i, j] = lap[j, i] = -rng.uniform(0.1, 1.0)
    np.fill_diagonal(lap, -lap.sum(axis=1))
    if kind == "dominant":
        m = lap + rng.uniform(0.5, 2.0) * np.eye(n)
    elif kind == "near":
        # smallest eigenvalue within +-1e3 margins of 0, disc bound tight
        margin = matcore.DISC_MARGIN * n * max(np.abs(lap).max(), 1.0)
        m = lap + rng.uniform(-1e3, 1e3) * margin * np.eye(n)
        if n == 1:
            m = np.array([[rng.uniform(-1e3, 1e3) * matcore.DISC_MARGIN]])
    elif kind == "singular":
        m = lap if rng.random() < 0.5 else np.zeros((n, n))
    elif kind == "triangular":
        # eigh reads the lower triangle alone: its discs are those of lap + c I
        m = np.tril(lap + rng.uniform(0.0, 1.0) * np.eye(n))
    elif kind == "general":
        x = rng.standard_normal((n, n))
        m = x @ x.T
    elif kind == "negative":
        x = rng.standard_normal((n, n))
        m = x @ x.T - rng.uniform(1e-12, 1.0) * np.eye(n)
    else:                                    # "nan" or "inf"
        m = lap + np.eye(n)
        i, j = rng.integers(0, n, 2)
        m[i, j] = m[j, i] = np.nan if kind == "nan" else rng.choice([np.inf, -np.inf])
    sign = rng.choice([-1.0, 1.0], n)
    return scale * (sign[:, None] * m * sign[None, :])


MIXES = [("dominant",), ("dominant", "near"), ("near",), ("singular", "dominant"),
         ("general", "dominant"), ("negative", "dominant"), ("nan", "dominant"),
         ("inf", "dominant"), ("triangular",),
         ("dominant", "near", "singular", "triangular", "general", "negative", "nan", "inf")]


class TestDiscBound:
    """Where the disc bound decides, a guard must give exactly what its
    eigendecomposition gives; elsewhere it must defer to it."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
           size=st.integers(1, 300), mix=st.sampled_from(MIXES),
           psd_tol=st.sampled_from([1e-9, 1e-6, 1e-300]),
           cond=st.sampled_from([1e12, 1e3, 4.0, 1.0]))
    def test_verdicts_equal_eigendecomposition(self, seed, n, size, mix, psd_tol, cond):
        rng = np.random.default_rng(seed)
        stack = np.stack([_member(rng, n, mix[k]) for k in rng.integers(0, len(mix), size)])
        shape = (size,) if rng.random() < 0.5 else (1, size)
        # the whole stack, then its first members alone, where one member
        # near the margin decides the verdict
        for m in [stack.reshape(shape + (n, n))] + list(stack[:20]):
            want, want_warnings = _with_warnings(_reference, m, psd_tol, cond)
            got, got_warnings = _with_warnings(_guards, m, psd_tol, cond)
            assert all(_same(a, b) for a, b in zip(got, want))
            assert got_warnings == want_warnings
            floor = matcore._eigenvalue_floor(m)
            w = _outcome(np.linalg.eigvalsh, m)
            if not (np.isnan(floor) or isinstance(w, tuple)):
                assert floor <= float(np.min(w))

    def test_decided_stacks_run_no_eigendecomposition(self, monkeypatch):
        rng = np.random.default_rng(3)
        psd = np.stack([_member(rng, 3, "dominant") for _ in range(50)])
        psd = np.abs(psd)                     # positive diagonal: every disc in (0, inf)
        sigma = rng.uniform(0.5, 2.0, (101, 2, 1, 1))

        def refuse(*args, **kwargs):
            raise AssertionError("eigendecomposition ran")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert project_psd(psd) is psd
        matcore.require_psd(psd)
        matcore.require_conditioned(psd)
        matcore.require_conditioned(sigma)
        assert project_psd(sigma) is sigma

    def test_one_by_one_premise(self):
        # dsyevd returns A(1,1) for N = 1, and LU inverts a 1 x 1 block by
        # one division: the 1 x 1 shortcuts rest on both
        rng = np.random.default_rng(11)
        for _ in range(20):
            shape = (64, 3, 1, 1)
            s = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300, 300, shape)
            s[0, 0] = -0.0
            s[1, 0] = np.inf
            m = rng.standard_normal((64, 3, 1, 4))
            assert np.array_equal(np.linalg.eigvalsh(s), s[..., 0])
            assert np.array_equal(np.linalg.eigh(s)[0], s[..., 0])
            assert np.array_equal(np.linalg.inv(s[2:]) @ m[2:], (1.0 / s[2:]) @ m[2:])

    @pytest.mark.parametrize("n", [1, 2])
    def test_empty_stack_as_eigendecomposition(self, n):
        empty = np.zeros((0, n, n))
        matcore.require_conditioned(empty)
        with pytest.raises(ValueError):
            project_psd(empty)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_warning_from_bound(self, bad, n):
        stack = np.stack([np.eye(n)] * 4)
        stack[2, n - 1, 0] = stack[2, 0, n - 1] = bad
        stack[3, 0, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            floor = matcore._eigenvalue_floor(stack)
            if n > 1:
                assert matcore._discs(stack) is None
                assert np.isnan(floor)
        want, want_warnings = _with_warnings(_reference, stack, 1e-9, 1e12)
        got, got_warnings = _with_warnings(_guards, stack, 1e-9, 1e12)
        assert got_warnings == want_warnings == []
        assert all(_same(a, b) for a, b in zip(got, want))
