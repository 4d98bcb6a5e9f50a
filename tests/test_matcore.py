"""Symmetric-matrix algebra: constructors, spectral queries, guarded
inversion."""

import numpy as np
import pytest

from regimelq.errors import AsymmetryExceeded, DimensionMismatch, NearSingular, PsdViolation
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
        inv = sym_inverse(np.diag([2.0, 4.0]), cond_threshold=1e12)
        assert np.allclose(inv, np.diag([0.5, 0.25]), atol=1e-14)

    def test_identity(self):
        for n in (1, 3, 5):
            assert np.allclose(sym_inverse(np.eye(n)), np.eye(n), atol=1e-14)

    def test_near_singular_rejected(self):
        with pytest.raises(NearSingular):
            sym_inverse(np.diag([1.0, 1e-15]), cond_threshold=1e12)

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
            sym_inverse(stack, cond_threshold=1e12)
        stack[3] = np.diag([1.0, 0.0])
        with pytest.raises(NearSingular, match="condition number inf"):
            sym_inverse(stack)


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
        assert np.array_equal(project_psd(a, 1e-9), a)

    def test_tiny_negative_clipped(self):
        a = np.diag([1.0, -1e-12])
        out = project_psd(a, 1e-9)
        assert min_eigenvalue(out) >= 0.0
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_genuine_violation_raises(self):
        with pytest.raises(PsdViolation):
            project_psd(np.diag([1.0, -1e-6]), 1e-9)

    def test_nan_raises(self):
        # NaN is what an overflowed RK4 step leaves; it must not be clipped
        with pytest.raises(PsdViolation):
            project_psd(np.diag([1.0, np.nan]), 1e-9)

    def test_batched(self):
        stack = np.stack([np.diag([1.0, -1e-13]), np.eye(2)])
        out = project_psd(stack, 1e-9)
        assert out.shape == stack.shape
        assert float(np.min(np.linalg.eigvalsh(out))) >= 0.0
