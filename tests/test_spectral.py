import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from delaysync import eigenvalues, is_schur_stable, omega_max
from delaysync.errors import AssumptionError, DimensionError, NumericError
from delaysync.spectral import SCHUR_TOL, spectral_radius

from conftest import BENCH_A, BENCH_C, BENCH_F, rotation

square = st.integers(1, 5).flatmap(
    lambda n: arrays(np.float64, (n, n),
                     elements=st.floats(-5, 5, allow_nan=False)))


class TestEigenvalues:
    def test_identity(self):
        np.testing.assert_allclose(eigenvalues(np.eye(2)), [1.0, 1.0])

    def test_rotation_pair(self):
        # char poly of [[0,1],[-1,0]] is l^2 + 1 = 0, roots +-j; ordering
        # puts the negative argument first
        vals = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        np.testing.assert_allclose(vals, [-1j, 1j], atol=1e-14)

    def test_bench_spectrum(self):
        # A is block triangular: char poly (1/2 - l)((sqrt3/2 - l)^2 + 1/4),
        # so the roots are 1/2 and exp(+-j pi/6)
        expected = np.array([np.exp(-1j * math.pi / 6),
                             np.exp(1j * math.pi / 6), 0.5])
        vals = eigenvalues(BENCH_A)
        np.testing.assert_allclose(vals, expected, atol=1e-12)
        for lam in expected:  # substitution oracle, independent of eigvals
            assert abs(np.linalg.det(BENCH_A - lam * np.eye(3))) < 1e-12

    def test_deterministic_order(self):
        M = np.array([[0.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, 0.3]])
        first = eigenvalues(M)
        assert np.array_equal(first, eigenvalues(M))
        assert np.all(np.diff(np.abs(first)) <= 1e-15)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            eigenvalues(np.zeros((2, 3)))

    @settings(max_examples=60, deadline=None)
    @given(square)
    def test_product_is_det_sum_is_trace(self, M):
        vals = eigenvalues(M)
        # LAPACK's det of a subnormal matrix warns while dividing by zero
        with np.errstate(divide="ignore"):
            det = np.linalg.det(M)
        prod = np.prod(vals)
        tr = np.trace(M)
        tot = np.sum(vals)
        assert abs(prod - det) <= 1e-8 * max(1.0, abs(det), abs(prod))
        assert abs(tot - tr) <= 1e-8 * max(1.0, abs(tr), np.abs(vals).sum())


class TestSpectralRadiusOfAStack:
    @settings(max_examples=60, deadline=None)
    @given(square)
    def test_stack_of_one_is_the_matrix_result(self, M):
        radii = spectral_radius(M[None])
        assert radii.shape == (1,)
        assert radii[0] == spectral_radius(M)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: arrays(
        np.float64, (3, n, n), elements=st.floats(-5, 5, allow_nan=False))))
    def test_each_member_is_its_own_result(self, stack):
        assert spectral_radius(stack).tolist() \
            == [spectral_radius(M) for M in stack]

    def test_nan_in_one_member_rejected(self):
        stack = np.stack([np.eye(2), np.eye(2), np.eye(2)])
        stack[1, 0, 1] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            spectral_radius(stack)

    def test_eigenvalue_failure_is_a_numeric_error(self, monkeypatch):
        def fail(M):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(NumericError, match="order-2 matrix"):
            spectral_radius(np.zeros((4, 2, 2)))

    def test_shapes(self):
        with pytest.raises(DimensionError):
            spectral_radius(np.zeros((3, 2, 3)))
        with pytest.raises(DimensionError):
            spectral_radius(np.zeros(3))
        with pytest.raises(DimensionError):
            spectral_radius(np.zeros((2, 0, 0)))

    def test_eigenvalues_take_no_stack(self):
        with pytest.raises(DimensionError):
            eigenvalues(np.zeros((1, 2, 2)))


class TestSchurStable:
    def test_zero_matrix(self):
        for n in (1, 2, 4):
            assert is_schur_stable(np.zeros((n, n)))

    def test_takes_no_stack(self):
        with pytest.raises(DimensionError):
            is_schur_stable(np.zeros((1, 2, 2)))

    def test_boundary_rotation_excluded(self):
        assert not is_schur_stable(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_bench_observer_loop(self):
        assert is_schur_stable(BENCH_A - BENCH_F @ BENCH_C)

    def test_tolerance_semantics(self):
        # stable means max |lambda| < 1 - SCHUR_TOL, not merely < 1
        assert is_schur_stable((1.0 - 2.0 * SCHUR_TOL) * np.eye(2))
        assert not is_schur_stable((1.0 - SCHUR_TOL / 2.0) * np.eye(2))

    def test_stable_iteration_decays(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            M = rng.normal(size=(n, n))
            M *= 0.9 / spectral_radius(M)
            assert is_schur_stable(M)
            steps = int(10 * n / (1.0 - spectral_radius(M)))
            x = rng.normal(size=n)
            x0_norm = np.linalg.norm(x)
            for _ in range(steps):
                x = M @ x
            assert np.linalg.norm(x) < x0_norm


class TestOmegaMax:
    def test_stable_matrix_is_zero(self):
        assert omega_max(0.5 * np.eye(3)) == 0.0

    def test_bench_peak_angle(self):
        assert abs(omega_max(BENCH_A) - math.pi / 6) < 1e-9

    def test_quarter_turn(self):
        assert abs(omega_max(np.array([[0.0, 1.0], [-1.0, 0.0]])) - math.pi / 2) < 1e-12

    def test_anti_stable_rejected(self):
        with pytest.raises(AssumptionError):
            omega_max(1.2 * np.eye(2))

    def test_circle_band_membership(self):
        # moduli within 1e-7 of the circle count as on it
        almost = (1.0 - 1e-8) * rotation(0.3)
        assert abs(omega_max(almost) - 0.3) < 1e-7
        inside = 0.99 * rotation(0.3)
        assert omega_max(inside) == 0.0

    def test_orthogonal_similarity_invariance(self):
        rng = np.random.default_rng(11)
        A = np.zeros((5, 5))
        A[:2, :2] = rotation(0.7)
        A[2:4, 2:4] = rotation(2.1)
        A[4, 4] = 0.4
        base = omega_max(A)
        assert abs(base - 2.1) < 1e-12
        for _ in range(10):
            T, _ = np.linalg.qr(rng.normal(size=(5, 5)))
            assert abs(omega_max(T.T @ A @ T) - base) < 1e-9
