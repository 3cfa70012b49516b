import numpy as np
import pytest
import scipy.sparse as sp

from elastprec.sparse_linalg import (NotSpdError, SingularMatrixError,
                                     dense_symmetric_generalized_eigs,
                                     factor_spd, factor_symmetric_indefinite,
                                     tridiagonal_eigs)


def test_spd_identity():
    f = factor_spd(sp.eye_array(5, format="csc"))
    b = np.arange(5.0)
    np.testing.assert_allclose(f.solve(b), b)


def test_spd_2x2_hand_elimination():
    K = sp.csc_array(np.array([[4.0, 1.0], [1.0, 3.0]]))
    x = factor_spd(K).solve(np.array([1.0, 1.0]))
    np.testing.assert_allclose(x, [2.0 / 11.0, 3.0 / 11.0], rtol=1e-14)


def test_spd_rejects_indefinite_matrix():
    K = sp.csc_array(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
    with pytest.raises(NotSpdError, match="pivot"):
        factor_spd(K)


def test_spd_backward_stability(case_p2p0_l2):
    A = case_p2p0_l2.reduced.A
    f = factor_spd(A)
    rng = np.random.default_rng(12)
    for _ in range(20):
        b = rng.standard_normal(A.shape[0])
        x = f.solve(b)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_indefinite_swap():
    K = sp.csc_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
    f = factor_symmetric_indefinite(K)
    np.testing.assert_allclose(f.solve(np.array([1.0, 2.0])), [2.0, 1.0])


def test_unpinned_stokes_matrix_is_singular(case_p2p0_l2):
    red = case_p2p0_l2.reduced
    saddle = sp.block_array([[red.A, red.B.T], [red.B, None]], format="csc")
    with pytest.raises(SingularMatrixError):
        factor_symmetric_indefinite(saddle)


def test_saddle_solve_matches_dense_oracle(case_p2p0_l2):
    red = case_p2p0_l2.reduced
    keep = np.arange(red.B.shape[0] - 1)
    saddle = sp.block_array([[red.A, red.B[keep].T], [red.B[keep], None]],
                            format="csc")
    f = factor_symmetric_indefinite(saddle)
    rng = np.random.default_rng(13)
    b = rng.standard_normal(saddle.shape[0])
    x = f.solve(b)
    x_dense = np.linalg.solve(saddle.toarray(), b)
    assert np.linalg.norm(x - x_dense) <= 1e-10 * np.linalg.norm(x_dense)
    for _ in range(20):
        b = rng.standard_normal(saddle.shape[0])
        x = f.solve(b)
        assert np.linalg.norm(saddle @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_generalized_eigs_identity_mass():
    vals = dense_symmetric_generalized_eigs(np.diag([1.0, 4.0]), np.eye(2))
    np.testing.assert_allclose(vals, [1.0, 4.0])


def test_generalized_eigs_equal_matrices():
    K = np.array([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(dense_symmetric_generalized_eigs(K, K), [1.0, 1.0])


def test_generalized_eigs_diagonal_pair():
    vals = dense_symmetric_generalized_eigs(np.diag([2.0, 6.0]), np.diag([2.0, 2.0]))
    np.testing.assert_allclose(vals, [1.0, 3.0])


def test_generalized_eigs_requires_spd_mass():
    with pytest.raises(NotSpdError):
        dense_symmetric_generalized_eigs(np.eye(2), np.diag([1.0, -1.0]))


def test_generalized_eigs_residual():
    rng = np.random.default_rng(14)
    n = 40
    K = rng.standard_normal((n, n))
    K = K + K.T
    M = rng.standard_normal((n, n))
    M = M @ M.T + n * np.eye(n)
    vals = dense_symmetric_generalized_eigs(K, M)
    import scipy.linalg

    full_vals, vecs = scipy.linalg.eigh(K, M)
    np.testing.assert_allclose(vals, full_vals)
    for k in (0, n // 2, n - 1):
        r = K @ vecs[:, k] - full_vals[k] * (M @ vecs[:, k])
        assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(K)


def test_tridiagonal_single_entry():
    np.testing.assert_allclose(tridiagonal_eigs([2.0], []), [2.0])


def test_tridiagonal_2x2():
    np.testing.assert_allclose(tridiagonal_eigs([2.0, 2.0], [1.0]), [1.0, 3.0])


def test_tridiagonal_known_3x3():
    a, b = 5.0, 2.0
    vals = tridiagonal_eigs([a, a, a], [b, b])
    np.testing.assert_allclose(vals, [a - b * np.sqrt(2), a, a + b * np.sqrt(2)])


def test_tridiagonal_validation():
    with pytest.raises(ValueError, match="empty"):
        tridiagonal_eigs([], [])
    with pytest.raises(ValueError, match="length"):
        tridiagonal_eigs([1.0, 2.0], [1.0, 1.0])


def test_factorization_deterministic(case_p2p0_l2):
    A = case_p2p0_l2.reduced.A
    f1, f2 = factor_spd(A), factor_spd(A)
    np.testing.assert_array_equal(f1._lu.perm_c, f2._lu.perm_c)
    b = np.ones(A.shape[0])
    np.testing.assert_array_equal(f1.solve(b), f2.solve(b))
