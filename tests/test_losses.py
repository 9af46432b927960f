import math

import numpy as np
import pytest
from scipy.special import expit

from ripgd.losses import (
    LinearOperator,
    LinearLoss,
    OneBitLoss,
    RecoveryProblem,
    make_gaussian_operator,
    make_onebit_loss,
    onebit_rho2,
    estimate_rho1,
)


def fd_grad(loss, M, h=1e-6):
    """Central-difference gradient of a matrix loss."""
    M = np.asarray(M, dtype=float)
    out = np.zeros_like(M)
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            E = np.zeros_like(M)
            E[i, j] = h
            out[i, j] = (loss.value(M + E) - loss.value(M - E)) / (2.0 * h)
    return out


def fd_quad(loss, M, K, h=1e-4):
    """Second difference of t -> loss(M + t K) at zero."""
    return (loss.value(M + h * K) - 2.0 * loss.value(M)
            + loss.value(M - h * K)) / h ** 2


def test_operator_shapes_and_adjoint():
    rng = np.random.default_rng(0)
    op = LinearOperator(rng.standard_normal((7, 4, 3)), scale=1.7)
    assert (op.p, op.n, op.m) == (7, 4, 3)
    M = rng.standard_normal((4, 3))
    v = rng.standard_normal(7)
    # <A(M), v> = <M, A^T(v)>
    lhs = op.apply(M) @ v
    rhs = np.sum(M * op.adjoint(v))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_operator_apply_batch_matches_apply():
    rng = np.random.default_rng(1)
    op = LinearOperator(rng.standard_normal((5, 3, 3)), scale=0.3)
    Ms = rng.standard_normal((6, 3, 3))
    batch = op.apply_batch(Ms)
    assert batch.shape == (6, 5)
    for k in range(6):
        np.testing.assert_allclose(batch[k], op.apply(Ms[k]), rtol=1e-13)


def test_operator_flat_rows_match_tensordot():
    # apply and adjoint run on the flat (p, n*m) view; on the fig1a and
    # fig1b shapes they give the same bits as the tensordot contractions.
    rng = np.random.default_rng(2)
    for n, m, p in ((40, 40, 120), (10, 8, 220)):
        op = make_gaussian_operator(n, m, p, seed=3).with_scale(0.37)
        assert np.shares_memory(op._rows, op.matrices)
        big = rng.standard_normal((n + m, n + m))
        for M in (rng.standard_normal((n, m)), big[:n, n:], big[n:, :n].T):
            np.testing.assert_array_equal(
                op.apply(M),
                op.scale * np.tensordot(op.matrices, M, axes=([1, 2], [0, 1])))
        v = rng.standard_normal(p)
        np.testing.assert_array_equal(
            op.adjoint(v), op.scale * np.tensordot(v, op.matrices, axes=(0, 0)))


def test_apply_batch_same_bits_as_tensordot():
    # mean_hessian applies the operator to the column-major unit basis, a
    # transposed (not C-contiguous) view; the flat GEMM must give the bits
    # of the tensordot contraction.
    for n, p in ((2, 12), (3, 27), (5, 75)):
        op = make_gaussian_operator(n, n, p, seed=n).with_scale(0.61)
        basis = np.eye(n * n).reshape(n * n, n, n).transpose(0, 2, 1)
        assert not basis.flags.c_contiguous
        stacks = (basis,
                  np.random.default_rng(p).standard_normal((7, n, n)))
        for Ms in stacks:
            want = op.scale * np.tensordot(Ms, op.matrices,
                                           axes=([1, 2], [1, 2]))
            assert op.apply_batch(Ms).tobytes() == want.tobytes()


def test_operator_rows_follow_noncontiguous_input():
    rng = np.random.default_rng(4)
    mats = rng.standard_normal((6, 3, 4)).transpose(0, 2, 1)
    op = LinearOperator(mats)
    assert op.matrices.flags.c_contiguous
    M = rng.standard_normal((4, 3))
    np.testing.assert_array_equal(
        op.apply(M), np.tensordot(mats, M, axes=([1, 2], [0, 1])))


def test_operator_validation():
    with pytest.raises(ValueError):
        LinearOperator(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        LinearOperator(np.zeros((0, 2, 2)))
    with pytest.raises(ValueError):
        LinearOperator(np.full((1, 2, 2), np.nan))
    op = LinearOperator(np.ones((2, 2, 2)))
    with pytest.raises(ValueError):
        op.apply(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        op.adjoint(np.zeros(3))
    with pytest.raises(ValueError):
        op.with_scale(0.0)


def test_gaussian_operator_deterministic():
    a = make_gaussian_operator(3, 4, 5, seed=9)
    b = make_gaussian_operator(3, 4, 5, seed=9)
    np.testing.assert_array_equal(a.matrices, b.matrices)
    assert a.scale == 1.0


def test_gaussian_operator_refused_before_drawing(refused_before_allocation):
    # One 4001 x 4001 matrix, or 4000^2 + 1 one-entry matrices: each stack is
    # over the dense limit and must be refused before it is drawn.
    refused_before_allocation(make_gaussian_operator, 4001, 4001, 1, 0)
    refused_before_allocation(make_gaussian_operator, 1, 1, 4000 * 4000 + 1, 0)


def test_linear_loss_hand_values():
    # A1 = e11, A2 = e12 + e21, M = [[1,2],[2,3]], d = (0, 1):
    # measurements (1, 4), residual (1, 3), value 5, grad A1 + 3*A2.
    mats = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]])
    loss = LinearLoss(LinearOperator(mats), d=[0.0, 1.0])
    M = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert abs(loss.value(M) - 5.0) < 1e-14
    np.testing.assert_allclose(loss.grad(M), [[1.0, 3.0], [3.0, 0.0]], atol=1e-14)
    # The Hessian Gram is the measurement inner product, independent of M.
    K = np.eye(2)
    L = np.array([[0.0, 1.0], [0.0, 0.0]])
    G = loss.hess_gram(M, np.stack([K, L]))
    assert abs(G[0, 1] - 0.0) < 1e-14
    assert abs(G[0, 0] - 1.0) < 1e-14


def test_linear_loss_scale_quadratic():
    # Doubling the operator scale quadruples value and Hessian at d = 0.
    rng = np.random.default_rng(2)
    op = LinearOperator(rng.standard_normal((6, 3, 3)))
    M = rng.standard_normal((3, 3))
    K = rng.standard_normal((3, 3))
    a = LinearLoss(op, np.zeros(6))
    b = LinearLoss(op.with_scale(2.0), np.zeros(6))
    assert abs(b.value(M) - 4.0 * a.value(M)) < 1e-10
    assert abs(b.hess_gram(M, K[None])[0, 0]
               - 4.0 * a.hess_gram(M, K[None])[0, 0]) < 1e-10


def test_linear_loss_fd():
    rng = np.random.default_rng(3)
    op = LinearOperator(rng.standard_normal((8, 3, 4)), scale=0.8)
    loss = LinearLoss(op, rng.standard_normal(8))
    M = rng.standard_normal((3, 4))
    g = loss.grad(M)
    g_fd = fd_grad(loss, M)
    assert np.linalg.norm(g - g_fd) <= 1e-4 * max(1.0, np.linalg.norm(g))
    K = rng.standard_normal((3, 4))
    q = loss.hess_gram(M, K[None])[0, 0]
    assert abs(q - fd_quad(loss, M, K)) <= 1e-3 * max(1.0, abs(q))
    v, gg = loss.value_and_grad(M)
    assert abs(v - loss.value(M)) < 1e-12
    np.testing.assert_allclose(gg, g, rtol=1e-13)


def test_onebit_hand_values():
    y = np.full((2, 2), 0.5)
    loss = OneBitLoss(y, scale=6.0)
    Z = np.zeros((2, 2))
    # 6 * 4 * log 2 at the origin with unbiased rates.
    assert abs(loss.value(Z) - 16.635532333438686) < 1e-12
    np.testing.assert_allclose(loss.grad(Z), np.zeros((2, 2)), atol=1e-14)
    # sigmoid'(0) = 1/4, so the Gram entry is 1.5 * <K, L>.
    K = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert abs(loss.hess_gram(Z, K[None])[0, 0] - 1.5 * np.sum(K * K)) < 1e-12
    quarter = OneBitLoss(np.full((2, 2), 0.25), scale=6.0)
    np.testing.assert_allclose(quarter.grad(Z), np.full((2, 2), 1.5), atol=1e-14)


def test_onebit_large_entries_stay_finite():
    loss = OneBitLoss(np.full((2, 2), 0.5), scale=1.0)
    M = np.array([[800.0, -800.0], [0.0, 50.0]])
    assert np.isfinite(loss.value(M))
    assert np.isfinite(loss.grad(M)).all()


def test_onebit_fd():
    rng = np.random.default_rng(4)
    y = rng.uniform(0.05, 0.95, (3, 3))
    loss = OneBitLoss(y, scale=2.5)
    M = rng.standard_normal((3, 3))
    g = loss.grad(M)
    assert np.linalg.norm(g - fd_grad(loss, M)) <= 1e-4 * max(1.0, np.linalg.norm(g))
    K = rng.standard_normal((3, 3))
    q = loss.hess_gram(M, K[None])[0, 0]
    assert abs(q - fd_quad(loss, M, K)) <= 1e-3 * max(1.0, abs(q))


def test_onebit_validation():
    with pytest.raises(ValueError):
        OneBitLoss(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        OneBitLoss(np.full((2, 2), 1.5))
    with pytest.raises(ValueError):
        OneBitLoss(np.full((2, 2), -0.1))
    with pytest.raises(ValueError):
        OneBitLoss(np.full((2, 2), 0.5), scale=0.0)


def test_make_onebit_weight_band():
    # Planted rates y = sigmoid(m_hat); at the region edge |m| = 2.29 the
    # curvature weight 6 * sigmoid'(m) is just above 1/2, and 3/2 at zero.
    m_hat = np.array([[0.0, 2.29], [-2.29, 1.0]])
    loss = make_onebit_loss(m_hat)
    np.testing.assert_allclose(loss.y, expit(m_hat), rtol=1e-15)
    w_edge = 6.0 * expit(2.29) * (1.0 - expit(2.29))
    assert abs(w_edge - 0.5009934640679448) < 1e-12
    assert 0.5 < w_edge <= 1.5
    w_mid = 6.0 * expit(0.0) * (1.0 - expit(0.0))
    assert abs(w_mid - 1.5) < 1e-15
    with pytest.raises(ValueError):
        make_onebit_loss(np.zeros((2, 3)))


def test_onebit_rho2_value():
    assert abs(onebit_rho2(6.0) - 0.5773502691896258) < 1e-15
    assert abs(onebit_rho2(1.0) - 1.0 / (6.0 * math.sqrt(3.0))) < 1e-15


def test_estimate_rho1_floor_and_determinism():
    rng = np.random.default_rng(6)
    op = LinearOperator(rng.standard_normal((10, 3, 3)), scale=1e-6)
    loss = LinearLoss(op, np.zeros(10))
    # A nearly-zero operator has a tiny empirical ratio; the floor binds.
    assert estimate_rho1(loss, 1, delta=0.4) == pytest.approx(1.8)
    op2 = LinearOperator(rng.standard_normal((10, 3, 3)))
    loss2 = LinearLoss(op2, np.zeros(10))
    a = estimate_rho1(loss2, 2, delta=0.1, seed=11)
    b = estimate_rho1(loss2, 2, delta=0.1, seed=11)
    assert a == b
    assert a >= 1.2
    # Pairs are drawn as X X^T, so a rectangular loss is refused.
    rect = LinearLoss(LinearOperator(rng.standard_normal((10, 3, 2))),
                      np.zeros(10))
    with pytest.raises(ValueError, match="square loss"):
        estimate_rho1(rect, 1, delta=0.1)
    # Rank 0 would draw only zero pairs and return the floor unprobed.
    for bad in (0, -1):
        with pytest.raises(ValueError, match="rank must be positive"):
            estimate_rho1(loss2, bad, delta=0.1)


def test_recovery_problem_attributes():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((4, 2))
    m_star = z @ z.T
    op = make_gaussian_operator(4, 4, 20, seed=1)
    loss = LinearLoss(op, op.apply(m_star))
    sv = np.linalg.svd(m_star, compute_uv=False)
    prob = RecoveryProblem(loss, m_star, 2, 0.3, 1.7, 0.0,
                           np.linalg.norm(m_star))
    assert prob.n == 4
    assert prob.sigma_r == pytest.approx(sv[1])
    assert prob.m_star_norm == pytest.approx(np.linalg.norm(m_star))


def test_recovery_problem_validation():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((4, 2))
    m_star = z @ z.T
    op = make_gaussian_operator(4, 4, 20, seed=2)
    loss = LinearLoss(op, op.apply(m_star))
    D = np.linalg.norm(m_star)
    with pytest.raises(ValueError):
        RecoveryProblem(loss, m_star, 2, 1.0, 3.0, 0.0, D)
    with pytest.raises(ValueError):
        RecoveryProblem(loss, m_star, 2, 0.3, 1.0, 0.0, D)  # rho1 < 1+2*delta
    with pytest.raises(ValueError):
        RecoveryProblem(loss, m_star, 2, 0.3, 1.7, -1.0, D)
    with pytest.raises(ValueError):
        RecoveryProblem(loss, m_star, 3, 0.3, 1.7, 0.0, D)  # sigma_3 is zero
    with pytest.raises(ValueError):
        RecoveryProblem(loss, m_star, 1, 0.3, 1.7, 0.0, D)  # sigma_2 is not
    with pytest.raises(ValueError):
        RecoveryProblem(loss, m_star, 2, 0.3, 1.7, 0.0, 0.5 * D)
    with pytest.raises(ValueError):
        RecoveryProblem(loss, np.zeros((3, 3)), 1, 0.3, 1.7, 0.0, D)
    # An exact rank-1 truth at scale: sigma_1 near 4.7e7 leaves sigma_2 near
    # 3.7e-9, below the rank cut relative to sigma_1.
    z = 2000.0 * np.random.default_rng(2).standard_normal((8, 1))
    big = z @ z.T
    big_loss = LinearLoss(make_gaussian_operator(8, 8, 5, seed=3), np.zeros(5))
    big_d = np.linalg.norm(big)
    prob = RecoveryProblem(big_loss, big, 1, 0.3, 1.7, 0.0, big_d)
    assert prob.sigma_r > 4e7
    with pytest.raises(ValueError, match="deficient"):
        RecoveryProblem(big_loss, big, 2, 0.3, 1.7, 0.0, big_d)
