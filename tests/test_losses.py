import math

import numpy as np
import pytest
from scipy.special import expit

from ripgd.losses import (
    DENSE_LIMIT,
    LinearOperator,
    LinearLoss,
    MatrixLoss,
    OneBitLoss,
    RecoveryProblem,
    make_gaussian_operator,
    make_onebit_loss,
    onebit_rho2,
    estimate_rho1,
    _check_dense,
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


def symmetric(rng, n):
    """A full-rank symmetric n-by-n matrix, bit-symmetric."""
    A = rng.standard_normal((n, n))
    return A + A.T


def test_symmetrized_operator_is_the_symmetric_part_map():
    # The packed operator is the map of S_i = (A_i + A_i^T)/2 on symmetric
    # n-by-n input, which is all it takes: its apply gathers the upper
    # triangle alone.
    rng = np.random.default_rng(5)
    for n, p in ((1, 3), (4, 9), (40, 120)):
        op = make_gaussian_operator(n, n, p, seed=n).with_scale(0.37)
        packed = op.symmetrized()
        assert packed._packed.shape == (p, n * (n + 1) // 2)
        # C order fixes the GEMV kernel, and with it the solve's bits.
        assert packed._packed.flags.c_contiguous
        S = 0.5 * (op.matrices + op.matrices.transpose(0, 2, 1))
        z = rng.standard_normal((n, 2))
        for M in (symmetric(rng, n), z @ z.T):
            want = op.scale * np.tensordot(S, M, axes=([1, 2], [0, 1]))
            np.testing.assert_allclose(packed.apply(M), want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())
        v = rng.standard_normal(p)
        W = packed.adjoint(v)
        want = op.scale * np.tensordot(v, S, axes=(0, 0))
        np.testing.assert_allclose(W, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())
        # Both triangles read the same entries: bit-symmetric.
        assert W.tobytes() == np.ascontiguousarray(W.T).tobytes()
        # <apply(M), v> = <M, adjoint(v)>
        M = symmetric(rng, n)
        lhs = packed.apply(M) @ v
        assert abs(lhs - np.sum(M * W)) < 1e-12 * max(1.0, abs(lhs))
        # apply and adjoint call ndarray.dot; the `@` forms give the bits.
        upper = M.reshape(-1)[packed._upper]
        assert packed.apply(M).tobytes() == (
            op.scale * (packed._packed @ upper)).tobytes()
        j, k = np.triu_indices(n)
        half = np.where(j == k, 1.0, 0.5)
        w = (v @ packed._packed) * (op.scale * half)
        assert W.tobytes() == w[packed._unpack].reshape(n, n).tobytes()
        M = rng.standard_normal((n, n))
        assert op.apply(M).tobytes() == (
            op.scale * (op._rows @ M.reshape(-1))).tobytes()
        assert op.adjoint(v).tobytes() == (
            op.scale * (v @ op._rows)).reshape(n, n).tobytes()


def test_symmetrized_operator_batch_scale_and_symmetric_input():
    rng = np.random.default_rng(6)
    op = make_gaussian_operator(5, 5, 17, seed=2).with_scale(0.61)
    packed = op.symmetrized()
    Ms = rng.standard_normal((4, 5, 5))
    Ms = Ms + Ms.transpose(0, 2, 1)
    Zs = rng.standard_normal((4, 5, 2))
    sym = Zs @ Zs.transpose(0, 2, 1)
    for stack in (Ms, sym):
        batch = packed.apply_batch(stack)
        for k in range(len(stack)):
            np.testing.assert_allclose(batch[k], packed.apply(stack[k]),
                                       rtol=1e-12)
            np.testing.assert_allclose(packed.apply(stack[k]),
                                       op.apply(stack[k]), rtol=1e-12)
        # The batch runs on the drawn rows with their bits, and on
        # symmetric input the packed map equals the drawn one.
        assert packed.apply_batch(stack).tobytes() == op.apply_batch(
            stack).tobytes()
    # with_scale keeps the packed form: it is the operator that
    # symmetrized() builds at the new scale.
    scaled = packed.with_scale(2.0)
    fresh = op.with_scale(2.0).symmetrized()
    assert scaled.scale == 2.0
    assert scaled._packed.tobytes() == fresh._packed.tobytes()
    assert scaled.apply(Ms[0]).tobytes() == fresh.apply(Ms[0]).tobytes()
    np.testing.assert_allclose(scaled.apply(Ms[0]),
                               (2.0 / 0.61) * packed.apply(Ms[0]), rtol=1e-12)
    assert op.with_scale(2.0)._packed is None
    with pytest.raises(ValueError, match="square"):
        make_gaussian_operator(3, 4, 5, seed=0).symmetrized()


def both_triangle_apply(packed, M):
    """The packed map of S_i on every M, symmetric or not.

    It gathers both triangles of M and adds them, which adds the operands
    of the upper triangle of M + M^T, and folds the 1/2 into the scale.
    """
    n = len(M)
    j, k = np.triu_indices(n)
    flat = M.reshape(-1)
    pairs = flat.take(j * n + k) + flat.take(k * n + j)
    return (0.5 * packed.scale) * packed._packed.dot(pairs)


def test_packed_apply_same_bits_as_symmetric_sum():
    # apply gathers the upper triangle alone.  On a bit-symmetric M that
    # gives the bits of the both-triangle form: M_jk + M_kj = 2 M_jk,
    # P (2u) = 2 (P u) and (s/2) (2y) = s y are all exact.
    rng = np.random.default_rng(7)
    for n, p in ((1, 3), (4, 9), (40, 120)):
        op = make_gaussian_operator(n, n, p, seed=n)
        for scale in (1e-4, 0.37, 1e3):
            packed = op.with_scale(scale).symmetrized()
            for r in (1, 2, 3):
                X = rng.standard_normal((n, r))
                for M in (X.dot(X.T), X @ X.T,
                          np.asfortranarray(X.dot(X.T))):
                    want = both_triangle_apply(packed, M)
                    assert packed.apply(M).tobytes() == want.tobytes()


def test_packed_with_scale_adjoint_same_bits_as_fresh_operator():
    # with_scale must rebuild the adjoint's weights for its own scale.
    rng = np.random.default_rng(8)
    for n, p in ((1, 3), (4, 9), (40, 120)):
        op = make_gaussian_operator(n, n, p, seed=n)
        packed = op.with_scale(0.37).symmetrized()
        for s in (2.0, 0.37, 1e-3):
            scaled = packed.with_scale(s)
            fresh = op.with_scale(s).symmetrized()
            for name in ("_packed", "_upper", "_weights", "_unpack"):
                assert getattr(scaled, name).tobytes() == getattr(
                    fresh, name).tobytes()
            v = rng.standard_normal(p)
            assert scaled.adjoint(v).tobytes() == fresh.adjoint(v).tobytes()
            M = symmetric(rng, n)
            assert scaled.apply(M).tobytes() == fresh.apply(M).tobytes()


def test_check_dense_boundary():
    _check_dense(DENSE_LIMIT)
    with pytest.raises(ValueError, match="dense limit"):
        _check_dense(DENSE_LIMIT + 1)


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


def test_operator_refuses_infinite_scale():
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="operator scale"):
            LinearOperator(np.ones((2, 2, 2)), scale=bad)


def test_gaussian_operator_deterministic():
    a = make_gaussian_operator(3, 4, 5, seed=9)
    b = make_gaussian_operator(3, 4, 5, seed=9)
    np.testing.assert_array_equal(a.matrices, b.matrices)
    assert a.scale == 1.0


def address(a):
    return a.__array_interface__["data"][0]


def test_sensing_stacks_are_cache_line_aligned_and_keep_the_bits():
    # The drawn and the packed stack start on a 64-byte boundary; the draw
    # is the plain standard-normal stream, and the products give the same
    # bits on a stack placed 16 bytes off that boundary.
    rng = np.random.default_rng(12)
    for n, p in ((1, 3), (4, 9), (40, 120)):
        op = make_gaussian_operator(n, n, p, seed=n)
        assert op.matrices.tobytes() == np.random.default_rng(
            n).standard_normal((p, n, n)).tobytes()
        packed = op.with_scale(0.37).symmetrized()
        assert address(op.matrices) % 64 == 0
        assert address(packed._packed) % 64 == 0
        assert packed._packed.flags.c_contiguous
        buf = np.empty(packed._packed.size + 8)
        start = ((-address(buf) + 16) % 64) // 8
        off = buf[start:start + packed._packed.size].reshape(
            packed._packed.shape)
        off[...] = packed._packed
        assert address(off) % 64 == 16
        shifted = packed.with_scale(0.37)
        shifted._packed = off
        M, v = symmetric(rng, n), rng.standard_normal(p)
        assert shifted.apply(M).tobytes() == packed.apply(M).tobytes()
        assert shifted.adjoint(v).tobytes() == packed.adjoint(v).tobytes()


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


def test_linear_loss_refuses_nan_d():
    op = LinearOperator(np.ones((2, 2, 2)))
    for bad in ([0.0, np.nan], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="d must be finite"):
            LinearLoss(op, bad)


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


def test_onebit_refuses_nan_y():
    # min and max of y are NaN here, and NaN passes a "< 0" or "> 1" test.
    y = np.full((2, 2), 0.5)
    y[0, 1] = np.nan
    with pytest.raises(ValueError, match="entries of y"):
        OneBitLoss(y)


def test_onebit_refuses_infinite_scale():
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="loss scale"):
            OneBitLoss(np.full((2, 2), 0.5), scale=bad)


def onebit_plain_value(loss, M):
    # The 1-bit value and gradient as written before their temporaries
    # were reused in place.
    return loss.scale * float(np.add.reduce(
        np.logaddexp(0.0, M) - loss.y * M, axis=None))


def onebit_plain_grad(loss, M):
    return loss.scale * (expit(M) - loss.y)


def test_onebit_unchecked_forms_same_bits_as_plain_expressions():
    rng = np.random.default_rng(31)
    A = rng.standard_normal((6, 6))
    signed_zeros = np.array([[0.0, -0.0, 1.5], [-0.0, -0.0, -2.0],
                             [1.5, -2.0, 0.0]])
    y_zeros = np.array([[0.0, -0.0, 0.25], [-0.0, 1.0, 0.5],
                        [0.25, 0.5, -0.0]])
    cases = [
        (rng.uniform(0.0, 1.0, (6, 6)), 2.5, A),            # non-symmetric
        (expit(A + A.T), 6.0, A + A.T),                      # symmetric
        (expit(A + A.T), 6.0, 40.0 * A),                     # large entries
        (y_zeros, 6.0, signed_zeros),
        (y_zeros, 0.75, -signed_zeros),
        (np.full((3, 3), 0.5), 1.0, np.full((3, 3), -0.0)),
    ]
    for y, scale, M in cases:
        loss = OneBitLoss(y, scale=scale)
        value = onebit_plain_value(loss, M)
        grad = onebit_plain_grad(loss, M).tobytes()
        assert np.float64(loss._value(M)).tobytes() == np.float64(value).tobytes()
        assert np.float64(loss.value(M)).tobytes() == np.float64(value).tobytes()
        assert loss._grad(M).tobytes() == grad
        assert loss.grad(M).tobytes() == grad
        v, g = loss.value_and_grad(M)
        assert np.float64(v).tobytes() == np.float64(value).tobytes()
        assert g.tobytes() == grad
        # The in-place forms write only their own temporaries.
        assert loss.y.tobytes() == np.asarray(y, dtype=float).tobytes()


def test_value_and_grad_checks_the_shape_once(monkeypatch):
    # OneBitLoss inherits value_and_grad, which the benchmark tracer wraps
    # on MatrixLoss, and implements only the unchecked forms.
    assert "value_and_grad" not in vars(OneBitLoss)
    loss = OneBitLoss(np.full((2, 2), 0.5))
    calls = []
    check = MatrixLoss._check

    def counting(self, M):
        calls.append(M)
        return check(self, M)

    monkeypatch.setattr(MatrixLoss, "_check", counting)
    v, g = loss.value_and_grad(np.eye(2))
    assert len(calls) == 1
    assert v == loss._value(np.eye(2)) and np.array_equal(g, loss._grad(np.eye(2)))
    with pytest.raises(ValueError, match="does not match loss shape"):
        loss.value_and_grad(np.eye(3))


def test_onebit_value_checks_the_shape():
    # A (3, 2, 2) stack broadcasts against y, so only the check refuses it.
    loss = OneBitLoss(np.full((2, 2), 0.5))
    for bad in (np.zeros((3, 2, 2)), np.zeros((1, 2)), np.eye(3)):
        with pytest.raises(ValueError, match="does not match loss shape"):
            loss.value(bad)
        with pytest.raises(ValueError, match="does not match loss shape"):
            loss.grad(bad)


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
    with pytest.raises(ValueError, match="square"):
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


def recovery_instance():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((4, 2))
    m_star = z @ z.T
    op = make_gaussian_operator(4, 4, 20, seed=2)
    return LinearLoss(op, op.apply(m_star)), m_star, np.linalg.norm(m_star)


def test_recovery_problem_validation():
    loss, m_star, D = recovery_instance()
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


def test_recovery_problem_refuses_nan_rho1():
    loss, m_star, D = recovery_instance()
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="rho1"):
            RecoveryProblem(loss, m_star, 2, 0.3, bad, 0.0, D)


def test_recovery_problem_refuses_nan_rho2():
    loss, m_star, D = recovery_instance()
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="rho2"):
            RecoveryProblem(loss, m_star, 2, 0.3, 1.7, bad, D)


def test_recovery_problem_refuses_nan_bound_d():
    loss, m_star, _ = recovery_instance()
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="bound_d"):
            RecoveryProblem(loss, m_star, 2, 0.3, 1.7, 0.0, bad)
