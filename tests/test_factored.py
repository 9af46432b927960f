import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ripgd import losses
from ripgd.losses import (
    LinearOperator,
    LinearLoss,
    MatrixLoss,
    OneBitLoss,
    make_gaussian_operator,
    make_onebit_loss,
)
from ripgd.factored import (
    g_grad,
    g_value_and_grad,
    g_hess_min_eig,
    hess_matrix,
    LiftedLoss,
    balance_and_augment,
    _basis_images,
    _block_diag,
)


def scalar_loss(m_star=1.0):
    """1x1 identity sensing: f(M) = (M - m_star)^2 / 2."""
    op = LinearOperator(np.ones((1, 1, 1)))
    return LinearLoss(op, np.array([m_star]))


def identity_loss(n, m_star):
    """Full-basis sensing: f(M) = ||M - m_star||_F^2 / 2."""
    mats = np.eye(n * n).reshape(n * n, n, n)
    op = LinearOperator(mats)
    return LinearLoss(op, op.apply(m_star))


def g_value(loss, X):
    """The factored objective X -> loss(X X^T)."""
    return loss.value(X @ X.T)


def fd_g_grad(loss, X, h=1e-6):
    out = np.zeros_like(X)
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            E = np.zeros_like(X)
            E[i, j] = h
            out[i, j] = (g_value(loss, X + E) - g_value(loss, X - E)) / (2 * h)
    return out


def fd_g_quad(loss, X, U, h=1e-4):
    return (g_value(loss, X + h * U) - 2.0 * g_value(loss, X)
            + g_value(loss, X - h * U)) / h ** 2


def g_hess_quad(loss, X, U):
    """Factored Hessian form in direction U from the loss's own Hessian:
    <K, H K> + 2 <grad f, U U^T> with M = X X^T and K = X U^T + U X^T."""
    M = X @ X.T
    K = X @ U.T + U @ X.T
    return (loss.hess_gram(M, K[None])[0, 0]
            + 2.0 * float(np.sum(loss.grad(M) * (U @ U.T))))


def random_losses(rng, n):
    op = make_gaussian_operator(n, n, 3 * n, seed=17)
    lin = LinearLoss(op, rng.standard_normal(3 * n))
    onebit = OneBitLoss(rng.uniform(0.05, 0.95, (n, n)), scale=6.0)
    return lin, onebit


def test_scalar_quartic_values():
    # g(x) = (x^2 - 1)^2 / 2: grad 2x(x^2-1), second derivative 6x^2 - 2.
    loss = scalar_loss(1.0)
    for x in (0.0, 0.5, 2.0, -1.3):
        X = np.array([[x]])
        assert g_value(loss, X) == pytest.approx(0.5 * (x * x - 1.0) ** 2)
        assert g_grad(loss, X)[0, 0] == pytest.approx(2.0 * x * (x * x - 1.0))
        H = hess_matrix(loss, X)
        assert H.shape == (1, 1)
        assert H[0, 0] == pytest.approx(6.0 * x * x - 2.0)
        assert g_hess_min_eig(loss, X) == pytest.approx(6.0 * x * x - 2.0)


def test_factor_gradient_fd():
    rng = np.random.default_rng(10)
    lin, onebit = random_losses(rng, 4)
    lifted = LiftedLoss(LinearLoss(
        make_gaussian_operator(3, 2, 12, seed=3), rng.standard_normal(12)),
        0.3)
    for loss, rows in ((lin, 4), (onebit, 4), (lifted, 5)):
        X = rng.standard_normal((rows, 2))
        g = g_grad(loss, X)
        g_fd = fd_g_grad(loss, X)
        assert np.linalg.norm(g - g_fd) <= 1e-4 * max(1.0, np.linalg.norm(g))
        v, gg, N = g_value_and_grad(loss, X)
        assert v == pytest.approx(g_value(loss, X))
        np.testing.assert_allclose(gg, g, rtol=1e-12)
        # N is the matrix the loss was evaluated at, the solver's distance.
        np.testing.assert_array_equal(N, X @ X.T)


def test_factor_hessian_fd():
    # The dense factored Hessian against second differences of the value.
    rng = np.random.default_rng(11)
    lin, onebit = random_losses(rng, 3)
    for loss in (lin, onebit, lifted_loss(rng)):
        X = rng.standard_normal((3, 2))
        U = rng.standard_normal((3, 2))
        u = U.reshape(-1, order="F")
        q = float(u @ hess_matrix(loss, X) @ u)
        assert abs(q - fd_g_quad(loss, X, U)) <= 1e-3 * max(1.0, abs(q))


def lifted_loss(rng):
    """Lift of a 2-by-1 linear loss: a square loss on 3 rows."""
    inner = LinearLoss(make_gaussian_operator(2, 1, 6, seed=5),
                       rng.standard_normal(6))
    return LiftedLoss(inner, 0.2)


def test_hess_matrix_matches_form():
    # The dense Hessian must reproduce the factored Hessian form under the
    # column-major vec convention, for every loss.
    rng = np.random.default_rng(13)
    lin, onebit = random_losses(rng, 3)
    for loss in (lin, onebit, lifted_loss(rng)):
        X = rng.standard_normal((3, 2))
        H = hess_matrix(loss, X)
        np.testing.assert_allclose(H, H.T, atol=1e-12)
        for _ in range(4):
            U = rng.standard_normal((3, 2))
            u = U.reshape(-1, order="F")
            assert float(u @ H @ u) == pytest.approx(
                g_hess_quad(loss, X, U), rel=1e-9)


def test_hess_gram_matches_grad_differences():
    # Entry (i, j) of every loss's Hessian Gram against the central
    # difference of the gradient along dirs[j], paired with dirs[i].
    rng = np.random.default_rng(14)
    lin, onebit = random_losses(rng, 3)
    h = 1e-5
    for loss in (lin, onebit, lifted_loss(rng)):
        M = rng.standard_normal((3, 3))
        dirs = rng.standard_normal((5, 3, 3))
        if isinstance(loss, LiftedLoss):
            # The lift is evaluated only at symmetric matrices.
            M, dirs = M + M.T, dirs + dirs.transpose(0, 2, 1)
        diffs = [(loss.grad(M + h * L) - loss.grad(M - h * L)) / (2 * h)
                 for L in dirs]
        fd = np.array([[np.sum(K * D) for D in diffs] for K in dirs])
        np.testing.assert_allclose(loss.hess_gram(M, dirs), fd, rtol=1e-6)


def test_min_eig_at_zero_factor():
    # At X = 0 the factored Hessian is U -> 2 <grad f(0), U U^T>; for the
    # identity-sensing loss this gives -2 * lambda_max(m_star).
    rng = np.random.default_rng(15)
    z = rng.standard_normal((4, 2))
    m_star = z @ z.T
    loss = identity_loss(4, m_star)
    lam_max = np.linalg.eigvalsh(m_star)[-1]
    got = g_hess_min_eig(loss, np.zeros((4, 2)))
    assert got == pytest.approx(-2.0 * lam_max, rel=1e-10)


def test_hess_matrix_size_limit(refused_before_allocation):
    # n*r = 253 passed the old factor-dimension limit, but the basis images
    # alone are 253^3 > 4000^2 entries.
    loss = OneBitLoss(np.full((253, 253), 0.5))
    refused_before_allocation(hess_matrix, loss, np.ones((253, 1)))
    refused_before_allocation(g_hess_min_eig, loss, np.ones((253, 1)))


def test_block_diag_same_bits_as_kron():
    # kron's off-diagonal blocks are 0.0 * A, so the negative entries of A
    # leave -0.0 there; _block_diag must keep those signed zeros.
    A = np.array([[1.5, -2.0, 0.0], [-0.0, 3.25, -1e-300], [7.0, -4.5, 2.0]])
    rng = np.random.default_rng(8)
    for B in (A, rng.standard_normal((4, 4)), rng.standard_normal((3, 2))):
        assert (B < 0).any()
        for r in (1, 2, 3):
            want = np.kron(np.eye(r), B)
            got = _block_diag(B, r)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 3, 10, 40, 100])
def test_gram_dot_same_bits_as_matmul(n):
    # The package forms X X^T as X.dot(X.T), which reaches BLAS at r = 1
    # where `@` does not; it must keep the bits of `@` and be bit-symmetric.
    rng = np.random.default_rng(n)
    for r in range(1, 7):
        for _ in range(5):
            X = rng.standard_normal((n, r))
            N = X.dot(X.T)
            assert N.tobytes() == (X @ X.T).tobytes()
            assert N.tobytes() == np.ascontiguousarray(N.T).tobytes()


def basis_images_loop(X):
    """Reference for _basis_images: X e_j^T + e_j X^T added in place."""
    n, r = X.shape
    out = np.zeros((n * r, n, n))
    for c in range(r):
        for a in range(n):
            out[c * n + a, a, :] += X[:, c]
            out[c * n + a, :, a] += X[:, c]
    return out


def test_basis_images_same_bits_as_loop():
    # -0.0 entries must come out as the loop's +0.0 off the diagonal.
    rng = np.random.default_rng(31)
    signed = np.array([[1.5, -0.0], [-0.0, -2.0], [0.25, -1e-300]])
    for X in [signed] + [rng.standard_normal((n, r))
                         for n in (1, 2, 4, 6, 40) for r in (1, 2, 3, 6)]:
        got = _basis_images(X)
        want = basis_images_loop(X)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_factor_shape_validation():
    loss = scalar_loss()
    with pytest.raises(ValueError):
        g_grad(loss, np.zeros((2, 1)))
    rect = LinearLoss(make_gaussian_operator(3, 2, 4, seed=0), np.zeros(4))
    with pytest.raises(ValueError):
        g_grad(rect, np.zeros((3, 1)))


def _declared_losses():
    """One loss per kind of symmetry declaration, each on 6-by-6 matrices."""
    rng = np.random.default_rng(23)
    drawn = make_gaussian_operator(6, 6, 30, seed=3)
    d = rng.standard_normal(30)
    m_hat = rng.standard_normal((6, 6))
    return {
        "packed-linear": LinearLoss(drawn.symmetrized(), d),
        "drawn-linear": LinearLoss(drawn, d),
        "lifted": LiftedLoss(
            LinearLoss(make_gaussian_operator(4, 2, 12, seed=4),
                       rng.standard_normal(12)), 0.3),
        "onebit-symmetric": make_onebit_loss(0.5 * (m_hat + m_hat.T)),
        "onebit-general": make_onebit_loss(m_hat),
    }


@pytest.mark.parametrize("name", list(_declared_losses()))
def test_symmetric_grad_declaration_keeps_the_bits(name):
    loss = _declared_losses()[name]
    assert loss.symmetric_grad == (
        name in ("packed-linear", "lifted", "onebit-symmetric"))
    rng = np.random.default_rng(24)
    for r in (1, 3, 6):
        X = rng.standard_normal((6, r))
        N = X @ X.T
        W = loss.grad(N)
        # The declaration is exactly whether grad(X X^T) is bit-symmetric.
        assert loss.symmetric_grad == (
            W.tobytes() == np.ascontiguousarray(W.T).tobytes())
        assert g_grad(loss, X).tobytes() == ((W + W.T) @ X).tobytes()
        _, G, N_out = g_value_and_grad(loss, X)
        W = loss.value_and_grad(N)[1]
        assert G.tobytes() == ((W + W.T) @ X).tobytes()
        assert N_out.tobytes() == N.tobytes()


def test_lifted_loss_blocks():
    # The lifted objective evaluated at [U; V][U; V]^T equals the
    # asymmetric loss at U V^T plus the balancing penalty.
    rng = np.random.default_rng(16)
    op = make_gaussian_operator(3, 2, 10, seed=8)
    d = rng.standard_normal(10)
    inner = LinearLoss(op, d)
    lifted = LiftedLoss(inner, 0.1)
    assert lifted.n == lifted.m == 5
    U = rng.standard_normal((3, 2))
    V = rng.standard_normal((2, 2))
    X = np.vstack([U, V])
    N = X @ X.T
    uu, vv, uv = U @ U.T, V @ V.T, U @ V.T
    bal = (np.sum(uu * uu) + np.sum(vv * vv) - 2.0 * np.sum(uv * uv))
    want = lifted.scale * (inner.value(uv) + 0.25 * lifted.phi * bal)
    assert g_value(lifted, X) == pytest.approx(want, rel=1e-12)
    v, g = lifted.value_and_grad(N)
    assert v == pytest.approx(lifted.value(N), rel=1e-12)
    np.testing.assert_allclose(g, lifted.grad(N), rtol=1e-12)


def test_lifted_loss_fd():
    rng = np.random.default_rng(17)
    op = make_gaussian_operator(3, 2, 10, seed=8)
    inner = LinearLoss(op, rng.standard_normal(10))
    lifted = LiftedLoss(inner, 0.4)
    # The lift is evaluated only at symmetric N, so it is differentiated
    # along symmetric directions: (E_ij + E_ji)/2 picks out g_ij of the
    # symmetric gradient g.
    N = rng.standard_normal((5, 5))
    N = N + N.T
    g = lifted.grad(N)
    eps = 1e-6
    fd = np.zeros_like(N)
    for i in range(5):
        for j in range(5):
            E = np.zeros_like(N)
            E[i, j] += 0.5 * eps
            E[j, i] += 0.5 * eps
            fd[i, j] = (lifted.value(N + E) - lifted.value(N - E)) / (2 * eps)
    assert np.linalg.norm(g - fd) <= 1e-4 * max(1.0, np.linalg.norm(g))
    K = rng.standard_normal((5, 5))
    L = rng.standard_normal((5, 5))
    K, L = K + K.T, L + L.T
    # Polarization of the quadratic form around N.
    h = 1e-4
    quad = lambda W: lifted.value(N + h * W)
    q_uu = (quad(K) - 2 * lifted.value(N) + lifted.value(N - h * K)) / h ** 2
    G = lifted.hess_gram(N, np.stack([K, L]))
    assert abs(G[0, 0] - q_uu) <= 1e-3 * max(1.0, abs(q_uu))
    sym = G[0, 1]
    assert sym == pytest.approx(lifted.hess_gram(N, np.stack([L, K]))[0, 1],
                                rel=1e-10)


class CountingLoss(MatrixLoss):
    """Inner loss that counts its value_and_grad, grad and hess_gram calls."""

    def __init__(self, inner):
        self.inner = inner
        self.n, self.m = inner.n, inner.m
        self.calls = 0

    def hess_gram(self, M, dirs):
        self.calls += 1
        return self.inner.hess_gram(M, dirs)

    def value_and_grad(self, M):
        self.calls += 1
        return self.inner.value_and_grad(M)

    def grad(self, M):
        self.calls += 1
        return self.inner.grad(M)


def two_evaluation_lift(inner, phi, scale, M):
    """Lifted value and gradient with the inner loss run on both blocks."""
    k = inner.n
    b11, b12, b21, b22 = M[:k, :k], M[:k, k:], M[k:, :k], M[k:, k:]
    v12, g12 = inner.value_and_grad(b12)
    v21, g21 = inner.value_and_grad(b21.T)
    bal = (np.sum(b11 * b11) + np.sum(b22 * b22)
           - np.sum(b12 * b12) - np.sum(b21 * b21))
    G = np.zeros_like(M)
    G[:k, :k] = 0.5 * phi * b11
    G[k:, k:] = 0.5 * phi * b22
    G[:k, k:] = 0.5 * g12 - 0.5 * phi * b12
    G[k:, :k] = 0.5 * g21.T - 0.5 * phi * b21
    return scale * float(0.5 * (v12 + v21) + 0.25 * phi * bal), scale * G


def lift_rounding(want_v, phi, scale, M):
    """Bound on the rounding between the lift's value and the block sums.

    LiftedLoss takes the balancing value as one signed sum over M, the
    reference as four block sums, so the two may differ in the last bits of
    the balancing term, whose terms are at most scale * phi/4 * ||M||^2.
    """
    return 1e-14 * (abs(want_v) + scale * 0.25 * phi * (M * M).sum())


def test_lifted_loss_single_inner_evaluation():
    # N = X X^T has N12 == N21^T bit for bit, so one inner evaluation
    # serves both blocks; the gradient keeps the two-evaluation bits.
    rng = np.random.default_rng(18)
    base = LinearLoss(make_gaussian_operator(10, 8, 220, seed=9),
                      rng.standard_normal(220))
    counted = CountingLoss(base)
    lifted = LiftedLoss(counted, 0.2)
    X = rng.standard_normal((18, 5))
    N = X @ X.T
    lift = lifted.phi, lifted.scale
    want_v, want_g = two_evaluation_lift(base, *lift, N)
    v, g = lifted.value_and_grad(N)
    assert counted.calls == 1
    assert abs(v - want_v) <= lift_rounding(want_v, *lift, N)
    np.testing.assert_array_equal(g, want_g)
    counted.calls = 0
    np.testing.assert_array_equal(lifted.grad(N), want_g)
    assert counted.calls == 1


def test_lifted_loss_keeps_signed_zeros():
    # The padded add puts -0.0 on the diagonal blocks, and x + (-0.0) is x
    # for x = -0.0 and +0.0 alike, so signed zeros there keep the
    # two-block reference's bits, sign bits included.
    rng = np.random.default_rng(20)
    base = LinearLoss(make_gaussian_operator(10, 8, 220, seed=9),
                      rng.standard_normal(220))
    lifted = LiftedLoss(base, 0.2)
    X = rng.standard_normal((18, 5))
    N = X @ X.T
    for i, j, zero in ((0, 0, -0.0), (1, 4, -0.0), (3, 3, 0.0),
                       (12, 15, -0.0), (11, 10, 0.0), (17, 17, -0.0)):
        N[i, j] = N[j, i] = zero
    lift = lifted.phi, lifted.scale
    want_v, want_g = two_evaluation_lift(base, *lift, N)
    assert np.signbit(want_g[0, 0]) and not np.signbit(want_g[3, 3])
    v, g = lifted.value_and_grad(N)
    assert abs(v - want_v) <= lift_rounding(want_v, *lift, N)
    for got in (g, lifted.grad(N)):
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want_g))
        assert got.tobytes() == want_g.tobytes()


def two_gram_lift(lifted, M, dirs):
    """Lifted Hessian Gram of the extension (f(N12) + f(N21^T))/2 to all N.

    It runs the inner Gram on both off-diagonal blocks and halves the sum.
    """
    k, inner = lifted.split, lifted.inner
    quad = (inner.hess_gram(M[:k, k:], dirs[:, :k, k:])
            + inner.hess_gram(M[k:, :k].T, dirs[:, k:, :k].transpose(0, 2, 1)))
    flat = dirs.reshape(len(dirs), -1)
    return lifted.scale * (
        0.5 * quad
        + 0.5 * lifted.phi * ((flat * lifted._sign.reshape(-1)) @ flat.T))


def test_lifted_hess_gram_single_inner_gram():
    # At symmetric N and directions the two blocks give the same inner
    # Gram Q, and (Q + Q)/2 is Q exactly: one inner Gram keeps the bits.
    rng = np.random.default_rng(19)
    for inner in (make_onebit_loss(rng.standard_normal((3, 3))),
                  LinearLoss(make_gaussian_operator(4, 3, 20, seed=6),
                             rng.standard_normal(20))):
        counted = CountingLoss(inner)
        lifted = LiftedLoss(counted, 0.3)
        for r in (1, 2, 4):
            X = rng.standard_normal((lifted.n, r))
            N = X @ X.T
            K = rng.standard_normal((3, lifted.n, lifted.n))
            for dirs in (_basis_images(X), K + K.transpose(0, 2, 1)):
                counted.calls = 0
                G = lifted.hess_gram(N, dirs)
                assert counted.calls == 1
                want = two_gram_lift(LiftedLoss(inner, 0.3), N, dirs)
                assert G.tobytes() == want.tobytes()


class FixedGradLoss(MatrixLoss):
    """Inner loss that returns a given value and a copy of a given gradient,
    so the lift can be fed -0.0 entries that no real loss returns."""

    def __init__(self, value, grad):
        self.v, self.g = value, grad
        self.n, self.m = grad.shape

    def value_and_grad(self, M):
        return self.v, self.g.copy()

    def grad(self, M):
        return self.g.copy()


def concatenate_pad_halve_lift(lifted, M):
    """The lift's value and gradient as the old expressions formed them:
    the balancing value summed as a float64 scalar, the padded matrix
    gathered from a concatenated copy of the inner gradient and halved in
    full, and Python float operands."""
    k = lifted.split
    v12, g12 = lifted.inner.value_and_grad(M[:k, k:])
    B = lifted._half_phi_sign * M
    val = v12 + 0.5 * np.vdot(M, B)
    P = np.concatenate((g12.reshape(-1), np.array([-0.0]))).take(lifted._pad)
    P *= 0.5
    B += P
    B *= lifted.scale
    return lifted.scale * float(val), B


def signed_zero_lifts(rng):
    """Lifts at fig1b's shapes and smaller, and symmetric points on which to
    evaluate them, with -0.0 and +0.0 in M and in the inner gradient."""
    g = rng.standard_normal((10, 8))
    g[::2, ::3] = -0.0
    g[1::4, 1::2] = 0.0
    inners = (
        LinearLoss(make_gaussian_operator(10, 8, 220, seed=9),
                   rng.standard_normal(220)),
        make_onebit_loss(rng.standard_normal((3, 3))),
        FixedGradLoss(1.25, g),
    )
    for inner in inners:
        for delta in (0.0, 0.2, 0.37):
            lifted = LiftedLoss(inner, delta)
            X = rng.standard_normal((lifted.n, 3))
            N = X.dot(X.T)
            Z = N.copy()
            for i, j, zero in ((0, 0, -0.0), (1, lifted.n - 1, -0.0),
                               (2, 2, 0.0), (lifted.n - 1, 0, 0.0)):
                Z[i, j] = Z[j, i] = zero
            yield lifted, (N, Z, np.full_like(N, -0.0))


def test_lifted_value_and_grad_same_bytes_as_old_expressions():
    # value_and_grad halves only the k*m inner entries, into a buffer
    # whose last entry stays -0.0, gathers once and scales by a 0-d array;
    # its value adds Python floats.  Same bytes as the old expressions.
    for lifted, points in signed_zero_lifts(np.random.default_rng(31)):
        for M in points:
            want_v, want_g = concatenate_pad_halve_lift(lifted, M)
            v, g = lifted.value_and_grad(M)
            assert type(v) is float and v.hex() == want_v.hex()
            assert g.tobytes() == want_g.tobytes()


def test_lifted_grad_same_bytes_as_old_expressions():
    # grad, the path estimate_rho1 takes, shares _gradient with
    # value_and_grad and gives the old expressions' bytes.
    for lifted, points in signed_zero_lifts(np.random.default_rng(32)):
        for M in points:
            want = concatenate_pad_halve_lift(lifted, M)[1]
            assert lifted.grad(M).tobytes() == want.tobytes()


def test_lifted_gradient_does_not_alias_the_loss():
    # The scratch buffer never escapes: a gradient held across later
    # evaluations keeps its bytes and shares memory with no array the
    # loss keeps.
    rng = np.random.default_rng(33)
    lifted = LiftedLoss(LinearLoss(make_gaussian_operator(10, 8, 220, seed=9),
                                   rng.standard_normal(220)), 0.2)
    X, Y = rng.standard_normal((2, lifted.n, 5))
    N1, N2 = X.dot(X.T), Y.dot(Y.T)
    held = [lifted.value_and_grad(N1)[1], lifted.grad(N1)]
    copies = [g.copy() for g in held]
    lifted.value_and_grad(N2)
    lifted.grad(N2)
    kept = [a for a in vars(lifted).values() if isinstance(a, np.ndarray)]
    assert any(a is lifted._half_g for a in kept)
    for g, copy in zip(held, copies):
        assert g.tobytes() == copy.tobytes()
        assert not any(np.shares_memory(g, a) for a in kept)


def test_g_value_and_grad_same_bytes_as_python_float_doubling():
    # _factor_grad doubles by a 0-d 2.0: the bytes of the Python float
    # operand, on drawn and packed linear, 1-bit and lifted losses.
    rng = np.random.default_rng(34)
    op = make_gaussian_operator(6, 6, 40, seed=3)
    y = rng.uniform(0.05, 0.95, (6, 6))
    cases = [
        LinearLoss(op, rng.standard_normal(40)),
        LinearLoss(op.with_scale(0.37).symmetrized(), rng.standard_normal(40)),
        OneBitLoss(y, scale=6.0),
        OneBitLoss(0.5 * (y + y.T), scale=6.0),
        LiftedLoss(LinearLoss(make_gaussian_operator(4, 2, 20, seed=5),
                              rng.standard_normal(20)), 0.3),
    ]
    assert [c.symmetric_grad for c in cases] == [False, True, False, True,
                                                 True]
    for loss in cases:
        for r in (1, 3):
            X = rng.standard_normal((loss.n, r))
            X[0] = -0.0
            N = X.dot(X.T)
            want_v, W = loss.value_and_grad(N)
            if loss.symmetric_grad:
                G = W.dot(X)
                G *= 2.0
            else:
                G = (W + W.T).dot(X)
            v, got_g, got_n = g_value_and_grad(loss, X)
            assert v.hex() == want_v.hex()
            assert got_g.tobytes() == G.tobytes()
            assert got_n.tobytes() == N.tobytes()
            assert g_grad(loss, X).tobytes() == G.tobytes()


class ShapeOnlyLoss:
    """Stub inner loss: the shape and the Hessian flag, nothing to evaluate."""

    constant_hessian = True

    def __init__(self, n, m):
        self.n, self.m = n, m


def test_lifted_loss_refuses_a_dense_lift_before_building(
        monkeypatch, refused_before_allocation):
    # The lift builds (n+m)-square arrays, 1.28 MB each at n+m = 400: the
    # boundary is built, one entry over the limit allocates nothing.
    monkeypatch.setattr(losses, "DENSE_LIMIT", 400 * 400)
    lifted = LiftedLoss(ShapeOnlyLoss(250, 150), 0.2)
    assert lifted._pad.shape == (400, 400)
    monkeypatch.setattr(losses, "DENSE_LIMIT", 400 * 400 - 1)
    refused_before_allocation(LiftedLoss, ShapeOnlyLoss(250, 150), 0.2)


def test_balance_and_augment_refuses_a_dense_lift_before_building(
        monkeypatch, refused_before_allocation):
    # The lifted truth is (n+m)-square; m_star is refused before its SVD.
    rng = np.random.default_rng(35)
    m_star = np.outer(rng.standard_normal(250), rng.standard_normal(150))
    monkeypatch.setattr(losses, "DENSE_LIMIT", 400 * 400)
    assert balance_and_augment(m_star, 1)[2].shape == (400, 400)
    monkeypatch.setattr(losses, "DENSE_LIMIT", 400 * 400 - 1)
    refused_before_allocation(balance_and_augment, m_star, 1)


# Prints the lifted value and gradient bits at fig1b's shapes: a 10x8 inner
# loss with 220 measurements and an 18x5 factor, on X X^T.
LIFT_BITS = """
import hashlib
import numpy as np
from ripgd.factored import LiftedLoss
from ripgd.losses import LinearLoss, make_gaussian_operator
rng = np.random.default_rng(18)
lifted = LiftedLoss(LinearLoss(make_gaussian_operator(10, 8, 220, seed=9),
                               rng.standard_normal(220)), 0.2)
X = rng.standard_normal((18, 5))
N = X @ X.T
v, g = lifted.value_and_grad(N)
print(v.hex(), hashlib.sha256(g.tobytes()).hexdigest(),
      hashlib.sha256(lifted.grad(N).tobytes()).hexdigest())
"""


def test_lifted_loss_same_bits_across_blas_threads():
    # The balancing value is a BLAS dot product; the run artifacts are
    # pinned for 1 and 2 BLAS threads, so the lift must not depend on it.
    src = str(Path(__file__).resolve().parent.parent / "src")
    printed = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        printed.append(subprocess.run(
            [sys.executable, "-c", LIFT_BITS], check=True, env=env,
            capture_output=True, text=True).stdout)
    assert len(printed[0].splitlines()) == 1
    assert printed[0] == printed[1]


def test_lifted_validation():
    op = make_gaussian_operator(3, 2, 4, seed=0)
    inner = LinearLoss(op, np.zeros(4))
    for bad in (1.0, -0.1):
        with pytest.raises(ValueError, match="delta must lie"):
            LiftedLoss(inner, bad)


def test_balance_and_augment():
    rng = np.random.default_rng(18)
    u = rng.standard_normal((5, 2))
    v = rng.standard_normal((4, 2))
    m_star = u @ v.T
    u_star, v_star, m_tilde = balance_and_augment(m_star, 2)
    np.testing.assert_allclose(u_star @ v_star.T, m_star, atol=1e-10)
    np.testing.assert_allclose(u_star.T @ u_star, v_star.T @ v_star,
                               atol=1e-10)
    assert np.linalg.norm(m_tilde) == pytest.approx(
        2.0 * np.linalg.norm(m_star), rel=1e-12)
    sv = np.linalg.svd(m_star, compute_uv=False)
    sv_t = np.linalg.svd(m_tilde, compute_uv=False)
    assert sv_t[1] == pytest.approx(2.0 * sv[1], rel=1e-12)
    # Lifted objective vanishes at the balanced augmented truth.
    op = make_gaussian_operator(5, 4, 30, seed=4)
    inner = LinearLoss(op, op.apply(m_star))
    lifted = LiftedLoss(inner, 0.0)
    x_tilde = np.vstack([u_star, v_star])
    assert g_value(lifted, x_tilde) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        balance_and_augment(m_star, 3)
    with pytest.raises(ValueError):
        balance_and_augment(np.zeros(3), 1)
    # An exact rank-5 target with factors scaled by 1e3 has sigma_6 near
    # 4e-10: above an absolute 1e-10 cut, far below the relative one.
    left = 1e3 * rng.standard_normal((6, 5))
    big = left @ (1e3 * rng.standard_normal((7, 5))).T
    u_big, v_big, _ = balance_and_augment(big, 5)
    np.testing.assert_allclose(u_big @ v_big.T, big, rtol=0.0,
                               atol=1e-9 * np.linalg.norm(big))
    with pytest.raises(ValueError, match="above 4"):
        balance_and_augment(big, 4)
