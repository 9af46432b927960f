import numpy as np
import pytest

from ripgd.losses import (
    LinearOperator,
    LinearLoss,
    MatrixLoss,
    OneBitLoss,
    ScaledLoss,
    make_gaussian_operator,
)
from ripgd.factored import (
    g_grad,
    g_value_and_grad,
    g_hess_min_eig,
    hess_matrix,
    LiftedLoss,
    balance_and_augment,
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
    lifted = ScaledLoss(LiftedLoss(LinearLoss(
        make_gaussian_operator(3, 2, 12, seed=3), rng.standard_normal(12)),
        phi=0.35), 1.6)
    for loss, rows in ((lin, 4), (onebit, 4), (lifted, 5)):
        X = rng.standard_normal((rows, 2))
        g = g_grad(loss, X)
        g_fd = fd_g_grad(loss, X)
        assert np.linalg.norm(g - g_fd) <= 1e-4 * max(1.0, np.linalg.norm(g))
        v, gg = g_value_and_grad(loss, X)
        assert v == pytest.approx(g_value(loss, X))
        np.testing.assert_allclose(gg, g, rtol=1e-12)


def test_factor_hessian_fd():
    # The dense factored Hessian against second differences of the value.
    rng = np.random.default_rng(11)
    lin, onebit = random_losses(rng, 3)
    for loss in (lin, onebit, ScaledLoss(onebit, 2.5), lifted_loss(rng)):
        X = rng.standard_normal((3, 2))
        U = rng.standard_normal((3, 2))
        u = U.reshape(-1, order="F")
        q = float(u @ hess_matrix(loss, X) @ u)
        assert abs(q - fd_g_quad(loss, X, U)) <= 1e-3 * max(1.0, abs(q))


def lifted_loss(rng):
    """Scaled lift of a 2-by-1 linear loss: a square loss on 3 rows."""
    inner = LinearLoss(make_gaussian_operator(2, 1, 6, seed=5),
                       rng.standard_normal(6))
    return ScaledLoss(LiftedLoss(inner, phi=0.4), 1.7)


def test_hess_matrix_matches_form():
    # The dense Hessian must reproduce the factored Hessian form under the
    # column-major vec convention, for every loss.
    rng = np.random.default_rng(13)
    lin, onebit = random_losses(rng, 3)
    scaled = ScaledLoss(onebit, 2.5)
    for loss in (lin, onebit, scaled, lifted_loss(rng)):
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
    for loss in (lin, onebit, ScaledLoss(lin, 0.7), lifted_loss(rng)):
        M = rng.standard_normal((3, 3))
        dirs = rng.standard_normal((5, 3, 3))
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


def test_hess_matrix_size_limit():
    loss = identity_loss(3, np.eye(3))
    with pytest.raises(ValueError):
        hess_matrix(loss, np.zeros((3, 2)), dense_limit=4)


def test_factor_shape_validation():
    loss = scalar_loss()
    with pytest.raises(ValueError):
        g_grad(loss, np.zeros((2, 1)))
    rect = LinearLoss(make_gaussian_operator(3, 2, 4, seed=0), np.zeros(4))
    with pytest.raises(ValueError):
        g_grad(rect, np.zeros((3, 1)))


def test_lifted_loss_blocks():
    # The lifted objective evaluated at [U; V][U; V]^T equals the
    # asymmetric loss at U V^T plus the balancing penalty.
    rng = np.random.default_rng(16)
    op = make_gaussian_operator(3, 2, 10, seed=8)
    d = rng.standard_normal(10)
    inner = LinearLoss(op, d)
    phi = 0.45
    lifted = LiftedLoss(inner, phi)
    assert lifted.n == lifted.m == 5
    U = rng.standard_normal((3, 2))
    V = rng.standard_normal((2, 2))
    X = np.vstack([U, V])
    N = X @ X.T
    uu, vv, uv = U @ U.T, V @ V.T, U @ V.T
    bal = (np.sum(uu * uu) + np.sum(vv * vv) - 2.0 * np.sum(uv * uv))
    want = inner.value(uv) + 0.25 * phi * bal
    assert g_value(lifted, X) == pytest.approx(want, rel=1e-12)
    v, g = lifted.value_and_grad(N)
    assert v == pytest.approx(lifted.value(N), rel=1e-12)
    np.testing.assert_allclose(g, lifted.grad(N), rtol=1e-12)


def test_lifted_loss_fd():
    rng = np.random.default_rng(17)
    op = make_gaussian_operator(3, 2, 10, seed=8)
    inner = LinearLoss(op, rng.standard_normal(10))
    lifted = LiftedLoss(inner, 0.3)
    N = rng.standard_normal((5, 5))
    g = lifted.grad(N)
    eps = 1e-6
    fd = np.zeros_like(N)
    for i in range(5):
        for j in range(5):
            E = np.zeros_like(N)
            E[i, j] = eps
            fd[i, j] = (lifted.value(N + E) - lifted.value(N - E)) / (2 * eps)
    assert np.linalg.norm(g - fd) <= 1e-4 * max(1.0, np.linalg.norm(g))
    K = rng.standard_normal((5, 5))
    L = rng.standard_normal((5, 5))
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
    """Inner loss that counts its value_and_grad and grad calls."""

    def __init__(self, inner):
        self.inner = inner
        self.n, self.m = inner.n, inner.m
        self.calls = 0

    def value_and_grad(self, M):
        self.calls += 1
        return self.inner.value_and_grad(M)

    def grad(self, M):
        self.calls += 1
        return self.inner.grad(M)


def two_evaluation_lift(inner, phi, M):
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
    return float(0.5 * (v12 + v21) + 0.25 * phi * bal), G


def test_lifted_loss_single_inner_evaluation():
    # N = X X^T has N12 == N21^T bit for bit, so one inner evaluation
    # serves both blocks and the result keeps the two-evaluation bits.
    rng = np.random.default_rng(18)
    base = LinearLoss(make_gaussian_operator(10, 8, 220, seed=9),
                      rng.standard_normal(220))
    counted = CountingLoss(base)
    lifted = LiftedLoss(counted, 0.4)
    X = rng.standard_normal((18, 5))
    N = X @ X.T
    want_v, want_g = two_evaluation_lift(base, 0.4, N)
    v, g = lifted.value_and_grad(N)
    assert counted.calls == 1
    assert v == want_v
    np.testing.assert_array_equal(g, want_g)
    counted.calls = 0
    np.testing.assert_array_equal(lifted.grad(N), want_g)
    assert counted.calls == 1


def test_lifted_loss_asymmetric_input_evaluates_both_blocks():
    rng = np.random.default_rng(19)
    base = LinearLoss(make_gaussian_operator(3, 2, 10, seed=8),
                      rng.standard_normal(10))
    counted = CountingLoss(base)
    phi = 0.3
    lifted = LiftedLoss(counted, phi)
    N = rng.standard_normal((5, 5))
    want_v, want_g = two_evaluation_lift(base, phi, N)
    v, g = lifted.value_and_grad(N)
    assert counted.calls == 2
    assert v == want_v
    np.testing.assert_array_equal(g, want_g)
    counted.calls = 0
    np.testing.assert_array_equal(lifted.grad(N), want_g)
    assert counted.calls == 2
    bal = (np.sum(N[:3, :3] ** 2) + np.sum(N[3:, 3:] ** 2)
           - np.sum(N[:3, 3:] ** 2) - np.sum(N[3:, :3] ** 2))
    want = 0.5 * (base.value(N[:3, 3:]) + base.value(N[3:, :3].T)) + 0.25 * phi * bal
    assert v == pytest.approx(want, rel=1e-12)


def test_lifted_validation():
    op = make_gaussian_operator(3, 2, 4, seed=0)
    inner = LinearLoss(op, np.zeros(4))
    with pytest.raises(ValueError):
        LiftedLoss(inner, 0.0)


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
    lifted = LiftedLoss(inner, 0.5)
    x_tilde = np.vstack([u_star, v_star])
    assert g_value(lifted, x_tilde) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        balance_and_augment(m_star, 3)
    with pytest.raises(ValueError):
        balance_and_augment(np.zeros(3), 1)
