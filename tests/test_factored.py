import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ripgd.losses import (
    LinearOperator,
    LinearLoss,
    MatrixLoss,
    OneBitLoss,
    make_gaussian_operator,
)
from ripgd.factored import (
    g_grad,
    g_value_and_grad,
    g_hess_min_eig,
    hess_matrix,
    LiftedLoss,
    balance_and_augment,
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


def test_lifted_loss_asymmetric_input_evaluates_both_blocks():
    rng = np.random.default_rng(19)
    base = LinearLoss(make_gaussian_operator(3, 2, 10, seed=8),
                      rng.standard_normal(10))
    counted = CountingLoss(base)
    lifted = LiftedLoss(counted, 0.4)
    N = rng.standard_normal((5, 5))
    lift = lifted.phi, lifted.scale
    want_v, want_g = two_evaluation_lift(base, *lift, N)
    v, g = lifted.value_and_grad(N)
    assert counted.calls == 2
    assert abs(v - want_v) <= lift_rounding(want_v, *lift, N)
    np.testing.assert_array_equal(g, want_g)
    counted.calls = 0
    np.testing.assert_array_equal(lifted.grad(N), want_g)
    assert counted.calls == 2
    bal = (np.sum(N[:3, :3] ** 2) + np.sum(N[3:, 3:] ** 2)
           - np.sum(N[:3, 3:] ** 2) - np.sum(N[3:, :3] ** 2))
    inner_v = 0.5 * (base.value(N[:3, 3:]) + base.value(N[3:, :3].T))
    want = lifted.scale * (inner_v + 0.25 * lifted.phi * bal)
    assert v == pytest.approx(want, rel=1e-12)


# Prints the lifted value and gradient bits at fig1b's shapes: a 10x8 inner
# loss with 220 measurements and an 18x5 factor, on X X^T and on a matrix
# with unequal off-diagonal blocks.
LIFT_BITS = """
import hashlib
import numpy as np
from ripgd.factored import LiftedLoss
from ripgd.losses import LinearLoss, make_gaussian_operator
rng = np.random.default_rng(18)
lifted = LiftedLoss(LinearLoss(make_gaussian_operator(10, 8, 220, seed=9),
                               rng.standard_normal(220)), 0.2)
X = rng.standard_normal((18, 5))
for N in (X @ X.T, rng.standard_normal((18, 18))):
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
    assert len(printed[0].splitlines()) == 2
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
