import math

import numpy as np
import pytest
from scipy.special import expit

from ripgd.losses import (
    LinearLoss,
    LinearOperator,
    make_gaussian_operator,
    make_onebit_loss,
)
from ripgd.factored import LiftedLoss, g_grad
from ripgd.certify import (
    vec,
    sym_mat,
    x_operator,
    mean_hessian,
    verify_gradhessian,
    _range_parts,
    align,
    normcompare_check,
    pl_dual_bound,
    saddle_eta0,
    run_certificate_suites,
)
from ripgd.rip import pl_radius_sym


def calibrated_operator(n, p, seed):
    # Exact isometry band of the Gram matrix, so the RIP holds over all of
    # matrix space, not just low rank.
    op = make_gaussian_operator(n, n, p, seed)
    rows = op.matrices.reshape(p, -1)
    lam = np.linalg.eigvalsh(rows.T @ rows)
    delta = (lam[-1] - lam[0]) / (lam[-1] + lam[0])
    return op.with_scale(math.sqrt(2.0 / (lam[-1] + lam[0]))), float(delta)


def test_vec_column_major():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert vec(A).tolist() == [1.0, 3.0, 2.0, 4.0]
    B = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(vec(B).reshape((2, 3), order="F"), B)
    assert np.array_equal(sym_mat(vec(A)), 0.5 * (A + A.T))
    with pytest.raises(ValueError):
        sym_mat(np.ones(5))


def test_vec_kron_identity():
    # vec(P W P^T) = (P kron P) vec(W) under column-major stacking.
    rng = np.random.default_rng(0)
    P = rng.standard_normal((4, 4))
    W = rng.standard_normal((4, 4))
    assert np.allclose(vec(P @ W @ P.T), np.kron(P, P) @ vec(W), atol=1e-12)


def test_x_operator_defining_property(refused_before_allocation):
    rng = np.random.default_rng(1)
    X = rng.standard_normal((5, 2))
    K = x_operator(X)
    assert K.shape == (25, 10)
    for _ in range(5):
        U = rng.standard_normal((5, 2))
        assert np.allclose(K @ vec(U), vec(X @ U.T + U @ X.T), atol=1e-12)
        assert np.linalg.norm(K @ vec(U)) == pytest.approx(
            np.linalg.norm(X @ U.T + U @ X.T), rel=1e-12)
    assert np.allclose(x_operator(np.array([[3.0]])), [[6.0]])
    refused_before_allocation(x_operator, np.ones((253, 1)))


def test_mean_hessian_linear_is_constant():
    # A quadratic loss has a constant Hessian: one quadrature node is
    # already exact and the result matches the Gram of the
    # column-major-vectorized sensing matrices.
    op, _ = calibrated_operator(3, 27, seed=2)
    rng = np.random.default_rng(3)
    z = rng.standard_normal((3, 2))
    m_star = z @ z.T
    loss = LinearLoss(op, op.apply(m_star))
    X = rng.standard_normal((3, 2))
    H1 = mean_hessian(loss, X, m_star, quad_points=1)
    H16 = mean_hessian(loss, X, m_star, quad_points=16)
    assert np.allclose(H1, H16, atol=1e-12)
    rows = op.matrices.transpose(0, 2, 1).reshape(op.p, -1)
    assert np.allclose(H16, op.scale ** 2 * rows.T @ rows, atol=1e-12)
    other = mean_hessian(loss, rng.standard_normal((3, 2)), m_star)
    assert np.allclose(H16, other, atol=1e-12)
    assert np.allclose(H16, H16.T, atol=1e-12)


def test_mean_hessian_onebit_quadrature_converges():
    rng = np.random.default_rng(4)
    z = rng.uniform(-1.0, 1.0, (3, 2))
    m_hat = z @ z.T
    loss = make_onebit_loss(m_hat)
    X = rng.standard_normal((3, 2))
    H16 = mean_hessian(loss, X, m_hat, quad_points=16)
    H32 = mean_hessian(loss, X, m_hat, quad_points=32)
    assert np.max(np.abs(H16 - H32)) <= 1e-8


def test_mean_value_identity():
    # With grad f vanishing at m_star, the segment-averaged Hessian maps
    # the recovery error onto the gradient exactly.
    rng = np.random.default_rng(5)
    z = rng.standard_normal((3, 2))
    m_star = z @ z.T
    op, _ = calibrated_operator(3, 27, seed=6)
    loss = LinearLoss(op, op.apply(m_star))
    X = rng.standard_normal((3, 2))
    H = mean_hessian(loss, X, m_star)
    e = vec(X @ X.T - m_star)
    g = vec(loss.grad(X @ X.T))
    assert np.linalg.norm(H @ e - g) <= 1e-10 * np.linalg.norm(g)

    z = rng.uniform(-1.0, 1.0, (3, 2))
    m_hat = z @ z.T
    ob = make_onebit_loss(m_hat)
    X = 0.5 * rng.standard_normal((3, 2))
    H = mean_hessian(ob, X, m_hat)
    e = vec(X @ X.T - m_hat)
    g = vec(ob.grad(X @ X.T))
    assert np.linalg.norm(H @ e - g) <= 1e-6 * np.linalg.norm(g)


def count_hess_gram(loss):
    """Make loss.hess_gram count its calls; returns the call list."""
    calls = []
    gram = loss.hess_gram

    def counted(M, dirs):
        calls.append(M)
        return gram(M, dirs)

    loss.hess_gram = counted
    return calls


def per_node_mean_hessian(loss, X, m_star, quad_points=16):
    """Reference mean Hessian with one Gram per quadrature node."""
    n = loss.n
    M0 = X @ X.T
    basis = np.eye(n * n).reshape(n * n, n, n).transpose(0, 2, 1)
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)
    H = np.zeros((n * n, n * n))
    for t, w in zip(0.5 * (nodes + 1.0), 0.5 * weights):
        H += w * loss.hess_gram((1.0 - t) * M0 + t * m_star, basis)
    return 0.5 * (H + H.T)


def test_mean_hessian_builds_a_constant_hessian_once():
    rng = np.random.default_rng(7)
    op, _ = calibrated_operator(3, 27, seed=8)
    z = rng.standard_normal((3, 2))
    m_star = z @ z.T
    lin = LinearLoss(op, op.apply(m_star))
    lifted = LiftedLoss(LinearLoss(make_gaussian_operator(2, 1, 6, seed=1),
                                   rng.standard_normal(6)), 0.2)
    ob = make_onebit_loss(0.5 * m_star / np.abs(m_star).max())
    cases = ((lin, 1), (lifted, 1), (ob, 16))
    for loss, want in cases:
        assert loss.constant_hessian == (want == 1)
        X = rng.standard_normal((3, 2))
        reference = per_node_mean_hessian(loss, X, m_star)
        calls = count_hess_gram(loss)
        H = mean_hessian(loss, X, m_star)
        assert len(calls) == want
        np.testing.assert_array_equal(H, reference)


def test_mean_hessian_validation(refused_before_allocation):
    op = make_gaussian_operator(3, 2, 5, seed=0)
    loss = LinearLoss(op, np.zeros(5))
    with pytest.raises(ValueError, match="square"):
        mean_hessian(loss, np.ones((3, 1)), np.ones((3, 2)))
    # n^4 entries: 64^4 is above the dense limit of 4000^2, 11^4 far below.
    big = make_gaussian_operator(64, 64, 1, seed=0)
    refused_before_allocation(mean_hessian, LinearLoss(big, np.zeros(1)),
                              np.ones((64, 1)), np.ones((64, 64)))
    mid = make_gaussian_operator(11, 11, 5, seed=0)
    H = mean_hessian(LinearLoss(mid, np.zeros(5)), np.ones((11, 1)),
                     np.ones((11, 11)))
    assert H.shape == (121, 121)
    sq = make_gaussian_operator(3, 3, 5, seed=0)
    with pytest.raises(ValueError, match="quadrature"):
        mean_hessian(LinearLoss(sq, np.zeros(5)), np.ones((3, 1)),
                     np.ones((3, 3)), quad_points=0)


def test_verify_gradhessian_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, min(2, n - 1) + 1))
        op, delta = calibrated_operator(n, 3 * n * n, int(rng.integers(0, 2 ** 31)))
        z = rng.standard_normal((n, r))
        m_star = z @ z.T
        loss = LinearLoss(op, op.apply(m_star))
        X = rng.standard_normal((n, r))
        rep = verify_gradhessian(loss, X, m_star, delta)
        assert rep.passed, rep.to_dict()


def test_verify_gradhessian_grad_equality():
    # For a quadratic loss with consistent observations the transferred
    # gradient norm ||Xop^T H e|| equals the factored gradient norm.
    rng = np.random.default_rng(8)
    op, delta = calibrated_operator(4, 48, seed=9)
    z = rng.standard_normal((4, 2))
    m_star = z @ z.T
    loss = LinearLoss(op, op.apply(m_star))
    X = rng.standard_normal((4, 2))
    rep = verify_gradhessian(loss, X, m_star, delta)
    assert rep.quantities["grad_transfer"] == pytest.approx(
        rep.quantities["grad_norm"], rel=1e-9)
    assert rep.quantities["grad_norm"] == pytest.approx(
        float(np.linalg.norm(g_grad(loss, X))), rel=1e-12)


def test_verify_gradhessian_at_truth():
    rng = np.random.default_rng(10)
    op, delta = calibrated_operator(3, 27, seed=11)
    z = rng.standard_normal((3, 1))
    m_star = z @ z.T
    loss = LinearLoss(op, op.apply(m_star))
    rep = verify_gradhessian(loss, z, m_star, delta)
    assert rep.passed
    assert rep.quantities["grad_transfer"] <= 1e-12
    assert rep.quantities["grad_norm"] <= 1e-12


def test_align():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((5, 3))
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    assert np.allclose(align(X, X @ Q), X, atol=1e-10)
    x1 = rng.standard_normal((4, 1))
    assert np.allclose(align(x1, -x1), x1, atol=1e-12)
    Z = align(X, rng.standard_normal((5, 3)))
    G = X.T @ Z
    assert np.linalg.norm(G - G.T) <= 1e-10 * (1 + np.linalg.norm(G))
    assert np.linalg.eigvalsh(0.5 * (G + G.T))[0] >= -1e-10


def test_range_parts_projection():
    # The projection that saddle_eta0 uses: Z splits into a part inside the
    # range of X and a part orthogonal to it.
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n))
        X = rng.standard_normal((n, r))
        Z = align(X, rng.standard_normal((n, r)))
        z_range, z_perp = _range_parts(X, Z)
        scale = max(1.0, np.linalg.norm(X @ X.T - Z @ Z.T))
        # z_perp is computed as Z - z_range, so the sum is Z up to rounding.
        assert np.linalg.norm(z_range + z_perp - Z) <= 1e-12 * scale
        assert np.linalg.norm(X.T @ z_perp) <= 1e-10 * scale
    # A column scaled to 1e-13 of the other lies below the relative 1e-10
    # cut: its direction is dropped from the range, so the part of Z along
    # it lands in z_perp.
    X = np.array([[1.0, 0.0], [0.0, 1e-13], [0.0, 0.0]])
    Z = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    z_range, z_perp = _range_parts(X, Z)
    assert np.allclose(z_range + z_perp, Z, rtol=0.0, atol=1e-15)
    assert np.allclose(z_range, [[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]],
                       atol=1e-15)
    assert np.allclose(z_perp, [[0.0, 0.0], [3.0, 4.0], [5.0, 6.0]],
                       atol=1e-15)


def test_normcompare():
    # Scalar check: X=2, Z=1 gives lhs 1 against 9/(2(sqrt(2)-1)).
    assert 9.0 / (2.0 * (math.sqrt(2.0) - 1.0)) == pytest.approx(
        10.863961030678926, rel=1e-15)
    assert normcompare_check(np.array([[2.0]]), np.array([[1.0]]))
    rng = np.random.default_rng(14)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n + 1))
        X = rng.standard_normal((n, r))
        Z = align(X, rng.standard_normal((n, r)))
        assert normcompare_check(X, Z)
    with pytest.raises(ValueError, match="align"):
        x = np.array([[1.0]])
        normcompare_check(x, -x)


def test_pl_dual_bound_random():
    rng = np.random.default_rng(17)
    gaps = 0
    for _ in range(50):
        n = int(rng.integers(3, 7))
        r = int(rng.integers(1, 3))
        Z = rng.standard_normal((n, r))
        while np.linalg.svd(Z, compute_uv=False)[r - 1] <= 0.3:
            Z = rng.standard_normal((n, r))
        sig = float(np.linalg.svd(Z, compute_uv=False)[r - 1] ** 2)
        c_tilde = 0.5 * pl_radius_sym(0.0, sig)
        E = rng.standard_normal((n, r))
        E *= rng.uniform(0.05, 0.999) * c_tilde / np.linalg.norm(E)
        mu = rng.uniform(0.0, 0.3) * math.sqrt(sig)
        rep = pl_dual_bound(Z + E, Z, mu, c_tilde, sig)
        if rep.construction_gap:
            gaps += 1
            continue
        assert rep.passed, rep.to_dict()
        assert rep.checks["dual_bound"]["lhs"] <= rep.checks["dual_bound"]["rhs"] + 1e-8
    assert gaps < 50


def test_pl_dual_bound_near_truth():
    rng = np.random.default_rng(18)
    Z = rng.standard_normal((4, 2))
    sig = float(np.linalg.svd(Z, compute_uv=False)[1] ** 2)
    c_tilde = 0.5 * pl_radius_sym(0.0, sig)
    X = Z + 1e-6 * rng.standard_normal((4, 2))
    rep = pl_dual_bound(X, Z, 0.0, c_tilde, sig)
    assert not rep.construction_gap
    assert rep.passed
    # A vanishing perturbation leaves the error essentially inside the
    # range of the linearization, so the angle collapses.
    assert rep.quantities["cos_theta"] >= 1.0 - 1e-6
    assert rep.quantities["dual_obj"] <= 1e-6


def test_pl_dual_bound_validation():
    rng = np.random.default_rng(19)
    Z = rng.standard_normal((4, 2))
    sig = float(np.linalg.svd(Z, compute_uv=False)[1] ** 2)
    c_tilde = 0.5 * pl_radius_sym(0.0, sig)
    X = Z + 0.1 * c_tilde * rng.standard_normal((4, 2))
    with pytest.raises(ValueError, match="mu_prime"):
        pl_dual_bound(X, Z, -0.1, c_tilde, sig)
    with pytest.raises(ValueError, match="sigma_r"):
        pl_dual_bound(X, Z, 0.0, c_tilde, 0.0)
    with pytest.raises(ValueError, match="C_tilde"):
        pl_dual_bound(X, Z, 0.0, 10.0 * math.sqrt(sig), sig)
    with pytest.raises(ValueError, match="exceeds"):
        pl_dual_bound(Z + 2.0 * c_tilde * np.ones((4, 2)), Z, 0.0, c_tilde, sig)
    with pytest.raises(ValueError, match="undefined"):
        pl_dual_bound(Z, Z, 0.0, c_tilde, sig)


def test_saddle_eta0_axis_pair():
    # X=e1, Z=e2: alpha = 1/sqrt(2), the alpha branch applies, and
    # eta0 = 3 - 2 sqrt(2).
    X = np.array([[1.0], [0.0]])
    Z = np.array([[0.0], [1.0]])
    rep = saddle_eta0(X, Z)
    assert rep.quantities["alpha"] == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    assert rep.quantities["eta0"] == pytest.approx(0.17157287525380971, rel=1e-12)
    assert rep.passed and not rep.special_case
    # zeta=2, kappa=1/2 gives slack (1 + sqrt(2)/2) / (2 sqrt(2)).
    rep = saddle_eta0(X, Z, zeta=2.0, kappa=0.5)
    assert rep.quantities["stationarity_slack"] == pytest.approx(
        0.60355339059327373, rel=1e-12)
    with pytest.raises(ValueError, match="zeta"):
        saddle_eta0(X, Z, zeta=0.0, kappa=0.5)


def test_saddle_eta0_range_overlap():
    # Z inside the range of X leaves no perpendicular part; the level
    # collapses to zero as a recorded special case.
    rng = np.random.default_rng(20)
    X = rng.standard_normal((4, 2))
    Z = X @ rng.standard_normal((2, 2))
    rep = saddle_eta0(X, Z)
    assert rep.special_case
    assert rep.quantities["eta0"] == 0.0
    assert rep.passed


def test_saddle_eta0_identical_error():
    X = np.ones((3, 1))
    with pytest.raises(ValueError, match="no saddle"):
        saddle_eta0(X, X.copy())


def test_saddle_eta0_random_bound():
    rng = np.random.default_rng(21)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n))
        X = rng.standard_normal((n, r))
        Z = rng.standard_normal((n, r))
        if np.linalg.norm(X @ X.T - Z @ Z.T) <= 1e-8:
            continue
        rep = saddle_eta0(X, Z)
        assert rep.quantities["eta0"] <= 1.0 / 3.0 + 1e-8
        assert rep.passed


def test_run_certificate_suites_small():
    results = run_certificate_suites(seed=0, gradhessian=5, saddle=20,
                                     pl_dual=10, normcompare=30)
    assert set(results) == {"gradhessian", "saddle_eta0", "pl_dual", "normcompare"}
    for suite in results.values():
        assert suite["failures"] == 0
    assert results["gradhessian"]["count"] == 5
    # The gradient transfer check is an equality up to rounding for
    # consistent quadratic losses, so the margin may sit at -eps.
    assert results["gradhessian"]["min_margin"] >= -1e-8
    assert results["saddle_eta0"]["max_eta0"] <= 1.0 / 3.0
    assert results["saddle_eta0"]["margin_to_third"] >= 0.0
    assert results["pl_dual"]["construction_gaps"] <= 10
    assert results["normcompare"]["count"] == 30
