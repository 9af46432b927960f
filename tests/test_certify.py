import math
import re
import warnings

import numpy as np
import pytest
from scipy.special import expit

from ripgd.losses import (
    LinearLoss,
    LinearOperator,
    _significant,
    make_gaussian_operator,
    make_onebit_loss,
)
from ripgd.factored import LiftedLoss, g_grad
from ripgd import certify
from ripgd.certify import (
    CertificateReport,
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
    _norms,
    _stacks,
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
    X = rng.standard_normal((1, 5, 3))
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    assert np.allclose(align(X, X @ Q), X, atol=1e-10)
    x1 = rng.standard_normal((1, 4, 1))
    assert np.allclose(align(x1, -x1), x1, atol=1e-12)
    Z = align(X, rng.standard_normal((1, 5, 3)))[0]
    G = X[0].T @ Z
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
        Z = rng.standard_normal((n, r))
        z_range, z_perp, sv = (part[0]
                               for part in _range_parts(X[None], Z[None]))
        scale = max(1.0, np.linalg.norm(X @ X.T - Z @ Z.T))
        # z_perp is computed as Z - z_range, so the sum is Z up to rounding.
        assert np.linalg.norm(z_range + z_perp - Z) <= 1e-12 * scale
        assert np.linalg.norm(X.T @ z_perp) <= 1e-10 * scale
        # The singular values of X come from the same decomposition.
        assert np.allclose(sv, np.linalg.svd(X, compute_uv=False),
                           rtol=1e-13, atol=0.0)
    # A column scaled to 1e-13 of the other lies below the relative 1e-10
    # cut: its direction is dropped from the range, so the part of Z along
    # it lands in z_perp.
    X = np.array([[1.0, 0.0], [0.0, 1e-13], [0.0, 0.0]])
    Z = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    z_range, z_perp, sv = (part[0] for part in _range_parts(X[None], Z[None]))
    assert sv == pytest.approx([1.0, 1e-13], rel=1e-12, abs=0.0)
    assert np.allclose(z_range + z_perp, Z, rtol=0.0, atol=1e-15)
    assert np.allclose(z_range, [[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]],
                       atol=1e-15)
    assert np.allclose(z_perp, [[0.0, 0.0], [3.0, 4.0], [5.0, 6.0]],
                       atol=1e-15)


def test_normcompare():
    # Scalar check: X=2, Z=1 gives lhs 1 against 9/(2(sqrt(2)-1)).
    assert 9.0 / (2.0 * (math.sqrt(2.0) - 1.0)) == pytest.approx(
        10.863961030678926, rel=1e-15)
    assert normcompare_check(np.array([[[2.0]]]), np.array([[[1.0]]])) == [
        True]
    # The pairs are not aligned: the check aligns each Z itself.  Without
    # that, 25 of these 200 pairs fail the bound.
    rng = np.random.default_rng(14)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n + 1))
        X = rng.standard_normal((1, n, r))
        Z = rng.standard_normal((1, n, r))
        assert normcompare_check(X, Z) == [True]
    # Z = -X is X rotated by -1, at distance zero once aligned.
    x = np.array([[[1.0]]])
    assert normcompare_check(x, -x) == [True]


def test_normcompare_check_equality_case():
    # X = [0; a] with a^2 = sqrt(2) - 1 and Z = e1: sigma_r(Z)^2 = 1,
    # ||X - Z||^2 = 1 + a^2 = sqrt(2) and ||X X^T - Z Z^T||^2 = 1 + a^4 =
    # 2 (sqrt(2) - 1) sqrt(2), so both sides are sqrt(2).  In floating point
    # the left one is 2.2e-16 larger, and the 1e-10 tolerance passes it.
    X = np.array([[[0.0], [math.sqrt(math.sqrt(2.0) - 1.0)]]])
    Z = np.array([[[1.0], [0.0]]])
    assert normcompare_check(X, Z) == [True]


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
    X = np.array([[[1.0], [0.0]]])
    Z = np.array([[[0.0], [1.0]]])
    rep, = saddle_eta0(X, Z)
    assert rep.quantities["alpha"] == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    assert rep.quantities["eta0"] == pytest.approx(0.17157287525380971, rel=1e-12)
    assert rep.passed and not rep.special_case
    # zeta=2, kappa=1/2 gives slack (1 + sqrt(2)/2) / (2 sqrt(2)).
    rep, = saddle_eta0(X, Z, zeta=2.0, kappa=0.5)
    assert rep.quantities["stationarity_slack"] == pytest.approx(
        0.60355339059327373, rel=1e-12)
    with pytest.raises(ValueError, match="zeta"):
        saddle_eta0(X, Z, zeta=0.0, kappa=0.5)


def test_saddle_eta0_axis_pair_beta_branch():
    # X=e1, Z=2 e2: ||X X^T - Z Z^T|| = sqrt(17) and ||z_perp z_perp^T|| =
    # tr(z_perp z_perp^T) = 4, so alpha = 4/sqrt(17) and beta = 1/sqrt(17),
    # below alpha / (1 + sqrt(1 - alpha^2)) = 4/(sqrt(17) + 1): the beta
    # branch applies, and eta0 = (3/17) / (13/17) = 3/13.
    X = np.array([[[1.0], [0.0]]])
    Z = np.array([[[0.0], [2.0]]])
    rep, = saddle_eta0(X, Z)
    assert rep.quantities["alpha"] == pytest.approx(4 / math.sqrt(17),
                                                    rel=1e-12)
    assert rep.quantities["beta"] == pytest.approx(1 / math.sqrt(17),
                                                   rel=1e-12)
    assert rep.quantities["eta0"] == pytest.approx(3 / 13, rel=1e-12)
    assert rep.passed and not rep.special_case


def test_saddle_eta0_range_overlap():
    # Z inside the range of X leaves no perpendicular part; the level
    # collapses to zero as a recorded special case.
    rng = np.random.default_rng(20)
    X = rng.standard_normal((1, 4, 2))
    Z = X @ rng.standard_normal((2, 2))
    rep, = saddle_eta0(X, Z)
    assert rep.special_case
    assert rep.quantities["eta0"] == 0.0
    assert rep.passed


def test_saddle_eta0_identical_error():
    X = np.ones((1, 3, 1))
    with pytest.raises(ValueError, match="no saddle"):
        saddle_eta0(X, X.copy())


def test_saddle_eta0_random_bound():
    # The bound holds for any X, including the nearly and exactly
    # rank-deficient ones the certificate sweep may draw and checks as drawn.
    rng = np.random.default_rng(21)
    for sigma_r in (None, 1e-3, 1e-8, 0.0):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            r = int(rng.integers(1, n))
            X = rng.standard_normal((n, r))
            Z = rng.standard_normal((n, r))
            if sigma_r is not None:
                U, s, Vt = np.linalg.svd(X, full_matrices=False)
                s[-1] = sigma_r
                X = (U * s) @ Vt
            if np.linalg.norm(X @ X.T - Z @ Z.T) <= 1e-8:
                continue
            rep, = saddle_eta0(X[None], Z[None])
            assert rep.quantities["eta0"] <= 1.0 / 3.0 + 1e-8
            assert rep.passed


def _stacks_of_every_shape():
    """(X, Z) stacks for n = 2..6 and every r <= n, with special pairs.

    Pair 1 has Z inside the range of X, and pair 2 has a rank-deficient X,
    whose dependent direction falls below the relative rank cut.
    """
    rng = np.random.default_rng(31)
    for n in range(2, 7):
        for r in range(1, n + 1):
            X = rng.standard_normal((5, n, r))
            Z = rng.standard_normal((5, n, r))
            Z[1] = X[1] @ rng.standard_normal((r, r))
            X[2, :, -1] = 3.0 * X[2, :, 0] if r > 1 else 0.0
            assert not _significant(np.linalg.svd(X[2], compute_uv=False)).all()
            yield X, Z


def test_significant_masks_each_stacked_row_on_its_own():
    # One row is rank deficient, one has sigma_1 < 1, where the cut is
    # absolute, and one has a large sigma_1 that raises the cut; the
    # stacked mask is the per-row masks.
    sv = np.array([[3.0, 2e-10, 1e-10], [0.5, 2e-10, 1e-11],
                   [5e9, 0.4, 0.1]])
    stacked = _significant(sv)
    assert stacked.tolist() == [_significant(s).tolist() for s in sv]
    assert stacked.tolist() == [[True, False, False], [True, True, False],
                                [True, False, False]]
    assert _significant(np.zeros(0)).shape == (0,)
    assert _significant(np.zeros((2, 0))).shape == (2, 0)


def test_stacks_match_single_pairs_bit_for_bit():
    # Each pair of a stack gets the bits of its stack of one.
    def bits(report):
        return repr(report.to_dict())

    for X, Z in _stacks_of_every_shape():
        Za = align(X, Z)
        parts = _range_parts(X, Z)
        ones = [(X[i:i + 1], Z[i:i + 1]) for i in range(len(X))]
        for i, (x, z) in enumerate(ones):
            assert Za[i].tobytes() == align(x, z).tobytes()
            for part, one in zip(parts, _range_parts(x, z)):
                assert part[i].tobytes() == one.tobytes()
        assert normcompare_check(X, Z) == [
            normcompare_check(x, z)[0] for x, z in ones]
        for kwargs in ({}, {"zeta": 0.5, "kappa": 0.1}):
            assert [bits(rep) for rep in saddle_eta0(X, Z, **kwargs)] == [
                bits(saddle_eta0(x, z, **kwargs)[0]) for x, z in ones]
        assert saddle_eta0(X, Z)[1].special_case
        # One pair with X X^T = Z Z^T fails the stack, as it fails alone.
        with pytest.raises(ValueError, match="no saddle"):
            saddle_eta0(np.concatenate([X, X[:1]]), np.concatenate([Z, X[:1]]))
        with pytest.raises(ValueError, match="no saddle"):
            saddle_eta0(X[:1], X[:1].copy())


def test_saddle_eta0_is_unchanged_by_rotating_z():
    # alpha, beta and eta0 depend on Z only through Z Z^T, so Z Q for an
    # orthogonal Q gives the same report up to rounding.
    rng = np.random.default_rng(32)
    for X, Z in _stacks_of_every_shape():
        k, _, r = Z.shape
        Q = np.linalg.qr(rng.standard_normal((k, r, r)))[0]
        for rep, rot in zip(saddle_eta0(X, Z), saddle_eta0(X, Z @ Q)):
            assert rot.special_case == rep.special_case
            assert rot.passed == rep.passed
            for name in ("alpha", "beta", "eta0"):
                assert rot.quantities[name] == pytest.approx(
                    rep.quantities[name], rel=1e-12, abs=0.0)


def test_pair_checks_refuse_mismatched_shapes():
    # A (k, n, r) X with an (n, r) Z would broadcast through the stacked
    # products and check the wrong pairs; a lone (n, r) pair is not a stack.
    X = np.ones((3, 4, 2))
    cases = [(X, np.ones((4, 2))), (X[0], X), (X, np.ones((3, 4, 1))),
             (X, np.ones((2, 4, 2))), (np.ones(4), np.ones(4)),
             (X[None], X[None]), (X[0], X[0])]
    for check in (align, normcompare_check, saddle_eta0):
        for x, z in cases:
            with pytest.raises(ValueError, match=re.escape(
                    "got %s and %s" % (x.shape, z.shape))):
                check(x, z)


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


def test_certificate_suites_refuse_negative_counts():
    # A negative count is refused before any draw, naming its suite; the
    # first one in the signature's order is named.
    with pytest.raises(ValueError, match="^gradhessian count must be "
                                         "nonnegative, got -3$"):
        run_certificate_suites(gradhessian=-3, saddle=-2, normcompare=-1)
    for suite in ("gradhessian", "saddle", "pl_dual", "normcompare"):
        with pytest.raises(ValueError, match="^%s count must be nonnegative, "
                                             "got -1$" % suite):
            run_certificate_suites(**{suite: -1})
    zero = run_certificate_suites(gradhessian=0, saddle=0, pl_dual=0,
                                  normcompare=0)
    assert [suite["count"] for suite in zero.values()] == [0, 0, 0, 0]


def normcompare_sides(X, Z):
    """sigma_r(Z)^2, ||X - Z Q||^2 and ||X X^T - Z Z^T||^2 of each pair."""
    Z = align(X, Z)
    sig = np.linalg.svd(Z, compute_uv=False)[:, Z.shape[-1] - 1]
    return (sig ** 2, _norms(X - Z) ** 2,
            _norms(X @ X.transpose(0, 2, 1) - Z @ Z.transpose(0, 2, 1)) ** 2)


def test_per_column_count_stacks_pad_with_zero_rows():
    # The normcompare sweep checks one stack per column count r, padding
    # each pair with zero rows up to the stack's largest n.  Zero rows
    # change none of the three sides of the inequality, so each pair gets
    # the flag it gets in its stack of one shape.  The inequality is a
    # theorem, so every flag is True; the padding itself is pinned below.
    rng = np.random.default_rng(41)
    pairs = []
    for _ in range(2500):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n + 1))
        pairs.append((rng.standard_normal((n, r)),
                      rng.standard_normal((n, r))))
    # Ordered by (r, n), the per-shape stacks run through the pairs in the
    # order of the per-r stacks.
    pairs.sort(key=lambda pair: (pair[0].shape[1], pair[0].shape[0]))
    by_shape = _stacks(pairs, np.shape)
    by_r = _stacks(pairs, lambda X: X.shape[1])
    assert len(by_shape) == 20
    assert [X.shape[1:] for X, _ in by_r] == [(6, r) for r in range(1, 7)]
    flags = [flag for X, Z in by_shape for flag in normcompare_check(X, Z)]
    assert [flag for X, Z in by_r for flag in normcompare_check(X, Z)] == flags
    assert len(flags) == 2500 and all(flags)
    padded = iter(pair for X, Z in by_r for pair in zip(X, Z))
    for (X, Z), (Xp, Zp) in zip(pairs, padded):
        n = len(X)
        assert Xp[:n].tobytes() == X.tobytes()
        assert Zp[:n].tobytes() == Z.tobytes()
        assert not Xp[n:].any() and not Zp[n:].any()
    exact = [np.concatenate(side) for side in zip(
        *(normcompare_sides(X, Z) for X, Z in by_shape))]
    for side, want in zip(zip(*(normcompare_sides(X, Z) for X, Z in by_r)),
                          exact):
        np.testing.assert_allclose(np.concatenate(side), want, rtol=1e-12,
                                   atol=1e-12)


def gradhessian_instance(seed):
    """One (loss, X, m_star, delta) drawn as the gradhessian sweep draws."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    r = int(rng.integers(1, min(2, n - 1) + 1))
    op, delta = calibrated_operator(n, 3 * n * n,
                                    int(rng.integers(0, 2 ** 31)))
    z = rng.standard_normal((n, r))
    m_star = z @ z.T
    loss = LinearLoss(op, op.apply(m_star))
    return loss, rng.standard_normal((n, r)), m_star, delta


def test_hessian_bound_fails_at_delta_zero():
    # delta = 0 claims an exact isometry, which the drawn operator is not,
    # so (1 + delta) Xop^T Xop under-bounds the Hessian: the smallest
    # factored Hessian eigenvalue exceeds the certificate's by 5.76.  With
    # the operator's own delta the same point passes.
    loss, X, m_star, delta = gradhessian_instance(47)
    assert delta == pytest.approx(0.5903, abs=1e-4)
    rep = verify_gradhessian(loss, X, m_star, 0.0)
    check = rep.checks["hessian_bound"]
    assert rep.passed is False and check["passed"] is False
    assert check["lhs"] - check["rhs"] == pytest.approx(5.762890523579,
                                                        rel=1e-9)
    assert rep.checks["grad_bound"]["passed"] is True
    assert verify_gradhessian(loss, X, m_star, delta).passed is True


def test_grad_bound_fails_off_the_minimizer():
    # m_star + I/2 is not the loss's minimizer, so grad f does not vanish
    # there and the transferred gradient ||Xop^T H e|| exceeds the factored
    # gradient norm by 3.15.  The true m_star passes at the same point.
    loss, X, m_star, delta = gradhessian_instance(158)
    rep = verify_gradhessian(loss, X, m_star + 0.5 * np.eye(len(X)), delta)
    check = rep.checks["grad_bound"]
    assert rep.passed is False and check["passed"] is False
    assert check["lhs"] - check["rhs"] == pytest.approx(3.148720474740,
                                                        rel=1e-9)
    assert verify_gradhessian(loss, X, m_star, delta).passed is True


def test_construction_gap_fails_the_report():
    # A construction gap is not a pass, even when every check passed.
    rep = CertificateReport(kind="pl_dual", construction_gap=True)
    rep.add_check("dual_bound", 0.1, 0.2)
    assert rep.checks["dual_bound"]["passed"] is True
    assert rep.passed is False and rep.to_dict()["passed"] is False
    rep.construction_gap = False
    assert rep.passed is True


def test_pl_dual_prerequisite_failure_is_a_construction_gap():
    # Both prerequisites hold in exact arithmetic: the least-squares
    # residual is at most ||E E^T|| <= gap^2 with E = X - Z aligned, and the
    # minimum-norm coefficient y has X^T y symmetric, so ||Xop y||^2 >=
    # 2 sigma_r(X)^2 ||y||^2.  They fail through lstsq's relative cut on
    # the singular values of Xop.  Here Z has condition 2^50 and every
    # product is exact: the cut drops the directions of X's second column,
    # so the residual is the part [[0, 8], [8, 4]] of e, 12 against
    # gap^2 = 5.  The input is in range: sigma_r = sigma_2(Z Z^T) = 16 and
    # gap = sqrt(5) <= C~ = 3 < 3.64.
    Z = np.array([[2.0 ** 52, 0.0], [0.0, 4.0], [0.0, 0.0]])
    X = Z + np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
    rep = pl_dual_bound(X, Z, 0.0, 3.0, 16.0)
    check = rep.checks["residual_prereq"]
    assert check["passed"] is False
    assert check["lhs"] == pytest.approx(12.0, rel=1e-12)
    assert check["rhs"] == pytest.approx(5.0, rel=1e-12)
    assert rep.construction_gap is True
    assert rep.passed is False
    assert rep.checks["norm_prereq"]["passed"] is True


def test_pl_dual_bound_closest_case_inside_the_prerequisites():
    # No instance fails dual_bound alone in exact arithmetic.  With both
    # prerequisites (see above) and ||e|| >= sqrt(2 (sqrt(2)-1) sigma_r) gap
    # (the normcompare bound), cos >= q1; with sigma_r(X) >= sqrt(sigma_r)
    # - gap (Weyl), 2 mu' ||y|| / ||Xop y|| <= q2; and the dual objective
    # falls as cos grows.  So dual_obj <= bound once gap <= C~.  The closest
    # case a search over n <= 4, r <= 2 found is rank one with X - Z
    # orthogonal to Z, at C~ = gap: there the norm prerequisite is tight,
    # and dual_obj / bound is 1 - gap / sqrt(sigma_r) to first order.
    # Every product here is exact.  Z = 2 e1 and X = Z + 2^-10 e2 give
    # sigma_r = 4 and gap = 2^-10.
    Z = np.array([[2.0], [0.0]])
    X = np.array([[2.0], [2.0 ** -10]])
    rep = pl_dual_bound(X, Z, 0.5, 2.0 ** -10, 4.0)
    assert rep.passed and not rep.construction_gap
    assert rep.quantities["gap"] == 2.0 ** -10
    check = rep.checks["dual_bound"]
    ratio = check["lhs"] / check["rhs"]
    assert 1.0 - 2.0 ** -10 < ratio < 1.0
    assert ratio == pytest.approx(1.0 - 2.0 ** -11, abs=1e-6)


def test_pl_dual_bound_fails_alone_at_the_rounding_scale():
    # In floating point dual_bound does fail alone, where X is within
    # rounding of Z: e = X X^T - Z Z^T (norm 1.2e-14) is then mostly
    # rounding error, the residual 2.5e-16 exceeds gap^2 = 1.4e-29, and the
    # residual prerequisite passes only by its absolute tolerance 1e-10.
    # The lower cos lifts the dual objective 1.9% over the bound.
    Z = np.array([[-0.906244587517265], [-2.0770259182698587]])
    X = Z + np.array([[-3.342760437642903e-15], [1.6248714730355469e-15]])
    sigma_r = float(Z[:, 0].dot(Z[:, 0]))
    gap = 3.774758283725532e-15
    rep = pl_dual_bound(X, Z, 0.016509348655632874, gap, sigma_r)
    assert rep.quantities["gap"] == pytest.approx(gap, rel=1e-6)
    assert rep.checks["norm_prereq"]["passed"]
    assert rep.checks["residual_prereq"]["passed"]
    assert rep.quantities["residual"] > 1e10 * gap ** 2
    assert not rep.construction_gap
    check = rep.checks["dual_bound"]
    assert not check["passed"]
    assert check["lhs"] / check["rhs"] == pytest.approx(1.019, abs=2e-3)


def test_pl_dual_empty_image_is_a_construction_gap():
    # The same Z with X = Z + [[0, 0], [0, 0], [0, 2]]: lstsq's relative
    # cut drops every direction that e, nonzero only in its lower 2-by-2
    # block [[0, 8], [8, 4]], needs, so y = 0 and ||Xop y|| = 0.  The residual 12 exceeds gap^2 = 4, and the report is
    # a construction gap, without a division by the empty image.
    Z = np.array([[2.0 ** 52, 0.0], [0.0, 4.0], [0.0, 0.0]])
    X = Z + np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        rep = pl_dual_bound(X, Z, 0.0, 3.0, 16.0)
    assert seen == []
    assert rep.construction_gap is True
    assert rep.passed is False
    assert rep.checks["residual_prereq"]["passed"] is False
    assert "dual_bound" not in rep.checks
