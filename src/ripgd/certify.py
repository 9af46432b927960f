"""Numerical verification of the optimality and saddle certificates.

These routines instantiate, on concrete instances, the quantities used by
the landscape analysis: the mean-value Hessian along the segment from
X X^T to the truth, the linearization operator U -> X U^T + U X^T in its
dense matrix form, the dual objective of the stationarity relaxation near
the truth, and the two-term saddle certificate away from it.  Each check
returns a report with the raw quantities so failures can be inspected.

Vectorization is column-major throughout, so vec(A W B^T) = (B kron A) vec(W).
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .losses import (LinearLoss, _check_dense, _norm, _significant,
                     make_gaussian_operator)
from .factored import _basis_images, _block_diag, g_grad, g_hess_min_eig
from .rip import pl_radius_sym


def vec(A):
    """Stack the columns of A into one vector."""
    return np.asarray(A, dtype=float).reshape(-1, order="F")


def sym_mat(v):
    """Symmetric part of the square matrix packed column-major in v."""
    v = np.asarray(v, dtype=float)
    n = math.isqrt(v.size)
    W = v.reshape((n, n), order="F")
    return 0.5 * (W + W.T)


def x_operator(X):
    """Dense n^2-by-nr matrix of U -> X U^T + U X^T.

    Columns follow the column-major basis of the factor space, so
    column c*n + a is vec(X e_a e_c^T applied symmetrically).
    """
    X = np.asarray(X, dtype=float)
    n, r = X.shape
    _check_dense(n * r * n * n)
    # Each image is symmetric, so its row-major and column-major vecs agree.
    return _basis_images(X).reshape(n * r, n * n).T


@lru_cache(maxsize=8)
def _quadrature(quad_points):
    """Gauss-Legendre (node, weight) pairs mapped to [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)
    return tuple(zip(0.5 * (nodes + 1.0), 0.5 * weights))


def mean_hessian(loss, X, m_star, quad_points=16):
    """Gauss-Legendre average of the loss Hessian from X X^T to m_star."""
    if loss.n != loss.m:
        raise ValueError("mean Hessian needs a square loss")
    n2 = loss.n * loss.n
    # The column-major unit basis and the mean Hessian are both n^2 by n^2.
    _check_dense(n2 * n2)
    if quad_points < 1:
        raise ValueError("need at least one quadrature node")
    X = np.asarray(X, dtype=float)
    m_star = np.asarray(m_star, dtype=float)
    M0 = X @ X.T
    # Unit matrices in column-major order: basis[i] has a one at vec index i.
    basis = np.eye(n2).reshape(n2, loss.n, loss.n).transpose(0, 2, 1)
    # A constant Hessian is built once; the weighted sum over the nodes is
    # kept so H has the same rounding as with one Gram per node.
    fixed = loss.hess_gram(M0, basis) if loss.constant_hessian else None
    H = np.zeros((n2, n2))
    for t, w in _quadrature(quad_points):
        G = fixed if fixed is not None else loss.hess_gram(
            (1.0 - t) * M0 + t * m_star, basis)
        H += w * G
    return 0.5 * (H + H.T)


@dataclass
class CertificateReport:
    """Outcome of one certificate check.

    ``quantities`` holds the raw scalars, ``checks`` maps each verified
    inequality to its left side, right side and outcome.  A construction
    gap means a prerequisite of the certificate construction failed, which
    is a limitation of the construction rather than a counterexample.
    """

    kind: str
    quantities: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    construction_gap: bool = False
    special_case: bool = False

    def add_check(self, name, lhs, rhs, tol=0.0):
        self.checks[name] = {
            "lhs": float(lhs),
            "rhs": float(rhs),
            "passed": bool(lhs <= rhs + tol),
        }

    @property
    def passed(self):
        if self.construction_gap:
            return False
        return all(c["passed"] for c in self.checks.values())

    def to_dict(self):
        return {
            "kind": self.kind,
            "passed": self.passed,
            "construction_gap": self.construction_gap,
            "special_case": self.special_case,
            "quantities": {k: float(v) for k, v in self.quantities.items()},
            "checks": self.checks,
        }


def verify_gradhessian(loss, X, m_star, delta):
    """Check the mean-Hessian bounds linking matrix and factor space.

    Verifies, with e the vectorized recovery error and H the mean Hessian,
    that ||Xop^T H e|| is at most the factored gradient norm and that
    2 I_r kron sym(H e) + (1 + delta) Xop^T Xop dominates the smallest
    factored Hessian eigenvalue.
    """
    X = np.asarray(X, dtype=float)
    r = X.shape[1]
    H = mean_hessian(loss, X, m_star)
    Xop = x_operator(X)
    e = vec(X @ X.T - m_star)
    he = H @ e
    lhs_grad = _norm(Xop.T @ he)
    rhs_grad = _norm(g_grad(loss, X))
    comparison = 2.0 * _block_diag(sym_mat(he), r) + (1.0 + delta) * Xop.T @ Xop
    lam_cert = float(np.linalg.eigvalsh(comparison)[0])
    lam_hess = g_hess_min_eig(loss, X)
    report = CertificateReport(kind="gradhessian")
    report.quantities.update(
        grad_transfer=lhs_grad, grad_norm=rhs_grad,
        cert_min_eig=lam_cert, hess_min_eig=lam_hess,
    )
    report.add_check("grad_bound", lhs_grad, rhs_grad, tol=1e-8)
    report.add_check("hessian_bound", lam_hess, lam_cert, tol=1e-8)
    return report


def align(X, Z):
    """Rotate Z so that X^T Z becomes symmetric positive semidefinite."""
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    P, _, Qt = np.linalg.svd(X.T @ Z)
    return Z @ (Qt.T @ P.T)


def _require_aligned(X, Z):
    G = X.T @ Z
    scale = 1.0 + _norm(G)
    if _norm(G - G.T) > 1e-8 * scale:
        raise ValueError("X^T Z is not symmetric; align Z first")
    if np.linalg.eigvalsh(0.5 * (G + G.T))[0] < -1e-8 * scale:
        raise ValueError("X^T Z is not positive semidefinite; align Z first")


def _range_parts(X, Z):
    """The parts of Z inside and outside the range of X (float arrays)."""
    U, sv, _ = np.linalg.svd(X, full_matrices=False)
    basis = U[:, _significant(sv)]
    z_range = basis @ (basis.T @ Z)
    return z_range, Z - z_range


def normcompare_check(X, Z):
    """Factor distance bound for aligned pairs.

    Returns whether sigma_r(Z Z^T) * ||X - Z||_F^2 is at most
    ||X X^T - Z Z^T||_F^2 / (2 (sqrt(2) - 1)).
    """
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    _require_aligned(X, Z)
    r = Z.shape[1]
    sig = np.linalg.svd(Z, compute_uv=False)
    lhs = sig[r - 1] ** 2 * _norm(X - Z) ** 2
    rhs = _norm(X @ X.T - Z @ Z.T) ** 2 / (2.0 * (math.sqrt(2.0) - 1.0))
    return bool(lhs <= rhs + 1e-10)


def pl_dual_bound(X, Z, mu_prime, C_tilde, sigma_r):
    """Dual objective of the stationarity relaxation near the truth.

    Z must satisfy Z Z^T = m_star with sigma_r = sigma_r(m_star); it is
    aligned internally.  The least-squares coefficient y of the recovery
    error against the linearization operator gives the dual objective
    (1 - cos + 2 mu' ||y|| / ||Xop y||) / (1 + cos), which the certificate
    bounds by (1 - q1 + q2) / (1 + q1) with
    q1 = sqrt(1 - C~^2 / (2 (sqrt(2)-1) sigma_r)) and
    q2 = sqrt(2) mu' / (sqrt(sigma_r) - C~), provided ||X - Z|| <= C~.
    """
    X = np.asarray(X, dtype=float)
    if mu_prime < 0:
        raise ValueError("mu_prime must be nonnegative")
    if not sigma_r > 0:
        raise ValueError("sigma_r must be positive")
    limit = math.sqrt(2.0 * (math.sqrt(2.0) - 1.0) * sigma_r)
    if not 0 < C_tilde < min(limit, math.sqrt(sigma_r)):
        raise ValueError("C_tilde must lie in (0, %.6g)" % min(limit, math.sqrt(sigma_r)))
    Z = align(X, Z)
    gap = _norm(X - Z)
    if gap > C_tilde:
        raise ValueError("||X - Z||_F exceeds C_tilde")
    e = vec(X @ X.T - Z @ Z.T)
    e_norm = _norm(e)
    if e_norm <= 1e-14:
        raise ValueError("X X^T equals Z Z^T; the dual objective is undefined")
    Xop = x_operator(X)
    y = np.linalg.lstsq(Xop, e, rcond=None)[0]
    img = Xop @ y
    img_norm = _norm(img)
    y_norm = _norm(y)
    resid = _norm(e - img)
    sig_x = np.linalg.svd(X, compute_uv=False)
    sigma_r_x2 = float(sig_x[X.shape[1] - 1] ** 2)
    report = CertificateReport(kind="pl_dual")
    report.add_check("norm_prereq", 2.0 * sigma_r_x2 * y_norm ** 2,
                     img_norm ** 2, tol=1e-10)
    report.add_check("residual_prereq", resid, gap ** 2, tol=1e-10)
    if not (report.checks["norm_prereq"]["passed"]
            and report.checks["residual_prereq"]["passed"]):
        report.construction_gap = True
    cos = float(e @ img / (e_norm * img_norm))
    dual_obj = (1.0 - cos + 2.0 * mu_prime * y_norm / img_norm) / (1.0 + cos)
    q1 = math.sqrt(1.0 - C_tilde ** 2 / (2.0 * (math.sqrt(2.0) - 1.0) * sigma_r))
    q2 = math.sqrt(2.0) * mu_prime / (math.sqrt(sigma_r) - C_tilde)
    bound = (1.0 - q1 + q2) / (1.0 + q1)
    report.quantities.update(
        cos_theta=cos, dual_obj=dual_obj, q1=q1, q2=q2,
        y_norm=y_norm, image_norm=img_norm, residual=resid, gap=gap,
    )
    report.add_check("dual_bound", dual_obj, bound, tol=1e-8)
    return report


def saddle_eta0(X, Z, zeta=None, kappa=None):
    """Two-term saddle certificate level away from the truth.

    With z_perp the part of Z outside the range of X,
    alpha = ||z_perp z_perp^T|| / ||X X^T - Z Z^T|| and
    beta = sigma_r(X)^2 tr(z_perp z_perp^T) / (||X X^T - Z Z^T||
    ||z_perp z_perp^T||) determine the certificate level eta0, which is
    checked against its proven ceiling of one third.  When zeta and kappa
    are given, the stationarity slack (sqrt(r) + sqrt(2)/zeta) * kappa /
    ||e|| of an approximate critical point is recorded alongside.
    """
    X = np.asarray(X, dtype=float)
    Z = align(X, Z)
    err = X @ X.T - Z @ Z.T
    err_norm = _norm(err)
    if err_norm <= 1e-12 * max(1.0, _norm(X @ X.T)):
        raise ValueError("X X^T equals Z Z^T; no saddle certificate applies")
    r = X.shape[1]
    z_perp = _range_parts(X, Z)[1]
    pzz = z_perp @ z_perp.T
    pzz_norm = _norm(pzz)
    report = CertificateReport(kind="saddle")
    if zeta is not None and kappa is not None:
        if not zeta > 0:
            raise ValueError("zeta must be positive")
        slack = (math.sqrt(r) + math.sqrt(2.0) / zeta) * kappa / err_norm
        report.quantities["stationarity_slack"] = float(slack)
    if pzz_norm <= 1e-12 * max(1.0, err_norm):
        report.special_case = True
        report.quantities.update(alpha=0.0, beta=0.0, eta0=0.0)
        report.add_check("eta0_bound", 0.0, 1.0 / 3.0, tol=1e-8)
        return report
    sig_x = np.linalg.svd(X, compute_uv=False)
    alpha = min(1.0, pzz_norm / err_norm)
    beta = sig_x[r - 1] ** 2 * float(np.trace(pzz)) / (err_norm * pzz_norm)
    root = math.sqrt(max(0.0, 1.0 - alpha ** 2))
    if beta >= alpha / (1.0 + root):
        eta0 = (1.0 - root) / (1.0 + root)
    else:
        eta0 = beta * (alpha - beta) / (1.0 - beta * alpha)
    report.quantities.update(alpha=float(alpha), beta=float(beta), eta0=float(eta0))
    report.add_check("eta0_bound", eta0, 1.0 / 3.0, tol=1e-8)
    return report


def run_certificate_suites(seed=0, gradhessian=100, saddle=500, pl_dual=200,
                           normcompare=1000):
    """Randomized certificate sweeps; returns worst-case margins per suite.

    Dimensions stay small (n at most 6) so every check uses dense linear
    algebra.  A nonzero failure count in any suite means a certificate
    inequality was violated outside its documented prerequisites.
    """
    rng = np.random.default_rng(seed)
    results = {}

    margins = []
    failures = 0
    for _ in range(gradhessian):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, min(2, n - 1) + 1))
        p = 3 * n * n
        op = make_gaussian_operator(n, n, p, int(rng.integers(0, 2 ** 31)))
        rows = op.matrices.reshape(p, -1)
        lam = np.linalg.eigvalsh(rows.T @ rows)
        scale = math.sqrt(2.0 / (lam[-1] + lam[0]))
        delta = (lam[-1] - lam[0]) / (lam[-1] + lam[0])
        op = op.with_scale(scale)
        z = rng.standard_normal((n, r))
        m_star = z @ z.T
        loss = LinearLoss(op, op.apply(m_star))
        X = rng.standard_normal((n, r))
        rep = verify_gradhessian(loss, X, m_star, delta)
        failures += 0 if rep.passed else 1
        margins.append(min(
            rep.checks["grad_bound"]["rhs"] - rep.checks["grad_bound"]["lhs"],
            rep.checks["hessian_bound"]["rhs"] - rep.checks["hessian_bound"]["lhs"],
        ))
    results["gradhessian"] = {
        "count": gradhessian, "failures": failures,
        "min_margin": float(min(margins)) if margins else None,
    }

    worst_eta0 = 0.0
    failures = 0
    for i in range(saddle):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n))
        X = rng.standard_normal((n, r))
        while np.linalg.svd(X, compute_uv=False)[r - 1] <= 1e-3:
            X = rng.standard_normal((n, r))
        if i % 10 == 0:
            # Exercise the rank-overlap branch where Z lies in the range of X.
            Z = X @ rng.standard_normal((r, r))
        else:
            Z = rng.standard_normal((n, r))
        if _norm(X @ X.T - Z @ Z.T) <= 1e-8:
            continue
        rep = saddle_eta0(X, Z)
        failures += 0 if rep.passed else 1
        worst_eta0 = max(worst_eta0, rep.quantities["eta0"])
    results["saddle_eta0"] = {
        "count": saddle, "failures": failures, "max_eta0": worst_eta0,
        "margin_to_third": 1.0 / 3.0 - worst_eta0,
    }

    failures = 0
    gaps = 0
    margins = []
    for _ in range(pl_dual):
        n = int(rng.integers(3, 7))
        r = int(rng.integers(1, 3))
        Z = rng.standard_normal((n, r))
        while (sig_z := np.linalg.svd(Z, compute_uv=False)[r - 1]) <= 0.3:
            Z = rng.standard_normal((n, r))
        sig = sig_z ** 2
        c_tilde = 0.5 * pl_radius_sym(0.0, sig)
        E = rng.standard_normal((n, r))
        E *= rng.uniform(0.05, 0.999) * c_tilde / _norm(E)
        X = Z + E
        mu = rng.uniform(0.0, 0.3) * math.sqrt(sig)
        rep = pl_dual_bound(X, Z, mu, c_tilde, sig)
        gaps += 1 if rep.construction_gap else 0
        failures += 0 if (rep.passed or rep.construction_gap) else 1
        if not rep.construction_gap:
            margins.append(rep.checks["dual_bound"]["rhs"]
                           - rep.checks["dual_bound"]["lhs"])
    results["pl_dual"] = {
        "count": pl_dual, "failures": failures, "construction_gaps": gaps,
        "min_margin": float(min(margins)) if margins else None,
    }

    failures = 0
    for _ in range(normcompare):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n + 1))
        X = rng.standard_normal((n, r))
        Z = align(X, rng.standard_normal((n, r)))
        if not normcompare_check(X, Z):
            failures += 1
    results["normcompare"] = {"count": normcompare, "failures": failures}

    return results
