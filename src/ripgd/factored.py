"""Factored objectives g(X) = f(X X^T) and the lift of asymmetric problems.

The search variable is a factor X with n rows and r columns; the loss is
always evaluated on the square matrix X X^T.  Asymmetric losses on n-by-m
matrices are handled by lifting to an (n+m)-square problem with a balancing
penalty, after which the symmetric machinery applies unchanged.
"""

import numpy as np

from .losses import MatrixLoss, check_rank

# Largest side of a dense matrix assembled over the factor or matrix space:
# nr for the factored Hessian, n^2 for the linearization operator.
DENSE_LIMIT = 4000


def _check_factor(loss, X):
    X = np.asarray(X, dtype=float)
    if loss.n != loss.m:
        raise ValueError("factored objectives need a square loss")
    if X.ndim != 2 or X.shape[0] != loss.n:
        raise ValueError("factor must have %d rows" % loss.n)
    return X


def g_grad(loss, X):
    """Gradient of X -> loss(X X^T), namely (W + W^T) X with W = grad loss."""
    X = _check_factor(loss, X)
    W = loss.grad(X @ X.T)
    return (W + W.T) @ X


def g_value_and_grad(loss, X):
    X = _check_factor(loss, X)
    v, W = loss.value_and_grad(X @ X.T)
    return v, (W + W.T) @ X


def _basis_images(X):
    """Matrices X e_j^T + e_j X^T for the canonical factor basis.

    Basis index j enumerates factor entries column-major, so j = c*n + a
    points at row a, column c.
    """
    n, r = X.shape
    out = np.zeros((n * r, n, n))
    for c in range(r):
        col = X[:, c]
        for a in range(n):
            j = c * n + a
            out[j, a, :] += col
            out[j, :, a] += col
    return out


def hess_matrix(loss, X, dense_limit=DENSE_LIMIT):
    """Dense factored Hessian in the column-major factor basis."""
    X = _check_factor(loss, X)
    n, r = X.shape
    d = n * r
    if d > dense_limit:
        raise ValueError("factor dimension %d exceeds the dense limit %d"
                         % (d, dense_limit))
    M = X @ X.T
    W = loss.grad(M)
    G = loss.hess_gram(M, _basis_images(X)) + np.kron(np.eye(r), W + W.T)
    return 0.5 * (G + G.T)


def g_hess_min_eig(loss, X, dense_limit=DENSE_LIMIT):
    """Smallest eigenvalue of the factored Hessian at X."""
    return float(np.linalg.eigvalsh(hess_matrix(loss, X, dense_limit))[0])


class LiftedLoss(MatrixLoss):
    """Square loss on (n+m)-blocks that embeds an asymmetric loss.

    For N = [[N11, N12], [N21, N22]] the value is
    (f(N12) + f(N21^T)) / 2 + phi/4 * (||N11||^2 + ||N22||^2
    - ||N12||^2 - ||N21||^2), so minimizing over N = X X^T with
    X = [U; V] recovers the asymmetric problem with balanced factors.

    When N12 equals N21^T exactly, as it does for every N = X X^T, the inner
    loss is evaluated once, on N12, and that result stands in for N21^T.
    Equal inputs give equal outputs, so the value and gradient are the same
    bits as with two evaluations.
    """

    def __init__(self, inner, phi):
        if not phi > 0:
            raise ValueError("balancing weight phi must be positive")
        self.inner = inner
        self.phi = float(phi)
        self.split = inner.n
        self.n = inner.n + inner.m
        self.m = self.n
        self.constant_hessian = inner.constant_hessian

    def _blocks(self, M):
        k = self.split
        return M[:k, :k], M[:k, k:], M[k:, :k], M[k:, k:]

    def _assemble_grad(self, M, g12, g21):
        """Lifted gradient from the inner gradients at N12 and N21^T.

        The balancing part is phi/2 * M with the off-diagonal blocks negated.
        """
        k = self.split
        G = 0.5 * self.phi * M
        G[:k, k:] = 0.5 * g12 - G[:k, k:]
        G[k:, :k] = 0.5 * g21.T - G[k:, :k]
        return G

    def value(self, M):
        return self.value_and_grad(M)[0]

    def grad(self, M):
        # Not via value_and_grad: the block sums of the value would add a
        # quarter to estimate_rho1, which calls only the gradient.
        M = self._check(M)
        _, b12, b21, _ = self._blocks(M)
        g12 = self.inner.grad(b12)
        g21 = g12 if (b12 == b21.T).all() else self.inner.grad(b21.T)
        return self._assemble_grad(M, g12, g21)

    def value_and_grad(self, M):
        M = self._check(M)
        b11, b12, b21, b22 = self._blocks(M)
        v12, g12 = self.inner.value_and_grad(b12)
        if (b12 == b21.T).all():
            v21, g21 = v12, g12
        else:
            v21, g21 = self.inner.value_and_grad(b21.T)
        bal = (
            np.sum(b11 * b11) + np.sum(b22 * b22)
            - np.sum(b12 * b12) - np.sum(b21 * b21)
        )
        val = 0.5 * (v12 + v21) + 0.25 * self.phi * bal
        return float(val), self._assemble_grad(M, g12, g21)

    def hess_gram(self, M, dirs):
        M = self._check(M)
        dirs = np.asarray(dirs, dtype=float)
        k = self.split
        _, m12, m21, _ = self._blocks(M)
        quad = (self.inner.hess_gram(m12, dirs[:, :k, k:])
                + self.inner.hess_gram(m21.T, dirs[:, k:, :k].transpose(0, 2, 1)))
        # The balancing term is +phi/2 on the diagonal blocks, -phi/2 off them.
        sign = np.ones((self.n, self.n))
        sign[:k, k:] = sign[k:, :k] = -1.0
        flat = dirs.reshape(len(dirs), -1)
        return 0.5 * quad + 0.5 * self.phi * ((flat * sign.reshape(-1)) @ flat.T)


def balance_and_augment(m_star, r):
    """Balanced factors of a rank-r target and the lifted ground truth.

    Returns (u_star, v_star, m_tilde) where m_star = u_star @ v_star.T with
    u_star^T u_star = v_star^T v_star, and m_tilde is the square matrix
    [u_star; v_star] [u_star; v_star]^T.  Its Frobenius norm is twice that
    of m_star and its r-th singular value twice sigma_r(m_star).
    """
    m_star = np.asarray(m_star, dtype=float)
    if m_star.ndim != 2:
        raise ValueError("m_star must be a matrix")
    P, sv, Qt = np.linalg.svd(m_star, full_matrices=False)
    check_rank(sv, r)
    root = np.sqrt(sv[:r])
    u_star = P[:, :r] * root
    v_star = Qt[:r].T * root
    stack = np.vstack([u_star, v_star])
    return u_star, v_star, stack @ stack.T
