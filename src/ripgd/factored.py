"""Factored objectives g(X) = f(X X^T) and the lift of asymmetric problems.

The search variable is a factor X with n rows and r columns; the loss is
always evaluated on the square matrix X X^T.  Asymmetric losses on n-by-m
matrices are handled by lifting to an (n+m)-square problem with a balancing
penalty, after which the symmetric machinery applies unchanged.
"""

import numpy as np

from .losses import MatrixLoss, _check_dense, check_rank
from .rip import lift_delta


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
    """Value, gradient and N = X X^T of X -> loss(X X^T).

    N is the matrix the loss was evaluated at; the solver reuses it for the
    recovery error instead of forming X X^T a second time.
    """
    X = _check_factor(loss, X)
    N = X @ X.T
    v, W = loss.value_and_grad(N)
    return v, (W + W.T) @ X, N


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


def _block_diag(A, r):
    """I_r kron A: the product ``np.kron(np.eye(r), A)`` forms, so its bits.

    The off-diagonal blocks are 0.0 * A, with its signed zeros.
    """
    n, m = A.shape
    return (np.eye(r)[:, None, :, None] * A[:, None, :]).reshape(r * n, r * m)


def hess_matrix(loss, X):
    """Dense factored Hessian in the column-major factor basis."""
    X = _check_factor(loss, X)
    n, r = X.shape
    # The nr basis images of n^2 entries each, and the nr-square result.
    _check_dense(n * r * n * max(n, r))
    M = X @ X.T
    W = loss.grad(M)
    G = loss.hess_gram(M, _basis_images(X)) + _block_diag(W + W.T, r)
    return 0.5 * (G + G.T)


def g_hess_min_eig(loss, X):
    """Smallest eigenvalue of the factored Hessian at X."""
    return float(np.linalg.eigvalsh(hess_matrix(loss, X))[0])


class LiftedLoss(MatrixLoss):
    """Square loss on (n+m)-blocks that embeds an asymmetric loss.

    The inner loss f has isometry constant ``delta``, which fixes the
    balancing weight phi = (1 - delta)/2, the scale 4/(1 + delta) and the
    lift's own constant ``self.delta = rip.lift_delta(delta)``.  For
    N = [[N11, N12], [N21, N22]] the value is scale times
    (f(N12) + f(N21^T)) / 2 + phi/4 * (||N11||^2 + ||N22||^2
    - ||N12||^2 - ||N21||^2), so minimizing over N = X X^T with
    X = [U; V] recovers the asymmetric problem with balanced factors.

    The balancing gradient is B = phi/2 * S * N, where the sign matrix S is
    +1 on the diagonal blocks and -1 off them; the balancing value is
    <N, B> / 2, one signed sum over the whole matrix, which rounds
    differently from four block sums only in the last bits.  The inner
    gradients are added to the off-diagonal blocks of B, which gives the
    same bits as g/2 - phi/2 * N12 because a + (-b) rounds exactly as
    a - b does.

    When N12 and N21^T hold the same bits, as they do for every N = X X^T,
    the inner loss is evaluated once, on N12, and that result stands in for
    N21^T.  Identical inputs give identical outputs, so the value and
    gradient are the same bits as with two evaluations.  The scale
    multiplies each result last.
    """

    def __init__(self, inner, delta):
        self.delta = lift_delta(delta)
        self.phi = 0.5 * (1.0 - delta)
        self.scale = 4.0 / (1.0 + delta)
        self.inner = inner
        self.split = k = inner.n
        self.n = inner.n + inner.m
        self.m = self.n
        self.constant_hessian = inner.constant_hessian
        self._sign = np.ones((self.n, self.n))
        self._sign[:k, k:] = self._sign[k:, :k] = -1.0
        self._half_phi_sign = 0.5 * self.phi * self._sign

    def _add_inner(self, B, g12, g21):
        """Add the inner gradients at N12 and N21^T to the balancing part B."""
        k = self.split
        top, bottom = B[:k, k:], B[k:, :k]
        top += 0.5 * g12
        bottom += 0.5 * g21.T
        return B

    def value(self, M):
        return self.value_and_grad(M)[0]

    def grad(self, M):
        # Not via value_and_grad: estimate_rho1 calls only the gradient and
        # would discard the inner values and the balancing sum.
        M = self._check(M)
        k = self.split
        b12, b21 = M[:k, k:], M[k:, :k]
        g12 = self.inner.grad(b12)
        same = b12.tobytes() == b21.T.tobytes()
        g21 = g12 if same else self.inner.grad(b21.T)
        return self.scale * self._add_inner(self._half_phi_sign * M, g12, g21)

    def value_and_grad(self, M):
        M = self._check(M)
        k = self.split
        b12, b21 = M[:k, k:], M[k:, :k]
        v12, g12 = self.inner.value_and_grad(b12)
        if b12.tobytes() == b21.T.tobytes():
            v21, g21 = v12, g12
        else:
            v21, g21 = self.inner.value_and_grad(b21.T)
        B = self._half_phi_sign * M
        val = 0.5 * (v12 + v21) + 0.5 * np.vdot(M, B)
        return (self.scale * float(val),
                self.scale * self._add_inner(B, g12, g21))

    def hess_gram(self, M, dirs):
        M = self._check(M)
        dirs = np.asarray(dirs, dtype=float)
        k = self.split
        quad = (self.inner.hess_gram(M[:k, k:], dirs[:, :k, k:])
                + self.inner.hess_gram(M[k:, :k].T,
                                       dirs[:, k:, :k].transpose(0, 2, 1)))
        # The balancing term is +phi/2 on the diagonal blocks, -phi/2 off them.
        flat = dirs.reshape(len(dirs), -1)
        return self.scale * (
            0.5 * quad
            + 0.5 * self.phi * ((flat * self._sign.reshape(-1)) @ flat.T))


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
