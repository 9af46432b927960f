"""Factored objectives g(X) = f(X X^T) and the lift of asymmetric problems.

The search variable is a factor X with n rows and r columns; the loss is
always evaluated on the square matrix X X^T.  Asymmetric losses on n-by-m
matrices are handled by lifting to an (n+m)-square problem with a balancing
penalty, after which the symmetric machinery applies unchanged.
"""

import numpy as np

from .losses import MatrixLoss, _check_dense, check_rank
from .rip import lift_delta

# The pad of LiftedLoss's inner gradient: x + (-0.0) is x, bit for bit.
_NEG_ZERO = np.array([-0.0])


def _check_factor(loss, X):
    X = np.asarray(X, dtype=float)
    if loss.n != loss.m:
        raise ValueError("factored objectives need a square loss")
    if X.ndim != 2 or X.shape[0] != loss.n:
        raise ValueError("factor must have %d rows" % loss.n)
    return X


def _factor_grad(loss, W, X):
    """(W + W^T) X, as 2 W X when the loss declares W symmetric.

    X X^T is bit-symmetric, so such a W is too; W + W^T is then exactly 2W,
    and doubling is exact, so both forms give the same bits.
    """
    if loss.symmetric_grad:
        G = W.dot(X)
        G *= 2.0
        return G
    return (W + W.T).dot(X)


def g_grad(loss, X):
    """Gradient of X -> loss(X X^T), namely (W + W^T) X with W = grad loss."""
    X = _check_factor(loss, X)
    return _factor_grad(loss, loss.grad(X.dot(X.T)), X)


def g_value_and_grad(loss, X):
    """Value, gradient and N = X X^T of X -> loss(X X^T).

    N is the matrix the loss was evaluated at; the solver reuses it for the
    recovery error instead of forming X X^T a second time.  ``X.dot(X.T)``
    gives the bits of ``X @ X.T``, bit-symmetric, but reaches BLAS where the
    matmul ufunc does not (r = 1).
    """
    X = _check_factor(loss, X)
    N = X.dot(X.T)
    v, W = loss.value_and_grad(N)
    return v, _factor_grad(loss, W, X), N


def _basis_images(X):
    """Matrices X e_j^T + e_j X^T for the canonical factor basis.

    Basis index j enumerates factor entries column-major, so j = c*n + a
    points at row a, column c.
    """
    n, r = X.shape
    out = np.zeros((r, n, n, n))
    # Row a, then column a, of image (c, a) gets column c of X, through two
    # diagonal views: the adds of a loop over (c, a), in its order and onto
    # +0.0, so the same bits and signed zeros, and no second r n^3 array.
    np.einsum("caab->cab", out)[...] += X.T[:, None, :]
    np.einsum("caba->cab", out)[...] += X.T[:, None, :]
    return out.reshape(n * r, n, n)


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
    M = X.dot(X.T)
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
    lift's own constant ``self.delta = rip.lift_delta(delta)``.  The lift
    is evaluated only at symmetric N = [[N11, N12], [N12^T, N22]], as every
    N = X X^T is; there its value is scale times f(N12) + phi/4 *
    (||N11||^2 + ||N22||^2 - 2 ||N12||^2), so minimizing over N = X X^T
    with X = [U; V] recovers the asymmetric problem with balanced factors.
    Each method calls the inner loss once, at N12.  Each takes symmetric N
    only, and ``hess_gram`` symmetric directions only; neither is checked.

    The balancing gradient is B = phi/2 * S * N, where the sign matrix S is
    +1 on the diagonal blocks and -1 off them; the balancing value is
    <N, B> / 2, one signed sum over the whole matrix, which rounds
    differently from four block sums only in the last bits.  The inner
    gradient g at N12 enters as one add of the padded matrix
    [[-0.0, g/2], [g/2^T, -0.0]] to B: off the diagonal blocks that gives
    the bits of g/2 - phi/2 * N12, as a + (-b) rounds exactly as a - b
    does, and on them x + (-0.0) is x, signed zeros included (+0.0 would
    turn -0.0 into +0.0).  The scale multiplies B last, in place.  At a
    bit-symmetric M the balancing part is symmetric, so the gradient is
    bit-symmetric whatever the inner loss: ``symmetric_grad`` holds.
    """

    symmetric_grad = True

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
        # Gathers the padded matrix from the flat inner gradient followed by
        # one -0.0, at index k*m: g on the top-right block, g^T below.
        top = np.arange(k * inner.m).reshape(k, inner.m)
        self._pad = np.full((self.n, self.n), top.size)
        self._pad[:k, k:], self._pad[k:, :k] = top, top.T

    def _gradient(self, B, g12):
        """scale * (B + [[-0.0, g/2], [g/2^T, -0.0]]), in the fresh B."""
        P = np.concatenate((g12.reshape(-1), _NEG_ZERO)).take(self._pad)
        # Halving keeps the -0.0, and 0.5 * g^T is (0.5 g)^T.
        P *= 0.5
        B += P
        B *= self.scale
        return B

    def value(self, M):
        return self.value_and_grad(M)[0]

    def grad(self, M):
        # Not via value_and_grad: estimate_rho1 calls only the gradient and
        # would discard the inner value and the balancing sum.
        M = self._check(M)
        g12 = self.inner.grad(M[:self.split, self.split:])
        return self._gradient(self._half_phi_sign * M, g12)

    def value_and_grad(self, M):
        M = self._check(M)
        v12, g12 = self.inner.value_and_grad(M[:self.split, self.split:])
        B = self._half_phi_sign * M
        # At symmetric M, (f(N12) + f(N21^T)) / 2 is exactly f(N12).
        val = v12 + 0.5 * np.vdot(M, B)
        return self.scale * float(val), self._gradient(B, g12)

    def hess_gram(self, M, dirs):
        M = self._check(M)
        dirs = np.asarray(dirs, dtype=float)
        k = self.split
        quad = self.inner.hess_gram(M[:k, k:], dirs[:, :k, k:])
        # The balancing term is +phi/2 on the diagonal blocks, -phi/2 off them.
        flat = dirs.reshape(len(dirs), -1)
        return self.scale * (
            quad + 0.5 * self.phi * ((flat * self._sign.reshape(-1)) @ flat.T))


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
    return u_star, v_star, stack.dot(stack.T)
