"""Loss functions for low-rank matrix recovery.

Two concrete losses are provided: the quadratic loss induced by a linear
sensing operator (``LinearLoss``) and the negative log-likelihood of 1-bit
observations (``OneBitLoss``).  Both expose value, gradient and the Gram
matrix of the Hessian over a stack of directions, which is all the rest of
the package needs from a loss: the dense Hessians in ``factored`` and
``certify`` are built from that Gram.
"""

import math

import numpy as np

# Relative rank cut: a singular value counts when it exceeds
# RANK_TOL * max(1, sigma_1), so exact low rank survives any scale.
RANK_TOL = 1e-10

# Most entries of one dense array built over the factor or matrix space,
# or of one sensing-matrix stack, 128 MB of float64; larger arrays are
# refused before they are allocated.
DENSE_LIMIT = 4000 * 4000

# Random pairs drawn by estimate_rho1.
RHO1_SAMPLES = 200


def _check_dense(entries):
    """Refuse to build a dense array of more than DENSE_LIMIT entries."""
    if entries > DENSE_LIMIT:
        raise ValueError("%d entries exceed the dense limit %d"
                         % (entries, DENSE_LIMIT))


def _norm(a):
    """Frobenius norm, bit-equal to ``np.linalg.norm(a)`` for real ``a``.

    numpy's own ``ord=None`` arithmetic, without the wrapper's overhead.
    """
    a = a.ravel(order="K")
    return math.sqrt(a.dot(a))


class LinearOperator:
    """Linear sensing map M -> scale * (<A_1, M>, ..., <A_p, M>)."""

    def __init__(self, matrices, scale=1.0):
        # C order makes the flat row view below share memory with matrices.
        matrices = np.ascontiguousarray(matrices, dtype=float)
        if matrices.ndim != 3:
            raise ValueError("expected a (p, n, m) stack of sensing matrices")
        if matrices.shape[0] < 1:
            raise ValueError("need at least one sensing matrix")
        if not np.isfinite(matrices).all():
            raise ValueError("sensing matrices must be finite")
        if not scale > 0:
            raise ValueError("operator scale must be positive")
        self.matrices = matrices
        self.scale = float(scale)
        # (p, n*m) view: apply and adjoint are single matrix-vector products.
        self._rows = matrices.reshape(matrices.shape[0], -1)

    @property
    def p(self):
        return self.matrices.shape[0]

    @property
    def n(self):
        return self.matrices.shape[1]

    @property
    def m(self):
        return self.matrices.shape[2]

    def _check_arg(self, M):
        M = np.asarray(M, dtype=float)
        if M.shape != (self.n, self.m):
            raise ValueError(
                "argument shape %s does not match operator shape (%d, %d)"
                % (M.shape, self.n, self.m)
            )
        return M

    def apply(self, M):
        M = self._check_arg(M)
        return self.scale * (self._rows @ M.reshape(-1))

    def apply_batch(self, Ms):
        """Apply the operator to a stack of matrices, (k, n, m) -> (k, p)."""
        Ms = np.asarray(Ms, dtype=float)
        if Ms.ndim != 3 or Ms.shape[1:] != (self.n, self.m):
            raise ValueError("expected a (k, %d, %d) stack" % (self.n, self.m))
        # One GEMM on the flat row view; tensordot would also copy the
        # sensing stack, transposed, on every call.
        flat = Ms.reshape(len(Ms), self._rows.shape[1])
        return self.scale * (flat @ self._rows.T)

    def adjoint(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.p,):
            raise ValueError("adjoint argument must be a length-%d vector" % self.p)
        return self.scale * (v @ self._rows).reshape(self.n, self.m)

    def with_scale(self, scale):
        """Copy of this operator with the scale replaced."""
        return LinearOperator(self.matrices, scale=scale)


def make_gaussian_operator(n, m, p, seed):
    """Sensing operator with p iid standard normal n-by-m matrices, scale 1."""
    if min(n, m, p) < 1:
        raise ValueError("n, m, p must be positive")
    _check_dense(p * n * m)
    rng = np.random.default_rng(seed)
    return LinearOperator(rng.standard_normal((p, n, m)), scale=1.0)


class MatrixLoss:
    """Interface for a smooth loss on n-by-m matrices.

    Subclasses implement ``value``, ``grad`` and ``hess_gram(M, dirs)``, the
    Gram matrix [<dirs[i], H(M) dirs[j]>] of the Hessian H(M) over a
    (k, n, m) stack of directions.  ``value_and_grad`` may be overridden when
    a loss can share the work.  ``constant_hessian`` is true when the Hessian
    does not depend on the base point M.
    """

    constant_hessian = False
    n = None
    m = None

    def _check(self, M):
        M = np.asarray(M, dtype=float)
        if M.shape != (self.n, self.m):
            raise ValueError(
                "argument shape %s does not match loss shape (%d, %d)"
                % (M.shape, self.n, self.m)
            )
        return M

    def value(self, M):
        raise NotImplementedError

    def grad(self, M):
        raise NotImplementedError

    def hess_gram(self, M, dirs):
        raise NotImplementedError

    def value_and_grad(self, M):
        return self.value(M), self.grad(M)


class LinearLoss(MatrixLoss):
    """Quadratic measurement loss 0.5 * ||op(M) - d||^2."""

    constant_hessian = True

    def __init__(self, operator, d):
        d = np.asarray(d, dtype=float)
        if d.shape != (operator.p,):
            raise ValueError("d must be a length-%d vector" % operator.p)
        self.operator = operator
        self.d = d
        self.n = operator.n
        self.m = operator.m

    def value(self, M):
        res = self.operator.apply(self._check(M)) - self.d
        return 0.5 * float(res @ res)

    def grad(self, M):
        res = self.operator.apply(self._check(M)) - self.d
        return self.operator.adjoint(res)

    def value_and_grad(self, M):
        res = self.operator.apply(self._check(M)) - self.d
        return 0.5 * float(res @ res), self.operator.adjoint(res)

    def hess_gram(self, M, dirs):
        B = self.operator.apply_batch(dirs)
        return B @ B.T


class OneBitLoss(MatrixLoss):
    """Negative log-likelihood of 1-bit observations with success rates y.

    value(M) = scale * sum_ij (log(1 + exp(M_ij)) - y_ij * M_ij).
    """

    def __init__(self, y, scale=1.0):
        y = np.asarray(y, dtype=float)
        if y.ndim != 2 or y.shape[0] != y.shape[1]:
            raise ValueError("y must be a square matrix")
        if np.min(y) < 0 or np.max(y) > 1:
            raise ValueError("entries of y must lie in [0, 1]")
        if not scale > 0:
            raise ValueError("loss scale must be positive")
        # Imported here, not at module level: scipy.special is most of the
        # package's import time and only the 1-bit loss needs it.
        from scipy.special import expit
        self._expit = expit
        self.y = y
        self.scale = float(scale)
        self.n = y.shape[0]
        self.m = y.shape[1]

    def value(self, M):
        M = self._check(M)
        # logaddexp keeps log(1 + exp(M)) finite for large |M|.
        return self.scale * float((np.logaddexp(0.0, M) - self.y * M).sum())

    def grad(self, M):
        M = self._check(M)
        return self.scale * (self._expit(M) - self.y)

    def hess_gram(self, M, dirs):
        s = self._expit(self._check(M))
        w = self.scale * s * (1.0 - s)
        flat = np.asarray(dirs, dtype=float).reshape(len(dirs), -1)
        return (flat * w.reshape(-1)) @ flat.T


def make_onebit_loss(m_hat, scale=6.0):
    """1-bit loss whose observation rates come from a planted matrix.

    The success probabilities are y = sigmoid(m_hat), which makes m_hat the
    unique unconstrained minimizer.  The default scale 6 puts the Hessian
    weights 6 * sigmoid'(m) in (1/2, 3/2] whenever |m| <= 2.29, matching a
    restricted isometry constant of one half on that region.
    """
    from scipy.special import expit
    m_hat = np.asarray(m_hat, dtype=float)
    if m_hat.ndim != 2 or m_hat.shape[0] != m_hat.shape[1]:
        raise ValueError("m_hat must be a square matrix")
    return OneBitLoss(expit(m_hat), scale=scale)


def onebit_rho2(scale):
    """Lipschitz constant of the 1-bit Hessian: scale * max |sigmoid''|."""
    return scale / (6.0 * np.sqrt(3.0))


def _significant(sv):
    """Mask of the descending singular values sv that count toward the rank."""
    return sv > RANK_TOL * max(1.0, sv[0] if len(sv) else 1.0)


def check_rank(sv, r):
    """Raise unless the descending singular values sv have numerical rank r."""
    if r < 1 or r > len(sv):
        raise ValueError("rank out of range")
    kept = _significant(sv)
    if not kept[r - 1]:
        raise ValueError("m_star is numerically rank deficient for rank %d" % r)
    if r < len(sv) and kept[r]:
        raise ValueError("m_star has numerical rank above %d" % r)


def estimate_rho1(loss, r, delta, *, seed=0):
    """Empirical gradient Lipschitz constant over random rank-r pairs.

    Takes 1.5 times the largest observed ratio ||grad f(M) - grad f(M')|| /
    ||M - M'|| over RHO1_SAMPLES random pairs M = X X^T of a square loss,
    floored at 1 + 2*delta.
    """
    if loss.n != loss.m:
        raise ValueError("estimate_rho1 needs a square loss")
    if r < 1:
        raise ValueError("rank must be positive")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(RHO1_SAMPLES):
        a = rng.standard_normal((loss.n, r))
        b = rng.standard_normal((loss.n, r))
        ma, mb = a @ a.T, b @ b.T
        gap = np.linalg.norm(ma - mb)
        if gap < 1e-12:
            continue
        ratio = np.linalg.norm(loss.grad(ma) - loss.grad(mb)) / gap
        worst = max(worst, ratio)
    return max(1.5 * worst, 1.0 + 2.0 * delta)


class RecoveryProblem:
    """A rank-constrained recovery instance.

    Bundles the loss, the ground truth ``m_star`` with target rank ``r``,
    the restricted isometry constant ``delta`` of the (scaled) loss, the
    gradient Lipschitz constant ``rho1``, the Hessian Lipschitz constant
    ``rho2`` and the prior norm bound ``bound_d`` with
    ||m_star||_F <= bound_d.
    """

    def __init__(self, loss, m_star, r, delta, rho1, rho2, bound_d):
        m_star = np.asarray(m_star, dtype=float)
        if m_star.shape != (loss.n, loss.m):
            raise ValueError("m_star shape does not match the loss")
        if not 0 <= delta < 1:
            raise ValueError("delta must lie in [0, 1)")
        if rho1 < 1.0 + 2.0 * delta - 1e-12:
            raise ValueError("rho1 must be at least 1 + 2*delta")
        if rho2 < 0:
            raise ValueError("rho2 must be nonnegative")
        sv = np.linalg.svd(m_star, compute_uv=False)
        check_rank(sv, r)
        norm = np.linalg.norm(m_star)
        if norm > bound_d * (1 + 1e-12):
            raise ValueError("bound_d must dominate ||m_star||_F")
        self.loss = loss
        self.m_star = m_star
        self.r = int(r)
        self.delta = float(delta)
        self.rho1 = float(rho1)
        self.rho2 = float(rho2)
        self.bound_d = float(bound_d)
        self.sigma_r = float(sv[r - 1])
        self.m_star_norm = float(norm)

    @property
    def n(self):
        return self.m_star.shape[0]

