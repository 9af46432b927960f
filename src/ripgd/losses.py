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


def _aligned_empty(shape):
    """Uninitialized float64 array in C order starting on a 64-byte boundary.

    The sensing stacks are allocated here.  OpenBLAS's GEMV gives the same
    bits at any alignment, but on a stack that starts 16 bytes past a cache
    line it takes 1.3 to 1.6 times as long (120 x 820 packed fig1a stack,
    2-vCPU AVX-512 Xeon, one thread), and where the heap puts a fresh array
    depends on everything allocated before it, so the speed of a solve
    would vary from process to process.
    """
    size = math.prod(shape)
    buf = np.empty(size + 8)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start:start + size].reshape(shape)


def _norm(a):
    """Frobenius norm, bit-equal to ``np.linalg.norm(a)`` for real ``a``.

    numpy's own ``ord=None`` arithmetic, without the wrapper's overhead.
    """
    a = a.ravel(order="K")
    return math.sqrt(a.dot(a))


class LinearOperator:
    """Linear sensing map M -> scale * (<A_1, M>, ..., <A_p, M>).

    ``symmetrized`` gives the map of S_i = (A_i + A_i^T)/2 on symmetric M
    only, unchecked; it equals this one there and stores half the stack.
    """

    def __init__(self, matrices, scale=1.0):
        # C order makes the flat row view below share memory with matrices.
        matrices = np.ascontiguousarray(matrices, dtype=float)
        if matrices.ndim != 3:
            raise ValueError("expected a (p, n, m) stack of sensing matrices")
        if matrices.shape[0] < 1:
            raise ValueError("need at least one sensing matrix")
        if not np.isfinite(matrices).all():
            raise ValueError("sensing matrices must be finite")
        if not 0 < scale < math.inf:
            raise ValueError("operator scale must be positive and finite, "
                             "got %r" % (scale,))
        self.matrices = matrices
        self.p, self.n, self.m = matrices.shape
        self.scale = float(scale)
        # (p, n*m) view: apply and adjoint are single matrix-vector products.
        # They call ndarray.dot, which reaches the same BLAS routine as `@`
        # without the matmul ufunc's dispatch, so the bits are the same.
        self._rows = matrices.reshape(matrices.shape[0], -1)
        # The argument shapes of apply and adjoint, compared on every call.
        self._in_shape, self._out_shape = matrices.shape[1:], matrices.shape[:1]
        # A symmetrized operator's packed (p, n(n+1)/2) stack, the indices
        # that gather its input and scatter its adjoint, and the adjoint's
        # weights; see symmetrized.
        self._packed = self._upper = None
        self._weights = self._unpack = None

    def _check_arg(self, M):
        M = np.asarray(M, dtype=float)
        if M.shape != self._in_shape:
            raise ValueError(
                "argument shape %s does not match operator shape (%d, %d)"
                % (M.shape, self.n, self.m)
            )
        return M

    def apply(self, M):
        M = self._check_arg(M)
        if self._packed is None:
            out = self._rows.dot(M.reshape(-1))
        else:
            # <S_i, M> at symmetric M is the sum over j <= k of column (j, k)
            # times M_jk.  The bits are those of half the scale times the
            # product with the upper triangle of M + M^T: there M_jk + M_kj
            # is 2 M_jk, and the doubling and the halving are exact.
            out = self._packed.dot(M.reshape(-1).take(self._upper))
        out *= self.scale
        return out

    def apply_batch(self, Ms):
        """Apply the operator to a stack of matrices, (k, n, m) -> (k, p)."""
        Ms = np.asarray(Ms, dtype=float)
        if Ms.ndim != 3 or Ms.shape[1:] != self._in_shape:
            raise ValueError("expected a (k, %d, %d) stack" % (self.n, self.m))
        # One GEMM on the flat row view, also when symmetrized: <S_i, M> =
        # <A_i, M> at symmetric M.  tensordot would also copy the sensing
        # stack, transposed, on every call.
        flat = Ms.reshape(len(Ms), self._rows.shape[1])
        return self.scale * (flat @ self._rows.T)

    def adjoint(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != self._out_shape:
            raise ValueError("adjoint argument must be a length-%d vector" % self.p)
        if self._packed is None:
            w = v.dot(self._rows)
            w *= self.scale
            return w.reshape(self._in_shape)
        # sum_i v_i S_i: its upper triangle is the packed product, halved
        # off the diagonal, and both triangles read the same entries.  The
        # weights are formed once, by symmetrized.
        w = v.dot(self._packed)
        w *= self._weights
        return w[self._unpack].reshape(self._in_shape)

    def with_scale(self, scale):
        """Copy at another scale; a symmetrized operator is symmetrized anew."""
        out = LinearOperator(self.matrices, scale=scale)
        return out if self._packed is None else out.symmetrized()

    def symmetrized(self):
        """The map of S_i = (A_i + A_i^T)/2 on symmetric n-by-n matrices.

        Its stack is packed, p by n(n+1)/2: column (j, k), j <= k, holds
        A_jk + A_kj off the diagonal and A_jj on it, so ``apply`` and
        ``adjoint`` each stream half the sensing stack and the adjoint is
        exactly symmetric.  ``apply_batch`` runs on the full rows of
        ``matrices``, which stays the drawn stack.  Every M = X X^T is
        symmetric, and there the map equals this one; the input is not
        checked, and on other M the result is not that of S_i.
        """
        n = self.n
        if self.m != n:
            raise ValueError("a symmetrized operator needs square matrices")
        j, k = np.triu_indices(n)
        diag = j == k
        out = LinearOperator(self.matrices, scale=self.scale)
        out._upper = j * n + k
        A = self.matrices
        # One sum over the stack, then one gather of its columns, is several
        # times faster than gathering both triangles, and keeps the stack in
        # C order: the GEMV kernel, and so the bits, depend on the order.
        # A_jj + A_jj halved is A_jj exactly.
        out._packed = np.take((A + A.transpose(0, 2, 1)).reshape(self.p, -1),
                              out._upper, axis=1,
                              out=_aligned_empty((self.p, len(j))))
        out._packed[:, diag] *= 0.5
        # scale * 0.5 is exactly 0.5 * scale.
        out._weights = np.where(diag, out.scale, 0.5 * out.scale)
        unpack = np.empty((n, n), dtype=np.intp)
        unpack[j, k] = unpack[k, j] = np.arange(len(j))
        out._unpack = unpack.reshape(-1)
        return out


def make_gaussian_operator(n, m, p, seed):
    """Sensing operator with p iid standard normal n-by-m matrices, scale 1."""
    if min(n, m, p) < 1:
        raise ValueError("n, m, p must be positive")
    _check_dense(p * n * m)
    rng = np.random.default_rng(seed)
    return LinearOperator(
        rng.standard_normal(out=_aligned_empty((p, n, m))), scale=1.0)


class MatrixLoss:
    """Interface for a smooth loss on n-by-m matrices.

    Subclasses implement the unchecked ``_value(M)`` and ``_grad(M)``, which
    take a float array of the loss's shape, and ``hess_gram(M, dirs)``, the
    Gram matrix [<dirs[i], H(M) dirs[j]>] of the Hessian H(M) over a
    (k, n, m) stack of directions.  The public ``value``, ``grad`` and
    ``value_and_grad`` check the argument's shape, once per call, and then
    call the unchecked forms.  A loss that checks the shape on its own path
    or shares work between value and gradient overrides the public methods
    instead, and checks there.  ``constant_hessian`` is true when the Hessian
    does not depend on the base point M.  ``symmetric_grad`` is true when
    ``grad(M)`` is bit-symmetric at every bit-symmetric M; the constructor
    decides it, and ``factored`` then forms (W + W^T) X as 2 W X, which
    gives the same bits.
    """

    constant_hessian = False
    symmetric_grad = False
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

    def _value(self, M):
        raise NotImplementedError

    def _grad(self, M):
        raise NotImplementedError

    def hess_gram(self, M, dirs):
        raise NotImplementedError

    def value(self, M):
        return self._value(self._check(M))

    def grad(self, M):
        return self._grad(self._check(M))

    def value_and_grad(self, M):
        M = self._check(M)
        return self._value(M), self._grad(M)


class LinearLoss(MatrixLoss):
    """Quadratic measurement loss 0.5 * ||op(M) - d||^2.

    The operator checks the argument's shape, so the loss does not.  A
    symmetrized operator's adjoint writes one value to both triangles, so
    its gradient is symmetric; a drawn operator's is not.
    """

    constant_hessian = True

    def __init__(self, operator, d):
        d = np.asarray(d, dtype=float)
        if d.shape != (operator.p,):
            raise ValueError("d must be a length-%d vector" % operator.p)
        if not np.isfinite(d).all():
            raise ValueError("d must be finite")
        self.operator = operator
        self.d = d
        self.n = operator.n
        self.m = operator.m
        self.symmetric_grad = operator._packed is not None

    def value(self, M):
        res = self.operator.apply(M) - self.d
        return 0.5 * float(res.dot(res))

    def grad(self, M):
        return self.operator.adjoint(self.operator.apply(M) - self.d)

    def value_and_grad(self, M):
        res = self.operator.apply(M)
        res -= self.d
        return 0.5 * float(res.dot(res)), self.operator.adjoint(res)

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
        # Written so that a NaN entry fails: its min and max compare false.
        if not (np.min(y) >= 0 and np.max(y) <= 1):
            raise ValueError("entries of y must lie in [0, 1]")
        if not 0 < scale < math.inf:
            raise ValueError("loss scale must be positive and finite, got %r"
                             % (scale,))
        # Imported here, not at module level: scipy.special is most of the
        # package's import time and only the 1-bit loss needs it.
        from scipy.special import expit
        self._expit = expit
        self.y = y
        self.scale = float(scale)
        # The scalar operands of each evaluation as float64 0-d arrays, made
        # once: numpy converts a Python float operand on every call, about
        # 0.2 us at 10 x 10, and the 0-d array gives the same bits.
        self._zero = np.zeros(())
        self._scale = np.array(self.scale)
        self.n = y.shape[0]
        self.m = y.shape[1]
        # expit(M) - y at a symmetric M: entries of y that compare equal
        # differ at most in the sign of a zero, which the subtraction drops.
        self.symmetric_grad = bool(np.array_equal(y, y.T))

    # Each form below reuses its first temporary in place: the operations
    # and operands are those of the plain expressions, so are the bits.

    def _value(self, M):
        # logaddexp keeps log(1 + exp(M)) finite for large |M|; add.reduce
        # is what ndarray.sum calls, without its Python wrapper.
        t = np.logaddexp(self._zero, M)
        t -= self.y * M
        return self.scale * float(np.add.reduce(t, axis=None))

    def _grad(self, M):
        # x * scale rounds as scale * x does.
        g = self._expit(M)
        g -= self.y
        g *= self._scale
        return g

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
    return OneBitLoss(expit(np.asarray(m_hat, dtype=float)), scale=scale)


def onebit_rho2(scale):
    """Lipschitz constant of the 1-bit Hessian: scale * max |sigmoid''|."""
    return scale / (6.0 * np.sqrt(3.0))


def _significant(sv):
    """Mask of the descending singular values that count toward the rank.

    ``sv`` is one vector or a (..., r) stack of them, each cut at its own
    largest value.
    """
    return sv > RANK_TOL * np.maximum(1.0, sv[..., :1])


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
        ma, mb = a.dot(a.T), b.dot(b.T)
        gap = _norm(ma - mb)
        if gap < 1e-12:
            continue
        ratio = _norm(loss.grad(ma) - loss.grad(mb)) / gap
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
        # Each test below is written so that NaN fails it.
        if not 1.0 + 2.0 * delta - 1e-12 <= rho1 < math.inf:
            raise ValueError("rho1 must be finite and at least 1 + 2*delta, "
                             "got %r" % (rho1,))
        if not 0 <= rho2 < math.inf:
            raise ValueError("rho2 must be nonnegative and finite, got %r"
                             % (rho2,))
        sv = np.linalg.svd(m_star, compute_uv=False)
        check_rank(sv, r)
        norm = _norm(m_star)
        if not norm <= bound_d * (1 + 1e-12) < math.inf:
            raise ValueError("bound_d must be finite and dominate "
                             "||m_star||_F, got %r" % (bound_d,))
        self.loss = loss
        self.m_star = m_star
        self.r = int(r)
        self.delta = float(delta)
        self.rho1 = float(rho1)
        self.rho2 = float(rho2)
        self.bound_d = float(bound_d)
        self.sigma_1 = float(sv[0])
        self.sigma_r = float(sv[r - 1])
        self.m_star_norm = float(norm)

    @property
    def n(self):
        return self.m_star.shape[0]

