"""Gradient descent and perturbed gradient descent on factored objectives.

Both solvers run one descent loop.  ``perturbed_gd`` starts it in phase 1:
plain descent that injects a small uniform-ball perturbation whenever the
gradient is nearly stationary, escaping strict saddles, until a
perturbation fails to make progress and phase 2, plain descent, takes over.
``gradient_descent`` is phase 2 run from the start, with no perturbation
state and an optional gradient-norm stop.  All derived constants live in
``PgdParams`` and are computed by ``pgd_params`` from the problem constants
and three user choices (c, kappa, gamma).  Each run returns a ``Trace``,
whose column fields also fix the ``trace.csv`` layout.
"""

import math
from dataclasses import dataclass, asdict, field, fields

import numpy as np

from . import rip
from .factored import g_value_and_grad
from .losses import _norm


@dataclass
class PgdParams:
    """Derived constants for perturbed gradient descent.

    With R = 3*D*(1+delta)/(1-delta) the smoothness levels are
    l1 = 8*rho1*sqrt(r)*R and l2 = 4*rho1*r^(1/4)*sqrt(R) *
    (2*sqrt(r)*R*rho2/rho1 + 3).  The remaining fields follow from the
    inputs: eps_hat = min(kappa, kappa^2/l2), delta_f = 2*(1+delta)*D^2,
    chi = 3*max(log(n*r*l1*delta_f/(c*eps_hat^2*gamma)), 4), eta = c/l1,
    w = sqrt(c)*eps_hat/(chi^2*l1), g_thres = sqrt(c)*eps_hat/chi^2,
    f_thres = c*sqrt(eps_hat^3/l2)/chi^3 and
    t_thres = chi*l1/(c^2*sqrt(l2*eps_hat)).
    """

    c: float
    kappa: float
    gamma: float
    radius_r: float
    l1: float
    l2: float
    eps_hat: float
    delta_f: float
    chi: float
    eta: float
    w: float
    g_thres: float
    f_thres: float
    t_thres: float

    def to_dict(self):
        return asdict(self)


def pgd_params(problem, c, kappa, gamma):
    """Perturbed descent constants for a problem and its n-by-r factor."""
    if not (0 < c < math.inf and 0 < kappa < math.inf and 0 < gamma <= 1):
        raise ValueError("c and kappa must be positive and finite and gamma "
                         "in (0, 1]; got c=%r, kappa=%r" % (c, kappa))
    n, r = problem.n, problem.r
    delta = problem.delta
    big_r = 3.0 * problem.bound_d * (1.0 + delta) / (1.0 - delta)
    l1 = 8.0 * problem.rho1 * math.sqrt(r) * big_r
    l2 = (
        4.0 * problem.rho1 * r ** 0.25 * math.sqrt(big_r)
        * (2.0 * math.sqrt(r) * big_r * problem.rho2 / problem.rho1 + 3.0)
    )
    eps_hat = min(kappa, kappa ** 2 / l2)
    delta_f = 2.0 * (1.0 + delta) * problem.bound_d ** 2
    for name, val in (("R", big_r), ("l1", l1), ("l2", l2), ("eps_hat", eps_hat),
                      ("delta_f", delta_f)):
        if not val > 0 or not math.isfinite(val):
            raise ValueError("derived constant %s is not positive and finite" % name)
    chi = 3.0 * max(math.log(n * r * l1 * delta_f / (c * eps_hat ** 2 * gamma)), 4.0)
    eta = c / l1
    w = math.sqrt(c) * eps_hat / (chi ** 2 * l1)
    g_thres = math.sqrt(c) * eps_hat / chi ** 2
    f_thres = c * math.sqrt(eps_hat ** 3 / l2) / chi ** 3
    t_thres = chi * l1 / (c ** 2 * math.sqrt(l2 * eps_hat))
    return PgdParams(
        c=c, kappa=kappa, gamma=gamma, radius_r=big_r, l1=l1, l2=l2,
        eps_hat=eps_hat, delta_f=delta_f, chi=chi, eta=eta, w=w,
        g_thres=g_thres, f_thres=f_thres, t_thres=t_thres,
    )


def _column(dtype):
    """A trace column: one entry per row, stored as an array of ``dtype``."""
    return field(metadata={"dtype": dtype})


@dataclass
class Trace:
    """Per-iteration record of a descent run.

    Row t holds the state actually stepped from at iteration t, after any
    perturbation or revert, so the row count is the number of gradient
    steps plus one.
    """

    t: np.ndarray = _column(int)
    f: np.ndarray = _column(float)
    grad_norm: np.ndarray = _column(float)
    dist: np.ndarray = _column(float)
    in_region: np.ndarray = _column(bool)
    perturbed: np.ndarray = _column(bool)
    phase: np.ndarray = _column(int)
    eta: float = float("nan")
    x_final: np.ndarray = None
    stop_reason: str = ""

    def __len__(self):
        return len(self.t)

    @property
    def iterations(self):
        return len(self.t) - 1

    @property
    def first_in_region(self):
        hits = np.flatnonzero(self.in_region)
        return int(hits[0]) if len(hits) else None

    @property
    def phase2_start(self):
        hits = np.flatnonzero(self.phase == 2)
        return int(hits[0]) if len(hits) else None

    @property
    def phase1_complete(self):
        return bool(self.phase[-1] == 2)

    @classmethod
    def _from_columns(cls, cols, **extra):
        """Build a trace from one sequence per column, in column order."""
        return cls(**{name: np.array(col, dtype=dtype)
                      for (name, dtype), col in zip(_COLUMNS, cols)}, **extra)

    def to_csv(self, path):
        cols = [getattr(self, name).tolist() for name, _ in _COLUMNS]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(TRACE_HEADER + "\n")
            fh.writelines(_ROW_FORMAT % row for row in zip(*cols))

    # Kept for perfbench's correctness gate; no package code reads a trace.
    @classmethod
    def from_csv(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != TRACE_HEADER:
                raise ValueError("unrecognized trace header %r" % header)
            rows = []
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                row = line.strip().split(",")
                if len(row) != len(_COLUMNS):
                    raise ValueError("trace line %d has %d fields, expected %d"
                                     % (lineno, len(row), len(_COLUMNS)))
                rows.append(row)
        if not rows:
            raise ValueError("trace file has no rows")
        # Integer and bool columns parse through int: bool("0") is True.
        return cls._from_columns(
            [[(float if dtype is float else int)(v) for v in col]
             for (_, dtype), col in zip(_COLUMNS, zip(*rows))])


_COLUMNS = tuple((f.name, f.metadata["dtype"]) for f in fields(Trace)
                 if f.metadata)
TRACE_HEADER = ",".join(name for name, _ in _COLUMNS)
_ROW_FORMAT = ",".join("%.17g" if dtype is float else "%d"
                       for _, dtype in _COLUMNS) + "\n"


def _descend(problem, X, eta, max_iters, eps_target, tol=None, params=None,
             seed=0):
    """The descent loop behind both solvers; see ``perturbed_gd``.

    Without ``params`` the run starts in phase 2 with no perturbation state.
    It stops once the gradient norm falls to ``tol`` (when given), a
    phase-2 row has recovery error at most ``eps_target`` (when given), or
    after ``max_iters`` steps.  A non-finite objective or gradient raises
    before its row is recorded.
    """
    if not -math.inf < max_iters < math.inf:
        # t >= max_iters would never hold, and the rows would grow forever.
        raise ValueError("max_iters must be finite, got %r" % (max_iters,))
    loss, m_star = problem.loss, problem.m_star
    # A Python float, so each row's ``dist < radius`` is a plain compare.
    radius = float(rip.local_region_sym(problem.delta, problem.sigma_r))
    # A float64 0-d array, so the step does not convert eta on every call;
    # the bits are those of a Python float operand.
    step = np.array(eta, dtype=float)
    phase = 2 if params is None else 1
    if phase == 1:
        rng = np.random.default_rng(seed)
        t_window = max(1, math.ceil(params.t_thres))
        t_noise = -t_window - 1
    rows = []
    stop = "max_iters"
    t = 0
    while True:
        # N = X X^T, formed once per step and reused for the distance.
        val, grad, N = g_value_and_grad(loss, X)
        gn = _norm(grad)
        perturbed = False
        if phase == 1:
            if gn <= params.g_thres and t - t_noise > t_window:
                # No step writes into X, so the state is kept uncopied.
                saved = X, val, grad, gn, N
                t_noise = t
                X = X + _ball_noise(rng, X.shape, params.w)
                perturbed = True
                val, grad, N = g_value_and_grad(loss, X)
                gn = _norm(grad)
            elif t - t_noise == t_window and val - saved[1] > -params.f_thres:
                # The perturbation bought no decrease: restore and switch
                # to the plain descent phase.
                X, val, grad, gn, N = saved
                phase = 2
        # In place: nothing reads this step's N again, nor a restored N,
        # since the one restore ends phase 1 and ``saved`` with it.
        N -= m_star
        dist = _norm(N)
        if not (math.isfinite(val) and math.isfinite(gn)):
            raise ValueError("non-finite objective or gradient at iteration %d" % t)
        rows.append((t, val, gn, dist, dist < radius, perturbed, phase))
        if tol is not None and gn <= tol:
            stop = "grad_tol"
            break
        if phase == 2 and eps_target is not None and dist <= eps_target:
            stop = "eps_target"
            break
        if t >= max_iters:
            break
        # grad is scaled in place: a perturbation rebinds grad before this
        # step, so the grad in ``saved`` is still unscaled at its restore,
        # and once restored it is read by this step alone.  X is rebound,
        # never written, which keeps ``saved`` uncopied.
        grad *= step
        X = X - grad
        t += 1
    return Trace._from_columns(zip(*rows), eta=eta, x_final=X,
                               stop_reason=stop)


def gradient_descent(problem, x0, eta, max_iters=10000, tol=1e-8,
                     eps_target=None):
    """Plain gradient descent on the factored objective.

    Stops once the gradient norm falls to ``tol``, the recovery error
    ||X X^T - m_star||_F falls to ``eps_target`` (when given), or after
    ``max_iters`` steps.  Rows are recorded with phase 2, the
    plain-descent phase.
    """
    if not 0 < eta < math.inf:
        raise ValueError("step size eta must be positive and finite")
    if eps_target is not None and not eps_target > 0:
        raise ValueError("eps_target must be positive")
    if tol is not None and not tol >= 0:
        raise ValueError("tol must be nonnegative")
    return _descend(problem, np.array(x0, dtype=float), eta, max_iters,
                    eps_target, tol=tol)


def _ball_noise(rng, shape, radius):
    """Uniform draw from the Frobenius ball of the given radius."""
    direction = rng.standard_normal(shape)
    norm = _norm(direction)
    if norm == 0.0:
        return np.zeros(shape)
    size = rng.uniform() ** (1.0 / direction.size)
    return (radius * size / norm) * direction


def perturbed_gd(problem, x0, params, eps_target, max_iters=100000, seed=0):
    """Perturbed gradient descent with a local improvement phase.

    Phase 1 takes plain gradient steps but, whenever the gradient norm is
    at most ``params.g_thres`` and no perturbation is pending, saves the
    iterate and adds a uniform perturbation of radius ``params.w``.  If the
    objective has not dropped by ``params.f_thres`` within ``t_thres``
    steps of a perturbation, the saved iterate is restored and phase 2
    (plain descent) runs until the recovery error ||X X^T - m_star||_F
    reaches ``eps_target`` or the step budget is exhausted.

    The perturbation draw is the only randomness; runs are reproducible
    from ``seed``.
    """
    if not eps_target > 0:
        raise ValueError("eps_target must be positive")
    X = np.array(x0, dtype=float)
    if _norm(X.dot(X.T)) > problem.bound_d * (1 + 1e-12):
        raise ValueError("initial point violates the norm bound")
    return _descend(problem, X, params.eta, max_iters, eps_target,
                    params=params, seed=seed)


def descent_violation(trace, eta=None):
    """Worst violation of f' <= f - eta/2 * ||grad||^2 along a trace.

    Steps into a perturbed row or across a phase switch compare unrelated
    states and are skipped.  Nonpositive values mean the inequality held
    everywhere.
    """
    eta = trace.eta if eta is None else eta
    kept = ~trace.perturbed[1:] & (trace.phase[1:] == trace.phase[:-1])
    if not kept.any():
        return -np.inf
    bound = trace.f[:-1] - 0.5 * eta * trace.grad_norm[:-1] ** 2
    return float(np.max((trace.f[1:] - bound)[kept]))


def level_set_violation(trace, problem):
    """Worst relative excess of the level-set distance bound along a trace.

    Wherever f(X_t) <= f(X_0), the recovery error must stay within
    sqrt((1+delta)/(1-delta)) times the initial error.  A run that starts
    at the truth has bound 0: it gives -1.0 when every such row is still at
    the truth, as 0 / bound - 1 does elsewhere, and +inf otherwise.
    """
    ratio = math.sqrt((1.0 + problem.delta) / (1.0 - problem.delta))
    bound = ratio * trace.dist[0]
    mask = trace.f <= trace.f[0]
    if not mask.any():
        return -np.inf
    worst = np.max(trace.dist[mask])
    if bound == 0.0:
        return -1.0 if worst == 0.0 else np.inf
    return float(worst / bound - 1.0)


def confinement_violation(trace, params):
    """Worst excess of the phase-1 trajectory over the confinement radius."""
    mask = trace.phase == 1
    if not mask.any():
        return -np.inf
    return float(np.max(trace.dist[mask]) - params.radius_r)
