"""Gradient descent and perturbed gradient descent on factored objectives.

``perturbed_gd`` runs the two-phase scheme: a first phase of plain descent
that injects a small uniform-ball perturbation whenever the gradient is
nearly stationary, escaping strict saddles, followed by a second phase of
plain descent once a perturbation fails to make progress.  All derived
constants live in ``PgdParams`` and are computed by ``pgd_params`` from the
problem constants and three user choices (c, kappa, gamma).
"""

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import rip
from .factored import g_value_and_grad, g_grad

TRACE_HEADER = "t,f,grad_norm,dist,in_region,perturbed,phase"


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


def pgd_params(problem, c, kappa, gamma, n, r):
    """Instantiate the perturbed descent constants for a problem."""
    if c <= 0 or kappa <= 0 or not 0 < gamma <= 1:
        raise ValueError("c and kappa must be positive and gamma in (0, 1]")
    if n < 1 or r < 1:
        raise ValueError("n and r must be positive")
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


@dataclass
class Trace:
    """Per-iteration record of a descent run.

    Row t holds the state actually stepped from at iteration t, after any
    perturbation or revert, so the row count is the number of gradient
    steps plus one.
    """

    t: np.ndarray
    f: np.ndarray
    grad_norm: np.ndarray
    dist: np.ndarray
    in_region: np.ndarray
    perturbed: np.ndarray
    phase: np.ndarray
    eta: float = float("nan")
    x_final: np.ndarray = None
    stop_reason: str = ""
    phase1_complete: bool = True

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

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(TRACE_HEADER + "\n")
            for i in range(len(self.t)):
                fh.write(
                    "%d,%.17g,%.17g,%.17g,%d,%d,%d\n"
                    % (
                        self.t[i], self.f[i], self.grad_norm[i], self.dist[i],
                        int(self.in_region[i]), int(self.perturbed[i]),
                        self.phase[i],
                    )
                )

    @classmethod
    def from_csv(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != TRACE_HEADER:
                raise ValueError("unrecognized trace header %r" % header)
            rows = [line.strip().split(",") for line in fh if line.strip()]
        if not rows:
            raise ValueError("trace file has no rows")
        cols = list(zip(*rows))
        return cls(
            t=np.array([int(v) for v in cols[0]]),
            f=np.array([float(v) for v in cols[1]]),
            grad_norm=np.array([float(v) for v in cols[2]]),
            dist=np.array([float(v) for v in cols[3]]),
            in_region=np.array([bool(int(v)) for v in cols[4]]),
            perturbed=np.array([bool(int(v)) for v in cols[5]]),
            phase=np.array([int(v) for v in cols[6]]),
        )


class _Recorder:
    def __init__(self, region_radius, eta):
        self.rows = []
        self.region_radius = region_radius
        self.eta = eta

    def add(self, t, f, grad_norm, dist, perturbed, phase):
        if not (math.isfinite(f) and math.isfinite(grad_norm)):
            raise ValueError("non-finite objective or gradient at iteration %d" % t)
        self.rows.append(
            (t, f, grad_norm, dist, dist < self.region_radius, perturbed, phase)
        )

    def freeze(self, x_final, stop_reason, phase1_complete):
        cols = list(zip(*self.rows))
        return Trace(
            t=np.array(cols[0], dtype=int),
            f=np.array(cols[1], dtype=float),
            grad_norm=np.array(cols[2], dtype=float),
            dist=np.array(cols[3], dtype=float),
            in_region=np.array(cols[4], dtype=bool),
            perturbed=np.array(cols[5], dtype=bool),
            phase=np.array(cols[6], dtype=int),
            eta=self.eta,
            x_final=x_final,
            stop_reason=stop_reason,
            phase1_complete=phase1_complete,
        )


def _region_radius(problem):
    return rip.local_region_sym(problem.delta, problem.sigma_r)


def gradient_descent(problem, x0, eta, max_iters=10000, tol=1e-8,
                     eps_target=None):
    """Plain gradient descent on the factored objective.

    Stops once the gradient norm falls to ``tol``, the recovery error
    ||X X^T - m_star||_F falls to ``eps_target`` (when given), or after
    ``max_iters`` steps.  Rows are recorded with phase 2, the
    plain-descent phase.
    """
    if eta <= 0:
        raise ValueError("step size must be positive")
    if eps_target is not None and eps_target <= 0:
        raise ValueError("eps_target must be positive")
    X = np.array(x0, dtype=float)
    rec = _Recorder(_region_radius(problem), eta)
    loss, m_star = problem.loss, problem.m_star
    stop = "max_iters"
    t = 0
    while True:
        val, grad = g_value_and_grad(loss, X)
        gn = float(np.linalg.norm(grad))
        dist = float(np.linalg.norm(X @ X.T - m_star))
        rec.add(t, val, gn, dist, False, 2)
        if gn <= tol:
            stop = "grad_tol"
            break
        if eps_target is not None and dist <= eps_target:
            stop = "eps_target"
            break
        if t >= max_iters:
            break
        X = X - eta * grad
        t += 1
    return rec.freeze(X, stop, True)


def _ball_noise(rng, shape, radius):
    """Uniform draw from the Frobenius ball of the given radius."""
    direction = rng.standard_normal(shape)
    norm = np.linalg.norm(direction)
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
    if eps_target <= 0:
        raise ValueError("eps_target must be positive")
    X = np.array(x0, dtype=float)
    if np.linalg.norm(X @ X.T) > problem.bound_d * (1 + 1e-12):
        raise ValueError("initial point violates the norm bound")
    rng = np.random.default_rng(seed)
    loss, m_star = problem.loss, problem.m_star
    rec = _Recorder(_region_radius(problem), params.eta)
    t_window = max(1, math.ceil(params.t_thres))
    t = 0
    t_noise = -t_window - 1
    saved_x = None
    saved_f = np.inf
    phase = 1
    stop = "max_iters"
    while True:
        val, grad = g_value_and_grad(loss, X)
        perturbed = False
        if phase == 1:
            gn = float(np.linalg.norm(grad))
            if gn <= params.g_thres and t - t_noise > t_window:
                saved_x = X.copy()
                saved_f = val
                t_noise = t
                X = X + _ball_noise(rng, X.shape, params.w)
                perturbed = True
                val, grad = g_value_and_grad(loss, X)
            elif t - t_noise == t_window and val - saved_f > -params.f_thres:
                # The perturbation bought no decrease: restore and switch
                # to the plain descent phase.
                X = saved_x
                phase = 2
                val = saved_f
                grad = g_grad(loss, X)
        gn = float(np.linalg.norm(grad))
        dist = float(np.linalg.norm(X @ X.T - m_star))
        rec.add(t, val, gn, dist, perturbed, phase)
        if phase == 2 and dist <= eps_target:
            stop = "eps_target"
            break
        if t >= max_iters:
            break
        X = X - params.eta * grad
        t += 1
    return rec.freeze(X, stop, phase == 2)


def descent_violation(trace, eta=None):
    """Worst violation of f' <= f - eta/2 * ||grad||^2 along a trace.

    Steps into a perturbed row or across a phase switch compare unrelated
    states and are skipped.  Nonpositive values mean the inequality held
    everywhere.
    """
    eta = trace.eta if eta is None else eta
    worst = -np.inf
    for i in range(len(trace) - 1):
        if trace.perturbed[i + 1] or trace.phase[i + 1] != trace.phase[i]:
            continue
        bound = trace.f[i] - 0.5 * eta * trace.grad_norm[i] ** 2
        worst = max(worst, trace.f[i + 1] - bound)
    return worst


def level_set_violation(trace, problem):
    """Worst relative excess of the level-set distance bound along a trace.

    Wherever f(X_t) <= f(X_0), the recovery error must stay within
    sqrt((1+delta)/(1-delta)) times the initial error.
    """
    ratio = math.sqrt((1.0 + problem.delta) / (1.0 - problem.delta))
    bound = ratio * trace.dist[0]
    mask = trace.f <= trace.f[0]
    if not mask.any():
        return -np.inf
    return float(np.max(trace.dist[mask]) / bound - 1.0)


def confinement_violation(trace, params):
    """Worst excess of the phase-1 trajectory over the confinement radius."""
    mask = trace.phase == 1
    if not mask.any():
        return -np.inf
    return float(np.max(trace.dist[mask]) - params.radius_r)
