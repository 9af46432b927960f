import math

import numpy as np
import pytest

from ripgd import certify, rip, solver
from ripgd.factored import g_grad, g_value_and_grad
from ripgd.losses import (
    LinearOperator,
    LinearLoss,
    RecoveryProblem,
    make_onebit_loss,
    onebit_rho2,
)
from ripgd.solver import (
    TRACE_HEADER,
    Trace,
    pgd_params,
    gradient_descent,
    perturbed_gd,
    descent_violation,
    level_set_violation,
    confinement_violation,
)


def scalar_problem(m_val, delta, rho1, rho2=0.0, bound_d=1.0):
    # One measurement <e11, M>, so g(x) = (x^2 - m_val)^2 / 2.
    op = LinearOperator(np.ones((1, 1, 1)))
    m_star = np.array([[m_val]])
    loss = LinearLoss(op, op.apply(m_star))
    return RecoveryProblem(loss, m_star, 1, delta, rho1, rho2, bound_d)


def onebit_problem(n=5, r=2, seed=0):
    # A small full-observation 1-bit instance with a rank-r truth.
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, (n, r))
    m_hat = z @ z.T
    x0 = rng.standard_normal((n, r))
    bound_d = max(np.linalg.norm(m_hat), np.linalg.norm(x0 @ x0.T))
    problem = RecoveryProblem(make_onebit_loss(m_hat), m_hat, r, 0.5, 2.0,
                              onebit_rho2(6.0), bound_d)
    return problem, x0


@pytest.fixture(scope="module")
def saddle_run():
    problem = scalar_problem(1.0, 0.0, 1.0)
    params = pgd_params(problem, c=0.5, kappa=1.0, gamma=0.1)
    trace = perturbed_gd(problem, np.zeros((1, 1)), params, eps_target=1e-6,
                         max_iters=20000, seed=3)
    return problem, params, trace


def test_pgd_params_frozen():
    # Full constant stack evaluated by hand for delta=1/3, D=1, rho1=5/3,
    # rho2=0, r=n=1, c=1/2, kappa=1, gamma=1/10.  With kappa=1 the product
    # l2*eps_hat collapses to 1, which pins t_thres = chi*l1/c^2.
    problem = scalar_problem(0.5, 1.0 / 3.0, 5.0 / 3.0)
    p = pgd_params(problem, c=0.5, kappa=1.0, gamma=0.1)
    assert p.radius_r == pytest.approx(6.0, rel=1e-12)
    assert p.l1 == pytest.approx(80.0, rel=1e-12)
    assert p.l2 == pytest.approx(48.989794855663561, rel=1e-12)
    assert p.eps_hat == pytest.approx(0.020412414523193152, rel=1e-12)
    assert p.delta_f == pytest.approx(2.6666666666666665, rel=1e-12)
    assert p.chi == pytest.approx(48.425436532726906, rel=1e-12)
    assert p.eta == pytest.approx(0.00625, rel=1e-15)
    assert p.w == pytest.approx(7.6938250309329475e-08, rel=1e-12)
    assert p.g_thres == pytest.approx(6.1550600247463567e-06, rel=1e-12)
    assert p.f_thres == pytest.approx(1.8345862301953649e-09, rel=1e-12)
    assert p.t_thres == pytest.approx(15496.139690472606, rel=1e-12)
    assert p.to_dict()["eta"] == p.eta


def test_pgd_params_validation():
    problem = scalar_problem(0.5, 0.0, 1.0)
    for kwargs in (
        dict(c=0.0, kappa=1.0, gamma=0.1),
        dict(c=0.5, kappa=0.0, gamma=0.1),
        dict(c=0.5, kappa=1.0, gamma=0.0),
        dict(c=0.5, kappa=1.0, gamma=1.5),
    ):
        with pytest.raises(ValueError):
            pgd_params(problem, **kwargs)
    # A NaN or infinite c or kappa is refused by name, not turned into NaN
    # constants or a math domain error.
    for bad in (float("nan"), float("inf")):
        for kwargs in (dict(c=bad, kappa=1.0), dict(c=0.5, kappa=bad)):
            with pytest.raises(ValueError, match="c and kappa must be "
                               "positive and finite"):
                pgd_params(problem, gamma=0.1, **kwargs)


def test_gradient_descent_grad_tol():
    problem = scalar_problem(1.0, 0.0, 1.0)
    trace = gradient_descent(problem, np.full((1, 1), 0.9), eta=0.05,
                             max_iters=5000, tol=1e-10)
    assert trace.stop_reason == "grad_tol"
    assert trace.grad_norm[-1] <= 1e-10
    assert trace.dist[-1] < 1e-9
    assert np.all(trace.phase == 2)
    assert not trace.perturbed.any()
    assert trace.iterations == len(trace) - 1
    # Plain descent on a smooth path satisfies the per-step decrease bound.
    assert descent_violation(trace) <= 1e-12


def test_gradient_descent_eps_target():
    problem = scalar_problem(1.0, 0.0, 1.0)
    trace = gradient_descent(problem, np.full((1, 1), 0.9), eta=0.05,
                             max_iters=5000, tol=1e-14, eps_target=1e-6)
    assert trace.stop_reason == "eps_target"
    assert trace.dist[-1] <= 1e-6
    assert trace.grad_norm[-1] > 1e-14
    assert abs(float(trace.x_final[0, 0])) == pytest.approx(1.0, abs=1e-5)


def test_gradient_descent_max_iters():
    problem = scalar_problem(1.0, 0.0, 1.0)
    trace = gradient_descent(problem, np.full((1, 1), 0.9), eta=1e-6,
                             max_iters=10, tol=1e-14)
    assert trace.stop_reason == "max_iters"
    assert len(trace) == 11


def test_gradient_descent_divergence_raises():
    problem = scalar_problem(1.0, 0.0, 1.0)
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(ValueError, match="non-finite"):
            gradient_descent(problem, np.full((1, 1), 1.5), eta=10.0,
                             max_iters=100)


def test_gradient_descent_validation():
    problem = scalar_problem(1.0, 0.0, 1.0)
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            gradient_descent(problem, np.zeros((1, 1)), eta=bad)
    with pytest.raises(ValueError):
        gradient_descent(problem, np.zeros((1, 1)), eta=0.1, eps_target=0.0)


def test_gradient_descent_refuses_nan_stops():
    # A NaN stop never compares true, so the run would silently spend its
    # whole step budget.
    problem = scalar_problem(1.0, 0.0, 1.0)
    x0 = np.full((1, 1), 0.9)
    with pytest.raises(ValueError, match="eps_target must be positive"):
        gradient_descent(problem, x0, eta=0.05, max_iters=5,
                         eps_target=float("nan"))
    for bad in (float("nan"), -1e-8):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            gradient_descent(problem, x0, eta=0.05, max_iters=5, tol=bad)
    for tol in (None, 0.0):
        trace = gradient_descent(problem, x0, eta=0.05, max_iters=5, tol=tol)
        assert trace.stop_reason == "max_iters"


def test_solvers_refuse_non_finite_max_iters():
    # t >= max_iters never holds for these, so a run that missed its other
    # stops would never end.  Both runs here stop by themselves within a few
    # thousand steps, so a missing guard shows as a return, not a hang.
    problem = scalar_problem(1.0, 0.0, 1.0)
    params = pgd_params(problem, c=0.5, kappa=1.0, gamma=0.1)
    x0 = np.full((1, 1), 0.9)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="max_iters must be finite"):
            gradient_descent(problem, x0, eta=0.05, max_iters=bad, tol=1e-3)
        with pytest.raises(ValueError, match="max_iters must be finite"):
            perturbed_gd(problem, x0, params, eps_target=1e-2, max_iters=bad,
                         seed=3)


def test_perturbed_gd_escapes_origin(saddle_run):
    # x=0 is a strict saddle of (x^2-1)^2/2 with zero gradient, so plain
    # descent would never move; the perturbation has to do the escape.
    problem, params, trace = saddle_run
    assert trace.stop_reason == "eps_target"
    assert trace.phase1_complete
    assert trace.dist[-1] <= 1e-6
    assert trace.perturbed.sum() >= 1
    assert bool(trace.perturbed[0])
    assert trace.phase2_start is not None
    assert np.all(trace.phase[trace.phase2_start:] == 2)
    assert np.all(trace.phase[: trace.phase2_start] == 1)


def test_perturbed_gd_budget_spent_in_phase_one():
    # The revert window is about 15,500 steps, so 50 steps end in phase 1.
    problem = scalar_problem(1.0, 0.0, 1.0)
    params = pgd_params(problem, c=0.5, kappa=1.0, gamma=0.1)
    trace = perturbed_gd(problem, np.zeros((1, 1)), params, eps_target=1e-6,
                         max_iters=50, seed=3)
    assert trace.stop_reason == "max_iters"
    assert trace.phase1_complete is False
    assert trace.phase2_start is None
    assert len(trace) == 51


def test_perturbed_gd_trace_inequalities(saddle_run):
    problem, params, trace = saddle_run
    assert descent_violation(trace) <= 1e-12
    assert level_set_violation(trace, problem) <= 1e-6
    assert confinement_violation(trace, params) <= 0.0


def descent_violation_loop(trace, eta):
    # The row-by-row reference for the vectorized descent_violation.
    worst = -np.inf
    for i in range(len(trace) - 1):
        if trace.perturbed[i + 1] or trace.phase[i + 1] != trace.phase[i]:
            continue
        bound = trace.f[i] - 0.5 * eta * trace.grad_norm[i] ** 2
        worst = max(worst, trace.f[i + 1] - bound)
    return worst


def test_descent_violation_skips_perturbations_and_phase_switches(saddle_run):
    # With eta = 1 the bound after row i is f[i] - grad_norm[i]^2 / 2.  The
    # steps into row 3 (perturbed) and row 5 (phase switch) would violate
    # it by about 93 and 101; the worst counted step is 1 -> 2, by 0.25.
    trace = Trace(
        t=np.arange(7),
        f=np.array([10.0, 7.5, 7.25, 100.0, 99.0, 200.0, 197.0]),
        grad_norm=np.array([2.0, 1.0, 0.0, 0.0, 0.0, 2.0, 0.0]),
        dist=np.zeros(7),
        in_region=np.zeros(7, dtype=bool),
        perturbed=np.array([0, 0, 0, 1, 0, 0, 0], dtype=bool),
        phase=np.array([1, 1, 1, 1, 1, 2, 2]),
        eta=1.0,
    )
    assert descent_violation(trace) == 0.25
    assert descent_violation(trace, eta=3.0) == 3.5
    first = {name: getattr(trace, name)[:1] for name in TRACE_HEADER.split(",")}
    assert descent_violation(Trace(**first)) == -np.inf
    # Same arithmetic as the loop, so equal bits on a run with a
    # perturbation and a phase switch.
    run = saddle_run[2]
    assert run.perturbed.any() and run.phase2_start
    for eta in (run.eta, 0.3):
        assert descent_violation(run, eta) == descent_violation_loop(run, eta)


def hand_trace(f, dist, phase):
    k = len(f)
    return Trace(t=np.arange(k), f=np.array(f), grad_norm=np.zeros(k),
                 dist=np.array(dist), in_region=np.zeros(k, dtype=bool),
                 perturbed=np.zeros(k, dtype=bool), phase=np.array(phase),
                 eta=1.0)


def test_level_set_violation_known_excess():
    # delta = 0 makes the bound dist[0] = 2.  Rows 0 and 1 have f == f[0],
    # row 2 lies below it and row 3 above; the worst counted row is row 1,
    # 3/2 - 1 = 0.5 (row 2 alone would give 0.25, row 3 would give 3.5).
    problem = scalar_problem(1.0, 0.0, 1.0)
    trace = hand_trace([1.0, 1.0, 0.5, 2.0], [2.0, 3.0, 2.5, 9.0], [1] * 4)
    assert level_set_violation(trace, problem) == 0.5
    # Row 0 always counts, at dist[0] / bound - 1 = 0 when delta = 0.
    trace = hand_trace([1.0, 0.5], [2.0, 1.0], [1, 1])
    assert level_set_violation(trace, problem) == 0.0


def test_level_set_violation_run_from_the_truth():
    # A 2x2 one-bit gd run started at the truth's factor: dist[0] is 0, so
    # is the bound, and the gradient expit(M) - y is exactly 0 there, so
    # every row stays at the truth.  Dividing would warn 0/0 and give NaN.
    z = np.array([[0.5], [-1.0]])
    m_hat = z @ z.T
    problem = RecoveryProblem(make_onebit_loss(m_hat), m_hat, 1, 0.5, 2.0,
                              onebit_rho2(6.0), np.linalg.norm(m_hat))
    trace = gradient_descent(problem, z, eta=0.05, max_iters=5, tol=None)
    assert trace.dist.tolist() == [0.0] * 6
    assert level_set_violation(trace, problem) == -1.0
    # A row under the level set that has left the truth is an unbounded
    # excess; a row above it does not count.
    trace = hand_trace([1.0, 1.0, 2.0], [0.0, 1e-300, 5.0], [2] * 3)
    assert level_set_violation(trace, problem) == np.inf
    trace = hand_trace([1.0, 2.0], [0.0, 5.0], [2] * 2)
    assert level_set_violation(trace, problem) == -1.0


def test_confinement_violation_known_excess():
    # R = 3 D (1 + delta)/(1 - delta) = 3; the phase-1 rows reach 3.5 and
    # the phase-2 row, which does not count, reaches 10.
    problem = scalar_problem(1.0, 0.0, 1.0)
    params = pgd_params(problem, c=0.5, kappa=1.0, gamma=0.1)
    assert params.radius_r == 3.0
    trace = hand_trace([1.0] * 4, [1.0, 3.5, 2.0, 10.0], [1, 1, 1, 2])
    assert confinement_violation(trace, params) == 0.5
    trace = hand_trace([1.0] * 2, [1.0, 2.0], [1, 1])
    assert confinement_violation(trace, params) == -1.0
    assert confinement_violation(hand_trace([1.0], [9.0], [2]), params) == -np.inf


def test_perturbed_gd_deterministic():
    problem = scalar_problem(1.0, 0.0, 1.0)
    params = pgd_params(problem, c=0.5, kappa=1.0, gamma=0.1)
    runs = [
        perturbed_gd(problem, np.zeros((1, 1)), params, eps_target=1e-4,
                     max_iters=20000, seed=11)
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].f, runs[1].f)
    assert np.array_equal(runs[0].dist, runs[1].dist)
    other = perturbed_gd(problem, np.zeros((1, 1)), params, eps_target=1e-4,
                         max_iters=20000, seed=12)
    assert not np.array_equal(runs[0].f, other.f)


def test_perturbed_gd_validation():
    problem = scalar_problem(1.0, 0.0, 1.0)
    params = pgd_params(problem, c=0.5, kappa=1.0, gamma=0.1)
    with pytest.raises(ValueError):
        perturbed_gd(problem, np.zeros((1, 1)), params, eps_target=0.0)
    with pytest.raises(ValueError, match="norm bound"):
        perturbed_gd(problem, np.full((1, 1), 2.0), params, eps_target=1e-6)


def test_perturbed_gd_refuses_nan_eps_target():
    problem = scalar_problem(1.0, 0.0, 1.0)
    params = pgd_params(problem, c=0.5, kappa=1.0, gamma=0.1)
    with pytest.raises(ValueError, match="eps_target must be positive"):
        perturbed_gd(problem, np.zeros((1, 1)), params,
                     eps_target=float("nan"), max_iters=5)


def test_trace_csv_round_trip(tmp_path, saddle_run):
    _, _, trace = saddle_run
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    back = Trace.from_csv(path)
    assert np.array_equal(back.t, trace.t)
    assert np.array_equal(back.f, trace.f)
    assert np.array_equal(back.grad_norm, trace.grad_norm)
    assert np.array_equal(back.dist, trace.dist)
    assert np.array_equal(back.in_region, trace.in_region)
    assert np.array_equal(back.perturbed, trace.perturbed)
    assert np.array_equal(back.phase, trace.phase)
    assert back.first_in_region == trace.first_in_region
    assert back.phase2_start == trace.phase2_start


def test_trace_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,value\n0,1\n")
    with pytest.raises(ValueError, match="header"):
        Trace.from_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text(TRACE_HEADER + "\n")
    with pytest.raises(ValueError, match="no rows"):
        Trace.from_csv(empty)
    short = tmp_path / "short.csv"
    short.write_text(TRACE_HEADER + "\n0,1,0.5,0.25,0,1,2\n\n0,1.0,2.0\n")
    with pytest.raises(ValueError, match="trace line 4 has 3 fields, expected 7"):
        Trace.from_csv(short)
    # Bool columns parse through int, so "0" reads as False.
    short.write_text(TRACE_HEADER + "\n0,1,0.5,0.25,0,1,2\n")
    back = Trace.from_csv(short)
    assert back.in_region.tolist() == [False]
    assert back.perturbed.tolist() == [True]
    assert back.phase1_complete


def descend_reference(problem, X, eta, max_iters, eps_target, tol=None,
                      params=None, seed=0):
    # The descent loop row by row, forming X X^T twice per step (once for
    # the loss, once for the distance) and taking norms with np.linalg.norm.
    loss, m_star = problem.loss, problem.m_star
    radius = rip.local_region_sym(problem.delta, problem.sigma_r)
    phase = 2 if params is None else 1
    if phase == 1:
        rng = np.random.default_rng(seed)
        t_window = max(1, math.ceil(params.t_thres))
        t_noise = -t_window - 1
        saved_x = None
        saved_f = np.inf
    rows = []
    stop = "max_iters"
    t = 0
    while True:
        val, grad = g_value_and_grad(loss, X)[:2]
        perturbed = False
        if phase == 1:
            gn = float(np.linalg.norm(grad))
            if gn <= params.g_thres and t - t_noise > t_window:
                saved_x = X.copy()
                saved_f = val
                t_noise = t
                X = X + solver._ball_noise(rng, X.shape, params.w)
                perturbed = True
                val, grad = g_value_and_grad(loss, X)[:2]
            elif t - t_noise == t_window and val - saved_f > -params.f_thres:
                X = saved_x
                phase = 2
                val = saved_f
                grad = g_grad(loss, X)
        gn = float(np.linalg.norm(grad))
        dist = float(np.linalg.norm(X @ X.T - m_star))
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
        X = X - eta * grad
        t += 1
    return Trace._from_columns(zip(*rows), eta=eta, x_final=X,
                               stop_reason=stop)


def assert_same_trace(trace, ref):
    for name in TRACE_HEADER.split(","):
        np.testing.assert_array_equal(getattr(trace, name), getattr(ref, name),
                                      err_msg=name)
    np.testing.assert_array_equal(trace.x_final, ref.x_final)
    assert trace.stop_reason == ref.stop_reason
    assert trace.eta == ref.eta


def test_gradient_descent_matches_reference_loop():
    problem, x0 = onebit_problem()
    for eps_target, stop in ((None, "max_iters"), (1e-2, "eps_target")):
        trace = gradient_descent(problem, x0, eta=0.05, max_iters=400,
                                 tol=1e-14, eps_target=eps_target)
        assert trace.stop_reason == stop
        assert_same_trace(trace, descend_reference(
            problem, np.array(x0), 0.05, 400, eps_target, tol=1e-14))


def test_perturbed_gd_matches_reference_loop(saddle_run):
    problem, params, trace = saddle_run
    # The run perturbs and then reverts to the saved iterate at the phase
    # switch, so the restored X X^T sets that row's distance.
    switch = trace.phase2_start
    assert trace.perturbed.sum() >= 2 and not trace.perturbed[switch]
    ref = descend_reference(problem, np.zeros((1, 1)), params.eta, 20000,
                            1e-6, params=params, seed=3)
    assert_same_trace(trace, ref)
    # From x0 = 0.05 the perturbation fires near the truth, and the
    # restored iterate, whose gradient is not zero, takes further steps:
    # the step from a restored gradient is checked too.
    x0 = np.full((1, 1), 0.05)
    trace = perturbed_gd(problem, x0, params, eps_target=1e-6,
                         max_iters=20000, seed=3)
    switch = trace.phase2_start
    assert trace.perturbed.any() and switch < len(trace) - 1
    assert trace.grad_norm[switch] > 0.0
    ref = descend_reference(problem, x0, params.eta, 20000, 1e-6,
                            params=params, seed=3)
    assert_same_trace(trace, ref)


def test_in_place_distance_keeps_truth_and_start(saddle_run):
    # The distance is taken in place in each step's N, also after the
    # restore of a saved N; every row keeps the bits of the reference's
    # np.linalg.norm(X X^T - m_star), and neither m_star nor x0 is written.
    problem, params, _ = saddle_run
    x0 = np.zeros((1, 1))
    run = perturbed_gd(problem, x0, params, eps_target=1e-6, max_iters=20000,
                       seed=3)
    assert run.perturbed.any() and run.phase2_start
    ref = descend_reference(problem, np.zeros((1, 1)), params.eta, 20000,
                            1e-6, params=params, seed=3)
    assert run.dist.tobytes() == ref.dist.tobytes()
    assert problem.m_star.tobytes() == np.ones((1, 1)).tobytes()
    assert x0.tobytes() == np.zeros((1, 1)).tobytes()


def test_gradient_descent_one_loss_evaluation_per_step(monkeypatch):
    problem, x0 = onebit_problem()
    calls = []
    inner = problem.loss.value_and_grad

    def counting(M):
        calls.append(M)
        return inner(M)

    monkeypatch.setattr(problem.loss, "value_and_grad", counting)
    for k in (0, 1, 25):
        calls.clear()
        trace = gradient_descent(problem, x0, eta=0.05, max_iters=k, tol=1e-14)
        assert len(trace) == k + 1 and len(calls) == k + 1


@pytest.mark.parametrize("shape", [(40, 1), (40, 40), (18, 5), (18, 18),
                                   (10, 5), (10, 10), (36,), (2, 3, 4)])
def test_norm_matches_numpy(shape):
    # Factor and matrix shapes of the fig1a, fig1b (lifted) and fig1c runs,
    # and the vectors and stacks the certificates take norms of; the solver
    # and the certificates share the one definition.
    assert solver._norm is certify._norm
    a = np.random.default_rng(shape[0] * 100 + shape[-1]).standard_normal(shape)
    for x in (a, np.asfortranarray(a), a.T, a[::-1][..., ::2]):
        value = solver._norm(x)
        assert type(value) is float
        assert value == float(np.linalg.norm(x))
