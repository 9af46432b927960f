import numpy as np
import pytest

from ripgd.losses import LinearOperator, LinearLoss, RecoveryProblem
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


@pytest.fixture(scope="module")
def saddle_run():
    problem = scalar_problem(1.0, 0.0, 1.0)
    params = pgd_params(problem, c=0.5, kappa=1.0, gamma=0.1, n=1, r=1)
    trace = perturbed_gd(problem, np.zeros((1, 1)), params, eps_target=1e-6,
                         max_iters=20000, seed=3)
    return problem, params, trace


def test_pgd_params_frozen():
    # Full constant stack evaluated by hand for delta=1/3, D=1, rho1=5/3,
    # rho2=0, r=n=1, c=1/2, kappa=1, gamma=1/10.  With kappa=1 the product
    # l2*eps_hat collapses to 1, which pins t_thres = chi*l1/c^2.
    problem = scalar_problem(0.5, 1.0 / 3.0, 5.0 / 3.0)
    p = pgd_params(problem, c=0.5, kappa=1.0, gamma=0.1, n=1, r=1)
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
            pgd_params(problem, n=1, r=1, **kwargs)
    with pytest.raises(ValueError):
        pgd_params(problem, c=0.5, kappa=1.0, gamma=0.1, n=0, r=1)
    with pytest.raises(ValueError):
        pgd_params(problem, c=0.5, kappa=1.0, gamma=0.1, n=1, r=0)


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
    with pytest.raises(ValueError):
        gradient_descent(problem, np.zeros((1, 1)), eta=0.0)
    with pytest.raises(ValueError):
        gradient_descent(problem, np.zeros((1, 1)), eta=0.1, eps_target=0.0)


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


def test_perturbed_gd_trace_inequalities(saddle_run):
    problem, params, trace = saddle_run
    assert descent_violation(trace) <= 1e-12
    assert level_set_violation(trace, problem) <= 1e-6
    assert confinement_violation(trace, params) <= 0.0


def test_perturbed_gd_deterministic():
    problem = scalar_problem(1.0, 0.0, 1.0)
    params = pgd_params(problem, c=0.5, kappa=1.0, gamma=0.1, n=1, r=1)
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
    params = pgd_params(problem, c=0.5, kappa=1.0, gamma=0.1, n=1, r=1)
    with pytest.raises(ValueError):
        perturbed_gd(problem, np.zeros((1, 1)), params, eps_target=0.0)
    with pytest.raises(ValueError, match="norm bound"):
        perturbed_gd(problem, np.full((1, 1), 2.0), params, eps_target=1e-6)


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
