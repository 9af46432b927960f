import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ripgd
from ripgd.certify import sym_mat, verify_gradhessian, x_operator
from ripgd.cli import default_kappa
from ripgd.factored import (
    LiftedLoss,
    balance_and_augment,
    g_hess_min_eig,
    hess_matrix,
)
from ripgd.losses import (
    LinearLoss,
    LinearOperator,
    RecoveryProblem,
    estimate_rho1,
    make_onebit_loss,
    onebit_rho2,
)
from ripgd.rip import estimate_rip
from ripgd.solver import gradient_descent, perturbed_gd, pgd_params

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_all_names_resolve():
    missing = [name for name in ripgd.__all__ if not hasattr(ripgd, name)]
    assert missing == []


def test_readme_library_sketch_imports():
    statements = re.findall(r"^from ripgd import \([^)]*\)",
                            README.read_text(encoding="utf-8"), re.MULTILINE)
    assert statements, "README has no 'from ripgd import (...)' line"
    for statement in statements:
        exec(statement, {})


def test_readme_library_sketch_runs(monkeypatch, capsys):
    # The whole sketch runs against the current signatures.  Its solve is
    # capped at 200 steps: the full run takes seconds and proves nothing
    # more about the API.
    block = re.search(r"^```python\n(.*?)^```",
                      README.read_text(encoding="utf-8"), re.S | re.M).group(1)
    calls = []

    def capped(*args, **kwargs):
        calls.append(kwargs)
        return perturbed_gd(*args, **dict(kwargs, max_iters=200))

    # The sketch's own import binds the capped solver in its globals.
    monkeypatch.setattr(ripgd, "perturbed_gd", capped)
    exec(block, {})
    assert len(calls) == 1
    assert capsys.readouterr().out.startswith("max_iters ")


def test_public_names_have_callers_in_the_package():
    # Public API that only its own unit test reaches is deleted: every public
    # module-level function and class is referenced somewhere in the package,
    # by a name, an attribute or an import.  The three run-time checks wait
    # for their caller, run_experiment (ROADMAP item 4).
    allowed = {"descent_violation", "level_set_violation",
               "confinement_violation"}
    package = Path(ripgd.__file__).resolve().parent
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))]
    public = {node.name for tree in trees for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted(public - used - allowed) == []


def test_old_call_forms_raise_type_error():
    # Shapes, ranks and limits are read from the operator, loss or problem
    # that owns them.  A call in the old form, which passed them again, must
    # fail instead of binding its numbers to other parameters.
    op = LinearOperator(np.ones((1, 1, 1)))
    loss = LinearLoss(op, np.ones(1))
    problem = RecoveryProblem(loss, np.ones((1, 1)), 1, 0.0, 1.0, 0.0, 1.0)
    X = np.ones((1, 1))
    old_forms = [
        lambda: estimate_rip(op, 1, 1, 1, symmetric=True, seed=2),
        lambda: estimate_rip(op, 1, 1, 1, samples=50, seed=0),
        lambda: estimate_rip(op, 40, 40, 1),
        lambda: estimate_rho1(loss, 1, 1, 1, 0.4, seed=3),
        lambda: estimate_rho1(loss, 1, 1, 1, delta=0.4),
        lambda: estimate_rho1(loss, 1, 0.4, samples=200),
        lambda: estimate_rho1(loss, 1, 0.4, 3),
        lambda: pgd_params(problem, c=0.5, kappa=1e3, gamma=0.1, n=1, r=1),
        lambda: pgd_params(problem, 0.5, 1.0, 0.1, 1, 1),
        lambda: default_kappa(problem, 1, 1, c=0.5, gamma=0.1),
        lambda: default_kappa(problem, 1, 1, 0.5, 0.1),
        lambda: default_kappa(problem, 0.5, 0.1, fraction=0.02),
        lambda: hess_matrix(loss, X, dense_limit=4000),
        lambda: g_hess_min_eig(loss, X, 4000),
        lambda: x_operator(X, dense_limit=4000),
        lambda: verify_gradhessian(loss, X, np.ones((1, 1)), 0.0, 16),
        lambda: sym_mat(np.ones(4), 2),
    ]
    for call in old_forms:
        with pytest.raises(TypeError):
            call()


def test_cli_import_defers_scipy_special():
    # scipy.special is loaded only once a 1-bit loss is built; importing
    # the command line loads no thread pool and asks the BLAS nothing.
    code = (
        "import sys, numpy as np\n"
        "import ripgd.cli\n"
        "assert 'scipy.special' not in sys.modules\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert ripgd.rip._blas_threads.cache_info().misses == 0\n"
        "from ripgd.losses import make_onebit_loss\n"
        "loss = make_onebit_loss(np.zeros((2, 2)))\n"
        "assert 'scipy.special' in sys.modules\n"
        "assert loss.grad(np.zeros((2, 2))).tolist() == [[0.0, 0.0], [0.0, 0.0]]\n"
    )
    src = str(Path(ripgd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
    # The package root does not import ripgd.cli, so running it as a module
    # raises no runpy warning, even with warnings as errors.
    subprocess.run([sys.executable, "-W", "error", "-m", "ripgd.cli", "--help"],
                   check=True, env=env, stdout=subprocess.DEVNULL)


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, ROOT / "perfbench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_traced_names_exist():
    # perfbench replaces these callables by name and refuses to run if one
    # is gone; renaming one in ripgd must fail here, not only in the
    # traced benchmark.
    tracing = load_perfbench("tracing")
    entries = [entry for group in tracing.TRACED.values() for entry in group]
    missing = []
    for module_name, path in entries + tracing.SolveClock.ENTRIES:
        owner = importlib.import_module(module_name)
        owner_path, _, attr = path.rpartition(".")
        if owner_path:
            owner = getattr(owner, owner_path)
        if attr not in vars(owner):
            missing.append("%s.%s" % (module_name, path))
    assert missing == []


def test_benchmark_tracer_sees_every_loss_evaluation():
    # The benchmark's gate fails when a traced layer records no calls, and
    # an override (say OneBitLoss.value_and_grad) would hide the wrapped
    # MatrixLoss method.  The spans must see one call per trace row plus
    # one per perturbation, on the 1-bit gd path, the linear pgd path and
    # the lifted pgd path, where a step that bypassed the lift's
    # value_and_grad would leave its span empty.
    tracing = load_perfbench("tracing")
    m_hat = np.array([[1.0, 0.5, -0.25], [0.5, 0.25, -0.125],
                      [-0.25, -0.125, 0.0625]])
    x0 = np.full((3, 1), 0.3)
    onebit = RecoveryProblem(make_onebit_loss(m_hat), m_hat, 1, 0.5, 2.0,
                             onebit_rho2(6.0), np.linalg.norm(m_hat))
    # (x^2 - 1)^2 / 2 from the saddle x = 0: perturbations, then a revert.
    op = LinearOperator(np.ones((1, 1, 1)))
    scalar = RecoveryProblem(LinearLoss(op, np.ones(1)), np.ones((1, 1)), 1,
                             0.0, 1.0, 0.0, 1.0)
    params = pgd_params(scalar, c=0.5, kappa=1.0, gamma=0.1)
    # A 2x1 truth through the balanced lift, from the saddle X = 0: one
    # perturbation, then plain steps.
    m_star = np.array([[1.0], [0.5]])
    lin = LinearOperator(np.eye(2).reshape(2, 2, 1))
    _, _, m_tilde = balance_and_augment(m_star, 1)
    lift = LiftedLoss(LinearLoss(lin, lin.apply(m_star)), 0.0)
    lifted = RecoveryProblem(lift, m_tilde, 1, lift.delta, 3.0, 0.0,
                             np.linalg.norm(m_tilde))
    lifted_params = pgd_params(lifted, c=0.5, kappa=1.0, gamma=0.1)
    runs = [
        (lambda: gradient_descent(onebit, x0, eta=0.05, max_iters=40,
                                  tol=0.0), False),
        (lambda: perturbed_gd(lifted, np.zeros((3, 1)), lifted_params,
                              eps_target=1e-6, max_iters=300, seed=3), True),
        (lambda: perturbed_gd(scalar, np.zeros((1, 1)), params,
                              eps_target=1e-6, max_iters=20000, seed=3), False),
    ]
    for run, is_lifted in runs:
        tracer = tracing.Tracer()
        patches = tracing.Patches()
        try:
            tracer.install(patches)
            trace = run()
        finally:
            patches.restore()
        names = [tracer.names[i] for i in tracer.name]
        expected = len(trace) + int(trace.perturbed.sum())
        assert names.count("factored.value_and_grad") == expected
        assert names.count("losses.value_and_grad") == expected
        # A revert restores the saved gradient instead of recomputing it.
        assert names.count("factored.grad") == 0
        lifted_spans = names.count("factored.lifted_value_and_grad")
        assert lifted_spans == (expected if is_lifted else 0)
        if is_lifted:
            assert trace.perturbed.any()
    # The pgd run took both the perturbation and the revert branch.
    assert trace.perturbed.any() and trace.phase2_start


def test_benchmark_tracer_sees_every_certify_layer():
    # The traced certify-sweep fails on a layer that records no calls, so a
    # check that stops calling saddle_eta0, x_operator, g_hess_min_eig or
    # another traced certificate function must fail here first.
    tracing = load_perfbench("tracing")
    layers = load_perfbench("layers")
    counts = {"gradhessian": 3, "saddle": 6, "pl_dual": 3, "normcompare": 4}
    tracer = tracing.Tracer()
    patches = tracing.Patches()
    try:
        tracer.install(patches)
        report = ripgd.certify.run_certificate_suites(seed=0, **counts)
    finally:
        patches.restore()
    assert all(suite["failures"] == 0 for suite in report.values())
    spans = layers.Spans(tracer)
    assert layers.missing_layers(spans, "certify-sweep") == []
    assert spans.count("certify.verify_gradhessian") == counts["gradhessian"]
    assert spans.count("factored.hess_min_eig") == counts["gradhessian"]
    assert spans.count("certify.pl_dual_bound") == counts["pl_dual"]
    assert spans.count("certify.normcompare_check") == counts["normcompare"]
