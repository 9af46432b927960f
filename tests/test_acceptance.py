"""End-to-end acceptance gate.

Each numbered test checks one criterion and prints a single
``ACCEPTANCE criterion N: PASS|FAIL`` line (also collected into the
terminal summary by conftest.py).  The three experiment configs under
configs/ are run exactly as the command line would run them.
"""

import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import linregress

from ripgd import rip
from ripgd.losses import LinearLoss, make_gaussian_operator, make_onebit_loss
from ripgd.factored import balance_and_augment
from ripgd.rip import lift_delta, pl_radius_sym, local_region_sym
from ripgd.solver import level_set_violation
from ripgd.certify import run_certificate_suites
from ripgd.cli import load_config, main, run_experiment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# sha256 of the artifacts each config writes; equal with 1 and 2 BLAS
# threads.  A change that alters them says why in CHANGES.md.
GOLDEN = {
    # The solve runs on the packed symmetrized operator; against the drawn
    # operator it replaced, only the f, grad_norm and dist columns and the
    # three result.final_* keys moved, in the last bits.  The iteration
    # count and every other column and key kept its bytes.
    "fig1a": {
        "trace.csv": "fc8db928e07a319bf451d35aae74217e6d45ac5b5b4d493b058f897919fb901e",
        "summary.json": "1a1010ab490875b46ef71027274d3dfe7e9e767cd9b10a29ce56f29d2b628a72",
    },
    # The lifted value is one signed sum over N; against the block sums
    # that came before, only the f column and result.final_f moved, in the
    # last bits.  Every other column and key kept its bytes.
    "fig1b": {
        "trace.csv": "d3d74288e0bb0fb5847be818812f5fd7d4492f9d45060ab2dc33eef33a7ac9cc",
        "summary.json": "cc6f7e2976a4abdb9883c2361092021bd06578ee7b13f6cd123f0bd912a55f72",
    },
    "fig1c": {
        "trace.csv": "2b473a6865c1085f3e57203b7aadc88d397e40cb11a22b197dbb1ce5b823e91c",
        "summary.json": "4337c69df27a506903287c2233b63c5579cd491ed214c4487101102018db239b",
    },
}


# sha256 of the report that `ripgd certify --out` writes at the default
# counts and seed 0.
GOLDEN_CERTIFY = "f9d69a06a830e970cd1f3fb3972e0539c1f9e5ab5b44e357227b583f331e7c1d"
# The same at seed 1.  A report keeps only the extremes of each suite, so a
# second seed's report catches more checks whose bits moved.
GOLDEN_CERTIFY_SEED1 = (
    "7121dfae4b439b598ddea56e4cc5dd9af2bb5562d7c6ef891dc39a4a2306f989")
# The same at seed 0 with ten times the default counts, the benchmark's
# sweep: each shape group of the saddle and normcompare suites then holds
# hundreds of pairs, checked in one stacked call.
GOLDEN_CERTIFY_10X = (
    "84f0c5ae4e3768ec6b0c7e974566e771ade775f4d32d290da07df7de7c22b7b7")


@pytest.fixture(scope="module")
def run_root(tmp_path_factory):
    return tmp_path_factory.mktemp("runs")


def _run(name, run_root):
    config = load_config(str(CONFIG_DIR / (name + ".conf")),
                         overrides={"out": str(run_root / name)})
    start = time.perf_counter()
    trace, summary, _ = run_experiment(config)
    return trace, summary, time.perf_counter() - start


@pytest.fixture(scope="module")
def fig1a(run_root):
    return _run("fig1a", run_root)


@pytest.fixture(scope="module")
def fig1b(run_root):
    return _run("fig1b", run_root)


@pytest.fixture(scope="module")
def fig1c(run_root):
    return _run("fig1c", run_root)


def _finish(n, checks):
    ok = all(checks.values())
    print("ACCEPTANCE criterion %d: %s" % (n, "PASS" if ok else "FAIL"))
    failed = {k: v for k, v in checks.items() if not v}
    assert ok, "criterion %d failed: %s" % (n, sorted(failed))


def _log_slope_fit(trace, start):
    fit = linregress(trace.t[start:], np.log10(trace.dist[start:]))
    return float(fit.slope), float(fit.rvalue ** 2)


def _marker_checks(trace, summary, elapsed, checks):
    res = summary["result"]
    marker = res["first_in_region"]
    checks["marker_set"] = marker is not None
    if marker is not None:
        slope, r2 = _log_slope_fit(trace, marker)
        checks["slope_negative"] = slope < 0.0
        checks["linear_fit_r2"] = r2 >= 0.95
    checks["runtime_60s"] = elapsed <= 60.0


@pytest.mark.acceptance(1)
def test_criterion_1_symmetric_linear_run(fig1a):
    trace, summary, elapsed = fig1a
    checks = {}
    checks["delta_window"] = 0.41 <= summary["problem"]["delta"] <= 0.57
    res = summary["result"]
    checks["dist_1e8"] = res["final_dist"] <= 1e-8
    checks["within_1e5_iters"] = res["iterations"] <= 100000
    _marker_checks(trace, summary, elapsed, checks)
    _finish(1, checks)


@pytest.mark.acceptance(2)
def test_criterion_2_asymmetric_lifted_run(fig1b):
    trace, summary, elapsed = fig1b
    prob = summary["problem"]
    checks = {}
    checks["delta_window"] = 0.25 <= prob["base_delta"] <= 0.40
    checks["balance_weight"] = prob["phi"] == pytest.approx(
        (1.0 - prob["base_delta"]) / 2.0, rel=1e-12)
    checks["dist_1e8"] = summary["result"]["final_dist"] <= 1e-8
    _marker_checks(trace, summary, elapsed, checks)
    _finish(2, checks)


@pytest.mark.acceptance(3)
def test_criterion_3_onebit_run(fig1c):
    trace, summary, elapsed = fig1c
    checks = {}
    checks["solver_is_gd"] = summary["solver"]["name"] == "gd"
    checks["dist_1e6"] = summary["result"]["final_dist"] <= 1e-6
    _finish(3, checks)


@pytest.mark.acceptance(4)
def test_criterion_4_log_eps_iteration_scaling(fig1a):
    trace, summary, _ = fig1a
    p2 = trace.phase2_start
    checks = {"phase2_exists": p2 is not None}
    if p2 is not None:
        iters, logs = [], []
        for eps in (1e-4, 1e-6, 1e-8):
            hits = np.flatnonzero((trace.phase == 2) & (trace.dist <= eps))
            if len(hits) == 0:
                break
            iters.append(int(hits[0]) - p2)
            logs.append(math.log(1.0 / eps))
        checks["all_targets_reached"] = len(iters) == 3
        if len(iters) == 3:
            checks["monotone"] = iters[0] < iters[1] < iters[2]
            fit = linregress(logs, iters)
            checks["affine_fit_r2"] = float(fit.rvalue ** 2) >= 0.98
    _finish(4, checks)


@pytest.mark.acceptance(5)
def test_criterion_5_certificate_suites():
    start = time.perf_counter()
    results = run_certificate_suites(seed=0, gradhessian=100, saddle=500,
                                     pl_dual=200, normcompare=1000)
    elapsed = time.perf_counter() - start
    checks = {
        "gradhessian_100": results["gradhessian"]["count"] == 100
        and results["gradhessian"]["failures"] == 0,
        "saddle_500": results["saddle_eta0"]["count"] == 500
        and results["saddle_eta0"]["failures"] == 0
        and results["saddle_eta0"]["max_eta0"] <= 1.0 / 3.0 + 1e-8,
        "pl_dual_200": results["pl_dual"]["count"] == 200
        and results["pl_dual"]["failures"] == 0,
        "normcompare_1000": results["normcompare"]["count"] == 1000
        and results["normcompare"]["failures"] == 0,
        "runtime_120s": elapsed <= 120.0,
    }
    _finish(5, checks)


def _fd_grad_relerr(loss, M, h=1e-6):
    grad = loss.grad(M)
    num = np.zeros_like(grad)
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            E = np.zeros_like(M)
            E[i, j] = h
            num[i, j] = (loss.value(M + E) - loss.value(M - E)) / (2 * h)
    return float(np.linalg.norm(num - grad) / max(1.0, np.linalg.norm(grad)))


def _fd_hess_relerr(loss, M, K, L, h=1e-4):
    got = loss.hess_gram(M, np.stack([K, L]))[0, 1]
    fpp = loss.value(M + h * (K + L))
    fpm = loss.value(M + h * (K - L))
    fmp = loss.value(M - h * (K - L))
    fmm = loss.value(M - h * (K + L))
    num = (fpp - fpm - fmp + fmm) / (4 * h * h)
    return float(abs(num - got) / max(1.0, abs(got)))


@pytest.mark.acceptance(6)
def test_criterion_6_property_suites(fig1a):
    trace, summary, _ = fig1a
    rng = np.random.default_rng(0)
    checks = {}

    op = make_gaussian_operator(4, 4, 20, seed=1)
    linear = LinearLoss(op, rng.standard_normal(20))
    onebit = make_onebit_loss(rng.uniform(-2.0, 2.0, (4, 4)))
    for label, loss in (("linear", linear), ("onebit", onebit)):
        M = rng.standard_normal((4, 4))
        K = rng.standard_normal((4, 4))
        L = rng.standard_normal((4, 4))
        checks["fd_grad_" + label] = _fd_grad_relerr(loss, M) <= 1e-4
        checks["fd_hess_" + label] = _fd_hess_relerr(loss, M, K, L) <= 1e-3

    # Every recorded phase-2 step of the symmetric run obeys
    # f(X') <= f(X) - eta/2 ||grad||^2 up to float rounding.
    worst = -np.inf
    for i in range(len(trace) - 1):
        if trace.phase[i] != 2 or trace.phase[i + 1] != 2 or trace.perturbed[i + 1]:
            continue
        bound = trace.f[i] - 0.5 * trace.eta * trace.grad_norm[i] ** 2
        worst = max(worst, float(trace.f[i + 1] - bound))
    checks["phase2_descent"] = worst <= 1e-12 * max(1.0, float(trace.f.max()))

    problem_view = types.SimpleNamespace(delta=summary["problem"]["delta"])
    checks["level_set_slack"] = level_set_violation(trace, problem_view) <= 1e-6

    worst_norm = 0.0
    worst_sv = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(2, 8))
        r = int(rng.integers(1, min(n, m) + 1))
        m_star = rng.standard_normal((n, r)) @ rng.standard_normal((m, r)).T
        _, _, m_tilde = balance_and_augment(m_star, r)
        sv = np.linalg.svd(m_star, compute_uv=False)
        sv_t = np.linalg.svd(m_tilde, compute_uv=False)
        scale = np.linalg.norm(m_star)
        worst_norm = max(worst_norm, abs(np.linalg.norm(m_tilde) - 2 * scale) / scale)
        worst_sv = max(worst_sv, abs(sv_t[r - 1] - 2 * sv[r - 1]) / sv[r - 1])
    checks["augmented_norm_doubles"] = worst_norm <= 1e-10
    checks["augmented_sigma_r_doubles"] = worst_sv <= 1e-10

    _finish(6, checks)


@pytest.mark.acceptance(7)
def test_criterion_7_formula_table():
    checks = {
        "pl_radius_sym": abs(pl_radius_sym(0.0, 1.0) - 0.9102) <= 1e-4,
        # The asymmetric radius: the symmetric one at the lifted constants.
        "pl_radius_asym": abs(pl_radius_sym(lift_delta(0.0), 2.0) - 1.2872)
        <= 1e-4,
        "local_region_sym": abs(local_region_sym(0.0, 1.0) - 0.8284) <= 1e-4,
    }
    _finish(7, checks)


def test_golden_artifact_hashes(fig1a, fig1b, fig1c, run_root):
    got = {
        name: {artifact: hashlib.sha256((run_root / name / artifact)
                                        .read_bytes()).hexdigest()
               for artifact in files}
        for name, files in GOLDEN.items()
    }
    assert got == GOLDEN


def _run_with_blas_threads(threads, code):
    """Run ``code`` in a fresh interpreter with ``threads`` BLAS threads.

    A fresh interpreter per BLAS thread count: the count is fixed when
    numpy loads its BLAS.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], check=True, env=env,
                   stdout=subprocess.DEVNULL)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_certify_report(tmp_path, threads):
    report = tmp_path / "certify.json"
    _run_with_blas_threads(threads, "from ripgd.cli import main; "
                           "raise SystemExit(main(['certify', '--out', %r]))"
                           % str(report))
    assert hashlib.sha256(report.read_bytes()).hexdigest() == GOLDEN_CERTIFY


def test_golden_certify_report_seed1(tmp_path):
    report = tmp_path / "certify.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["certify", "--seed", "1", "--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == GOLDEN_CERTIFY_SEED1


def test_golden_certify_report_ten_times_counts(tmp_path):
    report = tmp_path / "certify.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["certify", "--gradhessian", "1000", "--saddle", "5000",
                     "--pl-dual", "2000", "--normcompare", "10000",
                     "--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == GOLDEN_CERTIFY_10X


@pytest.mark.parametrize("name", ["fig1a", "fig1b"])
def test_rip_estimate_same_bytes_across_blas_threads(tmp_path, monkeypatch,
                                                     name):
    # With 1 BLAS thread the estimate runs on one thread per free core, with
    # 2 on fewer; forced onto one thread in-process it is the sequential
    # loop.  All three write the same JSON.
    config = str(CONFIG_DIR / (name + ".conf"))
    written = []
    for threads in ("1", "2"):
        out = tmp_path / ("blas%s.json" % threads)
        _run_with_blas_threads(threads, "from ripgd.cli import main; "
                               "raise SystemExit(main(['rip-estimate', %r, "
                               "'--out', %r]))" % (config, str(out)))
        written.append(out.read_bytes())
    out = tmp_path / "sequential.json"
    monkeypatch.setattr(rip, "_workers", lambda chunks: 1)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["rip-estimate", config, "--out", str(out)]) == 0
    assert written == [out.read_bytes()] * 2


def test_solve_same_bytes_across_blas_threads(tmp_path):
    # The first 2000 steps of fig1a write the same artifacts with 1 and 2
    # BLAS threads: no product of the set-up or the solve, the packed
    # operator's included, rounds by thread count.
    config = str(CONFIG_DIR / "fig1a.conf")
    written = []
    for threads in ("1", "2"):
        out = tmp_path / ("blas" + threads)
        _run_with_blas_threads(
            threads, "from ripgd.cli import load_config, run_experiment; "
            "run_experiment(load_config(%r, {'max_iters': 2000, 'out': %r}))"
            % (config, str(out)))
        written.append([(out / name).read_bytes()
                        for name in ("trace.csv", "summary.json")])
    assert written[0] == written[1]
    assert written[0][0].count(b"\n") == 2002
