import json
import math
from pathlib import Path

import numpy as np
import pytest

from ripgd import rip
from ripgd.losses import LinearOperator, LinearLoss, RecoveryProblem, onebit_rho2
from ripgd.rip import local_region_sym
from ripgd.solver import Trace, pgd_params
from ripgd.cli import (
    ExperimentConfig,
    config_hash,
    parse_config,
    config_from_mapping,
    load_config,
    derived_seeds,
    default_kappa,
    build_instance,
    run_experiment,
    main,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_parse_config():
    text = """
    # instance
    kind = sym-linear   # trailing comment
    n = 8

    r = 1
    """
    data = parse_config(text)
    assert data == {"kind": "sym-linear", "n": "8", "r": "1"}
    with pytest.raises(ValueError, match="duplicate"):
        parse_config("n = 1\nn = 2\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config("just some words\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config("n =\n")


def test_config_from_mapping():
    data = {"kind": "sym-linear", "n": "8", "r": "1", "p": "40",
            "kappa": "auto", "c": "0.75"}
    cfg = config_from_mapping(data)
    assert cfg.kappa is None and cfg.c == 0.75 and cfg.p == 40
    cfg = config_from_mapping(data, overrides={"seed": 5, "out": None})
    assert cfg.seed == 5 and cfg.out is None
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_mapping({"kind": "sym-linear", "n": "8", "r": "1",
                             "p": "40", "bogus": "1"})
    with pytest.raises(ValueError, match="must set"):
        config_from_mapping({"kind": "sym-linear", "n": "8"})
    with pytest.raises(ValueError, match="cannot be auto"):
        config_from_mapping({"kind": "sym-linear", "n": "auto", "r": "1",
                             "p": "40"})
    # Integer keys take integral floats such as the README's 1e5; every
    # other malformed or non-finite value is refused naming its key.
    assert config_from_mapping({**data, "max_iters": "1e5"}).max_iters == 100000
    for key, value in (("max_iters", "4.5"), ("c", "inf"), ("grad_tol", "nan"),
                       ("n", "eight")):
        with pytest.raises(ValueError, match="config key '%s'" % key):
            config_from_mapping({**data, key: value})


def test_config_defaults():
    cfg = ExperimentConfig(kind="sym-linear", n=8, r=1, p=40)
    assert cfg.m == 8 and cfg.solver == "pgd"
    assert cfg.eps_target == 1e-8 and cfg.max_iters == 100000
    ob = ExperimentConfig(kind="onebit", n=6, r=2)
    assert ob.solver == "gd" and ob.eps_target == 1e-6
    assert ob.max_iters == 500000 and ob.p is None


def test_config_validation():
    good = dict(kind="sym-linear", n=8, r=1, p=40)
    with pytest.raises(ValueError, match="kind"):
        ExperimentConfig(**{**good, "kind": "other"})
    with pytest.raises(ValueError, match="drop p"):
        ExperimentConfig(kind="onebit", n=6, r=2, p=10)
    with pytest.raises(ValueError, match="needs m"):
        ExperimentConfig(kind="asym-linear", n=6, r=2, p=10)
    with pytest.raises(ValueError, match="square"):
        ExperimentConfig(**{**good, "m": 7})
    with pytest.raises(ValueError, match="measurements"):
        ExperimentConfig(kind="sym-linear", n=8, r=1)
    with pytest.raises(ValueError, match="eta applies to gd"):
        ExperimentConfig(**{**good, "eta": 0.1})
    with pytest.raises(ValueError, match="r must lie"):
        ExperimentConfig(**{**good, "r": 9})
    for bad in (0.0, 1.5):
        with pytest.raises(ValueError, match="gamma"):
            ExperimentConfig(**{**good, "gamma": bad})
    ExperimentConfig(**{**good, "gamma": 1.0})
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(**{**good, "seed": -1})
    with pytest.raises(ValueError, match="solver"):
        ExperimentConfig(**{**good, "solver": "adam"})
    with pytest.raises(ValueError, match="eps_target"):
        ExperimentConfig(**{**good, "eps_target": 0.0})
    with pytest.raises(ValueError, match="kappa must be positive"):
        ExperimentConfig(**{**good, "kappa": 0.0})
    with pytest.raises(ValueError, match="eta must be positive"):
        ExperimentConfig(kind="onebit", n=6, r=2, eta=-0.1)
    for key, bad in (("max_iters", 0), ("c", 0.0), ("grad_tol", -1e-3),
                     ("rip_samples", 0)):
        with pytest.raises(ValueError, match="^%s must be" % key):
            ExperimentConfig(**{**good, key: bad})
    for bad in (dict(good, n=0), dict(kind="asym-linear", n=4, m=0, r=1, p=9)):
        with pytest.raises(ValueError, match="n and m must be positive"):
            ExperimentConfig(**bad)
    # Direct construction skips the config-file parser; non-finite floats
    # are still refused, naming the key.
    for key in ("c", "kappa", "gamma", "eps_target", "grad_tol"):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="config key '%s' must be finite"
                               % key):
                ExperimentConfig(**{**good, key: bad})
    with pytest.raises(ValueError, match="config key 'eta' must be finite"):
        ExperimentConfig(kind="onebit", n=6, r=2, eta=math.inf)
    with pytest.raises(ValueError, match="config key 'max_iters' must be finite"):
        ExperimentConfig(**{**good, "max_iters": math.inf})
    # An integer beyond the float range in a float field is refused like the
    # inf a config file parses the same digits to.
    for key in ("c", "eps_target"):
        with pytest.raises(ValueError, match="config key '%s' must be finite"
                           % key):
            ExperimentConfig(kind="onebit", n=4, r=1, **{key: 10 ** 400})
    # Integers are exact at any size: a 400-digit seed is a valid seed.
    huge = ExperimentConfig(kind="onebit", n=4, r=1, seed=10 ** 400)
    assert huge.seed == 10 ** 400 and len(config_hash(huge)) == 64
    problem, x0, _, _ = build_instance(huge)
    assert np.isfinite(x0).all() and problem.m_star.shape == (4, 4)
    with pytest.raises(ValueError, match="config key 'max_iters' must be an integer"):
        ExperimentConfig(**{**good, "max_iters": 2.5})


def test_config_hash():
    a = ExperimentConfig(kind="sym-linear", n=8, r=1, p=40)
    b = ExperimentConfig(kind="sym-linear", n=8, r=1, p=40)
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 64
    c = ExperimentConfig(kind="sym-linear", n=8, r=1, p=40, seed=1)
    assert config_hash(a) != config_hash(c)
    # The output location does not define the experiment.
    d = ExperimentConfig(kind="sym-linear", n=8, r=1, p=40, out="/tmp/x")
    assert config_hash(a) == config_hash(d)
    # Integer fields are stored as int whichever way they arrive, so a count
    # given as a float or a numpy integer hashes like the parsed file value.
    parsed = config_from_mapping({"kind": "onebit", "n": "4", "r": "1",
                                  "max_iters": "1e5"})
    direct = ExperimentConfig(kind="onebit", n=np.int64(4), r=1, max_iters=1e5)
    assert type(direct.n) is int and type(direct.max_iters) is int
    assert config_hash(direct) == config_hash(parsed)


def test_derived_seeds():
    seeds = derived_seeds(3)
    assert set(seeds) == {"operator", "rip", "truth", "init", "rho1", "noise"}
    assert len(set(seeds.values())) == 6
    assert not set(seeds.values()) & set(derived_seeds(4).values())


def scalar_problem():
    op = LinearOperator(np.ones((1, 1, 1)))
    m_star = np.array([[0.5]])
    loss = LinearLoss(op, op.apply(m_star))
    return RecoveryProblem(loss, m_star, 1, 0.0, 1.0, 0.0, 1.0)


def test_default_kappa_hits_threshold_target():
    problem = scalar_problem()
    kappa = default_kappa(problem, c=0.5, gamma=0.1)
    target = (0.02 * 2.0 * (1.0 - problem.delta)
              * local_region_sym(problem.delta, problem.sigma_r)
              * math.sqrt(problem.sigma_r))
    got = pgd_params(problem, 0.5, kappa, 0.1).g_thres
    assert got == pytest.approx(target, rel=1e-6)


def test_build_instance_onebit_truth_capped():
    cfg = ExperimentConfig(kind="onebit", n=6, r=2, seed=2)
    problem, x0, est, seeds = build_instance(cfg)
    assert est is None
    entries = np.abs(problem.m_star)
    assert entries.max() == pytest.approx(2.29, rel=1e-12)
    assert problem.delta == 0.5
    assert problem.rho1 == 2.0
    assert problem.rho2 == pytest.approx(onebit_rho2(6.0), rel=1e-12)
    assert x0.shape == (6, 2)


@pytest.mark.parametrize("name", ["fig1a", "fig1b"])
def test_build_instance_same_with_one_and_two_workers(monkeypatch, name):
    # The figure configs with the RIP estimate on one thread and on two.
    config = load_config(str(CONFIGS / (name + ".conf")))
    built = []
    for workers in (1, 2):
        monkeypatch.setattr(rip, "_workers", lambda chunks: workers)
        problem, _, est, _ = build_instance(config)
        built.append((est, problem.rho1,
                      default_kappa(problem, config.c, config.gamma)))
    assert built[0] == built[1]


def test_run_experiment_pgd_deterministic(tmp_path):
    base = dict(kind="sym-linear", n=8, r=1, p=40, seed=1, rip_samples=500,
                eps_target=1e-3)
    outs = []
    for name in ("a", "b"):
        cfg = ExperimentConfig(out=str(tmp_path / name), **base)
        trace, summary, out_dir = run_experiment(cfg)
        outs.append(out_dir)
    for out_dir in outs:
        assert {p.name for p in Path(out_dir).iterdir()} == {"trace.csv",
                                                              "summary.json"}
    for fname in ("trace.csv", "summary.json"):
        with open(f"{outs[0]}/{fname}", "rb") as fh:
            first = fh.read()
        with open(f"{outs[1]}/{fname}", "rb") as fh:
            second = fh.read()
        assert first == second, fname

    with open(f"{outs[0]}/summary.json") as fh:
        summary = json.load(fh)
    assert set(summary) == {"config", "config_sha256", "problem", "radii",
                            "solver", "result"}
    assert summary["result"]["stop_reason"] == "eps_target"
    assert summary["result"]["final_dist"] <= 1e-3
    assert summary["solver"]["name"] == "pgd"
    assert summary["solver"]["params"]["eta"] == summary["solver"]["eta"]
    assert summary["problem"]["phi"] is None
    assert summary["problem"]["rip"]["samples"] == 500
    assert 0 <= summary["problem"]["delta"] < 1
    assert summary["config_sha256"] == config_hash(
        ExperimentConfig(**base))


def test_run_experiment_gd_onebit(tmp_path):
    cfg = ExperimentConfig(kind="onebit", n=6, r=2, seed=2, eps_target=1e-3,
                           out=str(tmp_path))
    trace, summary, out_dir = run_experiment(cfg)
    assert summary["solver"]["name"] == "gd"
    assert summary["solver"]["params"] is None
    assert summary["solver"]["noise_seed"] is None
    assert summary["problem"]["rip"] is None
    assert summary["result"]["stop_reason"] == "eps_target"
    assert summary["result"]["final_dist"] <= 1e-3
    assert not np.asarray(trace.perturbed).any()


def test_run_experiment_asym(tmp_path):
    cfg = ExperimentConfig(kind="asym-linear", n=5, m=4, r=2, p=60, seed=3,
                           c=2.0, rip_samples=500, eps_target=1e-2,
                           out=str(tmp_path))
    trace, summary, out_dir = run_experiment(cfg)
    prob = summary["problem"]
    # The lifted factor stacks both sides, and the lift maps a base
    # isometry constant d to 2d/(1+d) with balance weight (1-d)/2.
    assert prob["factor_rows"] == 9
    base = prob["base_delta"]
    assert prob["delta"] == pytest.approx(2 * base / (1 + base), rel=1e-12)
    assert prob["phi"] == pytest.approx((1 - base) / 2, rel=1e-12)
    assert prob["m_star_norm"] == pytest.approx(prob["bound_d"], rel=1e-6) \
        or prob["m_star_norm"] <= prob["bound_d"]
    assert summary["result"]["final_dist"] <= 1e-2


def test_main_run_writes_trace_and_summary(tmp_path, capsys):
    cfg_path = tmp_path / "onebit.conf"
    cfg_path.write_text("kind = onebit\nn = 6\nr = 2\nseed = 2\n"
                        "eps_target = 1e-3\n")
    out_dir = tmp_path / "run"
    assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 0
    captured = capsys.readouterr().out
    assert "summary.json" in captured and "stop=eps_target" in captured
    assert {p.name for p in out_dir.iterdir()} == {"trace.csv", "summary.json"}
    # The plot series are trace.csv's columns, the markers summary.json's.
    trace = Trace.from_csv(out_dir / "trace.csv")
    with open(out_dir / "summary.json") as fh:
        result = json.load(fh)["result"]
    assert result["first_in_region"] == trace.first_in_region
    assert result["phase2_start"] == trace.phase2_start


def test_main_run_eps_override(tmp_path):
    cfg_path = tmp_path / "onebit.conf"
    cfg_path.write_text("kind = onebit\nn = 6\nr = 2\nseed = 2\n")
    out_dir = tmp_path / "run"
    assert main(["run", str(cfg_path), "--out", str(out_dir),
                 "--eps", "1e-2"]) == 0
    with open(out_dir / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["config"]["eps_target"] == 1e-2


def usage_error(capsys, argv):
    """Run main on bad input; return its one-line stderr after exit code 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


def test_main_run_rejects_nonfinite_eps(tmp_path, capsys):
    cfg_path = tmp_path / "onebit.conf"
    cfg_path.write_text("kind = onebit\nn = 4\nr = 1\n")
    out_dir = tmp_path / "run"
    for bad in ("inf", "nan"):
        err = usage_error(capsys, ["run", str(cfg_path), "--out", str(out_dir),
                                   "--eps", bad])
        assert err.startswith("ripgd run: error: config key 'eps_target'")
    assert not (out_dir / "summary.json").exists()


def test_main_reports_bad_input_as_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.conf")
    assert usage_error(capsys, ["run", missing]).startswith("ripgd run: error:")
    assert "missing.conf" in usage_error(capsys, ["rip-estimate", missing])
    bad = tmp_path / "bad.conf"
    bad.write_text("kind = sym-linear\nn = 4\nr = 1\np = 10\nmax_iters = 4.5\n")
    for command in ("run", "rip-estimate"):
        assert usage_error(capsys, [command, str(bad)]) == (
            "ripgd %s: error: config key 'max_iters' must be an integer, "
            "got 4.5\n" % command)
    bad.write_text("kind = onebit\nn = 4\nr = 1\nc = 1%s\n" % ("0" * 400))
    assert usage_error(capsys, ["run", str(bad)]) == (
        "ripgd run: error: config key 'c' must be finite, got inf\n")
    # There is no plot-data command: plot from trace.csv's columns.
    with pytest.raises(SystemExit) as exc:
        main(["plot-data", str(tmp_path / "trace.csv")])
    assert exc.value.code == 2
    assert "invalid choice: 'plot-data'" in capsys.readouterr().err
    assert usage_error(capsys, ["certify", "--seed", "-1"]) == (
        "ripgd certify: error: --seed must be nonnegative\n")
    # The first negative count is reported, before any sweep runs.
    assert usage_error(capsys, [
        "certify", "--gradhessian", "-5", "--saddle", "-1", "--pl-dual", "-2",
        "--normcompare", "-3", "--out", str(tmp_path / "report.json")]) == (
        "ripgd certify: error: --gradhessian must be nonnegative\n")
    for flag in ("--saddle", "--pl-dual", "--normcompare"):
        assert usage_error(capsys, ["certify", flag, "-1"]) == (
            "ripgd certify: error: %s must be nonnegative\n" % flag)
    assert not (tmp_path / "report.json").exists()
    onebit = tmp_path / "onebit.conf"
    onebit.write_text("kind = onebit\nn = 6\nr = 2\n")
    assert usage_error(capsys, ["rip-estimate", str(onebit)]) == (
        "ripgd rip-estimate: error: rip-estimate needs a linear kind, "
        "got onebit\n")


def test_main_run_refuses_kappa_on_gd(tmp_path, capsys):
    # gd never reads kappa, which would still change the config hash.
    cfg_path = tmp_path / "onebit.conf"
    cfg_path.write_text("kind = onebit\nn = 10\nr = 5\nkappa = 3\n")
    assert usage_error(capsys, ["run", str(cfg_path)]) == (
        "ripgd run: error: pgd derives its constants from kappa; kappa does "
        "not apply to gd\n")
    with pytest.raises(ValueError, match="kappa does not apply to gd"):
        config_from_mapping({"kind": "sym-linear", "n": "8", "r": "1",
                             "p": "40", "solver": "gd", "kappa": "3"})
    cfg_path.write_text("kind = onebit\nn = 10\nr = 5\nkappa = auto\n")
    assert load_config(cfg_path).kappa is None


def test_main_run_refuses_oversized_operator(tmp_path, capsys):
    # 4001 * 4001 one-entry sensing matrices pass the dense limit.
    cfg_path = tmp_path / "big.conf"
    cfg_path.write_text("kind = sym-linear\nn = 1\nr = 1\np = 16008001\n")
    for command in ("run", "rip-estimate"):
        assert usage_error(capsys, [command, str(cfg_path)]) == (
            "ripgd %s: error: config keys p, n, m: 16008001 entries exceed "
            "the dense limit 16000000\n" % command)


def test_config_refuses_dense_truth_and_lift():
    # Refused at validation, before any build: the 1-bit truth is n x n and
    # the asym-linear lift is (n+m) x (n+m), whatever p is.
    ExperimentConfig(kind="onebit", n=4000, r=1)
    ExperimentConfig(kind="asym-linear", n=3999, m=1, r=1, p=1)
    for bad, entries in ((dict(kind="onebit", n=4001, r=1), 4001 ** 2),
                         (dict(kind="onebit", n=100000, r=1), 100000 ** 2),
                         (dict(kind="asym-linear", n=4000, m=1, r=1, p=1),
                          4001 ** 2),
                         (dict(kind="asym-linear", n=100000, m=1, r=1, p=1),
                          100001 ** 2)):
        with pytest.raises(ValueError, match=(
                "^config keys n, m: %d entries exceed the dense limit "
                "16000000$" % entries)):
            ExperimentConfig(**bad)


def test_main_rip_estimate(tmp_path, capsys):
    cfg_path = tmp_path / "sym.conf"
    cfg_path.write_text("kind = sym-linear\nn = 8\nr = 1\np = 40\n"
                        "rip_samples = 500\n")
    est_path = tmp_path / "est.json"
    assert main(["rip-estimate", str(cfg_path), "--out", str(est_path)]) == 0
    printed = capsys.readouterr().out
    with open(est_path) as fh:
        est = json.load(fh)
    assert est["samples"] == 500 and 0 <= est["delta"] < 1
    assert json.loads(printed.split("\n", 1)[1]) == est

    ob_path = tmp_path / "ob.conf"
    ob_path.write_text("kind = onebit\nn = 6\nr = 2\n")
    assert "linear kind" in usage_error(capsys, ["rip-estimate", str(ob_path)])


def test_main_certify(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["certify", "--seed", "0", "--gradhessian", "3",
                 "--saddle", "10", "--pl-dual", "5", "--normcompare", "10",
                 "--out", str(report_path)])
    assert code == 0
    with open(report_path) as fh:
        report = json.load(fh)
    assert report["normcompare"]["failures"] == 0
    assert "saddle_eta0" in capsys.readouterr().out


def test_load_config_round_trip(tmp_path):
    cfg_path = tmp_path / "exp.conf"
    cfg_path.write_text("kind = sym-linear\nn = 8\nr = 1\np = 40\n"
                        "kappa = auto\nsolver = auto\n")
    cfg = load_config(str(cfg_path), overrides={"seed": 9})
    assert cfg.seed == 9 and cfg.kappa is None and cfg.solver == "pgd"
