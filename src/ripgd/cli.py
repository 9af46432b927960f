"""Experiment runner and command line entry points.

Experiments are described by a small key-value config file::

    # one key per line, '#' starts a comment
    kind = sym-linear          # sym-linear | asym-linear | onebit
    n = 40                     # rows of the recovered matrix
    r = 1                      # target rank
    p = 120                    # measurements (linear kinds only)
    m = 8                      # columns (asym-linear only, defaults to n)
    seed = 0                   # master seed; everything else derives from it
    c = 0.5                    # step constant, eta = c / l1 for pgd
    kappa = auto               # pgd stationarity tolerance, auto-calibrated
    gamma = 0.1                # failure-probability budget
    eps_target = auto          # stop once ||X X^T - M*||_F reaches this
    max_iters = auto           # gradient step budget
    solver = auto              # pgd | gd (onebit defaults to gd)
    eta = auto                 # gd step override; pgd derives eta from c
    grad_tol = 1e-10           # gd gradient-norm stop
    rip_samples = 10000        # draws for the isometry estimate
    out = runs/example         # output directory

``run`` writes trace.csv (the per-iteration record; plot its t, dist and
grad_norm columns) and summary.json (instance constants, radii, solver
parameters, a hash of the resolved config, and results, among them the
region-entry and phase-switch indices).  Reruns of the same config are
byte-identical; no timestamps are recorded.

``rip-estimate`` calibrates the measurement operator of a linear config, and
``certify`` runs the randomized certificate suites.
"""

import argparse
import hashlib
import json
import math
import numbers
import os
from dataclasses import dataclass, fields

import numpy as np

from . import certify, rip, solver
from .factored import LiftedLoss, balance_and_augment
from .losses import (
    LinearLoss,
    RecoveryProblem,
    _check_dense,
    _norm,
    estimate_rho1,
    make_gaussian_operator,
    make_onebit_loss,
    onebit_rho2,
)

KINDS = ("sym-linear", "asym-linear", "onebit")

# Largest entry magnitude of a 1-bit ground truth: the curvature weights
# 6*sigmoid'(m) stay inside (1/2, 3/2] for |m| <= 2.29, giving delta = 1/2.
ONEBIT_ENTRY_CAP = 2.29
ONEBIT_SCALE = 6.0

# Auto kappa targets a gradient threshold this far below the gradient scale
# at the local-region boundary, so the plain-descent phase starts well
# inside the region.
GTHRES_FRACTION = 0.02


@dataclass
class ExperimentConfig:
    """Resolved experiment description; None fields are filled on init."""

    kind: str
    n: int
    r: int
    m: int = None
    p: int = None
    seed: int = 0
    c: float = 0.5
    kappa: float = None
    gamma: float = 0.1
    eps_target: float = None
    max_iters: int = None
    solver: str = None
    eta: float = None
    grad_tol: float = 1e-10
    rip_samples: int = 10000
    out: str = None

    def __post_init__(self):
        # Every path (config file, command line, code) checks numeric values
        # here and stores them as their field type, so equal experiments
        # hash equally whether a count came in as 100000, 1e5 or np.int64.
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None or f.type is str:
                continue
            # An integer is finite at any size; math.isfinite would overflow
            # converting a seed of more than 308 digits to float.
            if not isinstance(value, numbers.Integral) and not math.isfinite(value):
                raise ValueError("config key %r must be finite, got %r"
                                 % (f.name, value))
            if f.type is int and value != int(value):
                raise ValueError("config key %r must be an integer, got %r"
                                 % (f.name, value))
            try:
                value = f.type(value)
            except OverflowError:
                # An integer beyond the float range, where a parsed file
                # value would have become inf.
                raise ValueError("config key %r must be finite, got an integer "
                                 "beyond the float range" % f.name) from None
            setattr(self, f.name, value)
        if self.kind not in KINDS:
            raise ValueError("kind must be one of %s" % (KINDS,))
        if self.n is None or self.r is None:
            raise ValueError("n and r are required")
        if self.kind == "asym-linear":
            if self.m is None:
                raise ValueError("asym-linear needs m")
        elif self.m is None:
            self.m = self.n
        elif self.m != self.n:
            raise ValueError("%s is square; m must equal n" % self.kind)
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive")
        if not 1 <= self.r <= min(self.n, self.m):
            raise ValueError("r must lie in [1, min(n, m)]")
        if self.kind == "onebit":
            if self.p is not None:
                raise ValueError("onebit observes every entry; drop p")
        elif self.p is None or self.p < 1:
            raise ValueError("%s needs p >= 1 measurements" % self.kind)
        else:
            # Refused here, before any work, as make_gaussian_operator
            # would refuse to draw the p sensing matrices.
            try:
                _check_dense(self.p * self.n * self.m)
            except ValueError as exc:
                raise ValueError("config keys p, n, m: %s" % exc) from None
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.solver is None:
            self.solver = "gd" if self.kind == "onebit" else "pgd"
        if self.solver not in ("pgd", "gd"):
            raise ValueError("solver must be pgd or gd")
        if self.eps_target is None:
            self.eps_target = 1e-6 if self.kind == "onebit" else 1e-8
        if not self.eps_target > 0:
            raise ValueError("eps_target must be positive")
        if self.max_iters is None:
            self.max_iters = 100000 if self.solver == "pgd" else 500000
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if not self.c > 0:
            raise ValueError("c must be positive")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")
        if self.kappa is not None:
            if self.solver == "gd":
                raise ValueError("pgd derives its constants from kappa; "
                                 "kappa does not apply to gd")
            if not self.kappa > 0:
                raise ValueError("kappa must be positive")
        if self.eta is not None:
            if self.solver == "pgd":
                raise ValueError("pgd derives eta from c; eta applies to gd")
            if not self.eta > 0:
                raise ValueError("eta must be positive")
        if self.grad_tol < 0:
            raise ValueError("grad_tol must be nonnegative")
        if self.rip_samples < 1:
            raise ValueError("rip_samples must be positive")

    def to_dict(self):
        """Experiment-defining fields; the output path is excluded."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "out"}


# A config key's field type is its parser; a None default means it may be
# left to derivation with ``auto``.
_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def config_hash(config):
    canon = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def parse_config(text):
    """Parse 'key = value' lines into a string mapping."""
    data = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ValueError("line %d: expected 'key = value'" % lineno)
        if key in data:
            raise ValueError("line %d: duplicate key %r" % (lineno, key))
        data[key] = value
    return data


def _parse_value(key, text):
    """Parse one config value by its field type; errors name the key."""
    if key not in _FIELDS:
        raise ValueError("unknown config key %r" % key)
    field = _FIELDS[key]
    if text.lower() == "auto":
        if field.default is not None:
            raise ValueError("config key %r cannot be auto" % key)
        return None
    if field.type is str:
        return text
    if field.type is int:
        try:
            return int(text)
        except ValueError:
            pass
    # Finiteness and integrality are checked by ExperimentConfig.
    try:
        return float(text)
    except ValueError:
        raise ValueError("config key %r: %r is not a number" % (key, text)) from None


def config_from_mapping(data, overrides=None):
    """Build an ExperimentConfig from string values plus overrides."""
    kwargs = {key: _parse_value(key, value) for key, value in data.items()}
    for key in ("kind", "n", "r"):
        if kwargs.get(key) is None:
            raise ValueError("config must set %r" % key)
    if overrides:
        for key, value in overrides.items():
            if value is not None:
                kwargs[key] = value
    return ExperimentConfig(**kwargs)


def load_config(path, overrides=None):
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_mapping(parse_config(fh.read()), overrides)


def derived_seeds(seed):
    """Per-purpose seeds spread out from the master seed."""
    base = int(seed) * 1000003
    return {
        "operator": base + 1,
        "rip": base + 2,
        "truth": base + 3,
        "init": base + 4,
        "rho1": base + 5,
        "noise": base + 6,
    }


def _operator_estimate(config, seeds):
    sym = config.kind == "sym-linear"
    op = make_gaussian_operator(config.n, config.m, config.p, seeds["operator"])
    est = rip.estimate_rip(op, config.r, samples=config.rip_samples,
                           seed=seeds["rip"], symmetric=sym)
    return op.with_scale(est.scale), est


def _build_sym_linear(config, seeds):
    op, est = _operator_estimate(config, seeds)
    z = np.random.default_rng(seeds["truth"]).standard_normal((config.n, config.r))
    m_star = z.dot(z.T)
    # rho1 is measured on the drawn operator, like the isometry estimate.
    rho1 = estimate_rho1(LinearLoss(op, op.apply(m_star)), config.r,
                         est.delta, seed=seeds["rho1"])
    # The solve applies the operator only to symmetric X X^T, where the
    # packed symmetrized operator is the same map on half the stack.
    packed = op.symmetrized()
    loss = LinearLoss(packed, packed.apply(m_star))
    return loss, m_star, est.delta, rho1, 0.0, est


def _build_asym_linear(config, seeds):
    op, est = _operator_estimate(config, seeds)
    rng = np.random.default_rng(seeds["truth"])
    u = rng.standard_normal((config.n, config.r))
    v = rng.standard_normal((config.m, config.r))
    m_star = u @ v.T
    loss = LiftedLoss(LinearLoss(op, op.apply(m_star)), est.delta)
    _, _, m_tilde = balance_and_augment(m_star, config.r)
    rho1 = estimate_rho1(loss, config.r, loss.delta, seed=seeds["rho1"])
    return loss, m_tilde, loss.delta, rho1, 0.0, est


def _build_onebit(config, seeds):
    z = np.random.default_rng(seeds["truth"]).uniform(
        -1.0, 1.0, (config.n, config.r))
    m_hat = z.dot(z.T)
    z = z * math.sqrt(ONEBIT_ENTRY_CAP / float(np.abs(m_hat).max()))
    m_hat = z.dot(z.T)
    loss = make_onebit_loss(m_hat, scale=ONEBIT_SCALE)
    delta = 0.5
    rho1 = max(ONEBIT_SCALE / 4.0, 1.0 + 2.0 * delta)
    return loss, m_hat, delta, rho1, onebit_rho2(ONEBIT_SCALE), None


# Each builder returns (loss, truth, delta, rho1, rho2, est): truth is the
# matrix the factor recovers (lifted for asym-linear), est the RipEstimate.
_BUILDERS = {
    "sym-linear": _build_sym_linear,
    "asym-linear": _build_asym_linear,
    "onebit": _build_onebit,
}


def build_instance(config):
    """Instantiate a config: returns (problem, x0, est, seeds).

    ``est`` is the operator's RipEstimate, None for onebit.  Every kind
    starts from a normal x0 and bounds D = max(||M*||_F, ||x0 x0^T||_F).
    """
    seeds = derived_seeds(config.seed)
    loss, truth, delta, rho1, rho2, est = _BUILDERS[config.kind](config, seeds)
    x0 = np.random.default_rng(seeds["init"]).standard_normal(
        (truth.shape[0], config.r))
    bound_d = max(_norm(truth), _norm(x0.dot(x0.T)))
    problem = RecoveryProblem(loss, truth, config.r, delta, rho1, rho2, bound_d)
    return problem, x0, est, seeds


def default_kappa(problem, c, gamma):
    """Pick kappa so the perturbation trigger sits inside the local region.

    The gradient threshold grows monotonically with kappa, so a geometric
    bisection finds the kappa whose threshold matches GTHRES_FRACTION of
    the gradient scale at the region boundary.
    """
    region = rip.local_region_sym(problem.delta, problem.sigma_r)
    target = (GTHRES_FRACTION * 2.0 * (1.0 - problem.delta) * region
              * math.sqrt(problem.sigma_r))

    def gthres(kappa):
        return solver.pgd_params(problem, c, kappa, gamma).g_thres

    lo, hi = 1e-60, 1.0
    if gthres(lo) >= target:
        raise ValueError("gradient threshold target is degenerate")
    while gthres(hi) < target:
        hi *= 2.0
        if hi > 1e120:
            raise ValueError("no kappa reaches the gradient threshold target")
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if gthres(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi <= lo * (1.0 + 1e-12):
            break
    return math.sqrt(lo * hi)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_experiment(config):
    """Build the instance, run the configured solver, write the artifacts.

    Returns (trace, summary, out_dir).  Everything written is a pure
    function of the resolved config, so reruns are byte-identical.
    """
    out_dir = config.out or "runs/%s-n%d-r%d-seed%d" % (
        config.kind, config.n, config.r, config.seed)
    os.makedirs(out_dir, exist_ok=True)
    problem, x0, est, seeds = build_instance(config)
    dist0 = _norm(x0.dot(x0.T) - problem.m_star)
    params = None
    if config.solver == "pgd":
        kappa = config.kappa
        if kappa is None:
            kappa = default_kappa(problem, config.c, config.gamma)
        params = solver.pgd_params(problem, config.c, kappa, config.gamma)
        eta = params.eta
        trace = solver.perturbed_gd(problem, x0, params, config.eps_target,
                                    max_iters=config.max_iters,
                                    seed=seeds["noise"])
    else:
        eta = config.eta
        if eta is None:
            eta = rip.max_step_sym(problem.rho1, config.r, problem.delta,
                                   dist0, problem.bound_d)
        trace = solver.gradient_descent(problem, x0, eta,
                                        max_iters=config.max_iters,
                                        tol=config.grad_tol,
                                        eps_target=config.eps_target)
    summary = {
        "config": config.to_dict(),
        "config_sha256": config_hash(config),
        "problem": {
            "kind": config.kind,
            "factor_rows": problem.n,
            "r": config.r,
            "delta": float(problem.delta),
            "base_delta": float(problem.delta if est is None else est.delta),
            "phi": (float(problem.loss.phi)
                    if isinstance(problem.loss, LiftedLoss) else None),
            "rip": None if est is None else est.to_dict(),
            "sigma_r": float(problem.sigma_r),
            "sigma_1": problem.sigma_1,
            "m_star_norm": float(problem.m_star_norm),
            "bound_d": float(problem.bound_d),
            "rho1": float(problem.rho1),
            "rho2": float(problem.rho2),
            "dist0": dist0,
        },
        "radii": {
            "local_region": float(rip.local_region_sym(problem.delta,
                                                       problem.sigma_r)),
            "pl_radius": float(rip.pl_radius_sym(problem.delta,
                                                 problem.sigma_r)),
            "prior": {k: float(v) for k, v in
                      rip.prior_radii(problem.delta, problem.sigma_r,
                                      problem.sigma_1).items()},
        },
        "solver": {
            "name": config.solver,
            "eta": float(eta),
            "eps_target": float(config.eps_target),
            "max_iters": int(config.max_iters),
            "noise_seed": seeds["noise"] if config.solver == "pgd" else None,
            "params": params.to_dict() if params is not None else None,
        },
        "result": {
            "iterations": trace.iterations,
            "first_in_region": trace.first_in_region,
            "phase2_start": trace.phase2_start,
            "final_f": float(trace.f[-1]),
            "final_grad_norm": float(trace.grad_norm[-1]),
            "final_dist": float(trace.dist[-1]),
            "stop_reason": trace.stop_reason,
            "phase1_complete": trace.phase1_complete,
        },
    }
    trace.to_csv(os.path.join(out_dir, "trace.csv"))
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return trace, summary, out_dir


def _usage_error(args, message):
    """Print one 'ripgd <command>: error: ...' line and exit with code 2."""
    args.parser.exit(2, "%s: error: %s\n" % (args.parser.prog, message))


def _load_config(args, overrides):
    """Load args.config with overrides; a bad file or value is a usage error.

    Errors raised later, while solving, still propagate as they are.
    """
    try:
        return load_config(args.config, overrides)
    except (OSError, ValueError) as exc:
        _usage_error(args, exc)


def _print_json(args, payload):
    """Write payload to --out when given, then print it."""
    if args.out:
        _write_json(args.out, payload)
        print("wrote %s" % args.out)
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_run(args):
    config = _load_config(args, {
        "seed": args.seed, "out": args.out, "eps_target": args.eps})
    trace, summary, out_dir = run_experiment(config)
    res = summary["result"]
    print("wrote %s" % os.path.join(out_dir, "summary.json"))
    print("delta=%.6g sigma_r=%.6g eta=%.6g" % (
        summary["problem"]["delta"], summary["problem"]["sigma_r"],
        summary["solver"]["eta"]))
    print("iterations=%d stop=%s final_dist=%.6g first_in_region=%s "
          "phase2_start=%s" % (res["iterations"], res["stop_reason"],
                               res["final_dist"], res["first_in_region"],
                               res["phase2_start"]))
    return 0


def _cmd_rip_estimate(args):
    config = _load_config(args, {"seed": args.seed})
    if config.kind == "onebit":
        _usage_error(args, "rip-estimate needs a linear kind, got onebit")
    _, est = _operator_estimate(config, derived_seeds(config.seed))
    _print_json(args, est.to_dict())
    return 0


def _cmd_certify(args):
    for flag in ("seed", "gradhessian", "saddle", "pl-dual", "normcompare"):
        if getattr(args, flag.replace("-", "_")) < 0:
            _usage_error(args, "--%s must be nonnegative" % flag)
    report = certify.run_certificate_suites(
        seed=args.seed, gradhessian=args.gradhessian, saddle=args.saddle,
        pl_dual=args.pl_dual, normcompare=args.normcompare)
    _print_json(args, report)
    failures = sum(suite.get("failures", 0) for suite in report.values())
    return 0 if failures == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ripgd",
        description="Gradient-based local search for low-rank matrix "
                    "recovery under restricted isometry.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", help="path to a key-value config file")
    p_run.add_argument("--seed", type=int, help="override the master seed")
    p_run.add_argument("--out", help="override the output directory")
    p_run.add_argument("--eps", type=float, help="override eps_target")
    p_run.set_defaults(func=_cmd_run, parser=p_run)

    p_rip = sub.add_parser("rip-estimate",
                           help="calibrate the operator of a linear config")
    p_rip.add_argument("config", help="path to a key-value config file")
    p_rip.add_argument("--seed", type=int, help="override the master seed")
    p_rip.add_argument("--out", help="also write the estimate to this file")
    p_rip.set_defaults(func=_cmd_rip_estimate, parser=p_rip)

    p_cert = sub.add_parser("certify",
                            help="run the randomized certificate suites")
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--gradhessian", type=int, default=100)
    p_cert.add_argument("--saddle", type=int, default=500)
    p_cert.add_argument("--pl-dual", dest="pl_dual", type=int, default=200)
    p_cert.add_argument("--normcompare", type=int, default=1000)
    p_cert.add_argument("--out", help="also write the report to this file")
    p_cert.set_defaults(func=_cmd_certify, parser=p_cert)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
