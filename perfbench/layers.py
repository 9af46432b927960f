"""Per-layer metrics of the traced run, with the effect each should have.

Every metric names the span it is measured on, the end-to-end metric it
should move, the workloads where it should move and those where it should
stay flat.  A workload in ``on`` must record at least one call of the
metric's span, so a renamed or bypassed function fails the traced run
instead of reporting an empty layer.
"""

from collections import namedtuple

import numpy as np

S, A, O, C = "sym-sensing", "asym-lift", "onebit-gd", "certify-sweep"
SOLVES = (S, A, O)
BEHAVIOUR = "none (behaviour count; a change must be reported)"

Layer = namedtuple("Layer", "name unit better span moves on flat")

LAYERS = [
    Layer("losses.apply_us", "us", "lower", "losses.apply",
          "iter_cost_ratio", (S, A), (O, C)),
    Layer("losses.adjoint_us", "us", "lower", "losses.adjoint",
          "iter_cost_ratio", (S, A), (O, C)),
    Layer("losses.value_and_grad_us", "us", "lower", "losses.value_and_grad",
          "iter_cost_ratio", SOLVES, (C,)),
    Layer("losses.evals_per_iter", "count", "lower", "losses.value_and_grad",
          "iter_cost_ratio", (A,), (S, O)),
    # Computed from array sizes (p*n*m*8 bytes streamed per apply), not
    # measured; cache misses are not counted.
    Layer("losses.apply_bytes", "B", "lower", "losses.apply",
          "iter_cost_ratio", (S,), (O,)),
    Layer("losses.apply_gbps", "GB/s", "higher", "losses.apply",
          "iter_cost_ratio", (S,), (O,)),
    Layer("losses.estimate_rho1_s", "s", "lower", "losses.estimate_rho1",
          "setup_s", (S, A), (O,)),
    Layer("factored.value_and_grad_us", "us", "lower",
          "factored.value_and_grad", "iter_cost_ratio", SOLVES, (C,)),
    Layer("factored.self_us", "us", "lower", "factored.value_and_grad",
          "iter_cost_ratio", SOLVES, (C,)),
    Layer("factored.lifted_value_and_grad_us", "us", "lower",
          "factored.lifted_value_and_grad", "iter_cost_ratio", (A,), (S, O)),
    Layer("factored.lifted_self_us", "us", "lower",
          "factored.lifted_value_and_grad", "iter_cost_ratio", (A,), (S, O)),
    Layer("factored.hess_min_eig_us", "us", "lower", "factored.hess_min_eig",
          "iter_cost_ratio", (C,), SOLVES),
    Layer("rip.estimate_rip_s", "s", "lower", "rip.estimate_rip",
          "setup_s", (S,), (O,)),
    Layer("rip.samples_per_s", "1/s", "higher", "rip.estimate_rip",
          "setup_s", (S,), (O,)),
    Layer("solver.self_us_per_iter", "us", "lower", "solver.solve",
          "iter_cost_ratio", (O,), ()),
    Layer("solver.to_csv_s", "s", "lower", "solver.to_csv",
          "wall_s", (O,), (C,)),
    Layer("solver.iterations", "count", "lower", "solver.solve",
          BEHAVIOUR, SOLVES, (C,)),
    Layer("solver.trace_rows", "count", "lower", "solver.solve",
          BEHAVIOUR, SOLVES, (C,)),
    Layer("solver.perturbations", "count", "lower", "solver.solve",
          BEHAVIOUR, (S, A), (C,)),
    Layer("solver.phase2_start", "count", "lower", "solver.solve",
          BEHAVIOUR, (S, A), (C,)),
    Layer("cli.build_instance_s", "s", "lower", "cli.build_instance",
          "setup_s", (S, A), (C,)),
    Layer("cli.default_kappa_s", "s", "lower", "cli.default_kappa",
          "setup_s", (S, A), (C,)),
    Layer("cli.write_json_s", "s", "lower", "cli.write_json",
          "wall_s", (S, A), (C,)),
    Layer("cli.self_s", "s", "lower", "cli.main",
          "wall_s", (S, A), (C,)),
    Layer("certify.verify_gradhessian_us", "us", "lower",
          "certify.verify_gradhessian", "iter_cost_ratio", (C,), SOLVES),
    Layer("certify.mean_hessian_us", "us", "lower", "certify.mean_hessian",
          "iter_cost_ratio", (C,), SOLVES),
    Layer("certify.x_operator_us", "us", "lower", "certify.x_operator",
          "iter_cost_ratio", (C,), SOLVES),
    Layer("certify.saddle_eta0_us", "us", "lower", "certify.saddle_eta0",
          "iter_cost_ratio", (C,), SOLVES),
    Layer("certify.pl_dual_bound_us", "us", "lower", "certify.pl_dual_bound",
          "iter_cost_ratio", (C,), SOLVES),
    Layer("certify.normcompare_check_us", "us", "lower",
          "certify.normcompare_check", "iter_cost_ratio", (C,), SOLVES),
    Layer("bench.trace_overhead_s", "s", "lower", None,
          "none (traced minus untraced wall time per run)", (), ()),
]


class Spans:
    """Column view of a tracer's spans with per-name selections."""

    def __init__(self, tracer):
        self.ids = {name: i for i, name in enumerate(tracer.names)}
        self.name = np.frombuffer(tracer.name, dtype=np.int64)
        self.start = np.frombuffer(tracer.start, dtype=np.int64)
        end = np.frombuffer(tracer.end, dtype=np.int64)
        self.dur = end - self.start
        self.self_ = self.dur - np.frombuffer(tracer.child, dtype=np.int64)

    def mask(self, name):
        return self.name == self.ids[name]

    def count(self, name):
        return int(np.count_nonzero(self.mask(name)))

    def median(self, name, scale, own=False):
        """Per-call median duration (or self time) in units of ``scale`` s."""
        values = (self.self_ if own else self.dur)[self.mask(name)]
        return float(np.median(values)) * 1e-9 / scale if values.size else 0.0


def layer_metrics(spans, runs, trace, apply_bytes, trace_overhead_s):
    """Every per-layer metric, keyed by name.

    ``runs`` are the traced runs in order (their index is the span run id),
    ``trace`` the ``ripgd.solver.Trace`` the solves wrote (the gate has
    checked that they all wrote the same) or None for the sweep, and
    ``apply_bytes`` the computed size of the workload's sensing-matrix
    stack (0 without an operator).
    """
    us, s = 1e-6, 1.0
    out = {}
    for name in ("losses.apply", "losses.adjoint", "losses.value_and_grad",
                 "factored.value_and_grad", "factored.lifted_value_and_grad",
                 "factored.hess_min_eig"):
        out[name + "_us"] = spans.median(name, us)
    out["factored.self_us"] = spans.median("factored.value_and_grad", us,
                                           own=True)
    out["factored.lifted_self_us"] = spans.median(
        "factored.lifted_value_and_grad", us, own=True)
    for name in ("verify_gradhessian", "mean_hessian", "x_operator",
                 "saddle_eta0", "pl_dual_bound", "normcompare_check"):
        out["certify.%s_us" % name] = spans.median("certify." + name, us)
    out["losses.estimate_rho1_s"] = spans.median("losses.estimate_rho1", s)
    out["rip.estimate_rip_s"] = spans.median("rip.estimate_rip", s)
    out["solver.to_csv_s"] = spans.median("solver.to_csv", s)
    out["cli.build_instance_s"] = spans.median("cli.build_instance", s)
    out["cli.default_kappa_s"] = spans.median("cli.default_kappa", s)
    out["cli.write_json_s"] = spans.median("cli.write_json", s)
    out["cli.self_s"] = spans.median("cli.main", s, own=True)

    out["losses.apply_bytes"] = float(apply_bytes)
    apply_s = out["losses.apply_us"] * us
    out["losses.apply_gbps"] = (apply_bytes / apply_s * 1e-9
                                if apply_bytes and apply_s else 0.0)
    rip_samples = runs[0].get("rip_samples") or 0
    out["rip.samples_per_s"] = (rip_samples / out["rip.estimate_rip_s"]
                                if out["rip.estimate_rip_s"] else 0.0)

    solve = spans.mask("solver.solve")
    if solve.any() and trace is not None:
        iterations = [run["iterations"] for run in runs]
        # Inner-loss calls made while each solve span was open.
        inner = np.sort(spans.start[spans.mask("losses.value_and_grad")])
        lo = spans.start[solve]
        hi = lo + spans.dur[solve]
        evals = np.searchsorted(inner, hi) - np.searchsorted(inner, lo)
        out["losses.evals_per_iter"] = float(evals.sum() / sum(iterations))
        per_iter = spans.self_[solve] / np.array(iterations, dtype=float)
        out["solver.self_us_per_iter"] = float(np.median(per_iter)) * 1e-3
        out["solver.iterations"] = float(trace.iterations)
        out["solver.trace_rows"] = float(len(trace))
        out["solver.perturbations"] = float(np.count_nonzero(
            trace.perturbed))
        out["solver.phase2_start"] = float(trace.phase2_start or 0)
    else:
        for name in ("losses.evals_per_iter", "solver.self_us_per_iter",
                     "solver.iterations", "solver.trace_rows",
                     "solver.perturbations", "solver.phase2_start"):
            out[name] = 0.0
    out["bench.trace_overhead_s"] = float(trace_overhead_s)
    return out


def missing_layers(spans, workload):
    """Metrics expected to move on ``workload`` whose span never ran."""
    return [layer.name for layer in LAYERS
            if workload in layer.on and layer.span is not None
            and spans.count(layer.span) == 0]
