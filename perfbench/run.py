#!/usr/bin/env python3
"""Benchmark of ripgd: solves to a fixed accuracy and certificate sweeps.

Run from the repository root:

    python3 perfbench/run.py --workload sym-sensing --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all

One process, one closed loop, single-threaded BLAS.  The workload seed is
the config's master seed and defaults to the seed pinned in the config.
An untraced run (``--trace 0``)

1. makes one full ``ripgd run`` (or ``ripgd certify``) through
   ``ripgd.cli.main``.  It must reach ``eps_target`` (or report no
   certificate failure), and its artifacts must match those of any earlier
   run of the same code, command and seed;
2. until ``--seconds`` have passed, times short windows of the same work
   through the library API: the run's first steps, which must reproduce its
   trace rows bit for bit, or small certificate sweeps, which must report
   no failures.  Each window is bracketed by a fixed reference computation
   (``reference_us``), and the gated metric is the median ratio of the
   window's time per iteration to the reference's time per step;
3. between the windows, times the set-up: ``ripgd run CONFIG`` stopped at
   the solver entry (config load to the first gradient step), or, for
   ``certify-sweep``, importing ripgd in a fresh interpreter.

``--trace 1`` runs the command untraced for half the time and traced for
the other half, wraps each layer's public functions in spans (see
``tracing.TRACED``), checks that tracing left the artifacts unchanged and
reports the per-layer metrics of ``layers.LAYERS``.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; details go to ``.bench_out/<workload>/``.
"""

import os

# One BLAS thread: the baseline is single-threaded, which also keeps
# timings steady on a small shared machine.  Must precede importing numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import contextlib
import ctypes
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import layers
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# A committed config (None marks the certificate sweep) and the number of
# gradient steps in one timing window, about 25 ms here.
Workload = collections.namedtuple("Workload", "config window_steps")
WORKLOADS = {
    "sym-sensing": Workload("configs/fig1a.conf", 200),
    "asym-lift": Workload("configs/fig1b.conf", 200),
    "onebit-gd": Workload("configs/fig1c.conf", 1000),
    "certify-sweep": Workload(None, None),
}
# Ten times the `ripgd certify` defaults: each sweep draws its instance
# sizes at random, and this many checks keep the mix, and so the cost per
# check, close between seeds.
SWEEP_COUNTS = {"gradhessian": 1000, "saddle": 5000, "pl_dual": 2000,
                "normcompare": 10000}
# Counts of one certify timing window: the sweep's mix at 1/125 its size.
WINDOW_COUNTS = {key: count // 125 for key, count in SWEEP_COUNTS.items()}
SWEEP_SEED = 0
SETUP_SLICES = 9
ARTIFACTS = ("trace.csv", "summary.json")

# An "iteration" is a gradient step, or one certificate check on the sweep.
E2E = {
    "iter_cost_ratio": ("ratio", "lower"),
    "setup_s": ("s", "lower"),
}
REFERENCE_STEPS = 100

IMPORT_PROBE = ("import time; t = time.perf_counter(); import ripgd.cli; "
                "print(time.perf_counter() - t)")


def load_ripgd():
    """Import ripgd from this checkout's sources; exit when they are absent."""
    needed = [os.path.join(SRC, "ripgd", "__init__.py")]
    needed += [os.path.join(ROOT, w.config) for w in WORKLOADS.values()
               if w.config]
    missing = [path for path in needed if not os.path.isfile(path)]
    if missing:
        sys.exit("ripgd sources not found: %s" % ", ".join(missing))
    sys.path.insert(0, SRC)
    import ripgd.cli
    if not os.path.abspath(ripgd.__file__).startswith(SRC + os.sep):
        sys.exit("imported ripgd from %s, not from %s" % (ripgd.__file__, SRC))
    return ripgd


def check_definition():
    """BENCHMARK.json; exit unless it lists the metrics this file computes."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if (e2e != [(name,) + unit for name, unit in E2E.items()]
            or per_layer != [(l.name, l.unit, l.better) for l in layers.LAYERS]
            or [w["name"] for w in spec["workloads"]] != list(WORKLOADS)):
        sys.exit("BENCHMARK.json and perfbench/ disagree on metrics or workloads")
    return spec


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), None)
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    with contextlib.suppress(OSError):
        for entry in sorted(os.listdir(base)):
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, entry, key), encoding="utf-8") as fh:
                    fields[key] = fh.read().strip()
            caches["L%s %s" % (fields["level"], fields["type"])] = fields["size"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
    }


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def invoke(cli, argv):
    """Call the command line in-process; what it prints is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def solve_once(cli, clock, argv, out_dir):
    for name in ARTIFACTS:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
    t0 = time.perf_counter_ns()
    code = invoke(cli, argv)
    t1 = time.perf_counter_ns()
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    result = summary["result"]
    eps = summary["solver"]["eps_target"]
    rip = summary["problem"]["rip"]
    run = {
        "wall_s": (t1 - t0) * 1e-9,
        "setup_s": (clock.enter - t0) * 1e-9,
        "work_s": (clock.exit - clock.enter) * 1e-9,
        "units": result["iterations"],
        "iterations": result["iterations"],
        "stop_reason": result["stop_reason"],
        "final_dist": result["final_dist"],
        "rip_samples": rip["samples"] if rip else 0,
        "fingerprints": {name: sha256(os.path.join(out_dir, name))
                         for name in ARTIFACTS},
        "error": None,
    }
    if code != 0 or result["stop_reason"] != "eps_target" or not (
            result["final_dist"] <= eps):
        run["error"] = "exit %s, stop %s, final_dist %r > eps_target %r" % (
            code, result["stop_reason"], result["final_dist"], eps)
    return run


def sweep_once(cli, clock, argv, report_path):
    with contextlib.suppress(FileNotFoundError):
        os.remove(report_path)
    t0 = time.perf_counter_ns()
    code = invoke(cli, argv)
    t1 = time.perf_counter_ns()
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    failures = sum(suite["failures"] for suite in report.values())
    checks = sum(SWEEP_COUNTS.values())
    return {
        "wall_s": (t1 - t0) * 1e-9,
        "setup_s": (clock.enter - t0) * 1e-9,
        "work_s": (clock.exit - clock.enter) * 1e-9,
        "units": checks,
        "failures": failures,
        "fingerprints": {"report.json": sha256(report_path)},
        "error": None if code == 0 and failures == 0 else
                 "exit %s, %d certificate failures" % (code, failures),
    }


def reference_us():
    """Microseconds per step of a fixed small-array numpy computation.

    It touches no ripgd code.  Timed right before and after every timing
    window, it measures how fast the host runs this kind of code at that
    moment: other tenants slow this machine by up to half for tens of
    seconds at a time, and they slow the reference and the workloads alike.
    """
    import numpy as np

    b = np.random.default_rng(0).standard_normal((8, 8))
    t0 = time.perf_counter_ns()
    for _ in range(REFERENCE_STEPS):
        m = b @ b.T
        np.linalg.norm(m - b)
        float(np.sum(m * m))
    return (time.perf_counter_ns() - t0) * 1e-3 / REFERENCE_STEPS


def paired(window):
    """``window`` with a reference timing on each side of it."""
    def run(i):
        before = reference_us()
        result = window(i)
        after = reference_us()
        if "us_per_iter" in result:
            result["reference_us"] = 0.5 * (before + after)
            result["iter_cost_ratio"] = (result["us_per_iter"]
                                         / result["reference_us"])
        return result
    return run


def closed_loop(run_once, deadline):
    """Run back to back until ``deadline``, at least once.

    Another run starts only if it would end less than half a run past the
    deadline, so a run's length stays near its budget even when one solve
    takes most of it.  An exception ends the loop as a failed run.
    """
    runs = []
    start = time.perf_counter()
    while not runs or (
            time.perf_counter()
            + 0.5 * (time.perf_counter() - start) / len(runs) < deadline):
        try:
            runs.append(run_once(len(runs)))
        except Exception:
            traceback.print_exc()
            runs.append({"error": traceback.format_exc(limit=1).strip()})
            break
    return runs


def gate(runs):
    """Fail every run whose artifacts or step count differ from the first's."""
    first = runs[0]
    for run in runs[1:]:
        if run["error"] is None and (
                run["fingerprints"] != first.get("fingerprints")
                or run.get("iterations") != first.get("iterations")):
            run["error"] = "artifacts or iterations differ from run 0"


def code_identity(workload, argv):
    """Hash of what a run's artifacts depend on: code, command and config."""
    import numpy

    digest = hashlib.sha256(json.dumps(argv).encode())
    package = os.path.join(SRC, "ripgd")
    paths = sorted(os.path.join(package, name) for name in os.listdir(package)
                   if name.endswith(".py"))
    config = WORKLOADS[workload].config
    for path in paths + ([os.path.join(ROOT, config)] if config else []):
        digest.update(path.encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    digest.update((sys.version + numpy.__version__).encode())
    return digest.hexdigest()[:16]


def check_fingerprints(workload, seed, argv, run):
    """Fail ``run`` if an earlier run of the same code wrote other artifacts.

    Fingerprints are kept per workload, seed and code identity in
    ``.bench_out/fingerprints.json``, so repeated invocations in one
    checkout check each other.
    """
    if run["error"] is not None:
        return
    path = os.path.join(OUT, "fingerprints.json")
    try:
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    except FileNotFoundError:
        known = {}
    key = "%s/seed%d/%s" % (workload, seed,
                            code_identity(workload, argv))
    if key in known and known[key] != run["fingerprints"]:
        run["error"] = "artifacts differ from an earlier run of the same code"
        return
    known[key] = run["fingerprints"]
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=2, sort_keys=True)
    os.replace(path + ".tmp", path)


def setup_probe(cli, clock, argv):
    """Set-up time of one ``argv`` run, stopped at the solver entry."""
    clock.probe = True
    t0 = time.perf_counter_ns()
    try:
        invoke(cli, argv)
    except tracing.SetupProbe:
        return (clock.enter - t0) * 1e-9
    finally:
        clock.probe = False
    raise RuntimeError("the run finished without calling a solver")


def import_probe():
    """Time to import ripgd.cli in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(proc.stdout)


def solver_window(call, steps, out_dir):
    """A timing window: the first ``steps`` steps of a run, as a short solve.

    ``call`` is the solver call a set-up probe caught, so the window runs
    the library solver with the command line's own arguments, only with
    ``max_iters=steps``.  It must reproduce the full run's first trace rows
    bit for bit.
    """
    import numpy as np

    import ripgd.solver

    fn, args, kwargs = call
    kwargs = dict(kwargs, max_iters=steps)
    full = ripgd.solver.Trace.from_csv(os.path.join(out_dir, "trace.csv"))

    def window(_):
        t0 = time.perf_counter_ns()
        trace = fn(*args, **kwargs)
        t1 = time.perf_counter_ns()
        same = trace.iterations == steps and all(
            np.array_equal(getattr(trace, col), getattr(full, col)[:steps + 1])
            for col in ("f", "grad_norm", "dist", "perturbed", "phase"))
        return {"us_per_iter": (t1 - t0) * 1e-3 / steps,
                "error": None if same else "window differs from the run's trace"}

    return window


def sweep_window(seed):
    """A timing window: a small certificate sweep through the library API.

    A window draws about 150 checks, so its random mix of instance sizes
    varies from window to window; window k uses seed ``seed * 10**6 + k``,
    and the median over hundreds of windows averages the mix out.  It must
    report no failures.
    """
    import ripgd.certify

    checks = sum(WINDOW_COUNTS.values())

    def window(k):
        t0 = time.perf_counter_ns()
        report = ripgd.certify.run_certificate_suites(
            seed=seed * 10**6 + k, **WINDOW_COUNTS)
        t1 = time.perf_counter_ns()
        failures = sum(suite["failures"] for suite in report.values())
        return {"us_per_iter": (t1 - t0) * 1e-3 / checks,
                "error": None if failures == 0 else
                         "%d certificate failures" % failures}

    return window


def probe_burst(probe):
    """Set-up samples: one probe, repeated until 50 ms have passed."""
    samples = []
    end = time.perf_counter() + 0.05
    while not samples or time.perf_counter() < end:
        samples.append(probe())
    return samples


def median_of(runs, key):
    return statistics.median(run[key] for run in runs)


def print_metric(name, value, unit, note=""):
    print("  %-34s %14.6g %-6s %s" % (name, value, unit, note))


def command_line(workload, seed):
    """``ripgd`` arguments of one run of ``workload`` and its output path."""
    out_dir = os.path.join(OUT, workload, "seed%d" % seed)
    os.makedirs(out_dir, exist_ok=True)
    config = WORKLOADS[workload].config
    if config is None:
        report = os.path.join(out_dir, "report.json")
        argv = ["certify", "--seed", str(seed), "--out", report]
        for key, count in SWEEP_COUNTS.items():
            argv += ["--" + key.replace("_", "-"), str(count)]
        return argv, report
    return ["run", os.path.join(ROOT, config), "--seed", str(seed),
            "--out", out_dir], out_dir


def untraced(ripgd, workload, seed, seconds, record):
    deadline = time.perf_counter() + seconds
    cli = ripgd.cli
    argv, out = command_line(workload, seed)
    sweep = WORKLOADS[workload].config is None
    patches = tracing.Patches()
    clock = tracing.SolveClock()
    clock.install(patches)
    try:
        if sweep:
            probe = import_probe
            setup_samples = []
            runs = [sweep_once(cli, clock, argv, out)]
        else:
            probe = lambda: setup_probe(cli, clock, argv)
            setup_samples = [probe()]
            runs = [solve_once(cli, clock, argv, out)]
            setup_samples.append(runs[0]["setup_s"])
        check_fingerprints(workload, seed, argv, runs[0])
        full = runs[0]
        window = paired(sweep_window(seed) if sweep else solver_window(
            clock.call, WORKLOADS[workload].window_steps, out))
        # Set-up probes are spread over the run, so that their median, like
        # the windows', samples the host's speed over the whole run.
        windows = []
        start = time.perf_counter()
        for k in range(1, SETUP_SLICES + 1):
            setup_samples += probe_burst(probe)
            windows += closed_loop(
                window, start + (deadline - start) * k / SETUP_SLICES)
    finally:
        patches.restore()
    runs += windows
    timed = [w for w in windows if "us_per_iter" in w]
    samples = [w["us_per_iter"] for w in timed]
    metrics = {
        "iter_cost_ratio": statistics.median(w["iter_cost_ratio"] for w in timed),
        "setup_s": statistics.median(setup_samples),
    }
    failed = sum(run["error"] is not None for run in runs)
    reported = {
        "us_per_iter_fastest": (min(samples), "us"),
        "us_per_iter_median": (statistics.median(samples), "us"),
        "reference_us_median": (median_of(timed, "reference_us"), "us"),
        "wall_s": (full["wall_s"], "s"),
        "solve_s": (full["work_s"], "s"),
        "wall_us_per_iter": (full["wall_s"] / full["units"] * 1e6, "us"),
        "failed_ratio": (failed / len(runs), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    if sweep:
        reported["checks_per_s"] = (full["units"] / full["work_s"], "1/s")
    else:
        reported["iterations"] = (full["iterations"], "count")
        reported["operator_bytes_computed"] = (operator_bytes(ripgd, workload),
                                               "B")
    print("end-to-end: medians of %d timing windows and %d set-ups:"
          % (len(timed), len(setup_samples)))
    for name, value in metrics.items():
        print_metric(name, value, E2E[name][0])
    print("also reported (seed-dependent, spread shown, or zero when correct):")
    for name, (value, unit) in reported.items():
        print_metric(name, value, unit)
    record.update(setup_samples=setup_samples, reported=reported)
    return metrics, runs


def operator_bytes(ripgd, workload):
    """Computed size of the workload's sensing-matrix stack, p*n*m*8 bytes."""
    config = WORKLOADS[workload].config
    if config is None:
        return 0
    cfg = ripgd.cli.load_config(os.path.join(ROOT, config))
    return 8 * cfg.p * cfg.n * cfg.m if cfg.p else 0


def traced(ripgd, workload, seed, seconds, record):
    deadline = time.perf_counter() + seconds
    cli = ripgd.cli
    argv, out = command_line(workload, seed)
    sweep = WORKLOADS[workload].config is None
    once = sweep_once if sweep else solve_once
    patches = tracing.Patches()
    clock = tracing.SolveClock()
    clock.install(patches)
    tracer = tracing.Tracer()
    try:
        plain = closed_loop(lambda i: once(cli, clock, argv, out),
                            deadline - seconds / 2)
        tracer.install(patches)

        def traced_once(i):
            tracer.run = i
            return once(cli, clock, argv, out)

        spanned = closed_loop(traced_once, deadline)
    finally:
        patches.restore()
    runs = plain + spanned
    gate(runs)
    check_fingerprints(workload, seed, argv, runs[0])
    tracer.write_csv(os.path.join(OUT, workload, "spans-seed%d.csv" % seed))
    if not all("wall_s" in run for run in runs):
        return None, runs
    trace = None if sweep else ripgd.solver.Trace.from_csv(
        os.path.join(out, "trace.csv"))
    spans = layers.Spans(tracer)
    overhead = median_of(spanned, "wall_s") - median_of(plain, "wall_s")
    metrics = layers.layer_metrics(spans, spanned, trace,
                                   operator_bytes(ripgd, workload), overhead)
    missing = layers.missing_layers(spans, workload)
    if missing:
        spanned[0]["error"] = "no calls recorded for %s" % ", ".join(missing)
    print("per-layer, %d untraced + %d traced runs:" % (len(plain), len(spanned)))
    for layer in layers.LAYERS:
        note = "moves %s on %s; flat on %s" % (
            layer.moves, ", ".join(layer.on) or "-",
            ", ".join(layer.flat) or "-")
        print_metric(layer.name, metrics[layer.name], layer.unit, note)
    record["span_counts"] = {name: spans.count(name) for name in tracer.names}
    return {layer.name: metrics[layer.name] for layer in layers.LAYERS}, runs


def run_all(args):
    """Each workload in its own process; prints their results."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        results[workload] = (json.loads(lines[-1]) if proc.returncode == 0
                             else {"exit_code": proc.returncode})
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r.get("correct") for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: the config's pinned seed)")
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    spec = check_definition()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    ripgd = load_ripgd()
    if args.workload == "all":
        return run_all(args)

    workload = args.workload
    config = WORKLOADS[workload].config
    seed = args.seed
    if seed is None:
        seed = (ripgd.cli.load_config(os.path.join(ROOT, config)).seed
                if config else SWEEP_SEED)
    record = {"workload": workload, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    env = record["environment"]
    print("%s seed %d: %s, numpy %s, %s, %s BLAS thread(s), nproc %d, %s, "
          "caches %s" % (workload, seed, env["python"], env["numpy"], env["blas"],
                         env["blas_threads"], env["nproc"], env["cpu"],
                         env["caches"]))
    measure = traced if args.trace else untraced
    metrics, runs = measure(ripgd, workload, seed, args.seconds, record)
    failed = [run["error"] for run in runs if run["error"] is not None]
    for error in failed:
        print("FAILED: %s" % error)
    record.update(runs=runs, metrics=metrics)
    out = os.path.join(OUT, workload)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "result-seed%d-trace%d.json" % (seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    if metrics is None:
        sys.exit("no run of %s completed" % workload)
    units = E2E if not args.trace else {l.name: (l.unit,) for l in layers.LAYERS}
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
