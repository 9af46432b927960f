"""Call wrapping for the benchmark: solve boundaries and in-memory spans.

Both wrappers replace a callable where its callers look it up.  ``solver``,
``cli`` and ``certify`` bind several functions with ``from ... import``, so
replacing only the defining module would leave those callers on the
original and record nothing; ``Patches`` therefore rebinds every name in
every ripgd module that refers to the same object.  Methods are replaced
on the class that defines them, which also covers subclasses that inherit
them (``OneBitLoss.value_and_grad`` comes from ``MatrixLoss``).
"""

import csv
import importlib
from array import array
from time import perf_counter_ns

MODULES = ("ripgd", "ripgd.losses", "ripgd.factored", "ripgd.rip",
           "ripgd.solver", "ripgd.certify", "ripgd.cli")

# Span name -> the callables it wraps, as (module, attribute path).
TRACED = {
    "losses.apply": [("ripgd.losses", "LinearOperator.apply")],
    "losses.adjoint": [("ripgd.losses", "LinearOperator.adjoint")],
    "losses.value_and_grad": [("ripgd.losses", "LinearLoss.value_and_grad"),
                              ("ripgd.losses", "MatrixLoss.value_and_grad")],
    "losses.estimate_rho1": [("ripgd.losses", "estimate_rho1")],
    "factored.value_and_grad": [("ripgd.factored", "g_value_and_grad")],
    "factored.grad": [("ripgd.factored", "g_grad")],
    "factored.lifted_value_and_grad": [("ripgd.factored",
                                        "LiftedLoss.value_and_grad")],
    "factored.hess_min_eig": [("ripgd.factored", "g_hess_min_eig")],
    "rip.estimate_rip": [("ripgd.rip", "estimate_rip")],
    "solver.solve": [("ripgd.solver", "perturbed_gd"),
                     ("ripgd.solver", "gradient_descent")],
    "solver.to_csv": [("ripgd.solver", "Trace.to_csv")],
    "cli.main": [("ripgd.cli", "main")],
    "cli.build_instance": [("ripgd.cli", "build_instance")],
    "cli.default_kappa": [("ripgd.cli", "default_kappa")],
    "cli.write_json": [("ripgd.cli", "_write_json")],
    "certify.run_certificate_suites": [("ripgd.certify",
                                        "run_certificate_suites")],
    "certify.verify_gradhessian": [("ripgd.certify", "verify_gradhessian")],
    "certify.mean_hessian": [("ripgd.certify", "mean_hessian")],
    "certify.x_operator": [("ripgd.certify", "x_operator")],
    "certify.saddle_eta0": [("ripgd.certify", "saddle_eta0")],
    "certify.pl_dual_bound": [("ripgd.certify", "pl_dual_bound")],
    "certify.normcompare_check": [("ripgd.certify", "normcompare_check")],
}


class Patches:
    """Replacements of ripgd callables, undone in reverse by ``restore``."""

    def __init__(self):
        self._undo = []

    def wrap(self, module_name, path, make_wrapper):
        owner = importlib.import_module(module_name)
        owner_path, _, attr = path.rpartition(".")
        if owner_path:
            owner = getattr(owner, owner_path)
        if attr not in vars(owner):
            # A moved or renamed callable must fail loudly, not trace nothing.
            raise LookupError("%s.%s is not defined there" % (module_name, path))
        original = vars(owner)[attr]
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [importlib.import_module(m) for m in MODULES]
        for target in targets:
            for name, value in list(vars(target).items()):
                if value is original:
                    setattr(target, name, wrapper)
                    self._undo.append((target, name, value))

    def restore(self):
        for target, name, value in reversed(self._undo):
            setattr(target, name, value)
        self._undo.clear()


class SetupProbe(Exception):
    """Raised at the solver entry to end a run once set-up is done."""


class SolveClock:
    """Marks where a run's solve (or sweep) begins and ends.

    Two clock reads per solve; it is installed in untraced runs too, so
    set-up time is measured on the production code path.  With ``probe``
    set, the solver entry keeps the call in ``call`` (the unwrapped
    function, its arguments and keywords) and raises ``SetupProbe``
    instead of solving.
    """

    ENTRIES = [("ripgd.solver", "perturbed_gd"),
               ("ripgd.solver", "gradient_descent"),
               ("ripgd.certify", "run_certificate_suites")]

    def __init__(self):
        self.enter = self.exit = self.call = None
        self.probe = False

    def install(self, patches):
        for module_name, path in self.ENTRIES:
            patches.wrap(module_name, path, self._timed)

    def _timed(self, fn):
        def timed(*args, **kwargs):
            self.enter = perf_counter_ns()
            if self.probe:
                self.call = (fn, args, kwargs)
                raise SetupProbe
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit = perf_counter_ns()
        return timed


class Tracer:
    """Spans kept in memory as typed columns, one row per traced call.

    A span records its name, the benchmark run it belongs to, its parent
    span, start and end in nanoseconds, and the time covered by its direct
    children, so self time is duration minus child time.
    """

    def __init__(self):
        self.names = list(TRACED)
        self.run = 0
        self._stack = []
        self.name = array("q")
        self.run_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.child = array("q")

    def install(self, patches):
        for name_id, name in enumerate(self.names):
            for module_name, path in TRACED[name]:
                patches.wrap(module_name, path,
                             lambda fn, i=name_id: self._spanned(fn, i))

    def _spanned(self, fn, name_id):
        stack = self._stack

        def spanned(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.run_id.append(self.run)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0)
            self.child.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            self.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                self.end[idx] = t1
                if stack:
                    self.child[stack[-1]] += t1 - t0
        return spanned

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "run", "parent", "name", "start_ns",
                          "end_ns", "self_ns"])
            for i in range(len(self.start)):
                out.writerow([i, self.run_id[i], self.parent[i],
                              self.names[self.name[i]], self.start[i],
                              self.end[i],
                              self.end[i] - self.start[i] - self.child[i]])
