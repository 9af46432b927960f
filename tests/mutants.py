"""Committed mutants: one-line breaks of the package that a named test kills.

Each entry is (file, old text, new text, test).  Replacing the one
occurrence of ``old`` in ``file`` by ``new`` breaks a check, a guard or a
bit-exact form of ``src/ripgd``, and the tier-1 test ``test`` (a pytest node
id) must then fail.  ``tests/test_mutants.py`` keeps the list from rotting:
each old text occurs exactly once and each test exists.

    python tests/mutants.py [SUBSTRING ...]

applies each mutant (or those whose test or new text contains one of the
substrings) to a fresh temporary copy of the repository, runs only its
test there with ``PYTHONDONTWRITEBYTECODE=1``, one mutant at a time, and
exits 1 if any mutant survives.  The working tree is never edited.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # Run-time checks of the paper's inequalities.
    ("src/ripgd/solver.py",
     "np.max(trace.dist[mask]) - params.radius_r)",
     "np.max(trace.dist[mask]) - 2.0 * params.radius_r)",
     "tests/test_solver.py::test_confinement_violation_known_excess"),
    ("src/ripgd/solver.py",
     "mask = trace.f <= trace.f[0]",
     "mask = trace.f < trace.f[0]",
     "tests/test_solver.py::test_level_set_violation_known_excess"),
    ("src/ripgd/solver.py",
     "if bound == 0.0:",
     "if False:",
     "tests/test_solver.py::test_level_set_violation_run_from_the_truth"),
    ("src/ripgd/solver.py",
     "kept = ~trace.perturbed[1:] & (",
     "kept = (",
     "tests/test_solver.py::"
     "test_descent_violation_skips_perturbations_and_phase_switches"),
    # Input guards.
    ("src/ripgd/cli.py",
     "if not 0 < self.gamma <= 1:",
     "if not 0 < self.gamma:",
     "tests/test_cli.py::test_config_validation"),
    ("src/ripgd/losses.py",
     "if entries > DENSE_LIMIT:",
     "if entries >= DENSE_LIMIT:",
     "tests/test_losses.py::test_check_dense_boundary"),
    ("src/ripgd/losses.py",
     "if r < len(sv) and kept[r]:",
     "if r < len(sv) and kept[r] and r > len(sv):",
     "tests/test_factored.py::test_balance_and_augment"),
    ("src/ripgd/losses.py",
     "if not np.isfinite(matrices).all():",
     "if np.isinf(matrices).any():",
     "tests/test_losses.py::test_operator_validation"),
    ("src/ripgd/losses.py",
     "if y.ndim != 2 or y.shape[0] != y.shape[1]:",
     "if y.ndim != 2:",
     "tests/test_losses.py::test_make_onebit_weight_band"),
    ("src/ripgd/rip.py",
     "if sigma_1 < sigma_r:",
     "if sigma_1 < 0.5 * sigma_r:",
     "tests/test_rip.py::test_prior_radii_table"),
    ("src/ripgd/solver.py",
     "if _norm(X.dot(X.T)) > problem.bound_d * (1 + 1e-12):",
     "if _norm(X.dot(X.T)) > 10.0 * problem.bound_d:",
     "tests/test_solver.py::test_perturbed_gd_validation"),
    ("src/ripgd/solver.py",
     "if not (0 < c < math.inf and 0 < kappa < math.inf and 0 < gamma <= 1):",
     "if c <= 0 or kappa <= 0 or not 0 < gamma <= 1:",
     "tests/test_solver.py::test_pgd_params_validation"),
    ("src/ripgd/solver.py",
     "if not 0 < eta < math.inf:",
     "if eta <= 0:",
     "tests/test_solver.py::test_gradient_descent_validation"),
    ("src/ripgd/solver.py",
     "if eps_target is not None and not eps_target > 0:",
     "if eps_target is not None and eps_target <= 0:",
     "tests/test_solver.py::test_gradient_descent_refuses_nan_stops"),
    ("src/ripgd/solver.py",
     "if tol is not None and not tol >= 0:",
     "if tol is not None and tol < 0:",
     "tests/test_solver.py::test_gradient_descent_refuses_nan_stops"),
    ("src/ripgd/solver.py",
     "if not eps_target > 0:",
     "if eps_target <= 0:",
     "tests/test_solver.py::test_perturbed_gd_refuses_nan_eps_target"),
    ("src/ripgd/solver.py",
     "if not -math.inf < max_iters < math.inf:",
     "if max_iters != max_iters:",
     "tests/test_solver.py::test_solvers_refuse_non_finite_max_iters"),
    # Non-finite constructor arguments.
    ("src/ripgd/losses.py",
     'if not 0 < scale < math.inf:\n            raise ValueError("operator',
     'if not 0 < scale:\n            raise ValueError("operator',
     "tests/test_losses.py::test_operator_refuses_infinite_scale"),
    ("src/ripgd/losses.py",
     "if not np.isfinite(d).all():",
     "if np.isinf(d).any():",
     "tests/test_losses.py::test_linear_loss_refuses_nan_d"),
    ("src/ripgd/losses.py",
     "if not (np.min(y) >= 0 and np.max(y) <= 1):",
     "if np.min(y) < 0 or np.max(y) > 1:",
     "tests/test_losses.py::test_onebit_refuses_nan_y"),
    ("src/ripgd/losses.py",
     'if not 0 < scale < math.inf:\n            raise ValueError("loss',
     'if not 0 < scale:\n            raise ValueError("loss',
     "tests/test_losses.py::test_onebit_refuses_infinite_scale"),
    ("src/ripgd/losses.py",
     "if not 1.0 + 2.0 * delta - 1e-12 <= rho1 < math.inf:",
     "if rho1 < 1.0 + 2.0 * delta - 1e-12:",
     "tests/test_losses.py::test_recovery_problem_refuses_nan_rho1"),
    ("src/ripgd/losses.py",
     "if not 0 <= rho2 < math.inf:",
     "if rho2 < 0:",
     "tests/test_losses.py::test_recovery_problem_refuses_nan_rho2"),
    ("src/ripgd/losses.py",
     "if not norm <= bound_d * (1 + 1e-12) < math.inf:",
     "if norm > bound_d * (1 + 1e-12):",
     "tests/test_losses.py::test_recovery_problem_refuses_nan_bound_d"),
    ("src/ripgd/rip.py",
     "if not 0 < rho1 < np.inf:",
     "if rho1 <= 0:",
     "tests/test_rip.py::test_max_step_refuses_infinite_rho1"),
    ("src/ripgd/rip.py",
     "if not 0 <= dist0 < np.inf:",
     "if dist0 < 0:",
     "tests/test_rip.py::test_max_step_refuses_nan_dist0"),
    ("src/ripgd/rip.py",
     "if not 0 < bound_d < np.inf:",
     "if bound_d <= 0:",
     "tests/test_rip.py::test_max_step_refuses_infinite_bound_d"),
    # Memory: the dense limit before the allocation, the thread cap.
    ("src/ripgd/cli.py",
     'side = self.n + self.m if self.kind == "asym-linear" else self.n',
     "side = self.n",
     "tests/test_cli.py::test_config_refuses_dense_truth_and_lift"),
    ("src/ripgd/certify.py",
     "_check_dense(n * r * n * n)",
     "_check_dense(0)",
     "tests/test_certify.py::test_x_operator_defining_property"),
    ("src/ripgd/rip.py",
     "workers = max(1, min(_workers(-(-samples // chunk)),\n"
     "                         _INFLIGHT_BYTES // (chunk * per_sample)))",
     "workers = max(1, _workers(-(-samples // chunk)))",
     "tests/test_rip.py::test_estimate_caps_workers_by_memory"),
    # Certificates.
    ("src/ripgd/certify.py",
     "if gap > C_tilde:",
     "if gap > 10.0 * C_tilde:",
     "tests/test_certify.py::test_pl_dual_bound_validation"),
    ("src/ripgd/certify.py",
     "Z = align(X, Z)",
     "Z = 1.0 * Z",
     "tests/test_certify.py::test_normcompare"),
    ("src/ripgd/certify.py",
     "e ** 2 / (2.0 * (math.sqrt(2.0) - 1.0))",
     "e ** 2 / (1.001 * 2.0 * (math.sqrt(2.0) - 1.0))",
     "tests/test_certify.py::test_normcompare_check_equality_case"),
    ("src/ripgd/certify.py",
     " - 1.0)) + 1e-10",
     " - 1.0))",
     "tests/test_certify.py::test_normcompare_check_equality_case"),
    ("src/ripgd/certify.py",
     "q2 = math.sqrt(2.0) * mu_prime / (math.sqrt(sigma_r) - C_tilde)",
     "q2 = mu_prime / (math.sqrt(sigma_r) - C_tilde)",
     "tests/test_acceptance.py::test_golden_certify_report"),
    ("src/ripgd/certify.py",
     "basis = U * keep[:, None, :]",
     "basis = U * keep[:1, None, :]",
     "tests/test_certify.py::test_stacks_match_single_pairs_bit_for_bit"),
    ("src/ripgd/certify.py",
     '"passed": bool(lhs <= rhs + tol),',
     '"passed": True,',
     "tests/test_certify.py::test_hessian_bound_fails_at_delta_zero"),
    ("src/ripgd/certify.py",
     "if self.construction_gap:",
     "if False:",
     "tests/test_certify.py::test_construction_gap_fails_the_report"),
    ("src/ripgd/certify.py",
     "[\"passed\"]):\n        report.construction_gap = True",
     "[\"passed\"]):\n        report.construction_gap = False",
     "tests/test_certify.py::"
     "test_pl_dual_prerequisite_failure_is_a_construction_gap"),
    ("src/ripgd/certify.py",
     "if img_norm == 0.0:",
     "if False:",
     "tests/test_certify.py::test_pl_dual_empty_image_is_a_construction_gap"),
    ("src/ripgd/certify.py",
     "bound = (1.0 - q1 + q2) / (1.0 + q1)",
     "bound = (1.0 - q1 + 2.0 * q2) / (1.0 + q1)",
     "tests/test_certify.py::"
     "test_pl_dual_bound_fails_alone_at_the_rounding_scale"),
    ("src/ripgd/certify.py",
     "(math.sqrt(sigma_r) - C_tilde)",
     "(math.sqrt(sigma_r) + C_tilde)",
     "tests/test_certify.py::"
     "test_pl_dual_bound_closest_case_inside_the_prerequisites"),
    ("src/ripgd/certify.py",
     "1.0 - beta * alpha",
     "1.0 + beta * alpha",
     "tests/test_certify.py::test_saddle_eta0_axis_pair_beta_branch"),
    ("src/ripgd/certify.py",
     "if beta >= alpha / (1.0 + root):",
     "if beta <= alpha / (1.0 + root):",
     "tests/test_certify.py::test_saddle_eta0_axis_pair_beta_branch"),
    ("src/ripgd/certify.py",
     "if count < 0:",
     "if count < -1:",
     "tests/test_certify.py::test_certificate_suites_refuse_negative_counts"),
    # The sweep's stacks: zero padding.
    ("src/ripgd/certify.py",
     "Zs = np.zeros_like(Xs)",
     "Zs = np.full_like(Xs, 0.5)",
     "tests/test_certify.py::test_per_column_count_stacks_pad_with_zero_rows"),
    ("src/ripgd/certify.py",
     "if X.shape != Z.shape or X.ndim != 3:",
     "if X.shape != Z.shape or X.ndim not in (2, 3):",
     "tests/test_certify.py::test_pair_checks_refuse_mismatched_shapes"),
    ("src/ripgd/losses.py",
     "np.maximum(1.0, sv[..., :1])",
     "np.maximum(1.0, sv[..., :1].max())",
     "tests/test_certify.py::"
     "test_significant_masks_each_stacked_row_on_its_own"),
    # Bit-exact forms.
    ("src/ripgd/factored.py",
     "(np.eye(r)[:, None, :, None] * A[:, None, :])",
     "(np.eye(r)[:, None, :, None] * A[:, None, :] + 0.0)",
     "tests/test_factored.py::test_block_diag_same_bits_as_kron"),
    ("src/ripgd/factored.py",
     "out = np.zeros((r, n, n, n))",
     "out = np.full((r, n, n, n), -0.0)",
     "tests/test_factored.py::test_basis_images_same_bits_as_loop"),
    ("src/ripgd/factored.py",
     "B += P",
     "B -= P",
     "tests/test_factored.py::test_lifted_loss_single_inner_evaluation"),
    ("src/ripgd/factored.py",
     "self._pad[k:, :k] = top, top.T",
     "self._pad[k:, :k] = top, top.reshape(inner.m, k)",
     "tests/test_factored.py::test_lifted_loss_single_inner_evaluation"),
    ("src/ripgd/factored.py",
     "_NEG_ZERO = np.array([-0.0])",
     "_NEG_ZERO = np.array([0.0])",
     "tests/test_factored.py::test_lifted_loss_keeps_signed_zeros"),
    ("src/ripgd/factored.py",
     "val = v12 + 0.5 * np.vdot(M, B)",
     "val = 0.5 * v12 + 0.5 * np.vdot(M, B)",
     "tests/test_factored.py::test_lifted_loss_single_inner_evaluation"),
    ("src/ripgd/factored.py",
     "quad + 0.5 * self.phi",
     "0.5 * quad + 0.5 * self.phi",
     "tests/test_factored.py::test_lifted_hess_gram_single_inner_gram"),
    ("src/ripgd/losses.py",
     "self.symmetric_grad = operator._packed is not None",
     "self.symmetric_grad = True",
     "tests/test_factored.py::test_symmetric_grad_declaration_keeps_the_bits"),
    ("src/ripgd/losses.py",
     "self.symmetric_grad = bool(np.array_equal(y, y.T))",
     "self.symmetric_grad = True",
     "tests/test_factored.py::test_symmetric_grad_declaration_keeps_the_bits"),
    ("src/ripgd/solver.py",
     "np.subtract(N, m_star, out=N)",
     "np.subtract(N, m_star, out=m_star)",
     "tests/test_solver.py::test_in_place_distance_keeps_truth_and_start"),
    # The 1-bit step: one shape check, temporaries reused in place, the
    # step scaled in place in a gradient no saved state holds.
    ("src/ripgd/losses.py",
     "return self._value(self._check(M))",
     "return self._value(M)",
     "tests/test_losses.py::test_onebit_value_checks_the_shape"),
    ("src/ripgd/losses.py",
     "return self._value(M), self._grad(M)",
     "return self.value(M), self.grad(M)",
     "tests/test_losses.py::test_value_and_grad_checks_the_shape_once"),
    ("src/ripgd/losses.py",
     "t = np.logaddexp(self._zero, M)",
     "t = np.log1p(np.exp(M))",
     "tests/test_losses.py::"
     "test_onebit_unchecked_forms_same_bits_as_plain_expressions"),
    ("src/ripgd/solver.py",
     "saved = X, val, grad, gn, N",
     "saved = X, val, grad, gn, N\n                grad *= step",
     "tests/test_solver.py::test_perturbed_gd_matches_reference_loop"),
    ("src/ripgd/solver.py",
     "X = X + _ball_noise(rng, X.shape, params.w)",
     "X += _ball_noise(rng, X.shape, params.w)",
     "tests/test_solver.py::test_perturbed_gd_matches_reference_loop"),
    # The packed symmetric operator.
    ("src/ripgd/losses.py",
     "out = self._packed.dot(",
     "out = 0.5 * self._packed.dot(",
     "tests/test_losses.py::test_packed_apply_same_bits_as_symmetric_sum"),
    ("src/ripgd/losses.py",
     "np.where(diag, out.scale, 0.5 * out.scale)",
     "np.where(diag, out.scale, out.scale)",
     "tests/test_losses.py::test_symmetrized_operator_is_the_symmetric_part_map"),
    ("src/ripgd/losses.py",
     "return self.scale * (flat @ self._rows.T)",
     "return flat @ self._rows.T",
     "tests/test_losses.py::"
     "test_symmetrized_operator_batch_scale_and_symmetric_input"),
    ("src/ripgd/losses.py",
     "return out if self._packed is None else out.symmetrized()",
     "return out",
     "tests/test_losses.py::"
     "test_packed_with_scale_adjoint_same_bits_as_fresh_operator"),
    ("src/ripgd/losses.py",
     "start = (-buf.ctypes.data % 64) // 8",
     "start = (-buf.ctypes.data % 64) // 8 + 2",
     "tests/test_losses.py::"
     "test_sensing_stacks_are_cache_line_aligned_and_keep_the_bits"),
]

# What a copy leaves out: history, caches and run output.
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                               ".bench_out", ".benchmarks", "runs")


def apply(tree, mutant):
    """Apply one mutant to the copy of the repository at ``tree``."""
    path = Path(tree) / mutant[0]
    text = path.read_text(encoding="utf-8")
    if text.count(mutant[1]) != 1:
        raise ValueError("%s: old text not found exactly once: %r"
                         % (mutant[0], mutant[1]))
    path.write_text(text.replace(mutant[1], mutant[2]), encoding="utf-8")


def killed(mutant):
    """Whether the mutant's test fails on a mutated copy of the repository.

    Only pytest's "tests failed" exit status counts: a test that is not
    found or not collected is an error, not a kill.
    """
    with tempfile.TemporaryDirectory(prefix="ripgd-mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=_SKIP)
        apply(tree, mutant)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=str(tree / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", mutant[3]],
            cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        raise RuntimeError("%s exited %d:\n%s" % (
            mutant[3], done.returncode, done.stdout[-2000:] + done.stderr))
    return done.returncode == 1


def main(argv):
    chosen = [m for m in MUTANTS
              if not argv or any(a in m[3] or a in m[2] for a in argv)]
    survivors = []
    for mutant in chosen:
        ok = killed(mutant)
        print("%-8s %s: %r -> %r  [%s]" % (
            "killed" if ok else "SURVIVED", mutant[0], mutant[1], mutant[2],
            mutant[3]), flush=True)
        if not ok:
            survivors.append(mutant)
    print("%d of %d mutants killed" % (len(chosen) - len(survivors),
                                       len(chosen)))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
