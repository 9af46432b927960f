import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from ripgd import rip
from ripgd.losses import LinearOperator, make_gaussian_operator
from ripgd.rip import (
    RipEstimate,
    estimate_rip,
    lift_delta,
    pl_radius_sym,
    local_region_sym,
    max_step_sym,
    prior_radii,
)


def identity_operator(n):
    return LinearOperator(np.eye(n * n).reshape(n * n, n, n))


def test_formula_table():
    # Hand-evaluated radius formulas at reference points; the asymmetric
    # ones are the symmetric formulas at the lifted constants.
    assert pl_radius_sym(0.0, 1.0) == pytest.approx(0.9101797211244548, abs=1e-12)
    assert pl_radius_sym(lift_delta(0.0), 2.0) == pytest.approx(
        1.2871885058111654, abs=1e-12)
    assert local_region_sym(0.0, 1.0) == pytest.approx(0.8284271247461903, abs=1e-12)
    assert pl_radius_sym(0.5, 4.0) == pytest.approx(1.5764775210064272, abs=1e-12)
    assert pl_radius_sym(lift_delta(1.0 / 3.0), 2.0) == pytest.approx(
        1.1147379454918027, abs=1e-12)
    assert local_region_sym(lift_delta(1.0 / 3.0), 2.0) == pytest.approx(
        0.8284271247461903, abs=1e-12)


def test_step_formulas():
    assert max_step_sym(1.6, 1, 1.0 / 3.0, 1.0, 1.0) == pytest.approx(
        0.021573623040265364, abs=1e-15)
    assert max_step_sym(1.6, 1, lift_delta(1.0 / 3.0), 1.0, 2.0) == pytest.approx(
        0.013955687105787639, abs=1e-15)


def test_substitution_identities():
    # The symmetric formulas at the lift's constants delta -> 2 delta/(1+delta),
    # sigma_r -> 2 sigma_r, D -> 2 D equal the asymmetric closed forms,
    # written out here so that the oracle does not depend on ripgd.rip.
    sqrt2 = math.sqrt(2.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        delta = rng.uniform(0.0, 0.95)
        sigma = rng.uniform(0.1, 10.0)
        dlift = lift_delta(delta)
        assert dlift == pytest.approx(2.0 * delta / (1.0 + delta), rel=1e-15)
        assert pl_radius_sym(dlift, 2.0 * sigma) == pytest.approx(
            2.0 * math.sqrt(sqrt2 - 1.0)
            * math.sqrt(1.0 + 2.0 * delta - 3.0 * delta ** 2) / (1.0 + delta)
            * math.sqrt(sigma), rel=1e-12)
        assert local_region_sym(dlift, 2.0 * sigma) == pytest.approx(
            4.0 * (sqrt2 - 1.0) * (1.0 - delta) / (1.0 + delta) * sigma,
            rel=1e-12)
        rho1 = rng.uniform(1.0 + 2.0 * delta, 5.0)
        dist0 = rng.uniform(0.1, 5.0)
        D = rng.uniform(0.5, 5.0)
        r = int(rng.integers(1, 6))
        ratio = math.sqrt((1.0 + 3.0 * delta) / (1.0 - delta))
        assert max_step_sym(rho1, r, dlift, dist0, 2.0 * D) == pytest.approx(
            1.0 / (12.0 * rho1 * math.sqrt(r) * (ratio * dist0 + 2.0 * D)),
            rel=1e-12)


def test_formula_monotonicity():
    # Radii shrink as delta grows and grow with sigma_r; the step bound
    # shrinks with the initial distance.
    assert pl_radius_sym(0.6, 1.0) < pl_radius_sym(0.2, 1.0)
    assert local_region_sym(0.2, 2.0) > local_region_sym(0.2, 1.0)
    assert max_step_sym(2.0, 2, 0.3, 5.0, 1.0) < max_step_sym(2.0, 2, 0.3, 1.0, 1.0)


def test_formula_validation():
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            pl_radius_sym(bad, 1.0)
    with pytest.raises(ValueError):
        local_region_sym(0.2, 0.0)
    for bad in (-0.1, 1.0):
        with pytest.raises(ValueError):
            lift_delta(bad)
    for args in ((0.0, 1, 0.2, 1.0, 1.0), (1.5, 0, 0.2, 1.0, 1.0),
                 (1.5, 1, 0.2, -1.0, 1.0), (1.5, 1, 0.2, 1.0, 0.0),
                 (1.5, 1, 0.2, 1.0, -1.0)):
        with pytest.raises(ValueError):
            max_step_sym(*args)


def test_max_step_refuses_nan_dist0():
    # NaN passes "dist0 < 0", and the step would be NaN.
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="dist0"):
            max_step_sym(1.5, 1, 0.2, bad, 1.0)


def test_max_step_refuses_infinite_bound_d():
    # bound_d = inf would give the step 0.0.
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="bound_d"):
            max_step_sym(1.5, 1, 0.2, 1.0, bad)


def test_max_step_refuses_infinite_rho1():
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="rho1"):
            max_step_sym(bad, 1, 0.2, 1.0, 1.0)


def test_prior_radii_table():
    got = prior_radii(0.0, 1.0, 1.0)
    assert list(got.keys()) == ["sym_spectral", "sym_procrustes",
                                "asym_procrustes", "asym_spectral",
                                "asym_general"]
    assert got["sym_spectral"] == pytest.approx(0.01, abs=1e-15)
    assert got["sym_procrustes"] == pytest.approx(0.25, abs=1e-15)
    assert got["asym_procrustes"] == pytest.approx(0.25, abs=1e-15)
    assert got["asym_spectral"] == pytest.approx(math.sqrt(2.0) / 10.0, abs=1e-15)
    assert got["asym_general"] == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        prior_radii(0.0, 2.0, 1.0)


def test_identity_operator_is_isometry():
    est = estimate_rip(identity_operator(3), 1, samples=50, seed=0)
    assert est.delta == pytest.approx(0.0, abs=1e-12)
    assert est.scale == pytest.approx(1.0, rel=1e-12)
    assert est.symmetric is True


def test_estimate_scale_is_absolute():
    # The reported scale refers to the raw matrices, so estimating a
    # rescaled copy of the operator returns the same calibration.
    op = make_gaussian_operator(4, 4, 30, seed=3)
    a = estimate_rip(op, 1, samples=400, seed=1)
    b = estimate_rip(op.with_scale(7.3), 1, samples=400, seed=1)
    assert b.delta == pytest.approx(a.delta, rel=1e-12)
    assert b.scale == pytest.approx(a.scale, rel=1e-12)
    # Installing the calibration centers the ratio band at one.
    cal = estimate_rip(op.with_scale(a.scale), 1, samples=400, seed=1)
    assert cal.s_max == pytest.approx(1.0 + cal.delta, rel=1e-10)
    assert cal.s_min == pytest.approx(1.0 - cal.delta, rel=1e-10)


def test_estimate_streaming_monotonicity():
    # Extending the sample stream can only widen the observed ratio band.
    op = make_gaussian_operator(5, 5, 40, seed=4)
    small = estimate_rip(op, 2, samples=300, seed=2)
    big = estimate_rip(op, 2, samples=900, seed=2)
    assert big.delta >= small.delta - 1e-15
    assert big.s_min <= small.s_min + 1e-15
    assert big.s_max >= small.s_max - 1e-15


def test_estimate_determinism_and_fields():
    op = make_gaussian_operator(4, 3, 25, seed=5)
    a = estimate_rip(op, 2, samples=500, seed=7)
    b = estimate_rip(op, 2, samples=500, seed=7)
    assert a == b
    assert isinstance(a, RipEstimate)
    assert a.symmetric is False
    assert 0.0 <= a.delta < 1.0
    d = a.to_dict()
    assert d["samples"] == 500 and d["seed"] == 7
    assert d["delta"] == a.delta


def test_estimate_validation():
    op = make_gaussian_operator(4, 3, 10, seed=6)
    with pytest.raises(ValueError):
        estimate_rip(op, 1, samples=0)
    with pytest.raises(ValueError):
        estimate_rip(op, 0, samples=10)
    with pytest.raises(ValueError):
        estimate_rip(op, 1, samples=10, symmetric=True)
    zero = LinearOperator(np.zeros((3, 2, 2)) + 0.0, scale=1.0)
    zero.matrices[:] = 0.0
    with pytest.raises(ValueError):
        estimate_rip(zero, 1, samples=10)


def test_gaussian_operator_concentrates():
    # With p >> n*r the scaled Gaussian operator is a near isometry on
    # rank-2 matrices; the estimate should land comfortably below one.
    op = make_gaussian_operator(6, 6, 800, seed=8)
    est = estimate_rip(op, 1, samples=800, seed=9)
    assert est.delta < 0.6
    assert est.scale > 0.0


def reference_estimate(op, r, samples, seed, symmetric):
    # The sequential chunk loop: 256 samples at a time, one running band.
    n, m = op.n, op.m
    rng = np.random.default_rng(seed)
    s_min = np.inf
    s_max = 0.0
    done = 0
    while done < samples:
        k = min(256, samples - done)
        if symmetric:
            X = rng.standard_normal((k, n, 2 * r))
            Ms = X @ X.transpose(0, 2, 1)
        else:
            Z = rng.standard_normal((k, n + m, 2 * r))
            Ms = Z[:, :n, :] @ Z[:, n:, :].transpose(0, 2, 1)
        energy = np.sum(Ms * Ms, axis=(1, 2))
        meas = op.apply_batch(Ms)
        ratios = np.sum(meas * meas, axis=1) / energy
        s_min = min(s_min, float(ratios.min()))
        s_max = max(s_max, float(ratios.max()))
        done += k
    return RipEstimate(
        scale=float(op.scale * np.sqrt(2.0 / (s_max + s_min))),
        delta=float((s_max - s_min) / (s_max + s_min)),
        samples=samples, seed=seed, s_min=s_min, s_max=s_max,
        symmetric=symmetric)


def force_workers(monkeypatch, workers):
    monkeypatch.setattr(rip, "_workers", lambda chunks: workers)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("samples", [1, 255, 256, 257, 1000])
@pytest.mark.parametrize("shape", [(5, 5, 40, 2, True), (4, 3, 25, 2, False)])
def test_estimate_equals_sequential_reference(monkeypatch, workers, samples,
                                              shape):
    # The threaded estimate draws the same chunks from the one generator and
    # keeps exact extremes, so every field equals the sequential loop's.
    n, m, p, r, symmetric = shape
    op = make_gaussian_operator(n, m, p, seed=12).with_scale(0.3)
    want = reference_estimate(op, r, samples, 5, symmetric)
    force_workers(monkeypatch, workers)
    got = estimate_rip(op, r, samples=samples, seed=5, symmetric=symmetric)
    for field in ("scale", "delta", "samples", "seed", "s_min", "s_max",
                  "symmetric"):
        assert getattr(got, field) == getattr(want, field), field


class FailingOperator:
    """Operator stub whose apply_batch raises on call ``fail_at + 1`` only.

    The other calls sleep 5 ms, so the failing thread gets to run while
    they are measured.
    """

    n = m = 4
    scale = 1.0

    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.calls = 0
        self.lock = threading.Lock()

    def apply_batch(self, Ms):
        with self.lock:
            self.calls += 1
            calls = self.calls
        if calls == self.fail_at + 1:
            raise RuntimeError("apply_batch failed")
        time.sleep(0.005)
        return Ms.reshape(len(Ms), -1)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("fail_at", [0, 2])
def test_estimate_raises_worker_error_in_caller(monkeypatch, workers, fail_at):
    force_workers(monkeypatch, workers)
    before = threading.active_count()
    op = FailingOperator(fail_at)
    with pytest.raises(RuntimeError, match="apply_batch failed"):
        estimate_rip(op, 1, samples=5000, seed=0)
    assert threading.active_count() == before
    # A failure stops the hand-out of the 20 chunks.
    assert op.calls < 20


class RecordingOperator(LinearOperator):
    """Sensing operator that records the size of each batch it measures."""

    def apply_batch(self, Ms):
        self.batches.append(len(Ms))
        return super().apply_batch(Ms)


def recording_operator(n, m, p):
    op = RecordingOperator(make_gaussian_operator(n, m, p, seed=1).matrices)
    op.batches = []
    return op


def test_estimate_many_threads_fast_switching(monkeypatch):
    # More threads than cores, switching often: every chunk is measured
    # once and the band still equals the sequential loop's.
    force_workers(monkeypatch, 8)
    op = recording_operator(4, 3, 25)
    want = reference_estimate(op, 1, 5000, 3, False)
    op.batches = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = estimate_rip(op, 1, samples=5000, seed=3)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(op.batches) == [136] + [256] * 19
    assert got == want


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_chunk_is_256_at_figure_shapes(monkeypatch, workers):
    force_workers(monkeypatch, workers)
    for n, m, p, r in ((40, 40, 120, 1), (10, 8, 220, 5)):
        op = recording_operator(n, m, p)
        estimate_rip(op, r, samples=600, seed=0)
        assert sorted(op.batches) == [88, 256, 256]


@pytest.mark.parametrize("workers", [1, 2])
def test_estimate_memory_stays_in_budget(monkeypatch, workers):
    # At n = m = 300 one 256-sample chunk holds about 370 MB; the chunk
    # shrinks so that the chunks in flight fit the budget, whatever W is.
    force_workers(monkeypatch, workers)
    op = recording_operator(300, 300, 2)
    tracemalloc.start()
    try:
        estimate_rip(op, 1, samples=60, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1 <= max(op.batches) < 256 and sum(op.batches) == 60
    assert peak < rip._INFLIGHT_BYTES + 2 ** 20


def test_estimate_caps_workers_by_memory(monkeypatch):
    # At n = m = 300 one chunk fills more than half the in-flight budget,
    # so a second thread would exceed it: the estimate runs on one even
    # when two cores are free.
    force_workers(monkeypatch, 2)
    seen = []
    call = rip._call_on_threads

    def recording(work, workers):
        seen.append(workers)
        return call(work, workers)

    monkeypatch.setattr(rip, "_call_on_threads", recording)
    estimate_rip(recording_operator(300, 300, 2), 1, samples=1, seed=0)
    assert seen == [1]
