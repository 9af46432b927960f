import math

import numpy as np
import pytest

from ripgd.losses import LinearOperator, make_gaussian_operator
from ripgd.rip import (
    RipEstimate,
    estimate_rip,
    pl_radius_sym,
    pl_radius_asym,
    local_region_sym,
    local_region_asym,
    max_step_sym,
    max_step_asym,
    prior_radii,
)


def identity_operator(n):
    return LinearOperator(np.eye(n * n).reshape(n * n, n, n))


def test_formula_table():
    # Hand-evaluated radius formulas at reference points.
    assert pl_radius_sym(0.0, 1.0) == pytest.approx(0.9101797211244548, abs=1e-12)
    assert pl_radius_asym(0.0, 1.0) == pytest.approx(1.2871885058111654, abs=1e-12)
    assert local_region_sym(0.0, 1.0) == pytest.approx(0.8284271247461903, abs=1e-12)
    assert pl_radius_sym(0.5, 4.0) == pytest.approx(1.5764775210064272, abs=1e-12)
    assert pl_radius_asym(1.0 / 3.0, 1.0) == pytest.approx(1.1147379454918027,
                                                           abs=1e-12)
    assert local_region_asym(1.0 / 3.0, 1.0) == pytest.approx(0.8284271247461903,
                                                              abs=1e-12)


def test_step_formulas():
    assert max_step_sym(1.6, 1, 1.0 / 3.0, 1.0, 1.0) == pytest.approx(
        0.021573623040265364, abs=1e-15)
    assert max_step_asym(1.6, 1, 1.0 / 3.0, 1.0, 1.0) == pytest.approx(
        0.013955687105787639, abs=1e-15)


def test_substitution_identities():
    # The asymmetric formulas are the symmetric ones after the lift's
    # substitution delta -> 2 delta/(1+delta), sigma_r -> 2 sigma_r,
    # D -> 2 D.
    rng = np.random.default_rng(0)
    for _ in range(20):
        delta = rng.uniform(0.0, 0.95)
        sigma = rng.uniform(0.1, 10.0)
        dlift = 2.0 * delta / (1.0 + delta)
        assert pl_radius_asym(delta, sigma) == pytest.approx(
            pl_radius_sym(dlift, 2.0 * sigma), rel=1e-12)
        assert local_region_asym(delta, sigma) == pytest.approx(
            local_region_sym(dlift, 2.0 * sigma), rel=1e-12)
        rho1 = rng.uniform(1.0 + 2.0 * delta, 5.0)
        dist0 = rng.uniform(0.1, 5.0)
        D = rng.uniform(0.5, 5.0)
        r = int(rng.integers(1, 6))
        assert max_step_asym(rho1, r, delta, dist0, D) == pytest.approx(
            max_step_sym(rho1, r, dlift, dist0, 2.0 * D), rel=1e-12)


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
    with pytest.raises(ValueError):
        max_step_sym(0.0, 1, 0.2, 1.0, 1.0)


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
