"""Restricted isometry estimation and convergence-region formulas.

The estimator samples random low-rank matrices, measures the energy ratio
||op(M)||^2 / ||M||_F^2 and reports the operator scale and isometry constant
implied by the extreme ratios.  The closed-form functions translate an
isometry constant and the smallest ground-truth singular value into step
sizes and radii of guaranteed linear convergence.
"""

from dataclasses import dataclass, asdict

import numpy as np

SQRT2 = np.sqrt(2.0)

_CHUNK = 256


def _check_delta(delta):
    if not 0 <= delta < 1:
        raise ValueError("delta must lie in [0, 1)")


def _check_sigma(sigma_r):
    if not sigma_r > 0:
        raise ValueError("sigma_r must be positive")


@dataclass
class RipEstimate:
    """Empirical restricted isometry summary.

    ``scale`` is the multiplier that centers the sampled energy ratios of
    the unscaled operator around one, ``delta`` the implied isometry
    constant: scale^2 = 2 / (s_max + s_min) and
    delta = (s_max - s_min) / (s_max + s_min).
    """

    scale: float
    delta: float
    samples: int
    seed: int
    s_min: float
    s_max: float
    symmetric: bool

    def to_dict(self):
        return asdict(self)


def estimate_rip(op, r, *, samples=10000, seed=0, symmetric=None):
    """Estimate the rank-2r isometry constant of a sensing operator.

    Draws ``samples`` random rank-2r matrices of the operator's n-by-m
    shape, symmetric ones (the default for a square operator) as X X^T with
    X an n-by-2r standard normal factor, rectangular ones as U V^T.  The
    returned scale always refers to the unscaled sensing matrices, so it can
    be installed directly with ``op.with_scale``.  Sample draws are streamed
    from one generator, so a longer run extends a shorter one with the same
    seed.
    """
    n, m = op.n, op.m
    if samples < 1:
        raise ValueError("need at least one sample")
    if r < 1:
        raise ValueError("rank must be positive")
    if symmetric is None:
        symmetric = n == m
    if symmetric and n != m:
        raise ValueError("symmetric sampling needs a square operator")
    rng = np.random.default_rng(seed)
    s_min = np.inf
    s_max = 0.0
    done = 0
    while done < samples:
        k = min(_CHUNK, samples - done)
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
    if s_max <= 0.0:
        raise ValueError("operator annihilated every sample; cannot calibrate")
    delta = (s_max - s_min) / (s_max + s_min)
    scale = op.scale * np.sqrt(2.0 / (s_max + s_min))
    return RipEstimate(
        scale=float(scale),
        delta=float(delta),
        samples=int(samples),
        seed=seed,
        s_min=s_min,
        s_max=s_max,
        symmetric=bool(symmetric),
    )


def pl_radius_sym(delta, sigma_r):
    """Factor-space radius of the gradient dominance region, symmetric case."""
    _check_delta(delta)
    _check_sigma(sigma_r)
    return np.sqrt(2.0 * (SQRT2 - 1.0)) * np.sqrt(1.0 - delta ** 2) * np.sqrt(sigma_r)


def pl_radius_asym(delta, sigma_r):
    """Factor-space gradient dominance radius for lifted asymmetric problems."""
    _check_delta(delta)
    _check_sigma(sigma_r)
    return (
        2.0 * np.sqrt(SQRT2 - 1.0)
        * np.sqrt(1.0 + 2.0 * delta - 3.0 * delta ** 2) / (1.0 + delta)
        * np.sqrt(sigma_r)
    )


def local_region_sym(delta, sigma_r):
    """Matrix-space radius around the truth with guaranteed linear rate."""
    _check_delta(delta)
    _check_sigma(sigma_r)
    return 2.0 * (SQRT2 - 1.0) * (1.0 - delta) * sigma_r


def local_region_asym(delta, sigma_r):
    """Matrix-space linear-rate radius for the lifted asymmetric problem."""
    _check_delta(delta)
    _check_sigma(sigma_r)
    return 4.0 * (SQRT2 - 1.0) * (1.0 - delta) / (1.0 + delta) * sigma_r


def max_step_sym(rho1, r, delta, dist0, bound_d):
    """Largest admissible step size for the symmetric local guarantee."""
    _check_delta(delta)
    if rho1 <= 0 or r < 1 or dist0 < 0 or bound_d <= 0:
        raise ValueError("invalid step-size inputs")
    ratio = np.sqrt((1.0 + delta) / (1.0 - delta))
    return 1.0 / (12.0 * rho1 * np.sqrt(r) * (ratio * dist0 + bound_d))


def max_step_asym(rho1, r, delta, dist0, bound_d):
    """Largest admissible step size for the lifted asymmetric guarantee."""
    _check_delta(delta)
    if rho1 <= 0 or r < 1 or dist0 < 0 or bound_d <= 0:
        raise ValueError("invalid step-size inputs")
    ratio = np.sqrt((1.0 + 3.0 * delta) / (1.0 - delta))
    return 1.0 / (12.0 * rho1 * np.sqrt(r) * (ratio * dist0 + 2.0 * bound_d))


def prior_radii(delta, sigma_r, sigma_1):
    """Convergence radii guaranteed by earlier local analyses.

    Returns an ordered mapping from a short label of each analysis to the
    factor-space radius it certifies, for comparison against the
    gradient dominance radii above.
    """
    _check_delta(delta)
    _check_sigma(sigma_r)
    if sigma_1 < sigma_r:
        raise ValueError("sigma_1 must be at least sigma_r")
    root = np.sqrt(sigma_r)
    contrast = (1.0 - delta) / (1.0 + delta)
    return {
        "sym_spectral": 0.01 * contrast * (sigma_r / sigma_1) * root,
        "sym_procrustes": 0.25 * root,
        "asym_procrustes": 0.25 * root,
        "asym_spectral": (SQRT2 / 10.0) * np.sqrt(contrast) * root,
        "asym_general": root,
    }
