"""Restricted isometry estimation and convergence-region formulas.

The estimator samples random low-rank matrices, measures the energy ratio
||op(M)||^2 / ||M||_F^2 and reports the operator scale and isometry constant
implied by the extreme ratios.  The closed-form functions translate an
isometry constant and the smallest ground-truth singular value into step
sizes and radii of guaranteed linear convergence.
"""

import ctypes
import functools
import os
import threading
from dataclasses import dataclass, asdict

import numpy as np

SQRT2 = np.sqrt(2.0)

# Samples per chunk of the isometry estimate, and the bytes that the chunks
# in flight at once may hold.  The chunk size depends on the shape alone:
# the batched products can round differently for another chunk size.
_CHUNK = 256
_INFLIGHT_BYTES = 64 * 2 ** 20


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

    The samples are measured in chunks of 256, fewer when n*m is so large
    that one chunk (each sample's matrix, its square and its normal draws)
    would exceed 64 MiB.  The chunks run on W threads, W = min(chunks,
    cpus // blas_threads), where cpus is this process's CPU affinity and
    blas_threads the thread count of the loaded OpenBLAS; W is 1 when
    OpenBLAS cannot be asked, and lower when the W chunks in flight would
    exceed 64 MiB.  The chunks are still drawn in order from the one
    generator, and each thread keeps only the smallest and largest ratio it
    saw, so the result does not depend on W.
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
    rows = n if symmetric else n + m
    per_sample = 8 * (2 * n * m + rows * 2 * r)
    chunk = max(1, min(_CHUNK, _INFLIGHT_BYTES // per_sample))
    workers = max(1, min(_workers(-(-samples // chunk)),
                         _INFLIGHT_BYTES // (chunk * per_sample)))
    rng = np.random.default_rng(seed)
    draws = (rng.standard_normal((min(chunk, samples - done), rows, 2 * r))
             for done in range(0, samples, chunk))
    lock = threading.Lock()

    # ratio_band runs on several threads, so it calls nothing that the
    # benchmark's tracer wraps (perfbench/tracing.py): its span stack is
    # single-threaded.
    def ratio_band():
        lo, hi = np.inf, 0.0
        try:
            while True:
                with lock:
                    Z = next(draws, None)
                if Z is None:
                    return lo, hi
                if symmetric:
                    Ms = Z @ Z.transpose(0, 2, 1)
                else:
                    Ms = Z[:, :n, :] @ Z[:, n:, :].transpose(0, 2, 1)
                energy = np.sum(Ms * Ms, axis=(1, 2))
                meas = op.apply_batch(Ms)
                ratios = np.sum(meas * meas, axis=1) / energy
                lo = min(lo, float(ratios.min()))
                hi = max(hi, float(ratios.max()))
        except BaseException:
            # Hand out no more chunks, so the other threads stop soon.
            with lock:
                draws.close()
            raise

    bands = _call_on_threads(ratio_band, workers)
    s_min = min(lo for lo, _ in bands)
    s_max = max(hi for _, hi in bands)
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


def _workers(chunks):
    """Threads for ``chunks`` chunks: one per core that the BLAS leaves free."""
    blas = _blas_threads()
    if blas is None:
        return 1
    return max(1, min(chunks, len(os.sched_getaffinity(0)) // blas))


@functools.cache
def _blas_threads():
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
                threads = int(fn())
                return threads if threads >= 1 else None
    return None


def _call_on_threads(work, workers):
    """Results of ``work()`` called once on each of ``workers`` threads.

    The caller's thread is one of them, so one worker starts no thread.
    Every started thread is joined before this returns or raises; when a
    call raised, its exception is raised here.
    """
    results = [None] * workers
    errors = []

    def run(i):
        try:
            results[i] = work()
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        results[0] = work()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results


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
