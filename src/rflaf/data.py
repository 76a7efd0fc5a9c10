"""Synthetic regression targets and dataset generation.

A target is f(x) = E_w[sigma(w.x) v(w)] with w standard Gaussian, sigma
one of three bump-like activations (SIGMA_KINDS), and
v(w) = calib * max(b1.w, b2.w).  The expectation is replaced by an
empirical average over a large w-sample frozen per spec seed, so the
target is a fixed deterministic function of x.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SIGMA_KINDS",
    "TargetSpec",
    "Dataset",
    "sigma_eval_array",
    "TargetSampler",
    "calibrate",
    "holdout_size",
    "gen_dataset",
]

SIGMA_KINDS = ("s1", "s2", "s3")

# Column chunk bound when evaluating the frozen w-sample against many points.
_EVAL_CHUNK = 128


def sigma_eval_array(kind: str, z: np.ndarray) -> np.ndarray:
    """Vectorized activation with exact zeros outside the stated support.

    The sine is only evaluated on the in-support entries; everything else
    stays an exact 0.0.
    """
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    if kind == "s1":
        m = np.abs(z) <= 1.0
        out[m] = np.sin(np.pi * z[m])
    elif kind == "s2":
        m = (z >= 0.0) & (z <= 1.0)
        out[m] = np.sin(np.pi * z[m])
    elif kind == "s3":
        m = (z >= -1.5) & (z <= -0.5)
        out[m] = -np.sin(np.pi * (z[m] + 0.5))
        m = (z >= 0.5) & (z <= 1.5)
        out[m] = np.sin(np.pi * (z[m] - 0.5))
    else:
        raise ValueError(f"unknown sigma kind {kind!r}; expected one of {SIGMA_KINDS}")
    return out


@dataclass(frozen=True)
class TargetSpec:
    """Recipe for one synthetic target function."""

    sigma_kind: str
    b1: np.ndarray
    b2: np.ndarray
    calib: float = 1.0
    mc_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.sigma_kind not in SIGMA_KINDS:
            raise ValueError(f"unknown sigma kind {self.sigma_kind!r}; expected one of {SIGMA_KINDS}")
        b1 = np.asarray(self.b1, dtype=float)
        b2 = np.asarray(self.b2, dtype=float)
        if b1.ndim != 1 or b1.shape != b2.shape:
            raise ValueError("b1 and b2 must be vectors of equal length")
        if not (np.all(np.isfinite(b1)) and np.all(np.isfinite(b2))):
            raise ValueError("b1 and b2 must be finite")
        if np.array_equal(b1, b2):
            raise ValueError("b1 and b2 must differ")
        if self.mc_samples < 1000:
            raise ValueError(f"mc_samples must be at least 1000, got {self.mc_samples}")
        if not math.isfinite(self.calib):
            raise ValueError("calib must be finite")
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "b2", b2)

    @property
    def dim(self) -> int:
        return self.b1.shape[0]

    def sigma(self, z: np.ndarray) -> np.ndarray:
        return sigma_eval_array(self.sigma_kind, z)

    def with_calib(self, calib: float) -> "TargetSpec":
        return dataclasses.replace(self, calib=calib)


class TargetSampler:
    """Frozen w-sample realization of a target spec.

    The same w-sample is reused for every query point, so the induced target
    is one deterministic function of x.
    """

    def __init__(self, spec: TargetSpec):
        self.spec = spec
        rng = np.random.default_rng(spec.seed)
        self.w = rng.standard_normal((spec.mc_samples, spec.dim))
        self.vvals = spec.calib * np.maximum(self.w @ spec.b1, self.w @ spec.b2)

    def means(self, X: np.ndarray) -> np.ndarray:
        """Target values for many points; chunked over columns."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.spec.dim:
            raise ValueError(f"X has shape {X.shape}, expected (n, {self.spec.dim})")
        n = X.shape[0]
        out = np.empty(n)
        for lo in range(0, n, _EVAL_CHUNK):
            hi = min(lo + _EVAL_CHUNK, n)
            z = self.w @ X[lo:hi].T  # (samples, cols)
            out[lo:hi] = self.spec.sigma(z).T @ self.vvals / self.spec.mc_samples
        return out


def calibrate(spec: TargetSpec, n_points: int = 10_000) -> float:
    """Scale factor making the mean absolute target value 1.

    Requires calib = 1 on input.  Evaluates the target on fresh Gaussian
    points drawn from a stream derived from (but independent of) the spec
    seed; deterministic per seed.
    """
    if spec.calib != 1.0:
        raise ValueError(f"calibrate expects a spec with calib = 1, got {spec.calib}")
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    sampler = TargetSampler(spec)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0x5CA1E]))
    pts = rng.standard_normal((n_points, spec.dim))
    mean_abs = float(np.mean(np.abs(sampler.means(pts))))
    if mean_abs < 1e-8:
        raise ValueError(f"degenerate target: mean |f| = {mean_abs} at calib 1")
    return 1.0 / mean_abs


@dataclass(frozen=True)
class Dataset:
    """Synthetic regression data with its train/test split."""

    X: np.ndarray
    y: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        if self.X.ndim != 2:
            raise ValueError(f"X must be a 2-D array, got shape {self.X.shape}")
        n = self.X.shape[0]
        if self.y.shape != (n,):
            raise ValueError("y length must match X rows")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise ValueError("X and y must be finite")
        joined = np.concatenate([self.train_idx, self.test_idx])
        if not np.issubdtype(joined.dtype, np.integer) or np.any((joined < 0) | (joined >= n)):
            raise ValueError(f"train and test indices must be integers in [0, {n})")
        if np.unique(joined).shape[0] != n or joined.shape[0] != n:
            raise ValueError("train and test indices must partition the rows")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def holdout_size(n: int, test_fraction: float) -> int:
    """Rows gen_dataset puts in the test split: round(n * test_fraction), in [1, n-1]."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    return min(max(int(round(n * test_fraction)), 1), n - 1)


def gen_dataset(
    spec: TargetSpec,
    n: int,
    d: int,
    test_fraction: float,
    seed: int,
) -> Dataset:
    """Draw Gaussian inputs, label them with the frozen target, split by permutation."""
    if d != spec.dim:
        raise ValueError(f"requested dim {d} does not match spec dim {spec.dim}")
    n_test = holdout_size(n, test_fraction)
    rng_x = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    rng_split = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    X = rng_x.standard_normal((n, d))
    y = TargetSampler(spec).means(X)
    perm = rng_split.permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return Dataset(X=X, y=y, train_idx=train_idx, test_idx=test_idx)
