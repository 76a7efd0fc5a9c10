"""Synthetic regression targets and dataset generation.

A target is f(x) = E_w[sigma(w.x) v(w)] with w standard Gaussian,
sigma one of three bump-like activations (or a user table), and
v(w) = calib * max(b1.w, b2.w).  The expectation is replaced by an
empirical average over a large w-sample frozen per spec seed, so the
target is a fixed deterministic function; the remaining Monte-Carlo gap
to the true expectation is reported as a standard error, not hidden.
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .kernel import McEstimate

__all__ = [
    "SIGMA_KINDS",
    "TargetSpec",
    "Dataset",
    "McEstimate",
    "sigma_eval",
    "sigma_eval_array",
    "TargetSampler",
    "target_eval",
    "calibrate",
    "holdout_size",
    "gen_dataset",
    "save_dataset",
    "load_dataset",
    "export_csv",
]

SIGMA_KINDS = ("s1", "s2", "s3", "custom-table")

_MAGIC = b"RFDS"
_FORMAT_VERSION = 1

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
        raise ValueError(f"unknown sigma kind {kind!r}; expected one of {SIGMA_KINDS[:3]}")
    return out


def sigma_eval(kind: str, z: float) -> float:
    """Scalar activation value; piecewise-exact (continuous on all of R)."""
    return float(sigma_eval_array(kind, np.asarray(z, dtype=float)))


@dataclass(frozen=True)
class TargetSpec:
    """Recipe for one synthetic target function.

    custom_table is required only for sigma_kind 'custom-table' and holds
    (z_points, values); the activation is linear interpolation on the table
    and zero outside its range.
    """

    sigma_kind: str
    b1: np.ndarray
    b2: np.ndarray
    calib: float = 1.0
    mc_samples: int = 100_000
    seed: int = 0
    custom_table: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if self.sigma_kind not in SIGMA_KINDS:
            raise ValueError(f"unknown sigma kind {self.sigma_kind!r}; expected one of {SIGMA_KINDS}")
        b1 = np.asarray(self.b1, dtype=float)
        b2 = np.asarray(self.b2, dtype=float)
        if b1.ndim != 1 or b1.shape != b2.shape:
            raise ValueError("b1 and b2 must be vectors of equal length")
        if np.array_equal(b1, b2):
            raise ValueError("b1 and b2 must differ")
        if self.mc_samples < 1000:
            raise ValueError(f"mc_samples must be at least 1000, got {self.mc_samples}")
        if not math.isfinite(self.calib):
            raise ValueError("calib must be finite")
        if self.sigma_kind == "custom-table":
            if self.custom_table is None:
                raise ValueError("sigma_kind 'custom-table' requires custom_table")
            zt, vt = self.custom_table
            zt = np.asarray(zt, dtype=float)
            vt = np.asarray(vt, dtype=float)
            if zt.ndim != 1 or zt.shape != vt.shape or zt.shape[0] < 2:
                raise ValueError("custom_table must hold two equal-length vectors (>= 2 points)")
            if np.any(np.diff(zt) <= 0):
                raise ValueError("custom_table z-points must be strictly increasing")
            object.__setattr__(self, "custom_table", (zt, vt))
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "b2", b2)

    @property
    def dim(self) -> int:
        return self.b1.shape[0]

    def sigma(self, z: np.ndarray) -> np.ndarray:
        if self.sigma_kind == "custom-table":
            zt, vt = self.custom_table
            return np.interp(z, zt, vt, left=0.0, right=0.0)
        return sigma_eval_array(self.sigma_kind, z)

    def with_calib(self, calib: float) -> "TargetSpec":
        return TargetSpec(
            sigma_kind=self.sigma_kind,
            b1=self.b1,
            b2=self.b2,
            calib=calib,
            mc_samples=self.mc_samples,
            seed=self.seed,
            custom_table=self.custom_table,
        )


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

    def estimate(self, x: np.ndarray) -> McEstimate:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.spec.dim,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.spec.dim},)")
        vals = self.spec.sigma(self.w @ x) * self.vvals
        n = vals.shape[0]
        mean = float(vals.mean())
        var = float(vals.var(ddof=1))
        return McEstimate(mean=mean, stderr=math.sqrt(var / n), samples=n)

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


def target_eval(spec: TargetSpec, x: np.ndarray) -> McEstimate:
    """Frozen-sample target value at one point, with its standard error."""
    return TargetSampler(spec).estimate(x)


def calibrate(spec: TargetSpec, n_points: int = 10_000) -> float:
    """Scale factor making the mean absolute target value 1.

    Requires calib = 1 on input.  Evaluates the target on fresh Gaussian
    points drawn from a stream derived from (but independent of) the spec
    seed; deterministic per seed.
    """
    if spec.calib != 1.0:
        raise ValueError(f"calibrate expects a spec with calib = 1, got {spec.calib}")
    sampler = TargetSampler(spec)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0x5CA1E]))
    pts = rng.standard_normal((n_points, spec.dim))
    mean_abs = float(np.mean(np.abs(sampler.means(pts))))
    if mean_abs < 1e-8:
        raise ValueError(f"degenerate target: mean |f| = {mean_abs} at calib 1")
    return 1.0 / mean_abs


@dataclass(frozen=True)
class Dataset:
    """Synthetic regression data with its train/test split and provenance."""

    X: np.ndarray
    y: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray
    spec: TargetSpec
    seed: int
    test_fraction: float

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
    return Dataset(
        X=X,
        y=y,
        train_idx=train_idx,
        test_idx=test_idx,
        spec=spec,
        seed=int(seed),
        test_fraction=float(test_fraction),
    )


def _spec_header(spec: TargetSpec) -> dict:
    header = {
        "sigma_kind": spec.sigma_kind,
        "b1": spec.b1.tolist(),
        "b2": spec.b2.tolist(),
        "calib": spec.calib,
        "mc_samples": spec.mc_samples,
        "spec_seed": spec.seed,
    }
    if spec.custom_table is not None:
        header["custom_table_z"] = spec.custom_table[0].tolist()
        header["custom_table_v"] = spec.custom_table[1].tolist()
    return header


def _spec_from_header(header: dict) -> TargetSpec:
    table = None
    if "custom_table_z" in header:
        table = (np.asarray(header["custom_table_z"]), np.asarray(header["custom_table_v"]))
    return TargetSpec(
        sigma_kind=header["sigma_kind"],
        b1=np.asarray(header["b1"], dtype=float),
        b2=np.asarray(header["b2"], dtype=float),
        calib=float(header["calib"]),
        mc_samples=int(header["mc_samples"]),
        seed=int(header["spec_seed"]),
        custom_table=table,
    )


def save_dataset(ds: Dataset, path) -> None:
    """Binary container: magic, version, JSON header, little-endian payloads."""
    header = _spec_header(ds.spec)
    header.update(
        {
            "n": ds.n,
            "d": ds.dim,
            "dataset_seed": ds.seed,
            "test_fraction": ds.test_fraction,
            "n_train": int(ds.train_idx.shape[0]),
            "n_test": int(ds.test_idx.shape[0]),
        }
    )
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", _FORMAT_VERSION, len(blob)))
        f.write(blob)
        f.write(ds.X.astype("<f8").tobytes())
        f.write(ds.y.astype("<f8").tobytes())
        f.write(ds.train_idx.astype("<i8").tobytes())
        f.write(ds.test_idx.astype("<i8").tobytes())


def _read_exact(f: io.BufferedReader, size: int, what: str) -> bytes:
    buf = f.read(size)
    if len(buf) != size:
        raise ValueError(f"dataset file truncated while reading {what}")
    return buf


def load_dataset(path) -> Dataset:
    """Inverse of save_dataset; raises ValueError on malformed or truncated files."""
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic") != _MAGIC:
            raise ValueError("not a dataset file (bad magic)")
        version, hlen = struct.unpack("<II", _read_exact(f, 8, "version"))
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported dataset format version {version}")
        header = json.loads(_read_exact(f, hlen, "header").decode("utf-8"))
        n, d = int(header["n"]), int(header["d"])
        n_train, n_test = int(header["n_train"]), int(header["n_test"])
        X = np.frombuffer(_read_exact(f, 8 * n * d, "X"), dtype="<f8").reshape(n, d).copy()
        y = np.frombuffer(_read_exact(f, 8 * n, "y"), dtype="<f8").copy()
        train_idx = np.frombuffer(_read_exact(f, 8 * n_train, "train indices"), dtype="<i8").copy()
        test_idx = np.frombuffer(_read_exact(f, 8 * n_test, "test indices"), dtype="<i8").copy()
        if f.read(1):
            raise ValueError("dataset file has trailing bytes")
    return Dataset(
        X=X,
        y=y,
        train_idx=train_idx,
        test_idx=test_idx,
        spec=_spec_from_header(header),
        seed=int(header["dataset_seed"]),
        test_fraction=float(header["test_fraction"]),
    )


def export_csv(ds: Dataset, path) -> None:
    """Human-readable export: x_1..x_d, y, and a train(0)/test(1) flag."""
    is_test = np.zeros(ds.n, dtype=int)
    is_test[ds.test_idx] = 1
    cols = [f"x_{j + 1}" for j in range(ds.dim)] + ["y", "split"]
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        for i in range(ds.n):
            row = [f"{v:.17g}" for v in ds.X[i]] + [f"{ds.y[i]:.17g}", str(is_test[i])]
            f.write(",".join(row) + "\n")
