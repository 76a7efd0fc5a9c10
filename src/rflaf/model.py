"""Finite-width random feature models.

The main model scores a point x as (1/M) a^T B(x) v, where B(x) is the
N x M matrix of basis responses B_k(w_m . x) over a frozen Gaussian
feature bank {w_m}.  B(x) is never formed: forward_chunks evaluates each
pre-activation w_m . x against only the centers within its band, through
basis.banded_activation.  The fixed-activation baselines share the bank
and apply one scalar activation per feature: baseline_features is their
feature matrix, which optim.train_baseline forms once per run and reduces
per row.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field

import numpy as np
from . import basis
from .basis import ActivationGrid, bumps, row_dot

__all__ = [
    "FeatureBank",
    "RflafModel",
    "BaselineRfModel",
    "BASELINE_ACTIVATIONS",
    "sample_features",
    "forward_chunks",
    "forward",
    "forward_batch",
    "baseline_features",
    "save_model",
    "load_model",
]

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class FeatureBank:
    """Frozen Gaussian feature directions, derived: n_features standard normal rows in R^dim from default_rng(seed)."""

    dim: int
    n_features: int
    seed: int
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, least in (("dim", 1), ("n_features", 1), ("seed", 0)):
            basis.check_count(name, getattr(self, name), least)
        if self.seed >= 2**63:  # save_model stores an int64 seed
            raise ValueError(f"seed must be below 2**63, got {self.seed}")
        draw = np.random.default_rng(self.seed).standard_normal((self.n_features, self.dim))
        object.__setattr__(self, "weights", draw)


@dataclass(frozen=True, eq=False)  # == is identity: comparing the arrays field by field would raise
class RflafModel:
    """Feature bank, activation grid, and the two learnable weight vectors."""

    bank: FeatureBank
    grid: ActivationGrid
    a: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if a.shape != (self.grid.n_basis,):
            raise ValueError(f"a has shape {a.shape}, expected ({self.grid.n_basis},)")
        if v.shape != (self.bank.n_features,):
            raise ValueError(f"v has shape {v.shape}, expected ({self.bank.n_features},)")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(v))):
            raise ValueError("model parameters must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "v", v)


# Each activation overwrites its float array argument with act(z) and returns it.
BASELINE_ACTIVATIONS = {
    "relu": lambda z: np.maximum(z, 0.0, out=z),
    "tanh": lambda z: np.tanh(z, out=z),
    "rbf1": lambda z: bumps(z, 0.0, 0.5),
    "rbf2": lambda z: bumps(z, 1.5, 0.5),
}


@dataclass(frozen=True, eq=False)  # == is identity, as for RflafModel
class BaselineRfModel:
    """Fixed-activation random feature model used for comparisons."""

    bank: FeatureBank
    activation_kind: str
    v: np.ndarray

    def __post_init__(self):
        if self.activation_kind not in BASELINE_ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation_kind!r}; "
                f"expected one of {sorted(BASELINE_ACTIVATIONS)}"
            )
        v = np.asarray(self.v, dtype=float)
        if v.shape != (self.bank.n_features,):
            raise ValueError(f"v has shape {v.shape}, expected ({self.bank.n_features},)")
        if not np.all(np.isfinite(v)):
            raise ValueError("model parameters must be finite")
        object.__setattr__(self, "v", v)


# An alias of FeatureBank for the benchmark's layer probes, which call sample_features(dim, n_features, seed).
sample_features = FeatureBank


def _rows(X: np.ndarray, dim: int) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != dim:
        raise ValueError(f"X has shape {X.shape}, expected (n, {dim})")
    return X


def _project(X: np.ndarray, bank: FeatureBank) -> np.ndarray:
    """The (rows, M) pre-activations z = X W^T, each row a function of its own row alone.

    np.einsum over a C-contiguous W^T loops over the M features innermost;
    "pd,md->pm" over W itself loops over the d coordinates, which took 9 ns
    per output at d = 2 on a 2-core Xeon VM.  At d <= 2 both give the same
    bits.  BLAS's X @ W.T makes no per-row promise.
    """
    return np.einsum("pd,dm->pm", X, np.ascontiguousarray(bank.weights.T))


def forward_chunks(model: RflafModel, X: np.ndarray, sums: bool = False):
    """Yield (rows, act, H, out) per chunk of basis.chunk_rows(M + N) rows.

    rows slices X; act is the chunk's (rows, M) activations from
    basis.banded_activation and, with sums set, H its (N, rows) sums
    H[k, p] = sum_m v_m B_k(w_m . x_p) (else None); out is the outputs
    act . v / M.  act and H together hold at most CHUNK_CELLS cells.
    _project forms X W^T, and basis.row_dot reduces each output, in an
    order that, unlike BLAS's, does not depend on the other rows at any M:
    each output is a function of its own row alone.
    """
    X = _rows(X, model.bank.dim)
    m = model.bank.n_features
    step = basis.chunk_rows(m + model.grid.n_basis)
    for lo in range(0, X.shape[0], step):
        rows = slice(lo, min(lo + step, X.shape[0]))
        z = _project(X[rows], model.bank)
        act, h = basis.banded_activation(model.grid, model.a, z, model.v if sums else None)
        yield rows, act, h, row_dot(act, model.v) / m


def forward_batch(model: RflafModel, X: np.ndarray) -> np.ndarray:
    """Model outputs (1/M) a^T B(x) v for the rows of X, each a function of its row alone."""
    X = np.asarray(X, dtype=float)
    if X.shape == (0,):
        return np.empty(0)
    out = np.empty(X.shape[0])
    for rows, _, _, pred in forward_chunks(model, X):
        out[rows] = pred
    return out


def forward(model: RflafModel, x: np.ndarray) -> float:
    """Model output (1/M) a^T B(x) v: forward_batch on the one row x."""
    return float(forward_batch(model, np.asarray(x, dtype=float)[None])[0])


def baseline_features(model: BaselineRfModel, X: np.ndarray) -> np.ndarray:
    """The (rows, M) activations act(w_m.x) of the rows of X.

    _project, as in forward_chunks, makes each row a function of its own
    row alone.  Reduce them per row with basis.row_dot to keep that.  The
    activation overwrites the projection, so the matrix is held once.
    """
    X = _rows(X, model.bank.dim)
    return BASELINE_ACTIVATIONS[model.activation_kind](_project(X, model.bank))


def save_model(model: RflafModel, path) -> None:
    """Checkpoint holding the bank seed, dimensions, grid geometry, and weights, written to path as given.

    The bank matrix itself is not stored; it is regenerated from the seed on
    load, so a round trip reproduces forward outputs bit-exactly.
    """
    with open(path, "wb") as file:  # np.savez would append .npz to a path without it
        np.savez(
            file,
            format_version=np.int64(CHECKPOINT_VERSION),
            bank_seed=np.int64(model.bank.seed),
            dim=np.int64(model.bank.dim),
            n_features=np.int64(model.bank.n_features),
            support_lo=np.float64(model.grid.support_lo),
            support_hi=np.float64(model.grid.support_hi),
            n_basis=np.int64(model.grid.n_basis),
            width=np.float64(model.grid.width),
            a=model.a,
            v=model.v,
        )


def _field(data, name: str, kind: type):
    """Checkpoint field name as kind (int or float); ValueError unless it is 0-d, of an integer dtype for an int."""
    value = data[name]
    if value.shape != () or value.dtype.kind not in ("iu" if kind is int else "iuf"):
        raise ValueError(f"checkpoint field {name!r} must be one {kind.__name__}, got {value.dtype} of shape {value.shape}")
    return kind(value)


def load_model(path) -> RflafModel:
    """Rebuild a model from a checkpoint written by save_model; ValueError if path holds none."""
    try:
        with np.lib.npyio.NpzFile(path) as data:  # np.load, without its .npy and pickle branches
            version = _field(data, "format_version", int)
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            bank = FeatureBank(*(_field(data, name, int) for name in ("dim", "n_features", "bank_seed")))
            lo, hi, width = (_field(data, name, float) for name in ("support_lo", "support_hi", "width"))
            grid = ActivationGrid(lo, hi, _field(data, "n_basis", int), width)
            a, v = data["a"], data["v"]
            for name, value in (("a", a), ("v", v)):
                if value.dtype.kind != "f":  # RflafModel would drop an imaginary part or parse strings
                    raise ValueError(f"checkpoint field {name!r} must hold real floats, got {value.dtype}")
            return RflafModel(bank=bank, grid=grid, a=a, v=v)
    except KeyError as exc:
        raise ValueError(f"checkpoint missing field {exc}") from exc
    except zipfile.BadZipFile as exc:
        raise ValueError(f"not a readable .npz file: {exc}") from exc
