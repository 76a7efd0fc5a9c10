"""Training objective, analytic gradients, and the Adam loop.

The regularized least-squares objective is

    (1/n) sum_i (f(x_i) - y_i)^2
        + lambda1 (|a|^2 - |v|^2)^2          # keeps the two factors balanced
        + lambda2 |a|_1,

with f the model forward pass.  Gradients are exact for the smooth part;
the L1 term contributes sign(a_i), taken as 0 at a_i = 0.  Everything is
deterministic for a fixed shuffle seed: shuffling uses a seeded permutation
and gradient reductions run in fixed index order.

predict_batch is model.forward_batch, the one forward pass, and the
objective and its gradient run over the same row chunks
(model.forward_chunks) of the one banded kernel, basis.banded_activation:
each pre-activation meets only the centers within grid.reach cells of its
own, at most grid.band_width, 37 of 200 at the shipped geometry (N=200,
h=0.04), and none once it lies more than the reach past the support; every
bump left out is below exp(-BAND_CUTOFF) ~ 4e-18 of its weight.  The kernel also sums
each center's bumps per row, H[k, p] = sum_m v_m B_k(w_m . x_p), so the
weight gradient is H times the residuals.  train runs its Adam loop inside
basis.kernel_workers, so the gradient and the per-epoch test predict split
their rows over workers forked once per train call; grad, loss and
predict_batch called on their own run in one process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .model import (
    BaselineRfModel,
    FeatureBank,
    RflafModel,
    baseline_features,
    forward_chunks,
    # the one forward pass; train looks it up here at call time
    forward_batch as predict_batch,
)
from .basis import ActivationGrid, check_count, kernel_workers, row_dot

__all__ = [
    "Diverged",
    "TrainConfig",
    "AdamState",
    "LossBreakdown",
    "EpochStats",
    "adam_step",
    "new_rflaf_model",
    "new_baseline_model",
    "predict_batch",
    "loss",
    "grad",
    "train",
    "train_baseline",
]


# Adam's moment decays and denominator guard, Kingma and Ba's defaults (Adam, ICLR 2015), used by every run.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Diverged(ArithmeticError):
    """Training stopped at its first non-finite loss or parameter.

    epoch counts from 0, as in EpochStats, and step is the Adam step
    (AdamState.step, from 1) whose loss or update was not finite.
    """

    def __init__(self, epoch: int, step: int, what: str):
        super().__init__(f"non-finite {what} at epoch {epoch}, step {step}")
        self.epoch, self.step = epoch, step


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the regularized objective and the Adam loop."""

    lambda1: float = 1e-3
    lambda2: float = 1e-4
    learning_rate: float = 1e-3
    epochs: int = 5
    batch_size: int = 256

    def __post_init__(self):
        if not (0 <= self.lambda1 < math.inf and 0 <= self.lambda2 < math.inf):
            raise ValueError(f"lambda1 and lambda2 must be nonnegative and finite, got {self.lambda1}, {self.lambda2}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        check_count("epochs", self.epochs, 0)
        check_count("batch_size", self.batch_size, 1)


@dataclass(frozen=True)
class AdamState:
    """First/second moment accumulators for one flat parameter vector."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int


@dataclass(frozen=True)
class LossBreakdown:
    """Objective split into its three terms; total is their exact sum."""

    mse: float
    balance: float
    l1: float
    total: float


@dataclass(frozen=True)
class EpochStats:
    """Per-epoch history row; train metrics are running means over batches."""

    epoch: int
    train_total: float
    train_mse: float
    train_balance: float
    train_l1: float
    test_mse: float


def adam_step(
    state: AdamState,
    params: np.ndarray,
    grads: np.ndarray,
    cfg: TrainConfig,
) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update; returns the new state and parameters."""
    if params.shape != grads.shape or params.shape != state.first_moment.shape:
        raise ValueError(
            f"shape mismatch: params {params.shape}, grads {grads.shape}, "
            f"state {state.first_moment.shape}"
        )
    t = state.step + 1
    m = ADAM_BETA1 * state.first_moment + (1.0 - ADAM_BETA1) * grads
    s = ADAM_BETA2 * state.second_moment + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = m / (1.0 - ADAM_BETA1**t)
    s_hat = s / (1.0 - ADAM_BETA2**t)
    new_params = params - cfg.learning_rate * m_hat / (np.sqrt(s_hat) + ADAM_EPS)
    return AdamState(first_moment=m, second_moment=s, step=t), new_params


def new_rflaf_model(bank: FeatureBank, grid: ActivationGrid, seed: int) -> RflafModel:
    """Balanced Gaussian init: |a| and |v| both start near 1."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(grid.n_basis) / math.sqrt(grid.n_basis)
    v = rng.standard_normal(bank.n_features) / math.sqrt(bank.n_features)
    return RflafModel(bank=bank, grid=grid, a=a, v=v)


def new_baseline_model(bank: FeatureBank, activation_kind: str, seed: int) -> BaselineRfModel:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(bank.n_features) / math.sqrt(bank.n_features)
    return BaselineRfModel(bank=bank, activation_kind=activation_kind, v=v)


def loss(model: RflafModel, X: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> LossBreakdown:
    """Objective value split into mean squared error, balance, and L1 terms: that of the gradient pass."""
    return _loss_and_grad(model, X, y, cfg)[0]


def _loss_and_grad(
    model: RflafModel,
    X: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """Objective and its exact (a, v) gradient in one pass over the data."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],) or X.shape[0] < 1:
        raise ValueError(f"inconsistent data shapes X {X.shape}, y {y.shape}")
    n = X.shape[0]
    m = model.bank.n_features
    n_basis = model.grid.n_basis
    g_a = np.zeros(n_basis)
    g_v = np.zeros(m)
    sq_resid = 0.0
    for rows, act, h, pred in forward_chunks(model, X, sums=True):
        resid = pred - y[rows]
        sq_resid += float(row_dot(resid, resid))
        g_v += np.einsum("p,pm->m", resid, act)
        # d(pred_p)/d(a_k) = H[k, p] / M
        g_a += row_dot(h, resid)
    scale = 2.0 / (n * m)
    g_a *= scale
    g_v *= scale
    gap = float(row_dot(model.a, model.a)) - float(row_dot(model.v, model.v))
    balance = cfg.lambda1 * gap * gap
    l1 = cfg.lambda2 * float(np.sum(np.abs(model.a)))
    g_a += 4.0 * cfg.lambda1 * gap * model.a + cfg.lambda2 * np.sign(model.a)
    g_v += -4.0 * cfg.lambda1 * gap * model.v
    mse = sq_resid / n
    breakdown = LossBreakdown(mse=mse, balance=balance, l1=l1, total=mse + balance + l1)
    return breakdown, g_a, g_v


def grad(
    model: RflafModel,
    X: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient of the objective in (a, v); L1 subgradient 0 at a_i = 0."""
    return _loss_and_grad(model, X, y, cfg)[1:]


def _adam_loop(params, dataset: Dataset, cfg: TrainConfig, seed: int, loss_and_grad, predict_test):
    """The Adam loop shared by every model, over the dataset's train split.

    loss_and_grad(params, idx, y_batch) returns the batch's LossBreakdown and
    the gradient in params; predict_test(params) returns the model outputs on
    the test split.  Train metrics are size-weighted running means over the
    epoch's batches, test_mse is a full pass at the end of each epoch.  seed
    orders the batches, so equal seeds produce identical parameter trajectories.
    Raises Diverged at the first non-finite batch loss or updated parameter.
    """
    state = AdamState(np.zeros(params.shape[0]), np.zeros(params.shape[0]), 0)
    rng = np.random.default_rng(seed)
    history: list[EpochStats] = []
    for epoch in range(cfg.epochs):
        sums = np.zeros(4)  # total, mse, balance, l1 weighted by batch size
        seen = 0
        order = rng.permutation(dataset.y_train.shape[0])
        for lo in range(0, order.shape[0], cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            lb, grads = loss_and_grad(params, idx, dataset.y_train[idx])
            if not math.isfinite(lb.total):
                raise Diverged(epoch, state.step + 1, "loss")
            state, params = adam_step(state, params, grads, cfg)
            if not np.all(np.isfinite(params)):
                raise Diverged(epoch, state.step, "parameter")
            sums += idx.shape[0] * np.array([lb.total, lb.mse, lb.balance, lb.l1])
            seen += idx.shape[0]
        test_resid = predict_test(params) - dataset.y_test
        test_mse = float(row_dot(test_resid, test_resid)) / max(1, dataset.y_test.shape[0])
        history.append(EpochStats(epoch, *(sums / seen), test_mse=test_mse))
    return params, history


def train(model: RflafModel, dataset: Dataset, cfg: TrainConfig, seed: int) -> tuple[RflafModel, list[EpochStats]]:
    """Adam on (a, v) of the regularized objective, shuffled by seed, inside basis.kernel_workers; see _adam_loop."""
    n_basis = model.grid.n_basis

    def at(params: np.ndarray) -> RflafModel:
        return RflafModel(bank=model.bank, grid=model.grid, a=params[:n_basis], v=params[n_basis:])

    def loss_and_grad(params, idx, yb):
        lb, g_a, g_v = _loss_and_grad(at(params), dataset.x_train[idx], yb, cfg)
        return lb, np.concatenate([g_a, g_v])

    with kernel_workers(model.grid, model.bank.n_features):
        params, history = _adam_loop(
            np.concatenate([model.a, model.v]), dataset, cfg, seed, loss_and_grad,
            lambda p: predict_batch(at(p), dataset.x_test),
        )
    return at(params), history


def train_baseline(
    model: BaselineRfModel, dataset: Dataset, cfg: TrainConfig, seed: int
) -> tuple[BaselineRfModel, list[EpochStats]]:
    """Adam on v for a fixed-activation baseline, shuffled by seed; plain MSE objective."""
    phi_train = baseline_features(model, dataset.x_train)  # (n_train, M)
    phi_test = baseline_features(model, dataset.x_test)
    m = model.bank.n_features

    def loss_and_grad(v, idx, yb):
        pb = phi_train[idx]
        resid = row_dot(pb, v) / m - yb
        mse = float(row_dot(resid, resid)) / idx.shape[0]
        g_v = (2.0 / (idx.shape[0] * m)) * np.einsum("p,pm->m", resid, pb)
        return LossBreakdown(mse=mse, balance=0.0, l1=0.0, total=mse), g_v

    v, history = _adam_loop(model.v.copy(), dataset, cfg, seed, loss_and_grad, lambda v: row_dot(phi_test, v) / m)
    return BaselineRfModel(bank=model.bank, activation_kind=model.activation_kind, v=v), history
