"""Training objective, analytic gradients, and the Adam loop.

The regularized least-squares objective is

    (1/n) sum_i (f(x_i) - y_i)^2
        + lambda1 (|a|^2 - |v|^2)^2          # keeps the two factors balanced
        + lambda2 |a|_1,

with f the model forward pass.  Gradients are exact for the smooth part;
the L1 term contributes sign(a_i), taken as 0 at a_i = 0.  Everything is
deterministic for a fixed config seed: shuffling uses a seeded permutation
and gradient reductions run in fixed index order.

predict_batch is model.forward_batch, the one forward pass, and the
objective and its gradient run over the same row chunks
(model.forward_chunks): each pre-activation meets only the grid.band_width
centers within reach (basis.banded_bumps), 37 of 200 at the shipped
geometry (N=200, h=0.04), and every bump left out is below exp(-BAND_CUTOFF)
~ 4e-18 of its weight.  The weight gradient scatters each chunk's bump block
onto a with one bincount.
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
from .basis import ActivationGrid, row_dot

__all__ = [
    "TrainConfig",
    "AdamState",
    "LossBreakdown",
    "EpochStats",
    "init_adam",
    "adam_step",
    "new_rflaf_model",
    "new_baseline_model",
    "predict_batch",
    "loss",
    "grad",
    "grad_check",
    "train",
    "train_baseline",
]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the regularized objective and the Adam loop."""

    lambda1: float = 1e-3
    lambda2: float = 1e-4
    learning_rate: float = 1e-3
    epochs: int = 5
    batch_size: int = 256
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("regularizer weights lambda1 and lambda2 must be nonnegative")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ValueError("Adam betas adam_beta1 and adam_beta2 must lie in [0, 1)")
        if self.adam_eps <= 0:
            raise ValueError("adam_eps must be positive")


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


def init_adam(n_params: int) -> AdamState:
    return AdamState(
        first_moment=np.zeros(n_params),
        second_moment=np.zeros(n_params),
        step=0,
    )


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
    m = cfg.adam_beta1 * state.first_moment + (1.0 - cfg.adam_beta1) * grads
    s = cfg.adam_beta2 * state.second_moment + (1.0 - cfg.adam_beta2) * grads * grads
    m_hat = m / (1.0 - cfg.adam_beta1**t)
    s_hat = s / (1.0 - cfg.adam_beta2**t)
    new_params = params - cfg.learning_rate * m_hat / (np.sqrt(s_hat) + cfg.adam_eps)
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
    for rows, s, e, act, pred in forward_chunks(model, X):
        resid = pred - y[rows]
        sq_resid += float(resid @ resid)
        g_v += resid @ act
        # d(act_p)/d(a_{s_p + j}) = e[p, j]; scatter e * (resid (x) v) onto a.
        e *= np.multiply.outer(resid, model.v).reshape(-1, 1)
        g_a += np.bincount((s[:, None] + np.arange(e.shape[1])).reshape(-1), e.reshape(-1), n_basis)
    scale = 2.0 / (n * m)
    g_a *= scale
    g_v *= scale
    gap = float(model.a @ model.a) - float(model.v @ model.v)
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


def grad_check(
    model: RflafModel,
    X: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    step: float = 1e-5,
) -> float:
    """Worst relative disagreement between analytic and central-difference gradients.

    Relative error per coordinate is |g - fd| / max(|g| + |fd|, 1e-8).  When
    the L1 weight is active, every a_i must sit at least 10*step away from
    the kink at zero; violations raise instead of silently passing.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if cfg.lambda2 > 0 and np.min(np.abs(model.a)) <= 10.0 * step:
        raise ValueError(
            "some |a_i| <= 10*step: central differences straddle the L1 kink"
        )
    g_a, g_v = grad(model, X, y, cfg)
    worst = 0.0

    def _probe(analytic: float, rebuild) -> float:
        up = loss(rebuild(+step), X, y, cfg).total
        dn = loss(rebuild(-step), X, y, cfg).total
        fd = (up - dn) / (2.0 * step)
        return abs(analytic - fd) / max(abs(analytic) + abs(fd), 1e-8)

    for i in range(model.grid.n_basis):
        def bump_a(eps, i=i):
            a = model.a.copy()
            a[i] += eps
            return RflafModel(bank=model.bank, grid=model.grid, a=a, v=model.v)

        worst = max(worst, _probe(g_a[i], bump_a))
    for j in range(model.bank.n_features):
        def bump_v(eps, j=j):
            v = model.v.copy()
            v[j] += eps
            return RflafModel(bank=model.bank, grid=model.grid, a=model.a, v=v)

        worst = max(worst, _probe(g_v[j], bump_v))
    return worst


def _adam_loop(params, dataset: Dataset, cfg: TrainConfig, loss_and_grad, predict_test):
    """The Adam loop shared by every model, over the dataset's train split.

    loss_and_grad(params, idx, y_batch) returns the batch's LossBreakdown and
    the gradient in params; predict_test(params) returns the model outputs on
    the test split.  Train metrics are size-weighted running means over the
    epoch's batches, test_mse is a full pass at the end of each epoch.  Two
    runs with equal seeds produce identical parameter trajectories.
    """
    y_train = dataset.y[dataset.train_idx]
    y_test = dataset.y[dataset.test_idx]
    state = init_adam(params.shape[0])
    rng = np.random.default_rng(cfg.seed)
    history: list[EpochStats] = []
    for epoch in range(cfg.epochs):
        sums = np.zeros(4)  # total, mse, balance, l1 weighted by batch size
        seen = 0
        order = rng.permutation(y_train.shape[0])
        for lo in range(0, order.shape[0], cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            lb, grads = loss_and_grad(params, idx, y_train[idx])
            state, params = adam_step(state, params, grads, cfg)
            sums += idx.shape[0] * np.array([lb.total, lb.mse, lb.balance, lb.l1])
            seen += idx.shape[0]
        test_resid = predict_test(params) - y_test
        test_mse = float(test_resid @ test_resid) / max(1, y_test.shape[0])
        history.append(EpochStats(epoch, *(sums / seen), test_mse=test_mse))
    return params, history


def train(model: RflafModel, dataset: Dataset, cfg: TrainConfig) -> tuple[RflafModel, list[EpochStats]]:
    """Adam on (a, v) of the regularized objective; see _adam_loop."""
    x_train = dataset.X[dataset.train_idx]
    x_test = dataset.X[dataset.test_idx]
    n_basis = model.grid.n_basis

    def at(params: np.ndarray) -> RflafModel:
        return RflafModel(bank=model.bank, grid=model.grid, a=params[:n_basis], v=params[n_basis:])

    def loss_and_grad(params, idx, yb):
        lb, g_a, g_v = _loss_and_grad(at(params), x_train[idx], yb, cfg)
        return lb, np.concatenate([g_a, g_v])

    params, history = _adam_loop(
        np.concatenate([model.a, model.v]), dataset, cfg, loss_and_grad, lambda p: predict_batch(at(p), x_test)
    )
    return at(params), history


def train_baseline(
    model: BaselineRfModel,
    dataset: Dataset,
    cfg: TrainConfig,
) -> tuple[BaselineRfModel, list[EpochStats]]:
    """Adam on v for a fixed-activation baseline; plain MSE objective."""
    phi_train = baseline_features(model, dataset.X[dataset.train_idx])  # (n_train, width)
    phi_test = baseline_features(model, dataset.X[dataset.test_idx])
    width = model.width

    def loss_and_grad(v, idx, yb):
        pb = phi_train[idx]
        resid = pb @ v / width - yb
        mse = float(resid @ resid) / idx.shape[0]
        g_v = (2.0 / (idx.shape[0] * width)) * (resid @ pb)
        return LossBreakdown(mse=mse, balance=0.0, l1=0.0, total=mse), g_v

    v, history = _adam_loop(model.v.copy(), dataset, cfg, loss_and_grad, lambda v: row_dot(phi_test, v) / width)
    return BaselineRfModel(bank=model.bank, activation_kind=model.activation_kind, v=v), history
