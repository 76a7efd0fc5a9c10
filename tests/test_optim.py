"""Objective, analytic gradients, Adam, and the training loop."""

import math
import mmap
import os

import numpy as np
import pytest

from rflaf import basis
from rflaf.basis import build_grid, bumps
from rflaf.data import Dataset
from rflaf.model import RflafModel, forward, sample_features
from rflaf.optim import (
    AdamState,
    Diverged,
    LossBreakdown,
    TrainConfig,
    _adam_loop,
    adam_step,
    grad,
    loss,
    new_baseline_model,
    new_rflaf_model,
    predict_batch,
    train,
    train_baseline,
)

from gradcheck import grad_check

PLAIN = TrainConfig(lambda1=0.0, lambda2=0.0)


def _dense_basis(model, x):
    """N x M basis B(x) over every center: the reference for the band."""
    z = model.bank.weights @ x
    return bumps(np.tile(z, (model.grid.n_basis, 1)), model.grid.centers[:, None], model.grid.width)


def _dense_reference(model, X, y):
    """Outputs and plain-MSE gradient in (a, v) over every center, row by row."""
    m = model.bank.n_features
    pred, want_a, want_v = [], np.zeros(model.grid.n_basis), np.zeros(m)
    for x, target in zip(X, y):
        b = _dense_basis(model, x)
        pred.append(model.a @ b @ model.v / m)
        resid = pred[-1] - target
        want_a += resid * (b @ model.v)
        want_v += resid * (b.T @ model.a)
    scale = 2.0 / (X.shape[0] * m)
    return np.array(pred), scale * want_a, scale * want_v


def _instance(rng, n_basis=4, m=6, d=3, n=8, min_abs_a=0.0):
    bank = sample_features(d, m, seed=int(rng.integers(2**31)))
    grid = build_grid(-2.0, 2.0, n_basis, 0.5)
    a = rng.standard_normal(n_basis)
    if min_abs_a > 0:
        a = np.sign(a) * (np.abs(a) + min_abs_a)
    v = rng.standard_normal(m)
    model = RflafModel(bank=bank, grid=grid, a=a, v=v)
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    return model, X, y


def _scripted_objective(model, X, y, lam1, lam2):
    """Independent scalar-loop evaluation of the training objective."""
    m = model.bank.n_features
    h = model.grid.width
    sq = 0.0
    for i in range(X.shape[0]):
        pred = 0.0
        for mm in range(m):
            z = float(model.bank.weights[mm] @ X[i])
            for k in range(model.grid.n_basis):
                pred += model.a[k] * math.exp(-((z - model.grid.centers[k]) ** 2) / (2 * h * h)) * model.v[mm]
        pred /= m
        sq += (pred - y[i]) ** 2
    mse = sq / X.shape[0]
    gap = sum(ai * ai for ai in model.a) - sum(vi * vi for vi in model.v)
    return mse, lam1 * gap * gap, lam2 * sum(abs(ai) for ai in model.a)


class TestLoss:
    def test_all_zero(self):
        rng = np.random.default_rng(0)
        model, X, _ = _instance(rng)
        zeroed = RflafModel(
            bank=model.bank, grid=model.grid, a=np.zeros_like(model.a), v=np.zeros_like(model.v)
        )
        out = loss(zeroed, X, np.zeros(X.shape[0]), TrainConfig(lambda1=1.0, lambda2=1.0))
        assert out.total == 0.0

    def test_balanced_norms_kill_balance_term(self):
        rng = np.random.default_rng(1)
        model, X, y = _instance(rng, n_basis=4, m=4)
        v = model.a.copy()  # same norm by construction
        balanced = RflafModel(bank=model.bank, grid=model.grid, a=model.a, v=v)
        out = loss(balanced, X[:, :3], y, TrainConfig(lambda1=3.0, lambda2=0.0))
        assert out.balance == 0.0

    def test_matches_scripted_oracle(self):
        rng = np.random.default_rng(2)
        model, X, y = _instance(rng, n_basis=2, m=2, d=2, n=3)
        cfg = TrainConfig(lambda1=0.7, lambda2=0.3)
        got = loss(model, X, y, cfg)
        mse, balance, l1 = _scripted_objective(model, X, y, 0.7, 0.3)
        assert got.mse == pytest.approx(mse, rel=1e-12, abs=1e-14)
        assert got.balance == pytest.approx(balance, rel=1e-12)
        assert got.l1 == pytest.approx(l1, rel=1e-12)
        assert got.total == pytest.approx(mse + balance + l1, rel=1e-12)

    def test_decomposition_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            model, X, y = _instance(rng)
            out = loss(model, X, y, TrainConfig(lambda1=0.01, lambda2=0.02))
            assert out.total == out.mse + out.balance + out.l1
            assert out.mse >= 0 and out.balance >= 0 and out.l1 >= 0

    def test_sign_flip_invariance_exact(self):
        rng = np.random.default_rng(4)
        model, X, y = _instance(rng)
        cfg = TrainConfig(lambda1=0.05, lambda2=0.07)
        flipped = RflafModel(bank=model.bank, grid=model.grid, a=-model.a, v=-model.v)
        assert loss(model, X, y, cfg).total == loss(flipped, X, y, cfg).total

    def test_scaling_identity_without_regularizers(self):
        rng = np.random.default_rng(5)
        model, X, y = _instance(rng)
        base = loss(model, X, y, PLAIN).mse
        for t in (2.0, -0.5, 7.3):
            scaled = RflafModel(bank=model.bank, grid=model.grid, a=t * model.a, v=model.v / t)
            assert loss(scaled, X, y, PLAIN).mse == pytest.approx(base, rel=1e-12, abs=1e-12)

    def test_shape_error(self):
        rng = np.random.default_rng(6)
        model, X, y = _instance(rng)
        with pytest.raises(ValueError):
            loss(model, X, y[:-1], PLAIN)


class TestGrad:
    def test_zero_at_global_minimum(self):
        rng = np.random.default_rng(10)
        model, X, _ = _instance(rng)
        zeroed = RflafModel(
            bank=model.bank, grid=model.grid, a=np.zeros_like(model.a), v=np.zeros_like(model.v)
        )
        g_a, g_v = grad(zeroed, X, np.zeros(X.shape[0]), TrainConfig(lambda1=1.0, lambda2=0.0))
        assert np.all(g_a == 0.0)
        assert np.all(g_v == 0.0)

    def test_single_sample_v_gradient_formula(self):
        rng = np.random.default_rng(11)
        model, X, y = _instance(rng, n=1)
        g_a, g_v = grad(model, X, y, PLAIN)
        r = forward(model, X[0]) - y[0]
        b = _dense_basis(model, X[0])
        want = 2.0 * r * (b.T @ model.a) / model.bank.n_features
        assert np.allclose(g_v, want, rtol=1e-12, atol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            model, X, y = _instance(rng, min_abs_a=0.1)
            cfg = TrainConfig(lambda1=1e-2, lambda2=1e-3)
            assert grad_check(model, X, y, cfg, step=1e-5) <= 1e-5


def _banded_instance(rng, m, n, min_abs_a=0.05):
    """Shipped grid geometry (N=200, h=0.04 on [-2, 2]): a band of at most 37 centers.

    Inputs are scaled so that pre-activations fall past both ends of the
    support, where the band holds only the centers within reach, or none.
    """
    bank = sample_features(2, m, seed=int(rng.integers(2**31)))
    grid = build_grid(-2.0, 2.0, 200, 0.04)
    assert grid.band_width == 37
    a = rng.standard_normal(200)
    a = np.sign(a) * (np.abs(a) + min_abs_a)
    model = RflafModel(bank=bank, grid=grid, a=a, v=rng.standard_normal(m))
    X = 2.5 * rng.standard_normal((n, 2))
    z = X @ bank.weights.T
    assert z.min() < -2.0 and z.max() > 2.0
    return model, X, rng.standard_normal(n)


class TestBandedGrad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        model, X, y = _banded_instance(rng, m=20, n=16)
        cfg = TrainConfig(lambda1=1e-2, lambda2=1e-3)
        assert grad_check(model, X, y, cfg, step=1e-5) <= 1e-5

    def test_matches_dense_reference(self, monkeypatch):
        # M=300 and 100 rows span 3 row chunks of 40 rows with chunks of 20,000 cells
        monkeypatch.setattr(basis, "CHUNK_CELLS", 20_000)
        rng = np.random.default_rng(14)
        model, X, y = _banded_instance(rng, m=300, n=100)
        assert basis.CHUNK_CELLS // (300 + 200) == 40
        _, want_a, want_v = _dense_reference(model, X, y)
        g_a, g_v = grad(model, X, y, PLAIN)
        for got, want in ((g_a, want_a), (g_v, want_v)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_window_starts_past_16_bits(self):
        # 70,000 centers: cell keys up to N + 2 reach + 1 = 70,159 need a 32-bit key,
        # and 4 rows of 10 features reach at most 40 * 159 of the centers
        rng = np.random.default_rng(16)
        grid = build_grid(-2.0, 2.0, 70_000, 0.0005)
        assert grid.n_basis - grid.band_width >= 2**16 and 4 * 10 * grid.band_width < grid.n_basis
        bank = sample_features(2, 10, seed=17)
        model = RflafModel(bank=bank, grid=grid, a=rng.standard_normal(70_000), v=rng.standard_normal(10))
        X, y = rng.standard_normal((4, 2)), rng.standard_normal(4)
        batch = predict_batch(model, X)
        assert batch.tobytes() == np.array([forward(model, x) for x in X]).tobytes()
        want_pred, want_a, want_v = _dense_reference(model, X, y)
        for got, want in ((batch, want_pred), *zip(grad(model, X, y, PLAIN), (want_a, want_v))):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_evaluates_one_window_per_cell(self, monkeypatch):
        # every pre-activation in cell i meets exactly the centers of [i - reach, i + reach]
        # within [0, N), none past the reach beyond either end of the support, in whichever
        # process of basis.kernel_workers runs its row: each process counts into its own
        # slot of shared memory, slot 0 the parent and slot i its i-th fork
        rng = np.random.default_rng(18)
        model, X, y = _banded_instance(rng, m=300, n=64)
        grid = model.grid
        reach = math.ceil(math.sqrt(2.0 * basis.BAND_CUTOFF) * grid.width / grid.spacing)
        cell = np.floor((np.einsum("pd,md->pm", X, model.bank.weights) - grid.support_lo) / grid.spacing)
        want = np.maximum(np.minimum(cell + reach, 199) - np.maximum(cell - reach, 0) + 1, 0).sum()
        assert reach == 18 and 0 < want < 64 * 300 * 37
        slot, forks, fork = [0], [0], os.fork

        def forking():
            forks[0] += 1
            pid = fork()
            if pid == 0:
                slot[0] = forks[0]
            return pid

        def counting(u, c, h):
            cells[slot[0]] += u.size
            return bumps(u, c, h)

        monkeypatch.setattr(os, "fork", forking)
        monkeypatch.setattr(basis, "bumps", counting)
        for parts in (1, 2, 3):
            cells, forks[0] = np.frombuffer(mmap.mmap(-1, 8 * 8), dtype=np.int64), 0
            monkeypatch.setattr(basis, "_parts", lambda rows, cells_per_row: parts)
            with basis.kernel_workers(grid, 300):
                grad(model, X, y, PLAIN)
            assert forks[0] == parts - 1 and np.all(cells[:parts] > 0)
            assert cells.sum() == want

    def test_repeat_calls_byte_identical(self):
        rng = np.random.default_rng(15)
        model, X, y = _banded_instance(rng, m=300, n=100)
        cfg = TrainConfig(lambda1=1e-2, lambda2=1e-3)
        first = grad(model, X, y, cfg)
        second = grad(model, X, y, cfg)
        assert all(f.tobytes() == s.tobytes() for f, s in zip(first, second))
        assert predict_batch(model, X).tobytes() == predict_batch(model, X).tobytes()


class TestGradCheck:
    def test_quadratic_only_instance(self):
        rng = np.random.default_rng(20)
        model, X, y = _instance(rng)
        assert grad_check(model, X, y, PLAIN, step=1e-5) <= 1e-6

    def test_truncation_error_scaling(self):
        # the quartic balance term gives a nonzero third derivative, so the
        # central-difference error grows like step^2
        rng = np.random.default_rng(21)
        model, X, y = _instance(rng, min_abs_a=1.5)
        cfg = TrainConfig(lambda1=0.5, lambda2=0.0)
        coarse = grad_check(model, X, y, cfg, step=1e-1)
        fine = grad_check(model, X, y, cfg, step=1e-5)
        assert coarse >= 10.0 * fine

    def test_l1_away_from_kink(self):
        rng = np.random.default_rng(22)
        model, X, y = _instance(rng, min_abs_a=0.2)
        cfg = TrainConfig(lambda1=1e-2, lambda2=0.05)
        assert grad_check(model, X, y, cfg, step=1e-5) <= 1e-5

    def test_kink_precondition_flagged(self):
        rng = np.random.default_rng(23)
        model, X, y = _instance(rng)
        a = model.a.copy()
        a[0] = 1e-7
        near_kink = RflafModel(bank=model.bank, grid=model.grid, a=a, v=model.v)
        cfg = TrainConfig(lambda1=0.0, lambda2=0.1)
        with pytest.raises(ValueError):
            grad_check(near_kink, X, y, cfg, step=1e-5)


class TestAdamStep:
    def test_zero_gradient_leaves_params(self):
        cfg = TrainConfig()
        state = AdamState(np.zeros(4), np.zeros(4), 0)
        params = np.array([1.0, -2.0, 0.5, 3.0])
        new_state, new_params = adam_step(state, params, np.zeros(4), cfg)
        assert np.array_equal(new_params, params)
        assert new_state.step == 1

    def test_first_step_magnitude_near_learning_rate(self):
        cfg = TrainConfig(learning_rate=1e-3)
        state = AdamState(np.zeros(3), np.zeros(3), 0)
        params = np.zeros(3)
        g = np.array([0.5, -2.0, 10.0])
        _, new_params = adam_step(state, params, g, cfg)
        assert np.allclose(np.abs(new_params), cfg.learning_rate, rtol=1e-6)
        assert np.all(np.sign(new_params) == -np.sign(g))

    def test_three_steps_match_scripted_reference(self):
        cfg = TrainConfig(learning_rate=0.1)
        grads = [np.array([1.0, -0.5]), np.array([0.2, 0.4]), np.array([-1.5, 2.0])]
        state = AdamState(np.zeros(2), np.zeros(2), 0)
        params = np.array([0.3, -0.7])
        for g in grads:
            state, params = adam_step(state, params, g, cfg)

        # reference trace, scripted directly from the update equations
        m = np.zeros(2)
        s = np.zeros(2)
        ref = np.array([0.3, -0.7])
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            s = 0.999 * s + 0.001 * g * g
            m_hat = m / (1 - 0.9**t)
            s_hat = s / (1 - 0.999**t)
            ref = ref - 0.1 * m_hat / (np.sqrt(s_hat) + 1e-8)
        assert np.allclose(params, ref, rtol=1e-12, atol=1e-15)
        assert state.step == 3

    def test_shape_mismatch(self):
        cfg = TrainConfig()
        with pytest.raises(ValueError):
            adam_step(AdamState(np.zeros(3), np.zeros(3), 0), np.zeros(3), np.zeros(4), cfg)

    def test_second_moment_nonnegative(self):
        cfg = TrainConfig()
        state = AdamState(np.zeros(2), np.zeros(2), 0)
        _, _ = adam_step(state, np.zeros(2), np.array([1.0, -1.0]), cfg)
        state2, _ = adam_step(state, np.zeros(2), np.array([-3.0, 0.0]), cfg)
        assert np.all(state2.second_moment >= 0.0)


def _tiny_dataset(rng, n=64, d=2):
    X = rng.standard_normal((n, d))
    y = np.sin(X[:, 0]) * 0.5 + 0.1 * X[:, 1]
    idx = rng.permutation(n)
    train, test = np.sort(idx[: int(0.8 * n)]), np.sort(idx[int(0.8 * n) :])
    return Dataset(x_train=X[train], y_train=y[train], x_test=X[test], y_test=y[test])


class TestTrain:
    def test_zero_epochs(self):
        # a run has a last epoch to compare: TrainConfig's one rule, which train-compare's train section is too
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)

    def test_loss_decreases_on_tiny_instance(self):
        rng = np.random.default_rng(31)
        ds = _tiny_dataset(rng)
        bank = sample_features(2, 16, seed=4)
        grid = build_grid(-2.0, 2.0, 8, 0.5)
        model = new_rflaf_model(bank, grid, seed=5)
        cfg = TrainConfig(epochs=50, batch_size=16, learning_rate=1e-2)
        _, history = train(model, ds, cfg, seed=6)
        assert len(history) == 50
        assert history[-1].train_total < history[0].train_total

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(32)
        ds = _tiny_dataset(rng)
        bank = sample_features(2, 12, seed=7)
        grid = build_grid(-2.0, 2.0, 6, 0.5)
        model = new_rflaf_model(bank, grid, seed=8)
        cfg = TrainConfig(epochs=5, batch_size=16)
        t1, h1 = train(model, ds, cfg, seed=9)
        t2, h2 = train(model, ds, cfg, seed=9)
        assert np.array_equal(t1.a, t2.a)
        assert np.array_equal(t1.v, t2.v)
        assert h1 == h2

    def test_balanced_init_scales(self):
        bank = sample_features(2, 400, seed=10)
        grid = build_grid(-2.0, 2.0, 300, 0.1)
        model = new_rflaf_model(bank, grid, seed=11)
        assert np.linalg.norm(model.a) == pytest.approx(1.0, abs=0.2)
        assert np.linalg.norm(model.v) == pytest.approx(1.0, abs=0.2)


class TestTrainBaseline:
    def test_loss_decreases(self):
        rng = np.random.default_rng(40)
        ds = _tiny_dataset(rng)
        bank = sample_features(2, 24, seed=12)
        model = new_baseline_model(bank, "tanh", seed=13)
        cfg = TrainConfig(epochs=50, batch_size=16, learning_rate=5e-2)
        trained, history = train_baseline(model, ds, cfg, seed=14)
        assert len(history) == 50
        assert history[-1].train_mse < history[0].train_mse
        assert trained.activation_kind == "tanh"

    def test_deterministic(self):
        rng = np.random.default_rng(41)
        ds = _tiny_dataset(rng)
        bank = sample_features(2, 8, seed=15)
        model = new_baseline_model(bank, "relu", seed=16)
        cfg = TrainConfig(epochs=3, batch_size=16)
        t1, h1 = train_baseline(model, ds, cfg, seed=17)
        t2, h2 = train_baseline(model, ds, cfg, seed=17)
        assert np.array_equal(t1.v, t2.v)
        assert h1 == h2


class TestDivergence:
    def test_stops_at_the_first_non_finite_loss(self):
        ds = _tiny_dataset(np.random.default_rng(42))
        model = new_baseline_model(sample_features(2, 8, seed=15), "relu", seed=16)
        with pytest.raises(Diverged, match="non-finite loss at epoch 0, step 2") as info:
            train_baseline(model, ds, TrainConfig(epochs=2, batch_size=16, learning_rate=1e300), seed=17)
        assert (info.value.epoch, info.value.step) == (0, 2)

    def test_stops_at_the_first_non_finite_parameter(self):
        ds = _tiny_dataset(np.random.default_rng(43))

        def nan_gradient(params, idx, yb):
            return LossBreakdown(mse=1.0, balance=0.0, l1=0.0, total=1.0), np.full_like(params, np.nan)

        with pytest.raises(Diverged, match="non-finite parameter at epoch 0, step 1"):
            _adam_loop(np.zeros(3), ds, TrainConfig(), 0, nan_gradient, lambda params: np.zeros_like(ds.y_test))


class TestTrainConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(lambda1=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize(
        "name, value",
        [("epochs", 2.5), ("epochs", True), ("epochs", 2.0), ("batch_size", 16.5), ("batch_size", math.inf),
         ("batch_size", True), ("batch_size", "8")],
    )
    def test_rejects_non_integer_counts(self, name, value):
        # a float reached range() in train as a TypeError, and epochs=True ran one epoch
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    def test_accepts_numpy_integer_counts(self):
        assert TrainConfig(epochs=np.int64(2), batch_size=np.int32(8)).epochs == 2

    @pytest.mark.parametrize("name", ["lambda1", "lambda2", "learning_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_hyperparameters(self, name, value):
        # a nan or inf here would make the first Adam step's parameters non-finite mid-training
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})
