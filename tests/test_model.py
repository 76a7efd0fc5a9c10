"""Feature banks, model forward passes, baselines, checkpoints."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rflaf import basis
from rflaf.basis import ActivationGrid, banded_activation, build_grid, bumps
from rflaf.data import Dataset, TargetSpec
from rflaf.model import (
    BASELINE_ACTIVATIONS,
    BaselineRfModel,
    FeatureBank,
    RflafModel,
    baseline_features,
    forward,
    forward_batch,
    load_model,
    sample_features,
    save_model,
    _project,
)
from rflaf.optim import predict_batch


def _random_model(rng, dim=3, m=5, n_basis=4, width=0.5):
    bank = sample_features(dim, m, seed=int(rng.integers(2**31)))
    grid = build_grid(-2.0, 2.0, n_basis, width)
    a = rng.standard_normal(n_basis)
    v = rng.standard_normal(m)
    return RflafModel(bank=bank, grid=grid, a=a, v=v)


def _feature_matrix(grid, bank, x):
    """Dense N x M basis B(x) from banded_activation's sums; the grids here fit in one band."""
    _, sums = banded_activation(grid, np.zeros(grid.n_basis), (bank.weights @ x)[:, None], np.ones(1))
    assert grid.band_width == grid.n_basis and sums.shape == (grid.n_basis, bank.n_features)
    return sums


def _dense_forward(model, X):
    """(1/M) a^T B(x) v over every center, row by row: the reference for the band."""
    out = []
    for x in X:
        z = model.bank.weights @ x
        b = bumps(np.tile(z, (model.grid.n_basis, 1)), model.grid.centers[:, None], model.grid.width)
        out.append(model.a @ b @ model.v / model.bank.n_features)
    return np.array(out)


class TestSampleFeatures:
    def test_shape_and_determinism(self):
        bank = sample_features(2, 1000, seed=0)
        again = sample_features(2, 1000, seed=0)
        assert bank.weights.shape == (1000, 2)
        assert np.array_equal(bank.weights, again.weights)

    def test_single_draw(self):
        bank = sample_features(1, 1, seed=4)
        assert bank.weights.shape == (1, 1)

    def test_gaussian_moments(self):
        bank = sample_features(2, 100_000, seed=1)
        means = bank.weights.mean(axis=0)
        assert np.all(np.abs(means) <= 0.02)
        variances = bank.weights.var(axis=0)
        assert np.all(np.abs(variances - 1.0) <= 0.2)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            sample_features(0, 5, seed=0)
        with pytest.raises(ValueError):
            sample_features(2, 0, seed=0)
        for seed in (-1, 2**63):  # a checkpoint stores the seed as an int64
            with pytest.raises(ValueError, match="seed"):
                sample_features(2, 3, seed=seed)


class TestFeatureMatrix:
    def test_row_of_ones_at_matching_center(self):
        # grid [-2, 2] with 4 cells has a center exactly at 0 only if we
        # build it so; use [-1, 1] with 2 cells: centers {0, 1}
        grid = build_grid(-1.0, 1.0, 2, 0.3)
        bank = sample_features(3, 7, seed=2)
        b = _feature_matrix(grid, bank, np.zeros(3))
        assert np.all(b[0] == 1.0)
        assert b.shape == (2, 7)

    def test_one_by_one_composition(self):
        grid = ActivationGrid(-0.4, 0.6, 1, 0.2)  # one center, at 0.6
        bank = sample_features(2, 1, seed=3)
        x = np.array([0.3, -0.8])
        z = float(bank.weights[0] @ x)
        want = math.exp(-((z - 0.6) ** 2) / (2 * 0.2**2))
        got = _feature_matrix(grid, bank, x)
        assert got.shape == (1, 1)
        assert got[0, 0] == pytest.approx(want, rel=1e-14)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(11)
        grid = build_grid(-2.0, 2.0, 5, 0.4)
        bank = sample_features(3, 6, seed=12)
        x = rng.standard_normal(3)
        b = _feature_matrix(grid, bank, x)
        for k in range(5):
            for m in range(6):
                z = float(bank.weights[m] @ x)
                want = math.exp(-((z - grid.centers[k]) ** 2) / (2 * 0.4**2))
                assert b[k, m] == pytest.approx(want, rel=1e-14)
        assert np.all(b > 0.0) and np.all(b <= 1.0)

    def test_dimension_mismatch(self):
        grid = build_grid(-1.0, 1.0, 2, 0.3)
        bank = sample_features(3, 4, seed=0)
        model = RflafModel(bank=bank, grid=grid, a=np.ones(2), v=np.ones(4))
        with pytest.raises(ValueError):
            forward(model, np.zeros(2))
        with pytest.raises(ValueError):
            forward_batch(model, np.zeros((1, 2)))


class TestForward:
    def test_zero_weights(self):
        rng = np.random.default_rng(20)
        model = _random_model(rng)
        zeroed = RflafModel(bank=model.bank, grid=model.grid, a=np.zeros_like(model.a), v=model.v)
        assert forward(zeroed, np.ones(3)) == 0.0

    def test_single_unit_model(self):
        grid = ActivationGrid(-0.5, 0.5, 1, 0.25)  # one center, at 0.5
        bank = sample_features(2, 1, seed=5)
        model = RflafModel(bank=bank, grid=grid, a=np.array([1.0]), v=np.array([1.0]))
        x = np.array([0.1, 0.9])
        z = float(bank.weights[0] @ x)
        assert forward(model, x) == pytest.approx(math.exp(-((z - 0.5) ** 2) / (2 * 0.25**2)), rel=1e-14)

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n_basis = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            d = int(rng.integers(1, 5))
            bank = sample_features(d, m, seed=int(rng.integers(2**31)))
            grid = build_grid(-2.0, 2.0, n_basis, 0.5)
            a = rng.standard_normal(grid.n_basis)
            v = rng.standard_normal(m)
            model = RflafModel(bank=bank, grid=grid, a=a, v=v)
            x = rng.standard_normal(d)
            total = 0.0
            for mm in range(m):
                z = float(bank.weights[mm] @ x)
                for k in range(grid.n_basis):
                    total += a[k] * math.exp(-((z - grid.centers[k]) ** 2) / (2 * 0.5**2)) * v[mm]
            total /= m
            assert forward(model, x) == pytest.approx(total, rel=1e-12, abs=1e-12)

    def test_bilinear_in_a_and_v(self):
        rng = np.random.default_rng(22)
        model = _random_model(rng)
        x = rng.standard_normal(3)
        alpha, beta = 1.7, -0.4
        a2 = rng.standard_normal(model.grid.n_basis)
        v2 = rng.standard_normal(model.bank.n_features)
        lhs_a = forward(
            RflafModel(bank=model.bank, grid=model.grid, a=alpha * model.a + beta * a2, v=model.v), x
        )
        rhs_a = alpha * forward(model, x) + beta * forward(
            RflafModel(bank=model.bank, grid=model.grid, a=a2, v=model.v), x
        )
        assert lhs_a == pytest.approx(rhs_a, rel=1e-12, abs=1e-12)
        lhs_v = forward(
            RflafModel(bank=model.bank, grid=model.grid, a=model.a, v=alpha * model.v + beta * v2), x
        )
        rhs_v = alpha * forward(model, x) + beta * forward(
            RflafModel(bank=model.bank, grid=model.grid, a=model.a, v=v2), x
        )
        assert lhs_v == pytest.approx(rhs_v, rel=1e-12, abs=1e-12)

    def test_bounded_by_factor_norms(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            model = _random_model(rng, dim=int(rng.integers(1, 5)), m=int(rng.integers(1, 9)), n_basis=int(rng.integers(2, 9)))
            x = rng.standard_normal(model.bank.dim) * rng.uniform(0.2, 3.0)
            bound = math.sqrt(model.grid.n_basis / model.bank.n_features)
            bound *= np.linalg.norm(model.a) * np.linalg.norm(model.v)
            assert abs(forward(model, x)) <= bound + 1e-12

    def test_one_hot_reduces_to_single_basis_model(self):
        rng = np.random.default_rng(24)
        model = _random_model(rng, n_basis=6)
        for k in (0, 2, 5):
            a = np.zeros(6)
            a[k] = 1.0
            hot = RflafModel(bank=model.bank, grid=model.grid, a=a, v=model.v)
            x = rng.standard_normal(3)
            single = bumps(model.bank.weights @ x, model.grid.centers[k], model.grid.width) @ model.v
            assert forward(hot, x) == pytest.approx(single / model.bank.n_features, rel=1e-13)


class TestProjection:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 600),
        m=st.integers(1, 600),
        dim=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_row_is_its_own_projection(self, rows, m, dim, seed):
        rng = np.random.default_rng(seed)
        bank = sample_features(dim, m, seed=seed)
        X = rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(-3, 4, (rows, 1))
        X.reshape(-1)[rng.integers(0, X.size, max(1, X.size // 10))] = 0.0
        X.reshape(-1)[rng.integers(0, X.size, max(1, X.size // 10))] = -0.0
        X[rng.integers(0, rows)] = 0.0
        z = _project(X, bank)
        assert z.shape == (rows, m)
        for i in range(rows):
            assert z[i].tobytes() == _project(X[i : i + 1], bank)[0].tobytes()
        if dim <= 2:  # the bits of the projection over W itself, so the shipped d = 2 artifacts keep theirs
            assert z.tobytes() == np.einsum("pd,md->pm", X, bank.weights).tobytes()


class TestForwardBatch:
    def test_empty(self):
        rng = np.random.default_rng(30)
        for model in (_random_model(rng), _random_model(rng, m=300, n_basis=200, width=0.04)):
            for fn in (forward_batch, predict_batch):
                out = fn(model, np.empty((0, 3)))
                assert out.shape == (0,) and out.dtype == np.float64

    def test_non_finite_inputs(self):
        # the shipped geometry: a NaN pre-activation gives a NaN output, an
        # infinite one meets no center
        rng = np.random.default_rng(35)
        model = _random_model(rng, dim=2, m=300, n_basis=200, width=0.04)
        X = np.array([[np.nan, 0.0], [np.inf, 0.0], [-np.inf, 0.0], [1e308, 1e308], [0.3, -0.2]])
        with np.errstate(over="ignore", invalid="ignore"):
            batch = forward_batch(model, X)
            assert batch.tobytes() == np.array([forward(model, x) for x in X]).tobytes()
        assert np.isnan(batch).tolist() == [True, False, False, False, False]
        assert batch[1] == batch[2] == 0.0 and np.isfinite(batch[3])

    def test_single_row(self):
        rng = np.random.default_rng(31)
        model = _random_model(rng)
        x = rng.standard_normal(3)
        assert forward_batch(model, x[None, :])[0] == forward(model, x)

    def test_bit_identical_to_scalar_loop(self):
        rng = np.random.default_rng(32)
        model = _random_model(rng)
        X = rng.standard_normal((100, 3))
        batch = forward_batch(model, X)
        loop = np.array([forward(model, row) for row in X])
        assert np.array_equal(batch, loop)

    def test_predict_batch_agrees(self):
        # The second case is the shipped geometry (N=200, h=0.04), where each
        # pre-activation is evaluated against at most 37 centers; rows scaled by
        # 4 put pre-activations past both ends of the support [-2, 2].
        for seed, n_basis, width, scale in [(33, 7, 0.5, 1.0), (34, 200, 0.04, 4.0)]:
            rng = np.random.default_rng(seed)
            model = _random_model(rng, dim=2, m=11, n_basis=n_basis, width=width)
            X = scale * rng.standard_normal((57, 2))
            fused = predict_batch(model, X)
            exact = _dense_forward(model, X)
            assert np.allclose(fused, exact, rtol=1e-12, atol=1e-12)
        z = X @ model.bank.weights.T
        assert model.grid.band_width < n_basis and z.min() < -2.5 and z.max() > 2.5

    @pytest.mark.parametrize("dim", [1, 2, 5, 10])
    def test_rows_independent_across_chunks(self, dim, monkeypatch):
        # the shipped geometry (N=200, h=0.04, M=300); with chunks of 20,000
        # cells, 100 rows span 3 row chunks of 40 rows
        monkeypatch.setattr(basis, "CHUNK_CELLS", 20_000)
        rng = np.random.default_rng(36 + dim)
        model = _random_model(rng, dim=dim, m=300, n_basis=200, width=0.04)
        X = rng.standard_normal((100, dim))
        assert basis.CHUNK_CELLS // (300 + 200) == 40
        # past np.getbufsize() = 8192 reduced elements per row, where np.einsum's
        # grouping depends on the row count: M = 9000 (2 rows per chunk), and
        # the baselines of width 8193 and 12000 below
        wide = _random_model(rng, dim=dim, m=9000, n_basis=200, width=0.01)
        assert wide.grid.band_width == 11 and basis.CHUNK_CELLS // (9000 + 200) == 2
        # the baselines must ignore the other rows too, on the same bank and past 8192
        banks = [(model.bank, model.v)] + [
            (sample_features(dim, width, seed=dim), rng.standard_normal(width)) for width in (8193, 12000)
        ]
        cases = [(forward_batch, model), (forward_batch, wide)] + [
            (_baseline_outputs, BaselineRfModel(bank, k, v)) for bank, v in banks for k in BASELINE_ACTIVATIONS
        ]
        for batch_fn, m in cases:
            batch = batch_fn(m, X).tobytes()
            kind = (getattr(m, "activation_kind", "rflaf"), m.bank.n_features)
            for cuts in (range(101), [0, 1, 100], [0, 23, 50, 99, 100], [0, 37, 41, 100]):
                parts = [batch_fn(m, X[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
                assert np.concatenate(parts).tobytes() == batch, (kind, cuts)


def _baseline_outputs(model, X):
    """Baseline outputs (1/M) sum_m act(w_m.x) v_m as optim.train_baseline reduces baseline_features."""
    return basis.row_dot(baseline_features(model, X), model.v) / model.bank.n_features


class TestBaselines:
    def test_relu_dead_inputs(self):
        bank = FeatureBank(dim=2, n_features=8, seed=0)
        x = np.array([0.3, -0.7])
        z = bank.weights @ x
        dead = z < 0
        assert dead.any() and not dead.all()
        model = BaselineRfModel(bank=bank, activation_kind="relu", v=dead.astype(float))
        (features,) = baseline_features(model, x[None])
        assert np.all(features[dead] == 0.0) and np.all(features[~dead] == z[~dead])
        assert _baseline_outputs(model, x[None])[0] == 0.0

    def test_tanh_zero_weights(self):
        bank = sample_features(2, 8, seed=6)
        model = BaselineRfModel(bank=bank, activation_kind="tanh", v=np.zeros(8))
        (features,) = baseline_features(model, np.ones((1, 2)))
        want = [math.tanh(w0 + w1) for w0, w1 in bank.weights.tolist()]
        assert features.tolist() == pytest.approx(want, rel=1e-14)
        assert _baseline_outputs(model, np.ones((1, 2)))[0] == 0.0

    def test_rbf2_peak(self):
        bank = FeatureBank(dim=1, n_features=1, seed=0)
        model = BaselineRfModel(bank=bank, activation_kind="rbf2", v=np.array([1.0]))
        # w x is 1.5, the bump's center, to within an ulp, where the bump rounds to 1
        assert baseline_features(model, np.array([[1.5 / bank.weights[0, 0]]])).tolist() == [[1.0]]

    def test_rbf1_matches_formula(self):
        bank = FeatureBank(dim=1, n_features=2, seed=0)
        model = BaselineRfModel(bank=bank, activation_kind="rbf1", v=np.array([1.0, 3.0]))
        (w0,), (w1,) = bank.weights
        want = [math.exp(-((w0 * 0.4) ** 2) / 0.5), math.exp(-((w1 * 0.4) ** 2) / 0.5)]
        assert baseline_features(model, np.array([[0.4]]))[0].tolist() == pytest.approx(want, rel=1e-14)
        assert _baseline_outputs(model, np.array([[0.4]]))[0] == pytest.approx((want[0] + 3.0 * want[1]) / 2.0, rel=1e-14)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(40)
        bank = sample_features(3, 12, seed=7)
        model = BaselineRfModel(bank=bank, activation_kind="tanh", v=rng.standard_normal(12))
        X = rng.standard_normal((9, 3))
        batch = baseline_features(model, X)
        assert batch.shape == (9, 12)
        for i in range(9):
            assert batch[i].tobytes() == baseline_features(model, X[i : i + 1])[0].tobytes()

    def test_unknown_activation(self):
        bank = sample_features(2, 4, seed=8)
        with pytest.raises(ValueError):
            BaselineRfModel(bank=bank, activation_kind="gelu", v=np.zeros(4))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(50)
        model = _random_model(rng, dim=2, m=9, n_basis=6)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.a, model.a)
        assert np.array_equal(loaded.v, model.v)
        assert np.array_equal(loaded.bank.weights, model.bank.weights)
        X = rng.standard_normal((20, 2))
        assert np.array_equal(forward_batch(loaded, X), forward_batch(model, X))

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 6),
        m=st.integers(1, 40),
        seed=st.integers(0, 2**63 - 1),
        n_basis=st.integers(1, 60),
        lo=st.floats(-5.0, 5.0),
        length=st.floats(0.01, 10.0),
        width=st.floats(0.001, 5.0),
        name=st.sampled_from(["model.npz", "model", "model.ckpt"]),
    )
    def test_round_trip_over_random_geometry(self, tmp_path_factory, dim, m, seed, n_basis, lo, length, width, name):
        # every grid ActivationGrid accepts, one center included, and any path: save_model writes the path it is given
        rng = np.random.default_rng(seed)
        model = RflafModel(
            bank=FeatureBank(dim, m, seed),
            grid=ActivationGrid(lo, lo + length, n_basis, width),
            a=rng.standard_normal(n_basis),
            v=rng.standard_normal(m),
        )
        folder = tmp_path_factory.mktemp("ckpt")
        save_model(model, folder / name)
        assert [p.name for p in folder.iterdir()] == [name]
        loaded = load_model(folder / name)
        assert (loaded.bank, loaded.grid) == (model.bank, model.grid)
        assert loaded.a.tobytes() == model.a.tobytes() and loaded.v.tobytes() == model.v.tobytes()
        X = rng.standard_normal((7, dim)) * 3.0
        assert forward_batch(loaded, X).tobytes() == forward_batch(model, X).tobytes()

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not an npz file")
        with pytest.raises((ValueError, OSError)):
            load_model(path)

    def test_load_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "model.npz"
        save_model(_random_model(np.random.default_rng(51), dim=2, m=9, n_basis=6), path)
        whole = path.read_bytes()
        for cut in (whole[: len(whole) // 2], b""):
            path.write_bytes(cut)
            with pytest.raises(ValueError, match="not a readable .npz"):
                load_model(path)

    @pytest.mark.parametrize(
        "field, value",
        [("dim", np.array([2, 3])), ("n_basis", np.float64(10.7)), ("width", np.array([0.5])), ("bank_seed", np.str_("7"))],
    )
    def test_load_rejects_malformed_scalar_fields(self, tmp_path, field, value):
        # each field must be 0-d, and of an integer dtype where save_model stores an int
        path = tmp_path / "model.npz"
        save_model(_random_model(np.random.default_rng(52), dim=2, m=9, n_basis=6), path)
        with np.load(path) as ckpt:
            fields = dict(ckpt)
        np.savez(path, **{**fields, field: value})
        with pytest.raises(ValueError, match=f"checkpoint field '{field}'"):
            load_model(path)

    @pytest.mark.parametrize("field", ["a", "v"])
    @pytest.mark.parametrize("dtype", [complex, str, bool])
    def test_load_rejects_weights_that_are_not_real_floats(self, tmp_path, field, dtype):
        # a complex vector would load with its imaginary part dropped, a string one would be parsed
        path = tmp_path / "model.npz"
        save_model(_random_model(np.random.default_rng(53), dim=2, m=9, n_basis=6), path)
        with np.load(path) as ckpt:
            fields = dict(ckpt)
        np.savez(path, **{**fields, field: fields[field].astype(dtype)})
        with pytest.raises(ValueError, match=f"checkpoint field '{field}' must hold real floats"):
            load_model(path)

    def test_load_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "short.npz"
        np.savez(path, format_version=np.int64(1), dim=np.int64(2))
        with pytest.raises(ValueError):
            load_model(path)


class TestValidation:
    def test_model_shape_checks(self):
        bank = sample_features(2, 3, seed=9)
        grid = build_grid(-1.0, 1.0, 4, 0.2)
        with pytest.raises(ValueError):
            RflafModel(bank=bank, grid=grid, a=np.zeros(5), v=np.zeros(3))
        with pytest.raises(ValueError):
            RflafModel(bank=bank, grid=grid, a=np.zeros(4), v=np.zeros(2))
        with pytest.raises(ValueError):
            RflafModel(bank=bank, grid=grid, a=np.array([np.nan] * 4), v=np.zeros(3))

    def test_records_with_array_fields_compare_by_identity(self):
        # comparing the array fields field by field would raise "truth value of an array is ambiguous"
        def build():
            bank = sample_features(2, 3, seed=9)
            return [
                RflafModel(bank=bank, grid=build_grid(-1.0, 1.0, 4, 0.2), a=np.ones(4), v=np.ones(3)),
                BaselineRfModel(bank=bank, activation_kind="relu", v=np.ones(3)),
                TargetSpec(sigma_kind="s1", b1=[1.0, 0.0], b2=[0.0, 1.0]),
                Dataset(x_train=np.zeros((1, 2)), y_train=np.zeros(1), x_test=np.zeros((1, 2)), y_test=np.zeros(1)),
            ]

        for first, second in zip(build(), build()):
            assert first == first and first != second and len({first, second}) == 2

    def test_bank_is_its_seed(self):
        bank = FeatureBank(dim=2, n_features=4, seed=3)
        assert bank.weights.tobytes() == np.random.default_rng(3).standard_normal((4, 2)).tobytes()
        with pytest.raises(TypeError):
            FeatureBank(weights=np.zeros((4, 2)), dim=2, n_features=4, seed=3)
