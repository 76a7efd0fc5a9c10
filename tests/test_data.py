"""Synthetic targets, dataset generation, calibration."""

import math

import numpy as np
import pytest

from rflaf.data import (
    Dataset,
    TargetSampler,
    TargetSpec,
    calibrate,
    gen_dataset,
    sigma_eval_array,
)

B1 = np.array([1.0, 0.0])
B2 = np.array([0.0, 1.0])


def _spec(kind="s1", calib=1.0, mc=20_000, seed=11):
    return TargetSpec(sigma_kind=kind, b1=B1, b2=B2, calib=calib, mc_samples=mc, seed=seed)


class TestSigmaEval:
    def test_point_values(self):
        assert sigma_eval_array("s1", [0.5])[0] == 1.0
        assert sigma_eval_array("s2", [-0.5])[0] == 0.0
        assert sigma_eval_array("s3", [1.0])[0] == 1.0

    def test_supports_exactly_zero_outside(self):
        zs = np.concatenate([np.linspace(-4, -1.0000001, 300), np.linspace(1.0000001, 4, 300)])
        assert np.all(sigma_eval_array("s1", zs) == 0.0)
        zs2 = np.concatenate([np.linspace(-4, -1e-9, 300), np.linspace(1.0000001, 4, 300)])
        assert np.all(sigma_eval_array("s2", zs2) == 0.0)
        zs3 = np.concatenate(
            [np.linspace(-4, -1.5000001, 200), np.linspace(-0.4999999, 0.4999999, 200), np.linspace(1.5000001, 4, 200)]
        )
        assert np.all(sigma_eval_array("s3", zs3) == 0.0)

    def test_continuous_at_support_edges(self):
        for kind, edges in [("s1", (-1, 1)), ("s2", (0, 1)), ("s3", (-1.5, -0.5, 0.5, 1.5))]:
            inside = sigma_eval_array(kind, [e - math.copysign(1e-9, e - 0.25) for e in edges])
            assert np.all(np.abs(inside) < 1e-7)

    def test_fits_inside_default_support(self):
        zs = np.linspace(-2.0, 2.0, 4001)
        for kind in ("s1", "s2", "s3"):
            vals = sigma_eval_array(kind, zs)
            assert np.max(np.abs(vals)) == pytest.approx(1.0, abs=1e-6)
            # support endpoints live strictly inside [-2, 2]
            nz = zs[vals != 0.0]
            assert nz.min() > -2.0 and nz.max() < 2.0

    def test_known_shape_s3(self):
        # both branches peak at +1: -sin(-pi/2) = sin(pi/2) = 1
        vals = sigma_eval_array("s3", [-1.0, 1.0, 0.0])
        assert vals[0] == pytest.approx(1.0)
        assert vals[1] == pytest.approx(1.0)
        assert vals[2] == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            sigma_eval_array("s4", [0.0])


class TestTargetSpec:
    def test_rejects_equal_directions(self):
        with pytest.raises(ValueError):
            TargetSpec(sigma_kind="s1", b1=B1, b2=B1)

    def test_rejects_small_sample(self):
        with pytest.raises(ValueError):
            TargetSpec(sigma_kind="s1", b1=B1, b2=B2, mc_samples=10)

    def test_custom_table_requires_table(self):
        # a table sigma is not among SIGMA_KINDS: it is rejected like any unknown kind
        with pytest.raises(ValueError, match="unknown sigma kind"):
            TargetSpec(sigma_kind="custom-table", b1=B1, b2=B2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["b1", "b2"])
    def test_rejects_non_finite_directions(self, which, bad):
        dirs = {"b1": np.array([1.0, 0.0]), "b2": np.array([0.0, 1.0])}
        dirs[which][0] = bad
        with pytest.raises(ValueError, match="finite"):
            TargetSpec(sigma_kind="s1", **dirs)


class TestTargetEval:
    def test_zero_at_origin_for_s1(self):
        assert TargetSampler(_spec()).means(np.zeros((1, 2)))[0] == 0.0

    def test_linear_in_calibration(self):
        X = np.array([[0.7, -0.3]])
        one = TargetSampler(_spec(calib=1.0)).means(X)
        two = TargetSampler(_spec(calib=2.0)).means(X)
        assert two[0] == 2.0 * one[0]

    def test_deterministic_across_samplers(self):
        X = np.array([[0.2, 1.1]])
        assert TargetSampler(_spec()).means(X)[0] == TargetSampler(_spec()).means(X)[0]

    def test_batch_matches_scalar(self):
        spec = _spec(mc=5000)
        sampler = TargetSampler(spec)
        X = np.random.default_rng(3).standard_normal((9, 2))
        batch = sampler.means(X)
        for i in range(9):
            # the frozen-sample average at one point, from the sampler's own draws
            ref = float(np.mean(sigma_eval_array("s1", sampler.w @ X[i]) * sampler.vvals))
            assert batch[i] == pytest.approx(ref, rel=1e-12, abs=1e-15)


class TestCalibrate:
    def test_reproducible_and_positive(self):
        spec = _spec()
        c1 = calibrate(spec, n_points=2000)
        c2 = calibrate(spec, n_points=2000)
        assert c1 == c2 > 0.0

    def test_fixed_point(self):
        spec = _spec()
        c = calibrate(spec)
        calibrated = spec.with_calib(c)
        # fresh evaluation points from the calibration stream match by construction;
        # an independent draw lands within a couple percent
        rng = np.random.default_rng(999)
        sampler = TargetSampler(calibrated)
        mean_abs = float(np.mean(np.abs(sampler.means(rng.standard_normal((10_000, 2))))))
        assert mean_abs == pytest.approx(1.0, rel=0.05)

    def test_scaling_property(self):
        base = calibrate(_spec(), n_points=2000)
        doubled = TargetSpec(sigma_kind="s1", b1=2 * B1, b2=2 * B2, mc_samples=20_000, seed=11)
        # doubling the direction vectors doubles v, so the constant halves
        assert calibrate(doubled, n_points=2000) == pytest.approx(base / 2.0, rel=0.02)

    def test_requires_unit_calib(self):
        with pytest.raises(ValueError):
            calibrate(_spec(calib=2.0))

    def test_degenerate_target(self, monkeypatch):
        monkeypatch.setattr(TargetSampler, "means", lambda self, X: np.zeros(X.shape[0]))
        with pytest.raises(ValueError, match="degenerate"):
            calibrate(_spec(mc=1000))

    @pytest.mark.parametrize("n_points", [0, -3])
    def test_rejects_no_points(self, n_points):
        # zero points have no mean |f|: that must not come back as a nan constant
        with pytest.raises(ValueError, match="n_points"):
            calibrate(_spec(mc=1000), n_points=n_points)


class TestGenDataset:
    def test_split_sizes_and_disjointness(self):
        ds = gen_dataset(_spec(mc=1000), 10, 2, 0.2, seed=5)
        assert len(ds.train_idx) == 8
        assert len(ds.test_idx) == 2
        assert set(ds.train_idx) | set(ds.test_idx) == set(range(10))
        assert not set(ds.train_idx) & set(ds.test_idx)

    def test_deterministic(self):
        a = gen_dataset(_spec(mc=1000), 20, 2, 0.25, seed=6)
        b = gen_dataset(_spec(mc=1000), 20, 2, 0.25, seed=6)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.train_idx, b.train_idx)

    def test_labels_match_target(self):
        spec = _spec(mc=2000)
        ds = gen_dataset(spec, 12, 2, 0.25, seed=7)
        sampler = TargetSampler(spec)
        assert np.allclose(ds.y, sampler.means(ds.X), rtol=1e-12)

    def test_calibrated_mean_abs_near_one(self):
        spec = _spec(kind="s2", mc=20_000, seed=13)
        calibrated = spec.with_calib(calibrate(spec))
        ds = gen_dataset(calibrated, 15_000, 2, 0.2, seed=8)
        assert float(np.mean(np.abs(ds.y))) == pytest.approx(1.0, rel=0.05)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            gen_dataset(_spec(mc=1000), 10, 3, 0.2, seed=9)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            gen_dataset(_spec(mc=1000), 10, 2, 0.0, seed=9)
        with pytest.raises(ValueError):
            gen_dataset(_spec(mc=1000), 10, 2, 1.0, seed=9)


class TestDatasetInvariants:
    def test_rejects_overlapping_split(self):
        with pytest.raises(ValueError):
            Dataset(
                X=np.zeros((4, 2)),
                y=np.zeros(4),
                train_idx=np.array([0, 1, 2]),
                test_idx=np.array([2, 3]),
            )

    @pytest.mark.parametrize(
        "train_idx, test_idx",
        [([1, 2, 3], [4]), ([-1, 0, 1], [2]), ([0.0, 1.0, 2.0], [3.0])],
        ids=["past-end", "negative", "float"],
    )
    def test_rejects_indices_outside_rows(self, train_idx, test_idx):
        with pytest.raises(ValueError, match=r"integers in \[0, 4\)"):
            Dataset(
                X=np.zeros((4, 2)),
                y=np.zeros(4),
                train_idx=np.array(train_idx),
                test_idx=np.array(test_idx),
            )

    @pytest.mark.parametrize(
        "X, y",
        [(np.full((4, 2), np.nan), np.zeros(4)), (np.zeros((4, 2)), np.array([0.0, np.inf, 0.0, 0.0]))],
        ids=["nan-X", "inf-y"],
    )
    def test_rejects_non_finite_data(self, X, y):
        with pytest.raises(ValueError, match="finite"):
            Dataset(
                X=X,
                y=y,
                train_idx=np.array([0, 1, 2]),
                test_idx=np.array([3]),
            )

    def test_rejects_one_dimensional_X(self):
        with pytest.raises(ValueError, match="2-D"):
            Dataset(
                X=np.zeros(4),
                y=np.zeros(4),
                train_idx=np.array([0, 1, 2]),
                test_idx=np.array([3]),
            )
