"""RBF grid construction, activation evaluation, quadrature weights."""

import math

import numpy as np
import pytest

from rflaf.basis import (
    ActivationGrid,
    activation_curve,
    BAND_CUTOFF,
    approximation_schedule,
    banded_bumps,
    build_grid,
    bumps,
    quadrature_norm_bounds,
    quadrature_weights,
)
from rflaf.data import sigma_eval_array


def _dense(grid, zs):
    """(len(zs), N) responses of every center: the reference for the band."""
    zs = np.asarray(zs, dtype=float)
    return bumps(np.repeat(zs[:, None], grid.n_basis, axis=1), grid.centers, grid.width)


class TestBuildGrid:
    def test_default_experiment_geometry(self):
        g = build_grid(-2.0, 2.0, 400, 0.02)
        assert g.spacing == pytest.approx(0.01)
        assert g.centers[0] == pytest.approx(-1.99)
        assert g.centers[1] == pytest.approx(-1.98)
        assert g.centers[-1] == pytest.approx(2.0)
        assert len(g.centers) == 400

    def test_two_point_grid(self):
        g = build_grid(0.0, 1.0, 2, 0.1)
        assert g.centers.tolist() == [0.5, 1.0]

    def test_spacing(self):
        assert build_grid(-1.0, 1.0, 4, 0.3).spacing == pytest.approx(0.5)

    def test_centers_derived_from_the_free_parameters(self):
        g = ActivationGrid(-0.5, 0.5, 1, 0.25)
        assert g.centers.tolist() == [0.5]
        assert build_grid(-2, 2, 400, 0.02) == ActivationGrid(-2.0, 2.0, 400, 0.02)
        assert np.array_equal(build_grid(-2.0, 2.0, 400, 0.02).centers, -2.0 + np.arange(1, 401) * 0.01)
        for bad in [(1.0, 0.0, 4, 0.1), (float("nan"), 1.0, 4, 0.1), (0.0, float("inf"), 4, 0.1),
                    (0.0, 1.0, 0, 0.1), (0.0, 1.0, 4, 0.0), (0.0, 1.0, 4, float("inf"))]:
            with pytest.raises(ValueError):
                ActivationGrid(*bad)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_grid(1.0, 0.0, 4, 0.1)
        with pytest.raises(ValueError):
            build_grid(0.0, 1.0, 1, 0.1)
        with pytest.raises(ValueError):
            build_grid(0.0, 1.0, 4, 0.0)


class TestRbfFeatures:
    def test_unit_response_at_center(self):
        g = build_grid(-2.0, 2.0, 8, 0.25)
        for k in (0, 3, 7):
            feats = _dense(g, [g.centers[k]])[0]
            assert feats[k] == 1.0
            assert np.all(feats <= 1.0) and np.all(feats > 0.0)

    def test_one_width_away(self):
        g = build_grid(0.0, 1.0, 4, 0.1)
        feats = _dense(g, [g.centers[1] + 0.1])[0]
        assert feats[1] == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_far_outside_support(self):
        g = build_grid(-2.0, 2.0, 10, 0.05)
        feats = _dense(g, [2.0 + 10 * 0.05 + 1.0])[0]
        assert np.all(feats <= math.exp(-50.0))

    def test_batch_matches_scalar(self):
        g = build_grid(-1.0, 1.0, 6, 0.2)
        zs = np.linspace(-1.5, 1.5, 17)
        s, e = banded_bumps(g, zs)
        for i, z in enumerate(zs):
            s1, e1 = banded_bumps(g, z)
            assert s1.tolist() == [s[i]] and np.array_equal(e[i], e1[0])


class TestBandedBumps:
    def test_window_holds_every_bump_above_cutoff(self):
        grid = build_grid(-2.0, 2.0, 200, 0.04)
        # every cell boundary and midpoint, past both ends of the support
        z = np.linspace(-3.0, 3.0, 601)
        s, e = banded_bumps(grid, z)
        assert e.shape == (601, 37) and s.min() == 0 and s.max() == 200 - 37
        dense = _dense(grid, z)
        inside = s[:, None] + np.arange(37)
        np.testing.assert_allclose(e, np.take_along_axis(dense, inside, axis=1), rtol=0, atol=1e-14)
        dense[np.arange(601)[:, None], inside] = 0.0
        assert dense.max() <= math.exp(-BAND_CUTOFF)

    def test_full_width_band_is_dense(self):
        grid = build_grid(-2.0, 2.0, 7, 0.5)
        z = np.array([-5.0, -0.3, 0.0, 1.9, 7.0])
        s, e = banded_bumps(grid, z)
        assert grid.band_width == 7 and np.all(s == 0)
        np.testing.assert_allclose(e, _dense(grid, z), rtol=0, atol=1e-14)

    def test_non_finite_inputs_stay_in_range(self):
        grid = build_grid(-2.0, 2.0, 200, 0.04)
        s, e = banded_bumps(grid, np.array([np.nan, np.inf, -np.inf]))
        assert s.tolist() == [0, 200 - 37, 0]
        assert np.all(np.isnan(e[0])) and np.all(e[1:] == 0.0)


class TestEvalActivation:
    def test_zero_weights(self):
        g = build_grid(-2.0, 2.0, 16, 0.1)
        assert np.all(activation_curve(g, np.zeros(16), np.array([-3.0, 0.0, 1.7])) == 0.0)

    def test_single_basis(self):
        g = build_grid(0.0, 1.0, 2, 0.1)
        assert activation_curve(g, np.array([0.0, 1.0]), np.array([1.0]))[0] == 1.0

    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(8)
        g = build_grid(-2.0, 2.0, 24, 0.15)
        a = rng.standard_normal(24)
        zs = rng.uniform(-2.5, 2.5, size=10)
        for z, got in zip(zs, activation_curve(g, a, zs)):
            manual = sum(a[i] * math.exp(-((z - g.centers[i]) ** 2) / (2 * 0.15**2)) for i in range(24))
            assert got == pytest.approx(manual, rel=1e-13, abs=1e-15)

    def test_linear_in_weights(self):
        rng = np.random.default_rng(9)
        g = build_grid(-1.0, 1.0, 12, 0.2)
        a = rng.standard_normal(12)
        b = rng.standard_normal(12)
        alpha, beta = 0.37, -2.11
        zs = rng.uniform(-1.2, 1.2, size=8)
        lhs = activation_curve(g, alpha * a + beta * b, zs)
        rhs = alpha * activation_curve(g, a, zs) + beta * activation_curve(g, b, zs)
        for left, right in zip(lhs, rhs):
            assert left == pytest.approx(right, rel=1e-12, abs=1e-14)

    def test_length_mismatch(self):
        g = build_grid(-1.0, 1.0, 12, 0.2)
        with pytest.raises(ValueError):
            activation_curve(g, np.zeros(5), 0.0)
        with pytest.raises(ValueError):
            activation_curve(g, np.zeros(5), np.zeros(3))


class TestQuadratureWeights:
    def test_zero_target(self):
        g = build_grid(-2.0, 2.0, 50, 0.1)
        w = quadrature_weights(g, np.zeros(50))
        assert np.all(w == 0.0)

    def test_constant_target_weights_and_accuracy(self):
        g = build_grid(-2.0, 2.0, 400, 0.05)
        w = quadrature_weights(g, np.ones(400))
        expected = 4.0 / (math.sqrt(2 * math.pi) * 0.05 * 400)
        assert np.all(w == pytest.approx(expected, rel=1e-15))
        # interior: two widths away from the support boundary
        zs = np.linspace(-2.0 + 0.1, 2.0 - 0.1, 2001)
        dev = np.max(np.abs(activation_curve(g, w, zs) - 1.0))
        assert dev < 0.05

    @pytest.mark.parametrize("kind", ["s1", "s2", "s3"])
    def test_sup_error_decreases_with_refinement(self, kind):
        dense = np.linspace(-2.0, 2.0, 2001)
        truth = sigma_eval_array(kind, dense)
        errs = []
        for n in (100, 200, 400):
            g = build_grid(-2.0, 2.0, n, 2.0 * 4.0 / n)
            w = quadrature_weights(g, sigma_eval_array(kind, g.centers))
            errs.append(float(np.max(np.abs(activation_curve(g, w, dense) - truth))))
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("kind", ["s1", "s2", "s3"])
    @pytest.mark.parametrize("n", [100, 200, 400])
    def test_norm_bounds_hold(self, kind, n):
        g = build_grid(-2.0, 2.0, n, 2.0 * 4.0 / n)
        w = quadrature_weights(g, sigma_eval_array(kind, g.centers))
        l1_bound, l2_bound = quadrature_norm_bounds(g, 1.0)
        assert np.sum(np.abs(w)) <= l1_bound
        assert np.sum(w**2) <= l2_bound

    def test_length_mismatch(self):
        g = build_grid(-2.0, 2.0, 50, 0.1)
        with pytest.raises(ValueError):
            quadrature_weights(g, np.zeros(49))


class TestApproximationSchedule:
    def test_outputs_positive_and_monotone_in_epsilon(self):
        h1, s1 = approximation_schedule(0.1, 1.0, 2.0, 1.0, 4.0)
        h2, s2 = approximation_schedule(0.05, 1.0, 2.0, 1.0, 4.0)
        assert 0 < h2 < h1
        assert 0 < s2 < s1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            approximation_schedule(0.0, 1.0, 1.0, 1.0, 4.0)

    @pytest.mark.parametrize("epsilon", [32.0, 40.0])
    def test_rejects_epsilon_at_or_above_16_sigma_r(self, epsilon):
        # log(16 sigma_sup R / epsilon) <= 0 has no sufficient width (was ZeroDivisionError at 32)
        with pytest.raises(ValueError, match="epsilon"):
            approximation_schedule(epsilon, 1.0, 2.0, 1.0, 4.0)

    @pytest.mark.parametrize("support_len", [0.001, 0.0035])
    def test_rejects_support_too_short_for_a_positive_spacing(self, support_len):
        # log(8 sigma_sup |K| R / (sqrt(2 pi) epsilon h_max^2)) <= 0 gave a negative spacing
        with pytest.raises(ValueError, match="support_len"):
            approximation_schedule(1.0, 1.0, 1.0, 1.0, support_len)
