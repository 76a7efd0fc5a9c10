"""RBF grid construction, activation evaluation, quadrature weights."""

import functools
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rflaf import basis, data, kernel, optim
from rflaf.basis import (
    ActivationGrid,
    activation_curve,
    BAND_CUTOFF,
    approximation_schedule,
    banded_activation,
    build_grid,
    bumps,
    quadrature_norm_bounds,
    quadrature_weights,
)
from rflaf.data import sigma_eval_array
from rflaf.kernel import RbfParams
from rflaf.model import FeatureBank


def _dense(grid, zs):
    """(len(zs), N) responses of every center: the reference for the band."""
    zs = np.asarray(zs, dtype=float)
    return bumps(np.repeat(zs[:, None], grid.n_basis, axis=1), grid.centers, grid.width)


def _windows(monkeypatch, grid, z):
    """The centers, in call order, at which banded_activation evaluates each (distinct) point of z."""
    seen = {str(x): [] for x in z}

    def recording(u, c, h):
        k = int(np.flatnonzero(grid.centers == c)[0])
        for x in u:
            seen[str(x)].append(k)
        return bumps(u, c, h)

    monkeypatch.setattr(basis, "bumps", recording)
    banded_activation(grid, np.zeros(grid.n_basis), z)
    return [seen[str(x)] for x in z]


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

    @pytest.mark.parametrize("width", [1e-160, 1e-170])
    def test_rejects_width_below_floor(self, width):
        # bumps' factor -1/(2h^2) is -inf at 1e-160 (a NaN bump at u == c), and h*h is 0 at 1e-170
        with pytest.raises(ValueError, match="width"):
            build_grid(-1.0, 1.0, 4, width)

    def test_bumps_finite_at_width_floor(self):
        h = basis.MIN_WIDTH
        assert h * h > 0 and math.isfinite(-1.0 / (2.0 * h * h))
        got = bumps(np.array([0.0, h, -h, 1e-100, 1.0]), 0.0, h)
        assert got.tolist() == pytest.approx([1.0, math.exp(-0.5), math.exp(-0.5), 0.0, 0.0], rel=1e-15, abs=0)
        grid = build_grid(-1.0, 1.0, 4, h)
        assert activation_curve(grid, np.ones(4), grid.centers).tolist() == [1.0] * 4

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_grid(1.0, 0.0, 4, 0.1)
        with pytest.raises(ValueError):
            build_grid(0.0, 1.0, 1, 0.1)
        with pytest.raises(ValueError):
            build_grid(0.0, 1.0, 4, 0.0)


def _target(**counts):
    return data.TargetSpec(sigma_kind="s1", b1=np.array([1.0, 0.0]), b2=np.array([0.0, 1.0]), **counts)


def _bits(value):
    """What to compare of a value built from a count: a float's or array's bytes, entry by entry in a list or
    tuple, an int as itself, and a domain object by its type."""
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, (float, np.ndarray)):
        return np.asarray(value).tobytes()
    return value if isinstance(value, int) else type(value)


# (field, the domain object built with that count, a valid count)
COUNTS = [
    ("n_basis", lambda count: ActivationGrid(-2.0, 2.0, count, 0.1), 3),
    ("n_basis", lambda count: build_grid(-2.0, 2.0, count, 0.1), 3),
    ("dim", lambda count: FeatureBank(count, 3, 0), 3),
    ("n_features", lambda count: FeatureBank(2, count, 0), 3),
    ("seed", lambda count: FeatureBank(2, 3, count), 3),
    ("mc_samples", lambda count: _target(mc_samples=count), 1000),
    ("seed", lambda count: _target(seed=count), 3),
    ("n_points", lambda count: data.calibrate(_target(mc_samples=1000), count), 3),
    ("epochs", lambda count: optim.TrainConfig(epochs=count), 3),
    ("batch_size", lambda count: optim.TrainConfig(batch_size=count), 3),
    ("n", lambda count: data.holdout_size(count, 0.5), 3),
    ("n_terms", lambda count: kernel.kernel_taylor(0.5, RbfParams(0.0, 1.0), count), 3),
    ("n_max", lambda count: kernel.taylor_derivs(0.5, count), 3),
    ("n", lambda count: kernel.r_n(0.5, count), 31),  # its exact integers pass 2^63 from n = 31
    ("k", lambda count: kernel.poly_P(count), 41),
    ("k", lambda count: kernel.poly_Q(count), 41),
    ("n", lambda count: data.gauss_legendre(count), 3),
    ("n_basis", lambda count: basis.theory_bounds(1.0, count, 4, 0.1, 1.0, 4.0, 2.0), 3),
    ("n_features", lambda count: basis.theory_bounds(1.0, 10, count, 0.1, 1.0, 4.0, 2.0), 3),
]
COUNT_IDS = ["n_basis", "build_grid", "dim", "n_features", "bank-seed", "mc_samples", "target-seed", "n_points", "epochs", "batch_size", "n"]
COUNT_IDS += ["n_terms", "n_max", "r_n", "poly_P", "poly_Q", "gauss_legendre", "bounds-n_basis", "bounds-n_features"]


class TestCountChecks:
    # ActivationGrid(-2, 2, 2.5, 0.1) built 3 centers and build_grid 2; FeatureBank and calibrate raised a late TypeError
    # kernel_taylor(0.5, RbfParams(0, 1), True) summed one term, and theory_bounds took 10.5 and True
    @pytest.mark.parametrize("field, build, valid", COUNTS, ids=COUNT_IDS)
    @pytest.mark.parametrize("count", [2.5, 3.0, np.float64(1000.0), True, "3", None, -1])
    def test_rejects_what_is_not_a_count(self, field, build, valid, count):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            build(count)

    @pytest.mark.parametrize("field, build, valid", COUNTS, ids=COUNT_IDS)
    def test_accepts_numpy_integers(self, field, build, valid):
        # r_n(0.5, np.int64(31)) gave -3646320018: kernel._poly caches by count, and np.int64(k) shares k's entry
        for counts in ((np.int64(valid), np.uint16(valid), valid), (valid, np.int64(valid), np.uint16(valid))):
            kernel._poly.cache_clear()
            assert [_bits(build(count)) for count in counts] == [_bits(build(valid))] * 3


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
        a = np.arange(1.0, 7.0)
        act, sums = banded_activation(g, a, zs[:, None], np.ones(1))
        for i, z in enumerate(zs):
            act1, sums1 = banded_activation(g, a, np.array([[z]]), np.ones(1))
            assert act1[0, 0] == act[i, 0] and np.array_equal(sums1[:, 0], sums[:, i])


def _reach(grid):
    """Cells from a point's cell to the farthest center within sqrt(2 BAND_CUTOFF) h: the band's reach rule."""
    return math.ceil(math.sqrt(2.0 * BAND_CUTOFF) * grid.width / grid.spacing)


def _cells(grid, z):
    """Partition cell index floor((z - lo) / spacing) of each point of z."""
    return np.floor((np.asarray(z, dtype=float) - grid.support_lo) / grid.spacing)


class TestBandedBumps:
    def test_window_holds_every_bump_above_cutoff(self, monkeypatch):
        grid = build_grid(-2.0, 2.0, 200, 0.04)
        reach = _reach(grid)
        # every cell boundary and midpoint, past both ends of the support and past the reach
        z = np.linspace(-3.0, 3.0, 601)
        want = [list(range(max(i - reach, 0), min(i + reach + 1, 200))) for i in _cells(grid, z).astype(int)]
        assert reach == 18 and [] in want
        assert _windows(monkeypatch, grid, z) == want
        _, sums = banded_activation(grid, np.zeros(200), z[:, None], np.ones(1))
        dense = _dense(grid, z)
        inside = np.zeros(dense.shape, dtype=bool)
        for p, window in enumerate(want):
            inside[p, window] = True
        np.testing.assert_allclose(sums.T[inside], dense[inside], rtol=0, atol=1e-14)
        assert np.all(sums.T[~inside] == 0.0) and dense[~inside].max() <= math.exp(-BAND_CUTOFF)

    def test_full_width_band_is_dense(self):
        grid = build_grid(-2.0, 2.0, 7, 0.5)
        z = np.array([-5.0, -0.3, 0.0, 1.9, 7.0])
        _, sums = banded_activation(grid, np.zeros(7), z[:, None], np.ones(1))
        assert grid.band_width == 7
        np.testing.assert_allclose(sums.T, _dense(grid, z), rtol=0, atol=1e-14)

    def test_non_finite_inputs_stay_in_range(self, monkeypatch):
        # NaN counts as cell 0 and meets centers 0 .. reach; an infinite input is past the reach and meets none
        grid = build_grid(-2.0, 2.0, 200, 0.04)
        reach = _reach(grid)
        z = np.array([np.nan, np.inf, -np.inf])
        assert _windows(monkeypatch, grid, z) == [list(range(reach + 1)), [], []]
        act, sums = banded_activation(grid, np.ones(200), z[:, None], np.ones(1))
        assert np.isnan(act[0, 0]) and np.all(act[1:] == 0.0)
        assert np.all(np.isnan(sums[: reach + 1, 0])) and np.all(sums[reach + 1 :, 0] == 0.0)
        assert np.all(sums[:, 1:] == 0.0)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 400),
        h_over_spacing=st.floats(0.05, 40.0),
        lo=st.floats(-10.0, 10.0),
        length=st.floats(0.01, 20.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_sum_over_random_geometry(self, n, h_over_spacing, lo, length, seed):
        # every center left out is past the cutoff, and the summation order costs a few ulps
        grid = build_grid(lo, lo + length, n, h_over_spacing * length / n)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(n) * rng.uniform(0.0, 10.0, n)
        z = rng.uniform(lo - 2.0 * length, lo + 3.0 * length, 64)
        z = np.concatenate([z, grid.centers[rng.integers(0, n, 8)], [lo, lo + length]])
        terms = a * _dense(grid, z)
        bound = math.exp(-BAND_CUTOFF) * np.abs(a).sum() + 8.0 * np.finfo(float).eps * np.abs(terms).sum(axis=1)
        act = banded_activation(grid, a, z)[0]
        assert np.all(np.abs(act - terms.sum(axis=1)) <= bound)
        act = banded_activation(grid, a, np.array([np.nan, np.inf, -np.inf]))[0]
        assert np.isnan(act[0]) and np.array_equal(act[1:], [0.0, 0.0])

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 400),
        h_over_spacing=st.floats(0.05, 40.0),
        lo=st.floats(-10.0, 10.0),
        length=st.floats(0.01, 20.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_evaluates_no_bump_past_the_reach(self, n, h_over_spacing, lo, length, seed):
        # no exponent below -(reach + 1)^2 spacing^2 / (2 h^2), so np.exp never meets its slow
        # path below -708 at the shipped geometry (-45.1 there); a cell past the reach gets 0 from no bump
        grid = build_grid(lo, lo + length, n, h_over_spacing * length / n)
        reach = _reach(grid)
        rng = np.random.default_rng(seed)
        near = rng.uniform(lo - 2.0 * length, lo + 3.0 * length, 64)
        edges = lo + grid.spacing * np.array([-reach - 1.5, -reach - 0.5, -reach + 0.5, n + reach - 0.5, n + reach + 0.5])
        far = [lo - 1e6 * length, lo + 1e6 * length, -1e300, 1e300, np.inf, -np.inf]
        z = np.concatenate([near, edges, grid.centers[rng.integers(0, n, 8)], far])
        exponents, evaluated = [], []

        def recording(u, c, h):
            evaluated.append(u.copy())
            exponents.append(np.square(u - c) * (-1.0 / (2.0 * h * h)))
            return bumps(u, c, h)

        with mock.patch.object(basis, "bumps", recording):
            act = banded_activation(grid, np.ones(n), z)[0]
        # the cell index and the centers round by a few ulps of the support's ends, the exponent by a few of its own
        far_end = (reach + 1) * grid.spacing + 8.0 * np.spacing(max(abs(lo), abs(lo + length)))
        assert min(e.min() for e in exponents) >= -(far_end**2) / (2.0 * grid.width**2) * (1.0 + 1e-12)
        cells = _cells(grid, z)
        past = (cells < -reach) | (cells >= n + reach)
        assert past[-6:].all() and np.all(act[past] == 0.0)
        assert not np.isin(z[past], np.concatenate(evaluated)).any()


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

    @pytest.mark.parametrize("sigma_sup", [-1.0, math.nan, math.inf])
    def test_norm_bounds_reject_negative_or_non_finite_sup(self, sigma_sup):
        with pytest.raises(ValueError, match="sigma_sup"):
            quadrature_norm_bounds(build_grid(-2.0, 2.0, 50, 0.1), sigma_sup)


def _gauss(u):
    return np.exp(-((u - 0.5) ** 2) / (2 * 0.8**2))


def _expected_max_case(bump):
    """data.mc_expected_max on 7 rows in 3 dims: chunks of 64 // (7 + 3) = 6 draws."""
    rng = np.random.default_rng(12)
    X, b1, b2 = rng.standard_normal((7, 3)), rng.standard_normal(3), rng.standard_normal(3)
    mean, stderr = data.mc_expected_max(99, 50, X, lambda u: bump(u, 0.5, 0.8), b1, b2, 1.5)
    w = np.random.default_rng(99).standard_normal((50, 3))
    terms = 1.5 * np.maximum(w @ b1, w @ b2)[:, None] * _gauss(w @ X.T)
    return mean, stderr, terms, [(6, 7)] * 8 + [(2, 7)]


def _kernel_case(bump):
    """kernel.kernel_mc on one pair in 3 dims, drawn in their 2-dim span: chunks of 64 // (1 + 2) = 21 draws,
    v's bump before sigma's."""
    x, x2 = np.random.default_rng(12).standard_normal((2, 3))
    est = kernel.kernel_mc(x, x2, RbfParams(0.5, 0.8), 50, 99)
    r = np.linalg.qr(np.stack([x, x2], axis=1), mode="r")
    g = np.random.default_rng(99).standard_normal((50, 2))
    terms = (_gauss(g @ r[:, 0]) * _gauss(g @ r[:, 1]))[:, None]
    return np.array([est.mean]), np.array([est.stderr]), terms, [(21,), (21, 1)] * 2 + [(8,), (8, 1)]


class TestMcMean:
    @pytest.mark.parametrize("case", [_expected_max_case, _kernel_case], ids=["mc_expected_max", "kernel_mc"])
    def test_streamed_estimate_matches_one_pass(self, monkeypatch, case):
        # a budget of 64 cells streams the 50 draws in chunks of 64 // (rows + dims)
        monkeypatch.setattr(basis, "CHUNK_CELLS", 64)
        bump_blocks = []

        def bump(u, c, h):
            bump_blocks.append(u.shape)
            return bumps(u, c, h)

        monkeypatch.setattr(kernel, "bumps", bump)
        mean, stderr, terms, blocks = case(bump)
        assert bump_blocks == blocks
        assert np.max(np.abs(mean - terms.mean(axis=0))) <= 1e-14
        assert np.max(np.abs(stderr - terms.std(axis=0, ddof=1) / math.sqrt(50))) <= 1e-14

    def _blocked(self, seed, parts, sigma=None):
        """mc_mean of 50 draws in blocks of 16 (the last of 2) on 7 rows in 3 dims, split into parts."""
        rng = np.random.default_rng(12)
        X, b = rng.standard_normal((7, 3)), rng.standard_normal(3)
        with mock.patch.object(basis, "MC_BLOCK", 16), mock.patch.object(basis, "_parts", lambda rows, cells: parts):
            return basis.mc_mean(seed, 50, X, sigma or (lambda u: bumps(u, 0.5, 0.8)), lambda w: w @ b)

    @pytest.mark.parametrize("seed", [5, np.random.SeedSequence([5, 6])], ids=["int", "seed_sequence"])
    def test_blocks_byte_identical_across_part_counts(self, seed):
        # 4 blocks over 1, 2 and 3 processes; block b is PCG64(seed) jumped b times
        got = {tuple(part.tobytes() for part in self._blocked(seed, parts)) for parts in (1, 2, 3)}
        assert len(got) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        rng = np.random.default_rng(12)
        X, b = rng.standard_normal((7, 3)), rng.standard_normal(3)
        w = np.concatenate(
            [np.random.Generator(np.random.PCG64(seed).jumped(k)).standard_normal((16, 3)) for k in range(4)]
        )[:50]
        terms = (w @ b)[:, None] * _gauss(w @ X.T)
        mean, stderr = self._blocked(seed, 2)
        assert np.max(np.abs(mean - terms.mean(axis=0))) <= 1e-14
        assert np.max(np.abs(stderr - terms.std(axis=0, ddof=1) / math.sqrt(50))) <= 1e-14

    @pytest.mark.parametrize("seed", [8, np.random.SeedSequence([8, 9])], ids=["int", "seed_sequence"])
    def test_one_block_draws_default_rng(self, seed):
        # n <= MC_BLOCK draws are those of default_rng(seed), whatever the chunking
        seen = []

        def v(w):
            seen.append(w.copy())
            return np.ones(w.shape[0])

        X = np.ones((5, 4))
        basis.mc_mean(seed, basis.MC_BLOCK, X, np.abs, v)
        assert len(seen) > 1
        assert np.array_equal(np.concatenate(seen), np.random.default_rng(seed).standard_normal((basis.MC_BLOCK, 4)))

    def test_failing_worker_raises(self, capfd):
        parent = os.getpid()

        def sigma(u):
            if os.getpid() != parent:
                raise ValueError("sigma in a worker")
            return np.abs(u)

        with pytest.raises(RuntimeError, match="worker failed"):
            self._blocked(3, 2, sigma)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert "ValueError: sigma in a worker" in capfd.readouterr().err

    def test_stderr_of_values_below_1e_154(self):
        # v scaled by 2^-600 scales each value exactly, so the mean and standard
        # error must scale with it, though the values' squares round to 0
        X = np.random.default_rng(6).standard_normal((3, 2))

        def estimate(scale):
            return basis.mc_mean(7, 5000, X, lambda u: bumps(u, 0.5, 1.0), lambda w: scale * np.abs(w[:, 0]))

        mean, stderr = estimate(1.0)
        tiny_mean, tiny_stderr = estimate(2.0**-600)
        assert np.ldexp(tiny_mean, 600).tobytes() == mean.tobytes()
        assert np.all(stderr > 0)
        np.testing.assert_allclose(np.ldexp(tiny_stderr, 600), stderr, rtol=1e-12)

    def test_low_row_stderr_byte_identical_across_part_counts(self):
        # sigma scaled by 2^-700 puts every row's squares below 2^-970, so each row is estimated again
        def tiny(u):
            return np.ldexp(bumps(u, 0.5, 0.8), -700)

        got = {tuple(part.tobytes() for part in self._blocked(5, parts, tiny)) for parts in (1, 2, 3)}
        assert len(got) == 1
        _, stderr = self._blocked(5, 1)
        tiny_stderr = np.frombuffer(got.pop()[1])
        assert np.all(tiny_stderr > 0)
        np.testing.assert_allclose(np.ldexp(tiny_stderr, 700), stderr, rtol=1e-12)

    def test_stderr_where_one_factor_is_below_2_to_the_minus_922(self):
        # v near 1 and sigma near 2^-1000: scaled by 2^384 each, sigma's square would still round to 0
        X = np.random.default_rng(6).standard_normal((3, 2))

        def estimate(scale):
            return basis.mc_mean(7, 5000, X, lambda u: scale * bumps(u, 0.5, 1.0), lambda w: np.abs(w[:, 0]))

        mean, stderr = estimate(1.0)
        tiny_mean, tiny_stderr = estimate(2.0**-1000)
        assert np.all(np.isfinite(tiny_stderr)) and np.all(tiny_stderr > 0)
        np.testing.assert_allclose(np.ldexp(tiny_mean, 1000), mean, rtol=1e-9)
        np.testing.assert_allclose(np.ldexp(tiny_stderr, 1000), stderr, rtol=1e-9)

    def test_rejects_no_draws(self):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            basis.mc_mean(3, 0, np.ones((2, 3)), np.abs, lambda w: w[:, 0])

    @pytest.mark.parametrize("n", [2.5, True, 1e6], ids=["fraction", "bool", "integral-float"])
    def test_rejects_non_integer_draws_before_any_fork(self, n):
        # 2.5 raised TypeError from range deep inside the block loop, in a worker once split
        no_fork = mock.patch.object(os, "fork", side_effect=AssertionError("forked"))
        with mock.patch.object(basis, "_parts", lambda rows, cells: 3), no_fork:
            with pytest.raises(ValueError, match=f"n must be an integer >= 1, got {n!r}"):
                basis.mc_mean(3, n, np.ones((2, 3)), np.abs, lambda w: w[:, 0])

    @pytest.mark.parametrize("parts", [1, 2])
    def test_no_rows_give_empty_arrays(self, parts):
        # 4 blocks in 1 or 2 processes: the pool's shared rows of no row are empty
        with mock.patch.object(basis, "MC_BLOCK", 16), mock.patch.object(basis, "_parts", lambda rows, cells: parts):
            mean, stderr = basis.mc_mean(3, 50, np.zeros((0, 3)), np.abs, lambda w: w[:, 0])
        assert mean.shape == stderr.shape == (0,)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_memory_does_not_grow_with_dimension(self):
        # 200,000 draws in 100 dims are 160 MB at once; 2 MB chunks keep each caller's peak within 8 chunks
        rng = np.random.default_rng(4)
        x, x2, b1, b2 = rng.standard_normal((4, 100))
        X = rng.standard_normal((64, 100))
        sigma = functools.partial(sigma_eval_array, "s1")
        calls = {
            "kernel_mc": lambda: kernel.kernel_mc(x, x2, RbfParams(1.0, 1.0), 200_000, 5),
            "mc_expected_max": lambda: data.mc_expected_max(5, 200_000, X, sigma, b1, b2, 1.0),
        }
        peaks = {}
        for name, call in calls.items():
            tracemalloc.start()
            try:
                call()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        chunk_bytes = 8 * basis.CHUNK_CELLS
        assert all(peak <= 8 * chunk_bytes for peak in peaks.values()), peaks


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

    @pytest.mark.parametrize(
        "epsilon,sigma_sup", [(1e-200, 1.0), (1e-300, 1.0), (5e-324, 1.0), (1e-12, 1e300)]
    )
    def test_rejects_epsilon_whose_schedule_underflows(self, epsilon, sigma_sup):
        # epsilon h_max^2 underflowed to 0 and the log term divided by it (ZeroDivisionError at 1e-200);
        # with a huge sigma_sup it is spacing_max that underflows
        with pytest.raises(ValueError, match=f"epsilon {epsilon} is too small"):
            approximation_schedule(epsilon, math.pi, 2.0, sigma_sup, 4.0)

    def test_smallest_schedule_still_formed(self):
        h_max, spacing_max = approximation_schedule(1e-100, math.pi, 2.0, 1.0, 4.0)
        assert 0 < spacing_max < h_max < 1e-100
