"""Synthetic targets, their quadrature and Monte-Carlo cross-check, dataset generation, calibration."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rflaf import basis, data
from rflaf.data import (
    Dataset,
    TargetSampler,
    TargetSpec,
    calibrate,
    expected_max_quadrature,
    gauss_legendre,
    gen_dataset,
    mc_expected_max,
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

    def test_pieces_match_the_stated_formulas_bitwise(self):
        # each sigma written out by hand, against the one table it is evaluated from
        knots = [k for ks in data.SIGMA_KNOTS.values() for k in ks]
        z = np.concatenate([np.random.default_rng(3).uniform(-2.0, 2.0, 100_000), knots, [0.0, -0.0, np.nan, np.inf, -np.inf]])
        z = np.concatenate([z, np.nextafter(z, np.inf), np.nextafter(z, -np.inf)])
        want = {kind: np.zeros_like(z) for kind in ("s1", "s2", "s3")}
        m = np.abs(z) <= 1.0
        want["s1"][m] = np.sin(np.pi * z[m])
        m = (z >= 0.0) & (z <= 1.0)
        want["s2"][m] = np.sin(np.pi * z[m])
        m = (z >= -1.5) & (z <= -0.5)
        want["s3"][m] = -np.sin(np.pi * (z[m] + 0.5))
        m = (z >= 0.5) & (z <= 1.5)
        want["s3"][m] = np.sin(np.pi * (z[m] - 0.5))
        assert data.SIGMA_KNOTS == {"s1": (-1.0, 1.0), "s2": (0.0, 1.0), "s3": (-1.5, -0.5, 0.5, 1.5)}
        for kind, values in want.items():
            got = sigma_eval_array(kind, z)
            assert np.array_equal(got.view(np.int64), values.view(np.int64)), kind


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
            assert batch[i] == sampler.means(X[i : i + 1])[0]
            # a Monte-Carlo estimate at this point alone, from the spec's own stream
            mean, stderr = mc_expected_max(spec.seed, spec.mc_samples, X[i : i + 1], spec.sigma, B1, B2, 1.0)
            assert abs(batch[i] - mean[0]) <= data.CHECK_STDERRS * stderr[0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rows(self, bad):
        X = np.ones((5, 2))
        X[3, 1] = X[4, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"row 3 is \[1.0, {bad}\]"):
                TargetSampler(_spec()).means(X)

    def test_rows_independent_past_one_chunk(self):
        # each label is a function of its own row alone, whatever else is in the batch
        spec = _spec(mc=5000)
        chunk = basis.CHUNK_CELLS // (data._QUAD_TEMPS * data._NODES)
        n = chunk + chunk // 4
        X = np.random.default_rng(21).standard_normal((n, 2))
        sampler = TargetSampler(spec)
        batch = sampler.means(X)
        assert [i for i in range(n) if batch[i] != sampler.means(X[i : i + 1])[0]] == []
        assert np.array_equal(sampler.means(X[1:]), batch[1:])

    @pytest.mark.parametrize("kind", ["s1", "s2", "s3"])
    def test_cross_check_passes(self, kind):
        check = TargetSampler(_spec(kind=kind, mc=50_000, seed=17)).cross_check()
        assert (check.samples, check.points, check.failures) == (50_000, 64, 0)
        assert 0.0 < check.worst <= data.CHECK_STDERRS

    def test_cross_check_catches_a_one_percent_error(self, monkeypatch):
        spec = _spec(mc=2_000_000, seed=17)
        assert TargetSampler(spec).cross_check().ok
        means = TargetSampler.means
        monkeypatch.setattr(TargetSampler, "means", lambda self, X: 1.01 * means(self, X))
        check = TargetSampler(spec).cross_check()
        assert check.failures > 0 and check.worst > data.CHECK_STDERRS


def _bump_sigma(c, h):
    return (lambda z: basis.bumps(z, c, h)), (-math.inf, math.inf), tuple(c + k * h for k in (-6, -3, 0, 3, 6))


def _kind_sigma(kind):
    knots = data.SIGMA_KNOTS[kind]
    return (lambda z: sigma_eval_array(kind, z)), (knots[0], knots[-1]), knots


def _gauss(t):
    return math.exp(-t * t / 2) / math.sqrt(2 * math.pi)


class TestQuadrature:
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64, 128, 256])
    def test_gauss_legendre_matches_numpy(self, n):
        x, w = gauss_legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - ref_x)) <= 1e-14
        assert np.max(np.abs(w - ref_w)) <= 1e-14

    @settings(max_examples=150, deadline=None)
    # the worst of 3,000 draws of this distribution: 7.7e-13 at 32 nodes, 2.2e-13 at 64 without the ends at t = +-3
    @example(kind="bump", d=2, seed=1661854037, log_r=2.454186424181991, log_tilt=-7.0298064956139275,
             c=-1.2747826063599375, h=0.22145210795941267)
    @given(
        kind=st.sampled_from(["s1", "s2", "s3", "bump"]),
        d=st.sampled_from([1, 2, 3, 5]),
        seed=st.integers(0, 2**32 - 1),
        log_r=st.floats(math.log(0.001), math.log(12.0)),
        log_tilt=st.floats(-12.0, 1.0),
        c=st.floats(-2.0, 2.0),
        h=st.floats(0.2, 2.0),
    )
    def test_32_nodes_match_256(self, kind, d, seed, log_r, log_tilt, c, h):
        rng = np.random.default_rng(seed)
        b1, b2 = rng.uniform(-3.0, 3.0, d), rng.uniform(-3.0, 3.0, d)
        db = b1 - b2
        # x near the direction of b1 - b2 (theta << |delta|, the hard case), a random direction, and x = 0
        near = db / np.linalg.norm(db) + 10.0**log_tilt * rng.standard_normal(d)
        X = np.stack([near, rng.standard_normal(d), np.zeros(d)])
        X[:2] *= math.exp(log_r) / np.linalg.norm(X[:2], axis=1, keepdims=True)
        sigma, support, knots = _bump_sigma(c, h) if kind == "bump" else _kind_sigma(kind)
        assert data._NODES == 32
        f32 = expected_max_quadrature(X, sigma, support, knots, b1, b2)
        with mock.patch.object(data, "_NODES", 256):
            f256 = expected_max_quadrature(X, sigma, support, knots, b1, b2)
        assert np.all(np.abs(f32 - f256) <= 1e-11 * np.maximum(1.0, np.abs(f256)))

    @pytest.mark.parametrize("kind", ["s1", "s2", "s3", "bump"])
    def test_origin(self, kind):
        sigma, support, knots = _bump_sigma(0.5, 0.7) if kind == "bump" else _kind_sigma(kind)
        b1, b2 = np.array([1.0, -2.0]), np.array([0.5, 1.0])
        got = expected_max_quadrature(np.zeros((1, 2)), sigma, support, knots, b1, b2, 3.0)[0]
        # E max(b1.w, b2.w) = E max(0, (b1-b2).w) + 0 = |b1 - b2| / sqrt(2 pi)
        want = 3.0 * sigma(np.zeros(1))[0] * math.sqrt(0.25 + 9.0) / math.sqrt(2 * math.pi)
        assert got == pytest.approx(want, rel=1e-15, abs=0)
        assert (got == 0.0) == (kind != "bump")

    @pytest.mark.parametrize("kind", ["s1", "s2", "s3", "bump"])
    @pytest.mark.parametrize("x", [-2.3, 0.4, 1.7])
    def test_theta_zero_in_one_dimension(self, kind, x):
        # in one dimension b1 - b2 is parallel to x: E[max | t] = max(t b1, t b2) exactly
        from scipy.integrate import quad

        sigma, support, knots = _bump_sigma(0.5, 0.7) if kind == "bump" else _kind_sigma(kind)
        b1, b2 = 1.3, -0.4
        got = expected_max_quadrature(np.array([[x]]), sigma, support, knots, [b1], [b2])[0]

        def integrand(t):
            return sigma(np.array([x * t]))[0] * max(t * b1, t * b2) * _gauss(t)

        points = sorted({0.0, *(k / x for k in knots if abs(k / x) < 12)})
        want = quad(integrand, -12.0, 12.0, points=points, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13)

    @pytest.mark.parametrize("kind", ["s1", "s2", "s3", "bump"])
    @pytest.mark.parametrize("x", [(0.8, 0.8), (-1.1, 0.3), (0.5, -2.0)], ids=["delta-0", "generic", "far"])
    def test_matches_two_dimensional_integral(self, kind, x):
        # Clark's formula against the plain double integral over w = t u + s v, v perpendicular to u
        from scipy.integrate import quad

        sigma, support, knots = _bump_sigma(0.5, 0.7) if kind == "bump" else _kind_sigma(kind)
        b1, b2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        x = np.array(x)
        r = float(np.linalg.norm(x))
        u = x / r
        v = np.array([-u[1], u[0]])
        got = expected_max_quadrature(x[None, :], sigma, support, knots, b1, b2)[0]

        def inner(t):
            # max(b1.w, b2.w) bends where (b1 - b2).w = 0
            du, dv = (b1 - b2) @ u, (b1 - b2) @ v
            kink = -du * t / dv
            def g(s):
                w = t * u + s * v
                return max(b1 @ w, b2 @ w) * _gauss(s)
            return quad(g, -12.0, 12.0, points=[kink] if abs(kink) < 12 else None, epsabs=1e-14, limit=200)[0]

        def outer(t):
            return sigma(np.array([r * t]))[0] * inner(t) * _gauss(t)

        points = sorted({0.0, *(k / r for k in knots if abs(k / r) < 12)})
        want = quad(outer, -12.0, 12.0, points=points, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def _neighbours(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


def _cdf(a):
    a = np.asarray(a, dtype=float)
    return data._normal_cdf(a, basis.bumps(a.copy(), 0.0, 1.0))


class TestNormalCdf:
    """The quadrature's Phi against 40-digit values, range by range."""

    # (lo, hi, bound on the relative error); 0.5 * math.erfc(-a / sqrt(2)), which Phi replaced, reaches
    # 1.84e-13, 5.4e-15 and 2.2e-16 on these ranges.  Where Phi is subnormal (a < -37.5), the bound applies to
    # the smallest normal float instead.
    RANGES = [(-38.5, -5.66, 6e-14), (-5.66, -0.7, 2.5e-15), (-0.7, 8.3, 2.0**-52)]

    @staticmethod
    def _assert_within(a, bound):
        import mpmath

        tiny = np.finfo(float).tiny
        with mpmath.workdps(40):
            bad = [
                (x, y)
                for x, y in zip(np.asarray(a, dtype=float).tolist(), _cdf(a).tolist())
                if not abs(y - mpmath.ncdf(x)) <= bound * max(mpmath.ncdf(x), tiny)
            ]
        assert bad == []

    @pytest.mark.parametrize("lo, hi, bound", RANGES)
    def test_dense_grid(self, lo, hi, bound):
        self._assert_within(np.linspace(lo, hi, 2001), bound)

    @pytest.mark.parametrize("lo, hi, bound", RANGES)
    @settings(max_examples=40, deadline=None)
    @given(draws=st.data())
    def test_draws(self, lo, hi, bound, draws):
        self._assert_within(draws.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=64)), bound)

    def test_subnormal_and_below(self):
        self._assert_within(np.linspace(-40.0, -37.0, 2001), 6e-14)

    def test_edges(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _cdf([-np.inf, np.inf, 0.0, -0.0, np.nan])
        assert got[:4].tolist() == [0.0, 1.0, 0.5, 0.5] and np.isnan(got[4])

    def test_each_value_is_its_own(self):
        # each form runs on exactly the elements that need it, at its range's ends too (|a| = 1, and 4 sqrt(2),
        # where y = 4.000000000000001), so no element's bits depend on the others
        ends = [x for end in (1.0, -1.0, 5.656854249492381, -5.656854249492381) for x in _neighbours(end)]
        a = np.concatenate([np.linspace(-40.0, 9.0, 1201), [np.inf, -np.inf, np.nan, 0.0, -0.0, 4.0, -5.65], ends])
        given = a.copy()
        whole = _cdf(a)
        alone = np.concatenate([_cdf(a[i : i + 1]) for i in range(a.shape[0])])
        assert np.array_equal(whole.view(np.int64), alone.view(np.int64))
        assert np.array_equal(a.view(np.int64), given.view(np.int64))  # Phi leaves its input alone
        assert _cdf(np.empty(0)).shape == (0,)

    def test_split_of_the_series_constant(self):
        import mpmath

        hi, lo = data._RSQRT_2PI_HI, data._RSQRT_2PI_LO
        assert (hi * 2**28).is_integer() and hi * 2**28 < 2**27  # 27 bits: times a float32 it is exact
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(hi) + lo - 1 / mpmath.sqrt(2 * mpmath.pi)) <= 2.0**-86


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
        assert sampler.cross_check().ok

    def test_scaling_property(self):
        base = calibrate(_spec(), n_points=2000)
        doubled = TargetSpec(sigma_kind="s1", b1=2 * B1, b2=2 * B2, mc_samples=20_000, seed=11)
        # doubling the direction vectors doubles every value exactly, so the constant halves exactly
        assert calibrate(doubled, n_points=2000) == base / 2.0

    def test_requires_unit_calib(self):
        with pytest.raises(ValueError):
            calibrate(_spec(calib=2.0))

    def test_degenerate_target(self, monkeypatch):
        monkeypatch.setattr(TargetSampler, "means", lambda self, X: np.zeros(X.shape[0]))
        with pytest.raises(ValueError, match="degenerate"):
            calibrate(_spec(mc=1000))

    def test_huge_finite_target(self):
        # 1e150 keeps every value finite; at 1e300, |b1 - b2|^2 overflows and every value is NaN
        assert calibrate(TargetSpec(sigma_kind="s1", b1=[1e150, 0.0], b2=B2, seed=77)) == 1.4549325784704806e-149
        with pytest.raises(ValueError, match="degenerate target: mean \\|f\\| = nan"):
            calibrate(TargetSpec(sigma_kind="s1", b1=[1e300, 0.0], b2=B2, seed=77))

    @pytest.mark.parametrize("n_points", [0, -3])
    def test_rejects_no_points(self, n_points):
        # zero points have no mean |f|: that must not come back as a nan constant
        with pytest.raises(ValueError, match="n_points"):
            calibrate(_spec(mc=1000), n_points=n_points)


class TestHoldoutSize:
    @pytest.mark.parametrize("n", [2.5, 10.0, True, "10"])
    def test_rejects_non_integer_rows(self, n):
        # holdout_size(2.5, 0.5) returned 1
        with pytest.raises(ValueError, match="integer"):
            data.holdout_size(n, 0.5)

    def test_sizes(self):
        assert [data.holdout_size(n, 0.2) for n in (2, 10, np.int64(10), 1000)] == [1, 2, 2, 200]


class TestGenDataset:
    def test_split_sizes_and_disjointness(self):
        ds = gen_dataset(_spec(mc=1000), 10, 0.2, seed=5)
        assert ds.x_train.shape == (8, 2) and ds.y_train.shape == (8,)
        assert ds.x_test.shape == (2, 2) and ds.y_test.shape == (2,)
        rows = {tuple(x) for x in np.concatenate([ds.x_train, ds.x_test])}
        assert len(rows) == 10

    def test_split_is_the_sorted_permutation_of_the_drawn_rows(self):
        # gen_dataset's two streams: rows from [seed, 0], the split from [seed, 1]
        spec, n, seed = _spec(mc=1000), 30, 12
        X = np.random.default_rng(np.random.SeedSequence([seed, 0])).standard_normal((n, 2))
        y = TargetSampler(spec).means(X)
        perm = np.random.default_rng(np.random.SeedSequence([seed, 1])).permutation(n)
        train, test = np.sort(perm[6:]), np.sort(perm[:6])
        ds = gen_dataset(spec, n, 0.2, seed=seed)
        for got, want in [(ds.x_train, X[train]), (ds.y_train, y[train]), (ds.x_test, X[test]), (ds.y_test, y[test])]:
            assert got.tobytes() == want.tobytes() and got.shape == want.shape

    def test_deterministic(self):
        a = gen_dataset(_spec(mc=1000), 20, 0.25, seed=6)
        b = gen_dataset(_spec(mc=1000), 20, 0.25, seed=6)
        for name in ("x_train", "y_train", "x_test", "y_test"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_labels_match_target(self):
        spec = _spec(mc=2000)
        ds = gen_dataset(spec, 12, 0.25, seed=7)
        X, y = np.concatenate([ds.x_train, ds.x_test]), np.concatenate([ds.y_train, ds.y_test])
        assert np.array_equal(y, TargetSampler(spec).means(X))
        mean, stderr = mc_expected_max(spec.seed, spec.mc_samples, X, spec.sigma, B1, B2, 1.0)
        assert np.all(np.abs(y - mean) <= data.CHECK_STDERRS * stderr)

    def test_calibrated_mean_abs_near_one(self):
        spec = _spec(kind="s2", mc=20_000, seed=13)
        calibrated = spec.with_calib(calibrate(spec))
        ds = gen_dataset(calibrated, 15_000, 0.2, seed=8)
        assert float(np.mean(np.abs(np.concatenate([ds.y_train, ds.y_test])))) == pytest.approx(1.0, rel=0.05)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            gen_dataset(_spec(mc=1000), 10, 0.0, seed=9)
        with pytest.raises(ValueError):
            gen_dataset(_spec(mc=1000), 10, 1.0, seed=9)


def _dataset(**arrays):
    """A zero Dataset of 3 train rows and 1 test row in 2 dimensions, with any of its four arrays replaced."""
    shapes = {"x_train": (3, 2), "y_train": (3,), "x_test": (1, 2), "y_test": (1,)}
    return Dataset(**{name: arrays.get(name, np.zeros(shape)) for name, shape in shapes.items()})


class TestDatasetInvariants:
    @pytest.mark.parametrize(
        "field, value",
        [("x_train", np.full((3, 2), np.nan)), ("y_test", np.array([np.inf])),
         ("x_test", np.array([[0.0, -np.inf]])), ("y_train", np.array([0.0, np.nan, 0.0]))],
        ids=["nan-X", "inf-y", "inf-x-test", "nan-y-train"],
    )
    def test_rejects_non_finite_data(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            _dataset(**{field: value})

    def test_rejects_one_dimensional_X(self):
        for arrays in ({"x_train": np.zeros(3)}, {"x_test": np.zeros(1)}):
            with pytest.raises(ValueError, match="2-D"):
                _dataset(**arrays)

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_rejects_an_empty_split(self, split):
        # 0 train rows gave NaN train metrics, and 0 test rows a test_mse of 0.0
        with pytest.raises(ValueError, match=f"x_{split} .* at least one row"):
            _dataset(**{f"x_{split}": np.zeros((0, 2)), f"y_{split}": np.zeros(0)})

    @pytest.mark.parametrize(
        "arrays",
        [{"x_test": np.zeros((1, 3))}, {"y_train": np.zeros(2)}, {"y_test": np.zeros(2)}, {"y_train": np.zeros((3, 1))}],
        ids=["test-width", "train-rows", "test-rows", "column-y"],
    )
    def test_rejects_mismatched_splits(self, arrays):
        with pytest.raises(ValueError, match="columns|one value per row"):
            _dataset(**arrays)
