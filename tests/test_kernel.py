"""Kernel closed form, Monte-Carlo oracle, and Taylor machinery."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rflaf import basis, kernel
from rflaf.basis import bumps
from rflaf.data import gauss_legendre
from rflaf.kernel import (
    RbfParams,
    kernel_closed,
    kernel_mc,
    kernel_rot,
    kernel_taylor,
    poly_P,
    poly_Q,
    r_n,
    taylor_deriv,
    taylor_derivs,
)

UNIT = RbfParams(center=0.0, width=1.0)
SHIFTED = RbfParams(center=1.0, width=1.0)


def _kernel_by_quadrature(x, x2, params):
    """E[B(w.x) B(w.x2)] as one integral in t = w.x/|x| ~ N(0, 1), x != 0.

    With x2 = alpha x/|x| + beta u, u a unit vector orthogonal to x,
    E[B(w.x2) | t] = h/sqrt(h^2+beta^2) exp(-(alpha t - c)^2 / (2 (h^2+beta^2))).
    The log-integrand is quadratic in t, so the 64-node Gauss-Legendre
    pieces follow its peak: breaks at the peak +- {1, 3, 6, 12, 40} of its
    standard deviations.
    """
    c, h = params.center, params.width
    r = math.sqrt(x @ x)
    alpha = float(x2 @ x) / r
    s2 = h * h + float(np.sum((x2 - alpha * x / r) ** 2))
    precision = 1.0 + r * r / (h * h) + alpha * alpha / s2
    peak = c * (r / (h * h) + alpha / s2) / precision
    edges = peak + np.array([-40.0, -12, -6, -3, -1, 1, 3, 6, 12, 40]) / math.sqrt(precision)
    nodes, weights = gauss_legendre(64)
    half = 0.5 * np.diff(edges)[:, None]
    t = (half * nodes + 0.5 * (edges[:-1] + edges[1:])[:, None]).ravel()
    log_f = -0.5 * t * t - (r * t - c) ** 2 / (2.0 * h * h) - (alpha * t - c) ** 2 / (2.0 * s2)
    return float((half * weights).ravel() @ np.exp(log_f)) * h / math.sqrt(2.0 * math.pi * s2)


class TestRbfParams:
    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            RbfParams(center=0.0, width=0.0)
        with pytest.raises(ValueError):
            RbfParams(center=0.0, width=-1.0)

    @pytest.mark.parametrize("width", [1e-160, 1e-170])
    def test_rejects_width_below_floor(self, width):
        # kernel_mc at x = x' = 0 with width 1e-160 returned a NaN mean
        with pytest.raises(ValueError, match="width"):
            RbfParams(center=0.0, width=width)

    def test_kernel_at_width_floor(self):
        params = RbfParams(center=0.0, width=basis.MIN_WIDTH)
        assert kernel_mc(np.zeros(2), np.zeros(2), params, 100, 0).mean == 1.0
        assert 0.0 <= kernel_closed(np.zeros(2), np.zeros(2), params) <= 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RbfParams(center=math.nan, width=1.0)
        with pytest.raises(ValueError):
            RbfParams(center=0.0, width=math.inf)


def _kernel_decimal(x, x2, params):
    """kernel_closed's value in 60-digit decimals, rounded to a float, D as h^4 + h^2 (|x|^2 + |x2|^2) + sum_{i<j} (x_i x2_j - x_j x2_i)^2,
    a sum of nonnegative terms that does not cancel."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        xs, x2s = [decimal.Decimal(t) for t in x.tolist()], [decimal.Decimal(t) for t in x2.tolist()]
        h2, c = decimal.Decimal(params.width) ** 2, decimal.Decimal(params.center)
        pairs = [(i, j) for i in range(len(xs)) for j in range(i + 1, len(xs))]
        minors = sum(((xs[i] * x2s[j] - xs[j] * x2s[i]) ** 2 for i, j in pairs), decimal.Decimal(0))
        denom = h2 * h2 + h2 * (sum(t * t for t in xs) + sum(t * t for t in x2s)) + minors
        num = 2 * h2 + sum((s - t) ** 2 for s, t in zip(xs, x2s))
        return float(h2 / denom.sqrt() * (-c * c * num / (2 * denom)).exp())


class TestKernelClosed:
    @pytest.mark.parametrize("scale", [1e4, 1e6, 1e8, 1e100])
    def test_large_nearly_parallel_pairs(self, scale):
        # in floats D = A A' - <x,x2>^2 cancels: 3.9e-5 off at 1e6, ValueError at 1e8
        params = RbfParams(center=1.0, width=0.5)
        for x2 in (np.array([0.6, 0.8]) * scale, np.array([0.6, 0.8 + 1e-12]) * scale):
            x = np.array([0.6, 0.8]) * scale
            want = _kernel_decimal(x, x2, params)
            assert abs(kernel_closed(x, x2, params) - want) <= 1e-15 * want

    def test_beyond_float_squares(self):
        # |x|^2 overflows a double here; the value is h / (sqrt(2) |x|) to first order
        x = np.array([1e160, 0.0])
        got = kernel_closed(x, x, RbfParams(center=1.0, width=0.5))
        assert got == pytest.approx(0.5 / (math.sqrt(2.0) * 1e160), rel=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(1, 5),
        log_norm=st.floats(-100.0, 100.0),
        ratio=st.floats(0.2, 5.0),
        angle=st.sampled_from([0.0, 1e-14, 1e-7, 0.5, 3.0]),
        c=st.floats(-3.0, 3.0),
        log_h=st.floats(-2.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_decimal_reference_at_norms_up_to_1e100(self, d, log_norm, ratio, angle, c, log_h, seed):
        # pairs of any norm up to 1e100, parallel to far apart; the exponent's rounding grows with |log K|
        u, e = np.random.default_rng(seed).standard_normal((2, d))
        x = u * (10.0**log_norm / np.linalg.norm(u))
        x2 = (u + angle * e) * (ratio * 10.0**log_norm / np.linalg.norm(u))
        params = RbfParams(center=c, width=10.0**log_h)
        k = kernel_closed(x, x2, params)
        want = _kernel_decimal(x, x2, params)
        if want > 1e-290:  # clear of the subnormal range
            assert abs(k - want) <= 1e-13 * (1.0 + abs(math.log(k))) * want

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
        x2=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
        c=st.floats(allow_nan=False, allow_infinity=False),
        h=st.floats(min_value=basis.MIN_WIDTH, allow_infinity=False),  # every width RbfParams accepts
    )
    def test_finite_inputs_give_a_symmetric_value_in_range(self, x, x2, c, h):
        params = RbfParams(center=c, width=h)
        k = kernel_closed(np.array(x), np.array(x2), params)
        assert 0.0 <= k <= 1.0
        assert k.hex() == kernel_closed(np.array(x2), np.array(x), params).hex()

    def test_at_origin_is_one(self):
        for d in (1, 2, 5):
            assert kernel_closed(np.zeros(d), np.zeros(d), UNIT) == 1.0

    def test_unit_orthogonal_pair(self):
        x = np.array([1.0, 0.0])
        x2 = np.array([0.0, 1.0])
        assert kernel_closed(x, x2, UNIT) == pytest.approx(0.5, abs=1e-15)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = rng.integers(1, 6)
            x = rng.standard_normal(d) * rng.uniform(0.1, 3)
            x2 = rng.standard_normal(d) * rng.uniform(0.1, 3)
            params = RbfParams(center=rng.uniform(-2, 2), width=rng.uniform(0.3, 2))
            v = kernel_closed(x, x2, params)
            assert 0.0 < v <= 1.0
        # the value here is below the smallest double, so it underflows to 0.0: the range is [0, 1]
        assert kernel_closed(np.array([1.0756]), np.array([-1.2681]), RbfParams(center=1.968, width=0.0501)) == 0.0

    @pytest.mark.parametrize("d", [1, 2, 5, 16])
    def test_symmetry_machine_precision(self, d):
        rng = np.random.default_rng(10 + d)
        params = RbfParams(center=0.7, width=0.9)
        for _ in range(250):
            x = rng.standard_normal(d)
            x2 = rng.standard_normal(d)
            assert kernel_closed(x, x2, params) == kernel_closed(x2, x, params)

    def test_rejects_non_finite_input(self):
        with pytest.raises(ValueError):
            kernel_closed(np.array([np.inf, 0.0]), np.array([1.0, 0.0]), UNIT)
        with pytest.raises(ValueError):
            kernel_closed(np.array([np.nan]), np.array([1.0]), UNIT)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            kernel_closed(np.zeros(2), np.zeros(3), UNIT)

    def test_gram_matrix_positive_semidefinite(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((20, 3))
        params = RbfParams(center=1.0, width=1.0)
        gram = np.array([[kernel_closed(p, q, params) for q in pts] for p in pts])
        assert np.linalg.eigvalsh(gram).min() >= -1e-8

    def test_matches_quadrature_off_the_sphere(self):
        # the exponent's rounding grows with its size, so the bound grows with |log K|
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(5000):
            d = int(rng.integers(1, 8))
            x, x2 = rng.standard_normal((2, d))
            params = RbfParams(center=float(rng.uniform(-3, 3)), width=float(rng.uniform(0.05, 3)))
            k = kernel_closed(x, x2, params)
            if k < 1e-290:  # near the subnormal range
                continue
            rel = abs(_kernel_by_quadrature(x, x2, params) - k) / k
            worst = max(worst, rel / (1.0 + abs(math.log(k))))
        assert worst <= 1e-13

    def test_monte_carlo_oracle_agreement(self):
        # light version of the acceptance check: generic (non-unit) pairs
        rng = np.random.default_rng(42)
        params = RbfParams(center=1.0, width=1.0)
        for _ in range(3):
            x = rng.standard_normal(2)
            x2 = rng.standard_normal(2)
            est = kernel_mc(x, x2, params, 200_000, seed=int(rng.integers(2**31)))
            assert abs(kernel_closed(x, x2, params) - est.mean) <= 4.0 * est.stderr

    def test_example_pair_against_oracle(self):
        x = np.array([1.0, 0.0])
        x2 = np.array([0.6, 0.8])
        est = kernel_mc(x, x2, SHIFTED, 1_000_000, seed=123)
        assert abs(kernel_closed(x, x2, SHIFTED) - est.mean) <= 4.0 * est.stderr


class TestKernelRot:
    def test_center_zero_values(self):
        assert kernel_rot(0.0, UNIT) == pytest.approx(0.5, abs=1e-16)
        assert kernel_rot(1.0, UNIT) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)

    def test_shifted_center_value(self):
        # cross-checked against the Monte-Carlo oracle on unit orthogonal vectors
        assert kernel_rot(0.0, SHIFTED) == pytest.approx(0.5 * math.exp(-0.5), abs=1e-15)
        est = kernel_mc(np.array([1.0, 0.0]), np.array([0.0, 1.0]), SHIFTED, 1_000_000, seed=7)
        assert abs(kernel_rot(0.0, SHIFTED) - est.mean) <= 4.0 * est.stderr

    def test_domain_error_outside_unit_interval(self):
        with pytest.raises(ValueError):
            kernel_rot(1.0000001, UNIT)
        with pytest.raises(ValueError):
            kernel_rot(-1.1, UNIT)

    @pytest.mark.parametrize(
        "fn", [kernel_rot, lambda r, params: kernel_taylor(r, params, 20)], ids=["kernel_rot", "kernel_taylor"]
    )
    def test_rounding_overshoot_clamped_to_unit_interval(self, fn):
        eps = np.finfo(float).eps
        assert fn(1.0 + 2 * eps, SHIFTED) == fn(1.0, SHIFTED)
        assert fn(-1.0 - 2 * eps, SHIFTED) == fn(-1.0, SHIFTED)
        with pytest.raises(ValueError):
            fn(1.0 + 8 * eps, SHIFTED)

    @pytest.mark.parametrize("r", [-0.5, 0.0, 0.7])
    @pytest.mark.parametrize("c,h", [(0.0, 1.0), (1.0, 0.5)])
    def test_against_quadrature_oracle(self, r, c, h):
        # independent of both the closed form and the Monte-Carlo path: for a
        # unit-norm pair with inner product r, the pre-activations are
        # bivariate normal with correlation r, so the kernel is a 2-d integral
        from scipy import integrate

        def integrand(up, u):
            rho2 = 1.0 - r * r
            dens = math.exp(-(u * u - 2 * r * u * up + up * up) / (2 * rho2))
            dens /= 2 * math.pi * math.sqrt(rho2)
            bumps = math.exp(-((u - c) ** 2) / (2 * h * h)) * math.exp(-((up - c) ** 2) / (2 * h * h))
            return bumps * dens

        want, quad_err = integrate.dblquad(integrand, -9, 9, -9, 9, epsabs=1e-12, epsrel=1e-12)
        got = kernel_rot(r, RbfParams(center=c, width=h))
        assert abs(got - want) <= 1e-10 + 10 * quad_err

    @settings(max_examples=200, deadline=None)
    @given(
        r=st.floats(-1.0, 1.0),
        c=st.floats(-2.0, 2.0),
        h=st.floats(0.3, 2.0),
        d=st.integers(2, 6),
        seed=st.integers(0, 2**31 - 1),
    )
    # rounding makes x @ x2 = 1.0000000000000004 here
    @example(r=1.0, c=1.0, h=0.5, d=3, seed=0)
    def test_reduces_closed_form_on_unit_sphere(self, r, c, h, d, seed):
        # build a unit-norm pair with inner product exactly r
        rng = np.random.default_rng(seed)
        basis = np.linalg.qr(rng.standard_normal((d, 2)))[0]
        x = basis[:, 0]
        x2 = r * basis[:, 0] + math.sqrt(max(0.0, 1.0 - r * r)) * basis[:, 1]
        params = RbfParams(center=c, width=h)
        got = kernel_closed(x, x2, params)
        want = kernel_rot(float(x @ x2), params)
        assert got == pytest.approx(want, abs=1e-12)


class TestKernelMc:
    def test_constant_integrand(self):
        est = kernel_mc(np.zeros(2), np.zeros(2), UNIT, 10_000, seed=0)
        assert est.mean == 1.0
        assert est.stderr == 0.0
        assert est.samples == 10_000

    def test_deterministic_for_fixed_seed(self):
        x = np.array([1.0, 0.0])
        a = kernel_mc(x, x, UNIT, 50_000, seed=9)
        b = kernel_mc(x, x, UNIT, 50_000, seed=9)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_self_consistency_with_closed_form(self):
        x = np.array([1.0, 0.0])
        est = kernel_mc(x, x, UNIT, 1_000_000, seed=5)
        assert abs(est.mean - kernel_closed(x, x, UNIT)) <= 4.0 * est.stderr

    def test_two_seeds_agree_within_noise(self):
        x = np.array([1.0, 0.0])
        x2 = np.array([0.6, 0.8])
        a = kernel_mc(x, x2, SHIFTED, 200_000, seed=1)
        b = kernel_mc(x, x2, SHIFTED, 200_000, seed=2)
        assert a.mean != b.mean
        assert abs(a.mean - b.mean) <= 4.0 * math.hypot(a.stderr, b.stderr)

    def test_stderr_shrinks_with_samples(self):
        x = np.array([0.5, 0.5])
        x2 = np.array([1.0, -0.2])
        small = kernel_mc(x, x2, UNIT, 10_000, seed=3)
        large = kernel_mc(x, x2, UNIT, 1_000_000, seed=3)
        ratio = small.stderr / large.stderr
        assert 7.0 <= ratio <= 14.0  # expect ~sqrt(100) = 10

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            kernel_mc(np.zeros(2), np.zeros(2), UNIT, 1, seed=0)

    @pytest.mark.parametrize("samples", [1000.5, True, 1, np.int64(1)], ids=["fraction", "bool", "one", "numpy-one"])
    def test_samples_checked_as_a_count(self, samples):
        # 1000.5 raised TypeError from range inside mc_mean, and True read "got True" in the old message
        with pytest.raises(ValueError, match="samples must be an integer >= 2"):
            kernel_mc(np.ones(2), np.zeros(2), UNIT, samples, 1)

    @pytest.mark.parametrize(
        "pair",
        [
            lambda x: (np.zeros(3), x),
            lambda x: (x, 2.0 * x),
            lambda x: (x, -x),
            lambda x: (x[:1], x[1:2]),
            lambda x: tuple(np.random.default_rng(17).standard_normal((2, 100)) / 5.0),
        ],
        ids=["x_zero", "x2_twice_x", "x2_minus_x", "d_1", "d_100"],
    )
    def test_span_draws_match_closed_form_at_the_edges(self, pair):
        # the 2-dim span of the pair loses nothing: a zero, a parallel or a 1-dim pair included
        x, x2 = pair(np.array([0.8, -0.5, 0.3]))
        est = kernel_mc(x, x2, SHIFTED, 100_000, seed=11)
        assert est.stderr > 0
        assert abs(kernel_closed(x, x2, SHIFTED) - est.mean) <= 4.0 * est.stderr

    def test_draws_live_in_the_span_at_d_100(self, monkeypatch):
        # chunks of CHUNK_CELLS // (1 row + 2 dims) draws, not // (1 + 100): the draws are (n, 2)
        shapes = []

        def bump(u, c, h):
            shapes.append(u.shape)
            return bumps(u, c, h)

        monkeypatch.setattr(kernel, "bumps", bump)
        x, x2 = np.random.default_rng(17).standard_normal((2, 100))
        kernel_mc(x, x2, UNIT, 100_000, seed=11)
        step = basis.CHUNK_CELLS // 3
        assert shapes == [(step,), (step, 1), (100_000 - step,), (100_000 - step, 1)]


class TestTaylorDerivs:
    def test_values_at_p_zero(self):
        y = taylor_derivs(0.0, 4)
        assert y.tolist() == [1.0, 0.0, 1.0, 0.0, 9.0]

    def test_second_derivative_vanishes_at_one(self):
        assert taylor_derivs(1.0, 2)[2] == 0.0

    def test_third_derivative_at_two(self):
        y = taylor_derivs(2.0, 3)
        assert y[3] == pytest.approx(2.0 * (2.0 - 3.0) ** 2 * math.exp(-2.0), rel=1e-14)

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0, 5.0])
    def test_recurrence_matches_closed_form(self, p):
        y = taylor_derivs(p, 16)
        ep = math.exp(-p)
        for n in range(17):
            closed = ep * r_n(p, n)
            denom = max(abs(closed), abs(y[n]))
            if denom == 0:
                assert y[n] == closed
            else:
                assert abs(y[n] - closed) / denom <= 1e-8

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            taylor_derivs(-1.0, 5)
        with pytest.raises(ValueError):
            taylor_derivs(1.0, 1)

    def test_odd_orders_vanish_at_p_zero_past_float_cancellation(self):
        # in floats the recurrence's terms near (19!!)^2 lost their exact cancellation: -1024 at n = 21
        y = taylor_derivs(0.0, 100)
        assert y[1::2].tolist() == [0.0] * 50
        assert y[20] == float(math.prod(range(1, 20, 2)) ** 2)

    @pytest.mark.parametrize("p", [0.0, 0.014, 0.1, 0.75, 5.0, 171.0, 700.0])
    def test_each_order_is_its_closed_form_rounded_once(self, p):
        y = taylor_derivs(p, 171)
        assert np.all(np.isfinite(y))
        assert y.tolist() == [taylor_deriv(p, n) for n in range(172)]

    def test_order_172_is_past_the_doubles_at_p_zero(self):
        # ((171)!!)^2 > 1.8e308: the taylor-verify config stops n_max at 171
        with pytest.raises(OverflowError):
            taylor_derivs(0.0, 172)


# Exact coefficient vectors (constant term first) of the low-order
# derivative polynomials, frozen from the explicit derivative listing.
P_EXPECTED = {
    0: [1],
    1: [-1, 1],
    2: [3, -6, 1],
    3: [-15, 45, -15, 1],
    4: [105, -420, 210, -28, 1],
}
Q_EXPECTED = {
    0: [1],
    1: [-3, 1],
    2: [15, -10, 1],
    3: [-105, 105, -21, 1],
}
# The same derivatives in expanded form: R_n coefficient vectors for n <= 8.
R_EXPECTED = {
    0: [1],
    1: [0, 1],
    2: [1, -2, 1],
    3: [0, 9, -6, 1],
    4: [9, -36, 42, -12, 1],
    5: [0, 225, -300, 130, -20, 1],
    6: [225, -1350, 2475, -1380, 315, -30, 1],
    7: [0, 11025, -22050, 15435, -4620, 651, -42, 1],
    8: [11025, -88200, 220500, -182280, 67830, -12600, 1204, -56, 1],
}


def _expand_r(n: int) -> list[int]:
    """Integer expansion of the squared-polynomial form of the n-th derivative."""
    if n % 2 == 0:
        coeffs = poly_P(n // 2)
        prod = np.convolve(np.array(coeffs, dtype=object), np.array(coeffs, dtype=object))
        return list(prod)
    coeffs = poly_Q((n - 1) // 2)
    prod = np.convolve(np.array(coeffs, dtype=object), np.array(coeffs, dtype=object))
    return [0] + list(prod)


class TestPolynomials:
    @pytest.mark.parametrize("k,expected", sorted(P_EXPECTED.items()))
    def test_poly_p_exact(self, k, expected):
        assert poly_P(k) == expected

    @pytest.mark.parametrize("k,expected", sorted(Q_EXPECTED.items()))
    def test_poly_q_exact(self, k, expected):
        assert poly_Q(k) == expected

    @pytest.mark.parametrize("n", sorted(R_EXPECTED))
    def test_expanded_derivative_polynomials(self, n):
        assert _expand_r(n) == R_EXPECTED[n]

    def test_monic_and_degree(self):
        for k in range(20):
            p = poly_P(k)
            q = poly_Q(k)
            assert len(p) == k + 1 and p[-1] == 1
            assert len(q) == k + 1 and q[-1] == 1

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            poly_P(-1)
        with pytest.raises(ValueError):
            poly_Q(-2)

    def test_large_k_is_exact(self):
        # arbitrary-precision integers: spot-check the constant term identity
        k = 40
        assert abs(poly_P(k)[0]) == math.prod(range(1, 2 * k, 2))
        assert abs(poly_Q(k)[0]) == math.prod(range(1, 2 * k + 2, 2))


class TestRn:
    def test_constant_for_n_zero(self):
        for p in (0.0, 0.3, 2.7):
            assert r_n(p, 0) == 1.0

    def test_odd_vanishes_at_zero(self):
        assert r_n(0.0, 1) == 0.0
        assert r_n(0.0, 7) == 0.0

    def test_hand_evaluated_example(self):
        # P_2(3) = 9 - 18 + 3 = -6, squared
        assert r_n(3.0, 4) == 36.0

    def test_nonnegative(self):
        for p in np.linspace(0.0, 6.0, 25):
            for n in range(17):
                assert r_n(float(p), n) >= 0.0

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            r_n(1.0, -1)


class TestKernelTaylor:
    def test_single_term_center_zero(self):
        for r in (-1.0, -0.3, 0.0, 0.8, 1.0):
            assert kernel_taylor(r, UNIT, 1) == 0.5

    def test_r_zero_equals_closed_exactly(self):
        for params in (UNIT, SHIFTED, RbfParams(center=2.0, width=0.7)):
            for n_terms in (1, 5, 40):
                assert kernel_taylor(0.0, params, n_terms) == kernel_rot(0.0, params)

    def test_sixty_terms_resolve_width_one(self):
        params = RbfParams(center=1.0, width=1.0)
        assert abs(kernel_taylor(1.0, params, 60) - kernel_rot(1.0, params)) <= 1e-8

    @pytest.mark.parametrize("h", [0.5, 1.0])
    @pytest.mark.parametrize("c", [0.0, 1.0, 2.0])
    def test_converges_with_enough_terms(self, h, c):
        # 80 terms resolve h >= 0.5 below 1e-8 over the whole grid; at the
        # spec's 60-term default the h = 0.5 endpoints still sit near 8.5e-8
        # truncation error (see the acceptance suite), so the cap here is 80.
        params = RbfParams(center=c, width=h)
        for r in np.linspace(-1.0, 1.0, 101):
            err = abs(kernel_taylor(float(r), params, 80) - kernel_rot(float(r), params))
            assert err <= 1e-8

    def test_partial_sums_cauchy(self):
        params = RbfParams(center=1.0, width=0.5)
        for r in (-1.0, -0.5, 0.5, 1.0):
            sums = [kernel_taylor(r, params, n) for n in (40, 60, 80, 100)]
            gaps = [abs(b - a) for a, b in zip(sums, sums[1:])]
            assert gaps[0] >= gaps[1] >= gaps[2] or gaps[2] <= 1e-12

    @pytest.mark.parametrize("n_terms", [200, 400])
    def test_long_series_stay_finite(self, n_terms):
        # the exact integer coefficients outgrow float range near 200 terms;
        # the scaled coefficients must not
        params = RbfParams(center=1.0, width=0.5)
        for r in (-1.0, -0.5, 0.5, 1.0):
            assert abs(kernel_taylor(r, params, n_terms) - kernel_rot(r, params)) <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kernel_taylor(1.5, UNIT, 10)
        with pytest.raises(ValueError):
            kernel_taylor(0.5, UNIT, 0)
