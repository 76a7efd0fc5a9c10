"""Synthetic regression targets and dataset generation.

A target is f(x) = calib * E_w[sigma(w.x) max(b1.w, b2.w)] with w standard
Gaussian and sigma one of three compactly supported sine bumps
(SIGMA_KINDS).  The expectation reduces to one integral over the Gaussian
t = w.x/|x|, which expected_max_quadrature evaluates to rounding, so the
target is an exact deterministic function of x.  mc_expected_max is the
Monte-Carlo estimate of the same expectation, by the package's one streamed
estimator basis.mc_mean; cross_check holds the quadrature against it at
fixed points, as an independent oracle.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import basis

__all__ = [
    "SIGMA_KINDS",
    "TargetSpec",
    "Dataset",
    "sigma_eval_array",
    "gauss_legendre",
    "expected_max_quadrature",
    "mc_expected_max",
    "CrossCheck",
    "cross_check",
    "TargetSampler",
    "calibrate",
    "holdout_size",
    "gen_dataset",
]

# Ends of the pieces on which each sigma is smooth; it is 0 outside the first and last.
SIGMA_KNOTS = {"s1": (-1.0, 1.0), "s2": (0.0, 1.0), "s3": (-1.5, -0.5, 0.5, 1.5)}
SIGMA_KINDS = tuple(SIGMA_KNOTS)

# The quadrature covers |t| <= 9: the Gaussian mass beyond is below 1e-18.
_T_MAX = 9.0
# Gauss-Legendre nodes per piece: 256 agree with 64 within 1e-11 (tests/test_data.py).
_NODES = 64
# Float (rows, nodes) arrays alive at once in one quadrature piece, rounded
# up: 11 at the erfc call (t, sigma, t delta, a, Phi, erfc's values, and its
# arguments as a list of Python floats at 4 cells each), 6 inside sigma_eval_array.
_QUAD_TEMPS = 16
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# cross_check's bound on |exact - Monte Carlo| in standard errors.  At 4, one
# of its 64 points would fail on about 1 seed in 250.
CHECK_STDERRS = 5.0


def sigma_eval_array(kind: str, z: np.ndarray) -> np.ndarray:
    """Vectorized activation with exact zeros outside the stated support.

    The sine is only evaluated on the in-support entries; everything else
    stays an exact 0.0.
    """
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    if kind == "s1":
        m = np.abs(z) <= 1.0
        out[m] = np.sin(np.pi * z[m])
    elif kind == "s2":
        m = (z >= 0.0) & (z <= 1.0)
        out[m] = np.sin(np.pi * z[m])
    elif kind == "s3":
        m = (z >= -1.5) & (z <= -0.5)
        out[m] = -np.sin(np.pi * (z[m] + 0.5))
        m = (z >= 0.5) & (z <= 1.5)
        out[m] = np.sin(np.pi * (z[m] - 0.5))
    else:
        raise ValueError(f"unknown sigma kind {kind!r}; expected one of {SIGMA_KINDS}")
    return out


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n from the guesses -cos(pi (k - 1/4) / (n + 1/2)),
    with P_n and P_n' from the three-term recurrence; computed on first use.
    """

    def legendre(x):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    x = -np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(10):
        p, dp = legendre(x)
        x = x - p / dp
    dp = legendre(x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def expected_max_quadrature(X, sigma, support, knots, b1, b2, scale: float = 1.0) -> np.ndarray:
    """scale * E_w[sigma(w.x) max(b1.w, b2.w)], w ~ N(0, I), at each row x of X, each from its row alone.

    With u = x/|x| and t = w.u ~ N(0, 1), b1.w - b2.w given t is Gaussian
    with mean t delta and standard deviation theta, where delta = (b1-b2).u
    and theta = |(b1-b2) - delta u|.  So Clark's formula for the maximum of
    two Gaussians gives E[max | t] = t beta2 + t delta Phi(a) + theta phi(a),
    a = t delta / theta and beta2 = b2.u, or max(t beta1, t beta2) when
    theta = 0.  That is integrated against sigma(|x| t) phi(t) over |t| <= 9
    with the _NODES-point Gauss-Legendre rule on each piece between sigma's
    knots (at z = |x| t), t = 0 and t = +-{1, 4, 16} theta/|delta|, where
    E[max | t] bends sharply as theta/|delta| shrinks.  At x = 0 the value is
    scale sigma(0) |b1 - b2| / sqrt(2 pi).

    sigma maps an array of z, which it may overwrite, to sigma(z); it must
    be smooth between knots and vanish outside support = (lo, hi).
    """
    X = np.asarray(X, dtype=float)
    b1, b2 = np.asarray(b1, dtype=float), np.asarray(b2, dtype=float)
    r = np.sqrt(basis.row_dot(X, X))
    out = np.empty(X.shape[0])
    rule = gauss_legendre(_NODES)
    step = max(1, basis.CHUNK_CELLS // (_QUAD_TEMPS * _NODES))
    for lo in range(0, X.shape[0], step):
        rows = slice(lo, lo + step)
        out[rows] = _quadrature_rows(X[rows], r[rows], sigma, support, knots, b1, b2, *rule)
    out[r == 0] = sigma(np.zeros(1))[0] * math.sqrt(float((b1 - b2) @ (b1 - b2))) / _SQRT_2PI
    return scale * out


def _quadrature_rows(X, r, sigma, support, knots, b1, b2, xs, ws) -> np.ndarray:
    """E_w[sigma(w.x) max(b1.w, b2.w)] at rows x = X with norms r; see expected_max_quadrature."""
    r = np.where(r > 0, r, 1.0)  # x = 0 is set by the caller
    u = X / r[:, None]
    db = b1 - b2
    delta, beta2 = basis.row_dot(u, db), basis.row_dot(u, b2)
    perp = db - delta[:, None] * u
    theta = np.sqrt(basis.row_dot(perp, perp))
    slope = delta / np.where(theta > 0, theta, np.inf)  # a = t slope
    bend = np.divide(theta, np.abs(delta), out=np.full_like(theta, np.inf), where=delta != 0)
    t_lo = np.maximum(support[0] / r, -_T_MAX)
    t_hi = np.maximum(np.minimum(support[1] / r, _T_MAX), t_lo)
    ends = [t_lo, t_hi, np.zeros_like(r), *(k * bend for k in (-16, -4, -1, 1, 4, 16)), *(c / r for c in knots)]
    ends = np.sort(np.clip(np.column_stack(ends), t_lo[:, None], t_hi[:, None]), axis=1)
    params = np.column_stack([r, delta, slope, theta, beta2])
    acc = np.zeros(X.shape[0])
    for j in range(ends.shape[1] - 1):
        half = 0.5 * (ends[:, j + 1] - ends[:, j])
        p = np.flatnonzero(half > 0)  # rows whose piece j is not empty
        h = half[p, None]
        r_p, delta_p, slope_p, theta_p, beta2_p = params[p].T[:, :, None]
        t = (ends[p, j, None] + h) + h * xs
        sig = sigma(r_p * t)
        td = t * delta_p
        a = t * slope_p
        cdf = np.where(td > 0, 1.0, 0.0)  # Phi(a) as theta -> 0
        live = (sig != 0) & (theta_p > 0)
        args = (a[live] * -math.sqrt(0.5)).tolist()
        cdf[live] = 0.5 * np.fromiter(map(math.erfc, args), float, len(args))
        g = basis.bumps(a, 0.0, 1.0)
        g *= theta_p / _SQRT_2PI
        td *= cdf
        g += td
        g += t * beta2_p
        g *= sig
        g *= basis.bumps(t, 0.0, 1.0)
        acc[p] += half[p] * basis.row_dot(g, ws)
    return acc / _SQRT_2PI


def mc_expected_max(seed, n: int, X: np.ndarray, sigma, b1, b2, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo mean and standard error of scale * sigma(w.x) max(b1.w, b2.w) at each row x of X.

    basis.mc_mean over n draws w ~ N(0, I) from default_rng(seed), in chunks
    of basis.CHUNK_CELLS cells; sigma is as in expected_max_quadrature.
    """
    return basis.mc_mean(seed, n, X, sigma, lambda w: scale * np.maximum(w @ b1, w @ b2))


@dataclass(frozen=True)
class CrossCheck:
    """Exact values against a Monte-Carlo estimate at the check points."""

    samples: int  # Monte-Carlo draws
    points: int
    failures: int  # points where |exact - mean| > CHECK_STDERRS standard errors
    worst: float  # largest |exact - mean| / standard error

    @property
    def ok(self) -> bool:
        return self.failures == 0


def cross_check(exact, seed, n: int, sigma, b1, b2, scale: float) -> CrossCheck:
    """exact(X) against mc_expected_max(seed, n, X, sigma, b1, b2, scale) at 64 fixed points X.

    The points are 16 unit directions from a fixed stream, each at radii 0.5, 1, 2 and 3.
    """
    u = np.random.default_rng(0xC4EC).standard_normal((16, np.asarray(b1).shape[0]))
    u /= np.sqrt(basis.row_dot(u, u))[:, None]
    X = np.concatenate([radius * u for radius in (0.5, 1.0, 2.0, 3.0)])
    mean, stderr = mc_expected_max(seed, n, X, sigma, b1, b2, scale)
    gap = np.abs(exact(X) - mean)
    z = np.divide(gap, stderr, out=np.where(gap > 0, np.inf, 0.0), where=stderr > 0)
    return CrossCheck(samples=n, points=X.shape[0], failures=int(np.sum(z > CHECK_STDERRS)), worst=float(z.max()))


@dataclass(frozen=True)
class TargetSpec:
    """Recipe for one synthetic target function.

    mc_samples and seed set the Monte-Carlo draws of the target's cross-check.
    """

    sigma_kind: str
    b1: np.ndarray
    b2: np.ndarray
    calib: float = 1.0
    mc_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.sigma_kind not in SIGMA_KINDS:
            raise ValueError(f"unknown sigma kind {self.sigma_kind!r}; expected one of {SIGMA_KINDS}")
        b1 = np.asarray(self.b1, dtype=float)
        b2 = np.asarray(self.b2, dtype=float)
        if b1.ndim != 1 or b1.shape != b2.shape:
            raise ValueError("b1 and b2 must be vectors of equal length")
        if not (np.all(np.isfinite(b1)) and np.all(np.isfinite(b2))):
            raise ValueError("b1 and b2 must be finite")
        if np.array_equal(b1, b2):
            raise ValueError("b1 and b2 must differ")
        if self.mc_samples < 1000:
            raise ValueError(f"mc_samples must be at least 1000, got {self.mc_samples}")
        if not math.isfinite(self.calib):
            raise ValueError("calib must be finite")
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "b2", b2)

    @property
    def dim(self) -> int:
        return self.b1.shape[0]

    def sigma(self, z: np.ndarray) -> np.ndarray:
        return sigma_eval_array(self.sigma_kind, z)

    def with_calib(self, calib: float) -> "TargetSpec":
        return dataclasses.replace(self, calib=calib)


class TargetSampler:
    """A target spec's values, exact by quadrature, and their Monte-Carlo cross-check."""

    def __init__(self, spec: TargetSpec):
        self.spec = spec

    def means(self, X: np.ndarray) -> np.ndarray:
        """Target values at the rows of X, each a function of its own row alone."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.spec.dim:
            raise ValueError(f"X has shape {X.shape}, expected (n, {self.spec.dim})")
        s, knots = self.spec, SIGMA_KNOTS[self.spec.sigma_kind]
        return expected_max_quadrature(X, s.sigma, (knots[0], knots[-1]), knots, s.b1, s.b2, s.calib)

    def cross_check(self) -> CrossCheck:
        """means against spec.mc_samples draws from default_rng(spec.seed) at the check points."""
        s = self.spec
        return cross_check(self.means, s.seed, s.mc_samples, s.sigma, s.b1, s.b2, s.calib)


def calibrate(spec: TargetSpec, n_points: int = 10_000) -> float:
    """Scale factor making the mean absolute target value 1.

    Requires calib = 1 on input.  Averages the exact target values
    (TargetSampler.means) over n_points Gaussian points drawn from a stream
    derived from (but independent of) the spec seed; deterministic per seed.
    """
    if spec.calib != 1.0:
        raise ValueError(f"calibrate expects a spec with calib = 1, got {spec.calib}")
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    sampler = TargetSampler(spec)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0x5CA1E]))
    pts = rng.standard_normal((n_points, spec.dim))
    mean_abs = float(np.mean(np.abs(sampler.means(pts))))
    if mean_abs < 1e-8:
        raise ValueError(f"degenerate target: mean |f| = {mean_abs} at calib 1")
    return 1.0 / mean_abs


@dataclass(frozen=True)
class Dataset:
    """Synthetic regression data with its train/test split."""

    X: np.ndarray
    y: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        if self.X.ndim != 2:
            raise ValueError(f"X must be a 2-D array, got shape {self.X.shape}")
        n = self.X.shape[0]
        if self.y.shape != (n,):
            raise ValueError("y length must match X rows")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise ValueError("X and y must be finite")
        joined = np.concatenate([self.train_idx, self.test_idx])
        if not np.issubdtype(joined.dtype, np.integer) or np.any((joined < 0) | (joined >= n)):
            raise ValueError(f"train and test indices must be integers in [0, {n})")
        if np.unique(joined).shape[0] != n or joined.shape[0] != n:
            raise ValueError("train and test indices must partition the rows")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def holdout_size(n: int, test_fraction: float) -> int:
    """Rows gen_dataset puts in the test split: round(n * test_fraction), in [1, n-1]."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    return min(max(int(round(n * test_fraction)), 1), n - 1)


def gen_dataset(
    spec: TargetSpec,
    n: int,
    d: int,
    test_fraction: float,
    seed: int,
) -> Dataset:
    """Draw Gaussian inputs, label them with the exact target values, split by permutation."""
    if d != spec.dim:
        raise ValueError(f"requested dim {d} does not match spec dim {spec.dim}")
    n_test = holdout_size(n, test_fraction)
    rng_x = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    rng_split = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    X = rng_x.standard_normal((n, d))
    y = TargetSampler(spec).means(X)
    perm = rng_split.permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return Dataset(X=X, y=y, train_idx=train_idx, test_idx=test_idx)
