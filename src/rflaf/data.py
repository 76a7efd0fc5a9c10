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

# Each sigma is sign * sin(pi (z - shift)) on its closed pieces [lo, hi], as
# (lo, hi, sign, shift), and 0 elsewhere.
SIGMA_PIECES = {
    "s1": ((-1.0, 1.0, 1.0, 0.0),),
    "s2": ((0.0, 1.0, 1.0, 0.0),),
    "s3": ((-1.5, -0.5, -1.0, -0.5), (0.5, 1.5, 1.0, 0.5)),
}
SIGMA_KINDS = tuple(SIGMA_PIECES)
# Ends of the pieces on which each sigma is smooth; it is 0 outside the first and last.
SIGMA_KNOTS = {kind: tuple(sorted({e for piece in pieces for e in piece[:2]})) for kind, pieces in SIGMA_PIECES.items()}

# The quadrature covers |t| <= 9: the Gaussian mass beyond is below 1e-18.
_T_MAX = 9.0
# Gauss-Legendre nodes per piece: 256 agree with 32 within 1e-11
# (tests/test_data.py; 7.7e-13 at worst over 3,000 of its random draws).  32
# are enough only with the fixed piece ends at t = +-3: without them the
# same draws reached 4.4e-11 on a full-line bump sigma.
_NODES = 32
# Float (pieces, nodes) arrays alive at once in one batch of pieces, rounded
# up: about 11 at the Phi call (t, sigma, t delta, a, g, Phi's output, and
# _normal_cdf's copies of each form's elements), fewer at the sigma call, and
# the row chunk's per-row arrays (ends, half, parts, the piece indices), 2-3
# at 512 rows.  tracemalloc's peak was 11.2-15.2 over s1, s2, s3 and the rate
# study's bump sigma.  So a batch of basis.chunk_rows(_QUAD_TEMPS * _NODES)
# pieces, 512 at 32 nodes, keeps its temporaries within CHUNK_CELLS; a row
# chunk has as many rows.
_QUAD_TEMPS = 16
# A node as the row split counts them (each of a row's 10 + len(knots)
# pieces at _NODES nodes, empty pieces included) took 8.5-24 ns over 10,000
# Gaussian rows of s1, s2 and s3 on a 2-core Xeon VM, against 8 ns per bump
# of the banded kernel with H: 1.1-3.0 bumps, rounded up to give its work in
# basis.SPLIT_CELLS' unit.  (The rate study's bump sigma took 38-42 ns.)
_NODE_BUMPS = 4
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# _normal_cdf's series: for |a| <= 1, Phi(a) = 1/2 + a (1/sqrt(2 pi) + sum_k c_k a^2k), the Taylor series,
# with c_k = (-1)^k / (sqrt(2 pi) 2^k k! (2k + 1)) for k = 1..15 here, highest first; the first term left out is
# below 1e-19 of Phi.  1/sqrt(2 pi) is its leading 27 bits, whose product with a float32 is exact, plus the rest,
# rounded from a 40-digit value.
_SERIES = tuple((-1) ** k / (_SQRT_2PI * 2**k * math.factorial(k) * (2 * k + 1)) for k in range(15, 0, -1))
_RSQRT_2PI_HI = 107090253 / 2**28
_RSQRT_2PI_LO = -1.5929920987743676e-10
# Cody's erfc(y) = exp(-y^2) R(y), as in his CALERF (W. J. Cody, Math. Comp. 23 (1969) 631-637): numerator and
# denominator of R on y in [0.46875, 4], highest power first; beyond 4,
# R = (1/sqrt(pi) - z N(z)/D(z)) / y with z = 1/y^2.
_ERFC_MID = (
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
     2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03, 2.05107837782607147e03,
     1.23033935479799725e03),
    (1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02, 1.62138957456669019e03,
     3.29079923573345963e03, 4.36261909014324716e03, 3.43936767414372164e03, 1.23033935480374942e03),
)
_ERFC_FAR = (
    (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
     1.60837851487422766e-2, 6.58749161529837803e-4),
    (1.0, 2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1, 6.05183413124413191e-2,
     2.33520497626869185e-3),
)
_RSQRT_PI = 5.6418958354775628695e-1  # 1/sqrt(pi)

# cross_check's bound on |exact - Monte Carlo| in standard errors.  At 4, one
# of its 64 points would fail on about 1 seed in 250.
CHECK_STDERRS = 5.0


def sigma_eval_array(kind: str, z: np.ndarray) -> np.ndarray:
    """Vectorized activation with exact zeros outside the stated support.

    The sine is only evaluated on the in-support entries; everything else
    stays an exact 0.0.
    """
    if kind not in SIGMA_PIECES:
        raise ValueError(f"unknown sigma kind {kind!r}; expected one of {SIGMA_KINDS}")
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    for lo, hi, sign, shift in SIGMA_PIECES[kind]:
        m = (z >= lo) & (z <= hi)
        out[m] = sign * np.sin(np.pi * (z[m] - shift))
    return out


@functools.lru_cache(maxsize=None, typed=True)  # typed: True and 3.0 miss the entries of 1 and 3 and reach check_count
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n from the guesses -cos(pi (k - 1/4) / (n + 1/2)),
    with P_n and P_n' from the three-term recurrence; computed on first use.
    """
    basis.check_count("n", n, 1)

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
    knots (at z = |x| t), t = 0, t = +-3, where phi(t) turns from its
    bulk to its tails, and t = +-{1, 4, 16} theta/|delta|, where E[max | t]
    bends sharply as theta/|delta| shrinks.  At x = 0 the value is
    scale sigma(0) |b1 - b2| / sqrt(2 pi).

    sigma maps an array of z, which it may overwrite, to sigma(z); it must
    be smooth between knots and vanish outside support = (lo, hi).
    """
    X = np.asarray(X, dtype=float)
    b1, b2 = np.asarray(b1, dtype=float), np.asarray(b2, dtype=float)
    r = np.sqrt(basis.row_dot(X, X))
    out = np.zeros(X.shape[0])
    rule = gauss_legendre(_NODES)
    step = basis.chunk_rows(_QUAD_TEMPS * _NODES)

    def block(start, stop, dst):
        for lo in range(start, stop, step):
            rows = slice(lo, min(lo + step, stop))
            got = _quadrature_rows(X[rows], r[rows], sigma, support, knots, b1, b2, *rule)
            dst[0][lo - start : rows.stop - start] = got

    basis.split_rows(X.shape[0], block, (out,), (10 + len(knots)) * _NODES * _NODE_BUMPS)  # over a row's pieces
    out[r == 0] = sigma(np.zeros(1))[0] * math.sqrt(float(basis.row_dot(b1 - b2, b1 - b2))) / _SQRT_2PI
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
    ends = [t_lo, t_hi, *(np.full_like(r, t) for t in (-3.0, 0.0, 3.0))]
    ends += [*(k * bend for k in (-16, -4, -1, 1, 4, 16)), *(c / r for c in knots)]
    ends = np.sort(np.clip(np.column_stack(ends), t_lo[:, None], t_hi[:, None]), axis=1)
    half = 0.5 * np.diff(ends, axis=1)
    rows, pieces = np.nonzero(half > 0)  # the pieces that are not empty, row by row
    params = np.column_stack([r, delta, slope, theta, beta2])
    parts = np.zeros_like(half)
    step = basis.chunk_rows(_QUAD_TEMPS * _NODES)
    for lo in range(0, rows.shape[0], step):
        i, k = rows[lo : lo + step], pieces[lo : lo + step]
        h = half[i, k, None]
        r_p, delta_p, slope_p, theta_p, beta2_p = params[i].T[:, :, None]
        t = (ends[i, k, None] + h) + h * xs
        sig = sigma(r_p * t)
        td = t * delta_p
        a = t * slope_p
        g = basis.bumps(a.copy(), 0.0, 1.0)
        cdf = _normal_cdf(a, g)
        del a
        if not np.all(theta_p > 0):
            cdf = np.where(theta_p > 0, cdf, np.where(td > 0, 1.0, 0.0))  # the step: Phi(a) as theta -> 0
        g *= theta_p / _SQRT_2PI
        td *= cdf
        g += td
        g += t * beta2_p
        g *= sig
        g *= basis.bumps(t, 0.0, 1.0)
        parts[i, k] = half[i, k] * basis.row_dot(g, ws)
    acc = np.zeros(X.shape[0])
    for part in parts.T:  # each row's pieces in order
        acc += part
    return acc / _SQRT_2PI


def _horner(coefs, x: np.ndarray) -> np.ndarray:
    """sum_i coefs[i] x^(n - 1 - i), highest power first, by Horner's rule."""
    out = x * coefs[0]
    for c in coefs[1:-1]:
        out += c
        out *= x
    out += coefs[-1]
    return out


def _normal_cdf(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Phi(a), the standard normal cdf, at each element of a, given g = exp(-a^2/2) as basis.bumps(a, 0, 1) gives it.

    For |a| <= 1, Phi(a) = 1/2 + a S(a^2), the Taylor series (_SERIES),
    with the leading term a/sqrt(2 pi) and its sum with 1/2 carried exactly
    (a float32 split of a, and Fast2Sum).  Elsewhere, with y = |a|/sqrt(2),
    Phi(a) is erfc(y)/2 for a < 0 and 1 - erfc(y)/2 for a > 0, where
    erfc(y) = g R(y) and R is Cody's rational for y <= 4 (_ERFC_MID) or his
    asymptotic one beyond (_ERFC_FAR).  So Phi makes no exp of its own.  A
    boolean mask picks each element's form, which runs on those elements
    alone: every value is a function of its own a and g, and no form sees
    an element outside its range.  Phi(-inf) is 0, Phi(inf) is 1, and NaN
    gives NaN.

    Largest relative error against 40-digit values (mpmath.ncdf) at 10^6
    points over [-38.5, 8.3] where Phi is a normal float, and at 3 10^5
    draws from each of [-38.5, -32], [-5.66, -4] and [-0.7, 0.7]: 5.8e-14
    below a = -5.66, from the rounding of a^2 inside g; 2.1e-15 on
    [-5.66, -0.7]; and 1 ulp, 2^-52, above -0.7.  On the same grid the C
    library's erfc, as 0.5 erfc(-a/sqrt(2)), reaches 1.9e-13, 6.0e-15 and
    2.3e-16.
    """
    near = np.abs(a) <= 1.0
    cdf = np.empty_like(a)
    cdf[near] = _cdf_series(a[near])
    rest = ~near
    a, g = a[rest], g[rest]
    y = np.abs(a)
    y *= math.sqrt(0.5)
    far = y > 4.0
    erfc = np.empty_like(y)
    erfc[far] = _erfc_far(y[far])
    mid = ~far  # NaN included
    erfc[mid] = _erfc_mid(y[mid])
    erfc *= g
    erfc *= 0.5
    cdf[rest] = np.where(a < 0, erfc, 1.0 - erfc)
    return cdf


def _cdf_series(a: np.ndarray) -> np.ndarray:
    """Phi(a) for |a| <= 1 by its Taylor series; see _normal_cdf.  It overwrites a, which _normal_cdf copies."""
    u = a * a
    tail = _horner(_SERIES, u)
    tail *= u
    del u
    tail += _RSQRT_2PI_LO
    tail *= a  # a (S(a^2) - _RSQRT_2PI_HI)
    lead = a.astype(np.float32).astype(float)  # a's leading 24 bits
    a -= lead  # the rest, exactly
    a *= _RSQRT_2PI_HI
    tail += a
    lead *= _RSQRT_2PI_HI  # exact: 24 bits times 27
    cdf = lead + 0.5
    np.subtract(cdf, 0.5, out=a)
    lead -= a  # the rounding error of cdf = 1/2 + lead, exactly (Fast2Sum, as |lead| < 1/2)
    tail += lead
    cdf += tail
    return cdf


def _erfc_mid(y: np.ndarray) -> np.ndarray:
    """exp(y^2) erfc(y) for 0.46875 <= y <= 4 by Cody's rational; see _normal_cdf."""
    num, den = _ERFC_MID
    out = _horner(num, y)
    out /= _horner(den, y)
    return out


def _erfc_far(y: np.ndarray) -> np.ndarray:
    """exp(y^2) erfc(y) for y >= 4 by Cody's asymptotic rational; see _normal_cdf."""
    w = 1.0 / y  # 1/y, and its square z, cannot overflow
    z = w * w
    num, den = _ERFC_FAR
    out = _horner(num, z)
    out /= _horner(den, z)
    out *= z
    np.subtract(_RSQRT_PI, out, out=out)
    out *= w
    return out


def mc_expected_max(seed, n: int, X: np.ndarray, sigma, b1, b2, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo mean and standard error of scale * sigma(w.x) max(b1.w, b2.w) at each row x of X.

    basis.mc_mean over n draws w ~ N(0, I) in blocks of seed's jumped streams,
    the first default_rng(seed)'s; sigma is as in expected_max_quadrature.
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


@dataclass(frozen=True, eq=False)  # == is identity: comparing the arrays field by field would raise
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
        basis.check_count("mc_samples", self.mc_samples, 1000)
        basis.check_count("seed", self.seed, 0)
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
        bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
        if bad.size:
            raise ValueError(f"X must be finite, but row {bad[0]} is {X[bad[0]].tolist()}")
        s, knots = self.spec, SIGMA_KNOTS[self.spec.sigma_kind]
        return expected_max_quadrature(X, s.sigma, (knots[0], knots[-1]), knots, s.b1, s.b2, s.calib)

    def cross_check(self) -> CrossCheck:
        """means against spec.mc_samples draws from mc_mean's block stream of spec.seed at the check points."""
        s = self.spec
        return cross_check(self.means, s.seed, s.mc_samples, s.sigma, s.b1, s.b2, s.calib)


def calibrate(spec: TargetSpec, n_points: int = 10_000) -> float:
    """Scale factor making the mean absolute target value 1.

    Requires calib = 1 on input.  Averages the exact target values
    (TargetSampler.means) over n_points Gaussian points drawn from a stream
    derived from (but independent of) the spec seed; deterministic per seed.
    A mean below 1e-8, or not finite, raises ValueError: the target is degenerate.
    """
    if spec.calib != 1.0:
        raise ValueError(f"calibrate expects a spec with calib = 1, got {spec.calib}")
    basis.check_count("n_points", n_points, 1)
    sampler = TargetSampler(spec)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0x5CA1E]))
    pts = rng.standard_normal((n_points, spec.dim))
    with np.errstate(all="ignore"):  # b1 or b2 too large for floats give NaN or inf values: one error below says so
        mean_abs = float(np.mean(np.abs(sampler.means(pts))))
    if not 1e-8 <= mean_abs < math.inf:
        raise ValueError(f"degenerate target: mean |f| = {mean_abs} at calib 1")
    return 1.0 / mean_abs


@dataclass(frozen=True, eq=False)  # == is identity, as for TargetSpec
class Dataset:
    """Synthetic regression data: its train rows and its test rows."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray

    def __post_init__(self):
        for split, X, y in (("train", self.x_train, self.y_train), ("test", self.x_test, self.y_test)):
            if X.ndim != 2 or X.shape[0] < 1:
                raise ValueError(f"x_{split} must be a 2-D array of at least one row, got shape {X.shape}")
            if y.shape != (X.shape[0],):
                raise ValueError(f"y_{split} must hold one value per row of x_{split}, got shape {y.shape}")
            if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
                raise ValueError(f"x_{split} and y_{split} must be finite")
        if self.x_test.shape[1] != self.x_train.shape[1]:
            raise ValueError(f"x_test has {self.x_test.shape[1]} columns, x_train {self.x_train.shape[1]}")


def holdout_size(n: int, test_fraction: float) -> int:
    """Rows gen_dataset puts in the test split: round(n * test_fraction), in [1, n-1]."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    basis.check_count("n", n, 2)
    return min(max(int(round(n * test_fraction)), 1), n - 1)


def gen_dataset(
    spec: TargetSpec,
    n: int,
    test_fraction: float,
    seed: int,
) -> Dataset:
    """Gaussian inputs in spec.dim dimensions with their exact target values, split by permutation in drawn order."""
    n_test = holdout_size(n, test_fraction)
    rng_x = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    rng_split = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    X = rng_x.standard_normal((n, spec.dim))
    y = TargetSampler(spec).means(X)
    perm = rng_split.permutation(n)
    train, test = np.sort(perm[n_test:]), np.sort(perm[:n_test])
    return Dataset(x_train=X[train], y_train=y[train], x_test=X[test], y_test=y[test])
