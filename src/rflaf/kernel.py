"""Kernel induced by a single-RBF random feature map.

For an activation B(z) = exp(-(z - c)^2 / (2 h^2)) and Gaussian feature
directions w ~ N(0, I_d), the induced kernel

    K(x, x') = E_w[B(w.x) B(w.x')]

admits a closed form, a rotation-invariant profile on the unit sphere, and
a Taylor expansion in the inner product whose coefficients are squares of
an explicit integer-coefficient polynomial family.  This module provides
the closed form, a seeded Monte-Carlo oracle for it (basis.mc_mean, the
package's one streamed estimator), and the exact Taylor machinery
(derivative recurrence, polynomial coefficients, partial sums).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import bumps, mc_mean

__all__ = [
    "RbfParams",
    "McEstimate",
    "kernel_closed",
    "kernel_rot",
    "kernel_mc",
    "taylor_derivs",
    "poly_P",
    "poly_Q",
    "r_n",
    "kernel_taylor",
]


@dataclass(frozen=True)
class RbfParams:
    """Center and width of the single RBF activation."""

    center: float
    width: float

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.width)):
            raise ValueError("RBF center and width must be finite")
        if self.width <= 0:
            raise ValueError(f"RBF width must be positive, got {self.width}")


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo mean with its standard error."""

    mean: float
    stderr: float
    samples: int


def _validate_pair(x: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x.ndim != 1 or x2.ndim != 1 or x.shape != x2.shape:
        raise ValueError(f"expected two vectors of equal length, got shapes {x.shape} and {x2.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(x2))):
        raise ValueError("kernel inputs must be finite")
    return x, x2


def _unit_inner(r: float) -> float:
    """Validate an inner product of unit vectors and clamp it to [-1, 1].

    A computed dot product of unit vectors can round a few ulp past +/-1
    (e.g. 1.0000000000000004), so up to 4 eps of overshoot is accepted.
    """
    if not math.isfinite(r) or abs(r) > 1.0 + 4 * sys.float_info.epsilon:
        raise ValueError(f"inner product must lie in [-1, 1], got {r}")
    return min(1.0, max(-1.0, r))


def kernel_closed(x: np.ndarray, x2: np.ndarray, params: RbfParams) -> float:
    """Closed-form kernel value for an arbitrary pair of points.

    Returns
        h^2 / sqrt(D) * exp(-c^2/2 * (A + A' - 2<x,x2>) / D)
    with A = h^2 + |x|^2, A' = h^2 + |x2|^2 and D = A*A' - <x,x2>^2.
    Always lies in (0, 1] for finite inputs.
    """
    x, x2 = _validate_pair(x, x2)
    c, h = params.center, params.width
    h2 = h * h
    a1 = h2 + float(x @ x)
    a2 = h2 + float(x2 @ x2)
    dot = float(x @ x2)
    denom = a1 * a2 - dot * dot
    # Cauchy-Schwarz plus h > 0 makes denom >= h^4 + h^2(|x|^2+|x2|^2) > 0.
    if denom <= 0:
        raise ValueError(f"degenerate kernel denominator {denom}; inputs must be finite")
    return h2 / math.sqrt(denom) * math.exp(-0.5 * c * c * (a1 + a2 - 2.0 * dot) / denom)


def kernel_rot(r: float, params: RbfParams) -> float:
    """Rotation-invariant kernel profile on unit-norm pairs.

    r is the inner product of the two unit vectors; equals kernel_closed
    on any unit-norm pair with that inner product.  An r that rounding
    pushes up to 4 eps past +/-1 is clamped to +/-1; anything further out
    raises ValueError.
    """
    r = _unit_inner(r)
    c, h = params.center, params.width
    h2 = h * h
    return h2 / math.sqrt((1.0 + h2) ** 2 - r * r) * math.exp(-c * c / (1.0 + h2 + r))


def kernel_mc(
    x: np.ndarray,
    x2: np.ndarray,
    params: RbfParams,
    samples: int,
    seed: int,
) -> McEstimate:
    """Monte-Carlo estimate of the kernel over w ~ N(0, I_d): basis.mc_mean
    of B(w.x) B(w.x2) over samples draws from default_rng(seed).

    Deterministic for a fixed seed.  stderr is the sample standard
    deviation of the integrand divided by sqrt(samples).
    """
    x, x2 = _validate_pair(x, x2)
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")

    def bump(z):
        return bumps(z, params.center, params.width)

    mean, stderr = mc_mean(seed, samples, x2[None], bump, lambda w: bump(w @ x))
    return McEstimate(mean=float(mean[0]), stderr=float(stderr[0]), samples=samples)


def taylor_derivs(p: float, n_max: int) -> np.ndarray:
    """Derivatives y^(0..n_max) of the kernel profile at the origin.

    Generated by the three-term recurrence
        y^(n+1) = (p - n) y^(n) - n (p - n) y^(n-1) + n (n-1)^2 y^(n-2)
    seeded with y^(0) = e^-p, y^(1) = p e^-p, y^(2) = (p-1)^2 e^-p.
    """
    if p < 0 or not math.isfinite(p):
        raise ValueError(f"p must be a finite nonnegative real, got {p}")
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    ep = math.exp(-p)
    y = np.empty(n_max + 1)
    y[0] = ep
    y[1] = p * ep
    y[2] = (p - 1.0) ** 2 * ep
    for n in range(2, n_max):
        y[n + 1] = (p - n) * y[n] - n * (p - n) * y[n - 1] + n * (n - 1) ** 2 * y[n - 2]
    return y


def _double_factorial_ratio(hi: int, lo: int) -> int:
    """Exact hi!! / lo!! for odd hi >= lo >= -1 (both odd, (-1)!! = 1)."""
    out = 1
    for v in range(lo + 2, hi + 1, 2):
        out *= v
    return out


@lru_cache(maxsize=None)
def _poly(k: int, odd: int) -> tuple[int, ...]:
    """Coefficients of P_k (odd = 0) or Q_k (odd = 1), constant first:
    entry i is (-1)^(k-i) * (2k-1+2 odd)!!/(2i-1+2 odd)!! * C(k, i)."""
    return tuple(
        (-1) ** (k - i) * _double_factorial_ratio(2 * (k + odd) - 1, 2 * (i + odd) - 1) * math.comb(k, i)
        for i in range(k + 1)
    )


def poly_P(k: int) -> list[int]:
    """Exact integer coefficients of the even-derivative polynomial, constant first.

    Entry i is (-1)^(k-i) * (2k-1)!!/(2i-1)!! * C(k, i); Python integers are
    arbitrary precision, so every k is exact.
    """
    if k < 0:
        raise ValueError(f"polynomial index must be nonnegative, got {k}")
    return list(_poly(k, 0))


def poly_Q(k: int) -> list[int]:
    """Exact integer coefficients of the odd-derivative polynomial, constant first.

    Entry i is (-1)^(k-i) * (2k+1)!!/(2i+1)!! * C(k, i).
    """
    if k < 0:
        raise ValueError(f"polynomial index must be nonnegative, got {k}")
    return list(_poly(k, 1))


def _r_n_ratio(p: float, n: int) -> tuple[int, int]:
    """R_n(p) as an exact integer ratio (numerator, denominator).

    Uses the exact binary value pn / pd of p: with acc = pd^k * poly(p) by
    integer Horner, R_n(p) = acc^2 / pd^n for even n = 2k and
    pn * acc^2 / pd^n for odd n = 2k + 1.
    """
    pn, pd = float(p).as_integer_ratio()
    k, odd = divmod(n, 2)
    acc, pd_pow = 0, 1
    for c in reversed(_poly(k, odd)):
        acc = acc * pn + c * pd_pow
        pd_pow *= pd
    return acc * acc * (pn if odd else 1), pd**n


def r_n(p: float, n: int) -> float:
    """n-th derivative polynomial evaluated at p: P_{n/2}(p)^2 or p*Q_{(n-1)/2}(p)^2.

    Nonnegative for all p >= 0 by construction; computed exactly and rounded
    once.
    """
    if n < 0:
        raise ValueError(f"derivative order must be nonnegative, got {n}")
    num, den = _r_n_ratio(p, n)
    return num / den


@lru_cache(maxsize=128)
def _taylor_coeffs(p: float, one_h2: float, n_terms: int) -> tuple[float, ...]:
    """Scaled coefficients R_n(p) / (n! (1+h^2)^n) for n < n_terms.

    Each is formed exactly from the exact binary values of p and 1+h^2 and
    rounded to float once, so no intermediate can overflow however many
    terms are asked for.
    """
    hn, hd = one_h2.as_integer_ratio()
    out = []
    for n in range(n_terms):
        num, den = _r_n_ratio(p, n)
        out.append(num * hd**n / (den * math.factorial(n) * hn**n))
    return tuple(out)


def kernel_taylor(r: float, params: RbfParams, n_terms: int = 60) -> float:
    """Partial Taylor sum of the rotation-invariant kernel profile.

    Sums the terms n = 0 .. n_terms-1 of
        e^-p * h^2/(1+h^2) * sum_n R_n(p) / (n! (1+h^2)^n) * r^n
    with p = c^2 / (1+h^2).  Converges to kernel_rot(r) as n_terms grows;
    the default of 60 terms resolves h >= ~0.7 to ~1e-12 but leaves a
    truncation error of order 1e-7 near |r| = 1 when h = 0.5.  The scaled
    coefficients are computed exactly and cached per (p, h, n_terms), so
    any number of terms is safe.  r has the same domain as in kernel_rot.
    """
    r = _unit_inner(r)
    if n_terms < 1:
        raise ValueError(f"need at least one term, got {n_terms}")
    c, h = params.center, params.width
    one_h2 = 1.0 + h * h
    p = c * c / one_h2
    total = 0.0
    r_pow = 1.0
    for coeff in _taylor_coeffs(p, one_h2, n_terms):
        total += coeff * r_pow
        r_pow *= r
    return h * h / one_h2 * math.exp(-p) * total
