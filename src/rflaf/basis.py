"""RBF grid underlying the learnable activation function.

The activation is a weighted sum of N Gaussian bumps with shared width h,
centered on a uniform grid over a closed support interval.  Weights are
either learned or constructed by the quadrature rule a_i proportional to
the target activation sampled at the centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# A bump whose exponent (z - c)^2 / (2 h^2) exceeds this is dropped by the
# banded evaluation: its value is below exp(-40) ~ 4.2e-18 of its weight.
BAND_CUTOFF = 40.0

# Cells per chunk of model.forward_chunks, of the target quadrature and of
# every Monte-Carlo estimate (mc_mean): 2 MB per float64 temporary.  On a
# 2-core Xeon with 2 MB of L2 per core this ran the 256-row gradient fastest
# of 2^16 .. 2^22 cells; chunks of tens of MB also fragment the heap and
# raise peak memory.
CHUNK_CELLS = 1 << 18

__all__ = [
    "ActivationGrid",
    "build_grid",
    "bumps",
    "banded_bumps",
    "row_dot",
    "mc_mean",
    "activation_curve",
    "quadrature_weights",
    "quadrature_norm_bounds",
    "approximation_schedule",
]


@dataclass(frozen=True)
class ActivationGrid:
    """Uniform RBF grid of shared width; its N centers are derived: the right
    ends of the N equal cells of [support_lo, support_hi], the last at support_hi."""

    support_lo: float
    support_hi: float
    n_basis: int
    width: float
    centers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo, hi = self.support_lo, self.support_hi
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"invalid support [{lo}, {hi}]")
        if self.n_basis < 1:
            raise ValueError(f"n_basis must be at least 1, got {self.n_basis}")
        if self.width <= 0 or not math.isfinite(self.width):
            raise ValueError(f"width must be positive and finite, got {self.width}")
        object.__setattr__(self, "centers", lo + np.arange(1, self.n_basis + 1) * self.spacing)

    @property
    def spacing(self) -> float:
        return (self.support_hi - self.support_lo) / self.n_basis

    @property
    def support_len(self) -> float:
        return self.support_hi - self.support_lo

    @property
    def band_width(self) -> int:
        """Centers evaluated per point by banded_bumps.

        Each center lies in its own partition cell, so every center more than
        ceil(sqrt(2 * BAND_CUTOFF) h / spacing) cells from a point's cell is at
        least sqrt(2 * BAND_CUTOFF) h away from it.
        """
        reach = math.ceil(math.sqrt(2.0 * BAND_CUTOFF) * self.width / self.spacing)
        return min(self.n_basis, 2 * reach + 1)


def build_grid(support_lo: float, support_hi: float, n_basis: int, width: float) -> ActivationGrid:
    """ActivationGrid of at least 2 centers from plain numbers."""
    if n_basis < 2:
        raise ValueError(f"need at least 2 basis functions, got {n_basis}")
    return ActivationGrid(float(support_lo), float(support_hi), int(n_basis), float(width))


def bumps(u: np.ndarray, c, h: float) -> np.ndarray:
    """Gaussian bumps exp(-(u - c)^2 / (2 h^2)), computed in place over u and returned.

    u must be a float array the caller owns; c broadcasts against it.  The
    steps run in a fixed order (subtract, square, scale, exp) without
    temporaries, so equal inputs give equal bits wherever the bump is used.
    """
    np.subtract(u, c, out=u)
    np.square(u, out=u)
    u *= -1.0 / (2.0 * h * h)
    return np.exp(u, out=u)


def banded_bumps(grid: ActivationGrid, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Window starts s (P,) and the (P, W) block exp(-(z_p - c_{s_p + j})^2 / (2 h^2)).

    W = grid.band_width.  Window p covers the centers within W // 2 cells of
    z_p's cell, clipped to [0, N - W], so every center left out contributes
    at most exp(-BAND_CUTOFF) times its weight; with W = N every s is 0 and
    the block is the dense basis.  A NaN or infinite z still gets a window
    inside the grid.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    w = grid.band_width
    cell = np.floor((z - grid.support_lo) / grid.spacing)
    s = np.fmin(np.fmax(cell - (w // 2), 0.0), grid.n_basis - w).astype(np.intp)
    return s, bumps(sliding_window_view(grid.centers, w)[s], z[:, None], grid.width)


def row_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sum_k A[..., k] B[..., k] per row (B may be one row), each a function of its own row alone.

    np.einsum reduces up to np.getbufsize() elements in one pass but splits
    longer rows where the row count decides, so those go in blocks of that
    length, summed left to right.  BLAS's A @ v makes no per-row promise.
    """
    n = np.getbufsize()
    out = np.einsum("...k,...k->...", A[..., :n], B[..., :n])
    for lo in range(n, A.shape[-1], n):
        out += np.einsum("...k,...k->...", A[..., lo : lo + n], B[..., lo : lo + n])
    return out


def mc_mean(seed, n: int, X: np.ndarray, sigma, v) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo mean and standard error of v(w) sigma(w.x) at each row x of X, over n draws w ~ N(0, I).

    The draws come from default_rng(seed) and stream in chunks of
    CHUNK_CELLS // (rows + dim of X), so the temporaries stay that size
    whatever n and the dimension; the Generator stream is sequential, so the
    chunking does not change the values drawn.  v maps a (draws, dim) block
    of w to its (draws,) values; sigma maps the (draws, rows) block of w.x,
    which it may overwrite, to sigma(w.x).
    """
    rng = np.random.default_rng(seed)
    step = max(1, CHUNK_CELLS // (X.shape[0] + X.shape[1]))
    total, squares = np.zeros(X.shape[0]), np.zeros(X.shape[0])
    for lo in range(0, n, step):
        w = rng.standard_normal((min(step, n - lo), X.shape[1]))
        vw = v(w)
        e = sigma(w @ X.T)
        total += vw @ e
        e *= e
        squares += (vw * vw) @ e
    mean = total / n
    return mean, np.sqrt(np.maximum(squares / n - mean * mean, 0.0) / max(n - 1, 1))


def activation_curve(grid: ActivationGrid, a: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Activation sum_k a_k exp(-(z - c_k)^2 / (2 h^2)) at each point of zs, over its band."""
    a = np.asarray(a, dtype=float)
    if a.shape != (grid.n_basis,):
        raise ValueError(f"weights of shape {a.shape} do not match grid size {grid.n_basis}")
    s, e = banded_bumps(grid, zs)
    return row_dot(e, sliding_window_view(a, e.shape[1])[s])


def quadrature_weights(grid: ActivationGrid, sigma_at_centers: np.ndarray) -> np.ndarray:
    """Constructive weights a reproducing a target activation on the grid.

    a_i = |K| / (sqrt(2 pi) h N) * sigma(c_i), the Riemann-sum weights of the
    Gaussian-smoothed target; the resulting expansion approximates the target
    in sup norm, improving as N grows and h shrinks together.
    """
    s = np.asarray(sigma_at_centers, dtype=float)
    if s.shape != (grid.n_basis,):
        raise ValueError(f"expected {grid.n_basis} samples, got shape {s.shape}")
    return grid.support_len / (math.sqrt(2.0 * math.pi) * grid.width * grid.n_basis) * s


def quadrature_norm_bounds(grid: ActivationGrid, sigma_sup: float) -> tuple[float, float]:
    """Guaranteed (sum |a_i|, sum a_i^2) bounds for quadrature weights.

    For any target with sup norm sigma_sup:
        sum |a_i|  <= sigma_sup |K| / (sqrt(2 pi) h)
        sum a_i^2  <= sigma_sup^2 |K|^2 / (2 pi h^2 N)
    """
    if sigma_sup < 0:
        raise ValueError("sigma_sup must be nonnegative")
    k = grid.support_len
    l1 = sigma_sup * k / (math.sqrt(2.0 * math.pi) * grid.width)
    l2 = sigma_sup**2 * k**2 / (2.0 * math.pi * grid.width**2 * grid.n_basis)
    return l1, l2


def approximation_schedule(
    epsilon: float,
    lipschitz_sigma: float,
    radius: float,
    sigma_sup: float,
    support_len: float,
) -> tuple[float, float]:
    """Sufficient (width, grid spacing) upper bounds for a target sup-norm error.

    Diagnostic calculator only: returns (h_max, spacing_max) such that any
    h <= h_max and |K|/N <= spacing_max guarantee the constructed activation
    approximates the target within epsilon.  The bounds are conservative
    sufficient conditions, not recommended operating points.
    """
    for name, v in [
        ("epsilon", epsilon),
        ("lipschitz_sigma", lipschitz_sigma),
        ("radius", radius),
        ("sigma_sup", sigma_sup),
        ("support_len", support_len),
    ]:
        if v <= 0 or not math.isfinite(v):
            raise ValueError(f"{name} must be positive and finite, got {v}")
    if epsilon >= 16.0 * sigma_sup * radius:
        raise ValueError(f"epsilon must be below 16 sigma_sup radius = {16.0 * sigma_sup * radius}, got {epsilon}")
    lr = lipschitz_sigma * radius
    h_max = epsilon / (4.0 * math.sqrt(2.0) * lr * math.sqrt(math.log(16.0 * sigma_sup * radius / epsilon)))
    log_term = math.log(
        8.0 * sigma_sup * support_len * radius / (math.sqrt(2.0 * math.pi) * epsilon * h_max**2)
    )
    if log_term <= 0:
        raise ValueError(
            f"support_len {support_len} is too short for epsilon {epsilon}: the sufficient grid spacing "
            "needs 8 sigma_sup support_len radius > sqrt(2 pi) epsilon h_max^2"
        )
    spacing_max = min(
        epsilon * h_max * math.sqrt(math.pi * math.e) / (16.0 * math.sqrt(2.0) * sigma_sup * radius * log_term),
        epsilon / (4.0 * lr),
    )
    return h_max, spacing_max
