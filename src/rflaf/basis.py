"""RBF grid underlying the learnable activation function.

The activation is a weighted sum of N Gaussian bumps with shared width h,
centered on a uniform grid over a closed support interval.  Weights are
either learned or constructed by the quadrature rule a_i proportional to
the target activation sampled at the centers.  The paper's bounds sit here
too: the quadrature weights' norms, the approximation schedule and the
constrained-set norm bounds.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import numbers
import os
import threading
from dataclasses import dataclass, field

import numpy as np

# A bump whose exponent (z - c)^2 / (2 h^2) exceeds this is dropped by the
# banded evaluation: its value is below exp(-40) ~ 4.2e-18 of its weight.
BAND_CUTOFF = 40.0

# Cells per chunk (chunk_rows) of model.forward_chunks (activations and
# feature sums together), of the target quadrature and of every Monte-Carlo
# estimate (mc_mean): 2 MB per float64 temporary.  On a 2-core Xeon, no size of
# 2^16 .. 2^22 cells ran the shipped geometry's 256-row gradient (25-40 ms)
# or 1,200-row predict (79-115 ms) measurably faster than another, within
# the host's drift; chunks of tens of MB also fragment the heap and raise
# peak memory.
CHUNK_CELLS = 1 << 18

# Fewest cells of work per process, in bumps or their time, of each split
# over _Workers: a split_rows call (the target quadrature, the verification
# modes' estimates and mc_mean), which forks its workers, and a
# banded_activation call inside kernel_workers, whose workers run already.
# On a 2-core Xeon VM, forking a worker from a 70 MB process, letting it exit
# and reaping it took 2.3-2.5 ms, plus the copy-on-write faults that follow,
# and 2^20 bumps took about 8 ms; either loop first ran faster split in two
# at about 20 ms of work.
SPLIT_CELLS = 1 << 20

# Draws per block of mc_mean, the unit split_rows hands to a worker.
MC_BLOCK = 1 << 17

# Narrowest bump width of an ActivationGrid or kernel.RbfParams.  At 2^-511,
# h * h is the smallest normal float and bumps' factor -1 / (2 h^2) = -2^1021
# is finite; narrower, the factor overflows (a NaN bump at u == c) and then
# h * h underflows to 0.
MIN_WIDTH = 2.0**-511

__all__ = [
    "check_count",
    "ActivationGrid",
    "build_grid",
    "bumps",
    "banded_activation",
    "kernel_workers",
    "row_dot",
    "chunk_rows",
    "split_rows",
    "mc_mean",
    "activation_curve",
    "quadrature_weights",
    "quadrature_norm_bounds",
    "approximation_schedule",
    "BoundsReport",
    "theory_bounds",
]


def check_count(name: str, count, least: int) -> None:
    """ValueError naming name unless count is an integer (a numpy one too, never a bool) of at least least."""
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {count!r}")


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
        check_count("n_basis", self.n_basis, 1)
        if not MIN_WIDTH <= self.width < math.inf:
            raise ValueError(f"width must be finite and at least MIN_WIDTH = 2**-511, got {self.width}")
        object.__setattr__(self, "centers", lo + np.arange(1, self.n_basis + 1) * self.spacing)

    @property
    def spacing(self) -> float:
        return (self.support_hi - self.support_lo) / self.n_basis

    @property
    def support_len(self) -> float:
        return self.support_hi - self.support_lo

    @property
    def reach(self) -> int:
        """Cells from a point's cell to the farthest center banded_activation evaluates for it.

        Each center lies in its own partition cell, so every center more than
        ceil(sqrt(2 * BAND_CUTOFF) h / spacing) cells from a point's cell is at
        least sqrt(2 * BAND_CUTOFF) h away from it.
        """
        return math.ceil(math.sqrt(2.0 * BAND_CUTOFF) * self.width / self.spacing)

    @property
    def band_width(self) -> int:
        """At most this many centers are evaluated per point by banded_activation: those within reach."""
        return min(self.n_basis, 2 * self.reach + 1)


def build_grid(support_lo: float, support_hi: float, n_basis: int, width: float) -> ActivationGrid:
    """ActivationGrid of at least 2 centers from plain numbers."""
    check_count("n_basis", n_basis, 2)
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


def banded_activation(
    grid: ActivationGrid, a: np.ndarray, z: np.ndarray, v: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """act = sum_k a_k exp(-(z - c_k)^2 / (2 h^2)) at each entry of z, over its band; with v, also H.

    Each entry (cell) of z in partition cell i = floor((z - lo) / spacing)
    meets the centers k with |k - i| <= R = grid.reach, at most
    grid.band_width of them: every center left out is at least
    sqrt(2 BAND_CUTOFF) h away and contributes at most exp(-BAND_CUTOFF)
    times its weight, and every bump evaluated is within (R + 1) spacings of
    its point, so no exponent is below -(R + 1)^2 spacing^2 / (2 h^2) (-45.1
    at N=200, h=0.04 on [-2, 2]).  A cell more than R cells past either end
    of the grid, an infinite one included, meets no center and gets exactly
    0; a NaN counts as cell 0, so NaN in gives NaN out.

    Center-major: the cells are stably sorted by their cell index, clipped
    to [-R - 1, N + R] and shifted to a small unsigned key (numpy
    radix-sorts keys of up to 16 bits), so the cells that center k reaches,
    cell index in [k - R, k + R], are one contiguous run.  Each center with
    a nonempty run evaluates bumps on that run alone, and adds a_k times
    them into act, in increasing k: each cell's sum runs in a fixed order
    over its own centers, whatever the other cells.  Given the (P, M) z of
    P rows and the M weights v, H is the (N, P) sums
    H[k, p] = sum_m v_m exp(-(z[p, m] - c_k)^2 / (2 h^2)), else None.  So
    each row of act and column of H is a function of its row of z alone:
    inside kernel_workers a 2-D z's rows are split across its workers, and
    elsewhere this process computes every row.
    """
    act = np.zeros(z.shape)
    sums = None if v is None else np.zeros((grid.n_basis, z.shape[0]))
    outs = (act,) if sums is None else (act, sums.T)
    pool = _pool
    if isinstance(pool, _KernelScope) and pool.serves(grid, z):
        pool.split(a, z, v, outs)
    else:
        _banded_rows(grid, a, z, v, *outs)
    return act, sums


def _banded_rows(grid: ActivationGrid, a, z, v, act, sums_t=None) -> None:
    """banded_activation on z, written into act (C-contiguous) and, with v, sums_t (H transposed, zeroed)."""
    n, reach = grid.n_basis, grid.reach
    cells = z.reshape(-1)
    i = np.nan_to_num(np.floor((cells - grid.support_lo) / grid.spacing), copy=False, nan=0.0)
    key_type = np.min_scalar_type(n + 2 * reach + 1)
    key = (np.clip(i, -reach - 1, n + reach, out=i) + (reach + 1)).astype(key_type)
    order = np.argsort(key, kind="stable")
    key = key[order]
    ks = np.arange(1, n + 1, dtype=key_type)  # center k reaches the keys ks[k] = k + 1 .. k + 2 R + 1
    lo, hi = np.searchsorted(key, ks), np.searchsorted(key, ks + 2 * reach, "right")
    sorted_z = cells[order]
    sorted_act = np.zeros(cells.shape[0])
    if v is not None:
        row, col = np.divmod(order, z.shape[1])
        sorted_v = v[col]
    nonempty = np.flatnonzero(lo < hi)
    for k, start, stop in zip(nonempty.tolist(), lo[nonempty].tolist(), hi[nonempty].tolist()):
        run = slice(start, stop)
        e = bumps(sorted_z[run].copy(), grid.centers[k], grid.width)
        if v is not None:
            sums_t[:, k] = np.bincount(row[run], sorted_v[run] * e, z.shape[0])
        e *= a[k]
        sorted_act[run] += e
    act.reshape(-1)[order] = sorted_act


def _shared(shape: tuple) -> np.ndarray:
    """A zeroed float array of shape in anonymous shared memory, which a process forked later shares."""
    size = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * max(1, size)), float, size).reshape(shape)


_pool: _Workers | None = None  # the pool this process has open, or works for as a worker: set by _Workers alone


class _Workers:
    """Processes forked once, each computing serve(lo, hi, flag, dst) on every row range it reads from its pipe.

    The process protocol of split_rows and kernel_workers.  Inside its with
    block a pool is _pool, in this process and in the workers it forks, and
    the block's exit, by an exception too, reaps them.  One rule nests the
    two: while _pool is set, split_rows runs in the calling process and
    kernel_workers opens no scope.  The pool owns zeroed float arrays of the
    given shapes (rows on axis 0) in shared memory, mapped before any fork:
    a worker's dst is its rows lo..hi-1 of them, which run copies into the
    caller's arrays.  A worker inherits serve, answers one byte per range,
    and leaves by os._exit when its pipe closes, with the traceback on
    stderr if serve raised: it runs no atexit hook and flushes no inherited
    buffer.
    """

    def __init__(self, *shapes: tuple):
        self.procs = []  # (pid, request pipe as an unbuffered file, answer pipe) per worker
        self.shared = tuple(_shared(shape) for shape in shapes)

    def __enter__(self):
        global _pool
        _pool = self
        return self

    def __exit__(self, *exc) -> None:
        global _pool
        _pool = None
        self.close()

    def fork(self, serve, count: int) -> None:
        """Fork up to count workers running serve; where os.fork raises OSError, stop at those forked so far."""
        for _ in range(count):
            req_r, req_w = os.pipe()
            ans_r, ans_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                for fd in (req_r, req_w, ans_r, ans_w):
                    os.close(fd)
                return
            if pid == 0:  # the worker drops the parent's pipe ends, so it reads EOF once the parent closes them
                for fd in (req_w, ans_r, *(fd for _, w, r in self.procs for fd in (w.fileno(), r))):
                    os.close(fd)
                code = 1
                try:
                    while msg := os.read(req_r, 24):
                        lo, hi, flag = np.frombuffer(msg, np.int64).tolist()
                        serve(lo, hi, flag, tuple(s[lo:hi] for s in self.shared))
                        os.write(ans_w, b"\0")
                    code = 0
                except BaseException:
                    import traceback  # only a failing worker needs it: 0.3 MB at import

                    os.write(2, traceback.format_exc().encode())
                finally:
                    os._exit(code)
            os.close(req_r)
            os.close(ans_w)
            self.procs.append((pid, open(req_w, "wb", buffering=0), ans_r))

    def blocks(self, n: int, parts: int) -> list:
        """(lo, hi) of rows 0..n-1 in at most parts blocks: the first for this process, then one per worker."""
        parts = max(1, min(len(self.procs) + 1, parts, n))
        bounds = [n * i // parts for i in range(parts + 1)]
        return list(zip(bounds, bounds[1:]))

    def run(self, blocks: list, flag: int, outs: tuple, here, last: bool = False) -> None:
        """Send each worker its block of blocks[1:] and flag, compute here(lo, hi, outs' rows) on blocks[0], and
        copy the workers' shared rows into outs once they answer.  A worker that has left or leaves unanswered
        makes this close the pool, so later calls run here alone, and raise RuntimeError naming its rows, pid and
        exit status.  On the last call each worker reads EOF after its block and leaves while this one computes."""
        sent, failed = [], []
        try:
            for (pid, req, ans), (lo, hi) in zip(self.procs, blocks[1:]):
                try:
                    req.write(np.array([lo, hi, flag], np.int64).tobytes())
                    sent.append((pid, ans, lo, hi))
                except OSError:  # a dead worker's pipe
                    failed.append((pid, lo, hi))
            if last:
                for _, req, _ in self.procs:
                    req.close()
            lo, hi = blocks[0]
            here(lo, hi, tuple(o[lo:hi] for o in outs))
        finally:
            for pid, ans, lo, hi in sent:
                if os.read(ans, 1) != b"\0":  # EOF: the worker has left
                    failed.append((pid, lo, hi))
        if failed:
            codes = self.close()
            rows = "; ".join(f"rows {lo}..{hi - 1} (pid {pid}, exit status {codes[pid]})" for pid, lo, hi in failed)
            raise RuntimeError(f"a row worker failed for {rows}")
        for lo, hi in blocks[1:]:
            for o, s in zip(outs, self.shared):
                o[lo:hi] = s[lo:hi]

    def close(self) -> dict:
        """Close each request pipe, so each worker reads EOF and leaves, and reap them; their exit codes by pid."""
        for _, req, _ in self.procs:
            req.close()
        codes = {}
        for pid, _, ans in self.procs:
            codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(ans)
        self.procs = []
        return codes


class _KernelScope(_Workers):
    """One kernel_workers scope: a pool whose workers compute a call's rows from its z rows, a and v in shared
    memory into the pool's shared act and H^T rows, chunk_rows(M + N) of each: model.forward_chunks' largest chunk."""

    def __init__(self, grid: ActivationGrid, n_features: int):
        self.grid, self.m = grid, n_features
        self.rows = chunk_rows(n_features + grid.n_basis)
        self.z, self.a, self.v = _shared((self.rows, self.m)), _shared((grid.n_basis,)), _shared((self.m,))
        super().__init__((self.rows, self.m), (self.rows, grid.n_basis))
        self.thread = threading.get_ident()  # the shared memory serves one call at a time

    def serve(self, lo: int, hi: int, with_v: int, dst: tuple) -> None:
        """A worker's part of a call: _banded_rows on rows lo..hi-1 of the shared inputs, into dst (act, H^T)."""
        dst[1][...] = 0.0
        _banded_rows(self.grid, self.a, self.z[lo:hi], self.v if with_v else None, *dst)

    def serves(self, grid: ActivationGrid, z: np.ndarray) -> bool:
        """Whether a banded_activation call fits the shared memory, from the thread that opened the scope."""
        fits = z.ndim == 2 and grid == self.grid and z.shape[1] == self.m and z.shape[0] <= self.rows
        return fits and threading.get_ident() == self.thread

    def split(self, a, z, v, outs: tuple) -> None:
        """_banded_rows on z into outs in blocks of rows: the first here, one on each worker _parts allows."""
        blocks = self.blocks(z.shape[0], _parts(z.shape[0], self.m * self.grid.band_width))
        self.a[:] = a
        if v is not None:
            self.v[:] = v
        self.z[blocks[0][1] : z.shape[0]] = z[blocks[0][1] :]  # the workers' rows
        self.run(blocks, v is not None, outs, lambda lo, hi, dst: _banded_rows(self.grid, a, z[lo:hi], v, *dst))


@contextlib.contextmanager
def kernel_workers(grid: ActivationGrid, n_features: int):
    """Scope in which banded_activation splits the rows of a 2-D z over workers forked once, on entry.

    It forks one worker per CPU past the first that _parts allows for the
    largest chunk of model.forward_chunks (none without os.fork), and none
    while _pool is set: inside a pool's block or worker it opens no scope.
    A call from this thread on grid, with n_features columns and at most
    that chunk's rows, runs on _parts(rows, ...) - 1 workers and here; other
    calls, and every call after a worker has failed, run here alone.
    Workers run no BLAS.  On exit, by an exception too, the scope reaps
    every worker.
    """
    if _pool is not None:
        yield
        return
    with _KernelScope(grid, n_features) as scope:
        scope.fork(scope.serve, _parts(scope.rows, n_features * grid.band_width) - 1)
        yield


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


def _parts(rows: int, cells_per_row: int) -> int:
    """Processes of a split over _Workers, by split_rows or inside kernel_workers: one per CPU this process
    may run on, each with at least SPLIT_CELLS cells."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), rows * cells_per_row // SPLIT_CELLS))


def chunk_rows(cells_per_row: int) -> int:
    """Rows per chunk of work at cells_per_row cells each: CHUNK_CELLS // cells_per_row, at least 1."""
    return max(1, CHUNK_CELLS // cells_per_row)


def split_rows(n: int, fn, outs: tuple, cells_per_row: int) -> None:
    """Fill rows 0..n-1 of the zeroed float arrays outs (rows on axis 0) by fn(lo, hi, dst), a block per process.

    It serves one-shot calls of 0.1 s or more, which amortize a fork: the
    target quadrature's rows, kernel-verify's estimates, rate-study's
    trials and a lone mc_mean's blocks of draws.  (The banded kernel's calls
    are too short; they split inside kernel_workers.)  fn writes rows
    lo..hi-1 of each out into the zeroed arrays dst, which hold those rows
    alone.  There is one block per CPU this process may run on, each of at
    least SPLIT_CELLS cells at cells_per_row per row.  The parent computes
    the first block into outs, and _Workers forked for this call the others
    into the pool's shared rows, which it copies into outs.  While _pool is
    set (in a block of a split_rows call, a kernel_workers scope or a
    worker), it runs in the calling process as one block, so a mode forks
    once over its estimates, not once per estimate.  The split gives the
    bits of one process only if each row is a function of its own row alone.
    """
    parts = 1 if _pool is not None else max(1, min(_parts(n, cells_per_row), n))
    if parts == 1:
        fn(0, n, outs)
        return
    with _Workers(*(o.shape for o in outs)) as pool:
        pool.fork(lambda lo, hi, _, dst: fn(lo, hi, dst), parts - 1)
        pool.run(pool.blocks(n, parts), 0, outs, fn, last=True)


def mc_mean(seed, n: int, X: np.ndarray, sigma, v) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo mean and standard error of v(w) sigma(w.x) at each row x of X, over n >= 1 draws w ~ N(0, I).

    Draws b MC_BLOCK .. (b + 1) MC_BLOCK - 1 (block b) come from
    Generator(PCG64(seed).jumped(b)), so n <= MC_BLOCK draws are those of
    default_rng(seed).  A block streams in chunks of chunk_rows(rows + dim
    of X) draws, which do not change the values drawn, so the temporaries
    stay that size whatever n and the dimension, and sums them with
    np.einsum in chunk order.  split_rows spreads the blocks over processes
    and the block sums are added in block order, so the values depend on
    neither the process count nor the BLAS threads.  v maps a (draws, dim)
    block of w to its (draws,) values; sigma maps the (draws, rows) block of
    w.x, which it may overwrite, to sigma(w.x).

    A row x whose sum of squares is below 2^-970 but whose sum is not 0
    takes 2^-768 times the standard error of mc_mean with sigma = 1 and v =
    v(w) sigma(w.x) 2^768, exact unless v or sigma alone passes 2^500: each
    value is 0 or in [2^-1074, 2^-485), so its scaled square is normal where
    its own rounds to 0 or loses bits.  (v and sigma scaled apart would not
    do: squared, one below 2^-922 rounds to 0 even times 2^768.)
    """
    check_count("n", n, 1)
    blocks, step = -(-n // MC_BLOCK), chunk_rows(X.shape[0] + X.shape[1])
    sums = np.zeros((blocks, 2, X.shape[0]))  # each block's (total, squares)

    def block(lo, hi, dst):
        for b in range(lo, hi):
            rng = np.random.Generator(np.random.PCG64(seed).jumped(b))
            size = min(MC_BLOCK, n - b * MC_BLOCK)
            for start in range(0, size, step):
                w = rng.standard_normal((min(step, size - start), X.shape[1]))
                vw = v(w)
                e = sigma(w @ X.T)
                dst[0][b - lo, 0] += np.einsum("n,nr->r", vw, e)
                e *= e
                dst[0][b - lo, 1] += np.einsum("n,nr->r", vw * vw, e)

    split_rows(blocks, block, (sums,), MC_BLOCK * (X.shape[0] + X.shape[1]))
    total, squares = sums.cumsum(axis=0)[-1]  # cumsum adds the blocks in block order
    mean = total / n
    stderr = np.sqrt(np.maximum(squares / n - mean * mean, 0.0) / max(n - 1, 1))
    for i in np.flatnonzero((squares < 2.0**-970) & (total != 0)):
        x = X[i : i + 1]
        scaled = mc_mean(seed, n, x, np.ones_like, lambda w: np.ldexp(v(w) * sigma(w @ x.T)[:, 0], 768))[1]
        stderr[i] = np.ldexp(scaled[0], -768)
    return mean, stderr


def activation_curve(grid: ActivationGrid, a: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Activation sum_k a_k exp(-(z - c_k)^2 / (2 h^2)) at each point of zs, over its band."""
    a = np.asarray(a, dtype=float)
    if a.shape != (grid.n_basis,):
        raise ValueError(f"weights of shape {a.shape} do not match grid size {grid.n_basis}")
    return banded_activation(grid, a, np.asarray(zs, dtype=float))[0]


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
    if not 0 <= sigma_sup < math.inf:
        raise ValueError(f"sigma_sup must be nonnegative and finite, got {sigma_sup}")
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
    h_term = math.sqrt(2.0 * math.pi) * epsilon * h_max**2
    if h_term == 0:
        raise ValueError(f"epsilon {epsilon} is too small for the schedule in doubles: epsilon h_max^2 underflows to 0")
    log_term = math.log(8.0 * sigma_sup * support_len * radius / h_term)
    if log_term <= 0:
        raise ValueError(
            f"support_len {support_len} is too short for epsilon {epsilon}: the sufficient grid spacing "
            "needs 8 sigma_sup support_len radius > sqrt(2 pi) epsilon h_max^2"
        )
    spacing_max = min(
        epsilon * h_max * math.sqrt(math.pi * math.e) / (16.0 * math.sqrt(2.0) * sigma_sup * radius * log_term),
        epsilon / (4.0 * lr),
    )
    if spacing_max == 0:
        raise ValueError(f"epsilon {epsilon} is too small for the schedule in doubles: spacing_max underflows to 0")
    return h_max, spacing_max


@dataclass(frozen=True)
class BoundsReport:
    """Norm and sup bounds implied by the constrained-set theory."""

    a_norm_bound: float
    v_norm_bound: float
    f_sup_bound: float


def theory_bounds(
    h: float,
    n_basis: int,
    n_features: int,
    delta: float,
    sigma_sup: float,
    support_len: float,
    radius: float,
) -> BoundsReport:
    """Evaluate the three constrained-set bounds verbatim.

        |a|_2 <= sigma_sup |K| / (h sqrt(2 pi N))
        |v|_2 <= 7 R sqrt(M log(2/delta))
        |f|_inf <= 7 sigma_sup |K| R sqrt(log(2/delta)) / (h sqrt(2 pi))
    """
    check_count("n_basis", n_basis, 1)
    check_count("n_features", n_features, 1)
    for name, val in [
        ("width h", h),
        ("sigma_sup", sigma_sup),
        ("support_len", support_len),
        ("radius", radius),
    ]:
        if not 0 < val < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {val}")
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    log_term = math.log(2.0 / delta)
    a_bound = sigma_sup * support_len / (h * math.sqrt(2.0 * math.pi * n_basis))
    v_bound = 7.0 * radius * math.sqrt(n_features * log_term)
    f_bound = 7.0 * sigma_sup * support_len * radius * math.sqrt(log_term) / (h * math.sqrt(2.0 * math.pi))
    for name, bound, keys in [
        ("a norm", a_bound, "width h, sigma_sup, support_len and n_basis"),
        ("v norm", v_bound, "radius, n_features and delta"),
        ("f sup", f_bound, "width h, sigma_sup, support_len, radius and delta"),
    ]:
        if not math.isfinite(bound):
            raise ValueError(f"the {name} bound, from {keys}, is past the doubles")
    return BoundsReport(a_norm_bound=a_bound, v_norm_bound=v_bound, f_sup_bound=f_bound)
