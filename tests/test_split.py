"""split_rows: row blocks, and mc_mean's blocks of draws, across forked workers give the bits of one process."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rflaf import basis, data
from rflaf.basis import banded_activation, build_grid, split_rows
from rflaf.data import expected_max_quadrature
from rflaf.model import RflafModel, sample_features
from rflaf.optim import TrainConfig, grad, predict_batch

SRC = Path(__file__).resolve().parents[1] / "src"

# 1 row, odd counts, and counts past the quadrature's 256-row chunk
ROWS = st.one_of(st.just(1), st.integers(1, 60).map(lambda k: 2 * k + 1), st.integers(257, 600))


def _parts(parts):
    return mock.patch.object(basis, "_parts", lambda rows, cells_per_row: parts)


def _with_non_finite(rng, z):
    """z with NaN, +inf and -inf at random places."""
    z = z.copy()
    for value in (np.nan, np.inf, -np.inf):
        z.reshape(-1)[rng.integers(0, z.size, max(1, z.size // 50))] = value
    return z


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitRows:
    @settings(max_examples=20, deadline=None)
    @given(rows=ROWS, m=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_banded_activation_byte_identical_across_part_counts(self, rows, m, seed):
        rng = np.random.default_rng(seed)
        grid = build_grid(-2.0, 2.0, 60, 0.05)
        a, v = rng.standard_normal(60), rng.standard_normal(m)
        z = _with_non_finite(rng, rng.uniform(-3.0, 3.0, (rows, m)))
        got = set()
        for parts in (1, 2, 3):
            with _parts(parts):
                act, sums = banded_activation(grid, a, z, v)
                bare, none = banded_activation(grid, a, z)
            assert none is None and bare.tobytes() == act.tobytes()
            got.add((act.tobytes(), sums.tobytes()))
        assert len(got) == 1
        _no_children_left()

    @settings(max_examples=20, deadline=None)
    @given(rows=ROWS, kind=st.sampled_from(["s1", "s2", "s3"]), seed=st.integers(0, 2**32 - 1))
    def test_quadrature_byte_identical_across_part_counts(self, rows, kind, seed):
        rng = np.random.default_rng(seed)
        X = 2.0 * rng.standard_normal((rows, 2))
        X[rng.integers(0, rows, max(1, rows // 10))] = 0.0  # r = 0 rows
        if rows > 3:
            X[:3] = [[np.nan, 1.0], [np.inf, 0.0], [-np.inf, 2.0]]
        knots = data.SIGMA_KNOTS[kind]

        def sigma(z):
            return data.sigma_eval_array(kind, z)

        got = set()
        for parts in (1, 2, 3):
            with _parts(parts), np.errstate(invalid="ignore"):
                f = expected_max_quadrature(X, sigma, (knots[0], knots[-1]), knots, [1.0, 0.0], [0.0, 1.0])
            got.add(f.tobytes())
        assert len(got) == 1
        _no_children_left()

    def test_gradient_and_predictions_byte_identical_across_part_counts(self):
        rng = np.random.default_rng(31)
        grid = build_grid(-2.0, 2.0, 200, 0.04)
        model = RflafModel(sample_features(2, 300, seed=32), grid, rng.standard_normal(200), rng.standard_normal(300))
        X, y = 2.5 * rng.standard_normal((101, 2)), rng.standard_normal(101)
        cfg = TrainConfig(lambda1=1e-2, lambda2=1e-3)
        got = set()
        for parts in (1, 2, 3):
            with _parts(parts):
                got.add(tuple(g.tobytes() for g in (*grad(model, X, y, cfg), predict_batch(model, X))))
        assert len(got) == 1

    def test_fork_failure_runs_every_row_here(self):
        def fn(lo, hi, dst):
            dst[0][:] = np.arange(lo, hi) * 2.0

        out = np.zeros(10)
        with _parts(3), mock.patch.object(os, "fork", side_effect=OSError("no more processes")):
            split_rows(10, fn, (out,), 1)
        assert out.tolist() == [2.0 * i for i in range(10)]

    def test_one_part_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert basis._parts(10**6, 10**6) == 1

    def test_part_count_is_capped_by_work_and_cpus(self):
        cpus = len(os.sched_getaffinity(0))
        assert basis._parts(10, 1) == 1
        assert basis._parts(10**6, basis.SPLIT_CELLS) == cpus

    def test_failing_child_raises_and_leaves_no_child(self, capfd):
        def fn(lo, hi, dst):
            if lo > 0:
                raise ValueError(f"no rows from {lo}")
            dst[0][:] = 1.0

        out = np.zeros(10)
        with _parts(3), pytest.raises(RuntimeError, match=r"rows 3\.\.5 .*exit status 1.*rows 6\.\.9 "):
            split_rows(10, fn, (out,), 1)
        _no_children_left()
        assert "ValueError: no rows from 3" in capfd.readouterr().err

    def test_failing_parent_block_reaps_its_children(self):
        def fn(lo, hi, dst):
            if lo == 0:
                raise ValueError("parent block")

        with _parts(3), pytest.raises(ValueError, match="parent block"):
            split_rows(10, fn, (np.zeros(10),), 1)
        _no_children_left()

    def test_workers_exit_cleanly(self):
        # a worker that left through sys.exit, or flushed the buffers it
        # inherited, would print the unflushed line or the atexit marker twice
        script = textwrap.dedent(
            """
            import atexit
            from unittest import mock
            import numpy as np
            from rflaf import basis

            atexit.register(print, "atexit marker")
            print("unflushed line")
            grid = basis.build_grid(-2.0, 2.0, 40, 0.1)
            z = np.linspace(-3.0, 3.0, 90).reshape(9, 10)
            def mc():
                return basis.mc_mean(4, 50, z[:, :3], np.abs, lambda w: w[:, 0])

            with mock.patch.object(basis, "_parts", lambda rows, cells_per_row: 3):
                split = basis.banded_activation(grid, np.ones(40), z, np.ones(10))
                with mock.patch.object(basis, "MC_BLOCK", 16):
                    split_mc = mc()
            one = basis.banded_activation(grid, np.ones(40), z, np.ones(10))
            with mock.patch.object(basis, "MC_BLOCK", 16):
                one_mc = mc()
            assert all(s.tobytes() == o.tobytes() for s, o in zip(split + split_mc, one + one_mc))
            """
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # keep the line in stdout's buffer
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.count("unflushed line") == 1 and run.stdout.count("atexit marker") == 1
