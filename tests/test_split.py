"""Row blocks across forked workers give the bits of one process: split_rows (the quadrature's rows, mc_mean's
blocks of draws and the verification modes' estimates, with a split inside a split run in place) and the banded
kernel inside kernel_workers, both on basis._Workers."""

import contextlib
import ctypes
import gc
import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rflaf import basis, cli, data, experiments, optim
from rflaf.basis import banded_activation, build_grid, kernel_workers, split_rows
from rflaf.data import Dataset, expected_max_quadrature
from rflaf.model import RflafModel, sample_features
from rflaf.optim import TrainConfig, grad, predict_batch, train

SRC = Path(__file__).resolve().parents[1] / "src"
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

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


@pytest.fixture
def deadline():
    """Fail, rather than hang, a test that waits on a worker for over 60 s."""

    def expire(signum, frame):
        raise TimeoutError("waited over 60 s on a kernel worker")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


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
            with _parts(parts), kernel_workers(grid, m):
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
            with _parts(parts), kernel_workers(grid, 300):
                got.add(tuple(g.tobytes() for g in (*grad(model, X, y, cfg), predict_batch(model, X))))
        assert len(got) == 1
        _no_children_left()

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

    def test_forks_parts_minus_one_workers_per_call(self, monkeypatch):
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())

        def fn(lo, hi, dst):
            dst[0][:] = np.arange(lo, hi) * 2.0

        cpus = len(os.sched_getaffinity(0))
        for parts, n, cells_per_row, want in ((3, 10, 1, 2), (3, 2, 1, 1), (3, 1, 1, 0), (None, 1, 10**9, 0),
                                              (None, 10, basis.SPLIT_CELLS, min(cpus, 10) - 1)):
            forks.clear()
            out = np.zeros(n)
            with _parts(parts) if parts else contextlib.nullcontext():
                split_rows(n, fn, (out,), cells_per_row)
            assert len(forks) == want and out.tolist() == [2.0 * i for i in range(n)]
        _no_children_left()

    def test_a_split_inside_a_split_forks_nothing(self, monkeypatch):
        # rows 0..1 are the parent's block and rows 2..5 two workers' blocks: each nested mc_mean runs in the
        # process whose block makes it, and gives the bits it gives split on its own
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(basis, "MC_BLOCK", 16)  # 100 draws are 7 blocks
        X = np.random.default_rng(48).standard_normal((5, 3))

        def estimate(seed):
            return np.concatenate(basis.mc_mean(seed, 100, X, np.abs, lambda w: w[:, 0]))

        def fn(lo, hi, dst):
            before = len(forks)
            for row in range(lo, hi):
                dst[0][row - lo] = estimate(row)
            dst[1][:] = len(forks) - before  # forks this process made in its block

        with _parts(3):
            alone = np.array([estimate(row) for row in range(6)])
            assert len(forks) == 6 * 2
            forks.clear()
            out, inner_forks = np.zeros((6, 10)), np.zeros(6)
            split_rows(6, fn, (out, inner_forks), 1)
        assert len(forks) == 2 and not inner_forks.any()
        assert out.tobytes() == alone.tobytes()
        _no_children_left()

    @pytest.mark.parametrize(
        "outcome, error",
        [("returns", None), ("parent raises", "outer block"), ("worker fails", "a row worker failed")],
    )
    def test_the_next_top_level_split_forks_again(self, monkeypatch, outcome, error):
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        parent = os.getpid()

        def inner(lo, hi, dst):
            dst[0][:] = np.arange(lo, hi)

        def outer(lo, hi, dst):
            split_rows(4, inner, (np.zeros(4),), 1)
            if (os.getpid() == parent) == (outcome == "parent raises") and outcome != "returns":
                raise ValueError("outer block")
            dst[0][:] = 1.0

        with _parts(3):
            with pytest.raises((ValueError, RuntimeError), match=error) if error else contextlib.nullcontext():
                split_rows(6, outer, (np.zeros(6),), 1)
            assert len(forks) == 2
            forks.clear()
            out = np.zeros(4)
            split_rows(4, inner, (out,), 1)
        assert len(forks) == 2 and out.tolist() == [0.0, 1.0, 2.0, 3.0]
        _no_children_left()

    def test_verification_modes_fork_per_stage_not_per_estimate(self, monkeypatch, tmp_path):
        # 6 kernel estimates and 6 rate-study banks, each of blocks enough to split on its own
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(basis, "MC_BLOCK", 16)
        kernel_verify = {"seed": 5, "trials": 3, "samples": 100, "dims": [2], "centers": [0.0, 1.0], "widths": [1.0]}
        rate_study = {"seed": 6, "m_values": [32, 64], "trials": 3, "test_points": 10, "ref_samples": 100}
        with _parts(3):
            experiments.run("kernel-verify", kernel_verify, str(tmp_path / "kernel"))
            assert len(forks) == 2  # one split, over the estimates
            forks.clear()
            experiments.run("rate-study", dict(rate_study, slope_range=[-10.0, 10.0]), str(tmp_path / "rate"))
        assert len(forks) == 4 * 2  # the reference quadrature, the cross-check's quadrature and draws, the trials
        _no_children_left()

    def test_killed_worker_raises_naming_its_rows(self):
        def fn(lo, hi, dst):
            if lo == 6:
                os.kill(os.getpid(), signal.SIGKILL)

        with _parts(3), pytest.raises(RuntimeError, match=r"rows 6\.\.9 \(pid \d+, exit status -9\)") as err:
            split_rows(10, fn, (np.zeros(10),), 1)
        assert "rows 3..5" not in str(err.value)
        _no_children_left()

    def test_workers_leave_while_the_parent_computes(self):
        def fn(lo, hi, dst):
            if lo == 0:  # the parent's block: wait until the worker has left, without reaping it
                deadline = time.monotonic() + 10.0
                while os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
                    assert time.monotonic() < deadline, "the worker outlived its block"
                    time.sleep(0.005)
            dst[0][:] = 1.0

        out = np.zeros(10)
        with _parts(2):
            split_rows(10, fn, (out,), 1)
        assert out.tolist() == [1.0] * 10
        _no_children_left()

    def test_scopes_free_their_pool_and_shared_memory_without_the_cyclic_gc(self, monkeypatch):
        pools, maps, mmap_ = [], [], basis.mmap.mmap

        class Recorded(basis._Workers):
            def __init__(self, *args):
                super().__init__(*args)
                pools.append(weakref.ref(self))

        def recorded_mmap(*args):
            buffer = mmap_(*args)
            maps.append(weakref.ref(buffer))
            return buffer

        monkeypatch.setattr(basis, "_Workers", Recorded)
        monkeypatch.setattr(basis.mmap, "mmap", recorded_mmap)
        grid = build_grid(-2.0, 2.0, 60, 0.05)
        z = np.random.default_rng(47).uniform(-3.0, 3.0, (50, 20))
        gc.disable()
        try:
            with _parts(2):
                with kernel_workers(grid, 20):
                    scope = weakref.ref(basis._pool)
                    banded_activation(grid, np.ones(60), z, np.ones(20))
                assert scope() is None
                split_rows(10, lambda lo, hi, dst: None, (np.zeros(10), np.zeros((10, 3))), 1)
        finally:
            gc.enable()
        assert pools and maps and all(ref() is None for ref in pools + maps)
        _no_children_left()

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
            from rflaf import basis, cli, data, experiments, optim
            from rflaf.model import sample_features

            atexit.register(print, "atexit marker")
            print("unflushed line")
            grid = basis.build_grid(-2.0, 2.0, 40, 0.1)
            z = np.linspace(-3.0, 3.0, 90).reshape(9, 10)
            def mc():
                return basis.mc_mean(4, 50, z[:, :3], np.abs, lambda w: w[:, 0])

            def fit():
                rng = np.random.default_rng(5)
                X, y = rng.standard_normal((90, 2)), rng.standard_normal(90)
                ds = data.Dataset(X[:70], y[:70], X[70:], y[70:])
                model = optim.new_rflaf_model(sample_features(2, 10, 6), grid, 7)
                trained, history = optim.train(model, ds, optim.TrainConfig(epochs=2, batch_size=32), 8)
                return trained.a, trained.v, np.array([h.test_mse for h in history])

            with mock.patch.object(basis, "_parts", lambda rows, cells_per_row: 3):
                with basis.kernel_workers(grid, 10):
                    split = basis.banded_activation(grid, np.ones(40), z, np.ones(10))
                with mock.patch.object(basis, "MC_BLOCK", 16):
                    split_mc = mc()
                split_fit = fit()
            one = basis.banded_activation(grid, np.ones(40), z, np.ones(10))
            with mock.patch.object(basis, "MC_BLOCK", 16):
                one_mc = mc()
            one_fit = fit()
            pairs = zip(split + split_mc + split_fit, one + one_mc + one_fit)
            assert all(s.tobytes() == o.tobytes() for s, o in pairs)
            """
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # keep the line in stdout's buffer
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.count("unflushed line") == 1 and run.stdout.count("atexit marker") == 1


def _artifacts(out) -> dict:
    return {path.name: path.read_bytes() for path in sorted(Path(out).iterdir())}


class TestVerificationModes:
    # both modes split over their estimates, and kernel_mc's 200,000 draws are two blocks of mc_mean
    CONFIGS = {
        "kernel-verify": {
            "seed": 11,
            "trials": 3,
            "samples": 200_000,
            "dims": [1, 3],
            "centers": [0.0, 1.0],
            "widths": [0.5],
        },
        "rate-study": {
            "seed": 12,
            "m_values": [16, 64, 256],
            "trials": 3,
            "test_points": 200,
            "ref_samples": 20_000,
            "slope_range": [-10.0, 10.0],
        },
    }

    @pytest.mark.parametrize("mode", sorted(CONFIGS))
    def test_artifacts_byte_identical_across_part_counts(self, mode, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.CONFIGS[mode]))
        got = []
        for parts in (1, 2, 3):
            out = tmp_path / f"parts_{parts}"
            with _parts(parts):
                code = cli.main([mode, "--config", str(config), "--out", str(out)])
            got.append((code, _artifacts(out)))
        _no_children_left()
        script = "import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); from rflaf import cli; "
        script += "sys.exit(cli.main(sys.argv[1:]))"
        out = tmp_path / "one_cpu"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        argv = [sys.executable, "-c", script, mode, "--config", str(config), "--out", str(out)]
        run = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
        assert run.returncode in (0, 1), run.stderr
        got.append((run.returncode, _artifacts(out)))
        assert got[0][0] == 0 and len(got[0][1]) == 2
        assert all(one == got[0] for one in got)


def _fit_case(rows=700):
    """Shipped geometry (N = 200, M = 300): a model and a dataset whose train split ends in a short batch."""
    rng = np.random.default_rng(41)
    model = optim.new_rflaf_model(sample_features(2, 300, seed=42), build_grid(-2.0, 2.0, 200, 0.04), 43)
    X = 2.0 * rng.standard_normal((rows, 2))
    y = np.abs(X[:, 0]) - X[:, 1] + 0.1 * rng.standard_normal(rows)
    train, test = np.split(rng.permutation(rows), [rows * 4 // 5])
    return model, Dataset(X[train], y[train], X[test], y[test])


def _fit_bytes(model, dataset, epochs=2):
    trained, history = train(model, dataset, TrainConfig(learning_rate=1e-2, epochs=epochs), 44)
    return trained.a.tobytes(), trained.v.tobytes(), repr(history)


@pytest.mark.usefixtures("deadline")
class TestKernelWorkers:
    def test_train_byte_identical_to_serial(self):
        model, dataset = _fit_case()
        serial = _fit_bytes(model, dataset)
        for parts in (1, 2, 3):
            with _parts(parts):
                assert _fit_bytes(model, dataset) == serial
            _no_children_left()

    def test_forks_once_per_train(self, monkeypatch):
        model, dataset = _fit_case()
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        with _parts(3):
            _fit_bytes(model, dataset)
        assert len(forks) == 2  # two workers for the whole run, not two per call

    def test_a_split_inside_the_scope_runs_here(self, monkeypatch):
        # a forked block inherited the scope and drove its worker over the shared rows along with this process
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        model, _ = _fit_case()
        X = 2.0 * np.random.default_rng(49).standard_normal((2000, 2))
        serial, out = predict_batch(model, X), np.zeros(2000)

        def fn(lo, hi, dst):
            dst[0][:] = predict_batch(model, X[lo:hi])

        with _parts(2), kernel_workers(model.grid, 300):
            forks.clear()  # the scope's worker
            split_rows(2000, fn, (out,), 1)
        assert out.tobytes() == serial.tobytes()
        assert not forks
        _no_children_left()

    def test_train_inside_a_split_forks_no_kernel_worker(self, monkeypatch):
        # each process of the split forked a kernel worker of its own: 2 processes per CPU
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        model, dataset = _fit_case(rows=300)
        serial = np.frombuffer(_fit_bytes(model, dataset, epochs=1)[0])
        forks.clear()  # the serial run's kernel worker

        def fn(lo, hi, dst):
            before = len(forks)
            for row in range(lo, hi):
                dst[0][row - lo] = np.frombuffer(_fit_bytes(model, dataset, epochs=1)[0])
            dst[1][:] = len(forks) - before  # forks this process made in its block

        out, inner_forks = np.zeros((2, 200)), np.zeros(2)
        with _parts(2):
            split_rows(2, fn, (out, inner_forks), 1)
        assert len(forks) == 1 and not inner_forks.any()
        assert out.tobytes() == np.tile(serial, (2, 1)).tobytes()
        _no_children_left()

    @pytest.mark.parametrize("chunk_cells", [basis.CHUNK_CELLS, 20_000], ids=["shipped", "smaller"])
    def test_every_call_in_train_reaches_the_scope(self, monkeypatch, chunk_cells):
        # the scope holds chunk_rows(M + N) rows, the largest chunk forward_chunks makes: no call runs here alone
        monkeypatch.setattr(basis, "CHUNK_CELLS", chunk_cells)
        model, dataset = _fit_case()
        served, banded = [], basis.banded_activation

        def recorded(grid, a, z, v=None):
            served.append(basis._pool is not None and basis._pool.serves(grid, z))
            return banded(grid, a, z, v)

        monkeypatch.setattr(basis, "banded_activation", recorded)
        with _parts(2):
            _fit_bytes(model, dataset, epochs=1)
        assert len(served) >= 4 and all(served)

    def test_calls_outside_the_scope_or_its_geometry_run_here(self):
        model, dataset = _fit_case()
        X, y = dataset.x_train[:300], dataset.y_train[:300]
        z = X @ model.bank.weights.T
        with _parts(3), mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
            grad(model, X, y, TrainConfig())
            predict_batch(model, X)
        split = mock.patch.object(basis._Workers, "run", side_effect=AssertionError("split"))
        with _parts(3), kernel_workers(model.grid, 300), split:
            banded_activation(build_grid(-2.0, 2.0, 100, 0.04), np.ones(100), z)  # another grid
            banded_activation(model.grid, model.a, z[:, :299])  # another width
            banded_activation(model.grid, model.a, np.tile(z, (2, 1)))  # 600 rows, past the shared 524
            basis.activation_curve(model.grid, model.a, np.linspace(-3.0, 3.0, 50))
        _no_children_left()

    def test_serves_only_the_thread_that_opened_it(self):
        grid = build_grid(-2.0, 2.0, 60, 0.05)
        z = np.zeros((10, 20))
        with _parts(2), kernel_workers(grid, 20):
            elsewhere = []
            thread = threading.Thread(target=lambda: elsewhere.append(basis._pool.serves(grid, z)))
            thread.start()
            thread.join(60)
            assert not thread.is_alive() and elsewhere == [False]
            assert basis._pool.serves(grid, z)

    def test_without_fork_train_runs_here(self, monkeypatch):
        model, dataset = _fit_case()
        with _parts(2):
            split = _fit_bytes(model, dataset)
        monkeypatch.delattr(os, "fork")
        assert _fit_bytes(model, dataset) == split

    def test_killed_worker_raises_naming_its_rows(self, monkeypatch):
        model, dataset = _fit_case()
        steps, adam_step = [0], optim.adam_step

        def kill_after_first_step(*args):
            steps[0] += 1
            if steps[0] == 1:
                pid = basis._pool.procs[-1][0]
                os.kill(pid, signal.SIGKILL)
                os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
            return adam_step(*args)

        monkeypatch.setattr(optim, "adam_step", kill_after_first_step)
        with _parts(3), pytest.raises(RuntimeError, match=r"rows 170\.\.255 \(pid \d+, exit status -9\)") as err:
            _fit_bytes(model, dataset)
        assert not isinstance(err.value.__context__, BrokenPipeError)
        assert steps[0] == 1
        _no_children_left()

    def test_failing_worker_raises_and_leaves_no_child(self, monkeypatch, capfd):
        model, dataset = _fit_case()
        parent, banded_rows = os.getpid(), basis._banded_rows

        def failing_in_workers(*args):
            if os.getpid() != parent:
                raise ValueError("worker rows")
            return banded_rows(*args)

        monkeypatch.setattr(basis, "_banded_rows", failing_in_workers)
        with _parts(3), pytest.raises(RuntimeError, match=r"rows 85\.\.169 .*exit status 1.*rows 170\.\.255 "):
            _fit_bytes(model, dataset)
        _no_children_left()
        assert "ValueError: worker rows" in capfd.readouterr().err

    def test_failing_parent_rows_reap_every_worker(self, monkeypatch):
        model, dataset = _fit_case()
        parent, banded_rows = os.getpid(), basis._banded_rows

        def failing_here(*args):
            if os.getpid() == parent:
                raise ValueError("parent rows")
            return banded_rows(*args)

        monkeypatch.setattr(basis, "_banded_rows", failing_here)
        with _parts(3), pytest.raises(ValueError, match="parent rows"):
            _fit_bytes(model, dataset)
        _no_children_left()

    def test_failure_anywhere_in_train_reaps_every_worker(self, monkeypatch):
        model, dataset = _fit_case()
        monkeypatch.setattr(optim, "adam_step", mock.Mock(side_effect=ValueError("adam")))
        with _parts(3), pytest.raises(ValueError, match="adam"):
            _fit_bytes(model, dataset)
        _no_children_left()

    def test_calls_in_one_scope_keep_nothing_from_the_last(self):
        # a center that some worker rows reach in one call and none in the next
        grid = build_grid(-2.0, 2.0, 60, 0.05)
        rng = np.random.default_rng(46)
        a, v = rng.standard_normal(60), rng.standard_normal(20)
        zs = [_with_non_finite(rng, rng.uniform(-3.0, 3.0, (50, 20))), rng.uniform(0.0, 0.2, (40, 20))]
        zs += [zs[0], zs[1][:7], rng.uniform(-0.5, 0.5, (3, 20)), zs[0][:0]]
        want = [banded_activation(grid, a, z, vv) for z in zs for vv in (v, None)]
        with _parts(3), kernel_workers(grid, 20):
            got = [banded_activation(grid, a, z, vv) for z in zs for vv in (v, None)]
        for (g_act, g_sums), (w_act, w_sums) in zip(got, want):
            assert g_act.tobytes() == w_act.tobytes()
            assert (g_sums is None and w_sums is None) or g_sums.tobytes() == w_sums.tobytes()

    def test_calls_after_a_failure_run_here(self):
        grid = build_grid(-2.0, 2.0, 60, 0.05)
        rng = np.random.default_rng(45)
        a, v, z = rng.standard_normal(60), rng.standard_normal(20), rng.uniform(-3.0, 3.0, (50, 20))
        want = banded_activation(grid, a, z, v)
        with _parts(2), kernel_workers(grid, 20):
            os.kill(basis._pool.procs[0][0], signal.SIGKILL)
            with pytest.raises(RuntimeError, match=r"rows 25\.\.49 "):
                banded_activation(grid, a, z, v)
            _no_children_left()
            got = banded_activation(grid, a, z, v)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def _has_mallopt():
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):
        return False
    return True


class TestAllocatorPolicy:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the kernel worker needs os.fork")
    @pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt, so cli.keep_heap sets nothing")
    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="no /proc to read the worker's faults from")
    def test_training_steps_fault_no_pages_back_in(self):
        # by default glibc trimmed each call's freed temporaries and faulted them back in on the next one:
        # about 930 faults in the parent and 530 in the worker per 256-row step at the shipped geometry
        script = textwrap.dedent(
            """
            import resource
            from unittest import mock
            import numpy as np
            from rflaf import basis, cli, optim
            from rflaf.model import sample_features

            def worker_faults(pid):
                with open(f"/proc/{pid}/stat") as stat:
                    return int(stat.read().rsplit(")", 1)[1].split()[7])  # field 10, minflt

            cli.keep_heap()
            grid = basis.build_grid(-2.0, 2.0, 200, 0.04)
            model = optim.new_rflaf_model(sample_features(2, 300, 51), grid, 52)
            rng = np.random.default_rng(53)
            X, y, cfg = 2.0 * rng.standard_normal((256, 2)), rng.standard_normal(256), optim.TrainConfig()
            with mock.patch.object(basis, "_parts", lambda rows, cells_per_row: 2), basis.kernel_workers(grid, 300):
                pid = basis._pool.procs[0][0]
                for _ in range(3):
                    optim.grad(model, X, y, cfg)
                parent, worker = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, worker_faults(pid)
                for _ in range(10):
                    optim.grad(model, X, y, cfg)
                print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - parent, worker_faults(pid) - worker)
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        parent, worker = map(int, run.stdout.split())
        assert parent <= 32 * 10 and worker <= 32 * 10, (parent, worker)

    @pytest.mark.parametrize("lookup", [{"return_value": object()}, {"side_effect": TypeError}], ids=["no-mallopt", "no-symbols"])
    def test_cli_runs_where_libc_has_no_mallopt(self, lookup, tmp_path):
        with mock.patch("ctypes.CDLL", **lookup) as cdll:
            assert cli.main(["bounds", "--config", str(CONFIG_DIR / "bounds.json"), "--out", str(tmp_path)]) == 0
        cdll.assert_called_once_with(None)
