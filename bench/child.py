"""One fresh process per workload repetition.

    python3 bench/child.py WORKLOAD SEED SPAWNED_AT RESULT_JSON MODE

MODE is ``setup`` (import and write configs only), ``plain`` (run the CLI
calls untraced) or ``traced`` (run them with spans, then the layer probes).
SPAWNED_AT is the parent's ``time.time()`` just before it started this
process, so ``setup_s`` includes interpreter start-up.  The child runs the
real ``rflaf.cli.main`` for each call and writes what it measured to
RESULT_JSON; the parent derives all metrics.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

sys.path.insert(0, "src")
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

# Repeats of each layer probe; the median is reported.
PROBE_REPEATS = 5


class Tracer:
    """In-memory spans: (name, start, end, parent index, work count)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, count=None):
        i = self.open(name, count)
        try:
            yield
        finally:
            self.close(i)

    def open(self, name: str, count) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, count])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr by a wrapper recording one span per call."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name, count(*args, **kwargs) if count else None):
                return fn(*args, **kwargs)

        self._originals.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()


def install_spans(tracer: Tracer) -> None:
    """Wrap each layer's public functions where the CLI looks them up at call time.

    ``cli.py`` binds ``experiments.run`` at import, so the outer span per call
    is opened by ``run_calls`` instead.
    """
    from rflaf import basis, data, experiments, kernel, model, optim

    tracer.wrap(data, "calibrate", "data.calibrate")
    tracer.wrap(data, "gen_dataset", "data.gen_dataset")
    tracer.wrap(data.TargetSampler, "means", "data.means", lambda self, X: len(X) * self.spec.mc_samples)
    tracer.wrap(optim, "train", "optim.train")
    tracer.wrap(optim, "train_baseline", "optim.train_baseline")
    tracer.wrap(optim, "predict_batch", "optim.predict_batch", lambda model_, X: len(X))
    tracer.wrap(optim, "adam_step", "optim.adam_step")
    tracer.wrap(kernel, "kernel_mc", "kernel.kernel_mc", lambda x, x2, params, samples, seed: samples)
    tracer.wrap(kernel, "kernel_taylor", "kernel.kernel_taylor")
    tracer.wrap(experiments, "rate_study", "experiments.rate_study")
    tracer.wrap(basis, "activation_curve", "basis.activation_curve")
    tracer.wrap(model, "save_model", "model.save_model")
    tracer.wrap(model, "load_model", "model.load_model")


def run_calls(calls, tracer: Tracer | None) -> list[dict]:
    """Run each CLI call in turn; a raise counts as a failed call, not a crash."""
    from rflaf import cli

    results = []
    for mode, argv in calls:
        error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(f"cli.{mode}"):
                    code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            error = traceback.format_exc()
        results.append({"mode": mode, "argv": argv, "seconds": time.perf_counter() - t0, "code": code, "error": error})
    return results


def bump_useful_ratio(checkpoint: str, seed: int, rows: int = 2000) -> float:
    """Share of (pre-activation, center) pairs whose bump exceeds 1e-16.

    Pre-activations come from the checkpoint's bank on N(0, I) inputs, which
    is the input distribution of every training workload.
    """
    import numpy as np

    from rflaf import model

    m = model.load_model(checkpoint)
    x = np.random.default_rng(seed).standard_normal((rows, m.bank.dim))
    z = (x @ m.bank.weights.T).reshape(-1)
    cutoff = m.grid.width * np.sqrt(2.0 * np.log(1e16))
    useful = np.searchsorted(m.grid.centers, z + cutoff, "left") - np.searchsorted(m.grid.centers, z - cutoff, "right")
    return float(useful.sum()) / (z.size * m.grid.n_basis)


def _median_ms(fn, repeats: int = PROBE_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def layer_probes(seed: int) -> dict:
    """Median times of single layer calls at the shipped s1 geometry."""
    import numpy as np

    from rflaf import basis, data, kernel, model, optim

    s_bank, s_init, s_x, s_target, s_mc = workloads.derived_seeds(seed, 5)
    geo = workloads.geometry()
    bank = model.sample_features(2, geo["n_features"], s_bank)
    grid = basis.build_grid(-2.0, 2.0, geo["n_basis"], 0.04)
    rf = optim.new_rflaf_model(bank, grid, s_init)
    rng = np.random.default_rng(s_x)
    x256, y256 = rng.standard_normal((256, 2)), rng.standard_normal(256)
    x1200 = rng.standard_normal((1200, 2))
    x512 = rng.standard_normal((512, 2))
    spec = data.TargetSpec(sigma_kind="s1", b1=[1.0, 0.0], b2=[0.0, 1.0], mc_samples=100_000, seed=s_target)
    sampler = data.TargetSampler(spec)
    pair = rng.standard_normal((2, 2))
    rbf = kernel.RbfParams(center=1.0, width=1.0)
    rs = np.linspace(-1.0, 1.0, 101)
    return {
        "optim.grad_256_ms": _median_ms(lambda: optim.grad(rf, x256, y256, optim.TrainConfig())),
        "optim.predict_1200_ms": _median_ms(lambda: optim.predict_batch(rf, x1200)),
        "data.means_512_ms": _median_ms(lambda: sampler.means(x512)),
        "kernel.mc_1e6_ms": _median_ms(lambda: kernel.kernel_mc(pair[0], pair[1], rbf, 1_000_000, s_mc)),
        "kernel.taylor_101x80_ms": _median_ms(lambda: [kernel.kernel_taylor(float(r), rbf, 80) for r in rs]),
    }


def main(argv: list[str]) -> int:
    workload, seed, spawned_at, result_path, mode = argv
    seed = int(seed)
    import rflaf.cli  # noqa: F401  (import cost belongs to set-up)

    shutil.rmtree(os.path.join(workloads.workload_dir(workload), "out"), ignore_errors=True)
    calls = workloads.write_configs(workload, seed)
    result = {"setup_s": time.time() - float(spawned_at)}
    if mode != "setup":
        tracer = Tracer() if mode == "traced" else None
        if tracer is not None:
            install_spans(tracer)
        result["calls"] = run_calls(calls, tracer)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.restore()
            result["spans"] = tracer.spans
            result["probes"] = layer_probes(seed)
            ckpt = os.path.join(workloads.out_dir(workload, "train-compare"), "model_rflaf.npz")
            if os.path.exists(ckpt):
                result["bump_useful_ratio"] = bump_useful_ratio(ckpt, seed)
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
