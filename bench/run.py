"""rflaf benchmark: real CLI workloads, end-to-end metrics and a traced layer split.

    python3 bench/run.py --workload {fit,label,verify} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Load model: a closed loop with one client.
Each repetition is one fresh child process (bench/child.py) that runs the
workload's ``rflaf <mode>`` calls one after another; the next child starts
only after the previous one has exited.  Thread settings are left at their
defaults and recorded.

``--trace 0`` repeats the workload untraced while ``--seconds`` allows (at
least once) and reports medians of the end-to-end metrics.  ``--trace 1``
runs it once untraced and once traced, then the layer probes, and reports
the per-layer metrics.  Human-readable lines come first; the last line of
stdout is one JSON object.  See bench/README.md for the workloads and the
metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
# A run, children included, gives up after this long.
RUN_DEADLINE_S = 170
# Set-up-only children per untraced run, on top of one per repetition.
SETUP_REPEATS = 4
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Passes over the (rows*M, N) float64 buffer in one training step:
# _basis_flat writes it (subtract), then reads and writes it three times
# (square, negate, exp); the gradient reads it twice (e @ a and e.T @ r).
BUFFER_PASSES_PER_STEP = 1 + 2 * 3 + 2
_NONFINITE = {"nan", "-nan", "inf", "-inf", "+inf", "infinity", "-infinity"}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a child that crashed)."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over the package sources; identifies the build when git does not."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": _git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one child to completion and return what it measured."""
    results_dir = os.path.join(workloads.WORK_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"child-{workload}.json")
    if os.path.exists(path):
        os.remove(path)
    spawned_at = time.time()
    proc = subprocess.run(
        [sys.executable, CHILD, workload, str(seed), repr(spawned_at), path, mode],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0 or not os.path.exists(path):
        raise BenchError(f"{mode} child for {workload} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# outputs: digests, non-finite values, quality figures
# ---------------------------------------------------------------------------


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _has_nonfinite(path: str) -> bool:
    if path.endswith(".npz"):
        import numpy as np

        with np.load(path, allow_pickle=False) as z:
            return any(z[k].dtype.kind == "f" and not np.all(np.isfinite(z[k])) for k in z.files)
    with open(path) as f:
        return any(tok.strip(",:()[]").lower() in _NONFINITE for tok in f.read().split())


def inspect_outputs(workload: str, calls: list[dict]) -> dict:
    """Per call: artifact digests and the problems that make the call fail."""
    report = {}
    for call in calls:
        mode = call["mode"]
        out = workloads.out_dir(workload, mode)
        problems = []
        if call["code"] is None:
            problems.append("raised: " + call["error"].strip().splitlines()[-1])
        elif call["code"] not in (0, 1):
            problems.append(f"exit code {call['code']}")
        digests = {}
        for name in workloads.ARTIFACTS[mode]:
            path = os.path.join(out, name)
            if not os.path.isfile(path):
                problems.append(f"missing {name}")
                continue
            digests[name] = _sha256(path)
            if _has_nonfinite(path):
                problems.append(f"non-finite value in {name}")
        report[mode] = {"code": call["code"], "digests": digests, "problems": problems}
    return report


def check_reference(workload: str, seed: int, env: dict, report: dict) -> None:
    """Add a problem for each artifact that differs from the first run at this build.

    The reference is the first clean run of this workload and seed with these
    sources and this numpy; it is kept in the work directory of the checkout.
    """
    key = hashlib.sha256(f"{workload}|{seed}|{env['src_sha256']}|{env['numpy']}|{env['blas']}".encode()).hexdigest()
    ref_dir = os.path.join(workloads.WORK_DIR, "ref")
    os.makedirs(ref_dir, exist_ok=True)
    path = os.path.join(ref_dir, f"{workload}-{key[:24]}.json")
    current = {mode: r["digests"] for mode, r in report.items()}
    if not os.path.exists(path):
        if any(r["problems"] for r in report.values()):
            return
        with open(path, "w") as f:
            json.dump(current, f, indent=1, sort_keys=True)
        return
    with open(path) as f:
        reference = json.load(f)
    for mode, r in report.items():
        for name, digest in r["digests"].items():
            if reference.get(mode, {}).get(name) != digest:
                r["problems"].append(f"{name} differs from the first run at this build")


def _summary_lines(workload: str, mode: str) -> list[str]:
    path = os.path.join(workloads.out_dir(workload, mode), workloads.ARTIFACTS[mode][0])
    if not os.path.isfile(path):
        return []
    with open(path) as f:
        return f.read().splitlines()


def _summary_value(lines: list[str], prefix: str) -> float:
    for line in lines:
        if line.startswith(prefix):
            return float(line[len(prefix) :].split()[0])
    return math.nan


def _table_column(path: str, column: str) -> list[float]:
    with open(path) as f:
        header = f.readline().rstrip("\n").split("\t")
        j = header.index(column)
        return [float(line.split("\t")[j]) for line in f if line.strip()]


def _bounds_match_formula(workload: str) -> bool:
    """bounds.txt against the three bounds recomputed here from configs/bounds.json."""
    with open(os.path.join("configs", "bounds.json")) as f:
        cfg = json.load(f)
    log_term = math.log(2.0 / cfg["delta"])
    h, s, k, r = cfg["width"], cfg["sigma_sup"], cfg["support_len"], cfg["radius"]
    expect = {
        "a norm bound: ": s * k / (h * math.sqrt(2.0 * math.pi * cfg["n_basis"])),
        "v norm bound: ": 7.0 * r * math.sqrt(cfg["n_features"] * log_term),
        "f sup bound: ": 7.0 * s * k * r * math.sqrt(log_term) / (h * math.sqrt(2.0 * math.pi)),
    }
    lines = _summary_lines(workload, "bounds")
    return all(math.isclose(_summary_value(lines, p), v, rel_tol=1e-12) for p, v in expect.items())


def quality(workload: str, report: dict) -> tuple[dict, list[str]]:
    """Quality figures of the artifacts, and the checks this benchmark makes on them."""
    q: dict[str, float] = {}
    broken: list[str] = []
    fails = [
        line
        for mode in report
        for line in _summary_lines(workload, mode)
        if line.endswith(": FAIL") and not line.startswith("overall")
    ]
    q["checks_failed"] = len(fails)
    if workload in ("fit", "label"):
        lines = _summary_lines(workload, "train-compare")
        q["model_test_mse"] = _summary_value(lines, "final test mse rflaf: ")
        q["mse_ratio"] = _summary_value(lines, "mse ratio rflaf/best-baseline: ")
        q["activation_corr"] = _summary_value(lines, "activation correlation: ")
        history = os.path.join(workloads.out_dir(workload, "train-compare"), "history_rflaf.txt")
        rows = _table_column(history, "test_mse") if os.path.isfile(history) else []
        if not rows or rows[-1] != q["model_test_mse"]:
            broken.append("final rflaf test mse in the summary differs from the last history row")
    if workload == "fit":
        learned = report["train-compare"]["digests"].get("activation_learned.txt")
        if learned is None or learned != report["export-activation"]["digests"].get("activation_learned.txt"):
            broken.append("activation from the reloaded checkpoint differs from the trained one")
    if workload == "verify":
        series = os.path.join(workloads.out_dir(workload, "taylor-verify"), "taylor_series.txt")
        rate = _summary_lines(workload, "rate-study")
        if os.path.isfile(series) and rate:
            q["taylor_max_err"] = max(_table_column(series, "max_abs_err"))
            q["rate_slope_gap"] = abs(_summary_value(rate, "fitted log-log slope: ") + 0.5)
        if not _bounds_match_formula(workload):
            broken.append("bounds.txt disagrees with the bound formulas")
    broken += [f"{k} is not finite" for k, v in q.items() if not math.isfinite(v)]
    return q, broken


def artifact_bytes(workload: str) -> int:
    total = 0
    for root, _, files in os.walk(os.path.join(workloads.workload_dir(workload), "out")):
        total += sum(os.path.getsize(os.path.join(root, name)) for name in files)
    return total


# ---------------------------------------------------------------------------
# spans -> per-layer metrics
# ---------------------------------------------------------------------------


class SpanStats:
    """Self time, total time, call count and work count per span name."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.self_time = [end - start - child_time[i] for i, (_, start, end, _, _) in enumerate(spans)]

    def _select(self, name: str, parent: str | None = None):
        for i, (n, _, _, p, _) in enumerate(self.spans):
            if n == name and (parent is None or (p >= 0 and self.spans[p][0] == parent)):
                yield i

    def total(self, name: str) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in self._select(name))

    def self_s(self, name: str) -> float:
        return sum(self.self_time[i] for i in self._select(name))

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(1 for _ in self._select(name, parent))

    def work(self, name: str) -> int:
        return sum(self.spans[i][4] for i in self._select(name))

    def cli_self(self) -> float:
        return sum(t for (n, *_), t in zip(self.spans, self.self_time) if n.startswith("cli."))

    def layer_self(self) -> dict[str, float]:
        """Self time per layer; the CLI calls' own time counts as experiments."""
        out: dict[str, float] = {}
        for (name, *_), t in zip(self.spans, self.self_time):
            layer = "experiments" if name.startswith("cli.") else name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + t
        return out


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def per_layer(traced: dict, overhead_s: float, artifact_bytes_: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced rep's spans, its probes and counts."""
    st = SpanStats(traced["spans"])
    traced_wall = wall(traced)
    probes = traced["probes"]
    steps = st.calls("optim.adam_step", parent="optim.train")
    train_self = st.self_s("optim.train")
    geo = workloads.geometry()
    bump_evals = geo["batch_rows"] * geo["n_features"] * geo["n_basis"] if steps else 0
    predict_s, means_s, mc_s = st.total("optim.predict_batch"), st.total("data.means"), st.total("kernel.kernel_mc")
    layers = st.layer_self()
    return {
        "optim.train_self_s": (train_self, "s"),
        "optim.steps": (steps, "count"),
        "optim.step_ms": (1e3 * train_self / steps if steps else 0.0, "ms"),
        "optim.predict_batch_s": (predict_s, "s"),
        "optim.predict_calls": (st.calls("optim.predict_batch"), "count"),
        "optim.predict_rows_per_s": (_rate(st.work("optim.predict_batch"), predict_s), "1/s"),
        "optim.adam_step_s": (st.total("optim.adam_step"), "s"),
        "optim.train_baseline_s": (st.total("optim.train_baseline"), "s"),
        "optim.bump_evals_per_step": (bump_evals, "count"),
        "optim.bytes_per_step": (8 * bump_evals * BUFFER_PASSES_PER_STEP, "B"),
        "optim.grad_256_ms": (probes["optim.grad_256_ms"], "ms"),
        "optim.predict_1200_ms": (probes["optim.predict_1200_ms"], "ms"),
        "optim.self_s": (layers.get("optim", 0.0), "s"),
        "basis.bump_useful_ratio": (traced.get("bump_useful_ratio", 0.0), "ratio"),
        "basis.activation_curve_s": (st.total("basis.activation_curve"), "s"),
        "model.save_model_s": (st.total("model.save_model"), "s"),
        "model.load_model_s": (st.total("model.load_model"), "s"),
        "data.calibrate_s": (st.total("data.calibrate"), "s"),
        "data.gen_dataset_s": (st.total("data.gen_dataset"), "s"),
        "data.means_s": (means_s, "s"),
        "data.means_calls": (st.calls("data.means"), "count"),
        "data.label_evals": (st.work("data.means"), "count"),
        "data.label_evals_per_s": (_rate(st.work("data.means"), means_s), "1/s"),
        "data.means_512_ms": (probes["data.means_512_ms"], "ms"),
        "data.self_s": (layers.get("data", 0.0), "s"),
        "kernel.kernel_mc_s": (mc_s, "s"),
        "kernel.kernel_mc_calls": (st.calls("kernel.kernel_mc"), "count"),
        "kernel.mc_samples": (st.work("kernel.kernel_mc"), "count"),
        "kernel.mc_samples_per_s": (_rate(st.work("kernel.kernel_mc"), mc_s), "1/s"),
        "kernel.kernel_taylor_s": (st.total("kernel.kernel_taylor"), "s"),
        "kernel.kernel_taylor_calls": (st.calls("kernel.kernel_taylor"), "count"),
        "kernel.mc_1e6_ms": (probes["kernel.mc_1e6_ms"], "ms"),
        "kernel.taylor_101x80_ms": (probes["kernel.taylor_101x80_ms"], "ms"),
        "kernel.self_s": (layers.get("kernel", 0.0), "s"),
        "experiments.rate_study_s": (st.total("experiments.rate_study"), "s"),
        "experiments.cli_self_s": (st.cli_self(), "s"),
        "experiments.artifact_bytes": (artifact_bytes_, "B"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.coverage": (1.0 - st.cli_self() / traced_wall, "ratio"),
        "trace.spans": (len(st.spans), "count"),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def wall(rep: dict) -> float:
    return sum(c["seconds"] for c in rep["calls"])


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True), flush=True)
    deadline = time.monotonic() + RUN_DEADLINE_S

    def rep(mode: str) -> dict:
        r = spawn(workload, seed, mode, deadline)
        if mode != "setup":
            r["report"] = inspect_outputs(workload, r["calls"])
            check_reference(workload, seed, env, r["report"])
        return r

    setups = [] if trace else [rep("setup")["setup_s"] for _ in range(SETUP_REPEATS)]
    t0 = time.monotonic()
    plain = [rep("plain")]
    q, broken = quality(workload, plain[0]["report"])
    first_bytes = artifact_bytes(workload)
    if trace:
        # Untraced reps on both sides of the traced one, so that drift over
        # the run does not show up as tracing overhead.
        traced = rep("traced")
        plain.append(rep("plain"))
    else:
        while time.monotonic() - t0 + statistics.median(map(wall, plain)) <= seconds:
            plain.append(rep("plain"))
    runs = plain + ([traced] if trace else [])
    problems = [f"{mode}: {p}" for r in runs for mode, m in r["report"].items() for p in m["problems"]]
    attempted = sum(len(r["report"]) for r in runs)
    failed = sum(bool(m["problems"]) for r in runs for m in r["report"].values())
    walls = [wall(r) for r in plain]
    setups += [r["setup_s"] for r in plain]
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "env": env,
        "reps": len(plain),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "broken": broken,
        "end_to_end": {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
            "ops_failed": (failed / attempted, "share"),
            **{k: (v, "count" if k == "checks_failed" else "-") for k, v in q.items()},
        },
        "wall_samples_s": walls,
        "setup_samples_s": setups,
    }
    if trace:
        result["per_layer"] = per_layer(traced, wall(traced) - statistics.median(walls), first_bytes)
        result["spans"] = traced["spans"]
    return result


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>18.6g} {unit}")


def _declared_metrics(kind: str) -> list[dict]:
    with open("BENCHMARK.json") as f:
        return json.load(f)[kind]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "rflaf", "cli.py")):
        print("error: run from the root of an rflaf checkout (src/rflaf/cli.py not found)", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = os.path.join(workloads.WORK_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
    print(
        f"{args.workload} seed={args.seed}: {result['reps']} untraced rep(s), "
        f"{result['attempted']} CLI calls, {result['failed']} failed; full result in {out}"
    )
    for line in result["problems"] + result["broken"]:
        print(f"  problem: {line}")
    _print_table("end to end (untraced, median over reps):", result["end_to_end"])
    if args.trace:
        _print_table("per layer (traced rep and probes):", result["per_layer"])
        layers = SpanStats(result["spans"]).layer_self()
        traced_wall = result["per_layer"]["trace.wall_s"][0]
        shares = sorted(layers.items(), key=lambda kv: -kv[1])
        print("layer shares of traced wall: " + ", ".join(f"{k} {v / traced_wall:.1%}" for k, v in shares))
    names = [m["name"] for m in _declared_metrics("per_layer" if args.trace else "end_to_end")]
    source = result["per_layer"] if args.trace else result["end_to_end"]
    print(
        json.dumps(
            {
                "correct": not result["problems"] and not result["broken"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {n: {"value": source[n][0], "unit": source[n][1]} for n in names},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
