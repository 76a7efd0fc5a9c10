"""Workload definitions: configs generated from a workload seed, and the CLI calls.

Each workload is a fixed list of ``rflaf <mode>`` invocations.  The program
only ever sees the config files written here; seeds derived from the workload
seed reach it through those files (``fit``, ``label``) or through ``--seed``
(``verify``).  Derived seeds are positive whatever the workload seed is.
Every path is relative to the root of the checkout, and the same paths are
used on every run, because ``export_activation_summary.txt`` embeds the
checkpoint path and must stay byte-identical.
"""

from __future__ import annotations

import json
import os
import random

WORK_DIR = ".bench_work"

WORKLOADS = ("fit", "label", "verify")

# Shipped s1/s2 model geometry (configs/train_compare_s*.json).
_GEOMETRY = {
    "data": {"n": 6000, "dim": 2, "test_fraction": 0.2},
    "model": {"n_features": 300, "n_basis": 200, "support": [-2.0, 2.0], "width": 0.04},
}
_TRAIN = {"lambda1": 0.001, "lambda2": 0.0001, "learning_rate": 0.01, "batch_size": 256}
_BASELINES = ["relu", "tanh", "rbf1", "rbf2"]

# Workload sizes, cut so that one repetition takes a few seconds and a run
# can report the median of several.  ``fit`` trains one epoch on a small
# target sample so that Adam steps dominate; ``label`` takes a large target
# sample and half the rows so that target labelling dominates.
FIT = {"epochs": 1, "mc_samples": 2_000, "n": 6000}
LABEL = {"epochs": 1, "mc_samples": 15_000, "n": 3000}

# Modes of the ``verify`` workload: each shipped config, with these keys
# overridden to shorten the Monte Carlo work.
VERIFY_MODES = ("kernel-verify", "rate-study", "taylor-verify", "bounds")
VERIFY_OVERRIDES = {"kernel-verify": {"trials": 4}, "rate-study": {"ref_samples": 200_000}}

# Artifact files each mode writes at the parent commit, its summary first.
# Only these are compared across runs; files a later version adds (a run
# manifest with timings, say) are ignored.
ARTIFACTS = {
    "train-compare": [
        "train_compare_summary.txt",
        "model_rflaf.npz",
        "history_rflaf.txt",
        *[f"history_{b}.txt" for b in _BASELINES],
        "activation_learned.txt",
        "activation_true.txt",
        "activation_aligned.txt",
    ],
    "export-activation": [
        "export_activation_summary.txt",
        "activation_learned.txt",
        "activation_true.txt",
        "activation_aligned.txt",
    ],
    "kernel-verify": ["kernel_verify_summary.txt", "kernel_verify.txt"],
    "rate-study": ["rate_study_summary.txt", "rate_study.txt"],
    "taylor-verify": ["taylor_verify_summary.txt", "taylor_recurrence.txt", "taylor_series.txt"],
    "bounds": ["bounds.txt"],
}


def workload_dir(workload: str) -> str:
    return os.path.join(WORK_DIR, workload)


def out_dir(workload: str, mode: str) -> str:
    return os.path.join(workload_dir(workload), "out", mode.replace("-", "_"))


def derived_seeds(seed: int, count: int) -> list[int]:
    """``count`` seeds in [1, 2**31) that depend only on the workload seed."""
    rng = random.Random(f"rflaf-bench:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def _train_compare(sigma: str, size: dict, seed: int) -> dict:
    run_seed, target_seed = derived_seeds(seed, 2)
    return {
        "seed": run_seed,
        "target": {"sigma": sigma, "b1": [1.0, 0.0], "b2": [0.0, 1.0], "mc_samples": size["mc_samples"], "seed": target_seed},
        "data": {**_GEOMETRY["data"], "n": size["n"]},
        "model": _GEOMETRY["model"],
        "train": {**_TRAIN, "epochs": size["epochs"]},
        "baselines": _BASELINES,
        "mse_ratio_max": 0.5,
        "activation_grid_points": 401,
        "min_activation_correlation": 0.9,
    }


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=1)


def write_configs(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """Write the workload's configs and return its CLI calls as (mode, argv)."""
    cfg_dir = os.path.join(workload_dir(workload), "cfg")
    os.makedirs(cfg_dir, exist_ok=True)

    def call(mode: str, config: str, *extra: str) -> tuple[str, list[str]]:
        return mode, [mode, "--config", config, "--out", out_dir(workload, mode), *extra]

    if workload == "verify":
        (cli_seed,) = derived_seeds(seed, 1)
        calls = []
        for mode in VERIFY_MODES:
            name = mode.replace("-", "_") + ".json"
            with open(os.path.join("configs", name)) as f:
                cfg = {**json.load(f), **VERIFY_OVERRIDES.get(mode, {})}
            _write_json(os.path.join(cfg_dir, name), cfg)
            calls.append(call(mode, os.path.join(cfg_dir, name), "--seed", str(cli_seed)))
        return calls
    if workload == "fit":
        tc_path = os.path.join(cfg_dir, "train_compare.json")
        _write_json(tc_path, _train_compare("s1", FIT, seed))
        ea_path = os.path.join(cfg_dir, "export_activation.json")
        _write_json(
            ea_path,
            {
                "checkpoint": os.path.join(out_dir(workload, "train-compare"), "model_rflaf.npz"),
                "grid_points": 401,
                "target": {"sigma": "s1", "b1": [1.0, 0.0], "b2": [0.0, 1.0]},
                "min_activation_correlation": 0.9,
            },
        )
        return [call("train-compare", tc_path), call("export-activation", ea_path)]
    if workload == "label":
        tc_path = os.path.join(cfg_dir, "train_compare.json")
        _write_json(tc_path, _train_compare("s2", LABEL, seed))
        return [call("train-compare", tc_path)]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def geometry() -> dict:
    """Model geometry of the training workloads (rows per full batch, M, N)."""
    return {
        "batch_rows": _TRAIN["batch_size"],
        "n_features": _GEOMETRY["model"]["n_features"],
        "n_basis": _GEOMETRY["model"]["n_basis"],
    }
