"""Configuration-driven experiment runner behind the command-line interface.

Each mode reads a JSON config, runs one experiment, and writes plain-text
artifacts (one-line header, tab-separated, fixed float formatting) into an
output directory.  Artifacts are bit-identical across reruns of the same
config and seed.  Exit status 0 means every check the mode performs passed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from . import basis, configs, data, kernel, model, optim

__all__ = [
    "RateStudyResult",
    "rate_study",
    "parse_config",
    "run",
    "MODES",
]


@dataclass(frozen=True)
class RateStudyResult:
    m_values: list[int]
    mean_abs_err: np.ndarray
    slope: float
    check: data.CrossCheck  # the exact reference against ref_samples Monte-Carlo draws


def rate_study(
    rbf: kernel.RbfParams,
    b1: np.ndarray,
    b2: np.ndarray,
    m_values: list[int],
    trials: int,
    seed: int,
    test_points: int,
    ref_samples: int,
) -> RateStudyResult:
    """Finite-width approximation error of the single-RBF model vs width.

    The target is phi(x) = E_w[B(w.x) v(w)] with B the bump of rbf and
    v(w) = max(b1.w, b2.w), evaluated exactly by
    data.expected_max_quadrature and cross-checked against ref_samples
    Monte-Carlo draws.  For each width M the model uses v_m = v(w_m) on a
    fresh bank, and the error is the mean absolute gap over Gaussian test
    points, averaged over trials in trial order; basis.split_rows splits the
    trials, each bank keeping its seed.  Returns the per-width errors, the
    fitted log-log slope and the cross-check.
    """
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    if b1.ndim != 1 or b1.shape != b2.shape:
        raise ValueError("b1 and b2 must be vectors of equal length")
    for name, count, least in [("trials", trials, 1), ("test_points", test_points, 1), ("ref_samples", ref_samples, 2)]:
        basis.check_count(name, count, least)  # ref_samples: the cross-check needs a standard error
    for m in m_values:
        basis.check_count("m_values entry", m, 1)
    if len(set(m_values)) < 2:  # a slope needs two widths
        raise ValueError(f"m_values must hold two distinct widths, got {list(m_values)}")
    root = np.random.SeedSequence([seed, 0xA7E])
    ss_test, ss_ref, ss_banks = root.spawn(3)
    x_test = np.random.default_rng(ss_test).standard_normal((test_points, b1.shape[0]))
    knots = tuple(rbf.center + k * rbf.width for k in (-6, -3, 0, 3, 6))

    def bump(z):
        return basis.bumps(z, rbf.center, rbf.width)

    def phi(X):
        return data.expected_max_quadrature(X, bump, (-math.inf, math.inf), knots, b1, b2)

    phi_ref = phi(x_test)
    check = data.cross_check(phi, ss_ref, ref_samples, bump, b1, b2, 1.0)
    bank_seeds = ss_banks.spawn(len(m_values) * trials)  # width i, trial t: bank i * trials + t
    trial_errs = np.zeros((trials, len(m_values)))

    def run_trials(lo, hi, dst):
        for t in range(lo, hi):
            for i, m in enumerate(m_values):
                est = data.mc_expected_max(bank_seeds[i * trials + t], m, x_test, bump, b1, b2, 1.0)[0]
                dst[0][t - lo, i] = np.mean(np.abs(est - phi_ref))

    basis.split_rows(trials, run_trials, (trial_errs,), sum(m_values) * (test_points + b1.shape[0]))
    errs = np.array([np.mean(col.tolist()) for col in trial_errs.T])  # over the trials in trial order
    if np.all(errs > 0):
        slope = float(np.polyfit(np.log(np.asarray(m_values, dtype=float)), np.log(errs), 1)[0])
    else:
        slope = float("nan")
    return RateStudyResult(m_values=list(m_values), mean_abs_err=errs, slope=slope, check=check)


# --- mode runners: each takes its parsed config and returns its summary lines (see run)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "yes" if x else "no"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _write_lines(out_dir: str, name: str, lines) -> None:
    with open(os.path.join(out_dir, name), "w") as f:
        for line in lines:
            f.write(line + "\n")


def _write_table(out_dir: str, name: str, columns: list[str], rows) -> None:
    _write_lines(out_dir, name, ["\t".join(columns), *("\t".join(_fmt(v) for v in row) for row in rows)])


def _check_line(what: str, check: data.CrossCheck) -> tuple[str, bool]:
    return (
        f"{what} vs monte carlo ({check.samples} samples): {check.points - check.failures}/{check.points} points "
        f"within {_fmt(data.CHECK_STDERRS)} stderr (worst {_fmt(check.worst)})",
        check.ok,
    )


def _run_kernel_verify(cfg: configs.KernelVerifyConfig, out_dir: str) -> list:
    root = np.random.SeedSequence([cfg.seed, 0x5EED])
    pair_rng = np.random.default_rng(root.spawn(1)[0])
    mc_seeds = iter(int(s) for s in root.generate_state(len(cfg.dims) * len(cfg.rbfs) * cfg.trials))
    jobs = [
        (d, params, t, pair_rng.standard_normal(d), pair_rng.standard_normal(d), next(mc_seeds))
        for d in cfg.dims
        for params in cfg.rbfs
        for t in range(cfg.trials)
    ]
    estimates = np.zeros((len(jobs), 2))  # each job's (mean, stderr)

    def run_jobs(lo, hi, dst):
        for j in range(lo, hi):
            _, params, _, x, x2, seed = jobs[j]
            est = kernel.kernel_mc(x, x2, params, cfg.samples, seed)
            dst[0][j - lo] = est.mean, est.stderr

    basis.split_rows(len(jobs), run_jobs, (estimates,), 3 * cfg.samples)  # mc_mean's cells: 1 row, dim <= 2
    rows, summary, need = [], [], max(1, cfg.trials - 1)
    for (d, params, t, x, x2, _), (mean, stderr) in zip(jobs, estimates.tolist()):
        closed = kernel.kernel_closed(x, x2, params)
        diff = abs(closed - mean)
        rows.append((d, params.center, params.width, t, closed, mean, stderr, diff, 4.0 * stderr, diff <= 4.0 * stderr))
        if t == cfg.trials - 1:
            passes = sum(row[-1] for row in rows[-cfg.trials :])
            text = f"setting d={d} c={_fmt(params.center)} h={_fmt(params.width)}: {passes}/{cfg.trials} trials pass"
            summary.append((f"{text} (need >= {need})", passes >= need))
    columns = ["d", "c", "h", "trial", "closed", "mc_mean", "mc_stderr", "abs_diff", "four_stderr", "pass"]
    _write_table(out_dir, "kernel_verify.txt", columns, rows)
    return summary


def _run_taylor_verify(cfg: configs.TaylorVerifyConfig, out_dir: str) -> list:
    rec_rows = []
    for p in cfg.p_values:
        derivs = kernel.taylor_derivs(p, cfg.n_max)
        for n in range(cfg.n_max + 1):
            closed = kernel.taylor_deriv(p, n)
            denom = max(abs(closed), abs(derivs[n]))
            rel = abs(derivs[n] - closed) / denom if denom > 0 else 0.0
            rec_rows.append((p, n, derivs[n], closed, rel, rel <= cfg.rel_tol))
    _write_table(out_dir, "taylor_recurrence.txt", ["p", "n", "recurrence", "closed_form", "rel_err", "pass"], rec_rows)

    series = cfg.series
    series_rows = []
    for params in series.rbfs:
        worst = 0.0
        for r in np.linspace(-1.0, 1.0, series.grid_points):
            err = abs(kernel.kernel_taylor(float(r), params, series.n_terms) - kernel.kernel_rot(float(r), params))
            worst = max(worst, err)
        series_rows.append((params.width, params.center, series.n_terms, worst, series.tol, worst <= series.tol))
    _write_table(out_dir, "taylor_series.txt", ["h", "c", "n_terms", "max_abs_err", "tol", "pass"], series_rows)
    rec_ok, series_ok = all(row[-1] for row in rec_rows), all(row[-1] for row in series_rows)
    return [
        (f"derivative recurrence vs closed form (rel tol {_fmt(cfg.rel_tol)})", rec_ok),
        (f"series partial sums vs closed form (abs tol {_fmt(series.tol)}, {series.n_terms} terms)", series_ok),
    ]


def _run_rate_study(cfg: configs.RateStudyConfig, out_dir: str) -> list:
    result = rate_study(cfg.rbf, cfg.b1, cfg.b2, cfg.m_values, cfg.trials, cfg.seed, cfg.test_points, cfg.ref_samples)
    _write_table(out_dir, "rate_study.txt", ["m", "mean_abs_err"], zip(result.m_values, result.mean_abs_err))
    lo, hi = cfg.slope_range
    return [
        f"fitted log-log slope: {_fmt(result.slope)}",
        (f"expected slope range: [{_fmt(lo)}, {_fmt(hi)}]", math.isfinite(result.slope) and lo <= result.slope <= hi),
        _check_line("reference quadrature", result.check),
    ]


def _activation_tables(out_dir: str, grid: basis.ActivationGrid, a: np.ndarray, grid_points: int, spec):
    """Write the learned activation table and, given a target, the true and
    scale-aligned ones; returns (scale, correlation) against the target."""
    zs = np.linspace(grid.support_lo, grid.support_hi, grid_points)
    curves = {"learned": basis.activation_curve(grid, a, zs)}
    scale = corr = None
    if spec is not None:
        learned, true_vals = curves["learned"], spec.sigma(zs)
        dot = basis.row_dot
        denom = float(dot(learned, learned))
        scale = float(dot(learned, true_vals)) / denom if denom > 0 else 0.0
        curves.update(true=true_vals, aligned=scale * learned)
        uc, wc = curves["aligned"] - curves["aligned"].mean(), true_vals - true_vals.mean()
        denom = math.sqrt(float(dot(uc, uc)) * float(dot(wc, wc)))  # Pearson correlation of aligned and true
        corr = float(dot(uc, wc)) / denom if scale != 0 and denom != 0 else 0.0
    for name, values in curves.items():
        _write_table(out_dir, f"activation_{name}.txt", ["z", "activation"], zip(zs, values))
    return scale, corr


def _run_train_compare(cfg: configs.TrainCompareConfig, out_dir: str) -> list:
    try:
        calib = data.calibrate(cfg.spec)
    except ValueError as exc:
        target = f"sigma {cfg.spec.sigma_kind}, b1 {cfg.spec.b1.tolist()}, b2 {cfg.spec.b2.tolist()}"
        raise configs.ConfigError(f"target ({target}): {exc}") from exc
    spec = cfg.spec.with_calib(calib)
    check = data.TargetSampler(spec).cross_check()
    dim = cfg.data.dim
    dataset = data.gen_dataset(spec, cfg.data.n, cfg.data.test_fraction, cfg.seed + 1)

    grid = cfg.model.grid
    ss = np.random.SeedSequence([cfg.seed, 0x7121]).spawn(3 + 2 * len(cfg.baselines))
    shuffle, bank_seed, init_seed, *baseline_seeds = (int(s.generate_state(1)[0]) for s in ss)  # two per baseline
    lines = [f"calibration constant: {_fmt(calib)}", _check_line("target quadrature", check)]
    bank = model.sample_features(dim, cfg.model.n_features, bank_seed)
    name = "rflaf"  # the model in training, as a Diverged check names it
    try:
        trained, history = optim.train(optim.new_rflaf_model(bank, grid, init_seed), dataset, cfg.train, shuffle)
        histories = {name: history}
        for name, b_bank_seed, b_init_seed in zip(cfg.baselines, baseline_seeds[::2], baseline_seeds[1::2]):
            b_bank = model.sample_features(dim, cfg.model.n_features + cfg.model.n_basis, b_bank_seed)
            b_model = optim.new_baseline_model(b_bank, name, b_init_seed)
            histories[name] = optim.train_baseline(b_model, dataset, cfg.train, shuffle)[1]
    except optim.Diverged as exc:  # the run stops there and writes no other artifact
        return [*lines, (f"training {name}: {exc}", False)]
    model.save_model(trained, os.path.join(out_dir, "model_rflaf.npz"))
    for name, rows in histories.items():
        history_rows = [(row.epoch, row.train_total, row.train_mse, row.test_mse) for row in rows]
        _write_table(out_dir, f"history_{name}.txt", ["epoch", "train_total", "train_mse", "test_mse"], history_rows)
    final_mse = {name: rows[-1].test_mse for name, rows in histories.items()}

    scale, corr = _activation_tables(out_dir, grid, trained.a, cfg.activation_grid_points, spec)

    best_baseline = min(final_mse[k] for k in cfg.baselines)
    ratio = final_mse["rflaf"] / best_baseline if best_baseline > 0 else float("inf")
    min_corr = cfg.min_activation_correlation
    return [
        *lines,
        *(f"final test mse {name}: {_fmt(mse)}" for name, mse in final_mse.items()),
        (f"mse ratio rflaf/best-baseline: {_fmt(ratio)} (max {_fmt(cfg.mse_ratio_max)})", ratio <= cfg.mse_ratio_max),
        f"activation alignment scale: {_fmt(scale)}",
        (f"activation correlation: {_fmt(corr)} (min {_fmt(min_corr)})", corr >= min_corr),
    ]


def _run_export_activation(cfg: configs.ExportActivationConfig, out_dir: str) -> list:
    try:
        trained = model.load_model(cfg.checkpoint)
    except (OSError, ValueError) as exc:
        raise configs.ConfigError(f"cannot load checkpoint {cfg.checkpoint!r}: {exc}") from exc
    scale, corr = _activation_tables(out_dir, trained.grid, trained.a, cfg.grid_points, cfg.spec)
    lines = [f"checkpoint: {cfg.checkpoint}", f"grid points: {cfg.grid_points}"]
    if cfg.spec is not None:
        lines += [f"activation alignment scale: {_fmt(scale)}", f"activation correlation: {_fmt(corr)}"]
        min_corr = cfg.min_activation_correlation
        if min_corr is not None:
            lines.append((f"correlation threshold {_fmt(min_corr)}", corr >= min_corr))
    return lines


def _run_bounds(cfg: configs.BoundsConfig, out_dir: str) -> list:
    lines = [
        f"width h: {_fmt(cfg.width)}",
        f"grid size N: {cfg.n_basis}",
        f"feature count M: {cfg.n_features}",
        f"delta: {_fmt(cfg.delta)}",
        f"sigma sup norm: {_fmt(cfg.sigma_sup)}",
        f"support length: {_fmt(cfg.support_len)}",
        f"radius R: {_fmt(cfg.radius)}",
        f"a norm bound: {_fmt(cfg.report.a_norm_bound)}",
        f"v norm bound: {_fmt(cfg.report.v_norm_bound)}",
        f"f sup bound: {_fmt(cfg.report.f_sup_bound)}",
    ]
    if cfg.schedule is not None:
        h_max, spacing_max = cfg.schedule
        lines.append(f"sufficient width for epsilon: {_fmt(h_max)}")
        lines.append(f"sufficient grid spacing for epsilon: {_fmt(spacing_max)}")
    return lines


# mode -> (config class, runner, summary file)
MODES = {
    "kernel-verify": (configs.KernelVerifyConfig, _run_kernel_verify, "kernel_verify_summary.txt"),
    "taylor-verify": (configs.TaylorVerifyConfig, _run_taylor_verify, "taylor_verify_summary.txt"),
    "rate-study": (configs.RateStudyConfig, _run_rate_study, "rate_study_summary.txt"),
    "train-compare": (configs.TrainCompareConfig, _run_train_compare, "train_compare_summary.txt"),
    "export-activation": (configs.ExportActivationConfig, _run_export_activation, "export_activation_summary.txt"),
    "bounds": (configs.BoundsConfig, _run_bounds, "bounds.txt"),
}


def load_config(path: str) -> dict:
    try:
        with open(path) as f:
            cfg = json.load(f)
    except OSError as exc:
        raise configs.ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise configs.ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise configs.ConfigError(f"config {path!r} must hold a JSON object")
    return cfg


def parse_config(mode: str, config: dict, seed_override: int | None = None):
    """The mode's frozen config (rflaf.configs) built from JSON; every check and
    every domain object the mode builds from its config runs here, before any sampling.
    seed_override replaces the seed of a mode whose config has one; the others draw nothing."""
    if mode not in MODES:
        raise configs.ConfigError(f"unknown mode {mode!r}; expected one of {sorted(MODES)}")
    cls = MODES[mode][0]
    if seed_override is not None and "seed" in {f.name for f in fields(cls)}:
        config = dict(config, seed=seed_override)
    return configs.parse(cls, config, f"{mode} config")


def run(mode: str, config: dict, out_dir: str, seed_override: int | None = None) -> int:
    """Run one experiment mode and write its summary; returns the process exit code.

    The mode's runner returns its summary lines, each a string or a check
    (text, ok), written as "text: PASS" or "text: FAIL"; a summary holding a
    check ends in "overall: PASS|FAIL".  The exit code is 0 when every check
    passed and 1 otherwise; config problems raise configs.ConfigError (mapped to
    exit code 2 by the CLI).
    """
    cfg = parse_config(mode, config, seed_override)
    os.makedirs(out_dir, exist_ok=True)
    _, runner, summary = MODES[mode]
    lines = runner(cfg, out_dir)
    checks = [line[1] for line in lines if isinstance(line, tuple)]
    if checks:
        lines.append(("overall", all(checks)))
    text = (line if isinstance(line, str) else f"{line[0]}: {'PASS' if line[1] else 'FAIL'}" for line in lines)
    _write_lines(out_dir, summary, text)
    return 0 if all(checks) else 1
