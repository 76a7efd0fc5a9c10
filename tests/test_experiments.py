"""Experiment runner, bounds calculator, and CLI surface."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import types
import typing
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from rflaf import basis, data, experiments, kernel, model
from rflaf.basis import theory_bounds
from rflaf.cli import main
from rflaf.configs import ConfigError
from rflaf.experiments import MODES, load_config, parse_config, rate_study, run
from rflaf.kernel import RbfParams

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


class TestTheoryBounds:
    def test_reference_parameter_set(self):
        report = theory_bounds(h=0.02, n_basis=400, n_features=1000, delta=0.01, sigma_sup=1.0, support_len=4.0, radius=2.0)
        assert report.a_norm_bound == pytest.approx(4.0 / (0.02 * math.sqrt(2 * math.pi * 400)), rel=1e-14)
        assert report.v_norm_bound == pytest.approx(7.0 * 2.0 * math.sqrt(1000 * math.log(200.0)), rel=1e-14)
        assert report.f_sup_bound == pytest.approx(
            7.0 * 1.0 * 4.0 * 2.0 * math.sqrt(math.log(200.0)) / (0.02 * math.sqrt(2 * math.pi)), rel=1e-14
        )
        assert report.a_norm_bound > 0 and report.v_norm_bound > 0 and report.f_sup_bound > 0

    def test_v_bound_scales_sqrt2_when_log_doubles(self):
        # log(2/0.02) = 2 log(2/0.2)
        one = theory_bounds(0.1, 10, 10, 0.2, 1.0, 4.0, 1.0)
        two = theory_bounds(0.1, 10, 10, 0.02, 1.0, 4.0, 1.0)
        assert two.v_norm_bound == pytest.approx(math.sqrt(2.0) * one.v_norm_bound, rel=1e-12)

    def test_halving_width_doubles_bounds(self):
        wide = theory_bounds(0.1, 10, 10, 0.1, 1.0, 4.0, 1.0)
        narrow = theory_bounds(0.05, 10, 10, 0.1, 1.0, 4.0, 1.0)
        assert narrow.a_norm_bound == pytest.approx(2.0 * wide.a_norm_bound, rel=1e-12)
        assert narrow.f_sup_bound == pytest.approx(2.0 * wide.f_sup_bound, rel=1e-12)
        assert narrow.v_norm_bound == wide.v_norm_bound

    def test_delta_domain(self):
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ValueError):
                theory_bounds(0.1, 10, 10, bad, 1.0, 4.0, 1.0)

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            theory_bounds(0.0, 10, 10, 0.1, 1.0, 4.0, 1.0)

    @pytest.mark.parametrize("position", [0, 1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_inputs_rejected(self, position, value):
        # a nan width gave a nan a bound, an infinite radius infinite v and f bounds
        args = [0.1, 10, 10, 0.1, 1.0, 4.0, 1.0]
        args[position] = value
        with pytest.raises(ValueError):
            theory_bounds(*args)


class TestRateStudy:
    def test_zero_target_gives_zero_error(self):
        result = rate_study(
            RbfParams(center=1.0, width=1.0),
            np.zeros(2),
            np.zeros(2),
            m_values=[8, 32],
            trials=1,
            seed=0,
            test_points=50,
            ref_samples=2000,
        )
        assert np.all(result.mean_abs_err == 0.0)
        assert math.isnan(result.slope)

    def test_reproducible(self):
        kwargs = dict(
            m_values=[16, 64],
            trials=2,
            seed=5,
            test_points=100,
            ref_samples=5000,
        )
        a = rate_study(RbfParams(1.0, 1.0), np.array([1.0, 0.0]), np.array([0.0, 1.0]), **kwargs)
        b = rate_study(RbfParams(1.0, 1.0), np.array([1.0, 0.0]), np.array([0.0, 1.0]), **kwargs)
        assert np.array_equal(a.mean_abs_err, b.mean_abs_err)
        assert a.slope == b.slope

    def test_error_shrinks_with_width(self):
        result = rate_study(
            RbfParams(1.0, 1.0),
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
            m_values=[16, 256],
            trials=4,
            seed=9,
            test_points=400,
            ref_samples=200_000,
        )
        assert result.mean_abs_err[1] < result.mean_abs_err[0]

    def test_shipped_config_pinned(self):
        # configs/rate_study.json with 200,000 cross-check samples, as the verify benchmark runs it; the
        # reference is exact, and each bank's estimate is bit-identical to the earlier per-bank estimator
        raw = dict(load_config(str(CONFIG_DIR / "rate_study.json")), ref_samples=200_000)
        cfg = parse_config("rate-study", raw)
        result = rate_study(cfg.rbf, cfg.b1, cfg.b2, cfg.m_values, cfg.trials, cfg.seed, cfg.test_points, cfg.ref_samples)
        pinned = [
            0.06755283302481718,
            0.05294768181851343,
            0.02899691670167203,
            0.029251225753068193,
            0.018628266192709443,
            0.012412372953393737,
            0.008578762859445681,
        ]
        np.testing.assert_allclose(result.mean_abs_err, pinned, rtol=1e-13, atol=0)
        assert result.slope == pytest.approx(-0.4912681254130254, rel=1e-13, abs=0)
        assert (result.check.samples, result.check.failures) == (200_000, 0)

    @pytest.mark.parametrize("m_values", [[1], [4, 4]], ids=["one", "repeated"])
    def test_rejects_fewer_than_two_widths(self, m_values):
        # [1] raised LinAlgError from polyfit, and [4, 4] fitted a slope of -0.49 to one point
        with pytest.raises(ValueError, match="two distinct widths"):
            rate_study(RbfParams(1.0, 1.0), np.array([1.0, 0.0]), np.array([0.0, 1.0]), m_values, 1, 0, 10, 100)

    @pytest.mark.parametrize(
        "field, value, least",
        [("trials", 1.5, 1), ("trials", 0, 1), ("test_points", 10.0, 1), ("test_points", True, 1),
         ("ref_samples", 2.5, 2), ("ref_samples", 1, 2), ("m_values", [4, 0], 1), ("m_values", [4, 8.5], 1)],
    )
    def test_counts_checked_before_any_fork(self, field, value, least):
        # floats raised TypeError from range or numpy deep inside, and [4, 0] mc_mean's "need at least 1 draw";
        # inside a worker either would have read "a row worker failed"
        kwargs = {**dict(m_values=[4, 8], trials=1, seed=0, test_points=10, ref_samples=100), field: value}
        name = "m_values entry" if field == "m_values" else field
        no_fork = mock.patch.object(os, "fork", side_effect=AssertionError("forked"))
        with mock.patch.object(basis, "_parts", lambda rows, cells: 3), no_fork:
            with pytest.raises(ValueError, match=rf"{name} must be an integer >= {least}, got "):
                rate_study(RbfParams(1.0, 1.0), np.array([1.0, 0.0]), np.array([0.0, 1.0]), **kwargs)

    def test_reference_is_exact(self):
        # the reference does not depend on the size of its Monte-Carlo cross-check
        args = (RbfParams(1.0, 1.0), np.array([1.0, 0.0]), np.array([0.0, 1.0]), [16, 64], 2, 5, 100)
        small, large = rate_study(*args, ref_samples=2000), rate_study(*args, ref_samples=50_000)
        assert np.array_equal(small.mean_abs_err, large.mean_abs_err)
        assert (small.check.samples, large.check.samples) == (2000, 50_000)
        assert small.check.ok and large.check.ok


def _write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _bytes_at_blas_threads(tmp_path, mode, payload, names):
    """For OPENBLAS_NUM_THREADS 1 and 2, the bytes of the files names that `rflaf mode` writes from payload."""
    config, got = _write_config(tmp_path, payload), []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        out = tmp_path / f"threads_{threads}"
        argv = [sys.executable, "-m", "rflaf.cli", mode, "--config", config, "--out", str(out)]
        run_ = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
        assert run_.returncode == 0, run_.stderr
        got.append([(out / name).read_bytes() for name in names])
    return got


class TestRunKernelVerify:
    def test_stderr_of_estimates_below_1e_154(self, tmp_path):
        # far out at c = 5, h = 0.2, three of the four 100-draw means lie below
        # 1e-154, where the squares of the values round to 0
        cfg = {"seed": 3, "trials": 4, "samples": 100, "dims": [2], "centers": [5.0], "widths": [0.2]}
        assert run("kernel-verify", cfg, str(tmp_path)) == 1
        rows = [line.split("\t") for line in (tmp_path / "kernel_verify.txt").read_text().splitlines()[1:]]
        means, stderrs = (np.array([float(r[col]) for r in rows]) for col in (5, 6))
        assert np.sum(means < 1e-154) == 3
        assert np.all(stderrs > 0)

    def test_small_run_passes_and_is_deterministic(self, tmp_path):
        cfg = {"seed": 3, "trials": 3, "samples": 20_000, "dims": [2], "centers": [0.0], "widths": [1.0]}
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run("kernel-verify", cfg, str(out1)) == 0
        assert run("kernel-verify", cfg, str(out2)) == 0
        table1 = (out1 / "kernel_verify.txt").read_text()
        assert table1 == (out2 / "kernel_verify.txt").read_text()
        assert len(table1.splitlines()) == 4  # header + 3 trials
        summary = (out1 / "kernel_verify_summary.txt").read_text()
        assert "overall: PASS" in summary

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # every sum over the draws runs in a fixed order, so a BLAS thread count changes no bit
        payload = dict(load_config(str(CONFIG_DIR / "kernel_verify.json")), trials=3)
        tables = [files[0] for files in _bytes_at_blas_threads(tmp_path, "kernel-verify", payload, ["kernel_verify.txt"])]
        assert len(tables[0].splitlines()) == 25  # header + 3 trials of 8 settings
        assert tables[0] == tables[1]

    def test_unknown_key_named_in_error(self, tmp_path):
        with pytest.raises(ConfigError, match="bogus"):
            run("kernel-verify", {"seed": 1, "bogus": 2}, str(tmp_path))

    def test_missing_seed_named_in_error(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            run("kernel-verify", {"trials": 3}, str(tmp_path))

    def test_single_trial_needs_its_pass(self, tmp_path):
        # kernel-verify needs max(1, trials - 1) passes: one trial cannot pass with zero passes
        cfg = {"seed": 3, "trials": 1, "samples": 20_000, "dims": [2], "centers": [0.0], "widths": [1.0]}
        assert run("kernel-verify", cfg, str(tmp_path)) == 0
        assert "1/1 trials pass (need >= 1): PASS" in (tmp_path / "kernel_verify_summary.txt").read_text()


class TestRunTaylorVerify:
    def test_passes_with_enough_terms(self, tmp_path):
        cfg = {"series": {"n_terms": 80}}
        assert run("taylor-verify", cfg, str(tmp_path)) == 0
        summary = (tmp_path / "taylor_verify_summary.txt").read_text()
        assert "overall: PASS" in summary

    def test_defaults_pass(self, tmp_path):
        assert run("taylor-verify", {}, str(tmp_path)) == 0

    def test_sixty_terms_fail_at_half_width(self, tmp_path):
        # the 60-term truncation error at h = 0.5, |r| = 1 sits near 8.5e-8,
        # above the 1e-8 tolerance; the runner reports this honestly
        cfg = {"series": {"n_terms": 60, "widths": [0.5], "centers": [0.0]}}
        assert run("taylor-verify", cfg, str(tmp_path)) == 1
        table = (tmp_path / "taylor_series.txt").read_text()
        assert "no" in table.split("\n")[1].split("\t")[-1]

    def test_recurrence_table_written(self, tmp_path):
        run("taylor-verify", {"series": {"n_terms": 80}}, str(tmp_path))
        lines = (tmp_path / "taylor_recurrence.txt").read_text().splitlines()
        assert lines[0] == "p\tn\trecurrence\tclosed_form\trel_err\tpass"
        assert len(lines) == 1 + 5 * 17


class TestRunRateStudy:
    def test_tiny_run(self, tmp_path):
        cfg = {
            "seed": 4,
            "m_values": [16, 64, 256],
            "trials": 2,
            "test_points": 200,
            "ref_samples": 100_000,
            "slope_range": [-1.0, 0.0],
        }
        assert run("rate-study", cfg, str(tmp_path)) == 0
        lines = (tmp_path / "rate_study.txt").read_text().splitlines()
        assert lines[0] == "m\tmean_abs_err"
        assert len(lines) == 4
        summary = (tmp_path / "rate_study_summary.txt").read_text().splitlines()
        assert summary[0].startswith("fitted log-log slope: ")
        assert summary[2].startswith("reference quadrature vs monte carlo (100000 samples): 64/64 points within 5 stderr")
        assert summary[2].endswith(": PASS")

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the shipped config's 2,000 test points: mc_mean projects each bank in chunks of 130 draws on 2,000 rows,
        # and the cross-check in chunks of 3,971 draws on 64 rows, by BLAS w @ X.T, as the shipped run does
        payload = dict(load_config(str(CONFIG_DIR / "rate_study.json")), m_values=[64, 512, 2048], trials=1)
        payload.update(ref_samples=200_000, slope_range=[-10.0, 10.0])
        one, two = _bytes_at_blas_threads(tmp_path, "rate-study", payload, ["rate_study.txt", "rate_study_summary.txt"])
        assert len(one[0].splitlines()) == 4  # header + 3 widths
        assert one == two


class TestRunBounds:
    BASE = {
        "width": 0.02,
        "n_basis": 400,
        "n_features": 1000,
        "delta": 0.01,
        "sigma_sup": 1.0,
        "support_len": 4.0,
        "radius": 2.0,
    }

    def test_report_written_deterministically(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("bounds", self.BASE, str(out1)) == 0
        assert run("bounds", self.BASE, str(out2)) == 0
        text = (out1 / "bounds.txt").read_text()
        assert text == (out2 / "bounds.txt").read_text()
        want = 4.0 / (0.02 * math.sqrt(2 * math.pi * 400))
        assert f"a norm bound: {want:.17g}" in text

    def test_schedule_diagnostic_included_when_requested(self, tmp_path):
        cfg = dict(self.BASE, epsilon=0.1, lipschitz_sigma=math.pi)
        assert run("bounds", cfg, str(tmp_path)) == 0
        text = (tmp_path / "bounds.txt").read_text()
        assert "sufficient width for epsilon" in text

    def test_bad_delta_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="delta"):
            run("bounds", dict(self.BASE, delta=0.9), str(tmp_path))


class TestRunTrainCompare:
    def _config(self):
        return {
            "seed": 12,
            "target": {"sigma": "s1", "b1": [1.0, 0.0], "b2": [0.0, 1.0], "mc_samples": 2000, "seed": 3},
            "data": {"n": 300, "dim": 2, "test_fraction": 0.2},
            "model": {"n_features": 40, "n_basis": 24, "support": [-2.0, 2.0], "width": 0.4},
            "train": {"epochs": 3, "batch_size": 64, "learning_rate": 0.01},
            "baselines": ["relu"],
            "mse_ratio_max": 1e9,
            "min_activation_correlation": -1.0,
        }

    def test_smoke_run_writes_artifacts(self, tmp_path):
        assert run("train-compare", self._config(), str(tmp_path)) == 0
        for name in (
            "history_rflaf.txt",
            "history_relu.txt",
            "train_compare_summary.txt",
            "model_rflaf.npz",
            "activation_learned.txt",
            "activation_true.txt",
            "activation_aligned.txt",
        ):
            assert (tmp_path / name).exists(), name
        summary = (tmp_path / "train_compare_summary.txt").read_text().splitlines()
        assert summary[1].startswith("target quadrature vs monte carlo (2000 samples): 64/64 points")
        assert summary[1].endswith(": PASS")
        hist = (tmp_path / "history_rflaf.txt").read_text().splitlines()
        assert hist[0] == "epoch\ttrain_total\ttrain_mse\ttest_mse"
        assert len(hist) == 4
        # checkpoint reloads and reproduces the learned activation table
        trained = model.load_model(tmp_path / "model_rflaf.npz")
        zs = np.linspace(-2.0, 2.0, 401)
        vals = basis.activation_curve(trained.grid, trained.a, zs)
        first = (tmp_path / "activation_learned.txt").read_text().splitlines()[1].split("\t")
        assert float(first[1]) == vals[0]

    def test_one_percent_target_error_exits_1(self, tmp_path, monkeypatch):
        # labels 1% off the exact target: the Monte-Carlo cross-check must catch it
        means = data.TargetSampler.means
        monkeypatch.setattr(data.TargetSampler, "means", lambda self, X: 1.01 * means(self, X))
        cfg = self._config()
        cfg["target"]["mc_samples"] = 2_000_000
        assert run("train-compare", cfg, str(tmp_path)) == 1
        summary = (tmp_path / "train_compare_summary.txt").read_text().splitlines()
        assert [line for line in summary if line.endswith(": FAIL")] == [summary[1], "overall: FAIL"]
        assert summary[1].startswith("target quadrature vs monte carlo (2000000 samples)")

    def test_diverging_training_stops_with_a_named_check(self, tmp_path, capsys):
        # a learning rate the parser accepts, at which Adam's first steps overflow
        cfg = self._config()
        cfg["data"]["n"] = 600
        cfg["train"].update(epochs=1, learning_rate=1e300)
        out = tmp_path / "out"
        assert main(["train-compare", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        summary = (out / "train_compare_summary.txt").read_text().splitlines()
        assert summary[2:] == ["training rflaf: non-finite loss at epoch 0, step 2: FAIL", "overall: FAIL"]
        assert sorted(path.name for path in out.iterdir()) == ["train_compare_summary.txt"]

    def test_rejects_mismatched_baseline_width(self, tmp_path):
        cfg = dict(self._config(), baseline_width=77)
        with pytest.raises(ConfigError, match="baseline_width"):
            run("train-compare", cfg, str(tmp_path))

    def test_rejects_unknown_baseline(self, tmp_path):
        cfg = dict(self._config(), baselines=["swish"])
        with pytest.raises(ConfigError, match="swish"):
            run("train-compare", cfg, str(tmp_path))

    def test_rejects_precalibrated_target(self, tmp_path):
        cfg = self._config()
        cfg["target"]["calib"] = 2.0
        with pytest.raises(ConfigError, match="calib"):
            run("train-compare", cfg, str(tmp_path))

    def test_degenerate_target_exits_2_naming_it(self, tmp_path, capsys):
        # sigma s1 is odd and max(w1, -w1) = |w1| is even in w, so the target is 0 at every x
        cfg_path = _write_config(tmp_path, _train_compare_config(**{"target.b2": [-1.0, 0.0]}))
        assert main(["train-compare", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "target (sigma s1, b1 [1.0, 0.0], b2 [-1.0, 0.0])" in err and "degenerate target" in err


def _checkpoint(tmp_path):
    """A checkpoint whose activation is the quadrature construction of s1 on [-2, 2]."""
    grid = basis.build_grid(-2.0, 2.0, 100, 2.0 * 4.0 / 100)
    weights = basis.quadrature_weights(grid, data.sigma_eval_array("s1", grid.centers))
    bank = model.sample_features(2, 5, seed=1)
    ckpt = tmp_path / "model.npz"
    model.save_model(model.RflafModel(bank=bank, grid=grid, a=weights, v=np.ones(5)), ckpt)
    return ckpt


class TestRunExportActivation:
    def test_export_from_quadrature_checkpoint(self, tmp_path):
        # a quadrature-constructed activation correlates with the target
        ckpt = _checkpoint(tmp_path)
        cfg = {
            "checkpoint": str(ckpt),
            "grid_points": 201,
            "target": {"sigma": "s1", "b1": [1.0, 0.0], "b2": [0.0, 1.0]},
            "min_activation_correlation": 0.9,
        }
        out = tmp_path / "out"
        assert run("export-activation", cfg, str(out)) == 0
        lines = (out / "activation_learned.txt").read_text().splitlines()
        assert lines[0] == "z\tactivation"
        assert len(lines) == 202
        summary = (out / "export_activation_summary.txt").read_text()
        assert "correlation" in summary

    def test_missing_checkpoint_is_config_error(self, tmp_path):
        cfg = {"checkpoint": str(tmp_path / "nope.npz")}
        with pytest.raises(ConfigError):
            run("export-activation", cfg, str(tmp_path))

    def test_truncated_checkpoint_exits_2_naming_it(self, tmp_path, capsys):
        ckpt = _checkpoint(tmp_path)
        ckpt.write_bytes(ckpt.read_bytes()[: ckpt.stat().st_size // 2])
        cfg_path = _write_config(tmp_path, {"checkpoint": str(ckpt)})
        assert main(["export-activation", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        assert str(ckpt) in capsys.readouterr().err

    @pytest.mark.parametrize("dtype", [complex, str])
    def test_weights_that_are_not_real_floats_exit_2(self, dtype, tmp_path, capsys):
        ckpt = _checkpoint(tmp_path)
        with np.load(ckpt) as fields:
            fields = dict(fields)
        np.savez(ckpt, **{**fields, "a": fields["a"].astype(dtype)})
        cfg_path = _write_config(tmp_path, {"checkpoint": str(ckpt)})
        assert main(["export-activation", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "'a'" in err

    def test_malformed_checkpoint_field_exits_2_naming_it(self, tmp_path, capsys):
        ckpt = _checkpoint(tmp_path)
        with np.load(ckpt) as fields:
            fields = dict(fields)
        np.savez(ckpt, **{**fields, "dim": np.array([2, 3])})
        cfg_path = _write_config(tmp_path, {"checkpoint": str(ckpt)})
        assert main(["export-activation", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "'dim'" in err


class TestRunDispatch:
    def test_unknown_mode(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown mode"):
            run("frobnicate", {}, str(tmp_path))

    def test_seed_override_applies(self, tmp_path):
        cfg = {"seed": 1, "trials": 2, "samples": 5000, "dims": [2], "centers": [0.0], "widths": [1.0]}
        run("kernel-verify", cfg, str(tmp_path / "a"), seed_override=1)
        run("kernel-verify", dict(cfg, seed=999), str(tmp_path / "b"), seed_override=1)
        assert (tmp_path / "a" / "kernel_verify.txt").read_text() == (
            tmp_path / "b" / "kernel_verify.txt"
        ).read_text()


def _train_compare_config(**changes):
    """TestRunTrainCompare's smoke config with ``section.key`` or top-level keys replaced."""
    cfg = TestRunTrainCompare()._config()
    for path, value in changes.items():
        section, _, key = path.rpartition(".")
        (cfg[section] if section else cfg)[key] = value
    return cfg


_BOUNDS_SCHEDULE = dict(TestRunBounds.BASE, epsilon=0.1, lipschitz_sigma=math.pi)

# (mode, config, key the error must name); each must exit 2 before any sampling
BAD_CONFIGS = [
    ("kernel-verify", {"seed": 1, "trials": "x"}, "trials"),
    ("kernel-verify", {"seed": 1, "trials": 0}, "trials"),
    ("kernel-verify", {"seed": 1, "samples": 1}, "samples"),
    ("kernel-verify", {"seed": 1, "dims": [0]}, "dims"),
    ("kernel-verify", {"seed": 1, "centers": []}, "centers"),
    ("kernel-verify", {"seed": True}, "seed"),
    ("kernel-verify", {"seed": 1, "widths": [0.0]}, "width"),
    ("rate-study", {"seed": 1, "slope_range": [1]}, "slope_range"),
    ("rate-study", {"seed": 1, "slope_range": [0, -1]}, "slope_range"),
    ("rate-study", {"seed": 1, "slope_range": None}, "slope_range"),
    ("bounds", dict(TestRunBounds.BASE, epsilon=0.1), "lipschitz_sigma"),
    ("bounds", dict(TestRunBounds.BASE, lipschitz_sigma=math.pi), "epsilon"),
    ("bounds", dict(_BOUNDS_SCHEDULE, epsilon=-1), "epsilon"),
    ("bounds", dict(_BOUNDS_SCHEDULE, epsilon=32.0), "epsilon"),
    ("bounds", dict(_BOUNDS_SCHEDULE, lipschitz_sigma=-1), "lipschitz_sigma"),
    ("bounds", dict(TestRunBounds.BASE, n_basis=400.0), "n_basis"),
    ("bounds", dict(TestRunBounds.BASE, width=-1.0), "width"),
    ("bounds", dict(TestRunBounds.BASE, radius=float("nan")), "radius"),
    ("bounds", dict(TestRunBounds.BASE, radius=10**400), "radius"),
    ("train-compare", _train_compare_config(**{"train.epochs": "2"}), "epochs"),
    ("train-compare", _train_compare_config(**{"train.batch_size": 2.9}), "batch_size"),
    ("train-compare", _train_compare_config(**{"train.epochs": 0}), "epochs"),
    ("train-compare", _train_compare_config(**{"train.seed": 5}), "seed"),
    ("train-compare", _train_compare_config(**{"train.learning_rate": 0}), "learning_rate"),
    ("train-compare", _train_compare_config(**{"data.test_fraction": 2}), "test_fraction"),
    ("train-compare", _train_compare_config(**{"data.dim": 3}), "dim"),
    ("train-compare", _train_compare_config(**{"data.n": 1}), "key 'n'"),
    ("train-compare", _train_compare_config(baselines=[]), "baselines"),
    ("train-compare", _train_compare_config(**{"target.sigma": "custom-table"}), "sigma"),
    ("train-compare", _train_compare_config(**{"target.mc_samples": 10}), "mc_samples"),
    ("train-compare", _train_compare_config(**{"model.n_basis": 0}), "n_basis"),
    ("export-activation", {"checkpoint": "model.npz", "min_activation_correlation": 0.9}, "min_activation_correlation"),
    ("bounds", dict(_BOUNDS_SCHEDULE, epsilon=1.0, lipschitz_sigma=1.0, radius=1.0, support_len=0.001), "support_len"),
    ("rate-study", {"seed": 1, "ref_samples": 1}, "ref_samples"),
    ("train-compare", _train_compare_config(baselines=["relu", "relu"]), "baselines"),
    ("train-compare", _train_compare_config(**{"model.width": 1e-160}), "width"),
    ("kernel-verify", {"seed": 1, "widths": [1e-170]}, "width"),
    ("rate-study", {"seed": 1, "rbf": {"width": 1e-160}}, "width"),
]


class TestBadConfigs:
    @pytest.mark.parametrize("mode,cfg,key", BAD_CONFIGS, ids=[f"{mode}-{i}" for i, (mode, _, _) in enumerate(BAD_CONFIGS)])
    def test_exits_2_naming_key_before_sampling(self, mode, cfg, key, tmp_path, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("a bad config reached sampling")

        monkeypatch.setattr(data, "calibrate", no_sampling)
        monkeypatch.setattr(kernel, "kernel_mc", no_sampling)
        monkeypatch.setattr(experiments, "rate_study", no_sampling)
        cfg_path = _write_config(tmp_path, cfg)
        assert main([mode, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
    def test_shipped_config_parses(self, path):
        mode = next(m for m in MODES if path.stem.replace("_", "-").startswith(m))
        assert type(parse_config(mode, load_config(str(path)))) is MODES[mode][0]


# A shipped config with one key (section.key in a section) at the edge of the doubles, (mode, config file, key,
# value, exit code): each exits 0 or 1 writing finite numbers, or 2 with one error line naming the key, and none
# ends in a traceback
EDGE_CONFIGS = [
    ("bounds", "bounds.json", "epsilon", 1e-200, 2),
    ("bounds", "bounds.json", "epsilon", 1e-300, 2),
    ("bounds", "bounds.json", "width", 1e-320, 2),  # wrote inf a and f bounds
    ("bounds", "bounds.json", "delta", 1e-320, 2),  # wrote inf v and f bounds
    ("bounds", "bounds.json", "width", 1e-300, 0),
    ("taylor-verify", "taylor_verify.json", "n_max", 100, 0),
    ("taylor-verify", "taylor_verify.json", "n_max", 171, 0),
    ("taylor-verify", "taylor_verify.json", "n_max", 200, 2),
    ("taylor-verify", "taylor_verify.json", "p_values", [1e300], 2),
    ("taylor-verify", "taylor_verify.json", "p_values", [0.0, 708.0], 0),
    ("taylor-verify", "taylor_verify.json", "series.centers", [1e160], 2),  # c^2 overflowed
    ("taylor-verify", "taylor_verify.json", "series.widths", [1e160], 2),  # 1 + h^2 overflowed
    ("taylor-verify", "taylor_verify.json", "series.centers", [40.0], 0),
    ("bounds", "bounds.json", "n_basis", 10**400, 2),  # OverflowError in the bounds
    ("bounds", "bounds.json", "n_basis", 2**63 - 1, 0),
    ("kernel-verify", "kernel_verify.json", "samples", 2**64, 2),  # numpy: "Maximum allowed dimension exceeded"
    ("train-compare", "train_compare_s1.json", "data.n", 2**64, 2),
    ("train-compare", "train_compare_s1.json", "target.b1", [1e300, 0.0], 2),  # "calib must be finite", exit 1
]


def _numbers(out: Path) -> list:
    """Every number, inf and nan included, in the text artifacts in out."""
    found = []
    for path in out.glob("*.txt"):
        for token in path.read_text().split():
            try:
                found.append(float(token))
            except ValueError:
                pass
    return found


class TestEdgeConfigs:
    @pytest.mark.parametrize("mode,name,key,value,code", EDGE_CONFIGS, ids=[f"{e[2]}={e[3]}" for e in EDGE_CONFIGS])
    def test_exit_code_and_error_line(self, mode, name, key, value, code, tmp_path, capsys):
        cfg = load_config(str(CONFIG_DIR / name))
        section, _, leaf = key.rpartition(".")
        (cfg[section] if section else cfg)[leaf] = value
        cfg_path = _write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main([mode, "--config", cfg_path, "--out", str(out)]) == code
        err = capsys.readouterr().err.splitlines()
        if code == 2:
            assert len(err) == 1 and err[0].startswith("error: ") and leaf in err[0], err
            return
        assert err == []
        numbers = _numbers(out)
        assert numbers and all(map(math.isfinite, numbers))
        if mode == "taylor-verify":
            rows = [line.split("\t") for line in (out / "taylor_recurrence.txt").read_text().splitlines()[1:]]
            assert rows and all(math.isfinite(float(v)) for row in rows for v in row[:-1])
            # the recurrence runs in exact integers: it meets the closed form, exact zeros included
            assert all(row[2] == row[3] and row[-1] == "yes" for row in rows)


def _key_paths(cls, prefix=()):
    """(class, field, key path) of each settable value of the config dataclass cls, through its sections."""
    hints = typing.get_type_hints(cls, include_extras=True)
    for f in dataclasses.fields(cls):
        if f.init:
            tp = hints[f.name]
            while typing.get_origin(tp) in (typing.Union, types.UnionType, typing.Annotated):
                tp = typing.get_args(tp)[0]
            if dataclasses.is_dataclass(tp):
                yield from _key_paths(tp, (*prefix, f.name))
            else:
                yield cls, f.name, (*prefix, f.name)


def _sets(raw, path) -> bool:
    for key in path:
        if not isinstance(raw, dict) or key not in raw:
            return False
        raw = raw[key]
    return True


# Keys that no shipped config set; each now exits 2 as unknown.
REMOVED_KEYS = [
    ("kernel-verify", "kernel_verify.json", "min_passes", 19),
    ("taylor-verify", "taylor_verify.json", "seed", 1),
    ("rate-study", "rate_study.json", "v_scale", 1.0),
    ("train-compare", "train_compare_s1.json", "data.seed", 2027),
    ("train-compare", "train_compare_s1.json", "train.adam_beta1", 0.9),
    ("train-compare", "train_compare_s1.json", "train.adam_beta2", 0.999),
    ("train-compare", "train_compare_s1.json", "train.adam_eps", 1e-8),
    ("export-activation", "export_activation.json", "seed", 1),
    ("bounds", "bounds.json", "seed", 1),
]


class TestConfigSurface:
    def test_every_settable_value_is_set_by_a_shipped_config(self):
        # a value no shipped config sets is a constant; a class counts as covered if any of its uses is
        uses, covered = [], set()
        for mode, (config_cls, _, _) in MODES.items():
            shipped = [load_config(str(p)) for p in CONFIGS if p.stem.replace("_", "-").startswith(mode)]
            for cls, key, path in _key_paths(config_cls):
                uses.append((cls.__name__, key))
                if any(_sets(raw, path) for raw in shipped):
                    covered.add((cls.__name__, key))
        assert sorted(set(uses) - covered) == []
        assert len(uses) == 63

    @pytest.mark.parametrize("mode,name,path,value", REMOVED_KEYS, ids=[f"{m}-{p}" for m, _, p, _ in REMOVED_KEYS])
    def test_removed_key_exits_2_as_unknown(self, mode, name, path, value, tmp_path, capsys):
        cfg = load_config(str(CONFIG_DIR / name))
        *sections, key = path.split(".")
        section = cfg
        for s in sections:
            section = section[s]
        section[key] = value
        cfg_path = _write_config(tmp_path, cfg)
        assert main([mode, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err


_KERNEL_SMALL = {"seed": 3, "trials": 2, "samples": 5000, "dims": [2], "centers": [0.0], "widths": [1.0]}
_RATE_SMALL = {"seed": 4, "m_values": [16, 64], "trials": 1, "test_points": 50, "ref_samples": 5000}
_TARGET_S1 = {"sigma": "s1", "b1": [1.0, 0.0], "b2": [0.0, 1.0]}

# (mode, config or a maker of it from a checkpoint path, exit code): a pass and a fail of each mode that checks
VERDICT_CASES = [
    ("kernel-verify", _KERNEL_SMALL, 0),
    ("kernel-verify", dict(_KERNEL_SMALL, centers=[8.0], widths=[0.1]), 1),  # no draw meets the bump: 0 +- 0
    ("taylor-verify", {"p_values": [1.0], "series": {"n_terms": 80, "widths": [1.0], "centers": [0.0]}}, 0),
    ("taylor-verify", {"p_values": [1.0], "series": {"n_terms": 60, "widths": [0.5], "centers": [0.0]}}, 1),
    ("rate-study", dict(_RATE_SMALL, slope_range=[-10.0, 10.0]), 0),
    ("rate-study", dict(_RATE_SMALL, slope_range=[5.0, 10.0]), 1),
    ("train-compare", _train_compare_config(**{"train.epochs": 1}), 0),
    ("train-compare", _train_compare_config(**{"train.epochs": 1, "mse_ratio_max": 1e-9}), 1),
    ("export-activation", lambda ckpt: {"checkpoint": ckpt}, 0),
    ("export-activation", lambda ckpt: {"checkpoint": ckpt, "target": _TARGET_S1}, 0),
    ("export-activation", lambda ckpt: {"checkpoint": ckpt, "target": _TARGET_S1, "min_activation_correlation": 0.9}, 0),
    ("export-activation", lambda ckpt: {"checkpoint": ckpt, "target": _TARGET_S1, "min_activation_correlation": 2.0}, 1),
    ("bounds", _BOUNDS_SCHEDULE, 0),
]


class TestVerdict:
    @pytest.mark.parametrize("mode,cfg,want", VERDICT_CASES, ids=[f"{m}-{i}" for i, (m, _, _) in enumerate(VERDICT_CASES)])
    def test_exit_code_and_overall_line_follow_the_checks(self, mode, cfg, want, tmp_path):
        if callable(cfg):
            cfg = cfg(str(_checkpoint(tmp_path)))
        code = run(mode, cfg, str(tmp_path / "out"))
        lines = (tmp_path / "out" / MODES[mode][2]).read_text().splitlines()
        checks = [line for line in lines if line.endswith((": PASS", ": FAIL"))]
        assert code == want
        assert code == (1 if any(line.endswith(": FAIL") for line in lines) else 0)
        assert lines[-1].startswith("overall: ") == bool(checks)
        overall = [line for line in lines if line.startswith("overall: ")]
        assert overall == ([f"overall: {'FAIL' if code else 'PASS'}"] if checks else [])
        if mode == "bounds":
            assert code == 0 and not checks


class TestCli:
    def test_bounds_end_to_end(self, tmp_path):
        cfg_path = _write_config(tmp_path, TestRunBounds.BASE)
        assert main(["bounds", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "bounds.txt").exists()

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["bounds", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_key_exits_2_and_names_key(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, dict(TestRunBounds.BASE, typo_key=1))
        assert main(["bounds", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        assert "typo_key" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["bounds", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("mode", ["taylor-verify", "bounds", "export-activation"])
    def test_seed_flag_ignored_by_modes_that_draw_nothing(self, mode, tmp_path):
        configs = {
            "taylor-verify": {"p_values": [1.0], "series": {"widths": [1.0], "centers": [0.0]}},
            "bounds": TestRunBounds.BASE,
            "export-activation": {"checkpoint": str(_checkpoint(tmp_path)), "target": _TARGET_S1},
        }
        cfg_path = _write_config(tmp_path, configs[mode])
        outs = []
        for extra in ([], ["--seed", "17"]):
            outs.append(tmp_path / f"out{len(outs)}")
            assert main([mode, "--config", cfg_path, "--out", str(outs[-1]), *extra]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names)

    def test_seed_flag(self, tmp_path):
        cfg_path = _write_config(
            tmp_path, {"seed": 1, "trials": 2, "samples": 5000, "dims": [2], "centers": [0.0], "widths": [1.0]}
        )
        code = main(["kernel-verify", "--config", cfg_path, "--out", str(tmp_path / "out"), "--seed", "17"])
        assert code == 0
