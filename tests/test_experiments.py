"""Experiment runner, bounds calculator, and CLI surface."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from rflaf import basis, data, experiments, kernel, model
from rflaf.cli import main
from rflaf.experiments import MODES, ConfigError, load_config, parse_config, rate_study, run, theory_bounds
from rflaf.kernel import RbfParams

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
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


class TestRateStudy:
    def test_zero_target_gives_zero_error(self):
        result = rate_study(
            RbfParams(center=1.0, width=1.0),
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
            m_values=[8, 32],
            trials=1,
            seed=0,
            test_points=50,
            ref_samples=2000,
            v_scale=0.0,
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
        result = rate_study(
            cfg.rbf, cfg.b1, cfg.b2, cfg.m_values, cfg.trials, cfg.seed, cfg.test_points, cfg.ref_samples, cfg.v_scale
        )
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


class TestRunKernelVerify:
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

    def test_unknown_key_named_in_error(self, tmp_path):
        with pytest.raises(ConfigError, match="bogus"):
            run("kernel-verify", {"seed": 1, "bogus": 2}, str(tmp_path))

    def test_missing_seed_named_in_error(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            run("kernel-verify", {"trials": 3}, str(tmp_path))

    def test_single_trial_needs_its_pass(self, tmp_path):
        # min_passes defaults to max(1, trials - 1): one trial cannot pass with zero passes
        cfg = {"seed": 3, "trials": 1, "samples": 20_000, "dims": [2], "centers": [0.0], "widths": [1.0]}
        assert run("kernel-verify", cfg, str(tmp_path)) == 0
        assert "1/1 trials pass (need >= 1): PASS" in (tmp_path / "kernel_verify_summary.txt").read_text()


class TestRunTaylorVerify:
    def test_passes_with_enough_terms(self, tmp_path):
        cfg = {"series": {"n_terms": 80}}
        assert run("taylor-verify", cfg, str(tmp_path)) == 0
        summary = (tmp_path / "taylor_verify_summary.txt").read_text()
        assert "overall: PASS" in summary

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


class TestRunExportActivation:
    def test_export_from_quadrature_checkpoint(self, tmp_path):
        # a quadrature-constructed activation correlates with the target
        grid = basis.build_grid(-2.0, 2.0, 100, 2.0 * 4.0 / 100)
        weights = basis.quadrature_weights(grid, data.sigma_eval_array("s1", grid.centers))
        bank = model.sample_features(2, 5, seed=1)
        snapshot = model.RflafModel(bank=bank, grid=grid, a=weights, v=np.ones(5))
        ckpt = tmp_path / "model.npz"
        model.save_model(snapshot, ckpt)
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
    ("kernel-verify", {"seed": 1, "trials": 3, "min_passes": 0}, "min_passes"),
    ("kernel-verify", {"seed": 1, "trials": 3, "min_passes": 4}, "min_passes"),
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
        assert type(parse_config(mode, load_config(str(path)))).__name__ == MODES[mode][0]


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

    def test_seed_flag(self, tmp_path):
        cfg_path = _write_config(
            tmp_path, {"seed": 1, "trials": 2, "samples": 5000, "dims": [2], "centers": [0.0], "widths": [1.0]}
        )
        code = main(["kernel-verify", "--config", cfg_path, "--out", str(tmp_path / "out"), "--seed", "17"])
        assert code == 0
