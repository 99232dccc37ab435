"""Orchestrated studies: scans, scaling curves, deviation CLT, saddle probe."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sgdscope
from sgdscope import engine, experiments
from sgdscope.cli import main
from sgdscope.engine import DivergenceError, EngineError, SgdConfig, Trajectory, gaussian_sgd_run
from sgdscope.estimators import EstimatorError, prediction_report
from sgdscope.experiments import (
    CltReport,
    CurveEntry,
    CurveSet,
    ExperimentError,
    SaddleReport,
    ScanRow,
    clt_experiment,
    derive_seed,
    linear_scaling_experiment,
    saddle_divergence_experiment,
    scan_bs_lr,
    write_curves_csv,
    write_scan_csv,
)
from sgdscope.experiments import _median, _saddle_runs
from sgdscope.linalg import SymMatrix, solve_lyapunov
from sgdscope.problems import (
    ModelError,
    QuadraticModel,
    generate_blobs,
    make_logistic,
    make_mlp,
    make_quadratic,
)


def blob_logistic(l2_penalty):
    features, labels = generate_blobs(example_count=30, feature_dim=2, class_count=2, seed=5)
    return make_logistic(features, labels, l2_penalty=l2_penalty)


def isotropic_quadratic(dim, curvature, noise):
    return make_quadratic(
        hessian=curvature * np.eye(dim),
        minimizer=np.zeros(dim),
        noise_cov=noise * np.eye(dim),
    )


class TestParallelMap:
    def test_import_does_not_load_the_process_pool(self):
        # Not on import, and not for a finite-data scan split over two
        # processes: the core's fork is the one fan-out.
        script = (
            "import sys, sgdscope\n"
            "print('concurrent.futures.process' in sys.modules)\n"
            "x, y = sgdscope.generate_blobs(example_count=20, feature_dim=2, class_count=2, seed=1)\n"
            "model = sgdscope.make_logistic(x, y, l2_penalty=0.1)\n"
            "sgdscope.scan_bs_lr(model, [(0.1, 2), (0.2, 4)], 20, 1, 0, workers=2, flow_t=1.0)\n"
            "print({'concurrent.futures', 'multiprocessing'} & set(sys.modules))\n"
        )
        src = str(Path(sgdscope.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "set()"]

    def test_seed_derivation_is_stable_and_distinct(self):
        a = derive_seed(7, 0, 1)
        assert a == derive_seed(7, 0, 1)
        assert a != derive_seed(7, 0, 2)
        assert a != derive_seed(7, 1, 1)


class TestScanBsLr:
    def test_matching_traces_make_predictions_coincide(self):
        model = isotropic_quadratic(2, 0.8, 0.8)
        grid = [(0.05, 2), (0.025, 1)]
        rows = scan_bs_lr(model, grid, run_length=40_000, replicas=3, master_seed=11)
        assert len(rows) == 2
        for row, (lr, m) in zip(rows, grid):
            assert row.learning_rate == lr and row.batch_size == m
            assert row.ratio == m / lr
            assert row.pred_j2018 == row.pred_w2019_loss
            assert abs(row.measured_excess_loss / row.pred_w2019_loss - 1.0) < 0.10
            assert row.converged

    def test_counterexample_separates_the_predictions(self):
        # Curvature trace 4x the noise trace: the noise-based prediction
        # stays accurate while the curvature-based one overshoots 4x.
        model = make_quadratic(
            hessian=2.0 * np.eye(2), minimizer=np.zeros(2), noise_cov=0.5 * np.eye(2)
        )
        rows = scan_bs_lr(model, [(0.04, 2)], run_length=60_000, replicas=4, master_seed=3)
        row = rows[0]
        assert row.magnitude_difference == 4.0
        assert row.pred_j2018 == 4.0 * row.pred_w2019_loss
        assert abs(row.measured_excess_loss / row.pred_w2019_loss - 1.0) < 0.10
        assert abs(row.measured_excess_loss - row.pred_w2019_loss) < abs(
            row.measured_excess_loss - row.pred_j2018
        )

    def test_gradnorm_column_matches_mixed_trace_prediction(self):
        model = isotropic_quadratic(2, 1.0, 0.6)
        rows = scan_bs_lr(model, [(0.05, 2)], run_length=60_000, replicas=4, master_seed=8)
        row = rows[0]
        assert abs(row.measured_grad_norm_sq / row.pred_w2019_gradnorm - 1.0) < 0.10

    def test_repeat_and_worker_counts_are_byte_identical(self, tmp_path):
        model = isotropic_quadratic(2, 1.0, 0.5)
        grid = [(0.05, 2), (0.1, 4)]
        paths = []
        for name, workers in (("a.csv", 1), ("b.csv", 1), ("c.csv", 2)):
            rows = scan_bs_lr(
                model, grid, run_length=3000, replicas=2, master_seed=42, workers=workers
            )
            path = tmp_path / name
            write_scan_csv(path, rows)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1] == paths[2]

    def test_finite_data_minimum_localization(self):
        features, labels = generate_blobs(example_count=30, feature_dim=2, class_count=2, seed=5)
        model = make_logistic(features, labels, l2_penalty=0.1)
        rows = scan_bs_lr(
            model, [(0.1, 5)], run_length=2000, replicas=2, master_seed=1,
            flow_t=250.0, flow_dt=0.05,
        )
        assert rows[0].converged
        assert np.isfinite(rows[0].pred_w2019_loss)

    def test_failed_localization_flags_row(self):
        features, labels = generate_blobs(example_count=30, feature_dim=2, class_count=2, seed=5)
        model = make_logistic(features, labels, l2_penalty=0.1)
        rows = scan_bs_lr(
            model, [(0.1, 5)], run_length=500, replicas=1, master_seed=1,
            flow_t=0.5, flow_dt=0.05,
        )
        assert not rows[0].converged
        for name in ("pred_j2018", "pred_w2019_loss", "pred_w2019_gradnorm", "magnitude_difference",
                     "tr_h", "tr_sigma2", "tr_sigma2_h"):
            assert math.isnan(getattr(rows[0], name)), name
        assert np.isfinite(rows[0].measured_grad_norm_sq)

    def test_validation(self, monkeypatch):
        model = isotropic_quadratic(1, 1.0, 0.1)
        with pytest.raises(ExperimentError):
            scan_bs_lr(model, [], run_length=10, replicas=1, master_seed=0)
        with pytest.raises(ExperimentError):
            scan_bs_lr(model, [(0.1, 1)], run_length=10, replicas=0, master_seed=0)
        with pytest.raises(ExperimentError, match=r"^grid pair \(lr 0.1, bs 2.5\)"):
            scan_bs_lr(model, [(0.1, 2.5)], run_length=10, replicas=1, master_seed=0)
        # The burn-in is refused before any run.
        monkeypatch.setattr(experiments, "_run_rows", lambda *args, **kwargs: pytest.fail("a run started"))
        for fraction in (1.5, 1.0, -0.1, float("nan")):
            with pytest.raises(EstimatorError, match=r"^burn_in_fraction must lie in \[0, 1\)$"):
                scan_bs_lr(model, [(0.1, 2)], 200_000, 2, 0, burn_in_fraction=fraction)

    def test_csv_schema(self, tmp_path):
        model = isotropic_quadratic(1, 1.0, 0.1)
        rows = scan_bs_lr(model, [(0.05, 1)], run_length=2000, replicas=1, master_seed=0)
        path = tmp_path / "scan.csv"
        write_scan_csv(path, rows)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == (
            "experiment_id,bs,lr,bs_over_lr,tr_h,tr_sigma2,tr_sigma2_h,"
            "excess_loss,grad_norm_sq,pred_j2018,pred_w2019_loss,"
            "pred_w2019_gradnorm,magnitude_diff,replicas"
        )
        cells = lines[1].split(",")
        assert cells[0] == "exp01"
        assert cells[1] == "1"
        assert len(cells) == 14


    def test_grid_point_row_does_not_depend_on_other_grid_points(self, tmp_path):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((9, 9))
        b = rng.standard_normal((9, 9))
        model = make_quadratic(a @ a.T / 9 + np.eye(9), np.zeros(9), b @ b.T / 9)
        alone = scan_bs_lr(model, [(0.02, 2)], run_length=3000, replicas=2, master_seed=9)
        together = scan_bs_lr(model, [(0.02, 2), (0.05, 4), (0.01, 1)], run_length=3000,
                              replicas=2, master_seed=9)
        write_scan_csv(tmp_path / "alone.csv", alone)
        write_scan_csv(tmp_path / "together.csv", together)
        assert alone[0] == together[0]
        alone_row = (tmp_path / "alone.csv").read_bytes().split(b"\n")[1]
        assert alone_row == (tmp_path / "together.csv").read_bytes().split(b"\n")[1]

    def test_divergent_grid_point_raises_with_its_partial_run(self, tmp_path, capsys):
        # lr * lambda_max = 2.4 > 2 on the second grid point only.
        model = make_quadratic(np.diag([1.0, 3.0]), np.zeros(2), 0.1 * np.eye(2))
        with pytest.raises(DivergenceError, match="divergence at step") as info:
            scan_bs_lr(model, [(0.01, 2), (0.8, 2)], run_length=2000, replicas=2, master_seed=4)
        err = info.value
        traj = err.trajectory
        assert 0 < traj.steps[-1] < err.step < 2000
        np.testing.assert_allclose(traj.times, 0.8 * traj.steps)
        assert np.isfinite(traj.losses).all()
        code = main(["scan", "--out_dir", str(tmp_path / "run"), "--hessian_diag", "1,3",
                     "--noise_diag", "0.1,0.1", "--lr_list", "0.01,0.8", "--bs_list", "2,2",
                     "--steps", "2000", "--replicas", "2", "--master_seed", "4"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: scan: divergence at step")

    def test_finite_data_divergence_comes_back_from_worker_processes(self):
        features, labels = generate_blobs(example_count=30, feature_dim=2, class_count=2, seed=5)
        model = make_logistic(features, labels, l2_penalty=1.0)
        errors = []
        for workers in (1, 2):
            with pytest.raises(DivergenceError) as info:
                scan_bs_lr(model, [(0.1, 5), (5.0, 5)], run_length=500, replicas=2,
                           master_seed=1, workers=workers)
            errors.append(info.value)
        serial, pooled = errors
        assert pooled.step == serial.step > 0
        assert str(pooled) == str(serial)
        np.testing.assert_array_equal(pooled.trajectory.steps, serial.trajectory.steps)
        np.testing.assert_array_equal(pooled.trajectory.losses, serial.trajectory.losses)

    def test_finite_data_divergence_with_the_earliest_step_is_raised(self):
        model = blob_logistic(1.0)
        with pytest.raises(DivergenceError) as alone:
            scan_bs_lr(model, [(5.0, 5)], run_length=500, replicas=1, master_seed=1)
        for workers in (1, 2):
            with pytest.raises(DivergenceError) as info:
                scan_bs_lr(model, [(5.0, 5), (10.0, 5)], run_length=500, replicas=1,
                           master_seed=1, workers=workers)
            # The later run (lr = 10) trips before the first one does.
            err = info.value
            assert 0 < err.step < alone.value.step
            np.testing.assert_array_equal(err.trajectory.times, 10.0 * err.trajectory.steps)

    def test_finite_data_scan_does_not_depend_on_worker_count(self, tmp_path):
        model = blob_logistic(0.1)
        outputs = []
        for workers in (1, 2):
            rows = scan_bs_lr(model, [(0.1, 5), (0.2, 10)], run_length=400, replicas=2,
                              master_seed=3, workers=workers, flow_t=5.0, flow_dt=0.05)
            write_scan_csv(tmp_path / "scan.csv", rows)
            outputs.append((tmp_path / "scan.csv").read_bytes()
                           + json.dumps([r.as_dict() for r in rows]).encode())
        assert outputs[0] == outputs[1]

    def test_finite_data_batch_larger_than_the_data_rejected(self, monkeypatch):
        def no_flow(*args, **kwargs):
            raise AssertionError("the minimum search ran on a grid the data cannot fill")

        monkeypatch.setattr(experiments, "gradient_flow", no_flow)
        with pytest.raises(EngineError, match="^batch_size 31 exceeds the 30 available examples$"):
            scan_bs_lr(blob_logistic(0.1), [(0.1, 31)], run_length=10, replicas=1,
                       master_seed=0, flow_t=0.5, flow_dt=0.05)

    def test_dense_guard_refuses_before_the_minimum_search(self, monkeypatch):
        def no_flow(*args, **kwargs):
            raise AssertionError("the minimum search ran on a model the guard refuses")

        monkeypatch.setattr(experiments, "gradient_flow", no_flow)
        features = 0.01 * np.random.default_rng(0).standard_normal((3, 2001))
        model = make_logistic(features, [0, 1, 0], l2_penalty=1.0)
        with pytest.raises(ModelError, match="param_dim 2001 exceeds the dense guard 2000"):
            scan_bs_lr(model, [(0.1, 1)], run_length=10, replicas=1, master_seed=0)

    def test_empty_csv_has_the_header(self, tmp_path):
        write_scan_csv(tmp_path / "scan.csv", [])
        assert (tmp_path / "scan.csv").read_text() == (
            "experiment_id,bs,lr,bs_over_lr,tr_h,tr_sigma2,tr_sigma2_h,"
            "excess_loss,grad_norm_sq,pred_j2018,pred_w2019_loss,"
            "pred_w2019_gradnorm,magnitude_diff,replicas\n"
        )


class TestLinearScaling:
    def test_ratio_classes_order_on_quadratic(self):
        model = isotropic_quadratic(2, 1.0, 0.4)
        curves = linear_scaling_experiment(
            model,
            base=(0.05, 2),
            factors=[1, 2],
            off_ratio=[(0.05, 8), (0.2, 2)],
            run_length=40_000,
            seed=14,
        )
        div = curves.class_divergence
        assert set(div) == {"same_ratio", "near_ratio", "far_ratio"}
        assert div["same_ratio"] < div["near_ratio"] < div["far_ratio"]

    def test_duplicate_base_config_diverges_by_zero(self):
        model = isotropic_quadratic(2, 1.0, 0.4)
        curves = linear_scaling_experiment(
            model, base=(0.05, 2), factors=[1], off_ratio=[], run_length=4000, seed=2
        )
        (entry,) = curves.entries
        assert entry.ratio_class == "same_ratio"
        assert entry.divergence_from_base == 0.0

    def test_off_ratio_classification_tie_breaks_on_rate_change(self):
        # Both off configs shift the ratio 4x; the batch-only change is the
        # nearer one.
        model = isotropic_quadratic(1, 1.0, 0.2)
        curves = linear_scaling_experiment(
            model, base=(0.05, 32), factors=[], off_ratio=[(0.05, 128), (0.2, 32)],
            run_length=500, seed=0,
        )
        by_label = {e.label: e.ratio_class for e in curves.entries}
        assert by_label["lr0.05_bs128"] == "near_ratio"
        assert by_label["lr0.2_bs32"] == "far_ratio"

    def test_classifier_model_reports_accuracy(self, tmp_path):
        features, labels = generate_blobs(example_count=60, feature_dim=3, class_count=3, seed=9)
        model = make_mlp(3, 4, 3, (features, labels), seed=1)
        curves = linear_scaling_experiment(
            model, base=(0.1, 10), factors=[1], off_ratio=[(0.1, 30)],
            run_length=300, seed=5, theta0=model.initial_params,
        )
        assert curves.base.accuracy is not None
        assert len(curves.base.accuracy) == len(curves.base.trajectory.steps)
        path = tmp_path / "curves.csv"
        write_curves_csv(path, curves)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "config_label,ratio_class,step,t,loss,accuracy"
        assert lines[1].startswith("base,base,0,")

    def test_classifier_curves_do_not_depend_on_worker_count(self, tmp_path):
        features, labels = generate_blobs(example_count=60, feature_dim=3, class_count=3, seed=9)
        model = make_mlp(3, 4, 3, (features, labels), seed=1)
        outputs = []
        for workers in (1, 2):
            curves = linear_scaling_experiment(
                model, base=(0.1, 10), factors=[1, 2], off_ratio=[(0.1, 30)],
                run_length=300, seed=5, theta0=model.initial_params, workers=workers,
            )
            write_curves_csv(tmp_path / "curves.csv", curves)
            outputs.append((tmp_path / "curves.csv").read_bytes()
                           + json.dumps(curves.as_dict()).encode())
        assert outputs[0] == outputs[1]

    def test_configs_sharing_a_label_are_refused_before_any_run(self, monkeypatch):
        def no_runs(*args, **kwargs):
            raise AssertionError("configs ran before their labels were checked")

        monkeypatch.setattr(experiments, "_run_rows", no_runs)
        with pytest.raises(ExperimentError, match="^more than one config has the label lr0.1_bs8$"):
            linear_scaling_experiment(isotropic_quadratic(2, 1.0, 0.4), base=(0.1, 4), factors=[],
                                      off_ratio=[(0.1000001, 8), (0.1000002, 8)], run_length=200,
                                      seed=0)

    def test_finite_data_batch_larger_than_the_data_rejected(self):
        with pytest.raises(EngineError, match="exceeds the 30 available examples"):
            linear_scaling_experiment(blob_logistic(0.1), base=(0.1, 5), factors=[],
                                      off_ratio=[(0.1, 40)], run_length=10, seed=0)

    def test_curves_csv_without_accuracy(self, tmp_path):
        model = isotropic_quadratic(1, 1.0, 0.2)
        curves = linear_scaling_experiment(
            model, base=(0.05, 2), factors=[2], off_ratio=[], run_length=400, seed=3
        )
        path = tmp_path / "curves.csv"
        write_curves_csv(path, curves)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "config_label,ratio_class,step,t,loss"
        row_count = sum(len(e.trajectory.steps) for e in [curves.base] + curves.entries)
        assert len(lines) == row_count + 1

    def test_report_dict_is_json_serializable(self):
        model = isotropic_quadratic(1, 1.0, 0.2)
        curves = linear_scaling_experiment(
            model, base=(0.05, 2), factors=[1], off_ratio=[(0.1, 2)], run_length=400, seed=3
        )
        blob = json.dumps(curves.as_dict())
        assert "class_divergence" in blob

    def test_batch_size_underflow_rejected(self):
        model = isotropic_quadratic(1, 1.0, 0.2)
        with pytest.raises(ExperimentError, match="batch size"):
            linear_scaling_experiment(
                model, base=(0.05, 2), factors=[0.001], off_ratio=[], run_length=100, seed=0
            )

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), -float("inf"), 0.0, -2.0])
    def test_non_finite_and_non_positive_factors_rejected(self, factor):
        model = isotropic_quadratic(1, 1.0, 0.2)
        with pytest.raises(ExperimentError, match=rf"factor {factor} must be finite"):
            linear_scaling_experiment(model, base=(0.05, 2), factors=[1, factor], off_ratio=[],
                                      run_length=100, seed=0)

    def test_factor_overflowing_the_batch_size_rejected_before_any_run(self, monkeypatch):
        monkeypatch.setattr(experiments, "_run_rows", lambda *args, **kwargs: pytest.fail("a run started"))
        with pytest.raises(ExperimentError, match=r"^factor 1e\+308 must be finite and keep the batch"):
            linear_scaling_experiment(isotropic_quadratic(1, 1.0, 0.2), base=(0.1, 4), factors=[2, 1e308],
                                      off_ratio=[], run_length=10, seed=0)

    def test_off_ratio_ranking_takes_quotients_beyond_the_float_range(self):
        # At base lr 5e-324 the base m/lr overflows; the ratio changes are
        # 2e322 for lr 0.1 and 2e23 for lr 1e-300.
        curves = linear_scaling_experiment(
            isotropic_quadratic(1, 1.0, 0.2), base=(5e-324, 4), factors=[],
            off_ratio=[(0.1, 4), (1e-300, 4)], run_length=10, seed=0,
        )
        assert [e.ratio_class for e in curves.entries] == ["far_ratio", "near_ratio"]

    @pytest.mark.parametrize("fraction", [2.0, -1.0, 1.0, float("nan")])
    def test_burn_in_outside_the_window_rejected_before_any_run(self, fraction, monkeypatch):
        monkeypatch.setattr(experiments, "_run_rows", lambda *args, **kwargs: pytest.fail("a run started"))
        with pytest.raises(EstimatorError, match=r"^burn_in_fraction must lie in \[0, 1\)$"):
            linear_scaling_experiment(isotropic_quadratic(1, 1.0, 0.2), base=(0.05, 2), factors=[2],
                                      off_ratio=[], run_length=100, seed=0, burn_in_fraction=fraction)

    def test_non_positive_pairs_rejected(self):
        model = isotropic_quadratic(1, 1.0, 0.2)
        with pytest.raises(ExperimentError, match=r"base pair \(lr 0, bs 2\)"):
            linear_scaling_experiment(model, base=(0.0, 2), factors=[1], off_ratio=[],
                                      run_length=100, seed=0)
        for lr, m in [(0.0, 2), (-0.1, 2), (float("nan"), 2), (0.05, 0), (0.05, -2), (0.05, 2.5)]:
            with pytest.raises(ExperimentError, match=r"off-ratio pair \(lr"):
                linear_scaling_experiment(model, base=(0.05, 2), factors=[1],
                                          off_ratio=[(0.1, 2), (lr, m)], run_length=100, seed=0)


class TestCltExperiment:
    def test_errors_shrink_with_step_size(self):
        model = isotropic_quadratic(1, 1.0, 1.0)
        report = clt_experiment(
            model, delta_list=[0.1, 0.01], batch_size=1, t_end=3.0, replicas=400, seed=7
        )
        assert report.monotone_ok
        assert report.frobenius_errors[-1] < 0.2
        limit = solve_lyapunov(SymMatrix([[1.0]]), SymMatrix([[1.0]])).entries[0, 0]
        assert limit == 0.5
        predicted = report.predicted_covs[-1].entries[0, 0]
        assert abs(predicted / (0.5 * (1.0 - np.exp(-2.0 * 3.0))) - 1.0) < 1e-6

    def test_start_at_minimum_matches_scalar_closed_form(self):
        model = isotropic_quadratic(1, 1.0, 1.0)
        report = clt_experiment(
            model, delta_list=[0.005], batch_size=2, t_end=2.0, replicas=600, seed=3
        )
        expected = 0.5 * (1.0 - np.exp(-4.0))
        empirical = report.empirical_covs[0][0, 0]
        assert abs(empirical / expected - 1.0) < 3.0 * report.noise_allowance

    def test_zero_eigenvalue_pair_sum_takes_the_horizon_limit(self):
        # H = diag(1, -1): the off-diagonal entry grows as C_01 * t.
        model = QuadraticModel(
            SymMatrix.diagonal([1.0, -1.0]), np.zeros(2), SymMatrix([[1.0, 0.3], [0.3, 1.0]]),
            require_positive_definite=False,
        )
        report = clt_experiment(model, [0.01], 1, 0.5, replicas=100, seed=0)
        t = 50 * 0.01
        expected = [
            [(1.0 - np.exp(-2.0 * t)) / 2.0, 0.3 * t],
            [0.3 * t, (np.exp(2.0 * t) - 1.0) / 2.0],
        ]
        np.testing.assert_allclose(report.predicted_covs[0].entries, expected, rtol=1e-12)

    def test_zero_noise_gives_zero_covariance(self):
        model = isotropic_quadratic(2, 1.0, 0.0)
        report = clt_experiment(
            model, delta_list=[0.01], batch_size=1, t_end=1.0, replicas=150, seed=1
        )
        assert report.frobenius_errors == [0.0]
        np.testing.assert_array_equal(report.empirical_covs[0], np.zeros((2, 2)))

    def test_validation(self):
        model = isotropic_quadratic(1, 1.0, 1.0)
        with pytest.raises(ExperimentError, match="descending"):
            clt_experiment(model, [0.01, 0.1], 1, 1.0, 200, 0)
        with pytest.raises(ExperimentError, match="replicas"):
            clt_experiment(model, [0.01], 1, 1.0, 99, 0)
        with pytest.raises(ExperimentError, match="t_end"):
            clt_experiment(model, [0.01], 1, 0.0, 200, 0)
        features, labels = generate_blobs(example_count=20, feature_dim=2, class_count=2, seed=0)
        logistic = make_logistic(features, labels)
        with pytest.raises(ExperimentError, match="quadratic"):
            clt_experiment(logistic, [0.01], 1, 1.0, 200, 0)

    @pytest.mark.parametrize("deltas", [[0.1, 5e-324], [0.1, 1e-300], [float("inf")]],
                             ids=["quotient-overflow", "beyond-int64", "infinite"])
    def test_step_counts_checked_before_any_ensemble(self, deltas, monkeypatch):
        monkeypatch.setattr(experiments, "sgd_replica_ensemble",
                            lambda *args, **kwargs: pytest.fail("an ensemble started"))
        with pytest.raises(ExperimentError, match=rf"^step size {deltas[-1]} must be finite and reach "
                                                  rf"t_end 1.0 in at most {engine._COUNT_LIMIT} steps$"):
            clt_experiment(isotropic_quadratic(1, 1.0, 1.0), deltas, 1, 1.0, 100, 0)

    def test_report_dict_is_json_serializable(self):
        model = isotropic_quadratic(1, 1.0, 0.5)
        report = clt_experiment(model, [0.02], 1, 1.0, 120, seed=9)
        blob = json.loads(json.dumps(report.as_dict()))
        assert blob["replicas"] == 120


class TestSaddleDivergence:
    def test_unstable_saddle_diverges_at_predicted_rate(self):
        report = saddle_divergence_experiment(
            SymMatrix(np.diag([1.0, -1.0])),
            SymMatrix(np.eye(2)),
            learning_rate=0.01,
            batch_size=1,
            steps=5000,
            replicas=10,
            seed=6,
        )
        assert report.verdict == "DIVERGED"
        assert report.escape_fraction >= 0.5
        assert abs(report.median_slope / report.expected_slope - 1.0) <= 0.30
        assert report.lambda_neg == -1.0

    def test_replicas_match_single_row_gaussian_runs(self):
        lr, m, steps, replicas, seed = 0.01, 1, 5000, 4, 6
        model = QuadraticModel(SymMatrix(np.diag([1.0, -1.0])), np.zeros(2),
                               SymMatrix(np.eye(2)), require_positive_definite=False)
        stops = []
        for r, (traj, stopped) in enumerate(_saddle_runs(model, lr, m, steps, replicas, seed)):
            cfg = SgdConfig(lr, m, steps, derive_seed(seed, r))
            try:
                single = gaussian_sgd_run(model, np.zeros(2), cfg, snapshots=True)
                single_stopped = False
            except DivergenceError as err:
                single, single_stopped = err.trajectory, True
            assert stopped == single_stopped
            np.testing.assert_array_equal(traj.steps, single.steps)
            np.testing.assert_array_equal(traj.losses, single.losses)
            np.testing.assert_array_equal(traj.grad_norms_sq, single.grad_norms_sq)
            np.testing.assert_array_equal(traj.thetas, single.thetas)
            stops.append(stopped)
        assert any(stops)

    def test_reports_exact_and_small_step_rates(self):
        report = saddle_divergence_experiment(
            SymMatrix(np.diag([1.0, -2.0])), SymMatrix(np.eye(2)),
            learning_rate=0.05, batch_size=1, steps=200, replicas=2, seed=1,
        )
        assert report.expected_slope == math.log1p(0.1)
        assert report.expected_slope_small_lr == 0.1
        assert report.as_dict()["expected_slope_small_lr"] == 0.1

    def test_zero_noise_stays_pinned(self):
        report = saddle_divergence_experiment(
            SymMatrix(np.diag([1.0, -1.0])),
            SymMatrix(np.zeros((2, 2))),
            learning_rate=0.01,
            batch_size=1,
            steps=500,
            replicas=3,
            seed=0,
        )
        assert report.verdict == "STABLE"
        assert report.escape_fraction == 0.0
        assert math.isnan(report.median_slope)

    def test_positive_definite_curvature_rejected(self):
        with pytest.raises(ExperimentError, match="negative eigenvalue"):
            saddle_divergence_experiment(
                SymMatrix(np.diag([1.0, 2.0])), SymMatrix(np.eye(2)),
                0.01, 1, 100, 2, 0,
            )

    def test_median_helper_equals_numpy_median(self):
        rng = np.random.default_rng(12)
        for size in (1, 2, 3, 4, 7, 10, 11):
            scales = 10.0 ** rng.integers(-4, 5, size)
            values = [float(v) for v in rng.standard_normal(size) * scales]
            assert _median(values) == float(np.median(values))
        assert _median([2.0, -1.0]) == float(np.median([2.0, -1.0])) == 0.5
        assert _median([3.0, 1.0, 2.0]) == 2.0

    def test_probe_does_not_import_numpy_ma(self):
        script = (
            "import sys, numpy\n"
            "before = 'numpy.ma' in sys.modules\n"
            "from sgdscope import SymMatrix, saddle_divergence_experiment\n"
            "report = saddle_divergence_experiment(SymMatrix(numpy.diag([1.0, -1.0])),\n"
            "    SymMatrix(numpy.eye(2)), 0.01, 1, 2000, 4, 6)\n"
            "assert report.replica_slopes\n"
            "print(not before and 'numpy.ma' in sys.modules)\n"
        )
        src = str(Path(sgdscope.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_snapshot_budget_counts_every_replica(self, monkeypatch):
        # 101 records of 2 entries fit a budget of 300 for one replica, not for two.
        monkeypatch.setattr(engine, "SNAPSHOT_BUDGET", 300)
        args = (SymMatrix(np.diag([1.0, -1.0])), SymMatrix(np.eye(2)), 0.01, 1, 100)
        saddle_divergence_experiment(*args, 1, 0)
        # The over-budget run is refused before any row steps.
        monkeypatch.setattr(engine, "_lockstep", lambda *args, **kwargs: pytest.fail("a row stepped"))
        with pytest.raises(ExperimentError, match="snapshot budget 300"):
            saddle_divergence_experiment(*args, 2, 0)

    def test_report_dict_is_json_serializable(self):
        report = saddle_divergence_experiment(
            SymMatrix(np.diag([1.0, -0.5])), SymMatrix(np.eye(2)),
            0.02, 1, 2000, 4, seed=2,
        )
        blob = json.loads(json.dumps(report.as_dict()))
        assert blob["verdict"] in ("DIVERGED", "STABLE")


def test_every_json_report_has_fixed_keys_each_naming_its_field():
    """The exact keys of each report's ``as_dict`` and the field behind each key."""
    def check(d, fields, report):
        assert set(d) == set(fields)
        assert all(d[key] == getattr(report, name) for key, name in fields.items())

    report = prediction_report(0.1, 2, 1.0, 2.0, 3.0)
    check(report.as_dict(), {key: key for key in (
        "tr_h", "tr_sigma2", "tr_sigma2_h", "pred_loss_j2018", "pred_excess_loss_w2019",
        "pred_gradnorm_w2019", "magnitude_difference")}, report)

    report = SaddleReport(verdict="DIVERGED", escape_fraction=0.75, median_slope=0.011,
                          expected_slope=0.0099, expected_slope_small_lr=0.01,
                          replica_slopes=[0.01, 0.012], lambda_neg=-1.0, learning_rate=0.02,
                          batch_size=3, steps=2000, replicas=4)
    check(report.as_dict(), {key: key for key in (
        "verdict", "escape_fraction", "median_slope", "expected_slope", "expected_slope_small_lr",
        "replica_slopes", "lambda_neg", "steps", "replicas")}
        | {"lr": "learning_rate", "bs": "batch_size"}, report)

    report = CltReport(learning_rates=[0.1, 0.01], batch_size=2, t_end=3.0, replicas=100,
                       frobenius_errors=[0.2, 0.1], noise_allowance=0.14, monotone_ok=True,
                       predicted_covs=[SymMatrix([[1.0]]), SymMatrix([[0.5]])],
                       empirical_covs=[np.array([[1.1]]), np.array([[0.6]])])
    d = report.as_dict()
    assert d.pop("predicted_cov_smallest_lr") == [[0.5]]
    assert d.pop("empirical_cov_smallest_lr") == [[0.6]]
    check(d, {key: key for key in (
        "learning_rates", "batch_size", "t_end", "replicas", "frobenius_errors",
        "noise_allowance", "monotone_ok")}, report)

    traj = Trajectory(1, np.array([0]), np.array([0.0]), np.array([1.0]), np.array([2.0]))
    base = CurveEntry(label="base", ratio_class="base", learning_rate=0.05, batch_size=2,
                      trajectory=traj, smoothed=np.ones(1), divergence_from_base=float("nan"))
    entry = CurveEntry(label="lr0.1_bs4", ratio_class="same_ratio", learning_rate=0.1,
                       batch_size=4, trajectory=traj, smoothed=np.ones(1), divergence_from_base=0.25)
    curves = CurveSet(base=base, entries=[entry], grid=np.ones(1),
                      class_divergence={"same_ratio": 0.25})
    assert curves.as_dict() == {
        "base_label": "base",
        "class_divergence": {"same_ratio": 0.25},
        "entries": [{"label": "lr0.1_bs4", "ratio_class": "same_ratio", "lr": 0.1, "bs": 4,
                     "divergence_from_base": 0.25}],
    }

    row = ScanRow(experiment_id="exp01", batch_size=4, learning_rate=0.1, ratio=40.0, tr_h=1.0,
                  tr_sigma2=2.0, tr_sigma2_h=3.0, measured_excess_loss=0.04,
                  measured_grad_norm_sq=0.05, pred_j2018=0.025, pred_w2019_loss=0.05,
                  pred_w2019_gradnorm=0.0375, magnitude_difference=0.5, replica_count=7,
                  converged=False)
    check(row.as_dict(), {
        "experiment_id": "experiment_id", "bs": "batch_size", "lr": "learning_rate",
        "bs_over_lr": "ratio", "tr_h": "tr_h", "tr_sigma2": "tr_sigma2",
        "tr_sigma2_h": "tr_sigma2_h", "excess_loss": "measured_excess_loss",
        "grad_norm_sq": "measured_grad_norm_sq", "pred_j2018": "pred_j2018",
        "pred_w2019_loss": "pred_w2019_loss", "pred_w2019_gradnorm": "pred_w2019_gradnorm",
        "magnitude_diff": "magnitude_difference", "replicas": "replica_count",
        "converged": "converged"}, row)
