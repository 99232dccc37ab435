"""Trace estimators, stationary averages, and the closed-form predictors."""

import math

import numpy as np
import pytest

from sgdscope.engine import SgdConfig, Trajectory, sgd_run
from sgdscope.estimators import (
    EstimatorError,
    PredictionReport,
    format_prediction_report,
    magnitude_difference,
    model_report,
    predict_excess_loss_w2019,
    predict_gradnorm_w2019,
    predict_loss_j2018,
    prediction_report,
    stationary_stats,
)
from sgdscope.linalg import SymMatrix, solve_lyapunov, trace
from sgdscope.problems import generate_blobs, gradient_covariance, make_logistic, make_quadratic

from _oracles import random_spd


def quadratic(hessian_diag, cov_diag):
    dim = len(hessian_diag)
    return make_quadratic(
        hessian=np.diag(hessian_diag),
        minimizer=np.zeros(dim),
        noise_cov=np.diag(cov_diag),
    )


def small_logistic():
    features, labels = generate_blobs(example_count=60, feature_dim=4, class_count=2, seed=3)
    return make_logistic(features, labels, l2_penalty=1e-3)


class TestStationaryStats:
    def make_traj(self, losses, steps=None, thetas=None):
        losses = np.asarray(losses, dtype=float)
        steps = np.arange(len(losses)) if steps is None else np.asarray(steps)
        return Trajectory(
            record_stride=1,
            steps=steps,
            times=steps.astype(float),
            losses=losses,
            grad_norms_sq=2.0 * losses,
            thetas=thetas,
        )

    def test_constant_trajectory(self):
        stats = stationary_stats(self.make_traj([3.0, 3.0, 3.0]), burn_in_fraction=0.0)
        assert stats.mean_loss == 3.0
        assert stats.sample_count == 3
        assert stats.param_variance is None

    def test_burn_in_window(self):
        stats = stationary_stats(self.make_traj([10.0, 10.0, 2.0, 2.0]), burn_in_fraction=0.5)
        assert stats.mean_loss == 2.0
        assert stats.mean_grad_norm_sq == 4.0
        assert stats.sample_count == 2

    def test_window_uses_steps_not_record_indices(self):
        traj = self.make_traj([10.0, 2.0, 2.0], steps=np.array([0, 900, 1000]))
        stats = stationary_stats(traj, burn_in_fraction=0.5)
        assert stats.mean_loss == 2.0
        assert stats.sample_count == 2

    def test_empirical_covariance_from_snapshots(self):
        thetas = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        traj = self.make_traj([1.0] * 4, thetas=thetas)
        stats = stationary_stats(traj, burn_in_fraction=0.0)
        np.testing.assert_allclose(stats.param_variance, [1.0, 0.0], atol=1e-15)

    def test_burn_in_validation(self):
        traj = self.make_traj([1.0, 2.0])
        with pytest.raises(EstimatorError, match="burn_in_fraction"):
            stationary_stats(traj, burn_in_fraction=1.0)
        with pytest.raises(EstimatorError, match="burn_in_fraction"):
            stationary_stats(traj, burn_in_fraction=-0.1)

    def test_benchmark_run_matches_prediction(self):
        lr, m = 0.05, 5
        model = quadratic([1.0, 2.0], [0.4, 0.4])
        traj = sgd_run(model, np.zeros(2), SgdConfig(lr, m, 120_000, seed=33), record_stride=4)
        stats = stationary_stats(traj, burn_in_fraction=0.5)
        predicted = predict_excess_loss_w2019(lr, m, 0.8)
        assert abs(stats.mean_loss / predicted - 1.0) < 0.10


class TestPredictors:
    def test_published_operating_points(self):
        assert abs(predict_loss_j2018(0.08, 100, 22_398_330) / 4479.666 - 1.0) < 1e-12
        assert abs(predict_excess_loss_w2019(0.08, 100, 9_528_207) / 1905.6414 - 1.0) < 1e-12

    def test_zero_traces(self):
        assert predict_loss_j2018(0.1, 2, 0.0) == 0.0
        assert predict_excess_loss_w2019(0.1, 2, 0.0) == 0.0
        assert predict_gradnorm_w2019(0.1, 2, 0.0) == 0.0

    def test_ratio_invariance_is_exact(self):
        base = (0.01, 3, 7.5)
        for fn in (predict_loss_j2018, predict_excess_loss_w2019, predict_gradnorm_w2019):
            assert fn(base[0], base[1], base[2]) == fn(2 * base[0], 2 * base[1], base[2])

    def test_batch_doubling_halves_loss_prediction(self):
        assert predict_excess_loss_w2019(0.1, 2, 4.0) == 2 * predict_excess_loss_w2019(0.1, 4, 4.0)

    def test_coinciding_traces_reduce_to_same_prediction(self):
        assert predict_loss_j2018(0.03, 7, 5.25) == predict_excess_loss_w2019(0.03, 7, 5.25)

    def test_gradnorm_scaling(self):
        assert predict_gradnorm_w2019(0.01, 1, 2.0) == 0.01

    def test_validation(self):
        with pytest.raises(EstimatorError):
            predict_loss_j2018(-0.1, 1, 1.0)
        with pytest.raises(EstimatorError):
            predict_excess_loss_w2019(0.1, 0, 1.0)
        with pytest.raises(EstimatorError):
            predict_gradnorm_w2019(0.1, 1, -1.0)
        model = quadratic([1.0, 2.0], [0.4, 0.4])
        for batch_size in (2.5, float("nan")):
            with pytest.raises(EstimatorError, match="^batch_size must be a whole number of at least 1$"):
                predict_loss_j2018(0.1, batch_size, 1.0)
            with pytest.raises(EstimatorError, match="^batch_size must be a whole number of at least 1$"):
                model_report(model, np.zeros(2), 0.1, batch_size)

    def test_lyapunov_route_equality(self):
        # The stationary-covariance route and the trace shortcut must agree:
        # (lr/m) * 0.5 * tr(H G) with G solving GH + HG = C equals
        # lr * tr(C) / (4 m).
        rng = np.random.default_rng(44)
        for _ in range(50):
            dim = int(rng.integers(1, 9))
            h = SymMatrix(random_spd(rng, dim))
            c = SymMatrix(random_spd(rng, dim))
            gamma = solve_lyapunov(h, c)
            lr, m = 0.02, 4
            via_lyapunov = (lr / m) * 0.5 * np.trace(h.entries @ gamma.entries)
            direct = predict_excess_loss_w2019(lr, m, trace(c))
            assert abs(via_lyapunov / direct - 1.0) < 1e-10


class TestMagnitudeDifference:
    def test_published_ratios_round_as_reported(self):
        assert round(magnitude_difference(22_398_330, 9_528_207), 1) == 2.4
        assert round(magnitude_difference(41_058_846, 3_486_877), 1) == 11.8

    def test_equal_traces(self):
        assert magnitude_difference(3.7, 3.7) == 1.0

    def test_nonpositive_denominator_rejected(self):
        with pytest.raises(EstimatorError, match="undefined ratio"):
            magnitude_difference(1.0, 0.0)
        with pytest.raises(EstimatorError, match="undefined ratio"):
            magnitude_difference(1.0, -2.0)


class TestPredictionReport:
    def test_fields_consistent(self):
        report = prediction_report(0.02, 4, tr_h=8.0, tr_sigma2=2.0, tr_sigma2_h=6.0)
        assert report.pred_loss_j2018 == predict_loss_j2018(0.02, 4, 8.0)
        assert report.pred_excess_loss_w2019 == predict_excess_loss_w2019(0.02, 4, 2.0)
        assert report.pred_gradnorm_w2019 == predict_gradnorm_w2019(0.02, 4, 6.0)
        assert report.magnitude_difference == 4.0

    def test_zero_noise_ratio_is_nan(self):
        report = prediction_report(0.02, 4, tr_h=8.0, tr_sigma2=0.0, tr_sigma2_h=0.0)
        assert math.isnan(report.magnitude_difference)

    def test_nan_traces_give_nan_predictions(self):
        nan = float("nan")
        report = prediction_report(0.1, 2, nan, nan, nan)
        for value in (report.pred_loss_j2018, report.pred_excess_loss_w2019,
                      report.pred_gradnorm_w2019, report.magnitude_difference):
            assert math.isnan(value)

    def test_as_dict_round_trip(self):
        report = prediction_report(0.1, 2, 1.0, 2.0, 3.0)
        d = report.as_dict()
        assert d["tr_sigma2"] == 2.0
        assert PredictionReport(**d) == report

    def test_format_is_multiline_text(self):
        report = prediction_report(0.1, 2, 1.0, 2.0, 3.0)
        text = format_prediction_report(report)
        assert "magnitude difference" in text
        assert len(text.splitlines()) == 7


class TestModelReport:
    def test_quadratic_dense_traces_are_exact(self):
        model = quadratic([1.0, 2.0], [0.5, 0.5])
        report = model_report(model, np.zeros(2), learning_rate=0.01, batch_size=5)
        assert report.tr_h == 3.0
        assert report.tr_sigma2 == 1.0
        assert report.tr_sigma2_h == 1.5

    @pytest.mark.parametrize(
        "h_diag, c_diag, tr_mixed",
        [
            ([3.0, 4.0], [1.0, 2.0], 11.0),
            # C = I: tr(C H) is tr(H).
            ([0.5, 1.5, 2.0], [1.0, 1.0, 1.0], 4.0),
        ],
        ids=["diagonal", "identity_noise"],
    )
    def test_mixed_trace_is_exact_diagonal_arithmetic(self, h_diag, c_diag, tr_mixed):
        model = quadratic(h_diag, c_diag)
        report = model_report(model, np.zeros(len(h_diag)), learning_rate=0.01, batch_size=5)
        assert report.tr_sigma2_h == tr_mixed

    def test_zero_noise_gives_zero_traces_and_nan_ratio(self):
        model = quadratic([3.0, 4.0], [0.0, 0.0])
        report = model_report(model, np.zeros(2), learning_rate=0.01, batch_size=5)
        assert report.tr_sigma2 == report.tr_sigma2_h == 0.0
        assert math.isnan(report.magnitude_difference)

    def test_matching_curvature_and_noise_coincide_bitwise(self):
        h = random_spd(np.random.default_rng(3), 4)
        model = make_quadratic(hessian=h, minimizer=np.zeros(4), noise_cov=h)
        report = model_report(model, np.zeros(4), learning_rate=0.01, batch_size=5)
        assert report.tr_h == report.tr_sigma2
        assert report.pred_loss_j2018 == report.pred_excess_loss_w2019
        assert report.magnitude_difference == 1.0

    def test_finite_data_report_uses_empirical_covariance(self):
        model = small_logistic()
        theta = np.zeros(model.param_dim)
        report = model_report(model, theta, learning_rate=0.1, batch_size=4)
        expected = trace(gradient_covariance(model, theta))
        assert abs(report.tr_sigma2 - expected) < 1e-12
        assert report.tr_h > 0
