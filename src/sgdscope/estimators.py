"""Scalar diagnostics and closed-form stationary predictions.

Three trace quantities drive everything here: the loss curvature trace
tr(H), the per-example gradient covariance trace tr(C), and the mixed
trace tr(C H).  The predictors turn those into expected stationary excess
loss and gradient norm at a given step size and batch size.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .engine import Trajectory, _check_batch_sizes
from .linalg import trace
from .problems import LossModel, as_param_vector, gradient_covariance, hessian_dense

__all__ = [
    "EstimatorError",
    "StationaryStats",
    "PredictionReport",
    "stationary_stats",
    "predict_loss_j2018",
    "predict_excess_loss_w2019",
    "predict_gradnorm_w2019",
    "magnitude_difference",
    "prediction_report",
    "model_report",
    "format_prediction_report",
]


class EstimatorError(ValueError):
    """Raised on estimator precondition violations."""


@dataclass(frozen=True)
class StationaryStats:
    """Averages over the post-burn-in window of a trajectory; with snapshots,
    also the per-coordinate variance of the parameters over that window."""

    mean_loss: float
    mean_grad_norm_sq: float
    sample_count: int
    burn_in_fraction: float
    param_variance: np.ndarray | None = None


@dataclass(frozen=True)
class PredictionReport:
    """Measured traces plus the three stationary predictions they imply.

    ``magnitude_difference`` is NaN when the covariance trace is not
    positive (the ratio is undefined there).
    """

    tr_h: float
    tr_sigma2: float
    tr_sigma2_h: float
    pred_loss_j2018: float
    pred_excess_loss_w2019: float
    pred_gradnorm_w2019: float
    magnitude_difference: float

    def as_dict(self) -> dict:
        return asdict(self)


def _check_rate_and_batch(learning_rate: float, batch_size: int) -> None:
    if not (np.isfinite(learning_rate) and learning_rate > 0):
        raise EstimatorError("learning_rate must be positive and finite")
    _check_batch_sizes(batch_size, EstimatorError)


def _check_burn_in(burn_in_fraction: float) -> None:
    if not (0.0 <= burn_in_fraction < 1.0):
        raise EstimatorError("burn_in_fraction must lie in [0, 1)")


def _dense_traces(model: LossModel, theta) -> tuple[float, float, float]:
    """Exact tr(H), tr(C) and tr(C H) from the assembled curvature and
    gradient covariance matrices."""
    hess = hessian_dense(model, theta)
    cov = gradient_covariance(model, theta)
    return trace(hess), trace(cov), float(np.trace(cov.entries @ hess.entries))


def stationary_stats(traj: Trajectory, burn_in_fraction: float = 0.5) -> StationaryStats:
    """Averages over records with step >= burn_in_fraction * final step."""
    _check_burn_in(burn_in_fraction)
    threshold = burn_in_fraction * traj.steps[-1]
    mask = traj.steps >= threshold
    count = int(mask.sum())
    if count < 1:
        raise EstimatorError("no records remain after burn-in")
    return StationaryStats(
        mean_loss=float(traj.losses[mask].mean()),
        mean_grad_norm_sq=float(traj.grad_norms_sq[mask].mean()),
        sample_count=count,
        burn_in_fraction=burn_in_fraction,
        param_variance=None if traj.thetas is None else traj.thetas[mask].var(axis=0),
    )


def predict_loss_j2018(learning_rate: float, batch_size: int, tr_h: float) -> float:
    """Expected stationary loss from the curvature trace alone."""
    _check_rate_and_batch(learning_rate, batch_size)
    if tr_h < 0:
        raise EstimatorError("tr_h must be nonnegative")
    return learning_rate * tr_h / (4.0 * batch_size)


def predict_excess_loss_w2019(learning_rate: float, batch_size: int, tr_sigma2: float) -> float:
    """Expected stationary excess loss from the gradient-noise trace."""
    _check_rate_and_batch(learning_rate, batch_size)
    if tr_sigma2 < 0:
        raise EstimatorError("tr_sigma2 must be nonnegative")
    return learning_rate * tr_sigma2 / (4.0 * batch_size)


def predict_gradnorm_w2019(learning_rate: float, batch_size: int, tr_sigma2_h: float) -> float:
    """Expected stationary squared gradient norm from the mixed trace."""
    _check_rate_and_batch(learning_rate, batch_size)
    if tr_sigma2_h < 0:
        raise EstimatorError("tr_sigma2_h must be nonnegative")
    return learning_rate * tr_sigma2_h / (2.0 * batch_size)


def magnitude_difference(tr_h: float, tr_sigma2: float) -> float:
    """Ratio of curvature trace to noise trace; the factor separating the
    two loss predictions."""
    if not tr_sigma2 > 0:
        raise EstimatorError(
            f"undefined ratio: tr_sigma2 must be positive, got {tr_sigma2}"
        )
    return tr_h / tr_sigma2


def prediction_report(
    learning_rate: float,
    batch_size: int,
    tr_h: float,
    tr_sigma2: float,
    tr_sigma2_h: float,
) -> PredictionReport:
    """Assemble all three predictions from already-measured traces."""
    ratio = tr_h / tr_sigma2 if tr_sigma2 > 0 else float("nan")
    return PredictionReport(
        tr_h=tr_h,
        tr_sigma2=tr_sigma2,
        tr_sigma2_h=tr_sigma2_h,
        pred_loss_j2018=predict_loss_j2018(learning_rate, batch_size, tr_h),
        pred_excess_loss_w2019=predict_excess_loss_w2019(learning_rate, batch_size, tr_sigma2),
        pred_gradnorm_w2019=predict_gradnorm_w2019(learning_rate, batch_size, tr_sigma2_h),
        magnitude_difference=ratio,
    )


def model_report(model: LossModel, theta, learning_rate: float, batch_size: int) -> PredictionReport:
    """Measure the exact traces at ``theta`` and build the prediction report.

    Models above the dense guard raise ``problems.ModelError``.
    """
    _check_rate_and_batch(learning_rate, batch_size)  # before the dense traces
    tr_h, tr_sigma2, tr_mixed = _dense_traces(model, as_param_vector(theta, model.param_dim))
    return prediction_report(learning_rate, batch_size, tr_h, tr_sigma2, tr_mixed)


def format_prediction_report(report: PredictionReport) -> str:
    lines = [
        f"tr(H)                : {report.tr_h:.6e}",
        f"tr(C)                : {report.tr_sigma2:.6e}",
        f"tr(C H)              : {report.tr_sigma2_h:.6e}",
        f"pred loss (tr H)     : {report.pred_loss_j2018:.6e}",
        f"pred excess loss     : {report.pred_excess_loss_w2019:.6e}",
        f"pred grad norm sq    : {report.pred_gradnorm_w2019:.6e}",
        f"magnitude difference : {report.magnitude_difference:.4f}",
    ]
    return "\n".join(lines)
