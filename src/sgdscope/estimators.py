"""Scalar diagnostics and closed-form stationary predictions.

Three trace quantities drive everything here: the loss curvature trace
tr(H), the per-example gradient covariance trace tr(C), and the mixed
trace tr(C H).  The predictors turn those into expected stationary excess
loss and gradient norm at a given step size and batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import Trajectory
from .linalg import SymMatrix, trace
from .problems import DENSE_GUARD, LossModel, as_param_vector, gradient_covariance, hessian_dense

__all__ = [
    "EstimatorError",
    "StationaryStats",
    "PredictionReport",
    "hutchinson_trace",
    "grad_cov_trace",
    "trace_sigma2_h",
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
    """Averages over the post-burn-in window of a trajectory."""

    mean_loss: float
    mean_grad_norm_sq: float
    sample_count: int
    burn_in_fraction: float
    empirical_param_cov: SymMatrix | None = None


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
        return {
            "tr_h": self.tr_h,
            "tr_sigma2": self.tr_sigma2,
            "tr_sigma2_h": self.tr_sigma2_h,
            "pred_loss_j2018": self.pred_loss_j2018,
            "pred_excess_loss_w2019": self.pred_excess_loss_w2019,
            "pred_gradnorm_w2019": self.pred_gradnorm_w2019,
            "magnitude_difference": self.magnitude_difference,
        }


def _check_rate_and_batch(learning_rate: float, batch_size: int) -> None:
    if not (np.isfinite(learning_rate) and learning_rate > 0):
        raise EstimatorError("learning_rate must be positive and finite")
    if batch_size < 1:
        raise EstimatorError("batch_size must be at least 1")


def hutchinson_trace(model: LossModel, theta, probe_count: int, seed: int) -> tuple[float, float]:
    """Randomized curvature trace with a plain standard error.

    Averages v^T (H v) over Rademacher probes v; E[v^T H v] = tr(H) and the
    per-probe variance vanishes for diagonal H with equal entries (each
    probe then returns the trace exactly).
    """
    if probe_count < 2:
        raise EstimatorError("probe_count must be at least 2")
    theta = as_param_vector(theta, model.param_dim)
    rng = np.random.default_rng(seed)
    quads = np.empty(probe_count)
    for i in range(probe_count):
        v = rng.integers(0, 2, size=model.param_dim) * 2.0 - 1.0
        quads[i] = v @ model.hvp(theta, v)
    estimate = float(quads.mean())
    stderr = float(quads.std(ddof=1) / math.sqrt(probe_count))
    return estimate, stderr


def _gradient_samples(model: LossModel, theta, sample_count: int, seed: int) -> np.ndarray:
    """Per-example gradients (finite data) or seeded synthesized draws."""
    if model.example_count is not None:
        if model.example_count < 2:
            raise EstimatorError("need at least 2 examples for a covariance")
        return model.per_example_grads(theta)
    if sample_count < 2:
        raise EstimatorError("sample_count must be at least 2 for synthesized draws")
    rng = np.random.default_rng(seed)
    return model.synthesized_grad_draws(theta, sample_count, rng)


def grad_cov_trace(model: LossModel, theta, sample_count: int, seed: int = 0) -> float:
    """Trace of the per-example gradient covariance, no matrix formed.

    Computes mean_j ||g_j - gbar||^2 with gbar the sample mean, matching
    the population normalization of ``gradient_covariance``.
    """
    theta = as_param_vector(theta, model.param_dim)
    grads = _gradient_samples(model, theta, sample_count, seed)
    centered = grads - grads.mean(axis=0)
    return float((centered * centered).sum() / grads.shape[0])


def _dense_traces(model: LossModel, theta, sample_count: int, seed: int) -> tuple[float, float, float]:
    """Exact tr(H), tr(C) and tr(C H) from the assembled curvature matrix and
    the exact covariance when the model knows it (otherwise the empirical
    one from ``sample_count`` draws seeded by ``seed``)."""
    hess = hessian_dense(model, theta)
    cov = model.exact_gradient_covariance()
    if cov is None:
        cov = gradient_covariance(model, theta, sample_count, seed)
    return trace(hess), trace(cov), float(np.trace(cov.entries @ hess.entries))


def trace_sigma2_h(
    model: LossModel,
    theta,
    probe_count: int,
    seed: int,
    *,
    dense_limit: int = DENSE_GUARD,
    sample_count: int = 10_000,
) -> float:
    """Mixed trace tr(C H) of gradient covariance against curvature.

    Small models take the dense route: the exact covariance when the model
    knows it (otherwise the empirical one) contracted against the assembled
    curvature matrix.  Above ``dense_limit`` parameters the estimate is
    randomized: deviations g_j - grad f are unbiased covariance probes, so
    mean_j (g_j - grad f)^T H (g_j - grad f) converges to tr(C H).
    """
    if probe_count < 2:
        raise EstimatorError("probe_count must be at least 2")
    theta = as_param_vector(theta, model.param_dim)
    if model.param_dim <= dense_limit:
        return _dense_traces(model, theta, sample_count, seed)[2]
    mean_grad = model.full_grad(theta)
    rng = np.random.default_rng(seed)
    if model.example_count is not None:
        picks = rng.integers(0, model.example_count, size=probe_count)
        deviations = (model.per_example_grad(theta, int(j)) - mean_grad for j in picks)
    else:
        deviations = model.synthesized_grad_draws(theta, probe_count, rng) - mean_grad
    return float(np.mean([v @ model.hvp(theta, v) for v in deviations]))


def stationary_stats(traj: Trajectory, burn_in_fraction: float = 0.5) -> StationaryStats:
    """Averages over records with step >= burn_in_fraction * final step."""
    if not (0.0 <= burn_in_fraction < 1.0):
        raise EstimatorError("burn_in_fraction must lie in [0, 1)")
    threshold = burn_in_fraction * traj.steps[-1]
    mask = traj.steps >= threshold
    count = int(mask.sum())
    if count < 1:
        raise EstimatorError("no records remain after burn-in")
    cov = None
    if traj.thetas is not None:
        window = traj.thetas[mask]
        centered = window - window.mean(axis=0)
        raw = centered.T @ centered / count
        cov = SymMatrix(0.5 * (raw + raw.T))
    return StationaryStats(
        mean_loss=float(traj.losses[mask].mean()),
        mean_grad_norm_sq=float(traj.grad_norms_sq[mask].mean()),
        sample_count=count,
        burn_in_fraction=burn_in_fraction,
        empirical_param_cov=cov,
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


def model_report(
    model: LossModel,
    theta,
    learning_rate: float,
    batch_size: int,
    *,
    probe_count: int = 64,
    sample_count: int = 10_000,
    seed: int = 0,
) -> PredictionReport:
    """Measure the traces at ``theta`` and build the prediction report.

    Models under the dense guard get exact traces (assembled curvature and
    exact-or-empirical covariance); larger models fall back to the
    randomized estimators.
    """
    theta = as_param_vector(theta, model.param_dim)
    if model.param_dim <= DENSE_GUARD:
        tr_h, tr_sigma2, tr_mixed = _dense_traces(model, theta, sample_count, seed)
    else:
        tr_h, _ = hutchinson_trace(model, theta, probe_count, seed)
        tr_sigma2 = grad_cov_trace(model, theta, sample_count, seed)
        tr_mixed = trace_sigma2_h(model, theta, probe_count, seed, sample_count=sample_count)
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
