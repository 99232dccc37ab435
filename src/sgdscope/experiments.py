"""Orchestrated studies: ratio scans, scaling curves, the weak-convergence
check, and the saddle-instability probe.

Every experiment seeds its runs from a single master seed through
``numpy.random.SeedSequence`` chains keyed on structural indices (grid
position, replica number, config identity), so results are reproducible
and independent of how work is partitioned across processes.

The scan and the scaling curves take their runs from the engine's row
runner, ``engine._run_rows``: all runs are rows of one call of the stepping
core, which splits them over at most ``workers`` processes.  The divergence
with the earliest step over all runs is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import engine
from .engine import (DivergenceError, Trajectory, _advance_rows, _run_rows, gradient_flow,
                     sgd_replica_ensemble)
from .estimators import _check_burn_in, _dense_traces, prediction_report, stationary_stats
from .linalg import SymMatrix, _write_csv
from .problems import LossModel, QuadraticModel, _check_dense_guard

__all__ = [
    "ExperimentError",
    "ScanRow",
    "CurveEntry",
    "CurveSet",
    "CltReport",
    "SaddleReport",
    "derive_seed",
    "float_bits",
    "scan_bs_lr",
    "linear_scaling_experiment",
    "clt_experiment",
    "saddle_divergence_experiment",
    "write_scan_csv",
    "write_curves_csv",
]

MINIMUM_GRAD_NORM = 1e-6
ESCAPE_NORM = 1e6
# Scaling curves are compared on this many points of the post-burn-in window.
CURVE_GRID_POINTS = 200


class ExperimentError(ValueError):
    """Raised on experiment precondition violations."""


def derive_seed(*parts: int) -> int:
    """Stable 64-bit seed from a tuple of nonnegative integer labels."""
    return int(np.random.SeedSequence(list(parts)).generate_state(2, np.uint64)[0])


def float_bits(value: float) -> int:
    """Bit pattern of a float, usable as a seed-derivation label."""
    return int(np.float64(value).view(np.uint64))


# ---------------------------------------------------------------------------
# Batch-size / learning-rate scan


# The scan.csv columns, in order: (key in scan.csv and scan.json, ScanRow field).
_SCAN_COLUMNS = (
    ("experiment_id", "experiment_id"),
    ("bs", "batch_size"),
    ("lr", "learning_rate"),
    ("bs_over_lr", "ratio"),
    ("tr_h", "tr_h"),
    ("tr_sigma2", "tr_sigma2"),
    ("tr_sigma2_h", "tr_sigma2_h"),
    ("excess_loss", "measured_excess_loss"),
    ("grad_norm_sq", "measured_grad_norm_sq"),
    ("pred_j2018", "pred_j2018"),
    ("pred_w2019_loss", "pred_w2019_loss"),
    ("pred_w2019_gradnorm", "pred_w2019_gradnorm"),
    ("magnitude_diff", "magnitude_difference"),
    ("replicas", "replica_count"),
)


@dataclass(frozen=True)
class ScanRow:
    """One grid point of the scan: measurements next to all predictions."""

    experiment_id: str
    batch_size: int
    learning_rate: float
    ratio: float
    tr_h: float
    tr_sigma2: float
    tr_sigma2_h: float
    measured_excess_loss: float
    measured_grad_norm_sq: float
    pred_j2018: float
    pred_w2019_loss: float
    pred_w2019_gradnorm: float
    magnitude_difference: float
    replica_count: int
    converged: bool = True

    def as_dict(self) -> dict:
        return {key: getattr(self, name) for key, name in _SCAN_COLUMNS} | {"converged": self.converged}


def _locate_minimum(model: LossModel, theta_start, flow_t: float, flow_dt: float):
    """Deterministic reference point: known minimizer or a flow endpoint."""
    if isinstance(model, QuadraticModel):
        return model.minimizer.copy(), True
    start = np.zeros(model.param_dim) if theta_start is None else np.asarray(theta_start, float)
    try:
        traj = gradient_flow(model, start, t_end=flow_t, dt=flow_dt, record_stride=10**9)
    except DivergenceError as err:
        detail = f"minimum search: gradient flow at flow_dt {flow_dt} tripped the iterate norm guard"
        raise DivergenceError(err.step, err.trajectory, detail) from err
    theta = traj.thetas[-1]
    grad = model.full_grad(theta)
    return theta, bool(grad @ grad < MINIMUM_GRAD_NORM**2)


def scan_bs_lr(
    model: LossModel,
    grid,
    run_length: int,
    replicas: int,
    master_seed: int,
    *,
    theta_start=None,
    record_stride: int | None = None,
    burn_in_fraction: float = 0.5,
    workers: int | None = None,
    flow_t: float = 50.0,
    flow_dt: float = 0.01,
) -> list[ScanRow]:
    """Stationary measurements and predictions over a (lr, batch) grid.

    Each grid point averages ``replicas`` independent SGD runs started at
    the located minimum; trace quantities are evaluated once at that point
    and turned into per-grid-point predictions.  Rows come back in grid
    order and are bit-reproducible for a fixed master seed.

    Every (grid point, replica) run is one row of a single core call; on a
    synthesized-noise quadratic each row draws one N(0, C/m) noise variate
    per step (the law of a mean of m per-example draws).  A grid point's row
    does not depend on the other grid points, nor on ``workers``: the call
    runs its rows in at most that many processes (default: the usable CPUs;
    a quadratic call only from ``engine._SPLIT_ENTRIES`` noise entries on).
    A diverging run raises the :class:`DivergenceError` with the earliest
    step of all runs, carrying that run's partial trajectory.  A model
    above the dense guard raises ``problems.ModelError``, and a batch size
    above a finite dataset's example count or a bad ``run_length``
    ``engine.EngineError``, before the minimum search.
    """
    grid = [_checked_pair("grid pair", lr, m) for lr, m in grid]
    if not grid:
        raise ExperimentError("grid must contain at least one (lr, batch) pair")
    if replicas < 1:
        raise ExperimentError("replicas must be at least 1")
    _check_burn_in(burn_in_fraction)
    _check_dense_guard(model)
    engine._check_rows(*zip(*grid), run_length, model.example_count)
    theta_star, converged = _locate_minimum(model, theta_start, flow_t, flow_dt)
    base_loss = float(model.loss(theta_star))
    if converged:
        tr_h, tr_sigma2, tr_mixed = _dense_traces(model, theta_star)
    else:
        tr_h = tr_sigma2 = tr_mixed = float("nan")
    stride = record_stride or max(1, run_length // 10_000)
    runs = [
        (lr, m, derive_seed(master_seed, gi, r))
        for gi, (lr, m) in enumerate(grid)
        for r in range(replicas)
    ]
    trajs = _run_rows(model, theta_star, runs, run_length, record_stride=stride, workers=workers)
    stats = [stationary_stats(traj, burn_in_fraction) for traj in trajs]
    rows = []
    for gi, (lr, m) in enumerate(grid):
        chunk = stats[gi * replicas : (gi + 1) * replicas]
        preds = prediction_report(lr, m, tr_h, tr_sigma2, tr_mixed)  # NaN traces give NaN predictions
        rows.append(ScanRow(
            experiment_id=f"exp{gi + 1:02d}",
            batch_size=m,
            learning_rate=lr,
            ratio=m / lr,
            tr_h=tr_h,
            tr_sigma2=tr_sigma2,
            tr_sigma2_h=tr_mixed,
            measured_excess_loss=float(np.mean([s.mean_loss for s in chunk])) - base_loss,
            measured_grad_norm_sq=float(np.mean([s.mean_grad_norm_sq for s in chunk])),
            pred_j2018=preds.pred_loss_j2018,
            pred_w2019_loss=preds.pred_excess_loss_w2019,
            pred_w2019_gradnorm=preds.pred_gradnorm_w2019,
            magnitude_difference=preds.magnitude_difference,
            replica_count=replicas,
            converged=converged,
        ))
    return rows


def write_scan_csv(path, rows: list[ScanRow]) -> None:
    _write_csv(path, ",".join(key for key, _ in _SCAN_COLUMNS),  # str of a float is its repr
               [[getattr(row, name) for row in rows] for _, name in _SCAN_COLUMNS])


# ---------------------------------------------------------------------------
# Linear-scaling curves


@dataclass
class CurveEntry:
    label: str
    ratio_class: str
    learning_rate: float
    batch_size: int
    trajectory: Trajectory
    smoothed: np.ndarray
    divergence_from_base: float


@dataclass
class CurveSet:
    base: CurveEntry
    entries: list[CurveEntry]
    grid: np.ndarray
    class_divergence: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "base_label": self.base.label,
            "class_divergence": dict(self.class_divergence),
            "entries": [
                {
                    "label": e.label,
                    "ratio_class": e.ratio_class,
                    "lr": e.learning_rate,
                    "bs": e.batch_size,
                    "divergence_from_base": e.divergence_from_base,
                }
                for e in self.entries
            ],
        }


def _trailing_mean(values: np.ndarray, window: int) -> np.ndarray:
    if window <= 1:
        return values.astype(float, copy=True)
    cumulative = np.cumsum(np.concatenate([[0.0], values]))
    idx = np.arange(1, len(values) + 1)
    lo = np.maximum(idx - window, 0)
    return (cumulative[idx] - cumulative[lo]) / (idx - lo)


def _checked_pair(name: str, lr, m) -> tuple[float, int]:
    """``(lr, m)`` as a float and an int; raises, naming the pair, unless
    ``lr`` is finite and positive and ``m`` is a whole number of at least 1."""
    lr, whole = float(lr), float(m)
    if not (math.isfinite(lr) and lr > 0 and whole.is_integer() and whole >= 1):
        raise ExperimentError(
            f"{name} (lr {lr:g}, bs {m}) needs a finite lr > 0 and an integer bs >= 1"
        )
    return lr, int(whole)


def _classify_off_ratio(base, off_ratio):
    """Rank off-ratio configs by distance from the base m/lr ratio; the
    closer half is `near_ratio`, the rest `far_ratio`.  Ties break on the
    learning-rate change.  A change by the factor q ranks by max(q, 1/q),
    in exact rationals, so no quotient overflows or underflows."""
    from fractions import Fraction  # imported here: it loads `decimal`, which no other run needs
    base_lr, base_m = Fraction(base[0]), base[1]
    scored = []
    for i, (lr, m) in enumerate(off_ratio):
        ratio_change = Fraction(m, base_m) * base_lr / Fraction(lr)
        lr_change = Fraction(lr) / base_lr
        scored.append((max(ratio_change, 1 / ratio_change), max(lr_change, 1 / lr_change), i))
    scored.sort()
    classes = [""] * len(off_ratio)
    half = len(off_ratio) / 2.0
    for rank, (_, _, i) in enumerate(scored):
        classes[i] = "near_ratio" if rank < half else "far_ratio"
    return classes


def linear_scaling_experiment(
    model: LossModel,
    base,
    factors,
    off_ratio,
    run_length: int,
    seed: int,
    *,
    theta0=None,
    record_stride: int | None = None,
    burn_in_fraction: float = 0.5,
    workers: int | None = None,
) -> CurveSet:
    """Loss curves under joint (lr, batch) rescaling versus ratio breaking.

    Runs the base config, each factor config (c*lr, c*m) and each off-ratio
    config for ``run_length`` steps.  Curves are trailing-window smoothed
    (1% of records), interpolated onto a shared post-burn-in time grid, and
    scored by mean absolute difference from the base curve.  A config whose
    (lr, m) equals the base draws the same seed and so reproduces the base
    run exactly.  All configs run as rows of one core call, in at most
    ``workers`` processes as in :func:`scan_bs_lr`.  A classifier's
    accuracy is recorded with each of its records.  Configs that share a
    label ``lr<lr:g>_bs<m>`` are refused before any run.
    """
    base_lr, base_m = _checked_pair("base pair", *base)
    off_ratio = [_checked_pair("off-ratio pair", lr, m) for lr, m in off_ratio]
    if run_length < 2:
        raise ExperimentError("run_length must be at least 2")
    _check_burn_in(burn_in_fraction)
    configs = [("base", "base", base_lr, base_m)]
    for c in factors:
        if not (math.isfinite(base_m * c) and round(base_m * c) >= 1):
            raise ExperimentError(
                f"factor {c} must be finite and keep the batch size finite and at least 1"
            )
        lr, m = base_lr * c, int(round(base_m * c))
        configs.append((f"lr{lr:g}_bs{m}", "same_ratio", lr, m))
    for (lr, m), cls in zip(off_ratio, _classify_off_ratio((base_lr, base_m), off_ratio)):
        configs.append((f"lr{lr:g}_bs{m}", cls, lr, m))
    labels = [label for label, *_ in configs]
    for label in labels:
        if labels.count(label) > 1:
            raise ExperimentError(f"more than one config has the label {label}")

    theta_init = np.zeros(model.param_dim) if theta0 is None else np.asarray(theta0, float)
    stride = record_stride or max(1, run_length // 2000)
    runs = [(lr, m, derive_seed(seed, m, float_bits(lr))) for _, _, lr, m in configs]
    results = _run_rows(model, theta_init, runs, run_length, record_stride=stride, workers=workers,
                        accuracy=hasattr(model, "accuracy"))

    horizon = min(traj.times[-1] for traj in results)
    grid = np.linspace(burn_in_fraction * horizon, horizon, CURVE_GRID_POINTS)
    smoothed_on_grid = []
    for traj in results:
        window = max(1, int(round(0.01 * len(traj.losses))))
        smooth = _trailing_mean(traj.losses, window)
        smoothed_on_grid.append(np.interp(grid, traj.times, smooth))

    base_curve = smoothed_on_grid[0]
    base, *entries = [
        CurveEntry(
            label=label,
            ratio_class=cls,
            learning_rate=lr,
            batch_size=m,
            trajectory=traj,
            smoothed=curve,
            divergence_from_base=(float("nan") if cls == "base"
                                  else float(np.mean(np.abs(curve - base_curve)))),
        )
        for (label, cls, lr, m), traj, curve in zip(configs, results, smoothed_on_grid)
    ]

    class_divergence = {}
    for cls in ("same_ratio", "near_ratio", "far_ratio"):
        vals = [e.divergence_from_base for e in entries if e.ratio_class == cls]
        if vals:
            class_divergence[cls] = float(np.mean(vals))
    return CurveSet(base=base, entries=entries, grid=grid, class_divergence=class_divergence)


def write_curves_csv(path, curves: CurveSet) -> None:
    entries = [curves.base] + curves.entries
    columns = [sum(([getattr(e, key)] * len(e.trajectory.steps) for e in entries), [])
               for key in ("label", "ratio_class")]
    header = "config_label,ratio_class,step,t,loss"
    keys = [("steps", np.int64), ("times", float), ("losses", float)]
    if curves.base.trajectory.accuracies is not None:  # every entry has accuracy, or none has
        header += ",accuracy"
        keys.append(("accuracies", float))
    columns += [np.concatenate([np.asarray(getattr(e.trajectory, key), dtype=dtype) for e in entries])
                for key, dtype in keys]
    _write_csv(path, header, columns)


# ---------------------------------------------------------------------------
# Weak-convergence (small-step limit) check


@dataclass
class CltReport:
    learning_rates: list[float]
    batch_size: int
    t_end: float
    replicas: int
    frobenius_errors: list[float]
    noise_allowance: float
    monotone_ok: bool
    predicted_covs: list[SymMatrix]
    empirical_covs: list[np.ndarray]

    def as_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}  # asdict would copy every covariance
        d["predicted_cov_smallest_lr"] = d.pop("predicted_covs")[-1].entries.tolist()
        d["empirical_cov_smallest_lr"] = d.pop("empirical_covs")[-1].tolist()
        return d


def clt_experiment(
    model: QuadraticModel,
    delta_list,
    batch_size: int,
    t_end: float,
    replicas: int,
    seed: int,
    *,
    theta0=None,
) -> CltReport:
    """Convergence of rescaled SGD deviations to the linearized diffusion.

    For each step size (strictly descending) the final-time deviation
    v(T) = sqrt(m/lr) (x(T) - X(T)) is sampled over replica ensembles and
    its covariance compared, in relative Frobenius distance, with the
    closed form of the linearized diffusion's covariance.  Errors must not
    grow as the step size shrinks, up to twice the replica sampling noise.
    """
    if not isinstance(model, QuadraticModel):
        raise ExperimentError("the deviation ensemble needs a synthesized-noise quadratic model")
    deltas = [float(d) for d in delta_list]
    if len(deltas) < 1 or any(not (d > 0) for d in deltas):
        raise ExperimentError("step sizes must be positive")
    if any(a <= b for a, b in zip(deltas, deltas[1:])):
        raise ExperimentError("step sizes must be strictly descending")
    if replicas < 100:
        raise ExperimentError("need at least 100 replicas for a covariance estimate")
    if not (np.isfinite(t_end) and t_end > 0):
        raise ExperimentError("t_end must be positive and finite")
    step_counts = []  # all checked before the first ensemble runs
    for delta in deltas:
        count = t_end / delta
        if not (math.isfinite(delta) and math.isfinite(count) and round(count) <= engine._COUNT_LIMIT):
            raise ExperimentError(
                f"step size {delta} must be finite and reach t_end {t_end} in at most "
                f"{engine._COUNT_LIMIT} steps"
            )
        step_counts.append(max(1, int(round(count))))
    start = model.minimizer.copy() if theta0 is None else np.asarray(theta0, float)

    # The deviation covariance solves dG/dt = -(H G + G H) + C from G(0) = 0:
    # G(t) = V [C'_ij (1 - exp(-(lam_i + lam_j) t)) / (lam_i + lam_j)] V^T
    # with C' = V^T C V.  A zero pair sum (indefinite H) takes the limit t.
    eig = model.hessian_eig
    v = eig.eigenvectors
    rates = eig.eigenvalues[:, None] + eig.eigenvalues[None, :]
    rotated_cov = v.T @ model.noise_cov.entries @ v

    errors = []
    predicted_covs = []
    empirical_covs = []
    for i, (delta, steps) in enumerate(zip(deltas, step_counts)):
        horizon = steps * delta
        finals = sgd_replica_ensemble(
            model, start, delta, batch_size, steps, replicas,
            master_seed=derive_seed(seed, i),
        )
        reference = model.flow_solution(start, horizon)
        deviations = np.sqrt(batch_size / delta) * (finals - reference)
        centered = deviations - deviations.mean(axis=0)
        empirical = centered.T @ centered / (replicas - 1)
        growth = np.full_like(rates, horizon)
        np.divide(-np.expm1(-rates * horizon), rates, out=growth, where=rates != 0.0)
        gamma = v @ (rotated_cov * growth) @ v.T
        predicted = SymMatrix(0.5 * (gamma + gamma.T))
        diff = float(np.linalg.norm(empirical - predicted.entries))
        denom = float(np.linalg.norm(predicted.entries))
        # Zero predicted covariance (noise-free model): report the absolute
        # deviation instead of a 0/0 ratio.
        err = diff / denom if denom > 0 else diff
        errors.append(err)
        predicted_covs.append(predicted)
        empirical_covs.append(empirical)

    allowance = math.sqrt(2.0 / replicas)
    monotone_ok = all(
        errors[i + 1] <= errors[i] + 2.0 * allowance for i in range(len(errors) - 1)
    )
    return CltReport(
        learning_rates=deltas,
        batch_size=batch_size,
        t_end=t_end,
        replicas=replicas,
        frobenius_errors=errors,
        noise_allowance=allowance,
        monotone_ok=monotone_ok,
        predicted_covs=predicted_covs,
        empirical_covs=empirical_covs,
    )


# ---------------------------------------------------------------------------
# Saddle-point instability


@dataclass
class SaddleReport:
    verdict: str
    escape_fraction: float
    median_slope: float
    expected_slope: float
    expected_slope_small_lr: float
    replica_slopes: list[float]
    lambda_neg: float
    learning_rate: float
    batch_size: int
    steps: int
    replicas: int

    def as_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["lr"] = d.pop("learning_rate")
        d["bs"] = d.pop("batch_size")
        return d


def _saddle_runs(model: QuadraticModel, learning_rate, batch_size, steps, replicas, seed):
    """Yield (trajectory, stopped by the divergence guard) per saddle replica.

    All replicas start at the origin and advance in lockstep; replica ``r``
    draws from ``derive_seed(seed, r)``.
    """
    run = _advance_rows(
        model, np.zeros(model.param_dim), [learning_rate] * replicas, [batch_size] * replicas,
        [derive_seed(seed, r) for r in range(replicas)], steps, record_stride=max(1, steps // 5000),
        snapshots=True,
    )
    for r in range(replicas):
        yield run.trajectory(r), r in run.failures


def _median(values) -> float:
    """``np.median`` of a non-empty list, bit for bit, without the import of
    ``numpy.ma`` that the first ``np.median`` call makes."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def saddle_divergence_experiment(
    h_indefinite: SymMatrix,
    noise_cov: SymMatrix,
    learning_rate: float,
    batch_size: int,
    steps: int,
    replicas: int,
    seed: int,
) -> SaddleReport:
    """Noise-driven escape from an exact saddle start.

    Replica runs of Gaussian-noise SGD start at the stationary point of an
    indefinite quadratic and advance in lockstep.  Verdict DIVERGED
    requires at least half the replicas to push their iterate norm past
    1e6 within the step budget (a replica stopped by the divergence guard
    counts as escaped) AND the median per-step growth rate of the
    unstable-direction projection to sit within 30% of
    log(1 + lr * |most negative eigenvalue|), the exact rate of the linear
    recursion.  The report also carries its small-step limit
    lr * |lambda_neg| as ``expected_slope_small_lr``.  A learning rate,
    batch size or step count the stepping core refuses raises its
    ``engine.EngineError`` first.  The slopes need every replica's
    snapshots, so a run whose snapshots would exceed the engine's
    ``SNAPSHOT_BUDGET`` raises ``engine.EngineError`` before any replica steps.
    """
    if replicas < 1 or steps < 1:
        raise ExperimentError("replicas and steps must be positive")
    engine._check_rows(learning_rate, batch_size, steps)
    model = QuadraticModel(
        h_indefinite,
        np.zeros(h_indefinite.dim),
        noise_cov,
        require_positive_definite=False,
    )
    eig = model.hessian_eig
    lam_min = float(eig.eigenvalues[0])
    if lam_min >= 0:
        raise ExperimentError(
            "curvature is positive semidefinite; the saddle probe needs a negative eigenvalue"
        )
    unstable = eig.eigenvectors[:, 0]
    expected_slope = math.log1p(learning_rate * abs(lam_min))

    escaped = 0
    slopes = []
    for traj, blew_up in _saddle_runs(model, learning_rate, batch_size, steps, replicas, seed):
        norms = np.sqrt((traj.thetas * traj.thetas).sum(axis=1))
        if blew_up or norms.max() >= ESCAPE_NORM:
            escaped += 1
        proj = np.abs(traj.thetas @ unstable)
        p_hi = proj.max()
        if p_hi > 0:
            mask = (proj >= p_hi * 1e-5) & (proj > 0)
            if mask.sum() >= 3:
                coeffs = np.polyfit(traj.steps[mask], np.log(proj[mask]), 1)
                slopes.append(float(coeffs[0]))
                continue
        slopes.append(float("nan"))

    finite = [s for s in slopes if np.isfinite(s)]
    median_slope = _median(finite) if finite else float("nan")
    escape_fraction = escaped / replicas
    diverged = (
        escape_fraction >= 0.5
        and np.isfinite(median_slope)
        and median_slope > 0
        and abs(median_slope / expected_slope - 1.0) <= 0.30
    )
    return SaddleReport(
        verdict="DIVERGED" if diverged else "STABLE",
        escape_fraction=escape_fraction,
        median_slope=median_slope,
        expected_slope=expected_slope,
        expected_slope_small_lr=learning_rate * abs(lam_min),
        replica_slopes=slopes,
        lambda_neg=lam_min,
        learning_rate=learning_rate,
        batch_size=batch_size,
        steps=steps,
        replicas=replicas,
    )
