"""Simulation engines for the discrete, diffusion, and linearized dynamics.

All runners are pure functions of their inputs plus an integer seed: a fresh
generator is created per call, so identical calls reproduce trajectories
bitwise.  Every run, the deterministic flow included, aborts with
:class:`DivergenceError` (carrying the partial trajectory) once the iterate
norm passes 1e12 or a recorded loss stops being finite.

Every run records into one buffer, ``_Rows``.  The discrete SGD runs
(``sgd_run``, ``gaussian_sgd_run``, ``sgd_replica_ensemble`` and the
experiments' runs) and the Euler-Maruyama integrator ``sde_run`` advance one
row per learning rate, time step (``dt`` for ``sde_run``), batch size and
generator through ``_advance_rows``.  Quadratic rows advance together in
``_lockstep``, which also runs the exact OU diffusion ``ou_eigenbasis_run``;
every other row, the deterministic RK4 ``gradient_flow`` included, is one
guarded loop, ``_loop_row``, over its own step function.
"""

from __future__ import annotations

import copy
import math
import os
import pickle
import signal
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .problems import LossModel, QuadraticModel, as_param_vector

__all__ = [
    "EngineError",
    "DivergenceError",
    "SgdConfig",
    "Trajectory",
    "sgd_run",
    "gaussian_sgd_run",
    "sde_run",
    "gradient_flow",
    "ou_eigenbasis_run",
    "sgd_replica_ensemble",
    "write_trajectory_csv",
    "write_snapshots_csv",
]

# Abort once ||theta||^2 exceeds this (i.e. ||theta|| > 1e12).
DIVERGENCE_NORM_SQ = 1e24
# Full parameter snapshots are kept only while their total entry count
# (records x rows x parameters) stays under this budget; beyond it runs
# fall back to summary records.
SNAPSHOT_BUDGET = 10_000_000

SAMPLING_MODES = ("with_replacement", "without_replacement")


class EngineError(ValueError):
    """Raised on dynamics precondition violations."""


class DivergenceError(RuntimeError):
    """Iterate escaped the divergence guard; carries the partial run."""

    def __init__(self, step: int, trajectory: "Trajectory", detail: str = ""):
        self.step = step
        self.trajectory = trajectory
        self.detail = detail
        message = f"divergence at step {step}"
        if detail:
            message += f": {detail}"
        super().__init__(message)

    def __reduce__(self):
        # Rebuild from the constructor's arguments, so the error survives the
        # pickling that brings it back from a worker process.
        return type(self), (self.step, self.trajectory, self.detail)


# Step counts and batch sizes are stored as int64.
_COUNT_LIMIT = int(np.iinfo(np.int64).max)


def _check_rows(learning_rates, batch_sizes, steps: int) -> None:
    lrs = np.asarray(learning_rates, dtype=float)
    if not (np.isfinite(lrs) & (lrs > 0)).all():
        raise EngineError("learning_rate must be positive and finite")
    ms = np.asarray(batch_sizes)
    if (ms < 1).any():
        raise EngineError("batch_size must be at least 1")
    if (ms > _COUNT_LIMIT).any():
        raise EngineError(f"batch_size must not exceed {_COUNT_LIMIT}")
    if steps < 1:
        raise EngineError("steps must be at least 1")
    if steps > _COUNT_LIMIT:
        raise EngineError(f"steps must not exceed {_COUNT_LIMIT}")


@dataclass(frozen=True)
class SgdConfig:
    """Step size, batch size, horizon, seed, and sampling mode."""

    learning_rate: float
    batch_size: int
    steps: int
    seed: int
    sampling: str = "with_replacement"

    def __post_init__(self) -> None:
        _check_rows(self.learning_rate, self.batch_size, self.steps)
        if self.sampling not in SAMPLING_MODES:
            raise EngineError(
                f"sampling must be one of {SAMPLING_MODES}, got {self.sampling!r}"
            )


@dataclass
class Trajectory:
    """Recorded (step, time, loss, ||grad||^2) rows, optionally with states.

    ``times`` equals ``steps * time_step`` for whichever time step the
    producing run used (the learning rate for discrete runs, dt for
    integrators).
    """

    record_stride: int
    steps: np.ndarray
    times: np.ndarray
    losses: np.ndarray
    grad_norms_sq: np.ndarray
    thetas: np.ndarray | None = None

    def __post_init__(self) -> None:
        k = len(self.steps)
        if not (len(self.times) == len(self.losses) == len(self.grad_norms_sq) == k):
            raise EngineError("trajectory column lengths disagree")
        if k == 0:
            raise EngineError("trajectory must contain at least one record")
        if (np.diff(self.steps) <= 0).any():
            raise EngineError("trajectory steps must increase strictly")
        if self.thetas is not None and len(self.thetas) != k:
            raise EngineError("snapshot count must match record count")


class _Rows:
    """Strided records, final states and divergences of the rows of one run.

    Every row records on the same step grid (each ``stride``-th step and the
    last one); ``counts[r]`` is how many of those records row ``r`` reached.
    Columns are ``(records, rows)``, snapshots ``(records, rows, p)``.
    ``failures`` maps each row the guard stopped to its divergence, which
    carries the step it stopped at and the row's partial trajectory; the
    other rows ran to the horizon and left their last state in ``finals``.
    """

    def __init__(self, time_steps, total_steps: int, stride: int, param_dim: int, snapshots: bool):
        if stride < 1:
            raise EngineError("record_stride must be at least 1")
        grid = np.arange(0, total_steps + 1, stride, dtype=np.int64)
        if grid[-1] != total_steps:
            grid = np.append(grid, np.int64(total_steps))
        n_rec = len(grid)
        self.time_steps = np.asarray(time_steps, dtype=float)
        rows = self.time_steps.size
        self.stride = stride
        self.steps = grid
        self.losses = np.empty((n_rec, rows))
        self.grad_norms_sq = np.empty((n_rec, rows))
        self.thetas: np.ndarray | None = None
        if snapshots:
            if n_rec * rows * param_dim > SNAPSHOT_BUDGET:
                warnings.warn(
                    f"snapshot request of {n_rec * rows * param_dim} entries exceeds the "
                    f"budget {SNAPSHOT_BUDGET}; keeping summary records only",
                    stacklevel=4,
                )
            else:
                self.thetas = np.empty((n_rec, rows, param_dim))
        self.counts = np.zeros(rows, dtype=np.int64)
        self.failures: dict[int, DivergenceError] = {}
        self.finals = np.empty((rows, param_dim))

    def record(self, row: int, model: LossModel, step: int, theta: np.ndarray) -> None:
        """Append row ``row``'s loss, squared gradient norm and state at ``step``."""
        loss = model.loss(theta)
        if not np.isfinite(loss):
            raise DivergenceError(step, self.trajectory(row), "loss is not finite")
        grad = model.full_grad(theta)
        i = self.counts[row]
        self.losses[i, row] = loss
        self.grad_norms_sq[i, row] = float(grad @ grad)
        if self.thetas is not None:
            self.thetas[i, row] = theta
        self.counts[row] = i + 1

    def trajectory(self, row: int) -> Trajectory:
        """Row ``row``'s records so far, as views into the buffer."""
        k = self.counts[row]
        steps = self.steps[:k]
        return Trajectory(
            record_stride=self.stride,
            steps=steps,
            times=steps * self.time_steps[row],
            losses=self.losses[:k, row],
            grad_norms_sq=self.grad_norms_sq[:k, row],
            thetas=None if self.thetas is None else self.thetas[:k, row],
        )

    def raise_first_divergence(self) -> None:
        """Raise the divergence of the row that tripped first, if any did."""
        if self.failures:
            raise min(self.failures.items(), key=lambda item: (item[1].step, item[0]))[1]

    def view(self, rows: slice) -> _Rows:
        """Rows ``rows`` as a buffer of views into this one's columns; it shares the failures."""
        part = copy.copy(self)
        part.time_steps, part.counts, part.finals = self.time_steps[rows], self.counts[rows], self.finals[rows]
        part.losses, part.grad_norms_sq = self.losses[:, rows], self.grad_norms_sq[:, rows]
        part.thetas = None if self.thetas is None else self.thetas[:, rows]
        return part


# ---------------------------------------------------------------------------
# The stepping core behind sgd_run, gaussian_sgd_run, sde_run,
# ou_eigenbasis_run, sgd_replica_ensemble and the experiments' replica runs.

# Lockstep rows draw and transform their noise this many steps at a time.
NOISE_BLOCK = 512
# Noise entries drawn and transformed at once; bounds the scratch memory.
_TILE_ENTRIES = 1 << 16
# Noise entries (rows x steps x p) from which a quadratic run splits its rows
# (_split_rows); the per-step loop does not halve, so smaller runs lose by it.
_SPLIT_ENTRIES = 1 << 20


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _rowwise_matmul(x: np.ndarray, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x @ a`` accumulated in index order by elementwise operations, into
    ``out`` if given (it must not overlap ``x``).

    BLAS kernels change with the number of rows, and with them the last bits
    of every row; here each vector (last axis) of the result depends on its
    own vector of ``x`` alone.  Both loop orders below make the same
    operations in the same order; they differ only in which axis numpy's
    inner loop runs along: ``q`` entries per vector in the row order, all
    vectors in the column order.  The column order makes ``q`` times as many
    numpy calls, so it pays only for many short vectors: beyond ``128 q``
    vectors (the two orders cost the same at about 100 q to 200 q).
    """
    p, q = a.shape
    if out is None:
        out = np.empty(x.shape[:-1] + (q,))
    if x.size <= 128 * p * q:
        np.multiply(x[..., :1], a[0], out=out)
        term = np.empty_like(out)
        for k in range(1, p):
            out += np.multiply(x[..., k : k + 1], a[k], out=term)
        return out
    column = np.empty(x.shape[:-1])
    term = np.empty_like(column)
    for j in range(q):
        np.multiply(x[..., 0], a[0, j], out=column)
        for k in range(1, p):
            column += np.multiply(x[..., k], a[k, j], out=term)
        out[..., j] = column
    return out


def _advance_rows(
    model: LossModel,
    theta0: np.ndarray,
    learning_rates,
    batch_sizes,
    seeds,
    steps: int,
    *,
    time_steps=None,
    record_stride: int = 1,
    snapshots: bool = False,
    sampling: str = "with_replacement",
    surrogate=None,
    block: int = NOISE_BLOCK,
) -> _Rows:
    """Advance one row per (learning rate, batch size, seed) from ``theta0``.

    Each row owns a generator made from its seed (anything
    ``numpy.random.default_rng`` accepts), records every ``record_stride``
    steps into a shared buffer and stops on its own when ||theta||^2
    exceeds 1e24 or is NaN; the other rows go on.  A row's result does not
    depend on which other rows share the call.

    Row r steps with time step h = ``time_steps[r]`` (default: its learning
    rate lr): its drift is -h grad f, and its Gaussian noise is scaled by
    ``(h / sqrt(m)) sqrt(lr / h)``, the Euler-Maruyama step of the SGD
    diffusion.  At h = lr that scale is ``lr / sqrt(m)`` bit for bit, as
    ``lr / lr`` is exactly 1.  Quadratic models advance all rows together
    (see ``_lockstep``).  Other models run each row in ``_loop_row`` with
    a step picked once: a minibatch of ``batch_size`` indices (at most n)
    drawn per ``sampling``, or, when ``surrogate`` is given, the drift
    gradient g plus the surrogate noise ``xi F`` with ``(g, F) =
    surrogate(theta)`` (see ``_surrogate_terms``) and ``xi`` standard
    normal, one entry per row of F.

    Given two CPUs, a quadratic run of ``_SPLIT_ENTRIES`` noise entries or
    more advances half its rows in a forked child (``_split_rows``), which
    alone advances a ``Generator`` given as the seed of one of those rows.
    """
    lrs = np.array(learning_rates, dtype=float)
    _check_rows(lrs, batch_sizes, steps)
    hs = lrs if time_steps is None else np.array(time_steps, dtype=float)
    ms = np.array(batch_sizes, dtype=np.int64)
    noise_scales = (hs / np.sqrt(ms)) * np.sqrt(lrs / hs)
    n = model.example_count
    if surrogate is None and n is not None and ms.max() > n:
        raise EngineError(f"batch_size {ms.max()} exceeds the {n} available examples")
    rows, p = lrs.size, model.param_dim
    out = _Rows(hs, steps, record_stride, p, snapshots)
    if isinstance(model, QuadraticModel):
        lam, vec = model.hessian_eig.eigenvalues, model.hessian_eig.eigenvectors
        decay, noise_map = 1.0 - hs[:, None] * lam, model.noise_sqrt.T @ vec
        def lockstep(part: _Rows, which: slice = slice(None)) -> None:
            _lockstep(part, theta0, seeds[which], steps, lam, vec, model.minimizer, decay[which],
                      noise_map, noise_scales[which], block)
        if rows > 1 and rows * steps * p >= _SPLIT_ENTRIES and _usable_cpus() > 1 and hasattr(os, "fork"):
            _split_rows(out, lockstep)
        else:
            lockstep(out)
        return out
    for r in range(rows):
        rng, m = np.random.default_rng(seeds[r]), int(ms[r])
        if surrogate is not None:
            noise = partial(rng.standard_normal, n)
            step = partial(_surrogate_step, surrogate, hs[r], noise_scales[r], noise)
        else:
            draw = (partial(rng.integers, 0, n, size=m) if sampling == "with_replacement"
                    else partial(rng.choice, n, size=m, replace=False))
            step = partial(_minibatch_step, model, hs[r], draw)
        try:
            out.finals[r] = _loop_row(model, out, r, theta0, steps, step)
        except DivergenceError as err:
            out.failures[r] = err
    return out


def _surrogate_terms(model: LossModel, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean g and centred rows ``F = n^{-1/2} G_c`` of the per-example gradients.

    g is the full gradient up to rounding; ``xi F``, with ``xi`` standard
    normal in R^n, has covariance ``G_c^T G_c / n``, exactly the C(theta)
    that ``gradient_covariance`` forms, at O(np) cost.
    """
    grads = model.per_example_grads(theta)
    mean = grads.mean(axis=0)
    return mean, (grads - mean) / math.sqrt(grads.shape[0])


def _surrogate_step(surrogate, h: float, scale: float, draw, theta: np.ndarray) -> np.ndarray:
    grad, factor = surrogate(theta)
    return theta - h * grad + scale * (draw() @ factor)


def _minibatch_step(model: LossModel, h: float, draw, theta: np.ndarray) -> np.ndarray:
    return theta - h * model.batch_grad(theta, draw())


def _rk4_step(model: LossModel, dt: float, theta: np.ndarray) -> np.ndarray:
    half = 0.5 * dt
    k1 = -model.full_grad(theta)
    k2 = -model.full_grad(theta + half * k1)
    k3 = -model.full_grad(theta + half * k2)
    k4 = -model.full_grad(theta + dt * k3)
    return theta + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _loop_row(model: LossModel, rows: _Rows, row: int, theta: np.ndarray, steps: int,
              step) -> np.ndarray:
    """Row ``row``: ``steps`` updates ``theta <- step(theta)``, recorded on the
    grid; raises :class:`DivergenceError` once ||theta||^2 exceeds 1e24 or is NaN."""
    stride = rows.stride
    rows.record(row, model, 0, theta)
    for k in range(1, steps + 1):
        theta = step(theta)
        sq = theta @ theta
        if sq != sq or sq > DIVERGENCE_NORM_SQ:
            raise DivergenceError(k, rows.trajectory(row), "iterate norm guard tripped")
        if k % stride == 0 or k == steps:
            rows.record(row, model, k, theta)
    return theta


def _put_records(rec: _Rows, first: int, zs: np.ndarray, lam: np.ndarray, back: np.ndarray,
                 center: np.ndarray) -> None:
    """Records ``first, ...`` of every row from eigenbasis states ``zs``, which it overwrites."""
    last = first + len(zs)
    if rec.thetas is not None:
        rec.thetas[first:last] = _rowwise_matmul(zs, back) + center
    weighted = zs * lam
    rec.losses[first:last] = 0.5 * np.multiply(zs, weighted, out=zs).sum(axis=-1)
    rec.grad_norms_sq[first:last] = np.multiply(weighted, weighted, out=weighted).sum(axis=-1)


def _lockstep(out: _Rows, theta0: np.ndarray, seeds, steps: int, lam: np.ndarray, basis: np.ndarray,
              center: np.ndarray, decay: np.ndarray, noise_map: np.ndarray, noise_scales,
              block: int = NOISE_BLOCK) -> None:
    """Rows of a diagonal linear-Gaussian recursion, advanced together.

    In the eigenbasis ``basis``, z = (theta - center) basis, row r steps
    z <- decay[r] z - noise_scales[r] xi noise_map with xi standard normal
    in R^p from the row's generator.  Records carry 0.5 sum lam z^2 and
    sum (lam z)^2; snapshots are theta = z basis^T + center.  A
    synthesized-noise quadratic passes H's eigenpairs, its minimizer, decay
    1 - h lam and noise map R^T V with R = ``model.noise_sqrt``, one
    N(0, C/m) draw per step for the mean of m per-example noise draws (see
    ``_advance_rows``); ``ou_eigenbasis_run`` passes the identity basis, a
    zero centre, decay exp(-lam dt) and noise map -diag(std).

    Each block of steps runs in three stages: the recurrence overwrites the
    block's transformed noise with the states; the guard takes each row's
    largest |z| over the block and checks ||theta||^2 <= 1e24 only where
    that passes ``z_limit``, stopping the row at its first failing step (its
    states from there on are zeroed); then the records of the block's grid
    steps, snapshots included, are computed in batches.  Every operation
    acts on rows separately and each entry undergoes the same operations in
    the same order as in a plain step loop, so a row's bits depend neither
    on the other rows nor on the block size.
    """
    rows, p = out.time_steps.size, lam.size
    grid = out.steps
    gens = [np.random.default_rng(seed) for seed in seeds]
    z = _rowwise_matmul(np.tile(theta0 - center, (rows, 1)), basis)
    noise_scale = noise_scales[:, None, None]
    back = basis.T
    # max|z| at or below this keeps every ||theta|| within the guard.
    z_limit = (math.sqrt(DIVERGENCE_NORM_SQ) - float(np.linalg.norm(center))) / math.sqrt(p)
    scratch = np.empty_like(z)
    live = np.ones(rows, dtype=bool)
    # Records are gathered and computed ``chunk`` at a time.
    chunk = max(1, _TILE_ENTRIES // (rows * p))
    _put_records(out, 0, z[None].copy(), lam, back, center)
    recorded = 1
    # One block of noise, reused: drawn and transformed a tile of rows at a
    # time in two scratch arrays sized for the first (longest) block's
    # tiles, then stored step-major, one p-wide item per (step, row), so
    # that each step reads one contiguous (rows, p) slice, which the
    # recurrence overwrites with that step's z.
    b = min(block, steps)
    buffer = np.empty((b, rows, p))
    tile_entries = min(rows * b * p, max(_TILE_ENTRIES, b * p))
    drawn, mixed = np.empty(tile_entries), np.empty(tile_entries)
    item = np.dtype((np.void, 8 * p))
    done = 0
    while done < steps and live.any():
        b = min(block, steps - done)
        states = buffer[:b]
        tile_rows = max(1, _TILE_ENTRIES // (b * p))
        for s in range(0, rows, tile_rows):
            n = min(tile_rows, rows - s)
            tile = drawn[: n * b * p].reshape(n, b, p)
            for i in range(n):
                if live[s + i]:
                    gens[s + i].standard_normal((b, p), out=tile[i])
                else:  # a stopped row; the scratch still holds earlier draws
                    tile[i] = 0.0
            noise = _rowwise_matmul(tile, noise_map, out=mixed[: n * b * p].reshape(n, b, p))
            noise *= noise_scale[s : s + n]
            states.view(item)[:, s : s + n] = noise.view(item).swapaxes(0, 1)
        # A diverging row overflows before the guard sees it.
        with np.errstate(over="ignore", invalid="ignore"):
            prev = z
            for state in states:
                np.multiply(prev, decay, out=scratch)
                np.subtract(scratch, state, out=state)
                prev = state
            # Largest |z| per row: reduce over steps first, along contiguous
            # memory, and only then over the few coordinates.
            flat = states.reshape(b, rows * p)
            peak = np.maximum(flat.max(axis=0), -flat.min(axis=0)).reshape(rows, p).max(axis=1)
            for r in np.flatnonzero(live & ~(peak <= z_limit)):
                zr = states[:, r]
                flagged = np.flatnonzero(~(np.abs(zr).max(axis=1) <= z_limit))
                sq = ((_rowwise_matmul(zr[flagged], back) + center) ** 2).sum(axis=-1)
                tripped = flagged[~(sq <= DIVERGENCE_NORM_SQ)]
                if tripped.size:
                    j = int(tripped[0])
                    out.counts[r] = np.searchsorted(grid, done + j + 1)
                    out.failures[r] = DivergenceError(
                        done + j + 1, out.trajectory(r), "iterate norm guard tripped"
                    )
                    zr[j:] = 0.0
                    live[r] = False
                    decay[r] = 0.0
        z[:] = states[-1]
        last = int(np.searchsorted(grid, done + b, side="right"))
        at = grid[recorded:last] - (done + 1)
        for first in range(0, len(at), chunk):
            _put_records(out, recorded + first, states[at[first : first + chunk]], lam, back, center)
        recorded = last
        done += b
    out.counts[live] = recorded
    out.finals[:] = _rowwise_matmul(z, back) + center


def _split_rows(out: _Rows, lockstep) -> None:
    """``lockstep(part, rows)`` over ``out``: the first half of the rows here, the
    rest meanwhile in a forked child that pipes back its pickled buffer or error."""
    half = out.counts.size // 2
    read, write = os.pipe()
    with open(read, "rb") as source, open(write, "wb") as sink:
        pid = os.fork()
        if pid == 0:  # the child, whose copy of out, failures included, is its own
            try:
                source.close()
                part, error = out.view(slice(half, None)), None
                try:
                    lockstep(part, slice(half, None))
                except BaseException as err:
                    part, error = None, err
                try:
                    data = pickle.dumps((error, part))
                except Exception:
                    data = pickle.dumps((EngineError(f"rows {half}+ raised unpicklable {error!r}"), None))
                sink.write(data)
                sink.close()
                os._exit(0)
            finally:
                os._exit(1)
        sink.close()
        try:
            lockstep(out.view(slice(half)), slice(half))
            data = source.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status:
        raise EngineError(f"the process advancing rows {half}+ ended with status {status}")
    error, part = pickle.loads(data)
    if error is not None:
        raise error
    out.losses[:, half:], out.grad_norms_sq[:, half:] = part.losses, part.grad_norms_sq
    if out.thetas is not None:
        out.thetas[:, half:] = part.thetas
    out.counts[half:], out.finals[half:] = part.counts, part.finals
    out.failures.update((half + r, err) for r, err in part.failures.items())


def sgd_run(
    model: LossModel,
    theta0,
    cfg: SgdConfig,
    *,
    record_stride: int = 1,
    snapshots: bool = False,
) -> Trajectory:
    """Plain minibatch SGD: theta <- theta - lr * (mean batch gradient).

    Finite-data models draw index batches per ``cfg.sampling`` from the
    seeded stream.  Synthesized-noise quadratics draw the minibatch noise
    as one N(0, C/m) variate per step, the law of the mean of
    ``batch_size`` per-example draws, and run on the lockstep core as a
    single row.
    """
    theta = as_param_vector(theta0, model.param_dim)
    run = _advance_rows(
        model, theta, [cfg.learning_rate], [cfg.batch_size], [cfg.seed], cfg.steps,
        record_stride=record_stride, snapshots=snapshots, sampling=cfg.sampling,
    )
    run.raise_first_divergence()
    return run.trajectory(0)


def gaussian_sgd_run(
    model: LossModel,
    theta0,
    cfg: SgdConfig,
    *,
    ref_point=None,
    record_stride: int = 1,
    snapshots: bool = False,
) -> Trajectory:
    """SGD with the minibatch noise replaced by its Gaussian surrogate.

    Updates theta <- theta - lr * grad + (lr / sqrt(m)) * noise, with noise
    of covariance C, the per-example gradient covariance.  For a quadratic
    C is the model's exact covariance, drawn through its root
    ``noise_sqrt``; the surrogate is then exactly the law ``sgd_run``
    draws, and both run on the same lockstep core (same seed, same
    trajectory).  On finite data the noise is ``n^{-1/2} xi G_c`` with
    ``xi`` standard normal in R^n and ``G_c`` the centred per-example
    gradients at ``ref_point`` (default: the start point), frozen for the
    run.
    """
    theta = as_param_vector(theta0, model.param_dim)
    surrogate = None
    if not isinstance(model, QuadraticModel):
        reference = theta if ref_point is None else as_param_vector(ref_point, model.param_dim)
        _, frozen = _surrogate_terms(model, reference)
        surrogate = lambda at: (model.full_grad(at), frozen)
    run = _advance_rows(
        model, theta, [cfg.learning_rate], [cfg.batch_size], [cfg.seed], cfg.steps,
        record_stride=record_stride, snapshots=snapshots, surrogate=surrogate,
    )
    run.raise_first_divergence()
    return run.trajectory(0)


def _step_count(t_end: float, dt: float) -> int:
    if not (np.isfinite(dt) and dt > 0):
        raise EngineError("dt must be positive and finite")
    if not (np.isfinite(t_end) and t_end >= 0):
        raise EngineError("t_end must be nonnegative and finite")
    # 2**63 already fails the check below, and round(inf) would raise.
    steps = int(round(min(t_end / dt, 2.0**63)))
    if steps < 1:
        raise EngineError("t_end must cover at least one dt step")
    if steps > _COUNT_LIMIT:
        raise EngineError(f"t_end / dt must not exceed {_COUNT_LIMIT} steps")
    return steps


def sde_run(
    model: LossModel,
    theta0,
    learning_rate: float,
    batch_size: int,
    t_end: float,
    dt: float,
    seed: int,
    *,
    record_stride: int = 1,
    snapshots: bool = False,
) -> Trajectory:
    """Euler-Maruyama discretization of the SGD diffusion approximation:

        dX = -grad f(X) dt + sqrt(lr / m) * sigma(X) dW,

    with sigma(X) sigma(X)^T = C(X), the per-example gradient covariance,
    run as one row of the stepping core with time step dt.  A quadratic's
    constant C is drawn through the model's root ``noise_sqrt``; finite-data
    models draw sigma(X) dW from the centred per-example gradients at the
    current X, as ``gaussian_sgd_run`` does at its reference point.  At
    ``dt = lr`` this is ``gaussian_sgd_run`` with C refreshed every step,
    and on a quadratic the same run bit for bit.  Requires dt <=
    learning_rate (the diffusion has no business resolving scales finer
    than one SGD step).
    """
    theta = as_param_vector(theta0, model.param_dim)
    steps = _step_count(t_end, dt)
    if dt > learning_rate:
        raise EngineError(f"dt={dt} must not exceed learning_rate={learning_rate}")
    run = _advance_rows(
        model, theta, [learning_rate], [batch_size], [seed], steps, time_steps=[dt],
        record_stride=record_stride, snapshots=snapshots, surrogate=partial(_surrogate_terms, model),
    )
    run.raise_first_divergence()
    return run.trajectory(0)


def gradient_flow(
    model: LossModel,
    theta0,
    t_end: float,
    dt: float,
    *,
    record_stride: int = 1,
    snapshots: bool = True,
) -> Trajectory:
    """Classical fourth-order Runge-Kutta integration of dX/dt = -grad f(X).

    Integrates round(t_end / dt) steps of size exactly dt as one row of
    ``_loop_row``: the same norm guard as the stochastic runs raises
    :class:`DivergenceError` at the first step past it.  Snapshots default
    on because downstream interpolation needs the states.
    """
    theta = as_param_vector(theta0, model.param_dim)
    steps = _step_count(t_end, dt)
    run = _Rows([dt], steps, record_stride, theta.size, snapshots)
    _loop_row(model, run, 0, theta, steps, partial(_rk4_step, model, dt))
    return run.trajectory(0)


def ou_eigenbasis_run(
    eigenvalues,
    learning_rate: float,
    batch_size: int,
    t_end: float,
    dt: float,
    seed: int,
    *,
    record_stride: int = 1,
    snapshots: bool = True,
    z0=None,
) -> Trajectory:
    """Exact-discretization OU process in the curvature eigenbasis.

    Each coordinate follows dz_i = -lam_i z_i dt + sqrt(lr/m) sqrt(lam_i) dW,
    stepped exactly: z <- exp(-lam dt) z + eta with
    Var eta = (lr / 2m)(1 - exp(-2 lam dt)).  The stationary variance is
    lr/(2m) in every coordinate regardless of lam.  Records carry the
    quadratic loss 0.5 * sum lam z^2 and its gradient norm squared.  The
    run is one row of the lockstep core: its states are bitwise those of a
    plain loop over that step, and it raises :class:`DivergenceError` past
    the core's norm guard.
    """
    lam = np.asarray(eigenvalues, dtype=float).reshape(-1)
    if lam.size < 1 or not (np.isfinite(lam).all() and (lam > 0).all()):
        raise EngineError("eigenvalues must be positive and finite")
    if not (np.isfinite(learning_rate) and learning_rate >= 0):
        raise EngineError("learning_rate must be nonnegative and finite")
    if batch_size < 1:
        raise EngineError("batch_size must be at least 1")
    steps = _step_count(t_end, dt)
    p = lam.size
    z = np.zeros(p) if z0 is None else as_param_vector(z0, p)
    decay = np.exp(-lam * dt)
    std = np.sqrt((learning_rate / (2.0 * batch_size)) * (1.0 - decay * decay))
    # decay z - xi (-diag(std)) rounds exactly as decay z + std xi.
    run = _Rows([dt], steps, record_stride, p, snapshots)
    _lockstep(run, z, [seed], steps, lam, np.eye(p), np.zeros(p), decay[None], -np.diag(std), np.ones(1))
    run.raise_first_divergence()
    return run.trajectory(0)


def sgd_replica_ensemble(
    model: QuadraticModel,
    theta0,
    learning_rate: float,
    batch_size: int,
    steps: int,
    replicas: int,
    master_seed: int,
) -> np.ndarray:
    """Final states of `replicas` independent SGD runs, advanced in lockstep.

    Only synthesized-noise quadratic dynamics support this vectorized form.
    Each replica owns a child stream spawned from the master seed and draws
    its noise in step order, so the ensemble is reproducible.  The per-step
    minibatch noise is a single N(0, C/m) variate, exactly the law of a
    mean of ``batch_size`` per-example draws.
    """
    if not isinstance(model, QuadraticModel):
        raise EngineError("lockstep ensembles need a synthesized-noise quadratic model")
    if replicas < 1 or steps < 1:
        raise EngineError("replicas and steps must be positive")
    theta_start = as_param_vector(theta0, model.param_dim)
    run = _advance_rows(
        model, theta_start, np.full(replicas, learning_rate), np.full(replicas, batch_size),
        np.random.SeedSequence(master_seed).spawn(replicas), steps,
        record_stride=steps,
    )
    if run.failures:
        row, err = min(run.failures.items(), key=lambda item: (item[1].step, item[0]))
        raise EngineError(f"replica ensemble diverged: replica {row}, {err}")
    return run.finals


def write_trajectory_csv(path, traj: Trajectory) -> None:
    lines = ["step,t,loss,grad_norm_sq"]
    for k, t, loss, g in zip(traj.steps, traj.times, traj.losses, traj.grad_norms_sq):
        lines.append(f"{int(k)},{float(t)!r},{float(loss)!r},{float(g)!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_snapshots_csv(path, traj: Trajectory) -> None:
    if traj.thetas is None:
        raise EngineError("trajectory carries no snapshots")
    p = traj.thetas.shape[1]
    lines = ["step," + ",".join(f"theta_{i}" for i in range(p))]
    for k, row in zip(traj.steps, traj.thetas):
        lines.append(f"{int(k)}," + ",".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
