"""Command-line front end.

Usage: ``sgdscope <command> [--config FILE] [--key value ...]``.  Config
files are flat ``key = value`` text with ``#`` comments; command-line
flags override file values.  ``<command> --help`` lists the keys a command
reads, with type, default and constraint; any other key is a hard error.
All outputs are CSV or JSON files under ``out_dir`` plus a
``config.resolved`` echo of the effective configuration.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .engine import (
    SAMPLING_MODES,
    DivergenceError,
    EngineError,
    SgdConfig,
    _step_count,
    _usable_cpus,
    gradient_flow,
    ou_eigenbasis_run,
    sgd_run,
    write_snapshots_csv,
    write_trajectory_csv,
)
from .estimators import EstimatorError, format_prediction_report, model_report, stationary_stats
from .experiments import (
    ExperimentError,
    clt_experiment,
    linear_scaling_experiment,
    saddle_divergence_experiment,
    scan_bs_lr,
    write_curves_csv,
    write_scan_csv,
)
from .linalg import LinAlgError, SymMatrix, read_matrix_csv, solve_lyapunov, trace, write_matrix_csv
from .problems import (
    ModelError,
    generate_blobs,
    make_logistic,
    make_mlp,
    make_quadratic,
    read_dataset_csv,
    write_dataset_csv,
)

__all__ = ["main", "parse_config", "render_help", "RunConfig", "ConfigError", "KEY_SPECS"]

WORKERS_ENV = "SGDSCOPE_WORKERS"


class ConfigError(ValueError):
    """Raised on malformed or out-of-range configuration input."""


# ---------------------------------------------------------------------------
# Model assembly


def _matrix_from_keys(cfg: RunConfig, name: str, scale_key: str, dim):
    """The one source of ``name`` that parse_config leaves set: ``<name>_file``,
    ``<name>_diag``, or ``scale_key`` times the ``dim()`` identity."""
    path = getattr(cfg, f"{name}_file")
    if path is not None:
        return read_matrix_csv(path)
    diag = getattr(cfg, f"{name}_diag")
    if diag is not None:
        return SymMatrix.diagonal(np.asarray(diag, dtype=float))
    return SymMatrix(getattr(cfg, scale_key) * np.eye(dim()))


def _quadratic_matrices(cfg: RunConfig):
    """The curvature H and noise covariance C a quadratic config names."""
    hessian = _matrix_from_keys(cfg, "hessian", "curvature_scale", lambda: cfg.dim)
    noise = _matrix_from_keys(cfg, "noise", "noise_scale", lambda: hessian.dim)
    if noise.dim != hessian.dim:
        raise ConfigError(
            f"noise dimension {noise.dim} does not match curvature dimension {hessian.dim}"
        )
    return hessian, noise


def _build_quadratic(cfg: RunConfig):
    hessian, noise = _quadratic_matrices(cfg)
    return make_quadratic(hessian, np.zeros(hessian.dim), noise)


def _build_logistic(cfg: RunConfig):
    return make_logistic(*read_dataset_csv(cfg.dataset_file), cfg.l2_penalty)


def _build_mlp(cfg: RunConfig):
    features, labels = read_dataset_csv(cfg.dataset_file)
    observed = int(labels.max()) + 1
    if observed > cfg.class_count:
        raise ConfigError(f"class_count = {cfg.class_count} but the dataset contains label {observed - 1}")
    return make_mlp(features.shape[1], cfg.hidden_dim, cfg.class_count, (features, labels), cfg.model_seed)


def _build_model(cfg: RunConfig):
    return MODELS[cfg.model][0](cfg)


def _start_point(cfg: RunConfig, model) -> np.ndarray:
    if cfg.theta0 is not None:
        theta = np.asarray(cfg.theta0, dtype=float)
        if theta.size != model.param_dim:
            raise ConfigError(f"theta0 has {theta.size} entries; the model needs {model.param_dim}")
        return theta
    init = getattr(model, "initial_params", None)
    if init is not None:
        return np.asarray(init, dtype=float)
    return np.zeros(model.param_dim)


def _auto_stride(cfg: RunConfig, total_steps: int) -> int:
    if cfg.record_stride > 0:
        return cfg.record_stride
    return max(1, total_steps // 10_000)


def _present(cfg: RunConfig, *names) -> dict:
    """Those of ``names`` that ``cfg`` reads, with their values, as keyword arguments."""
    return {name: getattr(cfg, name) for name in names if hasattr(cfg, name)}


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Command handlers.  Each yields ``(file name, writer, value...)`` in the
# order its files are written; ``run`` writes each one under out_dir before
# it asks for the next, so a later failure leaves the earlier files behind.


def _trajectory_files(traj):
    yield "trajectory.csv", write_trajectory_csv, traj
    if traj.thetas is not None:
        yield "snapshots.csv", write_snapshots_csv, traj


def _cmd_simulate(cfg: RunConfig):
    model = _build_model(cfg)
    run_cfg = SgdConfig(cfg.learning_rate, cfg.batch_size, cfg.steps, cfg.master_seed,
                        **_present(cfg, "sampling"))
    traj = sgd_run(
        model, _start_point(cfg, model), run_cfg,
        record_stride=_auto_stride(cfg, cfg.steps), snapshots=cfg.snapshots,
    )
    yield from _trajectory_files(traj)
    stats = stationary_stats(traj, cfg.burn_in)
    yield "simulate.json", _write_json, {
        "mean_loss": stats.mean_loss,
        "mean_grad_norm_sq": stats.mean_grad_norm_sq,
        "sample_count": stats.sample_count,
        "burn_in": stats.burn_in_fraction,
        "excess_loss": None if model.risk_minimum is None else stats.mean_loss - model.risk_minimum,
    }


def _cmd_flow(cfg: RunConfig):
    model = _build_model(cfg)
    traj = gradient_flow(
        model, _start_point(cfg, model), cfg.t_end, cfg.dt,
        record_stride=_auto_stride(cfg, _step_count(cfg.t_end, cfg.dt)),
    )
    yield from _trajectory_files(traj)
    yield "flow.json", _write_json, {
        "final_loss": float(traj.losses[-1]),
        "final_grad_norm_sq": float(traj.grad_norms_sq[-1]),
        "t_end": float(traj.times[-1]),
    }


def _cmd_ou(cfg: RunConfig):
    traj = ou_eigenbasis_run(
        cfg.eigenvalues, cfg.learning_rate, cfg.batch_size, cfg.t_end, cfg.dt,
        cfg.master_seed, record_stride=_auto_stride(cfg, _step_count(cfg.t_end, cfg.dt)),
    )
    yield "trajectory.csv", write_trajectory_csv, traj
    stats = stationary_stats(traj, cfg.burn_in)
    lam = np.asarray(cfg.eigenvalues, dtype=float)
    payload = {
        "mean_loss": stats.mean_loss,
        "predicted_loss": cfg.learning_rate * float(lam.sum()) / (4.0 * cfg.batch_size),
        "predicted_variance": cfg.learning_rate / (2.0 * cfg.batch_size),
        "sample_count": stats.sample_count,
    }
    if stats.param_variance is not None:
        payload["empirical_variance"] = stats.param_variance.tolist()
    yield "ou.json", _write_json, payload


def _cmd_scan(cfg: RunConfig):
    model = _build_model(cfg)
    rows = scan_bs_lr(
        model, list(zip(cfg.lr_list, cfg.bs_list)), run_length=cfg.steps, replicas=cfg.replicas,
        master_seed=cfg.master_seed, theta_start=_start_point(cfg, model),
        record_stride=cfg.record_stride or None,
        burn_in_fraction=cfg.burn_in, workers=cfg.workers, **_present(cfg, "flow_t", "flow_dt"),
    )
    yield "scan.csv", write_scan_csv, rows
    yield "scan.json", _write_json, [row.as_dict() for row in rows]


def _cmd_scaling(cfg: RunConfig):
    model = _build_model(cfg)
    curves = linear_scaling_experiment(
        model, base=(cfg.base_lr, cfg.base_bs), factors=list(cfg.factors),
        off_ratio=list(zip(cfg.off_lr_list, cfg.off_bs_list)), run_length=cfg.steps,
        seed=cfg.master_seed, theta0=_start_point(cfg, model), record_stride=cfg.record_stride or None,
        burn_in_fraction=cfg.burn_in, workers=cfg.workers,
    )
    yield "curves.csv", write_curves_csv, curves
    yield "scaling.json", _write_json, curves.as_dict()


def _cmd_clt(cfg: RunConfig):
    model = _build_model(cfg)
    report = clt_experiment(
        model, list(cfg.delta_list), cfg.batch_size, cfg.t_end, cfg.replicas, cfg.master_seed,
        theta0=_start_point(cfg, model),
    )
    yield "clt.json", _write_json, report.as_dict()


def _cmd_saddle(cfg: RunConfig):
    report = saddle_divergence_experiment(
        *_quadratic_matrices(cfg), cfg.learning_rate, cfg.batch_size, cfg.steps,
        cfg.replicas, cfg.master_seed,
    )
    yield "saddle.json", _write_json, report.as_dict()


def _cmd_estimate(cfg: RunConfig):
    model = _build_model(cfg)
    report = model_report(model, _start_point(cfg, model), cfg.learning_rate, cfg.batch_size)
    _say(format_prediction_report(report))
    yield "estimate.json", _write_json, report.as_dict()


def _cmd_lyapunov(cfg: RunConfig):
    hessian = read_matrix_csv(cfg.hessian_file)
    noise = read_matrix_csv(cfg.noise_file)
    gamma = solve_lyapunov(hessian, noise)
    yield "gamma.csv", write_matrix_csv, gamma
    yield "lyapunov.json", _write_json, {
        "dim": gamma.dim,
        "tr_gamma": trace(gamma),
        "tr_h_gamma": float(np.trace(hessian.entries @ gamma.entries)),
        "half_tr_q": 0.5 * trace(noise),
    }


def _cmd_gen_data(cfg: RunConfig):
    features, labels = generate_blobs(
        cfg.example_count, cfg.feature_dim, cfg.class_count, cfg.master_seed,
        center_scale=cfg.center_scale,
    )
    yield "dataset.csv", write_dataset_csv, features, labels


# ---------------------------------------------------------------------------
# Models and commands.  parse_config refuses any key the command does not
# read, and any key of another model than the one chosen, then applies the
# rules below; it defaults, resolves and echoes only the keys left.

# Keys only a finite-data model reads: a quadratic draws its noise instead
# of minibatches, and a scan knows its minimizer instead of searching for it.
_FINITE_DATA_KEYS = ("sampling", "flow_t", "flow_dt")
# Each model's builder, the keys it reads beside "model" and "theta0", which
# every model reads, and the keys it requires.
MODELS = {
    "quadratic": (_build_quadratic, ("dim", "curvature_scale", "noise_scale", "hessian_diag",
                                     "noise_diag", "hessian_file", "noise_file"), ()),
    "logistic": (_build_logistic, ("dataset_file", "l2_penalty") + _FINITE_DATA_KEYS, ("dataset_file",)),
    "mlp": (_build_mlp, ("dataset_file", "hidden_dim", "class_count", "model_seed")
            + _FINITE_DATA_KEYS, ("dataset_file",)),
}
_PER_MODEL_KEYS = {key for _, keys, _ in MODELS.values() for key in keys}
# The sources of each quadratic matrix.  A run sets at most one; one that
# sets none takes the last, whose keys have defaults.
_MATRIX_SOURCES = {
    "H": (("hessian_file",), ("hessian_diag",), ("dim", "curvature_scale")),
    "C": (("noise_file",), ("noise_diag",), ("noise_scale",)),
}
_PAIRED_LISTS = (("lr_list", "bs_list"), ("off_lr_list", "off_bs_list"))
# The keys that give a quadratic's dimension without a file: their values
# (a list's length) must agree.
_DIMENSION_KEYS = ("dim", "hessian_diag", "noise_diag", "theta0")
_RUN_KEYS = ("command", "out_dir", "master_seed")


def _command(handler, keys, models=(), required=()):
    """A command's handler, every key it reads under any of ``models``, the
    models it builds, and its required keys ("a|b": either one)."""
    reads = [key for model in models for key in MODELS[model][1] if key not in _FINITE_DATA_KEYS]
    if models:
        keys = ("model",) + tuple(dict.fromkeys(reads)) + ("theta0",) + keys
    return handler, _RUN_KEYS + keys, tuple(models), required


COMMANDS = {
    "simulate": _command(_cmd_simulate, (
        "learning_rate", "batch_size", "steps", "sampling", "record_stride", "snapshots", "burn_in"),
        MODELS),
    "flow": _command(_cmd_flow, ("t_end", "dt", "record_stride"), MODELS),
    "ou": _command(_cmd_ou, (
        "eigenvalues", "learning_rate", "batch_size", "t_end", "dt", "record_stride", "burn_in")),
    "scan": _command(_cmd_scan, (
        "lr_list", "bs_list", "steps", "replicas", "record_stride", "burn_in", "workers",
        "flow_t", "flow_dt"), MODELS, ("lr_list", "bs_list")),
    "scaling": _command(_cmd_scaling, (
        "base_lr", "base_bs", "factors", "off_lr_list", "off_bs_list", "steps", "record_stride",
        "burn_in", "workers"), MODELS, ("base_lr", "base_bs")),
    "clt": _command(_cmd_clt, ("delta_list", "batch_size", "t_end", "replicas"), ("quadratic",),
                    ("delta_list",)),
    "saddle": _command(_cmd_saddle, (
        "hessian_file", "hessian_diag", "noise_file", "noise_diag", "noise_scale",
        "learning_rate", "batch_size", "steps", "replicas"), (), ("hessian_file|hessian_diag",)),
    "estimate": _command(_cmd_estimate, ("learning_rate", "batch_size"), MODELS),
    "lyapunov": _command(_cmd_lyapunov, ("hessian_file", "noise_file"), (),
                         ("hessian_file", "noise_file")),
    "gen-data": _command(_cmd_gen_data, ("example_count", "feature_dim", "class_count", "center_scale")),
}


@dataclass(frozen=True)
class KeySpec:
    name: str
    kind: str
    default: object
    constraint: str
    check: object = None
    choices: tuple = ()


def _spec_list(*specs: KeySpec) -> dict:
    return {spec.name: spec for spec in specs}


KEY_SPECS = _spec_list(
    KeySpec("command", "choice", None, "one of " + "|".join(COMMANDS), choices=tuple(COMMANDS)),
    KeySpec("out_dir", "path", "outputs", "output directory (created if missing)"),
    KeySpec("master_seed", "int", None, "master_seed >= 0; absent: drawn and printed",
            check=lambda v: v >= 0),
    KeySpec("workers", "int", None, f"workers >= 1; absent: ${WORKERS_ENV}, then usable CPU count",
            check=lambda v: v >= 1),
    KeySpec("model", "choice", "quadratic", "one of " + "|".join(MODELS), choices=tuple(MODELS)),
    KeySpec("dim", "int", 2, "dim >= 1", check=lambda v: v >= 1),
    KeySpec("curvature_scale", "float", 1.0, "curvature_scale > 0", check=lambda v: v > 0),
    KeySpec("noise_scale", "float", 1.0, "noise_scale >= 0", check=lambda v: v >= 0),
    KeySpec("hessian_diag", "float_list", None, "comma-separated curvature eigenvalues"),
    KeySpec("noise_diag", "float_list", None, "comma-separated noise-covariance diagonal"),
    KeySpec("hessian_file", "path", None, "matrix CSV with a '# dim=<n>' header"),
    KeySpec("noise_file", "path", None, "matrix CSV with a '# dim=<n>' header"),
    KeySpec("dataset_file", "path", None, "dataset CSV (label,f0,...)"),
    KeySpec("l2_penalty", "float", 0.0, "l2_penalty >= 0", check=lambda v: v >= 0),
    KeySpec("hidden_dim", "int", 8, "hidden_dim >= 1", check=lambda v: v >= 1),
    KeySpec("class_count", "int", 2, "class_count >= 2", check=lambda v: v >= 2),
    KeySpec("model_seed", "int", 0, "model_seed >= 0", check=lambda v: v >= 0),
    KeySpec("theta0", "float_list", None, "comma-separated start point"),
    KeySpec("learning_rate", "float", 0.01, "learning_rate > 0", check=lambda v: v > 0),
    KeySpec("batch_size", "int", 1, "batch_size >= 1", check=lambda v: v >= 1),
    KeySpec("steps", "int", 10_000, "steps >= 1", check=lambda v: v >= 1),
    KeySpec("t_end", "float", 10.0, "t_end > 0", check=lambda v: v > 0),
    KeySpec("dt", "float", 0.01, "dt > 0", check=lambda v: v > 0),
    KeySpec("record_stride", "int", 0, "record_stride >= 0 (0 = auto)", check=lambda v: v >= 0),
    KeySpec("burn_in", "float", 0.5, "0 <= burn_in < 1", check=lambda v: 0 <= v < 1),
    KeySpec("snapshots", "bool", False, "true|false"),
    KeySpec("sampling", "choice", "with_replacement", "one of " + "|".join(SAMPLING_MODES),
            choices=SAMPLING_MODES),
    KeySpec("eigenvalues", "float_list", (1.0,), "comma-separated positive eigenvalues"),
    KeySpec("replicas", "int", 5, "replicas >= 1", check=lambda v: v >= 1),
    KeySpec("lr_list", "float_list", None, "scan grid learning rates (paired with bs_list)"),
    KeySpec("bs_list", "int_list", None, "scan grid batch sizes (paired with lr_list)"),
    KeySpec("base_lr", "float", None, "base_lr > 0", check=lambda v: v > 0),
    KeySpec("base_bs", "int", None, "base_bs >= 1", check=lambda v: v >= 1),
    KeySpec("factors", "float_list", (1.0, 2.0), "joint (lr, bs) scale factors"),
    KeySpec("off_lr_list", "float_list", (), "off-ratio learning rates (paired with off_bs_list)"),
    KeySpec("off_bs_list", "int_list", (), "off-ratio batch sizes (paired with off_lr_list)"),
    KeySpec("delta_list", "float_list", None, "strictly descending step sizes"),
    KeySpec("flow_t", "float", 50.0, "flow_t > 0", check=lambda v: v > 0),
    KeySpec("flow_dt", "float", 0.01, "flow_dt > 0", check=lambda v: v > 0),
    KeySpec("example_count", "int", 200, "example_count >= 2", check=lambda v: v >= 2),
    KeySpec("feature_dim", "int", 2, "feature_dim >= 1", check=lambda v: v >= 1),
    KeySpec("center_scale", "float", 0.6, "center_scale > 0", check=lambda v: v > 0),
)


# Input files.  A config file's paths resolve against its directory, and
# config.resolved, written to out_dir, echoes them relative to out_dir.
PATH_KEYS = ("hessian_file", "noise_file", "dataset_file")


class RunConfig:
    """Validated, fully-resolved configuration values."""

    def __init__(self, values: dict):
        self._values = dict(values)

    def __getattr__(self, name):
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(name) from None

    def resolved_lines(self) -> str:
        lines = []
        for name in sorted(self._values):
            value = self._values[name]
            if value is None:
                continue
            if name in PATH_KEYS:
                value = os.path.relpath(value, self.out_dir)
            lines.append(f"{name} = {_format_value(value)}")
        return "\n".join(lines) + "\n"


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(_format_value(v) for v in value)
    return str(value)


_BOOLS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
          **dict.fromkeys(("false", "0", "no", "off"), False)}
# Each value kind's parser and, for its error message, what it expects.
_PARSERS = {
    "int": (lambda raw: int(raw, 10), "an integer"),
    "float": (float, "a number"),
    "bool": (lambda raw: _BOOLS[raw.lower()], "true/false"),
    "float_list": (lambda raw: tuple(float(p) for p in raw.split(",") if p.strip()),
                   "comma-separated numbers"),
    "int_list": (lambda raw: tuple(int(p, 10) for p in raw.split(",") if p.strip()),
                 "comma-separated integers"),
}


def _parse_value(spec: KeySpec, raw: str):
    raw = raw.strip()
    value = raw
    if spec.kind in _PARSERS:
        parse, expected = _PARSERS[spec.kind]
        try:
            value = parse(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"{spec.name} expects {expected}, got {raw!r}") from None
    elif spec.kind == "choice" and raw not in spec.choices:
        raise ConfigError(f"{spec.name} = {raw!r} violates {spec.constraint}")
    if spec.check is not None and not spec.check(value):
        raise ConfigError(f"{spec.name} = {raw} violates {spec.constraint}")
    return value


def _read_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
            key, _, raw = text.partition("=")
            key = key.strip()
            if key not in KEY_SPECS:
                raise ConfigError(f"{path}:{lineno}: unknown key: {key}")
            values[key] = raw.strip()
    return values


def render_help(command=None) -> str:
    keys = KEY_SPECS if command is None else COMMANDS[command][1]
    lines = [
        f"usage: sgdscope {command or '<command>'} [--config FILE] [--key value ...]",
        "",
        "commands: " + " | ".join(COMMANDS),
        "",
        "--config FILE reads a flat 'key = value' file (# comments); flags",
        "given on the command line override file values.  A leading bare",
        "word selects the command and wins over any 'command' key.  A",
        "model command reads only the keys of the model it builds.",
        "",
        "keys:",
    ]
    for spec in (spec for spec in KEY_SPECS.values() if spec.name in keys):
        default = "(unset)" if spec.default is None else _format_value(spec.default)
        lines.append(f"  {spec.name:<16} {spec.kind:<11} default={default:<18} {spec.constraint}")
    return "\n".join(lines)


def _refuse_unread(reader: str, raw_values: dict, keys) -> None:
    ignored = [key for key in raw_values if key not in keys]
    if ignored:
        raise ConfigError(f"{reader} does not read key(s): {', '.join(ignored)}")


def _unused_source_keys(reader: str, raw_values: dict) -> set:
    """The keys of the matrix sources a run does not use; refuses a second source."""
    unused = set()
    for matrix, sources in _MATRIX_SOURCES.items():
        given = [source for source in sources if any(key in raw_values for key in source)]
        if len(given) > 1:
            named = [key for source in given for key in source if key in raw_values]
            raise ConfigError(f"{reader} sets {matrix} from more than one source: {', '.join(named)}")
        if given:
            unused.update(key for source in sources if source not in given for key in source)
    return unused


def parse_config(argv) -> RunConfig:
    """Merge defaults, config file and flags; refuse a run that breaks a MODELS/COMMANDS key rule."""
    argv = list(argv)
    positional_command = None
    if argv and not argv[0].startswith("-"):
        positional_command = argv.pop(0)
        if positional_command not in COMMANDS:
            raise ConfigError(f"unknown command: {positional_command}")
    overrides = {}
    config_path = None
    i = 0
    while i < len(argv):
        token = argv[i]
        if not token.startswith("--"):
            raise ConfigError(f"expected --key, got {token!r}")
        key = token[2:]
        if i + 1 >= len(argv):
            raise ConfigError(f"missing value for --{key}")
        raw = argv[i + 1]
        i += 2
        if key == "config":
            config_path = raw
            continue
        if key not in KEY_SPECS:
            raise ConfigError(f"unknown key: {key}")
        overrides[key] = raw

    raw_values = _read_config_file(config_path) if config_path else {}
    if config_path:
        # out_dir and command-line paths stay cwd-relative.
        base = os.path.dirname(os.path.abspath(config_path))
        for key in PATH_KEYS:
            if key in raw_values and key not in overrides:
                raw_values[key] = os.path.join(base, raw_values[key])
    raw_values.update(overrides)

    if positional_command is None and "command" not in raw_values:
        raise ConfigError("no command given (positional argument or 'command = ...' key)")
    command = positional_command or _parse_value(KEY_SPECS["command"], raw_values["command"])
    _, keys, models, required = COMMANDS[command]
    reader = command
    _refuse_unread(reader, raw_values, keys)
    if models:
        model = _parse_value(KEY_SPECS["model"], raw_values.get("model", KEY_SPECS["model"].default))
        _, reads, model_required = MODELS[model]
        keys = tuple(key for key in keys if key not in _PER_MODEL_KEYS or key in reads)
        reader = f"{command} with model={model}"
        _refuse_unread(reader, raw_values, keys)
        if model not in models:
            raise ConfigError(f"{command} cannot build model={model}; it builds {'|'.join(models)}")
        required += model_required
    unused = _unused_source_keys(reader, raw_values)
    values = {name: None if name in unused else KEY_SPECS[name].default for name in keys}
    for key, raw in raw_values.items():
        values[key] = _parse_value(KEY_SPECS[key], raw)
    values["command"] = command
    missing = [group for group in required if all(values[key] in (None, ()) for key in group.split("|"))]
    if missing:
        raise ConfigError(f"{reader} requires key(s): {', '.join(missing).replace('|', ' or ')}")
    for first, second in _PAIRED_LISTS:
        if first in keys and len(values[first]) != len(values[second]):
            raise ConfigError(f"{first} and {second} must be lists of equal length")
    sizes = [(key, values[key] if key == "dim" else len(values[key]))
             for key in _DIMENSION_KEYS if values.get(key) is not None]
    if len({size for _, size in sizes}) > 1:
        raise ConfigError(f"{reader} sets dimensions that disagree: "
                          + ", ".join(f"{key} {size}" for key, size in sizes))

    if "workers" in keys and values["workers"] is None:
        env = os.environ.get(WORKERS_ENV)
        if env is not None:
            values["workers"] = _parse_value(KEY_SPECS["workers"], env)
        else:
            values["workers"] = _usable_cpus()
    if values["master_seed"] is None:
        values["master_seed"] = int(np.random.SeedSequence().entropy & ((1 << 63) - 1))
    return RunConfig(values)


def run(cfg: RunConfig) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    _say(f"master_seed = {cfg.master_seed}")
    with open(os.path.join(cfg.out_dir, "config.resolved"), "w", encoding="utf-8") as fh:
        fh.write(cfg.resolved_lines())
    for name, writer, *value in COMMANDS[cfg.command][0](cfg):
        path = os.path.join(cfg.out_dir, name)
        writer(path, *value)
        _say(f"wrote {path}")
    return 0


def _say(text: str) -> None:
    """Print ``text`` to stdout.  Once a reader has closed it early
    (``sgdscope --help | head -1``), the rest goes to the null device."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if any(token in ("-h", "--help") for token in argv):
        _say(render_help(argv[0] if argv[0] in COMMANDS else None))
        return 0
    try:
        cfg = parse_config(argv)
    except ConfigError as err:
        print(f"error: config: {err}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except (ConfigError, LinAlgError, ModelError, EngineError, EstimatorError,
            ExperimentError, DivergenceError) as err:
        print(f"error: {cfg.command}: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: io: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
