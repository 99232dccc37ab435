"""Span tracer for the traced benchmark run, and the per-layer summary.

The tracer wraps the public functions of ``sgdscope.linalg``, ``problems``,
``engine``, ``estimators`` and ``experiments`` from outside the package:
each listed function is replaced in every loaded ``sgdscope.*`` namespace
that holds a reference to it, and model methods are replaced on the class.
A wrapped call records one span (name, start, end, parent span) in memory;
``dump`` writes the spans out once the workload is done, and ``summarize``
turns a dump into the per-layer metrics.  A self time is a span's duration
minus the durations of its direct child spans.

A name in ``LAYERS`` that the package no longer defines is reported as
absent instead of failing, so the benchmark survives the removal of a
function it used to trace.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
from array import array
from time import perf_counter

import numpy as np

# layer -> group -> traced names.  "Class.method" wraps one class;
# "*.method" wraps every LossModel class in sgdscope.problems defining it.
LAYERS = {
    "linalg": {
        "eig": ["sym_eigendecompose"],
        "sqrt_spd": ["sqrt_spd"],
        "lyapunov": ["solve_lyapunov"],
        "csv": ["read_matrix_csv", "write_matrix_csv"],
        "other": ["trace"],
    },
    "problems": {
        "build": [
            "make_quadratic", "make_logistic", "make_mlp",
            "QuadraticModel.__init__", "LogisticModel.__init__", "MlpModel.__init__",
        ],
        "minibatch_grad": ["minibatch_grad", "*.synthesized_minibatch_grad", "*.batch_grad"],
        "full_eval": ["*.loss", "*.full_grad", "*.accuracy"],
        "hvp": ["*.hvp"],
        "per_example_grads": ["*.per_example_grads", "*.per_example_grad", "*.synthesized_grad_draws"],
        "dataset_io": ["read_dataset_csv", "write_dataset_csv", "generate_blobs"],
        "other": ["gradient_covariance", "hessian_dense", "QuadraticModel.flow_solution"],
    },
    "engine": {
        "run": [
            "sgd_run", "gaussian_sgd_run", "sde_run", "gradient_flow",
            "ou_eigenbasis_run", "sgd_replica_ensemble",
        ],
        "cov_ode": ["integrate_fluctuation_covariance"],
        "writer": ["write_trajectory_csv", "write_snapshots_csv"],
        "other": ["fluctuation_trajectory"],
    },
    "estimators": {
        "stats": ["stationary_stats", "hutchinson_trace", "grad_cov_trace", "trace_sigma2_h"],
        "report": [
            "prediction_report", "model_report", "format_prediction_report",
            "predict_loss_j2018", "predict_excess_loss_w2019",
            "predict_gradnorm_w2019", "magnitude_difference",
        ],
    },
    "experiments": {
        "task": [
            "scan_bs_lr", "linear_scaling_experiment", "clt_experiment",
            "saddle_divergence_experiment",
        ],
        "writer": ["write_scan_csv", "write_curves_csv"],
        "other": ["parallel_map", "derive_seed", "float_bits"],
    },
}

COUNTERS = ("replica_steps", "records", "divergences", "tasks")


class Tracer:
    """Records spans of the wrapped sgdscope calls made in this process."""

    def __init__(self):
        self.names: list[str] = []
        self.groups: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.eig_keys: list[str] = []
        self.eig_dims: list[int] = []
        self.absent: list[str] = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every listed name; call after ``import sgdscope``."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "sgdscope" or n.startswith("sgdscope.")]
        problems = sys.modules["sgdscope.problems"]
        model_classes = [c for c in vars(problems).values()
                         if inspect.isclass(c) and issubclass(c, problems.LossModel)]
        for layer, groups in LAYERS.items():
            module = sys.modules.get(f"sgdscope.{layer}")
            for group, names in groups.items():
                for name in names:
                    if module is None:
                        self.absent.append(f"{layer}.{name}")
                    elif "." in name:
                        self._wrap_methods(layer, group, name, model_classes)
                    else:
                        self._wrap_function(layer, group, name, module, namespaces)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap_function(self, layer, group, name, module, namespaces) -> None:
        original = getattr(module, name, None)
        if not callable(original):
            self.absent.append(f"{layer}.{name}")
            return
        wrapper = self._wrap(f"{layer}.{name}", f"{layer}.{group}", original)
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    self._undo.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)

    def _wrap_methods(self, layer, group, name, model_classes) -> None:
        cls_name, method = name.split(".")
        found = False
        for cls in model_classes:
            original = cls.__dict__.get(method)
            if cls_name not in ("*", cls.__name__) or not callable(original):
                continue
            if getattr(original, "__isabstractmethod__", False):
                continue
            found = True
            self._undo.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{layer}.{cls.__name__}.{method}", f"{layer}.{group}", original))
        if not found:
            self.absent.append(f"{layer}.{name}")

    def _wrap(self, name: str, group: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        self.groups.append(group)
        before, after = _HOOKS.get(name, (None, None))
        stack, name_ids, parents, starts, ends = (
            self._stack, self.name_ids, self.parents, self.starts, self.ends)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            span = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                ends[span] = perf_counter()
                starts[span] = start
                stack.pop()
                if after is not None:
                    after(self, fn, args, kwargs, result, error)

        return traced

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans and counters (``.npz``; counters as JSON text)."""
        meta = {
            "names": self.names,
            "groups": self.groups,
            "counters": self.counters,
            "eig_keys": self.eig_keys,
            "eig_dims": self.eig_dims,
            "absent": self.absent,
        }
        np.savez(
            path,
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            meta=np.array(json.dumps(meta)),
        )


# -- counters kept at the layer boundaries -----------------------------------


def _count_eig(tracer: Tracer, args, kwargs) -> None:
    matrix = args[0] if args else kwargs["matrix"]
    entries = np.ascontiguousarray(matrix.entries)
    tracer.eig_keys.append(hashlib.sha1(entries.tobytes()).hexdigest() + str(entries.shape))
    tracer.eig_dims.append(int(entries.shape[0]))


def _count_run(tracer: Tracer, fn, args, kwargs, result, exc) -> None:
    """Integrated steps and records of one engine run, diverged or not."""
    counters = tracer.counters
    if exc is not None:
        trajectory = getattr(exc, "trajectory", None)
        if trajectory is None:
            return
        counters["divergences"] += 1
        counters["replica_steps"] += int(exc.step)
        counters["records"] += len(trajectory.steps)
    elif isinstance(result, np.ndarray):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        counters["replica_steps"] += int(bound.arguments["steps"]) * int(bound.arguments["replicas"])
    else:
        counters["replica_steps"] += int(result.steps[-1])
        counters["records"] += len(result.steps)


def _count_tasks(tracer: Tracer, fn, args, kwargs, result, exc) -> None:
    if exc is None:
        tracer.counters["tasks"] += len(result)


_HOOKS = {
    "linalg.sym_eigendecompose": (_count_eig, None),
    "experiments.parallel_map": (None, _count_tasks),
    **{f"engine.{name}": (None, _count_run) for name in LAYERS["engine"]["run"]},
}


# -- summary ----------------------------------------------------------------


def summarize(path) -> tuple[dict, list[str]]:
    """Per-layer metrics of one dump, and the names reported absent."""
    with np.load(path) as data:
        name_ids = data["name_ids"]
        parents = data["parents"]
        durations = data["ends"] - data["starts"]
        meta = json.loads(str(data["meta"]))
    n_names = len(meta["names"])
    has_parent = parents >= 0
    child_time = np.bincount(parents[has_parent], weights=durations[has_parent],
                             minlength=len(durations))
    self_by_name = np.bincount(name_ids, weights=durations - child_time, minlength=n_names)
    calls_by_name = np.bincount(name_ids, minlength=n_names)

    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for group, s, c in zip(meta["groups"], self_by_name, calls_by_name):
        layer = group.split(".")[0]
        for key in (group, layer):
            self_s[key] = self_s.get(key, 0.0) + float(s)
            calls[key] = calls.get(key, 0) + int(c)

    def t(key):
        return self_s.get(key, 0.0)

    def n(key):
        return calls.get(key, 0)

    counters = meta["counters"]
    eig_calls = n("linalg.eig")
    steps = counters["replica_steps"]
    metrics = {
        "linalg.eig_calls": eig_calls,
        "linalg.eig_s": t("linalg.eig"),
        "linalg.eig_max_dim": max(meta["eig_dims"], default=0),
        "linalg.eig_unique_frac": len(set(meta["eig_keys"])) / eig_calls if eig_calls else 0.0,
        "linalg.sqrt_spd_s": t("linalg.sqrt_spd"),
        "linalg.lyapunov_s": t("linalg.lyapunov"),
        "linalg.csv_s": t("linalg.csv"),
        "problems.build_s": t("problems.build"),
        "problems.minibatch_grad_calls": n("problems.minibatch_grad"),
        "problems.minibatch_grad_s": t("problems.minibatch_grad"),
        "problems.full_eval_calls": n("problems.full_eval"),
        "problems.full_eval_s": t("problems.full_eval"),
        "problems.hvp_calls": n("problems.hvp"),
        "problems.hvp_s": t("problems.hvp"),
        "problems.per_example_grads_s": t("problems.per_example_grads"),
        "problems.dataset_io_s": t("problems.dataset_io"),
        "engine.run_calls": n("engine.run"),
        "engine.replica_steps": steps,
        "engine.records": counters["records"],
        "engine.divergences": counters["divergences"],
        "engine.self_s": t("engine"),
        "engine.us_per_replica_step": 1e6 * t("engine.run") / steps if steps else 0.0,
        "engine.cov_ode_s": t("engine.cov_ode"),
        "engine.writer_s": t("engine.writer"),
        "estimators.stats_s": t("estimators.stats"),
        "estimators.report_s": t("estimators.report"),
        "experiments.self_s": t("experiments"),
        "experiments.tasks": counters["tasks"],
        "experiments.writer_s": t("experiments.writer"),
    }
    return metrics, meta["absent"]
