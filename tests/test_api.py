"""The public surface: every exported name resolves, removed names stay gone."""

import importlib
import inspect

import numpy as np
import pytest

import sgdscope
from sgdscope import engine, estimators, experiments, linalg, problems
from sgdscope.cli import KEY_SPECS, RunConfig
from sgdscope.linalg import EigenDecomposition, SymMatrix
from sgdscope.problems import (
    LogisticModel,
    LossModel,
    MlpModel,
    ModelError,
    QuadraticModel,
    make_quadratic,
)

MODULES = ["sgdscope", "sgdscope.linalg", "sgdscope.problems", "sgdscope.engine",
           "sgdscope.estimators", "sgdscope.experiments", "sgdscope.cli"]

REMOVED = ["ConvergenceError", "OuSpec", "fluctuation_trajectory",
           "integrate_fluctuation_covariance", "minibatch_grad",
           "hutchinson_trace", "grad_cov_trace", "trace_sigma2_h", "sde_run", "parallel_map"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


@pytest.mark.parametrize("name", MODULES)
def test_removed_names_are_gone(name):
    module = importlib.import_module(name)
    assert [attr for attr in REMOVED if attr in module.__all__ or hasattr(module, attr)] == []


def test_package_exports_the_union_of_the_module_lists():
    listed = [name for module in (engine, estimators, experiments, linalg, problems)
              for name in module.__all__]
    assert sgdscope.__all__ == sorted(listed)
    assert len(set(listed)) == len(listed)


def test_scaling_grid_is_a_constant():
    assert "grid_points" not in inspect.signature(experiments.linear_scaling_experiment).parameters
    assert experiments.CURVE_GRID_POINTS == 200


def test_models_have_no_synthesized_minibatch_grad():
    assert not hasattr(LossModel, "synthesized_minibatch_grad")
    assert not hasattr(QuadraticModel, "synthesized_minibatch_grad")


def test_deleted_internals_stay_gone():
    assert not hasattr(engine, "_Records") and not hasattr(engine, "_record_state")
    assert not hasattr(LossModel, "synthesizes_noise")
    assert not hasattr(SymMatrix, "from_array")
    assert not hasattr(SymMatrix, "identity") and not hasattr(SymMatrix, "zero")
    assert not hasattr(EigenDecomposition, "reconstruct")
    assert list(inspect.signature(RunConfig).parameters) == ["values"]
    assert not hasattr(estimators, "_gradient_samples") and not hasattr(experiments, "_traces_at")
    assert not hasattr(LossModel, "synthesized_grad_draws")
    assert list(inspect.signature(estimators.model_report).parameters) == [
        "model", "theta", "learning_rate", "batch_size"]
    assert list(inspect.signature(problems.gradient_covariance).parameters) == ["model", "theta"]
    assert "probe_count" not in KEY_SPECS and "sample_count" not in KEY_SPECS
    for cls in (LossModel, QuadraticModel, LogisticModel, MlpModel):
        assert not hasattr(cls, "per_example_grad") and not hasattr(cls, "exact_gradient_covariance")
    assert not hasattr(engine, "_surrogate_terms") and not hasattr(engine, "_surrogate_step")
    assert not {"surrogate", "time_steps"} & set(inspect.signature(engine._advance_rows).parameters)
    assert "ref_point" not in inspect.signature(engine.gaussian_sgd_run).parameters


def test_quadratic_has_no_dataset_gradients():
    model = make_quadratic(np.eye(2), np.zeros(2), np.eye(2))
    with pytest.raises(ModelError, match="no finite dataset"):
        model.per_example_grads(np.zeros(2))
    with pytest.raises(ModelError, match="no finite dataset"):
        model.batch_grad(np.zeros(2), np.array([0, 1]))
