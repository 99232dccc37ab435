"""The public surface: every exported name resolves, removed names stay gone."""

import importlib

import pytest

from sgdscope.problems import LossModel, QuadraticModel

MODULES = ["sgdscope", "sgdscope.linalg", "sgdscope.problems", "sgdscope.engine",
           "sgdscope.estimators", "sgdscope.experiments", "sgdscope.cli"]

REMOVED = ["ConvergenceError", "OuSpec", "fluctuation_trajectory",
           "integrate_fluctuation_covariance", "minibatch_grad"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


@pytest.mark.parametrize("name", MODULES)
def test_removed_names_are_gone(name):
    module = importlib.import_module(name)
    assert [attr for attr in REMOVED if attr in module.__all__ or hasattr(module, attr)] == []


def test_models_have_no_synthesized_minibatch_grad():
    assert not hasattr(LossModel, "synthesized_minibatch_grad")
    assert not hasattr(QuadraticModel, "synthesized_minibatch_grad")
