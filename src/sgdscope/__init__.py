"""Numerical laboratory for SGD stationary fluctuations near minima.

The package simulates minibatch SGD and its continuous-time surrogates
(gradient flow, eigenbasis diffusion), solves the
associated Lyapunov equations, and checks measured stationary behavior
against closed-form predictions built from the curvature trace and the
gradient-noise trace.

It republishes the public names of its five modules: a name is public here
exactly when it is listed in its module's ``__all__``.
"""

from sgdscope import engine, estimators, experiments, linalg, problems
from sgdscope.engine import *  # noqa: F403
from sgdscope.estimators import *  # noqa: F403
from sgdscope.experiments import *  # noqa: F403
from sgdscope.linalg import *  # noqa: F403
from sgdscope.problems import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted({name for module in (engine, estimators, experiments, linalg, problems)
                  for name in module.__all__})
