#!/usr/bin/env python3
"""Gradient noise turns a strict saddle from a fixed point into an exit ramp.

Starts SGD exactly at the saddle of f = (x^2 - y^2) / 2.  Without noise the
iterates never move.  With isotropic gradient noise every replica picks up
a component along the negative-curvature direction and grows it by the
factor (1 + lr) per step, so the log of that projection climbs with slope
log(1 + lr) until the iterate blows past the escape radius.
"""

import numpy as np

from sgdscope.experiments import saddle_divergence_experiment
from sgdscope.linalg import SymMatrix

HESSIAN = SymMatrix(np.diag([1.0, -1.0]))
LR = 0.01

for label, noise in [("isotropic noise", SymMatrix(np.eye(2))),
                     ("no noise", SymMatrix(np.zeros((2, 2))))]:
    report = saddle_divergence_experiment(
        HESSIAN, noise, learning_rate=LR, batch_size=1, steps=5000,
        replicas=20, seed=808)
    print(f"{label}:")
    print(f"  verdict            {report.verdict}")
    print(f"  escaped replicas   {report.escape_fraction:.0%}")
    print(f"  measured log slope {report.median_slope}")
    print(f"  predicted slope    log(1 + lr * |lambda_neg|) = {report.expected_slope}")
    print(f"  small-lr limit     lr * |lambda_neg| = {report.expected_slope_small_lr}")
    print()
