#!/usr/bin/env python3
"""Rescaled SGD deviations from gradient flow converge to a Gaussian law.

For a sequence of shrinking step sizes, runs replica ensembles of noisy SGD
on a coupled 2-d quadratic, rescales the final-time deviation from the
deterministic flow by sqrt(batch / lr), and compares its covariance to the
closed form of the linearized diffusion's covariance.  The relative
Frobenius error shrinks as the step size does.  At long horizons the same
closed form settles onto the stationary covariance from the continuous
Lyapunov equation, which is printed last.
"""

import numpy as np

from sgdscope.experiments import clt_experiment
from sgdscope.linalg import SymMatrix, solve_lyapunov
from sgdscope.problems import make_quadratic

HESSIAN = np.array([[1.0, 0.3], [0.3, 0.7]])
NOISE = np.array([[0.5, 0.1], [0.1, 0.4]])

model = make_quadratic(HESSIAN, np.zeros(2), NOISE)
lam_min = float(np.linalg.eigvalsh(HESSIAN).min())

report = clt_experiment(model, [1e-2, 1e-3, 1e-4], batch_size=10,
                        t_end=3.0 / lam_min, replicas=2000, seed=606)

print(f"horizon t = {report.t_end:.2f}, replicas = {report.replicas}")
print(f"{'step size':>10} {'rel frobenius error':>20}")
for lr, err in zip(report.learning_rates, report.frobenius_errors):
    print(f"{lr:>10g} {err:>20.4f}")
print(f"sampling allowance sqrt(2/replicas) = {report.noise_allowance:.4f}")
print(f"errors non-increasing within allowance: {report.monotone_ok}")

stationary = solve_lyapunov(SymMatrix(HESSIAN), SymMatrix(NOISE))
print("\npredicted covariance at the horizon:")
print(np.array_str(report.predicted_covs[-1].entries, precision=4))
print("stationary limit from the Lyapunov equation:")
print(np.array_str(stationary.entries, precision=4))
