"""Independent reference computations used by the test suite.

These deliberately take different routes than the library: the stationary
covariance oracle solves the full dim^2 x dim^2 Kronecker linear system by
dense elimination, curvature checks use central finite differences, and
eigen references come from numpy's LAPACK bindings.
"""

import numpy as np


def lyapunov_kron_oracle(h: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve G H + H G = Q via (I (x) H + H (x) I) vec(G) = vec(Q)."""
    n = h.shape[0]
    eye = np.eye(n)
    system = np.kron(eye, h) + np.kron(h, eye)
    vec_g = np.linalg.solve(system, q.flatten(order="F"))
    return vec_g.reshape((n, n), order="F")


def random_spd(rng: np.random.Generator, dim: int, shift: float = 0.5) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    m = a @ a.T / dim + shift * np.eye(dim)
    return 0.5 * (m + m.T)


def random_symmetric(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    return 0.5 * (a + a.T)


def fd_gradient(loss_fn, theta: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    grad = np.zeros_like(theta, dtype=float)
    for i in range(theta.size):
        up = theta.copy()
        down = theta.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (loss_fn(up) - loss_fn(down)) / (2.0 * step)
    return grad


def fd_hvp(grad_fn, theta: np.ndarray, vec: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference directional derivative of a gradient field."""
    return (grad_fn(theta + step * vec) - grad_fn(theta - step * vec)) / (2.0 * step)


def logistic_example_grad(model, theta: np.ndarray, index: int) -> np.ndarray:
    """Gradient of one example's ridge-logistic term, (sigma(x.theta) - y) x + l2 theta,
    with the sigmoid in its textbook form."""
    x = model.features[index]
    resid = 1.0 / (1.0 + np.exp(-float(x @ theta))) - model.labels[index]
    return resid * x + model.l2_penalty * theta
