"""Independent reference computations used by the test suite.

These deliberately take different routes than the library: the stationary
covariance oracle solves the full dim^2 x dim^2 Kronecker linear system by
dense elimination, curvature checks use central finite differences,
eigen references come from numpy's LAPACK bindings, and the CSV texts are
built line by line and cell by cell, with ``repr(float(v))`` and
``int(k)`` per cell, where the writers format whole columns in blocks.
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


def _lines(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def trajectory_csv(traj) -> str:
    return _lines("step,t,loss,grad_norm_sq", (
        f"{int(k)},{float(t)!r},{float(loss)!r},{float(g)!r}"
        for k, t, loss, g in zip(traj.steps, traj.times, traj.losses, traj.grad_norms_sq)))


def snapshots_csv(traj) -> str:
    header = "step," + ",".join(f"theta_{i}" for i in range(traj.thetas.shape[1]))
    return _lines(header, (f"{int(k)}," + ",".join(repr(float(v)) for v in row)
                           for k, row in zip(traj.steps, traj.thetas)))


def matrix_csv(matrix) -> str:
    return _lines(f"# dim={matrix.dim}", (",".join(repr(float(x)) for x in row) for row in matrix.entries))


def dataset_csv(features, labels) -> str:
    header = "label," + ",".join(f"f{i}" for i in range(np.shape(features)[1]))
    return _lines(header, (str(int(y)) + "," + ",".join(repr(float(v)) for v in row)
                           for y, row in zip(labels, features)))


def scan_csv(rows, columns) -> str:
    """``columns``: the (csv key, ScanRow field) pairs; a float cell by repr, any other by str."""
    return _lines(",".join(key for key, _ in columns), (
        ",".join(repr(v) if isinstance(v, float) else str(v) for v in (getattr(r, f) for _, f in columns))
        for r in rows))


def curves_csv(curves) -> str:
    with_accuracy = curves.base.accuracy is not None
    header = "config_label,ratio_class,step,t,loss" + (",accuracy" if with_accuracy else "")
    rows = []
    for e in [curves.base] + curves.entries:
        traj = e.trajectory
        for i in range(len(traj.steps)):
            cells = [e.label, e.ratio_class, str(int(traj.steps[i])),
                     repr(float(traj.times[i])), repr(float(traj.losses[i]))]
            if with_accuracy:
                cells.append(repr(float(e.accuracy[i])))
            rows.append(",".join(cells))
    return _lines(header, rows)
