"""Loss models exposing per-example gradients and curvature products.

Three model families share one interface: a quadratic bowl with synthesized
Gaussian gradient noise (exact control over the noise covariance), binary
logistic regression on a finite dataset, and a one-hidden-layer tanh network
with softmax cross-entropy.  Gradients and Hessian-vector products are hand
written; the forward-over-reverse product for the network follows the
classic tangent-propagation recipe.
"""

from __future__ import annotations

import abc
import warnings
from functools import cached_property

import numpy as np

from .linalg import (
    EigenDecomposition,
    NotPositiveDefiniteError,
    PD_MARGIN,
    SymMatrix,
    _write_csv,
    sqrt_spd,
    sym_eigendecompose,
)

__all__ = [
    "ModelError",
    "ParamVector",
    "as_param_vector",
    "LossModel",
    "QuadraticModel",
    "LogisticModel",
    "MlpModel",
    "make_quadratic",
    "make_logistic",
    "make_mlp",
    "gradient_covariance",
    "hessian_dense",
    "generate_blobs",
    "write_dataset_csv",
    "read_dataset_csv",
]

# Largest parameter count for which dense p x p objects may be formed.
DENSE_GUARD = 2000

# Parameter vectors are plain float arrays; validation happens where they
# enter the library (constructors and run entry points), not per call.
ParamVector = np.ndarray


class ModelError(ValueError):
    """Raised on loss-model precondition violations."""


def as_param_vector(values, dim: int | None = None) -> ParamVector:
    """Copy ``values`` to a finite float vector, optionally checking length."""
    arr = np.array(values, dtype=float).reshape(-1)
    if dim is not None and arr.size != dim:
        raise ModelError(f"expected a parameter vector of length {dim}, got {arr.size}")
    if not np.isfinite(arr).all():
        raise ModelError("parameter vector entries must be finite")
    return arr


class LossModel(abc.ABC):
    """Common surface for the model families.

    ``example_count`` is ``None`` for models whose per-example gradients are
    synthesized draws rather than rows of a finite dataset.
    """

    @property
    @abc.abstractmethod
    def param_dim(self) -> int: ...

    @property
    @abc.abstractmethod
    def example_count(self) -> int | None: ...

    @property
    def risk_minimum(self) -> float | None:
        """Known minimal loss value, when one exists."""
        return None

    @abc.abstractmethod
    def loss(self, theta: ParamVector) -> float: ...

    @abc.abstractmethod
    def full_grad(self, theta: ParamVector) -> ParamVector: ...

    @abc.abstractmethod
    def hvp(self, theta: ParamVector, vec: ParamVector) -> ParamVector: ...

    def per_example_grads(self, theta: ParamVector) -> np.ndarray:
        """All per-example gradients stacked as rows (finite data only)."""
        raise ModelError("model has no finite dataset of per-example gradients")

    def batch_grad(self, theta: ParamVector, indices: np.ndarray) -> ParamVector:
        """Mean per-example gradient over the given index order (finite data only)."""
        raise ModelError("model has no finite dataset of per-example gradients")


class QuadraticModel(LossModel):
    """Quadratic bowl 0.5 (theta - t*)^T H (theta - t*) with Gaussian
    per-example gradient noise of covariance C.

    Per-example gradients are ``full_grad + R @ eps`` with ``R = noise_sqrt``
    (``R R^T = C``) and ``eps`` standard normal, so a size-m minibatch mean
    has gradient covariance exactly ``C / m``.  The engine steps in H's
    eigenbasis V and draws that noise there through ``eigen_noise_factor``.
    """

    def __init__(
        self,
        hessian: SymMatrix,
        minimizer,
        noise_cov: SymMatrix,
        require_positive_definite: bool = True,
    ):
        if hessian.dim != noise_cov.dim:
            raise ModelError(
                f"curvature is {hessian.dim}x{hessian.dim} but noise covariance "
                f"is {noise_cov.dim}x{noise_cov.dim}"
            )
        self._minimizer = as_param_vector(minimizer, hessian.dim)
        self._eig = sym_eigendecompose(hessian)
        spectral = float(np.abs(self._eig.eigenvalues).max())
        if require_positive_definite and (
            spectral == 0.0
            or float(self._eig.eigenvalues.min()) <= PD_MARGIN * spectral
        ):
            raise ModelError(
                "curvature matrix must be positive definite; smallest eigenvalue "
                f"is {float(self._eig.eigenvalues.min()):.6e}"
            )
        try:
            self.noise_sqrt = sqrt_spd(noise_cov)
        except NotPositiveDefiniteError as exc:
            raise ModelError(f"noise covariance must be PSD: {exc}") from exc
        self.hessian = hessian
        self.noise_cov = noise_cov
        self._h = hessian.entries

    @property
    def param_dim(self) -> int:
        return self._h.shape[0]

    @property
    def example_count(self) -> int | None:
        return None

    @property
    def risk_minimum(self) -> float | None:
        return 0.0

    @property
    def minimizer(self) -> ParamVector:
        return self._minimizer.copy()

    @property
    def hessian_eig(self) -> EigenDecomposition:
        """Eigendecomposition of the curvature matrix, eigenvalues ascending."""
        return self._eig

    @cached_property
    def eigen_noise_factor(self) -> np.ndarray:
        """Upper-triangular T with T^T T = V^T C V, V = ``hessian_eig.eigenvectors``.

        ``eps @ T`` with ``eps`` standard normal is then N(0, V^T C V), the
        law of the noise ``noise_sqrt @ eps`` in the eigenbasis, at
        p(p+1)/2 terms instead of p^2.  It is the triangular factor of the
        QR decomposition of ``noise_sqrt.T @ V``, computed on first use; a
        map that is already upper triangular comes back unchanged, as for a
        diagonal H with an ascending diagonal and a diagonal C with an
        ascending or constant diagonal.
        """
        return np.linalg.qr(self.noise_sqrt.T @ self._eig.eigenvectors, mode="r")

    def loss(self, theta: ParamVector) -> float:
        d = theta - self._minimizer
        return 0.5 * float(d @ (self._h @ d))

    def full_grad(self, theta: ParamVector) -> ParamVector:
        return self._h @ (theta - self._minimizer)

    def hvp(self, theta: ParamVector, vec: ParamVector) -> ParamVector:
        return self._h @ vec

    def flow_solution(self, theta0: ParamVector, t: float) -> ParamVector:
        """Closed-form gradient-flow state exp(-H t) applied to the offset."""
        w = self._eig.eigenvalues
        v = self._eig.eigenvectors
        d = np.asarray(theta0, float) - self._minimizer
        return self._minimizer + v @ (np.exp(-w * t) * (v.T @ d))


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # tanh form is stable for large |t| in either direction.
    return 0.5 * (1.0 + np.tanh(0.5 * t))


class _DatasetModel(LossModel):
    """A loss that is the mean of one term per row of a finite dataset.

    Subclasses give ``_mean_grad(theta, x, y)``, the mean gradient of the
    terms of rows ``x`` with labels ``y``; the full gradient is that mean
    over all rows and a minibatch gradient the mean over an index order.
    """

    def __init__(self, features, labels, width: int | None = None):
        x = np.array(features, dtype=float)
        y = np.array(labels)
        if x.ndim != 2 or x.shape[0] < 1 or (width is not None and x.shape[1] != width):
            raise ModelError(f"features must be a non-empty (n, {width or 'd'}) array")
        if not np.isfinite(x).all():
            raise ModelError("features must be finite")
        if y.shape != (x.shape[0],):
            raise ModelError("labels must align with feature rows")
        self.features = x
        self.labels = y

    @property
    def example_count(self) -> int | None:
        return self.features.shape[0]

    @abc.abstractmethod
    def _mean_grad(self, theta: ParamVector, x: np.ndarray, y: np.ndarray) -> ParamVector: ...

    def full_grad(self, theta: ParamVector) -> ParamVector:
        return self._mean_grad(theta, self.features, self.labels)

    def batch_grad(self, theta: ParamVector, indices: np.ndarray) -> ParamVector:
        return self._mean_grad(theta, self.features[indices], self.labels[indices])


class LogisticModel(_DatasetModel):
    """Binary logistic regression with an optional ridge penalty.

    Each example contributes log(1 + exp(x.theta)) - y * x.theta plus
    (l2/2)||theta||^2, so per-example gradients average exactly to the full
    gradient.
    """

    def __init__(self, features, labels, l2_penalty: float = 0.0):
        super().__init__(features, labels)
        if not np.isin(self.labels, (0, 1)).all():
            raise ModelError("labels must lie in {0, 1}")
        if not l2_penalty >= 0.0:
            raise ModelError("l2 penalty must be nonnegative")
        self.labels = self.labels.astype(float)
        self.l2_penalty = float(l2_penalty)

    @property
    def param_dim(self) -> int:
        return self.features.shape[1]

    def loss(self, theta: ParamVector) -> float:
        t = self.features @ theta
        data = np.logaddexp(0.0, t) - self.labels * t
        return float(data.mean()) + 0.5 * self.l2_penalty * float(theta @ theta)

    def _mean_grad(self, theta: ParamVector, x: np.ndarray, y: np.ndarray) -> ParamVector:
        resid = _sigmoid(x @ theta) - y
        return x.T @ resid / len(y) + self.l2_penalty * theta

    def per_example_grads(self, theta: ParamVector) -> np.ndarray:
        resid = _sigmoid(self.features @ theta) - self.labels
        return resid[:, None] * self.features + self.l2_penalty * theta

    def hvp(self, theta: ParamVector, vec: ParamVector) -> ParamVector:
        s = _sigmoid(self.features @ theta)
        weights = s * (1.0 - s)
        return (
            self.features.T @ (weights * (self.features @ vec)) / self.features.shape[0]
            + self.l2_penalty * vec
        )

    def accuracy(self, theta: ParamVector) -> float:
        predicted = (self.features @ theta) > 0.0
        return float((predicted == (self.labels > 0.5)).mean())


class MlpModel(_DatasetModel):
    """One-hidden-layer tanh network with softmax cross-entropy loss.

    With one-hot targets the KL divergence to the predictive distribution
    coincides with the cross-entropy, so a single loss covers both readings.
    Parameters pack as [W1.ravel(), b1, W2.ravel(), b2]; initial values are
    seeded Gaussians scaled by 1/sqrt(fan_in).
    """

    def __init__(self, input_dim: int, hidden_dim: int, class_count: int, features, labels, seed: int):
        if input_dim < 1 or hidden_dim < 1 or class_count < 2:
            raise ModelError("network dimensions must be positive (>=2 classes)")
        super().__init__(features, labels, input_dim)
        self.labels = self.labels.astype(int)
        if self.labels.min() < 0 or self.labels.max() >= class_count:
            raise ModelError(f"labels must lie in [0, {class_count})")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.class_count = class_count
        self._sizes = (
            hidden_dim * input_dim,
            hidden_dim,
            class_count * hidden_dim,
            class_count,
        )
        rng = np.random.default_rng(seed)
        w1 = rng.standard_normal((hidden_dim, input_dim)) / np.sqrt(input_dim)
        b1 = rng.standard_normal(hidden_dim) / np.sqrt(input_dim)
        w2 = rng.standard_normal((class_count, hidden_dim)) / np.sqrt(hidden_dim)
        b2 = rng.standard_normal(class_count) / np.sqrt(hidden_dim)
        self.initial_params = np.concatenate([w1.ravel(), b1, w2.ravel(), b2])

    @property
    def param_dim(self) -> int:
        return sum(self._sizes)

    def _unpack(self, theta: ParamVector):
        s1, s2, s3, _ = self._sizes
        w1 = theta[:s1].reshape(self.hidden_dim, self.input_dim)
        b1 = theta[s1 : s1 + s2]
        w2 = theta[s1 + s2 : s1 + s2 + s3].reshape(self.class_count, self.hidden_dim)
        b2 = theta[s1 + s2 + s3 :]
        return w1, b1, w2, b2

    def _forward(self, theta: ParamVector, x: np.ndarray):
        w1, b1, w2, b2 = self._unpack(theta)
        a1 = np.tanh(x @ w1.T + b1)
        logits = a1 @ w2.T + b2
        return a1, logits

    @staticmethod
    def _log_softmax(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def loss(self, theta: ParamVector) -> float:
        _, logits = self._forward(theta, self.features)
        logp = self._log_softmax(logits)
        return float(-logp[np.arange(len(self.labels)), self.labels].mean())

    def _output_errors(self, theta: ParamVector, x: np.ndarray, y: np.ndarray, count: float):
        """One backward pass: hidden activations, logit errors and
        pre-activation errors of each row, the errors divided by ``count``."""
        _, _, w2, _ = self._unpack(theta)
        a1, logits = self._forward(theta, x)
        dlogits = np.exp(self._log_softmax(logits))
        dlogits[np.arange(len(y)), y] -= 1.0
        dlogits /= count
        dz1 = (1.0 - a1 * a1) * (dlogits @ w2)
        return a1, dlogits, dz1

    def _mean_grad(self, theta: ParamVector, x: np.ndarray, y: np.ndarray) -> ParamVector:
        a1, dlogits, dz1 = self._output_errors(theta, x, y, len(y))
        return np.concatenate(
            [(dz1.T @ x).ravel(), dz1.sum(axis=0), (dlogits.T @ a1).ravel(), dlogits.sum(axis=0)]
        )

    def per_example_grads(self, theta: ParamVector) -> np.ndarray:
        x = self.features
        a1, dlogits, dz1 = self._output_errors(theta, x, self.labels, 1.0)
        n = x.shape[0]
        gw1 = np.einsum("nh,nd->nhd", dz1, x)
        gw2 = np.einsum("nc,nh->nch", dlogits, a1)
        return np.concatenate(
            [gw1.reshape(n, -1), dz1, gw2.reshape(n, -1), dlogits], axis=1
        )

    def hvp(self, theta: ParamVector, vec: ParamVector) -> ParamVector:
        """Exact Hessian-vector product by forward-over-reverse propagation."""
        w1, b1, w2, b2 = self._unpack(theta)
        v1, c1, v2, c2 = self._unpack(np.asarray(vec, float))
        x, y = self.features, self.labels
        n = x.shape[0]

        a1 = np.tanh(x @ w1.T + b1)
        logits = a1 @ w2.T + b2
        probs = np.exp(self._log_softmax(logits))

        # Forward tangents.
        r_z1 = x @ v1.T + c1
        r_a1 = (1.0 - a1 * a1) * r_z1
        r_logits = r_a1 @ w2.T + a1 @ v2.T + c2
        r_probs = probs * (r_logits - (probs * r_logits).sum(axis=1, keepdims=True))

        # Reverse pass with carried tangents.
        dlogits = probs.copy()
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        r_dlogits = r_probs / n

        r_gw2 = r_dlogits.T @ a1 + dlogits.T @ r_a1
        r_gb2 = r_dlogits.sum(axis=0)
        da1 = dlogits @ w2
        r_da1 = r_dlogits @ w2 + dlogits @ v2
        r_dz1 = (-2.0 * a1 * r_a1) * da1 + (1.0 - a1 * a1) * r_da1
        r_gw1 = r_dz1.T @ x
        r_gb1 = r_dz1.sum(axis=0)
        return np.concatenate([r_gw1.ravel(), r_gb1, r_gw2.ravel(), r_gb2])

    def accuracy(self, theta: ParamVector) -> float:
        _, logits = self._forward(theta, self.features)
        return float((logits.argmax(axis=1) == self.labels).mean())


def make_quadratic(hessian, minimizer, noise_cov) -> QuadraticModel:
    """Quadratic bowl with positive-definite curvature and PSD noise.

    Accepts plain symmetric arrays for both matrices.
    """
    if not isinstance(hessian, SymMatrix):
        hessian = SymMatrix(hessian)
    if not isinstance(noise_cov, SymMatrix):
        noise_cov = SymMatrix(noise_cov)
    return QuadraticModel(hessian, minimizer, noise_cov, require_positive_definite=True)


def make_logistic(features, labels, l2_penalty: float = 0.0) -> LogisticModel:
    return LogisticModel(features, labels, l2_penalty)


def make_mlp(input_dim: int, hidden_dim: int, class_count: int, dataset, seed: int) -> MlpModel:
    """Build the tanh network on a ``(features, labels)`` dataset pair."""
    features, labels = dataset
    return MlpModel(input_dim, hidden_dim, class_count, features, labels, seed)


def _check_dense_guard(model: LossModel) -> None:
    """Refuse a model too large for dense p x p matrices."""
    if model.param_dim > DENSE_GUARD:
        raise ModelError(f"param_dim {model.param_dim} exceeds the dense guard {DENSE_GUARD}")


def gradient_covariance(model: LossModel, theta: ParamVector) -> SymMatrix:
    """Per-example gradient covariance at ``theta``.

    A quadratic's noise covariance C, which is exact; otherwise the
    covariance of all n per-example gradients, with population
    normalization 1/n.
    """
    _check_dense_guard(model)
    if isinstance(model, QuadraticModel):
        return model.noise_cov
    grads = model.per_example_grads(theta)
    centered = grads - grads.mean(axis=0)
    cov = centered.T @ centered / grads.shape[0]
    return SymMatrix(0.5 * (cov + cov.T))


def hessian_dense(model: LossModel, theta: ParamVector) -> SymMatrix:
    """Dense Hessian from p Hessian-vector products against basis vectors.

    Asymmetry beyond 1e-6 relative (Frobenius) is reported via a warning;
    the symmetrized matrix is returned either way.
    """
    _check_dense_guard(model)
    p = model.param_dim
    cols = np.empty((p, p))
    basis = np.zeros(p)
    for i in range(p):
        basis[i] = 1.0
        cols[:, i] = model.hvp(theta, basis)
        basis[i] = 0.0
    asym = np.linalg.norm(cols - cols.T)
    scale = max(np.linalg.norm(cols), np.finfo(float).tiny)
    if asym > 1e-6 * scale:
        warnings.warn(
            f"hessian asymmetry {asym:.3e} exceeds 1e-6 of scale {scale:.3e}; "
            "symmetrizing",
            stacklevel=2,
        )
    return SymMatrix(0.5 * (cols + cols.T))


def generate_blobs(
    example_count: int,
    feature_dim: int,
    class_count: int,
    seed: int,
    center_scale: float = 0.6,
):
    """Isotropic Gaussian class blobs with balanced labels.

    Class centers are seeded Gaussians scaled by ``center_scale``; unit-variance
    noise is added per example, so the default spread leaves classes moderately
    overlapping (the minimum risk stays strictly positive).
    """
    if example_count < 1 or feature_dim < 1 or class_count < 2:
        raise ModelError("need example_count >= 1, feature_dim >= 1, class_count >= 2")
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):  # an overflow is refused just below
        centers = rng.standard_normal((class_count, feature_dim)) * center_scale
    # Unit noise added to finite centres cannot overflow, so the features stay finite.
    if not np.isfinite(centers).all():
        raise ModelError(f"center_scale = {center_scale} gives non-finite features")
    labels = rng.permutation(np.arange(example_count) % class_count)
    return centers[labels] + rng.standard_normal((example_count, feature_dim)), labels


def write_dataset_csv(path, features, labels) -> None:
    x = np.asarray(features, dtype=float)
    _write_csv(path, "label," + ",".join(f"f{i}" for i in range(x.shape[1])),
               [np.asarray(labels, dtype=int), *x.T])


def read_dataset_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise ModelError(f"{path}: empty dataset file")
    header = lines[0].split(",")
    if header[0] != "label" or any(
        name != f"f{i}" for i, name in enumerate(header[1:])
    ):
        raise ModelError(f"{path}: malformed header {lines[0]!r}")
    dim = len(header) - 1
    labels = []
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != dim + 1:
            raise ModelError(f"{path}: expected {dim + 1} columns in {line!r}")
        try:
            labels.append(int(cells[0]))
            rows.append([float(c) for c in cells[1:]])
        except ValueError as exc:
            raise ModelError(f"{path}: malformed cell in {line!r}") from exc
    if not rows:
        raise ModelError(f"{path}: dataset has no example rows")
    return np.array(rows), np.array(labels, dtype=int)
