import re

import numpy as np
import numpy.testing as npt
import pytest

from sgdscope.linalg import SymMatrix
from sgdscope.problems import (
    LogisticModel,
    ModelError,
    as_param_vector,
    generate_blobs,
    gradient_covariance,
    hessian_dense,
    make_logistic,
    make_mlp,
    make_quadratic,
    read_dataset_csv,
    write_dataset_csv,
)

from _oracles import fd_gradient, fd_hvp, logistic_example_grad, random_spd


def small_quadratic(noise_scale=0.2):
    h = SymMatrix.diagonal([0.5, 1.0, 1.5, 2.0, 2.5])
    c = SymMatrix(noise_scale * np.eye(5))
    return make_quadratic(h, np.zeros(5), c)


def small_logistic(seed=11, n=40, d=4, l2=0.0):
    features, labels = generate_blobs(n, d, 2, seed)
    return make_logistic(features, labels, l2_penalty=l2)


def small_mlp(seed=5, n=30, d=4, classes=3, hidden=6):
    dataset = generate_blobs(n, d, classes, seed)
    return make_mlp(d, hidden, classes, dataset, seed=seed + 1)


class TestParamVector:
    def test_copies_and_validates(self):
        src = [1.0, 2.0]
        v = as_param_vector(src, 2)
        v[0] = 9.0
        assert src[0] == 1.0
        with pytest.raises(ModelError):
            as_param_vector([1.0, np.inf])
        with pytest.raises(ModelError):
            as_param_vector([1.0, 2.0], dim=3)


class TestQuadratic:
    def test_closed_forms(self):
        model = small_quadratic()
        theta = np.array([1.0, -1.0, 0.5, 0.0, 2.0])
        h = np.diag([0.5, 1.0, 1.5, 2.0, 2.5])
        assert model.loss(theta) == pytest.approx(0.5 * theta @ h @ theta)
        npt.assert_allclose(model.full_grad(theta), h @ theta)
        npt.assert_allclose(model.hvp(theta, np.ones(5)), h @ np.ones(5))
        assert model.loss(model.minimizer) == 0.0
        assert model.risk_minimum == 0.0
        assert model.example_count is None

    def test_rejects_indefinite_curvature(self):
        h = SymMatrix.diagonal([1.0, -1.0])
        with pytest.raises(ModelError, match="positive definite"):
            make_quadratic(h, np.zeros(2), SymMatrix.identity(2))

    def test_rejects_indefinite_noise(self):
        h = SymMatrix.identity(2)
        with pytest.raises(ModelError, match="PSD"):
            make_quadratic(h, np.zeros(2), SymMatrix.diagonal([1.0, -0.5]))

    def test_flow_solution_decays_offset(self):
        model = small_quadratic()
        theta0 = np.ones(5)
        x = model.flow_solution(theta0, 2.0)
        expected = np.exp(-np.array([0.5, 1.0, 1.5, 2.0, 2.5]) * 2.0)
        npt.assert_allclose(x, expected, rtol=1e-12)


class TestLogistic:
    def test_single_example_loss_at_origin(self):
        model = make_logistic(np.array([[1.0, 0.0]]), np.array([1]))
        assert model.loss(np.zeros(2)) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        model = small_logistic(l2=0.05)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            theta = rng.normal(scale=0.8, size=model.param_dim)
            npt.assert_allclose(
                model.full_grad(theta),
                fd_gradient(model.loss, theta),
                rtol=1e-5,
                atol=1e-8,
            )

    def test_hvp_matches_finite_differences(self):
        model = small_logistic(l2=0.05)
        rng = np.random.default_rng(3)
        for _ in range(5):
            theta = rng.normal(size=model.param_dim)
            vec = rng.normal(size=model.param_dim)
            npt.assert_allclose(
                model.hvp(theta, vec),
                fd_hvp(model.full_grad, theta, vec),
                rtol=1e-4,
                atol=1e-8,
            )

    def test_single_example_hessian_at_origin(self):
        x = np.array([[2.0, 1.0]])
        model = make_logistic(x, np.array([0]))
        h = hessian_dense(model, np.zeros(2))
        npt.assert_allclose(h.entries, 0.25 * x.T @ x, atol=1e-12)

    def test_mean_per_example_identity(self):
        model = small_logistic(l2=0.02)
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            theta = rng.normal(size=model.param_dim)
            mean_grad = model.per_example_grads(theta).mean(axis=0)
            full = model.full_grad(theta)
            npt.assert_allclose(mean_grad, full, rtol=1e-10, atol=1e-14)

    def test_ridge_makes_hessian_positive_definite(self):
        model = small_logistic(l2=0.1)
        h = hessian_dense(model, np.full(model.param_dim, 0.3))
        w = np.linalg.eigvalsh(h.entries)
        assert w.min() >= 0.1 - 1e-12

    def test_label_validation(self):
        with pytest.raises(ModelError, match="labels"):
            make_logistic(np.ones((3, 2)), np.array([0, 1, 2]))


class TestMlp:
    def test_loss_at_init_matches_direct_forward(self):
        x = np.array([[0.7, -0.2]])
        y = np.array([1])
        model = make_mlp(2, 1, 2, (x, y), seed=9)
        theta = model.initial_params
        w1 = theta[:2].reshape(1, 2)
        b1 = theta[2:3]
        w2 = theta[3:5].reshape(2, 1)
        b2 = theta[5:7]
        hidden = np.tanh(x @ w1.T + b1)
        logits = (hidden @ w2.T + b2).ravel()
        probs = np.exp(logits) / np.exp(logits).sum()
        assert model.loss(theta) == pytest.approx(-np.log(probs[1]), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        model = small_mlp()
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            theta = rng.normal(scale=0.5, size=model.param_dim)
            npt.assert_allclose(
                model.full_grad(theta),
                fd_gradient(model.loss, theta),
                rtol=1e-5,
                atol=1e-8,
            )

    def test_hvp_matches_finite_differences(self):
        model = small_mlp()
        rng = np.random.default_rng(17)
        for _ in range(5):
            theta = rng.normal(scale=0.5, size=model.param_dim)
            vec = rng.normal(size=model.param_dim)
            npt.assert_allclose(
                model.hvp(theta, vec),
                fd_hvp(model.full_grad, theta, vec),
                rtol=1e-4,
                atol=1e-7,
            )

    def test_mean_per_example_identity(self):
        model = small_mlp()
        rng = np.random.default_rng(31)
        theta = rng.normal(scale=0.5, size=model.param_dim)
        mean_grad = model.per_example_grads(theta).mean(axis=0)
        npt.assert_allclose(mean_grad, model.full_grad(theta), rtol=1e-10, atol=1e-14)

    def test_per_example_grads_match_singletons(self):
        model = small_mlp(n=7)
        rng = np.random.default_rng(8)
        theta = rng.normal(scale=0.5, size=model.param_dim)
        stacked = model.per_example_grads(theta)
        for j in range(7):
            npt.assert_allclose(
                stacked[j], model.batch_grad(theta, np.array([j])), rtol=1e-12, atol=1e-14
            )

    def test_init_is_seeded_and_scaled(self):
        a = small_mlp(seed=5)
        b = small_mlp(seed=5)
        npt.assert_array_equal(a.initial_params, b.initial_params)

    def test_label_range_checked(self):
        x = np.ones((3, 2))
        with pytest.raises(ModelError, match="labels"):
            make_mlp(2, 2, 2, (x, np.array([0, 1, 2])), seed=0)


class TestDatasetChecks:
    @pytest.mark.parametrize("build", [
        lambda x, y: make_logistic(x, y),
        lambda x, y: make_mlp(2, 3, 2, (x, y), seed=0),
    ], ids=["logistic", "mlp"])
    @pytest.mark.parametrize("features, labels, message", [
        (np.ones(3), [0, 1, 0], "features must be a non-empty"),
        (np.ones((0, 2)), [], "features must be a non-empty"),
        (np.array([[0.0, np.nan], [1.0, 1.0]]), [0, 1], "features must be finite"),
        (np.ones((3, 2)), [0, 1], "labels must align with feature rows"),
    ], ids=["1-d", "empty", "non-finite", "misaligned"])
    def test_both_models_share_the_dataset_checks(self, build, features, labels, message):
        with pytest.raises(ModelError, match=message):
            build(features, labels)

    def test_messages_name_the_expected_width(self):
        with pytest.raises(ModelError, match=r"^features must be a non-empty \(n, d\) array$"):
            make_logistic(np.ones(3), [0, 1, 0])
        with pytest.raises(ModelError, match=r"^features must be a non-empty \(n, 2\) array$"):
            make_mlp(2, 3, 2, (np.ones((3, 4)), [0, 1, 0]), seed=0)


class TestMinibatchGrad:
    def test_logistic_batch_matches_direct_summation(self):
        model = small_logistic()
        rng = np.random.default_rng(4)
        theta = rng.normal(size=model.param_dim)
        idx = rng.integers(0, model.example_count, size=7)
        expected = np.mean([logistic_example_grad(model, theta, int(j)) for j in idx], axis=0)
        npt.assert_allclose(model.batch_grad(theta, idx), expected, rtol=1e-12, atol=1e-15)

    def test_all_indices_equals_full_gradient(self):
        model = small_logistic()
        theta = np.full(model.param_dim, 0.2)
        batch = model.batch_grad(theta, np.arange(model.example_count))
        npt.assert_allclose(batch, model.full_grad(theta), rtol=1e-12, atol=1e-12)


class TestGradientCovariance:
    def test_zero_noise_quadratic_gives_zero_matrix(self):
        model = small_quadratic(noise_scale=0.0)
        cov = gradient_covariance(model, np.zeros(5))
        npt.assert_array_equal(cov.entries, np.zeros((5, 5)))

    def test_quadratic_returns_its_exact_covariance(self):
        rng = np.random.default_rng(5)
        c = random_spd(rng, 3)
        model = make_quadratic(SymMatrix.identity(3), np.zeros(3), c)
        cov = gradient_covariance(model, np.ones(3))
        npt.assert_array_equal(cov.entries, c)

    def test_finite_data_population_form(self):
        model = small_logistic()
        theta = np.full(model.param_dim, 0.1)
        grads = np.stack(
            [logistic_example_grad(model, theta, j) for j in range(model.example_count)]
        )
        centered = grads - grads.mean(axis=0)
        expected = centered.T @ centered / model.example_count
        cov = gradient_covariance(model, theta)
        npt.assert_allclose(cov.entries, expected, rtol=1e-10, atol=1e-14)


class TestHessianDense:
    def test_quadratic_returns_curvature_exactly(self):
        model = small_quadratic()
        h = hessian_dense(model, np.ones(5))
        npt.assert_array_equal(h.entries, np.diag([0.5, 1.0, 1.5, 2.0, 2.5]))

    def test_mlp_hessian_is_symmetric(self):
        model = small_mlp(n=10, hidden=3)
        rng = np.random.default_rng(2)
        theta = rng.normal(scale=0.5, size=model.param_dim)
        h = hessian_dense(model, theta)
        npt.assert_allclose(h.entries, h.entries.T, atol=1e-12)


class TestBlobsAndDatasetCsv:
    def test_blobs_deterministic_and_balanced(self):
        xa, ya = generate_blobs(90, 5, 3, seed=21)
        xb, yb = generate_blobs(90, 5, 3, seed=21)
        npt.assert_array_equal(xa, xb)
        npt.assert_array_equal(ya, yb)
        assert xa.shape == (90, 5)
        counts = np.bincount(ya, minlength=3)
        npt.assert_array_equal(counts, [30, 30, 30])

    @pytest.mark.parametrize("scale, seed", [(np.inf, 0), (1e308, 2)])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_blobs_refuse_non_finite_features(self, scale, seed):
        message = f"center_scale = {scale} gives non-finite features"
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            generate_blobs(20, 2, 2, seed, center_scale=scale)

    def test_round_trip_exact(self, tmp_path):
        x, y = generate_blobs(12, 3, 2, seed=4)
        path = tmp_path / "data.csv"
        write_dataset_csv(path, x, y)
        x2, y2 = read_dataset_csv(path)
        npt.assert_array_equal(x, x2)
        npt.assert_array_equal(y, y2)
        assert path.read_text().splitlines()[0] == "label,f0,f1,f2"

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("lbl,f0\n0,1.0\n")
        with pytest.raises(ModelError, match="header"):
            read_dataset_csv(path)
