"""Dynamics engines: discrete runs, integrators, and the deviation process."""

import os
import pickle
import threading
import warnings

import numpy as np
import pytest

from sgdscope import engine
from sgdscope.engine import (
    DivergenceError,
    EngineError,
    SgdConfig,
    Trajectory,
    gaussian_sgd_run,
    gradient_flow,
    ou_eigenbasis_run,
    sgd_replica_ensemble,
    sgd_run,
    write_snapshots_csv,
    write_trajectory_csv,
)
from sgdscope.engine import NOISE_BLOCK, _advance_rows, _rowwise_matmul
from sgdscope.experiments import clt_experiment
from sgdscope.linalg import SymMatrix
from sgdscope.problems import (
    QuadraticModel,
    generate_blobs,
    make_logistic,
    make_mlp,
    make_quadratic,
)

from _oracles import lyapunov_kron_oracle, random_spd, random_symmetric


def quadratic(diag, noise_scale):
    dim = len(diag)
    return make_quadratic(
        hessian=np.diag(diag),
        minimizer=np.zeros(dim),
        noise_cov=noise_scale * np.eye(dim),
    )


def discrete_stationary_variance(lr, m, h, c):
    # Exact fixed point of v = (1 - lr*h)^2 v + lr^2 c / m for the
    # one-dimensional noisy quadratic update.
    return lr * c / (m * (2.0 * h - lr * h * h))


def discrete_lyapunov_oracle(a, q):
    # Solves V = A V A^T + Q via the Kronecker system (I - A (x) A) vec V = vec Q.
    n = a.shape[0]
    system = np.eye(n * n) - np.kron(a, a)
    vec_v = np.linalg.solve(system, q.flatten(order="F"))
    return vec_v.reshape((n, n), order="F")


def small_logistic():
    features, labels = generate_blobs(
        example_count=40, feature_dim=3, class_count=2, seed=11
    )
    return make_logistic(features, labels, l2_penalty=1e-3)


def small_mlp():
    features, labels = generate_blobs(
        example_count=40, feature_dim=2, class_count=3, seed=12
    )
    return make_mlp(2, 4, 3, (features, labels), seed=5)


class TestSgdConfig:
    def test_rejects_bad_fields(self):
        good = dict(learning_rate=0.1, batch_size=4, steps=10, seed=0)
        with pytest.raises(EngineError):
            SgdConfig(**{**good, "learning_rate": 0.0})
        with pytest.raises(EngineError):
            SgdConfig(**{**good, "learning_rate": float("nan")})
        with pytest.raises(EngineError):
            SgdConfig(**{**good, "batch_size": 0})
        with pytest.raises(EngineError, match="whole number"):
            SgdConfig(**{**good, "batch_size": 2.5})
        with pytest.raises(EngineError, match="whole number"):
            SgdConfig(**{**good, "batch_size": float("nan")})
        with pytest.raises(EngineError):
            SgdConfig(**{**good, "steps": 0})
        with pytest.raises(EngineError):
            SgdConfig(**{**good, "sampling": "bogus"})

    def test_accepts_both_sampling_modes(self):
        for mode in ("with_replacement", "without_replacement"):
            cfg = SgdConfig(0.1, 2, 5, 0, sampling=mode)
            assert cfg.sampling == mode


class TestTrajectoryValidation:
    def test_rejects_mismatched_columns(self):
        with pytest.raises(EngineError):
            Trajectory(
                record_stride=1,
                steps=np.array([0, 1]),
                times=np.array([0.0]),
                losses=np.array([1.0, 0.5]),
                grad_norms_sq=np.array([1.0, 0.5]),
            )

    def test_rejects_nonincreasing_steps(self):
        with pytest.raises(EngineError):
            Trajectory(
                record_stride=1,
                steps=np.array([0, 0]),
                times=np.array([0.0, 0.0]),
                losses=np.array([1.0, 1.0]),
                grad_norms_sq=np.array([1.0, 1.0]),
            )


class TestSgdRun:
    def test_zero_noise_matches_power_decay(self):
        model = quadratic([1.0], 0.0)
        cfg = SgdConfig(learning_rate=0.1, batch_size=3, steps=50, seed=0)
        traj = sgd_run(model, [1.0], cfg, snapshots=True)
        expected = 0.9 ** traj.steps
        np.testing.assert_allclose(traj.thetas[:, 0], expected, rtol=1e-12)
        np.testing.assert_allclose(traj.losses, 0.5 * expected**2, rtol=1e-12)

    def test_zero_noise_multidim_matches_closed_form(self):
        diag = np.array([0.5, 1.0, 2.5])
        model = quadratic(diag, 0.0)
        theta0 = np.array([1.0, -2.0, 0.5])
        cfg = SgdConfig(learning_rate=0.2, batch_size=1, steps=30, seed=0)
        traj = sgd_run(model, theta0, cfg, snapshots=True)
        for row, k in zip(traj.thetas, traj.steps):
            np.testing.assert_allclose(row, (1.0 - 0.2 * diag) ** k * theta0, rtol=1e-10)

    def test_record_grid(self):
        model = quadratic([1.0], 0.0)
        cfg = SgdConfig(0.1, 1, 10, 0)
        traj = sgd_run(model, [1.0], cfg, record_stride=3)
        np.testing.assert_array_equal(traj.steps, [0, 3, 6, 9, 10])
        np.testing.assert_allclose(traj.times, 0.1 * traj.steps)
        assert traj.record_stride == 3
        assert traj.thetas is None

    def test_record_stride_beyond_horizon(self):
        model = quadratic([1.0], 0.0)
        traj = sgd_run(model, [1.0], SgdConfig(0.1, 1, 5, 0), record_stride=100)
        np.testing.assert_array_equal(traj.steps, [0, 5])

    def test_stationary_variance_matches_exact_recursion(self):
        lr, m, h, c = 0.05, 5, 1.0, 0.2
        model = quadratic([h], c)
        cfg = SgdConfig(lr, m, 150_000, seed=2024)
        traj = sgd_run(model, [0.0], cfg, record_stride=5, snapshots=True)
        tail = traj.thetas[len(traj.thetas) // 2 :, 0]
        target = discrete_stationary_variance(lr, m, h, c)
        assert abs(np.var(tail) / target - 1.0) < 0.10
        assert abs(np.mean(traj.losses[len(traj.losses) // 2 :]) / (0.5 * h * target) - 1.0) < 0.10

    def test_finite_data_run_decreases_loss_and_is_reproducible(self):
        model = small_logistic()
        cfg = SgdConfig(learning_rate=0.5, batch_size=8, steps=200, seed=7)
        first = sgd_run(model, np.zeros(model.param_dim), cfg, record_stride=10)
        second = sgd_run(model, np.zeros(model.param_dim), cfg, record_stride=10)
        np.testing.assert_array_equal(first.losses, second.losses)
        assert first.losses[-1] < first.losses[0]

    def test_without_replacement_sampling_runs(self):
        model = small_logistic()
        cfg = SgdConfig(0.5, 40, 50, 3, sampling="without_replacement")
        traj = sgd_run(model, np.zeros(model.param_dim), cfg)
        assert traj.losses[-1] < traj.losses[0]

    def test_batch_exceeding_dataset_rejected(self):
        model = small_logistic()
        cfg = SgdConfig(0.1, 41, 5, 0)
        with pytest.raises(EngineError, match="available examples"):
            sgd_run(model, np.zeros(model.param_dim), cfg)

    def test_divergence_carries_partial_run(self):
        model = quadratic([1.0], 0.0)
        cfg = SgdConfig(learning_rate=3.0, batch_size=1, steps=500, seed=0)
        with pytest.raises(DivergenceError, match="divergence at step") as info:
            sgd_run(model, [1.0], cfg, record_stride=5)
        err = info.value
        assert err.step > 0
        assert isinstance(err.trajectory, Trajectory)
        assert err.trajectory.steps[-1] < err.step
        assert err.trajectory.losses[0] == 0.5

    def test_divergence_error_survives_pickling(self):
        model = quadratic([1.0], 0.0)
        with pytest.raises(DivergenceError) as info:
            sgd_run(model, [1.0], SgdConfig(3.0, 1, 500, 0), record_stride=5)
        err = info.value
        clone = pickle.loads(pickle.dumps(err))
        assert type(clone) is DivergenceError
        assert clone.step == err.step
        assert str(clone) == str(err)
        np.testing.assert_array_equal(clone.trajectory.steps, err.trajectory.steps)
        np.testing.assert_array_equal(clone.trajectory.losses, err.trajectory.losses)
        detailed = pickle.loads(pickle.dumps(DivergenceError(7, err.trajectory, "loss is nan")))
        assert (detailed.step, str(detailed)) == (7, "divergence at step 7: loss is nan")


class TestGaussianSgdRun:
    def test_zero_noise_bitwise_matches_plain_sgd(self):
        model = quadratic([0.5, 1.5], 0.0)
        theta0 = np.array([1.0, -1.0])
        cfg = SgdConfig(learning_rate=0.1, batch_size=4, steps=100, seed=5)
        plain = sgd_run(model, theta0, cfg, snapshots=True)
        gauss = gaussian_sgd_run(model, theta0, cfg, snapshots=True)
        np.testing.assert_array_equal(plain.thetas, gauss.thetas)
        np.testing.assert_array_equal(plain.losses, gauss.losses)

    def test_stationary_variance_matches_exact_recursion(self):
        lr, m = 0.05, 2
        diag = np.array([1.0, 2.0])
        model = quadratic(diag, 0.3)
        cfg = SgdConfig(lr, m, 150_000, seed=90)
        traj = gaussian_sgd_run(model, np.zeros(2), cfg, record_stride=5, snapshots=True)
        tail = traj.thetas[len(traj.thetas) // 2 :]
        for i, h in enumerate(diag):
            target = discrete_stationary_variance(lr, m, h, 0.3)
            assert abs(np.var(tail[:, i]) / target - 1.0) < 0.10

    def test_divergence_guard(self):
        model = quadratic([1.0], 0.1)
        cfg = SgdConfig(learning_rate=2.5, batch_size=1, steps=400, seed=0)
        with pytest.raises(DivergenceError):
            gaussian_sgd_run(model, [1.0], cfg)

    def test_finite_data_models_are_refused(self):
        model = small_logistic()
        with pytest.raises(EngineError, match="synthesized-noise quadratic"):
            gaussian_sgd_run(model, np.zeros(model.param_dim), SgdConfig(0.2, 8, 50, seed=1))


class TestGradientFlow:
    def test_matches_closed_form(self):
        model = quadratic([0.5, 1.0, 2.5], 0.1)
        theta0 = np.array([1.0, -2.0, 0.5])
        traj = gradient_flow(model, theta0, t_end=5.0, dt=0.01)
        np.testing.assert_allclose(
            traj.thetas[-1], model.flow_solution(theta0, 5.0), atol=1e-9
        )

    def test_fourth_order_convergence(self):
        model = quadratic([0.5, 2.5], 0.1)
        theta0 = np.array([1.0, 1.0])
        exact = model.flow_solution(theta0, 2.0)
        errs = []
        for dt in (0.2, 0.1):
            traj = gradient_flow(model, theta0, t_end=2.0, dt=dt)
            errs.append(np.linalg.norm(traj.thetas[-1] - exact))
        ratio = errs[0] / errs[1]
        assert 10.0 < ratio < 30.0

    def test_snapshots_on_by_default(self):
        model = quadratic([1.0], 0.0)
        traj = gradient_flow(model, [1.0], t_end=1.0, dt=0.1)
        assert traj.thetas is not None
        np.testing.assert_allclose(traj.times, 0.1 * traj.steps)

    def test_nonquadratic_loss_decreases(self):
        model = small_logistic()
        traj = gradient_flow(model, np.zeros(model.param_dim), t_end=5.0, dt=0.05)
        assert (np.diff(traj.losses) <= 1e-12).all()

    def test_divergence_raises_with_the_partial_run(self):
        # At dt * lam = 5 an RK4 step multiplies theta by
        # 1 - 5 + 5^2/2 - 5^3/6 + 5^4/24 = 13.7, so ||theta|| passes 1e12 at step 11.
        model = quadratic([1.0], 0.0)
        with pytest.raises(DivergenceError) as info:
            gradient_flow(model, [1.0], t_end=100.0, dt=5.0)
        err = info.value
        assert err.step == 11
        np.testing.assert_array_equal(err.trajectory.steps, np.arange(11))
        np.testing.assert_array_equal(err.trajectory.times, 5.0 * np.arange(11))
        growth = 1.0 - 5.0 + 25.0 / 2.0 - 125.0 / 6.0 + 625.0 / 24.0
        np.testing.assert_allclose(err.trajectory.thetas[:, 0], growth ** np.arange(11), rtol=1e-12)


class TestOuRun:
    def test_validation(self):
        with pytest.raises(EngineError):
            ou_eigenbasis_run([1.0, -1.0], 0.01, 1, 1.0, 0.1, 0)
        with pytest.raises(EngineError):
            ou_eigenbasis_run([1.0], -0.01, 1, 1.0, 0.1, 0)
        with pytest.raises(EngineError):
            ou_eigenbasis_run([1.0], 0.01, 0, 1.0, 0.1, 0)
        for batch_size in (2.5, float("nan"), float("inf")):
            with pytest.raises(EngineError, match="^batch_size must be a whole number of at least 1$"):
                ou_eigenbasis_run([1.0], 0.01, batch_size, 1.0, 0.1, 0)

    def test_zero_rate_is_deterministic_decay(self):
        lam = np.array([0.5, 2.0])
        traj = ou_eigenbasis_run(lam, 0.0, 5, t_end=2.0, dt=0.1, seed=0, z0=[1.0, 1.0])
        for row, t in zip(traj.thetas, traj.times):
            np.testing.assert_allclose(row, np.exp(-lam * t), rtol=1e-12)

    def test_stationary_moments(self):
        lam = np.array([0.5, 1.0, 2.0])
        lr, m = 0.01, 10
        traj = ou_eigenbasis_run(lam, lr, m, t_end=20_000.0, dt=0.5, seed=777)
        burn = traj.times >= 0.25 * traj.times[-1]
        tail = traj.thetas[burn]
        target_var = lr / (2.0 * m)
        for i in range(3):
            assert abs(np.var(tail[:, i]) / target_var - 1.0) < 0.05
        target_loss = lr * lam.sum() / (4.0 * m)
        assert abs(np.mean(traj.losses[burn]) / target_loss - 1.0) < 0.05

    def test_loss_columns_consistent(self):
        lam = np.array([1.0, 3.0])
        traj = ou_eigenbasis_run(lam, 0.05, 2, t_end=5.0, dt=0.05, seed=4)
        recomputed = 0.5 * (traj.thetas**2 * lam).sum(axis=1)
        np.testing.assert_allclose(traj.losses, recomputed, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("stride", [1, 7])
    def test_states_match_a_plain_loop_bitwise(self, stride):
        # 1,300 steps cross the 512-step noise blocks of the stepping core.
        lam = np.array([0.5, 2.0, 7.0])
        lr, m, dt, seed, steps = 0.02, 3, 0.25, 31, 1300
        z0 = np.array([0.3, -1.2, 2.5])
        traj = ou_eigenbasis_run(lam, lr, m, t_end=steps * dt, dt=dt, seed=seed,
                                 record_stride=stride, z0=z0)
        decay = np.exp(-lam * dt)
        std = np.sqrt((lr / (2.0 * m)) * (1.0 - decay * decay))
        rng = np.random.default_rng(seed)
        z, kept, states = z0, [0], [z0]
        for k in range(1, steps + 1):
            z = decay * z + std * rng.standard_normal(3)
            if k % stride == 0 or k == steps:
                kept.append(k)
                states.append(z)
        np.testing.assert_array_equal(traj.steps, kept)
        assert traj.thetas.tobytes() == np.array(states).tobytes()

    def test_divergence_is_raised_not_truncated(self):
        with pytest.raises(DivergenceError) as info:
            ou_eigenbasis_run([1e-3], 0.01, 1, t_end=1.0, dt=0.1, seed=0, z0=[2e12])
        assert info.value.step == 1
        np.testing.assert_array_equal(info.value.trajectory.steps, [0])


class TestFluctuationCovariance:
    # The deviation covariance solves dG/dt = -(HG + GH) + C from G(0) = 0;
    # clt_experiment reports it, in closed form, as predicted_covs.
    def test_scalar_closed_form(self):
        h, c = 1.5, 0.7
        model = make_quadratic(np.array([[h]]), np.zeros(1), np.array([[c]]))
        for t_end in (0.5, 1.0, 2.0):
            report = clt_experiment(model, [0.01], 1, t_end, replicas=100, seed=5)
            gamma = report.predicted_covs[0]
            expected = c * (1.0 - np.exp(-2.0 * h * t_end)) / (2.0 * h)
            assert abs(gamma.entries[0, 0] - expected) < 1e-8

    def test_matrix_closed_form(self):
        # G(t) = G_inf - exp(-Ht) G_inf exp(-Ht), with G_inf from the
        # Kronecker solve rather than from eigh.
        rng = np.random.default_rng(17)
        h = random_spd(rng, 4)
        q = random_spd(rng, 4)
        gamma_inf = lyapunov_kron_oracle(h, q)
        w, v = np.linalg.eigh(h)
        t_end = 1.3
        decay = v @ np.diag(np.exp(-w * t_end)) @ v.T
        expected = gamma_inf - decay @ gamma_inf @ decay
        report = clt_experiment(
            make_quadratic(h, np.zeros(4), q), [0.01], 1, t_end, replicas=100, seed=2
        )
        gamma = report.predicted_covs[0].entries
        assert np.linalg.norm(gamma - expected) <= 1e-12 * np.linalg.norm(expected)


class TestFluctuationTrajectory:
    def test_final_deviation_variance_matches_covariance_ode(self):
        # Rescaled SGD deviations from the flow should carry the covariance
        # the linearized diffusion predicts.
        h, c, lr, m = 1.0, 1.0, 0.01, 1
        model = quadratic([h], c)
        t_end = 2.0
        steps = int(round(t_end / lr))
        finals = sgd_replica_ensemble(
            model, [0.5], lr, m, steps=steps, replicas=2000, master_seed=99
        )
        reference = model.flow_solution(np.array([0.5]), t_end)
        v = np.sqrt(m / lr) * (finals[:, 0] - reference[0])
        expected = c * (1.0 - np.exp(-2.0 * h * t_end)) / (2.0 * h)
        assert abs(np.var(v, ddof=1) / expected - 1.0) < 0.10


class TestReplicaEnsemble:
    def test_block_partition_invariance(self):
        model = quadratic([1.0, 2.0], 0.3)
        kwargs = dict(
            theta0=[1.0, -1.0], learning_rate=0.05, batch_size=2,
            steps=333, replicas=17, master_seed=5,
        )
        finals = sgd_replica_ensemble(model, **kwargs)
        seeds = np.random.SeedSequence(5).spawn(17)
        run = _advance_rows(model, np.array([1.0, -1.0]), [0.05] * 17, [2] * 17, seeds, 333,
                            record_stride=333, block=7)
        np.testing.assert_array_equal(finals, run.finals)

    def test_requires_synthesized_quadratic(self):
        with pytest.raises(EngineError, match="quadratic"):
            sgd_replica_ensemble(small_logistic(), np.zeros(4), 0.01, 1, 10, 4, 0)

    def test_scalar_stationary_variance(self):
        lr, m, h, c = 0.05, 5, 1.0, 0.2
        model = quadratic([h], c)
        finals = sgd_replica_ensemble(
            model, [0.0], lr, m, steps=1500, replicas=4000, master_seed=12
        )
        target = discrete_stationary_variance(lr, m, h, c)
        assert abs(np.var(finals[:, 0], ddof=1) / target - 1.0) < 0.08

    def test_coupled_stationary_covariance_matches_kron_oracle(self):
        h = np.array([[1.0, 0.3], [0.3, 0.7]])
        c = np.array([[0.5, 0.1], [0.1, 0.4]])
        lr, m = 0.05, 2
        model = make_quadratic(hessian=h, minimizer=np.zeros(2), noise_cov=c)
        finals = sgd_replica_ensemble(
            model, [0.0, 0.0], lr, m, steps=1500, replicas=4000, master_seed=21
        )
        sample_cov = np.cov(finals, rowvar=False, ddof=1)
        a = np.eye(2) - lr * h
        expected = discrete_lyapunov_oracle(a, (lr**2 / m) * c)
        err = np.linalg.norm(sample_cov - expected) / np.linalg.norm(expected)
        assert err < 0.10

    def test_divergent_settings_rejected(self):
        model = quadratic([1.0], 0.1)
        with pytest.raises(EngineError, match="diverged"):
            sgd_replica_ensemble(model, [1.0], 3.0, 1, steps=500, replicas=3, master_seed=0)


class TestSnapshotPolicy:
    def test_budget_downgrade_warns(self, monkeypatch):
        monkeypatch.setattr(engine, "SNAPSHOT_BUDGET", 10)
        model = quadratic([1.0, 2.0], 0.0)
        cfg = SgdConfig(0.1, 1, 20, 0)
        with pytest.warns(UserWarning, match="budget"):
            traj = sgd_run(model, [1.0, 1.0], cfg, snapshots=True)
        assert traj.thetas is None

    def test_within_budget_keeps_snapshots(self):
        model = quadratic([1.0, 2.0], 0.0)
        cfg = SgdConfig(0.1, 1, 20, 0)
        traj = sgd_run(model, [1.0, 1.0], cfg, snapshots=True)
        assert traj.thetas.shape == (21, 2)


class TestTrajectoryCsv:
    def test_trajectory_round_trip_floats(self, tmp_path):
        model = quadratic([1.0], 0.1)
        traj = sgd_run(model, [1.0], SgdConfig(0.1, 2, 10, 0), record_stride=2)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,t,loss,grad_norm_sq"
        assert len(lines) == len(traj.steps) + 1
        cells = lines[1].split(",")
        assert int(cells[0]) == traj.steps[0]
        assert float(cells[2]) == traj.losses[0]

    def test_snapshots_csv(self, tmp_path):
        model = quadratic([1.0, 2.0], 0.0)
        traj = sgd_run(model, [1.0, -1.0], SgdConfig(0.1, 1, 4, 0), snapshots=True)
        path = tmp_path / "snaps.csv"
        write_snapshots_csv(path, traj)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,theta_0,theta_1"
        assert len(lines) == 6
        row = lines[-1].split(",")
        assert float(row[1]) == traj.thetas[-1, 0]

    def test_snapshots_csv_requires_snapshots(self, tmp_path):
        model = quadratic([1.0], 0.0)
        traj = sgd_run(model, [1.0], SgdConfig(0.1, 1, 4, 0))
        with pytest.raises(EngineError, match="no snapshots"):
            write_snapshots_csv(tmp_path / "x.csv", traj)


def dense_quadratic(dim, seed):
    rng = np.random.default_rng(seed)
    return make_quadratic(
        hessian=random_spd(rng, dim), minimizer=rng.standard_normal(dim),
        noise_cov=random_spd(rng, dim),
    )


class Broken(Exception):
    """A failed draw; defined at module level, so it pickles."""


class BrokenGenerator(np.random.Generator):
    def standard_normal(self, *args, **kwargs):
        raise Broken("no draws")


def spy_on_fork(monkeypatch) -> list:
    """The pids ``os.fork`` returns to this process from now on."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def in_order_matmul(x, a):
    # x @ a with each sum x_k a_kj accumulated strictly in index order.
    return np.add.accumulate(x[..., :, None] * a, axis=-2)[..., -1, :]


def reference_row(model, theta0, lr, m, seed, steps, stride):
    """One lockstep row as a plain loop over steps.

    Returns the records (step, loss, ||grad||^2, theta) up to the step the
    guard stopped the row at, the last state, and that step (None if the
    row reached the horizon).
    """
    lam, vec = model.hessian_eig.eigenvalues, model.hessian_eig.eigenvectors
    center = model.minimizer
    gen = np.random.default_rng(seed)
    noise = in_order_matmul(gen.standard_normal((steps, lam.size)), model.eigen_noise_factor)
    noise *= lr / np.sqrt(m)
    decay = 1.0 - lr * lam
    z = in_order_matmul(theta0 - center, vec)
    records = []
    for k in range(steps + 1):
        if k > 0:
            z = z * decay - noise[k - 1]
        theta = in_order_matmul(z, vec.T) + center
        if not (theta * theta).sum() <= engine.DIVERGENCE_NORM_SQ:
            return records, theta, k
        if k % stride == 0 or k == steps:
            weighted = z * lam
            records.append((k, 0.5 * (z * weighted).sum(), (weighted * weighted).sum(), theta))
    return records, theta, None


class TestLockstepCore:
    @pytest.mark.parametrize("shape, kind", [
        pytest.param((1, 512, 64), "dense", id="shape0"),
        pytest.param((64, 512, 2), "dense", id="shape1"),
        pytest.param((4, 33, 9), "dense", id="shape2"),
        # The noise factor of a dense quadratic, in the plane order.
        pytest.param((1, 512, 64), "upper triangular", id="upper-triangular"),
        pytest.param((4, 33, 9), "zero row", id="zero-row"),
        pytest.param((4, 33, 9), "permutation", id="permutation"),
    ])
    def test_rowwise_product_on_noise_tiles(self, shape, kind):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(shape)
        p = shape[-1]
        a = rng.standard_normal((p, p))
        if kind == "upper triangular":
            a = np.linalg.qr(a, mode="r")
        elif kind == "zero row":
            a[3] = 0.0
        elif kind == "permutation":
            a = np.eye(p)[rng.permutation(p)]
        full = _rowwise_matmul(x, a)
        np.testing.assert_array_equal(full, in_order_matmul(x, a))
        for i in range(shape[0]):
            np.testing.assert_array_equal(_rowwise_matmul(x[i], a), full[i])

    @pytest.mark.parametrize("shape", [(3, 5, 2), (64, 512, 2), (42, 512, 3)])
    def test_rowwise_product_into_out_equals_the_allocating_one(self, shape):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(shape)
        a = rng.standard_normal((shape[-1], shape[-1]))
        out = np.full(shape, np.nan)
        assert _rowwise_matmul(x, a, out=out) is out
        np.testing.assert_array_equal(out, _rowwise_matmul(x, a))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_rows_match_a_plain_loop_across_tiles_and_blocks(self, dim):
        # 150 rows, 700 steps, default block: at p = 2 the first block runs in
        # tiles of 64, 64 and 22 rows and the 188-step second block in one tile
        # of 150; at p = 3 in 42, 42, 42 and 24, then 116 and 34.  The run is
        # too small to split its rows (see the test below).
        model = dense_quadratic(dim, 7)
        top = model.hessian_eig.eigenvalues[-1]
        theta0 = model.minimizer + 0.5
        rows, steps, stride, tripping = 150, 700, 7, 70
        lrs = np.linspace(0.02, 1.0, rows) / top
        # Row 70 grows by a factor 1.25 per step and trips the guard in the
        # first block; its slot is filled with zeros in the second.
        lrs[tripping] = 2.25 / top
        ms = [1 + r % 5 for r in range(rows)]
        seeds = [300 + r for r in range(rows)]
        run = _advance_rows(model, theta0, lrs, ms, seeds, steps, record_stride=stride,
                            snapshots=True)
        assert list(run.failures) == [tripping]
        for r in range(rows):
            records, final, stop = reference_row(model, theta0, lrs[r], ms[r], seeds[r], steps,
                                                 stride)
            self.assert_row_matches(run.trajectory(r), records)
            if r == tripping:
                assert stop is not None and stop < NOISE_BLOCK
                assert run.failures[r].step == stop
                self.assert_row_matches(run.failures[r].trajectory, records)
                # Its states are zero from the stop on, so it ends at the centre.
                np.testing.assert_array_equal(run.finals[r], model.minimizer)
            else:
                assert stop is None
                np.testing.assert_array_equal(run.finals[r], final)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_rows_do_not_depend_on_the_row_split(self, dim, monkeypatch):
        # Split, rows 75-149 run in the forked child.  Row 130 trips the guard
        # in the first block there, and its failure comes back with the
        # child's buffer.
        model = dense_quadratic(dim, 7)
        top = model.hessian_eig.eigenvalues[-1]
        theta0 = model.minimizer + 0.5
        rows, steps, tripping = 150, 700, 130
        lrs = np.linspace(0.02, 1.0, rows) / top
        lrs[tripping] = 2.25 / top
        ms = [1 + r % 5 for r in range(rows)]
        seeds = [900 + r for r in range(rows)]
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        forks = spy_on_fork(monkeypatch)
        runs = []
        for entries in (rows * steps * dim + 1, rows * steps * dim):  # one process, then split
            monkeypatch.setattr(engine, "_SPLIT_ENTRIES", entries)
            runs.append(_advance_rows(model, theta0, lrs, ms, seeds, steps, record_stride=7,
                                      snapshots=True))
        assert len(forks) == 1
        one, two = (vars(run) for run in runs)
        assert one.keys() == two.keys()
        for name in one:
            if name == "failures":
                assert list(one[name]) == list(two[name]) == [tripping]
                a, b = one[name][tripping], two[name][tripping]
                assert a.step == b.step < NOISE_BLOCK and a.detail == b.detail
                for column in ("steps", "times", "losses", "grad_norms_sq", "thetas"):
                    np.testing.assert_array_equal(getattr(a.trajectory, column),
                                                  getattr(b.trajectory, column))
            else:
                np.testing.assert_array_equal(one[name], two[name])

    @pytest.mark.parametrize("failing", [10, 140])
    def test_a_lane_error_propagates_and_no_thread_outlives_the_call(self, failing, monkeypatch):
        # The two lanes are the caller's half (row 10) and the forked child's
        # (row 140).  The error propagates, no thread is left and the child
        # is reaped.
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(engine, "_SPLIT_ENTRIES", 1)
        forks = spy_on_fork(monkeypatch)
        model = dense_quadratic(2, 7)
        seeds = [400 + r for r in range(150)]
        # default_rng hands a Generator back unchanged.
        seeds[failing] = BrokenGenerator(np.random.PCG64(failing))
        threads = threading.active_count()
        with pytest.raises(Broken, match="no draws"):
            _advance_rows(model, model.minimizer, np.full(150, 0.1), np.ones(150, int), seeds, 700)
        assert threading.active_count() == threads
        (pid,) = forks
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    @pytest.mark.parametrize("ending", ["unpicklable", "exit"])
    def test_a_child_that_cannot_send_its_error_gives_an_engine_error(self, ending, monkeypatch):
        class Local(Exception):
            pass

        class Failing(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                if ending == "exit":
                    os._exit(3)
                raise Local("no draws")

        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(engine, "_SPLIT_ENTRIES", 1)
        forks = spy_on_fork(monkeypatch)
        model = dense_quadratic(2, 7)
        seeds = [400 + r for r in range(8)]
        seeds[6] = Failing(np.random.PCG64(6))
        message = "ended with status 3" if ending == "exit" else "raised unpicklable Local"
        with pytest.raises(EngineError, match=message):
            _advance_rows(model, model.minimizer, np.full(8, 0.1), np.ones(8, int), seeds, 50)
        (pid,) = forks
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    @pytest.mark.parametrize("host", ["one_cpu", "no_fork"])
    def test_a_run_without_two_cpus_or_fork_does_not_split(self, host, monkeypatch):
        model = dense_quadratic(2, 7)
        args = (model, model.minimizer + 0.5, np.full(6, 0.1), np.ones(6, int), list(range(6)), 50)
        whole = _advance_rows(*args)
        monkeypatch.setattr(engine, "_SPLIT_ENTRIES", 1)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 1 if host == "one_cpu" else 2)
        forks = spy_on_fork(monkeypatch)
        if host == "no_fork":
            monkeypatch.delattr(os, "fork")
        run = _advance_rows(*args)
        assert forks == []
        np.testing.assert_array_equal(run.finals, whole.finals)

    @pytest.mark.parametrize("dim", [3, 20])
    @pytest.mark.parametrize("stride", [1, 7])
    def test_rows_match_a_plain_loop_bitwise(self, dim, stride):
        model = dense_quadratic(dim, 3)
        top = model.hessian_eig.eigenvalues[-1]
        theta0 = model.minimizer + 0.5
        # Row 3 grows by a factor 1.25 per step and trips the guard mid-block.
        lrs = np.array([0.1, 0.5, 1.0, 2.25, 0.05, 1.5]) / top
        ms, seeds, steps = [1, 4, 2, 1, 8, 3], [21, 22, 23, 24, 25, 26], 700
        refs = [reference_row(model, theta0, lrs[r], ms[r], seeds[r], steps, stride)
                for r in range(6)]
        assert [stop is None for _, _, stop in refs] == [True, True, True, False, True, True]
        stop = refs[3][2]
        for block, snapshots in ((13, False), (13, True), (512, False), (512, True)):
            assert stop % block != 0
            run = _advance_rows(model, theta0, lrs, ms, seeds, steps, record_stride=stride,
                                snapshots=snapshots, block=block)
            assert list(run.failures) == [3] and run.failures[3].step == stop
            for r, (records, final, _) in enumerate(refs):
                traj = run.trajectory(r)
                np.testing.assert_array_equal(traj.steps, [k for k, _, _, _ in records])
                np.testing.assert_array_equal(traj.losses, [v for _, v, _, _ in records])
                np.testing.assert_array_equal(traj.grad_norms_sq, [g for _, _, g, _ in records])
                if snapshots:
                    np.testing.assert_array_equal(traj.thetas, [t for _, _, _, t in records])
                else:
                    assert traj.thetas is None
                if r != 3:
                    np.testing.assert_array_equal(run.finals[r], final)
            np.testing.assert_array_equal(run.failures[3].trajectory.losses,
                                          [v for _, v, _, _ in refs[3][0]])

    @pytest.mark.parametrize("model_kind", ["diagonal", "saddle"])
    @pytest.mark.parametrize("stride", [1, 7, 9])
    def test_rows_on_maps_with_exact_zeros_match_a_plain_loop_bitwise(self, model_kind, stride):
        # A diagonal H and C, as the benchmark scan has, and the saddle
        # diag(1, -1), whose eigenbasis is a permutation: their bases and
        # noise maps hold exact zeros, which the column-order products skip.
        # 700 % 9 != 0, so at stride 9 the last record is off the grid.
        if model_kind == "diagonal":
            model = make_quadratic(np.diag([0.5, 1.0, 1.5, 2.0, 2.5]), np.linspace(-1.0, 1.0, 5),
                                   np.diag([0.2, 0.1, 0.3, 0.2, 0.4]))
            # Row 3 grows by a factor 1.25 per step along the top mode.
            lrs = np.array([0.01, 0.1, 0.5, 0.9, 0.3, 0.04])
        else:
            model = QuadraticModel(SymMatrix(np.diag([1.0, -1.0])), np.zeros(2), SymMatrix(np.eye(2)),
                                   require_positive_definite=False)
            # Every row grows along the unstable mode; row 3 by a factor 2 per step.
            lrs = np.array([0.01, 0.02, 0.03, 1.0, 0.005, 0.025])
        vec = model.hessian_eig.eigenvectors
        assert (vec == 0).any() and (model.eigen_noise_factor == 0).any()
        theta0 = model.minimizer + 0.5
        ms, seeds, steps = [1, 4, 2, 1, 8, 3], [61, 62, 63, 64, 65, 66], 700
        refs = [reference_row(model, theta0, lrs[r], ms[r], seeds[r], steps, stride)
                for r in range(6)]
        assert [stop is None for _, _, stop in refs] == [True, True, True, False, True, True]
        stop = refs[3][2]
        for block, snapshots in ((13, False), (13, True), (512, False), (512, True)):
            assert stop % block != 0
            run = _advance_rows(model, theta0, lrs, ms, seeds, steps, record_stride=stride,
                                snapshots=snapshots, block=block)
            assert list(run.failures) == [3] and run.failures[3].step == stop
            for r, (records, final, _) in enumerate(refs):
                traj = run.trajectory(r)
                assert traj.steps[-1] == (steps if r != 3 else records[-1][0])
                self.assert_row_matches(traj, records)
                assert (traj.thetas is None) == (not snapshots)
                if r != 3:
                    np.testing.assert_array_equal(run.finals[r], final)
            self.assert_row_matches(run.failures[3].trajectory, refs[3][0])

    @pytest.mark.parametrize("order", ["row", "plane", "column"])
    def test_rowwise_product_on_maps_with_exact_zeros(self, order):
        rng = np.random.default_rng(12)
        p = 5
        dense = rng.standard_normal((p, p))
        zero_column = dense.copy()
        zero_column[:, 2] = 0.0
        negative_zeros = np.where(rng.random((p, p)) < 0.4, -0.0, dense)
        maps = {
            "diagonal": np.diag(rng.standard_normal(p)),
            "permutation": np.eye(p)[rng.permutation(p)],
            "negative permutation": -np.eye(p)[::-1],
            "upper triangular": np.triu(dense),
            "zero column": zero_column,
            "-0.0 entries": negative_zeros,
            "-0.0 off the diagonal": np.where(np.eye(p) == 1, dense, -0.0),
        }
        shape = {"row": (1, 3, p), "plane": (4, 3, p), "column": (64, 512, p)}[order]
        # The row order serves fewer vectors than the map has columns, the
        # plane order up to 128 vectors per column.
        vectors = np.prod(shape[:-1])
        assert order == ("row" if vectors < p else "plane" if vectors <= 128 * p else "column")
        x = rng.standard_normal(shape)
        x[0, 0] = 0.0
        for name, a in maps.items():
            np.testing.assert_array_equal(_rowwise_matmul(x, a), in_order_matmul(x, a), err_msg=name)

    @pytest.mark.parametrize("p", range(1, 8))
    def test_record_sums_are_numpys_sums_bit_for_bit(self, p):
        # Below 8 terms the records add coordinates one by one, in the order
        # .sum(axis=-1) adds them; this fails if numpy changes that order.
        rng = np.random.default_rng(p)
        lam = rng.standard_normal(p) * 10.0 ** rng.integers(-3, 4, p)
        lam[0] = -abs(lam[0])  # at p = 1 a zero state's loss is a lone -0.0 term
        for records, rows in ((1, 1), (26, 1), (512, 6), (3, 2000)):
            zs = rng.standard_normal((records, rows, p)) * 10.0 ** rng.integers(-8, 9, (records, rows, p))
            zs[:, ::5] = 0.0  # exact zeros: a negative lam gives -0.0 terms
            weighted = zs * lam
            losses = 0.5 * (zs * weighted).sum(axis=-1)
            grads = (weighted * weighted).sum(axis=-1)
            rec = engine._Rows(np.ones(rows), records - 1, 1, p, False)
            engine._put_records(rec, 0, zs, lam, np.eye(p), np.zeros(p))
            assert rec.losses.tobytes() == losses.tobytes()
            assert rec.grad_norms_sq.tobytes() == grads.tobytes()

    def assert_row_matches(self, traj, records):
        np.testing.assert_array_equal(traj.steps, [k for k, _, _, _ in records])
        np.testing.assert_array_equal(traj.losses, [v for _, v, _, _ in records])
        np.testing.assert_array_equal(traj.grad_norms_sq, [g for _, _, g, _ in records])
        if traj.thetas is not None:
            np.testing.assert_array_equal(traj.thetas, [t for _, _, _, t in records])

    def test_overflowing_row_stops_silently_and_leaves_the_others_alone(self):
        model = dense_quadratic(3, 3)
        top = model.hessian_eig.eigenvalues[-1]
        theta0 = model.minimizer + 0.5
        # Row 1 has |decay| about 1e6 along the top mode: it passes the
        # guard within a few steps and overflows to inf before its block ends.
        lrs = np.array([0.1, 1e6, 0.5]) / top
        ms, seeds, steps = [1, 2, 4], [31, 32, 33], 700
        records, _, stop = reference_row(model, theta0, lrs[1], ms[1], seeds[1], steps, 1)
        assert stop is not None and stop < 20
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = _advance_rows(model, theta0, lrs, ms, seeds, steps, snapshots=True)
        assert list(run.failures) == [1] and run.failures[1].step == stop
        self.assert_row_matches(run.trajectory(1), records)
        self.assert_row_matches(run.failures[1].trajectory, records)
        for r in (0, 2):
            alone = _advance_rows(model, theta0, [lrs[r]], [ms[r]], [seeds[r]], steps,
                                  snapshots=True)
            a, b = run.trajectory(r), alone.trajectory(0)
            for column in ("steps", "losses", "grad_norms_sq", "thetas"):
                np.testing.assert_array_equal(getattr(a, column), getattr(b, column))
            np.testing.assert_array_equal(run.finals[r], alone.finals[0])

    @pytest.mark.parametrize("block", [13, 512])
    def test_tripping_row_stops_alike_alone_and_with_others(self, block):
        model = dense_quadratic(4, 6)
        top = model.hessian_eig.eigenvalues[-1]
        theta0 = model.minimizer + 0.3
        # Row 2 grows by a factor 1.2 per step along the top mode.
        lrs, ms, seeds = np.array([0.2, 1.0, 2.2, 0.05]) / top, [2, 1, 1, 5], [41, 42, 43, 44]
        together = _advance_rows(model, theta0, lrs, ms, seeds, 900, record_stride=5,
                                 snapshots=True, block=block)
        alone = _advance_rows(model, theta0, lrs[2:3], ms[2:3], seeds[2:3], 900,
                              record_stride=5, snapshots=True, block=block)
        assert list(together.failures) == [2] and list(alone.failures) == [0]
        assert together.failures[2].step == alone.failures[0].step
        a, b = together.trajectory(2), alone.trajectory(0)
        assert 0 < len(a.steps) < 181
        for column in ("steps", "losses", "grad_norms_sq", "thetas"):
            np.testing.assert_array_equal(getattr(a, column), getattr(b, column))
            np.testing.assert_array_equal(getattr(together.failures[2].trajectory, column),
                                          getattr(b, column))

    @pytest.mark.parametrize("block", [13, 512])
    def test_saddle_rows_match_a_plain_loop_bitwise(self, block):
        rng = np.random.default_rng(9)
        hessian = random_symmetric(rng, 3)
        model = QuadraticModel(SymMatrix(hessian), rng.standard_normal(3),
                               SymMatrix(random_spd(rng, 3)), require_positive_definite=False)
        lam = model.hessian_eig.eigenvalues
        assert lam[0] < 0 < lam[-1]
        theta0 = model.minimizer + 0.2
        lrs, ms, seeds, steps = [0.02, 0.3, 1.0], [1, 3, 2], [51, 52, 53], 700
        refs = [reference_row(model, theta0, lrs[r], ms[r], seeds[r], steps, 3)
                for r in range(3)]
        stops = [stop for _, _, stop in refs]
        assert stops[0] is None and stops[1] is not None and stops[2] is not None
        run = _advance_rows(model, theta0, lrs, ms, seeds, steps, record_stride=3,
                            snapshots=True, block=block)
        assert sorted(run.failures) == [1, 2]
        for r, (records, final, stop) in enumerate(refs):
            self.assert_row_matches(run.trajectory(r), records)
            if stop is None:
                np.testing.assert_array_equal(run.finals[r], final)
            else:
                assert run.failures[r].step == stop

    def test_rowwise_product_matches_blas_and_ignores_other_rows(self):
        rng = np.random.default_rng(3)
        for p, rows in ((2, 40), (9, 3), (17, 17), (64, 1)):
            a = rng.standard_normal((p, p))
            x = rng.standard_normal((rows, p))
            full = _rowwise_matmul(x, a)
            np.testing.assert_allclose(full, x @ a, rtol=1e-12, atol=1e-12)
            for r in range(rows):
                np.testing.assert_array_equal(_rowwise_matmul(x[r : r + 1], a), full[r : r + 1])

    def test_row_is_independent_of_other_rows_and_block_size(self):
        # p = 9 is where BLAS kernels already change the last bits of a row
        # with the row count; the core's rows must not.
        model = dense_quadratic(9, 1)
        theta0 = model.minimizer + 0.1
        lrs, ms, seeds = [0.02, 0.05, 0.01], [3, 1, 8], [11, 12, 13]
        together = _advance_rows(model, theta0, lrs, ms, seeds, 700, record_stride=7, snapshots=True)
        for r in range(3):
            alone = _advance_rows(model, theta0, [lrs[r]], [ms[r]], [seeds[r]], 700,
                                  record_stride=7, snapshots=True, block=13)
            a, b = together.trajectory(r), alone.trajectory(0)
            np.testing.assert_array_equal(a.steps, b.steps)
            np.testing.assert_array_equal(a.losses, b.losses)
            np.testing.assert_array_equal(a.grad_norms_sq, b.grad_norms_sq)
            np.testing.assert_array_equal(a.thetas, b.thetas)
            np.testing.assert_array_equal(together.finals[r], alone.finals[0])

    def test_tripped_row_stops_and_others_go_on(self):
        model = quadratic([1.0, 2.0], 0.2)
        run = _advance_rows(model, np.zeros(2), [0.05, 1.5, 0.05], [1, 1, 2], [1, 2, 3], 400,
                            record_stride=10)
        assert list(run.failures) == [1]
        err = run.failures[1]
        assert 0 < err.step < 400
        assert run.trajectory(1).steps[-1] < err.step
        np.testing.assert_array_equal(err.trajectory.losses, run.trajectory(1).losses)
        assert run.trajectory(0).steps[-1] == run.trajectory(2).steps[-1] == 400
        with pytest.raises(DivergenceError) as info:
            run.raise_first_divergence()
        assert info.value is err

    def test_records_match_the_model_on_a_dense_quadratic(self):
        model = dense_quadratic(6, 2)
        cfg = SgdConfig(0.05, 4, 300, seed=8)
        traj = sgd_run(model, model.minimizer + 1.0, cfg, record_stride=30, snapshots=True)
        losses = [model.loss(t) for t in traj.thetas]
        grads = [model.full_grad(t) @ model.full_grad(t) for t in traj.thetas]
        np.testing.assert_allclose(traj.losses, losses, rtol=1e-9)
        np.testing.assert_allclose(traj.grad_norms_sq, grads, rtol=1e-9)

    def test_gaussian_run_is_the_plain_run_on_quadratics(self):
        model = dense_quadratic(4, 5)
        cfg = SgdConfig(0.05, 3, 1200, seed=21)
        plain = sgd_run(model, np.zeros(4), cfg, record_stride=10, snapshots=True)
        gauss = gaussian_sgd_run(model, np.zeros(4), cfg, record_stride=10, snapshots=True)
        np.testing.assert_array_equal(plain.thetas, gauss.thetas)
        np.testing.assert_array_equal(plain.losses, gauss.losses)

    def test_ensemble_is_the_core_final_state(self):
        model = quadratic([1.0, 2.0], 0.3)
        finals = sgd_replica_ensemble(model, [1.0, -1.0], 0.05, 2, 333, 5, master_seed=5)
        seeds = np.random.SeedSequence(5).spawn(5)
        run = _advance_rows(model, np.array([1.0, -1.0]), [0.05] * 5, [2] * 5, seeds, 333,
                            record_stride=333)
        np.testing.assert_array_equal(finals, run.finals)

    def test_ensemble_divergence_names_the_step(self):
        model = quadratic([1.0], 0.1)
        with pytest.raises(EngineError, match=r"diverged: replica \d+, divergence at step \d+"):
            sgd_replica_ensemble(model, [1.0], 3.0, 1, steps=500, replicas=3, master_seed=0)


def plain_step_loop(model, theta0, steps, stride, step):
    """(step, loss, ||grad||^2, theta) records of ``theta <- step(theta)`` from ``theta0``."""
    theta, records = theta0, []
    for k in range(steps + 1):
        if k > 0:
            theta = step(theta)
        if k % stride == 0 or k == steps:
            grad = model.full_grad(theta)
            records.append((k, model.loss(theta), grad @ grad, theta))
    return records


def assert_same_rows(a, b):
    """Two ``_Rows`` buffers agree bitwise, field by field, failures included;
    every entry of every column, unreached records and stopped rows' finals too."""
    one, two = vars(a), vars(b)
    assert one.keys() == two.keys()
    for name in one:
        if name == "failures":
            assert list(one[name]) == list(two[name])
            for r, err in one[name].items():
                other = two[name][r]
                assert err.step == other.step and err.detail == other.detail
                for column in ("steps", "times", "losses", "grad_norms_sq", "thetas"):
                    np.testing.assert_array_equal(getattr(err.trajectory, column),
                                                  getattr(other.trajectory, column))
        else:
            np.testing.assert_array_equal(one[name], two[name])


class TestFiniteDataRows:
    def assert_row_matches(self, traj, records):
        np.testing.assert_array_equal(traj.steps, [k for k, _, _, _ in records])
        np.testing.assert_array_equal(traj.losses, [v for _, v, _, _ in records])
        np.testing.assert_array_equal(traj.grad_norms_sq, [g for _, _, g, _ in records])
        np.testing.assert_array_equal(traj.thetas, [t for _, _, _, t in records])

    @pytest.mark.parametrize("make_model", [small_logistic, small_mlp])
    @pytest.mark.parametrize("sampling", ["with_replacement", "without_replacement"])
    @pytest.mark.parametrize("stride", [1, 7])
    def test_rows_match_a_plain_loop_bitwise(self, make_model, sampling, stride):
        model = make_model()
        n = model.example_count
        theta0 = np.full(model.param_dim, 0.2)
        lrs, ms, seeds, steps = [0.1, 0.3], [4, 8], [41, 42], 60
        run = _advance_rows(model, theta0, lrs, ms, seeds, steps, record_stride=stride,
                            snapshots=True, sampling=sampling)
        assert not run.failures
        for r in range(2):
            rng = np.random.default_rng(seeds[r])

            def step(theta, lr=lrs[r], m=ms[r]):
                if sampling == "with_replacement":
                    idx = rng.integers(0, n, size=m)
                else:
                    idx = rng.choice(n, size=m, replace=False)
                return theta - lr * model.batch_grad(theta, idx)

            records = plain_step_loop(model, theta0, steps, stride, step)
            self.assert_row_matches(run.trajectory(r), records)
            np.testing.assert_array_equal(run.finals[r], records[-1][3])

    @pytest.mark.parametrize("make_model, tripping_lr", [(small_logistic, 2500.0), (small_mlp, 1e8)])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_rows_do_not_depend_on_the_row_split(self, make_model, tripping_lr, cpus, monkeypatch):
        # Split, rows 2-4 (two CPUs) or 1-2 and 3-4 (three) run in forked
        # children.  Row 4 trips the guard there, and its failure comes back
        # with its child's buffer.
        model = make_model()
        theta0 = np.full(model.param_dim, 0.2)
        lrs, ms, seeds = [0.1, 0.3, 0.2, 0.05, tripping_lr], [4, 8, 2, 1, 4], [51, 52, 53, 54, 55]
        monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
        forks = spy_on_fork(monkeypatch)
        runs = []
        for workers, forked in ((1, 0), (None, cpus - 1)):  # one process, then one per CPU
            runs.append(_advance_rows(model, theta0, lrs, ms, seeds, 60, record_stride=7,
                                      snapshots=True, accuracy=True, workers=workers))
            assert len(forks) == forked
        assert list(runs[1].failures) == [4] and runs[1].failures[4].step > 1
        assert_same_rows(*runs)

    @pytest.mark.parametrize("make_model", [small_logistic, small_mlp])
    def test_accuracy_column_is_the_model_accuracy_at_the_records(self, make_model):
        model = make_model()
        args = (model, np.full(model.param_dim, 0.2), [0.1, 0.3], [4, 8], [41, 42], 60)
        assert _advance_rows(*args, record_stride=7).accuracies is None
        run = _advance_rows(*args, record_stride=7, snapshots=True, accuracy=True)
        for r in range(2):
            np.testing.assert_array_equal(run.accuracies[:, r],
                                          [model.accuracy(t) for t in run.trajectory(r).thetas])
