"""End-to-end acceptance checks at pinned tolerances.

Each test prints one "[criterion NN] PASS/FAIL ..." line (visible with
``pytest -s``) and asserts its stated numerical tolerance and time budget.
The heavy stationary runs are shared between the criteria that reuse them.
"""

import glob
import json
import os
import time

import numpy as np
import pytest

from sgdscope.cli import main
from sgdscope.engine import ou_eigenbasis_run
from sgdscope.estimators import (
    magnitude_difference,
    predict_excess_loss_w2019,
    predict_loss_j2018,
)
from sgdscope.experiments import (
    clt_experiment,
    linear_scaling_experiment,
    saddle_divergence_experiment,
    scan_bs_lr,
)
from sgdscope.linalg import SymMatrix, solve_lyapunov
from sgdscope.problems import generate_blobs, make_mlp, make_quadratic

from _oracles import lyapunov_kron_oracle, random_spd

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _report(number: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def _within(measured: float, target: float, rel: float) -> bool:
    return abs(measured - target) <= rel * abs(target)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# Shared stationary protocol: lr=0.01, m=10, 2e6 steps, 5 replicas on a
# five-mode quadratic.  One scan serves criteria 3 and 4 (noise != curvature)
# and a second serves criterion 5 (noise == curvature).
LR, BS, STEPS, REPLICAS = 0.01, 10, 2_000_000, 5
H_DIAG = np.array([0.5, 1.0, 1.5, 2.0, 2.5])


def _stationary_row(noise_diag):
    model = make_quadratic(np.diag(H_DIAG), np.zeros(5), np.diag(noise_diag))
    rows = scan_bs_lr(model, [(LR, BS)], run_length=STEPS, replicas=REPLICAS,
                      master_seed=171)
    return rows[0]


@pytest.fixture(scope="module")
def mismatched_noise_row():
    return _timed(lambda: _stationary_row(np.full(5, 0.2)))


@pytest.fixture(scope="module")
def matched_noise_row():
    return _timed(lambda: _stationary_row(H_DIAG))


class TestAcceptance:
    def test_01_lyapunov_matches_dense_oracle(self):
        def run():
            rng = np.random.default_rng(1001)
            worst_entry, worst_resid = 0.0, 0.0
            for _ in range(100):
                dim = int(rng.integers(2, 21))
                h = random_spd(rng, dim)
                q = random_spd(rng, dim)
                gamma = solve_lyapunov(SymMatrix(h), SymMatrix(q)).entries
                oracle = lyapunov_kron_oracle(h, q)
                worst_entry = max(worst_entry, float(np.abs(gamma - oracle).max()))
                resid = np.linalg.norm(gamma @ h + h @ gamma - q)
                worst_resid = max(worst_resid, resid / np.linalg.norm(q))
            return worst_entry, worst_resid

        (worst_entry, worst_resid), elapsed = _timed(run)
        ok = worst_entry <= 1e-9 and worst_resid < 1e-10 and elapsed < 10.0
        assert _report(1, ok, f"lyapunov solver vs dense oracle: max entry diff "
                              f"{worst_entry:.2e}, max rel residual {worst_resid:.2e}, "
                              f"{elapsed:.1f}s")

    def test_02_ou_stationary_moments(self):
        lam = (0.5, 1.0, 2.0)

        def run():
            return ou_eigenbasis_run(lam, learning_rate=0.01, batch_size=10,
                                     t_end=100_000.0, dt=0.1, seed=2002)

        traj, elapsed = _timed(run)
        keep = traj.steps >= traj.steps[-1] // 2
        variances = traj.thetas[keep].var(axis=0)
        mean_loss = float(traj.losses[keep].mean())
        target_var = 0.01 / (2 * 10)
        target_loss = 0.01 * sum(lam) / (4 * 10)
        ok = (all(_within(v, target_var, 0.05) for v in variances)
              and _within(mean_loss, target_loss, 0.05)
              and elapsed < 30.0)
        assert _report(2, ok, f"ou stationary law: variances "
                              f"{np.round(variances, 7).tolist()} vs {target_var}, "
                              f"mean loss {mean_loss:.3e} vs {target_loss:.3e}, "
                              f"{elapsed:.1f}s")

    def test_03_stationary_loss_tracks_noise_trace(self, mismatched_noise_row):
        row, elapsed = mismatched_noise_row
        target = LR * 1.0 / (4 * BS)
        ratio_exact = abs(row.pred_j2018 / row.pred_w2019_loss
                          - row.magnitude_difference) < 1e-12
        ok = (_within(row.measured_excess_loss, target, 0.10)
              and _within(row.magnitude_difference, 7.5, 1e-12)
              and ratio_exact
              and elapsed < 180.0)
        assert _report(3, ok, f"stationary excess loss {row.measured_excess_loss:.3e} "
                              f"vs noise-trace prediction {target:.3e}, curvature-trace "
                              f"prediction off by factor {row.magnitude_difference}, "
                              f"{elapsed:.0f}s")

    def test_04_stationary_gradient_norm(self, mismatched_noise_row):
        row, _ = mismatched_noise_row
        target = LR * row.tr_sigma2_h / (2 * BS)
        ok = _within(row.measured_grad_norm_sq, target, 0.10)
        assert _report(4, ok, f"stationary grad norm sq "
                              f"{row.measured_grad_norm_sq:.3e} vs "
                              f"prediction {target:.3e}")

    def test_05_coincident_predictions_when_noise_matches_curvature(self, matched_noise_row):
        row, elapsed = matched_noise_row
        target = LR * float(H_DIAG.sum()) / (4 * BS)
        bit_identical = all(
            predict_excess_loss_w2019(lr, m, tr) == predict_loss_j2018(lr, m, tr)
            for lr, m, tr in [(LR, BS, 7.5), (0.1, 400, 22_398_330.0), (1e-3, 7, 0.123)]
        )
        ok = (_within(row.measured_excess_loss, target, 0.10)
              and row.pred_j2018 == row.pred_w2019_loss
              and bit_identical
              and elapsed < 180.0)
        assert _report(5, ok, f"matched noise: excess loss "
                              f"{row.measured_excess_loss:.3e} vs coincident "
                              f"prediction {target:.3e}, predictors bit-identical: "
                              f"{bit_identical}, {elapsed:.0f}s")

    def test_06_deviation_covariance_convergence(self):
        hessian = np.array([[1.0, 0.3], [0.3, 0.7]])
        noise = np.array([[0.5, 0.1], [0.1, 0.4]])
        lam_min = float(np.linalg.eigvalsh(hessian).min())
        model = make_quadratic(hessian, np.zeros(2), noise)

        def run():
            return clt_experiment(model, [1e-2, 1e-3, 1e-4], batch_size=10,
                                  t_end=3.0 / lam_min, replicas=2000, seed=606)

        report, elapsed = _timed(run)
        ok = (report.frobenius_errors[-1] <= 0.10
              and report.monotone_ok
              and elapsed < 300.0)
        assert _report(6, ok, f"deviation covariance: frobenius errors "
                              f"{[round(e, 4) for e in report.frobenius_errors]} "
                              f"(allowance {report.noise_allowance:.3f}), "
                              f"monotone {report.monotone_ok}, {elapsed:.0f}s")

    def test_07_ratio_preserving_rescaling_stays_close(self):
        dataset = generate_blobs(example_count=512, feature_dim=10, class_count=3,
                                 seed=77)
        model = make_mlp(input_dim=10, hidden_dim=16, class_count=3,
                         dataset=dataset, seed=77)

        def run():
            return linear_scaling_experiment(
                model, base=(0.05, 32), factors=[1.0, 2.0, 4.0],
                off_ratio=[(0.05, 128), (0.2, 32)],
                run_length=12_000, seed=707)

        curves, elapsed = _timed(run)
        div = curves.class_divergence
        ok = (div["same_ratio"] < div["near_ratio"] < div["far_ratio"]
              and div["far_ratio"] >= 2.0 * div["same_ratio"]
              and elapsed < 300.0)
        assert _report(7, ok, f"rescaling classes: same {div['same_ratio']:.4f} < "
                              f"near {div['near_ratio']:.4f} < far "
                              f"{div['far_ratio']:.4f}, {elapsed:.0f}s")

    def test_08_saddle_escape_rate(self):
        def run():
            return saddle_divergence_experiment(
                SymMatrix(np.diag([1.0, -1.0])), SymMatrix(np.eye(2)),
                learning_rate=0.01, batch_size=1, steps=5000, replicas=20,
                seed=808)

        report, elapsed = _timed(run)
        expected = 0.01 * 1.0
        ok = (report.verdict == "DIVERGED"
              and abs(report.median_slope - expected) <= 0.30 * expected
              and elapsed < 30.0)
        assert _report(8, ok, f"saddle escape: verdict {report.verdict}, per-step "
                              f"log growth {report.median_slope:.5f} vs {expected}, "
                              f"{elapsed:.1f}s")

    def test_09_reported_ratio_rounding(self):
        a = magnitude_difference(22_398_330.0, 9_528_207.0)
        b = magnitude_difference(41_058_846.0, 3_486_877.0)
        ok = round(a, 1) == 2.4 and round(b, 1) == 11.8
        assert _report(9, ok, f"trace-ratio rounding: {a:.4f} -> {round(a, 1)}, "
                              f"{b:.4f} -> {round(b, 1)}")

    def test_10_bundled_configs_are_deterministic(self, tmp_path, monkeypatch):
        configs = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg")))
        assert len(configs) == 10

        def outputs_of(cfg_path, out_dir, workers):
            monkeypatch.setenv("SGDSCOPE_WORKERS", str(workers))
            code = main(["--config", cfg_path, "--out_dir", str(out_dir)])
            assert code == 0, f"{cfg_path} failed"
            found = {}
            for path in sorted(glob.glob(str(out_dir / "*"))):
                name = os.path.basename(path)
                if name.endswith(".csv") or name.endswith(".json"):
                    found[name] = open(path, "rb").read()
            assert found, f"{cfg_path} wrote no data files"
            return found

        mismatches = []
        for cfg_path in configs:
            name = os.path.basename(cfg_path)[:-4]
            first = outputs_of(cfg_path, tmp_path / name / "a", workers=1)
            rerun = outputs_of(cfg_path, tmp_path / name / "b", workers=1)
            wide = outputs_of(cfg_path, tmp_path / name / "c", workers=4)
            if not (first == rerun == wide):
                mismatches.append(name)
        ok = not mismatches
        assert _report(10, ok, f"bundled configs byte-identical across reruns and "
                               f"worker counts: {len(configs) - len(mismatches)}/"
                               f"{len(configs)}"
                               + (f" (mismatched: {mismatches})" if mismatches else ""))
