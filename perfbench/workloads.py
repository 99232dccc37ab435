"""The four benchmark workloads: inputs, the timed library calls, oracles.

Each workload has three parts:

* ``make_inputs(directory, seed)`` runs in the benchmark's parent process and
  writes the input files with numpy alone, so the inputs depend only on the
  seed and never on the code under test;
* ``setup(sc, inputs)`` turns the input files into a ready model (this is
  ``setup_s``) and ``run(sc, state, out)`` makes the experiment and writer
  calls; together they are ``wall_s``;
* ``check(sc, state, result)`` compares the outputs with oracles computed
  here, one ``(name, ok, detail)`` per checked output.

The oracles use exact finite-step stationary values, not small-``lr``
limits, and tolerances are a few standard errors of the measured means, so
a change to the random stream cannot fail them while a change to the
physics does.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def _write_matrix(path: Path, matrix: np.ndarray) -> None:
    lines = [f"# dim={matrix.shape[0]}"]
    lines += [",".join(repr(float(x)) for x in row) for row in matrix]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _params(inputs: Path) -> dict:
    return json.loads((inputs / "params.json").read_text(encoding="utf-8"))


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, np.uint32)]


def _rel(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(b))


def _close(name: str, measured: float, expected: float, rel_tol: float):
    err = abs(measured - expected) / abs(expected)
    return (name, bool(err <= rel_tol),
            f"{measured:.6e} vs {expected:.6e} (rel err {err:.2e}, tol {rel_tol:.2e})")


class QuadScan:
    name = "quad-scan"
    setup_reps = 7
    h_diag = [0.5, 1.0, 1.5, 2.0, 2.5]
    noise = 0.2
    grid = [(0.01, 10), (0.02, 10), (0.04, 10)]
    run_length = 10_000
    replicas = 2
    saddle = {"lr": 0.01, "batch_size": 1, "steps": 5000, "replicas": 10}

    def make_inputs(self, directory: Path, seed: int) -> None:
        scan_seed, saddle_seed = _seeds(seed, 2)
        _write_matrix(directory / "hessian.csv", np.diag(self.h_diag))
        _write_matrix(directory / "noise.csv", self.noise * np.eye(len(self.h_diag)))
        _write_matrix(directory / "saddle_hessian.csv", np.diag([1.0, -1.0]))
        _write_matrix(directory / "saddle_noise.csv", np.eye(2))
        _write_json(directory / "params.json", {
            "grid": self.grid, "run_length": self.run_length, "replicas": self.replicas,
            "master_seed": scan_seed, "saddle": {**self.saddle, "seed": saddle_seed},
        })

    def setup(self, sc, inputs: Path):
        hessian = sc.read_matrix_csv(inputs / "hessian.csv")
        model = sc.make_quadratic(hessian, np.zeros(hessian.dim),
                                  sc.read_matrix_csv(inputs / "noise.csv"))
        saddle_h = sc.read_matrix_csv(inputs / "saddle_hessian.csv")
        saddle_c = sc.read_matrix_csv(inputs / "saddle_noise.csv")
        return model, saddle_h, saddle_c, _params(inputs)

    def run(self, sc, state, out: Path):
        model, saddle_h, saddle_c, p = state
        rows = sc.scan_bs_lr(model, p["grid"], run_length=p["run_length"],
                             replicas=p["replicas"], master_seed=p["master_seed"], workers=1)
        sc.write_scan_csv(out / "scan.csv", rows)
        s = p["saddle"]
        report = sc.saddle_divergence_experiment(
            saddle_h, saddle_c, s["lr"], s["batch_size"], s["steps"], s["replicas"], s["seed"])
        _write_json(out / "saddle.json", report.as_dict())
        return rows, report

    def check(self, sc, state, result):
        _, saddle_h, _, p = state
        rows, report = result
        lam = np.array(self.h_diag)
        c = np.full(lam.size, self.noise)
        checks = []
        for row in rows:
            lr, m = row.learning_rate, row.batch_size
            # Exact stationary covariance of theta <- theta - lr (H theta + noise)
            # for diagonal H and C (Stein equation): lr c / (m lam (2 - lr lam)).
            gamma = lr * c / (m * lam * (2.0 - lr * lam))
            loss_terms = 0.5 * lam * gamma
            grad_terms = lam * lam * gamma
            # Standard error of the post-burn-in means: each mode is an AR(1)
            # whose square has integrated autocorrelation (1 + r^2)/(1 - r^2).
            rho2 = (1.0 - lr * lam) ** 2
            tau = (1.0 + rho2) / (1.0 - rho2)
            samples = p["replicas"] * p["run_length"] / 2.0
            for label, terms, measured in (
                ("excess_loss", loss_terms, row.measured_excess_loss),
                ("grad_norm_sq", grad_terms, row.measured_grad_norm_sq),
            ):
                stderr = math.sqrt(float((2.0 * terms**2 * tau).sum()) / samples)
                checks.append(_close(f"{label}@lr={lr:g}", measured, float(terms.sum()),
                                     5.0 * stderr / float(terms.sum())))
        checks.append(("saddle_verdict", report.verdict == "DIVERGED", report.verdict))
        lam_neg = float(np.linalg.eigvalsh(saddle_h.entries).min())
        checks.append(_close("saddle_slope", report.median_slope,
                             math.log1p(p["saddle"]["lr"] * abs(lam_neg)), 0.30))
        return checks


class DenseLyap:
    name = "dense-lyap"
    setup_reps = 1
    dim = 64
    matrix_seed = 64
    lr = 0.05
    batch_size = 10
    steps = 4000
    stride = 20

    def make_inputs(self, directory: Path, seed: int) -> None:
        # One fixed pair of matrices: the Jacobi sweep count depends on the
        # matrix, so drawing them per seed would spread wall_s across seeds
        # by a few percent.  The seed drives the SGD stream.
        rng = np.random.default_rng(self.matrix_seed)
        n = self.dim
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        _write_matrix(directory / "hessian.csv", a @ a.T / n + 0.5 * np.eye(n))
        _write_matrix(directory / "noise.csv", b @ b.T / n + 0.1 * np.eye(n))
        _write_json(directory / "params.json", {
            "lr": self.lr, "batch_size": self.batch_size, "steps": self.steps,
            "stride": self.stride, "seed": _seeds(seed, 1)[0],
        })

    def setup(self, sc, inputs: Path):
        hessian = sc.read_matrix_csv(inputs / "hessian.csv")
        noise = sc.read_matrix_csv(inputs / "noise.csv")
        return sc.make_quadratic(hessian, np.zeros(hessian.dim), noise), _params(inputs)

    def run(self, sc, state, out: Path):
        model, p = state
        lr, m = p["lr"], p["batch_size"]
        rhs = sc.SymMatrix((lr / m) * model.noise_cov.entries)
        gamma = sc.solve_lyapunov(model.hessian, rhs)
        report = sc.model_report(model, model.minimizer, lr, m)
        traj = sc.gaussian_sgd_run(model, model.minimizer, sc.SgdConfig(lr, m, p["steps"], p["seed"]),
                                   record_stride=p["stride"], snapshots=True)
        sc.write_matrix_csv(out / "gamma.csv", gamma)
        sc.write_snapshots_csv(out / "snapshots.csv", traj)
        _write_json(out / "report.json", report.as_dict())
        return rhs, gamma, report, traj

    def check(self, sc, state, result):
        model, p = state
        rhs, gamma, report, traj = result
        h, c, q, g = model.hessian.entries, model.noise_cov.entries, rhs.entries, gamma.entries
        # Eigenvalues of H as the model's decomposition sees them: the flow
        # solution along an eigenvector v decays as exp(-lam t) v.
        lam, vecs = np.linalg.eigh(h)
        t = 1.0 / float(lam.max())
        center = model.minimizer
        decay = np.array([vecs[:, i] @ (model.flow_solution(center + vecs[:, i], t) - center)
                          for i in range(lam.size)])
        eig_err = float(np.abs(-np.log(decay) / t - lam).max() / lam.max())
        checks = [
            ("eigenvalues_h", eig_err <= 1e-9, f"max rel err vs eigvalsh {eig_err:.2e}"),
            ("noise_root", _rel(model.noise_sqrt @ model.noise_sqrt.T, c) <= 1e-9,
             f"rel err {_rel(model.noise_sqrt @ model.noise_sqrt.T, c):.2e}"),
            ("lyapunov_residual", _rel(h @ g + g @ h, q) <= 1e-9,
             f"rel residual {_rel(h @ g + g @ h, q):.2e}"),
            _close("trace_identity", float(np.trace(h @ g)), 0.5 * float(np.trace(q)), 1e-9),
            _close("report_tr_h", report.tr_h, float(np.trace(h)), 1e-9),
            _close("report_tr_sigma2", report.tr_sigma2, float(np.trace(c)), 1e-9),
            _close("report_tr_sigma2_h", report.tr_sigma2_h, float(np.trace(c @ h)), 1e-9),
        ]
        expected_records = p["steps"] // p["stride"] + 1
        thetas = traj.thetas
        losses = 0.5 * np.einsum("ri,ij,rj->r", thetas, h, thetas)
        checks.append(("snapshots", len(traj.steps) == expected_records
                       and _rel(traj.losses, losses) <= 1e-9,
                       f"{len(traj.steps)} records, recorded-loss rel err {_rel(traj.losses, losses):.2e}"))
        return checks


class CltEnsemble:
    name = "clt-ensemble"
    setup_reps = 7
    hessian = [[1.0, 0.3], [0.3, 0.7]]
    noise = [[0.5, 0.1], [0.1, 0.4]]
    deltas = [1e-2, 1e-3, 1e-4]
    batch_size = 10
    t_end = 1.0
    replicas = 2000

    def make_inputs(self, directory: Path, seed: int) -> None:
        _write_matrix(directory / "hessian.csv", np.array(self.hessian))
        _write_matrix(directory / "noise.csv", np.array(self.noise))
        _write_json(directory / "params.json", {
            "deltas": self.deltas, "batch_size": self.batch_size, "t_end": self.t_end,
            "replicas": self.replicas, "seed": _seeds(seed, 1)[0],
        })

    def setup(self, sc, inputs: Path):
        hessian = sc.read_matrix_csv(inputs / "hessian.csv")
        noise = sc.read_matrix_csv(inputs / "noise.csv")
        return sc.make_quadratic(hessian, np.zeros(hessian.dim), noise), _params(inputs)

    def run(self, sc, state, out: Path):
        model, p = state
        report = sc.clt_experiment(model, p["deltas"], p["batch_size"], p["t_end"],
                                   p["replicas"], p["seed"])
        _write_json(out / "clt.json", report.as_dict())
        return report

    def check(self, sc, state, report):
        model, p = state
        h, c = model.hessian.entries, model.noise_cov.entries
        lam, v = np.linalg.eigh(h)
        rotated = v.T @ c @ v
        total = lam[:, None] + lam[None, :]
        # Sampling error of a covariance from R replicas is about
        # sqrt(3/R) in relative Frobenius norm for two dimensions.
        tol = 5.0 * math.sqrt(3.0 / p["replicas"])
        checks = []
        for i, delta in enumerate(p["deltas"]):
            horizon = max(1, round(p["t_end"] / delta)) * delta
            exact = v @ (rotated * (1.0 - np.exp(-total * horizon)) / total) @ v.T
            pred_err = _rel(report.predicted_covs[i].entries, exact)
            err = _rel(report.empirical_covs[i], exact)
            checks.append((f"predicted_cov@delta={delta:g}", pred_err <= 1e-6,
                           f"rel err vs closed form {pred_err:.2e}"))
            checks.append((f"frobenius_error@delta={delta:g}",
                           err <= tol + delta * float(lam.max())
                           and abs(report.frobenius_errors[i] - err) <= 1e-6,
                           f"{err:.4f} vs closed form (reported {report.frobenius_errors[i]:.4f}, "
                           f"tol {tol + delta * float(lam.max()):.4f})"))
        return checks


class MlpScaling:
    name = "mlp-scaling"
    setup_reps = 5
    examples, features, classes, hidden = 512, 10, 3, 16
    base = (0.05, 32)
    factors = [1.0, 2.0, 4.0]
    off_ratio = [(0.05, 128), (0.2, 32)]
    run_length = 6000
    stride = 6

    def make_inputs(self, directory: Path, seed: int) -> None:
        rng = np.random.default_rng(seed)
        centers = 0.6 * rng.standard_normal((self.classes, self.features))
        labels = rng.permutation(np.arange(self.examples) % self.classes)
        x = centers[labels] + rng.standard_normal((self.examples, self.features))
        lines = ["label," + ",".join(f"f{i}" for i in range(self.features))]
        lines += [f"{y}," + ",".join(repr(float(v)) for v in row) for y, row in zip(labels, x)]
        (directory / "dataset.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        init_seed, run_seed = _seeds(seed, 2)
        _write_json(directory / "params.json", {
            "dims": [self.features, self.hidden, self.classes], "init_seed": init_seed,
            "base": self.base, "factors": self.factors, "off_ratio": self.off_ratio,
            "run_length": self.run_length, "stride": self.stride, "seed": run_seed,
        })

    def setup(self, sc, inputs: Path):
        p = _params(inputs)
        dataset = sc.read_dataset_csv(inputs / "dataset.csv")
        return sc.make_mlp(*p["dims"], dataset, p["init_seed"]), p

    def run(self, sc, state, out: Path):
        model, p = state
        curves = sc.linear_scaling_experiment(
            model, p["base"], p["factors"], p["off_ratio"], p["run_length"], p["seed"],
            record_stride=p["stride"], workers=1)
        sc.write_curves_csv(out / "curves.csv", curves)
        _write_json(out / "scaling.json", curves.as_dict())
        return curves

    def check(self, sc, state, curves):
        d = curves.class_divergence
        same, near, far = d["same_ratio"], d["near_ratio"], d["far_ratio"]
        detail = f"same {same:.3e}, near {near:.3e}, far {far:.3e}"
        return [
            ("class_order", same < near < far, detail),
            ("far_vs_same", far >= 2.0 * same, detail),
        ]


WORKLOADS = {w.name: w for w in (QuadScan(), DenseLyap(), CltEnsemble(), MlpScaling())}
