"""Config parsing, help/key agreement, dispatch, and output determinism."""

import glob
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sgdscope import cli
from sgdscope.cli import KEY_SPECS, ConfigError, main, parse_config, render_help
from sgdscope.linalg import SymMatrix, write_matrix_csv
from sgdscope.experiments import scan_bs_lr
from sgdscope.problems import generate_blobs, make_mlp, write_dataset_csv


INT64_MAX = np.iinfo(np.int64).max
CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
GRID = ["--lr_list", "0.1", "--bs_list", "1"]


def write_config(path, text):
    path.write_text(text)
    return str(path)


class TestHelp:
    def test_help_lists_exactly_the_accepted_keys(self):
        text = render_help()
        listed = set(re.findall(r"^  (\S+)", text, flags=re.MULTILINE))
        assert listed == set(KEY_SPECS)

    def test_every_key_documents_a_default_and_constraint(self):
        text = render_help()
        for spec in KEY_SPECS.values():
            line = next(l for l in text.splitlines() if l.startswith("  " + spec.name + " "))
            assert "default=" in line
            assert spec.constraint in line

    def test_help_flag_short_circuits(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: sgdscope" in capsys.readouterr().out

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_command_help_lists_exactly_the_keys_it_reads(self, capsys, command):
        assert main([command, "--help"]) == 0
        listed = set(re.findall(r"^  (\S+)", capsys.readouterr().out, flags=re.MULTILINE))
        assert listed == set(cli.COMMANDS[command][1])
        assert {"command", "out_dir", "master_seed"} <= listed
        for key in set(KEY_SPECS) - listed:
            with pytest.raises(ConfigError, match=rf"^{command} does not read key\(s\): {key}$"):
                parse_config([command, f"--{key}", "1"])


class TestParsing:
    def test_minimal_lyapunov_config(self, tmp_path):
        write_matrix_csv(tmp_path / "h.csv", SymMatrix(np.diag([1.0, 2.0])))
        write_matrix_csv(tmp_path / "c.csv", SymMatrix(np.diag([0.5, 0.5])))
        cfg_path = write_config(
            tmp_path / "run.cfg",
            "command = lyapunov\nhessian_file = h.csv\nnoise_file = c.csv\n",
        )
        cfg = parse_config(["--config", cfg_path])
        assert cfg.command == "lyapunov"
        assert not hasattr(cfg, "steps")
        assert cfg.hessian_file == str(tmp_path / "h.csv")

    def test_range_violation_names_the_constraint(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "bad.cfg", "command = simulate\nlearning_rate = -0.1\n")
        code = main(["--config", cfg_path])
        assert code == 2
        err = capsys.readouterr().err
        assert "learning_rate > 0" in err
        assert err.startswith("error: config:")

    def test_flag_overrides_file(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.cfg", "command = simulate\nsteps = 100\n")
        cfg = parse_config(["--config", cfg_path, "--steps", "200"])
        assert cfg.steps == 200

    def test_positional_command_wins(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.cfg", "command = simulate\n")
        cfg = parse_config(["flow", "--config", cfg_path])
        assert cfg.command == "flow"

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.cfg", "command = simulate\nstepz = 5\n")
        with pytest.raises(ConfigError, match="unknown key: stepz"):
            parse_config(["--config", cfg_path])
        with pytest.raises(ConfigError, match="unknown key: stepz"):
            parse_config(["simulate", "--stepz", "5"])
        for removed in ("probe_count", "sample_count"):
            with pytest.raises(ConfigError, match=f"unknown key: {removed}"):
                parse_config(["estimate", f"--{removed}", "8"])

    def test_missing_command_rejected(self):
        with pytest.raises(ConfigError, match="no command"):
            parse_config(["--steps", "10"])

    def test_unknown_command_rejected(self):
        with pytest.raises(ConfigError, match="unknown command"):
            parse_config(["simulate-all"])

    def test_missing_flag_value_rejected(self):
        with pytest.raises(ConfigError, match="missing value"):
            parse_config(["simulate", "--steps"])

    def test_type_mismatch_names_the_key(self):
        with pytest.raises(ConfigError, match="steps expects an integer"):
            parse_config(["simulate", "--steps", "many"])
        with pytest.raises(ConfigError, match="sampling"):
            parse_config(["simulate", "--sampling", "sometimes"])
        with pytest.raises(ConfigError, match="^sampling = 'sometimes' violates one of"):
            parse_config(["simulate", "--model", "logistic", "--sampling", "sometimes"])

    def test_missing_config_file(self, capsys):
        assert main(["simulate", "--config", "/nonexistent/x.cfg"]) == 2
        assert "config file not found" in capsys.readouterr().err

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        cfg_path = write_config(
            tmp_path / "run.cfg",
            "# full-line comment\n\ncommand = simulate\nsteps = 7  # trailing comment\n",
        )
        cfg = parse_config(["--config", cfg_path])
        assert cfg.steps == 7

    def test_workers_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SGDSCOPE_WORKERS", "3")
        cfg = parse_config(["scan", *GRID])
        assert cfg.workers == 3
        cfg = parse_config(["scan", *GRID, "--workers", "2"])
        assert cfg.workers == 2
        monkeypatch.setenv("SGDSCOPE_WORKERS", "zero")
        with pytest.raises(ConfigError, match="workers"):
            parse_config(["scan", *GRID])

    def test_default_workers_count_the_usable_cpus(self, monkeypatch):
        monkeypatch.delenv("SGDSCOPE_WORKERS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert parse_config(["scan", *GRID]).workers == 1

    @pytest.mark.parametrize("command, model, key, value", [
        *(pytest.param(command, None, key, value, id=f"{command}-{key}-{value}") for command, key, value in [
            ("clt", "learning_rate", "0.1"), ("scan", "batch_size", "4"),
            ("scaling", "learning_rate", "0.1"), ("ou", "snapshots", "false"),
            ("lyapunov", "model", "quadratic"), ("simulate", "workers", "1"),
        ]),
        # A model command refuses the keys of the other models.
        ("simulate", "quadratic", "hidden_dim", "5"), ("simulate", "quadratic", "l2_penalty", "0.3"),
        ("simulate", "quadratic", "sampling", "without_replacement"),
        ("scan", "quadratic", "flow_t", "10"), ("scan", "quadratic", "flow_dt", "0.1"),
        ("simulate", "mlp", "l2_penalty", "0.1"), ("scaling", "mlp", "dim", "3"),
        ("estimate", "logistic", "hessian_diag", "1,2"), ("flow", "logistic", "noise_file", "c.csv"),
        ("scan", "logistic", "model_seed", "3"), ("clt", "mlp", "curvature_scale", "2"),
    ])
    def test_keys_a_command_does_not_read_are_refused(self, tmp_path, capsys, command, model, key,
                                                      value):
        reader = command if model is None else f"{command} with model={model}"
        expected = f"error: config: {reader} does not read key(s): {key}\n"
        chosen = [] if model is None else ["--model", model]
        assert main([command, *chosen, f"--{key}", value, "--out_dir", str(tmp_path / "flag")]) == 2
        assert capsys.readouterr().err == expected
        lines = f"command = {command}\n" + ("" if model is None else f"model = {model}\n")
        cfg_path = write_config(tmp_path / "run.cfg", f"{lines}{key} = {value}\n")
        assert main(["--config", cfg_path, "--out_dir", str(tmp_path / "file")]) == 2
        assert capsys.readouterr().err == expected
        assert sorted(os.listdir(tmp_path)) == ["run.cfg"]

    def test_every_key_a_model_does_not_read_is_named(self, capsys):
        # The default model is the quadratic.
        args = ["simulate", "--dim", "2", "--steps", "100", "--hidden_dim", "5", "--l2_penalty", "0.3",
                "--master_seed", "1"]
        for chosen in ([], ["--model", "quadratic"]):
            assert main(args + chosen) == 2
            assert capsys.readouterr().err == (
                "error: config: simulate with model=quadratic does not read key(s): hidden_dim, l2_penalty\n"
            )

    def test_entropy_seed_when_unset(self):
        a = parse_config(["simulate"]).master_seed
        b = parse_config(["simulate"]).master_seed
        assert a >= 0 and b >= 0
        assert a != b


def assert_refused(tmp_path, capsys, args, message):
    """``args`` exit 2 with the one stderr line ``message`` and write nothing."""
    assert main(args + ["--out_dir", str(tmp_path / "run"), "--master_seed", "0"]) == 2
    assert capsys.readouterr().err == f"error: config: {message}\n"
    assert os.listdir(tmp_path) == []


SOURCE_VALUES = {"hessian_file": "h.csv", "hessian_diag": "1,2", "dim": "2", "curvature_scale": "2",
                 "noise_file": "c.csv", "noise_diag": "0.1,0.1", "noise_scale": "0.5"}


class TestKeyRules:
    @pytest.mark.parametrize("command, matrix, first, second", [
        *(("simulate", "H", a, b) for a, b in [
            ("hessian_file", "hessian_diag"), ("hessian_file", "dim"), ("hessian_file", "curvature_scale"),
            ("hessian_diag", "dim"), ("hessian_diag", "curvature_scale")]),
        ("saddle", "H", "hessian_file", "hessian_diag"),
        *((command, "C", a, b) for command in ("simulate", "saddle") for a, b in [
            ("noise_file", "noise_diag"), ("noise_file", "noise_scale"), ("noise_diag", "noise_scale")]),
    ])
    def test_a_second_source_for_one_matrix_is_refused(self, tmp_path, capsys, command, matrix,
                                                       first, second):
        reader = "simulate with model=quadratic" if command == "simulate" else command
        given = ["--hessian_diag", "1,-1"] if command == "saddle" and matrix == "C" else []
        # Either order on the command line names the keys in source order.
        for a, b in ((first, second), (second, first)):
            assert_refused(tmp_path, capsys,
                           [command, *given, f"--{a}", SOURCE_VALUES[a], f"--{b}", SOURCE_VALUES[b]],
                           f"{reader} sets {matrix} from more than one source: {first}, {second}")

    def test_three_sources_are_all_named(self, tmp_path, capsys):
        assert_refused(tmp_path, capsys,
                       ["estimate", "--hessian_file", "h.csv", "--hessian_diag", "1", "--dim", "1"],
                       "estimate with model=quadratic sets H from more than one source: "
                       "hessian_file, hessian_diag, dim")

    def test_keys_of_one_source_are_not_two_sources(self):
        cfg = parse_config(["simulate", "--dim", "3", "--curvature_scale", "2", "--noise_diag", "1,1,1"])
        assert (cfg.dim, cfg.curvature_scale, cfg.noise_scale) == (3, 2.0, None)

    @pytest.mark.parametrize("model", ["logistic", "mlp"])
    def test_clt_builds_only_the_quadratic(self, tmp_path, capsys, model):
        assert_refused(tmp_path, capsys, ["clt", "--model", model, "--delta_list", "0.1"],
                       f"clt cannot build model={model}; it builds quadratic")

    def test_clt_does_not_read_a_dataset(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["gen-data", "--out_dir", str(data), "--master_seed", "1"]) == 0
        capsys.readouterr()
        out = tmp_path / "run"
        assert main(["clt", "--model", "logistic", "--dataset_file", str(data / "dataset.csv"),
                     "--delta_list", "0.1", "--out_dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: config: clt does not read key(s): dataset_file\n"
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [pytest.param(*case, id="-".join(
        arg.lstrip("-") or "empty" for arg in case[0])) for case in [
        (["scan"], "scan with model=quadratic requires key(s): lr_list, bs_list"),
        (["scan", "--lr_list", "0.1"], "scan with model=quadratic requires key(s): bs_list"),
        (["scan", "--lr_list", "", "--bs_list", ""],
         "scan with model=quadratic requires key(s): lr_list, bs_list"),
        (["scaling"], "scaling with model=quadratic requires key(s): base_lr, base_bs"),
        (["scaling", "--base_bs", "2"], "scaling with model=quadratic requires key(s): base_lr"),
        (["clt"], "clt with model=quadratic requires key(s): delta_list"),
        (["saddle"], "saddle requires key(s): hessian_file or hessian_diag"),
        (["lyapunov"], "lyapunov requires key(s): hessian_file, noise_file"),
        (["lyapunov", "--hessian_file", "h.csv"], "lyapunov requires key(s): noise_file"),
        *(([command, "--model", model, *extra], f"{command} with model={model} requires key(s): "
           + ", ".join(required + ["dataset_file"]))
          for command, extra, required in [
              ("simulate", [], []), ("flow", [], []), ("estimate", [], []),
              ("scan", GRID, []), ("scaling", [], ["base_lr", "base_bs"])]
          for model in ("logistic", "mlp")),
    ]])
    def test_a_missing_required_key_is_refused(self, tmp_path, capsys, args, message):
        assert_refused(tmp_path, capsys, args, message)

    @pytest.mark.parametrize("args, first, second", [
        (["scan", "--lr_list", "0.1,0.2", "--bs_list", "1"], "lr_list", "bs_list"),
        (["scan", "--lr_list", "0.1", "--bs_list", "1,2"], "lr_list", "bs_list"),
        (["scaling", "--base_lr", "0.1", "--base_bs", "2", "--off_lr_list", "0.1"],
         "off_lr_list", "off_bs_list"),
        (["scaling", "--base_lr", "0.1", "--base_bs", "2", "--off_lr_list", "0.1",
          "--off_bs_list", "2,4"], "off_lr_list", "off_bs_list"),
    ], ids=["scan-long-lr", "scan-long-bs", "scaling-no-off-bs", "scaling-long-off-bs"])
    def test_paired_lists_of_unequal_length_are_refused(self, tmp_path, capsys, args, first, second):
        assert_refused(tmp_path, capsys, args, f"{first} and {second} must be lists of equal length")

    def test_the_echo_names_only_the_sources_a_run_uses(self, tmp_path, capsys):
        first, again = tmp_path / "first", tmp_path / "again"
        overrides = ["--steps", "2000", "--workers", "1"]
        assert main(["--config", os.path.join(CONFIG_DIR, "scan.cfg"), *overrides,
                     "--out_dir", str(first)]) == 0
        echoed = dict(line.split(" = ", 1) for line in (first / "config.resolved").read_text().splitlines())
        assert {"hessian_diag", "noise_diag"} <= set(echoed)
        assert not {"dim", "curvature_scale", "noise_scale"} & set(echoed)
        assert main(["--config", str(first / "config.resolved"), "--out_dir", str(again)]) == 0
        capsys.readouterr()
        for name in ("config.resolved", "scan.csv", "scan.json"):
            expected = (first / name).read_bytes().replace(str(first).encode(), str(again).encode())
            assert (again / name).read_bytes() == expected

    def test_clt_checks_the_length_of_theta0(self, tmp_path, capsys):
        # The default dim is 2, so the keys alone disagree; with H from a
        # file only the handler knows the dimension.
        assert_refused(tmp_path, capsys, ["clt", "--delta_list", "0.1", "--theta0", "1,2,3"],
                       "clt with model=quadratic sets dimensions that disagree: dim 2, theta0 3")
        write_matrix_csv(tmp_path / "h.csv", SymMatrix(np.diag([1.0, 2.0])))
        code = main(["clt", "--delta_list", "0.1", "--theta0", "1,2,3", "--out_dir", str(tmp_path),
                     "--hessian_file", str(tmp_path / "h.csv"), "--master_seed", "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: clt: theta0 has 3 entries; the model needs 2\n"

    @pytest.mark.parametrize("args, sizes", [
        (["simulate", "--dim", "3", "--noise_diag", "1,1"], "dim 3, noise_diag 2"),
        (["simulate", "--noise_diag", "1,1,1"], "dim 2, noise_diag 3"),
        (["simulate", "--hessian_diag", "1,2", "--theta0", "0,0,0"], "hessian_diag 2, theta0 3"),
        (["flow", "--dim", "4", "--noise_diag", "1,1,1,1", "--theta0", "1"],
         "dim 4, noise_diag 4, theta0 1"),
        (["estimate", "--hessian_file", "h.csv", "--noise_diag", "1,1", "--theta0", "1,2,3"],
         "noise_diag 2, theta0 3"),
        (["saddle", "--hessian_diag", "1,-1", "--noise_diag", "1"], "hessian_diag 2, noise_diag 1"),
    ])
    def test_dimensions_the_keys_give_must_agree(self, tmp_path, capsys, args, sizes):
        reader = args[0] if args[0] == "saddle" else f"{args[0]} with model=quadratic"
        assert_refused(tmp_path, capsys, args, f"{reader} sets dimensions that disagree: {sizes}")

    def test_theta0_of_a_finite_data_model_is_left_to_the_handler(self):
        cfg = parse_config(["simulate", "--model", "logistic", "--dataset_file", "d.csv",
                            "--theta0", "1,2,3", "--master_seed", "0"])
        assert cfg.theta0 == (1.0, 2.0, 3.0)


class TestCommands:
    def run_ok(self, args, capsys):
        code = main(args)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out

    def test_simulate_writes_expected_files(self, tmp_path, capsys):
        out = tmp_path / "run"
        stdout = self.run_ok(
            ["simulate", "--out_dir", str(out), "--steps", "500",
             "--learning_rate", "0.05", "--master_seed", "4"],
            capsys,
        )
        assert "master_seed = 4" in stdout
        assert (out / "trajectory.csv").exists()
        assert (out / "config.resolved").exists()
        payload = json.loads((out / "simulate.json").read_text())
        assert payload["excess_loss"] is not None

    def test_simulate_is_byte_reproducible(self, tmp_path, capsys):
        args = ["simulate", "--steps", "400", "--learning_rate", "0.05", "--master_seed", "11"]
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            self.run_ok(args + ["--out_dir", str(out)], capsys)
            outs.append((out / "trajectory.csv").read_bytes() + (out / "simulate.json").read_bytes())
        assert outs[0] == outs[1]

    def test_simulate_divergence_is_reported(self, tmp_path, capsys):
        code = main([
            "simulate", "--out_dir", str(tmp_path / "d"), "--steps", "500",
            "--learning_rate", "3.0", "--noise_scale", "0", "--theta0", "1,1",
            "--master_seed", "0",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: simulate: divergence at step")

    def test_flow_divergence_is_reported(self, tmp_path, capsys):
        # RK4 is unstable at dt * lam = 5.
        code = main([
            "flow", "--out_dir", str(tmp_path / "d"), "--hessian_diag", "1", "--noise_diag", "0",
            "--theta0", "1", "--dt", "5", "--t_end", "100", "--master_seed", "0",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: flow: divergence at step 11")

    def test_minimum_search_divergence_names_the_search(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        self.run_ok(["gen-data", "--out_dir", str(data_dir), "--master_seed", "1"], capsys)
        code = main([
            "scan", "--out_dir", str(tmp_path / "s"), "--model", "logistic",
            "--l2_penalty", "1", "--dataset_file", str(data_dir / "dataset.csv"),
            "--lr_list", "0.1", "--bs_list", "4", "--steps", "200", "--replicas", "1",
            "--flow_dt", "5", "--flow_t", "100", "--master_seed", "0",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(
            "error: scan: divergence at step 11: minimum search: gradient flow at flow_dt 5.0 "
        )

    def test_config_resolved_reflects_overrides(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path / "run.cfg", "command = simulate\nsteps = 100\n")
        self.run_ok(
            ["--config", cfg_path, "--steps", "200", "--out_dir", str(out), "--master_seed", "1"],
            capsys,
        )
        resolved = (out / "config.resolved").read_text()
        assert "steps = 200" in resolved
        assert "command = simulate" in resolved

    def test_flow_reaches_the_minimum(self, tmp_path, capsys):
        out = tmp_path / "run"
        self.run_ok(
            ["flow", "--out_dir", str(out), "--t_end", "20", "--dt", "0.01",
             "--theta0", "1,-1", "--master_seed", "0"],
            capsys,
        )
        payload = json.loads((out / "flow.json").read_text())
        assert payload["final_grad_norm_sq"] < 1e-12

    def test_ou_stats(self, tmp_path, capsys):
        out = tmp_path / "run"
        self.run_ok(
            ["ou", "--out_dir", str(out), "--eigenvalues", "0.5,1,2",
             "--learning_rate", "0.01", "--batch_size", "10",
             "--t_end", "400", "--dt", "0.1", "--master_seed", "5"],
            capsys,
        )
        payload = json.loads((out / "ou.json").read_text())
        assert payload["predicted_variance"] == 0.01 / 20.0
        assert abs(payload["predicted_loss"] - 0.01 * 3.5 / 40.0) < 1e-15
        assert "empirical_variance" in payload

    def test_scan_from_flags_only(self, tmp_path, capsys):
        out = tmp_path / "run"
        self.run_ok(
            ["scan", "--out_dir", str(out), "--lr_list", "0.05,0.1",
             "--bs_list", "2,4", "--steps", "2000", "--replicas", "1",
             "--master_seed", "7", "--workers", "1"],
            capsys,
        )
        lines = (out / "scan.csv").read_text().strip().split("\n")
        assert len(lines) == 3
        rows = json.loads((out / "scan.json").read_text())
        assert rows[0]["converged"] is True

    def test_scan_requires_grid(self, tmp_path, capsys):
        code = main(["scan", "--out_dir", str(tmp_path / "x"), "--master_seed", "0"])
        assert code == 2
        assert "lr_list" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_scaling_smoke(self, tmp_path, capsys):
        out = tmp_path / "run"
        self.run_ok(
            ["scaling", "--out_dir", str(out), "--base_lr", "0.05", "--base_bs", "2",
             "--factors", "1,2", "--steps", "1000", "--master_seed", "3", "--workers", "1"],
            capsys,
        )
        payload = json.loads((out / "scaling.json").read_text())
        assert "same_ratio" in payload["class_divergence"]
        assert (out / "curves.csv").exists()

    def test_clt_smoke(self, tmp_path, capsys):
        out = tmp_path / "run"
        self.run_ok(
            ["clt", "--out_dir", str(out), "--dim", "1", "--delta_list", "0.05,0.01",
             "--t_end", "1.0", "--replicas", "150", "--master_seed", "2"],
            capsys,
        )
        payload = json.loads((out / "clt.json").read_text())
        assert len(payload["frobenius_errors"]) == 2

    def test_saddle_smoke(self, tmp_path, capsys):
        out = tmp_path / "run"
        self.run_ok(
            ["saddle", "--out_dir", str(out), "--hessian_diag", "1,-1",
             "--noise_diag", "1,1", "--learning_rate", "0.01", "--steps", "5000",
             "--replicas", "4", "--master_seed", "9"],
            capsys,
        )
        payload = json.loads((out / "saddle.json").read_text())
        assert payload["verdict"] == "DIVERGED"

    def test_estimate_prints_report(self, tmp_path, capsys):
        out = tmp_path / "run"
        stdout = self.run_ok(
            ["estimate", "--out_dir", str(out), "--hessian_diag", "1,2",
             "--noise_diag", "0.5,0.5", "--learning_rate", "0.02",
             "--batch_size", "4", "--master_seed", "0"],
            capsys,
        )
        assert "magnitude difference" in stdout
        payload = json.loads((out / "estimate.json").read_text())
        assert payload["tr_h"] == 3.0
        assert payload["tr_sigma2"] == 1.0

    def test_lyapunov_identity_in_json(self, tmp_path, capsys):
        write_matrix_csv(tmp_path / "h.csv", SymMatrix(np.diag([1.0, 3.0])))
        write_matrix_csv(tmp_path / "c.csv", SymMatrix(np.diag([0.4, 0.8])))
        out = tmp_path / "run"
        cfg_path = write_config(
            tmp_path / "run.cfg",
            "command = lyapunov\nhessian_file = h.csv\nnoise_file = c.csv\n",
        )
        self.run_ok(["--config", cfg_path, "--out_dir", str(out), "--master_seed", "0"], capsys)
        payload = json.loads((out / "lyapunov.json").read_text())
        assert abs(payload["tr_h_gamma"] - payload["half_tr_q"]) < 1e-12
        assert (out / "gamma.csv").exists()

    def test_gen_data_then_train_mlp(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        self.run_ok(
            ["gen-data", "--out_dir", str(data_dir), "--example_count", "60",
             "--feature_dim", "3", "--class_count", "3", "--master_seed", "1"],
            capsys,
        )
        dataset = data_dir / "dataset.csv"
        assert dataset.exists()
        out = tmp_path / "run"
        self.run_ok(
            ["simulate", "--out_dir", str(out), "--model", "mlp",
             "--dataset_file", str(dataset), "--class_count", "3",
             "--hidden_dim", "4", "--steps", "200", "--learning_rate", "0.1",
             "--batch_size", "10", "--master_seed", "2"],
            capsys,
        )
        assert (out / "trajectory.csv").exists()

    def test_mlp_scan_starts_at_the_initial_parameters(self, tmp_path, capsys):
        features, labels = generate_blobs(40, 2, 3, seed=4)
        write_dataset_csv(tmp_path / "blobs.csv", features, labels)
        out = tmp_path / "run"
        self.run_ok(
            ["scan", "--out_dir", str(out), "--model", "mlp",
             "--dataset_file", str(tmp_path / "blobs.csv"), "--class_count", "3",
             "--hidden_dim", "3", "--model_seed", "6", "--lr_list", "0.1", "--bs_list", "4",
             "--steps", "50", "--replicas", "1", "--flow_t", "0.5", "--flow_dt", "0.05",
             "--master_seed", "2", "--workers", "1"],
            capsys,
        )
        model = make_mlp(2, 3, 3, (features, labels), seed=6)
        rows = scan_bs_lr(model, [(0.1, 4)], run_length=50, replicas=1, master_seed=2,
                          theta_start=model.initial_params, flow_t=0.5, flow_dt=0.05)
        expected = json.dumps([row.as_dict() for row in rows], indent=2, sort_keys=True)
        assert (out / "scan.json").read_text() == expected + "\n"

    def test_saddle_and_simulate_report_the_same_dimension_mismatch(self, tmp_path, capsys):
        # From keys alone parse_config refuses the run before writing anything;
        # a matrix from a file is checked by the handler.
        for command in ("simulate", "saddle"):
            reader = command if command == "saddle" else f"{command} with model=quadratic"
            code = main([command, "--out_dir", str(tmp_path / command), "--hessian_diag", "1,-1",
                         "--noise_diag", "1,1,1", "--steps", "10", "--master_seed", "0"])
            assert code == 2
            assert capsys.readouterr().err == (
                f"error: config: {reader} sets dimensions that disagree: hessian_diag 2, noise_diag 3\n"
            )
            assert not (tmp_path / command).exists()
        write_matrix_csv(tmp_path / "c.csv", SymMatrix(np.eye(3)))
        for command in ("simulate", "saddle"):
            code = main([command, "--out_dir", str(tmp_path / command), "--hessian_diag", "1,-1",
                         "--noise_file", str(tmp_path / "c.csv"), "--steps", "10", "--master_seed", "0"])
            assert code == 1
            assert capsys.readouterr().err == (
                f"error: {command}: noise dimension 3 does not match curvature dimension 2\n"
            )

    @pytest.mark.parametrize("off_lr, off_bs", [("0", "2"), ("-0.1", "2"), ("0.05", "0"),
                                                ("0.05", "-2")])
    def test_scaling_rejects_non_positive_off_ratio_pairs(self, tmp_path, capsys, off_lr, off_bs):
        code = main(["scaling", "--out_dir", str(tmp_path), "--base_lr", "0.05", "--base_bs", "2",
                     "--off_lr_list", off_lr, "--off_bs_list", off_bs,
                     "--steps", "100", "--master_seed", "0", "--workers", "1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: scaling: off-ratio pair")

    @pytest.mark.parametrize("factor", ["nan", "inf"])
    def test_scaling_rejects_non_finite_factors(self, tmp_path, capsys, factor):
        code = main(["scaling", "--out_dir", str(tmp_path), "--base_lr", "0.05", "--base_bs", "2",
                     "--factors", factor, "--steps", "100", "--master_seed", "0",
                     "--workers", "1"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: scaling: factor {factor} ")

    @pytest.mark.parametrize("args, message", [
        (["scaling", "--base_lr", "0.05", "--base_bs", "2", "--factors", "1e300", "--steps", "100"],
         f"batch_size must not exceed {INT64_MAX}"),
        (["simulate", "--batch_size", "100000000000000000000"],
         f"batch_size must not exceed {INT64_MAX}"),
        (["simulate", "--steps", "100000000000000000000"], f"steps must not exceed {INT64_MAX}"),
        (["flow", "--t_end", "1e300", "--dt", "1e-10"], f"t_end / dt must not exceed {INT64_MAX} steps"),
        (["ou", "--t_end", "1e300", "--dt", "1e-10"], f"t_end / dt must not exceed {INT64_MAX} steps"),
        (["scaling", "--base_lr", "0.1", "--base_bs", "4", "--factors", "1e308", "--steps", "10"],
         "factor 1e+308 must be finite and keep the batch size finite and at least 1"),
        (["clt", "--delta_list", "0.1,5e-324", "--t_end", "1", "--replicas", "100"],
         f"step size 5e-324 must be finite and reach t_end 1.0 in at most {INT64_MAX} steps"),
    ], ids=["scaling-factor", "simulate-batch", "simulate-steps", "flow-horizon", "ou-horizon",
            "scaling-factor-overflow", "clt-step-size"])
    def test_counts_beyond_int64_are_rejected(self, tmp_path, capsys, args, message):
        workers = ["--workers", "1"] if args[0] == "scaling" else []
        code = main(args + ["--out_dir", str(tmp_path), "--master_seed", "0"] + workers)
        assert code == 1
        assert capsys.readouterr().err == f"error: {args[0]}: {message}\n"

    @pytest.mark.parametrize("command, text, line", [
        ("estimate", "label,f0\n0,1.0\n1.5,2.0\n", "1.5,2.0"),
        ("lyapunov", "# dim=2\n1.0,0.0\nabc,1.0\n", "abc,1.0"),
    ], ids=["estimate", "lyapunov"])
    def test_malformed_csv_cells_give_one_error_line(self, tmp_path, capsys, command, text, line):
        path = tmp_path / "input.csv"
        path.write_text(text)
        inputs = (["--model", "logistic", "--dataset_file", str(path)] if command == "estimate"
                  else ["--hessian_file", str(path), "--noise_file", str(path)])
        code = main([command, "--out_dir", str(tmp_path / "run"), "--master_seed", "0"] + inputs)
        assert code == 1
        assert capsys.readouterr().err == f"error: {command}: {path}: malformed cell in {line!r}\n"

    @pytest.mark.parametrize("command", ["scan", "estimate"])
    def test_models_above_the_dense_guard_are_refused(self, tmp_path, capsys, command):
        features = 0.01 * np.random.default_rng(0).standard_normal((3, 2001))
        write_dataset_csv(tmp_path / "wide.csv", features, [0, 1, 0])
        scan_only = ["--lr_list", "0.1", "--bs_list", "1", "--steps", "10", "--replicas", "1",
                     "--workers", "1"] if command == "scan" else []
        code = main([command, "--out_dir", str(tmp_path / "run"), "--model", "logistic",
                     "--dataset_file", str(tmp_path / "wide.csv"), "--l2_penalty", "1",
                     "--master_seed", "0"] + scan_only)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {command}: param_dim 2001 exceeds the dense guard 2000\n"
        )

    def test_files_written_before_a_failure_stay(self, tmp_path, capsys, monkeypatch):
        def refuse(path, payload):
            raise OSError(f"cannot write {os.path.basename(path)}")

        monkeypatch.setattr(cli, "_write_json", refuse)
        out = tmp_path / "run"
        code = main(["flow", "--out_dir", str(out), "--theta0", "1,-1", "--t_end", "1",
                     "--master_seed", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: io: cannot write flow.json\n"
        assert captured.out.splitlines()[1:] == [f"wrote {out / 'trajectory.csv'}",
                                                 f"wrote {out / 'snapshots.csv'}"]
        assert sorted(os.listdir(out)) == ["config.resolved", "snapshots.csv", "trajectory.csv"]

    def test_dataset_required_for_logistic(self, tmp_path, capsys):
        code = main(["simulate", "--out_dir", str(tmp_path / "x"), "--model", "logistic",
                     "--master_seed", "0"])
        assert code == 2
        assert "dataset_file" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_config_relative_input_paths(self, tmp_path, capsys, monkeypatch):
        nested = tmp_path / "configs"
        nested.mkdir()
        write_matrix_csv(nested / "h.csv", SymMatrix(np.diag([1.0, 2.0])))
        write_matrix_csv(nested / "c.csv", SymMatrix(np.diag([0.1, 0.1])))
        cfg_path = write_config(
            nested / "run.cfg",
            "command = lyapunov\nhessian_file = h.csv\nnoise_file = c.csv\n",
        )
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        out = tmp_path / "run"
        self.run_ok(["--config", cfg_path, "--out_dir", str(out), "--master_seed", "0"], capsys)
        assert (out / "gamma.csv").exists()

    def test_config_resolved_does_not_depend_on_the_working_directory(self, tmp_path, capsys,
                                                                      monkeypatch):
        # The same config and inputs in two checkouts at different depths,
        # each run from its own root.
        echoes = []
        for root in (tmp_path / "a", tmp_path / "b" / "deeper"):
            nested = root / "configs"
            nested.mkdir(parents=True)
            write_matrix_csv(nested / "h.csv", SymMatrix(np.diag([1.0, 2.0])))
            write_matrix_csv(nested / "c.csv", SymMatrix(np.diag([0.1, 0.1])))
            write_config(nested / "run.cfg",
                         "command = lyapunov\nhessian_file = h.csv\nnoise_file = c.csv\n")
            monkeypatch.chdir(root)
            self.run_ok(["--config", "configs/run.cfg", "--out_dir", "out", "--master_seed", "0"],
                        capsys)
            assert (root / "out" / "gamma.csv").exists()
            echoes.append((root / "out" / "config.resolved").read_bytes())
        assert echoes[0] == echoes[1]
        assert b"hessian_file = ../configs/h.csv\n" in echoes[0]
        assert b"noise_file = ../configs/c.csv\n" in echoes[0]

    def test_config_resolved_runs_again_as_a_config(self, tmp_path, capsys):
        config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "lyapunov.cfg")
        first, again = tmp_path / "first", tmp_path / "again"
        self.run_ok(["--config", config, "--out_dir", str(first)], capsys)
        self.run_ok(["--config", str(first / "config.resolved"), "--out_dir", str(again)], capsys)
        for name in ("gamma.csv", "lyapunov.json"):
            assert (again / name).read_bytes() == (first / name).read_bytes()

    @pytest.mark.parametrize("config", sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg"))),
                             ids=os.path.basename)
    def test_bundled_configs_echo_only_their_command_keys(self, tmp_path, capsys, config):
        first, again = tmp_path / "first", tmp_path / "again"
        self.run_ok(["--config", config, "--out_dir", str(first)], capsys)
        lines = (first / "config.resolved").read_text().splitlines()
        echoed = dict(line.split(" = ", 1) for line in lines)
        command = echoed["command"]
        assert set(echoed) <= set(cli.COMMANDS[command][1])
        assert ("workers" in echoed) == (command in ("scan", "scaling"))
        self.run_ok(["--config", str(first / "config.resolved"), "--out_dir", str(again)], capsys)
        outputs = sorted(p.name for p in first.iterdir() if p.suffix in (".csv", ".json"))
        assert outputs
        for name in outputs:
            assert (again / name).read_bytes() == (first / name).read_bytes()

    @pytest.mark.parametrize("model, read", [
        ("quadratic", {"dim", "curvature_scale", "noise_scale"}),
        ("logistic", {"dataset_file", "l2_penalty", "sampling"}),
        ("mlp", {"dataset_file", "hidden_dim", "class_count", "model_seed", "sampling"}),
    ], ids=["quadratic", "logistic", "mlp"])
    def test_each_models_config_resolved_echoes_its_keys_and_runs_again(self, tmp_path, capsys, model,
                                                                       read):
        features, labels = generate_blobs(example_count=40, feature_dim=2, class_count=2, seed=3)
        write_dataset_csv(tmp_path / "blobs.csv", features, labels)
        data = [] if model == "quadratic" else ["--dataset_file", str(tmp_path / "blobs.csv")]
        first, again = tmp_path / "first", tmp_path / "again"
        self.run_ok(["simulate", "--model", model, *data, "--steps", "60", "--learning_rate", "0.05",
                     "--snapshots", "true", "--out_dir", str(first), "--master_seed", "2"], capsys)
        echoed = dict(line.split(" = ", 1) for line in (first / "config.resolved").read_text().splitlines())
        assert set(echoed) & cli._PER_MODEL_KEYS == read
        self.run_ok(["--config", str(first / "config.resolved"), "--out_dir", str(again)], capsys)
        for name in ("trajectory.csv", "snapshots.csv", "simulate.json"):
            assert (again / name).read_bytes() == (first / name).read_bytes()

    def test_gen_data_refuses_non_finite_features(self, tmp_path, capsys):
        code = main(["gen-data", "--out_dir", str(tmp_path), "--center_scale", "inf",
                     "--master_seed", "0"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: gen-data: center_scale = inf gives non-finite features\n"
        )
        assert not (tmp_path / "dataset.csv").exists()

    @pytest.mark.parametrize("args", [["--help"], ["simulate", "--help"],
                                      ["simulate", "--steps", "10", "--master_seed", "3"]])
    def test_a_reader_closing_stdout_early_gets_no_traceback(self, tmp_path, args):
        # The read end of stdout's pipe is closed before the process starts,
        # so its first line already meets a broken pipe.  A run goes on and
        # writes its files.
        src = str(Path(cli.__file__).resolve().parents[1])
        read, write = os.pipe()
        os.close(read)
        with os.fdopen(write, "wb") as stdout:
            done = subprocess.run(
                [sys.executable, "-m", "sgdscope.cli", *args, "--out_dir", str(tmp_path / "run")],
                stdout=stdout, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": src}, timeout=60,
            )
        assert (done.returncode, done.stderr) == (0, "")
        assert (tmp_path / "run" / "simulate.json").exists() == ("--help" not in args)

    def test_gen_data_overflow_prints_only_the_error_line(self, tmp_path):
        # In a fresh process, so that a numpy warning would reach stderr.
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "sgdscope.cli", "gen-data", "--out_dir", str(tmp_path),
             "--center_scale", "1e308", "--master_seed", "2"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert done.returncode == 1
        assert done.stderr == "error: gen-data: center_scale = 1e+308 gives non-finite features\n"
        assert not (tmp_path / "dataset.csv").exists()

    def test_config_resolved_runs_again_with_command_line_paths(self, tmp_path, capsys,
                                                                monkeypatch):
        write_matrix_csv(tmp_path / "h.csv", SymMatrix(np.diag([1.0, 2.0])))
        write_matrix_csv(tmp_path / "c.csv", SymMatrix(np.diag([0.1, 0.3])))
        monkeypatch.chdir(tmp_path)
        self.run_ok(["lyapunov", "--hessian_file", "h.csv", "--noise_file", "c.csv",
                     "--out_dir", "first", "--master_seed", "0"], capsys)
        self.run_ok(["--config", "first/config.resolved", "--out_dir", "again"], capsys)
        for name in ("gamma.csv", "lyapunov.json"):
            assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "first" / name).read_bytes()
