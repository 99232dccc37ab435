"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import sleep

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import sgdscope  # noqa: E402,F401  (the tracer wraps loaded sgdscope modules)
import worker  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_benchmark_json_is_the_catalog_without_annotations():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalog = run.catalog()
    assert [w["name"] for w in catalog["workloads"]] == list(WORKLOADS)
    assert bench["workloads"] == [{"name": w["name"], "why": w["why"]}
                                  for w in catalog["workloads"] if "left_out" not in w]
    for section, keys in (("end_to_end", ("name", "unit", "better", "bound")),
                          ("per_layer", ("name", "unit", "better"))):
        assert bench[section] == [{k: m[k] for k in keys} for m in catalog[section]]
        assert all(m["layer"] and m["moves"] for m in catalog[section])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_summary_reports_every_per_layer_metric(tmp_path):
    tracer = Tracer()
    tracer.dump(tmp_path / "spans.npz")
    metrics, absent = summarize(tmp_path / "spans.npz")
    names = [m["name"] for m in run.catalog()["per_layer"]]
    assert sorted(metrics) == sorted(n for n in names if n != "trace_overhead_frac")
    assert absent == []


def test_self_time_excludes_child_spans(tmp_path):
    tracer = Tracer()
    inner = tracer._wrap("linalg.inner", "linalg.eig", lambda: sleep(0.02))

    def body():
        sleep(0.01)
        inner()
        inner()

    outer = tracer._wrap("linalg.outer", "linalg.sqrt_spd", body)
    outer()
    tracer.dump(tmp_path / "spans.npz")
    metrics, _ = summarize(tmp_path / "spans.npz")
    assert 0.04 <= metrics["linalg.eig_s"] < 0.06
    assert 0.01 <= metrics["linalg.sqrt_spd_s"] < 0.02


def test_removed_functions_are_reported_absent(monkeypatch):
    monkeypatch.delattr(sgdscope.engine, "sgd_run")
    tracer = Tracer()
    tracer.install()
    try:
        assert "engine.sgd_run" in tracer.absent
        assert hasattr(sgdscope.experiments.scan_bs_lr, "__wrapped__")
        assert hasattr(sgdscope.scan_bs_lr, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(sgdscope.scan_bs_lr, "__wrapped__")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_runs_pass_and_repeat_exact_counts(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    report = run.run_workload(name, seed=5, seconds=0, trace=True)
    assert report["failures"] == []
    exact = [m["name"] for m in run.catalog()["per_layer"] if m["exact"]]
    for key in exact:
        assert report["spreads"][key]["q1"] == report["spreads"][key]["q3"], key
    if name == "dense-lyap":
        assert report["result"]["metrics"]["linalg.eig_unique_frac"]["value"] == 0.5


def test_times_are_scaled_by_the_reference_loop(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    WORKLOADS["clt-ensemble"].make_inputs(inputs, 1)
    report = worker.main({"workload": "clt-ensemble", "inputs": str(inputs),
                          "out": str(out), "trace": None})
    assert len(report["reference_s"]) == 2
    scale = worker.REFERENCE_S / statistics.mean(report["reference_s"])
    assert report["wall_s"] == pytest.approx(report["measured"]["wall_s"] * scale)
    assert report["setup_s"] == pytest.approx([t * scale for t in report["measured"]["setup_s"]])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quad-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
