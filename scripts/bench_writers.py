#!/usr/bin/env python3
"""Time the six CSV writers of two source trees against each other, in one process.

Usage: python3 scripts/bench_writers.py <tree A> <tree B> <pairs> <out.json>

Loads ``src/sgdscope`` of both trees as two packages (their submodules only,
so the package ``__init__`` does not import either tree under the name
``sgdscope``), builds one input per writer in the shapes the benchmark
workloads write, and checks that both trees write the same bytes.  Then it
calls each writer ``pairs`` times per tree, interleaved (tree A first in
even pairs), each tree writing its own file, and reports per writer the
minimum and median time, the number of pairs in which B was faster, and
the ``tracemalloc`` peak (the least of three traced calls).  Results are
printed one line per writer and written to ``out.json``.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import tempfile
import tracemalloc
import types
from pathlib import Path
from time import perf_counter

import numpy as np


def _load(tree: str, name: str) -> dict:
    package = types.ModuleType(name)
    package.__path__ = [str(Path(tree) / "src" / "sgdscope")]
    sys.modules[name] = package
    return {m: importlib.import_module(f"{name}.{m}") for m in ("linalg", "problems", "engine", "experiments")}


def _cases(m: dict) -> dict:
    rng = np.random.default_rng(20)

    def traj(n, p=None, stride=1):
        steps = np.arange(n, dtype=np.int64) * stride
        return m["engine"].Trajectory(stride, steps, steps * 0.05, rng.random(n), rng.random(n),
                                      None if p is None else rng.standard_normal((n, p)))

    a = rng.standard_normal((64, 64))
    entries = [m["experiments"].CurveEntry(f"lr{i}_bs{i}", "base" if i == 0 else "same_ratio", 0.05, 32,
                                           traj(2001, stride=6), np.zeros(200), 0.1, rng.random(2001))
               for i in range(6)]
    row = dict(experiment_id="exp01", batch_size=10, learning_rate=0.01, ratio=1000.0, tr_h=7.5,
               tr_sigma2=1.0, tr_sigma2_h=1.5, measured_excess_loss=0.00123, measured_grad_norm_sq=0.0045,
               pred_j2018=0.0018, pred_w2019_loss=0.00025, pred_w2019_gradnorm=0.00075,
               magnitude_difference=7.5, replica_count=2)
    scan = [m["experiments"].ScanRow(**{**row, "experiment_id": f"exp0{i}", "learning_rate": 0.01 * 2**i})
            for i in range(3)]
    return {
        "write_snapshots_csv (201 x 64)": ("engine", "write_snapshots_csv", (traj(201, 64, 20),)),
        "write_matrix_csv (64 x 64)": ("linalg", "write_matrix_csv", (m["linalg"].SymMatrix(a @ a.T / 64),)),
        "write_trajectory_csv (10,001 rows)": ("engine", "write_trajectory_csv", (traj(10_001),)),
        "write_curves_csv (12,006 rows, accuracy)": (
            "experiments", "write_curves_csv",
            (m["experiments"].CurveSet(entries[0], entries[1:], np.zeros(200)),)),
        "write_scan_csv (3 rows)": ("experiments", "write_scan_csv", (scan,)),
        "write_dataset_csv (512 x 10)": ("problems", "write_dataset_csv",
                                         (rng.standard_normal((512, 10)), np.arange(512) % 3)),
    }


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = {"a": _load(argv[0], "sgdscope_a"), "b": _load(argv[1], "sgdscope_b")}
    pairs, out_json = int(argv[2]), Path(argv[3])
    result = {}
    with tempfile.TemporaryDirectory(prefix="bench-writers-") as tmp:
        for label, (module, name, args) in _cases(trees["b"]).items():
            writers = {t: getattr(trees[t][module], name) for t in trees}
            paths = {t: Path(tmp) / f"{t}.csv" for t in trees}
            for t in trees:
                writers[t](paths[t], *args)
            same = paths["a"].read_bytes() == paths["b"].read_bytes()
            times = {t: [] for t in trees}
            for i in range(pairs):
                for t in ("a", "b") if i % 2 == 0 else ("b", "a"):
                    start = perf_counter()
                    writers[t](paths[t], *args)
                    times[t].append(perf_counter() - start)
            peaks = {}
            for t in trees:
                traced = []
                for _ in range(3):
                    tracemalloc.start()
                    writers[t](paths[t], *args)
                    traced.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                peaks[t] = min(traced) / 2**20
            result[label] = {
                "same_bytes": same,
                "pairs": pairs,
                "a_ms": {"min": min(times["a"]) * 1e3, "median": statistics.median(times["a"]) * 1e3},
                "b_ms": {"min": min(times["b"]) * 1e3, "median": statistics.median(times["b"]) * 1e3},
                "b_faster_pairs": sum(b < a for a, b in zip(times["a"], times["b"])),
                "tracemalloc_peak_mib": peaks,
            }
            r = result[label]
            print(f"{label:42s} same bytes {same}  median {r['a_ms']['median']:.3f} / {r['b_ms']['median']:.3f} ms"
                  f"  B faster {r['b_faster_pairs']}/{pairs}  peak {peaks['a']:.2f} / {peaks['b']:.2f} MiB")
    out_json.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
