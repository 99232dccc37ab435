#!/usr/bin/env python3
"""Time named calls of the lockstep core of two source trees against each other, in one process.

Usage: python3 scripts/bench_core.py <tree A> <tree B> <pairs> <out.json>

Loads ``src/sgdscope`` of both trees as two packages (their submodules only,
as ``scripts/bench_writers.py`` does) and builds, per tree, the core calls
below: ``engine._advance_rows`` at ``workers=1``, in the shapes the
benchmark workloads and the acceptance fixtures give it.  Each call runs
``pairs`` times per tree, interleaved (tree A first in even pairs).  Per
call it reports the minimum and median time in µs per replica-step, the
number of pairs in which B was faster, and whether both trees gave the same
bits in every record column, final state, record count and divergence step.
Results are printed one line per call and written to ``out.json``.  BLAS is
pinned to one thread, as in the benchmark.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

H_DIAG = [0.5, 1.0, 1.5, 2.0, 2.5]


def _load(tree: str, name: str) -> dict:
    package = types.ModuleType(name)
    package.__path__ = [str(Path(tree) / "src" / "sgdscope")]
    sys.modules[name] = package
    return {m: importlib.import_module(f"{name}.{m}") for m in ("linalg", "problems", "engine")}


def _calls(m: dict) -> dict:
    """Label -> (description, model, theta0, lrs, batch sizes, seeds, steps, keywords)."""
    sym, problems = m["linalg"].SymMatrix, m["problems"]
    diag = problems.make_quadratic(np.diag(H_DIAG), np.zeros(5), 0.2 * np.eye(5))
    saddle = problems.QuadraticModel(sym(np.diag([1.0, -1.0])), np.zeros(2), sym(np.eye(2)),
                                     require_positive_definite=False)
    clt = problems.make_quadratic(np.array([[1.0, 0.3], [0.3, 0.7]]), np.zeros(2),
                                  np.array([[0.5, 0.1], [0.1, 0.4]]))
    rng = np.random.default_rng(64)
    a, b = rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
    dense = problems.make_quadratic(a @ a.T / 64 + 0.5 * np.eye(64), np.zeros(64),
                                    b @ b.T / 64 + 0.1 * np.eye(64))
    return {
        "quad-scan scan": (
            "p = 5 diagonal, 6 rows (lr 0.01/0.02/0.04 x 2 replicas, m = 10) x 10^4 steps, stride 1",
            diag, np.zeros(5), [0.01, 0.01, 0.02, 0.02, 0.04, 0.04], [10] * 6, list(range(6)), 10_000,
            {"record_stride": 1}),
        "quad-scan saddle": (
            "p = 2 diag(1, -1), 10 rows (lr 0.01, m = 1) x 5,000 steps, stride 1, snapshots",
            saddle, np.zeros(2), [0.01] * 10, [1] * 10, list(range(10)), 5_000,
            {"record_stride": 1, "snapshots": True}),
        "criterion-3 shape": (
            "p = 5 diagonal, 5 rows (lr 0.01, m = 10) x 2*10^5 steps, stride 200 (the fixture's "
            "stride at 2*10^6 steps)",
            diag, np.zeros(5), [0.01] * 5, [10] * 5, list(range(5)), 200_000, {"record_stride": 200}),
        "one-row sgd_run": (
            "p = 5 diagonal, 1 row (lr 0.01, m = 10) x 2*10^4 steps, stride 1 (plane-order noise products)",
            diag, np.zeros(5), [0.01], [10], [7], 20_000, {"record_stride": 1}),
        "clt-ensemble call": (
            "p = 2 full, 2,000 rows (lr 10^-4, m = 10) x 10^4 steps, final state only",
            clt, np.zeros(2), [1e-4] * 2000, [10] * 2000, np.random.SeedSequence(9).spawn(2000), 10_000,
            {"record_stride": 10_000}),
        "dense-lyap row": (
            "p = 64 full, 1 row (lr 0.05, m = 10) x 4,000 steps, stride 20, snapshots",
            dense, np.zeros(64), [0.05], [10], [11], 4_000, {"record_stride": 20, "snapshots": True}),
    }


def _fingerprint(run) -> bytes:
    parts = [run.counts, run.finals] + [getattr(run, c) for c in run.RECORD_COLUMNS
                                        if getattr(run, c) is not None]
    steps = sorted((r, err.step) for r, err in run.failures.items())
    return b"".join(np.ascontiguousarray(x).tobytes() for x in parts) + repr(steps).encode()


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = {"a": _load(argv[0], "sgdscope_a"), "b": _load(argv[1], "sgdscope_b")}
    pairs, out_json = int(argv[2]), Path(argv[3])
    calls = {t: _calls(trees[t]) for t in trees}
    result = {}
    for label in calls["a"]:
        what, _, _, lrs, _, _, steps, _ = calls["a"][label]

        def run(t):
            _, model, theta0, lrs, ms, seeds, steps, keywords = calls[t][label]
            return trees[t]["engine"]._advance_rows(model, theta0, lrs, ms, seeds, steps, workers=1,
                                                    **keywords)

        same = _fingerprint(run("a")) == _fingerprint(run("b"))
        times = {t: [] for t in trees}
        for i in range(pairs):
            for t in ("a", "b") if i % 2 == 0 else ("b", "a"):
                start = perf_counter()
                run(t)
                times[t].append(perf_counter() - start)
        per_step = {t: [s * 1e6 / (len(lrs) * steps) for s in times[t]] for t in trees}
        result[label] = {
            "call": what,
            "same_bits": same,
            "pairs": pairs,
            **{f"{t}_us_per_replica_step": {"min": min(per_step[t]), "median": statistics.median(per_step[t])}
               for t in trees},
            **{f"{t}_ms_median": statistics.median(times[t]) * 1e3 for t in trees},
            "b_faster_pairs": sum(b < a for a, b in zip(times["a"], times["b"])),
        }
        r = result[label]
        print(f"{label:18s} same bits {same}  µs/replica-step median "
              f"{r['a_us_per_replica_step']['median']:.4f} / {r['b_us_per_replica_step']['median']:.4f}"
              f"  ({r['a_ms_median']:.1f} / {r['b_ms_median']:.1f} ms)  B faster {r['b_faster_pairs']}/{pairs}")
    out_json.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
