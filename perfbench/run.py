"""sgdscope benchmark: closed loop, one client, one workload run per process.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The benchmark writes the workload's
inputs from ``--seed`` under ``.perfbench/<workload>/``, then starts one
fresh worker process after another (each waits for the previous one) until
``--seconds`` are used, every worker with ``workers=1`` and BLAS pinned to
one thread.  Every worker's outputs are checked against oracles and hashed;
all runs with one seed must write identical bytes.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over the runs; ``wall_s`` and ``setup_s`` scaled to a host of
reference speed, see ``worker.py``), with ``--trace 1`` the per-layer
metrics of the traced runs, which alternate with untraced ones so that the
tracing overhead can be given.  ``attempted``/``failed`` count checked
outputs (``ops``/``ops_failed``).  The lines before it give each metric's
quartiles, the times as measured, and the environment;
``.perfbench/<workload>/report.json`` holds the same.
``--workload all`` runs every workload and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})
os.environ["SGDSCOPE_WORKERS"] = "1"

import numpy as np  # noqa: E402  (after pinning BLAS threads)

from tracer import summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKER_TIMEOUT_S = 120
RUN_LIMIT_S = 150


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def catalog() -> dict:
    """Every metric with its unit, layer, what it should move and whether
    it is an exact count; ``BENCHMARK.json`` repeats part of it."""
    return json.loads((HERE / "catalog.json").read_text(encoding="utf-8"))


def _worker(spec: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    root = Path.cwd()
    if not (root / "src" / "sgdscope" / "__init__.py").is_file():
        raise BenchmarkError(f"no sgdscope sources under {root / 'src'}; run from a checkout root")
    workload = WORKLOADS[name]
    work = root / ".perfbench" / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    workload.make_inputs(work / "inputs", seed)

    runs: list[dict] = []
    min_runs = 4 if trace else 3
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if len(runs) >= min_runs and (elapsed * (len(runs) + 1) / len(runs) > seconds
                                      or elapsed > RUN_LIMIT_S):
            break
        i = len(runs)
        traced = trace and i % 2 == 1
        out = work / f"run{i:02d}"
        out.mkdir()
        spans = work / f"spans{i:02d}.npz"
        result = _worker({"workload": name, "inputs": str(work / "inputs"), "out": str(out),
                          "trace": str(spans) if traced else None})
        result["traced"] = traced
        if traced and "error" not in result:
            result["layers"], result["absent"] = summarize(spans)
        runs.append(result)
    return _report(name, seed, trace, runs)


def _report(name: str, seed: int, trace: bool, runs: list[dict]) -> dict:
    ops, failures = 0, []

    def op(label: str, ok: bool, detail: str) -> None:
        nonlocal ops
        ops += 1
        if not ok:
            failures.append(f"{label}: {detail}")

    good = [r for r in runs if "error" not in r]
    for i, r in enumerate(runs):
        if "error" in r:
            op(f"run{i:02d}", False, r["error"].strip().splitlines()[-1])
            continue
        for label, ok, detail in r["checks"]:
            op(f"run{i:02d}.{label}", ok, detail)
    if good:
        reference = good[0]["digests"]
        for r in good[1:]:
            for file in sorted(set(reference) | set(r["digests"])):
                op(f"determinism.{file}", reference.get(file) == r["digests"].get(file),
                   "output bytes differ between runs with one seed")
    exact = [m["name"] for m in catalog()["per_layer"] if m["exact"]]
    traced = [r for r in good if r["traced"]]
    for r in traced[1:]:
        differ = [k for k in exact if r["layers"][k] != traced[0]["layers"][k]]
        op("trace.exact_counts", not differ, f"counts differ between traced runs: {differ}")

    plain = [r for r in good if not r["traced"]]
    spreads, measured = {}, {}
    if plain:
        spreads["wall_s"] = _spread([r["wall_s"] for r in plain])
        spreads["setup_s"] = _spread([s for r in plain for s in r["setup_s"]])
        spreads["peak_rss_mb"] = _spread([r["peak_rss_mb"] for r in plain])
        measured["wall_s"] = _spread([r["measured"]["wall_s"] for r in plain])
        measured["setup_s"] = _spread([s for r in plain for s in r["measured"]["setup_s"]])
        measured["reference_s"] = _spread([s for r in plain for s in r["reference_s"]])
    if traced and plain:
        for key in traced[0]["layers"]:
            spreads[key] = _spread([r["layers"][key] for r in traced])
        overhead = statistics.median(r["wall_s"] for r in traced) / spreads["wall_s"]["median"] - 1.0
        spreads["trace_overhead_frac"] = _spread([overhead])
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in catalog()[section]}
    missing = [k for k in units if k not in spreads]
    op("metrics", not missing, f"no measurement for {missing}")
    return {
        "workload": name,
        "environment": _environment(seed),
        "runs": len(runs),
        "spreads": spreads,
        "measured": measured,
        "absent": traced[0]["absent"] if traced else [],
        "failures": failures,
        "result": {
            "correct": not failures,
            "attempted": ops,
            "failed": len(failures),
            "metrics": {k: {"value": spreads[k]["median"], "unit": u}
                        for k, u in units.items() if k in spreads},
        },
    }


def _print_report(report: dict) -> None:
    metrics = catalog()
    units = {m["name"]: m["unit"] for m in metrics["end_to_end"] + metrics["per_layer"]}
    print(f"workload {report['workload']}: {report['runs']} runs, "
          f"environment {json.dumps(report['environment'])}")
    for key, s in report["spreads"].items():
        print(f"  {key:30s} {s['median']:.6g} {units[key]}  "
              f"(quartiles {s['q1']:.6g} .. {s['q3']:.6g}, n={s['n']})")
    for key, s in report["measured"].items():
        print(f"  {'measured ' + key:30s} {s['median']:.6g} s  "
              f"(quartiles {s['q1']:.6g} .. {s['q3']:.6g}, n={s['n']})")
    result = report["result"]
    print(f"  {'ops':30s} {result['attempted']} count")
    print(f"  {'ops_failed':30s} {result['failed']} count")
    for name in report["absent"]:
        print(f"  absent: {name}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reports = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except (BenchmarkError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        _print_report(report)
        path = Path.cwd() / ".perfbench" / report["workload"] / "report.json"
        path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if args.workload == "all":
        print(json.dumps({r["workload"]: r["result"] for r in reports}))
    else:
        print(json.dumps(reports[0]["result"]))
    return 0 if all(r["result"]["correct"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
