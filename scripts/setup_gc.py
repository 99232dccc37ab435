#!/usr/bin/env python3
"""Print what the garbage collector does in each scheduled perfbench setup.

perfbench times the first ``setup(sc, inputs)`` call of each worker process
as ``setup_s``.  CPython's cyclic collector runs when its generation-0
count (container objects allocated minus those freed since the last
collection) passes a threshold, so a collection falls inside or just
outside that timed call depending on everything the process did before it:
the imports, the module bodies, the reference loop.  This probe shows where
the collections fall for a source tree.

Usage: python3 scripts/setup_gc.py <tree> [seed]

For each workload that ``<tree>/BENCHMARK.json`` schedules, the probe runs
``<tree>/perfbench/worker.py`` itself, once, untraced, from ``<tree>``, on
inputs that the workload's ``make_inputs`` wrote for ``seed`` (default 1)
into a temporary directory.  So ``sgdscope`` is imported in the worker's
order, and the reference loop and the setup run as in a benchmark run.  A
``sitecustomize`` module, put on ``PYTHONPATH`` from the temporary
directory, logs ``gc.get_count()`` and the collections of each generation
at each ``time.perf_counter()`` call; the setup lies between the worker's
third and fourth call.  One line per workload:

    dense-lyap    collected during setup: none      count before: (87, 0, 5)  after: (121, 0, 5)

with ``gc.get_threshold()`` and the objects the hook keeps alive.  A
generation-0 count just under the first threshold after the setup means
that a few more objects anywhere before it move a collection into it.

The hook is not free: its objects, the extra ``sys.path`` entry and its
import shift every count, and a collection that then falls a few hundred
allocations earlier or later changes which objects survive, so the counts
after it differ by more than the hook's size.  Compare trees with this
probe; do not read its positions as perfbench's.  (A copy of a worker that
held one extra list before the setup showed a generation-1 collection in
``dense-lyap``'s setup where this probe, on the same tree, shows none.)
The workers run with ``PYTHONDONTWRITEBYTECODE=1``, so nothing under
``<tree>`` is written and the tree's modules are compiled from source in
every run.
"""

from __future__ import annotations

import ast
import gc
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# The worker's third and fourth perf_counter() calls bracket the timed setup;
# the first two are the reference loop's.
_SETUP_START_CALL = 3
# Keeps as few objects alive as it can: its module and globals, one function
# and one list of ints, six per perf_counter() call: gc.get_count() and the
# collections of each generation so far.  It installs no gc callback, which
# would allocate at every collection.
_HOOK = r"""
import gc
_start = gc.get_count()[0]
import sys, time
_perf_counter, _log = time.perf_counter, []


def _counted_perf_counter():
    _log.extend(gc.get_count())
    _log.extend(generation["collections"] for generation in gc.get_stats())
    if len(_log) == 6 * %d:
        sys.stderr.write(f"setup_gc {_kept} {_log}\n")
    return _perf_counter()


time.perf_counter = _counted_perf_counter
_kept = gc.get_count()[0] - _start + 2  # + 2: this module and its dict
""" % (_SETUP_START_CALL + 1)


def _worker(tree: Path, name: str, work: Path, env: dict) -> tuple[int, list[tuple[int, ...]]]:
    """The hook's objects and, per perf_counter() call, the three counts and the collections so far."""
    spec = {"workload": name, "inputs": str(work / name), "out": str(work / f"{name}-out"), "trace": None}
    done = subprocess.run([sys.executable, str(tree / "perfbench" / "worker.py"), json.dumps(spec)],
                          cwd=tree, env=env, capture_output=True, text=True, check=True)
    if "error" in json.loads(done.stdout.strip().splitlines()[-1]):
        raise SystemExit(f"{name}: the worker failed:\n{done.stdout}")
    kept, log = next(x for x in done.stderr.splitlines() if x.startswith("setup_gc ")).split(" ", 2)[1:]
    log = ast.literal_eval(log)
    return int(kept), [tuple(log[i : i + 6]) for i in range(0, len(log), 6)]


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[2], file=sys.stderr)
        return 2
    tree = Path(argv[0]).resolve()
    seed = int(argv[1]) if len(argv) == 2 else 1
    names = [w["name"] for w in json.loads((tree / "BENCHMARK.json").read_text())["workloads"]]
    sys.dont_write_bytecode = True  # leave no __pycache__ in the tree's perfbench/
    sys.path.insert(0, str(tree / "perfbench"))
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix="sgdscope-setup-gc-") as tmp:
        work = Path(tmp)
        (work / "hook").mkdir()
        (work / "hook" / "sitecustomize.py").write_text(_HOOK)
        env = dict(os.environ, PYTHONPATH=str(work / "hook"), PYTHONDONTWRITEBYTECODE="1", SGDSCOPE_WORKERS="1")
        env.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                                          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")})
        for name in names:
            for sub in (name, f"{name}-out"):
                (work / sub).mkdir()
            WORKLOADS[name].make_inputs(work / name, seed)
        for name in names:
            kept, calls = _worker(tree, name, work, env)
            before, after = calls[_SETUP_START_CALL - 1], calls[_SETUP_START_CALL]
            during = ", ".join(f"gen{g}" for g in range(3) for _ in range(after[3 + g] - before[3 + g]))
            print(f"{name:<14}collected during setup: {during or 'none':<10}count before: {before[:3]}  "
                  f"after: {after[:3]}    thresholds: {gc.get_threshold()}    hook objects: {kept}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
