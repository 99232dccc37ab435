"""One workload run in a fresh process.

Started by ``run.py`` from the root of a checkout with BLAS pinned to one
thread; imports ``sgdscope`` from that checkout's ``src``.  Prints one JSON
line: the run's wall and setup times, peak RSS, oracle results and the
digests of every file it wrote.  With a trace path in the spec the run is
traced and its spans are written there.

Times are reported twice: as measured, and scaled to a host of reference
speed.  A fixed reference loop (``_reference``: cyclic Jacobi sweeps on a
12x12 matrix, Python loops over small numpy operations like the workloads'
own) is timed right before and right after the timed part, and every time
of the run is multiplied by ``REFERENCE_S`` over the mean of the two.  On a
shared host other tenants slow all code by up to 60% in phases of seconds
to minutes; the reference loop slows alike, so the scaled times keep the
program's cost and drop most of the host's drift.  The loop is the
benchmark's own code and calls nothing of ``sgdscope``.

Usage: python3 perfbench/worker.py '<json spec>'
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

REFERENCE_S = 0.1  # the scaled times are those of a host running _reference in 0.1 s


def _digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.suffix in (".csv", ".json")}


def _peak_rss_mb() -> float:
    """This process's own peak resident set size, in MiB.

    Linux carries the parent's high-water mark into ``ru_maxrss`` across
    fork and exec, so the kernel's per-image ``VmHWM`` is read where it
    exists.
    """
    try:
        status = Path("/proc/self/status").read_text(encoding="ascii")
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    line = next(x for x in status.splitlines() if x.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024.0


def _reference() -> float:
    """Seconds taken by a fixed amount of interpreter and small-array work."""
    n = 12
    b = np.random.default_rng(0).standard_normal((n, n))
    start = perf_counter()
    for _ in range(40):
        a = b @ b.T
        for _sweep in range(3):
            for p in range(n - 1):
                for q in range(p + 1, n):
                    theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                    c = 1.0 / math.sqrt(t * t + 1.0)
                    s = t * c
                    row_p, row_q = a[p, :].copy(), a[q, :].copy()
                    a[p, :], a[q, :] = c * row_p - s * row_q, s * row_p + c * row_q
                    col_p, col_q = a[:, p].copy(), a[:, q].copy()
                    a[:, p], a[:, q] = c * col_p - s * col_q, s * col_p + c * col_q
    return perf_counter() - start


def main(spec: dict) -> dict:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import sgdscope as sc

    if not Path(sc.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"sgdscope was imported from {sc.__file__}, not from {root / 'src'}")
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    inputs, out = Path(spec["inputs"]), Path(spec["out"])
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    reference = [_reference()]
    try:
        start = perf_counter()
        state = workload.setup(sc, inputs)
        ready = perf_counter()
        result = workload.run(sc, state, out)
        wall = perf_counter() - start
    except Exception:
        return {"error": traceback.format_exc()}
    reference.append(_reference())
    measured = {"wall_s": wall, "setup_s": [ready - start]}
    peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spec["trace"])
    else:
        for _ in range(workload.setup_reps - 1):
            t0 = perf_counter()
            workload.setup(sc, inputs)
            measured["setup_s"].append(perf_counter() - t0)
    scale = REFERENCE_S / (sum(reference) / len(reference))
    report = {"wall_s": wall * scale, "setup_s": [t * scale for t in measured["setup_s"]],
              "peak_rss_mb": peak_rss_mb, "measured": measured, "reference_s": reference}
    try:
        report["checks"] = workload.check(sc, state, result)
    except Exception:
        report["checks"] = [("oracle", False, traceback.format_exc())]
    report["digests"] = _digests(out)
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
