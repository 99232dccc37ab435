#!/usr/bin/env python3
"""Print one sha256 per output of the bundled configs and demos.

Runs every ``configs/*.cfg`` with ``--workers 1`` and every ``demos/*.py``
in a temporary directory, against the source tree given as the argument
(default: the checkout this script sits in), and prints ``<sha256>  <name>``
for each ``.csv``/``.json`` file written and for each demo's stdout.
``config.resolved`` is skipped: its ``out_dir`` line is a path.

Two trees give byte-identical outputs when their listings are equal:

    python3 scripts/output_digests.py > new.txt
    python3 scripts/output_digests.py /path/to/other/checkout > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def _run(args, cwd: Path, env: dict) -> bytes:
    done = subprocess.run(args, cwd=cwd, env=env, stdout=subprocess.PIPE, check=True)
    return done.stdout


def _digests(root: Path, work: Path):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("SGDSCOPE_WORKERS", None)
    for cfg in sorted((root / "configs").glob("*.cfg")):
        out = work / "configs" / cfg.stem
        _run([sys.executable, "-m", "sgdscope.cli", "--config", str(cfg),
              "--out_dir", str(out), "--workers", "1"], work, env)
    for demo in sorted((root / "demos").glob("*.py")):
        cwd = work / "demos" / demo.stem
        cwd.mkdir(parents=True)
        stdout = _run([sys.executable, str(demo)], cwd, env)
        yield f"demos/{demo.stem}/stdout", hashlib.sha256(stdout).hexdigest()
    for path in sorted(work.rglob("*")):
        if path.suffix in (".csv", ".json"):
            yield str(path.relative_to(work)), hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    with tempfile.TemporaryDirectory(prefix="sgdscope-digests-") as tmp:
        for name, digest in sorted(_digests(root, Path(tmp))):
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
