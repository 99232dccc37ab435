#!/usr/bin/env python3
"""Print one sha256 per output of the bundled configs and demos.

Runs every ``configs/*.cfg`` with ``SGDSCOPE_WORKERS=1`` and every ``demos/*.py``
in a temporary directory, against the source tree given as the argument
(default: the checkout this script sits in), and prints ``<sha256>  <name>``
for each ``.csv``/``.json`` file written, for each demo's stdout, and for
each config's ``config.resolved`` echo.  The echo is digested without its
``out_dir`` line, with its input paths taken relative to the source tree,
so that it does not depend on where the tree or the temporary directory is.

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


def _echo(path: Path, root: Path) -> bytes:
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        if key == "out_dir":
            continue
        if key.endswith("_file"):
            value = os.path.relpath(path.parent / value, root)
        lines.append(f"{key} = {value}\n")
    return "".join(lines).encode()


def _digests(root: Path, work: Path):
    env = dict(os.environ, PYTHONPATH=str(root / "src"), SGDSCOPE_WORKERS="1")
    for cfg in sorted((root / "configs").glob("*.cfg")):
        out = work / "configs" / cfg.stem
        _run([sys.executable, "-m", "sgdscope.cli", "--config", str(cfg),
              "--out_dir", str(out)], work, env)
    for demo in sorted((root / "demos").glob("*.py")):
        cwd = work / "demos" / demo.stem
        cwd.mkdir(parents=True)
        stdout = _run([sys.executable, str(demo)], cwd, env)
        yield f"demos/{demo.stem}/stdout", hashlib.sha256(stdout).hexdigest()
    for path in sorted(work.rglob("*")):
        if path.suffix in (".csv", ".json"):
            data = path.read_bytes()
        elif path.name == "config.resolved":
            data = _echo(path, root)
        else:
            continue
        yield str(path.relative_to(work)), hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    with tempfile.TemporaryDirectory(prefix="sgdscope-digests-") as tmp:
        for name, digest in sorted(_digests(root, Path(tmp))):
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
