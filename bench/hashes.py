"""Recompute the three seed-155 output hashes recorded in ROADMAP.md and
print each beside the recorded value.

Usage, from the root of a checkout:

    python3 bench/hashes.py

It reports only: the exit status is 0 whether or not the hashes match, and
no benchmark run depends on it. The commands run as `python -m uca.cli`
processes in ``.bench_work/hashes/``, which is rebuilt each time:

- corpus tree: ``uca fixtures --out-dir corpus --seed 155``, then
  ``find . -type f | LC_ALL=C sort | xargs sha256sum | sha256sum`` inside
  ``corpus``;
- ``uca --format json report``, its standard output;
- ``cat ex/*.csv`` after ``uca export --out-dir ex``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

RECORDED = {
    "corpus tree": "ed864f0e135103f8d028d64f28252f1e137ad05c2f0cd8f91e528a8487e16aec",
    "json report": "5708f57abe7840678531243c2fbae8c871082d0d9fae08e07d77dcd3b0af034b",
    "export csv": "3d1b3d9ba6acae620447cfc2172391d95f55790c1ef0b6d1a094fc8a255752b8",
}


def uca(work: Path, *argv: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    return subprocess.run([sys.executable, "-m", "uca.cli", "--store", "uca.db", *argv],
                          cwd=work, env=env, capture_output=True, check=True).stdout


def tree_hash(directory: Path) -> str:
    """sha256 of ``find . -type f | LC_ALL=C sort | xargs sha256sum``."""
    names = sorted(("./" + p.relative_to(directory).as_posix()).encode()
                   for p in directory.rglob("*") if p.is_file())
    listing = b"".join(
        hashlib.sha256((directory / name[2:].decode()).read_bytes()).hexdigest().encode()
        + b"  " + name + b"\n"
        for name in names)
    return hashlib.sha256(listing).hexdigest()


def main() -> int:
    work = Path(".bench_work") / "hashes"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    uca(work, "fixtures", "--out-dir", "corpus", "--seed", "155")
    computed = {"corpus tree": tree_hash(work / "corpus")}
    computed["json report"] = hashlib.sha256(uca(work, "--format", "json", "report")).hexdigest()
    uca(work, "export", "--out-dir", "ex")
    csv_bytes = b"".join(p.read_bytes() for p in sorted((work / "ex").glob("*.csv")))
    computed["export csv"] = hashlib.sha256(csv_bytes).hexdigest()
    for name, digest in computed.items():
        verdict = "same" if digest == RECORDED[name] else "DIFFERENT"
        print(f"{name:<12} {verdict:<9} computed {digest}\n{'':<22} ROADMAP  {RECORDED[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
