"""Mutation audit of raise statements: which checks does no test need?

Usage, from the root of a checkout:

    python3 tools/raise_audit.py src/uca/repository.py src/uca/stats.py

For each ``raise`` statement in the given modules, one at a time, a scratch
copy of the checkout gets that statement replaced by ``pass`` (its other lines
left blank, so no line number moves), and the Tier-1 suite runs on the copy
with ``-x -q``. A mutant whose run passes "survives": no test needs its raise.
The survivors are printed as ``path:line``; the checkout itself is never
written, and a module path outside it is refused. A run past 900 s counts as
killed, since a check whose removal hangs the suite is needed.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

_TIMEOUT_S = 900
_IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                  ".bench_work")


def raise_spans(source: str) -> list[tuple[int, int]]:
    """(first line, last line) of each raise statement, in source order."""
    return sorted((node.lineno, node.end_lineno) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Raise))


def mutate(source: str, first: int, last: int) -> str:
    """``source`` with lines first..last (1-based) replaced by one ``pass``."""
    lines = source.splitlines(keepends=True)
    indent = lines[first - 1][:len(lines[first - 1]) - len(lines[first - 1].lstrip())]
    lines[first - 1:last] = [f"{indent}pass\n"] + ["\n"] * (last - first)
    return "".join(lines)


def suite_passes(copy: Path) -> bool:
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=_TIMEOUT_S).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", type=Path, help="module paths in this checkout")
    parser.add_argument("--scratch", type=Path, default=None,
                        help="directory for the scratch copy (default: the system temp dir)")
    args = parser.parse_args()
    checkout = Path.cwd().resolve()
    # relative_to raises for a path outside the checkout, so an absolute
    # argument can never make ``copy / module`` name a file in the checkout
    modules = [(checkout / m).resolve().relative_to(checkout) for m in args.modules]
    survivors: list[str] = []
    total = 0
    with tempfile.TemporaryDirectory(dir=args.scratch) as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(checkout, copy, ignore=_IGNORED)
        for module in modules:
            source = (checkout / module).read_text(encoding="utf-8")
            target = copy / module
            try:
                for first, last in raise_spans(source):
                    total += 1
                    target.write_text(mutate(source, first, last), encoding="utf-8")
                    survived = suite_passes(copy)
                    print(f"{module}:{first}: {'SURVIVED' if survived else 'killed'}",
                          flush=True)
                    if survived:
                        survivors.append(f"{module}:{first}")
            finally:
                target.write_text(source, encoding="utf-8")
    print(f"{total} raise statements, {total - len(survivors)} killed,"
          f" {len(survivors)} survived")
    for survivor in survivors:
        print(f"survivor: {survivor}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
