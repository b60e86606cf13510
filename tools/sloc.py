"""Size of the package: the non-blank, non-comment lines of each module.

Usage, from the root of a checkout:

    python3 tools/sloc.py [DIRECTORY]

DIRECTORY defaults to ``src/uca``. A line counts unless it is blank or its
first non-blank character is ``#``; docstrings count. Prints one
``count  path`` line per ``*.py`` file under DIRECTORY, by path, then the
total. Reads the files and writes nothing.
"""

from __future__ import annotations

import sys
from pathlib import Path


def count_lines(path: Path) -> int:
    """The lines of ``path`` that are neither blank nor a comment."""
    with open(path, encoding="utf-8") as handle:
        return sum(1 for line in handle if line.strip() and not line.lstrip().startswith("#"))


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/uca")
    modules = sorted(root.rglob("*.py"))
    if not modules:
        print(f"no Python modules under {root}", file=sys.stderr)
        return 1
    total = 0
    for path in modules:
        lines = count_lines(path)
        total += lines
        print(f"{lines:6,d}  {path}")
    print(f"{total:6,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
