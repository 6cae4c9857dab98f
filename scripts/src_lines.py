#!/usr/bin/env python3
"""Count the non-blank, non-comment lines of each Python module in a tree.

A line counts unless it is empty or whitespace, or its first non-blank
character is ``#``; docstrings count as code.  Prints one ``count path``
line per module, sorted by path relative to DIR, then ``total``.

Usage:
  python scripts/src_lines.py [DIR]     (default: src/powerstruct)

Stdlib only.
"""

from __future__ import annotations

import sys
from pathlib import Path


def code_lines(path: Path) -> int:
    lines = (line.strip() for line in path.read_text().splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent / "src" / "powerstruct")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path.relative_to(root)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
