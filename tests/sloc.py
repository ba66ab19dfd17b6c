"""Source lines per module of two trees, and their difference.

Usage:
  ``python tests/sloc.py OLD NEW``
      where OLD and NEW are repository roots.

A line counts when it is not blank and does not start with ``#`` once
stripped: perfbench's rule.  Every ``src/seqcal/*.py`` module of either
tree is listed, ``verify`` included, with its count in each tree and
NEW minus OLD; a module missing from one tree counts 0 lines there.
Only the standard library is used.
"""

from __future__ import annotations

import sys
from pathlib import Path


def sloc(path: Path) -> int:
    """Non-blank, non-comment lines of one file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))


def counts(root: str) -> dict:
    """{module: source lines} of every module of a tree's package."""
    return {path.stem: sloc(path) for path in sorted(Path(root, "src", "seqcal").glob("*.py"))}


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = counts(argv[1]), counts(argv[2])
    print(f"{'module':<12}{'old':>7}{'new':>7}{'delta':>7}")
    for module in sorted(old.keys() | new.keys()):
        a, b = old.get(module, 0), new.get(module, 0)
        print(f"{module:<12}{a:>7}{b:>7}{b - a:>+7}")
    a, b = sum(old.values()), sum(new.values())
    print(f"{'total':<12}{a:>7}{b:>7}{b - a:>+7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
