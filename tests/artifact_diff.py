"""Field-by-field moves between two sets of CLI artifacts.

Usage:
  ``PYTHONPATH=src python tests/artifact_diff.py run DIR``
      runs every golden config of ``golden_digests.py`` into DIR, one
      subdirectory per run;
  ``python tests/artifact_diff.py compare OLD NEW``
      compares two such directories.

For every artifact whose bytes differ, ``compare`` prints each field
path that moved: the largest relative move of its floats where the old
value's magnitude exceeds 1e-6, with that value's absolute move, the
largest absolute move otherwise, and any other difference
(an int, a string, a changed structure) with its count.  A JSON path joins keys with dots; list indices and
all-digit keys read ``*``, so a path covers every step, probe and run
of one kind.  A CSV path is the row's name, its first cell when that is
not a number and ``*`` otherwise, then the column header.  The volatile
``runinfo.json`` is skipped.  Only the standard library is used.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

SMALL = 1e-6


def _json_leaves(doc, path=""):
    """Yield (path, value) of every leaf of a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            name = "*" if key.isdigit() else key
            yield from _json_leaves(value, f"{path}.{name}" if path else name)
    elif isinstance(doc, list):
        for value in doc:
            yield from _json_leaves(value, f"{path}[*]")
    else:
        yield path, doc


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_leaves(text: str):
    """Yield (row name.column, value) of every cell but the header's; numbers as floats."""
    header, *rows = list(csv.reader(io.StringIO(text)))
    for row in rows:
        name = "*" if _number(row[0]) is not None else row[0]
        for column, cell in zip(header, row):
            value = _number(cell)
            yield f"{name}.{column}", cell if value is None else value


def _leaves(path: Path) -> list:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return list(_json_leaves(json.loads(text)))
    if path.suffix == ".csv":
        return list(_csv_leaves(text))
    return [("<bytes>", text)]


def field_moves(old: Path, new: Path) -> dict:
    """{(field path, kind): largest move or count} of one artifact's two versions.

    kind is ``rel`` or ``abs`` for floats, ``diff`` for anything else; a
    ``rel`` entry is (largest relative move, that value's absolute move).
    Artifacts whose leaf paths differ, in order, report ``<structure>``.
    """
    a, b = _leaves(old), _leaves(new)
    if [p for p, _ in a] != [p for p, _ in b]:
        return {("<structure>", "diff"): 1}
    moves = {}
    for (path, x), (_, y) in zip(a, b):
        if x == y and type(x) is type(y):
            continue
        if isinstance(x, float) and isinstance(y, float):
            if abs(x) > SMALL:
                move = abs(y - x) / abs(x), abs(y - x)
                moves[path, "rel"] = max(move, moves.get((path, "rel"), move))
            else:
                moves[path, "abs"] = max(abs(y - x), moves.get((path, "abs"), 0.0))
        else:
            moves[path, "diff"] = moves.get((path, "diff"), 0) + 1
    return moves


def compare(old_root: Path, new_root: Path) -> dict:
    """{run/artifact: field moves} of every artifact whose bytes differ, or that one side lacks."""
    out = {}
    names = {p.relative_to(old_root) for p in old_root.rglob("*") if p.is_file()}
    names |= {p.relative_to(new_root) for p in new_root.rglob("*") if p.is_file()}
    for name in sorted(names):
        if name.name == "runinfo.json":
            continue
        old, new = old_root / name, new_root / name
        if not (old.exists() and new.exists()):
            out[str(name)] = {("<only in " + ("new>" if new.exists() else "old>"), "diff"): 1}
        elif old.read_bytes() != new.read_bytes():
            out[str(name)] = field_moves(old, new)
    return out


def _first(size) -> float:
    return size[0] if isinstance(size, tuple) else size


def _report(moves: dict) -> str:
    lines = []
    for artifact, fields in moves.items():
        lines.append(artifact)
        for (path, kind), size in sorted(fields.items(), key=lambda kv: (kv[0][1] != "diff", -_first(kv[1]))):
            if kind == "diff":
                shown = f"{size} value(s)"
            elif kind == "rel":
                shown = f"{size[0]:.2g} (abs {size[1]:.2g})"
            else:
                shown = f"{size:.2g}"
            lines.append(f"  {kind:4s} {shown:>20s}  {path}")
    return "\n".join(lines) + ("\n" if lines else "no artifact moved\n")


def main(argv: list) -> int:
    if len(argv) == 2 and argv[0] == "run":
        from golden_digests import run_digests

        run_digests(Path(argv[1]))
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        sys.stdout.write(_report(compare(Path(argv[1]), Path(argv[2]))))
        return 0
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
