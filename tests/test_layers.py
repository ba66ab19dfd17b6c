"""The package's modules form layers: each imports only the modules below it."""

import ast
from pathlib import Path

import pytest

import seqcal

SRC = Path(seqcal.__file__).parent

# Bottom first.  ``__init__`` and ``__main__`` sit on top and are not listed.
LAYERS = ("rng", "models", "exact", "estimate", "calibrate", "memory", "verify", "cli")


def _package_imports(source: str) -> set:
    """Names a module's source imports from its package, function-level imports included."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module or ""
            elif (node.module or "").split(".")[0] == "seqcal":
                module = node.module.partition(".")[2]
            else:
                continue
            if module:
                names.add(module.split(".")[0])
            else:  # ``from . import x``
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "seqcal":
                    names.add(parts[1] if len(parts) > 1 else "__init__")
    return names


def test_every_module_has_a_layer():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("position, name", list(enumerate(LAYERS)), ids=LAYERS)
def test_imports_only_the_layers_below(position, name):
    allowed = set(LAYERS[:position])
    if name == "cli":
        allowed.add("__version__")  # ``from . import __version__``
    assert _package_imports((SRC / f"{name}.py").read_text(encoding="utf-8")) <= allowed


def test_reads_every_form_of_package_import():
    source = (
        "import numpy\n"
        "from .models import pick\n"
        "def f():\n"
        "    from .exact import logsumexp\n"
        "    from . import memory\n"
        "    import seqcal.cli\n"
        "    from seqcal.rng import named_stream\n"
        "    from seqcal import verify\n"
    )
    assert _package_imports(source) == {"models", "exact", "memory", "cli", "rng", "verify"}


def _names(tree) -> set:
    """Every name a module's source reads, imports or takes as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def test_one_lattice_walk():
    # `exact._grow` grows every lattice, and only `prefix_expansion` runs
    # it; no other module reaches into the walk's growth or its blocks.
    # So a second lattice loop fails here, as a wrong import does above.
    tree = ast.parse((SRC / "exact.py").read_text(encoding="utf-8"))
    callers = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name != "_grow" and "_grow" in _names(node)
    }
    assert callers == {"prefix_expansion"}
    outside = [node for node in tree.body if not isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert not any("_grow" in _names(node) for node in outside)
    for name in set(LAYERS) - {"exact"}:
        source = (SRC / f"{name}.py").read_text(encoding="utf-8")
        assert not {"_grow", "_state_slice"} & _names(ast.parse(source)), name


def test_memory_walks_at_one_site():
    # A memory run walks its target once, for every gap's window fit and
    # bound; the module's every lattice walk goes through one call of
    # prefix_expansion, so a per-gap walk added beside it fails here.
    tree = ast.parse((SRC / "memory.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and "prefix_expansion" in _names(node.func)]
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "prefix_expansion"]
    assert len(calls) == 1 and len(reads) == 1


def test_sloc_counts_perfbench_lines_of_every_module(tmp_path):
    from sloc import counts, main

    # Blank lines and whole-line comments do not count; code with a
    # trailing comment and docstring lines do.
    package = tmp_path / "src" / "seqcal"
    package.mkdir(parents=True)
    (package / "a.py").write_text('"""Doc."""\n\n  # note\nx = 1  # one\n    \ny = 2\n', encoding="utf-8")
    assert counts(tmp_path) == {"a": 3}
    assert set(counts(SRC.parent.parent)) == {p.stem for p in SRC.glob("*.py")}
    assert main(["sloc.py", str(tmp_path), str(tmp_path)]) == 0
