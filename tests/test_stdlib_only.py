"""The runtime library imports nothing outside the Python standard library."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "mixedgraphs").glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    """Top-level module names of the absolute imports in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_sources_are_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "core.py", "search.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_imports_only_the_standard_library(path):
    outside = [
        name for name in absolute_imports(path) if name not in sys.stdlib_module_names
    ]
    assert outside == [], f"{path.name} imports {outside}"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # a fresh interpreter, isolated from the environment and site-packages,
    # so only the package's own imports count; both modules cost start-up
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import mixedgraphs.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
