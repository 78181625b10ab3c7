"""The library is numpy-only: every absolute import in src/tsimg is numpy or
part of the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tsimg"


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_library_imports_only_numpy_and_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = [f"{p.name}: {name}" for p in files for name in _absolute_imports(p)
               if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert not foreign, f"imports outside numpy and the standard library: {foreign}"
