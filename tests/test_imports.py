"""Modules of the package import only each other's public names, and
only names they use.

A private name (leading underscore) is one module's own business; a second
module that needs it should get a public definition in the owning module.
An imported name that a module neither uses nor exports is dead code,
unless its import line says it is ``# re-exported``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "decrement"


def test_no_private_names_imported_across_modules():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("decrement."):
                continue
            found += [
                f"{path.relative_to(SRC)}:{node.lineno} imports {alias.name} from {node.module}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert found == []


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name ``source`` imports but neither uses nor
    lists in ``__all__``, leaving out import lines marked ``# re-exported``."""
    lines = source.splitlines()
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if "# re-exported" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used | exported)


def test_every_imported_name_is_used_or_exported():
    found = [
        f"{path.relative_to(SRC)}:{line} imports {name} but never uses it"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "from os import path, sep\n"
        "from sys import argv  # re-exported\n"
        "import json\n"
        "import xml.dom\n"
        "__all__ = ['sep']\n"
        "def f(x: json.JSONDecoder):\n"
        "    return x\n"
    )
    assert unused_imports(source) == [(2, "path"), (5, "xml")]
