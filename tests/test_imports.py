"""Modules of the package import only each other's public names.

A private name (leading underscore) is one module's own business; a second
module that needs it should get a public definition in the owning module.
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
