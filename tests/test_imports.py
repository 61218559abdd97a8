"""The modules of delta0lab import no private name from one another."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "delta0lab"


def test_no_private_name_is_imported_across_modules():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("delta0lab")):
                found += [f"{path.name}:{node.lineno} {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []
