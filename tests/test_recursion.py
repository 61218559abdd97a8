"""The functions of delta0lab that call themselves are exactly the listed ones.

Each one nests a Python frame per level of its input, so deep input can
exhaust the recursion limit.  A new recursive walker fails this test; one
rewritten on an explicit stack comes off the list.  Only a direct call is
seen: a call of the function's own name, or of self.<name> in a method.
Mutual recursion, such as _term calling _formula and back, is not.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "delta0lab"

RECURSIVE = {
    "compiler._formula",
    "compiler._term",
    "formulas._Parser.parse_expr",
    "formulas.substitute.sub_f",
    "formulas.substitute.sub_t",
    "prlib._lower",
    "prlib.bounded_prod",
    "prlib.bounded_sum",
    "prlib.rel_bexists",
    "satisfaction._rename_low_bound_vars.walk",
    "satisfaction.sat_witness.visit",
    "semantics._eval",
    "semantics.eval_term",
}


def _calls_itself(fn: ast.FunctionDef) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                return True
            if (isinstance(f, ast.Attribute) and f.attr == fn.name
                    and isinstance(f.value, ast.Name) and f.value.id == "self"):
                return True
    return False


def _recursive(tree: ast.AST, prefix: str) -> set[str]:
    """Qualified names, below prefix, of the functions in tree that call
    themselves; a nested function or a method is named after its parent."""
    found = set()
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef) and _calls_itself(child):
                found.add(name)
            found |= _recursive(child, name)
        else:
            found |= _recursive(child, prefix)
    return found


def test_only_the_listed_functions_call_themselves():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _recursive(ast.parse(path.read_text(), str(path)), path.stem)
    assert found == RECURSIVE
