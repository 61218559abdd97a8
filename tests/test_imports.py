"""The modules of delta0lab import no private name from one another, bind
their size limits in numbers.py only, build every power with a computed
exponent through numbers.power, and importing the package leaves the
interpreter's settings alone."""

import ast
import os
import subprocess
import sys
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


# the module-level *_CAP names kept outside numbers.py, and why
CAPS_ELSEWHERE = {
    "satpr.py": {"_CODE_CAP"},  # a guard on Sat's arguments, not a size of built integers
    "prlib.py": {"_PRIME_TWIN_CAP"},  # past it the primality twin declines; nothing is refused
}


def test_size_limits_are_bound_only_in_numbers():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n.id}" for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name) and n.id.endswith("_CAP")
                      and path.name != "numbers.py"
                      and n.id not in CAPS_ELSEWHERE.get(path.name, ())]
    assert found == []


def _stray_powers(tree: ast.Module) -> list[int]:
    """The lines of a ** or **= whose exponent is not a literal, and of
    the calls of builtin pow."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exponent = node.right
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            exponent = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "pow":
            exponent = node
        else:
            continue
        if not isinstance(exponent, ast.Constant):
            found.append(node.lineno)
    return sorted(found)


def test_powers_are_built_only_in_numbers():
    """numbers.power is the one exact power, whose Toom-Cook squaring
    outruns builtin ** on the huge prime powers of the codes."""
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.name != "numbers.py"
             for line in _stray_powers(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_the_power_guard_sees_each_form():
    tree = ast.parse("a = 3 ** z\nb = x ** 2\nc = pow(3, 4)\nd = 10 ** 6\n"
                     "e **= k\nf = math.pow(2, k)\ng = (x + 1) ** n\n")
    assert _stray_powers(tree) == [1, 3, 5, 7]


def test_importing_the_package_keeps_the_recursion_limit():
    check = ("import sys; n = sys.getrecursionlimit(); import delta0lab; "
             "assert sys.getrecursionlimit() == n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    subprocess.run([sys.executable, "-c", check], env=env, check=True, timeout=60)
