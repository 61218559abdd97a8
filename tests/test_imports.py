"""The modules of delta0lab import no private name from one another, bind
their size limits in numbers.py only, and importing the package leaves the
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


def test_importing_the_package_keeps_the_recursion_limit():
    check = ("import sys; n = sys.getrecursionlimit(); import delta0lab; "
             "assert sys.getrecursionlimit() == n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    subprocess.run([sys.executable, "-c", check], env=env, check=True, timeout=60)
