"""No function of delta0lab calls itself, directly or through others.

A function that recursed would nest a Python frame per level of its
input, so deep input could exhaust the recursion limit; every walker runs
on an explicit stack instead (nodes.fold, nodes.walk, or a loop).  A call
is seen when it names a function of the same module: by a name that
resolves to a function defined in an enclosing scope, or as self.<name>
for a method of the enclosing class, of one of its bases or of one of its
subclasses in the module.  A call through a variable or a callback is
not.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "delta0lab"

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _under(node: ast.AST, kinds: tuple) -> list[ast.AST]:
    """The nodes of the given kinds below node, looking through other
    statements and expressions but not into a definition."""
    found, todo = [], list(ast.iter_child_nodes(node))
    while todo:
        c = todo.pop()
        if isinstance(c, kinds):
            found.append(c)
        if not isinstance(c, (*DEFS, ast.ClassDef)):
            todo += ast.iter_child_nodes(c)
    return found


def _call_graph(tree: ast.Module, module: str) -> dict[str, set[str]]:
    """Each function of the module, by qualified name (a nested function
    or a method named after its parent), to the functions it calls."""
    # each function: its node, the functions it sees by name, and the
    # class whose methods self.<name> reaches, or None
    funcs: dict[str, tuple[ast.AST, dict[str, str], str | None]] = {}
    # each class by name: its methods by name, and its bases in the module
    methods: dict[str, dict[str, str]] = {}
    bases: dict[str, set[str]] = {}
    todo = [(tree, module, {}, None)]
    while todo:
        node, prefix, scope, cls = todo.pop()
        defs = _under(node, (*DEFS, ast.ClassDef))
        names = {c.name: f"{prefix}.{c.name}" for c in defs if isinstance(c, DEFS)}
        if isinstance(node, ast.ClassDef):
            cls = node.name
            methods[cls] = names   # reached as self.<name>, not by name
            bases[cls] = {b.id for b in node.bases if isinstance(b, ast.Name)}
        else:
            scope = {**scope, **names}
        if isinstance(node, DEFS):
            funcs[prefix] = (node, scope, cls)
        todo += [(c, f"{prefix}.{c.name}", scope, cls) for c in defs]
    subclasses = {k: {c for c in bases if k in bases[c]} for k in bases}
    graph = {}
    for f, (node, scope, cls) in funcs.items():
        # self may be an instance of the class, of a base or of a subclass
        kin = {cls} | _reach(bases, cls) | _reach(subclasses, cls) if cls else set()
        calls = set()
        for call in _under(node, (ast.Call,)):
            g = call.func
            if isinstance(g, ast.Name) and g.id in scope:
                calls.add(scope[g.id])
            elif (isinstance(g, ast.Attribute) and isinstance(g.value, ast.Name)
                  and g.value.id == "self"):
                calls |= {methods[k][g.attr] for k in kin if g.attr in methods.get(k, {})}
        graph[f] = calls
    return graph


def _graphs() -> dict[str, dict[str, set[str]]]:
    return {path.stem: _call_graph(ast.parse(path.read_text(), str(path)), path.stem)
            for path in sorted(SRC.glob("*.py"))}


def _reach(graph: dict[str, set[str]], start: str) -> set[str]:
    seen, todo = set(), [start]
    while todo:
        for g in graph.get(todo.pop(), ()):
            if g not in seen:
                seen.add(g)
                todo.append(g)
    return seen


def test_only_the_listed_functions_call_themselves():
    found = {f for graph in _graphs().values() for f, calls in graph.items() if f in calls}
    assert found == set()


def test_no_functions_of_one_module_call_each_other_in_a_cycle():
    cycles = set()
    for graph in _graphs().values():
        reach = {f: _reach(graph, f) for f in graph}
        for f in graph:
            cycle = frozenset(g for g in reach[f] if f in reach[g])
            if len(cycle) > 1:
                cycles.add(cycle)
    assert cycles == set()


def test_the_call_graph_sees_mutual_and_nested_calls():
    tree = ast.parse(
        "def a(x):\n    return b(x)\n"
        "def b(x):\n    def c():\n        return a(x)\n    return c()\n"
        "class K:\n    def m(self):\n        return self.n()\n"
        "    def n(self):\n        return self.m() + a(1)\n"
        "class Base:\n    def get(self):\n        return self.read()\n"
        "class Sub(Base):\n    def read(self):\n        return self.get() + self.gone()\n")
    assert _call_graph(tree, "mod") == {
        "mod.a": {"mod.b"}, "mod.b": {"mod.b.c"}, "mod.b.c": {"mod.a"},
        "mod.K.m": {"mod.K.n"}, "mod.K.n": {"mod.K.m", "mod.a"},
        "mod.Base.get": {"mod.Sub.read"}, "mod.Sub.read": {"mod.Base.get"}}


def test_only_the_evaluator_catches_recursion_error():
    """Everything walks on explicit stacks, and the evaluator's attempts
    nest at most 2 NEST levels of a term, so only the evaluator, for a
    caller that leaves no room for one attempt, turns the limit into a
    typed error."""
    catches = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        todo = [(tree, path.stem)]
        while todo:
            node, name = todo.pop()
            for c in ast.iter_child_nodes(node):
                inner = f"{name}.{c.name}" if isinstance(c, (*DEFS, ast.ClassDef)) else name
                if isinstance(c, ast.ExceptHandler) and c.type is not None and any(
                        isinstance(n, ast.Name) and n.id == "RecursionError"
                        for n in ast.walk(c.type)):
                    catches.append(inner)
                todo.append((c, inner))
    assert catches == ["primrec.Evaluator.eval"]
