"""Interned nodes, one post-order fold over them, and one trampoline for
walkers that carry context down.

Both node families, the terms and formulas of formulas.py and the PR terms
of primrec.py, are hash-consed (Goto, "Monocopy and associative algorithms
in an extended Lisp", 1974; Filliâtre & Conchon, "Type-safe modular
hash-consing", 2006): constructing a node returns the one node with its
class and fields, so structurally equal nodes are the same object, and
equality and hashing are identity.  The table is a plain dict, so nodes
live for the whole process.

A node records its child nodes once, when it is interned: the fields that
are nodes, in order, with a tuple field read as its entries that are
nodes.  fold walks them on its own stack, so the depth of a node is
bounded by memory, not by the interpreter's recursion limit.  So does
repr, which writes a node as a constructor call down to REPR_DEPTH levels
and abbreviates what lies below.

fold serves a walker whose result at a node depends on the node alone: it
is computed once per distinct node and kept in a table.  The walkers whose
result also depends on context passed down use walk instead: the Delta0
evaluator, substitute, the parser, the sat_witness visitor, the diagonal
renamer, the paper decoder, the compiler and prlib.fn.  A step is written
as a recursive function that is a generator: where it would call itself it
yields the arguments and receives the result, and walk keeps the suspended
steps on its own list (a generator trampoline: Ganz, Friedman & Wand,
"Trampolined style", ICFP 1999).  Its depth too is bounded by memory.  A
step cannot catch an error raised by a step it asked for: the error leaves
walk at once, so a step whose failure its caller would recover from
returns a value that says so.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import TypeVar

T = TypeVar("T")

# the hash-consing table: (class, *fields) -> the one node with them
NODES: dict[tuple, Node] = {}

# repr writes a node that has children this many levels down as Name(..)
REPR_DEPTH = 4


class Interned(type):
    """Constructing a node runs its class's check on the fields, then looks
    the node up in NODES; its children are interned already, so the key
    compares them by identity.  The check runs before the lookup, because
    a key also matches fields that only compare equal, such as True for 1."""

    def __call__(cls, *fields):
        if cls.check is not None:
            cls.check(*fields)
        key = (cls, *fields)
        node = NODES.get(key)
        if node is None:
            node = super().__call__(*fields)
            children: list[Node] = []
            for f in fields:
                if isinstance(f, Node):
                    children.append(f)
                elif type(f) is tuple:
                    children += [c for c in f if isinstance(c, Node)]
            object.__setattr__(node, "children", tuple(children))
            NODES[key] = node
        return node


class Node(metaclass=Interned):
    __slots__ = ("children",)

    # a class that restricts its fields sets this to a function of them
    # that raises on fields it rejects
    check: Callable[..., None] | None = None

    def __repr__(self) -> str:
        """The node as a constructor call, its fields in order; a node
        REPR_DEPTH levels down that has children is written Name(..).
        Nodes share subterms heavily and nest deep, so an unbounded repr
        could expand a small DAG into a huge tree."""
        out: list[str] = []
        # (value, depth) to write, or (text, None) to copy
        todo: list[tuple] = [(self, 0)]
        while todo:
            x, depth = todo.pop()
            if depth is None:
                out.append(x)
                continue
            if isinstance(x, Node):
                name = type(x).__name__
                if x.children and depth == REPR_DEPTH:
                    out.append(f"{name}(..)")
                    continue
                head, items, tail = f"{name}(", [getattr(x, f) for f in x.__match_args__], ")"
                depth += 1
            elif type(x) is tuple:
                head, items, tail = "(", x, ",)" if len(x) == 1 else ")"
            else:
                out.append(repr(x))
                continue
            out.append(head)
            todo.append((tail, None))
            for k in range(len(items) - 1, -1, -1):
                todo.append((items[k], depth))
                if k:
                    todo.append((", ", None))
        return "".join(out)


def fold(node: Node, combine: Callable[..., T], table: dict[Node, T]) -> T:
    """table[node], after setting table[n] = combine(n, *children's
    results) for node and every node below it that table lacks.

    Children come before their parent, left to right, and each node is
    combined once, on an explicit stack.
    """
    if node not in table:
        stack = [node]
        while stack:
            n = stack[-1]
            if n in table:
                stack.pop()
                continue
            kids = n.children
            pending = False
            for c in reversed(kids):
                if c not in table:
                    stack.append(c)
                    pending = True
            if not pending:
                stack.pop()
                table[n] = combine(n, *[table[c] for c in kids])
    return table[node]


def postorder(node: Node) -> list[Node]:
    """The distinct nodes of node's DAG, each after its children."""
    order: list[Node] = []
    fold(node, lambda n, *_: order.append(n), {})
    return order


def walk(step: Callable[..., Generator[tuple, T, T]], *args) -> T:
    """The result of step(*args), where step is a generator function: a
    yield of a tuple args' stands for a call of step(*args') and receives
    its result, and step's return value is its result."""
    stack: list[Generator] = []
    gen, value = step(*args), None
    while True:
        try:
            args = gen.send(value)
        except StopIteration as done:
            if not stack:
                return done.value
            gen, value = stack.pop(), done.value
        else:
            stack.append(gen)
            gen, value = step(*args), None
