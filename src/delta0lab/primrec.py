"""Primitive-recursive function terms and their evaluator.

Terms are built from the constant-zero and successor functions, projections,
composition and primitive recursion:

    R(f; g)(xs, 0)     = f(xs)
    R(f; g)(xs, n + 1) = g(R(f; g)(xs, n), xs, n)

Every function here has arity >= 1.  Evaluation memoizes per (subterm,
argument tuple) and keeps recursion columns incremental, so re-evaluating
R-terms at growing last arguments costs one step each.  Two further
optimizations are observationally pure (they never change a value, only
skip work whose result is forced):

* intrinsics: registered subterms are computed by a Python twin instead
  of by unrolling their recursions.  The families are
  - the canonical arithmetic below (addition, multiplication, the sign
    functions, truncated subtraction, the order and equality tests,
    powers, parity and halving);
  - the primality test prlib.CHI_PRIME;
  - the compact coding's gamma-stream reader in satpr: its bit-length
    search, right shift, zero-run search, one-hop offset step and
    sequence-length search.
  Every twin is exact on all naturals, costs one step, and does Python
  work near-linear in the bit length of its arguments; a twin that
  cannot stay within that returns None and the term is evaluated by its
  equations.  Recursion columns around a twin (the prime column, the
  next-prime sweep, the offset column) stay ticked, so max_steps keeps
  bounding the work;
* recursions of the shapes emitted for bounded quantifiers stop early at
  their absorbing value (a product stuck at 0, a flagged sum stuck at 1).

Both can be disabled for tests that want the raw recursion equations.
The pair of flags (intrinsics, absorbing) is the evaluator's mode.

Evaluation does not walk the term.  Each node is compiled once per mode
into a Python closure run(ev, args) (Feeley & Lapalme, "Using closures for
code generation", Comput. Lang. 12(1), 1987).  Compiling settles what
depends on the node alone: its twin, whether it has an absorbing shape
(a product of two, or the sign of a sum of two), the closures of its
children, chosen by how many inner functions a composition has, and a
recursion's absorbing value.  Running a closure does what depends on the
arguments: it counts one step, probes and fills the evaluator's cache
(compositions and recursions only), and calls its children's closures.
The closures live in one table per mode at module level, keyed by the
node like validate's arities, so every evaluator of a mode shares them;
only steps and caches belong to an evaluator.  A term evaluates with one
interpreter frame per level of nesting; a term nested past the recursion
limit raises FeasibilityError.

Calling a term on builder expressions, f(x, y), builds an App; prlib.fn
lowers a body of such expressions over named arguments to projections and
compositions.

Nodes are hash-consed: constructing a term returns the one node with its
class and fields, so structurally equal terms are the same object, and
equality and hashing are identity.  Every cache (the evaluator's tables,
the compiled closures, validate's arities, the intrinsic registry) is
keyed by the node itself.  The table is a plain dict, so nodes live for
the whole process.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass

sys.setrecursionlimit(max(sys.getrecursionlimit(), 30000))


class PRError(ValueError):
    pass


class ArityError(PRError):
    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{message}" + (f" at {path}" if path else ""))
        self.path = path


class FeasibilityError(RuntimeError):
    """Evaluation would exceed the configured step budget, or one step
    would build a result of more than RESULT_BITS_CAP bits."""


# one step builds no result known to exceed this many bits: max_steps
# cannot interrupt a single step
RESULT_BITS_CAP = 1 << 30

# the hash-consing table: (class, *fields) -> the one node with them
_NODES: dict[tuple, PRTerm] = {}


class _Interned(type):
    """Constructing a node looks it up in _NODES first; its children are
    interned already, so the key compares them by identity."""

    def __call__(cls, *fields):
        key = (cls, *fields)
        node = _NODES.get(key)
        if node is None:
            node = _NODES.setdefault(key, super().__call__(*fields))
        return node


@dataclass(frozen=True, slots=True, eq=False)
class PRTerm(metaclass=_Interned):
    # terms share subterms heavily; an unbounded repr expands the DAG into
    # a tree and never finishes on assembled checkers
    def __repr__(self) -> str:
        return _abbrev(self, 4)

    def __call__(self, *args: Expr | int) -> App:
        """This term applied to the arguments of a prlib.fn body."""
        return App(self, args)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Zero(PRTerm):
    """zeta(x) = 0, arity 1."""


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Succ(PRTerm):
    """sigma(x) = x + 1, arity 1."""


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Proj(PRTerm):
    """pi_i^n, 1-based coordinate i of an n-tuple."""
    i: int
    n: int

    def __post_init__(self):
        if not (1 <= self.i <= self.n):
            raise ArityError(f"projection needs 1 <= i <= n, got P({self.i},{self.n})")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Comp(PRTerm):
    f: PRTerm
    gs: tuple[PRTerm, ...]

    def __post_init__(self):
        if not self.gs:
            raise ArityError("composition needs at least one inner function")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class PrimRec(PRTerm):
    f: PRTerm
    g: PRTerm


def _abbrev(node: PRTerm, depth: int) -> str:
    match node:
        case Zero():
            return "Z"
        case Succ():
            return "S"
        case Proj(i, n):
            return f"P({i},{n})"
        case Comp(f, gs):
            if depth == 0:
                return "C(..)"
            inner = ", ".join(_abbrev(g, depth - 1) for g in gs)
            return f"C({_abbrev(f, depth - 1)}; {inner})"
        case PrimRec(f, g):
            if depth == 0:
                return "R(..)"
            return f"R({_abbrev(f, depth - 1)}; {_abbrev(g, depth - 1)})"
    return object.__repr__(node)


# ---------------------------------------------------- builder expressions

class Expr:
    """A value of the arguments of an enclosing prlib.fn body; + * - are ADD,
    MUL and MONUS."""

    __slots__ = ()

    def __add__(self, other: Expr | int) -> App:
        return App(ADD, (self, other))

    def __mul__(self, other: Expr | int) -> App:
        return App(MUL, (self, other))

    def __rmul__(self, other: int) -> App:
        return App(MUL, (other, self))

    def __sub__(self, other: Expr | int) -> App:
        return App(MONUS, (self, other))

    def __rsub__(self, other: int) -> App:
        return App(MONUS, (other, self))


class Arg(Expr):
    """One named argument; it lowers to the projection onto its position."""

    __slots__ = ()


class App(Expr):
    """A closed term applied to expressions; calling a PRTerm builds one."""

    __slots__ = ("f", "args")

    def __init__(self, f: PRTerm, args: tuple[Expr | int, ...]):
        arity = _ARITY.get(f) or validate(f)
        if arity != len(args):
            raise ArityError(f"term of arity {arity} applied to {len(args)} arguments")
        self.f, self.args = f, args


# arities of the well-formed nodes validated so far
_ARITY: dict[PRTerm, int] = {}


def validate(t: PRTerm) -> int:
    """Arity of a well-formed term; raises ArityError with the offending path.

    The walk keeps its own stack, so term depth is bounded by memory, not by
    the interpreter's recursion limit.  A path is a chain of (step, parent)
    links, spelled out only when it is reported.
    """
    stack: list[tuple[PRTerm, tuple]] = [(t, ("root", None))]
    while stack:
        node, path = stack[-1]
        todo = None if node in _ARITY else _check(node, path)
        if todo:
            stack.extend(reversed(todo))
        else:
            stack.pop()
    return _ARITY[t]


def _check(node: PRTerm, path: tuple) -> list[tuple[PRTerm, tuple]] | None:
    """The children of node to validate first, in order, or None once
    node's arity is in _ARITY.  A composition checks that its inner
    functions agree before it looks at its outer one."""
    match node:
        case Zero() | Succ():
            a = 1
        case Proj(_, n):
            a = n
        case Comp(f, gs):
            todo = [(g, (f".g{k}", path))
                    for k, g in enumerate(gs, 1) if g not in _ARITY]
            if todo:
                return todo
            inner = [_ARITY[g] for g in gs]
            if len(set(inner)) != 1:
                raise ArityError(
                    f"composed inner functions disagree on arity {inner}", _spell(path))
            if f not in _ARITY:
                return [(f, (".f", path))]
            if _ARITY[f] != len(gs):
                raise ArityError(
                    f"outer function takes {_ARITY[f]} arguments, got {len(gs)} "
                    f"inner functions", _spell(path))
            a = inner[0]
        case PrimRec(f, g):
            todo = [(c, (step, path)) for c, step in ((f, ".f"), (g, ".g"))
                    if c not in _ARITY]
            if todo:
                return todo
            if _ARITY[g] != _ARITY[f] + 2:
                raise ArityError(f"recursion step must have arity {_ARITY[f] + 2}, "
                                 f"got {_ARITY[g]}", _spell(path))
            a = _ARITY[f] + 1
        case _:
            raise ArityError(f"not a PR term: {node!r}", _spell(path))
    _ARITY[node] = a
    return None


def _spell(path: tuple | None) -> str:
    steps = []
    while path is not None:
        step, path = path
        steps.append(step)
    return "".join(reversed(steps))


# --------------------------------------------------- canonical arithmetic
#
# The canonical constructions below are what prlib.stdlib exposes.  The
# evaluator recognizes them structurally; anything built differently is
# evaluated by the recursion equations.

P11 = Proj(1, 1)
ADD = PrimRec(P11, Comp(Succ(), (Proj(1, 3),)))
MUL = PrimRec(Zero(), Comp(ADD, (Proj(1, 3), Proj(2, 3))))
_SG_STEP = Comp(Succ(), (Comp(Zero(), (Proj(1, 3),)),))
SG = Comp(PrimRec(Zero(), _SG_STEP), (P11, P11))
SGBAR = Comp(PrimRec(Comp(Succ(), (Zero(),)), Comp(Zero(), (Proj(1, 3),))), (P11, P11))
PRED = Comp(PrimRec(Zero(), Proj(3, 3)), (P11, P11))
MONUS = PrimRec(P11, Comp(PRED, (Proj(1, 3),)))
CHI_LE = Comp(SGBAR, (MONUS,))
CHI_EQ = Comp(SGBAR, (Comp(ADD, (MONUS, Comp(MONUS, (Proj(2, 2), Proj(1, 2))))),))
POW = PrimRec(Comp(Succ(), (Zero(),)), Comp(MUL, (Proj(1, 3), Proj(2, 3))))
PARITY = Comp(PrimRec(Zero(), Comp(SGBAR, (Proj(1, 3),))), (P11, P11))
HALF = Comp(PrimRec(Zero(), Comp(ADD, (Proj(1, 3), Comp(PARITY, (Proj(3, 3),))))),
            (P11, P11))

Twin = Callable[[tuple[int, ...]], int | None]
Run = Callable[["Evaluator", tuple[int, ...]], int]


# registered terms and their twins; a twin maps the argument tuple to the
# term's value, or to None when it leaves that argument to the equations
_INTRINSICS: dict[PRTerm, Twin] = {}

# the compiled closures: (intrinsics, absorbing) -> node -> its closure
_RUN: dict[tuple[bool, bool], dict[PRTerm, Run]] = {
    (i, a): {} for i in (True, False) for a in (True, False)}


def intrinsic(t: PRTerm, twin: Twin) -> PRTerm:
    """Register twin as the Python computation of t and return t.

    Every term built equal to t is t, and is then computed by twin in one
    step.  The twin must equal t's recursion equations on all naturals and
    do work near-linear in the bit length of its arguments.  The compiled
    closures are dropped, so the twin takes effect even for a term that
    was evaluated before.
    """
    _INTRINSICS[t] = twin
    for table in _RUN.values():
        table.clear()
    return t


def _pow(a: tuple[int, ...]) -> int:
    # a[0]^a[1] has at least a[1] * (bitlen(a[0]) - 1) + 1 bits
    if a[1] * (a[0].bit_length() - 1) + 1 > RESULT_BITS_CAP:
        raise FeasibilityError(f"POW would build more than {RESULT_BITS_CAP} bits")
    return 1 << a[1] if a[0] == 2 else a[0] ** a[1]


intrinsic(ADD, lambda a: a[0] + a[1])
intrinsic(MUL, lambda a: a[0] * a[1])
intrinsic(SG, lambda a: min(a[0], 1))
intrinsic(SGBAR, lambda a: 1 if a[0] == 0 else 0)
intrinsic(PRED, lambda a: max(a[0] - 1, 0))
intrinsic(MONUS, lambda a: max(a[0] - a[1], 0))
intrinsic(CHI_LE, lambda a: 1 if a[0] <= a[1] else 0)
intrinsic(CHI_EQ, lambda a: 1 if a[0] == a[1] else 0)
intrinsic(POW, _pow)
intrinsic(PARITY, lambda a: a[0] & 1)
intrinsic(HALF, lambda a: a[0] >> 1)


# ------------------------------------------------------- compiled closures
#
# Every call of a closure is one step, and a recursion column ticks once
# more per row it computes.  The tick is written out in every closure: a
# call per step would cost about as much as the dispatch the closures
# replace.


def _shape(t: PRTerm, intrinsics: bool) -> tuple | None:
    """("and2", a, b) for MUL(a, b), absorbing at 0, and ("or2", a, b) for
    SG(ADD(a, b)), absorbing at 1; None for any other node and for a node
    computed by its twin."""
    if not isinstance(t, Comp) or intrinsics and t in _INTRINSICS:
        return None
    if t.f is MUL and len(t.gs) == 2:
        return ("and2", *t.gs)
    if (t.f is SG and len(t.gs) == 1 and isinstance(t.gs[0], Comp)
            and t.gs[0].f is ADD and len(t.gs[0].gs) == 2):
        return ("or2", *t.gs[0].gs)
    return None


def _absorbing_value(g: PRTerm, intrinsics: bool) -> int | None:
    """Value v with g(v, xs, i) = v for all xs, i, when detectable."""
    shape = _shape(g, intrinsics)
    if shape is None or not any(isinstance(h, Proj) and h.i == 1 for h in shape[1:]):
        return None
    return 0 if shape[0] == "and2" else 1


def _sum_tail_inner(g: PRTerm, intrinsics: bool) -> PrimRec | None:
    """For the step of a bounded sum over an absorbing product, the inner
    product term; the sum is constant once that product column hits 0."""
    if not (isinstance(g, Comp) and g.f is ADD and len(g.gs) == 2):
        return None
    acc, rest = g.gs
    if not (isinstance(acc, Proj) and acc.i == 1):
        return None
    m = acc.n
    if not (isinstance(rest, Comp) and isinstance(rest.f, PrimRec)):
        return None
    expect = tuple(Proj(j, m) for j in range(2, m)) + (Comp(Succ(), (Proj(m, m),)),)
    if rest.gs != expect:
        return None
    if _absorbing_value(rest.f.g, intrinsics) != 0:
        return None
    return rest.f


def _children(node: PRTerm) -> tuple[PRTerm, ...]:
    match node:
        case Comp(f, gs):
            return (f, *gs)
        case PrimRec(f, g):
            return (f, g)
    return ()


def _compile(t: PRTerm, mode: tuple[bool, bool]) -> Run:
    """t's closure in mode, compiling first every node below t that has none.

    The walk keeps its own post-order stack, as validate does, so term
    depth does not bound it.
    """
    table = _RUN[mode]
    stack = [t]
    while stack:
        node = stack[-1]
        if node in table:
            stack.pop()
            continue
        todo = [c for c in _children(node) if c not in table]
        if todo:
            stack.extend(todo)
        else:
            stack.pop()
            table[node] = _closure(node, mode, table)
    return table[t]


def _closure(node: PRTerm, mode: tuple[bool, bool], table: dict[PRTerm, Run]) -> Run:
    intrinsics, absorbing = mode
    twin = _INTRINSICS.get(node) if intrinsics else None
    match node:
        case Zero():
            return _zero
        case Succ():
            return _succ
        case Proj(i, _):
            return _proj(i - 1)
        case PrimRec(f, g):
            absorb = _absorbing_value(g, intrinsics) if absorbing else None
            tail = _sum_tail_inner(g, intrinsics) if absorbing else None
            return _primrec(node, twin, table[f], table[g], absorb, tail)
    # a composition: eval validated the root, so no other node gets here
    shape = _shape(node, intrinsics) if absorbing else None
    if shape is not None:
        make = _and2 if shape[0] == "and2" else _or2
        return make(node, table[shape[1]], table[shape[2]])
    f, inner = table[node.f], tuple(table[g] for g in node.gs)
    if len(inner) == 1:
        return _comp1(node, twin, f, *inner)
    if len(inner) == 2:
        return _comp2(node, twin, f, *inner)
    return _compn(node, twin, f, inner)


def _over_budget(ev: Evaluator) -> FeasibilityError:
    return FeasibilityError(f"evaluation exceeded the step budget of {ev.max_steps}")


# leaves tick and return: they are never cached


def _zero(ev: Evaluator, args: tuple[int, ...]) -> int:
    s = ev.steps = ev.steps + 1
    if s > ev._limit:
        raise _over_budget(ev)
    return 0


def _succ(ev: Evaluator, args: tuple[int, ...]) -> int:
    s = ev.steps = ev.steps + 1
    if s > ev._limit:
        raise _over_budget(ev)
    return args[0] + 1


def _proj(k: int) -> Run:
    def run(ev, args):
        s = ev.steps = ev.steps + 1
        if s > ev._limit:
            raise _over_budget(ev)
        return args[k]
    return run


# compositions and recursions tick, then probe and fill ev._cache; a twin
# that returns None leaves the value to the equations


def _comp1(node: Comp, twin: Twin | None, f: Run, g: Run) -> Run:
    def run(ev, args):
        s = ev.steps = ev.steps + 1
        if s > ev._limit:
            raise _over_budget(ev)
        key = (node, args)
        v = ev._cache.get(key)
        if v is None:
            if twin is None or (v := twin(args)) is None:
                v = f(ev, (g(ev, args),))
            ev._cache[key] = v
        return v
    return run


def _comp2(node: Comp, twin: Twin | None, f: Run, g1: Run, g2: Run) -> Run:
    def run(ev, args):
        s = ev.steps = ev.steps + 1
        if s > ev._limit:
            raise _over_budget(ev)
        key = (node, args)
        v = ev._cache.get(key)
        if v is None:
            if twin is None or (v := twin(args)) is None:
                v = f(ev, (g1(ev, args), g2(ev, args)))
            ev._cache[key] = v
        return v
    return run


def _compn(node: Comp, twin: Twin | None, f: Run, gs: tuple[Run, ...]) -> Run:
    def run(ev, args):
        s = ev.steps = ev.steps + 1
        if s > ev._limit:
            raise _over_budget(ev)
        key = (node, args)
        v = ev._cache.get(key)
        if v is None:
            if twin is None or (v := twin(args)) is None:
                v = f(ev, tuple([g(ev, args) for g in gs]))
            ev._cache[key] = v
        return v
    return run


def _and2(node: Comp, a: Run, b: Run) -> Run:
    """MUL(a, b), which skips b once a is 0."""
    def run(ev, args):
        s = ev.steps = ev.steps + 1
        if s > ev._limit:
            raise _over_budget(ev)
        key = (node, args)
        v = ev._cache.get(key)
        if v is None:
            v = a(ev, args)
            if v != 0:
                v *= b(ev, args)
            ev._cache[key] = v
        return v
    return run


def _or2(node: Comp, a: Run, b: Run) -> Run:
    """SG(ADD(a, b)), which skips b once a is positive."""
    def run(ev, args):
        s = ev.steps = ev.steps + 1
        if s > ev._limit:
            raise _over_budget(ev)
        key = (node, args)
        v = ev._cache.get(key)
        if v is None:
            v = 1 if a(ev, args) else min(b(ev, args), 1)
            ev._cache[key] = v
        return v
    return run


def _primrec(node: PrimRec, twin: Twin | None, f: Run, g: Run,
             absorb: int | None, tail: PrimRec | None) -> Run:
    """R(f; g) computed along its column: for fixed xs, the rows n = 0, 1,
    ... continue from the highest row ev has reached.  The column stops
    early once it holds absorb, or once the inner product column tail of a
    bounded sum has been absorbed at 0."""
    def run(ev, args):
        s = ev.steps = ev.steps + 1
        if s > ev._limit:
            raise _over_budget(ev)
        key = (node, args)
        v = ev._cache.get(key)
        if v is None:
            if twin is None or (v := twin(args)) is None:
                v = column(ev, args)
            ev._cache[key] = v
        return v

    def column(ev, args):
        cache = ev._cache
        xs, n = args[:-1], args[-1]
        col = (node, xs)
        hit = ev._absorbed.get(col)
        if hit is not None and n >= hit[0]:
            return hit[1]
        hit = ev._const_from.get(col)
        if hit is not None and n >= hit[0]:
            return hit[1]
        start = ev._hi.get(col, -1)
        if start < 0:
            acc = f(ev, xs)
            cache[(node, xs + (0,))] = acc
            start = 0
        else:
            if start >= n:
                return cache[(node, args)]
            acc = cache[(node, xs + (start,))]
        # a counter, not range(start, n), which copies a huge n several times
        i = start
        while i < n:
            if absorb is not None and acc == absorb:
                ev._absorbed[col] = (i, absorb)
                ev._hi[col] = max(ev._hi.get(col, -1), i)
                return absorb
            if tail is not None:
                inner = ev._absorbed.get((tail, xs))
                if inner is not None and inner[1] == 0 and i + 1 > inner[0]:
                    # every remaining summand is 0: the column stays at acc
                    ev._const_from[col] = (i, acc)
                    return acc
            s = ev.steps = ev.steps + 1
            if s > ev._limit:
                raise _over_budget(ev)
            acc = g(ev, (acc,) + xs + (i,))
            i += 1
            cache[(node, xs + (i,))] = acc
        ev._hi[col] = n
        return acc

    return run


def _depth(t: PRTerm) -> int:
    """Nodes on the longest path from t down to a leaf."""
    depth: dict[PRTerm, int] = {}
    stack = [t]
    while stack:
        node = stack[-1]
        todo = [c for c in _children(node) if c not in depth]
        if todo:
            stack.extend(todo)
        else:
            stack.pop()
            depth[node] = 1 + max((depth[c] for c in _children(node)), default=0)
    return depth[t]


class Evaluator:
    """Evaluates PR terms with a persistent cache.

    One evaluator can serve many calls; reuse pays off whenever the same
    subterms recur (recursion columns, repeated candidates of a bounded
    search).  Pass max_steps to get a FeasibilityError instead of a very
    long computation.

    The evaluator runs each node's compiled closure (see _compile).  The
    closures live in one process-wide table per mode (intrinsics,
    absorbing), keyed by the node, and are shared by every evaluator of
    that mode; only the step count and the caches belong to one
    evaluator.  Closures are per node, not per evaluator, because every
    CompiledRelation has an evaluator of its own: compiling per evaluator
    raised the corpus benchmark's median instance from 0.46 to 0.67 ms.
    """

    def __init__(self, max_steps: int | None = None,
                 intrinsics: bool = True, absorbing: bool = True):
        self.max_steps = max_steps
        self.steps = 0
        self.use_intrinsics = bool(intrinsics)
        self.use_absorbing = bool(absorbing)
        # the closures compare steps with this; no budget is sys.maxsize
        self._limit = sys.maxsize if max_steps is None else max_steps
        self._run = _RUN[(self.use_intrinsics, self.use_absorbing)]
        self._cache: dict[tuple[PRTerm, tuple[int, ...]], int] = {}
        self._hi: dict[tuple[PRTerm, tuple[int, ...]], int] = {}
        self._absorbed: dict[tuple[PRTerm, tuple[int, ...]], tuple[int, int]] = {}
        self._const_from: dict[tuple[PRTerm, tuple[int, ...]], tuple[int, int]] = {}
        self._arity: dict[PRTerm, int] = {}   # validated roots

    def eval(self, t: PRTerm, args) -> int:
        args = tuple(args)
        arity = self._arity.get(t)
        if arity is None:
            arity = self._arity[t] = validate(t)
        if len(args) != arity:
            raise ArityError(f"term of arity {arity} applied to {len(args)} arguments")
        if any(a < 0 for a in args):
            raise PRError("arguments must be naturals")
        run = self._run.get(t) or _compile(t, (self.use_intrinsics, self.use_absorbing))
        try:
            return run(self, args)
        except RecursionError:
            raise FeasibilityError(
                f"term depth {_depth(t)} is more than evaluation can nest within "
                f"the recursion limit of {sys.getrecursionlimit()}") from None

    def stats(self) -> dict[str, int]:
        """Steps taken, entries in each cache, and the closures compiled so
        far for this evaluator's mode (shared with every evaluator of it)."""
        return {"steps": self.steps, "cache": len(self._cache), "hi": len(self._hi),
                "absorbed": len(self._absorbed), "const_from": len(self._const_from),
                "closures": len(self._run)}


def eval_pr(t: PRTerm, args, max_steps: int | None = None) -> int:
    """One-shot evaluation with a fresh cache."""
    return Evaluator(max_steps=max_steps).eval(t, args)


# ----------------------------------------------------------- text format


def serialize(t: PRTerm) -> str:
    """Z, S, P(i,n), C(f; g1, ..., gm), R(f; g)."""
    out: list[str] = []

    def emit(node: PRTerm):
        match node:
            case Zero():
                out.append("Z")
            case Succ():
                out.append("S")
            case Proj(i, n):
                out.append(f"P({i},{n})")
            case Comp(f, gs):
                out.append("C(")
                emit(f)
                out.append("; ")
                for k, g in enumerate(gs):
                    if k:
                        out.append(", ")
                    emit(g)
                out.append(")")
            case PrimRec(f, g):
                out.append("R(")
                emit(f)
                out.append("; ")
                emit(g)
                out.append(")")
            case _:
                raise PRError(f"not a PR term: {node!r}")

    emit(t)
    return "".join(out)


class _PRParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _expect(self, ch: str):
        self._skip()
        if not self.text.startswith(ch, self.pos):
            raise PRError(f"expected {ch!r} at position {self.pos}")
        self.pos += len(ch)

    def _int(self) -> int:
        self._skip()
        j = self.pos
        while j < len(self.text) and self.text[j].isdigit():
            j += 1
        if j == self.pos:
            raise PRError(f"expected a number at position {self.pos}")
        v = int(self.text[self.pos:j])
        self.pos = j
        return v

    def parse(self) -> PRTerm:
        self._skip()
        if self.pos >= len(self.text):
            raise PRError("unexpected end of input")
        c = self.text[self.pos]
        if c == "Z":
            self.pos += 1
            return Zero()
        if c == "S":
            self.pos += 1
            return Succ()
        if c == "P":
            self.pos += 1
            self._expect("(")
            i = self._int()
            self._expect(",")
            n = self._int()
            self._expect(")")
            return Proj(i, n)
        if c == "C":
            self.pos += 1
            self._expect("(")
            f = self.parse()
            self._expect(";")
            gs = [self.parse()]
            while True:
                self._skip()
                if self.text.startswith(",", self.pos):
                    self.pos += 1
                    gs.append(self.parse())
                else:
                    break
            self._expect(")")
            return Comp(f, tuple(gs))
        if c == "R":
            self.pos += 1
            self._expect("(")
            f = self.parse()
            self._expect(";")
            g = self.parse()
            self._expect(")")
            return PrimRec(f, g)
        raise PRError(f"unexpected character {c!r} at position {self.pos}")


def parse_pr(text: str) -> PRTerm:
    p = _PRParser(text)
    t = p.parse()
    p._skip()
    if p.pos != len(text):
        raise PRError(f"trailing input at position {p.pos}")
    return t
