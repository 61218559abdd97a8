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
  - the primality test prlib.CHI_PRIME and the prime exponent
    prlib.EXPONENT;
  - the compact coding's gamma-stream reader in satpr: its bit-length
    search, right shift, zero-run search, one-hop offset step and
    sequence-length search, and its syntax reader: the tag hop, the end
    of a term and the subcode span;
  - the codec twins: each op of satpr's kit tables (KIT_OPS) that was
    built for the kit is computed by the coding function its row names,
    such as seq_decode, seq_encode or Coding.mk, which declines an
    argument outside that function's domain.
  Every twin is exact on all naturals where it answers, costs one step,
  and does Python work near-linear in the bit length of its arguments and
  its result; a twin that cannot stay within that returns None and the
  term is evaluated by its equations.  POW's twin alone refuses: a power
  of more than numbers.BITS_CAP bits raises FeasibilityError (defined in
  numbers, re-exported here) before it is built.  Recursion columns around a twin
  (the prime column, the next-prime sweep, the offset column) stay
  ticked, so max_steps keeps bounding the work;
* recursions of the shapes emitted for bounded quantifiers stop early at
  their absorbing value (a product stuck at 0, a flagged sum stuck at 1).

Both can be disabled for tests that want the raw recursion equations.
The pair of flags (intrinsics, absorbing) is the evaluator's mode.

A caller that knows a witness can hand it over as a certificate
(Evaluator.confirm, or eval_pr's witnesses): for the column of a bounded
exists, prlib.rel_bexists(body), at parameters xs and a candidate c, the
evaluator computes body(xs, c) by the equations, and if it is 1 records
the column as 1 from row c on, the entry its absorbing sweep would write
on reaching that witness.  This, too, never changes a value.

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
only steps and caches belong to an evaluator.  nodes.fold fills the
table, children first, on its own stack.  A closure calls its children's,
a frame per level (two for a recursion column), so each call into a lower
band of NEST levels, of a node at least NEST tall, goes through a cut.  An
attempt stopped at a cut with no value cached is made again after
Evaluator.eval evaluates the cut, so it nests at most 2 NEST levels and
its steps depend only on the term and its arguments; no Sat part is cut.

Calling a term on builder expressions, f(x, y), builds an App; prlib.fn
lowers a body of such expressions over named arguments to projections and
compositions.

Terms are interned nodes (nodes.py): structurally equal terms are the
same object, and equality and hashing are identity.  Every cache (the
evaluator's tables, the compiled closures, validate's arities, the
intrinsic registry) is keyed by the node itself.  validate, serialize and
the compiler walk a term only through nodes.fold and nodes.postorder, so
none of them recurses.  The text form of a term is its DAG (serialize).
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .nodes import Node, fold, postorder
from .numbers import BITS_CAP, FeasibilityError, pow_bits, power


class PRError(ValueError):
    pass


class ArityError(PRError):
    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{message}" + (f" at {path}" if path else ""))
        self.path = path


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class PRTerm(Node):
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

    @staticmethod
    def check(i: int, n: int) -> None:
        if not (1 <= i <= n):
            raise ArityError(f"projection needs 1 <= i <= n, got P({i},{n})")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Comp(PRTerm):
    f: PRTerm
    gs: tuple[PRTerm, ...]

    @staticmethod
    def check(f: PRTerm, gs: tuple[PRTerm, ...]) -> None:
        if not gs:
            raise ArityError("composition needs at least one inner function")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class PrimRec(PRTerm):
    f: PRTerm
    g: PRTerm


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


# validate's fold table: the arity of each well-formed node validated so
# far, and None for each node it met that is not a PR term
_ARITY: dict[Node, int | None] = {}


def validate(t: PRTerm) -> int:
    """Arity of a well-formed term; raises ArityError with the offending path.

    The arities are one nodes.fold, so term depth is bounded by memory, not
    by the interpreter's recursion limit.  A term with several defects
    reports the first in post-order.  Only when validation fails is the
    path looked for: a walk down from t, left to right as the fold went,
    on its own stack of (step, parent) links.
    """
    try:
        arity = fold(t, _arity, _ARITY) if isinstance(t, Node) else None
    except _Defect as defect:
        bad, message, last = defect.args
    else:
        if arity is None:
            raise ArityError(f"not a PR term: {t!r}", "root")
        return arity
    seen: set[Node] = set()
    stack: list[tuple[Node, tuple]] = [(t, ("root", None))]
    while stack:
        node, link = stack.pop()
        if node is bad:
            break
        if node not in seen:
            seen.add(node)
            stack += [(c, (step, link)) for step, c in reversed(_fields(node))
                      if isinstance(c, Node)]
    path = [last]
    while link is not None:
        step, link = link
        path.append(step)
    raise ArityError(message, "".join(reversed(path)))


class _Defect(Exception):
    """(node, message, step): the node validate rejects, why, and the step
    from it to the field at fault, or "" when the fault is the node's."""


def _fields(node: Node) -> list[tuple[str, object]]:
    """(step, value) for each field of node, as a path spells the step."""
    match node:
        case Comp(f, gs):
            return [(".f", f), *((f".g{k}", g) for k, g in enumerate(gs, 1))]
        case PrimRec(f, g):
            return [(".f", f), (".g", g)]
    return [(f".{name}", getattr(node, name)) for name in node.__match_args__]


def _arity(node: Node, *kids: int | None) -> int | None:
    """The combine of validate's fold: node's arity from its children's,
    None for a node that is not a PR term, which its parent reports.  A
    composition checks that its inner functions agree before it looks at
    its outer one."""
    match node:
        case Zero() | Succ():
            return 1
        case Proj(_, n):
            return n
    if not isinstance(node, (Comp, PrimRec)):
        return None
    for step, field in _fields(node):
        if not isinstance(field, Node) or _ARITY[field] is None:
            raise _Defect(node, f"not a PR term: {field!r}", step)
    if type(node) is PrimRec:
        if kids[1] != kids[0] + 2:
            raise _Defect(node, f"recursion step must have arity {kids[0] + 2}, "
                                f"got {kids[1]}", "")
        return kids[0] + 1
    outer, *inner = kids
    if len(set(inner)) != 1:
        raise _Defect(node, f"composed inner functions disagree on arity {inner}", "")
    if outer != len(inner):
        raise _Defect(node, f"outer function takes {outer} arguments, got {len(inner)} "
                            f"inner functions", "")
    return inner[0]


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

# the levels of a band: over every Sat part (158), and an attempt of 2 NEST
# levels, two frames each at most, fits the default recursion limit
NEST = 200
# the nodes on the longest path down from each node compiled so far
_HEIGHT: dict[PRTerm, int] = {}


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
    """a[0]^a[1]; FeasibilityError, before it is built, for a result of
    more than BITS_CAP bits, since max_steps cannot interrupt one step."""
    if pow_bits(a[0], a[1]) > BITS_CAP:
        raise FeasibilityError(f"POW would build more than BITS_CAP = {BITS_CAP} bits")
    return power(a[0], a[1])


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


def _compile(t: PRTerm, mode: tuple[bool, bool]) -> Run:
    """t's closure in mode, compiling first every node below t that has
    none, by nodes.fold."""
    table = _RUN[mode]
    return fold(t, lambda node, *_: _closure(node, mode, table), table)


def _closure(node: PRTerm, mode: tuple[bool, bool], table: dict[PRTerm, Run]) -> Run:
    intrinsics, absorbing = mode
    twin = _INTRINSICS.get(node) if intrinsics else None
    h = _HEIGHT[node] = 1 + max(map(_HEIGHT.__getitem__, node.children), default=0)
    if h > NEST:   # a cut to each callee in a lower band, tall enough to be cached
        table = {c: _cut(c, table[c]) if NEST <= _HEIGHT[c] <= (h - 1) // NEST * NEST
                 else table[c] for k in node.children for c in (k, *k.children)}
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


class _Suspend(Exception):
    """(run, args): an attempt stopped at a cut, for run(ev, args) first."""


def _cut(node: PRTerm, run: Run) -> Run:
    """run past a cut: it suspends the attempt until node's value is cached."""
    def cut(ev, args):
        if (node, args) not in ev._cache:
            raise _Suspend(run, args)
        return run(ev, args)
    return cut


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
        try:
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
        except _Suspend:
            ev._hi[col] = i   # the retry goes on from the rows made so far
            raise
        ev._hi[col] = n
        return acc

    return run


def _exists_body(column: PRTerm) -> PRTerm:
    """body for the bounded-exists column prlib.rel_bexists(body) of a body
    with at least one parameter:

        R(SG(body(xs, 0)); SG(ADD(acc, body(xs, S(i)))))

    read off the or-shape of the step and checked against the base; any
    other node raises PRError."""
    validate(column)
    if isinstance(column, PrimRec):
        shape = _shape(column.g, False)
        if shape is not None and shape[0] == "or2" and isinstance(shape[2], Comp):
            body, m = shape[2].f, len(shape[2].gs) + 1
            n = m - 2
            at_next = tuple(Proj(j, m) for j in range(2, m)) + (Comp(Succ(), (Proj(m, m),)),)
            if n >= 1 and shape[1] is Proj(1, m) and shape[2].gs == at_next:
                zero = Zero() if n == 1 else Comp(Zero(), (Proj(1, n),))
                at_zero = tuple(Proj(j, n) for j in range(1, n + 1)) + (zero,)
                if column.f is Comp(SG, (Comp(body, at_zero),)):
                    return body
    raise PRError(f"not a bounded-exists column: {column!r}")


class Evaluator:
    """Evaluates PR terms with a persistent cache.

    One evaluator can serve many calls; reuse pays off whenever the same
    subterms recur (recursion columns, repeated candidates of a bounded
    search).  Pass max_steps to get a FeasibilityError instead of a very
    long computation.

    The evaluator runs each node's compiled closure, from the table of
    its mode (see _compile).  Closures are per node, not per evaluator,
    because every CompiledRelation has an evaluator of its own: compiling
    per evaluator raised the corpus benchmark's median instance from 0.46
    to 0.67 ms.

    eval makes an attempt stopped at a cut again after the cut; a caller
    with no room on the stack for one attempt gets FeasibilityError.
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
        self.confirmed = self.refused = 0     # certificates, see confirm

    def eval(self, t: PRTerm, args) -> int:
        args = tuple(args)
        if (arity := self._arity.get(t)) is None:
            arity = self._arity[t] = validate(t)
        if len(args) != arity:
            raise ArityError(f"term of arity {arity} applied to {len(args)} arguments")
        # as formulas._check_var: a bool is not a natural, though True == 1
        if any(type(a) is not int or a < 0 for a in args):
            raise PRError("arguments must be naturals")
        run = self._run.get(t) or _compile(t, (self.use_intrinsics, self.use_absorbing))
        todo = [(run, args)]   # t's attempt, then each cut one stopped at
        while todo:
            try:
                v = todo[-1][0](self, todo[-1][1])
                todo.pop()
            except _Suspend as cut:
                todo.append(cut.args)
            except RecursionError:
                raise FeasibilityError("no room on the stack for one evaluation attempt") from None
        return v

    def confirm(self, column: PRTerm, xs, c: int) -> bool:
        """Settle the bounded-exists column = prlib.rel_bexists(body) at the
        parameters xs from the candidate witness c.

        body(xs, c) is evaluated by eval, so it ticks, fills the cache and
        counts against the budget as any evaluation does.  If it is 1, the
        column is 1 at every row n >= c, which is recorded as the absorbing
        sweep records its first witness; the column then answers rows from
        c on without sweeping, in every mode.  Rows below c, and every row
        when the body is not 1, are left to the sweep.  Returns whether c
        was confirmed.  A column that is not of that shape raises PRError.
        """
        body = _exists_body(column)
        xs = tuple(xs)
        if self.eval(body, xs + (c,)) != 1:
            self.refused += 1
            return False
        self.confirmed += 1
        col = (column, xs)
        hit = self._absorbed.get(col)
        if hit is None or c < hit[0]:
            self._absorbed[col] = (c, 1)
        return True

    def stats(self) -> dict[str, int]:
        """Steps taken, entries in each cache, the certificates confirmed
        and refused, and the closures compiled so far for this evaluator's
        mode (shared with every evaluator of it)."""
        return {"steps": self.steps, "cache": len(self._cache), "hi": len(self._hi),
                "absorbed": len(self._absorbed), "const_from": len(self._const_from),
                "confirmed": self.confirmed, "refused": self.refused,
                "closures": len(self._run)}


def eval_pr(t: PRTerm, args, max_steps: int | None = None,
            witnesses: Iterable[tuple[PRTerm, tuple[int, ...], int]] = ()) -> int:
    """One-shot evaluation with a fresh cache.

    witnesses are certificates (column, xs, c) for bounded-exists columns.
    Each is confirmed in order (Evaluator.confirm) under the same budget
    before t is evaluated, so list inner columns first: an outer body that
    contains a settled inner column does not sweep it.  A certificate only
    ever skips a sweep whose result it proves, so the value of t does not
    depend on them (Blum & Kannan, "Designing programs that check their
    work", JACM 42(1), 1995).
    """
    ev = Evaluator(max_steps=max_steps)
    for column, xs, c in witnesses:
        ev.confirm(column, xs, c)
    return ev.eval(t, args)


# ----------------------------------------------------------- text format


def serialize(t: PRTerm) -> str:
    """The DAG of the well-formed term t as text, one line per distinct
    node, each after its children and t last.  A line is Z, S, P i n,
    C f g1 ... gm or R f g, where f, g, g1, ... are the numbers of earlier
    lines, counted from 0.  The text has as many lines as postorder(t)
    has nodes, so a term that shares its subterms stays small."""
    validate(t)
    tags = {Zero: "Z", Succ: "S", Comp: "C", PrimRec: "R"}
    order = postorder(t)
    line = {node: k for k, node in enumerate(order)}
    return "\n".join(
        f"P {node.i} {node.n}" if type(node) is Proj
        else " ".join([tags[type(node)], *(str(line[c]) for c in node.children)])
        for node in order)


def parse_pr(text: str) -> PRTerm:
    """The term of the last line of a text that serialize writes.

    Fields are separated by blanks, and a reference is a decimal number
    of an earlier line, counted from 0.  A malformed line raises PRError
    naming the line, and so does a line that builds no well-formed node,
    such as P 0 1.  Interning makes parse_pr(serialize(t)) t itself.
    """
    terms: list[PRTerm] = []
    for k, line in enumerate(text.splitlines()):
        tag, *fields = line.split() or [""]
        try:
            if not all(f.isascii() and f.isdigit() for f in fields):
                raise PRError("fields must be decimal numbers")
            nums = [int(f) for f in fields]
            if tag == "P" and len(nums) == 2:
                term = Proj(*nums)
            elif tag in ("Z", "S") and not nums:
                term = Zero() if tag == "Z" else Succ()
            elif tag == "C" and nums or tag == "R" and len(nums) == 2:
                if max(nums) >= k:
                    raise PRError("a reference must name an earlier line")
                f, *gs = [terms[r] for r in nums]
                term = Comp(f, tuple(gs)) if tag == "C" else PrimRec(f, *gs)
            else:
                raise PRError("expected Z, S, P i n, C f g1 ... gm or R f g")
        except PRError as exc:
            raise PRError(f"line {k} {line!r}: {exc}") from None
        terms.append(term)
    if not terms:
        raise PRError("no term in an empty text")
    return terms[-1]
