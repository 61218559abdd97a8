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

Calling a term on builder expressions, f(x, y), builds an App; prlib.fn
lowers a body of such expressions over named arguments to projections and
compositions.

Nodes are hash-consed: constructing a term returns the one node with its
class and fields, so structurally equal terms are the same object, and
equality and hashing are identity.  Every cache (the evaluator's tables,
validate's arities, the intrinsic registry) is keyed by the node itself.
The table is a plain dict, so nodes live for the whole process.
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


# registered terms and their twins; a twin maps the argument tuple to the
# term's value, or to None when it leaves that argument to the equations
_INTRINSICS: dict[PRTerm, Twin] = {}


def intrinsic(t: PRTerm, twin: Twin) -> PRTerm:
    """Register twin as the Python computation of t and return t.

    Every term built equal to t is t, and is then computed by twin in one
    step.  The twin must equal t's recursion equations on all naturals and
    do work near-linear in the bit length of its arguments.
    """
    _INTRINSICS[t] = twin
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


class Evaluator:
    """Evaluates PR terms with a persistent cache.

    One evaluator can serve many calls; reuse pays off whenever the same
    subterms recur (recursion columns, repeated candidates of a bounded
    search).  Pass max_steps to get a FeasibilityError instead of a very
    long computation.
    """

    def __init__(self, max_steps: int | None = None,
                 intrinsics: bool = True, absorbing: bool = True):
        self.max_steps = max_steps
        self.steps = 0
        self.use_intrinsics = intrinsics
        self.use_absorbing = absorbing
        self._cache: dict[tuple[PRTerm, tuple[int, ...]], int] = {}
        self._hi: dict[tuple[PRTerm, tuple[int, ...]], int] = {}
        self._absorbed: dict[tuple[PRTerm, tuple[int, ...]], tuple[int, int]] = {}
        self._const_from: dict[tuple[PRTerm, tuple[int, ...]], tuple[int, int]] = {}
        self._sumtail: dict[PRTerm, PrimRec | None] = {}
        self._kind: dict[PRTerm, tuple] = {}
        self._arity: dict[PRTerm, int] = {}   # validated roots

    # -- classification -------------------------------------------------

    def _classify(self, t: PRTerm) -> tuple:
        got = self._kind.get(t)
        if got is not None:
            return got
        kind: tuple = ("plain",)
        twin = _INTRINSICS.get(t) if self.use_intrinsics else None
        if twin is not None:
            kind = ("intrinsic", twin)
        elif isinstance(t, Comp):
            # and-shape: mul of two inner functions, absorbing at 0
            if t.f is MUL and len(t.gs) == 2:
                kind = ("and2", t.gs[0], t.gs[1])
            # or-shape: sg of a sum of two inner functions, absorbing at 1
            elif (t.f is SG and len(t.gs) == 1 and isinstance(t.gs[0], Comp)
                    and t.gs[0].f is ADD and len(t.gs[0].gs) == 2):
                kind = ("or2", t.gs[0].gs[0], t.gs[0].gs[1])
        self._kind[t] = kind
        return kind

    def _sum_tail_inner(self, g: PRTerm) -> PrimRec | None:
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
        if self._absorbing_value(rest.f.g) != 0:
            return None
        return rest.f

    def _absorbing_value(self, g: PRTerm) -> int | None:
        """Value v with g(v, xs, i) = v for all xs, i, when detectable."""
        kind = self._classify(g)
        if kind[0] == "and2" and (isinstance(kind[1], Proj) and kind[1].i == 1
                                  or isinstance(kind[2], Proj) and kind[2].i == 1):
            return 0
        if kind[0] == "or2" and (isinstance(kind[1], Proj) and kind[1].i == 1
                                 or isinstance(kind[2], Proj) and kind[2].i == 1):
            return 1
        return None

    # -- evaluation ------------------------------------------------------

    def eval(self, t: PRTerm, args) -> int:
        args = tuple(args)
        arity = self._arity.get(t)
        if arity is None:
            arity = self._arity[t] = validate(t)
        if len(args) != arity:
            raise ArityError(f"term of arity {arity} applied to {len(args)} arguments")
        if any(a < 0 for a in args):
            raise PRError("arguments must be naturals")
        return self._eval(t, args)

    def _tick(self):
        self.steps += 1
        if self.max_steps is not None and self.steps > self.max_steps:
            raise FeasibilityError(
                f"evaluation exceeded the step budget of {self.max_steps}")

    def _eval(self, t: PRTerm, args: tuple[int, ...]) -> int:
        self._tick()
        key = (t, args)
        got = self._cache.get(key)
        if got is not None:
            return got
        match t:
            case Zero():
                return 0
            case Succ():
                return args[0] + 1
            case Proj(i, _):
                return args[i - 1]
            case Comp() | PrimRec():
                kind = self._classify(t)
                v = kind[1](args) if kind[0] == "intrinsic" else None
                if v is None:
                    v = (self._eval_comp(t, args) if isinstance(t, Comp)
                         else self._eval_rec(t, args))
            case _:
                raise PRError(f"not a PR term: {t!r}")
        self._cache[key] = v
        return v

    def _eval_comp(self, t: Comp, args: tuple[int, ...]) -> int:
        kind = self._classify(t)
        if self.use_absorbing and kind[0] == "and2":
            a = self._eval(kind[1], args)
            if a == 0:
                return 0
            return a * self._eval(kind[2], args)
        if self.use_absorbing and kind[0] == "or2":
            a = self._eval(kind[1], args)
            if a >= 1:
                return 1
            return min(self._eval(kind[2], args), 1)
        inner = tuple(self._eval(g, args) for g in t.gs)
        return self._eval(t.f, inner)

    def _eval_rec(self, t: PrimRec, args: tuple[int, ...]) -> int:
        xs, n = args[:-1], args[-1]
        col = (t, xs)
        hit = self._absorbed.get(col)
        if hit is not None and n >= hit[0]:
            return hit[1]
        hit = self._const_from.get(col)
        if hit is not None and n >= hit[0]:
            return hit[1]
        absorb = tail = None
        if self.use_absorbing:
            absorb = self._absorbing_value(t.g)
            if t.g not in self._sumtail:
                self._sumtail[t.g] = self._sum_tail_inner(t.g)
            tail = self._sumtail[t.g]
        start = self._hi.get(col, -1)
        if start < 0:
            acc = self._eval(t.f, xs)
            self._cache[(t, xs + (0,))] = acc
            start = 0
        else:
            if start >= n:
                return self._cache[(t, args)]
            acc = self._cache[(t, xs + (start,))]
        # a counter, not range(start, n), which copies a huge n several times
        i = start
        while i < n:
            if absorb is not None and acc == absorb:
                self._absorbed[col] = (i, absorb)
                self._hi[col] = max(self._hi.get(col, -1), i)
                return absorb
            if tail is not None:
                inner = self._absorbed.get((tail, xs))
                if inner is not None and inner[1] == 0 and i + 1 > inner[0]:
                    # every remaining summand is 0: the column stays at acc
                    self._const_from[col] = (i, acc)
                    return acc
            self._tick()
            acc = self._eval(t.g, (acc,) + xs + (i,))
            i += 1
            self._cache[(t, xs + (i,))] = acc
        self._hi[col] = n
        return acc


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
