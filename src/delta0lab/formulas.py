"""Terms and formulas of arithmetic over the signature <0, 1, +, *, <=>.

The bounded quantifiers (A v <= t) and (E v <= t) are first-class nodes,
as are the unbounded ones.  A formula is bounded ("delta-0") when every
quantifier in it carries a bound.

Terms and formulas are interned nodes (nodes.py), so == and hash are
identity.  free_vars, is_delta0, fresh_index and desugar are combines of
nodes.fold, each keeping its results in a table keyed by the node; show
emits its tokens from one stack; substitute and the parser, which carry a
variable or a position down, are steps of nodes.walk.  So none of them
recurses, and the depth of a node is bounded by memory.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce

from .nodes import Node, fold, walk


class FormulaError(ValueError):
    """Malformed term or formula."""


class ParseError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class CaptureError(FormulaError):
    """Substitution would move a free variable under a binder for it."""


# ----------------------------------------------------------------- terms


def _check_var(var: int, *rest) -> None:
    """Reject a variable index that is not an int at least 0; a bool is
    not one, though True == 1 would find the node Var(1)."""
    if type(var) is not int or var < 0:
        raise FormulaError(f"variable index must be a natural number, got {var!r}")


def _check_fields(node: Term | Formula) -> None:
    """Reject a field of a new node that is not a term or formula, other
    than a variable index.  A node of the wrong kind, such as the term in
    Not(ZERO), passes: the walkers report it.  This runs only when a node
    is first built: a field that is not a node never matches an interned
    one, whose fields compare by identity."""
    for name in node.__match_args__:
        field = getattr(node, name)
        if not isinstance(field, (Term, Formula)) and name != "var" and name != "index":
            _syntax(field)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Term(Node):
    __post_init__ = _check_fields


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class ConstZero(Term):
    pass


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class ConstOne(Term):
    pass


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Var(Term):
    index: int

    check = staticmethod(_check_var)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Add(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Mul(Term):
    left: Term
    right: Term


ZERO = ConstZero()
ONE = ConstOne()


# -------------------------------------------------------------- formulas


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Formula(Node):
    __post_init__ = _check_fields


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Le(Formula):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Not(Formula):
    body: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


def _check_bounded(var: int, bound: Term, body: Formula) -> None:
    _check_var(var)
    if var in free_vars(_syntax(bound, Term)):
        raise FormulaError(f"bound variable v{var} occurs in its own bound term")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class BForall(Formula):
    var: int
    bound: Term
    body: Formula

    check = staticmethod(_check_bounded)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class BExists(Formula):
    var: int
    bound: Term
    body: Formula

    check = staticmethod(_check_bounded)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class UForall(Formula):
    var: int
    body: Formula

    check = staticmethod(_check_var)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class UExists(Formula):
    var: int
    body: Formula

    check = staticmethod(_check_var)


# ------------------------------------------------------------- utilities


def _syntax(node, kind: type | tuple = (Term, Formula)):
    """node, when it is a kind; FormulaError otherwise."""
    if not isinstance(node, kind):
        noun = getattr(kind, "__name__", "term or formula").lower()
        raise FormulaError(f"not a {noun}: {node!r}")
    return node


_FREE: dict[Node, frozenset[int]] = {}
_BOUNDED: dict[Node, bool] = {}
_TOP: dict[Node, int] = {}
_CORE: dict[Node, Node] = {}


def free_vars(phi: Formula | Term) -> frozenset[int]:
    """Free variable indices of a formula (or all variables of a term)."""
    return fold(_syntax(phi), _free, _FREE)


def _union(a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
    # a deep chain shares one set instead of copying it at every level
    return b if a <= b else a if b <= a else a | b


def _free(node: Node, *kids: frozenset[int]) -> frozenset[int]:
    match node:
        case Var(i):
            return frozenset((i,))
        case BForall(v, _, _) | BExists(v, _, _):
            return _union(kids[0], kids[1] - {v})
        case UForall(v, _) | UExists(v, _):
            return kids[0] - {v}
    return reduce(_union, kids, frozenset())


def is_delta0(phi: Formula) -> bool:
    """True when every quantifier in the formula is bounded."""
    return fold(_syntax(phi, Formula), _bounded, _BOUNDED)


def _bounded(node: Node, *kids: bool) -> bool:
    return not isinstance(node, (UForall, UExists)) and all(kids)


def numeral(n: int) -> Term:
    """The canonical term for n: 0, 1, (1+1), ((1+1)+1), ..."""
    if n < 0:
        raise FormulaError("numerals exist for naturals only")
    if n == 0:
        return ZERO
    t: Term = ONE
    for _ in range(n - 1):
        t = Add(t, ONE)
    return t


def lt(left: Term, right: Term) -> Formula:
    """Strict order, desugared as left <= right and not left = right."""
    return And(Le(left, right), Not(Eq(left, right)))


def fresh_index(*nodes: Formula | Term) -> int:
    """A variable index not occurring (free or bound) in any argument."""
    return 1 + max((fold(_syntax(n), _top, _TOP) for n in nodes), default=-1)


def _top(node: Node, *kids: int) -> int:
    """The largest variable index in node, free or bound; -1 for none."""
    match node:
        case Var(i) | BForall(i, _, _) | BExists(i, _, _) | UForall(i, _) | UExists(i, _):
            return max((i, *kids))
    return max(kids, default=-1)


def substitute(node: Formula | Term, var: int, replacement: Term):
    """Replace free occurrences of v<var> by a term.

    Raises CaptureError when the replacement would be captured by a binder,
    or would put the binder's own variable into a quantifier bound.
    """
    repl_vars = free_vars(replacement)
    # fills _FREE for node and every node below it, which sub reads
    free_vars(node)

    def sub(n: Formula | Term):
        """A step of nodes.walk: n with the replacement made, yielding
        (child,) for a child's.  A node where var is not free is its own
        result, so a binder of var, whose bound cannot contain it, is."""
        if var not in _FREE[n]:
            return n
        cls = type(n)
        if cls is Var:
            return replacement
        if cls is Not:
            return Not((yield (n.body,)))
        if cls in _INFIX:   # the binary nodes
            return cls((yield (n.left,)), (yield (n.right,)))
        if n.var in repl_vars:
            raise CaptureError(
                f"substituting for v{var} would capture v{n.var} under its binder")
        if cls is BForall or cls is BExists:
            return cls(n.var, (yield (n.bound,)), (yield (n.body,)))
        return cls(n.var, (yield (n.body,)))

    return walk(sub, node)


def desugar(phi: Formula) -> Formula:
    """Rewrite into the negation/implication/bounded-universal core.

    A & B     becomes  ~(A -> ~B)
    A | B     becomes  ~A -> B
    (E v<=t)A becomes  ~(A v<=t)~A
    (E v)A    becomes  ~(A v)~A
    """
    return fold(_syntax(phi, Formula), _core, _CORE)


def _core(node: Node, *kids: Node) -> Node:
    """node over the core forms of its children; terms and atoms stay."""
    match node:
        case Not():
            return Not(*kids)
        case Implies():
            return Implies(*kids)
        case And():
            return Not(Implies(kids[0], Not(kids[1])))
        case Or():
            return Implies(Not(kids[0]), kids[1])
        case BForall(v, t, _):
            return BForall(v, t, kids[1])
        case BExists(v, t, _):
            return Not(BForall(v, t, Not(kids[1])))
        case UForall(v, _):
            return UForall(v, *kids)
        case UExists(v, _):
            return Not(UForall(v, Not(*kids)))
    return node


# ------------------------------------------------------------- printing

_INFIX = {Add: " + ", Mul: " * ", Eq: " = ", Le: " <= ",
          Implies: " -> ", And: " & ", Or: " | "}


def show(node: Formula | Term) -> str:
    """Render a term or formula in the concrete grammar.

    Tokens are emitted in pre-order from one stack, which also holds the
    tokens still due after a child, and joined once.
    """
    out: list[str] = []
    todo: list = [_syntax(node)]
    while todo:
        n = todo.pop()
        cls = type(n)
        if cls is str:
            out.append(n)
        elif cls in _INFIX:
            out.append("(")
            todo += (")", n.right, _INFIX[cls], n.left)
        elif cls is Var:
            out.append(f"v{n.index}")
        elif cls is ConstZero or cls is ConstOne:
            out.append("0" if cls is ConstZero else "1")
        elif cls is Not:
            out.append("~")
            todo.append(n.body)
        elif cls is BForall or cls is BExists:
            out.append(f"({'A' if cls is BForall else 'E'} v{n.var} <= ")
            todo += (n.body, ")", n.bound)
        elif cls is UForall or cls is UExists:
            out.append(f"({'A' if cls is UForall else 'E'} v{n.var})")
            todo.append(n.body)
        else:
            raise FormulaError(f"not a term or formula: {n!r}")
    return "".join(out)


# -------------------------------------------------------------- parsing

# One alternative per token kind; whitespace matches none of them and is
# skipped by finditer, and any other character is a "bad" token.
_TOKEN = re.compile(r"""
    (?P<punct> -> | <= | [()+*=~&|] )
  | (?P<var>   v\d+ )
  | (?P<const> [01] )
  | (?P<quant> [AE] )
  | (?P<bad>   \S )
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, value, position)."""
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        out.append((kind, m.group(), m.start()))
    out.append(("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, at = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", at)

    def atom(self) -> Term | None:
        """The constant or variable at the current token, read; None, and
        nothing read, at any other token."""
        kind, val, _ = self.toks[self.pos]
        if kind == "const":
            self.pos += 1
            return ZERO if val == "0" else ONE
        if kind == "var":
            self.pos += 1
            return Var(int(val[1:]))
        return None

    # Inside "(...)" the shape is only known once the operator is seen, so
    # parse a generic expression first and let the operator disambiguate.
    def parse_expr(self):
        """A step of nodes.walk: the expression at the current token,
        yielding () for one that follows unless it is an atom."""
        node = self.atom()
        if node is not None:
            return node
        kind, val, at = self.peek()
        if val == "~":
            self.next()
            body = self.atom() or (yield ())
            if not isinstance(body, Formula):
                raise ParseError("negation applies to formulas", at)
            return Not(body)
        if val == "(":
            self.next()
            if self.peek()[0] == "quant":
                return (yield from self.parse_quantifier())
            left = self.atom() or (yield ())
            okind, op, oat = self.next()
            if op in ("+", "*"):
                if not isinstance(left, Term):
                    raise ParseError(f"operator {op!r} applies to terms", oat)
                right = self.atom() or (yield ())
                if not isinstance(right, Term):
                    raise ParseError(f"operator {op!r} applies to terms", oat)
                self.expect(")")
                return Add(left, right) if op == "+" else Mul(left, right)
            if op in ("=", "<="):
                if not isinstance(left, Term):
                    raise ParseError(f"operator {op!r} compares terms", oat)
                right = self.atom() or (yield ())
                if not isinstance(right, Term):
                    raise ParseError(f"operator {op!r} compares terms", oat)
                self.expect(")")
                return Eq(left, right) if op == "=" else Le(left, right)
            if op in ("->", "&", "|"):
                if not isinstance(left, Formula):
                    raise ParseError(f"connective {op!r} joins formulas", oat)
                right = self.atom() or (yield ())
                if not isinstance(right, Formula):
                    raise ParseError(f"connective {op!r} joins formulas", oat)
                self.expect(")")
                cls = {"->": Implies, "&": And, "|": Or}[op]
                return cls(left, right)
            raise ParseError(f"unexpected token {op!r} after subexpression", oat)
        raise ParseError(f"unexpected token {val or 'end of input'!r}", at)

    def parse_quantifier(self):
        """The quantified formula whose "(" has been read: part of the
        parse_expr step, yielding () for its bound and its body."""
        _, q, qat = self.next()
        kind, val, at = self.next()
        if kind != "var":
            raise ParseError("quantifier needs a variable", at)
        v = int(val[1:])
        kind2, val2, at2 = self.peek()
        bound = None
        if val2 == "<=":
            self.next()
            bound = self.atom() or (yield ())
            if not isinstance(bound, Term):
                raise ParseError("quantifier bound must be a term", at2)
        self.expect(")")
        body = self.atom() or (yield ())
        if not isinstance(body, Formula):
            raise ParseError("quantifier body must be a formula", qat)
        if bound is None:
            return UForall(v, body) if q == "A" else UExists(v, body)
        try:
            return BForall(v, bound, body) if q == "A" else BExists(v, bound, body)
        except FormulaError as exc:
            raise ParseError(str(exc), qat) from None


def parse(text: str) -> Formula | Term:
    """Parse a term or formula from the concrete grammar."""
    p = _Parser(text)
    node = walk(p.parse_expr)
    kind, val, at = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {val!r}", at)
    return node


def parse_formula(text: str) -> Formula:
    node = parse(text)
    if not isinstance(node, Formula):
        raise ParseError("expected a formula, found a term", 0)
    return node


def parse_term(text: str) -> Term:
    node = parse(text)
    if not isinstance(node, Term):
        raise ParseError("expected a term, found a formula", 0)
    return node
