"""Terms and formulas of arithmetic over the signature <0, 1, +, *, <=>.

The bounded quantifiers (A v <= t) and (E v <= t) are first-class nodes,
as are the unbounded ones.  A formula is bounded ("delta-0") when every
quantifier in it carries a bound.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class FormulaError(ValueError):
    """Malformed term or formula."""


class ParseError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class CaptureError(FormulaError):
    """Substitution would move a free variable under a binder for it."""


# ----------------------------------------------------------------- terms


@dataclass(frozen=True, slots=True)
class Term:
    pass


@dataclass(frozen=True, slots=True)
class ConstZero(Term):
    pass


@dataclass(frozen=True, slots=True)
class ConstOne(Term):
    pass


@dataclass(frozen=True, slots=True)
class Var(Term):
    index: int

    def __post_init__(self):
        if not isinstance(self.index, int) or self.index < 0:
            raise FormulaError(f"variable index must be a natural number, got {self.index!r}")


@dataclass(frozen=True, slots=True)
class Add(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Mul(Term):
    left: Term
    right: Term


ZERO = ConstZero()
ONE = ConstOne()


# -------------------------------------------------------------- formulas


@dataclass(frozen=True, slots=True)
class Formula:
    pass


@dataclass(frozen=True, slots=True)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Le(Formula):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


def _check_bound(var: int, bound: Term):
    if var in term_vars(bound):
        raise FormulaError(f"bound variable v{var} occurs in its own bound term")


@dataclass(frozen=True, slots=True)
class BForall(Formula):
    var: int
    bound: Term
    body: Formula

    def __post_init__(self):
        _check_bound(self.var, self.bound)


@dataclass(frozen=True, slots=True)
class BExists(Formula):
    var: int
    bound: Term
    body: Formula

    def __post_init__(self):
        _check_bound(self.var, self.bound)


@dataclass(frozen=True, slots=True)
class UForall(Formula):
    var: int
    body: Formula


@dataclass(frozen=True, slots=True)
class UExists(Formula):
    var: int
    body: Formula


# ------------------------------------------------------------- utilities


def term_vars(t: Term) -> frozenset[int]:
    """Set of variable indices occurring in a term."""
    match t:
        case ConstZero() | ConstOne():
            return frozenset()
        case Var(i):
            return frozenset((i,))
        case Add(l, r) | Mul(l, r):
            return term_vars(l) | term_vars(r)
    raise FormulaError(f"not a term: {t!r}")


def free_vars(phi: Formula | Term) -> frozenset[int]:
    """Free variable indices of a formula (or all variables of a term)."""
    if isinstance(phi, Term):
        return term_vars(phi)
    match phi:
        case Eq(l, r) | Le(l, r):
            return term_vars(l) | term_vars(r)
        case Not(b):
            return free_vars(b)
        case Implies(l, r) | And(l, r) | Or(l, r):
            return free_vars(l) | free_vars(r)
        case BForall(v, t, b) | BExists(v, t, b):
            return term_vars(t) | (free_vars(b) - {v})
        case UForall(v, b) | UExists(v, b):
            return free_vars(b) - {v}
    raise FormulaError(f"not a formula: {phi!r}")


def is_delta0(phi: Formula) -> bool:
    """True when every quantifier in the formula is bounded."""
    match phi:
        case Eq() | Le():
            return True
        case Not(b):
            return is_delta0(b)
        case Implies(l, r) | And(l, r) | Or(l, r):
            return is_delta0(l) and is_delta0(r)
        case BForall(_, _, b) | BExists(_, _, b):
            return is_delta0(b)
        case UForall() | UExists():
            return False
    raise FormulaError(f"not a formula: {phi!r}")


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
    used: set[int] = set()

    def scan(n):
        if isinstance(n, Term):
            used.update(term_vars(n))
            return
        match n:
            case Eq(l, r) | Le(l, r):
                used.update(term_vars(l) | term_vars(r))
            case Not(b):
                scan(b)
            case Implies(l, r) | And(l, r) | Or(l, r):
                scan(l)
                scan(r)
            case BForall(v, t, b) | BExists(v, t, b):
                used.add(v)
                used.update(term_vars(t))
                scan(b)
            case UForall(v, b) | UExists(v, b):
                used.add(v)
                scan(b)

    for node in nodes:
        scan(node)
    return max(used, default=-1) + 1


def substitute(node: Formula | Term, var: int, replacement: Term):
    """Replace free occurrences of v<var> by a term.

    Raises CaptureError when the replacement would be captured by a binder,
    or would put the binder's own variable into a quantifier bound.
    """
    repl_vars = term_vars(replacement)

    def sub_t(t: Term) -> Term:
        match t:
            case Var(i) if i == var:
                return replacement
            case ConstZero() | ConstOne() | Var():
                return t
            case Add(l, r):
                return Add(sub_t(l), sub_t(r))
            case Mul(l, r):
                return Mul(sub_t(l), sub_t(r))
        raise FormulaError(f"not a term: {t!r}")

    def sub_f(phi: Formula) -> Formula:
        match phi:
            case Eq(l, r):
                return Eq(sub_t(l), sub_t(r))
            case Le(l, r):
                return Le(sub_t(l), sub_t(r))
            case Not(b):
                return Not(sub_f(b))
            case Implies(l, r):
                return Implies(sub_f(l), sub_f(r))
            case And(l, r):
                return And(sub_f(l), sub_f(r))
            case Or(l, r):
                return Or(sub_f(l), sub_f(r))
            case BForall(v, t, b) | BExists(v, t, b):
                cls = type(phi)
                if v == var:
                    # var is bound here; only the bound term is in scope,
                    # and it may not contain v anyway.
                    return cls(v, sub_t(t), b)
                if v in repl_vars and var in (term_vars(t) | free_vars(b)):
                    raise CaptureError(
                        f"substituting for v{var} would capture v{v} under its binder")
                return cls(v, sub_t(t), sub_f(b))
            case UForall(v, b) | UExists(v, b):
                cls = type(phi)
                if v == var:
                    return phi
                if v in repl_vars and var in free_vars(b):
                    raise CaptureError(
                        f"substituting for v{var} would capture v{v} under its binder")
                return cls(v, sub_f(b))
        raise FormulaError(f"not a formula: {phi!r}")

    return sub_t(node) if isinstance(node, Term) else sub_f(node)


def desugar(phi: Formula) -> Formula:
    """Rewrite into the negation/implication/bounded-universal core.

    A & B     becomes  ~(A -> ~B)
    A | B     becomes  ~A -> B
    (E v<=t)A becomes  ~(A v<=t)~A
    (E v)A    becomes  ~(A v)~A
    """
    match phi:
        case Eq() | Le():
            return phi
        case Not(b):
            return Not(desugar(b))
        case Implies(l, r):
            return Implies(desugar(l), desugar(r))
        case And(l, r):
            return Not(Implies(desugar(l), Not(desugar(r))))
        case Or(l, r):
            return Implies(Not(desugar(l)), desugar(r))
        case BForall(v, t, b):
            return BForall(v, t, desugar(b))
        case BExists(v, t, b):
            return Not(BForall(v, t, Not(desugar(b))))
        case UForall(v, b):
            return UForall(v, desugar(b))
        case UExists(v, b):
            return Not(UForall(v, Not(desugar(b))))
    raise FormulaError(f"not a formula: {phi!r}")


# ------------------------------------------------------------- printing


def show(node: Formula | Term) -> str:
    """Render a term or formula in the concrete grammar."""
    match node:
        case ConstZero():
            return "0"
        case ConstOne():
            return "1"
        case Var(i):
            return f"v{i}"
        case Add(l, r):
            return f"({show(l)} + {show(r)})"
        case Mul(l, r):
            return f"({show(l)} * {show(r)})"
        case Eq(l, r):
            return f"({show(l)} = {show(r)})"
        case Le(l, r):
            return f"({show(l)} <= {show(r)})"
        case Not(b):
            return f"~{show(b)}"
        case Implies(l, r):
            return f"({show(l)} -> {show(r)})"
        case And(l, r):
            return f"({show(l)} & {show(r)})"
        case Or(l, r):
            return f"({show(l)} | {show(r)})"
        case BForall(v, t, b):
            return f"(A v{v} <= {show(t)}){show(b)}"
        case BExists(v, t, b):
            return f"(E v{v} <= {show(t)}){show(b)}"
        case UForall(v, b):
            return f"(A v{v}){show(b)}"
        case UExists(v, b):
            return f"(E v{v}){show(b)}"
    raise FormulaError(f"not a term or formula: {node!r}")


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

    def fail(self, message):
        raise ParseError(message, self.peek()[2])

    # Inside "(...)" the shape is only known once the operator is seen, so
    # parse a generic expression first and let the operator disambiguate.
    def parse_expr(self) -> Formula | Term:
        kind, val, at = self.peek()
        if kind == "const":
            self.next()
            return ZERO if val == "0" else ONE
        if kind == "var":
            self.next()
            return Var(int(val[1:]))
        if val == "~":
            self.next()
            body = self.parse_expr()
            if not isinstance(body, Formula):
                raise ParseError("negation applies to formulas", at)
            return Not(body)
        if val == "(":
            self.next()
            if self.peek()[0] == "quant":
                return self.parse_quantifier()
            left = self.parse_expr()
            okind, op, oat = self.next()
            if op in ("+", "*"):
                if not isinstance(left, Term):
                    raise ParseError(f"operator {op!r} applies to terms", oat)
                right = self.parse_expr()
                if not isinstance(right, Term):
                    raise ParseError(f"operator {op!r} applies to terms", oat)
                self.expect(")")
                return Add(left, right) if op == "+" else Mul(left, right)
            if op in ("=", "<="):
                if not isinstance(left, Term):
                    raise ParseError(f"operator {op!r} compares terms", oat)
                right = self.parse_expr()
                if not isinstance(right, Term):
                    raise ParseError(f"operator {op!r} compares terms", oat)
                self.expect(")")
                return Eq(left, right) if op == "=" else Le(left, right)
            if op in ("->", "&", "|"):
                if not isinstance(left, Formula):
                    raise ParseError(f"connective {op!r} joins formulas", oat)
                right = self.parse_expr()
                if not isinstance(right, Formula):
                    raise ParseError(f"connective {op!r} joins formulas", oat)
                self.expect(")")
                cls = {"->": Implies, "&": And, "|": Or}[op]
                return cls(left, right)
            raise ParseError(f"unexpected token {op!r} after subexpression", oat)
        raise ParseError(f"unexpected token {val or 'end of input'!r}", at)

    def parse_quantifier(self) -> Formula:
        _, q, qat = self.next()
        kind, val, at = self.next()
        if kind != "var":
            raise ParseError("quantifier needs a variable", at)
        v = int(val[1:])
        kind2, val2, at2 = self.peek()
        bound = None
        if val2 == "<=":
            self.next()
            bound = self.parse_expr()
            if not isinstance(bound, Term):
                raise ParseError("quantifier bound must be a term", at2)
        self.expect(")")
        body = self.parse_expr()
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
    node = p.parse_expr()
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
