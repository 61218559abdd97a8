"""Two interchangeable Godel numberings for terms and formulas.

Only the core nodes are coded: the terms 0, 1, v_i, +, * and the
formulas =, <=, ~, -> and bounded/unbounded A.  encode() desugars first
and decode() returns core formulas.  SYNTAX gives each core node class
its one row: its shape name, its symbol in the prime-power scheme, its
tag in the bit scheme, and its fields, a variable index and the kind of
each child.  Every writer, reader and mk of both schemes is derived from
that table.

Prime-power scheme ("paper"): a sequence <a_0, ..., a_k> is coded as
prod_i p_i^(a_i + 1) with the empty sequence coded 1.  A constant is
coded by its symbol, the variable v_i by 2i + 2, and a composite node by
the sequence of its symbol and its fields, a quantifier's variable as
its code.  Variable codes overlap composite codes from v7199 on, whose
code 14,400 also codes (0 + 0); decoding prefers the composite reading,
so the encoder refuses such a term variable and decode(encode(phi)) is
phi wherever encode succeeds.  A quantifier's variable slot is read as
a variable only, so any index may stand there.

Bit scheme ("compact"): a code is int("1" + bits, 2) for a bit string
produced by a prefix-free tag grammar: each node's tag, then for a
variable or a quantifier the Elias gamma code of its index + 1, and for
a quantifier the bit that tells a bounded one from an unbounded one.
Sequences concatenate the Elias gamma codes of entry + 1, with the empty
sequence again coded 1.  Codes stay within a constant factor of the
formula size, so deeply nested formulas remain materializable.  The
bits are the node tags in pre-order, so a code is written into one
string and read off bin(code) in one left-to-right pass, without
recursion and without building the code of any child.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import partial
from typing import NamedTuple

from .formulas import (
    Add, BForall, ConstOne, ConstZero, Eq, Formula, FormulaError, Implies, Le, Mul, Not, Term,
    UForall, Var, desugar, free_vars, is_delta0,
)
from .nodes import Node, fold, walk
from .numbers import BITS_CAP, FeasibilityError, LazyPow, magnitude_ge, magnitude_to_int
from .numbers import nthprime, pow_bits, power, prime_tower
from .semantics import Verdict, eval_term

KINDS = ("term", "formula", "delta0")


class CodingError(ValueError):
    """The integer does not code an object of the requested kind."""


class Syntax(NamedTuple):
    """How both schemes code the nodes of one core class.  A node's fields,
    in a shape and for mk, are its variable index, when index names the
    attribute that holds one, then the codes of its children in order."""
    shape: str            # the name that leads the node's shapes
    symbol: int | None    # paper: the head symbol; None for a variable, coded 2i + 2
    tag: str              # compact: the tag bits
    bound: str            # compact: the bit after a quantifier's index, else ""
    index: str | None     # the attribute that holds a variable index, or None
    kids: tuple[bool, ...]    # each child's kind: a formula (True) or a term (False)

    @property
    def arity(self) -> int:
        return (self.index is not None) + len(self.kids)


SYNTAX: dict[type, Syntax] = {
    ConstZero: Syntax("const0", 1, "0", "", None, ()),
    ConstOne: Syntax("const1", 3, "10", "", None, ()),
    Var: Syntax("var", None, "110", "", "index", ()),
    Add: Syntax("add", 5, "1110", "", None, (False, False)),
    Mul: Syntax("mul", 7, "1111", "", None, (False, False)),
    Eq: Syntax("eq", 9, "0", "", None, (False, False)),
    Le: Syntax("le", 11, "10", "", None, (False, False)),
    Not: Syntax("not", 13, "110", "", None, (True,)),
    Implies: Syntax("implies", 15, "1110", "", None, (True, True)),
    BForall: Syntax("bforall", 17, "1111", "0", "var", (False, True)),
    UForall: Syntax("uforall", 17, "1111", "1", "var", (True,)),
}

_TERMS = frozenset(cls for cls in SYNTAX if issubclass(cls, Term))
_FORMULAS = frozenset(SYNTAX) - _TERMS


def _need(nodes: tuple, kinds: tuple[bool, ...]) -> None:
    """CodingError unless each node is a core formula or a term, as its kind says."""
    for node, formula in zip(nodes, kinds):
        if type(node) not in (_FORMULAS if formula else _TERMS):
            raise CodingError(f"not a {'core formula' if formula else 'term'}: {node!r}")


def _index(i: int) -> int:
    """i, when it is a natural and so a variable index."""
    if type(i) is not int or i < 0:
        raise CodingError("variable index must be a natural")
    return i


def short_code(x: int) -> str:
    """Digit-safe rendering of possibly huge codes."""
    if isinstance(x, int) and x.bit_length() > 64:
        return f"<{x.bit_length()}-bit code>"
    return str(x)


# ---------------------------------------------------------------------------
# shared scheme interface


class Coding:
    """Common encode/decode layer; subclasses supply codes and shapes.

    A "shape" is a one-level reading of a code: the shape name of a core
    class (SYNTAX) and the fields of a node of that class, as
    ("add", a, b) or ("bforall", i, t, b), with child codes unvalidated.
    A code may admit several readings (prime-power variables); decoding
    tries them in order.

    A subclass supplies seq_encode(entries) and seq_decode(code);
    _read(code, formula), the node reader behind decode/decode_term, where
    formula tells a formula from a term; _shapes(code, formula), behind
    term_shapes and formula_shapes; _mk(cls, fields), behind mk(cls, *fields), the
    code of a node of the core class cls from its fields, as mk(Var, 2) or
    mk(BForall, i, t, b) over child codes t and b; and buildseq_bound(x),
    the budget for a building sequence of x.  It may replace fields(code),
    the child codes the Sat term's field readers take, and
    entry_shapes(code, formula), the reading of a building-sequence entry
    that coding.entry_clauses takes.

    encode/encode_term write through _write(node, formula), which builds
    the code bottom-up with mk (_build); a subclass may override it with
    a faster writer of the same codes.
    """

    name: str

    # -- encoding and decoding -------------------------------------------
    #
    # The four entry points below are the whole coding API for nodes; a
    # scheme supplies _read(code, formula), and may replace _write.

    def encode_term(self, t: Term) -> int:
        return self._write(t, False)

    def encode(self, phi: Formula) -> int:
        return self._write(desugar(phi), True)

    def decode_term(self, code: int) -> Term:
        return self._read(code, False)

    def decode(self, code: int) -> Formula:
        return self._read(code, True)

    def _write(self, node: Term | Formula, formula: bool) -> int:
        return self._build(node, formula, {})

    def _build(self, node: Term | Formula, formula: bool,
               table: dict[Node, int | None]) -> int:
        """The code of node, a term or a core formula as formula says.

        One nodes.fold builds every code from its children's codes with
        _mk, and table keeps the code of each node below node, so a node
        shared in the DAG is built once.  Each node's children are checked
        against the kinds SYNTAX gives them, so a node in the wrong place
        is reported there, with the kind its place needs.
        Once the codes built pass BITS_CAP bits together, FeasibilityError.
        """
        _need((node,), (formula,))
        return fold(node, partial(self._code, [0]), table)

    def _code(self, built: list[int], node: Node, *codes: int | None) -> int | None:
        """The combine of _build: node's code from its children's, or None
        for a node that is not core, which its parent reports.  built[0]
        sums the bits of the codes built so far."""
        cls = type(node)
        row = SYNTAX.get(cls)
        if row is None:
            return None
        _, _, _, _, index, kids = row
        if kids:
            _need(node.children, kids)
        code = self._mk(cls, codes if index is None else (getattr(node, index), *codes))
        built[0] += code.bit_length()
        if built[0] > BITS_CAP:
            raise FeasibilityError(
                f"the subcodes would have more than BITS_CAP = {BITS_CAP} bits together")
        return code

    def mk(self, cls: type, *fields: int) -> int:
        """The code of a node of the core class cls from its fields, as
        SYNTAX gives them: mk(Var, i), mk(Add, a, b) and mk(BForall, i, t, c)
        over child codes a, b, t and c, and so on.  The scheme's _mk(cls,
        fields) builds it."""
        row = SYNTAX.get(cls)
        if row is None or len(fields) != row.arity:
            raise TypeError(f"{cls.__name__} is no core class of {len(fields)} fields")
        return self._mk(cls, fields)

    # -- recognizers ------------------------------------------------------

    def is_seq(self, code: int) -> bool:
        try:
            self.seq_decode(code)
            return True
        except CodingError:
            return False

    def seq_idx(self, code: int, i: int) -> int:
        """Entry i, with 0 past the end (absent-variable convention)."""
        if type(i) is not int or i < 0:
            raise ValueError("index must be a natural")
        entries = self.seq_decode(code)
        return entries[i] if i < len(entries) else 0

    def is_term_code(self, code: int) -> bool:
        try:
            self.decode_term(code)
            return True
        except CodingError:
            return False

    def fields(self, code: int) -> tuple[int, ...]:
        """The child codes that the Sat term's field readers take off code:
        the two terms of an atom, and the variable code, the bound and the
        body of a bounded universal.  CodingError for any other code."""
        for shape in self.formula_shapes(code):
            match shape:
                case ("eq" | "le", a, b):
                    return a, b
                case ("bforall", i, t, b):
                    return self.mk(Var, i), t, b
        raise CodingError(f"{short_code(code)} is no atom and no bounded universal")

    def term_shapes(self, code: int) -> list[tuple]:
        return self._shapes(code, False)

    def formula_shapes(self, code: int) -> list[tuple]:
        return self._shapes(code, True)

    def entry_shapes(self, code: int, formula: bool) -> list[tuple]:
        """The shapes of code as a formula or a term, except that a scheme
        may leave the last child unread: its code is then the rest of code,
        which the caller must confirm, as coding.entry_clauses does."""
        return self._shapes(code, formula)

    def var_index(self, code: int) -> int | None:
        """Index i when code is a variable code v_i, else None.

        Under the prime-power scheme every even code >= 2 counts as a
        variable, per the stated convention, even when it also reads as a
        composite.
        """
        for shape in self.term_shapes(code):
            if shape[0] == "var":
                return shape[1]
        return None

    def is_delta0_code(self, code: int) -> bool:
        try:
            return is_delta0(self.decode(code))
        except CodingError:
            return False

    # -- valuations -------------------------------------------------------

    def val_encode(self, rho: Mapping[int, int]) -> int:
        """Valuation code: entry i is the value of v_i, absent means 0."""
        for k, v in rho.items():
            if type(k) is not int or type(v) is not int or k < 0 or v < 0:
                raise CodingError("valuation entries must map naturals to naturals")
        if not rho:
            return self.seq_encode([])
        top = max(rho)
        return self.seq_encode([rho.get(i, 0) for i in range(top + 1)])

    # -- magnitude bounds ---------------------------------------------------

    def termval_bound(self, u: int, z: int) -> int | LazyPow:
        """Upper bound p_u^(z^u + 1) for the value of term u under z.

        Past numbers.prime_tower's size for z^u the exponent is kept as
        the lazy power z^u, off by one; lower-bound queries stay sound.
        """
        if type(u) is not int or type(z) is not int or u < 0 or z < 0:
            raise ValueError("term code and valuation must be naturals")
        return prime_tower(u, z, lambda zu: zu + 1)


# ---------------------------------------------------------------------------
# prime-power scheme


# PaperCoding's tables, built once from SYNTAX: a shape's class and the
# kinds of its fields, None for an index; and the shape name of a code of
# a kind, by its symbol and number of fields, None for a constant coded by
# its symbol alone, with whether a variable code leads the fields.
_P_CLASSES = {row.shape: (cls, (None,) * (row.index is not None) + row.kids)
              for cls, row in SYNTAX.items()}
_P_SHAPES = {(cls in _FORMULAS, row.symbol, row.arity or None): (row.shape, row.index is not None)
             for cls, row in SYNTAX.items() if row.symbol is not None}


def _p_var_index(code: int) -> int | None:
    """i when code is 2i + 2, the paper code of v_i, else None."""
    return code // 2 - 1 if type(code) is int and code >= 2 and code % 2 == 0 else None


_POW_CHECK_BITS = 4096


def _pure_power(x: int, p: int) -> int | None:
    """e when x = p^e, tried when log(x)/log(p) lies within 1e-6 of e and
    confirmed by one exact power; None otherwise."""
    ratio = math.log(x) / math.log(p)
    e = round(ratio)
    return e if abs(ratio - e) < 1e-6 and power(p, e) == x else None


def strip_prime(x: int, p: int) -> tuple[int, int]:
    """(e, x / p^e) for the exact power of p in x >= 1.

    p = 2 is read off the trailing zeros.  An x of any size whose
    log(x)/log(p) lies within 1e-6 of an integer e is confirmed as the
    pure power p^e by one exact power (_pure_power), which covers the
    final entry of a paper sequence and the 3-part of a triple.  Every
    other x, and a pure power the float test misses, is stripped exactly
    by dividing out p, p^2, p^4, ...; once those powers grow to the size
    of x the cascade is quadratic in its bits.
    PaperCoding.seq_decode therefore strips a huge non-final entry only
    once the other factors are gone.
    """
    if x < 1:
        raise ValueError("only positive integers have prime valuations")
    if p == 2:
        e = (x & -x).bit_length() - 1
        return e, x >> e
    if x % p:
        return 0, x
    e = _pure_power(x, p)
    if e is not None:
        return e, 1
    pows = [(p, 1)]
    while x % (pows[-1][0] ** 2) == 0:
        pows.append((pows[-1][0] ** 2, pows[-1][1] * 2))
    e = 0
    for pw, k in reversed(pows):
        q, r = divmod(x, pw)
        if r == 0:
            x, e = q, e + k
    return e, x


class PaperCoding(Coding):
    name = "paper"

    def seq_encode(self, entries: list[int]) -> int:
        """prod_i p_i^(a_i + 1); FeasibilityError, before any factor is
        built, when the product's lower bound passes BITS_CAP bits."""
        if any(type(e) is not int or e < 0 for e in entries):
            raise CodingError("sequence entries must be naturals")
        factors = [(nthprime(i), e + 1) for i, e in enumerate(entries)]
        # bitlen(ab) >= bitlen(a) + bitlen(b) - 1
        if 1 + sum(pow_bits(p, k) - 1 for p, k in factors) > BITS_CAP:
            raise FeasibilityError(
                f"the sequence code would have more than BITS_CAP = {BITS_CAP} bits")
        return math.prod(power(p, k) for p, k in factors)

    def seq_decode(self, code: int) -> list[int]:
        """Entries of prod_i p_i^(a_i + 1), stripped prime by prime.

        The 2-part is read off the trailing zeros, and a huge rest that is
        a pure prime power, the usual last entry, is confirmed by one pow
        (_pure_power).  Otherwise the prime is divided out at most 64
        times; a prime that still divides after that carries a huge entry
        and is deferred.  The deferred factors are stripped last, through
        strip_prime: when exactly one prime is deferred, what is left is
        its pure power, which one pow confirms, so a sequence with one
        huge entry, wherever it stands, decodes in about the time of that
        pow.  With two or more huge entries, as in the code of
        ((1 + 1) * (1 + 1)), the deferred factors go through the
        quadratic squaring cascade.
        """
        if type(code) is not int or code < 1:
            raise CodingError("sequence codes are positive")
        entries: list[int] = []
        deferred: list[tuple[int, int]] = []
        i = 0
        x = code
        while x > 1:
            p = nthprime(i)
            if p == 2:
                e, x = strip_prime(x, 2)
            elif x.bit_length() > _POW_CHECK_BITS and (e := _pure_power(x, p)):
                x = 1
            else:
                e = 0
                while e < 64 and x % p == 0:
                    x //= p
                    e += 1
            if e == 0:
                for j, q in deferred:
                    k, x = strip_prime(x, q)
                    entries[j] += k
                if x == 1:
                    break
                raise CodingError(f"{short_code(code)} skips prime index {i}")
            if e == 64 and x % p == 0:
                deferred.append((i, p))
            entries.append(e - 1)
            i += 1
        return entries

    def _read(self, code: int, formula: bool) -> Term | Formula:
        node = walk(self._reading, code, formula)
        if node is None:
            raise CodingError(f"{short_code(code)} is not a {'formula' if formula else 'term'} code")
        return node

    def _reading(self, code: int, formula: bool):
        """The first reading of code whose children read, or None: a step of
        nodes.walk, yielding (child code, formula) for a child's reading."""
        for shape, *fields in self._shapes(code, formula):
            cls, kinds = _P_CLASSES[shape]
            kids = []
            for f, kind in zip(fields, kinds):
                kids.append(f if kind is None else (yield f, kind))
                if kids[-1] is None:
                    break
            else:
                try:
                    return cls(*kids)
                except FormulaError:
                    pass   # a quantifier whose variable is in its bound
        return None

    def _shapes(self, code: int, formula: bool) -> list[tuple]:
        """The readings of code as a formula or a term, composite first: a
        sequence read by its symbol and length, or a term code that is a
        constant's symbol or a variable's code."""
        shapes: list[tuple] = []
        try:
            entries = self.seq_decode(code)
        except CodingError:
            entries = None
        if entries and (read := _P_SHAPES.get((formula, entries[0], len(entries) - 1))):
            shape, indexed = read
            if not indexed:
                shapes.append((shape, *entries[1:]))
            elif (i := _p_var_index(entries[1])) is not None:
                shapes.append((shape, i, *entries[2:]))
        if not formula:
            if (read := _P_SHAPES.get((False, code, None))):
                shapes.append((read[0],))
            elif (i := _p_var_index(code)) is not None:
                shapes.append(("var", i))
        return shapes

    def fields(self, code: int) -> tuple[int, ...]:
        """The entries after the head of any sequence code: the prime
        exponents that the field readers take, whatever the head symbol."""
        return tuple(self.seq_decode(code)[1:])

    def _mk(self, cls: type, fields: tuple[int, ...]) -> int:
        """mk: the symbol alone, or the sequence of the symbol and the
        fields, a variable index as its code 2i + 2; v_i alone is 2i + 2,
        refused when it also decodes as a composite term."""
        row = SYNTAX[cls]
        if row.index is not None:
            i = _index(fields[0])
            fields = (2 * i + 2, *fields[1:])
            if row.symbol is None:
                if self.decode_term(fields[0]) is not Var(i):
                    raise CodingError(f"the code {fields[0]} of v{i} also codes a composite term")
                return fields[0]
        return self.seq_encode([row.symbol, *fields]) if fields else row.symbol

    def buildseq_bound(self, x: int) -> int | LazyPow:
        """p_x^((x+1)^2), the stated budget for a building sequence of x."""
        if type(x) is not int or x < 0:
            raise ValueError("codes are naturals")
        return LazyPow(prime_index=x, exp=(x + 1) ** 2)


# ---------------------------------------------------------------------------
# bit scheme


def gamma_bits(m: int) -> str:
    """Elias gamma code of m >= 1."""
    if m < 1:
        raise CodingError("gamma codes positives only")
    b = bin(m)[2:]
    return "0" * (len(b) - 1) + b


def bits_to_code(bits: str) -> int:
    """Guarded value of a bit string; the empty string codes as 1."""
    return int("1" + bits, 2)


def _bin(code: int) -> str:
    """bin(code), whose bits from offset 3 on, past "0b1", are the code's."""
    if type(code) is not int or code < 1:
        raise CodingError("bit codes are positive")
    return bin(code)


def code_to_bits(code: int) -> str:
    return _bin(code)[3:]


def _tag(bits: str, pos: int) -> tuple[int, int]:
    """(k, end) for the tag read at pos: k ones, then the zero that ends a
    tag of fewer than four ones.  One str.find finds that zero."""
    zero = bits.find("0", pos, pos + 4)
    if zero >= 0:
        return zero - pos, zero + 1
    if pos + 4 > len(bits):
        raise CodingError("truncated code")
    return 4, pos + 4


def _gamma_parse(bits: str, pos: int) -> tuple[int, int]:
    """(m, end) for the gamma code of m starting at pos.

    The zero run is found by one str.find and the digits read by one
    slice, so a code costs time linear in its length.
    """
    one = bits.find("1", pos)
    if one < 0:
        raise CodingError("truncated code")
    end = 2 * one - pos + 1
    if end > len(bits):
        raise CodingError("truncated code")
    return int(bits[one:end], 2), end


class _Reading(NamedTuple):
    """A compact tag's reading, prepared from a SYNTAX row for the readers."""
    leaf: Node | None         # the one node of a class without fields
    indexed: bool             # an index follows the tag
    todo: tuple               # what _read_node pushes: (cls, arity), then skip
    skip: tuple[bool, ...]    # the children's kinds reversed, as _skip pushes them
    cls: type
    shape: str
    firsts: tuple[bool, ...]  # the kinds of the children but the last, in order
    final: bool | None        # the last child's kind, None for no child


def _tag_readings(formula: bool) -> tuple[tuple, ...]:
    """For each count k of ones in a tag of a formula or a term, the first
    four fields of its first reading, then its readings: one, or two told
    apart by the bit after the index, in that bit's order."""
    by_ones: dict[int, list[_Reading]] = {}
    for cls, row in sorted(SYNTAX.items(), key=lambda item: item[1].bound):
        if (cls in _FORMULAS) is formula:
            skip = row.kids[::-1]
            by_ones.setdefault(row.tag.count("1"), []).append(_Reading(
                None if row.arity else cls(), row.index is not None, ((cls, row.arity), *skip),
                skip, cls, row.shape, row.kids[:-1], skip[0] if skip else None))
    return tuple((*by_ones[k][0][:4], tuple(by_ones[k])) for k in range(len(by_ones)))


# the compact readers' tables, _TERM_TAGS[k] for a tag of k ones read as
# a term and _FORMULA_TAGS[k] as a formula
_TERM_TAGS = _tag_readings(False)
_FORMULA_TAGS = _tag_readings(True)


def _indexed(bits: str, pos: int, readings: tuple[_Reading, ...]) -> tuple[int, _Reading, int]:
    """(i, reading, end) for the gamma code of i + 1 at pos, behind a tag of
    readings, and for the bit after it that picks one of two readings."""
    m, pos = _gamma_parse(bits, pos)
    if len(readings) == 1:
        return m - 1, readings[0], pos
    if pos == len(bits):
        raise CodingError("truncated code")
    return m - 1, readings[bits[pos] == "1"], pos + 1


def _read_node(bits: str, formula: bool) -> tuple[Term | Formula, int]:
    """(node, end) for the term or formula whose code starts at offset 3
    of bits = bin(code), read in one pass.

    The work stack holds what is left to do: False to read a term, True
    to read a formula, or (cls, n) to build a node of class cls from the
    last n values once its children are read.  Finished nodes, and
    variable indexes, wait on the value stack.  Child codes are never
    materialised.
    """
    todo: list = [formula]
    out: list = []
    pos = 3
    while todo:
        op = todo.pop()
        if op is False or op is True:
            k, pos = _tag(bits, pos)
            leaf, indexed, push, _, readings = (_FORMULA_TAGS if op else _TERM_TAGS)[k]
            if leaf is not None:
                out.append(leaf)
                continue
            if indexed:
                i, r, pos = _indexed(bits, pos, readings)
                if not r.skip:   # a variable
                    out.append(r.cls(i))
                    continue
                out.append(i)
                push = r.todo
            todo += push
        else:
            cls, n = op
            if n == 2:
                right = out.pop()
                out[-1] = cls(out[-1], right)
            elif n == 1:
                out[-1] = cls(out[-1])
            else:
                fields = out[-n:]
                del out[-n:]
                try:
                    out.append(cls(*fields))
                except FormulaError:
                    raise CodingError(f"v{fields[0]} occurs in its own bound") from None
    return out[0], pos


def _skip(bits: str, pos: int, formula: bool) -> int:
    """End of the term or formula coded from pos on, read as _read_node
    reads it but without building nodes."""
    todo = [formula]
    while todo:
        k, pos = _tag(bits, pos)
        _, indexed, _, skip, readings = (_FORMULA_TAGS if todo.pop() else _TERM_TAGS)[k]
        if indexed:
            _, r, pos = _indexed(bits, pos, readings)
            skip = r.skip
        todo += skip
    return pos


def _child(bits: str, pos: int, formula: bool) -> tuple[int, int]:
    """(code, end) of the term or formula coded from pos on."""
    end = _skip(bits, pos, formula)
    return int("1" + bits[pos:end], 2), end


def _rest(bits: str, pos: int, formula: bool) -> tuple[int, int]:
    """(code, end) of the bits from pos on, read as one child but unread."""
    return int("1" + bits[pos:], 2), len(bits)


def term_end(code: int, d: int) -> int | None:
    """The payload offset just past the term whose compact code starts at
    payload offset d of code, or None when no whole term starts there."""
    try:
        return _skip(_bin(code), 3 + d, False) - 3
    except CodingError:
        return None


def token_end(code: int, d: int) -> int | None:
    """The payload offset just past the term tag at payload offset d of
    code, and past a variable's index behind it, or None when no whole tag
    and index start there."""
    try:
        bits = _bin(code)
        k, pos = _tag(bits, 3 + d)
        _, indexed, _, _, readings = _TERM_TAGS[k]
        return (_indexed(bits, pos, readings)[2] if indexed else pos) - 3
    except CodingError:
        return None


_RUN_BITS = 4096

# the compact writers' table: the tag, the index attribute and the bound
# bit of each core class, and its tag as a code
_TAGGING = {cls: (row.tag, row.index, row.bound, bits_to_code(row.tag))
            for cls, row in SYNTAX.items()}
# CompactCoding._write's fold table: the bits of each node's code past
# its leading 1, computed once per node of a shared DAG
_CODE_BITS: dict[Node, int] = {}


def _code_bits(node: Node, *kids: int) -> int:
    """The bits of node's code past its leading 1, from its children's;
    CodingError when a child is not of the kind SYNTAX gives it."""
    row = SYNTAX.get(type(node))
    if row is None:
        return sum(kids)
    _need(node.children, row.kids)
    gamma = 0 if row.index is None else 2 * (getattr(node, row.index) + 1).bit_length() - 1
    return len(row.tag) + gamma + len(row.bound) + sum(kids)


class CompactCoding(Coding):
    name = "compact"

    # A code is its nodes' tags, with their indexes and bound bits, in
    # pre-order (SYNTAX), so it is written and read in one pass over
    # bin(code): _write appends to one list of bit strings, _read_node builds
    # the nodes on an explicit stack, and _shapes finds child spans with
    # _skip.  Each dispatches through tables built once from SYNTAX, and none
    # recurses, so a code nests as deep as memory allows.

    def seq_encode(self, entries: list[int]) -> int:
        """The gamma codes of entry + 1, concatenated behind a leading 1.

        The gamma code of m is m itself written in 2 bitlen(m) - 1 bits,
        so the codes are joined as ints: appended one by one into runs of
        about 4096 bits, and the runs joined pairwise in a balanced tree
        of (a << width(b)) | b.  That is O(n log n) bit work, and no bit
        string the size of the result is built.  The widths are summed as
        the entries are read, so a code of more than BITS_CAP bits raises
        FeasibilityError before any entry past the limit is joined.
        """
        runs: list[tuple[int, int]] = []
        run = width = 0
        total = 1   # the code's bits: the leading 1 and the gamma codes
        for e in entries:
            if type(e) is not int or e < 0:
                raise CodingError("sequence entries must be naturals")
            w = 2 * (e + 1).bit_length() - 1
            total += w
            if total > BITS_CAP:
                raise FeasibilityError(
                    f"the sequence code would have more than BITS_CAP = {BITS_CAP} bits")
            run = (run << w) | (e + 1)
            width += w
            if width > _RUN_BITS:
                runs.append((run, width))
                run = width = 0
        runs.append((run, width))
        while len(runs) > 1:
            joined = [((a << wb) | b, wa + wb)
                      for (a, wa), (b, wb) in zip(runs[::2], runs[1::2])]
            if len(runs) % 2:
                joined.append(runs[-1])
            runs = joined
        run, width = runs[0]
        return (1 << width) | run

    def seq_decode(self, code: int) -> list[int]:
        """Entries read off bin(code) from offset 3, past "0b1".

        Each gamma code is parsed by one str.find and one slice, so the
        decode is linear in the bits of the code.
        """
        bits = _bin(code)
        n = len(bits)
        entries = []
        pos = 3
        while pos < n:
            m, pos = _gamma_parse(bits, pos)
            entries.append(m - 1)
        return entries

    def _read(self, code: int, formula: bool) -> Term | Formula:
        try:
            bits = _bin(code)
            node, end = _read_node(bits, formula)
            if end == len(bits):
                return node
            why = "bits left over past the node"
        except CodingError as exc:
            why = str(exc)
        kind = "formula" if formula else "term"
        raise CodingError(f"{short_code(code)} is not a {kind} code: {why}")

    def _write(self, node: Term | Formula, formula: bool) -> int:
        """The code of node: its tags and gamma codes, written in pre-order
        into one list of bit strings, turned into an int once.  The code's
        size is folded over node's DAG first, which checks the kind of
        every child once per node, so a node whose shared subterms write
        more than BITS_CAP bits raises FeasibilityError before any is
        written."""
        _need((node,), (formula,))
        if 1 + fold(node, _code_bits, _CODE_BITS) > BITS_CAP:
            raise FeasibilityError(f"the code would have more than BITS_CAP = {BITS_CAP} bits")
        parts = ["1"]
        todo = [node]
        while todo:
            node = todo.pop()
            tag, index, bound, _ = _TAGGING[type(node)]
            parts.append(tag)
            if index is not None:
                parts += (gamma_bits(getattr(node, index) + 1), bound)
            # the children reversed, so that the first is written first
            kids = node.children
            todo += (kids[1], kids[0]) if len(kids) == 2 else kids
        return int("".join(parts), 2)

    def entry_shapes(self, code: int, formula: bool) -> list[tuple]:
        """The shape of code as a formula or a term, its last child the rest
        of the bits, unread, so a deep chain of entries is read in linear
        time."""
        return self._shapes(code, formula, _rest)

    def _shapes(self, code: int, formula: bool, last=_child) -> list[tuple]:
        """The one shape of code as a formula or a term, its last child read
        by last, or none."""
        try:
            bits = _bin(code)
            k, pos = _tag(bits, 3)
            _, indexed, _, _, readings = (_FORMULA_TAGS if formula else _TERM_TAGS)[k]
            r, fields = readings[0], []
            if indexed:
                i, r, pos = _indexed(bits, pos, readings)
                fields.append(i)
            _, _, _, _, _, shape, firsts, final = r
            for kind in firsts:
                c, pos = _child(bits, pos, kind)
                fields.append(c)
            if final is not None:
                c, pos = last(bits, pos, final)
                fields.append(c)
        except CodingError:
            return []
        return [(shape, *fields)] if pos == len(bits) else []

    def _mk(self, cls: type, fields: tuple[int, ...]) -> int:
        """mk: the tag, a variable index's gamma code and bound bit, and
        then the bits of each child's code, appended in turn."""
        tag, index, bound, code = _TAGGING[cls]
        if index is not None:
            code = bits_to_code(tag + gamma_bits(_index(fields[0]) + 1) + bound)
            fields = fields[1:]
        for kid in fields:
            if type(kid) is not int or kid < 1:
                raise CodingError("bit codes are positive")
            width = kid.bit_length() - 1
            code = (code << width) | (kid ^ (1 << width))
        return code

    def buildseq_bound(self, x: int) -> int | LazyPow:
        """2^((s+1)(2s+3)+1) for s = bitlen(x) - 1.

        A building sequence holds at most s + 1 distinct subcodes, each
        gamma entry at most 2s + 3 bits.
        """
        if type(x) is not int or x < 0:
            raise ValueError("codes are naturals")
        s = max(x.bit_length() - 1, 0)
        exp = (s + 1) * (2 * s + 3) + 1
        if exp < BITS_CAP:
            return 1 << exp
        return LazyPow(base=2, exp=exp)


PAPER = PaperCoding()
COMPACT = CompactCoding()
SCHEMES: dict[str, Coding] = {"paper": PAPER, "compact": COMPACT}


def get_scheme(name: str) -> Coding:
    try:
        return SCHEMES[name]
    except KeyError:
        raise CodingError(f"unknown coding scheme {name!r}") from None


# ---------------------------------------------------------------------------
# building sequences


def canonical_term_seq(scheme: Coding, t: Term) -> list[int]:
    """Deduplicated postorder of subterm codes, ending at the code of t."""
    return _listing(scheme, t, False)[0]


def canonical_formula_seq(scheme: Coding, phi: Formula) -> list[int]:
    """Deduplicated postorder of subformula codes; atoms are leaves."""
    return formula_seq_index(scheme, desugar(phi))[0]


def formula_seq_index(scheme: Coding,
                      phi: Formula) -> tuple[list[int], dict[Formula, int]]:
    """canonical_formula_seq of the core formula phi, and where each node
    of phi went: a dict from the node to the index of the node's code."""
    return _listing(scheme, phi, True)


def _listing(scheme: Coding, node: Term | Formula,
             formula: bool) -> tuple[list[int], dict[Node, int]]:
    """The codes of node's subterms, or of its subformulas, in postorder
    and deduplicated by code, and where each of those nodes went.  Once
    the codes written pass BITS_CAP bits together, FeasibilityError."""
    codes: dict[Node, int | None] = {}
    scheme._build(node, formula, codes)
    kind = Formula if formula else Term
    order: list[int] = []
    index: dict[int, int] = {}
    where: dict[Node, int] = {}
    # the fold filled codes children first: its keys are in postorder
    for n, c in codes.items():
        if isinstance(n, kind):
            if c not in index:
                index[c] = len(order)
                order.append(c)
            where[n] = index[c]
    return order, where


def quantifier_bound(scheme: Coding, var: int, code: int) -> Term | None:
    """The term coded by code when it can bound a quantifier over v_var,
    that is when v_var does not occur in it, as BForall and decode
    require; None otherwise."""
    try:
        t = scheme.decode_term(code)
    except CodingError:
        return None
    return None if var in free_vars(t) else t


def entry_clauses(scheme: Coding, entries: list[int],
                  kind: str) -> list[list[tuple]] | None:
    """The clauses of each entry in turn, one per reading of the entry that
    holds; None when an entry has none, that is when it is not a building
    step of the given kind from the entries before it.  kind is "term",
    "formula", or "delta0" (a formula without unbounded quantifiers).

    A clause holds what a checker needs to justify a value or a triple on
    its entry, with js and ks the positions of a child's code among the
    entries before it:
    - a term: ("const0",), ("const1",), ("var", i) and ("add" | "mul", js, ks);
    - an atom: ("eq" | "le", u, v, tu, tv), the terms coded u and v decoded;
    - ("not", js), ("implies", js, ks), and ("bforall", i, u, tu, js) with
      the bound read by quantifier_bound;
    - only for kind "formula": ("uforall", i, js).
    build_entries_ok, the value-run check of seqdef and satisfaction's run
    checker all read entries here, so each of these rules is written once:
    the Python side of the Sat term's term_entry and formula_entry (satpr).

    An entry is read by the scheme's entry_shapes: its last child is the
    rest of its code, unread, and confirmed by the lookup among the
    earlier entries, or for an atom by decoding.  So each entry is read
    once, and a deep chain in time linear in its entries' bits."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    formula = kind != "term"
    out: list[list[tuple]] = []
    where: dict[int, tuple[int, ...]] = {}   # code -> its positions so far
    for i, e in enumerate(entries):
        clauses: list[tuple] = []
        for shape in scheme.entry_shapes(e, formula):
            try:
                match shape:
                    case ("eq" | "le", u, v):
                        clauses.append((*shape, scheme.decode_term(u), scheme.decode_term(v)))
                    case ("not", b) if (js := where.get(b)):
                        clauses.append(("not", js))
                    case ("implies" | "add" | "mul", a, b) if (
                            (js := where.get(a)) and (ks := where.get(b))):
                        clauses.append((shape[0], js, ks))
                    case ("bforall", v, u, b) if (
                            (js := where.get(b))
                            and (tu := quantifier_bound(scheme, v, u)) is not None):
                        clauses.append(("bforall", v, u, tu, js))
                    case ("uforall", v, b) if kind == "formula" and (js := where.get(b)):
                        clauses.append(("uforall", v, js))
                    case ("const0" | "const1",) | ("var", _):
                        clauses.append(shape)
            except CodingError:
                continue
        if not clauses:
            return None
        out.append(clauses)
        # a new tuple: a clause read so far keeps only positions before its entry
        where[e] = where.get(e, ()) + (i,)
    return out


def build_entries_ok(scheme: Coding, kind: str, entries: list[int]) -> bool:
    """Each entry is built from earlier ones: kind "term", "formula", or
    "delta0" (a formula without unbounded quantifiers)."""
    return entry_clauses(scheme, entries, kind) is not None


def check_build_seq(scheme: Coding, kind: str, s: int, x: int) -> bool:
    """Does s code a building sequence for x of the given kind?

    Every entry must be atomic or assembled from strictly earlier
    entries, and the final entry must equal x.  Exact: never guesses.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    try:
        entries = scheme.seq_decode(s)
    except CodingError:
        return False
    if not entries or entries[-1] != x:
        return False
    return build_entries_ok(scheme, kind, entries)


def _decode_kind(scheme: Coding, kind: str, x: int):
    if kind == "term":
        return scheme.decode_term(x)
    phi = scheme.decode(x)
    if kind == "delta0" and not is_delta0(phi):
        raise CodingError(
            f"{short_code(x)} codes a formula with an unbounded quantifier")
    return phi


def canonical_build_code(scheme: Coding, kind: str, x: int) -> int:
    """Sequence code of the canonical building sequence for x."""
    obj = _decode_kind(scheme, kind, x)
    if kind == "term":
        entries = canonical_term_seq(scheme, obj)
    else:
        entries = canonical_formula_seq(scheme, obj)
    return scheme.seq_encode(entries)


def syn_search(scheme: Coding, kind: str, x: int, budget: int | None = None) -> Verdict:
    """Is there a building sequence for x below the stated bound?

    Decodable codes are certified by the canonical sequence; failure to
    decode refutes every candidate, because each scheme's decoder accepts
    exactly the codes its entry checker can assemble.  The exhaustive
    sweep only runs when the bound fits the budget.  A witness too large
    to materialize (deep prime-power codes) yields UNKNOWN.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if budget is not None and (type(budget) is not int or budget < 0):
        raise ValueError("budget must be a natural")
    try:
        s = canonical_build_code(scheme, kind, x)
    except CodingError:
        return Verdict.FALSE
    except FeasibilityError:
        return Verdict.UNKNOWN
    bound = scheme.buildseq_bound(x)
    fits = magnitude_ge(bound, s)
    if fits is True:
        return Verdict.TRUE
    limit = magnitude_to_int(bound, max_bits=64)
    if budget is not None and limit is not None and limit <= budget:
        for cand in range(limit + 1):
            if check_build_seq(scheme, kind, cand, x):
                return Verdict.TRUE
        return Verdict.FALSE
    return Verdict.UNKNOWN


# ---------------------------------------------------------------------------
# the named syntactic predicates


SYN_PREDS = ("var", "trm", "atm", "fml_delta0")
SEQDEF_PREDS = ("trmseq", "fml_delta0_seq", "valseq",
                "var", "trm", "atm", "fml_delta0", "val")


def syn(scheme: Coding, pred: str, x: int) -> bool:
    """Structural oracle for the syntactic classes: is x a valid code?"""
    if type(x) is not int or x < 0:
        raise ValueError("codes are naturals")
    if pred == "var":
        return scheme.var_index(x) is not None
    if pred == "trm":
        return scheme.is_term_code(x)
    if pred == "atm":
        try:
            return isinstance(scheme.decode(x), (Eq, Le))
        except CodingError:
            return False
    if pred == "fml_delta0":
        return scheme.is_delta0_code(x)
    raise ValueError(f"pred must be one of {SYN_PREDS}")


def val(scheme: Coding, x: int, y: int, *, strict: bool = True) -> int:
    """Value of the coded term x under the valuation sequence y.

    Entry i of y interprets v_i; past-the-end entries read as 0, but with
    strict=True a variable beyond the end of y is an error instead.
    """
    t = scheme.decode_term(x)
    entries = scheme.seq_decode(y)
    rho: dict[int, int] = {}
    for i in free_vars(t):
        if i < len(entries):
            rho[i] = entries[i]
        elif strict:
            raise CodingError(
                f"valuation of length {len(entries)} does not cover v{i}")
        else:
            rho[i] = 0
    return eval_term(t, rho)


def _valseq_holds(scheme: Coding, y: int, s: int, t: int) -> bool:
    """The literal value-annotation clauses, the Python side of the Sat
    term's value_ok: s is a term building sequence, read by entry_clauses,
    and each entry of t is the value of its entry of s under the valuation
    y by one of that entry's clauses.

    The printed variable clause reads the valuation at the sequence
    position; implemented at the variable's own index, which is what the
    val relation and the prose ("substituting the variables with the
    corresponding elements") require.
    """
    try:
        ys, es, values = scheme.seq_decode(y), scheme.seq_decode(s), scheme.seq_decode(t)
    except CodingError:
        return False
    clauses = entry_clauses(scheme, es, "term") if len(values) == len(es) else None
    if clauses is None:
        return False
    for entry, value in zip(clauses, values):
        for clause in entry:
            match clause:
                case ("const0",):
                    ok = value == 0
                case ("const1",):
                    ok = value == 1
                case ("var", i):
                    ok = value == (ys[i] if i < len(ys) else 0)
                case (op, js, ks):
                    ok = any(value == (values[j] + values[k] if op == "add" else
                                       values[j] * values[k]) for j in js for k in ks)
            if ok:
                break
        else:
            return False
    return True


def _val_search(scheme: Coding, x: int, y: int, z: int) -> Verdict:
    """The wrapped val relation: do bounded witness sequences exist?"""
    if not scheme.is_seq(y):
        return Verdict.FALSE
    try:
        tm = scheme.decode_term(x)
    except CodingError:
        return Verdict.FALSE
    if val(scheme, x, y, strict=False) != z:
        return Verdict.FALSE
    try:
        entries = canonical_term_seq(scheme, tm)
        s = scheme.seq_encode(entries)
        values = [val(scheme, e, y, strict=False) for e in entries]
        t = scheme.seq_encode(values)
    except FeasibilityError:
        return Verdict.UNKNOWN
    fits_s = magnitude_ge(scheme.buildseq_bound(x), s)
    fits_t = magnitude_ge(scheme.buildseq_bound(z), t)
    if fits_s is True and fits_t is True:
        return Verdict.TRUE
    return Verdict.UNKNOWN


def seqdef(scheme: Coding, pred: str, args: tuple[int, ...],
           budget: int | None = None) -> Verdict:
    """Literal sequence-style definitions of the syntactic predicates.

    The *seq forms check the given sequence codes directly and always
    decide.  The wrapped forms (trm, fml_delta0, val) search for witness
    sequences under the stated bounds and may return UNKNOWN when a
    witness cannot be materialized or the budget truncates a sweep.
    """
    args = tuple(args)
    if any(type(a) is not int or a < 0 for a in args):
        raise ValueError("codes are naturals")
    match pred:
        case "trmseq" | "fml_delta0_seq":
            (s,) = args
            kind = "term" if pred == "trmseq" else "delta0"
            try:
                entries = scheme.seq_decode(s)
            except CodingError:
                return Verdict.FALSE
            return Verdict.of(build_entries_ok(scheme, kind, entries))
        case "valseq":
            y, s, t = args
            return Verdict.of(_valseq_holds(scheme, y, s, t))
        case "var" | "atm":
            (x,) = args
            return Verdict.of(syn(scheme, pred, x))
        case "trm":
            (x,) = args
            return syn_search(scheme, "term", x, budget)
        case "fml_delta0":
            (x,) = args
            return syn_search(scheme, "delta0", x, budget)
        case "val":
            x, y, z = args
            return _val_search(scheme, x, y, z)
    raise ValueError(f"pred must be one of {SEQDEF_PREDS}")

