"""The satisfaction relation for coded bounded formulas as one PR term.

The relation checked here is

    Sat(x, y):  exists s <= B1(x) [ last(s) = x  and
                exists t <= B2(x, y) [ last(t) = <len(s)-1, y, 1>  and
                                       satseq(s, t) ] ]

where s ranges over building sequences of the coded formula, t over
sequences of annotation triples <i, z, w> = 2^i 3^z 5^w, and satseq checks
every triple against the clause for its entry's shape: true equation, true
inequality, negation, implication, or bounded universal with valuation
updates z[r/v].  Every term here is written with prlib's named-argument
builder, the one routine that also lowers compiled formulas, so no
projection is numbered by hand.  The quantifier shell is

    fn(lambda x, y: ex(b1(x, y), lambda s: and_(
        sgate(x, y, s), ex(b2(x, y), lambda t: matrix(x, y, s, t)))))

and the matrix is the clause algebra over a per-scheme kit of sequence
readers, field readers and code builders: prime-exponent sequences use
the stdlib ops, bit-packed sequences get a gamma-stream reader (zero-run
scan, entry slicing, offset tracking) and a syntax reader (tag hops, the
end of a term, subcode spans) built here.  The readers' bit-length,
shift, zero-run, hop, length, tag-hop, term-end and span ops are
registered as evaluator intrinsics with exact Python twins.

No syntax test of the bit-packed kit searches over code values.  The
fields of an atom or a
bounded universal e (its two terms; its variable code and bound) are
read off e by the kit's kid1 and kid2, exponents 1 and 2 of a prime-power
code and the spans after the tag of a bit-packed one, and every reading
is confirmed by rebuilding e from it, as e = mk_eq(kid1(e), kid2(e)).
The building sequence s*(u) of a term u is constructed by the
bit-packed kit, as u's subterm codes in reverse preorder, so each comes
after its subterms; the prime-power kit keeps the least witness below
trm_bound.  trm(u) checks s*(u): any sequence that passes trmseq and ends
in u shows that u is a term.  A bounded universal also checks that its
variable is no entry of s*(u) for its bound u, that is, does not occur in
u.  Refuting a non-atom or a wrong annotation so takes steps polynomial
in the bit length of the bit-packed codes.

Each kit is one table, KIT_OPS[scheme.name], of rows (name, PR term,
codec function over the scheme's Coding API).  _assemble reads the terms.
Each term built for the kit has its codec registered as its twin (the
codec twins), so the op costs one step wherever the codec answers; the
codec declines, and the equations run, outside its domain: a non-sequence,
an entry past the end, a code that names no variable, a result past
numbers.BITS_CAP.  The stdlib nodes the prime-power kit reuses (SEQ_TEST,
LEN, IDX, LAST) keep their equations.

The atom and bounded-universal clauses read a term's value off the value
run along its building sequence s*, and confirm each such value with
valseq(z, s*, run).  That check fails when z codes no valuation sequence,
so such a z gives no value witness: an atom can then only be annotated
false and a universal clause fails, as in satisfaction's _atom_clause and
_forall_clause.

The emitted term is a faithful checker, not an efficient one: its two
outer sweeps, over s and over t, walk every candidate below the witness.
sat_pr_eval therefore does not sweep up to the run it already knows.
sat_witness builds the run (s, t), and the evaluator confirms it by the PR
equations as certificates (primrec.Evaluator.confirm), innermost first:
matrix(x, y, s, t) = 1 settles the sweep over t at (x, y, s), after which
run(x, y, s) = 1 settles the sweep over s at (x, y), and the term is 1
without either sweep.  A certificate only skips a sweep whose result it
proves, so the value is the term's own (result checking in the sense of
Blum & Kannan, "Designing programs that check their work", JACM 42(1),
1995).  A false instance has no run to confirm, and refuting it takes the
full sweeps; sat_pr_eval guards its arguments and raises FeasibilityError
outside the envelope of true instances with tiny codes instead of running
forever.  Under the bit-packed scheme the annotation bound B2 is derived
for quantifier-free codes (their triples all carry the input valuation
unchanged); quantified codes validate but are gated off.  Under the
prime-power scheme the written bounds are kept verbatim, and no instance
is small enough to evaluate.

Each kit's B1 is its scheme's buildseq_bound, written as a term: the
prime power p_x^((x+1)^2) for the prime-power scheme, and the bit-length
bound 2^((s+1)(2s+3)+1), s = plen(x), for the bit-packed one.  The
compact B2 = 2^(1 + lam(2 lam + 4y + 8)), lam = bitlen(B1), then has
13,762 bits at (42, 1), 24,184 at (77, 1), and about 6 Mbit at most for
codes up to _CODE_CAP: past the guards on its arguments, only the step
budget stops sat_pr_eval.  All 103 true quantifier-free compact codes
x <= 4096 at y = 1 finish, in at most 236,109 steps each, most of them
the prime p_(u+v) of the atom cap; the three true quantified ones are
gated off.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from functools import cache, partial
from itertools import chain
from types import MappingProxyType
from typing import NamedTuple

from .coding import COMPACT, PAPER, SYNTAX, Coding, CodingError, bits_to_code, term_end, token_end
from .formulas import Add, BForall, ConstOne, ConstZero, Eq, Implies, Le, Mul, Not, UForall, Var
from .formulas import desugar
from .nodes import postorder
from .numbers import magnitude_to_int
from .primrec import (
    CHI_EQ, CHI_LE, HALF, P11, PARITY, POW, PRED, FeasibilityError, PRTerm,
    PrimRec, Twin, Zero, eval_pr, intrinsic,
)
from .prlib import (
    CHI_LT, EXPONENT, IDX, LAST, LEN, PAIR3, PRIME, SEQ_TEST, STDLIB, S,
    and_, bounded_min, ex, fa, fn, implies, least, not_, or_, rel_bexists, select,
)
from .satisfaction import sat_witness

__all__ = ["KIT_OPS", "KitOp", "codec_twin", "sat_as_pr", "sat_pr_eval", "sat_pr_parts"]


# ---------------------------------------------------------------------------
# the gamma-stream reader's primitives
#
# A compact code c carries its payload in the plen(c) bits below its leading
# 1, read most significant first; offsets at or past the last payload bit
# read the lowest bit of c.  Each search below is registered with an exact
# Python twin; the offset column posn stays a ticked recursion over hops.


def _plen(c: int) -> int:
    return max(c.bit_length() - 1, 0)


# bit length as least k <= x with x < 2^k
BITLEN_MIN = intrinsic(
    bounded_min(fn(lambda x, k: CHI_LE(S(x), POW(2, k)))),
    lambda a: min(a[0].bit_length(), a[1] + 1))
BITLEN = fn(lambda x: BITLEN_MIN(x, x))
PLEN = fn(lambda c: BITLEN(c) - 1)

# shift right by iterated halving; a quotient search would cost O(x)
SHR = intrinsic(PrimRec(P11, fn(lambda acc, c, i: HALF(acc))),
                lambda a: a[0] >> a[1])

# payload bit at offset d, most significant first
_BIT = fn(lambda c, d: PARITY(SHR(c, PLEN(c) - 1 - d)))


def _zrun(c: int, d: int, y: int) -> int:
    """Least k <= y with payload bit d + k of c set, and y + 1 if none."""
    plen = _plen(c)
    if d < plen:
        # bits at offsets d .. plen - 1; the highest set one comes first
        window = c & ((1 << (plen - d)) - 1)
        k = plen - window.bit_length() - d if window else y + 1
    else:
        k = 0 if c & 1 else y + 1
    return min(k, y + 1)


ZRUN_MIN = intrinsic(bounded_min(fn(lambda c, d, k: CHI_EQ(_BIT(c, d + k), 1))),
                     lambda a: _zrun(*a))
ZRUN = fn(lambda c, d: ZRUN_MIN(c, d, PLEN(c)))


def _hop(c: int, d: int) -> int:
    """Offset after the gamma entry at offset d, or plen + 1 (poisoned)."""
    plen = _plen(c)
    # from d >= plen the hop overshoots plen, as the equations' first test says
    nxt = d + 1 + 2 * _zrun(c, d, plen)
    return nxt if nxt <= plen else plen + 1


def _next(c, d):
    """The offset past the gamma entry at offset d, unchecked."""
    return d + S(2 * ZRUN(c, d))


_STEP = fn(lambda c, d: select(CHI_LE(PLEN(c), d), S(PLEN(c)), select(
    CHI_LE(_next(c, d), PLEN(c)), _next(c, d), S(PLEN(c)))))
HOP = intrinsic(fn(lambda d, c, i: _STEP(c, d)), lambda a: _hop(a[1], a[0]))
# offset of entry n, plen once the stream is used up exactly
POSN = PrimRec(Zero(), HOP)


def _seqlen(c: int, y: int) -> int:
    """Least n <= y with posn(c, n) = plen(c), and y + 1 if none."""
    plen = _plen(c)
    payload = bin(c)[3:]   # empty for c < 2, where plen is 0
    d = 0
    for n in range(y + 1):
        if d == plen:
            return n
        # _hop with the zero run read off by one scan that starts at d
        one = payload.find("1", d)   # -1 also once d has passed plen
        if one < 0:
            break
        d = 2 * one - d + 1
    return y + 1


SEQLEN_MIN = intrinsic(bounded_min(fn(lambda c, n: CHI_EQ(POSN(c, n), PLEN(c)))),
                       lambda a: _seqlen(*a))
SEQLEN = fn(lambda c: SEQLEN_MIN(c, PLEN(c)))


# ---------------------------------------------------------------------------
# the syntax reader's primitives
#
# A compact term code is its tags in preorder, a variable's tag followed by
# the gamma code of its index + 1 (coding.SYNTAX).  TOKEN hops over one
# tag, and a variable's gamma code; TEND hops from an offset until no child
# is pending, which is where the term coded from there ends; SPAN cuts a
# subcode out of a code.  Each is registered with an exact Python twin;
# TOKEN's reads coding.token_end, and TEND's is coding.term_end.

POW2 = fn(lambda k: POW(2, k))
MOD2K = fn(lambda a, k: a - POW(2, k) * SHR(a, k))   # a mod 2^k

# the ones read from offset d, at most four: the tag there, 0 for "0"
# up to 4 for "1111"
ONES = fn(lambda c, d: _BIT(c, d) * S(_BIT(c, d + 1) * S(
    _BIT(c, d + 2) * S(_BIT(c, d + 3)))))


def _token_eq(c, d):
    t = ONES(c, d)
    nxt = select(CHI_EQ(t, 2), _next(c, d + 3), d + S(t) - CHI_EQ(t, 4))
    return select(CHI_LE(PLEN(c), d), S(PLEN(c)),
                  select(CHI_LE(nxt, PLEN(c)), nxt, S(PLEN(c))))


def _token(c: int, d: int) -> int:
    """Offset after the term tag at offset d, or plen + 1 (poisoned)."""
    end = token_end(c, d)
    return _plen(c) + 1 if end is None else end


TOKEN = intrinsic(fn(_token_eq), lambda a: _token(*a))
# offset of the n-th tag from offset d, as POSN over HOP
TOKS = PrimRec(fn(lambda c, d: d), fn(lambda p, c, d, n: TOKEN(c, p)))
# children still pending after n tags from d: a sum or product adds one
PEND = PrimRec(fn(lambda c, d: 1), fn(lambda k, c, d, n: select(
    CHI_LE(3, ONES(c, TOKS(c, d, n))), S(k), PRED(k))))
# no term is done after plen + 1 tags, which poison the offset
TEND = intrinsic(
    fn(lambda c, d: TOKS(c, d, least(S(PLEN(c)), lambda n: CHI_EQ(PEND(c, d, n), 0)))),
    lambda a: term_end(*a))


def _span(c: int, a: int, b: int) -> int | None:
    w = max(b - a, 0)
    if w > c.bit_length():
        return None   # a payload past c's; the equations build 2^w
    return (1 << w) | (c >> max(_plen(c) - b, 0)) & ((1 << w) - 1)


# the code whose payload is bits a .. b - 1 of c's payload
SPAN = intrinsic(fn(lambda c, a, b: POW2(b - a) + MOD2K(SHR(c, PLEN(c) - b), b - a)),
                 lambda x: _span(*x))


# ---------------------------------------------------------------------------
# per-scheme op tables
#
# A scheme's kit is one table of rows (name, term, codec).  The names:
# zero/one (constant term codes), isseq, seqlen, entry(i, c), slast,
# vget(z, n), repl(z, k, r) (z with entry k set to r, zero padded to length
# max(len(z), k + 1)), sapp(s, e), varn (a candidate index: c is a variable
# code iff mk_var(varn(c)) = c), kid1/kid2 (the fields of an atom or a
# bounded universal, Coding.fields; callers confirm them by rebuilding),
# sstar (bit-packed only: a building sequence of a term code), mk_eq,
# mk_le, mk_not, mk_imp, mk_add, mk_mul, mk_var, mk_bfa (the codes that
# Coding.mk builds; mk_bfa takes the variable code, the bound code, the
# body code),
# trm_bound (covers the canonical building sequence of a term code), b1/b2
# (the wrapper search bounds; b1 is the scheme's buildseq_bound).


class KitOp(NamedTuple):
    """A kit op: its name, its PR term (an int for the constant codes zero
    and one), and the function over the scheme's Coding API that the term
    computes, or None for a bound no Coding method states.  The codec
    declines an argument by returning None or by raising CodingError,
    IndexError or FeasibilityError."""
    name: str
    term: PRTerm | int
    codec: Callable[..., int | None] | None

    @property
    def twinned(self) -> bool:
        """Whether the codec is the term's twin, as for every term built
        for the kit; the prlib stdlib nodes keep their equations."""
        return (self.codec is not None and isinstance(self.term, PRTerm)
                and self.term not in _STDLIB)


_STDLIB = frozenset(STDLIB.values())


def _table(s: Coding, **terms: PRTerm | int) -> tuple[KitOp, ...]:
    """The kit of the scheme s: each op's term beside its codec over s."""
    def repl(z: int, k: int, r: int) -> int | None:
        # padding to k + 1 entries is work linear in k: past the bits of z
        # the equations take it, one counted step per entry
        if k > z.bit_length():
            return None
        entries = s.seq_decode(z)
        entries += [0] * (k + 1 - len(entries))
        entries[k] = r
        return s.seq_encode(entries)

    def sstar(u: int) -> int | None:
        # the subterm codes of u in preorder, reversed
        out, todo = [], [u]
        while todo:
            shapes = s.term_shapes(c := todo.pop())
            if not shapes:
                return None
            out.append(c)
            if shapes[0][0] in ("add", "mul"):
                todo += shapes[0][:0:-1]
        return s.seq_encode(out[::-1])

    codecs = dict(
        zero=partial(s.mk, ConstZero), one=partial(s.mk, ConstOne), isseq=s.is_seq,
        seqlen=lambda c: len(s.seq_decode(c)),
        entry=lambda i, c: s.seq_decode(c)[i],
        slast=lambda c: s.seq_decode(c)[-1],
        vget=s.seq_idx, repl=repl,
        sapp=lambda q, e: s.seq_encode(s.seq_decode(q) + [e]),
        varn=s.var_index, kid1=lambda e: s.fields(e)[0], kid2=lambda e: s.fields(e)[1],
        sstar=sstar,
        mk_eq=partial(s.mk, Eq), mk_le=partial(s.mk, Le), mk_not=partial(s.mk, Not),
        mk_imp=partial(s.mk, Implies), mk_add=partial(s.mk, Add), mk_mul=partial(s.mk, Mul),
        mk_var=partial(s.mk, Var),
        mk_bfa=lambda v, t, b: s.mk(BForall, s.var_index(v), t, b),
        b1=lambda x, y: magnitude_to_int(s.buildseq_bound(x)),
        trm_bound=None, b2=None)
    return tuple(KitOp(name, term, codecs[name]) for name, term in terms.items())


def _repl(sapp, vget, seqlen) -> PRTerm:
    """A kit's repl(z, k, r) from its sapp, vget and seqlen: z rebuilt entry
    by entry from the empty sequence, which both schemes code as 1."""
    build = PrimRec(fn(lambda z, k, r: 1),
                    fn(lambda acc, z, k, r, i:
                       sapp(acc, select(CHI_EQ(i, k), r, vget(z, i)))))
    return fn(lambda z, k, r: build(z, k, r, seqlen(z) + (S(k) - seqlen(z))))


def _compact_kit() -> tuple[KitOp, ...]:
    # each core class's tag (coding.SYNTAX), as a code
    head = {cls: bits_to_code(row.tag) for cls, row in SYNTAX.items()}
    pay = fn(lambda c: c - POW2(PLEN(c)))
    # code concatenation: append c's payload bits to a
    cat = fn(lambda a, c: a * POW2(PLEN(c)) + pay(c))
    gamma = fn(lambda v: POW2(2 * BITLEN(v) - 1) + v)
    sapp = fn(lambda s, e: cat(s, gamma(S(e))))
    isseq = fn(lambda c: and_(CHI_LE(1, c), CHI_LE(SEQLEN(c), PLEN(c))))
    gdec = fn(lambda c, d: MOD2K(SHR(pay(c), PLEN(c) - _next(c, d)), S(ZRUN(c, d))))
    entry = fn(lambda i, c: PRED(gdec(c, POSN(c, i))))
    vget = fn(lambda z, n: CHI_LT(n, SEQLEN(z)) * entry(n, z))

    def tagged(tag: int) -> PRTerm:
        return fn(lambda a, b: cat(cat(tag, a), b))

    # variable payload minus its tag bits, as a code
    tag_bits = len(SYNTAX[Var].tag)
    gpart = fn(lambda c: POW2(PLEN(c) - tag_bits) + MOD2K(pay(c), PLEN(c) - tag_bits))

    # the term coded from offset p of e
    term_at = fn(lambda e, p: SPAN(e, p, TEND(e, p)))

    # the fields of a formula code e, read after its tag: an atom's two
    # terms, or a quantifier's variable code and bound; the variable's
    # gamma code runs from offset 4 to gend
    def gend(e):
        return S(2 * ZRUN(e, 4)) + 4

    def kid1(e):
        return select(CHI_EQ(ONES(e, 0), 4), cat(head[Var], SPAN(e, 4, gend(e))),
                      term_at(e, S(ONES(e, 0))))

    def kid2(e):
        return select(CHI_EQ(ONES(e, 0), 4), term_at(e, S(gend(e))),
                      SPAN(e, TEND(e, S(ONES(e, 0))), PLEN(e)))

    # the subterm codes of u in reverse preorder: tag n of u starts a
    # subterm, put in front as it is read; at most plen(u) of them
    subs = PrimRec(fn(lambda u: 1), fn(lambda acc, u, n: select(
        CHI_LT(TOKS(u, 0, n), PLEN(u)), cat(gamma(S(term_at(u, TOKS(u, 0, n)))), acc), acc)))

    # at most plen(x) + 1 subcodes of at most 2 plen(x) + 3 bits once gamma
    # coded, as CompactCoding.buildseq_bound
    b1 = fn(lambda x, y: POW2(S(S(PLEN(x)) * (2 * PLEN(x) + 3))))

    # quantifier-free runs keep z = y in every triple, so the annotation
    # code has at most bitlen(b1) triples of bitlen(b1) + 2y + 4 bits each
    def b2(x, y):
        lam = BITLEN(b1(x, y))
        return POW2(S(lam * (2 * lam + (4 * y + 8))))

    return _table(
        COMPACT, zero=COMPACT.mk(ConstZero), one=COMPACT.mk(ConstOne), isseq=isseq,
        seqlen=SEQLEN, entry=entry,
        slast=fn(lambda c: entry(SEQLEN(c) - 1, c)), vget=vget,
        repl=_repl(sapp, vget, SEQLEN), sapp=sapp,
        # candidate index read off the bits; callers confirm by rebuilding,
        # a search over indices would cost O(v) on non-variable codes
        varn=fn(lambda c: PRED(pay(gpart(c)))),
        # fields read off the bits; callers confirm them by rebuilding e
        kid1=fn(kid1), kid2=fn(kid2), sstar=fn(lambda u: subs(u, PLEN(u))),
        # a sum and an implication share a tag: one node, one twin
        mk_eq=tagged(head[Eq]), mk_le=tagged(head[Le]),
        mk_not=fn(lambda a: cat(head[Not], a)),
        mk_imp=tagged(head[Implies]), mk_add=tagged(head[Add]), mk_mul=tagged(head[Mul]),
        mk_var=fn(lambda v: cat(head[Var], gamma(S(v)))),
        # the tag, the index's gamma code and the bound bit 0, then t and b
        mk_bfa=fn(lambda v, t, b: cat(cat(cat(head[BForall], gpart(v)) * 2, t), b)),
        # a canonical building sequence has at most plen(u) entries of at
        # most bitlen(u) + 1 bits each once gamma coded
        trm_bound=fn(lambda u: POW2(S(PLEN(u) * S(2 * BITLEN(u))))),
        b1=b1, b2=fn(b2))


def _paper_kit() -> tuple[KitOp, ...]:
    # a class's symbol (coding.SYNTAX) enters the product as 2^(symbol+1);
    # keep it in that shape rather than as a unary numeral
    def tag(cls: type):
        return POW(2, SYNTAX[cls].symbol + 1)

    def tagged(cls: type) -> PRTerm:
        return fn(lambda a, b: tag(cls) * POW(3, S(a)) * POW(5, S(b)))

    # p_x^((x+1)^2), as PaperCoding.buildseq_bound
    b1 = fn(lambda x, y: POW(PRIME(x), S(x) * S(x)))
    sapp = fn(lambda s, e: s * POW(PRIME(LEN(s)), S(e)))
    vget = fn(lambda z, n: IDX(n, z))

    def b2(x, y):
        tower = POW(PRIME(x), POW(PRIME(x), S(y) * S(y)))
        return POW(PRIME(x * x), POW(2, b1(x, y)) * POW(3, tower) * 5)

    return _table(
        PAPER, zero=PAPER.mk(ConstZero), one=PAPER.mk(ConstOne), isseq=SEQ_TEST,
        seqlen=LEN, entry=IDX, slast=LAST,
        vget=vget, repl=_repl(sapp, vget, LEN), sapp=sapp,
        varn=fn(lambda c: PRED(HALF(c))),
        kid1=fn(lambda e: IDX(1, e)), kid2=fn(lambda e: IDX(2, e)),
        mk_eq=tagged(Eq), mk_le=tagged(Le),
        mk_not=fn(lambda a: tag(Not) * POW(3, S(a))),
        mk_imp=tagged(Implies), mk_add=tagged(Add), mk_mul=tagged(Mul),
        mk_var=fn(lambda i: 2 * i + 2),
        mk_bfa=fn(lambda v, t, b: tag(BForall) * POW(3, S(v)) * POW(5, S(t)) * POW(7, S(b))),
        trm_bound=fn(lambda u: POW(PRIME(u), S(u) * S(u))),
        b1=b1, b2=fn(b2))


def codec_twin(codec: Callable[..., int | None]) -> Twin:
    """codec as an evaluator twin: its value as an int, or None where it
    declines, which leaves that argument to the term's equations."""
    def twin(args: tuple[int, ...]) -> int | None:
        try:
            v = codec(*args)
        except (CodingError, IndexError, FeasibilityError):
            return None
        return None if v is None else int(v)
    return twin


# both tables are built, and their twins registered, on import, so no step
# count depends on which scheme's parts are assembled first
KIT_OPS: Mapping[str, tuple[KitOp, ...]] = MappingProxyType(
    {"compact": _compact_kit(), "paper": _paper_kit()})


def _register_twins() -> None:
    """Each twinned term's first row's codec, as its twin; a term is
    registered once, so the compact mk_add and mk_imp node is."""
    twins: dict[PRTerm, Callable[..., int | None]] = {}
    for op in chain(*KIT_OPS.values()):
        if op.twinned:
            twins.setdefault(op.term, op.codec)
    for term, codec in twins.items():
        intrinsic(term, codec_twin(codec))


_register_twins()


# ---------------------------------------------------------------------------
# shared clause assembly


def _assemble(table: tuple[KitOp, ...]) -> dict[str, PRTerm]:
    ops = {op.name: op.term for op in table}
    isseq, seqlen, entry, slast, varn, vget, trm_bound, mk_add, mk_mul, kid1, kid2 = (
        ops[k] for k in ("isseq", "seqlen", "entry", "slast", "varn", "vget",
                         "trm_bound", "mk_add", "mk_mul", "kid1", "kid2"))
    # a code is a variable iff rebuilding from its read-off index returns it
    isvar = fn(lambda c: CHI_EQ(c, ops["mk_var"](varn(c))))

    def each(s, clause):
        """clause(i) for every entry index i of the sequence s."""
        return fa(seqlen(s) - 1, lambda i: implies(CHI_LT(i, seqlen(s)), clause(i)))

    def pairs(i, body):
        """body(j, k) for some j, k <= i - 1."""
        return ex(i - 1, lambda j: ex(i - 1, lambda k: body(j, k)))

    def sum_or_product(e, a, b):
        return or_(CHI_EQ(e, mk_add(a, b)), CHI_EQ(e, mk_mul(a, b)))

    # -- term building sequences: each entry e at i is a constant, a
    # variable, or the sum or product of two earlier entries
    def term_entry(s, i):
        e = entry(i, s)
        return or_(CHI_EQ(e, ops["zero"]), CHI_EQ(e, ops["one"]), isvar(e),
                   pairs(i, lambda j, k: and_(
                       CHI_LT(j, i), CHI_LT(k, i),
                       sum_or_product(e, entry(j, s), entry(k, s)))))

    trmseq = fn(lambda s: and_(isseq(s), each(s, lambda i: term_entry(s, i))))

    # -- term codes, witnessed by a non-empty building sequence s*(u): the
    # kit's construction where it has one, else the least witness.  Any
    # sequence that builds u shows that u is a term, so trm checks s*(u),
    # which is reused to read values off
    def builds(s, u):
        return CHI_EQ(slast(s), u), CHI_LE(1, seqlen(s)), trmseq(s)

    sstar = ops.get("sstar") or fn(
        lambda u: least(trm_bound(u), lambda s: and_(*builds(s, u))))
    trm = fn(lambda u: and_(*builds(sstar(u), u)))

    # -- atomic formula codes: the fields read off e, confirmed by
    # rebuilding e from them
    def atom(e, *mks):
        u, v = kid1(e), kid2(e)
        return and_(or_(*(CHI_EQ(e, mk(u, v)) for mk in mks)), trm(u), trm(v))

    atm = fn(lambda e: atom(e, ops["mk_eq"], ops["mk_le"]))

    # -- entrywise values of a term sequence, built functionally
    def split(s, i, e, j, k):
        return and_(CHI_LT(k, i), sum_or_product(e, entry(j, s), entry(k, s)))

    jstar = fn(lambda s, i, e: least(i - 1, lambda j: and_(
        CHI_LT(j, i), ex(i - 1, lambda k: split(s, i, e, j, k)))))
    kstar = fn(lambda s, i, e, j: least(i - 1, lambda k: split(s, i, e, j, k)))

    def value_entry(acc, z, s, i):
        e = entry(i, s)
        j = jstar(s, i, e)
        k = kstar(s, i, e, j)
        vj, vk = entry(j, acc), entry(k, acc)
        return select(CHI_EQ(e, ops["zero"]), 0,
                      select(CHI_EQ(e, ops["one"]), 1,
                             select(isvar(e), vget(z, varn(e)),
                                    select(CHI_EQ(e, mk_add(entry(j, s), entry(k, s))),
                                           vj + vk, vj * vk))))

    valcode = PrimRec(fn(lambda z, s: 1), fn(
        lambda acc, z, s, i: ops["sapp"](acc, value_entry(acc, z, s, i))))
    valfull = fn(lambda z, s: valcode(z, s, seqlen(s)))

    # -- value sequences: (z, s, t) with t matching s entrywise
    def value_ok(z, s, t, i):
        se, te = entry(i, s), entry(i, t)

        def combined(j, k):
            sj, sk, tj, tk = entry(j, s), entry(k, s), entry(j, t), entry(k, t)
            return and_(CHI_LT(j, i), CHI_LT(k, i), or_(
                and_(CHI_EQ(se, mk_add(sj, sk)), CHI_EQ(te, tj + tk)),
                and_(CHI_EQ(se, mk_mul(sj, sk)), CHI_EQ(te, tj * tk))))

        return or_(and_(CHI_EQ(se, ops["zero"]), CHI_EQ(te, 0)),
                   and_(CHI_EQ(se, ops["one"]), CHI_EQ(te, 1)),
                   and_(isvar(se), CHI_EQ(te, vget(z, varn(se)))),
                   pairs(i, combined))

    valseq = fn(lambda z, s, t: and_(
        isseq(z), isseq(s), isseq(t), CHI_EQ(seqlen(t), seqlen(s)),
        each(s, lambda i: value_ok(z, s, t, i))))

    # -- val(u, z, x): some building sequence of u whose value run ends in x
    def valued(u, z, x, s):
        run = valfull(z, s)
        return and_(*builds(s, u), CHI_EQ(slast(run), x), valseq(z, s, run))

    val = fn(lambda u, z, x: ex(trm_bound(u), lambda s: valued(u, z, x, s)))

    # val is functional in its last slot, so the clauses read the value off
    # the witness sequence s* directly; a search over candidate values
    # would pay a full refutation sweep below the true value.  valok(u, z)
    # confirms that read with valseq on the same s* and value run nodes, so
    # the evaluator's cache shares them; going through val would sweep the
    # building sequences a second time
    valof = fn(lambda u, z: slast(valfull(z, sstar(u))))
    valok = fn(lambda u, z: valseq(z, sstar(u), valfull(z, sstar(u))))

    # the written caps: p_{u+v}^{(z^{u+v}+1)^2} for atoms, p_u^{z^u+1} for
    # the universal witness
    def atom_cap(u, v, z):
        zq = S(POW(z, u + v))
        return POW(PRIME(u + v), zq * zq)

    pb = fn(atom_cap)
    pfa = fn(lambda u, z: POW(PRIME(u), S(POW(z, u))))

    # -- clause: true equation / inequality over (e, z, w); the value checks
    # sit inside the witness bit, since w = 0 is allowed when no value
    # witness exists
    def atom_clause(mk, tests):
        def clause(e, z, w):
            u, v = kid1(e), kid2(e)
            a, b = valof(u, z), valof(v, z)
            witness = and_(and_(valok(u, z), valok(v, z)), *tests(a, b, pb(u, v, z)))
            return and_(atom(e, mk), CHI_EQ(w, witness))

        return fn(clause)

    c_eq = atom_clause(ops["mk_eq"], lambda a, b, cap: (CHI_LE(a, cap), CHI_EQ(a, b)))
    c_le = atom_clause(ops["mk_le"], lambda a, b, cap: (
        CHI_LE(a, cap), CHI_LE(b, cap), CHI_LE(a, b)))

    # -- the compound clauses read entry e at i of s, annotated (z, w), at
    # position l of the run t; triple p of t is logged before l
    def logged(l, t, p, want):
        return and_(CHI_LT(p, l), CHI_EQ(entry(p, t), want))

    def earlier(l, t, want):
        return ex(l - 1, lambda p: logged(l, t, p, want))

    def negation(e, s, i, j):
        return CHI_LT(j, i), CHI_EQ(e, ops["mk_not"](entry(j, s)))

    def implication(e, s, i, j, k):
        return (CHI_LT(j, i), CHI_LT(k, i),
                CHI_EQ(e, ops["mk_imp"](entry(j, s), entry(k, s))))

    def universal(e, s, i, body):
        """body(j, v, u) for some j < i, with the variable code v and the
        bound u read off e."""
        return ex(i - 1, lambda j: and_(CHI_LT(j, i), body(j, kid1(e), kid2(e))))

    # e is the bounded universal over v <= u of entry j, and v does not
    # occur in u: no entry of s*(u), which holds every subterm of u
    def bfa(e, s, j, v, u):
        return (CHI_EQ(e, ops["mk_bfa"](v, u, entry(j, s))), isvar(v), trm(u),
                each(sstar(u), lambda k: not_(CHI_EQ(entry(k, sstar(u)), v))))

    c_not = fn(lambda e, z, w, i, s, l, t: ex(i - 1, lambda j: and_(
        *negation(e, s, i, j), earlier(l, t, PAIR3(j, z, 1 - w)))))

    c_imp = fn(lambda e, z, w, i, s, l, t: pairs(i, lambda j, k: and_(
        *implication(e, s, i, j, k),
        ex(1, lambda wj: ex(1, lambda wk: and_(
            CHI_EQ(w, or_(CHI_EQ(wj, 0), CHI_EQ(wk, 1))),
            earlier(l, t, PAIR3(j, z, wj)), earlier(l, t, PAIR3(k, z, wk))))))))

    def fa_clause(e, z, w, i, s, l, t):
        def checked(j, v, u):
            bound = valof(u, z)

            def zr(r):
                return ops["repl"](z, varn(v), r)

            complete = fa(bound, lambda r: ex(l - 1, lambda p: ex(1, lambda wr: logged(
                l, t, p, PAIR3(j, zr(r), wr)))))
            alltrue = fa(bound, lambda r: earlier(l, t, PAIR3(j, zr(r), 1)))
            return and_(*bfa(e, s, j, v, u), valok(u, z), CHI_LE(bound, pfa(u, z)),
                        complete, CHI_EQ(w, alltrue))

        return universal(e, s, i, checked)

    c_fa = fn(fa_clause)

    # -- formula building sequences
    def formula_entry(s, i):
        e = entry(i, s)
        return or_(atm(e),
                   ex(i - 1, lambda j: and_(*negation(e, s, i, j))),
                   pairs(i, lambda j, k: and_(*implication(e, s, i, j, k))),
                   universal(e, s, i, lambda j, v, u: and_(*bfa(e, s, j, v, u))))

    fmlseq = fn(lambda s: and_(isseq(s), each(s, lambda i: formula_entry(s, i))))

    # -- the annotated run checker and the wrapper matrix
    def triple_ok(s, t, m):
        tau = entry(m, t)
        i, z, w = EXPONENT(0, tau), EXPONENT(1, tau), EXPONENT(2, tau)
        e = entry(i, s)
        run = (e, z, w, i, s, m, t)
        return and_(CHI_LE(w, 1), CHI_LT(i, seqlen(s)), CHI_EQ(PAIR3(i, z, w), tau),
                    or_(c_eq(e, z, w), c_le(e, z, w),
                        c_not(*run), c_imp(*run), c_fa(*run)))

    satseq = fn(lambda s, t: and_(isseq(t), fmlseq(s),
                                  each(t, lambda m: triple_ok(s, t, m))))

    sgate = fn(lambda x, y, s: CHI_EQ(slast(s), x))
    matrix = fn(lambda x, y, s, t: and_(
        CHI_EQ(slast(t), PAIR3(seqlen(s) - 1, y, 1)), satseq(s, t)))

    return dict(trmseq=trmseq, trm=trm, atm=atm, valfull=valfull,
                valseq=valseq, val=val, fmlseq=fmlseq, satseq=satseq,
                sgate=sgate, matrix=matrix, b1=ops["b1"], b2=ops["b2"])


# ---------------------------------------------------------------------------
# the emitted relation


def sat_pr_parts(scheme: Coding = COMPACT) -> Mapping[str, PRTerm]:
    """Named pieces of the assembled checker, including the full term.

    The pieces are built once per scheme and handed out as a read-only
    mapping.  run(x, y, s) is the body of the sweep over building
    sequences, and term(x, y) is that sweep up to B1.
    """
    return _parts(scheme.name)


@cache
def _parts(name: str) -> Mapping[str, PRTerm]:
    parts = _assemble(KIT_OPS[name])
    b1, b2, sgate, matrix = (parts[k] for k in ("b1", "b2", "sgate", "matrix"))
    run = parts["run"] = fn(lambda x, y, s: and_(
        sgate(x, y, s), ex(b2(x, y), lambda t: matrix(x, y, s, t))))
    parts["term"] = fn(lambda x, y: ex(b1(x, y), lambda s: run(x, y, s)))
    return MappingProxyType(parts)


def sat_as_pr(scheme: Coding = COMPACT) -> PRTerm:
    """The satisfaction checker as an arity-2 PR term over (x, y)."""
    return sat_pr_parts(scheme)["term"]


# ---------------------------------------------------------------------------
# guarded evaluation


_CODE_CAP = 4096


def sat_pr_eval(x: int, y: int = 1, scheme: Coding = COMPACT,
                max_steps: int = 4 * 10 ** 6) -> int:
    """Evaluate the assembled checker at (x, y) where that is feasible.

    The run that sat_witness builds for (x, y) is passed to satpr.eval_pr
    as certificates for the two outer sweeps (see the module docstring),
    so the steps go to confirming that run, not to the candidates below
    it: at y = 1, 781 / 807 / 1,723 steps at x = 8 / 24 / 42, against
    50,685 / 57,111 / 180,681 for the plain term.  The certificates and
    the term share the budget max_steps.

    Only a true instance has a run to confirm, and only quantifier-free
    instances with tiny codes fit the bounds.  Everything else raises
    FeasibilityError, either up front or through the step budget.  A run
    costs about 1 us and 80 bytes a step, so the default budget of 4M
    steps refuses an instance in seconds and a few hundred MiB.
    """
    if type(x) is not int or type(y) is not int or x < 0 or y < 0:
        raise ValueError("codes are naturals")
    if x > _CODE_CAP or y > _CODE_CAP:
        raise FeasibilityError(
            f"codes beyond {_CODE_CAP} exceed the size guard for direct "
            f"PR evaluation")
    try:
        phi = desugar(scheme.decode(x))
        scheme.seq_decode(y)
    except CodingError as exc:
        raise FeasibilityError(
            f"malformed codes are only refuted by exhausting the candidate "
            f"sweep, which exceeds any step budget: {exc}") from exc
    if any(isinstance(n, (BForall, UForall)) for n in postorder(phi)):
        raise FeasibilityError(
            "the installed annotation bound covers quantifier-free codes "
            "only; quantified instances exceed the size guard")
    run = sat_witness(phi, y, scheme)
    if not run.value:
        raise FeasibilityError(
            "a false instance is only confirmed by exhausting the "
            "annotation sweep, which exceeds any step budget")
    parts = sat_pr_parts(scheme)
    witnesses = ((rel_bexists(parts["matrix"]), (x, y, run.s), run.t),
                 (rel_bexists(parts["run"]), (x, y), run.s))
    return eval_pr(parts["term"], (x, y), max_steps=max_steps,
                   witnesses=witnesses)
