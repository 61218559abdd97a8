"""The satisfaction relation for coded bounded formulas as one PR term.

The relation checked here is

    Sat(x, y):  exists s <= B1(x) [ last(s) = x  and
                exists t <= B2(x, y) [ last(t) = <len(s)-1, y, 1>  and
                                       satseq(s, t) ] ]

where s ranges over building sequences of the coded formula, t over
sequences of annotation triples <i, z, w> = 2^i 3^z 5^w, and satseq checks
every triple against the clause for its entry's shape: true equation, true
inequality, negation, implication, or bounded universal with valuation
updates z[r/v].  The quantifier shell is compiled from a BoundedSpec whose
bounds and matrix are installed as PR replacements, and the matrix is the
clause algebra assembled from the same rel_* combinators the compiler
emits, over a per-scheme kit of sequence readers and code builders:
prime-exponent sequences use the stdlib ops, bit-packed sequences get a
gamma-stream reader (zero-run scan, entry slicing, offset tracking) built
here.  The reader's bit-length, shift, zero-run, hop and length searches
are registered as evaluator intrinsics with exact Python twins.

The atom and bounded-universal clauses read a term's value off the value
run along its least building sequence s*, and confirm each such value with
valseq(z, s*, run).  That check fails when z codes no valuation sequence,
so such a z gives no value witness: an atom can then only be annotated
false and a universal clause fails, as in satisfaction's _atom_clause and
_forall_clause.

The emitted term is a faithful checker, not an efficient one.  Candidate
sweeps absorb at the first witness, so evaluation terminates quickly
exactly when the canonical witness is tiny and the instance is true;
sat_pr_eval guards its arguments and raises FeasibilityError outside that
envelope instead of running forever.  Under the bit-packed scheme the
annotation bound B2 is derived for quantifier-free codes (their triples
all carry the input valuation unchanged); quantified codes validate but
are gated off.  Under the prime-power scheme the written bounds are kept
verbatim, and no instance is small enough to evaluate.

B2 is built by one POW step, which no step budget interrupts; the
evaluator refuses a POW result of more than primrec.RESULT_BITS_CAP = 2^30
bits, and sat_pr_eval refuses every such compact instance up front, using
a closed-form lower bound on the bit length of B2.  Of
the 103 true quantifier-free compact codes x <= 4096 at y = 1, four finish
(x = 8, 24, 42, 50); the guard, which refuses every x >= 54 at y = 1,
takes the other 99, x = 77 first.
"""

from __future__ import annotations

from .coding import COMPACT, Coding, CodingError, CompactCoding
from .compiler import BoundedSpec, compile_spec
from .formulas import (
    And, BExists, BForall, ConstZero, Eq, Formula, Implies, Le, Not,
    UForall, Var, desugar, is_delta0,
)
from .numbers import nthprime
from .primrec import (
    ADD, CHI_EQ, CHI_LE, HALF, MONUS, MUL, PARITY, POW, PRED, Comp,
    RESULT_BITS_CAP, FeasibilityError, PRTerm, PrimRec, Proj, Succ, eval_pr,
    intrinsic,
)
from .prlib import (
    CHI_LT, EXPONENT, IDX, LAST, LEN, PAIR3, PRIME, REPLACE, SEQ_TEST,
    bounded_min, comp1, const, params, rel_and, rel_bexists, rel_bforall,
    rel_implies, rel_not, rel_or,
)
from .satisfaction import sat_valuation

__all__ = [
    "contains_subterm", "sat_as_pr", "sat_pr_eval", "sat_pr_parts",
]

P1 = Proj(1, 1)


def _ap(f: PRTerm, *gs: PRTerm) -> PRTerm:
    return Comp(f, gs)


def _s(t: PRTerm) -> PRTerm:
    return Comp(Succ(), (t,))


def _and(*fs: PRTerm) -> PRTerm:
    out = fs[-1]
    for f in fs[-2::-1]:
        out = rel_and(f, out)
    return out


def _or(*fs: PRTerm) -> PRTerm:
    out = fs[-1]
    for f in fs[-2::-1]:
        out = rel_or(f, out)
    return out


def _ex(body: PRTerm, n: int, bound: PRTerm) -> PRTerm:
    """exists v <= bound of body(args, v); body has arity n + 1."""
    return Comp(rel_bexists(body), params(n, width=n) + (bound,))


def _fa(body: PRTerm, n: int, bound: PRTerm) -> PRTerm:
    return Comp(rel_bforall(body), params(n, width=n) + (bound,))


def _sel(cond: PRTerm, a: PRTerm, b: PRTerm) -> PRTerm:
    """cond ? a : b for 0/1 cond; both arms stay unevaluated until picked."""
    return _ap(ADD, rel_and(cond, a), rel_and(rel_not(cond), b))


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
_BL_TEST = _ap(CHI_LE, _s(Proj(1, 2)), _ap(POW, const(2, 2), Proj(2, 2)))
BITLEN_MIN = intrinsic(
    bounded_min(_BL_TEST),
    lambda a: min(a[0].bit_length(), a[1] + 1))
BITLEN = Comp(BITLEN_MIN, (P1, P1))
PLEN = _ap(MONUS, BITLEN, const(1, 1))

# shift right by iterated halving; a quotient search would cost O(x)
SHR = intrinsic(PrimRec(P1, comp1(HALF, Proj(1, 3))), lambda a: a[0] >> a[1])

# payload bit at offset d, most significant first
_BIT = comp1(PARITY,
             _ap(SHR, Proj(1, 2),
                 _ap(MONUS,
                     _ap(MONUS, comp1(PLEN, Proj(1, 2)), const(1, 2)),
                     Proj(2, 2))))


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


_ZR_TEST = _ap(CHI_EQ,
               _ap(_BIT, Proj(1, 3), _ap(ADD, Proj(2, 3), Proj(3, 3))),
               const(1, 3))
ZRUN_MIN = intrinsic(bounded_min(_ZR_TEST), lambda a: _zrun(*a))
ZRUN = _ap(ZRUN_MIN, Proj(1, 2), Proj(2, 2), comp1(PLEN, Proj(1, 2)))


def _hop(c: int, d: int) -> int:
    """Offset after the gamma entry at offset d, or plen + 1 (poisoned)."""
    plen = _plen(c)
    # from d >= plen the hop overshoots plen, as the equations' first test says
    nxt = d + 1 + 2 * _zrun(c, d, plen)
    return nxt if nxt <= plen else plen + 1


_PL2 = comp1(PLEN, Proj(1, 2))
_NXT = _ap(ADD, Proj(2, 2), _s(_ap(MUL, const(2, 2), ZRUN)))
_POISON = _s(_PL2)
_STEP = _sel(_ap(CHI_LE, _PL2, Proj(2, 2)), _POISON,
             _sel(_ap(CHI_LE, _NXT, _PL2), _NXT, _POISON))
HOP = intrinsic(_ap(_STEP, Proj(2, 3), Proj(1, 3)), lambda a: _hop(a[1], a[0]))
# offset of entry n, plen once the stream is used up exactly
POSN = PrimRec(const(0, 1), HOP)


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


_SL_TEST = _ap(CHI_EQ, _ap(POSN, Proj(1, 2), Proj(2, 2)), _PL2)
SEQLEN_MIN = intrinsic(bounded_min(_SL_TEST), lambda a: _seqlen(*a))
SEQLEN = _ap(SEQLEN_MIN, P1, PLEN)


# ---------------------------------------------------------------------------
# per-scheme op kits
#
# Shared keys: zero/one (constant term codes), isseq, seqlen, entry(i, c),
# slast, vget(z, n), repl(z, k, r), sapp(s, e), varn (index of a variable
# code, > arg when none), mk_* (code builders; mk_bfa takes the variable
# code, the bound code, the body code), trm_bound (covers the canonical
# building sequence of a term code), b1/b2 (the wrapper search bounds).


def _compact_ops() -> dict[str, object]:
    pow2 = _ap(POW, const(2, 1), P1)
    pay = _ap(MONUS, P1, comp1(pow2, PLEN))
    mod2k = _ap(MONUS, Proj(1, 2),
                _ap(MUL, _ap(POW, const(2, 2), Proj(2, 2)), SHR))
    # code concatenation: append c's payload bits to a
    cat = _ap(ADD,
              _ap(MUL, Proj(1, 2), comp1(pow2, comp1(PLEN, Proj(2, 2)))),
              comp1(pay, Proj(2, 2)))
    gamma = _ap(ADD,
                comp1(pow2, _ap(MONUS, _ap(MUL, const(2, 1), BITLEN),
                                const(1, 1))),
                P1)
    sapp = _ap(cat, Proj(1, 2), comp1(gamma, _s(Proj(2, 2))))
    isseq = rel_and(_ap(CHI_LE, const(1, 1), P1),
                    _ap(CHI_LE, SEQLEN, PLEN))
    gdec = _ap(mod2k,
               _ap(SHR, comp1(pay, Proj(1, 2)), _ap(MONUS, _PL2, _NXT)),
               _s(ZRUN))
    entry = comp1(PRED, _ap(gdec, Proj(2, 2),
                            _ap(POSN, Proj(2, 2), Proj(1, 2))))
    slast = _ap(entry, _ap(MONUS, SEQLEN, const(1, 1)), P1)
    vget = _ap(MUL,
               _ap(CHI_LT, Proj(2, 2), comp1(SEQLEN, Proj(1, 2))),
               _ap(entry, Proj(2, 2), Proj(1, 2)))
    # rebuild with entry k set to r, zero padded to length max(len, k+1)
    bstep = _ap(sapp, Proj(1, 5),
                _sel(_ap(CHI_EQ, Proj(5, 5), Proj(3, 5)), Proj(4, 5),
                     _ap(vget, Proj(2, 5), Proj(5, 5))))
    build = PrimRec(const(1, 3), bstep)
    sl3 = comp1(SEQLEN, Proj(1, 3))
    repl = _ap(build, Proj(1, 3), Proj(2, 3), Proj(3, 3),
               _ap(ADD, sl3, _ap(MONUS, _s(Proj(2, 3)), sl3)))
    mk_eq = _ap(cat, _ap(cat, const(2, 2), Proj(1, 2)), Proj(2, 2))
    mk_le = _ap(cat, _ap(cat, const(6, 2), Proj(1, 2)), Proj(2, 2))
    mk_not = _ap(cat, const(14, 1), P1)
    mk_imp = _ap(cat, _ap(cat, const(30, 2), Proj(1, 2)), Proj(2, 2))
    mk_add = _ap(cat, _ap(cat, const(30, 2), Proj(1, 2)), Proj(2, 2))
    mk_mul = _ap(cat, _ap(cat, const(31, 2), Proj(1, 2)), Proj(2, 2))
    mk_var = _ap(cat, const(14, 1), comp1(gamma, _s(P1)))
    # variable payload minus its three tag bits, as a code
    pm3 = _ap(MONUS, PLEN, const(3, 1))
    gpart = _ap(ADD, comp1(pow2, pm3), _ap(mod2k, pay, pm3))
    # candidate index read off the bits; callers confirm by rebuilding,
    # a search over indices would cost O(v) on non-variable codes
    varn = comp1(PRED, comp1(pay, gpart))
    mk_bfa = _ap(cat,
                 _ap(cat,
                     _ap(MUL,
                         _ap(cat, const(31, 3), comp1(gpart, Proj(1, 3))),
                         const(2, 3)),
                     Proj(2, 3)),
                 Proj(3, 3))
    # a canonical building sequence has at most plen(u) entries of at most
    # bitlen(u) + 1 bits each once gamma coded
    trm_bound = comp1(pow2, _s(_ap(MUL, PLEN,
                                   _s(_ap(MUL, const(2, 1), BITLEN)))))
    b1 = _ap(POW, comp1(PRIME, Proj(1, 2)),
             _ap(MUL, _s(Proj(1, 2)), _s(Proj(1, 2))))
    # quantifier-free runs keep z = y in every triple, so the annotation
    # code has at most bitlen(b1) triples of bitlen(b1) + 2y + 4 bits each
    lam = comp1(BITLEN, b1)
    b2 = comp1(pow2, _s(_ap(MUL, lam,
                            _ap(ADD, _ap(MUL, const(2, 2), lam),
                                _ap(ADD, _ap(MUL, const(4, 2), Proj(2, 2)),
                                    const(8, 2))))))
    return dict(zero=2, one=6, isseq=isseq, seqlen=SEQLEN, entry=entry,
                slast=slast, vget=vget, repl=repl, sapp=sapp, varn=varn,
                mk_eq=mk_eq, mk_le=mk_le, mk_not=mk_not, mk_imp=mk_imp,
                mk_add=mk_add, mk_mul=mk_mul, mk_var=mk_var, mk_bfa=mk_bfa,
                trm_bound=trm_bound, b1=b1, b2=b2)


def _paper_ops() -> dict[str, object]:
    # symbol tags enter the product as 2^(symbol+1); keep them in that shape
    # rather than as unary numerals
    def tag(symbol: int, width: int) -> PRTerm:
        return _ap(POW, const(2, width), const(symbol + 1, width))

    s1imit = _s(Proj(1, 2))
    s2 = _s(Proj(2, 2))
    mk_eq = _ap(MUL, _ap(MUL, tag(9, 2), _ap(POW, const(3, 2), s1imit)),
                _ap(POW, const(5, 2), s2))
    mk_le = _ap(MUL, _ap(MUL, tag(11, 2), _ap(POW, const(3, 2), s1imit)),
                _ap(POW, const(5, 2), s2))
    mk_not = _ap(MUL, tag(13, 1), _ap(POW, const(3, 1), _s(P1)))
    mk_imp = _ap(MUL, _ap(MUL, tag(15, 2), _ap(POW, const(3, 2), s1imit)),
                 _ap(POW, const(5, 2), s2))
    mk_add = _ap(MUL, _ap(MUL, tag(5, 2), _ap(POW, const(3, 2), s1imit)),
                 _ap(POW, const(5, 2), s2))
    mk_mul = _ap(MUL, _ap(MUL, tag(7, 2), _ap(POW, const(3, 2), s1imit)),
                 _ap(POW, const(5, 2), s2))
    mk_var = _ap(ADD, _ap(MUL, const(2, 1), P1), const(2, 1))
    mk_bfa = _ap(MUL,
                 _ap(MUL,
                     _ap(MUL, tag(17, 3),
                         _ap(POW, const(3, 3), _s(Proj(1, 3)))),
                     _ap(POW, const(5, 3), _s(Proj(2, 3)))),
                 _ap(POW, const(7, 3), _s(Proj(3, 3))))
    varn = comp1(PRED, comp1(HALF, P1))
    sapp = _ap(MUL, Proj(1, 2),
               _ap(POW, comp1(PRIME, comp1(LEN, Proj(1, 2))), _s(Proj(2, 2))))
    vget = _ap(IDX, Proj(2, 2), Proj(1, 2))
    trm_bound = _ap(POW, comp1(PRIME, P1), _ap(MUL, _s(P1), _s(P1)))
    b1 = _ap(POW, comp1(PRIME, Proj(1, 2)),
             _ap(MUL, _s(Proj(1, 2)), _s(Proj(1, 2))))
    prx = comp1(PRIME, Proj(1, 2))
    tower = _ap(POW, prx, _ap(POW, prx, _ap(MUL, s2, s2)))
    b2 = _ap(POW, comp1(PRIME, _ap(MUL, Proj(1, 2), Proj(1, 2))),
             _ap(MUL,
                 _ap(MUL, _ap(POW, const(2, 2), b1),
                     _ap(POW, const(3, 2), tower)),
                 const(5, 2)))
    return dict(zero=1, one=3, isseq=SEQ_TEST, seqlen=LEN, entry=IDX,
                slast=LAST, vget=vget, repl=REPLACE, sapp=sapp, varn=varn,
                mk_eq=mk_eq, mk_le=mk_le, mk_not=mk_not, mk_imp=mk_imp,
                mk_add=mk_add, mk_mul=mk_mul, mk_var=mk_var, mk_bfa=mk_bfa,
                trm_bound=trm_bound, b1=b1, b2=b2)


# ---------------------------------------------------------------------------
# shared clause assembly


def _assemble(ops: dict[str, object]) -> dict[str, PRTerm]:
    isseq, seqlen, entry, slast = (ops["isseq"], ops["seqlen"],
                                   ops["entry"], ops["slast"])
    zero_c, one_c = ops["zero"], ops["one"]
    # a code is a variable iff rebuilding from its read-off index returns it
    isvar = _ap(CHI_EQ, P1, comp1(ops["mk_var"], ops["varn"]))
    im1_2 = _ap(MONUS, Proj(2, 2), const(1, 2))
    im1_3 = _ap(MONUS, Proj(2, 3), const(1, 3))

    # -- term building sequences: (s, i) ambient, entries from earlier ones
    e2 = _ap(entry, Proj(2, 2), Proj(1, 2))
    e4 = _ap(entry, Proj(2, 4), Proj(1, 4))
    ej4 = _ap(entry, Proj(3, 4), Proj(1, 4))
    ek4 = _ap(entry, Proj(4, 4), Proj(1, 4))
    comp_body = _and(_ap(CHI_LT, Proj(3, 4), Proj(2, 4)),
                     _ap(CHI_LT, Proj(4, 4), Proj(2, 4)),
                     _or(_ap(CHI_EQ, e4, _ap(ops["mk_add"], ej4, ek4)),
                         _ap(CHI_EQ, e4, _ap(ops["mk_mul"], ej4, ek4))))
    tent = _or(_ap(CHI_EQ, e2, const(zero_c, 2)),
               _ap(CHI_EQ, e2, const(one_c, 2)),
               comp1(isvar, e2),
               _ex(_ex(comp_body, 3, im1_3), 2, im1_2))
    tloop = rel_implies(_ap(CHI_LT, Proj(2, 2), comp1(seqlen, Proj(1, 2))),
                        tent)
    trmseq = rel_and(isseq,
                     _ap(rel_bforall(tloop), P1,
                         _ap(MONUS, seqlen, const(1, 1))))

    # -- term codes, witnessed by a non-empty building sequence; the least
    # witness is reused to read values off, so it is shared, not re-swept
    trm_body = _and(_ap(CHI_EQ, comp1(slast, Proj(2, 2)), Proj(1, 2)),
                    _ap(CHI_LE, const(1, 2), comp1(seqlen, Proj(2, 2))),
                    comp1(trmseq, Proj(2, 2)))
    sstar = Comp(bounded_min(trm_body), (P1, ops["trm_bound"]))
    trm = _ap(CHI_LE, sstar, ops["trm_bound"])

    # -- atomic formula codes
    atm_body = _and(_or(_ap(CHI_EQ, Proj(1, 3),
                            _ap(ops["mk_eq"], Proj(2, 3), Proj(3, 3))),
                        _ap(CHI_EQ, Proj(1, 3),
                            _ap(ops["mk_le"], Proj(2, 3), Proj(3, 3)))),
                    comp1(trm, Proj(2, 3)),
                    comp1(trm, Proj(3, 3)))
    atm = _ex(_ex(atm_body, 2, Proj(1, 2)), 1, P1)

    # -- entrywise values of a term sequence, built functionally
    # step ambient: (acc, z, s, i)
    pe = _ap(entry, Proj(4, 4), Proj(3, 4))
    ej5 = _ap(entry, Proj(4, 5), Proj(1, 5))
    ek5 = _ap(entry, Proj(5, 5), Proj(1, 5))
    jk_body = _and(_ap(CHI_LT, Proj(5, 5), Proj(2, 5)),
                   _or(_ap(CHI_EQ, Proj(3, 5), _ap(ops["mk_add"], ej5, ek5)),
                       _ap(CHI_EQ, Proj(3, 5), _ap(ops["mk_mul"], ej5, ek5))))
    jok = rel_and(_ap(CHI_LT, Proj(4, 4), Proj(2, 4)),
                  _ex(jk_body, 4, _ap(MONUS, Proj(2, 4), const(1, 4))))
    jstar = _ap(bounded_min(jok), Proj(1, 3), Proj(2, 3), Proj(3, 3),
                _ap(MONUS, Proj(2, 3), const(1, 3)))
    kstar = _ap(bounded_min(jk_body), Proj(1, 4), Proj(2, 4), Proj(3, 4),
                Proj(4, 4), _ap(MONUS, Proj(2, 4), const(1, 4)))
    js = _ap(jstar, Proj(3, 4), Proj(4, 4), pe)
    ks = _ap(kstar, Proj(3, 4), Proj(4, 4), pe, js)
    vj = _ap(entry, js, Proj(1, 4))
    vk = _ap(entry, ks, Proj(1, 4))
    comp_val = _sel(_ap(CHI_EQ, pe, _ap(ops["mk_add"],
                                        _ap(entry, js, Proj(3, 4)),
                                        _ap(entry, ks, Proj(3, 4)))),
                    _ap(ADD, vj, vk), _ap(MUL, vj, vk))
    ventry = _sel(_ap(CHI_EQ, pe, const(zero_c, 4)), const(0, 4),
                  _sel(_ap(CHI_EQ, pe, const(one_c, 4)), const(1, 4),
                       _sel(comp1(isvar, pe),
                            _ap(ops["vget"], Proj(2, 4),
                                comp1(ops["varn"], pe)),
                            comp_val)))
    valcode = PrimRec(const(1, 2), _ap(ops["sapp"], Proj(1, 4), ventry))
    valfull = _ap(valcode, Proj(1, 2), Proj(2, 2),
                  comp1(seqlen, Proj(2, 2)))

    # -- value sequences: (y, s, t) with t matching s entrywise
    se4 = _ap(entry, Proj(4, 4), Proj(2, 4))
    te4 = _ap(entry, Proj(4, 4), Proj(3, 4))
    se6 = _ap(entry, Proj(4, 6), Proj(2, 6))
    sej6 = _ap(entry, Proj(5, 6), Proj(2, 6))
    sek6 = _ap(entry, Proj(6, 6), Proj(2, 6))
    te6 = _ap(entry, Proj(4, 6), Proj(3, 6))
    tej6 = _ap(entry, Proj(5, 6), Proj(3, 6))
    tek6 = _ap(entry, Proj(6, 6), Proj(3, 6))
    vcomp = _and(_ap(CHI_LT, Proj(5, 6), Proj(4, 6)),
                 _ap(CHI_LT, Proj(6, 6), Proj(4, 6)),
                 _or(rel_and(_ap(CHI_EQ, se6, _ap(ops["mk_add"], sej6, sek6)),
                             _ap(CHI_EQ, te6, _ap(ADD, tej6, tek6))),
                     rel_and(_ap(CHI_EQ, se6, _ap(ops["mk_mul"], sej6, sek6)),
                             _ap(CHI_EQ, te6, _ap(MUL, tej6, tek6)))))
    vent = _or(rel_and(_ap(CHI_EQ, se4, const(zero_c, 4)),
                       _ap(CHI_EQ, te4, const(0, 4))),
               rel_and(_ap(CHI_EQ, se4, const(one_c, 4)),
                       _ap(CHI_EQ, te4, const(1, 4))),
               rel_and(comp1(isvar, se4),
                       _ap(CHI_EQ, te4,
                           _ap(ops["vget"], Proj(1, 4),
                               comp1(ops["varn"], se4)))),
               _ex(_ex(vcomp, 5, _ap(MONUS, Proj(4, 5), const(1, 5))),
                   4, _ap(MONUS, Proj(4, 4), const(1, 4))))
    vloop = rel_implies(_ap(CHI_LT, Proj(4, 4), comp1(seqlen, Proj(2, 4))),
                        vent)
    valseq = _and(comp1(isseq, Proj(1, 3)),
                  comp1(isseq, Proj(2, 3)),
                  comp1(isseq, Proj(3, 3)),
                  _ap(CHI_EQ, comp1(seqlen, Proj(3, 3)),
                      comp1(seqlen, Proj(2, 3))),
                  _ap(rel_bforall(vloop), Proj(1, 3), Proj(2, 3), Proj(3, 3),
                      _ap(MONUS, comp1(seqlen, Proj(2, 3)), const(1, 3))))

    # -- val(u, z, x): some building sequence of u whose value run ends in x
    vf4 = _ap(valfull, Proj(2, 4), Proj(4, 4))
    val_body = _and(_ap(CHI_EQ, comp1(slast, Proj(4, 4)), Proj(1, 4)),
                    _ap(CHI_LE, const(1, 4), comp1(seqlen, Proj(4, 4))),
                    comp1(trmseq, Proj(4, 4)),
                    _ap(CHI_EQ, comp1(slast, vf4), Proj(3, 4)),
                    _ap(valseq, Proj(2, 4), Proj(4, 4), vf4))
    val = _ex(val_body, 3, comp1(ops["trm_bound"], Proj(1, 3)))

    # val is functional in its last slot, so the clauses read the value off
    # the least witness sequence s* directly; a search over candidate values
    # would pay a full refutation sweep below the true value.  valok(u, z)
    # confirms that read with valseq on the same s* and value run nodes, so
    # the evaluator's cache shares them; going through val would sweep the
    # building sequences a second time
    su = comp1(sstar, Proj(1, 2))
    vrun = _ap(valfull, Proj(2, 2), su)
    valof = _ap(slast, vrun)
    valok = _ap(valseq, Proj(2, 2), su, vrun)

    # the written caps: p_{u+v}^{(z^{u+v}+1)^2} for atoms, p_u^{z^u+1} for
    # the universal witness
    uv = _ap(ADD, Proj(1, 3), Proj(2, 3))
    zq = _s(_ap(POW, Proj(3, 3), uv))
    pb = _ap(POW, comp1(PRIME, uv), _ap(MUL, zq, zq))
    pfa = _ap(POW, comp1(PRIME, Proj(1, 2)),
              _s(_ap(POW, Proj(2, 2), Proj(1, 2))))

    # -- clause: true equation / inequality, ambient (e, z, w, u, v); the
    # value checks sit inside the witness bit, since w = 0 is allowed when
    # no value witness exists
    pb5 = _ap(pb, Proj(4, 5), Proj(5, 5), Proj(2, 5))
    a5 = _ap(valof, Proj(4, 5), Proj(2, 5))
    b5 = _ap(valof, Proj(5, 5), Proj(2, 5))
    ok5 = rel_and(_ap(valok, Proj(4, 5), Proj(2, 5)),
                  _ap(valok, Proj(5, 5), Proj(2, 5)))
    w_eq = _and(ok5, _ap(CHI_LE, a5, pb5), _ap(CHI_EQ, a5, b5))
    w_le = _and(ok5, _ap(CHI_LE, a5, pb5), _ap(CHI_LE, b5, pb5),
                _ap(CHI_LE, a5, b5))
    ceq_body = _and(_ap(CHI_EQ, Proj(1, 5),
                        _ap(ops["mk_eq"], Proj(4, 5), Proj(5, 5))),
                    comp1(trm, Proj(4, 5)), comp1(trm, Proj(5, 5)),
                    _ap(CHI_EQ, Proj(3, 5), w_eq))
    c_eq = _ex(_ex(ceq_body, 4, Proj(1, 4)), 3, Proj(1, 3))
    cle_body = _and(_ap(CHI_EQ, Proj(1, 5),
                        _ap(ops["mk_le"], Proj(4, 5), Proj(5, 5))),
                    comp1(trm, Proj(4, 5)), comp1(trm, Proj(5, 5)),
                    _ap(CHI_EQ, Proj(3, 5), w_le))
    c_le = _ex(_ex(cle_body, 4, Proj(1, 4)), 3, Proj(1, 3))

    # -- clause: negation, ambient (e, z, w, i, s, l, t) then j, p
    tr9 = _ap(entry, Proj(9, 9), Proj(7, 9))
    want9 = _ap(PAIR3, Proj(8, 9), Proj(2, 9),
                _ap(MONUS, const(1, 9), Proj(3, 9)))
    not_p = rel_and(_ap(CHI_LT, Proj(9, 9), Proj(6, 9)),
                    _ap(CHI_EQ, tr9, want9))
    not_j = _and(_ap(CHI_LT, Proj(8, 8), Proj(4, 8)),
                 _ap(CHI_EQ, Proj(1, 8),
                     _ap(ops["mk_not"], _ap(entry, Proj(8, 8), Proj(5, 8)))),
                 _ex(not_p, 8, _ap(MONUS, Proj(6, 8), const(1, 8))))
    c_not = _ex(not_j, 7, _ap(MONUS, Proj(4, 7), const(1, 7)))

    # -- clause: implication, adds j, k, w', w'', then lookups p / q
    ej9 = _ap(entry, Proj(8, 9), Proj(5, 9))
    ek9 = _ap(entry, Proj(9, 9), Proj(5, 9))
    tgt11 = rel_or(_ap(CHI_EQ, Proj(10, 11), const(0, 11)),
                   _ap(CHI_EQ, Proj(11, 11), const(1, 11)))
    look1 = rel_and(_ap(CHI_LT, Proj(12, 12), Proj(6, 12)),
                    _ap(CHI_EQ, _ap(entry, Proj(12, 12), Proj(7, 12)),
                        _ap(PAIR3, Proj(8, 12), Proj(2, 12), Proj(10, 12))))
    look2 = rel_and(_ap(CHI_LT, Proj(12, 12), Proj(6, 12)),
                    _ap(CHI_EQ, _ap(entry, Proj(12, 12), Proj(7, 12)),
                        _ap(PAIR3, Proj(9, 12), Proj(2, 12), Proj(11, 12))))
    imp_w = _and(_ap(CHI_EQ, Proj(3, 11), tgt11),
                 _ex(look1, 11, _ap(MONUS, Proj(6, 11), const(1, 11))),
                 _ex(look2, 11, _ap(MONUS, Proj(6, 11), const(1, 11))))
    imp_jk = _and(_ap(CHI_LT, Proj(8, 9), Proj(4, 9)),
                  _ap(CHI_LT, Proj(9, 9), Proj(4, 9)),
                  _ap(CHI_EQ, Proj(1, 9), _ap(ops["mk_imp"], ej9, ek9)),
                  _ex(_ex(imp_w, 10, const(1, 10)), 9, const(1, 9)))
    c_imp = _ex(_ex(imp_jk, 8, _ap(MONUS, Proj(4, 8), const(1, 8))),
                7, _ap(MONUS, Proj(4, 7), const(1, 7)))

    # -- clause: bounded universal, adds j, v, u then r, p, w'
    fa_match = _ap(CHI_EQ, Proj(1, 10),
                   _ap(ops["mk_bfa"], Proj(9, 10), Proj(10, 10),
                       _ap(entry, Proj(8, 10), Proj(5, 10))))
    pfa10 = _ap(pfa, Proj(10, 10), Proj(2, 10))
    bx10 = _ap(valof, Proj(10, 10), Proj(2, 10))
    z_r12 = _ap(ops["repl"], Proj(2, 12),
                comp1(ops["varn"], Proj(9, 12)), Proj(11, 12))
    z_r13 = _ap(ops["repl"], Proj(2, 13),
                comp1(ops["varn"], Proj(9, 13)), Proj(11, 13))
    look_any = rel_and(_ap(CHI_LT, Proj(12, 13), Proj(6, 13)),
                       _ap(CHI_EQ, _ap(entry, Proj(12, 13), Proj(7, 13)),
                           _ap(PAIR3, Proj(8, 13), z_r13, Proj(13, 13))))
    complete = _fa(_ex(_ex(look_any, 12, const(1, 12)),
                       11, _ap(MONUS, Proj(6, 11), const(1, 11))),
                   10, bx10)
    look_one = rel_and(_ap(CHI_LT, Proj(12, 12), Proj(6, 12)),
                       _ap(CHI_EQ, _ap(entry, Proj(12, 12), Proj(7, 12)),
                           _ap(PAIR3, Proj(8, 12), z_r12, const(1, 12))))
    alltrue = _fa(_ex(look_one, 11, _ap(MONUS, Proj(6, 11), const(1, 11))),
                  10, bx10)
    fa_body = _and(fa_match,
                   comp1(trm, Proj(10, 10)),
                   _ap(valok, Proj(10, 10), Proj(2, 10)),
                   _ap(CHI_LE, bx10, pfa10),
                   complete,
                   _ap(CHI_EQ, Proj(3, 10), alltrue))
    fa_v = rel_and(comp1(isvar, Proj(9, 9)), _ex(fa_body, 9, Proj(1, 9)))
    fa_j = rel_and(_ap(CHI_LT, Proj(8, 8), Proj(4, 8)),
                   _ex(fa_v, 8, Proj(1, 8)))
    c_fa = _ex(fa_j, 7, _ap(MONUS, Proj(4, 7), const(1, 7)))

    # -- formula building sequences
    e3 = _ap(entry, Proj(2, 3), Proj(1, 3))
    e5 = _ap(entry, Proj(2, 5), Proj(1, 5))
    fnot = rel_and(_ap(CHI_LT, Proj(3, 3), Proj(2, 3)),
                   _ap(CHI_EQ, e3,
                       _ap(ops["mk_not"], _ap(entry, Proj(3, 3), Proj(1, 3)))))
    fimp = _and(_ap(CHI_LT, Proj(3, 4), Proj(2, 4)),
                _ap(CHI_LT, Proj(4, 4), Proj(2, 4)),
                _ap(CHI_EQ, e4, _ap(ops["mk_imp"], ej4, ek4)))
    fbfa_u = rel_and(_ap(CHI_EQ, e5,
                         _ap(ops["mk_bfa"], Proj(4, 5), Proj(5, 5),
                             _ap(entry, Proj(3, 5), Proj(1, 5)))),
                     comp1(trm, Proj(5, 5)))
    fbfa_v = rel_and(comp1(isvar, Proj(4, 4)), _ex(fbfa_u, 4, e4))
    fbfa_j = rel_and(_ap(CHI_LT, Proj(3, 3), Proj(2, 3)), _ex(fbfa_v, 3, e3))
    fent = _or(comp1(atm, e2),
               _ex(fnot, 2, im1_2),
               _ex(_ex(fimp, 3, im1_3), 2, im1_2),
               _ex(fbfa_j, 2, im1_2))
    floop = rel_implies(_ap(CHI_LT, Proj(2, 2), comp1(seqlen, Proj(1, 2))),
                        fent)
    fmlseq = rel_and(isseq,
                     _ap(rel_bforall(floop), P1,
                         _ap(MONUS, seqlen, const(1, 1))))

    # -- the annotated run checker and the wrapper matrix
    tau = _ap(entry, Proj(3, 3), Proj(2, 3))
    i_ = _ap(EXPONENT, const(0, 3), tau)
    z_ = _ap(EXPONENT, const(1, 3), tau)
    w_ = _ap(EXPONENT, const(2, 3), tau)
    e_ = _ap(entry, i_, Proj(1, 3))
    seven = (e_, z_, w_, i_, Proj(1, 3), Proj(3, 3), Proj(2, 3))
    triple_ok = _and(_ap(CHI_LE, w_, const(1, 3)),
                     _ap(CHI_LT, i_, comp1(seqlen, Proj(1, 3))),
                     _ap(CHI_EQ, _ap(PAIR3, i_, z_, w_), tau),
                     _or(_ap(c_eq, e_, z_, w_),
                         _ap(c_le, e_, z_, w_),
                         _ap(c_not, *seven),
                         _ap(c_imp, *seven),
                         _ap(c_fa, *seven)))
    tloop2 = rel_implies(_ap(CHI_LT, Proj(3, 3), comp1(seqlen, Proj(2, 3))),
                         triple_ok)
    satseq = _and(comp1(isseq, Proj(2, 2)),
                  comp1(fmlseq, Proj(1, 2)),
                  _ap(rel_bforall(tloop2), Proj(1, 2), Proj(2, 2),
                      _ap(MONUS, comp1(seqlen, Proj(2, 2)), const(1, 2))))

    sgate = _ap(CHI_EQ, comp1(slast, Proj(3, 3)), Proj(1, 3))
    tgate = _ap(CHI_EQ, comp1(slast, Proj(4, 4)),
                _ap(PAIR3,
                    _ap(MONUS, comp1(seqlen, Proj(3, 4)), const(1, 4)),
                    Proj(2, 4), const(1, 4)))
    matrix = rel_and(tgate, _ap(satseq, Proj(3, 4), Proj(4, 4)))

    return dict(trmseq=trmseq, trm=trm, atm=atm, valfull=valfull,
                valseq=valseq, val=val, fmlseq=fmlseq, satseq=satseq,
                sgate=sgate, matrix=matrix, b1=ops["b1"], b2=ops["b2"])


# ---------------------------------------------------------------------------
# the emitted relation


def sat_pr_parts(scheme: Coding = COMPACT) -> dict[str, PRTerm]:
    """Named pieces of the assembled checker, including the full term.

    Nodes are hash-consed, so every call returns the identical terms.
    """
    ops = _compact_ops() if isinstance(scheme, CompactCoding) else _paper_ops()
    parts = _assemble(ops)
    shell = BExists(2, ConstZero(),
                    And(Eq(Var(2), Var(0)),
                        BExists(3, ConstZero(), Le(Var(3), Var(1)))))
    spec = BoundedSpec(
        shell, (0, 1),
        pr_bounds={(): parts["b1"],
                   (0, 1): Comp(parts["b2"], (Proj(1, 3), Proj(2, 3)))},
        pr_atoms={(0, 0): parts["sgate"], (0, 1, 0): parts["matrix"]})
    parts["term"] = compile_spec(spec).term
    return parts


def sat_as_pr(scheme: Coding = COMPACT) -> PRTerm:
    """The satisfaction checker as an arity-2 PR term over (x, y)."""
    return sat_pr_parts(scheme)["term"]


def contains_subterm(t: PRTerm, sub: PRTerm) -> bool:
    """Whether sub occurs in t; nodes are hash-consed, so equal is identical."""
    seen: set[PRTerm] = set()

    def walk(node: PRTerm) -> bool:
        if node is sub:
            return True
        if node in seen:
            return False
        seen.add(node)
        match node:
            case Comp(f, gs):
                return walk(f) or any(walk(g) for g in gs)
            case PrimRec(f, g):
                return walk(f) or walk(g)
        return False

    return walk(t)


# ---------------------------------------------------------------------------
# guarded evaluation


_CODE_CAP = 4096


def _compact_b2_bits_floor(x: int, y: int) -> int:
    """A lower bound on the bit length of the compact B2(x, y).

    b1 = prime(x)^e with e = (x + 1)^2 has lam >= e * (bitlen(prime(x)) - 1)
    + 1 bits, and B2 = 2^(1 + lam * (2 lam + 4y + 8)) grows with lam.
    """
    e = (x + 1) ** 2
    lam = e * (nthprime(x).bit_length() - 1) + 1
    return 2 + lam * (2 * lam + 4 * y + 8)


def _quantifier_free(phi: Formula) -> bool:
    match phi:
        case Eq() | Le():
            return True
        case Not(body=b):
            return _quantifier_free(b)
        case Implies(left=l, right=r):
            return _quantifier_free(l) and _quantifier_free(r)
        case BForall() | UForall():
            return False
    return False


def sat_pr_eval(x: int, y: int = 1, scheme: Coding = COMPACT,
                max_steps: int = 50_000_000) -> int:
    """Evaluate the assembled checker at (x, y) where that is feasible.

    The term is total, but its value is reachable only when the candidate
    sweeps absorb early, which happens exactly on true quantifier-free
    instances with tiny codes.  Everything else raises FeasibilityError,
    either up front or through the step budget.  Under the compact scheme
    that includes every instance whose annotation bound B2 would have more
    than 2^30 bits: at y = 1, every x >= 54.
    """
    if not isinstance(x, int) or not isinstance(y, int) or x < 0 or y < 0:
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
    if not (is_delta0(phi) and _quantifier_free(phi)):
        raise FeasibilityError(
            "the installed annotation bound covers quantifier-free codes "
            "only; quantified instances exceed the size guard")
    if not sat_valuation(x, y, scheme):
        raise FeasibilityError(
            "a false instance is only confirmed by exhausting the "
            "annotation sweep, which exceeds any step budget")
    # the POW step that builds B2 refuses it too, but only once the sweep
    # over building sequences has reached its witness
    if (isinstance(scheme, CompactCoding)
            and _compact_b2_bits_floor(x, y) > RESULT_BITS_CAP):
        raise FeasibilityError(
            f"the annotation bound B2 would take more than {RESULT_BITS_CAP} "
            f"bits, built in a single step that the step budget cannot stop")
    return eval_pr(sat_as_pr(scheme), (x, y), max_steps=max_steps)
