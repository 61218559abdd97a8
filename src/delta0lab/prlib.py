"""Standard library of primitive-recursive constructions.

Everything here is a closed PR term built from the five combinators; the
module also provides the generic builders (constants, bounded sums and
products, bounded minimization, the relation algebra) that the formula
compiler uses.  Relations are 0/1-valued; bounded operators treat the last
argument as the inclusive bound.

Sequence coding: a finite sequence (a_0, ..., a_k) is stored as
prod_i p_i^(a_i + 1), the empty sequence as 1.  Entries are recovered as
prime exponents minus one; the length is the first prime index that does
not divide the code.
"""

from __future__ import annotations

from math import isqrt

from .primrec import (
    ADD, CHI_EQ, CHI_LE, HALF, MONUS, MUL, P11, PARITY, POW, PRED, SG, SGBAR,
    Comp, PRTerm, PrimRec, Proj, Succ, Zero, intrinsic, validate,
)

__all__ = [
    "ADD", "MUL", "SG", "SGBAR", "PRED", "MONUS", "CHI_EQ", "CHI_LE", "POW",
    "PARITY", "HALF", "PRIME", "LEN", "IDX", "LAST", "SEQ_TEST", "REPLACE",
    "PAIR3", "QUOT", "DIVIDES", "EXPONENT", "NEXTPRIME", "CHI_PRIME",
    "CHI_LT", "STDLIB", "const", "comp1", "params",
    "bounded_sum", "bounded_prod", "bounded_min", "rel_not", "rel_and",
    "rel_or", "rel_implies", "rel_bforall", "rel_bexists", "rel_combine",
    "graph_of",
]


def const(c: int, arity: int) -> PRTerm:
    """The constant-c function of the given arity."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
    t: PRTerm = Zero() if arity == 1 else Comp(Zero(), (Proj(1, arity),))
    for _ in range(c):
        t = Comp(Succ(), (t,))
    return t


def comp1(f: PRTerm, g: PRTerm) -> PRTerm:
    return Comp(f, (g,))


def params(arity: int, *, offset: int = 0, width: int | None = None) -> tuple[PRTerm, ...]:
    """Projections picking arity consecutive arguments out of width."""
    w = arity if width is None else width
    return tuple(Proj(offset + j, w) for j in range(1, arity + 1))


def _apply_at_next(f: PRTerm, m: int) -> PRTerm:
    """f(args[2..m-1], args[m] + 1), used inside recursion steps of width m."""
    return Comp(f, params(m - 2, offset=1, width=m) + (Comp(Succ(), (Proj(m, m),)),))


def _lift1(f: PRTerm) -> PRTerm:
    """Arity-1 f as an arity-2 function of its second argument.

    Recursion needs at least one parameter beside the index, so arity-1
    relations are lifted and the result diagonalized back down.
    """
    return Comp(f, (Proj(2, 2),))


_DIAG = (P11, P11)


def bounded_sum(f: PRTerm) -> PRTerm:
    """From f(xs, i) to sum of f(xs, i) for i <= y; same arity, bound last."""
    n = validate(f) - 1
    if n < 0:
        raise ValueError("bounded_sum needs arity >= 1")
    if n == 0:
        return Comp(bounded_sum(_lift1(f)), _DIAG)
    m = n + 2
    base = Comp(f, params(n, width=n) + (const(0, n),))
    step = Comp(ADD, (Proj(1, m), _apply_at_next(f, m)))
    return PrimRec(base, step)


def bounded_prod(f: PRTerm) -> PRTerm:
    """From f(xs, i) to product of f(xs, i) for i <= y."""
    n = validate(f) - 1
    if n < 0:
        raise ValueError("bounded_prod needs arity >= 1")
    if n == 0:
        return Comp(bounded_prod(_lift1(f)), _DIAG)
    m = n + 2
    base = Comp(f, params(n, width=n) + (const(0, n),))
    step = Comp(MUL, (Proj(1, m), _apply_at_next(f, m)))
    return PrimRec(base, step)


def bounded_min(f: PRTerm) -> PRTerm:
    """Least i <= y with f(xs, i) > 0, and y + 1 when there is none.

    Realized as sum over u <= y of prod over v <= u of sgbar(f(xs, v)):
    each summand is 1 exactly while no witness has appeared yet.
    """
    return bounded_sum(bounded_prod(comp1(SGBAR, f)))


# ------------------------------------------------------- relation algebra

def rel_not(f: PRTerm) -> PRTerm:
    return comp1(SGBAR, f)


def rel_and(f: PRTerm, g: PRTerm) -> PRTerm:
    return Comp(MUL, (f, g))


def rel_or(f: PRTerm, g: PRTerm) -> PRTerm:
    return Comp(SG, (Comp(ADD, (f, g)),))


def rel_implies(f: PRTerm, g: PRTerm) -> PRTerm:
    return rel_or(rel_not(f), g)


def rel_bforall(f: PRTerm) -> PRTerm:
    """From chi(xs, i) to chi(xs, y) = [for all i <= y, chi(xs, i)]."""
    return comp1(SG, bounded_prod(f))


def rel_bexists(f: PRTerm) -> PRTerm:
    """From chi(xs, i) to chi(xs, y) = [for some i <= y, chi(xs, i)]."""
    n = validate(f) - 1
    if n == 0:
        return Comp(rel_bexists(_lift1(f)), _DIAG)
    m = n + 2
    base = comp1(SG, Comp(f, params(n, width=n) + (const(0, n),)))
    step = Comp(SG, (Comp(ADD, (Proj(1, m), _apply_at_next(f, m))),))
    return PrimRec(base, step)


def rel_combine(op: str, *fs: PRTerm) -> PRTerm:
    table = {"not": rel_not, "and": rel_and, "or": rel_or,
             "implies": rel_implies, "bforall": rel_bforall,
             "bexists": rel_bexists}
    if op not in table:
        raise ValueError(f"unknown connective {op!r}")
    return table[op](*fs)


def graph_of(f: PRTerm) -> PRTerm:
    """chi(xs, y) = [f(xs) = y]."""
    n = validate(f)
    return Comp(CHI_EQ, (Comp(f, params(n, width=n + 1)), Proj(n + 1, n + 1)))


# ------------------------------------------------- arithmetic predicates

CHI_LT = Comp(CHI_LE, (Comp(Succ(), (Proj(1, 2),)), Proj(2, 2)))

# quot(a, b) = least q <= a with (q+1)*b > a; floor(a/b) for b >= 1,
# and a + 1 when b = 0.
_QUOT_TEST = Comp(CHI_LE, (Comp(Succ(), (Proj(1, 3),)),
                           Comp(MUL, (Comp(Succ(), (Proj(3, 3),)), Proj(2, 3)))))
QUOT = Comp(bounded_min(_QUOT_TEST), (Proj(1, 2), Proj(2, 2), Proj(1, 2)))

# divides(d, x) = [d * quot(x, d) = x]
DIVIDES = Comp(CHI_EQ, (Comp(MUL, (Proj(1, 2), Comp(QUOT, (Proj(2, 2), Proj(1, 2))))),
                        Proj(2, 2)))

# chi_prime(x) = [x >= 2 and every divisor of x is 1 or x]
_PRIME_INNER = rel_implies(
    Comp(DIVIDES, (Proj(2, 2), Proj(1, 2))),
    rel_or(Comp(CHI_EQ, (Proj(2, 2), const(1, 2))),
           Comp(CHI_EQ, (Proj(2, 2), Proj(1, 2)))))
CHI_PRIME = rel_and(
    Comp(CHI_LE, (const(2, 1), P11)),
    Comp(rel_bforall(_PRIME_INNER), (P11, P11)))

# trial division up to sqrt(x) stays under 2^11 divisions below this cap;
# above it the equations run, whose sweep over every i <= x is no better
_PRIME_TWIN_CAP = 1 << 24


def _chi_prime(a: tuple[int, ...]) -> int | None:
    x = a[0]
    if x >= _PRIME_TWIN_CAP:
        return None
    if x < 4:
        return 1 if x >= 2 else 0
    if x % 2 == 0:
        return 0
    return 0 if any(x % d == 0 for d in range(3, isqrt(x) + 1, 2)) else 1


intrinsic(CHI_PRIME, _chi_prime)

# nextprime(x) = least prime above x; it exists below 2(x + 1)
_NEXT_TEST = rel_and(comp1(CHI_PRIME, Proj(2, 2)),
                     Comp(CHI_LT, (Proj(1, 2), Proj(2, 2))))
NEXTPRIME = Comp(bounded_min(_NEXT_TEST),
                 (P11, Comp(MUL, (const(2, 1), Comp(Succ(), (P11,))))))

# prime(i) = the i-th prime, counting from prime(0) = 2
PRIME = Comp(PrimRec(const(2, 1), Comp(NEXTPRIME, (Proj(1, 3),))), (P11, P11))

# exponent(k, x) = largest e with prime(k)^e dividing x (x >= 1)
_EXP_TEST = rel_not(Comp(DIVIDES, (
    Comp(POW, (Comp(PRIME, (Proj(1, 3),)), Comp(Succ(), (Proj(3, 3),)))),
    Proj(2, 3))))
EXPONENT = Comp(bounded_min(_EXP_TEST), (Proj(1, 2), Proj(2, 2), Proj(2, 2)))

# ------------------------------------------------------- sequence coding

# len(x) = first i with prime(i) not dividing x
_LEN_TEST = rel_not(Comp(DIVIDES, (Comp(PRIME, (Proj(2, 2),)), Proj(1, 2))))
LEN = Comp(bounded_min(_LEN_TEST), (P11, P11))

# idx(i, x) = entry i of sequence x, exponent minus one
IDX = comp1(PRED, EXPONENT)

# last(x) = idx(len(x) - 1, x)
LAST = Comp(IDX, (comp1(PRED, LEN), P11))

# seq_test(x) = [x is a product of an initial segment of prime powers].
# Rebuild prod over i < len(x) of prime(i)^exponent(i, x) and compare with
# x; sweeping prime indices up to x itself would be hopelessly slow.
_FACTOR = Comp(POW, (Comp(PRIME, (Proj(2, 2),)),
                     Comp(EXPONENT, (Proj(2, 2), Proj(1, 2)))))
_REBUILD = Comp(bounded_prod(_FACTOR), (P11, comp1(PRED, LEN)))
SEQ_TEST = rel_or(
    rel_and(comp1(SGBAR, LEN), Comp(CHI_EQ, (P11, const(1, 1)))),
    rel_and(comp1(SG, LEN), Comp(CHI_EQ, (P11, _REBUILD))))

# replace(z, k, r): sequence z with entry k set to r
_PK = Comp(PRIME, (Proj(2, 3),))
REPLACE = Comp(MUL, (
    Comp(QUOT, (Proj(1, 3), Comp(POW, (_PK, Comp(EXPONENT, (Proj(2, 3), Proj(1, 3))))))),
    Comp(POW, (_PK, Comp(Succ(), (Proj(3, 3),))))))

# pair3(i, z, w) = 2^i * 3^z * 5^w
PAIR3 = Comp(MUL, (
    Comp(MUL, (Comp(POW, (const(2, 3), Proj(1, 3))),
               Comp(POW, (const(3, 3), Proj(2, 3))))),
    Comp(POW, (const(5, 3), Proj(3, 3)))))


STDLIB: dict[str, PRTerm] = {
    "add": ADD,
    "mul": MUL,
    "sg": SG,
    "sgbar": SGBAR,
    "pred": PRED,
    "monus": MONUS,
    "chi_eq": CHI_EQ,
    "chi_le": CHI_LE,
    "pow": POW,
    "prime": PRIME,
    "len": LEN,
    "idx": IDX,
    "last": LAST,
    "seq_test": SEQ_TEST,
    "replace": REPLACE,
    "pair3": PAIR3,
}
