"""Standard library of primitive-recursive constructions.

Everything here is a closed PR term built from the five combinators; the
module also provides the generic builders (constants, bounded sums and
products, bounded minimization, bounded quantifiers) and the
named-argument builder that the formula compiler and satpr use.
Relations are 0/1-valued; bounded operators treat the last argument as
the inclusive bound.

The named-argument builder fn(lambda s, i: ...) turns a Python function of
n named arguments into the closed arity-n term.  In the body an argument
lowers to Proj(its position, n) and an int c to const(c, n); calling a
closed term f builds Comp(f, the lowered arguments), except that f applied
to exactly the scope's own arguments, in order, is f itself.  ex, fa and
least take a bound and a body of one new argument, appended to the scope,
and lower to Comp(op(body), params(n) + (bound,)) with op rel_bexists,
rel_bforall or bounded_min.  and_, or_, not_, implies and select build the
MUL and SG-of-ADD shapes the evaluator's absorbing shortcuts recognise;
+, * and - are ADD, MUL and MONUS.  Names become positions only when a
body is lowered (de Bruijn's nameless translation), so an expression built
in an outer body lowers afresh in each inner scope that uses it; within one
scope each expression object is lowered once, however often it is used.
An argument used outside the fn that bound it raises ScopeError; a term
applied to the wrong number of arguments raises ArityError at the call.

Sequence coding: a finite sequence (a_0, ..., a_k) is stored as
prod_i p_i^(a_i + 1), the empty sequence as 1.  Entries are recovered as
prime exponents minus one; the length is the first prime index that does
not divide the code.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache, reduce
from math import isqrt

from .nodes import walk
from .numbers import nthprime
from .primrec import (
    ADD, CHI_EQ, CHI_LE, HALF, MONUS, MUL, P11, PARITY, POW, PRED, SG, SGBAR,
    App, Arg, ArityError, Comp, Expr, PRError, PRTerm, PrimRec, Proj, Succ,
    Zero, intrinsic, validate,
)

__all__ = [
    "ADD", "MUL", "SG", "SGBAR", "PRED", "MONUS", "CHI_EQ", "CHI_LE", "POW",
    "PARITY", "HALF", "PRIME", "LEN", "IDX", "LAST", "SEQ_TEST", "REPLACE",
    "PAIR3", "QUOT", "DIVIDES", "EXPONENT", "NEXTPRIME", "CHI_PRIME",
    "CHI_LT", "STDLIB", "S", "const", "comp1", "params",
    "bounded_sum", "bounded_prod", "bounded_min", "rel_bforall",
    "rel_bexists", "rel_combine", "graph_of", "ScopeError", "Expr", "Arg",
    "App", "fn", "ex", "fa", "least", "and_", "or_", "not_", "implies",
    "select",
]


@cache
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


@cache
def params(arity: int, *, offset: int = 0, width: int | None = None) -> tuple[PRTerm, ...]:
    """Projections picking arity consecutive arguments out of width."""
    w = arity if width is None else width
    return tuple(Proj(offset + j, w) for j in range(1, arity + 1))


def _apply_at_next(f: PRTerm, m: int) -> PRTerm:
    """f(args[2..m-1], args[m] + 1), used inside recursion steps of width m."""
    return Comp(f, params(m - 2, offset=1, width=m) + (Comp(Succ(), (Proj(m, m),)),))


def _column(f: PRTerm, op: PRTerm, sg: bool) -> PRTerm:
    """From f(xs, i) to op(...op(f(xs, 0), f(xs, 1))..., f(xs, y)), the
    bound y last, with each partial result passed through SG when sg.

    Recursion needs at least one parameter beside the index, so an arity-1
    f is lifted to the arity-2 f(x2) and the column of that diagonalized
    back down.
    """
    n = validate(f) - 1
    lift = n == 0
    if lift:
        f, n = Comp(f, (Proj(2, 2),)), 1
    m = n + 2
    base = Comp(f, params(n, width=n) + (const(0, n),))
    step = Comp(op, (Proj(1, m), _apply_at_next(f, m)))
    if sg:
        base, step = comp1(SG, base), comp1(SG, step)
    column = PrimRec(base, step)
    return Comp(column, (P11, P11)) if lift else column


def bounded_sum(f: PRTerm) -> PRTerm:
    """From f(xs, i) to sum of f(xs, i) for i <= y; same arity, bound last."""
    return _column(f, ADD, False)


def bounded_prod(f: PRTerm) -> PRTerm:
    """From f(xs, i) to product of f(xs, i) for i <= y."""
    return _column(f, MUL, False)


def bounded_min(f: PRTerm) -> PRTerm:
    """Least i <= y with f(xs, i) > 0, and y + 1 when there is none.

    Realized as sum over u <= y of prod over v <= u of sgbar(f(xs, v)):
    each summand is 1 exactly while no witness has appeared yet.
    """
    return bounded_sum(bounded_prod(comp1(SGBAR, f)))


# ---------------------------------------------------- bounded quantifiers

def rel_bforall(f: PRTerm) -> PRTerm:
    """From chi(xs, i) to chi(xs, y) = [for all i <= y, chi(xs, i)]."""
    return comp1(SG, bounded_prod(f))


def rel_bexists(f: PRTerm) -> PRTerm:
    """From chi(xs, i) to chi(xs, y) = [for some i <= y, chi(xs, i)]."""
    return _column(f, ADD, True)


def graph_of(f: PRTerm) -> PRTerm:
    """chi(xs, y) = [f(xs) = y]."""
    n = validate(f)
    return Comp(CHI_EQ, (Comp(f, params(n, width=n + 1)), Proj(n + 1, n + 1)))


# ------------------------------------------------- named-argument builder

class ScopeError(PRError):
    """A builder argument was used outside the fn that bound it."""


class _Bounded(Expr):
    __slots__ = ("op", "bound", "body")

    def __init__(self, op: Callable[[PRTerm], PRTerm], bound: Expr | int,
                 body: Callable[[Arg], Expr | int]):
        self.op, self.bound, self.body = op, bound, body


def ex(bound: Expr | int, body: Callable[[Arg], Expr | int]) -> Expr:
    """[some v <= bound has body(v)]."""
    return _Bounded(rel_bexists, bound, body)


def fa(bound: Expr | int, body: Callable[[Arg], Expr | int]) -> Expr:
    """[every v <= bound has body(v)]."""
    return _Bounded(rel_bforall, bound, body)


def least(bound: Expr | int, body: Callable[[Arg], Expr | int]) -> Expr:
    """Least v <= bound with body(v) > 0, and bound + 1 when there is none."""
    return _Bounded(bounded_min, bound, body)


def and_(*fs: Expr | int) -> Expr | int:
    """Conjunction of 0/1 values, nested to the right."""
    return reduce(lambda rest, f: App(MUL, (f, rest)), reversed(fs))


def or_(*fs: Expr | int) -> Expr | int:
    """Disjunction of 0/1 values, nested to the right."""
    return reduce(lambda rest, f: App(SG, (App(ADD, (f, rest)),)), reversed(fs))


def not_(f: Expr | int) -> App:
    return App(SGBAR, (f,))


def implies(f: Expr | int, g: Expr | int) -> Expr:
    return or_(not_(f), g)


def select(cond: Expr | int, a: Expr | int, b: Expr | int) -> App:
    """cond ? a : b for 0/1 cond; the evaluator computes only the arm picked."""
    return App(ADD, (and_(cond, a), and_(not_(cond), b)))


def fn(body: Callable[..., Expr | int], arity: int | None = None) -> PRTerm:
    """The closed term of body's named arguments, in order.

    arity defaults to the number of body's positional parameters; a body
    taking *args needs it given.  The body is lowered on nodes.walk.
    """
    n = body.__code__.co_argcount if arity is None else arity
    if n < 1:
        raise ArityError("a PR function takes at least one argument")
    args = tuple(Arg() for _ in range(n))
    ids = params(n)
    return walk(_lower, body(*args), args, ids, dict(zip(args, ids)))


def _lower(e: Expr | int, scope: tuple[Arg, ...], ids: tuple[PRTerm, ...], memo: dict):
    """e as a term whose arguments are the scope's, outermost first; ids
    are the projections onto them.  memo maps each argument of the scope to
    its projection and holds the scope's lowerings so far, keyed on the
    expression object, so an expression used twice in one scope is lowered
    once.  A step of nodes.walk that takes memo hits in place."""
    term = memo.get(e)
    if term is not None:
        return term
    match e:
        case App(f=f, args=args):
            gs = []
            for a in args:
                gs.append(memo.get(a) or (yield a, scope, ids, memo))
            term = f if tuple(gs) == ids else Comp(f, tuple(gs))
        case Arg():
            raise ScopeError("argument used outside the fn that bound it")
        case int():
            if e < 0:
                raise PRError(f"constants are naturals, got {e}")
            term = const(e, len(scope))
        case _Bounded(op=op, bound=bound, body=body):
            v = Arg()
            inner_scope, inner_ids = scope + (v,), params(len(scope) + 1)
            inner = yield body(v), inner_scope, inner_ids, dict(zip(inner_scope, inner_ids))
            term = Comp(op(inner), ids + ((yield bound, scope, ids, memo),))
        case _:
            raise PRError(f"not a builder expression: {e!r}")
    memo[e] = term
    return term


def rel_combine(op: str, *fs: PRTerm) -> PRTerm:
    """The connective op over relations of one arity, or the bounded
    quantifier op over a relation whose last argument is the bound."""
    if op in ("bforall", "bexists"):
        return (rel_bforall if op == "bforall" else rel_bexists)(*fs)
    connective = {"not": not_, "and": and_, "or": or_, "implies": implies}.get(op)
    if connective is None:
        raise ValueError(f"unknown connective {op!r}")
    return fn(lambda *xs: connective(*(f(*xs) for f in fs)), validate(fs[0]))


# ------------------------------------------------- arithmetic predicates

# the successor, applied as S(x) in builder bodies
S = Succ()

CHI_LT = fn(lambda a, b: CHI_LE(S(a), b))

# quot(a, b) = least q <= a with (q+1)*b > a; floor(a/b) for b >= 1,
# and a + 1 when b = 0.
QUOT = fn(lambda a, b: least(a, lambda q: CHI_LE(S(a), S(q) * b)))

# divides(d, x) = [d * quot(x, d) = x]
DIVIDES = fn(lambda d, x: CHI_EQ(d * QUOT(x, d), x))

# chi_prime(x) = [x >= 2 and every divisor of x is 1 or x]
CHI_PRIME = fn(lambda x: and_(CHI_LE(2, x), fa(x, lambda d: implies(
    DIVIDES(d, x), or_(CHI_EQ(d, 1), CHI_EQ(d, x))))))

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

# nextprime(x) = least prime above x; one lies in x + 1 .. 2(x + 1)
# (Bertrand).  Nothing at or below x can be the answer, so the search runs
# over the candidates x + 1 + d, d <= x + 1, and stops at the first prime:
# a step of the prime column below costs the gap after its prime, not the
# prime itself (b1(42, 1) of satpr takes 5,606 steps; sweeping from 0 it
# took 94,380).  When no candidate is prime the value is (x + 1) + (x + 2)
# = 2x + 3, which is also what a search over p <= 2(x + 1) from 0 gives,
# so the function is the same on every natural.  The search stays ticked.
NEXTPRIME = fn(lambda x: S(x) + least(S(x), lambda d: CHI_PRIME(S(x) + d)))

# prime(i) = the i-th prime, counting from prime(0) = 2
_PRIMES = PrimRec(const(2, 1), fn(lambda p, x, i: NEXTPRIME(p)))
PRIME = fn(lambda i: _PRIMES(i, i))

# exponent(k, x) = largest e with prime(k)^e dividing x (x >= 1), and 1
# for x = 0, where no e <= 0 is a witness
EXPONENT = fn(lambda k, x: least(x, lambda e: not_(DIVIDES(POW(PRIME(k), S(e)), x))))


def _exponent(a: tuple[int, ...]) -> int | None:
    k, x = a
    if x == 0:
        return 1
    if k + 2 > x:
        return 0   # prime(k) >= k + 2 divides no smaller x >= 1
    if k >> 16:
        return None   # the equations take a step per prime below prime(k)
    # divide by p, p^2, p^4, ... while they divide, then back down: the
    # exponent bit by bit, in O(log e) divisions
    powers, e = [nthprime(k)], 0
    while x % powers[-1] == 0:
        x //= powers[-1]
        e += 1 << (len(powers) - 1)
        powers.append(powers[-1] ** 2)
    for j in range(len(powers) - 2, -1, -1):
        if x % powers[j] == 0:
            x //= powers[j]
            e += 1 << j
    return e


intrinsic(EXPONENT, _exponent)

# ------------------------------------------------------- sequence coding

# len(x) = first i with prime(i) not dividing x
LEN = fn(lambda x: least(x, lambda i: not_(DIVIDES(PRIME(i), x))))

# idx(i, x) = entry i of sequence x, exponent minus one
IDX = fn(lambda i, x: PRED(EXPONENT(i, x)))

# last(x) = idx(len(x) - 1, x)
LAST = fn(lambda x: IDX(PRED(LEN(x)), x))

# seq_test(x) = [x is a product of an initial segment of prime powers].
# Rebuild prod over i < len(x) of prime(i)^exponent(i, x) and compare with
# x; sweeping prime indices up to x itself would be hopelessly slow.
_REBUILD = bounded_prod(fn(lambda x, i: POW(PRIME(i), EXPONENT(i, x))))
SEQ_TEST = fn(lambda x: or_(
    and_(SGBAR(LEN(x)), CHI_EQ(x, 1)),
    and_(SG(LEN(x)), CHI_EQ(x, _REBUILD(x, PRED(LEN(x)))))))

# replace(z, k, r): sequence z with entry k set to r
REPLACE = fn(lambda z, k, r:
             QUOT(z, POW(PRIME(k), EXPONENT(k, z))) * POW(PRIME(k), S(r)))

# pair3(i, z, w) = 2^i * 3^z * 5^w
PAIR3 = fn(lambda i, z, w: POW(2, i) * POW(3, z) * POW(5, w))


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
