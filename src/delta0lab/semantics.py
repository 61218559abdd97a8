"""Evaluation of terms and formulas over the standard naturals.

One walker gives every verdict, by Kleene's strong three-valued tables
(Introduction to Metamathematics, 1952, section 64); exact mode is
budget=None.  eval_delta0 decides bounded formulas exactly and raises
NotDelta0Error on reaching an unbounded quantifier.  eval_fo searches an
unbounded quantifier over 0..budget: a witness (E) or counterexample (A)
decides it, an exhausted search leaves it UNKNOWN, since universal truth
over the naturals is never certified by a finite search.

A bounded quantifier is decided by evaluating its body at points of its
range in ascending order, up to the first witness (E) or counterexample
(A), and always at 0 first.  Which points:
- The sweep takes every point, 0 up to the bound.
- Root isolation serves a quantifier-free body.  With the outer values
  fixed, each atom l = r or l <= r is decided by the sign of the integer
  polynomial l - r in the bound variable, and over the integers a
  polynomial of degree d changes sign (<0, =0, >0) at most 2d times: into
  and out of 0 at each of its at most d real roots.  Those change points
  are found exactly (change_points),
  and the body is evaluated at 0 and at each, since its truth cannot
  change between them (Collins & Loos, "Real zeros of polynomials",
  Computer Algebra, Springer 1982).
Isolation is taken only when a worst-case count of the points it
evaluates, computed from the atoms' degrees and the bit length of the
bound before any point is evaluated, is below the top + 1 points of the
sweep; under a budget it must also be at most budget + 1.  Every other
quantifier is swept.  Both give the exact value.

The walker and eval_term keep their pending work on explicit stacks
(nodes.walk), so the depth of a formula or term is bounded by memory,
not by the interpreter's recursion limit.
"""

from __future__ import annotations

import enum
from itertools import chain
from typing import Mapping

from .formulas import (
    Add, And, BExists, BForall, ConstOne, ConstZero, Eq, Formula,
    Implies, Le, Mul, Not, Or, Term, UExists, UForall, Var, is_delta0,
)
from .nodes import walk
from .numbers import BITS_CAP, FeasibilityError


class EvalError(ValueError):
    pass


class UnboundVariableError(EvalError):
    pass


class NotDelta0Error(EvalError):
    pass


class Verdict(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    @property
    def decided(self) -> bool:
        return self is not Verdict.UNKNOWN

    @staticmethod
    def of(b: bool) -> "Verdict":
        return Verdict.TRUE if b else Verdict.FALSE


def v_not(a: Verdict) -> Verdict:
    if a is Verdict.UNKNOWN:
        return a
    return Verdict.of(a is Verdict.FALSE)


def v_and(a: Verdict, b: Verdict) -> Verdict:
    if a is Verdict.FALSE or b is Verdict.FALSE:
        return Verdict.FALSE
    if a is Verdict.TRUE and b is Verdict.TRUE:
        return Verdict.TRUE
    return Verdict.UNKNOWN


def v_or(a: Verdict, b: Verdict) -> Verdict:
    if a is Verdict.TRUE or b is Verdict.TRUE:
        return Verdict.TRUE
    if a is Verdict.FALSE and b is Verdict.FALSE:
        return Verdict.FALSE
    return Verdict.UNKNOWN


def v_implies(a: Verdict, b: Verdict) -> Verdict:
    return v_or(v_not(a), b)


Valuation = Mapping[int, int]


def eval_term(t: Term, rho: Valuation) -> int:
    """The value of t under rho, left operand first, on an explicit stack.
    Each distinct sum or product is valued once per call, so a shared DAG
    costs its distinct nodes; a product whose size, bounded below by its
    factors', passes BITS_CAP bits raises FeasibilityError unbuilt.  A
    variable's value must be a natural, else EvalError."""
    out: list[int] = []
    seen: dict[Term, int] | None = None   # made at the first sum or product
    todo: list = [t]
    while todo:
        t = todo.pop()
        if t is None:   # the operands of the node below are valued
            t, b = todo.pop(), out.pop()
            a = out[-1]
            if type(t) is Mul and a.bit_length() + b.bit_length() - 1 > BITS_CAP:
                raise FeasibilityError(f"the value would have more than BITS_CAP = {BITS_CAP} bits")
            out[-1] = seen[t] = a + b if type(t) is Add else a * b
            continue
        cls = type(t)
        if cls is Add or cls is Mul:
            seen = {} if seen is None else seen
            if t in seen:
                out.append(seen[t])
            else:
                todo += (t, None, t.right, t.left)
        elif cls is Var:
            try:
                value = rho[t.index]
            except KeyError:
                raise UnboundVariableError(f"v{t.index} has no value") from None
            if type(value) is not int or value < 0:
                raise EvalError(f"v{t.index} has the value {value!r}, not a natural")
            out.append(value)
        elif cls is ConstZero or cls is ConstOne:
            out.append(0 if cls is ConstZero else 1)
        else:
            raise EvalError(f"not a term: {t!r}")
    return out[0]


# ---------------------------------------------------------------------------
# bounded quantifiers over quantifier-free bodies, decided by root isolation
#
# A polynomial is its list of integer coefficients, lowest degree first,
# with no trailing zeros (the zero polynomial is []).

def _poly(t: Term, v: int, rho: Valuation, cap: int | None) -> list[int] | None:
    """t as a polynomial in v, the other variables at their values in rho;
    None when a product in it has a degree d with d^2 above cap."""
    out: list[list[int]] = []
    todo: list = [t]
    while todo:
        t = todo.pop()
        if t is Add or t is Mul:
            q = out.pop()
            p = out.pop()
            if t is Mul and cap is not None and (len(p) + len(q) - 2) ** 2 > cap:
                return None
            out.append(_padd(p, q) if t is Add else _pmul(p, q))
            continue
        match t:
            case ConstZero():
                out.append([])
            case ConstOne():
                out.append([1])
            case Var(i) if i == v:
                out.append([0, 1])
            case Var():
                out.append(_trim([eval_term(t, rho)]))
            case Add(l, r) | Mul(l, r):
                todo += (type(t), r, l)
            case _:
                raise EvalError(f"not a term: {t!r}")
    return out[0]


def _trim(p: list[int]) -> list[int]:
    while p and not p[-1]:
        p.pop()
    return p


def _padd(p: list[int], q: list[int], sign: int = 1) -> list[int]:
    n = max(len(p), len(q))
    return _trim([(p[k] if k < len(p) else 0) + sign * (q[k] if k < len(q) else 0)
                  for k in range(n)])


def _pmul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _difference(p: list[int]) -> list[int]:
    """The forward difference p(x + 1) - p(x), one degree lower."""
    q = list(p)
    # Taylor shift: q becomes p(x + 1)
    for i in range(len(q) - 1):
        for j in range(len(q) - 2, i - 1, -1):
            q[j] += q[j + 1]
    return _padd(q, p, -1)


def _sign(p: list[int], x: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


def change_points(p: list[int], top: int) -> list[int]:
    """The x in 0 < x <= top where the sign of p(x) (<0, =0 or >0) differs
    from the sign of p(x - 1), ascending; p is a coefficient list, lowest
    degree first.

    The sign changes of the forward difference split 0..top into pieces on
    which p is monotone over the integers; a monotone p changes sign at most
    twice in a piece, and each change is found by bisection.  A polynomial
    of degree d has at most 2d change points, and at most d^2 (2 L + 2)
    evaluations find them, L the bit length of top.
    """
    chain = [p]
    while len(chain[-1]) > 1 and len(chain) <= top:
        chain.append(_difference(chain[-1]))
    # the last member of the chain is constant, or ranges over 0 alone:
    # it has no change points
    changes: list[int] = []
    for k in range(len(chain) - 2, -1, -1):
        q, end = chain[k], top - k
        starts = [0] + changes
        changes = []
        for lo, hi in zip(starts, starts[1:] + [end]):
            # q is monotone on lo..hi, so its sign is too
            cur, last = _sign(q, lo), _sign(q, hi)
            while cur != last:
                # the least x in lo < x <= hi whose sign differs from cur
                a, b, sb = lo, hi, last
                while b - a > 1:
                    mid = (a + b) // 2
                    s = _sign(q, mid)
                    if s == cur:
                        a = mid
                    else:
                        b, sb = mid, s
                changes.append(b)
                lo, cur = b, sb
    return changes


def _atom_polys(body: Formula, v: int, rho: Valuation,
                cap: int | None) -> list[list[int]] | None:
    """l - r of every atom of body as a polynomial in v, or None when body
    has a quantifier, a variable without a value or a product of a degree
    d with d^2 above cap."""
    polys = []
    todo = [body]
    try:
        while todo:
            match todo.pop():
                case Eq(l, r) | Le(l, r):
                    lp, rp = _poly(l, v, rho, cap), _poly(r, v, rho, cap)
                    if lp is None or rp is None:
                        return None
                    polys.append(_padd(lp, rp, -1))
                case Not(b):
                    todo.append(b)
                case Implies(l, r) | And(l, r) | Or(l, r):
                    todo += (r, l)
                case _:
                    return None
    except UnboundVariableError:
        return None
    return polys


def _isolation_cost(degrees: list[int], top: int) -> int:
    """Worst-case count of the points isolation evaluates, the body's
    evaluations included: d^2 (2 L + 2) per atom of degree d to find its
    at most 2d change points, and one body evaluation at 0 and at each."""
    per = 2 * top.bit_length() + 2
    return 1 + sum(d * d * per + 2 * d for d in degrees)


def _segment_starts(v: int, top: int, body: Formula, rho: Valuation,
                    limit: int | None) -> list[int] | None:
    """The points 0 < x <= top at which the truth of the quantifier-free
    body can change as v runs over 0..top, ascending; None when body is not
    quantifier-free or has a variable without a value, or when isolation
    could evaluate more than limit points (None: no limit)."""
    cap = None
    if limit is not None:
        # no body that depends on v is isolated in fewer points than one
        # linear atom, and this check needs no walk of the body
        if limit < _isolation_cost([1], top):
            return None
        # nor is an atom of a degree d with d^2 (2 L + 2) > limit
        cap = limit // (2 * top.bit_length() + 2)
    polys = _atom_polys(body, v, rho, cap)
    if polys is None or (limit is not None and
                         _isolation_cost([len(p) - 1 for p in polys if p], top) > limit):
        return None
    return sorted({x for p in polys for x in change_points(p, top)})


def _points(v: int, top: int, body: Formula, rho: Valuation, budget: int | None):
    """The values of v at which a quantifier over v <= top evaluates body,
    ascending, to be read until the first that settles the quantifier.

    0 comes first, so a witness or counterexample at 0 costs no isolation.
    Then the segment starts when the body is quantifier-free and isolation
    is cheaper than the sweep and within the budget; else 1 up to top, or
    up to the budget followed by None to say the range was cut.
    """
    yield 0
    limit = top if budget is None else min(top, budget + 1)
    starts = _segment_starts(v, top, body, rho, limit)
    if starts is not None:
        yield from starts
        return
    last = top if budget is None else min(top, budget)
    yield from range(1, last + 1)
    if last < top:
        yield None


def decide_bounded(phi: BForall | BExists, rho: Valuation) -> bool:
    """Exact truth value of a bounded quantifier over a quantifier-free
    body, by root isolation whatever the range; eval_delta0 takes this path
    only where it evaluates fewer points than the sweep."""
    starts = _segment_starts(phi.var, eval_term(phi.bound, rho), phi.body, rho, None)
    if starts is None:
        raise EvalError("the body must be quantifier-free, with every variable valued")
    settles = any if isinstance(phi, BExists) else all
    return settles(eval_delta0(phi.body, {**rho, phi.var: a}) for a in [0] + starts)


def _eval(phi: Formula, rho: Valuation, budget: int | None):
    """The verdict on phi under rho, exact when budget is None: a step of
    nodes.walk, which yields (subformula, valuation, budget) for the
    verdict on a subformula.

    A connective reads its right operand only when its left one leaves the
    result open.  By the strong Kleene tables this changes no verdict, but
    an error that the unread operand would raise is not raised.

    A quantifier reads its body's verdicts at its points up to the first
    witness (E) or counterexample (A); a point None says the range was cut
    there."""
    match phi:
        case Eq(l, r):
            return Verdict.of(eval_term(l, rho) == eval_term(r, rho))
        case Le(l, r):
            return Verdict.of(eval_term(l, rho) <= eval_term(r, rho))
        case Not(b):
            return v_not((yield (b, rho, budget)))
        case Implies(l, r):
            a = yield (l, rho, budget)
            return Verdict.TRUE if a is Verdict.FALSE else v_implies(a, (yield (r, rho, budget)))
        case And(l, r):
            a = yield (l, rho, budget)
            return a if a is Verdict.FALSE else v_and(a, (yield (r, rho, budget)))
        case Or(l, r):
            a = yield (l, rho, budget)
            return a if a is Verdict.TRUE else v_or(a, (yield (r, rho, budget)))
        case BForall(v, t, b) | BExists(v, t, b):
            points = _points(v, eval_term(t, rho), b, rho, budget)
        case UForall(v, b) | UExists(v, b):
            if budget is None:
                raise NotDelta0Error("formula contains an unbounded quantifier")
            points = chain(range(budget + 1), [None])
        case _:
            raise EvalError(f"not a formula: {phi!r}")
    want = Verdict.of(isinstance(phi, (BExists, UExists)))
    out = v_not(want)
    inner = dict(rho)
    for a in points:
        if a is None:
            return Verdict.UNKNOWN
        inner[v] = a
        sub = yield (b, inner, budget)
        if sub is want:
            return want
        if sub is Verdict.UNKNOWN:
            out = sub
    return out


def _verdict(phi: Formula, rho: Valuation, budget: int | None) -> Verdict:
    """_eval from the top, once budget and each value of rho are checked
    as naturals: a bool is not one, though True == 1."""
    if budget is not None and (type(budget) is not int or budget < 0):
        raise EvalError("budget must be a natural number")
    if any(type(v) is not int or v < 0 for v in rho.values()):
        raise EvalError("the values of a valuation must be naturals")
    return walk(_eval, phi, rho, budget)


def eval_delta0(phi: Formula, rho: Valuation) -> bool:
    """Exact truth value of a bounded formula.  Quantifier ranges are
    0..bound inclusive; the bound term is evaluated in the current valuation."""
    return _verdict(phi, rho, None) is Verdict.TRUE


def eval_fo(phi: Formula, rho: Valuation, budget: int) -> Verdict:
    """Three-valued budgeted evaluation.

    The budget caps the points one quantifier examines.  Unbounded
    quantifiers search values 0..budget.  A bounded quantifier is decided
    exactly when its range fits in the budget, or when its body is
    quantifier-free and root isolation needs at most budget + 1 points
    (see the module docstring); other ranges are searched up to the budget
    and yield UNKNOWN if inconclusive.  Every decided verdict is the exact
    one, so verdicts are monotone in the budget: a decided answer never
    flips.
    """
    return _verdict(phi, rho, budget)


def eval_delta0_verdict(phi: Formula, rho: Valuation, budget: int | None = None) -> Verdict:
    """eval_delta0 with an optional range budget.

    With budget=None this is exact.  Otherwise it is eval_fo: the budget
    caps the points one quantifier examines, so a range larger than the
    budget is decided only when root isolation settles it within the cap,
    and is otherwise partially searched, so the verdict can be UNKNOWN;
    this keeps evaluation safe on formulas whose bound terms evaluate to
    astronomically large values.
    """
    if not is_delta0(phi):
        raise NotDelta0Error("formula contains an unbounded quantifier")
    return _verdict(phi, rho, budget)


def parse_valuation(text: str) -> dict[int, int]:
    """Parse "v0=4,v1=7" into {0: 4, 1: 7}.  Empty string means empty.
    Indices and values are decimal digits only: no sign, no underscore."""
    rho: dict[int, int] = {}
    text = text.strip()
    if not text:
        return rho
    for part in text.split(","):
        part = part.strip()
        if "=" not in part:
            raise EvalError(f"bad valuation entry {part!r}")
        name, _, value = part.partition("=")
        name, value = name.strip(), value.strip()
        if not name.startswith("v") or not name[1:].isdecimal():
            raise EvalError(f"bad variable name {name!r}")
        index = int(name[1:])
        if index in rho:
            raise EvalError(f"duplicate assignment for {name}")
        if not value.isdecimal():
            raise EvalError(f"bad value {value!r} for {name}: a natural in decimal digits")
        rho[index] = int(value)
    return rho
