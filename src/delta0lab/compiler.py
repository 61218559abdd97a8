"""Compile bounded formulas into PR characteristic functions.

A formula with free variables among var_order becomes a 0/1-valued PR term
whose arguments are the values of those variables, in order.  Bounded
quantifiers become the recursion-based bounded operators; their bound
terms are compiled in the enclosing scope.  Both are lowered through
prlib's named-argument builder: each object-language variable names a
builder argument, so the builder alone turns names into projections.
One step of nodes.walk reads the syntax, and prlib lowers what it builds
on a walk of its own, so compiling nests a bounded number of frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .formulas import (
    Add, And, BExists, BForall, ConstOne, ConstZero, Eq, Formula, Implies,
    Le, Mul, Not, Or, Term, UExists, UForall, Var, free_vars,
)
from .nodes import walk
from .primrec import ADD, CHI_EQ, CHI_LE, MUL, Evaluator, PRTerm
from .prlib import Arg, Expr, and_, ex, fa, fn, implies, not_, or_
from .semantics import NotDelta0Error, UnboundVariableError


class CompileError(ValueError):
    pass


@dataclass(frozen=True)
class CompiledRelation:
    """PR term computing a formula's truth value over var_order.

    Formulas without free variables still get one (ignored) argument,
    since every PR function has arity at least one.
    """
    term: PRTerm
    var_order: tuple[int, ...]
    _evaluator: Evaluator = field(default_factory=Evaluator, compare=False)

    @property
    def arity(self) -> int:
        return max(len(self.var_order), 1)

    def __call__(self, rho: dict[int, int] | None = None) -> bool:
        rho = rho or {}
        try:
            args = tuple(rho[v] for v in self.var_order) or (0,)
        except KeyError as exc:
            raise UnboundVariableError(f"v{exc.args[0]} has no value") from None
        return self._evaluator.eval(self.term, args) == 1


# each binary node's builder (applied, not + and *, which fold constants)
# and whether its operands are formulas
_BINARY = {Add: (ADD, False), Mul: (MUL, False), Eq: (CHI_EQ, False),
           Le: (CHI_LE, False), Implies: (implies, True), And: (and_, True),
           Or: (or_, True)}


def _expr(u: Term | Formula, env: dict[int, Arg], formula: bool):
    """u's builder expression, u a formula or a term as formula says: a step
    of nodes.walk.  A quantifier's body is a callback that walks on its own."""
    if not isinstance(u, Formula if formula else Term):
        raise CompileError(f"not a {'formula' if formula else 'term'}: {u!r}")
    match u:
        case ConstZero():
            return 0
        case ConstOne():
            return 1
        case Var(i):
            if i not in env:
                raise CompileError(f"variable v{i} is not in scope {sorted(env)}")
            return env[i]
        case Not(b):
            return not_((yield b, env, True))
        case BForall(v, t, b) | BExists(v, t, b):
            quant = fa if isinstance(u, BForall) else ex
            return quant((yield t, env, False),
                         lambda a: walk(_expr, b, {**env, v: a}, True))
        case UForall() | UExists():
            raise NotDelta0Error("only bounded quantifiers can be compiled")
    op, kind = _BINARY[type(u)]
    return op((yield u.left, env, kind), (yield u.right, env, kind))


def _lowered(u: Term | Formula, scope: tuple[int | None, ...], formula: bool) -> PRTerm:
    """u over one builder argument per scope slot; None names no variable."""
    def body(*args: Arg) -> Expr | int:
        return walk(_expr, u, {v: a for v, a in zip(scope, args) if v is not None}, formula)
    return fn(body, len(scope))


def compile_term(t: Term, scope: tuple[int | None, ...]) -> PRTerm:
    """Value of a term as a PR function of the scope variables.

    Shadowed variables resolve to their innermost (rightmost) slot.
    """
    return _lowered(t, scope, False)


def compile_formula(phi: Formula,
                    var_order: tuple[int, ...] | None = None) -> CompiledRelation:
    """Characteristic PR function of a bounded formula.

    var_order defaults to the free variables in increasing index order.
    """
    free = free_vars(phi)
    if var_order is None:
        var_order = tuple(sorted(free))
    missing = free - set(var_order)
    if missing:
        raise CompileError(f"free variables {sorted(missing)} not in var_order")
    # formulas with no arguments still need arity 1: one inert slot that
    # no variable resolves to
    scope = tuple(var_order) if var_order else (None,)
    return CompiledRelation(_lowered(phi, scope, True), tuple(var_order))
