"""Compile bounded formulas into PR characteristic functions.

A formula with free variables among var_order becomes a 0/1-valued PR term
whose arguments are the values of those variables, in order.  Bounded
quantifiers become the recursion-based bounded operators; their bound
terms are compiled in the enclosing scope.  Both are lowered through
prlib's named-argument builder: each object-language variable names a
builder argument, so the builder alone turns names into projections.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .formulas import (
    Add, And, BExists, BForall, ConstOne, ConstZero, Eq, Formula, Implies,
    Le, Mul, Not, Or, Term, UExists, UForall, Var, free_vars,
)
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


def _term(u: Term, env: dict[int, Arg]) -> Expr | int:
    match u:
        case ConstZero():
            return 0
        case ConstOne():
            return 1
        case Var(i):
            if i not in env:
                raise CompileError(f"variable v{i} is not in scope {sorted(env)}")
            return env[i]
        # applied, not + and *, which would fold two constants in Python
        case Add(l, r):
            return ADD(_term(l, env), _term(r, env))
        case Mul(l, r):
            return MUL(_term(l, env), _term(r, env))
    raise CompileError(f"not a term: {u!r}")


def _formula(f: Formula, env: dict[int, Arg]) -> Expr:
    match f:
        case Eq(l, r):
            return CHI_EQ(_term(l, env), _term(r, env))
        case Le(l, r):
            return CHI_LE(_term(l, env), _term(r, env))
        case Not(b):
            return not_(_formula(b, env))
        case Implies(l, r):
            return implies(_formula(l, env), _formula(r, env))
        case And(l, r):
            return and_(_formula(l, env), _formula(r, env))
        case Or(l, r):
            return or_(_formula(l, env), _formula(r, env))
        case BForall(v, t, b) | BExists(v, t, b):
            quant = fa if isinstance(f, BForall) else ex
            return quant(_term(t, env), lambda a: _formula(b, {**env, v: a}))
        case UForall() | UExists():
            raise NotDelta0Error("only bounded quantifiers can be compiled")
    raise CompileError(f"not a formula: {f!r}")


def _scoped(scope: tuple[int | None, ...],
            lower: Callable[[dict[int, Arg]], Expr | int]) -> PRTerm:
    """lower(env) over one builder argument per scope slot; None names no
    variable."""
    def body(*args: Arg):
        return lower({v: a for v, a in zip(scope, args) if v is not None})
    return fn(body, len(scope))


def compile_term(t: Term, scope: tuple[int | None, ...]) -> PRTerm:
    """Value of a term as a PR function of the scope variables.

    Shadowed variables resolve to their innermost (rightmost) slot.
    """
    return _scoped(scope, lambda env: _term(t, env))


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
    return CompiledRelation(_scoped(scope, lambda env: _formula(phi, env)),
                            tuple(var_order))
