from hypothesis import given, settings

import pytest

from delta0lab import (
    ArityError, Evaluator, NotDelta0Error, UnboundVariableError, eval_delta0,
    eval_pr, eval_term, parse_formula,
)
from delta0lab.compiler import (
    CompileError, CompiledRelation, compile_formula, compile_term,
)
from delta0lab.formulas import ONE, ZERO, Add, Eq, Not, numeral, parse_term
from delta0lab.prlib import CHI_EQ, const, ex, fn

from helpers import collector_paused, default_recursion_limit
from test_ast import _formulas, _rho


def test_compile_term_values():
    ev = Evaluator()
    t = compile_term(parse_term("((v0 + 1) * v1)"), (0, 1))
    assert ev.eval(t, (2, 5)) == 15
    z = compile_term(parse_term("(0 + 1)"), (0,))
    assert ev.eval(z, (9,)) == 1


def test_compile_term_shadowing_uses_innermost_slot():
    ev = Evaluator()
    t = compile_term(parse_term("v0"), (0, 1, 0))
    assert ev.eval(t, (5, 6, 7)) == 7


def test_compile_term_out_of_scope():
    with pytest.raises(CompileError):
        compile_term(parse_term("v3"), (0, 1))


def test_compile_atoms_and_connectives():
    chi = compile_formula(parse_formula("((v0 <= v1) & ~(v0 = v1))"))
    assert chi.var_order == (0, 1)
    assert chi({0: 2, 1: 5})
    assert not chi({0: 5, 1: 5})
    assert not chi({0: 6, 1: 5})


def test_compile_sentence_takes_dummy_argument():
    chi = compile_formula(parse_formula("(0 = 0)"))
    assert chi.arity == 1
    assert chi({})
    assert not compile_formula(parse_formula("(0 = 1)"))({})


def test_compile_bounded_quantifiers():
    # some value up to v1 doubles to v1
    chi = compile_formula(parse_formula("(E v0 <= v1)((v0 + v0) = v1)"))
    assert chi({1: 10}) and not chi({1: 9})
    # nested, with the inner bound using the outer variable
    psi = parse_formula("(A v0 <= v1)(E v2 <= v0)((v2 + v2) = v0)")
    compiled = compile_formula(psi)
    assert not compiled({1: 2})   # 1 has no half
    odd = parse_formula("(A v0 <= v1)(v0 <= v1)")
    assert compile_formula(odd)({1: 4})


def test_compile_rejects_a_node_of_the_wrong_kind():
    with pytest.raises(CompileError, match=r"^not a formula: ConstZero\(\)$"):
        compile_formula(Not(ZERO))
    with pytest.raises(CompileError, match=r"^not a term: Eq\("):
        compile_term(Add(Eq(ZERO, ONE), ONE), (0,))
    with pytest.raises(CompileError, match=r"^not a term: Eq\("):
        compile_formula(Eq(Eq(ZERO, ONE), ONE))


@collector_paused()
def test_compile_takes_deep_input_at_the_default_recursion_limit():
    with default_recursion_limit():
        chain = parse_formula("(A v1 <= v0)(v1 <= v0)")
        for _ in range(100_000):
            chain = Not(chain)
        chi = compile_formula(chain)
        for v in (0, 3):
            assert chi({0: v}) == eval_delta0(chain, {0: v})
        assert eval_pr(compile_term(numeral(100_000), (0,)), (0,)) == 100_000


def test_compile_rejects_unbounded():
    with pytest.raises(NotDelta0Error):
        compile_formula(parse_formula("(A v0)(v0 = v0)"))


def test_compile_var_order_validation():
    phi = parse_formula("(v0 = v1)")
    with pytest.raises(CompileError):
        compile_formula(phi, var_order=(0,))
    wide = compile_formula(phi, var_order=(1, 0, 7))
    assert wide({1: 3, 0: 3, 7: 99})


def test_pr_bound_override():
    phi = parse_formula("(E v0 <= 0)(v0 = v1)")
    plain = compile_formula(phi, var_order=(1,))
    assert not plain({1: 3})
    assert fn(lambda v1: ex(0, lambda v0: CHI_EQ(v0, v1))) is plain.term
    # the same quantifier with its bound given as a PR term
    five = const(5, 1)
    wide = CompiledRelation(
        fn(lambda v1: ex(five(v1), lambda v0: CHI_EQ(v0, v1))), (1,))
    assert wide({1: 3})
    assert not wide({1: 6})


def test_pr_bound_override_arity_checked():
    with pytest.raises(ArityError):
        fn(lambda v1: ex(const(5, 2)(v1), lambda v0: CHI_EQ(v0, v1)))


def test_missing_variable_is_the_interpreters_error():
    phi = parse_formula("(v0 = v1)")
    with pytest.raises(UnboundVariableError, match="v1 has no value"):
        eval_delta0(phi, {0: 1})
    with pytest.raises(UnboundVariableError, match="v1 has no value"):
        compile_formula(phi)({0: 1})
    # nor is a value that is no natural: a negative, a bool (though
    # True == 1) or a float, which the interpreter refuses before it
    # evaluates a point, as the compiled relation refuses its arguments
    quantified = parse_formula("(A v1 <= v0)(0 = 1)")
    for rho in ({0: -1}, {0: True}, {0: 1.5}):
        with pytest.raises(ValueError, match="natural"):
            eval_delta0(quantified, rho)
        with pytest.raises(ValueError, match="natural"):
            compile_formula(quantified)(rho)
    with pytest.raises(ValueError, match="natural"):
        eval_term(parse_term("(v0 + v0)"), {0: True})


@given(_formulas, _rho)
@settings(max_examples=60)
def test_compiled_truth_matches_interpreter(phi, rho):
    chi = compile_formula(phi, var_order=(0, 1, 2))
    assert chi(rho) == eval_delta0(phi, rho)
