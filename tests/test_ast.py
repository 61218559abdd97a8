import time

from hypothesis import given, strategies as st
import pytest

from delta0lab import (
    COMPACT, PAPER, Add, And, BExists, BForall, CaptureError, CodingError, Eq, FormulaError,
    Implies, Le, Mul, Not, ONE, Or, ParseError, Proj, UExists, UForall, Var,
    ZERO, Zero, canonical_formula_seq, canonical_term_seq,
    desugar, eval_delta0, formula_seq_index, free_vars, fresh_index, is_delta0, lt, numeral,
    parse, parse_formula, parse_term, show, substitute,
)
from delta0lab.nodes import postorder
from delta0lab.prlib import const
from helpers import collector_paused, default_recursion_limit


def test_show_round_trip_examples():
    for text in [
        "((v0 + 1) = (1 + v0))",
        "((v0 * (v1 + 1)) <= v2)",
        "(A v0 <= (v1 + v1))(E v2 <= v0)((v2 + v2) = v0)",
        "~((0 = 1) -> (0 = 1))",
        "((0 = 0) & ((0 = 1) | (1 <= 0)))",
        "(A v0)(E v1)((v0 + v1) = v1)",
    ]:
        assert show(parse(text)) == text


def test_parse_normalizes_whitespace():
    assert parse("( v0+1 )") == Add(Var(0), ONE)
    assert show(parse("(A v0<=v1)(v0=v0)")) == "(A v0 <= v1)(v0 = v0)"


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("(v0 + )")
    assert err.value.position == 6
    with pytest.raises(ParseError):
        parse("(v0 + v1")
    with pytest.raises(ParseError):
        parse("(v0 ? v1)")
    with pytest.raises(ParseError):
        parse("v0 v1")
    with pytest.raises(ParseError):
        parse("((0 = 0) + 1)")
    with pytest.raises(ParseError):
        parse("~v0")
    # a character outside the grammar, named where it stands
    with pytest.raises(ParseError, match=r"unexpected character '\?' \(at position 4\)"):
        parse("(v0 ? v1)")
    # v without an index is no token, nor is v before a digit that is
    # not a decimal digit
    with pytest.raises(ParseError, match=r"unexpected character 'v' \(at position 6\)"):
        parse("(v0 + v)")
    with pytest.raises(ParseError, match=r"unexpected character 'v' \(at position 0\)"):
        parse("v\u00b2")
    # trailing whitespace is skipped, and the end of input sits past it
    assert parse("(v0 + 1) \t\n") == Add(Var(0), ONE)
    with pytest.raises(ParseError, match="found 'end of input'") as err:
        parse("(v0 + v1  ")
    assert err.value.position == 10


def test_bound_variable_may_not_occur_in_its_bound():
    with pytest.raises(FormulaError):
        BForall(1, Add(Var(1), ONE), Eq(Var(1), Var(1)))
    with pytest.raises(ParseError):
        parse("(A v1 <= (v1 + 1))(v1 = v1)")
    # a different variable in the bound is fine
    parse("(A v1 <= (v0 + 1))(v1 = v1)")


def test_var_index_validation():
    body = Eq(ZERO, ZERO)
    # True and False equal 1 and 0, so an interned Var(True) would be the
    # node Var(1) and print as vTrue; the check runs before the lookup
    for index in (-1, True, False, 1.0, "1"):
        for build in (Var, lambda i: UForall(i, body), lambda i: UExists(i, body),
                      lambda i: BForall(i, ZERO, body), lambda i: BExists(i, ZERO, body)):
            with pytest.raises(FormulaError):
                build(index)
    assert show(Var(1)) == "v1"
    assert show(UForall(0, body)) == "(A v0)(0 = 0)"


def test_constructors_reject_a_field_that_is_not_a_node():
    for build in (lambda: Not(5), lambda: Add(ONE, 5), lambda: Implies(Eq(ZERO, ONE), 5),
                  lambda: UForall(0, 5), lambda: BExists(0, ONE, "x"), lambda: Eq(Zero(), ONE)):
        with pytest.raises(FormulaError, match="^not a term or formula: "):
            build()
    # a node of the wrong kind is built, and a walker reports it
    with pytest.raises(CodingError, match=r"^not a core formula: ConstZero\(\)$"):
        COMPACT.encode(Not(ZERO))


def test_numeral_shapes():
    assert numeral(0) == ZERO
    assert numeral(1) == ONE
    assert numeral(3) == Add(Add(ONE, ONE), ONE)
    with pytest.raises(FormulaError):
        numeral(-2)


def test_free_vars_and_is_delta0():
    phi = parse_formula("(A v0 <= v1)((v0 + v2) = v1)")
    assert free_vars(phi) == {1, 2}
    assert is_delta0(phi)
    assert not is_delta0(parse_formula("(E v0)(v0 = v1)"))
    assert free_vars(parse_formula("(E v0)(v0 = v1)")) == {1}
    # the bound term's variables are free even if shadowed in the body
    psi = BForall(0, Var(1), BExists(1, Var(2), Eq(Var(0), Var(1))))
    assert free_vars(psi) == {1, 2}


def test_lt_desugars_to_le_and_not_eq():
    assert lt(Var(0), Var(1)) == And(Le(Var(0), Var(1)), Not(Eq(Var(0), Var(1))))


def test_fresh_index_scans_binders():
    phi = parse_formula("(A v3 <= v1)(v3 = v3)")
    assert fresh_index(phi) == 4
    assert fresh_index(Var(0), Var(7)) == 8
    assert fresh_index() == 0


@collector_paused()
def test_walkers_take_deep_input_at_the_default_recursion_limit():
    with default_recursion_limit():
        atom = Eq(Var(0), ONE)
        chain = atom
        for _ in range(100_000):
            chain = Not(chain)
        t = numeral(100_000)
        bounded = BForall(1, t, Le(Var(1), t))
        assert free_vars(chain) == {0} and free_vars(t) == free_vars(bounded) == set()
        assert is_delta0(chain) and is_delta0(bounded)
        assert not is_delta0(UForall(1, chain))
        assert fresh_index(chain) == 1 and fresh_index(t) == 0
        assert fresh_index(bounded) == 2
        assert desugar(chain) is chain and desugar(bounded) is bounded
        assert desugar(BExists(1, t, chain)) == Not(BForall(1, t, Not(chain)))
        assert show(chain) == "~" * 100_000 + "(v0 = 1)"
        assert show(t) == "(" * 99_999 + "1 + 1)" + " + 1)" * 99_998
        assert show(bounded).startswith("(A v1 <= ((((")
        assert hash(chain) == hash(Not(chain.body)) and chain == Not(chain.body)
        assert chain != chain.body and t == numeral(100_000) != t.left
        short, term = Eq(ZERO, ONE), numeral(3_000)
        for _ in range(3_000):
            short = Not(short)
        assert canonical_term_seq(COMPACT, term)[-1] == COMPACT.encode_term(term)
        assert len(canonical_formula_seq(COMPACT, short)) == 3_001
        assert Proj(2, 2) not in postorder(const(40_000, 1))
        assert Zero() in postorder(const(40_000, 1))
        with pytest.raises(FormulaError):
            desugar(t)
        with pytest.raises(FormulaError):
            BForall(1, chain, atom)
    for walker in (free_vars, is_delta0, fresh_index, desugar, show):
        with pytest.raises(FormulaError):
            walker(5)


def test_canonical_sequences_build_each_code_from_its_children():
    term, chain = numeral(3_000), Eq(ZERO, ONE)
    for _ in range(3_000):
        chain = Not(chain)
    for scheme, n in ((COMPACT, 40), (PAPER, 3)):
        assert canonical_term_seq(scheme, numeral(n)) == [
            scheme.encode_term(numeral(k)) for k in range(1, n + 1)]
    start = time.perf_counter()
    seq = canonical_term_seq(COMPACT, term)
    assert len(canonical_formula_seq(COMPACT, chain)) == 3_001
    assert time.perf_counter() - start < 0.6
    assert seq[-1] == COMPACT.encode_term(term) and len(seq) == 3_000


def test_coding_a_deep_node_in_the_wrong_place_raises_a_typed_error():
    with default_recursion_limit():
        chain = Eq(ZERO, ONE)
        for _ in range(100_000):
            chain = Not(chain)
        assert len(repr(chain)) < 200
        for encode in (COMPACT.encode_term, PAPER.encode_term,
                       lambda t: canonical_term_seq(COMPACT, t)):
            with pytest.raises(CodingError, match=r"^not a term: Not\(Not\("):
                encode(chain)
        for scheme in (COMPACT, PAPER):
            with pytest.raises(CodingError, match=r"^not a core formula: Var\(0\)$"):
                scheme.encode(Not(Var(0)))
            with pytest.raises(CodingError, match=r"^not a term: Eq\("):
                scheme.encode(Le(ZERO, Add(ONE, Eq(ZERO, ONE))))
            with pytest.raises(CodingError, match=r"^not a core formula: ConstZero\(\)$"):
                formula_seq_index(scheme, Implies(Eq(ZERO, ONE), ZERO))


def test_substitute_in_terms_and_atoms():
    t = parse_term("((v0 + v1) * v0)")
    assert substitute(t, 0, numeral(2)) == parse_term("(((1 + 1) + v1) * (1 + 1))")
    phi = parse_formula("(v0 <= (v0 + v1))")
    assert substitute(phi, 1, ZERO) == parse_formula("(v0 <= (v0 + 0))")


def test_substitute_respects_binding():
    phi = parse_formula("(A v0 <= v1)(v0 = v2)")
    # v0 is bound: no replacement inside the body
    assert substitute(phi, 0, ONE) == phi
    # v2 is free: replaced
    assert substitute(phi, 2, ZERO) == parse_formula("(A v0 <= v1)(v0 = 0)")
    # the bound term is outside the binder's scope
    psi = parse_formula("(A v0 <= (v1 + 1))(v0 = v0)")
    assert substitute(psi, 1, ZERO) == parse_formula("(A v0 <= (0 + 1))(v0 = v0)")


def test_substitute_raises_on_capture():
    phi = parse_formula("(A v0 <= v2)(v0 = v1)")
    with pytest.raises(CaptureError):
        substitute(phi, 1, Var(0))
    uphi = parse_formula("(E v0)(v0 = v1)")
    with pytest.raises(CaptureError):
        substitute(uphi, 1, Add(Var(0), ONE))
    # replacement into the bound term would put v0 into its own binder's bound
    chi = parse_formula("(A v0 <= v1)(v0 = v0)")
    with pytest.raises(CaptureError):
        substitute(chi, 1, Var(0))


# ---------------------------------------------------------------- random

_terms = st.recursive(
    st.sampled_from([ZERO, ONE, Var(0), Var(1), Var(2)]),
    lambda inner: st.builds(Add, inner, inner) | st.builds(Mul, inner, inner),
    max_leaves=6,
)

# Bounds stay small (a variable, or a sum of constants) so that nested
# ranges cannot blow up and exact evaluation stays cheap.
_bounds = st.sampled_from([ZERO, ONE, Var(0), Var(1), Var(2),
                           Add(ONE, ONE), Add(Add(ONE, ONE), Add(ONE, ONE))])


def _quantify(inner):
    def build(cls):
        return st.builds(
            lambda v, t, b: cls(v, t, b) if v not in free_vars(t) else cls(v, ZERO, b),
            st.integers(0, 2), _bounds, inner)
    return build(BForall) | build(BExists)


_formulas = st.recursive(
    st.builds(Eq, _terms, _terms) | st.builds(Le, _terms, _terms),
    lambda inner: (st.builds(Not, inner) | st.builds(Implies, inner, inner)
                   | st.builds(And, inner, inner) | st.builds(Or, inner, inner)
                   | _quantify(inner)),
    max_leaves=5,
)

_rho = st.fixed_dictionaries({0: st.integers(0, 3), 1: st.integers(0, 3),
                              2: st.integers(0, 3)})


@given(_formulas)
def test_parse_show_round_trip(phi):
    assert parse(show(phi)) is phi


@given(_formulas, _rho)
def test_desugar_preserves_truth(phi, rho):
    assert eval_delta0(desugar(phi), rho) == eval_delta0(phi, rho)


@given(_formulas)
def test_desugar_uses_core_connectives_only(phi):
    def core(f):
        match f:
            case Eq() | Le():
                return True
            case Not(b):
                return core(b)
            case Implies(l, r):
                return core(l) and core(r)
            case BForall(_, _, b) | UForall(_, b):
                return core(b)
        return False
    assert core(desugar(phi))


@given(_formulas, _rho)
def test_desugared_free_vars_unchanged(phi, rho):
    assert free_vars(desugar(phi)) == free_vars(phi)
