import time
from functools import reduce

from hypothesis import given, strategies as st
import pytest

from delta0lab import (
    COMPACT, EvalError, NotDelta0Error, UnboundVariableError, Verdict,
    eval_delta0, eval_delta0_verdict, eval_fo, eval_term, falsify, numeral,
    parse, parse_formula, parse_term, parse_valuation, sat_witness,
    satseq_check, show, substitute,
)
from delta0lab.formulas import (
    ONE, ZERO, And, BExists, BForall, Eq, Implies, Le, Mul, Not, Or, Add, Var,
)
from delta0lab.semantics import decide_bounded, v_and, v_implies, v_not, v_or

from helpers import collector_paused, default_recursion_limit
from test_ast import _formulas, _rho


def test_eval_term():
    assert eval_term(parse_term("((v0 + 1) * v1)"), {0: 2, 1: 5}) == 15
    assert eval_term(parse_term("0"), {}) == 0
    with pytest.raises(UnboundVariableError):
        eval_term(parse_term("(v0 + v3)"), {0: 1})


def test_eval_delta0_atoms():
    assert eval_delta0(parse_formula("((1 + 1) = (1 + 1))"), {})
    assert not eval_delta0(parse_formula("((1 + 1) <= 1)"), {})
    assert eval_delta0(parse_formula("(v0 <= (v0 + v1))"), {0: 3, 1: 0})


def test_eval_delta0_connectives():
    rho = {0: 2}
    assert eval_delta0(parse_formula("(~(v0 = 0) & (v0 <= (1 + 1)))"), rho)
    assert eval_delta0(parse_formula("((v0 = 0) | (1 <= v0))"), rho)
    assert eval_delta0(parse_formula("((v0 = 0) -> (0 = 1))"), rho)
    assert not eval_delta0(parse_formula("((1 <= v0) -> (v0 = 0))"), rho)


def test_eval_delta0_bounded_quantifiers():
    # inclusive bounds on both quantifiers
    assert eval_delta0(parse_formula("(E v0 <= v1)(v0 = v1)"), {1: 4})
    assert eval_delta0(parse_formula("(A v0 <= v1)(v0 <= v1)"), {1: 3})
    assert not eval_delta0(parse_formula("(E v0 <= v1)((v0 + v0) = (v1 + 1))"),
                           {1: 4})
    # every even number up to 8 splits in two
    phi = parse_formula("(A v0 <= (1 + 1))(E v1 <= (v0 + v0))((v1 + v1) = (v0 + v0))")
    assert eval_delta0(phi, {})


def test_eval_delta0_rejects_unbounded():
    with pytest.raises(NotDelta0Error):
        eval_delta0(parse_formula("(A v0)(v0 = v0)"), {})


def test_eval_fo_bounded_within_budget_is_exact():
    phi = parse_formula("(A v0 <= v1)((v0 + 0) = v0)")
    assert eval_fo(phi, {1: 7}, budget=7) is Verdict.TRUE
    assert eval_fo(phi, {1: 7}, budget=100) is Verdict.TRUE


def test_eval_fo_bounded_truncated_is_unknown():
    phi = parse_formula("(A v0 <= v1)(v0 <= (1 + 1))")
    # range 0..9 only partially searched: nothing found, nothing settled
    assert eval_fo(phi, {1: 9}, budget=1) is Verdict.UNKNOWN
    # the counterexample 3 is within reach even though the range is not
    assert eval_fo(phi, {1: 9}, budget=3) is Verdict.FALSE
    assert eval_fo(phi, {1: 9}, budget=9) is Verdict.FALSE


def test_eval_fo_unbounded_exists():
    phi = parse_formula("(E v0)((v0 + v0) = v1)")
    assert eval_fo(phi, {1: 10}, budget=4) is Verdict.UNKNOWN
    assert eval_fo(phi, {1: 10}, budget=5) is Verdict.TRUE
    assert eval_fo(phi, {1: 11}, budget=1000) is Verdict.UNKNOWN


def test_eval_fo_unbounded_forall():
    phi = parse_formula("(A v0)((v0 + 0) = v0)")
    assert eval_fo(phi, {}, budget=50) is Verdict.UNKNOWN
    psi = parse_formula("(A v0)(v0 <= (1 + 1))")
    assert eval_fo(psi, {}, budget=2) is Verdict.UNKNOWN
    assert eval_fo(psi, {}, budget=3) is Verdict.FALSE


def test_eval_fo_kleene_short_circuits():
    # one decided-false conjunct settles the conjunction
    phi = parse_formula("((0 = 1) & (A v0)(v0 = v0))")
    assert eval_fo(phi, {}, budget=2) is Verdict.FALSE
    # implication with false antecedent is true whatever the consequent
    psi = parse_formula("((0 = 1) -> (A v0)(v0 = v0))")
    assert eval_fo(psi, {}, budget=2) is Verdict.TRUE
    chi = parse_formula("((0 = 0) | (E v0)~(v0 = v0))")
    assert eval_fo(chi, {}, budget=2) is Verdict.TRUE


def test_walker_reads_a_right_operand_only_when_the_left_leaves_it_open():
    assert eval_delta0(parse_formula("((0 = 1) & (A v0)(v0 = v0))"), {}) is False
    with pytest.raises(NotDelta0Error):
        eval_delta0(parse_formula("((0 = 0) & (A v0)(v0 = v0))"), {})
    # v9 has no value, but the left conjunct settles the conjunction
    assert eval_fo(parse("((0 = 1) & (v9 = 0))"), {}, 3) is Verdict.FALSE
    with pytest.raises(UnboundVariableError):
        eval_fo(parse("((0 = 0) & (v9 = 0))"), {}, 3)


@collector_paused()
def test_context_walkers_take_deep_input_at_the_default_recursion_limit():
    with default_recursion_limit():
        inner = parse_formula("(A v1 <= v0)(v1 <= v0)")
        chain = inner
        for _ in range(100_000):
            chain = Not(chain)
        t = numeral(100_000)
        assert eval_delta0(chain, {0: 5}) is True
        assert eval_fo(chain, {0: 5}, 3) is Verdict.UNKNOWN
        assert eval_delta0_verdict(chain, {0: 5}) is Verdict.TRUE
        assert eval_term(t, {}) == 100_000
        text = show(chain)
        assert parse(text) is chain and parse(show(t)) is t
        # a closed candidate, so that its diagonal point m, with about
        # 300,000 bits, bounds no quantifier
        candidate = substitute(chain, 0, ONE)
        assert show(candidate) == text.replace("v0", "1")
        assert falsify(candidate).refuted is True
        short = inner
        for _ in range(3_000):
            short = Not(short)
        run = sat_witness(short, COMPACT.seq_encode([2]))
        assert run.value is True and satseq_check(run.s, run.t) is Verdict.TRUE


def test_eval_delta0_verdict_modes():
    phi = parse_formula("(A v0 <= v1)(v0 <= v1)")
    assert eval_delta0_verdict(phi, {1: 30}) is Verdict.TRUE
    assert eval_delta0_verdict(phi, {1: 30}, budget=3) is Verdict.UNKNOWN


def test_parse_valuation():
    assert parse_valuation("v0=4, v1=7") == {0: 4, 1: 7}
    assert parse_valuation("") == {}
    with pytest.raises(ValueError):
        parse_valuation("x=1")
    with pytest.raises(ValueError):
        parse_valuation("v0=1, v0=2")
    # decimal digits only: a superscript two is a digit to str.isdigit,
    # and int() would read an underscore or a sign
    for text in ("v\u00b2=1", "v0=\u00b2", "v0=1_0", "v0=+4", "v0=-4", "v1_0=1", "v+1=1"):
        with pytest.raises(EvalError, match="^bad "):
            parse_valuation(text)


def test_kleene_tables():
    t, f, u = Verdict.TRUE, Verdict.FALSE, Verdict.UNKNOWN
    assert v_not(u) is u and v_not(t) is f and v_not(f) is t
    assert v_and(t, u) is u and v_and(f, u) is f
    assert v_or(t, u) is t and v_or(f, u) is u
    assert v_implies(f, u) is t and v_implies(u, f) is u and v_implies(t, t) is t


@given(_formulas, _rho)
def test_eval_fo_agrees_with_exact_on_generous_budget(phi, rho):
    want = Verdict.of(eval_delta0(phi, rho))
    assert eval_fo(phi, rho, budget=200) is want


@given(_formulas, _rho, st.integers(0, 6))
def test_eval_fo_is_monotone_in_budget(phi, rho, budget):
    small = eval_fo(phi, rho, budget=budget)
    big = eval_fo(phi, rho, budget=budget + 3)
    if small.decided:
        assert small is big


# -- bounded quantifiers decided by root isolation ----------------------------

def _brute(phi, rho):
    """The quantifier by a sweep of every point of its range."""
    inner = dict(rho)
    values = []
    for a in range(eval_term(phi.bound, rho) + 1):
        inner[phi.var] = a
        values.append(eval_delta0(phi.body, inner))
    return all(values) if isinstance(phi, BForall) else any(values)


# Bodies over the bound variable v and the valued v0..v3 have two kinds of
# atom.  In the first, each side is a sum of one or two monomials c * v^k,
# k <= 3, whose coefficient c is 0, 1, a variable or a product of two; v0
# and v1 are small and v2 and v3 up to 200, so that roots fall inside
# ranges of up to 200.  A coefficient variable may be v itself, shadowing
# its outer value, which makes the degree at most 4.  The second kind is
# built from up to four integer roots in 0..200, repeats allowed: l - r is
# +-(v - r1)...(v - rk), each coefficient held by a fresh variable v5, v6,
# ... on the side its sign puts it.
def _side(v):
    coeff = st.sampled_from([ZERO, ONE, ONE, Var(0), Var(1), Var(2), Var(3),
                             Mul(Var(0), Var(1)), Mul(Var(2), Var(3))])
    mono = st.builds(lambda c, k: reduce(Mul, [Var(v)] * k, c), coeff, st.integers(0, 3))
    return st.lists(mono, min_size=1, max_size=2).map(lambda ms: reduce(Add, ms))


def _rooted_atom(draw, v, rho):
    poly = [draw(st.sampled_from([1, -1]))]
    for root in draw(st.lists(st.integers(0, 200), min_size=1, max_size=4)):
        # times (v - root)
        poly = [a - root * b for a, b in zip([0] + poly, poly + [0])]
    sides = [ZERO, ZERO]
    for k, c in enumerate(poly):
        if c:
            rho[len(rho) + 1] = abs(c)
            mono = reduce(Mul, [Var(v)] * k, Var(len(rho)))
            sides[c < 0] = mono if sides[c < 0] == ZERO else Add(sides[c < 0], mono)
    return draw(st.sampled_from([Eq, Le]))(*sides)


def _body(draw, v, rho, leaves=4):
    kind = draw(st.sampled_from(["monomials", "roots", "roots", Not, And, Or, Implies]
                                if leaves > 1 else ["monomials", "roots"]))
    if kind == "monomials":
        return draw(st.builds(Eq, _side(v), _side(v)) | st.builds(Le, _side(v), _side(v)))
    if kind == "roots":
        return _rooted_atom(draw, v, rho)
    if kind is Not:
        return Not(_body(draw, v, rho, leaves - 1))
    left = _body(draw, v, rho, leaves // 2)
    return kind(left, _body(draw, v, rho, leaves - leaves // 2))


@st.composite
def _qf_quantifiers(draw):
    v = draw(st.integers(0, 3))
    u = draw(st.sampled_from([u for u in range(5) if u != v]))
    quantifier = draw(st.sampled_from([BForall, BExists]))
    rho = {i: draw(st.integers(0, 12 if i < 2 else 200)) for i in range(4)}
    rho[u] = draw(st.integers(0, 200))      # the top
    return quantifier(v, Var(u), _body(draw, v, rho)), rho


@given(_qf_quantifiers())
def test_isolation_equals_the_sweep(case):
    phi, rho = case
    want = _brute(phi, rho)
    assert decide_bounded(phi, rho) is want
    assert eval_delta0(phi, rho) is want
    assert eval_fo(phi, rho, budget=200) is Verdict.of(want)


ISOLATION_EDGES = [
    # top = 0
    ("(A v2 <= v0)(v2 = v1)", {0: 0, 1: 0}),
    ("(E v2 <= v0)((v2 + 1) <= v1)", {0: 0, 1: 0}),
    # an atom that is identically zero
    ("(A v2 <= v0)((v2 * v1) = (v1 * v2))", {0: 150, 1: 7}),
    ("(E v2 <= v0)~((v2 + v2) = (v2 + v2))", {0: 150}),
    # double roots
    ("(E v2 <= v0)((v2 * v2) = ((1 + 1) * v2))", {0: 150}),
    ("(A v2 <= v0)~((v2 * v2) = ((1 + 1) * v2))", {0: 150}),
    ("(E v2 <= v0)(((v2 * v2) + v1) <= (v3 * v2))", {0: 150, 1: 49, 3: 14}),
    ("(A v2 <= v0)~(((v2 * v2) + v1) = (v3 * v2))", {0: 150, 1: 49, 3: 14}),
    ("(E v2 <= v0)(((v2 * (v2 * v2)) + (v1 * v2)) = ((v3 * (v2 * v2)) + v4))",
     {0: 150, 1: 147, 3: 21, 4: 343}),
    # an integer root inside a monotone piece: sign <0, =0, then >0
    ("(A v2 <= v0)(v2 <= v1)", {0: 150, 1: 75}),
    ("(E v2 <= v0)~(v2 <= v1)", {0: 150, 1: 75}),
    # roots at 0 and at top
    ("(E v2 <= v0)(((v2 * v2) + v0) <= ((v0 + 1) * v2))", {0: 150}),
    ("(A v2 <= v0)(v2 <= (v0 + (v2 * 0)))", {0: 150}),
    ("(A v2 <= v0)~(v2 = v0)", {0: 150}),
    ("(E v2 <= v0)((v2 * v2) = (v0 * v0))", {0: 150}),
    ("(A v2 <= v0)~((v2 * v2) = 0)", {0: 150}),
    # the bound variable shadows a valued outer variable
    ("(A v1 <= v0)(v1 <= v0)", {0: 150, 1: 10 ** 9}),
    ("(E v1 <= v0)((v1 + v1) = v0)", {0: 150, 1: 75}),
    ("(E v1 <= v0)((v1 + v1) = v0)", {0: 151, 1: 0}),
]


@pytest.mark.parametrize("text, rho", ISOLATION_EDGES)
def test_isolation_edge_cases(text, rho):
    phi = parse_formula(text)
    want = _brute(phi, rho)
    assert decide_bounded(phi, rho) is want
    assert eval_delta0(phi, rho) is want


def test_isolation_decides_ranges_beyond_any_sweep():
    # 2^80 + 1 points: a sweep of 10^4 of them could only end UNKNOWN
    phi = parse_formula("(E v2 <= v0)((v2 * v2) = v1)")
    square = {0: 2 ** 80, 1: 3 ** 80}
    assert eval_fo(phi, square, budget=10 ** 4) is Verdict.TRUE
    assert eval_fo(phi, {**square, 1: 3 ** 80 + 1}, budget=10 ** 4) is Verdict.FALSE
    assert decide_bounded(phi, square) is True


def test_isolation_gives_up_early_on_a_degree_beyond_its_count():
    # v2^(2^14) as nested squares: the polynomial walk stops at the first
    # product whose degree alone breaks the count, and the sweep finds the
    # counterexample at 1
    square = Var(2)
    for _ in range(14):
        square = Mul(square, square)
    phi = BForall(2, Var(0), Eq(square, ZERO))
    start = time.perf_counter()
    assert eval_delta0(phi, {0: 10 ** 6}) is False
    assert time.perf_counter() - start < 1.0


def test_isolation_keeps_the_sweep_for_quantified_bodies():
    phi = parse_formula("(A v2 <= v0)(E v3 <= v2)(v3 = v2)")
    with pytest.raises(ValueError):
        decide_bounded(phi, {0: 3})
    assert eval_delta0(phi, {0: 40}) is True
