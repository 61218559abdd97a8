"""The two size limits, numbers.BITS_CAP and numbers.SWEEP_CAP, at their
edges: at the limit the work is done, one step past it FeasibilityError
names the limit, and every public entry point refuses such an input
within a second."""

import time

import pytest

from delta0lab.coding import (
    COMPACT, PAPER, canonical_formula_seq, canonical_term_seq, seqdef, syn_search,
)
from delta0lab.formulas import ONE, ZERO, Add, BForall, Eq, Mul, Not, Var, numeral, parse
from delta0lab.numbers import (
    BITS_CAP, SWEEP_CAP, FeasibilityError, LazyPow, magnitude_ge, pow_bits,
)
from delta0lab.primrec import POW, Evaluator, eval_pr
from delta0lab.satisfaction import sat_witness, satseq_check, triple_encode
from delta0lab.semantics import Verdict, eval_delta0_verdict, eval_fo, eval_term


def const(n: int):
    """A closed term of value n >= 1 by Horner's rule over its bits,
    ((1 * (1 + 1)) + 1) * (1 + 1) ..., so 2^k is a product of (1 + 1)s.
    Its code grows linearly with the bits of n, where one written with a
    shared (t + t) would double with each bit."""
    two = Add(ONE, ONE)
    t = ONE
    for bit in bin(n)[3:]:
        t = Mul(t, two)
        if bit == "1":
            t = Add(t, ONE)
    return t


def doubling(k: int):
    """t_k, with t_0 = 1 and t_(k+1) = (t_k + t_k): k + 1 distinct nodes,
    whose code writes t_k out as a tree of 2^k leaves."""
    t = ONE
    for _ in range(k):
        t = Add(t, t)
    return t


def squaring(k: int):
    """s_k, with s_0 = (1 + 1) and s_(k+1) = (s_k * s_k): k + 2 distinct
    nodes, whose value is 2^(2^k)."""
    t = Add(ONE, ONE)
    for _ in range(k):
        t = Mul(t, t)
    return t


def chain(depth: int):
    """~...~(0 = 0) with depth negations."""
    phi = Eq(ZERO, ZERO)
    for _ in range(depth):
        phi = Not(phi)
    return phi


def sweep(bound: int):
    """(A v0 <= bound)(v0 = v0): its run has one body triple per point,
    whose valuation code, and so its 3^z, grows with the point."""
    return BForall(0, const(bound), Eq(Var(0), Var(0)))


@pytest.mark.parametrize("base", [1, 2, 3, 5, 7, 10, 2 ** 40, 3 ** 40, 10 ** 30])
@pytest.mark.parametrize("exp", [0, 1, 2, 5, 1000, 12_345])
def test_pow_bits_is_a_lower_bound_exact_for_powers_of_two(base, exp):
    bits = (base ** exp).bit_length()
    assert pow_bits(base, exp) <= bits
    if base < 2 ** 64:
        assert bits - pow_bits(base, exp) <= exp // 2 ** 23 + 1
    if base & (base - 1) == 0:
        assert pow_bits(base, exp) == bits


def test_pow_twin_at_the_bit_limit():
    assert Evaluator().eval(POW, (2, BITS_CAP - 1)).bit_length() == BITS_CAP
    with pytest.raises(FeasibilityError, match="BITS_CAP"):
        Evaluator().eval(POW, (2, BITS_CAP))


def test_sequence_encoders_at_the_bit_limit():
    # an entry e is the gamma code of e + 1, 2 bitlen(e + 1) - 1 bits,
    # behind the code's leading 1
    widest = (1 << BITS_CAP // 2) - 2
    code = COMPACT.seq_encode([widest])
    assert code.bit_length() == BITS_CAP
    assert COMPACT.seq_decode(code) == [widest]
    with pytest.raises(FeasibilityError, match="BITS_CAP"):
        COMPACT.seq_encode([widest + 1])
    # the whole code counts, not each entry
    with pytest.raises(FeasibilityError, match="BITS_CAP"):
        COMPACT.seq_encode([0, widest])
    # 2^(e + 1): the lower bound of a power of two is its exact size
    assert PAPER.seq_encode([BITS_CAP - 2]).bit_length() == BITS_CAP
    with pytest.raises(FeasibilityError, match="BITS_CAP"):
        PAPER.seq_encode([BITS_CAP - 1])
    # the whole product counts, not each factor: 2 * 3^k * 5^k has more
    # than BITS_CAP bits though 3^k and 5^k each have fewer
    k = BITS_CAP * 10 // 39
    with pytest.raises(FeasibilityError, match="BITS_CAP"):
        PAPER.seq_encode([0, k - 1, k - 1])


def test_written_bounds_at_the_bit_limit():
    assert LazyPow(base=2, exp=BITS_CAP - 1).try_int().bit_length() == BITS_CAP
    assert LazyPow(base=2, exp=BITS_CAP).try_int() is None
    # CompactCoding.buildseq_bound writes 2^exp out while it fits, and keeps
    # it lazy past that; both compare exactly
    for s in (4998, 4999):
        x = 1 << s
        exp = (s + 1) * (2 * s + 3) + 1
        bound = COMPACT.buildseq_bound(x)
        assert isinstance(bound, int) == (exp < BITS_CAP)
        assert magnitude_ge(bound, 1 << exp) is True
        assert magnitude_ge(bound, (1 << exp) + 1) is False


def test_subcode_listing_at_the_bit_limit():
    # numeral(k) has a code of 6k - 3 bits, so numeral(n) lists 3n^2 bits
    codes = canonical_term_seq(COMPACT, numeral(4082))
    assert sum(c.bit_length() for c in codes) == 3 * 4082 ** 2 <= BITS_CAP
    with pytest.raises(FeasibilityError, match="BITS_CAP"):
        canonical_term_seq(COMPACT, numeral(4083))


def test_term_values_at_the_bit_limit():
    # each distinct node is valued once: t_40 has 41 and 2^40 leaves
    assert eval_term(doubling(40), {}) == 2 ** 40
    # s_25 = 2^(2^25) fits BITS_CAP, and its square would not
    assert eval_term(squaring(25), {}).bit_length() == 2 ** 25 + 1
    with pytest.raises(FeasibilityError, match="BITS_CAP"):
        eval_term(squaring(26), {})


def test_run_at_the_bit_limit():
    # the run's code t, a gamma code per triple, passes BITS_CAP bits
    # between the bounds 337 and 338
    run = sat_witness(sweep(337))
    assert run.value is True and run.t.bit_length() <= BITS_CAP
    with pytest.raises(FeasibilityError, match="the run .* BITS_CAP"):
        sat_witness(sweep(338))


def test_sat_witness_sweep_at_the_sweep_limit():
    # at SWEEP_CAP the sweep starts, and the run's bits stop it
    with pytest.raises(FeasibilityError, match="BITS_CAP") as at:
        sat_witness(sweep(SWEEP_CAP))
    assert "SWEEP_CAP" not in str(at.value)
    with pytest.raises(FeasibilityError, match="SWEEP_CAP"):
        sat_witness(sweep(SWEEP_CAP + 1))


# (name, entry point, its arguments, the limit it names); the arguments are
# built before the clock starts, so the second bounds the entry point alone
PAST_THE_LIMIT = [
    ("eval_pr on POW", eval_pr, lambda: (POW, (2, BITS_CAP)), "BITS_CAP"),
    ("paper encode", PAPER.encode, lambda: (parse("((0 = 0) & (0 = 0))"),), "BITS_CAP"),
    ("paper encode_term", PAPER.encode_term, lambda: (Add(Var(10 ** 8), ONE),), "BITS_CAP"),
    ("paper seq_encode", PAPER.seq_encode, lambda: ([BITS_CAP - 1],), "BITS_CAP"),
    ("compact seq_encode", COMPACT.seq_encode, lambda: ([1 << BITS_CAP],), "BITS_CAP"),
    ("compact seq_encode of three 25 Mbit entries", COMPACT.seq_encode,
     lambda: ([1 << 25_000_000] * 3,), "BITS_CAP"),
    ("compact encode_term of t_30", COMPACT.encode_term, lambda: (doubling(30),), "BITS_CAP"),
    ("eval_term of a 30-level squaring", eval_term, lambda: (squaring(30), {}), "BITS_CAP"),
    ("triple_encode", triple_encode, lambda: (BITS_CAP, 0, 0), "BITS_CAP"),
    ("sat_witness sweep", sat_witness, lambda: (sweep(2 ** 24),), "SWEEP_CAP"),
    ("sat_witness run 440", sat_witness, lambda: (sweep(440),), "BITS_CAP"),
    ("sat_witness run 2^10", sat_witness, lambda: (sweep(2 ** 10),), "BITS_CAP"),
    ("sat_witness run 2^12", sat_witness, lambda: (sweep(2 ** 12),), "BITS_CAP"),
    ("sat_witness listing", sat_witness, lambda: (chain(30_000),), "BITS_CAP"),
    ("canonical_formula_seq", canonical_formula_seq, lambda: (COMPACT, chain(100_000)),
     "BITS_CAP"),
    ("canonical_term_seq", canonical_term_seq, lambda: (COMPACT, numeral(100_000)),
     "BITS_CAP"),
]


@pytest.mark.parametrize("name, call, args, limit", PAST_THE_LIMIT,
                         ids=[case[0] for case in PAST_THE_LIMIT])
def test_every_entry_point_refuses_past_its_limit_within_a_second(name, call, args, limit):
    args = args()
    start = time.perf_counter()
    with pytest.raises(FeasibilityError, match=limit):
        call(*args)
    assert time.perf_counter() - start < 1.0, name


def test_the_searches_turn_a_refusal_into_unknown():
    deep = COMPACT.encode(chain(6_000))
    assert syn_search(COMPACT, "delta0", deep) is Verdict.UNKNOWN
    big = COMPACT.encode_term(numeral(4_100))
    assert seqdef(COMPACT, "val", (big, COMPACT.seq_encode([]), 4_100)) is Verdict.UNKNOWN
    # far below it both decide
    assert syn_search(COMPACT, "delta0", COMPACT.encode(chain(5))) is Verdict.TRUE
    small = COMPACT.encode_term(numeral(5))
    assert seqdef(COMPACT, "val", (small, COMPACT.seq_encode([]), 5)) is Verdict.TRUE


@pytest.mark.parametrize("budget", [-1, True, 2.5], ids=["negative", "bool", "float"])
def test_every_budget_is_a_natural(budget):
    # a budget counts points, so each entry point refuses a negative, a
    # bool (though True == 1) or a float up front, as a ValueError
    run = sat_witness(parse("(A v1 <= (1 + 1))(v1 = v1)"), 1)
    calls = [lambda: eval_fo(parse("(A v1)(v1 = v1)"), {}, budget),
             lambda: eval_delta0_verdict(parse("(0 = 0)"), {}, budget),
             lambda: satseq_check(run.s, run.t, budget),
             lambda: syn_search(COMPACT, "term", 10, budget),
             lambda: seqdef(COMPACT, "trm", (10,), budget)]
    for call in calls:
        with pytest.raises(ValueError, match="natural"):
            call()
