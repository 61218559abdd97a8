import itertools
import time
import tracemalloc

from hypothesis import given, settings, strategies as st
import pytest
import sympy

from delta0lab import (
    ArityError, Comp, Evaluator, FeasibilityError, PRError, PrimRec, Proj,
    Succ, Zero, eval_pr, parse_pr, sat_as_pr, sat_pr_eval, serialize, validate,
)
from delta0lab.prlib import (
    ADD, CHI_EQ, CHI_LE, CHI_LT, CHI_PRIME, DIVIDES, EXPONENT, MONUS, MUL,
    NEXTPRIME, PRIME, QUOT, SEQ_TEST, STDLIB, ScopeError, and_, bounded_min,
    const, ex, fa, fn, graph_of, implies, least, not_, or_, rel_bexists,
    rel_bforall, rel_combine, select,
)
from delta0lab.satpr import BITLEN_MIN, HOP, SEQLEN_MIN, SHR, ZRUN_MIN
import delta0lab.primrec as primrec_module

from helpers import ARITIES, DIRECT, d_chi_prime, seq_encode

CORE = ["add", "mul", "sg", "sgbar", "pred", "monus", "chi_eq", "chi_le", "pow"]


def grid(arity, lo, hi):
    return itertools.product(range(lo, hi + 1), repeat=arity)


# ------------------------------------------------------------ structure


def test_stdlib_arities():
    assert set(STDLIB) == set(ARITIES)
    for name, term in STDLIB.items():
        assert validate(term) == ARITIES[name], name


def test_validate_rejects_malformed():
    with pytest.raises(ArityError):
        Proj(0, 1)
    with pytest.raises(ArityError):
        Proj(3, 2)
    with pytest.raises(ArityError) as err:
        validate(Comp(ADD, (Zero(),)))
    assert "root" in str(err.value)
    with pytest.raises(ArityError):
        validate(Comp(Succ(), (Zero(), Zero())))
    with pytest.raises(ArityError):
        validate(PrimRec(Zero(), Zero()))
    with pytest.raises(ArityError) as err2:
        validate(Comp(Succ(), (Comp(ADD, (Zero(),)),)))
    assert ".g1" in str(err2.value)


def test_validate_walks_deep_terms():
    assert validate(const(40_000, 1)) == 1


def test_serialize_canonical_add():
    assert serialize(ADD) == "R(P(1,1); C(S; P(1,3)))"


def test_serialize_round_trips_stdlib():
    for name, term in STDLIB.items():
        assert parse_pr(serialize(term)) == term, name


def test_nodes_are_hash_consed():
    assert Comp(ADD, (Proj(1, 1), Proj(1, 1))) is Comp(ADD, (Proj(1, 1), Proj(1, 1)))
    assert PrimRec(Zero(), Proj(1, 3)) is not PrimRec(Zero(), Proj(2, 3))


def test_deep_term_hashes_and_compares_in_constant_time():
    start = time.perf_counter()
    t = const(100_000, 1)
    hash(t)
    assert t == const(100_000, 1)
    assert t in {t}
    assert time.perf_counter() - start < 1.0


def test_parse_pr_errors():
    for bad in ["", "Q", "P(0,1)", "C(S)", "R(Z; Z", "Z extra", "C(S; Z,)"]:
        with pytest.raises(PRError):
            parse_pr(bad)


def test_parse_pr_whitespace():
    assert parse_pr(" R( P(1,1) ; C(S ; P(1,3)) ) ") == ADD


# ----------------------------------------------- values match the oracle


def test_raw_recursion_equations_match_direct():
    ev = Evaluator(intrinsics=False, absorbing=False)
    for name in CORE:
        hi = 4 if name == "pow" else 8
        for args in grid(ARITIES[name], 0, hi):
            assert ev.eval(STDLIB[name], args) == DIRECT[name](*args), (name, args)


def test_stdlib_matches_direct_on_grid():
    ev = Evaluator()
    for name in CORE:
        for args in grid(ARITIES[name], 0, 12):
            assert ev.eval(STDLIB[name], args) == DIRECT[name](*args), (name, args)


def test_prime_sequence():
    ev = Evaluator()
    got = [ev.eval(PRIME, (i,)) for i in range(11)]
    assert got == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_nextprime_matches_sympy():
    ev = Evaluator()
    for x in range(31):
        assert ev.eval(NEXTPRIME, (x,)) == sympy.nextprime(x), x


def test_chi_prime_matches_sympy():
    ev = Evaluator()
    for x in range(37):
        assert ev.eval(CHI_PRIME, (x,)) == int(sympy.isprime(x)), x


def test_quot_divides_exponent():
    ev = Evaluator()
    for a, b in grid(2, 0, 12):
        assert ev.eval(QUOT, (a, b)) == DIRECT_QUOT(a, b), (a, b)
        want = int(b == 0 if a == 0 else b % a == 0)
        assert ev.eval(DIVIDES, (a, b)) == want, (a, b)
    for k, x in itertools.product(range(3), range(1, 30)):
        p, e = sympy.prime(k + 1), 0
        while x % p ** (e + 1) == 0:
            e += 1
        assert ev.eval(EXPONENT, (k, x)) == e, (k, x)


def DIRECT_QUOT(a, b):
    return a // b if b else a + 1


def test_sequence_entries_round_trip():
    ev = Evaluator()
    for entries in [[], [0], [1, 0], [1, 2], [1, 1, 1], [0, 3, 1]]:
        code = seq_encode(entries)
        assert ev.eval(STDLIB["seq_test"], (code,)) == 1, entries
        assert ev.eval(STDLIB["len"], (code,)) == len(entries), entries
        for i, a in enumerate(entries):
            assert ev.eval(STDLIB["idx"], (i, code)) == a, (entries, i)
        if entries:
            assert ev.eval(STDLIB["last"], (code,)) == entries[-1], entries


def test_sequence_frozen_examples():
    ev = Evaluator()
    assert seq_encode([1, 0]) == 12
    assert seq_encode([1, 2]) == 108
    assert ev.eval(STDLIB["replace"], (12, 1, 2)) == 108
    assert ev.eval(STDLIB["pair3"], (1, 2, 3)) == 2250
    assert ev.eval(STDLIB["len"], (1,)) == 0
    assert ev.eval(STDLIB["seq_test"], (1,)) == 1
    assert ev.eval(STDLIB["seq_test"], (0,)) == 0
    assert ev.eval(STDLIB["seq_test"], (20,)) == 0   # 2^2 * 5 skips p_1


def test_seq_test_grid():
    ev = Evaluator()
    from helpers import d_seq_test
    for x in range(40):
        assert ev.eval(SEQ_TEST, (x,)) == int(d_seq_test(x)), x


def test_replace_matches_direct():
    ev = Evaluator()
    from helpers import d_replace
    for entries in [[0], [1, 0], [1, 2, 1]]:
        code = seq_encode(entries)
        for k in range(len(entries)):
            for r in range(3):
                assert ev.eval(STDLIB["replace"], (code, k, r)) == d_replace(code, k, r)


# ------------------------------------------------------------- builders


def test_const_and_graph():
    ev = Evaluator()
    assert ev.eval(const(7, 3), (9, 9, 9)) == 7
    assert ev.eval(const(0, 1), (5,)) == 0
    g = graph_of(ADD)
    assert ev.eval(g, (3, 4, 7)) == 1
    assert ev.eval(g, (3, 4, 8)) == 0


def test_rel_combine_tables():
    ev = Evaluator()
    land = rel_combine("and", Proj(1, 2), Proj(2, 2))
    lor = rel_combine("or", Proj(1, 2), Proj(2, 2))
    limp = rel_combine("implies", Proj(1, 2), Proj(2, 2))
    lnot = rel_combine("not", Proj(1, 1))
    for a, b in grid(2, 0, 1):
        assert ev.eval(land, (a, b)) == (a and b)
        assert ev.eval(lor, (a, b)) == (a or b)
        assert ev.eval(limp, (a, b)) == int(not a or b)
    assert ev.eval(lnot, (0,)) == 1 and ev.eval(lnot, (1,)) == 0
    with pytest.raises(ValueError):
        rel_combine("xor", Proj(1, 1))


def test_bounded_quantifier_builders():
    ev = Evaluator()
    # chi(x, i) = [i = x]
    hit = Comp(CHI_EQ, (Proj(2, 2), Proj(1, 2)))
    ex = rel_bexists(hit)
    fa = rel_bforall(Comp(CHI_LE, (Proj(2, 2), Proj(1, 2))))
    for x in range(6):
        for y in range(6):
            assert ev.eval(ex, (x, y)) == int(x <= y), (x, y)
            assert ev.eval(fa, (x, y)) == int(y <= x), (x, y)


def test_bounded_min_values():
    ev = Evaluator()
    # least i with i + 3 >= x, bound y, else y + 1
    test = Comp(CHI_LE, (Proj(1, 2), Comp(ADD, (Proj(2, 2), const(3, 2)))))
    mu = bounded_min(test)
    for x in range(8):
        for y in range(6):
            want = next((i for i in range(y + 1) if i + 3 >= x), y + 1)
            assert ev.eval(mu, (x, y)) == want, (x, y)


def test_arity1_builders_use_dummy_argument():
    ev = Evaluator()
    odd = Comp(CHI_EQ, (Comp(STDLIB["mul"], (const(2, 1), Comp(QUOT, (Proj(1, 1), const(2, 1))))),
                        Comp(STDLIB["pred"], (Proj(1, 1),))))
    # just exercise shapes: bexists/min over an arity-1 relation
    some = rel_bexists(Comp(CHI_EQ, (Proj(1, 1), const(3, 1))))
    assert validate(some) == 1
    assert ev.eval(some, (5,)) == 1
    assert ev.eval(some, (2,)) == 0
    mu = bounded_min(Comp(CHI_EQ, (Proj(1, 1), const(3, 1))))
    assert validate(mu) == 1
    assert ev.eval(mu, (5,)) == 3
    assert ev.eval(mu, (2,)) == 3   # no witness below 2: returns y + 1
    assert validate(odd) == 1


def test_builder_numbers_named_arguments():
    t = fn(lambda s, i: ex(i - 1, lambda j: CHI_LT(j, i)))
    assert t is Comp(rel_bexists(Comp(CHI_LT, (Proj(3, 3), Proj(2, 3)))),
                     (Proj(1, 2), Proj(2, 2), Comp(MONUS, (Proj(2, 2), const(1, 2)))))


def test_builder_argument_outside_its_fn():
    leaked = []
    fn(lambda x: leaked.append(x) or x)
    with pytest.raises(ScopeError):
        fn(lambda y: leaked[0] + y)
    assert issubclass(ScopeError, PRError)


def test_builder_checks_arity_of_applications():
    with pytest.raises(ArityError):
        fn(lambda x, y: ADD(x))
    with pytest.raises(ArityError):
        fn(lambda x: ex(x, lambda j: CHI_LT(j)))


def test_builder_term_applied_to_its_own_arguments_is_the_term():
    assert fn(lambda x, y: CHI_LT(x, y)) is CHI_LT
    assert fn(lambda x, y: CHI_LT(y, x)) is Comp(CHI_LT, (Proj(2, 2), Proj(1, 2)))
    assert fn(lambda x: x) is Proj(1, 1)


def test_builder_operators_evaluate():
    ev = Evaluator()
    t = fn(lambda x, y: select(
        and_(or_(CHI_LE(x, y), CHI_EQ(y, 0)), implies(CHI_EQ(x, 3), not_(y))),
        2 * (y - x) + 1,
        least(x, lambda k: not_(fa(k, lambda j: CHI_LT(j * y, x))))))
    for x, y in grid(2, 0, 5):
        if (x <= y or y == 0) and (x != 3 or y == 0):
            want = 2 * max(y - x, 0) + 1
        else:
            want = next((k for k in range(x + 1)
                         if not all(j * y < x for j in range(k + 1))), x + 1)
        assert ev.eval(t, (x, y)) == want, (x, y)


# ------------------------------------------------ evaluator engineering


def test_absorbing_breaks_make_huge_bounds_cheap():
    ev = Evaluator()
    hit = Comp(CHI_EQ, (Proj(2, 2), Proj(1, 2)))
    ex = rel_bexists(hit)
    assert ev.eval(ex, (5, 10 ** 9)) == 1
    assert ev.steps < 20_000

    ev2 = Evaluator()
    fa = rel_bforall(Comp(CHI_LE, (Proj(2, 2), Proj(1, 2))))
    assert ev2.eval(fa, (5, 10 ** 9)) == 0
    assert ev2.steps < 20_000

    ev3 = Evaluator()
    mu = bounded_min(Comp(CHI_EQ, (Proj(2, 2), Proj(1, 2))))
    assert ev3.eval(mu, (7, 10 ** 9)) == 7
    assert ev3.steps < 20_000


def test_huge_bound_is_not_copied():
    # sat_pr_eval sweeps its annotations up to a B2 of 47 MiB at x = 42;
    # the sweep must not allocate copies of its bound
    ex = rel_bexists(Comp(CHI_EQ, (Proj(2, 2), Proj(1, 2))))
    bound = 1 << 8_000_000
    ev = Evaluator()
    tracemalloc.start()
    try:
        assert ev.eval(ex, (5, bound)) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound.bit_length() // 8 // 2


def test_optimizations_are_pure():
    flags = [(True, True), (True, False), (False, True), (False, False)]
    for name in CORE:
        for args in grid(ARITIES[name], 0, 5):
            vals = {Evaluator(intrinsics=i, absorbing=a).eval(STDLIB[name], args)
                    for i, a in flags}
            assert len(vals) == 1, (name, args)


def test_optimizations_are_pure_on_derived_terms():
    # raw evaluation of the prime machinery is slow, so keep the
    # no-intrinsics spot checks tiny and test absorbing separately
    raw = Evaluator(intrinsics=False, absorbing=True)
    opt = Evaluator()
    for term, args in [(QUOT, (7, 2)), (DIVIDES, (3, 12)), (CHI_LT, (3, 3)),
                       (PRIME, (0,)), (NEXTPRIME, (1,)), (EXPONENT, (0, 4))]:
        assert raw.eval(term, args) == opt.eval(term, args), args

    # absorbing off sweeps entire ranges, so lengths must stay tiny
    plain = Evaluator(intrinsics=True, absorbing=False)
    for term, args in [(PRIME, (4,)), (STDLIB["len"], (4,)),
                       (STDLIB["idx"], (1, 12)), (SEQ_TEST, (4,)),
                       (SEQ_TEST, (5,)), (SEQ_TEST, (6,)),
                       (STDLIB["replace"], (12, 1, 2)), (EXPONENT, (1, 108))]:
        assert plain.eval(term, args) == opt.eval(term, args), args


def test_absorbing_off_still_correct():
    ev = Evaluator(absorbing=False)
    hit = Comp(CHI_EQ, (Proj(2, 2), Proj(1, 2)))
    ex = rel_bexists(hit)
    assert ev.eval(ex, (3, 50)) == 1


def test_evaluator_cache_is_incremental():
    ev = Evaluator()
    ev.eval(PRIME, (8,))
    mid = ev.steps
    ev.eval(PRIME, (9,))
    extend = ev.steps - mid
    fresh = Evaluator()
    fresh.eval(PRIME, (9,))
    assert extend < fresh.steps / 2


def test_max_steps_budget():
    ev = Evaluator(intrinsics=False, absorbing=False, max_steps=500)
    with pytest.raises(FeasibilityError):
        ev.eval(STDLIB["pow"], (6, 6))
    assert eval_pr(STDLIB["pow"], (6, 6)) == 6 ** 6


def test_pow_twin_refuses_results_past_the_bit_cap():
    # one POW step could otherwise build any integer, which max_steps
    # cannot interrupt
    pow_ = STDLIB["pow"]
    for args in [(2, 1 << 31), (3, 1 << 40)]:
        start = time.perf_counter()
        with pytest.raises(FeasibilityError, match="bits"):
            Evaluator().eval(pow_, args)
        assert time.perf_counter() - start < 1.0, args
    assert Evaluator().eval(pow_, (2, 10**6)) == 1 << 10**6
    assert Evaluator().eval(pow_, (1, 1 << 40)) == 1
    assert Evaluator().eval(pow_, (0, 1 << 40)) == 0


def test_deep_terms_evaluate_or_raise_a_typed_error():
    # one closure frame per term level fits 12,000 levels under the limit
    assert eval_pr(const(12_000, 1), (0,)) == 12_000
    with pytest.raises(FeasibilityError, match="term depth 100001"):
        eval_pr(const(100_000, 1), (0,))
    assert eval_pr(const(3, 1), (0,)) == 3


def test_modes_keep_their_own_closures():
    # closures are shared by every evaluator of one mode; interleaving a
    # raw and a default evaluator must give neither the other's closures
    cases = [(STDLIB[name], args) for name in CORE for args in grid(ARITIES[name], 0, 3)]
    cases += [(HOP, (d, c, 0)) for d in range(3) for c in range(8)]
    cases += [(ZRUN_MIN, (c, d, 2)) for c in range(8) for d in range(3)]
    for term, args in cases:
        raw = Evaluator(intrinsics=False, absorbing=False)
        opt = Evaluator()
        assert raw.eval(term, args) == opt.eval(term, args), (term, args)
        assert opt.steps == 1 < raw.steps, (term, args)


def test_twin_registered_after_compiling_takes_effect():
    double = Comp(ADD, (Proj(2, 2), Proj(2, 2)))
    assert double not in primrec_module._INTRINSICS
    before = Evaluator()
    assert before.eval(double, (0, 5)) == 10
    assert before.steps == 4
    # the twin is exact, so it may stay registered for later tests
    primrec_module.intrinsic(double, lambda a: 2 * a[1])
    after = Evaluator()
    assert after.eval(double, (0, 5)) == 10
    assert after.steps == 1


def test_stats_report_steps_and_cache_sizes():
    fresh = Evaluator().stats()
    assert fresh["steps"] == fresh["cache"] == fresh["hi"] == 0
    assert fresh["absorbed"] == fresh["const_from"] == 0
    ev = Evaluator()
    assert ev.eval(sat_as_pr(), (8, 1)) == 1
    stats = ev.stats()
    assert stats["steps"] == ev.steps
    assert all(stats[k] > 0 for k in ("cache", "hi", "absorbed", "const_from", "closures"))
    assert stats["closures"] == Evaluator().stats()["closures"]


def test_eval_argument_checks():
    with pytest.raises(ArityError):
        eval_pr(ADD, (1, 2, 3))
    with pytest.raises(PRError):
        eval_pr(ADD, (1, -2))


def test_root_validated_once_and_arguments_checked_every_call(monkeypatch):
    calls = []

    def counting(t):
        calls.append(t)
        return validate(t)

    monkeypatch.setattr(primrec_module, "validate", counting)
    ev = Evaluator()
    for _ in range(3):
        assert ev.eval(ADD, (1, 2)) == 3
        with pytest.raises(ArityError):
            ev.eval(ADD, (1, 2, 3))
        with pytest.raises(PRError):
            ev.eval(ADD, (1, -2))
    assert calls == [ADD]
    with pytest.raises(ArityError):
        ev.eval(Comp(ADD, (Zero(),)), (1,))
    with pytest.raises(ArityError):   # a malformed root is not memoised
        ev.eval(Comp(ADD, (Zero(),)), (1,))


# ------------------------------------------------------------ intrinsics
#
# Each twin must equal the recursion equations on all naturals: the sweeps
# that call them try arbitrary candidates, offsets past the payload and the
# poisoned offset plen + 1.


def _plen(c):
    return max(c.bit_length() - 1, 0)


def test_gamma_reader_twins_match_the_equations():
    raw = Evaluator(intrinsics=False)
    opt = Evaluator()
    cases = []
    for c in range(160):
        pl = _plen(c)
        offsets = sorted(set(range(8)) | {pl, pl + 1, pl + 2})
        for y in range(8):
            cases += [(BITLEN_MIN, (c, y)), (SHR, (c, y)), (SEQLEN_MIN, (c, y))]
            cases += [(ZRUN_MIN, (c, d, y)) for d in offsets]
        cases += [(HOP, (d, c, i)) for d in offsets for i in range(2)]
    for term, args in cases:
        assert opt.eval(term, args) == raw.eval(term, args), (term, args)


def test_intrinsics_cost_one_step():
    for term, args in [(BITLEN_MIN, (200, 200)), (SHR, (200, 5)),
                       (ZRUN_MIN, (200, 1, 7)), (HOP, (0, 200, 0)),
                       (SEQLEN_MIN, (200, 7)), (CHI_PRIME, (97,))]:
        ev = Evaluator()
        ev.eval(term, args)
        assert ev.steps == 1, term


def test_chi_prime_twin_matches_oracle_and_equations():
    opt = Evaluator()
    raw = Evaluator(intrinsics=False)
    for x in range(40):
        assert opt.eval(CHI_PRIME, (x,)) == raw.eval(CHI_PRIME, (x,)), x
    below_cap = list(range(3000)) + [2**24 - k for k in range(1, 40)]
    for x in below_cap:
        assert opt.eval(CHI_PRIME, (x,)) == d_chi_prime(x), x


def test_intrinsics_on_huge_arguments_stay_fast():
    big = (1 << 100_000) | 0x5a5a5a5a5a5a5a5a
    ones = (1 << 100_001) - 1   # payload of all ones: 10^5 one-bit hops
    cases = [(BITLEN_MIN, (big, big)), (SHR, (big, 17)), (SHR, (big, big)),
             (ZRUN_MIN, (big, 3, big)), (ZRUN_MIN, (big, big, big)),
             (HOP, (3, big, 0)), (HOP, (big, big, 0)),
             (SEQLEN_MIN, (big, big)), (SEQLEN_MIN, (ones, big)),
             (CHI_PRIME, (big,))]
    for term, args in cases:
        ev = Evaluator(max_steps=10_000)
        start = time.perf_counter()
        try:
            ev.eval(term, args)
        except FeasibilityError:
            pass
        assert time.perf_counter() - start < 1.0, term
    assert Evaluator().eval(SEQLEN_MIN, (ones, big)) == 100_000
    assert Evaluator().eval(BITLEN_MIN, (big, big)) == 100_001


def test_sat_pr_fits_a_small_budget():
    assert sat_pr_eval(8, 1, max_steps=300_000) == 1


@pytest.mark.parametrize("x, steps", [(8, 69_427), (24, 129_047), (42, 354_537)])
def test_sat_pr_step_counts_are_pinned(x, steps):
    ev = Evaluator()
    assert ev.eval(sat_as_pr(), (x, 1)) == 1
    assert ev.steps == steps


def test_sat_pr_budget_edge():
    assert sat_pr_eval(8, 1, max_steps=69_427) == 1
    with pytest.raises(FeasibilityError, match="step budget of 69426"):
        sat_pr_eval(8, 1, max_steps=69_426)
    ev = Evaluator(max_steps=69_426)
    with pytest.raises(FeasibilityError):
        ev.eval(sat_as_pr(), (8, 1))
    assert ev.steps == 69_427


@given(st.integers(0, 30), st.integers(0, 30))
@settings(max_examples=40)
def test_add_mul_agree_with_python(x, y):
    ev = Evaluator()
    assert ev.eval(ADD, (x, y)) == x + y
    assert ev.eval(MUL, (x, y)) == x * y
