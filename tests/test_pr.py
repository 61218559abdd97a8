import itertools
import sys
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
    ADD, CHI_EQ, CHI_LE, CHI_LT, CHI_PRIME, DIVIDES, EXPONENT, HALF, MONUS, MUL,
    NEXTPRIME, PARITY, POW, PRED, PRIME, QUOT, SEQ_TEST, SG, SGBAR, STDLIB, ScopeError,
    and_, bounded_min, const, ex, fa, fn, graph_of, implies, least, not_, or_,
    rel_bexists, rel_bforall, rel_combine, select,
)
from delta0lab.numbers import nthprime
from delta0lab.satpr import (
    BITLEN_MIN, HOP, KIT_OPS, SEQLEN_MIN, SHR, SPAN, TEND, TOKEN, ZRUN_MIN, sat_pr_parts,
)
from delta0lab.coding import COMPACT, PAPER
from delta0lab.formulas import ONE, ZERO, Add, Mul, Var
from delta0lab.nodes import postorder
import delta0lab.primrec as primrec_module
import delta0lab.satpr as satpr_module

from helpers import (
    ARITIES, DIRECT, d_chi_prime, d_exponent, default_recursion_limit, seq_encode,
)

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


def test_validate_pins_each_single_defect_and_its_path():
    bad = Comp(ADD, (Zero(),))
    outer = "outer function takes 2 arguments, got 1 inner functions"
    cases = [
        (bad, f"{outer} at root"),
        (Comp(Succ(), (Zero(), Proj(1, 2))),
         "composed inner functions disagree on arity [1, 2] at root"),
        (PrimRec(Zero(), Zero()), "recursion step must have arity 3, got 1 at root"),
        (Comp(bad, (Zero(), Zero())), f"{outer} at root.f"),
        (Comp(Succ(), (Comp(Succ(), (bad,)),)), f"{outer} at root.g1.g1"),
        (Comp(ADD, (Zero(), bad)), f"{outer} at root.g2"),
        (PrimRec(bad, Proj(1, 4)), f"{outer} at root.f"),
        (PrimRec(Zero(), Comp(Succ(), (bad,))), f"{outer} at root.g.g1"),
        (Comp(Succ(), (Var(0),)), "not a PR term: Var(0) at root.g1"),
    ]
    for term, message in cases:
        with pytest.raises(ArityError) as err:
            validate(term)
        assert str(err.value) == message
    # two defects: the first in post-order is reported
    with pytest.raises(ArityError, match=f"^{outer} at root.f$"):
        validate(Comp(bad, (Zero(), Proj(1, 2))))


def test_validate_reports_a_field_that_is_not_a_term():
    for term, path in [(Comp(Succ(), (5,)), "root.g1"), (Comp("S", (Zero(),)), "root.f"),
                       (PrimRec(Zero(), None), "root.g"),
                       (Comp(Succ(), (Comp(ADD, (Zero(), 5)),)), "root.g1.g2"),
                       (Var(1), "root"), (7, "root")]:
        with pytest.raises(ArityError, match="not a PR term") as err:
            validate(term)
        assert err.value.path == path


def test_validate_spells_a_deep_path_at_the_default_recursion_limit():
    with default_recursion_limit():
        t = PrimRec(Zero(), Zero())
        for _ in range(100_000):
            t = Comp(Succ(), (t,))
        start = time.perf_counter()
        with pytest.raises(ArityError) as err:
            validate(t)
        assert err.value.path == "root" + ".g1" * 100_000
        assert str(err.value).startswith("recursion step must have arity 3, got 1 at root.g1")
        assert time.perf_counter() - start < 3.0


def test_serialize_canonical_add():
    assert serialize(ADD) == "P 1 1\nS\nP 1 3\nC 1 2\nR 0 3"


def test_serialize_round_trips_stdlib():
    for name, term in STDLIB.items():
        assert parse_pr(serialize(term)) == term, name


def test_serialize_writes_one_line_per_distinct_node():
    for name, term in STDLIB.items():
        assert parse_pr(serialize(term)) is term, name
    for scheme in (COMPACT, PAPER):
        for name, part in sat_pr_parts(scheme).items():
            assert parse_pr(serialize(part)) is part, (scheme.name, name)
    for scheme, size in ((COMPACT, 1_135), (PAPER, 979)):
        t = sat_as_pr(scheme)
        start = time.perf_counter()
        text = serialize(t)
        assert parse_pr(text) is t
        assert time.perf_counter() - start < 1.0
        assert len(text.splitlines()) == len(postorder(t)) == size


def test_deep_term_round_trips_at_the_default_recursion_limit():
    with default_recursion_limit():
        t = const(100_000, 1)
        text = serialize(t)
        assert text.count("\n") == 100_001
        assert parse_pr(text) is t
        assert len(repr(t)) < 200


def test_parse_pr_names_the_bad_line():
    cases = [("Z\nC 2 0\nS", 1), ("Z\nC 1 0", 1), ("C 0 0", 0),   # forward and self
             ("Z\nS\nC 1 0x0", 2), ("Z\nS\nC 1 +0", 2), ("Z\nS\nC 1 -0", 2),
             ("Z\nS\nC 1 \uff10", 2), ("Z\nS\nC 1 1_0", 2),   # not decimal
             ("Z\n\nS", 1), ("P 2", 0), ("S 0", 0), ("Z\nR 0 0 0", 1)]
    for text, line in cases:
        with pytest.raises(PRError, match=f"^line {line} "):
            parse_pr(text)
    for empty in ("", "\n"):
        with pytest.raises(PRError):
            parse_pr(empty)


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
    for bad in ["", "Q", "P 0 1", "S\nC 0", "Z\nR 0", "Z extra", "S\nC 0 1"]:
        with pytest.raises(PRError):
            parse_pr(bad)


def test_parse_pr_whitespace():
    assert parse_pr(" P 1  1\n\tS \nP 1 3\nC  1 2\nR 0 3\n") == ADD


def test_eval_refuses_arguments_that_are_not_naturals():
    # a float went through ADD's twin, and a bool counted as 0 or 1
    for term, args in ((ADD, (1.5, 2)), (POW, (2.0, 3)), (PRIME, ("3",)),
                       (ADD, (True, 2)), (ADD, (-1, 2))):
        with pytest.raises(PRError, match="arguments must be naturals"):
            eval_pr(term, args)


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


@pytest.mark.parametrize("intrinsics", [True, False])
def test_nextprime_and_prime_match_their_oracles(intrinsics):
    # one evaluator: by the equations, the prime column computes every
    # primality test that the next-prime searches below 300 then reuse
    ev = Evaluator(intrinsics=intrinsics)
    assert [ev.eval(PRIME, (i,)) for i in range(61)] == [nthprime(i) for i in range(61)]
    for x in range(301):
        assert ev.eval(NEXTPRIME, (x,)) == sympy.nextprime(x), x


def test_nextprime_searches_from_above_its_argument():
    # the sweep starts at x + 1 and stops at the first prime; a sweep from 0
    # took 94,380 steps for the paper b1(42, 1) = prime(42)^(43^2).  b1 has
    # its codec twin, so its prime column is run one level down
    ev = Evaluator()
    assert ev.eval(NEXTPRIME, (1_000_000,)) == 1_000_003
    assert ev.steps < 100
    ev = Evaluator()
    b1 = sat_pr_parts(PAPER)["b1"]
    assert ev.eval(b1.f, [ev.eval(g, (42, 1)) for g in b1.gs]) == nthprime(42) ** (43 * 43)
    assert ev.steps == 5_605


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
    # a sweep handed a huge int as its bound must not allocate copies of it
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


def test_pow_twin_returns_an_int_at_the_root():
    assert type(eval_pr(POW, (2, 10**6))) is int
    assert eval_pr(POW, (2, 10**6)) == 1 << 10**6
    assert type(eval_pr(fn(lambda e: POW(2, e) + 1), (10**6,))) is int


def _under_frames(n, call):
    """call() made under n more interpreter frames."""
    return call() if n == 0 else _under_frames(n - 1, call)


def _frames():
    """The interpreter frames on the stack."""
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


def test_deep_terms_evaluate_or_raise_a_typed_error():
    with default_recursion_limit():
        deep = const(100_000, 1)
        steps = []
        for frames in (50, 300):
            ev = Evaluator()
            assert _under_frames(frames, lambda: ev.eval(deep, (0,))) == 100_000
            steps.append(ev.steps)
        # the cuts are fixed by the term, so the caller's stack moves no step
        assert steps[0] == steps[1]
        # a caller with no room for one attempt gets a typed error at once
        room = sys.getrecursionlimit() - _frames() - 20
        start = time.perf_counter()
        with pytest.raises(FeasibilityError, match="no room on the stack"):
            _under_frames(room, lambda: Evaluator().eval(deep, (0,)))
        assert time.perf_counter() - start < 5
    assert eval_pr(const(3, 1), (0,)) == 3


def test_no_sat_part_is_cut():
    # every part is at most NEST tall, so its closures call each other
    # directly, with no cut and no retry
    for scheme in (COMPACT, PAPER):
        for name, part in sat_pr_parts(scheme).items():
            primrec_module._compile(part, (True, True))
            assert primrec_module._HEIGHT[part] <= primrec_module.NEST, (scheme.name, name)


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
    primrec_module.intrinsic(double, lambda a: 2 * a[1])
    try:
        after = Evaluator()
        assert after.eval(double, (0, 5)) == 10
        assert after.steps == 1
    finally:   # test_every_twin_is_compared_with_its_equations counts twins
        del primrec_module._INTRINSICS[double]
        for table in primrec_module._RUN.values():
            table.clear()


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


# a bounded-exists column whose witnesses are the d >= x
AT_LEAST = rel_bexists(fn(lambda x, d: CHI_LE(x, d)))


def test_stats_count_confirmed_and_refused_certificates():
    fresh = Evaluator().stats()
    assert fresh["confirmed"] == fresh["refused"] == 0
    ev = Evaluator()
    assert ev.confirm(AT_LEAST, (5,), 9) is True
    assert ev.confirm(AT_LEAST, (5,), 4) is False
    assert ev.confirm(AT_LEAST, (6,), 6) is True
    stats = ev.stats()
    assert (stats["confirmed"], stats["refused"], stats["absorbed"]) == (2, 1, 2)


@pytest.mark.parametrize("intrinsics, absorbing", [(True, True), (False, False)])
def test_certificate_settles_the_rows_from_its_witness_on(intrinsics, absorbing):
    ev = Evaluator(intrinsics=intrinsics, absorbing=absorbing)
    assert ev.confirm(AT_LEAST, (5,), 9)
    steps = ev.steps
    assert ev.eval(AT_LEAST, (5, 9)) == 1
    assert ev.eval(AT_LEAST, (5, 10**30)) == 1
    assert ev.steps == steps + 2   # one tick each, no sweep
    # a smaller witness replaces a larger one, never the other way round
    assert ev.confirm(AT_LEAST, (5,), 6) and ev.confirm(AT_LEAST, (5,), 8)
    assert ev._absorbed[(AT_LEAST, (5,))] == (6, 1)


def test_refuted_certificate_records_nothing():
    ev = Evaluator()
    assert not ev.confirm(AT_LEAST, (5,), 3)
    assert (AT_LEAST, (5,)) not in ev._absorbed
    assert ev.eval(AT_LEAST, (5, 4)) == 0


def test_certificate_above_the_bound_leaves_the_column_to_its_sweep():
    raw = Evaluator(intrinsics=False, absorbing=False)
    ev = Evaluator()
    assert ev.confirm(AT_LEAST, (5,), 9)
    assert ev.eval(AT_LEAST, (5, 4)) == 0   # swept: no witness up to 4
    assert ev.eval(AT_LEAST, (5, 7)) == 1   # swept on to the least witness
    assert ev._absorbed[(AT_LEAST, (5,))] == (5, 1)
    for n in range(12):
        assert ev.eval(AT_LEAST, (5, n)) == raw.eval(AT_LEAST, (5, n)), n


def test_confirm_refuses_a_node_that_is_not_an_exists_column():
    body = fn(lambda x, d: CHI_LE(x, d))
    m = 3   # width of the column's step: acc, x, i
    body_at_i = Comp(SG, (Comp(ADD, (Proj(1, m), Comp(body, (Proj(2, m), Proj(3, m))))),))
    others = [
        body, ADD, MUL, rel_bforall(body), rel_bforall(body).gs[0], bounded_min(body),
        PrimRec(Zero(), AT_LEAST.g),    # or-shaped step, wrong base
        PrimRec(AT_LEAST.f, body_at_i),  # the body at i, not at i + 1
        rel_bexists(fn(lambda d: CHI_LE(3, d))),   # no parameter
        fn(lambda x, y: ex(y, lambda d: CHI_LE(x, d))),   # the ex around a column
    ]
    for node in others:
        ev = Evaluator()
        with pytest.raises(PRError, match="not a bounded-exists column"):
            ev.confirm(node, (5,), 5)
        assert ev.stats()["steps"] == ev.stats()["confirmed"] == ev.stats()["refused"] == 0
    with pytest.raises(ArityError):
        Evaluator().confirm(AT_LEAST, (5, 1), 5)


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
        # the syntax reader, on term codes and on every other code
        cases += [(t, (c, d)) for d in offsets for t in (TOKEN, TEND)]
        cases += [(SPAN, (c, a, b)) for a in offsets for b in {0, a, a + 2, pl, pl + 2}]
    for term, args in cases:
        assert opt.eval(term, args) == raw.eval(term, args), (term, args)


def test_term_end_reads_each_term_code_to_its_end():
    ev = Evaluator()
    # (v1 + 0) * 1: the whole ends at 17, v1 + 0 from offset 4 at 15,
    # v1 from 8 at 14, and 0 from 14 at 15
    x = COMPACT.encode_term(Mul(Add(Var(1), ZERO), ONE))
    assert bin(x)[3:] == "1111" "1110" "110" "010" "0" "10"
    assert [ev.eval(TEND, (x, d)) for d in (0, 4, 8, 14)] == [17, 15, 14, 15]
    assert ev.eval(SPAN, (x, 4, 15)) == COMPACT.encode_term(Add(Var(1), ZERO))
    # a term cut short, and an offset at the end or past it, read plen + 1
    assert ev.eval(TEND, (x >> 2, 0)) == 16
    assert [ev.eval(TEND, (x, d)) for d in (17, 99)] == [18, 18]


# the twins outside satpr's kit tables, each compared with its equations
# by a test of this section
CANONICAL = (ADD, MUL, SG, SGBAR, PRED, MONUS, CHI_LE, CHI_EQ, POW, PARITY, HALF)
GAMMA_TWINS = (BITLEN_MIN, SHR, ZRUN_MIN, HOP, SEQLEN_MIN, TOKEN, TEND, SPAN)


def test_canonical_twins_match_the_equations():
    raw, opt = Evaluator(intrinsics=False), Evaluator()
    for term in CANONICAL:
        for args in grid(validate(term), 0, 4 if term is POW else 9):
            assert opt.eval(term, args) == raw.eval(term, args), (term, args)


def test_every_twin_is_compared_with_its_equations():
    # the kit rows' twins are compared by test_sat.py's
    # test_each_kit_op_agrees_with_the_codec; a twin registered anywhere
    # else without a test fails here
    kit = {op.term for table in KIT_OPS.values() for op in table if op.twinned}
    assert set(primrec_module._INTRINSICS) == {
        *CANONICAL, *GAMMA_TWINS, CHI_PRIME, EXPONENT, *kit}


def test_intrinsics_cost_one_step():
    for term, args in [(BITLEN_MIN, (200, 200)), (SHR, (200, 5)),
                       (ZRUN_MIN, (200, 1, 7)), (HOP, (0, 200, 0)),
                       (SEQLEN_MIN, (200, 7)), (CHI_PRIME, (97,)), (TOKEN, (200, 1)),
                       (TEND, (200, 1)), (SPAN, (200, 1, 5)), (EXPONENT, (1, 3**90))]:
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


def test_exponent_twin_matches_oracle_and_equations():
    opt = Evaluator()
    raw = Evaluator(intrinsics=False)
    for k, x in itertools.product(range(5), range(41)):
        assert opt.eval(EXPONENT, (k, x)) == raw.eval(EXPONENT, (k, x)), (k, x)
    rest = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 + 1
    for k in range(12):
        p = nthprime(k)
        for e in (0, 1, 2, 3, 7, 64, 1000):
            for x in (p ** e, p ** e * rest):
                assert opt.eval(EXPONENT, (k, x)) == d_exponent(k, x) == e, (k, e)
    # past the 2^16-th prime the equations run; no prime(k) >= k + 2
    # divides a smaller x
    assert opt.eval(EXPONENT, (1 << 16, 5)) == 0


def test_intrinsics_on_huge_arguments_stay_fast():
    big = (1 << 100_000) | 0x5a5a5a5a5a5a5a5a
    ones = (1 << 100_001) - 1   # payload of all ones: 10^5 one-bit hops
    cases = [(BITLEN_MIN, (big, big)), (SHR, (big, 17)), (SHR, (big, big)),
             (ZRUN_MIN, (big, 3, big)), (ZRUN_MIN, (big, big, big)),
             (HOP, (3, big, 0)), (HOP, (big, big, 0)),
             (SEQLEN_MIN, (big, big)), (SEQLEN_MIN, (ones, big)),
             (CHI_PRIME, (big,)), (TOKEN, (big, 3)), (TOKEN, (ones, big)),
             (TEND, (big, 3)), (TEND, (ones, 0)), (SPAN, (big, 3, big)),
             (SPAN, (big, big, big)), (EXPONENT, (1, 3 ** 200_000 * 2))]
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


# the plain term sweeps every candidate below the canonical run
@pytest.mark.parametrize("x, steps", [(8, 50_685), (24, 57_111), (42, 180_681)],
                         ids=["8", "24", "42"])
def test_sat_pr_step_counts_are_pinned(x, steps):
    ev = Evaluator()
    assert ev.eval(sat_as_pr(), (x, 1)) == 1
    assert ev.steps == steps


def _guided(monkeypatch, x):
    """An evaluator that has run what sat_pr_eval(x, 1) runs: the
    certificates it hands to satpr.eval_pr, then the term."""
    calls = []

    def spy(t, args, max_steps=None, witnesses=()):
        calls.append((t, args, tuple(witnesses)))
        return eval_pr(t, args, max_steps, witnesses)

    monkeypatch.setattr(satpr_module, "eval_pr", spy)
    assert sat_pr_eval(x, 1) == 1
    (t, args, witnesses), = calls
    ev = Evaluator()
    for w in witnesses:
        ev.confirm(*w)
    assert ev.eval(t, args) == 1
    return ev, witnesses


# sat_pr_eval confirms the run that sat_witness builds instead of sweeping
# up to it
@pytest.mark.parametrize("x, steps", [(8, 781), (24, 807), (42, 1_723)],
                         ids=["8", "24", "42"])
def test_sat_pr_guided_step_counts_are_pinned(x, steps, monkeypatch):
    ev, witnesses = _guided(monkeypatch, x)
    assert ev.steps == steps
    assert ev.stats()["confirmed"] == 2 and ev.stats()["refused"] == 0
    parts = sat_pr_parts()
    (inner, xs_t, t), (outer, xs_s, s) = witnesses
    assert (inner, outer) == (rel_bexists(parts["matrix"]), rel_bexists(parts["run"]))
    assert xs_t == (x, 1, s) and xs_s == (x, 1)
    assert ev._absorbed[(inner, xs_t)] == (t, 1)
    assert ev._absorbed[(outer, xs_s)] == (s, 1)


def test_annotation_bound_is_never_written_out():
    # B1 is the bit-length bound buildseq_bound, so B2 stays small: with the
    # paper's prime-power B1, B2(42, 1) was 2^392,784,375
    b2 = sat_pr_parts()["b2"]
    assert [eval_pr(b2, (x, 1)).bit_length() for x in (42, 77)] == [13_762, 24_184]
    # B2 grows with x and y, so this is the largest within satpr's code cap
    assert eval_pr(b2, (4096, 4096)).bit_length() == 6_035_596
    sat_as_pr()   # built once per process, outside the measured peak
    tracemalloc.start()
    try:
        assert sat_pr_eval(42, 1) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_sat_pr_budget_edge():
    # the certificates and the term share one budget
    assert sat_pr_eval(8, 1, max_steps=781) == 1
    with pytest.raises(FeasibilityError, match="step budget of 780"):
        sat_pr_eval(8, 1, max_steps=780)
    ev = Evaluator(max_steps=50_684)
    with pytest.raises(FeasibilityError):
        ev.eval(sat_as_pr(), (8, 1))
    assert ev.steps == 50_685


@given(st.integers(0, 30), st.integers(0, 30))
@settings(max_examples=40)
def test_add_mul_agree_with_python(x, y):
    ev = Evaluator()
    assert ev.eval(ADD, (x, y)) == x + y
    assert ev.eval(MUL, (x, y)) == x * y
