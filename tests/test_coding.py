"""Godel numbering tests: frozen codes, round trips, building sequences."""

import time

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from delta0lab.coding import (
    COMPACT,
    PAPER,
    SYNTAX,
    CodingError,
    bits_to_code,
    build_entries_ok,
    canonical_build_code,
    canonical_formula_seq,
    canonical_term_seq,
    check_build_seq,
    code_to_bits,
    gamma_bits,
    get_scheme,
    seqdef,
    strip_prime,
    syn,
    syn_search,
)
from delta0lab.coding import val as term_value
from delta0lab.formulas import (
    Add,
    And,
    BForall,
    Eq,
    Formula,
    Implies,
    Le,
    Mul,
    Not,
    ONE,
    UForall,
    Var,
    ZERO,
    desugar,
    numeral,
    parse,
    parse_term,
    show,
)
from delta0lab.numbers import LazyPow, magnitude_ge, magnitude_to_int, nthprime
from delta0lab.primrec import FeasibilityError
from delta0lab.satisfaction import sat_valuation, sat_witness
from delta0lab.semantics import Verdict

from helpers import collector_paused


# -- independent oracles ----------------------------------------------------

def g(m):
    b = bin(m)[2:]
    return "0" * (len(b) - 1) + b


def val(bits):
    return int("1" + bits, 2)


def pseq(entries):
    return sympy.prod(sympy.prime(i + 1) ** (e + 1) for i, e in enumerate(entries))


# -- bit helpers --------------------------------------------------------------

def test_gamma_table():
    assert [g(m) for m in range(1, 6)] == ["1", "010", "011", "00100", "00101"]
    assert [gamma_bits(m) for m in range(1, 6)] == ["1", "010", "011", "00100", "00101"]
    with pytest.raises(CodingError):
        gamma_bits(0)


def test_bits_value_round_trip():
    assert bits_to_code("") == 1
    assert bits_to_code("000") == 8
    assert code_to_bits(8) == "000"
    assert code_to_bits(1) == ""
    for bits in ["", "0", "1", "0010", "11111"]:
        assert code_to_bits(bits_to_code(bits)) == bits
    with pytest.raises(CodingError):
        code_to_bits(0)


# -- sequence codecs -----------------------------------------------------------

SEQ_CASES = [
    ([], 1, 1),
    ([0], 2, 3),
    ([1, 0], 12, val(g(2) + g(1))),
    ([1, 2], 108, 83),
    ([1, 1, 1], 900, val(g(2) * 3)),
    ([0, 3, 1], 4050, val(g(1) + g(4) + g(2))),
    ([8], 512, 137),
]


@pytest.mark.parametrize("entries,paper_code,compact_code", SEQ_CASES)
def test_seq_frozen(entries, paper_code, compact_code):
    assert PAPER.seq_encode(entries) == paper_code == pseq(entries)
    assert COMPACT.seq_encode(entries) == compact_code
    assert PAPER.seq_decode(paper_code) == entries
    assert COMPACT.seq_decode(compact_code) == entries


def test_seq_errors():
    for scheme in (PAPER, COMPACT):
        with pytest.raises(CodingError):
            scheme.seq_decode(0)
        with pytest.raises(CodingError):
            scheme.seq_encode([-1])
    with pytest.raises(CodingError):
        PAPER.seq_decode(5)      # skips the prime 2
    with pytest.raises(CodingError):
        PAPER.seq_decode(10)     # skips the prime 3
    with pytest.raises(CodingError):
        COMPACT.seq_decode(4)    # "00" is a truncated gamma code


def test_seq_idx_and_len():
    for scheme in (PAPER, COMPACT):
        code = scheme.seq_encode([1, 0, 4])
        assert len(scheme.seq_decode(code)) == 3
        assert [scheme.seq_idx(code, i) for i in range(5)] == [1, 0, 4, 0, 0]
        assert scheme.seq_decode(scheme.seq_encode([])) == []
        assert scheme.is_seq(code) and scheme.is_seq(1)
        with pytest.raises(ValueError):
            scheme.seq_idx(code, -1)
    assert not PAPER.is_seq(5)
    assert not COMPACT.is_seq(4)


@given(st.lists(st.integers(0, 6), max_size=5))
def test_seq_round_trip(entries):
    for scheme in (PAPER, COMPACT):
        assert scheme.seq_decode(scheme.seq_encode(entries)) == entries


@given(st.lists(st.integers(0, 2 ** 100), max_size=40))
@settings(max_examples=80)
def test_compact_seq_encode_is_the_gamma_join(entries):
    code = COMPACT.seq_encode(entries)
    assert code == val("".join(g(e + 1) for e in entries))
    assert COMPACT.seq_decode(code) == entries


def test_compact_seq_encode_edges():
    assert COMPACT.seq_encode([]) == 1
    assert COMPACT.seq_encode([0]) == val(g(1))
    assert COMPACT.seq_encode([2 ** 100]) == val(g(2 ** 100 + 1))
    # long enough to be joined from many runs, an odd number of them
    for entries in ([(k * 7919) ** 5 for k in range(301)], [2 ** 5000] * 3):
        code = COMPACT.seq_encode(entries)
        assert code == val("".join(g(e + 1) for e in entries))
        assert COMPACT.seq_decode(code) == entries


def test_compact_truncated_gamma_codes_raise():
    # a zero run that reaches the end of the code
    for bits in ["0", "000", g(5) + "00", g(1) + "0" * 40]:
        with pytest.raises(CodingError, match="truncated"):
            COMPACT.seq_decode(val(bits))
    # a zero run whose digits are cut short
    for bits in ["0010", "0001", g(3) + "00010", "0" * 30 + "1" * 30]:
        with pytest.raises(CodingError, match="truncated"):
            COMPACT.seq_decode(val(bits))


def _strip_by_division(x, p):
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e, x


_SMALL_PRIMES = [2, 3, 5, 7, 11]


@given(st.sampled_from(_SMALL_PRIMES),
       st.one_of(st.integers(0, 60), st.integers(2600, 6000)),
       st.integers(1, 10 ** 6),
       st.sampled_from(["times_m", "plus_1", "minus_1", "plus_p", "minus_p",
                        "times_q"]))
@settings(max_examples=200)
def test_strip_prime_matches_division_loop(p, e, m, shape):
    # p^e +- p is divisible by p and its log to base p lies within 1e-6
    # of e, so it reaches the pow confirmation and must fail it
    pe = p ** e
    q = next(r for r in (13, 17) if r != p)
    x = {"times_m": pe * m, "plus_1": pe + 1, "minus_1": max(pe - 1, 1),
         "plus_p": pe + p, "minus_p": max(pe - p, 1), "times_q": pe * q}[shape]
    assert strip_prime(x, p) == _strip_by_division(x, p)


def test_strip_prime_large_powers_and_near_misses():
    for p in _SMALL_PRIMES:
        e = 2 * 4096 // p.bit_length() + 1
        pe = p ** e
        assert pe.bit_length() > 4096
        for x in (pe, pe * p, pe * 7 ** 3, pe + 1, pe - 1, pe + p, pe - p,
                  pe + p ** (e // 2), pe * 13, pe * 17 * p):
            assert strip_prime(x, p) == _strip_by_division(x, p), (p, x % 1000)
        assert strip_prime(pe, p) == (e, 1)
    with pytest.raises(ValueError):
        strip_prime(0, 3)


def test_paper_seq_decode_with_a_huge_final_entry():
    entries = [3, 0, 10 ** 6]
    code = PAPER.seq_encode(entries)
    assert code.bit_length() > 2_000_000
    assert PAPER.seq_decode(code) == entries
    with pytest.raises(CodingError, match="skips prime index 1"):
        PAPER.seq_decode(2 * 5 ** (10 ** 6))


def _paper_seq_by_division(code):
    """Entries of a paper sequence code, each prime divided out one by one."""
    entries, i = [], 0
    while code > 1:
        e, code = _strip_by_division(code, nthprime(i))
        if e == 0:
            raise CodingError(f"skips prime index {i}")
        entries.append(e - 1)
        i += 1
    return entries


@given(st.lists(st.one_of(st.integers(0, 70), st.integers(60, 400)), max_size=5),
       st.sampled_from([1, 1, 13, 29, 2 * 7 ** 70]))
@settings(max_examples=150)
def test_paper_seq_decode_defers_large_entries(entries, junk):
    # entries past 63 are deferred after 64 divisions; junk adds a prime
    # past the end or a factor the sequence does not reach
    code = PAPER.seq_encode(entries) * junk
    try:
        want = _paper_seq_by_division(code)
    except CodingError as exc:
        with pytest.raises(CodingError, match=str(exc)):
            PAPER.seq_decode(code)
    else:
        assert PAPER.seq_decode(code) == want


def test_paper_decode_with_a_huge_non_final_entry():
    # <7, (v0 * v0), v0> puts 3^864001 before 5^3: 1.37 Mbit whose one
    # huge entry is not the last
    t = parse_term("((v0 * v0) * v0)")
    x = PAPER.encode_term(t)
    assert x.bit_length() > 1_300_000
    start = time.perf_counter()
    assert PAPER.decode_term(x) == t
    assert PAPER.seq_decode(x) == [7, pseq([7, 2, 2]), 2]
    assert time.perf_counter() - start < 3.0


# -- frozen term and formula codes ---------------------------------------------

TERM_CASES = [
    ("0", 1, 2),
    ("1", 3, 6),
    ("v0", 2, 29),
    ("v1", 4, 114),
    ("v3", 8, val("110" + g(4))),
    ("(v0 + 1)", 1080000, 1974),
    ("(v0 * v0)", pseq([7, 2, 2]), 8157),
]


@pytest.mark.parametrize("src,paper_code,compact_code", TERM_CASES)
def test_term_codes_frozen(src, paper_code, compact_code):
    t = parse_term(src)
    assert PAPER.encode_term(t) == paper_code
    assert COMPACT.encode_term(t) == compact_code
    assert PAPER.decode_term(paper_code) == t
    assert COMPACT.decode_term(compact_code) == t


FORMULA_CASES = [
    ("(0 = 0)", 230400, 8),
    ("(0 <= 1)", pseq([11, 1, 3]), 50),
    ("(v0 = v0)", pseq([9, 2, 2]), 733),
    ("~(0 = 0)", 2 ** 14 * 3 ** 230401, 112),
    ("((0 = 0) -> (0 = 0))", pseq([15, 230400, 230400]), 1920),
    ("(A v0 <= 1)(0 = 0)", pseq([17, 2, 3, 230400]), 4048),
]


def test_compact_bounded_forall_frozen():
    assert COMPACT.encode(parse("(A v0 <= 1)(v0 = v0)")) == 259293


@pytest.mark.parametrize("src,paper_code,compact_code", FORMULA_CASES,
                         ids=[c[0] for c in FORMULA_CASES])
def test_formula_codes_frozen(src, paper_code, compact_code):
    phi = parse(src)
    assert PAPER.encode(phi) == paper_code
    assert COMPACT.encode(phi) == compact_code
    assert PAPER.decode(paper_code) == phi
    assert COMPACT.decode(compact_code) == phi


def test_encode_desugars_sugar():
    phi = parse("((0 = 0) & (E v0 <= 1)(v0 = 1))")
    core = desugar(phi)
    assert COMPACT.encode(phi) == COMPACT.encode(core)
    assert COMPACT.decode(COMPACT.encode(phi)) == core
    # prime-power codes of nested connectives exceed any bit budget
    with pytest.raises(FeasibilityError):
        PAPER.encode(parse("((0 = 0) & (0 = 0))"))


def test_paper_term_variables_whose_code_reads_as_a_composite_are_refused():
    # 2 * 7199 + 2 = 14,400 = <5, 1, 1>, which decodes as (0 + 0)
    assert PAPER.decode_term(14_400) == parse_term("(0 + 0)")
    phi = parse("(v7198 = 0)")
    assert PAPER.decode(PAPER.encode(phi)) is phi
    assert sat_valuation(PAPER.encode(phi), PAPER.val_encode({7198: 5}), PAPER) is False
    bad = parse("(v7199 = 0)")
    for call in (lambda: PAPER.encode(bad), lambda: PAPER.encode_term(Var(7199)),
                 lambda: sat_witness(bad, scheme=PAPER)):
        with pytest.raises(CodingError, match="composite"):
            call()
    # a quantifier's variable slot reads as a variable only
    q = parse("(A v7199 <= 0)(0 = 0)")
    assert PAPER.decode(PAPER.encode(q)) is q


def test_unbounded_forall_codes():
    phi = UForall(0, parse("(0 = 0)"))
    pcode = PAPER.encode(phi)
    assert pcode == pseq([17, 2, 230400])
    assert PAPER.decode(pcode) == phi
    rich = UForall(0, Eq(Var(0), Var(0)))
    ccode = COMPACT.encode(rich)
    assert ccode == val("1111" + g(1) + "1" + "0" + "110" + g(1) + "110" + g(1))
    assert COMPACT.decode(ccode) == rich
    for scheme, target in [(PAPER, phi), (COMPACT, rich)]:
        code = scheme.encode(target)
        assert scheme.decode(code) is target
        assert not scheme.is_delta0_code(code)
    bounded = parse("(A v0 <= 1)(0 = 0)")
    for scheme in (PAPER, COMPACT):
        assert scheme.is_delta0_code(scheme.encode(bounded))


def test_mk_builders_match_encoding():
    # one node of each SYNTAX row over cheap children: prime-power codes
    # grow as exponents, so keep the nested formula small
    for scheme in (PAPER, COMPACT):
        kid = {False: Var(2), True: Eq(Var(2), ZERO) if scheme is COMPACT else Eq(ZERO, ZERO)}
        for cls, row in SYNTAX.items():
            index = [5] if row.index else []
            node = cls(*index, *(kid[formula] for formula in row.kids))
            fields = index + [scheme.encode(kid[formula]) if formula
                              else scheme.encode_term(kid[formula]) for formula in row.kids]
            if issubclass(cls, Formula):
                code, shapes = scheme.encode(node), scheme.formula_shapes
            else:
                code, shapes = scheme.encode_term(node), scheme.term_shapes
            assert scheme.mk(cls, *fields) == code, (scheme.name, row.shape)
            assert shapes(code)[0] == (row.shape, *fields), (scheme.name, row.shape)
        with pytest.raises(CodingError):
            scheme.mk(Var, -1)
        for cls, fields in [(Not, (1, 1)), (And, (1, 1))]:
            with pytest.raises(TypeError):
                scheme.mk(cls, *fields)


def test_paper_variable_composite_overlap():
    # 12 = <1, 0> has no composite reading, so the variable one wins
    assert PAPER.decode_term(12) == Var(5)
    # a well-formed composite is preferred over its variable reading
    assert PAPER.decode_term(1080000) == parse_term("(v0 + 1)")
    assert PAPER.term_shapes(1080000)[0] == ("add", 2, 3)
    assert ("var", (1080000 - 2) // 2) in PAPER.term_shapes(1080000)


def test_decode_failures():
    for scheme, bad_terms, bad_formulas in [
        (PAPER, [0, 5, 9], [0, 1, 2, 3, 12]),
        (COMPACT, [0, 1, 4], [0, 1, 4, 29]),
    ]:
        for x in bad_terms:
            assert not scheme.is_term_code(x)
            with pytest.raises(CodingError):
                scheme.decode_term(x)
        for x in bad_formulas:
            with pytest.raises(CodingError):
                scheme.decode(x)


# Below 2^16, the compact codes that read as a bounded quantifier whose
# variable occurs in its bound, e.g. 16232 = (A v0 <= v0)(0 = 0)
_BOUND_VARIABLE_CODES = [16232, 32466, 32468, 32472, 64938, 64946, 64948]


def test_quantifier_variable_in_its_bound_is_not_a_code():
    assert COMPACT.formula_shapes(16232) == [("bforall", 0, 29, 8)]
    for x in _BOUND_VARIABLE_CODES:
        with pytest.raises(CodingError, match="occurs in its own bound"):
            COMPACT.decode(x)
        assert not COMPACT.is_delta0_code(x)
        assert not syn(COMPACT, "fml_delta0", x)
        assert seqdef(COMPACT, "fml_delta0", (x,)) is Verdict.FALSE
    with pytest.raises(CodingError):
        PAPER.decode(pseq([17, 2, 2, 230400]))


def test_compact_codec_on_every_small_code():
    terms, formulas, shaped = {}, {}, set()
    for x in range(1 << 16):
        if COMPACT.is_term_code(x):
            terms[x] = COMPACT.decode_term(x)
        try:
            formulas[x] = COMPACT.decode(x)
        except CodingError:
            pass
        if COMPACT.formula_shapes(x):
            shaped.add(x)
    assert len(terms) == 307
    assert len(formulas) == 1770
    assert sum(COMPACT.is_delta0_code(x) for x in formulas) == 1617
    # the shape reader reads a code exactly when the node reader does,
    # except where the node itself cannot exist
    assert shaped == set(formulas) | set(_BOUND_VARIABLE_CODES)
    assert {x for x in range(1 << 16) if COMPACT.term_shapes(x)} == set(terms)
    for x, t in terms.items():
        assert COMPACT.encode_term(t) == x
        assert parse(show(t)) is t
        match COMPACT.term_shapes(x):
            case [("add" | "mul", a, b)]:
                assert (COMPACT.decode_term(a), COMPACT.decode_term(b)) == (
                    t.left, t.right)
            case [("var", i)]:
                assert t == Var(i)
    for x, phi in formulas.items():
        assert COMPACT.encode(phi) == x
        # nodes are interned: an equal node, however it is built, is phi
        assert parse(show(phi)) is phi
        assert COMPACT.decode(COMPACT.encode(phi)) is desugar(phi)
        match COMPACT.formula_shapes(x):
            case [("eq" | "le", a, b)]:
                assert (COMPACT.decode_term(a), COMPACT.decode_term(b)) == (
                    phi.left, phi.right)
            case [("not", b)]:
                assert COMPACT.decode(b) == phi.body
            case [("implies", a, b)]:
                assert (COMPACT.decode(a), COMPACT.decode(b)) == (
                    phi.left, phi.right)
            case [("bforall", i, t, b)]:
                assert (i, COMPACT.decode_term(t), COMPACT.decode(b)) == (
                    phi.var, phi.bound, phi.body)
            case [("uforall", i, b)]:
                assert (i, COMPACT.decode(b)) == (phi.var, phi.body)


def _child_seq(x: int) -> list[int] | None:
    """The canonical sequences of the children of x's one formula shape, in
    order, or None when x has no shape or a child does not decode."""
    match COMPACT.formula_shapes(x):
        case [("eq" | "le", u, v)]:
            terms, formulas = [u, v], []
        case [("not", b) | ("uforall", _, b)]:
            terms, formulas = [], [b]
        case [("implies", a, b)]:
            terms, formulas = [], [a, b]
        case [("bforall", _, t, b)]:
            terms, formulas = [t], [b]
        case _:
            return None
    try:
        for u in terms:
            COMPACT.decode_term(u)
        return [e for b in formulas
                for e in canonical_formula_seq(COMPACT, COMPACT.decode(b))]
    except CodingError:
        return None


def _term_child_seq(x: int) -> list[int] | None:
    """The canonical sequences of the children of x's one term shape, in
    order, or None when x has no shape or a child does not decode."""
    match COMPACT.term_shapes(x):
        case [("add" | "mul", a, b)]:
            try:
                return [e for u in (a, b)
                        for e in canonical_term_seq(COMPACT, COMPACT.decode_term(u))]
            except CodingError:
                return None
        case [_]:
            return []
    return None


def test_entry_reader_agrees_with_the_decoder_on_every_small_code():
    # decode is the reference: it reads a code by its own rules, apart
    # from the one entry reader behind check_build_seq
    checked = 0
    for x in range(1 << 16):
        children = _child_seq(x)
        if children is None:
            continue
        s = COMPACT.seq_encode(children + [x])
        assert check_build_seq(COMPACT, "delta0", s, x) == COMPACT.is_delta0_code(x), x
        checked += 1
    assert checked == 1777
    # the same reader takes term entries, for building sequences and for
    # the value runs along them
    y = COMPACT.seq_encode([2, 3])
    terms = 0
    for x in range(1 << 16):
        children = _term_child_seq(x)
        if children is None:
            continue
        entries = children + [x]
        s = COMPACT.seq_encode(entries)
        assert COMPACT.is_term_code(x) and check_build_seq(COMPACT, "term", s, x), x
        if children:
            assert not check_build_seq(COMPACT, "term", COMPACT.seq_encode([x]), x), x
        values = [term_value(COMPACT, e, y, strict=False) for e in entries]
        assert seqdef(COMPACT, "valseq", (y, s, COMPACT.seq_encode(values))) is Verdict.TRUE, x
        bumped = COMPACT.seq_encode(values[:-1] + [values[-1] + 1])
        assert seqdef(COMPACT, "valseq", (y, s, bumped)) is Verdict.FALSE, x
        terms += 1
    assert terms == 307
    assert all(_child_seq(x) is not None for x in _BOUND_VARIABLE_CODES)


@collector_paused()
def test_compact_codec_on_a_100000_deep_numeral():
    t = numeral(100_001)
    bits = "1110" * 100_000 + "10" * 100_001
    x = COMPACT.encode_term(t)
    assert x == val(bits)
    assert COMPACT.is_term_code(x)
    assert COMPACT.decode_term(x) is t
    assert COMPACT.encode_term(COMPACT.decode_term(x)) == x
    assert COMPACT.term_shapes(x) == [
        ("add", val("1110" * 99_999 + "10" * 100_000), val("10"))]
    atom = COMPACT.encode(Eq(t, ZERO))
    assert atom == val("0" + bits + "0")
    assert COMPACT.formula_shapes(atom) == [("eq", x, val("0"))]
    assert COMPACT.encode(COMPACT.decode(atom)) == atom
    # the prime-power writer builds bottom-up, so it stops on the bit
    # budget a few levels up instead of descending 100,000 levels first
    with pytest.raises(FeasibilityError):
        PAPER.encode_term(t)


def test_get_scheme():
    assert get_scheme("paper") is PAPER
    assert get_scheme("compact") is COMPACT
    with pytest.raises(CodingError):
        get_scheme("dense")


# -- valuations ---------------------------------------------------------------

def test_val_codes():
    assert PAPER.val_encode({0: 1, 2: 2}) == 1500 == pseq([1, 0, 2])
    assert COMPACT.val_encode({0: 1, 2: 2}) == 171 == val(g(2) + g(1) + g(3))
    for scheme in (PAPER, COMPACT):
        assert scheme.val_encode({}) == 1
        y = scheme.val_encode({0: 1, 2: 2})
        assert [scheme.seq_idx(y, i) for i in range(4)] == [1, 0, 2, 0]
        with pytest.raises(CodingError):
            scheme.val_encode({-1: 0})
        with pytest.raises(CodingError):
            scheme.val_encode({0: -1})
    assert PAPER.val_encode({0: 1, 1: 2}) == 108
    assert PAPER.val_encode({1: 5}) == 1458


# -- building sequences ---------------------------------------------------------

def test_canonical_term_seq_dedups():
    t = parse_term("((v0 + 1) * v0)")
    for scheme in (PAPER, COMPACT):
        seq = canonical_term_seq(scheme, t)
        assert seq == [
            scheme.encode_term(Var(0)),
            scheme.encode_term(ONE),
            scheme.encode_term(parse_term("(v0 + 1)")),
            scheme.encode_term(t),
        ]
        assert len(set(seq)) == len(seq)


def test_canonical_formula_seq_atoms_are_leaves():
    atom = parse("(0 = 0)")
    phi = parse("((0 = 0) -> ~(0 = 0))")
    a = COMPACT.encode(atom)
    assert canonical_formula_seq(COMPACT, phi) == [
        a, COMPACT.mk(Not, a), COMPACT.encode(phi)]
    # prime-power formula codes blow up as exponents, so stay shallow
    a = PAPER.encode(atom)
    assert canonical_formula_seq(PAPER, Not(atom)) == [a, PAPER.mk(Not, a)]


def test_check_build_seq_accepts_canonical():
    phi = parse("(A v0 <= 1)((v0 + 0) = v0)")
    t = parse_term("((v0 + 1) * v0)")
    s = COMPACT.seq_encode(canonical_formula_seq(COMPACT, phi))
    assert check_build_seq(COMPACT, "formula", s, COMPACT.encode(phi))
    assert check_build_seq(COMPACT, "delta0", s, COMPACT.encode(phi))
    st_ = COMPACT.seq_encode(canonical_term_seq(COMPACT, t))
    assert check_build_seq(COMPACT, "term", st_, COMPACT.encode_term(t))
    # paper scheme: single-atom formula sequences and shallow term
    # sequences are the only materializable ones
    atom = PAPER.encode(parse("(v0 = 1)"))
    assert check_build_seq(PAPER, "formula", PAPER.seq_encode([atom]), atom)
    assert check_build_seq(PAPER, "delta0", PAPER.seq_encode([atom]), atom)
    # <v0, 1, (v0 + 1)> is 2^3 * 3^4 * 5^1080001, about 2.5 Mbit; its
    # last factor is confirmed by one pow rather than divided out
    tp = parse_term("(v0 + 1)")
    sp = PAPER.seq_encode(canonical_term_seq(PAPER, tp))
    assert sp.bit_length() > 2_500_000
    start = time.perf_counter()
    assert check_build_seq(PAPER, "term", sp, PAPER.encode_term(tp))
    assert time.perf_counter() - start < 3.0


def test_check_build_seq_rejections():
    atom = COMPACT.encode(parse("(0 = 0)"))
    neg = COMPACT.mk(Not, atom)
    # child missing: ~(0=0) cannot come first
    assert not check_build_seq(COMPACT, "formula", COMPACT.seq_encode([neg, atom, neg]), neg)
    assert check_build_seq(COMPACT, "formula", COMPACT.seq_encode([atom, neg]), neg)
    # last entry must be the target
    assert not check_build_seq(COMPACT, "formula", COMPACT.seq_encode([atom, neg]), atom)
    for scheme in (PAPER, COMPACT):
        a = scheme.encode(parse("(0 = 0)"))
        # empty sequence certifies nothing
        assert not check_build_seq(scheme, "formula", scheme.seq_encode([]), a)
        # a term code is not a formula entry
        tcode = scheme.encode_term(ONE)
        assert not check_build_seq(scheme, "formula", scheme.seq_encode([tcode]), tcode)
        # non-sequence codes certify nothing
        assert not check_build_seq(scheme, "term", 0, 1)
        # the target must close the sequence even when valid alone
        assert not check_build_seq(scheme, "formula", scheme.seq_encode([a]), a + 1)
    with pytest.raises(ValueError):
        check_build_seq(PAPER, "sentence", 1, 1)
    # the entry reader refuses an unknown kind too, rather than reading it
    # as "delta0"
    with pytest.raises(ValueError):
        build_entries_ok(COMPACT, "fml", [8])


def test_check_build_seq_delta0_rejects_unbounded():
    phi = UForall(0, Eq(Var(0), Var(0)))
    inner = COMPACT.encode(Eq(Var(0), Var(0)))
    code = COMPACT.encode(phi)
    s = COMPACT.seq_encode([inner, code])
    assert check_build_seq(COMPACT, "formula", s, code)
    assert not check_build_seq(COMPACT, "delta0", s, code)


def test_canonical_build_code_frozen():
    assert canonical_build_code(COMPACT, "formula", 8) == 137
    assert canonical_build_code(PAPER, "formula", 230400) == 2 ** 230401
    assert canonical_build_code(PAPER, "term", 2) == 8
    with pytest.raises(CodingError):
        canonical_build_code(PAPER, "formula", 5)


# -- syn search ------------------------------------------------------------------

def test_syn_search_verdicts():
    assert syn_search(COMPACT, "formula", 8) is Verdict.TRUE
    assert syn_search(COMPACT, "delta0", 8) is Verdict.TRUE
    assert syn_search(COMPACT, "formula", 4) is Verdict.FALSE
    assert syn_search(COMPACT, "term", 29) is Verdict.TRUE
    ufa_c = COMPACT.encode(UForall(0, Eq(Var(0), Var(0))))
    assert syn_search(COMPACT, "formula", ufa_c) is Verdict.TRUE
    assert syn_search(COMPACT, "delta0", ufa_c) is Verdict.FALSE
    assert syn_search(PAPER, "formula", 230400) is Verdict.TRUE
    assert syn_search(PAPER, "term", 5) is Verdict.FALSE
    assert syn_search(PAPER, "term", 1080000) is Verdict.TRUE
    ufa_p = PAPER.encode(UForall(0, parse("(0 = 0)")))
    assert syn_search(PAPER, "delta0", ufa_p) is Verdict.FALSE
    # the canonical witness for a composite prime-power code cannot be
    # materialized, so the search honestly reports UNKNOWN
    assert syn_search(PAPER, "formula", ufa_p) is Verdict.UNKNOWN
    with pytest.raises(ValueError):
        syn_search(PAPER, "sentence", 1)


# -- magnitude bounds -------------------------------------------------------------

def test_nthprime_against_sympy():
    for i in range(200):
        assert nthprime(i) == sympy.prime(i + 1)
    for i in (1000, 2999, 3000, 4095, 7919, 9999, 10_000):
        assert nthprime(i) == sympy.prime(i + 1), i
    with pytest.raises(ValueError):
        nthprime(-1)


def test_lazy_pow_exact_and_certified():
    assert LazyPow(base=3, exp=4).try_int() == 81
    assert LazyPow(prime_index=4, exp=2).try_int() == 121
    assert LazyPow(base=2, exp=10 ** 9).try_int() is None
    big = LazyPow(prime_index=10 ** 12, exp=10 ** 12)
    assert big.ge_int(2 ** 100) is True
    assert LazyPow(base=2, exp=3).ge_int(9) is False
    assert LazyPow(base=2, exp=3).ge_int(8) is True
    nested = LazyPow(prime_index=7, exp=LazyPow(base=10, exp=10 ** 6))
    assert nested.ge_int(2 ** 64) is True
    assert magnitude_ge(100, 99) is True
    assert magnitude_ge(LazyPow(base=2, exp=5), 33) is False
    with pytest.raises(ValueError):
        LazyPow(base=1, exp=2)
    with pytest.raises(ValueError):
        LazyPow()


def test_buildseq_bounds_frozen():
    assert PAPER.buildseq_bound(0).try_int() == 2
    assert PAPER.buildseq_bound(2).try_int() == 5 ** 9
    assert COMPACT.buildseq_bound(8) == 2 ** ((3 + 1) * (2 * 3 + 3) + 1)
    assert magnitude_ge(COMPACT.buildseq_bound(8), 137) is True


def test_termval_bound_frozen():
    assert PAPER.termval_bound(1, 1).try_int() == 9
    assert PAPER.termval_bound(0, 0).try_int() == 4
    assert PAPER.termval_bound(2, 0).try_int() == 5
    assert PAPER.termval_bound(2, 3).try_int() == 5 ** 10
    huge = PAPER.termval_bound(10 ** 9, 10 ** 9)
    assert huge.ge_int(2 ** 128) is True


# -- named syntactic predicates ------------------------------------------------

def test_syn_var_examples():
    assert syn(PAPER, "var", 2) is True
    assert syn(PAPER, "var", 3) is False
    assert syn(PAPER, "var", 104) is True
    assert syn(COMPACT, "var", COMPACT.encode_term(Var(3))) is True
    assert syn(COMPACT, "var", COMPACT.encode_term(parse_term("(v0 + 1)"))) is False


def test_syn_trm_atm_examples():
    # paper codes blow up under nesting, so its negation gets a small child
    for scheme, neg in ((PAPER, "~(0 = 0)"), (COMPACT, "~(v0 = v0)")):
        assert syn(scheme, "trm", scheme.encode_term(parse_term("(v0 + 1)"))) is True
        assert syn(scheme, "atm", scheme.encode(parse("(v0 = v0)"))) is True
        assert syn(scheme, "atm", scheme.encode(parse(neg))) is False
        assert syn(scheme, "fml_delta0", scheme.encode(parse(neg))) is True
    assert syn(COMPACT, "trm", COMPACT.encode(parse("(0 = 0)"))) is False
    assert syn(COMPACT, "fml_delta0",
               COMPACT.encode(parse("(A v0)(v0 = v0)"))) is False


def test_syn_input_checks():
    with pytest.raises(ValueError):
        syn(PAPER, "term", 2)
    with pytest.raises(ValueError):
        syn(PAPER, "var", -1)


def test_seqdef_trmseq_examples():
    v0 = PAPER.encode_term(Var(0))
    assert seqdef(PAPER, "trmseq", (PAPER.seq_encode([v0]),)) is Verdict.TRUE
    dangling = COMPACT.seq_encode([COMPACT.encode_term(parse_term("(v0 + 1)"))])
    assert seqdef(COMPACT, "trmseq", (dangling,)) is Verdict.FALSE
    full = COMPACT.seq_encode(
        canonical_term_seq(COMPACT, parse_term("(v0 + 1)")))
    assert seqdef(COMPACT, "trmseq", (full,)) is Verdict.TRUE
    assert seqdef(COMPACT, "trmseq", (0,)) is Verdict.FALSE


def test_seqdef_formula_seq():
    phi = parse("((A v0 <= 1)(v0 = v0) -> (0 = 1))")
    s = COMPACT.seq_encode(canonical_formula_seq(COMPACT, phi))
    assert seqdef(COMPACT, "fml_delta0_seq", (s,)) is Verdict.TRUE
    alone = COMPACT.seq_encode([COMPACT.encode(phi)])
    assert seqdef(COMPACT, "fml_delta0_seq", (alone,)) is Verdict.FALSE


def test_seqdef_valseq_examples():
    for scheme in (PAPER, COMPACT):
        y = scheme.seq_encode([3])
        s = scheme.seq_encode([scheme.encode_term(Var(0))])
        assert seqdef(scheme, "valseq",
                      (y, s, scheme.seq_encode([3]))) is Verdict.TRUE
        assert seqdef(scheme, "valseq",
                      (y, s, scheme.seq_encode([4]))) is Verdict.FALSE


def test_valseq_composites_and_constants():
    t = parse_term("((v0 + 1) * v0)")
    entries = canonical_term_seq(COMPACT, t)
    s = COMPACT.seq_encode(entries)
    y = COMPACT.val_encode({0: 3})
    values = [term_value(COMPACT, e, y) for e in entries]
    good = COMPACT.seq_encode(values)
    assert values == [3, 1, 4, 12]
    assert seqdef(COMPACT, "valseq", (y, s, good)) is Verdict.TRUE
    for pos in range(len(values)):
        bad = values.copy()
        bad[pos] += 1
        assert seqdef(COMPACT, "valseq",
                      (y, s, COMPACT.seq_encode(bad))) is Verdict.FALSE
    assert seqdef(COMPACT, "valseq",
                  (y, s, COMPACT.seq_encode(values[:-1]))) is Verdict.FALSE
    assert seqdef(COMPACT, "valseq", (0, s, good)) is Verdict.FALSE


def test_valseq_reads_valuation_at_variable_index():
    # entry v1 sits at sequence position 0; its value is y's entry 1
    for scheme in (PAPER, COMPACT):
        y = scheme.seq_encode([9, 4])
        s = scheme.seq_encode([scheme.encode_term(Var(1))])
        assert seqdef(scheme, "valseq",
                      (y, s, scheme.seq_encode([4]))) is Verdict.TRUE
        assert seqdef(scheme, "valseq",
                      (y, s, scheme.seq_encode([9]))) is Verdict.FALSE


def test_seqdef_wrapped_predicates():
    x = COMPACT.encode_term(parse_term("((1 + 1) * v2)"))
    assert seqdef(COMPACT, "trm", (x,)) is Verdict.TRUE
    assert seqdef(COMPACT, "trm",
                  (COMPACT.encode(parse("(0 = 0)")),)) is Verdict.FALSE
    phi = COMPACT.encode(parse("(A v0 <= 1)(0 = 0)"))
    assert seqdef(COMPACT, "fml_delta0", (phi,)) is Verdict.TRUE
    assert seqdef(COMPACT, "fml_delta0", (x,)) is Verdict.FALSE
    assert seqdef(PAPER, "var", (6,)) is Verdict.TRUE
    assert seqdef(PAPER, "atm",
                  (PAPER.encode(parse("(0 <= v0)")),)) is Verdict.TRUE


def test_seqdef_val_examples():
    x = COMPACT.encode_term(parse_term("(v0 * v1)"))
    y = COMPACT.seq_encode([2, 5])
    assert seqdef(COMPACT, "val", (x, y, 10)) is Verdict.TRUE
    assert seqdef(COMPACT, "val", (x, y, 11)) is Verdict.FALSE
    assert seqdef(COMPACT, "val",
                  (COMPACT.encode(parse("(0 = 0)")), y, 0)) is Verdict.FALSE
    assert seqdef(COMPACT, "val", (x, 0, 10)) is Verdict.FALSE


def test_seqdef_val_paper_witness_sizes():
    # materializable witness, certified against the stated bounds
    x = PAPER.encode_term(parse_term("(v0 * v0)"))
    y = PAPER.seq_encode([3])
    assert seqdef(PAPER, "val", (x, y, 9)) is Verdict.TRUE
    # a 157-bit subterm code as an exponent takes the witness sequence past BITS_CAP
    wide = PAPER.encode_term(parse_term("(v0 + v31)"))
    assert seqdef(PAPER, "val", (wide, y, 3)) is Verdict.UNKNOWN


def test_seqdef_input_checks():
    with pytest.raises(ValueError):
        seqdef(PAPER, "nope", (2,))
    with pytest.raises(ValueError):
        seqdef(PAPER, "trmseq", (-1,))


def test_val_examples():
    assert term_value(PAPER, PAPER.encode_term(parse_term("(v0 + v0)")),
                      PAPER.seq_encode([3])) == 6
    assert term_value(PAPER, PAPER.encode_term(parse_term("1")), 1) == 1
    assert term_value(COMPACT, COMPACT.encode_term(parse_term("(v0 * v1)")),
                      COMPACT.seq_encode([2, 5])) == 10


def test_val_errors():
    with pytest.raises(CodingError, match="not a term"):
        term_value(COMPACT, COMPACT.encode(parse("(0 = 0)")), 1)
    with pytest.raises(CodingError, match="does not cover"):
        term_value(PAPER, PAPER.encode_term(parse_term("(v0 * v1)")),
                   PAPER.seq_encode([2]))
    assert term_value(PAPER, PAPER.encode_term(parse_term("(v0 * v1)")),
                      PAPER.seq_encode([2]), strict=False) == 0


def test_paper_bound_examples():
    assert magnitude_to_int(PAPER.buildseq_bound(2)) == 5 ** 9 == 1953125
    assert magnitude_to_int(PAPER.buildseq_bound(0)) == 2
    assert magnitude_to_int(PAPER.termval_bound(1, 1)) == 9
    huge = PAPER.buildseq_bound(10 ** 9)
    assert isinstance(huge, LazyPow) and magnitude_to_int(huge) is None
    assert huge.ge_int(2 ** 256) is True


def test_syn_agrees_with_wrapped_seqdef_small_codes():
    for scheme in (PAPER, COMPACT):
        for x in range(200):
            for pred in ("trm", "fml_delta0"):
                v = seqdef(scheme, pred, (x,), budget=5000)
                assert v is not Verdict.UNKNOWN
                assert (v is Verdict.TRUE) == syn(scheme, pred, x), (pred, x)


# -- properties --------------------------------------------------------------------

_tiny_terms = st.sampled_from([ZERO, ONE, Var(0), Var(1)])
_paper_atoms = st.builds(
    lambda op, l, r: op(l, r), st.sampled_from([Eq, Le]), _tiny_terms, _tiny_terms)


def _deep_terms(depth):
    return st.recursive(_tiny_terms, lambda kids: st.builds(Add, kids, kids)
                        | st.builds(Mul, kids, kids), max_leaves=depth + 1)


def _formulas():
    atoms = (st.builds(Eq, _deep_terms(2), _deep_terms(2))
             | st.builds(Le, _deep_terms(2), _deep_terms(2)))
    return st.recursive(
        atoms,
        lambda kids: st.builds(Not, kids)
        | st.builds(Implies, kids, kids)
        | st.builds(lambda b: BForall(0, ONE, b), kids)
        | st.builds(lambda b: UForall(1, b), kids),
        max_leaves=4)


@given(_formulas())
@settings(max_examples=80)
def test_compact_round_trip_property(phi):
    code = COMPACT.encode(phi)
    assert COMPACT.decode(code) == desugar(phi)


@given(_paper_atoms)
@settings(max_examples=40)
def test_paper_round_trip_atoms(phi):
    code = PAPER.encode(phi)
    assert PAPER.decode(code) == phi


@given(_formulas())
@settings(max_examples=40)
def test_compact_canonical_seq_checks_and_fits(phi):
    x = COMPACT.encode(phi)
    s = canonical_build_code(COMPACT, "formula", x)
    assert check_build_seq(COMPACT, "formula", s, x)
    assert magnitude_ge(COMPACT.buildseq_bound(x), s) is True
    assert syn_search(COMPACT, "formula", x) is Verdict.TRUE


@given(_deep_terms(3))
@settings(max_examples=40)
def test_compact_term_seq_checks(t):
    x = COMPACT.encode_term(t)
    s = COMPACT.seq_encode(canonical_term_seq(COMPACT, t))
    assert check_build_seq(COMPACT, "term", s, x)
    assert COMPACT.decode_term(x) == t
