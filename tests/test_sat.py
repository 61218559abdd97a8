"""Satisfaction tests: direct checks, annotated runs, diagonal, PR form."""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delta0lab.coding import (
    COMPACT, PAPER, CodingError, build_entries_ok, canonical_formula_seq,
    check_build_seq, quantifier_bound,
)
from delta0lab.coding import val as term_value
from delta0lab.formulas import (
    ONE, ZERO, Add, BForall, Eq, Implies, Le, Mul, Not, Var, desugar, free_vars, parse,
    parse_term,
)
from delta0lab.nodes import postorder
from delta0lab.numbers import BITS_CAP, magnitude_ge
from delta0lab.primrec import (
    MUL, Comp, Evaluator, FeasibilityError, PrimRec, Proj, eval_pr, validate,
)
from delta0lab.prlib import and_, ex, fn, rel_bexists
from delta0lab.satisfaction import (
    SatError,
    _atom_cap,
    _atom_clause,
    falsify,
    sat_valuation,
    sat_witness,
    satseq_check,
    triple_decode,
    triple_encode,
)
from delta0lab.satpr import (
    KIT_OPS,
    _assemble,
    codec_twin,
    sat_as_pr,
    sat_pr_eval,
    sat_pr_parts,
)
from delta0lab.semantics import NotDelta0Error, Verdict, eval_delta0

CORPUS = [
    "(0 = 0)",
    "(0 <= 1)",
    "~(0 = 0)",
    "(v0 = v0)",
    "(v0 <= (v0 + 1))",
    "((v0 + v1) = (v1 + v0))",
    "((v0 = v1) -> (v0 <= v1))",
    "~((v0 + 1) <= v0)",
    "(A v0 <= ((1 + 1) + 1))(v0 <= ((1 + 1) + 1))",
    "(A v2 <= v0)((v2 * 1) = v2)",
    "(E v1 <= v0)(v0 = (v1 + v1))",
    "((1 <= v0) & (v0 <= (1 + 1)))",
]


def code_of(text, scheme=COMPACT):
    return scheme.encode(parse(text))


# -- direct satisfaction ------------------------------------------------------

def sat_direct(x, a):
    """The pair form: every free variable of the formula coded by x reads a."""
    width = max(free_vars(COMPACT.decode(x)), default=-1) + 1
    return sat_valuation(x, COMPACT.seq_encode([a] * width))


def test_sat_direct_examples():
    assert sat_direct(code_of("(v0 <= (v0+1))"), 5) is True
    assert sat_direct(code_of("~(v0 = v0)"), 0) is False
    assert sat_direct(code_of("(E v1 <= v0)(v0 = (v1+v1))"), 6) is True


def test_sat_direct_rejects_unbounded():
    from delta0lab.formulas import UForall
    x = COMPACT.encode(UForall(0, parse("(v0 = v0)")))
    with pytest.raises(NotDelta0Error):
        sat_valuation(x, COMPACT.seq_encode([0]))


def test_sat_direct_matches_substitution():
    for text in CORPUS:
        phi = desugar(parse(text))
        x = COMPACT.encode(phi)
        for a in range(21):
            want = eval_delta0(phi, {i: a for i in free_vars(phi)})
            assert sat_direct(x, a) == want, (text, a)


def test_pair_form_is_constant_sequence_reduction():
    # positions past the last free variable are never read
    for text in CORPUS:
        x = COMPACT.encode(desugar(parse(text)))
        for a in range(7):
            longer = COMPACT.seq_encode([a] * 8)
            assert sat_valuation(x, longer) == sat_direct(x, a), (text, a)


@pytest.mark.parametrize("scheme, y", [(COMPACT, 0), (COMPACT, 2), (PAPER, 0), (PAPER, 3)],
                         ids=["compact-0", "compact-2", "paper-0", "paper-3"])
def test_a_closed_formula_needs_a_valuation_sequence(scheme, y):
    # y codes no sequence, so there is no valuation to read: sat_valuation
    # refuses it as sat_witness does, even for a closed formula
    for text in ("(0 = 0)", "(v0 = v0)"):
        x = scheme.encode(parse(text))
        with pytest.raises(CodingError):
            sat_valuation(x, y, scheme)
        with pytest.raises(CodingError):
            sat_witness(x, y, scheme)


def test_valuation_reads_by_variable_index():
    x = COMPACT.encode(parse("(v1 = (v0 + v0))"))
    assert sat_valuation(x, COMPACT.seq_encode([3, 6])) is True
    assert sat_valuation(x, COMPACT.seq_encode([6, 3])) is False
    # missing positions read as zero
    assert sat_valuation(x, COMPACT.seq_encode([])) is True


# -- annotation triples -------------------------------------------------------

def test_triple_codes_frozen():
    assert triple_encode(0, 1, 1) == 15
    assert triple_decode(15) == (0, 1, 1)
    assert triple_decode(7) is None
    assert triple_decode(0) is None


@given(st.integers(0, 40), st.one_of(st.integers(0, 40), st.integers(0, 2 ** 18)),
       st.integers(0, 3))
def test_triple_round_trip(i, z, w):
    assert triple_decode(triple_encode(i, z, w)) == (i, z, w)


@pytest.mark.parametrize("z", [0, 1, 5000, 2 ** 18])
def test_triple_decode_rejects_other_primes(z):
    assert triple_decode(7 * 3 ** z) is None
    assert triple_decode(3 ** z * 5 * 11) is None
    assert triple_decode(2 * 3 ** z * 5 + 1) is None


def test_a_triple_no_sequence_could_hold_is_refused_before_it_is_built():
    start = time.perf_counter()
    with pytest.raises(FeasibilityError):
        triple_encode(0, 2 ** 26, 1)
    with pytest.raises(FeasibilityError):
        triple_encode(BITS_CAP + 1, 0, 0)
    # the diagonal point of ~(v0 = v0), whose valuation has 26 bits: the
    # first triple would have 3^z of about 53 Mbit
    got = falsify(parse("(v0 = v0)"))
    with pytest.raises(FeasibilityError):
        sat_witness(got.diagonal_formula, COMPACT.val_encode({0: got.m}))
    assert time.perf_counter() - start < 1
    # the widest triple that fits is built
    assert triple_encode(BITS_CAP - 1, 0, 0).bit_length() == BITS_CAP


# -- the run checker ----------------------------------------------------------

def test_satseq_spec_examples():
    s = COMPACT.seq_encode([code_of("(v0 = v0)")])
    z3 = COMPACT.seq_encode([3])
    t = COMPACT.seq_encode([triple_encode(0, z3, 1)])
    assert satseq_check(s, t) is Verdict.TRUE
    t0 = COMPACT.seq_encode([triple_encode(0, z3, 0)])
    assert satseq_check(s, t0) is Verdict.FALSE
    bad_s = COMPACT.seq_encode([29])  # a term code is not a formula entry
    assert satseq_check(bad_s, t) is Verdict.FALSE


def test_satseq_checks_the_building_sequence():
    # with no triples to check, a run is accepted exactly when s is a
    # Delta0 building sequence
    for s in range(1, 1 << 14):
        try:
            entries = COMPACT.seq_decode(s)
        except CodingError:
            assert satseq_check(s, 1) is Verdict.FALSE
            continue
        want = Verdict.of(build_entries_ok(COMPACT, "delta0", entries))
        assert satseq_check(s, 1) is want, entries
    # the entries of small sequences above are small codes; these are not
    unbounded = COMPACT.encode(parse("(A v3)(v3 = v3)"))
    for text in CORPUS:
        s = COMPACT.seq_encode(canonical_formula_seq(COMPACT, parse(text)))
        assert satseq_check(s, 1) is Verdict.TRUE
        for entries in ([unbounded] + COMPACT.seq_decode(s),
                        COMPACT.seq_decode(s)[1:]):
            want = Verdict.of(build_entries_ok(COMPACT, "delta0", entries))
            assert satseq_check(COMPACT.seq_encode(entries), 1) is want


# Below 2^16, the compact codes that read as a bounded universal whose
# variable occurs in its bound, e.g. 16232 = (A v0 <= v0)(0 = 0)
BOUND_VARIABLE_CODES = [16232, 32466, 32468, 32472, 64938, 64946, 64948]


def test_entry_checkers_reject_a_variable_in_its_own_bound():
    for x in BOUND_VARIABLE_CODES:
        (_, var, u, body), = COMPACT.formula_shapes(x)
        assert var == 0 and quantifier_bound(COMPACT, var, u) is None
        assert not check_build_seq(COMPACT, "delta0", COMPACT.seq_encode([8, x]), x)
        # at v0 = 0 the bound is 0, so one body triple at z covers the
        # universal: a run both checkers accepted when they took the entry
        z = COMPACT.seq_encode([0])
        w = int(eval_delta0(COMPACT.decode(body), {0: 0}))
        s = COMPACT.seq_encode([body, x])
        t = COMPACT.seq_encode([triple_encode(0, z, w), triple_encode(1, z, w)])
        assert not check_build_seq(COMPACT, "delta0", s, x)
        assert satseq_check(s, t) is Verdict.FALSE
        # the same entry bounded by v1 instead is a code, and its run checks
        fixed = COMPACT.encode(BForall(0, Var(1), COMPACT.decode(body)))
        z2 = COMPACT.seq_encode([0, 0])
        s2 = COMPACT.seq_encode([body, fixed])
        t2 = COMPACT.seq_encode([triple_encode(0, z2, w), triple_encode(1, z2, w)])
        assert check_build_seq(COMPACT, "delta0", s2, fixed)
        assert satseq_check(s2, t2) is Verdict.TRUE


def test_emitted_fmlseq_rejects_a_variable_in_its_own_bound():
    # the PR bfa step reads v and the bound u off the entry, and v must be
    # no entry of s*(u), which holds every subterm of u
    fmlseq = sat_pr_parts(COMPACT)["fmlseq"]
    for x in BOUND_VARIABLE_CODES:
        (_, _, _, body), = COMPACT.formula_shapes(x)
        s = COMPACT.seq_encode([body, x])
        assert eval_pr(fmlseq, (s,), max_steps=5_000) == 0, x
    s = COMPACT.seq_encode(canonical_formula_seq(COMPACT, parse("(A v1 <= v0)(0 = 0)")))
    assert eval_pr(fmlseq, (s,), max_steps=5_000) == 1


def test_satseq_check_reads_each_entry_once(monkeypatch):
    # the last child of an entry is the rest of its bits, looked up among
    # the earlier entries, so a ~ chain costs one tag read per entry;
    # reading each child to its end cost one per node below the entry
    import delta0lab.coding as coding_module
    real, calls = coding_module._tag, [0]

    def counted(bits, pos):
        calls[0] += 1
        return real(bits, pos)

    counts = []
    for depth in (100, 1_000):
        phi = parse("(0 = 1)")
        for _ in range(depth):
            phi = Not(phi)
        run = sat_witness(phi, 1)
        calls[0] = 0
        with monkeypatch.context() as patch:
            patch.setattr(coding_module, "_tag", counted)
            assert satseq_check(run.s, run.t) is Verdict.TRUE
        counts.append(calls[0])
    # depth + 1 entries: one read per ~ entry, and a fixed few for the atom
    assert counts[1] - counts[0] == 900
    assert counts[0] < 2 * 101


def test_satseq_empty_annotation_is_vacuous():
    s = COMPACT.seq_encode([code_of("(0 = 0)")])
    assert satseq_check(s, COMPACT.seq_encode([])) is Verdict.TRUE


def test_witness_corpus_compact():
    for text in CORPUS:
        phi = desugar(parse(text))
        x = COMPACT.encode(phi)
        for vals in ([], [3], [2, 5]):
            y = COMPACT.seq_encode(vals)
            inst = sat_witness(phi, y)
            assert satseq_check(inst.s, inst.t) is Verdict.TRUE, (text, vals)
            assert inst.value == sat_valuation(x, y), (text, vals)
            assert COMPACT.seq_decode(inst.s)[-1] == x


def test_witness_corpus_paper():
    # the prime-power scheme nests whole codes inside exponents, so a
    # composite formula entry already blows the sequence bit budget; only
    # atoms over depth-zero terms have encodable building sequences
    for text in ("(0 = 0)", "(0 <= 1)", "(v0 = v0)", "(1 <= v0)",
                 "(v1 = v0)"):
        phi = parse(text)
        inst = sat_witness(phi, scheme=PAPER)
        assert satseq_check(inst.s, inst.t, scheme=PAPER) is Verdict.TRUE
        assert inst.value == sat_valuation(PAPER.encode(phi), 1, PAPER)
    # s = 2^(c + 1) for the atom's code c: 31,104,001 bits for (v1 = v0),
    # 86,400,001 for (v0 = v1), which is past BITS_CAP
    with pytest.raises(FeasibilityError, match="BITS_CAP"):
        sat_witness(parse("(v0 = v1)"), scheme=PAPER)


def _corruptions(inst, scheme):
    """Single-field damages that can never certify the same run."""
    entries = scheme.seq_decode(inst.s)
    triples = [triple_decode(tau) for tau in scheme.seq_decode(inst.t)]
    out = []
    for pos, (i, z, w) in enumerate(triples):
        for mutant in ((i, z, 1 - w), (i + len(entries), z, w)):
            changed = list(triples)
            changed[pos] = mutant
            out.append((inst.s,
                        scheme.seq_encode([triple_encode(*p)
                                           for p in changed])))
    # a non-triple annotation entry
    out.append((inst.s, scheme.seq_encode(
        [triple_encode(*p) for p in triples] + [7])))
    # drop a child's triple, or log it at another valuation: the valuation
    # with one more entry, which reads the same but has another code
    for pos, (i, z, w) in enumerate(triples[:-1]):
        longer = scheme.seq_encode(scheme.seq_decode(z) + [0])
        for changed in (triples[:pos] + triples[pos + 1:],
                        triples[:pos] + [(i, longer, w)] + triples[pos + 1:]):
            out.append((inst.s, scheme.seq_encode([triple_encode(*p) for p in changed])))
    # damage the building sequence root
    out.append((scheme.seq_encode(entries[:-1] + [0]), inst.t))
    if len(triples) > 1:
        # parents before children breaks every justification lookup
        out.append((inst.s, scheme.seq_encode(
            [triple_encode(*p) for p in reversed(triples)])))
    return out


def test_witness_corruptions_rejected():
    mutants = 0
    for text in CORPUS:
        inst = sat_witness(desugar(parse(text)), COMPACT.seq_encode([3]))
        for s, t in _corruptions(inst, COMPACT):
            assert satseq_check(s, t) is Verdict.FALSE, text
            mutants += 1
    # 50 of them drop a child's triple or move it to another valuation
    assert mutants == 155


_ATOM_SIDES = ["0", "1", "v0", "v1", "(1 + 1)", "((1 + 1) * (1 + 1))",
               "(v0 * v1)", "((v0 * v0) * v0)"]


@given(st.sampled_from(["eq", "le"]),
       st.sampled_from(_ATOM_SIDES), st.sampled_from(_ATOM_SIDES),
       st.one_of(st.just([]), st.lists(st.integers(0, 300), max_size=2)),
       st.integers(0, 1))
@settings(max_examples=150)
def test_atom_clause_cap_shortcut_keeps_verdicts(op, left, right, zs, w):
    # the exact clause: build the stated cap and compare it with the witness;
    # z = 1 (the empty valuation) makes the shortcut fall through to it
    scheme = COMPACT
    u = scheme.encode_term(parse_term(left))
    v = scheme.encode_term(parse_term(right))
    z = scheme.seq_encode(zs)
    a = term_value(scheme, u, z, strict=False)
    b = term_value(scheme, v, z, strict=False)
    if (a != b) if op == "eq" else (a > b):
        expected = Verdict.of(w == 0)
    else:
        fit = magnitude_ge(_atom_cap(u, v, z), max(a, b))
        expected = Verdict.UNKNOWN if fit is None else Verdict.of((w == 1) == fit)
    assert _atom_clause(scheme, op, u, v, z, w, parse_term(left),
                        parse_term(right)) is expected


def test_satseq_budget_truncation_unknown():
    five = "((((1 + 1) + 1) + 1) + 1)"
    inst = sat_witness(parse(f"(A v0 <= {five})(v0 <= {five})"))
    assert satseq_check(inst.s, inst.t) is Verdict.TRUE
    assert satseq_check(inst.s, inst.t, budget=2) is Verdict.UNKNOWN


# -- the diagonal falsifier ---------------------------------------------------

def test_falsify_spec_examples():
    got = falsify(parse("(v0 = v0)"))
    assert got.diagonal_formula == parse("~(v0 = v0)")
    assert got.point == (got.m, got.m)
    assert got.m == COMPACT.encode(got.diagonal_formula)
    assert got.candidate_value is Verdict.TRUE
    assert got.sat_value is Verdict.FALSE

    got = falsify(parse("~(v0 = v0)"))
    assert got.candidate_value is Verdict.FALSE
    assert got.sat_value is Verdict.TRUE

    got = falsify(parse("(v0 <= v1)"))
    assert got.diagonal_formula == parse("~(v0 <= v0)")
    assert got.candidate_value is Verdict.TRUE
    assert got.sat_value is Verdict.FALSE


QF_CANDIDATES = [
    "(v0 = v0)",
    "~(v0 = v0)",
    "(v0 <= v1)",
    "(v1 <= v0)",
    "((v0 + v1) <= (v1 + v0))",
    "(0 = 0)",
    "((v0 = v1) -> (v1 = v0))",
]


def test_falsify_quantifier_free_candidates():
    decided = 0
    for text in QF_CANDIDATES:
        got = falsify(parse(text))
        assert got.candidate_value.decided and got.sat_value.decided, text
        assert got.refuted is True, text
        decided += 1
    assert decided >= 5


def test_falsify_quantified_candidates():
    got = falsify(parse("(E v2 <= v0)((v2 * v2) <= v1)"))
    assert got.point == (got.m, got.m)
    assert got.candidate_value is Verdict.TRUE
    assert got.sat_value is Verdict.FALSE

    got = falsify(parse("(A v2 <= v1)((1 + v0) <= (v2 + v0))"))
    assert got.point == (got.m, got.m)
    assert got.candidate_value is Verdict.FALSE
    assert got.sat_value is Verdict.TRUE


def test_falsify_diagonal_avoids_capture():
    # a bound v1 inside the candidate must not capture the diagonal v0
    got = falsify(parse("(A v1 <= v0)(v1 <= v0)"))
    assert got.refuted in (True, None)
    if got.refuted is None:
        assert not (got.candidate_value.decided and got.sat_value.decided)


# perfbench's diagonal SWEEPING candidates: at m of 28 and 43 bits each
# quantifier ranges over about 10^8 and 10^13 points
SWEEPING = [
    ("(A v1 <= v0)(v1 <= v0)", Verdict.TRUE, Verdict.FALSE),
    ("(E v2 <= v1)((v2 + v2) = v0)", Verdict.FALSE, Verdict.TRUE),
]


@pytest.mark.parametrize("text, candidate_value, sat_value", SWEEPING)
def test_falsify_decides_the_sweeping_candidates(text, candidate_value, sat_value):
    start = time.perf_counter()
    got = falsify(parse(text))
    assert time.perf_counter() - start < 1.0
    assert got.refuted is True
    assert (got.candidate_value, got.sat_value) == (candidate_value, sat_value)


def test_falsify_paper_scheme_budgeted():
    got = falsify(parse("(v0 = v0)"), scheme=PAPER)
    assert got.m == PAPER.encode(got.diagonal_formula)
    assert got.candidate_value is Verdict.TRUE
    assert got.sat_value is Verdict.FALSE


@pytest.mark.parametrize("text", ["(E v2 <= v0)((v2 * v2) <= v1)",
                                  "(A v2 <= v1)(v2 = v2)"])
def test_falsify_paper_scheme_refuses_quantified_candidates(text):
    with pytest.raises(FeasibilityError):
        falsify(parse(text), scheme=PAPER)


def test_falsify_rejects_bad_candidates():
    with pytest.raises(SatError):
        falsify(parse("(v2 = v0)"))
    from delta0lab.formulas import UForall
    with pytest.raises(SatError):
        falsify(UForall(1, parse("(v0 = v1)")))


# -- the PR form --------------------------------------------------------------

def test_sat_as_pr_validates_both_schemes():
    assert validate(sat_as_pr(COMPACT)) == 2
    assert validate(sat_as_pr(PAPER)) == 2
    assert sat_as_pr(COMPACT) is sat_as_pr(COMPACT)


def _reachable(t):
    seen, stack = {}, [t]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        if isinstance(node, Comp):
            stack += [node.f, *node.gs]
        elif isinstance(node, PrimRec):
            stack += [node.f, node.g]
    return list(seen.values())


def _structure_key(node):
    # class and fields, children by identity
    if isinstance(node, Comp):
        return Comp, id(node.f), tuple(id(g) for g in node.gs)
    if isinstance(node, PrimRec):
        return PrimRec, id(node.f), id(node.g)
    if isinstance(node, Proj):
        return Proj, node.i, node.n
    return (type(node),)


def test_sat_term_shares_every_equal_subterm():
    for scheme in (COMPACT, PAPER):
        nodes = _reachable(sat_as_pr(scheme))
        assert len({_structure_key(n) for n in nodes}) == len(nodes), scheme


def test_assembling_again_returns_identical_terms():
    parts = sat_pr_parts(COMPACT)
    rebuilt = _assemble(KIT_OPS["compact"])
    assert all(rebuilt[k] is parts[k] for k in rebuilt)


def test_sat_as_pr_contains_named_stages():
    for scheme in (COMPACT, PAPER):
        parts = sat_pr_parts(scheme)
        term = parts["term"]
        for stage in ("trmseq", "valseq", "satseq", "matrix"):
            assert parts[stage] in postorder(term), stage
        assert term not in postorder(parts["trmseq"])


def test_sat_as_pr_minimal_instance_agrees():
    smallest = next(x for x in range(1, 20) if _is_formula_code(x))
    assert smallest == 8
    assert sat_pr_eval(8, 1) == 1 == int(sat_valuation(8, 1))


def _is_formula_code(x):
    try:
        COMPACT.decode(x)
        return True
    except Exception:
        return False


def test_sat_as_pr_second_instance_agrees():
    x = code_of("(0 <= 0)")
    assert sat_pr_eval(x, 1, max_steps=10_000_000) == 1 == int(sat_valuation(x, 1))


def test_sat_as_pr_fourth_instance_agrees():
    x = code_of("(0 <= 1)")
    assert x == 50
    assert sat_pr_eval(x, 1) == 1 == int(sat_valuation(x, 1))


def test_sat_pr_runs_past_the_prime_power_b1():
    # under the paper's B1 = prime(x)^((x+1)^2), B2 at x = 77 had over 2^32
    # bits, and every x >= 54 was refused up front; B1 is buildseq_bound now.
    # Every true Delta0 code x <= 4096 at y = 1 is checked: the 103
    # quantifier-free ones run within one budget, a floor for satpr's
    # docstring.  The most, 236,109 steps, go to (0 = (v0 * 0)) at 2554 and
    # 3060, nearly all of them PRIME(u + v) of the atom cap at u + v = 1020
    free, quantified = [], []
    for x in range(4097):
        if COMPACT.is_delta0_code(x) and sat_valuation(x, 1):
            phi = COMPACT.decode(x)
            (quantified if any(isinstance(n, BForall) for n in postorder(phi))
             else free).append(x)
    assert len(free) == 103 and quantified == [2016, 4040, 4048]
    for x in free:
        assert sat_pr_eval(x, 1, max_steps=300_000) == 1, x
    for x in quantified:
        with pytest.raises(FeasibilityError, match="quantifier-free"):
            sat_pr_eval(x, 1)
    # the step budget is all that stops a run, and it stops one at once:
    # (0 = v4) at 1221 takes 94,072 steps
    start = time.perf_counter()
    with pytest.raises(FeasibilityError, match="step budget"):
        sat_pr_eval(1221, 1, max_steps=90_000)
    assert time.perf_counter() - start < 1.0


# the argument pools of the kit test: every tuple of naturals below a box
# per arity, and every tuple over a few real codes of each scheme.  A paper
# formula code is at least 230,400 and the paper stdlib ops sweep to their
# argument's value, so the paper pool holds no formula code.  Each probe is
# tried on the twinned rows alone, as every argument at once: 2^5000
# passes the compact B1's bit limit; 7199 passes the paper B1's and names
# the variable whose code 14,400 reads as (0 + 0); 2^25 + 1 is no paper
# sequence, and 3^(2^25 + 2) passes BITS_CAP bits
_TERMS = [ZERO, ONE, Var(0), Var(1), Var(3), Add(ONE, Var(0)), Mul(Var(1), Add(ZERO, ONE))]
_POOLS = {
    "compact": ((512, 24, 8), _TERMS, [Eq(ZERO, ONE), Le(Var(1), Var(0)), Not(Le(ONE, Var(2))),
                                       Implies(Eq(ZERO, ZERO), Eq(ONE, ONE)),
                                       BForall(1, Add(Var(0), ONE), Eq(ZERO, Var(1)))],
                [[], [0], [3], [0, 1, 2], [5, 0, 7, 1]], [1 << 5000]),
    "paper": ((64, 12, 5), _TERMS[:4], [], [[], [0], [1], [0, 1], [1, 0, 0]],
              [7199, (1 << 25) + 1]),
}
# the (scheme, row) whose codec is defined on every natural, so that its
# twin never declines
_TOTAL = {("compact", "isseq"), ("compact", "mk_var")}


def _kit_args(scheme, op):
    box, terms, formulas, seqs, probes = _POOLS[scheme.name]
    arity = validate(op.term)
    codes = [*range(4), *map(scheme.encode_term, terms), *map(scheme.encode, formulas),
             *map(scheme.seq_encode, seqs)]
    yield from itertools.product(range(box[arity - 1]), repeat=arity)
    yield from itertools.product(codes, repeat=arity)
    if op.twinned:
        yield from ((p,) * arity for p in probes)


def _one_level_down(ev, t, args):
    """The composition t at args from its outer function and the values of
    its inner ones, so t's own twin is not asked.  A product stops at a
    first factor 0, as the evaluator's does, so an index past the end of a
    sequence is not swept."""
    first, *rest = t.gs
    v = ev.eval(first, args)
    if t.f is MUL and v == 0:
        return 0
    return ev.eval(t.f, [v, *(ev.eval(g, args) for g in rest)])


@pytest.mark.parametrize("scheme", [COMPACT, PAPER], ids=["compact", "paper"])
def test_each_kit_op_agrees_with_the_codec(scheme):
    # differential: where a row's codec answers, as its twin then does for
    # a twinned row, the value is the row's term one level down, with
    # every other twin on
    ev, answered, declined = Evaluator(), set(), set()
    rows = [op for op in KIT_OPS[scheme.name] if op.codec is not None]
    for op in rows:
        if isinstance(op.term, int):
            assert op.term == op.codec(), op.name
            continue
        twin = codec_twin(op.codec)
        for args in _kit_args(scheme, op):
            want = twin(args)
            if want is None:
                declined.add(op)
            else:
                answered.add(op)
                assert _one_level_down(ev, op.term, args) == want, (op.name, args)
    assert answered == {op for op in rows if not isinstance(op.term, int)}
    assert {op for op in declined if op.twinned} == {
        op for op in rows if op.twinned and (scheme.name, op.name) not in _TOTAL}


def test_sat_pr_val_relation_parts():
    parts = sat_pr_parts(COMPACT)
    budget = 20_000_000
    # value of the zero term under the empty valuation is 0, not 1
    assert eval_pr(parts["val"], (2, 1, 0), max_steps=budget) == 1
    assert eval_pr(parts["val"], (2, 1, 1), max_steps=budget) == 0
    assert eval_pr(parts["trm"], (2,), max_steps=budget) == 1
    assert eval_pr(parts["trm"], (29,), max_steps=budget) == 1
    assert eval_pr(parts["trm"], (0,), max_steps=budget) == 0
    assert eval_pr(parts["satseq"], (137, 528), max_steps=budget) == 1


def test_sat_pr_atom_needs_a_value_witness():
    # s = <(0 = 0)>; each run holds the one triple <0, z=0, w> = 3^0 5^w.
    # z = 0 is no valuation sequence, so the atom has no value witness and
    # only w = 0 is a correct annotation
    parts = sat_pr_parts(COMPACT)
    s = COMPACT.seq_encode([code_of("(0 = 0)")])
    t_false_atom = COMPACT.seq_encode([3**0 * 5**0])
    t_true_atom = COMPACT.seq_encode([3**0 * 5**1])
    assert satseq_check(s, t_false_atom) is Verdict.TRUE
    assert satseq_check(s, t_true_atom) is Verdict.FALSE
    assert eval_pr(parts["satseq"], (s, t_false_atom),
                   max_steps=2_000_000) == 1
    # the atom's fields are read off its bits, so the false run is refuted
    # without a sweep over code values
    assert eval_pr(parts["satseq"], (s, t_true_atom), max_steps=200_000) == 0


@pytest.mark.parametrize("x", [8, 24, 42, 226])
def test_sat_pr_refutes_a_flipped_verdict(x):
    # the run of a true formula with its last verdict flipped; 226 is
    # ~(0 = 1), whose flipped triple asks for a true (0 = 1) below it
    satseq = sat_pr_parts(COMPACT)["satseq"]
    run = sat_witness(x, 1)
    *head, last = COMPACT.seq_decode(run.t)
    i, z, w = triple_decode(last)
    flipped = COMPACT.seq_encode([*head, triple_encode(i, z, 1 - w)])
    assert satseq_check(run.s, flipped) is Verdict.FALSE
    assert eval_pr(satseq, (run.s, run.t), max_steps=5_000) == 1
    assert eval_pr(satseq, (run.s, flipped), max_steps=5_000) == 0


def test_sat_pr_parts_are_built_once_and_read_only():
    for scheme in (COMPACT, PAPER):
        parts, again = sat_pr_parts(scheme), sat_pr_parts(scheme)
        assert set(parts) == set(again)
        assert all(again[k] is parts[k] for k in parts)
        with pytest.raises(TypeError):
            parts["term"] = parts["run"]
    # naming the body of the outer sweep leaves the term the node it was
    parts = sat_pr_parts(COMPACT)
    b1, b2, sgate, matrix = (parts[k] for k in ("b1", "b2", "sgate", "matrix"))
    assert parts["term"] is fn(lambda x, y: ex(b1(x, y), lambda s: and_(
        sgate(x, y, s), ex(b2(x, y), lambda t: matrix(x, y, s, t)))))


@pytest.mark.parametrize("x", [8, 24, 42, 50])
def test_guided_and_plain_evaluation_agree(x):
    assert sat_pr_eval(x, 1) == eval_pr(sat_as_pr(), (x, 1)) == 1


def _columns():
    parts = sat_pr_parts(COMPACT)
    return rel_bexists(parts["matrix"]), rel_bexists(parts["run"])


def test_refuted_certificates_record_nothing():
    inner, outer = _columns()
    run = sat_witness(8, 1)
    tampered = COMPACT.seq_encode([3**0 * 5**1])   # <0, z=0, w=1>
    ev = Evaluator()
    assert not ev.confirm(outer, (8, 1), run.s + 1)
    assert not ev.confirm(inner, (8, 1, run.s), tampered)
    assert ev.stats()["refused"] == 2 and ev.stats()["confirmed"] == 0
    assert (outer, (8, 1)) not in ev._absorbed
    assert (inner, (8, 1, run.s)) not in ev._absorbed
    assert ev.eval(sat_as_pr(), (8, 1)) == eval_pr(sat_as_pr(), (8, 1)) == 1


def test_a_false_run_is_not_confirmed():
    # at y = 0 the last triple <0, 0, 1> of the tampered run from
    # test_sat_pr_atom_needs_a_value_witness is the one the matrix asks for,
    # so confirming it runs satseq on a false run, which refutes it: the
    # certificate is refused and records nothing, and the term is left to
    # its sweeps, which raise within the budget
    inner, _ = _columns()
    s = COMPACT.seq_encode([code_of("(0 = 0)")])
    tampered = COMPACT.seq_encode([3**0 * 5**1])
    ev = Evaluator(max_steps=200_000)
    assert not ev.confirm(inner, (8, 0, s), tampered)
    assert ev.stats()["refused"] == 1 and ev.stats()["confirmed"] == 0
    assert (inner, (8, 0, s)) not in ev._absorbed
    with pytest.raises(FeasibilityError):
        eval_pr(sat_as_pr(), (8, 0), max_steps=200_000,
                witnesses=[(inner, (8, 0, s), tampered)])


def _refused_by_none(decode, *codes):
    """A decoder refuses a code by None, as triple_decode does 0: raise
    that refusal as the encoders raise theirs."""
    if all(decode(c) is None for c in codes):
        raise ValueError("each code was refused as no natural")


@pytest.mark.parametrize("call", [
    lambda s: s.val_encode({True: 5}),
    lambda s: s.val_encode({0: True}),
    lambda s: s.seq_encode([True, False]),
    lambda s: s.mk(Var, True),
    lambda s: triple_encode(True, 1, False),
    lambda s: sat_pr_eval(True, True, s),
    lambda s: s.seq_idx(s.seq_encode([4, 5]), True),
    lambda s: s.seq_idx(s.seq_encode([4, 5]), 1.0),
    lambda s: s.termval_bound(True, 1),
    lambda s: s.buildseq_bound(True),
    lambda s: _refused_by_none(triple_decode, True, 1.5),
], ids=["val key", "val value", "seq entry", "mk_var", "triple", "sat_pr_eval",
        "seq_idx", "seq_idx float", "termval_bound", "buildseq_bound", "triple_decode"])
@pytest.mark.parametrize("scheme", [COMPACT, PAPER], ids=["compact", "paper"])
def test_a_bool_is_not_a_natural_at_the_coding_boundary(call, scheme):
    # True == 1, so without a type check each of these took True for 1
    with pytest.raises(ValueError, match="natural"):
        call(scheme)


def test_sat_pr_guard_errors():
    with pytest.raises(FeasibilityError, match="quantifier-free"):
        sat_pr_eval(code_of("(A v0 <= 1)(0 = 0)"), 1)
    with pytest.raises(FeasibilityError, match="false instance"):
        sat_pr_eval(code_of("~(0 = 0)"), 1)
    with pytest.raises(FeasibilityError, match="size guard"):
        sat_pr_eval(230400, 1)
    with pytest.raises(FeasibilityError, match="malformed"):
        sat_pr_eval(9, 1)
    with pytest.raises(ValueError):
        sat_pr_eval(-1, 1)


def test_sat_pr_step_budget_is_honoured():
    with pytest.raises(FeasibilityError, match="step budget"):
        sat_pr_eval(8, 1, max_steps=500)
