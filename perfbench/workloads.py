"""The four workloads: inputs drawn from a seed, instances, and their oracles.

Each instance is a `call` that runs the library to a verdict (timed) and a
`check` that compares the result with an independent oracle (untimed).
The library is reached only through attribute lookups on the `delta0lab`
package at call time, so tracing wrappers and injected faults apply.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

WORKLOADS = ("corpus", "sat-pr", "run-check", "diagonal")
SIZES = ("full", "smoke")


@dataclass
class Instance:
    label: str
    call: Callable[[], Any]
    # result -> (verdicts given, oracle agrees); verdicts are Verdict names
    check: Callable[[Any], tuple[tuple[str, ...], bool]]
    # builds the input from an earlier instance's output (untimed)
    prepare: Callable[[], None] | None = None


@dataclass
class Workload:
    instances: list[Instance]
    # the instances that pass within repeat_below_s are called again after
    # the pass, in rounds started for repeat_s seconds; the latency of each
    # is its fastest call
    repeat_below_s: float = 0.0
    repeat_s: float = 0.0


# The host this was tuned on changes speed from one second to the next.  A
# single reading of a call of a second or less measures which spell it fell
# in more than the code.  Other load only ever adds time, so such calls are
# timed by their fastest of several: they are repeated, all the same number
# of times whatever the seed's order, after the last instance.
# - The decided diagonal candidates take 0.02 to 0.15 ms each: 3 s of rounds.
# - The run-check instances at v0 = 4, 5 and 6 take 0.1 to 0.4 s each, and
#   one of them is the median: four rounds of about 1.3 s.
# The corpus instances are many, and the host-speed correction steadies
# their median and tail.  The other instances take seconds, and a single
# call of them spans many spells.
REPEATS = {"diagonal": (0.01, 3.0), "run-check": (1.0, 4.0)}


def build(name: str, seed: int, size: str = "full") -> Workload:
    """Draw the inputs for `name` from `seed` and do its one-time builds."""
    if name not in WORKLOADS:
        raise ValueError(f"workload must be one of {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"size must be one of {SIZES}")
    import delta0lab as dl
    rng = random.Random(f"{name}:{seed}")
    make = {"sat-pr": _sat_pr, "run-check": _run_check,
            "diagonal": _diagonal, "corpus": _corpus}[name]
    below, repeat_s = REPEATS.get(name, (0.0, 0.0))
    if size == "smoke":
        repeat_s = min(repeat_s, 0.1)
    return Workload(make(dl, rng, size == "smoke"), below, repeat_s)


def _verdict(b: bool) -> str:
    return "TRUE" if b else "FALSE"


# ---------------------------------------------------------------------------
# sat-pr: the emitted PR term Sat(x, y), evaluated by primrec.Evaluator

# x codes (0 = 0), (0 <= 0) and (1 = 1); y = 1 codes the empty valuation
SAT_PR_CODES = (8, 24, 42)


def _sat_pr(dl, rng: random.Random, smoke: bool) -> list[Instance]:
    dl.sat_pr_parts(dl.COMPACT)   # one-time build of the checker term

    def instance(x: int) -> Instance:
        def call():
            return dl.sat_pr_eval(x, 1)

        def check(v):
            return (_verdict(v == 1),), v == 1 == int(dl.sat_valuation(x, 1))

        return Instance(f"x={x}", call, check)

    codes = list(SAT_PR_CODES[:1] if smoke else SAT_PR_CODES)
    rng.shuffle(codes)
    return [instance(x) for x in codes]


# ---------------------------------------------------------------------------
# run-check: annotated runs written by sat_witness, read by satseq_check

NESTED = "(A v1 <= v0)(A v2 <= v1)(v2 <= v0)"
SINGLE = "(A v1 <= v0)(v1 <= v0)"
RUN_CASES = ((NESTED, 4), (NESTED, 5), (NESTED, 6), (SINGLE, 20))
PAPER_TERM = "(v0 + 1)"


def _run_check(dl, rng: random.Random, smoke: bool) -> list[Instance]:
    groups: list[list[Instance]] = []
    for text, v0 in RUN_CASES[:1] if smoke else RUN_CASES:
        groups.append(_run_pair(dl, dl.parse(text), v0, rng.random()))
    if not smoke:
        groups.append([_paper_build_check(dl, dl.parse(PAPER_TERM))])
    rng.shuffle(groups)
    return [inst for group in groups for inst in group]


def _run_pair(dl, phi, v0: int, pick: float) -> list[Instance]:
    """The run as built (must be TRUE), then with one triple's w flipped."""
    rho = {0: v0}
    y = dl.COMPACT.val_encode(rho)
    built = {}

    def call_built():
        built["run"] = run = dl.sat_witness(phi, y)
        return run, dl.satseq_check(run.s, run.t)

    def check_built(out):
        run, verdict = out
        ok = verdict is dl.Verdict.TRUE and run.value == dl.eval_delta0(phi, rho)
        return (verdict.name,), ok

    def tamper():
        taus = dl.COMPACT.seq_decode(built["run"].t)
        # the checker stops at the first bad triple, so a pick anywhere in the
        # run would make this check's cost depend on the seed: pick among the
        # last 1% of the triples
        tail = -(-len(taus) // 100)
        k = len(taus) - 1 - int(pick * tail)
        i, z, w = dl.triple_decode(taus[k])
        taus[k] = dl.triple_encode(i, z, 1 - w)
        built["tampered"] = dl.COMPACT.seq_encode(taus)

    def call_tampered():
        return dl.satseq_check(built["run"].s, built["tampered"])

    def check_tampered(verdict):
        return (verdict.name,), verdict is dl.Verdict.FALSE

    label = f"{dl.show(phi)} at v0={v0}"
    return [Instance(f"{label}, as built", call_built, check_built),
            Instance(f"{label}, tampered", call_tampered, check_tampered, tamper)]


def _paper_build_check(dl, term) -> Instance:
    """check_build_seq on the canonical prime-power sequence of a term."""

    def call():
        s = dl.PAPER.seq_encode(dl.canonical_term_seq(dl.PAPER, term))
        return dl.check_build_seq(dl.PAPER, "term", s, dl.PAPER.encode_term(term))

    def check(ok):
        return (_verdict(ok),), ok is True

    return Instance(f"paper build sequence of {dl.show(term)}", call, check)


# ---------------------------------------------------------------------------
# diagonal: falsify at its default budget

# (candidate, verdict at (m, m), verdict of the diagonal formula at m).  Each
# candidate's value at (m, m) does not depend on m, so both are fixed.
DECIDED = (
    ("(v0 = v0)", "TRUE", "FALSE"),
    ("~(v0 = v0)", "FALSE", "TRUE"),
    ("(v0 <= v1)", "TRUE", "FALSE"),
    ("(v1 <= v0)", "TRUE", "FALSE"),
    ("((v0 + v1) <= (v1 + v0))", "TRUE", "FALSE"),
    ("(0 = 0)", "TRUE", "FALSE"),
    ("((v0 = v1) -> (v1 = v0))", "TRUE", "FALSE"),
    ("(E v2 <= v0)((v2 * v2) <= v1)", "TRUE", "FALSE"),
    ("(A v2 <= v1)((1 + v0) <= (v2 + v0))", "FALSE", "TRUE"),
)
# one quantifier each: about 2M points per sweep, both verdicts UNKNOWN
SWEEPING = ("(A v1 <= v0)(v1 <= v0)", "(E v2 <= v1)((v2 + v2) = v0)")


def _diagonal(dl, rng: random.Random, smoke: bool) -> list[Instance]:
    cases = [(text, dl.COMPACT, want) for text, *want in DECIDED]
    if not smoke:
        cases += [(text, dl.COMPACT, None) for text in SWEEPING]
        cases.append(("(v0 = v0)", dl.PAPER, ["TRUE", "FALSE"]))
    rng.shuffle(cases)
    return [_falsify(dl, dl.parse(text), scheme, want)
            for text, scheme, want in cases]


def _falsify(dl, candidate, scheme, want) -> Instance:
    def call():
        return dl.falsify(candidate, scheme=scheme)

    def check(got):
        verdicts = (got.candidate_value.name, got.sat_value.name)
        ok = got.refuted is not False and (want is None or list(verdicts) == want)
        return verdicts, ok

    return Instance(f"{dl.show(candidate)} [{scheme.name}]", call, check)


# ---------------------------------------------------------------------------
# corpus: every compact Delta0 code below 2^16, four valuations each

CORPUS_BITS = 16
VALUATIONS = 4


def corpus_codes(dl, bits: int) -> list[tuple[int, Any]]:
    """(code, formula) for every compact code below 2^bits of a Delta0 formula."""
    out = []
    for x in range(1 << bits):
        try:
            phi = dl.COMPACT.decode(x)
        except (dl.CodingError, dl.FormulaError):
            continue
        if dl.is_delta0(phi):
            out.append((x, phi))
    return out


def _corpus(dl, rng: random.Random, smoke: bool) -> list[Instance]:
    # The valuations are one fixed draw and the seed orders the instances.
    # Cost grows steeply with the valuation code: one (code, valuation) pair
    # can take 1000 times the median.  Valuations drawn per seed put pass_s
    # 30% apart from seed to seed, which no bound could absorb.
    draw = random.Random("corpus valuations")
    out = []
    for x, phi in corpus_codes(dl, 10 if smoke else CORPUS_BITS):
        free = sorted(dl.free_vars(phi))
        for _ in range(VALUATIONS):
            vals = [draw.randint(0, 3) for _ in range(draw.randint(0, 3))]
            rho = {i: vals[i] if i < len(vals) else 0 for i in free}
            out.append(_corpus_instance(dl, x, rho, dl.COMPACT.seq_encode(vals)))
    rng.shuffle(out)
    return out


def _corpus_instance(dl, x: int, rho: dict[int, int], y: int) -> Instance:
    def call():
        phi = dl.COMPACT.decode(x)
        shown = dl.parse(dl.show(phi)) == phi
        coded = dl.COMPACT.encode(phi) == x
        direct = dl.eval_delta0(phi, rho)
        compiled = dl.compile_formula(phi)(rho)
        run = dl.sat_witness(phi, y)
        checked = dl.satseq_check(run.s, run.t)
        return shown, coded, direct, compiled, run.value, checked, dl.sat_valuation(x, y)

    def check(out):
        shown, coded, direct, compiled, witnessed, checked, valued = out
        ok = (shown and coded and checked is dl.Verdict.TRUE
              and direct == compiled == witnessed == valued)
        return (checked.name,), ok

    return Instance(f"x={x} rho={rho}", call, check)
