"""Satisfaction for coded bounded formulas, checked via annotated runs.

A run for a formula building sequence s is a sequence t of triples
<i, z, w> = 2^i * 3^z * 5^w recording that entry i of s gets truth value
w under the valuation code z.  A triple must be justified by the clause
matching the entry's shape: atoms by term values under z (within the
stated witness cap), connectives by earlier triples for the children at
the same z, and a bounded quantifier by a complete family of earlier
body triples at z[r/v] for every r up to the bound's value.  The checker
reads each entry once into its clauses (coding.entry_clauses), and keeps
the triples checked so far in one index, (entry, z) -> the values w
logged, where each clause looks up its children's values, as the Sat
term's clauses ask earlier(l, t, PAIR3(j, z, w)).

The diagonal falsifier turns any claimed truth definition into a test
point on which it must disagree with actual satisfaction.

The sat_witness visitor and the diagonal renamer are steps of nodes.walk,
and the evaluators they call keep their work on explicit stacks too, so
the depth of a formula is bounded by memory, not by the interpreter's
recursion limit.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Collection, Mapping
from dataclasses import dataclass

from .coding import (
    COMPACT,
    Coding,
    CodingError,
    entry_clauses,
    formula_seq_index,
    short_code,
    strip_prime,
)
from .formulas import (
    BForall,
    Eq,
    Formula,
    Implies,
    Le,
    Not,
    Term,
    UForall,
    Var,
    desugar,
    free_vars,
    fresh_index,
    is_delta0,
    substitute,
)
from .nodes import walk
from .numbers import BITS_CAP, SWEEP_CAP, FeasibilityError, LazyPow, magnitude_ge
from .numbers import pow_bits, power, prime_tower
from .semantics import Verdict, eval_delta0, eval_delta0_verdict, eval_term


class SatError(ValueError):
    """The input does not denote a satisfaction instance."""


# ---------------------------------------------------------------------------
# direct evaluation of coded formulas


def sat_valuation(x: int, y: int, scheme: Coding = COMPACT) -> bool:
    """Truth of the coded formula under the valuation sequence y, which
    must code a sequence even when the formula is closed."""
    phi = scheme.decode(x)
    ys = scheme.seq_decode(y)
    return eval_delta0(phi, {i: ys[i] if i < len(ys) else 0 for i in free_vars(phi)})


def _valuation(zs: list[int]) -> defaultdict[int, int]:
    """The valuation whose entries are zs, reading 0 past their end."""
    return defaultdict(int, enumerate(zs))


# ---------------------------------------------------------------------------
# annotation triples


def _triple_bits(i: int, z: int, w: int) -> int:
    """A lower bound on the bits of 2^i 3^z 5^w, for naturals i, z, w."""
    return i + pow_bits(3, z) + pow_bits(5, w) - 1


def triple_encode(i: int, z: int, w: int) -> int:
    """2^i 3^z 5^w; FeasibilityError, before it is built, past BITS_CAP bits."""
    if not (type(i) is type(z) is type(w) is int) or min(i, z, w) < 0:
        raise ValueError("triple parts must be naturals")
    if _triple_bits(i, z, w) > BITS_CAP:
        raise FeasibilityError(f"the triple would have more than BITS_CAP = {BITS_CAP} bits")
    return (power(3, z) * power(5, w)) << i


def triple_decode(tau: int) -> tuple[int, int, int] | None:
    """(i, z, w) when tau = 2^i * 3^z * 5^w exactly, else None.

    The primes are stripped as 2, 5, 3: i is read off the trailing zeros,
    w is small in any run, and what is left of a well-formed triple is the
    pure power 3^z, which strip_prime confirms by one exact power.
    """
    if type(tau) is not int or tau < 1:
        return None
    i, rest = strip_prime(tau, 2)
    w, rest = strip_prime(rest, 5)
    z, rest = strip_prime(rest, 3)
    return (i, z, w) if rest == 1 else None


@dataclass(frozen=True, repr=False)
class SatInstance:
    """An annotated run: building-sequence code, triple-sequence code, verdict."""

    s: int
    t: int
    value: bool

    def __repr__(self):
        return (f"SatInstance(s={short_code(self.s)}, t={short_code(self.t)}, "
                f"value={self.value})")


def sat_witness(phi: Formula | int, y: int | None = None,
                scheme: Coding = COMPACT) -> SatInstance:
    """The annotated run certifying the truth value of phi under y.

    Each valuation is carried as its code and its entry list: terms are
    evaluated on the nodes of phi, each z[r/v] is encoded once for its
    triples, and a node's entry index is looked up, not encoded again.
    The triples are built last, so a bound past SWEEP_CAP, or a run whose
    code t would pass BITS_CAP bits, is refused with FeasibilityError
    before any is built, and so is a subcode listing past BITS_CAP.  t's
    bits are bounded below, under either scheme, by the gamma width of
    each triple's lower bound.
    """
    if isinstance(phi, int):
        phi = scheme.decode(phi)
    phi = desugar(phi)
    if not is_delta0(phi):
        raise SatError("runs cover bounded formulas only")
    if y is None:
        y = scheme.seq_encode([])
    entries, where = formula_seq_index(scheme, phi)
    keys: dict[tuple[int, int, int], None] = {}   # the run's (i, z, w), in order
    run_bits = [1]   # t's bits: the leading 1 and a gamma code per triple

    def visit(node: Formula, z: int, zs: list[int]):
        """Truth value of node under the valuation z, whose entries are zs:
        a step of nodes.walk, yielding (subformula, z', zs') for the value
        of a subformula under z'."""
        match node:
            case Eq(left=l, right=r) | Le(left=l, right=r):
                rho = _valuation(zs)
                a, b = eval_term(l, rho), eval_term(r, rho)
                w = int(a == b if isinstance(node, Eq) else a <= b)
            case Not(body=b):
                w = 1 - (yield (b, z, zs))
            case Implies(left=l, right=r):
                wl, wr = (yield (l, z, zs)), (yield (r, z, zs))
                w = int(wl == 0 or wr == 1)
            case BForall(var=v, bound=u, body=b):
                top = eval_term(u, _valuation(zs))
                if top > SWEEP_CAP:
                    raise FeasibilityError(
                        f"the bound {short_code(top)} of the sweep is past SWEEP_CAP = {SWEEP_CAP}")
                padded = zs + [0] * (v + 1 - len(zs))
                ws = []
                for r in range(top + 1):
                    zr = padded.copy()
                    zr[v] = r
                    ws.append((yield (b, scheme.seq_encode(zr), zr)))
                w = int(all(ws))
            case _:
                raise SatError(f"not a core bounded formula: {node!r}")
        key = (where[node], z, w)
        if key not in keys:
            run_bits[0] += 2 * _triple_bits(*key) - 1
            if run_bits[0] > BITS_CAP:
                raise FeasibilityError(f"the run would have more than BITS_CAP = {BITS_CAP} bits")
            keys[key] = None
        return w

    value = walk(visit, phi, y, scheme.seq_decode(y))
    # the triples as triple_encode writes them; their bits were checked above
    return SatInstance(s=scheme.seq_encode(entries),
                       t=scheme.seq_encode([(power(3, z) * power(5, w)) << i for i, z, w in keys]),
                       value=bool(value))


# ---------------------------------------------------------------------------
# the run checker


def satseq_check(s: int, t: int, budget: int | None = None,
                 scheme: Coding = COMPACT) -> Verdict:
    """Do the triples in t certify a run over the building sequence s?

    Each entry of s is read once, into its clauses, by coding.entry_clauses
    for kind "delta0": the reader by which build_entries_ok accepts a Delta0
    building step, so s is checked as a building sequence on the way.  The
    triples logged so far are kept in one index, (entry, z) -> the values w
    logged, and each clause looks its children up there through _earlier,
    the Python twin of the Sat term's earlier.  A bounded A is swept up to
    budget and SWEEP_CAP at most: past either, its triple is UNKNOWN unless
    a point swept refutes it.
    """
    if budget is not None and (type(budget) is not int or budget < 0):
        raise ValueError("budget must be a natural")
    try:
        clauses = entry_clauses(scheme, scheme.seq_decode(s), "delta0")
        if clauses is None:
            return Verdict.FALSE
        taus = scheme.seq_decode(t)
    except CodingError:
        return Verdict.FALSE
    logged: defaultdict[tuple[int, int], set[int]] = defaultdict(set)
    out = Verdict.TRUE
    for tau in taus:
        parts = triple_decode(tau)
        if parts is None:
            return Verdict.FALSE
        i, z, w = parts
        if w > 1 or i >= len(clauses):
            return Verdict.FALSE
        best = Verdict.FALSE   # TRUE when some clause of entry i holds
        for clause in clauses[i]:
            match clause:
                case ("eq" | "le") as op, u, v, tu, tv:
                    got = _atom_clause(scheme, op, u, v, z, w, tu, tv)
                case ("not", js):
                    got = Verdict.TRUE if 1 - w in _earlier(logged, js, z) else Verdict.FALSE
                case ("implies", js, ks):
                    wjs, wks = _earlier(logged, js, z), _earlier(logged, ks, z)
                    held = any(w == (wj == 0 or wk == 1) for wj in wjs for wk in wks)
                    got = Verdict.TRUE if held else Verdict.FALSE
                case ("bforall", vidx, u, tu, js):
                    got = _forall_clause(scheme, logged, vidx, u, tu, js, z, w, budget)
            if got is not Verdict.FALSE:
                best = got
                if got is Verdict.TRUE:
                    break
        if best is Verdict.FALSE:
            return Verdict.FALSE
        if best is Verdict.UNKNOWN:
            out = Verdict.UNKNOWN
        logged[i, z].add(w)
    return out


def _earlier(logged: Mapping[tuple[int, int], set[int]], js: tuple[int, ...],
             z: int) -> Collection[int]:
    """The values logged so far for an entry at any of the positions js
    under z, as the Sat term's earlier(l, t, PAIR3(j, z, w)) asks of w."""
    if len(js) == 1:   # the child's code stands once before, as in a canonical sequence
        return logged.get((js[0], z), ())
    return {w for j in js for w in logged.get((j, z), ())}


def _atom_cap(u: int, v: int, z: int) -> LazyPow:
    """p_(u+v) ** ((z^(u+v) + 1)^2), the stated cap for atom value witnesses.

    Past numbers.prime_tower's size for z^(u+v) the exponent falls back to
    the lazy power z^(u+v); lower-bound queries stay sound.
    """
    return prime_tower(u + v, z, lambda zn: (zn + 1) ** 2)


def _atom_clause(scheme: Coding, op: str, u: int, v: int, z: int, w: int,
                 tu: Term, tv: Term) -> Verdict:
    """The atom (u op v), whose terms u and v decode to tu and tv, has
    value w under z."""
    try:
        rho = _valuation(scheme.seq_decode(z))
    except CodingError:
        # z is not a sequence, so no value witness exists at all
        return Verdict.of(w == 0)
    a, b = eval_term(tu, rho), eval_term(tv, rho)
    if (a != b) if op == "eq" else (a > b):
        return Verdict.of(w == 0)
    # The cap is at least 2^(2^k): p_(u+v) >= 2 and z^(u+v) >= 2^k.  When
    # that already covers the witness, the cap itself is never built.
    k = max(0, (z.bit_length() - 1) * (u + v))
    top = max(a, b)
    if k >= 64 or top.bit_length() <= 1 << k:
        return Verdict.of(w == 1)
    fit = magnitude_ge(_atom_cap(u, v, z), top)
    if fit is None:
        return Verdict.UNKNOWN
    return Verdict.of((w == 1) == fit)


def _forall_clause(scheme: Coding, logged: Mapping[tuple[int, int], set[int]],
                   vidx: int, u: int, tu: Term, js: tuple[int, ...], z: int, w: int,
                   budget: int | None) -> Verdict:
    """Entry (A v_vidx <= tu) body, the bound coded u and the body's
    entries at js, holds with value w under z.  z is decoded once and
    each z[r/v] encoded from its entries."""
    try:
        zs = scheme.seq_decode(z)
    except CodingError:
        # no value witness for the bound under a non-sequence z
        return Verdict.FALSE
    top = eval_term(tu, _valuation(zs))
    fit = magnitude_ge(scheme.termval_bound(u, z), top)
    if fit is False:
        return Verdict.FALSE
    limit = min(top if budget is None else min(top, budget), SWEEP_CAP)
    zr = zs + [0] * (vidx + 1 - len(zs))
    all_true = True
    try:
        for r in range(limit + 1):
            zr[vidx] = r
            ws = _earlier(logged, js, scheme.seq_encode(zr))
            if not ws:
                return Verdict.FALSE
            all_true = all_true and 1 in ws
    except FeasibilityError:
        return Verdict.UNKNOWN
    if limit < top:
        if w == 1 and not all_true:
            return Verdict.FALSE
        return Verdict.UNKNOWN
    if (w == 1) != all_true:
        return Verdict.FALSE
    return Verdict.UNKNOWN if fit is None else Verdict.TRUE


# ---------------------------------------------------------------------------
# the diagonal falsifier


@dataclass(frozen=True, repr=False)
class Counterexample:
    """The diagonal test point for a claimed truth definition."""

    candidate: Formula
    diagonal_formula: Formula
    m: int
    point: tuple[int, int]
    candidate_value: Verdict
    sat_value: Verdict

    def __repr__(self):
        return (f"Counterexample(diagonal={self.diagonal_formula!r}, "
                f"m={short_code(self.m)}, "
                f"candidate_value={self.candidate_value.value}, "
                f"sat_value={self.sat_value.value})")

    @property
    def refuted(self) -> bool | None:
        """True when both verdicts are decided and differ, None while unknown."""
        if not (self.candidate_value.decided and self.sat_value.decided):
            return None
        return self.candidate_value is not self.sat_value


def _rename_low_bound_vars(phi: Formula) -> Formula:
    """Rename bound v0/v1 so the diagonal substitution cannot capture."""
    counter = [max(2, fresh_index(phi))]

    def rename(node: Formula):
        """A step of nodes.walk: node renamed, yielding (child,) for a
        child's renaming."""
        match node:
            case Eq() | Le():
                return node
            case Not(body=b):
                return Not((yield (b,)))
            case Implies(left=l, right=r):
                return Implies((yield (l,)), (yield (r,)))
            case BForall(var=v, bound=u, body=b):
                b = yield (b,)
                if v <= 1:
                    fresh = counter[0]
                    counter[0] += 1
                    return BForall(fresh, u, substitute(b, v, Var(fresh)))
                return BForall(v, u, b)
            case UForall(var=v, body=b):
                b = yield (b,)
                if v <= 1:
                    fresh = counter[0]
                    counter[0] += 1
                    return UForall(fresh, substitute(b, v, Var(fresh)))
                return UForall(v, b)
        raise SatError(f"not a core formula: {node!r}")

    return walk(rename, phi)


def falsify(candidate: Formula, scheme: Coding = COMPACT,
            budget: int = SWEEP_CAP) -> Counterexample:
    """Diagonal counterexample point for a claimed truth definition s(x, y).

    With theta(x) = ~s(x, x) and m its code, the candidate's verdict at
    (m, m) and the actual satisfaction verdict of the formula coded m at
    m must differ whenever both are decided.

    Both verdicts come from eval_delta0_verdict, where budget caps the
    points one quantifier examines.  A quantifier over a quantifier-free
    body may range over about m points, but root isolation decides it in
    a number of points that grows with the bit length of m only, well
    within the budget for compact codes; a quantifier over a quantified
    body is swept, and past the budget its verdict is UNKNOWN.

    Under scheme=PAPER a quantified candidate raises FeasibilityError.
    A bounded quantifier's prime-power code has a factor 7^(b + 1) for its
    body's code b >= 230,400, that of (0 = 0), and the diagonal formula
    wraps it (at least in the outer negation), so a power with it as
    exponent passes BITS_CAP bits in PaperCoding.seq_encode and m cannot
    be written down.
    """
    core = desugar(candidate)
    if not is_delta0(core):
        raise SatError("candidate must be a bounded formula")
    if not free_vars(core) <= {0, 1}:
        raise SatError("candidate may use only v0 and v1 free")
    theta = Not(substitute(_rename_low_bound_vars(core), 1, Var(0)))
    m = scheme.encode(theta)
    candidate_value = eval_delta0_verdict(core, {0: m, 1: m}, budget)
    sat_value = eval_delta0_verdict(theta, {0: m}, budget)
    return Counterexample(candidate=core, diagonal_formula=theta, m=m,
                          point=(m, m), candidate_value=candidate_value,
                          sat_value=sat_value)
