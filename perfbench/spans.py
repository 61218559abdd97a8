"""In-memory span tracing around calls into the delta0lab layers.

A span is recorded for each call of a wrapped public function or method:
its name, start, end, parent span and one count (PR steps, code bits or
UNKNOWN verdicts, depending on the span).  Spans live in flat arrays
while the run lasts and are written out once, when it ends.

`from .x import f` copies a binding into the importing module, so a
function is wrapped in every delta0lab module (and the package namespace)
that binds it; methods are wrapped on their class.  A call that re-enters
a span of its own name (a recursive walker) is folded into the outer span.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# (module, function, span name)
FUNCTIONS = (
    ("formulas", "parse", "formulas.parse"),
    ("formulas", "show", "formulas.show"),
    ("formulas", "desugar", "formulas.desugar"),
    ("formulas", "substitute", "formulas.substitute"),
    # one name for the three evaluators, so that a sweep's per-point calls
    # fold into the span of the call that started the sweep
    ("semantics", "eval_delta0", "semantics.eval"),
    ("semantics", "eval_fo", "semantics.eval"),
    ("semantics", "eval_delta0_verdict", "semantics.eval"),
    ("coding", "val", "coding.val"),
    ("coding", "check_build_seq", "coding.check_build_seq"),
    ("compiler", "compile_formula", "compiler.compile_formula"),
    ("primrec", "validate", "primrec.validate"),
    ("primrec", "eval_pr", "primrec.eval_pr"),
    ("satisfaction", "sat_witness", "satisfaction.sat_witness"),
    ("satisfaction", "satseq_check", "satisfaction.satseq_check"),
    ("satisfaction", "triple_decode", "satisfaction.triple_decode"),
    ("satisfaction", "sat_valuation", "satisfaction.sat_valuation"),
    ("satisfaction", "falsify", "satisfaction.falsify"),
    ("satpr", "sat_pr_parts", "satpr.sat_pr_parts"),
    ("satpr", "sat_pr_eval", "satpr.sat_pr_eval"),
)

# (module, class, method, span name)
METHODS = (
    ("primrec", "Evaluator", "eval", "primrec.eval"),
    ("compiler", "CompiledRelation", "__call__", "compiler.relation"),
    ("coding", "CompactCoding", "seq_decode", "coding.compact_decode"),
    ("coding", "PaperCoding", "seq_decode", "coding.paper_decode"),
    ("coding", "CompactCoding", "seq_encode", "coding.encode"),
    ("coding", "PaperCoding", "seq_encode", "coding.encode"),
    ("coding", "Coding", "encode", "coding.encode"),
    ("coding", "Coding", "encode_term", "coding.encode"),
    ("coding", "Coding", "decode", "coding.decode"),
    ("coding", "Coding", "decode_term", "coding.decode"),
)

SYNTAX = ("formulas.parse", "formulas.show", "formulas.desugar",
          "formulas.substitute")


class Tracer:
    """Records spans while installed; `phase` tags each span (0 set-up, 1 pass)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.count = array("q")
        self.phase_of = array("B")
        self.phase = 0
        self.steps = 0          # running total of PR steps, for per-instance reads
        self._stack: list[int] = []
        self._delta = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, span: str, counter=None):
        nid = self._name_ids.setdefault(span, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(span)
        stack, clock = self._stack, time.perf_counter
        names, starts, ends = self.name, self.start, self.end
        parents, counts, phases = self.parent, self.count, self.phase_of

        def wrapper(*args, **kwargs):
            if stack and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            counts.append(0)
            phases.append(self.phase)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counts[idx] = counter(args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def install(self) -> None:
        """Wrap every target; `uninstall` puts the originals back."""
        if self._undo:
            return
        import delta0lab  # noqa: F401  (loads every layer module)
        from delta0lab.semantics import Verdict

        def unknown(args, out):
            return int(out is Verdict.UNKNOWN)

        def bits(args, out):
            return args[1].bit_length()

        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == "delta0lab" or k.startswith("delta0lab."))]
        for mod, fname, span in FUNCTIONS:
            orig = getattr(sys.modules[f"delta0lab.{mod}"], fname)
            wrapped = self._wrap(orig, span, unknown if span == "semantics.eval" else None)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, attr, orig))
                        setattr(m, attr, wrapped)
        for mod, cname, meth, span in METHODS:
            cls = getattr(sys.modules[f"delta0lab.{mod}"], cname)
            orig = cls.__dict__[meth]
            counter = None
            if span == "primrec.eval":
                orig = self._steps_counted(orig)
                counter = self._last_steps
            elif span.endswith("_decode"):
                counter = bits
            self._undo.append((cls, meth, cls.__dict__[meth]))
            setattr(cls, meth, self._wrap(orig, span, counter))

    def _steps_counted(self, orig):
        tracer = self

        def eval_counting(ev, t, args):
            before = ev.steps
            try:
                return orig(ev, t, args)
            finally:
                tracer._delta = ev.steps - before
                tracer.steps += tracer._delta

        return eval_counting

    def _last_steps(self, args, out) -> int:
        return self._delta

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as gzip'd tab-separated rows: name start end parent count phase."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\tcount\tphase\n")
            names = self.names
            for row in zip(self.name, self.start, self.end, self.parent,
                           self.count, self.phase_of):
                out.write(f"{names[row[0]]}\t{row[1]!r}\t{row[2]!r}\t"
                          f"{row[3]}\t{row[4]}\t{row[5]}\n")

    # -- per-layer metrics --------------------------------------------------

    def _ids(self, names) -> set[int]:
        return {self._name_ids[n] for n in names if n in self._name_ids}

    def _nested(self, ids: set[int]) -> bytearray:
        """Marks each span that has an ancestor among the `ids` spans."""
        nested = bytearray(len(self.name))
        for i, p in enumerate(self.parent):
            if p >= 0 and (nested[p] or self.name[p] in ids):
                nested[i] = 1
        return nested

    def busy(self, names, phase: int = 1) -> float:
        """Time inside any span of `names`, counting nested ones once."""
        ids = self._ids(names)
        nested = self._nested(ids)
        return sum((self.end[i] - self.start[i]
                    for i, nid in enumerate(self.name)
                    if nid in ids and not nested[i] and self.phase_of[i] == phase), 0.0)

    def self_time(self, name: str, phase: int = 1) -> float:
        """Duration of the `name` spans minus what their child spans cover."""
        ids = self._ids([name])
        total = 0.0
        for i, (nid, p) in enumerate(zip(self.name, self.parent)):
            if nid in ids and self.phase_of[i] == phase:
                total += self.end[i] - self.start[i]
            if p >= 0 and self.name[p] in ids and self.phase_of[p] == phase:
                total -= self.end[i] - self.start[i]
        return total

    def total(self, names, phase: int = 1) -> tuple[int, int]:
        """(span count, summed counts) over the outermost `names` spans."""
        ids = self._ids(names)
        nested = self._nested(ids)
        spans = summed = 0
        for i, nid in enumerate(self.name):
            if nid in ids and not nested[i] and self.phase_of[i] == phase:
                spans += 1
                summed += self.count[i]
        return spans, summed

    def first(self, name: str) -> float:
        """Duration of the earliest `name` span, 0.0 when there is none."""
        ids = self._ids([name])
        for i, nid in enumerate(self.name):
            if nid in ids:
                return self.end[i] - self.start[i]
        return 0.0
