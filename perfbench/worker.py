"""One workload in a fresh interpreter; prints one JSON object on its last line.

    python3 perfbench/worker.py --workload W --seed N [--mode setup|run]
        [--seconds S] [--trace 0|1] [--size full|smoke]

`--mode setup` only times the set-up.  `--mode run` times the set-up, then
runs whole passes over the instance list, one instance at a time: as many
as fit `--seconds` at the first pass's pace, rounded, and at least one.
With `--trace 1` it runs one untraced pass and one traced pass instead,
and reports per-layer metrics from the traced one.  `run.py` starts this with
`src` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import hostspeed
import spans
import workloads

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
# every timed interval goes through this; it corrects for the host's speed
# once started (untraced runs), and gives wall times until then
SPEED = hostspeed.HostSpeed()


@dataclass
class PassResult:
    wall_s: float      # corrected for host speed (see hostspeed.py)
    raw_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    verdicts: list[str] = field(default_factory=list)
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    steps: list[tuple[str, int]] = field(default_factory=list)


def run_pass(wl: workloads.Workload,
             tracer: spans.Tracer | None = None) -> PassResult:
    """One closed-loop pass: each instance starts after the last verdict.

    Without a tracer, the instances that passed within `wl.repeat_below_s`
    are called again after the last one (see `_repeat`).  The latency of
    such an instance is its fastest call, corrected for the host's speed
    around it; for a call shorter than the sampler's period, its fastest
    uncorrected call scaled by the reference chunk's fastest call in the
    same rounds.  The pass time is the sum over the instances of call,
    preparation and oracle check; it leaves the repeat calls out.
    """
    gc.collect()
    res = PassResult(0.0)
    quick: list[int] = []
    fastest: dict[int, float] = {}   # quick instance -> fastest repeat, uncorrected
    for k, inst in enumerate(wl.instances):
        steps0 = tracer.steps if tracer else 0
        error = out = None
        segment = start = SPEED.mark()
        try:
            if inst.prepare is not None:
                inst.prepare()
                start = SPEED.mark()
            out = inst.call()
        except Exception as exc:   # an instance that raises is a failed operation
            error = f"{inst.label}: {exc!r}"
        res.latencies_s.append(SPEED.since(start)[0])
        if tracer:
            res.steps.append((inst.label, tracer.steps - steps0))
        if error is None:
            try:
                verdicts, ok = inst.check(out)
            except Exception as exc:   # the oracle could not confirm the result
                error = f"{inst.label}: oracle raised {exc!r}"
            else:
                res.verdicts.extend(verdicts)
                if not ok:
                    error = f"{inst.label}: wrong verdict {verdicts}"
        took, raw = SPEED.since(segment)
        res.wall_s += took
        res.raw_s += raw
        if error is not None:
            res.failed += 1
            res.errors.append(error)
        elif res.latencies_s[k] < wl.repeat_below_s:
            quick.append(k)
    if wl.repeat_s > 0 and not tracer:
        _repeat(wl, quick, res.latencies_s, fastest)
    # the sampler sees no speed within a call shorter than its period: such a
    # call is timed by its fastest repeat, against the chunk's fastest call
    # in the same rounds
    for k, raw in fastest.items():
        if raw < hostspeed.INTERVAL_S:
            res.latencies_s[k] = SPEED.at_fastest(raw)
    return res


def _repeat(wl: workloads.Workload, quick: list[int],
            latencies_s: list[float], fastest: dict[int, float]) -> None:
    """Calls the instances `quick` in rounds, starting rounds for
    `wl.repeat_s` seconds, and keeps each one's fastest call as its latency,
    corrected, and in `fastest`, uncorrected.  Each round ends with calls of
    the reference chunk.  One whose call takes `wl.repeat_below_s` or longer
    drops out of `quick`."""
    end = time.perf_counter() + wl.repeat_s
    while quick and time.perf_counter() < end:
        for i in list(quick):
            start = SPEED.mark()
            wl.instances[i].call()
            took, raw = SPEED.since(start)
            latencies_s[i] = min(latencies_s[i], took)
            fastest[i] = min(fastest.get(i, raw), raw)
            if took >= wl.repeat_below_s:
                quick.remove(i)
        SPEED.probe()


def layer_metrics(tr: spans.Tracer) -> dict[str, float]:
    """Per-layer figures from the traced pass (phase 1) and the set-up."""
    _, steps = tr.total(["primrec.eval"])
    eval_self = tr.self_time("primrec.eval")
    triples, _ = tr.total(["satisfaction.triple_decode"])
    _, unknown = tr.total(["semantics.eval"])
    _, compact_bits = tr.total(["coding.compact_decode"])
    _, paper_bits = tr.total(["coding.paper_decode"])
    return {
        "primrec.steps": steps,
        "primrec.eval_self_s": eval_self,
        "primrec.steps_per_s": steps / eval_self if eval_self > 0 else 0.0,
        "primrec.validate_s": tr.busy(["primrec.validate"]),
        "satpr.parts_s": tr.first("satpr.sat_pr_parts"),
        "satpr.guard_s": tr.self_time("satpr.sat_pr_eval"),
        "coding.compact_decode_s": tr.busy(["coding.compact_decode"]),
        "coding.compact_decode_mbit": compact_bits / 1e6,
        "coding.paper_decode_s": tr.busy(["coding.paper_decode"]),
        "coding.paper_decode_mbit": paper_bits / 1e6,
        "coding.encode_s": tr.busy(["coding.encode"]),
        "coding.decode_s": tr.busy(["coding.decode"]),
        "coding.val_s": tr.busy(["coding.val"]),
        "satisfaction.triple_decode_s": tr.busy(["satisfaction.triple_decode"]),
        "satisfaction.triple_decode_calls": triples,
        "satisfaction.satseq_check_self_s": tr.self_time("satisfaction.satseq_check"),
        "satisfaction.sat_witness_self_s": tr.self_time("satisfaction.sat_witness"),
        "semantics.eval_s": tr.busy(["semantics.eval"]),
        "semantics.unknown_verdicts": unknown,
        "formulas.syntax_s": tr.busy(spans.SYNTAX),
        "compiler.compile_s": tr.busy(["compiler.compile_formula"]),
        "compiler.relation_s": tr.busy(["compiler.relation"]),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full")
    args = ap.parse_args()

    tracer = spans.Tracer() if args.trace and args.mode == "run" else None
    if not tracer:
        SPEED.start()
    t0 = SPEED.mark()
    import delta0lab  # noqa: F401  (set-up time starts at this import)
    if tracer:
        tracer.install()
    wl = workloads.build(args.workload, args.seed, args.size)
    setup_s, setup_raw_s = SPEED.since(t0)
    out: dict = {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
    if args.mode == "setup":
        SPEED.stop()
        print(json.dumps(out))
        return

    if tracer:
        tracer.uninstall()
        plain = run_pass(wl)
        tracer.phase = 1
        tracer.install()
        traced = run_pass(wl, tracer)
        tracer.uninstall()
        passes = [plain, traced]
        out["untraced_pass_s"] = plain.wall_s
        out["traced_pass_s"] = traced.wall_s
        out["layers"] = layer_metrics(tracer)
        out["instance_steps"] = traced.steps
        out["spans"] = len(tracer.name)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        tracer.write(path)
        out["spans_file"] = os.path.relpath(path)
    else:
        begin = time.perf_counter()
        passes = [run_pass(wl)]
        first = time.perf_counter() - begin
        while len(passes) < max(1, round(args.seconds / first)):
            passes.append(run_pass(wl))
        SPEED.stop()
        out["pass_s"] = [p.wall_s for p in passes]
        out["pass_raw_s"] = [p.raw_s for p in passes]
        out["host_chunk_s"] = statistics.median(SPEED.took)
        # from the first pass, so that the estimate does not shift with how
        # many passes fit the run
        out["latencies_s"] = passes[0].latencies_s
        out["verdicts"] = [v for p in passes for v in p.verdicts]

    out["instances_per_pass"] = len(wl.instances)
    out["attempted"] = len(wl.instances) * len(passes)
    out["failed"] = sum(p.failed for p in passes)
    out["errors"] = [e for p in passes for e in p.errors][:20]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
