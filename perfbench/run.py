"""Benchmark of the delta0lab workbench: one workload per call.

    python3 perfbench/run.py --workload sat-pr --seed 1 --seconds 10 --trace 0

Run from anywhere; the package is loaded from `src/` of the checkout that
holds this file.  Each workload runs in a fresh interpreter (worker.py),
and set-up is timed again in further fresh interpreters.  The last line of
stdout is one JSON object: the end-to-end metrics with `--trace 0`, the
per-layer metrics and tracing overhead with `--trace 1`.  The lines above
it repeat every metric by name with its unit.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170          # the whole call, set-up probes included
SETUP_SAMPLES = 3         # fresh interpreters timing set-up, the worker's own included
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MiB",
}
LAYER_UNITS = {
    "primrec.steps": "count",
    "primrec.eval_self_s": "s",
    "primrec.steps_per_s": "1/s",
    "primrec.validate_s": "s",
    "satpr.parts_s": "s",
    "satpr.guard_s": "s",
    "coding.compact_decode_s": "s",
    "coding.compact_decode_mbit": "Mbit",
    "coding.paper_decode_s": "s",
    "coding.paper_decode_mbit": "Mbit",
    "coding.encode_s": "s",
    "coding.decode_s": "s",
    "coding.val_s": "s",
    "satisfaction.triple_decode_s": "s",
    "satisfaction.triple_decode_calls": "count",
    "satisfaction.satseq_check_self_s": "s",
    "satisfaction.sat_witness_self_s": "s",
    "semantics.eval_s": "s",
    "semantics.unknown_verdicts": "count",
    "formulas.syntax_s": "s",
    "compiler.compile_s": "s",
    "compiler.relation_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


def tail_percentile(instances: int) -> float:
    """Highest listed percentile with at least ten instances beyond it; 100
    (the maximum) when there are fewer than twenty instances."""
    for p in TAIL_PERCENTILES:
        if instances * (1 - p / 100) >= 10:
            return p
    return 100.0


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def worker(args: argparse.Namespace, mode: str, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ({mode}) exceeded the {DEADLINE_S} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker ({mode}) exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def end_to_end(res: dict, setups: list[dict]) -> tuple[dict, list[str]]:
    lat = res["latencies_s"]
    n = res["instances_per_pass"]
    p = tail_percentile(n)
    verdicts = res["verdicts"]
    decided = sum(v != "UNKNOWN" for v in verdicts)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "pass_s": statistics.median(res["pass_s"]),
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_tail_ms": percentile(lat, p) * 1e3,
        "decided_ratio": decided / len(verdicts) if verdicts else 0.0,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    tail = "the maximum" if p == 100 else f"p{p:g}"
    notes = [
        "times are at reference host speed (hostspeed.py): the reference "
        f"chunk took {res['host_chunk_s'] * 1e3:.4f} ms in this run's median "
        f"sample against {hostspeed.REF_CHUNK_S * 1e3:g} ms",
        f"setup_s: median of {len(setups)} fresh interpreters; uncorrected "
        f"{statistics.median(s['setup_raw_s'] for s in setups)!r} s",
        f"pass_s: median of {len(res['pass_s'])} passes of {n} instances; "
        f"uncorrected {statistics.median(res['pass_raw_s'])!r} s",
        f"latency_tail_ms: {tail} of {len(lat)} instances of the first pass "
        f"(closed loop, one caller)",
        f"decided_ratio: {decided} of {len(verdicts)} verdicts decided",
    ]
    return values, notes


def per_layer(res: dict) -> tuple[dict, list[str]]:
    values = dict(res["layers"])
    values["trace.overhead_ratio"] = res["traced_pass_s"] / res["untraced_pass_s"]
    notes = [
        f"trace: {res['spans']} spans written to {res['spans_file']}",
        f"trace.overhead_ratio: traced pass {res['traced_pass_s']!r} s over "
        f"untraced pass {res['untraced_pass_s']!r} s",
    ]
    steps = res["instance_steps"]
    if len(steps) <= 20 and any(n for _, n in steps):
        notes += [f"primrec.steps for {label}: {n}" for label, n in steps]
    return values, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="smoke: reduced instance lists, for the smoke test")
    args = ap.parse_args()
    if not (ROOT / "src" / "delta0lab" / "__init__.py").is_file():
        print(f"no delta0lab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated run raises SystemExit, which makes subprocess.run kill and
    # reap the worker it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    try:
        # the set-up probes go half before and half after the run, so that
        # they sample the host at moments the length of a run apart
        probes = 0 if args.trace else SETUP_SAMPLES - 1 if args.size == "full" else 1
        setups = [worker(args, "setup", deadline) for _ in range(probes // 2)]
        res = worker(args, "run", deadline)
        setups.append(res)
        setups += [worker(args, "setup", deadline)
                   for _ in range(probes - probes // 2)]
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.trace:
        values, notes = per_layer(res)
        units = LAYER_UNITS
    else:
        values, notes = end_to_end(res, setups)
        units = END_TO_END_UNITS

    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace}")
    for name, unit in units.items():
        print(f"metric {name} = {values[name]!r} {unit}")
    # failed_ratio is 0 when all is well, so it has no relative bound and
    # stays out of the JSON metrics; the JSON carries failed and attempted
    print(f"metric failed_ratio = {res['failed'] / res['attempted']!r} ratio "
          f"({res['failed']} of {res['attempted']} instances)")
    for note in notes:
        print(f"  {note}")
    for err in res["errors"]:
        print(f"  failed: {err}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
