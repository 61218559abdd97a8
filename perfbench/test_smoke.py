"""Smoke test of the benchmark at reduced size (`--size smoke`).

Checks that a call prints every metric by name with its unit and ends with
the result object, that a verdict flipped by a fault injected into the
library counts as a failed operation, and that the benchmark refuses to
run where there is no package to measure.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run as bench  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _call(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def test_benchmark_json_lists_the_printed_metrics():
    assert [m["name"] for m in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for key, units in (("end_to_end", bench.END_TO_END_UNITS),
                       ("per_layer", bench.LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in SPEC[key]} == units


@pytest.mark.parametrize("workload, trace", [
    ("sat-pr", 0), ("run-check", 0), ("diagonal", 0), ("corpus", 0),
    ("run-check", 1), ("corpus", 1),
])
def test_every_metric_printed_with_unit(workload, trace):
    proc = _call(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.2",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = bench.LAYER_UNITS if trace else bench.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    printed = dict(units, failed_ratio="ratio")
    for name, unit in printed.items():
        pattern = rf"^metric {re.escape(name)} = \S+ {re.escape(unit)}\b"
        assert any(re.match(pattern, line) for line in lines), name


def _flip_verdict(v):
    return {v.TRUE: v.FALSE, v.FALSE: v.TRUE}.get(v, v)


# workload -> (module attribute the workload reaches, faulty replacement)
FAULTS = {
    "sat-pr": ("delta0lab.satpr", "eval_pr", lambda orig: lambda *a, **k: 0),
    "run-check": ("delta0lab", "satseq_check",
                  lambda orig: lambda *a, **k: _flip_verdict(orig(*a, **k))),
    "diagonal": ("delta0lab.satisfaction", "eval_delta0_verdict",
                 lambda orig: lambda *a, **k: _flip_verdict(orig(*a, **k))),
    "corpus": ("delta0lab", "eval_delta0",
               lambda orig: lambda *a, **k: not orig(*a, **k)),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_flipped_verdict_counts_as_failed(workload, monkeypatch):
    wl = workloads.build(workload, 7, "smoke")
    if workload != "sat-pr":   # its honest pass takes seconds; the call above covers it
        assert worker.run_pass(wl).failed == 0
    module, attr, fault = FAULTS[workload]
    mod = sys.modules[module]
    monkeypatch.setattr(mod, attr, fault(getattr(mod, attr)))
    res = worker.run_pass(wl)
    assert res.failed == len(wl.instances)
    assert len(res.errors) == res.failed


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench.tail_percentile(6468) == 99
    assert bench.tail_percentile(200) == 95
    assert bench.tail_percentile(20) == 50
    assert bench.tail_percentile(12) == 100


def test_host_speed_correction():
    speed = hostspeed.HostSpeed()
    mark = speed.mark()
    corrected, raw = speed.since(mark)
    assert corrected == raw >= 0   # not started: wall time
    # a host at half the reference speed: the chunk takes twice as long
    chunk = 2 * hostspeed.REF_CHUNK_S
    speed.at, speed.took, speed.cost = [0.0], [chunk], [chunk]
    mark = speed.mark()
    speed.at.append(mark[0])   # a sample inside the interval
    speed.took.append(chunk)
    speed.cost.append(0.0)
    corrected, raw = speed.since(mark)
    assert corrected == pytest.approx(raw / 2)
    speed.start()
    try:
        mark = speed.mark()
        while len(speed.took) < 3:
            pass
        corrected, raw = speed.since(mark)
    finally:
        speed.stop()
    assert 0 < raw and 0 < corrected


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _call(tmp_path, "--workload", "corpus", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
