"""Tests of the benchmark itself.

Run from the root of a checkout (takes about a minute):

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from layers import COUNTED_KEYS, SIZES, TIMED_KEYS
from run import REFERENCE_MS, HostSpeed
from workloads import WORKLOADS, Op, check_output, import_cli, run_op

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_untraced_run_prints_every_end_to_end_metric():
    metrics = bench("fuzz-small", seed=3, trace=0)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first = bench(workload, seed=5, trace=1)
    second = bench(workload, seed=5, trace=1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in first.items()} == expected
    exact = [name for name, m in first.items() if m["unit"] in ("count", "bits")]
    assert len(exact) == len(TIMED_KEYS) + len(COUNTED_KEYS) + len(SIZES)
    assert {n: first[n]["value"] for n in exact} == {n: second[n]["value"] for n in exact}


def test_host_speed_scales_by_the_median_of_nearby_samples():
    speed = HostSpeed()
    speed.samples = [REFERENCE_MS / 1000 * x for x in (1, 1, 2, 2, 2, 2, 2, 9)]
    # each sample takes in the medians of up to two samples on either side
    assert speed.scales() == pytest.approx([1, 2 / 3, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
    speed.samples.clear()
    speed.sample()
    assert len(speed.samples) == 1 and speed.samples[0] > 0


def test_changed_output_fails_the_digest_check():
    cli = import_cli()
    workload = WORKLOADS["fuzz-small"]
    op = workload.op(0)
    code, stdout, stderr = run_op(cli, op)
    reference = workload.load_reference()[0]
    assert check_output(op, code, stdout, stderr, reference) == ""
    assert "digest" in check_output(op, code, stdout + " ", stderr, reference)
    assert "exit code" in check_output(op, 1, stdout, stderr, reference)
    assert "JSON" in check_output(op, 0, "Traceback", stderr, reference)
    bad = Op(op.index, ("compute", "-"), "")
    assert "oracle_agrees" in check_output(bad, 0, json.dumps({"oracle_agrees": False}), "", None)
