"""Smoke test of the benchmark at tiny trial counts.

    python3 -m pytest benchmarks/test_smoke.py -q

Runs every workload in both modes through ``run.main`` in-process and
checks that each metric declared in BENCHMARK.json is emitted with its
unit, and that the correctness gate counts the failures it exists to
catch.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMOKE_TRIALS = 40


def test_declared_workloads_are_the_benchmarks():
    assert [w["name"] for w in DECLARED["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_every_declared_metric_is_emitted(workload, trace, monkeypatch, capsys):
    full = bench.WORKLOADS[workload]
    small = dataclasses.replace(full, config={**full.config, "trials": SMOKE_TRIALS})
    monkeypatch.setitem(bench.WORKLOADS, workload, small)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert bench.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _doc(verdict: bool, empirical: float, n: int = 10_000, reference: float = 0.25) -> bytes:
    stderr = (empirical * (1.0 - empirical) / n) ** 0.5
    row = {
        "name": "eve_alice_guess_accuracy",
        "empirical": empirical,
        "stderr": stderr,
        "n_samples": n,
        "reference": reference,
        "tolerance": 3.0 * stderr,
        "within": verdict,
    }
    return json.dumps({"comparisons": [row], "all_within_tolerance": verdict}).encode()


def test_gate_passes_a_consistent_call():
    gate = bench.Gate()
    doc = _doc(True, 0.25)
    gate.call("ok", 0, doc, expected=doc)
    assert gate.failed == 0 and gate.attempted == 4


def test_gate_counts_a_nonzero_exit():
    gate = bench.Gate()
    gate.call("config error", 2, None)
    gate.call("exit 1 on a passing verdict", 1, _doc(True, 0.25))
    assert gate.failed == 2


def test_gate_counts_a_differing_document():
    gate = bench.Gate()
    gate.call("repeat", 0, _doc(True, 0.25), expected=_doc(True, 0.2501))
    assert gate.failed == 1


def test_gate_counts_a_gross_miss_but_not_a_sampling_alarm():
    gate = bench.Gate()
    gate.call("3.5 sigma low", 1, _doc(False, 0.25 - 3.5 * (0.1875 / 10_000) ** 0.5))
    assert gate.failed == 0 and gate.alarms == 1
    gate.call("10 sigma low", 1, _doc(False, 0.20))
    assert gate.failed == 1
