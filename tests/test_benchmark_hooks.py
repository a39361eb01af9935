"""The package names the benchmark reaches are still there.

``benchmarks/tracer.py`` wraps package functions and methods by name, and
a traced benchmark run fails its correctness gate on any name it cannot
find; ``benchmarks/run.py`` times ``quantum.measure_z`` and
``quantum.bell_measure`` directly, with a numpy Generator; its
``SETUP_CODE`` builds and checks each workload's ``ExperimentConfig`` in
a fresh interpreter. These checks put all three in the test suite, so a
removed or re-signed name shows here and not only in a benchmark run.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from qdialogue import attacks, quantum

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import run as bench  # noqa: E402
import tracer  # noqa: E402


def test_the_tracer_finds_every_name_it_wraps():
    score = attacks.EveSession.score
    with tracer.Tracer() as traced:
        assert attacks.EveSession.score is not score
    assert traced.missing == []
    assert attacks.EveSession.score is score


def test_the_direct_samplers_take_a_generator():
    # As ``run.direct_us_p50`` calls them: on the protocol's pair.
    pair = quantum.bell_state(quantum.BitPair(0, 1))
    rng = np.random.default_rng(0)
    bit, collapsed = quantum.measure_z(pair, "t", rng)
    assert bit in (0, 1) and collapsed.registers == pair.registers
    code, collapsed = quantum.bell_measure(pair, "h", "t", rng)
    assert code == quantum.BitPair(0, 1)
    np.testing.assert_array_equal(collapsed.amps, pair.amps)


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_the_setup_code_runs_on_every_workload(workload):
    # As ``run.measure_setup`` runs it: a fresh interpreter that prints its seconds.
    config = json.dumps({**bench.WORKLOADS[workload].config, "master_seed": 1})
    assert bench._child_seconds(bench.SETUP_CODE, config) > 0.0
