#!/usr/bin/env python3
"""Benchmark of the ``qdialogue`` command line: time to verdict and throughput.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the package is imported from ``src/`` next to
this directory, never from an installed copy. The load is a closed
loop with one client: each repetition is one in-process call of
``qdialogue.cli.main(argv)`` that writes its document to a scratch file
under ``.bench_out/``, and the next call starts when it returns. The
benchmark ``--seed`` is the CLI ``--seed``.

``--trace 0`` times the workload untraced for ``--seconds`` and reports
the end-to-end metrics, each time scaled to a reference machine speed
(``calibration_s``). ``--trace 1`` alternates untraced one-worker,
untraced two-worker and traced one-worker calls for ``--seconds`` and
reports the per-layer metrics (see ``tracer.py``); the spans of the
last traced call go to ``.bench_out/spans-<workload>.json``.

Every call passes the correctness gate (``Gate``). The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (gate checks) and ``metrics``. The line before it stamps the
environment.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _import_package():
    """Import qdialogue from this checkout's sources, or exit with an error."""
    if not (SRC / "qdialogue" / "__init__.py").is_file():
        sys.exit(f"benchmark: no package sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import qdialogue.cli

    if Path(qdialogue.__file__).resolve().parent != SRC / "qdialogue":
        sys.exit(f"benchmark: imported qdialogue from {qdialogue.__file__}, not {SRC}")
    return qdialogue


qdialogue = _import_package()
from qdialogue import cli  # noqa: E402

import tracer as tracing  # noqa: E402

SWEEP_VALUES = "0.05,0.1,0.15,0.2,0.25,0.3,0.4,0.5"


@dataclass(frozen=True)
class Workload:
    """One CLI invocation: subcommand, ExperimentConfig fields, sweep axis."""

    command: str
    config: dict
    sweep: tuple[str, str] | None = None

    @property
    def workers(self) -> int:
        return self.config.get("workers", 1)

    def argv(self, seed: int, out: Path, command: str | None = None, **override) -> list[str]:
        command = command or self.command
        argv = [command]
        for key, value in {**self.config, **override}.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        argv += ["--seed", str(seed), "--out", str(out)]
        if command == "sweep":
            argv += ["--vary", self.sweep[0], "--values", self.sweep[1]]
        return argv


# Why each workload exists is in BENCHMARK.json and README.md. Trial
# counts size one call at one to two seconds on two cores, so a run of
# --seconds holds a dozen or more calls.
WORKLOADS = {
    "honest-long": Workload(
        "run",
        {"attack": "none", "c": 0.5, "n_pairs": 64, "detection_policy": "terminal", "workers": 1, "trials": 150},
    ),
    "intercept-pool": Workload(
        "run",
        {"attack": "intercept-resend-literal", "c": 0.5, "n_pairs": 32, "workers": 2, "trials": 400},
    ),
    "probe-sweep-short": Workload(
        "sweep",
        {
            "attack": "entangle-measure",
            "beta2": 0.25,
            "c": 0.5,
            "n_pairs": 2,
            "detection_policy": "reinitialize",
            "max_restarts": 2,
            "workers": 2,
            "trials": 200,
        },
        sweep=("beta2", SWEEP_VALUES),
    ),
}

MIN_CALLS = 3  # timed calls per untraced run, however short --seconds is
MIN_TRACE_ROUNDS = 2  # traced rounds per traced run
COUNT_PASSES = 2  # amplitude-counting traced calls, so exact counts can be compared
SETUP_REPEATS = 11
POOL_PROBE_REPEATS = 5

# A comparison row of the document counts as a gross miss, and so as a
# failed check, when a Monte Carlo estimate lies more than this many
# reference standard errors from its reference. The CLI's own verdict
# uses three plug-in standard errors, which a correct program misses at
# some seeds (18 of 120 seeds of the probe sweep at 100 trials a point,
# whose 8 points carry 24 such rows); those misses count as alarms.
GROSS_Z = 5.0


# ---------------------------------------------------------------------------
# Correctness gate


def _points(doc: dict) -> list[dict]:
    return doc["points"] if "points" in doc else [doc]


def gross_misses(doc: dict) -> list[str]:
    """Comparison rows that no sampling fluctuation explains.

    A Monte Carlo row (tolerance three standard errors, reference
    strictly inside (0, 1)) misses grossly beyond ``GROSS_Z`` standard
    errors of the reference rate. Every other row -- exact identities,
    bounds, rates whose reference is 0 or 1 -- must be within.
    """
    misses = []
    for point in _points(doc):
        for row in point["comparisons"]:
            ref = row["reference"]
            if row["tolerance"] == 3.0 * row["stderr"] and 0.0 < ref < 1.0:
                sigma = (ref * (1.0 - ref) / row["n_samples"]) ** 0.5
                bad = abs(row["empirical"] - ref) > GROSS_Z * sigma
            else:
                bad = not row["within"]
            if bad:
                misses.append(f"{row['name']}={row['empirical']} vs {ref}")
    return misses


@dataclass
class Gate:
    """Counts correctness checks attempted and failed over every CLI call.

    For each call: the CLI returned normally with exit code 0 or 1 and
    that code agrees with the document's verdict; the document has no
    gross miss; and, given an expected document, it is byte-identical
    to it. A verdict of ``all_within_tolerance: false`` without a
    gross miss is a statistical alarm, counted in ``alarms``.
    """

    attempted: int = 0
    failed: int = 0
    alarms: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok

    def call(self, label: str, rc, doc: bytes | None, expected: bytes | None = None) -> None:
        if not self.check(rc in (0, 1) and doc is not None, f"{label}: exit code {rc}"):
            return
        parsed = json.loads(doc)
        verdict = parsed["all_within_tolerance"]
        self.check(rc == (0 if verdict else 1), f"{label}: exit code {rc} with verdict {verdict}")
        misses = gross_misses(parsed)
        self.check(not misses, f"{label}: gross miss {misses}")
        self.alarms += not verdict
        if expected is not None:
            self.check(doc == expected, f"{label}: document differs from the reference call")

    @property
    def share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# Calls


@dataclass
class Call:
    rc: int | None
    seconds: float
    doc: bytes | None


def cli_call(argv: list[str], out: Path, tracer: tracing.Tracer | None = None) -> Call:
    """One in-process ``cli.main(argv)``; reads back the written document."""
    if out.exists():
        out.unlink()
    main = cli.main if tracer is None else tracer.wrap("cli.main", "cli", cli.main)
    rc = None
    with contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        seconds = time.perf_counter() - start
    doc = out.read_bytes() if out.exists() else None
    return Call(rc, seconds, doc)


def _runs_and_trials(doc: bytes) -> tuple[int, int, int]:
    points = _points(json.loads(doc))
    return (
        sum(p["totals"]["runs"] for p in points),
        sum(p["totals"]["trials"] for p in points),
        sum(p["totals"]["restarts"] for p in points),
    )


# The shared machine the benchmark was built on runs 20-40% slower for
# stretches of seconds to minutes, and identical CLI calls slow down with
# a fixed loop of interpreter work and small numpy calls. Call times
# are therefore scaled by that loop's speed, measured right before and
# right after each timed call: a reported time is
# ``seconds * CALIBRATION_REF_S / calibration_s``, seconds at the speed
# at which the loop takes CALIBRATION_REF_S (its time at full speed on
# that machine, a 2-vCPU Xeon VM, with Python 3.11 and numpy 2.4). The
# loop uses nothing of the package, so a change to the program leaves
# it alone. The machine's two cores change speed independently, so a
# workload with a pool is calibrated on as many cores as it has workers
# (``Calibrator``).
CALIBRATION_REF_S = 0.07


def calibration_s() -> float:
    """Seconds one pass of the fixed calibration loop takes now."""
    rng = np.random.default_rng(0)
    amps = np.full(4, 0.5, dtype=complex)
    start = time.perf_counter()
    total = 0
    for i in range(2500):
        state = np.kron(amps, amps[:2]).reshape(2, 2, 2)
        probs = np.abs(state.transpose(1, 0, 2).reshape(4, 2)) ** 2
        total += int(rng.choice(4, p=probs.sum(axis=1) / probs.sum()))
        record = {"index": i, "total": total, "bits": (i & 1, i >> 1 & 1)}
        total += len(record) + sum(record["bits"])
    return time.perf_counter() - start


def _calibration_helper(pipe) -> None:
    while pipe.recv():
        pipe.send(calibration_s())


class Calibrator:
    """Runs the calibration loop ``loops`` times at once, here and in helpers.

    Calling it returns the mean loop time. The helper processes are
    forked on entry and stopped and reaped on exit.
    """

    def __init__(self, loops: int) -> None:
        self.loops = loops
        self.pipes: list = []
        self.helpers: list = []

    def __enter__(self) -> "Calibrator":
        context = multiprocessing.get_context("fork")
        for _ in range(self.loops - 1):
            ours, theirs = context.Pipe()
            helper = context.Process(target=_calibration_helper, args=(theirs,), daemon=True)
            helper.start()
            self.pipes.append(ours)
            self.helpers.append(helper)
        return self

    def __call__(self) -> float:
        for pipe in self.pipes:
            pipe.send(True)
        times = [calibration_s()] + [pipe.recv() for pipe in self.pipes]
        return statistics.fmean(times)

    def __exit__(self, *exc) -> None:
        for pipe in self.pipes:
            pipe.send(False)
        for helper in self.helpers:
            helper.join()


def scaled(times: list[float], calibrations: list[float], reference: float) -> list[float]:
    """Each time at reference speed, from the calibrations either side of it."""
    return [
        seconds * reference / ((before + after) / 2)
        for seconds, before, after in zip(times, calibrations, calibrations[1:])
    ]


# A fresh interpreter's start does not follow calibration_s: it is file
# reads, unmarshalling and page faults more than computation. Set-up
# times are scaled instead by reference starts that import numpy and
# the standard-library modules the package imports, but not the package;
# START_REF_S is such a start at full speed on the machine above.
START_REF_S = 0.06
REFERENCE_START_CODE = """
import time
start = time.perf_counter()
import argparse, concurrent.futures, csv, dataclasses, numpy
print(time.perf_counter() - start)
"""


SETUP_CODE = """
import json, sys, time
start = time.perf_counter()
import qdialogue.cli
from qdialogue.harness import ExperimentConfig
config = ExperimentConfig(**json.loads(sys.argv[1]))
config.validate()
config.strategy()
config.protocol_config()
print(time.perf_counter() - start)
"""


def _child_seconds(code: str, *args: str) -> float:
    """Run ``code`` in a fresh interpreter and read the seconds it prints."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=ROOT,
        timeout=60,
        check=True,
    )
    return float(proc.stdout)


def measure_setup(workload: Workload, seed: int) -> list[float]:
    """Fresh interpreters: import, config build and validation (first one untimed).

    Returns the timed ones at reference speed, each scaled by the
    reference starts made right before and right after it.
    """
    config = json.dumps({**workload.config, "master_seed": seed})
    times, references = [], [_child_seconds(REFERENCE_START_CODE)]
    for _ in range(SETUP_REPEATS + 1):
        times.append(_child_seconds(SETUP_CODE, config))
        references.append(_child_seconds(REFERENCE_START_CODE))
    return scaled(times, references, START_REF_S)[1:]


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times its largest child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


# ---------------------------------------------------------------------------
# Environment stamp


def _commit() -> str:
    """HEAD of a git checkout at ROOT, read from the files; 'unknown' otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _loadavg() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
    }


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics


def run_untraced(name: str, workload: Workload, seed: int, seconds: float, gate: Gate) -> dict:
    out = OUT / f"doc-{name}.json"
    argv = workload.argv(seed, out)
    reference = cli_call(argv, out)  # warm-up, untimed
    gate.call("warm-up", reference.rc, reference.doc)
    if reference.doc is None:
        raise RuntimeError(f"warm-up call wrote no document: {gate.notes}")

    # The helpers are reaped only after peak_rss_mb has read the pool's peak.
    with Calibrator(workload.workers) as calibrate:
        times, calibrations = [], [calibrate()]
        deadline = time.perf_counter() + seconds
        while len(times) < MIN_CALLS or time.perf_counter() + times[-1] + calibrations[-1] <= deadline:
            call = cli_call(argv, out)
            gate.call("timed", call.rc, call.doc, reference.doc)
            times.append(call.seconds)
            calibrations.append(calibrate())
        times = scaled(times, calibrations, CALIBRATION_REF_S)

        if workload.workers > 1:
            replay = cli_call(workload.argv(seed, out, workers=1), out)
            gate.call("single-process replay", replay.rc, replay.doc, reference.doc)

        rss = peak_rss_mb(workload.workers)
    setup = measure_setup(workload, seed)
    runs, trials, _ = _runs_and_trials(reference.doc)
    verdict = statistics.median(times)
    print(f"verdict_s samples={len(times)} min={min(times):.4f} max={max(times):.4f}")
    print(f"calibration_s samples={len(calibrations)} min={min(calibrations):.4f} max={max(calibrations):.4f}")
    print(f"setup_s samples={len(setup)} min={min(setup):.4f} max={max(setup):.4f}")
    return {
        "verdict_s": (verdict, "s"),
        "runs_per_s": (runs / verdict, "1/s"),
        "dialogues_per_s": (trials / verdict, "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def direct_us_p50(prim: str, repeats: int = 2000) -> float:
    """Median time of direct calls of one primitive on the protocol's pair.

    Stands in for a primitive the workload never calls: 2-register Bell
    pair inputs, with a fiducial ancilla for the probe and a second pair
    for the tensor product.
    """
    q = qdialogue.quantum
    pair = q.bell_state(q.BitPair(0, 1))
    with_ancilla = q.attach_ancilla(pair, "e")
    other = q.bell_state(q.BitPair(0, 0), regs=("H", "T"))
    rng = np.random.default_rng(0)
    call = {
        "bell_state": lambda: q.bell_state(q.BitPair(1, 0)),
        "apply_pauli": lambda: q.apply_pauli(pair, "t", q.BitPair(1, 0)),
        "bell_measure": lambda: q.bell_measure(pair, "h", "t", rng),
        "measure_z": lambda: q.measure_z(pair, "t", rng),
        "entangling_probe": lambda: q.entangling_probe(with_ancilla, "t", "e", 0.75**0.5, 0.5),
        "attach_ancilla": lambda: q.attach_ancilla(pair, "e"),
        "tensor_product": lambda: q.tensor_product(pair, other),
    }[prim]
    durations = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations) * 1e6


def layer_times(tracer: tracing.Tracer, doc: bytes, wall: float, span_cost: float) -> dict:
    """Per-layer times of one traced call, wrapper cost taken off."""
    summary = tracer.summary(span_cost)
    by_name, layer_self = summary["by_name"], summary["layer_self"]
    runs, trials, _ = _runs_and_trials(doc)
    trial_ms = [d * 1e3 for d in by_name["harness.run_trial"]["durations"]] or [0.0]  # see check_coverage
    times = {
        "quantum.self_us_per_run": layer_self["quantum"] / runs * 1e6,
        "protocol.self_us_per_run": layer_self["protocol"] / runs * 1e6,
        "attacks.self_us_per_run": layer_self["attacks"] / runs * 1e6,
        "analysis.trial_report_us": by_name["analysis.trial_report"]["total"] / trials * 1e6,
        "analysis.oracle_ms": by_name["analysis.oracle"]["total"] * 1e3,
        "harness.trial_self_us": by_name["harness.run_trial"]["self"] / trials * 1e6,
        "harness.trial_ms_p50": _percentile(trial_ms, 0.50),
        "harness.trial_ms_p99": _percentile(trial_ms, 0.99),
        "harness.reduce_ms": by_name["harness.run_experiment"]["self"] * 1e3,
        "cli.serialize_ms": by_name["cli.write_document"]["total"] * 1e3,
        "trace.wall_ms": wall * 1e3,
        "trace.self_sum_ms": sum(layer_self.values()) * 1e3,
        "trace.covered_share": tracer.covered_share(),
    }
    for prim in tracing.QUANTUM_PRIMITIVES:
        durations = by_name[f"quantum.{prim}"]["durations"]
        times[f"quantum.{prim}.us_p50"] = (
            statistics.median(durations) * 1e6 if durations else direct_us_p50(prim)
        )
    for layer, seconds in layer_self.items():
        times[f"{layer}.self_ms"] = seconds * 1e3
    return times


def exact_counts(tracer: tracing.Tracer, doc: bytes) -> dict:
    """Counts of one amplitude-counting traced call; they repeat exactly."""
    by_name = tracer.summary()["by_name"]
    runs, trials, restarts = _runs_and_trials(doc)
    quantum_calls = sum(by_name[f"quantum.{p}"]["calls"] for p in tracing.QUANTUM_PRIMITIVES)
    ipc = sum(len(pickle.dumps(job)) + len(pickle.dumps(report)) for job, report in tracer.trial_io)
    return {
        "quantum.calls_per_run": quantum_calls / runs,
        "quantum.amp_bytes_per_run": tracer.amp_bytes / runs,
        "protocol.runs_per_dialogue": runs / trials,
        "protocol.restarts_per_dialogue": restarts / trials,
        "harness.trial_samples": len(tracer.trial_io),
        "harness.ipc_bytes_per_trial": ipc / trials,
        "cli.doc_bytes": len(doc),
    }


def check_coverage(gate: Gate, tracer: tracing.Tracer, label: str) -> None:
    """Every wrapper was installed and called, and the spans cover the call."""
    by_name = tracer.summary()["by_name"]
    gate.check(not tracer.missing, f"{label}: no such name to wrap: {tracer.missing}")
    idle = [name for name in tracing.REQUIRED_SPANS if not by_name[name]["calls"]]
    gate.check(not idle, f"{label}: no calls through {idle}")
    share = tracer.covered_share()
    gate.check(share >= 0.9, f"{label}: spans below cli.main cover {share:.3f} of it")


# Exact counts derived from sizes rather than measured.
COMPUTED = ("quantum.amp_bytes_per_run", "harness.ipc_bytes_per_trial")

PER_LAYER_UNITS = {
    "quantum.calls_per_run": "count",
    "quantum.amp_bytes_per_run": "B",
    "quantum.self_us_per_run": "us",
    **{f"quantum.{prim}.us_p50": "us" for prim in tracing.QUANTUM_PRIMITIVES},
    **{f"{layer}.self_ms": "ms" for layer in tracing.LAYERS},
    "protocol.self_us_per_run": "us",
    "protocol.runs_per_dialogue": "count",
    "protocol.restarts_per_dialogue": "count",
    "attacks.self_us_per_run": "us",
    "analysis.trial_report_us": "us",
    "analysis.oracle_ms": "ms",
    "harness.trial_self_us": "us",
    "harness.trial_ms_p50": "ms",
    "harness.trial_ms_p99": "ms",
    "harness.trial_samples": "count",
    "harness.reduce_ms": "ms",
    "harness.pool_start_ms": "ms",
    "harness.pool_efficiency": "ratio",
    "harness.ipc_bytes_per_trial": "B",
    "cli.serialize_ms": "ms",
    "cli.doc_bytes": "B",
    "trace.wall_ms": "ms",
    "trace.self_sum_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.span_cost_us": "us",
    "trace.covered_share": "ratio",
}


def run_traced(name: str, workload: Workload, seed: int, seconds: float, gate: Gate) -> dict:
    out = OUT / f"doc-{name}.json"
    reference = cli_call(workload.argv(seed, out), out)  # warm-up, untimed
    gate.call("warm-up", reference.rc, reference.doc)
    if reference.doc is None:
        raise RuntimeError(f"warm-up call wrote no document: {gate.notes}")
    span_cost = tracing.span_cost()

    # Pool start-up: a 1-trial experiment at two workers minus the same at one.
    probe_out = OUT / f"probe-{name}.json"
    pool_deltas = []
    for _ in range(POOL_PROBE_REPEATS):
        one = cli_call(workload.argv(seed, probe_out, command="run", trials=1, workers=1), probe_out)
        two = cli_call(workload.argv(seed, probe_out, command="run", trials=1, workers=2), probe_out)
        gate.check(one.rc in (0, 1) and two.rc in (0, 1), "pool probe: exit code")
        gate.check(one.doc == two.doc, "pool probe: document differs between 1 and 2 workers")
        pool_deltas.append(two.seconds - one.seconds)

    # Exact counts come from separate single-process calls that also count
    # amplitudes; the timed traced calls below carry no such hook.
    counts_seen = []
    for _ in range(COUNT_PASSES):
        counter = tracing.Tracer(count_amps=True)
        with counter:
            call = cli_call(workload.argv(seed, out, workers=1), out, tracer=counter)
        gate.call("counting replay", call.rc, call.doc, reference.doc)
        if call.doc is None:
            raise RuntimeError(f"counting call wrote no document: {gate.notes}")
        check_coverage(gate, counter, "counting replay")
        counts_seen.append(exact_counts(counter, call.doc))
    gate.check(
        all(c == counts_seen[0] for c in counts_seen),
        f"exact counts differ between traced calls: {counts_seen}",
    )

    one_worker, two_workers, traced_walls = [], [], []
    rounds: list[dict] = []
    last = None
    deadline = time.perf_counter() + seconds
    round_seconds = 0.0
    while len(rounds) < MIN_TRACE_ROUNDS or time.perf_counter() + round_seconds <= deadline:
        round_start = time.perf_counter()
        call = cli_call(workload.argv(seed, out, workers=1), out)
        gate.call("untraced 1 worker", call.rc, call.doc, reference.doc)
        one_worker.append(call.seconds)
        call = cli_call(workload.argv(seed, out, workers=2), out)
        gate.call("untraced 2 workers", call.rc, call.doc, reference.doc)
        two_workers.append(call.seconds)

        last = tracing.Tracer()
        with last:
            call = cli_call(workload.argv(seed, out, workers=1), out, tracer=last)
        gate.call("traced replay", call.rc, call.doc, reference.doc)
        if call.doc is None:
            raise RuntimeError(f"traced call wrote no document: {gate.notes}")
        check_coverage(gate, last, "traced replay")
        rounds.append(layer_times(last, call.doc, call.seconds, span_cost))
        traced_walls.append(call.seconds)
        round_seconds = time.perf_counter() - round_start

    t1, t2 = statistics.median(one_worker), statistics.median(two_workers)
    metrics = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
    metrics.update(counts_seen[0])
    metrics["trace.overhead_ms"] = (statistics.median(traced_walls) - t1) * 1e3
    metrics["trace.span_cost_us"] = span_cost * 1e6
    metrics["harness.pool_start_ms"] = statistics.median(pool_deltas) * 1e3
    metrics["harness.pool_efficiency"] = t1 / (2 * t2)

    last.write(OUT / f"spans-{name}.json", {"workload": name, "seed": seed, "env": environment()})
    print(f"traced rounds={len(rounds)} trial latency samples={counts_seen[0]['harness.trial_samples']}")
    return {key: (metrics[key], unit) for key, unit in PER_LAYER_UNITS.items()}


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    env = {**environment(), "workload": args.workload, "seed": args.seed, "loadavg_before": _loadavg()}
    gate = Gate()
    run = run_traced if args.trace else run_untraced
    metrics = run(args.workload, workload, args.seed, args.seconds, gate)
    env["loadavg_after"] = _loadavg()
    env["gate"] = {"failed_share": gate.share, "alarms": gate.alarms, "notes": gate.notes[:10]}

    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}" + (" (computed)" if key in COMPUTED else ""))
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
