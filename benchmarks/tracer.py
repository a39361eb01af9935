"""In-memory span tracer that instruments qdialogue from outside.

Every layer is timed at the boundary where its caller looks it up, so
nothing inside the package changes:

* ``quantum``  -- the state-vector primitives as bound in ``protocol``
  and ``attacks`` (the dialogue engine; the oracle's own quantum calls
  stay inside its ``analysis`` span);
* ``protocol`` -- ``run_dialogue`` as bound in ``harness``;
* ``attacks``  -- every strategy tap method and ``EveSession.score``;
* ``analysis`` -- ``TrialReport.from_dialogue`` and the detection oracle;
* ``harness``  -- ``run_trial``, ``run_experiment`` and ``sweep``;
* ``cli``      -- ``main`` itself, ``write_document`` and ``to_json``.

A span is (name id, start, end, parent span, trial id). A layer's self
time is the duration of its spans minus the part their direct children
cover, minus what the wrapper of each direct child costs its caller
(``span_cost``), so that the self times measure the program and not the
tracer. A name that a later version of the package no longer has is
skipped and listed in ``missing``.

Amplitudes are counted only by a tracer made with ``count_amps=True``:
that walk over every argument and result would otherwise land in the
calling layer's self time.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array
from collections import defaultdict

from qdialogue import analysis, attacks, cli, harness, protocol, quantum

LAYERS = ("cli", "harness", "analysis", "attacks", "protocol", "quantum")

QUANTUM_PRIMITIVES = (
    "bell_state",
    "apply_pauli",
    "bell_measure",
    "measure_z",
    "entangling_probe",
    "attach_ancilla",
    "tensor_product",
)

STRATEGY_METHODS = ("new_session", "begin_run", "on_ping", "on_pong", "hear", "guess", "end_run")

# Boundaries every ``run`` or ``sweep`` call passes; a traced call that
# records none of one has lost a wrapper. Quantum primitives are not
# among them: an engine that bypasses ``quantum`` calls none.
REQUIRED_SPANS = (
    "harness.run_experiment",
    "harness.run_trial",
    "protocol.run_dialogue",
    "attacks.new_session",
    "analysis.trial_report",
    "analysis.oracle",
    "cli.write_document",
    "cli.to_json",
)

AMP_BYTES = 16  # one complex128 amplitude


def _amplitudes(obj) -> int:
    """Amplitudes held by a state, or by the states inside a result tuple."""
    if isinstance(obj, quantum.StateVector):
        return obj.amps.size
    if isinstance(obj, tuple):
        return sum(_amplitudes(item) for item in obj)
    return 0


class Tracer:
    """Records spans while installed; restores every patched name on exit.

    Spans live in flat arrays rather than one Python object each, so a
    traced call allocates little and leaves nothing for the garbage
    collector to walk during the calls that follow it.
    """

    def __init__(self, count_amps: bool = False) -> None:
        self.count_amps = count_amps
        self.missing: list[str] = []
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.trials = array("i")  # index into trial_ids, -1 outside a trial
        self.trial_ids: list[tuple[int, ...]] = []
        self.amp_bytes = 0
        self.trial_io: list[tuple] = []
        self._trial = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, layer: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span; hooks run outside the span."""
        name_id = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        name_ids, starts, ends, parents, trials = (
            self.name_ids,
            self.starts,
            self.ends,
            self.parents,
            self.trials,
        )
        stack, perf = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            trials.append(self._trial)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, layer: str, **hooks) -> None:
        raw = vars(owner).get(attr)
        if raw is None:
            self.missing.append(name)
            return
        wrapped = self.wrap(name, layer, getattr(owner, attr), **hooks)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = staticmethod(wrapped)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, raw))

    def _count_amps(self, args, result) -> None:
        self.amp_bytes += AMP_BYTES * (_amplitudes(args) + _amplitudes(result))

    def _enter_trial(self, args) -> None:
        _config, trial_index, *rest = args
        point_key = tuple(rest[0]) if rest else ()
        self._trial = len(self.trial_ids)
        self.trial_ids.append((*point_key, trial_index))

    def _leave_trial(self, args, report) -> None:
        self._trial = -1
        self.trial_io.append((args, report))

    def __enter__(self) -> "Tracer":
        count = {"after": self._count_amps} if self.count_amps else {}
        for module in (protocol, attacks):
            for prim in QUANTUM_PRIMITIVES:
                if vars(module).get(prim) is getattr(quantum, prim, None):
                    self._patch(module, prim, f"quantum.{prim}", "quantum", **count)
        self._patch(harness, "run_dialogue", "protocol.run_dialogue", "protocol")
        for cls in vars(attacks).values():
            if isinstance(cls, type) and issubclass(cls, attacks.AttackStrategy):
                for method in STRATEGY_METHODS:
                    if method in vars(cls):  # subclasses inherit the base wrapper
                        self._patch(cls, method, f"attacks.{method}", "attacks")
        self._patch(attacks.EveSession, "score", "attacks.score", "attacks")
        self._patch(analysis.TrialReport, "from_dialogue", "analysis.trial_report", "analysis")
        self._patch(harness, "per_cm_detection_oracle", "analysis.oracle", "analysis")
        self._patch(
            harness,
            "run_trial",
            "harness.run_trial",
            "harness",
            before=self._enter_trial,
            after=self._leave_trial,
        )
        self._patch(harness, "run_experiment", "harness.run_experiment", "harness")
        self._patch(cli, "run_experiment", "harness.run_experiment", "harness")
        self._patch(cli, "sweep", "harness.sweep", "harness")
        self._patch(cli, "write_document", "cli.write_document", "cli")
        self._patch(harness, "to_json", "cli.to_json", "cli")
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- reduction ---------------------------------------------------------

    def summary(self, span_cost: float = 0.0) -> dict:
        """Per span name: call count, total and self seconds, durations.

        ``span_cost`` seconds are taken off a span's self time for each
        direct child, for the wrapper's own work around the child.
        """
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        own = durations[:]
        for duration, parent in zip(durations, self.parents):
            if parent >= 0:
                own[parent] -= duration + span_cost
        by_name: dict = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "durations": []})
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name_id, duration, self_time in zip(self.name_ids, durations, own):
            entry = by_name[self.names[name_id]]
            entry["calls"] += 1
            entry["total"] += duration
            entry["self"] += self_time
            entry["durations"].append(duration)
            layer_self[self.layers[name_id]] += self_time
        return {"by_name": by_name, "layer_self": layer_self}

    def covered_share(self) -> float:
        """Share of the root span that the spans directly below it cover."""
        roots = [i for i, parent in enumerate(self.parents) if parent < 0]
        root_time = sum(self.ends[i] - self.starts[i] for i in roots)
        covered = sum(
            end - start
            for start, end, parent in zip(self.starts, self.ends, self.parents)
            if parent in roots
        )
        return covered / root_time

    def write(self, path, extra: dict) -> None:
        """Dump names and spans (times relative to the first span) as JSON."""
        origin = min(self.starts, default=0.0)
        rows = [
            [name_id, round(start - origin, 9), round(end - origin, 9), parent, trial]
            for name_id, start, end, parent, trial in zip(
                self.name_ids, self.starts, self.ends, self.parents, self.trials
            )
        ]
        doc = {
            **extra,
            "span_fields": ["name", "start_s", "end_s", "parent", "trial"],
            "names": [[n, layer] for n, layer in zip(self.names, self.layers)],
            "trials": [list(t) for t in self.trial_ids],
            "spans": rows,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def span_cost(repeats: int = 20_000, samples: int = 5) -> float:
    """Seconds a wrapper adds to its caller per call, beyond the call itself.

    The median over ``samples`` of (``repeats`` wrapped calls minus as
    many direct calls) of an empty three-argument function, divided by
    ``repeats``. The wrapped calls are made inside a span, as every
    traced call but the root is.
    """

    def empty(a, b, c):
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("empty", "none", empty)
    perf = time.perf_counter

    def loop(fn) -> float:
        start = perf()
        for _ in range(repeats):
            fn(None, 1, 2)
        return perf() - start

    def sample() -> float:
        return (loop(wrapped) - loop(empty)) / repeats

    return statistics.median(tracer.wrap("outer", "none", sample)() for _ in range(samples))
