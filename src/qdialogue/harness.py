"""Reproducible experiment driver.

Runs batches of independent dialogues under a named attack, folds
each dialogue's report field by field into an additive ``Tally`` as it
finishes, in the process that ran it, and emits a results document that
pairs every empirical rate with its analytic or oracle counterpart and
a tolerance verdict. A ``run`` or ``sweep`` starts ``min(workers,
trials) - 1`` children, after the parent has built the run tables of
every point, which forked children inherit. Every process, the parent
too, folds the next untaken chunk of trials, and a child sends back one
``Tally`` per chunk, all in one message at the end.
Per-trial reports are kept, with their decoded bits, only for verbose
JSON documents (``ExperimentConfig.keeps_reports``), so memory does not
grow with the trial count otherwise.

Every comparison row is built by ``_row`` with the keys ``name`` and
``ROW_KEYS``, in that order. The binomial rows come from one table of
(name, hits, samples, reference, source); a row with no samples is
left out. The CSV form of a row is its ``CSV_CONFIG_KEYS`` config
values, its name and its ``ROW_KEYS`` values. A config field's type is
read once, from the ``ExperimentConfig`` annotations, into
``FIELD_TYPES``.

Determinism contract: with the Philox4x64-10 key ``SeedSequence(master_seed,
spawn_key=point_key).generate_state(2, uint64)``, stream ``s`` of trial ``t``
(0: both messages, Alice's first, then the protocol's draws in run order;
1: Eve's) is its region of ``R_s`` uniforms (``chunk_streams``) in the
blocks at counters ``[t K_s + 1 ... t K_s + K_s, 0, 0, s]``, ``K_s = ceil(R_s
/ 4)``, then its overflow, the blocks ``[1, 2, ..., t + 1, 0, s]``. So any
worker count gives the same bytes, and a chunk's regions lie end to end for
``TrialStream`` to draw ``BATCH`` uniforms at a time and cut in the form the
trials' engine reads (``protocol.block_cuts``): pairs and pure guesses from
uniforms scaled by 4 or 16, which is exact, so every cell is equally likely.
"""

from __future__ import annotations

import csv
import io
import json
import os
import typing
from dataclasses import asdict, dataclass, replace
from itertools import chain, islice

import numpy as np

from . import analysis
from .analysis import (
    EstimateWithCI,
    Tally,
    TrialReport,
    detection_vs_message_length,
    dialogue_detection_exact,
    eve_entropy_bits,
    mutual_information_bits,
    guess_accuracy_oracle,
    per_cm_detection_oracle,
)
from .attacks import STRATEGIES, AttackStrategy, strategy_from_name
from .protocol import (TABLE_STRATEGIES, TERMINAL, ProtocolConfig, ValueTables, block_cuts, first_blocks,
                       pass_reads, run_dialogue, value_tables)
from .quantum import (
    ALL_CODES,
    PAULI_MATRICES,
    BitPair,
    StateVector,
    apply_pauli,
    bell_outcome_probs,
    bell_state,
    pauli_compose,
)

SCHEMA_RESULTS = "qdialogue-results/1"
SCHEMA_SWEEP = "qdialogue-sweep/1"
OUT_DIR_ENV = "QDIALOGUE_OUT_DIR"

# The parameters a sweep can vary; their values take the type in FIELD_TYPES.
SWEEPABLE = ("c", "n_pairs", "beta2")
FORMATS = ("json", "csv")

# A comparison row's keys after its name, in document and CSV order.
ROW_KEYS = ("empirical", "stderr", "n_samples", "reference", "source", "tolerance", "within")

# Slack added to the entropy bound before flagging the plug-in mutual
# information. Its bias, about df / (2 n ln 2) = 2.2 / n bits, exceeds this
# below some 2200 guesses, so correct code can fail there (ROADMAP item 6).
MI_BIAS_ALLOWANCE = 1e-3


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; every field mirrors a CLI flag."""

    attack: str = "none"
    beta2: float | None = None
    c: float = 0.5
    n_pairs: int = 16
    trials: int = 1000
    master_seed: int = 0
    detection_policy: str = TERMINAL
    max_restarts: int = 0
    out: str | None = None
    format: str = "json"
    workers: int = 1
    verbose: bool = False

    def validate(self) -> None:
        """Check every field; the protocol and strategy ranges by building them."""
        if self.attack == "entangle-measure" and self.beta2 is None:
            raise ConfigError("attack entangle-measure requires --beta2")
        if not 1 <= self.trials <= 1 << 32:
            raise ConfigError("trials must lie in [1, 2**32]")
        if self.master_seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.format not in FORMATS:
            raise ConfigError(f"format must be one of {', '.join(FORMATS)}, got {self.format!r}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        try:
            self.strategy()
            self.protocol_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def strategy(self) -> AttackStrategy:
        return strategy_from_name(self.attack, self.beta2)

    def protocol_config(self) -> ProtocolConfig:
        return ProtocolConfig(
            c=self.c,
            n_pairs=self.n_pairs,
            max_restarts=self.max_restarts,
            detection_policy=self.detection_policy,
        )

    @property
    def keeps_reports(self) -> bool:
        """Whether the document embeds each trial's decoded report: verbose JSON only, as CSV has no place for them."""
        return self.verbose and self.format == "json"

    def echo(self) -> dict:
        # Execution details (output routing, worker count) stay out of
        # the document so identical experiments serialize identically.
        return {k: v for k, v in asdict(self).items() if k not in ("out", "format", "workers")}


# Each config field's type, ``None`` left out: int, float, str or bool.
FIELD_TYPES: dict[str, type] = {
    name: next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    for name, hint in typing.get_type_hints(ExperimentConfig).items()
}


REGION = 2048  # uniforms of a stream a trial's region holds at most (the replay contract)
BATCH = 1 << 14  # uniforms of a stream a chunk draws in one Philox call: whole regions, at least one


class TrialStream:
    """Stream ``s`` of a chunk's trials, one trial at a time: its region of ``size`` uniforms, then its overflow.

    ``heads`` are spans ``(start, stop, cut)`` end to end from 0. ``trial`` draws the regions of ``max(1, BATCH //
    (4 K))`` trials in one call when the first of them asks, and cuts each head in the region for all of them in
    one ``cut``, into one tuple a trial; ``random`` goes on from there, and reads each head past the region.
    """

    gens: dict = {}  # one Generator per stream index per process, read one trial at a time; ``_at`` sets it whole

    def __init__(self, key, s: int, trials: range, size: int, heads: tuple):
        self.key, self.s, self.trials, self.size, self.blocks = key, s, trials, size, -(-size // 4)  # K_s
        k = sum(stop <= size for _, stop, _ in heads)  # the heads in the region, then those past it from ``end``
        self.inside, self.past, self.end = heads[:k], heads[k:], heads[k - 1][1] if k else 0
        self.per_batch, self.first, self.draw = max(1, BATCH // max(4 * self.blocks, 1)), trials.start, ()
        self.gen = self.gens.get(s) or self.gens.setdefault(s, np.random.Generator(np.random.Philox(key=key)))

    def _at(self, c0: int, c1: int):
        """The stream's Generator, set just before Philox block ``[c0 + 1, c1, 0, s]``."""
        state = {"counter": [c0, c1, 0, self.s], "key": self.key}
        self.gen.bit_generator.state = {"bit_generator": "Philox", "state": state, "buffer": [0] * 4,
                                        "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return self.gen

    def trial(self, t: int) -> tuple:
        """Trial ``t``'s heads; ``t`` is the current trial from now on."""
        i = t - self.first
        if not 0 <= i < len(self.draw):
            self.first = t - (t - self.trials.start) % self.per_batch
            m, i = min(self.per_batch, self.trials.stop - self.first), t - self.first
            draw = self._at(self.first * self.blocks, 0).random(4 * self.blocks * m)
            self.draw = draw.reshape(m, 4 * self.blocks)[:, :self.size]
            self.rows = list(zip(*(cut(self.draw[:, start:stop]) for start, stop, cut in self.inside))) or [()] * m
        self.i, self.t, self.over, self.pos = i, t, False, self.end
        if not self.past:
            return self.rows[i]
        return self.rows[i] + tuple(cut(self.random(stop - start)) for start, stop, cut in self.past)

    def random(self, n: int):
        """The current trial's next ``n`` uniforms: the rest of its region, then its overflow."""
        have = self.draw[self.i, self.pos:self.pos + n]
        self.pos += n
        if len(have) == n:
            return have
        self.over = self.over or self._at(0, self.t + 1)  # positioned once a trial, when first read
        return np.concatenate((have, self.over.random(n - len(have))))


def chunk_streams(config: ExperimentConfig, point_key: tuple[int, ...], trials: range,
                  tables: ValueTables) -> tuple[TrialStream, TrialStream | None]:
    """The protocol's stream of the chunk's trials, its regions holding both messages and what a completing pass
    reads, at most ``REGION``, and Eve's likewise where the value reads it (``ValueTables.reads``). Each head is cut
    in the form its trials' engine reads (``block_cuts``), a batch of trials at a time where it lies in the region."""
    key = np.random.SeedSequence(config.master_seed, spawn_key=point_key).generate_state(2, np.uint64)
    n, (pu_first, eu_first) = config.n_pairs, first_blocks(config.protocol_config(), tables)
    pu, eu = pass_reads(n, config.c, tables.picks, tables.guessing)
    codes, pu_cut, eu_cut = block_cuts(config.c, bool(tables.exact))
    heads = (0, n, codes), (n, 2 * n, codes), (2 * n, 2 * n + pu_first, pu_cut)  # Alice's message, Bob's, the block
    rng = TrialStream(key, 0, trials, min(2 * n + pu, REGION), heads)
    return rng, TrialStream(key, 1, trials, min(eu, REGION), ((0, eu_first, eu_cut),)) if tables.reads else None


def run_trial(config: ExperimentConfig, trial_index: int, point_key: tuple[int, ...] = (), *,
              strategy: AttackStrategy | None = None, protocol: ProtocolConfig | None = None,
              streams: tuple | None = None, tables: ValueTables | None = None) -> TrialReport:
    """One seeded dialogue reduced to its report, decoded only if the document keeps reports. It keeps no rows,
    so the value alone (``ValueTables.exact``) decides whether it is read as one pass. A chunk passes what it
    built or looked up once, its ``chunk_streams`` too. Both messages stay code indices from draw to report."""
    strategy, protocol = strategy or config.strategy(), protocol or config.protocol_config()
    tables = tables or value_tables(strategy)
    rng, eve_rng = streams or chunk_streams(config, point_key, range(trial_index, trial_index + 1), tables)
    (alice, bob, pu), eu = rng.trial(trial_index), eve_rng.trial(trial_index)[0] if eve_rng else []
    result = run_dialogue(protocol, alice, bob, strategy, rng, eve_rng, tables, (pu, eu), False)
    return TrialReport.from_dialogue(trial_index, result, alice, bob, strategy, config.keeps_reports)


# A batch of trials folded: its Tally, and its reports in trial order if the document keeps them.
FoldedTrials = tuple[Tally, list[TrialReport]]


def _fold_trials(config: ExperimentConfig, trials: range, point_key: tuple[int, ...]) -> FoldedTrials:
    """Run ``trials`` in order, folding each report into one ``Tally`` as it finishes (``Tally.fold``).

    The strategy, protocol config, value tables and streams are built or
    looked up once per chunk. A child folds contiguous chunks, so one
    ``Tally`` per chunk crosses back, not one report per trial.
    """
    strategy = config.strategy()
    protocol, tables = config.protocol_config(), value_tables(strategy)
    streams = chunk_streams(config, point_key, trials, tables)
    reports = (run_trial(config, t, point_key, strategy=strategy, protocol=protocol, streams=streams, tables=tables)
               for t in trials)
    if config.keeps_reports:
        kept = list(reports)
        return Tally.fold(kept), kept
    return Tally.fold(reports), []


def _take(counter, jobs: list) -> list[tuple[int, FoldedTrials]]:
    """(job index, folded) of each job taken off the shared ``counter``, until none is left."""
    done = []
    while True:
        with counter.get_lock():
            index, counter.value = counter.value, counter.value + 1
        if index >= len(jobs):
            return done
        done.append((index, _fold_trials(*jobs[index])))


def _child(counter, jobs: list, pipe) -> None:
    """A child's work: its ``_take`` pairs sent in one message, or the error a job raised."""
    try:
        reply = _take(counter, jobs)
    except Exception as exc:  # an interrupt ends the child unsent, which the parent reports
        reply = exc
    pipe.send(reply)


def _reply(child, reader):
    """A child's one message, read before the child is joined; an error if it sent none."""
    with reader:
        try:
            reply = reader.recv()
        except EOFError:
            reply = RuntimeError(f"a trial process exited with code {child.exitcode} and sent no results")
    child.join()
    return reply


def get_context():
    """The default ``multiprocessing`` context, imported only when a command starts a child."""
    import multiprocessing
    return multiprocessing.get_context()


def _fold_jobs(jobs: list, processes: int) -> list[FoldedTrials]:
    """Every ``_fold_trials`` job folded, in job order, by this process and ``processes - 1`` children.

    Each process takes the next untaken job off one shared counter until
    none is left. Every child is joined before this returns or raises;
    if a job or a child's start fails here, the counter first moves past
    the last job.
    """
    context = get_context()
    counter, children = context.Value("q", 0), []
    try:
        for _ in range(processes - 1):
            reader, writer = context.Pipe(duplex=False)
            child = context.Process(target=_child, args=(counter, jobs, writer))
            child.start()
            writer.close()  # so a child that dies unheard reads as EOF
            children.append((child, reader))
        done = _take(counter, jobs)
    except BaseException:
        counter.value = len(jobs)  # the children take no more
        raise
    finally:
        replies = [_reply(child, reader) for child, reader in children]
    for reply in replies:
        if isinstance(reply, BaseException):
            raise reply
        done += reply
    return [folded for _, folded in sorted(done, key=lambda pair: pair[0])]


def _run_trials(points: list[tuple[ExperimentConfig, tuple[int, ...]]]) -> typing.Iterator[FoldedTrials]:
    """Each point's trials folded as ``_fold_trials`` does, yielded in point order.

    Each point is cut into chunks of ``total // (workers * 8)`` trials,
    ``total`` the command's, and every chunk of every point is one job
    of one ``_fold_jobs`` call on ``min(workers, trials)`` processes, the
    parent one of them. One worker folds each point whole, in this
    process, with no child. Integer sums do not depend on order. Before
    a child starts, the parent builds the run tables of the first
    ``TABLE_STRATEGIES`` points, so forked children inherit them and the
    parent's oracle reuses them; a spawned child builds its own.
    """
    total = sum(config.trials for config, _ in points)
    processes = max(min(config.workers, config.trials) for config, _ in points)
    step = total if processes == 1 else max(1, total // (processes * 8))
    # Per point, one (config, chunk, point_key) job per chunk.
    chunked = [[(config, range(i, min(i + step, config.trials)), point_key) for i in range(0, config.trials, step)]
               for config, point_key in points]
    jobs = list(chain.from_iterable(chunked))
    if processes > 1:
        for config, _ in points[:TABLE_STRATEGIES]:
            value_tables(config.strategy())
    results = iter(_fold_jobs(jobs, processes)) if processes > 1 else map(_fold_trials, *zip(*jobs))
    for point_jobs in chunked:
        parts = list(islice(results, len(point_jobs)))
        yield sum((tally for tally, _ in parts), Tally()), [r for _, kept in parts for r in kept]


def _row(name, empirical, stderr, n_samples, reference, source, tolerance, within) -> dict:
    """One comparison row: its name, then its ``ROW_KEYS`` values in order."""
    values = (empirical, stderr, n_samples, reference, source, tolerance, bool(within))
    return {"name": name, **dict(zip(ROW_KEYS, values))}


def run_experiment(config: ExperimentConfig, point_key: tuple[int, ...] = (),
                   folded: FoldedTrials | None = None) -> dict:
    """Assemble the results document of the configured trials, validated and run here unless ``folded``."""
    if folded is None:
        config.validate()
        (folded,) = _run_trials([(config, point_key)])
    strategy = config.strategy()
    tally, reports = folded

    d_oracle = per_cm_detection_oracle(strategy)
    alice_ref, bob_ref = guess_accuracy_oracle(strategy)

    analytic = {
        "per_cm_oracle": d_oracle,
        "per_cm_claimed": strategy.claim,
        "per_run_hazard": config.c * d_oracle,
        "per_dialogue_exact": dialogue_detection_exact(config.c, d_oracle, config.n_pairs),
        "per_dialogue_curve": detection_vs_message_length(config.c, d_oracle, config.n_pairs),
        "entropy_bound_bits": eve_entropy_bits(config.beta2) if config.beta2 is not None else None,
    }

    # The binomial rows: (name, hits, samples, reference, source). A row
    # with no samples is left out. Only a terminal dialogue has a
    # per-dialogue and a per-run rate: it ends at its first failed check,
    # so it holds at most one detecting run, and only if it was detected.
    terminal = config.detection_policy == TERMINAL
    binomial = [
        ("per_cm_detection", tally.cm_failures, tally.cm_runs, d_oracle, "exhaustive branch oracle"),
        ("per_dialogue_detection", tally.detected, tally.trials if terminal else 0,
         analytic["per_dialogue_exact"], "per-run hazard resummed over the simulated run counts"),
        ("per_run_detection", tally.detected, tally.runs if terminal else 0,
         analytic["per_run_hazard"], "c times oracle rate"),
        ("eve_alice_guess_accuracy", tally.eve_alice_hits, tally.eve_guesses, alice_ref,
         "strategy readout analysis"),
        ("eve_bob_guess_accuracy", tally.eve_bob_hits, tally.eve_guesses, bob_ref,
         "strategy readout analysis"),
    ]
    comparisons = []
    for name, hits, samples, reference, source in binomial:
        if samples:
            est = EstimateWithCI.from_counts(hits, samples)
            comparisons.append(_row(name, est.estimate, est.stderr, samples, reference, source,
                                    est.tolerance, est.within_3sigma(reference)))

    mi = None
    if config.beta2 is not None:
        mi = mutual_information_bits(tally.ancilla_table)
        bound = analytic["entropy_bound_bits"]
        comparisons.append(_row("eve_mutual_information_bits", mi, 0.0, tally.eve_guesses, bound,
                                "ancilla entropy bound (upper limit)", MI_BIAS_ALLOWANCE,
                                mi <= bound + MI_BIAS_ALLOWANCE))
    if config.attack == "none" and tally.completed:
        fidelity = 1.0 - tally.bit_errors / (2 * tally.message_bits)
        comparisons.append(_row("message_fidelity", fidelity, 0.0, 2 * tally.message_bits, 1.0,
                                "deterministic decode identity", 0.0, fidelity == 1.0))

    doc = {
        "schema": SCHEMA_RESULTS,
        "config": config.echo(),
        "totals": {
            "trials": tally.trials,
            "detected": tally.detected,
            "completed": tally.completed,
            "aborted": tally.trials - tally.detected - tally.completed,
            "runs": tally.runs,
            "cm_runs": tally.cm_runs,
            "cm_failures": tally.cm_failures,
            "mm_runs": tally.runs - tally.cm_runs,
            "restarts": tally.restarts,
            "message_bits_completed": tally.message_bits,
            "bit_errors_completed": tally.bit_errors,
            "eve_guesses": tally.eve_guesses,
        },
        "analytic": analytic,
        "comparisons": comparisons,
        "mutual_information_bits": mi,
        "all_within_tolerance": bool(all(c["within"] for c in comparisons)),
    }
    if config.keeps_reports:
        doc["trial_reports"] = [asdict(r) for r in reports]
    return doc


def sweep(config: ExperimentConfig, vary: str, values: list) -> dict:
    """One experiment per value of one parameter, all in one ``_run_trials``, plus a curve table.

    Each value must already be one the parameter's type holds: a value
    the cast would change (2.7 for ``n_pairs``, a string) is rejected,
    so the document echoes exactly the values the points ran with.
    """
    if vary not in SWEEPABLE:
        raise ConfigError(f"can only sweep over {', '.join(SWEEPABLE)}, got {vary!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    cast = FIELD_TYPES[vary]
    try:
        cast_values = [cast(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {vary} value in {values!r}") from exc
    for value, cast_value in zip(values, cast_values):
        if cast_value != value and value == value:  # NaN is a float, which the range checks reject
            raise ConfigError(f"{vary} takes {cast.__name__} values, got {value!r}")

    point_cfgs = [replace(config, **{vary: value}) for value in cast_values]
    for point_cfg in point_cfgs:  # every point is checked before any runs
        point_cfg.validate()

    points, curve = [], []
    folded = _run_trials([(point_cfg, (idx,)) for idx, point_cfg in enumerate(point_cfgs)])
    for trials, value, point_cfg in zip(folded, cast_values, point_cfgs):
        doc = run_experiment(point_cfg, folded=trials)
        points.append(doc)
        empirical = {comp["name"]: comp["empirical"] for comp in doc["comparisons"]}
        curve.append({
            "value": value,
            "per_dialogue_detection": empirical.get("per_dialogue_detection"),
            "per_cm_detection": empirical.get("per_cm_detection"),
            "analytic_exact": doc["analytic"]["per_dialogue_exact"],
            "analytic_curve": doc["analytic"]["per_dialogue_curve"],
            "per_cm_oracle": doc["analytic"]["per_cm_oracle"],
            "entropy_bound_bits": doc["analytic"]["entropy_bound_bits"],
            "all_within_tolerance": doc["all_within_tolerance"],
        })

    return {
        "schema": SCHEMA_SWEEP,
        "vary": vary,
        "values": cast_values,
        "config": config.echo(),
        "curve": curve,
        "points": points,
        "all_within_tolerance": bool(all(p["all_within_tolerance"] for p in points)),
    }


# ---------------------------------------------------------------------------
# Serialization


def to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


# The config fields a CSV row repeats, then the comparison's name and
# its ``ROW_KEYS`` values.
CSV_CONFIG_KEYS = ["attack", "beta2", "c", "n_pairs", "trials", "master_seed"]
CSV_COLUMNS = [*CSV_CONFIG_KEYS, "comparison", *ROW_KEYS]


def to_csv(doc: dict) -> str:
    """Flatten the comparison rows of a results or sweep document."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    docs = doc["points"] if doc.get("schema") == SCHEMA_SWEEP else [doc]
    for point in docs:
        config_values = [point["config"][k] for k in CSV_CONFIG_KEYS]
        for comp in point["comparisons"]:
            writer.writerow([*config_values, comp["name"], *(comp[k] for k in ROW_KEYS)])
    return buf.getvalue()


def write_document(doc: dict, config: ExperimentConfig) -> str | None:
    """Serialize per the configured format; returns the path written, if any.

    A relative path lands in the ``OUT_DIR_ENV`` directory when that is set.
    """
    text = to_csv(doc) if config.format == "csv" else to_json(doc)
    if config.out is None or config.out == "-":
        print(text, end="")
        return None
    path = os.path.join(os.environ.get(OUT_DIR_ENV, "."), config.out)  # an absolute path stays
    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output path {path!r}: {exc}") from exc
    return path


# ---------------------------------------------------------------------------
# Self-test

_FROZEN_ORACLE = {
    "none": 0.0,
    "disturb-measure": 0.5,
    "disturb-pauli-z": 0.5,
    "disturb-pauli-4": 0.75,
    "intercept-resend-literal": 0.0,
    "intercept-resend-blind": 0.75,
}


def selftest() -> tuple[bool, list[str]]:
    """Fast end-to-end verification of the core identities.

    Returns overall success and one report line per check.
    """
    lines: list[str] = []
    ok = True

    def check(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok &= passed
        suffix = f" ({detail})" if detail else ""
        lines.append(f"{'PASS' if passed else 'FAIL'}  {name}{suffix}")

    # Pauli composition against literal matrix multiplication.
    bad_cells = []
    for second in ALL_CODES:
        for first in ALL_CODES:
            product = PAULI_MATRICES[second] @ PAULI_MATRICES[first]
            got = pauli_compose(second, first)
            expected_mat = got.phase * PAULI_MATRICES[got.code]
            if not np.array_equal(product, expected_mat):
                bad_cells.append(f"second={tuple(second)} first={tuple(first)}")
    check(
        "pauli composition phase table (16 cells vs matrix product)",
        not bad_cells,
        "; ".join(bad_cells) if bad_cells else "",
    )

    # Bell measurement distributions: eigenstate and product-state cases.
    dist_ok = True
    for code in ALL_CODES:
        probs = bell_outcome_probs(bell_state(code), "h", "t")
        dist_ok &= abs(probs[code] - 1.0) < 1e-12
    amps = np.zeros(4, dtype=complex)
    amps[0b01] = 1.0  # up on home, down on travel
    probs = bell_outcome_probs(StateVector(("h", "t"), amps), "h", "t")
    dist_ok &= abs(probs[BitPair(0, 0)] - 0.5) < 1e-12
    dist_ok &= abs(probs[BitPair(1, 1)] - 0.5) < 1e-12
    dist_ok &= probs[BitPair(0, 1)] < 1e-12 and probs[BitPair(1, 0)] < 1e-12
    check("bell measurement distribution oracle", dist_ok)

    # Double-encoding decode identity over all 16 code pairs.
    decode_ok = True
    for bob_code in ALL_CODES:
        for alice_code in ALL_CODES:
            state = apply_pauli(bell_state(bob_code), "t", alice_code)
            probs = bell_outcome_probs(state, "h", "t")
            decode_ok &= abs(probs[alice_code ^ bob_code] - 1.0) < 1e-12
    check("deterministic decode identity (16 code pairs)", decode_ok)

    # Entropy endpoints.
    check(
        "entropy endpoints",
        eve_entropy_bits(0.0) == 0.0 and eve_entropy_bits(0.5) == 1.0,
    )

    # Attack-free fidelity, small batch.
    cfg = ExperimentConfig(attack="none", c=0.5, n_pairs=8, trials=200, master_seed=7)
    ((tally, _),) = _run_trials([(cfg, ())])
    clean = tally.completed == tally.trials and tally.cm_failures == tally.bit_errors == 0
    check("attack-free dialogues decode exactly (200 trials)", clean)

    # Oracle table against frozen hand-derived rates.
    table_ok = True
    for name, expected in _FROZEN_ORACLE.items():
        got = per_cm_detection_oracle(strategy_from_name(name))
        table_ok &= abs(got - expected) < 1e-12
    for beta2 in (0.0, 0.1, 0.25, 0.5):
        got = per_cm_detection_oracle(strategy_from_name("entangle-measure", beta2))
        table_ok &= abs(got - beta2) < 1e-12
    check("per-control-run oracle matches frozen rates", table_ok)

    return ok, lines


def formulas_text() -> str:
    """Analytic tables only: detection curves, entropy, oracle vs claim."""
    out = io.StringIO()
    print("cumulative detection 1-(1-c*d)^runs at d=3/4", file=out)
    print("  c      runs=1    runs=2    runs=4    runs=16   runs=64", file=out)
    for c in (0.1, 0.25, 0.5, 0.75, 0.9):
        row = [analysis.detection_after_runs(c, 0.75, n) for n in (1, 2, 4, 16, 64)]
        print(f"  {c:<5}" + "".join(f"  {v:8.6f}" for v in row), file=out)
    print(file=out)
    print("detection vs message half-length at d=3/4 (real-exponent curve)", file=out)
    print("  c      N=1       N=4       N=16      N=40      N=64", file=out)
    for c in (0.1, 0.25, 0.5, 0.75, 0.9):
        row = [detection_vs_message_length(c, 0.75, n) for n in (1, 4, 16, 40, 64)]
        print(f"  {c:<5}" + "".join(f"  {v:8.6f}" for v in row), file=out)
    print(file=out)
    print("probe entropy bound (bits)", file=out)
    for beta2 in (0.0, 0.1, 0.25, 0.5):
        print(f"  beta2={beta2:<5}  S={eve_entropy_bits(beta2):.6f}", file=out)
    print(file=out)
    print("per-control-run detection: enumeration oracle vs published claim", file=out)
    print(f"  {'strategy':<26} {'oracle':>8} {'claim':>8}  note", file=out)
    for name in STRATEGIES:
        for beta2 in (0.1, 0.25, 0.5) if name == "entangle-measure" else (None,):
            strat = strategy_from_name(name, beta2)
            label = name if beta2 is None else f"{name}({beta2})"
            oracle = per_cm_detection_oracle(strat)
            claim = strat.claim
            if claim is None:
                shown, note = "n/a", ""
            else:
                shown = f"{claim:.4f}"
                note = "" if abs(oracle - claim) < 1e-12 else "DISAGREES with claim"
            print(f"  {label:<26} {oracle:>8.4f} {shown:>8}  {note}", file=out)
    return out.getvalue()
