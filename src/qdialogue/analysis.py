"""Closed-form security quantities and statistics over simulated trials.

Three layers:

* exact formulas: the cumulative detection curves, their stopped-process
  resummation, and the probe-entropy bound;
* an exhaustive oracle that sums a strategy's run tables
  (``protocol.value_tables``: its own taps' alternatives expanded over
  every measurement/choice branch with exact Born or coin weights, no
  sampling) over all 16 code pairs, giving the per-control-run
  detection rate and Eve's exact guess accuracies;
* the reduction: each dialogue's ``TrialReport``, read off its integer
  rows or counts, folds field by field into one additive ``Tally`` of integer
  totals, which every estimate reads, with binomial standard errors.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain
from operator import add
from typing import NamedTuple

from .attacks import AttackStrategy, check_beta2
from .protocol import COMPLETED, DETECTED, DialogueResult, Message, ProtocolConfig, ValueTables, value_tables
from .quantum import ALL_CODES


# ---------------------------------------------------------------------------
# Closed forms


def detection_after_runs(c: float, d: float, runs: int) -> float:
    """Probability at least one of ``runs`` i.i.d. runs exposes the attacker.

    Each run is a control run with probability c and a control run fails
    with probability d, so the per-run hazard is c*d and the cumulative
    curve is 1 - (1 - c d)^runs.
    """
    _check_ranges(c, d)
    if runs < 0:
        raise ValueError("runs must be >= 0")
    return 1.0 - (1.0 - c * d) ** runs


def detection_vs_message_length(c: float, d: float, n_half: int) -> float:
    """Cumulative detection re-expressed in message half-length N.

    Substitutes the expected total run count N/(1-c) as a real exponent:
    1 - (1 - c d)^(N/(1-c)). Strictly increasing in N and in c for
    d > 0, with limit 1.
    """
    _check_ranges(c, d, n_half)
    return 1.0 - (1.0 - c * d) ** (n_half / (1.0 - c))


def dialogue_detection_exact(c: float, d: float, n_half: int) -> float:
    """Per-dialogue detection probability at the simulated integer run counts.

    A dialogue needs N message runs; modes are sampled i.i.d., so the
    total run count is random. Resumming the per-run hazard c*d over
    that distribution gives 1 - ((1-c) / (1-c+c*d))^N exactly: each
    message milestone is reached before a failing control run with
    probability (1-c)/(1-c+cd). The real-exponent curve above is this
    quantity with the run-count fluctuations replaced by their mean; the
    two agree in the long-message limit.
    """
    _check_ranges(c, d, n_half)
    return 1.0 - ((1.0 - c) / (1.0 - c + c * d)) ** n_half


def eve_entropy_bits(beta2: float) -> float:
    """Entropy of the probe ancilla: the bound on what its readout reveals.

    -(1-b) log2(1-b) - b log2(b) with 0 log 0 = 0, for b = beta2 in
    [0, 0.5].
    """
    check_beta2(beta2)
    total = 0.0
    for p in (beta2, 1.0 - beta2):
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def _check_ranges(c: float, d: float, n_half: int | None = None) -> None:
    """The closed forms' shared range checks: c and n_half (unless None) as ``ProtocolConfig`` checks them."""
    ProtocolConfig(c, 1 if n_half is None else n_half)
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"per-control-run rate d must lie in [0, 1], got {d}")


# ---------------------------------------------------------------------------
# Exhaustive per-control-run detection oracle


def per_cm_detection_oracle(strategy: AttackStrategy) -> float:
    """Exact probability a control run exposes the strategy.

    Brute force: average over all 16 (Alice code, Bob code) combinations
    and, within each, every alternative the strategy's taps can take,
    with its exact weight. The check fails when Bob's Bell outcome
    differs from the XOR of the two codes. Reads the rate the sampler's
    run tables keep (``ValueTables.detection``); draws from no stream.
    """
    return value_tables(strategy).detection


def guess_accuracy_oracle(strategy: AttackStrategy) -> tuple[float, float]:
    """Eve's exact per-pair guess accuracy on message runs, (Alice, Bob).

    Every branch and Bell outcome is scored with the stored ``readout``;
    where that pins nothing, the pure guess scores 1/4.
    Reads the accuracies the run tables keep (``ValueTables.accuracy``).
    """
    return value_tables(strategy).accuracy


# ---------------------------------------------------------------------------
# Trial reduction and estimators


# Bits set in each code index: two pairs differ in the bits of their indices' XOR.
_BITS = (0, 1, 1, 2)
# The ancilla table of a strategy whose leaves carry no ancilla.
NO_ANCILLA = ((0, 0, 0, 0), (0, 0, 0, 0))


@dataclass
class TrialReport:
    """Per-dialogue outcome reduced to aggregatable tallies.

    Control-run tallies span every pass (restarts included); the n_*
    counters and both decodes cover the final pass. The ancilla table
    is the 2x4 contingency of probe readout against Alice's true pair
    over message runs, ``NO_ANCILLA`` for strategies without an ancilla.
    The decoded bits are built only on request (``from_dialogue``'s
    ``decode``, which a verbose JSON document sets), else None. Both decodes miss by the bits
    of outcome XOR both codes on the same final-pass message runs, so ``alice_bit_errors``
    always equals ``bob_bit_errors``; ``Tally`` adds both, counting each wrong bit twice.
    ``from_dialogue`` builds a report by position, in field order; ``VERBOSE_GOLDEN`` and the
    keyword-built reference report of the tests pin that order.
    """

    trial_index: int
    strategy: str
    beta2: float | None
    status: str
    n_total: int
    n_mm: int
    n_cm: int
    runs_all_passes: int
    cm_failures: int
    cm_runs: int
    restart_count: int
    first_detection_run: int | None
    message_bits: int
    alice_bit_errors: int
    bob_bit_errors: int
    eve_alice_hits: int
    eve_bob_hits: int
    eve_guesses: int
    ancilla_table: tuple[tuple[int, int, int, int], tuple[int, int, int, int]]
    alice_decoded_bits: tuple[int, ...] | None = None
    bob_decoded_bits: tuple[int, ...] | None = None

    @classmethod
    def from_dialogue(cls, trial_index: int, result: DialogueResult, alice_msg: Message, bob_msg: Message,
                      strategy: AttackStrategy, decode: bool = False,
                      tables: ValueTables | None = None) -> "TrialReport":
        """Read the report off the dialogue's integer rows, keeping no reference to them.

        Codes are ``ALL_CODES`` indices, so XOR is ``^``. Control counts
        and the ancilla table span every pass; run counts and both
        decodes (outcome XOR own code) cover the final pass. Its message
        runs carry both messages' pairs in order, so either decode misses
        the other's pair by the bits of outcome XOR both codes, and there
        is one per message pair its cursor passed. Eve guesses once per
        message run. A control check fails exactly where a pass stops
        short of its end: at the last run of every pass but the final
        one, and of the final one unless the dialogue completed. The rows
        are walked only for the errors of a value that is not ``exact``, a
        restart, an ``ancilla`` (the strategy's ``protocol.value_tables``,
        unless the caller passes them as ``tables``) or ``decode``. A
        dialogue read as one completing pass has no rows (so no decode):
        its run count and ancilla cells are its ``counts``.
        """
        transcript, eve = result.transcript, result.eve
        value, errors, table = tables or value_tables(strategy), 0, NO_ANCILLA
        rows = final = transcript.rows
        if result.counts:  # one completing pass of an ``exact`` value, read without rows
            (runs, cells), n_mm, first_detection = result.counts, len(alice_msg), None
            start = restarts = stopped = 0
        else:
            last, runs = rows[-1], len(rows)
            cursor, restarts, last_cm = last[0], last[1], last[2]
            stopped = transcript.final_status != COMPLETED
            # ``start`` is the final pass's first run. The first detecting run,
            # 1-based, is pass 0's last: the 0-based index of pass 1's first.
            start, first_detection = 0, runs if stopped else None
            if restarts:
                passes = [row[1] for row in rows]
                start, first_detection = passes.index(restarts), passes.index(1)
                final = rows[start:]
            n_mm = cursor + (not last_cm)
            if not value.exact:
                errors = sum([_BITS[k ^ alice ^ bob] for _, _, is_cm, bob, alice, k, _, _ in final if not is_cm])
            cells = [[0, 0, 0, 0], [0, 0, 0, 0]] if value.ancilla else None
            for _, _, is_cm, _, alice, _, leaf, _ in rows if cells else ():
                if not is_cm and leaf.ancilla is not None:
                    cells[leaf.ancilla][alice] += 1
        if cells:
            table = tuple(cells[0]), tuple(cells[1])
        report = cls(trial_index, strategy.name, getattr(strategy, "beta2", None), transcript.final_status,
                     runs - start, n_mm, runs - start - n_mm, runs, restarts + stopped, runs - eve.guess_count,
                     restarts, first_detection, 2 * len(alice_msg), errors, errors,
                     eve.alice_hits, eve.bob_hits, eve.guess_count, table)
        if decode:  # Alice's view, then Bob's: outcome XOR own code (row[4], then row[3])
            mm_final = [row for row in final if not row[2]]
            report.alice_decoded_bits, report.bob_decoded_bits = (
                tuple(chain.from_iterable(ALL_CODES[row[5] ^ row[own]] for row in mm_final)) for own in (4, 3))
        return report


class Tally(NamedTuple):
    """Integer totals over a batch of trials, the one reduction estimates read.

    Adding two tallies pools their batches. Integer sums do not depend
    on order, so the totals are the same at any worker count. Message
    bits and bit errors count completed dialogues only; ``bit_errors`` adds both parties'
    decodes, so each wrong bit counts twice (the message fidelity divides by ``2 * message_bits``).
    The ancilla table sums the trials' 2x4 readout-against-Alice's-pair tables.
    """

    trials: int = 0
    detected: int = 0
    completed: int = 0
    runs: int = 0
    cm_runs: int = 0
    cm_failures: int = 0
    restarts: int = 0
    message_bits: int = 0
    bit_errors: int = 0
    eve_guesses: int = 0
    eve_alice_hits: int = 0
    eve_bob_hits: int = 0
    ancilla_table: tuple[tuple[int, ...], ...] = NO_ANCILLA

    @classmethod
    def fold(cls, reports: Iterable[TrialReport]) -> "Tally":
        """``reports``' totals, added field by field as each arrives (the ancilla table in place); none is kept."""
        trials = detected = completed = runs = cm_runs = cm_failures = restarts = 0
        message_bits = bit_errors = eve_guesses = eve_alice_hits = eve_bob_hits = 0
        cells = [[0, 0, 0, 0], [0, 0, 0, 0]]
        for report in reports:
            trials += 1
            detected += report.status == DETECTED
            if report.status == COMPLETED:
                completed += 1
                message_bits += report.message_bits
                bit_errors += report.alice_bit_errors + report.bob_bit_errors
            runs += report.runs_all_passes
            cm_runs += report.cm_runs
            cm_failures += report.cm_failures
            restarts += report.restart_count
            eve_guesses += report.eve_guesses
            eve_alice_hits += report.eve_alice_hits
            eve_bob_hits += report.eve_bob_hits
            if report.ancilla_table is not NO_ANCILLA:
                for row, more in zip(cells, report.ancilla_table):
                    row[0] += more[0]
                    row[1] += more[1]
                    row[2] += more[2]
                    row[3] += more[3]
        return cls(trials, detected, completed, runs, cm_runs, cm_failures, restarts, message_bits, bit_errors,
                   eve_guesses, eve_alice_hits, eve_bob_hits, (tuple(cells[0]), tuple(cells[1])))

    def __add__(self, other: "Tally") -> "Tally":
        if not isinstance(other, Tally):
            return NotImplemented
        table = tuple(tuple(map(add, *rows)) for rows in zip(self[-1], other[-1]))
        return Tally(*map(add, self[:-1], other[:-1]), table)


@dataclass(frozen=True)
class EstimateWithCI:
    """A binomial point estimate with its standard error."""

    estimate: float
    stderr: float
    n_samples: int

    @classmethod
    def from_counts(cls, hits: int, n: int) -> "EstimateWithCI":
        if n < 1:
            raise ValueError("need at least one sample")
        p = hits / n
        return cls(estimate=p, stderr=math.sqrt(p * (1.0 - p) / n), n_samples=n)

    @property
    def tolerance(self) -> float:
        """Half-width of the 3-sigma region ``within_3sigma`` accepts."""
        tol = 3.0 * self.stderr
        if self.estimate in (0.0, 1.0):
            # Boundary tallies have zero plug-in stderr; the rule of
            # three gives the right-sized region for an all-or-nothing
            # count of n samples.
            tol = max(tol, 3.0 / self.n_samples)
        return max(tol, 1e-9)

    def within_3sigma(self, reference: float) -> bool:
        return abs(self.estimate - reference) <= self.tolerance


def mutual_information_bits(table) -> float:
    """Plug-in mutual information of a contingency table, in bits."""
    total = sum(sum(row) for row in table)
    if total == 0:
        return 0.0
    mi = 0.0
    row_sums = [sum(row) for row in table]
    col_sums = [sum(row[j] for row in table) for j in range(len(table[0]))]
    for i, row in enumerate(table):
        for j, n in enumerate(row):
            if n == 0:
                continue
            p = n / total
            mi += p * math.log2(p * total * total / (row_sums[i] * col_sums[j]))
    return max(mi, 0.0)
