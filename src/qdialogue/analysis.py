"""Closed-form security quantities and statistics over simulated trials.

Three layers:

* exact formulas: the cumulative detection curves, their stopped-process
  resummation, and the probe-entropy bound;
* an exhaustive oracle that sums a strategy's run tables
  (``protocol.value_tables``: its own taps' alternatives expanded over
  every measurement/choice branch with exact Born or coin weights, no
  sampling) over all 16 code pairs, giving the per-control-run
  detection rate and Eve's exact guess accuracies;
* the reduction: each dialogue's ``TrialReport``, built from the one
  tuple its dialogue loop counted (``DialogueResult.counts``: outcomes to
  decode and Eve's hits too), folds field by field into one additive
  ``Tally`` of integer totals, which every estimate reads with binomial
  standard errors.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain
from operator import add
from typing import NamedTuple

from .attacks import AttackStrategy, check_beta2
from .protocol import COMPLETED, DETECTED, DialogueResult, Message, ProtocolConfig, value_tables
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
                      strategy: AttackStrategy, decode: bool = False) -> "TrialReport":
        """Build the report from the dialogue's ``counts``, keeping no reference to its rows or Eve's session.

        Control counts, Eve's guesses and hits and the ancilla table span
        every pass; run counts, bit errors and both decodes cover the final
        pass. Eve guesses once per message run, so the rest are control
        runs. A control check fails exactly where a pass stops short of its
        end: at the last run of every pass but the final one, and of the
        final one unless the dialogue completed. Only ``decode`` reads the
        final pass's message-run outcomes: each side's decode is the outcome
        XOR its own code. A dialogue read as one completing pass keeps no
        outcomes (None), as each is the XOR of both codes, so each side
        decodes the other's message.
        """
        status = result.transcript.final_status
        runs, restarts, start, first_detection, n_mm, errors, guesses, alice_hits, bob_hits, cells, outcomes = (
            result.counts)
        report = cls(trial_index, strategy.name, getattr(strategy, "beta2", None), status, runs - start, n_mm,
                     runs - start - n_mm, runs, restarts + (status != COMPLETED), runs - guesses, restarts,
                     first_detection, 2 * len(alice_msg), errors, errors, alice_hits, bob_hits, guesses,
                     NO_ANCILLA if cells is None else (tuple(cells[0]), tuple(cells[1])))
        if decode:  # Alice's view, then Bob's
            views = ((bob_msg, alice_msg) if outcomes is None
                     else ([k ^ own for k, own in zip(outcomes, msg)] for msg in (alice_msg, bob_msg)))
            report.alice_decoded_bits, report.bob_decoded_bits = (
                tuple(chain.from_iterable(ALL_CODES[k] for k in view)) for view in views)
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
