"""Eavesdropping strategies plugged into the channel tap points.

Every strategy sees the two legs of the travel qubit's round trip
(ping: Bob to Alice, pong: Alice to Bob) and, after a message run,
Bob's broadcast Bell outcome. A strategy may measure, transform, or
substitute what is in flight. Its session is its per-dialogue record:
``begin_run`` opens one log per run, and the taps record what Eve learns
on ``session.current``. Each class carries ``claim``, the
per-control-run detection rate the published analysis gives it (None
where that analysis does not treat it).

Implemented strategies:

* ``NoAttack`` -- pass-through; guesses are uniform noise.
* ``DisturbMeasure`` -- measures the travel qubit in the up/down basis
  on the pong leg (denial of service, no readout of message bits).
* ``DisturbPauliZ`` -- applies identity or the phase-flip Pauli, coin
  toss, on the pong leg.
* ``DisturbPauli4`` -- applies one of the four coded Paulis uniformly.
* ``InterceptResendLiteral`` -- keeps Bob's travel qubit, substitutes
  one half of her own entangled pair, reads Alice's code exactly via a
  Bell measurement on her pair, applies that code to the stored qubit
  and forwards it.
* ``InterceptResendBlind`` -- same interception and readout, but
  forwards the stored qubit untransformed (the attacker who cannot act
  on it in time).
* ``EntangleMeasure`` -- couples an ancilla to the travel qubit on the
  ping leg with weight beta2 and measures it on the pong leg.

Each strategy's physics is written once, in its tap handlers. The run
table (``protocol.run_table``) replays them over every branch with
exact weights, once per process and strategy value, and both the
sampler and the oracle read it. That relies on a contract:

* a tap draws randomness only through ``choose``, ``measure_z`` and
  ``bell_measure``, with probabilities that sum to 1;
* a tap reads only the channel, its own picks and its strategy's
  (hashable) instance attributes, and writes only ``session.current``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .quantum import (
    ALL_CODES,
    BitPair,
    apply_pauli,
    attach_ancilla,
    bell_measure,
    bell_state,
    choose,
    entangling_probe,
    measure_z,
    tensor_product,
)

if TYPE_CHECKING:  # pragma: no cover
    from .protocol import Channel


@dataclass
class EveRunLog:
    """What Eve did and inferred during a single run."""

    learned_alice: BitPair | None = None
    ancilla_outcome: int | None = None
    alice_guess: BitPair | None = None
    bob_guess: BitPair | None = None


@dataclass
class EveSession:
    """Eve's per-dialogue record: one log per run, in run order, and her hit counts."""

    logs: list[EveRunLog] = field(default_factory=list)
    alice_hits: int = 0
    bob_hits: int = 0
    guess_count: int = 0

    @property
    def current(self) -> EveRunLog:
        """The log of the run in progress."""
        return self.logs[-1]

    def score(self, alice_truth: BitPair, bob_truth: BitPair) -> None:
        """Tally the current run's guesses against the true message pairs."""
        log = self.current
        self.guess_count += 1
        self.alice_hits += log.alice_guess == alice_truth
        self.bob_hits += log.bob_guess == bob_truth


class AttackStrategy:
    """Base strategy: a pass-through adversary who still guesses.

    Subclasses override the tap handlers; the guessing logic is shared,
    since every strategy falls back to a uniform pure guess when it
    holds no readout of Alice's code.
    """

    name: str
    claim: float | None = None

    def new_session(self) -> EveSession:
        return EveSession()

    def begin_run(self, session: EveSession) -> None:
        session.logs.append(EveRunLog())

    def on_ping(self, channel: "Channel", session: EveSession, rng: np.random.Generator) -> None:
        pass

    def on_pong(self, channel: "Channel", session: EveSession, rng: np.random.Generator) -> None:
        pass

    def readout(self, log: EveRunLog, outcome: BitPair) -> tuple[BitPair, BitPair] | None:
        """Both parties' pairs as far as this run's log pins them, else None.

        A learned Alice code pins both guesses: the broadcast outcome is
        the XOR of the two codes.
        """
        if log.learned_alice is not None:
            return log.learned_alice, outcome ^ log.learned_alice
        return None

    def guess(
        self, session: EveSession, outcome: BitPair, rng: np.random.Generator
    ) -> tuple[BitPair, BitPair]:
        """Infer both parties' pairs after a message-mode broadcast.

        The readout when there is one; otherwise a uniform pure guess
        from one ``rng.random()``: cell ``k = int(u * 16.0)`` of the 16
        code pairs, Alice's code ``ALL_CODES[k >> 2]`` and Bob's
        ``ALL_CODES[k & 3]``. Scaling by a power of two is exact, so every
        cell is equally likely.
        """
        log = session.current
        guesses = self.readout(log, outcome)
        if guesses is None:
            k = int(rng.random() * 16.0)
            guesses = ALL_CODES[k >> 2], ALL_CODES[k & 3]
        log.alice_guess, log.bob_guess = guesses
        return guesses


class NoAttack(AttackStrategy):
    """The honest channel: taps that do nothing (the base class's)."""

    name = "none"
    claim = 0.0


class DisturbMeasure(AttackStrategy):
    name = "disturb-measure"
    claim = 0.75

    def on_pong(self, channel, session, rng):
        _, channel.state = measure_z(channel.state, channel.traveling, rng)


class DisturbPauliZ(AttackStrategy):
    """Applies one of ``codes``, each equally likely, to the pong leg."""

    name = "disturb-pauli-z"
    claim = 0.75
    codes = (BitPair(1, 1), BitPair(0, 0))

    def on_pong(self, channel, session, rng):
        code = self.codes[choose((1 / len(self.codes),) * len(self.codes), rng)]
        channel.state = apply_pauli(channel.state, channel.traveling, code)


class DisturbPauli4(DisturbPauliZ):
    name = "disturb-pauli-4"
    codes = ALL_CODES


class _InterceptResend(AttackStrategy):
    """Shared interception mechanics; subclasses decide the forwarding."""

    claim = 0.75
    retransform = True

    def on_ping(self, channel, session, rng):
        # Keep the genuine travel qubit "t", put one half of a fresh
        # maximally entangled pair (H home, T travel) on the wire.
        channel.state = tensor_product(channel.state, bell_state(BitPair(0, 0), ("H", "T")))
        channel.traveling = "T"

    def on_pong(self, channel, session, rng):
        learned, channel.state = bell_measure(channel.state, "H", "T", rng)
        session.current.learned_alice = learned
        if self.retransform:
            channel.state = apply_pauli(channel.state, "t", learned)
        channel.traveling = "t"


class InterceptResendLiteral(_InterceptResend):
    name = "intercept-resend-literal"


class InterceptResendBlind(_InterceptResend):
    name = "intercept-resend-blind"
    retransform = False


def check_beta2(beta2: float) -> None:
    """The probe weight's range, shared by the strategy and its entropy bound."""
    if not 0.0 <= beta2 <= 0.5:
        raise ValueError(f"beta2 must lie in [0, 0.5], got {beta2}")


class EntangleMeasure(AttackStrategy):
    name = "entangle-measure"

    def __init__(self, beta2: float):
        check_beta2(beta2)
        self.beta2 = self.claim = float(beta2)
        self.alpha = math.sqrt(1.0 - self.beta2)
        self.beta = math.sqrt(self.beta2)

    def on_ping(self, channel, session, rng):
        state = attach_ancilla(channel.state, "e")
        channel.state = entangling_probe(state, channel.traveling, "e", self.alpha, self.beta)

    def on_pong(self, channel, session, rng):
        bit, collapsed = measure_z(channel.state, "e", rng)
        channel.state = collapsed
        session.current.ancilla_outcome = bit


def _registry(*classes: type[AttackStrategy]) -> dict[str, type[AttackStrategy]]:
    """Strategies by name; each class sets its own ``name``, and no two share one."""
    names = [vars(cls).get("name") for cls in classes]
    for i, (cls, name) in enumerate(zip(classes, names)):
        if name is None or name in names[:i]:
            raise TypeError(f"strategy {cls.__name__} needs a name of its own, not {name!r}")
    return dict(zip(names, classes))


STRATEGIES = _registry(NoAttack, DisturbMeasure, DisturbPauliZ, DisturbPauli4,
                       InterceptResendLiteral, InterceptResendBlind, EntangleMeasure)
STRATEGY_NAMES = tuple(STRATEGIES)


def strategy_from_name(name: str, beta2: float | None = None) -> AttackStrategy:
    """Instantiate a strategy by its registry name.

    beta2 is required for entangle-measure and rejected for everything
    else.
    """
    cls = STRATEGIES.get(name)
    if cls is None:
        raise ValueError(f"unknown attack strategy {name!r}; known: {STRATEGY_NAMES}")
    if cls is EntangleMeasure:
        if beta2 is None:
            raise ValueError("entangle-measure requires beta2")
        return EntangleMeasure(beta2)
    if beta2 is not None:
        raise ValueError(f"beta2 only applies to entangle-measure, not {name!r}")
    return cls()
