"""Eavesdropping strategies plugged into the channel tap points.

Every strategy sees the two legs of the travel qubit's round trip
(ping: Bob to Alice, pong: Alice to Bob) and, after a message run,
Bob's broadcast Bell outcome. A strategy may measure, transform, or
substitute what is in flight. What Eve learns in a run is recorded in
that run's ``EveRunLog``, one per kept row in her per-dialogue
``EveSession``; the dialogue loop counts her guesses and hits
(``protocol.DialogueResult.counts``). Each class carries ``claim``, the
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

Each strategy's physics is written once, in its two taps. A tap is a
pure function of the ``Channel`` in flight (and of its strategy's
hashable instance attributes): it returns its weighted alternatives,
each a (probability, channel, log fields) triple, with probabilities
that sum to 1. One alternative is no pick; a measurement returns one
alternative per outcome from ``quantum.z_branches`` or
``bell_branches``, impossible ones included, and a coin one per face.
The log fields of a run's path become its ``EveRunLog``. The run table
(``protocol.value_tables``) expands both taps over every alternative with
exact weights, once per process and strategy value, and both the
sampler and the oracle read it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .quantum import (
    ALL_CODES,
    BitPair,
    StateVector,
    apply_pauli,
    attach_ancilla,
    bell_branches,
    bell_state,
    entangling_probe,
    tensor_product,
    z_branches,
)


class Channel(NamedTuple):
    """What is in flight: the joint state and the register currently traveling."""

    state: StateVector
    traveling: str


# A tap's weighted alternatives: (probability, channel, log fields).
Alternatives = tuple[tuple[float, Channel, dict], ...]


@dataclass
class EveRunLog:
    """What Eve did and inferred during a single run."""

    learned_alice: BitPair | None = None
    ancilla_outcome: int | None = None
    alice_guess: BitPair | None = None
    bob_guess: BitPair | None = None


@dataclass
class EveSession:
    """Eve's per-dialogue record: one log per run, in run order.

    A dialogue's session holds its rows if kept (``protocol.Transcript``),
    each ending in the run's leaf and Eve's guess cell ``k`` (None on a
    control run): Alice's ``ALL_CODES[k >> 2]`` and Bob's
    ``ALL_CODES[k & 3]``. It builds ``logs`` from them on first read. A
    session made empty keeps the logs appended to it.
    """

    rows: list = field(default_factory=list, repr=False)

    @functools.cached_property
    def logs(self) -> list[EveRunLog]:
        logs = []
        for *_, leaf, cell in self.rows:
            logs.append(log := EveRunLog(**leaf.fields))
            if cell is not None:
                log.alice_guess, log.bob_guess = ALL_CODES[cell >> 2], ALL_CODES[cell & 3]
        return logs

    @property
    def current(self) -> EveRunLog:
        """The log of the run in progress."""
        return self.logs[-1]

    def score(self, alice_truth: BitPair, bob_truth: BitPair) -> tuple[bool, bool]:
        """The current run's hits: whether each guess is the true message pair, (Alice's, Bob's)."""
        log = self.current
        return log.alice_guess == alice_truth, log.bob_guess == bob_truth


class AttackStrategy:
    """Base strategy: a pass-through adversary who still guesses.

    Subclasses override the taps, which here pass the channel on as it
    is; the readout is shared, and a run it pins nothing on gets a
    uniformly random guess cell.
    """

    name: str
    claim: float | None = None

    def new_session(self) -> EveSession:
        return EveSession()

    def on_ping(self, channel: Channel) -> Alternatives:
        return ((1.0, channel, {}),)

    def on_pong(self, channel: Channel) -> Alternatives:
        return ((1.0, channel, {}),)

    def readout(self, log: EveRunLog, outcome: BitPair) -> tuple[BitPair, BitPair] | None:
        """Both parties' pairs as far as this run's log pins them, else None.

        A learned Alice code pins both guesses: the broadcast outcome is
        the XOR of the two codes.
        """
        if log.learned_alice is not None:
            return log.learned_alice, outcome ^ log.learned_alice
        return None


class NoAttack(AttackStrategy):
    """The honest channel: taps that do nothing (the base class's)."""

    name = "none"
    claim = 0.0


class DisturbMeasure(AttackStrategy):
    name = "disturb-measure"
    claim = 0.75

    def on_pong(self, channel):
        branches = z_branches(channel.state, channel.traveling)
        return tuple((p, channel._replace(state=state), {}) for p, _, state in branches)


class DisturbPauliZ(AttackStrategy):
    """Applies one of ``codes``, each equally likely, to the pong leg."""

    name = "disturb-pauli-z"
    claim = 0.75
    codes = (BitPair(1, 1), BitPair(0, 0))

    def on_pong(self, channel):
        p = 1 / len(self.codes)
        state, reg = channel
        return tuple((p, Channel(apply_pauli(state, reg, code), reg), {}) for code in self.codes)


class DisturbPauli4(DisturbPauliZ):
    name = "disturb-pauli-4"
    codes = ALL_CODES


class _InterceptResend(AttackStrategy):
    """Shared interception mechanics; subclasses decide the forwarding."""

    claim = 0.75
    retransform = True

    def on_ping(self, channel):
        # Keep the genuine travel qubit "t", put one half of a fresh
        # maximally entangled pair (H home, T travel) on the wire.
        state = tensor_product(channel.state, bell_state(BitPair(0, 0), ("H", "T")))
        return ((1.0, Channel(state, "T"), {}),)

    def on_pong(self, channel):
        alternatives = []
        for p, learned, state in bell_branches(channel.state, "H", "T"):
            if state is not None and self.retransform:
                state = apply_pauli(state, "t", learned)
            alternatives.append((p, Channel(state, "t"), {"learned_alice": learned}))
        return tuple(alternatives)


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

    def on_ping(self, channel):
        state = attach_ancilla(channel.state, "e")
        state = entangling_probe(state, channel.traveling, "e", self.alpha, self.beta)
        return ((1.0, channel._replace(state=state), {}),)

    def on_pong(self, channel):
        return tuple(
            (p, channel._replace(state=state), {"ancilla_outcome": bit})
            for p, bit, state in z_branches(channel.state, "e")
        )


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
