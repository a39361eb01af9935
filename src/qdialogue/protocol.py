"""The two-way dialogue state machine.

One run of the protocol: Bob prepares an entangled pair encoding his
current bit pair, keeps the home qubit and pings the travel qubit to
Alice; Alice encodes her pair on whatever qubit arrived and pongs it
back; Bob Bell-measures the pair he holds; Alice then announces whether
the run was message mode (MM) or control mode (CM). MM runs consume one
message pair per side and end with Bob broadcasting his Bell outcome so
both parties can decode. CM runs consume nothing: Alice reveals the
(non-message) pair she encoded and Bob checks it against his outcome,
exposing any channel tampering.

Mode is sampled by Alice before she encodes but announced only after
Bob's measurement, so MM and CM runs are indistinguishable on the wire.
Every dialogue runs under an attack strategy, invoked at exactly two
tap points: between Bob's send and Alice's receipt (ping) and between
Alice's send and Bob's receipt (pong). The honest channel is the
``NoAttack`` strategy, whose taps do nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .quantum import ALL_CODES, BitPair, StateVector, apply_pauli, bell_measure, bell_state

if TYPE_CHECKING:  # pragma: no cover
    from .attacks import AttackStrategy, EveRecord, EveSession

MM = "MM"
CM = "CM"

TERMINAL = "terminal"
REINITIALIZE = "reinitialize"
DETECTION_POLICIES = (TERMINAL, REINITIALIZE)

COMPLETED = "completed"
DETECTED = "detected"
ABORTED = "aborted_max_restarts"


@dataclass(frozen=True)
class Message:
    """A bit payload as ordered bit pairs."""

    pairs: tuple[BitPair, ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("a message needs at least one bit pair")

    def __len__(self) -> int:
        return len(self.pairs)

    def to_bits(self) -> list[int]:
        """The payload's bit sequence, two bits per pair."""
        return [b for pair in self.pairs for b in pair]


def random_message(n_pairs: int, rng: np.random.Generator) -> Message:
    """A uniformly random message of ``n_pairs`` pairs from one ``rng.random(n_pairs)``.

    Uniform ``u`` gives pair ``ALL_CODES[int(u * 4.0)]``. Scaling by a
    power of two is exact, so each pair is exactly uniform on numpy's
    grid of 2**53 doubles.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    cells = (rng.random(n_pairs) * 4.0).astype(np.intp).tolist()
    return Message(tuple(ALL_CODES[k] for k in cells))


def _random_pair(rng: np.random.Generator) -> BitPair:
    """A uniform pair from one ``rng.random()``, cut as in ``random_message``."""
    return ALL_CODES[int(rng.random() * 4.0)]


@dataclass(frozen=True)
class ProtocolConfig:
    """Dialogue parameters.

    c is the probability a run is sacrificed as a control run;
    n_pairs is the message half-length N (2N bits per direction);
    detection_policy chooses what a failed control check does: stop the
    dialogue (terminal) or restart it from the first pair
    (reinitialize), at most max_restarts times.
    """

    c: float
    n_pairs: int
    max_restarts: int = 0
    detection_policy: str = TERMINAL

    def __post_init__(self) -> None:
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"c must lie strictly between 0 and 1, got {self.c}")
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be >= 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.detection_policy not in DETECTION_POLICIES:
            raise ValueError(
                f"detection_policy must be one of {DETECTION_POLICIES}, "
                f"got {self.detection_policy!r}"
            )


def decode_counterpart(outcome: BitPair, own_code: BitPair) -> BitPair:
    """Read the other party's pair out of a Bell outcome: componentwise XOR."""
    return BitPair(outcome[0] ^ own_code[0], outcome[1] ^ own_code[1])


def cm_check(outcome: BitPair, bob_code: BitPair, alice_revealed: BitPair) -> bool:
    """Bob's control-run consistency test against Alice's revealed pair."""
    return outcome[0] == alice_revealed[0] ^ bob_code[0] and outcome[1] == alice_revealed[1] ^ bob_code[1]


@dataclass
class Channel:
    """What is in flight: the joint state and the register currently traveling."""

    state: StateVector
    traveling: str


def round_trip(
    bob_code: BitPair, alice_code: BitPair, attack: "AttackStrategy", session: "EveSession", rng
) -> Channel:
    """One run's quantum leg: Bob's pair out, Alice's code on, back to Bob.

    Bob applies his code to the travel qubit of the base pair; Alice
    applies hers to whatever qubit arrives. The attack's taps act on the
    ping and pong legs, drawing from ``rng``.
    """
    channel = Channel(state=bell_state(bob_code), traveling="t")
    attack.on_ping(channel, session, rng)
    channel.state = apply_pauli(channel.state, channel.traveling, alice_code)
    attack.on_pong(channel, session, rng)
    return channel


@dataclass(frozen=True)
class RunRecord:
    """One protocol run as it appears in the transcript.

    Everything a third party can see is in ``announcements``, the mode
    included.
    """

    index: int
    pass_index: int
    mode: str
    bob_code: BitPair
    alice_code: BitPair
    outcome: BitPair
    cm_pass: bool | None
    announcements: tuple[tuple, ...]

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "pass_index": self.pass_index,
            "mode": self.mode,
            "bob_code": list(self.bob_code),
            "alice_code": list(self.alice_code),
            "outcome": list(self.outcome),
            "cm_pass": self.cm_pass,
            "announcements": [list(a) for a in self.announcements],
        }


@dataclass
class Transcript:
    """Ordered run log plus counters for the final (post-restart) pass."""

    runs: list[RunRecord]
    n_total: int
    n_mm: int
    n_cm: int
    restart_count: int
    final_status: str

    def to_dict(self) -> dict:
        return {
            "runs": [r.to_dict() for r in self.runs],
            "n_total": self.n_total,
            "n_mm": self.n_mm,
            "n_cm": self.n_cm,
            "restart_count": self.restart_count,
            "final_status": self.final_status,
        }

    def cm_tally(self) -> tuple[int, int]:
        """(failed, total) control runs across every pass."""
        cm = [r for r in self.runs if r.mode == CM]
        return sum(1 for r in cm if r.cm_pass is False), len(cm)


@dataclass
class DialogueResult:
    """Outcome of one dialogue: transcript, both decoded payloads, Eve's record."""

    transcript: Transcript
    alice_decoded: Message | None
    bob_decoded: Message | None
    eve: "EveRecord"


def run_dialogue(
    config: ProtocolConfig,
    alice_msg: Message,
    bob_msg: Message,
    attack: "AttackStrategy",
    rng: np.random.Generator,
) -> DialogueResult:
    """Execute runs until the dialogue completes, detects Eve, or gives up.

    Both messages must have half-length equal to ``config.n_pairs``. The
    protocol's draws (mode, control-run pair, Bob's Bell outcome) come
    from ``rng`` itself, in run order. The attack draws from one child
    spawned off ``rng`` (``rng.spawn(1)``), which leaves ``rng``'s own
    stream alone. So every attack meets the same protocol uniforms, and
    one whose taps leave Bob's Bell law unchanged leaves the transcript
    byte-identical to the honest channel's (``NoAttack``).
    """
    if len(alice_msg) != len(bob_msg):
        raise ValueError(
            f"messages must have equal half-length, got {len(alice_msg)} and {len(bob_msg)}"
        )
    if len(alice_msg) != config.n_pairs:
        raise ValueError(
            f"config.n_pairs = {config.n_pairs} but messages have {len(alice_msg)} pairs"
        )
    (eve_rng,) = rng.spawn(1)

    session = attack.new_session()
    runs: list[RunRecord] = []
    alice_decoded: list[BitPair] = []
    bob_decoded: list[BitPair] = []
    cursor = 0
    pass_index = 0
    pass_mm = pass_cm = 0
    restart_count = 0
    status: str | None = None

    while status is None:
        attack.begin_run(session, len(runs))

        # Alice decides the mode before she encodes but announces it only
        # after Bob's measurement, so the taps never see it. Control runs
        # encode a throwaway random pair, so a revealed pair never carries
        # message content.
        bob_code = bob_msg.pairs[cursor]
        is_cm = rng.random() < config.c
        alice_code = _random_pair(rng) if is_cm else alice_msg.pairs[cursor]
        channel = round_trip(bob_code, alice_code, attack, session, eve_rng)
        outcome, _ = bell_measure(channel.state, "h", channel.traveling, rng)

        mode = CM if is_cm else MM
        announcements: list[tuple] = [("mode", mode)]
        cm_pass: bool | None = None
        if is_cm:
            pass_cm += 1
            announcements.append(("cm_reveal", alice_code.a, alice_code.b))
            cm_pass = cm_check(outcome, bob_code, alice_code)
        else:
            pass_mm += 1
            announcements.append(("bell_broadcast", outcome.a, outcome.b))
            bob_decoded.append(decode_counterpart(outcome, bob_code))
            alice_decoded.append(decode_counterpart(outcome, alice_code))

        if not is_cm:
            attack.guess(session, outcome, eve_rng)
            session.score(alice_truth=alice_code, bob_truth=bob_code)
        attack.end_run(session)

        runs.append(
            RunRecord(
                index=cursor,
                pass_index=pass_index,
                mode=mode,
                bob_code=bob_code,
                alice_code=alice_code,
                outcome=outcome,
                cm_pass=cm_pass,
                announcements=tuple(announcements),
            )
        )

        if is_cm:
            if not cm_pass:
                if config.detection_policy == TERMINAL:
                    status = DETECTED
                elif restart_count >= config.max_restarts:
                    status = ABORTED
                else:
                    restart_count += 1
                    pass_index += 1
                    cursor = 0
                    pass_mm = pass_cm = 0
                    alice_decoded.clear()
                    bob_decoded.clear()
        else:
            cursor += 1
            if cursor == config.n_pairs:
                status = COMPLETED

    transcript = Transcript(
        runs=runs,
        n_total=pass_mm + pass_cm,
        n_mm=pass_mm,
        n_cm=pass_cm,
        restart_count=restart_count,
        final_status=status,
    )
    return DialogueResult(
        transcript=transcript,
        alice_decoded=Message(tuple(alice_decoded)) if alice_decoded else None,
        bob_decoded=Message(tuple(bob_decoded)) if bob_decoded else None,
        eve=session.record,
    )
