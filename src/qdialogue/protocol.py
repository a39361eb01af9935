"""The two-way dialogue state machine.

One run of the protocol: Bob prepares an entangled pair encoding his
current bit pair, keeps the home qubit and pings the travel qubit to
Alice; Alice encodes her pair on whatever qubit arrived and pongs it
back; Bob Bell-measures the pair he holds; Alice then announces whether
the run was message mode (MM) or control mode (CM). MM runs consume one
message pair per side and end with Bob broadcasting his Bell outcome so
both parties can decode. CM runs consume nothing: Alice reveals the
(non-message) pair she encoded and Bob checks it against his outcome,
exposing any channel tampering. A message is a tuple of ``BitPair``s,
one per message run, in order.

Mode is sampled by Alice before she encodes but announced only after
Bob's measurement, so MM and CM runs are indistinguishable on the wire.
Every dialogue runs under an attack strategy, invoked at exactly two
tap points: between Bob's send and Alice's receipt (ping) and between
Alice's send and Bob's receipt (pong). The honest channel is the
``NoAttack`` strategy, whose taps do nothing.

Each run leaves one public record, a ``RunRecord``, and one private log
in Eve's session, in the same order as the transcript. Everything else
about a dialogue is derived from its runs: the announcements and Bob's
control check, each side's decode (the outcome XOR its own code on the
final pass's message runs), the restart count (the last run's pass
index) and the final-pass counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .quantum import ALL_CODES, BitPair, StateVector, apply_pauli, bell_outcome, bell_state

if TYPE_CHECKING:  # pragma: no cover
    from .attacks import AttackStrategy, EveSession

MM = "MM"
CM = "CM"

TERMINAL = "terminal"
REINITIALIZE = "reinitialize"
DETECTION_POLICIES = (TERMINAL, REINITIALIZE)

COMPLETED = "completed"
DETECTED = "detected"
ABORTED = "aborted_max_restarts"


Message = tuple[BitPair, ...]


def random_message(n_pairs: int, rng: np.random.Generator) -> Message:
    """A uniformly random message of ``n_pairs`` pairs from one ``rng.random(n_pairs)``.

    Uniform ``u`` gives pair ``ALL_CODES[int(u * 4.0)]``. Scaling by a
    power of two is exact, so each pair is exactly uniform on numpy's
    grid of 2**53 doubles.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    cells = (rng.random(n_pairs) * 4.0).astype(np.intp).tolist()
    return tuple(ALL_CODES[k] for k in cells)


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
    included. The announcements and Bob's control check are derived from
    the run's mode, both codes and Bob's outcome.
    """

    index: int
    pass_index: int
    mode: str
    bob_code: BitPair
    alice_code: BitPair
    outcome: BitPair

    @property
    def cm_pass(self) -> bool | None:
        """Bob's control check, ``outcome == alice_code ^ bob_code``; None on a message run."""
        if self.mode == CM:
            return self.outcome == self.alice_code ^ self.bob_code
        return None

    @property
    def announcements(self) -> tuple[tuple, ...]:
        """The mode, then Alice's revealed pair (CM) or Bob's broadcast outcome (MM)."""
        if self.mode == CM:
            return ("mode", CM), ("cm_reveal", *self.alice_code)
        return ("mode", MM), ("bell_broadcast", *self.outcome)

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
    """Ordered run log and how the dialogue ended.

    Every counter is derived from the runs: a restart starts a new pass,
    so the restart count is the last run's ``pass_index``, and the final
    pass is the suffix of runs carrying that index.
    """

    runs: list[RunRecord]
    final_status: str

    @property
    def restart_count(self) -> int:
        return self.runs[-1].pass_index

    @property
    def final_pass(self) -> list[RunRecord]:
        last = self.restart_count
        return [run for run in self.runs if run.pass_index == last]

    @property
    def n_total(self) -> int:
        return len(self.final_pass)

    @property
    def n_mm(self) -> int:
        return sum(run.mode == MM for run in self.final_pass)

    @property
    def n_cm(self) -> int:
        return self.n_total - self.n_mm

    def to_dict(self) -> dict:
        return {
            "runs": [r.to_dict() for r in self.runs],
            "n_total": self.n_total,
            "n_mm": self.n_mm,
            "n_cm": self.n_cm,
            "restart_count": self.restart_count,
            "final_status": self.final_status,
        }


@dataclass
class DialogueResult:
    """Outcome of one dialogue: the public transcript and Eve's session."""

    transcript: Transcript
    eve: "EveSession"


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
    cursor = 0
    pass_index = 0
    status: str | None = None

    while status is None:
        attack.begin_run(session)

        # Alice decides the mode before she encodes but announces it only
        # after Bob's measurement, so the taps never see it. Control runs
        # encode a throwaway random pair, so a revealed pair never carries
        # message content.
        bob_code = bob_msg[cursor]
        is_cm = rng.random() < config.c
        alice_code = _random_pair(rng) if is_cm else alice_msg[cursor]
        channel = round_trip(bob_code, alice_code, attack, session, eve_rng)
        outcome = bell_outcome(channel.state, "h", channel.traveling, rng)
        mode = CM if is_cm else MM
        run = RunRecord(cursor, pass_index, mode, bob_code, alice_code, outcome)
        runs.append(run)

        # Each party decodes a message run as the outcome XOR its own
        # code, read off the runs afterwards. A control run that fails
        # Bob's check (``cm_pass``) stops or restarts the dialogue.
        if not is_cm:
            attack.guess(session, outcome, eve_rng)
            session.score(alice_truth=alice_code, bob_truth=bob_code)
            cursor += 1
            if cursor == config.n_pairs:
                status = COMPLETED
        elif not run.cm_pass:
            if config.detection_policy == TERMINAL:
                status = DETECTED
            elif pass_index == config.max_restarts:
                status = ABORTED
            else:
                pass_index += 1
                cursor = 0

    return DialogueResult(Transcript(runs, status), session)
