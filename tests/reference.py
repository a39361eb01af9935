"""Reference routines the tests check the package against.

No ``qdialogue`` command needs these: partial traces and entropies of
simulated states, equality up to a global phase, the forced-outcome Bell
and up/down projections, the cumulative detection curve as an explicit
sum, each side's decode read straight off a transcript, the
transcript's read-side views (its runs as ``RunRecord``s, Bob's control
check, the announcements, the final-pass counters and the JSON-ready
dicts), messages as
``BitPair``s, the scalar cuts of a pair and of a pure guess from one
uniform, the per-draw ``choose`` loop the stored thresholds replaced and
the linear scan ``quantum.cut`` replaced, a trial's stream read block
by block from numpy's ``Philox`` at the counters the determinism
contract gives (``philox_stream``), and the engines
the run tables and integer rows replaced: a dialogue that replays the
quantum leg on every run, sampling each tap's alternatives with one
uniform (with its Bell draw ``bell_outcome`` and Eve's live ``guess``)
and counting the uniforms it draws, one per call (``ends_after`` reads
them off a stream's state; ``path_shapes`` gives the pick counts and
stored guess cells of a value's paths),
the oracle's own recursion over the alternatives, and the trial report
folded ``BitPair`` by ``BitPair`` from the records and logs
(``reference_report``). ``STRATEGY_VALUES`` lists the strategy values
the engine tests run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from qdialogue import quantum
from qdialogue.analysis import TrialReport
from qdialogue.attacks import STRATEGY_NAMES, Channel, EveRunLog
from qdialogue.protocol import (
    ABORTED,
    COMPLETED,
    DETECTED,
    PURE_GUESS_ACCURACY,
    TERMINAL,
    Branch,
    DialogueResult,
    Transcript,
    value_tables,
)
from qdialogue.quantum import (
    ALL_CODES,
    NORM_TOL,
    PROB_FLOOR,
    BitPair,
    StateVector,
    apply_pauli,
    bell_state,
)

# Every registered strategy as (name, beta2), the probe at four weights.
STRATEGY_VALUES = [
    (name, beta2)
    for name in STRATEGY_NAMES
    for beta2 in ((0.0, 0.05, 0.25, 0.5) if name == "entangle-measure" else (None,))
]


def trial_rng(master_seed: int, *key: int) -> np.random.Generator:
    """A seeded ``default_rng`` stream for the dialogues a test runs itself; Eve's is its ``spawn(1)`` child."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key)))


def ends_after(stream: np.random.Generator, seed: int, n: int, child: bool = False) -> bool:
    """True when ``stream`` ends ``n`` uniforms after ``default_rng(seed)`` starts.

    ``child`` reads that stream's ``spawn(1)`` child instead.
    """
    fresh = np.random.PCG64(np.random.SeedSequence(seed))
    if child:
        (fresh,) = fresh.spawn(1)
    fresh.advance(n)
    return stream.bit_generator.state == fresh.state


def point_key_words(master_seed: int, *point_key: int) -> np.ndarray:
    """The Philox key of a (seed, point): two words of the point's ``SeedSequence``."""
    return np.random.SeedSequence(master_seed, spawn_key=point_key).generate_state(2, np.uint64)


def region_sizes(n_pairs: int, c: float, picks: int, guessing: bool) -> tuple[int, int]:
    """Each trial's region sizes, the protocol's and Eve's, at most 2048 each: both messages and what a
    completing pass reads with its control runs at their mean ``n c/(1-c)`` plus two deviations, 3 uniforms
    a control run and 2 a message run; and ``picks`` of Eve's a run plus, where she guesses, one a message run."""
    cm = int((n_pairs * c + 2.0 * (n_pairs * c) ** 0.5) / (1.0 - c)) + 1
    return min(2 * n_pairs + 2 * n_pairs + 3 * cm, 2048), min(picks * (n_pairs + cm) + guessing * n_pairs, 2048)


def philox_stream(key, t: int, s: int, size: int, n: int) -> list[float]:
    """The first ``n`` uniforms of stream ``s`` of trial ``t``, read from numpy's ``Philox`` at its counters.

    The trial's region is the first ``size`` uniforms of the ``K =
    ceil(size / 4)`` blocks at counters ``[t K + 1 ... t K + K, 0, 0, s]``;
    its overflow is the blocks ``[1, 2, ..., t + 1, 0, s]``. numpy steps
    the counter before each block, so a ``Philox`` at ``[t K, 0, 0, s]``
    gives the region's words, and each word ``x`` is the uniform ``(x >>
    11) * 2**-53``.
    """
    def uniforms(c0: int, c1: int, count: int) -> list[float]:
        words = np.random.Philox(key=key, counter=[c0, c1, 0, s]).random_raw(count)
        return ((words >> 11) * 2.0**-53).tolist()

    k = -(-size // 4)
    return (uniforms(t * k, 0, 4 * k)[:size] + uniforms(0, t + 1, max(n - size, 0)))[:n]


class Uniforms:
    """A stream that answers ``random()`` and ``random(n)`` from a list of uniforms, in order."""

    def __init__(self, values: list[float]):
        self.values, self.n = values, 0

    def random(self, size=None):
        if size is None:
            self.n += 1
            return self.values[self.n - 1]
        self.n += size
        return np.array(self.values[self.n - size:self.n])


def trial_uniforms(config, t: int, point_key: tuple[int, ...] = (), more: int = 4096) -> tuple[Uniforms, Uniforms]:
    """Trial ``t``'s two streams under an ``ExperimentConfig``, each its region and ``more`` overflow uniforms."""
    tables = value_tables(config.strategy())
    key = point_key_words(config.master_seed, *point_key)
    sizes = region_sizes(config.n_pairs, config.c, tables.picks, tables.guessing)
    return tuple(Uniforms(philox_stream(key, t, s, size, size + more)) for s, size in enumerate(sizes))


def pairs(message) -> tuple[BitPair, ...]:
    """A message of ``ALL_CODES`` indices, as ``protocol.random_message`` draws it, as ``BitPair``s."""
    return tuple(ALL_CODES[k] for k in message)


def random_pair(u: float) -> BitPair:
    """The pair one uniform ``u`` cuts to, as ``protocol.random_message`` cuts each."""
    return ALL_CODES[int(u * 4.0)]


def pure_guess(u: float) -> tuple[BitPair, BitPair]:
    """Eve's guess of (Alice's pair, Bob's pair) from one uniform, in 16 equally likely cells.

    Cell ``k = int(u * 16.0)`` is Alice's ``ALL_CODES[k >> 2]`` and Bob's ``ALL_CODES[k & 3]``.
    """
    k = int(u * 16.0)
    return ALL_CODES[k >> 2], ALL_CODES[k & 3]


def detection_after_runs_partial_sum(c: float, d: float, runs: int) -> float:
    """Same curve as ``analysis.detection_after_runs`` via the explicit geometric sum."""
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must lie strictly between 0 and 1, got {c}")
    return c * d * sum((1.0 - c * d) ** n for n in range(runs))


def per_draw_choose(probs, rng: np.random.Generator) -> int:
    """``quantum.choose`` on a Generator as one loop: clean, sum, then walk the sums per draw."""
    cleaned = [p if p >= PROB_FLOOR else 0.0 for p in probs]
    total = sum(cleaned)
    if total <= 0.0:
        raise ValueError("no outcome has positive probability")
    u = rng.random() * total
    acc = 0.0
    last = -1
    for i, p in enumerate(cleaned):
        if p > 0.0:
            last = i
            acc += p
            if u < acc:
                return i
    return last


def scan_cut(cum, u: float) -> int:
    """``quantum.cut`` as the linear scan over the running sums that ``bisect_right`` replaced."""
    total, sums, indices = cum
    u *= total
    for acc, i in zip(sums, indices):
        if u < acc:
            return i
    return indices[-1]


MM = "MM"
CM = "CM"


class RunRecord(NamedTuple):
    """One protocol run as it appears in the transcript.

    A third party sees the mode and, after Bob's measurement, Alice's
    revealed pair (CM) or Bob's broadcast outcome (MM). The ``index``
    field hides ``tuple.index``.
    """

    index: int
    pass_index: int
    mode: str
    bob_code: BitPair
    alice_code: BitPair
    outcome: BitPair


def run_records(transcript) -> list[RunRecord]:
    """A transcript's runs as ``RunRecord``s, read off its integer rows."""
    return [
        RunRecord(index, pass_index, CM if is_cm else MM, ALL_CODES[bob], ALL_CODES[alice], ALL_CODES[k])
        for index, pass_index, is_cm, bob, alice, k, *_ in transcript.rows
    ]


def decoded_pairs(transcript) -> tuple[tuple[BitPair, ...], tuple[BitPair, ...]]:
    """(Alice's, Bob's) decoded pairs: outcome XOR own code on the final pass's message runs.

    Alice's decode reads Bob's message and Bob's reads Alice's. The final
    pass is every run with the largest pass index.
    """
    last = max(run.pass_index for run in run_records(transcript))
    final = [run for run in run_records(transcript) if run.pass_index == last and run.mode == MM]
    alice_view = tuple(run.outcome ^ run.alice_code for run in final)
    return alice_view, tuple(run.outcome ^ run.bob_code for run in final)


def cm_check(bob_code: BitPair, alice_code: BitPair, outcome: BitPair) -> bool:
    """Bob's control check: his outcome is Alice's revealed pair XOR his own code."""
    return outcome == alice_code ^ bob_code


def cm_pass(run) -> bool | None:
    """A ``RunRecord``'s control check (``cm_check``); None on a message run."""
    return cm_check(run.bob_code, run.alice_code, run.outcome) if run.mode == CM else None


def announcements(run) -> tuple[tuple, ...]:
    """A ``RunRecord``'s public announcements: the mode, then Alice's revealed pair (CM) or
    Bob's broadcast outcome (MM)."""
    if run.mode == CM:
        return ("mode", CM), ("cm_reveal", *run.alice_code)
    return ("mode", MM), ("bell_broadcast", *run.outcome)


def run_dict(run) -> dict:
    """A ``RunRecord`` as a JSON-ready dict, its check and announcements included."""
    return {
        "index": run.index,
        "pass_index": run.pass_index,
        "mode": run.mode,
        "bob_code": list(run.bob_code),
        "alice_code": list(run.alice_code),
        "outcome": list(run.outcome),
        "cm_pass": cm_pass(run),
        "announcements": [list(a) for a in announcements(run)],
    }


def restart_count(transcript) -> int:
    """A transcript's restarts: the last run's pass index."""
    return run_records(transcript)[-1].pass_index


def final_pass(transcript) -> list:
    """The runs of a transcript's last pass."""
    last = restart_count(transcript)
    return [run for run in run_records(transcript) if run.pass_index == last]


def n_total(transcript) -> int:
    return len(final_pass(transcript))


def n_mm(transcript) -> int:
    return sum(run.mode == MM for run in final_pass(transcript))


def n_cm(transcript) -> int:
    return n_total(transcript) - n_mm(transcript)


def transcript_dict(transcript) -> dict:
    """A transcript as a JSON-ready dict: every run, the final-pass counters and the ending."""
    return {
        "runs": [run_dict(r) for r in run_records(transcript)],
        "n_total": n_total(transcript),
        "n_mm": n_mm(transcript),
        "n_cm": n_cm(transcript),
        "restart_count": restart_count(transcript),
        "final_status": transcript.final_status,
    }


def project_bell(
    state: StateVector, reg_a: str, reg_b: str, code: BitPair
) -> tuple[float, StateVector | None]:
    """Probability and collapsed state for one forced Bell outcome, read off ``bell_branches``.

    The collapsed state is None when the outcome has (numerically) zero
    probability.
    """
    prob, _, collapsed = quantum.bell_branches(state, reg_a, reg_b)[ALL_CODES.index(BitPair(*code))]
    return prob, collapsed


def project_z(state: StateVector, reg: str, bit: int) -> tuple[float, StateVector | None]:
    """Probability and collapsed state for one forced up/down outcome, read off ``z_branches``."""
    prob, _, collapsed = quantum.z_branches(state, reg)[bit]
    return prob, collapsed


def z_probs(state: StateVector, reg: str) -> tuple[float, float]:
    """(P[bit 0], P[bit 1]) of an up/down measurement, as ``z_branches`` cleans them."""
    return tuple(prob for prob, _, _ in quantum.z_branches(state, reg))


def same_state(a: StateVector, b: StateVector, tol: float = 1e-9) -> bool:
    """True when the states are equal up to a global phase."""
    if a.registers != b.registers:
        return False
    return abs(abs(np.vdot(a.amps, b.amps)) - 1.0) <= tol


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix of qubit dimension."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"not square: shape {m.shape}")
        dim = m.shape[0]
        if dim & (dim - 1) or dim == 0:
            raise ValueError(f"dimension {dim} is not a power of two")
        if np.max(np.abs(m - m.conj().T)) > NORM_TOL:
            raise ValueError("matrix not Hermitian")
        if abs(np.trace(m).real - 1.0) > NORM_TOL:
            raise ValueError(f"trace is {np.trace(m).real!r}, want 1")
        if np.linalg.eigvalsh(m).min() < -NORM_TOL:
            raise ValueError("matrix has a negative eigenvalue")


def reduced_density(state: StateVector, keep: list[str] | tuple[str, ...]) -> DensityMatrix:
    """Partial trace down to the kept registers, in the order given."""
    keep = tuple(keep)
    if not keep:
        raise ValueError("must keep at least one register")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate names in keep list {keep}")
    axes = [state.axis(r) for r in keep]
    t = np.moveaxis(state.tensor(), axes, range(len(axes)))
    flat = t.reshape(2 ** len(keep), -1)
    return DensityMatrix(flat @ flat.conj().T)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy in bits, -sum(lam log2 lam), with 0 log 0 taken as 0."""
    lams = np.linalg.eigvalsh(rho.matrix)
    lams = np.clip(lams, 0.0, None)
    lams = lams[lams > 0.0]
    return max(float(-(lams * np.log2(lams)).sum()), 0.0)


def bell_outcome(state: StateVector, reg_a: str, reg_b: str, rng) -> BitPair:
    """``quantum.bell_measure``'s outcome from the same single draw, without the collapse."""
    return ALL_CODES[quantum.choose(quantum.bell_outcome_probs(state, reg_a, reg_b).values(), rng)]


def guess(strategy, session, outcome: BitPair, rng) -> tuple[BitPair, BitPair]:
    """Eve's live guess after a message-mode broadcast, logged on the current run.

    The strategy's readout when there is one, else ``pure_guess`` of one
    ``rng.random()``, as ``run_dialogue`` does from stored readouts.
    """
    log = session.current
    guesses = strategy.readout(log, outcome) or pure_guess(rng.random())
    log.alice_guess, log.bob_guess = guesses
    return guesses


def pick(alternatives, rng) -> int:
    """The index of a tap's alternative that ``run_dialogue`` cuts from the same uniforms.

    One ``choose`` uniform of ``rng`` when there are two or more; a
    single alternative is no pick and draws nothing.
    """
    if len(alternatives) == 1:
        return 0
    return quantum.choose([prob for prob, _, _ in alternatives], rng)


def encode(channel: Channel, code: BitPair) -> Channel:
    """Alice's code applied to whatever qubit arrived."""
    return Channel(apply_pauli(channel.state, channel.traveling, code), channel.traveling)


class Counted:
    """A stream that draws one uniform per ``random()`` call and counts them in ``n``."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.n = rng, 0

    def random(self) -> float:
        self.n += 1
        return self.rng.random()


def reference_dialogue(config, alice_msg, bob_msg, attack, rng, eve_rng) -> DialogueResult:
    """``protocol.run_dialogue`` with the quantum leg replayed on every run.

    Each run samples the ping tap's alternatives, then the pong tap's,
    each with ``pick`` on Eve's stream, and draws Bob's outcome with
    ``bell_outcome`` on the state it leaves. The state machine and the
    order of every draw are ``run_dialogue``'s. Taps are pure, so each
    distinct tap input (Bob's code, or the ping's pick and both codes)
    is played once per dialogue and its alternatives reused. Every
    uniform is one ``random()`` call, counted in ``draws``. The result
    carries the value's run tables only for the report to read.
    """
    alice_msg, bob_msg = pairs(alice_msg), pairs(bob_msg)
    rng, eve_rng = Counted(rng), Counted(eve_rng)
    session = attack.new_session()
    played = {}
    rows = []
    cursor = pass_index = 0
    status = None
    while status is None:
        bob_code = bob_msg[cursor]
        is_cm = rng.random() < config.c
        alice_code = random_pair(rng.random()) if is_cm else alice_msg[cursor]
        if bob_code not in played:
            played[bob_code] = attack.on_ping(Channel(bell_state(bob_code), "t"))
        i = pick(played[bob_code], eve_rng)
        _, channel, fields = played[bob_code][i]
        key = bob_code, i, alice_code
        if key not in played:
            played[key] = attack.on_pong(encode(channel, alice_code))
        _, channel, more = played[key][pick(played[key], eve_rng)]
        session.logs.append(EveRunLog(**{**fields, **more}))
        outcome = bell_outcome(channel.state, "h", channel.traveling, rng)
        rows.append((cursor, pass_index, is_cm, *map(ALL_CODES.index, (bob_code, alice_code, outcome))))
        if not is_cm:
            guess(attack, session, outcome, eve_rng)
            session.score(alice_truth=alice_code, bob_truth=bob_code)
            cursor += 1
            if cursor == config.n_pairs:
                status = COMPLETED
        elif outcome != alice_code ^ bob_code:
            if config.detection_policy == TERMINAL:
                status = DETECTED
            elif pass_index == config.max_restarts:
                status = ABORTED
            else:
                pass_index += 1
                cursor = 0
    return DialogueResult(Transcript(rows, status), session, (rng.n, eve_rng.n), None)


_BITS_APART = {(x, y): (x.a != y.a) + (x.b != y.b) for x in ALL_CODES for y in ALL_CODES}


def _bit_errors(decoded: list[BitPair], sent) -> int:
    """Bits in which decoded pairs differ from the sent message's, per pair (``_BITS_APART``)."""
    return sum(_BITS_APART[d, t] for d, t in zip(decoded, sent) if d != t)


def reference_report(trial_index, result, alice_msg, bob_msg, strategy) -> TrialReport:
    """``TrialReport.from_dialogue`` from the ``RunRecord``s and ``EveRunLog``s, ``BitPair`` by ``BitPair``.

    Reads ``run_records(result.transcript)`` and ``result.eve.logs``, so it
    folds either engine's result, and decodes each side against the
    messages it was given. It always builds the decoded bits.
    """
    # Control counts and the ancilla table span every pass; run counts and
    # both decodes (outcome XOR own code) cover the final pass. A control
    # check fails exactly where a pass stops short of its end: at the last
    # run of every pass but the final one, and of the final one unless the
    # dialogue completed.
    transcript = result.transcript
    runs = run_records(transcript)
    _, passes, modes, bob_codes, alice_codes, outcomes = zip(*runs)
    restarts = passes[-1]
    stopped = transcript.final_status != COMPLETED
    start = passes.index(restarts)  # the final pass's first run
    # Pass 0's last run, 1-based, is the 0-based index of pass 1's first.
    first_detection = passes.index(1) if restarts else len(runs) if stopped else None
    table = [[0, 0, 0, 0], [0, 0, 0, 0]]
    for mode, code, log in zip(modes, alice_codes, result.eve.logs):
        if log.ancilla_outcome is not None and mode == MM:
            table[log.ancilla_outcome][2 * code.a + code.b] += 1
    final_mm = [k for k in range(start, len(runs)) if modes[k] == MM]
    alice_pairs = [outcomes[k] ^ alice_codes[k] for k in final_mm]
    bob_pairs = [outcomes[k] ^ bob_codes[k] for k in final_mm]

    return TrialReport(
        trial_index=trial_index,
        strategy=strategy.name,
        beta2=getattr(strategy, "beta2", None),
        status=transcript.final_status,
        n_total=len(runs) - start,
        n_mm=len(final_mm),
        n_cm=len(runs) - start - len(final_mm),
        runs_all_passes=len(runs),
        cm_failures=restarts + stopped,
        cm_runs=modes.count(CM),
        restart_count=restarts,
        first_detection_run=first_detection,
        message_bits=2 * len(alice_msg),
        alice_bit_errors=_bit_errors(alice_pairs, pairs(bob_msg)),
        bob_bit_errors=_bit_errors(bob_pairs, pairs(alice_msg)),
        eve_alice_hits=result.eve.alice_hits,
        eve_bob_hits=result.eve.bob_hits,
        eve_guesses=result.eve.guess_count,
        ancilla_table=(tuple(table[0]), tuple(table[1])),
        alice_decoded_bits=tuple(chain.from_iterable(alice_pairs)),
        bob_decoded_bits=tuple(chain.from_iterable(bob_pairs)),
    )


def path_shapes(tables) -> tuple[set[int], set[bool]]:
    """Over every root-to-leaf path of a value's 16 trees: the numbers of picks
    it makes, and whether each guess cell of its leaf is stored (True) or left
    to a pure guess (False)."""
    picks, stored = set(), set()
    stack = [(table.tree, 0) for table in tables.by_pair.values()]
    while stack:
        node, depth = stack.pop()
        if type(node) is Branch:
            stack += [(child, depth + 1) for child in node.children if child is not None]
        else:
            picks.add(depth)
            stored |= {cell is not None for cell in node.cells}
    return picks, stored


def possible(alternatives, weight: float, fields: dict) -> list:
    """A tap's possible alternatives as (path weight, channel, path fields), in walk order.

    A single alternative is no pick and leaves the weight alone. A pick
    keeps the alternatives at or above ``PROB_FLOOR``, each weighting the
    path by its probability: the first of them, then the rest in reverse.
    """
    if len(alternatives) == 1:
        _, channel, more = alternatives[0]
        return [(weight, channel, {**fields, **more})]
    kept = [
        (weight * prob, channel, {**fields, **more})
        for prob, channel, more in alternatives
        if prob >= PROB_FLOOR
    ]
    return kept[:1] + kept[:0:-1]


def run_paths(strategy, bob_code: BitPair, alice_code: BitPair) -> list:
    """Every choice path of one code pair's run as (weight, channel, fields), in walk order.

    A fresh recursion over the taps' alternatives: the ping tap's, then,
    below each, the pong tap's on the state Alice encoded.
    """
    paths = []
    start = Channel(bell_state(bob_code), "t")
    for weight, channel, fields in possible(strategy.on_ping(start), 1.0, {}):
        paths += possible(strategy.on_pong(encode(channel, alice_code)), weight, fields)
    return paths


def reference_run_law(strategy) -> tuple[float, float, float]:
    """(per-control-run detection, Alice accuracy, Bob accuracy) from ``run_paths``.

    Recurses over the taps' alternatives of each of the 16 code pairs,
    with no run table, and folds the paths in the oracle's order.
    """
    failed = mass = alice_hits = bob_hits = 0.0
    for bob_code in ALL_CODES:
        for alice_code in ALL_CODES:
            expected = alice_code ^ bob_code
            for weight, channel, fields in run_paths(strategy, bob_code, alice_code):
                log = EveRunLog(**fields)
                probs = quantum.bell_outcome_probs(channel.state, "h", channel.traveling)
                failed += weight * (1.0 - probs[expected])
                for outcome, prob in probs.items():
                    guesses = strategy.readout(log, outcome)
                    if guesses is None:
                        alice_hit = bob_hit = PURE_GUESS_ACCURACY
                    else:
                        alice_hit = guesses[0] == alice_code
                        bob_hit = guesses[1] == bob_code
                    mass += weight * prob
                    alice_hits += weight * prob * alice_hit
                    bob_hits += weight * prob * bob_hit
    rate = failed / 16.0
    return 0.0 if rate < 1e-12 else rate, alice_hits / mass, bob_hits / mass
