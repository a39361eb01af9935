"""The two-way dialogue state machine.

One run of the protocol: Bob prepares an entangled pair encoding his
current bit pair, keeps the home qubit and pings the travel qubit to
Alice; Alice encodes her pair on whatever qubit arrived and pongs it
back; Bob Bell-measures the pair he holds; Alice then announces whether
the run was message mode (MM) or control mode (CM). MM runs consume one
message pair per side and end with Bob broadcasting his Bell outcome so
both parties can decode. CM runs consume nothing: Alice reveals the
(non-message) pair she encoded and Bob checks it against his outcome,
exposing any channel tampering. A message is a list of ``ALL_CODES``
indices (``2a + b``), one per message run, in order.

Mode is sampled by Alice before she encodes but announced only after
Bob's measurement, so MM and CM runs are indistinguishable on the wire.
Every dialogue runs under an attack strategy, invoked at exactly two
tap points: between Bob's send and Alice's receipt (ping) and between
Alice's send and Bob's receipt (pong). The honest channel is the
``NoAttack`` strategy, whose taps do nothing.

The loop that runs a dialogue counts all its report reads besides its
ending and the two messages (``DialogueResult.counts``): runs and
restarts, the final pass's first run, message runs, bit errors and
message-run outcomes, the first detecting run, Eve's guesses and hits
and the ancilla cells. Only where a caller keeps them (``keep_rows``, by
default; ``harness.run_trial`` clears it) does each run also leave one
row, a plain tuple of integers whose codes are ``ALL_CODES`` indices (so
``BitPair`` XOR is ``int ^``), plus its leaf of the run table and Eve's
guess. The transcript and Eve's session share the rows, and Eve's
session builds a run's private log (``EveRunLog``) only when read.
Where no control run can fail (``ValueTables.exact``: the honest channel
and the literal intercept-resend) and no rows are kept, a dialogue is one
completing pass that reads no float (``block_cuts``). ``match`` calls of
one regular expression over the mode cells ``u < c`` as bytes, a control
run 3 cells and a message run 2, count its runs, at most ``WALK`` message
runs a call; a block that ends first is extended and the call made again.
Eve's guess cells (her first N cells ``int(16 u)``, or the leaves' stored
ones) are scored with one ``bincount``. It reads the same uniforms and
gives the same counts as the per-run loop; the pass's outcomes, each the
XOR of both codes, are None.

A run's quantum leg is fixed once the strategy, both codes and Eve's
picks are. So it is played out once per choice path, not once per run:
``_build_table`` expands the taps' alternatives (``attacks``) over every
path of one code pair, computing each prefix state once, and keeps the
choice tree and its leaves. Each pick and each leaf's Bell law also
keeps its ``quantum.cumulative`` thresholds, and each leaf Eve's
``readout`` of every outcome, so the sampler cuts each pick from one
uniform, as ``quantum.choose`` would, and looks up the rest. The exact
oracle sums the same leaves, so both read one table.
"""

from __future__ import annotations

import re
import struct
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from operator import methodcaller
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .attacks import Channel, EveRunLog
from .quantum import (
    ALL_CODES,
    BitPair,
    _bell_law,
    _clean,
    apply_pauli,
    bell_state,
    cumulative,
    cut,
)

if TYPE_CHECKING:  # pragma: no cover
    from .attacks import AttackStrategy, EveSession

TERMINAL = "terminal"
REINITIALIZE = "reinitialize"
DETECTION_POLICIES = (TERMINAL, REINITIALIZE)

COMPLETED = "completed"
DETECTED = "detected"
ABORTED = "aborted_max_restarts"


# A message: one ``ALL_CODES`` index per pair, in order.
Message = list[int]
# Bits set in each code index: two pairs differ in the bits of their indices' XOR.
_BITS = (0, 1, 1, 2)


def random_message(n_pairs: int, rng: np.random.Generator) -> Message:
    """A uniformly random message of ``n_pairs`` pairs from one ``rng.random(n_pairs)``.

    Uniform ``u`` gives the code index ``int(u * 4.0)``. Scaling by a
    power of two is exact, so each pair is exactly uniform on numpy's
    grid of 2**53 doubles.
    """
    return (rng.random(n_pairs) * 4.0).astype(np.intp).tolist()


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


class Leaf(NamedTuple):
    """The end of one choice path of a run.

    ``weight`` is the product of the path's pick probabilities, ``fields``
    the fields of Eve's run log (``EveRunLog``) the taps wrote,
    ``bell_probs`` Bob's ``_clean``ed Bell outcome law, in code order, ``bell_cum``
    its ``cumulative`` thresholds and ``readouts`` the strategy's
    ``readout(log, outcome)`` of that log for each outcome, in code order.
    The sampler reads the rest: ``sure`` is the one outcome the law
    keeps (None if it keeps more), ``cells`` each readout as Eve's guess
    cell (``attacks.EveSession``; None where it pins nothing) and
    ``ancilla`` the log's ancilla outcome.
    """

    weight: float
    fields: dict
    bell_probs: tuple[float, ...]
    bell_cum: tuple
    readouts: tuple
    sure: int | None
    cells: tuple
    ancilla: int | None


class Branch(NamedTuple):
    """One of Eve's picks: a child per index (None where impossible) and the ``cumulative``
    thresholds of the pick's probabilities. A pick that keeps one index is sure; where a value reads
    none of Eve's uniforms it is passed with no ``cut``, her cursor moving on (``ValueTables.reads``)."""

    children: tuple
    cum: tuple


class RunTable(NamedTuple):
    """One code pair's run law under a strategy: the choice tree and its leaves in walk order."""

    tree: Branch | Leaf
    leaves: tuple[Leaf, ...]


def _expand(alternatives, weight: float, fields: dict, then) -> Branch | Leaf:
    """The subtree below one tap's alternatives; ``then`` builds each one's own.

    One alternative is no pick. A pick keeps a child per alternative
    (None where its ``_clean``ed probability is zero) and builds them in
    walk order: the first possible one, then the rest in reverse.
    """
    cleaned, total = _clean([p for p, _, _ in alternatives])
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"branch probabilities must sum to 1, got {total!r}")
    if len(alternatives) == 1:
        _, channel, more = alternatives[0]
        return then(weight, channel, {**fields, **more})
    children = [None] * len(alternatives)
    kept = [i for i, p in enumerate(cleaned) if p > 0.0]
    for i in kept[:1] + kept[:0:-1]:
        _, channel, more = alternatives[i]
        children[i] = then(weight * cleaned[i], channel, {**fields, **more})
    return Branch(tuple(children), cumulative(cleaned, total))


def _build_table(strategy: "AttackStrategy", bob_code: BitPair, alice_code: BitPair) -> RunTable:
    """Expand one run's quantum leg over every choice path, depth first.

    Bob's coded pair goes out, the ping alternatives are expanded, Alice
    applies her code to whatever qubit arrives, then the pong
    alternatives are expanded. Each path's leaf keeps the log fields its
    alternatives wrote.
    """
    leaves: list[Leaf] = []

    def pong(weight: float, channel: Channel, fields: dict) -> Branch | Leaf:
        encoded = channel._replace(state=apply_pauli(channel.state, channel.traveling, alice_code))
        return _expand(strategy.on_pong(encoded), weight, fields, leaf)

    def leaf(weight: float, channel: Channel, fields: dict) -> Leaf:
        log = EveRunLog(**fields)
        bell_probs, total = _clean(_bell_law(channel.state, "h", channel.traveling)[0])
        bell_cum = cumulative(bell_probs, total)
        readouts = tuple(strategy.readout(log, outcome) for outcome in ALL_CODES)
        cells = tuple(None if r is None else 4 * ALL_CODES.index(r[0]) + ALL_CODES.index(r[1]) for r in readouts)
        sure = bell_cum[2][0] if len(bell_cum[1]) == 1 else None
        leaves.append(Leaf(weight, fields, tuple(bell_probs), bell_cum, readouts, sure, cells, log.ancilla_outcome))
        return leaves[-1]

    tree = _expand(strategy.on_ping(Channel(bell_state(bob_code), "t")), 1.0, {}, pong)
    return RunTable(tree, tuple(leaves))


class ValueTables(NamedTuple):
    """A strategy value's 16 run tables, by code pair and as trees indexed ``4 * bob + alice`` (``ALL_CODES``
    indices), the sampler's view. ``ancilla``: some leaf carries an ancilla outcome. ``exact``: where each tree
    is one sure path of ``picks`` picks to a leaf sure of its codes' XOR that stores its guess cell or not as
    ``guessing`` says, so no control run fails, and ``picks`` 0 if it guesses (her guesses are then her first
    cells), two intp arrays indexed alike: each leaf's stored guess cell (0 where it guesses) and ancilla slot (``4
    * ancilla + alice``, 8 for none); else empty. ``picks`` and
    ``guessing``: the first path's picks, and whether its leaf leaves a message run's guess to a uniform.
    ``detection`` and ``accuracy``: the exact oracles' per-control-run rate and Eve's (Alice, Bob) guess
    accuracies. ``reads``: a run reads one of Eve's uniforms (a pick of two indices or more, or a pure
    guess), or trees differ in picks. Else each tree is one path of sure picks, whose leaf is the root."""

    by_pair: dict[tuple[BitPair, BitPair], RunTable]
    roots: list
    ancilla: bool
    exact: tuple
    picks: int
    guessing: bool
    detection: float
    accuracy: tuple[float, float]
    reads: bool


# Strategy values whose tables are kept, least recently used first out.
# A sweep builds one value per point.
TABLE_STRATEGIES = 32
_TABLES: OrderedDict[tuple, ValueTables] = OrderedDict()
# What a pure guess of one pair scores: one of four codes, equally likely.
PURE_GUESS_ACCURACY = 0.25


def _strategy_key(strategy: "AttackStrategy") -> tuple:
    """A strategy's value: its class, then its instance attributes, floats by bit pattern."""
    return type(strategy), tuple(sorted((k, _arg_key(v)) for k, v in vars(strategy).items()))


def _arg_key(arg):
    """An attribute's key: a float by its type and bit pattern (so 0.0 and -0.0 differ)."""
    if isinstance(arg, (float, np.floating)):
        return type(arg), struct.pack("<d", arg)
    return arg


def value_tables(strategy: "AttackStrategy") -> ValueTables:
    """The strategy's ``_TABLES`` entry, built on first use.

    Tables are kept per process for the last ``TABLE_STRATEGIES``
    strategy values, so equal strategies share them. This relies on the
    contract in ``attacks``: a tap is a pure function of the channel and
    its strategy's attributes.
    """
    key = _strategy_key(strategy)
    entry = _TABLES.get(key)
    if entry is None:
        tables = {(b, a): _build_table(strategy, b, a) for b in ALL_CODES for a in ALL_CODES}
        leaves = [(b, a, leaf) for (b, a), table in tables.items() for leaf in table.leaves]
        depths = [0] * 16  # the picks on each tree's first path
        for k, node in enumerate(table.tree for table in tables.values()):
            while type(node) is Branch:
                node, depths[k] = next(filter(None, node.children)), depths[k] + 1
        ones = [table.leaves[0] for table in tables.values()]  # each tree's first leaf, its only one if 16 in all
        reads = len(leaves) > 16 or len(set(depths)) > 1 or any(None in leaf.cells for leaf in ones)
        guessing = None in ones[0].cells
        exact = len(leaves) == 16 and len(set(depths)) == 1 and not (guessing and depths[0])
        failed = mass = alice = bob = 0.0  # summed in ``leaves`` order, Bob's code outer
        for b, a, leaf in leaves:
            k = ALL_CODES.index(b ^ a)
            failed += leaf.weight * (1.0 - leaf.bell_probs[k])
            exact = exact and leaf.sure == k and (leaf.cells[k] is None) == guessing
            for prob, guesses in zip(leaf.bell_probs, leaf.readouts):
                hits = (PURE_GUESS_ACCURACY,) * 2 if guesses is None else (guesses[0] == a, guesses[1] == b)
                mass += leaf.weight * prob
                alice += leaf.weight * prob * hits[0]
                bob += leaf.weight * prob * hits[1]
        # Dividing by the summed mass rather than 16 keeps a sure readout
        # at exactly 1 and a pure guess at exactly 1/4.
        exact = exact and (  # each leaf's stored guess cell and ancilla slot, as ``exact`` holds them
            np.array([0 if guessing else leaf.cells[k // 4 ^ k % 4] for k, leaf in enumerate(ones)]),
            np.array([8 if leaf.ancilla is None else 4 * leaf.ancilla + k % 4 for k, leaf in enumerate(ones)]))
        entry = ValueTables(tables, [table.tree for table in tables.values()] if reads else ones,
                            any(leaf.ancilla is not None for *_, leaf in leaves), exact or (),
                            depths[0], guessing, 0.0 if failed / 16.0 < 1e-12 else failed / 16.0,
                            (alice / mass, bob / mass), reads)
        if len(_TABLES) >= TABLE_STRATEGIES:
            _TABLES.popitem(last=False)
        _TABLES[key] = entry
    else:
        _TABLES.move_to_end(key)
    return entry


def pass_reads(n: int, c: float, picks: int, guessing: bool) -> tuple[int, int]:
    """What a completing pass reads of the protocol's stream (3 a control run, 2 a message run) and of Eve's
    (``picks`` a run, plus a message run's pure guess), control runs at their mean ``n c/(1-c)`` plus two."""
    cm = int((n * c + 2.0 * (n * c) ** 0.5) / (1.0 - c)) + 1
    return 2 * n + 3 * cm, picks * (n + cm) + guessing * n


def first_blocks(config: ProtocolConfig, tables: ValueTables) -> tuple[int, int]:
    """The sizes of a dialogue's first blocks, the protocol's and Eve's: what a completing pass reads
    (``pass_reads``) or, if fewer, what a detected value's passes read until they stop (3 and ``picks +
    guessing`` a run, runs at their mean ``passes/(c detection)`` plus two). Sizing moves no uniform."""
    passes = 1 if config.detection_policy == TERMINAL else 1 + config.max_restarts
    pu, eu = pass_reads(config.n_pairs, config.c, tables.picks, tables.guessing)
    runs = int((passes + 2.0 * passes ** 0.5) / (config.c * tables.detection)) + 1 if tables.detection else pu
    return min(pu, 3 * runs), min(eu, (tables.picks + tables.guessing) * runs)


@dataclass
class Transcript:
    """Ordered run log and how the dialogue ended.

    ``rows``, if kept (``run_dialogue``'s ``keep_rows``), holds a plain tuple
    per run: (index, pass_index, is_cm, Bob's code, Alice's code, outcome),
    codes as ``ALL_CODES`` indices, then what else its engine keeps
    (``run_dialogue``: the run's leaf and Eve's guess cell). A restart starts
    a new pass, so the restart count is the last run's ``pass_index``, and
    the final pass is the suffix of runs carrying that index.
    """

    rows: list[tuple]
    final_status: str


@dataclass
class DialogueResult:
    """Outcome of one dialogue: the public transcript, Eve's session, the uniforms read from each stream and what
    the report reads, counted as the dialogue ran. ``counts``: runs over all passes, restarts, the final pass's
    first run, the first detecting run (1-based, None if no check failed), the final pass's message runs and bit
    errors, Eve's guesses and her Alice and Bob hits over all passes, the ancilla cells (2x4, by readout and
    Alice's code, as ``TrialReport.ancilla_table``; None without an ancilla) and the final pass's message-run
    outcomes (None where the dialogue was read as one completing pass)."""

    transcript: Transcript
    eve: "EveSession"
    draws: tuple[int, int]
    counts: tuple[int, int, int, int | None, int, int, int, int, int, list | None, list | None] | None


@lru_cache
def block_cuts(c: float, one_pass: bool) -> tuple:
    """How a trial's uniforms are cut for its engine, built once per ``(c, one_pass)``: its messages into code indices
    ``int(u * 4.0)``, then the protocol's and Eve's blocks. For an exact value's one pass (``ValueTables.exact``) the
    codes are an intp array and the blocks the cells it reads: mode cells ``u < c`` as ``bytes`` (1 on a control run;
    one per trial of a chunk's draw) and Eve's guess cells ``int(u * 16.0)``, an intp array. Else each is a list, the
    blocks of floats. A chunk cuts its trials' heads so, and ``run_dialogue`` its first blocks and refills."""
    if one_pass:
        def modes(u):
            cells, width = (u < c).tobytes(), u.shape[-1]
            return cells if u.ndim == 1 else [cells[k * width:k * width + width] for k in range(len(u))]
        return lambda u: (u * 4.0).astype(np.intp), modes, lambda u: (u * 16.0).astype(np.intp)
    return lambda u: (u * 4.0).astype(np.intp).tolist(), methodcaller("tolist"), methodcaller("tolist")


WALK = 256  # the most message runs one ``match`` of the walk spans, bounding ``re``'s backtracking state (80 KB)


@lru_cache
def _walk(k: int) -> re.Pattern:
    """``k`` message runs and the control runs before each, over mode cells: 1 and 2 more cells, or 0 and 1 more."""
    return re.compile(rb"(?:(?:\x01..)*\x00.){%d}" % k, re.S)


def _refill(block, used: int, stream, cut) -> tuple:
    """``block``'s unused entries and twice as many uniforms as it held (at least 3) from ``stream``, cut, counted."""
    block = block[used:] + cut(stream.random(max(2 * len(block), 3)))
    return block, len(block)


def run_dialogue(
    config: ProtocolConfig,
    alice_msg: Message,
    bob_msg: Message,
    attack: "AttackStrategy",
    rng: np.random.Generator,
    eve_rng: np.random.Generator | None,
    tables: ValueTables | None = None,
    first: tuple | None = None,
    keep_rows: bool = True,
) -> DialogueResult:
    """Execute runs until the dialogue completes, detects Eve, or gives up.

    Both messages, lists of ``ALL_CODES`` indices as ``random_message`` draws them (or intp arrays, for the one
    pass), must have half-length ``config.n_pairs``. The protocol's draws (mode, control-run pair, Bob's Bell
    outcome) come from ``rng`` in run order, and the attack's from ``eve_rng``, a stream of its own. So an attack
    whose taps leave Bob's Bell law unchanged leaves the transcript byte-identical to the honest channel's.

    Each run is drawn from its code pair's run table: one ``cut`` per pick of Eve's choice tree, as
    ``quantum.choose`` would, one for Bob's outcome by the leaf's Bell law (a law with one outcome still takes its
    uniform) and, on a message run, the leaf's stored guess cell, or the cell ``int(u * 16.0)`` of one more of
    Eve's uniforms where the readout pins nothing. Under ``keep_rows`` each run appends a row that the transcript
    and Eve's session share. Each stream is read in blocks, in the order one ``random()`` per uniform gives: ``2 +
    is_cm`` of the protocol's a run, and of Eve's ``picks`` plus one on a message run whose leaf stores no guess
    cell. The first blocks are ``first``, cut as its engine reads them (``block_cuts``), which a caller may pass
    (``harness.run_trial`` does), or else each stream's ``random(n)`` cut so (``first_blocks``). Before each run the
    loop refills the protocol's block if it holds fewer than 3, and Eve's when used up: a refill keeps the unused
    tail and cuts twice as many uniforms as the block held (at least 3) from the stream, which goes on where the
    first block ended, so any numpy Generator will do; ``draws`` counts the uniforms moved past in each. A value whose
    runs read none of Eve's (``ValueTables.reads``) takes each run's leaf from its roots with no ``cut`` and draws
    no block from ``eve_rng``, which may be None, though its runs move her cursor past ``picks``. ``tables`` is
    the attack's ``value_tables``, looked up here unless passed. The loop counts ``counts`` as it goes: a restart
    sets the final pass's first run and clears its bit errors and outcomes. Unless ``keep_rows``, an ``exact``
    value's dialogue is one completing pass (see the module docstring), whose refills keep the whole block, and
    Eve's block is topped up once to the N guess cells she reads.
    """
    if len(alice_msg) != len(bob_msg):
        raise ValueError(f"messages must have equal half-length, got {len(alice_msg)} and {len(bob_msg)}")
    if len(alice_msg) != config.n_pairs:
        raise ValueError(f"config.n_pairs = {config.n_pairs} but messages have {len(alice_msg)} pairs")
    tables = tables or value_tables(attack)
    roots, c, n_pairs, terminal = tables.roots, config.c, config.n_pairs, config.detection_policy == TERMINAL
    one_pass = bool(tables.exact) and not keep_rows
    _, pu_cut, eu_cut = block_cuts(c, one_pass)
    if first is None:
        pu_first, eu_first = first_blocks(config, tables)
        first = pu_cut(rng.random(pu_first)), eu_cut(eve_rng.random(eu_first)) if tables.reads else []
    pu, eu = first
    i = j = pu_read = eu_read = 0  # the next unused uniform of each, and those read from earlier blocks
    pu_end, eu_end = len(pu), len(eu)

    session = attack.new_session()
    rows: list[tuple] = []
    outcomes: list[int] = []  # the final pass's message-run outcomes
    cursor = pass_index = runs = start = errors = guesses = alice_hits = bob_hits = 0
    status, first_detection, cells = None, None, [[0] * 4, [0] * 4] if tables.ancilla else None

    if one_pass:  # its runs counted off the mode cells (see the module docstring)
        for m in range(0, n_pairs, WALK):
            while not (walked := _walk(min(WALK, n_pairs - m)).match(pu, i)):  # the block ends first: extend it,
                pu, _ = _refill(pu, 0, rng, pu_cut)  # whole, so ``i`` counts the uniforms read, and match again
            i = walked.end()
        runs = (i + n_pairs) // 3  # 3 uniforms a control run and 2 a message run: i = 3 runs - N
        if tables.guessing and len(eu) < n_pairs:  # Eve's guess cells, her first N uniforms
            eu = np.concatenate((eu, eu_cut(eve_rng.random(n_pairs - len(eu)))))
        stored, slots = tables.exact
        pairs = 4 * np.asarray(bob_msg) + alice_msg if cells or not tables.guessing else None  # only where read
        guessed = eu[:n_pairs] if tables.guessing else stored[pairs]
        # Counted by 4 (her Alice guess ^ alice) + (her Bob guess ^ bob): Alice's hits are 0-3, Bob's every fourth.
        hits = np.bincount(guessed ^ (4 * np.asarray(alice_msg) + bob_msg), minlength=16).tolist()
        cells = cells and np.bincount(slots[pairs], minlength=9)[:8].reshape(2, 4).tolist()
        counts = runs, 0, 0, None, n_pairs, 0, n_pairs, sum(hits[:4]), sum(hits[::4]), cells, None
        draws = i, tables.picks * runs + tables.guessing * n_pairs
        return DialogueResult(Transcript([], COMPLETED), session, draws, counts)

    while status is None:
        if i > pu_end - 3:  # the mode, a control run's pair and Bob's outcome
            (pu, pu_end), pu_read, i = _refill(pu, i, rng, pu_cut), pu_read + i, 0

        # Alice decides the mode before she encodes but announces it only
        # after Bob's measurement, so the taps never see it. Control runs
        # encode a throwaway random pair, so a revealed pair never carries
        # message content.
        bob = bob_msg[cursor]
        is_cm = pu[i] < c
        if is_cm:
            alice = int(pu[i + 1] * 4.0)  # as ``random_message``
            i += 2
        else:
            alice = alice_msg[cursor]
            i += 1
        node = roots[4 * bob + alice]
        while type(node) is Branch:
            if j == eu_end:
                (eu, eu_end), eu_read, j = _refill(eu, j, eve_rng, eu_cut), eu_read + j, 0
            node = node.children[cut(node.cum, eu[j])]
            j += 1
        k = node.sure
        if k is None:
            k = cut(node.bell_cum, pu[i])
        i += 1
        runs += 1

        # Each party decodes a message run as the outcome XOR its own
        # code, so either decode misses the other's pair by the bits of
        # outcome XOR both codes. A control run whose outcome is not the
        # XOR of both codes fails Bob's check and stops or restarts the
        # dialogue; a restart starts the final pass's counts afresh.
        if is_cm:
            if keep_rows:
                rows.append((cursor, pass_index, True, bob, alice, k, node, None))
            if k != alice ^ bob:
                first_detection = first_detection or runs
                if terminal:
                    status = DETECTED
                elif pass_index == config.max_restarts:
                    status = ABORTED
                else:
                    pass_index, cursor, start, errors = pass_index + 1, 0, runs, 0
                    outcomes.clear()
        else:
            cell = node.cells[k]
            if cell is None:  # a pure guess: 16 cells, equally likely
                if j == eu_end:
                    (eu, eu_end), eu_read, j = _refill(eu, j, eve_rng, eu_cut), eu_read + j, 0
                cell = int(eu[j] * 16.0)
                j += 1
            if keep_rows:
                rows.append((cursor, pass_index, False, bob, alice, k, node, cell))
            outcomes.append(k)
            alice_hits += cell >> 2 == alice
            bob_hits += cell & 3 == bob
            guesses += 1
            errors += _BITS[k ^ alice ^ bob]
            if node.ancilla is not None:
                cells[node.ancilla][alice] += 1
            cursor += 1
            if cursor == n_pairs:
                status = COMPLETED

    session.rows = rows
    moved = eu_read + j if tables.reads else tables.picks * runs
    counts = runs, pass_index, start, first_detection, cursor, errors, guesses, alice_hits, bob_hits, cells, outcomes
    return DialogueResult(Transcript(rows, status), session, (pu_read + i, moved), counts)
