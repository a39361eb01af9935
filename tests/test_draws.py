"""How the dialogue's own randomness is drawn.

Message pairs, control-run pairs and Eve's pure guesses are cut from
uniforms scaled by a power of two: pair ``ALL_CODES[int(u * 4.0)]`` (a
message keeps the index ``int(u * 4.0)`` itself) and guess cell ``k = int(u * 16.0)`` (Alice ``ALL_CODES[k >> 2]``, Bob
``ALL_CODES[k & 3]``). A scripted stream pins the cells at their edges
and the number of draws; ``run_dialogue`` reports how many uniforms it
reads from each of its two streams (``draws``), which must be the count
the per-uniform replay's final stream states pin. Eve's picks and
Bob's outcome are cut from thresholds a run table keeps
(``cut(cumulative(p), rng.random())``), which must give ``choose(p, rng)``'s
index from the same single uniform, and the linear scan's index at and
beside every threshold a run table stores; there ``run_dialogue`` must
take the child and outcome ``cut`` gives too.
"""

import numpy as np
import pytest

from qdialogue.analysis import per_cm_detection_oracle
from qdialogue.attacks import (
    STRATEGY_NAMES,
    AttackStrategy,
    EveRunLog,
    InterceptResendLiteral,
    NoAttack,
    strategy_from_name,
)
from qdialogue import harness
from qdialogue.harness import ExperimentConfig
from qdialogue.protocol import (
    COMPLETED,
    DETECTION_POLICIES,
    REINITIALIZE,
    Branch,
    ProtocolConfig,
    first_blocks,
    random_message,
    run_dialogue,
    value_tables,
)
from qdialogue.quantum import (
    ALL_CODES,
    PROB_FLOOR,
    BitPair,
    attach_ancilla,
    bell_outcome_probs,
    bell_state,
    choose,
    cumulative,
    cut,
    entangling_probe,
)
from reference import (
    CM,
    MM,
    STRATEGY_VALUES,
    cm_pass,
    ends_after,
    guess,
    pairs,
    per_draw_choose,
    random_pair,
    reference_dialogue,
    run_records,
    scan_cut,
    transcript_dict,
    z_probs,
)

# Uniforms at the cell edges, with the quarter each falls in.
EDGES = [
    (0.0, 0),
    (float(np.nextafter(0.25, 0.0)), 0),
    (0.25, 1),
    (0.5, 2),
    (0.75, 3),
    (1.0 - 2.0**-53, 3),
]
# Every non-probe strategy value, and the probe at beta2 0, 0.05, ..., 0.5.
TABLE_VALUES = [(name, None) for name in STRATEGY_NAMES if name != "entangle-measure"] + [
    ("entangle-measure", k / 20) for k in range(11)
]
# The strategy values Bob cannot detect, whose passes never stop.
UNDETECTED_VALUES = [
    (name, beta2) for name, beta2 in STRATEGY_VALUES
    if per_cm_detection_oracle(strategy_from_name(name, beta2)) == 0.0
]
# A probed pair: Born laws whose entries are not round numbers.
_PROBED = entangling_probe(attach_ancilla(bell_state(BitPair(1, 0)), "e"), "t", "e", 0.6, 0.8)
LAWS = {
    "uniform-2": (0.5, 0.5),
    "uniform-4": (0.25,) * 4,
    "born-bell": tuple(bell_outcome_probs(_PROBED, "h", "t").values()),
    "born-z": z_probs(_PROBED, "e"),
    "born-below-floor": (0.3, PROB_FLOOR / 2, 0.7 - 1e-16, 1e-17),
    "floor-first-and-last": (1e-13, 0.375, 0.625, 5e-13),
    "one-outcome": (1.0,),
    "one-kept-of-four": (0.0, 1.0 - 1e-13, 1e-13, 0.0),
    "one-kept-bell": tuple(bell_outcome_probs(bell_state(BitPair(0, 1)), "h", "t").values()),
}
# The same uniforms and their cell among the 16 (Alice, Bob) code pairs.
GUESS_CELLS = [
    (0.0, 0),
    (float(np.nextafter(0.25, 0.0)), 3),
    (0.25, 4),
    (0.5, 8),
    (0.75, 12),
    (1.0 - 2.0**-53, 15),
]


def threshold_uniforms(cum):
    """The uniforms at a law's stored thresholds, and how many sums one lands on exactly.

    At each running sum: the uniform whose ``u * total`` lands exactly on
    it (where one exists), one ulp either side of it, and 0 and the largest
    double below 1.
    """
    total, sums, _ = cum
    us, exact_hits = [0.0, 1.0 - 2.0**-53], 0
    for acc in sums:
        down, up = np.nextafter(acc / total, 0.0), np.nextafter(acc / total, 1.0)
        near = [acc / total, down, up, np.nextafter(down, 0.0), np.nextafter(up, 1.0)]
        on_sum = [float(u) for u in near if u * total == acc]
        exact_hits += bool(on_sum)
        for u in on_sum or near[:1]:
            us += [u, float(np.nextafter(u, 0.0)), float(np.nextafter(u, 1.0))]
    return [float(u) for u in us if 0.0 <= u < 1.0], exact_hits


class ScriptedRng:
    """Answers ``random()`` and ``random(n)`` from a script and logs each call.

    Anything else asked of it raises, so a draw of another kind cannot
    pass unseen.
    """

    def __init__(self, values):
        self.values = list(values)
        self.calls = []

    def random(self, size=None):
        self.calls.append(size)
        if size is None:
            return self.values.pop(0)
        drawn, self.values = self.values[:size], self.values[size:]
        return np.array(drawn)

    def __getattr__(self, name):
        raise TypeError(f"unexpected draw rng.{name}")


class BlockRecorder(np.random.Generator):
    """A real generator that logs the size of each ``random`` and ``spawn`` call.

    The children it spawns are ``BlockRecorder``s too, kept in ``children``.
    """

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.sizes = []
        self.spawns = []
        self.children = []

    def random(self, size=None, dtype=np.float64, out=None):
        self.sizes.append(size)
        return super().random(size, dtype, out)

    def spawn(self, n_children):
        self.spawns.append(n_children)
        children = [BlockRecorder(child.bit_generator) for child in super().spawn(n_children)]
        self.children.extend(children)
        return children


def recorder(seed, *key):
    """A ``BlockRecorder`` on ``reference.trial_rng(seed, *key)``'s stream; its ``spawn(1)`` is Eve's."""
    return BlockRecorder(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


class UnevenPicks(AttackStrategy):
    """Picks on the ping of Bob's codes 01 and 10 only (whose Bell states
    have a ``|00>`` amplitude), and guesses 00 for both parties always."""

    name = "uneven-picks"

    def on_ping(self, channel):
        if abs(channel.state.amps[0]) < 0.5:
            return ((1.0, channel, {}),)
        return ((0.5, channel, {}), (0.5, channel, {}))

    def readout(self, log, outcome):
        return BitPair(0, 0), BitPair(0, 0)


class UnevenSurePicks(UnevenPicks):
    """``UnevenPicks`` with the second alternative impossible, so every
    pick is sure, but only two of Bob's four codes make one."""

    name = "uneven-sure-picks"

    def on_ping(self, channel):
        if abs(channel.state.amps[0]) < 0.5:
            return ((1.0, channel, {}),)
        return ((1.0, channel, {}), (0.0, channel, {}))


def sample(config, name, beta2, seed, engine=run_dialogue):
    """One seeded dialogue: its result, and the protocol's and Eve's recorded streams.

    ``name`` is a registered strategy's, or a strategy itself.
    """
    rng = recorder(seed)
    msgs = [random_message(config.n_pairs, rng) for _ in range(2)]
    strategy = name if isinstance(name, AttackStrategy) else strategy_from_name(name, beta2)
    result = engine(config, *msgs, strategy, rng, *rng.spawn(1))
    (eve_rng,) = rng.children
    return result, rng, eve_rng


def small_first(size: int):
    """``run_dialogue`` given a first protocol block of ``size`` uniforms, drawn after both messages."""

    def engine(config, alice, bob, strategy, rng, eve_rng):
        tables = value_tables(strategy)
        eve = eve_rng.random(first_blocks(config, tables)[1]).tolist() if tables.reads else []
        return run_dialogue(config, alice, bob, strategy, rng, eve_rng, tables, (rng.random(size).tolist(), eve))

    return engine


def assert_equals_replay(config, name, beta2, seed, sampler=run_dialogue):
    """The sampler against the per-run replay: transcript, Eve's logs and the uniforms read from each stream.

    The replay draws one uniform per call, so its final stream states
    pin its ``draws``. Returns the sampler's result and two recorded streams.
    """
    seen, sampled = [], []
    for engine in (sampler, reference_dialogue):
        result, rng, eve_rng = sample(config, name, beta2, seed, engine)
        seen.append((transcript_dict(result.transcript), result.eve.logs, result.draws))
        sampled.append((result, rng, eve_rng))
    assert seen[0] == seen[1], seed
    _, rng, eve_rng = sampled[1]
    draws = seen[1][2]
    assert ends_after(rng, seed, 2 * config.n_pairs + draws[0]) and ends_after(eve_rng, seed, draws[1], child=True)
    return sampled[0]


def refilled(stream, first: int) -> int:
    """How many times a dialogue refilled ``stream``, whose first block is its ``first``-th draw."""
    return len(stream.sizes) - first - 1


class Refills:
    """A stream that counts the blocks a dialogue draws from it: its refills, as its first block is handed in."""

    def __init__(self, stream):
        self.stream, self.n = stream, 0

    def random(self, size):
        self.n += 1
        return self.stream.random(size)


def chunk_refills(monkeypatch, config: ExperimentConfig, point_key=(), trials=400) -> list[tuple[int, int]]:
    """Per trial of one ``_fold_trials`` chunk, how many times its dialogue refilled each stream."""
    seen, raw = [], harness.run_dialogue

    def counted(config, alice, bob, attack, rng, eve_rng, tables, first, keep_rows):
        rng, eve_rng = Refills(rng), eve_rng and Refills(eve_rng)
        result = raw(config, alice, bob, attack, rng, eve_rng, tables, first, keep_rows)
        seen.append((rng.n, eve_rng.n if eve_rng else 0))
        return result

    monkeypatch.setattr(harness, "run_dialogue", counted)
    harness._fold_trials(config, range(trials), point_key)
    return seen


class TestScalarCells:
    @pytest.mark.parametrize("u, cell", EDGES)
    def test_control_pair_cell(self, u, cell):
        assert random_pair(u) == ALL_CODES[cell]

    def test_message_cells_from_one_vector_draw(self):
        # A message is its cells: code indices, each the index of the pair
        # the scalar cut gives.
        rng = ScriptedRng([u for u, _ in EDGES])
        msg = random_message(len(EDGES), rng)
        assert msg == [cell for _, cell in EDGES]
        assert msg == [ALL_CODES.index(random_pair(u)) for u, _ in EDGES]
        assert all(type(k) is int for k in msg)
        assert rng.calls == [len(EDGES)]

    def test_message_cut_equals_scalar_cut(self):
        # The vectorized cut of a message against the scalar one of a pair.
        us = [u for u, _ in EDGES] + np.random.default_rng(0).random(1000).tolist()
        msg = random_message(len(us), ScriptedRng(us))
        assert pairs(msg) == tuple(random_pair(u) for u in us)

    def test_two_messages_draw_in_order(self):
        rng = ScriptedRng([0.0, 0.5, 0.75, 0.25])
        assert random_message(2, rng) == [0, 2]
        assert random_message(2, rng) == [3, 1]
        assert rng.calls == [2, 2]

    @pytest.mark.parametrize("u, k", GUESS_CELLS)
    def test_pure_guess_cell(self, u, k):
        strategy = NoAttack()
        session = strategy.new_session()
        session.logs.append(EveRunLog())
        rng = ScriptedRng([u])
        guesses = guess(strategy, session, BitPair(0, 0), rng)
        assert guesses == (ALL_CODES[k >> 2], ALL_CODES[k & 3])
        assert (session.current.alice_guess, session.current.bob_guess) == guesses
        assert rng.calls == [None]

    def test_sixteen_guess_cells_are_the_sixteen_code_pairs(self):
        cells = set()
        for k in range(16):
            strategy = NoAttack()
            session = strategy.new_session()
            session.logs.append(EveRunLog())
            cells.add(guess(strategy, session, BitPair(0, 0), ScriptedRng([k / 16])))
        assert cells == {(a, b) for a in ALL_CODES for b in ALL_CODES}

    def test_readout_guess_draws_nothing(self):
        strategy = InterceptResendLiteral()
        session = strategy.new_session()
        session.logs.append(EveRunLog())
        session.current.learned_alice = BitPair(1, 0)
        rng = ScriptedRng([])
        assert guess(strategy, session, BitPair(1, 1), rng) == (BitPair(1, 0), BitPair(0, 1))
        assert rng.calls == []
        assert session.score(BitPair(1, 0), BitPair(1, 1)) == (True, False)


class TestDialogueStreams:
    @pytest.mark.parametrize("attack", [NoAttack(), InterceptResendLiteral()])
    def test_dialogue_spawns_no_stream(self, attack):
        # Eve's stream is handed in, derived with the trial's. The honest
        # channel guesses from it; intercept-resend reads none of it, so
        # no block of it is drawn.
        rng, eve_rng = recorder(5), recorder(6)
        msgs = [random_message(6, rng) for _ in range(2)]
        run_dialogue(ProtocolConfig(c=0.5, n_pairs=6), *msgs, attack, rng, eve_rng)
        assert rng.spawns == eve_rng.spawns == []
        assert rng.sizes[2:]
        assert eve_rng.sizes if type(attack) is NoAttack else eve_rng.sizes == []

    def test_one_uniform_per_draw(self):
        # Per run the protocol uses the mode, a control run's pair and
        # Bob's Bell outcome; Eve uses one pure guess per message run.
        # Uniforms are drawn in blocks, and the unused tail is not given
        # back: each stream ends after every uniform it drew.
        rng = recorder(8)
        msgs = [random_message(16, rng) for _ in range(2)]
        result = run_dialogue(ProtocolConfig(c=0.5, n_pairs=16), *msgs, NoAttack(), rng, *rng.spawn(1))
        runs = run_records(result.transcript)
        n_cm = sum(r.mode == CM for r in runs)
        n_mm = sum(r.mode == MM for r in runs)
        guesses = result.counts[6]
        assert n_mm == guesses == 16
        assert result.draws == (2 * len(runs) + n_cm, n_mm)
        (eve_rng,) = rng.children
        assert ends_after(rng, 8, sum(rng.sizes)) and ends_after(eve_rng, 8, sum(eve_rng.sizes), child=True)


class TestStreamEdges:
    # Each stream's first block is sized from the config and refilled
    # when used up. Each case compares the sampler with the per-run
    # replay, which draws one uniform per call, under both policies and
    # every registered strategy.

    @pytest.mark.parametrize("policy", DETECTION_POLICIES)
    @pytest.mark.parametrize("name, beta2", STRATEGY_VALUES)
    def test_refilled_blocks(self, name, beta2, policy):
        # Long dialogues: six control runs in ten, up to 400 restarts. A
        # detecting strategy restarts many passes, each shorter than a
        # first block holds, so both streams refill at least twice.
        config = ProtocolConfig(c=0.6, n_pairs=64, max_restarts=400, detection_policy=policy)
        detecting = per_cm_detection_oracle(strategy_from_name(name, beta2)) > 0.0
        reads = value_tables(strategy_from_name(name, beta2)).reads
        for seed in range(2):
            _, rng, eve_rng = assert_equals_replay(config, name, beta2, seed)
            if detecting and policy == REINITIALIZE:
                # After the two messages and the first block; a value that
                # reads none of Eve's uniforms draws no block of hers.
                assert refilled(rng, 2) >= 2, seed
                assert refilled(eve_rng, 0) >= 2 if reads else eve_rng.sizes == [], seed

    @pytest.mark.parametrize("policy", DETECTION_POLICIES)
    @pytest.mark.parametrize("name, beta2", STRATEGY_VALUES)
    def test_block_used_exactly(self, name, beta2, policy):
        # A dialogue that reads a protocol block to the last uniform: a
        # control run that starts with 3 left, which refills nothing, so
        # the next run refills from an empty tail. The blocks a dialogue
        # sizes itself hold a multiple of 3 past both messages' runs, so
        # only a pass with more control runs than they allow for meets
        # this; a first block of 5 uniforms meets it after a message run.
        config, engine = ProtocolConfig(c=0.1, n_pairs=3, max_restarts=3, detection_policy=policy), small_first(5)
        for seed in range(2000):
            result, rng, _ = sample(config, name, beta2, seed, engine)
            rows, ends = result.transcript.rows, set(np.cumsum(rng.sizes[2:]).tolist())
            starts = np.cumsum([0] + [2 + row[2] for row in rows[:-1]]).tolist()  # each run's first uniform
            if any(row[2] and start + 3 in ends for row, start in zip(rows, starts)):
                break
        else:
            pytest.fail("no dialogue used its protocol block exactly")
        assert_equals_replay(config, name, beta2, seed, engine)

    @pytest.mark.parametrize("policy", DETECTION_POLICIES)
    @pytest.mark.parametrize("name, beta2", UNDETECTED_VALUES)
    def test_a_long_pass_refills(self, name, beta2, policy):
        # An undetected value's first blocks hold a completing pass whose
        # control runs reach their mean plus two deviations. With nine
        # control runs in ten and one message pair, some seed's pass runs
        # longer and refills the protocol's block, and Eve's where the
        # value picks (a value that only guesses reads one of hers a pass).
        config = ProtocolConfig(c=0.9, n_pairs=1, max_restarts=3, detection_policy=policy)
        picks = value_tables(strategy_from_name(name, beta2)).picks
        for seed in range(1000):
            _, rng, eve_rng = sample(config, name, beta2, seed)
            if refilled(rng, 2) and (refilled(eve_rng, 0) or not picks):
                break
        else:
            pytest.fail("no pass outran its first block")
        assert_equals_replay(config, name, beta2, seed)

    def test_eve_block_used_exactly(self):
        config = ProtocolConfig(c=0.5, n_pairs=2, max_restarts=3, detection_policy=REINITIALIZE)
        for seed in range(400):
            result, _, eve_rng = sample(config, "disturb-pauli-4", None, seed)
            if sum(eve_rng.sizes) == result.draws[1]:
                break
        else:
            pytest.fail("no dialogue used Eve's block exactly")
        assert_equals_replay(config, "disturb-pauli-4", None, seed)

    def test_an_empty_first_block_refills(self):
        # A strategy whose first path makes no pick and whose readout pins
        # every guess gets an empty first block of Eve's uniforms; its
        # other paths pick, so the first refill draws from nothing.
        config = ProtocolConfig(c=0.5, n_pairs=8)
        for seed in range(5):
            result, _, eve_rng = assert_equals_replay(config, UnevenPicks(), None, seed)
            assert eve_rng.sizes[0] == 0 and result.draws[1] > 0

    @pytest.mark.parametrize("policy", DETECTION_POLICIES)
    @pytest.mark.parametrize("name, beta2", STRATEGY_VALUES)
    def test_an_empty_first_protocol_block_moves_no_uniform(self, name, beta2, policy):
        # The first refill draws 3 uniforms, all a run can read, so an
        # empty first block gives the rows, counts and draws of a sized one.
        config = ProtocolConfig(c=0.5, n_pairs=2, max_restarts=2, detection_policy=policy)
        strategy = strategy_from_name(name, beta2)
        for seed in range(200):
            seen = []
            for first in (([], []), None):
                rng, eve_rng = np.random.default_rng(seed), np.random.default_rng(seed + 1000)
                msgs = [random_message(config.n_pairs, rng) for _ in range(2)]
                result = run_dialogue(config, *msgs, strategy, rng, eve_rng, first=first)
                seen.append((result.transcript.rows, result.counts, result.draws))
            assert seen[0] == seen[1], seed

    def test_sure_picks_made_by_some_codes_only_are_walked(self):
        # Runs that pass different numbers of sure picks cannot count them
        # as ``picks`` a run, so such a value is sampled as one that reads.
        config = ProtocolConfig(c=0.5, n_pairs=8)
        assert value_tables(UnevenSurePicks()).reads
        for seed in range(5):
            result, _, _ = assert_equals_replay(config, UnevenSurePicks(), None, seed)
            assert 0 < result.draws[1] < len(result.transcript.rows), seed

    @pytest.mark.parametrize("policy", DETECTION_POLICIES)
    @pytest.mark.parametrize("name", ["intercept-resend-literal", "intercept-resend-blind"])
    def test_a_value_that_reads_none_of_eves_uniforms_draws_no_block(self, name, policy):
        # Every pick is sure and every guess stored, so no block of Eve's
        # stream is drawn, and None will do for it; ``draws`` still counts
        # the uniform the replay moves past at each run's pick.
        config = ProtocolConfig(c=0.5, n_pairs=8, max_restarts=3, detection_policy=policy)
        for seed in range(20):
            result, _, eve_rng = assert_equals_replay(config, name, None, seed)
            assert eve_rng.sizes == [] and result.draws[1] == len(result.transcript.rows), seed
            rng = recorder(seed)
            msgs = [random_message(config.n_pairs, rng) for _ in range(2)]
            alone = run_dialogue(config, *msgs, strategy_from_name(name), rng, None)
            assert alone.transcript == result.transcript and alone.draws == result.draws, seed

    @pytest.mark.parametrize("policy", DETECTION_POLICIES)
    @pytest.mark.parametrize("name, beta2", STRATEGY_VALUES)
    def test_failed_check(self, name, beta2, policy):
        # A dialogue that a failed control run stops or restarts;
        # strategies Bob cannot detect have none.
        config = ProtocolConfig(c=0.5, n_pairs=8, max_restarts=3, detection_policy=policy)
        detecting = per_cm_detection_oracle(strategy_from_name(name, beta2)) > 0.0
        for seed in range(200):
            result, _, _ = sample(config, name, beta2, seed)
            if any(cm_pass(run) is False for run in run_records(result.transcript)):
                assert_equals_replay(config, name, beta2, seed)
                break
        else:
            assert not detecting, "no dialogue failed a control check"
            assert_equals_replay(config, name, beta2, 0)

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64])
    def test_any_generator_gives_the_replays_rows_and_draws(self, bit_generator):
        # Nothing is rewound, so any numpy Generator will do.
        config = ProtocolConfig(c=0.5, n_pairs=4, max_restarts=3, detection_policy=REINITIALIZE)
        for seed in range(20):
            seen = []
            for engine in (run_dialogue, reference_dialogue):
                rng = np.random.Generator(bit_generator(seed))
                msgs = [random_message(4, rng) for _ in range(2)]
                result = engine(config, *msgs, strategy_from_name("disturb-pauli-4"), rng, *rng.spawn(1))
                seen.append((transcript_dict(result.transcript), result.eve.logs, result.draws))
            assert seen[0] == seen[1], seed


class TestFirstBlocks:
    # A first block sized from the config holds what a typical dialogue
    # reads, so few dialogues refill either stream: at these seeds, 2.5%
    # of the honest-long config's, 2.5% of intercept-pool's and 5.75% of
    # the probe sweep's 0.2 point's. A smaller first block fails here, not
    # only as a slower benchmark (the old ``n_pairs + 12`` refills most).
    REFILL_SHARE = 0.1

    @pytest.mark.parametrize("config, point_key", [
        (ExperimentConfig(attack="none", c=0.5, n_pairs=64, master_seed=1), ()),
        (ExperimentConfig(attack="intercept-resend-literal", c=0.5, n_pairs=32, master_seed=1), ()),
        (ExperimentConfig(attack="entangle-measure", beta2=0.2, c=0.5, n_pairs=2,
                          detection_policy=REINITIALIZE, max_restarts=2, master_seed=1), (3,)),
    ], ids=["honest-long", "intercept-pool", "probe-sweep-short-0.2"])
    def test_few_dialogues_refill(self, monkeypatch, config, point_key):
        refills = chunk_refills(monkeypatch, config, point_key)
        assert len(refills) == 400 and sum(map(any, refills)) / 400 < self.REFILL_SHARE

    @pytest.mark.parametrize("config", [
        ProtocolConfig(c=0.9999999, n_pairs=16),
        ProtocolConfig(c=0.9999999, n_pairs=16, max_restarts=3, detection_policy=REINITIALIZE),
        ProtocolConfig(c=0.5, n_pairs=100_000),
    ], ids=["c-near-1", "c-near-1-reinitialize", "many-pairs"])
    def test_passes_bob_stops_soon_get_short_first_blocks(self, config):
        # A completing pass here reads hundreds of thousands of uniforms or
        # more, but Bob stops each pass of a detected value within a few
        # runs, so its first blocks hold a few dozen (the bound on its runs
        # in ``protocol._first_blocks``), and none completes. Eve's first
        # block is bounded where her stream is read (disturb-pauli-4) and
        # not drawn where it is not (intercept-resend-blind).
        for seed in range(3):
            result, rng, eve_rng = assert_equals_replay(config, "intercept-resend-blind", None, seed)
            assert rng.sizes[2] <= 64 and eve_rng.sizes == [], seed
            assert result.transcript.final_status != COMPLETED
            result, rng, eve_rng = assert_equals_replay(config, "disturb-pauli-4", None, seed)
            assert rng.sizes[2] <= 64 and eve_rng.sizes[0] <= 64, seed
            assert result.transcript.final_status != COMPLETED

    def test_the_console_refill_run_refills_both_streams(self, monkeypatch):
        # The console-script check's long verbose run: a detecting attack
        # restarts up to 400 times, so every dialogue refills each stream
        # at least twice.
        config = ExperimentConfig(attack="disturb-pauli-4", c=0.5, n_pairs=48, trials=20, master_seed=1,
                                  detection_policy=REINITIALIZE, max_restarts=400, verbose=True)
        refills = chunk_refills(monkeypatch, config, trials=config.trials)
        assert len(refills) == 20 and all(min(counts) >= 2 for counts in refills), refills


class TestThresholdDraws:
    @pytest.mark.parametrize("probs", LAWS.values(), ids=LAWS.keys())
    def test_draw_equals_choose_on_one_stream(self, probs):
        live, loop, table = (np.random.default_rng(3) for _ in range(3))
        cum = cumulative(probs)
        drawn = [cut(cum, table.random()) for _ in range(400)]
        assert drawn == [choose(probs, live) for _ in range(400)]
        assert drawn == [per_draw_choose(probs, loop) for _ in range(400)]
        assert table.bit_generator.state == live.bit_generator.state == loop.bit_generator.state
        assert all(probs[i] >= PROB_FLOOR for i in drawn)

    @pytest.mark.parametrize("probs", LAWS.values(), ids=LAWS.keys())
    def test_consumes_exactly_one_uniform(self, probs):
        # A law with one kept outcome still consumes its uniform.
        rng, plain = np.random.default_rng(4), np.random.default_rng(4)
        cut(cumulative(probs), rng.random())
        plain.random()
        assert rng.bit_generator.state == plain.bit_generator.state

    def test_thresholds_are_cleaned_running_sums(self):
        # Each running sum's outcome, then the last kept one again.
        assert cumulative(LAWS["floor-first-and-last"]) == (1.0, (0.375, 1.0), (1, 2, 2))

    @pytest.mark.parametrize("probs", LAWS.values(), ids=LAWS.keys())
    def test_uniform_at_the_top_returns_the_last_kept_index(self, probs):
        rng = ScriptedRng([1.0])
        last = max(i for i, p in enumerate(probs) if p >= PROB_FLOOR)
        assert cut(cumulative(probs), rng.random()) == last
        assert rng.calls == [None]
        assert per_draw_choose(probs, ScriptedRng([1.0])) == last

    @pytest.mark.parametrize("name, beta2", TABLE_VALUES)
    def test_bisected_cut_equals_the_linear_scan_at_every_stored_threshold(self, name, beta2):
        # At each running sum of every pick and Bell law a run table
        # stores (``threshold_uniforms``).
        laws, exact_hits = [], 0
        for table in value_tables(strategy_from_name(name, beta2)).by_pair.values():
            stack = [table.tree]
            while stack:
                node = stack.pop()
                if type(node) is Branch:
                    laws.append(node.cum)
                    stack += [child for child in node.children if child is not None]
                else:
                    laws.append(node.bell_cum)
        for cum in laws:
            us, hits = threshold_uniforms(cum)
            exact_hits += hits
            for u in us:
                assert cut(cum, u) == scan_cut(cum, u), (cum, u)
        assert laws and exact_hits

    @pytest.mark.parametrize("name, beta2", TABLE_VALUES)
    def test_sampler_takes_cuts_child_and_outcome_at_every_stored_threshold(self, name, beta2):
        # Each one-run dialogue below reaches one pick or leaf of a tree by
        # uniforms inside each child's interval in turn, then gives that
        # law one of its ``threshold_uniforms``, where a random uniform
        # almost never lands: the leaf the run took and Bob's outcome must
        # be those ``cut`` gives.
        strategy = strategy_from_name(name, beta2)
        config, pad = ProtocolConfig(c=0.5, n_pairs=1), [0.0] * 64
        tables = value_tables(strategy)

        def take(bob, alice, eve_us, bell_u):
            result = run_dialogue(config, [alice], [bob], strategy, ScriptedRng([0.75, bell_u] + pad),
                                  ScriptedRng(eve_us + pad), tables)
            (row,) = result.transcript.rows
            node, us = tables.by_pair[ALL_CODES[bob], ALL_CODES[alice]].tree, iter(eve_us + pad)
            while type(node) is Branch:
                node = node.children[cut(node.cum, next(us))]
            assert (row[6], row[5]) == (node, cut(node.bell_cum, bell_u)), (bob, alice, eve_us, bell_u)

        for bob, alice in np.ndindex(4, 4):
            stack = [(tables.by_pair[ALL_CODES[bob], ALL_CODES[alice]].tree, [])]
            while stack:
                node, prefix = stack.pop()
                if type(node) is Branch:
                    for u in threshold_uniforms(node.cum)[0]:
                        take(bob, alice, prefix + [u], 0.5)
                    total, sums, _ = node.cum
                    for lo, hi in zip((0.0, *sums), sums):
                        u = (lo + hi) / 2 / total
                        stack.append((node.children[cut(node.cum, u)], prefix + [u]))
                else:
                    for u in threshold_uniforms(node.bell_cum)[0]:
                        take(bob, alice, prefix, u)

    @pytest.mark.parametrize("probs", [(0.0, 0.0), (PROB_FLOOR / 2, 1e-15, 0.0)])
    def test_all_zero_law_raises(self, probs):
        with pytest.raises(ValueError, match="no outcome has positive probability"):
            cumulative(probs)
        with pytest.raises(ValueError, match="no outcome has positive probability"):
            choose(probs, np.random.default_rng(0))
