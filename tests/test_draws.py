"""How the dialogue's own randomness is drawn.

Message pairs, control-run pairs and Eve's pure guesses are cut from
uniforms scaled by a power of two: pair ``ALL_CODES[int(u * 4.0)]`` (a
message keeps the index ``int(u * 4.0)`` itself) and guess cell ``k = int(u * 16.0)`` (Alice ``ALL_CODES[k >> 2]``, Bob
``ALL_CODES[k & 3]``). A scripted stream pins the cells at their edges
and the number of draws; final stream states pin how many uniforms
``run_dialogue`` uses from each of its two streams. Eve's picks and
Bob's outcome are cut from thresholds a run table keeps
(``cut(cumulative(p), rng.random())``), which must give ``choose(p, rng)``'s
index from the same single uniform, and the linear scan's index at and
beside every threshold a run table stores.
"""

import numpy as np
import pytest

from qdialogue.analysis import per_cm_detection_oracle
from qdialogue.attacks import STRATEGY_NAMES, EveRunLog, InterceptResendLiteral, NoAttack, strategy_from_name
from qdialogue.protocol import (
    CM,
    DETECTION_POLICIES,
    MM,
    REINITIALIZE,
    TERMINAL,
    Branch,
    ProtocolConfig,
    random_message,
    run_dialogue,
    run_tables,
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
    STRATEGY_VALUES,
    guess,
    pairs,
    per_draw_choose,
    random_pair,
    reference_dialogue,
    scan_cut,
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


def recorder(seed):
    return BlockRecorder(np.random.PCG64(np.random.SeedSequence(seed)))


def sample(config, name, beta2, seed, engine=run_dialogue):
    """One seeded dialogue: its result, and the protocol's and Eve's recorded streams."""
    rng = recorder(seed)
    msgs = [random_message(config.n_pairs, rng) for _ in range(2)]
    result = engine(config, *msgs, strategy_from_name(name, beta2), rng, *rng.spawn(1))
    (eve_rng,) = rng.children
    return result, rng, eve_rng


def assert_equals_replay(config, name, beta2, seed):
    """The sampler against the per-run replay: transcript, Eve's logs and both final stream states.

    Returns the sampler's two recorded streams.
    """
    seen, streams = [], []
    for engine in (run_dialogue, reference_dialogue):
        result, rng, eve_rng = sample(config, name, beta2, seed, engine)
        seen.append((
            result.transcript.to_dict(),
            result.eve.logs,
            rng.bit_generator.state,
            eve_rng.bit_generator.state,
        ))
        streams.append((rng, eve_rng))
    assert seen[0] == seen[1], seed
    return streams[0]


def rewound_nothing(stream, seed, child=False):
    """True when ``stream`` ends right after every uniform it drew.

    ``child`` reads the stream spawned off the seed's own.
    """
    fresh = np.random.PCG64(np.random.SeedSequence(seed))
    if child:
        (fresh,) = fresh.spawn(1)
    fresh.advance(sum(stream.sizes))
    return stream.bit_generator.state == fresh.state


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


class TestDialogueStreams:
    @pytest.mark.parametrize("attack", [NoAttack(), InterceptResendLiteral()])
    def test_dialogue_spawns_no_stream(self, attack):
        # Eve's stream is handed in, derived with the trial's.
        rng, eve_rng = recorder(5), recorder(6)
        msgs = [random_message(6, rng) for _ in range(2)]
        run_dialogue(ProtocolConfig(c=0.5, n_pairs=6), *msgs, attack, rng, eve_rng)
        assert rng.spawns == eve_rng.spawns == []
        assert rng.sizes[2:] and eve_rng.sizes

    def test_one_uniform_per_draw(self):
        # Per run the protocol uses the mode, a control run's pair and
        # Bob's Bell outcome; Eve uses one pure guess per message run.
        # Uniforms are drawn in blocks and the unused tail rewound, so
        # each stream must end where a fresh copy advanced by the
        # uniforms used ends.
        rng = recorder(8)
        msgs = [random_message(16, rng) for _ in range(2)]
        result = run_dialogue(ProtocolConfig(c=0.5, n_pairs=16), *msgs, NoAttack(), rng, *rng.spawn(1))
        runs = result.transcript.runs
        n_cm = sum(r.mode == CM for r in runs)
        n_mm = sum(r.mode == MM for r in runs)
        assert n_mm == result.eve.guess_count == 16
        fresh = np.random.PCG64(np.random.SeedSequence(8))
        (fresh_eve,) = fresh.spawn(1)
        fresh.advance(2 * 16 + 2 * len(runs) + n_cm)  # two messages, then the runs
        fresh_eve.advance(n_mm)
        (eve_rng,) = rng.children
        assert rng.bit_generator.state == fresh.state
        assert eve_rng.bit_generator.state == fresh_eve.state


class TestStreamEdges:
    # Blocks of uniforms are refilled when used up and their unused tail
    # is rewound. Each case compares the sampler with the per-run replay,
    # which draws one uniform per call, under both policies and every
    # registered strategy.

    @pytest.mark.parametrize("policy", DETECTION_POLICIES)
    @pytest.mark.parametrize("name, beta2", STRATEGY_VALUES)
    def test_refilled_blocks(self, name, beta2, policy):
        # Long dialogues: nine control runs in ten, up to 400 restarts.
        config = ProtocolConfig(c=0.9, n_pairs=64, max_restarts=400, detection_policy=policy)
        detecting = per_cm_detection_oracle(strategy_from_name(name, beta2)) > 0.0
        for seed in range(2):
            rng, eve_rng = assert_equals_replay(config, name, beta2, seed)
            # The two messages, then the first block and two refills.
            if not (detecting and policy == TERMINAL):
                assert len(rng.sizes) >= 5, seed
            if detecting and policy == REINITIALIZE:
                assert len(eve_rng.sizes) >= 3, seed

    @pytest.mark.parametrize("policy", DETECTION_POLICIES)
    @pytest.mark.parametrize("name, beta2", STRATEGY_VALUES)
    def test_block_used_exactly(self, name, beta2, policy):
        # A dialogue whose protocol stream ends at its block's last
        # uniform, so there is nothing to rewind there.
        config = ProtocolConfig(c=0.5, n_pairs=3, max_restarts=3, detection_policy=policy)
        for seed in range(2000):
            _, rng, _ = sample(config, name, beta2, seed)
            if rewound_nothing(rng, seed):
                break
        else:
            pytest.fail("no dialogue used its protocol block exactly")
        assert_equals_replay(config, name, beta2, seed)

    def test_eve_block_used_exactly(self):
        config = ProtocolConfig(c=0.5, n_pairs=2, max_restarts=3, detection_policy=REINITIALIZE)
        for seed in range(400):
            _, _, eve_rng = sample(config, "disturb-pauli-4", None, seed)
            if rewound_nothing(eve_rng, seed, child=True):
                break
        else:
            pytest.fail("no dialogue used Eve's block exactly")
        assert_equals_replay(config, "disturb-pauli-4", None, seed)

    @pytest.mark.parametrize("policy", DETECTION_POLICIES)
    @pytest.mark.parametrize("name, beta2", STRATEGY_VALUES)
    def test_failed_check(self, name, beta2, policy):
        # A dialogue that a failed control run stops or restarts;
        # strategies Bob cannot detect have none.
        config = ProtocolConfig(c=0.5, n_pairs=8, max_restarts=3, detection_policy=policy)
        detecting = per_cm_detection_oracle(strategy_from_name(name, beta2)) > 0.0
        for seed in range(200):
            result, _, _ = sample(config, name, beta2, seed)
            if any(run.cm_pass is False for run in result.transcript.runs):
                assert_equals_replay(config, name, beta2, seed)
                break
        else:
            assert not detecting, "no dialogue failed a control check"
            assert_equals_replay(config, name, beta2, 0)

    def test_generator_without_advance_raises_before_drawing(self):
        rng = np.random.Generator(np.random.MT19937(3))
        msgs = [random_message(4, rng) for _ in range(2)]
        before = rng.bit_generator.state["state"]
        with pytest.raises(TypeError, match="PCG64"):
            run_dialogue(ProtocolConfig(c=0.5, n_pairs=4), *msgs, NoAttack(), rng, *rng.spawn(1))
        after = rng.bit_generator.state["state"]
        assert np.array_equal(after["key"], before["key"]) and after["pos"] == before["pos"]


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
        # stores: the uniform whose ``u * total`` lands exactly on the sum
        # (where one exists), one ulp either side of it, 0 and the largest
        # double below 1.
        laws, exact_hits = [], 0
        for table in run_tables(strategy_from_name(name, beta2)).values():
            stack = [table.tree]
            while stack:
                node = stack.pop()
                if type(node) is Branch:
                    laws.append(node.cum)
                    stack += [child for child in node.children if child is not None]
                else:
                    laws.append(node.bell_cum)
        for cum in laws:
            total, sums, _ = cum
            us = [0.0, 1.0 - 2.0**-53]
            for acc in sums:
                down, up = np.nextafter(acc / total, 0.0), np.nextafter(acc / total, 1.0)
                near = [acc / total, down, up, np.nextafter(down, 0.0), np.nextafter(up, 1.0)]
                on_sum = [float(u) for u in near if u * total == acc]
                exact_hits += bool(on_sum)
                for u in on_sum or near[:1]:
                    us += [u, float(np.nextafter(u, 0.0)), float(np.nextafter(u, 1.0))]
            for u in us:
                if 0.0 <= u < 1.0:
                    assert cut(cum, u) == scan_cut(cum, u), (cum, u)
        assert laws and exact_hits

    @pytest.mark.parametrize("probs", [(0.0, 0.0), (PROB_FLOOR / 2, 1e-15, 0.0)])
    def test_all_zero_law_raises(self, probs):
        with pytest.raises(ValueError, match="no outcome has positive probability"):
            cumulative(probs)
        with pytest.raises(ValueError, match="no outcome has positive probability"):
            choose(probs, np.random.default_rng(0))
