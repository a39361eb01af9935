"""How the dialogue's own randomness is drawn.

Message pairs, control-run pairs and Eve's pure guesses are cut from
scalar uniforms scaled by a power of two: pair ``ALL_CODES[int(u * 4.0)]``
and guess cell ``k = int(u * 16.0)`` (Alice ``ALL_CODES[k >> 2]``, Bob
``ALL_CODES[k & 3]``). A scripted stream pins the cells at their edges
and the number of draws; a counting generator pins how ``run_dialogue``
splits its stream.
"""

import numpy as np
import pytest

from qdialogue.attacks import InterceptResendLiteral, NoAttack
from qdialogue.protocol import (
    CM,
    MM,
    ProtocolConfig,
    _random_pair,
    random_message,
    run_dialogue,
)
from qdialogue.quantum import ALL_CODES, BitPair

# Uniforms at the cell edges, with the quarter each falls in.
EDGES = [
    (0.0, 0),
    (float(np.nextafter(0.25, 0.0)), 0),
    (0.25, 1),
    (0.5, 2),
    (0.75, 3),
    (1.0 - 2.0**-53, 3),
]
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

    Anything else asked of it raises, as ``analysis._BranchWalker`` does,
    so a draw of another kind cannot pass unseen.
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


class CountingGenerator(np.random.Generator):
    """A real generator that counts its ``random`` and ``spawn`` calls; children count too."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.draws = 0
        self.spawns = []
        self.children = []

    def random(self, *args, **kwargs):
        self.draws += 1
        return super().random(*args, **kwargs)

    def spawn(self, n_children):
        self.spawns.append(n_children)
        children = [CountingGenerator(child.bit_generator) for child in super().spawn(n_children)]
        self.children.extend(children)
        return children


def counting_rng(seed):
    return CountingGenerator(np.random.PCG64(np.random.SeedSequence(seed)))


class TestScalarCells:
    @pytest.mark.parametrize("u, cell", EDGES)
    def test_control_pair_cell(self, u, cell):
        rng = ScriptedRng([u])
        assert _random_pair(rng) == ALL_CODES[cell]
        assert rng.calls == [None]

    def test_message_cells_from_one_vector_draw(self):
        rng = ScriptedRng([u for u, _ in EDGES])
        msg = random_message(len(EDGES), rng)
        assert msg == tuple(ALL_CODES[cell] for _, cell in EDGES)
        assert rng.calls == [len(EDGES)]

    def test_message_cut_equals_scalar_cut(self):
        # The vectorized cut of a message against the scalar one of a pair.
        us = [u for u, _ in EDGES] + np.random.default_rng(0).random(1000).tolist()
        msg = random_message(len(us), ScriptedRng(us))
        assert msg == tuple(_random_pair(ScriptedRng([u])) for u in us)

    def test_two_messages_draw_in_order(self):
        rng = ScriptedRng([0.0, 0.5, 0.75, 0.25])
        assert random_message(2, rng) == (ALL_CODES[0], ALL_CODES[2])
        assert random_message(2, rng) == (ALL_CODES[3], ALL_CODES[1])
        assert rng.calls == [2, 2]

    @pytest.mark.parametrize("u, k", GUESS_CELLS)
    def test_pure_guess_cell(self, u, k):
        strategy = NoAttack()
        session = strategy.new_session()
        strategy.begin_run(session)
        rng = ScriptedRng([u])
        guesses = strategy.guess(session, BitPair(0, 0), rng)
        assert guesses == (ALL_CODES[k >> 2], ALL_CODES[k & 3])
        assert (session.current.alice_guess, session.current.bob_guess) == guesses
        assert rng.calls == [None]

    def test_sixteen_guess_cells_are_the_sixteen_code_pairs(self):
        cells = set()
        for k in range(16):
            strategy = NoAttack()
            session = strategy.new_session()
            strategy.begin_run(session)
            cells.add(strategy.guess(session, BitPair(0, 0), ScriptedRng([k / 16])))
        assert cells == {(a, b) for a in ALL_CODES for b in ALL_CODES}

    def test_readout_guess_draws_nothing(self):
        strategy = InterceptResendLiteral()
        session = strategy.new_session()
        strategy.begin_run(session)
        session.current.learned_alice = BitPair(1, 0)
        rng = ScriptedRng([])
        assert strategy.guess(session, BitPair(1, 1), rng) == (BitPair(1, 0), BitPair(0, 1))
        assert rng.calls == []


class TestDialogueStreams:
    @pytest.mark.parametrize("attack", [NoAttack(), InterceptResendLiteral()])
    def test_one_spawn_per_dialogue(self, attack):
        rng = counting_rng(5)
        msgs = [random_message(6, rng) for _ in range(2)]
        run_dialogue(ProtocolConfig(c=0.5, n_pairs=6), *msgs, attack, rng)
        assert rng.spawns == [1]

    def test_one_uniform_per_draw(self):
        # Per run the protocol draws the mode, a control run's pair and
        # Bob's Bell outcome; Eve draws one pure guess per message run.
        rng = counting_rng(8)
        msgs = [random_message(16, rng) for _ in range(2)]
        assert rng.draws == 2
        result = run_dialogue(ProtocolConfig(c=0.5, n_pairs=16), *msgs, NoAttack(), rng)
        runs = result.transcript.runs
        n_cm = sum(r.mode == CM for r in runs)
        (eve_rng,) = rng.children
        assert rng.draws - 2 == 2 * len(runs) + n_cm
        assert eve_rng.draws == sum(r.mode == MM for r in runs) == 16
        assert result.eve.guess_count == 16
