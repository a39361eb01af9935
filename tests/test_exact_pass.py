"""Dialogues no control run can fail, read as one completing pass.

Where a strategy value is ``ValueTables.exact`` and the caller keeps no
rows (``run_dialogue``'s ``keep_rows``, which ``harness.run_trial``
always clears), the dialogue's runs are counted off the mode uniforms and
Eve's guesses read per message pair. On the same streams that must give
the per-run loop's ``counts`` (all but the message-run outcomes, which
the one pass leaves None), decoded report and ``draws``, with the same
refills of both streams, and no other value may take that path. Every
other value runs the per-run loop whether rows are kept or not, and
gives the same either way.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdialogue import harness
from qdialogue.analysis import TrialReport
from qdialogue.attacks import AttackStrategy, EveRunLog, strategy_from_name
from qdialogue.harness import ExperimentConfig
from qdialogue.protocol import DETECTION_POLICIES, ProtocolConfig, random_message, run_dialogue, value_tables
from qdialogue.quantum import ALL_CODES, PROB_FLOOR, BitPair, bell_outcome_probs
from reference import STRATEGY_VALUES, path_shapes, run_paths
from test_generated_strategies import Composed, composed_steps

# Message half-lengths: one pair, a few, the benchmark's 64, and 700, whose
# messages and first block run past a trial's 2048-uniform region.
N_PAIRS = (1, 4, 64, 700)
EXACT = {("none", None), ("intercept-resend-literal", None), ("entangle-measure", 0.0)}


class UnevenSurePicks(AttackStrategy):
    """Every pick sure and every guess stored, but only Bob's codes 01 and 10 make a pick."""

    name = "uneven-sure-picks"

    def on_ping(self, channel):
        if abs(channel.state.amps[0]) < 0.5:
            return ((1.0, channel, {}),)
        return ((1.0, channel, {}), (0.0, channel, {}))

    def readout(self, log, outcome):
        return BitPair(0, 0), BitPair(0, 0)


class MixedGuesses(AttackStrategy):
    """The honest channel, but a readout that pins both guesses unless the outcome is 00."""

    name = "mixed-guesses"

    def readout(self, log, outcome):
        return None if outcome == BitPair(0, 0) else (outcome, outcome)


def no_control_run_fails(strategy) -> bool:
    """Each code pair's run has one path, whose Bell law keeps only the codes' XOR, every path makes as
    many picks, and each leaf stores its guess cell for that outcome, or each leaves it to a uniform."""
    stored = set()
    for bob_code in ALL_CODES:
        for alice_code in ALL_CODES:
            paths = run_paths(strategy, bob_code, alice_code)
            if len(paths) != 1:
                return False
            (_, channel, fields), xor = paths[0], alice_code ^ bob_code
            probs = bell_outcome_probs(channel.state, "h", channel.traveling)
            if {code for code, p in probs.items() if p >= PROB_FLOOR} != {xor}:
                return False
            stored.add(strategy.readout(EveRunLog(**fields), xor) is not None)
    return len(path_shapes(value_tables(strategy))[0]) == 1 and len(stored) == 1


class Blocks:
    """A generator's ``random`` that logs the size of each block a dialogue draws."""

    def __init__(self, seed):
        self.gen, self.sizes = np.random.default_rng(seed), []

    def random(self, size):
        self.sizes.append(size)
        return self.gen.random(size)


def both_paths(config, strategy, seed, first=None, results=None):
    """One dialogue read with rows kept and with none kept, on the same streams: for each, its ``counts``
    less the message-run outcomes, decoded report (which reads them), ``draws`` and each stream's block sizes
    and end state, and whether it was read as one pass (its outcomes are None). ``results`` collects both."""
    seen = []
    for keep_rows in (True, False):
        rng, eve_rng = Blocks(seed), Blocks(seed + 1)
        alice, bob = random_message(config.n_pairs, rng.gen), random_message(config.n_pairs, rng.gen)
        blocks = None if first is None else (rng.random(first[0]).tolist(), eve_rng.random(first[1]).tolist())
        result = run_dialogue(config, alice, bob, strategy, rng, eve_rng, None, blocks, keep_rows)
        if results is not None:
            results.append(result)
        seen.append(((result.counts[:-1], TrialReport.from_dialogue(0, result, alice, bob, strategy, decode=True),
                      result.draws, rng.sizes, eve_rng.sizes, rng.gen.bit_generator.state,
                      eve_rng.gen.bit_generator.state), result.counts[-1] is None))
    return seen


@pytest.mark.parametrize("name, beta2", STRATEGY_VALUES)
def test_the_exact_values_are_those_no_control_run_can_fail(name, beta2):
    strategy = strategy_from_name(name, beta2)
    assert bool(value_tables(strategy).exact) == ((name, beta2) in EXACT) == no_control_run_fails(strategy)


@pytest.mark.parametrize("strategy", [UnevenSurePicks(), MixedGuesses()], ids=lambda s: s.name)
def test_sure_values_that_pick_or_guess_unevenly_are_not_exact(strategy):
    # Each tree is one path to a leaf sure of its codes' XOR, but the
    # picks or the stored guess cells differ between code pairs.
    tables = value_tables(strategy)
    assert tables.detection == 0.0 and not tables.exact and not no_control_run_fails(strategy)
    (loop, one_pass), (no_rows, also) = both_paths(ProtocolConfig(0.5, 16), strategy, 3)
    assert not one_pass and not also and loop == no_rows


@pytest.mark.parametrize("policy", DETECTION_POLICIES)
@pytest.mark.parametrize("n_pairs", N_PAIRS)
@pytest.mark.parametrize("name, beta2", sorted(EXACT, key=str))
def test_one_pass_equals_the_per_run_loop(name, beta2, n_pairs, policy):
    strategy, config = strategy_from_name(name, beta2), ProtocolConfig(0.5, n_pairs, 2, policy)
    for seed in range(6):
        (loop, looped_once), (one_pass, read) = both_paths(config, strategy, seed)
        assert not looped_once and read and one_pass == loop, seed


@pytest.mark.parametrize("first", [(0, 0), (1, 0), (2, 1), (3, 5)])
@pytest.mark.parametrize("c", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("name, beta2", sorted(EXACT, key=str))
def test_small_first_blocks_refill_where_the_per_run_loop_does(name, beta2, c, first):
    # A first block of a few uniforms makes each stream refill several
    # times, at each mode and control-run pair that passes a block's end.
    strategy = strategy_from_name(name, beta2)
    for seed in range(8):
        (loop, _), (one_pass, read) = both_paths(ProtocolConfig(c, 24), strategy, seed, first)
        assert read and one_pass == loop, seed
        assert len(loop[3]) > 2, loop[3]


@pytest.mark.parametrize("policy", DETECTION_POLICIES)
@pytest.mark.parametrize("name, beta2", STRATEGY_VALUES)
def test_rows_are_kept_only_where_asked(name, beta2, policy):
    # Keeping rows changes no count, decoded bit or uniform read, and only
    # an exact value without them takes the one pass. Without rows neither
    # the transcript nor Eve's session holds one, and her session builds
    # no log.
    strategy = strategy_from_name(name, beta2)
    for seed in range(4):
        results = []
        (kept, one_pass), (unkept, read) = both_paths(ProtocolConfig(0.5, 8, 2, policy), strategy, seed,
                                                      results=results)
        assert kept == unkept and not one_pass and read == ((name, beta2) in EXACT), seed
        kept_rows, none = results
        assert len(kept_rows.transcript.rows) == kept_rows.counts[0], seed
        assert kept_rows.eve.rows is kept_rows.transcript.rows, seed
        assert none.transcript.rows == none.eve.rows == none.eve.logs == [], seed


@pytest.mark.parametrize("policy", DETECTION_POLICIES)
@pytest.mark.parametrize("n_pairs", N_PAIRS)
@pytest.mark.parametrize("name, beta2", STRATEGY_VALUES)
def test_a_chunk_folds_alike_with_and_without_reports(name, beta2, n_pairs, policy):
    # ``keeps_reports`` chooses only whether reports are kept and decoded,
    # not the engine. Each trial's report, less its decoded bits, and the
    # chunk's Tally must not depend on it.
    plain = ExperimentConfig(attack=name, beta2=beta2, c=0.5, n_pairs=n_pairs, master_seed=5,
                             detection_policy=policy, max_restarts=2)
    verbose, trials = replace(plain, verbose=True), range(3, 3 + (12 if n_pairs > 64 else 40))
    tally, kept = harness._fold_trials(verbose, trials, (1,))
    assert harness._fold_trials(plain, trials, (1,)) == (tally, [])
    decoded = [replace(report, alice_decoded_bits=None, bob_decoded_bits=None) for report in kept]
    assert [harness.run_trial(plain, t, (1,)) for t in trials] == decoded



@st.composite
def sure_steps(draw) -> tuple[tuple, tuple]:
    """Composed steps whose every pick keeps one alternative: coins that keep one code, the probe at
    beta2 = 0 with its ancilla read on the pong, or interception read out on the pong. Such a value is
    exact where every kept code is the identity and an interception's readout is retransformed."""

    def coin():
        codes = draw(st.lists(st.sampled_from(ALL_CODES), min_size=2, max_size=3))
        return ("coin", tuple(codes), (1.0,) + (0.0,) * (len(codes) - 1))

    kind = draw(st.sampled_from(["coins", "probe", "intercept"]))
    if kind == "coins":
        return (coin(),), (coin(),)
    ping = (("probe", 0.0),) if kind == "probe" else (("intercept",),)
    ping += (coin(),) if draw(st.booleans()) else ()
    return ping, ((("z", "e"),) if kind == "probe" else (("bell", draw(st.booleans())),))


@settings(max_examples=100, deadline=None)
@given(composed_steps() | sure_steps())
@example(((("probe", 0.0),), (("z", "e"),)))
@example(((("intercept",),), (("bell", True),)))
@example(((("intercept",),), (("bell", False),)))
def test_a_generated_value_reads_one_pass_only_if_no_control_run_can_fail(steps):
    strategy = Composed(*steps)
    exact = bool(value_tables(strategy).exact)
    assert exact == no_control_run_fails(strategy)
    for policy in DETECTION_POLICIES:
        for n_pairs, seed in ((1, 0), (6, 1), (64, 2)):
            (loop, one_pass), (no_rows, read) = both_paths(ProtocolConfig(0.5, n_pairs, 2, policy), strategy, seed)
            assert not one_pass and read == exact and no_rows == loop
