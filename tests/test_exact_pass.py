"""Dialogues no control run can fail, read as one completing pass.

Where a strategy value is ``ValueTables.exact`` and the caller keeps no
rows (``run_dialogue``'s ``keep_rows``, which ``harness.run_trial``
always clears), the dialogue's runs are counted off the mode cells by
``match`` calls of one regular expression and Eve's guesses scored with
array ops, its blocks cut into cells (``block_cuts``). On the same
streams that must give the per-run loop's ``counts`` (all but the
message-run outcomes, which the one pass leaves None), decoded report
and ``draws``, and no other value may take that path. Its block sizes
and stream end states are not compared: the one pass keeps its block
whole, extends it only where a match meets its end, and tops Eve's up
once. A value no control run can fail whose pure guesses lie between
her picks' uniforms (the probe at beta2 = 0) is not exact. Every other
value runs the per-run loop whether rows are kept or not, and gives the
same either way, block sizes and stream end states too.
"""

import signal
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdialogue import harness
from qdialogue.analysis import TrialReport
from qdialogue.attacks import AttackStrategy, EveRunLog, strategy_from_name
from qdialogue.harness import ExperimentConfig
from qdialogue.protocol import (DETECTION_POLICIES, WALK, ProtocolConfig, block_cuts, first_blocks,
                                random_message, run_dialogue, value_tables)
from qdialogue.quantum import ALL_CODES, PROB_FLOOR, BitPair, bell_outcome_probs
from reference import STRATEGY_VALUES, path_shapes, run_paths, trial_uniforms
from test_generated_strategies import Composed, composed_steps

# Message half-lengths: one pair, a few, the benchmark's 64, and 700, whose
# messages and first block run past a trial's 2048-uniform region.
N_PAIRS = (1, 4, 64, 700)
# Half-lengths one short of, at and one past the message runs one ``match`` of the walk spans.
WALKS = (WALK - 1, WALK, WALK + 1)
# The values no control run can fail, and those of them read as one pass.
SURE = sorted({("none", None), ("intercept-resend-literal", None), ("entangle-measure", 0.0)}, key=str)
EXACT = {("none", None), ("intercept-resend-literal", None)}


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


def guesses_between_picks(strategy) -> bool:
    """Some path makes a pick and some leaf leaves a guess to a uniform, so Eve's guess cells do not lie at
    indices the walk over the mode cells alone can give."""
    picks, stored = path_shapes(value_tables(strategy))
    return max(picks) > 0 and False in stored


class Blocks:
    """A generator's ``random`` that logs the size of each block a dialogue draws."""

    def __init__(self, seed):
        self.gen, self.sizes = np.random.default_rng(seed), []

    def random(self, size):
        self.sizes.append(size)
        return self.gen.random(size)


def both_paths(config, strategy, seed, first=None, results=None):
    """One dialogue read with rows kept and with none kept, on the same streams: for each, its ``counts`` less
    the message-run outcomes, decoded report (which reads them) and ``draws``, then each stream's block sizes and
    end state unless the one pass read it; whether it was read as one pass (its outcomes are None); and the
    protocol stream's block sizes. ``results`` collects both.

    Given the sizes of ``first`` blocks, the caller draws them and cuts them and both messages as each engine
    reads them (``block_cuts``), as a chunk does; else ``run_dialogue`` draws them itself."""
    seen = []
    for keep_rows in (True, False):
        rng, eve_rng = Blocks(seed), Blocks(seed + 1)
        one_pass = bool(value_tables(strategy).exact) and not keep_rows and first is not None
        codes, pu_cut, eu_cut = block_cuts(config.c, one_pass)
        alice, bob = codes(rng.gen.random(config.n_pairs)), codes(rng.gen.random(config.n_pairs))
        blocks = None if first is None else (pu_cut(rng.random(first[0])), eu_cut(eve_rng.random(first[1])))
        result = run_dialogue(config, alice, bob, strategy, rng, eve_rng, None, blocks, keep_rows)
        if results is not None:
            results.append(result)
        blocks = rng.sizes, eve_rng.sizes, rng.gen.bit_generator.state, eve_rng.gen.bit_generator.state
        seen.append([(result.counts[:-1], TrialReport.from_dialogue(0, result, alice, bob, strategy, decode=True),
                      result.draws, blocks), result.counts[-1] is None, rng.sizes])
    if seen[1][1]:  # the one pass sizes its blocks by its own rule
        for side in seen:
            side[0] = side[0][:3]
    return seen


@pytest.mark.parametrize("name, beta2", STRATEGY_VALUES)
def test_the_exact_values_are_those_no_control_run_can_fail(name, beta2):
    strategy = strategy_from_name(name, beta2)
    assert no_control_run_fails(strategy) == ((name, beta2) in SURE)
    exact = no_control_run_fails(strategy) and not guesses_between_picks(strategy)
    assert bool(value_tables(strategy).exact) == ((name, beta2) in EXACT) == exact


@pytest.mark.parametrize("strategy", [UnevenSurePicks(), MixedGuesses()], ids=lambda s: s.name)
def test_sure_values_that_pick_or_guess_unevenly_are_not_exact(strategy):
    # Each tree is one path to a leaf sure of its codes' XOR, but the
    # picks or the stored guess cells differ between code pairs.
    tables = value_tables(strategy)
    assert tables.detection == 0.0 and not tables.exact and not no_control_run_fails(strategy)
    (loop, one_pass, _), (no_rows, also, _) = both_paths(ProtocolConfig(0.5, 16), strategy, 3)
    assert not one_pass and not also and loop == no_rows


@pytest.mark.parametrize("policy", DETECTION_POLICIES)
@pytest.mark.parametrize("n_pairs", N_PAIRS + WALKS)
@pytest.mark.parametrize("name, beta2", SURE)
def test_one_pass_equals_the_per_run_loop(name, beta2, n_pairs, policy):
    # Blocks drawn by the dialogue, and cut heads handed in at a chunk's
    # sizes. The probe at beta2 = 0 runs the per-run loop either way.
    strategy, config = strategy_from_name(name, beta2), ProtocolConfig(0.5, n_pairs, 2, policy)
    for seed in range(6):
        for first in (None, first_blocks(config, value_tables(strategy))):
            (loop, looped_once, _), (one_pass, read, _) = both_paths(config, strategy, seed, first)
            assert not looped_once and read == ((name, beta2) in EXACT) and one_pass == loop, (seed, first)


@pytest.mark.parametrize("n_pairs", N_PAIRS)
@pytest.mark.parametrize("name, beta2", SURE)
def test_a_chunks_one_passes_equal_the_per_run_loop_on_its_trial_streams(monkeypatch, name, beta2, n_pairs):
    # Each trial's one pass reads the heads its chunk cut (at 700 pairs
    # past the region, into its overflow); the per-run loop reads the same
    # trial's reference streams as floats, with rows kept. The probe at
    # beta2 = 0 runs the per-run loop on its chunk's float heads too.
    config = ExperimentConfig(attack=name, beta2=beta2, c=0.5, n_pairs=n_pairs, master_seed=5, verbose=True)
    results, raw = [], harness.run_dialogue
    monkeypatch.setattr(harness, "run_dialogue", lambda *args: results.append(raw(*args)) or results[-1])
    trials, strategy = range(3, 15), config.strategy()
    _, reports = harness._fold_trials(config, trials, (1,))
    for t, report, result in zip(trials, reports, results, strict=True):
        rng, eve_rng = trial_uniforms(config, t, (1,))
        alice, bob = random_message(n_pairs, rng), random_message(n_pairs, rng)
        loop = run_dialogue(config.protocol_config(), alice, bob, strategy, rng, eve_rng)
        assert (result.counts[-1] is None) == ((name, beta2) in EXACT) and loop.counts[-1] is not None, t
        assert report == TrialReport.from_dialogue(t, loop, alice, bob, strategy, decode=True), t
        assert result.draws == loop.draws, t


@pytest.mark.parametrize("first", [(0, 0), (1, 0), (1, 1), (2, 1), (3, 5)])
@pytest.mark.parametrize("c", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("name, beta2", SURE)
def test_small_first_blocks_refill_where_the_per_run_loop_does(name, beta2, c, first):
    # A first block of a few uniforms makes each stream refill several
    # times: the per-run loop's before each run that has fewer than 3
    # left, the one pass's wherever a match meets the block's end.
    strategy = strategy_from_name(name, beta2)
    for seed in range(8):
        (loop, _, sizes), (one_pass, read, _) = both_paths(ProtocolConfig(c, 24), strategy, seed, first)
        assert read == ((name, beta2) in EXACT) and one_pass == loop, seed
        assert len(sizes) > 2, sizes


@pytest.fixture
def deadline():
    """A walk that stops moving on loops for ever, so the test fails after 30 seconds instead of hanging."""

    def stop(signum, frame):
        raise TimeoutError("the one pass stopped moving")

    handler = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 30.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, handler)


@pytest.mark.parametrize("c", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n_pairs", (1, 2, 3, 24) + WALKS)
@pytest.mark.parametrize("name, beta2", SURE)
def test_the_walk_hands_off_at_every_block_end(deadline, name, beta2, n_pairs, c):
    # First blocks of every size up to past what a short pass reads put a
    # block's end under each mode cell, control-run pair and outcome of the
    # first runs, so a match fails there and is made again on the extended
    # block. A pass of ``WALKS`` runs also gets blocks that end within 3
    # cells of where its last match, or its first of two, ends.
    strategy, config = strategy_from_name(name, beta2), ProtocolConfig(c, n_pairs)
    for seed in range(3):
        sizes = range(2 * n_pairs + 9)
        if n_pairs in WALKS:
            results = []
            both_paths(config, strategy, seed, results=results)
            rows = results[0].transcript.rows
            ends = np.cumsum([2 + row[2] for row in rows])[[not row[2] for row in rows]]  # after each message run
            sizes = [*range(9), *(e + d for e in {ends[min(WALK, n_pairs) - 1], ends[-1]} for d in range(-3, 3))]
        for size in sizes:
            (loop, _, _), (one_pass, read, _) = both_paths(config, strategy, seed, (size, size))
            assert read == ((name, beta2) in EXACT) and one_pass == loop, (size, seed)


def test_a_long_one_pass_holds_little_memory():
    # Each match of the walk spans at most ``WALK`` message runs, which
    # bounds the regular expression engine's backtracking state: one match
    # over 20000 message runs would hold about 6 MB. The blocks are cut
    # and handed in, as a chunk hands them to its trials; the first holds
    # this pass, as a chunk's first blocks hold most.
    strategy, config = strategy_from_name("none"), ProtocolConfig(0.5, 20000)
    tables, (codes, pu_cut, eu_cut) = value_tables(strategy), block_cuts(0.5, True)
    rng, eve_rng = np.random.default_rng(1), np.random.default_rng(2)
    alice, bob = codes(rng.random(20000)), codes(rng.random(20000))
    pu_first, eu_first = first_blocks(config, tables)
    first = pu_cut(rng.random(pu_first)), eu_cut(eve_rng.random(eu_first))
    tracemalloc.start()
    try:
        result = run_dialogue(config, alice, bob, strategy, rng, eve_rng, tables, first, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.counts[-1] is None and result.counts[4] == 20000
    assert peak < 2**20, peak


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
        (kept, one_pass, _), (unkept, read, _) = both_paths(ProtocolConfig(0.5, 8, 2, policy), strategy, seed,
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
    beta2 = 0 with its ancilla read on the pong, or interception read out on the pong. No control run of such
    a value fails where every kept code is the identity and an interception's readout is retransformed; it is
    exact where, too, it is not the probe, whose pure guesses lie between its picks."""

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
    assert exact == (no_control_run_fails(strategy) and not guesses_between_picks(strategy))
    for policy in DETECTION_POLICIES:
        for n_pairs, seed in ((1, 0), (6, 1), (64, 2)):
            (loop, one_pass, _), (no_rows, read, _) = both_paths(ProtocolConfig(0.5, n_pairs, 2, policy), strategy,
                                                                 seed)
            assert not one_pass and read == exact and no_rows == loop
