"""Tests for the eavesdropping strategies and their detection footprints."""

import json
import math

import numpy as np
import pytest

from qdialogue import attacks
from qdialogue.analysis import (
    Tally,
    TrialReport,
    guess_accuracy_oracle,
    per_cm_detection_oracle,
)
from qdialogue.attacks import (
    AttackStrategy,
    DisturbPauli4,
    EntangleMeasure,
    InterceptResendBlind,
    InterceptResendLiteral,
    NoAttack,
    STRATEGY_NAMES,
    strategy_from_name,
)
from qdialogue.protocol import (
    MM,
    Channel,
    ProtocolConfig,
    random_message,
    run_dialogue,
    value_tables,
)
from qdialogue.quantum import (
    ALL_CODES,
    BitPair,
    apply_pauli,
    bell_outcome_probs,
    bell_state,
)
from reference import encode, project_z, reduced_density, reference_run_law, transcript_dict

# Hand-derived per-control-run detection rates. Measuring the travel
# qubit of a coded pair flips both outcome bits half the time; the
# phase-flip coin does the same; a uniform Pauli passes only on the
# identity draw; blind interception leaves Bob's pair untouched so the
# check passes only when Alice drew (0,0); literal interception
# reproduces the honest state exactly; the probe trips with its excited
# weight.
HAND_RATES = {
    "none": 0.0,
    "disturb-measure": 0.5,
    "disturb-pauli-z": 0.5,
    "disturb-pauli-4": 0.75,
    "intercept-resend-blind": 0.75,
    "intercept-resend-literal": 0.0,
}

# Hand-derived per-pair guess accuracies on message runs, (Alice, Bob).
# Interception reads Alice's code off Eve's own pair; Bob's pair is the
# broadcast XOR that code, right only when the forwarded qubit carried
# Alice's code (literal) or when Alice drew (0,0) (blind). Every other
# strategy holds no readout and guesses uniformly.
HAND_ACCURACIES = {
    "none": (0.25, 0.25),
    "disturb-measure": (0.25, 0.25),
    "disturb-pauli-z": (0.25, 0.25),
    "disturb-pauli-4": (0.25, 0.25),
    "intercept-resend-literal": (1.0, 1.0),
    "intercept-resend-blind": (1.0, 0.25),
    "entangle-measure": (0.25, 0.25),
}


def run_short_dialogue(strategy):
    rng = np.random.default_rng(0)
    msgs = [random_message(2, rng) for _ in range(2)]
    return run_dialogue(ProtocolConfig(c=0.5, n_pairs=2), *msgs, strategy, rng, *rng.spawn(1))


def registered_strategies():
    return [strategy_from_name(n, 0.25 if n == "entangle-measure" else None) for n in STRATEGY_NAMES]


class TestRegistry:
    def test_all_names_constructible(self):
        for name in STRATEGY_NAMES:
            beta2 = 0.25 if name == "entangle-measure" else None
            assert strategy_from_name(name, beta2).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown attack"):
            strategy_from_name("teleport")

    def test_beta2_required_for_probe(self):
        with pytest.raises(ValueError, match="requires beta2"):
            strategy_from_name("entangle-measure")

    def test_beta2_rejected_elsewhere(self):
        with pytest.raises(ValueError, match="only applies"):
            strategy_from_name("none", 0.1)

    def test_a_nameless_strategy_is_not_registered(self):
        class Forgot(AttackStrategy):
            pass

        assert not hasattr(Forgot, "name")
        with pytest.raises(TypeError, match="Forgot needs a name of its own, not None"):
            attacks._registry(NoAttack, Forgot)

    def test_an_inherited_name_is_not_its_own(self):
        class Pauli4Again(DisturbPauli4):
            claim = 0.5

        with pytest.raises(TypeError, match="Pauli4Again needs a name of its own, not None"):
            attacks._registry(DisturbPauli4, Pauli4Again)

    def test_a_repeated_name_is_not_registered(self):
        class Impostor(AttackStrategy):
            name = "none"

        with pytest.raises(TypeError, match="Impostor needs a name of its own, not 'none'"):
            attacks._registry(NoAttack, Impostor)
        assert attacks.STRATEGIES["none"] is NoAttack

    @pytest.mark.parametrize("beta2", [-0.1, 0.6, 1.0])
    def test_probe_weight_range(self, beta2):
        with pytest.raises(ValueError, match="beta2"):
            EntangleMeasure(beta2)


class TestOracle:
    def test_matches_hand_rates_exactly(self):
        for name, expected in HAND_RATES.items():
            got = per_cm_detection_oracle(strategy_from_name(name))
            assert got == pytest.approx(expected, abs=1e-12), name

    @pytest.mark.parametrize("beta2", [0.0, 0.1, 0.25, 0.5])
    def test_probe_rate_is_its_weight(self, beta2):
        got = per_cm_detection_oracle(EntangleMeasure(beta2))
        assert got == pytest.approx(beta2, abs=1e-12)

    def test_pass_through_classes_are_the_honest_channel(self):
        assert per_cm_detection_oracle(AttackStrategy()) == 0.0
        assert per_cm_detection_oracle(NoAttack()) == 0.0

    def test_unregistered_subclass_is_replayed(self):
        class FlipOnPong(AttackStrategy):
            name = "flip-on-pong"

            def on_pong(self, channel):
                return ((1.0, encode(channel, BitPair(0, 1)), {}),)

        assert "flip-on-pong" not in STRATEGY_NAMES
        assert per_cm_detection_oracle(FlipOnPong()) == pytest.approx(1.0, abs=1e-12)
        assert guess_accuracy_oracle(FlipOnPong()) == pytest.approx((0.25, 0.25), abs=1e-12)

    def test_a_tap_with_the_old_signature_raises(self):
        # A tap takes the channel alone and returns its alternatives; one
        # written to draw from a stream it is handed cannot be built.
        class RawCoin(AttackStrategy):
            name = "raw-coin"

            def on_pong(self, channel, session, rng):
                if rng.random() < 0.5:
                    channel.state = apply_pauli(channel.state, channel.traveling, BitPair(1, 1))

        with pytest.raises(TypeError, match="on_pong"):
            per_cm_detection_oracle(RawCoin())
        with pytest.raises(TypeError, match="on_pong"):
            run_short_dialogue(RawCoin())

    def test_unnormalized_branch_weights_raise(self):
        class LoadedCoin(AttackStrategy):
            name = "loaded-coin"

            def on_pong(self, channel):
                return tuple(
                    (weight, encode(channel, code), {})
                    for weight, code in ((1.0, BitPair(1, 1)), (3.0, BitPair(0, 0)))
                )

        with pytest.raises(ValueError, match="sum to 1"):
            per_cm_detection_oracle(LoadedCoin())
        with pytest.raises(ValueError, match="sum to 1"):
            run_short_dialogue(LoadedCoin())

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_oracle_equals_a_fresh_branch_walk(self, name):
        # To the last bit, for every beta2 on the probe's 0.05 grid.
        grid = [k / 20 for k in range(11)] if name == "entangle-measure" else [None]
        for beta2 in grid:
            expected = reference_run_law(strategy_from_name(name, beta2))
            assert per_cm_detection_oracle(strategy_from_name(name, beta2)) == expected[0], beta2
            assert guess_accuracy_oracle(strategy_from_name(name, beta2)) == expected[1:], beta2

    @pytest.mark.parametrize("strategy", registered_strategies(), ids=STRATEGY_NAMES)
    def test_branch_weights_sum_to_one(self, strategy):
        for bob in ALL_CODES:
            for alice in ALL_CODES:
                total = sum(leaf.weight for leaf in value_tables(strategy).by_pair[bob, alice].leaves)
                assert total == pytest.approx(1.0, abs=1e-12), (bob, alice)

    @pytest.mark.parametrize("strategy", registered_strategies(), ids=STRATEGY_NAMES)
    def test_derived_accuracies_match_hand_table(self, strategy):
        expected = HAND_ACCURACIES[strategy.name]
        assert guess_accuracy_oracle(strategy) == pytest.approx(expected, abs=1e-12)


def only(alternatives):
    """The channel and fields of a tap that makes no pick."""
    [(prob, channel, fields)] = alternatives
    assert prob == 1.0
    return channel, fields


def plain(alternatives):
    """Alternatives as comparable values, each state by its amplitude bytes."""
    return [
        (prob, channel.traveling, channel.state and channel.state.amps.tobytes(), fields)
        for prob, channel, fields in alternatives
    ]


def pong_branches(strategy, bob, alice):
    """The pong tap's alternatives after a ping tap that makes no pick."""
    channel, _ = only(strategy.on_ping(Channel(bell_state(bob), "t")))
    return strategy.on_pong(encode(channel, alice))


class TestPingTaps:
    def test_probe_with_zero_weight_leaves_pair_alone(self):
        channel, fields = only(EntangleMeasure(0.0).on_ping(Channel(bell_state(BitPair(1, 0)), "t")))
        assert fields == {}
        rho = reduced_density(channel.state, ["h", "t"]).matrix
        pair = bell_state(BitPair(1, 0)).amps
        np.testing.assert_allclose(rho, np.outer(pair, pair.conj()), atol=1e-12)

    def test_interception_swaps_the_entanglement(self):
        start = Channel(bell_state(BitPair(0, 0)), "t")
        channel, _ = only(InterceptResendLiteral().on_ping(start))
        assert channel.traveling == "T"
        # Alice's incoming qubit is maximally entangled with Eve's H ...
        pair = bell_state(BitPair(0, 0)).amps
        rho_eve = reduced_density(channel.state, ["H", "T"]).matrix
        np.testing.assert_allclose(rho_eve, np.outer(pair, pair.conj()), atol=1e-12)
        # ... and carries no correlation with Bob's home qubit.
        rho_cross = reduced_density(channel.state, ["h", "T"]).matrix
        np.testing.assert_allclose(rho_cross, np.eye(4) / 4, atol=1e-12)

    @pytest.mark.parametrize("strategy", registered_strategies(), ids=STRATEGY_NAMES)
    def test_taps_are_pure(self, strategy):
        # The same channel gives the same alternatives, bit for bit, and
        # is not written.
        start = Channel(bell_state(BitPair(1, 1)), "t")
        arrived, _ = only(strategy.on_ping(start))
        for tap, channel in ((strategy.on_ping, start), (strategy.on_pong, encode(arrived, BitPair(0, 1)))):
            snapshot = channel.state.amps.copy()
            assert plain(tap(channel)) == plain(tap(channel))
            np.testing.assert_array_equal(channel.state.amps, snapshot)


class TestPongTaps:
    @pytest.mark.parametrize("bob", ALL_CODES)
    @pytest.mark.parametrize("alice", ALL_CODES)
    def test_literal_interception_learns_alice_exactly_and_hides(self, bob, alice):
        branches = pong_branches(InterceptResendLiteral(), bob, alice)
        assert [fields for _, _, fields in branches] == [{"learned_alice": code} for code in ALL_CODES]
        [(prob, channel, fields)] = [branch for branch in branches if branch[0] > 0.0]
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert fields == {"learned_alice": alice}
        assert channel.traveling == "t"
        probs = bell_outcome_probs(channel.state, "h", "t")
        assert probs[alice ^ bob] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bob", ALL_CODES)
    @pytest.mark.parametrize("alice", ALL_CODES)
    def test_blind_interception_returns_bobs_own_code(self, bob, alice):
        [(_, channel, _)] = [b for b in pong_branches(InterceptResendBlind(), bob, alice) if b[0] > 0.0]
        probs = bell_outcome_probs(channel.state, "h", "t")
        assert probs[bob] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bob", ALL_CODES)
    @pytest.mark.parametrize("alice", ALL_CODES)
    def test_probe_branches(self, bob, alice):
        # excited readout flips the second outcome bit, quiet readout hides
        strategy = EntangleMeasure(0.25)
        channel, _ = only(strategy.on_ping(Channel(bell_state(bob), "t")))
        state = apply_pauli(channel.state, "t", alice)
        expected = alice ^ bob
        prob0, quiet = project_z(state, "e", 0)
        prob1, excited = project_z(state, "e", 1)
        assert prob0 == pytest.approx(0.75, abs=1e-12)
        assert prob1 == pytest.approx(0.25, abs=1e-12)
        assert bell_outcome_probs(quiet, "h", "t")[expected] == pytest.approx(1.0, abs=1e-12)
        flipped = expected ^ BitPair(0, 1)
        assert bell_outcome_probs(excited, "h", "t")[flipped] == pytest.approx(1.0, abs=1e-12)
        assert plain(pong_branches(strategy, bob, alice)) == [
            (prob0, "t", quiet.amps.tobytes(), {"ancilla_outcome": 0}),
            (prob1, "t", excited.amps.tobytes(), {"ancilla_outcome": 1}),
        ]


def collect_reports(attack, trials, n_pairs=8, c=0.5, seed_base=0, policy="terminal"):
    """Seeded dialogues folded, report by report, into one Tally."""
    config = ProtocolConfig(c=c, n_pairs=n_pairs, detection_policy=policy)

    def report(i):
        rng = np.random.default_rng((seed_base, i))
        alice = random_message(n_pairs, rng)
        bob = random_message(n_pairs, rng)
        result = run_dialogue(config, alice, bob, attack, rng, *rng.spawn(1))
        return TrialReport.from_dialogue(i, result, alice, bob, attack)

    return Tally.fold(map(report, range(trials)))


class TestEmpiricalDetectionRates:
    @pytest.mark.parametrize(
        "name,beta2",
        [
            ("disturb-measure", None),
            ("disturb-pauli-z", None),
            ("disturb-pauli-4", None),
            ("intercept-resend-blind", None),
            ("intercept-resend-literal", None),
            ("entangle-measure", 0.25),
        ],
    )
    def test_per_cm_rate_matches_oracle(self, name, beta2):
        strategy = strategy_from_name(name, beta2)
        expected = per_cm_detection_oracle(strategy)
        tally = collect_reports(strategy, trials=400, seed_base=sum(name.encode()))
        failures = tally.cm_failures
        cm_runs = tally.cm_runs
        assert cm_runs >= 500
        rate = failures / cm_runs
        stderr = math.sqrt(max(expected * (1 - expected), 0.25 / cm_runs) / cm_runs)
        assert rate == pytest.approx(expected, abs=max(3 * stderr, 1e-9))

    def test_no_attack_never_fails_control(self):
        tally = collect_reports(NoAttack(), trials=300, seed_base=77)
        assert tally.cm_failures == 0
        assert tally.completed == tally.trials == 300


class TestGuessing:
    def test_pure_guess_baseline(self):
        tally = collect_reports(NoAttack(), trials=400, seed_base=5)
        guesses = tally.eve_guesses
        assert guesses >= 2000
        for hits in (tally.eve_alice_hits, tally.eve_bob_hits):
            stderr = math.sqrt(0.25 * 0.75 / guesses)
            assert hits / guesses == pytest.approx(0.25, abs=3 * stderr)

    def test_literal_interception_reads_everything(self):
        tally = collect_reports(InterceptResendLiteral(), trials=120, seed_base=6)
        guesses = tally.eve_guesses
        assert guesses > 0
        assert tally.eve_alice_hits == guesses
        assert tally.eve_bob_hits == guesses

    def test_blind_interception_reads_alice_only(self):
        tally = collect_reports(InterceptResendBlind(), trials=600, seed_base=8)
        guesses = tally.eve_guesses
        assert guesses >= 300
        assert tally.eve_alice_hits == guesses
        bob_rate = tally.eve_bob_hits / guesses
        stderr = math.sqrt(0.25 * 0.75 / guesses)
        assert bob_rate == pytest.approx(0.25, abs=3 * stderr)

    def test_quiet_probe_learns_nothing(self):
        tally = collect_reports(EntangleMeasure(0.0), trials=400, seed_base=9)
        guesses = tally.eve_guesses
        stderr = math.sqrt(0.25 * 0.75 / guesses)
        assert tally.eve_alice_hits / guesses == pytest.approx(
            0.25, abs=3 * stderr
        )

    def test_record_contents(self):
        rng = np.random.default_rng(10)
        config = ProtocolConfig(c=0.5, n_pairs=6)
        alice = random_message(6, rng)
        bob = random_message(6, rng)
        result = run_dialogue(config, alice, bob, EntangleMeasure(0.25), rng, *rng.spawn(1))
        record = result.eve
        assert len(record.logs) == len(result.transcript.runs)
        for log, run in zip(record.logs, result.transcript.runs):
            assert log.ancilla_outcome in (0, 1)
            if run.mode == MM:
                assert log.alice_guess is not None
            else:
                assert log.alice_guess is None


class TestStrategyIsolation:
    def test_invisible_drawing_taps_equal_no_attack_transcript(self):
        # Literal interception Bell-measures Eve's pair on every run, yet
        # returns Bob the honest state, and it draws only from its own
        # stream: the transcript is the honest channel's, byte for byte.
        config = ProtocolConfig(c=0.5, n_pairs=16)
        outs = []
        for attack in (NoAttack(), InterceptResendLiteral()):
            rng = np.random.default_rng(2718)
            alice = random_message(16, rng)
            bob = random_message(16, rng)
            result = run_dialogue(config, alice, bob, attack, rng, *rng.spawn(1))
            outs.append(json.dumps(transcript_dict(result.transcript), sort_keys=True))
        assert len(result.eve.logs) == len(result.transcript.runs)
        assert all(log.learned_alice is not None for log in result.eve.logs)
        assert outs[0] == outs[1]
