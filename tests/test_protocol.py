"""Tests for messages and the dialogue state machine."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdialogue.analysis import per_cm_detection_oracle
from qdialogue.attacks import AttackStrategy, NoAttack
from qdialogue.protocol import (
    ABORTED,
    CM,
    COMPLETED,
    DETECTED,
    MM,
    Message,
    ProtocolConfig,
    cm_check,
    decode_counterpart,
    random_message,
    run_dialogue,
)
from qdialogue.quantum import (
    ALL_CODES,
    BitPair,
    apply_pauli,
    bell_outcome_probs,
    bell_state,
)
from reference import same_state


class TestMessage:
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=32))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, pairs):
        bits = [b for pair in pairs for b in pair]
        assert Message(tuple(BitPair(*p) for p in pairs)).to_bits() == bits

    def test_message_requires_a_pair(self):
        with pytest.raises(ValueError):
            Message(())


class TestDecodeAndCheck:
    def test_decode_example(self):
        assert decode_counterpart(BitPair(1, 0), BitPair(1, 1)) == BitPair(0, 1)

    def test_identity_code(self):
        assert decode_counterpart(BitPair(1, 0), BitPair(0, 0)) == BitPair(1, 0)

    def test_xor_involution(self):
        for outcome in ALL_CODES:
            for own in ALL_CODES:
                other = decode_counterpart(outcome, own)
                assert decode_counterpart(other, own) == outcome

    def test_cm_check_consistent_triple(self):
        assert cm_check(BitPair(1, 0), BitPair(1, 1), BitPair(0, 1))

    def test_cm_check_mismatch(self):
        assert not cm_check(BitPair(1, 0), BitPair(1, 1), BitPair(1, 1))

    def test_cm_check_exhaustive(self):
        for bob in ALL_CODES:
            for alice in ALL_CODES:
                for outcome in ALL_CODES:
                    assert cm_check(outcome, bob, alice) == (outcome == (alice ^ bob))


class TestEncoders:
    # Bob prepares bell_state(code); Alice applies her code to the travel qubit.

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_bob_prepare_is_coded_pair(self, code):
        state = bell_state(code)
        assert same_state(state, apply_pauli(bell_state(BitPair(0, 0)), "t", code), tol=1e-12)
        probs = bell_outcome_probs(state, "h", "t")
        assert probs[code] == pytest.approx(1.0, abs=1e-12)

    def test_alice_encode_identity(self):
        state = bell_state(BitPair(1, 1))
        np.testing.assert_array_equal(apply_pauli(state, "t", BitPair(0, 0)).amps, state.amps)

    def test_alice_encode_on_coded_pair(self):
        # the bit flip against the phase-coded pair lands on code (1,0)
        got = apply_pauli(bell_state(BitPair(1, 1)), "t", BitPair(0, 1))
        assert same_state(got, bell_state(BitPair(1, 0)), tol=1e-12)

    def test_alice_encode_all_sixteen_up_to_phase(self):
        for bob in ALL_CODES:
            for alice in ALL_CODES:
                got = apply_pauli(bell_state(bob), "t", alice)
                assert same_state(got, bell_state(alice ^ bob), tol=1e-12)


class TestProtocolConfig:
    def test_c_bounds(self):
        with pytest.raises(ValueError, match="strictly between"):
            ProtocolConfig(c=0.0, n_pairs=4)
        with pytest.raises(ValueError, match="strictly between"):
            ProtocolConfig(c=1.0, n_pairs=4)

    def test_policy_name_checked(self):
        with pytest.raises(ValueError, match="detection_policy"):
            ProtocolConfig(c=0.5, n_pairs=4, detection_policy="stop")


class FlipOnPong(AttackStrategy):
    """Bit-flips the returning qubit, so every control run fails (oracle rate 1)."""

    name = "flip-on-pong"

    def on_pong(self, channel, session, rng):
        channel.state = apply_pauli(channel.state, channel.traveling, BitPair(0, 1))


def pairs_for_a_control_run(c):
    """Half-length at which a pass ends before its first control run w.p. (1 - c)**N <= 2**-40."""
    return math.ceil(40 / -math.log2(1.0 - c))


def run_clean(n_pairs=8, c=0.5, seed=0, attack=NoAttack(), **kwargs):
    rng = np.random.default_rng(seed)
    alice = random_message(n_pairs, rng)
    bob = random_message(n_pairs, rng)
    config = ProtocolConfig(c=c, n_pairs=n_pairs, **kwargs)
    return alice, bob, run_dialogue(config, alice, bob, attack, rng)


class TestAttackFreeDialogue:
    @pytest.mark.parametrize("c", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_exchange(self, c, seed):
        alice, bob, result = run_clean(n_pairs=12, c=c, seed=seed, attack=NoAttack())
        assert result.transcript.final_status == COMPLETED
        assert result.alice_decoded.pairs == bob.pairs
        assert result.bob_decoded.pairs == alice.pairs

    def test_capacity(self):
        alice, bob, result = run_clean(n_pairs=16, seed=3)
        t = result.transcript
        assert t.n_mm == 16
        assert len(result.alice_decoded.to_bits()) == 32
        assert len(result.bob_decoded.to_bits()) == 32

    def test_counters_consistent(self):
        _, _, result = run_clean(n_pairs=10, seed=4)
        t = result.transcript
        assert t.n_total == t.n_mm + t.n_cm == len(t.runs)
        assert t.restart_count == 0

    def test_no_cm_failures(self):
        for seed in range(20):
            _, _, result = run_clean(n_pairs=8, seed=seed)
            failed, _ = result.transcript.cm_tally()
            assert failed == 0

    def test_message_cursor_advances_only_on_mm(self):
        _, _, result = run_clean(n_pairs=8, c=0.6, seed=5)
        cursor = 0
        for run in result.transcript.runs:
            assert run.index == cursor
            if run.mode == MM:
                cursor += 1

    def test_wire_indistinguishability(self):
        _, _, result = run_clean(n_pairs=pairs_for_a_control_run(0.5), c=0.5, seed=6)
        modes = set()
        for run in result.transcript.runs:
            assert run.announcements[0] == ("mode", run.mode)
            modes.add(run.mode)
        assert modes == {MM, CM}  # completed, and a control run came first w.p. 1 - 2**-40

    def test_mm_announces_outcome_cm_reveals_code(self):
        _, _, result = run_clean(n_pairs=8, c=0.5, seed=7)
        for run in result.transcript.runs:
            kinds = [a[0] for a in run.announcements]
            if run.mode == MM:
                assert kinds == ["mode", "bell_broadcast"]
                assert run.cm_pass is None
            else:
                assert kinds == ["mode", "cm_reveal"]
                assert run.cm_pass is True

    def test_decodes_follow_from_public_data_and_own_codes(self):
        alice, bob, result = run_clean(n_pairs=10, seed=8)
        bob_view = []
        alice_view = []
        mm_i = 0
        for run in result.transcript.runs:
            if run.mode != MM:
                continue
            (_, x, y) = run.announcements[1]
            bob_view.append(decode_counterpart(BitPair(x, y), bob.pairs[mm_i]))
            alice_view.append(decode_counterpart(BitPair(x, y), alice.pairs[mm_i]))
            mm_i += 1
        assert tuple(bob_view) == result.bob_decoded.pairs
        assert tuple(alice_view) == result.alice_decoded.pairs

    def test_mode_ratio_matches_c(self):
        c = 0.5
        total = cm = 0
        for seed in range(300):
            _, _, result = run_clean(n_pairs=8, c=c, seed=seed)
            total += result.transcript.n_total
            cm += result.transcript.n_cm
        stderr = math.sqrt(c * (1 - c) / total)
        assert cm / total == pytest.approx(c, abs=3 * stderr)

    def test_same_seed_reproduces_transcript(self):
        _, _, r1 = run_clean(n_pairs=8, seed=9, attack=NoAttack())
        _, _, r2 = run_clean(n_pairs=8, seed=9, attack=NoAttack())
        assert json.dumps(r1.transcript.to_dict()) == json.dumps(r2.transcript.to_dict())

    def test_unequal_messages_rejected(self):
        rng = np.random.default_rng(0)
        config = ProtocolConfig(c=0.5, n_pairs=4)
        with pytest.raises(ValueError, match="equal half-length"):
            run_dialogue(config, random_message(4, rng), random_message(5, rng), NoAttack(), rng)

    def test_config_length_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        config = ProtocolConfig(c=0.5, n_pairs=8)
        with pytest.raises(ValueError, match="n_pairs"):
            run_dialogue(config, random_message(4, rng), random_message(4, rng), NoAttack(), rng)


class TestDetectionPolicies:
    # The path tests hold at any seed: FlipOnPong fails every control
    # run, and each pass is long enough to reach one (see
    # pairs_for_a_control_run).

    def test_flip_on_pong_fails_every_control_run(self):
        assert per_cm_detection_oracle(FlipOnPong()) == 1.0

    def test_terminal_stops_at_first_failure(self):
        _, _, result = run_clean(
            n_pairs=pairs_for_a_control_run(0.5),
            c=0.5,
            seed=11,
            attack=FlipOnPong(),
            detection_policy="terminal",
        )
        t = result.transcript
        assert t.final_status == DETECTED
        assert t.runs[-1].mode == CM and t.runs[-1].cm_pass is False
        # nothing after the failing run
        assert all(r.cm_pass is not False for r in t.runs[:-1])

    def test_reinitialize_restarts_then_aborts(self):
        _, _, result = run_clean(
            n_pairs=pairs_for_a_control_run(0.5),
            c=0.5,
            seed=11,
            attack=FlipOnPong(),
            detection_policy="reinitialize",
            max_restarts=3,
        )
        t = result.transcript
        assert t.final_status == ABORTED
        assert t.restart_count == 3
        failures = sum(1 for r in t.runs if r.cm_pass is False)
        assert failures == 4  # three restarts plus the aborting failure

    def test_reinitialize_resets_final_pass_counters(self):
        _, _, result = run_clean(
            n_pairs=pairs_for_a_control_run(0.3),
            c=0.3,
            seed=13,
            attack=FlipOnPong(),
            detection_policy="reinitialize",
            max_restarts=2,
        )
        t = result.transcript
        final_pass = max(r.pass_index for r in t.runs)
        final_runs = [r for r in t.runs if r.pass_index == final_pass]
        assert t.n_total == len(final_runs)
        assert t.n_mm == sum(1 for r in final_runs if r.mode == MM)

    def test_reinitialize_can_still_complete(self):
        # a persistent but weak attacker: restarts happen, completion too
        from qdialogue.attacks import EntangleMeasure

        completed = 0
        restarts = 0
        for seed in range(30):
            _, _, result = run_clean(
                n_pairs=6,
                c=0.5,
                seed=seed,
                attack=EntangleMeasure(0.1),
                detection_policy="reinitialize",
                max_restarts=20,
            )
            t = result.transcript
            if t.final_status == COMPLETED:
                completed += 1
                assert t.n_mm == 6
                restarts += t.restart_count
        assert completed > 0
        assert restarts > 0

    def test_completed_final_pass_has_exactly_n_mm_runs(self):
        _, _, result = run_clean(n_pairs=8, seed=14)
        assert result.transcript.final_status == COMPLETED
        assert result.transcript.n_mm == 8
