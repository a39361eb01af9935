"""Tests for messages and the dialogue state machine."""

import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
from collections import OrderedDict
from dataclasses import asdict
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from qdialogue import attacks, harness, protocol
from qdialogue.analysis import Tally, TrialReport, per_cm_detection_oracle
from qdialogue.attacks import (
    STRATEGY_NAMES,
    AttackStrategy,
    EntangleMeasure,
    EveRunLog,
    NoAttack,
    strategy_from_name,
)
from qdialogue.protocol import (
    ABORTED,
    CM,
    COMPLETED,
    DETECTED,
    DETECTION_POLICIES,
    MM,
    REINITIALIZE,
    ProtocolConfig,
    RunRecord,
    random_message,
    run_dialogue,
    value_tables,
)
from qdialogue.quantum import (
    ALL_CODES,
    PROB_FLOOR,
    BitPair,
    apply_pauli,
    bell_outcome_probs,
    bell_state,
    cumulative,
)
from reference import (
    STRATEGY_VALUES,
    announcements,
    cm_pass,
    decoded_pairs,
    encode,
    n_cm,
    n_mm,
    n_total,
    pairs,
    reference_dialogue,
    reference_report,
    restart_count,
    run_dict,
    same_state,
    transcript_dict,
    trial_rng,
)


class TestDecodeAndCheck:
    # A party decodes the other's pair as ``outcome ^ own_code``; Bob's
    # control check is ``outcome == alice_code ^ bob_code``.

    def test_decode_example(self):
        assert BitPair(1, 0) ^ BitPair(1, 1) == BitPair(0, 1)

    def test_identity_code(self):
        assert BitPair(1, 0) ^ BitPair(0, 0) == BitPair(1, 0)

    def test_xor_involution(self):
        for outcome in ALL_CODES:
            for own in ALL_CODES:
                other = outcome ^ own
                assert other ^ own == outcome

    def test_cm_check_consistent_triple(self):
        assert BitPair(1, 0) == BitPair(0, 1) ^ BitPair(1, 1)

    def test_cm_check_mismatch(self):
        assert BitPair(1, 0) != BitPair(1, 1) ^ BitPair(1, 1)

    def test_xor_is_componentwise_on_all_sixteen_pairs(self):
        for x in ALL_CODES:
            for y in ALL_CODES:
                got = x ^ y
                assert got == BitPair(x.a ^ y.a, x.b ^ y.b)
                assert type(got) is BitPair

    def test_xor_with_a_plain_right_operand(self):
        for other in [(1, 1), [1, 1], (np.int64(1), 1)]:
            got = BitPair(1, 0) ^ other
            assert got == BitPair(0, 1)
            assert type(got) is BitPair

    def test_cm_check_exhaustive(self):
        for bob in ALL_CODES:
            for alice in ALL_CODES:
                for outcome in ALL_CODES:
                    componentwise = outcome.a == alice.a ^ bob.a and outcome.b == alice.b ^ bob.b
                    assert (outcome == alice ^ bob) is componentwise


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

    def on_pong(self, channel):
        return ((1.0, encode(channel, BitPair(0, 1)), {}),)


def pairs_for_a_control_run(c):
    """Half-length at which a pass ends before its first control run w.p. (1 - c)**N <= 2**-40."""
    return math.ceil(40 / -math.log2(1.0 - c))


def run_clean(n_pairs=8, c=0.5, seed=0, attack=NoAttack(), **kwargs):
    rng = np.random.default_rng(seed)
    alice = random_message(n_pairs, rng)
    bob = random_message(n_pairs, rng)
    config = ProtocolConfig(c=c, n_pairs=n_pairs, **kwargs)
    return alice, bob, run_dialogue(config, alice, bob, attack, rng, *rng.spawn(1))


class TestAttackFreeDialogue:
    @pytest.mark.parametrize("c", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_exchange(self, c, seed):
        alice, bob, result = run_clean(n_pairs=12, c=c, seed=seed, attack=NoAttack())
        assert result.transcript.final_status == COMPLETED
        assert decoded_pairs(result.transcript) == (pairs(bob), pairs(alice))

    def test_capacity(self):
        alice, bob, result = run_clean(n_pairs=16, seed=3)
        t = result.transcript
        assert n_mm(t) == 16
        alice_view, bob_view = decoded_pairs(t)
        assert len(alice_view) == len(bob_view) == 16  # 32 bits a side

    def test_counters_consistent(self):
        _, _, result = run_clean(n_pairs=10, seed=4)
        t = result.transcript
        assert n_total(t) == n_mm(t) + n_cm(t) == len(t.runs)
        assert restart_count(t) == 0

    def test_no_cm_failures(self):
        for seed in range(20):
            _, _, result = run_clean(n_pairs=8, seed=seed)
            assert not any(cm_pass(run) is False for run in result.transcript.runs)

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
            assert announcements(run)[0] == ("mode", run.mode)
            modes.add(run.mode)
        assert modes == {MM, CM}  # completed, and a control run came first w.p. 1 - 2**-40

    def test_mm_announces_outcome_cm_reveals_code(self):
        _, _, result = run_clean(n_pairs=8, c=0.5, seed=7)
        for run in result.transcript.runs:
            kinds = [a[0] for a in announcements(run)]
            if run.mode == MM:
                assert kinds == ["mode", "bell_broadcast"]
                assert announcements(run)[1][1:] == tuple(run.outcome)
                assert cm_pass(run) is None
            else:
                assert kinds == ["mode", "cm_reveal"]
                assert announcements(run)[1][1:] == tuple(run.alice_code)
                assert cm_pass(run) is True

    def test_decodes_follow_from_public_data_and_own_codes(self):
        alice, bob, result = run_clean(n_pairs=10, seed=8)
        bob_view = []
        alice_view = []
        mm_i = 0
        for run in result.transcript.runs:
            if run.mode != MM:
                continue
            (_, x, y) = announcements(run)[1]
            bob_view.append(BitPair(x, y) ^ pairs(bob)[mm_i])
            alice_view.append(BitPair(x, y) ^ pairs(alice)[mm_i])
            mm_i += 1
        # The package decodes in the trial reduction.
        report = TrialReport.from_dialogue(0, result, alice, bob, NoAttack(), decode=True)
        assert tuple(chain.from_iterable(bob_view)) == report.bob_decoded_bits
        assert tuple(chain.from_iterable(alice_view)) == report.alice_decoded_bits

    def test_mode_ratio_matches_c(self):
        c = 0.5
        total = cm = 0
        for seed in range(300):
            _, _, result = run_clean(n_pairs=8, c=c, seed=seed)
            total += n_total(result.transcript)
            cm += n_cm(result.transcript)
        stderr = math.sqrt(c * (1 - c) / total)
        assert cm / total == pytest.approx(c, abs=3 * stderr)

    def test_same_seed_reproduces_transcript(self):
        _, _, r1 = run_clean(n_pairs=8, seed=9, attack=NoAttack())
        _, _, r2 = run_clean(n_pairs=8, seed=9, attack=NoAttack())
        assert json.dumps(transcript_dict(r1.transcript)) == json.dumps(transcript_dict(r2.transcript))

    def test_unequal_messages_rejected(self):
        rng = np.random.default_rng(0)
        config = ProtocolConfig(c=0.5, n_pairs=4)
        with pytest.raises(ValueError, match="equal half-length"):
            run_dialogue(config, random_message(4, rng), random_message(5, rng), NoAttack(), rng, *rng.spawn(1))

    def test_config_length_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        config = ProtocolConfig(c=0.5, n_pairs=8)
        # Short messages, and empty ones: a message needs n_pairs >= 1 pairs.
        for alice, bob in [(random_message(4, rng), random_message(4, rng)), ((), ())]:
            with pytest.raises(ValueError, match="n_pairs"):
                run_dialogue(config, alice, bob, NoAttack(), rng, *rng.spawn(1))


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
        assert t.runs[-1].mode == CM and cm_pass(t.runs[-1]) is False
        # nothing after the failing run
        assert all(cm_pass(r) is not False for r in t.runs[:-1])

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
        assert restart_count(t) == 3
        failures = sum(1 for r in t.runs if cm_pass(r) is False)
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
        assert n_total(t) == len(final_runs)
        assert n_mm(t) == sum(1 for r in final_runs if r.mode == MM)

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
                assert n_mm(t) == 6
                restarts += restart_count(t)
        assert completed > 0
        assert restarts > 0

    def test_completed_final_pass_has_exactly_n_mm_runs(self):
        _, _, result = run_clean(n_pairs=8, seed=14)
        assert result.transcript.final_status == COMPLETED
        assert n_mm(result.transcript) == 8


# sha256 of ``json.dumps(transcript_dict(transcript))`` for one dialogue per
# strategy under reinitialize with max_restarts=2 (c=0.5, N=8, beta2=0.25
# for entangle-measure). At seed 0 every detectable strategy restarts
# twice and aborts; at seed 2 several restart and then complete, so the
# final-pass counters cover a strict suffix of the runs.
TRANSCRIPT_DIGESTS = {
    (0, "none"): "62dc7c876742ced7727293b6949c80ab65acac538f7452ba04f6c06f8a66411e",
    (0, "disturb-measure"): "bec5425aeaac339d96999c9ef58e44b19664da2a054494ea5d7dfe3665e63f93",
    (0, "disturb-pauli-z"): "4f3c349fe87c33274a23d67f36799762f2406e12d5485ad8d26f52f082337833",
    (0, "disturb-pauli-4"): "23f53604983130732fe1f4a84011620952de65954f8a744b04f7e6076b8d861c",
    (0, "intercept-resend-literal"): "62dc7c876742ced7727293b6949c80ab65acac538f7452ba04f6c06f8a66411e",
    (0, "intercept-resend-blind"): "c6d664274432d4fda622a192ad4d96d935439933b298118e83b3d3936eaf91ce",
    (0, "entangle-measure"): "cd13ede87f3104e95d6854476241b1e2c5ce4e6e3e1cda237506bbc2c531e6e6",
    (0, "flip-on-pong"): "ecc5de42615e1517bb4481d11eaa994fc8e9996df529fc09761f19d0892167d2",
    (2, "none"): "c28188617d1a53dfc7155ef2a66de7d6b7d0eb846e4636f9d0424f049754dd52",
    (2, "disturb-measure"): "633aa558c92baf5c33c89fbae76002a9b6d89cbeeb70ae2abdb9ed265d20a75d",
    (2, "disturb-pauli-z"): "9610cd3749f91043ed70961aab04cd1ab62861756018a2b093f2d9ec7edb19a1",
    (2, "disturb-pauli-4"): "c7122cb562ee59ba1ac293bfb657ed36b4c29dcc464582979140e0912c8819ac",
    (2, "intercept-resend-literal"): "c28188617d1a53dfc7155ef2a66de7d6b7d0eb846e4636f9d0424f049754dd52",
    (2, "intercept-resend-blind"): "90a29c014e98cac919e8f2a432a5b7611858106db913df79c61e45778855dfc9",
    (2, "entangle-measure"): "5553d843d8800123fb4accd41ecee4c7d4be5bb08c20e8b657c918fa1ced6f1d",
    (2, "flip-on-pong"): "028a1699d9a4ee6d14910f5ebea0da88fa1ad0b58963d87c7f309671650fc5b5",
}


class TestRunRecord:
    MM_RUN = RunRecord(0, 0, MM, BitPair(0, 1), BitPair(1, 1), BitPair(1, 0))
    CM_PASS = RunRecord(1, 0, CM, BitPair(0, 1), BitPair(1, 1), BitPair(1, 0))
    CM_FAIL = RunRecord(2, 1, CM, BitPair(0, 1), BitPair(1, 1), BitPair(0, 0))

    @pytest.mark.parametrize("field", RunRecord._fields)
    def test_fields_cannot_be_assigned(self, field):
        with pytest.raises(AttributeError):
            setattr(self.CM_PASS, field, 0)

    def test_cm_pass_per_mode_and_check(self):
        assert cm_pass(self.MM_RUN) is None
        assert cm_pass(self.CM_PASS) is True
        assert cm_pass(self.CM_FAIL) is False

    def test_to_dict_and_announcements(self):
        assert run_dict(self.CM_FAIL) == {
            "index": 2,
            "pass_index": 1,
            "mode": CM,
            "bob_code": [0, 1],
            "alice_code": [1, 1],
            "outcome": [0, 0],
            "cm_pass": False,
            "announcements": [["mode", CM], ["cm_reveal", 1, 1]],
        }
        assert announcements(self.MM_RUN) == (("mode", MM), ("bell_broadcast", 1, 0))

    def test_each_failed_cm_pass_restarts_or_aborts(self):
        # Holds at any seed: FlipOnPong fails every control run and each
        # pass reaches one (pairs_for_a_control_run), so the dialogue aborts.
        # Every failure but the aborting last run starts the next pass.
        _, _, result = run_clean(
            n_pairs=pairs_for_a_control_run(0.5), c=0.5, seed=2, attack=FlipOnPong(),
            detection_policy="reinitialize", max_restarts=2,
        )
        t = result.transcript
        assert t.final_status == ABORTED
        failed = [i for i, r in enumerate(t.runs) if cm_pass(r) is False]
        restarts = [i for i in range(1, len(t.runs)) if t.runs[i].pass_index != t.runs[i - 1].pass_index]
        assert failed[-1] == len(t.runs) - 1
        assert [i + 1 for i in failed[:-1]] == restarts and len(restarts) == 2


class TestTranscriptSerialization:
    @pytest.mark.parametrize("seed, name", sorted(TRANSCRIPT_DIGESTS))
    def test_to_dict_digest(self, seed, name):
        if name == "flip-on-pong":
            attack = FlipOnPong()
        else:
            attack = strategy_from_name(name, 0.25 if name == "entangle-measure" else None)
        _, _, result = run_clean(
            n_pairs=8, c=0.5, seed=seed, attack=attack,
            detection_policy="reinitialize", max_restarts=2,
        )
        text = json.dumps(transcript_dict(result.transcript))
        assert hashlib.sha256(text.encode()).hexdigest() == TRANSCRIPT_DIGESTS[seed, name]

    def test_digests_cover_every_strategy_and_restarts(self):
        assert {name for _, name in TRANSCRIPT_DIGESTS} == {*STRATEGY_NAMES, "flip-on-pong"}
        _, _, result = run_clean(
            n_pairs=8, c=0.5, seed=2, attack=FlipOnPong(),
            detection_policy="reinitialize", max_restarts=2,
        )
        t = result.transcript
        assert t.final_status == COMPLETED and restart_count(t) == 2
        assert n_total(t) < len(t.runs)


class SpawnRecorder(np.random.Generator):
    """A real generator that keeps the children it spawns."""

    def spawn(self, n_children):
        self.children = super().spawn(n_children)
        return self.children


class TestRunTables:
    @pytest.mark.parametrize("policy", DETECTION_POLICIES)
    @pytest.mark.parametrize("name, beta2", STRATEGY_VALUES)
    def test_sampler_equals_the_per_run_replay(self, name, beta2, policy):
        # The table sampler against the quantum leg replayed on every run:
        # same transcript, same Eve logs, and both streams left in the
        # same state, so every draw was the same.
        config = ProtocolConfig(c=0.5, n_pairs=4, max_restarts=2, detection_policy=policy)
        for seed in range(50):
            seen = []
            for engine in (run_dialogue, reference_dialogue):
                rng = SpawnRecorder(np.random.PCG64(np.random.SeedSequence(seed)))
                msgs = [random_message(config.n_pairs, rng) for _ in range(2)]
                result = engine(config, *msgs, strategy_from_name(name, beta2), rng, *rng.spawn(1))
                (eve_rng,) = rng.children
                seen.append((
                    transcript_dict(result.transcript),
                    result.eve.logs,
                    rng.bit_generator.state,
                    eve_rng.bit_generator.state,
                ))
            assert seen[0] == seen[1], seed

    def test_equal_strategies_share_one_table(self):
        a, b = EntangleMeasure(0.25), EntangleMeasure(0.25)
        assert value_tables(a) is value_tables(b)
        assert value_tables(a).by_pair[BitPair(0, 1), BitPair(1, 1)] is value_tables(b).by_pair[BitPair(0, 1), BitPair(1, 1)]

    def test_signed_zeros_do_not_share(self):
        assert value_tables(EntangleMeasure(0.0)) is not value_tables(EntangleMeasure(-0.0))

    def test_cache_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(protocol, "_TABLES", OrderedDict())
        values = [0.5 * k / (protocol.TABLE_STRATEGIES + 3) for k in range(protocol.TABLE_STRATEGIES + 4)]
        for beta2 in values:
            value_tables(EntangleMeasure(values[1]))  # kept in use, so never the oldest
            value_tables(EntangleMeasure(beta2))
            assert len(protocol._TABLES) <= protocol.TABLE_STRATEGIES
        assert protocol._strategy_key(EntangleMeasure(values[1])) in protocol._TABLES
        assert protocol._strategy_key(EntangleMeasure(values[0])) not in protocol._TABLES

    def test_config_and_strategy_build_no_table(self):
        code = (
            "from qdialogue import protocol\n"
            "from qdialogue.harness import ExperimentConfig\n"
            "config = ExperimentConfig(attack='entangle-measure', beta2=0.25)\n"
            "config.validate()\n"
            "config.strategy()\n"
            "print(len(protocol._TABLES))\n"
        )
        src = str(Path(protocol.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "0"

    @pytest.mark.parametrize("name, beta2", STRATEGY_VALUES)
    def test_stored_readouts_are_the_strategy_readouts(self, name, beta2):
        strategy = strategy_from_name(name, beta2)
        for table in value_tables(strategy).by_pair.values():
            for leaf in table.leaves:
                assert leaf.readouts == tuple(strategy.readout(leaf.log, o) for o in ALL_CODES)
                cells = [None if r is None else 4 * ALL_CODES.index(r[0]) + ALL_CODES.index(r[1])
                         for r in leaf.readouts]
                assert list(leaf.cells) == cells
                kept = [k for k, p in enumerate(leaf.bell_probs) if p >= PROB_FLOOR]
                assert leaf.sure == (kept[0] if len(kept) == 1 else None)
                assert leaf.ancilla == leaf.log.ancilla_outcome

    def test_tree_and_leaves_hold_the_probe_readout(self):
        table = value_tables(EntangleMeasure(0.25)).by_pair[BitPair(1, 0), BitPair(0, 1)]
        assert table.tree.children == table.leaves
        assert [leaf.weight for leaf in table.leaves] == pytest.approx([0.75, 0.25], abs=1e-12)
        assert table.tree.cum == cumulative([leaf.weight for leaf in table.leaves])
        assert [leaf.fields for leaf in table.leaves] == [{"ancilla_outcome": 0}, {"ancilla_outcome": 1}]


def counting(monkeypatch):
    """Count every ``RunRecord`` and ``EveRunLog`` the package builds from now on, by class name."""
    made = {}

    def wrap(cls):
        def build(*args, **kwargs):
            made[cls.__name__] = made.get(cls.__name__, 0) + 1
            return cls(*args, **kwargs)
        return build

    for module, cls in ((protocol, RunRecord), (protocol, EveRunLog), (attacks, EveRunLog)):
        monkeypatch.setattr(module, cls.__name__, wrap(cls))
    return made


class TestRecordsOnRead:
    # A dialogue keeps one row of integers per run; its ``RunRecord``s and
    # Eve's ``EveRunLog``s are built only when read, and its report's
    # decoded bits only for a verbose document.

    @pytest.mark.parametrize("name, beta2", STRATEGY_VALUES)
    def test_folding_a_chunk_builds_no_per_run_objects(self, monkeypatch, name, beta2):
        config = harness.ExperimentConfig(attack=name, beta2=beta2, c=0.5, n_pairs=8,
                                          detection_policy=REINITIALIZE, max_restarts=2)
        value_tables(config.strategy())  # a table builds each leaf's log once per process
        made = counting(monkeypatch)
        reports, raw = [], harness.run_trial

        def kept_report(*args, **chunk):
            reports.append(raw(*args, **chunk))
            return reports[-1]

        monkeypatch.setattr(harness, "run_trial", kept_report)
        tally, kept = harness._fold_trials(config, range(40), ())
        assert tally.runs > 0 and kept == [] and len(reports) == 40
        assert made == {}
        # No decoded-bit tuple, and no reference to a row's leaf.
        assert all(r.alice_decoded_bits is None and r.bob_decoded_bits is None for r in reports)
        assert b"Leaf" not in pickle.dumps(reports)

    @pytest.mark.parametrize("name, beta2", STRATEGY_VALUES)
    def test_verbose_chunk_reports_equal_the_reference_report(self, name, beta2):
        # Field by field, decoded bits included, against the BitPair fold
        # of the per-run replay of the same trial streams.
        for policy in DETECTION_POLICIES:
            config = harness.ExperimentConfig(attack=name, beta2=beta2, c=0.5, n_pairs=4, master_seed=5,
                                              detection_policy=policy, max_restarts=2, verbose=True)
            tally, reports = harness._fold_trials(config, range(30), ())
            expected = []
            for t in range(30):
                rng = trial_rng(5, t)
                (eve_rng,) = rng.spawn(1)
                messages = random_message(8, rng)
                result = reference_dialogue(config.protocol_config(), messages[:4], messages[4:],
                                            config.strategy(), rng, eve_rng)
                expected.append(reference_report(t, result, messages[:4], messages[4:], config.strategy()))
            assert [asdict(r) for r in reports] == [asdict(r) for r in expected], policy
            assert all(r.alice_decoded_bits is not None for r in reports)
            assert tally == Tally.fold(expected)

    @pytest.mark.parametrize("name, beta2", STRATEGY_VALUES)
    def test_reading_builds_the_records_of_the_replay(self, monkeypatch, name, beta2):
        config = ProtocolConfig(c=0.5, n_pairs=4, max_restarts=2, detection_policy=REINITIALIZE)
        strategy = strategy_from_name(name, beta2)
        results = []
        for engine in (run_dialogue, reference_dialogue):
            rng = np.random.default_rng(3)
            msgs = [random_message(config.n_pairs, rng) for _ in range(2)]
            results.append(engine(config, *msgs, strategy, rng, *rng.spawn(1)))
        result, replay = results
        made = counting(monkeypatch)
        runs, logs = result.transcript.runs, result.eve.logs
        n_runs = len(result.transcript.rows)
        assert made == {"RunRecord": n_runs, "EveRunLog": n_runs}
        assert result.transcript.runs == runs and result.eve.logs == logs
        assert runs == replay.transcript.runs and logs == replay.eve.logs
