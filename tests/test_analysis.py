"""Tests for the closed forms, estimators, and the additive Tally."""

import math
import random
from functools import partial

import numpy as np
import pytest

from qdialogue.analysis import (
    EstimateWithCI,
    Tally,
    TrialReport,
    detection_after_runs,
    detection_vs_message_length,
    dialogue_detection_exact,
    eve_entropy_bits,
    mutual_information_bits,
    per_cm_detection_oracle,
)
from qdialogue.attacks import (
    STRATEGY_NAMES,
    AttackStrategy,
    EntangleMeasure,
    InterceptResendLiteral,
    NoAttack,
    strategy_from_name,
)
from qdialogue.harness import ExperimentConfig, _fold_trials
from qdialogue.protocol import (
    ABORTED,
    COMPLETED,
    DETECTED,
    DETECTION_POLICIES,
    ProtocolConfig,
    random_message,
    run_dialogue,
    value_tables,
)
from qdialogue.quantum import ALL_CODES
from reference import (
    STRATEGY_VALUES,
    decoded_pairs,
    detection_after_runs_partial_sum,
    n_cm,
    n_mm,
    n_total,
    reference_dialogue,
    reference_report,
    restart_count,
    run_records,
)

C_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


class TestDetectionAfterRuns:
    def test_single_run(self):
        for c in C_GRID:
            assert detection_after_runs(c, 0.75, 1) == pytest.approx(0.75 * c, abs=1e-15)

    def test_two_runs_expands_as_stated(self):
        for c in C_GRID:
            expected = 3 * c / 4 + 3 * c * (1 - 3 * c / 4) / 4
            assert detection_after_runs(c, 0.75, 2) == pytest.approx(expected, abs=1e-14)

    def test_zero_rate_never_detects(self):
        assert detection_after_runs(0.3, 0.0, 500) == 0.0

    def test_partial_sum_identity(self):
        for c in C_GRID:
            for runs in range(0, 65):
                closed = detection_after_runs(c, 0.75, runs)
                summed = detection_after_runs_partial_sum(c, 0.75, runs)
                assert abs(closed - summed) < 1e-12

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            detection_after_runs(0.0, 0.75, 1)
        with pytest.raises(ValueError):
            detection_after_runs(0.5, 1.5, 1)
        with pytest.raises(ValueError):
            detection_after_runs(0.5, 0.75, -1)


class TestDetectionVsMessageLength:
    def test_reference_point(self):
        # N=1 at c=1/2 doubles the exponent: 1 - 0.625^2
        got = detection_vs_message_length(0.5, 0.75, 1)
        assert got == pytest.approx(0.609375, abs=1e-12)
        assert got == pytest.approx(detection_after_runs(0.5, 0.75, 2), abs=1e-12)

    def test_zero_rate(self):
        assert detection_vs_message_length(0.5, 0.0, 100) == 0.0

    def test_threshold_case(self):
        assert detection_vs_message_length(0.25, 0.75, 40) > 0.999
        # crude integer-exponent lower bound
        assert 1 - (1 - 3 / 16) ** 40 > 0.999

    @staticmethod
    def assert_strictly_increasing_until_saturated(values):
        # strictly increasing until the curve rounds to exactly 1.0
        for a, b in zip(values, values[1:]):
            assert b >= a
            if a < 1.0:
                assert b > a

    def test_monotone_in_n(self):
        for c in C_GRID:
            self.assert_strictly_increasing_until_saturated(
                [detection_vs_message_length(c, 0.75, n) for n in range(1, 65)]
            )

    def test_monotone_in_c(self):
        for n in (1, 4, 16, 64):
            self.assert_strictly_increasing_until_saturated(
                [detection_vs_message_length(c, 0.75, n) for c in C_GRID]
            )

    @pytest.mark.parametrize("c", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("d", [0.1, 0.25, 0.75])
    def test_asymptotic_threshold(self, c, d):
        eps = 1e-6
        # smallest N with (1 - c d)^(N/(1-c)) <= eps
        n_star = math.ceil((1 - c) * math.log(eps) / math.log(1 - c * d))
        assert detection_vs_message_length(c, d, n_star) >= 1 - eps
        assert detection_vs_message_length(c, d, n_star + 1) >= 1 - eps


class TestDialogueDetectionExact:
    def test_closed_form(self):
        got = dialogue_detection_exact(0.5, 0.25, 8)
        assert got == pytest.approx(1 - 0.8**8, abs=1e-12)

    def test_sits_below_real_exponent_curve(self):
        # run-count fluctuations help the attacker at short lengths
        for n in (1, 2, 8, 32):
            exact = dialogue_detection_exact(0.5, 0.25, n)
            curve = detection_vs_message_length(0.5, 0.25, n)
            assert exact < curve

    def test_both_reach_unity(self):
        assert dialogue_detection_exact(0.5, 0.25, 400) == pytest.approx(1.0, abs=1e-9)

    def test_monte_carlo_agreement(self):
        # direct simulation of the run-level process, no quantum layer
        rng = np.random.default_rng(99)
        c, d, n_half, trials = 0.4, 0.5, 6, 4000
        detected = 0
        for _ in range(trials):
            mm = 0
            while mm < n_half:
                if rng.random() < c:
                    if rng.random() < d:
                        detected += 1
                        break
                else:
                    mm += 1
        p = dialogue_detection_exact(c, d, n_half)
        stderr = math.sqrt(p * (1 - p) / trials)
        assert detected / trials == pytest.approx(p, abs=3 * stderr)


class TestEntropyBound:
    def test_endpoints_exact(self):
        assert eve_entropy_bits(0.0) == 0.0
        assert eve_entropy_bits(0.5) == 1.0

    def test_quarter_weight(self):
        assert eve_entropy_bits(0.25) == pytest.approx(0.811278, abs=1e-6)

    def test_strictly_increasing(self):
        grid = [i / 100 for i in range(0, 51)]
        values = [eve_entropy_bits(b) for b in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_positive_iff_positive_weight(self):
        assert eve_entropy_bits(0.0) == 0.0
        for beta2 in (1e-6, 0.01, 0.3, 0.5):
            assert eve_entropy_bits(beta2) > 0.0

    @pytest.mark.parametrize("beta2", [-0.01, 0.51, 2.0])
    def test_domain(self, beta2):
        with pytest.raises(ValueError, match="beta2"):
            eve_entropy_bits(beta2)


class TestEstimateWithCI:
    def test_stderr_formula(self):
        est = EstimateWithCI.from_counts(30, 120)
        assert est.estimate == 0.25
        assert est.stderr == pytest.approx(math.sqrt(0.25 * 0.75 / 120), abs=1e-15)

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            EstimateWithCI.from_counts(0, 0)

    def test_interior_window(self):
        est = EstimateWithCI.from_counts(30, 120)
        assert est.within_3sigma(0.25 + 2.9 * est.stderr)
        assert not est.within_3sigma(0.25 + 3.1 * est.stderr)

    def test_boundary_rule_of_three(self):
        est = EstimateWithCI.from_counts(600, 600)
        assert est.stderr == 0.0
        assert est.within_3sigma(1.0 - 2.0 / 600)
        assert not est.within_3sigma(1.0 - 4.0 / 600)


def report_list(attack, trials, n_pairs=6, c=0.5, seed=0):
    config = ProtocolConfig(c=c, n_pairs=n_pairs)
    out = []
    for i in range(trials):
        rng = np.random.default_rng((seed, i))
        alice = random_message(n_pairs, rng)
        bob = random_message(n_pairs, rng)
        result = run_dialogue(config, alice, bob, attack, rng, *rng.spawn(1))
        out.append(TrialReport.from_dialogue(i, result, alice, bob, attack))
    return out


def make_reports(attack, trials, n_pairs=6, c=0.5, seed=0):
    """The batch's reports folded into one Tally."""
    return Tally.fold(report_list(attack, trials, n_pairs, c, seed))


# Every batch the tests below fold: (attack, trials, seed).
BATCHES = [
    (NoAttack(), 50, 0),
    (EntangleMeasure(0.5), 200, 4),
    (NoAttack(), 300, 2),
    (InterceptResendLiteral(), 80, 3),
    (EntangleMeasure(0.25), 250, 5),
    (EntangleMeasure(0.25), 40, 7),
]


def direct_sums(reports):
    """The Tally fields summed report by report, with no Tally involved."""
    done = [r for r in reports if r.status == COMPLETED]
    return {
        "trials": len(reports),
        "detected": sum(r.status == DETECTED for r in reports),
        "completed": len(done),
        "runs": sum(r.runs_all_passes for r in reports),
        "cm_runs": sum(r.cm_runs for r in reports),
        "cm_failures": sum(r.cm_failures for r in reports),
        "restarts": sum(r.restart_count for r in reports),
        "message_bits": sum(r.message_bits for r in done),
        "bit_errors": sum(r.alice_bit_errors + r.bob_bit_errors for r in done),
        "eve_guesses": sum(r.eve_guesses for r in reports),
        "eve_alice_hits": sum(r.eve_alice_hits for r in reports),
        "eve_bob_hits": sum(r.eve_bob_hits for r in reports),
        "ancilla_table": tuple(
            tuple(sum(r.ancilla_table[i][j] for r in reports) for j in range(4)) for i in range(2)
        ),
    }


class TestTally:
    @pytest.mark.parametrize("attack, trials, seed", BATCHES)
    def test_fields_equal_direct_sums(self, attack, trials, seed):
        reports = report_list(attack, trials, seed=seed)
        assert make_reports(attack, trials, seed=seed)._asdict() == direct_sums(reports)

    @pytest.mark.parametrize("attack, trials, seed", BATCHES)
    def test_order_does_not_matter(self, attack, trials, seed):
        tallies = [Tally.fold([r]) for r in report_list(attack, trials, seed=seed)]
        in_order = sum(tallies, Tally())
        for shuffle_seed in range(3):
            random.Random(shuffle_seed).shuffle(tallies)
            assert sum(tallies, Tally()) == in_order
        # Pairwise as well as one by one: addition regroups freely.
        halves = sum(tallies[::2], Tally()) + sum(tallies[1::2], Tally())
        assert halves == in_order

    def test_empty_tally_is_the_identity(self):
        tally = make_reports(EntangleMeasure(0.25), 40, seed=7)
        assert Tally() + tally == tally + Tally() == tally

    def test_adds_only_tallies(self):
        with pytest.raises(TypeError):
            Tally() + 1


class TestDetectionEstimates:
    def test_all_pass_is_zero_with_zero_stderr(self):
        tally = make_reports(NoAttack(), 50)
        est = EstimateWithCI.from_counts(tally.cm_failures, tally.cm_runs)
        assert est.estimate == 0.0 and est.stderr == 0.0

    def test_per_dialogue_counts_status(self):
        tally = make_reports(EntangleMeasure(0.5), 200, seed=4)
        est = EstimateWithCI.from_counts(tally.detected, tally.trials)
        assert est.n_samples == 200
        reports = report_list(EntangleMeasure(0.5), 200, seed=4)
        assert est.estimate == sum(r.status == "detected" for r in reports) / 200

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            EstimateWithCI.from_counts(Tally().detected, Tally().trials)


class TestMutualInformation:
    def test_independent_table(self):
        assert mutual_information_bits([[10, 10, 10, 10], [10, 10, 10, 10]]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_perfectly_informative_readout(self):
        table = [[50, 0, 50, 0], [0, 50, 0, 50]]
        assert mutual_information_bits(table) == pytest.approx(1.0, abs=1e-12)

    def test_empty_table(self):
        assert mutual_information_bits([[0, 0, 0, 0], [0, 0, 0, 0]]) == 0.0

    @pytest.mark.parametrize("beta2", [0.0, 0.05, 0.1, 0.25, 0.5])
    def test_probe_readout_carries_no_information_exactly(self, beta2):
        # The exact joint law of the ancilla bit and Alice's pair: every
        # branch of every one of the 16 code pairs, each pair weighted 1/16.
        joint = [[0.0] * 4, [0.0] * 4]
        for bob_code in ALL_CODES:
            for k, alice_code in enumerate(ALL_CODES):
                for leaf in value_tables(EntangleMeasure(beta2)).by_pair[bob_code, alice_code].leaves:
                    joint[leaf.ancilla][k] += leaf.weight / 16.0
        p_ancilla = [sum(row) for row in joint]
        p_alice = [sum(column) for column in zip(*joint)]
        assert sum(p_ancilla) == pytest.approx(1.0, abs=1e-12)
        info = sum(
            p * math.log2(p / (p_ancilla[x] * p_alice[k]))
            for x, row in enumerate(joint)
            for k, p in enumerate(row)
            if p > 0.0
        )
        assert abs(info) <= 1e-12


class TestGuessAccuracy:
    def test_pure_guess_baseline(self):
        tally = make_reports(NoAttack(), 300, seed=2)
        for hits in (tally.eve_alice_hits, tally.eve_bob_hits):
            acc = EstimateWithCI.from_counts(hits, tally.eve_guesses)
            assert abs(acc.estimate - 0.25) <= 3 * acc.stderr

    def test_literal_interception_reads_both(self):
        tally = make_reports(InterceptResendLiteral(), 80, seed=3)
        assert tally.eve_guesses > 0
        assert tally.eve_alice_hits == tally.eve_bob_hits == tally.eve_guesses

    def test_probe_information_within_entropy_bound(self):
        tally = make_reports(EntangleMeasure(0.25), 250, seed=5)
        assert mutual_information_bits(tally.ancilla_table) <= eve_entropy_bits(0.25) + 1e-3


class TestTrialReport:
    def test_tallies_match_transcript(self):
        rng = np.random.default_rng(8)
        config = ProtocolConfig(c=0.5, n_pairs=5)
        alice = random_message(5, rng)
        bob = random_message(5, rng)
        result = run_dialogue(config, alice, bob, NoAttack(), rng, *rng.spawn(1))
        report = TrialReport.from_dialogue(0, result, alice, bob, NoAttack())
        t = result.transcript
        assert report.status == t.final_status
        assert report.n_mm == n_mm(t)
        assert report.cm_runs == n_cm(t)
        assert report.runs_all_passes == len(run_records(t))
        assert report.alice_bit_errors == 0
        assert report.bob_bit_errors == 0
        assert report.message_bits == 10
        assert report.eve_guesses == n_mm(t)

    def test_final_pass_fields_after_restarts(self):
        # The one-pass reduction against the transcript's own derived
        # counters and the reference decode, on dialogues that restart.
        config = ProtocolConfig(c=0.5, n_pairs=4, detection_policy="reinitialize", max_restarts=3)
        restarted_then_completed = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            alice = random_message(4, rng)
            bob = random_message(4, rng)
            attack = EntangleMeasure(0.5)
            result = run_dialogue(config, alice, bob, attack, rng, *rng.spawn(1))
            report = TrialReport.from_dialogue(seed, result, alice, bob, attack, decode=True)
            t = result.transcript
            assert (report.n_total, report.n_mm, report.n_cm) == (n_total(t), n_mm(t), n_cm(t))
            assert report.restart_count == restart_count(t)
            alice_view, bob_view = decoded_pairs(t)
            assert report.alice_decoded_bits == tuple(b for pair in alice_view for b in pair)
            assert report.bob_decoded_bits == tuple(b for pair in bob_view for b in pair)
            restarted_then_completed += restart_count(t) > 0 and t.final_status == COMPLETED
        assert restarted_then_completed > 0

    @pytest.mark.parametrize("name, beta2", STRATEGY_VALUES)
    def test_report_equals_the_reference_report(self, name, beta2):
        # The reduction of the sampler's integer rows against the BitPair
        # fold of the per-run replay's records and logs, and of the
        # sampler's own records read back. Every strategy that a control
        # run exposes at least a fifth of the time also detects, aborts
        # and restarts some of these dialogues.
        strategy = strategy_from_name(name, beta2)
        statuses, restarted = set(), 0
        for policy in DETECTION_POLICIES:
            config = ProtocolConfig(c=0.5, n_pairs=4, max_restarts=2, detection_policy=policy)
            for seed in range(50):
                reports = []
                for engine, reduce in ((run_dialogue, partial(TrialReport.from_dialogue, decode=True)),
                                       (run_dialogue, reference_report),
                                       (reference_dialogue, reference_report)):
                    rng = np.random.default_rng(seed)
                    alice, bob = random_message(4, rng), random_message(4, rng)
                    result = engine(config, alice, bob, strategy, rng, *rng.spawn(1))
                    reports.append(reduce(seed, result, alice, bob, strategy))
                assert reports[0] == reports[1] == reports[2], (policy, seed)
                statuses.add(reports[0].status)
                restarted += reports[0].restart_count > 0
        if per_cm_detection_oracle(strategy) >= 0.2:
            assert statuses == {COMPLETED, DETECTED, ABORTED} and restarted

    @pytest.mark.parametrize("policy", DETECTION_POLICIES)
    @pytest.mark.parametrize("name, beta2", STRATEGY_VALUES)
    def test_both_parties_miss_the_same_bits(self, name, beta2, policy):
        # Both decodes run over the final pass's message runs and each
        # misses the other's pair by the bits of outcome XOR both codes,
        # so the two counts are one number, and the Tally's bit errors
        # count each wrong bit twice.
        config = ExperimentConfig(attack=name, beta2=beta2, c=0.5, n_pairs=8, trials=200, master_seed=3,
                                  detection_policy=policy, max_restarts=2, verbose=True)
        tally, reports = _fold_trials(config, range(config.trials), ())
        assert all(r.alice_bit_errors == r.bob_bit_errors for r in reports)
        assert tally.bit_errors == 2 * sum(r.alice_bit_errors for r in reports if r.status == COMPLETED)
        if not value_tables(config.strategy()).exact:
            assert any(r.alice_bit_errors for r in reports)

    def test_ancilla_table_counts_mm_runs(self):
        tally = make_reports(EntangleMeasure(0.25), 40, seed=7)
        assert sum(sum(row) for row in tally.ancilla_table) == tally.eve_guesses


class TestPublishedClaim:
    # Every registered strategy's published per-control-run rate, by
    # hand: 3/4 for each disturbance and interception, and the probe's
    # weight beta2 for the probe.
    CLAIMS = [
        ("none", None, 0.0),
        ("disturb-measure", None, 0.75),
        ("disturb-pauli-z", None, 0.75),
        ("disturb-pauli-4", None, 0.75),
        ("intercept-resend-literal", None, 0.75),
        ("intercept-resend-blind", None, 0.75),
        ("entangle-measure", 0.0, 0.0),
        ("entangle-measure", 0.3, 0.3),
        ("entangle-measure", 0.5, 0.5),
    ]

    def test_claimed_rates(self):
        assert {name for name, _, _ in self.CLAIMS} == set(STRATEGY_NAMES)
        for name, beta2, claim in self.CLAIMS:
            assert strategy_from_name(name, beta2).claim == claim, name

        class Unpublished(AttackStrategy):
            name = "unpublished"

        assert Unpublished().claim is None
