"""Acceptance suite: one test per release criterion, one line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass. Statistical gates use three-sigma binomial tolerances; exact
gates use the stated absolute tolerances. Sample sizes are fixed so
every gate is met honestly at the stated confidence.
"""

import math
import time

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
from qdialogue.attacks import EntangleMeasure, NoAttack, strategy_from_name
from qdialogue.harness import ExperimentConfig, run_experiment, to_csv, to_json
from qdialogue.protocol import ProtocolConfig, random_message, run_dialogue
from qdialogue.quantum import (
    ALL_CODES,
    PAULI_MATRICES,
    apply_pauli,
    attach_ancilla,
    bell_measure,
    bell_outcome_probs,
    bell_state,
    entangling_probe,
    pauli_compose,
)
from reference import (
    cm_pass,
    decoded_pairs,
    detection_after_runs_partial_sum,
    pairs,
    reduced_density,
    run_records,
    trial_rng,
    von_neumann_entropy,
)

C_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def report(number: int, ok: bool, text: str) -> None:
    print(f"\nACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def simulate_batch(strategy, trials, n_pairs, c, seed_tag, policy="terminal"):
    """Seeded dialogues folded, report by report, into one Tally."""
    config = ProtocolConfig(c=c, n_pairs=n_pairs, detection_policy=policy)

    def report(i):
        rng = trial_rng(seed_tag, i)
        alice = random_message(n_pairs, rng)
        bob = random_message(n_pairs, rng)
        result = run_dialogue(config, alice, bob, strategy, rng, *rng.spawn(1))
        return TrialReport.from_dialogue(i, result, alice, bob, strategy)

    return Tally.fold(map(report, range(trials)))


@pytest.fixture(scope="module")
def probe_reports():
    """Shared entangle-measure batches at c=0.5, N=16, terminal policy."""
    sizes = {0.1: 1600, 0.25: 3200, 0.5: 6000}
    return {
        beta2: simulate_batch(EntangleMeasure(beta2), trials, 16, 0.5, seed_tag=4000 + int(beta2 * 100))
        for beta2, trials in sizes.items()
    }


def test_criterion_01_deterministic_decoding():
    """All 16 code combinations decode exactly, via probabilities and samples."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    ok = True
    for bob in ALL_CODES:
        for alice in ALL_CODES:
            state = apply_pauli(bell_state(bob), "t", alice)
            probs = bell_outcome_probs(state, "h", "t")
            ok &= abs(probs[alice ^ bob] - 1.0) <= 1e-12
            outcome, _ = bell_measure(state, "h", "t", rng)
            ok &= outcome == alice ^ bob
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"16/16 double encodings decode deterministically ({elapsed:.3f}s)")


def test_criterion_02_pauli_phase_table():
    """Composition table equals the 2x2 matrix-product oracle exactly."""
    ok = True
    for second in ALL_CODES:
        for first in ALL_CODES:
            product = PAULI_MATRICES[second] @ PAULI_MATRICES[first]
            got = pauli_compose(second, first)
            ok &= got.code == second ^ first
            ok &= bool(np.array_equal(product, got.phase * PAULI_MATRICES[got.code]))
    report(2, ok, "16/16 Pauli compositions match the matrix oracle exactly")


def test_criterion_03_attack_free_dialogues():
    """1e4 random dialogues: all complete, zero control failures, zero bit errors."""
    t0 = time.perf_counter()
    strategy = NoAttack()
    trials = 10_000
    failures = errors = incomplete = 0
    for i in range(trials):
        rng = trial_rng(300, i)
        n_pairs = int(rng.integers(1, 33))
        c = 0.25 if i % 2 == 0 else 0.5
        config = ProtocolConfig(c=c, n_pairs=n_pairs)
        alice = random_message(n_pairs, rng)
        bob = random_message(n_pairs, rng)
        result = run_dialogue(config, alice, bob, strategy, rng, *rng.spawn(1))
        incomplete += result.transcript.final_status != "completed"
        failures += sum(cm_pass(run) is False for run in run_records(result.transcript))
        alice_view, bob_view = decoded_pairs(result.transcript)
        errors += sum(a != b for p, q in zip(alice_view, pairs(bob)) for a, b in zip(p, q))
        errors += sum(a != b for p, q in zip(bob_view, pairs(alice)) for a, b in zip(p, q))
    elapsed = time.perf_counter() - t0
    ok = incomplete == 0 and failures == 0 and errors == 0 and elapsed < 60.0
    report(
        3,
        ok,
        f"{trials} attack-free dialogues: {incomplete} incomplete, {failures} control "
        f"failures, {errors} bit errors ({elapsed:.1f}s)",
    )


def test_criterion_04_probe_detection_rate(probe_reports):
    """Per-control-run detection equals the probe weight within 3 sigma."""
    ok = True
    details = []
    for beta2, tally in sorted(probe_reports.items()):
        t0 = time.perf_counter()
        est = EstimateWithCI.from_counts(tally.cm_failures, tally.cm_runs)
        within = est.within_3sigma(beta2) and est.n_samples >= 10_000
        elapsed = time.perf_counter() - t0
        ok &= within and elapsed < 120.0
        details.append(
            f"beta2={beta2}: {est.estimate:.4f} over {est.n_samples} control runs"
        )
    report(4, ok, "; ".join(details))


def test_criterion_05_detection_curve(probe_reports):
    """Per-dialogue detection matches the hazard curve at the simulated run counts."""
    beta2, trials = 0.25, 5000
    ok = True
    details = []
    for c in (0.25, 0.5):
        for n_pairs in (8, 32):
            seed_tag = 500 + int(100 * c) + n_pairs
            tally = simulate_batch(EntangleMeasure(beta2), trials, n_pairs, c, seed_tag)
            per_dialogue = EstimateWithCI.from_counts(tally.detected, tally.trials)
            exact = dialogue_detection_exact(c, beta2, n_pairs)
            curve = detection_vs_message_length(c, beta2, n_pairs)
            ok &= per_dialogue.within_3sigma(exact)
            # differential form of the same curve: each executed run
            # detects with probability c * beta2; a terminal dialogue
            # holds one detecting run if detected, none otherwise
            runs = tally.runs
            hazard = tally.detected / runs
            stderr = math.sqrt(c * beta2 * (1 - c * beta2) / runs)
            ok &= abs(hazard - c * beta2) <= 3 * stderr
            details.append(
                f"c={c} N={n_pairs}: empirical {per_dialogue.estimate:.4f}, "
                f"resummed curve {exact:.4f}, real-exponent form {curve:.4f}, "
                f"per-run hazard {hazard:.4f} vs {c * beta2:.4f}"
            )
    report(5, ok, "; ".join(details))


def test_criterion_06_formula_identities():
    """Closed form vs geometric partial sums, monotonicity, threshold cases."""
    t0 = time.perf_counter()
    ok = True
    for c in C_GRID:
        for runs in range(0, 65):
            closed = detection_after_runs(c, 0.75, runs)
            summed = detection_after_runs_partial_sum(c, 0.75, runs)
            ok &= abs(closed - summed) <= 1e-12
    for c in C_GRID:
        values = [detection_vs_message_length(c, 0.75, n) for n in range(1, 65)]
        ok &= all(b >= a for a, b in zip(values, values[1:]))
        ok &= all(b > a for a, b in zip(values, values[1:]) if a < 1.0)
    for n in (1, 4, 16, 64):
        values = [detection_vs_message_length(c, 0.75, n) for c in C_GRID]
        ok &= all(b >= a for a, b in zip(values, values[1:]))
        ok &= all(b > a for a, b in zip(values, values[1:]) if a < 1.0)
    ok &= detection_vs_message_length(0.25, 0.75, 40) > 0.999
    ok &= 1 - (1 - 3 / 16) ** 40 > 0.999
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(6, ok, f"partial sums within 1e-12, monotone, thresholds exceeded ({elapsed:.3f}s)")


def test_criterion_07_probe_entropy():
    """Partial-trace entropy of the simulated post-encoding state."""
    ok = True
    for beta2 in (0.0, 0.1, 0.25, 0.5):
        alpha, beta = math.sqrt(1 - beta2), math.sqrt(beta2)
        expected = eve_entropy_bits(beta2)
        for bob in ALL_CODES:
            for alice in ALL_CODES:
                state = entangling_probe(
                    attach_ancilla(bell_state(bob), "e"), "t", "e", alpha, beta
                )
                state = apply_pauli(state, "t", alice)
                entropy = von_neumann_entropy(reduced_density(state, ["e"]))
                ok &= abs(entropy - expected) <= 1e-9
    ok &= eve_entropy_bits(0.0) == 0.0
    ok &= eve_entropy_bits(0.5) == 1.0
    ok &= all(eve_entropy_bits(b) > 0.0 for b in (0.01, 0.1, 0.25, 0.5))
    report(7, ok, "simulated ancilla entropy matches the closed form within 1e-9")


def test_criterion_08_attack_variant_oracle_table():
    """Empirical per-control-run rates vs the enumeration oracle, with the
    published 3/4 claim printed side by side (two variants disagree with it)."""
    plan = [
        ("disturb-measure", 6000),
        ("disturb-pauli-z", 6000),
        ("disturb-pauli-4", 8000),
        ("intercept-resend-blind", 8000),
        ("intercept-resend-literal", 700),
    ]
    ok = True
    lines = [f"{'strategy':<26} {'oracle':>7} {'empirical':>10} {'cm runs':>8} {'claim':>6}  note"]
    for name, trials in plan:
        strategy = strategy_from_name(name)
        oracle = per_cm_detection_oracle(strategy)
        claim = strategy.claim
        tally = simulate_batch(strategy, trials, 16, 0.5, seed_tag=800 + sum(name.encode()))
        est = EstimateWithCI.from_counts(tally.cm_failures, tally.cm_runs)
        ok &= est.n_samples >= 10_000
        ok &= est.within_3sigma(oracle)
        note = "" if abs(oracle - claim) < 1e-12 else "oracle DISAGREES with published claim"
        lines.append(
            f"{name:<26} {oracle:>7.4f} {est.estimate:>10.4f} {est.n_samples:>8d} {claim:>6.2f}  {note}"
        )
    # the published figure holds for exactly these two variants
    ok &= per_cm_detection_oracle(strategy_from_name("disturb-pauli-4")) == pytest.approx(
        0.75, abs=1e-12
    )
    ok &= per_cm_detection_oracle(strategy_from_name("intercept-resend-blind")) == pytest.approx(
        0.75, abs=1e-12
    )
    # and fails for these, which the table documents rather than hides
    ok &= per_cm_detection_oracle(strategy_from_name("disturb-measure")) != 0.75
    ok &= per_cm_detection_oracle(strategy_from_name("intercept-resend-literal")) != 0.75
    print()
    for line in lines:
        print("   ", line)
    report(8, ok, "all five variants match the enumeration oracle within 3 sigma")


def test_criterion_09_leakage(probe_reports):
    """Pure-guess accuracy for quiet strategies; information bounded by entropy."""
    ok = True
    details = []
    for label, strategy, seed_tag in (
        ("none", NoAttack(), 900),
        ("entangle-measure(0)", EntangleMeasure(0.0), 901),
    ):
        tally = simulate_batch(strategy, 700, 16, 0.5, seed_tag=seed_tag)
        guesses = tally.eve_guesses
        ok &= guesses >= 10_000
        for hits in (tally.eve_alice_hits, tally.eve_bob_hits):
            acc = hits / guesses
            stderr = math.sqrt(0.25 * 0.75 / guesses)
            ok &= abs(acc - 0.25) <= 3 * stderr
        details.append(f"{label}: accuracy {acc:.4f} over {guesses} guesses")
        if label.startswith("entangle"):
            mi = mutual_information_bits(tally.ancilla_table)
            ok &= mi == 0.0  # quiet probe reads nothing at all
    for beta2, tally in sorted(probe_reports.items()):
        mi = mutual_information_bits(tally.ancilla_table)
        bound = eve_entropy_bits(beta2)
        ok &= mi <= bound + 1e-3
        details.append(f"MI(beta2={beta2})={mi:.5f} <= {bound:.5f}")
    report(9, ok, "; ".join(details))


def test_criterion_10_determinism():
    """Identical config and seed give byte-identical documents, any worker count."""
    base = dict(
        attack="entangle-measure", beta2=0.25, c=0.5, n_pairs=8, trials=150, master_seed=77
    )
    serial = run_experiment(ExperimentConfig(**base, workers=1))
    parallel = run_experiment(ExperimentConfig(**base, workers=3))
    rerun = run_experiment(ExperimentConfig(**base, workers=1))
    ok = to_json(serial) == to_json(parallel) == to_json(rerun)
    ok &= to_csv(serial) == to_csv(parallel)
    report(10, ok, "serial, parallel, and repeated runs serialize byte-identically")
