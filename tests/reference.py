"""Reference routines the tests check the package against.

No ``qdialogue`` command needs these: partial traces and entropies of
simulated states, equality up to a global phase, the forced-outcome Bell
and up/down projections, the cumulative detection curve as an explicit
sum, each side's decode read straight off a transcript, the per-draw
``choose`` loop the stored thresholds replaced, and the two engines the
run tables replaced: a dialogue that replays the quantum leg on every
run, and the oracle's own branch walk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qdialogue import quantum
from qdialogue.analysis import PURE_GUESS_ACCURACY
from qdialogue.protocol import (
    ABORTED,
    CM,
    COMPLETED,
    DETECTED,
    MM,
    TERMINAL,
    DialogueResult,
    RunRecord,
    Transcript,
    _BranchWalker,
    _random_pair,
    round_trip,
)
from qdialogue.quantum import ALL_CODES, NORM_TOL, PROB_FLOOR, BitPair, StateVector


def detection_after_runs_partial_sum(c: float, d: float, runs: int) -> float:
    """Same curve as ``analysis.detection_after_runs`` via the explicit geometric sum."""
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must lie strictly between 0 and 1, got {c}")
    return c * d * sum((1.0 - c * d) ** n for n in range(runs))


def per_draw_choose(probs, rng: np.random.Generator) -> int:
    """``quantum.choose`` on a Generator as one loop: clean, sum, then walk the sums per draw."""
    cleaned = [p if p >= PROB_FLOOR else 0.0 for p in probs]
    total = sum(cleaned)
    if total <= 0.0:
        raise ValueError("no outcome has positive probability")
    u = rng.random() * total
    acc = 0.0
    last = -1
    for i, p in enumerate(cleaned):
        if p > 0.0:
            last = i
            acc += p
            if u < acc:
                return i
    return last


def decoded_pairs(transcript) -> tuple[tuple[BitPair, ...], tuple[BitPair, ...]]:
    """(Alice's, Bob's) decoded pairs: outcome XOR own code on the final pass's message runs.

    Alice's decode reads Bob's message and Bob's reads Alice's. The final
    pass is every run with the largest pass index.
    """
    last = max(run.pass_index for run in transcript.runs)
    final = [run for run in transcript.runs if run.pass_index == last and run.mode == "MM"]
    alice_view = tuple(run.outcome ^ run.alice_code for run in final)
    return alice_view, tuple(run.outcome ^ run.bob_code for run in final)


def project_bell(
    state: StateVector, reg_a: str, reg_b: str, code: BitPair
) -> tuple[float, StateVector | None]:
    """Probability and collapsed state for one forced Bell outcome.

    The collapsed state is None when the outcome has (numerically) zero
    probability. The forced-outcome counterpart of ``bell_measure``,
    built from the same law and collapse kernels.
    """
    prob = quantum.bell_outcome_probs(state, reg_a, reg_b)[BitPair(*code)]
    if prob < PROB_FLOOR:
        return 0.0, None
    return prob, quantum._bell_post_state(state, reg_a, reg_b, ALL_CODES.index(BitPair(*code)))


def project_z(state: StateVector, reg: str, bit: int) -> tuple[float, StateVector | None]:
    """Probability and collapsed state for one forced up/down outcome.

    The collapsed state is None when the outcome has (numerically) zero
    probability. The forced-outcome counterpart of ``measure_z``, built
    from the same law and collapse kernels.
    """
    prob = quantum.z_outcome_probs(state, reg)[bit]
    if prob < PROB_FLOOR:
        return 0.0, None
    return prob, quantum._z_post_state(state, reg, bit)


def same_state(a: StateVector, b: StateVector, tol: float = 1e-9) -> bool:
    """True when the states are equal up to a global phase."""
    if a.registers != b.registers:
        return False
    return abs(abs(np.vdot(a.amps, b.amps)) - 1.0) <= tol


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix of qubit dimension."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"not square: shape {m.shape}")
        dim = m.shape[0]
        if dim & (dim - 1) or dim == 0:
            raise ValueError(f"dimension {dim} is not a power of two")
        if np.max(np.abs(m - m.conj().T)) > NORM_TOL:
            raise ValueError("matrix not Hermitian")
        if abs(np.trace(m).real - 1.0) > NORM_TOL:
            raise ValueError(f"trace is {np.trace(m).real!r}, want 1")
        if np.linalg.eigvalsh(m).min() < -NORM_TOL:
            raise ValueError("matrix has a negative eigenvalue")


def reduced_density(state: StateVector, keep: list[str] | tuple[str, ...]) -> DensityMatrix:
    """Partial trace down to the kept registers, in the order given."""
    keep = tuple(keep)
    if not keep:
        raise ValueError("must keep at least one register")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate names in keep list {keep}")
    axes = [state.axis(r) for r in keep]
    t = np.moveaxis(state.tensor(), axes, range(len(axes)))
    flat = t.reshape(2 ** len(keep), -1)
    return DensityMatrix(flat @ flat.conj().T)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy in bits, -sum(lam log2 lam), with 0 log 0 taken as 0."""
    lams = np.linalg.eigvalsh(rho.matrix)
    lams = np.clip(lams, 0.0, None)
    lams = lams[lams > 0.0]
    return max(float(-(lams * np.log2(lams)).sum()), 0.0)


def reference_dialogue(config, alice_msg, bob_msg, attack, rng) -> DialogueResult:
    """``protocol.run_dialogue`` with the quantum leg replayed on every run.

    Each run calls ``round_trip`` with Eve's real generator and draws
    Bob's outcome with ``bell_outcome`` on the state it leaves. The
    state machine and the order of every draw are ``run_dialogue``'s.
    """
    (eve_rng,) = rng.spawn(1)
    session = attack.new_session()
    runs = []
    cursor = pass_index = 0
    status = None
    while status is None:
        attack.begin_run(session)
        bob_code = bob_msg[cursor]
        is_cm = rng.random() < config.c
        alice_code = _random_pair(rng) if is_cm else alice_msg[cursor]
        channel = round_trip(bob_code, alice_code, attack, session, eve_rng)
        outcome = quantum.bell_outcome(channel.state, "h", channel.traveling, rng)
        run = RunRecord(cursor, pass_index, CM if is_cm else MM, bob_code, alice_code, outcome)
        runs.append(run)
        if not is_cm:
            attack.guess(session, outcome, eve_rng)
            session.score(alice_truth=alice_code, bob_truth=bob_code)
            cursor += 1
            if cursor == config.n_pairs:
                status = COMPLETED
        elif not run.cm_pass:
            if config.detection_policy == TERMINAL:
                status = DETECTED
            elif pass_index == config.max_restarts:
                status = ABORTED
            else:
                pass_index += 1
                cursor = 0
    return DialogueResult(Transcript(runs, status), session)


def reference_run_law(strategy) -> tuple[float, float, float]:
    """(per-control-run detection, Alice accuracy, Bob accuracy) from a fresh branch walk.

    Replays ``round_trip`` once per choice path of each of the 16 code
    pairs, with no run table, and folds the paths in the oracle's order.
    """
    failed = mass = alice_hits = bob_hits = 0.0
    for bob_code in ALL_CODES:
        for alice_code in ALL_CODES:
            expected = alice_code ^ bob_code
            pending = [()]
            while pending:
                walker = _BranchWalker(pending.pop())
                session = strategy.new_session()
                strategy.begin_run(session)
                channel = round_trip(bob_code, alice_code, strategy, session, walker)
                pending.extend(walker.unvisited)
                weight, log = walker.weight, session.current
                probs = quantum.bell_outcome_probs(channel.state, "h", channel.traveling)
                failed += weight * (1.0 - probs[expected])
                for outcome, prob in probs.items():
                    guesses = strategy.readout(log, outcome)
                    if guesses is None:
                        alice_hit = bob_hit = PURE_GUESS_ACCURACY
                    else:
                        alice_hit = guesses[0] == alice_code
                        bob_hit = guesses[1] == bob_code
                    mass += weight * prob
                    alice_hits += weight * prob * alice_hit
                    bob_hits += weight * prob * bob_hit
    rate = failed / 16.0
    return 0.0 if rate < 1e-12 else rate, alice_hits / mass, bob_hits / mass
