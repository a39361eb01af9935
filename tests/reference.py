"""Reference routines the tests check the package against.

No ``qdialogue`` command needs these: partial traces and entropies of
simulated states, equality up to a global phase, the forced-outcome Bell
and up/down projections, the cumulative detection curve as an explicit
sum, and each side's decode read straight off a transcript.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qdialogue import quantum
from qdialogue.quantum import ALL_CODES, NORM_TOL, PROB_FLOOR, BitPair, StateVector


def detection_after_runs_partial_sum(c: float, d: float, runs: int) -> float:
    """Same curve as ``analysis.detection_after_runs`` via the explicit geometric sum."""
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must lie strictly between 0 and 1, got {c}")
    return c * d * sum((1.0 - c * d) ** n for n in range(runs))


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
