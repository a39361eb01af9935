"""Exact state-vector quantum mechanics over named two-level registers.

Everything the dialogue simulation needs lives here: Bell-state
preparation, the two-bit-coded Pauli group with its composition phases,
Bell and computational-basis measurements with collapse, ancilla
handling and the eavesdropper's entangling probe.

Conventions, fixed once (any consistent choice gives the same
measurement statistics):

* basis index 0 is spin-up, index 1 is spin-down; sigma_z keeps |up>
  and negates |down>
* sigma_y = [[0, -i], [i, 0]]
* the first name in ``StateVector.registers`` is the most significant
  bit of the amplitude index

States are immutable values. Their amplitudes are always read-only: a
state freezes the arrays the primitives allocate for it and copies,
once, a writeable array handed in by a caller, so a later write to that
array cannot change the state. No operation writes into its input; each
returns a new ``StateVector`` or, when nothing changes, its input.
Normalization is asserted on every state built (tolerance 1e-9), never
silently repaired.

Kernels take the forms the engine passes: ``BitPair`` codes, tuple
register names and positional arguments, and are written the plain
reshape/transpose way. The two measurements come in branch form:
``bell_branches`` and ``z_branches`` return every outcome, in code
order, with its cleaned probability and its post-measurement state, so
a tap hands ``protocol._build_table`` all its alternatives at once and
each law is computed once per call. ``bell_measure`` and ``measure_z``
sample those branches with one ``choose`` uniform.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

NORM_TOL = 1e-9
MAX_REGISTERS = 5

# Probabilities below this are treated as exact zeros when sampling, so a
# degenerate projection can never be drawn through rounding noise.
PROB_FLOOR = 1e-12


class BitPair(NamedTuple):
    """Two bits (a, b): a Pauli code, a message symbol, or a Bell outcome."""

    a: int
    b: int

    def __xor__(self, other: "BitPair") -> "BitPair":
        try:
            return _XOR[self, other]
        except (KeyError, TypeError):
            return BitPair(self.a ^ other[0], self.b ^ other[1])


IDENTITY = BitPair(0, 0)
ALL_CODES = (BitPair(0, 0), BitPair(0, 1), BitPair(1, 0), BitPair(1, 1))
# Componentwise XOR of every two codes, read by ``BitPair.__xor__``.
_XOR = {(x, y): BitPair(x.a ^ y.a, x.b ^ y.b) for x in ALL_CODES for y in ALL_CODES}

PAULI_MATRICES = {
    BitPair(0, 0): np.eye(2, dtype=complex),
    BitPair(0, 1): np.array([[0, 1], [1, 0]], dtype=complex),
    BitPair(1, 0): np.array([[0, -1j], [1j, 0]], dtype=complex),
    BitPair(1, 1): np.array([[1, 0], [0, -1]], dtype=complex),
}


class PauliProduct(NamedTuple):
    """Result of composing two coded Paulis: a code and a unit phase."""

    code: BitPair
    phase: complex


def _build_phase_table() -> dict[tuple[BitPair, BitPair], complex]:
    """Composition phases from the group structure alone.

    Identity absorbs, equal factors square to identity, and the three
    axes multiply cyclically with +i (x then y gives z, and so on
    around), -i against the cycle. The numeric matrices are deliberately
    not consulted here; they serve as the independent cross-check.
    """
    axis = {BitPair(0, 1): "x", BitPair(1, 0): "y", BitPair(1, 1): "z"}
    forward = {("x", "y"), ("y", "z"), ("z", "x")}
    table: dict[tuple[BitPair, BitPair], complex] = {}
    for second in ALL_CODES:
        for first in ALL_CODES:
            if second == IDENTITY or first == IDENTITY or second == first:
                table[(second, first)] = 1 + 0j
            elif (axis[second], axis[first]) in forward:
                table[(second, first)] = 1j
            else:
                table[(second, first)] = -1j
    return table


_COMPOSE_PHASE = _build_phase_table()


def pauli_compose(second: BitPair, first: BitPair) -> PauliProduct:
    """Compose coded Paulis: second followed-by first as a matrix product.

    Returns the code (componentwise XOR) and the phase such that
    C_second C_first = phase * C_code.
    """
    return PauliProduct(second ^ first, _COMPOSE_PHASE[(second, first)])


_COMPLEX = np.dtype(complex)


def _frozen(array: np.ndarray) -> np.ndarray:
    """Make an array read-only: every later holder shares it."""
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class StateVector:
    """Pure joint state of up to five named qubit registers.

    ``amps`` holds 2**n complex amplitudes indexed by the computational
    basis, with registers[0] as the most significant bit; it is always
    read-only.
    """

    registers: tuple[str, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        regs = self.registers
        if type(regs) is not tuple:
            regs = tuple(regs)
            object.__setattr__(self, "registers", regs)
        if not 1 <= len(regs) <= MAX_REGISTERS:
            raise ValueError(f"need 1..{MAX_REGISTERS} registers, got {len(regs)}")
        if len(set(regs)) != len(regs):
            raise ValueError(f"duplicate register names in {regs}")
        amps = self.amps
        if not (
            type(amps) is np.ndarray
            and amps.dtype is _COMPLEX
            and amps.ndim == 1
            and not amps.flags.writeable
        ):
            # A private copy: the caller may still write to its array.
            amps = _frozen(np.array(amps, dtype=complex).reshape(-1))
            object.__setattr__(self, "amps", amps)
        if amps.size != 1 << len(regs):
            raise ValueError(f"expected {1 << len(regs)} amplitudes, got {amps.size}")
        norm_sq = float(np.vdot(amps, amps).real)
        # The negated comparison also catches NaN/Inf amplitudes, whose
        # norm is non-finite.
        if not (abs(norm_sq - 1.0) <= NORM_TOL):
            raise ValueError(f"state not normalized (or not finite): |psi|^2 = {norm_sq!r}")

    def axis(self, reg: str) -> int:
        try:
            return self.registers.index(reg)
        except ValueError:
            raise ValueError(f"register {reg!r} not in state over {self.registers}") from None

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis of length 2 per register."""
        return self.amps.reshape((2,) * len(self.registers))


def _bell_amplitudes() -> dict[BitPair, np.ndarray]:
    base = np.zeros(4, dtype=complex)
    base[0b01] = base[0b10] = 1.0 / math.sqrt(2.0)
    return {code: _frozen(np.kron(np.eye(2), PAULI_MATRICES[code]) @ base) for code in ALL_CODES}


_BELL_AMPS = _bell_amplitudes()


@functools.lru_cache(maxsize=256)
def bell_state(code: BitPair, regs: tuple[str, str] = ("h", "t")) -> StateVector:
    """Entangled pair |Psi_code> = (1 x C_code) applied to the base pair.

    The base pair is (|up,down> + |down,up>)/sqrt(2); the coded Pauli
    acts on the second (travel-side) register. The state returned is
    shared: one cached object per distinct call, with read-only amplitudes.
    """
    return StateVector(regs, _BELL_AMPS[code])


def apply_pauli(state: StateVector, reg: str, code: BitPair) -> StateVector:
    """Apply the coded single-qubit Pauli to one register.

    The four codes are unrolled (each Pauli has one entry per row); the
    matrices in PAULI_MATRICES are the definition this must agree with.
    The identity returns the input state itself.
    """
    ax = state.axis(reg)
    if code not in PAULI_MATRICES:
        raise ValueError(f"unknown Pauli code {code!r}")
    if code == IDENTITY:
        return state
    amps = state.amps.reshape(1 << ax, 2, -1)
    out = np.empty_like(amps)
    if code[0] == 0:  # bit flip
        out[:, 0] = amps[:, 1]
        out[:, 1] = amps[:, 0]
    elif code[1] == 1:  # phase flip
        out[:, 0] = amps[:, 0]
        np.negative(amps[:, 1], out=out[:, 1])
    else:  # bit-and-phase flip
        np.multiply(amps[:, 1], -1j, out=out[:, 0])
        np.multiply(amps[:, 0], 1j, out=out[:, 1])
    return StateVector(state.registers, _frozen(out.reshape(-1)))


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Join two disjoint systems; a's registers become the high bits."""
    overlap = set(a.registers) & set(b.registers)
    if overlap:
        raise ValueError(f"register names shared between systems: {sorted(overlap)}")
    return StateVector(a.registers + b.registers, _frozen((a.amps[:, None] * b.amps).ravel()))


_KET0 = _frozen(np.array([1.0, 0.0], dtype=complex))


def attach_ancilla(state: StateVector, reg: str) -> StateVector:
    """Tensor-extend with a fresh register in its fiducial (index-0) state."""
    if reg in state.registers:
        raise ValueError(f"register {reg!r} already present")
    return StateVector(state.registers + (reg,), _frozen((state.amps[:, None] * _KET0).ravel()))


# Bell basis vectors in (regA, regB) order, stacked as rows in code order.
_BELL_BASIS = _frozen(np.stack([_BELL_AMPS[code] for code in ALL_CODES]))
_BELL_BASIS_CONJ = _frozen(_BELL_BASIS.conj())


def _clean(probs) -> tuple[list[float], float]:
    """``probs`` with each entry below ``PROB_FLOOR`` set to zero, and its sum.

    An all-zero law raises.
    """
    cleaned = [p if p >= PROB_FLOOR else 0.0 for p in probs]
    total = sum(cleaned)
    if total <= 0.0:
        raise ValueError("no outcome has positive probability")
    return cleaned, total


def cumulative(probs) -> tuple[float, tuple[float, ...], tuple[int, ...]]:
    """The thresholds ``cut`` reads: ``(total, running_sums, indices)``.

    ``total`` is the sum of the ``_clean`` law, each running sum adds its
    kept probabilities left to right, and ``indices`` holds each sum's
    outcome, then the last kept one again.
    """
    cleaned, total = _clean(probs)
    kept = [i for i, p in enumerate(cleaned) if p > 0.0]
    return total, tuple(accumulate(cleaned[i] for i in kept)), (*kept, kept[-1])


def cut(cum, u: float) -> int:
    """The index one uniform ``u`` selects from ``cumulative`` thresholds.

    ``u * total`` picks the first kept index whose running sum exceeds
    it (``bisect_right``), or the last kept one if it lands at the very
    top of the cumulative sum (an fp boundary).
    """
    total, sums, indices = cum
    return indices[bisect_right(sums, u * total)]


def choose(probs, rng: np.random.Generator) -> int:
    """Draw an index with the given probabilities (summing to 1); zeros are never drawn.

    One ``rng.random()``, cut by ``cumulative(probs)``. A law drawn many
    times can keep its ``cumulative`` and ``cut`` each uniform.
    """
    return cut(cumulative(probs), rng.random())


def _front_perm(n: int, front: tuple[int, ...]) -> tuple[int, ...]:
    return front + tuple(i for i in range(n) if i not in front)


def _bell_law(state: StateVector, reg_a: str, reg_b: str) -> tuple[tuple[float, ...], np.ndarray]:
    """Outcome probabilities of a Bell measurement on (reg_a, reg_b), in code order.

    Also returns the overlaps <Psi_xy| applied to the pair, a (4, rest)
    coefficient array.
    """
    ax_a, ax_b = state.axis(reg_a), state.axis(reg_b)
    if ax_a == ax_b:
        raise ValueError("Bell measurement needs two distinct registers")
    front = _front_perm(len(state.registers), (ax_a, ax_b))
    overlaps = _BELL_BASIS_CONJ @ state.tensor().transpose(front).reshape(4, -1)
    # Squared overlaps summed over the rest of the system, per outcome.
    return tuple((overlaps.real**2 + overlaps.imag**2).sum(axis=1).tolist()), overlaps


def bell_outcome_probs(state: StateVector, reg_a: str, reg_b: str) -> dict[BitPair, float]:
    """Probability of each Bell outcome on a register pair, no collapse."""
    return dict(zip(ALL_CODES, _bell_law(state, reg_a, reg_b)[0]))


def bell_branches(
    state: StateVector, reg_a: str, reg_b: str
) -> tuple[tuple[float, BitPair, StateVector | None], ...]:
    """Every Bell outcome on (reg_a, reg_b) with its post-measurement joint state.

    One (``_clean``ed probability, code, state) per outcome, in code
    order; the state is None where the probability is zero. Outcome k's
    state is Bell vector k on the pair times its overlap,
    renormalized by the law's probability, back in register order;
    correlations with any remaining registers survive the collapse.
    """
    probs, overlaps = _bell_law(state, reg_a, reg_b)
    n = len(state.registers)
    back = np.argsort(_front_perm(n, (state.axis(reg_a), state.axis(reg_b))))
    branches = []
    for k, p in enumerate(_clean(probs)[0]):
        collapsed = None
        if p > 0.0:
            rest = overlaps[k] / math.sqrt(probs[k])
            amps = np.outer(_BELL_BASIS[k], rest).reshape((2,) * n).transpose(back).ravel()
            collapsed = StateVector(state.registers, _frozen(amps))
        branches.append((p, ALL_CODES[k], collapsed))
    return tuple(branches)


def bell_measure(
    state: StateVector, reg_a: str, reg_b: str, rng: np.random.Generator
) -> tuple[BitPair, StateVector]:
    """Born-rule Bell measurement: one ``choose`` over ``bell_branches``."""
    branches = bell_branches(state, reg_a, reg_b)
    _, code, collapsed = branches[choose([p for p, _, _ in branches], rng)]
    return code, collapsed


def z_branches(state: StateVector, reg: str) -> tuple[tuple[float, int, StateVector | None], ...]:
    """Both up/down outcomes on ``reg``, as ``bell_branches`` gives them: bit 0, then bit 1.

    Each state keeps the outcome's half of the amplitudes, renormalized
    by its probability.
    """
    t = state.amps.reshape(1 << state.axis(reg), 2, -1)
    probs = (t.real**2 + t.imag**2).sum(axis=(0, 2)).tolist()
    branches = []
    for bit, p in enumerate(_clean(probs)[0]):
        collapsed = None
        if p > 0.0:
            out = np.zeros_like(t)
            np.divide(t[:, bit], math.sqrt(probs[bit]), out=out[:, bit])
            collapsed = StateVector(state.registers, _frozen(out.reshape(-1)))
        branches.append((p, bit, collapsed))
    return tuple(branches)


def measure_z(
    state: StateVector, reg: str, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Born-rule up/down measurement of one register: one ``choose`` over ``z_branches``."""
    branches = z_branches(state, reg)
    _, bit, collapsed = branches[choose([p for p, _, _ in branches], rng)]
    return bit, collapsed


def entangling_probe(
    state: StateVector, target: str, ancilla: str, alpha: float, beta: float
) -> StateVector:
    """Couple a fiducial ancilla to a target qubit with amplitude beta.

    Maps |down,chi> to alpha|down,chi0> + beta|up,chi1> and |up,chi> to
    alpha|up,chi0> + beta|down,chi1>, extended linearly over all other
    registers. Defined only on inputs whose ancilla is still in its
    fiducial state; anything else is rejected rather than completed to a
    full unitary.
    """
    if abs(alpha * alpha + beta * beta - 1.0) > 1e-12:
        raise ValueError(f"probe amplitudes violate alpha^2+beta^2=1: {alpha}, {beta}")
    ax_t, ax_e = state.axis(target), state.axis(ancilla)
    if ax_t == ax_e:
        raise ValueError("target and ancilla must be distinct registers")
    # The amplitudes split at both axes, as ``apply_pauli`` splits at
    # one; ``order`` views them as blocks indexed (target, ancilla).
    lo, hi = sorted((ax_t, ax_e))
    amps = state.amps.reshape(1 << lo, 2, 1 << (hi - lo - 1), 2, -1)
    order = (1, 3, 0, 2, 4) if ax_t < ax_e else (3, 1, 0, 2, 4)
    t = amps.transpose(order)
    if float(np.vdot(t[:, 1], t[:, 1]).real) > NORM_TOL:
        raise ValueError("ancilla not in its fiducial state; probe undefined")
    # Only ancilla-0 inputs carry weight.
    out = np.empty_like(amps)
    blocks = out.transpose(order)
    blocks[0, 0] = alpha * t[0, 0]
    blocks[1, 1] = beta * t[0, 0]
    blocks[1, 0] = alpha * t[1, 0]
    blocks[0, 1] = beta * t[1, 0]
    return StateVector(state.registers, _frozen(out.reshape(-1)))
