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

Every kernel reaches the amplitudes by one route (``_route``): the
registers it names become the middle axis of an (A, 2**k, B) array, and
its result goes back to register order. Operators are applied as their
matrices: a Pauli as its ``PAULI_MATRICES`` entry, the probe as its 4x4
matrix on (target, ancilla). Both measurements are one routine over a
basis, the Bell vectors in code order or up then down: ``bell_branches``
and ``z_branches`` return every outcome with its cleaned probability and
post-measurement state, so a tap hands ``protocol._build_table`` all its
alternatives at once; ``bell_measure`` and ``measure_z`` sample them
with one ``choose`` uniform.
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
        return BitPair(self.a ^ other[0], self.b ^ other[1])


IDENTITY = BitPair(0, 0)
ALL_CODES = (BitPair(0, 0), BitPair(0, 1), BitPair(1, 0), BitPair(1, 1))


def _frozen(array: np.ndarray) -> np.ndarray:
    """Make an array read-only: every later holder shares it."""
    array.setflags(write=False)
    return array


PAULI_MATRICES = {
    BitPair(0, 0): _frozen(np.eye(2, dtype=complex)),
    BitPair(0, 1): _frozen(np.array([[0, 1], [1, 0]], dtype=complex)),
    BitPair(1, 0): _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex)),
    BitPair(1, 1): _frozen(np.array([[1, 0], [0, -1]], dtype=complex)),
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


def _axis(registers: tuple[str, ...], reg: str) -> int:
    try:
        return registers.index(reg)
    except ValueError:
        raise ValueError(f"register {reg!r} not in state over {registers}") from None


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
        return _axis(self.registers, reg)

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis of length 2 per register."""
        return self.amps.reshape((2,) * len(self.registers))


# The Bell basis, a row per code in code order: (1 x C_code) on the base pair.
_BELL_BASIS = _frozen(np.stack([np.kron(np.eye(2), PAULI_MATRICES[code]) @ (np.array([0, 1, 1, 0]) / math.sqrt(2.0))
                                for code in ALL_CODES]))
_BELL_AMPS = dict(zip(ALL_CODES, _BELL_BASIS))


@functools.lru_cache(maxsize=256)
def bell_state(code: BitPair, regs: tuple[str, str] = ("h", "t")) -> StateVector:
    """Entangled pair |Psi_code> = (1 x C_code) applied to the base pair.

    The base pair is (|up,down> + |down,up>)/sqrt(2); the coded Pauli
    acts on the second (travel-side) register. The state returned is
    shared: one cached object per distinct call, with read-only amplitudes.
    """
    return StateVector(regs, _BELL_AMPS[code])


@functools.lru_cache(maxsize=256)
def _layout(registers: tuple[str, ...], regs: tuple[str, ...]) -> tuple:
    """Where ``_route`` finds ``regs`` in a state over ``registers``: the shape of its view, then
    the transpose that brings them to the front and its inverse (both None for one register)."""
    axes = tuple(_axis(registers, reg) for reg in regs)
    if len(axes) == 1:
        return (1 << axes[0], 2, -1), None, None
    if len(set(axes)) < len(axes):
        raise ValueError(f"registers {regs} must be distinct")
    perm = axes + tuple(i for i in range(len(registers)) if i not in axes)
    return (1, 1 << len(axes), -1), perm, tuple(sorted(range(len(perm)), key=perm.__getitem__))


def _route(state: StateVector, regs: tuple[str, ...]):
    """The amplitudes as an (A, 2**k, B) array whose middle axis indexes the k named
    registers, in the order given, and the map that puts an array of that shape back in
    register order as a new state. One register is split where it lies, a view with no
    copy (A and B index the registers before and after it); more are moved to the front.
    """
    shape, perm, inverse = _layout(state.registers, regs)
    view = (state.amps if perm is None else state.tensor().transpose(perm)).reshape(shape)

    def back(out: np.ndarray) -> StateVector:
        if inverse is not None:
            out = out.reshape((2,) * len(inverse)).transpose(inverse)
        return StateVector(state.registers, _frozen(out.reshape(-1)))

    return view, back


def apply_pauli(state: StateVector, reg: str, code: BitPair) -> StateVector:
    """Apply the coded single-qubit Pauli, its ``PAULI_MATRICES`` entry, to one register.

    The identity returns the input state itself.
    """
    view, back = _route(state, (reg,))
    if code not in PAULI_MATRICES:
        raise ValueError(f"unknown Pauli code {code!r}")
    if code == IDENTITY:
        return state
    return back(PAULI_MATRICES[code] @ view)


# The measurement bases: rows in outcome order, their conjugates and the outcome
# labels. Bell vectors are in (regA, regB) order; up and down are the identity's rows.
_BELL = (_BELL_BASIS, _frozen(_BELL_BASIS.conj()), ALL_CODES)
_Z = (PAULI_MATRICES[IDENTITY], PAULI_MATRICES[IDENTITY], (0, 1))


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Join two disjoint systems; a's registers become the high bits."""
    overlap = set(a.registers) & set(b.registers)
    if overlap:
        raise ValueError(f"register names shared between systems: {sorted(overlap)}")
    return StateVector(a.registers + b.registers, _frozen((a.amps[:, None] * b.amps).ravel()))


def attach_ancilla(state: StateVector, reg: str) -> StateVector:
    """Tensor-extend with a fresh register in its fiducial (index-0, up) state."""
    if reg in state.registers:
        raise ValueError(f"register {reg!r} already present")
    return StateVector(state.registers + (reg,), _frozen((state.amps[:, None] * _Z[0][0]).ravel()))


def _clean(probs) -> tuple[list[float], float]:
    """``probs`` with each entry below ``PROB_FLOOR`` set to zero, and its sum; an all-zero law raises."""
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


def _law(state: StateVector, regs: tuple[str, ...], basis):
    """Outcome probabilities of measuring ``regs`` in ``basis``, in outcome order, then the
    overlaps of each basis row with the registers, an (A, outcomes, B) array, and the route back.
    """
    view, back = _route(state, regs)
    overlaps = basis[1] @ view
    # Squared overlaps summed over the rest of the system, per outcome.
    return tuple((overlaps.real**2 + overlaps.imag**2).sum(axis=(0, 2)).tolist()), overlaps, back


def _branches(state: StateVector, regs: tuple[str, ...], basis) -> tuple:
    """Every outcome of measuring ``regs`` in ``basis`` with its post-measurement joint state.

    One (``_clean``ed probability, label, state) per outcome, in outcome
    order; the state is None where the probability is zero. Outcome k's
    state is basis row k on the registers times its overlap,
    renormalized by the law's probability, back in register order;
    correlations with any remaining registers survive the collapse.
    """
    probs, overlaps, back = _law(state, regs, basis)
    branches = []
    for k, p in enumerate(_clean(probs)[0]):
        collapsed = None
        if p > 0.0:
            collapsed = back(basis[0][k, :, None] * (overlaps[:, k : k + 1] / math.sqrt(probs[k])))
        branches.append((p, basis[2][k], collapsed))
    return tuple(branches)


def _bell_law(state: StateVector, reg_a: str, reg_b: str):
    """``_law`` of a Bell measurement on (reg_a, reg_b): its probabilities first, in code order."""
    return _law(state, (reg_a, reg_b), _BELL)


def bell_outcome_probs(state: StateVector, reg_a: str, reg_b: str) -> dict[BitPair, float]:
    """Probability of each Bell outcome on a register pair, no collapse."""
    return dict(zip(ALL_CODES, _bell_law(state, reg_a, reg_b)[0]))


def bell_branches(state: StateVector, reg_a: str, reg_b: str) -> tuple[tuple[float, BitPair, StateVector | None], ...]:
    """Every Bell outcome on (reg_a, reg_b), in code order, as ``_branches`` gives it."""
    return _branches(state, (reg_a, reg_b), _BELL)


def bell_measure(state: StateVector, reg_a: str, reg_b: str, rng: np.random.Generator) -> tuple[BitPair, StateVector]:
    """Born-rule Bell measurement: one ``choose`` over ``bell_branches``."""
    branches = bell_branches(state, reg_a, reg_b)
    return branches[choose([p for p, _, _ in branches], rng)][1:]


def z_branches(state: StateVector, reg: str) -> tuple[tuple[float, int, StateVector | None], ...]:
    """Both up/down outcomes on ``reg``, bit 0 then bit 1, as ``_branches`` gives them."""
    return _branches(state, (reg,), _Z)


def measure_z(state: StateVector, reg: str, rng: np.random.Generator) -> tuple[int, StateVector]:
    """Born-rule up/down measurement of one register: one ``choose`` over ``z_branches``."""
    branches = z_branches(state, reg)
    return branches[choose([p for p, _, _ in branches], rng)][1:]


def entangling_probe(state: StateVector, target: str, ancilla: str, alpha: float, beta: float) -> StateVector:
    """Couple a fiducial ancilla to a target qubit with amplitude beta.

    Maps |down,chi> to alpha|down,chi0> + beta|up,chi1> and |up,chi> to
    alpha|up,chi0> + beta|down,chi1>, extended linearly over all other
    registers. Defined only on inputs whose ancilla is still in its
    fiducial state; anything else is rejected rather than completed to a
    full unitary.
    """
    if abs(alpha * alpha + beta * beta - 1.0) > 1e-12:
        raise ValueError(f"probe amplitudes violate alpha^2+beta^2=1: {alpha}, {beta}")
    view, back = _route(state, (target, ancilla))
    # Rows 0b01 and 0b11 of the (target, ancilla) axis hold an excited ancilla.
    if float(np.vdot(view[:, 1::2], view[:, 1::2]).real) > NORM_TOL:
        raise ValueError("ancilla not in its fiducial state; probe undefined")
    # Columns of an excited ancilla are never reached and stay zero.
    probe = np.array([[alpha, 0, 0, 0], [0, 0, beta, 0], [0, 0, alpha, 0], [beta, 0, 0, 0]], dtype=complex)
    return back(probe @ view)
