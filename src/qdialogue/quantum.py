"""Exact state-vector quantum mechanics over named two-level registers.

Everything the dialogue simulation needs lives here: Bell-state
preparation, the two-bit-coded Pauli group with its composition phases,
Bell and computational-basis measurements with collapse, ancilla
handling, the eavesdropper's entangling probe, partial trace and von
Neumann entropy.

Conventions, fixed once (any consistent choice gives the same
measurement statistics):

* basis index 0 is spin-up, index 1 is spin-down; sigma_z keeps |up>
  and negates |down>
* sigma_y = [[0, -i], [i, 0]]
* the first name in ``StateVector.registers`` is the most significant
  bit of the amplitude index

States are immutable: no operation writes into its input, and each
returns a new ``StateVector`` or, when nothing changes, its input.
``bell_state`` hands out shared states with read-only amplitudes.
Normalization is asserted on every state built (tolerance 1e-9), never
silently repaired.

The primitives move amplitudes with index tables cached per register
count and axis rather than by transposing tensors. Every amplitude and
probability goes through the same floating-point operations as the
textbook kron/transpose formulation, so results agree with it bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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
    second = BitPair(*second)
    first = BitPair(*first)
    return PauliProduct(second ^ first, _COMPOSE_PHASE[(second, first)])


_COMPLEX = np.dtype(complex)

# Register tuples that already passed the length and duplicate checks;
# the protocol builds states over a handful of them. The amplitude
# count and the norm are still checked on every state.
_CHECKED_REGISTERS: set[tuple[str, ...]] = set()
_MAX_CHECKED_REGISTERS = 1024


@dataclass(frozen=True)
class StateVector:
    """Pure joint state of up to five named qubit registers.

    ``amps`` holds 2**n complex amplitudes indexed by the computational
    basis, with registers[0] as the most significant bit.
    """

    registers: tuple[str, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        regs = self.registers
        if type(regs) is not tuple:
            regs = tuple(regs)
            object.__setattr__(self, "registers", regs)
        if regs not in _CHECKED_REGISTERS:
            if not 1 <= len(regs) <= MAX_REGISTERS:
                raise ValueError(f"need 1..{MAX_REGISTERS} registers, got {len(regs)}")
            if len(set(regs)) != len(regs):
                raise ValueError(f"duplicate register names in {regs}")
            if len(_CHECKED_REGISTERS) < _MAX_CHECKED_REGISTERS:
                _CHECKED_REGISTERS.add(regs)
        amps = self.amps
        if not (type(amps) is np.ndarray and amps.dtype is _COMPLEX and amps.ndim == 1):
            amps = np.asarray(amps, dtype=complex).reshape(-1)
            object.__setattr__(self, "amps", amps)
        if amps.size != 1 << len(regs):
            raise ValueError(f"expected {1 << len(regs)} amplitudes, got {amps.size}")
        norm_sq = float(np.vdot(amps, amps).real)
        # The negated comparison also catches NaN/Inf amplitudes, whose
        # norm is non-finite.
        if not (abs(norm_sq - 1.0) <= NORM_TOL):
            raise ValueError(f"state not normalized (or not finite): |psi|^2 = {norm_sq!r}")

    @property
    def n_registers(self) -> int:
        return len(self.registers)

    def axis(self, reg: str) -> int:
        try:
            return self.registers.index(reg)
        except ValueError:
            raise ValueError(
                f"register {reg!r} not in state over {self.registers}"
            ) from None

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis of length 2 per register."""
        return self.amps.reshape((2,) * self.n_registers)


def _bell_amplitudes() -> dict[BitPair, np.ndarray]:
    base = np.zeros(4, dtype=complex)
    base[0b01] = base[0b10] = 1.0 / math.sqrt(2.0)
    table = {}
    for code in ALL_CODES:
        vec = np.kron(np.eye(2), PAULI_MATRICES[code]) @ base
        vec.setflags(write=False)
        table[code] = vec
    return table


_BELL_AMPS = _bell_amplitudes()


def bell_state(code: BitPair, regs: tuple[str, str] = ("h", "t")) -> StateVector:
    """Entangled pair |Psi_code> = (1 x C_code) applied to the base pair.

    The base pair is (|up,down> + |down,up>)/sqrt(2); the coded Pauli
    acts on the second (travel-side) register. The state returned is
    shared: one object per (code, regs), with read-only amplitudes.
    """
    regs = tuple(regs)
    try:
        return _shared_bell_state(code, regs)
    except TypeError:  # an unhashable code such as a list
        return _shared_bell_state(BitPair(*code), regs)


@functools.lru_cache(maxsize=256)
def _shared_bell_state(code: BitPair, regs: tuple[str, ...]) -> StateVector:
    return StateVector(regs, _BELL_AMPS[BitPair(*code)])


def _frozen(array: np.ndarray) -> np.ndarray:
    """Make a cached table read-only: every later call shares it."""
    array.setflags(write=False)
    return array


def _bit(index: int, n: int, ax: int) -> int:
    """The bit register ``ax`` of n reads in basis index ``index``."""
    return (index >> (n - 1 - ax)) & 1


@functools.cache
def _pauli_table(n: int, ax: int, code: BitPair) -> tuple[np.ndarray, np.ndarray | None] | None:
    """Gather order and phases of one coded Pauli on axis ``ax`` of n registers.

    Every row of a Pauli matrix has one nonzero entry, so output
    amplitude i is ``amps[perm[i]] * phase[i]``, read off PAULI_MATRICES.
    None stands for the identity; a None phase for all-ones phases.
    """
    matrix = PAULI_MATRICES.get(code)
    if matrix is None:
        raise ValueError(f"unknown Pauli code {code!r}")
    if code == IDENTITY:
        return None
    perm, phase = [], []
    for i in range(1 << n):
        row = _bit(i, n, ax)
        col = row if matrix[row, row] else 1 - row
        perm.append(i ^ ((row ^ col) << (n - 1 - ax)))
        phase.append(matrix[row, col])
    if all(p == 1 for p in phase):
        return _frozen(np.array(perm)), None
    return _frozen(np.array(perm)), _frozen(np.array(phase))


def apply_pauli(state: StateVector, reg: str, code: BitPair) -> StateVector:
    """Apply the coded single-qubit Pauli to one register.

    One gather and at most one multiply by a cached phase vector; the
    identity returns the input state itself.
    """
    ax = state.axis(reg)
    try:
        table = _pauli_table(len(state.registers), ax, code)
    except TypeError:  # an unhashable code such as a list
        table = _pauli_table(len(state.registers), ax, BitPair(*code))
    if table is None:
        return state
    perm, phase = table
    out = state.amps[perm]
    if phase is not None:
        out *= phase
    return StateVector(state.registers, out)


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Join two disjoint systems; a's registers become the high bits."""
    overlap = set(a.registers) & set(b.registers)
    if overlap:
        raise ValueError(f"register names shared between systems: {sorted(overlap)}")
    return StateVector(a.registers + b.registers, (a.amps[:, None] * b.amps).ravel())


_KET0 = _frozen(np.array([1.0, 0.0], dtype=complex))


def attach_ancilla(state: StateVector, reg: str) -> StateVector:
    """Tensor-extend with a fresh register in its fiducial (index-0) state."""
    if reg in state.registers:
        raise ValueError(f"register {reg!r} already present")
    return StateVector(state.registers + (reg,), (state.amps[:, None] * _KET0).ravel())


# Bell basis vectors in (regA, regB) order, stacked as rows in code order.
_BELL_BASIS = _frozen(np.stack([_BELL_AMPS[code] for code in ALL_CODES]))
_BELL_BASIS_CONJ = _frozen(_BELL_BASIS.conj())
# Each basis vector as a column: a collapse is one outer-product multiply.
_BELL_COLUMNS = tuple(_BELL_BASIS[k][:, None] for k in range(4))


def choose(probs, rng) -> int:
    """Draw an index with the given probabilities (summing to 1); zeros are never drawn.

    The one place a tap handler's randomness is drawn. A numpy Generator
    is consumed as one ``rng.random()``; anything else is asked to
    ``rng.pick(cleaned_probs)``, which lets an analysis walk every
    branch instead of sampling one.
    """
    cleaned = [p if p >= PROB_FLOOR else 0.0 for p in probs]
    total = sum(cleaned)
    if total <= 0.0:
        raise ValueError("no outcome has positive probability")
    if not isinstance(rng, np.random.Generator):
        return rng.pick(cleaned)
    u = rng.random() * total
    acc = 0.0
    last = -1
    for i, p in enumerate(cleaned):
        if p > 0.0:
            last = i
            acc += p
            if u < acc:
                return i
    return last  # fp boundary: u landed at the very top of the cumulative sum


def _front_perm(n: int, front: tuple[int, ...]) -> tuple[int, ...]:
    return front + tuple(i for i in range(n) if i not in front)


@functools.cache
def _bell_tables(n: int, ax_a: int, ax_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Orders that move the measured pair to the front and back again.

    ``amps[gather]`` lists the amplitudes with registers (ax_a, ax_b)
    leading; ``flat[scatter]`` undoes that.
    """
    front = _front_perm(n, (ax_a, ax_b))
    back = tuple(front.index(i) for i in range(n))
    index = np.arange(1 << n).reshape((2,) * n)
    return _frozen(index.transpose(front).ravel()), _frozen(index.transpose(back).ravel())


def _bell_overlaps(state: StateVector, reg_a: str, reg_b: str) -> tuple[np.ndarray, np.ndarray | None]:
    """<Psi_xy| applied to (reg_a, reg_b): a (4, rest) coefficient array.

    Also returns the scatter order a collapsed vector needs to get back
    to register order, None when the pair already leads.
    """
    ax_a, ax_b = state.axis(reg_a), state.axis(reg_b)
    if ax_a == ax_b:
        raise ValueError("Bell measurement needs two distinct registers")
    if ax_a == 0 and ax_b == 1:
        return _BELL_BASIS_CONJ @ state.amps.reshape(4, -1), None
    gather, scatter = _bell_tables(len(state.registers), ax_a, ax_b)
    return _BELL_BASIS_CONJ @ state.amps[gather].reshape(4, -1), scatter


def _bell_probs(overlaps: np.ndarray) -> list[float]:
    """Squared overlaps summed over the rest of the system, per outcome."""
    if overlaps.shape[1] == 1:
        # The same two squares and one add per outcome as the array route.
        return [z.real * z.real + z.imag * z.imag for z in overlaps.ravel().tolist()]
    return (overlaps.real**2 + overlaps.imag**2).sum(axis=1).tolist()


def bell_outcome_probs(state: StateVector, reg_a: str, reg_b: str) -> dict[BitPair, float]:
    """Probability of each Bell outcome on a register pair, no collapse."""
    overlaps, _ = _bell_overlaps(state, reg_a, reg_b)
    return dict(zip(ALL_CODES, _bell_probs(overlaps)))


def bell_measure(
    state: StateVector, reg_a: str, reg_b: str, rng: np.random.Generator
) -> tuple[BitPair, StateVector]:
    """Born-rule Bell measurement on (reg_a, reg_b) with full collapse.

    Returns the outcome code and the renormalized post-measurement joint
    state; correlations with any remaining registers survive the
    collapse.
    """
    overlaps, scatter = _bell_overlaps(state, reg_a, reg_b)
    probs = _bell_probs(overlaps)
    k = choose(probs, rng)
    return ALL_CODES[k], _collapse_bell(state, scatter, overlaps, k, probs[k])


def project_bell(
    state: StateVector, reg_a: str, reg_b: str, code: BitPair
) -> tuple[float, StateVector | None]:
    """Probability and collapsed state for one forced Bell outcome.

    The collapsed state is None when the outcome has (numerically) zero
    probability. The forced-outcome counterpart of ``bell_measure``.
    """
    overlaps, scatter = _bell_overlaps(state, reg_a, reg_b)
    k = ALL_CODES.index(BitPair(*code))
    prob = float(np.vdot(overlaps[k], overlaps[k]).real)
    if prob < PROB_FLOOR:
        return 0.0, None
    return prob, _collapse_bell(state, scatter, overlaps, k, prob)


def _collapse_bell(
    state: StateVector,
    scatter: np.ndarray | None,
    overlaps: np.ndarray,
    k: int,
    prob: float,
) -> StateVector:
    rest = overlaps[k] / math.sqrt(prob)
    flat = (_BELL_COLUMNS[k] * rest).ravel()
    if scatter is not None:
        flat = flat[scatter]
    return StateVector(state.registers, flat)


def z_outcome_probs(state: StateVector, reg: str) -> tuple[float, float]:
    """(P[index 0], P[index 1]) for a computational-basis measurement."""
    ax = state.axis(reg)
    t = state.amps.reshape(1 << ax, 2, -1)
    probs = (t.real**2 + t.imag**2).sum(axis=(0, 2))
    return float(probs[0]), float(probs[1])


def measure_z(
    state: StateVector, reg: str, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Born-rule single-register measurement in the up/down basis."""
    probs = z_outcome_probs(state, reg)
    bit = choose(probs, rng)
    prob, collapsed = project_z(state, reg, bit, prob=probs[bit])
    assert collapsed is not None
    return bit, collapsed


@functools.cache
def _z_index(n: int, ax: int, bit: int) -> np.ndarray:
    """Basis indices where register ``ax`` of n reads ``bit``, ascending."""
    return _frozen(np.array([i for i in range(1 << n) if _bit(i, n, ax) == bit]))


def project_z(
    state: StateVector, reg: str, bit: int, prob: float | None = None
) -> tuple[float, StateVector | None]:
    """Probability and collapsed state for one forced up/down outcome."""
    ax = state.axis(reg)
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    kept = _z_index(len(state.registers), ax, bit)
    amps = state.amps[kept]
    if prob is None:
        prob = float((amps.real**2 + amps.imag**2).sum())
    if prob < PROB_FLOOR:
        return 0.0, None
    out = np.zeros_like(state.amps)
    out[kept] = amps / math.sqrt(prob)
    return prob, StateVector(state.registers, out)


@functools.cache
def _probe_tables(n: int, ax_t: int, ax_e: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source indices of the probe map and where the ancilla reads 1.

    Output amplitude i is alpha * amps[i] where the ancilla reads 0, and
    beta * amps[j] where it reads 1, j being i with the target flipped
    and the ancilla reset. Returns (src, excited as 0/1, excited indices).
    """
    flip = (1 << (n - 1 - ax_t)) | (1 << (n - 1 - ax_e))
    excited = [_bit(i, n, ax_e) for i in range(1 << n)]
    src = [i ^ flip if e else i for i, e in enumerate(excited)]
    excited_idx = [i for i, e in enumerate(excited) if e]
    return _frozen(np.array(src)), _frozen(np.array(excited)), _frozen(np.array(excited_idx))


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
    src, excited, excited_idx = _probe_tables(len(state.registers), ax_t, ax_e)
    leaked = state.amps[excited_idx]
    if float(np.vdot(leaked, leaked).real) > NORM_TOL:
        raise ValueError("ancilla not in its fiducial state; probe undefined")
    coefficient = np.array((alpha, beta), dtype=complex)[excited]
    return StateVector(state.registers, state.amps[src] * coefficient)


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

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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


def same_state(a: StateVector, b: StateVector, tol: float = 1e-9) -> bool:
    """True when the states are equal up to a global phase."""
    if a.registers != b.registers:
        return False
    return abs(abs(np.vdot(a.amps, b.amps)) - 1.0) <= tol
