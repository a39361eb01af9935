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
register names and positional arguments. The deterministic ones (Pauli,
tensor product, ancilla, probe, and the Bell and up/down laws with their
collapses) are memoized by content: the key is every input bit, a
state's register names and amplitude bytes included, so a result is
computed once per distinct input and then shared. The engine's speed-up
is ``protocol.run_table``, which plays each run's quantum leg once per
choice path so that sampled runs call no kernel; the memo is what makes
building those tables cheap: the 16 code pairs of a strategy revisit a
few dozen states, so a kernel body runs only a few hundred times per
experiment and is written the plain reshape/transpose way. Random draws
are never cached: ``bell_outcome`` (the Bell draw without the collapse),
``bell_measure`` and ``measure_z`` call ``choose`` once per call, hit or
miss.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
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
    read-only. ``key`` is (registers, amplitude bytes), the state's
    identity for the kernel memo.
    """

    registers: tuple[str, ...]
    amps: np.ndarray
    key: tuple[tuple[str, ...], bytes] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "key", (regs, amps.tobytes()))

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


# Entries per memoized kernel. A whole eight-point probe sweep reaches
# about 600 distinct kernel inputs in all; a table that fills up is
# emptied and refilled, so memory stays bounded whatever the inputs.
MEMO_ENTRIES = 2048
_MEMO_TABLES: list[dict] = []
_AS_IS = frozenset({str, int, BitPair})
_float_bits = struct.Struct("<d").pack


def _arg_key(arg):
    """Memo key of an argument other than a state: floats by bit pattern."""
    if isinstance(arg, (float, np.floating)):
        return type(arg), _float_bits(arg)
    return arg


def _memoized(kernel):
    """Serve repeated calls of a pure kernel from a bounded per-process table.

    The key holds every input bit: a state stands for its ``key``, a
    float for its type and bit pattern (so 0.0 and -0.0 never share an
    entry), anything else for itself. Kernels take positional arguments
    only, and an unhashable one, such as a list code, raises
    ``TypeError``. Results are shared between callers, so a kernel must
    return only immutable values: states, tuples, read-only arrays. The
    kernel itself stays reachable as ``__wrapped__``.
    """
    table: dict = {}
    _MEMO_TABLES.append(table)

    @functools.wraps(kernel)
    def memoized(*args):
        key = tuple([
            a.key if type(a) is StateVector else a if type(a) in _AS_IS else _arg_key(a)
            for a in args
        ])
        try:
            return table[key]
        except KeyError:
            pass
        result = kernel(*args)
        if len(table) >= MEMO_ENTRIES:
            table.clear()
        table[key] = result
        return result

    return memoized


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


@functools.lru_cache(maxsize=256)
def bell_state(code: BitPair, regs: tuple[str, str] = ("h", "t")) -> StateVector:
    """Entangled pair |Psi_code> = (1 x C_code) applied to the base pair.

    The base pair is (|up,down> + |down,up>)/sqrt(2); the coded Pauli
    acts on the second (travel-side) register. The state returned is
    shared: one cached object per distinct call, with read-only amplitudes.
    """
    return StateVector(regs, _BELL_AMPS[code])


@_memoized
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


@_memoized
def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Join two disjoint systems; a's registers become the high bits."""
    overlap = set(a.registers) & set(b.registers)
    if overlap:
        raise ValueError(f"register names shared between systems: {sorted(overlap)}")
    return StateVector(a.registers + b.registers, _frozen((a.amps[:, None] * b.amps).ravel()))


_KET0 = _frozen(np.array([1.0, 0.0], dtype=complex))


@_memoized
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


def cumulative(probs) -> tuple[float, tuple[tuple[float, int], ...], int]:
    """The thresholds ``draw`` reads: ``(total, ((running_sum, index), ...), last_index)``.

    ``total`` is the sum of the ``_clean`` law and each running sum adds
    its kept probabilities left to right.
    """
    cleaned, total = _clean(probs)
    acc = 0.0
    sums = []
    for i, p in enumerate(cleaned):
        if p > 0.0:
            acc += p
            sums.append((acc, i))
    return total, tuple(sums), sums[-1][1]


def draw(cum, rng) -> int:
    """One index from ``cumulative`` thresholds, consuming exactly one ``rng.random()``.

    ``u = rng.random() * total`` picks the first kept index whose running
    sum exceeds ``u``, or the last kept one if ``u`` lands at the very top
    of the cumulative sum (an fp boundary).
    """
    total, sums, last = cum
    u = rng.random() * total
    for acc, i in sums:
        if u < acc:
            return i
    return last


def choose(probs, rng) -> int:
    """Draw an index with the given probabilities (summing to 1); zeros are never drawn.

    The one place a tap handler's randomness is drawn. A numpy Generator
    is consumed as one ``rng.random()``, through ``draw(cumulative(probs),
    rng)``; anything else is asked to ``rng.pick(cleaned_probs)``, which
    lets an analysis walk every branch instead of sampling one. A law
    drawn many times can keep its ``cumulative`` and call ``draw``.
    """
    if isinstance(rng, np.random.Generator):
        return draw(cumulative(probs), rng)
    return rng.pick(_clean(probs)[0])


def _front_perm(n: int, front: tuple[int, ...]) -> tuple[int, ...]:
    return front + tuple(i for i in range(n) if i not in front)


@_memoized
def _bell_law(state: StateVector, reg_a: str, reg_b: str) -> tuple[tuple[float, ...], np.ndarray]:
    """Outcome probabilities of a Bell measurement on (reg_a, reg_b), in code order.

    Also returns the overlaps <Psi_xy| applied to the pair, a read-only
    (4, rest) coefficient array.
    """
    ax_a, ax_b = state.axis(reg_a), state.axis(reg_b)
    if ax_a == ax_b:
        raise ValueError("Bell measurement needs two distinct registers")
    front = _front_perm(len(state.registers), (ax_a, ax_b))
    overlaps = _BELL_BASIS_CONJ @ state.tensor().transpose(front).reshape(4, -1)
    # Squared overlaps summed over the rest of the system, per outcome.
    probs = tuple((overlaps.real**2 + overlaps.imag**2).sum(axis=1).tolist())
    return probs, _frozen(overlaps)


def bell_outcome_probs(state: StateVector, reg_a: str, reg_b: str) -> dict[BitPair, float]:
    """Probability of each Bell outcome on a register pair, no collapse."""
    return dict(zip(ALL_CODES, _bell_law(state, reg_a, reg_b)[0]))


def bell_outcome(state: StateVector, reg_a: str, reg_b: str, rng: np.random.Generator) -> BitPair:
    """``bell_measure``'s outcome from the same single draw, without the collapse."""
    return ALL_CODES[choose(_bell_law(state, reg_a, reg_b)[0], rng)]


def bell_measure(
    state: StateVector, reg_a: str, reg_b: str, rng: np.random.Generator
) -> tuple[BitPair, StateVector]:
    """Born-rule Bell measurement on (reg_a, reg_b) with full collapse.

    Returns the outcome code (``bell_outcome``'s draw) and the
    renormalized post-measurement joint state; correlations with any
    remaining registers survive the collapse.
    """
    outcome = bell_outcome(state, reg_a, reg_b, rng)
    return outcome, _bell_post_state(state, reg_a, reg_b, ALL_CODES.index(outcome))


@_memoized
def _bell_post_state(state: StateVector, reg_a: str, reg_b: str, k: int) -> StateVector:
    """The state after Bell outcome ``ALL_CODES[k]``, renormalized by its law probability.

    Bell vector k on the pair times its renormalized overlap, back in
    register order.
    """
    probs, overlaps = _bell_law(state, reg_a, reg_b)
    n = len(state.registers)
    front = _front_perm(n, (state.axis(reg_a), state.axis(reg_b)))
    rest = overlaps[k] / math.sqrt(probs[k])
    collapsed = np.outer(_BELL_BASIS[k], rest).reshape((2,) * n).transpose(np.argsort(front))
    return StateVector(state.registers, _frozen(collapsed.ravel()))


@_memoized
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
    bit = choose(z_outcome_probs(state, reg), rng)
    return bit, _z_post_state(state, reg, bit)


@_memoized
def _z_post_state(state: StateVector, reg: str, bit: int) -> StateVector:
    """The state after reading ``bit`` on ``reg``, renormalized by its law probability."""
    t = state.amps.reshape(1 << state.axis(reg), 2, -1)
    out = np.zeros_like(t)
    np.divide(t[:, bit], math.sqrt(z_outcome_probs(state, reg)[bit]), out=out[:, bit])
    return StateVector(state.registers, _frozen(out.reshape(-1)))


@_memoized
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
    t = np.moveaxis(state.tensor(), (ax_t, ax_e), (0, 1)).reshape(2, 2, -1)
    if float(np.vdot(t[:, 1], t[:, 1]).real) > NORM_TOL:
        raise ValueError("ancilla not in its fiducial state; probe undefined")
    # Blocks indexed (target, ancilla); only ancilla-0 inputs carry weight.
    out = np.empty_like(t)
    out[0, 0] = alpha * t[0, 0]
    out[1, 1] = beta * t[0, 0]
    out[1, 0] = alpha * t[1, 0]
    out[0, 1] = beta * t[1, 0]
    out = np.moveaxis(out.reshape((2,) * len(state.registers)), (0, 1), (ax_t, ax_e))
    return StateVector(state.registers, _frozen(out.ravel()))
