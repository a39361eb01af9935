"""The reshape/transpose kernels of ``quantum`` against dense definitions.

Every expected value here is built the slow, obvious way: full
2**n x 2**n operators assembled with ``np.kron`` from PAULI_MATRICES and
the Bell basis vectors, applied by matrix-vector products. The kernels
must agree on every register count the state vector allows, every axis
(every ordered axis pair for the Bell measurement), every code and
every outcome of the branch forms ``bell_branches`` and ``z_branches``.

A cold run-table build is also checked to compute each prefix state
once: within one code pair, no kernel is called twice on one input.
"""

import itertools
import math
from collections import OrderedDict

import numpy as np
import pytest

from qdialogue import attacks, protocol, quantum
from qdialogue.attacks import strategy_from_name
from qdialogue.protocol import value_tables
from qdialogue.quantum import (
    ALL_CODES,
    MAX_REGISTERS,
    PAULI_MATRICES,
    PROB_FLOOR,
    BitPair,
    StateVector,
    apply_pauli,
    attach_ancilla,
    bell_branches,
    bell_measure,
    bell_outcome_probs,
    bell_state,
    entangling_probe,
    measure_z,
    tensor_product,
    z_branches,
)
from reference import STRATEGY_VALUES, bell_outcome

TOL = 1e-12
NAMES = "abcde"
SIZES = range(1, MAX_REGISTERS + 1)


def random_state(rng: np.random.Generator, n: int) -> StateVector:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(tuple(NAMES[:n]), amps / np.linalg.norm(amps))


def embed(ops: dict[int, np.ndarray], n: int) -> np.ndarray:
    """kron of the given 2x2 factors at their axes, identity elsewhere."""
    full = np.eye(1)
    for ax in range(n):
        full = np.kron(full, ops.get(ax, np.eye(2)))
    return full


def unit(i: int, k: int) -> np.ndarray:
    """The 2x2 matrix |i><k|."""
    m = np.zeros((2, 2))
    m[i, k] = 1.0
    return m


def embed_pair(op: np.ndarray, n: int, ax_a: int, ax_b: int) -> np.ndarray:
    """A 4x4 operator on (ax_a, ax_b), ax_a the high bit, as a 2**n operator."""
    full = np.zeros((1 << n, 1 << n), dtype=complex)
    for (i, j), (k, l) in itertools.product(itertools.product((0, 1), repeat=2), repeat=2):
        full += op[2 * i + j, 2 * k + l] * embed({ax_a: unit(i, k), ax_b: unit(j, l)}, n)
    return full


def bell_projector(code: BitPair) -> np.ndarray:
    vec = np.kron(np.eye(2), PAULI_MATRICES[code]) @ np.array([0, 1, 1, 0]) / math.sqrt(2.0)
    return np.outer(vec, vec.conj())


# The probe on (target, ancilla) with the ancilla in |0>: |0,0> goes to
# alpha|0,0> + beta|1,1> and |1,0> to alpha|1,0> + beta|0,1>. Columns of
# an excited ancilla are never reached and stay zero.
def probe_operator(alpha: float, beta: float) -> np.ndarray:
    op = np.zeros((4, 4))
    op[0b00, 0b00] = op[0b10, 0b10] = alpha
    op[0b11, 0b00] = op[0b01, 0b10] = beta
    return op


def pairs(n: int):
    return itertools.permutations(range(n), 2)


@pytest.fixture
def rng():
    return np.random.default_rng(20040610)


@pytest.mark.parametrize("n", SIZES)
def test_apply_pauli_matches_dense(rng, n):
    state = random_state(rng, n)
    for ax, code in itertools.product(range(n), ALL_CODES):
        expected = embed({ax: PAULI_MATRICES[code]}, n) @ state.amps
        got = apply_pauli(state, NAMES[ax], code)
        assert got.registers == state.registers
        np.testing.assert_allclose(got.amps, expected, rtol=0, atol=TOL)


def assert_branch_matches(branch, outcome, projected):
    """One branch against its dense projection: outcome, probability and renormalized state."""
    prob, got_outcome, collapsed = branch
    expected = np.vdot(projected, projected).real
    assert got_outcome == outcome
    if expected < PROB_FLOOR:
        assert prob == 0.0 and collapsed is None
    else:
        assert prob == pytest.approx(expected, abs=TOL)
        np.testing.assert_allclose(collapsed.amps, projected / math.sqrt(expected), rtol=0, atol=TOL)


@pytest.mark.parametrize("n", SIZES[1:])
def test_bell_branches_match_dense(rng, n):
    states = random_state(rng, n), sparse_state(rng, n)
    for ax_a, ax_b in pairs(n):
        regs = NAMES[ax_a], NAMES[ax_b]
        branches = [bell_branches(state, *regs) for state in states]
        for k, code in enumerate(ALL_CODES):
            projector = embed_pair(bell_projector(code), n, ax_a, ax_b)
            for state, of_state in zip(states, branches):
                assert len(of_state) == 4
                projected = projector @ state.amps
                assert_branch_matches(of_state[k], code, projected)
                prob = bell_outcome_probs(state, *regs)[code]
                assert prob == pytest.approx(np.vdot(projected, projected).real, abs=TOL)
                assert of_state[k][0] == (prob if prob >= PROB_FLOOR else 0.0)


@pytest.mark.parametrize("n", SIZES)
def test_z_branches_match_dense(rng, n):
    for state in (random_state(rng, n), sparse_state(rng, n)):
        for ax in range(n):
            branches = z_branches(state, NAMES[ax])
            assert len(branches) == 2
            for bit, branch in enumerate(branches):
                assert_branch_matches(branch, bit, embed({ax: unit(bit, bit)}, n) @ state.amps)


@pytest.mark.parametrize("n", SIZES[1:])
def test_entangling_probe_matches_dense(rng, n):
    alpha, beta = math.sqrt(0.7), math.sqrt(0.3)
    for ax_t, ax_e in pairs(n):
        # A random state with the ancilla projected onto its fiducial state.
        fiducial = embed({ax_e: unit(0, 0)}, n) @ random_state(rng, n).amps
        state = StateVector(tuple(NAMES[:n]), fiducial / np.linalg.norm(fiducial))
        expected = embed_pair(probe_operator(alpha, beta), n, ax_t, ax_e) @ state.amps
        got = entangling_probe(state, NAMES[ax_t], NAMES[ax_e], alpha, beta)
        np.testing.assert_allclose(got.amps, expected, rtol=0, atol=TOL)


@pytest.mark.parametrize("n", SIZES[:-1])
def test_tensor_product_and_ancilla_match_kron(rng, n):
    state = random_state(rng, n)
    for m in range(1, MAX_REGISTERS - n + 1):
        other = random_state(rng, m)
        other = StateVector(tuple("vwxyz"[:m]), other.amps)
        joined = tensor_product(state, other)
        assert joined.registers == state.registers + other.registers
        np.testing.assert_allclose(joined.amps, np.kron(state.amps, other.amps), rtol=0, atol=TOL)
    extended = attach_ancilla(state, "z")
    assert extended.registers == state.registers + ("z",)
    np.testing.assert_allclose(extended.amps, np.kron(state.amps, [1, 0]), rtol=0, atol=TOL)


def transpose_bell(state: StateVector, ax_a: int, ax_b: int, k: int):
    """Bell probabilities and collapse the textbook way: move the pair to
    the front, project, move it back."""
    n = len(state.registers)
    perm = (ax_a, ax_b) + tuple(i for i in range(n) if i not in (ax_a, ax_b))
    basis = np.stack([bell_state(code).amps for code in ALL_CODES])
    overlaps = basis.conj() @ state.amps.reshape((2,) * n).transpose(perm).reshape(4, -1)
    probs = (overlaps.real**2 + overlaps.imag**2).sum(axis=1)
    rest = overlaps[k] / math.sqrt(probs[k])
    collapsed = np.outer(basis[k], rest).reshape((2,) * n).transpose(np.argsort(perm))
    return probs.tolist(), collapsed.ravel()


@pytest.mark.parametrize("n", SIZES[1:])
def test_bell_measurement_is_bit_identical_to_transpose_route(rng, n):
    # The pinned document digests rely on equality, not closeness.
    state = random_state(rng, n)
    for seed, (ax_a, ax_b) in enumerate(pairs(n)):
        probs = bell_outcome_probs(state, NAMES[ax_a], NAMES[ax_b])
        outcome, collapsed = bell_measure(state, NAMES[ax_a], NAMES[ax_b], np.random.default_rng(seed))
        expected_probs, expected = transpose_bell(state, ax_a, ax_b, ALL_CODES.index(outcome))
        assert list(probs.values()) == expected_probs
        np.testing.assert_array_equal(collapsed.amps, expected)
        for k, (prob, _, branch_state) in enumerate(bell_branches(state, NAMES[ax_a], NAMES[ax_b])):
            assert prob == expected_probs[k]
            np.testing.assert_array_equal(branch_state.amps, transpose_bell(state, ax_a, ax_b, k)[1])


@pytest.mark.parametrize("n", SIZES[1:])
def test_bell_outcome_is_bell_measure_without_the_collapse(rng, n, monkeypatch):
    state = random_state(rng, n)
    expected = [
        bell_measure(state, NAMES[a], NAMES[b], np.random.default_rng(seed))[0]
        for seed, (a, b) in enumerate(pairs(n))
    ]

    def no_collapse(*args):
        raise AssertionError("bell_outcome computed a collapse")

    monkeypatch.setattr(quantum, "bell_branches", no_collapse)
    got = [
        bell_outcome(state, NAMES[a], NAMES[b], np.random.default_rng(seed))
        for seed, (a, b) in enumerate(pairs(n))
    ]
    assert got == expected


def after_one_draw(seed: int) -> dict:
    twin = np.random.default_rng(seed)
    twin.random()
    return twin.bit_generator.state


@pytest.mark.parametrize("n", SIZES[1:])
def test_measurements_draw_exactly_one_uniform(rng, n):
    state = random_state(rng, n)
    for seed, (ax_a, ax_b) in enumerate(pairs(n)):
        draws = np.random.default_rng(seed)
        bell_measure(state, NAMES[ax_a], NAMES[ax_b], draws)
        assert draws.bit_generator.state == after_one_draw(seed)
        draws = np.random.default_rng(seed)
        bell_outcome(state, NAMES[ax_a], NAMES[ax_b], draws)
        assert draws.bit_generator.state == after_one_draw(seed)
    for ax in range(n):
        draws = np.random.default_rng(ax)
        measure_z(state, NAMES[ax], draws)
        assert draws.bit_generator.state == after_one_draw(ax)


# -- shared states stay immutable ---------------------------------------------


def test_bell_states_are_shared_and_read_only():
    for code in ALL_CODES:
        state = bell_state(code)
        assert bell_state(tuple(code)) is state
        with pytest.raises(ValueError, match="read-only"):
            state.amps[0] = 1.0
    assert bell_state(BitPair(0, 0), regs=("H", "T")) is not bell_state(BitPair(0, 0))


def primitive_calls(n: int):
    """Each state-taking primitive as a call on an n-register input."""
    a, b, last = NAMES[0], NAMES[1], NAMES[n - 1]
    calls = [
        lambda s: apply_pauli(s, last, BitPair(1, 0)),
        lambda s: bell_outcome_probs(s, b, a),
        lambda s: bell_measure(s, last, a, np.random.default_rng(0)),
        lambda s: bell_branches(s, a, last),
        lambda s: measure_z(s, last, np.random.default_rng(1)),
        lambda s: z_branches(s, a),
    ]
    if n < MAX_REGISTERS:
        other = StateVector(("q",), [0.6, 0.8j])
        calls += [
            lambda s: tensor_product(s, other),
            lambda s: tensor_product(other, s),
            lambda s: attach_ancilla(s, "z"),
        ]
    return calls


def arrays_in(result) -> list[np.ndarray]:
    """Every array a primitive's result holds, a state's amplitudes included."""
    if isinstance(result, StateVector):
        return [result.amps]
    if isinstance(result, np.ndarray):
        return [result]
    if isinstance(result, tuple):
        return [array for item in result for array in arrays_in(item)]
    return []


@pytest.mark.parametrize("n", [2, 4, 5])
def test_no_primitive_writes_into_its_input(rng, n):
    state = random_state(rng, n)
    snapshot = state.amps.copy()
    for call in primitive_calls(n):
        assert not any(out.flags.writeable for out in arrays_in(call(state)))
        np.testing.assert_array_equal(state.amps, snapshot)
    # The probe needs an ancilla in its fiducial state: the last register.
    fiducial = attach_ancilla(random_state(rng, n - 1), "z")
    snapshot = fiducial.amps.copy()
    assert not entangling_probe(fiducial, "a", "z", 0.8, 0.6).amps.flags.writeable
    np.testing.assert_array_equal(fiducial.amps, snapshot)


def test_state_keeps_its_own_copy_of_a_caller_array():
    for given in (np.array([0.6, 0.8j]), np.array([[0.6], [0.8j]])):
        state = StateVector(("q",), given)
        given[...] = 0.0
        np.testing.assert_array_equal(state.amps, [0.6, 0.8j])
        with pytest.raises(ValueError, match="read-only"):
            state.amps[0] = 1.0


# -- every kernel, every input form ------------------------------------------


def sparse_state(rng: np.random.Generator, n: int) -> StateVector:
    """A random state on a random nonempty subset of the basis."""
    amps = random_state(rng, n).amps * (rng.random(1 << n) < 0.4)
    amps[rng.integers(1 << n)] = 1.0
    return StateVector(tuple(NAMES[:n]), amps / np.linalg.norm(amps))


def fiducial_state(rng: np.random.Generator, n: int, ax_e: int) -> StateVector:
    amps = embed({ax_e: unit(0, 0)}, n) @ random_state(rng, n).amps
    return StateVector(tuple(NAMES[:n]), amps / np.linalg.norm(amps))


def kernel_calls(rng: np.random.Generator):
    """(kernel, args) for every state kernel over 1-5 registers, dense and
    sparse states, every axis, ordered pair and code."""
    calls = []
    for n in SIZES:
        for state in (random_state(rng, n), sparse_state(rng, n)):
            calls += [(apply_pauli, (state, NAMES[ax], code))
                      for ax, code in itertools.product(range(n), ALL_CODES)]
            calls += [(z_branches, (state, NAMES[ax])) for ax in range(n)]
            calls += [(bell_branches, (state, NAMES[ax_a], NAMES[ax_b])) for ax_a, ax_b in pairs(n)]
            if n < MAX_REGISTERS:
                calls.append((attach_ancilla, (state, "z")))
                m = MAX_REGISTERS - n
                other = StateVector(tuple("vwxyz"[:m]), random_state(rng, m).amps)
                calls += [(tensor_product, (state, other)), (tensor_product, (other, state))]
        for ax_t, ax_e in pairs(n):
            state = fiducial_state(rng, n, ax_e)
            calls += [(entangling_probe, (state, NAMES[ax_t], NAMES[ax_e], alpha, beta))
                      for alpha, beta in ((0.8, 0.6), (1.0, 0.0), (1.0, -0.0), (0.0, 1.0))]
    return calls


def test_kernel_results_are_read_only(rng):
    for kernel, args in kernel_calls(rng):
        assert not any(out.flags.writeable for out in arrays_in(kernel(*args))), kernel.__name__


def test_unknown_pauli_codes_are_rejected():
    state = bell_state(BitPair(0, 0))
    for code in ((2, 0), (1, 0, 1)):
        with pytest.raises(ValueError, match="unknown Pauli code"):
            apply_pauli(state, "t", code)


# The kernels a run-table build reaches, by the module that calls them.
BUILD_KERNELS = {
    protocol: ("apply_pauli", "bell_state", "_bell_law"),
    attacks: ("apply_pauli", "attach_ancilla", "bell_branches", "bell_state", "entangling_probe",
              "tensor_product", "z_branches"),
}


def input_key(args) -> tuple:
    """A call's inputs, each state by its register names and amplitude bytes."""
    return tuple((a.registers, a.amps.tobytes()) if isinstance(a, StateVector) else a for a in args)


@pytest.mark.parametrize("name, beta2", STRATEGY_VALUES)
def test_a_cold_build_calls_no_kernel_twice_on_one_input(name, beta2, monkeypatch):
    calls, per_pair = [], []
    for module, kernels in BUILD_KERNELS.items():
        for kernel_name in kernels:
            kernel = getattr(module, kernel_name)

            def counted(*args, kernel=kernel):
                result = kernel(*args)
                if result is not args[0]:  # the identity Pauli computes nothing
                    calls.append((kernel.__name__, input_key(args)))
                return result

            monkeypatch.setattr(module, kernel_name, counted)
    build = protocol._build_table

    def counted_build(*args):
        calls.clear()
        table = build(*args)
        per_pair.append(list(calls))
        return table

    monkeypatch.setattr(protocol, "_build_table", counted_build)
    monkeypatch.setattr(protocol, "_TABLES", OrderedDict())
    value_tables(strategy_from_name(name, beta2))
    assert len(per_pair) == 16
    for pair_calls in per_pair:
        assert pair_calls and len(set(pair_calls)) == len(pair_calls)
