"""The memoized reshape/transpose kernels of ``quantum`` against dense definitions.

Every expected value here is built the slow, obvious way: full
2**n x 2**n operators assembled with ``np.kron`` from PAULI_MATRICES and
the Bell basis vectors, applied by matrix-vector products. The kernels
must agree on every register count the state vector allows, every axis
(every ordered axis pair for the Bell measurement) and every code.

The memoized kernels are also checked against their own uncached
bodies (``__wrapped__``), bit for bit.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from qdialogue import protocol, quantum
from qdialogue.attacks import STRATEGY_NAMES
from qdialogue.harness import ExperimentConfig, run_experiment, to_json
from qdialogue.protocol import DETECTION_POLICIES
from qdialogue.quantum import (
    ALL_CODES,
    MAX_REGISTERS,
    MEMO_ENTRIES,
    PAULI_MATRICES,
    PROB_FLOOR,
    BitPair,
    StateVector,
    apply_pauli,
    attach_ancilla,
    bell_measure,
    bell_outcome_probs,
    bell_state,
    entangling_probe,
    measure_z,
    tensor_product,
    z_outcome_probs,
)
from reference import bell_outcome, project_bell, project_z

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


@pytest.mark.parametrize("n", SIZES[1:])
def test_bell_probs_and_collapse_match_dense(rng, n):
    state = random_state(rng, n)
    for ax_a, ax_b in pairs(n):
        regs = NAMES[ax_a], NAMES[ax_b]
        probs = bell_outcome_probs(state, *regs)
        for code in ALL_CODES:
            projected = embed_pair(bell_projector(code), n, ax_a, ax_b) @ state.amps
            expected = np.vdot(projected, projected).real
            assert probs[code] == pytest.approx(expected, abs=TOL)
            prob, collapsed = project_bell(state, *regs, code)
            assert prob == pytest.approx(expected, abs=TOL)
            np.testing.assert_allclose(collapsed.amps, projected / math.sqrt(expected), rtol=0, atol=TOL)


@pytest.mark.parametrize("n", SIZES)
def test_z_probs_and_collapse_match_dense(rng, n):
    state = random_state(rng, n)
    for ax in range(n):
        probs = z_outcome_probs(state, NAMES[ax])
        for bit in (0, 1):
            projected = embed({ax: unit(bit, bit)}, n) @ state.amps
            expected = np.vdot(projected, projected).real
            assert probs[bit] == pytest.approx(expected, abs=TOL)
            prob, collapsed = project_z(state, NAMES[ax], bit)
            assert prob == pytest.approx(expected, abs=TOL)
            np.testing.assert_allclose(collapsed.amps, projected / math.sqrt(expected), rtol=0, atol=TOL)


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


@pytest.mark.parametrize("n", SIZES[1:])
def test_bell_outcome_is_bell_measure_without_the_collapse(rng, n, monkeypatch):
    state = random_state(rng, n)
    expected = [
        bell_measure(state, NAMES[a], NAMES[b], np.random.default_rng(seed))[0]
        for seed, (a, b) in enumerate(pairs(n))
    ]

    def no_collapse(*args):
        raise AssertionError("bell_outcome computed a collapse")

    monkeypatch.setattr(quantum, "_bell_post_state", no_collapse)
    got = [
        bell_outcome(state, NAMES[a], NAMES[b], np.random.default_rng(seed))
        for seed, (a, b) in enumerate(pairs(n))
    ]
    assert got == expected


def after_one_draw(seed: int) -> dict:
    twin = np.random.default_rng(seed)
    twin.random()
    return twin.bit_generator.state


def clear_memo() -> None:
    for table in quantum._MEMO_TABLES:
        table.clear()


@pytest.mark.parametrize("n", SIZES[1:])
def test_measurements_draw_exactly_one_uniform(rng, n):
    state = random_state(rng, n)
    clear_memo()
    for _ in ("miss", "hit"):
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
        lambda s: project_bell(s, a, last, BitPair(0, 1)),
        lambda s: z_outcome_probs(s, b),
        lambda s: measure_z(s, last, np.random.default_rng(1)),
        lambda s: project_z(s, a, 1),
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


# -- the kernel memo ----------------------------------------------------------


def sparse_state(rng: np.random.Generator, n: int) -> StateVector:
    """A random state on a random nonempty subset of the basis."""
    amps = random_state(rng, n).amps * (rng.random(1 << n) < 0.4)
    amps[rng.integers(1 << n)] = 1.0
    return StateVector(tuple(NAMES[:n]), amps / np.linalg.norm(amps))


def fiducial_state(rng: np.random.Generator, n: int, ax_e: int) -> StateVector:
    amps = embed({ax_e: unit(0, 0)}, n) @ random_state(rng, n).amps
    return StateVector(tuple(NAMES[:n]), amps / np.linalg.norm(amps))


def memo_calls(rng: np.random.Generator):
    """(kernel, args) for every memoized kernel over 1-5 registers, dense and
    sparse states, every axis, ordered pair, code, outcome and bit."""
    calls = []
    for n in SIZES:
        for state in (random_state(rng, n), sparse_state(rng, n)):
            calls += [(apply_pauli, (state, NAMES[ax], code))
                      for ax, code in itertools.product(range(n), ALL_CODES)]
            calls += [(quantum.z_outcome_probs, (state, NAMES[ax])) for ax in range(n)]
            calls += [(quantum._z_post_state, (state, NAMES[ax], bit))
                      for ax in range(n) for bit in (0, 1)
                      if z_outcome_probs(state, NAMES[ax])[bit] >= PROB_FLOOR]
            for ax_a, ax_b in pairs(n):
                regs = NAMES[ax_a], NAMES[ax_b]
                probs = quantum._bell_law(state, *regs)[0]
                calls.append((quantum._bell_law, (state, *regs)))
                calls += [(quantum._bell_post_state, (state, *regs, k))
                          for k in range(4) if probs[k] >= PROB_FLOOR]
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


def content(result):
    """Every bit of a kernel result: states by key, arrays by bytes and shape."""
    if isinstance(result, StateVector):
        return result.key
    if isinstance(result, np.ndarray):
        return result.shape, result.tobytes()
    if isinstance(result, tuple):
        return tuple(content(item) for item in result)
    return result


def test_memo_results_are_bit_identical_to_the_uncached_kernels(rng):
    calls = memo_calls(rng)
    assert len(calls) < MEMO_ENTRIES  # no table refills part-way through
    clear_memo()
    first = [kernel(*args) for kernel, args in calls]
    for (kernel, args), got in zip(calls, first):
        assert kernel(*args) is got
        assert content(got) == content(kernel.__wrapped__(*args)), kernel.__name__


def test_memoized_results_are_read_only(rng):
    for kernel, args in memo_calls(rng):
        assert not any(out.flags.writeable for out in arrays_in(kernel(*args))), kernel.__name__


def test_register_names_and_zero_signs_are_part_of_the_key():
    amps = np.array([0.6, 0.0, 0.0, 0.8])
    ab, xy = StateVector(("a", "b"), amps), StateVector(("x", "y"), amps)
    assert apply_pauli(ab, "a", BitPair(0, 1)).registers == ("a", "b")
    assert apply_pauli(xy, "x", BitPair(0, 1)).registers == ("x", "y")
    assert bell_measure(xy, "x", "y", np.random.default_rng(0))[1].registers == ("x", "y")
    fiducial = attach_ancilla(StateVector(("t",), [0.6, 0.8]), "e")
    plus = entangling_probe(fiducial, "t", "e", 1.0, 0.0)
    minus = entangling_probe(fiducial, "t", "e", 1.0, -0.0)
    # A shared entry would hand one of them the other's signed zeros.
    assert plus.key != minus.key
    assert minus.key == entangling_probe.__wrapped__(fiducial, "t", "e", 1.0, -0.0).key


def test_tables_stay_within_their_bound():
    draws = np.random.default_rng(7)
    clear_memo()
    for _ in range(MEMO_ENTRIES + 10):
        state = random_state(draws, 2)
        apply_pauli(state, "a", BitPair(1, 0))
        bell_outcome_probs(state, "a", "b")
        bell_measure(state, "b", "a", draws)
        measure_z(state, "a", draws)
        tensor_product(state, StateVector(("q",), [0.6, 0.8j]))
        entangling_probe(attach_ancilla(state, "e"), "a", "e", 0.8, 0.6)
    assert all(0 < len(table) <= MEMO_ENTRIES for table in quantum._MEMO_TABLES)


def small_config(attack: str) -> ExperimentConfig:
    return ExperimentConfig(
        attack=attack,
        beta2=0.25 if attack == "entangle-measure" else None,
        c=0.5,
        n_pairs=4,
        trials=20,
        master_seed=2004,
        detection_policy="reinitialize",
        max_restarts=2,
    )


# Distinct kernel inputs one experiment reaches from cold caches, run
# tables included: measured at most 94 for any strategy and policy
# below, at 40 and at 400 trials. The memo is what keeps a table build
# cheap, so the kernel bodies must keep running a bounded number of
# times per call.
MEMO_TRAFFIC_BOUND = 256


def clear_memo_and_tables() -> None:
    clear_memo()
    protocol._TABLES.clear()


@pytest.mark.parametrize("policy", DETECTION_POLICIES)
@pytest.mark.parametrize("attack", STRATEGY_NAMES)
def test_an_experiment_reaches_few_distinct_kernel_inputs(attack, policy):
    config = replace(small_config(attack), trials=400, detection_policy=policy)
    clear_memo_and_tables()
    run_experiment(config)
    assert sum(len(table) for table in quantum._MEMO_TABLES) <= MEMO_TRAFFIC_BOUND


def test_unknown_pauli_codes_are_rejected():
    state = bell_state(BitPair(0, 0))
    for code in ((2, 0), (1, 0, 1)):
        with pytest.raises(ValueError, match="unknown Pauli code"):
            apply_pauli(state, "t", code)


def test_documents_do_not_depend_on_what_the_memo_holds():
    configs = [small_config(attack) for attack in STRATEGY_NAMES]
    for config in configs:
        run_experiment(config)
    warm = [to_json(run_experiment(config)) for config in configs]
    cold = []
    for config in configs:
        clear_memo_and_tables()
        cold.append(to_json(run_experiment(config)))
    assert warm == cold
