"""Unit tests for the state-vector layer.

Expected values come from independent routes: literal 2x2 matrix
products, hand expansions of the entangled pair states in the
computational basis, and high-precision arithmetic for entropies.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdialogue.quantum import (
    ALL_CODES,
    PAULI_MATRICES,
    BitPair,
    StateVector,
    apply_pauli,
    attach_ancilla,
    bell_measure,
    bell_outcome_probs,
    bell_state,
    entangling_probe,
    measure_z,
    pauli_compose,
    project_z,
    tensor_product,
    z_outcome_probs,
)
from reference import DensityMatrix, project_bell, reduced_density, same_state, von_neumann_entropy

RT2 = 1.0 / math.sqrt(2.0)


def random_state(rng: np.random.Generator, regs: tuple[str, ...]) -> StateVector:
    n = 2 ** len(regs)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return StateVector(regs, amps / np.linalg.norm(amps))


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(("h",), [1.0, 1.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            StateVector(("h",), [float("nan"), 0.0])

    def test_rejects_duplicate_registers(self):
        with pytest.raises(ValueError, match="duplicate"):
            StateVector(("h", "h"), [1, 0, 0, 0])

    def test_rejects_more_than_five_registers(self):
        amps = np.zeros(64)
        amps[0] = 1.0
        with pytest.raises(ValueError, match="registers"):
            StateVector(tuple("abcdef"), amps)

    def test_rejects_wrong_amplitude_count(self):
        with pytest.raises(ValueError, match="amplitudes"):
            StateVector(("h", "t"), [1.0, 0.0])

    def test_axis_error_names_register(self):
        state = bell_state(BitPair(0, 0))
        with pytest.raises(ValueError, match="'x' not in state"):
            state.axis("x")


class TestBellState:
    """Basis order: |up,up>, |up,down>, |down,up>, |down,down>."""

    def test_code_00(self):
        amps = bell_state(BitPair(0, 0)).amps
        np.testing.assert_allclose(amps, [0, RT2, RT2, 0], atol=1e-15)

    def test_code_11_phase_flip(self):
        # sigma_z on the travel factor negates the |up,down> branch
        amps = bell_state(BitPair(1, 1)).amps
        np.testing.assert_allclose(amps, [0, -RT2, RT2, 0], atol=1e-15)

    def test_code_01_bit_flip(self):
        amps = bell_state(BitPair(0, 1)).amps
        np.testing.assert_allclose(amps, [RT2, 0, 0, RT2], atol=1e-15)

    def test_code_10_matches_matrix_route(self):
        # (1 x sigma_y) applied to the base pair, computed numerically
        base = np.array([0, RT2, RT2, 0], dtype=complex)
        expected = np.kron(np.eye(2), PAULI_MATRICES[BitPair(1, 0)]) @ base
        np.testing.assert_allclose(bell_state(BitPair(1, 0)).amps, expected, atol=1e-15)

    def test_custom_registers(self):
        state = bell_state(BitPair(0, 0), regs=("H", "T"))
        assert state.registers == ("H", "T")

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_normalized(self, code):
        amps = bell_state(code).amps
        assert np.vdot(amps, amps).real == pytest.approx(1.0, abs=1e-12)


class TestApplyPauli:
    def test_identity_leaves_state_unchanged(self):
        state = bell_state(BitPair(1, 0))
        out = apply_pauli(state, "t", BitPair(0, 0))
        np.testing.assert_array_equal(out.amps, state.amps)

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_involution(self, code):
        state = bell_state(BitPair(0, 1))
        twice = apply_pauli(apply_pauli(state, "t", code), "t", code)
        assert same_state(twice, state, tol=1e-12)

    def test_unknown_register_raises(self):
        with pytest.raises(ValueError, match="not in state"):
            apply_pauli(bell_state(BitPair(0, 0)), "q", BitPair(0, 1))

    def test_bit_then_bitphase_equals_phase_code(self):
        # sigma_y sigma_x = -i sigma_z, so the composite equals the
        # (1,1)-coded pair up to a global phase
        state = apply_pauli(bell_state(BitPair(0, 0)), "t", BitPair(0, 1))
        state = apply_pauli(state, "t", BitPair(1, 0))
        assert same_state(state, bell_state(BitPair(1, 1)), tol=1e-12)

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_matches_matrix_route_on_random_states(self, code):
        rng = np.random.default_rng(2024)
        for regs in [("a",), ("h", "t"), ("h", "t", "e")]:
            state = random_state(rng, regs)
            for ax, reg in enumerate(regs):
                fast = apply_pauli(state, reg, code)
                mats = [PAULI_MATRICES[code] if i == ax else np.eye(2) for i in range(len(regs))]
                full = mats[0]
                for m in mats[1:]:
                    full = np.kron(full, m)
                np.testing.assert_allclose(fast.amps, full @ state.amps, atol=1e-12)

    @given(st.lists(st.sampled_from(range(4)), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_norm_preserved_under_random_sequences(self, codes, seed):
        state = random_state(np.random.default_rng(seed), ("h", "t"))
        for k in codes:
            state = apply_pauli(state, "t", ALL_CODES[k])
        assert np.vdot(state.amps, state.amps).real == pytest.approx(1.0, abs=1e-9)


class TestPauliCompose:
    def test_all_sixteen_against_matrix_oracle(self):
        for second in ALL_CODES:
            for first in ALL_CODES:
                product = PAULI_MATRICES[second] @ PAULI_MATRICES[first]
                got = pauli_compose(second, first)
                assert got.code == second ^ first
                np.testing.assert_array_equal(
                    product, got.phase * PAULI_MATRICES[got.code]
                )

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_identity_element(self, code):
        assert pauli_compose(BitPair(0, 0), code) == (code, 1)
        assert pauli_compose(code, BitPair(0, 0)) == (code, 1)

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_involution(self, code):
        assert pauli_compose(code, code) == (BitPair(0, 0), 1)

    def test_bitflip_after_bitphase(self):
        got = pauli_compose(BitPair(0, 1), BitPair(1, 0))
        assert got.code == BitPair(1, 1)
        assert got.phase == 1j

    def test_phases_are_units(self):
        for second in ALL_CODES:
            for first in ALL_CODES:
                phase = pauli_compose(second, first).phase
                assert phase in (1, 1j, -1j)


class TestBellMeasurement:
    rng = np.random.default_rng(7)

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_eigenstate(self, code):
        probs = bell_outcome_probs(bell_state(code), "h", "t")
        assert probs[code] == pytest.approx(1.0, abs=1e-12)
        outcome, _ = bell_measure(bell_state(code), "h", "t", self.rng)
        assert outcome == code

    def test_double_encoding_is_deterministic(self):
        for bob in ALL_CODES:
            for alice in ALL_CODES:
                state = apply_pauli(bell_state(bob), "t", alice)
                probs = bell_outcome_probs(state, "h", "t")
                assert probs[alice ^ bob] == pytest.approx(1.0, abs=1e-12)

    def test_product_state_splits_between_two_outcomes(self):
        # |up,down> = (pair(0,0) - pair(1,1)) / sqrt(2) by direct expansion
        amps = np.zeros(4, dtype=complex)
        amps[0b01] = 1.0
        probs = bell_outcome_probs(StateVector(("h", "t"), amps), "h", "t")
        assert probs[BitPair(0, 0)] == pytest.approx(0.5, abs=1e-12)
        assert probs[BitPair(1, 1)] == pytest.approx(0.5, abs=1e-12)
        assert probs[BitPair(0, 1)] == pytest.approx(0.0, abs=1e-12)
        assert probs[BitPair(1, 0)] == pytest.approx(0.0, abs=1e-12)

    def test_outcome_probs_sum_to_one_on_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            state = random_state(rng, ("h", "t", "e"))
            probs = bell_outcome_probs(state, "h", "t")
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)

    def test_collapse_preserves_spectator_correlations(self):
        # Two independent pairs; measuring one must leave the other intact.
        joint = tensor_product(
            bell_state(BitPair(0, 0)), bell_state(BitPair(0, 1), regs=("H", "T"))
        )
        _, collapsed = bell_measure(joint, "h", "t", np.random.default_rng(5))
        rho = reduced_density(collapsed, ["H", "T"]).matrix
        expected = np.outer(
            bell_state(BitPair(0, 1)).amps, bell_state(BitPair(0, 1)).amps.conj()
        )
        np.testing.assert_allclose(rho, expected, atol=1e-12)

    def test_project_bell_zero_probability_branch(self):
        prob, collapsed = project_bell(bell_state(BitPair(0, 0)), "h", "t", BitPair(1, 0))
        assert prob == 0.0 and collapsed is None

    def test_global_phase_immunity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            state = random_state(rng, ("h", "t"))
            rotated = StateVector(state.registers, np.exp(1.7j) * state.amps)
            p0 = bell_outcome_probs(state, "h", "t")
            p1 = bell_outcome_probs(rotated, "h", "t")
            for code in ALL_CODES:
                assert p0[code] == pytest.approx(p1[code], abs=1e-12)
            z0, z1 = z_outcome_probs(state, "t"), z_outcome_probs(rotated, "t")
            assert z0 == pytest.approx(z1, abs=1e-12)


class TestZMeasurement:
    def test_eigenstate(self):
        state = StateVector(("q",), [1.0, 0.0])
        bit, collapsed = measure_z(state, "q", np.random.default_rng(0))
        assert bit == 0
        np.testing.assert_array_equal(collapsed.amps, state.amps)

    def test_pair_anticorrelation(self):
        state = bell_state(BitPair(0, 0))
        assert z_outcome_probs(state, "t") == pytest.approx((0.5, 0.5), abs=1e-12)
        for bit in (0, 1):
            _, collapsed = project_z(state, "t", bit)
            # the home qubit collapses to the opposite basis state
            home_probs = z_outcome_probs(collapsed, "h")
            assert home_probs[1 - bit] == pytest.approx(1.0, abs=1e-12)

    def test_superposed_ancilla_statistics(self):
        beta2 = 0.25
        amps = [math.sqrt(1 - beta2), math.sqrt(beta2)]
        state = StateVector(("e",), amps)
        assert z_outcome_probs(state, "e")[1] == pytest.approx(beta2, abs=1e-12)
        rng = np.random.default_rng(123)
        hits = sum(measure_z(state, "e", rng)[0] for _ in range(20000))
        assert hits / 20000 == pytest.approx(beta2, abs=3 * math.sqrt(beta2 * (1 - beta2) / 20000))


class TestAncilla:
    def test_attach_extends_and_keeps_norm(self):
        state = bell_state(BitPair(0, 0))
        extended = attach_ancilla(state, "e")
        assert extended.registers == ("h", "t", "e")
        assert np.vdot(extended.amps, extended.amps).real == pytest.approx(1.0, abs=1e-12)

    def test_attach_layout(self):
        state = bell_state(BitPair(0, 0))
        extended = attach_ancilla(state, "e")
        np.testing.assert_array_equal(extended.amps[0::2], state.amps)
        np.testing.assert_array_equal(extended.amps[1::2], np.zeros(4))

    def test_attach_duplicate_raises(self):
        with pytest.raises(ValueError, match="already present"):
            attach_ancilla(bell_state(BitPair(0, 0)), "t")

    def test_attach_then_trace_out_recovers_state(self):
        state = bell_state(BitPair(1, 0))
        rho = reduced_density(attach_ancilla(state, "e"), ["h", "t"]).matrix
        np.testing.assert_allclose(rho, np.outer(state.amps, state.amps.conj()), atol=1e-12)


class TestEntanglingProbe:
    def test_zero_beta_is_identity_on_system(self):
        state = attach_ancilla(bell_state(BitPair(1, 1)), "e")
        out = entangling_probe(state, "t", "e", 1.0, 0.0)
        np.testing.assert_allclose(out.amps, state.amps, atol=1e-15)

    def test_equal_weights_on_single_qubit(self):
        # |down>|chi> -> (|down,chi0> + |up,chi1>)/sqrt(2)
        state = StateVector(("t", "e"), [0, 0, 1, 0])
        out = entangling_probe(state, "t", "e", RT2, RT2)
        np.testing.assert_allclose(out.amps, [0, RT2, RT2, 0], atol=1e-15)

    @pytest.mark.parametrize("code", ALL_CODES)
    @pytest.mark.parametrize("beta2", [0.1, 0.25, 0.5])
    def test_probe_on_pair_matches_branch_expansion(self, code, beta2):
        # alpha |pair_code>|chi0> + beta phi |pair_(code xor 01)>|chi1>,
        # with phi the composition phase of the bit-flip against code.
        alpha, beta = math.sqrt(1 - beta2), math.sqrt(beta2)
        got = entangling_probe(attach_ancilla(bell_state(code), "e"), "t", "e", alpha, beta)
        flip = pauli_compose(BitPair(0, 1), code)
        chi0, chi1 = np.array([1, 0]), np.array([0, 1])
        expected = alpha * np.kron(bell_state(code).amps, chi0) + beta * flip.phase * np.kron(
            bell_state(flip.code).amps, chi1
        )
        np.testing.assert_allclose(got.amps, expected, atol=1e-12)

    def test_rejects_bad_normalization(self):
        state = attach_ancilla(bell_state(BitPair(0, 0)), "e")
        with pytest.raises(ValueError, match="alpha"):
            entangling_probe(state, "t", "e", 0.9, 0.9)

    def test_rejects_excited_ancilla(self):
        state = StateVector(("t", "e"), [0, 1, 0, 0])  # ancilla already flipped
        with pytest.raises(ValueError, match="fiducial"):
            entangling_probe(state, "t", "e", 1.0, 0.0)


class TestDensityAndEntropy:
    def test_pure_state_projector(self):
        state = bell_state(BitPair(0, 1))
        rho = reduced_density(state, ["h", "t"]).matrix
        np.testing.assert_allclose(rho, np.outer(state.amps, state.amps.conj()), atol=1e-12)

    def test_half_of_entangled_pair_is_maximally_mixed(self):
        rho = reduced_density(bell_state(BitPair(0, 0)), ["h"]).matrix
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            reduced_density(bell_state(BitPair(0, 0)), [])

    @pytest.mark.parametrize("beta2", [0.0, 0.1, 0.25, 0.5])
    def test_probe_ancilla_is_diagonal(self, beta2):
        alpha, beta = math.sqrt(1 - beta2), math.sqrt(beta2)
        for bob in ALL_CODES:
            for alice in ALL_CODES:
                state = entangling_probe(
                    attach_ancilla(bell_state(bob), "e"), "t", "e", alpha, beta
                )
                state = apply_pauli(state, "t", alice)
                rho = reduced_density(state, ["e"]).matrix
                np.testing.assert_allclose(rho, np.diag([1 - beta2, beta2]), atol=1e-12)

    def test_entropy_pure(self):
        assert von_neumann_entropy(DensityMatrix(np.diag([1.0, 0.0]))) == 0.0

    def test_entropy_maximally_mixed(self):
        assert von_neumann_entropy(DensityMatrix(np.diag([0.5, 0.5]))) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_entropy_quarter_mix(self):
        got = von_neumann_entropy(DensityMatrix(np.diag([0.75, 0.25])))
        assert got == pytest.approx(0.811278, abs=1e-6)

    @pytest.mark.parametrize("beta2", [0.0, 0.1, 0.25, 0.5])
    def test_probe_entropy_identity(self, beta2):
        alpha, beta = math.sqrt(1 - beta2), math.sqrt(beta2)
        expected = 0.0
        for p in (beta2, 1 - beta2):
            if p > 0:
                expected -= p * math.log2(p)
        for bob in ALL_CODES:
            for alice in ALL_CODES:
                state = entangling_probe(
                    attach_ancilla(bell_state(bob), "e"), "t", "e", alpha, beta
                )
                state = apply_pauli(state, "t", alice)
                s = von_neumann_entropy(reduced_density(state, ["e"]))
                assert s == pytest.approx(expected, abs=1e-9)

    def test_density_matrix_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.7, 0.7]))
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix(np.diag([1.5, -0.5]))


class TestTensorProduct:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError, match="shared"):
            tensor_product(bell_state(BitPair(0, 0)), bell_state(BitPair(0, 0)))

    def test_joint_layout(self):
        joint = tensor_product(
            bell_state(BitPair(0, 0)), bell_state(BitPair(0, 0), regs=("H", "T"))
        )
        assert joint.registers == ("h", "t", "H", "T")
        np.testing.assert_allclose(
            joint.amps,
            np.kron(bell_state(BitPair(0, 0)).amps, bell_state(BitPair(0, 0)).amps),
            atol=1e-15,
        )
