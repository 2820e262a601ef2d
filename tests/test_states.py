"""Statevector engine: basis convention, gate embedding, probabilities."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpictures import (
    Axis,
    OperatorSum,
    StateVector,
    apply_circuit,
    apply_gate,
    basis_label,
    cnot,
    dump_csv,
    expectation,
    hadamard,
    joint_probability,
    new_all_zeros,
    pauli_x,
    random_circuit,
    to_conventional,
)
from dense import circuit_unitary
from qpictures.gates import PAULI_MATRIX
from qpictures.pauli import PauliString

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestNewAllZeros:
    def test_two_qubits(self):
        np.testing.assert_array_equal(new_all_zeros(2).amplitudes, [0, 0, 0, 1])

    def test_one_qubit(self):
        np.testing.assert_array_equal(new_all_zeros(1).amplitudes, [0, 1])

    def test_unit_norm(self):
        assert new_all_zeros(5).norm == 1.0

    @pytest.mark.parametrize("width", [0, -1, 21])
    def test_width_out_of_range(self, width):
        with pytest.raises(ValueError, match="width"):
            new_all_zeros(width)


class TestApplyGate:
    def test_cn_toggles_target_bit_exactly(self):
        # |0,1> -> |1,1>: third basis vector to first, exact amplitudes
        state = StateVector(2, np.array([0, 0, 1, 0], dtype=complex))
        out = apply_gate(state, cnot(1, 2))
        assert np.array_equal(out.amplitudes, np.array([1, 0, 0, 0], dtype=complex))

    def test_hadamard_twice_restores_state(self):
        state = apply_circuit(new_all_zeros(1), (hadamard(1),))
        out = apply_circuit(state, (hadamard(1), hadamard(1)))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_entangler_output(self):
        out = apply_circuit(new_all_zeros(2), (hadamard(2), cnot(1, 2)))
        np.testing.assert_allclose(
            out.amplitudes, [INV_SQRT2, 0.0, 0.0, -INV_SQRT2], atol=1e-12
        )

    def test_out_of_range_qubit_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            apply_gate(new_all_zeros(2), hadamard(3))

    def test_norm_preserved_over_many_random_gates(self):
        rng = np.random.default_rng(11)
        total = 0
        for width in (2, 3, 4, 5, 6):
            state = new_all_zeros(width)
            for gate in random_circuit(width, 200, rng):
                state = apply_gate(state, gate)
                total += 1
                assert abs(state.norm - 1.0) <= 1e-10
        assert total == 1000

    @pytest.mark.parametrize("width,seed", [(2, 0), (3, 1), (4, 2), (4, 3)])
    def test_matches_dense_circuit_unitary(self, width, seed):
        gates = random_circuit(width, 10, np.random.default_rng(seed))
        state = apply_circuit(new_all_zeros(width), gates)
        zeros = np.zeros(2**width, dtype=complex)
        zeros[-1] = 1.0
        np.testing.assert_allclose(
            state.amplitudes, circuit_unitary(gates, width) @ zeros, atol=1e-12
        )


class TestExpectation:
    def test_z_on_ket_one(self):
        # |1> on one qubit, reached by toggling |0>
        state = apply_gate(new_all_zeros(1), pauli_x(1))
        assert expectation(state, OperatorSum(1, [("Z1", 1.0)])) == pytest.approx(1.0)

    def test_x2_on_entangled_state(self):
        state = apply_circuit(new_all_zeros(2), (hadamard(2), cnot(1, 2)))
        # dense oracle: psi = (1,0,0,-1)/sqrt(2), I(x)X has zero diagonal overlap
        psi = state.amplitudes
        ix = np.kron(np.eye(2), np.array([[0, 1], [1, 0]]))
        assert psi.conj() @ ix @ psi == pytest.approx(0.0, abs=1e-12)
        assert expectation(state, OperatorSum(2, [("X2", 1.0)])) == pytest.approx(0.0, abs=1e-12)

    def test_zz_on_entangled_state(self):
        state = apply_circuit(new_all_zeros(2), (hadamard(2), cnot(1, 2)))
        assert expectation(state, OperatorSum(2, [("Z1 Z2", 1.0)])) == pytest.approx(1.0)

    def test_non_hermitian_rejected(self):
        op = OperatorSum(1, [("X1", 1.0j)])
        with pytest.raises(ValueError, match="Hermitian"):
            expectation(new_all_zeros(1), op)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            expectation(new_all_zeros(2), OperatorSum(3, [("Z1", 1.0)]))


def reference_expectation(state, op):
    """The per-qubit kernel: a tensordot with each factor's 2x2 matrix."""
    amps = state.amplitudes
    lead = list(amps.shape[:-1])
    value = 0.0 + 0.0j
    for string, coeff in op.iter_terms():
        psi = amps.reshape(lead + [2] * state.width)
        for q_idx, code in enumerate(string.axes, start=len(lead)):
            if code != Axis.I:
                psi = np.tensordot(PAULI_MATRIX[Axis(code)], psi, axes=([1], [q_idx]))
                psi = np.moveaxis(psi, 0, q_idx)
        value += coeff * np.vecdot(amps, psi.reshape(amps.shape))
    return np.real(value) if state.batch is not None else float(value.real)


def assert_same_bits(got, want):
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (got, want)


@st.composite
def states_and_sums(draw):
    width = draw(st.integers(1, 6))
    batch = draw(st.sampled_from([None, 1, 3]))
    real = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (2**width,) if batch is None else (batch, 2**width)
    # Sparse amplitudes, so exact zeros of both signs occur.
    amps = rng.normal(size=shape) * (rng.random(shape) < 0.5)
    if not real:
        amps = amps + 1j * rng.normal(size=shape)
    amps[..., -1] += 1.0
    amps = amps / np.linalg.norm(amps, axis=-1, keepdims=True)
    terms = [
        (PauliString(width, tuple(draw(st.lists(st.integers(0, 3), min_size=width, max_size=width)))),
         draw(st.floats(-2.0, 2.0, allow_nan=False).filter(lambda c: c != 0.0)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return StateVector(width, amps), OperatorSum(width, terms)


class TestMaskedKernel:
    """The masked kernel builds the same vectors as a per-qubit tensordot,
    so it returns the same bits."""

    @given(states_and_sums())
    def test_matches_per_qubit_reference(self, case):
        state, op = case
        assert_same_bits(expectation(state, op), reference_expectation(state, op))

    def test_width_twelve_strings(self):
        rng = np.random.default_rng(5)
        amps = rng.normal(size=2**12) + 1j * rng.normal(size=2**12)
        state = StateVector(12, amps / np.linalg.norm(amps))
        strings = ["Z1", "Z12", "Z3 Z11", "Z1 Z12", "X1 Y12", "Y2 Y7", "X2 Y5 X7 Y9 Y11", "Y1 Y2 Y3 Y4 X12"]
        for text in strings:
            op = OperatorSum(12, [(text, 1.0)])
            assert_same_bits(expectation(state, op), reference_expectation(state, op))


class TestJointProbability:
    @pytest.fixture
    def bell_state(self):
        return apply_circuit(new_all_zeros(2), (hadamard(2), cnot(1, 2)))

    def test_both_one_on_entangled_state(self, bell_state):
        assert joint_probability(bell_state, {1: 1, 2: 1}) == pytest.approx(0.5)

    def test_empty_assignment(self, bell_state):
        assert joint_probability(bell_state, {}) == pytest.approx(1.0)

    def test_mixed_outcome_is_impossible(self, bell_state):
        assert joint_probability(bell_state, {1: 1, 2: 0}) == pytest.approx(0.0)

    def test_invalid_qubit_rejected(self, bell_state):
        with pytest.raises(ValueError, match="qubit"):
            joint_probability(bell_state, {3: 1})

    def test_invalid_value_rejected(self, bell_state):
        with pytest.raises(ValueError, match="value"):
            joint_probability(bell_state, {1: 2})

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_projector_expectation(self, seed):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(2, 5))
        state = apply_circuit(new_all_zeros(width), random_circuit(width, 8, rng))
        qubits = [int(q) + 1 for q in rng.choice(width, size=2, replace=False)]
        values = [int(v) for v in rng.integers(0, 2, size=2)]
        # projector onto ket value v is (1 + (-1)**(1-v) q_z)/2
        projector = OperatorSum.identity(width)
        for qubit, value in zip(qubits, values):
            sign = 1.0 if value == 1 else -1.0
            factor = 0.5 * (OperatorSum.identity(width) + sign * OperatorSum.single_axis(width, qubit, Axis.Z))
            projector = projector * factor
        got = joint_probability(state, dict(zip(qubits, values)))
        assert got == pytest.approx(expectation(state, projector), abs=1e-12)


def test_basis_label_follows_ket_ordering():
    assert basis_label(0, 2) == "|1,1>"
    assert basis_label(1, 2) == "|1,0>"
    assert basis_label(2, 2) == "|0,1>"
    assert basis_label(3, 2) == "|0,0>"


def test_to_conventional_reverses_index_order():
    state = apply_circuit(new_all_zeros(2), (hadamard(2), cnot(1, 2)))
    conventional = to_conventional(state)
    # |0,0> amplitude moves to index 0, |1,1> to the last index
    np.testing.assert_allclose(conventional, [-INV_SQRT2, 0.0, 0.0, INV_SQRT2], atol=1e-12)


def test_dump_csv_layout():
    text = dump_csv(new_all_zeros(1))
    lines = text.strip().split("\n")
    assert lines[0] == "index,basis,re,im"
    assert lines[1] == "0,|1>,0,0"
    assert lines[2] == "1,|0>,1,0"


def test_state_vector_requires_normalization():
    with pytest.raises(ValueError, match="normalized"):
        StateVector(1, np.array([1.0, 1.0], dtype=complex))
