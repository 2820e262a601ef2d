"""Statevector engine: basis convention, gate embedding, probabilities."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpictures import (
    Axis,
    Gate,
    OperatorSum,
    StateVector,
    analyzer_rotation,
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
    pauli_y,
    pauli_z,
    random_circuit,
    to_conventional,
)
from dense import circuit_unitary, gate_matrix, packed_key, random_unitary
from qpictures.gates import PAULI_MATRIX
from qpictures.pauli import PauliString
from qpictures.states import z_moments

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

    @pytest.mark.parametrize("width", [2, 3, 4, 5])
    def test_batched_rows_match_unbatched_runs_bit_for_bit(self, width):
        # Bytes, not values: the signs of exact zeros must match too.
        rng = np.random.default_rng(width)
        angles = rng.uniform(0.0, 2.0 * math.pi, 3)
        batched = apply_gate(new_all_zeros(width), analyzer_rotation(1, angles))
        rows = [apply_gate(new_all_zeros(width), analyzer_rotation(1, a)) for a in angles]
        for gate in random_circuit(width, 40, rng):
            batched = apply_gate(batched, gate)
            rows = [apply_gate(row, gate) for row in rows]
            for j, row in enumerate(rows):
                assert batched.amplitudes[j].tobytes() == row.amplitudes.tobytes(), (gate, j)

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

    def test_zero_operator_gives_one_value_per_row(self):
        batched = StateVector(2, np.tile(new_all_zeros(2).amplitudes, (3, 1)))
        assert expectation(batched, OperatorSum.zero(2)).tolist() == [0.0, 0.0, 0.0]
        assert expectation(new_all_zeros(2), OperatorSum.zero(2)) == 0.0


def reference_expectation(state, op):
    """The per-qubit kernel: a tensordot with each factor's 2x2 matrix."""
    amps = state.amplitudes
    lead = list(amps.shape[:-1])
    value = np.zeros(lead, complex)
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
        (PauliString(width, packed_key(draw(st.lists(st.integers(0, 3), min_size=width, max_size=width)))),
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


def random_state(rng, width, batch=None):
    """Random amplitudes whose real and imaginary parts are each an exact
    zero half the time, +0 or -0 at random."""
    shape = (2**width,) if batch is None else (batch, 2**width)
    parts = rng.normal(size=(2,) + shape)
    zeros = rng.random(parts.shape) < 0.5
    parts[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    parts[0][..., -1] += 1.0
    # Real division keeps the sign of every zero; complex division may not.
    parts /= np.sqrt((parts**2).sum(axis=(0, -1), keepdims=True))
    amps = np.empty(shape, dtype=complex)
    amps.real, amps.imag = parts
    return StateVector(width, amps)


def assert_z_moments_match_expectation(state, atol=1e-12):
    """Every <Z_q> and <Z_q Z_r> of ``z_moments`` against the general kernel."""
    n = state.width
    z, zz = z_moments(state)
    lead = () if state.batch is None else (state.batch,)
    assert z.shape == lead + (n,) and zz.shape == lead + (n, n)
    for q in range(1, n + 1):
        want = expectation(state, OperatorSum.single_axis(n, q, Axis.Z))
        np.testing.assert_allclose(z[..., q - 1], want, rtol=0, atol=atol)
        for r in range(q + 1, n + 1):
            want = expectation(state, OperatorSum(n, [(f"Z{q} Z{r}", 1.0)]))
            np.testing.assert_allclose(zz[..., q - 1, r - 1], want, rtol=0, atol=atol)
            np.testing.assert_allclose(zz[..., r - 1, q - 1], want, rtol=0, atol=atol)
    np.testing.assert_allclose(np.diagonal(zz, axis1=-2, axis2=-1), 1.0, rtol=0, atol=atol)


class TestZMoments:
    """All single and pair Z moments from one pass over |psi|^2 equal the
    general expectation kernel's values."""

    @given(st.integers(1, 8), st.sampled_from([None, 1, 3]), st.integers(0, 2**32 - 1))
    def test_matches_expectation(self, width, batch, seed):
        assert_z_moments_match_expectation(random_state(np.random.default_rng(seed), width, batch))

    def test_width_one_has_no_pairs(self):
        state = apply_gate(new_all_zeros(1), pauli_x(1))
        z, zz = z_moments(state)
        assert z.tolist() == [1.0] and zz.tolist() == [[1.0]]
        assert_z_moments_match_expectation(random_state(np.random.default_rng(1), 1, 2))

    def test_width_eighteen(self):
        state = random_state(np.random.default_rng(18), 18)
        z, zz = z_moments(state)
        n = 18
        for q, r in [(1, 2), (1, 18), (5, 9), (9, 10), (10, 17), (17, 18)]:
            want = expectation(state, OperatorSum(n, [(f"Z{q} Z{r}", 1.0)]))
            assert zz[q - 1, r - 1] == pytest.approx(want, abs=1e-12)
        for q in (1, 9, 10, 18):
            assert z[q - 1] == pytest.approx(expectation(state, OperatorSum.single_axis(n, q, Axis.Z)), abs=1e-12)


S_GATE_MATRIX = np.diag([1, 1j])


def monomial_gates(rng, width):
    q, r = (int(x) + 1 for x in rng.choice(width, size=2, replace=False))
    return (pauli_x(q), pauli_y(q), pauli_z(r), cnot(q, r), cnot(r, q), Gate("S", (q,), S_GATE_MATRIX))


def int64_bits(amps):
    return np.ascontiguousarray(amps).view(np.int64)


class TestMonomialGates:
    """X, Y, Z, CN and other monomial matrices move and phase slices of the
    amplitudes exactly; the result must be the dense product bit for bit,
    signed zeros included."""

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("width", range(2, 11))
    def test_equals_dense_product_bitwise(self, width, batch):
        rng = np.random.default_rng(100 * width + (batch or 0))
        state = random_state(rng, width, batch)
        assert np.signbit(state.amplitudes.view(float)[state.amplitudes.view(float) == 0]).any()
        for gate in monomial_gates(rng, width):
            dense = gate_matrix(gate, width)
            want = dense @ state.amplitudes if batch is None else np.stack([dense @ row for row in state.amplitudes])
            got = apply_gate(state, gate).amplitudes
            np.testing.assert_array_equal(int64_bits(got), int64_bits(want), err_msg=f"{gate.name}{gate.qubits}")

    def test_detected_from_the_matrix_not_the_name(self):
        state = random_state(np.random.default_rng(3), 3)
        x_named_h = Gate("H", (2,), PAULI_MATRIX[Axis.X])
        h_named_x = Gate("X", (2,), hadamard(2).matrix)
        np.testing.assert_array_equal(apply_gate(state, x_named_h).amplitudes, apply_gate(state, pauli_x(2)).amplitudes)
        np.testing.assert_array_equal(apply_gate(state, h_named_x).amplitudes, apply_gate(state, hadamard(2)).amplitudes)

    @pytest.mark.parametrize("batch", [None, 2])
    @pytest.mark.parametrize("gate", [pauli_y(1), cnot(1, 2), hadamard(2)], ids=["Y", "CN", "H"])
    def test_norm_checked_on_every_output(self, gate, batch):
        # The constructor accepts a norm 1e-10 off; a gate output is held
        # to NORM_ATOL = 1e-12, on every path.
        state = random_state(np.random.default_rng(5), 2, batch)
        state = StateVector(2, state.amplitudes * (1 + 1e-10))
        with pytest.raises(AssertionError, match="drifted the norm"):
            apply_gate(state, gate)


class TestGeneralGates:
    """Dense and stacked matrices through the one kernel against the dense
    embedding ``gate_matrix(gate, width) @ amps``, row by row."""

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("width", range(2, 7))
    def test_matches_dense_embedding(self, width, batch):
        rng = np.random.default_rng(200 + 10 * width + (batch or 0))
        state = random_state(rng, width, batch)
        q, r = (int(x) + 1 for x in rng.choice(width, size=2, replace=False))
        gates = [
            Gate("U", (q, r), random_unitary(rng, 4)),
            Gate("Us", (r, q), np.stack([random_unitary(rng, 4) for _ in range(3)])),
            analyzer_rotation(q, rng.uniform(0.0, 2.0 * math.pi, 3)),
            analyzer_rotation(r, float(rng.uniform(0.0, 2.0 * math.pi))),
            hadamard(q),
            Gate("Xs", (r,), np.stack([PAULI_MATRIX[Axis.X]] * 3)),
            # Unitary within UNITARY_ATOL: an exact 1 beside a tiny entry.
            Gate("I~", (q,), np.array([[1, 1e-13], [-1e-13, 1]], dtype=complex)),
        ]
        for gate in gates:
            got = apply_gate(state, gate)
            rows = 3 if gate.batch is not None or batch is not None else None
            assert got.batch == rows
            for j in range(rows or 1):
                matrix = gate.matrix if gate.batch is None else gate.matrix[j]
                want = gate_matrix(Gate(gate.name, gate.qubits, matrix), width) @ state.row(j).amplitudes
                np.testing.assert_allclose(got.row(j).amplitudes, want, rtol=0, atol=1e-12, err_msg=f"{gate!r} row {j}")


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
