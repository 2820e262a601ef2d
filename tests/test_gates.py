"""Gate catalog: matrices, validation, and the random-circuit generator."""
import math

import numpy as np
import pytest

from dense import random_unitary
from qpictures import Gate, analyzer_rotation, cnot, hadamard, pauli_x, pauli_y, pauli_z, random_circuit
from qpictures import experiment, gates, heisenberg, states
from qpictures.gates import CN_MATRIX, H_MATRIX, rotation_matrix


def test_hadamard_matrix():
    np.testing.assert_allclose(
        hadamard(1).matrix, np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=0
    )


def test_hadamard_is_involutive():
    np.testing.assert_allclose(H_MATRIX @ H_MATRIX, np.eye(2), atol=1e-15)


def test_cn_matrix_is_the_expected_permutation():
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[2, 0] = expected[1, 1] = expected[3, 3] = 1.0
    assert np.array_equal(CN_MATRIX, expected)


def test_cn_is_involutive():
    np.testing.assert_allclose(CN_MATRIX @ CN_MATRIX, np.eye(4), atol=0)


def test_cnot_stores_target_then_control():
    g = cnot(4, 1)
    assert g.qubits == (4, 1)
    assert g.arity == 2


def test_rotation_at_zero_is_identity():
    np.testing.assert_allclose(rotation_matrix(0.0), np.eye(2), atol=0)


@pytest.mark.parametrize("angle", [0.1, math.pi / 3, 2.0, -1.3])
def test_rotation_is_unitary(angle):
    m = rotation_matrix(angle)
    np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-15)


def test_catalog_gates_validate_unitarity():
    for gate in (hadamard(1), pauli_x(1), pauli_y(1), pauli_z(1), cnot(1, 2), analyzer_rotation(1, 0.7)):
        dim = 2**gate.arity
        np.testing.assert_allclose(
            gate.matrix.conj().T @ gate.matrix, np.eye(dim), atol=1e-12
        )


def test_non_unitary_matrix_rejected():
    with pytest.raises(ValueError, match="unitary"):
        Gate("bad", (1,), np.array([[1, 0], [0, 2]], dtype=complex))


def test_near_unitary_matrix_rejected_at_the_absolute_bound():
    # 1e-7 off unitarity: inside numpy's default rtol of 1e-5, far outside
    # UNITARY_ATOL, so only an absolute-only comparison rejects it.
    with pytest.raises(ValueError, match="unitary"):
        Gate("S", (1,), np.diag([1, 1 + 1e-7]))


def test_duplicate_qubits_rejected():
    with pytest.raises(ValueError, match="distinct"):
        Gate("bad", (2, 2), CN_MATRIX)


@pytest.mark.parametrize("qubits", [(1, 1.5), (1.5, 2), ("1", 2)])
def test_non_integral_qubits_rejected(qubits):
    # (1, 1.5) is distinct as given but would collapse to (1, 1).
    with pytest.raises(ValueError, match="integers"):
        Gate("CN", qubits, CN_MATRIX)


def test_integral_qubits_are_stored_as_ints():
    gate = Gate("CN", (np.int64(2), 1.0), CN_MATRIX)
    assert gate.qubits == (2, 1)
    assert all(type(q) is int for q in gate.qubits)
    with pytest.raises(ValueError, match="distinct"):
        Gate("CN", (np.int64(2), 2.0), CN_MATRIX)


def test_zero_based_qubits_rejected():
    with pytest.raises(ValueError, match="1-based"):
        Gate("bad", (0,), H_MATRIX)


def test_matrix_shape_must_match_arity():
    with pytest.raises(ValueError, match="shape"):
        Gate("bad", (1, 2), H_MATRIX)


def test_gate_matrices_are_read_only():
    g = hadamard(1)
    with pytest.raises(ValueError):
        g.matrix[0, 0] = 5.0


def test_random_circuit_is_reproducible():
    a = random_circuit(4, 12, np.random.default_rng(7))
    b = random_circuit(4, 12, np.random.default_rng(7))
    assert [repr(g) for g in a] == [repr(g) for g in b]
    assert len(a) == 12
    assert all(1 <= q <= 4 for g in a for q in g.qubits)


def test_random_circuit_width_one_avoids_two_qubit_gates():
    gates = random_circuit(1, 50, np.random.default_rng(3))
    assert all(g.arity == 1 for g in gates)


def test_non_unitary_matrix_rejected_after_valid_gates_of_its_shape():
    # valid 2x2 gates, fixed and parametrised, have been built and checked
    for gate in (hadamard(1), pauli_x(2), analyzer_rotation(1, 0.3), Gate("ok", (1,), np.eye(2))):
        assert gate.arity == 1
    with pytest.raises(ValueError, match="unitary"):
        Gate("bad", (1,), np.array([[1, 0], [0, 2]], dtype=complex))
    with pytest.raises(ValueError, match="unitary"):
        Gate("bad", (1,), 2 * H_MATRIX)


def test_rotation_stack_holds_one_matrix_per_angle():
    angles = [0.0, 0.4, math.pi, -2.0]
    gate = analyzer_rotation(3, angles)
    assert gate.batch == 4
    assert gate.params == tuple(angles)
    for matrix, angle in zip(gate.matrix, angles):
        assert matrix.tobytes() == rotation_matrix(angle).tobytes()


def test_empty_angle_list_rejected():
    with pytest.raises(ValueError, match="empty angle list"):
        analyzer_rotation(1, [])


def test_stack_with_one_non_unitary_matrix_rejected():
    stack = np.stack([H_MATRIX, np.array([[1, 0], [0, 2]], dtype=complex)])
    with pytest.raises(ValueError, match="unitary"):
        Gate("bad", (1,), stack)


def test_stacks_are_not_remembered():
    # A one-matrix stack of H has H's bytes, but both engines give it a batch
    # axis, so no memo may serve it as H.
    stacked = Gate("H", (1,), H_MATRIX[None])
    assert stacked.matrix.tobytes() == H_MATRIX.tobytes()
    assert gates._catalog_key(stacked) is None
    assert gates._catalog_key(hadamard(1)) == H_MATRIX.tobytes()
    assert heisenberg.evolve(heisenberg.init_descriptors(1), stacked).z(1).batch == 1
    assert states.apply_gate(states.new_all_zeros(1), stacked).batch == 1


def test_patched_catalog_matrix_is_checked_every_time(monkeypatch):
    hadamard(1)
    monkeypatch.setattr(gates, "H_MATRIX", 2 * H_MATRIX)
    with pytest.raises(ValueError, match="unitary"):
        hadamard(1)


def test_only_catalog_matrices_are_remembered(monkeypatch):
    rng = np.random.default_rng(23)
    circuits = [random_circuit(3, 40, rng) for _ in range(3)]
    circuits.append([analyzer_rotation(q, float(a)) for q, a in zip((1, 2, 3, 2), rng.uniform(0, 2 * math.pi, 4))])
    circuits.append([analyzer_rotation(2, rng.uniform(0, 2 * math.pi, 3)) for _ in range(2)])
    circuits.append([Gate("U", (3, 1), random_unitary(rng, 4))])
    for circuit in circuits:
        heisenberg.evolve_circuit(heisenberg.init_descriptors(3), circuit)
        states.apply_circuit(states.new_all_zeros(3), circuit)
    experiment.simulate([experiment.ExperimentConfig(0.3, 1.1)])
    # A patched constant is not a catalog matrix, so its t=1 prefix is not kept.
    monkeypatch.setattr(gates, "H_MATRIX", np.array([[1, 1], [-1, 1]], dtype=complex) / math.sqrt(2))
    experiment.simulate([experiment.ExperimentConfig(0.3, 1.1)])
    for memo in (heisenberg._IMAGE_CACHE, states._SINGLE_ROWS):
        assert memo and set(memo) <= gates._CATALOG
    assert experiment._PREFIX
    for key in experiment._PREFIX:
        assert all(matrix in gates._CATALOG for _, matrix in key)
    # No unitarity memo: the catalog is the only private table in gates.
    tables = [
        name for name, value in vars(gates).items()
        if name.startswith("_") and not name.startswith("__") and isinstance(value, (set, frozenset, dict))
    ]
    assert tables == ["_CATALOG"]


def _perturbed(matrix, size):
    """``matrix`` with ``size`` added to its top-left entry."""
    out = np.array(matrix, dtype=complex)
    out[0, 0] += size
    return out


@pytest.mark.parametrize("angle", [0.0, 0.7, math.pi / 2, -2.9])
def test_scalar_and_matmul_unitarity_checks_agree(angle):
    """A lone 2x2 matrix takes the scalar form of the check and a stack of
    one the matmul form; both hold every entry of U^dag U to UNITARY_ATOL."""
    exact = rotation_matrix(angle)
    for matrix in (exact, _perturbed(exact, 1e-14), random_unitary(np.random.default_rng(5), 2)):
        gates._check_unitary("ok", matrix)
        gates._check_unitary("ok", matrix[None])
    for bad in (_perturbed(exact, 1e-10), _perturbed(exact, -1e-10), _perturbed(exact, math.nan),
                _perturbed(exact, math.inf), _perturbed(exact, complex(0, math.nan)), np.full((2, 2), 1e200)):
        for matrix in (bad, bad[None]):
            with pytest.raises(ValueError, match="unitary"):
                gates._check_unitary("bad", matrix)
