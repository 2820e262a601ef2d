"""Descriptor engine: conjugation rules, substitution evolution, locality."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpictures import (
    Axis,
    Gate,
    OperatorSum,
    analyzer_rotation,
    cnot,
    conjugation_images,
    descriptor_expectation,
    evolve,
    evolve_circuit,
    hadamard,
    init_descriptors,
    max_term_deviation,
    pauli_x,
    pauli_y,
    pauli_z,
    random_circuit,
    untouched_invariance_check,
)
from dense import conjugated_observable, heisenberg_descriptor, operator_matrix, random_unitary
from qpictures.heisenberg import TermGrowthError
from qpictures.pauli import PRUNE_TOL

ENTANGLER = (hadamard(3), cnot(2, 3))  # four-qubit context: H on Q3, CN target Q2


class TestInitDescriptors:
    def test_initial_z_descriptor(self):
        ds = init_descriptors(4)
        qz2 = ds.z(2)
        assert len(qz2) == 1
        assert qz2.coefficient("Z2") == 1.0

    def test_initial_algebra_on_one_qubit(self):
        ds = init_descriptors(1)
        qx = ds.descriptor(1, Axis.X)
        assert max_term_deviation(qx * qx, OperatorSum.identity(1)) <= 0

    def test_all_initial_descriptors_hermitian(self):
        ds = init_descriptors(4)
        assert all(op.is_hermitian() for _, op in ds.items())

    @pytest.mark.parametrize("width", [0, 21])
    def test_width_out_of_range(self, width):
        with pytest.raises(ValueError, match="width"):
            init_descriptors(width)


class TestConjugationImages:
    @pytest.mark.parametrize(
        "gate",
        [
            hadamard(1), pauli_x(1), pauli_y(1), pauli_z(1), analyzer_rotation(1, 0.9), cnot(1, 2),
            Gate("U", (1, 2), random_unitary(np.random.default_rng(3), 4)),
            Gate("U", (1, 2, 3), random_unitary(np.random.default_rng(5), 8)),
        ],
    )
    def test_images_match_dense_conjugation(self, gate):
        images = conjugation_images(gate)
        for (slot, axis), image in images.items():
            local = OperatorSum.single_axis(gate.arity, slot + 1, axis)
            dense = conjugated_observable([gate], gate.arity, local)
            np.testing.assert_allclose(operator_matrix(image), dense, atol=1e-12)

    def test_hadamard_swaps_x_and_z(self):
        images = conjugation_images(hadamard(1))
        assert images[(0, Axis.Z)].coefficient("X1") == pytest.approx(1.0)
        assert images[(0, Axis.X)].coefficient("Z1") == pytest.approx(1.0)
        assert images[(0, Axis.Y)].coefficient("Y1") == pytest.approx(-1.0)

    def test_clifford_images_are_single_strings(self):
        for gate in (hadamard(1), pauli_x(1), pauli_y(1), pauli_z(1), cnot(1, 2)):
            for image in conjugation_images(gate).values():
                assert len(image) == 1

    def test_rotation_images_split_into_two_strings(self):
        images = conjugation_images(analyzer_rotation(1, 0.9))
        assert len(images[(0, Axis.Z)]) == 2
        assert len(images[(0, Axis.Y)]) == 2
        assert len(images[(0, Axis.X)]) == 1

    def test_cn_target_z_picks_up_minus_control_z(self):
        # |1>-first ket ordering: XOR of values is the *negated* product
        # of the +/-1 eigenvalues, hence the sign
        images = conjugation_images(cnot(1, 2))
        image = images[(0, Axis.Z)]
        assert len(image) == 1
        assert image.coefficient("Z1 Z2") == pytest.approx(-1.0)


class TestEvolve:
    def test_hadamard_turns_z_into_x(self):
        ds = evolve(init_descriptors(1), hadamard(1))
        assert ds.step == 1
        assert ds.z(1).coefficient("X1") == pytest.approx(1.0)
        assert len(ds.z(1)) == 1

    def test_entangler_q3_descriptor(self):
        ds = evolve_circuit(init_descriptors(4), ENTANGLER)
        qz3 = ds.z(3)
        assert len(qz3) == 1
        assert qz3.coefficient("X3") == pytest.approx(1.0)

    def test_entangler_q2_descriptor(self):
        # frozen from the dense conjugation oracle (also checked below)
        ds = evolve_circuit(init_descriptors(4), ENTANGLER)
        qz2 = ds.z(2)
        assert len(qz2) == 1
        assert qz2.coefficient("Z2 X3") == pytest.approx(-1.0)
        dense = heisenberg_descriptor(ENTANGLER, 4, 2, Axis.Z)
        assert max_term_deviation(qz2, dense) <= 1e-12

    def test_gate_qubit_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            evolve(init_descriptors(2), hadamard(3))

    def test_term_cap_aborts_with_diagnostic(self, monkeypatch):
        monkeypatch.setattr("qpictures.heisenberg.TERM_CAP", 1)
        with pytest.raises(TermGrowthError, match="grew"):
            evolve(init_descriptors(1), analyzer_rotation(1, 0.7))


class TestDescriptorExpectation:
    @pytest.mark.parametrize("theta", [0.0, 0.4, math.pi / 2, 2.9])
    def test_linear_terms_vanish(self, theta):
        gates = ENTANGLER + (analyzer_rotation(2, theta), analyzer_rotation(3, 1.1))
        ds = evolve_circuit(init_descriptors(4), gates)
        assert descriptor_expectation(ds.z(2)) == pytest.approx(0.0, abs=1e-12)
        assert descriptor_expectation(ds.z(3)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("theta,phi", [(0.0, 0.0), (0.7, 0.3), (2.0, -1.0)])
    def test_zz_product_value(self, theta, phi):
        gates = ENTANGLER + (analyzer_rotation(2, theta), analyzer_rotation(3, phi))
        ds = evolve_circuit(init_descriptors(4), gates)
        value = descriptor_expectation(ds.z(2) * ds.z(3))
        assert value == pytest.approx(math.cos(theta - phi), abs=1e-12)
        pair = descriptor_expectation(ds.z(2), ds.z(3))
        assert isinstance(pair, float)
        assert pair == pytest.approx(math.cos(theta - phi), abs=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            descriptor_expectation(OperatorSum(1, [("X1", 1.0j)]))

    def test_non_hermitian_factor_rejected(self):
        # Explicit raises, so this holds under python -O as well.
        hermitian = OperatorSum(1, [("Z1", 1.0)])
        non_hermitian = OperatorSum(1, [("X1", 1.0j)])
        with pytest.raises(ValueError, match="Hermitian"):
            descriptor_expectation(non_hermitian, hermitian)
        with pytest.raises(ValueError, match="Hermitian"):
            descriptor_expectation(hermitian, non_hermitian)

    def test_nan_descriptor_raises(self):
        # The NaN terms survive pruning, so the read cannot come out 0.0.
        with pytest.raises(ValueError, match="Hermitian"):
            descriptor_expectation(init_descriptors(2).z(1) * math.nan)

    def test_complex_pair_value_rejected(self):
        # X and Y are Hermitian but do not commute: <0|X Y|0> = -i
        x = OperatorSum(1, [("X1", 1.0)])
        y = OperatorSum(1, [("Y1", 1.0)])
        with pytest.raises(AssertionError, match="complex"):
            descriptor_expectation(x, y)

    def test_batched_pair_read_gives_one_value_per_column(self):
        angles = np.array([0.0, 0.7, 2.0])
        gates = ENTANGLER + (analyzer_rotation(2, angles), analyzer_rotation(3, 0.3))
        ds = evolve_circuit(init_descriptors(4), gates)
        values = descriptor_expectation(ds.z(2), ds.z(3))
        np.testing.assert_allclose(values, np.cos(angles - 0.3), rtol=0, atol=1e-12)


class TestUntouchedInvariance:
    def test_single_qubit_gate_leaves_others(self):
        before = init_descriptors(4)
        gate = hadamard(3)
        report = untouched_invariance_check(before, evolve(before, gate), gate)
        assert report
        assert set(report.checked) == {
            (q, a) for q in (1, 2, 4) for a in (Axis.X, Axis.Y, Axis.Z)
        }

    def test_gate_on_ancilla_leaves_entangled_pair(self):
        before = evolve_circuit(init_descriptors(4), ENTANGLER)
        gate = pauli_x(1)
        report = untouched_invariance_check(before, evolve(before, gate), gate)
        assert report
        assert (3, Axis.Z) in report.checked

    def test_cn_changes_target_but_not_bystander(self):
        before = init_descriptors(4)
        gate = cnot(2, 3)
        after = evolve(before, gate)
        report = untouched_invariance_check(before, after, gate)
        assert report
        assert (1, Axis.Z) in report.checked
        assert not after.z(2).equal_terms(before.z(2))
        assert after.z(1).equal_terms(before.z(1))


class TestEvolutionProperties:
    @pytest.mark.parametrize("seed", range(8))
    def test_dense_conjugation_oracle(self, seed):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(2, 5))
        gates = random_circuit(width, 8, rng)
        ds = evolve_circuit(init_descriptors(width), gates)
        for qubit in range(1, width + 1):
            for axis in (Axis.X, Axis.Y, Axis.Z):
                dense = conjugated_observable(
                    gates, width, OperatorSum.single_axis(width, qubit, axis)
                )
                np.testing.assert_allclose(
                    operator_matrix(ds.descriptor(qubit, axis)), dense, atol=1e-10
                )

    @pytest.mark.parametrize("batch", [None, 3])
    def test_general_two_qubit_gate_matches_dense_conjugation(self, batch):
        # A generic unitary's images hold every multi-factor term, where each
        # catalog gate's image is a single string.
        rng = np.random.default_rng(11)
        stack = np.stack([random_unitary(rng, 4) for _ in range(batch or 1)])
        gate = Gate("U", (1, 3), stack if batch else stack[0])
        assert all(len(image) == 15 for image in conjugation_images(gate).values())
        ds = evolve_circuit(init_descriptors(3), [hadamard(1), gate])
        for j, matrix in enumerate(stack):
            gates = [hadamard(1), Gate("U", (1, 3), matrix)]
            for qubit in range(1, 4):
                for axis in (Axis.X, Axis.Y, Axis.Z):
                    got = ds.descriptor(qubit, axis)
                    dense = conjugated_observable(gates, 3, OperatorSum.single_axis(3, qubit, axis))
                    np.testing.assert_allclose(
                        operator_matrix(got if batch is None else got.column(j)), dense, atol=1e-12
                    )

    @pytest.mark.parametrize("seed", range(8))
    def test_hermiticity_preserved(self, seed):
        rng = np.random.default_rng(100 + seed)
        width = int(rng.integers(2, 6))
        ds = evolve_circuit(init_descriptors(width), random_circuit(width, 10, rng))
        assert all(op.is_hermitian(1e-12) for _, op in ds.items())

    @pytest.mark.parametrize("seed", range(6))
    def test_pauli_algebra_preserved(self, seed):
        rng = np.random.default_rng(200 + seed)
        width = int(rng.integers(2, 5))
        ds = evolve_circuit(init_descriptors(width), random_circuit(width, 8, rng))
        for qubit in range(1, width + 1):
            qx, qy, qz = (ds.descriptor(qubit, a) for a in (Axis.X, Axis.Y, Axis.Z))
            assert max_term_deviation(qx * qy, 1j * qz) <= 1e-10
            assert max_term_deviation(qy * qz, 1j * qx) <= 1e-10
            assert max_term_deviation(qz * qx, 1j * qy) <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_z_descriptors_are_involutions(self, seed):
        rng = np.random.default_rng(300 + seed)
        width = int(rng.integers(2, 5))
        ds = evolve_circuit(init_descriptors(width), random_circuit(width, 10, rng))
        for qubit in range(1, width + 1):
            assert max_term_deviation(ds.z(qubit) * ds.z(qubit), OperatorSum.identity(width)) <= 1e-10


@st.composite
def circuits_with_special_rotations(draw):
    """A seeded random circuit with R at special angles spliced in:
    0, pi/2 and pi give one-string rotation images, and two R(pi/4) on one
    qubit cancel a term down to rounding error, which must be pruned."""
    width = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gates = list(random_circuit(width, draw(st.integers(1, 10)), rng))
    for _ in range(draw(st.integers(0, 4))):
        angle = draw(st.sampled_from([0.0, math.pi / 4, math.pi / 2, math.pi]))
        gate = analyzer_rotation(draw(st.integers(1, width)), angle)
        gates.insert(draw(st.integers(0, len(gates))), gate)
    return width, gates


@given(circuits_with_special_rotations())
def test_descriptors_stay_canonical_after_every_step(circuit):
    width, gates = circuit
    ds = init_descriptors(width)
    for gate in gates:
        ds = evolve(ds, gate)
        for _, op in ds.items():
            terms = list(op.iter_terms())
            # axis tuples sort like the packed keys: qubit 1 first, I < X < Y < Z
            axes = [string.axes for string, _ in terms]
            assert all(a < b for a, b in zip(axes, axes[1:]))
            assert all(abs(coeff) >= PRUNE_TOL for _, coeff in terms)
