"""Descriptor engine: conjugation rules, substitution evolution, locality."""
import math
import re
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qpictures import (
    Axis,
    Gate,
    OperatorSum,
    analyzer_rotation,
    cnot,
    evolve,
    evolve_circuit,
    hadamard,
    init_descriptors,
    max_term_deviation,
    pauli_x,
    pauli_y,
    pauli_z,
    random_circuit,
)
from dense import (
    brickwork,
    conjugated_observable,
    heisenberg_descriptor,
    operator_matrix,
    random_unitary,
    reference_step,
    terms,
)
from qpictures import heisenberg, pauli, verification
from qpictures.experiment import ExperimentConfig, build_timeline
from qpictures.heisenberg import DescriptorSet, TermGrowthError, conjugation_images, z_moments
from qpictures.pauli import PRUNE_TOL, pair_matrix_in_all_zeros
from qpictures.states import expectation, new_all_zeros

ENTANGLER = (hadamard(3), cnot(2, 3))  # four-qubit context: H on Q3, CN target Q2

# Batches of one: a Haar-random 3-qubit unitary stacked alone, and a
# rotation at one angle, whose products on a width-1 set are all (1, 1).
HAAR_OF_ONE = Gate("U", (3, 1, 2), random_unitary(np.random.default_rng(13), 8)[None])
ROTATION_OF_ONE = analyzer_rotation(1, [0.3])


class TestInitDescriptors:
    def test_initial_z_descriptor(self):
        ds = init_descriptors(4)
        assert ds.z(2).equal_terms(OperatorSum(4, [("Z2", 1.0)]))

    def test_initial_algebra_on_one_qubit(self):
        ds = init_descriptors(1)
        qx = ds.descriptor(1, Axis.X)
        assert max_term_deviation(qx * qx, OperatorSum.identity(1)) <= 0

    def test_all_initial_descriptors_hermitian(self):
        ds = init_descriptors(4)
        pauli._check_hermitian([op for _, op in ds.items()])

    @pytest.mark.parametrize("width", [0, 21])
    def test_width_out_of_range(self, width):
        with pytest.raises(ValueError, match="width"):
            init_descriptors(width)

    @pytest.mark.parametrize("axis", [Axis.I, 0])
    def test_identity_axis_rejected(self, axis):
        with pytest.raises(ValueError, match="axis I"):
            init_descriptors(2).descriptor(1, axis)


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
        for axis, want in ((Axis.Z, ("X1", 1.0)), (Axis.X, ("Z1", 1.0)), (Axis.Y, ("Y1", -1.0))):
            assert max_term_deviation(images[(0, axis)], OperatorSum(1, [want])) <= 1e-12

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
        assert max_term_deviation(image, OperatorSum(2, [("Z1 Z2", -1.0)])) <= 1e-12


class TestOperandPaulis:
    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_cached_per_arity_and_read_only(self, arity):
        images_of, paulis, gather, phases = heisenberg._operand_paulis(arity)
        assert heisenberg._operand_paulis(arity)[1] is paulis
        for (slot, axis), matrix in zip(images_of, paulis, strict=True):
            local = OperatorSum.single_axis(arity, slot + 1, axis)
            np.testing.assert_array_equal(matrix, operator_matrix(local))
        # The gathered product is the matmul's, bit for bit.
        a = random_unitary(np.random.default_rng(arity), 2**arity)
        np.testing.assert_array_equal(a.ravel()[gather] * phases[:, 0], a @ paulis)
        for table in (paulis, gather, phases):
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = 1


class TestEvolve:
    def test_hadamard_turns_z_into_x(self):
        ds = evolve(init_descriptors(1), hadamard(1))
        assert ds.step == 1
        assert max_term_deviation(ds.z(1), OperatorSum(1, [("X1", 1.0)])) <= 1e-12
        assert len(ds.z(1)) == 1

    def test_entangler_q3_descriptor(self):
        ds = evolve_circuit(init_descriptors(4), ENTANGLER)
        qz3 = ds.z(3)
        assert len(qz3) == 1
        assert max_term_deviation(qz3, OperatorSum(4, [("X3", 1.0)])) <= 1e-12

    def test_entangler_q2_descriptor(self):
        # frozen from the dense conjugation oracle (also checked below)
        ds = evolve_circuit(init_descriptors(4), ENTANGLER)
        qz2 = ds.z(2)
        assert len(qz2) == 1
        assert max_term_deviation(qz2, OperatorSum(4, [("Z2 X3", -1.0)])) <= 1e-12
        dense = heisenberg_descriptor(ENTANGLER, 4, 2, Axis.Z)
        assert max_term_deviation(qz2, dense) <= 1e-12

    def test_gate_qubit_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            evolve(init_descriptors(2), hadamard(3))

    def test_term_cap_aborts_with_diagnostic(self, monkeypatch):
        """Every path of the step checks the cap: R and stacked R through the
        single-qubit mix, and CN on entangled descriptors through the rule."""
        cases = [
            ((analyzer_rotation(1, 0.7),), "qubit 1 axis Y grew to 2 terms at step 1"),
            ((analyzer_rotation(1, [0.7, 1.1]),), "qubit 1 axis Y grew to 2 terms at step 1"),
            (ENTANGLER + (analyzer_rotation(2, 0.4), cnot(1, 2)), "qubit 1 axis Y grew to 2 terms at step 4"),
        ]
        before = [evolve_circuit(init_descriptors(4), gates[:-1]) for gates, _ in cases]
        monkeypatch.setattr("qpictures.heisenberg.TERM_CAP", 1)
        for ds, (gates, message) in zip(before, cases):
            with pytest.raises(TermGrowthError, match=re.escape(f"descriptor for {message} (cap 1)")):
                evolve(ds, gates[-1])


def _one_group_read(a, b=None):
    """The real part of <0|a|0>, or with ``b`` of the pair read <0|a b|0>,
    read as a group of its own operands alone by
    ``pauli.pair_matrix_in_all_zeros``."""
    singles, pairs = pair_matrix_in_all_zeros([[a] if b is None else [a, b]])
    return (singles[0, 0] if b is None else pairs[0, 0, 1]).real


class TestDescriptorExpectation:
    """Descriptor expectations at |0..0>, read through ``z_moments`` or a
    one-group kernel read."""

    @pytest.mark.parametrize("theta", [0.0, 0.4, math.pi / 2, 2.9])
    def test_linear_terms_vanish(self, theta):
        gates = ENTANGLER + (analyzer_rotation(2, theta), analyzer_rotation(3, 1.1))
        z, _ = z_moments(evolve_circuit(init_descriptors(4), gates))
        assert z[1] == pytest.approx(0.0, abs=1e-12)
        assert z[2] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("theta,phi", [(0.0, 0.0), (0.7, 0.3), (2.0, -1.0)])
    def test_zz_product_value(self, theta, phi):
        """The pair read, which never forms the product, against the read
        of the product."""
        gates = ENTANGLER + (analyzer_rotation(2, theta), analyzer_rotation(3, phi))
        ds = evolve_circuit(init_descriptors(4), gates)
        value = _one_group_read(ds.z(2) * ds.z(3))
        assert value == pytest.approx(math.cos(theta - phi), abs=1e-12)
        _, zz = z_moments(ds)
        assert zz[1, 2] == pytest.approx(math.cos(theta - phi), abs=1e-12)

    def test_non_hermitian_rejected(self):
        # One non-Hermitian column of a batched descriptor is enough.
        with pytest.raises(ValueError, match="Hermitian"):
            z_moments(_z_set(OperatorSum(1, [("X1", [1.0, 1.0j])])))

    def test_non_hermitian_factor_rejected(self):
        # Explicit raises, so this holds under python -O as well.
        hermitian = OperatorSum(2, [("Z1", 1.0)])
        non_hermitian = OperatorSum(2, [("X1", 1.0j)])
        with pytest.raises(ValueError, match="Hermitian"):
            z_moments(_z_set(non_hermitian, hermitian))
        with pytest.raises(ValueError, match="Hermitian"):
            z_moments(_z_set(hermitian, non_hermitian))

    def test_nan_descriptor_raises(self):
        # The NaN terms survive pruning, so the read cannot come out 0.0; a
        # NaN in one column of a batched descriptor fails the whole read.
        with pytest.raises(ValueError, match="Hermitian"):
            z_moments(_z_set(init_descriptors(1).z(1) * math.nan))
        with pytest.raises(ValueError, match="Hermitian"):
            z_moments(_z_set(OperatorSum(1, [("Z1", [1.0, math.nan])])))

    def test_complex_pair_value_rejected(self):
        # X and Y are Hermitian but do not commute: <0|X Y|0> = -i, while
        # <0|X Z|0> = 0.  A batched read raises when one column is complex.
        x = OperatorSum(2, [("X1", [1.0, 1.0])])
        z_or_y = OperatorSum(2, [("Z1", [1.0, 0.0]), ("Y1", [0.0, 1.0])])
        with pytest.raises(AssertionError, match="complex"):
            z_moments(_z_set(x, z_or_y))

    def test_batched_pair_read_gives_one_value_per_column(self):
        angles = np.array([0.0, 0.7, 2.0])
        gates = ENTANGLER + (analyzer_rotation(2, angles), analyzer_rotation(3, 0.3))
        _, zz = z_moments(evolve_circuit(init_descriptors(4), gates))
        np.testing.assert_allclose(zz[1, 2], np.cos(angles - 0.3), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("coeff", [1.0j, math.nan], ids=["non_hermitian", "nan"])
    def test_both_pictures_apply_one_hermitian_rule(self, coeff):
        op = OperatorSum(2, [("Z1", coeff)])
        with pytest.raises(ValueError, match="Hermitian") as descriptors:
            z_moments(_z_set(op, init_descriptors(2).z(2)))
        with pytest.raises(ValueError, match="Hermitian") as statevector:
            expectation(new_all_zeros(2), op)
        assert str(descriptors.value) == str(statevector.value)


def _z_set(*ops):
    """A descriptor set whose z descriptors are ``ops``, qubit 1 first."""
    table = {(q, Axis.Z): op for q, op in enumerate(ops, start=1)}
    return DescriptorSet(ops[0].width, 0, MappingProxyType(table))


class TestZMoments:
    @staticmethod
    def _circuits():
        """The picture_equivalence circuits, then four width-6 brickworks."""
        rng = np.random.default_rng(verification.PICTURE_CHECK_SEED)
        for i in range(verification.PICTURE_CHECK_CIRCUITS):
            width = 2 + i % 4
            depth = int(rng.integers(1, 13))
            yield width, random_circuit(width, depth, rng)
        for seed in range(4):
            yield 6, brickwork(6, 7, seed)

    def test_matches_one_read_per_moment(self):
        """Every single and pair read within 2.3e-16 of its own one-group
        read.  The diagonal <q_z q_z> = 1, which no check scores, sums ~10**3
        squares at width 6: within 4 ulps."""
        worst = worst_diagonal = 0.0
        for width, gates in self._circuits():
            ds = evolve_circuit(init_descriptors(width), gates)
            z, zz = z_moments(ds)
            assert z.shape == (width,) and zz.shape == (width, width)
            assert z.dtype == zz.dtype == np.float64
            for q in range(1, width + 1):
                worst = max(worst, abs(z[q - 1] - _one_group_read(ds.z(q))))
                for r in range(1, width + 1):
                    deviation = abs(zz[q - 1, r - 1] - _one_group_read(ds.z(q), ds.z(r)))
                    if q == r:
                        worst_diagonal = max(worst_diagonal, deviation)
                    else:
                        worst = max(worst, deviation)
        assert worst <= 2.3e-16
        assert worst_diagonal <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize(
        "op",
        [OperatorSum(2, [("X1", 1.0j)]), init_descriptors(2).z(1) * math.nan],
        ids=["non_hermitian", "nan"],
    )
    def test_non_hermitian_descriptor_rejected(self, op):
        with pytest.raises(ValueError, match="Hermitian"):
            z_moments(_z_set(init_descriptors(2).z(1), op))

    def test_batched_set_reads_one_value_per_column(self):
        angles = [0.1, 0.2, 2.5]
        ds = evolve_circuit(init_descriptors(2), (analyzer_rotation(1, angles), cnot(2, 1)))
        z, zz = z_moments(ds)
        assert z.shape == (2, 3) and zz.shape == (2, 2, 3)
        np.testing.assert_allclose(z, [-np.cos(angles)] * 2, rtol=0, atol=1e-15)
        # The CN copies qubit 1's z onto qubit 2, so <q_z1 q_z2> = <q_z1 q_z1> = 1.
        np.testing.assert_allclose(zz, np.ones((2, 2, 3)), rtol=0, atol=1e-15)

    def test_batched_sets_of_different_sizes_rejected(self):
        rotations = [analyzer_rotation(1, angles) for angles in ([0.1, 0.2], [0.1, 0.2, 0.3])]
        sets = [evolve(init_descriptors(2), gate) for gate in rotations]
        with pytest.raises(ValueError, match="batch size mismatch"):
            heisenberg._z_moments_many(sets)

    def test_complex_result_rejected(self):
        # X1 and Y1 are Hermitian but do not commute: <0|X1 Y1|0> = -i.  The
        # raise is explicit, so this holds under python -O as well.
        with pytest.raises(AssertionError, match="complex"):
            z_moments(_z_set(OperatorSum(2, [("X1", 1.0)]), OperatorSum(2, [("Y1", 1.0)])))

    def test_width_one(self):
        z, zz = z_moments(evolve(init_descriptors(1), analyzer_rotation(1, 0.3)))
        assert zz.shape == (1, 1)
        assert z[0] == pytest.approx(-math.cos(0.3), abs=1e-15)
        assert zz[0, 0] == pytest.approx(1.0, abs=1e-15)


def _bystanders_changed(before, after, gate):
    """The locality rule by qubit: the descriptors of qubits outside the
    gate's operands that are not termwise equal after the step."""
    return [
        (q, axis)
        for (q, axis), old in before.items()
        if q not in gate.qubits and not old.equal_terms(after.descriptor(q, axis))
    ]


class TestUntouchedInvariance:
    def test_single_qubit_gate_leaves_others(self):
        before = init_descriptors(4)
        gate = hadamard(3)
        after = evolve(before, gate)
        assert _bystanders_changed(before, after, gate) == []
        assert not after.z(3).equal_terms(before.z(3))

    def test_gate_on_ancilla_leaves_entangled_pair(self):
        before = evolve_circuit(init_descriptors(4), ENTANGLER)
        gate = pauli_x(1)
        after = evolve(before, gate)
        assert _bystanders_changed(before, after, gate) == []
        # q_z2 acts on Q3 as well after the entangler; X on Q1 keeps both.
        assert after.z(2).equal_terms(before.z(2))
        assert after.z(3).equal_terms(before.z(3))

    def test_cn_changes_target_but_not_bystander(self):
        before = init_descriptors(4)
        gate = cnot(2, 3)
        after = evolve(before, gate)
        assert _bystanders_changed(before, after, gate) == []
        assert not after.z(2).equal_terms(before.z(2))
        assert after.z(1).equal_terms(before.z(1))

    def test_gate_after_swap_leaves_the_other_qubit(self):
        # Three CNs swap Q1 and Q2, so Q1's descriptors act on Q2 only; H on
        # Q1 then rewrites them and leaves Q2's, which act on Q1.
        before = evolve_circuit(init_descriptors(2), (cnot(1, 2), cnot(2, 1), cnot(1, 2)))
        gate = hadamard(1)
        after = evolve(before, gate)
        for axis in (Axis.X, Axis.Y, Axis.Z):
            assert after.descriptor(2, axis).equal_terms(before.descriptor(2, axis))
            assert not after.descriptor(1, axis).equal_terms(before.descriptor(1, axis))


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
        pauli._check_hermitian([op for _, op in ds.items()])

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
            pairs = terms(op)
            # axis tuples sort like the packed keys: qubit 1 first, I < X < Y < Z
            axes = [string.axes for string, _ in pairs]
            assert all(a < b for a, b in zip(axes, axes[1:]))
            assert all(abs(coeff) >= PRUNE_TOL for _, coeff in pairs)


def _steps_match_the_reference_step(width, gates):
    """Every descriptor after every step is ``reference_step``'s, bit for
    bit; returns the final set."""
    ds = init_descriptors(width)
    for gate in gates:
        got, want = evolve(ds, gate), reference_step(ds, gate)
        assert got.step == want.step
        for key, op in want.items():
            assert got.descriptor(*key).equal_terms(op), (gate, key)
        ds = got
    return ds


@st.composite
def oracle_circuits(draw):
    """A seeded random circuit of all six catalog kinds at width 1-8, with
    stacked R gates (one batch size per circuit) and a Haar-random 2-qubit
    unitary spliced in."""
    width = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gates = list(random_circuit(width, draw(st.integers(1, 12)), rng))
    batch = draw(st.integers(1, 4))
    for _ in range(draw(st.integers(0, 3))):
        gate = analyzer_rotation(draw(st.integers(1, width)), list(rng.uniform(0.0, 2 * math.pi, batch)))
        gates.insert(draw(st.integers(0, len(gates))), gate)
    if width > 1 and draw(st.booleans()):
        qubits = tuple(int(q) + 1 for q in rng.choice(width, 2, replace=False))
        gates.insert(draw(st.integers(0, len(gates))), Gate("U", qubits, random_unitary(rng, 4)))
    return width, gates


@given(oracle_circuits())
@example((1, [ROTATION_OF_ONE, hadamard(1), analyzer_rotation(1, [1.1])]))
@example((3, [hadamard(1), HAAR_OF_ONE, HAAR_OF_ONE]))
def test_evolve_matches_the_reference_step(circuit):
    _steps_match_the_reference_step(*circuit)


@given(st.lists(st.tuples(st.floats(-7, 7), st.floats(-7, 7)), min_size=1, max_size=4))
def test_timeline_matches_the_reference_step(pairs):
    """The record CN(1, 2) after the analyzers meets Q1's unbatched and Q2's
    batched descriptors."""
    timeline = build_timeline([ExperimentConfig(*pair) for pair in pairs])
    ds = _steps_match_the_reference_step(4, [gate for segment in timeline[:2] for gate in segment])
    assert ds.z(1).batch is None and ds.z(2).batch == len(pairs)
    _steps_match_the_reference_step(4, [gate for segment in timeline for gate in segment])


def test_stacked_non_clifford_unitary_matches_the_reference_step():
    rng = np.random.default_rng(11)
    stack = np.stack([random_unitary(rng, 4) for _ in range(3)])
    gate = Gate("U", (1, 3), stack)
    assert all(len(image) == 15 for image in conjugation_images(gate).values())
    _steps_match_the_reference_step(3, [hadamard(1), analyzer_rotation(3, 0.4), gate, cnot(2, 3)])


@pytest.mark.parametrize("stacked", [False, True])
def test_three_qubit_unitary_matches_the_reference_step(stacked):
    """A Haar-random 3-qubit unitary's image terms have up to three
    factors, so its products form in two rounds."""
    rng = np.random.default_rng(13)
    matrix = np.stack([random_unitary(rng, 8) for _ in range(2)]) if stacked else random_unitary(rng, 8)
    gate = Gate("U", (3, 1, 4), matrix)
    _steps_match_the_reference_step(4, [hadamard(1), cnot(2, 1), analyzer_rotation(3, 0.4), gate, gate])


def test_dense_route_steps_match_the_reference_step(monkeypatch):
    dense = []
    real = pauli._dense_product
    monkeypatch.setattr(pauli, "_dense_product", lambda a, b: dense.append(a.width) or real(a, b))
    _steps_match_the_reference_step(6, brickwork(6, 7, seed=1))
    assert dense


@pytest.mark.parametrize("chunk", [16, 256])
def test_chunked_products_match_the_reference_step(monkeypatch, chunk):
    """With a small pair chunk, some steps' products no longer fit one
    joint pass, and the larger ones are formed in chunks."""
    monkeypatch.setattr(pauli, "_PAIR_CHUNK", chunk)
    _steps_match_the_reference_step(4, brickwork(4, 5, seed=3))


def _lockstep_matches_the_reference_step(width, circuits):
    """Advance every circuit's set one ``_evolve_many`` step at a time, the
    sets whose circuits have ended dropping out, and hold every descriptor
    after every step to ``reference_step``'s, bit for bit, and the final
    sets to ``evolve_circuit``'s."""
    sets = [init_descriptors(width)] * len(circuits)
    for step in range(max(map(len, circuits))):
        live = [i for i, gates in enumerate(circuits) if step < len(gates)]
        got = heisenberg._evolve_many([sets[i] for i in live], [circuits[i][step : step + 1] for i in live])
        for i, after in zip(live, got):
            want = reference_step(sets[i], circuits[i][step])
            assert after.step == want.step
            for key, op in want.items():
                assert after.descriptor(*key).equal_terms(op), (i, step, key)
            sets[i] = after
    for ds, gates in zip(sets, circuits):
        serial = evolve_circuit(init_descriptors(width), gates)
        assert all(ds.descriptor(*key).equal_terms(op) for key, op in serial.items())


@st.composite
def lockstep_groups(draw):
    """Two to five seeded random circuits of one width 1-6 and unequal
    depths, stacked R gates of one batch size spliced in, and Haar-random
    2- and 3-qubit unitaries, some stacked."""
    width = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = draw(st.integers(1, 3))
    circuits = []
    for _ in range(draw(st.integers(2, 5))):
        gates = list(random_circuit(width, draw(st.integers(0, 10)), rng))
        for _ in range(draw(st.integers(0, 2))):
            gate = analyzer_rotation(draw(st.integers(1, width)), list(rng.uniform(0.0, 2 * math.pi, batch)))
            gates.insert(draw(st.integers(0, len(gates))), gate)
        for arity in range(2, min(width, 3) + 1):
            if draw(st.booleans()):
                qubits = tuple(int(q) + 1 for q in rng.choice(width, arity, replace=False))
                stack = [random_unitary(rng, 2**arity) for _ in range(batch)]
                matrix = np.stack(stack) if draw(st.booleans()) else stack[0]
                gates.insert(draw(st.integers(0, len(gates))), Gate("U", qubits, matrix))
        circuits.append(gates)
    return width, circuits


class TestLockstep:
    @given(lockstep_groups())
    @example((1, [[ROTATION_OF_ONE], [hadamard(1), ROTATION_OF_ONE, analyzer_rotation(1, [1.1])]]))
    @example((3, [[HAAR_OF_ONE], [hadamard(2), HAAR_OF_ONE, HAAR_OF_ONE]]))
    def test_every_step_matches_the_reference_step(self, group):
        _lockstep_matches_the_reference_step(*group)

    def test_picture_circuits_match_evolve_circuit(self):
        """The picture_equivalence circuits, grouped by width, all six gate
        kinds at depths 1-12, come out as evolve_circuit gives them."""
        circuits = verification._picture_circuits()
        for width in range(2, 6):
            group = [gates for w, gates in circuits if w == width]
            sets = heisenberg._evolve_many([init_descriptors(width)] * len(group), group)
            for ds, gates in zip(sets, group):
                assert ds.step == len(gates)
                serial = evolve_circuit(init_descriptors(width), gates)
                assert all(ds.descriptor(*key).equal_terms(op) for key, op in serial.items())

    def test_three_qubit_unitaries_match_the_reference_step(self):
        """Haar-random 3-qubit unitaries, one per circuit, whose image terms
        have up to three factors: their products form in two rounds, over
        every set at once."""
        rng = np.random.default_rng(17)
        circuits = [
            [hadamard(1), cnot(2, 1), Gate("U", (3, 1, 4), random_unitary(rng, 8)), analyzer_rotation(3, 0.4)],
            [Gate("U", (1, 2, 3), random_unitary(rng, 8)), Gate("U", (4, 2, 1), random_unitary(rng, 8))],
            [pauli_y(2), Gate("U", (2, 4, 3), np.stack([random_unitary(rng, 8) for _ in range(2)]))],
        ]
        _lockstep_matches_the_reference_step(4, circuits)

    def test_dense_and_chunked_products_match_the_reference_step(self, monkeypatch):
        dense = []
        real = pauli._dense_product
        monkeypatch.setattr(pauli, "_dense_product", lambda a, b: dense.append(a.width) or real(a, b))
        _lockstep_matches_the_reference_step(6, [brickwork(6, 7, seed=1), brickwork(6, 4, seed=2)])
        assert dense
        monkeypatch.setattr(pauli, "_PAIR_CHUNK", 64)
        _lockstep_matches_the_reference_step(4, [brickwork(4, 5, seed=3), brickwork(4, 3, seed=4)])

    def test_empty_and_ended_circuits(self):
        sets = heisenberg._evolve_many([init_descriptors(2)] * 3, [(), (hadamard(1),), ()])
        assert [ds.step for ds in sets] == [0, 1, 0]
        assert heisenberg._evolve_many([], []) == []

    def test_term_growth_error_from_inside_a_group(self, monkeypatch):
        monkeypatch.setattr("qpictures.heisenberg.TERM_CAP", 1)
        circuits = [(hadamard(1), pauli_x(2)), (hadamard(2), analyzer_rotation(1, 0.7))]
        message = "descriptor for qubit 1 axis Y grew to 2 terms at step 2 (cap 1)"
        with pytest.raises(TermGrowthError, match=re.escape(message)):
            heisenberg._evolve_many([init_descriptors(2)] * 2, circuits)

    def test_term_growth_error_names_the_gate_of_its_layer(self, monkeypatch):
        """The growing R is the second gate of its circuit's first layer but
        the fourth gate of the circuit, which starts after step 1: the raise
        names the gate's own step, 5, whether the circuit runs alone or in a
        group, or its gates one at a time."""
        monkeypatch.setattr("qpictures.heisenberg.TERM_CAP", 1)
        ds = evolve(init_descriptors(3), hadamard(3))
        circuit = (hadamard(1), pauli_x(1), hadamard(1), analyzer_rotation(2, 0.7))
        assert [[step for step, _ in layer] for layer in heisenberg._layers(circuit, ds.step + 1)] == [
            [2, 5], [3], [4],
        ]
        message = "descriptor for qubit 2 axis Y grew to 2 terms at step 5 (cap 1)"
        with pytest.raises(TermGrowthError, match=re.escape(message)):
            evolve_circuit(ds, circuit)
        with pytest.raises(TermGrowthError, match=re.escape(message)):
            heisenberg._evolve_many([ds] * 2, [circuit[:1], circuit])
        for gate in circuit[:3]:
            ds = evolve(ds, gate)
        with pytest.raises(TermGrowthError, match=re.escape(message)):
            evolve(ds, circuit[3])

    def test_mixed_widths_and_counts_rejected(self):
        with pytest.raises(ValueError, match="width mismatch"):
            heisenberg._evolve_many([init_descriptors(2), init_descriptors(3)], [(hadamard(1),)] * 2)
        with pytest.raises(ValueError, match="2 descriptor sets for 1 circuits"):
            heisenberg._evolve_many([init_descriptors(2)] * 2, [(hadamard(1),)])
        with pytest.raises(ValueError, match="outside width 2"):
            heisenberg._evolve_many([init_descriptors(2)] * 2, [(hadamard(1),), (hadamard(3),)])

    def test_batch_size_mismatch_rejected(self):
        circuits = [(analyzer_rotation(1, [0.1, 0.2]),), (analyzer_rotation(1, [0.1, 0.2, 0.3]),)]
        with pytest.raises(ValueError, match="batch size mismatch"):
            heisenberg._evolve_many([init_descriptors(1)] * 2, circuits)

    def test_batch_size_mismatch_in_one_circuit_rejected_before_the_first_step(self):
        """Batches 2 and 3 on disjoint qubits raise whether their gates share
        a layer or not, and so does a batched set against a gate of another
        batch size on other qubits."""
        two, three = analyzer_rotation(1, [0.1, 0.2]), analyzer_rotation(2, [0.1, 0.2, 0.3])
        for circuit in ([two, three], [hadamard(2), two, hadamard(2), three]):
            with pytest.raises(ValueError, match="batch size mismatch"):
                evolve_circuit(init_descriptors(2), circuit)
        with pytest.raises(ValueError, match="batch size mismatch"):
            evolve_circuit(evolve(init_descriptors(2), two), [three])


def _gate_by_gate(ds, gates):
    for gate in gates:
        ds = evolve(ds, gate)
    return ds


def _assert_same_bits(got, want):
    """Equal steps and every descriptor equal to the last bit: batch, keys
    and coefficient bytes, so a -0.0 against a 0.0 counts as a difference."""
    assert got.width == want.width and got.step == want.step
    assert [key for key, _ in got.items()] == [key for key, _ in want.items()]
    for key, op in want.items():
        other = got.descriptor(*key)
        assert other._batch == op._batch, key
        assert other._keys.tobytes() == op._keys.tobytes(), key
        assert other._coeffs.tobytes() == op._coeffs.tobytes(), key


def _layered_families():
    """The circuit families of the ``descriptors.sha256`` golden output, by
    width: seeded random circuits at widths 2-8, timelines stacked over 1, 3
    and 8 angle pairs, and the width-6 brickwork."""
    rng = np.random.default_rng(21)
    families = [(width, [random_circuit(width, 16, rng) for _ in range(6)]) for width in range(2, 9)]
    timelines = []
    for count in (1, 3, 8):
        angles = rng.uniform(-math.pi, math.pi, (count, 2))
        timelines.append([gate for step in build_timeline([ExperimentConfig(*pair) for pair in angles]) for gate in step])
    families.append((4, timelines))
    families.append((6, [brickwork(6, 7, seed=1)]))
    return families


class TestLayers:
    def test_asap_layers(self):
        """A gate goes one layer past the last gate on any of its qubits;
        a layer keeps circuit order and holds no qubit twice."""
        circuit = (hadamard(1), cnot(2, 3), pauli_x(4), hadamard(2), cnot(1, 4), pauli_z(3), hadamard(1))
        layers = heisenberg._layers(circuit, 1)
        assert [[step for step, _ in layer] for layer in layers] == [[1, 2, 3], [4, 5, 6], [7]]
        assert all(gate is circuit[step - 1] for layer in layers for step, gate in layer)
        assert heisenberg._layers((), 1) == []
        rng = np.random.default_rng(4)
        for width in range(1, 7):
            circuit = random_circuit(width, 20, rng)
            layers = heisenberg._layers(circuit, 1)
            assert sorted(step for layer in layers for step, _ in layer) == list(range(1, 21))
            for layer in layers:
                qubits = [q for _, gate in layer for q in gate.qubits]
                assert len(qubits) == len(set(qubits))

    @pytest.mark.parametrize("family", range(9))
    def test_layered_evolution_equals_gate_by_gate(self, family):
        """``evolve_circuit`` and a lockstep ``_evolve_many`` group, one step
        per layer, give every descriptor bit for bit as ``evolve`` gives it
        gate by gate, over every circuit family ``descriptors.sha256`` pins."""
        width, circuits = _layered_families()[family]
        assert any(len(heisenberg._layers(gates, 1)) < len(gates) for gates in circuits)
        serial = [_gate_by_gate(init_descriptors(width), gates) for gates in circuits]
        for gates, want in zip(circuits, serial):
            _assert_same_bits(evolve_circuit(init_descriptors(width), gates), want)
        # A group shares one batch size, so each timeline runs in a group of
        # its own, beside two unbatched circuits.
        batches = [max(gate.batch or 0 for gate in gates) for gates in circuits]
        for batch in set(batches):
            rng = np.random.default_rng(batch)
            plain = [random_circuit(width, depth, rng) for depth in (5, 12)] if batch else []
            group = [gates for gates, b in zip(circuits, batches) if b == batch] + plain
            wanted = [want for want, b in zip(serial, batches) if b == batch]
            wanted += [_gate_by_gate(init_descriptors(width), gates) for gates in plain]
            for got, want in zip(heisenberg._evolve_many([init_descriptors(width)] * len(group), group), wanted):
                _assert_same_bits(got, want)

    def test_one_set_object_passed_many_times(self):
        """One set object, at step 0 and later, stands for every set of a
        group: each output is its own circuit's, whatever the others do."""
        rng = np.random.default_rng(8)
        circuits = [random_circuit(4, depth, rng) for depth in (9, 0, 14, 3, 11)]
        for start in (init_descriptors(4), evolve_circuit(init_descriptors(4), random_circuit(4, 5, rng))):
            sets = heisenberg._evolve_many([start] * len(circuits), circuits)
            for got, gates in zip(sets, circuits):
                _assert_same_bits(got, _gate_by_gate(start, gates))
            assert sets[1] is start

    def test_three_qubit_unitary_beside_a_disjoint_gate(self):
        """A Haar-random 3-qubit unitary, whose image terms multiply out in
        two rounds, shares a layer with a gate on another qubit, in a group
        whose other set's layer has one round only: its third factor must
        not drop out."""
        rng = np.random.default_rng(19)
        circuits = [
            [Gate("U", (3, 1, 4), random_unitary(rng, 8)), analyzer_rotation(2, 0.4), hadamard(5)],
            [hadamard(1), cnot(4, 2), pauli_y(5), Gate("U", (5, 2, 3), random_unitary(rng, 8)), hadamard(4)],
            [Gate("U", (2, 1, 3), np.stack([random_unitary(rng, 8) for _ in range(2)])), pauli_x(5)],
        ]
        # Every layer ends in a one-round gate, alone and in the group.
        assert [len(heisenberg._layers(gates, 1)) for gates in circuits] == [1, 2, 1]
        alone = [evolve_circuit(init_descriptors(5), gates) for gates in circuits]
        sets = heisenberg._evolve_many([init_descriptors(5)] * len(circuits), circuits)
        for got, one, gates in zip(sets, alone, circuits):
            want = init_descriptors(5)
            for gate in gates:
                want = reference_step(want, gate)
            _assert_same_bits(got, _gate_by_gate(init_descriptors(5), gates))
            _assert_same_bits(one, got)
            assert all(got.descriptor(*key).equal_terms(op) for key, op in want.items())


class TestGroupRead:
    def test_matches_the_one_set_read(self):
        """Each set of a width group reads as ``z_moments`` of it alone: the
        singles bit for bit, the pairs up to a matmul's rounding over a
        group's zero-padded columns."""
        circuits = verification._picture_circuits()
        for width in range(2, 6):
            group = [evolve_circuit(init_descriptors(width), gates) for w, gates in circuits if w == width]
            z, zz = heisenberg._z_moments_many(group)
            assert z.shape == (len(group), width) and zz.shape == (len(group), width, width)
            for j, ds in enumerate(group):
                alone = z_moments(ds)
                np.testing.assert_array_equal(z[j], alone[0])
                np.testing.assert_allclose(zz[j], alone[1], rtol=0, atol=1e-15)

    def test_doctored_norm_names_the_qubit(self):
        """One coefficient scaled by 1.001 in one set of a group breaks
        <q_z q_z> = 1 for that qubit alone; the raise is explicit, so this
        holds under python -O as well."""
        rngs = [np.random.default_rng(seed) for seed in range(4)]
        group = [evolve_circuit(init_descriptors(3), random_circuit(3, 8, rng)) for rng in rngs]
        ds = group[2]
        op = ds.z(2)
        coeffs = op._coeffs.copy()
        coeffs[0] *= 1.001
        table = dict(ds.items())
        table[(2, Axis.Z)] = OperatorSum._raw(3, op._keys, coeffs, None)
        group[2] = DescriptorSet(3, ds.step, MappingProxyType(table))
        with pytest.raises(AssertionError, match=r"qubit 2 axis Z of set 2 has <q_z q_z> = 1\.00"):
            heisenberg._z_moments_many(group)
        with pytest.raises(AssertionError, match="qubit 2 axis Z"):
            z_moments(group[2])
        heisenberg._z_moments_many(group[:2] + group[3:])

    @given(st.integers(0, 3), st.integers(1, 3), st.sampled_from([1.001, 0.999, 2.0]))
    def test_doctored_batched_norm_names_the_column(self, column, qubit, scale):
        """One column of a batched z descriptor scaled breaks <q_z q_z> = 1
        in that column alone (the descriptors still commute, so every read
        stays real), and the raise names the set, the qubit and the column;
        an unbatched set in the group broadcasts."""
        rng = np.random.default_rng(5)
        rotation = analyzer_rotation(qubit, rng.uniform(0.0, 6.0, 4))
        gates = random_circuit(3, 8, rng) + (rotation, cnot(1 + qubit % 3, qubit))
        ds = evolve_circuit(init_descriptors(3), gates)
        op = ds.z(qubit)
        coeffs = op._coeffs.copy()
        coeffs[:, column] *= scale
        table = dict(ds.items())
        table[(qubit, Axis.Z)] = OperatorSum._raw(3, op._keys, coeffs, 4)
        group = [init_descriptors(3), ds, DescriptorSet(3, ds.step, MappingProxyType(table))]
        heisenberg._z_moments_many(group[:2])
        with pytest.raises(AssertionError, match=rf"qubit {qubit} axis Z of set 2 column {column} has <q_z q_z> = "):
            heisenberg._z_moments_many(group)
