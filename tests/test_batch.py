"""Batched angle grids: one simulate call against a loop of single runs,
pruning over batch columns, and the vectorised conjugation images."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpictures import (
    Axis,
    ExperimentConfig,
    OperatorSum,
    PauliString,
    StateVector,
    analyzer_rotation,
    cnot,
    evolve,
    hadamard,
    init_descriptors,
    max_term_deviation,
    pauli_y,
)
from qpictures import heisenberg
from dense import string_matrix, terms
from qpictures.heisenberg import conjugation_images
from qpictures.experiment import MAX_BATCH, N_QUBITS, reports, simulate
from qpictures.pauli import linear_combination, pair_matrix_in_all_zeros

SPECIAL_ANGLES = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi, math.pi / 4)

angles = st.one_of(st.sampled_from(SPECIAL_ANGLES), st.floats(-2 * math.pi, 2 * math.pi))


@st.composite
def angle_grids(draw):
    """1-6 angle pairs; repeated pairs are drawn from a small pool."""
    pool = draw(st.lists(st.tuples(angles, angles), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6))
    return [ExperimentConfig(*pool[i]) for i in picks]


@given(angle_grids())
def test_batched_run_equals_single_runs(configs):
    batched = simulate(configs)
    batched_table = reports(batched)
    for j, cfg in enumerate(configs):
        single = simulate([cfg])
        for step in range(5):
            np.testing.assert_allclose(
                batched.states[step].row(j).amplitudes, single.states[step].row(0).amplitudes, rtol=0, atol=1e-12
            )
            got = batched.descriptors[step].column(j)
            want = single.descriptors[step].column(0)
            for key, op in want.items():
                assert max_term_deviation(got.descriptor(*key), op) <= 1e-12
        for name, column in reports(single).items():
            assert abs(batched_table[name][j] - column[0]) <= 1e-12, name


def test_batch_of_one_matches_the_config_form():
    cfg = ExperimentConfig(0.4, 2.2)
    run = simulate([cfg])
    assert len(run) == 1
    assert run.states[2].amplitudes.shape == (1, 2**N_QUBITS)
    assert run.descriptors[2].z(2).batch == 1
    # states and descriptors before the analyzers do not depend on the angles
    assert run.states[1].batch is None
    assert run.descriptors[1].z(2).batch is None


def test_simulate_rejects_empty_and_oversized_batches(monkeypatch):
    def fail(configs):
        raise AssertionError("evolution started")

    monkeypatch.setattr("qpictures.experiment._evolution", fail)
    with pytest.raises(ValueError, match="at least one"):
        simulate([])
    with pytest.raises(ValueError, match=f"limit of {MAX_BATCH}"):
        simulate([ExperimentConfig(0.0, 0.0)] * (MAX_BATCH + 1))


class TestPruning:
    def _batched(self, column_a, column_b):
        return OperatorSum(2, [("X1", [1.0, 1.0]), ("Z2", [column_a, column_b])])

    def test_term_tiny_in_one_column_is_kept(self):
        op = linear_combination(2, [(1.0, self._batched(1e-16, 0.5))])
        assert len(op) == 2
        # its own column still drops it
        assert len(op.column(0)) == 1
        assert op.column(1).equal_terms(OperatorSum(2, [("X1", 1.0), ("Z2", 0.5)]))

    def test_term_tiny_in_every_column_is_dropped(self):
        op = linear_combination(2, [(1.0, self._batched(1e-16, -3e-15))])
        assert op.equal_terms(OperatorSum(2, [("X1", [1.0, 1.0])]))

    def test_merge_prunes_over_all_columns(self):
        a = self._batched(0.25, 0.5)
        b = OperatorSum(2, [("Z2", [-0.25, -0.5 + 1e-16])])
        merged = a + b
        assert [s for s, _ in terms(merged)] == [PauliString.from_ops(2, "X1")]
        kept = a + OperatorSum(2, [("Z2", [-0.25, 0.0])])
        assert len(kept) == 2

    def test_scalar_and_batched_parts_combine(self):
        scalar = OperatorSum(2, [("X1", 2.0)])
        op = linear_combination(2, [(np.array([1.0, 0.0]), scalar), (1.0, self._batched(0.0, 1.0))])
        assert op.batch == 2
        assert op.equal_terms(OperatorSum(2, [("X1", [3.0, 1.0]), ("Z2", [0.0, 1.0])]))

    def test_mismatched_batches_rejected(self):
        with pytest.raises(ValueError, match="batch size mismatch"):
            self._batched(1.0, 1.0) * OperatorSum(2, [("Z1", [1.0, 2.0, 3.0])])

    def test_empty_operand_keeps_the_batch_check_and_field(self):
        a = OperatorSum(2, [("X1", [1.0, 2.0, 3.0])])
        b = OperatorSum(2, [("Z2", [1.0, 2.0])])
        empty = a - a
        assert empty.is_zero and empty.batch == 3
        with pytest.raises(ValueError, match="batch size mismatch"):
            empty * b
        with pytest.raises(ValueError, match="batch size mismatch"):
            b * empty
        for zero in (empty * OperatorSum(2, [("Z2", 1.0)]), OperatorSum.zero(2) * a, a * 0.0, 1e-15 * a):
            assert zero.is_zero and zero.batch == 3
            assert zero._coeffs.shape == (0, 3)
        # An empty sum reads 0, in every column of a batched one.
        assert pair_matrix_in_all_zeros([[a * 0.0]])[0].tolist() == [[[0.0, 0.0, 0.0]]]
        assert pair_matrix_in_all_zeros([[OperatorSum(2, [("Z1", 1.0)]) * 0.0]])[0].tolist() == [[0.0]]

    def test_column_outside_the_batch_rejected(self):
        op = OperatorSum(2, [("X1", [1.0, 2.0, 3.0])])
        assert op.column(2).equal_terms(OperatorSum(2, [("X1", 3.0)]))
        for j in (-1, 3, 5):
            with pytest.raises(IndexError, match="column"):
                op.column(j)
        ds = evolve(init_descriptors(2), analyzer_rotation(1, [0.1, 0.2, 0.3]))
        assert ds.column(2).z(1).batch is None
        with pytest.raises(IndexError, match="column"):
            ds.column(-1)
        # A sum without a batch axis stands for every column.
        single = OperatorSum(2, [("X1", 1.0)])
        assert single.column(5) is single

    def test_state_row_outside_the_batch_rejected(self):
        state = simulate([ExperimentConfig(0.1, 0.2), ExperimentConfig(0.3, 0.4)]).states[2]
        assert state.row(1).amplitudes.tolist() == state.amplitudes[1].tolist()
        for j in (-1, 2, 5):
            with pytest.raises(IndexError, match="row"):
                state.row(j)

    def test_zero_size_batch_rejected(self):
        op = OperatorSum(2, [("X1", 1.0)])
        with pytest.raises(ValueError, match="at least one column"):
            OperatorSum(2, [("X1", np.array([]))])
        with pytest.raises(ValueError, match="at least one column"):
            linear_combination(2, [(np.array([]), op)])
        with pytest.raises(ValueError, match="at least one row"):
            StateVector(2, np.zeros((0, 4)))

    def test_linear_combination_rejects_mismatched_coefficient_lengths(self):
        # As * and + do: an array coefficient must match its part's batch.
        batch_of_one = OperatorSum(2, [("Z1", [1.0])])
        batch_of_three = OperatorSum(2, [("Z1", [1.0, 2.0, 3.0])])
        with pytest.raises(ValueError, match="batch size mismatch"):
            linear_combination(2, [(np.array([2.0]), batch_of_three)])
        with pytest.raises(ValueError, match="batch size mismatch"):
            linear_combination(2, [(np.array([1.0, 2.0, 3.0]), batch_of_one)])


def _trace_images(gate):
    """The per-string trace derivation, one angle at a time."""
    k = gate.arity
    dim = 2**k
    strings = [PauliString(k, key) for key in range(4**k)]
    images = {}
    for slot in range(k):
        for axis in (Axis.X, Axis.Y, Axis.Z):
            local = string_matrix(PauliString.single(k, slot + 1, axis))
            conjugated = gate.matrix.conj().T @ local @ gate.matrix
            terms = []
            for string in strings:
                coeff = np.trace(string_matrix(string).conj().T @ conjugated) / dim
                if abs(coeff) > 1e-13:
                    terms.append((string, coeff))
            images[(slot, axis)] = OperatorSum(k, terms)
    return images


class TestRotationImages:
    ANGLES = (0.0, math.pi / 2, math.pi, 0.3, -1.7, 2 * math.pi, 5.5)

    @pytest.mark.parametrize("angle", ANGLES)
    def test_single_rotation_matches_trace_derivation(self, angle):
        got = conjugation_images(analyzer_rotation(1, angle))
        for key, want in _trace_images(analyzer_rotation(1, angle)).items():
            assert got[key].equal_terms(want), key

    def test_batched_columns_match_trace_derivation(self):
        images = conjugation_images(analyzer_rotation(1, list(self.ANGLES)))
        for j, angle in enumerate(self.ANGLES):
            for key, want in _trace_images(analyzer_rotation(1, angle)).items():
                assert images[key].column(j).equal_terms(want), (angle, key)

    @pytest.mark.parametrize("gate", [hadamard(1), pauli_y(1), cnot(1, 2)])
    def test_fixed_gates_match_trace_derivation(self, gate):
        got = conjugation_images(gate)
        for key, want in _trace_images(gate).items():
            assert got[key].equal_terms(want), key

    def test_cache_does_not_grow_with_rotation_angles(self):
        ds = evolve(init_descriptors(2), hadamard(1))
        before = len(heisenberg._IMAGE_CACHE)
        for angle in np.linspace(0.1, 3.0, 40):
            ds = evolve(ds, analyzer_rotation(1 + int(angle) % 2, float(angle)))
        evolve(ds, analyzer_rotation(2, np.linspace(0.0, 1.0, 8)))
        assert len(heisenberg._IMAGE_CACHE) == before
        # fixed-matrix gates are still served from the cache
        assert heisenberg._rules([hadamard(1)])[0] is heisenberg._rules([hadamard(2)])[0]
