"""compare_pictures: the two-picture check behind picture-check and the
picture_equivalence criterion; and the one pass rule every check shares."""
import math

import numpy as np

from qpictures import random_circuit, verification
from qpictures.experiment import ExperimentConfig, build_timeline
from qpictures.verification import compare_pictures


def test_one_shot_iterable_feeds_both_pictures():
    # A generator or iterator is read once; both engines must see every gate.
    circuit = random_circuit(3, 8, np.random.default_rng(0))
    assert compare_pictures(circuit, 3) <= 1e-12
    assert compare_pictures(iter(circuit), 3) == compare_pictures(circuit, 3)
    assert compare_pictures((gate for gate in circuit), 3) == compare_pictures(circuit, 3)


def test_nan_state_moment_fails_picture_equivalence(monkeypatch):
    # A NaN <Z_1> on the state side must neither pass nor vanish from the max.
    z_moments = verification.states.z_moments

    def nan_first_moment(state):
        z, zz = z_moments(state)
        z = z.copy()
        z[0] = math.nan
        return z, zz

    monkeypatch.setattr(verification.states, "z_moments", nan_first_moment)
    assert math.isnan(compare_pictures(random_circuit(3, 8, np.random.default_rng(0)), 3))
    result = verification.check_picture_equivalence()
    assert not result.passed
    assert math.isnan(result.max_deviation)


def test_scored_pass_rule():
    assert verification._scored("probe", 1e-10, 1e-10, "").passed
    assert not verification._scored("probe", 2e-10, 1e-10, "").passed
    nan = verification._scored("probe", math.nan, 1e-10, "")
    assert not nan.passed
    assert math.isnan(nan.max_deviation)


def test_nan_in_one_circuit_of_a_width_group_fails_picture_equivalence(monkeypatch):
    # One NaN <Z_1> on the state side, in the seventh circuit only, must
    # survive its width group's max and the check's.
    z_moments, calls = verification.states.z_moments, []

    def nan_in_seventh(state):
        z, zz = z_moments(state)
        calls.append(state.width)
        if len(calls) == 7:
            z = z.copy()
            z[0] = math.nan
        return z, zz

    monkeypatch.setattr(verification.states, "z_moments", nan_in_seventh)
    result = verification.check_picture_equivalence()
    assert len(calls) == verification.PICTURE_CHECK_CIRCUITS
    assert not result.passed
    assert math.isnan(result.max_deviation)


def test_a_group_scores_each_circuit_as_compare_pictures_does():
    """Grouped or alone, a circuit's deviation stays tiny; the pair reads of
    a group may differ from the one-circuit reads in the last bits only.
    Alone, a circuit takes the same lockstep route as a group of one."""
    circuits = [gates for width, gates in verification._picture_circuits() if width == 4]
    grouped = verification._compare_many(circuits, 4)
    alone = np.array([compare_pictures(gates, 4) for gates in circuits])
    assert grouped.shape == (len(circuits),)
    assert np.max(grouped) <= 1e-14 and np.max(alone) <= 1e-14
    np.testing.assert_allclose(grouped, alone, rtol=0, atol=1e-15)


def test_descriptor_locality_evolves_one_gate_a_call(monkeypatch):
    """Layered evolution must not reach descriptor_locality: it checks each
    timeline gate alone, one ``evolve`` call a gate."""
    evolve, gates = verification.evolve, []
    monkeypatch.setattr(verification, "evolve", lambda ds, gate: gates.append(gate) or evolve(ds, gate))
    assert verification.check_descriptor_locality().passed
    configs = (ExperimentConfig(0.3, 1.0), ExperimentConfig(math.pi / 3, math.pi / 7))
    timeline = [gate for segment in build_timeline(configs) for gate in segment]
    assert [(gate.name, gate.qubits) for gate in gates] == [(gate.name, gate.qubits) for gate in timeline]
