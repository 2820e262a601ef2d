"""compare_pictures: the two-picture check behind picture-check and the
picture_equivalence criterion."""
import numpy as np

from qpictures import random_circuit
from qpictures.verification import compare_pictures


def test_one_shot_iterable_feeds_both_pictures():
    # A generator or iterator is read once; both engines must see every gate.
    circuit = random_circuit(3, 8, np.random.default_rng(0))
    assert compare_pictures(circuit, 3) <= 1e-12
    assert compare_pictures(iter(circuit), 3) == compare_pictures(circuit, 3)
    assert compare_pictures((gate for gate in circuit), 3) == compare_pictures(circuit, 3)
