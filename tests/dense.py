"""Dense-matrix oracles for cross-checking the sparse engines.

Everything here is built from explicit Kronecker products and index
arithmetic, independently of the reshape-based statevector kernel and of
the substitution-based descriptor evolution, so tests can use it as a
second opinion.  Cost is O(4**width); keep widths small.  It also holds
the seeded brickwork circuits whose descriptors grow large, and
``reference_step``, the descriptor step one image term at a time.
"""
from __future__ import annotations

import math
from functools import reduce
from operator import mul
from types import MappingProxyType

import numpy as np

from qpictures.gates import PAULI_MATRIX, Gate, analyzer_rotation, cnot, hadamard
from qpictures.heisenberg import DescriptorSet, conjugation_images
from qpictures.pauli import Axis, OperatorSum, PauliString, linear_combination


def packed_key(axes) -> int:
    """Packed key of an axis tuple, one qubit at a time, qubit 1 in the
    most significant bit pair: the oracle for the key layout."""
    key = 0
    for code in axes:
        key = key << 2 | code
    return key


def string_matrix(string: PauliString) -> np.ndarray:
    """Dense 2**n matrix of a phased Pauli string (qubit 1 slowest)."""
    out = np.eye(1, dtype=complex)
    for code in string.axes:
        out = np.kron(out, PAULI_MATRIX[Axis(int(code))])
    return string.phase * out


def terms(op: OperatorSum) -> list[tuple[PauliString, complex]]:
    """(phase-free string, coefficient) pairs of ``op`` in canonical order;
    a batched sum gives each term's row of per-column coefficients."""
    coeffs = op._coeffs if op.batch is not None else op._coeffs[:, 0].tolist()
    return [(PauliString(op.width, key), coeff) for key, coeff in zip(op._keys.tolist(), coeffs)]


def operator_matrix(op: OperatorSum) -> np.ndarray:
    dim = 2**op.width
    out = np.zeros((dim, dim), dtype=complex)
    for string, coeff in terms(op):
        out += coeff * string_matrix(string)
    return out


def decompose(matrix: np.ndarray, width: int, atol: float = 1e-13) -> OperatorSum:
    """Expand a 2**width matrix in the Pauli-string basis."""
    dim = 2**width
    if matrix.shape != (dim, dim):
        raise ValueError(f"matrix shape {matrix.shape} does not fit width {width}")
    terms = []
    for key in range(4**width):
        string = PauliString(width, key)
        coeff = np.trace(string_matrix(string).conj().T @ matrix) / dim
        if abs(coeff) > atol:
            terms.append((string, coeff))
    return OperatorSum(width, terms)


def _placed_bits(sub: int, qubits: tuple[int, ...], width: int) -> int:
    """Scatter the bits of a gate-local index onto full-index positions."""
    out = 0
    k = len(qubits)
    for j, q in enumerate(qubits):
        bit = (sub >> (k - 1 - j)) & 1
        out |= bit << (width - q)
    return out


def gate_matrix(gate: Gate, width: int) -> np.ndarray:
    """Full 2**width unitary with the gate embedded at its qubits."""
    for q in gate.qubits:
        if not 1 <= q <= width:
            raise ValueError(f"gate qubit {q} outside width {width}")
    dim = 2**width
    k = gate.arity
    idx = np.arange(dim)
    sub = np.zeros(dim, dtype=np.int64)
    for j, q in enumerate(gate.qubits):
        sub |= ((idx >> (width - q)) & 1) << (k - 1 - j)
    out = np.zeros((dim, dim), dtype=complex)
    for a in range(2**k):
        rows = idx[sub == a]
        rest = rows - _placed_bits(a, gate.qubits, width)
        for b in range(2**k):
            cols = rest + _placed_bits(b, gate.qubits, width)
            out[rows, cols] = gate.matrix[a, b]
    return out


def circuit_unitary(gates, width: int) -> np.ndarray:
    """Ordered product of gate unitaries (first gate applied first)."""
    u = np.eye(2**width, dtype=complex)
    for gate in gates:
        u = gate_matrix(gate, width) @ u
    return u


def conjugated_observable(gates, width: int, op: OperatorSum) -> np.ndarray:
    """Dense Heisenberg image U^dag M U of an observable through a circuit."""
    u = circuit_unitary(gates, width)
    return u.conj().T @ operator_matrix(op) @ u


def heisenberg_descriptor(gates, width: int, qubit: int, axis: Axis) -> OperatorSum:
    """Dense-conjugation route to a descriptor, as an independent oracle."""
    initial = OperatorSum.single_axis(width, qubit, axis)
    return decompose(conjugated_observable(gates, width, initial), width)


def random_unitary(rng, dim):
    """A Haar-random unitary: QR of a complex Gaussian, phases fixed."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def brickwork(width: int, layers: int, seed: int):
    """Analyzer rotations on every qubit, a CN ladder on alternating offsets
    and H on every qubit every third layer: descriptors grow to ~10**3
    terms at width 6."""
    rng = np.random.default_rng(seed)
    out = []
    for layer in range(layers):
        out += [analyzer_rotation(q, float(rng.uniform(0.0, 2.0 * math.pi))) for q in range(1, width + 1)]
        out += [cnot(t, t + 1) for t in range(1 + layer % 2, width, 2)]
        if layer % 3 == 2:
            out += [hadamard(q) for q in range(1, width + 1)]
    return out


def reference_step(ds: DescriptorSet, gate: Gate) -> DescriptorSet:
    """The descriptor step as a loop over the gate's image terms: each
    term's axis codes pick the operand qubits' current descriptors, which
    are multiplied left to right, and each image's scaled products are
    merged by one ``linear_combination``.  ``heisenberg.evolve`` must give
    the same descriptors bit for bit."""
    table = dict(ds.items())
    for (slot, axis), image in conjugation_images(gate).items():
        parts = []
        for string, coeff in terms(image):
            factors = [ds.descriptor(gate.qubits[s], code) for s, code in enumerate(string.axes) if code != Axis.I]
            parts.append((coeff, reduce(mul, factors) if factors else OperatorSum.identity(ds.width)))
        table[(gate.qubits[slot], axis)] = linear_combination(ds.width, parts)
    return DescriptorSet(ds.width, ds.step + 1, MappingProxyType(table))
