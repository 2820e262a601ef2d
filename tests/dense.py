"""Dense-matrix oracles for cross-checking the sparse engines.

Everything here is built from explicit Kronecker products and index
arithmetic, independently of the reshape-based statevector kernel and of
the substitution-based descriptor evolution, so tests can use it as a
second opinion.  Cost is O(4**width); keep widths small.
"""
from __future__ import annotations

from itertools import product

import numpy as np

from qpictures.gates import PAULI_MATRIX, Gate
from qpictures.pauli import Axis, OperatorSum, PauliString


def string_matrix(string: PauliString) -> np.ndarray:
    """Dense 2**n matrix of a phased Pauli string (qubit 1 slowest)."""
    out = np.eye(1, dtype=complex)
    for code in string.axes:
        out = np.kron(out, PAULI_MATRIX[Axis(int(code))])
    return string.phase * out


def operator_matrix(op: OperatorSum) -> np.ndarray:
    dim = 2**op.width
    out = np.zeros((dim, dim), dtype=complex)
    for string, coeff in op.iter_terms():
        out += coeff * string_matrix(string)
    return out


def decompose(matrix: np.ndarray, width: int, atol: float = 1e-13) -> OperatorSum:
    """Expand a 2**width matrix in the Pauli-string basis."""
    dim = 2**width
    if matrix.shape != (dim, dim):
        raise ValueError(f"matrix shape {matrix.shape} does not fit width {width}")
    terms = []
    for combo in product((Axis.I, Axis.X, Axis.Y, Axis.Z), repeat=width):
        string = PauliString(width, combo)
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
