"""Dense statevector simulator in the |1>-first basis ordering.

Index convention: basis index k stores one bit per qubit with qubit 1 as
the most significant bit, and bit 0 encodes the ket |1> (bit 1 encodes
|0>).  For two qubits the basis therefore runs |1,1>, |1,0>, |0,1>,
|0,0>, and the all-zeros state sits at the *last* index.

This engine is the brute-force oracle for the Heisenberg-picture
descriptor engine: expectation values must agree between the two.
"""
from __future__ import annotations

import io
import csv
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .gates import PAULI_MATRIX, Gate
from .pauli import MAX_WIDTH, Axis, OperatorSum

NORM_ATOL = 1e-12


@dataclass(frozen=True)
class StateVector:
    """2**width complex amplitudes; immutable and always unit norm."""

    width: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.width <= MAX_WIDTH:
            raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {self.width}")
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.width,):
            raise ValueError(f"expected {2**self.width} amplitudes, got {amps.shape}")
        if abs(np.linalg.norm(amps) - 1.0) > 1e-9:
            raise ValueError("state vector is not normalized")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def new_all_zeros(width: int) -> StateVector:
    """|0...0>: amplitude 1 at the last basis index."""
    if not 1 <= width <= MAX_WIDTH:
        raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {width}")
    amps = np.zeros(2**width, dtype=complex)
    amps[-1] = 1.0
    return StateVector(width, amps)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """New state with the gate unitary embedded at its target qubits."""
    for q in gate.qubits:
        if not 1 <= q <= state.width:
            raise ValueError(f"gate qubit {q} outside state width {state.width}")
    k = gate.arity
    axes = [q - 1 for q in gate.qubits]
    psi = state.amplitudes.reshape([2] * state.width)
    u = gate.matrix.reshape([2] * (2 * k))
    psi = np.tensordot(u, psi, axes=(list(range(k, 2 * k)), axes))
    psi = np.moveaxis(psi, range(k), axes)
    out = psi.reshape(-1)
    norm = np.linalg.norm(out)
    if not abs(norm - 1.0) <= NORM_ATOL:
        raise AssertionError("gate application drifted the norm")
    return StateVector(state.width, out)


def apply_circuit(state: StateVector, gates) -> StateVector:
    for gate in gates:
        state = apply_gate(state, gate)
    return state


def _apply_string(amps: np.ndarray, width: int, axes_row) -> np.ndarray:
    """Apply a phase-free Pauli string to raw amplitudes."""
    psi = amps.reshape([2] * width)
    for q_idx, code in enumerate(axes_row):
        if code == Axis.I:
            continue
        mat = PAULI_MATRIX[Axis(int(code))]
        psi = np.moveaxis(np.tensordot(mat, psi, axes=([1], [q_idx])), 0, q_idx)
    return psi.reshape(-1)


def expectation(state: StateVector, op: OperatorSum, atol: float = 1e-12) -> float:
    """<psi| op |psi> for a Hermitian operator sum."""
    if op.width != state.width:
        raise ValueError(f"width mismatch: state {state.width}, operator {op.width}")
    if not op.is_hermitian(atol):
        raise ValueError("expectation requires a Hermitian operator")
    value = 0.0 + 0.0j
    for string, coeff in op.iter_terms():
        value += coeff * np.vdot(state.amplitudes, _apply_string(state.amplitudes, state.width, string.axes))
    if not abs(value.imag) <= max(atol, 1e-10):
        raise AssertionError("Hermitian expectation came out complex")
    return float(value.real)


def joint_probability(state: StateVector, outcome: Mapping[int, int]) -> float:
    """Probability that each qubit in ``outcome`` carries the given ket value.

    ``outcome`` maps 1-based qubits to ket values in {0, 1}; the empty
    mapping has probability 1.
    """
    index: list = [slice(None)] * state.width
    for qubit, value in outcome.items():
        if not 1 <= qubit <= state.width:
            raise ValueError(f"qubit {qubit} outside state width {state.width}")
        if value not in (0, 1):
            raise ValueError(f"ket value for qubit {qubit} must be 0 or 1, got {value}")
        index[qubit - 1] = 1 - value  # bit 0 encodes ket |1>
    probs = np.abs(state.amplitudes.reshape([2] * state.width)) ** 2
    return float(probs[tuple(index)].sum())


def basis_label(index: int, width: int) -> str:
    """Ket label such as ``|1,0>`` for a basis index."""
    values = [1 - ((index >> (width - q)) & 1) for q in range(1, width + 1)]
    return "|" + ",".join(str(v) for v in values) + ">"


def to_conventional(state: StateVector) -> np.ndarray:
    """Amplitudes re-indexed to the usual |0>-first ordering.

    Conventional index k' = sum_i v_i * 2**(n-i) over ket values v_i
    (qubit 1 most significant); complementing every bit just reverses
    the array.
    """
    return state.amplitudes[::-1].copy()


def dump_csv(state: StateVector) -> str:
    """CSV dump (index, basis label, re, im) used by the CLI debug flag."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "basis", "re", "im"])
    for k, amp in enumerate(state.amplitudes):
        writer.writerow([k, basis_label(k, state.width), f"{amp.real:.12g}", f"{amp.imag:.12g}"])
    return buf.getvalue()
