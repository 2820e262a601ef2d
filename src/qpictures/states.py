"""Dense statevector simulator in the |1>-first basis ordering.

Index convention: basis index k stores one bit per qubit with qubit 1 as
the most significant bit, and bit 0 encodes the ket |1> (bit 1 encodes
|0>).  For two qubits the basis therefore runs |1,1>, |1,0>, |0,1>,
|0,0>, and the all-zeros state sits at the *last* index.

This engine is the brute-force oracle for the Heisenberg-picture
descriptor engine: expectation values must agree between the two.

A state may carry a leading batch axis, amplitudes of shape
``(batch, 2**width)``, and then every function acts on each row.  A gate
with a stack of matrices applies one matrix per row.  Each row goes
through the same BLAS products and reductions as an unbatched state, so
it comes out bit for bit the same.  ``expectation`` applies each Pauli
term from its per-qubit axis codes: one copy of the amplitudes with every
X/Y qubit's axis reversed, in-place signs for Z/Y and one exact i**k
phase.
"""
from __future__ import annotations

import io
import csv
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .gates import Gate
from .pauli import _I_POWERS, MAX_WIDTH, Axis, OperatorSum, _axis_codes, _common_batch

NORM_ATOL = 1e-12


def _norms(amps: np.ndarray):
    """Norm of a state, or one per row.  The whole-array norm is a BLAS
    dot product, several times faster than a reduction along an axis."""
    return np.linalg.norm(amps) if amps.ndim == 1 else np.linalg.norm(amps, axis=-1)


@dataclass(frozen=True)
class StateVector:
    """2**width complex amplitudes, or a ``(batch, 2**width)`` array of
    them; immutable and always unit norm."""

    width: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.width <= MAX_WIDTH:
            raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {self.width}")
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.shape[-1:] != (2**self.width,) or amps.ndim > 2:
            raise ValueError(f"expected {2**self.width} amplitudes, got {amps.shape}")
        if not np.all(np.abs(_norms(amps) - 1.0) <= 1e-9):
            raise ValueError("state vector is not normalized")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self):
        """The norm, or one norm per row of a batched state."""
        norms = _norms(self.amplitudes)
        return norms if self.batch is not None else float(norms)

    @property
    def batch(self) -> int | None:
        """Number of rows, or None for a state without a batch axis."""
        return len(self.amplitudes) if self.amplitudes.ndim == 2 else None

    def row(self, j: int) -> "StateVector":
        """Row ``j`` of a batched state; an unbatched state is every row."""
        if self.batch is None:
            return self
        return StateVector(self.width, self.amplitudes[j])


def new_all_zeros(width: int) -> StateVector:
    """|0...0>: amplitude 1 at the last basis index."""
    if not 1 <= width <= MAX_WIDTH:
        raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {width}")
    amps = np.zeros(2**width, dtype=complex)
    amps[-1] = 1.0
    return StateVector(width, amps)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """New state with the gate unitary embedded at its target qubits.

    A gate with a stack of matrices applies matrix b to row b, and turns an
    unbatched state into one row per matrix."""
    for q in gate.qubits:
        if not 1 <= q <= state.width:
            raise ValueError(f"gate qubit {q} outside state width {state.width}")
    k = gate.arity
    batch = _common_batch(state.batch, gate.batch)
    lead = [] if batch is None else [batch]
    # Tensor axes of the gate's qubits, and where they go for the matmul,
    # after the batch axis if any.
    axes = [q - 1 + len(lead) for q in gate.qubits]
    front = range(len(lead), len(lead) + k)
    amps = state.amplitudes if batch is None else np.broadcast_to(state.amplitudes, (batch, 2**state.width))
    psi = np.moveaxis(amps.reshape(lead + [2] * state.width), axes, front)
    shape = psi.shape
    psi = np.matmul(gate.matrix, psi.reshape(lead + [2**k, -1])).reshape(shape)
    psi = np.moveaxis(psi, front, axes)
    out = psi.reshape(lead + [-1])
    if not np.all(np.abs(_norms(out) - 1.0) <= NORM_ATOL):
        raise AssertionError("gate application drifted the norm")
    return StateVector(state.width, out)


def apply_circuit(state: StateVector, gates) -> StateVector:
    for gate in gates:
        state = apply_gate(state, gate)
    return state


def expectation(state: StateVector, op: OperatorSum):
    """<psi| op |psi> for a Hermitian operator sum without a batch axis;
    one value per row of a batched state.  A term is P = i**(#Y) X^x Z^z,
    with X on its X and Y qubits and Z on its Y and Z qubits, since
    Y = i X Z."""
    if op.width != state.width:
        raise ValueError(f"width mismatch: state {state.width}, operator {op.width}")
    if op.batch is not None:
        raise ValueError("expectation takes an operator without a batch axis")
    if not op.is_hermitian():
        raise ValueError("expectation requires a Hermitian operator")
    n, amps = state.width, state.amplitudes
    psi = amps.reshape(amps.shape[:-1] + (2,) * n)
    keep, rev = slice(None), slice(None, None, -1)
    value = 0.0 + 0.0j
    for key, coeff in zip(op._keys.tolist(), op._coeffs.tolist()):
        codes = _axis_codes(key, n)
        v = psi[(Ellipsis, *(rev if code in (Axis.X, Axis.Y) else keep for code in codes))].copy()
        for q, code in enumerate(codes):
            if code >= Axis.Y:  # Z negates slot 1, which an X flip (Y) moved to slot 0
                half = v[(Ellipsis, int(code == Axis.Z)) + (keep,) * (n - 1 - q)]
                np.negative(half, out=half)
        if phase := codes.count(Axis.Y) & 3:
            v *= _I_POWERS[phase]
        # vecdot conjugates its first operand, as vdot does, row by row.
        value += coeff * np.vecdot(amps, v.reshape(amps.shape))
    if not np.all(np.abs(np.imag(value)) <= 1e-10):
        raise AssertionError("Hermitian expectation came out complex")
    return np.real(value) if state.batch is not None else float(value.real)


def joint_probability(state: StateVector, outcome: Mapping[int, int]) -> float:
    """Probability that each qubit in ``outcome`` carries the given ket value.

    ``outcome`` maps 1-based qubits to ket values in {0, 1}; the empty
    mapping has probability 1.  A batched state gives one value per row.
    """
    lead = [] if state.batch is None else [state.batch]
    index: list = [slice(None)] * (len(lead) + state.width)
    for qubit, value in outcome.items():
        if not 1 <= qubit <= state.width:
            raise ValueError(f"qubit {qubit} outside state width {state.width}")
        if value not in (0, 1):
            raise ValueError(f"ket value for qubit {qubit} must be 0 or 1, got {value}")
        index[qubit - 1 + len(lead)] = 1 - value  # bit 0 encodes ket |1>
    probs = np.abs(state.amplitudes.reshape(lead + [2] * state.width)) ** 2
    selected = probs[tuple(index)]
    if not lead:
        return float(selected.sum())
    return selected.sum(axis=tuple(range(1, selected.ndim)))


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
    return state.amplitudes[..., ::-1].copy()


def dump_csv(state: StateVector) -> str:
    """CSV dump (index, basis label, re, im) used by the CLI debug flag."""
    if state.batch is not None:
        raise ValueError("dump one row of a batched state at a time")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "basis", "re", "im"])
    for k, amp in enumerate(state.amplitudes):
        writer.writerow([k, basis_label(k, state.width), f"{amp.real:.12g}", f"{amp.imag:.12g}"])
    return buf.getvalue()
