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
through the same products and reductions as an unbatched state, so it
comes out bit for bit the same.

``apply_gate`` has one kernel: one strided product per nonzero matrix
entry, exact for X, Y, Z and CN, and a stack's entries broadcast over the
rows.  Every gate output is held to unit norm within NORM_ATOL.

``z_moments`` returns every <Z_q> and <Z_q Z_r> from one pass over
|psi|^2.  ``expectation`` is the general kernel: it applies each Pauli
term from its per-qubit axis codes, as one copy of the amplitudes with
every X/Y qubit's axis reversed, in-place signs for Z/Y and one exact
i**k phase.
"""
from __future__ import annotations

import io
import csv
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .gates import Gate
from .pauli import _I_POWERS, MAX_WIDTH, Axis, OperatorSum, _axis_codes, _check_width, _common_batch

NORM_ATOL = 1e-12


def _norms(amps: np.ndarray):
    """Norm of a state, or one per row: the square root of one dot product
    per row, several times faster than ``np.linalg.norm``."""
    return np.sqrt(np.vecdot(amps, amps).real)


def _unit_norm(amps: np.ndarray, atol: float) -> bool:
    """Whether the state, or every row of a batched one, has norm 1 within
    ``atol``; a single norm is compared as a float, which is faster."""
    norms = _norms(amps)
    if amps.ndim == 1:
        return abs(float(norms) - 1.0) <= atol
    return bool(np.all(np.abs(norms - 1.0) <= atol))


def _store(state, width: int, amplitudes, check_norm: bool) -> None:
    """Validate width and shape, then set the fields of a frozen state with
    read-only contiguous complex amplitudes."""
    _check_width(width)
    amps = np.ascontiguousarray(amplitudes, dtype=complex)
    if amps.shape[-1:] != (2**width,) or amps.ndim > 2:
        raise ValueError(f"expected {2**width} amplitudes, got {amps.shape}")
    if not len(amps):
        raise ValueError("a batched state needs at least one row")
    if check_norm and not _unit_norm(amps, 1e-9):
        raise ValueError("state vector is not normalized")
    amps.setflags(write=False)
    object.__setattr__(state, "width", width)
    object.__setattr__(state, "amplitudes", amps)


@dataclass(frozen=True)
class StateVector:
    """2**width complex amplitudes, or a ``(batch, 2**width)`` array of
    them; immutable and always unit norm."""

    width: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _store(self, self.width, self.amplitudes, check_norm=True)

    @classmethod
    def _normalized(cls, width: int, amplitudes: np.ndarray) -> "StateVector":
        """A state from amplitudes the caller has already held to unit norm
        within NORM_ATOL, so the looser 1e-9 check would only repeat it."""
        state = object.__new__(cls)
        _store(state, width, amplitudes, check_norm=False)
        return state

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
        """Row ``j`` of a batched state, IndexError unless 0 <= j < batch;
        an unbatched state is every row."""
        if self.batch is None:
            return self
        if not 0 <= j < self.batch:
            raise IndexError(f"row {j} outside 0..{self.batch - 1}")
        return StateVector(self.width, self.amplitudes[j])


def new_all_zeros(width: int) -> StateVector:
    """|0...0>: amplitude 1 at the last basis index."""
    _check_width(width)
    amps = np.zeros(2**width, dtype=complex)
    amps[-1] = 1.0
    return StateVector(width, amps)


_ZERO = np.zeros((), dtype=complex)


@lru_cache(maxsize=4096)
def _slots(qubits: tuple[int, ...], lead: int, ndim: int) -> tuple:
    """Index of each slot a of the gate qubits ``qubits`` in ``ndim``-axis
    amplitudes with ``lead`` batch axes first: bit j of a, most significant
    first, picks the half of qubit ``qubits[j]``'s axis."""
    slots = []
    for a in range(2 ** len(qubits)):
        index = [slice(None)] * ndim
        for j, q in enumerate(qubits):
            bit = (a >> (len(qubits) - 1 - j)) & 1
            index[lead + q - 1] = slice(bit, bit + 1)
        slots.append(tuple(index))
    return tuple(slots)


# Small: fixed gates stay in it and rotations at fresh angles pass through;
# a full 4096-entry cache (4 MiB) slowed width-6 checks ~12% by heap layout.
@lru_cache(maxsize=64)
def _single_rows(matrix_bytes: bytes, dim: int) -> tuple:
    """Each row of a single ``dim x dim`` matrix, given by its bytes, as its
    nonzero entries (b, m[a, b]).  A lone entry of exactly 1 or -1 is the
    ufunc that applies it to zero, ``np.add`` or ``np.subtract``; any other
    entry is a 0-d array, which ufuncs take faster than a scalar."""
    rows = []
    for row in np.frombuffer(matrix_bytes, dtype=complex).reshape(dim, dim).tolist():
        entries = [(b, e) for b, e in enumerate(row) if e != 0]
        unit = len(entries) == 1 and {1: np.add, -1: np.subtract}.get(entries[0][1])
        rows.append(((entries[0][0], unit),) if unit else tuple((b, np.array(e)) for b, e in entries))
    return tuple(rows)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """New state with the gate unitary embedded at its target qubits.

    Output slot a of the gate's qubits is ``sum_b m[a, b] * slot_b`` over
    the nonzero entries of row a, one strided product per entry.  A lone
    entry of exactly 1 or -1 is ``0 + x`` or ``0 - x``, and any other lone
    entry gets one more ``+ 0``, so every zero of a monomial row is +0, as
    the dense product gives it.  A gate with a stack of matrices applies matrix b to row b,
    and turns an unbatched state into one row per matrix: entry
    ``m[:, a, b]`` broadcasts over each row's amplitudes, so every row goes
    through the same products as an unbatched run."""
    for q in gate.qubits:
        if not 1 <= q <= state.width:
            raise ValueError(f"gate qubit {q} outside state width {state.width}")
    batch = _common_batch(state.batch, gate.batch)
    lead = [] if batch is None else [batch]
    amps = state.amplitudes if batch is None else np.broadcast_to(state.amplitudes, (batch, 2**state.width))
    psi = amps.reshape(lead + [2] * state.width)
    slots = _slots(gate.qubits, len(lead), psi.ndim)
    if gate.batch is None:
        rows = _single_rows(gate.matrix.tobytes(), len(slots))
    else:
        entries = gate.matrix.reshape(gate.matrix.shape + (1,) * state.width)
        rows = [[(b, entries[:, a, b]) for b in range(len(slots))] for a in range(len(slots))]
    out = np.empty(psi.shape, dtype=complex)
    for dst_index, row in zip(slots, rows):
        b, entry = row[0]
        dst, src = out[dst_index], psi[slots[b]]
        if isinstance(entry, np.ufunc):
            entry(_ZERO, src, out=dst)
        else:
            np.multiply(entry, src, out=dst)
            if len(row) == 1:
                np.add(dst, _ZERO, out=dst)
        for b, entry in row[1:]:
            dst += entry * psi[slots[b]]
    out = out.reshape(lead + [-1])
    if not _unit_norm(out, NORM_ATOL):
        raise AssertionError("gate application drifted the norm")
    return StateVector._normalized(state.width, out)


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
    value = np.zeros(amps.shape[:-1], complex)
    for key, coeff in zip(op._keys.tolist(), op._coeffs[:, 0].tolist()):
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


@lru_cache(maxsize=MAX_WIDTH + 1)
def _z_signs(bits: int) -> np.ndarray:
    """``(2**bits, bits)`` Z eigenvalues: entry (k, j) is +1 when bit j of
    k, most significant first, is 0 and -1 when it is 1 (Z negates slot 1)."""
    index = np.arange(2**bits)[:, None]
    shifts = np.arange(bits - 1, -1, -1)
    signs = 1.0 - 2.0 * ((index >> shifts) & 1)
    signs.setflags(write=False)
    return signs


def z_moments(state: StateVector):
    """Every <Z_q> and <Z_q Z_r> from one pass over |psi|^2.

    Returns ``(z, zz)`` with ``z[..., q-1] = <Z_q>`` and
    ``zz[..., q-1, r-1] = <Z_q Z_r>``, the leading axis being the batch
    axis of a batched state; the diagonal of ``zz`` is the total
    probability.  The probabilities are split into a ``(2**h, 2**l)``
    matrix P over the first h and the last l qubits: singles and pairs
    within one half come from its row or column marginals, and the cross
    pairs are ``Sh.T @ P @ Sl`` with the ±1 sign matrices of the halves.
    """
    n, amps = state.width, state.amplitudes
    high = n // 2
    low = n - high
    lead = amps.shape[:-1]
    probs = (amps.real**2 + amps.imag**2).reshape(lead + (2**high, 2**low))
    sh, sl = _z_signs(high), _z_signs(low)
    rows, cols = probs.sum(axis=-1), probs.sum(axis=-2)
    z = np.concatenate([rows @ sh, cols @ sl], axis=-1)
    zz = np.empty(lead + (n, n))
    zz[..., :high, :high] = (sh.T * rows[..., None, :]) @ sh
    zz[..., high:, high:] = (sl.T * cols[..., None, :]) @ sl
    cross = sh.T @ (probs @ sl)
    zz[..., :high, high:] = cross
    zz[..., high:, :high] = np.swapaxes(cross, -1, -2)
    return z, zz


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
