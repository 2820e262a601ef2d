"""Dense statevector simulator in the |1>-first basis ordering.

Index convention: basis index k stores one bit per qubit with qubit 1 as
the most significant bit, and bit 0 encodes the ket |1> (bit 1 encodes
|0>).  For two qubits the basis therefore runs |1,1>, |1,0>, |0,1>,
|0,0>, and the all-zeros state sits at the *last* index.

This engine is the brute-force oracle for the Heisenberg-picture
descriptor engine: expectation values must agree between the two.

A state may carry a leading batch axis, amplitudes of shape
``(batch, 2**width)``, and then every function acts on each row.  A gate
with a stack of matrices applies one matrix per row.

``apply_gate`` has two kernels.  The exact kernel (``_per_entry``) makes
one strided product per nonzero matrix entry: X, Y, Z and CN come out as
the dense product bit for bit, signed zeros included, and a stack's
entries broadcast over the rows, so each row of a batched state equals
that kernel's unbatched run of it bit for bit.  Its products keep
``pauli._times``'s rounding rule by their shapes: the entry, a number or a
stack entry with one axis per amplitude axis, never a 1-D row, is the left
operand, and the slot it multiplies is a view, which numpy never
multiplies in place.  Its strided view leaves
numpy an inner loop of ``2**(width - q)`` elements for a gate on qubit q,
so on a wide state a gate near the last qubits costs several whole-state
adds.  So an unbatched state of width 10 or more takes a single-qubit gate
whose matrix is not monomial (H, R, a Haar-random unitary, a fused run)
through one BLAS product laid out by the qubit's position
(``_blas_single``), the position-dependent kernels of Haener & Steiger
(arXiv:1704.01127) and QuEST (Jones et al., arXiv:1802.08032); its
amplitudes agree with the exact kernel's within rounding, not bit for bit.
Batched states stay on the exact kernel at every width: there the batch
invariant is that a row equals the exact kernel's run of it, and below
width 10 that is also ``apply_gate``'s unbatched run.  Every gate output is
held to unit norm within NORM_ATOL.

``apply_circuit`` fuses each run of single-qubit gates on one qubit, up to
the next multi-qubit gate that touches it, into one 2x2 matrix or stack
and applies it as one gate (the gate clustering of Haener & Steiger,
arXiv:1704.01127): a width-18 random circuit of the catalog applies about
half its gates.  A fused run moves only the last bits of the amplitudes.

``z_moments`` returns every <Z_q> and <Z_q Z_r> from one pass over
|psi|^2.  ``expectation`` is the general kernel: it applies each Pauli
term from its per-qubit axis codes, as one copy of the amplitudes with
every X/Y qubit's axis reversed, in-place signs for Z/Y and one exact
i**k phase.  It holds its operator to the Hermitian rule the descriptor
read applies, ``pauli._check_hermitian``.
"""
from __future__ import annotations

import io
import csv
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .gates import Gate, _catalog_key
from .pauli import _I_POWERS, MAX_WIDTH, Axis, OperatorSum, _axis_codes, _check_hermitian, _check_width, _common_batch

NORM_ATOL = 1e-12


def _unit_norm(amps: np.ndarray, atol: float) -> bool:
    """Whether the state, or every row of a batched one, has norm 1 within
    ``atol``.  One dot product per row is several times faster than
    ``np.linalg.norm``, and a single norm is compared as a float."""
    norms = np.sqrt(np.vecdot(amps, amps).real)
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


# The rows of catalog gates (``_single_rows``), by ``_catalog_key``.
_SINGLE_ROWS: dict[bytes, list] = {}


def _single_rows(gate: Gate) -> list:
    """Each row of the gate's single matrix as its nonzero entries
    (b, m[a, b]), kept for a catalog gate.  A lone entry of exactly 1 or -1
    is the ufunc that applies it to zero, ``np.add`` or ``np.subtract``; any
    other entry is a 0-d array, which ufuncs take faster than a scalar."""
    key = _catalog_key(gate)
    rows = _SINGLE_ROWS.get(key)
    if rows is None:
        rows = []
        for row in gate.matrix.tolist():
            entries = [(b, e) for b, e in enumerate(row) if e != 0]
            unit = len(entries) == 1 and {1: np.add, -1: np.subtract}.get(entries[0][1])
            rows.append(((entries[0][0], unit),) if unit else tuple((b, np.array(e)) for b, e in entries))
        if key is not None:
            _SINGLE_ROWS[key] = rows
    return rows


def _per_entry(state: StateVector, gate: Gate) -> np.ndarray:
    """The amplitudes of ``apply_gate``'s exact kernel, any gate on any state.

    Output slot a of the gate's qubits is ``sum_b m[a, b] * slot_b`` over
    the nonzero entries of row a, one strided product per entry.  A lone
    entry of exactly 1 or -1 is ``0 + x`` or ``0 - x``, and any other lone
    entry gets one more ``+ 0``, so every zero of a monomial row is +0, as
    the dense product gives it.  A gate with a stack of matrices applies matrix b to row b,
    and turns an unbatched state into one row per matrix: entry
    ``m[:, a, b]`` broadcasts over each row's amplitudes, so every row goes
    through the same products as an unbatched run."""
    batch = _common_batch(state.batch, gate.batch)
    lead = [] if batch is None else [batch]
    amps = state.amplitudes if batch is None else np.broadcast_to(state.amplitudes, (batch, 2**state.width))
    psi = amps.reshape(lead + [2] * state.width)
    slots = _slots(gate.qubits, len(lead), psi.ndim)
    if gate.batch is None:
        rows = _single_rows(gate)
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
    return out.reshape(lead + [-1])


# Unbatched states of this width or more take ``_blas_single`` for a
# single-qubit gate whose matrix is not monomial.
_BLAS_WIDTH = 10
# ``_blas_single`` takes the broadcast matmul when at least this many qubits
# follow the gate's, and the kron product otherwise.  At fewer, the matmul's
# one small BLAS call per block costs more than the kron product's
# 2**(low+1) multiply-adds per amplitude: at width 18 and one BLAS thread,
# an H four qubits from the end takes 2.1 ms by matmul and 1.5 ms by kron,
# and five from the end 1.3 ms and 2.7 ms.
_MATMUL_LOW = 5


def _blas_single(amps: np.ndarray, width: int, qubit: int, m: np.ndarray) -> np.ndarray:
    """The 2x2 matrix ``m`` applied at ``qubit`` of unbatched amplitudes in
    one BLAS product, laid out by the number ``low = width - qubit`` of
    qubits after it.  With ``low >= _MATMUL_LOW``, one matmul broadcasts
    ``m`` over the ``(2, 2**low)`` blocks of the qubit's two halves.
    Otherwise each row of the ``2**(low+1)`` last amplitudes, whose first
    bit is the qubit's, is multiplied by ``kron(m, I).T``: a matmul there
    would make one BLAS call per 2**(low+1) amplitudes, and numpy's
    strided products of the per-entry kernel an inner loop of 2**low."""
    low = width - qubit
    if low >= _MATMUL_LOW:
        out = np.matmul(m, amps.reshape(2 ** (qubit - 1), 2, 2**low))
    else:
        # kron(m, I) by one broadcast product: np.kron's bytes, built faster.
        k = 2**low
        kron = (m[:, None, :, None] * np.eye(k)[None, :, None, :]).reshape(2 * k, 2 * k)
        out = amps.reshape(-1, 2 * k) @ kron.T
    return out.reshape(-1)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """New state with the gate unitary embedded at its target qubits.

    Two kernels; the qubits are checked first, and every output is held to
    unit norm within NORM_ATOL, whichever kernel made it.

    * An unbatched state of width ``_BLAS_WIDTH`` (10) or more takes a
      single-qubit gate whose matrix is not monomial (H, R, a Haar-random
      unitary, a fused run) through one BLAS product (``_blas_single``).
      There the exact kernel's strided products cost up to ten
      whole-state adds near the last qubits, and this one at most about
      three at any qubit (width 18, one BLAS thread).  Its amplitudes agree with the exact kernel's within
      rounding, not bit for bit.
    * Every other gate and state takes the exact kernel (``_per_entry``):
      every monomial matrix (X, Y, Z, CN), whose dense-product bits it
      keeps, signed zeros included; every stack and batched state, whose
      rows each equal the exact kernel's unbatched run of them bit for
      bit; and every width below 10, where a gate costs microseconds
      either way and the outputs of the CLI and the registry checks keep
      their bits."""
    for q in gate.qubits:
        if not 1 <= q <= state.width:
            raise ValueError(f"gate qubit {q} outside state width {state.width}")
    m = gate.matrix
    # A unitary's rows each hold a nonzero entry, so a 2x2 one with more
    # than two is not monomial.
    if state.batch is None and state.width >= _BLAS_WIDTH and m.shape == (2, 2) and np.count_nonzero(m) > 2:
        out = _blas_single(state.amplitudes, state.width, gate.qubits[0], m)
    else:
        out = _per_entry(state, gate)
    if not _unit_norm(out, NORM_ATOL):
        raise AssertionError("gate application drifted the norm")
    return StateVector._normalized(state.width, out)


def _fused(run: list[Gate]) -> Gate:
    """One gate for a run of gates on one qubit, applied first to last: the
    product ``M_k ... M_2 M_1``, a stack when any gate of the run is one.
    The batches are matched before each product, so stacks of different
    sizes raise the ``batch size mismatch`` the loop would.  A run of one
    gate is that gate, so its bits stay the same."""
    if len(run) == 1:
        return run[0]
    matrix, batch = run[0].matrix, run[0].batch
    for gate in run[1:]:
        batch = _common_batch(batch, gate.batch)
        matrix = gate.matrix @ matrix
    return Gate("fused", run[0].qubits, matrix)


def apply_circuit(state: StateVector, gates) -> StateVector:
    """The state after the gates, first to last.

    Each run of single-qubit gates on one qubit, up to the next
    multi-qubit gate that touches it or the end of the circuit, is fused
    into one gate (``_fused``) and applied where the run starts: the gates
    it passes share no qubit with it, so they commute.  Every other gate
    keeps its place, so a circuit with no two single-qubit gates in a row
    on any qubit gives the gate-by-gate loop's bits; a fused run moves only
    the last bits.  Every applied gate goes through ``apply_gate``, so each
    output is still held to unit norm within NORM_ATOL."""
    steps: list[list[Gate]] = []
    runs: dict[int, list[Gate]] = {}
    for gate in gates:
        if gate.arity != 1:
            for q in gate.qubits:
                runs.pop(q, None)
            steps.append([gate])
        elif gate.qubits[0] in runs:
            runs[gate.qubits[0]].append(gate)
        else:
            runs[gate.qubits[0]] = [gate]
            steps.append(runs[gate.qubits[0]])
    for step in steps:
        state = apply_gate(state, _fused(step))
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
    _check_hermitian([op])
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
