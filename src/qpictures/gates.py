"""Gate catalog in the |1>-first basis ordering.

Matrices are written over the kets ordered |1> = (1,0)^T, |0> = (0,1)^T;
for two-qubit gates the first listed qubit is the slow tensor slot, so
the four-dimensional basis runs |1,1>, |1,0>, |0,1>, |0,0>.

The controlled-not is specified target-first: ``cnot(target, control)``
toggles the target ket when the control ket is |1>.

An analyzer rotation may carry a vector of angles: its matrix is then a
``(batch, 2, 2)`` stack, one unitary per batch column, and both engines
evolve every column at once.  The catalog's fixed matrices (X, Y, Z, H,
CN) are checked for unitarity once, at import, and kept read-only, so a
gate built from one of those very arrays shares it; any other matrix or
stack is copied and checked each time a gate is built from it.  Only work
on a catalog matrix is remembered between calls, keyed by
``_catalog_key``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pauli import Axis

UNITARY_ATOL = 1e-12

PAULI_MATRIX = {
    Axis.I: np.eye(2, dtype=complex),
    Axis.X: np.array([[0, 1], [1, 0]], dtype=complex),
    Axis.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    Axis.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}

H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

# Basis |target, control|: swaps |1,1> <-> |0,1>, fixes the control-|0> block.
CN_MATRIX = np.array(
    [
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


def _check_unitary(name: str, m: np.ndarray) -> None:
    """Reject a non-unitary matrix, or any non-unitary matrix of a stack:
    every entry of U^dag U must be within ``UNITARY_ATOL`` of the
    identity's, and a NaN never is."""
    if m.shape == (2, 2):
        # The same test on Python scalars, for a lone 2x2 matrix: the two
        # column norms against 1 and their inner product against 0.
        (a, b), (c, d) = m.tolist()
        unitary = (
            abs(abs(a) * abs(a) + abs(c) * abs(c) - 1) <= UNITARY_ATOL
            and abs(abs(b) * abs(b) + abs(d) * abs(d) - 1) <= UNITARY_ATOL
            and abs(a.conjugate() * b + c.conjugate() * d) <= UNITARY_ATOL
        )
    else:
        # np.allclose with rtol=0, written out: several times faster.  An inf
        # or NaN entry fails the test, so its arithmetic warnings are moot.
        with np.errstate(invalid="ignore", over="ignore"):
            unitary = np.all(np.abs(np.swapaxes(m.conj(), -1, -2) @ m - np.eye(m.shape[-1])) <= UNITARY_ATOL)
    if not unitary:
        raise ValueError(f"gate {name!r} matrix is not unitary")


# The arrays checked here, which a gate shares rather than copies.
_CHECKED = (*PAULI_MATRIX.values(), H_MATRIX, CN_MATRIX)
for _m in _CHECKED:
    _check_unitary("catalog", _m)
    _m.setflags(write=False)

# The bytes of the matrices the catalog factories pass, checked above; a constant patched later is not one.
_CATALOG = frozenset(
    m.tobytes() for m in (PAULI_MATRIX[Axis.X], PAULI_MATRIX[Axis.Y], PAULI_MATRIX[Axis.Z], H_MATRIX, CN_MATRIX)
)


def _catalog_key(gate: Gate) -> bytes | None:
    """The matrix bytes of a catalog gate, the key of every memo that
    outlives a call; None for any other gate and for any stack."""
    key = gate.matrix.tobytes() if gate.batch is None else None
    return key if key in _CATALOG else None


def rotation_matrix(angle) -> np.ndarray:
    """Analyzer rotation exp(+i*angle*sigma_x/2); a sequence of angles
    gives a ``(batch, 2, 2)`` stack.

    Its conjugation image sends sigma_z to cos(angle)*sigma_z -
    sin(angle)*sigma_y, which is the basis change both measurement arms
    apply before their record CNOTs.  A stack is built one angle at a
    time, so each of its matrices equals the single one bit for bit.
    """
    if np.ndim(angle):
        if not len(angle):
            raise ValueError("a rotation needs at least one angle, got an empty angle list")
        return np.stack([rotation_matrix(float(a)) for a in angle])
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, 1j * s], [1j * s, c]], dtype=complex)


@dataclass(frozen=True)
class Gate:
    """A named unitary acting on an ordered tuple of 1-based qubits.

    ``matrix`` is one unitary, or a ``(batch, d, d)`` stack of them for a
    gate that acts differently on each batch column.
    """

    name: str
    qubits: tuple[int, ...]
    matrix: np.ndarray
    params: tuple[float, ...] = field(default=())

    def __post_init__(self):
        qubits = tuple(int(q) for q in self.qubits)
        if qubits != tuple(self.qubits):
            raise ValueError(f"qubit indices must be integers, got {self.qubits}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"gate qubits must be distinct, got {self.qubits}")
        if any(q < 1 for q in qubits):
            raise ValueError(f"qubit indices are 1-based, got {self.qubits}")
        dim = 2 ** len(qubits)
        # An array checked at import is shared; a patched constant is not one.
        shared = any(self.matrix is c for c in _CHECKED)
        m = self.matrix if shared else np.array(self.matrix, dtype=complex)
        if m.shape[-2:] != (dim, dim) or m.ndim not in (2, 3) or len(m) == 0:
            raise ValueError(f"matrix shape {m.shape} does not fit {len(qubits)} qubit(s)")
        if not shared and (m.ndim == 3 or m.tobytes() not in _CATALOG):
            _check_unitary(self.name, m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))

    @property
    def arity(self) -> int:
        return len(self.qubits)

    @property
    def batch(self) -> int | None:
        """Number of stacked matrices, or None for a single matrix."""
        return len(self.matrix) if self.matrix.ndim == 3 else None

    def __repr__(self) -> str:
        args = ", ".join(str(q) for q in self.qubits)
        if self.params:
            args += ", " + ", ".join(f"{p:.6g}" for p in self.params)
        return f"{self.name}({args})"


def hadamard(qubit: int) -> Gate:
    return Gate("H", (qubit,), H_MATRIX)


def cnot(target: int, control: int) -> Gate:
    """Controlled-not toggling ``target`` when ``control`` is |1>."""
    return Gate("CN", (target, control), CN_MATRIX)


def pauli_x(qubit: int) -> Gate:
    return Gate("X", (qubit,), PAULI_MATRIX[Axis.X])


def pauli_y(qubit: int) -> Gate:
    return Gate("Y", (qubit,), PAULI_MATRIX[Axis.Y])


def pauli_z(qubit: int) -> Gate:
    return Gate("Z", (qubit,), PAULI_MATRIX[Axis.Z])


def analyzer_rotation(qubit: int, angle) -> Gate:
    """R(angle) on ``qubit``; a sequence of angles gives a batched gate."""
    params = (angle,) if np.ndim(angle) == 0 else tuple(angle)
    return Gate("R", (qubit,), rotation_matrix(angle), params=params)


_RANDOM_KINDS = ("H", "X", "Y", "Z", "R", "CN")


def random_circuit(width: int, depth: int, rng: np.random.Generator) -> tuple[Gate, ...]:
    """A reproducible random gate sequence drawn from the catalog."""
    gates = []
    for _ in range(depth):
        kind = _RANDOM_KINDS[int(rng.integers(len(_RANDOM_KINDS)))]
        if kind == "CN" and width < 2:
            kind = "H"
        if kind == "CN":
            target, control = rng.choice(width, size=2, replace=False) + 1
            gates.append(cnot(int(target), int(control)))
        elif kind == "R":
            qubit = int(rng.integers(width)) + 1
            gates.append(analyzer_rotation(qubit, float(rng.uniform(0.0, 2.0 * math.pi))))
        else:
            qubit = int(rng.integers(width)) + 1
            factory = {"H": hadamard, "X": pauli_x, "Y": pauli_y, "Z": pauli_z}[kind]
            gates.append(factory(qubit))
    return tuple(gates)
