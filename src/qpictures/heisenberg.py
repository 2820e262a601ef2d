"""Heisenberg-picture evolution of per-qubit Pauli descriptors.

The state stays fixed at |0...0> while each qubit carries three evolving
observables (one per Pauli axis).  Appending a gate U maps an initial
single-qubit Pauli P to the conjugation image U^dag P U, expanded over
the gate's operands; substituting the operands' *current* descriptors
into that expansion and multiplying out yields the new descriptor.  The
substitution is exact because conjugation by the circuit prefix is an
algebra homomorphism.

A direct consequence is the locality bookkeeping: a gate only ever
rewrites the descriptors of the qubits it acts on, the rule that
``verification``'s ``descriptor_locality`` check holds every timeline
gate to.

Images are operator sums of the gate's arity over the local Pauli basis,
whose packed keys are simply 0..4**k - 1 in canonical order.
Substitution reads each image key's per-operand axis codes through
``pauli._axis_codes``, so this module never touches the key layout.

A gate with a stack of matrices (an analyzer rotation over a batch of
angles) has one image coefficient per batch column, so substitution
yields batched descriptors: the same strings for every column, with a
``(terms, batch)`` coefficient array.  Images are derived through
``pauli``'s Walsh-Hadamard pair between Pauli sums and matrices, for the
whole stack at once; those of fixed-matrix gates are cached by their
matrix bytes, those of parametrised gates are not.  The operand Paulis
they conjugate depend only on the arity, and are built once per arity.

Descriptors are read at the reference state: ``descriptor_expectation``
reads one descriptor or one pair, and ``z_moments`` every <q_z> and
<q_z q_z'> of a set at once, the twin of ``states.z_moments``.  Both
require Hermitian descriptors and a real result, and raise explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import mul
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .gates import Gate
from .pauli import (
    MAX_WIDTH,
    Axis,
    OperatorSum,
    PauliString,
    _axis_codes,
    _check_width,
    _from_matrices,
    _prune,
    _to_matrices,
    expectation_in_all_zeros,
    linear_combination,
    pair_expectation_in_all_zeros,
    pair_matrix_in_all_zeros,
)

# Evolution aborts once any descriptor would exceed this many terms.
TERM_CAP = 1 << 16

_NONTRIVIAL_AXES = (Axis.X, Axis.Y, Axis.Z)


class TermGrowthError(RuntimeError):
    """Raised when descriptor evolution exceeds the term-count cap."""


# Conjugation rules of fixed-matrix gates, keyed by the matrix bytes
# alone (a complex128 matrix's byte count fixes the arity), so a patched
# matrix never reuses a stale rule.  Parametrised gates (analyzer
# rotations) are not cached: their angles rarely repeat.
_IMAGE_CACHE: dict[bytes, Mapping[tuple[int, Axis], OperatorSum]] = {}
_IMAGE_CACHE_LIMIT = 4096

# Image coefficients at or below this magnitude are dropped.
_IMAGE_TOL = 1e-13


def conjugation_images(gate: Gate) -> Mapping[tuple[int, Axis], OperatorSum]:
    """Per-operand images U^dag P U expanded over the gate's operands.

    Keys are (operand slot, axis); values are operator sums of width
    ``gate.arity``, batched when the gate holds a stack of matrices.
    """
    if gate.params or gate.batch is not None:
        return MappingProxyType(_compute_conjugation_images(gate))
    key = gate.matrix.tobytes()
    cached = _IMAGE_CACHE.get(key)
    if cached is None:
        if len(_IMAGE_CACHE) >= _IMAGE_CACHE_LIMIT:
            _IMAGE_CACHE.clear()
        cached = MappingProxyType(_compute_conjugation_images(gate))
        _IMAGE_CACHE[key] = cached
    return cached


# The operand Paulis depend only on the arity, so they are built once per
# arity, read-only, as the step-0 descriptors are built once per width.
@lru_cache(maxsize=MAX_WIDTH)
def _operand_paulis(k: int):
    """The (slot, axis) pairs of a k-operand gate, the ``(3k, 2**k, 2**k)``
    stack of their Pauli matrices (one column each of an
    identity-coefficient sum put through ``pauli``'s transform), and the
    local basis keys 0..4**k - 1."""
    images_of = tuple((slot, axis) for slot in range(k) for axis in _NONTRIVIAL_AXES)
    singles = np.array([PauliString.single(k, slot + 1, axis).key for slot, axis in images_of], dtype=np.int64)
    # The transform reads keys in any order, so they need no sorting.
    paulis = _to_matrices(OperatorSum._raw(k, singles, np.eye(len(singles)), len(singles)))
    keys = np.arange(4**k, dtype=np.int64)
    paulis.setflags(write=False)
    keys.setflags(write=False)
    return images_of, paulis, keys


def _compute_conjugation_images(gate: Gate) -> dict[tuple[int, Axis], OperatorSum]:
    """The operand Paulis P (``_operand_paulis``) are conjugated by every
    matrix U of the gate's stack, and each U^dag P U goes back through the
    inverse of ``pauli``'s transform in one call.  Each conjugation is the
    matmul a single matrix takes, so a stacked coefficient equals the
    unstacked one bit for bit."""
    k = gate.arity
    images_of, paulis, keys = _operand_paulis(k)
    stack = gate.matrix if gate.batch is not None else gate.matrix[None]
    adjoint = np.swapaxes(stack.conj(), -1, -2)
    # conjugated[i, b] = U_b^dag P_i U_b; coeffs[s, i, b] over basis strings s.
    conjugated = adjoint[None] @ paulis[:, None] @ stack[None]
    coeffs = _from_matrices(k, conjugated).reshape(4**k, len(images_of), len(stack))
    coeffs[np.abs(coeffs) <= _IMAGE_TOL] = 0.0
    # Only the zeroed coefficients fall below PRUNE_TOL.
    return {
        key: OperatorSum._raw(k, *_prune(keys, coeffs[:, i]), gate.batch) for i, key in enumerate(images_of)
    }


@dataclass(frozen=True)
class DescriptorSet:
    """Three evolved observables per qubit at gate step ``step``."""

    width: int
    step: int
    _descriptors: Mapping[tuple[int, Axis], OperatorSum]

    def descriptor(self, qubit: int, axis: Axis) -> OperatorSum:
        if not 1 <= qubit <= self.width:
            raise ValueError(f"qubit {qubit} outside width {self.width}")
        axis = Axis(axis)
        try:
            return self._descriptors[(qubit, axis)]
        except KeyError:
            raise ValueError(f"no descriptor on axis {axis.name}: each qubit carries X, Y and Z") from None

    def z(self, qubit: int) -> OperatorSum:
        return self.descriptor(qubit, Axis.Z)

    def items(self):
        return self._descriptors.items()

    def column(self, j: int) -> "DescriptorSet":
        """Batch column ``j``: every descriptor without its batch axis;
        IndexError unless 0 <= j < batch."""
        table = {key: op.column(j) for key, op in self._descriptors.items()}
        return DescriptorSet(self.width, self.step, MappingProxyType(table))


# The step-0 set is immutable and depends only on the width, so every
# evolution starts from one shared copy.
@lru_cache(maxsize=MAX_WIDTH)
def init_descriptors(width: int) -> DescriptorSet:
    """Step-0 descriptors: each axis is its own single-qubit Pauli."""
    _check_width(width)
    table = {
        (qubit, axis): OperatorSum.single_axis(width, qubit, axis)
        for qubit in range(1, width + 1)
        for axis in _NONTRIVIAL_AXES
    }
    return DescriptorSet(width, 0, MappingProxyType(table))


def evolve(ds: DescriptorSet, gate: Gate) -> DescriptorSet:
    """Descriptors after appending ``gate`` to the circuit: each image's
    local axes are replaced by the operand qubits' current descriptors,
    the non-identity factors of each term multiplied out, and the scaled
    products summed with one merge."""
    operands = gate.qubits
    for q in operands:
        if not 1 <= q <= ds.width:
            raise ValueError(f"gate qubit {q} outside width {ds.width}")
    table = dict(ds._descriptors)
    for (slot, axis), image in conjugation_images(gate).items():
        parts = []
        for key, coeff in image._iter_keys():
            # Axis is an IntEnum, so a plain axis code finds the (qubit, Axis) key.
            factors = [
                ds._descriptors[(operands[s], code)]
                for s, code in enumerate(_axis_codes(key, image.width))
                if code != Axis.I
            ]
            parts.append((coeff, reduce(mul, factors) if factors else OperatorSum.identity(ds.width)))
        new = linear_combination(ds.width, parts)
        if len(new) > TERM_CAP:
            raise TermGrowthError(
                f"descriptor for qubit {operands[slot]} axis {axis.name} grew to "
                f"{len(new)} terms at step {ds.step + 1} (cap {TERM_CAP})"
            )
        table[(operands[slot], axis)] = new
    return DescriptorSet(ds.width, ds.step + 1, MappingProxyType(table))


def evolve_circuit(ds: DescriptorSet, gates: Iterable[Gate]) -> DescriptorSet:
    for gate in gates:
        ds = evolve(ds, gate)
    return ds


def descriptor_expectation(expr: OperatorSum, other: OperatorSum | None = None):
    """Reference-state expectation <0|expr|0> of an operator built from
    descriptors, or with ``other`` the pair read <0|expr other|0>, taken
    as the inner product <expr 0|other 0> without forming the product.
    One value per column when an operand is batched."""
    factors = (expr,) if other is None else (expr, other)
    _check_hermitian(factors)
    if other is None:
        value = expectation_in_all_zeros(expr)
    else:
        value = pair_expectation_in_all_zeros(expr, other)
    value = _real(value)
    return value if np.ndim(value) else float(value)


def z_moments(ds: DescriptorSet):
    """Every <q_z> and <q_z q_z'> at |0...0>, the descriptor-side twin of
    ``states.z_moments``: ``(z, zz)`` with ``z[q-1] = <q_z>`` and
    ``zz[q-1, r-1] = <q_z r_z>``, real, for an unbatched set.

    Each single is read by ``expectation_in_all_zeros``, as
    ``descriptor_expectation`` reads it, and every pair from one
    ``pauli.pair_matrix_in_all_zeros`` call, which rejects a batched set.
    The z descriptors commute, so ``zz`` is symmetric, and its diagonal
    <q_z q_z> = 1 is a norm.
    """
    ops = [ds.z(q) for q in range(1, ds.width + 1)]
    _check_hermitian(ops)
    zz = _real(pair_matrix_in_all_zeros(ops))
    return _real(np.array([expectation_in_all_zeros(op) for op in ops])), zz


def _check_hermitian(ops) -> None:
    if not all(op.is_hermitian() for op in ops):
        raise ValueError("descriptor expectation requires Hermitian operators")


def _real(value):
    """The real part of a read of Hermitian descriptors, which must be real.
    The raise is explicit, so it holds under python -O."""
    if not np.all(np.abs(np.imag(value)) <= 1e-12):
        raise AssertionError("Hermitian descriptor expectation came out complex")
    return np.real(value)

