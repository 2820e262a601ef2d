"""Heisenberg-picture evolution of per-qubit Pauli descriptors.

The state stays fixed at |0...0> while each qubit carries three evolving
observables (one per Pauli axis).  Appending a gate U maps an initial
single-qubit Pauli P to the conjugation image U^dag P U, expanded over
the gate's operands; substituting the operands' *current* descriptors
into that expansion and multiplying out yields the new descriptor.  The
substitution is exact because conjugation by the circuit prefix is an
algebra homomorphism.

A direct consequence is the locality bookkeeping: a gate only ever
rewrites the descriptors of the qubits it acts on.

A gate with a stack of matrices (an analyzer rotation over a batch of
angles) has one image coefficient per batch column, so substitution
yields batched descriptors: the same strings for every column, with a
``(terms, batch)`` coefficient array.  Images are derived by one
vectorised trace over the stack and checked by recomposition; those of
fixed-matrix gates are cached, those of parametrised gates are not.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from operator import mul
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .gates import PAULI_MATRIX, Gate
from .pauli import (
    MAX_WIDTH,
    Axis,
    OperatorSum,
    PauliString,
    _pack,
    expectation_in_all_zeros,
    linear_combination,
    pair_expectation_in_all_zeros,
)

# Evolution aborts once any descriptor would exceed this many terms.
TERM_CAP = 1 << 16

_NONTRIVIAL_AXES = (Axis.X, Axis.Y, Axis.Z)


class TermGrowthError(RuntimeError):
    """Raised when descriptor evolution exceeds the term-count cap."""


# Conjugation rules of fixed-matrix gates, keyed by the gate's actual
# matrix bytes, so a gate constructed from a patched matrix never reuses a
# stale rule.  Parametrised gates (analyzer rotations) are not cached:
# their images are cheap to derive and their angles rarely repeat.
_IMAGE_CACHE: dict[tuple, Mapping[tuple[int, Axis], OperatorSum]] = {}
_IMAGE_CACHE_LIMIT = 4096

# Image coefficients at or below this magnitude are dropped.
_IMAGE_TOL = 1e-13


def conjugation_images(gate: Gate) -> Mapping[tuple[int, Axis], OperatorSum]:
    """Per-operand images U^dag P U expanded over the gate's operands.

    Keys are (operand slot, axis); values are operator sums of width
    ``gate.arity``, batched when the gate holds a stack of matrices.  The
    expansion is recomposed and checked against the dense conjugation
    before being returned.
    """
    if gate.params or gate.batch is not None:
        return MappingProxyType(_compute_conjugation_images(gate))
    key = (gate.name, gate.arity, gate.params, gate.matrix.tobytes())
    cached = _IMAGE_CACHE.get(key)
    if cached is None:
        if len(_IMAGE_CACHE) >= _IMAGE_CACHE_LIMIT:
            _IMAGE_CACHE.clear()
        cached = MappingProxyType(_compute_conjugation_images(gate))
        _IMAGE_CACHE[key] = cached
    return cached


def _compute_conjugation_images(gate: Gate) -> dict[tuple[int, Axis], OperatorSum]:
    """Each image coefficient is tr(B^dag U^dag P U) / 2**k over the local
    Pauli basis B, for every operand Pauli P and every matrix U of the
    gate's stack in one vectorised product.  Each product is the same
    2**k-dimensional matmul a single matrix takes, so a stacked
    coefficient equals the unstacked one bit for bit."""
    k = gate.arity
    dim = 2**k
    keys, basis = _local_basis(k)
    images_of = [(slot, axis) for slot in range(k) for axis in _NONTRIVIAL_AXES]
    # The local string with ``axis`` on operand ``slot`` is basis entry
    # axis << 2(k - 1 - slot), since keys run over 0..4**k - 1 in order.
    paulis = basis[[axis << 2 * (k - 1 - slot) for slot, axis in images_of]]
    stack = gate.matrix if gate.batch is not None else gate.matrix[None]
    adjoint = np.swapaxes(stack.conj(), -1, -2)
    # conjugated[i, b] = U_b^dag P_i U_b; coeffs[s, i, b] over basis strings s.
    conjugated = adjoint[None] @ paulis[:, None] @ stack[None]
    basis_adjoint = np.swapaxes(basis.conj(), -1, -2)[:, None, None]
    coeffs = np.trace(basis_adjoint @ conjugated[None], axis1=-2, axis2=-1) / dim
    coeffs[np.abs(coeffs) <= _IMAGE_TOL] = 0.0
    recomposed = np.einsum("sib,sxy->ibxy", coeffs, basis)
    if not np.allclose(recomposed, conjugated, atol=1e-12):
        raise ValueError(f"gate {gate.name!r} conjugation image failed to recompose")
    images: dict[tuple[int, Axis], OperatorSum] = {}
    for i, key in enumerate(images_of):
        image = coeffs[:, i]
        keep = (image != 0).any(axis=1)
        image = image[keep] + 0.0
        images[key] = OperatorSum._raw(k, keys[keep], image if gate.batch is not None else image[:, 0])
    return images


@lru_cache(maxsize=None)
def _local_basis(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Packed keys and dense matrices of the 4**k local Pauli strings, in
    canonical (ascending key) order."""
    strings = [PauliString(k, combo) for combo in product((0, 1, 2, 3), repeat=k)]
    keys = np.array([_pack(s.axes) for s in strings], dtype=np.int64)
    matrices = np.stack([_local_matrix(s) for s in strings])
    keys.setflags(write=False)
    matrices.setflags(write=False)
    return keys, matrices


def _local_matrix(string: PauliString) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for code in string.axes:
        out = np.kron(out, PAULI_MATRIX[Axis(int(code))])
    return out


@dataclass(frozen=True)
class DescriptorSet:
    """Three evolved observables per qubit at gate step ``step``."""

    width: int
    step: int
    _descriptors: Mapping[tuple[int, Axis], OperatorSum]

    def descriptor(self, qubit: int, axis: Axis) -> OperatorSum:
        if not 1 <= qubit <= self.width:
            raise ValueError(f"qubit {qubit} outside width {self.width}")
        return self._descriptors[(qubit, Axis(axis))]

    def z(self, qubit: int) -> OperatorSum:
        return self.descriptor(qubit, Axis.Z)

    def items(self):
        return self._descriptors.items()

    def column(self, j: int) -> "DescriptorSet":
        """Batch column ``j``: every descriptor without its batch axis."""
        table = {key: op.column(j) for key, op in self._descriptors.items()}
        return DescriptorSet(self.width, self.step, MappingProxyType(table))


# The step-0 set is immutable and depends only on the width, so every
# evolution starts from one shared copy.
@lru_cache(maxsize=MAX_WIDTH)
def init_descriptors(width: int) -> DescriptorSet:
    """Step-0 descriptors: each axis is its own single-qubit Pauli."""
    if not 1 <= width <= MAX_WIDTH:
        raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {width}")
    table = {
        (qubit, axis): OperatorSum.single_axis(width, qubit, axis)
        for qubit in range(1, width + 1)
        for axis in _NONTRIVIAL_AXES
    }
    return DescriptorSet(width, 0, MappingProxyType(table))


def _substitute(image: OperatorSum, operands: tuple[int, ...], ds: DescriptorSet) -> OperatorSum:
    """Replace each local axis in ``image`` by the operand qubit's current
    descriptor, multiply out the non-identity factors of each term and
    sum the scaled products with one merge."""
    parts = []
    for string, coeff in image.iter_terms():
        # Axis is an IntEnum, so a plain axis code finds the (qubit, Axis) key.
        factors = [
            ds._descriptors[(operands[slot], code)]
            for slot, code in enumerate(string.axes)
            if code != Axis.I
        ]
        term = reduce(mul, factors) if factors else OperatorSum.identity(ds.width)
        parts.append((coeff, term))
    return linear_combination(ds.width, parts)


def evolve(ds: DescriptorSet, gate: Gate) -> DescriptorSet:
    """Descriptors after appending ``gate`` to the circuit."""
    for q in gate.qubits:
        if not 1 <= q <= ds.width:
            raise ValueError(f"gate qubit {q} outside width {ds.width}")
    images = conjugation_images(gate)
    table = dict(ds._descriptors)
    for slot, qubit in enumerate(gate.qubits):
        for axis in _NONTRIVIAL_AXES:
            new = _substitute(images[(slot, axis)], gate.qubits, ds)
            if len(new) > TERM_CAP:
                raise TermGrowthError(
                    f"descriptor for qubit {qubit} axis {axis.name} grew to "
                    f"{len(new)} terms at step {ds.step + 1} (cap {TERM_CAP})"
                )
            table[(qubit, axis)] = new
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
    if not all(f.is_hermitian() for f in factors):
        raise ValueError("descriptor expectation requires Hermitian operators")
    if other is None:
        value = expectation_in_all_zeros(expr)
    else:
        value = pair_expectation_in_all_zeros(expr, other)
    if not np.all(np.abs(np.imag(value)) <= 1e-12):
        raise AssertionError("Hermitian descriptor expectation came out complex")
    return np.real(value) if np.ndim(value) else float(value.real)


@dataclass(frozen=True)
class InvarianceReport:
    """Which disjoint-support descriptors a gate left untouched."""

    passed: bool
    checked: tuple[tuple[int, Axis], ...]
    changed: tuple[tuple[int, Axis], ...]

    def __bool__(self) -> bool:
        return self.passed


def untouched_invariance_check(
    before: DescriptorSet, after: DescriptorSet, gate: Gate
) -> InvarianceReport:
    """Verify descriptors supported entirely off the gate's operands are
    termwise unchanged by the step."""
    operands = set(gate.qubits)
    checked = []
    changed = []
    for key, old in before.items():
        if old.support() & operands:
            continue
        checked.append(key)
        if not old.equal_terms(after.descriptor(*key)):
            changed.append(key)
    return InvarianceReport(not changed, tuple(checked), tuple(changed))
