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
    expectation_in_all_zeros,
    linear_combination,
)

# Evolution aborts once any descriptor would exceed this many terms.
TERM_CAP = 1 << 16

_NONTRIVIAL_AXES = (Axis.X, Axis.Y, Axis.Z)


class TermGrowthError(RuntimeError):
    """Raised when descriptor evolution exceeds the term-count cap."""


# Conjugation rules keyed by the gate's actual matrix bytes, so a gate
# constructed from a patched matrix never reuses a stale rule.
_IMAGE_CACHE: dict[tuple, Mapping[tuple[int, Axis], OperatorSum]] = {}
_IMAGE_CACHE_LIMIT = 4096


def conjugation_images(gate: Gate) -> Mapping[tuple[int, Axis], OperatorSum]:
    """Per-operand images U^dag P U expanded over the gate's operands.

    Keys are (operand slot, axis); values are operator sums of width
    ``gate.arity``.  The expansion is recomposed and checked against the
    dense conjugation before being returned.
    """
    key = (gate.name, gate.arity, gate.params, gate.matrix.tobytes())
    cached = _IMAGE_CACHE.get(key)
    if cached is None:
        if len(_IMAGE_CACHE) >= _IMAGE_CACHE_LIMIT:
            _IMAGE_CACHE.clear()
        cached = MappingProxyType(_compute_conjugation_images(gate))
        _IMAGE_CACHE[key] = cached
    return cached


def _compute_conjugation_images(gate: Gate) -> dict[tuple[int, Axis], OperatorSum]:
    k = gate.arity
    dim = 2**k
    images: dict[tuple[int, Axis], OperatorSum] = {}
    local_strings = [PauliString(k, combo) for combo in product((0, 1, 2, 3), repeat=k)]
    local_matrices = [_local_matrix(s) for s in local_strings]
    for slot in range(k):
        for axis in _NONTRIVIAL_AXES:
            conjugated = gate.matrix.conj().T @ _local_matrix(PauliString.single(k, slot + 1, axis)) @ gate.matrix
            terms = []
            recomposed = np.zeros((dim, dim), dtype=complex)
            for string, basis_matrix in zip(local_strings, local_matrices):
                coeff = np.trace(basis_matrix.conj().T @ conjugated) / dim
                if abs(coeff) > 1e-13:
                    terms.append((string, coeff))
                    recomposed += coeff * basis_matrix
            if not np.allclose(recomposed, conjugated, atol=1e-12):
                raise ValueError(f"gate {gate.name!r} conjugation image failed to recompose")
            images[(slot, axis)] = OperatorSum(k, terms)
    return images


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


def descriptor_expectation(expr: OperatorSum, atol: float = 1e-12) -> float:
    """Reference-state expectation of an operator built from descriptors."""
    if not expr.is_hermitian(atol):
        raise ValueError("descriptor expectation requires a Hermitian operator")
    value = expectation_in_all_zeros(expr)
    if not abs(value.imag) <= atol:
        raise AssertionError("Hermitian descriptor expectation came out complex")
    return float(value.real)


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
