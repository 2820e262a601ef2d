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
whose packed keys are simply 0..4**k - 1 in canonical order, derived
through ``pauli``'s Walsh-Hadamard pair for the gate's whole matrix stack
at once; the operand Paulis they conjugate are built once per arity.  A
gate's images are compiled into a rule, each term's coefficient and the
(slot, axis) factors whose current descriptors multiply out to it (read
through ``pauli._axis_codes``, so this module never touches the key
layout), cached with the images by matrix bytes for a fixed-matrix gate.
A step forms all its factor pairs in one ``pauli._pair_products`` call.
A single-qubit gate that is not cached (an analyzer rotation) instead
mixes its qubit's three descriptors by its image coefficients, merged by
one stable sort.  Either way each descriptor is bit for bit the one that
substituting one image term at a time gives.

A gate with a stack of matrices (an analyzer rotation over a batch of
angles) has one image coefficient per batch column, so substitution
yields batched descriptors: the same strings for every column, with a
``(terms, batch)`` coefficient array.

Descriptors are read at the reference state: ``descriptor_expectation``
reads one descriptor or one pair, and ``z_moments`` every <q_z> and
<q_z q_z'> of a set at once, the twin of ``states.z_moments``.  Both
require Hermitian descriptors and a real result, and raise explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from numbers import Number
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
    _broadcast,
    _check_width,
    _common_batch,
    _from_matrices,
    _merge_sums,
    _pair_products,
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


# Images and compiled rules (``_rule``) of fixed-matrix gates, keyed by
# the matrix bytes alone (a complex128 matrix's byte count fixes the
# arity), so a patched matrix never reuses a stale rule.  Parametrised
# gates (analyzer rotations) are not cached: their angles rarely repeat.
_IMAGE_CACHE: dict[bytes, tuple[Mapping[tuple[int, Axis], OperatorSum], tuple]] = {}
_IMAGE_CACHE_LIMIT = 4096

# Image coefficients at or below this magnitude are dropped.
_IMAGE_TOL = 1e-13


def conjugation_images(gate: Gate) -> Mapping[tuple[int, Axis], OperatorSum]:
    """Per-operand images U^dag P U expanded over the gate's operands.

    Keys are (operand slot, axis); values are operator sums of width
    ``gate.arity``, batched when the gate holds a stack of matrices.
    """
    return _compiled(gate)[0]


def _compiled(gate: Gate) -> tuple:
    """The gate's images and their ``_rule``, cached for a fixed-matrix gate."""
    key = None if gate.params or gate.batch is not None else gate.matrix.tobytes()
    cached = _IMAGE_CACHE.get(key)
    if cached is None:
        images_of, _, keys, _, _ = _operand_paulis(gate.arity)
        coeffs = _image_coefficients(gate)
        # Only the zeroed coefficients fall below PRUNE_TOL.
        images = MappingProxyType({
            slot_axis: OperatorSum._raw(gate.arity, *_prune(keys, coeffs[:, i]), gate.batch)
            for i, slot_axis in enumerate(images_of)
        })
        cached = images, _rule(images)
        if key is not None:
            if len(_IMAGE_CACHE) >= _IMAGE_CACHE_LIMIT:
                _IMAGE_CACHE.clear()
            _IMAGE_CACHE[key] = cached
    return cached


def _rule(images) -> tuple:
    """The images compiled for ``evolve``: per image, its (slot, axis), its
    terms, each a coefficient (a number, or a row for a stacked gate) and
    the non-identity (slot, axis code) factors whose current descriptors
    multiply out to the term, and whether it is one term of coefficient
    exactly 1; then every distinct leading factor pair."""
    rule = []
    for key, image in images.items():
        terms = tuple(
            (coeff, tuple((s, c) for s, c in enumerate(_axis_codes(k, image.width)) if c != Axis.I))
            for k, coeff in image._iter_keys()
        )
        rule.append((key, terms, len(terms) == 1 and isinstance(terms[0][0], Number) and terms[0][0] == 1))
    return tuple(rule), tuple(dict.fromkeys(f[:2] for _, terms, _ in rule for _, f in terms if len(f) > 1))


# The operand Paulis depend only on the arity, so they are built once per
# arity, read-only, as the step-0 descriptors are built once per width.
@lru_cache(maxsize=MAX_WIDTH)
def _operand_paulis(k: int):
    """The (slot, axis) pairs of a k-operand gate, the ``(3k, 2**k, 2**k)``
    stack of their Pauli matrices P_i (one column each of an
    identity-coefficient sum put through ``pauli``'s transform), the local
    basis keys 0..4**k - 1, and ``gather`` and ``phases`` with
    (A @ P_i)[r, c] = A.ravel()[gather[i, r, c]] * phases[i, 0, 0, c]:
    column c of P_i holds one entry, a phase."""
    images_of = tuple((slot, axis) for slot in range(k) for axis in _NONTRIVIAL_AXES)
    singles = np.array([PauliString.single(k, slot + 1, axis).key for slot, axis in images_of], dtype=np.int64)
    # The transform reads keys in any order, so they need no sorting.
    paulis = _to_matrices(OperatorSum._raw(k, singles, np.eye(len(singles)), len(singles)))
    keys = np.arange(4**k, dtype=np.int64)
    rows = np.abs(paulis).argmax(axis=1)
    gather = np.arange(2**k)[None, :, None] * 2**k + rows[:, None, :]
    phases = np.take_along_axis(paulis, rows[:, None], axis=1)[:, None]
    for table in (paulis, keys, gather, phases):
        table.setflags(write=False)
    return images_of, paulis, keys, gather, phases


def _image_coefficients(gate: Gate) -> np.ndarray:
    """The operand Paulis P (``_operand_paulis``) are conjugated by every
    matrix U of the gate's stack, and each U^dag P U goes back through the
    inverse of ``pauli``'s transform in one call: ``coeffs[s, i, b]`` over
    basis keys s, operand Paulis i and matrices b.  Each conjugation is the
    matmul a single matrix takes, so a stacked coefficient equals the
    unstacked one bit for bit."""
    k = gate.arity
    images_of, _, _, gather, phases = _operand_paulis(k)
    stack = gate.matrix if gate.batch is not None else gate.matrix[None]
    adjoint = np.swapaxes(stack.conj(), -1, -2)
    # U_b^dag P_i by one gather and one phase per entry: exact, as the matmul
    # by P_i's one-entry columns is, up to signs of zeros, which the pruning
    # resets.  conjugated[i, b] = U_b^dag P_i U_b.
    left = np.ascontiguousarray(adjoint.reshape(len(stack), -1)[:, gather].swapaxes(0, 1) * phases)
    conjugated = left @ stack[None]
    coeffs = _from_matrices(k, conjugated).reshape(4**k, len(images_of), len(stack))
    coeffs[np.abs(coeffs) <= _IMAGE_TOL] = 0.0
    return coeffs


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
    """Descriptors after appending ``gate`` to the circuit.  A single-qubit
    gate whose images are not cached mixes its qubit's descriptors
    (``_mix``); any other gate follows its compiled rule: each image term's
    factors are the operand qubits' current descriptors, multiplied out
    (every distinct leading pair in one ``_pair_products`` call), and each
    image's scaled terms are summed by ``linear_combination``."""
    operands = gate.qubits
    for q in operands:
        if not 1 <= q <= ds.width:
            raise ValueError(f"gate qubit {q} outside width {ds.width}")
    current = ds._descriptors
    new = _mix(ds, gate) if gate.arity == 1 and (gate.params or gate.batch is not None) else None
    if new is None:
        rule, pairs = _compiled(gate)[1]
        pair_operands = [(current[operands[a], u], current[operands[b], v]) for (a, u), (b, v) in pairs]
        products = dict(zip(pairs, _pair_products(pair_operands) if pairs else ()))

        def value(factors):
            if len(factors) > 1:
                return reduce(mul, (current[operands[s], a] for s, a in factors[2:]), products[factors[:2]])
            return current[operands[factors[0][0]], factors[0][1]] if factors else OperatorSum.identity(ds.width)

        new = [
            (key, value(terms[0][1]) if unit else linear_combination(ds.width, [(c, value(f)) for c, f in terms]))
            for key, terms, unit in rule
        ]
    table = dict(current)
    for (slot, axis), op in new:
        if len(op) > TERM_CAP:
            raise TermGrowthError(
                f"descriptor for qubit {operands[slot]} axis {axis.name} grew to "
                f"{len(op)} terms at step {ds.step + 1} (cap {TERM_CAP})"
            )
        table[(operands[slot], axis)] = op
    return DescriptorSet(ds.width, ds.step + 1, MappingProxyType(table))


def _mix(ds: DescriptorSet, gate: Gate):
    """A single-qubit gate's three new descriptors as a 3x3 (x batch) mix of
    its qubit's descriptors d_s, with O[s, a], the image coefficients,
    pruned as the images are: image a is sum_s O[s, a] d_s, each part
    scaled as ``linear_combination`` scales it, and one stable sort serves
    all three.  None if an image has an identity term."""
    # Row 3 s + a holds the coefficient of basis key s in image a.
    rows, coeffs = _prune(np.arange(12), _image_coefficients(gate).reshape(12, -1))
    if not len(rows) or rows[0] < 3:
        return None
    keys, images = (column.tolist() for column in np.divmod(rows, 3))
    # Axis is an IntEnum, so a plain axis code finds the (qubit, Axis) key.
    parts = [ds._descriptors[gate.qubits[0], s] for s in keys]
    batches = [_common_batch(gate.batch, *(p._batch for p, i in zip(parts, images) if i == a)) for a in range(3)]
    # The coefficient rows broadcast over the parts' columns; each image
    # keeps the columns of its own batch.
    columns = max(p._coeffs.shape[1] for p in parts)
    lengths = [len(p._keys) for p in parts]
    values = np.repeat(coeffs, lengths, axis=0) * np.concatenate([_broadcast(p._coeffs, columns) for p in parts])
    merged = _merge_sums(ds.width, np.repeat(images, lengths), 3, np.concatenate([p._keys for p in parts]), values)
    return [
        ((0, axis), OperatorSum._raw(ds.width, keys, coeffs[:, : batch or 1], batch))
        for axis, batch, (keys, coeffs) in zip(_NONTRIVIAL_AXES, batches, merged)
    ]


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

