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
gate's images are compiled into one array-shaped rule (``_compiled``),
kept for a catalog gate only (``gates._catalog_key``).  A basis key's factors,
the operand qubits' current descriptors, multiply out left to right, and
without its last factor it is another basis key (``_factor_runs``, read
through ``pauli._axis_codes``, so this module never touches the key
layout), so a step forms its products in rounds of
``pauli._pair_products``.  A step of one-term images passes each through
or scales it; any other merges them all with one tagged
``pauli._merge_sums``.  Either way each descriptor is bit for bit the one
that substituting one image term at a time gives.

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
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .gates import Gate, _catalog_key
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
    pair_expectation_in_all_zeros,
    pair_matrix_in_all_zeros,
)

# Evolution aborts once any descriptor would exceed this many terms.
TERM_CAP = 1 << 16

_NONTRIVIAL_AXES = (Axis.X, Axis.Y, Axis.Z)


class TermGrowthError(RuntimeError):
    """Raised when descriptor evolution exceeds the term-count cap."""


# Compiled rules (``_compiled``) of catalog gates, by ``_catalog_key`` (a
# complex128 matrix's byte count fixes the arity).  Every other gate is
# compiled at each step.
_IMAGE_CACHE: dict[bytes, tuple[list, np.ndarray, np.ndarray, tuple, tuple | None]] = {}

# Image coefficients at or below this magnitude are dropped.
_IMAGE_TOL = 1e-13


def conjugation_images(gate: Gate) -> Mapping[tuple[int, Axis], OperatorSum]:
    """Per-operand images U^dag P U expanded over the gate's operands.

    Keys are (operand slot, axis); values are operator sums of width
    ``gate.arity``, batched when the gate holds a stack of matrices.
    """
    keys, tags, coeffs, _, _ = _compiled(gate)
    return MappingProxyType({
        (slot, axis): OperatorSum._raw(gate.arity, np.array(keys)[tags == i], coeffs[tags == i], gate.batch)
        for i, (_, slot, axis) in enumerate(_factor_runs(gate.arity)[0])
    })


def _compiled(gate: Gate) -> tuple:
    """The gate's images compiled for ``evolve``, cached for a catalog
    gate: per row (image term), in ascending basis key, its basis key, its
    image (tag) and its coefficient row, one column per matrix of the
    stack; the rounds of products to form, each its runs with their
    prefixes and last factors (``_factor_runs``); and, when every image is
    one term, per image its key, its row and whether its coefficient is
    exactly 1, else None."""
    key = _catalog_key(gate)
    rule = _IMAGE_CACHE.get(key)
    if rule is None:
        k, images = gate.arity, 3 * gate.arity
        _, count, prefix, last = _factor_runs(k)
        # Row images * s + i holds the coefficient of basis key s in image i;
        # only the zeroed coefficients fall below PRUNE_TOL.
        rows, coeffs = _prune(np.arange(images * 4**k), _image_coefficients(gate).reshape(images * 4**k, -1))
        keys, tags = np.divmod(rows, images)
        need, rounds, single = np.bincount(keys, minlength=4**k) > 0, [], None
        for factors in range(k, 1, -1):
            runs = np.flatnonzero(need & (count == factors))
            need[prefix[runs]] = True
            rounds.insert(0, (runs.tolist(), prefix[runs].tolist(), last[runs].tolist()))
        # Every image of a unitary holds a term, so one row per image is one
        # term each.
        if len(rows) == images:
            order = np.argsort(tags, kind="stable")
            unit = (coeffs[order, 0] == 1) & (gate.batch is None)
            single = tuple(zip(keys[order].tolist(), order.tolist(), unit.tolist()))
        rule = keys.tolist(), tags, coeffs, tuple(r for r in rounds if r[0]), single
        if key is not None:
            _IMAGE_CACHE[key] = rule
    return rule


# The factor runs depend only on the arity, so they are read once per arity.
@lru_cache(maxsize=MAX_WIDTH)
def _factor_runs(k: int):
    """Per image (slot, axis) of a k-operand gate, the basis key of its
    one factor; and per basis key s its factor count, its prefix (the key
    of its factors but the last) and the key of its last factor, so that
    s's factors multiply out left to right as prefix's times last's."""
    codes = [_axis_codes(s, k) for s in range(4**k)]
    index = {c: s for s, c in enumerate(codes)}
    cuts = [max((slot for slot, c in enumerate(axes) if c), default=0) for axes in codes]
    tables = (
        np.count_nonzero(codes, axis=1),
        np.array([index[axes[:cut] + (0,) * (k - cut)] for axes, cut in zip(codes, cuts)]),
        np.array([PauliString.single(k, cut + 1, axes[cut]).key for axes, cut in zip(codes, cuts)]),
    )
    for table in tables:
        table.setflags(write=False)
    leaves = tuple((PauliString.single(k, slot + 1, axis).key, slot, axis) for slot, axis in _operand_paulis(k)[0])
    return (leaves, *tables)


# The operand Paulis depend only on the arity, so they are built once per
# arity, read-only, as the step-0 descriptors are built once per width.
@lru_cache(maxsize=MAX_WIDTH)
def _operand_paulis(k: int):
    """The (slot, axis) pairs of a k-operand gate, the ``(3k, 2**k, 2**k)``
    stack of their Pauli matrices P_i (one column each of an
    identity-coefficient sum put through ``pauli``'s transform), and
    ``gather`` and ``phases`` with
    (A @ P_i)[r, c] = A.ravel()[gather[i, r, c]] * phases[i, 0, 0, c]:
    column c of P_i holds one entry, a phase."""
    images_of = tuple((slot, axis) for slot in range(k) for axis in _NONTRIVIAL_AXES)
    singles = np.array([PauliString.single(k, slot + 1, axis).key for slot, axis in images_of], dtype=np.int64)
    # The transform reads keys in any order, so they need no sorting.
    paulis = _to_matrices(OperatorSum._raw(k, singles, np.eye(len(singles)), len(singles)))
    rows = np.abs(paulis).argmax(axis=1)
    gather = np.arange(2**k)[None, :, None] * 2**k + rows[:, None, :]
    phases = np.take_along_axis(paulis, rows[:, None], axis=1)[:, None]
    for table in (paulis, gather, phases):
        table.setflags(write=False)
    return images_of, paulis, gather, phases


def _image_coefficients(gate: Gate) -> np.ndarray:
    """The operand Paulis P (``_operand_paulis``) are conjugated by every
    matrix U of the gate's stack, and each U^dag P U goes back through the
    inverse of ``pauli``'s transform in one call: ``coeffs[s, i, b]`` over
    basis keys s, operand Paulis i and matrices b.  Each conjugation is the
    matmul a single matrix takes, so a stacked coefficient equals the
    unstacked one bit for bit."""
    k = gate.arity
    images_of, _, gather, phases = _operand_paulis(k)
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
    """Descriptors after appending ``gate`` to the circuit, by its compiled
    rule.  Each image term's factors, the operand qubits' current
    descriptors, multiply out left to right, one ``_pair_products`` round
    per factor count.  When every image is one term, each is passed
    through (coefficient exactly 1) or scaled and pruned; otherwise one
    tagged ``_merge_sums`` sums every image's scaled terms."""
    operands = gate.qubits
    for q in operands:
        if not 1 <= q <= ds.width:
            raise ValueError(f"gate qubit {q} outside width {ds.width}")
    current = ds._descriptors
    keys, tags, coeffs, rounds, single = _compiled(gate)
    leaves = _factor_runs(gate.arity)[0]
    runs = {s: current[operands[slot], axis] for s, slot, axis in leaves}
    # Rows ascend by basis key, so an identity term comes first.
    if keys[0] == 0:
        runs[0] = OperatorSum.identity(ds.width)
    for formed, prefixes, lasts in rounds:
        runs.update(zip(formed, _pair_products([(runs[p], runs[f]) for p, f in zip(prefixes, lasts)])))
    if single is not None:
        new = [
            run if unit else OperatorSum._raw(
                ds.width, *_prune(run._keys, coeffs[row] * run._coeffs), _common_batch(gate.batch, run._batch)
            )
            for run, row, unit in ((runs[s], row, unit) for s, row, unit in single)
        ]
    else:
        parts = [runs[s] for s in keys]
        # The step's batched sums share one batch size, and an image is
        # batched when the gate or one of its parts is.
        _common_batch(gate.batch, *(p._batch for p in parts))
        owns = [gate.batch] * len(leaves)
        for p, t in zip(parts, tags.tolist()):
            owns[t] = owns[t] or p._batch
        # The coefficient rows broadcast over the parts' columns.
        columns = max(p._coeffs.shape[1] for p in parts)
        lengths = [len(p._keys) for p in parts]
        values = np.repeat(coeffs, lengths, axis=0) * np.concatenate([_broadcast(p._coeffs, columns) for p in parts])
        merged = _merge_sums(
            ds.width, np.repeat(tags, lengths), len(leaves), np.concatenate([p._keys for p in parts]), values
        )
        new = [OperatorSum._raw(ds.width, k, c[:, : own or 1], own) for (k, c), own in zip(merged, owns)]
    table = dict(current)
    for (_, slot, axis), op in zip(leaves, new):
        if len(op) > TERM_CAP:
            raise TermGrowthError(
                f"descriptor for qubit {operands[slot]} axis {axis.name} grew to "
                f"{len(op)} terms at step {ds.step + 1} (cap {TERM_CAP})"
            )
        table[(operands[slot], axis)] = op
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

