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
``pauli._pair_products``.  A set whose images are all one term passes
each through or scales it; any other merges them all with one tagged
``pauli._merge_sums``.  Either way each descriptor is bit for bit the one
that substituting one image term at a time gives.

There is one step body, ``_step``, which appends a layer of gates on
disjoint qubits to each of any number of sets of one width; by the
locality rule the gates of a layer read nothing the others write.
``evolve`` is its one-set, one-gate case; ``_evolve_many`` advances many
sets, each through its own circuit's ASAP layers (``_layers``), in
lockstep, and ``evolve_circuit`` is its one-set case.  So a step of tiny
sets pays numpy's per-call cost once for all its gates: one
``_pair_products`` call per factor count, one stacked
``_image_coefficients`` call per arity for the gates outside the catalog,
one ``pauli._times`` call for the value of every image term, one
``pauli._prune_sums`` for every scaled one-term image and one tagged
``_merge_sums`` for every other image.

A gate with a stack of matrices (an analyzer rotation over a batch of
angles) has one image coefficient per batch column, so substitution
yields batched descriptors: the same strings for every column, with a
``(terms, batch)`` coefficient array.

Descriptors are read at the reference state through one kernel,
``pauli.pair_matrix_in_all_zeros``: ``_z_moments_many`` reads every <q_z>
and <q_z q_z'> of many sets of one width in one pass, batched sets with
one value per column, and ``z_moments``, the twin of ``states.z_moments``,
is its one-set case.  The read requires Hermitian descriptors
(``pauli._check_hermitian``, the rule ``states.expectation`` applies too),
a real result and <q_z q_z> = 1 within 1e-12 in every column, and each
raises explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .gates import Gate, _catalog_key
from .pauli import (
    MAX_WIDTH,
    Axis,
    OperatorSum,
    PauliString,
    _axis_codes,
    _broadcast,
    _check_hermitian,
    _check_width,
    _common_batch,
    _from_matrices,
    _merge_sums,
    _pair_products,
    _prune,
    _prune_sums,
    _times,
    _to_matrices,
    pair_matrix_in_all_zeros,
)

# Evolution aborts once any descriptor would exceed this many terms.
TERM_CAP = 1 << 16

_NONTRIVIAL_AXES = (Axis.X, Axis.Y, Axis.Z)


class TermGrowthError(RuntimeError):
    """Raised when descriptor evolution exceeds the term-count cap."""


class _Rule(NamedTuple):
    """A gate's images compiled for the step (``_compiled``)."""

    # Per row (image term), in ascending basis key: its basis key, its image
    # and its coefficient row, one column per matrix of the gate's stack.
    keys: list
    tags: np.ndarray
    coeffs: np.ndarray
    # The rounds of products to form, each its runs with their prefixes and
    # last factors (``_factor_runs``).
    rounds: tuple
    # When every image is one term: the (image, key) of each image passed
    # through (its coefficient exactly 1) and the (image, key, one-row
    # coefficient array) of each image scaled; else None.
    single: tuple | None
    # Per image, its basis key, operand slot and axis (``_factor_runs``).
    leaves: tuple


# Compiled rules (``_compiled``) of catalog gates, by ``_catalog_key`` (a
# complex128 matrix's byte count fixes the arity).  Every other gate is
# compiled at each step.
_IMAGE_CACHE: dict[bytes, _Rule] = {}

# Image coefficients at or below this magnitude are dropped.
_IMAGE_TOL = 1e-13


def conjugation_images(gate: Gate) -> Mapping[tuple[int, Axis], OperatorSum]:
    """Per-operand images U^dag P U expanded over the gate's operands.

    Keys are (operand slot, axis); values are operator sums of width
    ``gate.arity``, batched when the gate holds a stack of matrices.
    """
    rule = _compiled(gate)
    keys = np.array(rule.keys)
    return MappingProxyType({
        (slot, axis): OperatorSum._raw(gate.arity, keys[rule.tags == i], rule.coeffs[rule.tags == i], gate.batch)
        for i, (_, slot, axis) in enumerate(rule.leaves)
    })


def _compiled(gate: Gate) -> _Rule:
    """The gate's images compiled for the step (``_Rule``), cached for a
    catalog gate."""
    return _rules([gate])[0]


def _rules(gates) -> list[_Rule]:
    """The compiled rule (``_compiled``) of each gate.  A catalog gate's
    comes from the cache; every other gate's images come from one stacked
    ``_image_coefficients`` call per arity, each gate compiled from its own
    columns, which equal its one-gate coefficients bit for bit."""
    rules = [_IMAGE_CACHE.get(_catalog_key(gate)) for gate in gates]
    todo: dict[int, list[int]] = {}
    for i, rule in enumerate(rules):
        if rule is None:
            todo.setdefault(gates[i].arity, []).append(i)
    for k, missing in todo.items():
        stacks = [gates[i].matrix.reshape(-1, 2**k, 2**k) for i in missing]
        coeffs, at = _image_coefficients(k, _joined(stacks)), 0
        for i, stack in zip(missing, stacks):
            rules[i] = _compile(gates[i], coeffs[:, :, at : at + len(stack)])
            at += len(stack)
            key = _catalog_key(gates[i])
            if key is not None:
                _IMAGE_CACHE[key] = rules[i]
    return rules


def _joined(arrays: list) -> np.ndarray:
    """The arrays concatenated along axis 0; a lone array as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _compile(gate: Gate, coeffs: np.ndarray) -> tuple:
    """The rule of ``_compiled`` from the gate's image coefficients."""
    k, images = gate.arity, 3 * gate.arity
    _, count, prefix, last = _factor_runs(k)
    # Row images * s + i holds the coefficient of basis key s in image i;
    # only the zeroed coefficients fall below PRUNE_TOL.
    rows, coeffs = _prune(np.arange(images * 4**k), coeffs.reshape(images * 4**k, -1))
    keys, tags = np.divmod(rows, images)
    need, rounds, single = np.bincount(keys, minlength=4**k) > 0, [], None
    for factors in range(k, 1, -1):
        runs = np.flatnonzero(need & (count == factors))
        need[prefix[runs]] = True
        rounds.insert(0, (runs.tolist(), prefix[runs].tolist(), last[runs].tolist()))
    # Every image of a unitary holds a term, so one row per image is one
    # term each.
    if len(rows) == images:
        order = tags.argsort(kind="stable")
        unit = (coeffs[order, 0] == 1) & (gate.batch is None)
        plan = list(zip(range(images), keys[order].tolist(), order.tolist(), unit.tolist()))
        single = (
            tuple((i, s) for i, s, _, one in plan if one),
            tuple((i, s, coeffs[row : row + 1]) for i, s, row, one in plan if not one),
        )
    rounds = tuple(r for r in rounds if r[0])
    return _Rule(keys.tolist(), tags, coeffs, rounds, single, _factor_runs(k)[0])


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


def _image_coefficients(k: int, stack: np.ndarray) -> np.ndarray:
    """The operand Paulis P (``_operand_paulis``) of a k-operand gate are
    conjugated by every matrix U of a ``(matrices, 2**k, 2**k)`` stack, and
    each U^dag P U goes back through the inverse of ``pauli``'s transform
    in one call: ``coeffs[s, i, b]`` over basis keys s, operand Paulis i and
    matrices b.  Each conjugation is the matmul a single matrix takes, so a
    stacked coefficient equals the unstacked one bit for bit."""
    images_of, _, gather, phases = _operand_paulis(k)
    adjoint = stack.conj().swapaxes(-1, -2)
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
    """Descriptors after appending ``gate`` to the circuit: the one-set,
    one-gate case of ``_step``."""
    return _step([ds], [((ds.step + 1, gate),)])[0]


def _layers(circuit, first: int) -> list[list[tuple[int, Gate]]]:
    """The circuit's ASAP layers (Cirq's "moments"): each gate goes into
    the layer after the last one that holds any of its qubits, so the gates
    of a layer share no qubit and keep their circuit order.  Each gate comes
    with its step, ``first`` plus its index in the circuit."""
    layers, after = [], {}
    for step, gate in enumerate(circuit, first):
        at = max([after.get(q, 0) for q in gate.qubits])
        if at == len(layers):
            layers.append([])
        layers[at].append((step, gate))
        for q in gate.qubits:
            after[q] = at + 1
    return layers


def _evolve_many(sets, circuits) -> list[DescriptorSet]:
    """Each descriptor set of one width evolved through its own circuit,
    every set one ASAP layer (``_layers``) a step, in lockstep; a set whose
    circuit has run out of layers drops out of later steps.  A gate rewrites
    only its own qubits' descriptors, so a layer's gates read nothing the
    others write, and every set comes out bit for bit as ``evolve`` gives it
    gate by gate.  A batched set or gate must share one batch size with
    every other, and each set is checked against its circuit before the
    first step, so a mismatch raises even where its gates meet in no step."""
    sets, circuits = list(sets), [tuple(circuit) for circuit in circuits]
    if len(sets) != len(circuits):
        raise ValueError(f"{len(sets)} descriptor sets for {len(circuits)} circuits")
    if len({ds.width for ds in sets}) > 1:
        raise ValueError(f"width mismatch: {sorted({ds.width for ds in sets})}")
    for ds, circuit in zip(sets, circuits):
        _common_batch(*(op._batch for _, op in ds.items()), *(gate.batch for gate in circuit))
    layered = [_layers(circuit, ds.step + 1) for ds, circuit in zip(sets, circuits)]
    for depth in range(max(map(len, layered), default=0)):
        live = [i for i, layers in enumerate(layered) if depth < len(layers)]
        for i, ds in zip(live, _step([sets[i] for i in live], [layered[i][depth] for i in live])):
            sets[i] = ds
    return sets


def _step(sets, layers) -> list[DescriptorSet]:
    """One layer of gates appended to each set of one width: ``layers[n]``
    holds the ``(step, gate)`` pairs of set ``n``, gates that share no
    qubit, so each reads its operands' descriptors from before the layer.
    The outputs go by the sets' positions, so one set object may come more
    than once.  Each gate takes its compiled rule (``_rules``), and each
    image term's factors, the operand qubits' current descriptors, multiply
    out left to right, in one ``_pair_products`` call per factor count over
    every gate.  A gate whose images are all one term passes each through
    (coefficient exactly 1) or scales it.  One ``_times`` call forms the
    value of every scaled image term; one ``_prune_sums`` prunes every
    scaled one-term image, and one tagged ``_merge_sums`` sums the terms of
    every other gate's images.  A set's step advances by one per gate, and
    a ``TermGrowthError`` names the step of the gate that grew."""
    owners, steps, gates = zip(*[(n, step, gate) for n, layer in enumerate(layers) for step, gate in layer])
    width = sets[0].width
    rules = _rules(gates)
    runs, depth = [], 0
    for n, gate, rule in zip(owners, gates, rules):
        current, operands = sets[n]._descriptors, gate.qubits
        for q in operands:
            if not 1 <= q <= width:
                raise ValueError(f"gate qubit {q} outside width {width}")
        run = {s: current[operands[slot], axis] for s, slot, axis in rule.leaves}
        # Rows ascend by basis key, so an identity term comes first.
        if rule.keys[0] == 0:
            run[0] = OperatorSum.identity(width)
        runs.append(run)
        depth = max(depth, len(rule.rounds))
    for r in range(depth):
        todo, pairs = [], []
        for run, rule in zip(runs, rules):
            if r < len(rule.rounds):
                formed, prefixes, lasts = rule.rounds[r]
                todo.append((run, formed))
                for p, f in zip(prefixes, lasts):
                    pairs.append((run[p], run[f]))
        products = _pair_products(pairs)
        at = 0
        for run, formed in todo:
            run.update(zip(formed, products[at : at + len(formed)]))
            at += len(formed)
    # Where each new descriptor goes (the new descriptors of its set and its
    # image), with its gate's batch, for the lone scaled images and for the
    # merged ones; per image term, scaled ones first, its part and its
    # coefficient row; per merged set its images' tags; every batch met.
    new, scaled, merged, batches = [], [], [], []
    parts, rows, merged_parts, merged_rows, tags = [], [], [], [], []
    for gate, run, rule in zip(gates, runs, rules):
        ops, batch = [None] * len(rule.leaves), gate.batch
        new.append(ops)
        batches.append(batch)
        if rule.single is not None:
            passes, scales = rule.single
            for i, s in passes:
                ops[i] = run[s]
            for i, s, c in scales:
                scaled.append((ops, i, batch))
                parts.append(run[s])
                rows.append(c)
        else:
            tags.append(rule.tags + len(merged) if merged else rule.tags)
            merged_rows.append(rule.coeffs)
            merged += [(ops, i, batch) for i in range(len(ops))]
            merged_parts += [run[s] for s in rule.keys]
    parts, rows = parts + merged_parts, rows + merged_rows
    batches += [part._batch for part in parts]
    # The step's batched sums share one batch size, and an image is batched
    # when its gate or one of its parts is.
    columns = _common_batch(*batches) or 1
    if parts:
        lengths = [len(part._keys) for part in parts]
        # Every image term's value, its coefficient row laid out over its
        # part's terms times its part's coefficients, in the step's columns.
        values = _times(
            _joined([_broadcast(c, columns) for c in rows]).repeat(lengths, axis=0),
            _joined([_broadcast(part._coeffs, columns) for part in parts]),
        )
        keys = _joined([part._keys for part in parts])
        cut = sum(lengths[: len(scaled)])
    if scaled:
        pruned = _prune_sums(lengths[: len(scaled)], keys[:cut], values[:cut])
        for (ops, i, batch), part, (k, c) in zip(scaled, parts, pruned):
            own = batch or part._batch
            ops[i] = OperatorSum._raw(width, k, c[:, : own or 1], own)
    if merged:
        tags = _joined(tags)
        owns = [batch for _, _, batch in merged]
        for part, t in zip(merged_parts, tags.tolist()):
            owns[t] = owns[t] or part._batch
        sums = _merge_sums(width, tags.repeat(lengths[len(scaled) :]), len(merged), keys[cut:], values[cut:])
        for (ops, i, _), (k, c), own in zip(merged, sums, owns):
            ops[i] = OperatorSum._raw(width, k, c[:, : own or 1], own)
    # Each set's table is copied once, whatever the size of its layer.
    tables = [dict(ds._descriptors) for ds in sets]
    for n, step, gate, rule, ops in zip(owners, steps, gates, rules, new):
        table, operands = tables[n], gate.qubits
        for (_, slot, axis), op in zip(rule.leaves, ops):
            if len(op) > TERM_CAP:
                raise TermGrowthError(
                    f"descriptor for qubit {operands[slot]} axis {axis.name} grew to "
                    f"{len(op)} terms at step {step} (cap {TERM_CAP})"
                )
            table[(operands[slot], axis)] = op
    return [
        DescriptorSet(width, ds.step + len(layer), MappingProxyType(table))
        for ds, layer, table in zip(sets, layers, tables)
    ]


def evolve_circuit(ds: DescriptorSet, gates: Iterable[Gate]) -> DescriptorSet:
    """Descriptors after appending every gate, one ``_step`` per ASAP layer:
    the one-set case of ``_evolve_many``."""
    return _evolve_many([ds], [gates])[0]


def z_moments(ds: DescriptorSet):
    """Every <q_z> and <q_z q_z'> at |0...0>, the descriptor-side twin of
    ``states.z_moments``: ``(z, zz)`` with ``z[q-1] = <q_z>`` and
    ``zz[q-1, r-1] = <q_z r_z>``, real, each with a last axis of one value
    per column for a batched set; the one-set case of ``_z_moments_many``."""
    z, zz = _z_moments_many([ds])
    return z[0], zz[0]


def _z_moments_many(sets):
    """``z_moments`` of each set of one width, as ``(sets, n)`` and
    ``(sets, n, n)`` arrays from one ``pauli.pair_matrix_in_all_zeros``
    pass; batched sets share one batch size, and then both arrays gain a
    last axis, one value per column.  The z descriptors commute, so each
    ``zz`` is symmetric, and its diagonal <q_z q_z> = 1 is a norm: a read
    off it by more than 1e-12 in any column raises, as a gate that drifts a
    state's norm does.  One Hermitian check covers every descriptor read,
    and one real check each result; each raise is explicit, so it holds
    under python -O."""
    ops = [[ds.z(q) for q in range(1, ds.width + 1)] for ds in sets]
    _check_hermitian([op for group in ops for op in group])
    z, zz = (_real(value) for value in pair_matrix_in_all_zeros(ops))
    # Per set, (column,) qubit.
    norms = np.diagonal(zz, axis1=1, axis2=2)
    off = ~(np.abs(norms - 1.0) <= 1e-12)
    if off.any():
        at = tuple(np.argwhere(off)[0].tolist())
        column = f" column {at[1]}" if len(at) == 3 else ""
        raise AssertionError(
            f"descriptor for qubit {at[-1] + 1} axis Z of set {at[0]}{column} has "
            f"<q_z q_z> = {float(norms[at])!r}, not 1"
        )
    return z, zz


def _real(value):
    """The real part of a read of Hermitian descriptors, which must be real.
    The raise is explicit, so it holds under python -O."""
    if not np.all(np.abs(np.imag(value)) <= 1e-12):
        raise AssertionError("Hermitian descriptor expectation came out complex")
    return np.real(value)

