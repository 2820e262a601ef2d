"""Phased Pauli strings and weighted sums of Pauli strings.

The algebra is exact up to floating-point coefficients.  A Pauli string
is one packed integer key with two bits per qubit (qubit 1 in the most
significant pair) and a phase; an operator sum stores one such key per
term.  A string product is an XOR of keys and its phase comes from
popcounts of the keys' x and z bit masks (the symplectic form of
Aaronson and Gottesman).  Sums merge duplicate strings and drop
coefficients below ``PRUNE_TOL``.  Only this module knows the key
layout: other modules read per-qubit axis codes through ``_axis_codes``
and build keys through ``PauliString``.

A sum's coefficients always have shape ``(terms, columns)``.  A batched
sum has one column per member of a batch of operators that share their
term strings, such as one descriptor evolved for many analyzer angles at
once; a sum without a batch axis is the one-column case, and its column
broadcasts against a batched operand.  Whether a sum is batched is a
field, not a shape, so a batch of one stays distinct from an unbatched
sum.  Every kernel works along axis 0, so each column is computed with
the same floating-point operations, in the same order, as the unbatched
sum it stands for.  A term is pruned only when it is below ``PRUNE_TOL``
in every column.

Every product of complex coefficients goes through ``_times(a, b)``, as
numpy 2.4 rounds one by the loop it picks: a 1-D one-element operand
broadcast against a 2-D one skips FMA, so a 1-D row is read as one row;
swapped operands round differently, so ``a`` stays on the left; and
``x * y`` with a temporary ``y`` of 256 KiB or more runs in place as
``y * x``, which a ``np.multiply`` call never does.  So each column of a
batched product is the unbatched product of that column.  A product by a
phase i**k is exact and needs no rule.

Every product of two sums, ``a * b`` included, goes through one entry,
``_pair_products``, which forms a list of products at once by one of two
routes, both merged, pruned and canonically ordered.  The pair route
forms every term pair; the products that fit one chunk are formed in one
pass, each product's keys tagged with its index above the key bits, so
that one stable sort and one reduceat merge them all, each in the order
a merge of it alone takes (``_merge_sums``).  The dense route multiplies
the sums' 2**n x 2**n matrices: with P|c> = i**|x z| (-1)**|z c| |c ^ x>,
a sum becomes a matrix by one Walsh-Hadamard transform over the z masks
of each x mask, and goes back the same way, so its cost is O(8**n)
whatever the term counts.  This pair is the package's one Pauli
decomposition; ``heisenberg`` derives conjugation images through it too.
A product takes the dense route when it forms more than 8**n / 64 pairs,
and at least 1024, at width n <= 8 with columns * 4**n <= 2**18.  The
pair route costs ~0.1 us per pair and the dense route ~0.7 ns per 8**n
plus ~40 us of fixed cost (one core), so the two break even near
8**n / 128 pairs at widths 6-8 and near 300 pairs below; each bound sits
at least twice past its crossover.  The small sums of the CLI commands
(at most 24 pairs) stay on the pair route.

Sums are read at the reference state |0..0> by one function,
``pair_matrix_in_all_zeros``: every <0..0|a|0..0> and <0..0|a b|0..0> of
groups of sums, batched or not, from one grouping of every sum's images
of |0..0> by x mask and one batched matmul, without forming a product.
Each column of a batched read is computed exactly as the unbatched read
of that column.  Both pictures' reads hold their operands to one Hermitian
rule, ``_check_hermitian``.

Conventions used throughout the package:

* qubits are numbered 1..n,
* single-qubit kets are ordered |1> = (1,0)^T, |0> = (0,1)^T, so the
  all-zeros reference state is the -1 eigenstate of every sigma_z and
  <0..0| Z_i |0..0> = -1.
"""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from itertools import accumulate
from numbers import Number
from typing import Iterable

import numpy as np

# Coefficients below this magnitude are dropped after every add/multiply.
PRUNE_TOL = 1e-14

MAX_WIDTH = 20


class Axis(IntEnum):
    """Single-qubit Pauli axis, two bits per qubit.

    The high bit is the z bit and the low bit is x XOR z, so XOR of two
    codes is the code of their product axis and sorting codes orders the
    axes I < X < Y < Z; the scalar phase is tracked separately.
    """

    I = 0
    X = 1
    Y = 2
    Z = 3


_AXIS_NAMES = "IXYZ"

# i**k for k = 0..3
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])

# The low bit of every qubit's pair in a packed key.
_LOW_BITS = int("01" * MAX_WIDTH, 2)

_TOKEN_RE = re.compile(r"^([IXYZ])(\d+)$")


def _check_width(width: int) -> None:
    if not 1 <= width <= MAX_WIDTH:
        raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {width}")


def _check_qubit(qubit: int, width: int) -> None:
    if not 1 <= qubit <= width:
        raise ValueError(f"qubit index {qubit} out of range 1..{width}")


def _axis_codes(key: int, width: int) -> tuple[int, ...]:
    """Axis code of each qubit 1..width in a packed key."""
    return tuple((key >> shift) & 3 for shift in range(2 * width - 2, -1, -2))


@dataclass(frozen=True)
class PauliString:
    """A scalar phase i**phase_power times a tensor product of Pauli axes,
    stored as one packed key of ``Axis`` codes, two bits per qubit.  Qubit
    1 owns the most significant pair, so sorting keys gives the canonical
    term order."""

    width: int
    key: int
    phase_power: int = 0

    def __post_init__(self):
        _check_width(self.width)
        key = operator.index(self.key)
        if not 0 <= key < 4**self.width:
            raise ValueError(f"key {key} outside 0..4**{self.width} - 1")
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "phase_power", operator.index(self.phase_power) % 4)

    @classmethod
    def identity(cls, width: int) -> "PauliString":
        return cls(width, 0)

    @classmethod
    def single(cls, width: int, qubit: int, axis: Axis) -> "PauliString":
        """Pauli ``axis`` on ``qubit`` (1-based), identity elsewhere."""
        _check_qubit(qubit, width)
        return cls(width, int(Axis(axis)) << 2 * (width - qubit))

    @classmethod
    def from_ops(cls, width: int, ops: str, phase_power: int = 0) -> "PauliString":
        """Parse tokens like ``"Y2 X3"`` (axis letter + 1-based qubit)."""
        key, seen = 0, set()
        for token in ops.split():
            m = _TOKEN_RE.match(token)
            if m is None:
                raise ValueError(f"bad Pauli token {token!r}")
            qubit = int(m.group(2))
            _check_qubit(qubit, width)
            if qubit in seen:
                raise ValueError(f"qubit {qubit} appears twice in {ops!r}")
            seen.add(qubit)
            key |= int(Axis[m.group(1)]) << 2 * (width - qubit)
        return cls(width, key, phase_power)

    @property
    def axes(self) -> tuple[int, ...]:
        """Axis code of each qubit, qubit 1 first."""
        return _axis_codes(self.key, self.width)

    @property
    def phase(self) -> complex:
        return complex(_I_POWERS[self.phase_power])

    def __str__(self) -> str:
        sign = ("+", "+i", "-", "-i")[self.phase_power]
        return f"{sign}{_tokens(self.axes)}"


def _x_z(keys):
    """x and z bit masks of packed keys, on the low bit of each pair."""
    z = (keys >> 1) & _LOW_BITS
    return (keys ^ z) & _LOW_BITS, z


def _string_products(keys_a, keys_b):
    """Keys and phase exponents of the products of phase-free strings:
    P_a P_b = i**k P_(a XOR b), elementwise with broadcasting.

    With Y = i X Z, k = |x_a z_a| + |x_b z_b| + 2 |z_a x_b| - |x z| mod 4,
    where |.| counts set bits and x, z are the masks of the product.
    """
    xa, za = _x_z(keys_a)
    xb, zb = _x_z(keys_b)
    keys = keys_a ^ keys_b
    x, z = xa ^ xb, za ^ zb
    # -|x z| is added as 3|x z| so the uint8 popcounts never go negative.
    exponents = (
        np.bitwise_count(xa & za)
        + np.bitwise_count(xb & zb)
        + 2 * np.bitwise_count(za & xb)
        + 3 * np.bitwise_count(x & z)
    ) & 3
    return keys, exponents


def _tokens(axes: Iterable[int]) -> str:
    parts = [f"{_AXIS_NAMES[a]}{q}" for q, a in enumerate(axes, start=1) if a != Axis.I]
    return " ".join(parts) if parts else "I"


def _fmt_coeff(c: complex) -> str:
    if abs(c.imag) < 1e-12:
        return f"{c.real:+.6f}"
    return f"({c.real:+.6f}{c.imag:+.6f}j)"


def _prune(keys: np.ndarray, coeffs: np.ndarray):
    """Drop terms below ``PRUNE_TOL`` in every batch column; a NaN is never
    below it, so a NaN term survives.  Adding +0.0 turns a -0.0 component
    into +0.0, as summing into a zeroed accumulator does, so a merged and an
    unmerged path give bitwise-equal coefficients."""
    keep = _kept(coeffs)
    return keys[keep], coeffs.compress(keep, axis=0) + 0.0


def _kept(coeffs: np.ndarray) -> np.ndarray:
    """The rows of ``coeffs`` that ``_prune`` keeps."""
    keep = ~(np.abs(coeffs) < PRUNE_TOL)
    return keep[:, 0] if keep.shape[1] == 1 else np.logical_or.reduce(keep, axis=1)


def _times(a, b) -> np.ndarray:
    """``a * b`` of coefficient arrays by the package's one product rule
    (see the module docstring); ``a`` may also be a number."""
    return np.multiply(a.reshape(1, -1) if getattr(a, "ndim", 0) == 1 else a, b)


def _common_batch(*batches) -> int | None:
    sizes = {b for b in batches if b is not None}
    if 0 in sizes:
        raise ValueError("a batch needs at least one column")
    if len(sizes) > 1:
        raise ValueError(f"batch size mismatch: {sorted(sizes)}")
    return sizes.pop() if sizes else None


def _group_sums(keys: np.ndarray, values: np.ndarray):
    """Distinct keys in ascending order, and the sum of the value rows of
    each.  The sort is stable, so equal keys are summed in a fixed order."""
    if len(keys) <= 1:
        return keys, values
    order = keys.argsort(kind="stable")
    keys = keys[order]
    starts = np.empty(len(keys), bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    starts = starts.nonzero()[0]
    return keys[starts], np.add.reduceat(values.take(order, axis=0), starts)


def _merge(keys: np.ndarray, coeffs: np.ndarray):
    """Merge duplicate strings, prune tiny coefficients, sort canonically."""
    return _prune(*_group_sums(keys, coeffs))


# Pair-product chunking bound: keeps the intermediate broadcast arrays small.
_PAIR_CHUNK = 1 << 20


class OperatorSum:
    """A finite weighted sum of phase-free Pauli strings of equal width.

    Terms are stored merged (no duplicate strings), pruned at
    ``PRUNE_TOL``, free of -0.0 components and canonically ordered, so
    equal operators have identical term arrays.  Coefficients have shape
    ``(terms, columns)``: one column per member of a batch of sums over
    the same strings, or a single column when ``_batch`` is None.  Instances are immutable; all
    arithmetic returns new values.
    """

    __slots__ = ("_width", "_keys", "_coeffs", "_batch")

    def __init__(self, width: int, terms: Iterable[tuple[PauliString | str, complex]] = ()):
        """``terms`` pairs a string with a coefficient, or with a 1-D array
        of per-column coefficients for a batched sum."""
        _check_width(width)
        keys = []
        coeffs = []
        for string, coeff in terms:
            if isinstance(string, str):
                string = PauliString.from_ops(width, string)
            if string.width != width:
                raise ValueError(f"width mismatch: {string.width} != {width}")
            keys.append(string.key)
            coeffs.append((np.asarray(coeff, dtype=complex) if np.ndim(coeff) else complex(coeff)) * string.phase)
        batch = _common_batch(*(len(c) if isinstance(c, np.ndarray) else None for c in coeffs))
        rows = np.empty((len(coeffs), 1 if batch is None else batch), dtype=complex)
        for row, coeff in zip(rows, coeffs):
            row[:] = coeff
        self._init_raw(width, *_merge(np.array(keys, dtype=np.int64), rows), batch)

    def _init_raw(self, width: int, keys: np.ndarray, coeffs: np.ndarray, batch: int | None) -> None:
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        coeffs = np.ascontiguousarray(coeffs, dtype=complex)
        keys.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "_width", width)
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_coeffs", coeffs)
        object.__setattr__(self, "_batch", batch)

    def __setattr__(self, name, value):
        raise AttributeError("OperatorSum is immutable")

    @classmethod
    def _raw(cls, width: int, keys: np.ndarray, coeffs: np.ndarray, batch: int | None) -> "OperatorSum":
        """Internal: wrap already-merged canonical arrays."""
        out = cls.__new__(cls)
        out._init_raw(width, keys, coeffs, batch)
        return out

    @classmethod
    def zero(cls, width: int) -> "OperatorSum":
        return cls(width)

    @classmethod
    def identity(cls, width: int) -> "OperatorSum":
        return cls(width, [(PauliString.identity(width), 1.0)])

    @classmethod
    def single_axis(cls, width: int, qubit: int, axis: Axis) -> "OperatorSum":
        return cls(width, [(PauliString.single(width, qubit, axis), 1.0)])

    @property
    def width(self) -> int:
        return self._width

    @property
    def batch(self) -> int | None:
        """Number of batch columns, or None for a sum without a batch axis."""
        return self._batch

    def column(self, j: int) -> "OperatorSum":
        """Batch column ``j`` as a sum without a batch axis, pruned at
        ``PRUNE_TOL``; IndexError unless 0 <= j < batch.  A sum without a
        batch axis stands for every column."""
        if self._batch is None:
            return self
        if not 0 <= j < self._batch:
            raise IndexError(f"column {j} outside 0..{self._batch - 1}")
        return OperatorSum._raw(self._width, *_prune(self._keys, self._coeffs[:, j : j + 1]), None)

    def __len__(self) -> int:
        return len(self._coeffs)

    @property
    def is_zero(self) -> bool:
        return len(self._coeffs) == 0

    def __add__(self, other: "OperatorSum") -> "OperatorSum":
        if not isinstance(other, OperatorSum):
            return NotImplemented
        return linear_combination(self._width, [(1.0, self), (1.0, other)])

    def __sub__(self, other: "OperatorSum") -> "OperatorSum":
        return self + (-other)

    def __neg__(self) -> "OperatorSum":
        return OperatorSum._raw(self._width, *_prune(self._keys, -self._coeffs), self._batch)

    def __mul__(self, other):
        if isinstance(other, OperatorSum):
            return _pair_products([(self, other)])[0]
        if isinstance(other, Number):
            c = complex(other)
            if abs(c) < PRUNE_TOL:
                return _empty(self._width, self._batch)
            return OperatorSum._raw(self._width, *_prune(self._keys, _times(c, self._coeffs)), self._batch)
        return NotImplemented

    # Reached only with a number on the left: ``__mul__`` takes sum * sum.
    __rmul__ = __mul__

    def equal_terms(self, other: "OperatorSum") -> bool:
        """Exact termwise equality (same strings, bitwise-equal coefficients,
        same batch)."""
        return (
            self._width == other._width
            and self._batch == other._batch
            and np.array_equal(self._keys, other._keys)
            and np.array_equal(self._coeffs, other._coeffs)
        )

    def render(self) -> str:
        """Canonical text form, one term per line: sign, coefficient with
        six decimals, axis-qubit tokens in ascending qubit order."""
        if self._batch is not None:
            raise ValueError("render one column of a batched sum at a time")
        if self.is_zero:
            return "0"
        lines = [
            f"{_fmt_coeff(coeff)} * {_tokens(_axis_codes(key, self._width))}"
            for key, coeff in zip(self._keys.tolist(), self._coeffs[:, 0])
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:
        batch = "" if self.batch is None else f", batch={self.batch}"
        return f"OperatorSum(width={self._width}, terms={len(self)}{batch})"


def linear_combination(width: int, parts: Iterable[tuple[complex, OperatorSum]]) -> OperatorSum:
    """sum_k c_k S_k over (c_k, S_k) pairs, merged once.

    A coefficient c_k may be a 1-D array of per-column coefficients, and
    the result is batched if any coefficient or part is.
    """
    parts = list(parts)
    sizes = []
    for coeff, part in parts:
        if part._width != width:
            raise ValueError(f"width mismatch: {part._width} != {width}")
        sizes += [part._batch, len(coeff) if getattr(coeff, "ndim", 0) else None]
    if not parts:
        return OperatorSum.zero(width)
    batch = _common_batch(*sizes)
    scaled = np.concatenate([_broadcast(_times(coeff, part._coeffs), batch or 1) for coeff, part in parts])
    keys = np.concatenate([part._keys for _, part in parts])
    return OperatorSum._raw(width, *_merge(keys, scaled), batch)


def _empty(width: int, batch: int | None) -> OperatorSum:
    """The zero sum, with ``batch``'s column count and batch field."""
    return OperatorSum._raw(width, np.empty(0, np.int64), np.empty((0, batch or 1), complex), batch)


# The dense route's cost rule (see the module docstring): a product forming
# ``pairs`` term pairs at width n takes it when pairs * _DENSE_PAIR_DIVISOR
# > 8**n and pairs >= _DENSE_MIN_PAIRS, and its matrices fit both caps.
_DENSE_PAIR_DIVISOR = 64
_DENSE_MIN_PAIRS = 1024
_DENSE_MAX_WIDTH = 8
# Bound on columns * 4**n, so each of the route's complex stacks holds at
# most 4 MiB.
_DENSE_MAX_ENTRIES = 1 << 18


def _dense_fits(width: int, columns: int) -> bool:
    return width <= _DENSE_MAX_WIDTH and columns * 4**width <= _DENSE_MAX_ENTRIES


def _takes_dense_route(width: int, pairs: int, columns: int) -> bool:
    return (
        pairs >= _DENSE_MIN_PAIRS
        and pairs * _DENSE_PAIR_DIVISOR > 8**width
        and _dense_fits(width, columns)
    )


@lru_cache(maxsize=_DENSE_MAX_WIDTH)
def _dense_tables(width: int):
    """Per-width tables of the transform pair ``_to_matrices`` and
    ``_from_matrices``, which the dense route and the conjugation images
    share, for the 4**n keys in order:

    * ``grid``: each key's flat position z * 2**n + x in a (z, x) grid of
      compact masks, qubit 1 in the most significant bit;
    * ``phases``: i**|x z|, with P = i**|x z| X**x Z**z;
    * ``unphases``: conj(phases) / 2**n, which undoes both on the way back;
    * ``hadamard``: H[z, c] = (-1)**|z c|;
    * ``to_matrix``: flat (c, x) positions, in (r, c) order, that place
      row x of a transformed grid at matrix entry (r, c) = (c ^ x, c);
    * ``from_matrix``: flat (r, c) positions, in (c, x) order, that read
      entry (c ^ x, c) of a matrix back into a (c, x) grid.
    """
    keys = np.arange(4**width, dtype=np.int64)
    x, z = _x_z(keys)
    cx, cz = np.zeros_like(keys), np.zeros_like(keys)
    for bit in range(width):
        cx |= ((x >> 2 * bit) & 1) << bit
        cz |= ((z >> 2 * bit) & 1) << bit
    n = 2**width
    phases = _I_POWERS[np.bitwise_count(x & z) & 3]
    c = np.arange(n)
    flipped = c[:, None] ^ c[None, :]
    tables = (
        cz * n + cx,
        phases,
        phases.conj() / n,
        np.where(np.bitwise_count(c[:, None] & c[None, :]) & 1, -1.0, 1.0),
        (c[None, :] * n + flipped).ravel(),
        (flipped * n + c[:, None]).ravel(),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _hadamard_transform(hadamard: np.ndarray, grids: np.ndarray) -> np.ndarray:
    """H @ each 2**n x 2**n grid of a contiguous ``(columns, 4**n)``
    complex stack, flat, by one real matmul: the real and imaginary parts
    ride side by side."""
    columns, n = len(grids), len(hadamard)
    return (hadamard @ grids.view(float).reshape(columns, n, 2 * n)).view(complex).reshape(columns, n * n)


def _to_matrices(op: OperatorSum) -> np.ndarray:
    """The 2**n x 2**n matrix of each column of ``op``, as a
    ``(columns, 2**n, 2**n)`` stack, using P|c> = i**|x z| (-1)**|z c| |c ^ x>:
    the phased coefficients are scattered into a (z, x) grid, transformed
    over z, and each x row placed on its diagonal c -> c ^ x."""
    grid, phases, _, hadamard, to_matrix, _ = _dense_tables(op._width)
    n = len(hadamard)
    columns = op._coeffs.shape[1]
    grids = np.zeros((columns, n * n), complex)
    grids[:, grid[op._keys]] = (op._coeffs * phases[op._keys, None]).T
    return _hadamard_transform(hadamard, grids).take(to_matrix, axis=1).reshape(columns, n, n)


def _from_matrices(width: int, matrices: np.ndarray) -> np.ndarray:
    """The inverse of ``_to_matrices``: the ``(4**n, columns)`` coefficients,
    over keys 0..4**n - 1, of a ``(columns, 2**n, 2**n)`` stack, each
    diagonal c -> c ^ x read into row x of a grid and transformed back."""
    grid, _, unphases, hadamard, _, from_matrix = _dense_tables(width)
    n = len(hadamard)
    rows = matrices.reshape(-1, n * n).take(from_matrix, axis=1)
    return _hadamard_transform(hadamard, rows).take(grid, axis=1).T * unphases[:, None]


def _dense_product(a: OperatorSum, b: OperatorSum):
    """Keys and coefficients of a * b through the product of the two sums'
    matrices: O(8**n) work whatever the term counts.  Every key comes out,
    in ascending order, and the result is pruned at ``PRUNE_TOL``."""
    width = a._width
    columns = max(a._coeffs.shape[1], b._coeffs.shape[1])
    if not _dense_fits(width, columns):
        raise ValueError(f"dense product of width {width} with {columns} columns exceeds the dense route's caps")
    # A single-column factor broadcasts over the other's columns.
    return _prune(np.arange(4**width, dtype=np.int64), _from_matrices(width, _to_matrices(a) @ _to_matrices(b)))


def _pair_products(pairs) -> list[OperatorSum]:
    """a * b for each (a, b) of ``pairs``: the package's one product entry.
    Every sum has one width and every batched sum one batch size, or it
    raises ``ValueError``.  A product with an empty factor is the empty
    sum, and one past the dense route's cost rule takes that route.  The
    others are formed by one ``_pair_pass``, in the column count of the
    widest, when all their term pairs fit one chunk; otherwise each alone,
    in chunks of rows of a whose partial products are merged."""
    widths = {op._width for pair in pairs for op in pair}
    if len(widths) > 1:
        raise ValueError(f"width mismatch: {sorted(widths)}")
    width, batch = widths.pop(), _common_batch(*(op._batch for pair in pairs for op in pair))
    products, rest, count, columns = [], [], 0, 1
    for i, (a, b) in enumerate(pairs):
        own = None if a._batch is None and b._batch is None else batch
        terms = len(a._keys) * len(b._keys)
        if not terms:
            products.append(_empty(width, own))
        elif _takes_dense_route(width, terms, own or 1):
            products.append(OperatorSum._raw(width, *_dense_product(a, b), own))
        else:
            products.append(None)
            rest.append((i, own))
            count += terms
            columns = max(columns, own or 1)
    if count * columns <= _PAIR_CHUNK:
        operands = [(a._keys, a._coeffs, b._keys, b._coeffs) for a, b in (pairs[i] for i, _ in rest)]
        formed = _pair_pass(width, operands, columns) if rest else []
    else:
        formed = []
        for (a, b), columns in ((pairs[i], own or 1) for i, own in rest):
            chunk = max(1, _PAIR_CHUNK // (len(b) * columns))
            rows = [slice(r, r + chunk) for r in range(0, len(a), chunk)]
            partial = [_pair_pass(width, [(a._keys[s], a._coeffs[s], b._keys, b._coeffs)], columns)[0] for s in rows]
            formed.append(partial[0] if len(partial) == 1 else _merge(*map(np.concatenate, zip(*partial))))
    for (i, own), (keys, coeffs) in zip(rest, formed):
        products[i] = OperatorSum._raw(width, keys, coeffs[:, : own or 1], own)
    return products


def _pair_pass(width: int, pairs, columns: int):
    """The merged (keys, coeffs) of the product of each (a keys, a coeffs,
    b keys, b coeffs) of ``pairs``, with ``columns`` columns, from every
    term pair of every product at once: each row of a meets every row of
    b, in a-major order, and one ``_merge_sums`` merges all the products."""
    rows_a = np.array([len(p[0]) for p in pairs])
    rows_b = np.array([len(p[2]) for p in pairs])
    # per_row[r]: the term pairs that row r of the stacked a rows forms.
    per_row = rows_b.repeat(rows_a)
    at_a = np.arange(len(per_row)).repeat(per_row)
    first_b = (rows_b.cumsum() - rows_b).repeat(rows_a) - (per_row.cumsum() - per_row)
    at_b = np.arange(len(at_a)) + first_b.repeat(per_row)
    keys, exponents = _string_products(
        np.concatenate([p[0] for p in pairs])[at_a], np.concatenate([p[2] for p in pairs])[at_b]
    )
    left, right = (np.concatenate([_broadcast(p[i], columns) for p in pairs]) for i in (1, 3))
    coeffs = _times(left[at_a], right[at_b])
    tags = np.arange(len(pairs)).repeat(rows_a * rows_b)
    return _merge_sums(width, tags, len(pairs), keys, coeffs * _I_POWERS[exponents, None])


def _broadcast(coeffs: np.ndarray, columns: int) -> np.ndarray:
    """A single-column coefficient array read as ``columns`` equal ones."""
    return coeffs if coeffs.shape[1] == columns else coeffs.repeat(columns, axis=1)


def _merge_sums(width: int, tags: np.ndarray, count: int, keys: np.ndarray, values: np.ndarray):
    """The merged, pruned, canonically ordered (keys, coeffs) of each of
    ``count`` sums at once, sum t holding the terms tagged t.  Each key
    carries its tag above the key bits, so one stable sort and one
    reduceat serve every sum, and each sum's terms are summed in the order
    a merge of that sum alone takes; a single sum needs no tags."""
    if count == 1:
        return [_merge(keys, values)]
    shift = 2 * width
    tagged, values = _merge(keys | tags << shift, values)
    bounds = tagged.searchsorted([t << shift for t in range(count + 1)]).tolist()
    keys = tagged & ((1 << shift) - 1)
    return [(keys[start:end], values[start:end]) for start, end in zip(bounds, bounds[1:])]


def _prune_sums(lengths, keys: np.ndarray, values: np.ndarray):
    """``_prune`` of each of several sums whose terms come one sum after
    another, ``lengths[t]`` of them for sum t, from one keep mask."""
    keep = _kept(values)
    ends = list(accumulate(lengths))
    if np.count_nonzero(keep) < len(keep):
        # Each sum now ends after the terms kept up to its old end.
        ends = np.concatenate(([0], np.cumsum(keep)))[ends].tolist()
        keys, values = keys[keep], values.compress(keep, axis=0)
    values = values + 0.0
    return [(keys[start:end], values[start:end]) for start, end in zip([0, *ends], ends)]


def _reference_images(ops):
    """op|0..0> and <0..0|op for each sum of ``ops``, as sparse vectors over
    one grouping: each sum's distinct x masks in ascending order, the sum's
    index in ``ops`` above the key bits, then the ket rows and the bra rows,
    one amplitude row per mask each, with as many columns as the widest sum
    (an unbatched sum's one column broadcasts).  A phase-free string maps
    the reference state to P|0..0> = i**|x z| (-1)**|z| |x>, since Y = i X Z
    and Z|0> = -|0>; the bra phases are the conjugates.  Both phase rows are
    reduced together, and each column sums alone, in the order the same sum
    of that column alone takes."""
    columns = max(op._coeffs.shape[1] for op in ops)
    keys = np.concatenate([op._keys for op in ops])
    coeffs = np.concatenate([_broadcast(op._coeffs, columns) for op in ops])
    x, z = _x_z(keys)
    xz = np.bitwise_count(x & z)
    z2 = 2 * np.bitwise_count(z)
    phased = np.concatenate(
        (coeffs * _I_POWERS[(xz + z2) & 3, None], coeffs * _I_POWERS[(3 * xz + z2) & 3, None]), axis=1
    )
    x |= np.arange(len(ops)).repeat([len(op._keys) for op in ops]) << 2 * ops[0]._width
    masks, rows = _group_sums(x, phased)
    return masks, rows[:, :columns], rows[:, columns:]


def pair_matrix_in_all_zeros(groups):
    """Every <0..0| a |0..0> and every <0..0| a b |0..0> of each group of
    ``groups``, equal-length lists of sums of one width: the package's one
    read of Pauli sums at the reference state.  The singles come as a
    ``(groups, n)`` and the pairs as a ``(groups, n, n)`` complex array, from
    one pass.  Every batched sum shares one batch size and an unbatched sum
    broadcasts; when any sum is batched, both arrays gain a last axis, one
    entry per column, and each column is computed exactly as the unbatched
    read of that column (each sum's coefficients of that column over the
    same strings) computes it.

    Every sum's bra and ket images of |0..0> (``_reference_images``) come
    from one grouping tagged by sum.  A second grouping, tagged by group,
    gives each group the union of its sums' x masks in ascending order, so
    row i of a group's ``bra`` and ``ket`` holds the images under its sum
    i over those masks, and one batched matmul ``bra @ ket.T`` per group
    and column takes every pair read: entry (i, j) is the inner product
    <a_i 0|a_j 0> for Hermitian a_i, found without forming a_i a_j, so
    O(terms) work where the product forms len(a_i) * len(a_j) string pairs.
    A single is the ket image's entry at x mask 0: off-diagonal axes (X, Y)
    kill a term, and each Z contributes -1, because |0> is the -1
    eigenstate of sigma_z in the |1>-first ket ordering.
    """
    groups = [list(group) for group in groups]
    ops = [op for group in groups for op in group]
    if len({len(group) for group in groups}) > 1:
        raise ValueError(f"group size mismatch: {sorted({len(group) for group in groups})}")
    if len({op.width for op in ops}) > 1:
        raise ValueError(f"width mismatch: {sorted({op.width for op in ops})}")
    batch = _common_batch(*(op._batch for op in ops))
    count, n = len(groups), len(ops) // max(len(groups), 1)
    if not ops:
        return np.zeros((count, n), complex), np.zeros((count, n, n), complex)
    shift = 2 * ops[0]._width
    tagged, ket, bra = _reference_images(ops)
    sums, masks = tagged >> shift, tagged & ((1 << shift) - 1)
    union = masks | sums // n << shift
    # The stable argsort that ``_group_sums`` uses: a first np.sort call maps
    # another numpy sort kernel into memory, +0.25 MB of peak RSS.
    distinct = union[union.argsort(kind="stable")]
    # Tagged masks are >= 0, so the prepended -1 marks the first one as new.
    distinct = distinct[np.diff(distinct, prepend=-1) != 0]
    cols = distinct.searchsorted(union) - distinct.searchsorted(union >> shift << shift)
    # One (n, masks) matrix per group and column, laid out as the unbatched
    # read lays out its one column's, so the matmul rounds every column alike.
    columns = ket.shape[1]
    bra_rows = np.zeros((count, columns, n, int(cols.max(initial=-1)) + 1), complex)
    ket_rows = np.zeros_like(bra_rows)
    at = (sums // n, slice(None), sums % n, cols)
    bra_rows[at] = bra
    ket_rows[at] = ket
    singles = np.zeros((count * n, columns), complex)
    zero = masks == 0
    singles[sums[zero]] = ket[zero]
    singles, pairs = singles.reshape(count, n, columns), np.moveaxis(bra_rows @ ket_rows.swapaxes(2, 3), 1, -1)
    return (singles, pairs) if batch is not None else (singles[..., 0], pairs[..., 0])


def _check_hermitian(ops) -> None:
    """The one Hermitian rule of every expectation: each coefficient of
    ``ops`` has an imaginary part of at most 1e-12, and a NaN fails it.
    The raise is explicit, so it holds under python -O."""
    if ops and not np.abs(np.concatenate([op._coeffs.ravel() for op in ops]).imag).max(initial=0.0) <= 1e-12:
        raise ValueError("expectation requires Hermitian operators")


def max_term_deviation(a: OperatorSum, b: OperatorSum) -> float:
    """Largest coefficient difference over the union of term strings."""
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} != {b.width}")
    diff = a - b
    if diff.is_zero:
        return 0.0
    return float(np.abs(diff._coeffs).max())
