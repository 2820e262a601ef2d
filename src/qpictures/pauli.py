"""Phased Pauli strings and weighted sums of Pauli strings.

The algebra is exact up to floating-point coefficients.  An operator sum
stores each phase-free string as one packed integer with two bits per
qubit, so a string product is an XOR of packed words and its phase comes
from popcounts of the words' x and z bit masks (the symplectic form of
Aaronson and Gottesman).  Sums merge duplicate strings and drop
coefficients below ``PRUNE_TOL``.

A sum's coefficients may carry a trailing batch axis, shape
``(terms, batch)``: one column per member of a batch of operators that
share their term strings, such as one descriptor evolved for many analyzer
angles at once.  Every kernel works along axis 0, so a sum without a
batch axis is the batch-free case of the same code, and each column is
computed with the same floating-point operations, in the same order, as
the batch-free sum it stands for.  A term is pruned only when it is below
``PRUNE_TOL`` in every column.

Conventions used throughout the package:

* qubits are numbered 1..n,
* single-qubit kets are ordered |1> = (1,0)^T, |0> = (0,1)^T, so the
  all-zeros reference state is the -1 eigenstate of every sigma_z and
  <0..0| Z_i |0..0> = -1.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from numbers import Number
from typing import Iterable, Iterator

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


@dataclass(frozen=True)
class PauliString:
    """A scalar phase i**phase_power times a tensor product of Pauli axes."""

    width: int
    axes: tuple[int, ...]
    phase_power: int = 0

    def __post_init__(self):
        _check_width(self.width)
        if len(self.axes) != self.width:
            raise ValueError(
                f"axes length {len(self.axes)} does not match width {self.width}"
            )
        if any(a not in (0, 1, 2, 3) for a in self.axes):
            raise ValueError(f"invalid axis code in {self.axes}")
        object.__setattr__(self, "axes", tuple(int(a) for a in self.axes))
        object.__setattr__(self, "phase_power", int(self.phase_power) % 4)

    @classmethod
    def identity(cls, width: int) -> "PauliString":
        return cls(width, (Axis.I,) * width)

    @classmethod
    def single(cls, width: int, qubit: int, axis: Axis) -> "PauliString":
        """Pauli ``axis`` on ``qubit`` (1-based), identity elsewhere."""
        _check_width(width)
        _check_qubit(qubit, width)
        axes = [Axis.I] * width
        axes[qubit - 1] = Axis(axis)
        return cls(width, tuple(axes))

    @classmethod
    def from_ops(cls, width: int, ops: str, phase_power: int = 0) -> "PauliString":
        """Parse tokens like ``"Y2 X3"`` (axis letter + 1-based qubit)."""
        axes = [Axis.I] * width
        for token in ops.split():
            m = _TOKEN_RE.match(token)
            if m is None:
                raise ValueError(f"bad Pauli token {token!r}")
            qubit = int(m.group(2))
            _check_qubit(qubit, width)
            axes[qubit - 1] = Axis[m.group(1)]
        return cls(width, tuple(axes), phase_power)

    @property
    def phase(self) -> complex:
        return complex(_I_POWERS[self.phase_power])

    @property
    def is_hermitian(self) -> bool:
        return self.phase_power % 2 == 0

    def __str__(self) -> str:
        sign = ("+", "+i", "-", "-i")[self.phase_power]
        return f"{sign}{_tokens(self.axes)}"


def _pack(axes: Iterable[int]) -> int:
    """Packed key of an axis tuple: qubit 1 is the most significant pair of
    bits, so sorting keys gives the canonical term order."""
    key = 0
    for code in axes:
        key = (key << 2) | code
    return key


def _unpack(key: int, width: int) -> tuple[int, ...]:
    return tuple((key >> (2 * (width - q))) & 3 for q in range(1, width + 1))


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


def multiply_strings(a: PauliString, b: PauliString) -> PauliString:
    """Group product a*b with the accumulated phase."""
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} != {b.width}")
    key, exponent = _string_products(_pack(a.axes), _pack(b.axes))
    phase = a.phase_power + b.phase_power + int(exponent)
    return PauliString(a.width, _unpack(key, a.width), phase % 4)


def _tokens(axes: Iterable[int]) -> str:
    parts = [f"{_AXIS_NAMES[a]}{q}" for q, a in enumerate(axes, start=1) if a != Axis.I]
    return " ".join(parts) if parts else "I"


def _fmt_coeff(c: complex) -> str:
    if abs(c.imag) < 1e-12:
        return f"{c.real:+.6f}"
    return f"({c.real:+.6f}{c.imag:+.6f}j)"


def _prune(keys: np.ndarray, coeffs: np.ndarray):
    """Drop terms below ``PRUNE_TOL`` in every batch column.  Adding +0.0
    turns a -0.0 component into +0.0, as summing into a zeroed accumulator
    does, so a merged and an unmerged path give bitwise-equal coefficients."""
    keep = np.abs(coeffs) >= PRUNE_TOL
    if coeffs.ndim == 2:
        keep = keep.any(axis=1)
    return keys[keep], coeffs[keep] + 0.0


def _batch_of(coeffs) -> int | None:
    """Batch size of a coefficient array, or None without a batch axis."""
    return coeffs.shape[1] if np.ndim(coeffs) == 2 else None


def _common_batch(*batches) -> int | None:
    sizes = {b for b in batches if b is not None}
    if len(sizes) > 1:
        raise ValueError(f"batch size mismatch: {sorted(sizes)}")
    return sizes.pop() if sizes else None


def _scaled(coeff, coeffs: np.ndarray) -> np.ndarray:
    """coeff * coeffs, with a per-column coefficient vector broadcast over
    the terms.  The coefficient stays the left operand: the vectorised
    complex product rounds differently when the operands are swapped."""
    if np.ndim(coeff) == 1 and coeffs.ndim == 1:
        coeffs = coeffs[:, None]
    return coeff * coeffs


def _column_sums(values: np.ndarray):
    """Sum over axis 0: a scalar without a batch axis, else one sum per
    column.  Each column is summed as a contiguous row, which rounds
    exactly like the batch-free ``values.sum()``."""
    if values.ndim == 1:
        return values.sum()
    return np.ascontiguousarray(values.T).sum(axis=1)


def _group_sums(keys: np.ndarray, values: np.ndarray):
    """Distinct keys in ascending order, and the sum of the values (rows,
    with any batch axis kept) of each.  The sort is stable, so equal keys
    are summed in a fixed order."""
    if len(keys) <= 1:
        return keys, values
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(values[order], starts)


def _merge(keys: np.ndarray, coeffs: np.ndarray):
    """Merge duplicate strings, prune tiny coefficients, sort canonically."""
    return _prune(*_group_sums(keys, coeffs))


# Pair-product chunking bound: keeps the intermediate broadcast arrays small.
_PAIR_CHUNK = 1 << 20


class OperatorSum:
    """A finite weighted sum of phase-free Pauli strings of equal width.

    Terms are stored merged (no duplicate strings), pruned at
    ``PRUNE_TOL`` and canonically ordered, so equal operators have
    identical term arrays.  Coefficients have shape ``(terms,)``, or
    ``(terms, batch)`` for a batch of sums over the same strings.
    Instances are immutable; all arithmetic returns new values.
    """

    __slots__ = ("_width", "_keys", "_coeffs")

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
            keys.append(_pack(string.axes))
            if np.ndim(coeff):
                coeffs.append(np.asarray(coeff, dtype=complex) * string.phase)
            else:
                coeffs.append(complex(coeff) * string.phase)
        batch = _common_batch(*(len(c) if isinstance(c, np.ndarray) else None for c in coeffs))
        if batch is not None:
            coeffs = [np.broadcast_to(c, (batch,)) for c in coeffs]
        merged = _merge(np.array(keys, dtype=np.int64), np.array(coeffs, dtype=complex))
        self._init_raw(width, *merged)

    def _init_raw(self, width: int, keys: np.ndarray, coeffs: np.ndarray) -> None:
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        coeffs = np.ascontiguousarray(coeffs, dtype=complex)
        keys.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "_width", width)
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("OperatorSum is immutable")

    @classmethod
    def _raw(cls, width: int, keys: np.ndarray, coeffs: np.ndarray) -> "OperatorSum":
        """Internal: wrap already-merged canonical arrays."""
        out = cls.__new__(cls)
        out._init_raw(width, keys, coeffs)
        return out

    @classmethod
    def zero(cls, width: int) -> "OperatorSum":
        return cls(width)

    @classmethod
    def identity(cls, width: int) -> "OperatorSum":
        return cls(width, [(PauliString.identity(width), 1.0)])

    @classmethod
    def single_axis(cls, width: int, qubit: int, axis: Axis, coeff: complex = 1.0) -> "OperatorSum":
        return cls(width, [(PauliString.single(width, qubit, axis), coeff)])

    @property
    def width(self) -> int:
        return self._width

    @property
    def batch(self) -> int | None:
        """Number of batch columns, or None for a sum without a batch axis."""
        return _batch_of(self._coeffs)

    def column(self, j: int) -> "OperatorSum":
        """Batch column ``j`` as a sum without a batch axis, pruned at
        ``PRUNE_TOL``.  A sum without a batch axis stands for every column."""
        if self._coeffs.ndim == 1:
            return self
        return OperatorSum._raw(self._width, *_prune(self._keys, self._coeffs[:, j]))

    def __len__(self) -> int:
        return len(self._coeffs)

    @property
    def is_zero(self) -> bool:
        return len(self._coeffs) == 0

    def iter_terms(self) -> Iterator[tuple[PauliString, complex]]:
        """Yield (phase-free string, coefficient) in canonical order; a
        batched sum yields each term's row of per-column coefficients."""
        coeffs = self._coeffs.tolist() if self._coeffs.ndim == 1 else self._coeffs
        for key, coeff in zip(self._keys.tolist(), coeffs):
            yield PauliString(self._width, _unpack(key, self._width)), coeff

    def coefficient(self, string: PauliString | str) -> complex:
        """Coefficient of ``string`` (0 if absent); phases are divided out."""
        if isinstance(string, str):
            string = PauliString.from_ops(self._width, string)
        if string.width != self._width:
            raise ValueError(f"width mismatch: {string.width} != {self._width}")
        key = _pack(string.axes)
        pos = np.searchsorted(self._keys, key)
        found = pos < len(self._keys) and self._keys[pos] == key
        if self._coeffs.ndim == 2:
            return self._coeffs[pos] / string.phase if found else np.zeros(self._coeffs.shape[1], complex)
        if found:
            return complex(self._coeffs[pos] / string.phase)
        return 0.0 + 0.0j

    def support(self) -> frozenset[int]:
        """Qubits (1-based) on which any term acts non-trivially."""
        if self.is_zero:
            return frozenset()
        occupied = _unpack(int(np.bitwise_or.reduce(self._keys)), self._width)
        return frozenset(q for q, code in enumerate(occupied, start=1) if code)

    def is_hermitian(self, atol: float = 1e-12) -> bool:
        if self.is_zero:
            return True
        return float(np.abs(self._coeffs.imag).max()) <= atol

    def __add__(self, other: "OperatorSum") -> "OperatorSum":
        if not isinstance(other, OperatorSum):
            return NotImplemented
        return linear_combination(self._width, [(1.0, self), (1.0, other)])

    def __sub__(self, other: "OperatorSum") -> "OperatorSum":
        return self + (-other)

    def __neg__(self) -> "OperatorSum":
        return OperatorSum._raw(self._width, self._keys, -self._coeffs)

    def __mul__(self, other):
        if isinstance(other, OperatorSum):
            return _sum_multiply(self, other)
        if isinstance(other, Number):
            c = complex(other)
            if abs(c) < PRUNE_TOL:
                return OperatorSum.zero(self._width)
            return OperatorSum._raw(self._width, self._keys, self._coeffs * c)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Number):
            return self.__mul__(other)
        return NotImplemented

    def equal_terms(self, other: "OperatorSum") -> bool:
        """Exact termwise equality (same strings, bitwise-equal coefficients)."""
        return (
            self._width == other._width
            and np.array_equal(self._keys, other._keys)
            and np.array_equal(self._coeffs, other._coeffs)
        )

    def render(self) -> str:
        """Canonical text form, one term per line: sign, coefficient with
        six decimals, axis-qubit tokens in ascending qubit order."""
        if self._coeffs.ndim == 2:
            raise ValueError("render one column of a batched sum at a time")
        if self.is_zero:
            return "0"
        lines = [
            f"{_fmt_coeff(coeff)} * {_tokens(_unpack(key, self._width))}"
            for key, coeff in zip(self._keys.tolist(), self._coeffs)
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:
        batch = "" if self.batch is None else f", batch={self.batch}"
        return f"OperatorSum(width={self._width}, terms={len(self)}{batch})"


def linear_combination(width: int, parts: Iterable[tuple[complex, OperatorSum]]) -> OperatorSum:
    """sum_k c_k S_k over (c_k, S_k) pairs, merged once.

    A coefficient c_k may be a 1-D array of per-column coefficients, and
    the result is batched if any coefficient or part is.  A single part
    is scaled and pruned without a merge, since its terms are already
    distinct and canonically ordered.
    """
    parts = list(parts)
    for _, part in parts:
        if part._width != width:
            raise ValueError(f"width mismatch: {part._width} != {width}")
    if not parts:
        return OperatorSum.zero(width)
    if len(parts) == 1:
        coeff, part = parts[0]
        return OperatorSum._raw(width, *_prune(part._keys, _scaled(coeff, part._coeffs)))
    scaled = [_scaled(coeff, part._coeffs) for coeff, part in parts]
    batch = _common_batch(*(_batch_of(c) for c in scaled))
    if batch is not None:
        scaled = [c if c.ndim == 2 else np.broadcast_to(c[:, None], (len(c), batch)) for c in scaled]
    keys = np.concatenate([part._keys for _, part in parts])
    return OperatorSum._raw(width, *_merge(keys, np.concatenate(scaled)))


def _sum_multiply(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} != {b.width}")
    width = a.width
    ma, mb = len(a), len(b)
    if ma == 0 or mb == 0:
        return OperatorSum.zero(width)

    batch = _common_batch(a.batch, b.batch)
    coeffs_a, coeffs_b = a._coeffs, b._coeffs
    if batch is not None:
        # A factor without a batch axis broadcasts over the columns.
        coeffs_a = coeffs_a.reshape(ma, -1)[:, None, :]
        coeffs_b = coeffs_b.reshape(mb, -1)[None, :, :]
    else:
        coeffs_a = coeffs_a[:, None]
        coeffs_b = coeffs_b[None, :]
    chunk = max(1, _PAIR_CHUNK // (mb * (batch or 1)))
    partial_keys = []
    partial_coeffs = []
    for start in range(0, ma, chunk):
        keys, exponents = _string_products(a._keys[start : start + chunk, None], b._keys[None, :])
        if batch is not None:
            exponents = exponents[:, :, None]
        coeffs = (coeffs_a[start : start + chunk] * coeffs_b) * _I_POWERS[exponents]
        m_keys, m_coeffs = _merge(keys.reshape(-1), coeffs.reshape(-1, *coeffs.shape[2:]))
        partial_keys.append(m_keys)
        partial_coeffs.append(m_coeffs)
    if len(partial_keys) == 1:
        return OperatorSum._raw(width, partial_keys[0], partial_coeffs[0])
    keys = np.concatenate(partial_keys)
    coeffs = np.concatenate(partial_coeffs)
    return OperatorSum._raw(width, *_merge(keys, coeffs))


def expectation_in_all_zeros(op: OperatorSum) -> complex:
    """<0..0| op |0..0>.

    Off-diagonal axes (X, Y) kill a term; each Z contributes -1 because
    |0> is the -1 eigenstate of sigma_z in the |1>-first ket ordering.
    A batched sum gives one complex value per column.
    """
    x, z = _x_z(op._keys)
    z_parity = np.bitwise_count(z) & 1
    signs = np.where(x != 0, 0.0, np.where(z_parity == 1, -1.0, 1.0))
    if op._coeffs.ndim == 2:
        return _column_sums(op._coeffs * signs[:, None])
    return complex(_column_sums(op._coeffs * signs))


def _reference_images(op: OperatorSum, bra: bool = False):
    """op|0..0> as a sparse vector: the distinct x masks of its strings in
    ascending order, and one amplitude row per mask.  A phase-free string
    maps the reference state to P|0..0> = i**|x z| (-1)**|z| |x>, since
    Y = i X Z and Z|0> = -|0>.  With ``bra`` set, the rows are those of
    <0..0|op instead, whose phases are the conjugates."""
    x, z = _x_z(op._keys)
    xz = np.bitwise_count(x & z)
    exponents = (3 * xz if bra else xz) + 2 * np.bitwise_count(z)
    phases = _I_POWERS[exponents & 3]
    amplitudes = op._coeffs * (phases[:, None] if op._coeffs.ndim == 2 else phases)
    return _group_sums(x, amplitudes)


def pair_expectation_in_all_zeros(a: OperatorSum, b: OperatorSum):
    """<0..0| a b |0..0> without forming the product a * b.

    <0..0|a and b|0..0> are sparse vectors keyed by x masks, so the value
    is one dot product over the masks they share: O(terms) work where the
    product forms len(a) * len(b) string pairs.  For Hermitian ``a`` it
    is the inner product <a 0|b 0>.  A batched operand gives one complex
    value per column, and an operand without a batch axis broadcasts.
    """
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} != {b.width}")
    batch = _common_batch(a.batch, b.batch)
    keys_a, rows_a = _reference_images(a, bra=True)
    keys_b, rows_b = _reference_images(b)
    _, at_a, at_b = np.intersect1d(keys_a, keys_b, assume_unique=True, return_indices=True)
    rows_a, rows_b = rows_a[at_a], rows_b[at_b]
    if batch is None:
        return complex(_column_sums(rows_a * rows_b))
    if rows_a.ndim == 1:
        rows_a = rows_a[:, None]
    if rows_b.ndim == 1:
        rows_b = rows_b[:, None]
    return _column_sums(rows_a * rows_b)


def isclose(a: OperatorSum, b: OperatorSum, atol: float = 1e-10) -> bool:
    """Termwise comparison; strings missing on one side count as 0."""
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} != {b.width}")
    return max_term_deviation(a, b) <= atol


def max_term_deviation(a: OperatorSum, b: OperatorSum) -> float:
    """Largest coefficient difference over the union of term strings."""
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} != {b.width}")
    diff = a - b
    if diff.is_zero:
        return 0.0
    return float(np.abs(diff._coeffs).max())
