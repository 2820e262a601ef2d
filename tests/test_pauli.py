"""Pauli-string and operator-sum algebra, checked against dense matrices."""
import ast
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from qpictures import (
    Axis,
    OperatorSum,
    PauliString,
    apply_circuit,
    apply_gate,
    evolve,
    evolve_circuit,
    expectation,
    hadamard,
    init_descriptors,
    joint_probability,
    max_term_deviation,
    new_all_zeros,
)
from dense import brickwork, operator_matrix, packed_key, string_matrix, terms
from qpictures import cli, heisenberg, pauli, states
from qpictures.pauli import MAX_WIDTH, pair_matrix_in_all_zeros
from qpictures.verification import ALL_CHECKS, compare_pictures

# _PHASE_EXP[a, b] = k such that sigma_a sigma_b = i**k sigma_(a XOR b):
# the per-qubit table the packed kernel is checked against.
_PHASE_EXP = (
    (0, 0, 0, 0),
    (0, 0, 1, 3),
    (0, 3, 0, 1),
    (0, 1, 3, 0),
)


def _keys(width):
    """Keys drawn one uniform axis code per qubit, so high qubits are as
    often non-identity as low ones (a bounded integer draw is not)."""
    return st.lists(st.integers(0, 3), min_size=width, max_size=width).map(packed_key)


def _loop_string_product(a: PauliString, b: PauliString) -> tuple[tuple[int, ...], int]:
    """Axes and phase power of a*b, one qubit at a time."""
    axes = tuple(x ^ y for x, y in zip(a.axes, b.axes))
    power = a.phase_power + b.phase_power + sum(_PHASE_EXP[x][y] for x, y in zip(a.axes, b.axes))
    return axes, power % 4


def _string_product(a: PauliString, b: PauliString) -> PauliString:
    """a*b as the product of two one-term sums: every coefficient is a
    power of i, so the product's lone coefficient is exactly i**k."""
    ((string, coeff),) = terms(OperatorSum(a.width, [(a, 1.0)]) * OperatorSum(b.width, [(b, 1.0)]))
    return PauliString(a.width, string.key, [1, 1j, -1, -1j].index(coeff))


def _loop_sum_product(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    """Product of two sums over all term pairs, collected in a dict."""
    acc = {}
    for sa, ca in terms(a):
        for sb, cb in terms(b):
            axes, power = _loop_string_product(sa, sb)
            acc[axes] = acc.get(axes, 0) + ca * cb * 1j**power
    return OperatorSum(a.width, [(PauliString(a.width, packed_key(axes)), c) for axes, c in acc.items()])


def _single(op):
    """<0..0| op |0..0>: the read kernel's one-sum case, one value per
    column of a batched sum."""
    return pair_matrix_in_all_zeros([[op]])[0][0, 0]


def _pair(a, b):
    """<0..0| a b |0..0>: the read kernel's one-group case."""
    return pair_matrix_in_all_zeros([[a, b]])[1][0, 0, 1]


def _reference_state(width):
    """|0..0> as a dense vector: |0> = (0, 1)^T on every qubit."""
    zeros = np.zeros(2**width, dtype=complex)
    zeros[-1] = 1.0
    return zeros


@st.composite
def string_tuples(draw, count=2, max_width=6):
    width = draw(st.integers(1, max_width))
    strings = tuple(
        PauliString(width, draw(_keys(width)), draw(st.integers(0, 3)))
        for _ in range(count)
    )
    return strings


@st.composite
def operator_sums(draw, count=2, max_width=3, max_terms=4):
    width = draw(st.integers(1, max_width))
    sums = []
    for _ in range(count):
        terms = []
        for _ in range(draw(st.integers(0, max_terms))):
            key = draw(_keys(width))
            coeff = complex(
                draw(st.floats(-2, 2, allow_nan=False)),
                draw(st.floats(-2, 2, allow_nan=False)),
            )
            terms.append((PauliString(width, key), coeff))
        sums.append(OperatorSum(width, terms))
    return sums


class TestMultiplyStrings:
    def test_x_times_y_is_i_z(self):
        x = PauliString.single(1, 1, Axis.X)
        y = PauliString.single(1, 1, Axis.Y)
        out = _string_product(x, y)
        assert out.axes == (Axis.Z,)
        assert out.phase == 1j

    def test_identity_is_neutral(self):
        s = PauliString.from_ops(2, "Z1 X2", phase_power=3)
        assert _string_product(PauliString.identity(2), s) == s
        assert _string_product(s, PauliString.identity(2)) == s

    def test_involution(self):
        s = PauliString.from_ops(2, "Z1 X2")
        out = _string_product(s, s)
        assert out == PauliString.identity(2)
        assert out.phase == 1

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            _string_product(PauliString.identity(2), PauliString.identity(3))

    @pytest.mark.parametrize("a,b", [(Axis.X, Axis.Y), (Axis.Y, Axis.Z), (Axis.Z, Axis.X)])
    def test_anticommutation(self, a, b):
        sa = PauliString.single(3, 2, a)
        sb = PauliString.single(3, 2, b)
        ab = _string_product(sa, sb)
        ba = _string_product(sb, sa)
        assert ab.axes == ba.axes
        assert ab.phase == -ba.phase

    @given(string_tuples(count=3))
    def test_closure_and_associativity(self, strings):
        a, b, c = strings
        ab = _string_product(a, b)
        assert isinstance(ab, PauliString) and ab.width == a.width
        assert _string_product(ab, c) == _string_product(a, _string_product(b, c))

    @given(string_tuples(count=2, max_width=4))
    def test_dense_homomorphism(self, strings):
        a, b = strings
        got = string_matrix(_string_product(a, b))
        want = string_matrix(a) @ string_matrix(b)
        np.testing.assert_allclose(got, want, atol=1e-12)


@st.composite
def wide_sums(draw, count=2, max_terms=6):
    """Sums at MAX_WIDTH, where packed keys use all 40 bits."""
    sums = []
    for _ in range(count):
        terms = []
        for _ in range(draw(st.integers(1, max_terms))):
            key = draw(_keys(MAX_WIDTH))
            coeff = complex(draw(st.floats(0.5, 2)), draw(st.floats(-2, 2)))
            terms.append((PauliString(MAX_WIDTH, key, draw(st.integers(0, 3))), coeff))
        sums.append(OperatorSum(MAX_WIDTH, terms))
    return sums


class TestWideProduct:
    """The dense oracle stops near width 4; at MAX_WIDTH the packed product
    is checked against the per-qubit loop."""

    @given(string_tuples(count=2, max_width=MAX_WIDTH))
    def test_string_product_matches_loop(self, strings):
        a, b = strings
        out = _string_product(a, b)
        assert (out.axes, out.phase_power) == _loop_string_product(a, b)

    # A chunk of 1 multiplies one term of the left factor at a time, so the
    # partial products go through the final merge.
    @pytest.mark.parametrize("chunk", [pauli._PAIR_CHUNK, 1])
    @given(sums=wide_sums())
    def test_sum_product_matches_loop(self, chunk, sums):
        a, b = sums
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pauli, "_PAIR_CHUNK", chunk)
            got = a * b
        want = _loop_sum_product(a, b)
        assert [s for s, _ in terms(got)] == [s for s, _ in terms(want)]
        assert max_term_deviation(got, want) <= 1e-12


class TestPairProducts:
    """``_pair_products``, the one product entry, forms several products
    at once, so its sums must share one width and one batch size."""

    def test_mixed_widths_raise(self):
        a2 = OperatorSum(2, [("X1", 1.0), ("Z2", 0.5)])
        a3 = OperatorSum(3, [("X1 Z3", 1.0), ("Y2", 0.5)])
        assert (a3 * a3)._keys.tolist() == [0, PauliString.from_ops(3, "X1 Y2 Z3").key]
        with pytest.raises(ValueError, match="width mismatch"):
            pauli._pair_products([(a2, a2), (a3, a3)])

    def test_mixed_batch_sizes_raise(self):
        a = OperatorSum(2, [("X1", 1.0), ("Z2", 0.5)])
        b3, b5 = (pauli.linear_combination(2, [(np.arange(1.0, size + 1), a)]) for size in (3, 5))
        with pytest.raises(ValueError, match="batch size mismatch"):
            pauli._pair_products([(b3, b3), (b5, b5)])


class TestOperatorSum:
    def test_add_inverse_gives_zero(self):
        s = OperatorSum(2, [("Z1 X2", 0.7)])
        assert (s + (-1.0) * s).is_zero

    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2, 2.5])
    def test_analyzer_style_two_term_sum(self, theta):
        s = OperatorSum(2, [("Y1 X2", math.sin(theta)), ("Z1 X2", -math.cos(theta))])
        y1x2, z1x2 = (string_matrix(PauliString.from_ops(2, ops)) for ops in ("Y1 X2", "Z1 X2"))
        np.testing.assert_allclose(operator_matrix(s), math.sin(theta) * y1x2 - math.cos(theta) * z1x2, rtol=0, atol=1e-15)
        pauli._check_hermitian([s])

    def test_disjoint_strings_both_kept(self):
        s = OperatorSum(2, [("X1", 1.0)]) + OperatorSum(2, [("Z2", 2.0)])
        assert s.equal_terms(OperatorSum(2, [("X1", 1.0), ("Z2", 2.0)]))

    def test_two_by_two_product_expands_to_four_terms(self):
        theta, phi = 0.7, 0.3
        a = OperatorSum(2, [("Y1 X2", math.sin(theta)), ("Z1 X2", -math.cos(theta))])
        b = OperatorSum(2, [("X2", math.cos(phi)), ("X1 Y2", math.sin(phi))])
        prod = a * b
        assert len(prod) == 4
        # reference-state value of the product is cos(theta - phi)
        value = _single(prod)
        assert value == pytest.approx(math.cos(theta - phi), abs=1e-12)

    def test_zero_annihilates(self):
        zero = OperatorSum.zero(2)
        s = OperatorSum(2, [("X1 Y2", 1.5)])
        assert (zero * s).is_zero
        assert (s * zero).is_zero

    def test_single_term_product_reduces_to_string_product(self):
        a = OperatorSum(2, [("X1", 2.0)])
        b = OperatorSum(2, [("Y1", 3.0)])
        prod = a * b
        string = _string_product(
            PauliString.single(2, 1, Axis.X), PauliString.single(2, 1, Axis.Y)
        )
        assert len(prod) == 1
        assert max_term_deviation(prod, OperatorSum(2, [(string, 6.0)])) <= 1e-15

    def test_near_zero_terms_pruned(self):
        s = OperatorSum(2, [("X1", 1.0)])
        assert (s + (-(1.0 - 1e-15)) * s).is_zero

    def test_nan_terms_survive_pruning(self):
        # A NaN is never below PRUNE_TOL, so it cannot vanish into a zero sum.
        op = OperatorSum(2, [("X1", 1.0), ("Z2", 0.5)])
        scaled = op * math.nan
        assert len(scaled) == len(op)
        assert all(np.isnan(c) for _, c in terms(scaled))
        built = OperatorSum(2, [("X1", math.nan)])
        assert len(built) == 1
        assert all(np.isnan(c) for _, c in terms(built))
        keys, _ = pauli._prune(np.array([1, 2]), np.array([[0.0, math.nan], [0.0, 1e-15]]))
        assert keys.tolist() == [1]

    def test_scaling_prunes_the_product_not_the_number(self):
        # A factor below PRUNE_TOL keeps a product above it, and a factor of
        # zero keeps a NaN.
        op = OperatorSum(1, [("X1", 1e3)])
        for scaled in (op * 1e-15, 1e-15 * op):
            assert [abs(c) for _, c in terms(scaled)] == [pytest.approx(1e-12)]
        scaled = OperatorSum(1, [("X1", math.nan)]) * 0
        assert len(scaled) == 1 and np.isnan(terms(scaled)[0][1])

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            OperatorSum.zero(2) + OperatorSum.zero(3)
        with pytest.raises(ValueError, match="width"):
            OperatorSum.identity(2) * OperatorSum.identity(3)

    def test_canonical_order_is_input_independent(self):
        terms = [("Z1", 1.0), ("X1 Y2", 0.5), ("Y2", -2.0)]
        a = OperatorSum(2, terms)
        b = OperatorSum(2, terms[::-1])
        assert a.equal_terms(b)
        assert a.render() == b.render()

    def test_phases_fold_into_coefficients(self):
        s = OperatorSum(2, [(PauliString.from_ops(2, "X1", phase_power=1), 2.0)])
        assert terms(s) == [(PauliString.from_ops(2, "X1"), 2.0j)]
        with pytest.raises(ValueError, match="Hermitian"):
            pauli._check_hermitian([s])

    def test_render_format(self):
        s = OperatorSum(4, [("Y2 X3", math.sin(math.pi / 3)), ("Z2 X3", -0.5)])
        assert s.render() == "+0.866025 * Y2 X3\n-0.500000 * Z2 X3"
        assert OperatorSum.identity(2).render() == "+1.000000 * I"
        assert OperatorSum.zero(2).render() == "0"

    @given(operator_sums(count=2))
    def test_dense_add_homomorphism(self, sums):
        a, b = sums
        np.testing.assert_allclose(
            operator_matrix(a + b), operator_matrix(a) + operator_matrix(b), atol=1e-12
        )

    @given(operator_sums(count=2))
    def test_dense_multiply_homomorphism(self, sums):
        a, b = sums
        np.testing.assert_allclose(
            operator_matrix(a * b), operator_matrix(a) @ operator_matrix(b), atol=1e-12
        )

    @given(operator_sums(count=3))
    def test_multiplication_distributes(self, sums):
        a, b, c = sums
        assert max_term_deviation(a * (b + c), a * b + a * c) <= 1e-10

    @given(operator_sums(count=3))
    def test_multiplication_associates(self, sums):
        a, b, c = sums
        assert max_term_deviation((a * b) * c, a * (b * c)) <= 1e-10


class TestExpectationInAllZeros:
    """<0|op|0>, the read kernel's singles."""

    def test_off_diagonal_axis_gives_zero(self):
        assert _single(OperatorSum(2, [("X2", 1.0)])) == 0

    def test_single_z_gives_minus_one(self):
        # dense oracle: |0> = (0,1)^T, <0|Z|0> = -1
        ket0 = np.array([0.0, 1.0])
        dense = ket0 @ np.diag([1.0, -1.0]) @ ket0
        assert dense == -1.0
        assert _single(OperatorSum(1, [("Z1", 1.0)])) == dense

    def test_two_term_product_value(self):
        theta, phi = 1.1, 0.4
        a = OperatorSum(2, [("Y1 X2", math.sin(theta)), ("Z1 X2", -math.cos(theta))])
        b = OperatorSum(2, [("X2", math.cos(phi)), ("X1 Y2", math.sin(phi))])
        value = _single(a * b)
        assert value == pytest.approx(math.cos(theta - phi), abs=1e-12)

    @given(operator_sums(count=1, max_width=4, max_terms=6))
    def test_matches_dense_reference_state(self, sums):
        (op,) = sums
        zeros = _reference_state(op.width)
        dense = zeros.conj() @ operator_matrix(op) @ zeros
        got = _single(op)
        assert abs(got - dense) <= 1e-12

    @given(operator_sums(count=1, max_width=4, max_terms=6))
    def test_hermitian_gives_real(self, sums):
        (op,) = sums
        hermitian = OperatorSum(
            op.width, [(s, complex(c.real, 0.0)) for s, c in terms(op)]
        )
        assert abs(_single(hermitian).imag) <= 1e-12


def _bits(values) -> np.ndarray:
    """The raw bits of complex values, so -0.0 and +0.0 differ."""
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64)


def _results(width, terms_a, terms_b, scale, batched):
    """Bits of every kernel's result on the sums built from the drawn
    terms, unbatched or as a batch of one (length-1 coefficient arrays);
    a batch of one contributes its column 0."""
    a, b = (
        OperatorSum(width, [(PauliString(width, key, power), np.array([c]) if batched else c) for key, power, c in terms])
        for terms in (terms_a, terms_b)
    )
    sums = [a * b, b * a, a + b, a - b, scale * a, a * scale]
    sums.append(pauli.linear_combination(width, [(scale, a), (0.5, b), (-1j, a)]))
    singles, pairs = pair_matrix_in_all_zeros([[a, b]])
    assert singles.shape == ((1, 2, 1) if batched else (1, 2))
    reads = np.concatenate([singles.ravel(), pairs.ravel()])
    pairs = [[(s.key, c[0] if batched else c) for s, c in terms(op)] for op in sums]
    bits = [([key for key, _ in t], _bits([c for _, c in t]).tolist()) for t in pairs]
    return a, bits, _bits(reads).tolist()


@st.composite
def one_column_cases(draw):
    """A width 1-4, the (key, phase power, coefficient) terms of two sums
    and a scale."""
    width = draw(st.integers(1, 4))
    values = st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)
    term = st.tuples(_keys(width), st.integers(0, 3), values)
    # One term at least, or the batch of one has no array to read its batch from.
    terms_a, terms_b = (draw(st.lists(term, min_size=1, max_size=8)) for _ in range(2))
    return width, terms_a, terms_b, draw(values)


@given(one_column_cases())
# One term a sum, so every product has T = C = 1.
@example((1, [(3, 0, 0.1 + 0.7j)], [(1, 1, -1.3 + 0.2j)], 0.9 - 0.3j))
@example((1, [(2, 1, 0.3 - 0.1j)], [(2, 3, 0.7 + 0.6j)], 1.1 + 0.1j))
def test_unbatched_sum_is_the_one_column_case_bit_for_bit(case):
    """An unbatched sum and its batch of one give bitwise-equal results
    through products, sums, scaling and the group read of the two."""
    width, terms_a, terms_b, scale = case
    a, sums, reads = _results(width, terms_a, terms_b, scale, batched=False)
    a1, sums1, reads1 = _results(width, terms_a, terms_b, scale, batched=True)
    assert sums == sums1
    assert reads == reads1
    assert (a.batch, a1.batch) == (None, 1)
    assert not a.equal_terms(a1)
    assert a.equal_terms(a1.column(0))


@given(operator_sums(count=2, max_width=4, max_terms=8), st.complex_numbers(max_magnitude=2, allow_nan=False))
def test_every_sum_is_already_pruned_and_free_of_negative_zeros(sums, scale):
    """A lone part with coefficient 1 comes out of linear_combination's
    merge bit for bit, which holds only because every sum is a fixed point
    of the prune."""
    a, b = sums
    batched = pauli.linear_combination(a.width, [(np.array([1.0, -0.5j]), a)])
    dense = OperatorSum._raw(a.width, *pauli._dense_product(a, b), None)
    dense_batched = OperatorSum._raw(a.width, *pauli._dense_product(batched, b), 2)
    for op in (a, a * b, a + b, a - b, -a, scale * a, batched, -batched, batched.column(1), dense, dense_batched):
        keys, coeffs = pauli._prune(op._keys, op._coeffs)
        assert keys.tolist() == op._keys.tolist()
        assert _bits(coeffs).tolist() == _bits(op._coeffs).tolist()
        same = pauli.linear_combination(op.width, [(1, op)])
        assert same.batch == op.batch and same._keys.tolist() == op._keys.tolist()
        assert _bits(same._coeffs).tolist() == _bits(op._coeffs).tolist()


def test_max_term_deviation_counts_missing_strings():
    a = OperatorSum(2, [("X1", 1.0), ("Z2", 0.5)])
    b = OperatorSum(2, [("X1", 1.0)])
    assert max_term_deviation(a, b) == pytest.approx(0.5)
    assert not max_term_deviation(a, b) <= 1e-3
    assert max_term_deviation(a, b) <= 0.6


def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString(2, -1)
    with pytest.raises(ValueError):
        PauliString(2, 16)
    with pytest.raises(ValueError):
        PauliString.from_ops(2, "Q1")
    with pytest.raises(ValueError):
        PauliString.from_ops(2, "X3")
    with pytest.raises(ValueError, match="qubit 1"):
        PauliString.from_ops(2, "X1 Z1")
    with pytest.raises(ValueError, match="qubit 1"):
        OperatorSum(2, [("X1 Z1", 1.0)])


_QUBIT_3 = "qubit 3 outside width 2"
_WIDTHS_2_3 = "width mismatch: [2, 3]"
_Z2, _Z3 = OperatorSum(2, [("Z2", 1.0)]), OperatorSum(3, [("Z3", 1.0)])


@pytest.mark.parametrize(
    ("message", "call"),
    [
        (_QUBIT_3, lambda: evolve(init_descriptors(2), hadamard(3))),
        (_QUBIT_3, lambda: evolve_circuit(init_descriptors(2), [hadamard(1), hadamard(3)])),
        (_QUBIT_3, lambda: apply_gate(new_all_zeros(2), hadamard(3))),
        (_QUBIT_3, lambda: apply_circuit(new_all_zeros(2), [hadamard(1), hadamard(3)])),
        (_QUBIT_3, lambda: compare_pictures([hadamard(1), hadamard(3)], 2)),
        (_QUBIT_3, lambda: init_descriptors(2).z(3)),
        (_QUBIT_3, lambda: joint_probability(new_all_zeros(2), {3: 1})),
        (_WIDTHS_2_3, lambda: expectation(new_all_zeros(2), _Z3)),
        (_WIDTHS_2_3, lambda: pair_matrix_in_all_zeros([[_Z2, _Z3]])),
        (_WIDTHS_2_3, lambda: _Z2 * _Z3),
    ],
    ids=[
        "evolve", "evolve_circuit", "apply_gate", "apply_circuit", "compare_pictures",
        "DescriptorSet.z", "joint_probability", "expectation", "pair_matrix_in_all_zeros", "product",
    ],
)
def test_both_pictures_reject_each_mistake_by_one_rule(message, call):
    """The qubit range (``pauli._check_qubit``) and width agreement
    (``pauli._common_width``) are each one rule, so the descriptor and the
    statevector side word a mistake alike."""
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


@given(st.data())
def test_key_layout_round_trips(data):
    """Keys of up to 2 * MAX_WIDTH bits decode to the per-qubit packer's
    axes, and a string's tokens parse back to the same key."""
    width = data.draw(st.integers(1, MAX_WIDTH))
    axes = tuple(data.draw(st.lists(st.integers(0, 3), min_size=width, max_size=width)))
    s = PauliString(width, packed_key(axes), data.draw(st.integers(0, 3)))
    assert s.axes == axes
    sign, tokens = re.fullmatch(r"([+-]i?)(.*)", str(s)).groups()
    parsed = PauliString.from_ops(width, "" if tokens == "I" else tokens, ("+", "+i", "-", "-i").index(sign))
    assert parsed == s
    for key in (-1, 4**width):
        with pytest.raises(ValueError, match="key"):
            PauliString(width, key)


def test_string_phase_and_hermiticity():
    s = PauliString.from_ops(2, "X1", phase_power=2)
    assert s.phase == -1
    pauli._check_hermitian([OperatorSum(2, [(s, 1.0)])])
    with pytest.raises(ValueError, match="Hermitian"):
        pauli._check_hermitian([OperatorSum(2, [(PauliString.from_ops(2, "X1", phase_power=1), 1.0)])])
    assert PauliString(2, 1, np.int64(-1)).phase_power == 3
    for power in (1.5, 1.0):
        with pytest.raises(TypeError):
            PauliString(2, 1, power)


@st.composite
def hermitian_pairs(draw, batched):
    """Two Hermitian sums of width 1-6 (real coefficients on phase-free
    strings); each side is batched over a shared batch size or not, as
    ``batched`` says.  Narrow widths make strings sharing an x mask, and
    so cancelling images, common."""
    width = draw(st.integers(1, 6))
    batch = draw(st.integers(1, 3))
    reals = st.floats(-2, 2, allow_nan=False)
    pair = []
    for side_batched in batched:
        terms = []
        for _ in range(draw(st.integers(0, 8))):
            key = draw(_keys(width))
            coeff = np.array([draw(reals) for _ in range(batch)]) if side_batched else draw(reals)
            terms.append((PauliString(width, key), coeff))
        pair.append(OperatorSum(width, terms))
    return pair


class TestPairExpectationInAllZeros:
    """<0|a b|0>, the read kernel's one-group case, against the product
    route."""

    @pytest.mark.parametrize("batched", [(True, True), (True, False), (False, True), (False, False)])
    @given(data=st.data())
    def test_matches_product_route(self, batched, data):
        a, b = data.draw(hermitian_pairs(batched))
        got = _pair(a, b)
        want = _single(a * b)
        assert np.ndim(got) == (1 if a.batch or b.batch else 0)
        assert np.all(np.abs(got - want) <= 1e-12)

    @given(operator_sums(count=2, max_width=4, max_terms=6))
    def test_matches_dense_reference_state(self, sums):
        a, b = sums
        zeros = _reference_state(a.width)
        dense = zeros @ operator_matrix(a) @ operator_matrix(b) @ zeros
        assert abs(_pair(a, b) - dense) <= 1e-12

    def test_images_cancelling_in_one_x_group(self):
        # (I + Z1)|0> = |0> - |0> = 0, whatever the other factor
        a = OperatorSum(2, [(PauliString.identity(2), 1.0), ("Z1", 1.0)])
        b = OperatorSum(2, [("Z2", 0.5), ("Z1 Z2", 2.0), ("X1", 1.0)])
        assert _single(a * b) == 0
        assert _pair(a, b) == 0
        assert _pair(b, a) == 0

    def test_disjoint_x_masks_give_exact_zero(self):
        a = OperatorSum(2, [("X1", 1.0), ("Y1 Z2", 0.3)])
        b = OperatorSum(2, [("X2", np.array([1.0, -2.0])), ("Z1", np.array([0.5, 0.5]))])
        assert _pair(a, a.column(0)) != 0
        assert np.array_equal(_pair(a, b), np.zeros(2))
        assert np.array_equal(_pair(b, a), np.zeros(2))

    def test_zero_operator(self):
        zero = OperatorSum.zero(3)
        b = OperatorSum(3, [("Z1", 1.0), ("X2 Y3", np.array([1.0, 2.0, 3.0]))])
        assert _pair(zero, zero) == 0
        assert _pair(zero, OperatorSum.identity(3)) == 0
        assert np.array_equal(_pair(b, zero), np.zeros(3))

    def test_non_commuting_factors_give_the_complex_value(self):
        # <0|X Y|0> = <0|i Z|0> = -i
        x = OperatorSum(1, [("X1", 1.0)])
        y = OperatorSum(1, [("Y1", 1.0)])
        assert _pair(x, y) == -1j
        assert _pair(y, x) == 1j

    def test_width_and_batch_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            _pair(OperatorSum.identity(2), OperatorSum.identity(3))
        a = OperatorSum(1, [("Z1", np.array([1.0, 2.0]))])
        b = OperatorSum(1, [("Z1", np.array([1.0, 2.0, 3.0]))])
        with pytest.raises(ValueError, match="batch"):
            _pair(a, b)


class TestPairMatrixInAllZeros:
    """Every <0|a|0> and <0|a b|0> of groups of sums from one pass, against
    the one-sum and one-pair groups, the product route and dense matrices."""

    @given(operator_sums(count=4, max_width=4, max_terms=6))
    def test_entries_match_the_pair_read(self, sums):
        # Arbitrary sums, zero ones included: neither Hermitian nor commuting.
        singles, pairs = pair_matrix_in_all_zeros([sums])
        assert singles.shape == (1, 4) and pairs.shape == (1, 4, 4)
        for i, a in enumerate(sums):
            assert abs(singles[0, i] - _single(a)) <= 1e-12
            for j, b in enumerate(sums):
                assert abs(pairs[0, i, j] - _pair(a, b)) <= 1e-12
                assert abs(pairs[0, i, j] - _single(a * b)) <= 1e-12

    @given(operator_sums(count=6, max_width=4, max_terms=6), st.sampled_from([1, 2, 3, 6]))
    # One-term sums: every coefficient array is (1, 1).
    @example([OperatorSum(1, [(f"{axis}1", 0.1 * k + 0.3j)]) for k, axis in enumerate("ZYZXZY")], 1)
    @example([OperatorSum(1, [(f"{axis}1", 0.1 * k + 0.3j)]) for k, axis in enumerate("ZYZXZY")], 3)
    def test_each_group_reads_as_it_does_alone(self, sums, size):
        """Each group gets the union of its own x masks, so it reads as a call
        on it alone does: the singles bit for bit, and the pairs up to the
        rounding of a matmul over a group's zero-padded columns."""
        groups = [sums[start : start + size] for start in range(0, len(sums), size)]
        singles, pairs = pair_matrix_in_all_zeros(groups)
        assert pairs.shape == (len(groups), size, size)
        for g, group in enumerate(groups):
            alone = pair_matrix_in_all_zeros([group])
            np.testing.assert_array_equal(singles[g], alone[0][0])
            np.testing.assert_allclose(pairs[g], alone[1][0], rtol=0, atol=1e-12)

    def test_one_sum(self):
        x = OperatorSum(1, [("X1", 1.0), ("Z1", 0.5j)])
        singles, pairs = pair_matrix_in_all_zeros([[x]])
        np.testing.assert_array_equal(pairs, [[[_pair(x, x)]]])
        np.testing.assert_array_equal(singles, [[-0.5j]])

    def test_empty_sums_read_zero(self):
        singles, pairs = pair_matrix_in_all_zeros([[OperatorSum.zero(2)] * 2] * 3)
        assert singles.shape == (3, 2) and pairs.shape == (3, 2, 2)
        assert not singles.any() and not pairs.any()
        empty = pauli.linear_combination(2, [(np.ones(4), OperatorSum.zero(2))])
        singles, pairs = pair_matrix_in_all_zeros([[empty, OperatorSum.identity(2)]])
        assert singles.shape == (1, 2, 4) and pairs.shape == (1, 2, 2, 4)
        assert singles[0, 1].tolist() == [1] * 4 and not singles[0, 0].any() and not pairs[0, 0].any()

    def test_width_mismatch_and_batch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            pair_matrix_in_all_zeros([[OperatorSum.identity(2), OperatorSum.identity(3)]])
        with pytest.raises(ValueError, match="width"):
            pair_matrix_in_all_zeros([[OperatorSum.identity(2)], [OperatorSum.identity(3)]])
        two = OperatorSum(1, [("Z1", np.array([1.0, 2.0]))])
        three = OperatorSum(1, [("Z1", np.array([1.0, 2.0, 3.0]))])
        with pytest.raises(ValueError, match="batch size mismatch"):
            pair_matrix_in_all_zeros([[two, three]])
        with pytest.raises(ValueError, match="batch size mismatch"):
            pair_matrix_in_all_zeros([[two], [three]])

    def test_group_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="group size"):
            pair_matrix_in_all_zeros([[OperatorSum.identity(1)] * 2, [OperatorSum.identity(1)]])


@st.composite
def mixed_groups(draw):
    """1-3 equal-size groups of 1-4 sums of width 1-4, each sum batched over
    a shared 1-4 columns or not, at least one of them batched, and each with
    0-5 terms."""
    width, columns = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    size, count = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    values = st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)
    batched = [draw(st.booleans()) for _ in range(size * count)]
    batched[draw(st.integers(0, size * count - 1))] = True
    sums = []
    for column_count in (columns if b else None for b in batched):
        terms = [
            (PauliString(width, draw(_keys(width))), np.array([draw(values) for _ in range(column_count or 1)]))
            for _ in range(draw(st.integers(0, 5)))
        ]
        keys = np.array([string.key for string, _ in terms], dtype=np.int64)
        coeffs = np.array([c for _, c in terms], dtype=complex).reshape(len(terms), column_count or 1)
        sums.append(OperatorSum._raw(width, *pauli._merge(keys, coeffs), column_count))
    return [sums[g * size : (g + 1) * size] for g in range(count)]


@given(mixed_groups())
# A batch of one beside an unbatched sum, each one term: (1, 1) coefficients.
@example([[OperatorSum(1, [("Z1", np.array([0.3 - 0.7j]))]), OperatorSum(1, [("Y1", 0.2 + 0.1j)])]])
@example([[OperatorSum(1, [("Z1", np.array([0.6 + 0.1j]))])]])
def test_each_column_reads_as_that_column_alone_bit_for_bit(groups):
    """A group read of batched and unbatched sums gives, in column j, the
    bits of the same read on each sum's column j over the same strings (an
    unbatched sum standing for every column), and every value is within
    1e-12 of the dense expectation."""
    singles, pairs = pair_matrix_in_all_zeros(groups)
    columns = next(op.batch for group in groups for op in group if op.batch)
    width = groups[0][0].width
    assert singles.shape == (len(groups), len(groups[0]), columns)
    assert pairs.shape == (len(groups), len(groups[0]), len(groups[0]), columns)
    zeros = _reference_state(width)
    for j in range(columns):
        alone = [
            [OperatorSum._raw(width, op._keys, op._coeffs[:, j : j + 1] if op.batch else op._coeffs, None)
             for op in group]
            for group in groups
        ]
        one_singles, one_pairs = pair_matrix_in_all_zeros(alone)
        assert _bits(singles[..., j]).tolist() == _bits(one_singles).tolist()
        assert _bits(pairs[..., j]).tolist() == _bits(one_pairs).tolist()
        for g, group in enumerate(alone):
            kets = [operator_matrix(op) @ zeros for op in group]
            bras = [zeros @ operator_matrix(op) for op in group]
            np.testing.assert_allclose(singles[g, :, j], [zeros @ ket for ket in kets], rtol=0, atol=1e-12)
            dense = [[bra @ ket for ket in kets] for bra in bras]
            np.testing.assert_allclose(pairs[g, :, :, j], dense, rtol=0, atol=1e-12)


@st.composite
def dense_route_pairs(draw, batched):
    """Two non-zero sums of width 1-6 over distinct strings, each batched over
    a shared batch size or not, as ``batched`` says.  Coefficient parts are
    0 or at least 1/8 in magnitude, so no product term lands near
    ``PRUNE_TOL`` by chance."""
    width = draw(st.integers(1, 6))
    batch = draw(st.integers(1, 3))
    part = st.one_of(st.just(0.0), st.floats(0.125, 1.0), st.floats(-1.0, -0.125))
    value = st.builds(complex, part, part)
    pair = []
    for side_batched in batched:
        keys = draw(st.lists(_keys(width), min_size=1, max_size=min(4**width, 24), unique=True))
        terms = [
            (PauliString(width, key), np.array([draw(value) for _ in range(batch)]) if side_batched else draw(value))
            for key in keys
        ]
        pair.append(OperatorSum(width, terms))
    assume(not any(op.is_zero for op in pair))
    return pair


@pytest.fixture
def dense_calls(monkeypatch):
    """Record the (width, terms, terms) of every dense-route product."""
    calls = []
    real = pauli._dense_product

    def spy(a, b):
        calls.append((a.width, len(a), len(b)))
        return real(a, b)

    monkeypatch.setattr(pauli, "_dense_product", spy)
    return calls


class TestDenseRoute:
    """Products formed as 2**n x 2**n matrix products, against the pair route."""

    @pytest.mark.parametrize("batched", [(False, False), (True, False), (False, True), (True, True)])
    @given(data=st.data())
    def test_matches_the_sparse_route(self, batched, data):
        """Against ``a * b`` with the route's pair floor past the pair count,
        which forms the product on the pair route."""
        a, b = data.draw(dense_route_pairs(batched))
        keys, coeffs = pauli._dense_product(a, b)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pauli, "_DENSE_MIN_PAIRS", len(a) * len(b) + 1)
            want = a * b
        assert keys.tolist() == want._keys.tolist()
        scale = float(np.abs(a._coeffs).max() * np.abs(b._coeffs).max())
        assert coeffs.shape == want._coeffs.shape
        assert np.abs(coeffs - want._coeffs).max(initial=0.0) <= 1e-13 * scale

    @given(data=st.data())
    def test_batched_column_is_the_unbatched_product_bit_for_bit(self, data):
        a, b = data.draw(dense_route_pairs((True, False)))
        got = OperatorSum._raw(a.width, *pauli._dense_product(a, b), a.batch)
        for j in range(a.batch):
            want = OperatorSum._raw(a.width, *pauli._dense_product(a.column(j), b), None)
            assert got.column(j).equal_terms(want)

    @pytest.mark.parametrize("batched", [False, True])
    @given(data=st.data())
    def test_transform_pair_round_trips(self, batched, data):
        """``_to_matrices`` gives the dense oracle's matrix of each column,
        and ``_from_matrices`` gives the coefficients back."""
        width = data.draw(st.integers(1, 4))
        batch = data.draw(st.integers(1, 3)) if batched else 1
        values = st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)
        keys = data.draw(st.lists(_keys(width), min_size=1, max_size=12, unique=True))
        coeffs = [np.array([data.draw(values) for _ in range(batch)]) for _ in keys]
        op = OperatorSum(width, [(PauliString(width, k), c if batched else c[0]) for k, c in zip(keys, coeffs)])
        matrices = pauli._to_matrices(op)
        assert matrices.shape == (batch, 2**width, 2**width)
        for j, matrix in enumerate(matrices):
            np.testing.assert_allclose(matrix, operator_matrix(op.column(j)), rtol=0, atol=1e-12)
        full = np.zeros((4**width, batch), complex)
        full[op._keys] = op._coeffs
        np.testing.assert_allclose(pauli._from_matrices(width, matrices), full, rtol=0, atol=1e-12)

    def test_prune_boundary(self):
        # Terms at 2e-14 and 5e-15 on either side of PRUNE_TOL = 1e-14.
        a = OperatorSum(3, [("X1", 2.0), ("Z2", 0.5)])
        b = OperatorSum(3, [(PauliString.identity(3), 1e-14)])
        keys, coeffs = pauli._dense_product(a, b)
        assert keys.tolist() == [PauliString.from_ops(3, "X1").key]
        assert coeffs[:, 0] == pytest.approx([2e-14], rel=1e-12)

    def test_route_guard(self, dense_calls, capsys):
        """The CLI's small-width products stay on the pair route, so their
        outputs keep every bit; a width-6 brickwork takes the dense route."""
        for check in ALL_CHECKS:
            assert check().passed, check.__name__
        assert cli.main(["epr", "0.3", "1.1", "--format", "json", "--show-descriptors"]) == 0
        assert cli.main(["sweep", "64"]) == 0
        capsys.readouterr()
        assert dense_calls == []
        evolve_circuit(init_descriptors(6), brickwork(6, 7, seed=1))
        assert dense_calls and all(width == 6 for width, _, _ in dense_calls)

    def test_cost_rule(self):
        assert not pauli._takes_dense_route(2, 256, 1)  # below the pair floor
        assert not pauli._takes_dense_route(6, 4096, 1)  # 8**6 / 64 pairs
        assert pauli._takes_dense_route(6, 4097, 1)
        assert pauli._takes_dense_route(8, 8**8, 4)
        assert not pauli._takes_dense_route(8, 8**8, 5)  # columns * 4**n over the cap
        assert not pauli._takes_dense_route(9, 8**9, 1)  # over the width cap

    def test_caps_fall_back_to_the_sparse_route(self, dense_calls, monkeypatch):
        # Integer coefficients keep both routes exact.
        a = OperatorSum(4, [(PauliString(4, key), 1.0 + key) for key in range(64)])
        batched = pauli.linear_combination(4, [(np.array([1.0, 2.0, 3.0]), a)])
        with monkeypatch.context() as mp:
            mp.setattr(pauli, "_DENSE_MIN_PAIRS", len(a) ** 2 + 1)
            want = a * a
        assert (a * a).equal_terms(want)
        assert len(dense_calls) == 1
        monkeypatch.setattr(pauli, "_DENSE_MAX_WIDTH", 3)
        assert (a * a).equal_terms(want)
        monkeypatch.setattr(pauli, "_DENSE_MAX_WIDTH", 8)
        monkeypatch.setattr(pauli, "_DENSE_MAX_ENTRIES", 2 * 4**4)
        assert (batched * a).column(2).equal_terms(3.0 * want)
        assert len(dense_calls) == 1

    def test_refuses_past_its_caps(self, monkeypatch):
        a = OperatorSum(4, [("X1 Z4", 1.0)])
        batched = pauli.linear_combination(4, [(np.array([1.0, 2.0, 3.0]), a)])
        monkeypatch.setattr(pauli, "_DENSE_MAX_WIDTH", 3)
        with pytest.raises(ValueError, match="caps"):
            pauli._dense_product(a, a)
        monkeypatch.setattr(pauli, "_DENSE_MAX_WIDTH", 8)
        monkeypatch.setattr(pauli, "_DENSE_MAX_ENTRIES", 2 * 4**4)
        with pytest.raises(ValueError, match="caps"):
            pauli._dense_product(batched, a)
        keys, coeffs = pauli._dense_product(a, a)
        assert keys.tolist() == [0] and coeffs.tolist() == [[1.0]]


def _random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_times_keeps_its_left_operand_against_a_large_temporary():
    """numpy runs ``x * y`` with a temporary ``y`` of 256 KiB or more in
    place as ``y * x``; ``_times`` gives the product of the two arrays held
    in named variables, whatever its right operand is."""
    rng = np.random.default_rng(3)
    a, b = (_random_complex(rng, (1 << 14, 2)) for _ in range(2))
    assert b.nbytes >= 256 * 1024
    named = np.multiply(a, b)
    assert _bits(pauli._times(a, b + 0.0)).tolist() == _bits(named).tolist()
    assert _bits(pauli._times(a, b[::-1][::-1])).tolist() == _bits(named).tolist()


def test_times_reads_a_row_as_one_row():
    """A 1-D row times a ``(terms, columns)`` array gives, in each column,
    the bits of that column's number times that column: numpy rounds a 1-D
    one-element operand broadcast against a 2-D one without FMA."""
    rng = np.random.default_rng(4)
    for terms, columns in [(1, 1)] * 32 + [(1, 3), (5, 1), (5, 3)]:
        row, part = _random_complex(rng, columns), _random_complex(rng, (terms, columns))
        got = pauli._times(row, part)
        assert got.shape == (terms, columns)
        for j in range(columns):
            assert _bits(got[:, j]).tolist() == _bits(complex(row[j]) * part[:, j]).tolist()
        number = complex(row[0])
        assert _bits(pauli._times(number, part)).tolist() == _bits(number * part).tolist()


def test_a_batch_of_one_combination_is_the_unbatched_one_bit_for_bit():
    """A one-term part scaled by a complex coefficient gives the same bits
    as a batch of one as unbatched: the product whose FMA split the 1-D row
    would change, and one that a step's real image coefficients (``(c + 0i)
    * p`` rounds alike either way) never exercise."""
    rng = np.random.default_rng(5)
    for _ in range(200):
        coeff, value = _random_complex(rng, 2)
        part = OperatorSum._raw(2, np.array([7]), np.array([[value]]), None)
        want = pauli.linear_combination(2, [(complex(coeff), part)])
        got = pauli.linear_combination(2, [(np.array([coeff]), part)])
        assert got.batch == 1 and got._keys.tolist() == want._keys.tolist() == [7]
        assert _bits(got._coeffs).tolist() == _bits(want._coeffs).tolist()


# Products in ``pauli`` and ``heisenberg`` that are not coefficient products:
# by an integer or sequence literal, by an exact phase i**k, and these
# integer and index products.
_EXACT_FACTOR = re.compile(r"\b(_I_POWERS|phases|unphases|string\.phase)\b")
_INTEGER_PRODUCTS = {
    "columns * 4 ** width",
    "pairs * _DENSE_PAIR_DIVISOR",
    "cz * n",
    "c[None, :] * n",
    "flipped * n",
    "n * n",
    "len(a._keys) * len(b._keys)",
    "count * columns",
    "len(b) * columns",
    "rows_a * rows_b",
    "count * n",
    "images * 4 ** k",
    "np.arange(2 ** k)[None, :, None] * 2 ** k",
}


def _coefficient_products(source: str) -> list[str]:
    """Every product in ``source`` outside ``_times`` that is none of the
    allowed ones above: a ``*`` or ``*=``, or a call of ``multiply``."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "_times"
        for node in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("multiply"):
            found.append(ast.unparse(node))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mult):
            sides = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.target, node.value)
            literal = any(
                isinstance(side, (ast.Tuple, ast.List)) or isinstance(side, ast.Constant) and type(side.value) in (int, str)
                for side in sides
            )
            text = ast.unparse(node)
            if not (literal or any(_EXACT_FACTOR.search(ast.unparse(side)) for side in sides) or text in _INTEGER_PRODUCTS):
                found.append(text)
    return found


# The products of ``states``, each audited against the product rule: the
# per-entry kernel's entry (the left operand) by a strided view, never a
# temporary; the expectation's coefficient by one vecdot value; the kron
# build of ``_blas_single``; and the real sign-matrix products of
# ``z_moments``.
_STATES_PRODUCTS = [
    "coeff * np.vecdot(amps, v.reshape(amps.shape))",
    "2.0 * (index >> shifts & 1)",
    "sh.T * rows[..., None, :]",
    "sl.T * cols[..., None, :]",
    "np.multiply(entry, src, out=dst)",
    "entry * psi[slots[b]]",
    "m[:, None, :, None] * np.eye(k)[None, :, None, :]",
]


def test_every_coefficient_product_goes_through_times():
    """Inside ``pauli`` and ``heisenberg`` only ``_times`` multiplies
    coefficient arrays, so the product rule lives in one function, and
    ``states`` makes only its audited products, so a new complex
    ``named * <temporary>`` product there fails.  ``bell`` and
    ``experiment`` multiply only real floats, which commute bit for bit."""
    for module in (pauli, heisenberg):
        assert _coefficient_products(inspect.getsource(module)) == [], module.__name__
    assert _coefficient_products(inspect.getsource(states)) == _STATES_PRODUCTS
    planted = "def f(c, part, values):\n    values *= part\n    return c * part._coeffs + np.multiply(c, values)\n"
    assert _coefficient_products(planted) == ["values *= part", "c * part._coeffs", "np.multiply(c, values)"]
