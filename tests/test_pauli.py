"""Pauli-string and operator-sum algebra, checked against dense matrices."""
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qpictures import (
    Axis,
    OperatorSum,
    PauliString,
    evolve_circuit,
    expectation_in_all_zeros,
    init_descriptors,
    max_term_deviation,
)
from dense import brickwork, operator_matrix, packed_key, string_matrix, terms
from qpictures import cli, pauli
from qpictures.pauli import MAX_WIDTH, pair_expectation_in_all_zeros, pair_matrix_in_all_zeros
from qpictures.verification import ALL_CHECKS

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
        assert s.coefficient("Y1 X2") == pytest.approx(math.sin(theta))
        assert s.coefficient("Z1 X2") == pytest.approx(-math.cos(theta))
        assert s.is_hermitian()

    def test_disjoint_strings_both_kept(self):
        s = OperatorSum(2, [("X1", 1.0)]) + OperatorSum(2, [("Z2", 2.0)])
        assert len(s) == 2
        assert s.coefficient("X1") == 1.0
        assert s.coefficient("Z2") == 2.0

    def test_two_by_two_product_expands_to_four_terms(self):
        theta, phi = 0.7, 0.3
        a = OperatorSum(2, [("Y1 X2", math.sin(theta)), ("Z1 X2", -math.cos(theta))])
        b = OperatorSum(2, [("X2", math.cos(phi)), ("X1 Y2", math.sin(phi))])
        prod = a * b
        assert len(prod) == 4
        # reference-state value of the product is cos(theta - phi)
        value = expectation_in_all_zeros(prod)
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
        assert prod.coefficient(PauliString(2, string.key)) == pytest.approx(6.0 * string.phase)

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
        assert np.isnan(built.coefficient("X1"))
        keys, _ = pauli._prune(np.array([1, 2]), np.array([[0.0, math.nan], [0.0, 1e-15]]))
        assert keys.tolist() == [1]

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
        assert s.coefficient(PauliString.from_ops(2, "X1")) == pytest.approx(2.0j)
        assert not s.is_hermitian()

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
    def test_off_diagonal_axis_gives_zero(self):
        assert expectation_in_all_zeros(OperatorSum(2, [("X2", 1.0)])) == 0

    def test_single_z_gives_minus_one(self):
        # dense oracle: |0> = (0,1)^T, <0|Z|0> = -1
        ket0 = np.array([0.0, 1.0])
        dense = ket0 @ np.diag([1.0, -1.0]) @ ket0
        assert dense == -1.0
        assert expectation_in_all_zeros(OperatorSum(1, [("Z1", 1.0)])) == dense

    def test_two_term_product_value(self):
        theta, phi = 1.1, 0.4
        a = OperatorSum(2, [("Y1 X2", math.sin(theta)), ("Z1 X2", -math.cos(theta))])
        b = OperatorSum(2, [("X2", math.cos(phi)), ("X1 Y2", math.sin(phi))])
        value = expectation_in_all_zeros(a * b)
        assert value == pytest.approx(math.cos(theta - phi), abs=1e-12)

    @given(operator_sums(count=1, max_width=4, max_terms=6))
    def test_matches_dense_reference_state(self, sums):
        (op,) = sums
        zeros = np.zeros(2**op.width, dtype=complex)
        zeros[-1] = 1.0
        dense = zeros.conj() @ operator_matrix(op) @ zeros
        got = expectation_in_all_zeros(op)
        assert abs(got - dense) <= 1e-12

    @given(operator_sums(count=1, max_width=4, max_terms=6))
    def test_hermitian_gives_real(self, sums):
        (op,) = sums
        hermitian = OperatorSum(
            op.width, [(s, complex(c.real, 0.0)) for s, c in terms(op)]
        )
        assert abs(expectation_in_all_zeros(hermitian).imag) <= 1e-12


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
    reads = [expectation_in_all_zeros(a), pair_expectation_in_all_zeros(a, b), pair_expectation_in_all_zeros(b, a)]
    if batched:
        reads = [value[0] for value in reads]
    else:
        assert all(isinstance(value, complex) for value in reads)
    pairs = [[(s.key, c[0] if batched else c) for s, c in terms(op)] for op in sums]
    bits = [([key for key, _ in t], _bits([c for _, c in t]).tolist()) for t in pairs]
    return a, bits, _bits(reads).tolist()


@given(data=st.data())
def test_unbatched_sum_is_the_one_column_case_bit_for_bit(data):
    """An unbatched sum and its batch of one give bitwise-equal results
    through products, sums, scaling and both reference-state reads."""
    width = data.draw(st.integers(1, 4))
    values = st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)
    term = st.tuples(_keys(width), st.integers(0, 3), values)
    # One term at least, or the batch of one has no array to read its batch from.
    terms_a, terms_b = (data.draw(st.lists(term, min_size=1, max_size=8)) for _ in range(2))
    scale = data.draw(values)
    a, sums, reads = _results(width, terms_a, terms_b, scale, batched=False)
    a1, sums1, reads1 = _results(width, terms_a, terms_b, scale, batched=True)
    assert sums == sums1
    assert reads == reads1
    assert (a.batch, a1.batch) == (None, 1)
    assert not a.equal_terms(a1)
    assert a.equal_terms(a1.column(0))


@given(operator_sums(count=2, max_width=4, max_terms=8), st.booleans())
def test_pair_read_matches_the_intersect1d_form_bit_for_bit(sums, batched):
    """The pair read equals the earlier form, which paired the shared x masks
    with np.intersect1d, in every bit."""
    a, b = sums
    if batched:
        a = pauli.linear_combination(a.width, [(np.array([1.0, -0.5j, 2.0]), a)])
    keys_a, _, rows_a = pauli._reference_images([a])
    keys_b, rows_b, _ = pauli._reference_images([b])
    _, at_a, at_b = np.intersect1d(keys_a, keys_b, assume_unique=True, return_indices=True)
    expected = pauli._column_sums(rows_a[at_a] * rows_b[at_b], a.batch)
    assert _bits(pair_expectation_in_all_zeros(a, b)).tolist() == _bits(expected).tolist()


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
    assert OperatorSum(2, [(s, 1.0)]).is_hermitian()
    assert not OperatorSum(2, [(PauliString.from_ops(2, "X1", phase_power=1), 1.0)]).is_hermitian()
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
    """<0|a b|0> from the reference-state images, against the product route."""

    @pytest.mark.parametrize("batched", [(True, True), (True, False), (False, True), (False, False)])
    @given(data=st.data())
    def test_matches_product_route(self, batched, data):
        a, b = data.draw(hermitian_pairs(batched))
        got = pair_expectation_in_all_zeros(a, b)
        want = expectation_in_all_zeros(a * b)
        assert np.ndim(got) == (1 if a.batch or b.batch else 0)
        assert np.all(np.abs(got - want) <= 1e-12)

    @given(operator_sums(count=2, max_width=4, max_terms=6))
    def test_matches_dense_reference_state(self, sums):
        a, b = sums
        zeros = np.zeros(2**a.width, dtype=complex)
        zeros[-1] = 1.0
        dense = zeros @ operator_matrix(a) @ operator_matrix(b) @ zeros
        assert abs(pair_expectation_in_all_zeros(a, b) - dense) <= 1e-12

    def test_images_cancelling_in_one_x_group(self):
        # (I + Z1)|0> = |0> - |0> = 0, whatever the other factor
        a = OperatorSum(2, [(PauliString.identity(2), 1.0), ("Z1", 1.0)])
        b = OperatorSum(2, [("Z2", 0.5), ("Z1 Z2", 2.0), ("X1", 1.0)])
        assert expectation_in_all_zeros(a * b) == 0
        assert pair_expectation_in_all_zeros(a, b) == 0
        assert pair_expectation_in_all_zeros(b, a) == 0

    def test_disjoint_x_masks_give_exact_zero(self):
        a = OperatorSum(2, [("X1", 1.0), ("Y1 Z2", 0.3)])
        b = OperatorSum(2, [("X2", np.array([1.0, -2.0])), ("Z1", np.array([0.5, 0.5]))])
        assert pair_expectation_in_all_zeros(a, a.column(0)) != 0
        assert np.array_equal(pair_expectation_in_all_zeros(a, b), np.zeros(2))
        assert np.array_equal(pair_expectation_in_all_zeros(b, a), np.zeros(2))

    def test_zero_operator(self):
        zero = OperatorSum.zero(3)
        b = OperatorSum(3, [("Z1", 1.0), ("X2 Y3", np.array([1.0, 2.0, 3.0]))])
        assert pair_expectation_in_all_zeros(zero, zero) == 0
        assert pair_expectation_in_all_zeros(zero, OperatorSum.identity(3)) == 0
        assert np.array_equal(pair_expectation_in_all_zeros(b, zero), np.zeros(3))

    def test_non_commuting_factors_give_the_complex_value(self):
        # <0|X Y|0> = <0|i Z|0> = -i
        x = OperatorSum(1, [("X1", 1.0)])
        y = OperatorSum(1, [("Y1", 1.0)])
        assert pair_expectation_in_all_zeros(x, y) == -1j
        assert pair_expectation_in_all_zeros(y, x) == 1j

    def test_width_and_batch_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            pair_expectation_in_all_zeros(OperatorSum.identity(2), OperatorSum.identity(3))
        a = OperatorSum(1, [("Z1", np.array([1.0, 2.0]))])
        b = OperatorSum(1, [("Z1", np.array([1.0, 2.0, 3.0]))])
        with pytest.raises(ValueError, match="batch"):
            pair_expectation_in_all_zeros(a, b)


class TestPairMatrixInAllZeros:
    """Every <0|a|0> and <0|a b|0> of groups of sums from one pass, against
    the single and the pair read."""

    @given(operator_sums(count=4, max_width=4, max_terms=6))
    def test_entries_match_the_pair_read(self, sums):
        # Arbitrary sums, zero ones included: neither Hermitian nor commuting.
        singles, pairs = pair_matrix_in_all_zeros([sums])
        assert singles.shape == (1, 4) and pairs.shape == (1, 4, 4)
        for i, a in enumerate(sums):
            assert abs(singles[0, i] - expectation_in_all_zeros(a)) <= 1e-12
            for j, b in enumerate(sums):
                assert abs(pairs[0, i, j] - pair_expectation_in_all_zeros(a, b)) <= 1e-12

    @given(operator_sums(count=6, max_width=4, max_terms=6), st.sampled_from([1, 2, 3, 6]))
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
        np.testing.assert_array_equal(pairs, [[[pair_expectation_in_all_zeros(x, x)]]])
        np.testing.assert_array_equal(singles, [[-0.5j]])

    def test_empty_sums_read_zero(self):
        singles, pairs = pair_matrix_in_all_zeros([[OperatorSum.zero(2)] * 2] * 3)
        assert singles.shape == (3, 2) and pairs.shape == (3, 2, 2)
        assert not singles.any() and not pairs.any()

    def test_width_mismatch_and_batch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            pair_matrix_in_all_zeros([[OperatorSum.identity(2), OperatorSum.identity(3)]])
        with pytest.raises(ValueError, match="width"):
            pair_matrix_in_all_zeros([[OperatorSum.identity(2)], [OperatorSum.identity(3)]])
        batched = OperatorSum(1, [("Z1", np.array([1.0, 2.0]))])
        with pytest.raises(ValueError, match="unbatched"):
            pair_matrix_in_all_zeros([[OperatorSum.identity(1), batched]])

    def test_group_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="group size"):
            pair_matrix_in_all_zeros([[OperatorSum.identity(1)] * 2, [OperatorSum.identity(1)]])


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
