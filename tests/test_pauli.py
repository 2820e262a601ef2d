"""Pauli-string and operator-sum algebra, checked against dense matrices."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpictures import (
    Axis,
    OperatorSum,
    PauliString,
    expectation_in_all_zeros,
    isclose,
    max_term_deviation,
    multiply_strings,
)
from dense import operator_matrix, string_matrix
from qpictures import pauli
from qpictures.pauli import MAX_WIDTH, pair_expectation_in_all_zeros

# _PHASE_EXP[a, b] = k such that sigma_a sigma_b = i**k sigma_(a XOR b):
# the per-qubit table the packed kernel is checked against.
_PHASE_EXP = (
    (0, 0, 0, 0),
    (0, 0, 1, 3),
    (0, 3, 0, 1),
    (0, 1, 3, 0),
)


def _loop_string_product(a: PauliString, b: PauliString) -> tuple[tuple[int, ...], int]:
    """Axes and phase power of a*b, one qubit at a time."""
    axes = tuple(x ^ y for x, y in zip(a.axes, b.axes))
    power = a.phase_power + b.phase_power + sum(_PHASE_EXP[x][y] for x, y in zip(a.axes, b.axes))
    return axes, power % 4


def _loop_sum_product(a: OperatorSum, b: OperatorSum) -> OperatorSum:
    """Product of two sums over all term pairs, collected in a dict."""
    acc = {}
    for sa, ca in a.iter_terms():
        for sb, cb in b.iter_terms():
            axes, power = _loop_string_product(sa, sb)
            acc[axes] = acc.get(axes, 0) + ca * cb * 1j**power
    return OperatorSum(a.width, [(PauliString(a.width, axes), c) for axes, c in acc.items()])


@st.composite
def string_tuples(draw, count=2, max_width=6):
    width = draw(st.integers(1, max_width))
    strings = tuple(
        PauliString(
            width,
            tuple(draw(st.integers(0, 3)) for _ in range(width)),
            draw(st.integers(0, 3)),
        )
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
            axes = tuple(draw(st.integers(0, 3)) for _ in range(width))
            coeff = complex(
                draw(st.floats(-2, 2, allow_nan=False)),
                draw(st.floats(-2, 2, allow_nan=False)),
            )
            terms.append((PauliString(width, axes), coeff))
        sums.append(OperatorSum(width, terms))
    return sums


class TestMultiplyStrings:
    def test_x_times_y_is_i_z(self):
        x = PauliString.single(1, 1, Axis.X)
        y = PauliString.single(1, 1, Axis.Y)
        out = multiply_strings(x, y)
        assert out.axes == (Axis.Z,)
        assert out.phase == 1j

    def test_identity_is_neutral(self):
        s = PauliString.from_ops(2, "Z1 X2", phase_power=3)
        assert multiply_strings(PauliString.identity(2), s) == s
        assert multiply_strings(s, PauliString.identity(2)) == s

    def test_involution(self):
        s = PauliString.from_ops(2, "Z1 X2")
        out = multiply_strings(s, s)
        assert out == PauliString.identity(2)
        assert out.phase == 1

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            multiply_strings(PauliString.identity(2), PauliString.identity(3))

    @pytest.mark.parametrize("a,b", [(Axis.X, Axis.Y), (Axis.Y, Axis.Z), (Axis.Z, Axis.X)])
    def test_anticommutation(self, a, b):
        sa = PauliString.single(3, 2, a)
        sb = PauliString.single(3, 2, b)
        ab = multiply_strings(sa, sb)
        ba = multiply_strings(sb, sa)
        assert ab.axes == ba.axes
        assert ab.phase == -ba.phase

    @given(string_tuples(count=3))
    def test_closure_and_associativity(self, strings):
        a, b, c = strings
        ab = multiply_strings(a, b)
        assert isinstance(ab, PauliString) and ab.width == a.width
        assert multiply_strings(ab, c) == multiply_strings(a, multiply_strings(b, c))

    @given(string_tuples(count=2, max_width=4))
    def test_dense_homomorphism(self, strings):
        a, b = strings
        got = string_matrix(multiply_strings(a, b))
        want = string_matrix(a) @ string_matrix(b)
        np.testing.assert_allclose(got, want, atol=1e-12)


@st.composite
def wide_sums(draw, count=2, max_terms=6):
    """Sums at MAX_WIDTH, where packed keys use all 40 bits."""
    sums = []
    for _ in range(count):
        terms = []
        for _ in range(draw(st.integers(1, max_terms))):
            axes = tuple(draw(st.integers(0, 3)) for _ in range(MAX_WIDTH))
            coeff = complex(draw(st.floats(0.5, 2)), draw(st.floats(-2, 2)))
            terms.append((PauliString(MAX_WIDTH, axes, draw(st.integers(0, 3))), coeff))
        sums.append(OperatorSum(MAX_WIDTH, terms))
    return sums


class TestWideProduct:
    """The dense oracle stops near width 4; at MAX_WIDTH the packed product
    is checked against the per-qubit loop."""

    @given(string_tuples(count=2, max_width=MAX_WIDTH))
    def test_string_product_matches_loop(self, strings):
        a, b = strings
        out = multiply_strings(a, b)
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
        assert [s for s, _ in got.iter_terms()] == [s for s, _ in want.iter_terms()]
        assert max_term_deviation(got, want) <= 1e-12


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
        string = multiply_strings(
            PauliString.single(2, 1, Axis.X), PauliString.single(2, 1, Axis.Y)
        )
        assert len(prod) == 1
        assert prod.coefficient(PauliString(2, string.axes)) == pytest.approx(6.0 * string.phase)

    def test_near_zero_terms_pruned(self):
        s = OperatorSum(2, [("X1", 1.0)])
        assert (s + (-(1.0 - 1e-15)) * s).is_zero

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
        assert s.coefficient(PauliString(2, (Axis.X, Axis.I))) == pytest.approx(2.0j)
        assert not s.is_hermitian()

    def test_support(self):
        s = OperatorSum(4, [("Y2 X3", 1.0), ("Z2", 1.0)])
        assert s.support() == frozenset({2, 3})
        assert OperatorSum.identity(4).support() == frozenset()

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
        assert isclose(a * (b + c), a * b + a * c, atol=1e-10)

    @given(operator_sums(count=3))
    def test_multiplication_associates(self, sums):
        a, b, c = sums
        assert isclose((a * b) * c, a * (b * c), atol=1e-10)


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
            op.width, [(s, complex(c.real, 0.0)) for s, c in op.iter_terms()]
        )
        assert abs(expectation_in_all_zeros(hermitian).imag) <= 1e-12


def test_max_term_deviation_counts_missing_strings():
    a = OperatorSum(2, [("X1", 1.0), ("Z2", 0.5)])
    b = OperatorSum(2, [("X1", 1.0)])
    assert max_term_deviation(a, b) == pytest.approx(0.5)
    assert not isclose(a, b, atol=1e-3)
    assert isclose(a, b, atol=0.6)


def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString(2, (0, 1, 2))
    with pytest.raises(ValueError):
        PauliString(2, (0, 7))
    with pytest.raises(ValueError):
        PauliString.from_ops(2, "Q1")
    with pytest.raises(ValueError):
        PauliString.from_ops(2, "X3")


def test_string_phase_and_hermiticity():
    s = PauliString.from_ops(2, "X1", phase_power=2)
    assert s.phase == -1
    assert s.is_hermitian
    assert not PauliString.from_ops(2, "X1", phase_power=1).is_hermitian


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
            axes = tuple(draw(st.integers(0, 3)) for _ in range(width))
            coeff = np.array([draw(reals) for _ in range(batch)]) if side_batched else draw(reals)
            terms.append((PauliString(width, axes), coeff))
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
