"""Correlation function and CHSH combinations at t=2."""
import math
from itertools import product

import numpy as np
import pytest

from qpictures import (
    ChshSetting,
    ExperimentConfig,
    TSIRELSON,
    canonical_setting,
    chsh,
    chsh_scan,
    correlation,
    joint_probability,
    simulate,
)
from scan_oracle import loop_scan

CANONICAL_S = 2.0 * math.sqrt(2.0)


def one_correlation(theta, phi):
    return correlation([theta], [phi])[0]


class TestCorrelation:
    def test_equal_angles(self):
        assert one_correlation(0.9, 0.9) == pytest.approx(1.0, abs=1e-10)

    def test_quarter_turn(self):
        assert one_correlation(math.pi / 2, 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_half_turn(self):
        assert one_correlation(math.pi, 0.0) == pytest.approx(-1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_shift_invariance(self, seed):
        rng = np.random.default_rng(500 + seed)
        theta, phi, shift = rng.uniform(-math.pi, math.pi, size=3)
        assert one_correlation(theta + shift, phi + shift) == pytest.approx(
            one_correlation(theta, phi), abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_bounded_by_one(self, seed):
        rng = np.random.default_rng(600 + seed)
        theta, phi = rng.uniform(-2 * math.pi, 2 * math.pi, size=2)
        assert abs(one_correlation(theta, phi)) <= 1.0 + 1e-12

    def test_equals_same_minus_different_probabilities(self):
        theta, phi = 1.2, 0.4
        state = simulate([ExperimentConfig(theta, phi)]).states[2].row(0)
        p_same = joint_probability(state, {2: 1, 3: 1}) + joint_probability(state, {2: 0, 3: 0})
        p_diff = joint_probability(state, {2: 1, 3: 0}) + joint_probability(state, {2: 0, 3: 1})
        assert one_correlation(theta, phi) == pytest.approx(p_same - p_diff, abs=1e-10)


class TestChsh:
    def test_canonical_setting_reaches_quantum_bound(self):
        result = chsh(canonical_setting())
        assert result.s == pytest.approx(CANONICAL_S, abs=1e-9)
        assert result.violates

    def test_degenerate_all_zero_setting(self):
        result = chsh(ChshSetting(0.0, 0.0, 0.0, 0.0))
        assert result.s == pytest.approx(2.0, abs=1e-10)
        assert not result.violates

    def test_negative_branch_setting(self):
        result = chsh(ChshSetting(0.0, 3 * math.pi / 2, 3 * math.pi / 4, math.pi / 4))
        assert result.s == pytest.approx(-CANONICAL_S, abs=1e-9)
        assert abs(result.s) == pytest.approx(CANONICAL_S, abs=1e-9)
        assert result.violates

    @pytest.mark.parametrize("seed", range(4))
    def test_tsirelson_bound_holds(self, seed):
        rng = np.random.default_rng(700 + seed)
        a, ap, b, bp = rng.uniform(0, 2 * math.pi, size=4)
        result = chsh(ChshSetting(a, ap, b, bp))
        assert abs(result.s) <= TSIRELSON + 1e-9

    def test_non_finite_angles_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ChshSetting(math.nan, 0.0, 0.0, 0.0)


class TestChshScan:
    def test_quarter_pi_grid_reaches_quantum_bound(self):
        result = chsh_scan(math.pi / 4)
        assert abs(result.best.s) == pytest.approx(CANONICAL_S, abs=1e-9)
        assert result.best.violates
        assert result.evaluated == 8**4

    def test_half_pi_grid_caps_at_classical_bound(self):
        # enumeration oracle on the closed form cos(a - b)
        angles = [k * math.pi / 2 for k in range(4)]
        oracle = max(
            abs(
                math.cos(a - b)
                - math.cos(a - bp)
                + math.cos(ap - b)
                + math.cos(ap - bp)
            )
            for a, ap, b, bp in product(angles, repeat=4)
        )
        assert oracle == pytest.approx(2.0, abs=1e-12)
        result = chsh_scan(math.pi / 2)
        assert abs(result.best.s) == pytest.approx(2.0, abs=1e-9)
        assert not result.best.violates

    def test_scan_is_deterministic_with_lexicographic_tie_break(self):
        first = chsh_scan(math.pi / 2)
        second = chsh_scan(math.pi / 2)
        assert first.best.setting == second.best.setting
        # no other maximal setting precedes the reported one
        magnitudes = np.abs(first.values).ravel().tolist()
        best_abs = max(magnitudes)
        settings = product(first.angles, repeat=4)
        winners = [setting for setting, m in zip(settings, magnitudes) if m == best_abs]
        assert first.best.setting == ChshSetting(*min(winners))

    @pytest.mark.parametrize("resolution", [math.pi / 2, math.pi / 4, math.pi / 8])
    def test_scan_matches_the_loop_oracle(self, resolution):
        # pi/2 has tied maxima; the first in lexicographic order must win.
        rows, (a, ap, b, bp, s), correlations = loop_scan(resolution)
        result = chsh_scan(resolution)
        assert result.values.ravel().tolist() == [row[4] for row in rows]
        assert result.best.setting == ChshSetting(a, ap, b, bp)
        assert (result.best.s, result.best.correlations) == (s, correlations)
        assert result.evaluated == len(rows)

    def test_scan_rows_stay_below_quantum_bound(self):
        assert np.all(np.abs(chsh_scan(math.pi / 4).values) <= TSIRELSON + 1e-9)

    @pytest.mark.parametrize("resolution", [1.0, -0.5, 0.0])
    def test_bad_resolution_rejected(self, resolution):
        with pytest.raises(ValueError):
            chsh_scan(resolution)
