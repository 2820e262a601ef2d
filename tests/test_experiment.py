"""Timeline construction and every reported quantity of the experiment."""
import math

import numpy as np
import pytest

from qpictures import (
    ExperimentConfig,
    OperatorSum,
    build_timeline,
    closed_form_descriptors_t2,
    default_difference_grid,
    default_grid_configs,
    descriptors_at_t2,
    joint_prob_both_one_at_t2,
    joint_probability,
    linear_terms_t2,
    max_term_deviation,
    prob_outcomes_differ_at_t4,
    record_marginal_t3,
    reports,
    sign_error_audit,
    simulate,
)
from qpictures import gates, heisenberg
from qpictures.experiment import RECORD_A, RECORD_B, BothPictures, correlation_t2

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def one(quantity, cfg):
    """A quantity of one angle pair, simulated as a batch of one: each of
    its arrays holds one value."""
    return quantity(simulate([cfg]))


def descriptors_t2(cfg):
    return tuple(op.column(0) for op in descriptors_at_t2(simulate([cfg])))


def report_of(cfg):
    """The report of one angle pair: each column's single value."""
    return {name: float(column[0]) for name, column in reports(simulate([cfg])).items()}


class TestTimeline:
    def test_step_structure(self):
        timeline = build_timeline([ExperimentConfig(0.3, 1.0)])
        names = [[g.name for g in segment] for segment in timeline]
        assert names == [["H", "CN"], ["R", "R"], ["CN", "CN"], ["CN"]]
        # three record/comparison CNOTs across t=3 and t=4
        assert sum(n == "CN" for segment in names[2:] for n in segment) == 3

    def test_entangled_pair_after_step_one(self):
        state = simulate([ExperimentConfig(0.7, 0.3)]).states[1].row(0)
        # ancillas still |0>; the pair carries (|1,1> - |0,0>)/sqrt(2)
        amps = state.amplitudes
        assert amps[0b1001] == pytest.approx(INV_SQRT2)
        assert amps[0b1111] == pytest.approx(-INV_SQRT2)
        assert np.abs(np.delete(amps, [0b1001, 0b1111])).max() == pytest.approx(0.0)
        assert joint_probability(state, {2: 1, 3: 1}) == pytest.approx(0.5)
        assert joint_probability(state, {2: 1, 3: 0}) == pytest.approx(0.0)

    def test_runs_share_the_entangler_prefix(self):
        first = simulate([ExperimentConfig(0.3, 1.1)])
        second = simulate([ExperimentConfig(2.0, -0.5)] * 3)
        assert first.states[1] is second.states[1]
        assert first.descriptors[1] is second.descriptors[1]

    def test_patched_hadamard_reaches_the_next_run(self, monkeypatch):
        # The shared prefix is keyed by the gates' matrix bytes, so a run
        # after the patch evolves its own.
        cfg = [ExperimentConfig(0.3, 1.1)]
        before = simulate(cfg)
        monkeypatch.setattr(gates, "H_MATRIX", np.array([[1, 1], [-1, 1]], dtype=complex) / math.sqrt(2))
        after = simulate(cfg)
        assert not np.array_equal(after.states[1].amplitudes, before.states[1].amplitudes)
        old = before.descriptors[1]
        assert any(not op.equal_terms(old.descriptor(*key)) for key, op in after.descriptors[1].items())

    def test_zero_angles_make_rotations_exact_identities(self):
        run = simulate([ExperimentConfig(0.0, 0.0)])
        before = run.states[1]
        after = run.states[2]
        np.testing.assert_array_equal(before.row(0).amplitudes, after.row(0).amplitudes)

    def test_empty_angle_list_rejected(self):
        with pytest.raises(ValueError, match="empty angle list"):
            build_timeline([])

    def test_config_requires_finite_angles(self):
        with pytest.raises(ValueError, match="finite"):
            ExperimentConfig(math.nan, 0.0)
        with pytest.raises(ValueError, match="finite"):
            ExperimentConfig(0.0, math.inf)


class TestDescriptorsAtT2:
    @pytest.mark.parametrize(
        "theta,phi",
        [(0.0, 0.0), (math.pi / 2, 0.0), (0.3, 1.0), (2.0, 5.1), (math.pi, math.pi / 3)],
    )
    def test_match_closed_forms_term_for_term(self, theta, phi):
        run = simulate([ExperimentConfig(theta, phi)])
        got2, got3 = descriptors_at_t2(run)
        want2, want3 = closed_form_descriptors_t2(run)
        assert max_term_deviation(got2, want2) <= 1e-12
        assert max_term_deviation(got3, want3) <= 1e-12

    def test_generic_angles_give_two_terms_each(self):
        qz2, qz3 = descriptors_t2(ExperimentConfig(0.3, 1.0))
        assert len(qz2) == 2
        assert len(qz3) == 2

    def test_theta_zero_descriptor(self):
        qz2, _ = descriptors_t2(ExperimentConfig(0.0, 0.5))
        assert len(qz2) == 1
        assert max_term_deviation(qz2, OperatorSum(4, [("Z2 X3", -1.0)])) <= 1e-12

    def test_phi_zero_descriptor(self):
        _, qz3 = descriptors_t2(ExperimentConfig(0.5, 0.0))
        assert len(qz3) == 1
        assert max_term_deviation(qz3, OperatorSum(4, [("X3", 1.0)])) <= 1e-12

    def test_theta_half_pi_descriptor(self):
        qz2, _ = descriptors_t2(ExperimentConfig(math.pi / 2, 0.0))
        assert len(qz2) == 1
        assert max_term_deviation(qz2, OperatorSum(4, [("Y2 X3", 1.0)])) <= 1e-12


class TestBothPictures:
    def test_worst_is_the_largest_split(self):
        both = BothPictures(np.array([1.0, 0.0]), np.array([1.0, 0.25]), np.array([1.0, 0.5]))
        assert both.worst == 0.5
        with pytest.raises(AssertionError, match="heisenberg=0.25"):
            both.require_agreement()

    @pytest.mark.parametrize("field", ["closed", "heisenberg", "schrodinger"])
    def test_nan_fails_agreement(self, field):
        values = dict.fromkeys(("closed", "heisenberg", "schrodinger"), np.array([0.5, 0.5]))
        values[field] = np.array([0.5, math.nan])
        both = BothPictures(**values)
        with pytest.raises(AssertionError, match=f"{field}=nan"):
            both.require_agreement()
        assert math.isnan(both.worst)


class TestJointProbability:
    def test_equal_angles_give_half(self):
        result = one(joint_prob_both_one_at_t2, ExperimentConfig(0.8, 0.8))
        assert result.heisenberg == pytest.approx(0.5, abs=1e-10)
        assert result.schrodinger == pytest.approx(0.5, abs=1e-10)

    def test_opposite_angles_give_zero(self):
        result = one(joint_prob_both_one_at_t2, ExperimentConfig(math.pi, 0.0))
        assert result.schrodinger == pytest.approx(0.0, abs=1e-10)

    def test_quarter_turn(self):
        result = one(joint_prob_both_one_at_t2, ExperimentConfig(math.pi / 2, 0.0))
        assert result.schrodinger == pytest.approx(0.25, abs=1e-10)
        assert result.heisenberg == pytest.approx(0.25, abs=1e-10)


class TestOutcomesDiffer:
    def test_equal_angles_always_agree(self):
        result = one(prob_outcomes_differ_at_t4, ExperimentConfig(1.3, 1.3))
        assert result.schrodinger == pytest.approx(0.0, abs=1e-10)

    def test_opposite_angles_always_differ(self):
        result = one(prob_outcomes_differ_at_t4, ExperimentConfig(math.pi, 0.0))
        assert result.schrodinger == pytest.approx(1.0, abs=1e-10)

    def test_third_of_pi(self):
        # sin^2(pi/6) = 1/4
        result = one(prob_outcomes_differ_at_t4, ExperimentConfig(math.pi / 3, 0.0))
        assert result.schrodinger == pytest.approx(0.25, abs=1e-10)
        assert result.heisenberg == pytest.approx(0.25, abs=1e-10)


    def test_route_split_check_is_live(self, monkeypatch):
        # The record-pair read at t=3 and the direct t=4 descriptor are
        # independent routes, so a sign error in the group read's record-pair
        # entries, and only there, must trip the cross-check.
        group_read = heisenberg.pair_matrix_in_all_zeros

        def flipped(groups):
            singles, pairs = group_read(groups)
            pairs = pairs.copy()
            for q, r in ((RECORD_A, RECORD_B), (RECORD_B, RECORD_A)):
                pairs[:, q - 1, r - 1] *= -1
            return singles, pairs

        monkeypatch.setattr(heisenberg, "pair_matrix_in_all_zeros", flipped)
        with pytest.raises(AssertionError, match="routes split"):
            reports(simulate([ExperimentConfig(0.7, 0.3)]))


class TestSignErrorAudit:
    def test_discriminating_points(self):
        audit = sign_error_audit(default_grid_configs())
        third = next(j for j, c in enumerate(audit.configs) if abs(c.theta - math.pi / 3) < 1e-12 and c.phi == 0.0)
        assert audit.p_diff[third] == pytest.approx(0.25, abs=1e-10)
        assert audit.deviations["sin2_half_diff"][third] == pytest.approx(0.0, abs=1e-10)
        assert audit.deviations["cos2_half_diff"][third] == pytest.approx(0.5, abs=1e-10)
        equal = next(j for j, c in enumerate(audit.configs) if c.theta == c.phi == math.pi / 4)
        assert audit.p_diff[equal] == pytest.approx(0.0, abs=1e-10)
        assert audit.deviations["sin2_half_sum"][equal] == pytest.approx(0.5, abs=1e-10)

    def test_only_difference_form_matches(self):
        audit = sign_error_audit(default_grid_configs())
        assert audit.matching == ("sin2_half_diff",)

    def test_degenerate_grid_rejected(self):
        # at (pi/2, 0) all three candidates equal 1/2
        with pytest.raises(ValueError, match="degenerate"):
            sign_error_audit([ExperimentConfig(math.pi / 2, 0.0)])

    def test_partially_degenerate_grid_rejected(self):
        # (0, 0) separates the cos form but not the sum form
        with pytest.raises(ValueError, match="sin2_half_diff/sin2_half_sum"):
            sign_error_audit([ExperimentConfig(0.0, 0.0)])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sign_error_audit([])


class TestNoSignaling:
    def test_record_marginal_constant_in_distant_angle(self):
        run = simulate(ExperimentConfig(0.7, phi) for phi in default_difference_grid())
        values = record_marginal_t3(run).schrodinger
        assert max(values) - min(values) <= 1e-10
        assert values[0] == pytest.approx(0.5, abs=1e-10)


class TestPreVsPostReport:
    def test_equal_angles(self):
        report = report_of(ExperimentConfig(0.3, 0.3))
        assert report["p_joint_t2"] == pytest.approx(0.5, abs=1e-10)
        assert report["p_diff_t4"] == pytest.approx(0.0, abs=1e-10)

    def test_opposite_angles(self):
        report = report_of(ExperimentConfig(0.0, math.pi))
        assert report["p_joint_t2"] == pytest.approx(0.0, abs=1e-10)
        assert report["p_diff_t4"] == pytest.approx(1.0, abs=1e-10)

    def test_small_sweep_values(self):
        # (1 + cos d)/4 at d = 0, pi/4, pi/2
        expected = [0.5, 0.4267766952966369, 0.25]
        run = simulate(ExperimentConfig(d, 0.0) for d in (0.0, math.pi / 4, math.pi / 2))
        got = reports(run)["p_joint_t2"]
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_linear_terms_vanish_on_grid(self):
        lin2, lin3 = linear_terms_t2(simulate(default_grid_configs()))
        assert np.abs(lin2).max() <= 1e-12
        assert np.abs(lin3).max() <= 1e-12

    def test_one_group_read_per_run(self, monkeypatch):
        """``simulate`` reads the descriptor sets of steps 2-4 in one call
        of the read kernel, and ``reports`` reads nothing more."""
        group_read, calls = heisenberg.pair_matrix_in_all_zeros, []

        def counted(groups):
            calls.append(len(groups))
            return group_read(groups)

        monkeypatch.setattr(heisenberg, "pair_matrix_in_all_zeros", counted)
        reports(simulate([ExperimentConfig(0.7, 0.3)]))
        assert calls == [3]

    def test_run_reads_are_the_steps_descriptor_reads(self):
        """A Run's (z, zz) of step t hold each <q_z> and <q_z r_z> of that
        step's descriptors, one value per config: the singles bit for bit
        the one-set read ``heisenberg.z_moments`` gives."""
        run = simulate(default_grid_configs())
        assert run.z.shape == (3, 4, len(run)) and run.zz.shape == (3, 4, 4, len(run))
        for t in (2, 3, 4):
            z, zz = heisenberg.z_moments(run.descriptors[t])
            np.testing.assert_array_equal(run.z[t - 2], z)
            np.testing.assert_allclose(run.zz[t - 2], zz, rtol=0, atol=1e-15)

    def test_probabilities_stay_in_unit_interval(self):
        run = simulate(default_grid_configs())
        table = reports(run)
        for values in (
            table["p_joint_t2"],
            joint_prob_both_one_at_t2(run).heisenberg,
            table["p_diff_t4"],
            prob_outcomes_differ_at_t4(run).heisenberg,
            table["p_record_t3"],
        ):
            assert np.all((-1e-12 <= values) & (values <= 1.0 + 1e-12))

    def test_engines_agree_everywhere_on_grid(self):
        run = simulate(default_grid_configs())
        for quantity in (joint_prob_both_one_at_t2(run), correlation_t2(run), prob_outcomes_differ_at_t4(run)):
            assert np.all(quantity.closed_deviation <= 1e-10)
            assert np.all(quantity.engine_delta <= 1e-10)

    def test_sweep_exposes_angle_dependence(self):
        values = reports(simulate(default_grid_configs()))["p_joint_t2"]
        assert values.max() - values.min() >= 0.4

    def test_report_columns_are_pinned(self):
        table = reports(simulate([ExperimentConfig(0.1, 0.9), ExperimentConfig(0.4, 0.2)]))
        assert tuple(table) == (
            "theta", "phi", "p_joint_t2", "corr_t2", "p_diff_t4", "lin_qz2_t2", "lin_qz3_t2",
            "p_record_t3", "dev_sin2_half_diff", "dev_cos2_half_diff", "dev_sin2_half_sum",
            "delta_p_joint_t2", "delta_corr_t2", "delta_p_diff_t4",
        )
        assert all(column.shape == (2,) and column.dtype == np.float64 for column in table.values())


class TestDifferenceDependence:
    @pytest.mark.parametrize("seed", range(4))
    def test_reports_depend_only_on_angle_difference(self, seed):
        rng = np.random.default_rng(400 + seed)
        base, shifted = [], []
        for theta, phi, shift in rng.uniform(-2 * math.pi, 2 * math.pi, size=(25, 3)):
            base.append(ExperimentConfig(theta, phi))
            shifted.append(ExperimentConfig(theta + shift, phi + shift))
        a, b = reports(simulate(base)), reports(simulate(shifted))
        for key, values in a.items():
            # the sum-form audit deviation varies with theta + phi by
            # construction; everything else is a difference function
            if key in ("theta", "phi", "dev_sin2_half_sum"):
                continue
            assert np.all(abs(values - b[key]) <= 1e-10), key
