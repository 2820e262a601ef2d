"""Named verification checks covering every headline guarantee.

Each check recomputes its quantity from scratch through the public API
and scores it against an independent closed form, so a corrupted gate
matrix or a broken engine shows up as a named failure.  Each check folds
its deviations into one worst score with NaN-propagating numpy
reductions, and ``_scored`` applies the one pass rule, worst <=
tolerance, so a NaN anywhere fails the check.  A check over a grid of
angle pairs simulates the whole grid as one batched ``Run``.  The CLI
``verify`` subcommand and the acceptance test suite both run this
registry.

``compare_pictures``, behind ``picture_equivalence`` and the CLI
``picture-check``, scores descriptor reads against the statevector: it
reads every <q_z> and <q_z q_z'> of the state from one
``states.z_moments`` pass over its probabilities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import states
from .bell import TSIRELSON, canonical_setting, chsh
from .experiment import (
    ExperimentConfig,
    build_timeline,
    closed_form_descriptors_t2,
    correlation_t2,
    default_difference_grid,
    default_grid_configs,
    descriptors_at_t2,
    joint_prob_both_one_at_t2,
    linear_terms_t2,
    record_marginal_t3,
    sign_error_audit,
    simulate,
)
from .gates import cnot, hadamard, random_circuit
from .heisenberg import (
    descriptor_expectation,
    evolve,
    evolve_circuit,
    init_descriptors,
    untouched_invariance_check,
)
from .pauli import max_term_deviation
from .states import StateVector, apply_circuit, apply_gate, new_all_zeros

PICTURE_CHECK_SEED = 1729
PICTURE_CHECK_CIRCUITS = 200
# Largest cross-engine deviation a picture check passes with.
PICTURE_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str


def _scored(name: str, worst, tolerance: float, detail: str) -> CheckResult:
    """The pass rule every check shares: it passes when its worst
    deviation is within tolerance.  A NaN score is never within it."""
    worst = float(worst)
    return CheckResult(name, worst <= tolerance, worst, tolerance, detail)


def check_cnot_action() -> CheckResult:
    """CN must map |0,1> to |1,1> with exact 0/1 amplitudes."""
    state = StateVector(2, np.array([0, 0, 1, 0], dtype=complex))
    out = apply_gate(state, cnot(1, 2))
    expected = np.array([1, 0, 0, 0], dtype=complex)
    return _scored(
        "cnot_action", np.max(np.abs(out.amplitudes - expected)), 0.0,
        "controlled-not drives |0,1> to |1,1> bit-exactly",
    )


def check_entangled_state() -> CheckResult:
    """H then CN on |0,0> must give (1, 0, 0, -1)/sqrt(2)."""
    state = apply_circuit(new_all_zeros(2), (hadamard(2), cnot(1, 2)))
    expected = np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2)
    return _scored(
        "entangled_state", np.max(np.abs(state.amplitudes - expected)), 1e-12,
        "entangler output amplitudes (1,0,0,-1)/sqrt(2)",
    )


_DESCRIPTOR_THETAS = (0.0, math.pi / 2, 0.3, 2.0, 4.1)
_DESCRIPTOR_PHIS = (0.0, 0.9, math.pi / 3, 2.5, 5.2)


def check_analyzer_descriptors() -> CheckResult:
    """Evolved t=2 descriptors must equal their two-term closed forms."""
    run = simulate(ExperimentConfig(theta, phi) for theta in _DESCRIPTOR_THETAS for phi in _DESCRIPTOR_PHIS)
    got_2, got_3 = descriptors_at_t2(run)
    want_2, want_3 = closed_form_descriptors_t2(run)
    return _scored(
        "analyzer_descriptors",
        np.maximum(max_term_deviation(got_2, want_2), max_term_deviation(got_3, want_3)),
        1e-12,
        "term-for-term descriptor match over 25 angle pairs",
    )


def check_zz_correlation() -> CheckResult:
    """<q_z2 q_z3> at t=2 equals cos(theta - phi) in both engines."""
    return _scored(
        "zz_correlation", correlation_t2(simulate(default_grid_configs())).worst, 1e-10,
        "t=2 correlation equals cos(theta - phi) on the default grid",
    )


def check_joint_probability() -> CheckResult:
    """P(both |1>) at t=2 equals cos^2((theta-phi)/2)/2; 1/2 at equal angles,
    where the closed form is exactly 1/2."""
    run = simulate(default_grid_configs() + (ExperimentConfig(0.7, 0.7),))
    return _scored(
        "joint_probability", joint_prob_both_one_at_t2(run).worst, 1e-10,
        "t=2 joint probability matches cos^2((theta-phi)/2)/2",
    )


def check_linear_terms_vanish() -> CheckResult:
    """<q_z2> and <q_z3> at t=2 vanish at every grid point."""
    return _scored(
        "linear_terms_vanish", np.max(np.abs(linear_terms_t2(simulate(default_grid_configs())))), 1e-12,
        "single-descriptor expectations vanish on the default grid",
    )


def check_sign_error_audit() -> CheckResult:
    """Only sin^2((theta-phi)/2) survives the disagreement-probability audit."""
    audit = sign_error_audit(default_grid_configs())
    third = next(p for p in audit.points if abs((p.theta - p.phi) - math.pi / 3) < 1e-12)
    equal = next(p for p in audit.points if p.theta == p.phi == math.pi / 4)
    result = _scored(
        "sign_error_audit", np.max([p.deviations["sin2_half_diff"] for p in audit.points]), 1e-10,
        "cos-form off by >=0.4 at diff pi/3; sum-form off by >=0.4 at (pi/4, pi/4)",
    )
    passed = (
        result.passed
        and audit.matching == ("sin2_half_diff",)
        and third.deviations["cos2_half_diff"] >= 0.4
        and equal.deviations["sin2_half_sum"] >= 0.4
    )
    return replace(result, passed=passed)


def compare_pictures(gates, width: int) -> float:
    """Max deviation between descriptor-side and statevector-side
    expectations of every q_z and pairwise q_z product; NaN if any read
    is NaN.  The state side reads all of them from one
    ``states.z_moments`` pass."""
    gates = tuple(gates)
    ds = evolve_circuit(init_descriptors(width), gates)
    z, zz = states.z_moments(apply_circuit(new_all_zeros(width), gates))
    z, zz = z.tolist(), zz.tolist()
    deviations = []
    for q in range(1, width + 1):
        deviations.append(descriptor_expectation(ds.z(q)) - z[q - 1])
        for r in range(q + 1, width + 1):
            deviations.append(descriptor_expectation(ds.z(q), ds.z(r)) - zz[q - 1][r - 1])
    return float(np.max(np.abs(deviations)))


def check_picture_equivalence() -> CheckResult:
    """Both engines agree on 200 seeded random circuits."""
    rng = np.random.default_rng(PICTURE_CHECK_SEED)
    deviations = []
    for i in range(PICTURE_CHECK_CIRCUITS):
        width = 2 + i % 4
        depth = int(rng.integers(1, 13))
        deviations.append(compare_pictures(random_circuit(width, depth, rng), width))
    return _scored(
        "picture_equivalence", np.max(deviations), PICTURE_CHECK_TOL,
        f"{PICTURE_CHECK_CIRCUITS} random circuits, widths 2-5, depth <= 12",
    )


def check_bell_violation() -> CheckResult:
    """CHSH at the canonical pi/4 setting reaches 2*sqrt(2) before t=3."""
    result = chsh(canonical_setting())
    # |S| within 1e-6 of 2*sqrt(2) is far above the classical bound 2, so
    # the score alone implies result.violates.
    return _scored(
        "bell_violation", abs(abs(result.s) - TSIRELSON), 1e-6,
        f"|S| = {abs(result.s):.9f} at the canonical setting",
    )


def check_no_signaling() -> CheckResult:
    """The t=3 record marginal is independent of the distant angle."""
    theta = 0.7
    result = record_marginal_t3(simulate(ExperimentConfig(theta, phi) for phi in default_difference_grid()))
    return _scored(
        "no_signaling", np.ptp(np.concatenate([result.schrodinger, result.heisenberg])), 1e-10,
        "record marginal at t=3 constant while the distant angle sweeps",
    )


def check_descriptor_locality() -> CheckResult:
    """Each timeline gate leaves disjoint-support descriptors untouched."""
    failures = 0
    for cfg in (ExperimentConfig(0.3, 1.0), ExperimentConfig(math.pi / 3, math.pi / 7)):
        ds = init_descriptors(4)
        for gate in build_timeline(cfg).all_gates:
            after = evolve(ds, gate)
            if not untouched_invariance_check(ds, after, gate):
                failures += 1
            ds = after
    return _scored(
        "descriptor_locality", failures, 0.0,
        "gates only rewrite descriptors of their operand qubits",
    )


ALL_CHECKS = (
    check_cnot_action,
    check_entangled_state,
    check_analyzer_descriptors,
    check_zz_correlation,
    check_joint_probability,
    check_linear_terms_vanish,
    check_sign_error_audit,
    check_picture_equivalence,
    check_bell_violation,
    check_no_signaling,
    check_descriptor_locality,
)


def run_all_checks() -> list[CheckResult]:
    """Run every check; a check that raises is reported as a failure."""
    results = []
    for check in ALL_CHECKS:
        name = check.__name__.removeprefix("check_")
        try:
            results.append(check())
        except Exception as exc:
            results.append(_scored(name, math.inf, 0.0, f"raised {exc!r}"))
    return results
