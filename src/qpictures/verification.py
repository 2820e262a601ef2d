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

``compare_pictures``, behind the CLI ``picture-check``, scores descriptor
reads against the statevector for one circuit; it is the one-circuit case
of ``_compare_many``, behind ``picture_equivalence``, which scores each
width's circuits as one group.  Each picture reads every <q_z> and
<q_z q_z'> in one pass, ``heisenberg._z_moments_many`` over the
descriptor sets of every circuit of the group, evolved in lockstep, and
``states.z_moments`` over each state's probabilities, and one max per
circuit scores the singles and the pairs above the diagonal.  The
diagonal <q_z q_z> = 1 compares two norms, not two pictures, so it is
left out; the group read holds it to 1 on its own.

``descriptor_locality`` holds the descriptor engine to the locality rule
by qubit: a gate rewrites only the descriptors of the qubits it acts on.
It evolves one batched timeline gate by gate and counts every descriptor
of a qubit outside the gate's operands that is not termwise equal to its
value before the gate, whatever that descriptor's support.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import heisenberg, states
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
from .heisenberg import evolve, init_descriptors
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
    third = next(j for j, c in enumerate(audit.configs) if abs(c.difference - math.pi / 3) < 1e-12)
    equal = next(j for j, c in enumerate(audit.configs) if c.theta == c.phi == math.pi / 4)
    result = _scored(
        "sign_error_audit", np.max(audit.deviations["sin2_half_diff"]), 1e-10,
        "cos-form off by >=0.4 at diff pi/3; sum-form off by >=0.4 at (pi/4, pi/4)",
    )
    passed = bool(
        result.passed
        and audit.matching == ("sin2_half_diff",)
        and audit.deviations["cos2_half_diff"][third] >= 0.4
        and audit.deviations["sin2_half_sum"][equal] >= 0.4
    )
    return replace(result, passed=passed)


def compare_pictures(gates, width: int) -> float:
    """Max deviation between descriptor-side and statevector-side
    expectations of every q_z and pairwise q_z product; NaN if any read
    is NaN.  The one-circuit case of ``_compare_many``."""
    return float(_compare_many([gates], width)[0])


def _compare_many(circuits, width: int) -> np.ndarray:
    """``compare_pictures`` of each circuit of one width.  The descriptor
    sets advance in lockstep (``heisenberg._evolve_many``) and are read in
    one pass (``heisenberg._z_moments_many``).  The state side runs and
    reads each circuit alone (``states.z_moments``), so its bits are those
    of a one-circuit check."""
    circuits = [tuple(gates) for gates in circuits]
    sets = heisenberg._evolve_many([init_descriptors(width)] * len(circuits), circuits)
    dz, dzz = heisenberg._z_moments_many(sets)
    # The pairs above the diagonal, row by row; the diagonal <q_z q_z> = 1
    # compares two norms, not two pictures.
    qubits = np.arange(width)
    pairs = qubits[:, None] < qubits
    deviations = np.empty(len(circuits))
    for i, gates in enumerate(circuits):
        z, zz = states.z_moments(apply_circuit(new_all_zeros(width), gates))
        deviations[i] = np.max(np.abs(np.concatenate([dz[i] - z, (dzz[i] - zz)[pairs]])))
    return deviations


def _picture_circuits() -> list:
    """The (width, circuit) pairs of ``picture_equivalence``, drawn in order
    from ``PICTURE_CHECK_SEED``: widths 2-5 in turn, depths 1-12."""
    rng = np.random.default_rng(PICTURE_CHECK_SEED)
    circuits = []
    for i in range(PICTURE_CHECK_CIRCUITS):
        width = 2 + i % 4
        depth = int(rng.integers(1, 13))
        circuits.append((width, random_circuit(width, depth, rng)))
    return circuits


def check_picture_equivalence() -> CheckResult:
    """Both engines agree on 200 seeded random circuits, each width's
    circuits compared as one group."""
    circuits = _picture_circuits()
    deviations = [
        _compare_many([gates for w, gates in circuits if w == width], width)
        for width in sorted({width for width, _ in circuits})
    ]
    return _scored(
        "picture_equivalence", np.max(np.concatenate(deviations)), PICTURE_CHECK_TOL,
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
    """The t=3 record marginal is independent of the distant angle, and is
    its closed form 1/2 in both engines."""
    theta = 0.7
    run = simulate(ExperimentConfig(theta, phi) for phi in default_difference_grid())
    result = record_marginal_t3(run).require_agreement()
    return _scored(
        "no_signaling", np.ptp(np.concatenate([result.schrodinger, result.heisenberg])), 1e-10,
        "record marginal at t=3 constant while the distant angle sweeps",
    )


def check_descriptor_locality() -> CheckResult:
    """Each timeline gate rewrites only the descriptors of its own qubits:
    every descriptor of every other qubit comes out termwise equal.  The
    score is the number that changed, over one batched timeline."""
    changed = 0
    ds = init_descriptors(4)
    for segment in build_timeline((ExperimentConfig(0.3, 1.0), ExperimentConfig(math.pi / 3, math.pi / 7))):
        for gate in segment:
            after = evolve(ds, gate)
            changed += sum(
                q not in gate.qubits and not old.equal_terms(after.descriptor(q, axis))
                for (q, axis), old in ds.items()
            )
            ds = after
    return _scored(
        "descriptor_locality", changed, 0.0,
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
