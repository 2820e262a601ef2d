"""The four-qubit record-and-compare experiment, computed in both pictures.

Qubits: Q1 and Q4 are recording ancillas, Q2 and Q3 the entangled pair.
Timeline steps:

  t=1  entangler: H on Q3, then CN (target Q2, control Q3),
       preparing (|1,1> - |0,0>)/sqrt(2) on (Q2, Q3);
  t=2  analyzer rotations R(theta) on Q2 and R(phi) on Q3;
  t=3  record CNOTs: CN (target Q1, control Q2), CN (target Q4, control Q3);
  t=4  comparison CNOT: CN (target Q1, control Q4).

Every reported quantity is computed three ways: closed form, Heisenberg
descriptors, and the dense statevector oracle.  The headline result is
that the t=2 joint statistics already carry the full angle dependence --
before the comparison step ever runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from . import states
from .gates import Gate, analyzer_rotation, cnot, hadamard
from .heisenberg import (
    DescriptorSet,
    descriptor_expectation,
    evolve,
    init_descriptors,
)
from .pauli import OperatorSum
from .states import StateVector, apply_gate, joint_probability, new_all_zeros

N_QUBITS = 4
RECORD_A, SYSTEM_A, SYSTEM_B, RECORD_B = 1, 2, 3, 4

ENGINE_ATOL = 1e-10


@dataclass(frozen=True)
class ExperimentConfig:
    """Analyzer angles (radians) for the two measurement arms."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("analyzer angles must be finite")

    @property
    def difference(self) -> float:
        return self.theta - self.phi


@dataclass(frozen=True)
class Timeline:
    """Gate lists per timeline step t = 1..4."""

    steps: tuple[tuple[Gate, ...], ...]

    def gates_through(self, step: int) -> tuple[Gate, ...]:
        if not 0 <= step <= len(self.steps):
            raise ValueError(f"step must be in 0..{len(self.steps)}, got {step}")
        return tuple(g for segment in self.steps[:step] for g in segment)

    @property
    def all_gates(self) -> tuple[Gate, ...]:
        return self.gates_through(len(self.steps))


def build_timeline(cfg: ExperimentConfig) -> Timeline:
    return Timeline(
        (
            (hadamard(SYSTEM_B), cnot(SYSTEM_A, SYSTEM_B)),
            (analyzer_rotation(SYSTEM_A, cfg.theta), analyzer_rotation(SYSTEM_B, cfg.phi)),
            (cnot(RECORD_A, SYSTEM_A), cnot(RECORD_B, SYSTEM_B)),
            (cnot(RECORD_A, RECORD_B),),
        )
    )


def _evolution(cfg: ExperimentConfig):
    """States and descriptor sets keyed by timeline step 0..4."""
    timeline = build_timeline(cfg)
    state = new_all_zeros(N_QUBITS)
    ds = init_descriptors(N_QUBITS)
    state_by_step = {0: state}
    ds_by_step = {0: ds}
    for step, segment in enumerate(timeline.steps, start=1):
        for gate in segment:
            state = apply_gate(state, gate)
            ds = evolve(ds, gate)
        state_by_step[step] = state
        ds_by_step[step] = ds
    return state_by_step, ds_by_step


def state_at(cfg: ExperimentConfig, step: int) -> StateVector:
    return _evolution(cfg)[0][step]


def descriptors_at(cfg: ExperimentConfig, step: int) -> DescriptorSet:
    return _evolution(cfg)[1][step]


def descriptors_at_t2(cfg: ExperimentConfig) -> tuple[OperatorSum, OperatorSum]:
    """(q_z of Q2, q_z of Q3) after the analyzer rotations."""
    ds = descriptors_at(cfg, 2)
    return ds.z(SYSTEM_A), ds.z(SYSTEM_B)


def closed_form_descriptors_t2(cfg: ExperimentConfig) -> tuple[OperatorSum, OperatorSum]:
    """The expected two-term descriptors at t=2:

    q_z2 = sin(theta) Y2 X3 - cos(theta) Z2 X3
    q_z3 = cos(phi)   X3    + sin(phi)   X2 Y3
    """
    qz2 = OperatorSum(
        N_QUBITS,
        [("Y2 X3", math.sin(cfg.theta)), ("Z2 X3", -math.cos(cfg.theta))],
    )
    qz3 = OperatorSum(
        N_QUBITS,
        [("X3", math.cos(cfg.phi)), ("X2 Y3", math.sin(cfg.phi))],
    )
    return qz2, qz3


@dataclass(frozen=True)
class BothPictures:
    """One quantity computed in closed form and by both engines."""

    closed: float
    heisenberg: float
    schrodinger: float

    @property
    def engine_delta(self) -> float:
        return abs(self.heisenberg - self.schrodinger)

    @property
    def closed_deviation(self) -> float:
        return max(abs(self.heisenberg - self.closed), abs(self.schrodinger - self.closed))

    def require_agreement(self, atol: float = ENGINE_ATOL) -> "BothPictures":
        if self.closed_deviation > atol or self.engine_delta > atol:
            raise AssertionError(
                f"engine disagreement: closed={self.closed!r} "
                f"heisenberg={self.heisenberg!r} schrodinger={self.schrodinger!r}"
            )
        return self


def _zz_product(ds: DescriptorSet, q_a: int, q_b: int) -> float:
    return descriptor_expectation(ds.z(q_a) * ds.z(q_b))


def _correlation(cfg, state_by_step, ds_by_step) -> BothPictures:
    heis = _zz_product(ds_by_step[2], SYSTEM_A, SYSTEM_B)
    zz = OperatorSum(N_QUBITS, [("Z2 Z3", 1.0)])
    schro = states.expectation(state_by_step[2], zz)
    return BothPictures(math.cos(cfg.difference), heis, schro)


def _joint_prob(cfg, state_by_step, ds_by_step) -> BothPictures:
    ds = ds_by_step[2]
    heis = 0.25 * (
        1.0
        + descriptor_expectation(ds.z(SYSTEM_A))
        + descriptor_expectation(ds.z(SYSTEM_B))
        + _zz_product(ds, SYSTEM_A, SYSTEM_B)
    )
    schro = joint_probability(state_by_step[2], {SYSTEM_A: 1, SYSTEM_B: 1})
    closed = 0.5 * math.cos(cfg.difference / 2) ** 2
    return BothPictures(closed, heis, schro)


def _linear_terms(ds_by_step) -> tuple[float, float]:
    ds = ds_by_step[2]
    return (
        descriptor_expectation(ds.z(SYSTEM_A)),
        descriptor_expectation(ds.z(SYSTEM_B)),
    )


def _p_diff(cfg, state_by_step, ds_by_step) -> BothPictures:
    heis = 0.5 - 0.5 * _zz_product(ds_by_step[3], RECORD_A, RECORD_B)
    direct = 0.5 + 0.5 * descriptor_expectation(ds_by_step[4].z(RECORD_A))
    if not abs(heis - direct) <= 1e-12:
        raise AssertionError("record-product and direct descriptor routes split")
    schro = joint_probability(state_by_step[4], {RECORD_A: 1})
    closed = math.sin(cfg.difference / 2) ** 2
    return BothPictures(closed, heis, schro)


def _record_marginal(state_by_step, ds_by_step) -> BothPictures:
    heis = 0.5 + 0.5 * descriptor_expectation(ds_by_step[3].z(RECORD_A))
    schro = joint_probability(state_by_step[3], {RECORD_A: 1})
    return BothPictures(0.5, heis, schro)


def correlation_t2(cfg: ExperimentConfig) -> BothPictures:
    """<q_z2 q_z3> at t=2; closed form cos(theta - phi)."""
    return _correlation(cfg, *_evolution(cfg))


def joint_prob_both_one_at_t2(cfg: ExperimentConfig) -> BothPictures:
    """P(Q2 and Q3 both read |1>) at t=2; closed form cos^2((theta-phi)/2)/2.

    The descriptor route expands the projector product
    (1 + q_z2)(1 + q_z3)/4, whose linear terms vanish.
    """
    return _joint_prob(cfg, *_evolution(cfg))


def linear_terms_t2(cfg: ExperimentConfig) -> tuple[float, float]:
    """(<q_z2>, <q_z3>) at t=2; both vanish for every angle pair."""
    return _linear_terms(_evolution(cfg)[1])


def prob_outcomes_differ_at_t4(cfg: ExperimentConfig) -> BothPictures:
    """P(Q1 reads |1> after the comparison step), i.e. the two records
    disagreed; closed form sin^2((theta-phi)/2).

    Descriptor route: <z1(4)> = 1/2 - 1/2 <q_z1(3) q_z4(3)>, cross-checked
    against the direct t=4 descriptor of Q1.
    """
    return _p_diff(cfg, *_evolution(cfg))


def record_marginal_t3(cfg: ExperimentConfig) -> BothPictures:
    """P(Q1 reads |1>) at t=3, before the comparison gate.

    Constant 1/2: the local record marginal carries no information about
    the distant analyzer angle (no signaling).
    """
    return _record_marginal(*_evolution(cfg))


# Candidate closed forms for the t=4 disagreement probability.  Only the
# first matches the simulation; the other two are the commonly quoted
# miswritten variants the audit is built to rule out.
CANDIDATE_FORMULAS: Mapping[str, object] = {
    "sin2_half_diff": lambda theta, phi: math.sin((theta - phi) / 2) ** 2,
    "cos2_half_diff": lambda theta, phi: math.cos((theta - phi) / 2) ** 2,
    "sin2_half_sum": lambda theta, phi: math.sin((theta + phi) / 2) ** 2,
}

# Two candidates count as distinguished at a point when their closed
# forms are at least this far apart.
_DISCRIMINATION_GAP = 1e-3


@dataclass(frozen=True)
class AuditPoint:
    theta: float
    phi: float
    p_diff: float
    deviations: Mapping[str, float]
    non_discriminating: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class SignErrorAudit:
    """Per-point deviations of the simulated disagreement probability
    from each candidate closed form."""

    points: tuple[AuditPoint, ...]
    matching: tuple[str, ...]

    @property
    def verdict(self) -> str | None:
        return self.matching[0] if len(self.matching) == 1 else None


def _as_config(point) -> ExperimentConfig:
    if isinstance(point, ExperimentConfig):
        return point
    theta, phi = point
    return ExperimentConfig(float(theta), float(phi))


def sign_error_audit(grid: Iterable, atol: float = ENGINE_ATOL) -> SignErrorAudit:
    """Run the disagreement probability over a grid of angle pairs and
    score the three candidate formulas against it.

    The grid must distinguish every pair of candidates somewhere,
    otherwise the audit is vacuous and is rejected.
    """
    configs = [_as_config(p) for p in grid]
    if not configs:
        raise ValueError("audit grid is empty")

    names = list(CANDIDATE_FORMULAS)
    separated = {(a, b): False for i, a in enumerate(names) for b in names[i + 1 :]}
    points = []
    max_dev = {name: 0.0 for name in names}
    for cfg in configs:
        result = prob_outcomes_differ_at_t4(cfg).require_agreement(atol)
        simulated = result.schrodinger
        values = {name: f(cfg.theta, cfg.phi) for name, f in CANDIDATE_FORMULAS.items()}
        deviations = {name: abs(simulated - v) for name, v in values.items()}
        non_disc = []
        for pair in separated:
            gap = abs(values[pair[0]] - values[pair[1]])
            if gap > _DISCRIMINATION_GAP:
                separated[pair] = True
            else:
                non_disc.append(pair)
        for name in names:
            max_dev[name] = max(max_dev[name], deviations[name])
        points.append(
            AuditPoint(cfg.theta, cfg.phi, simulated, deviations, tuple(non_disc))
        )

    missing = [pair for pair, ok in separated.items() if not ok]
    if missing:
        raise ValueError(
            "degenerate audit grid: candidate pairs "
            + ", ".join(f"{a}/{b}" for a, b in missing)
            + " coincide at every supplied point"
        )
    matching = tuple(name for name in names if max_dev[name] <= atol)
    return SignErrorAudit(tuple(points), matching)


def default_difference_grid() -> tuple[float, ...]:
    """theta - phi values k*pi/12 for k = 0..24."""
    return tuple(k * math.pi / 12 for k in range(25))


def default_grid_configs() -> tuple[ExperimentConfig, ...]:
    """Default sweep: the difference grid at phi = 0, plus the equal-angle
    point (pi/4, pi/4) that separates difference- from sum-based formulas."""
    configs = [ExperimentConfig(d, 0.0) for d in default_difference_grid()]
    configs.append(ExperimentConfig(math.pi / 4, math.pi / 4))
    return tuple(configs)


@dataclass(frozen=True)
class ExperimentReport:
    """All reported quantities for one angle pair, both pictures."""

    theta: float
    phi: float
    p_joint_t2: BothPictures
    corr_t2: BothPictures
    p_diff_t4: BothPictures
    lin_qz2_t2: float
    lin_qz3_t2: float
    record_marginal_t3: BothPictures
    audit_deviations: Mapping[str, float] = field(default_factory=dict)

    CSV_FIELDS = (
        "theta",
        "phi",
        "p_joint_t2",
        "corr_t2",
        "p_diff_t4",
        "lin_qz2_t2",
        "lin_qz3_t2",
        "p_record_t3",
        "dev_sin2_half_diff",
        "dev_cos2_half_diff",
        "dev_sin2_half_sum",
        "delta_p_joint_t2",
        "delta_corr_t2",
        "delta_p_diff_t4",
    )

    def to_dict(self) -> dict:
        """Flat mapping; headline values are the statevector-path numbers,
        deltas are the cross-engine gaps."""
        return {
            "theta": self.theta,
            "phi": self.phi,
            "p_joint_t2": self.p_joint_t2.schrodinger,
            "corr_t2": self.corr_t2.schrodinger,
            "p_diff_t4": self.p_diff_t4.schrodinger,
            "lin_qz2_t2": self.lin_qz2_t2,
            "lin_qz3_t2": self.lin_qz3_t2,
            "p_record_t3": self.record_marginal_t3.schrodinger,
            "dev_sin2_half_diff": self.audit_deviations["sin2_half_diff"],
            "dev_cos2_half_diff": self.audit_deviations["cos2_half_diff"],
            "dev_sin2_half_sum": self.audit_deviations["sin2_half_sum"],
            "delta_p_joint_t2": self.p_joint_t2.engine_delta,
            "delta_corr_t2": self.corr_t2.engine_delta,
            "delta_p_diff_t4": self.p_diff_t4.engine_delta,
        }


def pre_vs_post_report(cfg: ExperimentConfig, atol: float = ENGINE_ATOL) -> ExperimentReport:
    """Bundle the pre-comparison (t=2) statistics with the post-comparison
    (t=4) record, every value cross-checked between pictures."""
    state_by_step, ds_by_step = _evolution(cfg)
    p_joint = _joint_prob(cfg, state_by_step, ds_by_step).require_agreement(atol)
    corr = _correlation(cfg, state_by_step, ds_by_step).require_agreement(atol)
    p_diff = _p_diff(cfg, state_by_step, ds_by_step).require_agreement(atol)
    marginal = _record_marginal(state_by_step, ds_by_step).require_agreement(atol)
    lin2, lin3 = _linear_terms(ds_by_step)
    for name, value in (("p_joint_t2", p_joint), ("p_diff_t4", p_diff), ("p_record_t3", marginal)):
        for v in (value.heisenberg, value.schrodinger):
            if not -1e-12 <= v <= 1.0 + 1e-12:
                raise AssertionError(f"{name} outside [0, 1]: {v!r}")
    simulated = p_diff.schrodinger
    deviations = {
        name: abs(simulated - f(cfg.theta, cfg.phi)) for name, f in CANDIDATE_FORMULAS.items()
    }
    return ExperimentReport(
        theta=cfg.theta,
        phi=cfg.phi,
        p_joint_t2=p_joint,
        corr_t2=corr,
        p_diff_t4=p_diff,
        lin_qz2_t2=lin2,
        lin_qz3_t2=lin3,
        record_marginal_t3=marginal,
        audit_deviations=deviations,
    )


def sweep_reports(configs: Iterable[ExperimentConfig], atol: float = ENGINE_ATOL) -> list[ExperimentReport]:
    """Reports over a grid, checking that the simulated t=2 joint
    probability tracks the full angle dependence of its closed form."""
    reports = [pre_vs_post_report(cfg, atol) for cfg in configs]
    closed = [r.p_joint_t2.closed for r in reports]
    simulated = [r.p_joint_t2.schrodinger for r in reports]
    closed_spread = max(closed) - min(closed)
    simulated_spread = max(simulated) - min(simulated)
    if simulated_spread < closed_spread - 1e-9:
        raise AssertionError("t=2 joint probability failed to track the swept angle dependence")
    return reports
