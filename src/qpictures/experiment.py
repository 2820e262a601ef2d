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

``simulate(configs)`` evolves the timeline once for a whole batch of
angle pairs: the analyzer rotations carry one angle per pair, so states
have one row and descriptors one coefficient column per pair, while the
gate list and the Pauli strings are shared.  The result is a ``Run``, and
every quantity is a function of a Run with one value per angle pair.  One
angle pair is a batch of one: ``reports(simulate([cfg]))[0]``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

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

# The most angle pairs one simulate call evolves.  A run keeps about 2 KB
# of states and descriptors per pair, so this bounds a run near 10 MB.
MAX_BATCH = 4096

# The largest analyzer angle magnitude (radians) the CLI accepts.  The
# closed forms round theta - phi to about 1e-16 of the angles, so closed
# forms and engines split as angles grow: random pairs stay within
# ENGINE_ATOL up to 1e5 rad, and about 3% of them fail at 1e6 rad.
MAX_ANGLE = 1e4


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

    @property
    def all_gates(self) -> tuple[Gate, ...]:
        return tuple(g for segment in self.steps for g in segment)


def build_timeline(cfg: ExperimentConfig | Sequence[ExperimentConfig]) -> Timeline:
    """The timeline of one config, or of a batch of configs: then each
    analyzer rotation holds one angle per config."""
    if isinstance(cfg, ExperimentConfig):
        theta, phi = cfg.theta, cfg.phi
    else:
        theta, phi = [c.theta for c in cfg], [c.phi for c in cfg]
    return Timeline(
        (
            (hadamard(SYSTEM_B), cnot(SYSTEM_A, SYSTEM_B)),
            (analyzer_rotation(SYSTEM_A, theta), analyzer_rotation(SYSTEM_B, phi)),
            (cnot(RECORD_A, SYSTEM_A), cnot(RECORD_B, SYSTEM_B)),
            (cnot(RECORD_A, RECORD_B),),
        )
    )


def _evolution(configs: tuple[ExperimentConfig, ...]):
    """States and descriptor sets per timeline step 0..4, for every config
    at once."""
    timeline = build_timeline(configs)
    state = StateVector(N_QUBITS, np.tile(new_all_zeros(N_QUBITS).amplitudes, (len(configs), 1)))
    ds = init_descriptors(N_QUBITS)
    state_by_step = [state]
    ds_by_step = [ds]
    for segment in timeline.steps:
        for gate in segment:
            state = apply_gate(state, gate)
            ds = evolve(ds, gate)
        state_by_step.append(state)
        ds_by_step.append(ds)
    return tuple(state_by_step), tuple(ds_by_step)


@dataclass(frozen=True)
class Run:
    """One evolution of the timeline for a batch of angle pairs.

    ``states[t]`` holds one row of amplitudes per config after step t.
    ``descriptors[t]`` is the descriptor set after step t; its sums carry
    one coefficient column per config from the analyzer step on, and none
    before it, where nothing depends on the angles.
    """

    configs: tuple[ExperimentConfig, ...]
    states: tuple[StateVector, ...]
    descriptors: tuple[DescriptorSet, ...]

    def __len__(self) -> int:
        return len(self.configs)


def simulate(configs: Iterable[ExperimentConfig]) -> Run:
    """Evolve the timeline for every config at once, in both pictures."""
    configs = tuple(configs)
    if not configs:
        raise ValueError("simulate needs at least one angle pair")
    if len(configs) > MAX_BATCH:
        raise ValueError(f"{len(configs)} angle pairs exceed the limit of {MAX_BATCH} per run")
    state_by_step, ds_by_step = _evolution(configs)
    return Run(configs, state_by_step, ds_by_step)


def _per_config(run: Run, f) -> np.ndarray:
    """f(cfg) for each config of a Run."""
    return np.array([f(cfg) for cfg in run.configs])


def descriptors_at_t2(run: Run) -> tuple[OperatorSum, OperatorSum]:
    """(q_z of Q2, q_z of Q3) after the analyzer rotations, one
    coefficient column per config."""
    ds = run.descriptors[2]
    return ds.z(SYSTEM_A), ds.z(SYSTEM_B)


def closed_form_descriptors_t2(run: Run) -> tuple[OperatorSum, OperatorSum]:
    """The expected two-term descriptors at t=2:

    q_z2 = sin(theta) Y2 X3 - cos(theta) Z2 X3
    q_z3 = cos(phi)   X3    + sin(phi)   X2 Y3
    """
    qz2 = OperatorSum(
        N_QUBITS,
        [
            ("Y2 X3", _per_config(run, lambda c: math.sin(c.theta))),
            ("Z2 X3", _per_config(run, lambda c: -math.cos(c.theta))),
        ],
    )
    qz3 = OperatorSum(
        N_QUBITS,
        [
            ("X3", _per_config(run, lambda c: math.cos(c.phi))),
            ("X2 Y3", _per_config(run, lambda c: math.sin(c.phi))),
        ],
    )
    return qz2, qz3


@dataclass(frozen=True)
class BothPictures:
    """One quantity computed in closed form and by both engines: arrays
    with one value per config of a Run, or the floats of one config."""

    closed: np.ndarray | float
    heisenberg: np.ndarray | float
    schrodinger: np.ndarray | float

    @property
    def engine_delta(self):
        return abs(self.heisenberg - self.schrodinger)

    @property
    def closed_deviation(self):
        return np.maximum(abs(self.heisenberg - self.closed), abs(self.schrodinger - self.closed))

    def column(self, j: int) -> "BothPictures":
        """The values of config ``j`` of a Run, as floats; IndexError
        unless 0 <= j < configs."""
        if not 0 <= j < len(self.closed):
            raise IndexError(f"column {j} outside 0..{len(self.closed) - 1}")
        return BothPictures(float(self.closed[j]), float(self.heisenberg[j]), float(self.schrodinger[j]))

    @property
    def worst(self) -> float:
        """The largest closed-form deviation or engine gap over every
        config; NaN if any value is NaN."""
        return float(np.max(np.maximum(self.closed_deviation, self.engine_delta)))

    def require_agreement(self) -> "BothPictures":
        """Self, unless some config's values split by more than
        ENGINE_ATOL; a NaN split fails too."""
        split = np.maximum(self.closed_deviation, self.engine_delta)
        failed = np.flatnonzero(~(split <= ENGINE_ATOL))
        if len(failed):
            at = self.column(int(failed[0]))
            raise AssertionError(
                f"engine disagreement: closed={at.closed!r} "
                f"heisenberg={at.heisenberg!r} schrodinger={at.schrodinger!r}"
            )
        return self


# Z2 Z3, the statevector side of the t=2 correlation.
_ZZ_T2 = OperatorSum(N_QUBITS, [("Z2 Z3", 1.0)])


def correlation_t2(run: Run) -> BothPictures:
    """<q_z2 q_z3> at t=2; closed form cos(theta - phi)."""
    ds = run.descriptors[2]
    heis = descriptor_expectation(ds.z(SYSTEM_A), ds.z(SYSTEM_B))
    schro = states.expectation(run.states[2], _ZZ_T2)
    return BothPictures(_per_config(run, lambda c: math.cos(c.difference)), heis, schro)


def joint_prob_both_one_at_t2(run: Run) -> BothPictures:
    """P(Q2 and Q3 both read |1>) at t=2; closed form cos^2((theta-phi)/2)/2.

    The descriptor route expands the projector product
    (1 + q_z2)(1 + q_z3)/4, whose linear terms vanish.
    """
    ds = run.descriptors[2]
    heis = 0.25 * (
        1.0
        + descriptor_expectation(ds.z(SYSTEM_A))
        + descriptor_expectation(ds.z(SYSTEM_B))
        + descriptor_expectation(ds.z(SYSTEM_A), ds.z(SYSTEM_B))
    )
    schro = joint_probability(run.states[2], {SYSTEM_A: 1, SYSTEM_B: 1})
    closed = _per_config(run, lambda c: 0.5 * math.cos(c.difference / 2) ** 2)
    return BothPictures(closed, heis, schro)


def linear_terms_t2(run: Run) -> tuple[np.ndarray, np.ndarray]:
    """(<q_z2>, <q_z3>) at t=2; both vanish for every angle pair."""
    ds = run.descriptors[2]
    return (
        descriptor_expectation(ds.z(SYSTEM_A)),
        descriptor_expectation(ds.z(SYSTEM_B)),
    )


def prob_outcomes_differ_at_t4(run: Run) -> BothPictures:
    """P(Q1 reads |1> after the comparison step), i.e. the two records
    disagreed; closed form sin^2((theta-phi)/2).

    Descriptor route: <z1(4)> = 1/2 - 1/2 <q_z1(3) q_z4(3)>, cross-checked
    against the direct t=4 descriptor of Q1.  The pair read never forms
    the product q_z1(3) q_z4(3) that ``evolve`` builds for the comparison
    gate, so the two routes share no arithmetic after t=3.
    """
    ds = run.descriptors[3]
    heis = 0.5 - 0.5 * descriptor_expectation(ds.z(RECORD_A), ds.z(RECORD_B))
    direct = 0.5 + 0.5 * descriptor_expectation(run.descriptors[4].z(RECORD_A))
    if not np.all(abs(heis - direct) <= 1e-12):
        raise AssertionError("record-product and direct descriptor routes split")
    schro = joint_probability(run.states[4], {RECORD_A: 1})
    closed = _per_config(run, lambda c: math.sin(c.difference / 2) ** 2)
    return BothPictures(closed, heis, schro)


def record_marginal_t3(run: Run) -> BothPictures:
    """P(Q1 reads |1>) at t=3, before the comparison gate.

    Constant 1/2: the local record marginal carries no information about
    the distant analyzer angle (no signaling).
    """
    heis = 0.5 + 0.5 * descriptor_expectation(run.descriptors[3].z(RECORD_A))
    schro = joint_probability(run.states[3], {RECORD_A: 1})
    return BothPictures(np.full(len(run), 0.5), heis, schro)


# Candidate closed forms for the t=4 disagreement probability.  Only the
# first matches the simulation; the other two are the commonly quoted
# miswritten variants the audit is built to rule out.
CANDIDATE_FORMULAS: Mapping[str, object] = {
    "sin2_half_diff": lambda theta, phi: math.sin((theta - phi) / 2) ** 2,
    "cos2_half_diff": lambda theta, phi: math.cos((theta - phi) / 2) ** 2,
    "sin2_half_sum": lambda theta, phi: math.sin((theta + phi) / 2) ** 2,
}


def _candidate_values(cfg: ExperimentConfig) -> dict[str, float]:
    """f(theta, phi) for each candidate closed form f."""
    return {name: f(cfg.theta, cfg.phi) for name, f in CANDIDATE_FORMULAS.items()}


def _candidate_deviations(simulated: float, values: Mapping[str, float]) -> dict[str, float]:
    """|simulated - f(theta, phi)| from each candidate's value f(theta, phi)."""
    return {name: abs(simulated - value) for name, value in values.items()}


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


def sign_error_audit(grid: Iterable[ExperimentConfig]) -> SignErrorAudit:
    """Run the disagreement probability over a grid of angle pairs and
    score the three candidate formulas against it.

    The grid must distinguish every pair of candidates somewhere,
    otherwise the audit is vacuous and is rejected.
    """
    configs = list(grid)
    if not configs:
        raise ValueError("audit grid is empty")
    p_diff = prob_outcomes_differ_at_t4(simulate(configs)).require_agreement()

    names = list(CANDIDATE_FORMULAS)
    separated = {(a, b): False for i, a in enumerate(names) for b in names[i + 1 :]}
    points = []
    for cfg, simulated in zip(configs, p_diff.schrodinger.tolist()):
        values = _candidate_values(cfg)
        non_disc = []
        for pair in separated:
            if abs(values[pair[0]] - values[pair[1]]) > _DISCRIMINATION_GAP:
                separated[pair] = True
            else:
                non_disc.append(pair)
        deviations = _candidate_deviations(simulated, values)
        points.append(AuditPoint(cfg.theta, cfg.phi, simulated, deviations, tuple(non_disc)))

    missing = [pair for pair, ok in separated.items() if not ok]
    if missing:
        raise ValueError(
            "degenerate audit grid: candidate pairs "
            + ", ".join(f"{a}/{b}" for a, b in missing)
            + " coincide at every supplied point"
        )
    matching = tuple(name for name in names if np.max([p.deviations[name] for p in points]) <= ENGINE_ATOL)
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


# Report fields in CSV and JSON order: headline values are the
# statevector-path numbers, deltas are the cross-engine gaps.
_REPORT_FIELDS = (
    ("theta", attrgetter("theta")),
    ("phi", attrgetter("phi")),
    ("p_joint_t2", attrgetter("p_joint_t2.schrodinger")),
    ("corr_t2", attrgetter("corr_t2.schrodinger")),
    ("p_diff_t4", attrgetter("p_diff_t4.schrodinger")),
    ("lin_qz2_t2", attrgetter("lin_qz2_t2")),
    ("lin_qz3_t2", attrgetter("lin_qz3_t2")),
    ("p_record_t3", attrgetter("record_marginal_t3.schrodinger")),
    *((f"dev_{name}", lambda r, name=name: r.audit_deviations[name]) for name in CANDIDATE_FORMULAS),
    ("delta_p_joint_t2", attrgetter("p_joint_t2.engine_delta")),
    ("delta_corr_t2", attrgetter("corr_t2.engine_delta")),
    ("delta_p_diff_t4", attrgetter("p_diff_t4.engine_delta")),
)


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

    CSV_FIELDS = tuple(name for name, _ in _REPORT_FIELDS)

    def to_dict(self) -> dict:
        """Flat mapping with the keys of ``CSV_FIELDS``."""
        return {name: get(self) for name, get in _REPORT_FIELDS}


def reports(run: Run) -> list[ExperimentReport]:
    """One report per config of ``run``, bundling the pre-comparison (t=2)
    statistics with the post-comparison (t=4) record, every value
    cross-checked between pictures."""
    p_joint = joint_prob_both_one_at_t2(run).require_agreement()
    corr = correlation_t2(run).require_agreement()
    p_diff = prob_outcomes_differ_at_t4(run).require_agreement()
    marginal = record_marginal_t3(run).require_agreement()
    lin2, lin3 = linear_terms_t2(run)
    for name, value in (("p_joint_t2", p_joint), ("p_diff_t4", p_diff), ("p_record_t3", marginal)):
        for v in (value.heisenberg, value.schrodinger):
            outside = v[~((-1e-12 <= v) & (v <= 1.0 + 1e-12))]
            if len(outside):
                raise AssertionError(f"{name} outside [0, 1]: {float(outside[0])!r}")
    out = []
    for j, cfg in enumerate(run.configs):
        out.append(
            ExperimentReport(
                theta=cfg.theta,
                phi=cfg.phi,
                p_joint_t2=p_joint.column(j),
                corr_t2=corr.column(j),
                p_diff_t4=p_diff.column(j),
                lin_qz2_t2=float(lin2[j]),
                lin_qz3_t2=float(lin3[j]),
                record_marginal_t3=marginal.column(j),
                audit_deviations=_candidate_deviations(float(p_diff.schrodinger[j]), _candidate_values(cfg)),
            )
        )
    return out


def sweep_reports(configs: Iterable[ExperimentConfig]) -> list[ExperimentReport]:
    """Reports over a grid from one batched run, checking that the
    simulated t=2 joint probability tracks the full angle dependence of
    its closed form."""
    out = reports(simulate(configs))
    closed = [r.p_joint_t2.closed for r in out]
    simulated = [r.p_joint_t2.schrodinger for r in out]
    closed_spread = max(closed) - min(closed)
    simulated_spread = max(simulated) - min(simulated)
    if simulated_spread < closed_spread - 1e-9:
        raise AssertionError("t=2 joint probability failed to track the swept angle dependence")
    return out
