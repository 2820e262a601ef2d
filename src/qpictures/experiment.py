"""The four-qubit record-and-compare experiment, computed in both pictures.

Qubits: Q1 and Q4 are recording ancillas, Q2 and Q3 the entangled pair.
The timeline, step by step:

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
angle pairs: the analyzer rotations carry one angle per pair, so from t=2
on states have one row and descriptors one coefficient column per pair,
while the gate list, the angle-free t=1 step and the Pauli strings are
shared.  It then reads every <q_z> and <q_z q_z'> of steps 2-4 once, in
one group read (``heisenberg._z_moments_many``).  The result is a
``Run``, and every quantity is a function of a Run with one value per
angle pair: its Heisenberg values are entries of the Run's reads, and its
statevector values come from the Run's states.  ``reports(run)`` is the
report as a table: one array per field, in CSV and JSON order, each
holding one value per angle pair.  One angle pair is a batch of one:
``reports(simulate([cfg]))["p_diff_t4"][0]``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import states
from .gates import Gate, _catalog_key, analyzer_rotation, cnot, hadamard
from .heisenberg import DescriptorSet, _z_moments_many, evolve_circuit, init_descriptors
from .pauli import OperatorSum
from .states import StateVector, apply_circuit, joint_probability, new_all_zeros

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


def build_timeline(configs: Sequence[ExperimentConfig]) -> tuple[tuple[Gate, ...], ...]:
    """The gates of each timeline step t = 1..4 for a batch of configs:
    each analyzer rotation holds one angle per config."""
    theta, phi = [c.theta for c in configs], [c.phi for c in configs]
    return (
        (hadamard(SYSTEM_B), cnot(SYSTEM_A, SYSTEM_B)),
        (analyzer_rotation(SYSTEM_A, theta), analyzer_rotation(SYSTEM_B, phi)),
        (cnot(RECORD_A, SYSTEM_A), cnot(RECORD_B, SYSTEM_B)),
        (cnot(RECORD_A, RECORD_B),),
    )


# Steps 0 and 1 (angle-free) in both pictures, evolved once per process and
# shared read-only by every run while both t=1 gates are catalog gates,
# keyed by their qubits and ``_catalog_key``s.
_PREFIX: dict[tuple, tuple] = {}


def _evolution(configs: tuple[ExperimentConfig, ...]):
    """States and descriptor sets per timeline step 0..4, for every config
    at once, from the shared steps 0 and 1 on; each step runs through
    ``apply_circuit`` and ``evolve_circuit``."""
    timeline = build_timeline(configs)
    key = tuple((gate.qubits, _catalog_key(gate)) for gate in timeline[0])
    prefix = _PREFIX.get(key) or ((new_all_zeros(N_QUBITS),), (init_descriptors(N_QUBITS),))
    state_by_step, ds_by_step = list(prefix[0]), list(prefix[1])
    for segment in timeline[len(state_by_step) - 1 :]:
        state_by_step.append(apply_circuit(state_by_step[-1], segment))
        ds_by_step.append(evolve_circuit(ds_by_step[-1], segment))
    if key not in _PREFIX and all(k is not None for _, k in key):
        _PREFIX[key] = (tuple(state_by_step[:2]), tuple(ds_by_step[:2]))
    return tuple(state_by_step), tuple(ds_by_step)


@dataclass(frozen=True)
class Run:
    """One evolution of the timeline for a batch of angle pairs.

    ``states[t]`` is the state after step t and ``descriptors[t]`` the
    descriptor set.  From the analyzer step on, a state holds one row of
    amplitudes per config and a descriptor sum one coefficient column per
    config; before it nothing depends on the angles, and neither has a
    batch axis.  ``z[t - 2, q - 1]`` and ``zz[t - 2, q - 1, r - 1]`` are
    the descriptor-side <q_z> and <q_z r_z> after step t = 2..4, one value
    per config, from one group read of the three sets.
    """

    configs: tuple[ExperimentConfig, ...]
    states: tuple[StateVector, ...]
    descriptors: tuple[DescriptorSet, ...]
    z: np.ndarray
    zz: np.ndarray

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
    return Run(configs, state_by_step, ds_by_step, *_z_moments_many(ds_by_step[2:]))


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
    """One quantity computed in closed form and by both engines, as arrays
    with one value per config of a Run."""

    closed: np.ndarray
    heisenberg: np.ndarray
    schrodinger: np.ndarray

    @property
    def engine_delta(self) -> np.ndarray:
        return abs(self.heisenberg - self.schrodinger)

    @property
    def closed_deviation(self) -> np.ndarray:
        return np.maximum(abs(self.heisenberg - self.closed), abs(self.schrodinger - self.closed))

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
            j = failed[0]
            raise AssertionError(
                f"engine disagreement: closed={float(self.closed[j])!r} "
                f"heisenberg={float(self.heisenberg[j])!r} schrodinger={float(self.schrodinger[j])!r}"
            )
        return self


# Z2 Z3, the statevector side of the t=2 correlation.
_ZZ_T2 = OperatorSum(N_QUBITS, [("Z2 Z3", 1.0)])


def correlation_t2(run: Run) -> BothPictures:
    """<q_z2 q_z3> at t=2; closed form cos(theta - phi)."""
    heis = run.zz[0, SYSTEM_A - 1, SYSTEM_B - 1]
    schro = states.expectation(run.states[2], _ZZ_T2)
    return BothPictures(_per_config(run, lambda c: math.cos(c.difference)), heis, schro)


def joint_prob_both_one_at_t2(run: Run) -> BothPictures:
    """P(Q2 and Q3 both read |1>) at t=2; closed form cos^2((theta-phi)/2)/2.

    The descriptor route expands the projector product
    (1 + q_z2)(1 + q_z3)/4, whose linear terms vanish.
    """
    z, zz = run.z[0], run.zz[0]
    heis = 0.25 * (1.0 + z[SYSTEM_A - 1] + z[SYSTEM_B - 1] + zz[SYSTEM_A - 1, SYSTEM_B - 1])
    schro = joint_probability(run.states[2], {SYSTEM_A: 1, SYSTEM_B: 1})
    closed = _per_config(run, lambda c: 0.5 * math.cos(c.difference / 2) ** 2)
    return BothPictures(closed, heis, schro)


def linear_terms_t2(run: Run) -> tuple[np.ndarray, np.ndarray]:
    """(<q_z2>, <q_z3>) at t=2; both vanish for every angle pair."""
    return run.z[0, SYSTEM_A - 1], run.z[0, SYSTEM_B - 1]


def prob_outcomes_differ_at_t4(run: Run) -> BothPictures:
    """P(Q1 reads |1> after the comparison step), i.e. the two records
    disagreed; closed form sin^2((theta-phi)/2).

    Descriptor route: <z1(4)> = 1/2 - 1/2 <q_z1(3) q_z4(3)>, cross-checked
    against the direct t=4 descriptor of Q1.  The pair read never forms
    the product q_z1(3) q_z4(3) that ``evolve`` builds for the comparison
    gate, so the two routes share no arithmetic after t=3.
    """
    heis = 0.5 - 0.5 * run.zz[1, RECORD_A - 1, RECORD_B - 1]
    direct = 0.5 + 0.5 * run.z[2, RECORD_A - 1]
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
    heis = 0.5 + 0.5 * run.z[1, RECORD_A - 1]
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


def _candidate_values(configs: Sequence[ExperimentConfig]) -> dict[str, np.ndarray]:
    """f(theta, phi) for each candidate closed form f, one value per config."""
    return {name: np.array([f(c.theta, c.phi) for c in configs]) for name, f in CANDIDATE_FORMULAS.items()}


# Two candidates count as distinguished at a point when their closed
# forms are more than this far apart.
_DISCRIMINATION_GAP = 1e-3


@dataclass(frozen=True)
class SignErrorAudit:
    """The simulated disagreement probability over a grid, one value per
    config, and its deviation from each candidate closed form."""

    configs: tuple[ExperimentConfig, ...]
    p_diff: np.ndarray
    deviations: Mapping[str, np.ndarray]
    matching: tuple[str, ...]


def sign_error_audit(grid: Iterable[ExperimentConfig]) -> SignErrorAudit:
    """Run the disagreement probability over a grid of angle pairs and
    score the three candidate formulas against it.

    The grid must distinguish every pair of candidates somewhere,
    otherwise the audit is vacuous and is rejected.
    """
    configs = tuple(grid)
    if not configs:
        raise ValueError("audit grid is empty")
    p_diff = prob_outcomes_differ_at_t4(simulate(configs)).require_agreement().schrodinger
    values = _candidate_values(configs)
    names = list(values)
    missing = [
        (a, b)
        for i, a in enumerate(names)
        for b in names[i + 1 :]
        if not np.any(abs(values[a] - values[b]) > _DISCRIMINATION_GAP)
    ]
    if missing:
        raise ValueError(
            "degenerate audit grid: candidate pairs "
            + ", ".join(f"{a}/{b}" for a, b in missing)
            + " coincide at every supplied point"
        )
    deviations = {name: abs(p_diff - value) for name, value in values.items()}
    matching = tuple(name for name, dev in deviations.items() if np.max(dev) <= ENGINE_ATOL)
    return SignErrorAudit(configs, p_diff, deviations, matching)


def default_difference_grid() -> tuple[float, ...]:
    """theta - phi values k*pi/12 for k = 0..24."""
    return tuple(k * math.pi / 12 for k in range(25))


def default_grid_configs() -> tuple[ExperimentConfig, ...]:
    """Default sweep: the difference grid at phi = 0, plus the equal-angle
    point (pi/4, pi/4) that separates difference- from sum-based formulas."""
    configs = [ExperimentConfig(d, 0.0) for d in default_difference_grid()]
    configs.append(ExperimentConfig(math.pi / 4, math.pi / 4))
    return tuple(configs)


def reports(run: Run) -> dict[str, np.ndarray]:
    """The report table of ``run``: the pre-comparison (t=2) statistics and
    the post-comparison (t=4) record, one column per field in CSV and JSON
    order, one value per config.  Every value is cross-checked between
    pictures first.  Headline values are the statevector-path numbers,
    deltas are the cross-engine gaps."""
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
    return {
        "theta": _per_config(run, lambda c: c.theta),
        "phi": _per_config(run, lambda c: c.phi),
        "p_joint_t2": p_joint.schrodinger,
        "corr_t2": corr.schrodinger,
        "p_diff_t4": p_diff.schrodinger,
        "lin_qz2_t2": lin2,
        "lin_qz3_t2": lin3,
        "p_record_t3": marginal.schrodinger,
        **{f"dev_{name}": abs(p_diff.schrodinger - value) for name, value in _candidate_values(run.configs).items()},
        "delta_p_joint_t2": p_joint.engine_delta,
        "delta_corr_t2": corr.engine_delta,
        "delta_p_diff_t4": p_diff.engine_delta,
    }
