"""Dual-picture qubit circuit simulator.

A dense statevector engine and a Heisenberg-picture Pauli-descriptor
engine evolve the same circuits side by side; every reported quantity is
cross-checked between the two and against closed forms.  The bundled
four-qubit record-and-compare experiment shows that its entangled-pair
correlations (including a CHSH violation) are already present at the
analyzer step, before the final comparison gate runs.  ``simulate`` evolves
that experiment for a whole grid of analyzer angles in one batched run.
"""

from .bell import (
    ChshSetting,
    TSIRELSON,
    canonical_setting,
    chsh,
    chsh_scan,
    correlation,
)
from .experiment import (
    ExperimentConfig,
    build_timeline,
    closed_form_descriptors_t2,
    default_difference_grid,
    default_grid_configs,
    descriptors_at_t2,
    joint_prob_both_one_at_t2,
    linear_terms_t2,
    prob_outcomes_differ_at_t4,
    record_marginal_t3,
    reports,
    sign_error_audit,
    simulate,
    sweep_reports,
)
from .gates import (
    Gate,
    analyzer_rotation,
    cnot,
    hadamard,
    pauli_x,
    pauli_y,
    pauli_z,
    random_circuit,
)
from .heisenberg import (
    conjugation_images,
    descriptor_expectation,
    evolve,
    evolve_circuit,
    init_descriptors,
    untouched_invariance_check,
)
from .pauli import (
    Axis,
    OperatorSum,
    PauliString,
    expectation_in_all_zeros,
    max_term_deviation,
    multiply_strings,
)
from .states import (
    StateVector,
    apply_circuit,
    apply_gate,
    basis_label,
    dump_csv,
    expectation,
    joint_probability,
    new_all_zeros,
    to_conventional,
)

__version__ = "0.1.0"

# Exactly the names that the demos and the tests import from the package.
__all__ = [
    "Axis",
    "ChshSetting",
    "ExperimentConfig",
    "Gate",
    "OperatorSum",
    "PauliString",
    "StateVector",
    "TSIRELSON",
    "analyzer_rotation",
    "apply_circuit",
    "apply_gate",
    "basis_label",
    "build_timeline",
    "canonical_setting",
    "chsh",
    "chsh_scan",
    "closed_form_descriptors_t2",
    "cnot",
    "conjugation_images",
    "correlation",
    "default_difference_grid",
    "default_grid_configs",
    "descriptor_expectation",
    "descriptors_at_t2",
    "dump_csv",
    "evolve",
    "evolve_circuit",
    "expectation",
    "expectation_in_all_zeros",
    "hadamard",
    "init_descriptors",
    "joint_prob_both_one_at_t2",
    "joint_probability",
    "linear_terms_t2",
    "max_term_deviation",
    "multiply_strings",
    "new_all_zeros",
    "pauli_x",
    "pauli_y",
    "pauli_z",
    "prob_outcomes_differ_at_t4",
    "random_circuit",
    "record_marginal_t3",
    "reports",
    "sign_error_audit",
    "simulate",
    "sweep_reports",
    "to_conventional",
    "untouched_invariance_check",
]
