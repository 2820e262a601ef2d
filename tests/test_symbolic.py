"""A symbolic oracle: the experiment's closed forms derived, not typed.

The timeline is rebuilt here with sympy from the conventions the README
states, not from the arrays in ``qpictures.gates``: kets ordered
|1> = (1,0)^T, |0> = (0,1)^T with qubit 1 the slowest tensor slot,
R(angle) = exp(+i angle sigma_x / 2), and ``cnot(target, control)``
toggling the target when the control reads |1>.  The headline
identities are then proved for symbolic angles, the t=2 descriptors are
derived by conjugation (the Deutsch-Hayden descriptor algebra,
quant-ph/9906007), and the hand-typed closed forms and both numeric
engines are checked against the lambdified results.
"""
import functools

import numpy as np
import sympy as sp

from qpictures import (
    ExperimentConfig,
    OperatorSum,
    closed_form_descriptors_t2,
    default_grid_configs,
    descriptors_at_t2,
    joint_prob_both_one_at_t2,
    max_term_deviation,
    prob_outcomes_differ_at_t4,
    record_marginal_t3,
    simulate,
)
from dense import terms
from qpictures.experiment import CANDIDATE_FORMULAS, ENGINE_ATOL, correlation_t2

THETA, PHI = sp.symbols("theta phi", real=True)

KET1, KET0 = sp.Matrix([1, 0]), sp.Matrix([0, 1])
I2 = sp.eye(2)
PAULI = {
    "I": I2,
    "X": sp.Matrix([[0, 1], [1, 0]]),
    "Y": sp.Matrix([[0, -sp.I], [sp.I, 0]]),
    "Z": sp.Matrix([[1, 0], [0, -1]]),
}
P1, P0 = KET1 * KET1.T, KET0 * KET0.T
# H|1> = (|1> + |0>)/sqrt(2) and H|0> = (|1> - |0>)/sqrt(2); the entangler
# test pins this against the documented t=1 state.
H = ((KET1 + KET0) * KET1.T + (KET1 - KET0) * KET0.T) / sp.sqrt(2)


def rotation(angle):
    """exp(+i angle sigma_x / 2), since sigma_x squares to the identity."""
    return sp.cos(angle / 2) * I2 + sp.I * sp.sin(angle / 2) * PAULI["X"]


def embed(width, ops):
    """The Kronecker product over qubits 1..width (qubit 1 slowest) of
    ``ops[q]``, or the identity on a qubit ``ops`` leaves out."""
    return functools.reduce(sp.kronecker_product, [ops.get(q, I2) for q in range(1, width + 1)])


def cnot(width, target, control):
    """Toggle ``target`` when ``control`` reads |1>."""
    return embed(width, {control: P1, target: PAULI["X"]}) + embed(width, {control: P0})


def same(a, b) -> bool:
    return sp.simplify(a - b) == 0


@functools.cache
def timeline_states():
    """The four-qubit state after each step t = 0..4."""
    steps = (
        (embed(4, {3: H}), cnot(4, 2, 3)),
        (embed(4, {2: rotation(THETA)}), embed(4, {3: rotation(PHI)})),
        (cnot(4, 1, 2), cnot(4, 4, 3)),
        (cnot(4, 1, 4),),
    )
    psi = functools.reduce(sp.kronecker_product, [KET0] * 4)
    states = [psi]
    for step in steps:
        for gate in step:
            psi = gate * psi
        states.append(psi)
    return states


def expectation(t, ops):
    psi = timeline_states()[t]
    return sp.simplify((psi.H * embed(4, ops) * psi)[0])


@functools.cache
def derived():
    """Every headline quantity as a simplified expression in theta, phi."""
    return {
        "corr_t2": expectation(2, {2: PAULI["Z"], 3: PAULI["Z"]}),
        "p_joint_t2": expectation(2, {2: P1, 3: P1}),
        "p_record_t3": expectation(3, {1: P1}),
        "p_diff_t4": expectation(4, {1: P1}),
    }


@functools.cache
def derived_descriptors_t2():
    """q_z of Q2 and of Q3 at t=2, as {Pauli string: coefficient}.  Q1 and
    Q4 are untouched before t=3, so the conjugation runs in the two-qubit
    space of (Q2, Q3)."""
    u = embed(2, {1: rotation(THETA), 2: rotation(PHI)}) * cnot(2, 1, 2) * embed(2, {2: H})
    out = []
    for slot in (1, 2):
        image = u.H * embed(2, {slot: PAULI["Z"]}) * u
        coeffs = {}
        for a in "IXYZ":
            for b in "IXYZ":
                coeff = sp.simplify((embed(2, {1: PAULI[a], 2: PAULI[b]}).H * image).trace() / 4)
                if coeff != 0:
                    coeffs[" ".join(f"{p}{q}" for p, q in ((a, 2), (b, 3)) if p != "I")] = coeff
        out.append(coeffs)
    return tuple(out)


# The default grid, plus points where phi is neither 0 nor theta.
GRID = default_grid_configs() + tuple(ExperimentConfig(t, p) for t in (0.3, 2.0, 4.1) for p in (0.9, 2.5, 5.2))


def on_grid(expr):
    """``expr`` evaluated at every config of GRID."""
    theta = np.array([c.theta for c in GRID])
    phi = np.array([c.phi for c in GRID])
    return np.broadcast_to(sp.lambdify((THETA, PHI), expr, "numpy")(theta, phi), theta.shape)


def test_entangler_prepares_the_documented_pair():
    # (|1,1> - |0,0>)/sqrt(2) on (Q2, Q3), both records still |0>
    pair = (sp.kronecker_product(KET1, KET1) - sp.kronecker_product(KET0, KET0)) / sp.sqrt(2)
    want = functools.reduce(sp.kronecker_product, [KET0, pair, KET0])
    assert sp.simplify(timeline_states()[1] - want) == sp.zeros(16, 1)


def test_rotation_image_follows_the_readme():
    r = rotation(THETA)
    image = r.H * PAULI["Z"] * r
    assert sp.simplify(image - (sp.cos(THETA) * PAULI["Z"] - sp.sin(THETA) * PAULI["Y"])) == sp.zeros(2, 2)


def test_correlation_at_t2():
    assert same(derived()["corr_t2"], sp.cos(THETA - PHI))


def test_joint_probability_at_t2():
    assert same(derived()["p_joint_t2"], sp.cos((THETA - PHI) / 2) ** 2 / 2)


def test_record_marginal_at_t3_is_half():
    assert same(derived()["p_record_t3"], sp.Rational(1, 2))


def test_disagreement_at_t4():
    assert same(derived()["p_diff_t4"], sp.sin((THETA - PHI) / 2) ** 2)


def test_disagreement_is_fixed_before_the_comparison():
    # The paper's point: the t=4 disagreement probability is set by the
    # t=2 correlation, which exists before the comparison gate runs.
    assert same(derived()["p_diff_t4"], (1 - derived()["corr_t2"]) / 2)


def test_descriptors_at_t2_match_closed_form_term_for_term():
    run = simulate(GRID)
    for want, closed, engine in zip(derived_descriptors_t2(), closed_form_descriptors_t2(run), descriptors_at_t2(run)):
        got = OperatorSum(4, [(string, on_grid(coeff)) for string, coeff in want.items()])
        assert [s for s, _ in terms(got)] == [s for s, _ in terms(closed)]
        assert max_term_deviation(got, closed) <= 1e-12
        assert max_term_deviation(got, engine) <= 1e-12


def test_every_picture_matches_the_derived_forms():
    run = simulate(GRID)
    quantities = {
        "corr_t2": correlation_t2(run),
        "p_joint_t2": joint_prob_both_one_at_t2(run),
        "p_record_t3": record_marginal_t3(run),
        "p_diff_t4": prob_outcomes_differ_at_t4(run),
    }
    for name, both in quantities.items():
        want = on_grid(derived()[name])
        for field in ("closed", "heisenberg", "schrodinger"):
            assert np.max(np.abs(getattr(both, field) - want)) <= ENGINE_ATOL, (name, field)
    candidate = [CANDIDATE_FORMULAS["sin2_half_diff"](c.theta, c.phi) for c in GRID]
    assert np.max(np.abs(np.array(candidate) - on_grid(derived()["p_diff_t4"]))) <= ENGINE_ATOL
