"""Which verification checks catch which physics fault.

Each row injects one fault with monkeypatch and names the registry
checks that must then fail.  Only the named checks run, and a check that
raises counts as failed, as in ``run_all_checks``.  A check may newly
catch a fault; a named check that stops catching it fails its row.

``record_cnot_touches_distant_descriptors`` patches the ``evolve``
binding in ``verification``, which only ``descriptor_locality`` calls:
the near arm's record CNOT, CN on Q1 and Q2, also rescales the distant
Q3's three descriptors by one ulp.  Every read tolerance is far above
that, so the row holds the locality check's own rule to account: by
the record step all three of Q3's descriptors act on Q2, so a rule that
skipped descriptors whose support meets the gate's qubits would miss it.

``single_descriptor_read_negated`` negates the single read behind
``descriptor_expectation``; ``picture_equivalence`` reads its singles off
the pair pass (``heisenberg._z_moments_many``), so
``group_single_read_negated`` negates those.

``fused_run_order_reversed`` multiplies each fused run of
``states.apply_circuit`` last gate first.  No other check can see it:
``picture_equivalence`` is the only check whose circuits put two
single-qubit gates in a row on one qubit; no timeline step contains such
a run, and ``entangled_state``'s circuit is H then CN.

Faults not tested here, with the reason:

* The pair read's operands swapped (``pair_expectation_in_all_zeros(b,
  a)``), the pair matrix transposed (``pauli.pair_matrix_in_all_zeros``
  returning ``ket @ bra.T``) and ``states.z_moments``' ``zz`` transposed
  are equivalent faults: the z descriptors commute, so <0|b a|0> =
  <0|a b|0>, and both ``zz`` matrices are symmetric.
* ``pauli._dense_product`` conjugating its result fails no registry
  check: no CLI command reaches the dense route (CLI products form at
  most 24 term pairs, the route starts at 1024), so ``verify`` cannot
  see it.  Its guards are tier-1's ``TestDenseRoute`` in
  ``test_pauli.py``, which compares the dense route with the pair route
  through ``a * b``, and the ``descriptors.sha256`` golden output of
  ``tools/golden.sh``, whose width-6 brickwork takes the dense route.
* The descriptor step (``heisenberg._step``, behind both ``evolve`` and
  the lockstep ``_evolve_many``) dropping the last factor of a
  three-factor term fails no registry check: no catalog gate has arity 3.
  The 3-qubit Haar-random unitary tests in ``test_heisenberg.py``, which
  hold every step of both paths to ``tests/dense.py``'s
  ``reference_step``, are its only guard.
"""
import importlib
import math
import pkgutil
from types import MappingProxyType

import numpy as np
import pytest

import qpictures
from qpictures import experiment, gates, heisenberg, pauli, states, verification
from qpictures.verification import ALL_CHECKS

CHECKS = {check.__name__.removeprefix("check_"): check for check in ALL_CHECKS}


def _rotation_minus(angle):
    """R = exp(-i*angle*sigma_x/2), the opposite sign convention.  It builds
    a stack itself: a wrapper around ``gates.rotation_matrix`` would be
    applied twice on a stack, which that function builds by calling itself
    through the module global."""
    if np.ndim(angle):
        return np.stack([_rotation_minus(float(a)) for a in angle])
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _products_without_cross_term(keys_a, keys_b):
    """``pauli._string_products`` with the 2 |z_a x_b| phase term dropped."""
    xa, za = pauli._x_z(keys_a)
    xb, zb = pauli._x_z(keys_b)
    x, z = xa ^ xb, za ^ zb
    exponents = (np.bitwise_count(xa & za) + np.bitwise_count(xb & zb) + 3 * np.bitwise_count(x & z)) & 3
    return keys_a ^ keys_b, exponents


def _evolve_touching_distant(ds, gate):
    """``heisenberg.evolve``, except that a CN on Q1 and Q2 also rescales
    Q3's three descriptors by 1 + 2**-52."""
    after = _evolve(ds, gate)
    if gate.name != "CN" or set(gate.qubits) != {1, 2}:
        return after
    table = dict(after.items())
    for axis in (pauli.Axis.X, pauli.Axis.Y, pauli.Axis.Z):
        table[(3, axis)] = (1 + 2**-52) * table[(3, axis)]
    return heisenberg.DescriptorSet(after.width, after.step, MappingProxyType(table))


def _bra_rows_as_ket_rows(op):
    """``pauli._reference_images`` with the bra rows replaced by the ket
    rows, so the bra phases are not conjugated."""
    masks, ket, _ = _reference_images(op)
    return masks, ket, ket


def _group_singles_negated(groups):
    """``pauli.pair_matrix_in_all_zeros`` with every single negated."""
    singles, pairs = _pair_matrix(groups)
    return -singles, pairs


_evolve = heisenberg.evolve
_single_read = pauli.expectation_in_all_zeros
_pair_matrix = pauli.pair_matrix_in_all_zeros
_reference_images = pauli._reference_images
_joint_probability = states.joint_probability
_fused = states._fused

# fault -> (module, attribute, faulty value), and the checks that must fail.
FAULTS = {
    "hadamard_rows_swapped": (
        (gates, "H_MATRIX", np.array([[1, 1], [-1, 1]], dtype=complex) / math.sqrt(2)),
        {"entangled_state", "analyzer_descriptors", "zz_correlation", "joint_probability",
         "sign_error_audit", "bell_violation"},
    ),
    "cnot_control_and_target_swapped": (
        (gates, "CN_MATRIX", np.eye(4, dtype=complex)[[1, 0, 2, 3]]),
        set(CHECKS) - {"picture_equivalence", "descriptor_locality"},
    ),
    "rotation_sign_flipped": (
        (gates, "rotation_matrix", _rotation_minus),
        {"analyzer_descriptors"},
    ),
    "string_product_cross_phase_dropped": (
        (pauli, "_string_products", _products_without_cross_term),
        {"sign_error_audit", "picture_equivalence"},
    ),
    "single_descriptor_read_negated": (
        (heisenberg, "expectation_in_all_zeros", lambda op: -_single_read(op)),
        {"sign_error_audit"},
    ),
    "group_single_read_negated": (
        (heisenberg, "pair_matrix_in_all_zeros", _group_singles_negated),
        {"picture_equivalence"},
    ),
    "pair_read_bra_not_conjugated": (
        (pauli, "_reference_images", _bra_rows_as_ket_rows),
        {"zz_correlation", "joint_probability", "sign_error_audit", "picture_equivalence", "bell_violation"},
    ),
    "experiment_ket_values_swapped": (
        (experiment, "joint_probability",
         lambda state, outcome: _joint_probability(state, {q: 1 - v for q, v in outcome.items()})),
        {"sign_error_audit"},
    ),
    "image_tolerance_loosened": (
        (heisenberg, "_IMAGE_TOL", 2e-2),
        {"picture_equivalence"},
    ),
    "prune_tolerance_loosened": (
        (pauli, "PRUNE_TOL", 1e-2),
        {"picture_equivalence"},
    ),
    "fused_run_order_reversed": (
        (states, "_fused", lambda run: _fused(run[::-1])),
        {"picture_equivalence"},
    ),
    "record_cnot_touches_distant_descriptors": (
        (verification, "evolve", _evolve_touching_distant),
        {"descriptor_locality"},
    ),
}


def _memos():
    """Every memo in the package's modules: each function with
    ``cache_clear``, and each private module-level dict or set (in the
    package, those are all memos)."""
    for info in pkgutil.iter_modules(qpictures.__path__):
        module = importlib.import_module(f"qpictures.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear"):
                yield value
            elif name.startswith("_") and not name.startswith("__") and type(value) in (dict, set):
                yield value


def _clear_caches():
    """Forget everything every memo holds, so a fault reaches all of it and
    leaves none of it behind."""
    for memo in _memos():
        if hasattr(memo, "cache_clear"):
            memo.cache_clear()
        else:
            memo.clear()


def _fails(check) -> bool:
    try:
        return not check().passed
    except Exception:
        return True


def test_clear_caches_empties_every_memo():
    verification.run_all_checks()
    memos = list(_memos())
    for table in (heisenberg._IMAGE_CACHE, experiment._PREFIX, states._SINGLE_ROWS, heisenberg._factor_runs):
        assert any(memo is table for memo in memos)
    assert heisenberg._IMAGE_CACHE and experiment._PREFIX and states._SINGLE_ROWS
    _clear_caches()
    for memo in memos:
        assert (memo.cache_info().currsize if hasattr(memo, "cache_clear") else len(memo)) == 0, memo


def test_every_named_check_is_registered():
    for _, must_fail in FAULTS.values():
        assert must_fail <= set(CHECKS)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_fails_its_checks(fault):
    (owner, attr, value), must_fail = FAULTS[fault]
    _clear_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(owner, attr, value)
            _clear_caches()
            missed = sorted(name for name in must_fail if not _fails(CHECKS[name]))
    finally:
        _clear_caches()
    assert not missed, f"{fault} slipped past {missed}"
