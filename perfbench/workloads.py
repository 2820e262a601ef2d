"""Workload inputs, operations and output checks for the qpictures benchmark.

Importing this module imports qpictures (and numpy through it), so the
set-up timer in ``run.py`` starts before the import.

Every workload is one caller in a closed loop: the next operation starts
when the previous one returns.  A workload's inputs are a pool of rounds
drawn from the seed at set-up; round ``j`` of a run uses pool entry
``j % POOL``, so the same seed gives the same inputs whatever the speed.

* ``timeline``: the paper's four-qubit experiment through
  ``qpictures.cli.main`` in-process.  Descriptors hold <= 4 terms and
  states 16 amplitudes, so per-call Python overhead sets the cost.
* ``term_growth``: seeded brickwork circuits through
  ``verification.compare_pictures``.  Descriptors reach ~10^3 terms, so
  Pauli products and merges dominate; the term count depends only on the
  circuit structure, so the work is the same for every seed.
* ``wide_state``: seeded ``gates.random_circuit`` at width 18 through
  ``compare_pictures``.  A 4 MiB state makes the dense engine dominate
  while descriptors stay small: the bypass workload for descriptor-side
  changes.  Width 18 rather than 20: with one BLAS thread a width-20
  check takes ~9 s, too few samples for a steady median in one run.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

import qpictures
from qpictures import cli, gates, heisenberg, verification
from qpictures.heisenberg import TERM_CAP, evolve_circuit, init_descriptors
from qpictures.pauli import MAX_WIDTH

WORKLOADS = ("timeline", "term_growth", "wide_state")

TOL_CLOSED_FORM = 1e-10
TOL_PICTURES = 1e-10
TOL_TSIRELSON = 1e-9
VERIFY_CHECKS = 11
TSIRELSON = 2.0 * math.sqrt(2.0)

# timeline
SCAN_STEP = "pi/8"
SCAN_ROWS = 16**4
SWEEP_POINTS = 64
EPR_PER_ROUND = 102
TIMELINE_POOL = 16

# term_growth: width 6 with 7 layers reaches 1652 terms per descriptor.
BRICK_WIDTH = 6
BRICK_LAYERS = 7
BRICK_POOL = 16

# wide_state: 2**18 amplitudes, 4 MiB per state.  One check's time depends
# on the circuit (1.5 s or 2.6 s on the reference machine, in a way the
# gate counts do not predict), so a run checks 16 distinct circuits, one
# a round, and its median round is taken over all of them.
WIDE_WIDTH = 18
WIDE_DEPTH = 100
WIDE_POOL = 16

# A workload must stay this far below the descriptor term cap.
TERM_HEADROOM = 4


class WorkloadSizeError(ValueError):
    """A workload's sizes break a program limit or come near one."""


@dataclass(frozen=True)
class Op:
    """One user-visible call: a CLI command line or one picture check."""

    kind: str
    argv: tuple[str, ...] = ()
    circuit: tuple = ()
    width: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    rounds: tuple[tuple[Op, ...], ...]
    inputs: dict
    # Every round does the same work up to angle values, so its exact
    # counts must match round 0's.
    uniform_rounds: bool

    def round(self, j: int) -> tuple[Op, ...]:
        return self.rounds[j % len(self.rounds)]


def _angle(rng: np.random.Generator) -> str:
    # Inside [0, 2pi): a leading '-' would read as a CLI option.
    return repr(float(rng.uniform(0.0, 2.0 * math.pi)))


def _timeline(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 0])
    rounds = []
    batch = (
        Op("verify", ("verify", "--json")),
        Op("chsh_scan", ("chsh", "--scan", SCAN_STEP, "--format", "csv")),
        Op("sweep", ("sweep", str(SWEEP_POINTS), "--format", "csv")),
    )
    for _ in range(TIMELINE_POOL):
        ops = []
        # The epr stream is split between the batch commands, so its
        # samples spread over the round instead of sharing one stretch of
        # machine load.
        for command in batch:
            ops.append(command)
            ops += [
                Op("epr", ("epr", _angle(rng), _angle(rng), "--format", "json"))
                for _ in range(EPR_PER_ROUND // len(batch))
            ]
        rounds.append(tuple(ops))
    inputs = {
        "width": 4,
        "timeline_gates": 7,
        "state_bytes": 16 * 2**4,
        "round": f"verify --json; chsh --scan {SCAN_STEP} --format csv; sweep {SWEEP_POINTS} --format csv; "
        f"each followed by {EPR_PER_ROUND // len(batch)} x epr THETA PHI --format json",
        "pool_rounds": TIMELINE_POOL,
    }
    return Workload("timeline", seed, tuple(rounds), inputs, uniform_rounds=True)


def brickwork(width: int, layers: int, rng: np.random.Generator) -> tuple:
    """Each layer: an analyzer rotation at a drawn angle on every qubit, a CN
    ladder on alternating offsets, and H on every qubit every third layer."""
    out = []
    for layer in range(layers):
        out += [gates.analyzer_rotation(q, float(rng.uniform(0.0, 2.0 * math.pi))) for q in range(1, width + 1)]
        out += [gates.cnot(t, t + 1) for t in range(1 + layer % 2, width, 2)]
        if layer % 3 == 2:
            out += [gates.hadamard(q) for q in range(1, width + 1)]
    return tuple(out)


def _check_circuit(circuit, width: int) -> None:
    if not 1 <= width <= MAX_WIDTH:
        raise WorkloadSizeError(f"width {width} outside the program's 1..{MAX_WIDTH}")
    if not circuit:
        raise WorkloadSizeError("empty circuit")
    for gate in circuit:
        if not all(1 <= q <= width for q in gate.qubits):
            raise WorkloadSizeError(f"{gate!r} acts outside width {width}")


def _circuits(name: str, seed: int, width: int, build, pool: int, shape: dict, uniform: bool) -> Workload:
    rng = np.random.default_rng([seed, 0])
    circuits = [build(rng) for _ in range(pool)]
    for circuit in circuits:
        _check_circuit(circuit, width)
    rounds = tuple((Op("circuit_check", circuit=c, width=width),) for c in circuits)
    counts = [len(c) for c in circuits]
    inputs = {
        "width": width,
        **shape,
        "pool_circuits": pool,
        "gates_per_circuit": {"min": min(counts), "max": max(counts)},
        "state_bytes": 16 * 2**width,
    }
    return Workload(name, seed, rounds, inputs, uniform_rounds=uniform)


def generate(name: str, seed: int) -> Workload:
    """The workload's inputs, drawn from ``seed`` alone."""
    if name == "timeline":
        return _timeline(seed)
    if name == "term_growth":
        return _circuits(
            name, seed, BRICK_WIDTH,
            lambda rng: brickwork(BRICK_WIDTH, BRICK_LAYERS, rng),
            BRICK_POOL, {"layers": BRICK_LAYERS}, uniform=True,
        )
    if name == "wide_state":
        return _circuits(
            name, seed, WIDE_WIDTH,
            lambda rng: gates.random_circuit(WIDE_WIDTH, WIDE_DEPTH, rng),
            WIDE_POOL, {"depth": WIDE_DEPTH}, uniform=False,
        )
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def check_term_headroom(max_terms: int) -> None:
    """Fail unless the largest descriptor stays well below ``TERM_CAP``."""
    if max_terms * TERM_HEADROOM > TERM_CAP:
        raise WorkloadSizeError(
            f"descriptors reach {max_terms} terms, within {TERM_HEADROOM}x of TERM_CAP={TERM_CAP}"
        )


def max_descriptor_terms(wl: Workload) -> int:
    """Largest descriptor after evolving round 0's circuits (0 if none)."""
    sizes = [
        len(d)
        for op in wl.round(0) if op.kind == "circuit_check"
        for _, d in evolve_circuit(init_descriptors(op.width), op.circuit).items()
    ]
    return max(sizes, default=0)


# -- running and checking one operation ---------------------------------------


def reset_caches() -> None:
    """Empty the program's conjugation-image cache, as a new process has it."""
    heisenberg._IMAGE_CACHE.clear()


def run(op: Op):
    """Call the program for ``op`` and return its raw output."""
    if op.kind == "circuit_check":
        return verification.compare_pictures(op.circuit, op.width)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
    return rc, buf.getvalue()


def _closed_form_errors(values: dict, diff: float) -> list[str]:
    want = {
        "p_joint_t2": 0.5 * math.cos(diff / 2) ** 2,
        "corr_t2": math.cos(diff),
        "p_diff_t4": math.sin(diff / 2) ** 2,
        "p_record_t3": 0.5,
        "lin_qz2_t2": 0.0,
        "lin_qz3_t2": 0.0,
        "delta_p_joint_t2": 0.0,
        "delta_corr_t2": 0.0,
        "delta_p_diff_t4": 0.0,
    }
    return [
        f"{key}={float(values[key])!r}, want {expected!r}"
        for key, expected in want.items()
        if not abs(float(values[key]) - expected) <= TOL_CLOSED_FORM
    ]


def _check_verify(text: str) -> list[str]:
    payload = json.loads(text)
    errors = []
    if payload.get("all_passed") is not True:
        errors.append("all_passed is not true")
    checks = payload.get("checks", [])
    if len(checks) != VERIFY_CHECKS or len({c["name"] for c in checks}) != VERIFY_CHECKS:
        errors.append(f"{len(checks)} checks, want {VERIFY_CHECKS} distinct")
    errors += [f"check {c['name']} failed" for c in checks if c.get("passed") is not True]
    return errors


def _check_scan(text: str) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != "a,a_prime,b,b_prime,S,violation":
        return ["bad CSV header"]
    rows = lines[1:]
    if len(rows) != SCAN_ROWS:
        return [f"{len(rows)} scan rows, want {SCAN_ROWS}"]
    max_s = max(abs(float(row.split(",")[4])) for row in rows)
    if not abs(max_s - TSIRELSON) <= TOL_TSIRELSON:
        return [f"max |S| = {max_s!r}, want 2*sqrt(2)"]
    return []


def _check_sweep(text: str) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != SWEEP_POINTS:
        return [f"{len(rows)} sweep rows, want {SWEEP_POINTS}"]
    errors = []
    for k, row in enumerate(rows):
        errors += [f"row {k}: {e}" for e in _closed_form_errors(row, k * 2.0 * math.pi / SWEEP_POINTS)]
    return errors


def _check_epr(text: str, argv) -> list[str]:
    theta, phi = float(argv[1]), float(argv[2])
    return _closed_form_errors(json.loads(text), theta - phi)


def check(op: Op, output) -> list[str]:
    """Reasons the output is wrong; empty when it passes every check."""
    if op.kind == "circuit_check":
        if not output <= TOL_PICTURES:
            return [f"picture deviation {output!r} > {TOL_PICTURES}"]
        return []
    rc, text = output
    if rc != 0:
        return [f"exit code {rc!r}"]
    if op.kind == "verify":
        return _check_verify(text)
    if op.kind == "chsh_scan":
        return _check_scan(text)
    if op.kind == "sweep":
        return _check_sweep(text)
    if op.kind == "epr":
        return _check_epr(text, op.argv)
    raise ValueError(f"unknown op kind {op.kind!r}")


def check_names() -> list[str]:
    """The verification registry's check names, as ``verify`` prints them."""
    return [c.__name__.removeprefix("check_") for c in verification.ALL_CHECKS]

