#!/usr/bin/env bash
# Write the golden outputs of one checkout into OUTDIR, one file each:
#
#   tools/golden.sh CHECKOUT OUTDIR
#
# Every command runs the checkout's own source (PYTHONPATH=CHECKOUT/src)
# under `python -W error`, and the script exits non-zero as soon as one
# command fails or warns.  The largest outputs, the chsh scan CSV and the
# `sweep 4096` CSV and JSON (a MAX_BATCH table), are stored as their
# sha256, and so are the descriptors and the amplitudes of fixed circuit
# sets and the grouped descriptor reads of picture_equivalence (the last
# three entries).  The golden check of a change against its parent is
#
#   tools/golden.sh PARENT before && tools/golden.sh CHANGE after && diff -r before after
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 CHECKOUT OUTDIR" >&2
    exit 2
fi
checkout=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
export PYTHONPATH="$checkout/src"

# golden NAME ARGS...: qpictures ARGS, its stdout stored as OUTDIR/NAME.
golden() {
    local name=$1
    shift
    python -W error -m qpictures "$@" > "$out/$name"
}

golden verify.txt verify
golden verify.json verify --json
for pair in "0 0" "0.3 1.1" "pi/3 0" "pi/4 pi/4" "2.5 -0.7"; do
    # shellcheck disable=SC2086  # the pair is two arguments
    golden "epr ${pair//\//_}.json" epr $pair --format json --show-descriptors
done
golden "epr pi_3 0.txt" epr pi/3 0 --show-descriptors
golden "epr -pi_3 0.txt" epr -- -pi/3 0
golden "epr 0.3 1.1.csv" epr 0.3 1.1 --format csv
for step in 0 4; do
    golden "epr 0.3 1.1 dump-state $step.txt" epr 0.3 1.1 --dump-state "$step"
done
golden "sweep 64.csv" sweep 64
golden "sweep 24.json" sweep 24 --format json
python -W error -m qpictures sweep 4096 | sha256sum > "$out/sweep 4096.csv.sha256"
python -W error -m qpictures sweep 4096 --format json | sha256sum > "$out/sweep 4096.json.sha256"
python -W error -m qpictures chsh --scan pi/8 --format csv | sha256sum > "$out/chsh scan pi_8.csv.sha256"
golden "chsh scan pi_8.json" chsh --scan pi/8 --format json
golden "chsh setting.txt" chsh 0 pi/2 pi/4 3pi/4
golden "chsh setting.json" chsh 0 pi/2 pi/4 3pi/4 --format json
golden "chsh setting.csv" chsh 0 pi/2 pi/4 3pi/4 --format csv
for qubits in 2 3 4 5; do
    for seed in 0 1 2 3 4 5 6; do
        golden "picture-check $qubits $seed.txt" picture-check --qubits "$qubits" --depth 12 --seed "$seed"
    done
done
for demo in "$checkout"/demos/*.py; do
    python -W error "$demo" > "$out/demo $(basename "$demo" .py).txt"
done
# The sha256 of every descriptor (batch, keys, coefficients) after every
# step of seeded circuits at widths 2-8, stacked-rotation timelines and a
# width-6 brickwork, whose products take the dense route, then of one
# product over _PAIR_CHUNK term pairs, formed in row chunks.  No CLI
# command reaches either of those two product routes.
python -W error - > "$out/descriptors.sha256" <<'EOF'
import hashlib
import math

import numpy as np

from qpictures import (
    ExperimentConfig, OperatorSum, PauliString, analyzer_rotation, build_timeline, cnot, evolve, hadamard,
    init_descriptors, random_circuit,
)
from qpictures.pauli import _PAIR_CHUNK

digest = hashlib.sha256()


def feed(op):
    digest.update(f"{op.batch}".encode())
    digest.update(op._keys.tobytes())
    digest.update(op._coeffs.tobytes())


def run(width, gates):
    ds = init_descriptors(width)
    for gate in gates:
        ds = evolve(ds, gate)
        for _, op in sorted(ds.items()):
            feed(op)


rng = np.random.default_rng(21)
for width in range(2, 9):
    for _ in range(6):
        run(width, random_circuit(width, 16, rng))
for count in (1, 3, 8):
    angles = rng.uniform(-math.pi, math.pi, (count, 2))
    run(4, [gate for step in build_timeline([ExperimentConfig(*pair) for pair in angles]) for gate in step])
brickwork = []
for layer in range(7):
    brickwork += [analyzer_rotation(q, float(rng.uniform(0.0, 2.0 * math.pi))) for q in range(1, 7)]
    brickwork += [cnot(t, t + 1) for t in range(1 + layer % 2, 6, 2)]
    if layer % 3 == 2:
        brickwork += [hadamard(q) for q in range(1, 7)]
run(6, brickwork)
a, b = (
    OperatorSum(9, [(PauliString(9, int(key)), complex(*rng.normal(size=2))) for key in rng.choice(4**9, 1100, False)])
    for _ in range(2)
)
assert len(a) * len(b) > _PAIR_CHUNK
feed(a * b)
print(digest.hexdigest())
EOF
# The sha256 of the amplitudes apply_circuit gives for seeded circuits at
# widths 2-12 and one circuit of stacked rotations, so the bits of its
# fused single-qubit runs are pinned.
python -W error - > "$out/states.sha256" <<'EOF'
import hashlib
import math

import numpy as np

from qpictures import analyzer_rotation, apply_circuit, cnot, hadamard, new_all_zeros, pauli_y, random_circuit

digest = hashlib.sha256()


def feed(width, gates):
    state = apply_circuit(new_all_zeros(width), gates)
    digest.update(f"{state.batch}".encode())
    digest.update(state.amplitudes.tobytes())


rng = np.random.default_rng(22)
for width in range(2, 13):
    for _ in range(4):
        feed(width, random_circuit(width, 40, rng))
stacked = []
for layer in range(4):
    for q in range(1, 5):
        stacked += [analyzer_rotation(q, rng.uniform(0.0, 2.0 * math.pi, 3)), hadamard(q)]
        stacked += [analyzer_rotation(q, float(rng.uniform(0.0, 2.0 * math.pi))), pauli_y(q)][: 1 + layer % 2]
    stacked += [cnot(t, t + 1) for t in range(1 + layer % 2, 4, 2)]
feed(4, stacked)
print(digest.hexdigest())
EOF
# The sha256 of every descriptor-side (z, zz) read of picture_equivalence's
# circuits, each width's sets evolved in lockstep and read as one group, so
# the summation order of the group read is pinned.
python -W error - > "$out/reads.sha256" <<'EOF'
import hashlib

from qpictures import heisenberg, init_descriptors, verification

digest = hashlib.sha256()
circuits = verification._picture_circuits()
for width in sorted({width for width, _ in circuits}):
    group = [gates for w, gates in circuits if w == width]
    z, zz = heisenberg._z_moments_many(heisenberg._evolve_many([init_descriptors(width)] * len(group), group))
    digest.update(z.tobytes())
    digest.update(zz.tobytes())
print(digest.hexdigest())
EOF
