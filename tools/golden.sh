#!/usr/bin/env bash
# Write the golden outputs of one checkout into OUTDIR, one file each:
#
#   tools/golden.sh CHECKOUT OUTDIR
#
# Every command runs the checkout's own source (PYTHONPATH=CHECKOUT/src)
# under `python -W error`, and the script exits non-zero as soon as one
# command fails or warns.  The largest outputs, the chsh scan CSV and the
# `sweep 4096` CSV and JSON (a MAX_BATCH table), are stored as their
# sha256.  The golden check of a change against its parent is
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
