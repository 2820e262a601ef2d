"""Self-test of the benchmark: exact counts must repeat.

Runs ``run.py --trace 1`` twice per workload at one seed, each in a fresh
process, and requires every exact per-layer metric (units ``count``, ``B``
and ``ratio``: timelines built, call counts, product pairs, term counts,
...) to be bit-for-bit equal.  Runs ``term_growth`` once more at a second
seed and requires the same there too, because its work depends only on
the circuit structure, not on the drawn angles.  Also requires every run
to report ``correct``.  Exits 1 on any mismatch.

    python3 perfbench/selftest.py

Each run measures for one second, which gives one untraced-plus-traced
round pair; the whole test takes about two minutes on a 2-core machine.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import EXACT_UNITS, ROOT

RUN = Path(__file__).resolve().with_name("run.py")
RUN_TIMEOUT_S = 600
SEED = 7
SECONDS = 1.0


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{proc.stdout}")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in EXACT_UNITS}


def diff(label: str, a: dict, b: dict) -> list[str]:
    return [f"{label}: {k} {a[k]!r} != {b.get(k)!r}" for k in a if a[k] != b.get(k)]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        first = traced_counts(workload, SEED)
        again = traced_counts(workload, SEED)
        problems += diff(f"{workload} seed {SEED} rerun", first, again)
        print(f"{workload}: {len(first)} exact counts compared across two runs", flush=True)
        if workload == "term_growth":
            other = traced_counts(workload, SEED + 1)
            problems += diff(f"term_growth seed {SEED + 1}", first, other)
            print(f"term_growth: same counts at seed {SEED + 1}: "
                  f"terms_max {other['heisenberg.terms_max']}, "
                  f"product_pairs {other['pauli.product_pairs']}", flush=True)
    for problem in problems:
        print("MISMATCH", problem)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
