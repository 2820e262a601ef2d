"""Benchmark for qpictures: end-to-end timings or a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload timeline --seed 1 --seconds 40 --trace 0

The program under test is ``src/qpictures`` of that checkout; an
installed copy is never used.  The run prints a report, then as its last
line one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are BENCHMARK.json's
``end_to_end`` list, measured untraced; with ``--trace 1`` they are its
``per_layer`` list, from rounds run with every qpictures module wrapped
(see spans.py).  The full report, and in traced runs the spans of the
first traced round, are written under ``.bench_out/``.

Each run is one caller in a closed loop on one thread: BLAS threads are
set to 1 unless the environment sets them (the report records the
setting).  Rounds run until the next one, predicted from the median so
far, would take the rounds' total past ``--seconds``; at least one round
always runs.  Set-up probes run between rounds, outside that total.
End-to-end times are reference seconds: wall seconds scaled to a fixed
CPU speed measured while they run (see speed.py); the report keeps the
wall medians too.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Speedometer

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
# Set-up is timed in fresh interpreters: one discarded warm-up probe, then
# this many timed ones spread over the run, whose median is setup_s.
SETUP_SAMPLES = 11
SETUP_PROBE_TIMEOUT_S = 60

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Metrics in these units are counts, or ratios of counts, and repeat
# exactly at a fixed seed; the others are times and rates.
EXACT_UNITS = ("count", "B", "ratio")


class BenchmarkError(Exception):
    """The benchmark cannot produce a valid result."""


def _import_workloads():
    """Import the workload module, and through it the checkout's qpictures;
    refuse any other copy of qpictures."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import workloads

    package = Path(workloads.qpictures.__file__).resolve()
    if src.resolve() not in package.parents:
        raise BenchmarkError(f"qpictures imported from {package}, not from {src}")
    return workloads


def setup_probe(workload: str, seed: int) -> dict:
    """Wall and reference seconds to import qpictures and generate the
    workload's inputs."""
    meter = Speedometer()
    with meter:
        t0 = time.perf_counter()
        workloads = _import_workloads()
        workloads.generate(workload, seed)
        wall = time.perf_counter() - t0 - meter.spent
    return {"wall_s": wall, "ref_s": wall * meter.scale(),
            "loop_s": meter.loop_s()}


def measure_setup(workload: str, seed: int, count: int) -> list[dict]:
    """``count`` set-up times in fresh interpreters, as each CLI invocation
    pays them."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


# -- environment ----------------------------------------------------------------


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _llc_bytes() -> int | None:
    try:
        proc = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=5)
        return int(proc.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def environment() -> dict:
    # Imported here, not at the top: the set-up probe must pay for numpy.
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
        "llc_bytes": _llc_bytes(),
    }


# -- rounds ---------------------------------------------------------------------


def run_round(workloads, ops, tracer=None, meter=None) -> list[dict]:
    """Run one round's operations in order; time each program call and
    check its output.  A raised exception is a failed operation.  Time
    spent in ``meter``'s samples is not counted."""
    records = []
    for i, op in enumerate(ops):
        spent = meter.spent if meter else 0.0
        t0 = time.perf_counter()
        errors = None
        try:
            if tracer is None:
                output = workloads.run(op)
            else:
                tracer.op = i
                output = tracer.call(tracer.intern(f"bench.{op.kind}"), workloads.run, op)
        except Exception as exc:  # every program failure counts, none is skipped
            errors = [f"raised {exc!r}"]
        seconds = time.perf_counter() - t0 - ((meter.spent - spent) if meter else 0.0)
        if errors is None:
            try:
                errors = workloads.check(op, output)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                errors = [f"unreadable output: {exc!r}"]
        records.append({"kind": op.kind, "seconds": seconds, "errors": errors})
    return records


def _round_seconds(records) -> float:
    return sum(r["seconds"] for r in records)


def _loop(seconds: float, one_round, between=None) -> None:
    """Call ``one_round(j)`` for j = 0, 1, ... until the next round, predicted
    from the median round so far, would take the rounds' total wall time
    past ``seconds``.  After each round, ``between(total)`` runs outside
    that total."""
    walls: list[float] = []
    while True:
        t0 = time.perf_counter()
        one_round(len(walls))
        walls.append(time.perf_counter() - t0)
        if between is not None:
            between(sum(walls))
        if sum(walls) + statistics.median(walls) > seconds:
            return


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def _by_kind(workloads, records) -> tuple[dict, dict]:
    """Per-command figures and their sample counts.  A percentile is given
    only where at least ten samples lie beyond it."""
    samples: dict[str, list[float]] = {}
    for r in records:
        samples.setdefault(r["kind"], []).append(r["ref_seconds"])
    figures = {}
    for kind, name in (("verify", "verify_s"), ("chsh_scan", "chsh_scan_s"), ("circuit_check", "circuit_check_s")):
        if kind in samples:
            figures[name] = statistics.median(samples[kind])
    if "sweep" in samples:
        figures["sweep_pairs_per_s"] = workloads.SWEEP_POINTS / statistics.median(samples["sweep"])
    if "epr" in samples:
        epr = samples["epr"]
        figures["epr_ms_p50"] = statistics.median(epr) * 1000.0
        if len(epr) - math.ceil(0.9 * len(epr)) >= 10:
            figures["epr_ms_p90"] = _percentile(epr, 0.9) * 1000.0
    return figures, {kind: len(v) for kind, v in samples.items()}


def _failures(records) -> list[str]:
    return [f"{r['kind']}: {e}" for r in records for e in r["errors"]]


def untraced(workloads, wl, seconds: float) -> tuple[dict, dict]:
    """End-to-end run.  Returns (every end-to-end figure, report)."""
    records: list[dict] = []
    rounds: list[dict] = []
    setup: list[dict] = []
    measure_setup(wl.name, wl.seed, 1)  # warm-up, discarded
    meter = Speedometer()

    def one_round(j):
        with meter:
            recs = run_round(workloads, wl.round(j), meter=meter)
        scale = meter.scale()
        for r in recs:
            r["ref_seconds"] = r["seconds"] * scale
        records.extend(recs)
        wall = _round_seconds(recs)
        rounds.append({"wall_s": wall, "ref_s": wall * scale,
                       "loop_samples": len(meter.samples), "loop_s": meter.loop_s()})

    def probes(busy):
        # Spread the set-up probes over the run, between rounds, so their
        # median sees the machine over the same stretch as the rounds do.
        due = min(SETUP_SAMPLES, math.ceil(SETUP_SAMPLES * busy / seconds))
        setup.extend(measure_setup(wl.name, wl.seed, due - len(setup)))

    _loop(seconds, one_round, probes)
    setup.extend(measure_setup(wl.name, wl.seed, SETUP_SAMPLES - len(setup)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    max_terms = workloads.max_descriptor_terms(wl)
    workloads.check_term_headroom(max_terms)
    failed = sum(1 for r in records if r["errors"])
    by_kind, samples = _by_kind(workloads, records)
    figures = {
        "setup_s": statistics.median(p["ref_s"] for p in setup),
        "setup_wall_s": statistics.median(p["wall_s"] for p in setup),
        "round_ref_s": statistics.median(r["ref_s"] for r in rounds),
        "round_wall_s": statistics.median(r["wall_s"] for r in rounds),
        "peak_rss_mb": rss_mb,
        "ops_failed_ratio": failed / len(records),
        **by_kind,
    }
    report = {
        "attempted": len(records),
        "failed": failed,
        "failures": _failures(records)[:20],
        "rounds": len(rounds),
        "samples": samples,
        "round_samples": rounds,
        "setup_samples": setup,
        "max_descriptor_terms": max_terms,
    }
    return figures, report


def traced(workloads, wl, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer run: each round runs untraced, then traced on the same
    inputs.  Returns (every per-layer figure, report)."""
    from spans import Tracer

    names = workloads.check_names()
    records: list[dict] = []
    per_round: list[dict] = []
    untraced_s: list[float] = []
    traced_s: list[float] = []
    mismatches: list[str] = []

    def one_round(j):
        ops = wl.round(j)
        tracer = Tracer()

        def plain_round():
            workloads.reset_caches()
            return run_round(workloads, ops)

        def spanned_round():
            workloads.reset_caches()
            tracer.install()
            try:
                return run_round(workloads, ops, tracer)
            finally:
                tracer.uninstall()

        # Both halves start from an empty image cache, so the second does
        # not reuse the first's images.  Alternate which half runs first,
        # so other warm-up effects do not bias the overhead one way.
        if j % 2 == 0:
            plain = plain_round()
            spanned = spanned_round()
        else:
            spanned = spanned_round()
            plain = plain_round()
        if j == 0:
            tracer.save_spans(spans_path)
        records.extend(plain + spanned)
        untraced_s.append(_round_seconds(plain))
        traced_s.append(_round_seconds(spanned))
        per_round.append(tracer.metrics(names))

    _loop(seconds, one_round)
    first = per_round[0]
    figures = {}
    for key, value in first.items():
        if _unit(key) in EXACT_UNITS:
            figures[key] = value
            if wl.uniform_rounds:
                mismatches += [
                    f"round {j}: {key}={m[key]!r}, round 0 gave {value!r}"
                    for j, m in enumerate(per_round[1:], start=1)
                    if m[key] != value
                ]
        else:
            figures[key] = statistics.median(m[key] for m in per_round)
    figures["trace.overhead_s"] = statistics.median(t - u for u, t in zip(untraced_s, traced_s))
    figures["trace.untraced_round_s"] = statistics.median(untraced_s)
    figures["trace.traced_round_s"] = statistics.median(traced_s)
    workloads.check_term_headroom(first["heisenberg.terms_max"])
    report = {
        "attempted": len(records),
        "failed": sum(1 for r in records if r["errors"]),
        "failures": _failures(records)[:20],
        "count_mismatches": mismatches[:20],
        "rounds": len(per_round),
        "round_pairs_s": [{"untraced": u, "traced": t} for u, t in zip(untraced_s, traced_s)],
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return figures, report


def _unit(name: str) -> str:
    """A metric's unit, from the suffix of its name's first component after
    the layer (``heisenberg.evolve_s.rotation`` is in seconds)."""
    stem = name.split(".")[1] if "." in name else name
    for suffix, unit in (
        ("_ms_p50", "ms"), ("_ms_p90", "ms"), ("_per_s", "1/s"), ("_mb", "MB"), ("_gbps", "GB/s"),
        ("_ratio", "ratio"), ("_bytes", "B"), ("_s", "s"),
    ):
        if stem.endswith(suffix):
            return unit
    return "count"


# -- output ---------------------------------------------------------------------


def _select(figures: dict, spec: list[dict]) -> dict:
    """Exactly the metrics BENCHMARK.json lists, with its units."""
    out = {}
    for entry in spec:
        if entry["name"] not in figures:
            raise BenchmarkError(f"BENCHMARK.json names {entry['name']!r}, which this run does not measure")
        if entry["unit"] != _unit(entry["name"]):
            raise BenchmarkError(f"BENCHMARK.json gives {entry['name']!r} unit {entry['unit']!r}, not {_unit(entry['name'])!r}")
        out[entry["name"]] = {"value": figures[entry["name"]], "unit": entry["unit"]}
    return out


def _print_report(report: dict, figures: dict) -> None:
    env, inputs = report["environment"], report["inputs"]
    print(f"workload {report['workload']} seed {report['seed']} seconds {report['seconds']} trace {report['trace']}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("inputs: " + ", ".join(f"{k}={v}" for k, v in inputs.items()))
    print(f"rounds {report['rounds']}, operations {report['attempted']}, failed {report['failed']}")
    if "samples" in report:
        print("samples: " + ", ".join(f"{k}={n}" for k, n in report["samples"].items()))
    for failure in report["failures"] + report.get("count_mismatches", []):
        print(f"  FAIL {failure}")
    for name, value in figures.items():
        print(f"  {name:<44} {value:>14.6g} {_unit(name)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One BLAS thread: a multi-threaded BLAS on a small shared machine
    # spins against other processes and makes wide-state timings swing by
    # 2x.  Set before numpy loads; an explicit setting in the environment wins.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")

    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(args.workload, args.seed)))
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        workloads = _import_workloads()
        wl = workloads.generate(args.workload, args.seed)
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{wl.name}-seed{wl.seed}-trace{args.trace}"
        if args.trace:
            figures, report = traced(workloads, wl, args.seconds, OUT_DIR / f"{stem}-spans.npz")
            metrics = _select(figures, spec["per_layer"])
        else:
            figures, report = untraced(workloads, wl, args.seconds)
            metrics = _select(figures, spec["end_to_end"])
        report["figures"] = figures
        report.update(
            workload=wl.name, seed=wl.seed, seconds=args.seconds, trace=args.trace,
            environment=environment(), inputs=dict(wl.inputs),
        )
        llc = report["environment"]["llc_bytes"]
        state = wl.inputs.get("state_bytes")
        if llc and state:
            # A cache-resident state: apply_gate_gbps is a rate over computed
            # bytes, with no roofline ratio.
            report["inputs"]["state_vs_llc"] = f"{state / 2**20:g} MiB state, {llc / 2**20:g} MiB LLC"
    except (ImportError, OSError, ValueError, BenchmarkError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))
    _print_report(report, figures)
    result = {
        "correct": report["failed"] == 0 and not report.get("count_mismatches"),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
