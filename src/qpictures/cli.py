"""Command-line interface.

Subcommands: ``verify`` (run the full check suite), ``epr`` (one angle
pair, full report), ``sweep`` (tabulate the report over a difference
grid), ``chsh`` (one setting or an exhaustive scan), ``picture-check``
(cross-engine agreement on a seeded random circuit).

Angles are radians unless ``--degrees`` is given; ``pi`` expressions
such as ``pi/4`` or ``3pi/4`` are accepted.  Exit codes: 0 success,
1 failed check, 2 usage error.  An analyzer angle larger in magnitude
than ``experiment.MAX_ANGLE`` radians is a usage error.  A negative angle
other than a plain decimal goes after ``--``, or argparse reads it as an
option; the error line of a parse failure names such a token.  Work is
bounded before it starts: a sweep takes at most ``experiment.MAX_BATCH``
points and a scan at most ``bell.MAX_SCAN_ANGLES`` angles per arm, and a
larger grid is a usage error.  All output is plain ASCII; JSON floats carry 12
significant digits, human tables 6.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys
from dataclasses import asdict, astuple
from itertools import product

from .bell import ChshSetting, TSIRELSON, VIOLATION_BOUND, chsh, chsh_scan, scan_grid
from .experiment import (
    MAX_ANGLE,
    MAX_BATCH,
    ExperimentConfig,
    descriptors_at_t2,
    reports,
    simulate,
)
from .states import basis_label
from .verification import PICTURE_CHECK_TOL, compare_pictures, run_all_checks
from .gates import random_circuit

import numpy as np

_PI_RE = re.compile(r"^([+-]?\d*\.?\d*)\*?pi(?:/(\d*\.?\d+))?$", re.IGNORECASE)

_CHSH_CSV_HEADER = ["a", "a_prime", "b", "b_prime", "S", "violation"]


def parse_angle(text: str) -> float:
    """Parse a finite float or a pi expression like ``pi``, ``-pi/3``,
    ``3pi/4``.  On the command line a negative angle other than a plain
    decimal such as ``-0.5`` follows ``--``, or argparse reads it as an
    option: ``qpictures epr -- -pi/3 0``."""
    text = text.strip()
    m = _PI_RE.match(text)
    try:
        if m is None:
            value = float(text)
        else:
            # A bare sign stands for a coefficient of 1.
            coeff = m.group(1) + "1" if m.group(1) in ("", "+", "-") else m.group(1)
            value = float(coeff) * math.pi
            if m.group(2):
                value /= float(m.group(2))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"angle {text!r} is not finite")
    return value


def _json_floats(obj):
    """Round every float to 12 significant digits for stable JSON."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return str(obj)
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _json_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_floats(v) for v in obj]
    return obj


def _emit(text, out_path: str | None) -> None:
    """Write ``text``, a string or an iterable of string blocks, to stdout
    or to ``out_path``, with the same bytes either way: a final newline is
    added if the text lacks one."""
    def write(fh):
        last = ""
        for last in [text] if isinstance(text, str) else text:
            fh.write(last)
        if not last.endswith("\n"):
            fh.write("\n")

    if out_path is None or out_path == "-":
        try:
            write(sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader left early (`| head`): drop the rest
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return
    try:
        with open(out_path, "w", encoding="ascii", newline="") as fh:
            write(fh)
    except OSError as exc:
        _parser().error(f"cannot write {out_path}: {exc.strerror or exc}")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()


def _state_csv(state) -> str:
    """The amplitudes of an unbatched state as CSV: index, basis label, re, im."""
    rows = [(k, basis_label(k, state.width), a.real, a.imag) for k, a in enumerate(state.amplitudes.tolist())]
    return _csv_text(["index", "basis", "re", "im"], rows)


def _scan_csv_blocks(scan):
    """The scan's CSV, one block of rows per leading angle a.  Each angle
    label and each (a', b, b') prefix is formatted once, and each distinct
    S once with its violation flag, keyed by its bits, so -0.0 and a NaN
    keep their own text.  A block is its rows' [label, prefix, tail]
    pieces, filled in by slice assignment and joined once.  The distinct
    values are found by hashing, not by np.unique: its sort kernel, mapped
    into memory on a first call, adds ~0.4 MB of peak RSS."""
    labels = [f"{x:.12g}" for x in scan.angles]
    prefixes = [f"{ap},{b},{bp}," for ap, b, bp in product(labels, repeat=3)]
    rows = len(prefixes)
    pieces = [""] * (3 * rows)
    pieces[1::3] = prefixes
    tails = {}
    yield ",".join(_CHSH_CSV_HEADER) + "\n"
    for label, block in zip(labels, scan.values):
        keys = block.ravel().view(np.int64).tolist()
        new = np.array(list(set(keys).difference(tails)), dtype=np.int64)
        for key, s in zip(new.tolist(), new.view(np.float64).tolist()):
            tails[key] = f"{s:.12g},{int(abs(s) > VIOLATION_BOUND)}\n"
        pieces[0::3] = [label + ","] * rows
        pieces[2::3] = map(tails.__getitem__, keys)
        yield "".join(pieces)


def _scale(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def cmd_verify(args) -> int:
    results = run_all_checks()
    failed = [r.name for r in results if not r.passed]
    if args.json:
        payload = {"all_passed": not failed, "checks": [asdict(r) for r in results]}
        _emit(json.dumps(_json_floats(payload), indent=2), args.out)
    else:
        lines = [f"{'check':<24} {'status':<6} {'max deviation':>14} {'tolerance':>10}"]
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{r.name:<24} {status:<6} {r.max_deviation:>14.6g} {r.tolerance:>10.3g}")
        lines.append("FAILED: " + ", ".join(failed) if failed else "all checks passed")
        _emit("\n".join(lines), args.out)
    return 1 if failed else 0


def _report_rows(table):
    """The header of a report table, and an iterator over its rows, one
    per config."""
    return list(table), zip(*(column.tolist() for column in table.values()))


def cmd_epr(args) -> int:
    cfg = ExperimentConfig(_scale(args.theta, args.degrees), _scale(args.phi, args.degrees))
    # One run serves the report, the descriptors and the state dump.
    run = simulate([cfg])
    table = reports(run)
    data = {name: float(column[0]) for name, column in table.items()}
    if args.show_descriptors:
        qz2, qz3 = (op.column(0).render().split("\n") for op in descriptors_at_t2(run))
    if args.format == "json":
        if args.show_descriptors:
            data["descriptor_qz2_t2"] = qz2
            data["descriptor_qz3_t2"] = qz3
        text = json.dumps(_json_floats(data), indent=2)
    elif args.format == "csv":
        text = _csv_text(*_report_rows(table))
    else:
        lines = [f"theta = {cfg.theta:.6g}  phi = {cfg.phi:.6g}  (radians)"]
        lines.append(f"t=2  P(Q2, Q3 both |1>)        = {data['p_joint_t2']:.6g}")
        lines.append(f"t=2  correlation <q_z2 q_z3>   = {data['corr_t2']:.6g}")
        lines.append(f"t=2  linear terms              = {data['lin_qz2_t2']:.3g}, {data['lin_qz3_t2']:.3g}")
        lines.append(f"t=3  record marginal P(Q1=|1>) = {data['p_record_t3']:.6g}")
        lines.append(f"t=4  P(records differ)         = {data['p_diff_t4']:.6g}")
        lines.append("     candidate deviations: "
                     f"sin2_half_diff {data['dev_sin2_half_diff']:.3g}, "
                     f"cos2_half_diff {data['dev_cos2_half_diff']:.3g}, "
                     f"sin2_half_sum {data['dev_sin2_half_sum']:.3g}")
        lines.append("     engine deltas: "
                     f"{data['delta_p_joint_t2']:.3g}, {data['delta_corr_t2']:.3g}, "
                     f"{data['delta_p_diff_t4']:.3g}")
        if args.show_descriptors:
            lines.append("q_z2(t=2):")
            lines.extend("  " + line for line in qz2)
            lines.append("q_z3(t=2):")
            lines.extend("  " + line for line in qz3)
        text = "\n".join(lines)
    if args.dump_state is not None:
        # The report ends in one newline, as _emit would end it, then the dump.
        text = [text, "" if text.endswith("\n") else "\n", _state_csv(run.states[args.dump_state].row(0))]
    _emit(text, args.out)
    return 0


def cmd_sweep(args) -> int:
    diffs = [k * 2.0 * math.pi / args.grid_points for k in range(args.grid_points)]
    header, rows = _report_rows(reports(simulate(ExperimentConfig(d, 0.0) for d in diffs)))
    if args.format == "json":
        payload = {"rows": [dict(zip(header, row)) for row in rows]}
        _emit(json.dumps(_json_floats(payload), indent=2), args.out)
    else:
        _emit(_csv_text(header, rows), args.out)
    return 0


def cmd_chsh(args) -> int:
    if args.scan is not None:
        result = chsh_scan(_scale(args.scan, args.degrees))
        best = result.best
        if args.format == "csv":
            _emit(_scan_csv_blocks(result), args.out)
        elif args.format == "json":
            payload = {
                "resolution": result.resolution,
                "evaluated": result.evaluated,
                "max_abs_s": abs(best.s),
                "best": {**asdict(best.setting), "S": best.s, "violation": best.violates},
            }
            _emit(json.dumps(_json_floats(payload), indent=2), args.out)
        else:
            lines = [
                f"scan resolution {result.resolution:.6g} rad, {result.evaluated} settings",
                f"max |S| = {abs(best.s):.6g} (local bound 2, quantum bound {TSIRELSON:.6g})",
                f"best setting: a={best.setting.a:.6g} a'={best.setting.a_prime:.6g} "
                f"b={best.setting.b:.6g} b'={best.setting.b_prime:.6g}",
                f"violation: {'yes' if best.violates else 'no'}",
            ]
            _emit("\n".join(lines), args.out)
        return 0

    setting = ChshSetting(*(_scale(v, args.degrees) for v in args.angles))
    result = chsh(setting)
    if args.format == "csv":
        rows = [[*astuple(setting), result.s, int(result.violates)]]
        _emit(_csv_text(_CHSH_CSV_HEADER, rows), args.out)
    elif args.format == "json":
        payload = {
            **asdict(setting),
            "correlations": list(result.correlations),
            "S": result.s,
            "violation": result.violates,
        }
        _emit(json.dumps(_json_floats(payload), indent=2), args.out)
    else:
        lines = [
            f"E(a,b)={result.e_ab:.6g}  E(a,b')={result.e_ab_prime:.6g}  "
            f"E(a',b)={result.e_a_prime_b:.6g}  E(a',b')={result.e_a_prime_b_prime:.6g}",
            f"S = {result.s:.6g}",
            f"violation: {'yes' if result.violates else 'no'}",
        ]
        _emit("\n".join(lines), args.out)
    return 0


def cmd_picture_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    gates = random_circuit(args.qubits, args.depth, rng)
    deviation = compare_pictures(gates, args.qubits)
    passed = deviation <= PICTURE_CHECK_TOL
    lines = [
        f"qubits={args.qubits} depth={args.depth} seed={args.seed}",
        "circuit: " + " ".join(repr(g) for g in gates),
        f"max cross-engine deviation = {deviation:.3e}",
        "PASS" if passed else "FAIL",
    ]
    _emit("\n".join(lines), args.out)
    return 0 if passed else 1


class _UsageError(Exception):
    """A usage error, raised as ``(parser, message)`` with the parser that
    found it, so that ``main`` can reword a parse failure before reporting
    it."""


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's parser, except that ``error`` raises ``_UsageError``;
    ``main`` reports it as argparse would, with exit code 2."""

    def error(self, message):
        raise _UsageError(self, message)


def _angle_read_as_option(argv) -> str | None:
    """The first token before ``--`` that starts with ``-`` and parses as
    an angle.  argparse reads a token such as ``-pi/3`` or ``-1e-3`` as an
    option, so a parse failure next to one most likely stems from it."""
    head = argv[: argv.index("--")] if "--" in argv else argv
    for token in head:
        if token.startswith("-"):
            try:
                parse_angle(token)
            except argparse.ArgumentTypeError:
                continue
            return token
    return None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    parser = _ArgumentParser(
        prog="qpictures",
        description="Dual-picture qubit simulator: descriptor engine vs statevector oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run every verification check")
    p_verify.add_argument("--json", action="store_true", help="machine-readable results")
    p_verify.add_argument("--out", default=None, help="output path (default stdout)")

    p_epr = sub.add_parser("epr", help="full report for one pair of analyzer angles")
    p_epr.add_argument("theta", type=parse_angle,
                       help="Q2's analyzer angle; a negative one goes after --, as in: epr -- -pi/3 0")
    p_epr.add_argument("phi", type=parse_angle)
    p_epr.add_argument("--degrees", action="store_true", help="interpret angles as degrees")
    p_epr.add_argument("--show-descriptors", action="store_true",
                       help="append canonical renderings of the t=2 descriptors")
    p_epr.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_epr.add_argument("--out", default=None)
    p_epr.add_argument("--dump-state", type=int, choices=range(5), default=None,
                       metavar="STEP", help="debug: dump the statevector after step 0..4 as CSV")

    p_sweep = sub.add_parser("sweep", help="tabulate the report over a difference grid")
    p_sweep.add_argument("grid_points", type=int)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", default=None)

    p_chsh = sub.add_parser("chsh", help="CHSH value for one setting, or an exhaustive scan")
    p_chsh.add_argument("angles", type=parse_angle, nargs="*", metavar="ANGLE",
                        help="a a' b b' (exactly four), after -- if one is negative: chsh -- -pi/4 0 0 0")
    p_chsh.add_argument("--scan", type=parse_angle, default=None, metavar="STEP",
                        help="scan all settings on a grid with this step (must divide pi)")
    p_chsh.add_argument("--degrees", action="store_true")
    p_chsh.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_chsh.add_argument("--out", default=None)

    p_pc = sub.add_parser("picture-check", help="cross-engine agreement on a random circuit")
    p_pc.add_argument("--qubits", type=int, default=4)
    p_pc.add_argument("--depth", type=int, default=8)
    p_pc.add_argument("--seed", type=int, default=42)
    p_pc.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return _run(argv)
    except _UsageError as exc:
        argparse.ArgumentParser.error(*exc.args)


def _run(argv) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        token = _angle_read_as_option(argv)
        if token is None:
            raise
        failed, message = exc.args
        raise _UsageError(
            failed,
            f"{message} ({token} was read as an option: a negative angle goes after --, "
            f"with every option before it, as in: qpictures epr --format csv -- -pi/3 0)",
        ) from None
    if args.out not in (None, "-"):  # before any work; _emit reports later failures
        if not args.out:
            parser.error("cannot write --out '': an empty path")
        directory = os.path.dirname(args.out) or "."
        if os.path.isdir(args.out):
            parser.error(f"cannot write {args.out}: it is a directory")
        if not (os.path.isdir(directory) and os.access(directory, os.W_OK | os.X_OK)):
            parser.error(f"cannot write {args.out}: {directory} is not a writable directory")
    if args.command in ("epr", "chsh"):
        angles = (args.theta, args.phi) if args.command == "epr" else args.angles
        if any(abs(_scale(v, args.degrees)) > MAX_ANGLE for v in angles):
            parser.error(f"analyzer angles must be at most {MAX_ANGLE:g} rad in magnitude")
    if args.command == "sweep":
        if args.grid_points < 2:
            parser.error("grid_points must be at least 2")
        if args.grid_points > MAX_BATCH:
            parser.error(f"grid_points must be at most {MAX_BATCH}")
    if args.command == "chsh":
        if args.scan is None and len(args.angles) != 4:
            parser.error("provide four angles (a a' b b') or --scan STEP")
        if args.scan is not None and args.angles:
            parser.error("--scan does not take positional angles")
        if args.scan is not None:
            try:
                scan_grid(_scale(args.scan, args.degrees))
            except ValueError as exc:
                parser.error(str(exc))
    if args.command == "picture-check":
        if not 2 <= args.qubits <= 5:
            parser.error("qubits must be in 2..5")
        if not 1 <= args.depth <= 12:
            parser.error("depth must be in 1..12")
        if args.seed < 0:
            parser.error("seed must be non-negative")
    # Looked up at call time, so a rebound cmd_* (as a tracer does) is used.
    return globals()["cmd_" + args.command.replace("-", "_")](args)


if __name__ == "__main__":
    sys.exit(main())
