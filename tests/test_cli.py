"""Command-line interface: subcommands, formats, exit codes, determinism."""
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qpictures import cli
from qpictures.bell import TSIRELSON, VIOLATION_BOUND, ScanResult, canonical_setting, chsh
from qpictures.experiment import MAX_ANGLE
from scan_oracle import loop_scan, loop_scan_csv


def fail_evolution(*args):
    raise AssertionError("evolution started")


def assert_usage_error(capsys, argv):
    """argv exits 2 with one ``error:`` line and no traceback."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.splitlines()[-1]
    assert last.startswith("qpictures") and ": error: " in last
    return last


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0.5", 0.5),
            ("-2", -2.0),
            ("pi", math.pi),
            ("-pi", -math.pi),
            ("pi/4", math.pi / 4),
            ("3pi/4", 3 * math.pi / 4),
            ("2*pi/3", 2 * math.pi / 3),
            ("0.5pi", math.pi / 2),
        ],
    )
    def test_accepted_forms(self, text, value):
        assert cli.parse_angle(text) == pytest.approx(value)

    @pytest.mark.parametrize("text", ["abc", "pi/x", "1.2.3", "nan", "1e400", "-inf", "1e400pi"])
    def test_rejected_forms(self, text):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_angle(text)


class TestVerify:
    def test_passes_on_healthy_build(self, capsys):
        code, out = run_cli(capsys, "verify")
        assert code == 0
        assert "all checks passed" in out
        for name in ("cnot_action", "picture_equivalence", "bell_violation"):
            assert name in out

    def test_json_output(self, capsys):
        code, out = run_cli(capsys, "verify", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        names = [c["name"] for c in payload["checks"]]
        assert len(names) == 11
        assert all(c["passed"] for c in payload["checks"])

    def test_corrupted_cnot_matrix_fails_named_check(self, capsys, monkeypatch):
        # the identity is unitary, so the fault reaches the physics checks
        monkeypatch.setattr("qpictures.gates.CN_MATRIX", np.eye(4, dtype=complex))
        code, out = run_cli(capsys, "verify")
        assert code == 1
        assert "FAILED:" in out
        assert "cnot_action" in out.split("FAILED:")[1]


class TestEpr:
    def test_equal_angles_json(self, capsys):
        code, out = run_cli(capsys, "epr", "0.3", "0.3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["p_joint_t2"] == pytest.approx(0.5, abs=1e-9)
        assert data["p_diff_t4"] == pytest.approx(0.0, abs=1e-9)

    def test_opposite_angles(self, capsys):
        code, out = run_cli(capsys, "epr", "pi", "0", "--format", "json")
        data = json.loads(out)
        assert data["p_joint_t2"] == pytest.approx(0.0, abs=1e-9)
        assert data["p_diff_t4"] == pytest.approx(1.0, abs=1e-9)

    def test_show_descriptors_renders_terms(self, capsys):
        code, out = run_cli(capsys, "epr", "pi/3", "0", "--show-descriptors")
        assert code == 0
        assert "+0.866025 * Y2 X3" in out
        assert "-0.500000 * Z2 X3" in out

    def test_degrees_flag(self, capsys):
        _, out = run_cli(capsys, "epr", "90", "0", "--degrees", "--format", "json")
        data = json.loads(out)
        assert data["p_joint_t2"] == pytest.approx(0.25, abs=1e-9)

    def test_unparseable_angle_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["epr", "abc", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["epr", "nan", "0"],
            ["epr", "1e400", "0"],
            ["epr", "1e308", "1e307"],
            ["epr", "--", "1e308", "-1e308"],
            ["chsh", "0", "inf", "0", "0"],
            ["chsh", "--scan", "0.3"],
            ["chsh", "--scan", "0"],
            ["chsh", "--scan", "7", "--degrees"],
        ],
    )
    def test_bad_number_is_usage_error(self, capsys, argv):
        assert_usage_error(capsys, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "100000000"],
            ["sweep", "4097"],
            ["chsh", "--scan", "pi/32"],
            ["chsh", "--scan", "pi/32", "--format", "csv"],
            ["chsh", "--scan", "1", "--degrees"],
            ["chsh", "--scan", "1e-300"],
            ["chsh", "--scan", "1e-320"],
        ],
    )
    def test_grid_above_work_bound_is_usage_error(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("qpictures.experiment._evolution", fail_evolution)
        last = assert_usage_error(capsys, argv)
        assert "at most" in last or "more than" in last

    @pytest.mark.parametrize(
        "argv",
        [
            ["epr", "--", "-10000.001", "0"],
            ["epr", "0", "600000", "--degrees"],
            ["chsh", "0", "0", "0", "20000"],
        ],
    )
    def test_oversized_angle_rejected_before_evolution(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("qpictures.experiment._evolution", fail_evolution)
        last = assert_usage_error(capsys, argv)
        assert f"at most {MAX_ANGLE:g} rad" in last

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify"],
            ["epr", "0.3", "0.1", "--format", "json"],
            ["sweep", "4096"],
            ["chsh", "--scan", "pi/8", "--format", "csv"],
        ],
    )
    def test_missing_out_directory_rejected_before_evolution(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.setattr("qpictures.experiment._evolution", fail_evolution)
        # verify reports a raising check as failed, so its registry is stubbed too.
        monkeypatch.setattr("qpictures.cli.run_all_checks", fail_evolution)
        last = assert_usage_error(capsys, argv + ["--out", str(tmp_path / "missing" / "x.out")])
        assert "cannot write" in last
        # An existing directory is no file to write either.
        last = assert_usage_error(capsys, argv + ["--out", str(tmp_path)])
        assert "cannot write" in last and "is a directory" in last
        # Nor is an empty path.
        last = assert_usage_error(capsys, argv + ["--out", ""])
        assert "cannot write" in last and "empty path" in last

    def test_angle_at_bound_is_accepted(self, capsys):
        code, out = run_cli(capsys, "epr", "--format", "json", "--", str(MAX_ANGLE), str(-MAX_ANGLE))
        assert code == 0
        assert json.loads(out)["theta"] == MAX_ANGLE

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "epr", "0.3", "0.3", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "theta"
        assert len(rows) == 2

    def test_state_dump(self, capsys):
        code, out = run_cli(capsys, "epr", "0", "0", "--dump-state", "1")
        assert code == 0
        assert "index,basis,re,im" in out
        assert "|1,1,1,1>" in out


class TestSweep:
    def test_rows_follow_closed_forms(self, capsys):
        code, out = run_cli(capsys, "sweep", "8")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 8
        for k, row in enumerate(rows):
            diff = k * 2 * math.pi / 8
            assert float(row["p_joint_t2"]) == pytest.approx(
                0.5 * math.cos(diff / 2) ** 2, abs=1e-10
            )
            assert float(row["p_diff_t4"]) == pytest.approx(
                math.sin(diff / 2) ** 2, abs=1e-10
            )

    def test_deterministic_output(self, capsys):
        _, first = run_cli(capsys, "sweep", "5")
        _, second = run_cli(capsys, "sweep", "5")
        assert first == second

    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _ = run_cli(capsys, "sweep", "4", "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("theta,phi,")
        assert text.count("\n") == 5

    def test_dash_out_writes_stdout(self, capsys):
        assert run_cli(capsys, "sweep", "2", "--out", "-") == run_cli(capsys, "sweep", "2")

    def test_unwritable_out_path_is_usage_error(self, capsys, tmp_path):
        last = assert_usage_error(capsys, ["sweep", "2", "--out", str(tmp_path / "missing" / "x.csv")])
        assert "cannot write" in last

    def test_too_few_points_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "1"])
        assert exc.value.code == 2

    def test_json_format(self, capsys):
        _, out = run_cli(capsys, "sweep", "3", "--format", "json")
        payload = json.loads(out)
        assert len(payload["rows"]) == 3


class TestChsh:
    def test_canonical_angles(self, capsys):
        code, out = run_cli(
            capsys, "chsh", "0", "pi/2", "pi/4", "3pi/4", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["S"] == pytest.approx(2 * math.sqrt(2), abs=1e-6)
        assert data["violation"] is True

    def test_all_zero_angles(self, capsys):
        _, out = run_cli(capsys, "chsh", "0", "0", "0", "0", "--format", "json")
        data = json.loads(out)
        assert data["S"] == pytest.approx(2.0, abs=1e-9)
        assert data["violation"] is False

    def test_scan(self, capsys):
        code, out = run_cli(capsys, "chsh", "--scan", "pi/4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["max_abs_s"] == pytest.approx(2 * math.sqrt(2), abs=1e-6)
        assert data["best"]["violation"] is True

    def test_scan_csv_columns(self, capsys):
        _, out = run_cli(capsys, "chsh", "--scan", "pi/2", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["a", "a_prime", "b", "b_prime", "S", "violation"]
        assert len(rows) == 1 + 4**4

    def test_scan_csv_formats_every_field_with_12_digits(self, capsys):
        _, out = run_cli(capsys, "chsh", "--scan", "pi/4", "--format", "csv")
        assert out == loop_scan_csv(loop_scan(math.pi / 4)[0])

    def test_scan_csv_matches_the_loop_oracle_at_pi_8(self, capsys):
        _, out = run_cli(capsys, "chsh", "--scan", "pi/8", "--format", "csv")
        assert out == loop_scan_csv(loop_scan(math.pi / 8)[0])

    def test_scan_csv_renders_edge_values_as_a_per_row_f_string(self):
        """The renderer formats each distinct S once, keyed by its bits: -0.0
        and 0.0, two values that differ only past 12 digits, the bound itself
        (no violation) and the next float above it, and NaNs each keep their
        own row's text and flag."""
        edges = [
            -0.0, 0.0, 1.0 + 2e-13, 1.0 + 4e-13, VIOLATION_BOUND, -VIOLATION_BOUND,
            np.nextafter(VIOLATION_BOUND, 3.0), math.nan, -math.nan, 2.5, -0.0, math.nan,
            1.0 + 2e-13, 0.0, -2.5, np.nextafter(-VIOLATION_BOUND, -3.0),
        ]
        angles = (0.0, 0.1 + 0.2)
        values = np.array(edges).reshape(2, 2, 2, 2)
        scan = ScanResult(math.pi, chsh(canonical_setting()), angles, values)
        rows = [
            f"{a:.12g},{ap:.12g},{b:.12g},{bp:.12g},{s:.12g},{int(abs(s) > VIOLATION_BOUND)}\n"
            for (a, ap, b, bp), s in zip(itertools.product(angles, repeat=4), values.ravel().tolist())
        ]
        text = "".join(cli._scan_csv_blocks(scan))
        assert text == "a,a_prime,b,b_prime,S,violation\n" + "".join(rows)
        # -0.0 and 0.0, and the bound and the float above it, render alike
        # but for their sign and flag.
        assert [row.split(",", 4)[4] for row in text.splitlines()[1:9]] == [
            "-0,0", "0,0", "1,0", "1,0", "2,0", "-2,0", "2,1", "nan,0",
        ]

    def test_scan_json_and_table_match_the_loop_oracle(self, capsys):
        rows, (a, ap, b, bp, s), _ = loop_scan(math.pi / 4)
        best = {"a": a, "a_prime": ap, "b": b, "b_prime": bp, "S": s, "violation": abs(s) > 2.0 + 1e-12}
        payload = {"resolution": math.pi / 4, "evaluated": len(rows), "max_abs_s": abs(s), "best": best}
        _, out = run_cli(capsys, "chsh", "--scan", "pi/4", "--format", "json")
        assert out == json.dumps(cli._json_floats(payload), indent=2) + "\n"
        _, out = run_cli(capsys, "chsh", "--scan", "pi/4")
        assert out == (
            f"scan resolution {math.pi / 4:.6g} rad, {len(rows)} settings\n"
            f"max |S| = {abs(s):.6g} (local bound 2, quantum bound {TSIRELSON:.6g})\n"
            f"best setting: a={a:.6g} a'={ap:.6g} b={b:.6g} b'={bp:.6g}\n"
            "violation: yes\n"
        )

    def test_missing_angles_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["chsh"])
        assert exc.value.code == 2

    def test_single_setting_csv(self, capsys):
        _, out = run_cli(capsys, "chsh", "0", "0", "0", "0", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2
        assert rows[1][-1] == "0"


class TestPictureCheck:
    def test_default_invocation_passes(self, capsys):
        code, out = run_cli(capsys, "picture-check")
        assert code == 0
        assert "PASS" in out
        assert "qubits=4 depth=8 seed=42" in out

    def test_same_seed_gives_identical_bytes(self, capsys):
        _, first = run_cli(capsys, "picture-check", "--qubits", "3", "--depth", "6", "--seed", "9")
        _, second = run_cli(capsys, "picture-check", "--qubits", "3", "--depth", "6", "--seed", "9")
        assert first == second

    def test_qubits_out_of_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["picture-check", "--qubits", "6"])
        assert exc.value.code == 2

    def test_depth_out_of_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["picture-check", "--depth", "13"])
        assert exc.value.code == 2

    def test_negative_seed_is_usage_error(self, capsys):
        last = assert_usage_error(capsys, ["picture-check", "--seed", "-1"])
        assert "seed" in last


class TestNegativeAngleReadAsOption:
    """argparse reads a negative angle such as -pi/3 or -1e-3 as an option;
    the error line names the token and the fix."""

    @pytest.mark.parametrize(
        "argv, token",
        [
            (["epr", "-pi/3", "0"], "-pi/3"),
            (["epr", "-1e-3", "0"], "-1e-3"),
            (["chsh", "-pi/4", "0", "0", "0"], "-pi/4"),
        ],
    )
    def test_error_names_the_token_and_the_fix(self, capsys, argv, token):
        last = assert_usage_error(capsys, argv)
        assert f"{token} was read as an option" in last
        assert "goes after --, with every option before it" in last
        assert "qpictures epr --format csv -- -pi/3 0" in last

    @pytest.mark.parametrize(
        "argv",
        [
            ["epr", "--format", "csv", "--", "-pi/3", "0"],
            ["epr", "--", "-1e-3", "0"],
            ["chsh", "--", "-pi/4", "0", "0", "0"],
        ],
    )
    def test_the_fix_parses(self, capsys, argv):
        assert run_cli(capsys, *argv)[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["epr", "--bogus", "0", "0"],  # not an angle
            ["epr", "--", "-pi/3"],  # after --, so not read as an option
            ["epr", "abc", "0"],
        ],
    )
    def test_other_parse_errors_get_no_hint(self, capsys, argv):
        assert "read as an option" not in assert_usage_error(capsys, argv)

    def test_module_entry_point_exits_2(self):
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        result = subprocess.run(
            [sys.executable, "-m", "qpictures", "epr", "-pi/3", "0"], capture_output=True, text=True, env=env
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert [line for line in result.stderr.splitlines() if ": error: " in line] == [
            result.stderr.splitlines()[-1]
        ]
        assert "-pi/3 was read as an option" in result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        ["verify", "--json"],
        ["epr", "0.3", "1.1"],
        ["epr", "0.3", "1.1", "--format", "json"],
        ["epr", "0.3", "1.1", "--dump-state", "4"],
        ["epr", "0.3", "1.1", "--dump-state", "4", "--format", "json"],
        ["sweep", "4", "--format", "json"],
        ["chsh", "--scan", "pi/4"],
        ["chsh", "--scan", "pi/4", "--format", "json"],
        ["chsh", "--scan", "pi/4", "--format", "csv"],
        ["picture-check"],
    ],
)
def test_out_file_holds_the_bytes_stdout_gets(capsys, tmp_path, argv):
    _, out = run_cli(capsys, *argv)
    path = tmp_path / "out.txt"
    assert run_cli(capsys, *argv, "--out", str(path)) == (0, "")
    assert path.read_bytes() == out.encode("ascii")


def test_reader_closing_the_pipe_early_is_not_an_error():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    argv = [sys.executable, "-m", "qpictures", "chsh", "--scan", "pi/8", "--format", "csv"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"a,a_prime,b,b_prime,S,violation\n"
        proc.stdout.close()  # as `| head -1` does, long before the 4.7 MB are written
        err = proc.stderr.read()
    assert proc.returncode == 0
    assert err == b""


class TestParserReuse:
    ARGV = ["epr", "pi/3", "0.2", "--show-descriptors", "--dump-state", "2"]

    def test_usage_error_leaves_later_commands_unchanged(self, capsys):
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        alone = subprocess.run(
            [sys.executable, "-m", "qpictures", *self.ARGV], capture_output=True, text=True, env=env
        )
        assert alone.returncode == 0
        assert_usage_error(capsys, ["epr", "abc", "0", "--format", "json"])
        code, out = run_cli(capsys, *self.ARGV)
        assert code == 0
        assert out == alone.stdout

    def test_dispatch_uses_the_current_module_binding(self, capsys, monkeypatch):
        # The parser exists before the rebinding, as in a traced benchmark run.
        assert run_cli(capsys, "epr", "0", "0")[0] == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_epr", lambda args: calls.append(args.theta) or 0)
        assert cli.main(["epr", "0.5", "0"]) == 0
        assert calls == [0.5]
