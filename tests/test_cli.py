import dataclasses
import json
import os

import numpy as np
import pytest

from bventropy import cli
from bventropy.bv_codec import RealInterval, encode_bv, write_codeword
from bventropy.cli import build_parser, main
from bventropy.errors import BudgetViolation, OutOfRange
from bventropy.gauge_variation import StepFunction, read_step, write_step

from conftest import run_python


@pytest.fixture
def step_file(tmp_path):
    f = StepFunction(np.array([0.0, 0.3, 0.7, 1.0]), np.array([0.2, 0.6, 0.4]))
    path = tmp_path / "f.step"
    write_step(f, path)
    return str(path)


def run(*argv):
    return main(list(argv))


def run_command(*argv):
    """Run one subcommand without main's exit-code mapping."""
    args = build_parser().parse_args(list(argv))
    os.makedirs(args.out, exist_ok=True)
    args.func(args)


class TestMetric:
    def test_generated_line(self, tmp_path):
        out = str(tmp_path / "run")
        code = run("metric", "--out", out, "--generate", "line:8:1.0",
                   "--alpha", "0.25", "--window", "0.1", "0.5")
        assert code == 0
        assert os.path.exists(os.path.join(out, "cover_pack.csv"))
        assert os.path.exists(os.path.join(out, "dimensions.csv"))
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["command"] == "metric"

    def test_matrix_file(self, tmp_path):
        m = tmp_path / "m.csv"
        m.write_text("0,1\n1,0\n")
        out = str(tmp_path / "run")
        assert run("metric", "--out", out, "--matrix", str(m),
                   "--alpha", "0.5") == 0

    def test_missing_input_is_config_error(self, tmp_path):
        assert run("metric", "--out", str(tmp_path / "o")) == 1

    def test_missing_file(self, tmp_path):
        assert run("metric", "--out", str(tmp_path / "o"),
                   "--matrix", str(tmp_path / "nope.csv")) == 1

    def test_nan_alpha_is_config_error(self, tmp_path):
        # was exit 2, "a point is covered by no candidate"; greedy mode
        # (line:20 is above the exact cap) used to hang in farthest-first
        for gen in ("line:8:1.0", "line:20:1.0"):
            proc = run_python("-m", "bventropy.cli", "metric", "--out", str(tmp_path / gen),
                              "--generate", gen, "--alpha", "nan")
            assert proc.returncode == 1
            assert proc.stderr.strip().splitlines() == ["error: alpha must be positive"]

    def test_exact_cap_reaches_exact_search(self, tmp_path):
        out = str(tmp_path / "run")
        assert run("metric", "--out", out, "--generate", "line:18:1.0",
                   "--exact-cap", "20", "--alpha", "0.1") == 0
        rows = open(os.path.join(out, "cover_pack.csv")).read().splitlines()[1:]
        # 18 points 1/17 apart: a closed 0.1-ball holds 3 consecutive points,
        # and every other point is the largest strict 0.1-packing
        assert [r.split(",")[1:3] for r in rows] == [["6", "exact"], ["9", "exact"]]


    @pytest.mark.parametrize("window", [("0.45", "0.05"), ("nan", "0.45")])
    def test_bad_window_is_config_error(self, tmp_path, window, capsys):
        # was exit 2, "invariant violated"
        assert run("metric", "--out", str(tmp_path / "o"), "--generate", "line:17:1.0",
                   "--window", *window) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid window")


class TestVariation:
    def test_report(self, tmp_path, step_file):
        out = str(tmp_path / "v")
        assert run("variation", "--out", out, "--input", step_file,
                   "--gauge", "pow:2") == 0
        text = open(os.path.join(out, "variation.csv")).read()
        assert text.startswith("tv,tv_psi,gauge")

    def test_directory_input_is_config_error(self, tmp_path, step_file, capsys):
        out = str(tmp_path / "v")
        assert run("variation", "--out", out, "--input", str(tmp_path)) == 1
        assert run("variation", "--out", out, "--input", step_file,
                   "--gauge", f"table:{tmp_path}") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and all(e.startswith("error: ") for e in err)

    @pytest.mark.parametrize("command", ["variation", "encode"])
    def test_inadmissible_table_is_config_error(self, tmp_path, step_file, command, capsys):
        # was exit 0 with tv_psi = 0.96: the chord slope drops at s = 0.5
        table = tmp_path / "table.csv"
        table.write_text("0,0\n0.5,0.4\n1,0.5\n2,3\n")
        extra = ["--epsilon", "0.1", "--budget", "1.0"] if command == "encode" else []
        assert run(command, "--out", str(tmp_path / "v"), "--input", step_file,
                   "--gauge", f"table:{table}", *extra) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "fails the convex check" in err[0]

    @pytest.mark.parametrize("table", ["0,0\n0.5,nan\n1,1\n2,3\n", "0,0\n1,1\n2,inf\n",
                                       "0\n1\n2\n", "0,0,1\n1,1,1\n2,3,1\n"])
    def test_malformed_table_is_config_error(self, tmp_path, step_file, table, capsys):
        # a NaN entry gave exit 0 and tv_psi = nan; one column was a traceback
        path = tmp_path / "table.csv"
        path.write_text(table)
        assert run("variation", "--out", str(tmp_path / "v"), "--input", step_file,
                   "--gauge", f"table:{path}") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("command", ["variation", "metric"])
    def test_empty_table_is_one_error_line(self, tmp_path, step_file, command):
        # numpy's two-line "input contained no data" warning came first
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        source = (["--input", step_file, "--gauge", f"table:{empty}"]
                  if command == "variation" else ["--matrix", str(empty)])
        proc = run_python("-m", "bventropy.cli", command, "--out", str(tmp_path / "v"),
                          *source)
        assert proc.returncode == 1
        assert proc.stderr.strip().splitlines() == [f"error: {empty}: file holds no data"]

    @pytest.mark.parametrize("text", ["1.0,2\n0.0\n0.5,1.0\n", "nan,2\n0.0,0.2\n0.5,0.6\n"])
    def test_bad_step_file_is_config_error(self, tmp_path, text, capsys):
        path = tmp_path / "bad.step"
        path.write_text(text)
        assert run("variation", "--out", str(tmp_path / "v"), "--input", str(path)) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestCodecCommands:
    def test_encode_decode_round_trip(self, tmp_path, step_file):
        out = str(tmp_path / "enc")
        assert run("encode", "--out", out, "--input", step_file,
                   "--epsilon", "0.1", "--budget", "1.0") == 0
        report = open(os.path.join(out, "encode_report.csv")).readlines()[1]
        err = float(report.split(",")[4])
        assert err <= 0.1

        out2 = str(tmp_path / "dec")
        assert run("decode", "--out", out2,
                   "--input", os.path.join(out, "codeword.bvc")) == 0
        f = read_step(step_file)
        g = read_step(os.path.join(out2, "decoded.step"))
        assert abs(f.L - g.L) < 1e-12

    def test_budget_violation_exit_2(self, tmp_path, step_file):
        out = str(tmp_path / "enc")
        assert run("encode", "--out", out, "--input", step_file,
                   "--epsilon", "0.1", "--budget", "0.01") == 2

    def test_decode_error_above_epsilon_is_budget_violation(self, tmp_path, step_file,
                                                            monkeypatch, capsys):
        monkeypatch.setattr(cli, "l1_distance", lambda f, g: 0.5)
        argv = ("encode", "--out", str(tmp_path / "enc"), "--input", step_file,
                "--epsilon", "0.1", "--budget", "1.0")
        with pytest.raises(BudgetViolation, match="decode error 0.5 exceeds epsilon 0.1"):
            run_command(*argv)
        assert run(*argv) == 2
        assert capsys.readouterr().err.startswith("invariant violated: decode error")


class TestCorruptCodewords:
    @pytest.fixture
    def codeword(self):
        f = StepFunction(np.array([0.0, 0.4, 1.0]), np.array([0.2, 0.8]))
        return encode_bv(f, 1.0, 0.2, value_space=RealInterval(0, 1))

    @staticmethod
    def decode_exit(tmp_path, raw):
        path = tmp_path / "bad.bvc"
        path.write_bytes(raw)
        return run("decode", "--out", str(tmp_path / "d"), "--input", str(path))

    @staticmethod
    def file_bytes(tmp_path, cw):
        write_codeword(cw, tmp_path / "c.bvc")
        return (tmp_path / "c.bvc").read_bytes()

    def test_every_truncation_exits_2(self, tmp_path, codeword):
        # Cuts inside the header, the tokens, bit_length and the payload.
        raw = self.file_bytes(tmp_path, codeword)
        assert self.decode_exit(tmp_path, raw) == 0
        for cut in range(len(raw)):
            assert self.decode_exit(tmp_path, raw[:cut]) == 2, cut

    def test_token_not_utf8_exits_2(self, tmp_path, codeword):
        # The gauge token "id" follows its 2-byte length at offset 28.
        raw = self.file_bytes(tmp_path, codeword)
        assert raw[30:32] == b"id"
        assert self.decode_exit(tmp_path, raw[:30] + b"\xff\xfe" + raw[32:]) == 2

    def test_trailing_bits_exit_2(self, tmp_path, codeword):
        padded = dataclasses.replace(codeword, payload=codeword.payload + b"\0\0",
                                     bit_length=codeword.bit_length + 16)
        assert self.decode_exit(tmp_path, self.file_bytes(tmp_path, padded)) == 2


class TestWitness:
    def test_separation_report(self, tmp_path):
        out = str(tmp_path / "w")
        code = run("witness", "--out", out, "--generate", "line:17:1.0",
                   "--epsilon", str(1 / 1024), "--budget", "1.0",
                   "--window", "0.05", "0.45")
        assert code == 0
        text = open(os.path.join(out, "separation.csv")).read()
        assert text.startswith("epsilon,h,N1")


class TestScan:
    def test_scan_writes_exponent(self, tmp_path):
        out = str(tmp_path / "s")
        assert run("scan", "--out", out, "--gamma", "1",
                   "--eps-grid", "0.1,0.05,0.025,0.0125") == 0
        text = open(os.path.join(out, "scan.csv")).read()
        assert "# exponent=" in text

    def test_reproducible(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert run("scan", "--out", out, "--gamma", "1",
                       "--eps-grid", "0.1,0.05,0.025") == 0
        assert (open(os.path.join(a, "scan.csv")).read()
                == open(os.path.join(b, "scan.csv")).read())


class TestClaw:
    def test_full_pipeline(self, tmp_path):
        out = str(tmp_path / "c")
        code = run("claw", "--out", out, "--flux", "burgers", "--T", "0.5",
                   "--dx", "0.02", "--epsilon", "0.2")
        assert code == 0
        for name in ("solution.csv", "flux_gauge.csv", "claw_report.csv"):
            assert os.path.exists(os.path.join(out, name))

    def test_support_outside_light_cone_is_out_of_range(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "support_check", lambda *args: False)
        argv = ("claw", "--out", str(tmp_path / "c"), "--T", "0.5", "--dx", "0.02")
        with pytest.raises(OutOfRange, match="certified light cone"):
            run_command(*argv)
        assert run(*argv) == 2
        assert capsys.readouterr().err.startswith("invariant violated: support grew")

    def test_unknown_flux(self, tmp_path):
        # unknown token propagates as a nonzero exit
        code = run("claw", "--out", str(tmp_path / "c"), "--flux", "woble")
        assert code != 0


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ("scan",),
        ("nosuch", "--out", "o"),
        ("scan", "--out", "o", "--gamma", "abc"),
        ("scan", "--out", "o", "--seed", "1"),
        ("variation", "--out", "o", "--input", "f.step", "--seed", "1"),
        ("encode", "--out", "o", "--input", "f.step", "--epsilon", "0.1",
         "--budget", "1", "--seed", "1"),
        ("decode", "--out", "o", "--input", "c.bvc", "--seed", "1"),
    ])
    def test_usage_error_exits_1(self, tmp_path, monkeypatch, argv):
        # argparse's own code is 2, which the CLI keeps for violated invariants
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 1
        assert not os.path.exists("o")

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, flag):
        assert run(flag) == 0


WITNESS_LINE5 = ("witness", "--generate", "line:5:1.0", "--epsilon", "0.01",
                 "--budget", "1.0", "--window", "0.05", "0.45")


@pytest.mark.parametrize("argv", [
    ("claw", "--dx", "0"),
    ("claw", "--epsilon", "0"),
    ("claw", "--T", "0"),
    ("claw", "--T", "-1"),
    ("claw", "--L", "0"),
    WITNESS_LINE5 + ("--L", "0"),
    WITNESS_LINE5 + ("--center", "5"),
    WITNESS_LINE5 + ("--center", "-1"),
])
def test_bad_number_is_one_error_line(tmp_path, argv):
    proc = run_python("-m", "bventropy.cli", *argv, "--out", str(tmp_path / "o"))
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
