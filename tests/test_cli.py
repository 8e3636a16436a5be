import dataclasses
import json
import math
import os
import stat

import numpy as np
import pytest

from bventropy import claw, cli, metric_core
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
    """Run one subcommand without main's exit-code mapping or its writes."""
    args = build_parser().parse_args(list(argv))
    return args.func(args)


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

    def test_parser_shared_across_calls(self, tmp_path):
        # One parser serves every in-process call; the --alpha list of one
        # call must not become the default of the next, which then probes
        # the pairwise distances as a fresh process does.
        assert build_parser() is build_parser()
        first, second, fresh = (str(tmp_path / d) for d in ("first", "second", "fresh"))
        gen = ("--generate", "line:5:1.0")
        assert run("metric", "--out", first, *gen, "--alpha", "0.3") == 0
        assert run("metric", "--out", second, *gen) == 0
        assert run_python("-m", "bventropy.cli", "metric", "--out", fresh, *gen).returncode == 0

        def read(out, name):
            with open(os.path.join(out, name)) as fh:
                return fh.read()
        manifests = [json.loads(read(out, "manifest.json")) for out in (second, fresh)]
        assert manifests[0].pop("out") == second and manifests[1].pop("out") == fresh
        assert manifests[0] == manifests[1] and manifests[0]["alpha"] == []
        assert read(second, "cover_pack.csv") == read(fresh, "cover_pack.csv")
        assert len(read(second, "cover_pack.csv").splitlines()) == 1 + 2 * 4

    def test_matrix_file(self, tmp_path):
        m = tmp_path / "m.csv"
        m.write_text("0,1\n1,0\n")
        out = str(tmp_path / "run")
        assert run("metric", "--out", out, "--matrix", str(m),
                   "--alpha", "0.5") == 0

    @pytest.mark.parametrize("scale", [1e-300, 1e-12, 1.0, 1e300])
    def test_triangle_check_holds_at_every_scale(self, tmp_path, scale, capsys):
        # d12 = 25 (d10 + d02) exited 0 at scales 1 and below, when the
        # check allowed an absolute 1e-9; d12 = d10 + d02 is a metric
        def matrix(d12):
            d = scale * np.array([[0.0, 1e-11, 1e-11], [1e-11, 0.0, d12], [1e-11, d12, 0.0]])
            path = tmp_path / f"{d12}.csv"
            path.write_text("".join(",".join(map(repr, row)) + "\n" for row in d.tolist()))
            return str(path)

        assert run("metric", "--out", str(tmp_path / "bad"), "--matrix", matrix(5e-10)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("invariant violated: triangle"), err
        assert run("metric", "--out", str(tmp_path / "ok"), "--matrix", matrix(2e-11)) == 0
        assert capsys.readouterr().err == ""

    def test_nan_matrix_is_config_error(self, tmp_path, capsys):
        m = tmp_path / "m.csv"
        m.write_text("0,nan,1\nnan,0,1\n1,1,0\n")
        assert run("metric", "--out", str(tmp_path / "o"), "--matrix", str(m),
                   "--alpha", "0.5", "--window", "0.5", "1") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: distance matrix has non-finite entries"]

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

    @pytest.mark.parametrize("extent", ["inf", "nan"])
    def test_non_finite_extent_is_one_error_line(self, tmp_path, extent):
        # was an OverflowError traceback from the uniform draw
        proc = run_python("-m", "bventropy.cli", "metric", "--out", str(tmp_path / "o"),
                          "--generate", f"uniform:4:{extent}:2", "--alpha", "0.5")
        assert proc.returncode == 1, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "coordinates must be finite" in lines[0]

    def test_overflowing_distances_are_one_error_line(self, tmp_path):
        # 1e200 apart was exit 0 after a RuntimeWarning, with cover and
        # packing counts of 6 where both are 1, then refused; its distances
        # are now exact
        out = tmp_path / "big"
        assert run("metric", "--out", str(out), "--generate", "uniform:6:1e200:2",
                   "--alpha", "5e201") == 0
        rows = (out / "cover_pack.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["1", "1"]
        # a diagonal of 2.1e308 overflows a float
        proc = run_python("-m", "bventropy.cli", "metric", "--out", str(tmp_path / "o"),
                          "--generate", "lattice:2:2:1.5e308", "--alpha", "1.0")
        assert proc.returncode == 1, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "overflow" in lines[0]

    def test_exact_cap_reaches_exact_search(self, tmp_path):
        # n points 1/(n-1) apart: a closed 0.1-ball holds 3 consecutive
        # points, and every other point is the largest strict 0.1-packing
        def counts(n):
            out = str(tmp_path / f"line{n}")
            assert run("metric", "--out", out, "--generate", f"line:{n}:1.0",
                       "--alpha", "0.1") == 0
            rows = open(os.path.join(out, "cover_pack.csv")).read().splitlines()[1:]
            return [r.split(",")[1:3] for r in rows]

        assert metric_core.DEFAULT_EXACT_CAP == 16
        assert counts(16) == [["6", "exact"], ["8", "exact"]]
        assert counts(17) == [["6", "greedy"], ["9", "greedy"]]

    @pytest.mark.parametrize("gen", ["line:9:1.0", "uniform:24:1.0:2"])
    def test_one_count_call_for_every_scale(self, tmp_path, monkeypatch, gen):
        # each count runs once over all the --alpha scales, and the rows are
        # those of one call per scale
        calls = []

        def once(count):
            def run(space, subset, alpha, mode):
                calls.append((count.__name__, list(alpha)))
                return count(space, subset, alpha, mode)
            return run
        for count in (metric_core.covering_number, metric_core.packing_number):
            monkeypatch.setattr(cli, count.__name__, once(count))
        alphas = ["0.1", "0.25", "0.1", "0.5"]
        out = str(tmp_path / "o")
        assert run("metric", "--out", out, "--generate", gen,
                   *[arg for a in alphas for arg in ("--alpha", a)]) == 0
        scales = [float(a) for a in alphas]
        assert calls == [("covering_number", scales), ("packing_number", scales)]
        space = cli._load_space(build_parser().parse_args(["metric", "--out", out,
                                                           "--generate", gen]))
        mode = "exact" if space.n <= 16 else "greedy"
        rows = open(os.path.join(out, "cover_pack.csv")).read().splitlines()[1:]
        assert rows == [count(space, None, a, mode).csv_row() for a in scales
                        for count in (metric_core.covering_number, metric_core.packing_number)]

    def test_exact_cap_is_no_option(self, tmp_path, capsys):
        # --exact-cap 1000 on 60 points ran an exhaustive search that did not end
        gen = ("--generate", "uniform:60:10:2", "--alpha", "1.0")
        assert run("metric", "--out", str(tmp_path / "o"), *gen, "--exact-cap", "1000") == 1
        assert "unrecognized arguments: --exact-cap 1000" in capsys.readouterr().err
        out = str(tmp_path / "greedy")
        assert run("metric", "--out", out, *gen) == 0
        rows = open(os.path.join(out, "cover_pack.csv")).read().splitlines()[1:]
        assert [r.split(",")[2] for r in rows] == ["greedy", "greedy"]


    @pytest.mark.parametrize("window", [
        ("0.45", "0.05", "invalid window"), ("nan", "0.45", "invalid window"),
        # no distance of line:17 or its half inside
        ("1e-320", "1e-310", "no probe scale inside window")])
    def test_bad_window_is_config_error(self, tmp_path, window, capsys):
        # was exit 2, "invariant violated"
        *window, refused = window
        out = tmp_path / "o"
        assert run("metric", "--out", str(out), "--generate", "line:17:1.0",
                   "--window", *window) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {refused}")
        assert os.listdir(out) == ["manifest.json"]


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

    def test_epsilon_above_class_is_config_error(self, tmp_path, step_file, capsys):
        assert run("encode", "--out", str(tmp_path / "o"), "--input", step_file,
                   "--epsilon", "1e9", "--budget", "1") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: need eps <=")

    @pytest.mark.parametrize("command, writer", [("encode", "write_codeword"),
                                                 ("decode", "write_step")])
    def test_failed_writer_leaves_nothing(self, tmp_path, step_file, monkeypatch, capsys,
                                          command, writer):
        # both used to write straight to the final path, so a writer that
        # failed halfway left a partial codeword.bvc or decoded.step
        enc = str(tmp_path / "enc")
        assert run("encode", "--out", enc, "--input", step_file,
                   "--epsilon", "0.1", "--budget", "1.0") == 0

        def halfway(obj, path):
            with open(path, "w") as fh:
                fh.write("partial")
            raise OSError("disk full")
        monkeypatch.setattr(cli, writer, halfway)
        out = tmp_path / "out"
        source = step_file if command == "encode" else os.path.join(enc, "codeword.bvc")
        extra = ["--epsilon", "0.1", "--budget", "1.0"] if command == "encode" else []
        assert run(command, "--out", str(out), "--input", source, *extra) == 1
        assert capsys.readouterr().err.splitlines() == ["error: disk full"]
        assert sorted(os.listdir(out)) == ["manifest.json"]


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

    @pytest.mark.parametrize("header", [
        # numpy or Python messages, exit 1
        {"L": -1.0}, {"h2": 0.0},
        {"net_token": "uniform:1.0:0.0"}, {"net_token": "uniform:a:b"},
        {"net_token": "bogus"},
        # a RuntimeWarning first; two, then exit 2; an OverflowError traceback
        {"L": math.inf}, {"h2": math.inf}, {"net_token": "uniform:0:inf"},
        # nets past MAX_NET_SIZE: "Unable to allocate 113. TiB" (exit 1), and
        # a diameter that overflows to inf
        {"net_token": "uniform:0:1e12"}, {"net_token": "uniform:-1e308:1e308"},
    ])
    def test_bad_header_is_one_line_exit_2(self, tmp_path, codeword, header):
        path = tmp_path / "bad.bvc"
        write_codeword(dataclasses.replace(codeword, **header), path)
        proc = run_python("-m", "bventropy.cli", "decode", "--input", str(path),
                          "--out", str(tmp_path / "d"))
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("invariant violated: "), proc.stderr

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

    @pytest.mark.parametrize("gamma", ["0", "-2"])
    def test_gamma_below_one_names_option(self, tmp_path, gamma, capsys):
        assert run("scan", "--out", str(tmp_path / "s"), "--gamma", gamma) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: --gamma must be at least 1, got {gamma}"]


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

    @pytest.mark.parametrize("cfl", ["0", "2"])
    def test_unstable_cfl_is_config_error(self, tmp_path, cfl, capsys):
        assert run("claw", "--out", str(tmp_path / "c"), "--cfl", cfl) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cfl = {float(cfl)} must lie in")

    @pytest.mark.parametrize("M", ["0.02", "0.025", "1e308"])
    def test_radius_without_gauge_widths_fails_first(self, tmp_path, M, capsys):
        # --M 0.02 evolved and wrote solution.csv, then failed on the gauge's
        # internal width grid linspace(0.05, 2M, 32)
        out = tmp_path / "c"
        assert run("claw", "--out", str(out), "--M", M) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --M must exceed 0.025")
        assert os.listdir(out) == ["manifest.json"]

    def test_vanishing_gauge_writes_only_the_manifest(self, tmp_path, capsys):
        # solution.csv was written before the flux gauge refused the flux
        out = tmp_path / "c"
        assert run("claw", "--out", str(out), "--flux", "poly:1e300;0;1") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: flux is affine on a full window")
        assert os.listdir(out) == ["manifest.json"]

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
WITNESS_LINE17 = ("witness", "--generate", "line:17:1.0", "--epsilon", "0.002",
                  "--window", "0.05", "0.45")
# The step file of the ``step_file`` fixture stands in for STEP.
ENCODE_STEP = ("encode", "--input", "STEP", "--epsilon", "0.1", "--budget", "1.0")


@pytest.mark.parametrize("argv", [
    ("claw", "--dx", "0"),
    ("claw", "--epsilon", "0"),
    ("claw", "--T", "0"),
    ("claw", "--T", "-1"),
    ("claw", "--L", "0"),
    WITNESS_LINE5 + ("--L", "0"),
    WITNESS_LINE5 + ("--center", "5"),
    WITNESS_LINE5 + ("--center", "-1"),
    ("claw", "--cfl", "0"),
    ("claw", "--cfl", "2"),
    ("scan", "--gamma", "0"),
    # a 2.8 PiB grid: numpy refuses the allocation, so nothing is used
    ("claw", "--dx", "1e-14"),
    # gamma = 3 ran past 15 s; gamma = 40 was a numpy RuntimeError traceback
    ("scan", "--gamma", "3"),
    ("scan", "--gamma", "40"),
    # about 2e301 time steps: ran until killed
    ("claw", "--cfl", "1e-300", "--dx", "0.05"),
    # overflow warnings came first: f at 1e300, then the Gaussian far out
    ("claw", "--dx", "0", "--M", "1e300"),
    ("claw", "--dx", "1e300", "--M", "1e-300", "--epsilon", "2"),
    # an OverflowError traceback from choose_params or build_family
    WITNESS_LINE5 + ("--budget", "inf"),
    ENCODE_STEP + ("--budget", "inf"),
    # exited 2, "invariant violated"
    WITNESS_LINE5 + ("--budget", "-1"),
    ENCODE_STEP + ("--budget", "-1"),
    # a ZeroDivisionError traceback
    WITNESS_LINE5 + ("--L", "inf"),
    # exited 0 with h = inf
    WITNESS_LINE5 + ("--epsilon", "inf"),
    ENCODE_STEP + ("--epsilon", "inf"),
    # affine fluxes are not weakly genuinely nonlinear; both exited 2
    ("claw", "--flux", "poly:0;1"),
    ("claw", "--flux", "poly:0;0;0"),
    # numpy's overflow warning printed before the error line
    ("claw", "--flux", "poly:0;1e308;1e308"),
    # psi of a positive scale underflows to 0: a ZeroDivisionError traceback
    ENCODE_STEP + ("--gauge", "pow:1e300"),
    ("scan", "--gamma", "2", "--eps-grid", "1e-300"),
    # exited 0, the first with a 0.0-bit bound
    ("claw", "--epsilon", "inf"),
    ("claw", "--gamma-lm", "nan"),
    ("claw", "--gamma-lm", "-1"),
    # exited 2, "invariant violated"; the last after four warning lines
    ("metric", "--generate", "line:5:nan"),
    ("metric", "--generate", "lattice:2:3:nan"),
    ("metric", "--generate", "line:5:inf"),
    # witness families too large to check: 4,096 sampled words on N1 = 61
    # blocks, past the 58 the work bound lets them take; N1 = 319 took 43 s,
    # and the last two ran past 60 s
    WITNESS_LINE17 + ("--budget", "190"),
    WITNESS_LINE17 + ("--budget", "1e3"),
    WITNESS_LINE17 + ("--budget", "1e4"),
    WITNESS_LINE17 + ("--budget", "1e300"),
    # nonlinear, but its affine gap underflows in float: exited 2
    ("claw", "--flux", "poly:1e300;0;1"),
    # an OverflowError traceback: the scan's after its whole traversal, the
    # encode's from choose_params
    ("scan", "--gamma", "2", "--eps-grid", "0.1,0.05,1e-310"),
    ENCODE_STEP + ("--epsilon", "1e-320"),
    # named "alpha must be positive", psi(5e-201) and radius 2.5e-311, not
    # the scan's epsilon
    ("scan", "--gamma", "1", "--eps-grid", "0.1,5e-324"),
    ("scan", "--gamma", "2", "--eps-grid", "0.1,1e-200"),
    ("scan", "--gamma", "2", "--eps-grid", "0.1,1e-310"),
    # spaces of no point
    ("metric", "--generate", "uniform:0:1.0:2"),
    ("metric", "--generate", "lattice:2:0:1.0"),
    ("metric", "--generate", "lattice:0:3:1.0"),
    ("metric", "--generate", "uniform:4:1.0:0"),
])
def test_bad_number_is_one_error_line(tmp_path, step_file, argv):
    argv = [step_file if a == "STEP" else a for a in argv]
    proc = run_python("-m", "bventropy.cli", *argv, "--out", str(tmp_path / "o"))
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    if "--eps-grid" in argv:
        # the grid's last epsilon is the one the class bounds cannot take
        eps = float(argv[argv.index("--eps-grid") + 1].split(",")[-1])
        assert f"scan epsilon {eps!r} is too small" in lines[0], proc.stderr
    if argv[-1] in ("uniform:0:1.0:2", "lattice:2:0:1.0", "lattice:0:3:1.0"):
        assert lines == [f"error: bad generator token {argv[-1]!r}: need at least one point"]
    if argv[-1] == "uniform:4:1.0:0":
        assert lines == [f"error: bad generator token {argv[-1]!r}: points have no coordinates"]


@pytest.mark.parametrize("argv, code", [
    (("metric", "--generate", "line:17:1.0", "--window", "0.45", "0.05"), 1),
    (("variation", "--input", "STEP", "--gauge", "table:TABLE"), 1),
    # l1_distance is patched to a decode error of 0.5 > epsilon
    (ENCODE_STEP, 2),
    (("decode", "--input", "CUT"), 2),
    (WITNESS_LINE17 + ("--budget", "190"), 1),
    (("scan", "--gamma", "2", "--eps-grid", "0.1,1e-310"), 1),
    (("claw", "--flux", "poly:1e300;0;1"), 1),
    # a window whose packing dimension is 0 has no family
    pytest.param(("witness", "--generate", "uniform:16:1.0:2", "--seed", "4", "--window",
                  "0.1", "0.3", "--epsilon", "0.002", "--budget", "1.0"), 1, id="witness-p0-1"),
], ids=lambda v: v[0] if isinstance(v, tuple) else str(v))
def test_refused_run_leaves_only_the_manifest(tmp_path, step_file, monkeypatch, capsys,
                                              argv, code):
    # encode wrote codeword.bvc and encode_report.csv before its decode-error
    # check refused the run
    table = tmp_path / "table.csv"
    table.write_text("0,0\n0.5,0.4\n1,0.5\n2,3\n")     # not convex at s = 0.5
    cut = tmp_path / "cut.bvc"
    write_codeword(encode_bv(read_step(step_file), 1.0, 0.1), cut)
    cut.write_bytes(cut.read_bytes()[:-1])
    monkeypatch.setattr(cli, "l1_distance", lambda f, g: 0.5)
    paths = {"STEP": step_file, "table:TABLE": f"table:{table}", "CUT": str(cut)}
    out = tmp_path / "o"
    assert run(*[paths.get(a, a) for a in argv], "--out", str(out)) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error: " if code == 1 else "invariant violated: "), err
    assert os.listdir(out) == ["manifest.json"]


def test_zero_budget_witness_is_a_family_of_constants(tmp_path):
    assert run(*WITNESS_LINE5, "--budget", "0", "--out", str(tmp_path / "w")) == 0


def test_outputs_get_the_mode_open_gives(tmp_path, step_file):
    old = os.umask(0o022)
    try:
        assert run("scan", "--out", str(tmp_path / "s"), "--eps-grid", "0.1,0.05") == 0
        assert run("encode", "--out", str(tmp_path / "e"), "--input", step_file,
                   "--epsilon", "0.1", "--budget", "1.0") == 0
        assert run("decode", "--out", str(tmp_path / "d"),
                   "--input", str(tmp_path / "e" / "codeword.bvc")) == 0
    finally:
        os.umask(old)
    files = [p for d in "sed" for p in (tmp_path / d).iterdir()]
    assert len(files) == 7
    assert {oct(stat.S_IMODE(p.stat().st_mode)) for p in files} == {"0o644"}


def test_outputs_follow_a_strict_umask(tmp_path, step_file):
    old = os.umask(0o077)
    try:
        assert run("scan", "--out", str(tmp_path / "s"), "--eps-grid", "0.1,0.05") == 0
        assert run("encode", "--out", str(tmp_path / "e"), "--input", step_file,
                   "--epsilon", "0.1", "--budget", "1.0") == 0
        assert run("decode", "--out", str(tmp_path / "d"),
                   "--input", str(tmp_path / "e" / "codeword.bvc")) == 0
    finally:
        os.umask(old)
    files = [p for d in "sed" for p in (tmp_path / d).iterdir()]
    assert len(files) == 7
    assert {oct(stat.S_IMODE(p.stat().st_mode)) for p in files} == {"0o600"}


def test_writes_leave_the_umask_alone(tmp_path, monkeypatch):
    # the umask is process-wide: setting it to read it races with other threads
    def refuse(mask):
        raise AssertionError(f"os.umask({mask:#o}) called")
    monkeypatch.setattr(os, "umask", refuse)
    assert run("scan", "--out", str(tmp_path / "s"), "--eps-grid", "0.1,0.05") == 0
    assert sorted(os.listdir(tmp_path / "s")) == ["manifest.json", "scan.csv"]


def test_parser_defaults_are_the_library_constants():
    parser = build_parser()
    assert parser.parse_args(["claw", "--out", "o"]).cfl == claw.CFL
