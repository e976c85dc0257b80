"""Config parsing, the experiment runner, CSV output, and coefficient dumps."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from chaosbsde import (
    Driver,
    SolverConfig,
    TerminalFunctional,
    estimate,
    sample_paths,
    solve,
)
from chaosbsde.cli import (
    CSV_HEADER,
    ConfigError,
    main,
    parse_config,
    run,
)


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def strip_wall(text):
    return "\n".join(",".join(line.split(",")[:-1]) for line in text.splitlines())


class TestParseConfig:
    def test_minimal_example1_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "example = example1\n"))
        assert cfg.example == "example1"
        assert cfg.solver.spec.N == 20
        assert cfg.solver.spec.T == 1.0
        assert cfg.solver.spec.kappa == 1.0
        assert cfg.solver.p == 2
        assert cfg.solver.K_it == 5
        assert cfg.solver.M == 10_000
        assert cfg.solver.seed == 0
        assert cfg.solver.sample_mode == "reuse"
        assert cfg.params.c == 0.5
        assert cfg.sweep is None
        assert cfg.output_path == "results.csv"

    def test_example2_defaults_and_overrides(self, tmp_path):
        text = """
        # benchmark defaults, smaller M
        example = example2
        M = 2e4
        alpha = 0.25
        out = bench.csv
        """
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.solver.spec.N == 50
        assert cfg.solver.spec.T == 2.0
        assert cfg.solver.spec.kappa == 3.0
        assert cfg.solver.K_it == 10
        assert cfg.solver.M == 20_000
        assert cfg.params.alpha == 0.25
        assert cfg.params.b == 0.1
        assert cfg.output_path == "bench.csv"

    def test_sweep_parsing(self, tmp_path):
        text = "example = example1\nsweep_axis = M\nsweep_values = 1000, 5e3, 10000\n"
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.sweep == ("M", (1000, 5000, 10000))

    def test_missing_example_is_an_error(self, tmp_path):
        with pytest.raises(ConfigError, match="example"):
            parse_config(write_cfg(tmp_path, "M = 100\n"))

    def test_unknown_key_reports_line_and_valid_keys(self, tmp_path):
        path = write_cfg(tmp_path, "example = example1\nbogus = 3\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        message = str(exc.value)
        assert f"{path}:2" in message
        assert "bogus" in message and "valid keys" in message

    def test_example2_param_rejected_for_example1(self, tmp_path):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(write_cfg(tmp_path, "example = example1\nalpha = 0.3\n"))

    def test_duplicate_key_reports_both_lines(self, tmp_path):
        path = write_cfg(tmp_path, "example = example1\nM = 10\nM = 20\n")
        with pytest.raises(ConfigError, match="duplicate key 'M'"):
            parse_config(path)

    def test_malformed_line_diagnostic(self, tmp_path):
        path = write_cfg(tmp_path, "example = example1\njust some words\n")
        with pytest.raises(ConfigError, match=":2"):
            parse_config(path)

    def test_non_integer_m_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="'M'"):
            parse_config(write_cfg(tmp_path, "example = example1\nM = 10.5\n"))

    @pytest.mark.parametrize("text", ["inf", "nan", "1e999", "-inf"])
    def test_non_finite_integers_rejected(self, tmp_path, text, capsys):
        for body in (f"N = {text}\n",
                     f"sweep_axis = M\nsweep_values = 1, {text}\n"):
            path = write_cfg(tmp_path, "example = example1\n" + body)
            with pytest.raises(ConfigError, match="expected an integer"):
                parse_config(path)
            assert main(["--config", path]) == 2
            assert "expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["T", "kappa", "c"])
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_floats_rejected_with_location(self, tmp_path, key, text,
                                                      capsys):
        path = write_cfg(tmp_path, f"example = example1\n{key} = {text}\n")
        assert main(["--config", path]) == 2
        err = capsys.readouterr().err
        assert f"{path}:2: field '{key}'" in err
        assert "finite" in err

    @pytest.mark.parametrize("sweep,pattern", [
        ("sweep_axis = M\n", "sweep_values"),
        ("sweep_values = 10,20\n", "sweep_axis"),
        ("sweep_axis = banana\nsweep_values = 1,2\n", "banana"),
        ("sweep_axis = M\nsweep_values = 20,10\n", "increasing"),
        ("sweep_axis = M\nsweep_values = 0,10\n", "positive"),
        ("sweep_axis = M\nsweep_values = 10,,20\n", "empty"),
    ])
    def test_sweep_validation(self, tmp_path, sweep, pattern):
        with pytest.raises(ConfigError, match=pattern):
            parse_config(write_cfg(tmp_path, "example = example1\n" + sweep))

    def test_example1_kappa_must_stay_pinned(self, tmp_path):
        with pytest.raises(ConfigError, match="kappa"):
            parse_config(write_cfg(tmp_path, "example = example1\nkappa = 2\n"))

    def test_bad_sample_mode(self, tmp_path):
        with pytest.raises(ConfigError, match="sample_mode"):
            parse_config(write_cfg(tmp_path,
                                   "example = example1\nsample_mode = both\n"))

    def test_config_file_is_closed(self, tmp_path):
        path = write_cfg(tmp_path, "example = example1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            parse_config(path)
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(str(tmp_path / "absent.cfg"))


class TestRun:
    def base_text(self, out, extra=""):
        return (f"example = example1\nN = 5\nM = 600\nq = 2\nout = {out}\n" + extra)

    def test_single_run_row_matches_solver(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = parse_config(write_cfg(tmp_path, self.base_text(out)))
        assert run(cfg) == 0
        header, rows = read_rows(out)
        assert ",".join(header) == CSV_HEADER
        assert len(rows) == 1
        row = rows[0]
        assert row["example"] == "example1"
        assert (row["p"], row["N"], row["M"], row["q"]) == ("2", "5", "600", "2")
        grid = solve(cfg.solver, Driver.linear_jump(0.5),
                     TerminalFunctional.poisson_count())
        assert float(row["Y0"]) == grid.Y[0, 0]
        assert float(row["Z0"]) == grid.Z[0, 0]
        assert float(row["U0"]) == grid.U[0, 0]
        assert float(row["exactY0"]) == pytest.approx(1.5)
        assert float(row["exactU0"]) == 1.0
        assert float(row["errY"]) >= 0.0
        assert float(row["wall_ms"]) > 0.0

    def test_sweep_of_one_equals_single_run(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        cfg_a = parse_config(write_cfg(tmp_path, self.base_text(out_a), "a.cfg"))
        cfg_b = parse_config(write_cfg(
            tmp_path, self.base_text(out_b, "sweep_axis = M\nsweep_values = 600\n"),
            "b.cfg"))
        assert run(cfg_a) == 0 and run(cfg_b) == 0
        a = strip_wall(out_a.read_text(encoding="utf-8"))
        b = strip_wall(out_b.read_text(encoding="utf-8"))
        assert a == b

    def test_sweep_rows_and_point_configs(self, tmp_path):
        out = tmp_path / "sweep.csv"
        text = self.base_text(out, "sweep_axis = seed\nsweep_values = 1, 4, 9\n")
        cfg = parse_config(write_cfg(tmp_path, text))
        assert run(cfg) == 0
        _, rows = read_rows(out)
        assert [r["seed"] for r in rows] == ["1", "4", "9"]
        assert len({r["Y0"] for r in rows}) == 3

    @pytest.mark.parametrize("axis", ["M", "N", "p", "q", "seed"])
    def test_every_sweep_axis_sets_its_column(self, tmp_path, axis):
        out = tmp_path / "s.csv"
        base = {"N": "4", "M": "100", "q": "1", "p": "1", "seed": "5"}
        text = ("example = example1\n" + "".join(f"{k} = {v}\n" for k, v in base.items())
                + f"out = {out}\nsweep_axis = {axis}\nsweep_values = 2, 3\n")
        assert main(["--config", write_cfg(tmp_path, text), "--dump-coeffs"]) == 0
        _, rows = read_rows(out)
        for key, value in base.items():
            want = ["2", "3"] if key == axis else [value, value]
            assert [r[key] for r in rows] == want
        for v in (2, 3):
            assert (tmp_path / f"s_coeffs_{axis}{v}.csv").exists()

    def test_output_is_byte_stable_modulo_wall(self, tmp_path):
        out = tmp_path / "s.csv"
        cfg = parse_config(write_cfg(tmp_path, self.base_text(out)))
        assert run(cfg) == 0
        first = strip_wall(out.read_text(encoding="utf-8"))
        assert run(cfg) == 0
        second = strip_wall(out.read_text(encoding="utf-8"))
        assert first == second

    def test_threads_do_not_change_values(self, tmp_path):
        out = tmp_path / "t.csv"
        cfg = parse_config(write_cfg(tmp_path, self.base_text(out)))
        assert run(cfg, threads=1) == 0
        one = strip_wall(out.read_text(encoding="utf-8"))
        assert run(cfg, threads=4) == 0
        four = strip_wall(out.read_text(encoding="utf-8"))
        assert one == four

    def test_failing_point_returns_one(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        # p = 6 on N = 40 blows past the default index cap: sizing error
        text = f"example = example1\nN = 40\nM = 10\nq = 1\np = 6\nout = {out}\n"
        cfg = parse_config(write_cfg(tmp_path, text))
        assert run(cfg) == 1
        assert "chaosbsde" in capsys.readouterr().err


class TestGoldenResults:
    """Result columns (all but wall_ms) pinned to strings recorded with the
    materializing error report that the streamed one replaced, so a change
    to the solver or the report that moves any digit of the CSV shows up
    here."""

    HEADER = CSV_HEADER.rsplit(",", 1)[0]
    CASES = {
        "example1_p3": (
            "example = example1\nN = 4\np = 3\nq = 3\nM = 2000\nseed = 3\n",
            ["example1,3,4,2000,3,3,reuse,1.5703722847124844,-0.097455343271203324,"
             "1.568546207581633,1.5,0,1,25.834279953022737,2.1903473216202602,"
             "6.8070557868484851"]),
        "example2_independent_seed_sweep": (
            "example = example2\nN = 6\np = 2\nq = 3\nM = 300\n"
            "sample_mode = independent\nsweep_axis = seed\nsweep_values = 1, 2, 5\n",
            ["example2,2,6,300,3,1,independent,7.8447917185652827,4.6141447136224691,"
             "-0.27147363166251132,6.5993928490002745,0.65993928490002751,"
             "1.4611237789511622,72.741468390035109,48.643649226004598,"
             "31.34379981679534",
             "example2,2,6,300,3,2,independent,7.2518327287007196,-1.0227897301416824,"
             "1.2436341723366504,6.5993928490002745,0.65993928490002751,"
             "1.4611237789511622,121.56023819315058,65.705880458464478,"
             "93.810028228355051",
             "example2,2,6,300,3,5,independent,8.4658654267766185,1.9492315212116449,"
             "2.8144866037017722,6.5993928490002745,0.65993928490002751,"
             "1.4611237789511622,169.58024380740437,57.960309810190871,"
             "156.18773875481932"]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_result_columns_match_recorded_strings(self, tmp_path, case):
        text, rows = self.CASES[case]
        out = tmp_path / "golden.csv"
        assert main(["--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        got = strip_wall(out.read_text(encoding="utf-8"))
        assert got == "\n".join([self.HEADER] + rows)


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, "example = example9\n")
        assert main(["--config", bad]) == 2
        assert "example" in capsys.readouterr().err
        assert main(["--config", str(tmp_path / "absent.cfg")]) == 2
        capsys.readouterr()

    def test_out_and_seed_overrides(self, tmp_path):
        cfg_path = write_cfg(
            tmp_path, f"example = example1\nN = 4\nM = 300\nq = 1\n"
                      f"out = {tmp_path / 'ignored.csv'}\n")
        out = tmp_path / "cli.csv"
        assert main(["--config", cfg_path, "--out", str(out), "--seed", "5"]) == 0
        _, rows = read_rows(out)
        assert rows[0]["seed"] == "5"
        assert not (tmp_path / "ignored.csv").exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, "example = example1\n")
        assert main(["--config", cfg_path, "--seed", "-2"]) == 2
        capsys.readouterr()

    def test_negative_threads_rejected(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, "example = example1\n")
        assert main(["--config", cfg_path, "--threads", "-1"]) == 2
        capsys.readouterr()


class TestDumpCoefficients:
    def test_dump_matches_estimator(self, tmp_path):
        out = tmp_path / "d.csv"
        text = f"example = example1\nN = 3\nM = 400\nq = 2\nout = {out}\n"
        cfg = parse_config(write_cfg(tmp_path, text))
        assert main(["--config", str(write_cfg(tmp_path, text, "d.cfg")),
                     "--dump-coeffs"]) == 0
        dump = tmp_path / "d_coeffs.csv"
        assert dump.exists()
        lines = dump.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "rank,nB,nP,d_value,weight"
        grid = solve(cfg.solver, Driver.linear_jump(0.5),
                     TerminalFunctional.poisson_count())
        co = grid.coeffs_final
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == "0 0 0" and first[2] == "0 0 0"
        assert float(first[3]) == co.d0
        assert float(first[4]) == 1.0
        assert len(lines) == 2 + len(co.values)
        ranks = [int(line.split(",")[0]) for line in lines[1:]]
        assert ranks == list(range(len(co.values) + 1))
        np.testing.assert_array_equal(
            np.array([float(line.split(",")[3]) for line in lines[2:]]), co.values)
        np.testing.assert_allclose(
            np.array([float(line.split(",")[4]) for line in lines[2:]]),
            co.weights(), rtol=1e-15)

    def test_poisson_terminal_unit_coefficients(self, tmp_path):
        # xi = N_T with f = 0 at p = 1: d0 near kappa T, units near 1
        spec_n, M = 5, 30_000
        paths = sample_paths(
            parse_config(write_cfg(tmp_path,
                                   f"example = example1\nN = {spec_n}\nM = {M}\n"
                                   f"q = 1\np = 1\n")).solver.spec, M, seed=0)
        F = np.asarray(paths.Q.sum(axis=1), dtype=float)
        co = estimate(F, paths, 1)
        assert co.d0 == pytest.approx(1.0, abs=4.0 / math.sqrt(M))
        for i in range(spec_n):
            nP = tuple(1 if k == i else 0 for k in range(spec_n))
            assert co.entry(((0,) * spec_n, nP)) == pytest.approx(1.0, abs=0.12)

    def test_dump_per_sweep_point(self, tmp_path):
        out = tmp_path / "s.csv"
        text = (f"example = example1\nN = 3\nM = 200\nq = 1\nout = {out}\n"
                f"sweep_axis = M\nsweep_values = 100, 200\n")
        cfg_path = write_cfg(tmp_path, text)
        assert main(["--config", cfg_path, "--dump-coeffs"]) == 0
        assert (tmp_path / "s_coeffs_M100.csv").exists()
        assert (tmp_path / "s_coeffs_M200.csv").exists()


class TestBlasThreads:
    def test_result_columns_identical_across_blas_and_pool_threads(self, tmp_path):
        # Each child process fixes its BLAS thread count at start-up. An N = 50,
        # p = 2 solve is large enough that a product BLAS may split across
        # threads would change the result bytes.
        self.check_columns(tmp_path, "example = example2\nN = 50\np = 2\nM = 2e4\n"
                                     "q = 3\nseed = 3\n")

    def test_result_columns_identical_at_order_three(self, tmp_path):
        self.check_columns(tmp_path, "example = example1\nN = 10\np = 3\nM = 3000\n"
                                     "q = 2\nseed = 3\n")

    @staticmethod
    def check_columns(tmp_path, cfg_text):
        cfg = write_cfg(tmp_path, cfg_text)
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        texts = {}
        for blas in (1, 2):
            for threads in (1, 2):
                out = tmp_path / f"b{blas}t{threads}.csv"
                env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas),
                           OMP_NUM_THREADS=str(blas), PYTHONPATH=pythonpath)
                proc = subprocess.run(
                    [sys.executable, "-m", "chaosbsde.cli", "--config", cfg,
                     "--out", str(out), "--threads", str(threads)],
                    env=env, capture_output=True, text=True, timeout=300)
                assert proc.returncode == 0, proc.stderr
                texts[blas, threads] = strip_wall(out.read_text(encoding="utf-8"))
        assert len(texts[1, 1].splitlines()) == 2
        assert all(text == texts[1, 1] for text in texts.values())
