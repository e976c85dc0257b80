"""Config parsing, the experiment runner, CSV output, and coefficient dumps."""

import math
import os
import re
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
    example1_exact,
    example2_exact,
    sample_paths,
    solve,
)
from chaosbsde import cli
from chaosbsde.cli import (
    CSV_HEADER,
    ConfigError,
    main,
    parse_config,
    run,
)
from test_chaos_core import oracle_indices


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

    @staticmethod
    def documented_defaults():
        """{example: {key: text}} of every default the cli module docstring
        states, in its key table and its problem-parameter paragraph."""
        doc = cli.__doc__
        table, rest = doc[doc.index("Common keys"):].split("Problem parameters:", 1)
        stated = {name: {} for name in cli._EXAMPLES}
        for key, texts in re.findall(r"^    (\w+) .*\(([^)]*)\)$", table, re.M):
            texts = [text.split(",")[0].strip() for text in texts.split(" / ")]
            for name, text in zip(stated, texts * len(stated) if len(texts) == 1 else texts):
                stated[name][key] = text
        paragraph = " ".join(rest.split("\n\n", 1)[0].split())
        for keys, name, texts in re.findall(
                r"``([^`]+)`` for (\w+) \((?:[^)]*, )?defaults? ([^)]*)\)", paragraph):
            stated[name].update(zip(keys.split(", "), texts.split(", ")))
        return stated

    @pytest.mark.parametrize("example", ["example1", "example2"])
    def test_module_docstring_states_the_defaults(self, tmp_path, example):
        stated = self.documented_defaults()[example]
        want = {**cli._DEFAULTS, **cli._EXAMPLES[example].defaults}
        assert set(want) <= set(stated)
        for key, value in want.items():
            assert type(value)(stated[key]) == value, key
        cfg = parse_config(write_cfg(tmp_path, f"example = {example}\n"))
        assert stated["sample_mode"] == cfg.solver.sample_mode
        assert stated["out"] == cfg.output_path

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

    @pytest.mark.parametrize("example, own", [
        ("example1", ["c"]),
        ("example2", ["alpha", "beta", "gamma", "a", "b", "c"]),
    ])
    def test_unknown_key_lists_exactly_the_valid_keys(self, tmp_path, example, own):
        path = write_cfg(tmp_path, f"example = {example}\nbogus = 3\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        listed = str(exc.value).split("valid keys: ")[1].split(", ")
        common = ["example", "T", "N", "kappa", "p", "q", "M", "seed", "sample_mode",
                  "out", "sweep_axis", "sweep_values"]
        assert len(listed) == len(set(listed))
        assert sorted(listed) == sorted(common + own)

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
        ("sweep_axis = N\nsweep_values = 0,10\n", "N values must be positive, got 0"),
        ("sweep_axis = seed\nsweep_values = -1,0\n", "seed values must be >= 0, got -1"),
    ])
    def test_sweep_validation(self, tmp_path, sweep, pattern):
        with pytest.raises(ConfigError, match=pattern):
            parse_config(write_cfg(tmp_path, "example = example1\n" + sweep))

    @pytest.mark.parametrize("example, body, field, message", [
        ("example1", "T = -1\n", "T", "must be > 0"),
        ("example2", "T = 0\n", "T", "must be > 0"),
        ("example2", "kappa = 0\n", "kappa", "must be > 0"),
        ("example1", "p = 61\n", "p", "must be <= 60"),
        ("example1", "p = -1\n", "p", "must be >= 0, got -1"),
        ("example1", "sweep_axis = p\nsweep_values = 1, 61\n", "sweep_values",
         "p values must be <= 60"),
        ("example1", "T = abc\n", "T", "expected a number, got 'abc'"),
        ("example1", "seed = -1\n", "seed", "must be >= 0, got -1"),
    ], ids=["T_negative", "T_zero", "kappa_zero", "p_above_cap", "p_negative",
            "p_sweep_above_cap", "T_text", "seed_negative"])
    def test_invalid_values_refused_at_parse_time(self, tmp_path, capsys, example,
                                                  body, field, message):
        # The sweep's first point is valid: nothing runs before the refusal.
        out = tmp_path / "never.csv"
        path = write_cfg(tmp_path, f"example = {example}\nM = 10\nq = 1\n"
                                   f"out = {out}\n{body}")
        with pytest.raises(ConfigError):
            parse_config(path)
        assert main(["--config", path]) == 2
        err = capsys.readouterr().err
        line = 6 if field == "sweep_values" else 5
        assert f"{path}:{line}: field '{field}': {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize("example, body, where", [
        ("example2", "kappa = 2000\nN = 2\n", ":6: field 'N': "),
        ("example2", "kappa = 2000\nsweep_axis = N\nsweep_values = 2, 50\n",
         ":7: field 'sweep_values': "),
        ("example1", "T = 20000\n", ": "),
    ], ids=["N", "N_sweep", "default_N"])
    def test_oversized_jump_mean_refused_at_parse_time(self, tmp_path, capsys,
                                                       example, body, where):
        # kappa*h = 2000 at N = 2 and 1000 at example1's default N = 20; the
        # sweep's base N = 50 (kappa*h = 80) alone would pass.
        out = tmp_path / "never.csv"
        path = write_cfg(tmp_path, f"example = {example}\nM = 10\nq = 1\n"
                                   f"out = {out}\n{body}")
        with pytest.raises(ConfigError, match="exceeds the supported maximum 600"):
            parse_config(path)
        assert main(["--config", path]) == 2
        err = capsys.readouterr().err
        assert f"{path}{where}per-interval jump mean kappa*h = " in err
        assert not out.exists()

    # M and out are set by the base config of the test above.
    @pytest.mark.parametrize("body, field, message", [
        ("M = abc\n", "M", "expected an integer, got 'abc'"),
        ("M = 0\n", "M", "must be positive, got 0"),
        ("out =\n", "out", "must be a nonempty path"),
    ], ids=["M_text", "M_zero", "out_empty"])
    def test_malformed_values_refused_with_location(self, tmp_path, capsys, body,
                                                    field, message):
        path = write_cfg(tmp_path, "example = example1\n" + body)
        with pytest.raises(ConfigError):
            parse_config(path)
        assert main(["--config", path]) == 2
        assert f"{path}:2: field '{field}': {message}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("example, params, exact", [
        ("example1", "", lambda pr: example1_exact(pr, 0.0, 0)),
        ("example2", "", lambda pr: example2_exact(pr, 0.0, 0.0, 0)),
        ("example2", "a = 0.4\nb = -0.7\nc = -0.3\n",
         lambda pr: example2_exact(pr, 0.0, 0.0, 0)),
    ], ids=["example1", "example2", "example2_negative_b"])
    def test_exact_columns_are_the_closed_form_at_time_zero(self, tmp_path, example,
                                                             params, exact):
        out = tmp_path / "r.csv"
        cfg = parse_config(write_cfg(
            tmp_path, f"example = {example}\nN = 4\nM = 50\nq = 1\nout = {out}\n"
                      + params))
        assert run(cfg) == 0
        _, (row,) = read_rows(out)
        want = ["%.17g" % v for v in exact(cfg.params)]
        assert [row[k] for k in ("exactY0", "exactZ0", "exactU0")] == want

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

    def test_seed_sweep_from_zero_equals_single_runs(self, tmp_path):
        # seed = 0 is the default, so a seed sweep may start there.
        out = tmp_path / "sweep.csv"
        text = self.base_text(out, "sweep_axis = seed\nsweep_values = 0, 1\n")
        assert main(["--config", write_cfg(tmp_path, text)]) == 0
        swept = strip_wall(out.read_text(encoding="utf-8")).splitlines()
        assert len(swept) == 3
        for seed, row in zip((0, 1), swept[1:]):
            single = tmp_path / f"seed{seed}.csv"
            cfg = write_cfg(tmp_path, self.base_text(single, f"seed = {seed}\n"),
                            f"seed{seed}.cfg")
            assert main(["--config", cfg]) == 0
            assert strip_wall(single.read_text(encoding="utf-8")).splitlines()[1] == row

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

    def test_p_sweep_starts_at_the_constant_expansion(self, tmp_path):
        out = tmp_path / "p.csv"
        text = (f"example = example1\nN = 4\nM = 200\nq = 2\nout = {out}\n"
                "sweep_axis = p\nsweep_values = 0, 1, 2\n")
        assert main(["--config", write_cfg(tmp_path, text)]) == 0
        _, rows = read_rows(out)
        assert [r["p"] for r in rows] == ["0", "1", "2"]
        assert (rows[0]["Z0"], rows[0]["U0"]) == ("0", "0")

    def test_failing_point_returns_one(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        # p = 6 on N = 40 blows past the default index cap: sizing error
        text = f"example = example1\nN = 40\nM = 10\nq = 1\np = 6\nout = {out}\n"
        cfg = parse_config(write_cfg(tmp_path, text))
        assert run(cfg) == 1
        assert "chaosbsde" in capsys.readouterr().err

    def test_failing_sweep_point_is_named_after_the_rows_before_it(self, tmp_path,
                                                                  capsys):
        # p = 1 on N = 40 runs; p = 6 there is the sizing error above.
        out = tmp_path / "f.csv"
        text = (f"example = example1\nN = 40\nM = 10\nq = 1\nout = {out}\n"
                "sweep_axis = p\nsweep_values = 1, 6\n")
        assert main(["--config", write_cfg(tmp_path, text)]) == 1
        assert "chaosbsde: sweep point failed (p=6): " in capsys.readouterr().err
        _, rows = read_rows(out)
        assert [r["p"] for r in rows] == ["1"]


class TestGoldenResults:
    """Result columns (all but wall_ms) pinned to recorded strings, so a
    change to the solver or the report that moves any digit of the CSV
    shows up here. ``example1_p3`` was recorded with the tiled prefix
    kernels, the p = 2 sweep with the block-triangular pair kernels, and
    ``example2_p1`` with the pair kernels, before p = 1 moved to the prefix
    kernels. In those three every product takes a chunk in one sample block;
    the two ``_split`` cases have 1100 samples, and at N = 50, p = 2 and
    N = 10, p = 3 the sample blocks split each 1024-sample chunk, so they pin
    the blocking rule's rounding as well."""

    HEADER = CSV_HEADER.rsplit(",", 1)[0]
    CASES = {
        "example1_p3": (
            "example = example1\nN = 4\np = 3\nq = 3\nM = 2000\nseed = 3\n",
            ["example1,3,4,2000,3,3,reuse,1.5703722847124841,-0.097455343271203296,"
             "1.5685462075816328,1.5,0,1,25.834279953022712,2.1903473216202589,"
             "6.8070557868484727"]),
        "example2_p1": (
            "example = example2\nN = 6\np = 1\nq = 3\nM = 300\nseed = 4\n",
            ["example2,1,6,300,3,4,reuse,6.6551172833665539,0.63655583803006066,"
             "2.1102535073425117,6.5993928490002745,0.65993928490002751,"
             "1.4611237789511622,5.5894874568162791,2.768829733778738,"
             "3.2070104023641264"]),
        "example2_independent_seed_sweep": (
            "example = example2\nN = 6\np = 2\nq = 3\nM = 300\n"
            "sample_mode = independent\nsweep_axis = seed\nsweep_values = 1, 2, 5\n",
            ["example2,2,6,300,3,1,independent,7.8447917185652827,4.61414471362247,"
             "-0.27147363166251126,6.5993928490002745,0.65993928490002751,"
             "1.4611237789511622,72.741468390035109,48.643649226004598,"
             "31.34379981679535",
             "example2,2,6,300,3,2,independent,7.2518327287007196,-1.0227897301416824,"
             "1.2436341723366506,6.5993928490002745,0.65993928490002751,"
             "1.4611237789511622,121.56023819315058,65.705880458464478,"
             "93.810028228355065",
             "example2,2,6,300,3,5,independent,8.4658654267766185,1.9492315212116444,"
             "2.8144866037017722,6.5993928490002745,0.65993928490002751,"
             "1.4611237789511622,169.58024380740437,57.960309810190878,"
             "156.18773875481929"]),
        "example2_p2_split": (
            "example = example2\nN = 50\np = 2\nq = 2\nM = 1100\nseed = 6\n",
            ["example2,2,50,1100,2,6,reuse,8.9236260467712025,1.0540391612632041,"
             "1.3441118457625263,6.5993928490002745,0.65993928490002751,"
             "1.4611237789511622,18090.457243486591,527.43495328183678,"
             "1024.4102034553243"]),
        "example1_p3_split": (
            "example = example1\nN = 10\np = 3\nq = 2\nM = 1100\nseed = 6\n",
            ["example1,3,10,1100,2,6,reuse,1.6359567466788281,0.5226801910053801,"
             "1.4795464415934787,1.5,0,1,1569.9947876331912,24.084230954577379,"
             "96.203442682089417"]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_result_columns_match_recorded_strings(self, tmp_path, case):
        text, rows = self.CASES[case]
        out = tmp_path / "golden.csv"
        assert main(["--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        got = strip_wall(out.read_text(encoding="utf-8"))
        assert got == "\n".join([self.HEADER] + rows)


class TestMain:
    @pytest.mark.worker_rule
    def test_thread_count_byte_identical_under_the_shipped_rule(self, tmp_path,
                                                                monkeypatch):
        # Acceptance test 10, whose threads 8 run 8 workers under the test
        # suite's lowered rule, here run as shipped: at N = 10, p = 2 every
        # call runs one worker, so no thread may start.
        from chaosbsde import chaos_core
        from test_acceptance import (
            test_10_thread_count_leaves_results_byte_identical as acceptance_10)

        def no_thread(*args, **kwargs):
            raise AssertionError("a one-worker call started a thread")

        monkeypatch.setattr(chaos_core.threading, "Thread", no_thread)
        acceptance_10(tmp_path)

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

    def test_seed_override_refused_in_a_seed_sweep(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        cfg_path = write_cfg(tmp_path, f"example = example1\nN = 3\nM = 300\nq = 1\n"
                                       f"out = {out}\nsweep_axis = seed\n"
                                       f"sweep_values = 1, 2\n")
        assert main(["--config", cfg_path, "--seed", "7"]) == 2
        err = capsys.readouterr().err
        assert "--seed 7" in err and "sweep_axis = seed" in err
        assert not out.exists()

    def test_negative_threads_rejected(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, "example = example1\n")
        assert main(["--config", cfg_path, "--threads", "-1"]) == 2
        capsys.readouterr()

    def test_threads_zero_is_auto(self, tmp_path):
        # 0 resolves to a positive count before the solver checks threads.
        cfg_path = write_cfg(tmp_path, "example = example1\nN = 3\nM = 3000\nq = 1\n")
        texts = []
        for threads in ("0", "1"):
            out = tmp_path / f"t{threads}.csv"
            assert main(["--config", cfg_path, "--out", str(out),
                         "--threads", threads]) == 0
            texts.append(strip_wall(out.read_text(encoding="utf-8")))
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("cpus, want", [(1, 1), (3, 3), (16, 8)])
    def test_threads_zero_follows_cpu_affinity(self, monkeypatch, cpus, want):
        # A process pinned to fewer CPUs than the machine has gets that many
        # threads, capped at 8, whatever os.cpu_count() says.
        from chaosbsde import cli

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert cli._resolve_threads(0) == want
        assert cli._resolve_threads(5) == 5

    def test_threads_zero_without_affinity_uses_cpu_count(self, monkeypatch):
        from chaosbsde import cli

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._resolve_threads(0) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._resolve_threads(0) == 1


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
        degrees = [tuple(tuple(int(d) for d in col.split()) for col in line.split(",")[1:3])
                   for line in lines[2:]]
        assert degrees == oracle_indices(3, cfg.solver.p)
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

    def test_dump_write_failure_is_reported(self, tmp_path, capsys):
        # A directory where the dump goes: reported like a failed sweep
        # point, exit 1, and the rows written so far are kept.
        out = tmp_path / "res.csv"
        (tmp_path / "res_coeffs_M200.csv").mkdir()
        text = (f"example = example1\nN = 3\nM = 200\nq = 1\nout = {out}\n"
                f"sweep_axis = M\nsweep_values = 100, 200, 300\n")
        assert main(["--config", write_cfg(tmp_path, text), "--dump-coeffs"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("chaosbsde: sweep point failed (M=200)")
        assert "res_coeffs_M200.csv" in err
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert [line.split(",")[3] for line in lines[1:]] == ["100", "200"]
        assert (tmp_path / "res_coeffs_M100.csv").is_file()
        assert not (tmp_path / "res_coeffs_M300.csv").exists()


class TestBlasThreads:
    def test_result_columns_identical_across_blas_and_pool_threads(self, tmp_path):
        # Each child process fixes its BLAS thread count at start-up. An N = 50,
        # p = 2 solve is large enough that a product BLAS may split across
        # threads would change the result bytes.
        self.check_columns(tmp_path, "example = example2\nN = 50\np = 2\nM = 2e4\n"
                                     "q = 3\nseed = 3\n")

    def test_result_columns_identical_at_n20_independent(self, tmp_path):
        # At N = 20 every block product spans a whole chunk, where at N = 50
        # the later blocks split it, and independent mode evaluates on a
        # batch the coefficients were not estimated on.
        self.check_columns(tmp_path, "example = example1\nN = 20\np = 2\nM = 3000\n"
                                     "q = 2\nsample_mode = independent\nseed = 3\n")

    def test_result_columns_identical_at_order_three(self, tmp_path):
        self.check_columns(tmp_path, "example = example1\nN = 10\np = 3\nM = 3000\n"
                                     "q = 2\nseed = 3\n")

    def test_result_columns_identical_at_order_three_n20(self, tmp_path):
        # At N = 20 the order-2 parents fall into ten row blocks (two last
        # slots each), and nine of the 30 tiles stack several sample blocks
        # into one np.matmul call.
        self.check_columns(tmp_path, "example = example1\nN = 20\np = 3\nM = 3000\n"
                                     "q = 1\nseed = 3\n")

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
