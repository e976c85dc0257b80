"""Smoke tests of tools/thread_table.py, which measures threads 1 against
threads 2 with the worker rule's constants swapped while it runs, and holds
the measured points the rule is checked against."""

import subprocess

import pytest

from chaosbsde import chaos_core, solve
from test_chaos_core import _thread_table as load_tool


@pytest.mark.worker_rule
def test_point_rows_runs_a_second_worker_where_the_rule_runs_one(started_threads):
    # The shipped rule runs the p = 2 evaluate_grid on one worker at N = 4;
    # the tool's swapped constants let it run two there, and come back after.
    tool = load_tool()
    shipped = dict(chaos_core._WORKER_RULE)
    assert tool.rule_grant("evaluate_grid", 4, 2, 2048) == 1
    rows = tool.point_rows("pair_eval", 4, 2, 2048, 1)
    assert started_threads
    assert [name for name, _ in rows] == ["evaluate_grid"]
    assert sorted(rows[0][1]) == [1, 2]
    assert chaos_core._WORKER_RULE == shipped


@pytest.mark.worker_rule
def test_point_rows_times_p0_inside_solves(monkeypatch, started_threads):
    # p = 0 is timed like every other order: one warm-up and one timed
    # solve at each thread count, with a second worker at threads 2.
    tool = load_tool()
    shipped = dict(chaos_core._WORKER_RULE)
    solves = []

    def counted(*args, **kwargs):
        solves.append(kwargs["threads"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(tool, "solve", counted)
    assert tool.rule_grant("estimate", 4, 0, 2048) == 1
    rows = tool.point_rows("prefix", 4, 0, 2048, 1)
    assert solves == [1, 2, 1, 2]
    assert started_threads
    assert [name for name, _ in rows] == ["estimate", "evaluate_grid"]
    assert all(sorted(got) == [1, 2] for _, got in rows)
    assert chaos_core._WORKER_RULE == shipped


def test_host_ratio_runs_two_processes_and_no_more(monkeypatch):
    tool = load_tool()
    started = []
    popen = subprocess.Popen

    def counted(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(tool.subprocess, "Popen", counted)
    assert tool.host_ratio() > 0
    assert len(started) == 2
    assert [proc.returncode for proc in started] == [0, 0]


@pytest.mark.worker_rule
def test_rows_show_the_rule_grant_and_any_disagreement(capsys):
    tool = load_tool()
    assert tool.main(["--M", "2048", "pair_eval:4:2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("host: two processes of a fixed elementwise loop run ")
    row = out[-1].strip("| ").split(" | ")
    assert row[:4] == ["pair_eval", "evaluate_grid", "4", "2"]
    pays, grant, disagrees = row[-3:]
    assert grant == "1"
    assert disagrees == ("**yes**" if pays == "yes" else "no")


def test_default_points_are_the_measured_ones():
    tool = load_tool()
    assert ("prefix", 2, 8) in tool.DEFAULT_POINTS and ("prefix", 3, 8) in tool.DEFAULT_POINTS
    for call, N, p, _ in tool.MEASURED:
        assert (chaos_core._kernel(call, p), N, p) in tool.DEFAULT_POINTS


@pytest.mark.parametrize("t1, t2, full", [
    ((0.2856, 0.2715), (0.15, 0.29), "**no**"),   # 0.951 at threads 1
    ((0.30, 0.299), (0.20, 0.19), "**no**"),       # 0.950 at threads 2
    ((0.30, 0.299), (0.20, 0.38), "yes"),
], ids=["threads1_short", "threads2_short", "both_full"])
def test_rows_mark_a_side_that_did_not_hold_a_full_core(monkeypatch, capsys, t1, t2, full):
    tool = load_tool()
    monkeypatch.setattr(tool, "host_ratio", lambda: 2.0)
    monkeypatch.setattr(tool, "point_rows",
                        lambda group, N, p, M, runs: [("estimate", {1: t1, 2: t2})])
    assert tool.main(["--M", "2048", "prefix:4:3"]) == 0
    row = capsys.readouterr().out.splitlines()[-1].strip("| ").split(" | ")
    assert row[:4] == ["prefix", "estimate", "4", "3"]
    ratios = [f"{c / w:.3f}" for w, c in (t1, t2)]
    assert row[8:10] == [" / ".join(ratios), full]


@pytest.mark.parametrize("argv, error", [
    (["--M", "0", "prefix:4:3"], "--M must be >= 1"),
    (["--M", "-5", "prefix:4:3"], "--M must be >= 1"),
    (["prefix:0:3"], "N must be >= 1 and p >= 0, got 'prefix:0:3'"),
    (["prefix:4:-1"], "N must be >= 1 and p >= 0, got 'prefix:4:-1'"),
    (["pair_sums:4:3"], "no call runs the kernel 'pair_sums' at p = 3"),
    (["--M", "2048", "prefix:50:5"],
     "truncated basis for N=50, p=5 with 2 worker(s) needs about"),
], ids=["M0", "M_negative", "N0", "p_negative", "pair_off_p2", "over_budget"])
def test_bad_arguments_are_refused_before_the_table(monkeypatch, capsys, argv, error):
    tool = load_tool()
    monkeypatch.setattr(tool, "point_rows", lambda group, N, p, M, runs: [])
    with pytest.raises(SystemExit) as exit:
        tool.main(argv)
    assert exit.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and error in err
