"""Smoke test of tools/thread_table.py, which measures threads 1 against
threads 2 by swapping the worker rule's table while it runs."""

import importlib.util
import pathlib

import pytest

from chaosbsde import chaos_core

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "thread_table.py"


@pytest.mark.worker_rule
def test_point_rows_runs_a_second_worker_where_the_rule_runs_one(monkeypatch,
                                                                started_threads):
    # The shipped rule runs the p = 2 evaluate_grid on one worker at N = 4;
    # the tool's swapped table lets it run two there.
    spec = importlib.util.spec_from_file_location("thread_table", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert chaos_core._workers(2, 2048, 4, 2, "evaluate_grid") == 1
    # grant_only assigns the table outright; monkeypatch puts it back.
    monkeypatch.setattr(chaos_core, "_ONE_WORKER_TO", chaos_core._ONE_WORKER_TO)
    rows = tool.point_rows("pair_eval", 4, 2, 2048, 1)
    assert started_threads
    assert [name for name, _ in rows] == ["evaluate_grid"]
    assert sorted(rows[0][1]) == [1, 2]
