"""The bare command repeats the gated runs, and repeats are reduced as documented."""

import json
from pathlib import Path

import pytest

import run
from workloads import Op


def test_default_seconds_are_the_gated_run_seconds():
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert run.DEFAULT_SECONDS == bench["run_seconds"]


def test_steady_stats_keep_each_ops_best_and_median_repeat():
    # Two tasks of one op each, four passes; the slow repeats are load.
    times = {0: [1.0, 2.0, 1.0, 9.0], 1: [3.0, 9.0, 5.0, 9.0]}
    tasks = [(index, series[repeat], [Op("verdict", index, series[repeat])])
             for repeat in range(4) for index, series in times.items()]
    stats = run.steady_stats(tasks, "verdict")
    assert stats["p50"] == pytest.approx(2.0)
    assert stats["p90"] == pytest.approx(2.8)
    assert stats["rate"] == pytest.approx(2 / 4.0)
    assert stats["median_p50"] == pytest.approx(4.25)
    assert stats["median_p90"] == pytest.approx(6.45)
    assert stats["samples"] == "n=2 ops, best of 4 repeats"
    assert run.steady_stats(tasks, "threshold") is None
