"""scripts/bench_pairs.py: the pair summary behind a claimed gain."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_ties_count_for_neither_side():
    row = bench_pairs.summarise("lower", [1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 3.0], 0.0, 0.0)
    assert row["wins"] == 2 and row["pairs"] == 4


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_gain_needs_nine_tenths_and_a_lead_beyond_the_base_spread(better):
    base = [10.0 + i for i in range(10)]  # quartiles 12.25, 14.5, 16.75
    sign = -1 if better == "lower" else 1
    clear = [b + sign * 5.0 for b in base]
    row = bench_pairs.summarise(better, base, clear, 0.0, 0.0)
    assert row["wins"] == 10 and row["gain"]
    assert row["base"] == (12.25, 14.5, 16.75)
    # winning every pair by less than the base's interquartile range is no gain
    assert not bench_pairs.summarise(better, base, [b + sign * 4.0 for b in base], 0.0, 0.0)["gain"]
    # a clear lead that loses two of ten pairs is no gain
    assert not bench_pairs.summarise(better, base, clear[:8] + base[8:], 0.0, 0.0)["gain"]
    # a clear lead that fails a larger share of operations is no gain
    assert bench_pairs.summarise(better, base, clear, 0.01, 0.01)["gain"]
    assert not bench_pairs.summarise(better, base, clear, 0.0, 0.001)["gain"]


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_worse_mirrors_the_gain_rule_with_the_change_spread(better):
    change = [10.0 + i for i in range(10)]  # quartiles 12.25, 14.5, 16.75
    sign = -1 if better == "lower" else 1
    row = bench_pairs.summarise(better, [c + sign * 5.0 for c in change], change, 0.0, 0.0)
    assert row["wins"] == 0 and row["worse"] and not row["gain"]
    # losing every pair by less than the change's interquartile range is not worse
    base = [c + sign * 4.0 for c in change]
    assert not bench_pairs.summarise(better, base, change, 0.0, 0.0)["worse"]
    # a clear loss that wins two of ten pairs is not worse
    base = [c + sign * 5.0 for c in change[:8]] + change[8:]
    assert not bench_pairs.summarise(better, base, change, 0.0, 0.0)["worse"]
    # a gain is never worse
    gain = bench_pairs.summarise(better, change, [c + sign * 5.0 for c in change], 0.0, 0.0)
    assert gain["gain"] and not gain["worse"]


def test_failed_share_pools_every_run():
    runs = [{"failed": 1, "attempted": 10}, {"failed": 0, "attempted": 30}]
    assert bench_pairs.failed_share(runs) == 1 / 40
    assert bench_pairs.failed_share([{"failed": 0, "attempted": 0}]) == 0.0


def test_benchmark_files_include_the_definition_and_perfbench(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("BENCHMARK.json", "perfbench/run.py", "perfbench/notes.txt"):
        (tmp_path / name).write_text("")
    assert [str(p) for p in bench_pairs.benchmark_files(tmp_path)] == [
        "BENCHMARK.json", "perfbench/run.py",
    ]


def test_differing_engines_names_each_engine_whose_rows_differ():
    base = {"hshr": "a", "retccl": "b", "sish": "c", "yottixel": "d"}
    assert bench_pairs.differing_engines(base, dict(base)) == []
    assert bench_pairs.differing_engines(base, {**base, "sish": "x", "hshr": "y"}) == [
        "hshr", "sish",
    ]
    # an engine that only one run reports differs too
    assert bench_pairs.differing_engines(base, {"retccl": "b", "sish": "c", "yottixel": "d"}) == [
        "hshr",
    ]
    assert bench_pairs.differing_engines({}, {"retccl": "b"}) == ["retccl"]
