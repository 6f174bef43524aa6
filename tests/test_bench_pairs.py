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


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_nine_pairs_call_neither_gain_nor_worse(better):
    base = [10.0 + i for i in range(9)]
    sign = -1 if better == "lower" else 1
    won_all = bench_pairs.summarise(better, base, [b + sign * 50.0 for b in base], 0.0, 0.0)
    assert won_all["wins"] == 9 and not won_all["gain"]
    lost_all = bench_pairs.summarise(better, base, [b - sign * 50.0 for b in base], 0.0, 0.0)
    assert lost_all["wins"] == 0 and not lost_all["worse"]


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


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_bound_rule_flags_a_median_worse_by_more_than_the_bound(better):
    base = [10.0, 10.1, 10.2, 10.3, 10.4]  # median 10.2, interquartile range 0.2
    worse = 1.0 if better == "lower" else -1.0
    # 20% worse against a 25% bound is ok; 30% worse is over
    percent, verdict = bench_pairs.bound_verdict(better, 0.25, base, [b + worse * 2.04 for b in base])
    assert verdict == "ok" and percent == pytest.approx(20.0 * worse)
    percent, verdict = bench_pairs.bound_verdict(better, 0.25, base, [b + worse * 3.06 for b in base])
    assert verdict == "over" and percent == pytest.approx(30.0 * worse)
    # better by any amount is never over
    assert bench_pairs.bound_verdict(better, 0.25, base, [b - worse * 5.0 for b in base])[1] == "ok"


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_bound_rule_cannot_resolve_a_spread_wider_than_the_bound(better):
    tight = [10.0, 10.1, 10.2, 10.3, 10.4]  # a 25% bound allows 2.55
    wide = [6.0, 8.0, 10.0, 13.0, 16.0]  # interquartile range 5
    assert bench_pairs.bound_verdict(better, 0.25, tight, tight)[1] == "ok"
    assert bench_pairs.bound_verdict(better, 0.25, tight, wide)[1] == "unresolved"
    assert bench_pairs.bound_verdict(better, 0.25, wide, tight)[1] == "unresolved"
    # unless every change run beats every base run
    ahead = -1.0 if better == "lower" else 1.0
    spread = [10.2 + ahead * (1.0 + 2.0 * i) for i in range(5)]  # interquartile range 4
    assert bench_pairs.bound_verdict(better, 0.25, tight, spread)[1] == "ok"
    assert bench_pairs.bound_verdict(better, 0.25, tight, spread[:4] + [10.2])[1] == "unresolved"
