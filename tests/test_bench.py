"""Scaling benchmark plumbing on deliberately tiny corpora."""
import math

import pytest

from wsisearch.bench import (
    THEORY_EXPONENT,
    BenchSpec,
    EngineBench,
    bench_query,
    format_report,
)
from wsisearch.errors import ValidationError

TINY = BenchSpec(sizes=(4, 8), repetitions=1, queries=1, patches_per_slide=8, dim=8, seed=0)


def test_theory_covers_every_engine():
    assert set(THEORY_EXPONENT) == {"yottixel", "sish", "retccl", "hshr"}


def test_spec_needs_two_sizes():
    with pytest.raises(ValidationError):
        BenchSpec(sizes=(10,))
    # one distinct size leaves the slope undetermined
    with pytest.raises(ValidationError, match="two distinct sizes"):
        BenchSpec(sizes=(5, 5))


def test_spec_rejects_degenerate_counts():
    with pytest.raises(ValidationError):
        BenchSpec(sizes=(4, 8), repetitions=0)
    with pytest.raises(ValidationError):
        BenchSpec(sizes=(1, 8))


def test_unknown_engine():
    with pytest.raises(ValidationError):
        bench_query("faiss", TINY)


def test_bench_query_shape():
    res = bench_query("yottixel", TINY)
    assert isinstance(res, EngineBench)
    assert res.sizes == (4, 8)
    assert len(res.median_seconds) == 2
    assert all(t > 0 for t in res.median_seconds)
    assert math.isfinite(res.slope)
    assert res.theory == THEORY_EXPONENT["yottixel"]


def test_format_report_lines():
    res = bench_query("yottixel", TINY)
    report = format_report([res])
    lines = report.splitlines()
    assert len(lines) == 1 + len(res.sizes)
    assert "slope (theory)" in lines[0]
    # slope annotation rides on the last size's line only
    assert f"({res.theory:.0f})" in lines[-1]
    assert f"({res.theory:.0f})" not in lines[1]
