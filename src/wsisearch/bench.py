"""Query-time scaling measurements against synthetic databases.

For each database size T the harness builds a fresh synthetic corpus and
prepares the query representations up front (mosaics and signatures are
indexing work, not search work).  It then times only the query stage: each
sample is one call timed right after an untimed call of the same query, so
every size is timed with its own data in cache, and the samples go
round-robin across the sizes, one query at a time, for at least
MIN_TIMING_SECONDS, so a change in the host's speed hits every size alike
and the small sizes' medians rest on many samples.  The
fitted log-log slope of median query time against T sits next to each
engine's theoretical exponent so scaling regressions are visible at a
glance.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .experiment import ENGINE_MODULES, make_params
from .synth import SyntheticSpec, generate

#: theoretical growth exponent of query cost in the database size T
THEORY_EXPONENT = {
    "yottixel": 1.0,  # linear scan of slide bags
    "sish": 0.0,  # probe count fixed by budget, not by T
    "retccl": 1.0,  # flat scan over all mosaic patches
    "hshr": 1.0,  # Hamming scan, k incidence rows and sorts over T slides
}
#: least wall time the timed rounds of one engine take; repetitions past
#: ``BenchSpec.repetitions`` continue until it is reached
MIN_TIMING_SECONDS = 0.5


@dataclass(frozen=True)
class BenchSpec:
    sizes: tuple[int, ...] = (50, 100, 200, 400)
    repetitions: int = 3
    queries: int = 3
    patches_per_slide: int = 40
    dim: int = 64
    k: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.sizes) < 2:
            raise ValidationError("need at least two sizes to fit a slope")
        if min(self.sizes) < 2:
            raise ValidationError("sizes must be >= 2")
        if self.repetitions < 1 or self.queries < 1:
            raise ValidationError("repetitions and queries must be >= 1")


@dataclass
class EngineBench:
    engine: str
    sizes: tuple[int, ...]
    median_seconds: list[float]
    slope: float
    theory: float


def _corpus(size: int, spec: BenchSpec) -> tuple[list, list]:
    synth = SyntheticSpec(
        n_sites=1,
        subtypes_per_site=1,
        slides_per_subtype=size,
        patches_per_slide=spec.patches_per_slide,
        dim=spec.dim,
        separation=1.0,
        sigma=0.5,
        queries_per_subtype=spec.queries,
        seed=spec.seed,
    )
    return generate(synth)


def bench_query(engine: str, spec: BenchSpec | None = None) -> EngineBench:
    """Median query latency per database size plus the fitted scaling slope."""
    spec = spec or BenchSpec()
    if engine not in ENGINE_MODULES:
        raise ValidationError(
            f"unknown engine {engine!r}; choose from {sorted(ENGINE_MODULES)}"
        )
    mod = ENGINE_MODULES[engine]
    params = make_params(engine, {"seed": spec.seed})

    # every size's database first, then the timed rounds
    prepared = []
    for size in spec.sizes:
        db_slides, query_slides = _corpus(size, spec)
        db = mod.build_database(db_slides, params)
        prepared.append((db, [mod.prepare_query(db, q) for q in query_slides]))

    samples: list[list[float]] = [[] for _ in spec.sizes]
    start = time.perf_counter()
    rounds = 0
    while rounds < spec.repetitions or time.perf_counter() - start < MIN_TIMING_SECONDS:
        rounds += 1
        for i in range(spec.queries):
            for (db, queries), times in zip(prepared, samples):
                mod.query_slides(db, queries[i], spec.k)  # warm caches
                t0 = time.perf_counter()
                mod.query_slides(db, queries[i], spec.k)
                times.append(time.perf_counter() - t0)
    medians = [float(np.median(times)) for times in samples]

    slope = float(np.polyfit(np.log(spec.sizes), np.log(medians), 1)[0])
    return EngineBench(
        engine=engine,
        sizes=spec.sizes,
        median_seconds=medians,
        slope=slope,
        theory=THEORY_EXPONENT[engine],
    )


def format_report(results: list[EngineBench]) -> str:
    lines = [f"{'engine':<10} {'T':>6} {'median_s':>12}   slope (theory)"]
    for res in results:
        for i, size in enumerate(res.sizes):
            tail = ""
            if i == len(res.sizes) - 1:
                tail = f"   {res.slope:.2f} ({res.theory:.0f})"
            lines.append(f"{res.engine:<10} {size:>6} {res.median_seconds[i]:>12.6f}{tail}")
    return "\n".join(lines)
