"""Outside-in tracing of wsisearch's public functions.

The tracer replaces a function at every place its callers bind it (the
defining module, and each module that imported it by name) with a wrapper
that records one span per call: name, start, end, parent span and the
operation id the benchmark is running.  Spans live in flat arrays until the
run ends.  Nothing inside the package is edited; ``restore`` puts every
original object back.

``PeakMemory`` is the separate, span-free probe for tracemalloc peaks: it
only runs while a wrapped call is active, so allocation tracking never slows
the timed passes.
"""
from __future__ import annotations

import os
import tracemalloc
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from wsisearch import (
    dataio,
    experiment,
    hshr,
    metrics,
    model,
    mosaic,
    retccl,
    sish,
    synth,
    veb,
    yottixel,
)

ENGINE_MODULES = experiment.ENGINE_MODULES
ENGINES = tuple(ENGINE_MODULES)
ENGINE_ENTRY_POINTS = (
    "build_database",
    "prepare_query",
    "query_slides",
    "query_patches",
    "query_patch_set",
)

#: every module whose namespace may bind a traced function
BINDING_MODULES = (
    dataio,
    experiment,
    metrics,
    model,
    mosaic,
    synth,
    veb,
    yottixel,
    sish,
    retccl,
    hshr,
)

#: (defining module, function) pairs traced besides the engine entry points
TRACED_FUNCTIONS = (
    (dataio, "parse_manifest"),
    (dataio, "load_slides"),
    (dataio, "read_features"),
    (dataio, "save_database"),
    (dataio, "load_database"),
    (experiment, "query_rows_against_db"),
    (experiment, "compute_summary"),
    (mosaic, "histogram_matrix"),
    (mosaic, "kmeans"),
    (mosaic, "build_mosaic_percent"),
    (mosaic, "build_mosaic_fixed"),
    (model, "binarize_barcode"),
    (model, "hamming_distance"),
    (model, "hamming_matrix"),
    (sish, "index_encode"),
    (sish, "guided_search"),
    (sish, "rank_slides"),
    (retccl, "build_bags"),
    (retccl, "filter_and_order_bags"),
    (retccl, "vote_slides"),
    (yottixel, "median_min_hamming"),
    (hshr, "slide_signature"),
    (hshr, "build_hypergraph"),
    (hshr, "ranked_scores"),
)

VEB_METHODS = ("insert", "member", "successor", "predecessor")


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def binding_sites(module, attr: str) -> list:
    """Every module namespace in which ``attr`` is the object ``module`` defines."""
    original = getattr(module, attr)
    return [m for m in BINDING_MODULES if getattr(m, attr, None) is original]


class _Patcher:
    """Remembers every replaced attribute so all can be put back."""

    def __init__(self) -> None:
        self.patched: list[tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, wrapper) -> None:
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> bool:
        """Put every original back; True when each binding is the original
        object again."""
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        return all(getattr(owner, attr) is original for owner, attr, original in self.patched)


class Tracer(_Patcher):
    """Span recorder; see the module docstring."""

    def __init__(self) -> None:
        super().__init__()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter[str] = Counter()
        self.current_op = -1
        self._next_op = 0
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``before(args)`` runs ahead of the call and its value reaches
        ``after(tracer, args, result, token)``, which runs on success.
        """
        fn = getattr(owner, attr)
        nid = self._name_id(name)
        stack, name_ix, parent, op = self._stack, self.name_ix, self.parent, self.op
        start, end = self.start, self.end
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(start)
            name_ix.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.current_op)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            token = before(args) if before is not None else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if after is not None:
                after(tracer, args, result, token)
            return result

        wrapper.__wrapped__ = fn
        self._replace(owner, attr, wrapper)

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens around one operation; it and every
        span under it share a fresh operation id."""
        op = self._next_op
        self._next_op += 1
        nid = self._name_id(name)
        i = len(self.start)
        self.name_ix.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(op)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        previous, self.current_op = self.current_op, op
        t0 = perf_counter()
        try:
            yield
        finally:
            self.end[i] = perf_counter()
            self.start[i] = t0
            self._stack.pop()
            self.current_op = previous

    def instrument(self) -> None:
        """Wrap every traced function at each of its binding sites."""
        for module, attr in TRACED_FUNCTIONS:
            hooks = _HOOKS.get((_short(module), attr), {})
            for site in binding_sites(module, attr):
                self.wrap(site, attr, f"{_short(module)}.{attr}", **hooks)
        for engine, module in ENGINE_MODULES.items():
            for attr in ENGINE_ENTRY_POINTS:
                self.wrap(module, attr, f"{engine}.{attr}")
        for method in VEB_METHODS:
            self.wrap(veb.VebTree, method, f"veb.{method}", before=_veb_before, after=_veb_after)

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return {
            "name": np.frombuffer(self.name_ix, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": start,
            "end": end,
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap in this single-threaded
        benchmark.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        out: dict[str, dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            mask = a["name"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(own[mask].sum()),
            }
        return out

    def child_count(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose direct parent is named ``parent``."""
        if child not in self._name_ids or parent not in self._name_ids:
            return 0
        return int(self._under(child, parent).size)

    def child_total_s(self, child: str, parent: str) -> float:
        """Summed duration of ``child`` spans directly under ``parent`` spans."""
        if child not in self._name_ids or parent not in self._name_ids:
            return 0.0
        a = self.arrays()
        under = self._under(child, parent)
        return float((a["end"][under] - a["start"][under]).sum())

    def _under(self, child: str, parent: str) -> np.ndarray:
        """Indices of ``child`` spans whose direct parent is a ``parent`` span."""
        a = self.arrays()
        spans = np.flatnonzero(a["name"] == self._name_ids[child])
        spans = spans[a["parent"][spans] >= 0]
        return spans[a["name"][a["parent"][spans]] == self._name_ids[parent]]

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _veb_before(args):
    return args[0].total_visits


def _veb_after(tracer, args, result, before):
    tracer.counters["veb.visits"] += args[0].total_visits - before


def _count_file_bytes(tracer, args, result, token):
    tracer.counters["dataio.bytes_read"] += os.path.getsize(args[0])


def _record_db_bytes(tracer, args, result, token):
    tracer.counters[f"dataio.db_bytes.{args[1]}"] = os.path.getsize(args[0])


def _count_hits(tracer, args, result, token):
    tracer.counters["sish.hits_kept"] += len(result)


def _count_bags(tracer, args, result, token):
    tracer.counters["retccl.bags"] += len(result)
    tracer.counters["retccl.bag_hits"] += sum(len(bag.hits) for bag in result)


def _count_kept_bags(tracer, args, result, token):
    tracer.counters["retccl.bags_kept"] += len(result)


_HOOKS = {
    ("dataio", "read_features"): {"after": _count_file_bytes},
    ("dataio", "load_database"): {"after": _count_file_bytes},
    ("dataio", "save_database"): {"after": _record_db_bytes},
    ("sish", "guided_search"): {"after": _count_hits},
    ("retccl", "build_bags"): {"after": _count_bags},
    ("retccl", "filter_and_order_bags"): {"after": _count_kept_bags},
}


class PeakMemory(_Patcher):
    """tracemalloc peak, in bytes above the call's starting point, of the
    largest call to each wrapped function.

    Nested calls are supported: before a child resets the peak counter, the
    parent's peak so far is saved, so the parent still sees the child's
    allocations and its own.
    """

    def __init__(self) -> None:
        super().__init__()
        self.peaks: dict[str, int] = {}
        self._frames: list[list[int]] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name)

        wrapper.__wrapped__ = fn
        self._replace(owner, attr, wrapper)

    def instrument(self) -> None:
        for engine, module in ENGINE_MODULES.items():
            self.wrap(module, "build_database", f"{engine}.build_database")
        for site in binding_sites(mosaic, "kmeans"):
            self.wrap(site, "kmeans", "mosaic.kmeans")

    def _enter(self) -> None:
        if self._frames:
            self._frames[-1][1] = max(self._frames[-1][1], tracemalloc.get_traced_memory()[1])
        else:
            tracemalloc.start()
        current = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        self._frames.append([current, current])

    def _exit(self, name: str) -> None:
        base, seen = self._frames.pop()
        peak = max(seen, tracemalloc.get_traced_memory()[1])
        self.peaks[name] = max(self.peaks.get(name, 0), peak - base)
        if self._frames:
            self._frames[-1][1] = max(self._frames[-1][1], peak)
        else:
            tracemalloc.stop()
