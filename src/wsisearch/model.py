"""Shared domain types plus the distance, entropy, and barcoding primitives.

Every engine consumes these types; all of them are immutable after
construction and all operations here are pure functions.  The checks,
slide-encoding loop and result assembly that every engine's build and query
share also live here, so the four engines decide them in one place.

A slide is columnar: one (n, 2) int32 ``coords`` array and one (n, dim)
float32 ``features`` matrix.  ``PatchFeature`` is the single-patch form the
API edge speaks (feature files, patch queries); ``as_patches`` derives it.

A barcode is one ``np.packbits`` row: uint8, most significant bit first,
last byte zero-padded.  Its bit length L is the database's ``code_length``
(feature dimension minus one) and is never stored per code.
``hamming_matrix`` is the one Hamming kernel over such rows.
"""
from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

import numpy as np

from .errors import (
    DimensionError,
    EmptyInputError,
    UnprocessedSlideError,
    ValidationError,
)

MAGNIFICATIONS = ("20x", "40x")
DISTANCE_KINDS = ("hamming", "cosine", "hypergraph", "votes")

#: Default feature width; databases carry their own dimension and engines
#: always read it from there rather than from this constant.
DEFAULT_DIM = 1024


def _read_only_copy(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _frozen_feature(vec: Sequence[float] | np.ndarray) -> np.ndarray:
    arr = _read_only_copy(vec, np.float32)
    if arr.ndim != 1:
        raise DimensionError(f"feature must be one-dimensional, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise EmptyInputError("feature vector is empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("feature vector contains non-finite components")
    return arr


@dataclass(frozen=True, eq=False)
class PatchFeature:
    """One patch: an integer (x, y) grid cell plus its feature vector."""

    x: int
    y: int
    feature: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "feature", _frozen_feature(self.feature))

    @property
    def dim(self) -> int:
        return int(self.feature.shape[0])

    @property
    def coord(self) -> tuple[int, int]:
        return (self.x, self.y)


class SlideLabels(NamedTuple):
    site: str
    subtype: str
    patient_id: str


@dataclass(frozen=True, eq=False)
class SlideRecord:
    """A slide's identifiers, labels, and patch grid as read-only copies of
    two columns: row i of ``coords`` is the (x, y) cell of feature row i."""

    slide_id: str
    patient_id: str
    site: str
    subtype: str
    magnification: str
    coords: np.ndarray  # (n, 2) int32
    features: np.ndarray  # (n, dim) float32

    def __post_init__(self) -> None:
        if not self.patient_id:
            raise ValidationError(f"slide {self.slide_id!r} has an empty patient_id")
        if self.magnification not in MAGNIFICATIONS:
            raise ValidationError(
                f"slide {self.slide_id!r}: magnification must be one of {MAGNIFICATIONS}"
            )
        object.__setattr__(self, "coords", _read_only_copy(self.coords, np.int32))
        object.__setattr__(self, "features", _read_only_copy(self.features, np.float32))
        coords, features = self.coords, self.features
        if features.size == 0:
            raise EmptyInputError(f"slide {self.slide_id!r} has no patches")
        if features.ndim != 2 or coords.shape != (len(features), 2):
            raise DimensionError(f"slide {self.slide_id!r}: coords {coords.shape} "
                                 f"and features {features.shape} are not (n, 2) and (n, dim)")
        if not np.all(np.isfinite(features)):
            raise ValidationError(f"slide {self.slide_id!r} has non-finite features")
        _, first = np.unique(coords, axis=0, return_index=True)
        if len(first) < len(coords):
            repeat = tuple(coords[np.setdiff1d(np.arange(len(coords)), first)[0]].tolist())
            raise ValidationError(f"slide {self.slide_id!r} repeats patch coordinate {repeat}")

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    @property
    def labels(self) -> SlideLabels:
        return SlideLabels(self.site, self.subtype, self.patient_id)


def as_patches(coords: np.ndarray, features: np.ndarray) -> list[PatchFeature]:
    """Per-patch objects of columnar rows, for the API edge that speaks in
    single patches (feature files, patch queries)."""
    return [PatchFeature(x, y, f) for (x, y), f in zip(coords.tolist(), features)]


@dataclass(frozen=True)
class RetrievalEntry:
    target_id: str
    target_site: str
    target_subtype: str
    score: float
    distance_kind: str

    def __post_init__(self) -> None:
        if self.distance_kind not in DISTANCE_KINDS:
            raise ValidationError(f"unknown distance kind {self.distance_kind!r}")


@dataclass(frozen=True)
class RetrievalResult:
    """Ranked matches; may hold fewer entries than were requested."""

    entries: tuple[RetrievalEntry, ...]
    k_requested: int

    def __post_init__(self) -> None:
        if self.k_requested < 1:
            raise ValidationError("k_requested must be >= 1")
        if len(self.entries) > self.k_requested:
            raise ValidationError("result holds more entries than were requested")

    def __len__(self) -> int:
        return len(self.entries)

    def target_ids(self) -> list[str]:
        return [e.target_id for e in self.entries]


#: Per-query predicate over database slides: (slide_id, labels) -> keep.
CandidateFilter = Callable[[str, SlideLabels], bool]

Encoding = TypeVar("Encoding")


def kept_slides(candidate_filter: CandidateFilter | None, db) -> np.ndarray:
    """Per slide of ``db`` (its ``slide_ids`` and ``labels``), whether the
    filter keeps it; no filter keeps all.  Engines take it once per query,
    so the filter runs once per database slide."""
    if candidate_filter is None:
        return np.ones(len(db.slide_ids), dtype=bool)
    return np.array([candidate_filter(*s) for s in zip(db.slide_ids, db.labels)], dtype=bool)


def database_dim(slides: Sequence[SlideRecord], min_dim: int = 1) -> int:
    """The one feature dimension shared by the slides of a database build."""
    if not slides:
        raise EmptyInputError("cannot build a database from zero slides")
    dims = {s.dim for s in slides}
    if len(dims) != 1:
        raise DimensionError(f"slides mix feature dimensions {sorted(dims)}")
    dim = dims.pop()
    if dim < min_dim:
        raise DimensionError(f"coding needs feature dimension >= {min_dim}, got {dim}")
    return dim


def check_k(k: int) -> None:
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")


def check_query_dim(db, query: SlideRecord | PatchFeature) -> None:
    """A query slide or patch must match the dimension the database was built at."""
    if query.dim != db.dim:
        raise DimensionError(f"query dim {query.dim} != database dim {db.dim}")


def check_query_rows(rows: np.ndarray, width: int) -> None:
    """A prepared slide query must be a non-empty (m, width) matrix."""
    if rows.ndim != 2:
        raise DimensionError(f"prepared query must be (m, {width}), got shape {rows.shape}")
    if len(rows) == 0:
        raise EmptyInputError("query mosaic has no patches")
    if rows.shape[1] != width:
        raise DimensionError(f"prepared query width {rows.shape[1]} != database width {width}")


def encode_slides(
    slides: Sequence[SlideRecord], encode: Callable[[SlideRecord], Encoding]
) -> tuple[list[tuple[SlideRecord, Encoding]], list[tuple[str, str]]]:
    """Encode every slide for indexing.

    Returns (slide, encoding) pairs in input order plus the (slide_id,
    reason) of each slide whose encoding failed; at least one slide must
    survive.  Slide ids must be distinct, since engines key slides by id.
    """
    ids = Counter(slide.slide_id for slide in slides)
    repeated = [slide_id for slide_id, n in ids.items() if n > 1]
    if repeated:
        raise ValidationError(f"duplicate slide_id {repeated[0]!r} in database build")
    kept: list[tuple[SlideRecord, Encoding]] = []
    unprocessed: list[tuple[str, str]] = []
    for slide in slides:
        try:
            kept.append((slide, encode(slide)))
        except (ValidationError, UnprocessedSlideError) as exc:
            unprocessed.append((slide.slide_id, str(exc)))
    if not kept:
        raise EmptyInputError(f"none of {len(slides)} slides could be indexed")
    return kept, unprocessed


def ranked_result(
    hits: Iterable[tuple[str, SlideLabels, float]], k: int, kind: str
) -> RetrievalResult:
    """Result of the first k (target_id, labels, score) hits, best first.

    Only k hits are drawn, so ``hits`` may be a lazy filter over a longer
    ranking.
    """
    entries = tuple(
        RetrievalEntry(
            target_id=target_id,
            target_site=labels.site,
            target_subtype=labels.subtype,
            score=score,
            distance_kind=kind,
        )
        for target_id, labels, score in islice(hits, k)
    )
    return RetrievalResult(entries=entries, k_requested=k)


def label_entropy(labels: Iterable[str]) -> float:
    """Shannon entropy (natural log) of the empirical label distribution."""
    counts = Counter(labels)
    total = sum(counts.values())
    if total == 0:
        raise EmptyInputError("label entropy is undefined for an empty multiset")
    return -sum((c / total) * math.log(c / total) for c in counts.values())


_POPCOUNT8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def hamming_matrix(packed_a: np.ndarray, packed_b: np.ndarray) -> np.ndarray:
    """(m_a, m_b) pairwise Hamming distances between packed barcode rows.

    Both inputs must hold codes of one length L, so the zero padding of the
    last byte cancels under xor.
    """
    if packed_a.shape[1] != packed_b.shape[1]:
        raise DimensionError(
            f"packed widths differ: {packed_a.shape[1]} vs {packed_b.shape[1]}"
        )
    xored = packed_a[:, None, :] ^ packed_b[None, :, :]
    return _POPCOUNT8[xored].sum(axis=2, dtype=np.int64)


def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Hamming distance between two packed barcode rows."""
    return int(hamming_matrix(a[None, :], b[None, :])[0, 0])


def patch_ref(slide_id: str, x: int, y: int) -> str:
    """Canonical identifier of one patch inside one slide."""
    return f"{slide_id}:{x},{y}"


def slide_seed(base_seed: int, slide_id: str) -> int:
    """Stable per-slide RNG seed, independent of slide ordering and of
    PYTHONHASHSEED."""
    digest = hashlib.blake2s(
        f"{base_seed}:{slide_id}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def binarize_barcode(feature: Sequence[float] | np.ndarray) -> np.ndarray:
    """Packed barcode of a feature vector: bit i is 1 iff feature[i+1] > feature[i].

    The L = dim - 1 bits are packed most significant first into
    ceil(L / 8) uint8 bytes, the last zero-padded.  A (m, dim) matrix gives
    one packed row per feature row.  Invariant under adding a constant to
    every component and under positive scaling, since only the signs of
    successive differences matter.
    """
    arr = np.asarray(feature)
    if arr.ndim not in (1, 2):
        raise DimensionError(
            f"features must be one- or two-dimensional, got shape {arr.shape}"
        )
    if arr.shape[-1] < 2:
        raise DimensionError("barcoding needs a feature of length >= 2")
    return np.packbits(np.diff(arr, axis=-1) > 0, axis=-1)
