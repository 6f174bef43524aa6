"""Barcode-based retrieval: mosaic patches, binarize, compare by Hamming.

A slide is indexed as the barcodes of its mosaic members.  Slide-to-slide
distance is the median over query barcodes of the minimum Hamming distance
to the target's bag, so one aberrant mosaic patch cannot dominate the
match.  Patch queries skip the aggregation and rank individual barcodes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import (
    CandidateFilter,
    PatchFeature,
    RetrievalResult,
    SlideLabels,
    SlideRecord,
    binarize_barcode,
    check_k,
    check_query_dim,
    database_dim,
    encode_slides,
    hamming_matrix,
    patch_ref,
    ranked_result,
)
from .mosaic import Mosaic, check_mosaic_params, histogram_mosaic


@dataclass(frozen=True)
class YottixelParams:
    k_primary: int = 9
    fraction: float = 0.15
    histogram_bins: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        check_mosaic_params(self.k_primary, self.fraction, self.histogram_bins)


@dataclass(frozen=True, eq=False)
class IndexedBag:
    """One database slide: its labels plus its mosaic's packed barcodes."""

    slide_id: str
    labels: SlideLabels
    packed: np.ndarray  # (m, ceil(L / 8)) uint8, one row per mosaic member
    coords: tuple[tuple[int, int], ...]  # (x, y) of each row's member


@dataclass
class YottixelDatabase:
    params: YottixelParams
    dim: int
    code_length: int
    entries: list[IndexedBag] = field(default_factory=list)
    unprocessed: list[tuple[str, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)


def _mosaic(slide: SlideRecord, params: YottixelParams) -> Mosaic:
    return histogram_mosaic(
        slide, params.k_primary, params.fraction, params.histogram_bins, params.seed
    )


def build_database(slides: Sequence[SlideRecord], params: YottixelParams | None = None) -> YottixelDatabase:
    """Index slides; ones whose mosaic fails land in .unprocessed."""
    params = params or YottixelParams()
    dim = database_dim(slides, min_dim=2)
    mosaics, unprocessed = encode_slides(slides, lambda slide: _mosaic(slide, params))
    entries = [
        IndexedBag(
            slide_id=slide.slide_id,
            labels=slide.labels,
            packed=binarize_barcode(mosaic.feature_matrix()),
            coords=tuple(m.coord for m in mosaic.members),
        )
        for slide, mosaic in mosaics
    ]
    return YottixelDatabase(
        params=params, dim=dim, code_length=dim - 1, entries=entries, unprocessed=unprocessed
    )


def prepare_query(db: YottixelDatabase, slide: SlideRecord) -> np.ndarray:
    """Packed barcodes of a query slide's mosaic under the database parameters."""
    check_query_dim(db, slide)
    return binarize_barcode(_mosaic(slide, db.params).feature_matrix())


def median_min_hamming(query_packed: np.ndarray, target_packed: np.ndarray) -> float:
    """Median over query rows of the minimum distance into the target rows."""
    distances = hamming_matrix(query_packed, target_packed)
    return float(np.median(distances.min(axis=1)))


def query_slides(
    db: YottixelDatabase,
    query: SlideRecord | np.ndarray,
    k: int,
    candidate_filter: CandidateFilter | None = None,
) -> RetrievalResult:
    """Top-k slides by ascending median-of-minimum Hamming distance."""
    check_k(k)
    qpacked = prepare_query(db, query) if isinstance(query, SlideRecord) else query

    scored: list[tuple[float, str, IndexedBag]] = []
    for entry in db.entries:
        if candidate_filter is not None and not candidate_filter(entry.slide_id, entry.labels):
            continue
        scored.append((median_min_hamming(qpacked, entry.packed), entry.slide_id, entry))
    scored.sort(key=lambda t: (t[0], t[1]))
    return ranked_result(((e.slide_id, e.labels, dist) for dist, _, e in scored), k, "hamming")


def query_patches(
    db: YottixelDatabase,
    patch: PatchFeature,
    k: int,
    candidate_filter: CandidateFilter | None = None,
) -> RetrievalResult:
    """Top-k mosaic patches by ascending Hamming distance to one query patch."""
    check_k(k)
    check_query_dim(db, patch)
    qpacked = binarize_barcode(patch.feature[None, :])

    ranked: list[tuple[int, str, int, IndexedBag]] = []
    for entry in db.entries:
        if candidate_filter is not None and not candidate_filter(entry.slide_id, entry.labels):
            continue
        dists = hamming_matrix(qpacked, entry.packed)[0]
        for ordinal, dist in enumerate(dists):
            ranked.append((int(dist), entry.slide_id, ordinal, entry))
    ranked.sort(key=lambda t: (t[0], t[1], t[2]))
    hits = (
        (patch_ref(slide_id, *entry.coords[ordinal]), entry.labels, float(dist))
        for dist, slide_id, ordinal, entry in ranked
    )
    return ranked_result(hits, k, "hamming")


def query_patch_set(db: YottixelDatabase, slide: SlideRecord) -> list[PatchFeature]:
    """The patches a slide would contribute as individual patch queries."""
    check_query_dim(db, slide)
    return list(_mosaic(slide, db.params).members)
