"""Barcode-based retrieval: mosaic patches, binarize, compare by Hamming.

A slide is indexed as the barcodes of its mosaic members, stacked with the
other slides' so one kernel call scores a query against all of them.
Slide-to-slide distance is the median over query barcodes of the minimum
Hamming distance to the target's bag, so one aberrant mosaic patch cannot
dominate the match.  Patch queries skip the aggregation and rank individual
barcodes.
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
    as_patches,
    binarize_barcode,
    check_k,
    check_query_dim,
    check_query_rows,
    database_dim,
    encode_slides,
    hamming_matrix,
    kept_slides,
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


@dataclass
class YottixelDatabase:
    """Every indexed slide's mosaic barcodes, stacked: slide i owns rows
    starts[i] up to starts[i + 1] (or the end) of ``packed`` and ``coords``."""

    params: YottixelParams
    dim: int
    code_length: int
    slide_ids: list[str]
    labels: list[SlideLabels]
    packed: np.ndarray  # (N, ceil(L / 8)) uint8, one row per mosaic member
    coords: np.ndarray  # (N, 2) int32, (x, y) of each row's member
    starts: np.ndarray  # (T,) int64, first row of each slide
    unprocessed: list[tuple[str, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.slide_ids)


def _mosaic(slide: SlideRecord, params: YottixelParams) -> Mosaic:
    return histogram_mosaic(
        slide, params.k_primary, params.fraction, params.histogram_bins, params.seed
    )


def _bag(slide: SlideRecord, params: YottixelParams) -> tuple[np.ndarray, np.ndarray]:
    """(packed barcodes, coords) of the slide's mosaic members."""
    mosaic = _mosaic(slide, params)
    return binarize_barcode(mosaic.features), mosaic.coords


def build_database(slides: Sequence[SlideRecord], params: YottixelParams | None = None) -> YottixelDatabase:
    """Index slides; ones whose mosaic fails land in .unprocessed."""
    params = params or YottixelParams()
    dim = database_dim(slides, min_dim=2)
    bags, unprocessed = encode_slides(slides, lambda slide: _bag(slide, params))
    return YottixelDatabase(
        params=params,
        dim=dim,
        code_length=dim - 1,
        slide_ids=[slide.slide_id for slide, _ in bags],
        labels=[slide.labels for slide, _ in bags],
        packed=np.concatenate([packed for _, (packed, _) in bags]),
        coords=np.concatenate([coords for _, (_, coords) in bags]),
        starts=np.cumsum([0] + [len(packed) for _, (packed, _) in bags[:-1]]),
        unprocessed=unprocessed,
    )


def prepare_query(db: YottixelDatabase, slide: SlideRecord) -> np.ndarray:
    """Packed barcodes of a query slide's mosaic under the database parameters."""
    check_query_dim(db, slide)
    return _bag(slide, db.params)[0]


def _slide_rank(db: YottixelDatabase) -> np.ndarray:
    """Rank of each slide_id in Python's string order (numpy's drops trailing NULs)."""
    return np.argsort(sorted(range(len(db)), key=db.slide_ids.__getitem__))


def median_min_hamming(query: np.ndarray, stacked: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per target slide, the median over query rows of the minimum distance
    into that slide's rows; slide i owns rows starts[i] up to starts[i + 1]."""
    distances = hamming_matrix(query, stacked)
    return np.median(np.minimum.reduceat(distances, starts, axis=1), axis=0)


def query_slides(
    db: YottixelDatabase,
    query: SlideRecord | np.ndarray,
    k: int,
    candidate_filter: CandidateFilter | None = None,
) -> RetrievalResult:
    """Top-k slides by ascending median-of-minimum Hamming distance."""
    check_k(k)
    qpacked = prepare_query(db, query) if isinstance(query, SlideRecord) else query
    check_query_rows(qpacked, db.packed.shape[1])
    scores = median_min_hamming(qpacked, db.packed, db.starts)
    kept = np.flatnonzero(kept_slides(candidate_filter, db))
    top = kept[np.lexsort((_slide_rank(db)[kept], scores[kept]))][:k].tolist()
    hits = ((db.slide_ids[i], db.labels[i], float(scores[i])) for i in top)
    return ranked_result(hits, k, "hamming")


def query_patches(
    db: YottixelDatabase,
    patch: PatchFeature,
    k: int,
    candidate_filter: CandidateFilter | None = None,
) -> RetrievalResult:
    """Top-k mosaic patches by ascending Hamming distance to one query patch;
    ties go to the lower slide_id, then to the earlier mosaic member."""
    check_k(k)
    check_query_dim(db, patch)
    dists = hamming_matrix(binarize_barcode(patch.feature[None, :]), db.packed)[0]
    owner = np.repeat(np.arange(len(db)), np.diff(db.starts, append=len(db.packed)))
    rows = np.flatnonzero(kept_slides(candidate_filter, db)[owner])
    top = rows[np.lexsort((rows, _slide_rank(db)[owner[rows]], dists[rows]))][:k]
    hits = (
        (patch_ref(db.slide_ids[s], *db.coords[r].tolist()), db.labels[s], float(dists[r]))
        for r, s in zip(top.tolist(), owner[top].tolist())
    )
    return ranked_result(hits, k, "hamming")


def query_patch_set(db: YottixelDatabase, slide: SlideRecord) -> list[PatchFeature]:
    """The patches a slide would contribute as individual patch queries."""
    check_query_dim(db, slide)
    mosaic = _mosaic(slide, db.params)
    return as_patches(mosaic.coords, mosaic.features)
