"""Barcode-based retrieval: mosaic patches, binarize, compare by Hamming.

A slide is indexed as the barcodes of its mosaic members, stacked with the
other slides' so one kernel call scores a query against all of them.
Slide-to-slide distance is the median over query barcodes of the minimum
Hamming distance to the target's bag, so one aberrant mosaic patch cannot
dominate the match.  Patch queries skip the aggregation and rank individual
barcodes.

Slides are listed in slide_id order and their rows stacked in that order,
so one stable sort by distance breaks ties by slide_id (then mosaic member).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    CandidateFilter,
    PatchFeature,
    RetrievalResult,
    SlideRecord,
    SlideTable,
    as_patches,
    binarize_barcode,
    check_k,
    check_query_dim,
    check_query_rows,
    hamming_matrix,
)
from .mosaic import Mosaic, check_mosaic_params, encode_mosaics, histogram_mosaics


@dataclass(frozen=True)
class YottixelParams:
    k_primary: int = 9
    fraction: float = 0.15
    histogram_bins: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        check_mosaic_params(self.k_primary, self.fraction, self.histogram_bins)


@dataclass
class YottixelDatabase(SlideTable):
    """Every indexed slide's mosaic barcodes, stacked in slide order: row j
    of ``packed`` and ``coords`` belongs to slide ``slide[j]``."""

    params: YottixelParams
    packed: np.ndarray  # (N, ceil(L / 8)) uint8, one row per mosaic member
    coords: np.ndarray  # (N, 2) int32, (x, y) of each row's member
    slide: np.ndarray  # (N,) int64, index into slide_ids and labels, ascending


def _bag(mosaic: Mosaic) -> tuple[np.ndarray, np.ndarray]:
    """(packed barcodes, coords) of the mosaic's members."""
    return binarize_barcode(mosaic.features), mosaic.coords


def build_database(slides: Sequence[SlideRecord], params: YottixelParams | None = None) -> YottixelDatabase:
    """Index slides; ones whose mosaic fails land in .unprocessed."""
    params = params or YottixelParams()
    table, bags = encode_mosaics(
        slides, lambda batch: histogram_mosaics(batch, params), _bag, min_dim=2
    )
    return YottixelDatabase(
        **table,
        params=params,
        packed=np.concatenate([packed for packed, _ in bags]),
        coords=np.concatenate([coords for _, coords in bags]),
        slide=np.repeat(np.arange(len(bags)), [len(packed) for packed, _ in bags]),
    )


def prepare_query(db: YottixelDatabase, slide: SlideRecord) -> np.ndarray:
    """Packed barcodes of a query slide's mosaic under the database parameters."""
    check_query_dim(db, slide)
    return _bag(histogram_mosaics([slide], db.params)[0])[0]


def first_k(rows: np.ndarray, values: np.ndarray, k: int) -> np.ndarray:
    """The first k of ``rows`` by ascending ``values[row]``, ties in ``rows``
    order: ``rows[np.argsort(values[rows], kind="stable")][:k]``, with only
    the rows at or below the k-th smallest value sorted."""
    ranked = values[rows]
    if k < len(rows):
        near = ranked <= np.partition(ranked, k - 1)[k - 1]
        rows, ranked = rows[near], ranked[near]
    return rows[np.argsort(ranked, kind="stable")][:k]


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
    """Top-k slides by ascending median-of-minimum Hamming distance, ties by slide_id."""
    check_k(k)
    qpacked = prepare_query(db, query) if isinstance(query, SlideRecord) else query
    check_query_rows(qpacked, db.packed.shape[1])
    starts = np.searchsorted(db.slide, np.arange(len(db)))  # every slide has a row
    scores = median_min_hamming(qpacked, db.packed, starts)
    top = first_k(np.flatnonzero(db.kept(candidate_filter)), scores, k)
    return db.result(top, scores[top], k)


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
    top = first_k(np.flatnonzero(db.kept(candidate_filter)[db.slide]), dists, k)
    return db.result(db.slide[top], dists[top], k, db.coords[top])


def query_patch_set(db: YottixelDatabase, slide: SlideRecord) -> list[PatchFeature]:
    """The patches a slide would contribute as individual patch queries."""
    check_query_dim(db, slide)
    (mosaic,) = histogram_mosaics([slide], db.params)
    return as_patches(mosaic.coords, mosaic.features)
