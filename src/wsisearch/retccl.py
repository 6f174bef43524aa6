"""Cosine-threshold retrieval with entropy-ordered bags and majority voting.

The database is a flat index of every mosaic patch.  Each query patch pulls
in all database patches with cosine similarity at or above the threshold,
forming a bag.  Bags with mixed labels (high entropy) sort last, bags whose
best scores are weak (mean of top five under the cross-bag median) are
dropped, and each surviving bag nominates one slide: the best-scoring hit
that carries the bag's majority label.

The index is columnar: one float32 mosaic row per indexed patch, with its
float64 norm, its coords and its slide's index in the slide table.  Slides
are listed in slide_id order and their rows stacked in that order, so a
row's index orders it by (slide_id, mosaic member).  A row's unit vector is
its float32 features in float64 over its norm.  A pair's (reference) score
is ``clip((u * v).sum(), -1, 1)`` of its two unit vectors.

A query is screened with one float32 GEMM over the stored rows, scaled by
each row's 1/norm in float64, which reads half the bytes a float64 unit
store would.  ``_estimates`` bounds the screen's distance from the
reference, and the reference is computed only where that bound leaves a
decision in doubt: whether a row reaches the threshold, and which rows
come first by (score desc, row asc).  A bag holds its whole hit set, but
only its top hits, the ones the quality rule and the vote read, are put in
order, and the entropy needs no more than each subtype's best hit.  The rows
are stored dim-major (Fortran order), so that the GEMM reads
``features.T`` as a plain C-contiguous (dim, N) operand; BLAS takes a slower
path for a transposed row-major one when the query has few rows.  A gather
of rows still yields C-contiguous rows, so the reference sums in the same
order under either layout.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    UndefinedSimilarityError,
    UnprocessedSlideError,
    ValidationError,
)
from .model import (
    CandidateFilter,
    PatchFeature,
    RetrievalResult,
    SlideRecord,
    SlideTable,
    as_patches,
    check_k,
    check_query_dim,
    check_query_rows,
    ordered_entropy,
    ranked_patches,
    slide_seed,
    subtype_codes,
)
from .mosaic import Mosaic, build_mosaic_percent, check_mosaic_params, encode_mosaics
from .mosaic import SUBNORMAL_SLACK, UNIT_ROUNDOFF

QUALITY_MEDIAN = "median"
QUALITY_NONE = "none"
#: hits per bag whose scores the quality rule and the vote read
TOP_HITS = 5
#: float32's unit roundoff and smallest subnormal, for the screen's bound
UNIT_ROUNDOFF32 = np.finfo(np.float32).eps / 2
TINY32 = float(np.finfo(np.float32).smallest_subnormal)


@dataclass(frozen=True)
class RetcclParams:
    sim_threshold: float = 0.70
    k_primary: int = 9
    fraction: float = 0.20
    quality_rule: str = QUALITY_MEDIAN
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.sim_threshold <= 1.0):
            raise ValidationError(
                f"sim_threshold must lie in (0, 1], got {self.sim_threshold}"
            )
        if self.quality_rule not in (QUALITY_MEDIAN, QUALITY_NONE):
            raise ValidationError(f"unknown quality rule {self.quality_rule!r}")
        check_mosaic_params(self.k_primary, self.fraction)


@dataclass(frozen=True, eq=False)
class Bag:
    """One query patch with everything the database matched to it."""

    ordinal: int
    # (n,) int64 database rows reaching the threshold: the first
    # min(n, TOP_HITS) by reference score descending, then row ascending;
    # the rest in ascending row order
    hits: np.ndarray
    scores: np.ndarray  # (min(n, TOP_HITS),) float64 reference score of the top hits
    # subtype entropy of all hits, its terms summed in order of each
    # subtype's best hit; +inf for an empty bag, so it always filters out
    entropy: float


@dataclass
class RetcclDatabase(SlideTable):
    """Slides are listed in slide_id order, so a row's ``slide`` is also the
    rank of its slide_id; rows run in slide order."""

    params: RetcclParams
    features: np.ndarray  # (N, dim) float32 mosaic rows, Fortran (dim-major) order
    norms: np.ndarray  # (N,) float64, each row's _row_norms in float64
    slide: np.ndarray  # (N,) int64, index into slide_ids and labels, ascending
    coords: np.ndarray  # (N, 2) int32, (x, y) per row of features

    @property
    def n_patches(self) -> int:
        return int(self.features.shape[0])

    @property
    def unit_features(self) -> np.ndarray:
        """(N, dim) float64 unit rows, dim-major: the vectors the reference
        scores, made afresh on each access."""
        return self.features.astype(np.float64) / self.norms[:, None]


def _mosaic_rows(mosaic: Mosaic) -> tuple[np.ndarray, np.ndarray]:
    """(coords, features) of the percent mosaic clustered on the features
    themselves; zero vectors are dropped because cosine similarity cannot
    see them.  A row is zero only if every component is: a float32 norm
    underflows to 0 for rows of tiny nonzero components."""
    nonzero = mosaic.features.any(axis=1)
    if not nonzero.any():
        raise UnprocessedSlideError(
            f"slide {mosaic.slide_id!r}: every mosaic patch is a zero vector"
        )
    return mosaic.coords[nonzero], mosaic.features[nonzero]


def _mosaics(slides: Sequence[SlideRecord], params: RetcclParams) -> list[Mosaic]:
    """Percent mosaics clustered on the features themselves."""
    return build_mosaic_percent(
        slides,
        (slide.features for slide in slides),
        k_primary=params.k_primary,
        fraction=params.fraction,
        seeds=[slide_seed(params.seed, slide.slide_id) for slide in slides],
    )


def _query_rows(slide: SlideRecord, params: RetcclParams) -> tuple[np.ndarray, np.ndarray]:
    return _mosaic_rows(_mosaics([slide], params)[0])


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's ``np.linalg.norm``, bit for bit: both take the square root
    of the row's dot product with itself (``norm(axis=1)`` rounds
    differently).  Database rows and query rows share it, so a row's unit
    vector is the same wherever it comes from."""
    return np.sqrt(np.vecdot(rows, rows))


def build_database(
    slides: Sequence[SlideRecord], params: RetcclParams | None = None
) -> RetcclDatabase:
    params = params or RetcclParams()
    table, kept = encode_mosaics(slides, lambda batch: _mosaics(batch, params), _mosaic_rows)
    sizes = [len(coords) for coords, _ in kept]
    features = np.empty((sum(sizes), table["dim"]), dtype=np.float32, order="F")
    np.concatenate([rows for _, rows in kept], out=features)
    return RetcclDatabase(
        **table,
        params=params,
        features=features,
        # a slide at a time, so no float64 copy of the whole store is made
        norms=np.concatenate([_row_norms(rows.astype(np.float64)) for _, rows in kept]),
        slide=np.repeat(np.arange(len(kept)), sizes),
        coords=np.concatenate([coords for coords, _ in kept]),
    )


def prepare_query(db: RetcclDatabase, slide: SlideRecord) -> np.ndarray:
    """(m, dim) features of the query slide's non-zero mosaic members."""
    check_query_dim(db, slide)
    return _query_rows(slide, db.params)[1]


def _estimates(db: RetcclDatabase, features: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(units, est, err): each (m, dim) query row in float64 over its own
    norm, as database rows are (zero rows stay zero), its (m, N) screened
    scores, and per query row a bound on their distance from the reference.

    The screen is ``q @ f.T / n`` with ``q`` the unit rows rounded to
    float32, ``f`` the float32 rows and ``n`` their float64 norms.  With u
    a unit query row, d the dimension, c = (u . f) / n the exact score of a
    row, u32 = 2^-24 and γ = (d + 1) u32 / (1 - (d + 1) u32):

    - rounding u to float32 moves each component by at most u32 |u_i|, or
      2^-150 where it underflows, so the sum moves by at most
      u32 Σ|u_i f_i| + 2^-150 Σ|f_i|;
    - a float32 sum of d products in any order, fused or not, lies within
      γ_d Σ|q_i f_i| of the exact one, plus at most 2^-149 per product
      that underflows;
    - Σ|u_i f_i| <= |u| |f|, Σ|f_i| <= √d |f|, and |f| / n and the
      float64 scaling differ from 1 by a few float64 roundoffs;

    so |est - c| <= γ |u| + d 2^-149 (1 + 1 / min n), to first order; the
    bound doubles that, which covers the second-order terms.  The reference
    lies within (d + 2) u64 |u| of c (u64 the float64 roundoff), plus what
    underflowing float64 products add, as any float64 dot product of the
    unit vectors does; the bound adds 4 (d + 2) u64 |u| + d SUBNORMAL_SLACK
    for it, the bound a float64 screen of the unit rows would carry, which
    also covers rounding in the comparisons against the bound.  A float32
    sum that overflows ends infinite or NaN, never finite, so a non-finite
    estimate is replaced by its reference and needs no bound; a finite one
    saw no overflow.
    """
    units = features.astype(np.float64)
    norms = _row_norms(units)
    np.divide(units, norms[:, None], out=units, where=norms[:, None] > 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # overflows are rescored below
        est = (units.astype(np.float32) @ db.features.T) / db.norms
    if not np.isfinite(est).all():
        for i, row in enumerate(est):
            rows = np.flatnonzero(~np.isfinite(row))
            est[i, rows] = _reference(db, rows, units[i])
    np.clip(est, -1.0, 1.0, out=est)
    d = units.shape[1]
    gamma = (d + 1) * UNIT_ROUNDOFF32 / (1 - (d + 1) * UNIT_ROUNDOFF32)
    unit_norms = _row_norms(units)
    err = 2 * (gamma * unit_norms + d * TINY32 * (1 + 1 / db.norms.min()))
    err += 4 * (d + 2) * UNIT_ROUNDOFF * unit_norms + d * SUBNORMAL_SLACK
    return units, est, err


def _reference(db: RetcclDatabase, rows: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Score of each database row in ``rows`` against a unit query row:
    ``clip((u * v).sum(), -1, 1)``, set by the pair's two vectors alone."""
    vectors = db.features[rows].astype(np.float64) / db.norms[rows, None]
    return np.clip((vectors * unit).sum(axis=1), -1.0, 1.0)


def _first(
    db: RetcclDatabase, unit: np.ndarray, est: np.ndarray, err: float, rows: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The first ``k`` of ``rows`` by (reference score desc, row asc), and
    their reference scores.  At least k rows score within ``err`` of the
    k-th highest estimate or above, so a row whose estimate lies more than
    twice ``err`` below it cannot be among them; only the others get a
    reference."""
    scores = est[rows]
    if k < len(rows):
        kth = np.partition(scores, len(rows) - k)[len(rows) - k]
        rows = rows[~(scores < kth - 2 * err)]
    ref = _reference(db, rows, unit)
    order = np.lexsort((rows, -ref))[:k]
    return rows[order], ref[order]


def _entropy(
    db: RetcclDatabase,
    codes: np.ndarray,
    unit: np.ndarray,
    est: np.ndarray,
    err: float,
    hits: np.ndarray,
    top: np.ndarray,
) -> float:
    """``label_entropy`` of the hits' subtypes in full hit order, from the
    hit set and its ordered ``top`` rows: its terms run in order of each
    subtype's best hit.  Subtypes in ``top`` come first, in order of their
    first appearance there; the others follow by their best hits."""
    labels = codes[db.slide[hits]]
    counts = np.bincount(labels)
    order = list(dict.fromkeys(codes[db.slide[top]].tolist()))
    rest = [c for c in np.flatnonzero(counts).tolist() if c not in order]
    if len(rest) > 1:
        best = {}
        for c in rest:
            (row,), (score,) = _first(db, unit, est, err, hits[labels == c], 1)
            best[c] = (-score, row)
        rest.sort(key=best.__getitem__)
    return ordered_entropy(counts[order + rest].tolist())


def build_bags(
    db: RetcclDatabase,
    query_features: np.ndarray,
    candidate_filter: CandidateFilter | None = None,
) -> list[Bag]:
    """One bag per row of the (m, dim) query features: all candidates whose
    reference score reaches the threshold.  One GEMM screens the query; the
    reference is computed only near the threshold, for the top hits and
    their rivals, and for each subtype's best hit where the top hits leave
    their order open.  A zero-vector query row scores 0 everywhere, so it
    yields an empty bag (entropy +inf), as zero vectors are invisible to the
    index."""
    check_query_rows(query_features, db.dim)
    mask = db.kept(candidate_filter)[db.slide]
    codes = subtype_codes(db.labels)
    threshold = db.params.sim_threshold
    units, est, err = _estimates(db, query_features)
    bags = []
    for i, (unit, scores, bound) in enumerate(zip(units, est, err)):
        rows = np.flatnonzero(~(scores + bound < threshold) & mask)
        drop = ~(scores[rows] - bound >= threshold)  # in doubt until the reference decides
        if drop.any():
            drop[drop] = _reference(db, rows[drop], unit) < threshold
        hits = rows[~drop]
        if not len(hits):
            bags.append(Bag(i, hits, np.empty(0), math.inf))
            continue
        top, top_scores = _first(db, unit, scores, bound, hits, TOP_HITS)
        entropy = _entropy(db, codes, unit, scores, bound, hits, top)
        rest = np.ones(len(hits), dtype=bool)
        rest[np.searchsorted(hits, top)] = False
        bags.append(Bag(i, np.concatenate([top, hits[rest]]), top_scores, entropy))
    return bags


def filter_and_order_bags(bags: Sequence[Bag], quality_rule: str = QUALITY_MEDIAN) -> list[Bag]:
    """Drop empty and weak bags, then order the rest by rising entropy.

    Weak means the mean of the bag's top-5 scores falls strictly below the
    median of those means across non-empty bags.
    """
    nonempty = [b for b in bags if len(b.hits)]
    if not nonempty:
        return []
    if quality_rule == QUALITY_MEDIAN:
        means = [float(np.mean(b.scores[:TOP_HITS])) for b in nonempty]
        cutoff = float(np.median(means))
        nonempty = [b for b, m in zip(nonempty, means) if m >= cutoff]
    elif quality_rule != QUALITY_NONE:
        raise ValidationError(f"unknown quality rule {quality_rule!r}")
    return sorted(nonempty, key=lambda b: (b.entropy, b.ordinal))


def vote_slides(bags: Sequence[Bag], db: RetcclDatabase, k: int) -> RetrievalResult:
    """Each bag nominates its best hit carrying the bag's majority label;
    distinct slides are collected in bag order until k are found."""
    check_k(k)
    nominees: list[int] = []
    scores: list[float] = []
    for bag in bags:
        if len(nominees) == k:
            break
        top = db.slide[bag.hits[:TOP_HITS]].tolist()
        counts = Counter(db.labels[s].subtype for s in top)
        best = max(counts.values())
        # hits are score-descending, so the first hit whose label is tied
        # for the majority settles the tie toward the higher-scoring label;
        # that hit is also the bag's best hit carrying the majority label
        at = next(i for i, s in enumerate(top) if counts[db.labels[s].subtype] == best)
        if top[at] not in nominees:
            nominees.append(top[at])
            scores.append(float(bag.scores[at]))
    return db.slide_result(nominees, scores, k, "cosine")


def query_slides(
    db: RetcclDatabase,
    query: SlideRecord | np.ndarray,
    k: int,
    candidate_filter: CandidateFilter | None = None,
) -> RetrievalResult:
    check_k(k)
    features = prepare_query(db, query) if isinstance(query, SlideRecord) else query
    bags = build_bags(db, features, candidate_filter)
    ordered = filter_and_order_bags(bags, db.params.quality_rule)
    return vote_slides(ordered, db, k)


def query_patches(
    db: RetcclDatabase,
    patch: PatchFeature,
    k: int,
    candidate_filter: CandidateFilter | None = None,
) -> RetrievalResult:
    """Global top-k patches by reference score, unthresholded, ties by (slide_id, row)."""
    check_k(k)
    check_query_dim(db, patch)
    if not patch.feature.any():
        raise UndefinedSimilarityError("cosine similarity is undefined for a zero vector")
    (unit,), est, err = _estimates(db, patch.feature[None, :])
    rows = np.flatnonzero(db.kept(candidate_filter)[db.slide])
    top, scores = _first(db, unit, est[0], err[0], rows, k)
    return ranked_patches(db, top, scores, k, "cosine")


def query_patch_set(db: RetcclDatabase, slide: SlideRecord) -> list[PatchFeature]:
    """The patches a slide would contribute as individual patch queries."""
    check_query_dim(db, slide)
    return as_patches(*_query_rows(slide, db.params))
