"""Cosine-threshold retrieval with entropy-ordered bags and majority voting.

The database is a flat index of every mosaic patch.  Each query patch pulls
in all database patches with cosine similarity at or above the threshold,
forming a bag.  Bags with mixed labels (high entropy) sort last, bags whose
best scores are weak (mean of top five under the cross-bag median) are
dropped, and each surviving bag nominates one slide: the best-scoring hit
that carries the bag's majority label.

The index is columnar: one unit feature row per indexed patch, with its
coords and its slide's index in the slide table.  Slides are listed in
slide_id order and their rows stacked in that order, so a row's index
orders it by (slide_id, mosaic member).  A bag is the array of its hit rows
by descending score plus the scores of its top hits.  A pair's score is
``clip((u * v).sum(), -1, 1)`` of its unit vectors; one GEMM estimates a
whole query's, and a score is computed directly only where the estimate's
error bound leaves a threshold or order decision in doubt.  The unit rows
are stored dim-major (Fortran order), so that GEMM reads ``unit_features.T``
as a plain C-contiguous (dim, N) operand; BLAS takes a slower path for a
transposed row-major one when the query has few rows.  A gather of rows
still yields C-contiguous rows, so the direct score sums in the same order
under either layout.
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
    label_entropy,
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
    hits: np.ndarray  # (n,) int64 database rows, by score descending, then row
    scores: np.ndarray  # (min(n, TOP_HITS),) float64 reference score of the top hits
    entropy: float  # +inf for an empty bag, so it always filters out


@dataclass
class RetcclDatabase(SlideTable):
    """Slides are listed in slide_id order, so a row's ``slide`` is also the
    rank of its slide_id; rows run in slide order."""

    params: RetcclParams
    unit_features: np.ndarray  # (N, dim) float64, rows normalized, Fortran (dim-major) order
    slide: np.ndarray  # (N,) int64, index into slide_ids and labels, ascending
    coords: np.ndarray  # (N, 2) int32, (x, y) per row of unit_features

    @property
    def n_patches(self) -> int:
        return int(self.unit_features.shape[0])


def _mosaic_rows(mosaic: Mosaic) -> tuple[np.ndarray, np.ndarray]:
    """(coords, features) of the percent mosaic clustered on the features
    themselves; zero vectors are dropped because cosine similarity cannot
    see them."""
    nonzero = np.linalg.norm(mosaic.features, axis=1) > 0.0
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
    # filled a slide at a time, with no second copy
    unit = np.empty((sum(sizes), table["dim"]), order="F")
    lo = 0
    for _, features in kept:
        rows = features.astype(np.float64)
        rows /= _row_norms(rows)[:, None]  # in row order: dividing into the strided slice is slower
        unit[lo : lo + len(rows)] = rows
        lo += len(rows)
    return RetcclDatabase(
        **table,
        params=params,
        unit_features=unit,
        slide=np.repeat(np.arange(len(kept)), sizes),
        coords=np.concatenate([coords for coords, _ in kept]),
    )


def prepare_query(db: RetcclDatabase, slide: SlideRecord) -> np.ndarray:
    """(m, dim) features of the query slide's non-zero mosaic members."""
    check_query_dim(db, slide)
    return _query_rows(slide, db.params)[1]


def _estimates(db: RetcclDatabase, features: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(units, est, err): each (m, dim) query row in float64 over its own
    norm, as database rows are (zero rows stay zero), its (m, N) scores from
    one GEMM, and per row a bound on their distance from the reference.
    Any order of summing a d-term dot product lies within γ_d |u||v| of the
    exact value (γ_d = du / (1 - du), u the unit roundoff), so the GEMM and
    the reference differ by at most 2 γ_d |u||v| plus what underflowing
    products add.  Database rows are unit to within (d + 4)u; the bound
    doubles all that, which covers rounding in the comparisons against it.
    """
    units = features.astype(np.float64)
    norms = _row_norms(units)
    np.divide(units, norms[:, None], out=units, where=norms[:, None] > 0.0)
    est = units @ db.unit_features.T
    np.clip(est, -1.0, 1.0, out=est)
    d = units.shape[1]
    err = 4 * (d + 2) * UNIT_ROUNDOFF * np.sqrt((units * units).sum(axis=1)) + d * SUBNORMAL_SLACK
    return units, est, err


def _reference(db: RetcclDatabase, rows: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Score of each database row in ``rows`` against a unit query row:
    ``clip((u * v).sum(), -1, 1)``, set by the pair's two vectors alone."""
    return np.clip((db.unit_features[rows] * unit).sum(axis=1), -1.0, 1.0)


def _ranked(
    db: RetcclDatabase, unit: np.ndarray, est: np.ndarray, err: float, rows: np.ndarray, limit: int
) -> np.ndarray:
    """Ascending ``rows`` by descending reference score, ties by row (so by
    slide_id); past the first ``limit``, rows may be missing.  Rows more
    than twice the bound below the limit-th estimate cannot reach the top.
    Neighbours in the estimate ranking further apart than that are in
    reference order, and runs of closer ones are re-sorted by reference."""
    scores = est[rows]
    if limit < len(rows):
        near = ~(scores < np.partition(scores, len(rows) - limit)[len(rows) - limit] - 2 * err)
        rows, scores = rows[near], scores[near]
    order = np.argsort(-scores, kind="stable")
    ranked, key = rows[order], scores[order]
    apart = key[:-1] - key[1:] > 2 * err
    if not apart.all():
        doubt = np.append(~apart, False) | np.insert(~apart, 0, False)
        key[doubt] = _reference(db, ranked[doubt], unit)
        ranked = ranked[np.lexsort((ranked, -key, np.concatenate(([0], np.cumsum(apart)))))]
    return ranked


def build_bags(
    db: RetcclDatabase,
    query_features: np.ndarray,
    candidate_filter: CandidateFilter | None = None,
) -> list[Bag]:
    """One bag per row of the (m, dim) query features: all candidates whose
    reference score reaches the threshold.  One GEMM scores the query; the
    reference is computed only near the threshold, near ties and for the
    reported top scores.  A zero-vector query row scores 0 everywhere, so
    it yields an empty bag (entropy +inf), as zero vectors are invisible to
    the index."""
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
        hits = _ranked(db, unit, scores, bound, rows[~drop], len(rows))
        # subtypes in hit order, the order the entropy sums its terms in
        entropy = label_entropy(codes[db.slide[hits]]) if len(hits) else math.inf
        bags.append(Bag(i, hits, _reference(db, hits[:TOP_HITS], unit), entropy))
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
    top = _ranked(db, unit, est[0], err[0], rows, k)[:k]
    return ranked_patches(db, top, _reference(db, top, unit), k, "cosine")


def query_patch_set(db: RetcclDatabase, slide: SlideRecord) -> list[PatchFeature]:
    """The patches a slide would contribute as individual patch queries."""
    check_query_dim(db, slide)
    return as_patches(*_query_rows(slide, db.params))
