"""Cosine-threshold retrieval with entropy-ordered bags and majority voting.

The database is a flat index of every mosaic patch.  Each query patch pulls
in all database patches with cosine similarity at or above the threshold,
forming a bag.  Bags with mixed labels (high entropy) sort last, bags whose
best scores are weak (mean of top five under the cross-bag median) are
dropped, and each surviving bag nominates one slide: the best-scoring hit
that carries the bag's majority label.

The index is columnar: one unit feature row per indexed patch, in build
order, with its coords and the rank of its slide in the slide table, which
lists slides in slide_id order.  A bag is the array of its hit rows plus
their scores, ranked by one lexsort on (-score, slide rank, row).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
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
    SlideLabels,
    SlideRecord,
    as_patches,
    check_k,
    check_query_dim,
    check_query_rows,
    database_dim,
    encode_slides,
    kept_slides,
    label_entropy,
    patch_ref,
    ranked_result,
    slide_seed,
)
from .mosaic import build_mosaic_percent, check_mosaic_params

QUALITY_MEDIAN = "median"
QUALITY_NONE = "none"


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
    hits: np.ndarray  # (n,) int64 database rows, by score descending, slide_id, row
    scores: np.ndarray  # (n,) float64 cosine of each hit
    entropy: float  # +inf for an empty bag, so it always filters out


@dataclass
class RetcclDatabase:
    """Slides are listed in slide_id order, so a row's ``slide`` is also the
    rank of its slide_id; rows stay in build order."""

    params: RetcclParams
    dim: int
    slide_ids: list[str]
    labels: list[SlideLabels]
    unit_features: np.ndarray  # (N, dim) float64, rows normalized
    slide: np.ndarray  # (N,) int64, index into slide_ids and labels
    patch_coords: np.ndarray  # (N, 2) int32, (x, y) per row of unit_features
    unprocessed: list[tuple[str, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.slide_ids)

    @property
    def n_patches(self) -> int:
        return int(self.unit_features.shape[0])


def _mosaic_rows(slide: SlideRecord, params: RetcclParams) -> tuple[np.ndarray, np.ndarray]:
    """(coords, features) of the percent mosaic clustered on the features
    themselves; zero vectors are dropped because cosine similarity cannot
    see them."""
    mosaic = build_mosaic_percent(
        slide,
        slide.features.astype(np.float64),
        k_primary=params.k_primary,
        fraction=params.fraction,
        seed=slide_seed(params.seed, slide.slide_id),
    )
    nonzero = np.linalg.norm(mosaic.features, axis=1) > 0.0
    if not nonzero.any():
        raise UnprocessedSlideError(
            f"slide {slide.slide_id!r}: every mosaic patch is a zero vector"
        )
    return mosaic.coords[nonzero], mosaic.features[nonzero]


def build_database(
    slides: Sequence[SlideRecord], params: RetcclParams | None = None
) -> RetcclDatabase:
    params = params or RetcclParams()
    dim = database_dim(slides)
    kept, unprocessed = encode_slides(slides, lambda slide: _mosaic_rows(slide, params))
    unit = np.concatenate([features for _, (_, features) in kept]).astype(np.float64)
    for vec in unit:  # one norm per row, as queries take theirs; axis=1 rounds differently
        vec /= np.linalg.norm(vec)
    by_id = sorted(range(len(kept)), key=lambda i: kept[i][0].slide_id)
    return RetcclDatabase(
        params=params,
        dim=dim,
        slide_ids=[kept[i][0].slide_id for i in by_id],
        labels=[kept[i][0].labels for i in by_id],
        unit_features=unit,
        # argsort of by_id is each kept slide's rank
        slide=np.repeat(np.argsort(by_id), [len(coords) for _, (coords, _) in kept]),
        patch_coords=np.concatenate([coords for _, (coords, _) in kept]),
        unprocessed=unprocessed,
    )


def prepare_query(db: RetcclDatabase, slide: SlideRecord) -> np.ndarray:
    """(m, dim) features of the query slide's non-zero mosaic members."""
    check_query_dim(db, slide)
    return _mosaic_rows(slide, db.params)[1]


def _unit_scores(db: RetcclDatabase, feature: np.ndarray) -> np.ndarray | None:
    """Cosine of every database row against a feature; None for a zero vector."""
    vec = feature.astype(np.float64)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        return None
    return np.clip(db.unit_features @ (vec / norm), -1.0, 1.0)


def _ranked(db: RetcclDatabase, scores: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``rows`` by descending score, ties by slide_id, then by row."""
    return rows[np.lexsort((rows, db.slide[rows], -scores[rows]))]


def build_bags(
    db: RetcclDatabase,
    query_features: np.ndarray,
    candidate_filter: CandidateFilter | None = None,
) -> list[Bag]:
    """One bag per row of the (m, dim) query features: all candidates at
    cosine >= the threshold.

    A zero-vector query row yields an empty bag (entropy +inf) rather than
    an error, mirroring how zero vectors are invisible to the index.
    """
    check_query_rows(query_features, db.dim)
    mask = kept_slides(candidate_filter, db)[db.slide]
    subtypes = [labels.subtype for labels in db.labels]
    bags: list[Bag] = []
    for i, row in enumerate(query_features):
        scores = _unit_scores(db, row)
        if scores is None:
            bags.append(Bag(i, np.empty(0, dtype=np.int64), np.empty(0), math.inf))
            continue
        hits = _ranked(db, scores, np.flatnonzero((scores >= db.params.sim_threshold) & mask))
        # subtypes in hit order, the order the entropy sums its terms in
        hit_subtypes = [subtypes[s] for s in db.slide[hits].tolist()]
        entropy = label_entropy(hit_subtypes) if hit_subtypes else math.inf
        bags.append(Bag(i, hits, scores[hits], entropy))
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
        means = [float(np.mean(b.scores[:5])) for b in nonempty]
        cutoff = float(np.median(means))
        nonempty = [b for b, m in zip(nonempty, means) if m >= cutoff]
    elif quality_rule != QUALITY_NONE:
        raise ValidationError(f"unknown quality rule {quality_rule!r}")
    return sorted(nonempty, key=lambda b: (b.entropy, b.ordinal))


def vote_slides(bags: Sequence[Bag], db: RetcclDatabase, k: int) -> RetrievalResult:
    """Each bag nominates its best hit carrying the bag's majority label;
    distinct slides are collected in bag order until k are found."""
    check_k(k)
    nominees: list[tuple[str, SlideLabels, float]] = []
    seen: set[int] = set()
    for bag in bags:
        if len(nominees) == k:
            break
        top = db.slide[bag.hits[:5]].tolist()
        counts = Counter(db.labels[s].subtype for s in top)
        best = max(counts.values())
        # hits are score-descending, so the first hit whose label is tied
        # for the majority settles the tie toward the higher-scoring label;
        # that hit is also the bag's best hit carrying the majority label
        at = next(i for i, s in enumerate(top) if counts[db.labels[s].subtype] == best)
        slide = top[at]
        if slide in seen:
            continue
        seen.add(slide)
        nominees.append((db.slide_ids[slide], db.labels[slide], float(bag.scores[at])))
    return ranked_result(nominees, k, "cosine")


def query_slides(
    db: RetcclDatabase,
    query: SlideRecord | np.ndarray,
    k: int,
    candidate_filter: CandidateFilter | None = None,
) -> RetrievalResult:
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
    """Global top-k patches by cosine, unthresholded, ties by (slide, ordinal)."""
    check_k(k)
    check_query_dim(db, patch)
    scores = _unit_scores(db, patch.feature)
    if scores is None:
        raise UndefinedSimilarityError("cosine similarity is undefined for a zero vector")
    top = _ranked(db, scores, np.flatnonzero(kept_slides(candidate_filter, db)[db.slide]))[:k]
    hits = (
        (patch_ref(db.slide_ids[s], *db.patch_coords[j].tolist()), db.labels[s], float(scores[j]))
        for j, s in zip(top.tolist(), db.slide[top].tolist())
    )
    return ranked_result(hits, k, "cosine")


def query_patch_set(db: RetcclDatabase, slide: SlideRecord) -> list[PatchFeature]:
    """The patches a slide would contribute as individual patch queries."""
    check_query_dim(db, slide)
    return as_patches(*_mosaic_rows(slide, db.params))
