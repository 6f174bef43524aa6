"""Cosine-threshold retrieval with entropy-ordered bags and majority voting.

The database is a flat index of every mosaic patch.  Each query patch pulls
in all database patches with cosine similarity at or above the threshold,
forming a bag.  Bags with mixed labels (high entropy) sort last, bags whose
best scores are weak (mean of top five under the cross-bag median) are
dropped, and each surviving bag nominates one slide: the best-scoring hit
that carries the bag's majority label.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionError,
    EmptyInputError,
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


class Hit(NamedTuple):
    slide_id: str
    ordinal: int  # position of the patch in the flat index
    score: float
    subtype: str


@dataclass(frozen=True)
class Bag:
    """One query patch with everything the database matched to it."""

    ordinal: int
    hits: tuple[Hit, ...]  # sorted by score descending
    entropy: float  # +inf for an empty bag, so it always filters out


@dataclass
class RetcclDatabase:
    params: RetcclParams
    dim: int
    unit_features: np.ndarray  # (N, dim) float64, rows normalized
    patch_slides: list[str]  # slide_id per row of unit_features
    patch_coords: np.ndarray  # (N, 2) int32, (x, y) per row of unit_features
    slide_labels: dict[str, SlideLabels]
    unprocessed: list[tuple[str, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.slide_labels)

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
    return RetcclDatabase(
        params=params,
        dim=dim,
        unit_features=unit,
        patch_slides=[slide.slide_id for slide, (coords, _) in kept for _ in coords],
        patch_coords=np.concatenate([coords for _, (coords, _) in kept]),
        slide_labels={slide.slide_id: slide.labels for slide, _ in kept},
        unprocessed=unprocessed,
    )


def prepare_query(db: RetcclDatabase, slide: SlideRecord) -> np.ndarray:
    """(m, dim) features of the query slide's non-zero mosaic members."""
    check_query_dim(db, slide)
    return _mosaic_rows(slide, db.params)[1]


def _candidate_mask(db: RetcclDatabase, candidate_filter: CandidateFilter | None) -> np.ndarray:
    keep = dict(zip(db.slide_labels, kept_slides(candidate_filter, db.slide_labels.items())))
    return np.array([keep[sid] for sid in db.patch_slides], dtype=bool)


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
    if len(query_features) == 0:
        raise EmptyInputError("query mosaic has no patches")
    if query_features.shape[1] != db.dim:
        raise DimensionError(f"query dim {query_features.shape[1]} != database dim {db.dim}")
    mask = _candidate_mask(db, candidate_filter)
    bags: list[Bag] = []
    for i, row in enumerate(query_features):
        vec = row.astype(np.float64)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            bags.append(Bag(ordinal=i, hits=(), entropy=math.inf))
            continue
        scores = np.clip(db.unit_features @ (vec / norm), -1.0, 1.0)
        picked = np.flatnonzero((scores >= db.params.sim_threshold) & mask)
        hits = [
            Hit(
                slide_id=db.patch_slides[j],
                ordinal=int(j),
                score=float(scores[j]),
                subtype=db.slide_labels[db.patch_slides[j]].subtype,
            )
            for j in picked
        ]
        hits.sort(key=lambda h: (-h.score, h.slide_id, h.ordinal))
        entropy = label_entropy(h.subtype for h in hits) if hits else math.inf
        bags.append(Bag(ordinal=i, hits=tuple(hits), entropy=entropy))
    return bags


def filter_and_order_bags(bags: Sequence[Bag], quality_rule: str = QUALITY_MEDIAN) -> list[Bag]:
    """Drop empty and weak bags, then order the rest by rising entropy.

    Weak means the mean of the bag's top-5 scores falls strictly below the
    median of those means across non-empty bags.
    """
    nonempty = [b for b in bags if b.hits]
    if not nonempty:
        return []
    if quality_rule == QUALITY_MEDIAN:
        means = [float(np.mean([h.score for h in b.hits[:5]])) for b in nonempty]
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
    seen: set[str] = set()
    for bag in bags:
        if len(nominees) == k:
            break
        top = bag.hits[:5]
        counts = Counter(h.subtype for h in top)
        best = max(counts.values())
        # hits are score-descending, so the first hit whose label is tied
        # for the majority settles the tie toward the higher-scoring label
        majority = next(h.subtype for h in top if counts[h.subtype] == best)
        representative = next(h for h in bag.hits if h.subtype == majority)
        if representative.slide_id in seen:
            continue
        seen.add(representative.slide_id)
        nominees.append(
            (
                representative.slide_id,
                db.slide_labels[representative.slide_id],
                representative.score,
            )
        )
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
    vec = patch.feature.astype(np.float64)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise UndefinedSimilarityError("cosine similarity is undefined for a zero vector")
    scores = np.clip(db.unit_features @ (vec / norm), -1.0, 1.0)
    mask = _candidate_mask(db, candidate_filter)

    order = sorted(
        np.flatnonzero(mask),
        key=lambda j: (-scores[j], db.patch_slides[j], int(j)),
    )
    hits = (
        (
            patch_ref(db.patch_slides[j], *db.patch_coords[j].tolist()),
            db.slide_labels[db.patch_slides[j]],
            float(scores[j]),
        )
        for j in order
    )
    return ranked_result(hits, k, "cosine")


def query_patch_set(db: RetcclDatabase, slide: SlideRecord) -> list[PatchFeature]:
    """The patches a slide would contribute as individual patch queries."""
    check_query_dim(db, slide)
    return as_patches(*_mosaic_rows(slide, db.params))
