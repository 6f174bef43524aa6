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
order, and the entropy needs only the hits' subtype counts.  The rows
are stored row-major, so each slide's rows are one contiguous block: a
screen reads only the blocks of the slides it keeps, as ``block @ q.T``
with the block as BLAS's first operand, and the reference gathers whole
rows.  A gather of rows yields C-contiguous rows under any layout, so the
reference sums in the same order whatever the store's layout.

The screen skips whole slides.  Each slide stores a cone that holds its
rows: a unit direction c and cos r, r the largest angle between c and a
unit row.  ``_cone_bounds`` derives from them, per query row, a certified
ceiling on every reference score of the slide.  A bag screens only the
slides whose ceiling reaches the threshold for some query row; a patch
query screens the slide of highest ceiling, takes from it a floor under
the k-th score, and then screens only the slides whose ceiling reaches
it.  A skipped slide holds no hit and no top-k row, so no result depends
on the skip.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import pairwise
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
    slide_seed,
)
from .mosaic import Mosaic, build_mosaic_percent, check_mosaic_params, encode_mosaics
from .mosaic import SUBNORMAL_SLACK, UNIT_ROUNDOFF

QUALITY_MEDIAN = "median"
QUALITY_NONE = "none"
#: hits per bag whose scores the quality rule and the vote read
TOP_HITS = 5
#: float32's unit roundoff and smallest subnormal, for the screen's bound
UNIT_ROUNDOFF32 = float(np.finfo(np.float32).eps) / 2
TINY32 = float(np.finfo(np.float32).smallest_subnormal)
#: float64's smallest normal number and float32's largest finite one
TINY64 = float(np.finfo(np.float64).tiny)
FLOAT32_MAX = float(np.finfo(np.float32).max)


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
    # label_entropy of all hits' subtypes; +inf for an empty bag, so it
    # always filters out
    entropy: float


@dataclass
class RetcclDatabase(SlideTable):
    """Slides are listed in slide_id order, so a row's ``slide`` is also the
    rank of its slide_id; rows run in slide order.  Each slide's cone is
    derived from its rows once, at construction, and pickled with them."""

    params: RetcclParams
    features: np.ndarray  # (N, dim) float32 mosaic rows, C (row-major) order
    norms: np.ndarray  # (N,) float64, each row's _row_norms in float64
    slide: np.ndarray  # (N,) int64, index into slide_ids and labels, ascending
    coords: np.ndarray  # (N, 2) int32, (x, y) per row of features
    #: (T + 1,) int64: slide s holds rows starts[s] to starts[s + 1]
    starts: np.ndarray = field(init=False, repr=False, compare=False)
    #: (T, dim) float64 unit direction c of each slide's cone
    centres: np.ndarray = field(init=False, repr=False, compare=False)
    #: (T,) float64 cos r and sin r: no row of the slide lies further than r from c
    cos_radius: np.ndarray = field(init=False, repr=False, compare=False)
    sin_radius: np.ndarray = field(init=False, repr=False, compare=False)
    #: (T,) float64 smallest row norm of each slide, for the screen's bound
    min_norm: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        self.starts = np.searchsorted(self.slide, np.arange(len(self) + 1))
        self.centres, self.cos_radius, self.sin_radius, self.min_norm = _cones(self)

    @property
    def n_patches(self) -> int:
        return int(self.features.shape[0])

    @property
    def unit_features(self) -> np.ndarray:
        """(N, dim) float64 unit rows: the vectors the reference scores,
        made afresh on each access."""
        return self.features.astype(np.float64) / self.norms[:, None]


def _cones(db: RetcclDatabase) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(centres, cos_radius, sin_radius, min_norm) of every slide's rows.

    c is the direction of the sum of the slide's unit rows, found in
    float32 (any unit vector would serve) and stored as a float64 unit
    vector.  cos r is the least screened score of c against the slide's
    rows less the screen's bound (``_estimates``), so no row's reference
    score with c lies below it, less e (``_cone_bounds``), so no row's
    exact cosine with c does.  A slide with no rows, or whose sum has no
    accurate float64 norm (its square is not a normal number) or whose
    screen overflows, gets c = 0 and cos r = -1: a cone of every direction.
    """
    spans = list(pairwise(db.starts.tolist()))
    # a weight of float32's maximum scales the tiniest rows to norm 1 or less
    weights = np.minimum(1.0 / db.norms, FLOAT32_MAX).astype(np.float32)
    totals = np.zeros((len(spans), db.dim), dtype=np.float32)
    for s, (a, b) in enumerate(spans):
        np.matmul(weights[a:b], db.features[a:b], out=totals[s])
    centres = totals.astype(np.float64)
    square = np.vecdot(centres, centres)
    whole = square >= TINY64
    np.divide(centres, np.sqrt(square)[:, None], out=centres, where=whole[:, None])
    centres[~whole] = 0.0
    query = centres.astype(np.float32)
    est = np.empty(len(db.norms), dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow voids the slide's cone
        for s, (a, b) in enumerate(spans):
            np.matmul(db.features[a:b], query[s], out=est[a:b])
    scores = est / db.norms
    scores[~np.isfinite(scores)] = -np.inf
    # each slide with rows reduces from its first row to the next such slide's
    held = np.flatnonzero(np.diff(db.starts))
    min_norm = np.full(len(spans), np.inf)
    least = np.full(len(spans), np.inf)
    if len(held):
        min_norm[held] = np.minimum.reduceat(db.norms, db.starts[held])
        least[held] = np.minimum.reduceat(scores, db.starts[held])
    # the screen's bound reaches the reference, and e past it the exact cosine
    cos_radius = least - (_query_err(centres) + _slide_err(db.dim, min_norm) + _dot_err(db.dim))
    cos_radius[~whole | ~(cos_radius >= -1.0)] = -1.0
    return centres, cos_radius, np.sqrt((1.0 - cos_radius) * (1.0 + cos_radius)), min_norm


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
    features = np.concatenate([rows for _, rows in kept], dtype=np.float32)
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


def _unit_rows(features: np.ndarray) -> np.ndarray:
    """Each (m, dim) query row in float64 over its own norm, as database
    rows are; zero rows stay zero."""
    units = features.astype(np.float64)
    norms = _row_norms(units)
    np.divide(units, norms[:, None], out=units, where=norms[:, None] > 0.0)
    return units


def _cone_bounds(db: RetcclDatabase, units: np.ndarray) -> np.ndarray:
    """(m, T): per unit query row and slide, a value that no reference score
    of the slide's rows exceeds.

    With θ the angle between a query row u and its slide's direction c, and
    r the largest angle between c and a row v of the slide, the triangle
    inequality gives ∠(u, v) >= θ - r, and cos falls on [0, π], so the
    cosine of u and v is at most cos(max(0, θ - r)).  In floating point,
    with d the dimension, u64 the float64 roundoff and
    e = 4 (d + 2) u64 + d SUBNORMAL_SLACK:

    - u and c are float64 quotients of a vector by its float64 norm, so
      each has a norm within (d + 2) u64 of 1 (or is zero), and their
      float64 dot product lies within (3d + 5) u64 of their exact cosine,
      plus what underflowing products add: within e.  So cos θ <= g =
      u . c + e;
    - ``cos_radius`` is at most the exact cosine of c with every row of its
      slide (``_cones``), so cos r >= ρ = cos_radius, and ``sin_radius`` is
      sqrt((1 - ρ)(1 + ρ));
    - the bound is cos(arccos g' - arccos ρ) = g' ρ + sin(arccos g') sin(arccos ρ)
      with g' = min(g, ρ): where g >= ρ, θ may not exceed r, and g' = ρ gives
      ρ² + sin² = 1.  Each sine is taken as sqrt((1 - x)(1 + x)), whose
      factors round by at most u64 relative, without the cancellation of
      1 - x², so the formula lies within 12 u64 of its exact value;
    - the reference of u and a row lies within e of their exact cosine too;

    so the bound adds e for the reference's own rounding, and 32 u64 for
    the formula's.  A slide whose bound lies below a score holds no row
    that reaches it.
    """
    slack = _dot_err(units.shape[1])
    cos_t = units @ db.centres.T
    cos_t += slack
    np.minimum(cos_t, db.cos_radius, out=cos_t)
    sin_t = np.sqrt((1.0 - cos_t) * (1.0 + cos_t))
    sin_t *= db.sin_radius
    cos_t *= db.cos_radius
    cos_t += sin_t
    cos_t += slack + 32 * UNIT_ROUNDOFF
    return cos_t


def _dot_err(d: int) -> float:
    """e of ``_cone_bounds``: how far a float64 dot product of two unit
    vectors of dimension d may lie from their exact cosine."""
    return 4 * (d + 2) * UNIT_ROUNDOFF + d * SUBNORMAL_SLACK


def _estimates(
    db: RetcclDatabase, units: np.ndarray, slides: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, est, err): the rows of ``slides`` (ascending slide indices),
    their (m, n) screened scores against the (m, dim) unit query rows, and
    per score a bound on its distance from the reference.  Each run of
    consecutive slides is one contiguous block of rows, screened by one
    float32 GEMM.

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

    so |est - c| <= γ |u| + d 2^-149 (1 + 1 / n), to first order; the bound
    doubles that, which covers the second-order terms, and takes the term
    in 1 / n with the smallest norm of the row's slide.  The reference
    lies within (d + 2) u64 |u| of c (u64 the float64 roundoff), plus what
    underflowing float64 products add, as any float64 dot product of the
    unit vectors does; the bound adds 4 (d + 2) u64 |u| + d SUBNORMAL_SLACK
    for it, the bound a float64 screen of the unit rows would carry, which
    also covers rounding in the comparisons against the bound.  A float32
    sum that overflows ends infinite or NaN, never finite, so a non-finite
    estimate is replaced by its reference and needs no bound; a finite one
    saw no overflow.
    """
    blocks = _blocks(db, slides)
    rows = np.concatenate([np.arange(a, b) for a, b in blocks] or [np.empty(0, np.int64)])
    query = units.astype(np.float32)
    est = np.empty((len(units), len(rows)))
    at = 0
    with np.errstate(over="ignore", invalid="ignore"):  # overflows are rescored below
        for a, b in blocks:
            np.divide((db.features[a:b] @ query.T).T, db.norms[a:b], out=est[:, at:at + b - a])
            at += b - a
    if not np.isfinite(est).all():
        for i, row in enumerate(est):
            bad = np.flatnonzero(~np.isfinite(row))
            est[i, bad] = _reference(db, rows[bad], units[i])
    np.clip(est, -1.0, 1.0, out=est)
    per_slide = _slide_err(db.dim, db.min_norm)
    return rows, est, np.add.outer(_query_err(units), per_slide[db.slide[rows]])


def _query_err(units: np.ndarray) -> np.ndarray:
    """The part of ``_estimates``' bound that each (m, dim) unit query row
    carries against every row."""
    d = units.shape[1]
    gamma = (d + 1) * UNIT_ROUNDOFF32 / (1 - (d + 1) * UNIT_ROUNDOFF32)
    err = (2 * gamma + 4 * (d + 2) * UNIT_ROUNDOFF) * _row_norms(units)
    err += 2 * d * TINY32 + d * SUBNORMAL_SLACK
    return err


def _slide_err(d: int, min_norm: np.ndarray) -> np.ndarray:
    """The part of ``_estimates``' bound that each slide's rows carry, from
    their smallest norm: underflowing float32 products."""
    return 2 * d * TINY32 / min_norm


def _blocks(db: RetcclDatabase, slides: np.ndarray) -> list[tuple[int, int]]:
    """(first row, end row) of each run of consecutive ``slides`` (ascending)."""
    blocks: list[tuple[int, int]] = []
    starts = db.starts
    for s in slides.tolist():
        a, b = int(starts[s]), int(starts[s + 1])
        if blocks and blocks[-1][1] == a:
            a = blocks.pop()[0]
        blocks.append((a, b))
    return blocks


def _reference(db: RetcclDatabase, rows: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Score of each database row in ``rows`` against a unit query row:
    ``clip((u * v).sum(), -1, 1)``, set by the pair's two vectors alone."""
    vectors = db.features[rows].astype(np.float64) / db.norms[rows, None]
    return np.clip((vectors * unit).sum(axis=1), -1.0, 1.0)


def _first(
    db: RetcclDatabase, unit: np.ndarray, rows: np.ndarray, est: np.ndarray, err: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The first ``k`` of ``rows`` by (reference score desc, row asc), and
    their reference scores; ``est`` and ``err`` are the rows' estimates and
    bounds.  At least k rows score at or above the k-th highest ``est -
    err``, so a row whose ``est + err`` lies below it cannot be among them;
    only the others get a reference."""
    if k < len(rows):
        floor = np.partition(est - err, len(rows) - k)[len(rows) - k]
        rows = rows[est + err >= floor]
    ref = _reference(db, rows, unit)
    order = np.lexsort((rows, -ref))[:k]
    return rows[order], ref[order]


def build_bags(
    db: RetcclDatabase,
    query_features: np.ndarray,
    candidate_filter: CandidateFilter | None = None,
) -> list[Bag]:
    """One bag per row of the (m, dim) query features: all candidates whose
    reference score reaches the threshold.  One GEMM screens the query over
    the slides whose cone bound reaches the threshold for some query row;
    the others hold no hit.  The reference is computed only near the
    threshold and for the top hits and their rivals; the entropy reads only
    the hits' subtype counts.  A zero-vector query row scores 0 everywhere,
    so it yields an empty bag (entropy +inf), as zero vectors are invisible
    to the index."""
    check_query_rows(query_features, db.dim)
    threshold = db.params.sim_threshold
    units = _unit_rows(query_features)
    near = (_cone_bounds(db, units) >= threshold).any(axis=0) & db.kept(candidate_filter)
    rows, est, err = _estimates(db, units, np.flatnonzero(near))
    bags = []
    for i, (unit, scores, bound) in enumerate(zip(units, est, err)):
        at = np.flatnonzero(~(scores + bound < threshold))
        drop = ~(scores[at] - bound[at] >= threshold)  # in doubt until the reference decides
        if drop.any():
            drop[drop] = _reference(db, rows[at[drop]], unit) < threshold
        at = at[~drop]
        hits = rows[at]
        if not len(hits):
            bags.append(Bag(i, hits, np.empty(0), math.inf))
            continue
        top, top_scores = _first(db, unit, hits, scores[at], bound[at], TOP_HITS)
        entropy = label_entropy(db.subtype_code[db.slide[hits]])
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
        codes = db.subtype_code[top]
        counts = np.bincount(codes)[codes].tolist()
        # hits are score-descending, so the first hit whose label is tied
        # for the majority settles the tie toward the higher-scoring label;
        # that hit is also the bag's best hit carrying the majority label
        at = counts.index(max(counts))
        if top[at] not in nominees:
            nominees.append(top[at])
            scores.append(float(bag.scores[at]))
    return db.result(nominees, scores, k)


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
    """Global top-k patches by reference score, unthresholded, ties by
    (slide_id, row).  Only the kept slides whose cone bound reaches
    ``_floor`` are screened."""
    check_k(k)
    check_query_dim(db, patch)
    if not patch.feature.any():
        raise UndefinedSimilarityError("cosine similarity is undefined for a zero vector")
    units = _unit_rows(patch.feature[None, :])
    bounds = _cone_bounds(db, units)[0]
    kept = db.kept(candidate_filter)
    floor = _floor(db, units, np.where(kept, bounds, -np.inf), k)
    rows, est, err = _estimates(db, units, np.flatnonzero(kept & (bounds >= floor)))
    top, scores = _first(db, units[0], rows, est[0], err[0], k)
    return db.result(db.slide[top], scores, k, db.coords[top])


def _floor(db: RetcclDatabase, units: np.ndarray, bounds: np.ndarray, k: int) -> float:
    """A floor under the k-th highest reference score of the unit query row
    among the slides of finite ``bounds``: the k-th highest screened score
    on the slide of highest bound, less the screen's bound (``_estimates``),
    for at least k of its rows score at or above that.  -inf where that
    slide holds fewer than k rows or its screen overflows."""
    s = int(np.argmax(bounds))
    a, b = int(db.starts[s]), int(db.starts[s + 1])
    if b - a < k or bounds[s] == -np.inf:
        return -np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        est = (db.features[a:b] @ units[0].astype(np.float32)) / db.norms[a:b]
    if not np.isfinite(est).all():
        return -np.inf
    err = _query_err(units)[0] + _slide_err(db.dim, db.min_norm[s])
    return float(np.partition(est, b - a - k)[b - a - k] - err)


def query_patch_set(db: RetcclDatabase, slide: SlideRecord) -> list[PatchFeature]:
    """The patches a slide would contribute as individual patch queries."""
    check_query_dim(db, slide)
    return as_patches(*_query_rows(slide, db.params))
