"""Integer-indexed retrieval over a sorted key array.

Each mosaic patch gets two codes: a Hamming barcode for comparing, and a
48-bit integer index for locating.  The index comes from quantizing the
feature to bytes and average-pooling at three granularities (whole vector,
halves, thirds), giving six base-256 digits from coarse to fine, so nearby
features land on nearby integers.  A query walks the indexed keys outward
from its own index with successor/predecessor probes, then keeps only
candidates within a Hamming threshold of its barcode.  The keys sit in one
sorted array: on a static index it gives the successor/predecessor sequence
of the paper's van Emde Boas tree, with each walker's visits one slice.

Slide ranking follows the uncertainty rule: query patches whose retrieved
labels are too mixed (entropy above the median patch entropy) are dropped,
and surviving retrievals vote with weight 1/(1+entropy), divided by the
database frequency of the target's label to blunt class imbalance.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateFeatureError,
    DimensionError,
    EmptyInputError,
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
    binarize_barcode,
    check_k,
    check_query_dim,
    database_dim,
    encode_slides,
    hamming_matrix,
    kept_slides,
    label_entropy,
    patch_ref,
    ranked_result,
)
from .mosaic import check_mosaic_params, histogram_mosaic

#: One unit in the coarsest pooled digit; the guided walk seeds one step of
#: this size to either side of the query index.
COARSE_DIGIT_UNIT = 256**5

INDEX_BITS = 48
INDEX_MAX = 2**INDEX_BITS - 1
N_DIGITS = 6


@dataclass(frozen=True)
class SishParams:
    hamming_threshold: int = 128
    probe_budget: int = 500
    seed_offset: int = COARSE_DIGIT_UNIT
    k_primary: int = 9
    fraction: float = 0.15
    histogram_bins: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hamming_threshold < 0:
            raise ValidationError("hamming_threshold must be >= 0")
        if self.probe_budget < 1:
            raise ValidationError("probe_budget must be >= 1")
        check_mosaic_params(self.k_primary, self.fraction, self.histogram_bins)


class SishProbe(NamedTuple):
    """One query patch: its integer index and packed barcode."""

    index: int
    code: np.ndarray  # (ceil(L / 8),) uint8


@dataclass
class SishDatabase:
    """One row per indexed mosaic patch: rows starts[j] up to starts[j + 1]
    carry keys[j], in (slide, ordinal) order.  Slides are stored in slide_id
    order, so a row's ``slide`` is also the rank of its slide_id."""

    params: SishParams
    dim: int
    code_length: int
    lo: np.ndarray  # (dim,) componentwise minima over indexed patches
    hi: np.ndarray
    slide_ids: list[str]
    labels: list[SlideLabels]
    keys: np.ndarray  # (K,) int64, sorted distinct indices
    starts: np.ndarray  # (K + 1,) int64, first row of each key, then N
    slide: np.ndarray  # (N,) int64, index into slide_ids and labels
    ordinal: np.ndarray  # (N,) int64, position within the slide's mosaic
    coords: np.ndarray  # (N, 2) int32
    codes: np.ndarray  # (N, ceil(L / 8)) uint8 packed barcodes
    subtype_freq: dict[str, float]
    unprocessed: list[tuple[str, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.slide_ids)


def index_encode(features: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> int | np.ndarray:
    """Map a feature vector to a 48-bit integer index.

    Components quantize to 0..255 against the database-wide ranges (values
    outside clip; flat components read as 0).  The byte vector is padded by
    cyclic repetition to a multiple of 6 (at dim 2 the repetition only
    reaches 4 columns) and pooled over the whole, the two halves, and the
    three thirds; the six rounded means are the base-256 digits of the
    index, coarsest first.  A (m, dim) matrix gives one int64 index per row;
    the pooled sums are of integers, so exact, and each row's index is the
    one its 1-D call returns.  Needs dim >= 2, so that every third is
    non-empty.
    """
    f = np.asarray(features, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if f.ndim not in (1, 2) or f.shape[-1:] != lo.shape or lo.shape != hi.shape:
        raise DimensionError(
            f"feature shape {f.shape} does not match range shapes {lo.shape}/{hi.shape}"
        )
    if f.shape[-1] < 2:
        raise DimensionError(f"index coding needs feature dimension >= 2, got {f.shape[-1]}")
    span = hi - lo
    live = span > 0
    if not live.any():
        raise DegenerateFeatureError("every component range is flat; index undefined")
    rows = np.atleast_2d(f)
    q = np.zeros(rows.shape, dtype=np.float64)
    q[:, live] = np.clip(np.rint(255.0 * (rows[:, live] - lo[live]) / span[live]), 0, 255)

    if q.shape[1] % N_DIGITS:
        pad = N_DIGITS - q.shape[1] % N_DIGITS
        q = np.concatenate([q, q[:, :pad]], axis=1)
    half = q.shape[1] // 2
    third = q.shape[1] // 3
    pools = (
        q.mean(axis=1),
        q[:, :half].mean(axis=1),
        q[:, half:].mean(axis=1),
        q[:, :third].mean(axis=1),
        q[:, third : 2 * third].mean(axis=1),
        q[:, 2 * third :].mean(axis=1),
    )
    index = np.zeros(rows.shape[0], dtype=np.int64)
    for value in pools:
        index = (index << 8) | np.clip(np.rint(value), 0, 255).astype(np.int64)
    return int(index[0]) if f.ndim == 1 else index


def _mosaic_rows(slide: SlideRecord, params: SishParams) -> tuple[np.ndarray, np.ndarray]:
    """Mosaic (coords, features) without flat-feature patches (scanner artifacts)."""
    mosaic = histogram_mosaic(
        slide, params.k_primary, params.fraction, params.histogram_bins, params.seed
    )
    varied = np.ptp(mosaic.features, axis=1) > 0.0
    if not varied.any():
        raise UnprocessedSlideError(f"slide {slide.slide_id!r}: every mosaic patch is constant")
    return mosaic.coords[varied], mosaic.features[varied]


def _probes(db: SishDatabase, features: np.ndarray) -> list[SishProbe]:
    """Integer index plus barcode of each feature row, under the database's ranges."""
    indices = index_encode(features, db.lo, db.hi).tolist()
    return [SishProbe(index, code) for index, code in zip(indices, binarize_barcode(features))]


def build_database(slides: Sequence[SlideRecord], params: SishParams | None = None) -> SishDatabase:
    params = params or SishParams()
    dim = database_dim(slides, min_dim=2)
    kept, unprocessed = encode_slides(slides, lambda slide: _mosaic_rows(slide, params))
    kept.sort(key=lambda item: item[0].slide_id)

    # quantization ranges are a database-wide statistic, frozen at build time
    member_features = [features for _, (_, features) in kept]
    lo = np.min([f.min(axis=0) for f in member_features], axis=0).astype(np.float64)
    hi = np.max([f.max(axis=0) for f in member_features], axis=0).astype(np.float64)
    # index_encode fails only when every database-wide range is flat, and
    # then for every slide alike, so its error ends the build
    index = np.concatenate([index_encode(f, lo, hi) for f in member_features])
    # rows in (index, slide, ordinal) order: a stable sort of (slide, ordinal) order
    order = np.argsort(index, kind="stable")
    keys, first = np.unique(index[order], return_index=True)
    sizes = [len(f) for f in member_features]

    subtype_counts = Counter(slide.subtype for slide, _ in kept)
    total = sum(subtype_counts.values())
    return SishDatabase(
        params=params,
        dim=dim,
        code_length=dim - 1,
        lo=lo,
        hi=hi,
        slide_ids=[slide.slide_id for slide, _ in kept],
        labels=[slide.labels for slide, _ in kept],
        keys=keys,
        starts=np.append(first, len(index)),
        slide=np.repeat(np.arange(len(kept)), sizes)[order],
        ordinal=np.concatenate([np.arange(n) for n in sizes])[order],
        coords=np.concatenate([coords for _, (coords, _) in kept])[order],
        codes=np.concatenate([binarize_barcode(f) for f in member_features])[order],
        subtype_freq={name: count / total for name, count in subtype_counts.items()},
        unprocessed=unprocessed,
    )


def prepare_query(db: SishDatabase, slide: SlideRecord) -> list[SishProbe]:
    """One probe per mosaic patch of a query slide, under the database's frozen ranges."""
    check_query_dim(db, slide)
    return _probes(db, _mosaic_rows(slide, db.params)[1])


def _walker_probes(costs: list[int], budget: int) -> list[int]:
    """Probes each walker takes when turns go round-robin, in list order,
    until ``budget`` is spent; a walker leaves after ``cost`` probes.  The
    budget pays for some number of full rounds, found from the costs in
    ascending order; the rest go one each to the first walkers still in."""
    rounds = spent = 0
    for i, cost in enumerate(sorted(costs)):
        step = (cost - rounds) * (len(costs) - i)
        if spent + step > budget:
            rounds += (budget - spent) // (len(costs) - i)
            break
        spent += step
        rounds = cost
    probes = [min(cost, rounds) for cost in costs]
    left = budget - sum(probes)
    for w, cost in enumerate(costs):
        if left and cost > rounds:
            probes[w] += 1
            left -= 1
    return probes


def visited_ranges(
    keys: np.ndarray, index: int, seed_offset: int, budget: int
) -> list[tuple[int, int]]:
    """Ranges [a, b) of positions in the sorted ``keys`` that the guided walk
    from ``index`` visits within ``budget`` probes.

    Seeds are the index and one ``seed_offset`` to either side, clamped to
    the universe and de-duplicated; each costs one probe, a hit when it is a
    key.  Then successor and predecessor walkers take turns, succ(s0),
    pred(s0), succ(s1), ...; a walker visits the next key outward per probe
    and spends one more probe finding none before it stops.
    """
    seeds = list(dict.fromkeys(min(max(v, 0), INDEX_MAX)
                               for v in (index, index + seed_offset, index - seed_offset)))
    left = np.searchsorted(keys, seeds, side="left").tolist()
    right = np.searchsorted(keys, seeds, side="right").tolist()
    probed = min(len(seeds), budget)
    ranges = list(zip(left[:probed], right[:probed]))  # (a, a) when the seed is no key
    avail = [n for a, b in zip(left, right) for n in (len(keys) - b, a)]
    probes = _walker_probes([n + 1 for n in avail], budget - probed)
    visits = [min(p, n) for p, n in zip(probes, avail)]
    for a, b, up, down in zip(left, right, visits[0::2], visits[1::2]):
        ranges += [(b, b + up), (a - down, a)]
    return ranges


def guided_search(
    db: SishDatabase,
    query: SishProbe,
    probe_budget: int | None = None,
    kept: np.ndarray | None = None,
) -> np.ndarray:
    """Walk the keys outward from the query index (``visited_ranges``), keep
    near-in-Hamming hits.

    Results are one (n, 2) int64 array of (row, hamming) pairs: the rows of
    kept slides (``kept`` is a per-slide mask, None keeps all) within
    db.params.hamming_threshold, ascending by distance, then slide_id, then
    ordinal; n may be 0.
    """
    budget = db.params.probe_budget if probe_budget is None else probe_budget
    if budget < 1:
        raise ValidationError("probe_budget must be >= 1")
    ranges = visited_ranges(db.keys, query.index, db.params.seed_offset, budget)
    rows = np.unique(np.concatenate([np.arange(db.starts[a], db.starts[b]) for a, b in ranges]))
    if kept is not None:
        rows = rows[kept[db.slide[rows]]]
    hams = hamming_matrix(query.code[None, :], db.codes[rows])[0]
    near = hams <= db.params.hamming_threshold
    rows, hams = rows[near], hams[near]
    order = np.lexsort((db.ordinal[rows], db.slide[rows], hams))
    return np.stack((rows[order], hams[order]), axis=1)


def rank_slides(
    patch_results: Sequence[np.ndarray],
    db: SishDatabase,
    k: int,
) -> RetrievalResult:
    """Uncertainty-filtered weighted voting over per-patch search results
    (``guided_search`` arrays)."""
    check_k(k)
    if not patch_results:
        raise EmptyInputError("rank_slides needs at least one query patch")

    subtypes = [labels.subtype for labels in db.labels]
    surviving: list[tuple[float, np.ndarray]] = []
    for results in patch_results:
        if len(results):
            slides = db.slide[results[:, 0]]
            surviving.append((label_entropy(subtypes[s] for s in slides.tolist()), slides))
    if not surviving:
        return RetrievalResult(entries=(), k_requested=k)

    median_entropy = float(np.median([h for h, _ in surviving]))
    voting = [(1.0 / (1.0 + h), slides) for h, slides in surviving if h <= median_entropy]
    freq = np.array([db.subtype_freq[subtype] for subtype in subtypes])
    # bincount adds each slide's weights one at a time in hit order, the
    # order a running per-slide sum takes
    votes = np.bincount(
        np.concatenate([slides for _, slides in voting]),
        np.concatenate([weight / freq[slides] for weight, slides in voting]),
        minlength=len(db),
    )
    voted = np.flatnonzero(votes)
    ranked = voted[np.lexsort((voted, -votes[voted]))][:k].tolist()
    return ranked_result(
        ((db.slide_ids[s], db.labels[s], float(votes[s])) for s in ranked), k, "votes"
    )


def query_slides(
    db: SishDatabase,
    query: SlideRecord | Sequence[SishProbe],
    k: int,
    candidate_filter: CandidateFilter | None = None,
) -> RetrievalResult:
    probes = prepare_query(db, query) if isinstance(query, SlideRecord) else list(query)
    if not probes:
        raise EmptyInputError("query has no mosaic patches")
    kept = kept_slides(candidate_filter, db)
    return rank_slides([guided_search(db, probe, kept=kept) for probe in probes], db, k)


def query_patches(
    db: SishDatabase,
    patch: PatchFeature,
    k: int,
    candidate_filter: CandidateFilter | None = None,
) -> RetrievalResult:
    """Top-k patches by guided search from one query patch; may come up short."""
    check_k(k)
    check_query_dim(db, patch)
    (probe,) = _probes(db, patch.feature[None, :])
    hits = (
        (patch_ref(db.slide_ids[db.slide[row]], *db.coords[row].tolist()),
         db.labels[db.slide[row]], float(ham))
        for row, ham in guided_search(db, probe, kept=kept_slides(candidate_filter, db)).tolist()
    )
    return ranked_result(hits, k, "hamming")


def query_patch_set(db: SishDatabase, slide: SlideRecord) -> list[PatchFeature]:
    """The patches a slide would contribute as individual patch queries."""
    check_query_dim(db, slide)
    return as_patches(*_mosaic_rows(slide, db.params))
