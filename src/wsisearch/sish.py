"""Integer-indexed retrieval over a van Emde Boas tree.

Each mosaic patch gets two codes: a Hamming barcode for comparing, and a
48-bit integer index for locating.  The index comes from quantizing the
feature to bytes and average-pooling at three granularities (whole vector,
halves, thirds), giving six base-256 digits from coarse to fine, so nearby
features land on nearby integers.  A query walks the tree outward from its
own index with successor/predecessor probes, then keeps only candidates
within a Hamming threshold of its barcode.

Slide ranking follows the uncertainty rule: query patches whose retrieved
labels are too mixed (entropy above the median patch entropy) are dropped,
and surviving retrievals vote with weight 1/(1+entropy), divided by the
database frequency of the target's label to blunt class imbalance.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

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
    label_entropy,
    patch_ref,
    ranked_result,
)
from .mosaic import check_mosaic_params, histogram_mosaic
from .veb import VebTree

#: One unit in the coarsest pooled digit; the guided walk seeds one step of
#: this size to either side of the query index.
COARSE_DIGIT_UNIT = 256**5

INDEX_BITS = 48
N_DIGITS = 6


@dataclass(frozen=True)
class SishParams:
    universe_bits: int = INDEX_BITS
    hamming_threshold: int = 128
    probe_budget: int = 500
    seed_offset: int = COARSE_DIGIT_UNIT
    k_primary: int = 9
    fraction: float = 0.15
    histogram_bins: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.universe_bits < INDEX_BITS:
            raise ValidationError(
                f"universe_bits must be >= {INDEX_BITS} to hold {N_DIGITS} base-256 digits"
            )
        if self.hamming_threshold < 0:
            raise ValidationError("hamming_threshold must be >= 0")
        if self.probe_budget < 1:
            raise ValidationError("probe_budget must be >= 1")
        check_mosaic_params(self.k_primary, self.fraction, self.histogram_bins)


@dataclass(frozen=True, eq=False)
class SishEntry:
    slide_id: str
    ordinal: int  # position within the slide's mosaic
    x: int
    y: int
    code: np.ndarray  # (ceil(L / 8),) uint8 packed barcode
    index: int


@dataclass
class SishDatabase:
    params: SishParams
    dim: int
    code_length: int
    lo: np.ndarray  # (dim,) componentwise minima over indexed patches
    hi: np.ndarray
    tree: VebTree
    buckets: dict[int, list[SishEntry]] = field(default_factory=dict)
    slide_labels: dict[str, SlideLabels] = field(default_factory=dict)
    subtype_freq: dict[str, float] = field(default_factory=dict)
    unprocessed: list[tuple[str, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.slide_labels)


def index_encode(features: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> int | np.ndarray:
    """Map a feature vector to a 48-bit integer index.

    Components quantize to 0..255 against the database-wide ranges (values
    outside clip; flat components read as 0).  The byte vector is padded by
    cyclic repetition to a multiple of 6 and pooled over the whole, the two
    halves, and the three thirds; the six rounded means are the base-256
    digits of the index, coarsest first.  A (m, dim) matrix gives one int64
    index per row; the pooled sums are of integers, so exact, and each row's
    index is the one its 1-D call returns.
    """
    f = np.asarray(features, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if f.ndim not in (1, 2) or f.shape[-1:] != lo.shape or lo.shape != hi.shape:
        raise DimensionError(
            f"feature shape {f.shape} does not match range shapes {lo.shape}/{hi.shape}"
        )
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


def _encode(
    db: SishDatabase, slide_id: str, coords: np.ndarray, features: np.ndarray
) -> list[SishEntry]:
    """Barcode plus integer index of each patch, under the database's ranges."""
    codes = binarize_barcode(features)
    indices = index_encode(features, db.lo, db.hi).tolist()
    return [
        SishEntry(slide_id=slide_id, ordinal=i, x=x, y=y, code=code, index=index)
        for i, ((x, y), code, index) in enumerate(zip(coords.tolist(), codes, indices))
    ]


def build_database(slides: Sequence[SlideRecord], params: SishParams | None = None) -> SishDatabase:
    params = params or SishParams()
    dim = database_dim(slides, min_dim=2)
    kept, unprocessed = encode_slides(slides, lambda slide: _mosaic_rows(slide, params))

    # quantization ranges are a database-wide statistic, frozen at build time
    member_features = [features for _, (_, features) in kept]
    db = SishDatabase(
        params=params,
        dim=dim,
        code_length=dim - 1,
        lo=np.min([f.min(axis=0) for f in member_features], axis=0).astype(np.float64),
        hi=np.max([f.max(axis=0) for f in member_features], axis=0).astype(np.float64),
        tree=VebTree(params.universe_bits),
        unprocessed=unprocessed,
    )
    # index_encode fails only when every database-wide range is flat, and
    # then for every slide alike, so its error ends the build
    for slide, (coords, features) in kept:
        for entry in _encode(db, slide.slide_id, coords, features):
            db.tree.insert(entry.index)
            db.buckets.setdefault(entry.index, []).append(entry)
        db.slide_labels[slide.slide_id] = slide.labels

    subtype_counts = Counter(slide.subtype for slide, _ in kept)
    total = sum(subtype_counts.values())
    db.subtype_freq = {name: count / total for name, count in subtype_counts.items()}
    return db


def prepare_query(db: SishDatabase, slide: SlideRecord) -> list[SishEntry]:
    """Mosaic + codes for a query slide under the database's frozen ranges."""
    check_query_dim(db, slide)
    return _encode(db, slide.slide_id, *_mosaic_rows(slide, db.params))


def guided_search(
    db: SishDatabase,
    query: SishEntry,
    probe_budget: int | None = None,
    candidate_filter: CandidateFilter | None = None,
) -> list[tuple[SishEntry, int]]:
    """Walk the tree outward from the query index, keep near-in-Hamming hits.

    Three seeds (query index, one coarse digit up, one down) each expand by
    alternating successor and predecessor calls; every tree operation costs
    one probe from the budget.  Results are (entry, hamming) ascending by
    distance, all within db.params.hamming_threshold; the list may be empty.
    """
    budget = db.params.probe_budget if probe_budget is None else probe_budget
    if budget < 1:
        raise ValidationError("probe_budget must be >= 1")
    top = db.tree.universe_size - 1
    m = query.index
    c = db.params.seed_offset
    seeds = list(dict.fromkeys(min(max(v, 0), top) for v in (m, m + c, m - c)))

    probes = 0
    hit_indices: list[int] = []
    seen: set[int] = set()

    def visit(idx: int) -> None:
        if idx not in seen:
            seen.add(idx)
            hit_indices.append(idx)

    for seed in seeds:
        if probes >= budget:
            break
        probes += 1
        if db.tree.member(seed):
            visit(seed)

    # walker = [position, step]; a walker dies when its step returns None
    walkers: list[list | None] = []
    for seed in seeds:
        walkers.append([seed, db.tree.successor])
        walkers.append([seed, db.tree.predecessor])
    alive = len(walkers)
    while alive and probes < budget:
        for wi in range(len(walkers)):
            walker = walkers[wi]
            if walker is None or probes >= budget:
                continue
            position, step = walker
            probes += 1
            nxt = step(position)
            if nxt is None:
                walkers[wi] = None
                alive -= 1
            else:
                walker[0] = nxt
                visit(nxt)

    candidates = [
        entry
        for idx in hit_indices
        for entry in db.buckets.get(idx, ())
        if candidate_filter is None
        or candidate_filter(entry.slide_id, db.slide_labels[entry.slide_id])
    ]
    if not candidates:
        return []
    hams = hamming_matrix(query.code[None, :], np.stack([e.code for e in candidates]))[0]
    results = [
        (entry, int(ham))
        for entry, ham in zip(candidates, hams)
        if ham <= db.params.hamming_threshold
    ]
    results.sort(key=lambda t: (t[1], t[0].slide_id, t[0].ordinal))
    return results


def rank_slides(
    patch_results: Sequence[Sequence[tuple[SishEntry, int]]],
    db: SishDatabase,
    k: int,
) -> RetrievalResult:
    """Uncertainty-filtered weighted voting over per-patch search results."""
    check_k(k)
    if not patch_results:
        raise EmptyInputError("rank_slides needs at least one query patch")

    surviving: list[tuple[float, Sequence[tuple[SishEntry, int]]]] = []
    for results in patch_results:
        if not results:
            continue
        entropy = label_entropy(
            db.slide_labels[e.slide_id].subtype for e, _ in results
        )
        surviving.append((entropy, results))
    if not surviving:
        return RetrievalResult(entries=(), k_requested=k)

    median_entropy = float(np.median([h for h, _ in surviving]))
    votes: dict[str, float] = {}
    for entropy, results in surviving:
        if entropy > median_entropy:
            continue
        patch_weight = 1.0 / (1.0 + entropy)
        for entry, _ in results:
            subtype = db.slide_labels[entry.slide_id].subtype
            weight = patch_weight / db.subtype_freq[subtype]
            votes[entry.slide_id] = votes.get(entry.slide_id, 0.0) + weight

    ranked = sorted(votes.items(), key=lambda t: (-t[1], t[0]))
    return ranked_result(
        ((slide_id, db.slide_labels[slide_id], weight) for slide_id, weight in ranked),
        k,
        "votes",
    )


def query_slides(
    db: SishDatabase,
    query: SlideRecord | Sequence[SishEntry],
    k: int,
    candidate_filter: CandidateFilter | None = None,
) -> RetrievalResult:
    patches = prepare_query(db, query) if isinstance(query, SlideRecord) else list(query)
    if not patches:
        raise EmptyInputError("query has no mosaic patches")
    per_patch = [
        guided_search(db, patch, candidate_filter=candidate_filter) for patch in patches
    ]
    return rank_slides(per_patch, db, k)


def query_patches(
    db: SishDatabase,
    patch: PatchFeature,
    k: int,
    candidate_filter: CandidateFilter | None = None,
) -> RetrievalResult:
    """Top-k patches by guided search from one query patch; may come up short."""
    check_k(k)
    check_query_dim(db, patch)
    (probe,) = _encode(db, "", np.array([patch.coord]), patch.feature[None, :])
    hits = guided_search(db, probe, candidate_filter=candidate_filter)
    return ranked_result(
        (
            (patch_ref(e.slide_id, e.x, e.y), db.slide_labels[e.slide_id], float(ham))
            for e, ham in hits
        ),
        k,
        "hamming",
    )


def query_patch_set(db: SishDatabase, slide: SlideRecord) -> list[PatchFeature]:
    """The patches a slide would contribute as individual patch queries."""
    check_query_dim(db, slide)
    return as_patches(*_mosaic_rows(slide, db.params))
