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
Rows are stored in key order, and each carries its saved rank in (slide,
mosaic member) order, so hits sort by distance, slide_id, then member on one
integer key.

Slide ranking follows the uncertainty rule: query patches whose retrieved
labels are too mixed (entropy above the median patch entropy) are dropped,
and surviving retrievals vote with weight 1/(1+entropy), divided by the
database frequency of the target's label to blunt class imbalance.  A
patch's entropy depends only on the multiset of its retrieved subtype
counts, bit for bit, so a patch with the median patch's counts ties the
median exactly and always votes.
"""
from __future__ import annotations

from dataclasses import dataclass
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
    SlideRecord,
    SlideTable,
    as_patches,
    binarize_barcode,
    check_k,
    check_query_dim,
    check_query_rows,
    hamming_matrix,
    label_entropy,
    subtype_codes,
)
from .mosaic import Mosaic, check_mosaic_params, encode_mosaics, histogram_mosaics

#: One unit in the coarsest pooled digit; the guided walk seeds one step of
#: this size to either side of the query index.
COARSE_DIGIT_UNIT = 256**5

INDEX_BITS = 48
INDEX_MAX = 2**INDEX_BITS - 1
N_DIGITS = 6
#: place value of each digit, coarsest first
DIGIT_WEIGHTS = 256 ** np.arange(N_DIGITS - 1, -1, -1, dtype=np.int64)


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


@dataclass
class SishDatabase(SlideTable):
    """One row per indexed mosaic patch: rows starts[j] up to starts[j + 1]
    carry keys[j], in ``rank`` order.  Slides are listed in slide_id order,
    so a row's ``slide`` is also the rank of its slide_id."""

    params: SishParams
    code_length: int
    lo: np.ndarray  # (dim,) componentwise minima over indexed patches
    hi: np.ndarray
    keys: np.ndarray  # (K,) int64, sorted distinct indices
    starts: np.ndarray  # (K + 1,) int64, first row of each key, then N
    slide: np.ndarray  # (N,) int64, index into slide_ids and labels
    rank: np.ndarray  # (N,) int64, the row's place in (slide, mosaic member) order
    coords: np.ndarray  # (N, 2) int32
    codes: np.ndarray  # (N, ceil(L / 8)) uint8 packed barcodes
    freq: np.ndarray  # (T,) float64, database frequency of each slide's subtype


def index_encode(features: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Map each row of a (m, dim) feature matrix to a 48-bit int64 index.

    Components quantize to 0..255 against the database-wide ranges (values
    outside clip; flat components read as 0).  Each byte row is padded by
    cyclic repetition to a multiple of 6 (at dim 2 the repetition only
    reaches 4 columns) and pooled over the whole, the two halves, and the
    three thirds; the six rounded means are the base-256 digits of the
    index, coarsest first.  Each pooled sum is the difference of two
    entries of the row's prefix sum, exact because every partial sum is an
    integer below 2**53, so each mean is the one ``.mean()`` gives.  Needs
    dim >= 2, so that every third is non-empty.
    """
    rows = np.asarray(features, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1:] != lo.shape or lo.shape != hi.shape:
        raise DimensionError(
            f"feature shape {rows.shape} does not match range shapes {lo.shape}/{hi.shape}"
        )
    dim = rows.shape[1]
    if dim < 2:
        raise DimensionError(f"index coding needs feature dimension >= 2, got {dim}")
    span = hi - lo
    live = span > 0
    if not live.any():
        raise DegenerateFeatureError("every component range is flat; index undefined")
    q = np.divide(255.0 * (rows - lo), span, out=np.zeros(rows.shape), where=live)
    np.clip(np.rint(q, out=q), 0, 255, out=q)

    width = dim + min(-dim % N_DIGITS, dim)
    sums = np.zeros((len(q), width + 1))
    np.cumsum(q[:, np.arange(width) % dim], axis=1, out=sums[:, 1:])
    half, third = width // 2, width // 3
    start = np.array([0, 0, half, 0, third, 2 * third])
    end = np.array([width, half, width, third, 2 * third, width])
    pooled = (sums[:, end] - sums[:, start]) / (end - start)
    return np.rint(pooled).astype(np.int64) @ DIGIT_WEIGHTS


def _mosaic_rows(mosaic: Mosaic) -> tuple[np.ndarray, np.ndarray]:
    """Mosaic (coords, features) without flat-feature patches (scanner artifacts)."""
    varied = np.ptp(mosaic.features, axis=1) > 0.0
    if not varied.any():
        raise UnprocessedSlideError(f"slide {mosaic.slide_id!r}: every mosaic patch is constant")
    return mosaic.coords[varied], mosaic.features[varied]


def _query_rows(slide: SlideRecord, params: SishParams) -> tuple[np.ndarray, np.ndarray]:
    return _mosaic_rows(histogram_mosaics([slide], params)[0])


def _probes(db: SishDatabase, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m,) int64 integer indices and (m, ceil(L / 8)) uint8 packed barcodes
    of (m, dim) feature rows, under the database's ranges."""
    return index_encode(features, db.lo, db.hi), binarize_barcode(features)


def build_database(slides: Sequence[SlideRecord], params: SishParams | None = None) -> SishDatabase:
    params = params or SishParams()
    table, kept = encode_mosaics(
        slides, lambda batch: histogram_mosaics(batch, params), _mosaic_rows, min_dim=2
    )

    # quantization ranges are a database-wide statistic, frozen at build time
    member_features = [features for _, features in kept]
    lo = np.min([f.min(axis=0) for f in member_features], axis=0).astype(np.float64)
    hi = np.max([f.max(axis=0) for f in member_features], axis=0).astype(np.float64)
    # index_encode fails only when every database-wide range is flat, and
    # then for every slide alike, so its error ends the build
    index = np.concatenate([index_encode(f, lo, hi) for f in member_features])
    # rows in (index, slide, member) order: a stable sort of (slide, member)
    # order, so each row's place in the latter is its entry of ``order``
    order = np.argsort(index, kind="stable")
    keys, first = np.unique(index[order], return_index=True)
    sizes = [len(f) for f in member_features]

    subtypes = subtype_codes(table["labels"])
    return SishDatabase(
        **table,
        params=params,
        code_length=table["dim"] - 1,
        lo=lo,
        hi=hi,
        keys=keys,
        starts=np.append(first, len(index)),
        slide=np.repeat(np.arange(len(kept)), sizes)[order],
        rank=order,
        coords=np.concatenate([coords for coords, _ in kept])[order],
        codes=np.concatenate([binarize_barcode(f) for f in member_features])[order],
        freq=np.bincount(subtypes)[subtypes] / len(kept),
    )


def prepare_query(db: SishDatabase, slide: SlideRecord) -> tuple[np.ndarray, np.ndarray]:
    """(indices, codes) of a query slide's mosaic patches, one row each,
    under the database's frozen ranges."""
    check_query_dim(db, slide)
    return _probes(db, _query_rows(slide, db.params)[1])


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
    db: SishDatabase, index: int, code: np.ndarray, kept: np.ndarray | None = None
) -> np.ndarray:
    """Walk the keys outward from one query patch's ``index``
    (``visited_ranges``) for db.params.probe_budget probes, keep the hits
    near its packed barcode ``code`` in Hamming distance.

    Results are one (n, 2) int64 array of (row, hamming) pairs: the rows of
    kept slides (``kept`` is a per-slide mask, None keeps all) within
    db.params.hamming_threshold, ascending by distance, then slide_id, then
    mosaic member; n may be 0.  One argsort of ``ham * N + rank`` over the N
    rows gives that order: ``rank`` is below N and ham at most code_length,
    so keys are distinct and below (code_length + 1) * N <= 9 * codes.nbytes,
    inside int64 for any codes array under 10**18 bytes.
    """
    # the seeds' walkers overlap: merged ranges give each row once, in row order
    merged: list[list[int]] = []
    ranges = visited_ranges(db.keys, index, db.params.seed_offset, db.params.probe_budget)
    for a, b in sorted(ranges):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    rows = np.concatenate([np.arange(db.starts[a], db.starts[b]) for a, b in merged])
    if kept is not None:
        rows = rows[kept[db.slide[rows]]]
    hams = hamming_matrix(code[None, :], db.codes[rows])[0]
    near = hams <= db.params.hamming_threshold
    rows, hams = rows[near], hams[near]
    order = np.argsort(hams * len(db.slide) + db.rank[rows])
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

    surviving: list[tuple[float, np.ndarray]] = []
    for results in patch_results:
        if len(results):
            slides = db.slide[results[:, 0]]
            surviving.append((label_entropy(db.subtype_code[slides]), slides))
    if not surviving:
        return db.result((), (), k)

    median_entropy = float(np.median([h for h, _ in surviving]))
    voting = [(1.0 / (1.0 + h), slides) for h, slides in surviving if h <= median_entropy]
    # bincount adds each slide's weights one at a time in hit order, the
    # order a running per-slide sum takes
    votes = np.bincount(
        np.concatenate([slides for _, slides in voting]),
        np.concatenate([weight / db.freq[slides] for weight, slides in voting]),
        minlength=len(db),
    )
    voted = np.flatnonzero(votes)
    ranked = voted[np.lexsort((voted, -votes[voted]))][:k]
    return db.result(ranked, votes[ranked], k)


def query_slides(
    db: SishDatabase,
    query: SlideRecord | tuple[np.ndarray, np.ndarray],
    k: int,
    candidate_filter: CandidateFilter | None = None,
) -> RetrievalResult:
    check_k(k)
    indices, codes = prepare_query(db, query) if isinstance(query, SlideRecord) else query
    check_query_rows(codes, db.codes.shape[1])
    if indices.shape != codes.shape[:1]:
        raise DimensionError(f"prepared query has {indices.shape} indices for {len(codes)} codes")
    if codes.dtype != np.uint8 or not np.issubdtype(indices.dtype, np.integer):
        raise ValidationError(f"prepared query needs uint8 codes and integer indices, "
                              f"got {codes.dtype} and {indices.dtype}")
    kept = db.kept(candidate_filter)
    hits = [guided_search(db, index, code, kept) for index, code in zip(indices.tolist(), codes)]
    return rank_slides(hits, db, k)


def query_patches(
    db: SishDatabase,
    patch: PatchFeature,
    k: int,
    candidate_filter: CandidateFilter | None = None,
) -> RetrievalResult:
    """Top-k patches by guided search from one query patch; may come up short."""
    check_k(k)
    check_query_dim(db, patch)
    (index,), (code,) = _probes(db, patch.feature[None, :])
    hits = guided_search(db, int(index), code, db.kept(candidate_filter))
    rows = hits[:k, 0]
    return db.result(db.slide[rows], hits[:k, 1], k, db.coords[rows])


def query_patch_set(db: SishDatabase, slide: SlideRecord) -> list[PatchFeature]:
    """The patches a slide would contribute as individual patch queries."""
    check_query_dim(db, slide)
    return as_patches(*_query_rows(slide, db.params))
