"""Hypergraph retrieval over per-slide hash signatures.  Slide-level only.

A slide's signature is built from its fixed-centroid mosaic: attention
weights follow cluster population, and the slide hash is the barcode of the
attention-weighted mean of the centroid features.  Each database slide
spans one hyperedge containing its K nearest slides by hash distance; a
query joins the graph as a fresh vertex and hyperedge, and scores combine
vertex-level and hyperedge-level similarity: the query's row of the
weighted incidence products, in closed form from integer Hamming counts.

Slides are listed in slide_id order, so ties broken by slide index (equal
hash distances to nearest neighbours, equal scores) go to the lower
slide_id whatever order the slides arrive in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    EmptyInputError,
    UnsupportedOperationError,
    ValidationError,
)
from .model import (
    CandidateFilter,
    PatchFeature,
    RetrievalResult,
    SlideLabels,
    SlideRecord,
    binarize_barcode,
    check_k,
    check_query_dim,
    check_query_rows,
    database_dim,
    encode_slides,
    hamming_matrix,
    kept_slides,
    ranked_result,
    slide_seed,
)
from .mosaic import FIXED_CENTROIDS, Mosaic, build_mosaic_fixed


@dataclass(frozen=True)
class HshrParams:
    k_fixed: int = 20
    knn_k: int = 10
    alpha: float = 1.0
    beta: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k_fixed < 1:
            raise ValidationError("k_fixed must be >= 1")
        if self.knn_k < 1:
            raise ValidationError("knn_k must be >= 1")
        # a NaN weight makes every score NaN, which ranks as a tie
        for name, weight in (("alpha", self.alpha), ("beta", self.beta)):
            if not (math.isfinite(weight) and weight >= 0.0):
                raise ValidationError(f"{name} must be finite and >= 0, got {weight}")
        if self.alpha == self.beta == 0.0:
            raise ValidationError("alpha and beta cannot both be 0")


@dataclass(frozen=True, eq=False)
class SlideSignature:
    """One slide's hash, the code the hypergraph compares."""

    slide_id: str
    slide_hash: np.ndarray  # (ceil(L / 8),) uint8 packed


@dataclass
class HshrDatabase:
    params: HshrParams
    dim: int
    code_length: int
    slide_ids: list[str]
    labels: list[SlideLabels]
    incidence: np.ndarray  # (T, T) int32, entries in units of 1/code_length
    hashes: np.ndarray  # (T, ceil(L / 8)) uint8, row i the hash of slide_ids[i]
    unprocessed: list[tuple[str, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.slide_ids)


def slide_signature(slide: SlideRecord, mosaic: Mosaic) -> SlideSignature:
    """Reference signature encoder over a fixed-centroid mosaic."""
    if mosaic.method != FIXED_CENTROIDS or mosaic.cluster_sizes is None:
        raise ValidationError("slide_signature needs a fixed-centroid mosaic")
    if mosaic.slide_id != slide.slide_id:
        raise ValidationError(
            f"mosaic belongs to {mosaic.slide_id!r}, not {slide.slide_id!r}"
        )
    sizes = np.asarray(mosaic.cluster_sizes, dtype=np.float64)
    attention = sizes / sizes.sum()
    weighted_mean = attention @ mosaic.features.astype(np.float64)
    return SlideSignature(slide_id=slide.slide_id, slide_hash=binarize_barcode(weighted_mean))


def _signature_of(slide: SlideRecord, params: HshrParams) -> SlideSignature:
    mosaic = build_mosaic_fixed(
        slide, k_fixed=params.k_fixed, seed=slide_seed(params.seed, slide.slide_id)
    )
    return slide_signature(slide, mosaic)


def _knn_columns(ham: np.ndarray, k: int) -> np.ndarray:
    """Row s: the k nearest other indices to s by column s of a square
    pairwise Hamming matrix (ascending distance, index as tie-break)."""
    t = ham.shape[0]
    order = np.argsort(ham, axis=0, kind="stable").T
    return order[order != np.arange(t)[:, None]].reshape(t, t - 1)[:, :k]


def build_hypergraph(hashes: np.ndarray, code_length: int, knn_k: int) -> np.ndarray:
    """Square incidence in units of 1/code_length: column s is slide s's
    hyperedge, holding its knn_k nearest slides at code_length - hamming
    (affinity 1 - hamming/L) and slide s itself at code_length.

    ``hashes`` holds one packed slide hash of ``code_length`` bits per row.
    """
    t = hashes.shape[0]
    if t == 0:
        raise EmptyInputError("cannot build a hypergraph from zero slide hashes")
    ham = hamming_matrix(hashes, hashes)
    incidence = np.zeros((t, t), dtype=np.int32)
    edges = np.arange(t)
    neighbors = _knn_columns(ham, min(knn_k, t - 1))
    incidence[neighbors, edges[:, None]] = code_length - ham[neighbors, edges[:, None]]
    incidence[edges, edges] = code_length
    return incidence


def build_database(
    slides: Sequence[SlideRecord], params: HshrParams | None = None
) -> HshrDatabase:
    params = params or HshrParams()
    dim = database_dim(slides, min_dim=2)
    signed, unprocessed = encode_slides(slides, lambda slide: _signature_of(slide, params))
    hashes = np.stack([sig.slide_hash for _, sig in signed])
    return HshrDatabase(
        params=params,
        dim=dim,
        code_length=dim - 1,
        slide_ids=[sig.slide_id for _, sig in signed],
        labels=[slide.labels for slide, _ in signed],
        incidence=build_hypergraph(hashes, dim - 1, params.knn_k),
        hashes=hashes,
        unprocessed=unprocessed,
    )


def prepare_query(db: HshrDatabase, slide: SlideRecord) -> SlideSignature:
    check_query_dim(db, slide)
    return _signature_of(slide, db.params)


def ranked_scores(db: HshrDatabase, query: SlideSignature) -> tuple[np.ndarray, np.ndarray]:
    """Scores of every database slide against the query, best first.

    The query joins the graph as vertex and hyperedge T and lies only in its
    own hyperedge, so row T of the vertex product H W Hᵀ is the query's
    hyperedge weight times its column (the weight cancels in the row
    normalization) and row T of the hyperedge product Hᵀ H is h_qᵀ H.  In
    units of 1/L both rows and their sums are integers, and each score is
    one division of its numerator by the common integer denominator.  With
    weights that scale integers exactly (the default 1 and 1, or any power
    of two) the numerators are exact, so equal scores are equal floats and
    the stable sort leaves them in slide index (slide_id) order.  Returns (order, scores): ``scores[s]`` is slide
    s's score and ``order`` lists every slide index by descending score;
    the caller slices its top-k after any candidate filtering.
    """
    t, length = len(db), db.code_length
    ham = hamming_matrix(query.slide_hash[None, :], db.hashes)[0]
    near = np.argsort(ham, kind="stable")[: min(db.params.knn_k, t)]
    q = length - ham[near]
    rows = db.incidence[near].astype(np.int64)

    vertex = np.zeros(t, dtype=np.int64)
    vertex[near] = q
    vertex_total = q.sum() + length
    edge = q @ rows
    edge_total = q @ (rows.sum(axis=1) + q) + length * length
    numerator = (
        db.params.alpha * (vertex * edge_total) + db.params.beta * (edge * vertex_total)
    )
    scores = numerator / float(vertex_total * edge_total)
    return np.argsort(-scores, kind="stable"), scores


def query_slides(
    db: HshrDatabase,
    query: SlideRecord | SlideSignature,
    k: int,
    candidate_filter: CandidateFilter | None = None,
) -> RetrievalResult:
    """Top-k database slides by combined vertex and hyperedge similarity."""
    check_k(k)
    signature = prepare_query(db, query) if isinstance(query, SlideRecord) else query
    check_query_rows(signature.slide_hash[None, :], db.hashes.shape[1])
    order, scores = ranked_scores(db, signature)
    top = order[kept_slides(candidate_filter, db)[order]][:k].tolist()
    hits = ((db.slide_ids[s], db.labels[s], float(scores[s])) for s in top)
    return ranked_result(hits, k, "hypergraph")


def query_patches(
    db: HshrDatabase,
    patch: PatchFeature,
    k: int,
    candidate_filter: CandidateFilter | None = None,
) -> RetrievalResult:
    """Always unsupported: hash signatures exist per slide, not per patch."""
    raise UnsupportedOperationError("hshr does not support patch retrieval")


def query_patch_set(db: HshrDatabase, slide: SlideRecord) -> list[PatchFeature]:
    """Always unsupported: hash signatures exist per slide, not per patch."""
    raise UnsupportedOperationError("hshr does not support patch retrieval")
