"""Hypergraph retrieval over per-slide hash signatures.  Slide-level only.

A slide's signature is built from its fixed-centroid mosaic: attention
weights follow cluster population, and the slide hash is the barcode of the
attention-weighted mean of the centroid features.  Each database slide
spans one hyperedge containing its K nearest slides by hash distance; a
query joins the graph as a fresh vertex and hyperedge, and scores combine
vertex-level and hyperedge-level similarity read off the weighted incidence
products.
"""
from __future__ import annotations

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


@dataclass(frozen=True, eq=False)
class SlideSignature:
    """One slide's hash, the code the hypergraph compares."""

    slide_id: str
    slide_hash: np.ndarray  # (ceil(L / 8),) uint8 packed


@dataclass
class Hypergraph:
    """Square incidence: column s is slide s's hyperedge over the vertices."""

    incidence: np.ndarray  # (T, T) float64, entries in [0, 1]
    edge_weights: np.ndarray  # (T,) mean of positive entries per column
    knn_k: int


@dataclass
class HshrDatabase:
    params: HshrParams
    dim: int
    code_length: int
    slide_ids: list[str]
    labels: list[SlideLabels]
    graph: Hypergraph
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


def build_hypergraph(hashes: np.ndarray, code_length: int, knn_k: int) -> Hypergraph:
    """Each slide's hyperedge holds its knn_k nearest slides plus itself,
    entered at affinity 1 - hamming/L.

    ``hashes`` holds one packed slide hash of ``code_length`` bits per row.
    """
    t = hashes.shape[0]
    if t == 0:
        raise EmptyInputError("cannot build a hypergraph from zero slide hashes")
    ham = hamming_matrix(hashes, hashes)
    affinity = 1.0 - ham / float(code_length)

    incidence = np.zeros((t, t), dtype=np.float64)
    edges = np.arange(t)
    neighbors = _knn_columns(ham, min(knn_k, t - 1))
    incidence[neighbors, edges[:, None]] = affinity[neighbors, edges[:, None]]
    incidence[edges, edges] = 1.0
    weights = np.array(
        [incidence[:, s][incidence[:, s] > 0].mean() for s in range(t)]
    )
    return Hypergraph(incidence=incidence, edge_weights=weights, knn_k=knn_k)


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
        graph=build_hypergraph(hashes, dim - 1, params.knn_k),
        hashes=hashes,
        unprocessed=unprocessed,
    )


def prepare_query(db: HshrDatabase, slide: SlideRecord) -> SlideSignature:
    check_query_dim(db, slide)
    return _signature_of(slide, db.params)


def ranked_scores(db: HshrDatabase, query: SlideSignature) -> list[tuple[float, str]]:
    """Scores of every database slide against the query, best first.

    The query becomes vertex/hyperedge T in a copy of the incidence matrix;
    scoring reads row T of the row-normalized weighted products.  Returns
    (score, slide_id) sorted descending, ties by slide_id; the caller slices
    its top-k after any candidate filtering.
    """
    t = len(db)
    ham = hamming_matrix(query.slide_hash[None, :], db.hashes)[0]
    affinity = 1.0 - ham / float(db.code_length)

    extended = np.zeros((t + 1, t + 1), dtype=np.float64)
    extended[:t, :t] = db.graph.incidence
    neighbors = np.argsort(ham, kind="stable")[: min(db.graph.knn_k, t)]
    extended[neighbors, t] = affinity[neighbors]
    extended[t, t] = 1.0

    q_column = extended[:, t]
    q_weight = q_column[q_column > 0].mean()
    weights = np.concatenate([db.graph.edge_weights, [q_weight]])

    adjacency = extended @ np.diag(weights) @ extended.T
    vertex_sim = adjacency / adjacency.sum(axis=1, keepdims=True)
    overlap = extended.T @ extended
    edge_sim = overlap / overlap.sum(axis=1, keepdims=True)
    scores = db.params.alpha * vertex_sim[t, :t] + db.params.beta * edge_sim[t, :t]

    ranked = sorted(
        ((float(scores[i]), db.slide_ids[i]) for i in range(t)),
        key=lambda pair: (-pair[0], pair[1]),
    )
    return ranked


def query_slides(
    db: HshrDatabase,
    query: SlideRecord | SlideSignature,
    k: int,
    candidate_filter: CandidateFilter | None = None,
) -> RetrievalResult:
    """Top-k database slides by combined vertex and hyperedge similarity."""
    check_k(k)
    signature = prepare_query(db, query) if isinstance(query, SlideRecord) else query
    kept = kept_slides(candidate_filter, db)
    slide_of = {slide_id: s for s, slide_id in enumerate(db.slide_ids)}
    hits = (
        (slide_id, db.labels[slide_of[slide_id]], score)
        for score, slide_id in ranked_scores(db, signature)
        if kept[slide_of[slide_id]]
    )
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
