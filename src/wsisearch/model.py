"""Shared domain types plus the distance, entropy, and barcoding primitives.

Every engine consumes these types.  The checks, slide-encoding loop and
result assembly that every engine's build and query share also live here,
so the four engines decide them in one place: each engine database is a
``SlideTable`` (filled from ``encode_slides``) that filters candidate
slides and builds every result, of slide hits or of patch hits.

A slide is columnar: one (n, 2) int32 ``coords`` array and one (n, dim)
float32 ``features`` matrix.  ``PatchFeature`` is the single-patch form the
API edge speaks (feature files, patch queries); ``as_patches`` derives it.

A barcode is one ``np.packbits`` row: uint8, most significant bit first,
last byte zero-padded.  Its bit length L is the database's ``code_length``
(feature dimension minus one) and is never stored per code.
``hamming_matrix`` is the one Hamming kernel over such rows: it xors every
pair of rows into one uint8 buffer, counts that buffer's bits in place and
sums each pair's byte counts in uint16 for codes of up to 8,191 bytes.
"""
from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence, TypeVar

import numpy as np

from .errors import (
    DimensionError,
    EmptyInputError,
    NothingIndexedError,
    UnprocessedSlideError,
    ValidationError,
)

MAGNIFICATIONS = ("20x", "40x")


def _read_only_copy(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype, order="C")
    arr.flags.writeable = False
    return arr


def _frozen_feature(vec: Sequence[float] | np.ndarray) -> np.ndarray:
    arr = _read_only_copy(vec, np.float32)
    if arr.ndim != 1:
        raise DimensionError(f"feature must be one-dimensional, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise EmptyInputError("feature vector is empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("feature vector contains non-finite components")
    return arr


@dataclass(frozen=True, eq=False)
class PatchFeature:
    """One patch: an integer (x, y) grid cell plus its feature vector."""

    x: int
    y: int
    feature: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "feature", _frozen_feature(self.feature))

    @property
    def dim(self) -> int:
        return int(self.feature.shape[0])

    @property
    def coord(self) -> tuple[int, int]:
        return (self.x, self.y)


class SlideLabels(NamedTuple):
    site: str
    subtype: str
    patient_id: str


@dataclass(frozen=True, eq=False)
class SlideRecord:
    """A slide's identifiers, labels, and patch grid as read-only copies of
    two columns: row i of ``coords`` is the (x, y) cell of feature row i."""

    slide_id: str
    patient_id: str
    site: str
    subtype: str
    magnification: str
    coords: np.ndarray  # (n, 2) int32
    features: np.ndarray  # (n, dim) float32

    def __post_init__(self) -> None:
        if not self.patient_id:
            raise ValidationError(f"slide {self.slide_id!r} has an empty patient_id")
        if self.magnification not in MAGNIFICATIONS:
            raise ValidationError(
                f"slide {self.slide_id!r}: magnification must be one of {MAGNIFICATIONS}"
            )
        object.__setattr__(self, "coords", _read_only_copy(self.coords, np.int32))
        object.__setattr__(self, "features", _read_only_copy(self.features, np.float32))
        coords, features = self.coords, self.features
        if features.size == 0:
            raise EmptyInputError(f"slide {self.slide_id!r} has no patches")
        if features.ndim != 2 or coords.shape != (len(features), 2):
            raise DimensionError(f"slide {self.slide_id!r}: coords {coords.shape} "
                                 f"and features {features.shape} are not (n, 2) and (n, dim)")
        if not np.all(np.isfinite(features)):
            raise ValidationError(f"slide {self.slide_id!r} has non-finite features")
        # one int64 per C-order (x, y) row, equal exactly when both are
        keys = coords.view(np.int64).ravel()
        ordered = np.sort(keys)
        repeats = ordered[1:] == ordered[:-1]
        if repeats.any():
            # a stable sort keeps equal keys in row order, so the lowest row
            # equal to its sorted predecessor is the first repeat
            later = np.argsort(keys, kind="stable")[1:][repeats]
            repeat = tuple(coords[later.min()].tolist())
            raise ValidationError(f"slide {self.slide_id!r} repeats patch coordinate {repeat}")

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    @property
    def labels(self) -> SlideLabels:
        return SlideLabels(self.site, self.subtype, self.patient_id)


def as_patches(coords: np.ndarray, features: np.ndarray) -> list[PatchFeature]:
    """Per-patch objects of columnar rows, for the API edge that speaks in
    single patches (feature files, patch queries)."""
    return [PatchFeature(x, y, f) for (x, y), f in zip(coords.tolist(), features)]


class RetrievalEntry(NamedTuple):
    target_id: str
    target_site: str
    target_subtype: str
    score: float


@dataclass(frozen=True)
class RetrievalResult:
    """Ranked matches, best first, as ``SlideTable.result`` builds them: at
    most the k requested, and fewer when fewer targets were found."""

    entries: tuple[RetrievalEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def target_ids(self) -> list[str]:
        return [e.target_id for e in self.entries]


#: Per-query predicate over database slides: (slide_id, labels) -> keep.
CandidateFilter = Callable[[str, SlideLabels], bool]

Encoding = TypeVar("Encoding")


@dataclass(kw_only=True)
class SlideTable:
    """The slide list every engine's database holds: slide i is
    ``slide_ids[i]`` with ``labels[i]``, listed in slide_id order, plus the
    (slide_id, reason) of each slide the build could not index.  Engine
    databases derive from it and add their own arrays.  ``subtype_code``
    is derived from the labels once, at construction, and pickled with
    them."""

    dim: int
    slide_ids: list[str]
    labels: list[SlideLabels]
    unprocessed: list[tuple[str, str]] = field(default_factory=list)
    #: (T,) int64 per slide, subtype_codes(labels)
    subtype_code: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.subtype_code = subtype_codes(self.labels)

    def __len__(self) -> int:
        return len(self.slide_ids)

    def kept(self, candidate_filter: CandidateFilter | None) -> np.ndarray:
        """Per slide, whether the filter keeps it; no filter keeps all.
        Engines take it once per query, so the filter runs once per slide."""
        if candidate_filter is None:
            return np.ones(len(self), dtype=bool)
        return np.array(
            [candidate_filter(*s) for s in zip(self.slide_ids, self.labels)], dtype=bool
        )

    def result(self, slides, scores, k: int, coords=None) -> RetrievalResult:
        """Result of the first k hits, best first: hit i lies in slide
        ``slides[i]`` (a slide index) and scores ``scores[i]``.  Without
        ``coords`` the hits are slides; with them hit i is the patch at
        ``coords[i]`` = (x, y) of its slide."""
        slides = np.asarray(slides, dtype=np.int64)[:k].tolist()
        scores = np.asarray(scores, dtype=np.float64)[:k].tolist()
        ids = [self.slide_ids[s] for s in slides]
        if coords is not None:
            ids = [patch_ref(i, x, y) for i, (x, y) in zip(ids, coords[:k].tolist())]
        return RetrievalResult(tuple(
            RetrievalEntry(i, self.labels[s].site, self.labels[s].subtype, score)
            for i, s, score in zip(ids, slides, scores)
        ))


def database_dim(slides: Sequence[SlideRecord], min_dim: int = 1) -> int:
    """The one feature dimension shared by the slides of a database build."""
    if not slides:
        raise EmptyInputError("cannot build a database from zero slides")
    dims = {s.dim for s in slides}
    if len(dims) != 1:
        raise DimensionError(f"slides mix feature dimensions {sorted(dims)}")
    dim = dims.pop()
    if dim < min_dim:
        raise DimensionError(f"coding needs feature dimension >= {min_dim}, got {dim}")
    return dim


def check_k(k: int) -> None:
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")


def check_query_dim(db, query: SlideRecord | PatchFeature) -> None:
    """A query slide or patch must match the dimension the database was built at."""
    if query.dim != db.dim:
        raise DimensionError(f"query dim {query.dim} != database dim {db.dim}")


def check_query_rows(rows: np.ndarray, width: int) -> None:
    """A prepared slide query must be a non-empty, finite (m, width) matrix."""
    if rows.ndim != 2:
        raise DimensionError(f"prepared query must be (m, {width}), got shape {rows.shape}")
    if len(rows) == 0:
        raise EmptyInputError("query mosaic has no patches")
    if rows.shape[1] != width:
        raise DimensionError(f"prepared query width {rows.shape[1]} != database width {width}")
    if not np.isfinite(rows).all():
        raise ValidationError("prepared query holds non-finite values")


def encode_slides(
    slides: Sequence[SlideRecord], encode: Callable[[SlideRecord], Encoding], min_dim: int = 1
) -> tuple[dict, list[Encoding]]:
    """Encode every slide for indexing.

    Returns the ``SlideTable`` fields of the build and the encodings of the
    slides it lists.  Slides are listed in slide_id order (Python string
    order), the one slide order every engine lists; ``unprocessed`` holds
    the (slide_id, reason) of each slide whose encoding failed, in input
    order.  The slides must share one feature dimension of at least
    ``min_dim``, their ids must be distinct, since engines key slides by
    id, and at least one slide must survive.
    """
    dim = database_dim(slides, min_dim)
    ids = Counter(slide.slide_id for slide in slides)
    repeated = [slide_id for slide_id, n in ids.items() if n > 1]
    if repeated:
        raise ValidationError(f"duplicate slide_id {repeated[0]!r} in database build")
    kept: list[tuple[SlideRecord, Encoding]] = []
    unprocessed: list[tuple[str, str]] = []
    for slide in slides:
        try:
            kept.append((slide, encode(slide)))
        except (ValidationError, UnprocessedSlideError) as exc:
            unprocessed.append((slide.slide_id, str(exc)))
    if not kept:
        raise NothingIndexedError(f"none of {len(slides)} slides could be indexed", unprocessed)
    kept.sort(key=lambda item: item[0].slide_id)
    table = dict(
        dim=dim,
        slide_ids=[slide.slide_id for slide, _ in kept],
        labels=[slide.labels for slide, _ in kept],
        unprocessed=unprocessed,
    )
    return table, [encoding for _, encoding in kept]


def label_entropy(codes: np.ndarray) -> float:
    """Shannon entropy (natural log) of the empirical distribution of
    non-negative integer label codes (``subtype_codes``).

    The terms are summed over the nonzero counts sorted ascending, with
    Python floats, so equal count multisets give bit-equal entropies
    whatever the codes' order or values.
    """
    total = len(codes)
    if total == 0:
        raise EmptyInputError("label entropy is undefined for an empty multiset")
    counts = np.bincount(codes)
    return -sum((c / total) * math.log(c / total) for c in np.sort(counts[counts > 0]).tolist())


def subtype_codes(labels: Sequence[SlideLabels]) -> np.ndarray:
    """Per slide, an integer code of its subtype: equal codes, equal subtypes."""
    codes: dict[str, int] = {}
    return np.array([codes.setdefault(l.subtype, len(codes)) for l in labels], dtype=np.int64)


def hamming_matrix(packed_a: np.ndarray, packed_b: np.ndarray) -> np.ndarray:
    """(m_a, m_b) pairwise Hamming distances between packed barcode rows.

    Both inputs must hold codes of one length L, so the zero padding of the
    last byte cancels under xor.
    """
    if packed_a.dtype != np.uint8 or packed_b.dtype != np.uint8:
        raise ValidationError(
            f"packed codes must be uint8, got {packed_a.dtype} and {packed_b.dtype}"
        )
    width = packed_a.shape[1]
    if width != packed_b.shape[1]:
        raise DimensionError(f"packed widths differ: {width} vs {packed_b.shape[1]}")
    counts = np.bitwise_xor(packed_a[:, None, :], packed_b[None, :, :])
    np.bitwise_count(counts, out=counts)
    # a pair differs in at most 8 * width bits, which uint16 holds up to 8,191 bytes
    total = np.uint16 if 8 * width <= 65_535 else np.int64
    return counts.sum(axis=2, dtype=total).astype(np.int64, copy=False)


def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Hamming distance between two packed barcode rows."""
    return int(hamming_matrix(a[None, :], b[None, :])[0, 0])


def patch_ref(slide_id: str, x: int, y: int) -> str:
    """Canonical identifier of one patch inside one slide."""
    return f"{slide_id}:{x},{y}"


def slide_seed(base_seed: int, slide_id: str) -> int:
    """Stable per-slide RNG seed, independent of slide ordering and of
    PYTHONHASHSEED."""
    digest = hashlib.blake2s(
        f"{base_seed}:{slide_id}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def binarize_barcode(feature: Sequence[float] | np.ndarray) -> np.ndarray:
    """Packed barcode of a feature vector: bit i is 1 iff feature[i+1] > feature[i].

    The L = dim - 1 bits are packed most significant first into
    ceil(L / 8) uint8 bytes, the last zero-padded.  A (m, dim) matrix gives
    one packed row per feature row.  Invariant under adding a constant to
    every component and under positive scaling, since only the signs of
    successive differences matter.
    """
    arr = np.asarray(feature)
    if arr.ndim not in (1, 2):
        raise DimensionError(
            f"features must be one- or two-dimensional, got shape {arr.shape}"
        )
    if arr.shape[-1] < 2:
        raise DimensionError("barcoding needs a feature of length >= 2")
    return np.packbits(np.diff(arr, axis=-1) > 0, axis=-1)
