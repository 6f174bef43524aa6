"""File formats: binary patch features, manifests, and saved databases.

Feature files are little-endian throughout: magic "PSF1", u32 patch count,
u32 feature dimension, then one record per patch of (i32 x, i32 y,
dim x f32).  Manifests are header-checked CSV, read like every text file
of the package through ``read_text``, as UTF-8.  Databases persist by
pickling behind a small envelope that names the engine, so a loaded file
can be dispatched without guessing.  A database file written by an
incompatible version of the package (another envelope version, or engine
classes it no longer defines) fails to load with a FormatError.
"""
from __future__ import annotations

import csv
import io
import pickle
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import FormatError, ValidationError
from .model import MAGNIFICATIONS, PatchFeature, SlideRecord, as_patches

MAGIC = b"PSF1"
_HEADER = struct.Struct("<4sII")

MANIFEST_COLUMNS = (
    "slide_id",
    "patient_id",
    "site",
    "subtype",
    "magnification",
    "features_path",
)


def write_features(path: str | Path, patches: Sequence[PatchFeature]) -> None:
    """Serialize patches; write then read is an exact round-trip."""
    path = Path(path)
    dim = patches[0].dim if patches else 0
    chunks = [_HEADER.pack(MAGIC, len(patches), dim)]
    for p in patches:
        if p.dim != dim:
            raise ValidationError(f"patch dimensions differ: {p.dim} vs {dim}")
        chunks.append(struct.pack("<ii", p.x, p.y))
        chunks.append(p.feature.astype("<f4").tobytes())
    path.write_bytes(b"".join(chunks))


def _read_psf(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The one PSF parser: (n, 2) coords and an (n, dim) view of the features."""
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, n_patches, dim = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if n_patches == 0:
        if len(raw) != _HEADER.size:
            raise FormatError(f"{path}: trailing bytes after empty patch list")
    elif dim == 0:
        raise FormatError(f"{path}: feature dimension 0 with {n_patches} patches")
    record = np.dtype([("x", "<i4"), ("y", "<i4"), ("f", "<f4", (dim,))])
    expected = _HEADER.size + n_patches * record.itemsize
    if len(raw) != expected:
        raise FormatError(
            f"{path}: size {len(raw)} != expected {expected} for {n_patches} patches of dim {dim}"
        )
    body = np.frombuffer(raw, dtype=record, count=n_patches, offset=_HEADER.size)
    return np.stack([body["x"], body["y"]], axis=1), body["f"]


def read_features(path: str | Path) -> list[PatchFeature]:
    return as_patches(*_read_psf(Path(path)))


def read_text(path: str | Path) -> str:
    """A text file's contents, newlines untouched; bytes that are not UTF-8
    are a FormatError naming the file."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


class ManifestRow(NamedTuple):
    slide_id: str
    patient_id: str
    site: str
    subtype: str
    magnification: str
    features_path: str


@dataclass(frozen=True)
class Manifest:
    rows: tuple[ManifestRow, ...]
    base_dir: Path  # feature paths resolve against the manifest's directory

    def __len__(self) -> int:
        return len(self.rows)

    def resolve(self, row: ManifestRow) -> Path:
        p = Path(row.features_path)
        return p if p.is_absolute() else self.base_dir / p


def parse_manifest(path: str | Path) -> Manifest:
    """Read and validate a manifest CSV.

    Duplicate slide_ids are an error; duplicate patient_ids are kept but
    warned about, since patient-disjointness is the caller's policy to
    enforce between query and database sets.
    """
    path = Path(path)
    with io.StringIO(read_text(path), newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty manifest") from None
        if tuple(header) != MANIFEST_COLUMNS:
            raise FormatError(
                f"{path}: header {header} != expected {list(MANIFEST_COLUMNS)}"
            )
        rows: list[ManifestRow] = []
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(MANIFEST_COLUMNS):
                raise FormatError(
                    f"{path}:{lineno}: expected {len(MANIFEST_COLUMNS)} fields, got {len(cells)}"
                )
            row = ManifestRow(*cells)
            for name in ("slide_id", "patient_id", "site", "subtype"):
                if not getattr(row, name):
                    raise FormatError(f"{path}:{lineno}: empty {name}")
            if row.magnification not in MAGNIFICATIONS:
                raise FormatError(
                    f"{path}:{lineno}: magnification must be one of {MAGNIFICATIONS}"
                )
            rows.append(row)

    seen: dict[str, int] = {}
    for row in rows:
        if row.slide_id in seen:
            raise ValidationError(f"duplicate slide_id {row.slide_id!r} in {path}")
        seen[row.slide_id] = 1

    patients: dict[str, str] = {}
    for row in rows:
        if row.patient_id in patients:
            warnings.warn(
                f"{path}: slides {patients[row.patient_id]!r} and {row.slide_id!r} "
                f"share patient_id {row.patient_id!r}",
                stacklevel=2,
            )
        else:
            patients[row.patient_id] = row.slide_id

    manifest = Manifest(rows=tuple(rows), base_dir=path.parent)
    for row in rows:
        target = manifest.resolve(row)
        if not target.is_file():
            raise FormatError(f"{path}: features_path {target} does not exist")
    return manifest


def write_manifest(path: str | Path, rows: Sequence[ManifestRow]) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_COLUMNS)
        for row in rows:
            writer.writerow(row)


def load_slides(manifest: Manifest) -> list[SlideRecord]:
    """Materialize every manifest row into a SlideRecord."""
    slides = []
    for row in manifest.rows:
        coords, features = _read_psf(manifest.resolve(row))
        slides.append(
            SlideRecord(
                slide_id=row.slide_id,
                patient_id=row.patient_id,
                site=row.site,
                subtype=row.subtype,
                magnification=row.magnification,
                coords=coords,
                features=features,
            )
        )
    return slides


_DB_FORMAT = "wsisearch-db"
_DB_VERSION = 12


def save_database(path: str | Path, engine: str, database) -> None:
    envelope = {
        "format": _DB_FORMAT,
        "version": _DB_VERSION,
        "engine": engine,
        "database": database,
    }
    with Path(path).open("wb") as fh:
        pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)


def load_database(path: str | Path) -> tuple[str, object]:
    """Returns (engine name, database object)."""
    path = Path(path)
    with path.open("rb") as fh:
        try:
            envelope = pickle.load(fh)
        except (AttributeError, ImportError) as exc:
            # the pickle names a module or class this version does not define
            raise FormatError(
                f"{path}: database written by an incompatible version ({exc})"
            ) from exc
        except Exception as exc:
            # malformed bytes raise more than UnpicklingError and EOFError:
            # ValueError, TypeError, OverflowError, UnicodeDecodeError, ...
            raise FormatError(f"{path}: not a database file ({exc})") from exc
    if (
        not isinstance(envelope, dict)
        or envelope.get("format") != _DB_FORMAT
        or "engine" not in envelope
        or "database" not in envelope
    ):
        raise FormatError(f"{path}: not a database file")
    if envelope.get("version") != _DB_VERSION:
        raise FormatError(
            f"{path}: database version {envelope.get('version')} unsupported"
        )
    return envelope["engine"], envelope["database"]
