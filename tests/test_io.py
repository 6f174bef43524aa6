"""Feature file format, manifests, database envelopes."""
from __future__ import annotations

import json
import pickle
import struct
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsisearch.dataio import (
    MAGIC,
    ManifestRow,
    load_database,
    load_slides,
    parse_manifest,
    read_features,
    save_database,
    write_features,
    write_manifest,
)
from wsisearch.errors import FormatError, ValidationError
from wsisearch.experiment import TASK_SITE, query_rows_against_db
from wsisearch.model import PatchFeature, SlideTable, as_patches
from wsisearch.yottixel import YottixelParams, build_database

from util import make_slide


def random_patches(rng, n, dim):
    return [
        PatchFeature(
            x=int(rng.integers(0, 100)),
            y=int(rng.integers(0, 100)),
            feature=rng.normal(size=dim).astype(np.float32),
        )
        for _ in range(n)
    ]


class TestFeatureFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        patches = random_patches(rng, 100, 37)
        path = tmp_path / "s.psf"
        write_features(path, patches)
        loaded = read_features(path)
        assert len(loaded) == 100
        for orig, back in zip(patches, loaded):
            assert (back.x, back.y) == (orig.x, orig.y)
            assert back.feature.tobytes() == orig.feature.tobytes()

    @given(st.integers(0, 20), st.integers(1, 16), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_property(self, n, dim, seed):
        import tempfile

        rng = np.random.default_rng(seed)
        patches = random_patches(rng, n, dim)
        with tempfile.TemporaryDirectory() as tdir:
            path = f"{tdir}/f.psf"
            write_features(path, patches)
            loaded = read_features(path)
        assert [(p.x, p.y, p.feature.tobytes()) for p in loaded] == [
            (p.x, p.y, p.feature.tobytes()) for p in patches
        ]

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "empty.psf"
        write_features(path, [])
        assert read_features(path) == []

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.psf"
        path.write_bytes(b"JUNK" + struct.pack("<II", 0, 4))
        with pytest.raises(FormatError):
            read_features(path)

    def test_truncated_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "cut.psf"
        write_features(path, random_patches(rng, 3, 8))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FormatError):
            read_features(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "long.psf"
        write_features(path, random_patches(rng, 2, 4))
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError):
            read_features(path)

    def test_mixed_dims_rejected_on_write(self, tmp_path):
        a = PatchFeature(0, 0, np.zeros(3, dtype=np.float32))
        b = PatchFeature(0, 1, np.zeros(4, dtype=np.float32))
        with pytest.raises(ValidationError):
            write_features(tmp_path / "mix.psf", [a, b])

    def test_magic_constant(self):
        assert MAGIC == b"PSF1"


def write_corpus(tmp_path, slides):
    rows = []
    for slide in slides:
        rel = f"{slide.slide_id}.psf"
        write_features(tmp_path / rel, as_patches(slide.coords, slide.features))
        rows.append(
            ManifestRow(
                slide.slide_id,
                slide.patient_id,
                slide.site,
                slide.subtype,
                slide.magnification,
                rel,
            )
        )
    path = tmp_path / "manifest.csv"
    write_manifest(path, rows)
    return path


class TestManifests:
    def make_slides(self):
        rng = np.random.default_rng(5)
        return [
            make_slide("s1", rng.normal(size=(4, 6)), patient_id="p1"),
            make_slide("s2", rng.normal(size=(4, 6)), patient_id="p2"),
            make_slide("s3", rng.normal(size=(4, 6)), patient_id="p3"),
        ]

    def test_round_trip_through_slides(self, tmp_path):
        slides = self.make_slides()
        manifest = parse_manifest(write_corpus(tmp_path, slides))
        loaded = load_slides(manifest)
        assert [s.slide_id for s in loaded] == ["s1", "s2", "s3"]
        assert loaded[0].features.tobytes() == slides[0].features.tobytes()
        assert loaded[0].coords.tobytes() == slides[0].coords.tobytes()

    @given(st.integers(1, 30), st.integers(1, 16), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_loaded_columns_equal_written_patches(self, n, dim, seed):
        import tempfile
        from pathlib import Path

        rng = np.random.default_rng(seed)
        cells = rng.choice(200 * 200, size=n, replace=False)
        patches = [
            PatchFeature(int(c % 200) - 100, int(c // 200), f)
            for c, f in zip(cells, rng.normal(size=(n, dim)).astype(np.float32) * 1e3)
        ]
        with tempfile.TemporaryDirectory() as tdir:
            write_features(Path(tdir) / "s.psf", patches)
            write_manifest(
                Path(tdir) / "m.csv", [ManifestRow("s", "p", "brain", "gbm", "20x", "s.psf")]
            )
            (slide,) = load_slides(parse_manifest(Path(tdir) / "m.csv"))
        assert slide.coords.dtype == np.int32 and slide.features.dtype == np.float32
        assert slide.coords.tolist() == [[p.x, p.y] for p in patches]
        assert slide.features.tobytes() == b"".join(p.feature.tobytes() for p in patches)

    def test_duplicate_slide_id_rejected(self, tmp_path):
        slides = self.make_slides()
        path = write_corpus(tmp_path, slides)
        lines = path.read_text().splitlines()
        lines.append(lines[1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="s1"):
            parse_manifest(path)

    def test_shared_patient_warns_but_keeps(self, tmp_path):
        slides = self.make_slides()
        slides[1] = make_slide(
            "s2", slides[1].features, patient_id="p1"
        )
        path = write_corpus(tmp_path, slides)
        with pytest.warns(UserWarning):
            manifest = parse_manifest(path)
        assert len(manifest.rows) == 3

    def test_malformed_row_names_line(self, tmp_path):
        slides = self.make_slides()
        path = write_corpus(tmp_path, slides)
        lines = path.read_text().splitlines()
        lines[2] = "only,three,fields"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="3"):
            parse_manifest(path)

    def test_missing_features_file_rejected(self, tmp_path):
        slides = self.make_slides()
        path = write_corpus(tmp_path, slides)
        (tmp_path / "s2.psf").unlink()
        with pytest.raises(FormatError, match="s2"):
            parse_manifest(path)

    def test_repeated_coordinate_rejected_on_load(self, tmp_path):
        slides = self.make_slides()
        path = write_corpus(tmp_path, slides)
        patches = as_patches(slides[1].coords, slides[1].features)
        patches[2] = PatchFeature(patches[0].x, patches[0].y, patches[2].feature)
        write_features(tmp_path / "s2.psf", patches)
        # the file format itself allows repeats; the slide built from it does not
        assert [p.coord for p in read_features(tmp_path / "s2.psf")] == [
            p.coord for p in patches
        ]
        with pytest.raises(ValidationError, match="'s2'"):
            load_slides(parse_manifest(path))

    def test_repeat_in_last_row_of_large_slide(self, tmp_path):
        n = 10**5
        rows = np.arange(n)
        coords = np.stack([rows % 400 - 200, rows // 400 - 125], axis=1)
        patches = as_patches(coords, np.ones((n, 1), dtype=np.float32))
        path = tmp_path / "manifest.csv"
        write_manifest(path, [ManifestRow("big", "p1", "brain", "gbm", "20x", "big.psf")])
        write_features(tmp_path / "big.psf", patches)
        (slide,) = load_slides(parse_manifest(path))
        assert slide.coords.tolist() == coords.tolist()
        x, y = patches[12345].coord
        patches[-1] = PatchFeature(x, y, patches[-1].feature)
        write_features(tmp_path / "big.psf", patches)
        with pytest.raises(ValidationError, match=rf"'big' repeats patch coordinate \({x}, {y}\)"):
            load_slides(parse_manifest(path))

    def test_wrong_header_rejected(self, tmp_path):
        slides = self.make_slides()
        path = write_corpus(tmp_path, slides)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace("slide_id", "slide")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            parse_manifest(path)

    def test_non_utf8_bytes_are_format_error(self, tmp_path):
        path = write_corpus(tmp_path, self.make_slides())
        path.write_bytes(path.read_bytes().replace(b"\ns1,", b"\n\xff\xfe,"))
        with pytest.raises(FormatError, match=f"{path}: not UTF-8 text"):
            parse_manifest(path)


class TestDatabaseEnvelope:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        slides = [make_slide(f"s{i}", rng.normal(size=(12, 10))) for i in range(4)]
        db = build_database(slides, YottixelParams(seed=2))
        path = tmp_path / "y.db"
        save_database(path, "yottixel", db)
        engine, loaded = load_database(path)
        assert engine == "yottixel"
        assert loaded.slide_ids == db.slide_ids
        assert loaded.packed.tobytes() == db.packed.tobytes()

    def test_previous_version_rejected(self, tmp_path):
        # version 1 held '0'/'1' string barcodes; version 2 held per-slide
        # yottixel bags and unused HSHR signature fields; version 3 held
        # SISH's vEB tree and per-patch entries; version 4 held RetCCL's
        # per-row slide ids and the RetCCL and HSHR label dicts; version 5
        # held yottixel's slide starts, RetCCL's patch_coords, SISH's
        # subtype_freq dict and HSHR's graph-level knn_k, and rows that
        # followed input order; version 6 held HSHR's float incidence and
        # hyperedge weights; version 7 held HSHR hashes of a fixed-centroid
        # mosaic, which differ from the mean's hash at near-ties; version 8
        # stored RetCCL's unit rows row-major, which would load and run
        # slow; version 9 held SISH's per-row ordinal, from which each query
        # derived the row rank that version 10 stores.  Each changed the
        # engine classes' fields, stored values or layout, so such files
        # must not load
        for version in (1, 2, 3, 4, 5, 6, 7, 8, 9):
            path = tmp_path / f"v{version}.db"
            envelope = {
                "format": "wsisearch-db", "version": version, "engine": "yottixel", "database": None
            }
            path.write_bytes(pickle.dumps(envelope))
            with pytest.raises(FormatError, match=f"version {version} unsupported"):
                load_database(path)

    def test_foreign_pickle_rejected(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(FormatError):
            load_database(path)

    @pytest.mark.parametrize(
        "raw",
        [
            b"\x80\x09",  # protocol 9: ValueError
            b"\x80\x04X\x02\x00\x00\x00\xd7\x00.",  # bad utf-8: UnicodeDecodeError
            b"\x80\x04\x8d" + b"\xff" * 8,  # BINUNICODE8 length: OverflowError
            b"\x80\x04(K\x01K\x02tK\x00K\x01s.",  # item set on a tuple: TypeError
        ],
    )
    def test_malformed_pickle_is_format_error(self, tmp_path, raw):
        path = tmp_path / "bad.db"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="bad.db: not a database file"):
            load_database(path)

    @pytest.mark.parametrize("vanished", ["class", "module"])
    def test_pickle_of_vanished_class_is_format_error(self, tmp_path, monkeypatch, vanished):
        module = types.ModuleType("wsisearch_renamed_engine")

        class OldDatabase:
            pass

        OldDatabase.__module__ = module.__name__
        OldDatabase.__qualname__ = "OldDatabase"
        module.OldDatabase = OldDatabase
        monkeypatch.setitem(sys.modules, module.__name__, module)
        path = tmp_path / "old.db"
        save_database(path, "yottixel", OldDatabase())

        if vanished == "class":
            del module.OldDatabase
        else:
            monkeypatch.delitem(sys.modules, module.__name__)
        with pytest.raises(FormatError, match="old.db"):
            load_database(path)


#: databases written by this tree at format version 12 (``wsisearch build-db``
#: over ``wsisearch synth --sites 2 --subtypes-per-site 2 --slides-per-subtype
#: 3 --patches 30 --dim 32 --separation 2.0 --sigma 0.2 --queries-per-subtype
#: 1 --seed 7``), its query slides, and the site-task rows it answered them with
FORMAT12 = Path(__file__).parent / "data" / "format12"
#: the same databases written by earlier trees: at format version 11 (commit
#: e9ec795) with the rows that tree answered, and at version 10 (commit 134899c)
FORMAT11 = Path(__file__).parent / "data" / "format11"
FORMAT10 = Path(__file__).parent / "data" / "format10"
ENGINES = ["hshr", "retccl", "sish", "yottixel"]


class TestSavedDatabases:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_earlier_files_load_and_answer_their_recorded_rows(self, engine):
        saved_engine, db = load_database(FORMAT12 / f"{engine}.db")
        assert saved_engine == engine and isinstance(db, SlideTable)
        queries = load_slides(parse_manifest(FORMAT12 / "queries.csv"))
        rows = query_rows_against_db(engine, db, queries, TASK_SITE)
        recorded = json.loads((FORMAT12 / "site_rows.json").read_text())[engine]
        assert [
            [r.query_id, r.query_site, r.query_subtype, [list(s) if s else None for s in r.slots]]
            for r in rows
        ] == recorded

    def test_rows_are_those_of_the_previous_version(self):
        """Version 12 added derived per-slide columns, not any answer."""
        assert (FORMAT12 / "site_rows.json").read_bytes() == (
            FORMAT11 / "site_rows.json"
        ).read_bytes()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_version_10_files_rejected(self, engine):
        """Version 10 stored RetCCL's rows as float64 unit vectors, where
        version 11 stores the float32 rows and their norms."""
        with pytest.raises(FormatError, match="version 10 unsupported"):
            load_database(FORMAT10 / f"{engine}.db")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_version_11_files_rejected(self, engine):
        """Version 11 stored RetCCL's rows dim-major and held no per-slide
        subtype codes or RetCCL cones."""
        with pytest.raises(FormatError, match="version 11 unsupported"):
            load_database(FORMAT11 / f"{engine}.db")
