"""CLI behavior through main(argv): exit codes, round trips, config files."""
import numpy as np
import pytest

from wsisearch.cli import main
from wsisearch.dataio import load_database
from wsisearch.experiment import read_rows


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-corpus")
    rc = main(
        [
            "synth",
            "--out", str(out),
            "--sites", "2",
            "--subtypes-per-site", "2",
            "--slides-per-subtype", "3",
            "--patches", "24",
            "--dim", "16",
            "--separation", "2.0",
            "--sigma", "0.15",
            "--queries-per-subtype", "1",
            "--seed", "9",
        ]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def built_db(corpus_dir, tmp_path_factory):
    db_path = tmp_path_factory.mktemp("cli-db") / "yottixel.db"
    rc = main(
        [
            "build-db",
            "--engine", "yottixel",
            "--manifest", str(corpus_dir / "manifest.csv"),
            "--db", str(db_path),
            "--seed", "1",
        ]
    )
    assert rc == 0
    return db_path


class TestHappyPath:
    def test_synth_wrote_manifests(self, corpus_dir):
        assert (corpus_dir / "manifest.csv").exists()
        assert (corpus_dir / "queries.csv").exists()

    def test_build_db_prints_count(self, corpus_dir, built_db, capsys):
        # a fresh build to capture its stdout
        db2 = built_db.parent / "again.db"
        main(
            [
                "build-db",
                "--engine", "yottixel",
                "--manifest", str(corpus_dir / "manifest.csv"),
                "--db", str(db2),
            ]
        )
        out = capsys.readouterr().out
        assert "indexed 12/12 slides" in out
        engine, _ = load_database(db2)
        assert engine == "yottixel"

    def test_query_writes_rows(self, corpus_dir, built_db, tmp_path):
        rows_path = tmp_path / "rows.csv"
        rc = main(
            [
                "query",
                "--db", str(built_db),
                "--manifest", str(corpus_dir / "queries.csv"),
                "--task", "site",
                "--out", str(rows_path),
            ]
        )
        assert rc == 0
        rows = read_rows(rows_path)
        assert len(rows) == 4
        assert all(len(r.slots) == 10 for r in rows)

    def test_query_without_out_prints_rows(self, corpus_dir, built_db, tmp_path, capsys):
        args = [
            "query",
            "--db", str(built_db),
            "--manifest", str(corpus_dir / "queries.csv"),
            "--task", "site",
        ]
        assert main(args) == 0
        printed = capsys.readouterr().out
        rows_path = tmp_path / "rows.csv"
        main(args + ["--out", str(rows_path)])
        assert printed == rows_path.read_text()

    def test_query_k_override(self, corpus_dir, built_db, tmp_path):
        rows_path = tmp_path / "rows.csv"
        main(
            [
                "query",
                "--db", str(built_db),
                "--manifest", str(corpus_dir / "queries.csv"),
                "--task", "site",
                "--k", "3",
                "--out", str(rows_path),
            ]
        )
        assert all(len(r.slots) == 3 for r in read_rows(rows_path))

    def test_eval_prints_summary(self, corpus_dir, built_db, tmp_path, capsys):
        rows_path = tmp_path / "rows.csv"
        main(
            [
                "query",
                "--db", str(built_db),
                "--manifest", str(corpus_dir / "queries.csv"),
                "--task", "subtype",
                "--out", str(rows_path),
            ]
        )
        out_dir = tmp_path / "summary"
        rc = main(
            ["eval", "--rows", str(rows_path), "--task", "subtype", "--out-dir", str(out_dir)]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "mMV@1" in printed and "mAP@5" in printed
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "summary.txt").exists()

    def test_stats_mwu_output(self, capsys):
        rc = main(["stats-mwu", "--a", "1,2", "--b", "3,4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("U=0 ")
        assert "p=0.333333" in out

    def test_bench_tiny(self, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        rc = main(
            [
                "bench",
                "--engine", "yottixel",
                "--sizes", "4,8",
                "--reps", "1",
                "--queries", "1",
                "--patches", "8",
                "--dim", "8",
                "--out", str(out_csv),
            ]
        )
        assert rc == 0
        text = out_csv.read_text().splitlines()
        assert text[0] == "engine,size,median_s,slope,theory"
        assert len(text) == 3  # two sizes, one engine


class TestExitCodes:
    def test_hshr_patch_is_unsupported(self, corpus_dir, tmp_path):
        db_path = tmp_path / "hshr.db"
        assert (
            main(
                [
                    "build-db",
                    "--engine", "hshr",
                    "--manifest", str(corpus_dir / "manifest.csv"),
                    "--db", str(db_path),
                ]
            )
            == 0
        )
        rc = main(
            [
                "query",
                "--db", str(db_path),
                "--manifest", str(corpus_dir / "queries.csv"),
                "--task", "patch",
            ]
        )
        assert rc == 3

    def test_missing_manifest(self, tmp_path):
        rc = main(
            [
                "build-db",
                "--engine", "yottixel",
                "--manifest", str(tmp_path / "nope.csv"),
                "--db", str(tmp_path / "out.db"),
            ]
        )
        assert rc == 2

    def test_engine_mismatch(self, corpus_dir, built_db):
        rc = main(
            [
                "query",
                "--db", str(built_db),
                "--engine", "sish",
                "--manifest", str(corpus_dir / "queries.csv"),
            ]
        )
        assert rc == 2

    def test_bad_bench_engine(self):
        assert main(["bench", "--engine", "faiss", "--sizes", "4", "--reps", "1"]) == 2

    def test_invalid_synth_spec(self, tmp_path):
        rc = main(["synth", "--out", str(tmp_path), "--sigma", "0"])
        assert rc == 2


class TestConfigFile:
    def test_config_supplies_values(self, corpus_dir, tmp_path):
        cfg = tmp_path / "query.cfg"
        cfg.write_text("# query settings\ntask = subtype\nk = 2\n")
        db_path = tmp_path / "db"
        main(
            [
                "build-db",
                "--engine", "yottixel",
                "--manifest", str(corpus_dir / "manifest.csv"),
                "--db", str(db_path),
            ]
        )
        rows_path = tmp_path / "rows.csv"
        rc = main(
            [
                "query",
                "--config", str(cfg),
                "--db", str(db_path),
                "--manifest", str(corpus_dir / "queries.csv"),
                "--out", str(rows_path),
            ]
        )
        assert rc == 0
        assert all(len(r.slots) == 2 for r in read_rows(rows_path))

    def test_explicit_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "mwu.cfg"
        cfg.write_text("a = 9,9,9\nb = 3,4\n")
        rc = main(["stats-mwu", "--config", str(cfg), "--a", "1,2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("U=0 ")  # --a beat the config's a

    def test_dashes_and_underscores_equivalent(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("slides-per-subtype = 2\nqueries_per_subtype = 0\nsites = 1\n")
        out = tmp_path / "corpus"
        rc = main(["synth", "--config", str(cfg), "--out", str(out), "--patches", "4", "--dim", "4"])
        assert rc == 0
        manifest = (out / "manifest.csv").read_text().splitlines()
        assert len(manifest) == 1 + 2 * 2  # header + 2 subtypes x 2 slides

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_speed = 9\n")
        assert main(["stats-mwu", "--config", str(cfg), "--a", "1", "--b", "2"]) == 2

    def test_missing_config_file(self):
        assert main(["stats-mwu", "--config", "/nonexistent.cfg", "--a", "1", "--b", "2"]) == 2

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        assert main(["stats-mwu", "--config", str(cfg), "--a", "1", "--b", "2"]) == 2
