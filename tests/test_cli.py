"""CLI behavior through main(argv): exit codes, round trips, config files."""
import numpy as np
import pytest

from wsisearch.cli import main
from wsisearch.dataio import (
    load_database,
    load_slides,
    parse_manifest,
    write_features,
    write_manifest,
)
from wsisearch.experiment import read_rows
from wsisearch.model import as_patches


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

    def test_hshr_build_ignores_seed(self, corpus_dir, tmp_path):
        # hshr hashes each slide's mean feature and draws nothing at random
        built = []
        for seed in ("0", "3"):
            db_path = tmp_path / f"hshr-{seed}.db"
            rc = main(
                [
                    "build-db",
                    "--engine", "hshr",
                    "--manifest", str(corpus_dir / "manifest.csv"),
                    "--db", str(db_path),
                    "--seed", seed,
                ]
            )
            assert rc == 0
            engine, db = load_database(db_path)
            assert engine == "hshr" and db.params.seed == int(seed)
            built.append(db)
        assert built[0].hashes.tobytes() == built[1].hashes.tobytes()
        assert built[0].incidence.tobytes() == built[1].incidence.tobytes()

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
                "--engine", "yottixel,sish",
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
        # two sizes per engine, in the order named
        assert [line.split(",")[:2] for line in text[1:]] == [
            ["yottixel", "4"], ["yottixel", "8"], ["sish", "4"], ["sish", "8"],
        ]


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

    def test_malformed_database_exits_2(self, corpus_dir, tmp_path, capsys):
        db_path = tmp_path / "bad.db"
        db_path.write_bytes(b"\x80\x09")  # a pickle of protocol 9
        rc = main(["query", "--db", str(db_path), "--manifest", str(corpus_dir / "queries.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {db_path}: not a database file")

    def test_bad_bench_engine(self):
        assert main(["bench", "--engine", "faiss", "--sizes", "4", "--reps", "1"]) == 2

    def test_invalid_synth_spec(self, tmp_path):
        rc = main(["synth", "--out", str(tmp_path), "--sigma", "0"])
        assert rc == 2

    def test_k_below_one_rejected_when_every_query_abstains(self, corpus_dir, tmp_path):
        # RetCCL cannot query an all-zero slide, so no engine ever sees k
        db_path = tmp_path / "retccl.db"
        args = ["--manifest", str(corpus_dir / "manifest.csv"), "--db", str(db_path)]
        assert main(["build-db", "--engine", "retccl", *args]) == 0
        (row,) = parse_manifest(corpus_dir / "queries.csv").rows[:1]
        coords = np.array([[x, 0] for x in range(8)], dtype=np.int32)
        write_features(tmp_path / "zero.psf", as_patches(coords, np.zeros((8, 16), np.float32)))
        zero_manifest = tmp_path / "zero.csv"
        write_manifest(zero_manifest, [row._replace(features_path="zero.psf")])
        query = ["query", "--db", str(db_path), "--manifest", str(zero_manifest), "--task", "patch"]
        out = tmp_path / "rows.csv"
        assert main([*query, "--out", str(out)]) == 0  # the query abstains
        assert all(slot is None for r in read_rows(out) for slot in r.slots)
        assert main([*query, "--k", "0", "--out", str(tmp_path / "k0.csv")]) == 2
        assert not (tmp_path / "k0.csv").exists()


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
        with pytest.raises(SystemExit) as exc:
            main(["stats-mwu", "--config", str(cfg), "--a", "1", "--b", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, key",
        [
            (["build-db", "--manifest", "m.csv", "--db", "out.db"], "engine"),
            (["eval", "--rows", "rows.csv"], "task"),
        ],
    )
    def test_bad_choice_exits_2(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = bogus\n")
        with pytest.raises(SystemExit) as exc:
            main([command[0], "--config", str(cfg), *command[1:]])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err and "Traceback" not in err

    def test_abbreviated_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("patches = 9\nsites = 1\nsubtypes-per-site = 1\nslides-per-subtype = 1\n")
        out = tmp_path / "corpus"
        rc = main(["synth", "--config", str(cfg), "--out", str(out), "--dim", "4", "--pat", "4"])
        assert rc == 0
        (slide,) = load_slides(parse_manifest(out / "manifest.csv"))
        assert len(slide.coords) == 4

    def test_key_must_be_a_whole_option_name(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("sites = 1\npat = 3\n")
        out = tmp_path / "corpus"
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--config", str(cfg), "--out", str(out), "--dim", "4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: wsisearch synth" in err
        assert f"{cfg}:2: unknown key 'pat'" in err
        assert not out.exists()

    def test_bare_config_reports_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--config"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: wsisearch synth ")
        assert "wsisearch synth: error: argument --config: expected one argument" in err

    def test_config_cannot_name_another(self, tmp_path):
        other = tmp_path / "other.cfg"
        other.write_text("a = 1\nb = 2\n")
        cfg = tmp_path / "nested.cfg"
        for key in ("config", "conf"):
            cfg.write_text(f"{key} = {other}\n")
            assert main(["stats-mwu", "--config", str(cfg), "--a", "1", "--b", "2"]) == 2

    def test_negative_value_parses(self, tmp_path, capsys):
        cfg = tmp_path / "mwu.cfg"
        cfg.write_text("a = -1,2\nb = 3,4\n")
        assert main(["stats-mwu", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("U=0 ")

    def test_missing_config_file(self):
        assert main(["stats-mwu", "--config", "/nonexistent.cfg", "--a", "1", "--b", "2"]) == 2

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        assert main(["stats-mwu", "--config", str(cfg), "--a", "1", "--b", "2"]) == 2
