"""End-to-end exercise of every subcommand through the in-process entry point."""

import json

import numpy as np
import pytest

from midas.cli import main
from midas.dataset import build_dataset, load_manifest, save_manifest, stratified_split
from midas.labels import VoteRecord
from midas.model import TrainConfig, load_checkpoint, soft_cross_entropy

from conftest import make_clip

SHAPE = (2, 4, 4, 1)


def _corpus(tmp_path, name="data.json", with_tie=False, seed=0):
    """Manifest with 3 classes x (4 unanimous + 4 ambiguous) = 24 tiny clips."""
    rng = np.random.default_rng(seed)
    clips = []
    votes = []
    for c in range(3):
        for k in range(4):
            clips.append(make_clip(f"u{c}{k}", shape=SHAPE, rng=rng))
            row = np.zeros(3, dtype=np.int64)
            row[c] = 10
            votes.append(VoteRecord(row))
        for k in range(4):
            clips.append(make_clip(f"a{c}{k}", shape=SHAPE, rng=rng))
            row = np.zeros(3, dtype=np.int64)
            row[c], row[(c + 1) % 3], row[(c + 2) % 3] = 5, 3, 2
            votes.append(VoteRecord(row))
    if with_tie:
        clips.append(make_clip("tied", shape=SHAPE, rng=rng))
        votes.append(VoteRecord(np.array([5, 5, 0])))
    ds = build_dataset(clips, votes, class_names=("a", "b", "c"))
    path = tmp_path / name
    save_manifest(ds, path)
    return path


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynth:
    def test_deterministic_across_reruns(self, tmp_path, capsys):
        args = ["synth", "--classes", "3", "--per-class", "4", "--frames", "2",
                "--height", "4", "--width", "4", "--seed", "5"]
        for sub in ("one", "two"):
            (tmp_path / sub).mkdir()
            code, _, err = _run(capsys, *args, "--out", str(tmp_path / sub / "d.json"))
            assert code == 0
            assert "wrote" in err
        assert (tmp_path / "one/d.json").read_bytes() == (tmp_path / "two/d.json").read_bytes()
        first = sorted((tmp_path / "one/d_clips").iterdir())
        second = sorted((tmp_path / "two/d_clips").iterdir())
        assert [f.name for f in first] == [f.name for f in second]
        for f1, f2 in zip(first, second):
            assert f1.read_bytes() == f2.read_bytes()

    def test_output_loads_as_dataset(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        code, _, _ = _run(capsys, "synth", "--classes", "3", "--per-class", "5",
                          "--frames", "2", "--height", "4", "--width", "4",
                          "--rho", "0.0", "--out", str(out))
        assert code == 0
        ds = load_manifest(out)
        assert len(ds) == 15
        assert ds.class_names == ("class_0", "class_1", "class_2")


class TestAggregate:
    def test_removes_ties_and_reports(self, tmp_path, capsys):
        manifest = _corpus(tmp_path, with_tie=True)
        out = tmp_path / "clean" / "data.json"
        code, _, err = _run(capsys, "aggregate", "--manifest", str(manifest),
                            "--out", str(out))
        assert code == 0
        assert "removed 1 tied record(s)" in err
        cleaned = load_manifest(out)
        assert len(cleaned) == 24
        assert all(e.hard is not None for e in cleaned.entries)

    def test_idempotent(self, tmp_path, capsys):
        manifest = _corpus(tmp_path, with_tie=True)
        first = tmp_path / "c1" / "data.json"
        second = tmp_path / "c2" / "data.json"
        _run(capsys, "aggregate", "--manifest", str(manifest), "--out", str(first))
        code, _, err = _run(capsys, "aggregate", "--manifest", str(first),
                            "--out", str(second))
        assert code == 0
        assert "removed 0 tied record(s)" in err
        assert first.read_bytes() == second.read_bytes()


class TestSplit:
    def test_matches_library_split(self, tmp_path, capsys):
        manifest = _corpus(tmp_path)
        code, _, err = _run(capsys, "split", "--manifest", str(manifest),
                            "--out", str(tmp_path / "part"), "--ratio", "0.5",
                            "--seed", "3")
        assert code == 0
        assert "split 24 clips" in err
        train_ds = load_manifest(tmp_path / "part_train.json")
        val_ds = load_manifest(tmp_path / "part_val.json")
        pair = stratified_split(load_manifest(manifest), ratio=0.5, seed=3)
        assert [e.clip.clip_id for e in train_ds.entries] == [
            e.clip.clip_id for e in pair.train.entries
        ]
        train_ids = {e.clip.clip_id for e in train_ds.entries}
        val_ids = {e.clip.clip_id for e in val_ds.entries}
        assert not train_ids & val_ids
        assert len(train_ids | val_ids) == 24


@pytest.fixture
def split_corpus(tmp_path, capsys):
    manifest = _corpus(tmp_path)
    _run(capsys, "split", "--manifest", str(manifest), "--out",
         str(tmp_path / "part"), "--ratio", "0.5", "--seed", "3")
    return tmp_path / "part_train.json", tmp_path / "part_val.json"


def _train_args(train_path, val_path, out, *extra):
    return ["train", "--manifest", str(train_path), "--val", str(val_path),
            "--out", str(out), "--labels", "soft", "--epochs", "2",
            "--seed", "1", *extra]


class TestTrain:
    def test_writes_checkpoint_and_history(self, split_corpus, tmp_path, capsys):
        train_path, val_path = split_corpus
        out = tmp_path / "model.ckpt"
        code, _, err = _run(capsys, *_train_args(train_path, val_path, out))
        assert code == 0
        assert "best epoch" in err
        model, meta = load_checkpoint(out)
        assert model.layer_sizes == (16, 32, 16, 3)
        expected = TrainConfig(epochs=2, batch_size=64, learning_rate=0.1,
                               alpha=0.8, label_mode="soft", seed=1)
        assert meta["config_hash"] == expected.hash()
        history = json.loads((tmp_path / "model.ckpt.history.json").read_text())
        assert set(history) == {"config_hash", "best_epoch", "loss", "val_uar", "val_war"}
        assert history["config_hash"] == expected.hash()
        assert len(history["loss"]) == 2

    def test_rerun_is_byte_identical(self, split_corpus, tmp_path, capsys):
        train_path, val_path = split_corpus
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        assert _run(capsys, *_train_args(train_path, val_path, a))[0] == 0
        assert _run(capsys, *_train_args(train_path, val_path, b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.ckpt.history.json").read_text() == (
            tmp_path / "b.ckpt.history.json"
        ).read_text()

    def test_zero_learning_rate_flat_history(self, split_corpus, tmp_path, capsys):
        train_path, val_path = split_corpus
        out = tmp_path / "m.ckpt"
        code, _, _ = _run(capsys, *_train_args(train_path, val_path, out),
                          "--lr", "0.0", "--epochs", "4")
        assert code == 0
        history = json.loads((tmp_path / "m.ckpt.history.json").read_text())
        assert history["loss"] == pytest.approx([history["loss"][0]] * 4, abs=1e-12)

    def test_creates_missing_output_directory(self, split_corpus, tmp_path, capsys):
        train_path, val_path = split_corpus
        out = tmp_path / "missing" / "m.ckpt"
        code, _, _ = _run(capsys, *_train_args(train_path, val_path, out))
        assert code == 0
        load_checkpoint(out)
        assert (tmp_path / "missing" / "m.ckpt.history.json").exists()

    def test_custom_history_path(self, split_corpus, tmp_path, capsys):
        train_path, val_path = split_corpus
        code, _, _ = _run(capsys, *_train_args(train_path, val_path,
                                               tmp_path / "m.ckpt"),
                          "--history", str(tmp_path / "h.json"))
        assert code == 0
        assert (tmp_path / "h.json").exists()
        assert not (tmp_path / "m.ckpt.history.json").exists()


class TestEval:
    def test_bundle_self_consistency(self, split_corpus, tmp_path, capsys):
        train_path, val_path = split_corpus
        ckpt = tmp_path / "m.ckpt"
        _run(capsys, *_train_args(train_path, val_path, ckpt))
        out = tmp_path / "bundle.json"
        code, _, _ = _run(capsys, "eval", "--checkpoint", str(ckpt),
                          "--manifest", str(val_path), "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        val_ds = load_manifest(val_path)
        assert doc["class_names"] == list(val_ds.class_names)
        assert len(doc["samples"]) == len(val_ds)
        assert sum(sum(row) for row in doc["confusion"]) == len(val_ds)
        assert 0.0 <= doc["uar"] <= 1.0
        for row in doc["samples"]:
            assert row["predicted_class"] == int(np.argmax(row["posterior"]))

    def test_stdout_when_no_out_flag(self, split_corpus, tmp_path, capsys):
        train_path, val_path = split_corpus
        ckpt = tmp_path / "m.ckpt"
        _run(capsys, *_train_args(train_path, val_path, ckpt))
        code, out, _ = _run(capsys, "eval", "--checkpoint", str(ckpt),
                            "--manifest", str(val_path))
        assert code == 0
        doc = json.loads(out)
        assert "uar" in doc and "war" in doc

    def test_geometry_mismatch_is_an_error(self, split_corpus, tmp_path, capsys):
        train_path, val_path = split_corpus
        ckpt = tmp_path / "m.ckpt"
        _run(capsys, *_train_args(train_path, val_path, ckpt))
        rng = np.random.default_rng(0)
        tiny = build_dataset(
            [make_clip(f"t{k}", shape=(2, 2, 2, 1), rng=rng) for k in range(2)],
            [VoteRecord(np.array([10, 0, 0])), VoteRecord(np.array([0, 10, 0]))],
            class_names=("a", "b", "c"),
        )
        tiny_path = tmp_path / "tiny.json"
        save_manifest(tiny, tiny_path)
        code, _, err = _run(capsys, "eval", "--checkpoint", str(ckpt),
                            "--manifest", str(tiny_path))
        assert code == 1
        assert err.startswith("error:")


    def test_malformed_target_hw_is_an_error(self, split_corpus, tmp_path, capsys):
        train_path, val_path = split_corpus
        ckpt = tmp_path / "m.ckpt"
        _run(capsys, *_train_args(train_path, val_path, ckpt))
        header, blob = ckpt.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["target_hw"] = "ab"
        ckpt.write_bytes(json.dumps(doc).encode("utf-8") + b"\n" + blob)
        code, _, err = _run(capsys, "eval", "--checkpoint", str(ckpt),
                            "--manifest", str(val_path))
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestSweepAlpha:
    def test_single_point_matches_train_plus_eval(self, split_corpus, tmp_path, capsys):
        train_path, val_path = split_corpus
        sweep_out = tmp_path / "sweep.json"
        code, _, _ = _run(capsys, "sweep-alpha", "--manifest", str(train_path),
                          "--val", str(val_path), "--grid", "0.8",
                          "--labels", "soft", "--epochs", "2", "--seed", "1",
                          "--out", str(sweep_out))
        assert code == 0
        row = json.loads(sweep_out.read_text())["rows"][0]
        ckpt = tmp_path / "m.ckpt"
        _run(capsys, *_train_args(train_path, val_path, ckpt))
        bundle_out = tmp_path / "bundle.json"
        _run(capsys, "eval", "--checkpoint", str(ckpt), "--manifest",
             str(val_path), "--out", str(bundle_out))
        doc = json.loads(bundle_out.read_text())
        assert row["alpha"] == 0.8
        assert row["uar"] == doc["uar"]
        assert row["war"] == doc["war"]

    def test_grid_is_sorted_in_output(self, split_corpus, tmp_path, capsys):
        train_path, val_path = split_corpus
        out = tmp_path / "sweep.json"
        code, _, _ = _run(capsys, "sweep-alpha", "--manifest", str(train_path),
                          "--val", str(val_path), "--grid", "0.9,0.2",
                          "--labels", "soft", "--epochs", "1", "--out", str(out))
        assert code == 0
        alphas = [r["alpha"] for r in json.loads(out.read_text())["rows"]]
        assert alphas == [0.2, 0.9]

    def test_rejects_bad_grids(self, split_corpus, capsys):
        train_path, val_path = split_corpus
        for grid in ("a,b", ","):
            code, _, err = _run(capsys, "sweep-alpha", "--manifest", str(train_path),
                                "--val", str(val_path), "--grid", grid)
            assert code == 1
            assert err.startswith("error:")


class TestAnalyze:
    def test_structure(self, tmp_path, capsys):
        manifest = _corpus(tmp_path)
        code, out, _ = _run(capsys, "analyze", "--manifest", str(manifest))
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {
            "class_names", "coexistence", "missing_classes", "max_vote_histogram",
        }
        assert doc["missing_classes"] == []
        for row in doc["coexistence"]:
            assert sum(row) == pytest.approx(1.0, abs=1e-9)
        # 12 unanimous clips peak at 10 votes; 12 ambiguous ones at 5
        assert doc["max_vote_histogram"][10] == 12
        assert doc["max_vote_histogram"][5] == 12

    def test_csv_side_output(self, tmp_path, capsys):
        manifest = _corpus(tmp_path)
        code, _, _ = _run(capsys, "analyze", "--manifest", str(manifest),
                          "--out", str(tmp_path / "a.json"),
                          "--csv", str(tmp_path / "tables"))
        assert code == 0
        text = (tmp_path / "tables_coexistence.csv").read_text()
        assert text.splitlines()[0] == "class,a,b,c"


class TestAmbiguityAblation:
    def test_four_cells_and_determinism(self, tmp_path, capsys):
        manifest = _corpus(tmp_path)
        # ratio 0.75 keeps at least two of each kind per class in train, so
        # both groups are guaranteed nonempty for every class
        args = ["ambiguity-ablation", "--manifest", str(manifest),
                "--threshold", "0.6", "--ratio", "0.75", "--epochs", "1",
                "--seed", "2", "--out"]
        out_a = tmp_path / "abl_a.json"
        out_b = tmp_path / "abl_b.json"
        code, _, err = _run(capsys, *args, str(out_a))
        assert code == 0
        assert "clear/soft" in err and "mixed/midas" in err
        doc = json.loads(out_a.read_text())
        assert doc["threshold"] == 0.6
        assert [(r["group"], r["labels"]) for r in doc["rows"]] == [
            ("clear", "soft"), ("clear", "midas"),
            ("mixed", "soft"), ("mixed", "midas"),
        ]
        assert doc["group_sizes"]["clear"] == doc["group_sizes"]["mixed"]
        code, _, _ = _run(capsys, *args, str(out_b))
        assert code == 0
        assert out_a.read_text() == out_b.read_text()

    def test_impossible_threshold_is_an_error(self, tmp_path, capsys):
        manifest = _corpus(tmp_path)
        code, _, err = _run(capsys, "ambiguity-ablation", "--manifest", str(manifest),
                            "--threshold", "1.0", "--ratio", "0.5", "--epochs", "1")
        assert code == 1
        assert err.startswith("error:")


class TestMix:
    def test_manifest_and_sidecar(self, tmp_path, capsys):
        manifest = _corpus(tmp_path)
        out = tmp_path / "mixed" / "mix.json"
        code, _, err = _run(capsys, "mix", "--manifest", str(manifest),
                            "--out", str(out), "--n", "5", "--seed", "4")
        assert code == 0
        assert "wrote 5 mixed clips" in err
        mixed = load_manifest(out)
        assert [e.clip.clip_id for e in mixed.entries] == [
            f"mix-{k:05d}" for k in range(5)
        ]
        originals = load_manifest(manifest)
        by_id = {e.clip.clip_id: e for e in originals.entries}
        sidecar = json.loads(out.with_suffix(".sidecar.json").read_text())
        assert len(sidecar) == 5
        for record, entry in zip(sidecar, mixed.entries):
            assert set(record) == {"lambda", "source_i", "source_j", "label_mode"}
            assert record["source_i"] != record["source_j"]
            assert record["source_i"] in by_id and record["source_j"] in by_id
            dominant = record["source_i"] if record["lambda"] >= 0.5 else record["source_j"]
            np.testing.assert_array_equal(
                entry.votes.counts, by_id[dominant].votes.counts
            )

    def test_default_count_is_dataset_size(self, tmp_path, capsys):
        manifest = _corpus(tmp_path)
        out = tmp_path / "mix.json"
        code, _, _ = _run(capsys, "mix", "--manifest", str(manifest), "--out", str(out))
        assert code == 0
        assert len(load_manifest(out)) == 24


class TestRisk:
    def test_mixed_and_empirical_estimates(self, split_corpus, tmp_path, capsys):
        train_path, val_path = split_corpus
        ckpt = tmp_path / "m.ckpt"
        _run(capsys, *_train_args(train_path, val_path, ckpt))
        code, out, _ = _run(capsys, "risk", "--manifest", str(val_path),
                            "--checkpoint", str(ckpt), "--draws", "64", "--seed", "6")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"value", "stderr", "draws", "seed"}
        assert doc["draws"] == 64
        assert doc["seed"] == 6
        assert doc["value"] >= 0.0 and np.isfinite(doc["value"])
        code, out, _ = _run(capsys, "risk", "--manifest", str(val_path),
                            "--checkpoint", str(ckpt), "--empirical")
        assert code == 0
        doc = json.loads(out)
        assert doc["draws"] == len(load_manifest(val_path))

    def test_empirical_risk_scores_the_eval_posteriors(self, split_corpus, tmp_path, capsys):
        train_path, val_path = split_corpus
        ckpt = tmp_path / "m.ckpt"
        _run(capsys, *_train_args(train_path, val_path, ckpt))
        code, out, _ = _run(capsys, "eval", "--checkpoint", str(ckpt),
                            "--manifest", str(val_path))
        assert code == 0
        samples = json.loads(out)["samples"]
        code, out, _ = _run(capsys, "risk", "--manifest", str(val_path),
                            "--checkpoint", str(ckpt), "--empirical")
        assert code == 0
        posteriors = np.array([s["posterior"] for s in samples])
        soft = np.array([s["soft_label"] for s in samples])
        losses = soft_cross_entropy(posteriors, soft)
        doc = json.loads(out)
        assert doc["draws"] == len(samples)
        assert doc["value"] == float(losses.mean())
        assert doc["stderr"] == float(losses.std(ddof=1) / np.sqrt(len(losses)))

    def test_hard_label_mode_runs(self, split_corpus, tmp_path, capsys):
        train_path, val_path = split_corpus
        ckpt = tmp_path / "m.ckpt"
        _run(capsys, *_train_args(train_path, val_path, ckpt))
        code, out, _ = _run(capsys, "risk", "--manifest", str(val_path),
                            "--checkpoint", str(ckpt), "--labels", "hard",
                            "--draws", "16")
        assert code == 0
        assert json.loads(out)["draws"] == 16


class TestSeedEnvironment:
    def test_env_var_sets_the_default(self, tmp_path, capsys, monkeypatch):
        args = ["synth", "--classes", "2", "--per-class", "3", "--frames", "2",
                "--height", "4", "--width", "4", "--rho", "0.0"]
        (tmp_path / "env").mkdir()
        (tmp_path / "flag").mkdir()
        monkeypatch.setenv("MIDAS_SEED", "77")
        _run(capsys, *args, "--out", str(tmp_path / "env/d.json"))
        monkeypatch.delenv("MIDAS_SEED")
        _run(capsys, *args, "--seed", "77", "--out", str(tmp_path / "flag/d.json"))
        assert (tmp_path / "env/d.json").read_bytes() == (
            tmp_path / "flag/d.json"
        ).read_bytes()

    def test_explicit_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        args = ["synth", "--classes", "2", "--per-class", "3", "--frames", "2",
                "--height", "4", "--width", "4", "--rho", "0.0"]
        monkeypatch.setenv("MIDAS_SEED", "77")
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        _run(capsys, *args, "--seed", "5", "--out", str(tmp_path / "a/d.json"))
        monkeypatch.delenv("MIDAS_SEED")
        _run(capsys, *args, "--seed", "5", "--out", str(tmp_path / "b/d.json"))
        assert (tmp_path / "a/d.json").read_bytes() == (tmp_path / "b/d.json").read_bytes()

    def test_invalid_env_seed_is_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MIDAS_SEED", "not-a-number")
        code, _, err = _run(capsys, "analyze", "--manifest", str(tmp_path / "x.json"))
        assert code == 1
        assert err.startswith("error:")


class TestErrorPaths:
    def test_missing_manifest(self, tmp_path, capsys):
        code, _, err = _run(capsys, "analyze", "--manifest",
                            str(tmp_path / "absent.json"))
        assert code == 1
        assert err.startswith("error:")

    def test_boolean_vote_counts_are_an_error(self, tmp_path, capsys):
        manifest = _corpus(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["entries"][3]["votes"] = [True, 0, 0]
        manifest.write_text(json.dumps(doc))
        code, _, err = _run(capsys, "aggregate", "--manifest", str(manifest),
                            "--out", str(tmp_path / "clean.json"))
        assert code == 1
        assert err.startswith("error:") and "u03" in err
        assert not (tmp_path / "clean.json").exists()

    @pytest.mark.parametrize("stored", [
        ["a", "b", "c"], [0.5, [0.3], 0.2], {"a": 1}, [None, None, None],
    ], ids=["strings", "ragged", "object", "nulls"])
    def test_malformed_stored_soft_label_is_an_error(self, tmp_path, capsys, stored):
        manifest = _corpus(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["entries"][5]["soft"] = stored
        manifest.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "analyze", "--manifest", str(manifest))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "a01" in err
        assert "Traceback" not in err

    def test_negative_seed_is_an_error(self, split_corpus, tmp_path, capsys):
        train_path, val_path = split_corpus
        for argv in (
            ["synth", "--out", str(tmp_path / "s.json"), "--seed", "-1"],
            ["train", "--manifest", str(train_path), "--val", str(val_path),
             "--out", str(tmp_path / "m.ckpt"), "--seed", "-1"],
        ):
            code, _, err = _run(capsys, *argv)
            assert code == 1
            assert err.startswith("error:") and "seed" in err
        assert not (tmp_path / "s.json").exists() and not (tmp_path / "m.ckpt").exists()

    def test_negative_seed_for_split_mix_risk_and_ablation_is_an_error(
        self, split_corpus, tmp_path, capsys
    ):
        train_path, val_path = split_corpus
        ckpt = tmp_path / "m.ckpt"
        assert _run(capsys, *_train_args(train_path, val_path, ckpt))[0] == 0
        cases = (
            (["split", "--manifest", str(train_path), "--out", str(tmp_path / "neg")],
             tmp_path / "neg_train.json"),
            (["mix", "--manifest", str(train_path), "--out", str(tmp_path / "mix.json")],
             tmp_path / "mix.json"),
            (["risk", "--manifest", str(val_path), "--checkpoint", str(ckpt),
              "--draws", "8", "--out", str(tmp_path / "risk.json")],
             tmp_path / "risk.json"),
            (["ambiguity-ablation", "--manifest", str(train_path), "--threshold", "0.6",
              "--epochs", "1", "--out", str(tmp_path / "abl.json")],
             tmp_path / "abl.json"),
        )
        for argv, written in cases:
            code, out, err = _run(capsys, *argv, "--seed", "-1")
            assert code == 1, argv[0]
            assert err.startswith("error:") and "seed" in err
            assert "Traceback" not in err and out == ""
            assert not written.exists()

    def test_oversized_vote_count_is_an_error(self, tmp_path, capsys):
        manifest = _corpus(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["entries"][2]["votes"] = [10**30, 0, 0]
        manifest.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "analyze", "--manifest", str(manifest),
                              "--out", str(tmp_path / "a.json"))
        assert code == 1
        assert err.startswith("error:") and "u02" in err
        assert "Traceback" not in err and out == ""
        assert not (tmp_path / "a.json").exists()

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
