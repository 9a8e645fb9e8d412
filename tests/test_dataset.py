"""Dataset container, clip/manifest formats, splitting, and grouping."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midas.dataset import (
    CLIP_MAGIC,
    Clip,
    LabeledDataset,
    build_dataset,
    hard_relabeled,
    load_manifest,
    max_vote_histogram,
    partition_by_ambiguity,
    read_clip_file,
    require_resolved,
    save_manifest,
    stratified_split,
    write_clip_file,
)
from midas.errors import (
    AmbiguousLabelError,
    EmptyClearGroupError,
    EmptyDatasetError,
    InvalidInputError,
    MalformedRecordError,
    ManifestError,
    MissingClipFileError,
    TensorShapeError,
    VoteLabelMismatchError,
)
from midas.labels import VoteRecord
from midas.mixer import midas_batch
from midas.model import LABEL_MODES, TrainConfig, train

from conftest import make_clip, make_dataset, unanimous_rows


class TestClip:
    def test_stores_float32_frames(self):
        clip = make_clip("a", value=0.5)
        assert clip.frames.dtype == np.float32
        assert clip.shape == (3, 4, 4, 1)

    def test_rejects_wrong_rank(self):
        with pytest.raises(InvalidInputError):
            Clip(clip_id="a", frames=np.zeros((4, 4), dtype=np.float32))

    @pytest.mark.parametrize("shape", [(0, 2, 2, 1), (1, 0, 2, 1), (1, 2, 0, 1), (1, 2, 2, 0)])
    def test_rejects_zero_size_dimensions(self, shape):
        with pytest.raises(InvalidInputError, match="T, H, W, Ch >= 1"):
            Clip(clip_id="z", frames=np.zeros(shape, dtype=np.float32))

    def test_rejects_out_of_range_values(self):
        with pytest.raises(InvalidInputError):
            Clip(clip_id="a", frames=np.full((1, 2, 2, 1), 1.5, dtype=np.float32))

    def test_rejects_non_finite(self):
        frames = np.zeros((1, 2, 2, 1), dtype=np.float32)
        frames[0, 0, 0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            Clip(clip_id="a", frames=frames)


class TestLabeledDataset:
    def test_labels_derived_from_votes(self):
        ds = make_dataset([[6, 4, 0], [0, 0, 5]])
        np.testing.assert_array_equal(ds.entries[0].soft, [0.6, 0.4, 0.0])
        assert ds.entries[0].hard == 0
        assert ds.entries[1].hard == 2
        np.testing.assert_array_equal(ds.soft, [[0.6, 0.4, 0.0], [0.0, 0.0, 1.0]])
        assert ds.hard.tolist() == [0, 2]
        assert ds.class_count == 3

    def test_tied_votes_leave_hard_unset(self):
        ds = make_dataset([[5, 5, 0], [6, 4, 0], [1, 3, 2], [3, 3, 1]])
        assert ds.hard.tolist() == [-1, 0, 1, -1]
        assert [e.hard for e in ds.entries] == [None, 0, 1, None]
        with pytest.raises(AmbiguousLabelError, match="clip-000"):
            require_resolved(ds)

    def test_rejects_mixed_clip_shapes(self):
        a = make_clip("a", value=0.1)
        b = make_clip("b", value=0.2, shape=(3, 5, 5, 1))
        c = make_clip("c", value=0.3, shape=(3, 6, 6, 1))
        with pytest.raises(TensorShapeError, match="'b'"):
            build_dataset(
                [a, b, c],
                [VoteRecord(r) for r in unanimous_rows([0, 1, 2], class_count=3)],
                class_names=("a", "b", "c"),
            )

    def test_rejects_wrong_vote_arity(self):
        clips = [make_clip("a", value=0.1), make_clip("b", value=0.2), make_clip("c", value=0.3)]
        votes = [VoteRecord([1, 0, 0]), VoteRecord([1, 0]), VoteRecord([1])]
        with pytest.raises(InvalidInputError, match="'b'"):
            build_dataset(clips, votes, class_names=("x", "y", "z"))
        with pytest.raises(InvalidInputError, match="'a'"):
            LabeledDataset(np.zeros((2, 1, 1, 1, 1)), np.ones((2, 3)), ("a", "b"),
                           class_names=("x",))

    @pytest.mark.parametrize(
        "frame_value, vote_row, problem",
        [
            (np.nan, [1, 0], "non-finite"),
            (np.inf, [1, 0], "non-finite"),
            (1.5, [1, 0], r"\[0, 1\]"),
            (-0.1, [1, 0], r"\[0, 1\]"),
            (0.5, [2, -1], "nonnegative"),
            (0.5, [0, 0], "at least one vote"),
        ],
        ids=["nan", "inf", "above-one", "below-zero", "negative-vote", "no-votes"],
    )
    def test_vectorised_checks_name_the_first_bad_clip(self, frame_value, vote_row, problem):
        frames = np.full((5, 2, 3, 3, 1), 0.5, dtype=np.float32)
        votes = np.tile([3, 1], (5, 1))
        for bad in (2, 4):  # the error must name c2, the first of the two
            frames[bad, 1, 2, 0, 0] = frame_value
            votes[bad] = vote_row
        with pytest.raises(InvalidInputError, match=f"'c2'.*{problem}"):
            LabeledDataset(frames, votes, tuple(f"c{k}" for k in range(5)), class_names=("x", "y"))

    def test_rejects_disagreeing_lengths(self):
        with pytest.raises(InvalidInputError):
            LabeledDataset(np.zeros((2, 1, 1, 1, 1)), np.ones((3, 2)), ("a", "b"),
                           class_names=("x", "y"))
        with pytest.raises(InvalidInputError):
            LabeledDataset(np.zeros((2, 1, 1, 1, 1)), np.ones((2, 2)), ("a", "b"), ("s",),
                           class_names=("x", "y"))

    def test_subset_preserves_order(self):
        ds = make_dataset(unanimous_rows([0, 1, 2, 0], class_count=3))
        sub = ds.subset([2, 0])
        assert [e.clip.clip_id for e in sub.entries] == ["clip-002", "clip-000"]
        assert sub.ids == ("clip-002", "clip-000")
        np.testing.assert_array_equal(sub.frames, ds.frames[[2, 0]])
        assert not np.shares_memory(sub.frames, ds.frames)

    def test_hard_relabeled_collapses_votes(self):
        ds = make_dataset([[6, 4, 0], [1, 2, 7]])
        flat = hard_relabeled(ds)
        np.testing.assert_array_equal(flat.entries[0].votes.counts, [10, 0, 0])
        np.testing.assert_array_equal(flat.entries[0].soft, [1.0, 0.0, 0.0])
        assert flat.entries[1].hard == 2
        assert flat.entries[0].votes.total == ds.entries[0].votes.total
        assert flat.frames is ds.frames
        assert flat.ids == ds.ids

    def test_entries_are_views_built_on_first_access(self):
        ds = make_dataset([[6, 4, 0], [1, 2, 7]])
        assert "entries" not in ds.__dict__
        entries = ds.entries
        assert ds.entries is entries
        assert np.shares_memory(entries[1].clip.frames, ds.frames)
        assert np.shares_memory(entries[1].soft, ds.soft)

    def test_array_consumers_build_no_entries(self, tmp_path):
        ds = make_dataset(unanimous_rows([k % 3 for k in range(12)], class_count=3))
        pair = stratified_split(ds, ratio=0.5, seed=0)
        midas_batch(ds, batch_size=7, alpha=0.8, rng=np.random.default_rng(0))
        for mode in LABEL_MODES:
            train(pair.train, TrainConfig(epochs=2, label_mode=mode, hidden=(4,), target_hw=(2, 2)),
                  validation=pair.validation)
        save_manifest(ds, tmp_path / "data.json")
        for d in (ds, pair.train, pair.validation):
            assert "entries" not in d.__dict__


class TestClipBinary:
    def test_round_trip_is_exact(self, tmp_path, rng):
        frames = rng.random((4, 3, 5, 2), dtype=np.float32)
        path = tmp_path / "clip.mdsc"
        write_clip_file(frames, path)
        np.testing.assert_array_equal(read_clip_file(path, "x"), frames)

    def test_header_layout(self, tmp_path):
        frames = np.zeros((2, 3, 4, 1), dtype=np.float32)
        path = tmp_path / "clip.mdsc"
        write_clip_file(frames, path)
        raw = path.read_bytes()
        assert raw[:4] == CLIP_MAGIC
        assert np.frombuffer(raw[4:24], dtype="<u4").tolist() == [2, 3, 4, 1, 0]
        assert len(raw) == 24 + 2 * 3 * 4 * 4

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "clip.mdsc"
        write_clip_file(np.zeros((1, 1, 1, 1), dtype=np.float32), path)
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(MalformedRecordError, match="magic"):
            read_clip_file(path, "x")

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "clip.mdsc"
        write_clip_file(np.zeros((2, 2, 2, 1), dtype=np.float32), path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(MalformedRecordError, match="payload"):
            read_clip_file(path, "x")

    def test_nonzero_reserved_rejected(self, tmp_path):
        path = tmp_path / "clip.mdsc"
        write_clip_file(np.zeros((1, 1, 1, 1), dtype=np.float32), path)
        raw = bytearray(path.read_bytes())
        raw[20] = 1
        path.write_bytes(bytes(raw))
        with pytest.raises(MalformedRecordError, match="reserved"):
            read_clip_file(path, "x")


class TestManifest:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        ds = make_dataset(unanimous_rows([0, 1, 2, 1], class_count=3), seed=7)
        first = tmp_path / "a" / "data.json"
        second = tmp_path / "b" / "data.json"
        save_manifest(ds, first)
        save_manifest(load_manifest(first), second)
        assert first.read_bytes() == second.read_bytes()
        for k in range(len(ds)):
            assert (
                (first.parent / f"data_clips/{k:05d}.mdsc").read_bytes()
                == (second.parent / f"data_clips/{k:05d}.mdsc").read_bytes()
            )

    def test_labels_never_stored(self, tmp_path):
        ds = make_dataset([[6, 4, 0]])
        path = tmp_path / "data.json"
        save_manifest(ds, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"version", "class_names", "entries"}
        assert set(doc["entries"][0]) == {"clip_id", "clip_file", "votes"}

    def test_scenario_round_trips(self, tmp_path):
        clip = make_clip("a", value=0.3)
        ds = build_dataset(
            [clip], [VoteRecord(np.array([5, 1, 0]))],
            class_names=("a", "b", "c"), scenarios=["Daily Life"],
        )
        path = tmp_path / "data.json"
        save_manifest(ds, path)
        loaded = load_manifest(path)
        assert loaded.entries[0].scenario == "Daily Life"
        assert json.loads(path.read_text())["entries"][0]["scenario"] == "Daily Life"

    def test_load_derives_labels(self, tmp_path):
        ds = make_dataset([[0, 6, 4]])
        path = tmp_path / "data.json"
        save_manifest(ds, path)
        loaded = load_manifest(path)
        np.testing.assert_array_equal(loaded.entries[0].soft, [0.0, 0.6, 0.4])
        assert loaded.entries[0].hard == 1

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "absent.json")

    def test_missing_clip_file_names_the_clip(self, tmp_path):
        ds = make_dataset([[6, 4, 0]])
        path = tmp_path / "data.json"
        save_manifest(ds, path)
        (tmp_path / "data_clips" / "00000.mdsc").unlink()
        with pytest.raises(MissingClipFileError, match="clip-000"):
            load_manifest(path)

    def test_unparseable_json(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text("{not json")
        with pytest.raises(MalformedRecordError):
            load_manifest(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps({"version": 2, "class_names": [], "entries": []}))
        with pytest.raises(MalformedRecordError, match="version"):
            load_manifest(path)

    def test_wrong_vote_arity(self, tmp_path):
        ds = make_dataset([[6, 4, 0]])
        path = tmp_path / "data.json"
        save_manifest(ds, path)
        doc = json.loads(path.read_text())
        doc["entries"][0]["votes"] = [6, 4]
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedRecordError, match="votes"):
            load_manifest(path)

    def test_boolean_votes_rejected(self, tmp_path):
        ds = make_dataset([[6, 4, 0], [1, 0, 0]])
        path = tmp_path / "data.json"
        save_manifest(ds, path)
        doc = json.loads(path.read_text())
        doc["entries"][1]["votes"] = [True, False, False]
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedRecordError, match="clip-001"):
            load_manifest(path)

    @pytest.mark.parametrize("votes", [
        [10**30, 0, 0], [2**63, 0, 0], [2**62, 2**62, 0],
    ], ids=["huge", "one-past-int64", "sum-past-int64"])
    def test_votes_overflowing_int64_rejected(self, tmp_path, votes):
        ds = make_dataset([[6, 4, 0], [1, 0, 0]])
        path = tmp_path / "data.json"
        save_manifest(ds, path)
        doc = json.loads(path.read_text())
        doc["entries"][1]["votes"] = votes
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedRecordError, match="clip-001"):
            load_manifest(path)
        doc["entries"][1]["votes"] = [2**63 - 1, 0, 0]  # the largest total that fits
        path.write_text(json.dumps(doc))
        assert load_manifest(path).votes[1, 0] == 2**63 - 1

    def test_saving_fewer_entries_prunes_stale_clip_files(self, tmp_path):
        path = tmp_path / "data.json"
        save_manifest(make_dataset(unanimous_rows([k % 3 for k in range(42)])), path)
        small = make_dataset(unanimous_rows([k % 3 for k in range(7)]), seed=1)
        (tmp_path / "data_clips" / "notes.txt").write_text("kept")
        save_manifest(small, path)
        names = sorted(p.name for p in (tmp_path / "data_clips").iterdir())
        assert names == [f"{k:05d}.mdsc" for k in range(7)] + ["notes.txt"]
        loaded = load_manifest(path)
        assert loaded.ids == small.ids
        np.testing.assert_array_equal(loaded.frames, small.frames)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.json", "data_clips"]

    def test_failed_write_keeps_previous_manifest(self, tmp_path, monkeypatch):
        path = tmp_path / "data.json"
        save_manifest(make_dataset([[6, 4, 0]]), path)
        before = path.read_bytes()

        def half_then_fail(self, text, *args, **kwargs):
            with open(self, "w", encoding="utf-8") as fp:
                fp.write(text[: len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(type(path), "write_text", half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_manifest(make_dataset([[0, 4, 6], [1, 0, 0]]), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.json", "data_clips"]
        assert len(load_manifest(path)) == 1

    def test_stored_soft_label_cross_checked(self, tmp_path):
        ds = make_dataset([[6, 4, 0]])
        path = tmp_path / "data.json"
        save_manifest(ds, path)
        doc = json.loads(path.read_text())
        doc["entries"][0]["soft"] = [0.5, 0.5, 0.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(VoteLabelMismatchError, match="clip-000"):
            load_manifest(path)

    @pytest.mark.parametrize("stored", [
        ["a", "b", "c"], [0.6, [0.4], 0.0], {"a": 1}, [None, None, None], "0.6",
        [float("nan"), 0.4, 0.0], [float("inf"), 0.4, 0.0], [True, False, False],
        [0.6, 0.4], [0.6, 0.4, 0.0, 0.0], [10 ** 400, 0, 0],
    ], ids=["strings", "ragged", "object", "nulls", "string", "nan", "inf", "booleans",
            "short", "long", "huge-int"])
    def test_malformed_stored_soft_label_rejected(self, tmp_path, stored):
        ds = make_dataset([[6, 4, 0]])
        path = tmp_path / "data.json"
        save_manifest(ds, path)
        doc = json.loads(path.read_text())
        doc["entries"][0]["soft"] = stored
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedRecordError, match="clip-000"):
            load_manifest(path)

    def test_integer_stored_soft_label_compared_by_value(self, tmp_path):
        ds = make_dataset([[10, 0, 0]])
        path = tmp_path / "data.json"
        save_manifest(ds, path)
        doc = json.loads(path.read_text())
        doc["entries"][0]["soft"] = [1, 0, 0]
        path.write_text(json.dumps(doc))
        assert load_manifest(path).hard.tolist() == [0]
        doc["entries"][0]["soft"] = [0, 1, 0]
        path.write_text(json.dumps(doc))
        with pytest.raises(VoteLabelMismatchError, match="clip-000"):
            load_manifest(path)

    def test_stored_hard_label_cross_checked(self, tmp_path):
        ds = make_dataset([[6, 4, 0]])
        path = tmp_path / "data.json"
        save_manifest(ds, path)
        doc = json.loads(path.read_text())
        for stored in (1, False, 0.0):  # false and 0.0 must not pass as class 0
            doc["entries"][0]["hard"] = stored
            path.write_text(json.dumps(doc))
            with pytest.raises(VoteLabelMismatchError):
                load_manifest(path)

    def test_consistent_stored_labels_accepted(self, tmp_path):
        ds = make_dataset([[6, 4, 0]])
        path = tmp_path / "data.json"
        save_manifest(ds, path)
        doc = json.loads(path.read_text())
        doc["entries"][0]["soft"] = [0.6, 0.4, 0.0]
        doc["entries"][0]["hard"] = 0
        path.write_text(json.dumps(doc))
        assert load_manifest(path).entries[0].hard == 0

    def test_empty_dataset_round_trips(self, tmp_path):
        ds = build_dataset([], [], class_names=("a", "b", "c"))
        path = tmp_path / "data.json"
        save_manifest(ds, path)
        assert len(load_manifest(path)) == 0

    def test_tied_votes_survive_round_trip(self, tmp_path):
        ds = make_dataset([[5, 5, 0], [6, 4, 0]])
        path = tmp_path / "data.json"
        save_manifest(ds, path)
        loaded = load_manifest(path)
        assert loaded.entries[0].hard is None
        assert loaded.entries[1].hard == 0


class TestStratifiedSplit:
    def test_per_class_train_counts_are_rounded_ratio(self):
        ds = make_dataset(unanimous_rows([0] * 10 + [1] * 5 + [2] * 3, class_count=3))
        pair = stratified_split(ds, ratio=0.8, seed=0)
        by_class = lambda d: np.bincount(
            [e.hard for e in d.entries], minlength=3
        ).tolist()
        assert by_class(pair.train) == [8, 4, 2]
        assert by_class(pair.validation) == [2, 1, 1]

    def test_disjoint_and_exhaustive(self):
        ds = make_dataset(unanimous_rows([0, 1, 2] * 7, class_count=3))
        pair = stratified_split(ds, ratio=0.7, seed=3)
        train_ids = {e.clip.clip_id for e in pair.train.entries}
        val_ids = {e.clip.clip_id for e in pair.validation.entries}
        assert not train_ids & val_ids
        assert len(train_ids) + len(val_ids) == len(ds)

    def test_deterministic_under_seed(self):
        ds = make_dataset(unanimous_rows([0, 1] * 10, class_count=2))
        a = stratified_split(ds, ratio=0.8, seed=5)
        b = stratified_split(ds, ratio=0.8, seed=5)
        assert [e.clip.clip_id for e in a.train.entries] == [
            e.clip.clip_id for e in b.train.entries
        ]

    def test_different_seeds_differ(self):
        ds = make_dataset(unanimous_rows([0] * 30, class_count=2))
        a = stratified_split(ds, ratio=0.5, seed=0)
        b = stratified_split(ds, ratio=0.5, seed=1)
        assert [e.clip.clip_id for e in a.train.entries] != [
            e.clip.clip_id for e in b.train.entries
        ]

    def test_keeps_dataset_order_inside_each_side(self):
        ds = make_dataset(unanimous_rows([0, 1] * 8, class_count=2))
        pair = stratified_split(ds, ratio=0.5, seed=2)
        for side in (pair.train, pair.validation):
            ids = [int(e.clip.clip_id.split("-")[1]) for e in side.entries]
            assert ids == sorted(ids)

    def test_rejects_bad_ratio(self):
        ds = make_dataset(unanimous_rows([0, 1], class_count=2))
        for ratio in (0.0, 1.0, -0.1, 1.5, math.nan, "0.5", None):
            with pytest.raises(InvalidInputError, match="ratio"):
                stratified_split(ds, ratio=ratio, seed=0)

    def test_rejects_empty_dataset(self):
        ds = build_dataset([], [], class_names=("a", "b"))
        with pytest.raises(EmptyDatasetError):
            stratified_split(ds, ratio=0.5, seed=0)

    def test_rejects_unresolved_ties(self):
        ds = make_dataset([[5, 5, 0], [6, 4, 0]])
        with pytest.raises(AmbiguousLabelError):
            stratified_split(ds, ratio=0.5, seed=0)

    def test_seed_must_be_a_nonnegative_integer(self):
        ds = make_dataset(unanimous_rows([0, 1] * 4, class_count=2))
        for seed in (-1, 1.5, True, "3", None):
            with pytest.raises(InvalidInputError, match="seed"):
                stratified_split(ds, ratio=0.5, seed=seed)
        a = stratified_split(ds, ratio=0.5, seed=np.int64(4))
        assert a.train.ids == stratified_split(ds, ratio=0.5, seed=4).train.ids

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_split_sizes_stable_across_seeds(self, seed):
        ds = make_dataset(unanimous_rows([0] * 7 + [1] * 9, class_count=2))
        pair = stratified_split(ds, ratio=0.8, seed=seed)
        # round(0.8*7) = 6, round(0.8*9) = 7
        assert len(pair.train) == 13
        assert len(pair.validation) == 3


class TestPartitionByAmbiguity:
    def _dataset(self):
        # 4 clearly voted clips (max 0.9) and 4 ambiguous ones (max 0.6)
        rows = [[9, 1, 0], [9, 1, 0], [0, 9, 1], [1, 9, 0],
                [6, 4, 0], [6, 4, 0], [0, 6, 4], [4, 6, 0]]
        return make_dataset(rows)

    def test_clear_group_is_strictly_above_threshold(self):
        clear, _ = partition_by_ambiguity(self._dataset(), 0.8, balance=False, seed=0)
        assert all(e.soft.max() > 0.8 for e in clear.entries)
        assert len(clear) == 4

    def test_threshold_is_strict(self):
        # every max soft value is exactly 0.9 or below, so nothing clears 0.9
        with pytest.raises(EmptyClearGroupError):
            partition_by_ambiguity(self._dataset(), 0.9, balance=False, seed=0)

    def test_mixed_group_sampled_from_everything(self):
        ds = self._dataset()
        _, mixed = partition_by_ambiguity(ds, 0.8, balance=False, seed=0)
        assert len(mixed) == 4
        ids = {e.clip.clip_id for e in ds.entries}
        assert all(e.clip.clip_id in ids for e in mixed.entries)

    def test_mixed_group_has_no_duplicates_without_balance(self):
        _, mixed = partition_by_ambiguity(self._dataset(), 0.8, balance=False, seed=0)
        ids = [e.clip.clip_id for e in mixed.entries]
        assert len(ids) == len(set(ids))

    def test_balance_matches_input_class_distribution(self):
        ds = self._dataset()  # class counts: 4 of class 0, 4 of class 1
        clear, mixed = partition_by_ambiguity(ds, 0.8, balance=True, seed=0)
        for group in (clear, mixed):
            counts = np.bincount([e.hard for e in group.entries], minlength=3)
            assert counts.tolist() == [2, 2, 0]

    def test_oversampling_duplicates_when_needed(self):
        rows = [[9, 1, 0]] + [[1, 9, 0]] * 5 + [[5, 4, 1]] * 2
        ds = make_dataset(rows)
        clear, _ = partition_by_ambiguity(ds, 0.8, balance=True, seed=0)
        counts = np.bincount([e.hard for e in clear.entries], minlength=3)
        # six clear clips; targets follow the 3/5 (2 ambiguous class-0) split of the input
        assert counts.tolist() == [2, 4, 0]
        assert clear.ids.count(ds.ids[0]) == 2  # the single clear class-0 clip was duplicated

    def test_missing_class_in_group_raises(self):
        rows = [[9, 1, 0], [9, 1, 0], [4, 6, 0], [4, 6, 0]]
        ds = make_dataset(rows)
        # class 1 has no clearly voted sample, so balancing cannot succeed
        with pytest.raises(EmptyClearGroupError):
            partition_by_ambiguity(ds, 0.8, balance=True, seed=0)

    def test_empty_clear_group_raises(self):
        ds = make_dataset([[6, 4, 0], [5, 4, 1]])
        with pytest.raises(EmptyClearGroupError):
            partition_by_ambiguity(ds, 0.9, balance=False, seed=0)

    def test_threshold_zero_includes_everything(self):
        ds = self._dataset()
        clear, mixed = partition_by_ambiguity(ds, 0.0, balance=False, seed=0)
        assert len(clear) == len(ds)
        assert len(mixed) == len(ds)
        assert [e.clip.clip_id for e in clear.entries] == [
            e.clip.clip_id for e in mixed.entries
        ]

    def test_rejects_bad_threshold(self):
        for threshold in (1.1, -0.1, math.nan, "0.5"):
            with pytest.raises(InvalidInputError, match="threshold"):
                partition_by_ambiguity(self._dataset(), threshold, balance=False, seed=0)

    def test_seed_must_be_a_nonnegative_integer(self):
        for seed in (-1, 2.0, False, None):
            with pytest.raises(InvalidInputError, match="seed"):
                partition_by_ambiguity(self._dataset(), 0.8, balance=True, seed=seed)

    def test_deterministic_under_seed(self):
        ds = self._dataset()
        a = partition_by_ambiguity(ds, 0.8, balance=True, seed=9)
        b = partition_by_ambiguity(ds, 0.8, balance=True, seed=9)
        assert [e.clip.clip_id for e in a[1].entries] == [
            e.clip.clip_id for e in b[1].entries
        ]


class TestMaxVoteHistogram:
    def test_hand_counted(self):
        ds = make_dataset([[6, 4, 0], [5, 5, 0], [10, 0, 0], [0, 6, 4]])
        hist = max_vote_histogram(ds)
        assert hist.tolist() == [0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 1]

    def test_sums_to_dataset_size(self):
        ds = make_dataset(unanimous_rows([0, 1, 2, 0, 1], class_count=3, total=7))
        assert max_vote_histogram(ds).sum() == len(ds)

    def test_empty_dataset(self):
        ds = build_dataset([], [], class_names=("a", "b", "c"))
        assert max_vote_histogram(ds).tolist() == [0]
