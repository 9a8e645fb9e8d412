"""Featurizer, forward pass, gradients, training loop, and checkpoint I/O."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from midas import mixer
from midas.dataset import Clip, build_dataset, hard_relabeled
from midas.errors import (
    AmbiguousLabelError,
    EmptyDatasetError,
    InvalidInputError,
    MalformedRecordError,
    ShapeMismatchError,
    TrainingDivergedError,
)
from midas.labels import VoteRecord
from midas.mixer import draw_pairs, midas_batch, mix_clips
from midas.model import (
    LABEL_MODES,
    Classifier,
    TrainConfig,
    evaluate,
    featurize,
    featurize_dataset,
    featurize_frames,
    forward,
    forward_batch,
    gradient,
    init_classifier,
    load_checkpoint,
    save_checkpoint,
    soft_cross_entropy,
    train,
    _mixed_features,
)

from conftest import make_clip, make_dataset, unanimous_rows


class TestFeaturize:
    def test_constant_clip_gives_constant_features(self):
        clip = make_clip("c", value=0.3, shape=(5, 8, 8, 1))
        vec = featurize(clip, (4, 4))
        assert len(vec) == 16
        np.testing.assert_allclose(vec, np.float64(np.float32(0.3)), atol=1e-12)

    def test_single_pixel_clip_is_temporal_mean(self):
        frames = np.array([0.2, 0.6], dtype=np.float32).reshape(2, 1, 1, 1)
        clip = Clip(clip_id="px", frames=frames)
        vec = featurize(clip, (1, 1))
        expected = frames.astype(np.float64).mean()
        assert vec[0] == pytest.approx(expected, abs=1e-15)

    def test_linear_in_the_clip(self, rng):
        a = make_clip("a", shape=(4, 10, 6, 2), rng=rng)
        b = make_clip("b", shape=(4, 10, 6, 2), rng=rng)
        lam = 0.37
        mixed = mix_clips(a, b, lam)
        direct = featurize(mixed, (3, 3))
        combined = lam * featurize(a, (3, 3)) + (1 - lam) * featurize(b, (3, 3))
        # the mixed clip is stored in float32, so allow rounding at that scale
        np.testing.assert_allclose(direct, combined, atol=1e-6)

    def test_uneven_blocks_match_loop_reference(self, rng):
        clip = make_clip("u", shape=(3, 5, 7, 2), rng=rng)
        got = featurize(clip, (2, 3))
        mean = clip.frames.astype(np.float64).mean(axis=0)
        row_edges = [0, 2, 5]
        col_edges = [0, 2, 4, 7]
        expected = []
        for r in range(2):
            for c in range(3):
                block = mean[row_edges[r]:row_edges[r + 1], col_edges[c]:col_edges[c + 1]]
                for ch in range(2):
                    expected.append(block[:, :, ch].mean())
        np.testing.assert_allclose(got, np.array(expected), atol=1e-12)

    def test_channel_last_flatten_order(self):
        frames = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2) / 10.0
        clip = Clip(clip_id="o", frames=frames)
        vec = featurize(clip, (2, 2))
        # identity pooling: component (r*W + c)*Ch + ch reads pixel (r, c, ch)
        np.testing.assert_allclose(vec, frames.reshape(-1).astype(np.float64), atol=1e-12)

    def test_rejects_degenerate_targets(self):
        clip = make_clip("d", value=0.5, shape=(2, 4, 4, 1))
        with pytest.raises(InvalidInputError):
            featurize(clip, (0, 4))
        with pytest.raises(InvalidInputError):
            featurize(clip, (5, 4))
        with pytest.raises(InvalidInputError):
            featurize(clip, (4, 9))

    def test_batched_matches_per_clip(self, rng):
        clips = [make_clip(f"c{k}", shape=(3, 6, 6, 1), rng=rng) for k in range(4)]
        stacked = featurize_frames(np.stack([c.frames for c in clips]), (4, 4))
        for k, clip in enumerate(clips):
            np.testing.assert_array_equal(stacked[k], featurize(clip, (4, 4)))

    @pytest.mark.parametrize("shape", [
        (1, 1, 1, 1, 1), (3, 1, 5, 7, 2), (2, 300, 3, 3, 1), (5, 7, 13, 11, 3),
        (2, 9, 1, 1, 5), (4, 8, 32, 32, 3),
    ])
    def test_temporal_mean_is_bit_identical_to_float64_copy(self, rng, shape):
        # at full resolution each block is one pixel, so the features are the temporal mean
        frames = rng.random(shape, dtype=np.float32)
        got = featurize_frames(frames, shape[2:4])
        expected = frames.astype(np.float64).mean(axis=1).reshape(shape[0], -1)
        assert got.tobytes() == expected.tobytes()

    def test_peak_memory_stays_below_the_frames(self, rng):
        frames = rng.random((40, 8, 32, 32, 3), dtype=np.float32)
        tracemalloc.start()
        try:
            featurize_frames(frames, (8, 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < frames.nbytes

    def test_featurize_dataset_empty_rejected(self):
        ds = build_dataset([], [], class_names=("a", "b"))
        with pytest.raises(EmptyDatasetError):
            featurize_dataset(ds, (2, 2))


class TestForward:
    def test_zero_parameters_give_uniform_posterior(self):
        model = Classifier(
            weights=[np.zeros((5, 4)), np.zeros((4, 3))],
            biases=[np.zeros(4), np.zeros(3)],
        )
        probs = forward(model, np.array([0.3, 0.1, 0.9, 0.5, 0.2]))
        np.testing.assert_allclose(probs, np.full(3, 1 / 3), atol=1e-15)

    def test_rows_are_probability_vectors(self, rng):
        model = init_classifier(8, 7, (6,), rng)
        x = rng.normal(size=(1000, 8))
        probs = forward_batch(model, x)
        assert np.all(probs > 0.0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_single_layer_matches_softmax_of_bias(self):
        bias = np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
        model = Classifier(weights=[np.zeros((3, 7))], biases=[bias])
        probs = forward(model, np.zeros(3))
        exps = [math.exp(v) for v in bias]
        expected = np.array([e / sum(exps) for e in exps])
        np.testing.assert_allclose(probs, expected, atol=1e-12)
        np.testing.assert_allclose(
            probs, [0.19871, 0.19871, 0.12052, 0.12052, 0.12052, 0.12052, 0.12052],
            atol=1e-5,
        )

    def test_forward_agrees_with_batch(self, rng):
        model = init_classifier(4, 3, (5,), rng)
        x = rng.normal(size=4)
        np.testing.assert_array_equal(forward(model, x), forward_batch(model, x[None, :])[0])

    def test_rejects_wrong_width(self, rng):
        model = init_classifier(4, 3, (), rng)
        with pytest.raises(ShapeMismatchError):
            forward_batch(model, np.zeros((2, 5)))
        with pytest.raises(ShapeMismatchError):
            forward(model, np.zeros((2, 4)))


class TestSoftCrossEntropy:
    def test_zero_at_matching_one_hot(self):
        v = np.array([0.0, 1.0, 0.0])
        assert soft_cross_entropy(v, v) == 0.0

    def test_uniform_prediction_scores_log_class_count(self):
        pred = np.full(7, 1 / 7)
        target = np.zeros(7)
        target[3] = 1.0
        assert soft_cross_entropy(pred, target) == pytest.approx(math.log(7), abs=1e-12)

    def test_cross_entropy_dominates_entropy(self, rng):
        # CE(p, t) - CE(t, t) is the KL divergence, which is nonnegative
        for _ in range(1000):
            p = rng.dirichlet(np.ones(5))
            t = rng.dirichlet(np.ones(5))
            assert soft_cross_entropy(p, t) >= soft_cross_entropy(t, t) - 1e-12

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            soft_cross_entropy(np.ones(3) / 3, np.ones(4) / 4)

    def test_rows_match_single_pairs_exactly(self, rng):
        pred = rng.dirichlet(np.ones(7), size=50)
        target = rng.dirichlet(np.ones(7), size=50)
        rows = soft_cross_entropy(pred, target)
        assert rows.shape == (50,)
        singles = [soft_cross_entropy(p, t) for p, t in zip(pred, target)]
        assert all(type(v) is float for v in singles)
        assert rows.tolist() == singles

    def test_rejects_scalars_and_stacks(self):
        for shape in ((), (2, 3, 4)):
            with pytest.raises(ShapeMismatchError):
                soft_cross_entropy(np.ones(shape), np.ones(shape))


class TestGradient:
    def test_zero_at_stationary_point(self):
        model = Classifier(weights=[np.zeros((4, 3))], biases=[np.zeros(3)])
        x = np.array([[0.1, 0.2, 0.3, 0.4], [0.5, 0.5, 0.0, 1.0]])
        t = np.full((2, 3), 1 / 3)
        w_grads, b_grads, loss = gradient(model, x, t)
        np.testing.assert_allclose(w_grads[0], 0.0, atol=1e-15)
        np.testing.assert_allclose(b_grads[0], 0.0, atol=1e-15)
        assert loss == pytest.approx(math.log(3), abs=1e-12)

    def test_matches_central_finite_differences(self, rng):
        model = init_classifier(4, 3, (3,), rng)
        x = rng.random((5, 4))
        t = rng.dirichlet(np.ones(3), size=5)
        w_grads, b_grads, _ = gradient(model, x, t)

        def loss_at(m):
            return gradient(m, x, t)[2]

        h = 1e-5
        for k in range(len(model.weights)):
            for arr, grads in ((model.weights, w_grads), (model.biases, b_grads)):
                it = np.nditer(arr[k], flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    probe = model.copy()
                    target_arr = probe.weights[k] if arr is model.weights else probe.biases[k]
                    target_arr[idx] += h
                    up = loss_at(probe)
                    target_arr[idx] -= 2 * h
                    down = loss_at(probe)
                    numeric = (up - down) / (2 * h)
                    analytic = grads[k][idx]
                    assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_batch_gradient_is_mean_of_singletons(self, rng):
        model = init_classifier(3, 4, (2,), rng)
        x = rng.random((6, 3))
        t = rng.dirichlet(np.ones(4), size=6)
        w_full, b_full, _ = gradient(model, x, t)
        w_acc = [np.zeros_like(w) for w in w_full]
        b_acc = [np.zeros_like(b) for b in b_full]
        for i in range(6):
            w_i, b_i, _ = gradient(model, x[i:i + 1], t[i:i + 1])
            for k in range(len(w_acc)):
                w_acc[k] += w_i[k] / 6
                b_acc[k] += b_i[k] / 6
        for k in range(len(w_full)):
            np.testing.assert_allclose(w_full[k], w_acc[k], atol=1e-12)
            np.testing.assert_allclose(b_full[k], b_acc[k], atol=1e-12)

    def test_rejects_mismatched_targets(self, rng):
        model = init_classifier(3, 4, (), rng)
        with pytest.raises(ShapeMismatchError):
            gradient(model, np.zeros((2, 3)), np.zeros((2, 5)))
        with pytest.raises(InvalidInputError):
            gradient(model, np.zeros((0, 3)), np.zeros((0, 4)))


def _separable_dataset():
    """Two classes whose clips are constant 0.1 vs 0.9."""
    clips = []
    votes = []
    for k in range(6):
        value = 0.1 if k % 2 == 0 else 0.9
        clips.append(make_clip(f"s{k}", value=value))
        row = np.zeros(2, dtype=np.int64)
        row[k % 2] = 10
        votes.append(VoteRecord(row))
    return build_dataset(clips, votes, class_names=("low", "high"))


class TestTrain:
    def test_zero_learning_rate_freezes_everything(self):
        ds = make_dataset(unanimous_rows([0, 1, 2, 0, 1, 2], class_count=3))
        cfg = TrainConfig(epochs=5, learning_rate=0.0, label_mode="soft", seed=7)
        model, history = train(ds, cfg)
        np.testing.assert_allclose(history.loss, history.loss[0], atol=1e-12)
        assert history.best_epoch == 0
        fresh = init_classifier(16, 3, cfg.hidden, np.random.default_rng(cfg.seed))
        for got, want in zip(model.weights, fresh.weights):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(model.biases, fresh.biases):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("mode", ["hard", "soft", "midas", "midas_hard"])
    def test_deterministic_per_mode(self, mode):
        ds = make_dataset(unanimous_rows([0, 1, 0, 1, 0, 1], class_count=2))
        cfg = TrainConfig(epochs=4, batch_size=3, label_mode=mode, seed=3)
        m1, h1 = train(ds, cfg)
        m2, h2 = train(ds, cfg)
        for a, b in zip(m1.weights, m2.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(m1.biases, m2.biases):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(h1.loss, h2.loss)
        np.testing.assert_array_equal(h1.val_uar, h2.val_uar)
        assert h1.best_epoch == h2.best_epoch

    def test_learns_a_separable_problem(self):
        ds = _separable_dataset()
        cfg = TrainConfig(epochs=200, learning_rate=0.5, label_mode="hard", seed=0)
        model, history = train(ds, cfg)
        assert history.val_uar[history.best_epoch] == 1.0
        assert evaluate(model, ds, cfg.target_hw) == (1.0, 1.0)

    def test_best_epoch_is_earliest_argmax(self):
        ds = _separable_dataset()
        cfg = TrainConfig(epochs=30, learning_rate=0.2, label_mode="soft", seed=1)
        model, history = train(ds, cfg)
        assert history.best_epoch == int(np.argmax(history.val_uar))
        got = evaluate(model, ds, cfg.target_hw)
        assert got[0] == history.val_uar[history.best_epoch]
        assert got[1] == history.val_war[history.best_epoch]

    def test_explicit_validation_set_drives_selection(self):
        ds = _separable_dataset()
        val = ds.subset([0, 1])
        cfg = TrainConfig(epochs=10, learning_rate=0.3, label_mode="hard", seed=2)
        model, history = train(ds, cfg, validation=val)
        assert evaluate(model, val, cfg.target_hw)[0] == history.val_uar[history.best_epoch]

    def test_divergence_is_reported(self):
        ds = _separable_dataset()
        cfg = TrainConfig(epochs=5, learning_rate=1e308, label_mode="soft", seed=0)
        # the overflow on the way to the guard emits numpy warnings; silence them
        with pytest.raises(TrainingDivergedError), np.errstate(all="ignore"):
            train(ds, cfg)

    def test_rejects_empty_and_unresolved(self):
        empty = build_dataset([], [], class_names=("a", "b"))
        with pytest.raises(EmptyDatasetError):
            train(empty, TrainConfig(epochs=1))
        tied = make_dataset([[5, 5, 0], [10, 0, 0]])
        with pytest.raises(AmbiguousLabelError):
            train(tied, TrainConfig(epochs=1, label_mode="hard"))

    def test_mixing_needs_two_clips(self):
        ds = make_dataset([[10, 0]])
        with pytest.raises(EmptyDatasetError):
            train(ds, TrainConfig(epochs=1, label_mode="midas"))

    def test_history_shapes(self):
        ds = _separable_dataset()
        cfg = TrainConfig(epochs=3, label_mode="midas_hard", seed=5)
        _, history = train(ds, cfg)
        assert history.loss.shape == (3,)
        assert history.val_uar.shape == (3,)
        assert history.val_war.shape == (3,)
        assert 0 <= history.best_epoch < 3


def _varied_votes(n, class_count=3, seed=1):
    """Vote rows with unique maxima that are not unanimous, so soft != one-hot."""
    rng = np.random.default_rng(seed)
    rows = rng.multinomial(10, np.full(class_count, 1 / class_count), size=n)
    rows[np.arange(n), np.arange(n) % class_count] += 11
    return rows


class TestFeaturizeEachSplitOnce:
    """``train`` featurizes each split once and streams mixed epochs through the featurizer."""

    CHUNK = 4  # rows per blend chunk, set through mixer._CHUNK_BYTES
    N = 7
    SHAPES = [(3, 6, 5, 1), (2, 6, 6, 3)]

    def _small_chunks(self, monkeypatch, shape):
        monkeypatch.setattr(mixer, "_CHUNK_BYTES", self.CHUNK * math.prod(shape) * 8)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("batch_size", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * N + N // 3])
    def test_streamed_features_equal_the_featurized_batch(self, monkeypatch, shape, batch_size):
        self._small_chunks(monkeypatch, shape)
        ds = make_dataset(_varied_votes(self.N), shape=shape, seed=4)
        batch = midas_batch(ds, batch_size, 0.8, np.random.default_rng(9))
        left, right, lams = draw_pairs(ds, batch_size, 0.8, np.random.default_rng(9))
        for got, want in ((left, batch.left), (right, batch.right), (lams, batch.lams)):
            assert got.tobytes() == want.tobytes()
        got = _mixed_features(ds.frames, left, right, lams, (2, 3))
        assert got.tobytes() == featurize_frames(batch.clips, (2, 3)).tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("mode", ["midas", "midas_hard"])
    def test_mixed_epochs_train_on_the_features_of_midas_batch(self, monkeypatch, shape, mode):
        self._small_chunks(monkeypatch, shape)
        ds = make_dataset(_varied_votes(2 * self.CHUNK + 1), shape=shape, seed=5)
        cfg = TrainConfig(epochs=3, batch_size=4, label_mode=mode, seed=6, hidden=(5,),
                          target_hw=(2, 2))
        seen = []
        real_gradient = gradient

        def recording(model, xb, tb):
            seen.append((xb.copy(), tb.copy()))
            return real_gradient(model, xb, tb)

        monkeypatch.setattr("midas.model.gradient", recording)
        train(ds, cfg)
        # Replay the run's generator: the initial weights, then one midas_batch per epoch.
        rng = np.random.default_rng(cfg.seed)
        init_classifier(featurize_dataset(ds, cfg.target_hw).shape[1], 3, cfg.hidden, rng)
        source = hard_relabeled(ds) if mode == "midas_hard" else ds
        steps = -(-len(ds) // cfg.batch_size)
        for epoch in range(cfg.epochs):
            batch = midas_batch(source, len(ds), cfg.alpha, rng, normalize=cfg.normalize)
            epoch_steps = seen[epoch * steps:(epoch + 1) * steps]
            x, t = (np.concatenate(parts) for parts in zip(*epoch_steps))
            assert x.tobytes() == featurize_frames(batch.clips, cfg.target_hw).tobytes()
            assert t.tobytes() == batch.labels.tobytes()
        assert len(seen) == cfg.epochs * steps

    @pytest.mark.parametrize("mode", LABEL_MODES)
    def test_validation_rows_are_featurized_once(self, monkeypatch, mode):
        ds = make_dataset(_varied_votes(9), seed=2)
        val = make_dataset(_varied_votes(4, seed=3), seed=3)
        calls = []
        real_featurize = featurize_frames

        def counting(frames, target_hw):
            calls.append(frames is val.frames)
            return real_featurize(frames, target_hw)

        monkeypatch.setattr("midas.model.featurize_frames", counting)
        cfg = TrainConfig(epochs=5, label_mode=mode, hidden=(4,), target_hw=(2, 2))
        train(ds, cfg, validation=val)
        assert calls.count(True) == 1

    @pytest.mark.parametrize("mode", LABEL_MODES)
    def test_no_validation_set_scores_the_training_set(self, mode):
        ds = make_dataset(_varied_votes(9), seed=2)
        cfg = TrainConfig(epochs=4, label_mode=mode, seed=1, hidden=(4,), target_hw=(2, 2))
        m1, h1 = train(ds, cfg)
        m2, h2 = train(ds, cfg, validation=ds.subset(np.arange(len(ds))))
        for a, b in zip(m1.weights + m1.biases + [h1.loss, h1.val_uar, h1.val_war],
                        m2.weights + m2.biases + [h2.loss, h2.val_uar, h2.val_war]):
            assert a.tobytes() == b.tobytes()
        assert h1.best_epoch == h2.best_epoch

    def test_mixed_training_holds_no_mixed_batch(self):
        ds = make_dataset(unanimous_rows([k % 4 for k in range(200)]), shape=(8, 32, 32, 3))
        cfg = TrainConfig(epochs=2, label_mode="midas", hidden=(8,), target_hw=(4, 4))
        tracemalloc.start()
        try:
            train(ds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ds.frames.nbytes / 2


class TestConfig:
    def test_hash_is_stable_and_sensitive(self):
        a = TrainConfig(seed=1)
        b = TrainConfig(seed=1)
        c = TrainConfig(seed=2)
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()
        assert len(a.hash()) == 64

    def test_hash_of_python_numbers_is_pinned(self):
        assert TrainConfig().hash() == (
            "32f22dc559d42189ee49c8be70508418948f5308106cf993fed6c2b0b452db80")
        assert TrainConfig(learning_rate=1, alpha=0.5).hash() == (
            "98ba34ef2c7f21b2018851b12fe89d1e37f3acd80c8f0052b7a473871e476363")

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            TrainConfig(epochs=0)
        with pytest.raises(InvalidInputError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(InvalidInputError):
            TrainConfig(alpha=0.0)
        with pytest.raises(InvalidInputError):
            TrainConfig(label_mode="nope")
        with pytest.raises(InvalidInputError):
            TrainConfig(hidden=(0,))
        with pytest.raises(InvalidInputError):
            TrainConfig(target_hw=(4,))

    def test_rejects_booleans_as_counts(self):
        for field in ({"epochs": True}, {"batch_size": True}, {"hidden": (8, True)},
                      {"target_hw": (True, 2)}, {"epochs": 2.0}):
            with pytest.raises(InvalidInputError):
                TrainConfig(**field)

    def test_rejects_non_bool_normalize(self):
        for value in ("off", "on", 0, 1, None):
            with pytest.raises(InvalidInputError, match="normalize"):
                TrainConfig(normalize=value)
        assert TrainConfig(normalize=False).normalize is False

    def test_seed_must_be_a_nonnegative_int(self):
        for value in (1.5, True, -1, "3", None):
            with pytest.raises(InvalidInputError, match="seed"):
                TrainConfig(seed=value)
        assert TrainConfig(seed=0).seed == 0

    @pytest.mark.parametrize("name", ["learning_rate", "alpha"])
    def test_float_fields_must_be_finite_real_numbers(self, name):
        for value in ("0.1", None, True, np.bool_(True), [0.1], math.nan, math.inf, 10**400):
            with pytest.raises(InvalidInputError, match=name):
                TrainConfig(**{name: value})
        for value in (1, 0.25, np.float32(0.5), np.float32(0.1), np.float64(0.1), np.int64(2)):
            config = TrainConfig(**{name: value})
            assert getattr(config, name) == value
            plain = value.item() if isinstance(value, np.generic) else value
            assert config.hash() == TrainConfig(**{name: plain}).hash()  # numpy reals hash too


class TestCheckpoint:
    def _model(self, rng):
        return init_classifier(6, 3, (4,), rng)

    def test_round_trip_is_float32_exact(self, rng, tmp_path):
        model = self._model(rng)
        cfg = TrainConfig(seed=9, target_hw=(2, 3))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, cfg)
        loaded, meta = load_checkpoint(path)
        assert meta["config_hash"] == cfg.hash()
        assert meta["target_hw"] == (2, 3)
        assert loaded.layer_sizes == model.layer_sizes
        for got, want in zip(loaded.weights, model.weights):
            np.testing.assert_array_equal(got, want.astype(np.float32).astype(np.float64))
        for got, want in zip(loaded.biases, model.biases):
            np.testing.assert_array_equal(got, want.astype(np.float32).astype(np.float64))

    def test_save_load_save_is_byte_identical(self, rng, tmp_path):
        model = self._model(rng)
        cfg = TrainConfig(seed=4)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(model, first, cfg)
        loaded, _ = load_checkpoint(first)
        save_checkpoint(loaded, second, cfg)
        assert first.read_bytes() == second.read_bytes()

    def test_header_without_config_loads_with_defaults(self, rng, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(self._model(rng), path, TrainConfig(target_hw=(2, 3)))
        header, blob = path.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        del doc["config_hash"], doc["target_hw"]
        path.write_bytes(json.dumps(doc).encode() + b"\n" + blob)
        loaded, meta = load_checkpoint(path)
        assert meta == {"config_hash": "", "target_hw": (4, 4)}
        assert loaded.layer_sizes == (6, 4, 3)

    def test_rejects_garbage_header(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"\xff\xfe not json\n" + b"\x00" * 16)
        with pytest.raises(MalformedRecordError):
            load_checkpoint(path)

    def test_rejects_wrong_format_tag(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(json.dumps({"format": "ELSE"}).encode() + b"\n")
        with pytest.raises(MalformedRecordError):
            load_checkpoint(path)

    def test_rejects_invalid_layer_sizes(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        header = {"format": "MDSW", "layer_sizes": [4], "activation": "tanh"}
        path.write_bytes(json.dumps(header).encode() + b"\n")
        with pytest.raises(MalformedRecordError):
            load_checkpoint(path)

    def test_rejects_truncated_parameters(self, rng, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(self._model(rng), path, TrainConfig())
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(MalformedRecordError):
            load_checkpoint(path)
        path.write_bytes(blob + b"\x00\x00\x00\x00")
        with pytest.raises(MalformedRecordError):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("target_hw", "ab"), ("target_hw", [4]), ("target_hw", [4, 4, 4]),
        ("target_hw", [0, 4]), ("target_hw", [4, 2.0]), ("target_hw", [True, 4]),
        ("layer_sizes", [6, True, 3]), ("layer_sizes", "ab"), ("layer_sizes", None),
        ("activation", "relu"),
    ])
    def test_rejects_invalid_header_sizes(self, rng, tmp_path, key, value):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_classifier(6, 3, (1,), rng), path, TrainConfig())
        header, blob = path.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc[key] = value
        path.write_bytes(json.dumps(doc).encode() + b"\n" + blob)
        with pytest.raises(MalformedRecordError):
            load_checkpoint(path)
