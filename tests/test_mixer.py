"""Clip/label mixing and batch pairing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midas.errors import (
    AmbiguousLabelError,
    EmptyDatasetError,
    InvalidInputError,
    ShapeMismatchError,
)
from midas.dataset import Clip
from midas.labels import one_hot
from midas.mixer import (
    DEFAULT_ALPHA,
    MixCoefficient,
    midas_batch,
    mix_clips,
    mix_labels,
    sample_lambda,
)
from midas.model import TrainConfig, train

from conftest import make_clip, make_dataset, soft_labels, unanimous_rows

_lam = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestSampleLambda:
    def test_within_unit_interval(self, rng):
        for _ in range(100):
            coeff = sample_lambda(DEFAULT_ALPHA, rng)
            assert 0.0 <= coeff.lam <= 1.0

    def test_deterministic_under_seed(self):
        a = [sample_lambda(0.8, np.random.default_rng(5)).lam for _ in range(1)]
        b = [sample_lambda(0.8, np.random.default_rng(5)).lam for _ in range(1)]
        assert a == b

    def test_moments_match_closed_form(self):
        # Beta(a, a): mean 1/2, variance 1/(4(2a+1))
        rng = np.random.default_rng(0)
        draws = np.array([sample_lambda(0.8, rng).lam for _ in range(100_000)])
        assert draws.mean() == pytest.approx(0.5, abs=0.01)
        assert draws.var() == pytest.approx(1.0 / (4.0 * (2.0 * 0.8 + 1.0)), abs=0.005)

    def test_rejects_bad_alpha(self, rng):
        for alpha in (0.0, -1.0, math.nan, "0.8", True):
            with pytest.raises(InvalidInputError, match="alpha"):
                sample_lambda(alpha, rng)

    def test_coefficient_validates(self):
        with pytest.raises(InvalidInputError):
            MixCoefficient(lam=1.5)


class TestMixClips:
    def test_lambda_one_reproduces_left_bit_for_bit(self, rng):
        a = make_clip("a", rng=rng)
        b = make_clip("b", rng=rng)
        np.testing.assert_array_equal(mix_clips(a, b, 1.0).frames, a.frames)

    def test_lambda_zero_reproduces_right_bit_for_bit(self, rng):
        a = make_clip("a", rng=rng)
        b = make_clip("b", rng=rng)
        np.testing.assert_array_equal(mix_clips(a, b, 0.0).frames, b.frames)

    def test_hand_checked_combination(self):
        a = make_clip("a", value=0.8)
        b = make_clip("b", value=0.4)
        mixed = mix_clips(a, b, 0.25)
        np.testing.assert_allclose(mixed.frames, 0.25 * 0.8 + 0.75 * 0.4, atol=1e-7)

    @given(_lam)
    @settings(max_examples=25, deadline=None)
    def test_output_stays_in_unit_range(self, lam):
        rng = np.random.default_rng(7)
        a = make_clip("a", rng=rng)
        b = make_clip("b", rng=rng)
        mixed = mix_clips(a, b, lam)
        assert float(mixed.frames.min()) >= 0.0
        assert float(mixed.frames.max()) <= 1.0

    def test_shape_mismatch_raises(self):
        a = make_clip("a", value=0.5)
        b = make_clip("b", value=0.5, shape=(3, 5, 5, 1))
        with pytest.raises(ShapeMismatchError):
            mix_clips(a, b, 0.5)

    def test_rejects_out_of_range_lambda(self):
        a = make_clip("a", value=0.5)
        for lam in (1.2, -0.1, math.nan, "0.5", True):
            with pytest.raises(InvalidInputError, match="lam"):
                mix_clips(a, a, lam)

    def test_default_id_names_both_sources(self):
        a = make_clip("a", value=0.5)
        b = make_clip("b", value=0.5)
        assert mix_clips(a, b, 0.5).clip_id == "mix(a,b)"


class TestMixLabels:
    def test_raw_mixture_is_exact_convex_combination(self):
        y_a = np.array([0.6, 0.4, 0.0])
        y_b = np.array([0.0, 0.0, 1.0])
        got = mix_labels(y_a, y_b, 0.25, normalize=False)
        np.testing.assert_allclose(got, 0.25 * y_a + 0.75 * y_b, atol=1e-15)

    def test_endpoints_exact_without_normalization(self):
        y_a = np.array([0.6, 0.4, 0.0])
        y_b = np.array([0.0, 0.0, 1.0])
        np.testing.assert_array_equal(mix_labels(y_a, y_b, 1.0, normalize=False), y_a)
        np.testing.assert_array_equal(mix_labels(y_a, y_b, 0.0, normalize=False), y_b)

    def test_normalized_mixture_is_softmax_of_raw(self):
        y_a = np.array([0.6, 0.4, 0.0])
        y_b = np.array([0.0, 0.0, 1.0])
        raw = 0.3 * y_a + 0.7 * y_b
        expected = np.exp(raw) / np.exp(raw).sum()
        np.testing.assert_allclose(mix_labels(y_a, y_b, 0.3), expected, atol=1e-12)

    @given(soft_labels(), soft_labels(), _lam,
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_simplex_closure(self, y_a, y_b, lam, normalize):
        got = mix_labels(y_a, y_b, lam, normalize=normalize)
        assert np.all(got >= 0)
        assert abs(got.sum() - 1.0) <= 1e-9

    def test_length_mismatch_raises(self):
        with pytest.raises(InvalidInputError):
            mix_labels(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]), 0.5)


class TestMidasBatch:
    def _dataset(self, n=6, class_count=3):
        labels = [k % class_count for k in range(n)]
        return make_dataset(unanimous_rows(labels, class_count=class_count))

    def test_never_pairs_a_clip_with_itself(self, rng):
        ds = self._dataset(n=5)
        batch = midas_batch(ds, batch_size=10_000, alpha=0.8, rng=rng)
        assert all(s.source_i != s.source_j for s in batch.samples)

    def test_two_clip_dataset_pairs_both_ways(self, rng):
        ds = self._dataset(n=2)
        batch = midas_batch(ds, batch_size=4, alpha=0.8, rng=rng)
        pairs = {(s.source_i, s.source_j) for s in batch.samples}
        assert pairs == {("clip-000", "clip-001"), ("clip-001", "clip-000")}

    def test_each_pass_uses_every_clip_once_on_the_left(self, rng):
        ds = self._dataset(n=7)
        batch = midas_batch(ds, batch_size=14, alpha=0.8, rng=rng)
        first_pass = [s.source_i for s in batch.samples[:7]]
        second_pass = [s.source_i for s in batch.samples[7:]]
        assert sorted(first_pass) == sorted(e.clip.clip_id for e in ds.entries)
        assert sorted(second_pass) == sorted(e.clip.clip_id for e in ds.entries)

    def test_sample_reconstructs_from_sources(self, rng):
        ds = self._dataset(n=6)
        by_id = {e.clip.clip_id: e for e in ds.entries}
        batch = midas_batch(ds, batch_size=9, alpha=0.8, rng=rng, normalize=False)
        for s in batch.samples:
            a, b = by_id[s.source_i], by_id[s.source_j]
            np.testing.assert_allclose(
                s.clip.frames,
                (s.lam * a.clip.frames.astype(np.float64)
                 + (1 - s.lam) * b.clip.frames.astype(np.float64)).astype(np.float32),
                atol=0,
            )
            np.testing.assert_allclose(
                s.label, s.lam * a.soft + (1 - s.lam) * b.soft, atol=1e-15
            )

    def test_stacked_views_match_samples(self, rng):
        ds = self._dataset()
        batch = midas_batch(ds, batch_size=5, alpha=0.8, rng=rng)
        assert batch.clips.shape == (5,) + ds.clip_shape
        assert batch.labels.shape == (5, 3)
        np.testing.assert_array_equal(batch.clips[2], batch.samples[2].clip.frames)
        np.testing.assert_array_equal(batch.labels[2], batch.samples[2].label)

    def test_deterministic_under_seed(self):
        ds = self._dataset()
        a = midas_batch(ds, batch_size=8, alpha=0.8, rng=np.random.default_rng(3))
        b = midas_batch(ds, batch_size=8, alpha=0.8, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(a.clips, b.clips)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert [s.lam for s in a.samples] == [s.lam for s in b.samples]

    def test_single_clip_dataset_rejected(self, rng):
        ds = self._dataset(n=1)
        with pytest.raises(EmptyDatasetError):
            midas_batch(ds, batch_size=2, alpha=0.8, rng=rng)

    def test_bad_batch_size_rejected(self, rng):
        ds = self._dataset()
        with pytest.raises(InvalidInputError):
            midas_batch(ds, batch_size=0, alpha=0.8, rng=rng)

    def test_unresolved_ties_rejected(self, rng):
        ds = make_dataset([[5, 5, 0], [6, 4, 0]])
        with pytest.raises(AmbiguousLabelError):
            midas_batch(ds, batch_size=2, alpha=0.8, rng=rng)

    @pytest.mark.parametrize("alpha", [
        0.0, -1.0, math.nan, math.inf, "0.8", None, True, np.bool_(True), 10**400,
    ])
    def test_rejects_bad_alpha(self, rng, alpha):
        with pytest.raises(InvalidInputError, match="alpha"):
            midas_batch(self._dataset(), batch_size=4, alpha=alpha, rng=rng)

    def test_samples_are_views_of_the_arrays(self, rng):
        batch = midas_batch(self._dataset(), batch_size=5, alpha=0.8, rng=rng)
        for k, s in enumerate(batch.samples):
            assert np.shares_memory(s.clip.frames, batch.clips[k])
            assert s.lam == batch.lams[k]
        assert batch.samples is batch.samples


def _per_pair_oracle(dataset, batch_size, alpha, rng, normalize):
    """midas_batch drawn and blended one pair at a time from the public helpers."""
    n = len(dataset)
    samples = []
    while len(samples) < batch_size:
        perm = rng.permutation(n)
        offset = int(rng.integers(0, n - 1))
        for k in range(min(n, batch_size - len(samples))):
            a = dataset.entries[int(perm[k])]
            b = dataset.entries[int(perm[(k + 1 + offset) % n])]
            lam = sample_lambda(alpha, rng).lam
            samples.append((
                mix_clips(a.clip, b.clip, lam),
                mix_labels(a.soft, b.soft, lam, normalize=normalize),
                lam,
            ))
    return samples


class TestMidasBatchMatchesPerPairOracle:
    N = 12
    # 8x32x32x3 clips hold 192 KiB of float64 each, so a batch of 12 or more
    # spans several blend chunks.
    SHAPE = (8, 32, 32, 3)

    @pytest.fixture(scope="class")
    def dataset(self):
        rows = np.random.default_rng(1).multinomial(10, np.full(4, 0.25), size=self.N)
        rows[np.arange(self.N), np.arange(self.N) % 4] += 11  # unique maxima
        return make_dataset(rows, shape=self.SHAPE, seed=2)

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("batch_size", [1, N - 1, N, 2 * N + N // 3])
    @pytest.mark.parametrize("alpha", [0.2, 1.6])
    def test_array_equal(self, dataset, normalize, batch_size, alpha):
        batch = midas_batch(dataset, batch_size, alpha, np.random.default_rng(5), normalize)
        oracle = _per_pair_oracle(dataset, batch_size, alpha, np.random.default_rng(5), normalize)
        np.testing.assert_array_equal(batch.clips, np.stack([c.frames for c, _, _ in oracle]))
        np.testing.assert_array_equal(batch.labels, np.stack([y for _, y, _ in oracle]))
        np.testing.assert_array_equal(batch.lams, [lam for _, _, lam in oracle])
        assert [s.clip.clip_id for s in batch.samples] == [c.clip_id for c, _, _ in oracle]


def test_train_in_midas_mode_constructs_no_clip(monkeypatch):
    ds = make_dataset(unanimous_rows([k % 3 for k in range(9)], class_count=3))
    made = []
    original = Clip.__post_init__

    def counting(self):
        made.append(self.clip_id)
        original(self)

    monkeypatch.setattr(Clip, "__post_init__", counting)
    for mode in ("midas", "midas_hard"):
        train(ds, TrainConfig(epochs=3, label_mode=mode, hidden=(4,), target_hw=(2, 2)))
    assert made == []
