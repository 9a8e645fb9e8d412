"""Synthetic corpus generator and the simulated annotator panel."""

import math

import numpy as np
import pytest

from midas.errors import InvalidInputError
from midas.labels import CLASS_NAMES, one_hot
from midas.synth import SynthConfig, generate, simulate_annotators


class TestSimulateAnnotators:
    def test_one_hot_mixture_is_unanimous(self, rng):
        votes = simulate_annotators(one_hot(2, 5), annotators=10, tau=0.3, rng=rng)
        assert votes.counts[2] == 10
        assert votes.counts.sum() == 10

    def test_uniform_mixture_within_binomial_bound(self, rng):
        # pooled over N panels the count of any class is Binomial(N*S, 1/C)
        c, s, n = 7, 10, 2000
        mixture = np.full(c, 1.0 / c)
        totals = np.zeros(c, dtype=np.int64)
        for _ in range(n):
            totals += simulate_annotators(mixture, s, tau=1.0, rng=rng).counts
        p = 1.0 / c
        expected = n * s * p
        bound = 4.0 * math.sqrt(n * s * p * (1.0 - p))
        assert np.all(np.abs(totals - expected) <= bound)

    def test_sharpening_matches_power_law(self, rng):
        # at temperature tau the vote distribution is m**(1/tau), normalized;
        # the pooled histogram over many panels must sit close to it
        mixture = np.array([0.6, 0.3, 0.1])
        tau = 0.5
        powered = mixture ** (1.0 / tau)
        powered /= powered.sum()
        draws = 100_000
        totals = np.zeros(3, dtype=np.int64)
        for _ in range(draws // 100):
            totals += simulate_annotators(mixture, 100, tau, rng).counts
        empirical = totals / totals.sum()
        tv = 0.5 * np.abs(empirical - powered).sum()
        assert tv <= 0.01

    def test_tau_one_recovers_the_mixture(self, rng):
        mixture = np.array([0.5, 0.2, 0.2, 0.1])
        votes = simulate_annotators(mixture, annotators=10_000, tau=1.0, rng=rng)
        np.testing.assert_allclose(votes.counts / 10_000, mixture, atol=0.02)

    def test_validation(self, rng):
        with pytest.raises(InvalidInputError):
            simulate_annotators(one_hot(0, 3), annotators=0, tau=0.3, rng=rng)
        with pytest.raises(InvalidInputError):
            simulate_annotators(one_hot(0, 3), annotators=5, tau=0.0, rng=rng)
        with pytest.raises(InvalidInputError):
            simulate_annotators(np.array([0.5, 0.4]), annotators=5, tau=0.3, rng=rng)


class TestSynthConfig:
    def test_default_class_names_are_canonical(self):
        assert SynthConfig().class_names() == CLASS_NAMES
        assert SynthConfig(class_count=3).class_names() == ("class_0", "class_1", "class_2")

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SynthConfig(class_count=1)
        with pytest.raises(InvalidInputError):
            SynthConfig(samples_per_class=0)
        with pytest.raises(InvalidInputError):
            SynthConfig(rho=1.5)
        with pytest.raises(InvalidInputError):
            SynthConfig(tau=-0.1)
        with pytest.raises(InvalidInputError):
            SynthConfig(sigma_within=-1.0)
        with pytest.raises(InvalidInputError):
            SynthConfig(frames=0)

    @pytest.mark.parametrize("name", [
        "class_count", "samples_per_class", "frames", "height", "width", "channels",
        "annotators", "seed",
    ])
    def test_int_fields_reject_other_types(self, name):
        for value in (2.5, 3.0, True, "7", None):
            with pytest.raises(InvalidInputError, match=name):
                SynthConfig(**{name: value})

    @pytest.mark.parametrize("name", ["sigma_between", "sigma_within", "rho", "tau"])
    def test_float_fields_must_be_finite_real_numbers(self, name):
        for value in ("0.3", None, True, math.nan, math.inf):
            with pytest.raises(InvalidInputError, match=name):
                SynthConfig(**{name: value})
        assert getattr(SynthConfig(**{name: 1}), name) == 1

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(InvalidInputError, match="seed"):
            SynthConfig(seed=-1)
        assert SynthConfig(seed=0).seed == 0


class TestGenerate:
    def test_deterministic(self):
        cfg = SynthConfig(class_count=3, samples_per_class=8, seed=11)
        a = generate(cfg)
        b = generate(cfg)
        assert len(a) == len(b)
        for ea, eb in zip(a.entries, b.entries):
            assert ea.clip.clip_id == eb.clip.clip_id
            np.testing.assert_array_equal(ea.clip.frames, eb.clip.frames)
            np.testing.assert_array_equal(ea.votes.counts, eb.votes.counts)

    def test_geometry_and_ids(self):
        cfg = SynthConfig(class_count=3, samples_per_class=4, frames=5, height=6,
                          width=7, channels=2, rho=0.0, seed=1)
        ds = generate(cfg)
        assert len(ds) == 12
        assert ds.class_count == 3
        entry = ds.entries[0]
        assert entry.clip.shape == (5, 6, 7, 2)
        assert entry.clip.clip_id == "synth-00-0000"
        assert entry.clip.frames.dtype == np.float32
        assert np.all(entry.clip.frames >= 0.0) and np.all(entry.clip.frames <= 1.0)

    def test_clear_only_corpus_is_unanimous(self):
        # rho = 0 keeps every sample on its own prototype, and the sharpened
        # one-hot mixture leaves annotators no probability mass elsewhere
        ds = generate(SynthConfig(class_count=4, samples_per_class=6, rho=0.0, seed=3))
        assert len(ds) == 24
        for k, entry in enumerate(ds.entries):
            c = k // 6
            assert entry.votes.counts[c] == 10
            assert entry.hard == c
            np.testing.assert_array_equal(entry.soft, one_hot(c, 4))

    def test_fully_ambiguous_corpus_splits_votes(self):
        ds = generate(SynthConfig(class_count=5, samples_per_class=40, rho=1.0,
                                  tau=0.5, seed=7))
        maxima = np.array([e.votes.counts.max() for e in ds.entries])
        # two-class blends with weight in [0.3, 0.7] rarely yield unanimity
        assert np.mean(maxima < 10) > 0.8
        assert np.all(maxima >= 1)

    def test_ambiguous_count_follows_rho(self):
        # rho = 0.5 marks the first half of each class as blends; blends touch
        # two classes, clear samples exactly one
        cfg = SynthConfig(class_count=3, samples_per_class=10, rho=0.5,
                          sigma_within=0.0, tau=0.05, seed=5)
        ds = generate(cfg)
        # with a very low temperature the vote histogram follows the blend's
        # dominant class, so clear samples stay unanimous
        unanimous = sum(1 for e in ds.entries if e.votes.counts.max() == 10)
        assert unanimous >= 15  # all 15 clear samples plus lopsided blends

    def test_ties_are_dropped(self):
        cfg = SynthConfig(class_count=3, samples_per_class=30, rho=1.0, tau=1.0, seed=9)
        ds = generate(cfg)
        assert len(ds) <= 90
        for entry in ds.entries:
            counts = entry.votes.counts
            assert np.count_nonzero(counts == counts.max()) == 1
            assert entry.hard is not None

    def test_provenance_records_seed(self):
        ds = generate(SynthConfig(class_count=2, samples_per_class=2, rho=0.0, seed=42))
        assert "42" in ds.provenance
