"""Risk estimators and the blend-weight reparameterization identity."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midas.dataset import build_dataset
from midas.errors import (
    DegenerateMixError, EmptyDatasetError, InvalidInputError, ShapeMismatchError,
)
from midas.labels import LabelDecomposition, VoteRecord, decompose, one_hot, softmax_rows
from midas.mixer import midas_batch
from midas.model import featurize_frames, forward_batch, init_classifier
from midas.vicinal import (
    RiskEstimate,
    check_vicinal_identity,
    cross_entropy,
    empirical_risk,
    reparameterize,
    vicinal_risk,
)

from conftest import make_clip, make_dataset, unanimous_rows, vote_count_rows

EXAMPLE_VOTES = np.array([0, 0, 2, 1, 0, 6, 1], dtype=np.int64)
EXAMPLE_SOFT = EXAMPLE_VOTES / EXAMPLE_VOTES.sum()


def _row_lookup(ds, table):
    """A batch predictor giving ``table[k]`` for each input clip equal to clip k of ``ds``."""
    flat = ds.frames.reshape(len(ds), -1)

    def predictor(frames):
        assert frames.dtype == np.float32 and frames.shape[1:] == ds.frames.shape[1:]
        rows = [int(np.flatnonzero((flat == f.reshape(-1)).all(axis=1))[0]) for f in frames]
        return table[rows]

    return predictor


def _constant_predictor(row):
    return lambda frames: np.tile(np.asarray(row, dtype=np.float64), (len(frames), 1))


def _uniform_predictor(class_count=3):
    return _constant_predictor(np.full(class_count, 1.0 / class_count))


class TestCrossEntropy:
    def test_hand_value(self):
        pred = np.array([0.5, 0.25, 0.25])
        target = np.array([1.0, 0.0, 0.0])
        assert cross_entropy(pred, target) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_clamps_zero_predictions(self):
        value = cross_entropy(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert value == pytest.approx(-math.log(1e-12), rel=1e-9)


class TestEmpiricalRisk:
    def test_perfect_predictor_gives_mean_label_entropy(self):
        ds = make_dataset([[6, 4, 0], [0, 0, 5], [3, 3, 4]])
        est = empirical_risk(_row_lookup(ds, ds.soft), ds)
        entropies = []
        for e in ds.entries:
            entropies.append(-sum(p * math.log(p) for p in e.soft if p > 0))
        assert est.value == pytest.approx(np.mean(entropies), abs=1e-12)

    def test_zero_loss_single_sample(self):
        ds = make_dataset([[6, 4, 0]])
        est = empirical_risk(_uniform_predictor(), ds, loss=lambda p, t: np.zeros(len(t)))
        assert est.value == 0.0
        assert est.stderr == 0.0
        assert est.num_terms == 1

    def test_matches_two_pass_reference(self, rng):
        rows = [vote for vote in rng.integers(0, 8, size=(100, 5))]
        rows = [r if r.sum() else r + 1 for r in rows]
        ds = make_dataset(rows)
        predictions = {e.clip.clip_id: rng.dirichlet(np.ones(5)) for e in ds.entries}
        table = np.array([predictions[i] for i in ds.ids])
        est = empirical_risk(_row_lookup(ds, table), ds)
        # naive two-pass oracle
        losses = []
        for e in ds.entries:
            p = np.clip(predictions[e.clip.clip_id], 1e-12, None)
            losses.append(float(-(e.soft * np.log(p)).sum()))
        mean = sum(losses) / len(losses)
        var = sum((v - mean) ** 2 for v in losses) / (len(losses) - 1)
        assert est.value == pytest.approx(mean, abs=1e-12)
        assert est.stderr == pytest.approx(math.sqrt(var / len(losses)), abs=1e-12)

    def test_permutation_invariant(self, rng):
        ds = make_dataset(unanimous_rows([0, 1, 2, 0, 2], class_count=3))
        perm = ds.subset([3, 1, 4, 0, 2])
        a = empirical_risk(_uniform_predictor(), ds)
        b = empirical_risk(_uniform_predictor(), perm)
        assert a.value == pytest.approx(b.value, abs=1e-12)

    def test_empty_dataset_rejected(self):
        ds = build_dataset([], [], class_names=("a", "b", "c"))
        with pytest.raises(EmptyDatasetError):
            empirical_risk(lambda frames: None, ds)

    def test_scores_the_whole_dataset_in_one_call(self):
        ds = make_dataset([[6, 4, 0], [0, 0, 5], [3, 3, 4]])
        seen = []

        def predictor(frames):
            seen.append(frames)
            return np.full((len(frames), 3), 1 / 3)

        empirical_risk(predictor, ds)
        assert len(seen) == 1 and seen[0] is ds.frames
        assert "entries" not in ds.__dict__

    def test_wrong_shapes_rejected(self):
        ds = make_dataset([[6, 4, 0], [0, 0, 5], [3, 3, 4]])
        for predictor in (lambda f: None, lambda f: np.full(3, 1 / 3),
                          lambda f: np.full((3, 2), 0.5), lambda f: np.full((2, 3), 1 / 3)):
            with pytest.raises(ShapeMismatchError):
                empirical_risk(predictor, ds)
        for loss in (lambda p, t: 0.0, lambda p, t: np.zeros((3, 1)), lambda p, t: np.zeros(2)):
            with pytest.raises(ShapeMismatchError):
                empirical_risk(_uniform_predictor(), ds, loss=loss)


class TestVicinalRisk:
    def test_constant_loss_has_zero_spread(self, rng):
        ds = make_dataset(unanimous_rows([0, 1, 2], class_count=3))
        est = vicinal_risk(
            _uniform_predictor(), ds, alpha=0.8, draws=50, label_mode="soft",
            rng=rng, loss=lambda p, t: np.full(len(t), 2.5),
        )
        assert est.value == 2.5
        assert est.stderr == 0.0
        assert est.num_terms == 50

    def test_deterministic_under_seed(self):
        ds = make_dataset(unanimous_rows([0, 1, 2, 1], class_count=3))
        a = vicinal_risk(_uniform_predictor(), ds, 0.8, 100, "soft",
                         np.random.default_rng(4))
        b = vicinal_risk(_uniform_predictor(), ds, 0.8, 100, "soft",
                         np.random.default_rng(4))
        assert a.value == b.value
        assert a.stderr == b.stderr

    def test_soft_equals_hard_on_one_hot_labels(self):
        # unanimous votes make every soft label one-hot, so the two label
        # modes must agree draw by draw under the same generator seed
        ds = make_dataset(unanimous_rows([0, 1, 2, 2, 1, 0], class_count=3))
        predictor = _uniform_predictor()
        a = vicinal_risk(predictor, ds, 0.8, 200, "soft", np.random.default_rng(9))
        b = vicinal_risk(predictor, ds, 0.8, 200, "hard", np.random.default_rng(9))
        assert a.value == pytest.approx(b.value, abs=1e-12)
        assert a.stderr == pytest.approx(b.stderr, abs=1e-12)

    def test_identical_clips_reduce_to_empirical_risk(self):
        # both entries share the same frames and votes, so every mixture
        # reproduces the single sample and the estimate collapses
        frames_clip = make_clip("a", value=0.25)
        twin = make_clip("b", value=0.25)
        votes = [VoteRecord(np.array([7, 3, 0])), VoteRecord(np.array([7, 3, 0]))]
        ds = build_dataset([frames_clip, twin], votes, class_names=("a", "b", "c"))
        predictor = _constant_predictor([0.5, 0.3, 0.2])
        vic = vicinal_risk(predictor, ds, alpha=1e6, draws=64, label_mode="soft",
                           rng=np.random.default_rng(0))
        emp = empirical_risk(predictor, ds)
        assert vic.value == pytest.approx(emp.value, abs=1e-9)

    def test_monte_carlo_consistency_across_draw_counts(self):
        ds = make_dataset(
            [[6, 4, 0], [1, 8, 1], [0, 2, 8], [5, 3, 2], [2, 2, 6], [7, 2, 1]],
            shape=(2, 2, 2, 1),
        )
        predictor = _constant_predictor([0.5, 0.3, 0.2])
        small = vicinal_risk(predictor, ds, 0.8, 10_000, "soft",
                             np.random.default_rng(1))
        large = vicinal_risk(predictor, ds, 0.8, 100_000, "soft",
                             np.random.default_rng(2))
        gap = abs(small.value - large.value)
        assert gap <= 3.0 * math.hypot(small.stderr, large.stderr)

    def test_rejects_tiny_dataset(self, rng):
        ds = make_dataset([[6, 4, 0]])
        with pytest.raises(EmptyDatasetError):
            vicinal_risk(_uniform_predictor(), ds, 0.8, 10, "soft", rng)

    def test_rejects_bad_mode_and_draws(self, rng):
        ds = make_dataset(unanimous_rows([0, 1], class_count=2))
        with pytest.raises(InvalidInputError):
            vicinal_risk(_uniform_predictor(2), ds, 0.8, 0, "soft", rng)
        with pytest.raises(InvalidInputError):
            vicinal_risk(_uniform_predictor(2), ds, 0.8, 5, "weird", rng)

    def test_scores_one_pass_per_call(self):
        ds = make_dataset(unanimous_rows([0, 1, 2, 0, 1], class_count=3))
        calls = []

        def predictor(frames):
            calls.append((frames.shape, frames.dtype))
            return np.full((len(frames), 3), 1 / 3)

        vicinal_risk(predictor, ds, 0.8, 2 * len(ds) + 3, "soft", np.random.default_rng(0))
        assert calls == [((k,) + ds.clip_shape, np.float32) for k in (5, 5, 3)]

    def test_wrong_shapes_rejected(self, rng):
        ds = make_dataset(unanimous_rows([0, 1, 2], class_count=3))
        with pytest.raises(ShapeMismatchError):
            vicinal_risk(lambda f: np.full(3, 1 / 3), ds, 0.8, 4, "soft", rng)
        with pytest.raises(ShapeMismatchError):
            vicinal_risk(_uniform_predictor(), ds, 0.8, 4, "soft", rng,
                         loss=lambda p, t: 2.5)

    @staticmethod
    def _pixel_predictor(frames):
        return softmax_rows(4.0 * frames.reshape(len(frames), -1)[:, :3].astype(np.float64))

    @pytest.mark.parametrize("label_mode", ["soft", "hard"])
    def test_equals_one_shot_oracle(self, label_mode):
        ds = make_dataset([[6, 4, 0], [1, 8, 1], [0, 2, 8], [5, 3, 2], [2, 1, 7], [7, 2, 1]])
        draws = 3 * len(ds) + 2
        est = vicinal_risk(self._pixel_predictor, ds, 0.8, draws, label_mode,
                           np.random.default_rng(11))
        batch = midas_batch(ds, batch_size=draws, alpha=0.8, rng=np.random.default_rng(11),
                            normalize=False)
        hard = {e.clip.clip_id: e.hard for e in ds.entries}
        losses = []
        for s in batch.samples:
            target = s.label if label_mode == "soft" else (
                s.lam * one_hot(hard[s.source_i], 3) + (1 - s.lam) * one_hot(hard[s.source_j], 3)
            )
            losses.append(cross_entropy(self._pixel_predictor(s.clip.frames[None])[0], target))
        losses = np.array(losses)
        assert est.num_terms == draws
        assert est.value == losses.mean()
        assert est.stderr == losses.std(ddof=1) / np.sqrt(draws)

    def test_memory_does_not_grow_with_draws(self):
        ds = make_dataset(unanimous_rows([k % 3 for k in range(20)], class_count=3),
                          shape=(8, 32, 32, 3))
        frame_bytes = sum(e.clip.frames.nbytes for e in ds.entries)
        model = init_classifier(4 * 4 * 3, 3, (16,), np.random.default_rng(1))
        # the uniform predictor, and the featurize-and-forward one that `midas risk` uses
        for predictor in (_uniform_predictor(),
                          lambda frames: forward_batch(model, featurize_frames(frames, (4, 4)))):
            tracemalloc.start()
            try:
                vicinal_risk(predictor, ds, 0.8, 50 * len(ds), "hard",
                             np.random.default_rng(0))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * frame_bytes


class TestReparameterize:
    def test_worked_lambda_prime(self):
        d = decompose(EXAMPLE_SOFT, VoteRecord(EXAMPLE_VOTES), true_class=5)
        params = reparameterize(0.5, d, one_hot(0, 7), annotators=10)
        assert params.lambda_prime == pytest.approx(0.3, abs=0.0)

    def test_no_correct_votes_gives_plain_mixture(self):
        votes = np.array([0, 6, 4], dtype=np.int64)
        soft = votes / votes.sum()
        d = decompose(soft, VoteRecord(votes), true_class=0)  # zero correct votes
        qj = np.array([0.2, 0.3, 0.5])
        lam = 0.4
        params = reparameterize(lam, d, qj, annotators=10)
        assert params.lambda_prime == 0.0
        np.testing.assert_allclose(
            params.virtual_label, lam * soft + (1 - lam) * qj, atol=1e-15
        )

    @given(vote_count_rows(class_count=5), st.integers(0, 4),
           st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_virtual_label_on_simplex(self, row, true_class, lam):
        total = int(row.sum())
        d = decompose(row / total, VoteRecord(row), true_class)
        if lam == 1.0 and d.correct_count == total:
            return  # degenerate case covered separately
        params = reparameterize(lam, d, one_hot(1, 5), annotators=total)
        assert np.all(params.virtual_label >= -1e-15)
        assert params.virtual_label.sum() == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_unanimous_at_lambda_one(self):
        votes = np.array([10, 0, 0], dtype=np.int64)
        d = decompose(votes / 10, VoteRecord(votes), true_class=0)
        with pytest.raises(DegenerateMixError):
            reparameterize(1.0, d, one_hot(1, 3), annotators=10)

    @given(vote_count_rows(class_count=4), st.integers(0, 3),
           st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_lambda_prime_never_exceeds_lambda(self, row, true_class, lam):
        total = int(row.sum())
        d = decompose(row / total, VoteRecord(row), true_class)
        if lam == 1.0 and d.correct_count == total:
            return
        params = reparameterize(lam, d, one_hot(0, 4), annotators=total)
        assert params.lambda_prime <= lam + 1e-15
        if d.correct_count == total:
            assert params.lambda_prime == pytest.approx(lam, abs=1e-15)

    def test_rejects_inconsistent_annotator_count(self):
        d = LabelDecomposition(correct_count=11, wrong_mass=np.zeros(3))
        with pytest.raises(InvalidInputError):
            reparameterize(0.5, d, one_hot(0, 3), annotators=10)


class TestVicinalIdentity:
    def test_worked_example(self):
        d = decompose(EXAMPLE_SOFT, VoteRecord(EXAMPLE_VOTES), true_class=5)
        residual = check_vicinal_identity(
            0.5, EXAMPLE_SOFT, one_hot(0, 7), d, true_class=5, annotators=10
        )
        assert residual <= 1e-12

    def test_lambda_zero_is_exact(self):
        d = decompose(EXAMPLE_SOFT, VoteRecord(EXAMPLE_VOTES), true_class=5)
        residual = check_vicinal_identity(
            0.0, EXAMPLE_SOFT, one_hot(3, 7), d, true_class=5, annotators=10
        )
        assert residual == 0.0

    @given(
        vote_count_rows(class_count=7),
        vote_count_rows(class_count=7),
        st.integers(0, 6),
        st.floats(0.0, 1.0, allow_nan=False, exclude_max=True),
    )
    @settings(max_examples=1000, deadline=None)
    def test_identity_holds_for_random_tuples(self, row_i, row_j, true_class, lam):
        qi = row_i / row_i.sum()
        qj = row_j / row_j.sum()
        d = decompose(qi, VoteRecord(row_i), true_class)
        residual = check_vicinal_identity(
            lam, qi, qj, d, true_class, annotators=int(row_i.sum())
        )
        assert residual <= 1e-12


class TestRiskEstimate:
    def test_rejects_negative_stderr(self):
        with pytest.raises(InvalidInputError):
            RiskEstimate(value=1.0, num_terms=3, stderr=-0.1)

    def test_rejects_zero_terms(self):
        with pytest.raises(InvalidInputError):
            RiskEstimate(value=1.0, num_terms=0, stderr=0.0)
