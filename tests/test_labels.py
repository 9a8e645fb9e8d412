"""Vote aggregation, hard labels, softmax renormalization, decomposition."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from midas.errors import AmbiguousLabelError, InvalidInputError
from midas.labels import (
    CLASS_NAMES,
    NUM_CLASSES,
    VoteRecord,
    aggregate_votes,
    as_soft_label,
    decompose,
    filter_unresolved,
    hard_label_of,
    one_hot,
    renormalize_softmax,
)

from conftest import make_dataset, unique_max_rows, vote_count_rows

# The canonical ten-annotator example: 2 Neutral, 1 Angry, 6 Disgust, 1 Fear.
EXAMPLE_VOTES = np.array([0, 0, 2, 1, 0, 6, 1], dtype=np.int64)
EXAMPLE_SOFT = np.array([0.0, 0.0, 0.2, 0.1, 0.0, 0.6, 0.1])


class TestVoteRecord:
    def test_total_counts_annotators(self):
        assert VoteRecord(EXAMPLE_VOTES).total == 10

    def test_rejects_negative_counts(self):
        with pytest.raises(InvalidInputError):
            VoteRecord(np.array([1, -1, 0]))

    @pytest.mark.parametrize("counts", [[0.5, 0.7], [2.0, 1.0], [True, False]])
    def test_rejects_non_integer_counts(self, counts):
        with pytest.raises(InvalidInputError, match="integers"):
            VoteRecord(counts)

    def test_rejects_zero_votes(self):
        with pytest.raises(InvalidInputError):
            VoteRecord(np.zeros(7, dtype=np.int64))

    def test_rejects_matrix_input(self):
        with pytest.raises(InvalidInputError):
            VoteRecord(np.ones((2, 2), dtype=np.int64))


class TestAggregateVotes:
    def test_worked_example_is_exact(self):
        np.testing.assert_array_equal(
            aggregate_votes(VoteRecord(EXAMPLE_VOTES)), EXAMPLE_SOFT
        )

    def test_unanimous_votes_give_one_hot(self):
        votes = np.zeros(NUM_CLASSES, dtype=np.int64)
        votes[3] = 10
        np.testing.assert_array_equal(
            aggregate_votes(VoteRecord(votes)), one_hot(3, NUM_CLASSES)
        )

    @given(vote_count_rows())
    def test_result_is_a_probability_vector(self, row):
        soft = aggregate_votes(VoteRecord(row))
        assert np.all(soft >= 0)
        assert abs(soft.sum() - 1.0) <= 1e-9

    @given(vote_count_rows())
    def test_component_is_count_over_total(self, row):
        soft = aggregate_votes(VoteRecord(row))
        np.testing.assert_array_equal(soft, row / row.sum())


class TestHardLabel:
    def test_worked_example_hard_labels_to_disgust(self):
        assert hard_label_of(EXAMPLE_SOFT) == CLASS_NAMES.index("Disgust") == 5

    def test_tie_raises(self):
        with pytest.raises(AmbiguousLabelError):
            hard_label_of(np.array([0.5, 0.5, 0.0]))

    @given(unique_max_rows())
    def test_matches_argmax_on_unique_max_rows(self, row):
        assert hard_label_of(row / row.sum()) == int(np.argmax(row))

    def test_has_unique_max(self):
        assert hard_label_of([1, 3, 2]) == 1
        with pytest.raises(AmbiguousLabelError):
            hard_label_of([3, 3, 1])
        with pytest.raises(AmbiguousLabelError):
            hard_label_of([0, 0, 0])


class TestFilterUnresolved:
    def test_removes_only_tied_records(self):
        ds = make_dataset(
            [[5, 5, 0], [6, 4, 0], [0, 3, 7], [2, 2, 2]],
        )
        kept = filter_unresolved(ds)
        assert [e.clip.clip_id for e in kept.entries] == ["clip-001", "clip-002"]

    def test_idempotent(self):
        ds = make_dataset([[5, 5, 0], [6, 4, 0]])
        once = filter_unresolved(ds)
        twice = filter_unresolved(once)
        assert [e.clip.clip_id for e in twice.entries] == [
            e.clip.clip_id for e in once.entries
        ]

    def test_clean_dataset_unchanged(self):
        ds = make_dataset([[6, 4, 0], [0, 3, 7]])
        assert filter_unresolved(ds) is ds  # nothing to drop, so no pixels are copied


class TestRenormalizeSoftmax:
    def test_worked_example_against_independent_sum(self):
        vec = np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
        got = renormalize_softmax(vec)
        denom = sum(math.exp(v) for v in vec)
        expected = [math.exp(v) / denom for v in vec]
        np.testing.assert_allclose(got, expected, atol=1e-12)
        np.testing.assert_allclose(got[:2], [0.19871, 0.19871], atol=1e-5)
        np.testing.assert_allclose(got[2:], [0.12052] * 5, atol=1e-5)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=10),
           st.floats(-100, 100))
    def test_shift_invariance(self, values, shift):
        vec = np.asarray(values)
        np.testing.assert_allclose(
            renormalize_softmax(vec), renormalize_softmax(vec + shift), atol=1e-12
        )

    @given(unique_max_rows())
    def test_preserves_argmax(self, row):
        soft = row / row.sum()
        assert int(np.argmax(renormalize_softmax(soft))) == int(np.argmax(soft))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=10))
    def test_output_on_simplex(self, values):
        out = renormalize_softmax(np.asarray(values))
        assert np.all(out > 0)
        assert abs(out.sum() - 1.0) <= 1e-9

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            renormalize_softmax(np.array([0.1, np.inf]))

    def test_large_inputs_do_not_overflow(self):
        out = renormalize_softmax(np.array([1000.0, 999.0]))
        assert np.all(np.isfinite(out))


class TestDecompose:
    def test_worked_example(self):
        d = decompose(EXAMPLE_SOFT, VoteRecord(EXAMPLE_VOTES), true_class=5)
        assert d.correct_count == 6
        np.testing.assert_allclose(
            d.wrong_mass, [0.0, 0.0, 0.2, 0.1, 0.0, 0.0, 0.1], atol=1e-12
        )

    @given(vote_count_rows(), st.integers(min_value=0, max_value=6))
    def test_reconstructs_soft_label(self, row, true_class):
        soft = row / row.sum()
        d = decompose(soft, VoteRecord(row), true_class)
        rebuilt = (d.correct_count / row.sum()) * one_hot(true_class, row.size) + d.wrong_mass
        np.testing.assert_allclose(rebuilt, soft, atol=1e-12)
        assert d.wrong_mass[true_class] == 0.0

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(InvalidInputError):
            decompose(one_hot(0, 7), VoteRecord(EXAMPLE_VOTES), true_class=0)

    def test_out_of_range_class_rejected(self):
        with pytest.raises(InvalidInputError):
            decompose(EXAMPLE_SOFT, VoteRecord(EXAMPLE_VOTES), true_class=7)


class TestOneHot:
    def test_basic(self):
        np.testing.assert_array_equal(one_hot(1, 3), [0.0, 1.0, 0.0])

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            one_hot(3, 3)
        with pytest.raises(InvalidInputError):
            one_hot(-1, 3)


class TestAsSoftLabel:
    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidInputError):
            as_soft_label([0.5, 0.4])

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            as_soft_label([1.5, -0.5])

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidInputError):
            as_soft_label([0.5, 0.5], class_count=3)

    def test_accepts_vote_average(self):
        soft = as_soft_label(EXAMPLE_SOFT)
        np.testing.assert_array_equal(soft, EXAMPLE_SOFT)
