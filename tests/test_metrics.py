"""Recall-based scores, the coexistence summary, and evaluation reports."""

import csv
import math

import numpy as np
import pytest

from midas.dataset import build_dataset
from midas.errors import EmptyDatasetError, InvalidInputError, ShapeMismatchError
from midas.metrics import (
    CoexistenceMatrix,
    ConfusionMatrix,
    coexistence,
    coexistence_to_csv,
    confusion,
    per_class_accuracy,
    report,
    uar,
    war,
)
from midas.model import init_classifier

from conftest import make_dataset, unanimous_rows

# truths 0: 8 correct, 2 predicted as 1; truths 1: 2 predicted as 0, 3 correct
HAND_COUNTS = np.array([[8, 2], [2, 3]])


def _hand_matrix():
    preds = [0] * 8 + [1] * 2 + [0] * 2 + [1] * 3
    truths = [0] * 10 + [1] * 5
    return confusion(preds, truths, 2)


class TestConfusion:
    def test_hand_counts(self):
        cm = _hand_matrix()
        np.testing.assert_array_equal(cm.counts, HAND_COUNTS)
        assert cm.total == 15
        np.testing.assert_array_equal(cm.support, [10, 5])

    def test_axis_convention_rows_are_truths(self):
        cm = confusion(preds=[1], truths=[0], class_count=3)
        assert cm.counts[0][1] == 1
        assert cm.counts.sum() == 1

    def test_matches_loop_tally(self, rng):
        preds = rng.integers(0, 6, size=500)
        truths = rng.integers(0, 6, size=500)
        cm = confusion(preds, truths, 6)
        expected = np.zeros((6, 6), dtype=np.int64)
        for p, t in zip(preds, truths):
            expected[t, p] += 1
        np.testing.assert_array_equal(cm.counts, expected)

    def test_rejects_bad_streams(self):
        with pytest.raises(ShapeMismatchError):
            confusion([0, 1], [0], 2)
        with pytest.raises(InvalidInputError):
            confusion([], [], 2)
        with pytest.raises(InvalidInputError):
            confusion([2], [0], 2)
        with pytest.raises(InvalidInputError):
            confusion([0], [-1], 2)

    def test_matrix_validation(self):
        with pytest.raises(InvalidInputError):
            ConfusionMatrix(np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(InvalidInputError):
            ConfusionMatrix(np.array([[1, -1], [0, 0]]))


class TestScores:
    def test_hand_values(self):
        cm = _hand_matrix()
        assert uar(cm) == pytest.approx(0.7, abs=1e-12)
        assert war(cm) == pytest.approx(11 / 15, abs=1e-12)

    def test_balanced_support_makes_uar_equal_war(self, rng):
        # equal per-class sample counts collapse the weighted and unweighted means
        per_class = 40
        truths = np.repeat(np.arange(4), per_class)
        preds = rng.integers(0, 4, size=truths.size)
        cm = confusion(preds, truths, 4)
        assert uar(cm) == pytest.approx(war(cm), abs=1e-12)

    def test_perfect_and_uniform_extremes(self):
        eye = ConfusionMatrix(np.eye(3, dtype=np.int64) * 5)
        assert uar(eye) == 1.0
        assert war(eye) == 1.0
        flat = ConfusionMatrix(np.ones((4, 4), dtype=np.int64))
        assert uar(flat) == pytest.approx(0.25, abs=1e-12)

    def test_empty_class_excluded_with_warning(self, caplog):
        counts = np.array([[3, 0, 0], [1, 1, 0], [0, 0, 0]])
        cm = ConfusionMatrix(counts)
        with caplog.at_level("WARNING", logger="midas.metrics"):
            value = uar(cm)
        assert value == pytest.approx((1.0 + 0.5) / 2, abs=1e-12)
        assert any("without samples" in r.message for r in caplog.records)

    def test_per_class_nan_for_empty_rows(self):
        counts = np.array([[2, 0], [0, 0]])
        acc = per_class_accuracy(ConfusionMatrix(counts))
        assert acc[0] == 1.0
        assert math.isnan(acc[1])

    def test_all_empty_rejected(self):
        cm = ConfusionMatrix(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(InvalidInputError):
            uar(cm)
        with pytest.raises(InvalidInputError):
            war(cm)


class TestCoexistence:
    def test_one_hot_labels_give_identity(self):
        ds = make_dataset(unanimous_rows([0, 1, 2, 0, 1, 2], class_count=3))
        matrix = coexistence(ds)
        np.testing.assert_allclose(matrix.ratios, np.eye(3), atol=1e-12)
        assert not matrix.missing.any()

    def test_rows_are_mean_soft_labels(self):
        ds = make_dataset([[6, 4, 0], [8, 2, 0], [0, 0, 10]])
        matrix = coexistence(ds)
        np.testing.assert_allclose(matrix.ratios[0], [0.7, 0.3, 0.0], atol=1e-12)
        np.testing.assert_allclose(matrix.ratios[2], [0.0, 0.0, 1.0], atol=1e-12)
        assert bool(matrix.missing[1]) is True
        np.testing.assert_allclose(matrix.ratios.sum(axis=1)[~matrix.missing], 1.0,
                                   atol=1e-9)

    def test_missing_class_warns(self, caplog):
        ds = make_dataset([[10, 0], [9, 1]])
        with caplog.at_level("WARNING", logger="midas.metrics"):
            matrix = coexistence(ds)
        assert matrix.missing.tolist() == [False, True]
        assert any("flagged missing" in r.message for r in caplog.records)

    def test_empty_dataset_rejected(self):
        ds = build_dataset([], [], class_names=("a", "b"))
        with pytest.raises(EmptyDatasetError):
            coexistence(ds)

    def test_matrix_validation(self):
        with pytest.raises(InvalidInputError):
            CoexistenceMatrix(ratios=np.full((2, 2), 0.4), missing=np.zeros(2, bool))
        ok = CoexistenceMatrix(ratios=np.array([[0.4, 0.6], [0.0, 0.0]]),
                               missing=np.array([False, True]))
        assert ok.missing[1]


class TestReport:
    def test_field_names_and_self_consistency(self, rng):
        ds = make_dataset(unanimous_rows([0, 1, 2, 1, 0], class_count=3))
        model = init_classifier(16, 3, (4,), rng)
        doc = report(model, ds, target_hw=(4, 4))
        assert set(doc) == {
            "class_names", "per_class_accuracy", "uar", "war", "confusion", "samples",
        }
        cm = ConfusionMatrix(np.array(doc["confusion"]))
        assert doc["uar"] == uar(cm)
        assert doc["war"] == war(cm)
        assert cm.total == len(ds.entries)
        assert len(doc["samples"]) == len(ds.entries)
        for row in doc["samples"]:
            assert row["predicted_class"] == int(np.argmax(row["posterior"]))
            assert sum(row["posterior"]) == pytest.approx(1.0, abs=1e-9)

    def test_perfect_split_scores_one(self):
        # bias the single linear layer so class 0 wins on dark clips and
        # class 1 on bright clips: weight row = brightness direction
        from midas.model import Classifier
        from test_model import _separable_dataset

        ds = _separable_dataset()
        weights = np.zeros((16, 2))
        weights[:, 1] = 1.0
        weights[:, 0] = -1.0
        # total brightness is 1.6 for dark clips and 14.4 for bright ones,
        # so a threshold at 8 separates them
        model = Classifier(weights=[weights], biases=[np.array([8.0, -8.0])])
        doc = report(model, ds)
        assert doc["uar"] == 1.0
        assert doc["war"] == 1.0
        assert doc["per_class_accuracy"] == [1.0, 1.0]

    def test_missing_class_row_is_null(self, rng):
        ds = make_dataset(unanimous_rows([0, 0, 1], class_count=3))
        model = init_classifier(16, 3, (), rng)
        doc = report(model, ds)
        assert doc["per_class_accuracy"][2] is None


class TestCsv:
    def test_coexistence_round_trip(self, tmp_path):
        matrix = CoexistenceMatrix(
            ratios=np.array([[0.7, 0.3], [0.25, 0.75]]),
            missing=np.array([False, False]),
        )
        path = tmp_path / "co.csv"
        coexistence_to_csv(matrix, ("a", "b"), path)
        with open(path, newline="") as fp:
            rows = list(csv.reader(fp))
        assert rows[1] == ["a", "0.700000", "0.300000"]
        parsed = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        np.testing.assert_allclose(parsed, matrix.ratios, atol=1e-6)

    def test_name_count_must_match(self, tmp_path):
        matrix = CoexistenceMatrix(ratios=np.eye(2), missing=np.array([False, False]))
        with pytest.raises(InvalidInputError, match="class name count"):
            coexistence_to_csv(matrix, ("only",), tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()
