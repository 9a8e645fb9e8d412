"""Classification metrics and label-structure analysis.

UAR is the unweighted mean of per-class recalls; WAR is plain accuracy.
The coexistence matrix summarizes how much probability mass each hard class
shares with the others: row c is the mean soft label over the samples whose
hard label is c.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset, require_resolved
from .errors import EmptyDatasetError, InvalidInputError, ShapeMismatchError, check_number

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Square count matrix; rows are true classes, columns predictions."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1] or counts.shape[0] < 1:
            raise InvalidInputError(f"confusion matrix must be square, got {counts.shape}")
        if np.any(counts < 0):
            raise InvalidInputError("confusion matrix holds negative counts")
        object.__setattr__(self, "counts", counts)

    @property
    def class_count(self) -> int:
        return self.counts.shape[0]

    @property
    def support(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True, eq=False)
class CoexistenceMatrix:
    """Mean soft label per hard class; absent classes are flagged missing."""

    ratios: np.ndarray
    missing: np.ndarray

    def __post_init__(self):
        ratios = np.asarray(self.ratios, dtype=np.float64)
        missing = np.asarray(self.missing, dtype=bool)
        if ratios.ndim != 2 or ratios.shape[0] != ratios.shape[1]:
            raise InvalidInputError(f"coexistence matrix must be square, got {ratios.shape}")
        if missing.shape != (ratios.shape[0],):
            raise InvalidInputError("missing flags must have one entry per class")
        for c in range(ratios.shape[0]):
            if missing[c]:
                continue
            if abs(float(ratios[c].sum()) - 1.0) > 1e-9 or np.any(ratios[c] < 0):
                raise InvalidInputError(f"coexistence row {c} is not on the simplex")
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "missing", missing)


def confusion(preds, truths, class_count: int) -> ConfusionMatrix:
    """Tally counts[true][predicted] over parallel prediction/truth streams."""
    preds = np.asarray(preds, dtype=np.int64)
    truths = np.asarray(truths, dtype=np.int64)
    if preds.shape != truths.shape or preds.ndim != 1:
        raise ShapeMismatchError(
            f"predictions {preds.shape} and truths {truths.shape} must be equal-length vectors"
        )
    if preds.size < 1:
        raise InvalidInputError("cannot build a confusion matrix from zero samples")
    class_count = check_number("class_count", class_count, 1, integral=True)
    for name, ids in (("prediction", preds), ("truth", truths)):
        bad = (ids < 0) | (ids >= class_count)
        if np.any(bad):
            raise InvalidInputError(
                f"{name} stream holds class id {ids[bad][0]} outside [0, {class_count})"
            )
    counts = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(counts, (truths, preds), 1)
    return ConfusionMatrix(counts=counts)


def per_class_accuracy(cm: ConfusionMatrix) -> np.ndarray:
    """Diagonal over row sums; classes without samples come back as NaN."""
    support = cm.support
    acc = np.full(cm.class_count, np.nan, dtype=np.float64)
    present = support > 0
    acc[present] = np.diag(cm.counts)[present] / support[present]
    return acc


def uar(cm: ConfusionMatrix) -> float:
    """Unweighted mean of per-class recalls over classes that have samples."""
    if cm.total == 0:
        raise InvalidInputError("confusion matrix holds no samples")
    acc = per_class_accuracy(cm)
    present = ~np.isnan(acc)
    absent = int((~present).sum())
    if absent:
        logger.warning("uar: %d class(es) without samples excluded from the mean", absent)
    return float(acc[present].mean())


def war(cm: ConfusionMatrix) -> float:
    """Overall accuracy: trace over total."""
    if cm.total == 0:
        raise InvalidInputError("confusion matrix holds no samples")
    return float(np.trace(cm.counts) / cm.total)


def coexistence(dataset: LabeledDataset) -> CoexistenceMatrix:
    """Row c = componentwise mean soft label over samples with hard label c."""
    if not len(dataset):
        raise EmptyDatasetError("cannot analyze an empty dataset")
    require_resolved(dataset)
    c = dataset.class_count
    ratios = np.zeros((c, c), dtype=np.float64)
    missing = np.ones(c, dtype=bool)
    for klass in range(c):
        rows = dataset.soft[dataset.hard == klass]
        if len(rows):
            ratios[klass] = rows.mean(axis=0)
            missing[klass] = False
        else:
            logger.warning(
                "coexistence: class %r has no samples; row flagged missing",
                dataset.class_names[klass],
            )
    return CoexistenceMatrix(ratios=ratios, missing=missing)


def report(model, dataset: LabeledDataset, target_hw=(4, 4)) -> dict:
    """Full evaluation bundle of a classifier on a labeled dataset.

    Returns a JSON-ready dict: class names, per-class accuracy, UAR, WAR,
    the confusion matrix, and one record per sample pairing the model's
    posterior with the ground-truth soft label.
    """
    from .model import featurize_dataset, forward_batch  # metrics must import lazily

    if not len(dataset):
        raise EmptyDatasetError("cannot evaluate on an empty dataset")
    require_resolved(dataset)
    probs = forward_batch(model, featurize_dataset(dataset, target_hw))
    predicted = probs.argmax(axis=1)
    cm = confusion(predicted, dataset.hard, dataset.class_count)
    acc = per_class_accuracy(cm)
    columns = (dataset.ids, dataset.hard.tolist(), predicted.tolist(), probs.tolist(),
               dataset.soft.tolist())
    samples = [
        {"clip_id": i, "true_class": t, "predicted_class": p, "posterior": post, "soft_label": s}
        for i, t, p, post, s in zip(*columns)
    ]
    return {
        "class_names": list(dataset.class_names),
        "per_class_accuracy": [None if np.isnan(a) else float(a) for a in acc],
        "uar": uar(cm),
        "war": war(cm),
        "confusion": [[int(v) for v in row] for row in cm.counts],
        "samples": samples,
    }


def coexistence_to_csv(matrix: CoexistenceMatrix, class_names, path) -> None:
    if len(class_names) != matrix.ratios.shape[0]:
        raise InvalidInputError("class name count does not match the matrix")
    with open(path, "w", newline="", encoding="utf-8") as fp:
        writer = csv.writer(fp)
        writer.writerow(["class"] + list(class_names))
        for name, row in zip(class_names, matrix.ratios):
            writer.writerow([name] + [f"{v:.6f}" for v in row])
