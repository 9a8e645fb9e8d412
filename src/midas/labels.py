"""Soft labels from annotator votes.

A soft label is a probability vector over the emotion classes, obtained by
averaging the one-hot votes of several annotators. This module builds soft
labels from vote tallies, extracts hard labels, filters unresolved ties,
re-normalizes vectors with a softmax, and splits a soft label into its
correct-vote and wrong-vote components.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import AmbiguousLabelError, InvalidInputError, check_number

if TYPE_CHECKING:
    from .dataset import LabeledDataset

logger = logging.getLogger(__name__)

#: Canonical class order used by every vector, file, and report.
CLASS_NAMES = ("Happy", "Sad", "Neutral", "Angry", "Surprise", "Disgust", "Fear")
NUM_CLASSES = len(CLASS_NAMES)

#: Agreement tolerance between a stored soft label and the vote average.
SOFT_LABEL_ATOL = 1e-9

#: Floor applied to a probability before its logarithm is taken.
LOG_CLAMP = 1e-12


@dataclass(frozen=True, eq=False)
class VoteRecord:
    """Per-clip vote tally: one nonnegative count per class, at least one vote."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.dtype.kind not in "iu":  # floats would truncate; bools are not counts
            raise InvalidInputError(f"vote counts must be integers, got dtype {counts.dtype}")
        counts = counts.astype(np.int64, copy=False)
        if counts.ndim != 1 or counts.size < 1:
            raise InvalidInputError("vote counts must be a nonempty 1-d vector")
        if np.any(counts < 0):
            raise InvalidInputError("vote counts must be nonnegative")
        if int(counts.sum()) < 1:
            raise InvalidInputError("vote record must contain at least one vote")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        """Number of annotators that voted on this clip."""
        return int(self.counts.sum())


@dataclass(frozen=True, eq=False)
class LabelDecomposition:
    """A soft label split into its correct and wrong vote shares.

    ``correct_count`` is the number of votes on the true class;
    ``wrong_mass`` is the per-class share of the remaining votes (zero at
    the true class), so that
    ``(correct_count / total) * onehot(true) + wrong_mass`` reconstructs
    the soft label.
    """

    correct_count: int
    wrong_mass: np.ndarray


def one_hot(index: int, class_count: int) -> np.ndarray:
    """One-hot probability vector with a 1 at ``index``."""
    class_count = check_number("class_count", class_count, 1, integral=True)
    index = check_number("index", index, 0, class_count - 1, integral=True)
    vec = np.zeros(class_count, dtype=np.float64)
    vec[index] = 1.0
    return vec


def as_soft_label(vec, class_count: int | None = None) -> np.ndarray:
    """Validate and return ``vec`` as a probability vector (float64 copy)."""
    probs = np.asarray(vec, dtype=np.float64)
    if probs.ndim != 1:
        raise InvalidInputError("soft label must be a 1-d vector")
    if class_count is not None and probs.size != class_count:
        raise InvalidInputError(
            f"soft label has {probs.size} components, expected {class_count}"
        )
    if not np.all(np.isfinite(probs)) or np.any(probs < 0):
        raise InvalidInputError("soft label components must be finite and nonnegative")
    if abs(float(probs.sum()) - 1.0) > SOFT_LABEL_ATOL:
        raise InvalidInputError(f"soft label sums to {probs.sum()!r}, expected 1")
    return probs


def aggregate_votes(votes: VoteRecord) -> np.ndarray:
    """Average the annotators' one-hot votes into a soft label.

    Component ``c`` of the result is ``counts[c] / total``.
    """
    return votes.counts / votes.total


def hard_label_of(soft: np.ndarray) -> int:
    """Index of the strictly unique maximum component of a soft label.

    Raises :class:`AmbiguousLabelError` on a tied maximum; callers are
    expected to have removed ties with :func:`filter_unresolved`.
    """
    soft = np.asarray(soft, dtype=np.float64)
    top = np.flatnonzero(soft == soft.max())
    if top.size != 1:
        raise AmbiguousLabelError(
            f"no strictly unique maximum: classes {top.tolist()} are tied"
        )
    return int(top[0])


def filter_unresolved(dataset: "LabeledDataset") -> "LabeledDataset":
    """Drop every clip whose vote counts lack a strictly unique maximum.

    Relative order of the surviving entries is preserved. Idempotent: a
    dataset without ties comes back as is, without copying its pixels.
    """
    kept = np.flatnonzero(dataset.hard >= 0)
    removed = len(dataset) - kept.size
    if not removed:
        return dataset
    logger.info("filter_unresolved removed %d tied clip(s)", removed)
    return dataset.subset(kept)


def renormalize_softmax(vec) -> np.ndarray:
    """Softmax of a finite 1-d ``vec``: ``exp(v_c) / sum_k exp(v_k)``, as in ``softmax_rows``."""
    v = np.asarray(vec, dtype=np.float64)
    if v.ndim != 1 or not np.all(np.isfinite(v)):
        raise InvalidInputError("softmax input must be a finite 1-d vector")
    return softmax_rows(v[None, :])[0]


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a (B, C) matrix; each row is max-shifted so exp cannot overflow."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def decompose(soft: np.ndarray, votes: VoteRecord, true_class: int) -> LabelDecomposition:
    """Split ``soft`` into correct-vote and wrong-vote components.

    With ``l`` votes on ``true_class`` out of ``S`` total, the soft label
    equals ``(l/S) * onehot(true_class) + wrong_mass`` where ``wrong_mass``
    carries the remaining votes. ``l`` is read off the vote counts; the
    pair must be consistent (``aggregate_votes(votes) == soft``).
    """
    soft = np.asarray(soft, dtype=np.float64)
    derived = aggregate_votes(votes)
    if soft.shape != derived.shape or np.max(np.abs(soft - derived)) > SOFT_LABEL_ATOL:
        raise InvalidInputError("soft label is inconsistent with the vote record")
    true_class = check_number("true_class", true_class, 0, votes.counts.size - 1, integral=True)
    correct = int(votes.counts[true_class])
    wrong = votes.counts / votes.total
    wrong[true_class] = 0.0
    return LabelDecomposition(correct_count=correct, wrong_mass=wrong)
