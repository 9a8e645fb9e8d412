"""Convex mixing of clip pairs and their soft labels.

Two clips are blended frame by frame with a coefficient drawn from a
symmetric Beta distribution, and their soft labels are blended with the
same coefficient. The mixed label is optionally renormalized through a
softmax so it reads as a probability assignment rather than a raw average.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dataset import Clip, LabeledDataset, require_resolved
from .errors import EmptyDatasetError, InvalidInputError, ShapeMismatchError
from .labels import as_soft_label, softmax_rows

DEFAULT_ALPHA = 0.8

# float64 bytes per blend operand held at once; whole clips are blended in
# row chunks of about this size, so the scratch space does not grow with the batch.
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class MixCoefficient:
    """A blend weight in [0, 1] and the Beta concentration that produced it."""

    lam: float
    alpha: float

    def __post_init__(self):
        _check_lambda(self.lam)
        _check_alpha(self.alpha)


@dataclass(frozen=True, eq=False)
class MixSample:
    """One mixed training sample and the bookkeeping of how it was made."""

    clip: Clip
    label: np.ndarray
    lam: float
    source_i: str
    source_j: str
    normalized: bool = True


def _check_alpha(alpha: float) -> None:
    if not np.isfinite(alpha) or alpha <= 0.0:
        raise InvalidInputError(f"alpha must be positive, got {alpha}")


def _check_lambda(lam: float) -> None:
    if not np.isfinite(lam) or not 0.0 <= lam <= 1.0:
        raise InvalidInputError(f"lambda must lie in [0, 1], got {lam}")


def sample_lambda(alpha: float, rng: np.random.Generator) -> MixCoefficient:
    """Draw a blend weight from Beta(alpha, alpha)."""
    _check_alpha(alpha)
    return MixCoefficient(lam=float(rng.beta(alpha, alpha)), alpha=alpha)


def _blend_frames(out, frames, left, right, lams) -> None:
    """out[k] = clip(lams[k] * frames[left[k]] + (1 - lams[k]) * frames[right[k]], 0, 1).

    The blend runs in float64, which keeps the endpoints exact
    (1.0*x + 0.0*y == x), and is rounded to ``out``'s float32 on assignment.
    """
    step = max(1, _CHUNK_BYTES // (out[0].size * 8))
    for start in range(0, len(lams), step):
        rows = slice(start, start + step)
        lam = lams[rows].reshape((-1,) + (1,) * (out.ndim - 1))
        a = frames[left[rows]].astype(np.float64)
        b = frames[right[rows]].astype(np.float64)
        a *= lam
        b *= 1.0 - lam
        a += b
        out[rows] = np.clip(a, 0.0, 1.0, out=a)


def _blend_labels(labels, left, right, lams, normalize: bool) -> np.ndarray:
    """Row k is lams[k] * labels[left[k]] + (1 - lams[k]) * labels[right[k]], softmaxed if asked."""
    lam = lams[:, None]
    mixed = lam * labels[left] + (1.0 - lam) * labels[right]
    return softmax_rows(mixed) if normalize else mixed


def mix_clips(a: Clip, b: Clip, lam: float, clip_id: str | None = None) -> Clip:
    """Blend two clips frame by frame: lam * a + (1 - lam) * b.

    At lam = 1 or lam = 0 the result reproduces the surviving clip's frames
    bit for bit.
    """
    _check_lambda(lam)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"clip shapes differ: {a.shape} vs {b.shape}")
    out = np.empty((1,) + a.shape, dtype=np.float32)
    lams = np.array([lam], dtype=np.float64)
    _blend_frames(out, np.stack([a.frames, b.frames]), [0], [1], lams)
    if clip_id is None:
        clip_id = f"mix({a.clip_id},{b.clip_id})"
    return Clip(clip_id=clip_id, frames=out[0])


def mix_labels(
    y_a: np.ndarray, y_b: np.ndarray, lam: float, normalize: bool = True
) -> np.ndarray:
    """Blend two soft labels with the same weight used for the clips.

    With ``normalize`` the convex combination is passed through a softmax;
    without it the raw combination (which already sums to 1) is returned.
    """
    _check_lambda(lam)
    y_a = as_soft_label(y_a)
    y_b = as_soft_label(y_b, class_count=y_a.size)
    lams = np.array([lam], dtype=np.float64)
    return _blend_labels(np.stack([y_a, y_b]), [0], [1], lams, normalize)[0]


@dataclass(frozen=True, eq=False)
class MixedBatch:
    """Row k blends dataset entries ``left[k]`` and ``right[k]`` with weight ``lams[k]``.

    ``clips`` is (B, T, H, W, Ch) float32, ``labels`` is (B, C) float64 and
    ``ids`` names the dataset's clips by position.
    """

    clips: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)
    lams: np.ndarray
    left: np.ndarray
    right: np.ndarray
    ids: tuple[str, ...] = field(repr=False)
    normalized: bool = True

    @cached_property
    def samples(self) -> tuple[MixSample, ...]:
        """One ``MixSample`` per row, built on first access; frames and label are views."""
        ids = self.ids
        return tuple(
            MixSample(Clip(f"mix({ids[i]},{ids[j]})", self.clips[k]), self.labels[k],
                      float(self.lams[k]), ids[i], ids[j], self.normalized)
            for k, (i, j) in enumerate(zip(self.left.tolist(), self.right.tolist()))
        )


def midas_batch(
    dataset: LabeledDataset,
    batch_size: int,
    alpha: float,
    rng: np.random.Generator,
    normalize: bool = True,
) -> MixedBatch:
    """Draw ``batch_size`` mixed samples from distinct-clip pairs.

    Pairs come from full passes over a seeded permutation: within each pass,
    sample i is matched with the entry a fixed nonzero offset further along
    the permutation, so a clip is never mixed with itself. Each pass uses a
    fresh permutation and offset, and every clip appears as a left operand
    exactly once per pass. A fresh blend weight is drawn per pair. A pass
    draws its permutation, its offset, then all its weights, so a batch of
    several passes equals the one-pass batches drawn in turn.
    """
    if len(dataset) < 2:
        raise EmptyDatasetError("mixing needs at least 2 clips")
    if batch_size < 1:
        raise InvalidInputError(f"batch_size must be >= 1, got {batch_size}")
    require_resolved(dataset)
    _check_alpha(alpha)
    n = len(dataset)
    passes = []
    for start in range(0, batch_size, n):
        k = min(n, batch_size - start)
        perm = rng.permutation(n)
        offset = int(rng.integers(0, n - 1))  # step in [1, n-1] below
        right = perm[(np.arange(k) + 1 + offset) % n]
        passes.append((perm[:k], right, rng.beta(alpha, alpha, size=k)))
    left, right, lams = (np.concatenate(p) for p in zip(*passes))

    clips = np.empty((batch_size,) + dataset.clip_shape, dtype=np.float32)
    _blend_frames(clips, dataset.frames, left, right, lams)
    return MixedBatch(
        clips, _blend_labels(dataset.soft, left, right, lams, normalize), lams, left, right,
        dataset.ids, normalize,
    )
