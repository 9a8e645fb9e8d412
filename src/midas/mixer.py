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
from .errors import EmptyDatasetError, ShapeMismatchError, check_number
from .labels import as_soft_label, softmax_rows

DEFAULT_ALPHA = 0.8

# float64 bytes per blend operand held at once; whole clips are blended in
# row chunks of about this size, so the scratch space does not grow with the batch.
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class MixCoefficient:
    """A blend weight in [0, 1]."""

    lam: float

    def __post_init__(self):
        check_number("lam", self.lam, 0, 1)


@dataclass(frozen=True, eq=False)
class MixSample:
    """One mixed training sample and the bookkeeping of how it was made."""

    clip: Clip
    label: np.ndarray
    lam: float
    source_i: str
    source_j: str


def sample_lambda(alpha: float, rng: np.random.Generator) -> MixCoefficient:
    """Draw a blend weight from Beta(alpha, alpha)."""
    check_number("alpha", alpha, 0, open=True)
    return MixCoefficient(lam=float(rng.beta(alpha, alpha)))


def _blend_chunks(frames, left, right, lams):
    """Blend pairs of ``frames`` chunk by chunk; yields (rows, block) per chunk.

    The row slices are consecutive and cover ``lams``. For r = rows.start + k,
    block[k] = clip(lams[r] * frames[left[r]] + (1 - lams[r]) * frames[right[r]], 0, 1).
    The blend runs in float64, which keeps the endpoints exact
    (1.0*x + 0.0*y == x), and is rounded to float32 in ``block``. The scratch
    space and the block are reused from one chunk to the next, so they do not
    grow with the batch, and a block is only valid until the next one.
    """
    step = max(1, _CHUNK_BYTES // (frames[0].size * 8))
    shape = (min(step, len(lams)),) + frames.shape[1:]
    a, b = np.empty(shape), np.empty(shape)
    block = np.empty(shape, dtype=np.float32)
    for start in range(0, len(lams), step):
        rows = slice(start, start + step)
        lam = lams[rows].reshape((-1,) + (1,) * (frames.ndim - 1))
        m = len(lam)
        np.multiply(frames[left[rows]], lam, out=a[:m])
        np.multiply(frames[right[rows]], 1.0 - lam, out=b[:m])
        a[:m] += b[:m]
        yield rows, np.clip(a[:m], 0.0, 1.0, out=block[:m])


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
    check_number("lam", lam, 0, 1)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"clip shapes differ: {a.shape} vs {b.shape}")
    lams = np.array([lam], dtype=np.float64)
    _, out = next(_blend_chunks(np.stack([a.frames, b.frames]), [0], [1], lams))
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
    check_number("lam", lam, 0, 1)
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

    @cached_property
    def samples(self) -> tuple[MixSample, ...]:
        """One ``MixSample`` per row, built on first access; frames and label are views."""
        ids = self.ids
        return tuple(
            MixSample(Clip(f"mix({ids[i]},{ids[j]})", self.clips[k]), self.labels[k],
                      float(self.lams[k]), ids[i], ids[j])
            for k, (i, j) in enumerate(zip(self.left.tolist(), self.right.tolist()))
        )


def draw_pairs(
    dataset: LabeledDataset, batch_size: int, alpha: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows and weights of ``batch_size`` mixed samples: (left, right, lams).

    Pairs come from full passes over a seeded permutation: within each pass,
    sample i is matched with the entry a fixed nonzero offset further along
    the permutation, so a clip is never mixed with itself. Each pass uses a
    fresh permutation and offset, and every clip appears as a left operand
    exactly once per pass. A fresh blend weight is drawn per pair. A pass
    draws its permutation, its offset, then all its weights, so a draw of
    several passes equals the one-pass draws made in turn.
    """
    if len(dataset) < 2:
        raise EmptyDatasetError("mixing needs at least 2 clips")
    batch_size = check_number("batch_size", batch_size, 1, integral=True)
    require_resolved(dataset)
    check_number("alpha", alpha, 0, open=True)
    n = len(dataset)
    passes = []
    for start in range(0, batch_size, n):
        k = min(n, batch_size - start)
        perm = rng.permutation(n)
        offset = int(rng.integers(0, n - 1))  # step in [1, n-1] below
        right = perm[(np.arange(k) + 1 + offset) % n]
        passes.append((perm[:k], right, rng.beta(alpha, alpha, size=k)))
    left, right, lams = (np.concatenate(p) for p in zip(*passes))
    return left, right, lams


def midas_batch(
    dataset: LabeledDataset,
    batch_size: int,
    alpha: float,
    rng: np.random.Generator,
    normalize: bool = True,
) -> MixedBatch:
    """Draw ``batch_size`` mixed samples from distinct-clip pairs.

    The pairs and weights are those of ``draw_pairs``; each pair's clips and
    soft labels are blended with its weight.
    """
    left, right, lams = draw_pairs(dataset, batch_size, alpha, rng)
    clips = np.empty((batch_size,) + dataset.clip_shape, dtype=np.float32)
    for rows, block in _blend_chunks(dataset.frames, left, right, lams):
        clips[rows] = block
    return MixedBatch(
        clips, _blend_labels(dataset.soft, left, right, lams, normalize), lams, left, right,
        dataset.ids,
    )
