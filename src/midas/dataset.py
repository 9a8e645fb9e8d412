"""Dataset container and its on-disk formats, splitting, and ambiguity grouping.

A dataset is persisted as one JSON manifest plus one binary file per clip.
The manifest stores only clip references and raw vote counts; soft and hard
labels are always derived from the votes on load, never stored, so the two
can never drift apart.

Manifest (JSON): top-level ``version`` (=1), ``class_names`` (length-C array
in canonical order) and ``entries``. Each entry has ``clip_id``,
``clip_file`` (path relative to the manifest), ``votes`` (C nonnegative
integers) and an optional ``scenario`` context tag. Entries may optionally
carry ``soft``/``hard`` fields written by external tools; they are
cross-checked against the derived values and rejected on mismatch.

Clip binary: magic ``MDSC``, five little-endian uint32 (T, H, W, Ch,
reserved=0), then T*H*W*Ch little-endian float32 values in frame-major,
row-major, channel-last order.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import struct
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    AmbiguousLabelError,
    EmptyClearGroupError,
    EmptyDatasetError,
    InvalidInputError,
    MalformedRecordError,
    ManifestError,
    MissingClipFileError,
    TensorShapeError,
    VoteLabelMismatchError,
)
from .labels import CLASS_NAMES, SOFT_LABEL_ATOL, VoteRecord

CLIP_MAGIC = b"MDSC"
_CLIP_HEADER = struct.Struct("<4s5I")

MANIFEST_VERSION = 1

_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class Clip:
    """A fixed-length frame sequence, shape (T, H, W, Ch), values in [0, 1]."""

    clip_id: str
    frames: np.ndarray

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float32)
        if frames.ndim != 4 or frames.shape[0] < 1:
            raise InvalidInputError(
                f"clip {self.clip_id!r}: frames must have shape (T, H, W, Ch) with T >= 1"
            )
        if not np.all(np.isfinite(frames)):
            raise InvalidInputError(f"clip {self.clip_id!r}: frames contain non-finite values")
        if float(frames.min()) < 0.0 or float(frames.max()) > 1.0:
            raise InvalidInputError(f"clip {self.clip_id!r}: frame values must lie in [0, 1]")
        object.__setattr__(self, "frames", frames)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.frames.shape


@dataclass(frozen=True, eq=False)
class DatasetEntry:
    """One labeled clip: votes plus the labels derived from them.

    ``hard`` is None while the vote counts are tied; such entries only
    occur in raw, not-yet-filtered datasets.
    """

    clip: Clip
    votes: VoteRecord
    soft: np.ndarray
    hard: int | None
    scenario: str | None = None


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Immutable columnar collection of labeled clips sharing one tensor geometry.

    Row k of ``frames`` (N, T, H, W, Ch) float32 and of ``votes`` (N, C)
    int64 is clip ``ids[k]``, tagged ``scenarios[k]`` (None when untagged).
    ``soft`` (N, C) and ``hard`` (N,) are derived from the votes on
    construction; ``hard`` is -1 where the top vote count is tied.
    """

    frames: np.ndarray = field(repr=False)
    votes: np.ndarray = field(repr=False)
    ids: tuple[str, ...] = field(repr=False)
    scenarios: tuple[str | None, ...] | None = field(default=None, repr=False)
    class_names: tuple[str, ...] = CLASS_NAMES
    provenance: str = ""
    soft: np.ndarray = field(init=False, repr=False)
    hard: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float32)
        votes = np.asarray(self.votes, dtype=np.int64)
        ids = tuple(self.ids)
        n = len(ids)
        scenarios = (None,) * n if self.scenarios is None else tuple(self.scenarios)
        class_names = tuple(self.class_names)
        if frames.ndim != 5 or min(frames.shape[1:]) < 1:
            raise InvalidInputError(
                f"frames must have shape (N, T, H, W, Ch) with T, H, W, Ch >= 1, got {frames.shape}"
            )
        if not class_names:
            raise InvalidInputError("a dataset needs at least one class name")
        if votes.ndim != 2 or len(votes) != n or len(frames) != n or len(scenarios) != n:
            raise InvalidInputError(
                f"{len(frames)} clips, votes {votes.shape} and {len(scenarios)} scenarios "
                f"for {n} clip ids"
            )
        lo = frames.min(axis=(1, 2, 3, 4))
        hi = frames.max(axis=(1, 2, 3, 4))
        totals = votes.sum(axis=1)
        _reject_first(
            ids, np.full(n, votes.shape[1] != len(class_names)),
            f"vote vector length {votes.shape[1]} != C={len(class_names)}",
        )
        _reject_first(ids, ~(np.isfinite(lo) & np.isfinite(hi)), "frames contain non-finite values")
        _reject_first(ids, (lo < 0.0) | (hi > 1.0), "frame values must lie in [0, 1]")
        _reject_first(ids, (votes < 0).any(axis=1), "vote counts must be nonnegative")
        _reject_first(ids, totals < 1, "vote record must contain at least one vote")
        top = votes.max(axis=1)
        unique = np.count_nonzero(votes == top[:, None], axis=1) == 1
        for name, value in (
            ("frames", frames), ("votes", votes), ("ids", ids), ("scenarios", scenarios),
            ("class_names", class_names),
            ("soft", votes / totals[:, None]),
            ("hard", np.where(unique, votes.argmax(axis=1), -1)),
        ):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def class_count(self) -> int:
        return len(self.class_names)

    @property
    def clip_shape(self) -> tuple[int, int, int, int] | None:
        return self.frames.shape[1:] if len(self) else None

    @cached_property
    def entries(self) -> tuple[DatasetEntry, ...]:
        """One ``DatasetEntry`` per clip, built on first access; frames and labels are views."""
        columns = (self.ids, self.frames, self.votes, self.soft, self.hard.tolist(),
                   self.scenarios)
        return tuple(
            DatasetEntry(Clip(i, f), VoteRecord(v), s, h if h >= 0 else None, sc)
            for i, f, v, s, h, sc in zip(*columns)
        )

    def subset(self, indices) -> "LabeledDataset":
        """The clips at ``indices``, in that order; pixels are copied."""
        rows = np.asarray(indices, dtype=np.intp)
        return replace(
            self, frames=self.frames[rows], votes=self.votes[rows],
            ids=tuple(self.ids[k] for k in rows.tolist()),
            scenarios=tuple(self.scenarios[k] for k in rows.tolist()),
        )


def _reject_first(ids, bad, problem: str, error=InvalidInputError) -> None:
    """Raise ``error`` naming the first clip flagged in ``bad``."""
    rows = np.flatnonzero(bad)
    if rows.size:
        raise error(f"clip {ids[rows[0]]!r}: {problem}")


@dataclass(frozen=True, eq=False)
class SplitPair:
    """A stratified train/validation division and the seed that produced it."""

    train: LabeledDataset
    validation: LabeledDataset
    seed: int


def build_dataset(
    clips, vote_records, class_names=CLASS_NAMES, provenance: str = "", scenarios=None
) -> LabeledDataset:
    """Assemble a dataset from parallel ``Clip`` and ``VoteRecord`` sequences."""
    clips = list(clips)
    vote_records = list(vote_records)
    if len(clips) != len(vote_records):
        raise InvalidInputError("clips and vote records differ in length")
    ids = tuple(c.clip_id for c in clips)
    shape = clips[0].shape if clips else (1, 1, 1, 1)
    _reject_first(ids, [c.shape != shape for c in clips],
                  f"clip tensor differs from dataset tensor {shape}", TensorShapeError)
    _reject_first(ids, [v.counts.size != len(class_names) for v in vote_records],
                  f"vote vector length differs from C={len(class_names)}")
    frames = np.array([c.frames for c in clips], dtype=np.float32)
    votes = np.array([v.counts for v in vote_records], dtype=np.int64)
    return LabeledDataset(
        frames.reshape((len(ids),) + shape), votes.reshape(len(ids), len(class_names)),
        ids, scenarios, class_names=tuple(class_names), provenance=provenance,
    )


def require_resolved(dataset: LabeledDataset) -> None:
    """Raise if any clip still has a tied vote maximum (hard label -1)."""
    _reject_first(dataset.ids, dataset.hard < 0,
                  "tied votes; run filter_unresolved first", AmbiguousLabelError)


def hard_relabeled(dataset: LabeledDataset) -> LabeledDataset:
    """Same clips (sharing ``frames``), votes collapsed onto each clip's hard class."""
    require_resolved(dataset)
    votes = np.zeros_like(dataset.votes)
    votes[np.arange(len(dataset)), dataset.hard] = dataset.votes.sum(axis=1)
    return replace(dataset, votes=votes)


# ---------------------------------------------------------------------------
# Clip binary I/O
# ---------------------------------------------------------------------------

def write_clip_file(frames: np.ndarray, path: Path) -> None:
    t, h, w, ch = frames.shape
    payload = np.ascontiguousarray(frames, dtype="<f4").tobytes()
    with open(path, "wb") as fp:
        fp.write(_CLIP_HEADER.pack(CLIP_MAGIC, t, h, w, ch, 0))
        fp.write(payload)


def read_clip_file(path: Path, clip_id: str) -> np.ndarray:
    raw = path.read_bytes()
    if len(raw) < _CLIP_HEADER.size:
        raise MalformedRecordError("clip file too short for header", clip_id=clip_id)
    magic, t, h, w, ch, reserved = _CLIP_HEADER.unpack_from(raw)
    if magic != CLIP_MAGIC:
        raise MalformedRecordError(f"bad clip magic {magic!r}", clip_id=clip_id)
    if reserved != 0:
        raise MalformedRecordError("reserved header field must be 0", clip_id=clip_id)
    expected = t * h * w * ch * 4
    body = raw[_CLIP_HEADER.size:]
    if len(body) != expected:
        raise MalformedRecordError(
            f"clip payload is {len(body)} bytes, header implies {expected}",
            clip_id=clip_id,
        )
    return np.frombuffer(body, dtype="<f4").reshape(t, h, w, ch)


# ---------------------------------------------------------------------------
# Manifest I/O
# ---------------------------------------------------------------------------

def save_manifest(dataset: LabeledDataset, path) -> None:
    """Write the manifest and one clip binary per entry.

    Clip files are named by entry position under ``<stem>_clips/`` next to
    the manifest, so saving the same dataset twice is byte-identical.
    Numbered clip files left over from a larger dataset are deleted. The
    manifest is written to a temporary file and then moved over ``path``, so
    a failed write leaves the previous manifest intact. Labels are never
    written; the optional ``scenario`` tag is preserved.
    """
    path = Path(path)
    clips_name = f"{path.stem}_clips"
    clips_dir = path.parent / clips_name
    clips_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for k, (clip_id, frames, votes, scenario) in enumerate(
        zip(dataset.ids, dataset.frames, dataset.votes.tolist(), dataset.scenarios)
    ):
        rel = f"{clips_name}/{k:05d}.mdsc"
        write_clip_file(frames, path.parent / rel)
        record: dict = {"clip_id": clip_id, "clip_file": rel, "votes": votes}
        if scenario is not None:
            record["scenario"] = scenario
        records.append(record)
    doc = {"version": MANIFEST_VERSION, "class_names": list(dataset.class_names),
           "entries": records}
    tmp = path.with_name(f"{path.name}.tmp")
    try:
        tmp.write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    for stale in clips_dir.glob("*.mdsc"):
        if stale.stem.isdigit() and int(stale.stem) >= len(dataset):
            stale.unlink()


def load_manifest(path) -> LabeledDataset:
    """Load a manifest, read its clip binaries, and derive all labels.

    Stored ``soft``/``hard`` fields, when present, are cross-checked against
    the values derived from the votes and rejected on disagreement.
    """
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"manifest not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedRecordError(f"cannot parse manifest {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != MANIFEST_VERSION:
        raise MalformedRecordError(
            f"unsupported manifest version {doc.get('version')!r}" if isinstance(doc, dict)
            else "manifest root must be an object"
        )
    class_names = doc.get("class_names")
    if not isinstance(class_names, list) or not all(isinstance(n, str) for n in class_names):
        raise MalformedRecordError("class_names must be an array of strings")
    class_count = len(class_names)
    raw_entries = doc.get("entries")
    if not isinstance(raw_entries, list):
        raise MalformedRecordError("entries must be an array")

    n = len(raw_entries)
    frames = np.empty((n, 1, 1, 1, 1), dtype=np.float32)  # reshaped by the first clip
    votes = np.empty((n, class_count), dtype=np.int64)
    ids, scenarios, stored = [], [], []
    for k, record in enumerate(raw_entries):
        if not isinstance(record, dict):
            raise MalformedRecordError(f"entry #{k} is not an object")
        clip_id = record.get("clip_id")
        if not isinstance(clip_id, str) or not clip_id:
            raise MalformedRecordError(f"entry #{k} lacks a clip_id")
        clip_file = record.get("clip_file")
        if not isinstance(clip_file, str):
            raise MalformedRecordError("clip_file missing or not a string", clip_id=clip_id)
        votes_raw = record.get("votes")
        if (
            not isinstance(votes_raw, list)
            or len(votes_raw) != class_count
            or not all(type(v) is int and v >= 0 for v in votes_raw)
        ):
            raise MalformedRecordError(
                f"votes must be {class_count} nonnegative integers", clip_id=clip_id
            )
        if sum(votes_raw) > _INT64_MAX:  # the counts are nonnegative, so each one fits too
            raise MalformedRecordError("vote counts overflow a 64-bit integer", clip_id=clip_id)
        scenario = record.get("scenario")
        if scenario is not None and not isinstance(scenario, str):
            raise MalformedRecordError("scenario must be a string", clip_id=clip_id)
        stored_soft = record.get("soft")
        if stored_soft is not None and not (  # NaN, infinities and booleans fail too
            isinstance(stored_soft, list) and len(stored_soft) == class_count
            and all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in stored_soft)
        ):
            raise MalformedRecordError(f"soft must be {class_count} finite numbers", clip_id=clip_id)

        clip_path = path.parent / clip_file
        if not clip_path.is_file():
            raise MissingClipFileError(f"clip file not found: {clip_file}", clip_id=clip_id)
        clip = read_clip_file(clip_path, clip_id)
        if k == 0:
            frames = np.empty((n,) + clip.shape, dtype=np.float32)
        elif clip.shape != frames.shape[1:]:
            raise TensorShapeError(
                f"clip tensor {clip.shape} differs from dataset tensor {frames.shape[1:]}",
                clip_id=clip_id,
            )
        frames[k] = clip
        votes[k] = votes_raw
        ids.append(clip_id)
        scenarios.append(scenario)
        if "soft" in record or "hard" in record:
            stored.append((k, stored_soft, record.get("hard")))

    try:
        dataset = LabeledDataset(
            frames, votes, tuple(ids), tuple(scenarios),
            class_names=tuple(class_names), provenance=path.name,
        )
    except InvalidInputError as exc:
        raise MalformedRecordError(str(exc)) from exc
    for k, stored_soft, stored_hard in stored:
        derived = int(dataset.hard[k]) if dataset.hard[k] >= 0 else None
        if stored_soft is not None and np.max(
            np.abs(np.asarray(stored_soft, dtype=np.float64) - dataset.soft[k])
        ) > SOFT_LABEL_ATOL:
            raise VoteLabelMismatchError(
                "stored soft label disagrees with the vote average", clip_id=ids[k]
            )
        if stored_hard is not None and not (type(stored_hard) is int and stored_hard == derived):
            raise VoteLabelMismatchError(
                f"stored hard label {stored_hard} disagrees with derived {derived}",
                clip_id=ids[k],
            )
    return dataset


# ---------------------------------------------------------------------------
# Splitting and grouping
# ---------------------------------------------------------------------------

def seeded_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)`` for an integer seed >= 0; anything else is an
    InvalidInputError."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise InvalidInputError(f"seed must be an int >= 0, got {seed!r}")
    return np.random.default_rng(seed)


def stratified_split(dataset: LabeledDataset, ratio: float, seed: int) -> SplitPair:
    """Split into train/validation, preserving per-class proportions.

    Each hard class with n samples contributes round(ratio * n) of them to
    the train side, chosen by a seeded shuffle; the rest go to validation.
    Entry order within each side follows the input dataset.
    """
    if not len(dataset):
        raise EmptyDatasetError("cannot split an empty dataset")
    if not 0.0 < ratio < 1.0:
        raise InvalidInputError(f"split ratio must lie in (0, 1), got {ratio}")
    require_resolved(dataset)
    rng = seeded_rng(seed)
    is_train = np.zeros(len(dataset), dtype=bool)
    for c in range(dataset.class_count):
        idx = np.flatnonzero(dataset.hard == c)
        if not idx.size:
            continue
        perm = rng.permutation(idx.size)
        n_train = int(math.floor(ratio * idx.size + 0.5))
        is_train[idx[perm[:n_train]]] = True
    return SplitPair(
        train=dataset.subset(np.flatnonzero(is_train)),
        validation=dataset.subset(np.flatnonzero(~is_train)),
        seed=seed,
    )


def _proportional_targets(counts: np.ndarray, size: int) -> np.ndarray:
    """Apportion ``size`` slots to classes in proportion to ``counts``.

    Largest-remainder rounding; ties broken toward lower class indices so
    the result is deterministic. Every target is within one of exact
    proportionality.
    """
    total = int(counts.sum())
    quota = counts * (size / total)
    targets = np.floor(quota).astype(np.int64)
    remainder = quota - targets
    short = size - int(targets.sum())
    targets[np.lexsort((np.arange(len(counts)), -remainder))[:short]] += 1
    return targets


def _resample_to_targets(dataset, rows, targets, rng) -> np.ndarray:
    """Per class, oversample (with replacement) or downsample ``rows`` to the target."""
    out = []
    for c, target in enumerate(targets):
        if target == 0:
            continue
        have = rows[dataset.hard[rows] == c]
        if not have.size:
            raise EmptyClearGroupError(
                f"group holds no sample of class {dataset.class_names[c]!r}; "
                "cannot match the input class distribution"
            )
        if target <= have.size:
            picks = np.sort(rng.choice(have.size, size=int(target), replace=False))
        else:
            extra = rng.choice(have.size, size=int(target) - have.size, replace=True)
            picks = np.concatenate([np.arange(have.size), np.sort(extra)])
        out.append(have[picks])
    return np.concatenate(out)


def partition_by_ambiguity(
    dataset: LabeledDataset,
    threshold: float,
    balance: bool,
    seed: int,
    group_size: int | None = None,
) -> tuple[LabeledDataset, LabeledDataset]:
    """Divide into a clear-expression group and a mixed-expression group.

    ``clear`` holds the entries whose maximum soft-label component strictly
    exceeds ``threshold``; ``mixed`` is a same-size uniform sample (without
    replacement) of the whole dataset, regardless of soft values. With
    ``balance`` set, both groups are resampled (duplicating to oversample,
    seeded subsampling to downsample) so their per-class distributions match
    the input dataset's and both have ``group_size`` entries
    (default: the clear group's size).
    """
    if not 0.0 <= threshold <= 1.0:
        raise InvalidInputError(f"threshold must lie in [0, 1], got {threshold}")
    if not len(dataset):
        raise EmptyDatasetError("cannot partition an empty dataset")
    require_resolved(dataset)
    rng = seeded_rng(seed)

    clear = np.flatnonzero(dataset.soft.max(axis=1) > threshold)
    if not clear.size:
        raise EmptyClearGroupError(f"no sample has max soft label > {threshold}")
    size = clear.size if group_size is None else int(group_size)
    if size < 1 or size > len(dataset):
        raise InvalidInputError(f"group size {size} outside [1, {len(dataset)}]")
    mixed = np.sort(rng.choice(len(dataset), size=size, replace=False))

    if balance:
        targets = _proportional_targets(
            np.bincount(dataset.hard, minlength=dataset.class_count), size
        )
        clear = _resample_to_targets(dataset, clear, targets, rng)
        mixed = _resample_to_targets(dataset, mixed, targets, rng)
    return dataset.subset(clear), dataset.subset(mixed)


def max_vote_histogram(dataset: LabeledDataset) -> np.ndarray:
    """Histogram of the per-clip maximum vote count.

    Bucket ``k`` counts the clips whose most-voted class received exactly
    ``k`` votes; the buckets sum to the dataset size.
    """
    return np.bincount(dataset.votes.max(axis=1), minlength=1).astype(np.int64)
