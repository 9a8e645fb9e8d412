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
import logging
import math
import struct
from dataclasses import dataclass, replace
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
from .labels import (
    CLASS_NAMES,
    NUM_CLASSES,
    SOFT_LABEL_ATOL,
    VoteRecord,
    aggregate_votes,
    has_unique_max,
    hard_label_of,
)

logger = logging.getLogger(__name__)

CLIP_MAGIC = b"MDSC"
_CLIP_HEADER = struct.Struct("<4s5I")

MANIFEST_VERSION = 1


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
    """Immutable collection of labeled clips sharing one tensor geometry."""

    entries: tuple[DatasetEntry, ...]
    class_count: int = NUM_CLASSES
    class_names: tuple[str, ...] = CLASS_NAMES
    provenance: str = ""

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if len(self.class_names) != self.class_count:
            raise InvalidInputError(
                f"{len(self.class_names)} class names for class_count={self.class_count}"
            )
        shape = None
        for e in entries:
            if e.votes.counts.size != self.class_count:
                raise InvalidInputError(
                    f"clip {e.clip.clip_id!r}: vote vector length {e.votes.counts.size} != C={self.class_count}"
                )
            derived = aggregate_votes(e.votes)
            if np.max(np.abs(e.soft - derived)) > SOFT_LABEL_ATOL:
                raise InvalidInputError(
                    f"clip {e.clip.clip_id!r}: soft label disagrees with vote average"
                )
            expected_hard = hard_label_of(derived) if has_unique_max(e.votes.counts) else None
            if e.hard != expected_hard:
                raise InvalidInputError(
                    f"clip {e.clip.clip_id!r}: hard label {e.hard} != derived {expected_hard}"
                )
            if shape is None:
                shape = e.clip.shape
            elif e.clip.shape != shape:
                raise TensorShapeError(
                    f"clip tensor {e.clip.shape} differs from dataset tensor {shape}",
                    clip_id=e.clip.clip_id,
                )

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def clip_shape(self) -> tuple[int, int, int, int] | None:
        return self.entries[0].clip.shape if self.entries else None

    def subset(self, indices) -> "LabeledDataset":
        return replace(self, entries=tuple(self.entries[i] for i in indices))


@dataclass(frozen=True, eq=False)
class SplitPair:
    """A stratified train/validation division and the seed that produced it."""

    train: LabeledDataset
    validation: LabeledDataset
    seed: int


def make_entry(clip: Clip, votes: VoteRecord, scenario: str | None = None) -> DatasetEntry:
    """Build an entry with labels derived from the votes (hard=None on ties)."""
    soft = aggregate_votes(votes)
    hard = hard_label_of(soft) if has_unique_max(votes.counts) else None
    return DatasetEntry(clip=clip, votes=votes, soft=soft, hard=hard, scenario=scenario)


def build_dataset(
    clips,
    vote_records,
    class_names=CLASS_NAMES,
    provenance: str = "",
    scenarios=None,
) -> LabeledDataset:
    """Assemble a dataset from parallel clip and vote sequences."""
    clips = list(clips)
    vote_records = list(vote_records)
    if len(clips) != len(vote_records):
        raise InvalidInputError("clips and vote records differ in length")
    if scenarios is None:
        scenarios = [None] * len(clips)
    entries = tuple(
        make_entry(c, v, s) for c, v, s in zip(clips, vote_records, scenarios)
    )
    return LabeledDataset(
        entries=entries,
        class_count=len(class_names),
        class_names=tuple(class_names),
        provenance=provenance,
    )


def require_resolved(dataset: LabeledDataset) -> None:
    """Raise if any entry still has a tied vote maximum (hard label None)."""
    for e in dataset.entries:
        if e.hard is None:
            raise AmbiguousLabelError(
                f"clip {e.clip.clip_id!r} has tied votes; run filter_unresolved first"
            )


def hard_relabeled(dataset: LabeledDataset) -> LabeledDataset:
    """Same clips, votes collapsed onto each entry's hard class (one-hot soft)."""
    require_resolved(dataset)
    entries = []
    for e in dataset.entries:
        counts = np.zeros(dataset.class_count, dtype=np.int64)
        counts[e.hard] = e.votes.total
        entries.append(make_entry(e.clip, VoteRecord(counts), e.scenario))
    return replace(dataset, entries=tuple(entries))


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
    frames = np.frombuffer(body, dtype="<f4").reshape(t, h, w, ch)
    return frames


# ---------------------------------------------------------------------------
# Manifest I/O
# ---------------------------------------------------------------------------

def _clips_dirname(manifest_path: Path) -> str:
    return f"{manifest_path.stem}_clips"


def save_manifest(dataset: LabeledDataset, path) -> None:
    """Write the manifest and one clip binary per entry.

    Clip files are named by entry position under ``<stem>_clips/`` next to
    the manifest, so saving the same dataset twice is byte-identical.
    Labels are never written; the optional ``scenario`` tag is preserved.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    clips_dir = path.parent / _clips_dirname(path)
    clips_dir.mkdir(exist_ok=True)
    records = []
    for k, e in enumerate(dataset.entries):
        rel = f"{_clips_dirname(path)}/{k:05d}.mdsc"
        write_clip_file(e.clip.frames, path.parent / rel)
        record: dict = {
            "clip_id": e.clip.clip_id,
            "clip_file": rel,
            "votes": [int(v) for v in e.votes.counts],
        }
        if e.scenario is not None:
            record["scenario"] = e.scenario
        records.append(record)
    doc = {
        "version": MANIFEST_VERSION,
        "class_names": list(dataset.class_names),
        "entries": records,
    }
    path.write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


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

    entries = []
    shape = None
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
            or not all(isinstance(v, int) and v >= 0 for v in votes_raw)
        ):
            raise MalformedRecordError(
                f"votes must be {class_count} nonnegative integers", clip_id=clip_id
            )
        scenario = record.get("scenario")
        if scenario is not None and not isinstance(scenario, str):
            raise MalformedRecordError("scenario must be a string", clip_id=clip_id)

        clip_path = path.parent / clip_file
        if not clip_path.is_file():
            raise MissingClipFileError(f"clip file not found: {clip_file}", clip_id=clip_id)
        frames = read_clip_file(clip_path, clip_id)
        if shape is None:
            shape = frames.shape
        elif frames.shape != shape:
            raise TensorShapeError(
                f"clip tensor {frames.shape} differs from dataset tensor {shape}",
                clip_id=clip_id,
            )

        try:
            votes = VoteRecord(np.asarray(votes_raw, dtype=np.int64))
            clip = Clip(clip_id=clip_id, frames=frames)
        except InvalidInputError as exc:
            raise MalformedRecordError(str(exc), clip_id=clip_id) from exc
        entry = make_entry(clip, votes, scenario)

        stored_soft = record.get("soft")
        if stored_soft is not None:
            stored_soft = np.asarray(stored_soft, dtype=np.float64)
            if stored_soft.shape != entry.soft.shape or np.max(
                np.abs(stored_soft - entry.soft)
            ) > SOFT_LABEL_ATOL:
                raise VoteLabelMismatchError(
                    "stored soft label disagrees with the vote average", clip_id=clip_id
                )
        stored_hard = record.get("hard")
        if stored_hard is not None and stored_hard != entry.hard:
            raise VoteLabelMismatchError(
                f"stored hard label {stored_hard} disagrees with derived {entry.hard}",
                clip_id=clip_id,
            )
        entries.append(entry)

    return LabeledDataset(
        entries=tuple(entries),
        class_count=class_count,
        class_names=tuple(class_names),
        provenance=path.name,
    )


# ---------------------------------------------------------------------------
# Splitting and grouping
# ---------------------------------------------------------------------------

def stratified_split(dataset: LabeledDataset, ratio: float, seed: int) -> SplitPair:
    """Split into train/validation, preserving per-class proportions.

    Each hard class with n samples contributes round(ratio * n) of them to
    the train side, chosen by a seeded shuffle; the rest go to validation.
    Entry order within each side follows the input dataset.
    """
    if not dataset.entries:
        raise EmptyDatasetError("cannot split an empty dataset")
    if not 0.0 < ratio < 1.0:
        raise InvalidInputError(f"split ratio must lie in (0, 1), got {ratio}")
    require_resolved(dataset)
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    for c in range(dataset.class_count):
        idx = [i for i, e in enumerate(dataset.entries) if e.hard == c]
        if not idx:
            continue
        perm = rng.permutation(len(idx))
        n_train = int(math.floor(ratio * len(idx) + 0.5))
        train_idx.extend(idx[p] for p in perm[:n_train])
    train_set = set(train_idx)
    train = dataset.subset(sorted(train_set))
    val = dataset.subset(i for i in range(len(dataset.entries)) if i not in train_set)
    return SplitPair(train=train, validation=val, seed=seed)


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
    if short > 0:
        order = np.lexsort((np.arange(len(counts)), -remainder))
        for c in order[:short]:
            targets[c] += 1
    return targets


def _resample_to_targets(dataset, entries, targets, rng) -> list:
    """Per class, oversample (with replacement) or downsample to the target."""
    out = []
    for c, target in enumerate(targets):
        if target == 0:
            continue
        have = [e for e in entries if e.hard == c]
        if not have:
            raise EmptyClearGroupError(
                f"group holds no sample of class {dataset.class_names[c]!r}; "
                "cannot match the input class distribution"
            )
        if target <= len(have):
            picks = sorted(rng.choice(len(have), size=int(target), replace=False).tolist())
        else:
            extra = rng.choice(len(have), size=int(target) - len(have), replace=True)
            picks = list(range(len(have))) + sorted(extra.tolist())
        out.extend(have[p] for p in picks)
    return out


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
    if not dataset.entries:
        raise EmptyDatasetError("cannot partition an empty dataset")
    require_resolved(dataset)
    rng = np.random.default_rng(seed)

    clear_entries = [e for e in dataset.entries if float(e.soft.max()) > threshold]
    if not clear_entries:
        raise EmptyClearGroupError(f"no sample has max soft label > {threshold}")
    size = len(clear_entries) if group_size is None else int(group_size)
    if size < 1 or size > len(dataset.entries):
        raise InvalidInputError(
            f"group size {size} outside [1, {len(dataset.entries)}]"
        )
    mixed_idx = sorted(rng.choice(len(dataset.entries), size=size, replace=False).tolist())
    mixed_entries = [dataset.entries[i] for i in mixed_idx]

    if balance:
        class_counts = np.bincount(
            [e.hard for e in dataset.entries], minlength=dataset.class_count
        )
        targets = _proportional_targets(class_counts, size)
        clear_entries = _resample_to_targets(dataset, clear_entries, targets, rng)
        mixed_entries = _resample_to_targets(dataset, mixed_entries, targets, rng)

    clear = replace(dataset, entries=tuple(clear_entries))
    mixed = replace(dataset, entries=tuple(mixed_entries))
    return clear, mixed


def max_vote_histogram(dataset: LabeledDataset) -> np.ndarray:
    """Histogram of the per-clip maximum vote count.

    Bucket ``k`` counts the clips whose most-voted class received exactly
    ``k`` votes; the buckets sum to the dataset size.
    """
    maxima = [int(e.votes.counts.max()) for e in dataset.entries]
    return np.bincount(maxima, minlength=1).astype(np.int64)
