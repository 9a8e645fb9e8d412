"""Desk-scale classifier: linear clip featurization, a small MLP, and SGD.

The featurizer (temporal mean, block-average downsample, flatten) is exactly
linear in the pixels, so mixing two clips and featurizing gives the same
vector as mixing the two feature vectors. That property is what lets a tiny
fully connected network stand in for a video backbone when the question
under study is about labels and augmentation rather than architecture.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dataset import Clip, LabeledDataset, hard_relabeled, require_resolved
from .errors import (
    EmptyDatasetError,
    InvalidInputError,
    MalformedRecordError,
    ShapeMismatchError,
    TrainingDivergedError,
    check_number,
    check_sizes,
)
from .labels import LOG_CLAMP, softmax_rows
from .metrics import confusion, uar, war
from .mixer import DEFAULT_ALPHA, _blend_chunks, _blend_labels, draw_pairs

LABEL_MODES = ("hard", "soft", "midas", "midas_hard")

_CKPT_MAGIC = b"MDSW"


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run."""

    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 0.1
    alpha: float = DEFAULT_ALPHA
    label_mode: str = "midas"
    seed: int = 0
    normalize: bool = True
    hidden: tuple[int, ...] = (32, 16)
    target_hw: tuple[int, int] = (4, 4)

    def __post_init__(self):
        for name, low in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            value = check_number(name, getattr(self, name), low, integral=True)
            object.__setattr__(self, name, value)
        if type(self.normalize) is not bool:
            raise InvalidInputError(f"normalize must be a bool, got {self.normalize!r}")
        check_number("learning_rate", self.learning_rate, 0)
        check_number("alpha", self.alpha, 0, open=True)
        if self.label_mode not in LABEL_MODES:
            raise InvalidInputError(
                f"label_mode must be one of {LABEL_MODES}, got {self.label_mode!r}"
            )
        object.__setattr__(self, "hidden", check_sizes("hidden", self.hidden))
        object.__setattr__(self, "target_hw", check_sizes("target_hw", self.target_hw, 2))

    def hash(self) -> str:
        """SHA-256 of the fields as sorted JSON; numpy reals are written as Python numbers."""
        doc = json.dumps(asdict(self), sort_keys=True, default=_plain_number)
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def _plain_number(value):
    return int(value) if isinstance(value, numbers.Integral) else float(value)


@dataclass(eq=False)
class Classifier:
    """A softmax-terminated perceptron D -> hidden... -> C with tanh hiddens."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise InvalidInputError("weights and biases must be nonempty and parallel")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.size:
                raise ShapeMismatchError(f"layer {k}: weight {w.shape} vs bias {b.shape}")
            if k > 0 and self.weights[k - 1].shape[1] != w.shape[0]:
                raise ShapeMismatchError(
                    f"layer {k - 1} output {self.weights[k - 1].shape[1]} != layer {k} input {w.shape[0]}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise InvalidInputError(f"layer {k} holds non-finite parameters")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    def copy(self) -> "Classifier":
        return Classifier(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


@dataclass(frozen=True, eq=False)
class TrainHistory:
    """Per-epoch training loss and validation scores, plus the chosen epoch."""

    loss: np.ndarray
    val_uar: np.ndarray
    val_war: np.ndarray
    best_epoch: int


def init_classifier(
    feature_dim: int, class_count: int, hidden: tuple[int, ...], rng: np.random.Generator
) -> Classifier:
    """Seeded 1/sqrt(fan-in) normal init, zero biases."""
    sizes = (feature_dim,) + tuple(hidden) + (class_count,)
    weights = []
    biases = []
    for d_in, d_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, d_out)))
        biases.append(np.zeros(d_out, dtype=np.float64))
    return Classifier(weights=weights, biases=biases)


# ---------------------------------------------------------------------------
# Featurization
# ---------------------------------------------------------------------------

def _block_starts(n: int, k: int) -> np.ndarray:
    return (np.arange(k) * n) // k


def featurize(clip: Clip, target_hw: tuple[int, int]) -> np.ndarray:
    """Temporal mean, block-average downsample to (h, w), channel-last flatten.

    Returns the (D,) float64 row. Every component is a fixed-weight average
    of input pixels, so the map is linear in the clip.
    """
    return featurize_frames(clip.frames[None], target_hw)[0]


def featurize_frames(frames: np.ndarray, target_hw: tuple[int, int]) -> np.ndarray:
    """``featurize`` over a (B, T, H, W, Ch) stack; returns (B, D)."""
    h, w = check_sizes("target_hw", target_hw, 2)
    _, _, height, width, _ = frames.shape
    check_number("target_hw[0]", h, 1, height, integral=True)
    check_number("target_hw[1]", w, 1, width, integral=True)
    mean = frames.mean(axis=1, dtype=np.float64)  # accumulates in float64 without a copy
    rows = _block_starts(height, h)
    row_sizes = np.diff(np.append(rows, height))
    pooled = np.add.reduceat(mean, rows, axis=1) / row_sizes[None, :, None, None]
    cols = _block_starts(width, w)
    col_sizes = np.diff(np.append(cols, width))
    pooled = np.add.reduceat(pooled, cols, axis=2) / col_sizes[None, None, :, None]
    return pooled.reshape(pooled.shape[0], -1)


def featurize_dataset(dataset: LabeledDataset, target_hw: tuple[int, int]) -> np.ndarray:
    if not len(dataset):
        raise EmptyDatasetError("cannot featurize an empty dataset")
    return featurize_frames(dataset.frames, target_hw)


# ---------------------------------------------------------------------------
# Forward / loss / gradient
# ---------------------------------------------------------------------------

def _forward_cached(model: Classifier, x: np.ndarray):
    """Returns (probabilities, per-layer activations including the input)."""
    acts = [x]
    a = x
    last = len(model.weights) - 1
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        a = softmax_rows(z) if k == last else np.tanh(z)
        acts.append(a)
    return a, acts


def _check_width(model: Classifier, features: np.ndarray) -> None:
    if features.ndim != 2 or features.shape[1] != model.layer_sizes[0]:
        raise ShapeMismatchError(
            f"features {features.shape} do not match input size {model.layer_sizes[0]}"
        )


def forward_batch(model: Classifier, features: np.ndarray) -> np.ndarray:
    """Probabilities for a (B, D) feature matrix; rows sum to 1."""
    features = np.asarray(features, dtype=np.float64)
    _check_width(model, features)
    probs, _ = _forward_cached(model, features)
    return probs


def forward(model: Classifier, feature: np.ndarray) -> np.ndarray:
    """Class probabilities for one (D,) feature vector."""
    return forward_batch(model, np.asarray(feature)[None])[0]


def _log_terms(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    return targets * np.log(np.clip(probs, LOG_CLAMP, None))


def soft_cross_entropy(pred, target):
    """-sum(target * ln(pred)) over the last axis, pred clamped at 1e-12 in the log.

    A (C,) pair gives a float; a (B, C) pair gives the (B,) per-row losses.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim not in (1, 2):
        raise ShapeMismatchError(f"pred {pred.shape} vs target {target.shape}")
    losses = -np.sum(_log_terms(pred, target), axis=-1)
    return float(losses) if pred.ndim == 1 else losses


def _batch_loss(probs: np.ndarray, targets: np.ndarray) -> float:
    return float(-np.sum(_log_terms(probs, targets)) / probs.shape[0])


def gradient(model: Classifier, features: np.ndarray, targets: np.ndarray):
    """Analytic gradient of the batch-mean soft cross-entropy.

    Returns (weight_grads, bias_grads, loss). Output layer uses the
    softmax/cross-entropy shortcut dZ = (P - T) / B; tanh hiddens use
    dZ = dA * (1 - A^2).
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1:
        raise InvalidInputError("gradient needs a nonempty (B, D) feature matrix")
    _check_width(model, features)
    if targets.shape != (features.shape[0], model.layer_sizes[-1]):
        raise ShapeMismatchError(
            f"targets {targets.shape} do not match batch {features.shape[0]} x C {model.layer_sizes[-1]}"
        )
    probs, acts = _forward_cached(model, features)
    loss = _batch_loss(probs, targets)
    batch = features.shape[0]
    w_grads = [None] * len(model.weights)
    b_grads = [None] * len(model.biases)
    dz = (probs - targets) / batch
    for k in range(len(model.weights) - 1, -1, -1):
        w_grads[k] = acts[k].T @ dz
        b_grads[k] = dz.sum(axis=0)
        if k > 0:
            da = dz @ model.weights[k].T
            dz = da * (1.0 - acts[k] ** 2)
    return w_grads, b_grads, loss


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _scores(model: Classifier, features: np.ndarray, dataset: LabeledDataset, block_rows=None):
    """(UAR, WAR) of argmax predictions on ``features``, the featurized ``dataset``.

    The rows are forwarded ``block_rows`` at a time (all at once by default)
    and their argmaxes concatenated; a row's prediction depends on that row alone.
    """
    step = block_rows or len(features)
    predicted = np.concatenate([
        forward_batch(model, features[start:start + step]).argmax(axis=1)
        for start in range(0, len(features), step)
    ])
    cm = confusion(predicted, dataset.hard, dataset.class_count)
    return uar(cm), war(cm)


def evaluate(model: Classifier, dataset: LabeledDataset, target_hw) -> tuple[float, float]:
    """(UAR, WAR) of argmax predictions against hard labels."""
    require_resolved(dataset)
    return _scores(model, featurize_dataset(dataset, target_hw), dataset)


def _mixed_features(frames, left, right, lams, target_hw) -> np.ndarray:
    """``featurize_frames`` of the clips ``midas_batch`` blends from these pairs and weights.

    The result is bit for bit the same, but the clips are blended and featurized
    one chunk at a time, so they are never all held at once.
    """
    return np.concatenate([
        featurize_frames(block, target_hw)
        for _, block in _blend_chunks(frames, left, right, lams)
    ])


def train(
    dataset: LabeledDataset,
    config: TrainConfig,
    rng: np.random.Generator | None = None,
    validation: LabeledDataset | None = None,
) -> tuple[Classifier, TrainHistory]:
    """SGD on the configured targets; returns the best-validation-UAR epoch.

    Per epoch, hard/soft modes shuffle the stored samples while the two
    mixing modes draw a fresh epoch-sized batch of mixed samples (midas_hard
    mixes one-hot relabelings). Ties in validation UAR keep the earliest
    epoch. Without an explicit validation set the training set is scored
    instead. Everything is driven by one generator seeded from the config,
    so a run is a pure function of (dataset, config).

    Each split is featurized once, before the first epoch (mixing modes skip
    a separate training split: their epochs featurize their own clips). Every
    epoch is scored on the cached validation features, ``config.batch_size``
    rows at a time: a product larger than an SGD step's would start OpenBLAS's
    thread pool, whose workers then spin for the rest of the run. A mixed
    epoch draws its pairs and weights as ``midas_batch`` does and blends and
    featurizes the clips chunk by chunk, so the features are those of
    ``midas_batch``'s clips, bit for bit, while no whole batch of mixed clips
    is ever held.
    """
    if not len(dataset):
        raise EmptyDatasetError("cannot train on an empty dataset")
    require_resolved(dataset)
    mixing = config.label_mode in ("midas", "midas_hard")
    if mixing and len(dataset) < 2:
        raise EmptyDatasetError("mixing modes need at least 2 clips")
    if validation is None:
        validation = dataset
    require_resolved(validation)
    if rng is None:
        rng = np.random.default_rng(config.seed)

    val_features = featurize_dataset(validation, config.target_hw)
    if validation is dataset:
        features = val_features
    elif not mixing:
        features = featurize_dataset(dataset, config.target_hw)
    n = len(dataset)
    model = init_classifier(val_features.shape[1], dataset.class_count, config.hidden, rng)

    # hard_relabeled's soft rows are exact one-hots (total / total == 1.0).
    source = hard_relabeled(dataset) if config.label_mode in ("hard", "midas_hard") else dataset

    losses = np.empty(config.epochs, dtype=np.float64)
    val_uars = np.empty(config.epochs, dtype=np.float64)
    val_wars = np.empty(config.epochs, dtype=np.float64)
    best_uar = -1.0
    best_epoch = -1
    best_model = model.copy()

    for epoch in range(config.epochs):
        if not mixing:
            order = rng.permutation(n)
            epoch_x = features[order]
            epoch_t = source.soft[order]
        else:
            left, right, lams = draw_pairs(source, n, config.alpha, rng)
            epoch_x = _mixed_features(source.frames, left, right, lams, config.target_hw)
            epoch_t = _blend_labels(source.soft, left, right, lams, config.normalize)

        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            xb = epoch_x[start:start + config.batch_size]
            tb = epoch_t[start:start + config.batch_size]
            w_grads, b_grads, loss = gradient(model, xb, tb)
            loss_sum += loss * xb.shape[0]
            for k in range(len(model.weights)):
                model.weights[k] -= config.learning_rate * w_grads[k]
                model.biases[k] -= config.learning_rate * b_grads[k]
        epoch_loss = loss_sum / n

        finite = np.isfinite(epoch_loss) and all(
            np.all(np.isfinite(w)) for w in model.weights
        ) and all(np.all(np.isfinite(b)) for b in model.biases)
        if not finite:
            raise TrainingDivergedError(
                f"non-finite loss or parameters at epoch {epoch + 1} "
                f"(loss={epoch_loss}, lr={config.learning_rate})"
            )

        v_uar, v_war = _scores(model, val_features, validation, config.batch_size)
        losses[epoch] = epoch_loss
        val_uars[epoch] = v_uar
        val_wars[epoch] = v_war
        if v_uar > best_uar:
            best_uar = v_uar
            best_epoch = epoch
            best_model = model.copy()

    history = TrainHistory(
        loss=losses, val_uar=val_uars, val_war=val_wars, best_epoch=best_epoch
    )
    return best_model, history


# ---------------------------------------------------------------------------
# Checkpoint I/O: one JSON header line, then raw little-endian f32 parameters
# ---------------------------------------------------------------------------

def save_checkpoint(model: Classifier, path, config: TrainConfig) -> None:
    """Write ``model`` with a header naming the hash and ``target_hw`` of ``config``."""
    header = {
        "format": _CKPT_MAGIC.decode("ascii"),
        "layer_sizes": list(model.layer_sizes),
        "activation": "tanh",
        "config_hash": config.hash(),
        "target_hw": list(config.target_hw),
    }
    blocks = []
    for w, b in zip(model.weights, model.biases):
        blocks.append(np.ascontiguousarray(w, dtype="<f4").tobytes())
        blocks.append(np.ascontiguousarray(b, dtype="<f4").tobytes())
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fp:
        fp.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fp.write(b"".join(blocks))


def load_checkpoint(path) -> tuple[Classifier, dict]:
    """Returns (model, metadata). Parameters come back as float32 values.

    Metadata keys: ``config_hash`` and ``target_hw`` (the featurization
    geometry the model was trained with).
    """
    with open(path, "rb") as fp:
        header_line = fp.readline()
        blob = fp.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedRecordError(f"unreadable checkpoint header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != _CKPT_MAGIC.decode("ascii"):
        raise MalformedRecordError("not a classifier checkpoint")
    try:
        sizes = check_sizes("layer_sizes", header.get("layer_sizes"))
        target_hw = check_sizes("target_hw", header.get("target_hw", [4, 4]), 2)
    except InvalidInputError as exc:
        raise MalformedRecordError(f"checkpoint {exc}") from exc
    if len(sizes) < 2:
        raise MalformedRecordError(f"checkpoint layer_sizes must hold >= 2 sizes, got {sizes}")
    if header.get("activation", "tanh") != "tanh":
        raise MalformedRecordError(f"unsupported checkpoint activation {header['activation']!r}")
    expected = sum(
        d_in * d_out + d_out for d_in, d_out in zip(sizes[:-1], sizes[1:])
    )
    if len(blob) != expected * 4:
        raise MalformedRecordError(
            f"checkpoint parameter block is {len(blob)} bytes, header implies {expected * 4}"
        )
    flat = np.frombuffer(blob, dtype="<f4").astype(np.float64)
    weights = []
    biases = []
    pos = 0
    for d_in, d_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[pos:pos + d_in * d_out].reshape(d_in, d_out).copy())
        pos += d_in * d_out
        biases.append(flat[pos:pos + d_out].copy())
        pos += d_out
    meta = {"config_hash": str(header.get("config_hash", "")), "target_hw": target_hw}
    return Classifier(weights=weights, biases=biases), meta
