"""Reference implementations the benchmark checks the program against.

Everything here is written from the file-format and method descriptions,
without importing ``midas``: parsers for ``.mdsc`` clips, ``.ckpt``
checkpoints and JSON manifests, the block-mean featurizer, the tanh/softmax
forward pass, per-class recall, cross-entropy and a Monte-Carlo vicinal-risk
estimator that draws its own pairs with its own generator.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

MDSC_HEADER = struct.Struct("<4s5I")
LOG_FLOOR = 1e-12


class FormatError(ValueError):
    """A file does not follow the documented on-disk format."""


def read_mdsc(path) -> np.ndarray:
    """Frames (T, H, W, Ch) of one clip file: magic, five u32, then <f4 pixels."""
    raw = Path(path).read_bytes()
    if len(raw) < MDSC_HEADER.size:
        raise FormatError(f"{path}: shorter than the clip header")
    magic, t, h, w, ch, reserved = MDSC_HEADER.unpack_from(raw)
    if magic != b"MDSC" or reserved != 0:
        raise FormatError(f"{path}: bad magic or reserved word")
    body = raw[MDSC_HEADER.size:]
    if len(body) != 4 * t * h * w * ch:
        raise FormatError(f"{path}: payload of {len(body)} bytes for {t}x{h}x{w}x{ch}")
    return np.frombuffer(body, dtype="<f4").reshape(t, h, w, ch)


def read_checkpoint(path):
    """(header, weights, biases) of a checkpoint; parameters as float64.

    The file is one JSON header line followed by, per layer, the (in, out)
    weight block and the out-long bias block as little-endian float32.
    """
    raw = Path(path).read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise FormatError(f"{path}: no header line")
    header = json.loads(raw[:newline].decode("utf-8"))
    sizes = header["layer_sizes"]
    flat = np.frombuffer(raw[newline + 1:], dtype="<f4").astype(np.float64)
    weights, biases, pos = [], [], 0
    for d_in, d_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[pos:pos + d_in * d_out].reshape(d_in, d_out))
        pos += d_in * d_out
        biases.append(flat[pos:pos + d_out])
        pos += d_out
    if pos != flat.size:
        raise FormatError(f"{path}: {flat.size} parameters, layer sizes imply {pos}")
    return header, weights, biases


def read_manifest(path, with_frames: bool = True) -> dict:
    """Manifest as plain arrays: ids, votes (N, C), optionally frames (N, T, H, W, Ch)."""
    path = Path(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    entries = doc["entries"]
    out = {
        "class_names": list(doc["class_names"]),
        "ids": [e["clip_id"] for e in entries],
        "votes": np.array([e["votes"] for e in entries], dtype=np.int64).reshape(
            len(entries), len(doc["class_names"])
        ),
    }
    if with_frames:
        out["frames"] = np.stack([read_mdsc(path.parent / e["clip_file"]) for e in entries])
    return out


def soft_labels(votes: np.ndarray) -> np.ndarray:
    """Per-row vote shares."""
    votes = np.asarray(votes, dtype=np.float64)
    return votes / votes.sum(axis=1, keepdims=True)


def unique_top(votes: np.ndarray) -> np.ndarray:
    """Per row, whether exactly one class holds the most votes."""
    votes = np.asarray(votes)
    return (votes == votes.max(axis=1, keepdims=True)).sum(axis=1) == 1


def block_mean_features(frames: np.ndarray, target_hw) -> np.ndarray:
    """(B, h*w*Ch) features: mean over time and over each spatial block.

    Block k of n rows split k ways spans rows [k*n//parts, (k+1)*n//parts);
    features are flattened block-row-major, channel last.
    """
    frames = np.asarray(frames, dtype=np.float64)
    b, _, height, width, ch = frames.shape
    h, w = target_hw
    out = np.empty((b, h, w, ch))
    for r in range(h):
        r0, r1 = r * height // h, (r + 1) * height // h
        for c in range(w):
            c0, c1 = c * width // w, (c + 1) * width // w
            out[:, r, c, :] = frames[:, :, r0:r1, c0:c1, :].mean(axis=(1, 2, 3))
    return out.reshape(b, -1)


def forward(weights, biases, features: np.ndarray) -> np.ndarray:
    """Softmax posteriors of a tanh MLP whose last layer is linear then softmax."""
    a = np.asarray(features, dtype=np.float64)
    for k, (w, bias) in enumerate(zip(weights, biases)):
        z = a @ w + bias
        if k < len(weights) - 1:
            a = np.tanh(z)
        else:
            e = np.exp(z - z.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
    return a


def recall_scores(predicted, actual, class_count: int) -> tuple[float, float]:
    """(UAR, WAR): mean recall over classes present in ``actual``, and accuracy."""
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    recalls = [
        float(np.mean(predicted[actual == c] == c))
        for c in range(class_count)
        if np.any(actual == c)
    ]
    return float(np.mean(recalls)), float(np.mean(predicted == actual))


def cross_entropy(posteriors: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-row -sum(target * ln(max(posterior, 1e-12)))."""
    return -np.sum(targets * np.log(np.maximum(posteriors, LOG_FLOOR)), axis=1)


def mix_frames(a: np.ndarray, b: np.ndarray, lam) -> np.ndarray:
    """float32(clip(lam*a + (1-lam)*b, 0, 1)) computed in float64, batched over rows."""
    lam = np.asarray(lam, dtype=np.float64).reshape((-1,) + (1,) * (np.ndim(a) - 1))
    mixed = lam * np.asarray(a, np.float64) + (1.0 - lam) * np.asarray(b, np.float64)
    return np.clip(mixed, 0.0, 1.0).astype(np.float32)


def empirical_risk(weights, biases, frames, votes, target_hw) -> float:
    """Mean cross-entropy of the posteriors against the vote shares."""
    posteriors = forward(weights, biases, block_mean_features(frames, target_hw))
    return float(cross_entropy(posteriors, soft_labels(votes)).mean())


def vicinal_risk(
    weights, biases, frames, votes, target_hw, alpha, draws, label_mode, rng, chunk=256
) -> tuple[float, float]:
    """(mean, standard error) of the loss over uniformly drawn distinct pairs.

    Each draw picks i uniformly, j uniformly among the others, and
    lam ~ Beta(alpha, alpha); the target blends the two vote shares ("soft")
    or the two one-hot top votes ("hard") without renormalisation.
    """
    n = len(frames)
    targets = soft_labels(votes)
    if label_mode == "hard":
        targets = np.eye(votes.shape[1])[np.argmax(votes, axis=1)]
    losses = []
    for start in range(0, draws, chunk):
        k = min(chunk, draws - start)
        i = rng.integers(0, n, size=k)
        j = rng.integers(0, n - 1, size=k)
        j = j + (j >= i)
        lam = rng.beta(alpha, alpha, size=k)
        mixed = mix_frames(frames[i], frames[j], lam)
        posteriors = forward(weights, biases, block_mean_features(mixed, target_hw))
        blend = lam[:, None] * targets[i] + (1.0 - lam[:, None]) * targets[j]
        losses.append(cross_entropy(posteriors, blend))
    losses = np.concatenate(losses)
    return float(losses.mean()), float(losses.std(ddof=1) / np.sqrt(losses.size))
