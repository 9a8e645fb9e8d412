"""Output checks: program results against the reference code or method properties.

Every check takes plain data (arrays, parsed JSON, reference-parsed files)
and raises ``CheckFailed`` with a reason; none compares against a stored
copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

FLOAT32_ULP_AT_ONE = 2.0 ** -24  # spacing of float32 just below 1.0


class CheckFailed(AssertionError):
    """A program output disagrees with the reference or a method property."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Library training
# ---------------------------------------------------------------------------

def check_history(loss, val_uar, val_war, best_epoch: int, epochs: int) -> None:
    """Histories are finite and one entry per epoch; best epoch is the first argmax."""
    for name, values in (("loss", loss), ("val_uar", val_uar), ("val_war", val_war)):
        values = np.asarray(values)
        require(values.shape == (epochs,), f"{name} has shape {values.shape}, expected ({epochs},)")
        require(np.all(np.isfinite(values)), f"{name} holds non-finite values")
    require(
        best_epoch == int(np.argmax(val_uar)),
        f"best_epoch {best_epoch} is not the first argmax {int(np.argmax(val_uar))} of val_uar",
    )


def check_model_uar(weights, biases, frames, votes, target_hw, reported: float, floor: float) -> float:
    """The model's validation UAR, recomputed by the reference, equals the reported one."""
    posteriors = ref.forward(weights, biases, ref.block_mean_features(frames, target_hw))
    uar, _ = ref.recall_scores(posteriors.argmax(axis=1), np.argmax(votes, axis=1), votes.shape[1])
    require(abs(uar - reported) <= 1e-12, f"recomputed UAR {uar} != reported {reported}")
    require(uar > floor, f"validation UAR {uar} is not above {floor}")
    return uar


def check_mix_draw(lams, left, right, clips, labels, frames, targets, normalize: bool) -> None:
    """A midas_batch draw: distinct pairs, one left use per clip per pass, exact blends.

    ``left``/``right`` index ``frames``/``targets`` (the per-source label rows);
    ``clips``/``labels`` are the batch's stacked outputs.
    """
    n = len(frames)
    lams, left, right = np.asarray(lams), np.asarray(left), np.asarray(right)
    require(np.all(left != right), "a clip was paired with itself")
    for start in range(0, lams.size, n):
        lefts = left[start:start + n]
        require(
            np.unique(lefts).size == lefts.size,
            f"pass starting at draw {start} uses a clip twice as the left operand",
        )
    require(np.all((lams >= 0) & (lams <= 1)), "a blend weight lies outside [0, 1]")
    expected = ref.mix_frames(frames[left], frames[right], lams)
    worst = float(np.max(np.abs(np.asarray(clips, np.float64) - expected)))
    require(worst <= FLOAT32_ULP_AT_ONE, f"mixed clip differs from the blend by {worst}")
    blend = lams[:, None] * targets[left] + (1.0 - lams[:, None]) * targets[right]
    if normalize:
        e = np.exp(blend - blend.max(axis=1, keepdims=True))
        blend = e / e.sum(axis=1, keepdims=True)
    worst = float(np.max(np.abs(np.asarray(labels) - blend)))
    require(worst <= 1e-12, f"mixed label differs from the blend by {worst}")


# ---------------------------------------------------------------------------
# CLI walkthrough
# ---------------------------------------------------------------------------

def check_aggregate(corpus: dict, clean: dict) -> None:
    """``aggregate`` keeps exactly the entries with a unique top vote, in order."""
    keep = np.flatnonzero(ref.unique_top(corpus["votes"]))
    require(
        clean["ids"] == [corpus["ids"][k] for k in keep],
        "aggregate kept a different set or order of clips than the unique-top entries",
    )
    require(np.array_equal(clean["votes"], corpus["votes"][keep]), "aggregate changed votes")
    require(np.array_equal(clean["frames"], corpus["frames"][keep]), "aggregate changed clip pixels")


def check_split(clean: dict, train: dict, val: dict, ratio: float) -> None:
    """``split`` partitions the clean ids, floor(ratio*n+0.5) per class on the train side."""
    ids = clean["ids"]
    position = {clip_id: k for k, clip_id in enumerate(ids)}
    sides = train["ids"] + val["ids"]
    require(sorted(sides) == sorted(ids) and len(set(sides)) == len(ids), "split is not a partition")
    for side in (train, val):
        order = [position[clip_id] for clip_id in side["ids"]]
        require(order == sorted(order), "a split side does not keep the input order")
    top = np.argmax(clean["votes"], axis=1)
    train_top = np.argmax(train["votes"], axis=1)
    for c in range(clean["votes"].shape[1]):
        n = int(np.sum(top == c))
        want = int(math.floor(ratio * n + 0.5))
        got = int(np.sum(train_top == c))
        require(got == want, f"class {c}: {got} train clips, expected {want} of {n}")


def check_analyze(doc: dict, clean: dict) -> None:
    """``analyze`` rows are the mean vote shares per top class; histogram of max votes."""
    votes = clean["votes"]
    top = np.argmax(votes, axis=1)
    shares = ref.soft_labels(votes)
    c = votes.shape[1]
    rows = np.asarray(doc["coexistence"], dtype=np.float64)
    require(rows.shape == (c, c), f"coexistence has shape {rows.shape}")
    missing = []
    for k in range(c):
        if np.any(top == k):
            expected = shares[top == k].mean(axis=0)
            worst = float(np.max(np.abs(rows[k] - expected)))
            require(worst <= 1e-12, f"coexistence row {k} off by {worst}")
        else:
            missing.append(clean["class_names"][k])
    require(doc["missing_classes"] == missing, "missing_classes disagrees with the votes")
    hist = np.bincount(votes.max(axis=1))
    require(doc["max_vote_histogram"] == hist.tolist(), "max-vote histogram disagrees")


def check_eval(bundle: dict, weights, biases, target_hw, val: dict) -> None:
    """Posteriors match the reference forward pass; UAR/WAR match a recount."""
    samples = bundle["samples"]
    require([s["clip_id"] for s in samples] == val["ids"], "eval samples do not follow the manifest")
    expected = ref.forward(weights, biases, ref.block_mean_features(val["frames"], target_hw))
    posteriors = np.array([s["posterior"] for s in samples], dtype=np.float64)
    worst = float(np.max(np.abs(posteriors - expected)))
    require(worst <= 1e-6, f"eval posteriors differ from the reference by {worst}")
    true = np.array([s["true_class"] for s in samples])
    predicted = np.array([s["predicted_class"] for s in samples])
    require(np.array_equal(true, np.argmax(val["votes"], axis=1)), "eval true classes disagree with votes")
    require(np.array_equal(predicted, posteriors.argmax(axis=1)), "predicted class is not the posterior argmax")
    uar, war = ref.recall_scores(predicted, true, val["votes"].shape[1])
    require(abs(bundle["uar"] - uar) <= 1e-12, f"eval UAR {bundle['uar']} != recount {uar}")
    require(abs(bundle["war"] - war) <= 1e-12, f"eval WAR {bundle['war']} != recount {war}")


def check_mix(mixed: dict, sidecar: list, source: dict) -> None:
    """Each mixed clip is its sidecar blend of two distinct sources; votes follow the dominant one."""
    require(len(sidecar) == len(mixed["ids"]), "sidecar and manifest differ in length")
    position = {clip_id: k for k, clip_id in enumerate(source["ids"])}
    left = np.array([position[r["source_i"]] for r in sidecar])
    right = np.array([position[r["source_j"]] for r in sidecar])
    lams = np.array([r["lambda"] for r in sidecar], dtype=np.float64)
    require(np.all(left != right), "a mixed clip blends a source with itself")
    expected = ref.mix_frames(source["frames"][left], source["frames"][right], lams)
    worst = float(np.max(np.abs(mixed["frames"].astype(np.float64) - expected)))
    require(worst <= FLOAT32_ULP_AT_ONE, f"mixed clip differs from its sidecar blend by {worst}")
    dominant = np.where(lams >= 0.5, left, right)
    require(np.array_equal(mixed["votes"], source["votes"][dominant]), "mixed votes are not the dominant source's")


def check_empirical_risk(doc: dict, expected: float, count: int) -> None:
    """``risk --empirical`` equals the reference mean cross-entropy."""
    require(doc["draws"] == count, f"empirical risk averaged {doc['draws']} terms, expected {count}")
    require(
        abs(doc["value"] - expected) <= 1e-9 * max(1.0, abs(expected)),
        f"empirical risk {doc['value']} != reference {expected}",
    )


def check_vicinal_risk(doc: dict, expected: float, expected_se: float, draws: int, spread: float = 5.0) -> None:
    """Vicinal risk agrees with the reference estimator within ``spread`` combined errors."""
    require(doc["draws"] == draws, f"vicinal risk used {doc['draws']} draws, expected {draws}")
    require(math.isfinite(doc["stderr"]) and doc["stderr"] > 0, f"bad standard error {doc['stderr']}")
    combined = math.hypot(doc["stderr"], expected_se)
    require(
        abs(doc["value"] - expected) <= spread * combined,
        f"vicinal risk {doc['value']} vs reference {expected} (combined stderr {combined})",
    )


def check_known_failure(code: int, raised: BaseException | None, stderr: str) -> bool:
    """The known fault either ends in exit 1 with an ``error:`` line, or is mended.

    Returns True when the operation failed as the known fault does.
    """
    require(raised is None, f"raised {type(raised).__name__} instead of exiting: {raised}")
    if code == 0:
        return False
    lines = stderr.strip().splitlines()
    require(code == 1, f"exit code {code}, expected 0 or 1")
    require(lines and lines[-1].startswith("error: "), "failure did not end with an 'error:' line")
    require("Traceback" not in stderr, "failure printed a traceback")
    return True
