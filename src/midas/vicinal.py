"""Risk estimators over mixed samples and the blend-weight reparameterization.

The mixed-label training objective can be rewritten so each mixed pair looks
like a partially trusted one-hot target: with S annotators of whom l picked
the true class of the left sample, the blend weight lam becomes
lam' = lam * l / S against a one-hot target, and everything else (the wrong
votes of the left sample plus the right sample's soft label) folds into a
virtual label carrying weight 1 - lam'. ``check_vicinal_identity`` verifies
the rewrite reproduces the plain label mixture to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset, hard_relabeled
from .errors import (
    DegenerateMixError, EmptyDatasetError, InvalidInputError, ShapeMismatchError, check_number,
)
from .labels import LabelDecomposition, as_soft_label, one_hot
from .mixer import midas_batch
from .model import soft_cross_entropy as cross_entropy

LABEL_MODES = ("soft", "hard")


@dataclass(frozen=True)
class RiskEstimate:
    """A mean loss in nats, its term count, and the standard error."""

    value: float
    num_terms: int
    stderr: float

    def __post_init__(self):
        check_number("num_terms", self.num_terms, 1, integral=True)
        check_number("stderr", self.stderr, 0)


@dataclass(frozen=True)
class VicinalParams:
    """The reparameterized blend weight and its virtual label."""

    lambda_prime: float
    virtual_label: np.ndarray

    def __post_init__(self):
        check_number("lambda_prime", self.lambda_prime, 0, 1)
        total = float(np.sum(self.virtual_label))
        if abs(total - 1.0) > 1e-9:
            raise InvalidInputError(f"virtual label sums to {total}, expected 1")


def _scored(predictor, loss, frames: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """loss(predictor(frames), targets) as (B,) float64, shape-checked at both steps."""
    probs = predictor(frames)
    if np.shape(probs) != targets.shape:
        raise ShapeMismatchError(f"predictor gave {np.shape(probs)} for targets {targets.shape}")
    losses = np.asarray(loss(probs, targets), dtype=np.float64)
    if losses.shape != targets.shape[:1]:
        raise ShapeMismatchError(f"loss gave {losses.shape} for {len(targets)} rows")
    return losses


def _estimate_from_losses(losses: np.ndarray) -> RiskEstimate:
    m = losses.size
    value = float(losses.mean())
    stderr = float(losses.std(ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    return RiskEstimate(value=value, num_terms=m, stderr=stderr)


def empirical_risk(predictor, dataset: LabeledDataset, loss=cross_entropy) -> RiskEstimate:
    """Mean of loss(predictor(dataset.frames), dataset.soft) over the rows.

    ``predictor`` maps a (B, T, H, W, Ch) float32 stack to (B, C)
    probabilities; ``loss`` maps two (B, C) arrays to (B,) per-row losses.
    """
    if not len(dataset):
        raise EmptyDatasetError("cannot estimate risk on an empty dataset")
    return _estimate_from_losses(_scored(predictor, loss, dataset.frames, dataset.soft))


def vicinal_risk(
    predictor,
    dataset: LabeledDataset,
    alpha: float,
    draws: int,
    label_mode: str,
    rng: np.random.Generator,
    loss=cross_entropy,
) -> RiskEstimate:
    """Monte-Carlo mean of the loss over mixed clip pairs.

    ``predictor`` and ``loss`` follow the batch contracts of
    ``empirical_risk``. ``label_mode`` selects the target of each mixed
    clip: "soft" blends the sources' soft labels, "hard" blends one-hot
    encodings of their hard labels. Either way the blend is the plain convex
    combination, without softmax renormalization. Deterministic given the
    generator state.

    Draws are made and scored one pass over the dataset at a time. That
    yields the same pairs and weights as one ``midas_batch`` call of
    ``draws`` samples, while memory grows with the dataset, not with
    ``draws``.
    """
    draws = check_number("draws", draws, 1, integral=True)
    if label_mode not in LABEL_MODES:
        raise InvalidInputError(f"label_mode must be one of {LABEL_MODES}, got {label_mode!r}")
    # One-hot soft labels blend into exactly lam * onehot_i + (1 - lam) * onehot_j.
    source = hard_relabeled(dataset) if label_mode == "hard" else dataset
    n = len(source)
    losses = np.empty(draws, dtype=np.float64)
    for done in range(0, draws, max(n, 1)):
        batch = midas_batch(
            source, batch_size=min(n, draws - done), alpha=alpha, rng=rng, normalize=False
        )
        losses[done:done + len(batch.lams)] = _scored(predictor, loss, batch.clips, batch.labels)
        del batch  # let this pass's clips go before the next pass is drawn
    return _estimate_from_losses(losses)


def reparameterize(
    lam: float, decomposition: LabelDecomposition, qj: np.ndarray, annotators: int
) -> VicinalParams:
    """Rewrite a soft-label mixture as a scaled one-hot-plus-virtual-label pair.

    With l correct votes out of S annotators, lambda_prime = lam * l / S and
    the virtual label is
    (lam / (S - lam*l)) * (S * wrong_mass) + (S * (1 - lam) / (S - lam*l)) * qj.
    The denominator vanishes only at lam = 1 with a unanimous correct vote,
    where the rewrite is undefined.
    """
    check_number("lam", lam, 0, 1)
    annotators = check_number("annotators", annotators, 1, integral=True)
    l = decomposition.correct_count
    if l > annotators:
        raise InvalidInputError(f"correct count {l} exceeds annotator count {annotators}")
    qj = as_soft_label(qj, class_count=decomposition.wrong_mass.size)
    s = float(annotators)
    denom = s - lam * l
    if denom <= 0.0:
        raise DegenerateMixError(
            "reparameterization undefined at lambda = 1 with unanimous correct votes"
        )
    virtual = (lam / denom) * (s * decomposition.wrong_mass) + (s * (1.0 - lam) / denom) * qj
    return VicinalParams(lambda_prime=lam * l / s, virtual_label=virtual)


def check_vicinal_identity(
    lam: float,
    qi: np.ndarray,
    qj: np.ndarray,
    decomposition: LabelDecomposition,
    true_class: int,
    annotators: int,
) -> float:
    """Max-abs residual between the rewritten pair and the plain mixture.

    Computes lambda_prime * onehot(true_class) + (1 - lambda_prime) * virtual
    minus lam * qi + (1 - lam) * qj; valid inputs keep this at <= 1e-12.
    """
    params = reparameterize(lam, decomposition, qj, annotators)
    c = decomposition.wrong_mass.size
    lhs = params.lambda_prime * one_hot(true_class, c) + (
        1.0 - params.lambda_prime
    ) * params.virtual_label
    rhs = lam * np.asarray(qi, dtype=np.float64) + (1.0 - lam) * np.asarray(
        qj, dtype=np.float64
    )
    return float(np.max(np.abs(lhs - rhs)))
