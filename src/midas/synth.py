"""Synthetic ambiguous-clip generator with simulated annotators.

Each class gets a random prototype clip (a spatial pattern with a slow
sinusoidal brightness drift). Clear samples are the prototype plus
within-class noise; ambiguous samples blend two class prototypes with a
weight near one half, so their ground truth genuinely spans two classes.
A panel of simulated annotators then votes from a temperature-sharpened
version of the true mixture, and clips whose votes end in a tie are dropped,
mirroring how a real soft-label corpus is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .errors import InvalidInputError, _check_int_fields, _check_reals
from .labels import (
    CLASS_NAMES, LOG_CLAMP, VoteRecord, as_soft_label, filter_unresolved, softmax_rows,
)

DRIFT_AMPLITUDE = 0.1


@dataclass(frozen=True)
class SynthConfig:
    """Geometry, noise levels, and annotator model of one generated corpus."""

    class_count: int = 7
    samples_per_class: int = 40
    frames: int = 8
    height: int = 16
    width: int = 16
    channels: int = 1
    sigma_between: float = 1.0
    sigma_within: float = 0.1
    rho: float = 0.3
    annotators: int = 10
    tau: float = 0.3
    seed: int = 0

    def __post_init__(self):
        _check_int_fields(self, ("class_count", "samples_per_class", "frames", "height",
                                 "width", "channels", "annotators"))
        _check_int_fields(self, ("seed",), minimum=0)
        _check_reals(sigma_between=self.sigma_between, sigma_within=self.sigma_within,
                     rho=self.rho, tau=self.tau)
        if self.class_count < 2:
            raise InvalidInputError("need at least 2 classes to model ambiguity")
        if not 0.0 <= self.rho <= 1.0:
            raise InvalidInputError(f"rho must lie in [0, 1], got {self.rho}")
        if self.tau <= 0.0:
            raise InvalidInputError(f"tau must be positive, got {self.tau}")
        for name, value in (
            ("sigma_between", self.sigma_between),
            ("sigma_within", self.sigma_within),
        ):
            if value < 0.0:
                raise InvalidInputError(f"{name} must be >= 0, got {value}")

    def class_names(self) -> tuple[str, ...]:
        if self.class_count == len(CLASS_NAMES):
            return CLASS_NAMES
        return tuple(f"class_{c}" for c in range(self.class_count))


def simulate_annotators(
    true_mixture: np.ndarray, annotators: int, tau: float, rng: np.random.Generator
) -> VoteRecord:
    """Draw annotator votes from a temperature-tempered view of the mixture.

    Each of the ``annotators`` voters picks one class independently from
    softmax(log(true_mixture) / tau). At tau = 1 this is the mixture itself;
    smaller tau sharpens it toward the dominant class.
    """
    if annotators < 1:
        raise InvalidInputError(f"annotator count must be >= 1, got {annotators}")
    if not np.isfinite(tau) or tau <= 0.0:
        raise InvalidInputError(f"tau must be positive, got {tau}")
    mixture = as_soft_label(true_mixture)
    p = softmax_rows(np.log(np.clip(mixture, LOG_CLAMP, None))[None] / tau)[0]
    counts = rng.multinomial(annotators, p)
    return VoteRecord(counts.astype(np.int64))


def _prototype(config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """One class prototype: spatial pattern plus sinusoidal temporal drift."""
    base = 0.5 + 0.25 * config.sigma_between * rng.standard_normal(
        (config.height, config.width, config.channels)
    )
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(config.frames, dtype=np.float64)
    drift = DRIFT_AMPLITUDE * np.sin(2.0 * np.pi * t / config.frames + phase)
    return base[None, :, :, :] + drift[:, None, None, None]


def generate(config: SynthConfig) -> LabeledDataset:
    """Build a tie-filtered labeled dataset from the configured recipe.

    Per class, round(rho * samples_per_class) samples are two-class
    prototype blends with weight ~ Uniform(0.3, 0.7); the rest sit on their
    own prototype. Deterministic under the config seed.
    """
    rng = np.random.default_rng(config.seed)
    prototypes = [_prototype(config, rng) for _ in range(config.class_count)]
    n_ambiguous = int(np.floor(config.rho * config.samples_per_class + 0.5))

    n = config.class_count * config.samples_per_class
    frames = np.empty(
        (n, config.frames, config.height, config.width, config.channels), dtype=np.float32
    )
    votes = np.empty((n, config.class_count), dtype=np.int64)
    ids = []
    for c in range(config.class_count):
        for k in range(config.samples_per_class):
            row = c * config.samples_per_class + k
            mixture = np.zeros(config.class_count, dtype=np.float64)
            if k < n_ambiguous:
                partner = int(rng.integers(0, config.class_count - 1))
                if partner >= c:
                    partner += 1
                weight = float(rng.uniform(0.3, 0.7))
                clip = weight * prototypes[c] + (1.0 - weight) * prototypes[partner]
                mixture[c] = weight
                mixture[partner] = 1.0 - weight
            else:
                clip = prototypes[c]
                mixture[c] = 1.0
            field = config.sigma_within * rng.standard_normal(
                (config.height, config.width, config.channels)
            )
            frames[row] = np.clip(clip + field[None, :, :, :], 0.0, 1.0)
            votes[row] = simulate_annotators(mixture, config.annotators, config.tau, rng).counts
            ids.append(f"synth-{c:02d}-{k:04d}")

    dataset = LabeledDataset(
        frames, votes, tuple(ids),
        class_names=config.class_names(),
        provenance=f"synth(seed={config.seed})",
    )
    return filter_unresolved(dataset)
