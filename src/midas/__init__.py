"""Soft-label clip mixing: augmentation, datasets, training, and analysis."""

from .errors import (
    AmbiguousLabelError,
    DegenerateMixError,
    EmptyClearGroupError,
    EmptyDatasetError,
    InvalidInputError,
    MalformedRecordError,
    ManifestError,
    MidasError,
    MissingClipFileError,
    ShapeMismatchError,
    TensorShapeError,
    TrainingDivergedError,
    VoteLabelMismatchError,
)
from .labels import (
    CLASS_NAMES,
    NUM_CLASSES,
    LabelDecomposition,
    VoteRecord,
    aggregate_votes,
    decompose,
    filter_unresolved,
    hard_label_of,
    one_hot,
    renormalize_softmax,
)
from .dataset import (
    Clip,
    DatasetEntry,
    LabeledDataset,
    SplitPair,
    build_dataset,
    hard_relabeled,
    load_manifest,
    max_vote_histogram,
    partition_by_ambiguity,
    save_manifest,
    stratified_split,
)
from .mixer import (
    DEFAULT_ALPHA,
    MixCoefficient,
    MixedBatch,
    MixSample,
    midas_batch,
    mix_clips,
    mix_labels,
    sample_lambda,
)
from .vicinal import (
    RiskEstimate,
    VicinalParams,
    check_vicinal_identity,
    empirical_risk,
    reparameterize,
    vicinal_risk,
)
from .metrics import (
    CoexistenceMatrix,
    ConfusionMatrix,
    coexistence,
    confusion,
    per_class_accuracy,
    report,
    uar,
    war,
)
from .model import (
    Classifier,
    TrainConfig,
    TrainHistory,
    evaluate,
    featurize,
    forward,
    gradient,
    load_checkpoint,
    save_checkpoint,
    soft_cross_entropy,
    train,
)
from .synth import SynthConfig, generate, simulate_annotators

__version__ = "0.1.0"
