"""Exception hierarchy and argument checks shared across the package."""

import math
import numbers


class MidasError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(MidasError, ValueError):
    """An argument violates a documented precondition."""


class AmbiguousLabelError(MidasError):
    """A vote vector or soft label has no strictly unique maximum."""


class ShapeMismatchError(MidasError, ValueError):
    """Two operands that must share a shape do not."""


class DegenerateMixError(MidasError):
    """The virtual-label reparameterization hit its vanishing denominator."""


class EmptyDatasetError(MidasError, ValueError):
    """An operation that needs at least one sample received none."""


class EmptyClearGroupError(MidasError):
    """No sample exceeds the ambiguity threshold."""


class TrainingDivergedError(MidasError):
    """Training produced a non-finite loss or non-finite parameters."""


class ManifestError(MidasError):
    """A dataset manifest or clip file failed to load.

    ``clip_id`` names the offending entry when one is identifiable.
    """

    def __init__(self, message: str, clip_id: str | None = None):
        self.clip_id = clip_id
        if clip_id is not None:
            message = f"{message} (clip_id={clip_id!r})"
        super().__init__(message)


class MissingClipFileError(ManifestError):
    """A clip file referenced by the manifest does not exist."""


class MalformedRecordError(ManifestError):
    """A manifest record or clip binary is structurally invalid."""


class VoteLabelMismatchError(ManifestError):
    """A stored label disagrees with the label derived from the votes."""


class TensorShapeError(ManifestError):
    """A clip's tensor dimensions are inconsistent with the rest of the dataset."""


def _ints_at_least(value, minimum: int = 1) -> bool:
    """A list or tuple of ints >= minimum; booleans (JSON true/false) are not ints here."""
    return isinstance(value, (list, tuple)) and all(type(v) is int and v >= minimum for v in value)


def _check_int_fields(config, names, minimum: int = 1) -> None:
    """Raise InvalidInputError unless each named field of ``config`` is an int >= minimum."""
    for name in names:
        value = getattr(config, name)
        if not _ints_at_least([value], minimum):
            raise InvalidInputError(f"{name} must be an int >= {minimum}, got {value!r}")


def _check_reals(**values) -> None:
    """Raise InvalidInputError unless each value is a finite real number; booleans are not."""
    for name, value in values.items():
        try:
            ok = (not isinstance(value, bool) and isinstance(value, numbers.Real)
                  and math.isfinite(value))
        except OverflowError:  # an int beyond the float range
            ok = False
        if not ok:
            raise InvalidInputError(f"{name} must be a finite real number, got {value!r}")
