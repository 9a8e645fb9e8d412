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


def check_number(name: str, value, low=None, high=None, *, integral: bool = False,
                 open: bool = False):
    """Return ``value`` if it is a number within the given bounds; else raise InvalidInputError.

    A number is a finite real, or with ``integral`` an integer (Python or
    numpy), which comes back as a Python ``int``; a bool is neither. The
    bounds are inclusive unless ``open`` is set. The error names ``name``.
    """
    kind = type(value)  # exact int and float skip the slower abstract-class checks
    try:
        ok = (kind is not bool
              and ((kind is int or isinstance(value, numbers.Integral)) if integral
                   else (kind is float or isinstance(value, numbers.Real)) and math.isfinite(value))
              and (low is None or (value > low if open else value >= low))
              and (high is None or (value < high if open else value <= high)))
    except OverflowError:  # an int beyond the float range
        ok = False
    if ok:
        return int(value) if integral else value
    rule = "an int" if integral else "a finite real number"
    if low is not None and high is not None:
        rule += f" in {'(' if open else '['}{low}, {high}{')' if open else ']'}"
    elif low is not None:
        rule += f" {'>' if open else '>='} {low}"
    elif high is not None:
        rule += f" {'<' if open else '<='} {high}"
    raise InvalidInputError(f"{name} must be {rule}, got {value!r}")


def check_sizes(name: str, values, count: int | None = None) -> tuple[int, ...]:
    """``values`` as a tuple of ints >= 1, ``count`` of them when given; else InvalidInputError."""
    try:
        values = tuple(values)
    except TypeError:
        raise InvalidInputError(f"{name} must be a sequence of ints >= 1, got {values!r}") from None
    if count is not None and len(values) != count:
        raise InvalidInputError(f"{name} must hold {count} ints >= 1, got {values!r}")
    return tuple(check_number(f"{name}[{k}]", v, 1, integral=True) for k, v in enumerate(values))
