"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "MusebError",
    "ShapeMismatch",
    "NumericalFailure",
    "DimensionOrder",
    "NotAdmissible",
    "NotPrime",
    "UnknownName",
    "EmptyInput",
    "UnsupportedParameters",
    "NotCHM",
    "VerificationFailed",
    "FileFormatError",
]


class MusebError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(MusebError):
    """Operands have incompatible or malformed shapes."""


class NumericalFailure(MusebError):
    """A numerical routine (such as an SVD) failed to converge."""


class DimensionOrder(MusebError):
    """A construction requires the first dimension to not exceed the second."""


class NotAdmissible(MusebError):
    """Phase parameters violate the admissibility constraint."""


class NotPrime(MusebError):
    """An argument required to be prime is not."""


class UnknownName(MusebError):
    """A requested catalog entry does not exist."""


class EmptyInput(MusebError):
    """An operation received an empty collection where content is required."""


class UnsupportedParameters(MusebError):
    """A recipe needs an ingredient this package does not build."""


class NotCHM(MusebError):
    """The matrix is not a complex Hadamard matrix."""


class VerificationFailed(MusebError):
    """A family set failed certification: a bug if built here, a bad input if loaded."""


class FileFormatError(MusebError):
    """A serialized family file is malformed."""
