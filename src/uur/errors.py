"""Exception hierarchy shared by every module in the package."""

from __future__ import annotations


class UurError(ValueError):
    """Base class for all validation and computation errors raised here."""


class DimensionMismatch(UurError):
    pass


class NotUnitary(UurError):
    pass


class InvalidDensityMatrix(UurError):
    pass


class BlochVectorTooLong(UurError):
    pass


class InvalidSubset(UurError):
    pass


class WeightOutOfRange(UurError):
    pass


class DimensionTooSmall(UurError):
    pass


class UnknownExample(UurError):
    pass


class IncompatibleDimension(UurError):
    pass


class SearchSpaceTooLarge(UurError):
    """Subset search would exceed the configured cap.

    Carries the offending candidate count so callers can report it.
    """

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count
