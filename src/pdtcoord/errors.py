"""Exception types shared across the package.

The CLI exits 2 for ConfigError, ShapeError and ArtifactFormatError (bad
input) and 1 for CapacityError.  No error means "used before set up": each
constructor takes what its object needs.
"""

from __future__ import annotations

import numbers


class PdtError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PdtError):
    """A configuration value is out of range or inconsistent with its peers."""


class ShapeError(PdtError):
    """An array argument has the wrong rank or incompatible dimensions."""


class ArtifactFormatError(PdtError):
    """A replay artifact file is malformed.

    Carries the byte offset at which parsing failed, when known.
    """

    def __init__(self, message: str, offset: int | None = None) -> None:
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class CapacityError(PdtError):
    """A bounded resource (notes bus, page table) cannot satisfy a request."""


def as_int(value: object, name: str) -> int:
    """value as an int; a bool or a non-integer raises ConfigError."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_float(value: object, name: str) -> float:
    """value as a float; a bool or a non-real raises ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return float(value)
