"""Shared exception types."""

from __future__ import annotations


class MicroweaveError(Exception):
    """Base class for all toolchain errors."""


class MalformedDocument(MicroweaveError):
    """A document could not be parsed at the syntax level."""


class SchemaViolation(MicroweaveError):
    """A parsed document violates the schema; ``path`` names the offending node."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


class DuplicateServiceError(MicroweaveError):
    """Two inputs claim the same service name."""


class TermNotFound(MicroweaveError):
    """A term looked up in a taxonomy is not present in it."""


class ConfigError(MicroweaveError):
    """Invalid run configuration; ``field`` names the offending entry, which
    the message itself also names."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field
