"""Shared exception types."""

from __future__ import annotations


def _rebuild(cls: type, args: tuple, state: dict) -> MicroweaveError:
    """An unpickled error, made without ``cls.__init__``, whose parameters
    need not be ``args``."""
    error = cls.__new__(cls)
    error.args = args
    error.__dict__.update(state)
    return error


class MicroweaveError(Exception):
    """Base class for all toolchain errors.  Each pickles with its message and
    attributes as they are, so an error raised in a worker process reads the
    same where it is raised again."""

    def __reduce__(self):
        return _rebuild, (type(self), self.args, self.__dict__)


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
    """Invalid run configuration; the message names the offending entry."""
