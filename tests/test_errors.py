"""Every error type comes back whole from a pickle round trip, as an error
raised in a worker process must."""

from __future__ import annotations

import inspect
import pickle

from microweave import errors
from microweave.errors import (
    ConfigError,
    DuplicateServiceError,
    MalformedDocument,
    MicroweaveError,
    SchemaViolation,
    TermNotFound,
)

SAMPLES = [
    MicroweaveError("root_dir /x does not exist"),
    MalformedDocument("compose.yml: not valid YAML"),
    SchemaViolation("expected a string", path="$.a"),
    SchemaViolation("expected an object"),
    DuplicateServiceError("service 'a' appears twice"),
    TermNotFound("term 'x' is not in the taxonomy"),
    ConfigError("thresholds.tau must be a number"),
    ConfigError("--config is required"),
]


def test_samples_cover_every_error_class():
    classes = {cls for _name, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, Exception) and cls.__module__ == errors.__name__}
    assert {type(sample) for sample in SAMPLES} == classes


def test_every_error_survives_a_pickle_round_trip():
    for sample in SAMPLES:
        for protocol in (0, pickle.HIGHEST_PROTOCOL):
            back = pickle.loads(pickle.dumps(sample, protocol))
            assert type(back) is type(sample)
            assert str(back) == str(sample)
            assert back.args == sample.args
            assert vars(back) == vars(sample)
