"""Per-service intermediate representation and its canonical serialization.

A ServiceIr bundles one service's matcher output with the internal call
graph (name-resolved, unique-match-only) and the extraction report.  The
``.ir.json`` format round-trips exactly: load(save(x)) == x, and two equal
values serialize to identical bytes.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from typing import Any, Callable, NamedTuple

from microweave.errors import DuplicateServiceError, MalformedDocument, SchemaViolation
from microweave.frontend import ExtractionReport
from microweave.jsonio import array_chunks, canonical_bytes, join_chunks
from microweave.laast import SourceSpan
from microweave.matchers import (
    ROLE_ENTITY,
    Component,
    Endpoint,
    EventOp,
    MatcherOutput,
    MethodSig,
    PlainType,
    RemoteCall,
)
from microweave.record import Record

IR_FILE_SUFFIX = ".ir.json"

#: Collection shells unwrapped when a field's declared type is examined.
_COLLECTION_SHELLS = ("List", "Set", "Collection", "Optional")


class ServiceIr(Record):
    __slots__ = (
        "service_name", "components", "endpoints", "remote_calls", "event_ops",
        "internal_calls", "plain_types", "extraction_report", "warnings",
    )

    def __init__(
        self,
        service_name: str,
        components: list[Component] | None = None,
        endpoints: list[Endpoint] | None = None,
        remote_calls: list[RemoteCall] | None = None,
        event_ops: list[EventOp] | None = None,
        internal_calls: list[tuple[tuple[str, str], tuple[str, str]]] | None = None,
        plain_types: list[PlainType] | None = None,
        extraction_report: ExtractionReport | None = None,
        warnings: list[tuple[str, int, str]] | None = None,
    ):
        self.service_name = service_name
        self.components = [] if components is None else components
        self.endpoints = [] if endpoints is None else endpoints
        self.remote_calls = [] if remote_calls is None else remote_calls
        self.event_ops = [] if event_ops is None else event_ops
        #: ((caller component, caller method), (callee component, callee method))
        self.internal_calls = [] if internal_calls is None else internal_calls
        self.plain_types = [] if plain_types is None else plain_types
        self.extraction_report = (
            ExtractionReport() if extraction_report is None else extraction_report
        )
        self.warnings = [] if warnings is None else warnings


class DataModel(Record):
    __slots__ = ("service_name", "entities", "relations")

    def __init__(
        self,
        service_name: str,
        entities: list[Component] | None = None,
        relations: list[tuple[str, str, str]] | None = None,
    ):
        self.service_name = service_name
        self.entities = [] if entities is None else entities
        #: (entity name, field name, entity name)
        self.relations = [] if relations is None else relations


def unwrap_collection(declared_type: str) -> str:
    """Strip one recognized collection shell (qualified or not) or an array
    suffix; otherwise the type comes back unchanged (whitespace-normalized)."""
    t = " ".join(declared_type.split())
    if t.endswith("[]"):
        return t[:-2].strip()
    head, sep, rest = t.partition("<")
    if sep and t.endswith(">") and head.rsplit(".", 1)[-1] in _COLLECTION_SHELLS:
        return rest[:-1].strip()
    return t


def build_service_ir(
    output: MatcherOutput, report: ExtractionReport, service: str
) -> ServiceIr:
    """Assemble the IR for one service from its matcher output.

    Internal call edges are name-resolved: a local call produces an edge only
    when exactly one method with that name exists across the service's
    components; ambiguous names produce a warning instead of a guess.
    """
    for component in output.components:
        if component.service != service:
            raise DuplicateServiceError(
                f"component {component.name} claims service "
                f"{component.service!r}, expected {service!r}"
            )

    owners: dict[str, list[tuple[str, str]]] = {}
    for component in output.components:
        for sig in component.methods:
            owners.setdefault(sig.name, []).append((component.name, sig.name))

    warnings = list(output.warnings)
    edges: set[tuple[tuple[str, str], tuple[str, str]]] = set()
    ambiguous_seen: set[str] = set()
    for call in output.local_calls:
        targets = owners.get(call.callee, [])
        if len(targets) == 1:
            edges.add(((call.component, call.method), targets[0]))
        elif len(targets) > 1 and call.callee not in ambiguous_seen:
            ambiguous_seen.add(call.callee)
            warnings.append(
                (
                    call.span.file,
                    call.span.line_start,
                    f"ambiguous internal call {call.callee!r}: defined on "
                    + ", ".join(sorted(c for c, _m in targets)),
                )
            )

    return ServiceIr(
        service_name=service,
        components=list(output.components),
        endpoints=list(output.endpoints),
        remote_calls=list(output.remote_calls),
        event_ops=list(output.event_ops),
        internal_calls=sorted(edges),
        plain_types=list(output.plain_types),
        extraction_report=report,
        warnings=warnings,
    )


def derive_data_model(ir: ServiceIr) -> DataModel:
    """Entities plus the relations implied by fields whose declared type
    names another entity of the same service, directly or through one
    collection shell."""
    entities = [c for c in ir.components if c.role == ROLE_ENTITY]
    names = {e.name for e in entities}
    relations: set[tuple[str, str, str]] = set()
    for entity in entities:
        for field_name, declared in entity.fields:
            target = unwrap_collection(declared)
            if target in names:
                relations.add((entity.name, field_name, target))
    return DataModel(
        service_name=ir.service_name,
        entities=list(entities),
        relations=sorted(relations),
    )


# --------------------------------------------------------------------------
# serialization
#
# Each record type has one field table: the JSON keys in their canonical
# order, each with the codec of its value.  The writer and the strict reader
# both walk these tables, so a key's name, order and type are stated once.


class _Codec(NamedTuple):
    dump: Callable[[Any], Any]
    #: ``load(obj, path)`` checks one parsed JSON value and rebuilds it;
    #: a violation raises SchemaViolation naming ``path``.
    load: Callable[[Any, str], Any]
    item: _Codec | None = None  # each element's codec, for an array
    fields: tuple[tuple[str, _Codec], ...] | None = None  # the key table, for a record


def _scalar(check: Callable[[Any], bool], what: str) -> _Codec:
    def load(obj, path):
        if not check(obj):
            raise SchemaViolation(f"expected {what}", path=path)
        return obj

    return _Codec(lambda value: value, load)


_STR = _scalar(lambda v: isinstance(v, str), "a string")
_INT = _scalar(lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")


def _load_str_map(obj, path: str) -> dict[str, str]:
    if not isinstance(obj, dict):
        raise SchemaViolation("expected an object", path=path)
    for key, value in obj.items():
        _STR.load(value, f"{path}.{key}")
    return dict(obj)


_STR_MAP = _Codec(dict, _load_str_map)


def _array(item: _Codec) -> _Codec:
    def load(obj, path):
        if not isinstance(obj, list):
            raise SchemaViolation("expected an array", path=path)
        return [item.load(value, f"{path}[{i}]") for i, value in enumerate(obj)]

    return _Codec(lambda values: [item.dump(v) for v in values], load, item)


def _load_fields(fields: tuple[tuple[str, _Codec], ...], obj, path: str) -> list:
    """The values of an object that has exactly the table's keys, read in
    table order."""
    if not isinstance(obj, dict):
        raise SchemaViolation("expected an object", path=path)
    for key, _codec in fields:
        if key not in obj:
            raise SchemaViolation(f"missing key {key!r}", path=path)
    if len(obj) != len(fields):
        known = {key for key, _codec in fields}
        extra = next(key for key in obj if key not in known)
        raise SchemaViolation(f"unknown key {extra!r}", path=path)
    return [codec.load(obj[key], f"{path}.{key}") for key, codec in fields]


def _record(cls, *fields: tuple[str, _Codec]) -> _Codec:
    """A record type whose fields are named like its JSON keys and are
    taken by keyword."""

    def dump(value):
        return {key: codec.dump(getattr(value, key)) for key, codec in fields}

    def load(obj, path):
        values = _load_fields(fields, obj, path)
        return cls(**{key: v for (key, _codec), v in zip(fields, values)})

    return _Codec(dump, load, fields=fields)


def _row(*fields: tuple[str, _Codec]) -> _Codec:
    """A tuple written as an object, one key per position."""

    def dump(value):
        return {key: codec.dump(v) for (key, codec), v in zip(fields, value)}

    return _Codec(dump, lambda obj, path: tuple(_load_fields(fields, obj, path)))


_SPAN = _record(SourceSpan, ("file", _STR), ("line_start", _INT), ("line_end", _INT))
_NAME_TYPE = _row(("name", _STR), ("declared_type", _STR))
_ANNOTATIONS = _array(_row(("name", _STR), ("args", _STR_MAP)))
_SIG = _record(
    MethodSig,
    ("name", _STR),
    ("params", _array(_NAME_TYPE)),
    ("return_type", _STR),
    ("annotations", _ANNOTATIONS),
)
_COMPONENT = _record(
    Component,
    ("role", _STR),
    ("name", _STR),
    ("service", _STR),
    ("fields", _array(_NAME_TYPE)),
    ("methods", _array(_SIG)),
    ("annotations", _ANNOTATIONS),
    ("span", _SPAN),
)
_ENDPOINT = _record(
    Endpoint,
    ("owner", _STR),
    ("service", _STR),
    ("http_method", _STR),
    ("url_templates", _array(_STR)),
    ("params", _array(_row(("name", _STR), ("kind", _STR), ("declared_type", _STR)))),
    ("handler", _SIG),
    ("span", _SPAN),
)
_REMOTE_CALL = _record(
    RemoteCall,
    ("caller_service", _STR),
    ("caller_component", _STR),
    ("caller_method", _STR),
    ("http_method", _STR),
    ("url_template", _STR),
    ("arg_count", _INT),
    ("span", _SPAN),
)
_EVENT_OP = _record(
    EventOp,
    ("direction", _STR),
    ("topic", _STR),
    ("service", _STR),
    ("component", _STR),
    ("method", _STR),
    ("span", _SPAN),
)
_METHOD_REF = _row(("component", _STR), ("method", _STR))
_PLAIN_TYPE = _record(PlainType, ("name", _STR), ("service", _STR), ("span", _SPAN))
_WARNINGS = _array(_row(("file", _STR), ("line", _INT), ("message", _STR)))
_REPORT = _record(
    ExtractionReport,
    ("files_scanned", _INT),
    ("files_skipped", _array(_row(("file", _STR), ("reason", _STR)))),
    ("nodes_emitted", _INT),
    ("warnings", _WARNINGS),
)
_SERVICE_IR = _record(
    ServiceIr,
    ("service_name", _STR),
    ("components", _array(_COMPONENT)),
    ("endpoints", _array(_ENDPOINT)),
    ("remote_calls", _array(_REMOTE_CALL)),
    ("event_ops", _array(_EVENT_OP)),
    ("internal_calls", _array(_row(("caller", _METHOD_REF), ("callee", _METHOD_REF)))),
    ("plain_types", _array(_PLAIN_TYPE)),
    ("extraction_report", _REPORT),
    ("warnings", _WARNINGS),
)


def _record_chunks(fields: tuple[tuple[str, _Codec], ...], value) -> Iterator[bytes]:
    """A record as chunks of its canonical encoding, each array one element
    at a time; an element that is a record holding an array of records (a
    component and its methods) is written the same way."""
    for i, (key, codec) in enumerate(fields):
        yield f'{"," if i else "{"}"{key}":'.encode()
        item, values = codec.item, getattr(value, key)
        if item is None:
            yield canonical_bytes(codec.dump(values))
        elif item.fields and any(c.item and c.item.fields for _key, c in item.fields):
            yield from array_chunks(_record_chunks(item.fields, v) for v in values)
        else:
            yield from array_chunks(item.dump(v) for v in values)
    yield b"}"


def save_service_ir(ir: ServiceIr) -> bytes:
    """Canonical `.ir.json` bytes: equal IRs always give identical bytes."""
    return join_chunks(_record_chunks(_SERVICE_IR.fields, ir))


def load_service_ir(data: bytes | str) -> ServiceIr:
    """Parse and validate `.ir.json` bytes back into a ServiceIr.  Where a
    document breaks the schema in several places, the first in key order is
    reported."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedDocument(f"not valid UTF-8: {exc}") from None
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"not valid JSON: {exc}") from None
    return _SERVICE_IR.load(obj, "$")
