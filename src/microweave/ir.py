"""Per-service intermediate representation and its canonical serialization.

A ServiceIr bundles one service's matcher output with the internal call
graph (name-resolved, unique-match-only) and the extraction report.  The
``.ir.json`` format round-trips exactly: load(save(x)) == x, and two equal
values serialize to identical bytes.
"""

from __future__ import annotations

import json

from microweave.errors import DuplicateServiceError, MalformedDocument, SchemaViolation
from microweave.frontend import ExtractionReport
from microweave.jsonio import INT, STR, Codec, array, join_chunks, record, record_chunks, row
from microweave.jsonio import canonical_bytes  # not called here; perfbench/tracer.py hooks it
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
    #: internal_calls: ((caller component, caller method), (callee component, callee method))
    __slots__ = (
        "service_name", "components", "endpoints", "remote_calls", "event_ops",
        "internal_calls", "plain_types", "extraction_report", "warnings",
    )
    _defaults = {**dict.fromkeys(__slots__[1:], list), "extraction_report": ExtractionReport}


class DataModel(Record):
    #: relations: (entity name, field name, entity name)
    __slots__ = ("service_name", "entities", "relations")
    _defaults = {"entities": list, "relations": list}


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
# serialization: the field tables of ``.ir.json``


def _load_str_map(obj, path: str) -> dict[str, str]:
    if not isinstance(obj, dict):
        raise SchemaViolation("expected an object", path=path)
    for key, value in obj.items():
        STR.load(value, f"{path}.{key}")
    return dict(obj)


_STR_MAP = Codec(dict, _load_str_map)
_SPAN = record(("file", STR), ("line_start", INT), ("line_end", INT), cls=SourceSpan)
NAME_TYPE = row(("name", STR), ("declared_type", STR))
_ANNOTATIONS = array(row(("name", STR), ("args", _STR_MAP)))
_SIG = record(
    ("name", STR),
    ("params", array(NAME_TYPE)),
    ("return_type", STR),
    ("annotations", _ANNOTATIONS),
    cls=MethodSig,
)
_COMPONENT = record(
    ("role", STR),
    ("name", STR),
    ("service", STR),
    ("fields", array(NAME_TYPE)),
    ("methods", array(_SIG)),
    ("annotations", _ANNOTATIONS),
    ("span", _SPAN),
    cls=Component,
)
_ENDPOINT = record(
    ("owner", STR),
    ("service", STR),
    ("http_method", STR),
    ("url_templates", array(STR)),
    ("params", array(row(("name", STR), ("kind", STR), ("declared_type", STR)))),
    ("handler", _SIG),
    ("span", _SPAN),
    cls=Endpoint,
)
_REMOTE_CALL = record(
    ("caller_service", STR),
    ("caller_component", STR),
    ("caller_method", STR),
    ("http_method", STR),
    ("url_template", STR),
    ("arg_count", INT),
    ("span", _SPAN),
    cls=RemoteCall,
)
_EVENT_OP = record(
    ("direction", STR),
    ("topic", STR),
    ("service", STR),
    ("component", STR),
    ("method", STR),
    ("span", _SPAN),
    cls=EventOp,
)
_METHOD_REF = row(("component", STR), ("method", STR))
_PLAIN_TYPE = record(("name", STR), ("service", STR), ("span", _SPAN), cls=PlainType)
_WARNINGS = array(row(("file", STR), ("line", INT), ("message", STR)))
_REPORT = record(
    ("files_scanned", INT),
    ("files_skipped", array(row(("file", STR), ("reason", STR)))),
    ("nodes_emitted", INT),
    ("warnings", _WARNINGS),
    cls=ExtractionReport,
)
#: The table of one ``.ir.json`` document.
IR_JSON = record(
    ("service_name", STR),
    ("components", array(_COMPONENT)),
    ("endpoints", array(_ENDPOINT)),
    ("remote_calls", array(_REMOTE_CALL)),
    ("event_ops", array(_EVENT_OP)),
    ("internal_calls", array(row(("caller", _METHOD_REF), ("callee", _METHOD_REF)))),
    ("plain_types", array(_PLAIN_TYPE)),
    ("extraction_report", _REPORT),
    ("warnings", _WARNINGS),
    cls=ServiceIr,
)


def save_service_ir(ir: ServiceIr) -> bytes:
    """Canonical `.ir.json` bytes: equal IRs always give identical bytes."""
    return join_chunks(record_chunks(IR_JSON, ir))


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
    return IR_JSON.load(obj, "$")
