"""Pattern matchers that turn a language-agnostic tree into component records.

Rules classify type declarations into the four framework roles (entity,
repository, service, controller) by annotation or name-suffix triggers;
classified components then yield endpoints, remote calls, and event
operations.  Everything here is pure and deterministic: permuting the rule
list never changes results because priority alone decides conflicts.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from microweave.errors import MicroweaveError
from microweave.frontend import JAXRS_LIKE, SPRING_LIKE, SUBSCRIBE_ANNOTATIONS, URL_WILDCARD
from microweave.laast import (
    CALL_KIND_ATTR,
    CALL_KIND_EVENT_PUBLISH,
    CALL_KIND_LOCAL,
    CALL_KIND_REMOTE,
    LaastNode,
    NodeKind,
    SourceSpan,
)
from microweave.record import Record

ROLE_ENTITY = "Entity"
ROLE_REPOSITORY = "Repository"
ROLE_SERVICE = "Service"
ROLE_CONTROLLER = "Controller"
ROLES = (ROLE_ENTITY, ROLE_REPOSITORY, ROLE_SERVICE, ROLE_CONTROLLER)

HTTP_METHODS = ("GET", "POST", "PUT", "DELETE", "PATCH", "ANY")

PARAM_PATH = "path"
PARAM_QUERY = "query"
PARAM_BODY = "body"

DIRECTION_PUBLISH = "Publish"
DIRECTION_SUBSCRIBE = "Subscribe"


class MatcherRule(NamedTuple):
    """One classification rule: triggers plus a priority for conflicts."""

    component_role: str
    annotation_names: tuple[str, ...] = ()
    name_suffixes: tuple[str, ...] = ()
    priority: int = 0


def validate_ruleset(ruleset: list[MatcherRule]) -> None:
    priorities = set()
    for idx, rule in enumerate(ruleset):
        if rule.component_role not in ROLES:
            raise MicroweaveError(f"rule {idx}: unknown role {rule.component_role!r}")
        if not rule.annotation_names and not rule.name_suffixes:
            raise MicroweaveError(f"rule {idx}: needs at least one trigger")
        if rule.priority in priorities:
            raise MicroweaveError(f"rule {idx}: duplicate priority {rule.priority}")
        priorities.add(rule.priority)


def default_ruleset(convention: str = SPRING_LIKE) -> list[MatcherRule]:
    """The stock rules for a convention.  Suffix triggers match anywhere in
    the type name (so ``OrderServiceImpl`` still reads as a service);
    annotation triggers need an exact annotation name."""
    if convention == JAXRS_LIKE:
        controller_annotations = ("Path",)
        service_annotations = ("Service", "Stateless")
    else:
        controller_annotations = ("RestController", "Controller")
        service_annotations = ("Service",)
    return [
        MatcherRule(ROLE_CONTROLLER, controller_annotations, ("Controller",), priority=40),
        MatcherRule(ROLE_REPOSITORY, ("Repository",), ("Repository",), priority=30),
        MatcherRule(ROLE_SERVICE, service_annotations, ("Service",), priority=20),
        MatcherRule(ROLE_ENTITY, ("Entity", "Document", "Table"), (), priority=10),
    ]


class MethodSig(Record):
    #: params: (name, declared_type); annotations: (name, {attribute: value})
    __slots__ = ("name", "params", "return_type", "annotations")


class Component(Record):
    #: fields: (name, declared_type); annotations: (name, {attribute: value})
    __slots__ = ("role", "name", "service", "fields", "methods", "annotations", "span")


class Endpoint(Record):
    #: params: (name, kind, declared_type)
    __slots__ = ("owner", "service", "http_method", "url_templates", "params", "handler", "span")


class RemoteCall(Record):
    __slots__ = (
        "caller_service", "caller_component", "caller_method", "http_method", "url_template",
        "arg_count", "span",
    )


class EventOp(Record):
    __slots__ = ("direction", "topic", "service", "component", "method", "span")


class LocalCall(Record):
    """A resolved-in-type invocation, kept for internal call-graph building."""

    __slots__ = ("service", "component", "method", "callee", "span")


class PlainType(Record):
    """A type no rule classified; kept for the record, creates no component."""

    __slots__ = ("name", "service", "span")


class MatcherOutput(Record):
    """run_matchers result: the lifted elements of one service."""

    __slots__ = (
        "components", "endpoints", "remote_calls", "event_ops", "local_calls", "plain_types",
        "warnings",
    )
    _defaults = dict.fromkeys(__slots__, list)


def classify(type_node: LaastNode, ruleset: list[MatcherRule]) -> MatcherRule | None:
    """The highest-priority rule whose annotation or suffix trigger fires."""
    annotation_names = {
        c.name for c in type_node.children if c.kind == NodeKind.ANNOTATION
    }
    for rule in sorted(ruleset, key=lambda r: -r.priority):
        if any(a in annotation_names for a in rule.annotation_names):
            return rule
        if any(s in (type_node.name or "") for s in rule.name_suffixes):
            return rule
    return None


# --------------------------------------------------------------------------
# endpoint derivation

_SPRING_VERB_MAPPINGS = {
    "GetMapping": "GET",
    "PostMapping": "POST",
    "PutMapping": "PUT",
    "DeleteMapping": "DELETE",
    "PatchMapping": "PATCH",
}
_JAXRS_VERBS = {"GET", "POST", "PUT", "DELETE", "PATCH"}

_SIMPLE_TYPES = {
    "byte", "short", "int", "long", "float", "double", "boolean", "char",
    "Byte", "Short", "Integer", "Long", "Float", "Double", "Boolean",
    "Character", "String", "CharSequence", "BigDecimal", "BigInteger", "UUID",
}

_TEMPLATE_VAR_RE = re.compile(r"\{([^{}/]+)\}")


def join_path(prefix: str, path: str) -> str:
    """Join a class-level prefix with a method-level path: exactly one slash
    at the junction, a leading slash always, no trailing slash except for the
    root path itself."""
    combined = "/" + prefix.strip("/")
    tail = path.strip("/")
    if tail:
        combined = combined.rstrip("/") + "/" + tail
    return combined


def _mapping_paths(args: dict[str, str]) -> list[str]:
    raw = args.get("value", args.get("path", ""))
    return raw.split("|") if raw else [""]


def _endpoint_params(
    method_node: LaastNode, convention: str
) -> list[tuple[str, str, str]]:
    params: list[tuple[str, str, str]] = []
    for param in method_node.children:
        if param.kind != NodeKind.PARAM:
            continue
        declared = param.attributes.get("declared_type", "")
        bound_name = param.name or ""
        kind = None
        for ann in param.children:
            if ann.kind != NodeKind.ANNOTATION:
                continue
            if ann.name in ("PathVariable", "PathParam"):
                kind = PARAM_PATH
            elif ann.name in ("RequestParam", "QueryParam"):
                kind = PARAM_QUERY
            elif ann.name == "RequestBody":
                kind = PARAM_BODY
            else:
                continue
            value = ann.attributes.get("value", ann.attributes.get("name", ""))
            if value:
                bound_name = value
            break
        if kind is None:
            if convention == JAXRS_LIKE:
                kind = PARAM_BODY
            else:
                base = declared.split("<")[0].strip()
                kind = PARAM_QUERY if base in _SIMPLE_TYPES else PARAM_BODY
        params.append((bound_name, kind, declared))
    return params


def _method_sig(method_node: LaastNode) -> MethodSig:
    return MethodSig(
        name=method_node.name or "",
        params=[
            (p.name or "", p.attributes.get("declared_type", ""))
            for p in method_node.children
            if p.kind == NodeKind.PARAM
        ],
        return_type=method_node.attributes.get("return_type", ""),
        annotations=[
            (a.name or "", dict(a.attributes))
            for a in method_node.children
            if a.kind == NodeKind.ANNOTATION
        ],
    )


def _method_mappings(method_node: LaastNode) -> list[tuple[str, list[str]]]:
    """(http method, method-level paths) pairs for one handler method."""
    mappings: list[tuple[str, list[str]]] = []
    annotations = [c for c in method_node.children if c.kind == NodeKind.ANNOTATION]
    for ann in annotations:
        if ann.name in _SPRING_VERB_MAPPINGS:
            mappings.append((_SPRING_VERB_MAPPINGS[ann.name], _mapping_paths(ann.attributes)))
        elif ann.name == "RequestMapping":
            methods = ann.attributes.get("method", "")
            verbs = [v for v in methods.split("|") if v] or ["ANY"]
            paths = _mapping_paths(ann.attributes)
            for verb in verbs:
                mappings.append((verb if verb in HTTP_METHODS else "ANY", paths))
        elif ann.name in _JAXRS_VERBS:
            path_ann = next((a for a in annotations if a.name == "Path"), None)
            paths = _mapping_paths(path_ann.attributes) if path_ann else [""]
            mappings.append((ann.name, paths))
    return mappings


def _class_prefixes(type_node: LaastNode) -> list[str]:
    for ann in type_node.children:
        if ann.kind != NodeKind.ANNOTATION:
            continue
        if ann.name in ("RequestMapping", "Path"):
            raw = ann.attributes.get("value", ann.attributes.get("path", ""))
            if raw:
                return raw.split("|")
    return [""]


# --------------------------------------------------------------------------
# the matcher run


def run_matchers(
    root: LaastNode,
    ruleset: list[MatcherRule],
    service: str,
    convention: str = SPRING_LIKE,
) -> MatcherOutput:
    """Classify every TypeDecl and lift endpoints, remote calls, and event
    operations from the classified components.

    Output lists are sorted by (file, line); anomalies (unbound path
    variables, missing topics) become warnings on the output, never errors.
    """
    validate_ruleset(ruleset)
    out = MatcherOutput()

    type_nodes: list[LaastNode] = []
    _collect_type_decls(root, type_nodes)

    for type_node in type_nodes:
        span = type_node.span or SourceSpan("<unknown>", 1, 1)
        rule = classify(type_node, ruleset)
        if rule is None:
            out.plain_types.append(PlainType(type_node.name or "", service, span))
            continue
        method_nodes = [m for m in type_node.children if m.kind == NodeKind.METHOD_DECL]
        component = Component(
            role=rule.component_role,
            name=type_node.name or "",
            service=service,
            fields=[
                (f.name or "", f.attributes.get("declared_type", ""))
                for f in type_node.children
                if f.kind == NodeKind.FIELD_DECL
            ],
            methods=[_method_sig(m) for m in method_nodes],
            annotations=[
                (a.name or "", dict(a.attributes))
                for a in type_node.children
                if a.kind == NodeKind.ANNOTATION
            ],
            span=span,
        )
        out.components.append(component)

        prefixes = _class_prefixes(type_node)
        first_endpoint = len(out.endpoints)
        # a handler's endpoints share its signature with the component
        for method_node, sig in zip(method_nodes, component.methods):
            m_span = method_node.span or span
            if component.role == ROLE_CONTROLLER:
                _lift_endpoints(out, component, method_node, sig, prefixes, convention, m_span)
            _lift_calls(out, component, method_node)
        out.warnings.extend(
            _unbound_variable_warnings(out.endpoints[first_endpoint:], component)
        )

    out.components.sort(key=lambda c: (c.span.file, c.span.line_start, c.name))
    out.endpoints.sort(
        key=lambda e: (e.span.file, e.span.line_start, e.http_method, e.url_templates)
    )
    out.remote_calls.sort(key=lambda c: (c.span.file, c.span.line_start, c.url_template))
    out.event_ops.sort(key=lambda e: (e.span.file, e.span.line_start, e.direction, e.topic))
    out.local_calls.sort(key=lambda c: (c.span.file, c.span.line_start, c.callee))
    out.plain_types.sort(key=lambda t: (t.span.file, t.span.line_start, t.name))
    return out


def _collect_type_decls(node: LaastNode, into: list[LaastNode]) -> None:
    if node.kind == NodeKind.TYPE_DECL:
        into.append(node)
        return
    for child in node.children:
        _collect_type_decls(child, into)


def _lift_endpoints(
    out: MatcherOutput,
    component: Component,
    method_node: LaastNode,
    handler: MethodSig,
    prefixes: list[str],
    convention: str,
    span: SourceSpan,
) -> None:
    mappings = _method_mappings(method_node)
    if not mappings:
        return
    params = _endpoint_params(method_node, convention)
    for http_method, paths in mappings:
        templates = [join_path(prefix, path) for prefix in prefixes for path in paths]
        out.endpoints.append(
            Endpoint(
                owner=component.name,
                service=component.service,
                http_method=http_method,
                url_templates=templates,
                params=params,
                handler=handler,
                span=span,
            )
        )


def _lift_calls(out: MatcherOutput, component: Component, method_node: LaastNode) -> None:
    method_name = method_node.name or ""
    for ann in method_node.children:
        if ann.kind != NodeKind.ANNOTATION:
            continue
        topic_key = SUBSCRIBE_ANNOTATIONS.get(ann.name or "")
        if topic_key is None:
            continue
        raw = ann.attributes.get(topic_key, ann.attributes.get("value", ""))
        topics = [t for t in raw.split("|") if t] if raw else []
        if not topics:
            topics = [URL_WILDCARD]
            out.warnings.append(
                (
                    (ann.span or component.span).file,
                    (ann.span or component.span).line_start,
                    f"no literal topic on @{ann.name} ({component.name}.{method_name})",
                )
            )
        for topic in topics:
            out.event_ops.append(
                EventOp(
                    direction=DIRECTION_SUBSCRIBE,
                    topic=topic,
                    service=component.service,
                    component=component.name,
                    method=method_name,
                    span=ann.span or component.span,
                )
            )
    for call in method_node.children:
        if call.kind != NodeKind.CALL:
            continue
        call_kind = call.attributes.get(CALL_KIND_ATTR)
        c_span = call.span or component.span
        if call_kind == CALL_KIND_REMOTE:
            out.remote_calls.append(
                RemoteCall(
                    caller_service=component.service,
                    caller_component=component.name,
                    caller_method=method_name,
                    http_method=call.attributes.get("http_method", "UNKNOWN"),
                    url_template=call.attributes.get("url_template", URL_WILDCARD),
                    arg_count=int(call.attributes.get("arg_count", "0")),
                    span=c_span,
                )
            )
        elif call_kind == CALL_KIND_EVENT_PUBLISH:
            out.event_ops.append(
                EventOp(
                    direction=DIRECTION_PUBLISH,
                    topic=call.attributes.get("topic", URL_WILDCARD),
                    service=component.service,
                    component=component.name,
                    method=method_name,
                    span=c_span,
                )
            )
        elif call_kind == CALL_KIND_LOCAL:
            out.local_calls.append(
                LocalCall(
                    service=component.service,
                    component=component.name,
                    method=method_name,
                    callee=call.name or "",
                    span=c_span,
                )
            )


def _unbound_variable_warnings(
    endpoints: list[Endpoint], component: Component
) -> list[tuple[str, int, str]]:
    warnings: list[tuple[str, int, str]] = []
    for endpoint in endpoints:
        bound = {name for name, kind, _t in endpoint.params if kind == PARAM_PATH}
        for template in endpoint.url_templates:
            for var in _TEMPLATE_VAR_RE.findall(template):
                if var != "*" and var not in bound:
                    warnings.append(
                        (
                            endpoint.span.file,
                            endpoint.span.line_start,
                            f"unbound path variable {{{var}}} in {template} "
                            f"({component.name}.{endpoint.handler.name})",
                        )
                    )
    return warnings
