"""Cross-service weaving: entity matching, call/endpoint matching, events.

This module takes the per-service IRs and produces the system-level view:
a context map of shared entities, communication edges recovered from URL
templates, event edges recovered from topic names, and the declared
topology filtered down to analyzed services.
"""

from __future__ import annotations

import re
from itertools import chain, combinations
from typing import NamedTuple

from microweave import __version__, similarity
from microweave.errors import DuplicateServiceError
from microweave.frontend import HTTP_UNKNOWN, URL_WILDCARD
from microweave.ir import DataModel, ServiceIr, derive_data_model, unwrap_collection
from microweave.jsonio import array_chunks, canonical_bytes, join_chunks
from microweave.matchers import (
    DIRECTION_PUBLISH,
    DIRECTION_SUBSCRIBE,
    Component,
    Endpoint,
    RemoteCall,
)
from microweave.record import Record
from microweave.similarity import Taxonomy, entity_similarity, greedy_pairing
from microweave.topology import Inventory, TopologyModel, build_inventory

DEFAULT_ENTITY_THRESHOLD = 0.65
DEFAULT_FIELD_THRESHOLD = 0.6
DEFAULT_PATH_THRESHOLD = 0.8

_PRIMITIVE_CANON = {
    "int": "int",
    "integer": "int",
    "long": "long",
    "short": "short",
    "byte": "byte",
    "float": "float",
    "double": "double",
    "boolean": "boolean",
    "char": "char",
    "character": "char",
}

_URL_RE = re.compile(r"^(https?)://([^/]*)(/.*)?$")


class WeaveConfig(NamedTuple):
    entity_threshold: float = DEFAULT_ENTITY_THRESHOLD
    field_threshold: float = DEFAULT_FIELD_THRESHOLD
    path_threshold: float = DEFAULT_PATH_THRESHOLD
    config_digest: str = ""


class FieldMatch(NamedTuple):
    field_a: str
    field_b: str
    score: float
    type_compatible: bool


class EntityMatch(NamedTuple):
    #: the two entities joined, ``a`` from the service that sorts first
    a: Component
    b: Component
    score: float
    strategy: str
    field_matches: tuple[FieldMatch, ...]

    @property
    def service_a(self) -> str:
        return self.a.service

    @property
    def entity_a(self) -> str:
        return self.a.name

    @property
    def service_b(self) -> str:
        return self.b.service

    @property
    def entity_b(self) -> str:
        return self.b.name


class ContextMap(Record):
    __slots__ = ("bounded_contexts", "matches")

    def __init__(self, bounded_contexts: list[DataModel], matches: list[EntityMatch]):
        #: one per-service data model, sorted by service name
        self.bounded_contexts = bounded_contexts
        self.matches = matches


class CommEdge(NamedTuple):
    call: RemoteCall
    endpoint: Endpoint
    matched_url_template: str
    score: float
    confidence: float
    ambiguous: bool

    @property
    def from_service(self) -> str:
        return self.call.caller_service

    @property
    def to_service(self) -> str:
        return self.endpoint.service


class SystemIr(Record):
    __slots__ = (
        "services", "context_map", "comm_edges", "event_edges", "topology_edges", "metadata",
        "unmatched_calls",
    )

    def __init__(
        self,
        services: list[ServiceIr],
        context_map: ContextMap,
        comm_edges: list[CommEdge],
        event_edges: list[tuple[str, str, str]],
        topology_edges: list[tuple[str, str, str]],
        metadata: dict | None = None,
        unmatched_calls: list[tuple[RemoteCall, Endpoint | None]] | None = None,
    ):
        self.services = services
        self.context_map = context_map
        self.comm_edges = comm_edges
        #: (publisher service, subscriber service, topic)
        self.event_edges = event_edges
        #: (from service, to service, origin), analyzed services only
        self.topology_edges = topology_edges
        self.metadata = {} if metadata is None else metadata
        #: (call, method near-miss endpoint or None) for each call without an
        #: edge; read by the checks, never serialized
        self.unmatched_calls = [] if unmatched_calls is None else unmatched_calls


def canonical_type(declared_type: str) -> str:
    """Unwrap one collection shell, drop any package qualifier, and fold
    primitive wrapper spellings."""
    base = unwrap_collection(declared_type)
    if "<" not in base:
        base = base.rsplit(".", 1)[-1]
    return _PRIMITIVE_CANON.get(base.lower(), base)


def type_compatible(type_a: str, type_b: str) -> bool:
    return canonical_type(type_a) == canonical_type(type_b)


class NameSimilarity:
    """``entity_similarity`` for one context map, computed once per ordered
    pair of distinct token lists.

    The score depends only on the two normalized token lists (and the
    taxonomy), so each distinct name is normalized once and each ordered
    token pair is scored once; entity and field names share the cache.
    Pairs are keyed in order because the taxonomy pairing breaks ties by
    token index.
    """

    def __init__(self, taxonomy: Taxonomy | None):
        self.taxonomy = taxonomy
        self._tokens: dict[str, tuple[str, ...]] = {}
        self._scores: dict[tuple[tuple[str, ...], tuple[str, ...]], tuple[float, str]] = {}

    def _tokens_of(self, name: str) -> tuple[str, ...]:
        tokens = self._tokens.get(name)
        if tokens is None:
            tokens = self._tokens[name] = tuple(similarity.normalize_entity_name(name))
        return tokens

    def __call__(self, name_a: str, name_b: str) -> tuple[float, str]:
        """(score, strategy) of ``entity_similarity(name_a, name_b)``."""
        key = (self._tokens_of(name_a), self._tokens_of(name_b))
        result = self._scores.get(key)
        if result is None:
            result = self._scores[key] = entity_similarity(name_a, name_b, taxonomy=self.taxonomy)
        return result


def match_fields(
    fields_a: list[tuple[str, str]],
    fields_b: list[tuple[str, str]],
    name_similarity: NameSimilarity,
    config: WeaveConfig,
) -> tuple[FieldMatch, ...]:
    """Greedy one-to-one field pairing by descending name similarity."""
    scored = []
    for ia, (name_a, _) in enumerate(fields_a):
        for ib, (name_b, _) in enumerate(fields_b):
            score, _strategy = name_similarity(name_a, name_b)
            if score >= config.field_threshold:
                scored.append((score, ia, ib))
    matches = [
        FieldMatch(
            field_a=fields_a[ia][0],
            field_b=fields_b[ib][0],
            score=score,
            type_compatible=type_compatible(fields_a[ia][1], fields_b[ib][1]),
        )
        for score, ia, ib in greedy_pairing(scored)
    ]
    matches.sort(key=lambda m: (m.field_a, m.field_b))
    return tuple(matches)


def build_context_map(
    models: list[DataModel],
    taxonomy: Taxonomy | None,
    config: WeaveConfig,
) -> ContextMap:
    """Compare every cross-service entity pair; keep pairs at or above the
    entity threshold along with their field alignment."""
    ordered = sorted(models, key=lambda m: m.service_name)
    name_similarity = NameSimilarity(taxonomy)
    matches: list[EntityMatch] = []
    with_entities = [model for model in ordered if model.entities]
    for model_a, model_b in combinations(with_entities, 2):
        for ent_a in model_a.entities:
            for ent_b in model_b.entities:
                score, strategy = name_similarity(ent_a.name, ent_b.name)
                if score < config.entity_threshold:
                    continue
                matches.append(
                    EntityMatch(
                        a=ent_a,
                        b=ent_b,
                        score=score,
                        strategy=strategy,
                        field_matches=match_fields(
                            ent_a.fields, ent_b.fields, name_similarity, config
                        ),
                    )
                )
    matches.sort(key=lambda m: (m.service_a, m.entity_a, m.service_b, m.entity_b))
    return ContextMap(bounded_contexts=ordered, matches=matches)


def split_host(url_template: str) -> tuple[str | None, str]:
    """Split an absolute URL template into (host token, path); relative
    templates return (None, template)."""
    matched = _URL_RE.match(url_template)
    if not matched:
        return None, url_template
    hostport = matched.group(2)
    path = matched.group(3) or "/"
    return hostport.split(":")[0], path


#: A path split by ``_split_path``.
_Segments = tuple[str | None, ...]


def _split_path(path: str) -> _Segments:
    """The path's segments, each literal as itself and each template
    (``{...}``) as None."""
    trimmed = path.strip("/")
    if not trimmed:
        return ()
    return tuple(
        None if seg.startswith("{") and seg.endswith("}") else seg
        for seg in trimmed.split("/")
    )


def _segment_score(call_segs: _Segments, ep_segs: _Segments) -> float:
    """Segment-aligned similarity between a call path and an endpoint path,
    both split by ``_split_path``.

    Literal pairs score 1, pairs with a template on either side score 0.5,
    and a literal mismatch zeroes the whole comparison.  Unequal lengths are
    tolerated only when the shorter path is a prefix and every unmatched
    segment of the longer one is a template; those extras still count in
    the denominator.
    """
    if not call_segs and not ep_segs:
        return 1.0
    strong = 0
    weak = 0
    for left, right in zip(call_segs, ep_segs):
        if left is None or right is None:
            weak += 1
        elif left == right:
            strong += 1
        else:
            return 0.0
    n_call, n_ep = len(call_segs), len(ep_segs)
    longer = call_segs if n_call > n_ep else ep_segs
    if any(seg is not None for seg in longer[min(n_call, n_ep):]):
        return 0.0
    return (strong + 0.5 * weak) / max(n_call, n_ep)


def _method_factor(call_method: str, endpoint_method: str) -> float | None:
    if call_method == endpoint_method:
        return 1.0
    if call_method == HTTP_UNKNOWN or endpoint_method == "ANY":
        return 0.9
    return None


#: An endpoint with each URL template's path split once:
#: (endpoint, ((template, path segments), ...)).
_IndexedEndpoint = tuple[Endpoint, tuple[tuple[str, _Segments], ...]]


class _TrieNode:
    """One path-segment trie node: children keyed by literal segment, or
    None for a template slot, and the (endpoint position, template
    position) of each template that ends here."""

    __slots__ = ("children", "ends")

    def __init__(self):
        self.children: dict[str | None, _TrieNode] = {}
        self.ends: list[tuple[int, int]] = []


def _walk(root: _TrieNode, segs: _Segments) -> list[tuple[int, int]]:
    """The (endpoint position, template position) of every template in the
    trie whose ``_segment_score`` against ``segs`` is above 0, sorted.

    A literal call segment follows its own child and the slot child, and a
    call slot follows every child.  A template shorter than the call
    matches only when the rest of the call is slots, and one longer than
    the call only through slot edges.  An empty path scores above 0 only
    against another empty path.
    """
    n = len(segs)
    if n == 0:
        return sorted(root.ends)
    # slots_from[i]: every call segment from i on is a slot.
    slots_from = [True] * (n + 1)
    for i in range(n - 1, -1, -1):
        slots_from[i] = segs[i] is None and slots_from[i + 1]
    hits: list[tuple[int, int]] = []
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if depth >= n:
            hits.extend(node.ends)
            child = node.children.get(None)
            if child is not None:
                stack.append((child, depth + 1))
            continue
        if depth and slots_from[depth]:
            hits.extend(node.ends)
        seg = segs[depth]
        if seg is None:
            stack.extend((child, depth + 1) for child in node.children.values())
            continue
        for key in (seg, None):
            child = node.children.get(key)
            if child is not None:
                stack.append((child, depth + 1))
    hits.sort()
    return hits


class EndpointIndex:
    """The endpoints one weave matches calls against, in their given order,
    each template's host dropped and path split once.

    Calls are matched through path-segment tries: one per service, and one
    over every endpoint for calls that name no known host, each built on
    first use."""

    def __init__(self, endpoints: list[Endpoint]):
        self.entries: list[_IndexedEndpoint] = []
        self._positions: dict[str, list[int]] = {}
        self._tries: dict[str | None, _TrieNode] = {}
        for position, endpoint in enumerate(endpoints):
            templates = tuple(
                (template, _split_path(split_host(template)[1]))
                for template in endpoint.url_templates
            )
            self.entries.append((endpoint, templates))
            self._positions.setdefault(endpoint.service, []).append(position)

    def hits(self, segs: _Segments, service: str | None) -> list[tuple[int, int]]:
        """``_walk`` over the endpoints of ``service``, or of every service
        when it is None."""
        trie = self._tries.get(service)
        if trie is None:
            trie = self._tries[service] = self._build_trie(
                range(len(self.entries)) if service is None
                else self._positions.get(service, ())
            )
        return _walk(trie, segs)

    def _build_trie(self, positions) -> _TrieNode:
        root = _TrieNode()
        for position in positions:
            for template_position, (_template, ep_segs) in enumerate(self.entries[position][1]):
                node = root
                for seg in ep_segs:
                    child = node.children.get(seg)
                    if child is None:
                        child = node.children[seg] = _TrieNode()
                    node = child
                node.ends.append((position, template_position))
        return root


def _path_matches(
    call: RemoteCall, index: EndpointIndex, inventory: Inventory
) -> tuple[list[tuple[Endpoint, float, str]], float]:
    """Each endpoint the call may reach whose path scores above 0, as
    (endpoint, best path score, first template reaching it) in index
    order, and the call's host penalty.

    A resolvable host restricts candidates to that service; an unresolvable
    one widens to all services at half confidence; a relative URL widens
    at full confidence.
    """
    host, path = split_host(call.url_template)
    segs = _split_path(path)
    service, penalty = None, 1.0
    if host is not None:
        service = inventory.get(host)
        if service is None:
            penalty = 0.5
    matches: list[tuple[Endpoint, float, str]] = []
    last = -1
    for position, template_position in index.hits(segs, service):
        endpoint, templates = index.entries[position]
        template, ep_segs = templates[template_position]
        score = _segment_score(segs, ep_segs)
        if position != last:
            matches.append((endpoint, score, template))
            last = position
        elif score > matches[-1][1]:
            matches[-1] = (endpoint, score, template)
    return matches, penalty


def match_call_to_endpoints(
    call: RemoteCall,
    index: EndpointIndex,
    inventory: Inventory,
    config: WeaveConfig,
) -> list[CommEdge]:
    """Match one remote call against the endpoint inventory.

    Each candidate endpoint scores by its best URL template times its
    method factor; every endpoint tied at the best overall score gets an
    edge, splitting the host penalty k ways as confidence.
    """
    matches, host_penalty = _path_matches(call, index, inventory)
    scored: list[tuple[float, Endpoint, str]] = []
    for endpoint, best, template in matches:
        factor = _method_factor(call.http_method, endpoint.http_method)
        if factor is not None:
            scored.append((best * factor, endpoint, template))

    if not scored:
        return []
    top = max(score for score, _, _ in scored)
    if top < config.path_threshold:
        return []
    ties = [(endpoint, template) for score, endpoint, template in scored if score == top]
    edges = [
        CommEdge(
            call=call,
            endpoint=endpoint,
            matched_url_template=template,
            score=top,
            confidence=host_penalty / len(ties),
            ambiguous=len(ties) > 1,
        )
        for endpoint, template in ties
    ]
    edges.sort(key=_edge_key)
    return edges


def _method_near_miss(
    call: RemoteCall,
    index: EndpointIndex,
    inventory: Inventory,
    config: WeaveConfig,
) -> Endpoint | None:
    """The candidate whose path matches at or above the threshold but whose
    HTTP method blocks the call: best path score first, then service, file
    and line."""
    matches, _penalty = _path_matches(call, index, inventory)
    near_misses = [
        ((-score, endpoint.service, endpoint.span.file, endpoint.span.line_start), endpoint)
        for endpoint, score, _template in matches
        if score >= config.path_threshold
        and _method_factor(call.http_method, endpoint.http_method) is None
    ]
    if not near_misses:
        return None
    return min(near_misses, key=lambda row: row[0])[1]


def _edge_key(edge: CommEdge):
    return (
        edge.from_service,
        edge.to_service,
        edge.call.span.file,
        edge.call.span.line_start,
        edge.endpoint.span.file,
        edge.endpoint.span.line_start,
        edge.matched_url_template,
    )


def match_events(irs: list[ServiceIr]) -> tuple[list[tuple[str, str, str]], list[str]]:
    """Pair publishes with subscribes on equal literal topics."""
    publishes = []
    subscribes = []
    for ir in irs:
        for op in ir.event_ops:
            if op.direction == DIRECTION_PUBLISH:
                publishes.append(op)
            elif op.direction == DIRECTION_SUBSCRIBE:
                subscribes.append(op)
    edges: set[tuple[str, str, str]] = set()
    warnings: list[str] = []
    for op in publishes:
        if op.topic == URL_WILDCARD:
            warnings.append(
                f"{op.service}: publish with non-literal topic at "
                f"{op.span.file}:{op.span.line_start} cannot be matched"
            )
            continue
        hit = False
        for sub in subscribes:
            if sub.topic == op.topic:
                edges.add((op.service, sub.service, op.topic))
                hit = True
        if not hit:
            warnings.append(
                f"{op.service}: topic {op.topic!r} is published but never "
                f"subscribed by an analyzed service"
            )
    for sub in subscribes:
        if sub.topic == URL_WILDCARD:
            warnings.append(
                f"{sub.service}: subscribe with non-literal topic at "
                f"{sub.span.file}:{sub.span.line_start} cannot be matched"
            )
    return sorted(edges), warnings


def weave(
    irs: list[ServiceIr],
    taxonomy: Taxonomy | None = None,
    topology: TopologyModel | None = None,
    config: WeaveConfig | None = None,
) -> SystemIr:
    """Assemble the system-level IR from per-service IRs."""
    config = config or WeaveConfig()
    seen: set[str] = set()
    for ir in irs:
        if ir.service_name in seen:
            raise DuplicateServiceError(
                f"duplicate service name {ir.service_name!r}"
            )
        seen.add(ir.service_name)
    ordered = sorted(irs, key=lambda ir: ir.service_name)
    names = {ir.service_name for ir in ordered}

    inventory = build_inventory(topology, [ir.service_name for ir in ordered])
    models = [derive_data_model(ir) for ir in ordered]
    context_map = build_context_map(models, taxonomy, config)

    index = EndpointIndex([ep for ir in ordered for ep in ir.endpoints])
    comm_edges: list[CommEdge] = []
    unmatched_calls: list[tuple[RemoteCall, Endpoint | None]] = []
    for ir in ordered:
        for call in ir.remote_calls:
            edges = match_call_to_endpoints(call, index, inventory, config)
            if edges:
                comm_edges.extend(edges)
            else:
                near_miss = _method_near_miss(call, index, inventory, config)
                unmatched_calls.append((call, near_miss))
    comm_edges.sort(key=_edge_key)

    event_edges, event_warnings = match_events(ordered)

    topology_edges: list[tuple[str, str, str]] = []
    if topology is not None:
        topology_edges = sorted(
            {
                (src, dst, origin)
                for src, dst, origin in topology.declared_edges
                if src in names and dst in names
            }
        )

    warnings = list(inventory.warnings)
    if topology is not None:
        warnings.extend(topology.warnings)
    warnings.extend(event_warnings)

    metadata = {
        "tool_version": __version__,
        "config_digest": config.config_digest,
        "inventory": {token: inventory[token] for token in sorted(inventory)},
        "warnings": warnings,
    }
    return SystemIr(
        services=ordered,
        context_map=context_map,
        comm_edges=comm_edges,
        event_edges=event_edges,
        topology_edges=topology_edges,
        metadata=metadata,
        unmatched_calls=unmatched_calls,
    )


def field_match_to_json_obj(match: FieldMatch) -> dict:
    return {
        "field_a": match.field_a,
        "field_b": match.field_b,
        "score": match.score,
        "type_compatible": match.type_compatible,
    }


def entity_match_to_json_obj(match: EntityMatch) -> dict:
    return {
        "service_a": match.service_a,
        "entity_a": match.entity_a,
        "service_b": match.service_b,
        "entity_b": match.entity_b,
        "score": match.score,
        "strategy": match.strategy,
        "field_matches": [field_match_to_json_obj(f) for f in match.field_matches],
    }


def save_context_map(context_map: ContextMap) -> bytes:
    """Canonical ``context-map.json`` bytes."""
    head = canonical_bytes({
        "bounded_contexts": [
            {
                "service": model.service_name,
                "entities": [
                    {
                        "name": entity.name,
                        "fields": [
                            {"name": name, "declared_type": declared}
                            for name, declared in entity.fields
                        ],
                    }
                    for entity in model.entities
                ],
                "relations": [
                    {"from_entity": src, "field": field_name, "to_entity": dst}
                    for src, field_name, dst in model.relations
                ],
            }
            for model in context_map.bounded_contexts
        ],
    })
    return join_chunks(chain(
        (memoryview(head)[:-1], b',"matches":'),
        array_chunks(entity_match_to_json_obj(m) for m in context_map.matches),
        (b"}",),
    ))


def comm_edge_to_json_obj(edge: CommEdge) -> dict:
    call, endpoint = edge.call, edge.endpoint
    return {
        "from_service": edge.from_service,
        "to_service": edge.to_service,
        "call": {
            "service": call.caller_service,
            "component": call.caller_component,
            "method": call.caller_method,
            "http_method": call.http_method,
            "url_template": call.url_template,
            "file": call.span.file,
            "line": call.span.line_start,
        },
        "endpoint": {
            "service": endpoint.service,
            "owner": endpoint.owner,
            "handler": endpoint.handler.name,
            "http_method": endpoint.http_method,
            "file": endpoint.span.file,
            "line": endpoint.span.line_start,
        },
        "matched_url_template": edge.matched_url_template,
        "score": edge.score,
        "confidence": edge.confidence,
        "ambiguous": edge.ambiguous,
    }


def system_to_json_obj(system: SystemIr) -> dict:
    """``system.json`` after its ``services`` array (each ``.ir.json``
    document), ``context_map`` (the ``context-map.json`` document) and
    ``comm_edges``, which are written apart."""
    return {
        "event_edges": [
            {"publisher": pub, "subscriber": sub, "topic": topic}
            for pub, sub, topic in system.event_edges
        ],
        "topology_edges": [
            {"from_service": src, "to_service": dst, "origin": origin}
            for src, dst, origin in system.topology_edges
        ],
        "metadata": system.metadata,
    }
