"""Consistency checks, dependency-smell detection, and coupling metrics.

The rule catalog is closed: E01 dangling call, E02 signature mismatch,
W01 entity drift, W02 ambiguous edge, W03 unreachable endpoint, W04
topology mismatch, S01 cyclic dependency.  Rules can be disabled or have
their severity overridden through the run configuration, but new rule ids
cannot be introduced from outside.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Callable
from typing import NamedTuple

from microweave.matchers import PARAM_BODY, PARAM_PATH, Component, Endpoint, RemoteCall
from microweave.record import Record
from microweave.weave import CommEdge, SystemIr

SEV_ERROR = "error"
SEV_WARNING = "warning"
SEV_INFO = "info"

RULE_DANGLING_CALL = "E01"
RULE_SIGNATURE_MISMATCH = "E02"
RULE_ENTITY_DRIFT = "W01"
RULE_AMBIGUOUS_EDGE = "W02"
RULE_UNREACHABLE_ENDPOINT = "W03"
RULE_TOPOLOGY_MISMATCH = "W04"
RULE_CYCLIC_DEPENDENCY = "S01"

DEFAULT_SEVERITIES = {
    RULE_DANGLING_CALL: SEV_ERROR,
    RULE_SIGNATURE_MISMATCH: SEV_ERROR,
    RULE_ENTITY_DRIFT: SEV_WARNING,
    RULE_AMBIGUOUS_EDGE: SEV_WARNING,
    RULE_UNREACHABLE_ENDPOINT: SEV_INFO,
    RULE_TOPOLOGY_MISMATCH: SEV_WARNING,
    RULE_CYCLIC_DEPENDENCY: SEV_WARNING,
}

RULE_IDS = tuple(sorted(DEFAULT_SEVERITIES))

#: E02 arg-count tolerance; one extra client-side argument (typically the
#: response-type parameter) is never a mismatch.
ARG_COUNT_TOLERANCE = 1


class Subject(NamedTuple):
    """What a finding is about; subjects sort in field order."""

    service: str
    ref: str
    file: str = ""
    line: int = 0


class Finding(NamedTuple):
    rule_id: str
    severity: str
    message: str
    subjects: tuple[Subject, ...]

    def sort_key(self):
        return (self.rule_id, self.subjects)


class ServiceCoupling(Record):
    __slots__ = ("service", "ais", "ads", "instability")


class CouplingReport(Record):
    __slots__ = ("services", "total_services", "total_pairs", "mean_instability")


class CheckSettings(Record):
    __slots__ = ("disabled_rules", "severity_overrides")
    _defaults = {"disabled_rules": frozenset, "severity_overrides": dict}

    def severity(self, rule_id: str) -> str:
        return self.severity_overrides.get(rule_id, DEFAULT_SEVERITIES[rule_id])


#: ``emit(rule_id, message, *subjects)`` records one finding of a check.
Emit = Callable[..., None]


def _emits(*rule_ids: str):
    """Tag a check with the rules it can emit; run_checks skips a check
    whose every rule is disabled."""

    def tag(check):
        check.rule_ids = frozenset(rule_ids)
        return check

    return tag


def _call_pairs(system: SystemIr) -> set[tuple[str, str]]:
    """Distinct (caller, callee) service pairs of the comm edges; a
    service calling itself is no dependency."""
    return {
        (e.from_service, e.to_service)
        for e in system.comm_edges
        if e.from_service != e.to_service
    }


def _event_pairs(system: SystemIr) -> set[tuple[str, str]]:
    """Distinct (publisher, subscriber) service pairs of the event edges,
    self-subscriptions dropped."""
    return {(pub, sub) for pub, sub, _topic in system.event_edges if pub != sub}


def _call_subject(call: RemoteCall) -> Subject:
    return Subject(
        service=call.caller_service,
        ref=f"{call.caller_component}.{call.caller_method}",
        file=call.span.file,
        line=call.span.line_start,
    )


def _entity_subject(entity: Component) -> Subject:
    return Subject(
        service=entity.service,
        ref=entity.name,
        file=entity.span.file,
        line=entity.span.line_start,
    )


def _endpoint_subject(endpoint: Endpoint) -> Subject:
    return Subject(
        service=endpoint.service,
        ref=f"{endpoint.owner}.{endpoint.handler.name}",
        file=endpoint.span.file,
        line=endpoint.span.line_start,
    )


@_emits(RULE_DANGLING_CALL, RULE_SIGNATURE_MISMATCH)
def _check_calls(system: SystemIr, emit: Emit):
    """E01 and the method-mismatch arm of E02 over the calls weave left
    without an edge.

    A call is E02 when weave found an endpoint whose path matches at or
    above the threshold and only the HTTP method blocked it; it is E01
    only when no such near-miss exists.
    """
    for call, endpoint in system.unmatched_calls:
        if endpoint is not None:
            emit(
                RULE_SIGNATURE_MISMATCH,
                f"{call.http_method} {call.url_template} matches the path of "
                f"{endpoint.service} {' '.join(endpoint.url_templates)} but that "
                f"endpoint only accepts {endpoint.http_method}",
                _call_subject(call),
                _endpoint_subject(endpoint),
            )
        else:
            emit(
                RULE_DANGLING_CALL,
                f"{call.http_method} {call.url_template} from "
                f"{call.caller_component}.{call.caller_method} matches no endpoint "
                f"of any analyzed service",
                _call_subject(call),
            )


@_emits(RULE_SIGNATURE_MISMATCH)
def _check_arg_counts(system: SystemIr, emit: Emit):
    """Arg-count arm of E02 over matched edges."""
    for edge in system.comm_edges:
        call, endpoint = edge.call, edge.endpoint
        expected = sum(1 for _n, kind, _t in endpoint.params if kind in (PARAM_PATH, PARAM_BODY))
        if abs(call.arg_count - expected) > ARG_COUNT_TOLERANCE:
            emit(
                RULE_SIGNATURE_MISMATCH,
                f"call {call.caller_component}.{call.caller_method} passes "
                f"{call.arg_count} argument(s) but endpoint "
                f"{endpoint.owner}.{endpoint.handler.name} declares "
                f"{expected} path/body parameter(s)",
                _call_subject(call),
                _endpoint_subject(endpoint),
            )


@_emits(RULE_ENTITY_DRIFT)
def _check_entity_drift(system: SystemIr, emit: Emit):
    """One W01 per entity match whose two entities leave a field unmatched
    or pair fields of incompatible types."""
    for match in system.context_map.matches:
        parts = []
        for entity, matched in (
            (match.a, {f.field_a for f in match.field_matches}),
            (match.b, {f.field_b for f in match.field_matches}),
        ):
            extra = sorted({name for name, _t in entity.fields} - matched)
            if extra:
                parts.append(
                    f"{entity.service}.{entity.name} has unmatched field(s) " + ", ".join(extra)
                )
        incompatible = sorted(
            (f.field_a, f.field_b) for f in match.field_matches if not f.type_compatible
        )
        if incompatible:
            parts.append(
                "type-incompatible pair(s) "
                + ", ".join(f"{a}~{b}" for a, b in incompatible)
            )
        if not parts:
            continue
        emit(
            RULE_ENTITY_DRIFT,
            f"entities {match.service_a}.{match.entity_a} and "
            f"{match.service_b}.{match.entity_b} match at score "
            f"{match.score:.3f} but their fields drift: " + "; ".join(parts),
            _entity_subject(match.a),
            _entity_subject(match.b),
        )


@_emits(RULE_AMBIGUOUS_EDGE)
def _check_ambiguous_edges(system: SystemIr, emit: Emit):
    """One W02 per call whose best score ties between several endpoints."""
    groups: dict[int, list[CommEdge]] = {}
    for edge in system.comm_edges:
        if edge.ambiguous:
            groups.setdefault(id(edge.call), []).append(edge)
    for edges in groups.values():
        call = edges[0].call
        targets = ", ".join(
            f"{e.to_service} {e.matched_url_template} "
            f"({e.endpoint.owner}.{e.endpoint.handler.name})"
            for e in edges
        )
        emit(
            RULE_AMBIGUOUS_EDGE,
            f"{call.http_method} {call.url_template} from "
            f"{call.caller_component}.{call.caller_method} ties between "
            f"{len(edges)} endpoints: {targets}",
            _call_subject(call),
        )


@_emits(RULE_UNREACHABLE_ENDPOINT)
def _check_unreachable_endpoints(system: SystemIr, emit: Emit):
    reached = {id(edge.endpoint) for edge in system.comm_edges}
    for ir in system.services:
        for endpoint in ir.endpoints:
            if id(endpoint) in reached:
                continue
            emit(
                RULE_UNREACHABLE_ENDPOINT,
                f"endpoint {endpoint.http_method} {' '.join(endpoint.url_templates)} "
                f"({endpoint.owner}.{endpoint.handler.name}) receives no call from "
                f"any analyzed service",
                _endpoint_subject(endpoint),
            )


@_emits(RULE_TOPOLOGY_MISMATCH)
def _check_topology(system: SystemIr, emit: Emit):
    """W04 both ways, only when topology data exists."""
    if not system.topology_edges:
        return
    declared = {(src, dst) for src, dst, _origin in system.topology_edges}
    calls = _call_pairs(system)
    for pairs, wording in (
        (
            calls - declared,
            "calls from {src} to {dst} were observed but the deployment "
            "declares no dependency between them",
        ),
        (
            declared - calls - _event_pairs(system),
            "the deployment declares {src} -> {dst} but no call or event "
            "between them was observed",
        ),
    ):
        for src, dst in sorted(pairs):
            ref = f"{src}->{dst}"
            emit(
                RULE_TOPOLOGY_MISMATCH,
                wording.format(src=src, dst=dst),
                Subject(service=src, ref=ref),
                Subject(service=dst, ref=ref),
            )


def _sorted_adjacency(edges: set[tuple[str, str]]) -> dict[str, list[str]]:
    """Successor lists of a digraph, keyed and ordered by node name."""
    nodes = sorted({a for a, _b in edges} | {b for _a, b in edges})
    adjacency: dict[str, list[str]] = {node: [] for node in nodes}
    for src, dst in sorted(edges):
        adjacency[src].append(dst)
    return adjacency


def detect_cycles(edges: set[tuple[str, str]]) -> list[tuple[str, ...]]:
    """All elementary cycles of a digraph, each rotated so its
    lexicographically smallest node comes first, sorted and deduplicated.

    Every elementary cycle has a unique smallest node; enumerating simple
    paths that start at that node and only visit larger nodes finds each
    cycle exactly once.  As in Johnson (1975), each search stays inside its
    start's strongly connected component of the subgraph of nodes not
    smaller than the start, and nodes on no such cycle are never starts, so
    a ring costs linear time.  The walk keeps its own stack, so path length
    is not bounded by the interpreter's recursion limit.
    """
    adjacency = _sorted_adjacency(edges)
    nodes = list(adjacency)
    cycles: list[tuple[str, ...]] = []
    rest = 0
    while rest < len(nodes):
        floor = nodes[rest]
        sub = {n: [m for m in adjacency[n] if m >= floor] for n in nodes[rest:]}
        cyclic = [c for c in strong_components(sub) if len(c) > 1 or c[0] in sub[c[0]]]
        if not cyclic:
            break
        component = min(cyclic)
        start, members = component[0], set(component)
        path = [start]
        on_path = {start}
        successors = [iter(sub[start])]
        while successors:
            for nxt in successors[-1]:
                if nxt == start:
                    cycles.append(tuple(path))
                elif nxt in members and nxt not in on_path:
                    path.append(nxt)
                    on_path.add(nxt)
                    successors.append(iter(sub[nxt]))
                    break
            else:
                successors.pop()
                on_path.discard(path.pop())
        rest = nodes.index(start) + 1
    return sorted(cycles)


def strong_components(adjacency: dict[str, list[str]]) -> list[list[str]]:
    """Strongly connected components of a digraph, each sorted by name
    (Tarjan 1972, with an explicit stack instead of recursion).

    ``adjacency`` must name every node as a key.  Roots are tried in key
    order and successors in list order, so the result is deterministic.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    components: list[list[str]] = []
    for root in adjacency:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(adjacency[root]))]
        while work:
            node, successors = work[-1]
            for nxt in successors:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(adjacency[nxt])))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    member = None
                    while member != node:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                    components.append(sorted(component))
    return components


def _shortest_cycle(adjacency: dict[str, list[str]], members: set[str], start: str) -> list[str]:
    """One shortest cycle through ``start`` inside the strongly connected
    ``members``, as its node sequence from ``start``: breadth-first over
    sorted successors, closed by the first edge back to ``start``."""
    parent: dict[str, str] = {start: start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for nxt in adjacency[node]:
            if nxt == start:
                cycle = [node]
                while cycle[-1] != start:
                    cycle.append(parent[cycle[-1]])
                return cycle[::-1]
            if nxt in members and nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)


@_emits(RULE_CYCLIC_DEPENDENCY)
def _check_cycles(system: SystemIr, emit: Emit):
    """One S01 per strongly connected component of two or more services.

    The message names one shortest cycle through the component's smallest
    member.  A component that is a single elementary cycle (as many inner
    edges as members) keeps the per-cycle wording; any other says how many
    services are tangled, and lists the members off the witness after it.
    """
    adjacency = _sorted_adjacency(_call_pairs(system))
    for component in strong_components(adjacency):
        if len(component) < 2:
            continue
        members = set(component)
        cycle = _shortest_cycle(adjacency, members, component[0])
        route = " -> ".join(cycle + cycle[:1])
        inner_edges = sum(1 for m in component for nxt in adjacency[m] if nxt in members)
        if inner_edges == len(component):
            message = f"services call each other in a cycle: {route}"
            named = cycle
        else:
            message = (
                f"{len(component)} services call each other in cycles; "
                f"shortest through {component[0]}: {route}"
            )
            on_cycle = set(cycle)
            named = cycle + [m for m in component if m not in on_cycle]
        emit(
            RULE_CYCLIC_DEPENDENCY,
            message,
            *(Subject(service=s, ref=route) for s in named),
        )


_CHECKS = (
    _check_calls,
    _check_arg_counts,
    _check_entity_drift,
    _check_ambiguous_edges,
    _check_unreachable_endpoints,
    _check_topology,
    _check_cycles,
)


def run_checks(system: SystemIr, settings: CheckSettings | None = None) -> list[Finding]:
    """Evaluate the enabled part of the catalog and return findings sorted
    by (rule_id, subjects).

    A check runs unless every rule it emits is disabled.  E01 and the
    method arm of E02 share one pass (_check_calls) because E02 takes
    precedence on the same call site, so ``emit`` drops the findings of a
    disabled rule of a check that still runs.
    """
    settings = settings or CheckSettings()
    findings: list[Finding] = []

    def emit(rule_id: str, message: str, *subjects: Subject) -> None:
        if rule_id not in settings.disabled_rules:
            findings.append(Finding(rule_id, settings.severity(rule_id), message, subjects))

    for check in _CHECKS:
        if not check.rule_ids <= settings.disabled_rules:
            check(system, emit)
    findings.sort(key=Finding.sort_key)
    return findings


def coupling_metrics(system: SystemIr) -> CouplingReport:
    """Afferent/efferent coupling over distinct service pairs from comm and
    event edges; instability = ads/(ais+ads) with 0/0 defined as 0."""
    pairs = _call_pairs(system) | _event_pairs(system)
    afferent = Counter(dst for _src, dst in pairs)
    efferent = Counter(src for src, _dst in pairs)
    rows = []
    total = 0.0
    for ir in system.services:
        name = ir.service_name
        ais, ads = afferent[name], efferent[name]
        instability = ads / (ais + ads) if (ais + ads) else 0.0
        rows.append(ServiceCoupling(service=name, ais=ais, ads=ads, instability=instability))
        total += instability
    rows.sort(key=lambda r: r.service)
    return CouplingReport(
        services=rows,
        total_services=len(rows),
        total_pairs=len(pairs),
        mean_instability=total / len(rows) if rows else 0.0,
    )

