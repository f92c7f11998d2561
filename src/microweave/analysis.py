"""Consistency checks, dependency-smell detection, and coupling metrics.

The rule catalog is closed: E01 dangling call, E02 signature mismatch,
W01 entity drift, W02 ambiguous edge, W03 unreachable endpoint, W04
topology mismatch, S01 cyclic dependency.  Rules can be disabled or have
their severity overridden through the run configuration, but new rule ids
cannot be introduced from outside.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

from microweave.matchers import PARAM_BODY, PARAM_PATH, Endpoint, RemoteCall
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


@dataclass(frozen=True, slots=True)
class Subject:
    service: str
    ref: str
    file: str = ""
    line: int = 0

    def sort_key(self):
        return (self.service, self.ref, self.file, self.line)


@dataclass(frozen=True, slots=True)
class Finding:
    rule_id: str
    severity: str
    message: str
    subjects: tuple[Subject, ...]

    def sort_key(self):
        return (self.rule_id, tuple(s.sort_key() for s in self.subjects))


@dataclass
class ServiceCoupling:
    service: str
    ais: int
    ads: int
    instability: float


@dataclass
class CouplingReport:
    services: list[ServiceCoupling]
    total_services: int
    total_pairs: int
    mean_instability: float


@dataclass
class CheckSettings:
    disabled_rules: frozenset[str] = frozenset()
    severity_overrides: dict[str, str] = field(default_factory=dict)

    def severity(self, rule_id: str) -> str:
        return self.severity_overrides.get(rule_id, DEFAULT_SEVERITIES[rule_id])


def _emits(*rule_ids: str):
    """Tag a check with the rules it can emit; run_checks skips a check
    whose every rule is disabled."""

    def tag(check):
        check.rule_ids = frozenset(rule_ids)
        return check

    return tag


def _call_subject(call: RemoteCall) -> Subject:
    return Subject(
        service=call.caller_service,
        ref=f"{call.caller_component}.{call.caller_method}",
        file=call.span.file,
        line=call.span.line_start,
    )


def _endpoint_subject(endpoint: Endpoint) -> Subject:
    return Subject(
        service=endpoint.service,
        ref=f"{endpoint.owner}.{endpoint.handler.name}",
        file=endpoint.span.file,
        line=endpoint.span.line_start,
    )


@_emits(RULE_DANGLING_CALL, RULE_SIGNATURE_MISMATCH)
def _check_calls(system: SystemIr, settings: CheckSettings, findings: list[Finding]):
    """E01 and the method-mismatch arm of E02 over the calls weave left
    without an edge.

    A call is E02 when weave found an endpoint whose path matches at or
    above the threshold and only the HTTP method blocked it; it is E01
    only when no such near-miss exists.
    """
    for call, endpoint in system.unmatched_calls:
        if endpoint is not None:
            findings.append(
                Finding(
                    rule_id=RULE_SIGNATURE_MISMATCH,
                    severity=settings.severity(RULE_SIGNATURE_MISMATCH),
                    message=(
                        f"{call.http_method} {call.url_template} matches the "
                        f"path of {endpoint.service} "
                        f"{' '.join(endpoint.url_templates)} but that endpoint "
                        f"only accepts {endpoint.http_method}"
                    ),
                    subjects=(_call_subject(call), _endpoint_subject(endpoint)),
                )
            )
        else:
            findings.append(
                Finding(
                    rule_id=RULE_DANGLING_CALL,
                    severity=settings.severity(RULE_DANGLING_CALL),
                    message=(
                        f"{call.http_method} {call.url_template} from "
                        f"{call.caller_component}.{call.caller_method} matches "
                        f"no endpoint of any analyzed service"
                    ),
                    subjects=(_call_subject(call),),
                )
            )


@_emits(RULE_SIGNATURE_MISMATCH)
def _check_arg_counts(system: SystemIr, settings: CheckSettings, findings: list[Finding]):
    """Arg-count arm of E02 over matched edges."""
    for edge in system.comm_edges:
        call, endpoint = edge.call, edge.endpoint
        expected = sum(1 for _n, kind, _t in endpoint.params if kind in (PARAM_PATH, PARAM_BODY))
        if abs(call.arg_count - expected) > ARG_COUNT_TOLERANCE:
            findings.append(
                Finding(
                    rule_id=RULE_SIGNATURE_MISMATCH,
                    severity=settings.severity(RULE_SIGNATURE_MISMATCH),
                    message=(
                        f"call {call.caller_component}.{call.caller_method} passes "
                        f"{call.arg_count} argument(s) but endpoint "
                        f"{endpoint.owner}.{endpoint.handler.name} declares "
                        f"{expected} path/body parameter(s)"
                    ),
                    subjects=(_call_subject(call), _endpoint_subject(endpoint)),
                )
            )


@_emits(RULE_ENTITY_DRIFT)
def _check_entity_drift(system: SystemIr, settings: CheckSettings, findings: list[Finding]):
    fields_by_entity: dict[tuple[str, str], list[str]] = {}
    for model in system.context_map.bounded_contexts:
        for entity in model.entities:
            fields_by_entity[(model.service_name, entity.name)] = [
                name for name, _t in entity.fields
            ]
    for match in system.context_map.matches:
        matched_a = {f.field_a for f in match.field_matches}
        matched_b = {f.field_b for f in match.field_matches}
        extra_a = sorted(
            set(fields_by_entity.get((match.service_a, match.entity_a), [])) - matched_a
        )
        extra_b = sorted(
            set(fields_by_entity.get((match.service_b, match.entity_b), [])) - matched_b
        )
        incompatible = sorted(
            (f.field_a, f.field_b) for f in match.field_matches if not f.type_compatible
        )
        if not extra_a and not extra_b and not incompatible:
            continue
        parts = []
        if extra_a:
            parts.append(
                f"{match.service_a}.{match.entity_a} has unmatched field(s) "
                + ", ".join(extra_a)
            )
        if extra_b:
            parts.append(
                f"{match.service_b}.{match.entity_b} has unmatched field(s) "
                + ", ".join(extra_b)
            )
        if incompatible:
            parts.append(
                "type-incompatible pair(s) "
                + ", ".join(f"{a}~{b}" for a, b in incompatible)
            )
        findings.append(
            Finding(
                rule_id=RULE_ENTITY_DRIFT,
                severity=settings.severity(RULE_ENTITY_DRIFT),
                message=(
                    f"entities {match.service_a}.{match.entity_a} and "
                    f"{match.service_b}.{match.entity_b} match at score "
                    f"{match.score:.3f} but their fields drift: " + "; ".join(parts)
                ),
                subjects=(
                    Subject(service=match.service_a, ref=match.entity_a),
                    Subject(service=match.service_b, ref=match.entity_b),
                ),
            )
        )


@_emits(RULE_AMBIGUOUS_EDGE)
def _check_ambiguous_edges(system: SystemIr, settings: CheckSettings, findings: list[Finding]):
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
        findings.append(
            Finding(
                rule_id=RULE_AMBIGUOUS_EDGE,
                severity=settings.severity(RULE_AMBIGUOUS_EDGE),
                message=(
                    f"{call.http_method} {call.url_template} from "
                    f"{call.caller_component}.{call.caller_method} ties between "
                    f"{len(edges)} endpoints: {targets}"
                ),
                subjects=(_call_subject(call),),
            )
        )


@_emits(RULE_UNREACHABLE_ENDPOINT)
def _check_unreachable_endpoints(
    system: SystemIr, settings: CheckSettings, findings: list[Finding]
):
    reached = {id(edge.endpoint) for edge in system.comm_edges}
    for ir in system.services:
        for endpoint in ir.endpoints:
            if id(endpoint) in reached:
                continue
            findings.append(
                Finding(
                    rule_id=RULE_UNREACHABLE_ENDPOINT,
                    severity=settings.severity(RULE_UNREACHABLE_ENDPOINT),
                    message=(
                        f"endpoint {endpoint.http_method} "
                        f"{' '.join(endpoint.url_templates)} "
                        f"({endpoint.owner}.{endpoint.handler.name}) receives no "
                        f"call from any analyzed service"
                    ),
                    subjects=(_endpoint_subject(endpoint),),
                )
            )


@_emits(RULE_TOPOLOGY_MISMATCH)
def _check_topology(system: SystemIr, settings: CheckSettings, findings: list[Finding]):
    """W04 both ways, only when topology data exists."""
    if not system.topology_edges:
        return
    declared_pairs = {(src, dst) for src, dst, _origin in system.topology_edges}
    comm_pairs = {
        (e.from_service, e.to_service)
        for e in system.comm_edges
        if e.from_service != e.to_service
    }
    event_pairs = {(pub, sub) for pub, sub, _topic in system.event_edges if pub != sub}

    for src, dst in sorted(comm_pairs - declared_pairs):
        findings.append(
            Finding(
                rule_id=RULE_TOPOLOGY_MISMATCH,
                severity=settings.severity(RULE_TOPOLOGY_MISMATCH),
                message=(
                    f"calls from {src} to {dst} were observed but the "
                    f"deployment declares no dependency between them"
                ),
                subjects=(
                    Subject(service=src, ref=f"{src}->{dst}"),
                    Subject(service=dst, ref=f"{src}->{dst}"),
                ),
            )
        )
    for src, dst in sorted(declared_pairs - comm_pairs - event_pairs):
        findings.append(
            Finding(
                rule_id=RULE_TOPOLOGY_MISMATCH,
                severity=settings.severity(RULE_TOPOLOGY_MISMATCH),
                message=(
                    f"the deployment declares {src} -> {dst} but no call or "
                    f"event between them was observed"
                ),
                subjects=(
                    Subject(service=src, ref=f"{src}->{dst}"),
                    Subject(service=dst, ref=f"{src}->{dst}"),
                ),
            )
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
def _check_cycles(system: SystemIr, settings: CheckSettings, findings: list[Finding]):
    """One S01 per strongly connected component of two or more services.

    The message names one shortest cycle through the component's smallest
    member.  A component that is a single elementary cycle (as many inner
    edges as members) keeps the per-cycle wording; any other says how many
    services are tangled, and lists the members off the witness after it.
    """
    adjacency = _sorted_adjacency(
        {
            (e.from_service, e.to_service)
            for e in system.comm_edges
            if e.from_service != e.to_service
        }
    )
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
        findings.append(
            Finding(
                rule_id=RULE_CYCLIC_DEPENDENCY,
                severity=settings.severity(RULE_CYCLIC_DEPENDENCY),
                message=message,
                subjects=tuple(Subject(service=s, ref=route) for s in named),
            )
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
    precedence on the same call site, so a disabled rule of a check that
    still runs is filtered out afterwards.
    """
    settings = settings or CheckSettings()
    findings: list[Finding] = []
    for check in _CHECKS:
        if not check.rule_ids <= settings.disabled_rules:
            check(system, settings, findings)
    findings = [f for f in findings if f.rule_id not in settings.disabled_rules]
    findings.sort(key=Finding.sort_key)
    return findings


def coupling_metrics(system: SystemIr) -> CouplingReport:
    """Afferent/efferent coupling over distinct service pairs from comm and
    event edges; instability = ads/(ais+ads) with 0/0 defined as 0."""
    pairs = {
        (e.from_service, e.to_service)
        for e in system.comm_edges
        if e.from_service != e.to_service
    }
    pairs |= {(pub, sub) for pub, sub, _topic in system.event_edges if pub != sub}

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


def finding_to_json_obj(finding: Finding) -> dict:
    return {
        "rule_id": finding.rule_id,
        "severity": finding.severity,
        "message": finding.message,
        "subjects": [
            {"service": s.service, "ref": s.ref, "file": s.file, "line": s.line}
            for s in finding.subjects
        ],
    }


def coupling_to_json_obj(report: CouplingReport) -> dict:
    return {
        "services": [
            {
                "service": row.service,
                "ais": row.ais,
                "ads": row.ads,
                "instability": row.instability,
            }
            for row in report.services
        ],
        "total_services": report.total_services,
        "total_pairs": report.total_pairs,
        "mean_instability": report.mean_instability,
    }
