from __future__ import annotations

import itertools
import random
from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microweave import analysis
from microweave.analysis import (
    CheckSettings,
    Finding,
    RULE_AMBIGUOUS_EDGE,
    RULE_CYCLIC_DEPENDENCY,
    RULE_DANGLING_CALL,
    RULE_ENTITY_DRIFT,
    RULE_SIGNATURE_MISMATCH,
    RULE_TOPOLOGY_MISMATCH,
    RULE_UNREACHABLE_ENDPOINT,
    SEV_ERROR,
    SEV_INFO,
    SEV_WARNING,
    Subject,
    coupling_metrics,
    detect_cycles,
    run_checks,
)
from microweave.export import export_report
from microweave.ir import Component, Endpoint, RemoteCall, ServiceIr
from microweave.matchers import MethodSig, ROLE_ENTITY, SourceSpan
from microweave.topology import parse_compose
from microweave.weave import weave


def _endpoint(service, http_method, template, handler="handle", params=(),
              owner="Ctl", line=10):
    return Endpoint(
        owner=owner,
        service=service,
        http_method=http_method,
        url_templates=[template],
        params=list(params),
        handler=MethodSig(name=handler, params=[], return_type="void", annotations=[]),
        span=SourceSpan(f"src/{owner}.java", line, line + 1),
    )


def _call(service, http_method, url, arg_count=2, line=7, component="Client"):
    return RemoteCall(
        caller_service=service,
        caller_component=component,
        caller_method="go",
        http_method=http_method,
        url_template=url,
        arg_count=arg_count,
        span=SourceSpan(f"src/{component}.java", line, line),
    )


def _entity(service, name, fields):
    return Component(
        role=ROLE_ENTITY,
        name=name,
        service=service,
        fields=list(fields),
        methods=[],
        annotations=[("Entity", {})],
        span=SourceSpan(f"src/{name}.java", 1, 4),
    )


def _rules(findings):
    return [f.rule_id for f in findings]


def test_dangling_call_is_error():
    system = weave(
        [
            ServiceIr(service_name="a", remote_calls=[_call("a", "GET", "http://b/api/x")]),
            ServiceIr(service_name="b"),
        ]
    )
    findings = run_checks(system)
    assert _rules(findings) == [RULE_DANGLING_CALL]
    finding = findings[0]
    assert finding.severity == SEV_ERROR
    assert finding.subjects[0].service == "a"
    assert finding.subjects[0].file == "src/Client.java"


def test_method_mismatch_reports_signature_not_dangling():
    system = weave(
        [
            ServiceIr(service_name="a", remote_calls=[_call("a", "POST", "http://b/api/x")]),
            ServiceIr(service_name="b", endpoints=[_endpoint("b", "GET", "/api/x")]),
        ]
    )
    findings = run_checks(system)
    assert _rules(findings) == [RULE_SIGNATURE_MISMATCH, RULE_UNREACHABLE_ENDPOINT]
    mismatch = findings[0]
    assert mismatch.severity == SEV_ERROR
    assert "POST" in mismatch.message and "GET" in mismatch.message
    services = [s.service for s in mismatch.subjects]
    assert services == ["a", "b"]


def test_matched_system_is_clean():
    system = weave(
        [
            ServiceIr(
                service_name="a",
                remote_calls=[_call("a", "GET", "http://b/api/x/{*}")],
            ),
            ServiceIr(
                service_name="b",
                endpoints=[
                    _endpoint("b", "GET", "/api/x/{id}", params=[("id", "path", "long")])
                ],
            ),
        ]
    )
    assert run_checks(system) == []


def test_arg_count_within_tolerance_passes():
    system = weave(
        [
            ServiceIr(
                service_name="a",
                remote_calls=[_call("a", "GET", "http://b/api/x/{*}", arg_count=2)],
            ),
            ServiceIr(
                service_name="b",
                endpoints=[
                    _endpoint("b", "GET", "/api/x/{id}", params=[("id", "path", "long")])
                ],
            ),
        ]
    )
    assert run_checks(system) == []


def test_arg_count_beyond_tolerance_is_signature_mismatch():
    system = weave(
        [
            ServiceIr(
                service_name="a",
                remote_calls=[_call("a", "GET", "http://b/api/x/{*}", arg_count=4)],
            ),
            ServiceIr(
                service_name="b",
                endpoints=[
                    _endpoint(
                        "b",
                        "GET",
                        "/api/x/{id}",
                        params=[("id", "path", "long"), ("mode", "query", "String")],
                    )
                ],
            ),
        ]
    )
    findings = run_checks(system)
    assert _rules(findings) == [RULE_SIGNATURE_MISMATCH]
    assert "4" in findings[0].message and "1" in findings[0].message


def test_entity_drift_on_extra_field():
    system = weave(
        [
            ServiceIr(
                service_name="a",
                components=[
                    _entity("a", "User", [("id", "long"), ("name", "String"), ("vip", "boolean")])
                ],
            ),
            ServiceIr(
                service_name="b",
                components=[_entity("b", "User", [("id", "long"), ("name", "String")])],
            ),
        ]
    )
    findings = run_checks(system)
    assert _rules(findings) == [RULE_ENTITY_DRIFT]
    assert findings[0].severity == SEV_WARNING
    assert "vip" in findings[0].message


def test_entity_drift_on_incompatible_types():
    system = weave(
        [
            ServiceIr(
                service_name="a",
                components=[_entity("a", "User", [("id", "long"), ("name", "String")])],
            ),
            ServiceIr(
                service_name="b",
                components=[_entity("b", "User", [("id", "String"), ("name", "String")])],
            ),
        ]
    )
    findings = run_checks(system)
    assert _rules(findings) == [RULE_ENTITY_DRIFT]
    assert "id" in findings[0].message


def test_matching_entities_without_drift_are_silent():
    system = weave(
        [
            ServiceIr(
                service_name="a",
                components=[_entity("a", "User", [("id", "long"), ("name", "String")])],
            ),
            ServiceIr(
                service_name="b",
                components=[_entity("b", "User", [("id", "Long"), ("name", "String")])],
            ),
        ]
    )
    assert run_checks(system) == []


def test_ambiguous_edges_grouped_into_one_finding():
    system = weave(
        [
            ServiceIr(
                service_name="a",
                remote_calls=[_call("a", "GET", "http://b/api/x/{*}")],
            ),
            ServiceIr(
                service_name="b",
                endpoints=[
                    _endpoint("b", "GET", "/api/x/{id}", owner="One",
                              params=[("id", "path", "long")]),
                    _endpoint("b", "GET", "/api/x/{key}", owner="Two",
                              params=[("key", "path", "long")]),
                ],
            ),
        ]
    )
    findings = run_checks(system)
    ambiguous = [f for f in findings if f.rule_id == RULE_AMBIGUOUS_EDGE]
    assert len(ambiguous) == 1
    assert len(ambiguous[0].subjects) == 1
    assert ambiguous[0].subjects[0].service == "a"
    assert "2" in ambiguous[0].message
    assert "/api/x/{id}" in ambiguous[0].message
    assert "/api/x/{key}" in ambiguous[0].message


def test_unreachable_endpoint_is_info():
    system = weave(
        [ServiceIr(service_name="b", endpoints=[_endpoint("b", "GET", "/api/idle")])]
    )
    findings = run_checks(system)
    assert _rules(findings) == [RULE_UNREACHABLE_ENDPOINT]
    assert findings[0].severity == SEV_INFO


def test_endpoint_reached_by_event_is_not_flagged_but_needs_comm_edge():
    system = weave(
        [
            ServiceIr(
                service_name="a",
                remote_calls=[_call("a", "GET", "http://b/api/x/{*}")],
            ),
            ServiceIr(
                service_name="b",
                endpoints=[
                    _endpoint("b", "GET", "/api/x/{id}", params=[("id", "path", "long")])
                ],
            ),
        ]
    )
    assert all(f.rule_id != RULE_UNREACHABLE_ENDPOINT for f in run_checks(system))


def _topology(yaml_text):
    return parse_compose(yaml_text)


def test_topology_mismatch_both_directions():
    topology = _topology(
        """
services:
  a:
    image: x
  b:
    depends_on: [a]
"""
    )
    system = weave(
        [
            ServiceIr(
                service_name="a",
                remote_calls=[_call("a", "GET", "http://b/api/x/{*}")],
            ),
            ServiceIr(
                service_name="b",
                endpoints=[
                    _endpoint("b", "GET", "/api/x/{id}", params=[("id", "path", "long")])
                ],
            ),
        ],
        topology=topology,
    )
    findings = [f for f in run_checks(system) if f.rule_id == RULE_TOPOLOGY_MISMATCH]
    assert len(findings) == 2
    refs = sorted(f.subjects[0].ref for f in findings)
    assert refs == ["a->b", "b->a"]
    messages = " | ".join(sorted(f.message for f in findings))
    assert "observed" in messages and "declares" in messages


def test_topology_rule_silent_without_topology_data():
    system = weave(
        [
            ServiceIr(
                service_name="a",
                remote_calls=[_call("a", "GET", "http://b/api/x/{*}")],
            ),
            ServiceIr(
                service_name="b",
                endpoints=[
                    _endpoint("b", "GET", "/api/x/{id}", params=[("id", "path", "long")])
                ],
            ),
        ]
    )
    assert all(f.rule_id != RULE_TOPOLOGY_MISMATCH for f in run_checks(system))


def test_event_edge_satisfies_declared_topology():
    from microweave.matchers import DIRECTION_PUBLISH, DIRECTION_SUBSCRIBE
    from microweave.ir import EventOp

    topology = _topology(
        """
services:
  a:
    depends_on: [b]
  b:
    image: x
"""
    )
    system = weave(
        [
            ServiceIr(
                service_name="a",
                event_ops=[
                    EventOp(DIRECTION_PUBLISH, "t.created", "a", "Pub", "fire",
                            SourceSpan("src/Pub.java", 3, 3))
                ],
            ),
            ServiceIr(
                service_name="b",
                event_ops=[
                    EventOp(DIRECTION_SUBSCRIBE, "t.created", "b", "Sub", "hear",
                            SourceSpan("src/Sub.java", 3, 3))
                ],
            ),
        ],
        topology=topology,
    )
    assert all(f.rule_id != RULE_TOPOLOGY_MISMATCH for f in run_checks(system))


def _two_cycle():
    return weave(
        [
            ServiceIr(
                service_name="a",
                remote_calls=[_call("a", "GET", "http://b/api/x/{*}")],
                endpoints=[
                    _endpoint("a", "GET", "/api/y/{id}", params=[("id", "path", "long")])
                ],
            ),
            ServiceIr(
                service_name="b",
                remote_calls=[_call("b", "GET", "http://a/api/y/{*}")],
                endpoints=[
                    _endpoint("b", "GET", "/api/x/{id}", params=[("id", "path", "long")])
                ],
            ),
        ]
    )


def test_cycle_finding_names_route():
    findings = [f for f in run_checks(_two_cycle()) if f.rule_id == RULE_CYCLIC_DEPENDENCY]
    assert len(findings) == 1
    assert "a -> b -> a" in findings[0].message
    assert [s.service for s in findings[0].subjects] == ["a", "b"]


def test_detect_cycles_on_dag_and_two_cycle():
    assert detect_cycles({("a", "b"), ("b", "c"), ("a", "c")}) == []
    assert detect_cycles({("a", "b"), ("b", "a")}) == [("a", "b")]


def test_detect_cycles_canonical_rotation():
    cycles = detect_cycles({("b", "c"), ("c", "a"), ("a", "b")})
    assert cycles == [("a", "b", "c")]


def _brute_force_cycles(edges):
    nodes = sorted({n for e in edges for n in e})
    edge_set = set(edges)
    found = set()
    for size in range(1, len(nodes) + 1):
        for combo in itertools.permutations(nodes, size):
            if combo[0] != min(combo):
                continue
            closed = all(
                (combo[i], combo[(i + 1) % size]) in edge_set for i in range(size)
            )
            if closed:
                found.add(combo)
    return sorted(found)


def test_detect_cycles_matches_brute_force_on_random_graphs():
    rng = random.Random(20260815)
    for _ in range(60):
        n = rng.randint(2, 6)
        nodes = [f"s{i}" for i in range(n)]
        edges = {
            (u, v)
            for u in nodes
            for v in nodes
            if u != v and rng.random() < 0.35
        }
        assert detect_cycles(edges) == _brute_force_cycles(edges)


def test_detect_cycles_keeps_self_loops():
    assert detect_cycles({("a", "a"), ("a", "b"), ("b", "a"), ("b", "c"), ("c", "c")}) == [
        ("a",),
        ("a", "b"),
        ("c",),
    ]


def test_detect_cycles_walks_a_5000_node_ring():
    names = [f"s{i:04d}" for i in range(5000)]
    ring = {(names[i], names[(i + 1) % len(names)]) for i in range(len(names))}
    assert detect_cycles(ring) == [tuple(names)]


def _old_check_cycles(system, emit):
    """The per-cycle S01 check that per-component findings replaced."""
    edges = {
        (e.from_service, e.to_service)
        for e in system.comm_edges
        if e.from_service != e.to_service
    }
    for cycle in detect_cycles(edges):
        route = " -> ".join(cycle + (cycle[0],))
        emit(
            RULE_CYCLIC_DEPENDENCY,
            f"services call each other in a cycle: {route}",
            *(Subject(service=s, ref=route) for s in cycle),
        )


def _edge_system(edges):
    """Just enough of a SystemIr for the cycle check: its comm edge pairs."""
    return SimpleNamespace(
        comm_edges=[SimpleNamespace(from_service=a, to_service=b) for a, b in sorted(edges)]
    )


def _cycle_findings(edges, check=analysis._check_cycles):
    findings = []

    def emit(rule_id, message, *subjects):
        findings.append(Finding(rule_id, CheckSettings().severity(rule_id), message, subjects))

    check(_edge_system(edges), emit)
    return findings


def _reachable(successors, start):
    """Nodes reachable from ``start`` by one or more edges."""
    seen, queue = set(), deque([start])
    while queue:
        for nxt in successors.get(queue.popleft(), ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def _oracle_components(edges):
    """Non-trivial strong components by reachability closure."""
    successors = {}
    for a, b in edges:
        if a != b:
            successors.setdefault(a, set()).add(b)
    reach = {node: _reachable(successors, node) for node in successors}
    return {
        frozenset({node} | {other for other in reach[node] if node in reach.get(other, ())})
        for node in reach
        if node in reach[node]
    }


def _shortest_cycle_length(edges, start):
    dist, queue = {start: 0}, deque([start])
    best = None
    while queue:
        node = queue.popleft()
        for a, b in sorted(edges):
            if a != node or a == b:
                continue
            if b == start:
                best = dist[node] + 1 if best is None else min(best, dist[node] + 1)
            elif b not in dist:
                dist[b] = dist[node] + 1
                queue.append(b)
    return best


@st.composite
def _digraphs(draw):
    n = draw(st.integers(1, 40))
    names = [f"s{i}" for i in range(n)]
    callees = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=3), min_size=n, max_size=n))
    return n, {(names[a], names[b]) for a, targets in enumerate(callees) for b in targets}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_digraphs())
def test_cycle_findings_follow_strong_components(graph):
    n, edges = graph
    findings = _cycle_findings(edges)
    components = _oracle_components(edges)
    assert len(findings) <= n // 2
    assert {frozenset(s.service for s in f.subjects) for f in findings} == components
    for finding in findings:
        members = sorted(s.service for s in finding.subjects)
        route = finding.subjects[0].ref.split(" -> ")
        cycle = route[:-1]
        assert route[0] == route[-1] == members[0]
        assert all(s.ref == finding.subjects[0].ref for s in finding.subjects)
        assert all((a, b) in edges for a, b in zip(route, route[1:]))
        assert len(set(cycle)) == len(cycle)
        assert len(cycle) == _shortest_cycle_length(edges, members[0])
        inner = {(a, b) for a, b in edges if a != b and {a, b} <= set(members)}
        if len(inner) == len(members):
            assert [finding] == _cycle_findings(inner, check=_old_check_cycles)
        else:
            rest = sorted(set(members) - set(cycle))
            assert [s.service for s in finding.subjects] == cycle + rest
            assert finding.message == (
                f"{len(members)} services call each other in cycles; shortest "
                f"through {members[0]}: {' -> '.join(route)}"
            )


def test_tangled_component_gives_one_finding_with_shortest_witness():
    edges = {("a", "b"), ("b", "c"), ("c", "a"), ("b", "a"), ("c", "d"), ("d", "c")}
    [finding] = _cycle_findings(edges)
    assert finding.message == (
        "4 services call each other in cycles; shortest through a: a -> b -> a"
    )
    assert [s.service for s in finding.subjects] == ["a", "b", "c", "d"]
    assert {s.ref for s in finding.subjects} == {"a -> b -> a"}


def _calling_system(callees):
    """One service per key, each with one endpoint and one call per callee."""
    return weave(
        [
            ServiceIr(
                service_name=name,
                endpoints=[_endpoint(name, "GET", "/api/x")],
                remote_calls=[
                    _call(name, "GET", f"http://{callee}/api/x", arg_count=0, line=i + 1)
                    for i, callee in enumerate(targets)
                ],
            )
            for name, targets in callees.items()
        ]
    )


def test_5000_service_ring_gives_one_cycle_finding():
    names = [f"svc{i:04d}" for i in range(5000)]
    system = _calling_system({name: [names[(i + 1) % 5000]] for i, name in enumerate(names)})
    cycles = [f for f in run_checks(system) if f.rule_id == RULE_CYCLIC_DEPENDENCY]
    assert len(cycles) == 1
    assert [s.service for s in cycles[0].subjects] == names


def test_densely_calling_services_end_in_a_report():
    rng = random.Random(60)
    names = [f"svc{i:02d}" for i in range(60)]
    callees = {name: rng.sample([o for o in names if o != name], 5) for name in names}
    system = _calling_system(callees)
    findings = run_checks(system)
    cycles = [f for f in findings if f.rule_id == RULE_CYCLIC_DEPENDENCY]
    edges = {(name, callee) for name, targets in callees.items() for callee in targets}
    assert {frozenset(s.service for s in f.subjects) for f in cycles} == _oracle_components(
        edges
    )
    report = export_report(findings, coupling_metrics(system), "json")
    assert len(report) < 100_000


def test_coupling_chain_instability():
    system = weave(
        [
            ServiceIr(
                service_name="a",
                remote_calls=[_call("a", "GET", "http://b/api/x/{*}")],
            ),
            ServiceIr(
                service_name="b",
                endpoints=[
                    _endpoint("b", "GET", "/api/x/{id}", params=[("id", "path", "long")])
                ],
                remote_calls=[_call("b", "GET", "http://c/api/y/{*}")],
            ),
            ServiceIr(
                service_name="c",
                endpoints=[
                    _endpoint("c", "GET", "/api/y/{id}", params=[("id", "path", "long")])
                ],
            ),
        ]
    )
    report = coupling_metrics(system)
    rows = {r.service: r for r in report.services}
    assert (rows["a"].ais, rows["a"].ads, rows["a"].instability) == (0, 1, 1.0)
    assert (rows["b"].ais, rows["b"].ads, rows["b"].instability) == (1, 1, 0.5)
    assert (rows["c"].ais, rows["c"].ads, rows["c"].instability) == (1, 0, 0.0)
    assert report.total_services == 3
    assert report.total_pairs == 2
    assert report.mean_instability == (1.0 + 0.5 + 0.0) / 3


def test_coupling_isolated_service_is_zero():
    report = coupling_metrics(weave([ServiceIr(service_name="solo")]))
    assert report.services[0].instability == 0.0
    assert report.total_pairs == 0
    assert report.mean_instability == 0.0


def test_disable_rule_filters_findings():
    system = weave(
        [
            ServiceIr(service_name="a", remote_calls=[_call("a", "GET", "http://b/api/x")]),
            ServiceIr(service_name="b"),
        ]
    )
    settings = CheckSettings(disabled_rules=frozenset({RULE_DANGLING_CALL}))
    assert run_checks(system, settings) == []


def test_severity_override_applies():
    system = weave(
        [
            ServiceIr(service_name="a", remote_calls=[_call("a", "GET", "http://b/api/x")]),
            ServiceIr(service_name="b"),
        ]
    )
    settings = CheckSettings(severity_overrides={RULE_DANGLING_CALL: SEV_WARNING})
    findings = run_checks(system, settings)
    assert findings[0].severity == SEV_WARNING


def test_findings_sorted_by_rule_then_subject():
    system = weave(
        [
            ServiceIr(
                service_name="a",
                remote_calls=[
                    _call("a", "GET", "http://b/api/z", line=9),
                    _call("a", "GET", "http://b/api/q", line=3),
                ],
            ),
            ServiceIr(service_name="b"),
        ]
    )
    findings = run_checks(system)
    assert _rules(findings) == [RULE_DANGLING_CALL, RULE_DANGLING_CALL]
    assert findings[0].subjects[0].line == 3
    assert findings[1].subjects[0].line == 9


def test_disabled_rule_skips_its_check(monkeypatch):
    def refuse(_adjacency):
        raise AssertionError("strong_components ran although S01 is disabled")

    monkeypatch.setattr(analysis, "strong_components", refuse)
    system = _two_cycle()
    settings = CheckSettings(disabled_rules=frozenset({RULE_CYCLIC_DEPENDENCY}))
    assert run_checks(system, settings) == []
    with pytest.raises(AssertionError, match="S01 is disabled"):
        run_checks(system)


def test_check_with_one_enabled_rule_still_runs():
    system = weave(
        [
            ServiceIr(
                service_name="a",
                remote_calls=[
                    _call("a", "POST", "http://b/api/x", line=3),
                    _call("a", "GET", "http://b/api/z", line=9),
                ],
            ),
            ServiceIr(service_name="b", endpoints=[_endpoint("b", "GET", "/api/x")]),
        ]
    )
    only_e02 = CheckSettings(
        disabled_rules=frozenset({RULE_DANGLING_CALL, RULE_UNREACHABLE_ENDPOINT})
    )
    assert _rules(run_checks(system, only_e02)) == [RULE_SIGNATURE_MISMATCH]
    only_e01 = CheckSettings(
        disabled_rules=frozenset({RULE_SIGNATURE_MISMATCH, RULE_UNREACHABLE_ENDPOINT})
    )
    findings = run_checks(system, only_e01)
    assert _rules(findings) == [RULE_DANGLING_CALL]
    assert findings[0].subjects[0].line == 9
