from __future__ import annotations

import itertools
import random

import pytest

from microweave.analysis import (
    CheckSettings,
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
    coupling_metrics,
    detect_cycles,
    run_checks,
)
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
    import microweave.analysis as analysis

    def refuse(_edges):
        raise AssertionError("detect_cycles ran although S01 is disabled")

    monkeypatch.setattr(analysis, "detect_cycles", refuse)
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
