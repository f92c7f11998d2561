from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from microweave.analysis import (
    CheckSettings,
    CouplingReport,
    Finding,
    RULE_DANGLING_CALL,
    SEV_WARNING,
    ServiceCoupling,
    Subject,
    coupling_metrics,
    run_checks,
)
from microweave.export import REPORT_JSON, VIEWS, export_dot, export_report
from microweave.ir import Component, Endpoint, RemoteCall, ServiceIr
from microweave.matchers import MethodSig, ROLE_ENTITY, SourceSpan
from microweave.weave import CONTEXT_MAP_JSON, SYSTEM_JSON, weave

from dotutil import parse_dot


def _system():
    order_entity = Component(
        role=ROLE_ENTITY,
        name="Order",
        service="orders",
        fields=[("id", "long")],
        methods=[],
        annotations=[("Entity", {})],
        span=SourceSpan("src/Order.java", 1, 3),
    )
    order_copy = Component(
        role=ROLE_ENTITY,
        name="Order",
        service="billing",
        fields=[("id", "long")],
        methods=[],
        annotations=[("Entity", {})],
        span=SourceSpan("src/Order.java", 1, 3),
    )
    return weave(
        [
            ServiceIr(
                service_name="billing",
                components=[order_copy],
                remote_calls=[
                    RemoteCall(
                        caller_service="billing",
                        caller_component="Client",
                        caller_method="pull",
                        http_method="GET",
                        url_template="http://orders/api/orders/{*}",
                        arg_count=2,
                        span=SourceSpan("src/Client.java", 7, 7),
                    )
                ],
            ),
            ServiceIr(
                service_name="orders",
                components=[order_entity],
                endpoints=[
                    Endpoint(
                        owner="OrderController",
                        service="orders",
                        http_method="GET",
                        url_templates=["/api/orders/{id}"],
                        params=[("id", "path", "long")],
                        handler=MethodSig("get", [], "Order", []),
                        span=SourceSpan("src/OrderController.java", 10, 12),
                    )
                ],
            ),
        ]
    )


def test_views_are_closed():
    assert VIEWS == ("services", "context", "full")
    with pytest.raises(ValueError):
        export_dot(_system(), view="sideways")


def test_services_view_nodes_and_edges():
    text = export_dot(_system(), view="services")
    graph = parse_dot(text)
    assert graph.name == "services"
    assert graph.nodes == {"billing", "orders"}
    comm = [e for e in graph.edges if e[2].get("style") == "solid"]
    assert len(comm) == 1
    src, dst, attrs = comm[0]
    assert (src, dst) == ("billing", "orders")
    assert attrs["label"] == "GET /api/orders/{id}"


def test_context_view_clusters_entities():
    text = export_dot(_system(), view="context")
    graph = parse_dot(text)
    assert graph.clusters == {
        "cluster_billing": {"billing.Order"},
        "cluster_orders": {"orders.Order"},
    }
    match_edges = [e for e in graph.edges if e[2].get("dir") == "none"]
    assert len(match_edges) == 1
    assert match_edges[0][2]["label"] == "1.00"


def test_full_view_merges_both():
    text = export_dot(_system(), view="full")
    graph = parse_dot(text)
    assert {"billing", "orders"} <= graph.nodes
    assert graph.clusters
    labels = {e[2].get("label") for e in graph.edges}
    assert "GET /api/orders/{id}" in labels
    assert "1.00" in labels


def test_empty_system_exports_empty_graph():
    text = export_dot(weave([]), view="services")
    graph = parse_dot(text)
    assert graph.nodes == set()
    assert graph.edges == []


def test_ambiguous_edges_render_dashed():
    system = weave(
        [
            ServiceIr(
                service_name="a",
                remote_calls=[
                    RemoteCall(
                        caller_service="a",
                        caller_component="C",
                        caller_method="m",
                        http_method="GET",
                        url_template="http://b/api/x/{*}",
                        arg_count=1,
                        span=SourceSpan("src/C.java", 5, 5),
                    )
                ],
            ),
            ServiceIr(
                service_name="b",
                endpoints=[
                    Endpoint(
                        owner="One",
                        service="b",
                        http_method="GET",
                        url_templates=["/api/x/{id}"],
                        params=[("id", "path", "long")],
                        handler=MethodSig("one", [], "void", []),
                        span=SourceSpan("src/One.java", 4, 5),
                    ),
                    Endpoint(
                        owner="Two",
                        service="b",
                        http_method="GET",
                        url_templates=["/api/x/{key}"],
                        params=[("key", "path", "long")],
                        handler=MethodSig("two", [], "void", []),
                        span=SourceSpan("src/Two.java", 4, 5),
                    ),
                ],
            ),
        ]
    )
    graph = parse_dot(export_dot(system, view="services"))
    dashed = [e for e in graph.edges if e[2].get("style") == "dashed"]
    assert len(dashed) == 2


def test_golden_dot_files_match(shop_system):
    system, golden_dir = shop_system
    for view in VIEWS:
        generated = export_dot(system, view=view)
        golden = (golden_dir / f"graph-{view}.dot").read_text(encoding="utf-8")
        assert generated == golden, f"view {view} drifted from golden"


def test_report_json_shape():
    findings = [
        Finding(
            rule_id=RULE_DANGLING_CALL,
            severity="error",
            message="no endpoint matches GET http://x/api",
            subjects=(Subject("a", "C.m", "src/C.java", 5),),
        )
    ]
    metrics = CouplingReport(
        services=[ServiceCoupling("a", 0, 1, 1.0)],
        total_services=1,
        total_pairs=1,
        mean_instability=1.0,
    )
    blob = export_report(findings, metrics, fmt="json")
    obj = json.loads(blob)
    assert obj["findings"][0]["rule_id"] == RULE_DANGLING_CALL
    assert obj["findings"][0]["subjects"][0]["file"] == "src/C.java"
    assert obj["coupling"]["services"][0]["instability"] == 1.0
    assert b"\n" not in blob


def test_report_text_sections_and_counts():
    findings = [
        Finding(
            rule_id=RULE_DANGLING_CALL,
            severity="error",
            message="no endpoint matches GET http://x/api",
            subjects=(Subject("a", "C.m", "src/C.java", 5),),
        ),
        Finding(
            rule_id="W03",
            severity="info",
            message="endpoint never called",
            subjects=(Subject("b", "D.get", "src/D.java", 9),),
        ),
    ]
    metrics = CouplingReport(
        services=[ServiceCoupling("a", 0, 1, 1.0), ServiceCoupling("b", 1, 0, 0.0)],
        total_services=2,
        total_pairs=1,
        mean_instability=0.5,
    )
    text = export_report(findings, metrics, fmt="text").decode("utf-8")
    assert "ERRORS (1)" in text
    assert "INFO (1)" in text
    assert "WARNINGS" not in text
    assert "E01 error a: no endpoint matches GET http://x/api (src/C.java:5)" in text
    assert "W03 info b: endpoint never called (src/D.java:9)" in text
    assert "COUPLING" in text
    assert "a: ais=0 ads=1 instability=1.0000" in text
    assert "mean_instability=0.5000" in text


_NO_COUPLING = CouplingReport(services=[], total_services=0, total_pairs=0, mean_instability=0.0)


def test_report_text_empty_says_no_findings():
    text = export_report([], _NO_COUPLING, fmt="text").decode("utf-8")
    assert "No findings." in text


def test_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        export_report([], _NO_COUPLING, fmt="csv")


def test_report_reflects_severity_override():
    system = weave(
        [
            ServiceIr(
                service_name="a",
                remote_calls=[
                    RemoteCall(
                        caller_service="a",
                        caller_component="C",
                        caller_method="m",
                        http_method="GET",
                        url_template="http://nowhere/api/x",
                        arg_count=1,
                        span=SourceSpan("src/C.java", 5, 5),
                    )
                ],
            )
        ]
    )
    settings = CheckSettings(severity_overrides={RULE_DANGLING_CALL: SEV_WARNING})
    findings = run_checks(system, settings)
    text = export_report(findings, coupling_metrics(system), fmt="text").decode("utf-8")
    assert "ERRORS" not in text
    assert "WARNINGS (1)" in text
    assert "E01 warning" in text


def _key_lists(codec, path: str = "$") -> dict[str, list[str]]:
    """The keys of every object a table writes, by the path of the object
    (``[i]`` for every element of an array)."""
    if codec.item is not None:
        return _key_lists(codec.item, f"{path}[i]")
    lists = {}
    if codec.fields is not None:
        lists[path] = [key for key, _codec in codec.fields]
        for key, member in codec.fields:
            lists.update(_key_lists(member, key if path == "$" else f"{path}.{key}"))
    return lists


def _documented_key_lists(document: str) -> dict[str, list[str]]:
    """The key lists that ``docs/formats.md`` gives in the section of
    ``document``."""
    docs = (Path(__file__).parents[1] / "docs" / "formats.md").read_text(encoding="utf-8")
    section = docs.split(f"(`{document}`)\n", 1)[1].split("\n## ", 1)[0]
    return {
        bullet.group(1): re.findall(r"`(\w+)`", bullet.group(2))
        for bullet in re.finditer(r"^- `([^`]+)`: (.*)$", section, re.MULTILINE)
    }


@pytest.mark.parametrize(
    "document, table",
    [("context-map.json", CONTEXT_MAP_JSON), ("system.json", SYSTEM_JSON),
     ("report.json", REPORT_JSON)],
)
def test_documented_keys_match_the_tables(document, table):
    assert _documented_key_lists(document) == _key_lists(table)
