"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single verdict line
(`CRITERION <n> <slug>: PASS|FAIL`); run with ``pytest -v`` to see one row
per criterion, or add ``-s`` to see the verdict lines directly.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import time

import pytest

from conftest import GOLDEN_DIR, copy_shop, overlay_variant
from microweave import runner
from microweave.analysis import coupling_metrics, detect_cycles, run_checks
from microweave.cli import main
from microweave.ir import (
    Component,
    Endpoint,
    EventOp,
    ExtractionReport,
    PlainType,
    RemoteCall,
    ServiceIr,
    load_service_ir,
    save_service_ir,
)
from microweave.jsonio import canonical_bytes
from microweave.laast import LEAF_KINDS, LaastNode, NodeKind, load_laast, save_laast
from microweave.matchers import MethodSig, SourceSpan
from microweave.runner import build_system, load_config, system_json_parts
from microweave.similarity import parse_taxonomy, wu_palmer
from microweave.topology import Inventory
from microweave.weave import (
    EndpointIndex,
    WeaveConfig,
    comm_edge_to_json_obj,
    match_call_to_endpoints,
    save_context_map,
    system_to_json_obj,
    weave,
)

OUTPUT_FILES = (
    "system.json",
    "context-map.json",
    "report.json",
    "report.txt",
    "graph-services.dot",
    "graph-context.dot",
    "graph-full.dot",
    "orders.ir.json",
)


def _verdict(number: int, slug: str, ok: bool) -> None:
    print(f"CRITERION {number} {slug}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({slug}) failed"


def _run_cli(config_path) -> int:
    return main(["--config", str(config_path)])


@pytest.fixture(scope="module")
def fixture_run(tmp_path_factory):
    """One timed pipeline run over the pristine fixture."""
    dest = copy_shop(tmp_path_factory.mktemp("accept") / "shop")
    started = time.monotonic()
    code = _run_cli(dest / "config.json")
    elapsed = time.monotonic() - started
    return dest, code, elapsed


@pytest.fixture(scope="module")
def manifest():
    import conftest

    path = conftest.FIXTURE_DIR / "manifest.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _load_irs(out_dir):
    irs = {}
    for name in ("orders", "shipping", "users"):
        irs[name] = json.loads((out_dir / f"{name}.ir.json").read_bytes())
    return irs


def _precision_recall(predicted: set, truth: set) -> tuple[float, float]:
    if not predicted and not truth:
        return 1.0, 1.0
    hit = len(predicted & truth)
    precision = hit / len(predicted) if predicted else 0.0
    recall = hit / len(truth) if truth else 0.0
    return precision, recall


def test_criterion_1_fixture_extraction_exact(fixture_run, manifest, capsys):
    dest, code, elapsed = fixture_run
    irs = _load_irs(dest / "out")

    predicted = {"components": set(), "endpoints": set(), "calls": set(), "events": set()}
    truth = {"components": set(), "endpoints": set(), "calls": set(), "events": set()}
    internal_ok = True
    for service, data in manifest["services"].items():
        ir = irs[service]
        for c in ir["components"]:
            predicted["components"].add((service, c["role"], c["name"]))
        for c in data["components"]:
            truth["components"].add((service, c["role"], c["name"]))
        for e in ir["endpoints"]:
            predicted["endpoints"].add((service, e["http_method"], tuple(e["url_templates"])))
        for e in data["endpoints"]:
            truth["endpoints"].add((service, e["http_method"], tuple(e["url_templates"])))
        for c in ir["remote_calls"]:
            predicted["calls"].add(
                (service, c["caller_component"], c["caller_method"],
                 c["http_method"], c["url_template"], c["arg_count"])
            )
        for c in data["remote_calls"]:
            truth["calls"].add(
                (service, c["component"], c["method"],
                 c["http_method"], c["url_template"], c["arg_count"])
            )
        for op in ir["event_ops"]:
            predicted["events"].add(
                (service, op["direction"], op["topic"], op["component"], op["method"])
            )
        for op in data["event_ops"]:
            truth["events"].add(
                (service, op["direction"], op["topic"], op["component"], op["method"])
            )
        if len(ir["internal_calls"]) != data["internal_call_count"]:
            internal_ok = False

    ok = code == manifest["exit_code"] and elapsed < 5.0 and internal_ok
    for category in predicted:
        precision, recall = _precision_recall(predicted[category], truth[category])
        if precision != 1.0 or recall != 1.0:
            ok = False
    with capsys.disabled():
        _verdict(1, "fixture-extraction-precision-recall", ok)


def test_criterion_2_comm_edges_exact(fixture_run, manifest, capsys):
    dest, _code, _elapsed = fixture_run
    system = json.loads((dest / "out" / "system.json").read_bytes())
    got = {
        (e["from_service"], e["to_service"], e["call"]["http_method"],
         e["call"]["url_template"], e["matched_url_template"],
         e["score"], e["confidence"], e["ambiguous"])
        for e in system["comm_edges"]
    }
    want = {
        (e["from"], e["to"], e["call_method"], e["call_template"],
         e["matched_template"], e["score"], e["confidence"], e["ambiguous"])
        for e in manifest["comm_edges"]
    }
    multi_templates = {
        e["matched_url_template"]
        for e in system["comm_edges"]
        if e["endpoint"]["handler"] == "byEmail"
    }
    ok = got == want and multi_templates == {
        "/api/users/by-email/{email}",
        "/api/users/email/{email}",
    }
    events = {
        (e["publisher"], e["subscriber"], e["topic"]) for e in system["event_edges"]
    }
    ok = ok and events == {
        (e["publisher"], e["subscriber"], e["topic"]) for e in manifest["event_edges"]
    }
    with capsys.disabled():
        _verdict(2, "comm-edge-set-including-multi-template", ok)


def _random_taxonomy(rng: random.Random):
    size = rng.randint(2, 50)
    parents = [None] + [rng.randrange(i) for i in range(1, size)]
    children: dict[int, list[int]] = {i: [] for i in range(size)}
    for i in range(1, size):
        children[parents[i]].append(i)
    lines: list[str] = []

    def emit(node: int, level: int) -> None:
        lines.append("  " * level + f"t{node}")
        for child in children[node]:
            emit(child, level + 1)

    emit(0, 0)
    return parents, "\n".join(lines) + "\n"


def _oracle_wup(parents, a: int, b: int) -> float:
    def chain(node: int) -> list[int]:
        out = [node]
        while parents[out[-1]] is not None:
            out.append(parents[out[-1]])
        return out

    depth = {node: len(chain(node)) for node in (a, b)}
    ancestors_a = set(chain(a))
    lcs = next(node for node in chain(b) if node in ancestors_a)
    lcs_depth = len(chain(lcs))
    return 2.0 * lcs_depth / (depth[a] + depth[b])


def test_criterion_3_taxonomy_similarity_oracle(capsys):
    rng = random.Random(31)
    ok = True
    for _ in range(200):
        parents, text = _random_taxonomy(rng)
        taxonomy = parse_taxonomy(text)
        size = len(parents)
        for _ in range(10):
            a, b = rng.randrange(size), rng.randrange(size)
            got = wu_palmer(f"t{a}", f"t{b}", taxonomy)
            want = _oracle_wup(parents, a, b)
            if abs(got - want) > 1e-12:
                ok = False
    with capsys.disabled():
        _verdict(3, "taxonomy-similarity-vs-brute-force", ok)


_ORACLE_SEGMENTS = ("api", "users", "orders", "items", "v2", "{id}", "{key}")
_ORACLE_METHODS = ("GET", "POST", "PUT", "DELETE")


def _oracle_path_score(call_path: str, ep_path: str) -> float:
    def segs(path):
        trimmed = path.strip("/")
        return trimmed.split("/") if trimmed else []

    def is_template(seg):
        return seg.startswith("{") and seg.endswith("}")

    a, b = segs(call_path), segs(ep_path)
    if not a and not b:
        return 1.0
    strong = weak = 0
    for left, right in zip(a, b):
        if is_template(left) or is_template(right):
            weak += 1
        elif left == right:
            strong += 1
        else:
            return 0.0
    longer = a if len(a) > len(b) else b
    if any(not is_template(seg) for seg in longer[min(len(a), len(b)):]):
        return 0.0
    return (strong + 0.5 * weak) / max(len(a), len(b))


def _oracle_candidates(call, endpoints, inventory):
    """(call path, candidate endpoints, host penalty) by the host rule:
    a known host narrows to its service, an unknown one widens at half
    confidence, a relative URL widens at full confidence."""
    host = None
    path = call.url_template
    if path.startswith("http://") or path.startswith("https://"):
        rest = path.split("://", 1)[1]
        slash = rest.find("/")
        hostport = rest if slash < 0 else rest[:slash]
        host = hostport.split(":")[0]
        path = "/" if slash < 0 else rest[slash:]
    if host is None:
        return path, list(endpoints), 1.0
    if host in inventory:
        return path, [ep for ep in endpoints if ep.service == inventory[host]], 1.0
    return path, list(endpoints), 0.5


def _oracle_method_factor(call_method, endpoint_method):
    if call_method == endpoint_method:
        return 1.0
    if call_method == "UNKNOWN" or endpoint_method == "ANY":
        return 0.9
    return None


def _oracle_best_template(path, ep):
    best, best_template = 0.0, None
    for template in ep.url_templates:
        score = _oracle_path_score(path, template)
        if score > best:
            best, best_template = score, template
    return best, best_template


def _oracle_ties(call, endpoints, inventory, threshold):
    """([(endpoint, template)] tied at the best score, best score, penalty)."""
    path, candidates, penalty = _oracle_candidates(call, endpoints, inventory)
    scored = []
    for ep in candidates:
        factor = _oracle_method_factor(call.http_method, ep.http_method)
        if factor is None:
            continue
        best, best_template = _oracle_best_template(path, ep)
        total = best * factor
        if total > 0.0 and best_template is not None:
            scored.append((total, ep, best_template))
    if not scored:
        return [], 0.0, penalty
    top = max(total for total, _, _ in scored)
    if top < threshold:
        return [], top, penalty
    return [(ep, template) for total, ep, template in scored if total == top], top, penalty


def _oracle_match(call, endpoints, inventory, threshold):
    ties, top, penalty = _oracle_ties(call, endpoints, inventory, threshold)
    return [
        (ep.service, template, top, penalty / len(ties), len(ties) > 1)
        for ep, template in ties
    ], penalty


def _oracle_near_miss(call, endpoints, inventory, threshold):
    """The candidate blocked only by its HTTP method whose path scores at or
    above the threshold: best score first, then service, file, line."""
    path, candidates, _penalty = _oracle_candidates(call, endpoints, inventory)
    best = None
    for ep in candidates:
        if _oracle_method_factor(call.http_method, ep.http_method) is not None:
            continue
        score, _template = _oracle_best_template(path, ep)
        key = (-score, ep.service, ep.span.file, ep.span.line_start)
        if score >= threshold and (best is None or key < best[0]):
            best = (key, ep)
    return None if best is None else best[1]


def _random_matching_instance(rng: random.Random):
    services = [f"svc{i}" for i in range(rng.randint(2, 5))]
    inventory = Inventory()
    for name in services:
        inventory[name] = name

    endpoints = []
    for i in range(rng.randint(1, 20)):
        service = rng.choice(services)
        templates = []
        for _ in range(rng.randint(1, 3)):
            depth = rng.randint(0, 4)
            templates.append(
                "/" + "/".join(rng.choice(_ORACLE_SEGMENTS) for _ in range(depth))
                if depth
                else "/"
            )
        endpoints.append(
            Endpoint(
                owner=f"Ctl{i}",
                service=service,
                http_method=rng.choice(_ORACLE_METHODS + ("ANY",)),
                url_templates=templates,
                params=[],
                handler=MethodSig(f"h{i}", [], "void", []),
                span=SourceSpan(f"src/Ctl{i}.java", i + 1, i + 2),
            )
        )

    calls = []
    for i in range(rng.randint(1, 20)):
        depth = rng.randint(0, 4)
        path = (
            "/" + "/".join(
                rng.choice(_ORACLE_SEGMENTS[:-2] + ("{*}",)) for _ in range(depth)
            )
            if depth
            else "/"
        )
        style = rng.random()
        if style < 0.4:
            url = f"http://{rng.choice(services)}{path}"
        elif style < 0.6:
            url = f"http://outsider-{i}.example.com{path}"
        else:
            url = path
        calls.append(
            RemoteCall(
                caller_service="caller",
                caller_component="C",
                caller_method=f"m{i}",
                http_method=rng.choice(_ORACLE_METHODS + ("UNKNOWN",)),
                url_template=url,
                arg_count=1,
                span=SourceSpan("src/C.java", i + 1, i + 1),
            )
        )
    return calls, endpoints, inventory


def test_criterion_4_endpoint_matching_oracle(capsys):
    rng = random.Random(47)
    config = WeaveConfig()
    ok = True
    for _ in range(200):
        calls, endpoints, inventory = _random_matching_instance(rng)
        index = EndpointIndex(endpoints)
        for call in calls:
            edges = match_call_to_endpoints(call, index, inventory, config)
            expected, penalty = _oracle_match(
                call, endpoints, inventory, config.path_threshold
            )
            got = sorted(
                (e.to_service, e.matched_url_template, e.score, e.confidence, e.ambiguous)
                for e in edges
            )
            want = sorted(expected)
            if len(got) != len(want):
                ok = False
                continue
            for g, w in zip(got, want):
                if g[0] != w[0] or g[1] != w[1] or g[4] != w[4]:
                    ok = False
                if abs(g[2] - w[2]) > 1e-12 or abs(g[3] - w[3]) > 1e-12:
                    ok = False
            if edges:
                total_confidence = sum(e.confidence for e in edges)
                if abs(total_confidence - penalty) > 1e-12:
                    ok = False
    with capsys.disabled():
        _verdict(4, "endpoint-matching-vs-brute-force", ok)


def _random_system(rng: random.Random):
    """Up to 6 services with random endpoints and calls.  Calls use known,
    unknown and missing hosts, UNKNOWN and ANY methods, and template
    segments that tie; several calls may share one source line."""
    services = [f"svc{i}" for i in range(rng.randint(2, 6))]
    endpoints = {name: [] for name in services}
    calls = {name: [] for name in services}
    for i in range(rng.randint(1, 16)):
        service = rng.choice(services)
        templates = [
            "/" + "/".join(rng.choice(_ORACLE_SEGMENTS) for _ in range(rng.randint(0, 3)))
            for _ in range(rng.randint(1, 2))
        ]
        endpoints[service].append(
            Endpoint(
                owner=f"Ctl{i}",
                service=service,
                http_method=rng.choice(_ORACLE_METHODS + ("ANY",)),
                url_templates=templates,
                params=[
                    (f"p{k}", rng.choice(("path", "body", "query")), "long")
                    for k in range(rng.randint(0, 3))
                ],
                handler=MethodSig(f"h{i}", [], "void", []),
                span=SourceSpan(f"src/Ctl{i}.java", i + 1, i + 2),
            )
        )
    for i in range(rng.randint(1, 16)):
        service = rng.choice(services)
        path = "/" + "/".join(
            rng.choice(_ORACLE_SEGMENTS[:-2] + ("{*}",)) for _ in range(rng.randint(0, 3))
        )
        style = rng.random()
        if style < 0.5:
            url = f"http://{rng.choice(services)}{path}"
        elif style < 0.7:
            url = f"http://outsider-{i}.example.com{path}"
        else:
            url = path
        line = rng.randint(1, 6)
        calls[service].append(
            RemoteCall(
                caller_service=service,
                caller_component="Client",
                caller_method=f"m{line}",
                http_method=rng.choice(_ORACLE_METHODS + ("UNKNOWN",)),
                url_template=url,
                arg_count=rng.randint(0, 4),
                span=SourceSpan("src/Client.java", line, line),
            )
        )
    return [
        ServiceIr(service_name=name, endpoints=endpoints[name], remote_calls=calls[name])
        for name in services
    ]


def _call_subject(call):
    return (call.caller_service, f"{call.caller_component}.{call.caller_method}",
            call.span.file, call.span.line_start)


def _endpoint_subject(ep):
    return (ep.service, f"{ep.owner}.{ep.handler.name}", ep.span.file, ep.span.line_start)


def _oracle_call_findings(irs, threshold):
    """(rule id, subjects) of every E01, E02, W02 and W03 finding, and the
    kinds of finding seen, recomputed from the raw calls and endpoints."""
    inventory = {ir.service_name: ir.service_name for ir in irs}
    endpoints = [ep for ir in sorted(irs, key=lambda ir: ir.service_name) for ep in ir.endpoints]
    findings, kinds, reached = [], set(), set()
    for ir in irs:
        for call in ir.remote_calls:
            site = _call_subject(call)
            ties, _top, _penalty = _oracle_ties(call, endpoints, inventory, threshold)
            if not ties:
                near = _oracle_near_miss(call, endpoints, inventory, threshold)
                if near is None:
                    findings.append(("E01", (site,)))
                    kinds.add("E01")
                else:
                    findings.append(("E02", (site, _endpoint_subject(near))))
                    kinds.add("E02 method")
                continue
            if len(ties) > 1:
                findings.append(("W02", (site,)))
                kinds.add("W02")
            for ep, _template in ties:
                reached.add(id(ep))
                declared = sum(1 for _n, kind, _t in ep.params if kind in ("path", "body"))
                if abs(call.arg_count - declared) > 1:
                    findings.append(("E02", (site, _endpoint_subject(ep))))
                    kinds.add("E02 args")
    for ep in endpoints:
        if id(ep) not in reached:
            findings.append(("W03", (_endpoint_subject(ep),)))
            kinds.add("W03")
    return sorted(findings), kinds


def test_call_checks_match_brute_force_oracle():
    """E01/E02/W02/W03 read weave's match decisions; recomputing those
    decisions from scratch must give the same finding subjects."""
    rng = random.Random(2022)
    config = WeaveConfig()
    kinds_seen = set()
    for _ in range(300):
        irs = _random_system(rng)
        system = weave(irs, config=config)
        assert system.metadata["inventory"] == {ir.service_name: ir.service_name for ir in irs}
        got = sorted(
            (f.rule_id, tuple((s.service, s.ref, s.file, s.line) for s in f.subjects))
            for f in run_checks(system)
            if f.rule_id in ("E01", "E02", "W02", "W03")
        )
        want, kinds = _oracle_call_findings(irs, config.path_threshold)
        assert got == want
        kinds_seen |= kinds
    assert kinds_seen == {"E01", "E02 method", "E02 args", "W02", "W03"}


def _brute_force_cycles(nodes, edges):
    edge_set = set(edges)
    found = set()
    for size in range(1, len(nodes) + 1):
        for combo in itertools.permutations(nodes, size):
            if combo[0] != min(combo):
                continue
            if all((combo[i], combo[(i + 1) % size]) in edge_set for i in range(size)):
                found.add(combo)
    return sorted(found)


def test_criterion_5_cycle_enumeration(capsys):
    ok = True
    for n in range(1, 5):
        nodes = [f"n{i}" for i in range(n)]
        slots = [(a, b) for a in nodes for b in nodes if a != b]
        for mask in range(1 << len(slots)):
            edges = {slots[i] for i in range(len(slots)) if mask >> i & 1}
            if detect_cycles(edges) != _brute_force_cycles(nodes, edges):
                ok = False
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(5, 8)
        nodes = [f"n{i}" for i in range(n)]
        edges = {
            (a, b) for a in nodes for b in nodes if a != b and rng.random() < 0.25
        }
        if detect_cycles(edges) != _brute_force_cycles(nodes, edges):
            ok = False
    with capsys.disabled():
        _verdict(5, "cycle-enumeration-vs-brute-force", ok)


def test_criterion_6_variant_triggers_each_rule_once(tmp_path, capsys):
    dest = overlay_variant(copy_shop(tmp_path / "shop"))
    code = _run_cli(dest / "config.json")
    report = json.loads((dest / "out" / "report.json").read_bytes())
    counts: dict[str, int] = {}
    for finding in report["findings"]:
        counts[finding["rule_id"]] = counts.get(finding["rule_id"], 0) + 1
    expected = {"E01": 1, "E02": 1, "W01": 1, "W02": 1, "W03": 1, "W04": 1, "S01": 1}
    ok = counts == expected and code == 2
    with capsys.disabled():
        _verdict(6, "variant-one-finding-per-rule", ok)


def _random_span(rng: random.Random) -> SourceSpan | None:
    if rng.random() < 0.3:
        return None
    start = rng.randint(1, 40)
    return SourceSpan(f"src/F{rng.randint(0, 5)}.java", start, start + rng.randint(0, 6))


def _random_laast(rng: random.Random) -> LaastNode:
    kinds = list(NodeKind)
    names = ("", "Order", "get", "id", "x", "Größe")

    def build(depth: int) -> LaastNode:
        kind = rng.choice(kinds)
        node = LaastNode(
            kind=kind,
            name=rng.choice(names) or None,
            attributes={
                f"k{i}": rng.choice(("v", "1", "{*}", "äß"))
                for i in range(rng.randint(0, 3))
            },
            span=_random_span(rng),
        )
        if kind not in LEAF_KINDS and depth < 3:
            node.children = [build(depth + 1) for _ in range(rng.randint(0, 3))]
        return node

    return build(0)


def _random_service_ir(rng: random.Random) -> ServiceIr:
    service = f"svc{rng.randint(0, 9)}"
    span = SourceSpan("src/A.java", 1, 2)
    components = [
        Component(
            role=rng.choice(("Controller", "Service", "Repository", "Entity")),
            name=f"Comp{i}",
            service=service,
            fields=[(f"f{j}", rng.choice(("long", "String"))) for j in range(rng.randint(0, 2))],
            methods=[MethodSig(f"m{i}", [("p", "long")], "void", [("Service", {})])],
            annotations=[("Service", {"value": "x"})],
            span=span,
        )
        for i in range(rng.randint(0, 3))
    ]
    endpoints = [
        Endpoint(
            owner="Ctl",
            service=service,
            http_method="GET",
            url_templates=[f"/api/things/{{id{i}}}"],
            params=[(f"id{i}", "path", "long")],
            handler=MethodSig("get", [], "Thing", []),
            span=span,
        )
        for i in range(rng.randint(0, 2))
    ]
    calls = [
        RemoteCall(
            caller_service=service,
            caller_component="Client",
            caller_method=f"go{i}",
            http_method=rng.choice(("GET", "UNKNOWN")),
            url_template="http://peer/api/things/{*}",
            arg_count=rng.randint(0, 4),
            span=span,
        )
        for i in range(rng.randint(0, 2))
    ]
    events = [
        EventOp(
            direction=rng.choice(("Publish", "Subscribe")),
            topic=rng.choice(("a.b", "{*}")),
            service=service,
            component="Comp0",
            method="m0",
            span=span,
        )
        for _ in range(rng.randint(0, 2))
    ]
    return ServiceIr(
        service_name=service,
        components=components,
        endpoints=endpoints,
        remote_calls=calls,
        event_ops=events,
        internal_calls=[(("Comp0", "m0"), ("Comp1", "m1"))] if len(components) > 1 else [],
        plain_types=[PlainType("Money", service, span)] if rng.random() < 0.5 else [],
        extraction_report=ExtractionReport(
            files_scanned=rng.randint(0, 9),
            files_skipped=[("src/bad.java", "unreadable")] if rng.random() < 0.3 else [],
            nodes_emitted=rng.randint(0, 99),
            warnings=[("src/A.java", 3, "note")] if rng.random() < 0.3 else [],
        ),
        warnings=[("src/A.java", 5, "ambiguous internal call")] if rng.random() < 0.3 else [],
    )


def test_criterion_7_determinism_and_round_trips(tmp_path, capsys):
    ok = True

    first = copy_shop(tmp_path / "one")
    second = copy_shop(tmp_path / "two")
    _run_cli(first / "config.json")
    _run_cli(second / "config.json")
    for name in OUTPUT_FILES:
        if (first / "out" / name).read_bytes() != (second / "out" / name).read_bytes():
            ok = False

    permuted = copy_shop(tmp_path / "three")
    config = json.loads((permuted / "config.json").read_text(encoding="utf-8"))
    config["services"] = list(reversed(config["services"]))
    (permuted / "config.json").write_text(json.dumps(config), encoding="utf-8")
    _run_cli(permuted / "config.json")
    for name in OUTPUT_FILES:
        if (first / "out" / name).read_bytes() != (permuted / "out" / name).read_bytes():
            ok = False

    rng = random.Random(7)
    for _ in range(500):
        tree = _random_laast(rng)
        blob = save_laast(tree)
        again = load_laast(blob)
        if again != tree or save_laast(again) != blob:
            ok = False
    for _ in range(500):
        ir = _random_service_ir(rng)
        blob = save_service_ir(ir)
        again = load_service_ir(blob)
        if again != ir or save_service_ir(again) != blob:
            ok = False
    with capsys.disabled():
        _verdict(7, "byte-determinism-and-round-trips", ok)


def _whole_system_json(system) -> bytes:
    """``system.json`` as one canonical encoding of the whole document."""
    return canonical_bytes(
        {"services": [json.loads(save_service_ir(ir)) for ir in system.services],
         "context_map": json.loads(save_context_map(system.context_map)),
         "comm_edges": [comm_edge_to_json_obj(e) for e in system.comm_edges],
         **system_to_json_obj(system)}
    )


def _flatten(parts) -> bytes:
    """The document an ``atomic_write`` data argument stands for."""
    if isinstance(parts, bytes):
        return parts
    return b"".join(
        bytes(part) if isinstance(part, (bytes, memoryview)) else b"".join(part)
        for part in parts
    )


def test_system_json_splices_each_ir_encoding_into_one_canonical_document(fixture_run):
    dest, _code, _elapsed = fixture_run
    system = build_system(load_config(dest / "config.json"), log=io.StringIO())
    assert (dest / "out" / "system.json").read_bytes() == _whole_system_json(system)

    rng = random.Random(11)
    systems = [weave([])]
    for _ in range(30):
        irs = {}
        for _ in range(rng.randint(1, 6)):
            ir = _random_service_ir(rng)
            irs.setdefault(ir.service_name, ir)
        systems.append(weave(list(irs.values())))
    for system in systems:
        blobs = [save_service_ir(ir) for ir in system.services]
        parts = system_json_parts(system, blobs, save_context_map(system.context_map))
        assert _flatten(parts) == _whole_system_json(system)


def test_each_output_is_encoded_once_and_system_json_is_written_in_chunks(
    shop, monkeypatch
):
    written = {}
    flat = {}
    real_write = runner.atomic_write
    encoded = []
    real_save = runner.save_service_ir

    def capture(path, data):
        written[path.name] = data
        # Flattening draws the generator parts, so write what was drawn.
        flat[path.name] = _flatten(data)
        real_write(path, flat[path.name])

    def save(ir):
        encoded.append(ir.service_name)
        return real_save(ir)

    # Each ``.ir.json`` is encoded as its service is built, before weaving.
    encoded_at_weave = []
    real_weave = runner.weave

    def weave_after_encoding(*args, **kwargs):
        encoded_at_weave.append(list(encoded))
        return real_weave(*args, **kwargs)

    monkeypatch.setattr(runner, "atomic_write", capture)
    monkeypatch.setattr(runner, "save_service_ir", save)
    monkeypatch.setattr(runner, "weave", weave_after_encoding)
    config = load_config(shop / "config.json")
    runner.run(config, log=io.StringIO())

    parts = written["system.json"]
    assert isinstance(parts, list)
    # perfbench/tracer.py takes the len() of each data argument.
    assert all(isinstance(data, (bytes, list)) for data in written.values())
    system = build_system(config, log=io.StringIO())
    whole = _whole_system_json(system)
    assert flat["system.json"] == whole
    assert (shop / "out" / "system.json").read_bytes() == whole
    services = [name for name in written if name.endswith(".ir.json")]
    assert len(services) == len(system.services) == 3
    assert encoded == encoded_at_weave[0] == [ir.service_name for ir in system.services]
    assert any(written["context-map.json"] is part for part in parts)


def test_criterion_8_coupling_recount(fixture_run, capsys):
    dest, _code, _elapsed = fixture_run
    system = json.loads((dest / "out" / "system.json").read_bytes())
    report = json.loads((dest / "out" / "report.json").read_bytes())

    pairs = {
        (e["from_service"], e["to_service"])
        for e in system["comm_edges"]
        if e["from_service"] != e["to_service"]
    }
    pairs |= {
        (e["publisher"], e["subscriber"])
        for e in system["event_edges"]
        if e["publisher"] != e["subscriber"]
    }
    names = [s["service_name"] for s in system["services"]]
    ok = report["coupling"]["total_pairs"] == len(pairs)
    ok = ok and report["coupling"]["total_services"] == len(names)
    recount = {}
    for service in names:
        ads = len({b for a, b in pairs if a == service})
        ais = len({a for a, b in pairs if b == service})
        instability = ads / (ais + ads) if ais + ads else 0.0
        recount[service] = (ais, ads, instability)
    for row in report["coupling"]["services"]:
        want = recount[row["service"]]
        if (row["ais"], row["ads"]) != want[:2] or abs(row["instability"] - want[2]) > 1e-12:
            ok = False
    mean = sum(v[2] for v in recount.values()) / len(recount)
    ok = ok and abs(report["coupling"]["mean_instability"] - mean) <= 1e-12

    chain = weave(
        [
            ServiceIr(
                service_name="a",
                remote_calls=[
                    RemoteCall("a", "C", "m", "GET", "http://b/api/x/{*}", 1,
                               SourceSpan("src/C.java", 1, 1))
                ],
            ),
            ServiceIr(
                service_name="b",
                endpoints=[
                    Endpoint("Ctl", "b", "GET", ["/api/x/{id}"],
                             [("id", "path", "long")], MethodSig("x", [], "void", []),
                             SourceSpan("src/Ctl.java", 1, 2))
                ],
                remote_calls=[
                    RemoteCall("b", "C", "m", "GET", "http://c/api/y/{*}", 1,
                               SourceSpan("src/C.java", 1, 1))
                ],
            ),
            ServiceIr(
                service_name="c",
                endpoints=[
                    Endpoint("Ctl", "c", "GET", ["/api/y/{id}"],
                             [("id", "path", "long")], MethodSig("y", [], "void", []),
                             SourceSpan("src/Ctl.java", 1, 2))
                ],
            ),
        ]
    )
    metrics = coupling_metrics(chain)
    by_name = {row.service: row.instability for row in metrics.services}
    ok = ok and by_name == {"a": 1.0, "b": 0.5, "c": 0.0}
    with capsys.disabled():
        _verdict(8, "coupling-vs-brute-force-recount", ok)
