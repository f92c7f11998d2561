"""Reference check of one analyzer run against the generator's manifest.

Independent of microweave's code: it reads the canonical output bytes
(documented in docs/formats.md) and recomputes the expected results from
the manifest alone.

* every ``system.json`` comm edge is exactly one manifest call, linked to
  its manifest target endpoint, and every manifest call has its edge;
* the subjects of the E01 findings in ``report.json`` are exactly the
  manifest's dangling calls;
* the services named by S01 findings are exactly the services on
  non-trivial strongly connected components of the manifest graph, which
  holds whether S01 reports one finding per cycle or per component;
* with a compose file, the W04 pairs are the calls the deployment does
  not declare plus the declared pairs nobody calls.

Canonical JSON is compact and escapes every quote inside a string, so the
byte patterns below only ever match real object boundaries.  Findings are
decoded one at a time because the S01 list can run to hundreds of MB.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

_FINDING_START = re.compile(rb'\{"rule_id":"([A-Z0-9]+)"')
_COUPLING = b'],"coupling":'


def strongly_connected(nodes, edges) -> list[set[str]]:
    """Tarjan's components, iteratively, so deep graphs need no recursion."""
    adjacency: dict[str, list[str]] = {n: [] for n in nodes}
    for a, b in edges:
        adjacency[a].append(b)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    components = []
    for root in sorted(adjacency):
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, i = work.pop()
            if i == 0:
                index[node] = low[node] = len(index)
                stack.append(node)
                on_stack.add(node)
            if i < len(adjacency[node]):
                work.append((node, i + 1))
                nxt = adjacency[node][i]
                if nxt not in index:
                    work.append((nxt, 0))
                elif nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
                continue
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components


def cyclic_services(services, graph) -> set[str]:
    """Services on a non-trivial component: size above one, or a self loop."""
    loops = {a for a, b in graph if a == b}
    return {s for c in strongly_connected(services, graph)
            if len(c) > 1 or c & loops for s in c}


def iter_findings(report: bytes, rule_ids: set[str]):
    """Decode the findings of ``report.json`` whose rule is in ``rule_ids``."""
    end = report.rfind(_COUPLING)
    if end < 0:
        raise ValueError("report.json has no coupling section")
    starts = [(m.start(), m.group(1).decode()) for m in _FINDING_START.finditer(report, 0, end)]
    for k, (pos, rule) in enumerate(starts):
        if rule not in rule_ids:
            continue
        stop = starts[k + 1][0] - 1 if k + 1 < len(starts) else end
        yield json.loads(report[pos:stop])


def comm_edges(system: bytes) -> list[dict]:
    start = system.index(b'"comm_edges":') + len(b'"comm_edges":')
    stop = system.index(b',"event_edges":', start)
    return json.loads(system[start:stop])


def check(manifest: dict, system: bytes, report: bytes) -> list[str]:
    """Every way the outputs disagree with the manifest; empty when correct."""
    problems = []

    expected = {}
    for call in manifest["calls"]:
        t = call["target"]
        expected[(call["service"], call["component"], call["method"], call["file"])] = (
            t["service"], t["owner"], t["handler"], t["file"])
    seen = {}
    for edge in comm_edges(system):
        c, e = edge["call"], edge["endpoint"]
        key = (edge["from_service"], c["component"], c["method"], c["file"])
        got = (edge["to_service"], e["owner"], e["handler"], e["file"])
        if key in seen:
            problems.append(f"call {key} has more than one edge")
        seen[key] = got
        if expected.get(key) != got:
            problems.append(f"edge {key} -> {got}: expected {expected.get(key)}")
    for key in sorted(expected.keys() - seen.keys()):
        problems.append(f"call {key} has no edge")

    wanted = {(d["service"], f"{d['component']}.{d['method']}", d["file"])
              for d in manifest["dangling"]}
    rules = {"E01", "S01"} | ({"W04"} if manifest["shape"]["compose"] else set())
    dangling, s01, w04 = set(), set(), set()
    for finding in iter_findings(report, rules):
        subjects = finding["subjects"]
        if finding["rule_id"] == "E01":
            s = subjects[0]
            dangling.add((s["service"], s["ref"], s["file"]))
        elif finding["rule_id"] == "S01":
            s01.update(s["service"] for s in subjects)
        else:
            w04.add(tuple(subjects[0]["ref"].split("->")))
    for site in sorted(dangling ^ wanted):
        side = "unexpected" if site in dangling else "missing"
        problems.append(f"E01 {side}: {site}")

    graph = {tuple(e) for e in manifest["graph"]}
    cyclic = cyclic_services(manifest["services"], graph)
    for name in sorted(s01 ^ cyclic):
        side = "names" if name in s01 else "misses"
        problems.append(f"S01 {side} service {name}")

    if manifest["shape"]["compose"]:
        declared = {tuple(e) for e in manifest["declared"]}
        for pair in sorted(w04 ^ (graph ^ declared)):
            side = "unexpected" if pair in w04 else "missing"
            problems.append(f"W04 {side}: {pair}")
    return problems


def check_dir(manifest: dict, out: str | Path) -> list[str]:
    out = Path(out)
    return check(manifest, (out / "system.json").read_bytes(),
                 (out / "report.json").read_bytes())
