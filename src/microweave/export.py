"""Graph and report outputs.

Three graph views: ``services`` (one node per service; solid call edges,
dotted event edges, gray declared-topology edges), ``context`` (entities
clustered per service with undirected match edges), and ``full`` (both
merged).  All outputs are canonical: nodes and edges appear in sorted
order, so identical systems always serialize to identical bytes.
"""

from __future__ import annotations

from microweave.analysis import (
    CouplingReport,
    Finding,
    SEV_ERROR,
    SEV_INFO,
    SEV_WARNING,
)
from microweave.jsonio import FLOAT, INT, STR, array, join_chunks, record, record_chunks, row
from microweave.jsonio import canonical_bytes  # not called here; perfbench/tracer.py hooks it
from microweave.weave import SystemIr

VIEWS = ("services", "context", "full")
REPORT_FORMATS = ("json", "text")


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _attr_list(attrs: list[tuple[str, str, bool]]) -> str:
    parts = []
    for key, value, quoted in attrs:
        parts.append(f"{key}={_quote(value) if quoted else value}")
    return "[" + ", ".join(parts) + "]"


def _service_nodes(system: SystemIr) -> list[str]:
    return sorted(ir.service_name for ir in system.services)


def _comm_edge_lines(system: SystemIr) -> list[str]:
    lines = []
    for edge in system.comm_edges:
        style = "dashed" if edge.ambiguous else "solid"
        label = f"{edge.call.http_method} {edge.matched_url_template}"
        lines.append(
            f"  {_quote(edge.from_service)} -> {_quote(edge.to_service)} "
            + _attr_list([("label", label, True), ("style", style, False)])
            + ";"
        )
    return sorted(lines)


def _event_edge_lines(system: SystemIr) -> list[str]:
    lines = []
    for publisher, subscriber, topic in system.event_edges:
        lines.append(
            f"  {_quote(publisher)} -> {_quote(subscriber)} "
            + _attr_list([("label", topic, True), ("style", "dotted", False)])
            + ";"
        )
    return sorted(lines)


def _topology_edge_lines(system: SystemIr) -> list[str]:
    pairs = sorted({(src, dst) for src, dst, _origin in system.topology_edges})
    return [
        f"  {_quote(src)} -> {_quote(dst)} "
        + _attr_list([("color", "gray", False)])
        + ";"
        for src, dst in pairs
    ]


def _entity_clusters(system: SystemIr, indent: str = "  ") -> list[str]:
    lines = []
    for model in system.context_map.bounded_contexts:
        if not model.entities:
            continue
        lines.append(f"{indent}subgraph {_quote('cluster_' + model.service_name)} {{")
        lines.append(f"{indent}  label={_quote(model.service_name)};")
        for name in sorted(e.name for e in model.entities):
            lines.append(f"{indent}  {_quote(model.service_name + '.' + name)};")
        lines.append(f"{indent}}}")
    return lines


def _match_edge_lines(system: SystemIr) -> list[str]:
    lines = []
    for match in system.context_map.matches:
        left = f"{match.service_a}.{match.entity_a}"
        right = f"{match.service_b}.{match.entity_b}"
        lines.append(
            f"  {_quote(left)} -> {_quote(right)} "
            + _attr_list(
                [("label", f"{match.score:.2f}", True), ("dir", "none", False)]
            )
            + ";"
        )
    return sorted(lines)


def export_dot(system: SystemIr, view: str = "services") -> str:
    """Render one view of the system as graph-description text."""
    if view not in VIEWS:
        raise ValueError(f"unknown view {view!r}; expected one of {VIEWS}")
    lines = [f"digraph {view} {{", "  rankdir=LR;"]
    if view == "services":
        lines.append("  node [shape=box, style=rounded];")
        lines.extend(f"  {_quote(name)};" for name in _service_nodes(system))
        lines.extend(_comm_edge_lines(system))
        lines.extend(_event_edge_lines(system))
        lines.extend(_topology_edge_lines(system))
    elif view == "context":
        lines.append("  node [shape=ellipse];")
        lines.extend(_entity_clusters(system))
        lines.extend(_match_edge_lines(system))
    else:
        lines.append("  node [shape=box, style=rounded];")
        lines.extend(f"  {_quote(name)};" for name in _service_nodes(system))
        lines.append("  node [shape=ellipse];")
        lines.extend(_entity_clusters(system))
        lines.extend(_comm_edge_lines(system))
        lines.extend(_event_edge_lines(system))
        lines.extend(_topology_edge_lines(system))
        lines.extend(_match_edge_lines(system))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _finding_line(finding: Finding) -> str:
    services = []
    for subject in finding.subjects:
        if subject.service not in services:
            services.append(subject.service)
    line = (
        f"{finding.rule_id} {finding.severity} {', '.join(services)}: "
        f"{finding.message}"
    )
    for subject in finding.subjects:
        if subject.file:
            line += f" ({subject.file}:{subject.line})"
            break
    return line


#: The table of ``report.json``, written from ``(findings, metrics)``.
REPORT_JSON = row(
    ("findings", array(record(
        ("rule_id", STR),
        ("severity", STR),
        ("message", STR),
        ("subjects", array(record(("service", STR), ("ref", STR), ("file", STR), ("line", INT)))),
    ))),
    ("coupling", record(
        ("services", array(record(
            ("service", STR), ("ais", INT), ("ads", INT), ("instability", FLOAT),
        ))),
        ("total_services", INT),
        ("total_pairs", INT),
        ("mean_instability", FLOAT),
    )),
)


def _text_report(findings: list[Finding], metrics: CouplingReport) -> str:
    sections = []
    if not findings:
        sections.append("No findings.")
    else:
        for title, severity in (
            ("ERRORS", SEV_ERROR),
            ("WARNINGS", SEV_WARNING),
            ("INFO", SEV_INFO),
        ):
            group = [f for f in findings if f.severity == severity]
            if not group:
                continue
            sections.append(
                "\n".join([f"{title} ({len(group)})"] + [_finding_line(f) for f in group])
            )
    lines = ["COUPLING"]
    for row in metrics.services:
        lines.append(
            f"{row.service}: ais={row.ais} ads={row.ads} "
            f"instability={row.instability:.4f}"
        )
    lines.append(
        f"total: services={metrics.total_services} pairs={metrics.total_pairs} "
        f"mean_instability={metrics.mean_instability:.4f}"
    )
    sections.append("\n".join(lines))
    return "\n\n".join(sections) + "\n"


def export_report(
    findings: list[Finding],
    metrics: CouplingReport,
    fmt: str = "json",
) -> bytes:
    """Serialize findings and coupling metrics as canonical JSON or as the
    grouped one-line-per-finding text form."""
    if fmt == "json":
        return join_chunks(record_chunks(REPORT_JSON, (findings, metrics)))
    if fmt == "text":
        return _text_report(findings, metrics).encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}; expected one of {REPORT_FORMATS}")
