from __future__ import annotations

import json

import pytest

import generate
import reference
from microweave.cli import main as analyze


def _canonical(obj) -> bytes:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


@pytest.fixture(scope="module", params=["wide", "cycles"])
def analyzed(request, tmp_path_factory):
    """A small workload, the analyzer's outputs on it, and its manifest."""
    root = tmp_path_factory.mktemp(request.param)
    manifest = generate.generate(generate.SMALL_WORKLOADS[request.param], 5, root / "in")
    status = analyze(["--config", str(root / "in" / "config.json"), "--out", str(root / "out")])
    assert status in (1, 2)
    system = (root / "out" / "system.json").read_bytes()
    report = (root / "out" / "report.json").read_bytes()
    return manifest, system, report


def test_real_outputs_pass(analyzed):
    manifest, system, report = analyzed
    assert reference.check(manifest, system, report) == []


def test_planted_wrong_edge_is_rejected(analyzed):
    manifest, system, report = analyzed
    doc = json.loads(system)
    edge = doc["comm_edges"][0]
    edge["endpoint"]["handler"] = edge["endpoint"]["handler"] + "x"
    problems = reference.check(manifest, _canonical(doc), report)
    assert len(problems) == 1 and problems[0].startswith("edge ")


def test_missing_edge_is_rejected(analyzed):
    manifest, system, report = analyzed
    doc = json.loads(system)
    del doc["comm_edges"][-1]
    problems = reference.check(manifest, _canonical(doc), report)
    assert len(problems) == 1 and problems[0].endswith("has no edge")


def test_planted_extra_s01_service_is_rejected(analyzed):
    manifest, system, report = analyzed
    doc = json.loads(report)
    cyclic = reference.cyclic_services(manifest["services"], manifest["graph"])
    outsider = "svc99"
    doc["findings"].append({
        "rule_id": "S01", "severity": "warning", "message": "planted",
        "subjects": [{"service": s, "ref": "planted", "file": "", "line": 0}
                     for s in sorted(cyclic)[:1] + [outsider]],
    })
    assert reference.check(manifest, system, _canonical(doc)) == [
        f"S01 names service {outsider}"]


def test_dropped_e01_finding_is_rejected(analyzed):
    manifest, system, report = analyzed
    doc = json.loads(report)
    e01 = [f for f in doc["findings"] if f["rule_id"] == "E01"]
    if not e01:
        pytest.skip("this workload plants no dangling calls")
    doc["findings"].remove(e01[0])
    problems = reference.check(manifest, system, _canonical(doc))
    assert len(problems) == 1 and problems[0].startswith("E01 missing")


def test_components_hold_for_per_component_reporting():
    # One finding per component names the same services as one per cycle.
    graph = [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "c"), ("d", "e"), ("f", "f")]
    assert reference.cyclic_services("abcdefg", graph) == {"a", "b", "c", "d", "f"}
    components = sorted(sorted(c) for c in reference.strongly_connected("abcdefg", graph))
    assert components == [["a", "b"], ["c", "d"], ["e"], ["f"], ["g"]]
