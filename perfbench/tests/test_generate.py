from __future__ import annotations

import json
from pathlib import Path

import pytest

import generate


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(generate.SMALL_WORKLOADS))
def test_same_seed_gives_identical_tree_and_manifest(tmp_path, workload):
    shape = generate.SMALL_WORKLOADS[workload]
    first = generate.generate(shape, 7, tmp_path / "a")
    second = generate.generate(shape, 7, tmp_path / "b")
    assert first == second
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    generate.generate(shape, 8, tmp_path / "c")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")


def test_manifest_describes_the_generated_calls(tmp_path):
    shape = generate.SMALL_WORKLOADS["wide"]
    root = tmp_path / "sys"
    manifest = generate.generate(shape, 3, root)
    assert json.loads((root / "manifest.json").read_text()) == json.loads(json.dumps(manifest))
    sites = manifest["calls"] + manifest["dangling"]
    # Every handler of every service but the last in the layer order calls out.
    assert len(sites) == (shape.services - 1) * shape.controllers * shape.endpoints
    assert len(manifest["dangling"]) == round(shape.dangling * len(sites))
    assert {(c["service"], c["target"]["service"]) for c in manifest["calls"]} == {
        tuple(e) for e in manifest["graph"]}
    for call in manifest["calls"]:
        source = (root / call["service"] / call["file"]).read_text()
        target = call["target"]
        assert f"http://{target['service']}/api/{target['service']}/" in source


def test_layered_graph_is_acyclic_and_circulant_graph_is_not(tmp_path):
    import reference

    wide = generate.generate(generate.SMALL_WORKLOADS["wide"], 1, tmp_path / "w")
    assert reference.cyclic_services(wide["services"], wide["graph"]) == set()
    cycles = generate.generate(generate.SMALL_WORKLOADS["cycles"], 1, tmp_path / "c")
    assert reference.cyclic_services(cycles["services"], cycles["graph"]) == set(
        cycles["services"])


def test_passthrough_services_get_syntax_tree_documents(tmp_path):
    root = tmp_path / "sys"
    generate.generate(generate.WORKLOADS["ci-small"], 1, root)
    config = json.loads((root / "config.json").read_text())
    for service in config["services"]:
        files = sorted((root / service["root_dir"]).rglob("*.*"))
        suffix = ".laast.json" if service["convention"] == generate.PASSTHROUGH else ".java"
        assert files and all(f.name.endswith(suffix) for f in files)
