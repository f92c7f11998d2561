"""Memory bounds of the serializers: each output is encoded one record at a
time into one growing buffer, so encoding holds little beyond the result,
and the write phase holds one service's encoding at a time."""

from __future__ import annotations

import io
import tracemalloc

import pytest

from microweave import runner
from microweave.frontend import SourceTree, extract
from microweave.ir import build_service_ir, save_service_ir
from microweave.laast import save_laast
from microweave.matchers import default_ruleset, run_matchers

HANDLERS = 800


def _controller(handlers: int, callee: str = "other") -> str:
    """One Spring controller with ``handlers`` GET handlers, every tenth
    calling out to service ``callee``."""
    lines = [
        "package big;", "",
        "@RestController", '@RequestMapping("/api/big")',
        "public class BigController {",
        "    private final RestTemplate restTemplate;",
    ]
    for i in range(handlers):
        lines += [f'    @GetMapping("/items{i}/{{id}}")',
                  f'    public String items{i}(@PathVariable("id") long id) {{']
        if i % 10 == 0:
            lines.append("        return restTemplate.getForObject("
                         f'"http://{callee}/api/big/items{i}/" + id, String.class);')
        else:
            lines.append(f'        return "items{i}" + id;')
        lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def big_service(tmp_path_factory):
    root = tmp_path_factory.mktemp("big")
    (root / "BigController.java").write_text(_controller(HANDLERS), encoding="utf-8")
    tree = SourceTree(service_name="big", root_dir=root, include_globs=("*.java",))
    laast, report = extract(tree)
    output = run_matchers(laast, default_ruleset(tree.convention), "big")
    assert len(output.endpoints) == HANDLERS
    return laast, build_service_ir(output, report, "big")


def _peak_above_start(fn, arg) -> tuple[int, bytes]:
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        blob = fn(arg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak, blob


@pytest.mark.parametrize("which", ["save_laast", "save_service_ir"])
def test_encoding_peak_stays_within_three_times_the_output(big_service, which):
    laast, ir = big_service
    fn, arg = (save_laast, laast) if which == "save_laast" else (save_service_ir, ir)
    peak, blob = _peak_above_start(fn, arg)
    assert len(blob) > 200_000
    assert peak <= 3 * len(blob), f"{which}: peak {peak} for {len(blob)} bytes"


SERVICES = 8


@pytest.fixture(scope="module")
def ring_system(tmp_path_factory):
    """A woven system of ``SERVICES`` services, each a 200-handler controller
    calling into the next one."""
    base = tmp_path_factory.mktemp("ring")
    trees = []
    for k in range(SERVICES):
        root = base / f"svc{k}"
        root.mkdir()
        (root / "BigController.java").write_text(
            _controller(200, callee=f"svc{(k + 1) % SERVICES}"), encoding="utf-8")
        trees.append(SourceTree(service_name=f"svc{k}", root_dir=root,
                                include_globs=("*.java",)))
    config = runner.RunConfig(services=trees, output_dir=base / "out")
    return runner.build_system(config, log=io.StringIO()), base / "out"


def test_write_phase_holds_one_service_encoding_at_a_time(ring_system):
    system, out = ring_system
    out.mkdir(exist_ok=True)
    assert len(system.comm_edges) == SERVICES * 20
    peak, _ = _peak_above_start(lambda s: runner._write_json_outputs(out, s), system)
    largest = max((out / f"{ir.service_name}.ir.json").stat().st_size for ir in system.services)
    context_map = (out / "context-map.json").stat().st_size
    assert (out / "system.json").stat().st_size > SERVICES * largest // 2
    assert peak <= 3 * (largest + context_map), (peak, largest, context_map)


def test_each_handler_signature_is_its_component_method(ring_system):
    system, _out = ring_system
    for ir in system.services:
        methods = {c.name: c.methods for c in ir.components}
        assert ir.endpoints
        for endpoint in ir.endpoints:
            assert any(endpoint.handler is m for m in methods[endpoint.owner])
