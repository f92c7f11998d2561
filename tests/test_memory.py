"""Memory bounds of the serializers: each output is encoded one record at a
time into one growing buffer, so encoding holds little beyond the result."""

from __future__ import annotations

import tracemalloc

import pytest

from microweave.frontend import SourceTree, extract
from microweave.ir import build_service_ir, save_service_ir
from microweave.laast import save_laast
from microweave.matchers import default_ruleset, run_matchers

HANDLERS = 800


def _controller(handlers: int) -> str:
    """One Spring controller with ``handlers`` GET handlers, every tenth
    calling out."""
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
            lines.append(f'        return restTemplate.getForObject("http://other/api/x{i}/" + id, '
                         "String.class);")
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
