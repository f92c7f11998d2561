from __future__ import annotations

import json
import subprocess
import sys
import threading
import time

import generate
import tracer
from conftest import PERFBENCH, SRC

# Runs the tracer after deleting a hook point, as a refactor that renames
# the function would; passthrough parsing is the only caller of
# ``frontend.load_laast`` and a Java-only input never reaches it.
_LAUNCHER = """
import runpy, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import microweave.frontend
del microweave.frontend.load_laast
sys.argv = ["tracer.py", *sys.argv[1:]]
runpy.run_path({tracer!r}, run_name="__main__")
"""


def test_traced_run_survives_a_missing_hook_point(tmp_path):
    generate.generate(generate.SMALL_WORKLOADS["wide"], 2, tmp_path / "in")
    launcher = tmp_path / "launcher.py"
    launcher.write_text(_LAUNCHER.format(src=str(SRC), perfbench=str(PERFBENCH),
                                     tracer=str(PERFBENCH / "tracer.py")))
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(launcher), str(spans), "--",
         "--config", str(tmp_path / "in" / "config.json"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr  # the workload plants dangling calls
    assert "Traceback" not in proc.stderr
    document = json.loads(spans.read_text())
    assert document["missing"] == ["microweave.frontend.load_laast"]
    assert "laast.load_laast_s" not in document["metrics"]
    assert document["metrics"]["weave.weave_s"] > 0
    assert document["metrics"]["frontend.files"] == 2 * 8 * 2
    assert (tmp_path / "out" / "report.json").is_file()


def test_hook_records_what_it_cannot_find():
    t = tracer.Tracer()
    t.hook("microweave.no_such_module", "f", "x.f")
    t.hook("tracer", "no_such_function", "x.g")
    assert t.missing == ["microweave.no_such_module.f", "tracer.no_such_function"]


def test_failing_count_is_reported_not_raised():
    t = tracer.Tracer()
    traced = t.wrap_span("x.f", lambda: None, after=lambda a, k, result: result.entities)
    assert traced() is None
    assert len(t.missing) == 1 and t.missing[0].startswith("x.f counts")


def test_self_time_and_worker_threads_nest_under_the_caller():
    t = tracer.Tracer()
    child = t.wrap_span("child", lambda: time.sleep(0.02))

    def parent():
        workers = [threading.Thread(target=child) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in workers)
        time.sleep(0.02)

    t.wrap_span("parent", parent)()
    summary = t.summary()
    assert summary["child"]["calls"] == 2
    parent_ids = {s[0] for s in t.spans if s[1] == "parent"}
    assert {s[4] for s in t.spans if s[1] == "child"} == parent_ids
    # The two children overlap, so they cover about 0.02 s of the parent once.
    assert summary["parent"]["self_s"] >= 0.015
    assert summary["parent"]["self_s"] < summary["parent"]["total_s"] - 0.015
