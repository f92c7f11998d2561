"""Traced analyzer run: ``python3 perfbench/tracer.py SPANS.json -- ARGS...``.

Imports ``microweave.cli`` in this fresh process, wraps the module-level
functions that each layer's callers resolve at call time (for example
``microweave.runner.extract``, which the extraction pool calls), runs
``microweave.cli.main(ARGS)`` and writes the spans, counts and the derived
per-layer metrics to SPANS.json, also when the run fails.  It exits with
the analyzer's status.

Hook points are looked up by name.  One that no longer exists, or whose
result no longer has the shape a count reads, is listed under
``"missing"`` and its metrics are left out; the run itself goes on.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Spans and counts kept in memory.  A span records its name, start,
    end, parent and thread; each thread keeps its own stack, and a span
    opened on an empty worker-thread stack takes the main thread's open
    span as its parent, so pool work nests under the call that started it.
    """

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.get_ident() == self._main
            stack = self._local.stack = self._main_stack if is_main else []
        return stack

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap_span(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(args, kwargs, result)``
        records counts once the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, threading.get_ident()))
            if after is not None:
                try:
                    after(args, kwargs, result)
                except Exception as exc:  # a refactored result shape must not stop the run
                    self.note_missing(f"{name} counts ({type(exc).__name__}: {exc})")
            return result

        return traced

    def wrap_count(self, name: str, fn):
        """``fn`` counted, not timed, for functions called too often for spans."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return counted

    def note_missing(self, what: str) -> None:
        with self._lock:
            if what not in self.missing:
                self.missing.append(what)

    def hook(self, module: str, attr: str, name: str, after=None, count_only=False) -> None:
        try:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
        except (ImportError, AttributeError):
            self.note_missing(f"{module}.{attr}")
            return
        wrapped = self.wrap_count(name, fn) if count_only else self.wrap_span(name, fn, after)
        setattr(mod, attr, wrapped)

    def hook_checks(self) -> None:
        try:
            analysis = importlib.import_module("microweave.analysis")
            checks = analysis._CHECKS
        except (ImportError, AttributeError):
            self.note_missing("microweave.analysis._CHECKS")
            return
        analysis._CHECKS = tuple(
            self.wrap_span(f"analysis.check.{fn.__name__.lstrip('_').removeprefix('check_')}", fn)
            for fn in checks
        )

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total time, and self time (duration minus
        the part of it that child spans cover, counting overlap once)."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _sid, _name, start, end, parent, _thread in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, dict] = {}
        for sid, name, start, end, _parent, _thread in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "first_start": start, "last_end": end})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
            row["first_start"] = min(row["first_start"], start)
            row["last_end"] = max(row["last_end"], end)
        return out


def _source_bytes(tree) -> int:
    root = Path(tree.root_dir)
    files = {p for pattern in tree.include_globs for p in root.glob(pattern) if p.is_file()}
    return sum(p.stat().st_size for p in files)


def install(tracer: Tracer) -> None:
    """Wrap every hook point, keyed by the module its caller resolves it in."""
    add = tracer.add

    def after_extract(args, _kwargs, result):
        _root, report = result
        add("frontend.files", report.files_scanned)
        add("frontend.nodes", report.nodes_emitted)
        add("frontend.source_bytes", _source_bytes(args[0]))

    def after_matchers(_args, _kwargs, output):
        add("matchers.endpoints", len(output.endpoints))
        add("matchers.remote_calls", len(output.remote_calls))

    def after_context_map(args, _kwargs, context_map):
        sizes = [len(model.entities) for model in args[0]]
        total = sum(sizes)
        add("weave.entity_pairs", (total * total - sum(s * s for s in sizes)) // 2)
        add("weave.entity_matches", len(context_map.matches))

    def after_call_match(_args, _kwargs, edges):
        if edges:
            add("weave.calls_matched")

    def after_weave(_args, _kwargs, system):
        add("weave.comm_edges", len(system.comm_edges))

    def after_checks(_args, _kwargs, findings):
        add("analysis.findings", len(findings))
        add("analysis.s01_findings", sum(1 for f in findings if f.rule_id == "S01"))

    def after_write(args, kwargs, _result):
        add("jsonio.bytes_written", len(args[1] if len(args) > 1 else kwargs["data"]))

    hooks = [
        ("microweave.cli", "load_config", "runner.load_config", None),
        ("microweave.cli", "run", "runner.run", None),
        ("microweave.runner", "build_system", "runner.build_system", None),
        ("microweave.runner", "extract", "frontend.extract", after_extract),
        ("microweave.frontend", "load_laast", "laast.load_laast", None),
        ("microweave.runner", "save_laast", "laast.save_laast", None),
        ("microweave.runner", "run_matchers", "matchers.run_matchers", after_matchers),
        ("microweave.runner", "build_service_ir", "ir.build_service_ir", None),
        ("microweave.runner", "save_service_ir", "ir.save_service_ir", None),
        ("microweave.runner", "load_compose_file", "topology.load_compose", None),
        ("microweave.runner", "weave", "weave.weave", after_weave),
        ("microweave.weave", "build_inventory", "topology.build_inventory", None),
        ("microweave.weave", "build_context_map", "weave.build_context_map", after_context_map),
        ("microweave.weave", "match_fields", "weave.match_fields", None),
        ("microweave.weave", "match_call_to_endpoints", "weave.match_call_to_endpoints",
         after_call_match),
        ("microweave.runner", "system_to_json_obj", "weave.system_to_json_obj", None),
        ("microweave.runner", "run_checks", "analysis.run_checks", after_checks),
        ("microweave.analysis", "detect_cycles", "analysis.detect_cycles", None),
        ("microweave.runner", "coupling_metrics", "analysis.coupling_metrics", None),
        ("microweave.runner", "export_report", "export.export_report", None),
        ("microweave.runner", "export_dot", "export.export_dot", None),
        ("microweave.runner", "atomic_write", "jsonio.atomic_write", after_write),
    ]
    for module, attr, name, after in hooks:
        tracer.hook(module, attr, name, after)
    for module in ("microweave.runner", "microweave.export", "microweave.ir"):
        tracer.hook(module, "canonical_bytes", "jsonio.canonical_bytes")
    tracer.hook("microweave.weave", "entity_similarity", "similarity.entity_similarity_calls",
                count_only=True)
    tracer.hook("microweave.similarity", "normalize_entity_name", "similarity.normalize_calls",
                count_only=True)
    tracer.hook_checks()


def layer_metrics(summary: dict[str, dict], counts: dict[str, float], import_s: float) -> dict:
    """Metric name -> value: each span's total time as ``<span>_s``, each
    count, and the ratios derived from them.  A span that never ran (a hook
    that is missing, or a layer this input does not reach) gives no metric
    rather than 0."""
    metrics = {"cli.import_s": import_s}
    metrics.update({name + "_s": row["total_s"] for name, row in summary.items()})
    metrics.update(counts)
    run = summary.get("runner.run")
    if run and run["total_s"] > 0:
        metrics["runner.run_uncovered_share"] = run["self_s"] / run["total_s"]
    extract = summary.get("frontend.extract")
    if extract:
        metrics["frontend.extract_busy_s"] = extract["total_s"]
        metrics["frontend.extract_wall_s"] = extract["last_end"] - extract["first_start"]
        if "frontend.source_bytes" in counts and extract["total_s"] > 0:
            metrics["frontend.kb_per_busy_s"] = (
                counts["frontend.source_bytes"] / 1024 / extract["total_s"])
    pairs = counts.get("weave.entity_pairs")
    if pairs and "weave.entity_matches" in counts:
        metrics["weave.entity_match_ratio"] = counts["weave.entity_matches"] / pairs
    calls = counts.get("matchers.remote_calls")
    if calls and "weave.match_call_to_endpoints" in summary:
        metrics["weave.call_match_ratio"] = counts.get("weave.calls_matched", 0) / calls
    return metrics


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- ANALYZE-ARGS...", file=sys.stderr)
        return 3
    out_path, cli_args = Path(argv[0]), argv[2:]
    start = time.perf_counter()
    import microweave.cli  # timed: the import every invocation pays

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    status = 3
    try:
        status = microweave.cli.main(cli_args)
    finally:
        summary = tracer.summary()
        document = {
            "status": status,
            "missing": tracer.missing,
            "metrics": layer_metrics(summary, tracer.counts, import_s),
            "summary": summary,
            "counts": dict(tracer.counts),
            "spans": [{"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4],
                       "thread": s[5]} for s in tracer.spans],
        }
        out_path.write_text(json.dumps(document, indent=1), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
