"""Pipeline orchestration: the end-to-end run.

``run`` executes extraction and matching per service, weaves the system
model, analyzes it, and writes every output atomically into the output
directory.  ``load_config`` (from ``microweave.config``) reads the run
configuration it takes.
"""

from __future__ import annotations

import os
import sys
import threading
from collections.abc import Iterable, Iterator
from functools import partial
from pathlib import Path

from microweave.analysis import SEV_ERROR, coupling_metrics, run_checks
from microweave.config import RunConfig, load_config  # load_config: imported from here too
from microweave.errors import MicroweaveError
from microweave.export import export_dot, export_report
from microweave.frontend import SourceTree, extract, source_files
from microweave.ir import IR_FILE_SUFFIX, ServiceIr, build_service_ir, save_service_ir
from microweave.jsonio import atomic_write, record_chunks
from microweave.jsonio import canonical_bytes  # not called here; perfbench/tracer.py hooks it
from microweave.laast import LaastNode, save_laast
from microweave.matchers import MatcherRule, default_ruleset, run_matchers
from microweave.similarity import load_taxonomy_file
from microweave.topology import load_compose_file, merge_topologies
from microweave.weave import SYSTEM_JSON, SystemIr, save_context_map, system_to_json_obj, weave

OUTPUT_FORMATS = ("dot", "json", "text")


# Building the services in forked processes has a fixed cost: in-process
# ``build_system`` on the 9 KB test fixture takes 17 ms serial and 28 ms
# forked, so about 11 ms.  Extraction runs at about 0.8 MB/s per CPU, so a
# second CPU that ran at full speed would repay that from about 18 KB; but
# two concurrent extractions on the 2-vCPU VM measured run 1.2-2x slower
# each, and on the first k services of the ``wide`` benchmark input forking
# won 5 of 11 alternating runs at 98 KB and 11 of 11 at 143 KB.  Below this
# total of matched source bytes the services are built in this process.
FORK_MIN_SOURCE_BYTES = 128 * 1024


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _process_count(files: list[list[Path]]) -> int:
    """How many processes build the services, given each one's source
    files: one, unless forking is safe here and the source is large enough
    to repay it."""
    processes = min(_usable_cpus(), len(files))
    # Forking a threaded process can deadlock (Python 3.12 warns about it).
    if not hasattr(os, "fork") or threading.active_count() != 1 or processes < 2:
        return 1
    source_bytes = sum(path.stat().st_size for paths in files for path in paths)
    return processes if source_bytes >= FORK_MIN_SOURCE_BYTES else 1


def _build_service(job: tuple[SourceTree, list[Path]], ruleset: list[MatcherRule] | None,
                   on_service) -> tuple[str, ServiceIr]:
    """Extract, match and lift one service from its tree and source files:
    its progress line and its IR."""
    tree, files = job
    root, report = extract(tree, files=files)
    name = tree.service_name
    ruleset = ruleset if ruleset is not None else default_ruleset(tree.convention)
    output = run_matchers(root, ruleset, name, convention=tree.convention)
    ir = build_service_ir(output, report, name)
    if on_service is not None:
        on_service(name, root, ir)
    return (f"{name}: {report.files_scanned} file(s) scanned, "
            f"{len(report.warnings)} extraction warning(s)"), ir


def _share(fn, jobs: list, first: int, step: int) -> Iterator[tuple[int, object]]:
    """``(index, fn(job))`` for jobs ``first``, ``first + step``, ..., ending
    with ``(index, error)`` at the first that raises."""
    for index in range(first, len(jobs), step):
        try:
            result = fn(jobs[index])
        except Exception as exc:
            yield index, exc
            return
        yield index, result
        del result  # not held while the next job runs


def _portable(error: Exception) -> Exception:
    """``error``, or where it does not come back whole from a pickle round
    trip, an error that prints the line the command-line tool would."""
    import pickle

    try:
        back = pickle.loads(pickle.dumps(error))
        if type(back) is type(error) and str(back) == str(error):
            return error
    except Exception:  # an error's own pickling code may raise anything
        pass
    detail = " ".join(str(error).splitlines())
    return MicroweaveError(f"internal error: {type(error).__name__}: {detail}")


def _received(pipe) -> Iterator[tuple[int, object]]:
    """The ``(index, outcome)`` pairs a worker sent, up to where it ended."""
    import pickle

    try:
        while True:
            yield pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):  # all read, or it died while sending
        return


def fork_map(fn, jobs: list, processes: int, name) -> tuple[list, Exception | None]:
    """``fn(job)`` for each of ``jobs`` in ``processes`` processes, this one
    among them: it takes jobs 0, n, 2n, ... and each forked child one other
    stride, which it runs whole, keeping each outcome pickled, before it
    sends any, so it never waits on this process.  Returns, once every child
    is reaped, the results of the jobs before the first that failed, in
    order, and that failure (None if every job ran).  ``name(job)`` names
    the jobs of a child that ended without sending them."""
    children = []  # pid and the read end of its pipe, in stride order
    outcomes: dict[int, object] = {}
    codes: list[int] = []  # exit code of each child reaped so far
    try:
        for first in range(1, processes):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:  # the child; it leaves through ``os._exit``
                status = 1
                try:
                    import pickle

                    os.close(read_fd)
                    for _pid, pipe in children:
                        pipe.close()
                    blobs = []
                    for index, outcome in _share(fn, jobs, first, processes):
                        if isinstance(outcome, Exception):
                            outcome = _portable(outcome)
                        blobs.append(pickle.dumps((index, outcome), pickle.HIGHEST_PROTOCOL))
                        del outcome  # not held while the next job runs
                    with open(write_fd, "wb") as pipe:
                        pipe.writelines(blobs)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        outcomes.update(_share(fn, jobs, 0, processes))
        for pid, pipe in children:
            outcomes.update(_received(pipe))
            pipe.close()
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    finally:
        for pid, pipe in children[len(codes):]:  # only after a fault here
            pipe.close()
            os.waitpid(pid, 0)
    results = []
    for index in range(len(jobs)):
        if index not in outcomes:  # never one of this process's own jobs
            code = codes[index % processes - 1]
            reason = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            lost = ", ".join(repr(name(job)) for job in jobs[index::processes])
            return results, MicroweaveError(
                f"a worker process ended ({reason}) without sending the results of "
                f"services {lost}")
        outcome = outcomes.pop(index)
        if isinstance(outcome, Exception):
            return results, outcome
        results.append(outcome)
    return results, None


def _progress(log, message: str) -> None:
    """Print one progress line to ``log``, or to stderr when it is None."""
    print(f"[analyze] {message}", file=log if log is not None else sys.stderr)


def build_system(config: RunConfig, log=None, on_service=None) -> SystemIr:
    """Extract, match, and weave per ``config``; no files are written.

    ``on_service(name, tree, ir)``, when given, receives each service's
    syntax tree and IR once that service is built, in the process that
    built it; the tree is dropped on its return.  The services are built
    through ``fork_map``, in as many processes as ``_process_count``
    allows; their progress lines follow once every service is built."""
    _progress(log, f"extracting {len(config.services)} service(s)")
    jobs = [(tree, source_files(tree)) for tree in config.services]
    build = partial(_build_service, ruleset=config.ruleset, on_service=on_service)
    results, failure = fork_map(build, jobs, _process_count([files for _tree, files in jobs]),
                                name=lambda job: job[0].service_name)
    irs = []
    for line, ir in results:
        _progress(log, line)
        irs.append(ir)
    if failure is not None:
        raise failure

    taxonomy = None
    if config.taxonomy_path is not None:
        taxonomy = load_taxonomy_file(config.taxonomy_path)
    topology = None
    if config.compose_paths:
        topology = merge_topologies(
            [load_compose_file(p) for p in config.compose_paths]
        )

    _progress(log, "weaving system model")
    return weave(irs, taxonomy=taxonomy, topology=topology, config=config.weave)


def system_json_parts(system: SystemIr, ir_documents: Iterable,
                      context_map: bytes) -> list:
    """Canonical ``system.json`` as parts whose concatenation is the
    document, drawn one record at a time (see ``system_to_json_obj``)."""
    return [record_chunks(SYSTEM_JSON, system_to_json_obj(system, ir_documents, context_map))]


def _file_chunks(path: Path) -> Iterator[bytes]:
    with path.open("rb") as handle:
        yield from iter(partial(handle.read, 1 << 16), b"")


def _write_json_outputs(out: Path, system: SystemIr) -> None:
    """Write ``system.json`` and ``context-map.json``, encoding each document
    once.  The ``.ir.json`` files, written as each service finished, are
    read back into ``system.json`` one chunk at a time."""
    ir_paths = [out / f"{ir.service_name}{IR_FILE_SUFFIX}" for ir in system.services]
    context_map = save_context_map(system.context_map)
    atomic_write(out / "system.json",
                 system_json_parts(system, map(_file_chunks, ir_paths), context_map))
    atomic_write(out / "context-map.json", context_map)


def run(config: RunConfig, formats: set[str] | None = None, log=None) -> int:
    """Execute the pipeline and return the exit status: 0 no findings,
    1 findings without errors, 2 errors present (3, tool failure, is
    raised as an exception and mapped by the command-line wrapper)."""
    formats = set(OUTPUT_FORMATS) if formats is None else formats
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)

    def write_service(name: str, tree: LaastNode, ir: ServiceIr) -> None:
        atomic_write(out / f"{name}.laast.json", save_laast(tree))
        atomic_write(out / f"{name}{IR_FILE_SUFFIX}", save_service_ir(ir))

    system = build_system(config, log=log,
                          on_service=write_service if "json" in formats else None)
    findings = run_checks(system, config.checks)
    metrics = coupling_metrics(system)
    _progress(log, f"analysis: {len(findings)} finding(s)")

    if "json" in formats:
        _write_json_outputs(out, system)
        atomic_write(out / "report.json", export_report(findings, metrics, "json"))
    if "dot" in formats:
        for view in ("services", "context", "full"):
            atomic_write(
                out / f"graph-{view}.dot", export_dot(system, view).encode("utf-8")
            )
    if "text" in formats:
        atomic_write(out / "report.txt", export_report(findings, metrics, "text"))
    _progress(log, f"outputs written to {out}")

    if any(f.severity == SEV_ERROR for f in findings):
        return 2
    if findings:
        return 1
    return 0
