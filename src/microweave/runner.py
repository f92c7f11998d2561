"""Pipeline orchestration: configuration loading and the end-to-end run.

The run configuration is a UTF-8 JSON file.  Relative paths resolve
against the config file's directory.  ``run`` executes extraction and
matching per service, weaves the system model, analyzes it, and writes
every output atomically into the output directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from microweave.analysis import (
    CheckSettings,
    RULE_IDS,
    SEV_ERROR,
    SEV_INFO,
    SEV_WARNING,
    coupling_metrics,
    run_checks,
)
from microweave.errors import ConfigError, MicroweaveError
from microweave.export import export_dot, export_report
from microweave.frontend import (
    CONVENTIONS,
    DEFAULT_INCLUDE_GLOBS,
    LAAST_PASSTHROUGH,
    PASSTHROUGH_INCLUDE_GLOBS,
    SPRING_LIKE,
    SourceTree,
    extract,
    source_files,
)
from microweave.ir import IR_FILE_SUFFIX, ServiceIr, build_service_ir, save_service_ir
from microweave.jsonio import array_chunks, atomic_write, canonical_bytes
from microweave.laast import LONE_SURROGATE, LaastNode, save_laast
from microweave.matchers import MatcherRule, default_ruleset, run_matchers, validate_ruleset
from microweave.similarity import load_taxonomy_file
from microweave.topology import load_compose_file, merge_topologies
from microweave.weave import (
    DEFAULT_ENTITY_THRESHOLD,
    DEFAULT_FIELD_THRESHOLD,
    DEFAULT_PATH_THRESHOLD,
    SystemIr,
    WeaveConfig,
    comm_edge_to_json_obj,
    save_context_map,
    system_to_json_obj,
    weave,
)

OUTPUT_FORMATS = ("dot", "json", "text")
_SEVERITY_VALUES = (SEV_ERROR, SEV_WARNING, SEV_INFO)


@dataclass
class RunConfig:
    services: list[SourceTree]
    taxonomy_path: Path | None = None
    compose_paths: list[Path] = field(default_factory=list)
    weave: WeaveConfig = WeaveConfig()
    ruleset: list[MatcherRule] | None = None
    checks: CheckSettings = field(default_factory=CheckSettings)
    output_dir: Path = Path("out")


_CONFIG_KEYS = (
    "services", "root", "taxonomy_path", "compose_paths", "thresholds", "ruleset", "checks",
    "output_dir",
)
_SERVICE_KEYS = ("name", "root_dir", "include_globs", "convention")
_THRESHOLD_KEYS = ("tau", "tau_f", "theta")
_CHECK_KEYS = ("disable", "severity")
_RULE_KEYS = ("role", "annotations", "suffixes", "priority")


def _require_type(value, types, field_name: str, what: str):
    if not isinstance(value, types):
        raise ConfigError(f"{field_name} must be {what}", field=field_name)
    return value


def _reject_unknown_keys(raw: dict, known: tuple[str, ...], prefix: str) -> None:
    """``prefix`` is the enclosing field with its trailing dot, or empty."""
    for key in raw:
        if key not in known:
            raise ConfigError(f"{prefix}{key}: unknown field", field=f"{prefix}{key}")


def _config_path(base: Path, raw: str, field_name: str) -> Path:
    """``raw`` as written when absolute, else resolved against ``base``."""
    if "\0" in raw:
        raise ConfigError(f"{field_name} must not contain a NUL byte", field=field_name)
    return Path(raw) if Path(raw).is_absolute() else (base / raw).resolve()


# A service name becomes an output file name, so it must stay one path component.
_NAME_RULE = "must not be '.' or '..' or contain '/', '\\' or a NUL byte"


def _unsafe_name(name: str) -> bool:
    return name in (".", "..") or any(c in name for c in "/\\\0")

def _discover_services(root: Path) -> list[dict]:
    """Auto discovery: each immediate subdirectory containing at least one
    source file becomes one service named after the directory."""
    specs = []
    if not root.is_dir():
        raise ConfigError(f"services auto-discovery root {root} is not a directory",
                          field="services")
    for child in sorted(root.iterdir()):
        if not child.is_dir() or child.name.startswith("."):
            continue
        patterns = DEFAULT_INCLUDE_GLOBS + PASSTHROUGH_INCLUDE_GLOBS
        if any(next(child.glob(pattern), None) is not None for pattern in patterns):
            if _unsafe_name(child.name):
                raise ConfigError(
                    f"services auto-discovery: directory {child.name!r} cannot be a "
                    f"service name, which {_NAME_RULE}",
                    field="services",
                )
            specs.append({"name": child.name, "root_dir": child.name})
    return specs


def _parse_service(entry, index: int, base: Path) -> SourceTree:
    field_name = f"services[{index}]"
    _require_type(entry, dict, field_name, "an object")
    _reject_unknown_keys(entry, _SERVICE_KEYS, f"{field_name}.")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{field_name}.name must be a non-empty string",
                          field=f"{field_name}.name")
    if _unsafe_name(name):
        raise ConfigError(f"{field_name}.name {_NAME_RULE}", field=f"{field_name}.name")
    root_raw = entry.get("root_dir")
    if not isinstance(root_raw, str) or not root_raw:
        raise ConfigError(f"{field_name}.root_dir must be a non-empty string",
                          field=f"{field_name}.root_dir")
    globs = entry.get("include_globs", list(DEFAULT_INCLUDE_GLOBS))
    _require_type(globs, list, f"{field_name}.include_globs", "an array of strings")
    for i, g in enumerate(globs):
        if not isinstance(g, str):
            raise ConfigError(f"{field_name}.include_globs[{i}] must be a string",
                              field=f"{field_name}.include_globs")
        # matched below root_dir, so it must name files there
        if not Path(g).parts or Path(g).is_absolute() or ".." in Path(g).parts:
            raise ConfigError(f"{field_name}.include_globs[{i}] must be a non-empty relative "
                              "pattern with no '..' segment",
                              field=f"{field_name}.include_globs[{i}]")
    convention = entry.get("convention", SPRING_LIKE)
    if convention not in CONVENTIONS:
        raise ConfigError(
            f"{field_name}.convention must be one of {', '.join(CONVENTIONS)}",
            field=f"{field_name}.convention",
        )
    if convention == LAAST_PASSTHROUGH and "include_globs" not in entry:
        globs = list(PASSTHROUGH_INCLUDE_GLOBS)
    return SourceTree(
        service_name=name,
        root_dir=_config_path(base, root_raw, f"{field_name}.root_dir"),
        include_globs=tuple(globs),
        convention=convention,
    )


def _parse_threshold(raw: dict, key: str, default: float) -> float:
    value = raw.get(key, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"thresholds.{key} must be a number", field=f"thresholds.{key}")
    # Compared before float(), which overflows on a huge integer.
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"thresholds.{key} must be within [0, 1]",
                          field=f"thresholds.{key}")
    return float(value)


def _parse_checks(raw) -> tuple[frozenset[str], dict[str, str]]:
    _require_type(raw, dict, "checks", "an object")
    _reject_unknown_keys(raw, _CHECK_KEYS, "checks.")
    disabled = raw.get("disable", [])
    _require_type(disabled, list, "checks.disable", "an array of rule ids")
    for i, rule_id in enumerate(disabled):
        if rule_id not in RULE_IDS:
            raise ConfigError(
                f"checks.disable[{i}]: unknown rule id {rule_id!r}",
                field=f"checks.disable[{i}]",
            )
    overrides = raw.get("severity", {})
    _require_type(overrides, dict, "checks.severity", "an object")
    for rule_id, severity in overrides.items():
        if rule_id not in RULE_IDS:
            raise ConfigError(
                f"checks.severity: unknown rule id {rule_id!r}",
                field=f"checks.severity.{rule_id}",
            )
        if severity not in _SEVERITY_VALUES:
            raise ConfigError(
                f"checks.severity.{rule_id} must be one of "
                + ", ".join(_SEVERITY_VALUES),
                field=f"checks.severity.{rule_id}",
            )
    return frozenset(disabled), dict(overrides)


def _string_array(value, field_name: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{field_name} must be an array of strings", field=field_name)
    return tuple(value)


def _parse_ruleset(raw) -> list[MatcherRule]:
    _require_type(raw, list, "ruleset", "an array of rule objects")
    rules = []
    for i, entry in enumerate(raw):
        field_name = f"ruleset[{i}]"
        _require_type(entry, dict, field_name, "an object")
        _reject_unknown_keys(entry, _RULE_KEYS, f"{field_name}.")
        role = _require_type(entry.get("role", ""), str, f"{field_name}.role", "a string")
        priority = entry.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ConfigError(f"{field_name}.priority must be an integer",
                              field=f"{field_name}.priority")
        rules.append(
            MatcherRule(
                component_role=role,
                annotation_names=_string_array(
                    entry.get("annotations", []), f"{field_name}.annotations"
                ),
                name_suffixes=_string_array(entry.get("suffixes", []), f"{field_name}.suffixes"),
                priority=priority,
            )
        )
    try:
        validate_ruleset(rules)
    except MicroweaveError as exc:
        raise ConfigError(f"ruleset: {exc}", field="ruleset") from None
    return rules


# A \uD800-\uDFFF escape outside a pair decodes to a lone surrogate, which
# no UTF-8 encode accepts: not the config digest, a path or a file name.
def _reject_lone_surrogates(raw: dict) -> None:
    pending: list[tuple[str, object]] = [("", raw)]
    while pending:
        field_name, value = pending.pop()
        if isinstance(value, str):
            if LONE_SURROGATE.search(value):
                raise ConfigError(f"{field_name} holds a lone surrogate", field=field_name)
        elif isinstance(value, dict):
            for key, item in value.items():
                name = key.encode("utf-8", "backslashreplace").decode("utf-8")
                name = f"{field_name}.{name}" if field_name else name
                pending += [(name, key), (name, item)]
        elif isinstance(value, list):
            pending += [(f"{field_name}[{i}]", item) for i, item in enumerate(value)]


def config_digest(raw: dict, services_filter: list[str] | None) -> str:
    """Stable digest over the normalized config document plus the service
    filter; paths stay as written so the digest is machine-independent."""
    normal = dict(raw)
    services = normal.get("services")
    if isinstance(services, list):
        normal["services"] = sorted(
            services, key=lambda s: s.get("name", "") if isinstance(s, dict) else ""
        )
    payload = {"config": normal, "filter": sorted(services_filter or [])}
    encoded = json.dumps(payload, sort_keys=True, ensure_ascii=False,
                         separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def load_config(
    path: str | Path,
    services_filter: list[str] | None = None,
    output_override: str | Path | None = None,
) -> RunConfig:
    """Load and validate a run configuration.

    With a service filter, only the selected services are validated (and
    later read); the filter itself must name configured services.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}", field="config") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}", field="config") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}", field="config") from None
    except RecursionError:
        raise ConfigError("config file nests too deeply to parse", field="config") from None
    except ValueError:
        # json.loads raises a bare ValueError only for an integer beyond the
        # interpreter's int-digit limit.
        raise ConfigError("config file holds an integer with too many digits",
                          field="config") from None
    _require_type(raw, dict, "config", "a JSON object")
    _reject_lone_surrogates(raw)
    _reject_unknown_keys(raw, _CONFIG_KEYS, "")
    base = path.parent.resolve()

    raw_services = raw.get("services", "auto")
    if raw_services == "auto":
        root_raw = raw.get("root", ".")
        _require_type(root_raw, str, "root", "a string")
        entries = _discover_services(_config_path(base, root_raw, "root"))
    else:
        _require_type(raw_services, list, "services", "an array or \"auto\"")
        entries = raw_services

    trees = [_parse_service(entry, i, base) for i, entry in enumerate(entries)]
    names = [tree.service_name for tree in trees]
    if len(set(names)) != len(names):
        dupe = sorted({n for n in names if names.count(n) > 1})[0]
        raise ConfigError(f"services: duplicate service name {dupe!r}", field="services")
    folded: dict[str, str] = {}
    for name in names:
        other = folded.setdefault(name.casefold(), name)
        if other != name:
            raise ConfigError(
                f"services: names {other!r} and {name!r} differ only in case, so their "
                "output files would collide on a case-insensitive file system",
                field="services",
            )

    if services_filter:
        unknown = sorted(set(services_filter) - set(names))
        if unknown:
            raise ConfigError(
                f"--services names unknown service {unknown[0]!r}", field="--services"
            )
        trees = [tree for tree in trees if tree.service_name in set(services_filter)]

    for tree in trees:
        if not tree.root_dir.is_dir():
            index = names.index(tree.service_name)
            raise ConfigError(
                f"services[{index}].root_dir: {tree.root_dir} is not a directory",
                field=f"services[{index}].root_dir",
            )

    taxonomy_path = None
    if raw.get("taxonomy_path") is not None:
        tp = _require_type(raw["taxonomy_path"], str, "taxonomy_path", "a string")
        taxonomy_path = _config_path(base, tp, "taxonomy_path")
        if not taxonomy_path.is_file():
            raise ConfigError(f"taxonomy_path: {taxonomy_path} is not a file",
                              field="taxonomy_path")

    compose_paths = []
    raw_compose = raw.get("compose_paths", [])
    _require_type(raw_compose, list, "compose_paths", "an array of paths")
    for i, cp in enumerate(raw_compose):
        if not isinstance(cp, str):
            raise ConfigError(f"compose_paths[{i}] must be a string",
                              field=f"compose_paths[{i}]")
        resolved = _config_path(base, cp, f"compose_paths[{i}]")
        if not resolved.is_file():
            raise ConfigError(f"compose_paths[{i}]: {resolved} is not a file",
                              field=f"compose_paths[{i}]")
        compose_paths.append(resolved)

    thresholds = raw.get("thresholds", {})
    _require_type(thresholds, dict, "thresholds", "an object")
    _reject_unknown_keys(thresholds, _THRESHOLD_KEYS, "thresholds.")

    disabled, overrides = _parse_checks(raw.get("checks", {}))
    ruleset = _parse_ruleset(raw["ruleset"]) if raw.get("ruleset") is not None else None

    if output_override is not None:
        output_dir = Path(output_override)
        if not output_dir.is_absolute():
            output_dir = Path.cwd() / output_dir
    else:
        out_raw = raw.get("output_dir", "out")
        _require_type(out_raw, str, "output_dir", "a string")
        output_dir = _config_path(base, out_raw, "output_dir")

    return RunConfig(
        services=trees,
        taxonomy_path=taxonomy_path,
        compose_paths=compose_paths,
        weave=WeaveConfig(
            entity_threshold=_parse_threshold(thresholds, "tau", DEFAULT_ENTITY_THRESHOLD),
            field_threshold=_parse_threshold(thresholds, "tau_f", DEFAULT_FIELD_THRESHOLD),
            path_threshold=_parse_threshold(thresholds, "theta", DEFAULT_PATH_THRESHOLD),
            config_digest=config_digest(raw, services_filter),
        ),
        ruleset=ruleset,
        checks=CheckSettings(disabled_rules=disabled, severity_overrides=overrides),
        output_dir=output_dir,
    )


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


def _build_service(tree: SourceTree, files: list[Path], ruleset: list[MatcherRule] | None,
                   on_service) -> tuple[str, ServiceIr]:
    """Extract, match and lift one service: its progress line and its IR."""
    root, report = extract(tree, files=files)
    name = tree.service_name
    ruleset = ruleset if ruleset is not None else default_ruleset(tree.convention)
    output = run_matchers(root, ruleset, name, convention=tree.convention)
    ir = build_service_ir(output, report, name)
    if on_service is not None:
        on_service(name, root, ir)
    return (f"{name}: {report.files_scanned} file(s) scanned, "
            f"{len(report.warnings)} extraction warning(s)"), ir


def _share(jobs: list, first: int, step: int) -> Iterator[tuple[int, object]]:
    """``(index, result)`` for services ``first``, ``first + step``, ...,
    ending with ``(index, error)`` at the first that raises."""
    for index in range(first, len(jobs), step):
        try:
            result = _build_service(*jobs[index])
        except Exception as exc:
            yield index, exc
            return
        yield index, result
        del result  # not held while the next service is built


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


def _serve_share(jobs: list, first: int, step: int, pipe_fd: int) -> None:
    """Body of a forked worker: build its share, keeping each result
    pickled, and only then send them all, so it never waits on the parent
    while the parent builds its own share.  Leaves through ``os._exit``."""
    import pickle

    status = 1
    try:
        blobs = []
        for index, outcome in _share(jobs, first, step):
            if isinstance(outcome, Exception):
                outcome = _portable(outcome)
            blobs.append(pickle.dumps((index, outcome), pickle.HIGHEST_PROTOCOL))
            del outcome  # not held while the next service is built
        with open(pipe_fd, "wb") as pipe:
            pipe.writelines(blobs)
        status = 0
    finally:
        os._exit(status)


def _received(pipe, outcomes: dict) -> None:
    """Add the ``(index, outcome)`` pairs a worker sent to ``outcomes``."""
    import pickle

    try:
        while pipe.peek(1):
            index, outcome = pickle.load(pipe)
            outcomes[index] = outcome
    except (EOFError, pickle.UnpicklingError):  # it died while sending
        pass


def _exit_reason(wait_status: int) -> str:
    code = os.waitstatus_to_exitcode(wait_status)
    return f"killed by signal {-code}" if code < 0 else f"exit status {code}"


def _build_in_processes(jobs: list, processes: int) -> tuple[list, Exception | None]:
    """Build the services of ``jobs`` in ``processes`` processes, this one
    among them: it takes services 0, n, 2n, ... and each forked child one
    other stride.  Returns, once every child is reaped, the results of the
    services before the first that failed, in order, and that failure (None
    if every service was built)."""
    children = []  # pid and the read end of its pipe, in stride order
    outcomes: dict[int, object] = {}
    statuses: list[int] = []  # wait status of each child reaped so far
    try:
        for first in range(1, processes):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                for _pid, pipe in children:
                    pipe.close()
                _serve_share(jobs, first, processes, write_fd)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        outcomes.update(_share(jobs, 0, processes))
        for pid, pipe in children:
            _received(pipe, outcomes)
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    finally:
        for pid, pipe in children[len(statuses):]:  # only after a fault here
            pipe.close()
            os.waitpid(pid, 0)
    results = []
    for index in range(len(jobs)):
        if index not in outcomes:
            lost = ", ".join(repr(jobs[i][0].service_name)
                             for i in range(index, len(jobs), processes))
            reason = _exit_reason(statuses[index % processes - 1])
            return results, MicroweaveError(
                f"a worker process ended ({reason}) without sending the results of "
                f"services {lost}")
        outcome = outcomes.pop(index)
        if isinstance(outcome, Exception):
            return results, outcome
        results.append(outcome)
    return results, None


def build_system(config: RunConfig, log=None, on_service=None) -> SystemIr:
    """Extract, match, and weave per ``config``; no files are written.

    ``on_service(name, tree, ir)``, when given, receives each service's
    syntax tree and IR once that service is built, in the process that
    built it; the tree is dropped on its return.  Services are built in
    forked processes where ``_process_count`` allows, with the same result
    and progress lines as one after another."""
    log = log if log is not None else sys.stderr

    def progress(message: str):
        print(f"[analyze] {message}", file=log)

    progress(f"extracting {len(config.services)} service(s)")
    files = [source_files(tree) for tree in config.services]
    jobs = [(tree, paths, config.ruleset, on_service)
            for tree, paths in zip(config.services, files)]
    processes = _process_count(files)
    if processes > 1:
        results, failure = _build_in_processes(jobs, processes)
    else:
        results, failure = (_build_service(*job) for job in jobs), None
    irs = []
    for line, ir in results:
        progress(line)
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

    progress("weaving system model")
    return weave(irs, taxonomy=taxonomy, topology=topology, config=config.weave)


def system_json_parts(system: SystemIr, ir_documents: Iterable,
                      context_map: bytes) -> list:
    """Canonical ``system.json`` as parts whose concatenation is the
    document, each ``bytes`` or a generator of chunks.  Its ``services``
    array is the services' ``.ir.json`` documents (``ir_documents``, in
    ``system.services`` order, each ``bytes`` or a generator of chunks) and
    its ``context_map`` member is the ``context-map.json`` bytes, each
    spliced in as it is rather than encoded a second time; the comm edges
    are encoded one at a time as the parts are drawn."""
    rest = canonical_bytes(system_to_json_obj(system))
    return [
        b'{"services":', array_chunks(ir_documents),
        b',"context_map":', context_map,
        b',"comm_edges":', array_chunks(comm_edge_to_json_obj(e) for e in system.comm_edges),
        # ``rest`` opens with the brace of its own object; the slice is a view.
        b",", memoryview(rest)[1:],
    ]


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
    log = log if log is not None else sys.stderr

    def progress(message: str):
        print(f"[analyze] {message}", file=log)

    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)

    def write_service(name: str, tree: LaastNode, ir: ServiceIr) -> None:
        atomic_write(out / f"{name}.laast.json", save_laast(tree))
        atomic_write(out / f"{name}{IR_FILE_SUFFIX}", save_service_ir(ir))

    system = build_system(config, log=log,
                          on_service=write_service if "json" in formats else None)
    findings = run_checks(system, config.checks)
    metrics = coupling_metrics(system)
    progress(f"analysis: {len(findings)} finding(s)")

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
    progress(f"outputs written to {out}")

    if any(f.severity == SEV_ERROR for f in findings):
        return 2
    if findings:
        return 1
    return 0
