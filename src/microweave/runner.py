"""Pipeline orchestration: configuration loading and the end-to-end run.

The run configuration is a UTF-8 JSON file.  Relative paths resolve
against the config file's directory.  ``run`` executes extraction and
matching per service, weaves the system model, analyzes it, and writes
every output atomically into the output directory.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
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
)
from microweave.ir import build_service_ir, save_service_ir
from microweave.jsonio import atomic_write, canonical_bytes
from microweave.laast import save_laast
from microweave.matchers import MatcherRule, default_ruleset, run_matchers, validate_ruleset
from microweave.similarity import load_taxonomy_file
from microweave.topology import load_compose_file, merge_topologies
from microweave.weave import (
    DEFAULT_ENTITY_THRESHOLD,
    DEFAULT_FIELD_THRESHOLD,
    DEFAULT_PATH_THRESHOLD,
    SystemIr,
    WeaveConfig,
    context_map_to_json_obj,
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


def build_system(config: RunConfig, log=None) -> tuple[SystemIr, dict[str, bytes]]:
    """Extract, match, and weave per ``config``; no files are written.

    Returns the woven system plus each service's serialized syntax tree
    (the latter so callers can persist exactly what was analyzed)."""
    log = log if log is not None else sys.stderr

    def progress(message: str):
        print(f"[analyze] {message}", file=log)

    progress(f"extracting {len(config.services)} service(s)")
    irs = []
    laast_blobs = {}
    for tree in config.services:
        root, report = extract(tree)
        name = tree.service_name
        progress(
            f"{name}: {report.files_scanned} file(s) scanned, "
            f"{len(report.warnings)} extraction warning(s)"
        )
        ruleset = config.ruleset if config.ruleset is not None \
            else default_ruleset(tree.convention)
        output = run_matchers(root, ruleset, name, convention=tree.convention)
        irs.append(build_service_ir(output, report, name))
        laast_blobs[name] = save_laast(root)

    taxonomy = None
    if config.taxonomy_path is not None:
        taxonomy = load_taxonomy_file(config.taxonomy_path)
    topology = None
    if config.compose_paths:
        topology = merge_topologies(
            [load_compose_file(p) for p in config.compose_paths]
        )

    progress("weaving system model")
    system = weave(irs, taxonomy=taxonomy, topology=topology, config=config.weave)
    return system, laast_blobs


def system_json_chunks(system: SystemIr, ir_blobs: list[bytes],
                       context_map: bytes) -> list[bytes]:
    """Canonical ``system.json`` as chunks whose concatenation is the
    document.  Its ``services`` array is the services' ``.ir.json`` bytes
    (``ir_blobs``, in ``system.services`` order) and its ``context_map``
    member is the ``context-map.json`` bytes, each spliced in as it is
    rather than encoded a second time."""
    chunks = [b'{"services":[']
    for i, blob in enumerate(ir_blobs):
        chunks += (b",", blob) if i else (blob,)
    rest = canonical_bytes(system_to_json_obj(system))
    # ``rest`` opens with the brace of its own object; the slice is a view.
    chunks += (b'],"context_map":', context_map, b",", memoryview(rest)[1:])
    return chunks


def _write_json_outputs(out: Path, system: SystemIr, laast_blobs: dict[str, bytes]) -> None:
    """Write every JSON output but ``report.json``, encoding each document
    once.  Each syntax-tree blob is popped from ``laast_blobs`` as it is
    written; the IR and context-map bytes are freed on return."""
    ir_blobs = []
    for ir in system.services:
        atomic_write(out / f"{ir.service_name}.laast.json", laast_blobs.pop(ir.service_name))
        ir_blobs.append(save_service_ir(ir))
        atomic_write(out / f"{ir.service_name}.ir.json", ir_blobs[-1])
    context_map = canonical_bytes(context_map_to_json_obj(system.context_map))
    atomic_write(out / "system.json", system_json_chunks(system, ir_blobs, context_map))
    atomic_write(out / "context-map.json", context_map)


def run(config: RunConfig, formats: set[str] | None = None, log=None) -> int:
    """Execute the pipeline and return the exit status: 0 no findings,
    1 findings without errors, 2 errors present (3, tool failure, is
    raised as an exception and mapped by the command-line wrapper)."""
    formats = set(OUTPUT_FORMATS) if formats is None else formats
    log = log if log is not None else sys.stderr

    def progress(message: str):
        print(f"[analyze] {message}", file=log)

    system, laast_blobs = build_system(config, log=log)
    findings = run_checks(system, config.checks)
    metrics = coupling_metrics(system)
    progress(f"analysis: {len(findings)} finding(s)")

    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    if "json" in formats:
        _write_json_outputs(out, system, laast_blobs)
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
