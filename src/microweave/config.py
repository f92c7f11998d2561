"""The run configuration: a UTF-8 JSON file whose relative paths resolve
against the file's directory.

Each section of the file is a table that maps each key to its default and
its value rule.  One walker checks every field against its table, rejects
unknown keys, and names the field's path in every message; a ``null``
value counts as an absent key.  The rules that relate fields to each other
or to the file system run once every field has passed its own.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import NamedTuple

from microweave.analysis import RULE_IDS, SEV_ERROR, SEV_INFO, SEV_WARNING, CheckSettings
from microweave.errors import ConfigError, MicroweaveError
from microweave.frontend import (
    CONVENTIONS,
    DEFAULT_INCLUDE_GLOBS,
    PASSTHROUGH_INCLUDE_GLOBS,
    SPRING_LIKE,
    SourceTree,
)
from microweave.laast import LONE_SURROGATE
from microweave.matchers import MatcherRule, validate_ruleset
from microweave.weave import (
    DEFAULT_ENTITY_THRESHOLD,
    DEFAULT_FIELD_THRESHOLD,
    DEFAULT_PATH_THRESHOLD,
    WeaveConfig,
)


class RunConfig(NamedTuple):
    services: list[SourceTree]
    taxonomy_path: Path | None = None
    compose_paths: tuple[Path, ...] = ()
    weave: WeaveConfig = WeaveConfig()
    ruleset: list[MatcherRule] | None = None
    checks: CheckSettings | None = None
    output_dir: Path = Path("out")


def _need(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


# A service name becomes an output file name, so it must stay one path component.
_NAME_RULE = "must not be '.' or '..' or contain '/', '\\' or a NUL byte"


def _unsafe_name(name: str) -> bool:
    return name in (".", "..") or any(c in name for c in "/\\\0")


def _check(value, rule, name: str, base: Path):
    """``value`` checked by ``rule`` and returned as the run uses it.

    A rule is a table (a dict of key to ``(default, rule)``, where the
    default ``...`` marks a required field: no rule accepts it), an array of
    one rule (``[what, rule]``, ``what`` naming the array in the message),
    an enum (a tuple of its values), or a value rule named by a string.
    ``name`` is the value's path in the document, and ``base`` the config
    file's directory."""
    if rule == "services":
        return value if value == "auto" else _check(value, _SERVICES, name, base)
    if isinstance(rule, dict):
        _need(isinstance(value, dict), f"{name} must be an object")
        prefix = f"{name}." if name else ""
        for key in value:
            _need(key in rule, f"{prefix}{key}: unknown field")
        fields = {}
        for key, (default, item) in rule.items():
            given = default if value.get(key) is None else value[key]
            fields[key] = None if given is None else _check(given, item, prefix + key, base)
        return fields
    if isinstance(rule, list):
        what, item = rule
        _need(isinstance(value, list), f"{name} must be {what}")
        return [_check(v, item, f"{name}[{i}]", base) for i, v in enumerate(value)]
    if isinstance(rule, tuple):
        _need(value in rule, f"{name} must be one of {', '.join(rule)}")
    elif rule == "rule id":
        _need(value in RULE_IDS, f"{name}: unknown rule id {value!r}")
    elif rule == "severities":
        _need(isinstance(value, dict), f"{name} must be an object")
        for rule_id, severity in value.items():
            _check(rule_id, "rule id", name, base)
            _check(severity, (SEV_ERROR, SEV_WARNING, SEV_INFO), f"{name}.{rule_id}", base)
    elif rule == "integer":
        _need(isinstance(value, int) and not isinstance(value, bool), f"{name} must be an integer")
    elif rule == "unit":
        _need(isinstance(value, (int, float)) and not isinstance(value, bool),
              f"{name} must be a number")
        # Compared before float(), which overflows on a huge integer.
        _need(0.0 <= value <= 1.0, f"{name} must be within [0, 1]")
        return float(value)
    elif rule == "strings":
        _need(isinstance(value, list) and all(isinstance(v, str) for v in value),
              f"{name} must be an array of strings")
        return tuple(value)
    elif rule in ("service name", "directory"):
        _need(isinstance(value, str) and value != "", f"{name} must be a non-empty string")
    else:  # "string", "glob", "path" or "file"
        _need(isinstance(value, str), f"{name} must be a string")
    if rule == "service name":
        _need(not _unsafe_name(value), f"{name} {_NAME_RULE}")
    elif rule == "glob":  # matched below root_dir, so it must name files there
        glob = Path(value)
        _need(bool(glob.parts) and not glob.is_absolute() and ".." not in glob.parts,
              f"{name} must be a non-empty relative pattern with no '..' segment")
    elif rule in ("path", "file", "directory"):
        _need("\0" not in value, f"{name} must not contain a NUL byte")
        path = Path(value) if Path(value).is_absolute() else (base / value).resolve()
        _need(rule != "file" or path.is_file(), f"{name}: {path} is not a file")
        return path
    return value


_SERVICE = {
    "name": (..., "service name"),
    "root_dir": (..., "directory"),  # must exist only if the run reads it
    # for LaastPassthrough, frontend.source_files reads these as **/*.laast.json
    "include_globs": (list(DEFAULT_INCLUDE_GLOBS), ["an array of strings", "glob"]),
    "convention": (SPRING_LIKE, CONVENTIONS),
}
_SERVICES = ['an array or "auto"', _SERVICE]
_THRESHOLDS = {
    "tau": (DEFAULT_ENTITY_THRESHOLD, "unit"),
    "tau_f": (DEFAULT_FIELD_THRESHOLD, "unit"),
    "theta": (DEFAULT_PATH_THRESHOLD, "unit"),
}
_RULE = {
    "role": ("", "string"),
    "annotations": ([], "strings"),
    "suffixes": ([], "strings"),
    "priority": (0, "integer"),
}
_CHECKS = {
    "disable": ([], ["an array of rule ids", "rule id"]),
    "severity": ({}, "severities"),
}
_CONFIG = {
    "services": ("auto", "services"),
    "root": (".", "path"),
    "taxonomy_path": (None, "file"),
    "compose_paths": ([], ["an array of paths", "file"]),
    "thresholds": ({}, _THRESHOLDS),
    "ruleset": (None, ["an array of rule objects", _RULE]),
    "checks": ({}, _CHECKS),
    "output_dir": ("out", "path"),
}


def _discover_services(root: Path) -> list[SourceTree]:
    """Auto discovery: each immediate subdirectory containing at least one
    source file becomes one service named after the directory."""
    _need(root.is_dir(), f"services auto-discovery root {root} is not a directory")
    trees = []
    for child in sorted(root.iterdir()):
        if not child.is_dir() or child.name.startswith("."):
            continue
        patterns = DEFAULT_INCLUDE_GLOBS + PASSTHROUGH_INCLUDE_GLOBS
        if any(next(child.glob(pattern), None) is not None for pattern in patterns):
            _need(not _unsafe_name(child.name),
                  f"services auto-discovery: directory {child.name!r} cannot be a "
                  f"service name, which {_NAME_RULE}")
            trees.append(SourceTree(child.name, child.resolve()))
    return trees


# A \uD800-\uDFFF escape outside a pair decodes to a lone surrogate, which
# no UTF-8 encode accepts: not the config digest, a path or a file name.
def _reject_lone_surrogates(raw: dict) -> None:
    pending: list[tuple[str, object]] = [("", raw)]
    while pending:
        field_name, value = pending.pop()
        if isinstance(value, str):
            _need(not LONE_SURROGATE.search(value), f"{field_name} holds a lone surrogate")
        elif isinstance(value, dict):
            for key, item in value.items():
                name = key.encode("utf-8", "backslashreplace").decode("utf-8")
                name = f"{field_name}.{name}" if field_name else name
                pending += [(name, key), (name, item)]
        elif isinstance(value, list):
            pending += [(f"{field_name}[{i}]", item) for i, item in enumerate(value)]


def config_digest(raw: dict, services_filter: list[str] | None) -> str:
    """Stable digest over the normalized document of a valid config plus the
    service filter; paths stay as written so the digest is machine-independent."""
    normal = dict(raw)
    if isinstance(raw.get("services"), list):
        normal["services"] = sorted(raw["services"], key=lambda service: service["name"])
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

    Every field is checked, but with a service filter only the selected
    services' directories must exist (and are later read); the filter
    itself must name configured services.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError("config file nests too deeply to parse") from None
    except ValueError:
        # json.loads raises a bare ValueError only for an integer beyond the
        # interpreter's int-digit limit.
        raise ConfigError("config file holds an integer with too many digits") from None
    _need(isinstance(raw, dict), "config must be a JSON object")
    _reject_lone_surrogates(raw)
    fields = _check(raw, _CONFIG, "", path.parent.resolve())

    if fields["services"] == "auto":
        trees = _discover_services(fields["root"])
    else:
        trees = [SourceTree(service["name"], service["root_dir"], tuple(service["include_globs"]),
                            service["convention"]) for service in fields["services"]]
    names = [tree.service_name for tree in trees]
    folded: dict[str, str] = {}
    for name in names:
        other = folded.get(name.casefold())
        if other is not None:
            _need(other != name, f"services: duplicate service name {name!r}")
            raise ConfigError(f"services: names {other!r} and {name!r} differ only in case, so "
                              "their output files would collide on a case-insensitive file system")
        folded[name.casefold()] = name

    selected = set(services_filter or names)
    if selected - set(names):
        raise ConfigError(f"--services names unknown service {min(selected - set(names))!r}")
    for index, tree in enumerate(trees):
        _need(tree.service_name not in selected or tree.root_dir.is_dir(),
              f"services[{index}].root_dir: {tree.root_dir} is not a directory")
    trees = [tree for tree in trees if tree.service_name in selected]

    ruleset = fields["ruleset"]
    if ruleset is not None:
        ruleset = [MatcherRule(rule["role"], rule["annotations"], rule["suffixes"],
                               rule["priority"]) for rule in ruleset]
        try:
            validate_ruleset(ruleset)
        except MicroweaveError as exc:
            raise ConfigError(f"ruleset: {exc}") from None

    thresholds, checks = fields["thresholds"], fields["checks"]
    return RunConfig(
        services=trees,
        taxonomy_path=fields["taxonomy_path"],
        compose_paths=tuple(fields["compose_paths"]),
        weave=WeaveConfig(
            entity_threshold=thresholds["tau"],
            field_threshold=thresholds["tau_f"],
            path_threshold=thresholds["theta"],
            config_digest=config_digest(raw, services_filter),
        ),
        ruleset=ruleset,
        checks=CheckSettings(disabled_rules=frozenset(checks["disable"]),
                             severity_overrides=checks["severity"]),
        output_dir=(fields["output_dir"] if output_override is None
                    else Path(output_override).absolute()),
    )
