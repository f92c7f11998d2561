"""Service inventory and declared dependencies from compose-style files.

The parser covers the compose subset that carries topology signal: service
keys, images, ``depends_on``, ``links``, ``environment`` URLs, and network
aliases.  Everything else is ignored.  The resulting model feeds two
consumers: host-token resolution for call matching, and the
declared-vs-inferred topology cross-check.
"""

from __future__ import annotations

import re
from pathlib import Path

from microweave.errors import MalformedDocument
from microweave.record import Record

ORIGIN_DEPENDS_ON = "depends_on"
ORIGIN_LINKS = "links"
ORIGIN_ENV_URL = "env_url"

_SUPPORTED_VERSION_RE = re.compile(r"^[23](\.\d+)?$")
_ENV_URL_RE = re.compile(r"https?://([A-Za-z0-9_.-]+)(?::\d+)?")


class TopologyService(Record):
    __slots__ = ("name", "image", "aliases", "env")
    _defaults = {"image": "", "aliases": list, "env": dict}


class TopologyModel(Record):
    #: declared_edges: (from service, to service, origin)
    __slots__ = ("services", "declared_edges", "warnings")
    _defaults = dict.fromkeys(__slots__, list)


def _as_str(value) -> str:
    if value is None:
        return ""
    return str(value)


def _env_map(raw) -> dict[str, str]:
    env: dict[str, str] = {}
    if isinstance(raw, dict):
        for key, value in raw.items():
            env[_as_str(key)] = _as_str(value)
    elif isinstance(raw, list):
        for entry in raw:
            text = _as_str(entry)
            key, sep, value = text.partition("=")
            env[key] = value if sep else ""
    return env


def _dependency_names(raw) -> list[str]:
    if isinstance(raw, dict):
        return [_as_str(k) for k in raw]
    if isinstance(raw, list):
        return [_as_str(v) for v in raw]
    if isinstance(raw, str):
        return [raw]
    return []


def _link_target(entry: str) -> str:
    return entry.split(":", 1)[0]


def _network_aliases(raw) -> list[str]:
    aliases: list[str] = []
    if isinstance(raw, dict):
        for net in raw.values():
            if isinstance(net, dict):
                for alias in net.get("aliases", []) or []:
                    aliases.append(_as_str(alias))
    return aliases


def _env_url_edges(services: dict[str, TopologyService]) -> set[tuple[str, str, str]]:
    """Edges implied by environment values holding URLs whose host is a
    known service name or network alias."""
    known = set(services)
    alias_owner: dict[str, str] = {}
    for name in sorted(services):
        for alias in services[name].aliases:
            alias_owner.setdefault(alias, name)
    edges: set[tuple[str, str, str]] = set()
    for name in sorted(services):
        for value in services[name].env.values():
            for host in _ENV_URL_RE.findall(value):
                target = alias_owner.get(host, host if host in known else None)
                if target is not None and target != name:
                    edges.add((name, target, ORIGIN_ENV_URL))
    return edges


def parse_compose(data: bytes | str, source: str = "<compose>") -> TopologyModel:
    """Parse one compose document into a TopologyModel.

    Unknown dependency targets become warnings rather than edges, and an
    unrecognized version is a warning, never an error.
    """
    import yaml  # here, not at the top: only runs with a compose file pay its import

    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedDocument(f"{source}: not valid UTF-8: {exc}") from None
    try:
        doc = yaml.safe_load(data)
    except yaml.YAMLError as exc:
        raise MalformedDocument(f"{source}: not valid YAML: {exc}") from None
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise MalformedDocument(f"{source}: expected a mapping at the top level")

    model = TopologyModel()
    version = doc.get("version")
    if version is not None and not _SUPPORTED_VERSION_RE.match(_as_str(version)):
        model.warnings.append(f"{source}: unsupported compose version {version!r}")

    raw_services = doc.get("services")
    if raw_services is None:
        raise MalformedDocument(f"{source}: missing top-level 'services'")
    if not isinstance(raw_services, dict):
        raise MalformedDocument(f"{source}: 'services' must be a mapping")

    # A key that is no string names the service its text spells, as a
    # depends_on entry naming it does: ``1:`` is service "1".
    bodies: dict[str, dict] = {}
    parsed: dict[str, TopologyService] = {}
    for key, body in raw_services.items():
        name, body = _as_str(key), body or {}
        if not isinstance(body, dict):
            raise MalformedDocument(f"{source}: service {key!r} must be a mapping")
        bodies[name] = body
        parsed[name] = TopologyService(
            name=name,
            image=_as_str(body.get("image", "")),
            aliases=sorted(set(_network_aliases(body.get("networks")))),
            env=dict(sorted(_env_map(body.get("environment")).items())),
        )

    known = set(parsed)
    edges: set[tuple[str, str, str]] = _env_url_edges(parsed)
    for name in sorted(parsed):
        body = bodies[name]
        for target in _dependency_names(body.get("depends_on")):
            if target in known:
                edges.add((name, target, ORIGIN_DEPENDS_ON))
            else:
                model.warnings.append(
                    f"{source}: {name} depends_on unknown service {target!r}"
                )
        for entry in _dependency_names(body.get("links")):
            target = _link_target(entry)
            if target in known:
                edges.add((name, target, ORIGIN_LINKS))
            else:
                model.warnings.append(f"{source}: {name} links unknown service {target!r}")

    model.services = [parsed[name] for name in sorted(parsed)]
    model.declared_edges = sorted(edges)
    return model


def load_compose_file(path: str | Path) -> TopologyModel:
    path = Path(path)
    return parse_compose(path.read_bytes(), source=path.as_posix())


def merge_topologies(models: list[TopologyModel]) -> TopologyModel:
    """Union several parsed compose files into one model, deterministically.

    Same-named services merge their aliases and env; the first file's
    image wins, with a warning when a later file disagrees.
    """
    merged: dict[str, TopologyService] = {}
    edges: set[tuple[str, str, str]] = set()
    warnings: list[str] = []
    for model in models:
        warnings.extend(model.warnings)
        edges.update(model.declared_edges)
        for svc in model.services:
            if svc.name not in merged:
                merged[svc.name] = TopologyService(
                    name=svc.name,
                    image=svc.image,
                    aliases=list(svc.aliases),
                    env=dict(svc.env),
                )
                continue
            seen = merged[svc.name]
            if svc.image and seen.image and svc.image != seen.image:
                warnings.append(
                    f"service {svc.name}: conflicting images "
                    f"{seen.image!r} and {svc.image!r}; keeping the first"
                )
            elif svc.image and not seen.image:
                seen.image = svc.image
            seen.aliases = sorted(set(seen.aliases) | set(svc.aliases))
            for key, value in svc.env.items():
                seen.env.setdefault(key, value)
            seen.env = dict(sorted(seen.env.items()))
    edges.update(_env_url_edges(merged))
    return TopologyModel(
        services=[merged[name] for name in sorted(merged)],
        declared_edges=sorted(edges),
        warnings=warnings,
    )


class Inventory(dict):
    """Host-token to service-name table; collision notes ride along."""

    def __init__(self):
        super().__init__()
        self.warnings: list[str] = []


def _token_variants(token: str) -> list[str]:
    variants = [token]
    if "-" in token:
        variants.append(token.replace("-", "_"))
    if "_" in token:
        variants.append(token.replace("_", "-"))
    return variants


def build_inventory(topology: TopologyModel | None, service_names: list[str]) -> Inventory:
    """Every service name, alias, and hyphen/underscore variant, mapped to
    its service.  Colliding tokens keep the first writer (services visited
    in sorted name order) and record a warning."""
    inventory = Inventory()

    def put(token: str, target: str) -> None:
        for variant in _token_variants(token):
            if variant in inventory and inventory[variant] != target:
                inventory.warnings.append(
                    f"inventory collision: {variant!r} -> "
                    f"{inventory[variant]!r} (kept) vs {target!r}"
                )
                continue
            inventory[variant] = target

    for name in sorted(service_names):
        put(name, name)
    if topology is not None:
        for svc in sorted(topology.services, key=lambda s: s.name):
            put(svc.name, svc.name)
            for alias in svc.aliases:
                put(alias, svc.name)
    return inventory
