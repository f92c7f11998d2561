"""Seeded generator of synthetic multi-service Java systems.

Each workload is a ``Shape``; ``generate(shape, seed, dest)`` writes one
service tree per service, a run configuration, optional taxonomy and
compose files, and ``manifest.json``: the ground truth the reference check
compares the analyzer's outputs against.  The same shape and seed always
give byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, replace
from pathlib import Path

SPRING = "SpringLike"
JAXRS = "JaxRsLike"
PASSTHROUGH = "LaastPassthrough"


@dataclass(frozen=True)
class Shape:
    """Size and structure of one synthetic system.

    The service dependency graph is built over a seeded order of the
    services.  With ``offsets`` empty it is layered and acyclic: each
    service calls ``fanout`` services placed later in the order (fewer near
    the end).  Otherwise the service at position ``i`` calls the services at
    positions ``i + o (mod services)`` for each offset, a circulant graph:
    every seed then has the same cycle structure under new names.  One big
    file per service is ``controllers=1`` with many endpoints.
    """

    services: int
    controllers: int  # per service, each in its own file with its own entity
    endpoints: int  # GET handlers per controller
    call_density: float  # share of a calling service's handlers that call out
    fanout: int = 3
    offsets: tuple[int, ...] = ()
    dangling: float = 0.0  # share of calls whose path matches no endpoint
    conventions: tuple[str, ...] = (SPRING,)  # cycled over services in name order
    taxonomy: bool = False
    compose: bool = False


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "wide": Shape(60, 5, 10, 1.0, fanout=3, dangling=0.02, taxonomy=True, compose=True),
    "big-files": Shape(4, 1, 800, 0.1, fanout=2),
    "cycles": Shape(13, 3, 6, 1.0, offsets=(1, 3, 5, 8, 10)),
    "ci-small": Shape(6, 2, 5, 1.0, fanout=2, dangling=0.1,
                      conventions=(SPRING, JAXRS, PASSTHROUGH), compose=True),
}

# Reduced sizes with the same structure, for the smoke test.
SMALL_WORKLOADS = {
    "wide": replace(WORKLOADS["wide"], services=8, controllers=2, endpoints=3, dangling=0.1),
    "big-files": replace(WORKLOADS["big-files"], endpoints=40, call_density=0.25),
    "cycles": replace(WORKLOADS["cycles"], services=5, controllers=2, endpoints=2,
                      offsets=(1, 2)),
    "ci-small": WORKLOADS["ci-small"],
}

# Taxonomy of entity words: category, then pairs of near-synonyms.  Wu-Palmer
# similarity is 0.75 within a pair (a match at the default threshold) and
# 0.5 across pairs, so one draw in about 25 matches a given entity by name.
ENTITY_WORDS = {
    "person": (("customer", "patron"), ("user", "member"), ("account", "profile"),
               ("employee", "staff"), ("vendor", "supplier")),
    "document": (("order", "purchase"), ("invoice", "bill"), ("payment", "remittance"),
                 ("refund", "chargeback"), ("coupon", "voucher")),
    "goods": (("item", "article"), ("product", "offering"), ("stock", "inventory"),
              ("cart", "basket"), ("bundle", "kit")),
    "transport": (("shipment", "consignment"), ("delivery", "dispatch"),
                  ("parcel", "package"), ("route", "itinerary"), ("warehouse", "depot")),
    "feedback": (("review", "critique"), ("ticket", "incident"), ("rating", "grade"),
                 ("complaint", "grievance"), ("survey", "poll")),
}
ENTITY_SUFFIXES = ("", "Dto", "Entity", "Model", "Record", "Info")
ENTITY_FIELDS = 8  # String fields per entity
FIELD_WORDS = (
    "id", "name", "code", "status", "createdAt", "updatedAt", "ownerId", "amount",
    "currency", "email", "phone", "note", "version", "label", "region", "priority",
    "externalRef", "channel", "quantity", "score",
)


def service_name(index: int) -> str:
    return f"svc{index:02d}"


def _cap(word: str) -> str:
    return word[0].upper() + word[1:]


def _dependency_graph(shape: Shape, rng: random.Random, names: list[str]) -> dict[str, list[str]]:
    order = list(names)
    rng.shuffle(order)
    n = len(order)
    targets: dict[str, list[str]] = {}
    for i, name in enumerate(order):
        if shape.offsets:
            picked = [order[(i + o) % n] for o in shape.offsets]
        else:
            later = order[i + 1:]
            picked = rng.sample(later, min(shape.fanout, len(later)))
        targets[name] = sorted(picked)
    return targets


@dataclass
class _Handler:
    name: str
    path: str  # method-level mapping, e.g. /items3/{id}
    call_url: str | None = None  # literal prefix; the generated code appends + id


@dataclass
class _Controller:
    service: str
    cls: str
    prefix: str
    file: str  # path of the Java source relative to the service root
    handlers: list[_Handler]
    entity: str
    entity_file: str
    fields: list[str]


def _java_controller(ctl: _Controller, convention: str) -> list[str]:
    """Source lines of one controller; line numbers are 1-based indexes."""
    jaxrs = convention == JAXRS
    lines = [f"package bench.{ctl.service};", ""]
    if jaxrs:
        lines += ["import javax.ws.rs.*;", "", f'@Path("{ctl.prefix}")']
        lines += [f"public class {ctl.cls} {{", "", "    private final Client client;", ""]
    else:
        lines += ["import org.springframework.web.bind.annotation.*;", "",
                  "@RestController", f'@RequestMapping("{ctl.prefix}")']
        lines += [f"public class {ctl.cls} {{", "",
                  "    private final RestTemplate restTemplate;", ""]
    for h in ctl.handlers:
        if jaxrs:
            lines += ["    @GET", f'    @Path("{h.path}")',
                      f'    public String {h.name}(@PathParam("id") long id) {{']
            if h.call_url is None:
                lines.append(f'        return "{h.name}" + id;')
            else:
                lines.append(f'        return client.target("{h.call_url}" + id)'
                             f".request().get(String.class);")
        else:
            lines += [f'    @GetMapping("{h.path}")',
                      f'    public String {h.name}(@PathVariable("id") long id) {{']
            if h.call_url is None:
                lines.append(f'        return "{h.name}" + id;')
            else:
                lines.append(f'        return restTemplate.getForObject("{h.call_url}" + id, '
                             f"String.class);")
        lines += ["    }", ""]
    lines[-1] = "}"
    return lines


def _java_entity(ctl: _Controller) -> list[str]:
    lines = [f"package bench.{ctl.service};", "", "import javax.persistence.Entity;", "",
             "@Entity", f"public class {ctl.entity} {{"]
    lines += [f"    private String {f};" for f in ctl.fields]
    lines.append("}")
    return lines


def _node(kind: str, name: str, file: str, start: int, end: int,
          attributes: dict | None = None, children: list | None = None) -> dict:
    """One syntax-tree node in the documented key order, empty keys omitted."""
    node = {"kind": kind, "name": name}
    if attributes:
        node["attributes"] = attributes
    node["span"] = {"file": file, "line_start": start, "line_end": end}
    if children:
        node["children"] = children
    return node


def _laast_controller(ctl: _Controller, lines: list[str]) -> dict:
    """The syntax tree a Java frontend produces for the SpringLike source
    ``lines``, written directly so passthrough services need no parser."""
    f = ctl.file
    cls_line = next(i for i, text in enumerate(lines, 1) if text.startswith("public class"))
    members = [
        _node("Annotation", "RestController", f, cls_line - 2, cls_line - 2),
        _node("Annotation", "RequestMapping", f, cls_line - 1, cls_line - 1,
              {"value": ctl.prefix}),
        _node("FieldDecl", "restTemplate", f, cls_line + 2, cls_line + 2,
              {"declared_type": "RestTemplate"}),
    ]
    line = cls_line + 4
    for h in ctl.handlers:
        decl = line + 1
        body = [
            _node("Annotation", "GetMapping", f, line, line, {"value": h.path}),
            _node("Param", "id", f, decl, decl, {"declared_type": "long"},
                  [_node("Annotation", "PathVariable", f, decl, decl, {"value": "id"})]),
        ]
        if h.call_url is not None:
            body.append(_node("Call", "getForObject", f, decl + 1, decl + 1, {
                "call_kind": "remote", "http_method": "GET",
                "url_template": h.call_url + "{*}", "arg_count": "2"}))
        members.append(_node("MethodDecl", h.name, f, decl, decl + 2,
                             {"return_type": "String"}, body))
        line += 5
    type_decl = _node("TypeDecl", ctl.cls, f, cls_line, len(lines), {"type_kind": "class"},
                      members)
    return _node("CompilationUnit", f, f, 1, len(lines), children=[type_decl])


def _laast_entity(ctl: _Controller, lines: list[str]) -> dict:
    f = ctl.entity_file
    members = [_node("Annotation", "Entity", f, 5, 5)]
    members += [_node("FieldDecl", name, f, 7 + i, 7 + i, {"declared_type": "String"})
                for i, name in enumerate(ctl.fields)]
    type_decl = _node("TypeDecl", ctl.entity, f, 6, len(lines), {"type_kind": "class"}, members)
    return _node("CompilationUnit", f, f, 1, len(lines), children=[type_decl])


def _canonical(obj) -> bytes:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


def _write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def _taxonomy_text() -> str:
    lines = ["thing"]
    for category, pairs in ENTITY_WORDS.items():
        lines.append(f"  {category}")
        for a, b in pairs:
            lines += [f"    {a}-{b}", f"      {a}", f"      {b}"]
    return "\n".join(lines) + "\n"


def _compose_text(names: list[str], declared: dict[str, list[str]]) -> str:
    lines = ['version: "3.8"', "services:"]
    for name in names:
        lines += [f"  {name}:", f"    image: bench/{name}:1.0"]
        if declared[name]:
            lines.append("    depends_on:")
            lines.extend(f"      - {dep}" for dep in declared[name])
    return "\n".join(lines) + "\n"


def _declared_dependencies(rng: random.Random, names: list[str],
                           graph: set[tuple[str, str]]) -> dict[str, list[str]]:
    """Compose dependencies that disagree with the calls both ways: about
    one observed dependency in ten is left out and one service in ten
    declares a dependency it never calls."""
    edges = sorted(graph)
    dropped = set(rng.sample(edges, len(edges) // 10))
    declared = {name: set() for name in names}
    for a, b in edges:
        if (a, b) not in dropped:
            declared[a].add(b)
    for a in rng.sample(names, max(1, len(names) // 10)):
        spare = [b for b in names if b != a and (a, b) not in graph]
        if spare:
            declared[a].add(rng.choice(spare))
    return {name: sorted(deps) for name, deps in declared.items()}


def generate(shape: Shape, seed: int, dest: str | Path) -> dict:
    """Write the system for ``shape`` and ``seed`` under ``dest`` (which
    must not exist yet) and return its manifest."""
    dest = Path(dest)
    dest.mkdir(parents=True)
    rng = random.Random(seed)
    names = [service_name(i) for i in range(shape.services)]
    conventions = {name: shape.conventions[i % len(shape.conventions)]
                   for i, name in enumerate(names)}
    downstream = _dependency_graph(shape, rng, names)

    # Skeleton: controllers, handlers and entities of every service.
    vocabulary = [w for pairs in ENTITY_WORDS.values() for pair in pairs for w in pair]
    controllers: dict[str, list[_Controller]] = {}
    for name in names:
        words = rng.sample(vocabulary, shape.controllers)
        ctls = []
        for c in range(shape.controllers):
            entity = _cap(words[c]) + rng.choice(ENTITY_SUFFIXES)
            base = f"src/main/java/bench/{name}/"
            ctls.append(_Controller(
                service=name,
                cls=f"Ctl{c}Controller",
                prefix=f"/api/{name}/r{c}",
                file=base + f"Ctl{c}Controller.java",
                handlers=[_Handler(f"items{e}", f"/items{e}/{{id}}")
                          for e in range(shape.endpoints)],
                entity=entity,
                entity_file=base + f"{entity}.java",
                fields=sorted(rng.sample(FIELD_WORDS, ENTITY_FIELDS)),
            ))
        controllers[name] = ctls

    # Calls: every target of a service is used, in a seeded round-robin.
    sites = []
    for name in names:
        if not downstream[name]:
            continue
        handlers = [(ctl, h) for ctl in controllers[name] for h in ctl.handlers]
        count = round(shape.call_density * len(handlers))
        callers = rng.sample(handlers, count)
        targets = [downstream[name][i % len(downstream[name])] for i in range(count)]
        rng.shuffle(targets)
        sites.extend((name, ctl, h, target) for (ctl, h), target in zip(callers, targets))
    dangling_ids = set(rng.sample(range(len(sites)), round(shape.dangling * len(sites))))

    calls, dangling, graph = [], [], set()
    for i, (name, ctl, h, target) in enumerate(sites):
        target_ctl = rng.choice(controllers[target])
        target_h = rng.choice(target_ctl.handlers)
        site = {"service": name, "component": ctl.cls, "method": h.name, "file": ctl.file}
        if i in dangling_ids:
            h.call_url = f"http://{target}{target_ctl.prefix}/gone{target_h.name[5:]}/"
            dangling.append(site)
            continue
        h.call_url = f"http://{target}{target_ctl.prefix}{target_h.path[:-4]}"
        site["target"] = {"service": target, "owner": target_ctl.cls,
                          "handler": target_h.name, "file": target_ctl.file}
        calls.append(site)
        graph.add((name, target))

    sloc = files = 0
    for name in names:
        root = dest / name
        for ctl in controllers[name]:
            ctl_lines = _java_controller(ctl, conventions[name])
            entity_lines = _java_entity(ctl)
            files += 2
            if conventions[name] == PASSTHROUGH:
                for file, doc in ((ctl.file, _laast_controller(ctl, ctl_lines)),
                                  (ctl.entity_file, _laast_entity(ctl, entity_lines))):
                    _write(root / (file[:-len(".java")] + ".laast.json"), _canonical(doc))
            else:
                # Only the Java the analyzer parses counts; passthrough trees
                # are read, not parsed.
                sloc += sum(1 for text in ctl_lines + entity_lines if text.strip())
                _write(root / ctl.file, ("\n".join(ctl_lines) + "\n").encode("utf-8"))
                _write(root / ctl.entity_file, ("\n".join(entity_lines) + "\n").encode("utf-8"))

    config = {"services": [{"name": n, "root_dir": n, "convention": conventions[n]}
                           for n in names]}
    declared: dict[str, list[str]] = {}
    if shape.taxonomy:
        _write(dest / "taxonomy.txt", _taxonomy_text().encode("utf-8"))
        config["taxonomy_path"] = "taxonomy.txt"
    if shape.compose:
        declared = _declared_dependencies(rng, names, graph)
        _write(dest / "docker-compose.yml", _compose_text(names, declared).encode("utf-8"))
        config["compose_paths"] = ["docker-compose.yml"]
    _write(dest / "config.json", json.dumps(config, indent=2).encode("utf-8") + b"\n")

    manifest = {
        "seed": seed,
        "shape": asdict(shape),
        "sloc": sloc,
        "files": files,
        "services": names,
        "graph": sorted(graph),
        "declared": sorted((a, b) for a, deps in declared.items() for b in deps),
        "calls": sorted(calls, key=_site_key),
        "dangling": sorted(dangling, key=_site_key),
    }
    _write(dest / "manifest.json", json.dumps(manifest, indent=1).encode("utf-8") + b"\n")
    return manifest


def _site_key(site: dict):
    return site["service"], site["component"], site["method"]

