from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import microweave.weave as weave_module
from microweave import __version__
from microweave.errors import DuplicateServiceError
from microweave.ir import Component, DataModel, Endpoint, RemoteCall, ServiceIr, EventOp
from microweave.matchers import (
    DIRECTION_PUBLISH,
    DIRECTION_SUBSCRIBE,
    MethodSig,
    ROLE_ENTITY,
    SourceSpan,
)
from microweave.similarity import parse_taxonomy
from microweave.topology import build_inventory, parse_compose
from microweave.weave import (
    SYSTEM_JSON,
    EndpointIndex,
    NameSimilarity,
    WeaveConfig,
    _segment_score,
    _split_path,
    build_context_map,
    canonical_type,
    match_call_to_endpoints,
    match_events,
    match_fields,
    save_context_map,
    split_host,
    system_to_json_obj,
    type_compatible,
    weave,
)

CONFIG = WeaveConfig()
NAMES = NameSimilarity(None)


def _entity(name, fields, service="svc", file="src/E.java"):
    return Component(
        role=ROLE_ENTITY,
        name=name,
        service=service,
        fields=fields,
        methods=[],
        annotations=[("Entity", {})],
        span=SourceSpan(file, 1, 5),
    )


def _endpoint(service, http_method, templates, owner="Ctl", handler="handle",
              params=(), file="src/Ctl.java", line=10):
    return Endpoint(
        owner=owner,
        service=service,
        http_method=http_method,
        url_templates=list(templates),
        params=list(params),
        handler=MethodSig(name=handler, params=[], return_type="void", annotations=[]),
        span=SourceSpan(file, line, line + 2),
    )


def _call(http_method, url, service="caller", arg_count=2, line=7):
    return RemoteCall(
        caller_service=service,
        caller_component="Client",
        caller_method="go",
        http_method=http_method,
        url_template=url,
        arg_count=arg_count,
        span=SourceSpan("src/Client.java", line, line),
    )


def test_canonical_type_unwraps_and_normalizes():
    assert canonical_type("Integer") == "int"
    assert canonical_type("java.lang.Long") == "long"
    assert canonical_type("List<String>") == "String"
    assert canonical_type("java.util.Set<shop.Order>") == "Order"
    assert canonical_type("Order[]") == "Order"
    assert canonical_type("Character") == "char"


def test_type_compatible_aliases():
    assert type_compatible("Integer", "int")
    assert type_compatible("Long", "long")
    assert type_compatible("String", "CharSequence") is False
    assert type_compatible("List<User>", "User")
    assert type_compatible("double", "Double")
    assert not type_compatible("String", "long")


def test_match_fields_greedy_best_first():
    fields_a = [("userId", "long"), ("name", "String")]
    fields_b = [("name", "String"), ("userIdentifier", "long"), ("id", "long")]
    matches = match_fields(fields_a, fields_b, NAMES, CONFIG)
    pairs = {(m.field_a, m.field_b) for m in matches}
    assert ("name", "name") in pairs
    assert len([m for m in matches if m.field_a == "userId"]) <= 1
    assert list(matches) == sorted(matches, key=lambda m: (m.field_a, m.field_b))


def test_match_fields_respects_threshold():
    matches = match_fields([("alpha", "long")], [("omega", "long")], NAMES, CONFIG)
    assert matches == ()


def test_match_fields_marks_type_compatibility():
    matches = match_fields([("name", "String")], [("name", "long")], NAMES, CONFIG)
    assert len(matches) == 1
    assert matches[0].score == 1.0
    assert matches[0].type_compatible is False


def test_build_context_map_threshold_and_order():
    taxonomy = parse_taxonomy("thing\n  person\n    user\n    customer\n")
    model_a = DataModel("alpha", [_entity("User", [("id", "long")], "alpha")], [])
    model_b = DataModel("beta", [_entity("Customer", [("id", "long")], "beta")], [])
    model_c = DataModel("gamma", [_entity("Widget", [("id", "long")], "gamma")], [])
    cmap = build_context_map([model_c, model_b, model_a], taxonomy, CONFIG)
    assert [m.service_name for m in cmap.bounded_contexts] == ["alpha", "beta", "gamma"]
    assert len(cmap.matches) == 1
    match = cmap.matches[0]
    assert (match.service_a, match.entity_a) == ("alpha", "User")
    assert (match.service_b, match.entity_b) == ("beta", "Customer")
    assert match.strategy == "taxonomy"
    assert match.score == pytest.approx(2 * 2 / (3 + 3))
    assert match.field_matches[0].field_a == "id"


def test_build_context_map_same_service_not_compared():
    model = DataModel(
        "alpha",
        [
            _entity("User", [("id", "long")], "alpha"),
            _entity("Users", [("id", "long")], "alpha", file="src/F.java"),
        ],
        [],
    )
    cmap = build_context_map([model], None, CONFIG)
    assert list(cmap.matches) == []


def test_split_host_variants():
    assert split_host("http://users/api/x") == ("users", "/api/x")
    assert split_host("https://user-svc:8080/api") == ("user-svc", "/api")
    assert split_host("http://users") == ("users", "/")
    assert split_host("/api/orders") == (None, "/api/orders")
    assert split_host("{*}") == (None, "{*}")


def _path_score(call_path: str, endpoint_path: str) -> float:
    return _segment_score(_split_path(call_path), _split_path(endpoint_path))


def test_path_score_exact_and_template_alignment():
    assert _path_score("/api/users", "/api/users") == 1.0
    assert _path_score("/api/users/{*}", "/api/users/{id}") == pytest.approx(2.5 / 3)
    assert _path_score("/api/users/7", "/api/users/{id}") == pytest.approx(2.5 / 3)
    assert _path_score("/api/users", "/api/orders") == 0.0
    assert _path_score("/", "/") == 1.0


def test_path_score_prefix_with_template_remainder():
    assert _path_score("/api/users", "/api/users/{id}") == pytest.approx(2 / 3)
    assert _path_score("/api/users/{id}", "/api/users") == pytest.approx(2 / 3)
    assert _path_score("/api/users", "/api/users/list") == 0.0
    assert _path_score("/api", "/api/users/{id}") == 0.0


def _oracle_path_score(call_path: str, endpoint_path: str) -> float:
    """The string-level rule as it was before paths were split once."""

    def segments(path):
        trimmed = path.strip("/")
        return trimmed.split("/") if trimmed else []

    def is_template(segment):
        return segment.startswith("{") and segment.endswith("}")

    call_segs = segments(call_path)
    ep_segs = segments(endpoint_path)
    if not call_segs and not ep_segs:
        return 1.0
    strong = 0
    weak = 0
    overlap = min(len(call_segs), len(ep_segs))
    for left, right in zip(call_segs, ep_segs):
        if is_template(left) or is_template(right):
            weak += 1
        elif left == right:
            strong += 1
        else:
            return 0.0
    longer = call_segs if len(call_segs) > len(ep_segs) else ep_segs
    if any(not is_template(seg) for seg in longer[overlap:]):
        return 0.0
    return (strong + 0.5 * weak) / max(len(call_segs), len(ep_segs))


_PATHS = st.one_of(
    st.sampled_from(["", "/", "//"]),
    st.builds(
        lambda lead, segs, trail: lead + "/".join(segs) + trail,
        st.sampled_from(["", "/"]),
        st.lists(st.sampled_from(["api", "users", "7", "{x}", "{*}", "{", "x}", ""]),
                 max_size=5),
        st.sampled_from(["", "/", "//"]),
    ),
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_PATHS, _PATHS)
def test_segment_score_matches_string_rule(call_path, endpoint_path):
    want = _oracle_path_score(call_path, endpoint_path)
    assert _segment_score(_split_path(call_path), _split_path(endpoint_path)) == want


def test_match_call_resolvable_host_restricts_candidates():
    endpoints = [
        _endpoint("users", "GET", ["/api/users/{id}"], file="src/U.java"),
        _endpoint("orders", "GET", ["/api/users/{id}"], file="src/O.java"),
    ]
    inventory = build_inventory(None, ["users", "orders"])
    edges = match_call_to_endpoints(
        _call("GET", "http://users/api/users/{*}"),
        EndpointIndex(endpoints),
        inventory,
        CONFIG,
    ).edges
    assert [e.to_service for e in edges] == ["users"]
    assert edges[0].confidence == 1.0
    assert edges[0].ambiguous is False
    assert edges[0].score == pytest.approx(2.5 / 3)
    assert edges[0].matched_url_template == "/api/users/{id}"


def test_match_call_unresolvable_host_halves_confidence():
    endpoints = [_endpoint("users", "GET", ["/api/users/{id}"])]
    inventory = build_inventory(None, ["users"])
    edges = match_call_to_endpoints(
        _call("GET", "http://user-farm.example.com/api/users/{*}"),
        EndpointIndex(endpoints),
        inventory,
        CONFIG,
    ).edges
    assert len(edges) == 1
    assert edges[0].confidence == 0.5


def test_match_call_relative_url_no_penalty():
    endpoints = [_endpoint("users", "GET", ["/api/users/{id}"])]
    inventory = build_inventory(None, ["users"])
    edges = match_call_to_endpoints(
        _call("GET", "/api/users/{*}"), EndpointIndex(endpoints), inventory, CONFIG
    ).edges
    assert len(edges) == 1
    assert edges[0].confidence == 1.0


def test_match_call_method_gate():
    endpoints = [_endpoint("users", "GET", ["/api/users"])]
    inventory = build_inventory(None, ["users"])
    assert match_call_to_endpoints(
        _call("POST", "http://users/api/users"),
        EndpointIndex(endpoints),
        inventory,
        CONFIG,
    ).edges == []
    edges = match_call_to_endpoints(
        _call("UNKNOWN", "http://users/api/users"),
        EndpointIndex(endpoints),
        inventory,
        CONFIG,
    ).edges
    assert len(edges) == 1
    assert edges[0].score == pytest.approx(0.9)
    any_endpoint = [_endpoint("users", "ANY", ["/api/users"])]
    edges = match_call_to_endpoints(
        _call("UNKNOWN", "http://users/api/users"),
        EndpointIndex(any_endpoint),
        inventory,
        CONFIG,
    ).edges
    assert edges[0].score == pytest.approx(0.9)


def test_match_call_below_threshold_yields_nothing():
    endpoints = [_endpoint("users", "GET", ["/api/users/{id}/posts/{pid}"])]
    inventory = build_inventory(None, ["users"])
    edges = match_call_to_endpoints(
        _call("GET", "http://users/api/users"),
        EndpointIndex(endpoints),
        inventory,
        CONFIG,
    ).edges
    assert edges == []


def test_match_call_tie_splits_confidence_and_flags_ambiguous():
    endpoints = [
        _endpoint("users", "GET", ["/api/users/{id}"], owner="A", file="src/A.java"),
        _endpoint("users", "GET", ["/api/users/{key}"], owner="B", file="src/B.java"),
    ]
    inventory = build_inventory(None, ["users"])
    edges = match_call_to_endpoints(
        _call("GET", "http://users/api/users/{*}"),
        EndpointIndex(endpoints),
        inventory,
        CONFIG,
    ).edges
    assert len(edges) == 2
    assert all(e.ambiguous for e in edges)
    assert all(e.confidence == pytest.approx(0.5) for e in edges)
    assert edges[0].endpoint.span.file == "src/A.java"


def test_match_call_picks_best_template_per_endpoint():
    endpoints = [
        _endpoint("users", "GET", ["/api/users/by-email/{email}", "/api/users/email/{email}"])
    ]
    inventory = build_inventory(None, ["users"])
    edges = match_call_to_endpoints(
        _call("GET", "http://users/api/users/email/{*}"),
        EndpointIndex(endpoints),
        inventory,
        CONFIG,
    ).edges
    assert len(edges) == 1
    assert edges[0].matched_url_template == "/api/users/email/{email}"
    assert edges[0].score == pytest.approx(3.5 / 4)


def test_match_call_decision_is_true_exactly_when_it_draws_an_edge():
    endpoints = [_endpoint("users", "GET", ["/api/users"])]
    index = EndpointIndex(endpoints)
    inventory = build_inventory(None, ["users"])
    matched = match_call_to_endpoints(_call("GET", "/api/users"), index, inventory, CONFIG)
    near = match_call_to_endpoints(_call("POST", "/api/users"), index, inventory, CONFIG)
    dangling = match_call_to_endpoints(_call("GET", "/api/orders"), index, inventory, CONFIG)
    assert bool(matched) and matched.near_miss is None
    assert not near and near.edges == [] and near.near_miss is endpoints[0]
    assert not dangling and dangling == ([], None)
    for decision in (matched, near, dangling):
        assert bool(decision) == bool(decision.edges)


def test_weave_walks_the_endpoint_trie_once_per_remote_call(monkeypatch):
    walks = []
    hits = EndpointIndex.hits

    def counted(self, segs, service):
        walks.append(segs)
        return hits(self, segs, service)

    monkeypatch.setattr(EndpointIndex, "hits", counted)
    calls = [
        _call("GET", "http://users/api/users", line=1),
        _call("GET", "http://users/api/orders", line=2),
        _call("POST", "http://users/api/users", line=3),
    ]
    system = weave([
        ServiceIr(service_name="caller", remote_calls=calls),
        ServiceIr(service_name="users", endpoints=[_endpoint("users", "GET", ["/api/users"])]),
    ])
    assert [edge.call for edge in system.comm_edges] == calls[:1]
    assert [(call, near is not None) for call, near in system.unmatched_calls] == [
        (calls[1], False), (calls[2], True)]
    assert len(walks) == len(calls)


def _oracle_candidates(call, index, inventory):
    """The linear scan's candidates: (call segments, every endpoint entry
    the call may reach, host penalty)."""
    host, path = split_host(call.url_template)
    segs = _split_path(path)
    if host is None:
        return segs, index.entries, 1.0
    target = inventory.get(host)
    if target is None:
        return segs, index.entries, 0.5
    return segs, [entry for entry in index.entries if entry[0].service == target], 1.0


def _oracle_best_template(segs, templates):
    best = 0.0
    best_template = None
    for template, ep_segs in templates:
        score = _segment_score(segs, ep_segs)
        if score > best:
            best = score
            best_template = template
    return best, best_template


def _oracle_match(call, index, inventory, config):
    """Call matching as a scan of every candidate endpoint and template."""
    segs, candidates, host_penalty = _oracle_candidates(call, index, inventory)
    scored = []
    for endpoint, templates in candidates:
        factor = weave_module._method_factor(call.http_method, endpoint.http_method)
        if factor is None:
            continue
        best, template = _oracle_best_template(segs, templates)
        total = best * factor
        if total > 0.0 and template is not None:
            scored.append((total, endpoint, template))
    if not scored:
        return []
    top = max(score for score, _, _ in scored)
    if top < config.path_threshold:
        return []
    ties = [(endpoint, template) for score, endpoint, template in scored if score == top]
    edges = [
        weave_module.CommEdge(call=call, endpoint=endpoint, matched_url_template=template,
                              score=top, confidence=host_penalty / len(ties),
                              ambiguous=len(ties) > 1)
        for endpoint, template in ties
    ]
    edges.sort(key=weave_module._edge_key)
    return edges


def _oracle_near_miss(call, index, inventory, config):
    segs, candidates, _penalty = _oracle_candidates(call, index, inventory)
    near_misses = []
    for endpoint, templates in candidates:
        if weave_module._method_factor(call.http_method, endpoint.http_method) is not None:
            continue
        score, _template = _oracle_best_template(segs, templates)
        if score >= config.path_threshold:
            near_misses.append(
                ((-score, endpoint.service, endpoint.span.file, endpoint.span.line_start),
                 endpoint)
            )
    if not near_misses:
        return None
    return min(near_misses, key=lambda row: row[0])[1]


_MATCH_SERVICES = ("users", "orders", "items")
_MATCH_SEGMENTS = st.sampled_from(["api", "users", "7", "", "{id}", "{key}", "{*}", "{", "x}"])
_MATCH_PATHS = st.builds(
    lambda lead, segs, trail: lead + "/".join(segs) + trail,
    st.sampled_from(["", "/", "//"]),
    st.lists(_MATCH_SEGMENTS, max_size=4),
    st.sampled_from(["", "/", "//"]),
)
_MATCH_ENDPOINTS = st.lists(
    st.tuples(
        st.sampled_from(_MATCH_SERVICES),
        st.sampled_from(["GET", "POST", "ANY"]),
        st.lists(_MATCH_PATHS, min_size=1, max_size=3),
        st.sampled_from(["src/A.java", "src/B.java"]),
        st.integers(1, 3),
    ),
    max_size=12,
)
_MATCH_CALLS = st.lists(
    st.tuples(
        st.sampled_from(_MATCH_SERVICES + ("gateway", "user-farm.example.com", None)),
        st.sampled_from(["GET", "POST", "UNKNOWN"]),
        _MATCH_PATHS,
    ),
    min_size=1,
    max_size=6,
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_MATCH_ENDPOINTS, _MATCH_CALLS, st.sampled_from([0.8, 0.5, 0.25]))
def test_trie_matching_equals_linear_scan(endpoint_rows, call_rows, threshold):
    endpoints = [
        _endpoint(service, method, templates, owner=f"Ctl{i}", handler=f"h{i}", file=file,
                  line=line)
        for i, (service, method, templates, file, line) in enumerate(endpoint_rows)
    ]
    index = EndpointIndex(endpoints)
    inventory = build_inventory(None, list(_MATCH_SERVICES))
    config = WeaveConfig(path_threshold=threshold)
    for service in (None,) + _MATCH_SERVICES:
        for _host, _method, path in call_rows:
            segs = _split_path(path)
            assert index.hits(segs, service) == [
                (position, template_position)
                for position, (endpoint, templates) in enumerate(index.entries)
                if service is None or endpoint.service == service
                for template_position, (_template, ep_segs) in enumerate(templates)
                if _segment_score(segs, ep_segs) > 0
            ]
    for host, method, path in call_rows:
        call = _call(method, path if host is None else f"http://{host}/{path}")
        decision = match_call_to_endpoints(call, index, inventory, config)
        assert decision.edges == _oracle_match(call, index, inventory, config)
        assert bool(decision) == bool(decision.edges)
        assert decision.near_miss is (
            None if decision.edges else _oracle_near_miss(call, index, inventory, config))


def _event_ir(service, direction, topic, component="Comp", method="m"):
    return ServiceIr(
        service_name=service,
        event_ops=[
            EventOp(
                direction=direction,
                topic=topic,
                service=service,
                component=component,
                method=method,
                span=SourceSpan("src/X.java", 3, 3),
            )
        ],
    )


def test_match_events_literal_topic():
    edges, warnings = match_events(
        [
            _event_ir("orders", DIRECTION_PUBLISH, "order.created"),
            _event_ir("shipping", DIRECTION_SUBSCRIBE, "order.created"),
        ]
    )
    assert edges == [("orders", "shipping", "order.created")]
    assert warnings == []


def test_match_events_wildcards_warn():
    edges, warnings = match_events(
        [
            _event_ir("orders", DIRECTION_PUBLISH, "{*}"),
            _event_ir("shipping", DIRECTION_SUBSCRIBE, "{*}"),
        ]
    )
    assert edges == []
    assert len(warnings) == 2


def test_match_events_publish_without_subscriber_notes():
    edges, warnings = match_events([_event_ir("orders", DIRECTION_PUBLISH, "order.created")])
    assert edges == []
    assert len(warnings) == 1
    assert "order.created" in warnings[0]


def test_weave_rejects_duplicate_service_names():
    with pytest.raises(DuplicateServiceError):
        weave([ServiceIr(service_name="a"), ServiceIr(service_name="a")])


def test_weave_topology_edges_filtered_to_analyzed_services():
    topology = parse_compose(
        """
services:
  a:
    depends_on: [b, kafka]
  b:
    image: x
  kafka:
    image: bitnami/kafka
"""
    )
    system = weave(
        [ServiceIr(service_name="a"), ServiceIr(service_name="b")], topology=topology
    )
    assert system.topology_edges == [("a", "b", "depends_on")]


def test_weave_is_order_insensitive():
    endpoints = [_endpoint("users", "GET", ["/api/users/{id}"])]
    irs = [
        ServiceIr(service_name="users", endpoints=endpoints),
        ServiceIr(
            service_name="orders",
            remote_calls=[_call("GET", "http://users/api/users/{*}", service="orders")],
        ),
    ]
    forward = weave(list(irs))
    backward = weave(list(reversed(irs)))
    assert SYSTEM_JSON.dump(system_to_json_obj(forward, [], b"{}")) == \
        SYSTEM_JSON.dump(system_to_json_obj(backward, [], b"{}"))
    assert save_context_map(forward.context_map) == save_context_map(backward.context_map)
    assert forward.services == backward.services
    assert [s.service_name for s in forward.services] == ["orders", "users"]
    assert len(forward.comm_edges) == 1
    edge = forward.comm_edges[0]
    assert (edge.from_service, edge.to_service) == ("orders", "users")


def test_weave_metadata_carries_inventory_and_version():
    system = weave([ServiceIr(service_name="solo")])
    assert system.metadata["inventory"] == {"solo": "solo"}
    assert system.metadata["tool_version"] == __version__
    assert system.metadata["warnings"] == []


_ENTITY_WORDS = ("Order", "Customer", "LineItem")
_ENTITY_SUFFIXES = ("", "Dto", "Entity")
_FIELD_NAMES = ("id", "customerId", "total", "createdAt")
_ENDPOINTS_PER_SERVICE = 4
_CALLS_PER_SERVICE = 3


def _scaling_system(n_services, host=None):
    """Services from one fixed vocabulary: the same entities (spelled with a
    per-service suffix) and fields everywhere, and calls to paths of the
    next service through ``host``, or through that service's own name."""
    irs = []
    for i in range(n_services):
        name = f"svc{i:02d}"
        suffix = _ENTITY_SUFFIXES[i % len(_ENTITY_SUFFIXES)]
        entities = [
            _entity(word + suffix, [(f, "long") for f in _FIELD_NAMES], name,
                    file=f"src/{word}.java")
            for word in _ENTITY_WORDS
        ]
        endpoints = [
            _endpoint(name, "GET", [f"/api/{name}/items{k}/{{id}}"], handler=f"h{k}",
                      line=10 * k + 1)
            for k in range(_ENDPOINTS_PER_SERVICE)
        ]
        target = f"svc{(i + 1) % n_services:02d}"
        calls = [
            _call("GET", f"http://{host or target}/api/{target}/items{k}/{{*}}", service=name,
                  line=k + 1)
            for k in range(_CALLS_PER_SERVICE)
        ]
        irs.append(ServiceIr(service_name=name, components=entities, endpoints=endpoints,
                             remote_calls=calls))
    return irs


def _counted_weave(monkeypatch, irs):
    """Weave ``irs`` and count calls of the module-level functions it
    resolves at call time."""
    counts = dict.fromkeys(("entity_similarity", "_segment_score", "split_host"), 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    with monkeypatch.context() as patch:
        for name in counts:
            patch.setattr(weave_module, name, counting(name, getattr(weave_module, name)))
        system = weave(irs)
    return system, counts


def test_weave_work_grows_with_distinct_names_and_target_endpoints(monkeypatch):
    small, big = _scaling_system(8), _scaling_system(16)
    small_system, small_counts = _counted_weave(monkeypatch, small)
    big_system, big_counts = _counted_weave(monkeypatch, big)

    def entity_pairs(irs):
        total = len(_ENTITY_WORDS) * len(irs)
        return (total * total - len(irs) * len(_ENTITY_WORDS) ** 2) // 2

    assert entity_pairs(big) / entity_pairs(small) > 4
    assert len(big_system.context_map.matches) > 4 * len(small_system.context_map.matches)
    # Similarity is computed once per ordered pair of distinct token lists,
    # and the vocabulary is the same at both sizes.
    assert small_counts["entity_similarity"] > 0
    assert big_counts["entity_similarity"] <= 1.1 * small_counts["entity_similarity"]

    for irs, system, counts in ((small, small_system, small_counts),
                                (big, big_system, big_counts)):
        n_calls = _CALLS_PER_SERVICE * len(irs)
        assert len(system.comm_edges) == n_calls
        # Each call scores only the one template its path reaches in its
        # target service's trie ...
        assert counts["_segment_score"] == n_calls
        # ... and endpoint templates are split once, when the index is built.
        assert counts["split_host"] == n_calls + _ENDPOINTS_PER_SERVICE * len(irs)


def test_gateway_calls_score_only_the_templates_their_paths_reach(monkeypatch):
    """Calls through a host outside the inventory widen to every service,
    yet each still scores only the template its path reaches."""
    for n_services in (8, 16):
        system, counts = _counted_weave(monkeypatch, _scaling_system(n_services, "gateway"))
        n_calls = _CALLS_PER_SERVICE * n_services
        assert len(system.comm_edges) == n_calls
        assert all(edge.confidence == 0.5 and not edge.ambiguous
                   for edge in system.comm_edges)
        assert counts["_segment_score"] == n_calls


def test_context_map_compares_only_services_with_entities(monkeypatch):
    """A ring of services without entities makes no service pair; the two
    services that have entities make exactly one."""
    pairs = []

    def counted_combinations(items, r):
        for pair in itertools.combinations(items, r):
            pairs.append(tuple(model.service_name for model in pair))
            yield pair
            if len(pairs) > 10:
                return

    irs = [
        ServiceIr(
            service_name=f"svc{i:04d}",
            endpoints=[_endpoint(f"svc{i:04d}", "GET", [f"/api/svc{i:04d}"])],
            remote_calls=[_call("GET", f"http://svc{(i + 1) % 4000:04d}/api/svc{(i + 1) % 4000:04d}",
                                service=f"svc{i:04d}")],
        )
        for i in range(4000)
    ]
    monkeypatch.setattr(weave_module, "combinations", counted_combinations)
    ring = weave(irs)
    assert len(ring.comm_edges) == 4000
    assert pairs == []

    irs[5].components = [_entity("Order", [("id", "long")], "svc0005")]
    irs[9].components = [_entity("Order", [("id", "long")], "svc0009")]
    ring = weave(irs)
    assert pairs == [("svc0005", "svc0009")]
    assert len(ring.context_map.matches) == 1
    assert len(ring.context_map.bounded_contexts) == 4000
