from __future__ import annotations

import pytest

from microweave.errors import MicroweaveError
from microweave.frontend import SourceTree, extract
from microweave.matchers import (
    DIRECTION_PUBLISH,
    DIRECTION_SUBSCRIBE,
    JAXRS_LIKE,
    MatcherRule,
    ROLE_CONTROLLER,
    ROLE_ENTITY,
    ROLE_REPOSITORY,
    ROLE_SERVICE,
    classify,
    default_ruleset,
    join_path,
    run_matchers,
    validate_ruleset,
)


def _extract(tmp_path, files, convention="SpringLike"):
    root = tmp_path / "svc"
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    tree, _report = extract(SourceTree(service_name="svc", root_dir=root))
    return run_matchers(tree, default_ruleset(convention), "svc", convention=convention)


def test_validate_ruleset_rejects_unknown_role():
    with pytest.raises(MicroweaveError, match="unknown role"):
        validate_ruleset([MatcherRule("wizard", ("X",), (), priority=1)])


def test_validate_ruleset_rejects_triggerless_rule():
    with pytest.raises(MicroweaveError, match="trigger"):
        validate_ruleset([MatcherRule(ROLE_SERVICE, (), (), priority=1)])


def test_validate_ruleset_rejects_duplicate_priority():
    rules = [
        MatcherRule(ROLE_SERVICE, ("Service",), (), priority=5),
        MatcherRule(ROLE_ENTITY, ("Entity",), (), priority=5),
    ]
    with pytest.raises(MicroweaveError, match="duplicate priority"):
        validate_ruleset(rules)


def test_default_ruleset_passes_validation():
    validate_ruleset(default_ruleset())
    validate_ruleset(default_ruleset(JAXRS_LIKE))


def test_classify_prefers_higher_priority_on_double_match(tmp_path):
    out = _extract(
        tmp_path,
        {
            "src/A.java": """
@RestController
@Service
public class MixedController {
}
"""
        },
    )
    assert [c.role for c in out.components] == [ROLE_CONTROLLER]


def test_classify_suffix_matches_anywhere_in_name(tmp_path):
    out = _extract(
        tmp_path,
        {"src/A.java": "public class OrderServiceImpl {\n}\n"},
    )
    assert [(c.role, c.name) for c in out.components] == [
        (ROLE_SERVICE, "OrderServiceImpl")
    ]


def test_classify_none_becomes_plain_type(tmp_path):
    out = _extract(tmp_path, {"src/A.java": "public class Money {\n}\n"})
    assert out.components == []
    assert [t.name for t in out.plain_types] == ["Money"]


def test_classify_returns_rule_object():
    rules = default_ruleset()
    from microweave.laast import LaastNode, NodeKind

    node = LaastNode(kind=NodeKind.TYPE_DECL, name="CartRepository")
    rule = classify(node, rules)
    assert rule is not None and rule.component_role == ROLE_REPOSITORY


def test_join_path_cases():
    assert join_path("", "") == "/"
    assert join_path("/api/", "/x/") == "/api/x"
    assert join_path("/api", "") == "/api"
    assert join_path("api", "x/{id}") == "/api/x/{id}"


def test_endpoint_prefix_join_and_param_kinds(tmp_path):
    out = _extract(
        tmp_path,
        {
            "src/A.java": """
@RestController
@RequestMapping("/api/pets")
public class PetController {
    @GetMapping("/{id}")
    public Pet get(@PathVariable("id") long id, @RequestParam("full") boolean full) {
        return null;
    }

    @PostMapping
    public Pet create(@RequestBody Pet pet) {
        return null;
    }

    @PutMapping("/{id}/name")
    public Pet rename(@PathVariable("id") long id, String name, Pet extra) {
        return null;
    }
}
"""
        },
    )
    assert len(out.endpoints) == 3
    get, create, rename = sorted(out.endpoints, key=lambda e: e.handler.name != "get")[
        0
    ], [e for e in out.endpoints if e.handler.name == "create"][0], [
        e for e in out.endpoints if e.handler.name == "rename"
    ][0]
    assert get.http_method == "GET"
    assert get.url_templates == ["/api/pets/{id}"]
    assert get.params == [("id", "path", "long"), ("full", "query", "boolean")]
    assert create.http_method == "POST"
    assert create.url_templates == ["/api/pets"]
    assert create.params == [("pet", "body", "Pet")]
    assert rename.url_templates == ["/api/pets/{id}/name"]
    assert ("name", "query", "String") in rename.params
    assert ("extra", "body", "Pet") in rename.params


def test_endpoint_multi_value_mapping_produces_all_templates(tmp_path):
    out = _extract(
        tmp_path,
        {
            "src/A.java": """
@RestController
@RequestMapping("/api/pets")
public class PetController {
    @RequestMapping(value = {"/by-tag/{tag}", "/tag/{tag}"}, method = RequestMethod.GET)
    public Pet byTag(@PathVariable("tag") String tag) {
        return null;
    }
}
"""
        },
    )
    assert len(out.endpoints) == 1
    endpoint = out.endpoints[0]
    assert endpoint.http_method == "GET"
    assert endpoint.url_templates == ["/api/pets/by-tag/{tag}", "/api/pets/tag/{tag}"]


def test_endpoint_request_mapping_without_method_is_any(tmp_path):
    out = _extract(
        tmp_path,
        {
            "src/A.java": """
@RestController
public class RootController {
    @RequestMapping("/ping")
    public String ping() {
        return "pong";
    }
}
"""
        },
    )
    assert [e.http_method for e in out.endpoints] == ["ANY"]
    assert out.endpoints[0].url_templates == ["/ping"]


def test_endpoint_verbs_map_to_http_methods(tmp_path):
    out = _extract(
        tmp_path,
        {
            "src/A.java": """
@RestController
public class VerbController {
    @GetMapping("/g")
    public void g() {}
    @PostMapping("/p")
    public void p() {}
    @PutMapping("/u")
    public void u() {}
    @DeleteMapping("/d")
    public void d() {}
    @PatchMapping("/m")
    public void m() {}
}
"""
        },
    )
    got = {e.url_templates[0]: e.http_method for e in out.endpoints}
    assert got == {"/g": "GET", "/p": "POST", "/u": "PUT", "/d": "DELETE", "/m": "PATCH"}


def test_handler_sharing_a_line_with_its_mapping_keeps_its_parameter_annotations(tmp_path):
    out = _extract(
        tmp_path,
        {
            "src/A.java": """
@RestController
@RequestMapping("/items")
public class ItemController {
    @GetMapping("/{id}")
    public Item get(@PathVariable("id") String id) {
        return null;
    }

    @PostMapping("/x") public Item post(@RequestBody Item item) {
        return item;
    }

    @DeleteMapping("/{id}")
    public void delete(@PathVariable("id") String id) {
    }
}
"""
        },
    )
    assert [(e.http_method, e.url_templates, e.handler.name, e.params) for e in out.endpoints] == [
        ("GET", ["/items/{id}"], "get", [("id", "path", "String")]),
        ("POST", ["/items/x"], "post", [("item", "body", "Item")]),
        ("DELETE", ["/items/{id}"], "delete", [("id", "path", "String")]),
    ]
    assert out.warnings == []


def test_endpoints_only_lift_from_controllers(tmp_path):
    out = _extract(
        tmp_path,
        {
            "src/A.java": """
@Service
public class SneakyService {
    @GetMapping("/hidden")
    public void hidden() {}
}
"""
        },
    )
    assert out.endpoints == []


def test_jaxrs_endpoint_lifting(tmp_path):
    out = _extract(
        tmp_path,
        {
            "src/A.java": """
@Path("/api/books")
public class BookResource {
    @GET
    @Path("/{isbn}")
    public Book find(@PathParam("isbn") String isbn) {
        return null;
    }
}
"""
        },
        convention="JaxRsLike",
    )
    assert len(out.endpoints) == 1
    endpoint = out.endpoints[0]
    assert endpoint.http_method == "GET"
    assert endpoint.url_templates == ["/api/books/{isbn}"]
    assert endpoint.params == [("isbn", "path", "String")]


def test_unbound_template_variable_warns(tmp_path):
    out = _extract(
        tmp_path,
        {
            "src/A.java": """
@RestController
public class LooseController {
    @GetMapping("/items/{itemId}")
    public Item get(long itemId) {
        return null;
    }
}
"""
        },
    )
    assert len(out.endpoints) == 1
    assert len(out.warnings) == 1
    file, line, message = out.warnings[0]
    assert file == "src/A.java"
    assert "{itemId}" in message and "LooseController.get" in message


def test_unbound_variable_warns_once_for_same_named_controllers(tmp_path):
    controller = """
@RestController
public class OrderController {
    @GetMapping("/orders/{id}")
    public Order get(long id) {
        return null;
    }
}
"""
    out = _extract(tmp_path, {"a/OrderController.java": controller,
                              "b/OrderController.java": controller})
    assert [(file, line) for file, line, _message in out.warnings] == [
        ("a/OrderController.java", 5), ("b/OrderController.java", 5),
    ]


def test_remote_calls_carry_caller_context(tmp_path):
    out = _extract(
        tmp_path,
        {
            "src/A.java": """
@Service
public class SyncService {
    private final RestTemplate restTemplate;

    public void push(long id) {
        restTemplate.postForObject("http://peer/api/sync/" + id, null, Void.class);
    }
}
"""
        },
    )
    assert len(out.remote_calls) == 1
    call = out.remote_calls[0]
    assert call.caller_component == "SyncService"
    assert call.caller_method == "push"
    assert call.http_method == "POST"
    assert call.url_template == "http://peer/api/sync/{*}"
    assert call.arg_count == 3


def test_event_ops_publish_and_subscribe(tmp_path):
    out = _extract(
        tmp_path,
        {
            "src/A.java": """
@Service
public class BusService {
    private final KafkaTemplate<String, String> kafkaTemplate;

    @KafkaListener(topics = "stock.changed")
    public void onStock(String payload) {
    }

    public void announce() {
        kafkaTemplate.send("stock.changed", "now");
    }
}
"""
        },
    )
    ops = {(op.direction, op.topic, op.method) for op in out.event_ops}
    assert ops == {
        (DIRECTION_SUBSCRIBE, "stock.changed", "onStock"),
        (DIRECTION_PUBLISH, "stock.changed", "announce"),
    }


def test_subscribe_without_topic_warns_and_uses_wildcard(tmp_path):
    out = _extract(
        tmp_path,
        {
            "src/A.java": """
@Service
public class VagueService {
    @KafkaListener
    public void onAnything(String payload) {
    }
}
"""
        },
    )
    assert [op.topic for op in out.event_ops] == ["{*}"]
    assert len(out.warnings) == 1
    assert "KafkaListener" in out.warnings[0][2]


def test_calls_ignored_outside_components(tmp_path):
    out = _extract(
        tmp_path,
        {
            "src/A.java": """
public class FreeAgent {
    private final RestTemplate restTemplate;

    public void go() {
        restTemplate.getForObject("http://x/y", String.class);
    }
}
"""
        },
    )
    assert out.remote_calls == []
    assert [t.name for t in out.plain_types] == ["FreeAgent"]


def test_outputs_sorted_by_file_then_line(tmp_path):
    out = _extract(
        tmp_path,
        {
            "src/Zed.java": "@Service\npublic class ZedService {\n}\n",
            "src/Abe.java": "@Service\npublic class AbeService {\n}\n",
        },
    )
    assert [c.name for c in out.components] == ["AbeService", "ZedService"]


def test_custom_ruleset_overrides_roles(tmp_path):
    root = tmp_path / "svc"
    (root / "src").mkdir(parents=True)
    (root / "src" / "A.java").write_text(
        "@Handler\npublic class IngestHandler {\n}\n", encoding="utf-8"
    )
    tree, _ = extract(SourceTree(service_name="svc", root_dir=root))
    rules = [MatcherRule(ROLE_CONTROLLER, ("Handler",), (), priority=1)]
    out = run_matchers(tree, rules, "svc")
    assert [(c.role, c.name) for c in out.components] == [
        (ROLE_CONTROLLER, "IngestHandler")
    ]
