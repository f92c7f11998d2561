from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microweave.errors import MicroweaveError
from microweave.frontend import (
    CALL_KIND_ATTR,
    DEFAULT_INCLUDE_GLOBS,
    LAAST_PASSTHROUGH,
    SourceTree,
    _JavaLikeParser,
    _masked_views,
    extract,
    recognize_annotation,
)
from microweave.laast import NodeKind, load_laast, save_laast


def _service_dir(tmp_path, name="svc"):
    root = tmp_path / name
    (root / "src").mkdir(parents=True)
    return root


def _write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def _types(root):
    out = {}
    for unit in root.children:
        for node in unit.children:
            if node.kind == NodeKind.TYPE_DECL:
                out[node.name] = node
    return out


def test_recognize_annotation_simple_and_valued():
    found, warnings = recognize_annotation('@RestController\npublic class A {')
    assert [name for name, _args in found] == ["RestController"]
    assert warnings == []
    found, _ = recognize_annotation('@GetMapping("/x/{id}")')
    assert found == [("GetMapping", {"value": "/x/{id}"})]


def test_recognize_annotation_multi_value_and_named_args():
    found, _ = recognize_annotation(
        '@RequestMapping(value = {"/a", "/b"}, method = RequestMethod.GET)'
    )
    assert found == [("RequestMapping", {"value": "/a|/b", "method": "GET"})]


def test_recognize_annotation_class_argument_kept_verbatim():
    found, _ = recognize_annotation("@Autowired(required = Foo.class)")
    assert found == [("Autowired", {"required": "Foo.class"})]


def _remote_calls(tmp_path, *statements):
    """``(http_method, url_template, arg_count)`` of each remote call that
    ``extract`` finds in one method holding ``statements``, one per line."""
    root = _service_dir(tmp_path)
    body = "".join(f"        {statement};\n" for statement in statements)
    _write(root, "src/Client.java",
           f"public class Client {{\n    public void call() {{\n{body}    }}\n}}\n")
    tree_root, _report = extract(SourceTree(service_name="svc", root_dir=root))
    return [
        (n.attributes["http_method"], n.attributes["url_template"], n.attributes["arg_count"])
        for n, _a in _iter(tree_root)
        if n.kind == NodeKind.CALL and n.attributes[CALL_KIND_ATTR] == "remote"
    ]


def test_recognize_remote_call_rest_template_verbs(tmp_path):
    assert _remote_calls(
        tmp_path,
        'restTemplate.getForObject("http://users/api/users/" + id, User.class)',
        'restTemplate.put("http://u/api/x", body)',
        'restTemplate.delete("http://u/api/x/" + id)',
    ) == [
        ("GET", "http://users/api/users/{*}", "2"),
        ("PUT", "http://u/api/x", "2"),
        ("DELETE", "http://u/api/x/{*}", "1"),
    ]


def test_recognize_remote_call_exchange_reads_method_argument(tmp_path):
    assert _remote_calls(
        tmp_path,
        'restTemplate.exchange("http://u/api/x", HttpMethod.POST, entity, Void.class)',
        'restTemplate.exchange("http://u/api/x", verb, entity, Void.class)',
    ) == [("POST", "http://u/api/x", "4"), ("UNKNOWN", "http://u/api/x", "4")]


def test_recognize_remote_call_web_client_chain(tmp_path):
    assert _remote_calls(
        tmp_path,
        'webClient.post().uri("http://users/api/users").bodyValue(user).retrieve()',
    ) == [("POST", "http://users/api/users", "2")]


def test_recognize_remote_call_jaxrs_target_chain(tmp_path):
    assert _remote_calls(
        tmp_path,
        'client.target("http://users").path("api").path(id).request().get()',
    ) == [("GET", "http://users/api/{*}", "1")]


def test_recognize_remote_call_rejects_unknown_receiver(tmp_path):
    assert _remote_calls(tmp_path, 'helper.getForObject("http://u/api/x", X.class)') == []


def test_extract_controller_service_and_calls(tmp_path):
    root = _service_dir(tmp_path)
    _write(root, "src/A.java", """
package p;

@RestController
@RequestMapping("/api/things")
public class ThingController {
    private final ThingService thingService;

    @GetMapping("/{id}")
    public Thing get(@PathVariable("id") long id) {
        return thingService.find(id);
    }
}
""")
    _write(root, "src/B.java", """
package p;

@Service
public class ThingService {
    private final RestTemplate restTemplate;

    public Thing find(long id) {
        return restTemplate.getForObject("http://other/api/things/" + id, Thing.class);
    }
}
""")
    tree_root, report = extract(SourceTree(service_name="svc", root_dir=root))
    assert tree_root.kind == NodeKind.COMPILATION_UNIT
    assert tree_root.name == "svc"
    assert [u.name for u in tree_root.children] == ["src/A.java", "src/B.java"]
    assert report.files_scanned == 2
    assert report.files_skipped == []
    assert report.nodes_emitted > 0

    types = _types(tree_root)
    controller = types["ThingController"]
    annotations = [c.name for c in controller.children if c.kind == NodeKind.ANNOTATION]
    assert annotations == ["RestController", "RequestMapping"]
    method = [c for c in controller.children if c.kind == NodeKind.METHOD_DECL][0]
    assert method.name == "get"
    assert method.attributes["return_type"] == "Thing"
    params = [c for c in method.children if c.kind == NodeKind.PARAM]
    assert [p.name for p in params] == ["id"]
    assert params[0].attributes["declared_type"] == "long"

    service = types["ThingService"]
    find = [c for c in service.children if c.kind == NodeKind.METHOD_DECL][0]
    calls = [c for c in find.children if c.kind == NodeKind.CALL]
    assert len(calls) == 1
    assert calls[0].attributes[CALL_KIND_ATTR] == "remote"
    assert calls[0].span.file == "src/B.java"


def test_extract_masks_comments_and_strings(tmp_path):
    root = _service_dir(tmp_path)
    _write(root, "src/C.java", """
package p;

// @Service in a comment must not classify anything
/* restTemplate.getForObject("http://x/y", X.class); */
public class Helper {
    private String note = "restTemplate.getForObject(\\"http://x/z\\", X.class)";

    public void run() {
        int a = 1; // brace in comment }
    }
}
""")
    tree_root, report = extract(SourceTree(service_name="svc", root_dir=root))
    types = _types(tree_root)
    helper = types["Helper"]
    assert [c.name for c in helper.children if c.kind == NodeKind.ANNOTATION] == []
    calls = [
        node for node, _anc in _iter(helper) if node.kind == NodeKind.CALL
    ]
    assert calls == []
    assert report.warnings == []


def test_extract_escaped_newline_in_literal_keeps_later_lines(tmp_path):
    root = _service_dir(tmp_path)
    _write(root, "src/C.java", """class C {
    String s = "abc\\
def";
    @GetMapping("/x")
    public String get() { return helper(); }
    String helper() { return ""; }
}
""")
    tree_root, _report = extract(SourceTree(service_name="svc", root_dir=root))
    methods = {
        n.name: n for n in _types(tree_root)["C"].children if n.kind == NodeKind.METHOD_DECL
    }
    get, helper = methods["get"], methods["helper"]
    assert (get.span.line_start, get.span.line_end) == (5, 5)
    assert [c.name for c in get.children if c.kind == NodeKind.ANNOTATION] == ["GetMapping"]
    assert [c.name for c in get.children if c.kind == NodeKind.CALL] == ["helper"]
    assert (helper.span.line_start, helper.span.line_end) == (6, 6)


def _iter(node):
    stack = [(node, ())]
    while stack:
        current, ancestors = stack.pop()
        yield current, ancestors
        for child in reversed(current.children):
            stack.append((child, ancestors + (current,)))


def test_extract_event_publish_and_concat_without_literal(tmp_path):
    root = _service_dir(tmp_path)
    _write(root, "src/D.java", """
public class Emitter {
    private final KafkaTemplate<String, String> kafkaTemplate;
    private final RestTemplate restTemplate;

    public void fire(String topic, String url) {
        kafkaTemplate.send(topic, "x");
        restTemplate.getForObject(url, String.class);
    }
}
""")
    tree_root, report = extract(SourceTree(service_name="svc", root_dir=root))
    emitter = _types(tree_root)["Emitter"]
    nodes = [n for n, _a in _iter(emitter) if n.kind == NodeKind.CALL]
    kinds = sorted(n.attributes[CALL_KIND_ATTR] for n in nodes)
    assert kinds == ["event_publish", "remote"]
    publish = [n for n in nodes if n.attributes[CALL_KIND_ATTR] == "event_publish"][0]
    assert publish.attributes["topic"] == "{*}"
    remote = [n for n in nodes if n.attributes[CALL_KIND_ATTR] == "remote"][0]
    assert remote.attributes["url_template"] == "{*}"
    assert len(report.warnings) == 2


def test_extract_local_calls_require_same_type_resolution(tmp_path):
    root = _service_dir(tmp_path)
    _write(root, "src/E.java", """
public class Worker {
    private final Helper helper;

    public void a() {
        b();
        helper.assist();
        stranger.visit();
        Math.abs(-1);
    }

    public void b() {
    }
}
""")
    tree_root, _report = extract(SourceTree(service_name="svc", root_dir=root))
    worker = _types(tree_root)["Worker"]
    calls = [n for n, _a in _iter(worker) if n.kind == NodeKind.CALL]
    names = sorted(c.name for c in calls)
    assert names == ["assist", "b"]


def test_extract_skips_unreadable_files(tmp_path):
    root = _service_dir(tmp_path)
    (root / "src" / "bad.java").write_bytes(b"\xff\xfe\x00broken")
    _write(root, "src/ok.java", "public class Ok {}\n")
    tree_root, report = extract(SourceTree(service_name="svc", root_dir=root))
    assert report.files_scanned == 1
    assert len(report.files_skipped) == 1
    assert report.files_skipped[0][0] == "src/bad.java"
    assert [u.name for u in tree_root.children] == ["src/ok.java"]


def test_extract_missing_root_raises():
    with pytest.raises(MicroweaveError):
        extract(SourceTree(service_name="svc", root_dir="/nonexistent/nowhere"))


def test_extract_passthrough_reads_saved_trees(tmp_path):
    root = _service_dir(tmp_path)
    source = _service_dir(tmp_path, name="original")
    _write(source, "src/F.java", """
@Service
public class Echo {
    public void ping() {
    }
}
""")
    parsed, _ = extract(SourceTree(service_name="original", root_dir=source))
    unit = parsed.children[0]
    (root / "src" / "echo.laast.json").write_bytes(save_laast(unit))
    tree_root, report = extract(
        SourceTree(service_name="svc", root_dir=root, convention=LAAST_PASSTHROUGH)
    )
    assert report.files_scanned == 1
    assert _types(tree_root)["Echo"] is not None


def test_extract_passthrough_skips_invalid_documents(tmp_path):
    root = _service_dir(tmp_path)
    (root / "src" / "bad.laast.json").write_text("{\"kind\": \"Nope\"}", encoding="utf-8")
    tree_root, report = extract(
        SourceTree(service_name="svc", root_dir=root, convention=LAAST_PASSTHROUGH)
    )
    assert report.files_scanned == 0
    assert len(report.files_skipped) == 1
    assert tree_root.children == []


def test_default_globs_only_match_java():
    assert DEFAULT_INCLUDE_GLOBS == ("**/*.java",)


def test_extract_is_deterministic(tmp_path):
    root = _service_dir(tmp_path)
    _write(root, "src/Z.java", "public class Z {}\n")
    _write(root, "src/A.java", "public class A {}\n")
    first, _ = extract(SourceTree(service_name="svc", root_dir=root))
    second, _ = extract(SourceTree(service_name="svc", root_dir=root))
    assert save_laast(first) == save_laast(second)
    assert [u.name for u in first.children] == ["src/A.java", "src/Z.java"]


def _controller(endpoints: int) -> str:
    handlers = "".join(
        f'    @GetMapping("/items{e}/{{id}}")\n'
        f'    public Item items{e}(@PathVariable("id") String id) {{\n'
        f'        return restTemplate.getForObject("http://svc/api/items{e}/" + id, Item.class);\n'
        "    }\n\n"
        for e in range(endpoints)
    )
    return (
        '@RestController\n@RequestMapping("/api/items")\npublic class ItemController {\n'
        f"    private final RestTemplate restTemplate;\n\n{handlers}}}\n"
    )


def _parse_op_count(text: str) -> int:
    """Python and C function calls made while parsing ``text``."""
    count = 0

    def profile(_frame, event, _arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _JavaLikeParser(text, "ItemController.java").parse()
    finally:
        sys.setprofile(previous)
    return count


def test_parse_work_grows_linearly_with_file_size():
    counts = [_parse_op_count(_controller(n)) for n in (100, 200, 400)]
    growth = [later / earlier for earlier, later in zip(counts, counts[1:])]
    assert all(g <= 2.2 for g in growth), (counts, growth)


# The character-loop maskers the one-pass lexer replaced, kept as its oracle.


def _oracle_mask_comments(text: str) -> str:
    out = list(text)
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                state = "str"
            elif c == "'":
                state = "char"
            i += 1
        elif state == "line":
            if c == "\n":
                state = "code"
            else:
                out[i] = " "
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                out[i] = out[i + 1] = " "
                state = "code"
                i += 2
                continue
            if c != "\n":
                out[i] = " "
            i += 1
        elif state == "str":
            if c == "\\":
                i += 2
                continue
            if c == '"' or c == "\n":
                state = "code"
            i += 1
        else:  # char literal
            if c == "\\":
                i += 2
                continue
            if c == "'" or c == "\n":
                state = "code"
            i += 1
    return "".join(out)


def _oracle_mask_strings(text: str) -> str:
    out = list(text)
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        if state == "code":
            if c == '"':
                state = "str"
            elif c == "'":
                state = "char"
            i += 1
        elif state == "str":
            if c == "\\" and i + 1 < n:
                out[i] = " "
                if text[i + 1] != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c in ('"', "\n"):
                state = "code"
            else:
                out[i] = " "
            i += 1
        else:
            if c == "\\" and i + 1 < n:
                out[i] = " "
                if text[i + 1] != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c in ("'", "\n"):
                state = "code"
            else:
                out[i] = " "
            i += 1
    return "".join(out)


def _oracle_depths(struct: str) -> list[int]:
    depths, depth = [], 0
    for line in struct.split("\n"):
        depths.append(depth)
        depth += line.count("{") - line.count("}")
    return depths


# Pieces rather than single characters, so comment openers and closers and a
# backslash before a newline inside a literal (the one place where the two
# views disagree on newlines) come up often.
_LEXER_TEXT = st.lists(
    st.sampled_from(
        ["//", "/*", "*/", "/", "*", '"', "'", "\\", "\n", '"\\\n', "{", "}", "(", ")", "@",
         "a", " ", "\t", "é"]
    ),
    max_size=60,
).map("".join)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_LEXER_TEXT)
def test_masked_views_match_character_loop_oracle(source):
    text = _oracle_mask_comments(source)
    struct = _oracle_mask_strings(text)
    starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
    assert _masked_views(source) == (text, struct, starts)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_LEXER_TEXT, st.data())
def test_mask_range_matches_full_recompute(source, data):
    parser = _JavaLikeParser(source, "X.java")
    text = _oracle_mask_comments(source)
    struct = _oracle_mask_strings(text)
    for _ in range(data.draw(st.integers(1, 4))):
        start = data.draw(st.integers(0, len(source)))
        end = data.draw(st.integers(start, len(source) + 2))
        masked = "".join(c if c == "\n" else " " for c in text[start:end])
        text = text[:start] + masked + text[end:]
        struct = struct[:start] + masked + struct[end:]
        parser._mask_range(start, end)
        assert "".join(parser._text) == text
        assert "".join(parser._struct) == struct
        assert parser.lines == struct.split("\n")
        assert parser._depth_at == _oracle_depths(struct)


_JAVA_FRAGMENTS = st.sampled_from([
    "@RestController", "@GetMapping(\"/a/{id}\")", "@PostMapping(", "@RequestMapping(value = {",
    "@PathVariable(\"id\")", "@Entity", "public", "private final", "class", "interface",
    "Item", "items", "String", "id", "void", "new", "return", "{", "}", "(", ")", ";", ",", "=",
    "+", "<", ">", "\n", "\n    ", "//", "/*", "*/", "\"", "'", "\\", "\"http://svc/api/x/\"",
    "restTemplate.getForObject(", "webClient.get().uri(", "client.target(", ".path(",
    "kafkaTemplate.send(", "this.", "helper.run(", "Item.class", "é",
    'restTemplate.getForObject("http://svc/api/x/" + id, Item.class);',
    'webClient.post().uri("http://svc/api/x").bodyValue(id).retrieve();',
    'kafkaTemplate.send("topic", id);', "get(id);", "this.get(id);", "new Item(id);",
])


_JAVA_HEADS = st.sampled_from([
    "",
    "@RestController\npublic class F {\n",
    '@RestController\npublic class F {\n    @GetMapping("/x")\n    public Item get(String id) {\n',
])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_JAVA_HEADS, st.lists(_JAVA_FRAGMENTS, max_size=60), st.sampled_from(["", " "]))
def test_extract_survives_random_java_like_text(tmp_path_factory, head, fragments, sep):
    source = head + sep.join(fragments)
    root = tmp_path_factory.mktemp("fuzz")
    _write(root, "src/F.java", source)
    tree, report = extract(SourceTree(service_name="svc", root_dir=root))
    assert report.files_scanned == 1
    n_lines = len(source.split("\n"))
    for node, _ancestors in _iter(tree):
        if node.span is not None:
            assert 1 <= node.span.line_start <= node.span.line_end <= n_lines, node
    assert load_laast(save_laast(tree)) == tree
