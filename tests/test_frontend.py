from __future__ import annotations

import re
import sys
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microweave.errors import MicroweaveError
from microweave.frontend import (
    CALL_KIND_ATTR,
    DEFAULT_INCLUDE_GLOBS,
    HTTP_UNKNOWN,
    LAAST_PASSTHROUGH,
    URL_WILDCARD,
    SourceTree,
    _HTTP_ENUM_RE,
    _JavaLikeParser,
    _balanced_parens,
    _call_node,
    _masked_views,
    _read_chain,
    _split_args,
    _unquote,
    _url_template_from_expr,
    extract,
    recognize_annotation,
)
from microweave.laast import (
    CALL_KIND_EVENT_PUBLISH,
    CALL_KIND_LOCAL,
    CALL_KIND_REMOTE,
    NodeKind,
    SourceSpan,
    load_laast,
    save_laast,
)


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


def test_extract_client_call_text_in_method_literals_is_no_call(tmp_path):
    root = _service_dir(tmp_path)
    _write(root, "src/L.java", """
public class Logger {
    public void run(String topicName, Object x) {
        log.info("retry restTemplate.getForObject(\\"http://b/api/x\\", String.class)");
        String s = "kafkaTemplate.send(topicName, x)";
        char c = 'webClient.get()';
    }
}
""")
    tree_root, report = extract(SourceTree(service_name="svc", root_dir=root))
    kinds = [
        node.attributes[CALL_KIND_ATTR] for node, _anc in _iter(tree_root)
        if node.kind == NodeKind.CALL
    ]
    assert "remote" not in kinds and "event_publish" not in kinds
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


# The per-receiver client-call scanners the idiom table replaced, kept as its
# oracle.  They matched heads on the text view, so a head inside a literal was
# a call; the differential test below leaves such heads out.

_OLD_TEMPLATE_RECEIVERS = {
    "restTemplate": {
        "getForObject": "GET",
        "getForEntity": "GET",
        "postForObject": "POST",
        "postForEntity": "POST",
        "put": "PUT",
        "delete": "DELETE",
        "exchange": "EXCHANGE",
    },
}
_OLD_FLUENT_RECEIVERS = frozenset({"webClient"})
_OLD_TARGET_RECEIVERS = frozenset({"client"})
_OLD_PUBLISH_RECEIVERS = {
    "kafkaTemplate": frozenset({"send"}),
    "rabbitTemplate": frozenset({"convertAndSend"}),
}


def _old_receiver_call_re(receivers) -> re.Pattern:
    return re.compile(
        r"(?<![\w.$])(?:this\s*\.\s*)?("
        + "|".join(re.escape(r) for r in sorted(receivers))
        + r")\s*\.\s*([A-Za-z_][\w$]*)\s*\("
    )


_OLD_REMOTE_HEAD_RE = _old_receiver_call_re(
    {*_OLD_TEMPLATE_RECEIVERS, *_OLD_FLUENT_RECEIVERS, *_OLD_TARGET_RECEIVERS}
)
_OLD_PUBLISH_HEAD_RE = _old_receiver_call_re(_OLD_PUBLISH_RECEIVERS)


def _old_find_remote(text, line_of):
    calls = []
    warnings = []
    for m in _OLD_REMOTE_HEAD_RE.finditer(text):
        receiver, method = m.group(1), m.group(2)
        open_idx = m.end() - 1
        close = _balanced_parens(text, open_idx)
        if close is None:
            continue
        args = _split_args(text[open_idx + 1 : close - 1])

        if receiver in _OLD_TEMPLATE_RECEIVERS:
            table = _OLD_TEMPLATE_RECEIVERS[receiver]
            if method not in table or not args:
                continue
            http = table[method]
            template, clean = _url_template_from_expr(args[0])
            if http == "EXCHANGE":
                http = HTTP_UNKNOWN
                if len(args) >= 2:
                    enum = _HTTP_ENUM_RE.fullmatch(args[1])
                    if enum:
                        http = enum.group(1)
            if not clean:
                warnings.append(
                    (m.start(), f"unparseable URL expression in {receiver}.{method}(...)")
                )
            calls.append(
                _call_node(
                    method,
                    {
                        CALL_KIND_ATTR: CALL_KIND_REMOTE,
                        "http_method": http,
                        "url_template": template,
                        "arg_count": str(len(args)),
                    },
                    SourceSpan("<input>", line_of(m.start()), line_of(close - 1)),
                )
            )
        elif receiver in _OLD_FLUENT_RECEIVERS:
            if method not in ("get", "post", "put", "delete", "patch", "head", "method"):
                continue
            http = method.upper() if method != "method" else HTTP_UNKNOWN
            if method == "method" and args:
                enum = _HTTP_ENUM_RE.fullmatch(args[0])
                if enum:
                    http = enum.group(1)
            uri_args = []
            body_args = []
            end = close
            for link, largs, link_end in _read_chain(text, close):
                end = link_end
                if link == "uri" and not uri_args:
                    uri_args = largs
                elif link in ("body", "bodyValue"):
                    body_args.extend(largs)
            if uri_args:
                template, clean = _url_template_from_expr(uri_args[0])
            else:
                template, clean = URL_WILDCARD, False
            if not clean:
                warnings.append(
                    (m.start(), f"unparseable URL expression in {receiver}.{method}() chain")
                )
            calls.append(
                _call_node(
                    method,
                    {
                        CALL_KIND_ATTR: CALL_KIND_REMOTE,
                        "http_method": http,
                        "url_template": template,
                        "arg_count": str(len(uri_args) + len(body_args)),
                    },
                    SourceSpan("<input>", line_of(m.start()), line_of(end - 1)),
                )
            )
        elif receiver in _OLD_TARGET_RECEIVERS:
            if method != "target" or not args:
                continue
            template, clean = _url_template_from_expr(args[0])
            arg_count = len(args)
            http = HTTP_UNKNOWN
            end = close
            for link, largs, link_end in _read_chain(text, close):
                end = link_end
                if link == "path" and largs:
                    part, part_clean = _url_template_from_expr(largs[0])
                    template = template.rstrip("/") + "/" + part.lstrip("/")
                    clean = clean and part_clean
                elif link in ("get", "post", "put", "delete", "patch"):
                    http = link.upper()
                    arg_count += len(largs)
            if not clean:
                warnings.append(
                    (m.start(), f"unparseable URL expression in {receiver}.target(...) chain")
                )
            calls.append(
                _call_node(
                    "target",
                    {
                        CALL_KIND_ATTR: CALL_KIND_REMOTE,
                        "http_method": http,
                        "url_template": template,
                        "arg_count": str(arg_count),
                    },
                    SourceSpan("<input>", line_of(m.start()), line_of(end - 1)),
                )
            )
    return calls, warnings


def _old_find_publish(text, line_of):
    calls = []
    warnings = []
    for m in _OLD_PUBLISH_HEAD_RE.finditer(text):
        receiver, method = m.group(1), m.group(2)
        if method not in _OLD_PUBLISH_RECEIVERS[receiver]:
            continue
        open_idx = m.end() - 1
        close = _balanced_parens(text, open_idx)
        if close is None:
            continue
        args = _split_args(text[open_idx + 1 : close - 1])
        topic = _unquote(args[0]) if args else None
        if topic is None:
            topic = URL_WILDCARD
            warnings.append((m.start(), f"non-literal topic in {receiver}.{method}(...)"))
        calls.append(
            _call_node(
                method,
                {
                    CALL_KIND_ATTR: CALL_KIND_EVENT_PUBLISH,
                    "topic": topic,
                    "arg_count": str(len(args)),
                },
                SourceSpan("<input>", line_of(m.start()), line_of(close - 1)),
            )
        )
    return calls, warnings


_METHOD_HEAD = "public class F {\n    public void m() {\n        "


def _oracle_client_calls(source):
    """``(calls, warnings)`` of the old scanners for the body of ``m`` in
    ``source``, a body without braces.  The old scan listed every URL
    warning before every topic warning; these come in source order."""
    text, struct, starts = _masked_views(source)
    start = len(_METHOD_HEAD)
    body = text[start : struct.index("}", start)]

    def line_of(pos):
        return bisect_right(starts, start + pos)

    remote, remote_warnings = _old_find_remote(body, line_of)
    publish, publish_warnings = _old_find_publish(body, line_of)
    calls = sorted(remote + publish, key=lambda c: (c.span.line_start, c.span.line_end, c.name))
    warnings = sorted(remote_warnings + publish_warnings, key=lambda w: w[0])
    return (
        [(c.name, list(c.attributes.items()), c.span.line_start, c.span.line_end)
         for c in calls],
        [(line_of(pos), message) for pos, message in warnings],
    )


_URL_ARGS = st.sampled_from([
    '"http://svc/api/x"', '"http://svc/api/x/" + id', 'base + "/api/x"', "url",
    '"http://a/" + "b/c"', '"/api/\\"q\\"/" + id', '"http://svc/api/(x)"', '"/b/"',
])
_TOPIC_ARGS = st.sampled_from(['"orders"', "topic", '"or" + "ders"', '"a,b"'])
_MORE_ARGS = st.sampled_from([
    "", ", X.class", ", HttpMethod.POST, entity, Void.class", ", verb, entity",
    ", org.springframework.http.HttpMethod.DELETE", ", body", ", x, y",
])
_LINK_SEPS = st.sampled_from(["", " ", "\n            ", " /* c */ ", " // c\n            "])


_OWN_LINKS = {
    "webClient": [".uri({url})", ".uri()", ".body(x)", ".bodyValue(x, y)", ".retrieve()"],
    "client": [".path({url})", ".path(id)", ".path()", ".request()", ".get()", ".post(entity)",
               ".put(a, b)", ".delete()", ".patch(x)", ".head()"],
}
_ALL_LINKS = [
    *_OWN_LINKS["webClient"], *_OWN_LINKS["client"], ".bodyToMono(X.class)",
    ".request(MediaType.JSON)", ".getBody()",
]


@st.composite
def _client_call(draw):
    """One client call: a head, then links from its own idiom's chain or
    from any idiom's."""
    receiver = draw(st.sampled_from([
        "restTemplate", "webClient", "client", "kafkaTemplate", "rabbitTemplate",
    ]))
    head = draw(st.sampled_from({
        "restTemplate": ["getForObject", "getForEntity", "postForObject", "postForEntity",
                         "put", "delete", "exchange", "patchForObject"],
        "webClient": ["get", "post", "put", "delete", "patch", "head", "method", "options"],
        "client": ["target", "request"],
        "kafkaTemplate": ["send", "flush"],
        "rabbitTemplate": ["convertAndSend", "send"],
    }[receiver]))
    if receiver == "webClient":
        args = draw(st.sampled_from(["", "HttpMethod.PATCH", "verb", "RequestMethod.GET, x"]))
    else:
        first = draw(_TOPIC_ARGS if receiver.endswith("aTemplate") else _URL_ARGS)
        args = draw(st.sampled_from(["", first])) + draw(_MORE_ARGS)
        args = args.removeprefix(", ")
    this = draw(st.sampled_from(["", "this.", "this . "]))
    own = _OWN_LINKS.get(receiver, [".getBody()"])
    links = draw(st.lists(st.sampled_from(own) | st.sampled_from(_ALL_LINKS), max_size=5))
    call = f"{this}{receiver}.{head}({args})"
    for link in links:
        call += draw(_LINK_SEPS) + link.replace("{url}", draw(_URL_ARGS))
    return call


_BODY_STATEMENTS = st.one_of(
    _client_call(),
    _client_call().map(lambda call: call[:-1]),  # its last paren left open
    _client_call().map(lambda call: f"foo({call}, {call})"),
    st.sampled_from([
        "helper.run(x)", "get(id)", "int a = (b + c", "(", ")",
        '// restTemplate.getForObject("http://c/x", X.class)\n        ',
        '/* kafkaTemplate.send("t", x) */', "return x",
    ]),
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.lists(st.tuples(_BODY_STATEMENTS, st.sampled_from([";\n        ", "; ", " "])),
                max_size=8))
def test_client_calls_match_old_scanners(statements):
    body = "".join(statement + sep for statement, sep in statements)
    source = _METHOD_HEAD + body + "\n    }\n}\n"
    parser = _JavaLikeParser(source, "F.java")
    unit = parser.parse()
    (method,) = [n for n, _a in _iter(unit) if n.kind == NodeKind.METHOD_DECL]
    calls = [
        (c.name, list(c.attributes.items()), c.span.line_start, c.span.line_end)
        for c in method.children
        if c.kind == NodeKind.CALL and c.attributes[CALL_KIND_ATTR] != CALL_KIND_LOCAL
    ]
    warnings = [(line, message) for _file, line, message in parser.warnings]
    assert (calls, warnings) == _oracle_client_calls(source)
