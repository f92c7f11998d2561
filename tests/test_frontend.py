from __future__ import annotations

import re
import sys
import time
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
    _TYPE_PAT,
    _Brackets,
    _JavaLikeParser,
    _call_node,
    _masked_views,
    _read_annotations,
    _split_args,
    _unquote,
    _url_template_from_expr,
    extract,
)
from microweave.laast import (
    CALL_KIND_EVENT_PUBLISH,
    CALL_KIND_LOCAL,
    CALL_KIND_REMOTE,
    LaastNode,
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


def _annotations(window):
    """``(name, start, end, args)`` of each top-level annotation in ``window``."""
    text, struct, _starts = _masked_views(window)
    found = _read_annotations(_Brackets(text, struct), (0, len(struct)))
    return [(a.name, a.start, a.end, a.args) for a in found]


def test_recognize_annotation_simple_and_valued():
    assert _annotations('@RestController\npublic class A {') == [("RestController", 0, 15, {})]
    assert _annotations('@GetMapping("/x/{id}")') == [("GetMapping", 0, 22, {"value": "/x/{id}"})]


def test_recognize_annotation_multi_value_and_named_args():
    window = '@RequestMapping(value = {"/a", "/b"}, method = RequestMethod.GET)'
    assert _annotations(window) == [
        ("RequestMapping", 0, len(window), {"value": "/a|/b", "method": "GET"})
    ]


def test_recognize_annotation_class_argument_kept_verbatim():
    window = "@Autowired(required = Foo.class)"
    assert _annotations(window) == [("Autowired", 0, len(window), {"required": "Foo.class"})]


def test_read_annotations_marks_unclosed_and_unparseable_arguments():
    assert _annotations('@A(@B("x"), k = v = w) @C(') == [
        ("A", 0, 22, None), ("C", 23, None, None)
    ]


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


def _parse_line_count(text: str) -> int:
    """Python lines executed while parsing ``text``: unlike calls, these
    also count the steps of a loop inside one call."""
    count = 0

    def trace(_frame, _event, _arg):
        nonlocal count
        count += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        _JavaLikeParser(text, "F.java").parse()
    finally:
        sys.settrace(previous)
    return count


def test_unclosed_client_call_heads_parse_in_linear_work():
    # Each head's ( never closes, so matching it from the head would scan to
    # the end of the body: a loop of no calls, which only the line count sees.
    def source(n):
        body = "        restTemplate.getForObject(\n" * n
        return f"public class F {{\n    public void m() {{\n{body}    }}\n}}\n"

    for counter in (_parse_op_count, _parse_line_count):
        counts = [counter(source(n)) for n in (500, 1000, 2000)]
        growth = [later / earlier for earlier, later in zip(counts, counts[1:])]
        assert all(g <= 2.2 for g in growth), (counter.__name__, counts, growth)


def _extent_line_count(text: str) -> int:
    """Python lines executed in ``_signature_extent`` while parsing ``text``."""
    count = 0

    def count_lines(_frame, _event, _arg):
        nonlocal count
        count += 1
        return count_lines

    def trace(frame, _event, _arg):
        return count_lines if frame.f_code is _JavaLikeParser._signature_extent.__code__ else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        _JavaLikeParser(text, "F.java").parse()
    finally:
        sys.settrace(previous)
    return count


def test_member_head_extents_take_work_independent_of_the_lines_after_them():
    # Every "foo(" stays open, so scanning for the head's end would read up to
    # 30 lines after each: 31 times the work of a head closed on its own line.
    def source(n, line):
        return "public class F {\n" + line * n + "}\n"

    counts = {
        (n, line): _extent_line_count(source(n, line))
        for n in (2000, 8000)
        for line in ("    foo(\n", "    foo();\n")
    }
    for line in ("    foo(\n", "    foo();\n"):
        assert counts[8000, line] <= 4.4 * counts[2000, line], counts
    for n in (2000, 8000):
        assert counts[n, "    foo(\n"] <= counts[n, "    foo();\n"], counts


def _best_parse_seconds(text: str) -> tuple[float, LaastNode]:
    """The best of three wall times parsing ``text``, and the last tree."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        unit = _JavaLikeParser(text, "F.java").parse()
        times.append(time.perf_counter() - start)
    return min(times), unit


def test_closed_nested_client_call_heads_parse_in_linear_time():
    # Each head's arguments hold every later head.  Copying them once per
    # level is quadratic, but each copy is one C call, so neither the call
    # count nor the line count sees it: only the clock does.
    def source(n):
        body = "        restTemplate.getForObject(\n" * n + "        " + ", String.class)" * n
        return f"public class F {{\n    public void m() {{\n{body};\n    }}\n}}\n"

    small, _unit = _best_parse_seconds(source(2000))
    large, unit = _best_parse_seconds(source(8000))
    assert large / small < 7, (small, large)
    calls = [n for n, _a in _iter(unit) if n.kind == NodeKind.CALL]
    assert len(calls) == 8000


@pytest.mark.parametrize("member", ["    @A(x = {)\n", "    @A({) int x;\n"])
def test_annotations_holding_an_unclosed_brace_parse_in_linear_work(member):
    # Consuming each annotation removes a { that every later line's depth had
    # counted, so the depths of all later lines change with each one.
    counts = [_parse_line_count(f"public class F {{\n{member * n}}}\n") for n in (1000, 2000, 4000)]
    growth = [later / earlier for earlier, later in zip(counts, counts[1:])]
    assert all(g <= 2.2 for g in growth), (counts, growth)


def _nested_array_annotation(levels: int, on_param: bool) -> str:
    """A handler whose ``@GetMapping`` (or whose parameter's
    ``@RequestParam``) holds ``"/x"`` in arrays nested ``levels`` deep."""
    value = "{" * levels + '"/x", "/y"' + "}" * levels
    if on_param:
        head = (f'    @GetMapping("/a")\n'
                f"    public String get(@RequestParam(value = {value}) String q)")
    else:
        head = f"    @GetMapping(value = {value})\n    public String get(String q)"
    return f'@RestController\npublic class F {{\n{head} {{\n        return q;\n    }}\n}}\n'


@pytest.mark.parametrize("on_param", [False, True])
def test_nested_annotation_arrays_flatten_in_linear_work(on_param):
    counts = [_parse_line_count(_nested_array_annotation(n, on_param)) for n in (250, 500, 1000)]
    growth = [later / earlier for earlier, later in zip(counts, counts[1:])]
    assert all(g <= 2.2 for g in growth), (counts, growth)
    unit = _JavaLikeParser(_nested_array_annotation(2000, on_param), "F.java").parse()
    (method,) = [n for n, _a in _iter(unit) if n.kind == NodeKind.METHOD_DECL]
    holder = method.children[1] if on_param else method
    assert holder.children[0].attributes == {"value": "/x|/y"}


@pytest.mark.parametrize("value, expected", [
    ('{{"a", "b"}, "c"}', "a|b|c"),
    ('{{}, "c"}', "|c"),
    ('{{}, {}}', "|"),
    ("{}", ""),
    ('{{{"a"}}, {x.Y.Z, Foo.class}}', "a|Z|Foo.class"),
])
def test_nested_annotation_arrays_join_every_value(value, expected):
    window = f"@A(v = {value})"
    assert _annotations(window) == [("A", 0, len(window), {"v": expected})]


# The character loops the bracket table replaced, as they were, kept as its
# oracles.  ``_find_close_brace`` and ``_signature_extent`` were parser
# methods; here they take the view they read.

def _oracle_balanced_parens(struct: str, open_idx: int) -> int | None:
    """Given the index of ``(`` in a structural view, return the index just
    past the matching ``)``."""
    depth = 0
    for i in range(open_idx, len(struct)):
        c = struct[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return None


def _oracle_find_close_brace(struct: str, open_offset: int) -> int | None:
    depth = 0
    for i in range(open_offset, len(struct)):
        c = struct[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
    return None


_ORACLE_NESTING = {"(": 1, "[": 1, "{": 1, ")": -1, "]": -1, "}": -1}


def _oracle_split_top_level(text: str, struct: str, sep: str) -> list[tuple[str, str]]:
    """Split both views on a separator character outside brackets."""
    parts: list[tuple[str, str]] = []
    depth = start = 0
    for i, c in enumerate(struct):
        if c == sep and depth == 0:
            parts.append((text[start:i], struct[start:i]))
            start = i + 1
        else:
            depth += _ORACLE_NESTING.get(c, 0)
    parts.append((text[start:], struct[start:]))
    return parts


def _oracle_signature_extent(lines: list[str], lineno: int, limit: int) -> int | None:
    """Last line of a declaration head starting at ``lineno``: the line
    carrying ``{`` or ``;`` at paren depth 0.  None when the line has no
    call-shaped head."""
    if "(" not in lines[lineno - 1]:
        return None
    depth = 0
    for j in range(lineno, min(limit, lineno + 30) + 1):
        for ch in lines[j - 1]:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif depth == 0 and ch in "{;":
                return j
    return None


def _past(close: int | None) -> int | None:
    return None if close is None else close + 1


@settings(derandomize=True, max_examples=300)
@given(st.text(alphabet="(()) x\n", max_size=40))
def test_paren_table_matches_scanning_from_each_open(struct):
    brackets = _Brackets(struct, struct)
    opens = [i for i, c in enumerate(struct) if c == "("]
    assert [_past(brackets.close(i)) for i in opens] == [
        _oracle_balanced_parens(struct, i) for i in opens
    ]
    assert all(brackets.close(i) is None for i, c in enumerate(struct) if c != "(")


# Unclosed brackets, mismatched kinds, extra closers, separators, literals
# holding brackets and separators, comments, and annotation windows.
_BRACKET_TEXT = st.lists(
    st.sampled_from([
        "(", ")", "[", "]", "{", "}", "( { ) }", "} ) ]", ",", "=", "+", ";", "a", " ", "\n",
        '"(,{"', "'}'", "/* ) */", "// ,}\n", "@A(", '@B(x = {"a", ("b")})', "@C({)",
        "@D(v = {{1, 2}, 3})", "void m(int a, String b) {", "f(x);",
    ]),
    max_size=40,
).map("".join)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_BRACKET_TEXT, st.data())
def test_bracket_table_matches_old_loops(source, data):
    text, struct, _starts = _masked_views(source)
    brackets = _Brackets(text, struct)
    swapped = struct.translate(str.maketrans("[]()", "()  "))
    for i, c in enumerate(struct):
        if c == "{":
            assert brackets.close(i) == _oracle_find_close_brace(struct, i)
        elif c == "(":
            assert _past(brackets.close(i)) == _oracle_balanced_parens(struct, i)
        elif c == "[":
            assert _past(brackets.close(i)) == _oracle_balanced_parens(swapped, i)
        else:
            assert brackets.close(i) is None
    start = data.draw(st.integers(0, len(struct)))
    end = data.draw(st.integers(start, len(struct)))
    for sep in ",=+":
        parts = brackets.split_top_level((start, end), sep)
        assert [(text[a:b], struct[a:b]) for a, b in parts] == _oracle_split_top_level(
            text[start:end], struct[start:end], sep
        )
    lines = struct.split("\n")
    parser = _JavaLikeParser(source, "F.java")
    for lineno in range(1, len(lines) + 1):
        for limit in (lineno, len(lines)):
            assert parser._signature_extent(lineno, limit) == _oracle_signature_extent(
                lines, lineno, limit
            )


# The character-loop maskers the one-pass lexer replaced, kept as its oracle,
# with a state added for text blocks.


def _oracle_mask_comments(text: str) -> str:
    out = list(text)
    i, n = 0, len(text)
    state = "code"  # code | line | block | text block | str | char
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
            if text.startswith('"""', i):
                state = "text block"
                i += 3
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
        elif state == "text block":
            if c == "\\":
                i += 2
                continue
            if text.startswith('"""', i):
                state = "code"
                i += 3
                continue
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
            if text.startswith('"""', i):
                state = "text block"
                i += 3
                continue
            if c == '"':
                state = "str"
            elif c == "'":
                state = "char"
            i += 1
        elif state == "text block":
            if c == "\\" and i + 1 < n:
                out[i] = " "
                if text[i + 1] != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if text.startswith('"""', i):
                state = "code"
                i += 3
                continue
            if c != "\n":
                out[i] = " "
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
         "a", " ", "\t", "é", '"""']
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


def _blanked(view: str, start: int, end: int) -> str:
    """``view`` with chars [start, end) blanked but for their newlines."""
    return view[:start] + "".join(c if c == "\n" else " " for c in view[start:end]) + view[end:]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_LEXER_TEXT, st.data())
def test_mask_range_matches_full_recompute(source, data):
    # Each range starts where the parser would consume from: what is left of
    # a line at or after the cursor.  From that line on, reading each line
    # from the cursor, and every line's depth, must give what the views with
    # the consumed ranges blanked give.
    parser = _JavaLikeParser(source, "X.java")
    text = _oracle_mask_comments(source)
    struct = _oracle_mask_strings(text)
    n_lines = struct.count("\n") + 1
    for _ in range(data.draw(st.integers(1, 4))):
        lineno = data.draw(st.integers(parser._line_of(min(parser._cursor, len(source))), n_lines))
        start = parser._rest_of_line(lineno)[0]
        end = data.draw(st.integers(start, len(source) + 2))
        text, struct = _blanked(text, start, end), _blanked(struct, start, end)
        parser._mask_range(start, end)
        views = (parser._brackets.text, parser._brackets.struct)
        for j in range(lineno, n_lines + 1):
            rest_start, rest_end = parser._rest_of_line(j)
            line_start = parser._line_starts[j - 1]
            for view, blanked in zip(views, (text, struct)):
                assert blanked[line_start:rest_end] == (
                    " " * (rest_start - line_start) + view[rest_start:rest_end]
                )
        depths = [parser._depth_at(lineno) for lineno in range(1, n_lines + 1)]
        assert depths == _oracle_depths(struct)


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
    '@RequestMapping(value = {"/a"}) public class F {\n    @A({1}) F(int a) { f(a); }\n'
    '    @B(1) String\n    h() { }\n    @GetMapping("/x") public Item get(String id) {\n',
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


class _CheckedBrackets:
    """A parser's views and bracket table that check each answer against
    the old character loops run on the views with the consumed ranges
    blanked."""

    def __init__(self, parser):
        self._parser = parser
        self._table = parser._brackets
        self.at = self._table.at
        self.terminator = self._table.terminator  # checked through _signature_extent
        self.text, self.struct = self._table.text, self._table.struct

    def close(self, offset):
        got = self._table.close(offset)
        struct = self._parser.blanked[1]
        assert struct[offset] in "{("
        if struct[offset] == "{":
            assert got == _oracle_find_close_brace(struct, offset)
        else:
            assert _past(got) == _oracle_balanced_parens(struct, offset)
        return got

    def split_top_level(self, piece, sep):
        parts = self._table.split_top_level(piece, sep)
        start, end = piece
        text, struct = self._parser.blanked
        assert text[start:end] == self.text[start:end]
        assert struct[start:end] == self.struct[start:end]
        assert [(text[a:b], struct[a:b]) for a, b in parts] == _oracle_split_top_level(
            text[start:end], struct[start:end], sep
        )
        return parts


class _CheckedParser(_JavaLikeParser):
    """A parser whose table lookups, searches, depths and line reads are
    each checked against the old loops on the views with the consumed
    ranges blanked, as blanking them in place left them."""

    def __init__(self, text, relpath):
        super().__init__(text, relpath)
        self.blanked = (self._brackets.text, self._brackets.struct)
        self._brackets = _CheckedBrackets(self)

    def _mask_range(self, start, end):
        assert start >= self._cursor
        self.blanked = tuple(_blanked(view, start, end) for view in self.blanked)
        super()._mask_range(start, end)

    def _rest_of_line(self, lineno):
        start, end = super()._rest_of_line(lineno)
        line_start = self._line_starts[lineno - 1]
        views = (self._brackets.text, self._brackets.struct)
        for view, blanked in zip(views, self.blanked):
            assert blanked[line_start:end] == " " * (start - line_start) + view[start:end]
        return start, end

    def _next(self, chars, start):
        struct = self.blanked[1]
        expected = next(((k, c) for k, c in enumerate(struct) if k >= start and c in chars), None)
        assert super()._next(chars, start) == expected
        return expected

    def _depth_at(self, lineno):
        depth = super()._depth_at(lineno)
        assert depth == _oracle_depths(self.blanked[1])[lineno - 1]
        return depth

    def _signature_extent(self, lineno, limit):
        extent = super()._signature_extent(lineno, limit)
        assert extent == _oracle_signature_extent(self.blanked[1].split("\n"), lineno, limit)
        return extent


_UNBALANCED_ANNOTATIONS = st.sampled_from([
    "@A(x = {)", "@A({) int x;", "@A(})", "@B(", '@C(v = {{"a"}, {}, "b"})', "@D({( } , )})",
    "@E([)", "@F(a = {x, (y}, z)",
])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_JAVA_HEADS, st.lists(_JAVA_FRAGMENTS | _UNBALANCED_ANNOTATIONS, max_size=60),
       st.sampled_from(["", " "]))
def test_table_stays_valid_while_annotations_are_blanked(head, fragments, sep):
    source = head + sep.join(fragments)
    checked = _CheckedParser(source, "F.java")
    plain = _JavaLikeParser(source, "F.java")
    assert save_laast(checked.parse()) == save_laast(plain.parse())
    assert checked.warnings == plain.warnings


# The per-receiver client-call scanners the idiom table replaced, kept as its
# oracle.  They matched heads on the text view, so a head inside a literal was
# a call; the differential test below leaves such heads out.  They call the
# current argument helpers, which take the structural view beside the text,
# and the chain reader that matched each link's parens from its head.

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


_OLD_CHAIN_LINK_RE = re.compile(r"\s*\.\s*([A-Za-z_][\w$]*)\s*")


def _old_read_chain(brackets, text, struct, start):
    """The chain reader that matched each link's parens from its head."""
    links = []
    pos = start
    while True:
        m = _OLD_CHAIN_LINK_RE.match(struct, pos)
        if m is None or m.end() >= len(struct) or struct[m.end()] != "(":
            break
        close = _oracle_balanced_parens(struct, m.end())
        if close is None:
            break
        args = _split_args(brackets, (m.end() + 1, close - 1))
        links.append((m.group(1), args, close))
        pos = close
    return links


_OLD_REMOTE_HEAD_RE = _old_receiver_call_re(
    {*_OLD_TEMPLATE_RECEIVERS, *_OLD_FLUENT_RECEIVERS, *_OLD_TARGET_RECEIVERS}
)
_OLD_PUBLISH_HEAD_RE = _old_receiver_call_re(_OLD_PUBLISH_RECEIVERS)


def _old_find_remote(text, struct, line_of):
    brackets = _Brackets(text, struct)
    calls = []
    warnings = []
    for m in _OLD_REMOTE_HEAD_RE.finditer(text):
        receiver, method = m.group(1), m.group(2)
        open_idx = m.end() - 1
        close = _oracle_balanced_parens(struct, open_idx)
        if close is None:
            continue
        args = _split_args(brackets, (open_idx + 1, close - 1))

        if receiver in _OLD_TEMPLATE_RECEIVERS:
            table = _OLD_TEMPLATE_RECEIVERS[receiver]
            if method not in table or not args:
                continue
            http = table[method]
            template, clean = _url_template_from_expr(brackets, args[0])
            if http == "EXCHANGE":
                http = HTTP_UNKNOWN
                if len(args) >= 2:
                    enum = _HTTP_ENUM_RE.fullmatch(text, *args[1])
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
                enum = _HTTP_ENUM_RE.fullmatch(text, *args[0])
                if enum:
                    http = enum.group(1)
            uri_args = []
            body_args = []
            end = close
            for link, largs, link_end in _old_read_chain(brackets, text, struct, close):
                end = link_end
                if link == "uri" and not uri_args:
                    uri_args = largs
                elif link in ("body", "bodyValue"):
                    body_args.extend(largs)
            if uri_args:
                template, clean = _url_template_from_expr(brackets, uri_args[0])
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
            template, clean = _url_template_from_expr(brackets, args[0])
            arg_count = len(args)
            http = HTTP_UNKNOWN
            end = close
            for link, largs, link_end in _old_read_chain(brackets, text, struct, close):
                end = link_end
                if link == "path" and largs:
                    part, part_clean = _url_template_from_expr(brackets, largs[0])
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


def _old_find_publish(text, struct, line_of):
    brackets = _Brackets(text, struct)
    calls = []
    warnings = []
    for m in _OLD_PUBLISH_HEAD_RE.finditer(text):
        receiver, method = m.group(1), m.group(2)
        if method not in _OLD_PUBLISH_RECEIVERS[receiver]:
            continue
        open_idx = m.end() - 1
        close = _oracle_balanced_parens(struct, open_idx)
        if close is None:
            continue
        args = _split_args(brackets, (open_idx + 1, close - 1))
        topic = _unquote(brackets, args[0]) if args else None
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
    body = slice(start, struct.index("}", start))

    def line_of(pos):
        return bisect_right(starts, start + pos)

    remote, remote_warnings = _old_find_remote(text[body], struct[body], line_of)
    publish, publish_warnings = _old_find_publish(text[body], struct[body], line_of)
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


# The annotation scanners the one-walk reader replaced, kept as its oracle: the
# old helpers, which scanned the text view and honored string literals only,
# and the old class-level and parameter consumers around them.  The windows
# below hold no char literal, no ``@`` in a literal and no unterminated
# literal, where the old scanners and the lexer disagree.

def _old_split_top_level(text: str, sep: str) -> list[str]:
    """Split on a separator character, ignoring separators nested inside
    brackets or string literals."""
    parts: list[str] = []
    depth = 0
    in_str = False
    cur: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if in_str:
            if c == "\\":
                cur.append(text[i : i + 2])
                i += 2
                continue
            if c == '"':
                in_str = False
            cur.append(c)
        elif c == '"':
            in_str = True
            cur.append(c)
        elif c in "([{":
            depth += 1
            cur.append(c)
        elif c in ")]}":
            depth -= 1
            cur.append(c)
        elif c == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
        i += 1
    parts.append("".join(cur))
    return parts


def _old_balanced_parens(text: str, open_idx: int) -> int | None:
    """Given the index of ``(`` in ``text``, return the index just past the
    matching ``)``, honoring nested parens and string literals."""
    depth = 0
    in_str = False
    i, n = open_idx, len(text)
    while i < n:
        c = text[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == '"':
                in_str = False
        elif c == '"':
            in_str = True
        elif c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return None


_OLD_STRING_LIT_RE = re.compile(r'^"((?:[^"\\]|\\.)*)"$')


def _old_unquote(text: str) -> str | None:
    m = _OLD_STRING_LIT_RE.match(text.strip())
    if m is None:
        return None
    return m.group(1).replace('\\"', '"').replace("\\\\", "\\")


def _old_encode_annotation_value(text: str) -> str:
    """Render one annotation argument value as its flat string form.

    String literals lose their quotes; ``{a, b}`` arrays join with ``|``;
    dotted enum references keep only the last segment (``RequestMethod.GET``
    becomes ``GET``); class literals and anything else stay verbatim.
    """
    text = text.strip()
    lit = _old_unquote(text)
    if lit is not None:
        return lit
    if text.startswith("{") and text.endswith("}"):
        inner = text[1:-1]
        return "|".join(
            _old_encode_annotation_value(p) for p in _old_split_top_level(inner, ",") if p.strip()
        )
    if text.endswith(".class"):
        return text
    if re.fullmatch(r"[\w$]+(?:\.[\w$]+)+", text):
        return text.rsplit(".", 1)[1]
    return text


_OLD_ANNOTATION_RE = re.compile(r"@\s*([A-Za-z_][\w$]*)")


def _old_annotation_extents(window: str) -> list[tuple[int, int, str, str | None]]:
    """``(start, end, name, args text or None)`` for each top-level
    annotation occurrence; nested ones are folded into their parent."""
    extents: list[tuple[int, int, str, str | None]] = []
    for m in _OLD_ANNOTATION_RE.finditer(window):
        if m.group(1) == "interface":
            continue
        if extents and m.start() < extents[-1][1]:
            continue
        rest = window[m.end() :]
        stripped = rest.lstrip()
        if not stripped.startswith("("):
            extents.append((m.start(), m.end(), m.group(1), None))
            continue
        open_idx = m.end() + (len(rest) - len(stripped))
        close = _old_balanced_parens(window, open_idx)
        if close is None:
            continue  # reported separately as an error
        extents.append((m.start(), close, m.group(1), window[open_idx + 1 : close - 1].strip()))
    return extents


def _old_annotation_errors(window: str) -> list[tuple[str, str]]:
    """Annotations whose argument list never closes inside the window."""
    errors: list[tuple[str, str]] = []
    for m in _OLD_ANNOTATION_RE.finditer(window):
        if m.group(1) == "interface":
            continue
        rest = window[m.end() :]
        stripped = rest.lstrip()
        if stripped.startswith("("):
            open_idx = m.end() + (len(rest) - len(stripped))
            if _old_balanced_parens(window, open_idx) is None:
                errors.append((m.group(1), f"unparseable arguments for @{m.group(1)}"))
    return errors


def _old_recognize_annotation(window: str) -> tuple[list[tuple[str, dict[str, str]]], list[str]]:
    """Recognize every ``@Name``/``@Name(...)`` occurrence in a text window.

    Returns the recognized ``(name, argument map)`` pairs plus warning
    messages; an annotation whose argument body cannot be parsed still
    yields its name, with empty arguments.
    """
    found: list[tuple[str, dict[str, str]]] = []
    warnings: list[str] = []
    for _start, _end, name, args_text in _old_annotation_extents(window):
        args: dict[str, str] = {}
        ok = True
        for part in _old_split_top_level(args_text or "", ","):
            part = part.strip()
            if not part:
                continue
            kv = _old_split_top_level(part, "=")
            if len(kv) == 2 and re.fullmatch(r"[\w$]+", kv[0].strip()):
                args[kv[0].strip()] = _old_encode_annotation_value(kv[1])
            elif len(kv) == 1:
                args["value"] = _old_encode_annotation_value(part)
            else:
                warnings.append(f"unparseable arguments for @{name}")
                args = {}
                ok = False
                break
        found.append((name, args if ok else {}))
    for name, msg in _old_annotation_errors(window):
        warnings.append(msg)
        found.append((name, {}))
    return found, warnings


def _old_declaration_start(window: str) -> int:
    """Where the first token of ``window`` that is no annotation begins, or
    its end when an annotation before that never closes: all that follows
    such an annotation is its argument list."""
    extents = {start: end for start, end, _name, _args in _old_annotation_extents(window)}
    i = 0
    while i < len(window):
        if window[i].isspace():
            i += 1
        elif i in extents:
            i = extents[i]
        else:
            # An annotation that is no extent is one whose arguments never close.
            m = _OLD_ANNOTATION_RE.match(window, i)
            return len(window) if m and m.group(1) != "interface" else i
    return i


def _old_consume_annotations(
    self, text: str, struct: str, lineno: int, pending: list[LaastNode]
) -> int | None:
    """If the line of the views ``text`` and ``struct`` begins with an
    annotation, parse the annotations of the (possibly multi-line) window
    before its first other token into ``pending`` and return the end of the
    range it blanks from the line's start, after which the caller
    re-examines the line; else None."""
    lines, text_lines = struct.split("\n"), text.split("\n")
    struct_line = lines[lineno - 1]
    if not struct_line.lstrip().startswith("@"):
        return None
    end = lineno
    window_struct = struct_line
    while (
        end < len(lines)
        and window_struct.count("(") > window_struct.count(")")
        and end - lineno < 20
    ):
        end += 1
        window_struct += "\n" + lines[end - 1]
    cut = _old_declaration_start(window_struct)
    extents = [e for e in _old_annotation_extents(window_struct) if e[0] < cut]
    start_off = self._line_starts[lineno - 1]
    window_text = "\n".join(text_lines[lineno - 1 : end])
    if not extents:
        errors = _old_annotation_errors(window_struct) if cut == len(window_struct) else []
        if not errors:
            return None
        for name, msg in errors:
            self._warn(lineno, msg)
            pending.append(
                LaastNode(kind=NodeKind.ANNOTATION, name=name, span=self._span(lineno, end))
            )
        return start_off + len(window_struct)
    for ext_start, ext_end, _name, _args in extents:
        found, warns = _old_recognize_annotation(window_text[ext_start:ext_end])
        for msg in warns:
            self._warn(lineno, msg)
        for name, args in found[:1]:
            pending.append(
                LaastNode(
                    kind=NodeKind.ANNOTATION,
                    name=name,
                    attributes=dict(args),
                    span=self._span(
                        self._line_of(start_off + ext_start),
                        self._line_of(start_off + max(ext_start, ext_end - 1)),
                    ),
                )
            )
    return start_off + max(e for _s, e, _n, _a in extents)


def _old_params(self, params_raw, name, start_line):
    method = LaastNode(kind=NodeKind.METHOD_DECL)
    for param in _old_split_top_level(params_raw, ","):
        param = param.strip()
        if not param:
            continue
        anns, warns = _old_recognize_annotation(param)
        for msg in warns:
            self._warn(start_line, msg)
        bare = param
        for ext_start, ext_end, _n, _a in reversed(_old_annotation_extents(param)):
            bare = bare[:ext_start] + bare[ext_end:]
        bare = " ".join(bare.split())
        pm = re.match(rf"^(?:final\s+)?({_TYPE_PAT})\s+([A-Za-z_][\w$]*)$", bare)
        if pm is None:
            self._warn(start_line, f"unparseable parameter {param!r} in {name}")
            continue
        method.children.append(
            LaastNode(
                kind=NodeKind.PARAM,
                name=pm.group(2),
                attributes={"declared_type": " ".join(pm.group(1).split())},
                children=[
                    LaastNode(
                        kind=NodeKind.ANNOTATION,
                        name=an,
                        attributes=dict(aa),
                        span=self._span(start_line, start_line),
                    )
                    for an, aa in anns
                ],
                span=self._span(start_line, start_line),
            )
        )
    return method.children


_ANNOTATION_SCALARS = st.sampled_from([
    '"/a/{id}"', '"a,b"', '"k = v"', '"(x"', '"x)"', '"{y"', '"}"', '"q\\"r"', '"\\\\"', '""',
    '"a = (b, c)"', '"{\\"k\\": [1, 2]}"', "RequestMethod.GET", "org.x.Kind.A", "Foo.class",
    "java.lang.String.class", "42", "x", "",
])


@st.composite
def _annotation_text(draw, values):
    """``@Name``, or ``@Name(..)`` with values and ``k = v`` pairs, its
    argument list sometimes left open."""
    name = draw(st.sampled_from(["A", "GetMapping", "PathVariable", "interface"]))
    head = "@" + draw(st.sampled_from(["", " "])) + name
    if draw(st.booleans()):
        return head
    keys = st.sampled_from(["", "", "value = ", "path=", "a.b = ", "k = v = "])
    args = draw(st.lists(st.tuples(keys, values), max_size=3))
    sep = draw(st.sampled_from([", ", ",", ",\n        ", "\n, "]))
    close = draw(st.sampled_from([")", ")", ""]))
    gap = draw(st.sampled_from(["", " ", "\n"]))
    return f"{head}{gap}(" + sep.join(key + value for key, value in args) + close


_ANNOTATION_VALUES = st.recursive(
    _ANNOTATION_SCALARS,
    lambda inner: st.lists(inner, max_size=3).map(lambda vs: "{" + ", ".join(vs) + "}")
    | _annotation_text(inner),
    max_leaves=8,
)
_ANNOTATION_WINDOWS = st.builds(
    lambda items, tail: "".join(a + sep for a, sep in items) + tail,
    st.lists(st.tuples(_annotation_text(_ANNOTATION_VALUES),
                       st.sampled_from([" ", "", "\n", "\n    "])), min_size=1, max_size=4),
    st.sampled_from([
        "", "public class A {", "String id", "final Long id", "\nclass B {}",
        "Item post(@RequestBody Item item) {",
    ]),
)


def _rows(nodes):
    return [
        (n.kind, n.name, list(n.attributes.items()), n.span, _rows(n.children)) for n in nodes
    ]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_ANNOTATION_WINDOWS)
def test_annotation_reader_matches_old_scanners(window):
    old, new = _JavaLikeParser(window, "W.java"), _JavaLikeParser(window, "W.java")
    text, struct, _starts = _masked_views(window)
    old_pending, new_pending = [], []
    old_end = _old_consume_annotations(old, text, struct, 1, old_pending)
    assert new._consume_annotations(1, new_pending) == (old_end is not None)
    assert _rows(new_pending) == _rows(old_pending)
    assert new.warnings == old.warnings
    assert [_blanked(view, 0, new._cursor) for view in (text, struct)] == [
        _blanked(view, 0, old_end or 0) for view in (text, struct)
    ]

    old, new = _JavaLikeParser(window, "W.java"), _JavaLikeParser(window, "W.java")
    method = LaastNode(kind=NodeKind.METHOD_DECL, name="m")
    for param in _split_args(new._brackets, (0, len(struct))):
        new._add_param(method, param, 1)
    assert _rows(method.children) == _rows(_old_params(old, text, "m", 1))
    assert new.warnings == old.warnings


def test_extract_char_literal_paren_does_not_end_client_call(tmp_path):
    assert _remote_calls(
        tmp_path, "restTemplate.postForObject(\"http://a/api/x\", wrap(')'), X.class)"
    ) == [("POST", "http://a/api/x", "3")]


def test_extract_annotation_text_in_string_literal_is_no_annotation(tmp_path):
    root = _service_dir(tmp_path)
    _write(root, "src/V.java", 'class V {\n    @Value("@x(")\n    private String v;\n}\n')
    tree_root, report = extract(SourceTree(service_name="svc", root_dir=root))
    (field,) = [n for n in _types(tree_root)["V"].children if n.kind == NodeKind.FIELD_DECL]
    assert [(a.name, a.attributes) for a in field.children] == [("Value", {"value": "@x("})]
    assert report.warnings == []


def test_extract_declarations_sharing_a_line_with_their_annotations(tmp_path):
    root = _service_dir(tmp_path)
    _write(root, "src/S.java", """@RestController @RequestMapping({"/s"}) public class S {
    @Autowired(required = true) private Repo repo;
    @GetMapping("/x") public Item get(String id) { return repo.find(id); }
}
""")
    tree_root, report = extract(SourceTree(service_name="svc", root_dir=root))
    (s,) = _types(tree_root).values()
    assert [
        (n.kind, n.name, [(a.name, a.attributes) for a in n.children
                          if a.kind == NodeKind.ANNOTATION])
        for n in [s, *s.children]
    ] == [
        (NodeKind.TYPE_DECL, "S", [("RestController", {}), ("RequestMapping", {"value": "/s"})]),
        (NodeKind.ANNOTATION, "RestController", []),
        (NodeKind.ANNOTATION, "RequestMapping", []),
        (NodeKind.FIELD_DECL, "repo", [("Autowired", {"required": "true"})]),
        (NodeKind.METHOD_DECL, "get", [("GetMapping", {"value": "/x"})]),
    ]
    (param,) = [n for n in s.children[-1].children if n.kind == NodeKind.PARAM]
    assert (param.name, param.attributes) == ("id", {"declared_type": "String"})
    assert report.warnings == []


def test_extract_char_literal_comma_in_parameter_annotation(tmp_path):
    root = _service_dir(tmp_path)
    _write(root, "src/P.java", """class P {
    @GetMapping("/{id}")
    public String get(@PathVariable(',') String id, int n) { return id; }
}
""")
    tree_root, report = extract(SourceTree(service_name="svc", root_dir=root))
    (get,) = [n for n in _types(tree_root)["P"].children if n.kind == NodeKind.METHOD_DECL]
    params = [n for n in get.children if n.kind == NodeKind.PARAM]
    assert [(p.name, [(a.name, a.attributes) for a in p.children]) for p in params] == [
        ("id", [("PathVariable", {"value": "','"})]), ("n", []),
    ]
    assert report.warnings == []


def test_extract_text_block_braces_do_not_hide_later_handler(tmp_path):
    root = _service_dir(tmp_path)
    _write(root, "src/Q.java", """class Q {
    String q = \"\"\"
      select {
      \"\"\";
    @GetMapping("/x")
    public String get() { return q; }
}
""")
    tree_root, report = extract(SourceTree(service_name="svc", root_dir=root))
    members = _types(tree_root)["Q"].children
    assert [(n.kind, n.name) for n in members] == [
        (NodeKind.FIELD_DECL, "q"), (NodeKind.METHOD_DECL, "get"),
    ]
    get = members[1]
    assert (get.span.line_start, get.span.line_end) == (6, 6)
    assert [(a.name, a.attributes) for a in get.children] == [("GetMapping", {"value": "/x"})]
    assert report.warnings == []
