from __future__ import annotations

import json

import pytest

from microweave.errors import MalformedDocument, SchemaViolation
from microweave.laast import (
    LEAF_KINDS,
    LaastNode,
    NodeKind,
    SourceSpan,
    count_nodes,
    load_laast,
    save_laast,
)


def _unit(children=None, attrs=None):
    return LaastNode(
        kind=NodeKind.COMPILATION_UNIT,
        name="Example.java",
        attributes=attrs or {},
        children=children or [],
        span=SourceSpan("Example.java", 1, 10),
    )


def test_kind_inventory_is_closed():
    assert {k.value for k in NodeKind} == {
        "CompilationUnit", "TypeDecl", "FieldDecl", "MethodDecl", "Param",
        "Annotation", "Call", "Literal", "TypeRef", "Block", "Unknown",
    }
    assert LEAF_KINDS == {NodeKind.LITERAL, NodeKind.TYPE_REF}


def test_leaf_kinds_reject_children():
    doc = {"kind": "CompilationUnit",
           "children": [{"kind": "Literal", "name": "x", "children": [{"kind": "Unknown"}]}]}
    with pytest.raises(SchemaViolation) as err:
        load_laast(json.dumps(doc))
    assert str(err.value) == "$.children[0]: leaf kind Literal must not have children"


def test_attribute_order_is_significant_for_equality():
    a = _unit(attrs={"x": "1", "y": "2"})
    b = _unit(attrs={"y": "2", "x": "1"})
    c = _unit(attrs={"x": "1", "y": "2"})
    assert a != b
    assert a == c


def test_save_is_canonical_utf8_without_trailing_newline():
    root = _unit(attrs={"package": "shop.ué"})
    blob = save_laast(root)
    assert isinstance(blob, bytes)
    assert not blob.endswith(b"\n")
    text = blob.decode("utf-8")
    assert "é" in text
    assert ": " not in text and ", " not in text


def test_save_field_order_and_empty_omission():
    child = LaastNode(kind=NodeKind.LITERAL, name="x")
    root = _unit(children=[child], attrs={"package": "shop"})
    obj = json.loads(save_laast(root))
    assert list(obj.keys()) == ["kind", "name", "attributes", "span", "children"]
    assert list(obj["children"][0].keys()) == ["kind", "name"]


def test_load_save_round_trip():
    root = _unit(
        attrs={"b": "2", "a": "1"},
        children=[
            LaastNode(kind=NodeKind.TYPE_DECL, name="T", children=[
                LaastNode(kind=NodeKind.FIELD_DECL, name="f",
                          attributes={"declared_type": "long"}),
            ]),
        ],
    )
    blob = save_laast(root)
    again = load_laast(blob)
    assert again == root
    assert save_laast(again) == blob


def test_load_rejects_bad_json_and_unicode():
    with pytest.raises(MalformedDocument):
        load_laast(b"{not json")
    with pytest.raises(MalformedDocument):
        load_laast(b"\xff\xfe{}")


def test_load_rejects_unknown_kind_with_path():
    doc = {"kind": "CompilationUnit", "children": [{"kind": "Nope"}]}
    with pytest.raises(SchemaViolation) as err:
        load_laast(json.dumps(doc))
    assert "$.children[0]" in str(err.value)


def test_load_rejects_unknown_field():
    doc = {"kind": "CompilationUnit", "bogus": 1}
    with pytest.raises(SchemaViolation):
        load_laast(json.dumps(doc))


def test_load_rejects_non_string_attribute_values():
    doc = {"kind": "CompilationUnit", "attributes": {"n": 3}}
    with pytest.raises(SchemaViolation):
        load_laast(json.dumps(doc))


def test_span_validation():
    doc = {"kind": "CompilationUnit",
           "span": {"file": "A.java", "line_start": 5, "line_end": 3}}
    with pytest.raises(SchemaViolation):
        load_laast(json.dumps(doc))
    doc = {"kind": "CompilationUnit",
           "span": {"file": "a\\b.java", "line_start": 1, "line_end": 1}}
    with pytest.raises(SchemaViolation):
        load_laast(json.dumps(doc))


@pytest.mark.parametrize("doc", [
    {"kind": "CompilationUnit", "name": "a\ud800"},
    {"kind": "CompilationUnit", "attributes": {"\udfff": "x"}},
    {"kind": "CompilationUnit", "attributes": {"k": "\ud83d"}},
    {"kind": "CompilationUnit", "span": {"file": "\udc00.java", "line_start": 1, "line_end": 1}},
], ids=["name", "key", "value", "file"])
def test_load_rejects_lone_surrogates(doc):
    with pytest.raises(SchemaViolation, match="holds a lone surrogate"):
        load_laast(json.dumps(doc))
    # a pair of escapes is one character, which UTF-8 encodes
    loaded = load_laast(json.dumps({"kind": "CompilationUnit", "name": "\U0001F600"}))
    assert save_laast(loaded).decode("utf-8") == '{"kind":"CompilationUnit","name":"\U0001F600"}'


def test_load_rejects_remote_arg_counts_int_cannot_convert():
    def call(arg_count):
        return json.dumps({"kind": "Call", "attributes": {
            "call_kind": "remote", "arg_count": arg_count}})

    assert load_laast(call("9" * 4300)).attributes["arg_count"] == "9" * 4300
    with pytest.raises(SchemaViolation, match="more than 4300 digits"):
        load_laast(call("9" * 4301))


def test_count_nodes_counts_every_node():
    leaf1 = LaastNode(kind=NodeKind.LITERAL, name="l1")
    leaf2 = LaastNode(kind=NodeKind.LITERAL, name="l2")
    mid = LaastNode(kind=NodeKind.TYPE_DECL, name="T", children=[leaf1, leaf2])
    root = _unit(children=[mid, LaastNode(kind=NodeKind.LITERAL, name="l3")])
    assert count_nodes(root) == 5


def test_count_nodes_handles_deep_trees_without_recursion_limit():
    node = LaastNode(kind=NodeKind.BLOCK, name="leaf")
    for depth in range(5000):
        node = LaastNode(kind=NodeKind.BLOCK, name=f"b{depth}", children=[node])
    root = _unit(children=[node])
    assert count_nodes(root) == 5002
