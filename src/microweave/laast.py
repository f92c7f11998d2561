"""Language-agnostic syntax tree: node model, interchange format, validation.

Every frontend produces this tree shape and every matcher consumes it, so
parsers for different platforms can feed the same pipeline.  The interchange
format is UTF-8 JSON with a fixed field order per node: ``kind``, ``name``
(omitted when absent), ``attributes`` (omitted when empty), ``span`` (omitted
when synthetic), ``children`` (omitted when empty).  File extension:
``.laast.json``.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from enum import Enum
from typing import NamedTuple

from microweave.errors import MalformedDocument, SchemaViolation
from microweave.jsonio import array_chunks, canonical_bytes, join_chunks
from microweave.record import Record


class NodeKind(str, Enum):
    """Closed inventory of tree node kinds.

    Extension happens through node attributes, never through new kinds.
    ``UNKNOWN`` is a passthrough for constructs no matcher consumes; matchers
    must never match on it.
    """

    COMPILATION_UNIT = "CompilationUnit"
    TYPE_DECL = "TypeDecl"
    FIELD_DECL = "FieldDecl"
    METHOD_DECL = "MethodDecl"
    PARAM = "Param"
    ANNOTATION = "Annotation"
    CALL = "Call"
    LITERAL = "Literal"
    TYPE_REF = "TypeRef"
    BLOCK = "Block"
    UNKNOWN = "Unknown"


#: Kinds that may never carry children.
LEAF_KINDS = frozenset({NodeKind.LITERAL, NodeKind.TYPE_REF})

_KIND_BY_VALUE = {k.value: k for k in NodeKind}

#: Call-node attribute telling later stages what a Call represents.
CALL_KIND_ATTR = "call_kind"
CALL_KIND_REMOTE = "remote"
CALL_KIND_EVENT_PUBLISH = "event_publish"
CALL_KIND_LOCAL = "local"


class SourceSpan(NamedTuple):
    """Location of a node in its originating source file.

    ``file`` is a relative path from the service root using forward slashes;
    line numbers are 1-based and inclusive.
    """

    file: str
    line_start: int
    line_end: int


class LaastNode(Record):
    """One tree node.  Immutable by convention after construction.

    ``attributes`` is an ordered string-to-string map; insertion order is
    significant and preserved by the interchange format.  ``span`` is ``None``
    for synthetic nodes that have no source location.
    """

    __slots__ = ("kind", "name", "attributes", "children", "span")

    # The one record built once per syntax node, more often than all the
    # others together, so it keeps a written-out constructor: with
    # ``Record.__init__`` a serial big-files run takes about 5 % longer
    # (Python 3.11, 2-vCPU VM).
    def __init__(
        self,
        kind: NodeKind,
        name: str | None = None,
        attributes: dict[str, str] | None = None,
        children: list[LaastNode] | None = None,
        span: SourceSpan | None = None,
    ):
        self.kind = kind
        self.name = name
        self.attributes = {} if attributes is None else attributes
        self.children = [] if children is None else children
        self.span = span

    def __eq__(self, other: object) -> bool:
        # Attribute order is significant, so plain dict equality is too weak.
        if not isinstance(other, LaastNode):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.name == other.name
            and list(self.attributes.items()) == list(other.attributes.items())
            and self.span == other.span
            and self.children == other.children
        )


def _fail(message: str, path: str) -> SchemaViolation:
    return SchemaViolation(message, path=path)


# A ``\uD800``-``\uDFFF`` escape outside a pair decodes to a lone surrogate,
# which no output can encode as UTF-8.
LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def _check_text(value: str, what: str, path: str) -> None:
    if not value.isascii() and LONE_SURROGATE.search(value):
        raise _fail(f"{what} holds a lone surrogate", path)


def _validate_span(obj: object, path: str) -> SourceSpan:
    if not isinstance(obj, dict):
        raise _fail("span must be an object", path)
    extra = set(obj) - {"file", "line_start", "line_end"}
    if extra:
        raise _fail(f"unexpected span field(s) {sorted(extra)}", path)
    file = obj.get("file")
    if not isinstance(file, str) or not file:
        raise _fail("span.file must be a non-empty string", path)
    if "\\" in file:
        raise _fail("span.file must use forward slashes", path)
    _check_text(file, "span.file", path)
    start, end = obj.get("line_start"), obj.get("line_end")
    if not isinstance(start, int) or isinstance(start, bool) or start < 1:
        raise _fail("span.line_start must be an integer >= 1", path)
    if not isinstance(end, int) or isinstance(end, bool) or end < start:
        raise _fail("span.line_end must be an integer >= line_start", path)
    return SourceSpan(file=file, line_start=start, line_end=end)


_NODE_FIELDS = ("kind", "name", "attributes", "span", "children")

#: The deepest a document may nest, the root being level 1: decoding takes
#: about two of the interpreter's 1,000 recursion levels per level.
MAX_DEPTH = 480
_TOO_DEEP = f"document nests deeper than {MAX_DEPTH} levels"


def _validate_node(obj: object, path: str, depth: int = 1) -> LaastNode:
    if depth > MAX_DEPTH:
        raise MalformedDocument(_TOO_DEEP)
    if not isinstance(obj, dict):
        raise _fail("node must be a JSON object", path)
    extra = set(obj) - set(_NODE_FIELDS)
    if extra:
        raise _fail(f"unexpected field(s) {sorted(extra)}", path)

    raw_kind = obj.get("kind")
    if not isinstance(raw_kind, str):
        raise _fail("missing or non-string 'kind'", path)
    kind = _KIND_BY_VALUE.get(raw_kind)
    if kind is None:
        raise _fail(f"unknown node kind {raw_kind!r}", path)

    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise _fail("'name' must be a string when present", path)
    if name is not None:
        _check_text(name, "'name'", path)

    attributes: dict[str, str] = {}
    if "attributes" in obj:
        raw_attrs = obj["attributes"]
        if not isinstance(raw_attrs, dict):
            raise _fail("'attributes' must be an object", path)
        for key, value in raw_attrs.items():
            if not isinstance(value, str):
                raise _fail(f"attribute {key!r} must map to a string", path)
            _check_text(key, f"attribute {key!r}", path)
            _check_text(value, f"attribute {key!r}", path)
            attributes[key] = value
    if kind == NodeKind.CALL and attributes.get(CALL_KIND_ATTR) == CALL_KIND_REMOTE:
        arg_count = attributes.get("arg_count", "0")
        if not (arg_count.isascii() and arg_count.isdigit()):
            raise _fail("attribute 'arg_count' of a remote call must be a decimal integer", path)
        if len(arg_count) > 4300:  # the longest digit string int() converts by default
            raise _fail("attribute 'arg_count' of a remote call has more than 4300 digits", path)

    span = _validate_span(obj["span"], path) if "span" in obj else None

    children: list[LaastNode] = []
    if "children" in obj:
        raw_children = obj["children"]
        if not isinstance(raw_children, list):
            raise _fail("'children' must be an array", path)
        if kind in LEAF_KINDS and raw_children:
            raise _fail(f"leaf kind {kind.value} must not have children", path)
        for i, child in enumerate(raw_children):
            children.append(_validate_node(child, f"{path}.children[{i}]", depth + 1))

    return LaastNode(kind=kind, name=name, attributes=attributes, children=children, span=span)


def load_laast(document: bytes | str) -> LaastNode:
    """Parse and validate an interchange-format document into a tree.

    Raises :class:`MalformedDocument` for syntax errors and
    :class:`SchemaViolation` for schema errors; both name where the problem
    is.  Attribute and child order are preserved exactly.  A document too
    deep to decode (see :data:`MAX_DEPTH`) is malformed.
    """
    if isinstance(document, bytes):
        try:
            text = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedDocument(f"document is not valid UTF-8: {exc}") from exc
    else:
        text = document
    try:
        return _validate_node(json.loads(text), "$")
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"document is not valid JSON: {exc}") from exc
    except RecursionError:
        raise MalformedDocument(_TOO_DEEP) from None


def _node_to_obj(node: LaastNode, children: bool = True) -> dict:
    obj: dict = {"kind": node.kind.value}
    if node.name is not None:
        obj["name"] = node.name
    if node.attributes:
        obj["attributes"] = dict(node.attributes)
    if node.span is not None:
        obj["span"] = {
            "file": node.span.file,
            "line_start": node.span.line_start,
            "line_end": node.span.line_end,
        }
    if children and node.children:
        obj["children"] = [_node_to_obj(c) for c in node.children]
    return obj


def _node_chunks(node: LaastNode, depth: int) -> Iterator[bytes]:
    """The canonical encoding of ``node``, ``depth`` levels below the root, as
    chunks; a type's members (service, file, type, member) are encoded whole."""
    if depth == 3 or not node.children:
        yield canonical_bytes(_node_to_obj(node))
        return
    # ``children`` is the last key, so it goes where the head's brace was.
    yield canonical_bytes(_node_to_obj(node, children=False))[:-1] + b',"children":'
    yield from array_chunks(_node_chunks(c, depth + 1) for c in node.children)
    yield b"}"


def save_laast(root: LaastNode) -> bytes:
    """Serialize a valid tree to its canonical interchange form.

    Canonical means: fixed field order, attributes in insertion order, no
    insignificant whitespace.  ``load_laast(save_laast(t))`` reproduces ``t``
    exactly, and structurally equal trees serialize identically.
    """
    return join_chunks(_node_chunks(root, 0))


def count_nodes(root: LaastNode) -> int:
    """The number of nodes in the tree, ``root`` included, counted with an
    explicit stack so depth is not bounded by the recursion limit."""
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count

