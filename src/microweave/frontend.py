"""Frontends that produce the language-agnostic tree from service codebases.

Two heuristic, annotation-driven extractors cover Spring-style and
JAX-RS-style codebases; a passthrough frontend accepts pre-built
``.laast.json`` files from external parsers.  Extraction is deliberately
component-level: declarations, annotations, parameters, and calls.  It never
aborts on a bad input file; every anomaly becomes a warning or a skip.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

from microweave.errors import MicroweaveError
from microweave.laast import (
    CALL_KIND_ATTR,
    CALL_KIND_EVENT_PUBLISH,
    CALL_KIND_LOCAL,
    CALL_KIND_REMOTE,
    LaastNode,
    NodeKind,
    SourceSpan,
    load_laast,
    walk,
)

SPRING_LIKE = "SpringLike"
JAXRS_LIKE = "JaxRsLike"
LAAST_PASSTHROUGH = "LaastPassthrough"
CONVENTIONS = (SPRING_LIKE, JAXRS_LIKE, LAAST_PASSTHROUGH)

DEFAULT_INCLUDE_GLOBS = ("**/*.java",)
PASSTHROUGH_INCLUDE_GLOBS = ("**/*.laast.json",)

#: Single-segment wildcard standing in for a URL fragment that is not a
#: string literal in the source.
URL_WILDCARD = "{*}"

HTTP_UNKNOWN = "UNKNOWN"


@dataclass
class SourceTree:
    """One microservice codebase to extract."""

    service_name: str
    root_dir: str | Path
    include_globs: tuple[str, ...] = DEFAULT_INCLUDE_GLOBS
    convention: str = SPRING_LIKE


@dataclass(frozen=True)
class _ClientIdiom:
    """How the calls made on one client receiver read.

    ``heads`` maps each method recognized right after the receiver to the
    HTTP method it sends, to the index of the argument naming that method
    (``HttpMethod.POST``), or to None when a chain link names it or the call
    publishes an event.  A remote call's URL and a publish call's topic are
    the head's first argument, and the head's arguments count.  With
    ``links`` the fluent chain after the head is part of the call, and each
    link it names plays its role:

    * ``uri``: the first such link with arguments holds the URL instead of
      the head, and only its arguments and those of ``body`` links count;
    * ``path``: its first argument is appended to the URL as a path piece;
    * ``verb``: the link's name is the HTTP method, and its arguments count;
    * ``body``: its arguments count.
    """

    heads: dict[str, str | int | None]
    kind: str = CALL_KIND_REMOTE
    links: dict[str, str] | None = None


_VERBS = ("get", "post", "put", "delete", "patch")

#: Client-call idioms by receiver: ``restTemplate`` calls, a builder-style
#: ``webClient`` (``webClient.get().uri(..)``), a JAX-RS style ``client``
#: (``client.target(..).path(..).request().get()``), and two broker clients.
_CLIENT_IDIOMS = {
    "restTemplate": _ClientIdiom({
        "getForObject": "GET",
        "getForEntity": "GET",
        "postForObject": "POST",
        "postForEntity": "POST",
        "put": "PUT",
        "delete": "DELETE",
        "exchange": 1,
    }),
    "webClient": _ClientIdiom(
        {**{verb: verb.upper() for verb in (*_VERBS, "head")}, "method": 0},
        links={"uri": "uri", "body": "body", "bodyValue": "body"},
    ),
    "client": _ClientIdiom(
        {"target": None}, links={"path": "path", **{verb: "verb" for verb in _VERBS}}
    ),
    "kafkaTemplate": _ClientIdiom({"send": None}, kind=CALL_KIND_EVENT_PUBLISH),
    "rabbitTemplate": _ClientIdiom({"convertAndSend": None}, kind=CALL_KIND_EVENT_PUBLISH),
}
#: Subscribe annotation -> the argument that names its topics.
SUBSCRIBE_ANNOTATIONS = {"KafkaListener": "topics", "RabbitListener": "queues"}


@dataclass
class ExtractionReport:
    """What the extractor did for one service tree."""

    files_scanned: int = 0
    files_skipped: list[tuple[str, str]] = field(default_factory=list)
    nodes_emitted: int = 0
    warnings: list[tuple[str, int, str]] = field(default_factory=list)


# --------------------------------------------------------------------------
# text preparation


#: The lexemes whose characters the text views mask, and the only definition
#: of a comment or a literal: a line comment, a block comment (unterminated: to
#: the end of the file), a text block (likewise), and a string or char
#: literal.  A string or char literal ends at its closing quote, at a newline,
#: or at the end of the file.  A backslash escapes the next character, a
#: newline included.  Groups 1 and 2 open and close a text block; groups 3 and
#: 4 close a string and a char literal.
_LEXEME_RE = re.compile(
    r"//[^\n]*"
    r"|/\*.*?(?:\*/|\Z)"
    r'|(""")[^"\\]*(?:(?:\\.|"(?!""))[^"\\]*)*\\?(""")?'
    r'|"[^"\\\n]*(?:\\.[^"\\\n]*)*\\?(["\n]?)'
    r"|'[^'\\\n]*(?:\\.[^'\\\n]*)*\\?(['\n]?)",
    re.S,
)


def _blank(chars: str) -> str:
    """``chars`` with everything but its newlines blanked."""
    return "\n".join(" " * len(part) for part in chars.split("\n"))


def _masked_views(source: str) -> tuple[str, str, list[int]]:
    """One lexing pass over ``source``: ``(text, struct, line starts)``.

    ``text`` blanks comments; ``struct`` also blanks the contents of string
    and char literals and text blocks, keeping their quotes.  Both keep the
    length of ``source`` and every newline, an escaped one inside a literal
    included, so they share their line starts.
    """
    text: list[str] = []
    struct: list[str] = []
    pos = 0
    for m in _LEXEME_RE.finditer(source):
        code = source[pos : m.start()]
        lexeme = m.group()
        pos = m.end()
        text.append(code)
        struct.append(code)
        if lexeme[0] == "/":
            text.append(_blank(lexeme))
            struct.append(text[-1])
        else:
            opener = m.group(1) or lexeme[0]
            close = m.group(2) or m.group(3) or m.group(4) or ""
            text.append(lexeme)
            struct.append(opener + _blank(lexeme[len(opener) : len(lexeme) - len(close)]) + close)
    text.append(source[pos:])
    struct.append(text[-1])
    starts = list(accumulate((len(line) + 1 for line in source.split("\n")[:-1]), initial=0))
    return "".join(text), "".join(struct), starts


def _line_depths(lines: list[str], depth: int) -> tuple[list[int], int]:
    """Brace depth at the start of each of ``lines``, the first starting at
    ``depth``, and the depth after the last."""
    depths = []
    for line in lines:
        depths.append(depth)
        depth += line.count("{") - line.count("}")
    return depths, depth


# Every helper below takes a piece of source as its two views, ``text`` and
# ``struct``, sliced at the same offsets: it finds structure in ``struct``,
# where no literal holds a bracket or a separator, and reads values from
# ``text``.

_Piece = tuple[str, str]
_NESTING = {"(": 1, "[": 1, "{": 1, ")": -1, "]": -1, "}": -1}


def _strip(text: str, struct: str) -> _Piece:
    """Both views without the whitespace around ``text``."""
    end = len(text.rstrip())
    start = end - len(text[:end].lstrip())
    return text[start:end], struct[start:end]


def _split_top_level(text: str, struct: str, sep: str) -> list[_Piece]:
    """Split both views on a separator character outside brackets."""
    parts: list[_Piece] = []
    depth = start = 0
    for i, c in enumerate(struct):
        if c == sep and depth == 0:
            parts.append((text[start:i], struct[start:i]))
            start = i + 1
        else:
            depth += _NESTING.get(c, 0)
    parts.append((text[start:], struct[start:]))
    return parts


def _split_args(text: str, struct: str, sep: str = ",") -> list[_Piece]:
    """The non-blank pieces between top-level separators, stripped."""
    pieces = (_strip(*part) for part in _split_top_level(text, struct, sep))
    return [piece for piece in pieces if piece[0]]


def _balanced_parens(struct: str | list[str], open_idx: int) -> int | None:
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


_PAREN_RE = re.compile(r"[()]")


def _paren_closes(struct: str) -> dict[int, int]:
    """Index of each ``(`` in a structural view that closes -> the index
    just past its matching ``)``, from one walk on a stack: what
    ``_balanced_parens`` returns for it, for all of them at once."""
    closes: dict[int, int] = {}
    opens: list[int] = []
    for m in _PAREN_RE.finditer(struct):
        if m.group() == "(":
            opens.append(m.start())
        elif opens:
            closes[opens.pop()] = m.end()
    return closes


def _unquote(text: str, struct: str) -> str | None:
    """The value of a stripped piece that is one string literal, else None."""
    if len(struct) < 2 or struct[0] != '"' or struct[-1] != '"' or struct[1:-1].strip(" "):
        return None
    return text[1:-1].replace('\\"', '"').replace("\\\\", "\\")


def _encode_annotation_value(text: str, struct: str) -> str:
    """Render one annotation argument value as its flat string form.

    String literals lose their quotes; ``{a, b}`` arrays join with ``|``;
    dotted enum references keep only the last segment (``RequestMethod.GET``
    becomes ``GET``); class literals and anything else stay verbatim.
    """
    text, struct = _strip(text, struct)
    lit = _unquote(text, struct)
    if lit is not None:
        return lit
    if struct.startswith("{") and struct.endswith("}"):
        return "|".join(
            _encode_annotation_value(*part) for part in _split_args(text[1:-1], struct[1:-1])
        )
    if text.endswith(".class"):
        return text
    if re.fullmatch(r"[\w$]+(?:\.[\w$]+)+", text):
        return text.rsplit(".", 1)[1]
    return text


def _annotation_args(text: str, struct: str) -> dict[str, str] | None:
    """The argument map of an annotation's argument list, or None when the
    list does not read as one ``value`` or as ``key = value`` pairs."""
    args: dict[str, str] = {}
    for part in _split_args(text, struct):
        kv = _split_top_level(*part, "=")
        key = kv[0][0].strip()
        if len(kv) == 2 and re.fullmatch(r"[\w$]+", key):
            args[key] = _encode_annotation_value(*kv[1])
        elif len(kv) == 1:
            args["value"] = _encode_annotation_value(*part)
        else:
            return None
    return args


@dataclass(frozen=True)
class _Annotation:
    """One top-level ``@Name`` or ``@Name(..)`` in a window.

    ``end`` is the offset just past it, or None when its argument list never
    closes in the window; ``args`` is None when the list is unparseable.
    """

    name: str
    start: int
    end: int | None
    args: dict[str, str] | None


#: An annotation's name with the ``(`` opening its arguments, or a lone paren.
_ANNOTATION_TOKEN_RE = re.compile(r"@\s*([A-Za-z_][\w$]*)(\s*\()?|[()]")


def _read_annotations(text: str, struct: str) -> list[_Annotation]:
    """The top-level annotations of a window in source order, from one walk
    over its structural view.

    An annotation inside the arguments of one that closes is folded into it;
    the annotations inside an argument list that never closes are top-level
    too.  ``@interface`` is no annotation.
    """
    heads: list[tuple[str, int, int, bool]] = []
    closes: dict[int, int] = {}
    opens: list[int] = []
    for m in _ANNOTATION_TOKEN_RE.finditer(struct):
        name, paren = m.groups()
        if m.group() == ")":
            if opens:
                closes[opens.pop()] = m.end()
            continue
        if paren or not name:
            opens.append(m.end() - 1)
        if name and name != "interface":
            heads.append((name, m.start(), m.end(), paren is not None))
    found: list[_Annotation] = []
    folded_until = 0
    for name, start, end, has_args in heads:
        if start < folded_until:
            continue
        close = closes.get(end - 1) if has_args else end
        if close is None:
            found.append(_Annotation(name, start, None, None))
            continue
        args = _annotation_args(text[end : close - 1], struct[end : close - 1]) if has_args else {}
        found.append(_Annotation(name, start, close, args))
        folded_until = close
    return found


# --------------------------------------------------------------------------
# remote-call / event recognition


def _url_template_from_expr(text: str, struct: str) -> tuple[str, bool]:
    """Build a URL template from a (possibly concatenated) argument expression.

    Literal fragments keep their text; every non-literal operand becomes the
    single-segment wildcard.  Returns ``(template, had_literal)``.
    """
    fragments: list[str] = []
    had_literal = False
    for part in _split_args(text, struct, "+"):
        lit = _unquote(*part)
        if lit is not None:
            fragments.append(lit)
            had_literal = True
        else:
            fragments.append(URL_WILDCARD)
    if not fragments or not had_literal:
        return URL_WILDCARD, False
    return "".join(fragments), True


def _call_node(name: str, attrs: dict[str, str], span: SourceSpan) -> LaastNode:
    return LaastNode(kind=NodeKind.CALL, name=name, attributes=attrs, span=span)


_CHAIN_LINK_RE = re.compile(r"\s*\.\s*([A-Za-z_][\w$]*)\s*")


def _read_chain(
    text: str, struct: str, closes: dict[int, int], start: int
) -> list[tuple[str, list[_Piece], int]]:
    """Read a fluent chain ``.a(args).b(args)...`` starting at ``start``;
    ``closes`` is ``_paren_closes(struct)``.

    Returns ``(method, argument list, end offset)`` per link.
    """
    links: list[tuple[str, list[_Piece], int]] = []
    pos = start
    while True:
        m = _CHAIN_LINK_RE.match(struct, pos)
        if m is None:
            break
        close = closes.get(m.end())
        if close is None:
            break
        args = _split_args(text[m.end() + 1 : close - 1], struct[m.end() + 1 : close - 1])
        links.append((m.group(1), args, close))
        pos = close
    return links


_HTTP_ENUM_RE = re.compile(r"(?:[\w$]+\.)*(GET|POST|PUT|DELETE|PATCH|HEAD)")


#: ``receiver.method(`` for a client receiver, optionally after ``this.``.
_CLIENT_HEAD_RE = re.compile(
    r"(?<![\w.$])(?:this\s*\.\s*)?("
    + "|".join(sorted(_CLIENT_IDIOMS))
    + r")\s*\.\s*([A-Za-z_][\w$]*)\s*\("
)


def _url_template(url_args: list[_Piece], paths: list[_Piece]) -> tuple[str, bool]:
    """URL template of the first of ``url_args`` with each of ``paths``
    (``.path(..)`` arguments) appended as one more piece.

    Returns ``(template, clean)``: the wildcard and False without a URL
    argument, and clean False when any piece holds no literal.
    """
    if not url_args:
        return URL_WILDCARD, False
    template, clean = _url_template_from_expr(*url_args[0])
    for expr in paths:
        part, part_clean = _url_template_from_expr(*expr)
        template = template.rstrip("/") + "/" + part.lstrip("/")
        clean = clean and part_clean
    return template, clean


# --------------------------------------------------------------------------
# declaration scanning

_JAVA_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "new", "synchronized",
    "throw", "throws", "assert", "this", "super", "do", "else", "try",
    "finally", "break", "continue", "instanceof", "case", "package", "import",
}

_MODIFIER_WORDS = {
    "public", "private", "protected", "static", "final", "abstract", "default",
    "native", "synchronized", "transient", "volatile", "strictfp",
}
_MODIFIER = "(?:" + "|".join(sorted(_MODIFIER_WORDS)) + ")"
_TYPE_PAT = r"[A-Za-z_][\w$]*(?:\s*\.\s*[\w$]+)*(?:\s*<[^;{}()]*>)?(?:\s*\[\s*\])*"

_TYPE_DECL_RE = re.compile(
    rf"^\s*(?:{_MODIFIER}\s+)*(class|interface|enum|record)\s+([A-Za-z_][\w$]*)"
)
_METHOD_HEAD_RE = re.compile(
    rf"^\s*(?:{_MODIFIER}\s+)*(?:<[^>]*>\s*)?({_TYPE_PAT})\s+([A-Za-z_][\w$]*)\s*\("
)
_FIELD_RE = re.compile(rf"^\s*(?:{_MODIFIER}\s+)*({_TYPE_PAT})\s+([A-Za-z_][\w$]*)\s*(?:=|;)")
_PARAM_RE = re.compile(rf"(?:final\s+)?({_TYPE_PAT})\s+([A-Za-z_][\w$]*)")
_LOCAL_CALL_RE = re.compile(
    r"(?<![\w.$@])(?:([A-Za-z_][\w$]*)\s*\.\s*)?([A-Za-z_][\w$]*)\s*\("
)


class _JavaLikeParser:
    """Heuristic declaration scanner for one source file.

    Works on two aligned views of the file, made in one lexing pass:
    comment-masked text (string literals intact, for value extraction) and
    additionally string-masked text (for structural scans, so braces or
    parens inside literals never confuse depth tracking).  Both preserve
    offsets and line breaks.  ``lines`` splits the structural view at its
    newlines and ``_depth_at`` holds the brace depth at the start of each.
    Consumed annotations are blanked out of both views so a declaration
    sharing their line is still seen; the views are mutable buffers of one
    character per slot, so blanking rewrites only the annotation, re-splits
    only the lines it touches, and shifts later depths only when the blanked
    characters held unbalanced braces.  Parsing is linear in file size.
    """

    def __init__(self, text: str, relpath: str):
        self.relpath = relpath
        text, struct, self._line_starts = _masked_views(text)
        self._text = list(text)
        self._struct = list(struct)
        self.warnings: list[tuple[str, int, str]] = []
        self.lines = struct.split("\n")
        self._depth_at, _ = _line_depths(self.lines, 0)

    def _line_of(self, offset: int) -> int:
        return bisect_right(self._line_starts, offset)

    def _offset_of_line(self, lineno: int) -> int:
        return self._line_starts[lineno - 1]

    def _warn(self, line: int, message: str) -> None:
        self.warnings.append((self.relpath, line, message))

    def _find(self, char: str, start: int) -> int:
        """Offset of the first ``char`` at or after ``start`` in the
        structural view, or -1."""
        try:
            return self._struct.index(char, start)
        except ValueError:
            return -1

    def _mask_range(self, start: int, end: int) -> None:
        """Blank chars [start, end) in both views, keeping newlines, and
        bring ``lines`` and ``_depth_at`` up to date."""
        if start >= end:
            return
        masked = [c if c == "\n" else " " for c in self._text[start:end]]
        self._text[start:end] = masked
        self._struct[start:end] = masked
        starts = self._line_starts
        first = bisect_right(starts, start) - 1
        stop = bisect_right(starts, end - 1)
        seg_end = starts[stop] - 1 if stop < len(starts) else len(self._struct)
        lines = "".join(self._struct[starts[first] : seg_end]).split("\n")
        depths, after = _line_depths(lines, self._depth_at[first])
        shift = after - self._depth_at[stop] if stop < len(starts) else 0
        self.lines[first:stop] = lines
        self._depth_at[first:stop] = depths
        if shift:
            for j in range(stop, len(self._depth_at)):
                self._depth_at[j] += shift

    def _find_close_brace(self, open_offset: int) -> int | None:
        depth = 0
        for i in range(open_offset, len(self._struct)):
            c = self._struct[i]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    return i
        return None

    def _span(self, line_start: int, line_end: int) -> SourceSpan:
        return SourceSpan(
            file=self.relpath, line_start=line_start, line_end=max(line_start, line_end)
        )

    def parse(self) -> LaastNode:
        n_lines = len(self.lines)
        unit = LaastNode(
            kind=NodeKind.COMPILATION_UNIT,
            name=self.relpath,
            span=self._span(1, max(1, n_lines)),
        )
        i = 1
        pending: list[LaastNode] = []
        while i <= n_lines:
            if self._depth_at[i - 1] != 0:
                i += 1
                continue
            if self._consume_annotations(i, pending):
                continue
            m = _TYPE_DECL_RE.match(self.lines[i - 1])
            if m:
                i = self._parse_type(i, m, pending, unit)
                pending = []
                continue
            i += 1
        return unit

    def _consume_annotations(self, lineno: int, pending: list[LaastNode]) -> bool:
        """If the line begins with an annotation, parse the (possibly
        multi-line) window into ``pending``, blank those characters out of
        the working text, and return True so the caller re-examines the
        line (now annotation-free)."""
        struct_line = self.lines[lineno - 1]
        if not struct_line.lstrip().startswith("@"):
            return False
        end = lineno
        window_struct = struct_line
        while (
            end < len(self.lines)
            and window_struct.count("(") > window_struct.count(")")
            and end - lineno < 20
        ):
            end += 1
            window_struct += "\n" + self.lines[end - 1]
        start_off = self._offset_of_line(lineno)
        window_text = "".join(self._text[start_off : start_off + len(window_struct)])
        found = _read_annotations(window_text, window_struct)
        closed = [ann for ann in found if ann.end is not None]
        if not closed:
            if not found:
                return False
            for ann in found:
                self._warn(lineno, f"unparseable arguments for @{ann.name}")
                pending.append(
                    LaastNode(kind=NodeKind.ANNOTATION, name=ann.name, span=self._span(lineno, end))
                )
            self._mask_range(start_off, start_off + len(window_struct))
            return True
        for ann in closed:
            if ann.args is None:
                self._warn(lineno, f"unparseable arguments for @{ann.name}")
            pending.append(
                LaastNode(
                    kind=NodeKind.ANNOTATION,
                    name=ann.name,
                    attributes=ann.args or {},
                    span=self._span(
                        self._line_of(start_off + ann.start),
                        self._line_of(start_off + ann.end - 1),
                    ),
                )
            )
        self._mask_range(start_off, start_off + closed[-1].end)
        return True

    def _parse_type(
        self, lineno: int, m: re.Match, pending: list[LaastNode], unit: LaastNode
    ) -> int:
        type_kind, name = m.group(1), m.group(2)
        head_off = self._offset_of_line(lineno)
        open_off = self._find("{", head_off)
        if open_off == -1:
            self._warn(lineno, f"type {name} has no body")
            return lineno + 1
        close_off = self._find_close_brace(open_off)
        if close_off is None:
            self._warn(lineno, f"unbalanced braces in type {name}")
            close_off = len(self._struct) - 1
        head_struct = "".join(self._struct[head_off:open_off])
        attrs = {"type_kind": type_kind}
        em = re.search(r"\bextends\s+(.+?)(?:\bimplements\b|$)", head_struct, re.S)
        if em and em.group(1).strip():
            attrs["extends"] = " ".join(em.group(1).split()).strip(" ,")
        im = re.search(r"\bimplements\s+(.+)$", head_struct, re.S)
        if im and im.group(1).strip():
            attrs["implements"] = " ".join(im.group(1).split()).strip(" ,")
        node = LaastNode(
            kind=NodeKind.TYPE_DECL,
            name=name,
            attributes=attrs,
            children=list(pending),
            span=self._span(lineno, self._line_of(close_off)),
        )
        self._parse_members(node, self._line_of(open_off), self._line_of(close_off), name)
        self._resolve_local_calls(node)
        unit.children.append(node)
        return self._line_of(close_off) + 1

    @staticmethod
    def _resolve_local_calls(type_node: LaastNode) -> None:
        """Keep a local Call only when it resolves within this type: a bare
        name defined as a method here, or a receiver that is a field here."""
        field_names = {c.name for c in type_node.children if c.kind == NodeKind.FIELD_DECL}
        method_names = {c.name for c in type_node.children if c.kind == NodeKind.METHOD_DECL}

        def keep(node: LaastNode) -> bool:
            if node.kind != NodeKind.CALL:
                return True
            if node.attributes.get(CALL_KIND_ATTR) != CALL_KIND_LOCAL:
                return True
            receiver = node.attributes.get("receiver")
            if receiver is None:
                return node.name in method_names
            return receiver in field_names

        for member in type_node.children:
            if member.kind == NodeKind.METHOD_DECL:
                member.children = [c for c in member.children if keep(c)]

    def _parse_members(
        self, type_node: LaastNode, open_line: int, close_line: int, type_name: str
    ) -> None:
        open_off = self._find("{", self._offset_of_line(open_line))
        body_depth = (
            self._depth_at[open_line - 1]
            + self._struct[self._offset_of_line(open_line) : open_off + 1].count("{")
        )
        i = open_line + 1
        pending: list[LaastNode] = []
        while i < close_line:
            if self._depth_at[i - 1] != body_depth:
                i += 1
                continue
            struct_line = self.lines[i - 1]
            if not struct_line.strip():
                i += 1
                continue
            if self._consume_annotations(i, pending):
                continue
            sig_end = self._signature_extent(i, close_line)
            if sig_end is not None:
                sig_struct = "\n".join(self.lines[i - 1 : sig_end])
                mm = _METHOD_HEAD_RE.match(sig_struct)
                if mm is not None:
                    head_type = mm.group(1).split("<")[0].strip()
                    if (
                        head_type in _MODIFIER_WORDS
                        or head_type in _JAVA_KEYWORDS
                        or mm.group(2) in _JAVA_KEYWORDS
                    ):
                        mm = None
                if mm is not None:
                    i = self._parse_method(i, mm, pending, type_node)
                    pending = []
                    continue
                if re.match(rf"^\s*(?:{_MODIFIER}\s+)*{re.escape(type_name)}\s*\(", sig_struct):
                    # constructor: no endpoint semantics, skip its body
                    i = self._skip_past(sig_end)
                    pending = []
                    continue
            fm = _FIELD_RE.match(struct_line)
            if (
                fm
                and fm.group(2) not in _JAVA_KEYWORDS
                and fm.group(1).split("<")[0].strip() not in _JAVA_KEYWORDS
            ):
                type_node.children.append(
                    LaastNode(
                        kind=NodeKind.FIELD_DECL,
                        name=fm.group(2),
                        attributes={"declared_type": " ".join(fm.group(1).split())},
                        children=list(pending),
                        span=self._span(i, i),
                    )
                )
                pending = []
                i += 1
                continue
            pending = []
            i += 1

    def _signature_extent(self, lineno: int, limit: int) -> int | None:
        """Last line of a declaration head starting at ``lineno``: the line
        carrying ``{`` or ``;`` at paren depth 0.  None when the line has no
        call-shaped head."""
        if "(" not in self.lines[lineno - 1]:
            return None
        depth = 0
        for j in range(lineno, min(limit, lineno + 30) + 1):
            for ch in self.lines[j - 1]:
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                elif depth == 0 and ch in "{;":
                    return j
        return None

    def _skip_past(self, sig_end: int) -> int:
        """Next line after the body (or bare terminator) ending a head whose
        last signature line is ``sig_end``."""
        off = self._offset_of_line(sig_end)
        for k in range(off, len(self._struct)):
            c = self._struct[k]
            if c == ";":
                return self._line_of(k) + 1
            if c == "{":
                close = self._find_close_brace(k)
                if close is None:
                    return len(self.lines) + 1
                return self._line_of(close) + 1
        return sig_end + 1

    def _parse_method(
        self, start_line: int, mm: re.Match, pending: list[LaastNode], type_node: LaastNode
    ) -> int:
        return_type = " ".join(mm.group(1).split())
        name = mm.group(2)
        sig_off = self._offset_of_line(start_line)
        paren_off = self._find("(", sig_off)
        paren_close = _balanced_parens(self._struct, paren_off)

        method = LaastNode(
            kind=NodeKind.METHOD_DECL,
            name=name,
            attributes={"return_type": return_type},
            children=list(pending),
            span=self._span(start_line, start_line),
        )
        if paren_close:
            params = slice(paren_off + 1, paren_close - 1)
            params_text = "".join(self._text[params])
            params_struct = "".join(self._struct[params])
            for param in _split_args(params_text, params_struct):
                self._add_param(method, *param, start_line)

        # find the character ending the head: `{` opens a body, `;` does not
        end_line = start_line
        term_off = None
        search_from = paren_close if paren_close else sig_off
        for k in range(search_from, len(self._struct)):
            if self._struct[k] in "{;":
                term_off = k
                break
        if term_off is not None:
            end_line = self._line_of(term_off)
            if self._struct[term_off] == "{":
                close_off = self._find_close_brace(term_off)
                if close_off is None:
                    close_off = len(self._struct) - 1
                end_line = self._line_of(close_off)
                self._scan_body(method, term_off + 1, close_off)
        method.span = self._span(start_line, end_line)
        type_node.children.append(method)
        return end_line + 1

    def _add_param(self, method: LaastNode, text: str, struct: str, line: int) -> None:
        """Append the Param node of one stripped parameter to ``method``, or
        warn when it is not a type and a name after its annotations.

        Annotations whose arguments never close come after the others."""
        found = sorted(_read_annotations(text, struct), key=lambda ann: ann.end is None)
        for ann in found:
            if ann.args is None:
                self._warn(line, f"unparseable arguments for @{ann.name}")
        bare, pos = "", 0
        for ann in found:
            if ann.end is not None:
                bare += text[pos : ann.start]
                pos = ann.end
        pm = _PARAM_RE.fullmatch(" ".join((bare + text[pos:]).split()))
        if pm is None:
            self._warn(line, f"unparseable parameter {text!r} in {method.name}")
            return
        span = self._span(line, line)
        method.children.append(LaastNode(
            kind=NodeKind.PARAM,
            name=pm.group(2),
            attributes={"declared_type": " ".join(pm.group(1).split())},
            children=[
                LaastNode(
                    kind=NodeKind.ANNOTATION, name=ann.name, attributes=ann.args or {}, span=span
                )
                for ann in found
            ],
            span=span,
        ))

    def _scan_body(self, method: LaastNode, start_off: int, end_off: int) -> None:
        """Append the calls in a method body to ``method`` in line order.

        Call heads are matched on the structural view, so text in a comment
        or a literal is never a call; a client call's arguments are
        delimited on the structural view and read from the text view, where
        literals are intact.
        """
        body_text = "".join(self._text[start_off:end_off])
        body_struct = "".join(self._struct[start_off:end_off])

        def line_of(pos: int) -> int:
            return self._line_of(start_off + pos)

        calls = []
        closes = _paren_closes(body_struct)
        for m in _CLIENT_HEAD_RE.finditer(body_struct):
            receiver, head = m.groups()
            idiom = _CLIENT_IDIOMS[receiver]
            if head not in idiom.heads:
                continue
            close = closes.get(m.end() - 1)
            if close is None:
                continue
            args = _split_args(body_text[m.end() : close - 1], body_struct[m.end() : close - 1])
            roles = idiom.links or {}
            uri_link = "uri" in roles.values()
            if idiom.kind == CALL_KIND_REMOTE and not uri_link and not args:
                continue
            http = idiom.heads[head]
            if isinstance(http, int):
                enum = _HTTP_ENUM_RE.fullmatch(args[http][0]) if http < len(args) else None
                http = enum.group(1) if enum else None
            http = http or HTTP_UNKNOWN
            url_args, counted = ([], []) if uri_link else (args, list(args))
            paths: list[_Piece] = []
            end = close
            chain = _read_chain(body_text, body_struct, closes, close) if roles else ()
            for link, link_args, link_end in chain:
                end = link_end
                role = roles.get(link)
                if role == "uri" and not url_args:
                    url_args = link_args
                    counted += link_args
                elif role == "path" and link_args:
                    paths.append(link_args[0])
                elif role in ("verb", "body"):
                    counted += link_args
                    if role == "verb":
                        http = link.upper()
            if idiom.kind == CALL_KIND_REMOTE:
                template, clean = _url_template(url_args, paths)
                attrs = {"http_method": http, "url_template": template}
                problem = "unparseable URL expression"
            else:
                topic = _unquote(*args[0]) if args else None
                clean = topic is not None
                attrs = {"topic": topic if clean else URL_WILDCARD}
                problem = "non-literal topic"
            if not clean:
                shape = ("()" if uri_link else "(...)") + (" chain" if roles else "")
                self._warn(line_of(m.start()), f"{problem} in {receiver}.{head}{shape}")
            attrs = {CALL_KIND_ATTR: idiom.kind, **attrs, "arg_count": str(len(counted))}
            span = SourceSpan(self.relpath, line_of(m.start()), line_of(end - 1))
            calls.append(_call_node(head, attrs, span))

        for m in _LOCAL_CALL_RE.finditer(body_struct):
            receiver, callee = m.group(1), m.group(2)
            if receiver == "this":
                receiver = None
            if callee in _JAVA_KEYWORDS or (receiver and receiver in _JAVA_KEYWORDS):
                continue
            if receiver in _CLIENT_IDIOMS:
                continue
            before = m.start()
            while before and body_struct[before - 1].isspace():
                before -= 1
            if body_struct.endswith("new", 0, before):
                continue
            lineno = line_of(m.start())
            attrs = {CALL_KIND_ATTR: CALL_KIND_LOCAL}
            if receiver:
                attrs["receiver"] = receiver
            calls.append(_call_node(callee, attrs, SourceSpan(self.relpath, lineno, lineno)))
        calls.sort(key=lambda c: (c.span.line_start, c.span.line_end, c.name or ""))
        method.children.extend(calls)


# --------------------------------------------------------------------------
# whole-tree extraction


def _matched_files(root: Path, include_globs: tuple[str, ...]) -> list[Path]:
    seen: set[Path] = set()
    for pattern in include_globs:
        for path in root.glob(pattern):
            if path.is_file():
                seen.add(path)
    return sorted(seen, key=lambda p: p.relative_to(root).as_posix())


def extract(tree: SourceTree) -> tuple[LaastNode, ExtractionReport]:
    """Extract one service tree into a language-agnostic tree.

    The root is a synthetic CompilationUnit named after the service, holding
    one CompilationUnit child per scanned file in sorted path order, so the
    result is deterministic for a given tree.  Bad files are skipped with a
    warning; extraction itself never fails on file content.
    """
    if not tree.service_name:
        raise MicroweaveError("service_name must be non-empty")
    root_dir = Path(tree.root_dir)
    if not root_dir.is_dir():
        raise MicroweaveError(f"root_dir {root_dir} does not exist")
    if tree.convention not in CONVENTIONS:
        raise MicroweaveError(f"unknown convention {tree.convention!r}")
    globs = tuple(tree.include_globs)
    if tree.convention == LAAST_PASSTHROUGH and globs == DEFAULT_INCLUDE_GLOBS:
        globs = PASSTHROUGH_INCLUDE_GLOBS

    report = ExtractionReport()
    root = LaastNode(kind=NodeKind.COMPILATION_UNIT, name=tree.service_name)
    for path in _matched_files(root_dir, globs):
        rel = path.relative_to(root_dir).as_posix()
        try:
            data = path.read_bytes()
        except OSError as exc:
            report.files_skipped.append((rel, f"io error: {exc}"))
            report.warnings.append((rel, 0, f"skipped: io error: {exc}"))
            continue
        if tree.convention == LAAST_PASSTHROUGH:
            try:
                root.children.append(load_laast(data))
            except MicroweaveError as exc:
                report.files_skipped.append((rel, f"invalid document: {exc}"))
                report.warnings.append((rel, 0, f"skipped: invalid document: {exc}"))
                continue
        else:
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                report.files_skipped.append((rel, f"not utf-8: {exc}"))
                report.warnings.append((rel, 0, f"skipped: not utf-8: {exc}"))
                continue
            parser = _JavaLikeParser(text, rel)
            root.children.append(parser.parse())
            report.warnings.extend(parser.warnings)
        report.files_scanned += 1
    report.nodes_emitted = walk(root, lambda node, ancestors: None)
    return root, report
