"""Frontends that produce the language-agnostic tree from service codebases.

Two heuristic, annotation-driven extractors cover Spring-style and
JAX-RS-style codebases; a passthrough frontend accepts pre-built
``.laast.json`` files from external parsers.  Extraction is deliberately
component-level: declarations, annotations, parameters, and calls.  It never
aborts on a bad input file; every anomaly becomes a warning or a skip.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections.abc import Callable
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
    count_nodes,
    load_laast,
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


# Every helper below reads a piece of source as a ``(start, end)`` range of
# file offsets, through the ``_Brackets`` of its file: it finds structure in
# ``struct``, where no literal holds a bracket or a separator, and reads values
# from ``text``, slicing only the value it returns.

_Piece = tuple[int, int]
_NESTING = {"(": 1, "[": 1, "{": 1, ")": -1, "]": -1, "}": -1}
_OPENER_OF = {")": "(", "]": "[", "}": "{"}

#: The characters the bracket table records: brackets, the terminator ``;``,
#: and the separators the helpers split on.
_MARK_RE = re.compile(r"[()\[\]{};,=+]")


class _Brackets:
    """One file's two views and the bracket table of its structural view.

    ``text`` and ``struct`` are never changed, so a piece of the file is the
    same range in both.  The table comes from one walk over ``struct``.  Each
    kind of bracket is matched on its own stack, so ``close`` gives what
    scanning forward from an opener and counting only its kind finds.  ``at``
    holds the sorted offsets of each ``{``, ``}``, ``(`` and ``;``.  Each
    separator's offsets are grouped by the depth before them, counted over
    every bracket of any kind (a stray closer can make it negative), so a
    split reads the separators at its piece's own depth and never visits what
    is nested inside it.
    """

    def __init__(self, text: str, struct: str):
        self.text = text
        self.struct = struct
        self._closes: dict[int, int | None] = {}
        self.at: dict[str, list[int]] = {char: [] for char in "{}(;"}
        self._seps: dict[str, dict[int, list[int]]] = {sep: {} for sep in ",=+"}
        self._bracket_offsets: list[int] = []
        self._depths_after: list[int] = []
        stacks: dict[str, list[int]] = {"(": [], "[": [], "{": []}
        depth = 0
        for m in _MARK_RE.finditer(struct):
            char, offset = m.group(), m.start()
            if char in self._seps:
                self._seps[char].setdefault(depth, []).append(offset)
                continue
            if char in self.at:
                self.at[char].append(offset)
            if char == ";":
                continue
            if char in stacks:
                stacks[char].append(offset)
                self._closes[offset] = None
            elif stacks[_OPENER_OF[char]]:
                self._closes[stacks[_OPENER_OF[char]].pop()] = offset
            depth += _NESTING[char]
            self._bracket_offsets.append(offset)
            self._depths_after.append(depth)

    def close(self, offset: int) -> int | None:
        """Offset of the closer matching the opener at ``offset``, or None
        when it never closes or ``offset`` holds no opener."""
        return self._closes.get(offset)

    def split_top_level(self, piece: _Piece, sep: str) -> list[_Piece]:
        """Split a piece on a separator character at its starting depth."""
        start, end = piece
        before = bisect_left(self._bracket_offsets, start)
        offsets = self._seps[sep].get(self._depths_after[before - 1] if before else 0, [])
        parts: list[_Piece] = []
        for i in offsets[bisect_left(offsets, start) : bisect_left(offsets, end)]:
            parts.append((start, i))
            start = i + 1
        parts.append((start, end))
        return parts


#: What of a piece is left without the whitespace around it: group 1, or
#: nothing when the piece is blank.  The greedy ``.*`` backs off from the end,
#: so a match costs the trailing whitespace, not the piece.
_STRIPPED_RE = re.compile(r"\s*(.*\S)?", re.S)


def _strip(src: _Brackets, piece: _Piece) -> _Piece:
    """``piece`` without the whitespace around its text."""
    start, end = _STRIPPED_RE.match(src.text, *piece).span(1)
    return (start, end) if start >= 0 else (piece[0], piece[0])


def _split_args(src: _Brackets, piece: _Piece, sep: str = ",") -> list[_Piece]:
    """The non-blank pieces between top-level separators, stripped."""
    pieces = (_strip(src, part) for part in src.split_top_level(piece, sep))
    return [(start, end) for start, end in pieces if start < end]


#: One string literal in the structural view, which blanks its contents.
_LITERAL_RE = re.compile(r'" *"')


def _unquote(src: _Brackets, piece: _Piece) -> str | None:
    """The value of a stripped piece that is one string literal, else None."""
    start, end = piece
    if not _LITERAL_RE.fullmatch(src.struct, start, end):
        return None
    return src.text[start + 1 : end - 1].replace('\\"', '"').replace("\\\\", "\\")


_DOTTED_RE = re.compile(r"[\w$]+(?:\.[\w$]+)+")
_KEY_RE = re.compile(r"[\w$]+")


def _encode_annotation_value(src: _Brackets, piece: _Piece) -> str:
    """Render one annotation argument value as its flat string form.

    String literals lose their quotes; ``{a, b}`` arrays join with ``|``, and
    nested arrays flatten at any depth (``{{a, b}, c}`` gives ``a|b|c``, an
    empty array an empty value); dotted enum references keep only the last
    segment (``RequestMethod.GET`` becomes ``GET``); class literals and
    anything else stay verbatim.
    """
    values: list[str] = []
    todo = [piece]
    while todo:
        piece = _strip(src, todo.pop())
        start, end = piece
        lit = _unquote(src, piece)
        if lit is not None:
            values.append(lit)
        elif src.struct.startswith("{", start, end) and src.struct.endswith("}", start, end):
            items = _split_args(src, (start + 1, end - 1))
            todo.extend(reversed(items))
            if not items:
                values.append("")
        elif not src.text.endswith(".class", start, end) and _DOTTED_RE.fullmatch(
            src.text, start, end
        ):
            values.append(src.text[start:end].rsplit(".", 1)[1])
        else:
            values.append(src.text[start:end])
    return "|".join(values)


def _annotation_args(src: _Brackets, piece: _Piece) -> dict[str, str] | None:
    """The argument map of an annotation's argument list, or None when the
    list does not read as one ``value`` or as ``key = value`` pairs."""
    args: dict[str, str] = {}
    for part in _split_args(src, piece):
        kv = src.split_top_level(part, "=")
        key = _strip(src, kv[0])
        if len(kv) == 2 and _KEY_RE.fullmatch(src.text, *key):
            args[src.text[key[0] : key[1]]] = _encode_annotation_value(src, kv[1])
        elif len(kv) == 1:
            args["value"] = _encode_annotation_value(src, part)
        else:
            return None
    return args


@dataclass(frozen=True)
class _Annotation:
    """One top-level ``@Name`` or ``@Name(..)`` in a window.

    ``start`` and ``end`` are file offsets; ``end`` is the offset just past
    it, or None when its argument list never closes in the window; ``args``
    is None when the list is unparseable.
    """

    name: str
    start: int
    end: int | None
    args: dict[str, str] | None


#: An annotation's name with the ``(`` opening its arguments.
_ANNOTATION_HEAD_RE = re.compile(r"@\s*([A-Za-z_][\w$]*)(\s*\()?")


def _read_annotations(src: _Brackets, window: _Piece) -> list[_Annotation]:
    """The top-level annotations of a window in source order.

    An annotation inside the arguments of one that closes is folded into it;
    the annotations inside an argument list that never closes in the window
    are top-level too.  ``@interface`` is no annotation.
    """
    found: list[_Annotation] = []
    folded_until = window[0]
    for m in _ANNOTATION_HEAD_RE.finditer(src.struct, *window):
        name, end = m.group(1), m.end()
        if name == "interface" or m.start() < folded_until:
            continue
        args: dict[str, str] | None = {}
        if m.group(2):
            close = src.close(end - 1)
            if close is None or close >= window[1]:
                found.append(_Annotation(name, m.start(), None, None))
                continue
            args = _annotation_args(src, (end, close))
            end = close + 1
        found.append(_Annotation(name, m.start(), end, args))
        folded_until = end
    return found


# --------------------------------------------------------------------------
# remote-call / event recognition


def _url_template_from_expr(src: _Brackets, expr: _Piece) -> tuple[str, bool]:
    """Build a URL template from a (possibly concatenated) argument expression.

    Literal fragments keep their text; every non-literal operand becomes the
    single-segment wildcard.  Returns ``(template, had_literal)``.
    """
    fragments: list[str] = []
    had_literal = False
    for part in _split_args(src, expr, "+"):
        lit = _unquote(src, part)
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


_CHAIN_LINK_RE = re.compile(r"\s*\.\s*([A-Za-z_][\w$]*)\s*(?=\()")


def _read_chain(
    src: _Brackets, close_of: Callable[[int], int | None], start: int
) -> list[tuple[str, list[_Piece], int]]:
    """Read a fluent chain ``.a(args).b(args)...`` starting at offset
    ``start``; ``close_of`` maps the offset of a link's ``(`` to that of its
    ``)``, or to None, which ends the chain.

    Returns ``(method, argument list, offset of the closing paren)`` per link.
    """
    links: list[tuple[str, list[_Piece], int]] = []
    while (m := _CHAIN_LINK_RE.match(src.struct, start)) is not None:
        close = close_of(m.end())
        if close is None:
            break
        links.append((m.group(1), _split_args(src, (m.end() + 1, close)), close))
        start = close + 1
    return links


_HTTP_ENUM_RE = re.compile(r"(?:[\w$]+\.)*(GET|POST|PUT|DELETE|PATCH|HEAD)")


#: ``receiver.method(`` for a client receiver, optionally after ``this.``.
_CLIENT_HEAD_RE = re.compile(
    r"(?<![\w.$])(?:this\s*\.\s*)?("
    + "|".join(sorted(_CLIENT_IDIOMS))
    + r")\s*\.\s*([A-Za-z_][\w$]*)\s*\("
)


def _url_template(
    src: _Brackets, url_args: list[_Piece], paths: list[_Piece]
) -> tuple[str, bool]:
    """URL template of the first of ``url_args`` with each of ``paths``
    (``.path(..)`` arguments) appended as one more piece.

    Returns ``(template, clean)``: the wildcard and False without a URL
    argument, and clean False when any piece holds no literal.
    """
    if not url_args:
        return URL_WILDCARD, False
    template, clean = _url_template_from_expr(src, url_args[0])
    for expr in paths:
        part, part_clean = _url_template_from_expr(src, expr)
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
    rf"\s*(?:{_MODIFIER}\s+)*(class|interface|enum|record)\s+([A-Za-z_][\w$]*)"
)
_METHOD_HEAD_RE = re.compile(
    rf"\s*(?:{_MODIFIER}\s+)*(?:<[^>]*>\s*)?({_TYPE_PAT})\s+([A-Za-z_][\w$]*)\s*\("
)
_FIELD_RE = re.compile(rf"\s*(?:{_MODIFIER}\s+)*({_TYPE_PAT})\s+([A-Za-z_][\w$]*)\s*(?:=|;)")
_PARAM_RE = re.compile(rf"(?:final\s+)?({_TYPE_PAT})\s+([A-Za-z_][\w$]*)")
_LOCAL_CALL_RE = re.compile(
    r"(?<![\w.$@])(?:([A-Za-z_][\w$]*)\s*\.\s*)?([A-Za-z_][\w$]*)\s*\("
)
#: A head without a return type: a constructor's when ``group(1)`` names its type.
_CALLABLE_HEAD_RE = re.compile(rf"\s*(?:{_MODIFIER}\s+)*([A-Za-z_][\w$]*)\s*\(")
#: What a declaration head's extent is read from: parens and terminators.
_HEAD_MARK_RE = re.compile(r"[(){;]")


class _JavaLikeParser:
    """Heuristic declaration scanner for one source file.

    Reads two views of the file, made in one lexing pass and never changed:
    comment-masked text (string literals intact, for value extraction) and
    additionally string-masked text (for structural scans, so braces or
    parens inside literals never confuse depth tracking).  Both keep the
    offsets and line breaks of the file, so a piece of it is one
    ``(start, end)`` range of offsets in either.  They are read through one
    ``_Brackets``, which also answers every "where does this bracket close"
    and "where is the next ``{``, ``(`` or ``;``".

    Annotations are consumed in source order, and each consumed range ends
    at a cursor.  Whatever reads a line reads it from the cursor on, so a
    declaration sharing a line with its annotations is still seen and the
    annotations are not seen again.  The brace depth at a line start is the
    file's braces before it less the braces inside consumed ranges.
    """

    def __init__(self, text: str, relpath: str):
        self.relpath = relpath
        text, struct, self._line_starts = _masked_views(text)
        self._size = len(struct)
        self._brackets = _Brackets(text, struct)
        self._cursor = 0
        self._blanked: dict[str, list[int]] = {"{": [], "}": []}
        self.warnings: list[tuple[str, int, str]] = []

    def _line_of(self, offset: int) -> int:
        return bisect_right(self._line_starts, offset)

    def _line_end(self, lineno: int) -> int:
        """Offset of the newline ending a line, or the file's size."""
        return self._line_starts[lineno] - 1 if lineno < len(self._line_starts) else self._size

    def _rest_of_line(self, lineno: int) -> _Piece:
        """The part of a line at or after the cursor: what is left of it once
        the consumed annotations are masked, empty when they cover it."""
        end = self._line_end(lineno)
        return min(max(self._line_starts[lineno - 1], self._cursor), end), end

    def _warn(self, line: int, message: str) -> None:
        self.warnings.append((self.relpath, line, message))

    def _next(self, chars: str, start: int) -> tuple[int, str] | None:
        """The first of ``chars`` at or after ``start`` in the structural
        view, as ``(offset, char)``, or None."""
        found = None
        for char in chars:
            offsets = self._brackets.at[char]
            i = bisect_left(offsets, start)
            if i < len(offsets) and (found is None or offsets[i] < found[0]):
                found = (offsets[i], char)
        return found

    def _depth_at(self, lineno: int) -> int:
        """Brace depth of the structural view at the start of a line, with
        the consumed ranges masked."""
        start = self._line_starts[lineno - 1]
        opens, closes = (
            bisect_left(self._brackets.at[c], start) - bisect_left(self._blanked[c], start)
            for c in "{}"
        )
        return opens - closes

    def _mask_range(self, start: int, end: int) -> None:
        """Consume chars [start, end), which begin at or after the cursor:
        log their braces and move the cursor past them."""
        for char, blanked in self._blanked.items():
            offsets = self._brackets.at[char]
            blanked.extend(offsets[bisect_left(offsets, start) : bisect_left(offsets, end)])
        self._cursor = end

    def _span(self, line_start: int, line_end: int) -> SourceSpan:
        return SourceSpan(
            file=self.relpath, line_start=line_start, line_end=max(line_start, line_end)
        )

    def parse(self) -> LaastNode:
        n_lines = len(self._line_starts)
        unit = LaastNode(
            kind=NodeKind.COMPILATION_UNIT,
            name=self.relpath,
            span=self._span(1, max(1, n_lines)),
        )
        i = 1
        pending: list[LaastNode] = []
        while i <= n_lines:
            if self._depth_at(i) != 0:
                i += 1
                continue
            if self._consume_annotations(i, pending):
                continue
            m = _TYPE_DECL_RE.match(self._brackets.struct, *self._rest_of_line(i))
            if m:
                i = self._parse_type(i, m, pending, unit)
                pending = []
                continue
            i += 1
        return unit

    def _consume_annotations(self, lineno: int, pending: list[LaastNode]) -> bool:
        """If the line, from the cursor, begins with an annotation, parse the
        (possibly multi-line) window into ``pending``, consume what it read,
        and return True so the caller re-examines the line past it."""
        struct = self._brackets.struct
        start, line_end = self._rest_of_line(lineno)
        if not struct[start:line_end].lstrip().startswith("@"):
            return False

        def open_parens(line: int) -> int:
            piece = self._rest_of_line(line)
            return struct.count("(", *piece) - struct.count(")", *piece)

        end, unclosed = lineno, open_parens(lineno)
        while end < len(self._line_starts) and unclosed > 0 and end - lineno < 20:
            end += 1
            unclosed += open_parens(end)
        window_end = self._line_end(end)
        found = _read_annotations(self._brackets, (start, window_end))
        if not found:
            return False
        # When no annotation closes, each is kept by name over the whole window.
        closed = [ann for ann in found if ann.end is not None]
        for ann in closed or found:
            if ann.args is None:
                self._warn(lineno, f"unparseable arguments for @{ann.name}")
            span = self._span(lineno, end) if not closed else self._span(
                self._line_of(ann.start), self._line_of(ann.end - 1)
            )
            pending.append(LaastNode(
                kind=NodeKind.ANNOTATION, name=ann.name, attributes=ann.args or {}, span=span
            ))
        self._mask_range(start, closed[-1].end if closed else window_end)
        return True

    def _parse_type(
        self, lineno: int, m: re.Match, pending: list[LaastNode], unit: LaastNode
    ) -> int:
        type_kind, name = m.group(1), m.group(2)
        brace = self._next("{", m.start())
        if brace is None:
            self._warn(lineno, f"type {name} has no body")
            return lineno + 1
        open_off = brace[0]
        close_off = self._brackets.close(open_off)
        if close_off is None:
            self._warn(lineno, f"unbalanced braces in type {name}")
            close_off = self._size - 1
        head_struct = self._brackets.struct[m.start() : open_off]
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
        struct = self._brackets.struct
        body_depth = self._depth_at(open_line) + 1
        i = open_line + 1
        pending: list[LaastNode] = []
        while i < close_line:
            if self._depth_at(i) != body_depth:
                i += 1
                continue
            start, line_end = self._rest_of_line(i)
            if not struct[start:line_end].strip():
                i += 1
                continue
            if self._consume_annotations(i, pending):
                continue
            sig_end = self._signature_extent(i, close_line)
            if sig_end is not None:
                signature = (start, self._line_end(sig_end))
                mm = _METHOD_HEAD_RE.match(struct, *signature)
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
                cm = _CALLABLE_HEAD_RE.match(struct, *signature)
                if cm is not None and cm.group(1) == type_name:
                    # constructor: no endpoint semantics, skip its body
                    end = self._head_end(max(self._line_starts[sig_end - 1], start))
                    i = sig_end + 1 if end is None else self._line_of(end[0]) + 1
                    pending = []
                    continue
            fm = _FIELD_RE.match(struct, start, line_end)
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
        """Last line of a declaration head starting at ``lineno`` (from the
        cursor): the line carrying ``{`` or ``;`` at paren depth 0.  None when
        the line has no call-shaped head."""
        struct = self._brackets.struct
        start, line_end = self._rest_of_line(lineno)
        if struct.find("(", start, line_end) < 0:
            return None
        depth = 0
        for m in _HEAD_MARK_RE.finditer(struct, start, self._line_end(min(limit, lineno + 30))):
            char = m.group()
            if char in "()":
                depth += _NESTING[char]
            elif depth == 0:
                return self._line_of(m.start())
        return None

    def _head_end(self, start: int) -> tuple[int, int | None] | None:
        """``(end, open)`` of the declaration head searched from ``start``:
        its ``;`` and None, or the ``}`` closing its body (the file's last
        character if none does) and the ``{`` opening it; None if neither."""
        term = self._next("{;", start)
        if term is None or term[1] == ";":
            return None if term is None else (term[0], None)
        close = self._brackets.close(term[0])
        return self._size - 1 if close is None else close, term[0]

    def _parse_method(
        self, start_line: int, mm: re.Match, pending: list[LaastNode], type_node: LaastNode
    ) -> int:
        return_type = " ".join(mm.group(1).split())
        name = mm.group(2)
        sig_off = mm.start()
        paren_off = self._next("(", sig_off)[0]
        paren_close = self._brackets.close(paren_off)

        method = LaastNode(
            kind=NodeKind.METHOD_DECL,
            name=name,
            attributes={"return_type": return_type},
            children=list(pending),
            span=self._span(start_line, start_line),
        )
        if paren_close is not None:
            for param in _split_args(self._brackets, (paren_off + 1, paren_close)):
                self._add_param(method, param, start_line)

        end = self._head_end(sig_off if paren_close is None else paren_close + 1)
        end_line = start_line if end is None else self._line_of(end[0])
        if end is not None and end[1] is not None:
            self._scan_body(method, end[1] + 1, end[0])
        method.span = self._span(start_line, end_line)
        type_node.children.append(method)
        return end_line + 1

    def _add_param(self, method: LaastNode, param: _Piece, line: int) -> None:
        """Append the Param node of one stripped parameter to ``method``, or
        warn when it is not a type and a name after its annotations.

        Annotations whose arguments never close come after the others."""
        text, (pos, end) = self._brackets.text, param
        found = sorted(_read_annotations(self._brackets, param), key=lambda ann: ann.end is None)
        for ann in found:
            if ann.args is None:
                self._warn(line, f"unparseable arguments for @{ann.name}")
        bare = ""
        for ann in found:
            if ann.end is not None:
                bare += text[pos : ann.start]
                pos = ann.end
        pm = _PARAM_RE.fullmatch(" ".join((bare + text[pos:end]).split()))
        if pm is None:
            self._warn(line, f"unparseable parameter {text[param[0] : end]!r} in {method.name}")
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
        """Append the calls in a method body, chars [start_off, end_off), to
        ``method`` in line order.

        Call heads are matched on the structural view, so text in a comment
        or a literal is never a call; a client call's arguments are
        delimited on the structural view and read from the text view, where
        literals are intact.
        """
        src = self._brackets
        struct = src.struct

        def close_of(offset: int) -> int | None:  # the ) closing in the body
            close = src.close(offset)
            return close if close is not None and close < end_off else None

        calls = []
        for m in _CLIENT_HEAD_RE.finditer(struct, start_off, end_off):
            receiver, head = m.groups()
            idiom = _CLIENT_IDIOMS[receiver]
            if head not in idiom.heads:
                continue
            close = close_of(m.end() - 1)
            if close is None:
                continue
            args = _split_args(src, (m.end(), close))
            roles = idiom.links or {}
            uri_link = "uri" in roles.values()
            if idiom.kind == CALL_KIND_REMOTE and not uri_link and not args:
                continue
            http = idiom.heads[head]
            if isinstance(http, int):
                enum = _HTTP_ENUM_RE.fullmatch(src.text, *args[http]) if http < len(args) else None
                http = enum.group(1) if enum else None
            http = http or HTTP_UNKNOWN
            url_args, counted = ([], []) if uri_link else (args, list(args))
            paths: list[_Piece] = []
            end = close
            chain = _read_chain(src, close_of, close + 1) if roles else ()
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
                template, clean = _url_template(src, url_args, paths)
                attrs = {"http_method": http, "url_template": template}
                problem = "unparseable URL expression"
            else:
                topic = _unquote(src, args[0]) if args else None
                clean = topic is not None
                attrs = {"topic": topic if clean else URL_WILDCARD}
                problem = "non-literal topic"
            if not clean:
                shape = ("()" if uri_link else "(...)") + (" chain" if roles else "")
                self._warn(self._line_of(m.start()), f"{problem} in {receiver}.{head}{shape}")
            attrs = {CALL_KIND_ATTR: idiom.kind, **attrs, "arg_count": str(len(counted))}
            span = SourceSpan(self.relpath, self._line_of(m.start()), self._line_of(end))
            calls.append(_call_node(head, attrs, span))

        for m in _LOCAL_CALL_RE.finditer(struct, start_off, end_off):
            receiver, callee = m.group(1), m.group(2)
            if receiver == "this":
                receiver = None
            if callee in _JAVA_KEYWORDS or (receiver and receiver in _JAVA_KEYWORDS):
                continue
            if receiver in _CLIENT_IDIOMS:
                continue
            before = m.start()
            while before > start_off and struct[before - 1].isspace():
                before -= 1
            if struct.endswith("new", start_off, before):
                continue
            lineno = self._line_of(m.start())
            attrs = {CALL_KIND_ATTR: CALL_KIND_LOCAL}
            if receiver:
                attrs["receiver"] = receiver
            calls.append(_call_node(callee, attrs, SourceSpan(self.relpath, lineno, lineno)))
        calls.sort(key=lambda c: (c.span.line_start, c.span.line_end, c.name or ""))
        method.children.extend(calls)


# --------------------------------------------------------------------------
# whole-tree extraction


def source_files(tree: SourceTree) -> list[Path]:
    """The files ``tree``'s include globs match, in sorted path order."""
    root = Path(tree.root_dir)
    globs = tuple(tree.include_globs)
    if tree.convention == LAAST_PASSTHROUGH and globs == DEFAULT_INCLUDE_GLOBS:
        globs = PASSTHROUGH_INCLUDE_GLOBS
    seen: set[Path] = set()
    for pattern in globs:
        for path in root.glob(pattern):
            if path.is_file():
                seen.add(path)
    return sorted(seen, key=lambda p: p.relative_to(root).as_posix())


def extract(tree: SourceTree, files: list[Path] | None = None
            ) -> tuple[LaastNode, ExtractionReport]:
    """Extract one service tree into a language-agnostic tree.

    The root is a synthetic CompilationUnit named after the service, holding
    one CompilationUnit child per scanned file in sorted path order, so the
    result is deterministic for a given tree.  Bad files are skipped with a
    warning; extraction itself never fails on file content.  ``files``, when
    given, is ``source_files(tree)`` already listed.
    """
    if not tree.service_name:
        raise MicroweaveError("service_name must be non-empty")
    root_dir = Path(tree.root_dir)
    if not root_dir.is_dir():
        raise MicroweaveError(f"root_dir {root_dir} does not exist")
    if tree.convention not in CONVENTIONS:
        raise MicroweaveError(f"unknown convention {tree.convention!r}")

    report = ExtractionReport()
    root = LaastNode(kind=NodeKind.COMPILATION_UNIT, name=tree.service_name)
    for path in source_files(tree) if files is None else files:
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
    report.nodes_emitted = count_nodes(root)
    return root, report
