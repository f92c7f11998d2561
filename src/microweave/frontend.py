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
from collections.abc import Callable, Iterator
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

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
from microweave.record import Record

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


class SourceTree(Record):
    """One microservice codebase to extract."""

    __slots__ = ("service_name", "root_dir", "include_globs", "convention")
    _defaults = {"include_globs": DEFAULT_INCLUDE_GLOBS, "convention": SPRING_LIKE}


class _ClientIdiom(NamedTuple):
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


class ExtractionReport(Record):
    """What the extractor did for one service tree."""

    __slots__ = ("files_scanned", "files_skipped", "nodes_emitted", "warnings")
    _defaults = {"files_scanned": 0, "files_skipped": list, "nodes_emitted": 0, "warnings": list}


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
    holds the sorted offsets of each ``{``, ``(`` and ``;``.  Each
    separator's offsets are grouped by the depth before them, counted over
    every bracket of any kind (a stray closer can make it negative), so a
    split reads the separators at its piece's own depth and never visits
    what is nested inside it.
    """

    def __init__(self, text: str, struct: str):
        self.text = text
        self.struct = struct
        self._closes: dict[int, int | None] = {}
        self.at: dict[str, list[int]] = {char: [] for char in "{(;"}
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


_DOTTED_RE = re.compile(r"[\w$]+(?:\s*\.\s*[\w$]+)+")
_KEY_RE = re.compile(r"[\w$]+")


def _type_text(chars: str) -> str:
    """A type as its text reads with one space between words, none beside
    ``<``, ``>``, ``[``, ``]`` or ``.`` and one after each comma, so that no
    line break or comment between its tokens changes it."""
    text = " ".join(chars.split())
    for punct in "<>[].,":
        text = text.replace(" " + punct, punct)
    for punct in "<[.,":
        text = text.replace(punct + " ", punct)
    return text.replace(",", ", ")


def _encode_annotation_value(src: _Brackets, piece: _Piece) -> str:
    """Render one annotation argument value as its flat string form.

    String literals lose their quotes; ``{a, b}`` arrays join with ``|``, and
    nested arrays flatten at any depth (``{{a, b}, c}`` gives ``a|b|c``, an
    empty array an empty value); dotted enum references keep only the last
    segment (``RequestMethod.GET`` becomes ``GET``); class literals read as
    types (``Foo .class`` becomes ``Foo.class``), and anything else stays
    verbatim.
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
        elif src.text.endswith(".class", start, end) or _DOTTED_RE.fullmatch(src.text, start, end):
            value = _type_text(src.text[start:end])
            values.append(value if value.endswith(".class") else value.rsplit(".", 1)[1])
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


class _Annotation(NamedTuple):
    """One top-level ``@Name`` or ``@Name(..)`` in a piece.

    ``start`` and ``end`` are file offsets; ``end`` is the offset just past
    it, or None when its argument list never closes in the piece; ``args``
    is None when the list is unparseable.
    """

    name: str
    start: int
    end: int | None
    args: dict[str, str] | None


def _annotation_node(ann: _Annotation, span: SourceSpan) -> LaastNode:
    return LaastNode(kind=NodeKind.ANNOTATION, name=ann.name, attributes=ann.args or {}, span=span)


#: An annotation's name with the ``(`` opening its arguments.
_ANNOTATION_HEAD_RE = re.compile(r"@\s*([A-Za-z_][\w$]*)(\s*\()?")


def _read_annotations(src: _Brackets, piece: _Piece) -> Iterator[_Annotation]:
    """The top-level annotations of a piece in source order.

    An annotation inside the arguments of one that closes is folded into it;
    the annotations inside an argument list that never closes in the piece
    are top-level too.  ``@interface`` is no annotation.
    """
    folded_until = piece[0]
    for m in _ANNOTATION_HEAD_RE.finditer(src.struct, *piece):
        name, end = m.group(1), m.end()
        if name == "interface" or m.start() < folded_until:
            continue
        args: dict[str, str] | None = {}
        if m.group(2):
            close = src.close(end - 1)
            if close is None or close >= piece[1]:
                yield _Annotation(name, m.start(), None, None)
                continue
            args = _annotation_args(src, (end, close))
            end = close + 1
        yield _Annotation(name, m.start(), end, args)
        folded_until = end


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
_RESERVED = _MODIFIER_WORDS | _JAVA_KEYWORDS
#: Each kind of declaration, how its head reads (``group(1)`` its type or
#: kind, ``group(2)`` its name, never reserved) and the words its type is not.
_DECLARATIONS = (
    ("type", _TYPE_DECL_RE, frozenset()),
    ("method", _METHOD_HEAD_RE, _RESERVED),
    ("field", _FIELD_RE, _JAVA_KEYWORDS),
)
_LOCAL_CALL_RE = re.compile(
    r"(?<![\w.$@])(?:([A-Za-z_][\w$]*)\s*\.\s*)?([A-Za-z_][\w$]*)\s*\("
)


class _JavaLikeParser:
    """Island parser for one source file, read through the ``_Brackets`` of
    its two views: declarations are islands in a sea of skipped text.

    The file's types, and the members of a type body, are the stretches
    between the terminators at that depth: a ``;``, or a ``{`` and the ``}``
    closing it.  A member's head runs from the previous terminator to its
    own; its annotations are those before its first other token, and the
    rest reads as a type, method or field.  Anything else, such as a nested
    type, a constructor or an initializer block, is skipped with its body.
    Line starts give spans, warnings, and where a head is read again.
    """

    def __init__(self, text: str, relpath: str):
        self.relpath = relpath
        text, struct, self._line_starts = _masked_views(text)
        self._brackets = _Brackets(text, struct)
        self.warnings: list[tuple[str, int, str]] = []

    def _line_of(self, offset: int) -> int:
        return bisect_right(self._line_starts, offset)

    def _warn(self, offset: int, message: str) -> None:
        self.warnings.append((self.relpath, self._line_of(offset), message))

    def _span(self, start: int, end: int) -> SourceSpan:  # the lines of chars start..end
        return SourceSpan(self.relpath, self._line_of(start), self._line_of(end))

    def _next(self, chars: str, start: int) -> tuple[int, str] | None:
        """The first of ``chars`` at or after ``start`` in the structural
        view, as ``(offset, char)``, or None."""
        at = self._brackets.at
        found = ((at[c][i], c) for c in chars if (i := bisect_left(at[c], start)) < len(at[c]))
        return min(found, default=None)

    def _members(self, start: int, end: int, read: Callable[[int, int, int], bool]) -> int:
        """Call ``read(start, terminator, close)`` for each member of chars
        ``[start, end)``: where its head starts, the offset of its ``;`` or
        ``{``, and that of the ``;`` again or of the ``}`` closing the ``{``;
        ``read`` returns whether the head declares anything.  A ``(`` closing
        before ``end`` is skipped whole, and any other is a stray character.
        So is a ``{`` that never closes after a head declaring nothing; after
        one declaring something, it holds the rest of the file.  Returns
        where the text after the last terminator, which is no member, starts."""
        pos = start
        while (found := self._next("({;", pos)) is not None and found[0] < end:
            term, char = found
            close = term if char == ";" else self._brackets.close(term)
            if char == "(":
                pos = term + 1 if close is None or close >= end else close + 1
            elif close is not None:
                read(start, term, close)
                start = pos = close + 1
            elif read(start, term, len(self._brackets.struct) - 1):
                return end
            else:
                start = pos = term + 1
        return start

    def _head(self, start: int, term: int) -> tuple[list[LaastNode] | None, int]:
        """The annotations of the head ``[start, term)`` before its first
        other token, and that token's offset (``term`` if none).  When one
        of them never closes in the head, all that follows is its argument
        list: the annotations are None, and the offset is its own."""
        src, annotations = self._brackets, []  # read where one starts: retries stay linear
        m = _ANNOTATION_HEAD_RE.match(src.struct, _strip(src, (start, term))[0])
        for ann in _read_annotations(src, (start, term)) if m and m[1] != "interface" else ():
            if _strip(src, (start, ann.start)) != (start, start):
                break  # a declaration has begun, and this one is its own
            if ann.args is None:
                self._warn(ann.start, f"unparseable arguments for @{ann.name}")
            if ann.end is None:
                return None, ann.start
            annotations.append(_annotation_node(ann, self._span(ann.start, ann.end - 1)))
            start = ann.end
        first, end = _strip(src, (start, term))
        return annotations, first if first < end else term

    def _declaration(
        self, start: int, term: int, members: bool
    ) -> tuple[str, re.Match, list[LaastNode]] | None:
        """What the head ``[start, term)`` declares: ``(kind, match,
        annotations)`` for a kind of ``_DECLARATIONS`` (only a type unless
        ``members``), or None.  It is read from the first token after the
        annotations, up to and including the terminator; failing that, from
        each later line in turn to its end.  Sea text, such as a stray token
        or an unterminated literal, ends no member but often ends at a line
        break, and reading each line once keeps the work linear."""
        struct, lines = self._brackets.struct, self._line_starts
        limit = term + 1
        while start < term:
            annotations, decl = self._head(start, term)
            line = self._line_of(decl)
            next_line = lines[line] if line < len(lines) else term + 1
            if limit <= term:  # a retry, read to the end of its line
                limit = min(next_line, term + 1)
            for kind, pattern, not_types in _DECLARATIONS[: 3 if members else 1]:
                m = annotations is not None and pattern.match(struct, decl, limit)
                if (
                    m
                    and m.group(2) not in _RESERVED
                    and m.group(1).split("<")[0].strip() not in not_types
                    and (kind != "method" or (self._brackets.close(m.end() - 1) or term) < term)
                ):  # a method's parameters close in its head
                    return kind, m, annotations
            start, limit = next_line, term
        return None

    def parse(self) -> LaastNode:
        span = SourceSpan(self.relpath, 1, len(self._line_starts))
        unit = LaastNode(kind=NodeKind.COMPILATION_UNIT, name=self.relpath, span=span)

        def read_type(start: int, term: int, _close: int) -> bool:
            found = self._declaration(start, term, members=False)
            if found is None:
                return False
            _kind, m, annotations = found
            if self._brackets.struct[term] == ";":  # a stray ``;`` may precede the body
                after = self._next("{;", term + 1)
                if after is None or after[1] == ";" or self._declaration(term + 1, after[0], True):
                    self._warn(m.start(), f"type {m.group(2)} has no body")
                    return True
                term = after[0]
            unit.children.append(self._parse_type(m, annotations, term))
            return True

        size = len(self._brackets.struct)
        found = self._declaration(self._members(0, size, read_type), size, members=False)
        if found is not None:
            self._warn(found[1].start(), f"type {found[1].group(2)} has no body")
        return unit

    def _parse_type(self, m: re.Match, annotations: list[LaastNode], open_off: int) -> LaastNode:
        type_kind, name = m.group(1), m.group(2)
        close_off = self._brackets.close(open_off)
        if close_off is None:
            self._warn(m.start(), f"unbalanced braces in type {name}")
            close_off = len(self._brackets.struct) - 1
        head_struct = self._brackets.struct[m.start() : open_off]
        attrs = {"type_kind": type_kind}
        for key, pattern in (("extends", r"\bextends\s+(.+?)(?:\bimplements\b|$)"),
                             ("implements", r"\bimplements\s+(.+)$")):
            found = re.search(pattern, head_struct, re.S)
            if found and found.group(1).strip():
                attrs[key] = _type_text(found.group(1)).strip(" ,")
        node = LaastNode(
            kind=NodeKind.TYPE_DECL,
            name=name,
            attributes=attrs,
            children=annotations,
            span=self._span(m.start(), close_off),
        )
        self._members(open_off + 1, close_off, lambda *member: self._parse_member(node, *member))
        self._resolve_local_calls(node)
        return node

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

    def _parse_member(self, type_node: LaastNode, start: int, term: int, close: int) -> bool:
        """Append the method or field one member declares, and return
        whether it declares anything; a nested type is skipped."""
        found = self._declaration(start, term, members=True)
        if found is not None and found[0] != "type":
            kind, m, annotations = found
            type_node.children.append(
                self._parse_method(m, annotations, term, close) if kind == "method" else LaastNode(
                    kind=NodeKind.FIELD_DECL,
                    name=m.group(2),
                    attributes={"declared_type": _type_text(m.group(1))},
                    children=annotations,
                    span=self._span(m.start(), m.start()),
                )
            )
        return found is not None

    def _parse_method(
        self, mm: re.Match, annotations: list[LaastNode], term: int, close: int
    ) -> LaastNode:
        start = mm.start()
        method = LaastNode(
            kind=NodeKind.METHOD_DECL,
            name=mm.group(2),
            attributes={"return_type": _type_text(mm.group(1))},
            children=annotations,
            span=self._span(start, close),
        )
        paren_off = mm.end() - 1
        for param in _split_args(self._brackets, (paren_off + 1, self._brackets.close(paren_off))):
            self._add_param(method, param, start)
        if term < close:
            self._scan_body(method, term + 1, close)
        return method

    def _add_param(self, method: LaastNode, param: _Piece, at: int) -> None:
        """Append the Param node of one stripped parameter to ``method``, or
        warn when it is not a type and a name after its annotations.  Its
        spans and warnings take the line of offset ``at``.

        Annotations whose arguments never close come after the others."""
        text, (pos, end) = self._brackets.text, param
        found = sorted(_read_annotations(self._brackets, param), key=lambda ann: ann.end is None)
        for ann in found:
            if ann.args is None:
                self._warn(at, f"unparseable arguments for @{ann.name}")
        bare = ""
        for ann in found:
            if ann.end is not None:
                bare += text[pos : ann.start]
                pos = ann.end
        pm = _PARAM_RE.fullmatch(" ".join((bare + text[pos:end]).split()))
        if pm is None:
            self._warn(at, f"unparseable parameter {text[param[0] : end]!r} in {method.name}")
            return
        span = self._span(at, at)
        method.children.append(LaastNode(
            kind=NodeKind.PARAM,
            name=pm.group(2),
            attributes={"declared_type": _type_text(pm.group(1))},
            children=[_annotation_node(ann, span) for ann in found],
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
                self._warn(m.start(), f"{problem} in {receiver}.{head}{shape}")
            attrs = {CALL_KIND_ATTR: idiom.kind, **attrs, "arg_count": str(len(counted))}
            calls.append(_call_node(head, attrs, self._span(m.start(), end)))

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
            attrs = {CALL_KIND_ATTR: CALL_KIND_LOCAL}
            if receiver:
                attrs["receiver"] = receiver
            calls.append(_call_node(callee, attrs, self._span(m.start(), m.start())))
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
    warning; extraction itself never fails on a file's name or content.  A
    name that is not UTF-8 is reported with backslash escapes.  ``files``, when
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

    def skip(rel: str, reason: str) -> None:
        report.files_skipped.append((rel, reason))
        report.warnings.append((rel, 0, f"skipped: {reason}"))

    for path in source_files(tree) if files is None else files:
        rel = path.relative_to(root_dir).as_posix()
        name = rel.encode("utf-8", "backslashreplace").decode("utf-8")
        if name != rel:
            skip(name, "file name is not utf-8")
            continue
        try:
            data = path.read_bytes()
        except OSError as exc:
            skip(rel, f"io error: {exc}")
            continue
        if tree.convention == LAAST_PASSTHROUGH:
            try:
                root.children.append(load_laast(data))
            except MicroweaveError as exc:
                skip(rel, f"invalid document: {exc}")
                continue
        else:
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                skip(rel, f"not utf-8: {exc}")
                continue
            parser = _JavaLikeParser(text, rel)
            root.children.append(parser.parse())
            report.warnings.extend(parser.warnings)
        report.files_scanned += 1
    report.nodes_emitted = count_nodes(root)
    return root, report
