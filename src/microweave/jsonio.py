"""Canonical JSON bytes, the field-table codec, and atomic file writes,
shared by the serializers.

Canonical means: UTF-8, compact separators, no trailing newline, insertion
order preserved (each object's keys in its table's order).  Two equal
in-memory values always serialize to identical bytes.
"""

from __future__ import annotations

import io
import json
import os
from collections.abc import Iterable, Iterator
from operator import attrgetter
from pathlib import Path
from types import GeneratorType
from typing import Any, Callable, NamedTuple

from microweave.errors import SchemaViolation

_BYTES = (bytes, bytearray, memoryview)
_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


def canonical_bytes(obj) -> bytes:
    return _ENCODER.encode(obj).encode("utf-8")


def array_chunks(elements: Iterable) -> Iterator[bytes]:
    """One JSON array as chunks of its canonical bytes.  Each element is a
    JSON value, encoded on its own, or its encoding already made: one
    ``bytes`` or a generator of chunks.  Elements given lazily are never
    all alive as objects at once."""
    yield b"["
    for i, element in enumerate(elements):
        if i:
            yield b","
        if isinstance(element, GeneratorType):
            yield from element
        else:
            yield element if isinstance(element, bytes) else canonical_bytes(element)
    yield b"]"


def join_chunks(chunks: Iterable[bytes]) -> bytes:
    """The concatenation of ``chunks``, each appended to one growing buffer
    as it comes, so that the chunks are never all held at once."""
    buffer = io.BytesIO()
    buffer.writelines(chunks)
    return buffer.getvalue()


# --------------------------------------------------------------------------
# the field-table codec
#
# Each record type has one field table: the JSON keys in their canonical
# order, each with the codec of its value.  The writers, and the strict
# reader where a document has one, walk these tables, so a key's name,
# order and type are stated once.


class Codec(NamedTuple):
    dump: Callable[[Any], Any]
    #: ``load(obj, path)`` checks one parsed JSON value and rebuilds it; a
    #: violation raises SchemaViolation naming ``path``.  None where no
    #: reader takes the value back.
    load: Callable[[Any, str], Any] | None = None
    item: Codec | None = None  # each element's codec, for an array
    fields: tuple[tuple[str, Codec], ...] | None = None  # the key table, for a record
    values: Callable[[Any], Any] | None = None  # a record's values, in table order


def _same(value):
    return value


def scalar(check: Callable[[Any], bool], what: str) -> Codec:
    def load(obj, path):
        if not check(obj):
            raise SchemaViolation(f"expected {what}", path=path)
        return obj

    return Codec(_same, load)


STR = scalar(lambda v: isinstance(v, str), "a string")
INT = scalar(lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
FLOAT = scalar(lambda v: isinstance(v, float), "a number")
BOOL = scalar(lambda v: isinstance(v, bool), "a boolean")
JSON = Codec(_same)  # any JSON value, written as it is
#: A member already encoded, written as it is: one ``bytes``, or as an array
#: element also a generator of chunks.  Dumped whole, it is decoded.
ENCODED = Codec(lambda data: json.loads(data if isinstance(data, _BYTES) else b"".join(data)))


def array(item: Codec) -> Codec:
    def load(obj, path):
        if not isinstance(obj, list):
            raise SchemaViolation("expected an array", path=path)
        return [item.load(value, f"{path}[{i}]") for i, value in enumerate(obj)]

    return Codec(lambda values: list(map(item.dump, values)), load, item)


def _load_fields(fields: tuple[tuple[str, Codec], ...], obj, path: str) -> list:
    """The values of an object that has exactly the table's keys, read in
    table order."""
    if not isinstance(obj, dict):
        raise SchemaViolation("expected an object", path=path)
    for key, _codec in fields:
        if key not in obj:
            raise SchemaViolation(f"missing key {key!r}", path=path)
    if len(obj) != len(fields):
        known = {key for key, _codec in fields}
        extra = next(key for key in obj if key not in known)
        raise SchemaViolation(f"unknown key {extra!r}", path=path)
    return [codec.load(obj[key], f"{path}.{key}") for key, codec in fields]


def _fields_codec(fields: tuple[tuple[str, Codec], ...], reads: list[str], values,
                  build) -> Codec:
    """A record's codec, given the expression that reads each field's value
    from ``value``, the function that reads them all in table order and,
    where it loads, the function that builds it from its values.  The dump
    is compiled to one dict display, as a hand-written serializer would
    write it: 2.3 times as fast as ``dict(zip(keys, values))`` on an entity
    match (Python 3.11, 2-vCPU VM).  Keys and paths come from the tables in
    the source, never from input."""
    scope = {f"dump{i}": codec.dump for i, (_key, codec) in enumerate(fields)}
    members = ", ".join(f"{key!r}: {read if codec.dump is _same else f'dump{i}({read})'}"
                        for i, ((key, codec), read) in enumerate(zip(fields, reads)))
    load = build and (lambda obj, path: build(_load_fields(fields, obj, path)))
    return Codec(eval(f"lambda value: {{{members}}}", scope), load, fields=fields, values=values)


def record(*fields: tuple, cls=None) -> Codec:
    """A record written as an object.  Each field is ``(key, codec)``, read
    from the attribute named like the key, or ``(key, codec, path)``, read
    from the attribute path (``"span.line_start"``).  With ``cls``, a
    record type whose fields are named like the keys and are taken by
    keyword, the codec also loads."""
    table = tuple((key, codec) for key, codec, *_path in fields)
    paths = [path[0] if path else key for key, _codec, *path in fields]
    get = attrgetter(*paths)  # a tuple only for two paths or more
    values = get if len(paths) > 1 else lambda value: (get(value),)
    return _fields_codec(table, [f"value.{path}" for path in paths], values, cls and (
        lambda items: cls(**{key: item for (key, _codec), item in zip(table, items)})))


def row(*fields: tuple[str, Codec]) -> Codec:
    """A tuple written as an object, one key per position."""
    return _fields_codec(fields, [f"value[{i}]" for i in range(len(fields))], _same, tuple)


def record_chunks(codec: Codec, value) -> Iterator[bytes]:
    """A record as chunks of its canonical encoding, each array one element
    at a time and each member already encoded as it is.  An element whose
    array members hold arrays in turn (a component, whose methods hold
    their parameters) is written the same way; any other is encoded whole,
    which is faster."""
    for i, ((key, field), data) in enumerate(zip(codec.fields, codec.values(value))):
        yield f'{"," if i else "{"}"{key}":'.encode()
        item = field.item
        if field is ENCODED:
            yield data
        elif item is None:
            yield canonical_bytes(field.dump(data))
        elif item is ENCODED:
            yield from array_chunks(data)
        elif item.fields and any(c.item and c.item.fields and any(m.item for _k, m in c.item.fields)
                                 for _k, c in item.fields):
            yield from array_chunks(record_chunks(item, element) for element in data)
        else:
            yield from array_chunks(map(item.dump, data))
    yield b"}"


def atomic_write(path: str | Path, data: bytes | Iterable) -> None:
    """Write ``data`` via a temp file in the same directory, then rename over
    the target, so readers never observe a half-written file.

    ``data`` is one ``bytes`` object or the parts of one in order, each part
    ``bytes`` or a generator of chunks (the element rule of
    ``array_chunks``); a generator part is drawn one chunk at a time while
    it is written, so its chunks are never all held at once.  Callers pass
    parts as a ``list``, whose ``len`` counts them.

    The temp file is created with mode 0o666 less the umask, as a plain
    ``open`` would create the target."""
    path = Path(path)
    parts = (data,) if isinstance(data, _BYTES) else data
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            for part in parts:
                if isinstance(part, _BYTES):
                    handle.write(part)
                else:
                    handle.writelines(part)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
