"""Canonical JSON bytes and atomic file writes, shared by the serializers.

Canonical means: UTF-8, compact separators, no trailing newline, insertion
order preserved (callers build objects in documented field order).  Two
equal in-memory values always serialize to identical bytes.
"""

from __future__ import annotations

import io
import json
import os
from collections.abc import Iterable, Iterator
from pathlib import Path
from types import GeneratorType

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
