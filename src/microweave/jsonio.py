"""Canonical JSON bytes and atomic file writes, shared by the serializers.

Canonical means: UTF-8, compact separators, no trailing newline, insertion
order preserved (callers build objects in documented field order).  Two
equal in-memory values always serialize to identical bytes.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable
from pathlib import Path


def canonical_bytes(obj) -> bytes:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


def atomic_write(path: str | Path, data: bytes | Iterable[bytes]) -> None:
    """Write ``data``, one bytes object or the chunks of one in order, via a
    temp file in the same directory, then rename over the target, so
    readers never observe a half-written file.

    The temp file is created with mode 0o666 less the umask, as a plain
    ``open`` would create the target."""
    path = Path(path)
    chunks = (data,) if isinstance(data, (bytes, bytearray, memoryview)) else data
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
