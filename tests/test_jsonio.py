from __future__ import annotations

import os

import pytest

from microweave.jsonio import atomic_write


def test_atomic_write_joins_chunks_in_order(tmp_path):
    target = tmp_path / "doc.json"
    atomic_write(target, [b'{"a":', memoryview(b"[1,2]")[1:], b"}"])
    assert target.read_bytes() == b'{"a":1,2]}'
    atomic_write(target, b"[]")
    assert target.read_bytes() == b"[]"
    assert os.listdir(tmp_path) == ["doc.json"]


@pytest.mark.parametrize("existing", [None, b"old"])
def test_atomic_write_leaves_nothing_when_a_chunk_fails(tmp_path, existing):
    target = tmp_path / "doc.json"
    if existing is not None:
        target.write_bytes(existing)

    def chunks():
        yield b"partial"
        raise RuntimeError("encoder failed")

    with pytest.raises(RuntimeError, match="encoder failed"):
        atomic_write(target, chunks())
    if existing is None:
        assert os.listdir(tmp_path) == []
    else:
        assert os.listdir(tmp_path) == ["doc.json"]
        assert target.read_bytes() == existing


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_atomic_write_creates_files_under_the_umask(tmp_path, umask, mode):
    target = tmp_path / "doc.json"
    previous = os.umask(umask)
    try:
        atomic_write(target, b"{}")
    finally:
        os.umask(previous)
    assert target.stat().st_mode & 0o777 == mode
