"""Durable campaign state: the one place that frames, fsyncs and renames.

Everything under ``--state-dir`` (journals, snapshots, done-files,
build-cache entries, heartbeats) reaches disk through here. A framed
file is a magic header, then frames of ``<u32 body length><u32
crc32(body)><compact JSON body>``. A failed write is one
:class:`CampaignError` naming the path and errno; the caller decides
what it means.
"""

from __future__ import annotations

import errno
import json
import os
import struct
import zlib
from contextlib import contextmanager, suppress

_FRAME = struct.Struct("<II")


class CampaignError(Exception):
    """Campaign state that cannot be trusted (a foreign, stale or damaged
    checkpoint), read or written (a full, read-only or failing disk)."""


@contextmanager
def _failing(action, path):
    """Re-raise an OSError in the block as a CampaignError naming *path*."""
    try:
        yield
    except OSError as exc:
        code = errno.errorcode.get(exc.errno, exc.errno)
        raise CampaignError(
            f"cannot {action} {path}: {exc.strerror or exc} ({code})"
        ) from None


def frame(payload, sort_keys=False):
    """One JSON-able *payload* as a frame."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=sort_keys).encode()
    return _FRAME.pack(len(body), zlib.crc32(body)) + body


def frames(blob, magic):
    """Yield ``(payload, end offset)`` for the good-frame prefix of
    *blob* after its *magic*, stopping at the first torn or corrupt frame
    (short header, body past the end, CRC mismatch, undecodable JSON)."""
    if not blob.startswith(magic):
        return
    offset = len(magic)
    while offset + _FRAME.size <= len(blob):
        length, crc = _FRAME.unpack_from(blob, offset)
        start = offset + _FRAME.size
        body = blob[start:start + length]
        if len(body) != length or zlib.crc32(body) != crc:
            return
        try:
            payload = json.loads(body.decode("utf-8"))
        except ValueError:
            return
        offset = start + length
        yield payload, offset


def read(path):
    """The bytes of *path*, or None when it does not exist."""
    with _failing("read", path):
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None


def _sync_directory(path):
    """fsync *path*'s directory: a create or rename in it survives a power cut."""
    try:
        fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    except OSError:
        return  # platforms without directory fds: nothing more we can do
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def replace(path, data, sync="dir"):
    """Atomically replace *path* with *data* via a pid-suffixed tmp file,
    unlinked if the write fails. *sync* ``"dir"`` fsyncs the file, then
    the directory after the rename (snapshots, done-files: can neither
    tear nor vanish); ``"file"`` the file only (build-cache entries: a
    lost one costs a rebuild); None nothing (ephemeral heartbeats)."""
    tmp = f"{path}.{os.getpid()}.tmp"
    with _failing("write", path):
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
                if sync:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise
        if sync == "dir":
            _sync_directory(path)


def append(path, data, magic=b""):
    """Append *data* to *path* and fsync it. A new or empty file first
    gets *magic*; creating the file also fsyncs its directory."""
    with _failing("append to", path):
        created = not os.path.exists(path)
        with open(path, "ab") as handle:
            if handle.tell() == 0:
                handle.write(magic)
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        if created:
            _sync_directory(path)


def truncate(path, size):
    """Cut *path* back to *size* bytes, durably."""
    with _failing("truncate", path), open(path, "r+b") as handle:
        handle.truncate(size)
        handle.flush()
        os.fsync(handle.fileno())


def set_aside(paths, suffix):
    """Rename each existing path in *paths* to ``path + suffix``, then
    fsync their (shared) directory once."""
    with _failing("set aside", paths[0]):
        for path in paths:
            if os.path.exists(path):
                os.replace(path, path + suffix)
        _sync_directory(paths[0])
