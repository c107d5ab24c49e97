"""Durable file writes.

Every artifact is written whole or not at all: `write_atomic` writes a temp
file next to the target, fsyncs it and renames it over the target, so a
crash leaves either the old file or the new one; it then fsyncs the
directory, so that the rename itself survives a power loss.  `write_at`
extends a file in place (the checkpoint's append-only sidecar).  A command
that writes into a directory holds it with `sole_writer`, so two processes
never write into one directory at once.
"""

from __future__ import annotations

import contextlib
import fcntl
import os


@contextlib.contextmanager
def sole_writer(directory):
    """Make `directory` if it is missing and hold an exclusive lock on it
    while the block runs.  If another process holds it, raise
    BlockingIOError, naming the directory, before anything is written.  The
    kernel drops the lock when the holder exits, however it exits."""
    os.makedirs(directory, exist_ok=True)
    fd = os.open(directory, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise BlockingIOError(f"{directory} is in use by another taam process") from None
        yield
    finally:
        os.close(fd)


def write_atomic(path, chunks) -> None:
    """Replace `path` by the concatenation of `chunks` (bytes-like objects).
    If that raises (a full disk, a chunk that cannot be built), the temp file
    is removed and `path` stays as it was."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_at(path, offset: int, chunks) -> None:
    """Write `chunks` at byte `offset` of the existing file `path`, cut it
    there, and fsync.  Bytes before `offset` are never touched."""
    with open(path, "r+b") as fh:
        fh.seek(offset)
        for chunk in chunks:
            fh.write(chunk)
        fh.truncate()
        fh.flush()
        os.fsync(fh.fileno())
