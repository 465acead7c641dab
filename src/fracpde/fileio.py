"""Atomic file writes; partially written artifacts are never left behind."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = ["atomic_write_bytes", "atomic_write_text"]


def atomic_write_bytes(path: str | Path, *chunks) -> None:
    """Write the bytes-like ``chunks``, in order, atomically.

    They go to a temp file in the target directory, which is then renamed
    into place.  Each chunk is written as it is, so a large buffer is never
    joined into a copy first.  An existing target that is not a regular
    file (a directory, a FIFO, a device) is refused with ``ValueError``,
    since the rename would replace it.
    """
    path = Path(path)
    if path.exists() and not path.is_file():
        raise ValueError(f"{path} exists and is not a regular file")
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
