"""Atomic file writes; partially written artifacts are never left behind."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = ["atomic_write_bytes", "atomic_write_text", "regular_file_target"]


def regular_file_target(path: str | Path) -> Path:
    """``path`` as a ``Path``; ``ValueError`` if it exists and is not a regular file.

    A directory, a FIFO or a device there is refused, since a write by
    rename would replace it.
    """
    path = Path(path)
    if path.exists() and not path.is_file():
        raise ValueError(f"{path} exists and is not a regular file")
    return path


def atomic_write_bytes(path: str | Path, *chunks) -> None:
    """Write the bytes-like ``chunks``, in order, atomically.

    They go to a temp file in the target directory, which is then renamed
    into place.  Each chunk is written as it is, so a large buffer is never
    joined into a copy first.  The target must pass
    :func:`regular_file_target`.
    """
    path = regular_file_target(path)
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
