"""Whole-file writes: every output file is either complete or absent.

A writer fills a temp file in the target's directory, which replaces the
target only once the last byte is written, so a run killed mid-write
leaves the old file or none, never a truncated one.
"""

from __future__ import annotations

import contextlib
import os
import tempfile


@contextlib.contextmanager
def atomic_open(path, mode="w", newline=None):
    """A file object for writing ``path``: a ``.tmp-emit-`` file beside it
    that replaces ``path`` when the block ends and is removed if the block
    raises.  The file gets the mode ``open`` would give it.  An ``OSError``
    names ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-emit-")
        umask = os.umask(0)
        os.umask(umask)
        try:
            os.fchmod(fd, 0o666 & ~umask)  # the mode open() gives, not mkstemp's 0600
            with os.fdopen(fd, mode, newline=newline) as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as err:
        raise OSError(f"writing {path}: {err}") from err
