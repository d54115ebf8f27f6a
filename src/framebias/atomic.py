"""The one way every output file is written: whole or not at all. Each goes
to a uniquely named temp file beside its target and is then renamed onto it
(``open_atomic``); filter and filter-one write both of their temp files, at
once, before renaming either. A failed create or rename names the target,
never a temp file.
"""

from __future__ import annotations

import errno
import os
from contextlib import contextmanager


def temp_beside(path) -> str:
    """A temp file name beside ``path``, unique to this call (from ``os.urandom``:
    importing ``secrets`` loads OpenSSL, about 4 MB of peak RSS per command)."""
    return f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"


@contextmanager
def _naming(path):
    """Re-raise an OS error as the same kind with the same message, naming ``path`` alone."""
    try:
        yield
    except OSError as error:
        if error.strerror is None:
            raise
        raise type(error)(error.errno, error.strerror, os.fspath(path)) from None


@contextmanager
def open_temp(tmp, path, mode: str = "w"):
    """Create ``tmp``, the temp file of ``path``, and open it for writing, as
    UTF-8 text (``"w"``) or bytes (``"wb"``); an exception removes it. A
    directory at ``path``, which no file replaces, is refused first.

    ``tmp`` is created with O_EXCL and mode 0o666 so the output gets the usual
    umask-derived permissions (``tempfile.mkstemp`` forces 0o600).
    """
    with _naming(path):
        if os.path.isdir(path) and not os.path.islink(path):  # rename replaces a link itself
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
    except BaseException:
        os.unlink(tmp)
        raise


def replace(tmp, path) -> None:
    """Rename the whole file ``tmp`` onto ``path``; a failure removes ``tmp``."""
    try:
        with _naming(path):
            os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@contextmanager
def open_atomic(path, mode: str = "w"):
    """Open a temp file beside ``path`` for writing (see ``open_temp``). A
    clean exit replaces ``path`` with it; an exception removes it and leaves
    ``path`` as it was."""
    tmp = temp_beside(path)
    with open_temp(tmp, path, mode) as fh:
        yield fh
    replace(tmp, path)
