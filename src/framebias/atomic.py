"""The one way every output file is written: whole or not at all.

``open_atomic`` writes a uniquely named temp file beside its target and
renames it onto the target on a clean exit. A command with several outputs
nests one ``open_atomic`` per output, so no temp file is renamed before the
body has written them all, and an error removes them all. The innermost is
renamed first and an outer file is closed after that, so the body flushes
each outer file once it is written. A failed create or rename names the
target, never a temp file.
"""

from __future__ import annotations

import errno
import os
from contextlib import contextmanager


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
def open_atomic(path, mode: str = "w"):
    """Open a temp file beside ``path`` for writing, as UTF-8 text (``"w"``)
    or bytes (``"wb"``). A clean exit replaces ``path`` with it; an exception,
    also in that rename, removes it and leaves ``path`` as it was. A directory
    at ``path``, which no file replaces, is refused before anything is written.

    The name comes from ``os.urandom`` (importing ``secrets`` loads OpenSSL,
    about 4 MB of peak RSS per command). The file is created with O_EXCL and
    mode 0o666, so the output gets the usual umask-derived permissions
    (``tempfile.mkstemp`` forces 0o600).
    """
    tmp = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
    with _naming(path):
        if os.path.isdir(path) and not os.path.islink(path):  # rename replaces a link itself
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        with _naming(path):
            os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
