"""The one way every output file is written: whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def open_atomic(path, mode: str = "w"):
    """Open a uniquely named temp file beside ``path`` for writing, as UTF-8
    text (``"w"``) or bytes (``"wb"``). A clean exit ``os.replace``s it onto
    ``path``; an exception removes it and leaves ``path`` as it was.

    The temp file is created with O_EXCL and mode 0o666 so the output gets
    the usual umask-derived permissions (``tempfile.mkstemp`` forces 0o600);
    its name comes from ``os.urandom`` because importing ``secrets`` loads
    OpenSSL, about 4 MB of peak RSS per command.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
