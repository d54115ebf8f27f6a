"""Dense query × gallery matrices with id mappings, plus file formats.

Two interchangeable serializations:

* text: comma-separated, header row of gallery ids (first cell empty),
  one leading query id per data row;
* binary "SIMM": magic ``SIMM``, version byte 1, u32 LE row/col counts,
  row-major f64 LE values, then two length-prefixed UTF-8 id lists
  (rows, then cols; each list is a u32 count followed by u32-length-
  prefixed ids).

Every matrix is read, written and scored as a *block source*: ``rows``,
``cols``, ``shape`` and ``blocks(rows)``, a context manager giving
``fill(start, stop, out)``. That returns rows ``start:stop`` (``start`` a
multiple of ``rows``), written into the C-contiguous ``out`` or as a view
where they are held so, and refuses a non-finite value. ``fill`` is called
one block at a time, in ascending order of ``start``; a source that writes
is filled block by block from the first, while a pass over any other may
start at any block, as eval's shares of queries do. A
``SimilarityMatrix``, an open SIMM file (``SimmReader``) and the simulator's
per-condition generator provide it; the first two also give ``T``, their
transpose as a source, which eval scores for v2t.

A text matrix is read row by row, from a pipe too, into an array that grows
as rows arrive. A SIMM file is opened as a ``SimmReader`` on a seekable file:
the header, the file's length and the id lists are checked first (the id
lists a few bytes at a time, so a padded file is refused from its length),
and values are read on demand with positional reads: whole (``load_matrix``,
``from_binary``), a block of rows in one read, or, for ``T``, blocks cut from
column groups, each group read into one buffer by the first block of it that
is filled (in one read where a group spans every column). Any source
is saved a block of rows at a time; a ``SimmWriter`` writes each block where
the one before it ended. A matrix keeps the array it is handed when that
array is float64, C-contiguous and owns its data, and marks it read-only; any
other input (a view, another dtype, a list) is copied.
"""

from __future__ import annotations

import csv
import io
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass

from framebias._numpy import np
from framebias.atomic import open_atomic
from framebias.dataset import _lines, bad_utf8_byte, csv_writer
from framebias.errors import AnnotationParseError, FrameBiasError, ShapeMismatchError

MAGIC = b"SIMM"
VERSION = 1
_HEADER_BYTES = 13  # magic, version, u32 rows, u32 cols
_GROUP_BYTES = 1 << 23  # values of one column group, from which the transpose's blocks are cut
_TILE_ROWS = 256  # source rows of a transposed block copied at once, so the copy stays in cache
_SAVE_VALUES = 1 << 16  # values of one block of rows that a save fills and writes


def _check_ids(ids: tuple[str, ...], side: str) -> None:
    if len(set(ids)) != len(ids):
        first = {}  # id -> index of its first occurrence
        i = next(i for i, id_ in enumerate(ids) if first.setdefault(id_, i) != i)
        raise ShapeMismatchError(f"duplicate {side} id {ids[i]!r} at {side} {i}")


def _check_finite(values: np.ndarray, lo, hi, rows, cols) -> None:
    """Check values from their minimum and maximum (NaN propagates); only a
    failure looks at cells, and names the first non-finite one in row order."""
    if not (np.isfinite(lo) and np.isfinite(hi)):
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise ShapeMismatchError(f"matrix values must all be finite: {values[i, j]} at ({rows[i]!r}, {cols[j]!r})")


def _check_block(values: np.ndarray, rows, cols) -> None:
    """Refuse a non-finite value of a block whose cells have ids ``rows`` and ``cols``."""
    if values.size:
        _check_finite(values, values.min(), values.max(), rows, cols)


def _copy_transposed(out: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Copy ``columns.T`` into ``out``, ``_TILE_ROWS`` rows of ``columns`` at a time."""
    for at in range(0, len(columns), _TILE_ROWS):
        np.copyto(out[:, at : at + _TILE_ROWS], columns[at : at + _TILE_ROWS].T)
    return out


class _Transposed:
    """The transpose of a block source, whose blocks the source fills from its columns."""

    def __init__(self, source) -> None:
        self.T, self.rows, self.cols, self.shape = source, source.cols, source.rows, source.shape[::-1]

    def blocks(self, rows: int):
        return self.T._column_blocks(rows)


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Scores for every (query, gallery) pair; values must be finite.

    ``values`` is taken over, not copied, when it is a float64, C-contiguous
    array that owns its data: the matrix then marks it read-only, so the
    caller can no longer write to it. Views and other inputs are copied.
    Its blocks are views of that array's rows; those of ``T`` are copies.
    """

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if not (values.flags.owndata and values.flags.c_contiguous):
            values = values.copy()  # a view may share its memory with writable arrays
        if values.shape != (len(self.rows), len(self.cols)):
            raise ShapeMismatchError(
                f"values shape {values.shape} does not match {len(self.rows)}x{len(self.cols)} ids"
            )
        _check_ids(self.rows, "row")
        _check_ids(self.cols, "col")
        if values.size:
            self._check_range(values, values.min(), values.max())
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def _check_range(self, values: np.ndarray, lo, hi) -> None:
        _check_finite(values, lo, hi, self.rows, self.cols)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def T(self) -> _Transposed:
        return _Transposed(self)

    @contextmanager
    def blocks(self, rows: int):
        yield lambda start, stop, out: self.values[start:stop]

    @contextmanager
    def _column_blocks(self, rows: int):
        yield lambda start, stop, out: _copy_transposed(out, self.values[:, start:stop])

    def transposed(self):
        return type(self)(rows=self.cols, cols=self.rows, values=self.values.T)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimilarityMatrix):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True, eq=False)
class RelevancyMatrix(SimilarityMatrix):
    """Graded relevance in [0, 1] for every (query, gallery) pair."""

    def _check_range(self, values: np.ndarray, lo, hi) -> None:
        super()._check_range(values, lo, hi)
        if lo < 0.0 or hi > 1.0:
            raise ShapeMismatchError("relevancy values must lie in [0, 1]")


def _in_order(source, use) -> None:
    """Call ``use(start, block)`` on each block of ``source``'s rows in file
    order, each of about ``_SAVE_VALUES`` values, filled into one buffer."""
    nrows, ncols = source.shape
    step = max(1, _SAVE_VALUES // max(1, ncols))
    out = np.empty((min(step, nrows), ncols))
    with source.blocks(step) as fill:
        for start in range(0, nrows, step):
            stop = min(start + step, nrows)
            use(start, fill(start, stop, out[: stop - start]))


def _write_text(source, fh) -> None:
    """Write the text format of a block source to an open text file, row by row."""
    writer = csv_writer(fh, (*source.rows, *source.cols))
    writer.writerow(["", *source.cols])

    def write(start, block):
        for row_id, values in zip(source.rows[start:], block):
            writer.writerow([row_id, *map(repr, values.tolist())])

    _in_order(source, write)


def to_text(matrix) -> str:
    buf = io.StringIO()
    _write_text(matrix, buf)
    return buf.getvalue()


def from_text(text) -> SimilarityMatrix:
    """Parse the text format from its text, or row by row from an open text
    file (any iterable of lines). The values go straight into an array that
    grows by doubling and is trimmed in place, so the matrix keeps it."""
    reader = csv.reader(_lines(text))
    rows = []
    try:
        header = next(reader, None)
        if header is None:
            raise AnnotationParseError("empty matrix file")
        cols = tuple(header[1:])
        values = np.empty((1, len(cols)))
        for rec in reader:
            if not rec:
                continue
            if len(rec) != len(cols) + 1:
                raise AnnotationParseError(f"expected {len(cols) + 1} fields, got {len(rec)}")
            if len(rows) == len(values):
                values.resize((2 * len(values), len(cols)), refcheck=False)
            values[len(rows)] = [float(v) for v in rec[1:]]
            rows.append(rec[0])
    except ValueError:
        raise AnnotationParseError(f"matrix line {reader.line_num}: non-numeric value") from None
    except (csv.Error, AnnotationParseError) as err:
        where = f"matrix line {reader.line_num}: " if reader.line_num else ""  # no line read: the file is empty
        raise AnnotationParseError(f"{where}{err}") from None
    values.resize((len(rows), len(cols)), refcheck=False)
    return SimilarityMatrix(rows=tuple(rows), cols=cols, values=values)


def _pack_ids(ids: tuple[str, ...]) -> bytes:
    parts = [struct.pack("<I", len(ids))]
    for s in ids:
        raw = s.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    return b"".join(parts)


def _read_ids(fh, offset: int, size: int, expected: int, side: str) -> tuple[tuple[str, ...], int]:
    """Decode one id list from ``fh``, positioned at file ``offset``, reading
    only its own bytes; ``size`` is the file's length."""

    def take(n: int) -> bytes:
        data = fh.read(n)
        if len(data) != n:
            raise AnnotationParseError(f"SIMM {side} ids ended early: the file shrank below {size} bytes while read")
        return data

    if offset + 4 > size:
        raise AnnotationParseError(f"SIMM truncated at the {side} id count (offset {offset} of {size} bytes)")
    (count,) = struct.unpack("<I", take(4))
    if count != expected:
        raise AnnotationParseError(f"SIMM {side} id count {count} does not match the matrix's {expected} {side}s")
    offset += 4
    ids = []
    for i in range(count):
        if offset + 4 > size:
            raise AnnotationParseError(f"SIMM truncated at {side} id {i} (offset {offset} of {size} bytes)")
        (n,) = struct.unpack("<I", take(4))
        offset += 4
        if offset + n > size:
            raise AnnotationParseError(
                f"SIMM truncated in {side} id {i}: {n} bytes at offset {offset}, file has {size}"
            )
        try:
            ids.append(take(n).decode("utf-8"))
        except UnicodeDecodeError:
            raise AnnotationParseError(f"SIMM {side} id {i} at offset {offset} is not UTF-8") from None
        offset += n
    return tuple(ids), offset


def _positional(fh):
    """``read(buffer, offset) -> bytes read`` from ``offset`` of ``fh``: one
    system call, or a seek and a read for a file without a descriptor."""
    try:
        fd = fh.fileno()
    except OSError:  # io.BytesIO has no descriptor
        fd = None
    if fd is not None and hasattr(os, "preadv"):
        return lambda buf, offset: os.preadv(fd, [buf], offset)

    def read(buf, offset):
        fh.seek(offset)
        return fh.readinto(buf)

    return read


class SimmWriter:
    """A block source that writes each block ``source`` fills to the binary
    file ``fh`` as SIMM: the id lists and the header first, then each block
    where the one before it ended. The file is complete once every block has
    been filled in order, so a block is written and scored in one pass."""

    def __init__(self, source, fh) -> None:
        self.source, self.rows, self.cols, self.shape, self._fh = source, source.rows, source.cols, source.shape, fh
        nrows, ncols = self.shape
        fh.seek(_HEADER_BYTES + 8 * nrows * ncols)
        fh.write(_pack_ids(self.rows) + _pack_ids(self.cols))
        fh.seek(0)
        fh.write(MAGIC + bytes([VERSION]) + struct.pack("<II", nrows, ncols))

    @contextmanager
    def blocks(self, rows: int):
        with self.source.blocks(rows) as fill:

            def write(start, stop, out):
                block = fill(start, stop, out)
                self._fh.write(np.ascontiguousarray(block, "<f8").reshape(-1).view(np.uint8))
                return block

            yield write


@contextmanager
def _named(name, kind=FrameBiasError):
    """Put ``name`` in front of a ``kind`` of FrameBiasError raised in the block, unless it is None."""
    try:
        yield
    except kind as err:
        if name is None:
            raise
        raise type(err)(f"{name}: {err}") from None


class SimmReader:
    """A SIMM file, open in a seekable binary file object, as a block source
    whose values are read only when they are asked for.

    Opening decodes and checks the header, the file's length and both id
    lists, with the diagnostics ``from_binary`` gives. ``load`` then reads
    every value into a ``SimilarityMatrix``. A block of rows is one read; the
    blocks of ``T`` are cut from groups of file columns (``_column_blocks``),
    so the matrix is never held whole. Errors of those reads put ``name`` in
    front. The reader reads with positional reads; it does not close the file.
    """

    def __init__(self, fh, name=None) -> None:
        size = fh.seek(0, io.SEEK_END)
        fh.seek(0)
        header = fh.read(_HEADER_BYTES)
        if not header or not MAGIC.startswith(header[:4]):  # a file cut inside the magic is truncated
            raise AnnotationParseError("not a SIMM matrix file (bad magic)")
        if len(header) < _HEADER_BYTES:
            raise AnnotationParseError(f"SIMM header truncated: {len(header)} of {_HEADER_BYTES} bytes")
        if header[4] != VERSION:
            raise AnnotationParseError(f"unsupported SIMM version {header[4]}")
        nrows, ncols = struct.unpack_from("<II", header, 5)
        offset = _HEADER_BYTES + 8 * nrows * ncols
        if offset > size:
            raise AnnotationParseError(
                f"SIMM truncated in the {nrows}x{ncols} values: they end at offset {offset}, file has {size} bytes"
            )
        fh.seek(offset)
        rows, end = _read_ids(fh, offset, size, nrows, "row")
        cols, end = _read_ids(fh, end, size, ncols, "column")
        if end != size:
            raise AnnotationParseError(f"SIMM has {size - end} trailing bytes after offset {end}")
        _check_ids(rows, "row")
        _check_ids(cols, "col")
        self.name, self.size, self.shape = name, size, (nrows, ncols)
        self.rows, self.cols = rows, cols
        self._pread = _positional(fh)

    @property
    def T(self) -> _Transposed:
        return _Transposed(self)

    def _read_into(self, offset: int, buf) -> None:
        """Fill the byte buffer ``buf`` from file ``offset`` on."""
        while len(buf):
            got = self._pread(buf, offset)
            if not got:
                raise AnnotationParseError(f"SIMM values ended early: the file shrank below {self.size} bytes while read")
            buf, offset = buf[got:], offset + got

    def _read_rows(self, start: int, out: np.ndarray) -> None:
        """Fill the C-contiguous ``out`` with rows from ``start`` on, in one read."""
        self._read_into(_HEADER_BYTES + 8 * start * self.shape[1], out.reshape(-1).view(np.uint8))

    def _read_columns(self, start: int, out: np.ndarray) -> None:
        """Fill the C-contiguous ``out`` with columns from ``start`` on of
        every row, in one read per row, or in one read where they are every
        column, which lie contiguous in the file."""
        if out.shape[1] == self.shape[1]:
            return self._read_rows(0, out)
        width, step = 8 * out.shape[1], 8 * self.shape[1]
        buf = memoryview(out.reshape(-1).view(np.uint8))
        pread, offset = self._pread, _HEADER_BYTES + 8 * start
        for at in range(0, len(buf), width):
            row = buf[at : at + width]
            if pread(row, offset) != width:
                self._read_into(offset, row)
            offset += step

    @contextmanager
    def blocks(self, rows: int):
        def fill(start, stop, out):
            with _named(self.name):
                self._read_rows(start, out)
                _check_block(out, self.rows[start:stop], self.cols)
            return out

        yield fill

    @contextmanager
    def _column_blocks(self, rows: int):
        """The blocks of ``T``, cut from groups of file columns a multiple of
        ``rows`` wide, within ``_GROUP_BYTES``. A block whose group is not the
        one the group buffer holds reads it there (``_read_columns``); blocks
        are filled in order, so the group before is copied out, and a pass
        may start at any block."""
        nrows, ncols = self.shape
        width = max(1, _GROUP_BYTES // (8 * max(1, nrows * rows))) * rows
        buffer = np.empty(nrows * min(width, ncols), "<f8")
        held = None  # the first column of the group in the buffer

        def fill(start, stop, out):
            nonlocal held
            first = start - start % width
            span = min(width, ncols - first)
            group = buffer[: nrows * span].reshape(nrows, span)
            with _named(self.name):
                if first != held:
                    self._read_columns(first, group)
                    held = first
                _copy_transposed(out, group[:, start - first : stop - first])
                _check_block(out.T, self.rows, self.cols[start:stop])
            return out

        yield fill

    def load(self) -> SimilarityMatrix:
        """Read every value into one array, which the matrix keeps."""
        values = np.empty(self.shape, "<f8")
        self._read_rows(0, values)
        return SimilarityMatrix(rows=self.rows, cols=self.cols, values=values)


def _write_simm(source, fh) -> None:
    """Write a block source to a binary file object as SIMM, in file order."""
    _in_order(SimmWriter(source, fh), lambda start, block: None)


def to_binary(matrix) -> bytes:
    buf = io.BytesIO()
    _write_simm(matrix, buf)
    return buf.getvalue()


def from_binary(buf: bytes) -> SimilarityMatrix:
    """Decode a SIMM file held in memory; any malformed, truncated or padded
    input raises AnnotationParseError naming the place."""
    return SimmReader(io.BytesIO(buf)).load()


def save_matrix(matrix, path) -> None:
    """Write a block source a block of rows at a time: binary when the path
    ends in .simm, text otherwise."""
    if str(path).endswith(".simm"):
        with open_atomic(path, "wb") as fh:
            _write_simm(matrix, fh)
    else:
        with open_atomic(path) as fh:
            _write_text(matrix, fh)


@contextmanager
def open_matrix(path):
    """Open a matrix file for the ``with`` block as a block source: a SIMM
    file as a ``SimmReader`` on the open file, a text matrix loaded whole. The
    SIMM magic is sniffed without a seek, so a text matrix may come from a
    pipe; a SIMM file must be seekable. Errors in opening name the path."""
    with open(path, "rb") as fh:
        with _named(path):
            head = fh.peek(4)[:4]
            # a file of part of the magic alone is a SIMM file cut short, not a text matrix
            if head == MAGIC or head and MAGIC.startswith(head) and fh.seekable():
                if not fh.seekable():
                    raise AnnotationParseError("a SIMM matrix cannot be read from a pipe: its length is needed first")
                matrix = SimmReader(fh, path)
            else:
                try:
                    # newline="\n" splits lines at "\n" alone, as StringIO(text) does
                    with io.TextIOWrapper(fh, encoding="utf-8", newline="\n") as text:
                        matrix = from_text(text)
                except UnicodeDecodeError:
                    at = bad_utf8_byte(path)
                    raise AnnotationParseError(
                        "neither a SIMM file nor UTF-8 text" + ("" if at is None else f" (byte {at})")
                    ) from None
        yield matrix


def load_matrix(path) -> SimilarityMatrix:
    """Read either format whole (see ``open_matrix``)."""
    with open_matrix(path) as matrix, _named(path):
        return matrix.load() if isinstance(matrix, SimmReader) else matrix
