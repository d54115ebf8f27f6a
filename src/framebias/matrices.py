"""Dense query × gallery matrices with id mappings, plus file formats.

Two interchangeable serializations:

* text: comma-separated, header row of gallery ids (first cell empty),
  one leading query id per data row;
* binary "SIMM": magic ``SIMM``, version byte 1, u32 LE row/col counts,
  row-major f64 LE values, then two length-prefixed UTF-8 id lists
  (rows, then cols; each list is a u32 count followed by u32-length-
  prefixed ids).

A text matrix is read row by row, from a pipe too, into an array that grows
as rows arrive. A SIMM file is decoded from a seekable binary file object:
the header first, then the values read straight into the array the matrix
keeps, then the id lists. It is written the same way, streaming the values
buffer. A matrix keeps the array it is handed when that array is float64,
C-contiguous and owns its data, and marks it read-only; any other input (a
view, another dtype, a list) is copied.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass, field

from framebias._numpy import np
from framebias.atomic import open_atomic
from framebias.dataset import _lines, bad_utf8_byte
from framebias.errors import AnnotationParseError, FrameBiasError, ShapeMismatchError

MAGIC = b"SIMM"
VERSION = 1
_HEADER_BYTES = 13  # magic, version, u32 rows, u32 cols


def _check_ids(ids: tuple[str, ...], side: str) -> None:
    if len(set(ids)) != len(ids):
        first = {}  # id -> index of its first occurrence
        i = next(i for i, id_ in enumerate(ids) if first.setdefault(id_, i) != i)
        raise ShapeMismatchError(f"duplicate {side} id {ids[i]!r} at {side} {i}")


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Scores for every (query, gallery) pair; values must be finite.

    ``values`` is taken over, not copied, when it is a float64, C-contiguous
    array that owns its data: the matrix then marks it read-only, so the
    caller can no longer write to it. Views and other inputs are copied.
    """

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    values: np.ndarray
    row_index: dict[str, int] = field(init=False, repr=False)
    col_index: dict[str, int] = field(init=False, repr=False)

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
        object.__setattr__(self, "row_index", {r: i for i, r in enumerate(self.rows)})
        object.__setattr__(self, "col_index", {c: j for j, c in enumerate(self.cols)})

    def _check_range(self, values: np.ndarray, lo, hi) -> None:
        """Check the values from their minimum and maximum (NaN propagates); only a failure looks at cells."""
        if not (np.isfinite(lo) and np.isfinite(hi)):
            i, j = np.argwhere(~np.isfinite(values))[0]
            cell = f"{values[i, j]} at ({self.rows[i]!r}, {self.cols[j]!r})"
            raise ShapeMismatchError(f"matrix values must all be finite: {cell}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

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


def to_text(matrix: SimilarityMatrix) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + list(matrix.cols))
    for i, row_id in enumerate(matrix.rows):
        writer.writerow([row_id] + [repr(float(v)) for v in matrix.values[i]])
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


def _unpack_ids(buf: bytes, base: int, offset: int, expected: int, side: str) -> tuple[tuple[str, ...], int]:
    """Decode one id list at file ``offset``; ``buf`` holds the file from byte ``base`` on."""
    size = base + len(buf)
    if offset + 4 > size:
        raise AnnotationParseError(f"SIMM truncated at the {side} id count (offset {offset} of {size} bytes)")
    (count,) = struct.unpack_from("<I", buf, offset - base)
    if count != expected:
        raise AnnotationParseError(f"SIMM {side} id count {count} does not match the matrix's {expected} {side}s")
    offset += 4
    ids = []
    for i in range(count):
        if offset + 4 > size:
            raise AnnotationParseError(f"SIMM truncated at {side} id {i} (offset {offset} of {size} bytes)")
        (n,) = struct.unpack_from("<I", buf, offset - base)
        offset += 4
        if offset + n > size:
            raise AnnotationParseError(
                f"SIMM truncated in {side} id {i}: {n} bytes at offset {offset}, file has {size}"
            )
        try:
            ids.append(buf[offset - base : offset - base + n].decode("utf-8"))
        except UnicodeDecodeError:
            raise AnnotationParseError(f"SIMM {side} id {i} at offset {offset} is not UTF-8") from None
        offset += n
    return tuple(ids), offset


def _write_simm(matrix: SimilarityMatrix, fh) -> None:
    """Stream a matrix to a binary file object: header, values buffer, ids."""
    nrows, ncols = matrix.shape
    fh.write(MAGIC + bytes([VERSION]) + struct.pack("<II", nrows, ncols))
    fh.write(np.ascontiguousarray(matrix.values, dtype="<f8"))
    fh.write(_pack_ids(matrix.rows))
    fh.write(_pack_ids(matrix.cols))


def _read_simm(fh) -> SimilarityMatrix:
    """Decode a SIMM file from a seekable binary file object.

    The values are read into the array the matrix keeps, once the file's
    length (from a seek to its end) is known to hold them; any malformed,
    truncated or padded input raises AnnotationParseError naming the place.
    """
    size = fh.seek(0, io.SEEK_END)
    fh.seek(0)
    header = fh.read(_HEADER_BYTES)
    if header[:4] != MAGIC:
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
    values = np.empty((nrows, ncols), dtype="<f8")
    if fh.readinto(values) != values.nbytes:
        raise AnnotationParseError(f"SIMM values ended early: the file shrank below {size} bytes while read")
    ids = fh.read()
    size = offset + len(ids)
    rows, end = _unpack_ids(ids, offset, offset, nrows, "row")
    cols, end = _unpack_ids(ids, offset, end, ncols, "column")
    if end != size:
        raise AnnotationParseError(f"SIMM has {size - end} trailing bytes after offset {end}")
    return SimilarityMatrix(rows=rows, cols=cols, values=values)


def to_binary(matrix: SimilarityMatrix) -> bytes:
    buf = io.BytesIO()
    _write_simm(matrix, buf)
    return buf.getvalue()


def from_binary(buf: bytes) -> SimilarityMatrix:
    """Decode a SIMM file held in memory; any malformed, truncated or padded
    input raises AnnotationParseError naming the place."""
    return _read_simm(io.BytesIO(buf))


def save_matrix(matrix: SimilarityMatrix, path) -> None:
    """Write binary when the path ends in .simm, text otherwise."""
    if str(path).endswith(".simm"):
        with open_atomic(path, "wb") as fh:
            _write_simm(matrix, fh)
    else:
        with open_atomic(path) as fh:
            fh.write(to_text(matrix))


def load_matrix(path) -> SimilarityMatrix:
    """Read either format, sniffing the SIMM magic bytes without a seek, so a
    text matrix may come from a pipe; a SIMM file must be seekable."""
    try:
        with open(path, "rb") as fh:
            if fh.peek(4)[:4] == MAGIC:
                if not fh.seekable():
                    raise AnnotationParseError("a SIMM matrix cannot be read from a pipe: its length is needed first")
                return _read_simm(fh)
            try:
                # newline="\n" splits lines at "\n" alone, as StringIO(text) does
                with io.TextIOWrapper(fh, encoding="utf-8", newline="\n") as text:
                    return from_text(text)
            except UnicodeDecodeError:
                at = bad_utf8_byte(path)
                raise AnnotationParseError(
                    "neither a SIMM file nor UTF-8 text" + ("" if at is None else f" (byte {at})")
                ) from None
    except FrameBiasError as err:
        raise type(err)(f"{path}: {err}") from None
