"""Dense query × gallery matrices with id mappings, plus file formats.

Two interchangeable serializations:

* text: comma-separated, header row of gallery ids (first cell empty),
  one leading query id per data row;
* binary "SIMM": magic ``SIMM``, version byte 1, u32 LE row/col counts,
  row-major f64 LE values, then two length-prefixed UTF-8 id lists
  (rows, then cols; each list is a u32 count followed by u32-length-
  prefixed ids).
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass, field

import numpy as np

from framebias.atomic import open_atomic
from framebias.errors import AnnotationParseError, ShapeMismatchError

MAGIC = b"SIMM"
VERSION = 1
_HEADER_BYTES = 13  # magic, version, u32 rows, u32 cols


def _check_ids(ids: tuple[str, ...], side: str) -> None:
    if len(set(ids)) != len(ids):
        raise ShapeMismatchError(f"duplicate {side} ids")


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Scores for every (query, gallery) pair; values must be finite."""

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    values: np.ndarray
    row_index: dict[str, int] = field(init=False, repr=False)
    col_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (len(self.rows), len(self.cols)):
            raise ShapeMismatchError(
                f"values shape {values.shape} does not match {len(self.rows)}x{len(self.cols)} ids"
            )
        _check_ids(self.rows, "row")
        _check_ids(self.cols, "col")
        self._check_values(values)
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "row_index", {r: i for i, r in enumerate(self.rows)})
        object.__setattr__(self, "col_index", {c: j for j, c in enumerate(self.cols)})

    @staticmethod
    def _check_values(values: np.ndarray) -> None:
        if values.size and not np.all(np.isfinite(values)):
            raise ShapeMismatchError("matrix values must all be finite")

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

    @staticmethod
    def _check_values(values: np.ndarray) -> None:
        SimilarityMatrix._check_values(values)
        if values.size and (values.min() < 0.0 or values.max() > 1.0):
            raise ShapeMismatchError("relevancy values must lie in [0, 1]")


def to_text(matrix: SimilarityMatrix) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + list(matrix.cols))
    for i, row_id in enumerate(matrix.rows):
        writer.writerow([row_id] + [repr(float(v)) for v in matrix.values[i]])
    return buf.getvalue()


def from_text(text: str) -> SimilarityMatrix:
    if not text:
        raise AnnotationParseError("empty matrix file")
    reader = csv.reader(io.StringIO(text))
    rows = []
    data = []
    try:
        cols = tuple(next(reader, [])[1:])
        for rec in reader:
            if not rec:
                continue
            if len(rec) != len(cols) + 1:
                raise AnnotationParseError(f"expected {len(cols) + 1} fields, got {len(rec)}")
            rows.append(rec[0])
            data.append([float(v) for v in rec[1:]])
    except ValueError:
        raise AnnotationParseError(f"matrix line {reader.line_num}: non-numeric value") from None
    except (csv.Error, AnnotationParseError) as err:
        raise AnnotationParseError(f"matrix line {reader.line_num}: {err}") from None
    values = np.array(data, dtype=np.float64).reshape(len(rows), len(cols))
    return SimilarityMatrix(rows=tuple(rows), cols=cols, values=values)


def _pack_ids(ids: tuple[str, ...]) -> bytes:
    parts = [struct.pack("<I", len(ids))]
    for s in ids:
        raw = s.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    return b"".join(parts)


def _unpack_ids(buf: bytes, offset: int, expected: int, side: str) -> tuple[tuple[str, ...], int]:
    size = len(buf)
    if offset + 4 > size:
        raise AnnotationParseError(f"SIMM truncated at the {side} id count (offset {offset} of {size} bytes)")
    (count,) = struct.unpack_from("<I", buf, offset)
    if count != expected:
        raise AnnotationParseError(f"SIMM {side} id count {count} does not match the matrix's {expected} {side}s")
    offset += 4
    ids = []
    for i in range(count):
        if offset + 4 > size:
            raise AnnotationParseError(f"SIMM truncated at {side} id {i} (offset {offset} of {size} bytes)")
        (n,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        if offset + n > size:
            raise AnnotationParseError(
                f"SIMM truncated in {side} id {i}: {n} bytes at offset {offset}, file has {size}"
            )
        try:
            ids.append(buf[offset : offset + n].decode("utf-8"))
        except UnicodeDecodeError:
            raise AnnotationParseError(f"SIMM {side} id {i} at offset {offset} is not UTF-8") from None
        offset += n
    return tuple(ids), offset


def to_binary(matrix: SimilarityMatrix) -> bytes:
    nrows, ncols = matrix.shape
    return b"".join(
        [
            MAGIC,
            bytes([VERSION]),
            struct.pack("<II", nrows, ncols),
            matrix.values.astype("<f8").tobytes(order="C"),
            _pack_ids(matrix.rows),
            _pack_ids(matrix.cols),
        ]
    )


def from_binary(buf: bytes) -> SimilarityMatrix:
    """Decode a SIMM file; any malformed, truncated or padded input raises
    AnnotationParseError naming the place."""
    if buf[:4] != MAGIC:
        raise AnnotationParseError("not a SIMM matrix file (bad magic)")
    if len(buf) < _HEADER_BYTES:
        raise AnnotationParseError(f"SIMM header truncated: {len(buf)} of {_HEADER_BYTES} bytes")
    if buf[4] != VERSION:
        raise AnnotationParseError(f"unsupported SIMM version {buf[4]}")
    nrows, ncols = struct.unpack_from("<II", buf, 5)
    offset = _HEADER_BYTES + 8 * nrows * ncols
    if offset > len(buf):
        raise AnnotationParseError(
            f"SIMM truncated in the {nrows}x{ncols} values: they end at offset {offset}, file has {len(buf)} bytes"
        )
    rows, offset = _unpack_ids(buf, offset, nrows, "row")
    cols, offset = _unpack_ids(buf, offset, ncols, "column")
    if offset != len(buf):
        raise AnnotationParseError(f"SIMM has {len(buf) - offset} trailing bytes after offset {offset}")
    values = np.frombuffer(buf, dtype="<f8", count=nrows * ncols, offset=_HEADER_BYTES)
    return SimilarityMatrix(rows=rows, cols=cols, values=values.reshape(nrows, ncols))


def save_matrix(matrix: SimilarityMatrix, path) -> None:
    """Write binary when the path ends in .simm, text otherwise."""
    if str(path).endswith(".simm"):
        with open_atomic(path, "wb") as fh:
            fh.write(to_binary(matrix))
    else:
        with open_atomic(path) as fh:
            fh.write(to_text(matrix))


def load_matrix(path) -> SimilarityMatrix:
    """Read either format, sniffing the SIMM magic bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        if raw[:4] == MAGIC:
            return from_binary(raw)
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as err:
            raise AnnotationParseError(f"neither a SIMM file nor UTF-8 text (byte {err.start})") from None
        return from_text(text)
    except AnnotationParseError as err:
        raise AnnotationParseError(f"{path}: {err}") from None
