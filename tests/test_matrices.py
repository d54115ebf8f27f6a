import struct

import numpy as np
import pytest

from framebias.errors import AnnotationParseError, ShapeMismatchError
from framebias.matrices import (
    RelevancyMatrix,
    SimilarityMatrix,
    from_binary,
    from_text,
    load_matrix,
    save_matrix,
    to_binary,
    to_text,
)


def sample_matrix():
    return SimilarityMatrix(
        rows=("query one", "q,2"),
        cols=("g1", "g2", "gß"),
        values=np.array([[0.1, -2.5, 3e-8], [1e9, 0.0, -0.75]]),
    )


def test_duplicate_ids_rejected():
    with pytest.raises(ShapeMismatchError):
        SimilarityMatrix(rows=("a", "a"), cols=("g",), values=np.zeros((2, 1)))


def test_non_finite_rejected():
    with pytest.raises(ShapeMismatchError):
        SimilarityMatrix(rows=("a",), cols=("g",), values=np.array([[np.nan]]))
    with pytest.raises(ShapeMismatchError):
        SimilarityMatrix(rows=("a",), cols=("g",), values=np.array([[np.inf]]))


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeMismatchError):
        SimilarityMatrix(rows=("a",), cols=("g", "h"), values=np.zeros((2, 1)))


def test_relevancy_range_enforced():
    with pytest.raises(ShapeMismatchError):
        RelevancyMatrix(rows=("a",), cols=("g",), values=np.array([[1.5]]))
    RelevancyMatrix(rows=("a",), cols=("g",), values=np.array([[0.5]]))


def test_values_read_only():
    m = sample_matrix()
    with pytest.raises(ValueError):
        m.values[0, 0] = 99.0


def test_transpose():
    m = sample_matrix()
    t = m.transposed()
    assert t.rows == m.cols and t.cols == m.rows
    assert np.array_equal(t.values, m.values.T)


def test_text_round_trip():
    m = sample_matrix()
    assert from_text(to_text(m)) == m


def test_binary_round_trip():
    m = sample_matrix()
    assert from_binary(to_binary(m)) == m


def test_binary_magic_and_version():
    blob = to_binary(sample_matrix())
    assert blob[:4] == b"SIMM"
    assert blob[4] == 1
    with pytest.raises(AnnotationParseError):
        from_binary(b"XXXX" + blob[4:])


def test_text_parse_errors():
    with pytest.raises(AnnotationParseError):
        from_text(",g1,g2\nq1,0.5\n")
    with pytest.raises(AnnotationParseError):
        from_text(",g1\nq1,abc\n")


def test_load_save_sniffing(tmp_path):
    m = sample_matrix()
    text_path = tmp_path / "m.csv"
    bin_path = tmp_path / "m.simm"
    save_matrix(m, text_path)
    save_matrix(m, bin_path)
    assert load_matrix(text_path) == m
    assert load_matrix(bin_path) == m
    assert text_path.read_text().startswith(",g1,g2")
    assert bin_path.read_bytes()[:4] == b"SIMM"


def test_load_as_relevancy(tmp_path):
    rel = RelevancyMatrix(rows=("a",), cols=("g", "h"), values=np.array([[0.0, 1.0]]))
    path = tmp_path / "rel.simm"
    save_matrix(rel, path)
    loaded = load_matrix(path)
    assert RelevancyMatrix(rows=loaded.rows, cols=loaded.cols, values=loaded.values) == rel


def test_duplicate_id_is_named():
    with pytest.raises(ShapeMismatchError, match=r"duplicate col id 'h' at col 2"):
        SimilarityMatrix(rows=("a",), cols=("g", "h", "h", "g"), values=np.zeros((1, 4)))


def test_first_non_finite_cell_is_named():
    values = np.array([[0.5, 1.0], [np.nan, np.inf]])
    with pytest.raises(ShapeMismatchError, match=r"finite: nan at \('b', 'x'\)"):
        SimilarityMatrix(rows=("a", "b"), cols=("x", "y"), values=values)
    with pytest.raises(ShapeMismatchError, match=r"finite: -inf at \('a', 'y'\)"):
        RelevancyMatrix(rows=("a", "b"), cols=("x", "y"), values=np.array([[0.5, -np.inf], [0.0, 1.0]]))


def test_load_errors_name_the_file_and_keep_their_type(tmp_path):
    blob = bytearray(to_binary(sample_matrix()))
    blob[13:21] = struct.pack("<d", float("nan"))
    (tmp_path / "nan.simm").write_bytes(bytes(blob))
    named = r"nan\.simm: matrix values must all be finite: nan at \('query one', 'g1'\)"
    with pytest.raises(ShapeMismatchError, match=named):
        load_matrix(tmp_path / "nan.simm")
    (tmp_path / "dup.csv").write_text(",g,g\nq,0.1,0.2\n")
    with pytest.raises(ShapeMismatchError, match=r"dup\.csv: duplicate col id 'g' at col 1"):
        load_matrix(tmp_path / "dup.csv")
