"""Every output goes through one atomic writer: whole file or nothing."""

import os

import numpy as np
import pytest

from framebias import atomic
from framebias.atomic import open_atomic
from framebias.matrices import SimilarityMatrix, save_matrix
from framebias.reports import write_report


def _write(path, text):
    with open_atomic(path) as fh:
        fh.write(text)


def _fail_replace(monkeypatch, seen):
    def replace(src, dst):
        seen.append(src)
        assert os.path.getsize(src) > 0  # the temp file was written in full
        raise OSError("disk full")

    monkeypatch.setattr(atomic.os, "replace", replace)


def test_failed_write_leaves_neither_target_nor_temp(tmp_path, monkeypatch):
    seen = []
    _fail_replace(monkeypatch, seen)
    matrix = SimilarityMatrix(rows=("q",), cols=("g",), values=np.array([[0.5]]))
    writes = [
        lambda: _write(tmp_path / "out.csv", "a,b\n"),
        lambda: write_report(tmp_path / "report.json", {"k": 1}),
        lambda: save_matrix(matrix, tmp_path / "m.simm"),
        lambda: save_matrix(matrix, tmp_path / "m.txt"),
    ]
    for write in writes:
        with pytest.raises(OSError, match="disk full"):
            write()
    assert len(seen) == len(writes)
    assert all(os.path.dirname(p) == str(tmp_path) for p in seen)
    assert list(tmp_path.iterdir()) == []


def test_write_failing_midway_removes_temp(tmp_path):
    with pytest.raises(RuntimeError, match="midway"):
        with open_atomic(tmp_path / "out.csv") as fh:
            fh.write("half a file\n")
            raise RuntimeError("failed midway")
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_old_target(tmp_path, monkeypatch):
    target = tmp_path / "out.csv"
    target.write_bytes(b"old\n")
    _fail_replace(monkeypatch, [])
    with pytest.raises(OSError):
        _write(target, "new\n")
    assert target.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [target]


def test_temp_names_are_unique(tmp_path, monkeypatch):
    seen = []
    real_replace = os.replace
    monkeypatch.setattr(atomic.os, "replace", lambda src, dst: (seen.append(src), real_replace(src, dst)))
    for content in ("1", "2", "3"):
        _write(tmp_path / "out.csv", content)
    assert len(set(seen)) == 3
    assert (tmp_path / "out.csv").read_text() == "3"
    assert list(tmp_path.iterdir()) == [tmp_path / "out.csv"]


def test_output_mode_follows_umask(tmp_path):
    old = os.umask(0o022)
    try:
        _write(tmp_path / "out.csv", "x")
    finally:
        os.umask(old)
    assert (tmp_path / "out.csv").stat().st_mode & 0o777 == 0o644

