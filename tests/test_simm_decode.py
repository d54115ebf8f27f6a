"""SIMM decoding under truncation, padding and byte damage, down to the CLI."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framebias.errors import AnnotationParseError, FrameBiasError
from framebias.matrices import SimilarityMatrix, from_binary, to_binary

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"

ids = st.lists(st.text(min_size=0, max_size=4), min_size=0, max_size=4, unique=True)


@st.composite
def simm_files(draw):
    rows = tuple(draw(ids))
    cols = tuple(draw(ids))
    values = np.array(
        draw(st.lists(st.floats(-1e6, 1e6), min_size=len(rows) * len(cols), max_size=len(rows) * len(cols)))
    ).reshape(len(rows), len(cols))
    matrix = SimilarityMatrix(rows=rows, cols=cols, values=values)
    return matrix, to_binary(matrix)


@given(simm_files(), st.data())
@settings(max_examples=150, deadline=None)
def test_truncated_or_padded_never_loads(simm, data):
    matrix, blob = simm
    assert from_binary(blob) == matrix
    cut = data.draw(st.integers(0, len(blob) - 1))
    with pytest.raises(FrameBiasError):
        from_binary(blob[:cut])
    extra = data.draw(st.binary(min_size=1, max_size=9))
    with pytest.raises(FrameBiasError):
        from_binary(blob + extra)


@given(simm_files(), st.data())
@settings(max_examples=150, deadline=None)
def test_damaged_bytes_load_or_raise(simm, data):
    _, blob = simm
    damaged = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 3))):
        damaged[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    try:
        loaded = from_binary(bytes(damaged))
    except FrameBiasError:
        return
    assert to_binary(loaded) == bytes(damaged)


def test_one_byte_cut_rejected():
    matrix = SimilarityMatrix(rows=("x",), cols=("yy",), values=np.array([[0.25]]))
    with pytest.raises(AnnotationParseError, match="column id 0"):
        from_binary(to_binary(matrix)[:-1])


@pytest.mark.parametrize(
    "damage",
    [lambda b: b[:-1], lambda b: b[:8], lambda b: b + b"\0"],
    ids=["one-byte-cut", "header-only", "trailing-byte"],
)
def test_cli_eval_rejects_damaged_simm(tmp_path, damage):
    matrix = SimilarityMatrix(rows=("c01",), cols=("c01",), values=np.array([[1.0]]))
    (tmp_path / "m.simm").write_bytes(damage(to_binary(matrix)))
    shutil.copy(DATA / "tiny.csv", tmp_path / "tiny.csv")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "framebias.cli", "eval", "--sim", "m.simm",
         "--annotations", "tiny.csv", "--out", "eval.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "m.simm" in lines[0] and "SIMM" in lines[0]
    assert not (tmp_path / "eval.json").exists()
