"""eval ranks a SIMM file block by block as it reads it: the results and the
diagnostics are those of the matrix loaded whole, and the matrix is never
held in memory."""

import io
import json
import os
import re
import sys
import threading
from contextlib import contextmanager, nullcontext, redirect_stderr
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framebias import cli, matrices, metrics
from framebias.dataset import ClipRecord, Dataset, write_native_csv
from framebias.errors import AnnotationParseError, FrameBiasError
from framebias.matrices import SimilarityMatrix, load_matrix, open_matrix, save_matrix, to_binary

from test_block_threads import outcome
from test_matrix_memory import traced_peak
from test_rank_kernel import random_eval
from test_simm_decode import simm_files


@contextmanager
def loaded_whole(path):
    yield load_matrix(path)


def write_annotations(path, ids) -> None:
    """A test clip for each id, of one of six classes, and one more clip."""
    clips = [ClipRecord(id_, "v", "test", 0, 9, "cap", k % 3, k % 2) for k, id_ in enumerate(ids)]
    clips.append(ClipRecord("another clip", "v", "train", 0, 9, "cap", 0, 0))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_native_csv(Dataset(clips=tuple(clips)), fh)


def run_eval(work, whole=False):
    """Exit code, stderr and report (without its timestamp) of ``framebias
    eval`` on ``work``'s m.simm and ann.csv; ``whole`` loads the matrix first."""
    out = work / "eval.json"
    stderr = io.StringIO()
    with redirect_stderr(stderr), mock.patch.object(cli, "open_matrix", loaded_whole) if whole else nullcontext():
        code = cli.main(
            ["eval", "--sim", str(work / "m.simm"), "--annotations", str(work / "ann.csv"), "--out", str(out)]
        )
    report = None
    if out.exists():
        report = json.loads(out.read_text(encoding="utf-8"))
        del report["timestamp"]
        out.unlink()
    return code, stderr.getvalue(), report


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("reader")


@given(simm_files(), st.data())
@settings(max_examples=150, deadline=None)
def test_eval_of_a_damaged_file_matches_loading_it(work, simm, data):
    matrix, blob = simm
    ids = dict.fromkeys(matrix.rows + matrix.cols)
    write_annotations(work / "ann.csv", ids)
    damage = data.draw(st.sampled_from(["cut", "pad", "bytes", "none"]))
    if damage == "cut":
        blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
    elif damage == "pad":
        blob += data.draw(st.binary(min_size=1, max_size=9))
    elif damage == "bytes":
        damaged = bytearray(blob)
        for _ in range(data.draw(st.integers(1, 3))):
            damaged[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
        blob = bytes(damaged)
    path = work / "m.simm"
    path.write_bytes(blob)
    streamed = run_eval(work)
    assert streamed == run_eval(work, whole=True)
    try:
        load_matrix(path)
    except FrameBiasError as error:
        assert str(path) in str(error)
        assert streamed == (1, f"framebias eval: error: {error}\n", None)
    code, stderr, report = streamed
    if code:
        assert code == 1 and report is None and len(stderr.splitlines()) == 1
    else:
        assert report is not None and stderr == ""


def test_non_finite_value_is_named_as_loading_names_it(work):
    values = np.arange(12.0).reshape(3, 4)
    values[2, 1], values[1, 3] = np.inf, np.nan  # the first in row order comes first
    matrix = SimilarityMatrix(rows=("a", "b", "c"), cols=("w", "x", "y", "z"), values=np.zeros((3, 4)))
    blob = bytearray(to_binary(matrix))
    blob[13 : 13 + values.nbytes] = values.astype("<f8").tobytes()
    (work / "m.simm").write_bytes(bytes(blob))
    write_annotations(work / "ann.csv", ("a", "b", "c", "w", "x", "y", "z"))
    message = f"framebias eval: error: {work / 'm.simm'}: matrix values must all be finite: nan at ('b', 'z')\n"
    assert run_eval(work) == run_eval(work, whole=True) == (1, message, None)
    # an id that does not resolve is reported only after the values, as loading first reports them
    write_annotations(work / "ann.csv", ("a", "b", "c", "w", "x", "y"))
    assert run_eval(work) == (1, message, None)


@pytest.mark.parametrize("cut", [1, 2, 3])
def test_a_file_cut_inside_the_magic_is_a_truncated_simm(tmp_path, cut):
    path = tmp_path / "m.simm"
    path.write_bytes(matrices.MAGIC[:cut])  # as text, an empty matrix whose corner cell is the bytes
    with pytest.raises(AnnotationParseError, match=f"^{re.escape(str(path))}: SIMM header truncated: {cut} of 13 bytes$"):
        load_matrix(path)


def test_empty_matrix_gives_the_loaded_message(work):
    matrix = SimilarityMatrix(rows=(), cols=("a", "b"), values=np.zeros((0, 2)))
    (work / "m.simm").write_bytes(to_binary(matrix))
    write_annotations(work / "ann.csv", ("a", "b"))
    message = f"framebias eval: error: {work / 'm.simm'}: the matrix is empty (0 rows, 2 columns)\n"
    assert run_eval(work) == run_eval(work, whole=True) == (1, message, None)


@pytest.mark.parametrize(
    "name, rows, cols", [("m.csv", 0, 0), ("m.csv", 0, 2), ("m.csv", 2, 0), ("m.simm", 0, 2), ("m.simm", 2, 0)]
)
@pytest.mark.parametrize("command", ["eval", "inspect", "sum-sims"])
def test_every_command_refuses_an_empty_matrix_by_its_path(tmp_path, capsys, command, name, rows, cols):
    path = tmp_path / name
    ids = ("a", "b")
    save_matrix(SimilarityMatrix(rows=ids[:rows], cols=ids[:cols], values=np.zeros((rows, cols))), path)
    if (rows, cols) == (0, 0):
        path.write_text("x", encoding="utf-8")  # a text matrix of its corner cell alone
    write_annotations(tmp_path / "ann.csv", ids)
    ann = ["--annotations", str(tmp_path / "ann.csv")]
    argv = {
        "eval": ["eval", "--sim", str(path), *ann, "--out", str(tmp_path / "e.json")],
        "inspect": ["inspect", "--sim", str(path), *ann, "--query", "a"],
        "sum-sims": ["sum-sims", str(path), str(path), "--out", str(tmp_path / "s.csv")],
    }[command]
    assert cli.main(argv) == 1
    message = f"framebias {command}: error: {path}: the matrix is empty ({rows} rows, {cols} columns)\n"
    assert capsys.readouterr() == ("", message)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ann.csv", name]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_file_that_shrinks_after_it_is_opened(tmp_path, monkeypatch, workers):
    monkeypatch.setattr(metrics, "_WORKERS", workers)
    monkeypatch.setattr(metrics, "_BLOCK_SCORES", 30)  # v2t blocks of one file column
    monkeypatch.setattr(matrices, "_GROUP_BYTES", 8 * 30 * 2)  # in ten groups of two
    sim, dataset = random_eval(np.random.default_rng(0), 30, 20, 3)
    path = tmp_path / "m.simm"
    save_matrix(sim, path)
    errors = []

    def report(values):
        try:
            metrics._each_block(values, lambda *block: None)
        except AnnotationParseError as error:
            errors.append(str(error))

    with open_matrix(path) as reader:
        os.truncate(path, 13 + 8 * 20 * 25)  # the last five rows are gone
        with pytest.raises(AnnotationParseError, match=f"^{path}: SIMM values ended early"):
            metrics.metrics_report(reader, dataset)
        # every group read fails: no thread may wait for a group that is never read
        runner = threading.Thread(target=report, args=(reader.T,))
        runner.start()
        runner.join(timeout=60)
    assert not runner.is_alive()
    assert len(errors) == 1 and errors[0].startswith(f"{path}: SIMM values ended early")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_every_transposed_block_is_read_once_under_frequent_switches(tmp_path, monkeypatch, workers):
    monkeypatch.setattr(metrics, "_WORKERS", workers)
    monkeypatch.setattr(metrics, "_BLOCK_SCORES", 40)  # v2t blocks of one file column
    monkeypatch.setattr(matrices, "_GROUP_BYTES", 8 * 40 * 3)  # in groups of three
    nrows, ncols = 40, 90
    values = np.arange(float(nrows * ncols)).reshape(nrows, ncols)
    ids = tuple(f"c{i}" for i in range(max(nrows, ncols)))
    save_matrix(SimilarityMatrix(rows=ids[:nrows], cols=ids[:ncols], values=values), tmp_path / "m.simm")
    scored, reads = [], []
    read_columns = matrices.SimmReader._read_columns

    def counted(reader, start, out):
        reads.append(start)
        return read_columns(reader, start, out)

    monkeypatch.setattr(matrices.SimmReader, "_read_columns", counted)

    def score(start, stop, scores, scratch):
        scored.append((start, stop, scores.tolist()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with open_matrix(tmp_path / "m.simm") as reader:
            runner = threading.Thread(target=metrics._each_block, args=(reader.T, score))
            runner.start()
            runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    # a group buffer reused before all its blocks were copied out shows here
    assert sorted(scored) == [(j, j + 1, [values[:, j].tolist()]) for j in range(ncols)]
    assert sorted(reads) == list(range(0, ncols, 3))  # each group is read once


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_only_the_scoring_threads_run_while_a_file_is_scored(tmp_path, monkeypatch, workers):
    monkeypatch.setattr(metrics, "_WORKERS", workers)
    monkeypatch.setattr(metrics, "_BLOCK_SCORES", 60)  # v2t blocks of two file columns
    monkeypatch.setattr(matrices, "_GROUP_BYTES", 8 * 30 * 4)  # in groups of four columns
    sim, dataset = random_eval(np.random.default_rng(0), 30, 20, 3)
    save_matrix(sim, tmp_path / "m.simm")
    counts = []
    each_block = metrics._each_block

    def counting(source, score, *args):
        def counted(*block):
            counts.append(threading.active_count())
            return score(*block)

        return each_block(source, counted, *args)

    monkeypatch.setattr(metrics, "_each_block", counting)
    baseline = threading.active_count()
    with open_matrix(tmp_path / "m.simm") as reader:
        streamed = metrics.metrics_report(reader, dataset)
    assert streamed == metrics.metrics_report(sim, dataset)
    assert counts and max(counts) <= baseline + workers - 1


@pytest.mark.parametrize("shape", [(1, 37), (37, 1), (23, 37)])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("threshold, depth", [(1.0, None), (0.5, 3)])
def test_report_over_the_reader_is_bit_identical(tmp_path, monkeypatch, shape, workers, threshold, depth):
    monkeypatch.setattr(metrics, "_BLOCK_SCORES", 64)  # v2t blocks of two file columns at 23 rows
    monkeypatch.setattr(matrices, "_GROUP_BYTES", 8 * 23 * 2 * 3)  # and groups of three blocks
    sim, dataset = random_eval(np.random.default_rng(sum(shape)), *shape, 3)
    save_matrix(sim, tmp_path / "m.simm")
    with open_matrix(tmp_path / "m.simm") as reader:
        if shape == (23, 37):  # six groups of six columns and a last one of one
            groups = matrices._ColumnGroups(reader, 2)
            assert groups.width == 6 and groups.left == [3] * 6 + [1]
        in_memory = outcome(monkeypatch, workers, metrics.metrics_report, sim, dataset, threshold=threshold, depth=depth)
        streamed = outcome(monkeypatch, workers, metrics.metrics_report, reader, dataset, threshold=threshold, depth=depth)
    assert streamed == in_memory


def test_report_over_the_reader_holds_little_of_the_matrix(tmp_path):
    n = 3000
    rng = np.random.default_rng(0)
    ids = tuple(f"c{i:05d}" for i in range(n))
    sim = SimilarityMatrix(rows=ids, cols=ids, values=rng.normal(size=(n, n)))
    classes = rng.integers(0, 300, size=(n, 2)).tolist()
    dataset = Dataset(clips=tuple(ClipRecord(i, "v", "test", 0, 9, "cap", v, c) for i, (v, c) in zip(ids, classes)))
    save_matrix(sim, tmp_path / "m.simm")
    del sim

    def report():
        with open_matrix(tmp_path / "m.simm") as reader:
            return metrics.metrics_report(reader, dataset)

    peak, result = traced_peak(report)
    assert result.t2v.num_queries == result.v2t.num_queries == n
    assert peak <= 0.5 * 8 * n * n


def test_padded_file_is_refused_without_reading_the_padding(tmp_path):
    matrix = SimilarityMatrix(rows=("r",), cols=("c",), values=np.array([[0.5]]))
    blob = to_binary(matrix)
    path = tmp_path / "m.simm"
    with open(path, "wb") as fh:
        fh.write(blob)
        fh.truncate(len(blob) + (64 << 20))  # 64 MB of zeros
    with pytest.raises(AnnotationParseError, match=f"SIMM has {64 << 20} trailing bytes after offset {len(blob)}"):
        traced_peak(load_matrix, path)
    peak, _ = traced_peak(lambda: pytest.raises(AnnotationParseError, load_matrix, path))
    assert peak < 1 << 20
