"""Every matrix is written, read and scored as a block source: simulate
builds, writes and scores each condition a row block at a time, sum-sims and
inspect read only what they need, and every file the toolkit writes, it reads
back."""

import io
import itertools
import os
import subprocess
import sys
from contextlib import ExitStack, contextmanager, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framebias import cli, matrices, metrics
from framebias.dataset import ClipRecord, Dataset, load_annotations, parse_annotations, to_native_csv, write_native_csv
from framebias.filtering import FilterConfig, SumSource, filter_margin, sum_similarity_matrices
from framebias.matrices import (
    SimilarityMatrix, from_binary, from_text, load_matrix, open_matrix, save_matrix, to_binary, to_text,
)
from framebias.simulate import SimConfig, _TestSide, _synthesis, _Synthesis, synth_dataset, synth_similarity

from test_matrix_memory import traced_peak

SRC = Path(__file__).resolve().parent.parent / "src"

# full Unicode without surrogates, which UTF-8 cannot encode, and without NUL,
# which Python 3.10's csv module refuses; line breaks, quotes, commas and
# characters beyond the BMP are drawn often
text = st.text(
    st.one_of(
        st.sampled_from(["\r", "\n", '"', ",", "\U0001F600", "\U00010348"]),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    ),
    max_size=6,
)


@st.composite
def datasets(draw):
    ids = draw(st.lists(text, min_size=1, max_size=5, unique=True))
    clips = []
    for clip_id in ids:
        start = draw(st.integers(0, 50))
        clips.append(ClipRecord(
            clip_id, draw(text), draw(st.sampled_from(["train", "test"])), start,
            start + draw(st.integers(0, 50)), draw(text), draw(st.integers(-3, 3)), draw(st.integers(0, 3)),
        ))
    return Dataset(clips=tuple(clips))


@st.composite
def similarity_matrices(draw):
    rows = tuple(draw(st.lists(text, max_size=4, unique=True)))
    cols = tuple(draw(st.lists(text, max_size=4, unique=True)))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=len(rows) * len(cols), max_size=len(rows) * len(cols)))
    return SimilarityMatrix(rows=rows, cols=cols, values=np.array(values).reshape(len(rows), len(cols)))


def same_matrix(a, b):
    return a.rows == b.rows and a.cols == b.cols and np.array_equal(a.values.view(np.int64), b.values.view(np.int64))


@given(datasets())
@settings(max_examples=200, deadline=None)
def test_annotation_writer_round_trips(dataset):
    assert parse_annotations(to_native_csv(dataset)) == dataset


def test_annotation_file_with_a_lone_cr_round_trips(tmp_path):
    dataset = Dataset(clips=(ClipRecord("a\rb", "v\r", "train", 0, 9, 'x\ry, "z"', 1, 2),))
    with open(tmp_path / "f.csv", "w", encoding="utf-8") as fh:
        write_native_csv(dataset, fh)
    assert load_annotations(tmp_path / "f.csv") == dataset
    # a file without a lone "\r" keeps its minimal quoting, so the goldens keep their bytes
    plain = Dataset(clips=(ClipRecord("a", "v", "train", 0, 9, "x, y", 1, 2),))
    assert to_native_csv(plain) == 'clip_id,video_id,split,start_frame,stop_frame,caption,verb_class,noun_class\na,v,train,0,9,"x, y",1,2\n'


@given(similarity_matrices())
@settings(max_examples=200, deadline=None)
def test_text_and_simm_matrices_round_trip(matrix):
    assert same_matrix(from_text(to_text(matrix)), matrix)
    assert same_matrix(from_binary(to_binary(matrix)), matrix)


@pytest.mark.parametrize("name", ["m.csv", "m.simm"])
def test_matrix_files_with_a_lone_cr_round_trip(tmp_path, name):
    matrix = SimilarityMatrix(rows=("a\r", "b"), cols=("\rc", "d", "e\r\n"), values=np.arange(6.0).reshape(2, 3))
    save_matrix(matrix, tmp_path / name)
    assert same_matrix(load_matrix(tmp_path / name), matrix)


def synthesis(config, reference=None):
    dataset = synth_dataset(config)
    return _synthesis(_TestSide(dataset, config), dataset if reference is None else reference(dataset))[0], dataset


@pytest.mark.parametrize("noise", [0.0, 0.05])
@pytest.mark.parametrize("filtered", [False, True])
def test_the_generator_is_the_collected_matrix_both_ways(monkeypatch, noise, filtered):
    monkeypatch.setattr(metrics, "_BLOCK_SCORES", 200)  # several blocks
    config = SimConfig(num_classes=9, train_per_class=8, test_per_class=4, class_len_spread=300.0, noise_stddev=noise)
    reference = (lambda d: filter_margin(d, FilterConfig(alpha=10.0, min_class_size=3))[0]) if filtered else None
    source, dataset = synthesis(config, reference)
    sim, _ = synth_similarity(dataset, config, reference(dataset) if filtered else dataset)
    out = np.empty(source.shape)
    matrices.each_block(source, lambda start, stop, scores: np.copyto(out[start:stop], scores), metrics._BLOCK_SCORES)
    assert np.array_equal(out.view(np.int64), sim.values.view(np.int64))
    rows = [3, 0, 17, 35]
    taken = source.taking(rows)
    out = np.empty(taken.shape)
    taken.blocks(4)(0, 4, out)
    assert taken.rows == tuple(sim.rows[i] for i in rows)
    assert np.array_equal(out.view(np.int64), sim.values[rows].view(np.int64))


ROWS = 3  # rows of each block of the row-range tests


def row_range_source(kind, tmp_path, monkeypatch, stack):
    """A block source of one ``kind`` and the matrix it is, collected; an
    open file is closed by ``stack``."""
    rng = np.random.default_rng(0)
    ids = tuple(f"c{i}" for i in range(17))
    a, b = (SimilarityMatrix(rows=ids, cols=ids[:14], values=rng.normal(size=(17, 14))) for _ in range(2))
    if kind == "synthesis":
        config = SimConfig(num_classes=5, train_per_class=4, test_per_class=4, class_len_spread=300.0, noise_stddev=0.05)
        source, dataset = synthesis(config)
        return source, synth_similarity(dataset, config, dataset)[0].values
    if kind == "sum":
        return SumSource([a, b], mean=True), sum_similarity_matrices([a, b], mean=True).values
    if kind in ("matrix", "matrix.T"):
        return (a, a.values) if kind == "matrix" else (a.T, a.values.T)
    # the transpose's groups hold two blocks, so a pass from row ROWS starts inside one
    monkeypatch.setattr(matrices, "_GROUP_BYTES", 8 * 17 * 2 * ROWS)
    save_matrix(a, tmp_path / "a.simm")
    reader = stack.enter_context(open_matrix(tmp_path / "a.simm"))
    return (reader, a.values) if kind == "reader" else (reader.T, a.values.T)


@pytest.mark.parametrize("kind", ["matrix", "matrix.T", "reader", "reader.T", "sum", "synthesis"])
def test_each_block_hands_out_the_rows_of_its_range_in_order(tmp_path, monkeypatch, kind):
    with ExitStack() as stack:
        source, collected = row_range_source(kind, tmp_path, monkeypatch, stack)
        nrows, ncols = source.shape
        scores = (ROWS + 1) * ncols - 1
        assert matrices.block_rows(source, scores) == ROWS
        lo, hi = ROWS, nrows - 1  # from the second block; the last block is short
        assert (hi - lo) % ROWS
        blocks = []
        matrices.each_block(source, lambda start, stop, block: blocks.append((start, stop, block.tobytes())),
                            scores, lo, hi)
    assert [(start, stop) for start, stop, _ in blocks] == [(at, min(at + ROWS, hi)) for at in range(lo, hi, ROWS)]
    assert b"".join(block for *_, block in blocks) == np.ascontiguousarray(collected[lo:hi]).tobytes()


class Filled:
    """A block source of the rows ``source`` fills, which records each block filled."""

    def __init__(self, source):
        self.source, self.rows, self.cols, self.shape, self.filled = source, source.rows, source.cols, source.shape, []

    def blocks(self, rows):
        fill = self.source.blocks(rows)

        def record(start, stop, out):
            self.filled.append((start, stop))
            return fill(start, stop, out)

        return record


@pytest.mark.parametrize("name", ["m.csv", "m.simm"])
def test_a_save_fills_its_file_in_order_in_bounded_blocks(tmp_path, monkeypatch, name):
    ids = tuple(f"c{i}" for i in range(17))
    matrix = SimilarityMatrix(rows=ids, cols=ids[:13], values=np.random.default_rng(1).normal(size=(17, 13)))
    save_matrix(matrix, tmp_path / "whole")  # in one block
    expected = to_binary(matrix) if name.endswith(".simm") else (tmp_path / "whole").read_bytes()
    monkeypatch.setattr(matrices, "_SAVE_VALUES", ROWS * 13 + 12)
    source = Filled(matrix)
    save_matrix(source, tmp_path / name)
    assert source.filled == [(at, min(at + ROWS, 17)) for at in range(0, 17, ROWS)]
    assert all((stop - start) * 13 <= matrices._SAVE_VALUES for start, stop in source.filled)
    assert (tmp_path / name).read_bytes() == expected


SIM_ARGS = ["simulate", "--classes", "6", "--train-per-class", "8", "--test-per-class", "4",
            "--seeds", "0,3", "--alphas", "10,30", "--min-class-size", "3"]


def test_every_simulated_file_is_the_saved_collected_matrix(tmp_path, monkeypatch):
    monkeypatch.setattr(metrics, "_BLOCK_SCORES", 48)  # two rows of the 24-wide matrix per block
    assert cli.main([*SIM_ARGS, "--out-dir", str(tmp_path / "sweep")]) == 0
    config = SimConfig(num_classes=6, train_per_class=8, test_per_class=4, class_len_spread=600.0)
    for seed in (0, 3):
        cfg = replace(config, seed=seed)
        dataset = synth_dataset(cfg)
        for tag, sim_name in ((f"seed{seed}", f"sim_seed{seed}_baseline.simm"),
                              *((f"seed{seed}_alpha{a}", f"sim_seed{seed}_alpha{a}.simm") for a in (10, 30))):
            reference = load_annotations(tmp_path / "sweep" / f"annotations_{tag}.csv")
            sim, _ = synth_similarity(dataset, cfg, reference)
            save_matrix(sim, tmp_path / "expected.simm")
            assert (tmp_path / "sweep" / sim_name).read_bytes() == (tmp_path / "expected.simm").read_bytes()


@pytest.mark.parametrize("where", ["fill", "write"])
def test_a_failed_condition_leaves_no_file(tmp_path, monkeypatch, capsys, where):
    monkeypatch.setattr(metrics, "_BLOCK_SCORES", 48)  # the sweep's blocks: one row of 24
    calls = itertools.count(1)  # fills, or writes, so far
    if where == "fill":
        real = _Synthesis._fill

        def fill(self, start, stop, out):
            if next(calls) == 30:  # of one-row blocks: in the second condition
                raise OSError("fill failed")
            return real(self, start, stop, out)

        monkeypatch.setattr(_Synthesis, "_fill", fill)
    else:
        real = cli.open_atomic

        class Full:
            """A binary output file whose 30th write finds the disk full."""

            def __init__(self, fh):
                self.fh = fh

            def seek(self, *args):
                return self.fh.seek(*args)

            def flush(self):
                return self.fh.flush()

            def write(self, data):
                if next(calls) == 30:  # and the ids and header: in the second condition
                    raise OSError(28, "No space left on device")
                return self.fh.write(data)

        @contextmanager
        def open_atomic(path, mode="w"):
            with real(path, mode) as fh:
                yield Full(fh) if "b" in mode else fh

        monkeypatch.setattr(cli, "open_atomic", open_atomic)
    out = tmp_path / "sweep"
    assert cli.main([*SIM_ARGS, "--out-dir", str(out)]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    # the baseline is whole; the failed condition left neither its matrix, its CSV nor a temp file
    assert sorted(p.name for p in out.iterdir()) == ["annotations_seed0.csv", "sim_seed0_baseline.simm"]
    assert from_binary((out / "sim_seed0_baseline.simm").read_bytes()).shape == (24, 24)


def run_child(argv, cwd):
    """Exit code and peak RSS in bytes of one ``framebias`` CLI child, from
    ``os.wait4`` for that child alone."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    child = subprocess.Popen([sys.executable, "-m", "framebias.cli", *argv], cwd=cwd, env=env,
                             stdout=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(child.pid, 0)
    except BaseException:
        child.kill()
        child.wait()
        raise
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return child.returncode, usage.ru_maxrss * 1024


def test_simulate_holds_no_condition_matrix(tmp_path):
    def peak(classes):
        argv = ["simulate", "--classes", str(classes), "--train-per-class", "30", "--test-per-class", "10",
                "--seeds", "0", "--alphas", "20", "--out-dir", str(tmp_path / str(classes))]
        code, rss = run_child(argv, tmp_path)
        assert code == 0
        return rss

    small, large = peak(20), peak(200)
    assert (tmp_path / "200" / "sim_seed0_baseline.simm").stat().st_size > 8 * 2000 * 2000
    # the 2000 x 2000 conditions (32 MB each) are built, written and scored a block at a time
    assert large - small <= 0.5 * 8 * 2000 * 2000


@pytest.fixture(scope="module")
def square_files(tmp_path_factory):
    n = 1500
    work = tmp_path_factory.mktemp("square")
    ids = tuple(f"c{i:05d}" for i in range(n))
    rng = np.random.default_rng(0)
    for name in ("a", "b"):
        save_matrix(SimilarityMatrix(rows=ids, cols=ids, values=rng.normal(size=(n, n))), work / f"{name}.simm")
    clips = tuple(ClipRecord(i, "v", "test", 0, k % 50, "cap", k % 7, k % 5) for k, i in enumerate(ids))
    with open(work / "ann.csv", "w", encoding="utf-8") as fh:
        write_native_csv(Dataset(clips=clips), fh)
    return work, n


def test_sum_sims_reads_a_block_of_every_input_at_a_time(square_files):
    work, n = square_files
    argv = ["sum-sims", str(work / "a.simm"), str(work / "b.simm"), "--mean", "--out", str(work / "sum.simm")]
    peak, code = traced_peak(cli.main, argv)
    assert code == 0
    assert peak <= 0.1 * 8 * n * n
    expected = sum_similarity_matrices([load_matrix(work / "a.simm"), load_matrix(work / "b.simm")], mean=True)
    assert (work / "sum.simm").read_bytes() == to_binary(expected)


def test_sum_source_names_a_bad_value_and_writes_nothing(tmp_path):
    good = SimilarityMatrix(rows=("a", "b"), cols=("x",), values=np.array([[1.0], [2.0]]))
    save_matrix(good, tmp_path / "good.simm")
    blob = bytearray(to_binary(good))
    blob[13 + 8 : 13 + 16] = np.array([np.inf]).tobytes()
    (tmp_path / "bad.simm").write_bytes(bytes(blob))
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "stderr", err)
        assert cli.main(["sum-sims", str(tmp_path / "good.simm"), str(tmp_path / "bad.simm"),
                         "--out", str(tmp_path / "sum.simm")]) == 1
    assert err.getvalue() == (
        f"framebias sum-sims: error: {tmp_path / 'bad.simm'}: matrix values must all be finite: inf at ('b', 'x')\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.simm", "good.simm"]
    with pytest.raises(ValueError, match="at least one"):
        SumSource([])


class Noting:
    """A block source whose ``fill`` gives each row its index and notes the buffer it was handed."""

    def __init__(self, nrows) -> None:
        self.rows = self.cols = tuple(map(str, range(nrows)))
        self.shape, self.buffers = (nrows, nrows), []

    def blocks(self, rows):
        def fill(start, stop, out):
            self.buffers.append(out.ctypes.data)
            out[...] = np.arange(start, stop)[:, None]
            return out

        return fill


def test_a_sum_fills_its_other_inputs_into_one_buffer_per_pass():
    first, second, third = Noting(5), Noting(5), Noting(5)
    rows = []
    matrices.each_block(SumSource([first, second, third]), lambda start, stop, block: rows.extend(block[:, 0]), 10)
    assert rows == [3 * i for i in range(5)]  # in blocks of 2, 2 and 1 rows
    assert len(second.buffers) == 3 and set(second.buffers) == set(third.buffers) == {second.buffers[0]}
    assert first.buffers[0] != second.buffers[0]


def test_inspect_reads_only_the_query_row(square_files, tmp_path):
    work, n = square_files
    argv = ["inspect", "--sim", str(work / "a.simm"), "--annotations", str(work / "ann.csv"),
            "--query", "c00777", "--topk", "5"]

    def inspect():
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(argv) == 0
        return out.getvalue()

    peak, printed = traced_peak(inspect)
    assert peak <= 0.05 * 8 * n * n
    save_matrix(load_matrix(work / "a.simm"), tmp_path / "a.csv")
    argv[2] = str(tmp_path / "a.csv")
    assert inspect() == printed  # as of the same matrix in text
    # a non-finite value in another row is never read; in the query's row it is named
    matrix = SimilarityMatrix(rows=("a", "b"), cols=("a", "b"), values=np.array([[1.0, 2.0], [3.0, 4.0]]))
    blob = bytearray(to_binary(matrix))
    blob[13 + 16 : 13 + 24] = np.array([np.nan]).tobytes()
    (tmp_path / "m.simm").write_bytes(bytes(blob))
    clips = (ClipRecord("a", "v", "test", 0, 9, "cap", 1, 1), ClipRecord("b", "v", "test", 0, 4, "cap", 1, 2))
    with open(tmp_path / "m.csv", "w", encoding="utf-8") as fh:
        write_native_csv(Dataset(clips=clips), fh)
    argv = ["inspect", "--sim", str(tmp_path / "m.simm"), "--annotations", str(tmp_path / "m.csv"), "--query"]
    assert cli.main([*argv, "a"]) == 0
    assert cli.main([*argv, "b"]) == 1


def test_a_failed_block_stops_the_column_reader(tmp_path, monkeypatch):
    monkeypatch.setattr(metrics, "_BLOCK_SCORES", 30)  # v2t blocks of one file column
    monkeypatch.setattr(matrices, "_GROUP_BYTES", 8 * 30 * 2)  # in groups of two
    ids = tuple(f"c{i}" for i in range(30))
    save_matrix(SimilarityMatrix(rows=ids, cols=ids, values=np.ones((30, 30))), tmp_path / "m.simm")
    reads = []
    read_columns = matrices.SimmReader._read_columns
    monkeypatch.setattr(matrices.SimmReader, "_read_columns", lambda *args: reads.append(args[1]) or read_columns(*args))

    def score(start, stop, scores):
        if start == 7:
            raise ValueError("block 7")

    with open_matrix(tmp_path / "m.simm") as reader, pytest.raises(ValueError, match="^block 7$"):
        matrices.each_block(reader.T, score, metrics._BLOCK_SCORES)
    assert reads == [0, 2, 4, 6]  # no group is read past the failed block's
