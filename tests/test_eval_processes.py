"""eval scores each direction's queries in shares, one per forked process:
the report is that of one process, a failure is reported as one process
reports it, and no process outlives the command.

The forked runs go through ``test_sweep_processes.run_sweep``: a fresh
interpreter, as the CLI runs in, in its own session. The in-process tests score
the shares one after another, and read a SIMM file's transpose from inside a
column group, as a share that starts there reads it.
"""

import json
import os

import numpy as np
import pytest

from framebias import matrices, metrics
from framebias.dataset import write_native_csv
from framebias.forking import usable_cpus
from framebias.matrices import load_matrix, open_matrix, save_matrix

from test_block_loop import DEPTHS, THRESHOLDS
from test_rank_kernel import random_eval
from test_sweep_processes import COUNT_FORKS, run_sweep

NROWS, NCOLS = 700, 650  # four blocks of queries in each direction at the default block size

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="eval forks only with os.fork")


def script(cpus=None, group_columns=None, fail_from=None, block_scores=None) -> str:
    """``COUNT_FORKS`` on ``cpus`` usable CPUs: one pins the process to one
    CPU, more stand in for its affinity mask before framebias is imported,
    None leaves both. If given, column groups are ``group_columns`` wide,
    blocks hold ``block_scores`` scores, and a read of the columns from
    ``fail_from`` on raises AnnotationParseError."""
    lines = ["import os"]
    if cpus == 1:
        lines.append("os.sched_setaffinity(0, [min(os.sched_getaffinity(0))])")
    elif cpus is not None:
        lines.append(f"os.sched_getaffinity = lambda pid: set(range({cpus}))")
    if block_scores is not None:
        lines += ["from framebias import metrics", f"metrics._BLOCK_SCORES = {block_scores}"]
    if group_columns is not None:
        lines += ["from framebias import matrices", f"matrices._GROUP_BYTES = 8 * {NROWS} * {group_columns}"]
    if fail_from is not None:
        lines += [
            "from framebias import matrices",
            "from framebias.errors import AnnotationParseError",
            "read = matrices.SimmReader._read_columns",
            "def failing(reader, start, out):",
            f"    if start >= {fail_from}:",
            "        raise AnnotationParseError(f'no columns from {start}')",
            "    return read(reader, start, out)",
            "matrices.SimmReader._read_columns = failing",
        ]
    return "\n".join(lines) + COUNT_FORKS


def write_eval_inputs(work, nrows=NROWS, ncols=NCOLS, damage=()):
    """m.simm, a random matrix over clips of ann.csv (some queries have no
    GT), with the value ``v`` at ``(i, j)`` for each ``(i, j, v)`` of ``damage``."""
    sim, dataset = random_eval(np.random.default_rng(nrows + ncols), nrows, ncols, 6)
    save_matrix(sim, work / "m.simm")
    if damage:
        with open(work / "m.simm", "r+b") as fh:
            for i, j, value in damage:
                fh.seek(13 + 8 * (i * ncols + j))
                fh.write(np.array([value], "<f8").tobytes())
    with open(work / "ann.csv", "w", encoding="utf-8", newline="") as fh:
        write_native_csv(dataset, fh)


def run_eval(work, cpus=None, **options) -> tuple[int, int, str, bytes | None]:
    """The exit code and fork count of ``framebias eval`` on ``work``'s inputs
    in a fresh interpreter (see ``script``), its stderr, and its eval.json
    with the timestamp blanked, if written; no process may be left."""
    out = work / "eval.json"
    argv = ["eval", "--sim", str(work / "m.simm"), "--annotations", str(work / "ann.csv"), "--out", str(out)]
    code, stdout, stderr = run_sweep(script(cpus, **options), argv, work)
    assert code == 0, stderr
    counted = json.loads(stdout)
    report = None
    if out.exists():
        report = json.loads(out.read_text(encoding="utf-8"))
        report["timestamp"] = ""
        report = json.dumps(report).encode()
        out.unlink()
    return counted["code"], counted["forks"], stderr, report


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    work = tmp_path_factory.mktemp("shares")
    write_eval_inputs(work)
    return work


@needs_fork
@pytest.mark.skipif(usable_cpus() < 2, reason="eval forks only with 2+ usable CPUs")
def test_a_multi_block_eval_forks_a_process_per_usable_cpu(work):
    code, forks, stderr, report = run_eval(work)
    assert (code, stderr) == (0, "") and report is not None
    assert forks == min(4, usable_cpus()) - 1


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="the process pins itself with sched_setaffinity")
def test_an_eval_on_one_cpu_forks_nothing(work):
    code, forks, stderr, report = run_eval(work, cpus=1)
    assert (code, forks, stderr) == (0, 0, "") and report is not None


def test_an_eval_of_one_block_forks_nothing(tmp_path):
    write_eval_inputs(tmp_path, 30, 40)
    code, forks, stderr, report = run_eval(tmp_path, cpus=4)
    assert (code, forks, stderr) == (0, 0, "") and report is not None


@needs_fork
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="the process pins itself with sched_setaffinity")
def test_the_report_is_byte_identical_on_one_two_and_three_processes(work):
    # groups of 280 columns: shares cut at 187 and 374 start inside a group
    reports = []
    for cpus in (1, 2, 3):
        code, forks, stderr, report = run_eval(work, cpus, group_columns=280)
        assert (code, forks, stderr) == (0, cpus - 1, "")
        reports.append(report)
    assert reports[0] is not None and reports[1:] == reports[:1] * 2
    code, forks, stderr, report = run_eval(work, 2)  # one group of every column
    assert (code, forks, stderr, report) == (0, 1, "", reports[0])


@needs_fork
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="the process pins itself with sched_setaffinity")
def test_an_eval_forks_at_most_four_processes(work):
    # blocks of 16k scores: 28 in t2v and 29 in v2t, more than the CPUs
    one = run_eval(work, 1, block_scores=1 << 14)
    assert one[:3] == (0, 0, "") and one[3] is not None
    assert run_eval(work, 8, block_scores=1 << 14) == (0, 3, "", one[3])


@needs_fork
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="the process pins itself with sched_setaffinity")
def test_a_value_only_a_later_share_meets_is_reported_as_one_process_reports_it(tmp_path):
    # t2v meets the inf first, in its last share; v2t share 0 meets the nan,
    # which a one-process run never reaches
    write_eval_inputs(tmp_path, damage=[(NROWS - 1, 0, np.nan), (NROWS - 2, NCOLS - 1, np.inf)])
    with pytest.raises(matrices.ShapeMismatchError) as loading:
        load_matrix(tmp_path / "m.simm")
    assert "inf at" in str(loading.value)
    message = f"framebias eval: error: {loading.value}\n"
    for cpus in (1, 2, 3):
        assert run_eval(tmp_path, cpus) == (1, cpus - 1, message, None)


@needs_fork
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="the process pins itself with sched_setaffinity")
def test_a_read_failure_only_a_child_meets_is_reported_as_one_process_reports_it(work):
    # groups of one v2t block: only the last share reads the last block's columns
    rows = metrics._BLOCK_SCORES // NROWS
    last = (NCOLS - 1) // rows * rows
    message = f"framebias eval: error: {work / 'm.simm'}: no columns from {last}\n"
    for cpus in (1, 2, 3):
        assert run_eval(work, cpus, group_columns=rows, fail_from=last) == (1, cpus - 1, message, None)


@pytest.mark.parametrize("processes", [2, 3, 5])
def test_shares_scanned_one_after_another_give_one_scan(tmp_path, monkeypatch, processes):
    monkeypatch.setattr(metrics, "_BLOCK_SCORES", 64)  # t2v blocks of one row, v2t blocks of two file columns
    monkeypatch.setattr(matrices, "_GROUP_BYTES", 8 * 23 * 10)  # in groups of ten columns
    sim, dataset = random_eval(np.random.default_rng(processes), 23, 37, 3)
    save_matrix(sim, tmp_path / "m.simm")
    rows, cols = (metrics._codes([dataset.by_id[i] for i in ids]) for ids in (sim.rows, sim.cols))
    with open_matrix(tmp_path / "m.simm") as reader:
        for source, query, gallery in ((sim, rows, cols), (reader, rows, cols), (sim.T, cols, rows), (reader.T, cols, rows)):
            index = {g: j for j, g in enumerate(source.cols)}
            gt = np.array([index.get(q, -1) for q in source.rows])
            codes = (*query, *gallery)
            shares = metrics._shares(source, processes)
            assert shares[0][0] == 0 and shares[-1][1] == source.shape[0]
            assert all(hi == lo for (_, hi), (lo, _) in zip(shares, shares[1:]))
            if source is reader.T:
                assert any(lo % 10 for lo, _ in shares)  # a share starts inside a column group
            for threshold in THRESHOLDS:
                for depth in DEPTHS:
                    whole = metrics._scan(source, codes, threshold, depth, np.maximum(gt, 0))
                    parts = [metrics._scan(source, codes, threshold, depth, np.maximum(gt, 0), lo, hi) for lo, hi in shares]
                    joined = [np.concatenate(arrays, axis=-1) for arrays in zip(*parts)]
                    assert [array.tobytes() for array in joined] == [array.tobytes() for array in whole]


@pytest.mark.parametrize("start", [3, 9, 15])  # blocks of three columns inside groups of two blocks
def test_a_pass_over_the_transpose_may_start_inside_a_column_group(tmp_path, monkeypatch, start):
    monkeypatch.setattr(matrices, "_GROUP_BYTES", 8 * 11 * 6)  # groups of six columns of 11 rows
    values = np.random.default_rng(start).normal(size=(11, 17))
    ids = tuple(f"c{i}" for i in range(17))
    save_matrix(matrices.SimilarityMatrix(rows=ids[:11], cols=ids, values=values), tmp_path / "m.simm")
    reads = []
    read_columns = matrices.SimmReader._read_columns

    def counted(reader, first, out):
        reads.append((first, out.shape[1]))
        return read_columns(reader, first, out)

    monkeypatch.setattr(matrices.SimmReader, "_read_columns", counted)
    with open_matrix(tmp_path / "m.simm") as reader:
        fill, out = reader.T.blocks(3), np.empty((3, 11))
        for at in range(start, 17, 3):
            block = fill(at, min(at + 3, 17), out[: min(3, 17 - at)])
            assert block.tobytes() == values.T[at : at + 3].tobytes(), at
    # each group that a block lies in is read once, from its first column
    groups = sorted({first for at in range(start, 17) for first in [at - at % 6]})
    assert reads == [(first, min(6, 17 - first)) for first in groups]


def test_a_group_of_every_column_is_one_read(tmp_path):
    values = np.random.default_rng(0).normal(size=(300, 200))
    ids = tuple(f"c{i}" for i in range(300))
    save_matrix(matrices.SimilarityMatrix(rows=ids, cols=ids[:200], values=values), tmp_path / "m.simm")
    blocks = []
    with open_matrix(tmp_path / "m.simm") as reader:
        pread, reads = reader._pread, []
        reader._pread = lambda buf, offset: reads.append(len(buf)) or pread(buf, offset)
        matrices.each_block(reader.T, lambda start, stop, scores: blocks.append(scores.tobytes()), metrics._BLOCK_SCORES)
    assert b"".join(blocks) == values.T.tobytes()
    assert reads == [values.nbytes]  # not one read per file row
