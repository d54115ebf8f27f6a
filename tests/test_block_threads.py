"""Scoring blocks of queries on several threads gives the serial results, bit for bit.

``metrics._scan`` hands its blocks to up to ``metrics._WORKERS`` threads. Each
block writes only its own queries' results and the means are summed afterwards
in query order, so no output may depend on the thread count. The invariance
tests make blocks small so that every matrix spans many of them.
"""

import sys
import threading
import time
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from framebias import metrics
from framebias.errors import DegenerateInputError
from framebias.matrices import RelevancyMatrix, SimilarityMatrix
from framebias.simulate import SimConfig, bias_sweep, synth_dataset, synth_similarity

from test_matrix_memory import traced_peak
from test_rank_kernel import random_eval, tie_heavy

WORKERS = (1, 2, 3)
THRESHOLDS = (-1.0, 0.0, 0.5, 1.0)
DEPTHS = (None, 1, 3)


def outcome(monkeypatch, workers, fn, *args, **options):
    """``fn``'s result, or its DegenerateInputError message, on ``workers``
    threads, and the bytes of every per-query array ``_scan`` returned for it."""
    arrays = []
    scan = metrics._scan

    def recorded(*scan_args, **scan_options):
        result = scan(*scan_args, **scan_options)
        arrays.extend(array.tobytes() for array in result)
        return result

    with monkeypatch.context() as patch:
        patch.setattr(metrics, "_WORKERS", workers)
        patch.setattr(metrics, "_scan", recorded)
        try:
            return fn(*args, **options), arrays
        except DegenerateInputError as error:
            return str(error), arrays


def assert_same_for_every_thread_count(monkeypatch, fn, *args, **options):
    serial = outcome(monkeypatch, 1, fn, *args, **options)
    assert serial[1], "_scan was not called"
    for workers in WORKERS[1:]:
        assert outcome(monkeypatch, workers, fn, *args, **options) == serial


@pytest.mark.parametrize("seed", range(4))
def test_report_does_not_depend_on_thread_count(monkeypatch, seed):
    monkeypatch.setattr(metrics, "_BLOCK_SCORES", 256)
    rng = np.random.default_rng(seed)
    nq, ng = (int(n) for n in rng.integers(20, 120, size=2))
    sim, dataset = random_eval(rng, nq, ng, int(rng.integers(1, 6)))
    for threshold in THRESHOLDS:
        for depth in DEPTHS:
            assert_same_for_every_thread_count(
                monkeypatch, metrics.metrics_report, sim, dataset, threshold=threshold, depth=depth
            )


@pytest.mark.parametrize("seed", range(4))
def test_dense_averages_do_not_depend_on_thread_count(monkeypatch, seed):
    monkeypatch.setattr(metrics, "_BLOCK_SCORES", 256)
    rng = np.random.default_rng(seed)
    nq, ng = (int(n) for n in rng.integers(20, 120, size=2))
    rows, cols = tuple(f"q{i}" for i in range(nq)), tuple(f"g{j}" for j in range(ng))
    sim = SimilarityMatrix(rows=rows, cols=cols, values=tie_heavy(rng, (nq, ng)))
    rel = RelevancyMatrix(rows=rows, cols=cols, values=rng.choice([0.0, 0.0, 0.25, 0.5, 1.0], size=(nq, ng)))
    for direction in metrics.DIRECTIONS:
        for threshold in THRESHOLDS:
            assert_same_for_every_thread_count(monkeypatch, metrics.map_average, sim, rel, threshold, direction)
        for depth in DEPTHS:
            assert_same_for_every_thread_count(monkeypatch, metrics.ndcg_average, sim, rel, direction, depth)


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_sweep_does_not_depend_on_thread_count(monkeypatch, noise):
    monkeypatch.setattr(metrics, "_BLOCK_SCORES", 256)  # five 48-wide rows per block
    config = SimConfig(num_classes=12, train_per_class=12, test_per_class=4, class_len_spread=300.0, noise_stddev=noise)
    sweeps = []
    for workers in WORKERS:
        monkeypatch.setattr(metrics, "_WORKERS", workers)
        sweeps.append(bias_sweep(config, [0.0, 20.0], range(3), min_class_size=4, topk=5))
    assert sweeps[1:] == [sweeps[0]] * (len(WORKERS) - 1)


def test_every_block_is_scored_once_under_frequent_switches(monkeypatch):
    monkeypatch.setattr(metrics, "_WORKERS", 8)  # more threads than cores
    monkeypatch.setattr(metrics, "_BLOCK_SCORES", 2)  # one row per block
    values = np.arange(600.0).reshape(300, 2)
    matrix = SimilarityMatrix(rows=tuple(map(str, range(300))), cols=("a", "b"), values=values)
    scored = []

    def score(start, stop, scores, scratch):
        scored.append((start, stop, scores[:, 0].tolist()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=metrics._each_block, args=(matrix, score))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    # a block handed out twice or lost shows here
    assert sorted(scored) == [(i, i + 1, [2.0 * i]) for i in range(300)]


class BlockFailure(Exception):
    pass


class Recording:
    """A block source of one-row blocks whose ``fill`` records each block it
    starts, and whether another fill was still running then; it gives way to
    other threads halfway, and raises BlockFailure at block ``fail_at``."""

    def __init__(self, nrows, fail_at=None):
        self.rows, self.cols, self.shape = tuple(map(str, range(nrows))), ("a", "b"), (nrows, 2)
        self.fail_at, self.started, self.running = fail_at, [], set()

    @contextmanager
    def blocks(self, rows):
        def fill(start, stop, out):
            self.started.append((start, bool(self.running)))
            self.running.add(start)
            try:
                time.sleep(0)
                if start == self.fail_at:
                    raise BlockFailure(start)
                out[...] = start
                return out
            finally:
                self.running.discard(start)

        yield fill


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("fail_at", [None, 0, 17])
def test_blocks_are_filled_one_at_a_time_in_order(monkeypatch, workers, fail_at):
    monkeypatch.setattr(metrics, "_WORKERS", workers)
    monkeypatch.setattr(metrics, "_BLOCK_SCORES", 2)  # one row per block
    source, scored = Recording(60, fail_at), []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.raises(BlockFailure) if fail_at is not None else nullcontext():
            metrics._each_block(source, lambda start, stop, scores, scratch: scored.append(scores[0, 0]))
    finally:
        sys.setswitchinterval(interval)
    # no fill overlaps another, they come in block order, and none follows a
    # failing one; every block filled before it is scored
    filled = 60 if fail_at is None else fail_at + 1
    assert source.started == [(start, False) for start in range(filled)]
    assert sorted(scored) == list(map(float, range(60 if fail_at is None else fail_at)))


@pytest.mark.parametrize("workers", WORKERS)
def test_error_in_a_block_reaches_the_caller(monkeypatch, workers):
    monkeypatch.setattr(metrics, "_WORKERS", workers)
    monkeypatch.setattr(metrics, "_BLOCK_SCORES", 40)  # two rows per block
    nq, ng = 40, 20
    values = np.random.default_rng(0).normal(size=(nq, ng))
    values[:, 0] = np.arange(nq)  # a block's first score is its first row's index
    rows, cols = tuple(f"q{i}" for i in range(nq)), tuple(f"g{j}" for j in range(ng))
    sim = SimilarityMatrix(rows=rows, cols=cols, values=values)
    rel = RelevancyMatrix(rows=rows, cols=cols, values=np.eye(nq, ng))
    failures = {start: BlockFailure(start) for start in range(10, nq)}
    positions = metrics.positions

    def failing(scores, tracked, out=None):
        failure = failures.get(int(scores[0, 0]))
        if failure is failures[10]:
            time.sleep(0.05)  # so that on several threads a later block fails first
        if failure is not None:
            raise failure
        return positions(scores, tracked, out)

    expected, threads = metrics.ndcg_average(sim, rel, "t2v"), threading.active_count()
    monkeypatch.setattr(metrics, "positions", failing)
    with pytest.raises(BlockFailure) as caught:
        metrics.ndcg_average(sim, rel, "t2v")
    # the lowest failing block's error, as a serial loop raises it
    assert caught.value is failures[10]
    assert threading.active_count() == threads
    monkeypatch.setattr(metrics, "positions", positions)
    assert metrics.ndcg_average(sim, rel, "t2v") == expected


def test_threads_hold_few_blocks_at_once(monkeypatch):
    monkeypatch.setattr(metrics, "_WORKERS", 2)
    config = SimConfig(num_classes=200, train_per_class=2, test_per_class=10, class_len_spread=600.0, seed=0)
    dataset = synth_dataset(config)
    sim, _ = synth_similarity(dataset, config, dataset)
    assert sim.values.shape == (2000, 2000)
    peak, _ = traced_peak(metrics.metrics_report, sim, dataset)
    # each thread copies out its own v2t block as it takes it: handing every
    # block to the pool at once would hold a whole transposed matrix
    assert peak <= 0.5 * sim.values.nbytes


@pytest.mark.parametrize("block_scores", [1000, metrics._BLOCK_SCORES])
def test_report_is_bit_identical_on_one_and_two_threads(monkeypatch, block_scores):
    monkeypatch.setattr(metrics, "_BLOCK_SCORES", block_scores)
    rng = np.random.default_rng(7)
    sim, dataset = random_eval(rng, 301, 290, 4)  # the last block of each direction is short
    serial = outcome(monkeypatch, 1, metrics.metrics_report, sim, dataset)
    assert outcome(monkeypatch, 2, metrics.metrics_report, sim, dataset) == serial


def test_blocks_are_views_or_one_reused_buffer_per_thread(monkeypatch):
    monkeypatch.setattr(metrics, "_WORKERS", 1)
    monkeypatch.setattr(metrics, "_BLOCK_SCORES", 60)  # three 20-wide rows per block
    ids = tuple(f"c{i}" for i in range(20))
    sim = SimilarityMatrix(rows=ids, cols=ids, values=np.random.default_rng(0).normal(size=(20, 20)))
    values = sim.values
    for source, matrix in ((sim, values), (sim.T, values.T)):
        blocks = []

        def score(start, stop, scores, scratch):
            assert np.array_equal(scores, matrix[start:stop]) and scratch.shape == scores.shape
            blocks.append((start, scores.ctypes.data, np.shares_memory(scores, values), scratch.ctypes.data))
            scratch[...] = np.nan  # the callback may overwrite its scratch

        metrics._each_block(source, score)
        assert [start for start, _, _, _ in blocks] == list(range(0, 20, 3))
        assert len({scratch for _, _, _, scratch in blocks}) == 1
        if matrix is values:  # t2v rows: views into the matrix
            assert [(address, shared) for _, address, shared, _ in blocks] == [
                (values.ctypes.data + start * values.strides[0], True) for start, _, _, _ in blocks
            ]
        else:  # v2t rows: copied into the same buffer each time
            assert len({address for _, address, _, _ in blocks}) == 1
            assert not any(shared for _, _, shared, _ in blocks)
