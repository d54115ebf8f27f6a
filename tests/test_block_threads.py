"""Scoring blocks of queries on several threads gives the serial results, bit for bit.

``metrics._scan`` hands its blocks to up to ``metrics._WORKERS`` threads. Each
block writes only its own queries' results and the means are summed afterwards
in query order, so no output may depend on the thread count. The invariance
tests make blocks small so that every matrix spans many of them.
"""

import sys
import threading
import time

import numpy as np
import pytest

from framebias import metrics
from framebias.errors import DegenerateInputError
from framebias.matrices import RelevancyMatrix, SimilarityMatrix
from framebias.simulate import SimConfig, synth_dataset, synth_similarity

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


def test_every_block_is_scored_once_under_frequent_switches(monkeypatch):
    monkeypatch.setattr(metrics, "_WORKERS", 8)  # more threads than cores
    monkeypatch.setattr(metrics, "_BLOCK_SCORES", 2)  # one row per block
    values = np.arange(600.0).reshape(300, 2)
    scored = []

    def score(start, stop, scores):
        scored.append((start, stop, scores[:, 0].tolist()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=metrics._each_block, args=(values, score))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    # a block handed out twice or lost shows here
    assert sorted(scored) == [(i, i + 1, [2.0 * i]) for i in range(300)]


class BlockFailure(Exception):
    pass


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

    def failing(scores, tracked):
        failure = failures.get(int(scores[0, 0]))
        if failure is failures[10]:
            time.sleep(0.05)  # so that on several threads a later block fails first
        if failure is not None:
            raise failure
        return positions(scores, tracked)

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
