"""``matrices.each_block`` fills and scores a block source's blocks in turn:
in order, into one reused buffer, and no block after one that fails. Each
block writes only its own queries' results and the means are summed afterwards
in query order, so no output may depend on the block size: the invariance
tests score every matrix in one-row blocks, in blocks of a few rows and in one
block.

``DEPTHS`` and ``THRESHOLDS`` are the options the share tests of
``test_eval_processes`` sweep, and ``outcome`` records what ``_scan`` gives
for a call, for the reader tests of ``test_simm_reader``.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from framebias import matrices, metrics
from framebias.errors import DegenerateInputError
from framebias.matrices import RelevancyMatrix, SimilarityMatrix
from framebias.simulate import SimConfig, bias_sweep, synth_dataset, synth_similarity

from test_matrix_memory import traced_peak
from test_rank_kernel import random_eval, tie_heavy

THRESHOLDS = (-1.0, 0.0, 0.5, 1.0)
DEPTHS = (None, 1, 3)
BLOCK_SCORES = (1, 256, metrics._BLOCK_SCORES)  # one row per block, a few rows, every row in one block


def outcome(monkeypatch, fn, *args, **options):
    """``fn``'s result, or its DegenerateInputError message, and the bytes of
    every per-query array ``_scan`` returned for it."""
    arrays = []
    scan = metrics._scan

    def recorded(*scan_args, **scan_options):
        result = scan(*scan_args, **scan_options)
        arrays.extend(array.tobytes() for array in result)
        return result

    with monkeypatch.context() as patch:
        patch.setattr(metrics, "_scan", recorded)
        try:
            return fn(*args, **options), arrays
        except DegenerateInputError as error:
            return str(error), arrays


def assert_same_for_every_block_size(monkeypatch, fn, *args, **options):
    outcomes = []
    for block_scores in BLOCK_SCORES:
        monkeypatch.setattr(metrics, "_BLOCK_SCORES", block_scores)
        outcomes.append(outcome(monkeypatch, fn, *args, **options))
    assert outcomes[0][1], "_scan was not called"
    assert outcomes[1:] == [outcomes[0]] * (len(BLOCK_SCORES) - 1)


@pytest.mark.parametrize("seed", range(4))
def test_report_does_not_depend_on_block_size(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    nq, ng = (int(n) for n in rng.integers(20, 120, size=2))
    sim, dataset = random_eval(rng, nq, ng, int(rng.integers(1, 6)))
    for threshold in THRESHOLDS:
        for depth in DEPTHS:
            assert_same_for_every_block_size(
                monkeypatch, metrics.metrics_report, sim, dataset, threshold=threshold, depth=depth
            )


@pytest.mark.parametrize("seed", range(4))
def test_dense_averages_do_not_depend_on_block_size(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    nq, ng = (int(n) for n in rng.integers(20, 120, size=2))
    rows, cols = tuple(f"q{i}" for i in range(nq)), tuple(f"g{j}" for j in range(ng))
    sim = SimilarityMatrix(rows=rows, cols=cols, values=tie_heavy(rng, (nq, ng)))
    rel = RelevancyMatrix(rows=rows, cols=cols, values=rng.choice([0.0, 0.0, 0.25, 0.5, 1.0], size=(nq, ng)))
    for direction in metrics.DIRECTIONS:
        for threshold in THRESHOLDS:
            assert_same_for_every_block_size(monkeypatch, metrics.map_average, sim, rel, threshold, direction)
        for depth in DEPTHS:
            assert_same_for_every_block_size(monkeypatch, metrics.ndcg_average, sim, rel, direction, depth)


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_sweep_does_not_depend_on_block_size(monkeypatch, noise):
    config = SimConfig(num_classes=12, train_per_class=12, test_per_class=4, class_len_spread=300.0, noise_stddev=noise)
    sweeps = []
    for block_scores in BLOCK_SCORES:  # 48-wide rows: one, five, every row per block
        monkeypatch.setattr(metrics, "_BLOCK_SCORES", block_scores)
        sweeps.append(bias_sweep(config, [0.0, 20.0], range(3), min_class_size=4, topk=5))
    assert sweeps[1:] == [sweeps[0]] * (len(BLOCK_SCORES) - 1)


@pytest.mark.parametrize("block_scores", [1000, metrics._BLOCK_SCORES])
def test_report_with_a_short_last_block_is_that_of_one_row_blocks(monkeypatch, block_scores):
    rng = np.random.default_rng(7)
    sim, dataset = random_eval(rng, 301, 290, 4)  # the last block of each direction is short
    monkeypatch.setattr(metrics, "_BLOCK_SCORES", 1)
    one_row = outcome(monkeypatch, metrics.metrics_report, sim, dataset)
    monkeypatch.setattr(metrics, "_BLOCK_SCORES", block_scores)
    assert outcome(monkeypatch, metrics.metrics_report, sim, dataset) == one_row


class BlockFailure(Exception):
    pass


class Recording:
    """A block source whose ``fill`` records each block it starts, and
    whether another fill was still running then, and raises BlockFailure at
    the block that holds row ``fail_at``."""

    def __init__(self, nrows, fail_at=None):
        self.rows, self.cols, self.shape = tuple(map(str, range(nrows))), ("a", "b"), (nrows, 2)
        self.fail_at, self.started, self.running = fail_at, [], set()

    def blocks(self, rows):
        def fill(start, stop, out):
            self.started.append((start, bool(self.running)))
            self.running.add(start)
            try:
                if self.fail_at is not None and start <= self.fail_at < stop:
                    raise BlockFailure(start)
                out[...] = start
                return out
            finally:
                self.running.discard(start)

        return fill


@pytest.mark.parametrize("rows", [1, 2, 7, 60])  # rows per block; 60 puts every row in one block
@pytest.mark.parametrize("fail_at", [None, 0, 17])
def test_blocks_are_filled_one_at_a_time_in_order(monkeypatch, rows, fail_at):
    monkeypatch.setattr(metrics, "_BLOCK_SCORES", 2 * rows)  # two columns
    source, scored = Recording(60, fail_at), []
    with pytest.raises(BlockFailure) if fail_at is not None else nullcontext():
        matrices.each_block(source, lambda start, stop, scores: scored.append(scores[0, 0]), metrics._BLOCK_SCORES)
    # no fill overlaps another, they come in block order, and none follows a
    # failing one; every block filled before it is scored
    starts = list(range(0, 60, rows))
    filled = starts if fail_at is None else starts[: fail_at // rows + 1]
    assert source.started == [(start, False) for start in filled]
    assert scored == list(map(float, filled if fail_at is None else filled[:-1]))


def test_error_in_a_block_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(metrics, "_BLOCK_SCORES", 40)  # two rows per block
    nq, ng = 40, 20
    values = np.random.default_rng(0).normal(size=(nq, ng))
    values[:, 0] = np.arange(nq)  # a block's first score is its first row's index
    rows, cols = tuple(f"q{i}" for i in range(nq)), tuple(f"g{j}" for j in range(ng))
    sim = SimilarityMatrix(rows=rows, cols=cols, values=values)
    rel = RelevancyMatrix(rows=rows, cols=cols, values=np.eye(nq, ng))
    failures = {start: BlockFailure(start) for start in range(10, nq)}
    positions, scored = metrics.positions, []

    def failing(scores, tracked, out=None):
        scored.append(int(scores[0, 0]))
        if int(scores[0, 0]) in failures:
            raise failures[int(scores[0, 0])]
        return positions(scores, tracked, out)

    expected = metrics.ndcg_average(sim, rel, "t2v")
    monkeypatch.setattr(metrics, "positions", failing)
    with pytest.raises(BlockFailure) as caught:
        metrics.ndcg_average(sim, rel, "t2v")
    # the failing block's own error, and no block scored after it
    assert caught.value is failures[10] and scored == [0, 2, 4, 6, 8, 10]
    monkeypatch.setattr(metrics, "positions", positions)
    assert metrics.ndcg_average(sim, rel, "t2v") == expected


def test_the_v2t_pass_holds_few_blocks_at_once():
    config = SimConfig(num_classes=200, train_per_class=2, test_per_class=10, class_len_spread=600.0, seed=0)
    dataset = synth_dataset(config)
    sim, _ = synth_similarity(dataset, config, dataset)
    assert sim.values.shape == (2000, 2000)
    peak, _ = traced_peak(metrics.metrics_report, sim, dataset)
    # each v2t block is copied out as it is filled: copying every block at
    # once would hold a whole transposed matrix
    assert peak <= 0.5 * sim.values.nbytes


def test_blocks_are_views_or_one_reused_buffer(monkeypatch):
    monkeypatch.setattr(metrics, "_BLOCK_SCORES", 60)  # three 20-wide rows per block
    ids = tuple(f"c{i}" for i in range(20))
    sim = SimilarityMatrix(rows=ids, cols=ids, values=np.random.default_rng(0).normal(size=(20, 20)))
    values = sim.values
    for source, matrix in ((sim, values), (sim.T, values.T)):
        blocks = []

        def score(start, stop, scores):
            assert np.array_equal(scores, matrix[start:stop])
            blocks.append((start, scores.ctypes.data, np.shares_memory(scores, values)))

        matrices.each_block(source, score, metrics._BLOCK_SCORES)
        assert [start for start, _, _ in blocks] == list(range(0, 20, 3))
        if matrix is values:  # t2v rows: views into the matrix
            assert [(address, shared) for _, address, shared in blocks] == [
                (values.ctypes.data + start * values.strides[0], True) for start, _, _ in blocks
            ]
        else:  # v2t rows: copied into the same buffer each time
            assert len({address for _, address, _ in blocks}) == 1
            assert not any(shared for _, _, shared in blocks)
    # ``_scan`` sorts every block into one scratch buffer of its own
    positions, outs = metrics.positions, []

    def recorded(scores, tracked, out=None):
        assert out.shape == scores.shape and not np.shares_memory(out, values)
        outs.append(out.base)
        return positions(scores, tracked, out)

    monkeypatch.setattr(metrics, "positions", recorded)
    metrics.ndcg_average(sim, RelevancyMatrix(rows=ids, cols=ids, values=np.eye(20)))  # a t2v and a v2t scan
    assert len(outs) == 2 * 7
    assert all(base is outs[0] for base in outs[:7]) and all(base is outs[7] for base in outs[7:])
