"""The compare/partition kernels ``gt_ranks`` and ``top_k``, and the per-query
helpers built on them, against the naive stable order.

The kernels count or partition without sorting and hand a row with a tie
they cannot order to ``ranking``. The blocks here draw from a few score
levels, ±0.0 included, so most rows carry such ties, next to tie-free rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from framebias.dataset import ClipRecord, Dataset
from framebias.matrices import SimilarityMatrix
from framebias.metrics import gt_rank, gt_ranks, top_k, topk_avg_length

from oracles import naive_ranking

LEVELS = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]


@st.composite
def tie_heavy_blocks(draw, max_rows=8, max_cols=12):
    """A block of rows over a few score levels; a row of distinct scores is
    mixed in now and then."""
    nq, n = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    levels = draw(st.lists(st.sampled_from(LEVELS), min_size=1, max_size=4))
    scores = draw(arrays(np.float64, (nq, n), elements=st.sampled_from(levels)))
    if draw(st.booleans()):
        scores[draw(st.integers(0, nq - 1))] = np.arange(n) * draw(st.sampled_from([1.0, -1.0]))
    return scores


def naive_gt_ranks(scores, gt):
    return [naive_ranking(row).index(g) + 1 for row, g in zip(scores.tolist(), gt)]


@given(scores=tie_heavy_blocks(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_gt_ranks_equal_the_stable_rank(scores, data):
    nq, n = scores.shape
    gt = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=nq, max_size=nq)), dtype=np.int64)
    assert gt_ranks(scores, gt).tolist() == naive_gt_ranks(scores, gt.tolist())


@given(scores=tie_heavy_blocks())
@settings(max_examples=300, deadline=None)
def test_top_k_holds_the_first_k_of_the_stable_order(scores):
    n = scores.shape[1]
    for k in sorted({1, max(1, n // 2), n}):
        top = top_k(scores, k)
        assert top.shape == (scores.shape[0], k)
        for row, cols in zip(scores.tolist(), top.tolist()):
            assert set(cols) == set(naive_ranking(row)[:k])


@pytest.mark.parametrize(
    "row, gt, rank, k, first",
    [
        ([0.5, 0.5, 0.5, 0.1], 2, 3, 2, {0, 1}),  # GT and cut inside one tie
        ([0.1, 0.0, -0.0, 0.9, 0.0], 4, 5, 3, {3, 0, 1}),  # ±0.0 tie each other
        ([0.2, 0.7, 0.2, 0.7, 0.2], 3, 2, 3, {1, 3, 0}),  # a cut tie below a tied top
    ],
)
def test_tied_rows_take_the_stable_order(row, gt, rank, k, first):
    # the tied row shares its block with a tie-free one, which keeps the fast path
    n = len(row)
    scores = np.array([row, np.arange(n)])
    assert gt_ranks(scores, np.array([gt, 0])).tolist() == [rank, n]
    top = top_k(scores, k).tolist()
    assert set(top[0]) == first
    assert set(top[1]) == set(range(n - k, n))


def matrix_case(scores, lengths):
    nq, n = scores.shape
    cols = tuple(f"g{j:02d}" for j in range(n))
    dataset = Dataset(clips=tuple(
        ClipRecord(clip, "v", "test", 0, length - 1, "cap", 0, 0) for clip, length in zip(cols, lengths)
    ))
    return SimilarityMatrix(rows=tuple(f"q{i:02d}" for i in range(nq)), cols=cols, values=scores), dataset


@given(scores=tie_heavy_blocks(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_per_query_helpers_follow_the_stable_order(scores, data):
    nq, n = scores.shape
    lengths = data.draw(st.lists(st.integers(1, 500), min_size=n, max_size=n))
    sim, dataset = matrix_case(scores, lengths)
    for i, row in enumerate(scores.tolist()):
        order = naive_ranking(row)
        g = data.draw(st.integers(0, n - 1))
        assert gt_rank(sim, i, sim.cols[g]) == order.index(g) + 1
        for k in sorted({1, max(1, n // 2), n}):
            assert topk_avg_length(sim, dataset, i, k) == sum(lengths[j] for j in order[:k]) / k
