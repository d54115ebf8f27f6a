"""The position kernel and the metrics built on it, against the naive oracles.

The kernel ranks only the tracked columns of a row (nonzero relevance,
relevance at the AP threshold, the GT column). These cases aim at where that
can go wrong: thresholds that make every column a hit or none, negative and
fractional relevance, negative class codes, tracked scores tied with
untracked ones (the full-argsort fallback), one query per class, and the
simulator's sort-free per-condition scoring.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framebias.dataset import ClipRecord, Dataset
from framebias.errors import DegenerateInputError
from framebias.matrices import RelevancyMatrix, SimilarityMatrix
from framebias.metrics import (
    average_precision,
    map_average,
    metrics_report,
    ndcg_average,
    ndcg_query,
    positions,
)
from framebias.simulate import SimConfig, _condition_metrics, synth_dataset, synth_similarity

from oracles import naive_ap, naive_map_average, naive_ndcg, naive_ndcg_average, naive_ranking
from test_rank_kernel import check_direction, naive_direction, random_eval, tie_heavy


def check_report(sim, dataset, threshold, depth):
    """metrics_report equals the per-query oracles, or raises when they are all degenerate."""
    t2v = naive_direction(sim.values.tolist(), sim.rows, sim.cols, dataset.by_id, threshold, depth)
    v2t = naive_direction(sim.values.T.tolist(), sim.cols, sim.rows, dataset.by_id, threshold, depth)
    if any(all(v is None for v in metric) for metric in (*t2v[:2], *v2t[:2])):
        with pytest.raises(DegenerateInputError):
            metrics_report(sim, dataset, threshold=threshold, depth=depth)
        return
    report = metrics_report(sim, dataset, threshold=threshold, depth=depth)
    check_direction(report.t2v, t2v, len(sim.rows))
    check_direction(report.v2t, v2t, len(sim.cols))


def stable_ranks(scores):
    """1-based rank of every column of every row, by stable argsort."""
    ranks = np.empty(scores.shape, dtype=np.int64)
    np.put_along_axis(ranks, np.argsort(-scores, axis=1, kind="stable"), np.arange(1, scores.shape[1] + 1), axis=1)
    return ranks


@given(
    seed=st.integers(0, 2**32 - 1),
    nq=st.integers(1, 30),
    ng=st.integers(1, 30),
    share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
)
@settings(max_examples=200, deadline=None)
def test_positions_of_tracked_columns(seed, nq, ng, share):
    rng = np.random.default_rng(seed)
    scores = tie_heavy(rng, (nq, ng))
    tracked = rng.random((nq, ng)) < share
    row, col, ranks, left, right = positions(scores, tracked)
    expected_rows, expected_cols = np.nonzero(tracked)
    assert sorted(zip(row.tolist(), col.tolist())) == sorted(zip(expected_rows.tolist(), expected_cols.tolist()))
    assert np.array_equal(ranks, stable_ranks(scores)[row, col])
    picked = scores[row, col][:, None]
    assert np.array_equal(left, (scores[row] > picked).sum(axis=1))
    assert np.array_equal(right, (scores[row] >= picked).sum(axis=1))
    # entries come row by row, in rank order
    assert np.all(np.diff(row) >= 0)
    assert np.all(np.diff(ranks)[np.diff(row) == 0] > 0)


def test_positions_fall_back_when_a_tracked_score_ties_an_untracked_one():
    scores = np.array([[0.5, 0.9, 0.5, 0.5, 0.1], [0.3, 0.3, 0.3, 0.3, 0.3], [1.0, -0.0, 0.0, 2.0, 0.0]])
    tracked = np.array([[0, 0, 1, 0, 1], [0, 1, 0, 0, 1], [0, 0, 1, 0, 0]], dtype=bool)
    row, col, ranks, left, right = positions(scores, tracked)
    assert list(zip(row.tolist(), col.tolist(), ranks.tolist())) == [(0, 2, 3), (0, 4, 5), (1, 1, 2), (1, 4, 5), (2, 2, 4)]
    assert left.tolist() == [1, 4, 0, 0, 2]
    assert right.tolist() == [4, 5, 5, 5, 5]


def test_positions_nan_scores_rank_last_in_index_order():
    scores = np.array([[np.nan, 1.0, np.nan, 2.0, np.nan]])
    row, col, ranks, left, right = positions(scores, np.array([[1, 0, 1, 1, 0]], dtype=bool))
    assert col.tolist() == [3, 0, 2] and ranks.tolist() == [1, 3, 4]
    assert left.tolist() == [0, 2, 2] and right.tolist() == [1, 5, 5]


@given(
    seed=st.integers(0, 2**32 - 1),
    nq=st.integers(1, 20),
    ng=st.integers(1, 20),
    classes=st.integers(1, 5),
    threshold=st.sampled_from([-1.0, 0.0, 0.25, 0.75, 1.5]),
    depth=st.sampled_from([None, 1, 2, 5]),
)
@settings(max_examples=150, deadline=None)
def test_report_at_every_threshold(seed, nq, ng, classes, threshold, depth):
    sim, dataset = random_eval(np.random.default_rng(seed), nq, ng, classes)
    if threshold > 1.0:  # class relevance never reaches it: every AP is degenerate
        with pytest.raises(DegenerateInputError):
            metrics_report(sim, dataset, threshold=threshold, depth=depth)
        return
    check_report(sim, dataset, threshold, depth)


@given(
    seed=st.integers(0, 2**32 - 1),
    nq=st.integers(1, 20),
    ng=st.integers(1, 20),
    classes=st.integers(1, 4),
    threshold=st.sampled_from([0.5, 1.0]),
)
@settings(max_examples=100, deadline=None)
def test_report_with_negative_class_codes(seed, nq, ng, classes, threshold):
    rng = np.random.default_rng(seed)
    sim, dataset = random_eval(rng, nq, ng, classes)
    codes = rng.integers(-classes, classes, size=(len(dataset.clips), 2)).tolist()
    clips = tuple(replace(c, verb_class=v, noun_class=n) for c, (v, n) in zip(dataset.clips, codes))
    check_report(sim, Dataset(clips=clips), threshold, None)


@given(
    seed=st.integers(0, 2**32 - 1),
    nq=st.integers(2, 20),
    ng=st.integers(2, 20),
    classes=st.integers(2, 5),
    depth=st.sampled_from([None, 3]),
)
@settings(max_examples=100, deadline=None)
def test_report_when_tracked_scores_tie_untracked_ones(seed, nq, ng, classes, depth):
    rng = np.random.default_rng(seed)
    sim, dataset = random_eval(rng, nq, ng, classes)
    values = rng.choice([0.0, 0.5, 1.0], size=(nq, ng))
    values[0] = 0.5  # every tracked score of query 0 ties every untracked one
    values[:, 0] = 0.5
    check_report(SimilarityMatrix(rows=sim.rows, cols=sim.cols, values=values), dataset, 1.0, depth)


@given(
    seed=st.integers(0, 2**16),
    classes=st.integers(1, 40),
    noise=st.sampled_from([0.0, 0.02]),
    threshold=st.sampled_from([0.5, 1.0]),
)
@settings(max_examples=40, deadline=None)
def test_report_with_one_query_per_class(seed, classes, noise, threshold):
    config = SimConfig(num_classes=classes, train_per_class=3, test_per_class=1, noise_stddev=noise, seed=seed)
    dataset = synth_dataset(config)
    sim, _ = synth_similarity(dataset, config, dataset)
    check_report(sim, dataset, threshold, None)


DENSE_RELEVANCE = [-1.0, -0.5, 0.0, 0.0, 0.25, 0.3, 0.5, 0.7, 1.0]


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    depth=st.sampled_from([None, 1, 3]),
    threshold=st.sampled_from([-1.0, 0.0, 0.3, 1.0]),
)
@settings(max_examples=200, deadline=None)
def test_query_metrics_with_negative_and_fractional_relevance(seed, n, depth, threshold):
    rng = np.random.default_rng(seed)
    scores = tie_heavy(rng, (n,)).tolist()
    rels = rng.choice(DENSE_RELEVANCE, size=n).tolist()
    for got, expected in (  # None: degenerate, e.g. negative gains cancel the ideal DCG
        (lambda: ndcg_query(scores, rels, depth), naive_ndcg(scores, rels, depth)),
        (lambda: average_precision(scores, rels, threshold), naive_ap(scores, rels, threshold)),
    ):
        if expected is None:
            with pytest.raises(DegenerateInputError):
                got()
        else:
            assert abs(got() - expected) < 1e-9


def test_negative_relevance_counts_in_dcg():
    # the ideal ranking puts the -1 last, below the 0
    assert ndcg_query([0.9, 0.5, 0.1], [-1, 1, 0]) == pytest.approx((-1 + 1 / np.log2(3)) / (1 - 1 / 2))
    # at threshold 0 the zero is a hit and the -1 is not
    assert average_precision([0.9, 0.5, 0.1], [-1, 1, 0], threshold=0.0) == pytest.approx((1 / 2 + 2 / 3) / 2)


@pytest.mark.parametrize("scores", [[0.1, 0.5, 0.9], [0.9, 0.5, 0.1]], ids=["dcg-negative", "dcg-zero"])
def test_ideal_dcg_cancelled_by_negative_relevance_is_degenerate(scores):
    # ideal DCG 0.5 / log2(2) - 1 / log2(4) = 0: nDCG is undefined, though one item is relevant
    with pytest.raises(DegenerateInputError, match="ideal DCG is not positive"):
        ndcg_query(scores, [0.5, 0, -1])


@given(
    seed=st.integers(0, 2**32 - 1),
    nq=st.integers(1, 12),
    ng=st.integers(1, 12),
    direction=st.sampled_from(["t2v", "v2t", "avg"]),
    depth=st.sampled_from([None, 2]),
    threshold=st.sampled_from([0.0, 0.3, 0.75]),
)
@settings(max_examples=150, deadline=None)
def test_dense_averages_with_fractional_relevance(seed, nq, ng, direction, depth, threshold):
    rng = np.random.default_rng(seed)
    rows, cols = tuple(f"q{i}" for i in range(nq)), tuple(f"g{j}" for j in range(ng))
    sim = SimilarityMatrix(rows=rows, cols=cols, values=tie_heavy(rng, (nq, ng)))
    rel = RelevancyMatrix(rows=rows, cols=cols, values=rng.choice([0.0, 0.25, 0.3, 0.7, 1.0], size=(nq, ng)))
    for got, expected in (
        (lambda: ndcg_average(sim, rel, direction, depth), naive_ndcg_average(sim.values, rel.values, direction, depth)),
        (lambda: map_average(sim, rel, threshold, direction), naive_map_average(sim.values, rel.values, threshold, direction)),
    ):
        if expected is None:
            with pytest.raises(DegenerateInputError):
                got()
        else:
            assert abs(got() - expected) < 1e-9


def naive_condition(values, lengths, topk, rows):
    """Mean GT rank, recall@10 and mean top-k length from a full stable sort per query."""
    k = min(topk, len(lengths))
    ranks, means = [], []
    for i in rows:
        order = naive_ranking(values[i])
        ranks.append(order.index(i) + 1)
        means.append(sum(lengths[j] for j in order[:k]) / k)
    return sum(ranks) / len(ranks), sum(r <= 10 for r in ranks) / len(ranks), sum(means) / len(means)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    topk=st.integers(1, 45),
    subset=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_condition_metrics_on_tie_heavy_matrices(seed, n, topk, subset):
    rng = np.random.default_rng(seed)
    values = tie_heavy(rng, (n, n))
    ids = tuple(f"c{i:03d}" for i in range(n))
    lengths = rng.integers(1, 200, size=n).tolist()
    dataset = Dataset(clips=tuple(
        ClipRecord(clip, "v", "test", 0, length - 1, "cap", 0, 0) for clip, length in zip(ids, lengths)
    ))
    sim = SimilarityMatrix(rows=ids, cols=ids, values=values)
    rows = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()) if subset else range(n)
    got = _condition_metrics(sim, dataset, topk, rows if subset else None)
    assert got == naive_condition(values.tolist(), lengths, topk, rows)
