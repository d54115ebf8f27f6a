"""The blocked ranking kernel against stable argsort and per-query oracles.

Scores are drawn tie-heavy (rounded values, signed zeros) because the kernel
places equal scores by index itself: within a run of equal tracked scores,
or by a full stable argsort when a tracked score ties an untracked one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framebias.dataset import ClipRecord, Dataset
from framebias.errors import DegenerateInputError
from framebias.matrices import SimilarityMatrix
from framebias.metrics import _block_bounds, metrics_report, positions, ranking

from oracles import naive_ap, naive_ndcg, naive_ranking


def tie_heavy(rng, shape):
    kind = rng.integers(0, 3)
    if kind == 0:
        return rng.choice([0.0, -0.0, 0.5, -0.5, 1.0], size=shape)
    if kind == 1:
        return rng.normal(size=shape).round(1)
    return rng.normal(size=shape)


def block_order(scores):
    """Each row's order, inverted from the kernel's positions of all its columns."""
    row, col, ranks, _, _ = positions(scores, np.ones(scores.shape, dtype=bool))
    order = np.empty(scores.shape, dtype=np.int64)
    order[row, ranks - 1] = col
    return order


def kernel_orders(queries):
    orders = [block_order(np.ascontiguousarray(queries[start:stop])) for start, stop in _block_bounds(queries)]
    return np.concatenate(orders) if orders else np.empty((0, queries.shape[1]), dtype=np.int64)


@given(
    seed=st.integers(0, 2**32 - 1),
    nq=st.integers(1, 40),
    ng=st.integers(1, 40),
)
@settings(max_examples=200, deadline=None)
def test_order_equals_stable_argsort(seed, nq, ng):
    values = tie_heavy(np.random.default_rng(seed), (nq, ng))
    for queries in (values, values.T):
        expected = np.argsort(-queries, axis=1, kind="stable")
        assert np.array_equal(kernel_orders(queries), expected)


def test_order_across_blocks():
    rng = np.random.default_rng(3)
    values = rng.choice([0.0, -0.0, 0.25, 1.0], size=(300, 260))
    for queries in (values, values.T):
        expected = np.argsort(-queries, axis=1, kind="stable")
        assert np.array_equal(kernel_orders(queries), expected)
    for row in values[:5]:
        assert ranking(row).tolist() == naive_ranking(row.tolist())


def test_ranking_nan_scores_keep_index_order():
    rng = np.random.default_rng(5)
    scores = rng.normal(size=3000).round(1)
    scores[rng.random(3000) < 0.3] = np.nan
    assert np.array_equal(ranking(scores), np.argsort(-scores, kind="stable"))
    assert ranking([]).size == 0


# --- metrics_report against per-query oracles ---------------------------------


def random_eval(rng, nq, ng, classes):
    """A dataset plus a matrix whose rows and columns are overlapping clip subsets."""
    pool = max(nq, ng) + int(rng.integers(0, 4))
    clips = tuple(
        ClipRecord(
            f"c{i:03d}", "v", "test", 0, int(rng.integers(0, 100)), "cap",
            int(rng.integers(0, classes)), int(rng.integers(0, classes)),
        )
        for i in range(pool)
    )
    rows = tuple(f"c{i:03d}" for i in rng.permutation(pool)[:nq])
    cols = tuple(f"c{i:03d}" for i in rng.permutation(pool)[:ng])
    sim = SimilarityMatrix(rows=rows, cols=cols, values=tie_heavy(rng, (nq, ng)))
    return sim, Dataset(clips=clips)


def naive_direction(scores, queries, gallery, by_id, threshold, depth):
    """Per-query seed semantics: nDCG, AP, and the three GT rank variants."""
    ndcgs, aps, ranks, opt, pes = [], [], [], [], []
    for q, row in zip(queries, scores):
        qc = by_id[q]
        rels = [
            0.5 * ((qc.verb_class == by_id[g].verb_class) + (qc.noun_class == by_id[g].noun_class))
            for g in gallery
        ]
        ndcgs.append(naive_ndcg(row, rels, depth))
        aps.append(naive_ap(row, rels, threshold))
        if q in gallery:
            j = gallery.index(q)
            ranks.append(naive_ranking(row).index(j) + 1)
            above = sum(1 for s in row if s > row[j])
            opt.append(above + 1)
            pes.append(above + sum(1 for s in row if s == row[j]))
    return ndcgs, aps, ranks, opt, pes


def check_direction(got, expected, num_queries):
    ndcgs, aps, ranks, opt, pes = expected
    used_ndcg = [v for v in ndcgs if v is not None]
    used_ap = [v for v in aps if v is not None]
    assert got.num_queries == num_queries
    assert got.num_degenerate_ndcg == num_queries - len(used_ndcg)
    assert got.num_degenerate_ap == num_queries - len(used_ap)
    assert got.num_missing_gt == num_queries - len(ranks)
    assert abs(got.ndcg - sum(used_ndcg) / len(used_ndcg)) < 1e-9
    assert abs(got.map - sum(used_ap) / len(used_ap)) < 1e-9
    assert got.gt_ranks == tuple(ranks)
    if ranks:
        assert got.mean_rank == sum(ranks) / len(ranks)
        assert got.median_rank == float(np.median(ranks))
        assert got.mean_rank_optimistic == sum(opt) / len(opt)
        assert got.mean_rank_pessimistic == sum(pes) / len(pes)
        assert got.recall == {k: sum(r <= k for r in ranks) / len(ranks) for k in (1, 5, 10)}
    else:
        assert got.mean_rank is None and got.median_rank is None and got.recall == {}


@given(
    seed=st.integers(0, 2**32 - 1),
    nq=st.integers(1, 24),
    ng=st.integers(1, 24),
    classes=st.integers(1, 5),
    threshold=st.sampled_from([0.5, 1.0]),
    depth=st.sampled_from([None, 1, 2, 5]),
)
@settings(max_examples=120, deadline=None)
def test_report_matches_oracles(seed, nq, ng, classes, threshold, depth):
    sim, dataset = random_eval(np.random.default_rng(seed), nq, ng, classes)
    values = sim.values.tolist()
    columns = sim.values.T.tolist()
    t2v = naive_direction(values, sim.rows, sim.cols, dataset.by_id, threshold, depth)
    v2t = naive_direction(columns, sim.cols, sim.rows, dataset.by_id, threshold, depth)
    if any(all(v is None for v in metric) for metric in (*t2v[:2], *v2t[:2])):
        with pytest.raises(DegenerateInputError):
            metrics_report(sim, dataset, threshold=threshold, depth=depth)
        return
    report = metrics_report(sim, dataset, threshold=threshold, depth=depth)
    check_direction(report.t2v, t2v, nq)
    check_direction(report.v2t, v2t, ng)
    assert report.avg_ndcg == 0.5 * (report.t2v.ndcg + report.v2t.ndcg)
    assert report.avg_map == 0.5 * (report.t2v.map + report.v2t.map)


def test_report_all_degenerate():
    clips = (
        ClipRecord("q0", "v", "test", 0, 9, "cap", 1, 1),
        ClipRecord("q1", "v", "test", 0, 9, "cap", 2, 2),
    )
    sim = SimilarityMatrix(rows=("q0",), cols=("q1",), values=np.array([[0.5]]))
    with pytest.raises(DegenerateInputError):
        metrics_report(sim, Dataset(clips=clips))


def test_report_depth_below_one():
    clip = ClipRecord("q0", "v", "test", 0, 9, "cap", 1, 1)
    sim = SimilarityMatrix(rows=("q0",), cols=("q0",), values=np.array([[0.5]]))
    with pytest.raises(ValueError, match="depth"):
        metrics_report(sim, Dataset(clips=(clip,)), depth=0)
