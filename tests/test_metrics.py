import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framebias.dataset import ActionClass, ClipRecord, Dataset
from framebias.errors import DegenerateInputError, NotFoundError, ShapeMismatchError
from framebias.matrices import RelevancyMatrix, SimilarityMatrix
from framebias.metrics import (
    average_precision,
    build_relevancy,
    gt_rank,
    inspect_query,
    map_average,
    metrics_report,
    ndcg_average,
    ndcg_query,
    recall_at_k,
    topk_avg_length,
)

from oracles import naive_ap, naive_map_average, naive_ndcg, naive_ndcg_average


def make_sim(values, rows=None, cols=None):
    values = np.asarray(values, dtype=float)
    rows = rows or tuple(f"q{i}" for i in range(values.shape[0]))
    cols = cols or tuple(f"g{j}" for j in range(values.shape[1]))
    return SimilarityMatrix(rows=tuple(rows), cols=tuple(cols), values=values)


def make_rel(values, rows=None, cols=None):
    values = np.asarray(values, dtype=float)
    rows = rows or tuple(f"q{i}" for i in range(values.shape[0]))
    cols = cols or tuple(f"g{j}" for j in range(values.shape[1]))
    return RelevancyMatrix(rows=tuple(rows), cols=tuple(cols), values=values)


def random_pair(rng, max_side=16):
    nq = int(rng.integers(1, max_side))
    ng = int(rng.integers(2, max_side))
    sim = make_sim(rng.normal(size=(nq, ng)))
    rel = make_rel(rng.choice([0.0, 0.5, 1.0], size=(nq, ng)))
    return sim, rel


class TestBuildRelevancy:
    def test_values(self):
        rel = build_relevancy(
            [ActionClass(1, 2), ActionClass(1, 3)],
            [ActionClass(1, 2), ActionClass(1, 9), ActionClass(5, 6)],
        )
        assert np.array_equal(rel.values, [[1.0, 0.5, 0.0], [0.5, 0.5, 0.0]])

    def test_structure_property(self):
        rng = np.random.default_rng(21)
        classes = [ActionClass(int(rng.integers(0, 3)), int(rng.integers(0, 3))) for _ in range(20)]
        rel = build_relevancy(classes, classes)
        assert set(np.unique(rel.values)) <= {0.0, 0.5, 1.0}
        for i, a in enumerate(classes):
            for j, b in enumerate(classes):
                assert (rel.values[i, j] == 1.0) == (a == b)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_relevancy([], [ActionClass(1, 1)])

    def test_custom_ids(self):
        rel = build_relevancy([ActionClass(1, 1)], [ActionClass(1, 1)], ["a"], ["b"])
        assert rel.rows == ("a",) and rel.cols == ("b",)


class TestGtRank:
    def test_unique_max(self):
        sim = make_sim([[0.1, 0.9, 0.3]])
        assert gt_rank(sim, 0, "g1") == 1

    def test_tie_broken_by_index(self):
        sim = make_sim([[0.9, 0.9, 0.1]])
        assert gt_rank(sim, 0, "g1") == 2
        assert gt_rank(sim, 0, "g0") == 1

    def test_unknown_id(self):
        sim = make_sim([[0.5]])
        with pytest.raises(NotFoundError):
            gt_rank(sim, 0, "nope")

    def test_worst_rank(self):
        sim = make_sim([[0.9, 0.5, 0.1]])
        assert gt_rank(sim, 0, "g2") == 3


class TestRecall:
    def test_all_first(self):
        assert recall_at_k([1, 1, 1], 1) == 1.0

    def test_fraction(self):
        assert recall_at_k([1, 7, 12], 10) == pytest.approx(2 / 3)

    def test_k_at_least_gallery(self):
        assert recall_at_k([3, 2, 5], 5) == 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            recall_at_k([1], 0)
        with pytest.raises(ValueError):
            recall_at_k([], 5)


# non-finite rows, the error names the row and the first non-finite position
NON_FINITE_ROWS = [
    ([0.1, 0.2, 0.3], [np.nan, 1.0, 0.0], r"relevance row .*: nan at position 0"),
    ([0.1, 0.2, 0.3], [0.0, 1.0, np.inf], r"relevance row .*: inf at position 2"),
    ([0.1, np.nan, 0.3], [np.nan, 1.0, 0.0], r"scores row .*: nan at position 1"),
    ([0.1, -np.inf, np.inf], [1.0, 1.0, 0.0], r"scores row .*: -inf at position 1"),
]


class TestNdcgQuery:
    def test_ideal_ordering(self):
        assert ndcg_query([0.9, 0.5, 0.1], [1.0, 0.5, 0.0]) == 1.0

    def test_three_item_case(self):
        # ranked relevance [0, 1, 0.5]
        value = ndcg_query([0.9, 0.5, 0.1], [0.0, 1.0, 0.5])
        assert value == pytest.approx(0.66968, abs=1e-5)
        assert value == pytest.approx(naive_ndcg([0.9, 0.5, 0.1], [0.0, 1.0, 0.5]), abs=1e-12)

    def test_single_item(self):
        assert ndcg_query([3.0], [0.5]) == 1.0

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            ndcg_query([0.9, 0.5], [0.0, 0.0])

    def test_depth(self):
        scores = [0.9, 0.5, 0.1, 0.05]
        rels = [0.0, 1.0, 0.5, 1.0]
        assert ndcg_query(scores, rels, depth=2) == pytest.approx(
            naive_ndcg(scores, rels, depth=2), abs=1e-12
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ndcg_query([0.9], [1.0, 0.5])

    @pytest.mark.parametrize("scores, rels, message", NON_FINITE_ROWS)
    def test_non_finite(self, scores, rels, message):
        with pytest.raises(ShapeMismatchError, match=message):
            ndcg_query(scores, rels)


class TestAveragePrecision:
    def test_all_relevant(self):
        assert average_precision([0.9, 0.5, 0.1], [1.0, 1.0, 1.0]) == 1.0

    def test_binary_101(self):
        # ranked binary relevance [1, 0, 1]
        value = average_precision([0.9, 0.5, 0.1], [1.0, 0.0, 1.0])
        assert value == pytest.approx(0.833333, abs=1e-6)

    def test_perfect_prefix(self):
        assert average_precision([0.9, 0.8, 0.1, 0.05], [1.0, 1.0, 0.0, 0.0]) == 1.0

    def test_threshold(self):
        value = average_precision([0.9, 0.5, 0.1], [0.5, 0.0, 1.0], threshold=0.5)
        assert value == pytest.approx(naive_ap([0.9, 0.5, 0.1], [0.5, 0.0, 1.0], 0.5), abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            average_precision([0.9, 0.5], [0.5, 0.0], threshold=1.0)

    @pytest.mark.parametrize("scores, rels, message", NON_FINITE_ROWS)
    def test_non_finite(self, scores, rels, message):
        with pytest.raises(ShapeMismatchError, match=message):
            average_precision(scores, rels)


class TestAggregates:
    def test_identity_case(self):
        rel_values = np.eye(4)
        sim = make_sim(rel_values)
        rel = make_rel(rel_values)
        for direction in ("t2v", "v2t", "avg"):
            assert ndcg_average(sim, rel, direction) == 1.0
            assert map_average(sim, rel, direction=direction) == 1.0

    def test_matches_oracle_5x7(self):
        rng = np.random.default_rng(42)
        sim = make_sim(rng.normal(size=(5, 7)))
        rel = make_rel(rng.choice([0.0, 0.5, 1.0], size=(5, 7)))
        for direction in ("t2v", "v2t", "avg"):
            assert ndcg_average(sim, rel, direction) == pytest.approx(
                naive_ndcg_average(sim.values, rel.values, direction), abs=1e-12
            )

    def test_map_matches_oracle_6x6(self):
        rng = np.random.default_rng(43)
        sim = make_sim(rng.normal(size=(6, 6)))
        rel = make_rel(rng.choice([0.0, 0.5, 1.0], size=(6, 6)))
        for direction in ("t2v", "v2t", "avg"):
            assert map_average(sim, rel, direction=direction) == pytest.approx(
                naive_map_average(sim.values, rel.values, 1.0, direction), abs=1e-12
            )

    def test_degenerate_queries_excluded(self):
        sim = make_sim([[0.9, 0.1], [0.2, 0.8]])
        rel = make_rel([[0.0, 0.0], [1.0, 0.0]])
        # first query has no relevance at all and must not poison the mean
        assert ndcg_average(sim, rel, "t2v") == pytest.approx(
            naive_ndcg_average(sim.values, rel.values, "t2v"), abs=1e-12
        )

    def test_all_degenerate(self):
        sim = make_sim([[0.9, 0.1]])
        rel = make_rel([[0.0, 0.0]])
        with pytest.raises(DegenerateInputError):
            ndcg_average(sim, rel, "t2v")

    def test_misaligned_ids(self):
        sim = make_sim([[1.0]])
        rel = make_rel([[1.0]], rows=("other",))
        with pytest.raises(ShapeMismatchError):
            ndcg_average(sim, rel)

    def test_tie_heavy_case_matches_oracle(self):
        rng = np.random.default_rng(44)
        sim = make_sim(rng.choice([0.0, 0.25, 0.5], size=(8, 9)))
        rel = make_rel(rng.choice([0.0, 0.5, 1.0], size=(8, 9)))
        assert ndcg_average(sim, rel, "avg") == pytest.approx(
            naive_ndcg_average(sim.values, rel.values, "avg"), abs=1e-12
        )
        assert map_average(sim, rel, direction="avg") == pytest.approx(
            naive_map_average(sim.values, rel.values, 1.0, "avg"), abs=1e-12
        )


def tiny_clip(clip_id, length, verb=1, noun=1, split="test", caption="cap"):
    return ClipRecord(clip_id, "v", split, 0, length - 1, caption, verb, noun)


class TestTopkAvgLength:
    def dataset(self):
        return Dataset(clips=(tiny_clip("g0", 10), tiny_clip("g1", 20), tiny_clip("g2", 30)))

    def test_k1(self):
        sim = make_sim([[0.1, 0.9, 0.5]])
        assert topk_avg_length(sim, self.dataset(), 0, 1) == 20

    def test_top2_mean(self):
        sim = make_sim([[0.3, 0.2, 0.1]])
        assert topk_avg_length(sim, self.dataset(), 0, 2) == 15

    def test_k_bounds(self):
        sim = make_sim([[0.3, 0.2, 0.1]])
        with pytest.raises(ValueError):
            topk_avg_length(sim, self.dataset(), 0, 4)
        with pytest.raises(ValueError):
            topk_avg_length(sim, self.dataset(), 0, 0)

    def test_unresolvable_id(self):
        sim = make_sim([[0.3, 0.2]], cols=("g0", "missing"))
        with pytest.raises(NotFoundError):
            topk_avg_length(sim, self.dataset(), 0, 2)


class TestInspectQuery:
    def test_single_cell(self):
        ds = Dataset(clips=(tiny_clip("q", 5),))
        sim = make_sim([[0.7]], rows=("q",), cols=("q",))
        (entry,) = inspect_query(sim, ds, "q", 1)
        assert entry.gallery_id == "q"
        assert entry.relevance == 1.0
        assert entry.frame_length == 5

    def test_wrong_class_above_gt(self):
        ds = Dataset(
            clips=(
                tiny_clip("q", 10, verb=1, noun=1),
                tiny_clip("imposter", 400, verb=7, noun=8),
            )
        )
        sim = make_sim([[0.2, 0.9]], rows=("q",), cols=("q", "imposter"))
        entries = inspect_query(sim, ds, "q", 2)
        assert entries[0].gallery_id == "imposter"
        assert entries[0].relevance == 0.0
        assert entries[1].gallery_id == "q"

    def test_k_clamped(self):
        ds = Dataset(clips=(tiny_clip("q", 5), tiny_clip("g", 6)))
        sim = make_sim([[0.7, 0.1]], rows=("q",), cols=("q", "g"))
        assert len(inspect_query(sim, ds, "q", 100)) == 2

    def test_unknown_query(self):
        ds = Dataset(clips=(tiny_clip("q", 5),))
        sim = make_sim([[0.7]], rows=("q",), cols=("q",))
        with pytest.raises(NotFoundError):
            inspect_query(sim, ds, "nope", 1)


class TestInvariances:
    def test_monotone_transforms_exact(self):
        rng = np.random.default_rng(50)
        for _ in range(25):
            sim, rel = random_pair(rng)
            base_ndcg = ndcg_average(sim, rel, "avg")
            base_map = map_average(sim, rel, direction="avg")
            base_ranks = [gt_rank(sim, i, sim.cols[0]) for i in range(len(sim.rows))]
            for transform in (lambda x: 2 * x + 1, np.tanh):
                warped = make_sim(transform(sim.values), rows=sim.rows, cols=sim.cols)
                assert ndcg_average(warped, rel, "avg") == base_ndcg
                assert map_average(warped, rel, direction="avg") == base_map
                assert [gt_rank(warped, i, sim.cols[0]) for i in range(len(sim.rows))] == base_ranks

    def test_gallery_permutation_equivariance(self):
        rng = np.random.default_rng(51)
        sim, rel = random_pair(rng, max_side=10)
        perm = rng.permutation(len(sim.cols))
        sim_p = make_sim(sim.values[:, perm], rows=sim.rows, cols=tuple(sim.cols[j] for j in perm))
        rel_p = make_rel(rel.values[:, perm], rows=rel.rows, cols=tuple(rel.cols[j] for j in perm))
        assert ndcg_average(sim_p, rel_p, "avg") == pytest.approx(
            ndcg_average(sim, rel, "avg"), abs=1e-12
        )
        assert map_average(sim_p, rel_p, direction="avg") == pytest.approx(
            map_average(sim, rel, direction="avg"), abs=1e-12
        )
        gt = sim.cols[0]
        assert gt_rank(sim_p, 0, gt) == gt_rank(sim, 0, gt)

    @given(
        rels=st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=1, max_size=12).filter(
            lambda r: any(v > 0 for v in r)
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_ndcg_bounds_and_sorted_unity(self, rels, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=len(rels))
        value = ndcg_query(scores, rels)
        assert 0.0 <= value <= 1.0 + 1e-12
        ranked = [rels[i] for i in np.argsort(-scores, kind="stable")]
        if all(ranked[i] >= ranked[i + 1] for i in range(len(ranked) - 1)):
            assert value == pytest.approx(1.0, abs=1e-12)

    @given(
        rels=st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=12).filter(
            lambda r: any(r)
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_ap_perfect_iff_relevant_first(self, rels, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=len(rels))
        value = average_precision(scores, rels)
        ranked = [rels[i] for i in np.argsort(-scores, kind="stable")]
        first_zero = ranked.index(0.0) if 0.0 in ranked else len(ranked)
        perfect = all(v == 0.0 for v in ranked[first_zero:])
        assert (value == pytest.approx(1.0, abs=1e-12)) == perfect
        assert 0.0 <= value <= 1.0 + 1e-12


class TestMetricsReport:
    def dataset(self):
        clips = [
            tiny_clip("q0", 10, verb=1, noun=1, caption="one"),
            tiny_clip("q1", 20, verb=1, noun=2, caption="two"),
            tiny_clip("q2", 30, verb=3, noun=3, caption="three"),
        ]
        return Dataset(clips=tuple(clips))

    def test_identity(self):
        ids = ("q0", "q1", "q2")
        sim = make_sim(np.eye(3), rows=ids, cols=ids)
        report = metrics_report(sim, self.dataset())
        assert report.avg_ndcg == 1.0
        assert report.avg_map == 1.0
        assert report.t2v.recall[1] == 1.0
        assert report.t2v.gt_ranks == (1, 1, 1)
        assert report.avg_ndcg == 0.5 * (report.t2v.ndcg + report.v2t.ndcg)

    def test_missing_id_names_offender(self):
        sim = make_sim([[1.0]], rows=("ghost",), cols=("q0",))
        with pytest.raises(NotFoundError, match="ghost"):
            metrics_report(sim, self.dataset())

    def test_rank_variants_ordering(self):
        ids = ("q0", "q1", "q2")
        values = np.array([[0.5, 0.5, 0.5], [0.1, 0.9, 0.2], [0.3, 0.3, 0.3]])
        sim = make_sim(values, rows=ids, cols=ids)
        report = metrics_report(sim, self.dataset())
        assert report.t2v.mean_rank_optimistic <= report.t2v.mean_rank <= report.t2v.mean_rank_pessimistic

    def test_threshold_and_depth_flow_through(self):
        ids = ("q0", "q1", "q2")
        rng = np.random.default_rng(52)
        sim = make_sim(rng.normal(size=(3, 3)), rows=ids, cols=ids)
        loose = metrics_report(sim, self.dataset(), threshold=0.5)
        strict = metrics_report(sim, self.dataset(), threshold=1.0)
        assert loose.t2v.num_degenerate_ap <= strict.t2v.num_degenerate_ap
        shallow = metrics_report(sim, self.dataset(), depth=1)
        assert 0.0 <= shallow.avg_ndcg <= 1.0
