import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framebias.dataset import ActionClass, ClipRecord, Dataset, class_of, frame_length
from framebias.errors import NotFoundError, ShapeMismatchError
from framebias.filtering import (
    FRACTION_REMOVED,
    SKIPPED_NO_TEST,
    SKIPPED_NO_TRAIN,
    STOP_NO_IMPROVEMENT,
    STOP_SIZE_FLOOR,
    STOP_WITHIN_MARGIN,
    FilterConfig,
    _margin_ratio,
    filter_margin,
    filter_single_class,
    sum_similarity_matrices,
)
from framebias.matrices import SimilarityMatrix

from conftest import make_dataset, make_multiclass


def lengths_of(dataset, action_class, split):
    return sorted(frame_length(c) for c in dataset.clips_of(action_class, split))


class TestMarginFixtures:
    def test_three_clip_fixture(self):
        # train {10,100,400}, test mean 100: only removing 400 improves
        # (mean 55, gap 45); the floor then blocks further removals.
        ds = make_dataset([10, 100, 400], [100])
        filtered, report = filter_margin(ds, FilterConfig(alpha=20, min_class_size=2))
        assert report.removed_count == 1
        removed = ds.by_id[report.removed_clip_ids[0]]
        assert frame_length(removed) == 400
        assert report.per_class[0].stop_reason == STOP_SIZE_FLOOR
        assert lengths_of(filtered, ActionClass(1, 1), "train") == [10, 100]

    def test_five_clip_fixture(self):
        # train {50,90,130,170,310}, test mean 100: removing 310 lands the
        # mean at 110, gap 10 <= alpha 15.
        ds = make_dataset([50, 90, 130, 170, 310], [100])
        filtered, report = filter_margin(ds, FilterConfig(alpha=15, min_class_size=3))
        assert report.removed_count == 1
        assert frame_length(ds.by_id[report.removed_clip_ids[0]]) == 310
        assert report.per_class[0].stop_reason == STOP_WITHIN_MARGIN
        assert report.per_class[0].after.discrepancy == pytest.approx(10.0)

    def test_already_within_margin(self):
        ds = make_dataset([90, 110], [100])
        _, report = filter_margin(ds, FilterConfig(alpha=20, min_class_size=1))
        assert report.removed_count == 0
        assert report.per_class[0].stop_reason == STOP_WITHIN_MARGIN

    def test_skip_reasons(self):
        ds = make_multiclass({(1, 1): ([10, 20], []), (2, 2): ([], [30])})
        _, report = filter_margin(ds, FilterConfig(alpha=0, min_class_size=1))
        reasons = {o.action_class: o.stop_reason for o in report.per_class}
        assert reasons[ActionClass(1, 1)] == SKIPPED_NO_TEST
        assert reasons[ActionClass(2, 2)] == SKIPPED_NO_TRAIN
        assert report.removed_count == 0

    def test_no_improvement_equal_lengths(self):
        # all train clips equal: no removal can change the mean
        ds = make_dataset([50, 50, 50, 50], [100])
        _, report = filter_margin(ds, FilterConfig(alpha=10, min_class_size=1))
        assert report.removed_count == 0
        assert report.per_class[0].stop_reason == STOP_NO_IMPROVEMENT

    def test_huge_alpha_is_noop(self):
        ds = make_multiclass({(1, 1): ([10, 400, 30], [200, 220]), (2, 2): ([5, 900], [80])})
        filtered, report = filter_margin(ds, FilterConfig(alpha=1e9, min_class_size=1))
        assert report.removed_count == 0
        assert filtered == ds

    def test_tie_prefers_farther_from_target(self):
        # train {40,140,180}, test mean 100: removing 140 or 180 both leave
        # a gap of 10, so the tie goes to 180 (farther from the target)
        ds = make_dataset([40, 140, 180], [100])
        _, report = filter_margin(ds, FilterConfig(alpha=10, min_class_size=1))
        assert [frame_length(ds.by_id[i]) for i in report.removed_clip_ids] == [180]
        assert report.per_class[0].stop_reason == STOP_WITHIN_MARGIN

    def test_equal_length_tie_removes_smaller_id_first(self):
        ds = make_dataset([100, 100, 400, 400], [100])
        _, report = filter_margin(ds, FilterConfig(alpha=0, min_class_size=1))
        assert report.removed_clip_ids == ("tr002", "tr003")
        assert report.per_class[0].stop_reason == STOP_WITHIN_MARGIN

    def test_report_totals_consistent(self):
        ds = make_multiclass(
            {(1, 1): ([10, 100, 400], [100]), (2, 2): ([50, 90, 130, 170, 310], [100])}
        )
        _, report = filter_margin(ds, FilterConfig(alpha=15, min_class_size=2))
        assert report.removed_count == len(report.removed_clip_ids)
        per_class_sum = sum(
            o.before.train_count - o.after.train_count for o in report.per_class
        )
        assert report.removed_count == per_class_sum
        assert report.removed_fraction == report.removed_count / len(ds)
        assert report.classes_touched == sum(
            1 for o in report.per_class if o.after.train_count < o.before.train_count
        )


class TestSingleClass:
    def test_remove_short_fraction(self):
        ds = make_dataset([5, 9, 100], [50])
        filtered, report = filter_single_class(ds, ActionClass(1, 1), "remove_short", 0.34)
        assert sorted(frame_length(ds.by_id[i]) for i in report.removed_clip_ids) == [5, 9]
        assert lengths_of(filtered, ActionClass(1, 1), "train") == [100]
        assert report.per_class[0].stop_reason == FRACTION_REMOVED

    def test_table1_style_count(self):
        ds = make_dataset(list(range(100, 188)), [200])
        filtered, report = filter_single_class(ds, ActionClass(1, 1), "remove_long", 31 / 88)
        assert report.removed_count == 31
        assert len(filtered.clips_of(ActionClass(1, 1), "train")) == 57

    def test_modes_remove_disjoint_sets(self):
        ds = make_dataset([10, 20, 30, 40, 50, 60], [35])
        _, long_report = filter_single_class(ds, ActionClass(1, 1), "remove_long", 0.5)
        _, short_report = filter_single_class(ds, ActionClass(1, 1), "remove_short", 0.5)
        assert not set(long_report.removed_clip_ids) & set(short_report.removed_clip_ids)

    def test_remove_long_direction(self):
        ds = make_dataset([10, 20, 30, 40], [25])
        _, report = filter_single_class(ds, ActionClass(1, 1), "remove_long", 0.5)
        assert sorted(frame_length(ds.by_id[i]) for i in report.removed_clip_ids) == [30, 40]

    def test_tie_by_clip_id(self):
        clips = tuple(
            ClipRecord(cid, "v", "train", 0, 19, "x", 1, 1) for cid in ("b", "a", "c")
        ) + (ClipRecord("t", "v", "test", 0, 19, "x", 1, 1),)
        ds = Dataset(clips=clips)
        _, report = filter_single_class(ds, ActionClass(1, 1), "remove_long", 0.4)
        assert report.removed_clip_ids == ("a", "b")

    def test_untouched_other_classes(self):
        ds = make_multiclass({(1, 1): ([10, 20], [30]), (2, 2): ([40, 50], [60])})
        filtered, _ = filter_single_class(ds, ActionClass(1, 1), "remove_long", 0.5)
        assert filtered.clips_of(ActionClass(2, 2), "train") == ds.clips_of(ActionClass(2, 2), "train")

    def test_errors(self):
        ds = make_dataset([10, 20], [30])
        with pytest.raises(NotFoundError):
            filter_single_class(ds, ActionClass(9, 9), "remove_long", 0.5)
        with pytest.raises(ValueError):
            filter_single_class(ds, ActionClass(1, 1), "remove_long", 0.0)
        with pytest.raises(ValueError):
            filter_single_class(ds, ActionClass(1, 1), "remove_long", 1.0)
        with pytest.raises(ValueError):
            filter_single_class(ds, ActionClass(1, 1), "sideways", 0.5)
        tiny = make_dataset([10], [30])
        with pytest.raises(ValueError):
            filter_single_class(tiny, ActionClass(1, 1), "remove_long", 0.5)


def random_dataset(rng, num_classes=20, max_train=40, max_test=12):
    spec = {}
    for c in range(num_classes):
        verb, noun = int(rng.integers(0, 8)), int(rng.integers(0, 8))
        train = [int(x) for x in rng.integers(1, 600, size=rng.integers(0, max_train))]
        test = [int(x) for x in rng.integers(1, 600, size=rng.integers(0, max_test))]
        key = (verb, noun)
        if key in spec:
            continue
        spec[key] = (train, test)
    return make_multiclass(spec)


def assert_margin_invariants(ds, config):
    filtered, report = filter_margin(ds, config)
    removed = set(report.removed_clip_ids)

    # split preservation: test side bit-identical
    assert filtered.split_clips("test") == ds.split_clips("test")
    assert not any(ds.by_id[i].split == "test" for i in removed)

    # output preserves relative order of survivors
    survivors = [c.clip_id for c in ds.clips if c.clip_id not in removed]
    assert [c.clip_id for c in filtered.clips] == survivors

    for outcome in report.per_class:
        ac = outcome.action_class
        before, after = outcome.before, outcome.after
        n_before = len(ds.clips_of(ac, "train"))
        n_after = len(filtered.clips_of(ac, "train"))
        assert (before.train_count, after.train_count) == (n_before, n_after)
        if outcome.stop_reason in (SKIPPED_NO_TEST, SKIPPED_NO_TRAIN):
            assert n_after == n_before
            continue
        # floor respected; untouchable classes stay whole
        if n_before <= config.min_class_size:
            assert n_after == n_before
        else:
            assert n_after >= config.min_class_size
        # margin-or-reason
        if outcome.stop_reason == STOP_WITHIN_MARGIN:
            assert after.discrepancy <= config.alpha + 1e-9
        else:
            assert outcome.stop_reason in (STOP_SIZE_FLOOR, STOP_NO_IMPROVEMENT)

    # idempotence
    _, second = filter_margin(filtered, config)
    assert second.removed_count == 0
    return filtered, report


def removals_by_class(ds, report):
    out = {}
    for clip_id in report.removed_clip_ids:
        out.setdefault(class_of(ds.by_id[clip_id]), []).append(clip_id)
    return out


class TestMarginProperties:
    def test_randomized_invariants(self):
        rng = np.random.default_rng(77)
        for trial in range(12):
            ds = random_dataset(rng)
            alpha = float(rng.uniform(0, 80))
            floor = int(rng.integers(1, 15))
            assert_margin_invariants(ds, FilterConfig(alpha=alpha, min_class_size=floor))

    def test_alpha_monotonicity_prefix(self):
        rng = np.random.default_rng(78)
        for trial in range(12):
            ds = random_dataset(rng)
            floor = int(rng.integers(1, 12))
            a1, a2 = sorted([float(rng.uniform(0, 60)), float(rng.uniform(0, 60))])
            _, r1 = filter_margin(ds, FilterConfig(alpha=a1, min_class_size=floor))
            _, r2 = filter_margin(ds, FilterConfig(alpha=a2, min_class_size=floor))
            seq1 = removals_by_class(ds, r1)
            seq2 = removals_by_class(ds, r2)
            for ac, ids2 in seq2.items():
                assert seq1.get(ac, [])[: len(ids2)] == ids2

    def test_each_removal_strictly_decreases_gap(self):
        rng = np.random.default_rng(79)
        for trial in range(8):
            ds = random_dataset(rng)
            _, report = filter_margin(ds, FilterConfig(alpha=float(rng.uniform(0, 30)),
                                                       min_class_size=int(rng.integers(1, 8))))
            for ac, ids in removals_by_class(ds, report).items():
                train = {c.clip_id: frame_length(c) for c in ds.clips_of(ac, "train")}
                test = [frame_length(c) for c in ds.clips_of(ac, "test")]
                target = sum(test) / len(test)
                gap = abs(sum(train.values()) / len(train) - target)
                for clip_id in ids:
                    del train[clip_id]
                    new_gap = abs(sum(train.values()) / len(train) - target)
                    assert new_gap < gap
                    gap = new_gap

    def test_determinism(self):
        rng = np.random.default_rng(80)
        ds = random_dataset(rng)
        config = FilterConfig(alpha=10, min_class_size=3)
        _, r1 = filter_margin(ds, config)
        _, r2 = filter_margin(ds, config)
        assert r1.removed_clip_ids == r2.removed_clip_ids

    def test_removal_order_grouped_by_class(self):
        rng = np.random.default_rng(81)
        ds = random_dataset(rng)
        _, report = filter_margin(ds, FilterConfig(alpha=5, min_class_size=2))
        classes_seen = [class_of(ds.by_id[i]) for i in report.removed_clip_ids]
        # class blocks appear in sorted order, never interleaved
        assert classes_seen == sorted(classes_seen)

    def test_matches_exhaustive_greedy_reference(self):
        # cross-check the bisect shortcut against an exhaustive greedy that
        # evaluates every single removal with exact rational arithmetic
        from fractions import Fraction

        def brute(train_pairs, test_lengths, alpha, floor):
            target = Fraction(sum(test_lengths), len(test_lengths))
            remaining = dict(train_pairs)
            removed = []
            while True:
                n = len(remaining)
                total = sum(remaining.values())
                gap = abs(Fraction(total, n) - target)
                if gap <= alpha:
                    return removed, "within_margin"
                if n - 1 < floor:
                    return removed, "size_floor"
                best_key, best_id, best_gap = None, None, None
                for cid in sorted(remaining):
                    length = remaining[cid]
                    new_gap = abs(Fraction(total - length, n - 1) - target)
                    key = (new_gap, -abs(Fraction(length) - target), cid)
                    if best_key is None or key < best_key:
                        best_key, best_id, best_gap = key, cid, new_gap
                if not best_gap < gap:
                    return removed, "no_improvement"
                del remaining[best_id]
                removed.append(best_id)

        rng = np.random.default_rng(82)
        for trial in range(120):
            n_train = int(rng.integers(1, 13))
            train_lengths = [int(x) for x in rng.integers(1, 50, size=n_train)]
            test_lengths = [int(x) for x in rng.integers(1, 50, size=rng.integers(1, 6))]
            alpha = float(rng.choice([0.0, 0.5, 3.7, 10.0]))
            floor = int(rng.integers(1, 5))
            ds = make_dataset(train_lengths, test_lengths)
            _, report = filter_margin(ds, FilterConfig(alpha=alpha, min_class_size=floor))
            pairs = [(c.clip_id, frame_length(c)) for c in ds.split_clips("train")]
            expect_ids, expect_reason = brute(pairs, test_lengths, alpha, floor)
            assert list(report.removed_clip_ids) == expect_ids, (train_lengths, test_lengths, alpha, floor)
            assert report.per_class[0].stop_reason == expect_reason


@given(
    gap=st.integers(0, 10**12),
    d=st.integers(1, 10**6),
    alpha=st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(0, 10**6)),
)
@example(gap=3, d=2, alpha=1.5)
@example(gap=1, d=10, alpha=0.1)
@example(gap=0, d=1, alpha=math.nan)
@example(gap=10**12, d=1, alpha=math.inf)
@example(gap=0, d=1, alpha=-math.inf)
@settings(max_examples=500, deadline=None)
def test_margin_ratio_matches_fraction(gap, d, alpha):
    num, den = _margin_ratio(alpha)
    assert (gap * den <= num * d) == (Fraction(gap, d) <= alpha)


def test_non_finite_alpha():
    ds = random_dataset(np.random.default_rng(83))
    _, report = filter_margin(ds, FilterConfig(alpha=math.inf, min_class_size=2))
    assert report.removed_count == 0
    assert {o.stop_reason for o in report.per_class} <= {STOP_WITHIN_MARGIN, SKIPPED_NO_TEST, SKIPPED_NO_TRAIN}
    _, report = filter_margin(ds, FilterConfig(alpha=math.nan, min_class_size=2))
    assert report.removed_count > 0
    assert STOP_WITHIN_MARGIN not in {o.stop_reason for o in report.per_class}


class TestFilterConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FilterConfig(alpha=-1)
        with pytest.raises(ValueError):
            FilterConfig(alpha=0, min_class_size=0)
        assert FilterConfig(alpha=0).min_class_size == 11


class TestSumSimilarity:
    def _matrix(self, values, rows=("q1", "q2"), cols=("g1", "g2")):
        return SimilarityMatrix(rows=rows, cols=cols, values=np.array(values, dtype=float))

    def test_single_matrix_identity(self):
        a = self._matrix([[1, 2], [3, 4]])
        assert sum_similarity_matrices([a]) == a

    def test_elementwise_sum(self):
        a = self._matrix([[1, 2], [3, 4]])
        b = self._matrix([[10, 0], [0, 10]])
        total = sum_similarity_matrices([a, b])
        assert np.array_equal(total.values, [[11, 2], [3, 14]])
        assert total.rows == a.rows and total.cols == a.cols

    def test_mean_variant(self):
        a = self._matrix([[1, 2], [3, 4]])
        b = self._matrix([[3, 2], [1, 0]])
        mean = sum_similarity_matrices([a, b], mean=True)
        assert np.array_equal(mean.values, [[2, 2], [2, 2]])

    def test_shape_mismatch(self):
        a = self._matrix([[1, 2], [3, 4]])
        b = SimilarityMatrix(rows=("q1", "q2"), cols=("g1", "g2", "g3"),
                             values=np.zeros((2, 3)))
        message = r"^matrix 1: id mappings differ from matrix 0's: shape 2x3 against 2x2$"
        with pytest.raises(ShapeMismatchError, match=message):
            sum_similarity_matrices([a, b])

    def test_id_mismatch(self):
        a = self._matrix([[1, 2], [3, 4]])
        b = self._matrix([[1, 2], [3, 4]], cols=("g1", "gX"))
        message = r"^matrix 2: id mappings differ from matrix 0's at column 1: 'gX' against 'g2'$"
        with pytest.raises(ShapeMismatchError, match=message):
            sum_similarity_matrices([a, a, b])

    def test_empty_list(self):
        with pytest.raises(ValueError):
            sum_similarity_matrices([])
