import numpy as np
import pytest

from framebias.audit import (
    class_stats,
    discrepancy_table,
    global_length_summary,
    histogram_csv,
    length_histogram,
)
from framebias.dataset import ActionClass, Dataset
from framebias.errors import DegenerateInputError, NotFoundError

from conftest import make_dataset, make_multiclass


def test_two_point_mean():
    ds = make_dataset([10, 20], [40])
    (stats,) = class_stats(ds)
    assert stats.train_mean_len == 15
    assert stats.test_mean_len == 40
    assert stats.discrepancy == 25
    assert stats.train_count == 2
    assert stats.test_count == 1


def test_train_only_class_undefined_discrepancy():
    ds = make_dataset([10, 20], [])
    (stats,) = class_stats(ds)
    assert stats.test_mean_len is None
    assert stats.discrepancy is None


def test_class_stats_ordering():
    ds = make_multiclass({(2, 1): ([10], [10]), (1, 9): ([20], [20]), (1, 2): ([30], [30])})
    order = [s.action_class for s in class_stats(ds)]
    assert order == [ActionClass(1, 2), ActionClass(1, 9), ActionClass(2, 1)]


def test_class_stats_permutation_invariant():
    ds = make_multiclass({(1, 1): ([10, 30, 50], [20]), (2, 2): ([5, 15], [25, 35])})
    rng = np.random.default_rng(4)
    shuffled = list(ds.clips)
    rng.shuffle(shuffled)
    assert class_stats(Dataset(clips=tuple(shuffled))) == class_stats(ds)


def test_global_summary():
    ds = make_dataset([10, 30], [40])
    assert global_length_summary(ds) == (20.0, 40.0, 2, 1)


def test_global_summary_identical_splits():
    ds = make_dataset([10, 30], [10, 30])
    train_mean, test_mean, _, _ = global_length_summary(ds)
    assert train_mean == test_mean


def test_global_summary_empty_split():
    ds = make_dataset([10, 30], [])
    with pytest.raises(DegenerateInputError):
        global_length_summary(ds)


def test_histogram_single_clip():
    ds = make_dataset([25], [])
    hist = length_histogram(ds, None, 30)
    assert hist.bins == ((0, 1, 0),)


def test_histogram_two_bins():
    ds = make_dataset([25, 35], [35])
    hist = length_histogram(ds, None, 30)
    assert hist.bins == ((0, 1, 0), (30, 1, 1))


def test_histogram_bin_width_zero():
    ds = make_dataset([25], [])
    with pytest.raises(ValueError):
        length_histogram(ds, None, 0)


def test_histogram_unknown_class():
    ds = make_dataset([25], [25])
    with pytest.raises(NotFoundError):
        length_histogram(ds, ActionClass(9, 9), 30)


def test_histogram_per_class_scope():
    ds = make_multiclass({(1, 1): ([25], [35]), (2, 2): ([95], [95])})
    hist = length_histogram(ds, ActionClass(1, 1), 30)
    assert hist.bins == ((0, 1, 0), (30, 0, 1))


def test_histogram_bins_consecutive_and_counts_match():
    rng = np.random.default_rng(5)
    lengths_train = [int(x) for x in rng.integers(1, 500, size=60)]
    lengths_test = [int(x) for x in rng.integers(1, 500, size=25)]
    ds = make_dataset(lengths_train, lengths_test)
    width = 40
    hist = length_histogram(ds, None, width)
    starts = [b[0] for b in hist.bins]
    assert starts == list(range(0, starts[-1] + width, width))
    assert sum(b[1] for b in hist.bins) == len(lengths_train)
    assert sum(b[2] for b in hist.bins) == len(lengths_test)
    assert hist.bins[-1][1] + hist.bins[-1][2] > 0  # no trailing empty bins


def test_histogram_midpoint_mean_within_half_bin():
    rng = np.random.default_rng(6)
    for width in (7, 30, 100):
        lengths = [int(x) for x in rng.integers(1, 600, size=50)]
        ds = make_dataset(lengths, [1])
        hist = length_histogram(ds, None, width)
        total = sum(b[1] for b in hist.bins)
        midpoint_mean = sum((b[0] + width / 2) * b[1] for b in hist.bins) / total
        true_mean = sum(lengths) / len(lengths)
        assert abs(midpoint_mean - true_mean) <= width / 2


def test_discrepancy_table_order_and_min_count():
    ds = make_multiclass(
        {
            (1, 1): ([10, 20], [40, 50]),     # disc 30
            (2, 2): ([100], [200]),           # disc 100
            (3, 3): ([5], []),                # undefined, dropped
            (4, 4): ([7, 7, 7], [7]),         # disc 0
        }
    )
    table = discrepancy_table(class_stats(ds))
    assert [s.action_class for s in table] == [ActionClass(2, 2), ActionClass(1, 1), ActionClass(4, 4)]


def test_discrepancy_table_tie_break_by_class():
    ds = make_multiclass({(5, 5): ([10], [40]), (1, 1): ([100], [130])})  # both disc 30
    table = discrepancy_table(class_stats(ds))
    assert [s.action_class for s in table] == [ActionClass(1, 1), ActionClass(5, 5)]


def test_discrepancy_table_subset_of_class_stats():
    ds = make_multiclass({(1, 1): ([10, 20], [40]), (2, 2): ([5], [95]), (3, 3): ([7], [])})
    by_class = {s.action_class: s for s in class_stats(ds)}
    for row in discrepancy_table(class_stats(ds)):
        assert row == by_class[row.action_class]


def test_histogram_csv():
    ds = make_dataset([25, 35], [35])
    text = histogram_csv(length_histogram(ds, None, 30))
    assert text == "bin_start,train_count,test_count\n0,1,0\n30,1,1\n"
