"""Debiasing filters: greedy per-class margin filter and naive single-class removal.

The margin filter walks classes in (verb, noun) order and, per class,
repeatedly deletes the one train clip whose removal brings the train mean
length closest to the class's test mean, until the gap is within the margin,
the class would shrink below the size floor, or no removal helps. Only train
clips are ever deleted.

All mean comparisons use exact integer arithmetic (lengths are integers and
targets are rationals), so tie-breaking and stopping are float-free and
deterministic.
"""

from __future__ import annotations

import bisect
import math
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass

from framebias._numpy import np
from framebias.audit import ClassStats, stats_from_sums
from framebias.dataset import ActionClass, ClipRecord, Dataset, frame_length
from framebias.errors import NotFoundError, ShapeMismatchError
from framebias.matrices import SimilarityMatrix

STOP_WITHIN_MARGIN = "within_margin"
STOP_SIZE_FLOOR = "size_floor"
STOP_NO_IMPROVEMENT = "no_improvement"
SKIPPED_NO_TEST = "skipped_no_test"
SKIPPED_NO_TRAIN = "skipped_no_train"
FRACTION_REMOVED = "fraction_removed"  # used by the single-class filter only

MODES = ("remove_long", "remove_short")


@dataclass(frozen=True)
class FilterConfig:
    """Margin filter knobs: margin alpha (frames) and train-size floor."""

    alpha: float
    min_class_size: int = 11

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.min_class_size < 1:
            raise ValueError(f"min_class_size must be >= 1, got {self.min_class_size}")


@dataclass(frozen=True)
class ClassFilterOutcome:
    action_class: ActionClass
    stop_reason: str
    before: ClassStats
    after: ClassStats


@dataclass(frozen=True)
class FilterReport:
    """Which clips were removed and how each class ended up."""

    removed_count: int
    classes_touched: int
    removed_fraction: float
    removed_clip_ids: tuple[str, ...]
    per_class: tuple[ClassFilterOutcome, ...]


def _margin_ratio(alpha: float) -> tuple[int, int]:
    """(num, den) with ``gap * den <= num * d`` iff ``Fraction(gap, d) <= alpha``
    (d > 0); as with Fraction, alpha = +inf always holds and nan never does."""
    return alpha.as_integer_ratio() if math.isfinite(alpha) else (1 if alpha > 0 else -1, 0)


def _greedy_class_removals(
    train: tuple[ClipRecord, ...], test_sum: int, test_n: int, config: FilterConfig
) -> tuple[list[str], str, int]:
    """Removal ids (in order), the stop reason and the kept length sum for one class."""
    entries = sorted((frame_length(c), c.clip_id) for c in train)
    lengths = [e[0] for e in entries]
    n = len(entries)
    total = sum(lengths)
    t_sum, t_n = test_sum, test_n
    num, den = _margin_ratio(config.alpha)
    removed: list[str] = []
    while True:
        # |train_mean - target| = gap / (n * t_n) <= alpha, exactly
        gap = abs(t_n * total - n * t_sum)
        if gap * den <= num * n * t_n:
            return removed, STOP_WITHIN_MARGIN, total
        if n - 1 < config.min_class_size:
            return removed, STOP_SIZE_FLOOR, total
        # Removing length l leaves gap |K - t_n*l| / ((n-1)*t_n) where
        # K = t_n*total - t_sum*(n-1); best l is the one nearest K/t_n.
        k_scaled = t_n * total - t_sum * (n - 1)
        pos = bisect.bisect_left(lengths, k_scaled / t_n)
        candidates = []
        if pos < n:
            candidates.append(pos)  # head of the group with length >= K/t_n
        if pos > 0:
            candidates.append(bisect.bisect_left(lengths, lengths[pos - 1]))
        best = None
        best_key = None
        for idx in candidates:
            length, clip_id = entries[idx]
            d = abs(k_scaled - t_n * length)
            # ties prefer the clip farther from the target, then smaller id
            key = (d, -abs(t_n * length - t_sum), clip_id)
            if best_key is None or key < best_key:
                best, best_key = idx, key
        length, clip_id = entries[best]
        if abs(k_scaled - t_n * length) * n >= gap * (n - 1):
            return removed, STOP_NO_IMPROVEMENT, total
        entries.pop(best)
        lengths.pop(best)
        total -= length
        n -= 1
        removed.append(clip_id)


def filter_margin(dataset: Dataset, config: FilterConfig) -> tuple[Dataset, FilterReport]:
    """Apply the greedy margin filter to every class; test clips pass through."""
    removed_ids: list[str] = []
    outcomes: list[ClassFilterOutcome] = []
    for ac, by_split in dataset.index.items():
        train, test = by_split["train"], by_split["test"]
        train_sum, test_sum = sum(map(frame_length, train)), sum(map(frame_length, test))
        before = stats_from_sums(ac, len(train), train_sum, len(test), test_sum)
        if not train:
            outcomes.append(ClassFilterOutcome(ac, SKIPPED_NO_TRAIN, before, before))
            continue
        if not test:
            outcomes.append(ClassFilterOutcome(ac, SKIPPED_NO_TEST, before, before))
            continue
        removed, reason, kept_sum = _greedy_class_removals(train, test_sum, len(test), config)
        after = stats_from_sums(ac, len(train) - len(removed), kept_sum, len(test), test_sum)
        outcomes.append(ClassFilterOutcome(ac, reason, before, after))
        removed_ids.extend(removed)
    return _finalize(dataset, removed_ids, outcomes)


def filter_single_class(
    dataset: Dataset, action_class: ActionClass, mode: str, fraction: float
) -> tuple[Dataset, FilterReport]:
    """Remove the longest or shortest ceil(fraction * n) train clips of one class."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    if action_class not in dataset.index:
        raise NotFoundError(f"action class {action_class} not present in dataset")
    train = dataset.clips_of(action_class, "train")
    test = dataset.clips_of(action_class, "test")
    if len(train) < 2:
        raise ValueError(f"class {action_class} has {len(train)} train clips; need >= 2")
    # guard against float noise pushing an exact product just above an integer
    count = max(1, math.ceil(fraction * len(train) - 1e-9))
    sign = -1 if mode == "remove_long" else 1
    order = sorted(train, key=lambda c: (sign * frame_length(c), c.clip_id))
    removed = [c.clip_id for c in order[:count]]
    train_sum = sum(frame_length(c) for c in train)
    test_sum = sum(frame_length(c) for c in test)
    before = stats_from_sums(action_class, len(train), train_sum, len(test), test_sum)
    kept_sum = train_sum - sum(frame_length(c) for c in order[:count])
    after = stats_from_sums(action_class, len(train) - count, kept_sum, len(test), test_sum)
    outcome = ClassFilterOutcome(action_class, FRACTION_REMOVED, before, after)
    return _finalize(dataset, removed, [outcome])


def _finalize(
    dataset: Dataset, removed_ids: list[str], outcomes: list[ClassFilterOutcome]
) -> tuple[Dataset, FilterReport]:
    removed_set = set(removed_ids)
    kept = tuple(c for c in dataset.clips if c.clip_id not in removed_set)
    touched = sum(1 for o in outcomes if o.after.train_count < o.before.train_count)
    report = FilterReport(
        removed_count=len(removed_ids),
        classes_touched=touched,
        removed_fraction=len(removed_ids) / len(dataset.clips) if dataset.clips else 0.0,
        removed_clip_ids=tuple(removed_ids),
        per_class=tuple(outcomes),
    )
    return Dataset._of(kept), report  # a subset of distinct ids


def _check_same_ids(ids, other, names) -> None:
    """Refuse (rows, cols) ``other`` unless it is ``ids``, naming the shapes or the
    first row or column that differs; ``names`` name the matrices of ``ids`` and ``other``."""
    where = f"{names[1]}: id mappings differ from {names[0]}'s"
    if tuple(map(len, ids)) != tuple(map(len, other)):
        raise ShapeMismatchError(f"{where}: shape {len(other[0])}x{len(other[1])} against {len(ids[0])}x{len(ids[1])}")
    for side, expected, got in zip(("row", "column"), ids, other):
        i = next((i for i, (a, b) in enumerate(zip(expected, got)) if a != b), None)
        if i is not None:
            raise ShapeMismatchError(f"{where} at {side} {i}: {got[i]!r} against {expected[i]!r}")


def sum_similarity_matrices(matrices, mean: bool = False) -> SimilarityMatrix:
    """Elementwise sum of score matrices sharing identical id mappings.

    ``mean=True`` divides by the number of matrices (normalized variant).
    The iterable is consumed lazily, so a generator of loads holds only the
    running total and one matrix at a time.
    """
    matrices = iter(matrices)
    m = next(matrices, None)
    if m is None:
        raise ValueError("at least one similarity matrix is required")
    rows, cols, total, count = m.rows, m.cols, m.values.copy(), 1
    del m  # hold no loaded matrix while the next one loads
    for m in matrices:  # enumerate would hold the last matrix while the next one loads
        _check_same_ids((rows, cols), (m.rows, m.cols), ("matrix 0", f"matrix {count}"))
        total += m.values
        count += 1
        del m
    if mean:
        total /= count
    return SimilarityMatrix(rows=rows, cols=cols, values=total)


class SumSource:
    """The elementwise sum (``mean=True``: mean) of block sources with
    identical ids, as a block source: each block adds the same block of every
    input in order, so its values are those of ``sum_similarity_matrices``.
    ``names`` (default: ``matrix i``) name the inputs in an id mismatch."""

    def __init__(self, sources, mean: bool = False, names=None) -> None:
        self.sources, self.mean = list(sources), mean
        if not self.sources:
            raise ValueError("at least one similarity matrix is required")
        first = self.sources[0]
        names = names or [f"matrix {i}" for i in range(len(self.sources))]
        for name, s in zip(names[1:], self.sources[1:]):
            _check_same_ids((first.rows, first.cols), (s.rows, s.cols), (names[0], name))
        self.rows, self.cols, self.shape = first.rows, first.cols, first.shape

    @contextmanager
    def blocks(self, rows: int):
        with ExitStack() as stack:
            first, *rest = (stack.enter_context(s.blocks(rows)) for s in self.sources)

            def fill(start, stop, out):
                block = first(start, stop, out)
                if block is not out:  # a matrix's rows come as a view
                    np.copyto(out, block)
                term = np.empty_like(out)
                for other in rest:
                    out += other(start, stop, term)
                if self.mean:
                    out /= len(self.sources)
                return out

            yield fill
