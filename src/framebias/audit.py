"""Per-class and global frame-length discrepancy statistics.

All functions are pure views over an immutable Dataset; output order is
fixed by sort rules (never by evaluation order).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from framebias.dataset import ActionClass, Dataset, frame_length, length_sum
from framebias.errors import DegenerateInputError, NotFoundError

# every bin up to the longest clip is materialised (about 100 B each)
MAX_HISTOGRAM_BINS = 1_000_000


@dataclass(frozen=True)
class ClassStats:
    """Train/test counts, mean lengths, and their absolute gap for one class.

    Means are None for an empty split; discrepancy is None unless both
    splits are populated.
    """

    action_class: ActionClass
    train_count: int
    test_count: int
    train_mean_len: float | None
    test_mean_len: float | None
    discrepancy: float | None


@dataclass(frozen=True)
class LengthHistogram:
    """Per-bin train/test clip counts; bins cover [k*w, (k+1)*w) from 0."""

    bin_width: int
    bins: tuple[tuple[int, int, int], ...]  # (bin_start, train_count, test_count)


def stats_from_sums(action_class: ActionClass, train_n: int, train_sum: int, test_n: int, test_sum: int) -> ClassStats:
    """ClassStats from each split's clip count and integer length sum."""
    train_mean = train_sum / train_n if train_n else None
    test_mean = test_sum / test_n if test_n else None
    disc = abs(train_mean - test_mean) if train_n and test_n else None
    return ClassStats(
        action_class=action_class,
        train_count=train_n,
        test_count=test_n,
        train_mean_len=train_mean,
        test_mean_len=test_mean,
        discrepancy=disc,
    )


def class_stats(dataset: Dataset) -> list[ClassStats]:
    """One entry per action class present, in (verb, noun) order."""
    rows = []
    for ac, by_split in dataset.index.items():
        train, test = by_split["train"], by_split["test"]
        train_sum, test_sum = length_sum(train), length_sum(test)
        rows.append(stats_from_sums(ac, len(train), train_sum, len(test), test_sum))
    return rows


def global_length_summary(dataset: Dataset) -> tuple[float, float, int, int]:
    """(train_mean, test_mean, train_count, test_count) over whole splits."""
    train = dataset.split_clips("train")
    test = dataset.split_clips("test")
    if not train or not test:
        raise DegenerateInputError("global length summary requires non-empty train and test splits")
    train_sum, test_sum = length_sum(train), length_sum(test)
    return (train_sum / len(train), test_sum / len(test), len(train), len(test))


def length_histogram(
    dataset: Dataset, action_class: ActionClass | None = None, bin_width: int = 30
) -> LengthHistogram:
    """Tally clip lengths into fixed-width bins, split side by side.

    ``action_class=None`` tallies every clip; otherwise only that class's
    clips (unknown class raises NotFoundError).
    """
    if bin_width <= 0:
        raise ValueError(f"bin_width must be > 0, got {bin_width}")
    if action_class is None:
        clips = dataset.clips
    else:
        if action_class not in dataset.index:
            raise NotFoundError(f"action class {action_class} not present in dataset")
        clips = dataset.clips_of(action_class, "train") + dataset.clips_of(action_class, "test")
    counts: dict[int, list[int]] = {}
    for clip in clips:
        b = (frame_length(clip) // bin_width) * bin_width
        cell = counts.setdefault(b, [0, 0])
        cell[0 if clip.split == "train" else 1] += 1
    if not counts:
        return LengthHistogram(bin_width=bin_width, bins=())
    top = max(counts)
    if top // bin_width >= MAX_HISTOGRAM_BINS:
        longest = max(clips, key=frame_length)
        raise DegenerateInputError(
            f"histogram needs {top // bin_width + 1} bins of width {bin_width} (limit {MAX_HISTOGRAM_BINS}) "
            f"for clip {longest.clip_id!r} of {frame_length(longest)} frames"
        )
    bins = tuple(
        (start, *counts.get(start, (0, 0))) for start in range(0, top + bin_width, bin_width)
    )
    return LengthHistogram(bin_width=bin_width, bins=bins)


def discrepancy_table(stats: list[ClassStats]) -> list[ClassStats]:
    """The entries of ``stats`` (as from class_stats) with a defined
    discrepancy (both splits populated), ranked by it, largest first; ties
    keep their order in ``stats``.
    """
    rows = [s for s in stats if s.discrepancy is not None]
    rows.sort(key=lambda s: -s.discrepancy)  # stable: ties keep input order
    return rows


def histogram_csv(hist: LengthHistogram) -> str:
    """3-column delimited plot data: bin_start,train_count,test_count."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["bin_start", "train_count", "test_count"])
    writer.writerows(hist.bins)
    return buf.getvalue()
